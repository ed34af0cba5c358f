//! The per-layer metrics of a traced run. Every workload reports every
//! metric, so all traced runs carry the same set: a layer the workload
//! does not call reads 0 in its counts and shares, and the collector price
//! and the probes (see `probes`) are measured on every workload alike.

use crate::alloc::Tally;
use crate::report::Outcome;
use crate::sim::Point;
use cenju4_network::NetStats;
use cenju4_protocol::EngineStats;

/// Service counters of a traced `serve-grid` pass.
#[derive(Clone, Copy, Default)]
pub struct ServeCounts {
    pub sims: u64,
    pub deduped: u64,
    /// Allocations inside `Server::handle`, per cache hit.
    pub alloc_per_request: f64,
}

/// Checker counts of one `check-certify` configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckCounts {
    pub unique_states: u64,
    pub schedules: u64,
    pub transitions: u64,
    pub dedup_hits: u64,
    pub sleep_skipped: u64,
    pub dpor_armed: bool,
}

/// What a traced run measured.
#[derive(Default)]
pub struct Layers {
    /// Wall time of the traced pass and of the untraced pass before it.
    pub traced_s: f64,
    pub plain_s: f64,
    /// Counted simulation points: CG points, or `serve-grid`'s replays.
    pub points: Vec<Point>,
    pub serve: ServeCounts,
    /// Per configuration, in [`crate::check::NAMES`] order.
    pub check: [CheckCounts; 2],
    /// Wall time of the counted explorations.
    pub check_s: f64,
    /// `pump` seconds of CG-64 with an obs `SpanCollector` attached and
    /// without.
    pub collector: (f64, f64),
}

/// `n / d`, or 0 when the workload did nothing to divide by.
fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

impl Layers {
    pub fn report(&self, out: &mut Outcome) {
        let (traced, plain) = (self.traced_s, self.plain_s);
        out.metric_note(
            "trace.overhead_pct",
            (traced / plain - 1.0) * 100.0,
            "%",
            format!("{traced:.3} s traced vs {plain:.3} s untraced"),
        );
        self.engine(out);
        let (with, without) = self.collector;
        out.metric_note(
            "obs.collector_overhead_pct",
            (with / without - 1.0) * 100.0,
            "%",
            format!("CG-64 pump {with:.3} s with vs {without:.3} s without"),
        );

        let s = &self.serve;
        let queries = (s.sims + s.deduped) as f64;
        out.metric("serve.hit_share", ratio(s.deduped as f64, queries), "share");
        out.metric("serve.sims", s.sims as f64, "count");
        out.metric("serve.deduped", s.deduped as f64, "count");
        out.metric("alloc.per_request", s.alloc_per_request, "count");

        for (name, c) in crate::check::NAMES.iter().zip(&self.check) {
            let m = |what: &str| format!("check.{what}.{name}");
            out.metric(m("unique_states"), c.unique_states as f64, "count");
            out.metric(m("schedules"), c.schedules as f64, "count");
            out.metric(m("transitions"), c.transitions as f64, "count");
            out.metric(m("dedup_hits"), c.dedup_hits as f64, "count");
            out.metric(m("sleep_skipped"), c.sleep_skipped as f64, "count");
            out.metric(m("dpor_armed"), f64::from(u8::from(c.dpor_armed)), "bool");
        }
    }

    /// The engine-side layers: work counts from the engine's own
    /// statistics, the observer and the allocator, and where host time
    /// went in the counted points.
    fn engine(&self, out: &mut Outcome) {
        let points = &self.points;
        let sum = |f: &dyn Fn(&Point) -> u64| points.iter().map(f).sum::<u64>();
        let sumf = |f: &dyn Fn(&Point) -> f64| points.iter().map(f).sum::<f64>();
        let completed = sum(&|p| p.completed());
        let per_access = |n: u64| ratio(n as f64, completed as f64);
        let pumps = sum(&|p| p.counts.pumps);
        out.metric("des.events", pumps as f64, "count");
        out.metric("des.events_per_access", per_access(pumps), "count");

        // Host time per engine event: the `pump` loop of a simulation, or
        // one explored transition of the checker (fingerprints and replay
        // included).
        let (pump_s, build_s, new_s) = (
            sumf(&|p| p.pump_s),
            sumf(&|p| p.build_s),
            sumf(&|p| p.driver_new_s),
        );
        let check_s = self.check_s;
        let transitions: u64 = self.check.iter().map(|c| c.transitions).sum();
        let events = (pumps + transitions) as f64;
        let note = format!("{events} events in {:.3} s", pump_s + check_s);
        out.metric_note(
            "engine.ns_per_event",
            ratio((pump_s + check_s) * 1e9, events),
            "ns",
            note,
        );
        let point_s = pump_s + build_s + new_s;
        out.metric("sim.pump_share", ratio(pump_s, point_s), "share");
        out.metric("sim.driver_new_share", ratio(new_s, point_s), "share");
        out.metric("workloads.build_share", ratio(build_s, point_s), "share");

        let invals = sum(&|p| p.counts.fanout.invalidations);
        let copies = sum(&|p| p.counts.fanout.copies);
        let max = points
            .iter()
            .map(|p| p.counts.fanout.max_copies)
            .max()
            .unwrap_or(0);
        out.metric(
            "directory.inval_fanout_mean",
            ratio(copies as f64, invals as f64),
            "count",
        );
        out.metric("directory.inval_fanout_max", max as f64, "count");

        let net = |f: &dyn Fn(&NetStats) -> u64| sum(&|p| f(&p.net));
        let mcopies = net(&|n| n.multicast_copies.get());
        let delivered = net(&|n| n.delivered.get());
        out.metric(
            "network.unicasts",
            net(&|n| n.unicasts.get()) as f64,
            "count",
        );
        out.metric(
            "network.multicasts",
            net(&|n| n.multicasts.get()) as f64,
            "count",
        );
        out.metric("network.multicast_copies", mcopies as f64, "count");
        out.metric(
            "network.multicast_copies_per_access",
            per_access(mcopies),
            "count",
        );
        out.metric(
            "network.gather_absorbed",
            net(&|n| n.gather_absorbed.get()) as f64,
            "count",
        );
        out.metric("network.delivered", delivered as f64, "count");
        out.metric("network.msgs_per_access", per_access(delivered), "count");

        let eng = |f: &dyn Fn(&EngineStats) -> u64| sum(&|p| f(&p.stats)) as f64;
        out.metric("protocol.completed", completed as f64, "count");
        out.metric("protocol.requests", eng(&|s| s.requests.get()), "count");
        out.metric(
            "protocol.queued_requests",
            eng(&|s| s.queued_requests.get()),
            "count",
        );
        out.metric("protocol.nacks", eng(&|s| s.nacks.get()), "count");
        out.metric("protocol.retries", eng(&|s| s.retries.get()), "count");
        out.metric(
            "protocol.invalidations",
            eng(&|s| s.invalidations.get()),
            "count",
        );
        out.metric(
            "protocol.invalidation_copies",
            eng(&|s| s.invalidation_copies.get()),
            "count",
        );
        out.metric("protocol.writebacks", eng(&|s| s.writebacks.get()), "count");

        let alloc = points.iter().fold(Tally::default(), |mut t, p| {
            t += p.counts.alloc;
            t
        });
        out.metric("alloc.per_access", per_access(alloc.calls), "count");
        out.metric("alloc.bytes_per_access", per_access(alloc.bytes), "B");
    }
}
