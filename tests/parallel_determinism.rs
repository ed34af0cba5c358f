//! Bit-identity guard for where parallelism lives: independent
//! simulations running concurrently on [`sweep_on`] workers — the same
//! shape as the `cenju4-serve` query pool and the checker frontier.
//!
//! Each simulation is single-threaded, so the worker count must be
//! *invisible*: every artifact the engine produces — the protocol trace,
//! the `EngineStats`/`NetStats` counters, the driver notification
//! stream, and the observability exports (span fingerprints, Chrome
//! trace JSON, metrics JSON) — must be byte-identical whether a scenario
//! runs alone on the calling thread or as one of several concurrent
//! copies at workers = 1, 2, 4, 8. These tests replay the golden-hotpath
//! scenarios and a dense-burst workload with the recovery layer unarmed
//! and armed against an inert plan, and compare everything.

use cenju4::obs::chrome_trace_json;
use cenju4::prelude::*;

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// Armed-but-inert plan (see `golden_hotpath.rs`): sequences every frame
/// and runs recovery timers without ever perturbing a delivery.
fn inert_plan() -> FaultPlan {
    FaultPlan::none().with_one_shot(OneShotFault {
        link: Some((node(0), node(1))),
        class: Some(WireClass::Other),
        nth: u64::MAX,
        kind: FaultKind::Drop,
    })
}

/// A traced engine with a span collector attached, optionally with the
/// recovery layer armed.
fn engine(nodes: u16, armed: bool) -> Engine {
    let mut builder = SystemConfig::builder(nodes);
    if armed {
        builder = builder
            .recovery(RecoveryParams::default())
            .fault_plan(inert_plan());
    }
    let cfg = builder.build().expect("valid configuration");
    let sys = cfg.sys;
    let mut eng = cfg.build();
    eng.enable_trace(65536);
    eng.add_observer(Box::new(SpanCollector::new(sys)));
    eng
}

/// Every artifact that must not depend on the sweep worker count,
/// rendered to one comparable string.
fn artifacts(eng: &Engine, trace_blocks: &[Addr], notes: &[Notification]) -> String {
    let mut out = String::new();
    for &a in trace_blocks {
        out.push_str(&eng.trace().dump_block(a));
    }
    let s = eng.stats();
    let n = eng.net_stats();
    out.push_str(&format!(
        "completed={} hits={} requests={} queued={} nacks={} retries={} writebacks={} \
         invalidations={} inv_copies={} forwards={} updates={} l3_fills={} stalls={}\n",
        s.completed.get(),
        s.hits.get(),
        s.requests.get(),
        s.queued_requests.get(),
        s.nacks.get(),
        s.retries.get(),
        s.writebacks.get(),
        s.invalidations.get(),
        s.invalidation_copies.get(),
        s.forwards.get(),
        s.updates.get(),
        s.l3_fills.get(),
        s.stalls.get(),
    ));
    out.push_str(&format!(
        "unicasts={} multicasts={} copies={} gather_replies={} gather_absorbed={} \
         gather_delivered={} delivered={} port_wait_count={} endpoint_wait_count={}\n",
        n.unicasts.get(),
        n.multicasts.get(),
        n.multicast_copies.get(),
        n.gather_replies.get(),
        n.gather_absorbed.get(),
        n.gather_delivered.get(),
        n.delivered.get(),
        n.port_wait.count(),
        n.endpoint_wait.count(),
    ));
    out.push_str(&format!("final_time_ns={}\n", eng.now().as_ns()));
    for note in notes {
        out.push_str(&format!("{note:?}\n"));
    }
    let col = eng.observer::<SpanCollector>().expect("collector attached");
    out.push_str(&col.event_fingerprint());
    out.push_str(&chrome_trace_json(col));
    out.push_str(&col.metrics().to_json());
    out
}

/// Figure 10 shape: warm four sharers, then store from a sharer.
fn fig10(armed: bool) -> String {
    let mut eng = engine(16, armed);
    let a = Addr::new(node(0), 1);
    let mut notes = Vec::new();
    for s in 1..=4 {
        eng.issue(eng.now(), node(s), MemOp::Load, a);
        notes.extend(eng.run());
    }
    eng.issue(eng.now(), node(1), MemOp::Store, a);
    notes.extend(eng.run());
    artifacts(&eng, &[a], &notes)
}

/// Figure 12 shape: a seeded mixed workload on 64 nodes.
fn fig12(armed: bool) -> String {
    let mut eng = engine(64, armed);
    let mut rng = SplitMix64::new(0xF1612);
    let blocks: Vec<Addr> = (0..8)
        .map(|b| Addr::new(node((b % 2) as u16), 1 + b / 2))
        .collect();
    let mut notes = Vec::new();
    for _ in 0..200 {
        let n = rng.next_below(64) as u16;
        let op = if rng.next_below(3) == 0 {
            MemOp::Store
        } else {
            MemOp::Load
        };
        eng.issue(eng.now(), node(n), op, blocks[rng.next_below(8) as usize]);
        notes.extend(eng.run());
    }
    artifacts(&eng, &[blocks[0], blocks[5]], &notes)
}

/// The dense-burst shape: every node issues a burst of loads and stores
/// at t = 0 — private blocks, contended shared blocks, and cross-node
/// user messages all in flight at once, so the queue stays dense
/// (including backlogged accesses, retries, and same-time local events).
fn batch(nodes: u16, armed: bool) -> String {
    let mut eng = engine(nodes, armed);
    let mut rng = SplitMix64::new(0xBA7C4 + nodes as u64);
    let shared: Vec<Addr> = (0..4).map(|b| Addr::new(node(b), 1)).collect();
    for n in 0..nodes {
        for k in 0..6u32 {
            let (op, a) = if rng.next_below(3) == 0 {
                (
                    if rng.next_below(2) == 0 {
                        MemOp::Store
                    } else {
                        MemOp::Load
                    },
                    shared[rng.next_below(4) as usize],
                )
            } else {
                (MemOp::Store, Addr::new(node((n + 1) % nodes), 8 + k))
            };
            eng.issue(SimTime::ZERO, node(n), op, a);
        }
    }
    for p in 0..(nodes / 4) {
        eng.mp_send(
            SimTime::ZERO,
            node(p),
            node(nodes - 1 - p),
            4096,
            0xAA00 + p as u64,
        );
    }
    eng.schedule_marker(SimTime::ZERO + Duration::from_us(5), 42);
    let notes = eng.run();
    artifacts(&eng, &shared, &notes)
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `w` concurrent copies of `scenario` on `w` sweep workers for
/// each worker count and checks every copy against one run on the
/// calling thread.
fn assert_invariant(name: &str, scenario: impl Fn() -> String + Sync) {
    let base = scenario();
    for w in WORKER_COUNTS {
        let copies = vec![(); w];
        for (i, got) in sweep_on(w, &copies, |_| scenario()).iter().enumerate() {
            assert!(*got == base, "{name} copy {i} diverged at workers={w}");
        }
    }
}

#[test]
fn fig10_invariant_under_worker_count() {
    assert_invariant("fig10", || fig10(false));
}

#[test]
fn fig10_invariant_under_worker_count_armed() {
    assert_invariant("armed fig10", || fig10(true));
}

#[test]
fn fig12_invariant_under_worker_count() {
    assert_invariant("fig12", || fig12(false));
}

#[test]
fn fig12_invariant_under_worker_count_armed() {
    assert_invariant("armed fig12", || fig12(true));
}

#[test]
fn dense_batch_invariant_under_worker_count() {
    for nodes in [16u16, 64] {
        assert_invariant(&format!("batch({nodes})"), || batch(nodes, false));
    }
}

#[test]
fn dense_batch_invariant_under_worker_count_armed() {
    assert_invariant("armed batch", || batch(16, true));
}
