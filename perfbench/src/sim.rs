//! One simulation point driven from outside the engine: build the kernel
//! program, drive it through `Driver`, read the engine's counters. Shared
//! by `cg-multicast`, by `serve-grid`'s traced replays of its misses and by
//! the collector price every traced run takes.

use crate::alloc::{self, Tally};
use crate::calib::Speed;
use crate::trace::{SpanId, Tracer};
use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use cenju4_network::NetStats;
use cenju4_obs::SpanCollector;
use cenju4_protocol::{Addr, EngineStats, Observer};
use cenju4_sim::{Driver, RunReport, SystemConfig};
use cenju4_workloads::{AppKind, KernelProgram, Variant};
use std::time::{Duration, Instant};

/// What to simulate on a machine.
#[derive(Clone, Copy, Debug)]
pub struct Work {
    pub app: AppKind,
    pub variant: Variant,
    pub mapping: bool,
    pub scale: f64,
}

/// How much to attach to the engine while it runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// Nothing: the end-to-end configuration.
    Nothing,
    /// The benchmark's [`Fanout`] observer, the `pump` count and the
    /// allocation counter.
    Counters,
    /// An obs `SpanCollector`, to price span collection inside the engine.
    Collector,
}

/// Invalidation fan-out as the engine reports it to observers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fanout {
    pub invalidations: u64,
    pub copies: u64,
    pub max_copies: u32,
}

impl Observer for Fanout {
    fn on_invalidation(&mut self, _at: SimTime, _home: NodeId, _addr: Addr, copies: u32) {
        self.invalidations += 1;
        self.copies += u64::from(copies);
        self.max_copies = self.max_copies.max(copies);
    }
}

/// The exact work counters of one counted point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub pumps: u64,
    pub alloc: Tally,
    pub fanout: Fanout,
}

/// One finished point: host times, the engine's outputs, and (when
/// counted) its exact work counters.
pub struct Point {
    /// The whole point, `KernelProgram::build` to `Driver::finish`, less
    /// the reference samples taken inside it.
    pub wall_s: f64,
    /// When the point started and ended.
    pub span: (Instant, Instant),
    pub build_s: f64,
    /// `Driver::new` plus `Driver::start`.
    pub driver_new_s: f64,
    pub pump_s: f64,
    pub report: RunReport,
    pub stats: EngineStats,
    pub net: NetStats,
    pub counts: Counts,
}

impl Point {
    /// The text every output pin digests: the run report and both
    /// counter sets, which a host-speed change must leave identical.
    pub fn output(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.report, self.stats, self.net)
    }

    pub fn completed(&self) -> u64 {
        self.stats.completed.get()
    }
}

/// Simulates `w` on a fresh machine `cfg` (caches empty) to quiescence,
/// with spans under `parent` and `attach` hooked into the engine. With
/// `speed`, reference samples are taken before, during and after the point.
#[allow(clippy::too_many_arguments)]
pub fn run_point(
    tr: &mut Tracer,
    mut speed: Option<&mut Speed>,
    parent: SpanId,
    label: &str,
    cfg: &SystemConfig,
    w: Work,
    attach: Attach,
) -> Point {
    if let Some(s) = speed.as_deref_mut() {
        s.sample();
    }
    let spent = |s: &Option<&mut Speed>| s.as_ref().map_or(Duration::ZERO, |s| s.spent());
    let spent0 = spent(&speed);
    let point = tr.begin("point", parent, || label.to_owned());
    let wall = Instant::now();
    let t = Instant::now();
    let prog = tr.span("KernelProgram::build", point, String::new, || {
        KernelProgram::build(w.app, w.variant, w.mapping, cfg, w.scale)
    });
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut driver = tr.span("Driver::new", point, String::new, || Driver::new(cfg, prog));
    match attach {
        Attach::Nothing => {}
        Attach::Counters => tr.span("Engine::add_observer", point, String::new, || {
            driver
                .engine_mut()
                .add_observer(Box::new(Fanout::default()))
        }),
        Attach::Collector => tr.span("Engine::add_observer", point, String::new, || {
            driver
                .engine_mut()
                .add_observer(Box::new(SpanCollector::new(cfg.sys)))
        }),
    }
    tr.span("Driver::start", point, String::new, || driver.start());
    let driver_new_s = t.elapsed().as_secs_f64();

    let pump = tr.begin("Driver::pump", point, || label.to_owned());
    let t = Instant::now();
    let mut counts = Counts::default();
    if attach == Attach::Counters {
        let (pumps, alloc) = alloc::counted(|| {
            let mut n = 0u64;
            while driver.pump() {
                n += 1;
            }
            n
        });
        counts.pumps = pumps;
        counts.alloc = alloc;
    } else if let Some(s) = speed.as_deref_mut() {
        let mut n = 0u32;
        while driver.pump() {
            n = n.wrapping_add(1);
            if n.is_multiple_of(1024) {
                s.tick();
            }
        }
    } else {
        while driver.pump() {}
    }
    let pump_s = (t.elapsed() - (spent(&speed) - spent0)).as_secs_f64();
    tr.end(pump);

    let (stats, net) = tr.span("Engine::stats", point, String::new, || {
        (
            driver.engine().stats().clone(),
            driver.engine().net_stats().clone(),
        )
    });
    if let Some(f) = driver.engine().observer::<Fanout>() {
        counts.fanout = *f;
    }
    let report = tr.span("Driver::finish", point, String::new, || driver.finish());
    tr.end(point);
    let end = Instant::now();
    let wall_s = (end - wall - (spent(&speed) - spent0)).as_secs_f64();
    if let Some(s) = speed {
        s.sample();
    }
    Point {
        wall_s,
        span: (wall, end),
        build_s,
        driver_new_s,
        pump_s,
        report,
        stats,
        net,
        counts,
    }
}

/// Compares a re-run of a counted point with the first run: every exact
/// counter and every output must repeat.
pub fn same_counts(label: &str, first: &Point, again: &Point) -> Result<(), String> {
    if first.counts != again.counts || first.output() != again.output() {
        return Err(format!(
            "{label}: counters did not repeat: {:?} then {:?}",
            first.counts, again.counts
        ));
    }
    Ok(())
}
