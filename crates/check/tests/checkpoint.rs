//! Engine checkpoints: a forked engine is indistinguishable from one
//! rebuilt by replaying the same schedule prefix, it goes on exactly as
//! the original would, and the two copies share no mutable state. The
//! reduced explorer backtracks by restoring forks instead of replaying,
//! so its pinned counts rest on these properties.
//!
//! Prefixes are seeded random walks over the checker's own scenario
//! engines, for every (protocol, directory) pair and the nack protocol
//! at 2 and 3 nodes.

use cenju4_check::CheckConfig;
use cenju4_des::{SimTime, SplitMix64};
use cenju4_directory::{DirectoryId, NodeId, SystemSize};
use cenju4_obs::SpanCollector;
use cenju4_protocol::{Addr, Engine, MemOp, Observer, ProtocolId, ProtocolKind};
use cenju4_sim::SystemConfig;

/// Every checker scenario shape the fork must cover.
fn configs() -> Vec<CheckConfig> {
    let mut out = Vec::new();
    for nodes in [2u16, 3] {
        for &directory in &DirectoryId::ALL {
            for &coherence in &ProtocolId::ALL {
                out.push(CheckConfig {
                    nodes,
                    blocks: 2,
                    coherence,
                    directory,
                    ..CheckConfig::default()
                });
            }
            out.push(CheckConfig {
                nodes,
                blocks: 2,
                directory,
                kind: ProtocolKind::Nack,
                ..CheckConfig::default()
            });
        }
    }
    out
}

/// Fires the ready event at ready-position `pick` (modulo the ready
/// count). Returns false at quiescence.
fn fire(eng: &mut Engine, pick: u64) -> bool {
    let ready: Vec<usize> = eng
        .pending_events()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.ready)
        .map(|(i, _)| i)
        .collect();
    if ready.is_empty() {
        return false;
    }
    eng.run_pending(ready[(pick % ready.len() as u64) as usize])
        .expect("ready event vanished");
    true
}

/// A seeded walk of up to `max` picks from the scenario's initial state.
fn random_prefix(cfg: &CheckConfig, rng: &mut SplitMix64, max: u64) -> Vec<u64> {
    let mut eng = cfg.engine();
    let len = rng.next_below(max + 1);
    let mut picks = Vec::new();
    while (picks.len() as u64) < len {
        let p = rng.next_u64();
        if !fire(&mut eng, p) {
            break;
        }
        picks.push(p);
    }
    picks
}

/// A fresh scenario engine driven through `picks`.
fn replay(cfg: &CheckConfig, picks: &[u64]) -> Engine {
    let mut eng = cfg.engine();
    for &p in picks {
        assert!(fire(&mut eng, p), "prefix outran the schedule");
    }
    eng
}

/// Everything a restored checkpoint must agree on, rendered so a
/// mismatch prints both sides.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: u64,
    /// (content digest, ready flag, scheduled time, label) per parked
    /// event, in `pending_events` order.
    pending: Vec<(u64, bool, u64, &'static str)>,
    now: u64,
    stats: String,
    net_stats: String,
    trace: String,
    spans: String,
}

fn observe(eng: &Engine, cfg: &CheckConfig) -> Observed {
    Observed {
        fingerprint: eng.state_fingerprint(&cfg.block_addrs()),
        pending: eng
            .pending_events()
            .iter()
            .map(|e| (e.content, e.ready, e.at.as_ns(), e.label))
            .collect(),
        now: eng.now().as_ns(),
        stats: format!("{:?}", eng.stats()),
        net_stats: format!("{:?}", eng.net_stats()),
        trace: format!(
            "{:?} dropped={}",
            eng.trace().records(),
            eng.trace().dropped()
        ),
        spans: eng
            .observer::<SpanCollector>()
            .expect("scenario engines carry a span collector")
            .event_fingerprint(),
    }
}

/// A fork taken at a prefix, after the original has moved on, equals a
/// fresh replay of that prefix — and keeps equalling it step for step
/// when both are driven to quiescence with the same picks.
#[test]
fn restored_fork_matches_fresh_replay() {
    for (i, cfg) in configs().into_iter().enumerate() {
        let mut rng = SplitMix64::new(0xF0_4C + i as u64);
        for _ in 0..6 {
            let prefix = random_prefix(&cfg, &mut rng, 40);
            let mut original = replay(&cfg, &prefix);
            let mut fork = original.fork().expect("scenario engines fork");
            // Move the original on: the fork must not follow it.
            for _ in 0..rng.next_below(20) {
                if !fire(&mut original, rng.next_u64()) {
                    break;
                }
            }
            let mut fresh = replay(&cfg, &prefix);
            assert_eq!(
                observe(&fork, &cfg),
                observe(&fresh, &cfg),
                "{cfg}: fork at prefix {prefix:?} differs from replay"
            );
            loop {
                let p = rng.next_u64();
                let (a, b) = (fire(&mut fork, p), fire(&mut fresh, p));
                assert_eq!(a, b, "{cfg}: fork and replay quiesce apart");
                assert_eq!(observe(&fork, &cfg), observe(&fresh, &cfg), "{cfg}");
                if !a {
                    break;
                }
            }
        }
    }
}

/// Running a fork to quiescence leaves the engine it came from exactly
/// where it was.
#[test]
fn mutating_the_fork_leaves_the_original_untouched() {
    for (i, cfg) in configs().into_iter().enumerate() {
        let mut rng = SplitMix64::new(0x0816 + i as u64);
        for _ in 0..4 {
            let prefix = random_prefix(&cfg, &mut rng, 30);
            let original = replay(&cfg, &prefix);
            let before = observe(&original, &cfg);
            let mut fork = original.fork().expect("scenario engines fork");
            while fire(&mut fork, rng.next_u64()) {}
            assert_eq!(fork.pending_event_count(), 0);
            assert_eq!(observe(&original, &cfg), before, "{cfg}");
            assert_eq!(observe(&replay(&cfg, &prefix), &cfg), before, "{cfg}");
        }
    }
}

/// An uncontrolled engine forked mid-run: both copies run to quiescence
/// and report identical notifications, counters, traces and spans.
#[test]
fn uncontrolled_fork_runs_identically() {
    for (coherence, kind) in [
        (ProtocolId::Mesi, ProtocolKind::Queuing),
        (ProtocolId::Dragon, ProtocolKind::Queuing),
        (ProtocolId::Mesi, ProtocolKind::Nack),
    ] {
        let nodes = 8u16;
        let mut eng = SystemConfig::builder(nodes)
            .protocol((coherence, kind))
            .build()
            .expect("valid config")
            .build();
        eng.enable_trace(1 << 12);
        eng.add_observer(Box::new(SpanCollector::new(
            SystemSize::new(nodes).unwrap(),
        )));
        let mut rng = SplitMix64::new(0x5EED);
        for i in 0..96u64 {
            let node = NodeId::new(rng.next_below(u64::from(nodes)) as u16);
            let addr = Addr::new(NodeId::new((i % 3) as u16), rng.next_below(4) as u32);
            let op = if rng.next_below(3) == 0 {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(SimTime::from_ns(rng.next_below(20_000)), node, op, addr);
        }
        for _ in 0..150 {
            eng.run_next().expect("run ends too early for the test");
        }
        let mut fork = eng.fork().expect("engine forks");
        let tail_a = eng.run();
        let tail_b = fork.run();
        assert!(!tail_a.is_empty());
        assert_eq!(tail_a, tail_b, "{coherence}/{kind:?}: notifications differ");
        assert_eq!(format!("{:?}", eng.stats()), format!("{:?}", fork.stats()));
        assert_eq!(
            format!("{:?}", eng.net_stats()),
            format!("{:?}", fork.net_stats())
        );
        assert_eq!(eng.trace().records(), fork.trace().records());
        assert_eq!(eng.now(), fork.now());
        let spans = |e: &Engine| e.observer::<SpanCollector>().unwrap().event_fingerprint();
        assert_eq!(spans(&eng), spans(&fork));
    }
}

/// An observer that keeps the default `fork` cannot be copied, so the
/// engine carrying it refuses to fork rather than drop it silently.
#[test]
fn unforkable_observer_refuses_fork() {
    struct Opaque;
    impl Observer for Opaque {}
    let mut eng = CheckConfig::default().engine();
    assert!(eng.fork().is_some());
    eng.add_observer(Box::new(Opaque));
    assert!(eng.fork().is_none());
}
