//! `check-certify`: two bounded-exhaustive explorations to a conclusive
//! all-green verdict, on one thread.
//!
//! The checker drives the engine very differently from a simulation: a
//! controlled schedule, `state_fingerprint` per state and replay of
//! prefixes, with the event queue and fabric contention almost idle.
//! - `queuing`: MESI, queuing protocol, 4 nodes × 1 block × 2 ops, with
//!   DPOR reduction armed;
//! - `nack`: MESI, nack protocol, 2 nodes × 2 blocks × 2 ops, where DPOR
//!   is not eligible and the space is explored unreduced. Reduction for
//!   the nack protocol would show here first.
//!
//! The verdict is pinned, not the counts, so a better reduction may change
//! the counts.

use crate::calib;
use crate::layers::{CheckCounts, Layers};
use crate::passes::Samples;
use crate::Ctx;
use cenju4_check::{explore_reduced, CheckConfig, Exploration, ExploreLimits, ReducedOutcome};
use cenju4_protocol::ProtocolKind;
use std::time::Instant;

/// Set-up samples per run: building a checker engine takes microseconds,
/// so the median needs many of them.
const SETUP_REPS: usize = 200;

/// The configurations, in the order every run reports them.
pub const NAMES: [&str; 2] = ["queuing", "nack"];

fn configs() -> [(&'static str, CheckConfig); 2] {
    [
        (
            NAMES[0],
            CheckConfig {
                nodes: 4,
                blocks: 1,
                ops_per_node: 2,
                ..CheckConfig::default()
            },
        ),
        (
            NAMES[1],
            CheckConfig {
                nodes: 2,
                blocks: 2,
                ops_per_node: 2,
                kind: ProtocolKind::Nack,
                ..CheckConfig::default()
            },
        ),
    ]
}

/// Validating both configurations and building their controlled-schedule
/// engines with the workload issued.
fn setup() -> f64 {
    let t = Instant::now();
    for (_, cfg) in configs() {
        cfg.validate()
            .expect("the certify configurations are valid");
        std::hint::black_box(cfg.engine());
    }
    t.elapsed().as_secs_f64()
}

/// The pinned verdict: conclusive and all green.
fn verdict(name: &str, e: &Exploration) -> Result<(), String> {
    match e {
        Exploration::AllGreen { .. } => Ok(()),
        other => Err(format!(
            "check {name}: not a conclusive all-green verdict: {other:?}"
        )),
    }
}

struct Explored {
    name: &'static str,
    secs: f64,
    /// `secs` in ms scaled to the nominal host speed, in an end-to-end pass.
    scaled_ms: Option<f64>,
    out: ReducedOutcome,
}

/// Explores both configurations; a falsified or budget-cut exploration
/// fails the operation.
fn pass(ctx: &mut Ctx) -> Vec<Explored> {
    let limits = ExploreLimits::default();
    configs()
        .into_iter()
        .map(|(name, cfg)| {
            let mut explore = || {
                ctx.tracer.span(
                    "explore_reduced",
                    0,
                    || name.to_owned(),
                    || explore_reduced(&cfg, &limits, 1),
                )
            };
            let t = Instant::now();
            let (out, factor) = match ctx.speed {
                Some(_) => {
                    let (out, factor) = calib::beside(explore);
                    (out, Some(factor))
                }
                None => (explore(), None),
            };
            let secs = t.elapsed().as_secs_f64();
            ctx.out.op(verdict(name, &out.exploration));
            Explored {
                name,
                secs,
                scaled_ms: factor.map(|f| secs * 1e3 * f),
                out,
            }
        })
        .collect()
}

/// One end-to-end pass over both configurations. An operation is one
/// exploration. An exploration is one call of 7 to 13 s, so its time is
/// scaled by samples from a second thread (`calib::beside`): samples taken
/// only at its ends widened the spread over ten runs from 0.09 of the
/// median to 0.18.
pub fn run(ctx: &mut Ctx) -> Samples {
    let start = Instant::now();
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup()).collect();
    let speed = ctx
        .speed
        .as_mut()
        .expect("an end-to-end pass samples the host speed");
    speed.sample();
    let setup_s = setups
        .iter()
        .map(|&s| speed.scale(start, Instant::now(), s))
        .collect();
    let explored = pass(ctx);
    Samples {
        setup_s,
        op_ms: explored
            .iter()
            .map(|e| e.scaled_ms.expect("an end-to-end pass scales"))
            .collect(),
        raw_op_ms: explored.iter().map(|e| e.secs * 1e3).collect(),
    }
}

fn counts(o: &ReducedOutcome) -> CheckCounts {
    CheckCounts {
        unique_states: o.unique_states,
        schedules: o.leaves,
        transitions: o.transitions,
        dedup_hits: o.dedup_hits,
        sleep_skipped: o.sleep_skipped,
        dpor_armed: o.reduced,
    }
}

/// The traced run: an untraced pass, then a traced pass whose counts must
/// repeat the untraced ones.
pub fn run_traced(ctx: &mut Ctx) -> Layers {
    ctx.tracer.set_on(false);
    let plain = pass(ctx);
    ctx.tracer.set_on(true);
    let traced = pass(ctx);
    let traced_s = traced.iter().map(|e| e.secs).sum();
    let mut layers = Layers {
        plain_s: plain.iter().map(|e| e.secs).sum(),
        traced_s,
        check_s: traced_s,
        ..Layers::default()
    };
    for ((a, b), slot) in plain.iter().zip(&traced).zip(&mut layers.check) {
        *slot = counts(&b.out);
        let verdict = if counts(&a.out) == *slot {
            Ok(())
        } else {
            Err(format!("check {}: counts did not repeat", b.name))
        };
        ctx.out.op(verdict);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An exploration cut short by its budget is not a certificate.
    #[test]
    fn a_budget_cut_fails_the_verdict() {
        let (name, cfg) = configs()[1];
        let limits = ExploreLimits {
            max_schedules: 1,
            ..ExploreLimits::default()
        };
        let out = explore_reduced(&cfg, &limits, 1);
        assert!(matches!(out.exploration, Exploration::Budget { .. }));
        assert!(verdict(name, &out.exploration).is_err());
    }
}
