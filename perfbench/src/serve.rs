//! `serve-grid`: one closed-loop client calling `Server::handle`, the entry
//! point the stdio and TCP front ends share, in-process so that pipe I/O
//! (tens of µs) does not swamp a cache hit (about 2 µs).
//!
//! The client waits for each reply, as planner scripts do. Per pass, on a
//! fresh server:
//! - one `simulate` miss for every grid point: BT, SP and FT (dsm(2),
//!   mapped) × {16, 32, 64} nodes × the four live directory formats ×
//!   {queuing, nack}, in an order drawn from the seed;
//! - [`ROUNDS`] rounds of repeats of those queries, each round a seeded
//!   permutation, every one a cache hit;
//! - `batch` requests of [`BATCH`] points not yet cached (the same grid,
//!   unmapped), grouped by the seed, fanned over the query pool.
//!
//! CG is left out, so misses run the engine's unicast path and multicast
//! stays near zero; hits run only the service's parse, cache and format
//! path.

use crate::alloc::Tally;
use crate::layers::{Layers, ServeCounts};
use crate::passes::Samples;
use crate::sim::{self, Attach, Point, Work};
use crate::trace::SpanId;
use crate::Ctx;
use cenju4_des::SplitMix64;
use cenju4_directory::DirectoryId;
use cenju4_obs::json::{self, Json};
use cenju4_serve::{proto, Server};
use cenju4_sim::SystemConfig;
use cenju4_workloads::{AppKind, Variant};
use std::time::Instant;

const APPS: [AppKind; 3] = [AppKind::Bt, AppKind::Sp, AppKind::Ft];
const NODES: [u16; 3] = [16, 32, 64];
const KINDS: [&str; 2] = ["queuing", "nack"];
/// The service's default problem scale.
const SCALE: f64 = 1.0;
const ROUNDS: usize = 40;
/// Points per `batch` request. Large batches keep the pool's idle tail at
/// the end of each batch a small share of its time, so throughput does not
/// hinge on how the seed groups cheap and dear points.
const BATCH: usize = 24;
/// Server start-ups timed before the measured pass, so each process's
/// `setup_s` is a median of many samples.
const SETUP_REPS: usize = 200;

/// One grid point.
#[derive(Clone, Copy)]
struct GridPoint {
    app: AppKind,
    nodes: u16,
    dir: DirectoryId,
    kind: &'static str,
}

impl GridPoint {
    fn label(&self) -> String {
        format!("{}/n{}/{}/{}", self.app, self.nodes, self.dir, self.kind)
    }

    /// The `config` and `workload` members of a query.
    fn query(&self, mapping: bool) -> String {
        format!(
            "\"config\":{{\"nodes\":{},\"directory\":\"{}\",\"kind\":\"{}\"}},\
             \"workload\":{{\"app\":\"{}\",\"variant\":\"dsm2\",\"mapping\":{mapping},\"scale\":{SCALE:?}}}",
            self.nodes, self.dir, self.kind, self.app
        )
    }

    /// What the service simulates for this point's `simulate` query.
    fn work(&self) -> Work {
        Work {
            app: self.app,
            variant: Variant::Dsm2,
            mapping: true,
            scale: SCALE,
        }
    }

    /// The machine the service builds for this point's query.
    fn machine(&self) -> SystemConfig {
        let b = SystemConfig::builder(self.nodes).directory(self.dir);
        let b = if self.kind == "nack" {
            b.nack_protocol()
        } else {
            b
        };
        b.build().expect("every grid point is a valid machine")
    }
}

fn grid() -> Vec<GridPoint> {
    let mut g = Vec::new();
    for app in APPS {
        for nodes in NODES {
            for dir in DirectoryId::ALL {
                for kind in KINDS {
                    g.push(GridPoint {
                        app,
                        nodes,
                        dir,
                        kind,
                    });
                }
            }
        }
    }
    g
}

/// The request stream, drawn from the seed.
struct Plan {
    grid: Vec<GridPoint>,
    /// `simulate` line per grid point; its id is the point's index + 1,
    /// so every response line is independent of the seed.
    sim_lines: Vec<String>,
    miss_order: Vec<usize>,
    rounds: Vec<Vec<usize>>,
    /// `(request line, grid points in it)`.
    batches: Vec<(String, Vec<usize>)>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let grid = grid();
        let mut rng = SplitMix64::new(seed);
        let sim_lines = grid
            .iter()
            .enumerate()
            .map(|(i, p)| {
                format!(
                    "{{\"id\":{},\"cmd\":\"simulate\",{}}}",
                    i + 1,
                    p.query(true)
                )
            })
            .collect();
        let mut order: Vec<usize> = (0..grid.len()).collect();
        let mut shuffled = || {
            rng.shuffle(&mut order);
            order.clone()
        };
        let miss_order = shuffled();
        let rounds = (0..ROUNDS).map(|_| shuffled()).collect();
        let batches = shuffled()
            .chunks(BATCH)
            .enumerate()
            .map(|(b, pts)| {
                let queries: Vec<String> = pts
                    .iter()
                    .map(|&i| format!("{{{}}}", grid[i].query(false)))
                    .collect();
                let line = format!(
                    "{{\"id\":{},\"cmd\":\"batch\",\"queries\":[{}]}}",
                    grid.len() + 1 + b,
                    queries.join(",")
                );
                (line, pts.to_vec())
            })
            .collect();
        Plan {
            grid,
            sim_lines,
            miss_order,
            rounds,
            batches,
        }
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    /// Start, end and wall time in ms of every `Server::handle` call.
    ops: Vec<(Instant, Instant, f64)>,
    wall_s: f64,
    /// Simulate response per grid point, for the hit checks and replays.
    responses: Vec<String>,
    /// Allocations inside `Server::handle`, per hit round (traced passes).
    round_alloc: Vec<Tally>,
    alloc: Tally,
    stats: Option<(u64, u64)>,
}

/// The `result` object of an ok response, or why there is none.
fn result_of(line: &str) -> Result<Json, String> {
    let v = json::parse(line).map_err(|e| format!("unparsable response {line:?}: {e}"))?;
    match v.get("ok") {
        Some(Json::Bool(true)) => v
            .get("result")
            .cloned()
            .ok_or_else(|| format!("no result in {line:?}")),
        _ => Err(format!("error response {line:?}")),
    }
}

fn pass(ctx: &mut Ctx, plan: &Plan, root: SpanId) -> Pass {
    let traced = ctx.tracer.on();
    let mut p = Pass::default();
    let wall = Instant::now();
    let t = Instant::now();
    let server = ctx
        .tracer
        .span("Server::new", root, String::new, || Server::new(ctx.pool));
    p.setup_s = t.elapsed().as_secs_f64();

    // A traced request: the benchmark parses the line itself first, so
    // the trace shows `proto::parse_request` apart from the rest of
    // `handle`.
    let call = |ctx: &mut Ctx, p: &mut Pass, tag: &str, line: &str| -> String {
        if let Some(s) = ctx.speed.as_mut() {
            s.tick();
        }
        let req = ctx.tracer.begin("Server::handle", root, || tag.to_owned());
        if traced {
            let parsed = ctx
                .tracer
                .span("proto::parse_request", req, String::new, || {
                    proto::parse_request(line)
                });
            std::hint::black_box(parsed.is_ok());
        }
        let t = Instant::now();
        let (resp, alloc) = crate::alloc::counted_if(traced, || server.handle(line));
        let end = Instant::now();
        p.ops.push((t, end, (end - t).as_secs_f64() * 1e3));
        ctx.tracer.end(req);
        p.alloc += alloc;
        resp
    };

    p.responses = vec![String::new(); plan.grid.len()];
    for &i in &plan.miss_order {
        let label = plan.grid[i].label();
        let resp = call(ctx, &mut p, &format!("miss {label}"), &plan.sim_lines[i]);
        let verdict =
            result_of(&resp).and_then(|_| ctx.pins.check(&format!("serve/sim/{label}"), &resp));
        ctx.out.op(verdict);
        p.responses[i] = resp;
    }

    for round in &plan.rounds {
        p.alloc = Tally::default();
        for &i in round {
            let resp = call(ctx, &mut p, "hit", &plan.sim_lines[i]);
            // Same id, same query: a hit must be byte-identical to its miss.
            let verdict = if resp == p.responses[i] {
                Ok(())
            } else {
                Err(format!("hit differs from its miss: {resp:?}"))
            };
            ctx.out.op(verdict);
        }
        p.round_alloc.push(p.alloc);
    }

    for (line, points) in &plan.batches {
        let resp = call(ctx, &mut p, &format!("batch of {}", points.len()), line);
        let results = result_of(&resp).and_then(|r| match r.get("results") {
            Some(Json::Arr(items)) if items.len() == points.len() => Ok(items.clone()),
            _ => Err(format!(
                "batch response without one result per query: {resp:?}"
            )),
        });
        match results {
            Ok(items) => {
                for (&i, item) in points.iter().zip(&items) {
                    let label = format!("serve/batch/{}", plan.grid[i].label());
                    let verdict = match item.get("error") {
                        Some(e) => Err(format!("{label}: {e:?}")),
                        None => ctx.pins.check(&label, &format!("{item:?}")),
                    };
                    ctx.out.op(verdict);
                }
            }
            Err(e) => ctx.out.op(Err(e)),
        }
    }

    // Every distinct key simulated exactly once.
    let resp = call(ctx, &mut p, "stats", "{\"id\":0,\"cmd\":\"stats\"}");
    let distinct = (plan.grid.len() + plan.batches.iter().map(|b| b.1.len()).sum::<usize>()) as u64;
    let counters = result_of(&resp).and_then(|r| {
        let get = |k: &str| r.get(k).and_then(Json::as_u64);
        match (get("sims"), get("deduped")) {
            (Some(sims), Some(deduped)) if sims == distinct => Ok((sims, deduped)),
            _ => Err(format!(
                "stats {resp:?}: want sims = {distinct} distinct keys"
            )),
        }
    });
    p.stats = counters.as_ref().ok().copied();
    ctx.out.op(counters.map(|_| ()));
    drop(server);
    p.wall_s = wall.elapsed().as_secs_f64();
    p
}

/// One end-to-end pass on a fresh server. An operation is one
/// `Server::handle` call.
pub fn run(ctx: &mut Ctx) -> Samples {
    let plan = Plan::new(ctx.seed);
    let start = Instant::now();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let s = Server::new(ctx.pool);
            let dt = t.elapsed().as_secs_f64();
            drop(s);
            dt
        })
        .collect();
    let speed = ctx
        .speed
        .as_mut()
        .expect("an end-to-end pass samples the host speed");
    speed.sample();
    let mut setup_s: Vec<f64> = setups
        .iter()
        .map(|&s| speed.scale(start, Instant::now(), s))
        .collect();
    let p = pass(ctx, &plan, 0);
    let speed = ctx.speed.as_mut().expect("sampled above");
    speed.sample();
    let &(first, ..) = p.ops.first().expect("a pass makes requests");
    setup_s.push(speed.scale(first, first, p.setup_s));
    Samples {
        setup_s,
        op_ms: p
            .ops
            .iter()
            .map(|&(a, b, ms)| speed.scale(a, b, ms))
            .collect(),
        raw_op_ms: p.ops.iter().map(|op| op.2).collect(),
    }
}

/// The traced run: an untraced pass, a traced pass, then the engine-side
/// counters of the miss path from replays of every grid point.
pub fn run_traced(ctx: &mut Ctx) -> Layers {
    let plan = Plan::new(ctx.seed);
    ctx.tracer.set_on(false);
    let plain = pass(ctx, &plan, 0);
    ctx.tracer.set_on(true);
    let root = ctx.tracer.begin("serve-grid", 0, String::new);
    let traced = pass(ctx, &plan, root);
    ctx.tracer.end(root);
    let hits = (ROUNDS * plan.grid.len()) as f64;
    let total = traced.round_alloc.iter().fold(0u64, |a, t| a + t.calls);
    let (sims, deduped) = traced.stats.unwrap_or_default();
    let serve = ServeCounts {
        sims,
        deduped,
        alloc_per_request: total as f64 / hits,
    };
    // Every round requests every key once: its allocations repeat exactly.
    let (first, last) = (traced.round_alloc[0], traced.round_alloc[ROUNDS - 1]);
    let verdict = if first == last {
        Ok(())
    } else {
        Err(format!(
            "hit-round allocations did not repeat: {first:?} then {last:?}"
        ))
    };
    ctx.out.op(verdict);

    // The engine-side counters of the miss path: each miss replayed
    // through `Driver`, checked against the served result.
    let replay = ctx.tracer.begin("replays", 0, String::new);
    let mut points: Vec<Point> = Vec::new();
    for (i, gp) in plan.grid.iter().enumerate() {
        let label = gp.label();
        let p = sim::run_point(
            &mut ctx.tracer,
            None,
            replay,
            &label,
            &gp.machine(),
            gp.work(),
            Attach::Counters,
        );
        let served = result_of(&traced.responses[i])
            .ok()
            .and_then(|r| r.get("total_ns").and_then(Json::as_u64));
        let total = p.report.total_time().as_ns();
        let verdict = if served == Some(total) {
            Ok(())
        } else {
            Err(format!(
                "{label}: replay total_ns {total}, served {served:?}"
            ))
        };
        ctx.out.op(verdict);
        points.push(p);
    }
    ctx.tracer.end(replay);
    let point0 = &plan.grid[0];
    let again = sim::run_point(
        &mut ctx.tracer,
        None,
        0,
        "again",
        &point0.machine(),
        point0.work(),
        Attach::Counters,
    );
    ctx.out
        .op(sim::same_counts(&point0.label(), &points[0], &again));
    Layers {
        traced_s: traced.wall_s,
        plain_s: plain.wall_s,
        points,
        serve,
        ..Layers::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Pins;

    /// A served response matches its pin, and a perturbed pin catches it.
    #[test]
    fn a_perturbed_response_pin_is_caught() {
        let plan = Plan::new(0);
        let i = plan
            .grid
            .iter()
            .position(|p| p.app == AppKind::Ft && p.nodes == 16 && p.kind == "queuing")
            .expect("the grid has FT at 16 nodes");
        let label = format!("serve/sim/{}", plan.grid[i].label());
        let resp = Server::new(1).handle(&plan.sim_lines[i]);
        let mut pins = Pins::pinned();
        assert_eq!(pins.check(&label, &resp), Ok(()));
        if let Pins::Verify(map) = &mut pins {
            *map.get_mut(&label).expect("the point is pinned") ^= 1;
        }
        assert!(pins.check(&label, &resp).is_err());
    }
}
