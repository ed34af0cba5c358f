//! `cg-multicast`: CG dsm(2) with mapping at 32, 64 and 128 nodes, one
//! simulation at a time through `Driver`, caches empty at the start.
//!
//! Every CG iteration re-reads the whole shared vector on every node, so
//! each store to it invalidates a wide sharer set: the directory runs in
//! bit-pattern mode, the invalidation goes out as one multicast and its
//! acks gather in the network. This is the workload where the paper's
//! headline mechanism carries the load (about one multicast copy per
//! completed access) and where host cost per event is highest.

use crate::layers::Layers;
use crate::passes::Samples;
use crate::sim::{self, Attach, Point, Work};
use crate::trace::SpanId;
use crate::Ctx;
use cenju4_bench::paper::FIG12;
use cenju4_sim::SystemConfig;
use cenju4_workloads::{AppKind, Variant};
use std::time::Instant;

const NODES: [u16; 3] = [32, 64, 128];
/// Figure 12's problem scale.
const SCALE: f64 = 2.0;
/// Set-up-only repetitions before the measured pass, so each process's
/// `setup_s` is a median of several samples.
const SETUP_REPS: usize = 4;

const CG: Work = Work {
    app: AppKind::Cg,
    variant: Variant::Dsm2,
    mapping: true,
    scale: SCALE,
};

fn machine(nodes: u16) -> SystemConfig {
    SystemConfig::builder(nodes)
        .build()
        .expect("the default machine builds at every CG size")
}

/// Simulates every point once and checks each output against its pin.
fn pass(ctx: &mut Ctx, parent: SpanId, attach: Attach) -> Vec<Point> {
    NODES
        .iter()
        .map(|&n| {
            let label = format!("cg/n{n}");
            let p = sim::run_point(
                &mut ctx.tracer,
                ctx.speed.as_mut(),
                parent,
                &label,
                &machine(n),
                CG,
                attach,
            );
            let verdict = ctx.pins.check(&label, &p.output());
            ctx.out.op(verdict);
            p
        })
        .collect()
}

fn setup_s(points: &[Point]) -> f64 {
    points.iter().map(|p| p.build_s + p.driver_new_s).sum()
}

/// One end-to-end pass over the three points, nothing attached to the
/// engine. An operation is one point.
pub fn run(ctx: &mut Ctx) -> Samples {
    let start = Instant::now();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for n in NODES {
                let cfg = machine(n);
                let prog = cenju4_workloads::KernelProgram::build(
                    CG.app, CG.variant, CG.mapping, &cfg, CG.scale,
                );
                let mut d = cenju4_sim::Driver::new(&cfg, prog);
                d.start();
            }
            t.elapsed().as_secs_f64()
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
    let points = pass(ctx, 0, Attach::Nothing);
    let speed = ctx.speed.as_ref().expect("sampled above");
    let (first, last) = (points[0].span.0, points[points.len() - 1].span.1);
    setup_s.push(speed.scale(first, last, self::setup_s(&points)));
    Samples {
        setup_s,
        op_ms: points
            .iter()
            .map(|p| speed.scale(p.span.0, p.span.1, p.wall_s * 1e3))
            .collect(),
        raw_op_ms: points.iter().map(|p| p.wall_s * 1e3).collect(),
    }
}

/// The traced run: an untraced pass, a counted pass for the layer
/// metrics, the repeat check, and the model's error against the paper.
pub fn run_traced(ctx: &mut Ctx) -> Layers {
    ctx.tracer.set_on(false);
    let t = Instant::now();
    let plain = pass(ctx, 0, Attach::Nothing);
    let plain_s = t.elapsed().as_secs_f64();
    ctx.tracer.set_on(true);

    let root = ctx.tracer.begin("cg-multicast", 0, String::new);
    let t = Instant::now();
    let counted = pass(ctx, root, Attach::Counters);
    let traced_s = t.elapsed().as_secs_f64();
    ctx.tracer.end(root);

    // The counters are exact: a second counted run of a point repeats them.
    let again = sim::run_point(
        &mut ctx.tracer,
        None,
        0,
        "cg/n32 again",
        &machine(NODES[0]),
        CG,
        Attach::Counters,
    );
    ctx.out.op(sim::same_counts("cg/n32", &counted[0], &again));

    // The model's error against the paper's one validated point here. It
    // is a property of the model, not of the host, so it is printed beside
    // the metrics rather than reported as one.
    let seq = sim::run_point(
        &mut ctx.tracer,
        None,
        0,
        "cg seq",
        &machine(2),
        Work {
            variant: Variant::Seq,
            ..CG
        },
        Attach::Nothing,
    );
    let speedup =
        seq.report.total_time().as_ns() as f64 / plain[2].report.total_time().as_ns() as f64;
    let paper = FIG12
        .iter()
        .find(|&&(app, n, _)| app == "CG" && n == 128)
        .map(|&(_, _, s)| s)
        .expect("FIG12 has CG at 128 nodes");
    println!(
        "model: CG speedup at 128 nodes {speedup:.2}x, paper {paper:.1}x, error {:+.1}%",
        (speedup / paper - 1.0) * 100.0
    );

    Layers {
        traced_s,
        plain_s,
        points: counted,
        ..Layers::default()
    }
}

/// The price of span collection inside the engine, taken in every traced
/// run: `pump` seconds of CG-64 with an obs `SpanCollector` attached, and
/// of a bare CG-64 run just before it. Observers must not change outputs.
pub fn collector_price(ctx: &mut Ctx) -> (f64, f64) {
    let mut run64 = |attach| {
        let label = "cg/n64";
        let p = sim::run_point(&mut ctx.tracer, None, 0, label, &machine(64), CG, attach);
        let verdict = ctx.pins.check(label, &p.output());
        ctx.out.op(verdict);
        p.pump_s
    };
    let without = run64(Attach::Nothing);
    (run64(Attach::Collector), without)
}
