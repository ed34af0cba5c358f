//! The repository benchmark. See `README.md` beside this crate for the
//! workloads, the metrics and why each exists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cg-multicast|serve-grid|check-certify \
//!     --seed N --seconds S --trace 0|1 [--one-pass] [--print-pins]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing attached to
//! the engine, one pass per process (see `passes`); `--one-pass` is the
//! process that runs one of those passes. `--trace 1` is a separate
//! run, in one process, for the per-layer metrics:
//! it records spans around every call the benchmark makes into a layer,
//! attaches the exact work counters, and writes the spans to
//! `perfbench/out/trace-<workload>.json`. Each run checks the program's
//! outputs against pinned digests; the last stdout line is the JSON
//! result, and a failed check exits non-zero.

mod alloc;
mod calib;
mod cg;
mod check;
mod layers;
mod passes;
mod pins;
mod probes;
mod report;
mod serve;
mod sim;
mod trace;

use report::{Outcome, Pins};
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Everything a workload needs from the command line, and what it reports.
pub struct Ctx {
    pub seed: u64,
    /// Host-speed samples, in an end-to-end pass only.
    pub speed: Option<calib::Speed>,
    /// Query-pool width of the service: at most the host's cores.
    pub pool: usize,
    pub tracer: Tracer,
    pub pins: Pins,
    pub out: Outcome,
}

const WORKLOADS: [&str; 3] = ["cg-multicast", "serve-grid", "check-certify"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    one_pass: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        one_pass: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--print-pins" => {
                args.print_pins = true;
                continue;
            }
            "--one-pass" => {
                args.one_pass = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.print_pins && !(args.trace || args.one_pass) {
        return Err("--print-pins needs --trace 1 or --one-pass, which run in one process".into());
    }
    Ok(args)
}

/// The commit under test, when the benchmark runs from a git checkout.
/// The search for a repository stops at the checkout's root.
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// With `--print-pins`, the digests the run computed, as `src/pins.rs`.
fn print_pins(pins: &Pins) {
    if let Pins::Record(seen) = pins {
        println!("pub const PINS: &[(&str, u64)] = &[");
        for (label, d) in seen {
            println!("    ({label:?}, {d:#018x}),");
        }
        println!("];");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: args.seed,
        speed: None,
        pool: nproc.min(8),
        tracer: Tracer::new(args.trace),
        pins: if args.print_pins {
            Pins::Record(Vec::new())
        } else {
            Pins::pinned()
        },
        out: Outcome::default(),
    };
    let context = [
        ("workload", args.workload.clone()),
        ("trace", u8::from(args.trace).to_string()),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("pool_width", ctx.pool.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        ("commit", commit()),
    ];
    let line: Vec<String> = context.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("host: {}", line.join(" "));

    // `parse_args` admits only the three workloads. Every workload
    // reports the same metrics: the end-to-end set untraced, and the
    // per-layer set traced, with the collector price and the probes taken
    // alike on each.
    if args.trace {
        let mut layers = match args.workload.as_str() {
            "cg-multicast" => cg::run_traced(&mut ctx),
            "serve-grid" => serve::run_traced(&mut ctx),
            _ => check::run_traced(&mut ctx),
        };
        layers.collector = cg::collector_price(&mut ctx);
        layers.report(&mut ctx.out);
        probes::run(&mut ctx.out);
    } else if args.one_pass {
        ctx.speed = Some(calib::Speed::new());
        let samples = match args.workload.as_str() {
            "cg-multicast" => cg::run(&mut ctx),
            "serve-grid" => serve::run(&mut ctx),
            _ => check::run(&mut ctx),
        };
        let peak_mb = report::peak_rss_mb().unwrap_or_else(|| {
            ctx.out
                .fail("no VmHWM in /proc/self/status for peak_rss_mb".into());
            0.0
        });
        print_pins(&ctx.pins);
        println!("{}", passes::line(&samples, peak_mb, &ctx.out));
        return ExitCode::SUCCESS;
    } else {
        passes::run(&args.workload, args.seed, args.seconds, &mut ctx.out);
    }

    print_pins(&ctx.pins);
    if args.trace {
        for (name, (n, total, own)) in ctx.tracer.summary() {
            println!("span {name:<24} n={n:<7} total {total:>10.4} s  self {own:>10.4} s");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.chrome_json(&context)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => ctx.out.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let out = &ctx.out;
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<40} {:>16.6} {:<6} {} of {} operations failed",
        "failed_share",
        out.failed() as f64 / out.attempted.max(1) as f64,
        "share",
        out.failed(),
        out.attempted
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!("{}", out.json_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
