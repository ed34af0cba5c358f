//! The end-to-end run, one process per measured pass.
//!
//! On the shared host the benchmark was defined on, back-to-back 4-second
//! runs of the same `serve-grid` pass had their median hit at 1.9 µs in one
//! process and 3.1 µs in the next, with address-space randomisation off and
//! with the process pinned to either core. So the end-to-end run starts
//! this binary again with `--one-pass` for each pass, one process at a
//! time, until the time is up, and averages the statistics of its
//! processes rather than sampling one process's luck. Each process also
//! scales its times to a nominal host speed (see `calib`).

use crate::report::{median, quantile, Outcome};
use cenju4_obs::json::{self, Json};
use cenju4_serve::proto::esc;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one pass measured, in the process that ran it.
#[derive(Default)]
pub struct Samples {
    /// Set-up times, scaled to the nominal host speed (see `calib`).
    pub setup_s: Vec<f64>,
    /// Wall time of every operation, scaled likewise.
    pub op_ms: Vec<f64>,
    /// Wall time of every operation as measured.
    pub raw_op_ms: Vec<f64>,
}

/// The last stdout line of a `--one-pass` process: its samples, the
/// operations it attempted and the checks that failed.
pub fn line(s: &Samples, peak_mb: f64, out: &Outcome) -> String {
    let nums = |v: &[f64]| {
        let v: Vec<String> = v.iter().map(f64::to_string).collect();
        v.join(",")
    };
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    format!(
        "{{\"attempted\":{},\"failures\":[{}],\"peak_rss_mb\":{peak_mb},\"setup_s\":[{}],\"op_ms\":[{}],\"raw_op_ms\":[{}]}}",
        out.attempted,
        failures.join(","),
        nums(&s.setup_s),
        nums(&s.op_ms),
        nums(&s.raw_op_ms)
    )
}

/// One process's statistics.
struct Pass {
    setup_s: f64,
    p50: f64,
    p99: f64,
    raw_p50: f64,
    raw_p99: f64,
    peak_mb: f64,
    ops: usize,
}

/// Reads a `--one-pass` process's line, adding its operations and failures
/// to `out`.
fn read(stdout: &str, out: &mut Outcome) -> Result<Pass, String> {
    let last = stdout.lines().last().unwrap_or_default();
    let v = json::parse(last).map_err(|e| format!("pass process printed {last:?}: {e}"))?;
    let bad = || format!("malformed pass line {last:?}");
    let nums =
        |k: &str| -> Option<Vec<f64>> { v.get(k)?.as_arr()?.iter().map(Json::as_f64).collect() };
    out.attempted += v.get("attempted").and_then(Json::as_u64).ok_or_else(bad)?;
    for f in v.get("failures").and_then(Json::as_arr).ok_or_else(bad)? {
        out.fail(f.as_str().ok_or_else(bad)?.to_owned());
    }
    let (mut setup, mut ops, mut raw) = (
        nums("setup_s").ok_or_else(bad)?,
        nums("op_ms").ok_or_else(bad)?,
        nums("raw_op_ms").ok_or_else(bad)?,
    );
    if setup.is_empty() || ops.is_empty() || raw.is_empty() {
        return Err(bad());
    }
    Ok(Pass {
        setup_s: median(&mut setup),
        p50: quantile(&mut ops, 0.5),
        p99: quantile(&mut ops, 0.99),
        raw_p50: quantile(&mut raw, 0.5),
        raw_p99: quantile(&mut raw, 0.99),
        peak_mb: v
            .get("peak_rss_mb")
            .and_then(Json::as_f64)
            .ok_or_else(bad)?,
        ops: ops.len(),
    })
}

/// Runs one-pass processes of `workload` until `seconds` are up (at least
/// one), then reports the end-to-end metrics: the mean over processes of
/// each one's median set-up time and operation-time median and 99th
/// percentile, and the largest peak resident set.
pub fn run(workload: &str, seed: u64, seconds: f64, out: &mut Outcome) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return out.fail(format!("locating the benchmark binary: {e}")),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let seed = seed.to_string();
    let mut passes = Vec::new();
    loop {
        let args = ["--workload", workload, "--seed", &seed, "--trace", "0"];
        let run = Command::new(&exe)
            .args(args)
            .arg("--one-pass")
            .stderr(Stdio::inherit())
            .output();
        let pass = match run {
            Ok(o) => read(&String::from_utf8_lossy(&o.stdout), out)
                .map_err(|e| format!("{e} (exit status {})", o.status)),
            Err(e) => Err(format!("starting a pass process: {e}")),
        };
        match pass {
            Ok(p) => passes.push(p),
            Err(e) => out.fail(e),
        }
        if !out.failures.is_empty() || Instant::now() >= deadline {
            break;
        }
    }
    if passes.is_empty() {
        return;
    }
    let k = passes.len();
    let mean = |f: fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>() / k as f64;
    let ops: usize = passes.iter().map(|p| p.ops).sum();
    let note = format!("mean of {k} processes, n={ops} operations");
    out.metric_note("setup_s", mean(|p| p.setup_s), "s", note.clone());
    let raw = |v: f64| format!("{note}; {v:.6} ms unscaled");
    out.metric_note("op_ms_p50", mean(|p| p.p50), "ms", raw(mean(|p| p.raw_p50)));
    out.metric_note("op_ms_p99", mean(|p| p.p99), "ms", raw(mean(|p| p.raw_p99)));
    let peak = passes.iter().map(|p| p.peak_mb).fold(0.0, f64::max);
    out.metric_note(
        "peak_rss_mb",
        peak,
        "MiB",
        format!("largest of {k} processes"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass process's line carries its samples and failures to the
    /// parent exactly.
    #[test]
    fn a_pass_line_round_trips() {
        let mut child = Outcome::default();
        child.op(Ok(()));
        child.op(Err("digest \"x\" differs".into()));
        let s = Samples {
            setup_s: vec![0.25, 0.125],
            op_ms: vec![3.0, 1.0, 2.0],
            raw_op_ms: vec![6.0, 2.0, 4.0],
        };
        let mut parent = Outcome::default();
        let p = read(&format!("host: …\n{}", line(&s, 12.5, &child)), &mut parent)
            .expect("the line parses");
        assert_eq!((parent.attempted, parent.failures), (2, child.failures));
        assert_eq!((p.setup_s, p.p50, p.raw_p50), (0.1875, 2.0, 4.0));
        assert_eq!((p.peak_mb, p.ops), (12.5, 3));
        assert!(read("panicked", &mut Outcome::default()).is_err());
    }
}
