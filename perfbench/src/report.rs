//! What one run reports: operation counts, failures, and named metrics,
//! printed for people and as the closing JSON line.

use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or derivation, printed beside the value.
    pub note: String,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: simulation points, requests, explorations.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_note(name, value, unit, String::new());
    }

    pub fn metric_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push(Metric {
                name,
                value,
                unit,
                note,
            });
        } else {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
    }

    /// Counts one attempted operation; `Err` counts it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// Records a failed check that is not itself an operation.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The closing line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Sorts `v` and returns its `q`-quantile, linearly interpolated.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// FNV-1a, the digest every output pin is taken with.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Expected output digests, or — with `--print-pins` — a recorder of the
/// digests a run computes.
pub enum Pins {
    Verify(BTreeMap<String, u64>),
    Record(Vec<(String, u64)>),
}

impl Pins {
    pub fn pinned() -> Self {
        Pins::Verify(
            crate::pins::PINS
                .iter()
                .map(|&(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Compares (or records) the digest of `output` under `label`.
    pub fn check(&mut self, label: &str, output: &str) -> Result<(), String> {
        let got = digest(output.as_bytes());
        match self {
            Pins::Record(seen) => {
                if !seen.iter().any(|(k, _)| k == label) {
                    seen.push((label.to_owned(), got));
                }
                Ok(())
            }
            Pins::Verify(map) => match map.get(label) {
                Some(&want) if want == got => Ok(()),
                Some(&want) => Err(format!(
                    "{label}: output digest {got:#018x}, pinned {want:#018x}"
                )),
                None => Err(format!("{label}: no pinned digest (got {got:#018x})")),
            },
        }
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
    }

    #[test]
    fn a_perturbed_pin_is_caught() {
        let mut pins = Pins::Verify([("x".to_owned(), digest(b"out"))].into());
        assert!(pins.check("x", "out").is_ok());
        assert!(pins.check("x", "out!").is_err());
        assert!(pins.check("y", "out").is_err());
    }
}
