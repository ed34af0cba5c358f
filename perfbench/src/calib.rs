//! Host-speed calibration for the end-to-end times.
//!
//! On the shared 2-vCPU host the benchmark was defined on, the same code
//! ran up to twice as slowly from one second to the next. A fixed
//! reference kernel, timed on the same thread between the operations,
//! slows with it: over 100 s, the spread of 10-second means of a CG-16
//! simulation fell from 0.23 of its median to 0.07 once each was divided by
//! the reference time measured beside it (0.10 with the kernel on another
//! thread instead). So each end-to-end time is scaled by the reference
//! kernel timed around it, to the host speed at which the kernel takes
//! [`NOMINAL_MS`]. The kernel is the benchmark's own code: a change to the
//! simulator cannot move it.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// What the reference kernel takes at the host speed times are scaled to:
/// about its median between operations on the host the benchmark was
/// defined on.
pub const NOMINAL_MS: f64 = 3.0;
/// The least time between two reference samples taken by [`Speed::tick`].
const INTERVAL: Duration = Duration::from_millis(50);

/// The reference kernel: a dependent pseudo-random walk with stores over
/// 2 MiB.
fn kernel(buf: &mut [u64]) -> u64 {
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % buf.len() as u64) as usize;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc ^ x;
    }
    acc
}

fn reference_buf() -> Vec<u64> {
    (0..1u64 << 18).map(|i| i.wrapping_mul(31)).collect()
}

/// Runs `f`, one long call that the measuring thread cannot pause for
/// samples, while a second thread times the reference kernel every
/// [`INTERVAL`]. Returns `f`'s result and the factor that scales its time
/// to the nominal host speed. Samples from another thread track the
/// measuring thread's speed less closely (see the module notes), but far
/// better than samples taken only at the ends of a call of several seconds.
pub fn beside<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let done = AtomicBool::new(false);
    let (r, refs) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut buf = reference_buf();
            let mut refs = Vec::new();
            loop {
                let t = Instant::now();
                std::hint::black_box(kernel(&mut buf));
                refs.push(t.elapsed().as_secs_f64() * 1e3);
                if done.load(Relaxed) {
                    return refs;
                }
                std::thread::sleep(INTERVAL);
            }
        });
        let r = f();
        done.store(true, Relaxed);
        (
            r,
            sampler.join().expect("the sampler thread does not panic"),
        )
    });
    let ref_ms = refs.iter().sum::<f64>() / refs.len() as f64;
    (r, NOMINAL_MS / ref_ms)
}

/// Reference samples taken through a run on the measuring thread.
pub struct Speed {
    buf: Vec<u64>,
    /// When each sample started, and its time in ms.
    samples: Vec<(Instant, f64)>,
    last: Instant,
    spent: Duration,
}

impl Speed {
    pub fn new() -> Self {
        let mut s = Speed {
            buf: reference_buf(),
            samples: Vec::new(),
            last: Instant::now(),
            spent: Duration::ZERO,
        };
        s.sample();
        s
    }

    /// Times the reference kernel now.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel(&mut self.buf));
        let took = t.elapsed();
        self.spent += took;
        self.last = t + took;
        self.samples.push((t, took.as_secs_f64() * 1e3));
    }

    /// Samples when the last sample is older than [`INTERVAL`]; cheap
    /// otherwise, so it can sit between operations and inside loops.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Time spent in the reference kernel so far, for taking out of an
    /// operation that enclosed samples.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// `ms` of work done between `start` and `end`, scaled to the nominal
    /// host speed by the mean of the samples taken within [`INTERVAL`] of
    /// that span, or else by the nearest sample.
    pub fn scale(&self, start: Instant, end: Instant, ms: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| at + INTERVAL >= start && at <= end + INTERVAL)
            .map(|&(_, ms)| ms)
            .collect();
        let ref_ms = if near.is_empty() {
            let gap = |at: Instant| at.max(start) - at.min(start);
            self.samples
                .iter()
                .min_by_key(|&&(at, _)| gap(at))
                .map_or(NOMINAL_MS, |&(_, ms)| ms)
        } else {
            near.iter().sum::<f64>() / near.len() as f64
        };
        ms * NOMINAL_MS / ref_ms
    }
}
