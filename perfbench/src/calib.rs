//! Host-speed calibration.
//!
//! The development host (2 vCPUs sharing caches and memory with other
//! tenants) runs the same binary on the same input up to twice as slow
//! for tens of seconds at a time, which no number of samples inside one
//! run can average out. So a run also times a fixed kernel of the
//! benchmark's own between operations and reports wall times scaled by
//! `NOMINAL_MS / kernel time`: milliseconds at the speed the host had
//! when `NOMINAL_MS` was measured. The kernel sorts the same 64 Ki
//! pseudo-random words three times. Of the kernels tried on that host
//! (random read-modify-writes over 256 KiB to 64 MiB, pointer chasing,
//! streaming, integer arithmetic, a small message-passing loop), its time
//! rose closest to one-for-one with the program's when the host slowed;
//! the 16 MiB read-modify-write first used rose only two thirds as much.
//!
//! A wall time is scaled by the mean of that factor over its own
//! interval, so an operation that spans a slow spell is scaled for the
//! part of it that the spell covers. No program code runs in the
//! kernel, so a program change cannot move it.

use crate::stats::median;
use std::time::{Duration, Instant};

/// Median kernel time on the development host (see the README).
pub const NOMINAL_MS: f64 = 3.6;
/// Words the kernel sorts; 256 KiB stays in a core's L2 cache.
const SORT_WORDS: usize = 1 << 16;
/// Sorts per sample.
const SORTS: usize = 3;
/// Least wall time between two samples.
const INTERVAL: Duration = Duration::from_millis(200);

/// The kernel's samples over one run.
#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u32>,
    samples: Vec<f64>,
    /// When each sample ended.
    at: Vec<Instant>,
    spent: Duration,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            buf: vec![0; SORT_WORDS],
            samples: Vec::new(),
            at: Vec::new(),
            spent: Duration::ZERO,
        }
    }
}

impl Calibration {
    /// Times the kernel once: the sorts only, not refilling the words.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut sorting = Duration::ZERO;
        for _ in 0..SORTS {
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for w in self.buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *w = x as u32;
            }
            let t0 = Instant::now();
            self.buf.sort_unstable();
            sorting += t0.elapsed();
            std::hint::black_box(&self.buf);
        }
        self.samples.push(sorting.as_secs_f64() * 1e3);
        let now = Instant::now();
        self.spent += now - start;
        self.at.push(now);
    }

    /// Samples if [`INTERVAL`] has passed since the last sample; call it
    /// between operations, never inside one.
    pub fn tick(&mut self) {
        if self.at.last().is_none_or(|t| t.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// Median kernel time in ms (`NOMINAL_MS` before any sample).
    pub fn ref_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return NOMINAL_MS;
        }
        median(&self.samples)
    }

    /// The mean of `NOMINAL_MS / kernel time` over `[start, end]`, the
    /// factor that turns a wall time taken over that interval into a
    /// calibrated one. Between two samples the kernel time is their mean;
    /// before the first sample it is the first, after the last the last.
    /// `1.0` before any sample.
    pub fn scale_over(&self, start: Instant, end: Instant) -> f64 {
        let (Some(&first), Some(&last)) = (self.samples.first(), self.samples.last()) else {
            return 1.0;
        };
        let end = end.max(start + Duration::from_nanos(1));
        let overlap = |a: Instant, b: Instant| {
            b.min(end)
                .saturating_duration_since(a.max(start))
                .as_secs_f64()
        };
        let n = self.at.len();
        let mut weighted = overlap(start, self.at[0]) * NOMINAL_MS / first
            + overlap(self.at[n - 1], end) * NOMINAL_MS / last;
        for i in 1..n {
            let kernel_ms = (self.samples[i - 1] + self.samples[i]) / 2.0;
            weighted += overlap(self.at[i - 1], self.at[i]) * NOMINAL_MS / kernel_ms;
        }
        weighted / (end - start).as_secs_f64()
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Wall time spent sampling so far, which timed phases leave out.
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_over_weights_every_instant_of_the_interval_equally() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        assert_eq!(Calibration::default().scale_over(t, at(10)), 1.0);
        let c = Calibration {
            buf: Vec::new(),
            samples: vec![NOMINAL_MS, 2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS],
            at: vec![at(100), at(200), at(300)],
            spent: Duration::ZERO,
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(
            close(c.scale_over(t, at(100)), 1.0),
            "before the first sample"
        );
        assert!(
            close(c.scale_over(at(100), at(200)), 1.0 / 1.5),
            "mean of two"
        );
        assert!(close(c.scale_over(at(300), at(400)), 0.5), "after the last");
        assert!(close(c.scale_over(t, at(200)), (1.0 + 1.0 / 1.5) / 2.0));
        assert!(
            close(c.scale_over(at(250), at(250)), 0.5),
            "an empty interval"
        );
    }
}
