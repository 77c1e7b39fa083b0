//! The benchmark's own arithmetic: percentiles with a sample-count floor
//! and the ratios it reports.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile (choosing-metrics: a percentile is only as good as the
/// samples past it).
pub const TAIL_FLOOR: usize = 10;

/// Nearest-rank percentile of `samples` (`0 < p <= 100`), or `None` for
/// an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank])
}

fn nearest_rank(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    Some(rank.clamp(1, len) - 1)
}

/// Median (nearest-rank p50); `0.0` for an empty slice, which only
/// occurs for a layer the workload bypasses.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// A tail statistic and the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// The percentile it was taken at (90 or 50).
    pub percentile: u32,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
}

/// The tail rule: p90 when at least [`TAIL_FLOOR`] samples lie beyond
/// its rank, else the median (a run with fewer than `10 * TAIL_FLOOR`
/// samples has no honest p90). `None` for an empty slice.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let len = samples.len();
    let at = |p: u32| -> Option<Tail> {
        let rank = nearest_rank(len, f64::from(p))?;
        Some(Tail {
            value: percentile(samples, f64::from(p))?,
            percentile: p,
            beyond: len - rank - 1,
        })
    };
    match at(90) {
        Some(t) if t.beyond >= TAIL_FLOOR => Some(t),
        _ => at(50),
    }
}

/// Failed operations over attempted ones: failed calls, `Err`
/// completions and rejected submissions all count as failed.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Share of the short walks a session launched that it threw away
/// unused: `(discarded + evicted) / added`. Base: walks added by
/// top-ups during the measured interval; `0.0` when none were added.
pub fn store_waste_ratio(discarded: u64, evicted: u64, added: u64) -> f64 {
    if added == 0 {
        return 0.0;
    }
    (discarded + evicted) as f64 / added as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_p90() {
        // 109 samples: p90 is rank 99 (1-based 99), 10 lie beyond.
        let xs: Vec<f64> = (1..=109).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!((t.percentile, t.beyond), (90, 10));
        assert_eq!(t.value, 99.0);

        // 99 samples: p90 is rank 90, only 9 beyond: fall back to p50.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (50, 50.0, 49));

        // A handful of samples: the median, whatever lies beyond it.
        let t = tail(&[4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (50, 3.0, 1));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 128), 0.0);
        assert_eq!(failed_ratio(3, 12), 0.25);
    }

    #[test]
    fn store_waste_ratio_counts_discards_and_evictions() {
        assert_eq!(store_waste_ratio(0, 0, 0), 0.0);
        assert_eq!(store_waste_ratio(10, 30, 200), 0.2);
        assert_eq!(store_waste_ratio(0, 4500, 3000), 1.5);
    }
}
