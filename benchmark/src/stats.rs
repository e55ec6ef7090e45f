//! The benchmark's one percentile/median implementation.
//!
//! Nearest-rank on a sorted copy: the p-th percentile of `n` samples is the
//! sample at rank `ceil(p/100 * n)`. A tail percentile is **refused** unless
//! at least [`MIN_BEYOND`] samples lie beyond its rank — a p99 read off 150
//! samples is the second-largest value, not a percentile — and every result
//! carries the sample count it was read from.

use std::fmt;

/// Samples that must lie beyond a tail percentile's rank before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile that was asked of too few samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub percentile: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples that lie beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Take ownership of `values` and sort them.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// The nearest-rank `percentile` (1..=100).
    ///
    /// # Errors
    ///
    /// [`TooFewSamples`] when there are no samples, or when `percentile` is
    /// a tail (not the median) with fewer than [`MIN_BEYOND`] samples on its
    /// far side.
    pub fn percentile(&self, percentile: u32) -> Result<u64, TooFewSamples> {
        assert!((1..=100).contains(&percentile), "percentile out of range");
        let n = self.sorted.len();
        let rank = (n * percentile as usize).div_ceil(100).max(1);
        let beyond = match percentile.cmp(&50) {
            std::cmp::Ordering::Greater => n.saturating_sub(rank),
            std::cmp::Ordering::Less => rank.saturating_sub(1),
            // The median has half the samples on either side by definition.
            std::cmp::Ordering::Equal => usize::MAX,
        };
        if n == 0 || beyond < MIN_BEYOND {
            return Err(TooFewSamples {
                percentile,
                samples: n,
                beyond: if beyond == usize::MAX { 0 } else { beyond },
            });
        }
        Ok(self.sorted[rank - 1])
    }

    /// The median (nearest-rank p50); 0 when empty.
    pub fn median(&self) -> u64 {
        self.percentile(50).unwrap_or(0)
    }
}

/// What is kept of a sample set once its segment is over, so the
/// benchmark's own memory does not grow with the length of the run (and
/// `rss_peak_mib` stays the program's).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples summarised.
    pub samples: usize,
    /// Median (0 when empty).
    pub p50: u64,
    /// 99th percentile; `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub p99: Option<u64>,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Summary {
    /// Sort `values` and summarise them.
    pub fn of(values: Vec<u64>) -> Self {
        let samples = Samples::new(values);
        Summary {
            samples: samples.len(),
            p50: samples.median(),
            p99: samples.percentile(99).ok(),
            max: samples.max(),
        }
    }
}

/// Nearest-rank median of floating-point values (per-segment metrics, repeat
/// timings); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

/// `(min, max)` of floating-point values; `(0, 0)` when empty.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold(None, |acc: Option<(f64, f64)>, &v| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        })
        .unwrap_or((0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(50), Ok(50));
        assert_eq!(s.percentile(90), Ok(90));
        assert_eq!(s.median(), 50);
        assert_eq!(s.max(), 100);
        // Odd count: the middle element.
        assert_eq!(Samples::new(vec![5, 1, 3]).median(), 3);
        // Even count: nearest-rank takes the lower middle.
        assert_eq!(Samples::new(vec![4, 1, 3, 2]).median(), 2);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        // p99 of 1000 samples: rank 990, exactly 10 beyond — the minimum.
        let s = Samples::new((1..=1000).collect());
        assert_eq!(s.percentile(99), Ok(990));
        // One sample fewer and the tail is refused, with the reason.
        let s = Samples::new((1..=999).collect());
        let err = s.percentile(99).unwrap_err();
        assert_eq!(
            err,
            TooFewSamples {
                percentile: 99,
                samples: 999,
                beyond: 9
            }
        );
        assert!(err.to_string().contains("only 9 beyond"));
        // Lower tails mirror the rule.
        assert!(Samples::new((1..=100).collect()).percentile(5).is_err());
        assert_eq!(Samples::new((1..=1000).collect()).percentile(5), Ok(50));
        // The median is never a tail, but it still needs a sample.
        assert_eq!(Samples::new(vec![7]).percentile(50), Ok(7));
        assert!(Samples::new(Vec::new()).percentile(50).is_err());
        assert_eq!(Samples::new(Vec::new()).median(), 0);
    }

    #[test]
    fn summaries_keep_the_refusal() {
        let full = Summary::of((1..=1000).collect());
        assert_eq!(
            (full.samples, full.p50, full.p99, full.max),
            (1000, 500, Some(990), 1000)
        );
        let short = Summary::of((1..=999).collect());
        assert_eq!((short.p50, short.p99, short.max), (500, None, 999));
        let empty = Summary::of(Vec::new());
        assert_eq!((empty.samples, empty.p50, empty.p99), (0, 0, None));
    }

    #[test]
    fn float_median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }
}
