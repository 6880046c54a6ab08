//! Order statistics over raw latency samples.
//!
//! Every percentile is nearest-rank over the exact samples (no histogram
//! buckets), and a tail is only reported when at least [`MIN_BEYOND`]
//! samples lie above it — a p99 over 50 samples is the maximum, not a
//! percentile.

/// Samples that must lie beyond a percentile before it is reported as a
/// tail.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose cumulative share reaches `p`.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` of `samples`, or `None` when there are no
/// samples. `samples` need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// The nearest-rank median (p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Percentile `p` only if at least [`MIN_BEYOND`] samples lie beyond its
/// rank; otherwise the tail is not resolvable from this many samples.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - nearest_rank(p, n) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// The highest of p99.9, p99 and p90 that [`tail`] can resolve, as
/// `(p, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0].into_iter().find_map(|p| tail(samples, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentiles() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(tail(&[], 99.0), None);
        assert_eq!(highest_tail(&[]), None);
    }

    #[test]
    fn one_sample_is_every_percentile_but_no_tail() {
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(tail(&[7.0], 99.0), None);
    }

    #[test]
    fn two_samples_take_the_lower_median() {
        assert_eq!(median(&[9.0, 3.0]), Some(3.0));
        assert_eq!(percentile(&[9.0, 3.0], 51.0), Some(9.0));
        assert_eq!(percentile(&[9.0, 3.0], 100.0), Some(9.0));
        assert_eq!(tail(&[9.0, 3.0], 50.0), None);
    }

    #[test]
    fn ten_samples_resolve_no_tail() {
        let s: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(median(&s), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 99.0), Some(10.0));
        // Even p1 has only nine samples beyond it.
        assert_eq!(tail(&s, 1.0), None);
        assert_eq!(highest_tail(&s), None);
    }

    #[test]
    fn a_thousand_samples_resolve_p99_but_not_p999() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&s), Some(500.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(tail(&s, 99.0), Some(990.0), "exactly ten samples lie beyond rank 990");
        assert_eq!(tail(&s, 99.9), None, "only one sample lies beyond rank 999");
        assert_eq!(highest_tail(&s), Some((99.0, 990.0)));
        // p50 and p99 differ, unlike a log2-bucketed histogram's upper edges.
        assert_ne!(median(&s), percentile(&s, 99.0));
    }
}
