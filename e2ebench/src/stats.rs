//! Order statistics over latency samples.
//!
//! A failed operation is recorded as `f64::INFINITY`: it sorts after
//! every real sample, so it counts as missing any latency limit and
//! pushes every percentile it reaches to "infinitely late".

/// Sorts samples ascending; infinities (failed operations) go last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding one rank
/// up through binary representation error.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples (nearest rank, so always a real sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Percentiles the tail pick may report, shallowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_SUPPORT: usize = 10;

/// The deepest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_SUPPORT`] samples beyond it, as `(percentile, value, beyond)`.
/// `None` when even the median lacks that support.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - rank(n, p) >= TAIL_SUPPORT)
        .map(|&p| (p, percentile(sorted, p), n - rank(n, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_deepest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let (p, value, beyond) = tail(&ramp(1000)).unwrap();
        assert_eq!((p, value, beyond), (99.0, 990.0, 10));
        // 999 samples: p99 leaves 9, so the pick falls back to p90.
        let (p, value, beyond) = tail(&ramp(999)).unwrap();
        assert_eq!((p, value, beyond), (90.0, 900.0, 99));
        // 10 000 samples reach p99.9 with 10 beyond.
        assert_eq!(tail(&ramp(10_000)).unwrap().0, 99.9);
        // Too few samples for any supported percentile.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_operations_sort_as_infinitely_late() {
        let mut samples = ramp(98);
        samples.insert(10, f64::INFINITY);
        samples.insert(0, f64::INFINITY);
        let s = sorted(&samples);
        assert_eq!(s.len(), 100);
        assert!(s[98].is_infinite() && s[99].is_infinite());
        assert_eq!(percentile(&s, 98.0), 98.0);
        assert_eq!(percentile(&s, 99.0), f64::INFINITY);
        // Failures in the majority make the median itself infinite.
        let mostly_failed = [1.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(median(&mostly_failed), f64::INFINITY);
    }
}
