//! Descriptive statistics.
//!
//! Includes the error metric the paper uses for model validation — the
//! *harmonic mean of relative errors* — alongside the usual summary
//! statistics and an online (Welford) accumulator used by the simulator's
//! steady-state metric collection.

use crate::MathError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
///
/// # Examples
///
/// ```
/// use wlc_math::stats::mean;
/// assert_eq!(mean(&[1.0, 3.0]).unwrap(), 2.0);
/// ```
pub fn mean(values: &[f64]) -> Result<f64, MathError> {
    if values.is_empty() {
        return Err(MathError::EmptyInput);
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
// wlc-lint: allow(unreferenced-pub, reason = "crates/math/tests/proptests.rs::online_stats_matches_batch checks OnlineStats against it")
pub fn variance_population(values: &[f64]) -> Result<f64, MathError> {
    let m = mean(values)?;
    Ok(values.iter().map(|x| (x - m).powi(2)).sum::<f64>() / values.len() as f64)
}

/// Harmonic mean.
///
/// This is the aggregation the paper applies to per-sample relative errors
/// ("harmonic mean of (absolute error) / (actual value)", §3.3).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice and
/// [`MathError::InvalidParameter`] if any value is non-positive (the
/// harmonic mean is only defined for positive values).
///
/// # Examples
///
/// ```
/// use wlc_math::stats::harmonic_mean;
/// let hm = harmonic_mean(&[1.0, 4.0, 4.0]).unwrap();
/// assert!((hm - 2.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: &[f64]) -> Result<f64, MathError> {
    if values.is_empty() {
        return Err(MathError::EmptyInput);
    }
    let mut recip_sum = 0.0;
    for &v in values {
        if v <= 0.0 || !v.is_finite() {
            return Err(MathError::InvalidParameter {
                name: "values",
                reason: "harmonic mean requires positive finite values",
            });
        }
        recip_sum += 1.0 / v;
    }
    Ok(values.len() as f64 / recip_sum)
}

/// Median (average of the two middle elements for even lengths).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn median(values: &[f64]) -> Result<f64, MathError> {
    percentile(values, 50.0)
}

/// Percentile using linear interpolation between closest ranks.
///
/// `p` is in percent, e.g. `95.0` for the 95th percentile. Works on a
/// copy of `values` in linear time: it selects the one or two order
/// statistics the rank falls between instead of sorting. This gives the
/// simulator's per-class p95 response times.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice and
/// [`MathError::InvalidParameter`] if `p` is outside `[0, 100]`.
///
/// # Panics
///
/// Panics if `values` holds two or more values and one of them is NaN.
///
/// # Examples
///
/// ```
/// use wlc_math::stats::percentile;
/// let p = percentile(&[4.0, 1.0, 3.0, 2.0], 50.0).unwrap();
/// assert!((p - 2.5).abs() < 1e-12);
/// ```
pub fn percentile(values: &[f64], p: f64) -> Result<f64, MathError> {
    if values.is_empty() {
        return Err(MathError::EmptyInput);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(MathError::InvalidParameter {
            name: "p",
            reason: "percentile must be in [0, 100]",
        });
    }
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let by_value = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in percentile input");
    let mut scratch = values.to_vec();
    let (_, &mut low, above) = scratch.select_nth_unstable_by(lo, by_value);
    if lo == hi {
        return Ok(low);
    }
    // `hi == lo + 1`: the smallest value above the `lo`-th.
    let (_, &mut high, _) = above.select_nth_unstable_by(0, by_value);
    let frac = rank - lo as f64;
    Ok(low * (1.0 - frac) + high * frac)
}

/// Coefficient of determination R² of predictions against actuals.
///
/// `1.0` is a perfect fit; `0.0` matches always predicting the mean;
/// negative values are worse than the mean predictor.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] for unequal lengths and
/// [`MathError::EmptyInput`] for empty input.
pub fn r_squared(actual: &[f64], predicted: &[f64]) -> Result<f64, MathError> {
    if actual.len() != predicted.len() {
        return Err(MathError::DimensionMismatch {
            left: (actual.len(), 1),
            right: (predicted.len(), 1),
            op: "r_squared",
        });
    }
    if actual.is_empty() {
        return Err(MathError::EmptyInput);
    }
    let m = mean(actual)?;
    let ss_res: f64 = actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (a - p).powi(2))
        .sum();
    let ss_tot: f64 = actual.iter().map(|&a| (a - m).powi(2)).sum();
    if ss_tot == 0.0 {
        // Constant actuals: perfect iff residuals vanish.
        return Ok(if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Smallest value in a slice.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn min(values: &[f64]) -> Result<f64, MathError> {
    if values.is_empty() {
        return Err(MathError::EmptyInput);
    }
    Ok(values.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Largest value in a slice.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn max(values: &[f64]) -> Result<f64, MathError> {
    if values.is_empty() {
        return Err(MathError::EmptyInput);
    }
    Ok(values.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Used by the simulator to average counter values over the steady state
/// without storing every observation.
///
/// # Examples
///
/// ```
/// use wlc_math::stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 3);
/// assert_eq!(acc.mean(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::stats::OnlineStats;
    /// let mut a = OnlineStats::new();
    /// let mut b = OnlineStats::new();
    /// a.push(1.0);
    /// b.push(3.0);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 2);
    /// assert_eq!(a.mean(), 2.0);
    /// ```
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    const EPS: f64 = 1e-10;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0, 9.0]).unwrap(), 5.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn variance_known() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance_population(&v).unwrap() - 4.0).abs() < EPS);
    }

    #[test]
    fn harmonic_mean_known() {
        assert!((harmonic_mean(&[1.0, 2.0]).unwrap() - 4.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn harmonic_mean_rejects_nonpositive() {
        assert!(harmonic_mean(&[1.0, 0.0]).is_err());
        assert!(harmonic_mean(&[1.0, -2.0]).is_err());
        assert!(harmonic_mean(&[]).is_err());
    }

    #[test]
    fn harmonic_le_arithmetic() {
        let v = [1.0, 3.0, 7.0, 9.0, 2.5];
        let h = harmonic_mean(&v).unwrap();
        let a = mean(&v).unwrap();
        assert!(h <= a + EPS);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_extremes() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 5.0);
        assert!(percentile(&v, 101.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 25.0).unwrap() - 2.5).abs() < EPS);
    }

    /// The sorting body `percentile` had before it selected; the
    /// selecting one must return its bits.
    fn percentile_by_sorting(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    #[test]
    fn selecting_percentile_matches_sorting_bit_for_bit() {
        let mut rng = Xoshiro256::seed_from(95);
        for len in 1..=300 {
            // Drawing from a pool of about len/4 values repeats them. No
            // -0.0: selection may return it for an equal 0.0.
            let mut pool = vec![0.0];
            pool.extend((0..len / 4).map(|_| rng.next_range(-1e3, 1e3)));
            let values: Vec<f64> = (0..len)
                .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
                .collect();
            for p in [0.0, 25.0, 50.0, 95.0, 99.9, 100.0] {
                let selected = percentile(&values, p).unwrap();
                let sorted = percentile_by_sorting(&values, p);
                assert_eq!(selected.to_bits(), sorted.to_bits(), "len {len}, p {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_panics_on_nan() {
        let _ = percentile(&[3.0, f64::NAN, 1.0, 2.0], 95.0);
    }

    #[test]
    fn r_squared_perfect_and_mean() {
        let actual = [1.0, 2.0, 3.0];
        assert!((r_squared(&actual, &actual).unwrap() - 1.0).abs() < EPS);
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&actual, &mean_pred).unwrap().abs() < EPS);
    }

    #[test]
    fn r_squared_constant_actuals() {
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 2.0]).unwrap(), 1.0);
        assert_eq!(
            r_squared(&[2.0, 2.0], &[2.0, 3.0]).unwrap(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn min_max_basic() {
        let v = [3.0, -1.0, 2.0];
        assert_eq!(min(&v).unwrap(), -1.0);
        assert_eq!(max(&v).unwrap(), 3.0);
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
    }

    #[test]
    fn online_stats_matches_batch() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = OnlineStats::new();
        for &x in &v {
            acc.push(x);
        }
        assert!((acc.mean() - mean(&v).unwrap()).abs() < EPS);
        assert!((acc.variance() - variance_population(&v).unwrap()).abs() < EPS);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
        assert_eq!(acc.count(), 8);
    }

    #[test]
    fn online_stats_merge_matches_combined() {
        let a_vals = [1.0, 2.0, 3.0];
        let b_vals = [10.0, 20.0];
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &a_vals {
            a.push(x);
        }
        for &x in &b_vals {
            b.push(x);
        }
        a.merge(&b);
        let all: Vec<f64> = a_vals.iter().chain(b_vals.iter()).copied().collect();
        assert!((a.mean() - mean(&all).unwrap()).abs() < EPS);
        assert!((a.variance() - variance_population(&all).unwrap()).abs() < EPS);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn online_stats_merge_empty_cases() {
        let mut a = OnlineStats::new();
        let b = OnlineStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        let mut c = OnlineStats::new();
        let mut d = OnlineStats::new();
        d.push(5.0);
        c.merge(&d);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn online_stats_default_is_empty() {
        let acc = OnlineStats::default();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
    }
}
