//! Configuration-space experiment designs.
//!
//! The prior work the paper compares against (Chow et al.) trains linear
//! models "in the Design of Experiments (DOE) approach" with carefully
//! designed measurement points; the paper's own method "can readily
//! construct a model from a rough mixture of data points" (§6). This
//! module provides both styles of sampling plan:
//!
//! - [`full_factorial`] — every combination of per-parameter levels (the
//!   classical DOE grid).
//! - [`latin_hypercube`] — space-filling random design.

use wlc_math::rng::{Seed, Xoshiro256};

use crate::DataError;

/// An inclusive numeric range for one configuration parameter.
///
/// # Examples
///
/// ```
/// use wlc_data::design::ParamRange;
/// let r = ParamRange::new(0.0, 20.0)?;
/// assert_eq!(r.width(), 20.0);
/// # Ok::<(), wlc_data::DataError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamRange {
    low: f64,
    high: f64,
}

impl ParamRange {
    /// Creates a range `[low, high]`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] unless `low <= high` and
    /// both are finite.
    pub fn new(low: f64, high: f64) -> Result<Self, DataError> {
        if !(low.is_finite() && high.is_finite() && low <= high) {
            return Err(DataError::InvalidParameter {
                name: "low/high",
                reason: "must be finite with low <= high",
            });
        }
        Ok(ParamRange { low, high })
    }

    /// `high − low`.
    pub fn width(self) -> f64 {
        self.high - self.low
    }

    /// Linear interpolation at `t ∈ [0, 1]`.
    pub fn lerp(self, t: f64) -> f64 {
        self.low + self.width() * t
    }

    /// `n` evenly spaced levels across the range (inclusive of both ends).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if `n == 0`.
    pub fn levels(self, n: usize) -> Result<Vec<f64>, DataError> {
        if n == 0 {
            return Err(DataError::InvalidParameter {
                name: "n",
                reason: "must be at least 1",
            });
        }
        if n == 1 {
            return Ok(vec![(self.low + self.high) / 2.0]);
        }
        Ok((0..n)
            .map(|i| self.lerp(i as f64 / (n - 1) as f64))
            .collect())
    }
}

/// Full-factorial design: the Cartesian product of per-parameter levels.
///
/// # Errors
///
/// Returns [`DataError::Empty`] if `levels` is empty or any parameter has
/// no levels.
///
/// # Examples
///
/// ```
/// use wlc_data::design::full_factorial;
///
/// let points = full_factorial(&[vec![1.0, 2.0], vec![10.0, 20.0, 30.0]])?;
/// assert_eq!(points.len(), 6);
/// assert_eq!(points[0], vec![1.0, 10.0]);
/// assert_eq!(points[5], vec![2.0, 30.0]);
/// # Ok::<(), wlc_data::DataError>(())
/// ```
pub fn full_factorial(levels: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, DataError> {
    if levels.is_empty() || levels.iter().any(Vec::is_empty) {
        return Err(DataError::Empty);
    }
    let total: usize = levels.iter().map(Vec::len).product();
    let mut out = Vec::with_capacity(total);
    let mut counters = vec![0usize; levels.len()];
    for _ in 0..total {
        out.push(
            counters
                .iter()
                .zip(levels.iter())
                .map(|(&i, l)| l[i])
                .collect(),
        );
        // Odometer increment, last dimension fastest.
        for d in (0..levels.len()).rev() {
            counters[d] += 1;
            if counters[d] < levels[d].len() {
                break;
            }
            counters[d] = 0;
        }
    }
    Ok(out)
}

/// Latin-hypercube design: `n` points such that each dimension's range is
/// divided into `n` strata each containing exactly one point.
///
/// # Errors
///
/// Returns [`DataError::Empty`] if `ranges` is empty and
/// [`DataError::InvalidParameter`] if `n == 0`.
pub fn latin_hypercube(
    ranges: &[ParamRange],
    n: usize,
    seed: Seed,
) -> Result<Vec<Vec<f64>>, DataError> {
    if ranges.is_empty() {
        return Err(DataError::Empty);
    }
    if n == 0 {
        return Err(DataError::InvalidParameter {
            name: "n",
            reason: "must be at least 1",
        });
    }
    let mut rng = Xoshiro256::from_seed(seed);
    // For each dimension: a random permutation of strata, plus jitter.
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(ranges.len());
    for range in ranges {
        let perm = rng.permutation(n);
        let col: Vec<f64> = perm
            .into_iter()
            .map(|stratum| {
                let t = (stratum as f64 + rng.next_f64()) / n as f64;
                range.lerp(t)
            })
            .collect();
        columns.push(col);
    }
    Ok((0..n)
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect())
}

/// Rounds every coordinate of every point to the nearest integer — useful
/// when parameters are inherently discrete (thread counts).
pub fn round_to_integers(points: &mut [Vec<f64>]) {
    for p in points {
        for v in p {
            *v = v.round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_range_validates() {
        assert!(ParamRange::new(5.0, 1.0).is_err());
        assert!(ParamRange::new(f64::NAN, 1.0).is_err());
        assert!(ParamRange::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn levels_even_spacing() {
        let r = ParamRange::new(0.0, 10.0).unwrap();
        assert_eq!(r.levels(3).unwrap(), vec![0.0, 5.0, 10.0]);
        assert_eq!(r.levels(1).unwrap(), vec![5.0]);
        assert!(r.levels(0).is_err());
    }

    #[test]
    fn lerp_endpoints() {
        let r = ParamRange::new(2.0, 6.0).unwrap();
        assert_eq!(r.lerp(0.0), 2.0);
        assert_eq!(r.lerp(1.0), 6.0);
        assert_eq!(r.lerp(0.5), 4.0);
    }

    #[test]
    fn full_factorial_counts_and_order() {
        let pts = full_factorial(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(pts.len(), 8);
        // All distinct.
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert_ne!(pts[i], pts[j]);
            }
        }
        // Last dimension varies fastest.
        assert_eq!(pts[0], vec![0.0, 0.0, 0.0]);
        assert_eq!(pts[1], vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn full_factorial_rejects_empty() {
        assert!(full_factorial(&[]).is_err());
        assert!(full_factorial(&[vec![1.0], vec![]]).is_err());
    }

    #[test]
    fn latin_hypercube_stratification() {
        let n = 10;
        let ranges = [
            ParamRange::new(0.0, 1.0).unwrap(),
            ParamRange::new(0.0, 1.0).unwrap(),
        ];
        let pts = latin_hypercube(&ranges, n, Seed::new(3)).unwrap();
        assert_eq!(pts.len(), n);
        // Each dimension: exactly one point per stratum [i/n, (i+1)/n).
        for d in 0..2 {
            let mut strata = vec![0usize; n];
            for p in &pts {
                let s = ((p[d] * n as f64).floor() as usize).min(n - 1);
                strata[s] += 1;
            }
            assert!(strata.iter().all(|&c| c == 1), "dim {d}: {strata:?}");
        }
    }

    #[test]
    fn designs_reject_bad_input() {
        let ranges = [ParamRange::new(0.0, 1.0).unwrap()];
        assert!(latin_hypercube(&[], 5, Seed::new(1)).is_err());
        assert!(latin_hypercube(&ranges, 0, Seed::new(1)).is_err());
    }

    #[test]
    fn round_to_integers_rounds() {
        let mut pts = vec![vec![1.4, 2.6], vec![3.5, -1.2]];
        round_to_integers(&mut pts);
        assert_eq!(pts[0], vec![1.0, 3.0]);
        assert_eq!(pts[1], vec![4.0, -1.0]);
    }
}
