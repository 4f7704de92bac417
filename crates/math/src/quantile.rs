//! Streaming quantile estimation with the P² algorithm (Jain & Chlamtac,
//! 1985): estimates a chosen percentile of a stream in O(1) memory,
//! without storing observations. The simulator uses it for per-class
//! p95/p99 response times over hundreds of thousands of transactions.

use crate::MathError;

/// A P² (Piecewise-Parabolic) streaming estimator for a single quantile.
///
/// # Examples
///
/// ```
/// use wlc_math::quantile::P2Quantile;
///
/// let mut q = P2Quantile::new(0.5)?; // median
/// for i in 1..=1001 {
///     q.push(i as f64);
/// }
/// let est = q.estimate().unwrap();
/// assert!((est - 501.0).abs() < 20.0);
/// # Ok::<(), wlc_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (the estimates).
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile, `p ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] unless `0 < p < 1`.
    pub fn new(p: f64) -> Result<Self, MathError> {
        if !(p.is_finite() && p > 0.0 && p < 1.0) {
            return Err(MathError::InvalidParameter {
                name: "p",
                reason: "quantile must be strictly between 0 and 1",
            });
        }
        Ok(P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        })
    }

    /// The target quantile in `(0, 1)`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds an observation.
    pub fn push(&mut self, value: f64) {
        if self.count < 5 {
            self.heights[self.count] = value;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
            }
            return;
        }
        self.count += 1;

        // Find the cell containing the observation and update extremes.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if value >= self.heights[i] && value < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        // Shift positions of markers above the cell.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d_sign = d.signum();
                let candidate = self.parabolic(i, d_sign);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d_sign)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d_sign;
            }
        }
    }

    /// Piecewise-parabolic interpolation.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola leaves the bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// The current quantile estimate, or `None` before any observation.
    ///
    /// With fewer than 5 observations the exact order statistic is
    /// returned.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                let mut sorted = self.heights[..n].to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
                let rank = (self.p * (n - 1) as f64).round() as usize;
                Some(sorted[rank.min(n - 1)])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let rank = p * (sorted.len() - 1) as f64;
        sorted[rank.round() as usize]
    }

    #[test]
    fn rejects_degenerate_quantiles() {
        assert!(P2Quantile::new(0.0).is_err());
        assert!(P2Quantile::new(1.0).is_err());
        assert!(P2Quantile::new(-0.5).is_err());
        assert!(P2Quantile::new(f64::NAN).is_err());
        assert!(P2Quantile::new(0.95).is_ok());
    }

    #[test]
    fn empty_has_no_estimate() {
        let q = P2Quantile::new(0.5).unwrap();
        assert_eq!(q.estimate(), None);
        assert_eq!(q.count(), 0);
    }

    #[test]
    fn small_counts_return_order_statistics() {
        let mut q = P2Quantile::new(0.5).unwrap();
        q.push(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        assert_eq!(q.estimate(), Some(2.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5).unwrap();
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..100_000 {
            q.push(rng.next_f64());
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.01, "median estimate {est}");
    }

    #[test]
    fn p95_of_exponential_stream() {
        // p95 of Exp(1) is ln(20) ≈ 2.9957.
        let mut q = P2Quantile::new(0.95).unwrap();
        let mut rng = Xoshiro256::seed_from(2);
        for _ in 0..200_000 {
            q.push(rng.next_exponential(1.0).unwrap());
        }
        let est = q.estimate().unwrap();
        let expected = 20.0_f64.ln();
        assert!(
            (est - expected).abs() / expected < 0.03,
            "p95 estimate {est} vs {expected}"
        );
    }

    #[test]
    fn tracks_exact_quantile_on_gaussian(/* regression vs sorted data */) {
        let mut rng = Xoshiro256::seed_from(3);
        // Standard normal draws (Box-Muller on two uniforms each).
        let samples: Vec<f64> = (0..50_000)
            .map(|_| {
                let u1 = 1.0 - rng.next_f64();
                let u2 = rng.next_f64();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        for &p in &[0.1, 0.5, 0.9, 0.99] {
            let mut q = P2Quantile::new(p).unwrap();
            for &s in &samples {
                q.push(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let exact = exact_quantile(&sorted, p);
            let est = q.estimate().unwrap();
            assert!(
                (est - exact).abs() < 0.05,
                "p={p}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn monotone_input_is_handled() {
        let mut q = P2Quantile::new(0.9).unwrap();
        for i in 0..10_000 {
            q.push(i as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 9000.0).abs() < 150.0, "{est}");
    }

    #[test]
    fn constant_stream_estimates_constant() {
        let mut q = P2Quantile::new(0.75).unwrap();
        for _ in 0..1000 {
            q.push(42.0);
        }
        assert_eq!(q.estimate(), Some(42.0));
    }

    #[test]
    fn count_tracks_pushes() {
        let mut q = P2Quantile::new(0.5).unwrap();
        for i in 0..17 {
            q.push(i as f64);
        }
        assert_eq!(q.count(), 17);
        assert_eq!(q.p(), 0.5);
    }
}
