//! Service-time and inter-arrival distributions for the simulator.
//!
//! The 3-tier workload simulator draws transaction service demands and
//! arrival gaps from these distributions. Each value is produced from a
//! caller-supplied [`Xoshiro256`], keeping runs reproducible.

use crate::rng::Xoshiro256;
use crate::MathError;

/// A continuous, non-negative probability distribution.
///
/// The enum form (rather than a trait object) keeps configurations
/// copyable, comparable and trivially serializable.
///
/// # Examples
///
/// ```
/// use wlc_math::distributions::Distribution;
/// use wlc_math::rng::Xoshiro256;
///
/// let d = Distribution::exponential(2.0)?; // mean 0.5
/// let mut rng = Xoshiro256::seed_from(1);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert!((d.mean() - 0.5).abs() < 1e-12);
/// # Ok::<(), wlc_math::MathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Distribution {
    /// Always returns `value`.
    Deterministic {
        /// The constant value returned by every sample.
        value: f64,
    },
    /// Exponential with the given rate (mean `1/rate`).
    Exponential {
        /// Rate parameter λ.
        rate: f64,
    },
    /// Erlang: sum of `k` independent exponentials of the given rate.
    ///
    /// Mean `k/rate`; lower variance than a single exponential, which
    /// models multi-step service stages.
    Erlang {
        /// Number of exponential stages.
        k: u32,
        /// Rate of each stage.
        rate: f64,
    },
}

impl Distribution {
    /// Creates a deterministic distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `value` is negative or
    /// not finite.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/sim/tests/golden.rs builds its zero and fixed demands with it")
    pub fn deterministic(value: f64) -> Result<Self, MathError> {
        if !(value.is_finite() && value >= 0.0) {
            return Err(MathError::InvalidParameter {
                name: "value",
                reason: "must be non-negative and finite",
            });
        }
        Ok(Distribution::Deterministic { value })
    }

    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] unless `rate > 0`.
    pub fn exponential(rate: f64) -> Result<Self, MathError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(MathError::InvalidParameter {
                name: "rate",
                reason: "must be positive and finite",
            });
        }
        Ok(Distribution::Exponential { rate })
    }

    /// Creates an Erlang distribution with `k` stages of the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] unless `k >= 1` and
    /// `rate > 0`.
    pub fn erlang(k: u32, rate: f64) -> Result<Self, MathError> {
        if k == 0 {
            return Err(MathError::InvalidParameter {
                name: "k",
                reason: "must be at least 1",
            });
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(MathError::InvalidParameter {
                name: "rate",
                reason: "must be positive and finite",
            });
        }
        Ok(Distribution::Erlang { k, rate })
    }

    /// Creates an Erlang distribution from a target mean and stage count.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] unless `k >= 1` and
    /// `mean > 0`.
    pub fn erlang_with_mean(k: u32, mean: f64) -> Result<Self, MathError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(MathError::InvalidParameter {
                name: "mean",
                reason: "must be positive and finite",
            });
        }
        Self::erlang(k, k as f64 / mean)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        match *self {
            Distribution::Deterministic { value } => value,
            Distribution::Exponential { rate } => rng
                .next_exponential(rate)
                .expect("rate validated at construction"),
            Distribution::Erlang { k, rate } => {
                let mut total = 0.0;
                for _ in 0..k {
                    total += rng
                        .next_exponential(rate)
                        .expect("rate validated at construction");
                }
                total
            }
        }
    }

    /// The theoretical mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Deterministic { value } => value,
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Erlang { k, rate } => k as f64 / rate,
        }
    }

    /// Returns a copy of this distribution with its mean scaled by `factor`.
    ///
    /// Used by the simulator's contention model to inflate service demands
    /// under load.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `factor` is negative or
    /// not finite.
    pub fn scaled(&self, factor: f64) -> Result<Self, MathError> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(MathError::InvalidParameter {
                name: "factor",
                reason: "must be non-negative and finite",
            });
        }
        Ok(match *self {
            Distribution::Deterministic { value } => Distribution::Deterministic {
                value: value * factor,
            },
            Distribution::Exponential { rate } => Distribution::Exponential {
                rate: rate / factor,
            },
            Distribution::Erlang { k, rate } => Distribution::Erlang {
                k,
                rate: rate / factor,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_always_same() {
        let d = Distribution::deterministic(3.5).unwrap();
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn deterministic_rejects_negative() {
        assert!(Distribution::deterministic(-1.0).is_err());
        assert!(Distribution::deterministic(f64::INFINITY).is_err());
    }

    #[test]
    fn exponential_sample_mean_matches() {
        let d = Distribution::exponential(5.0).unwrap();
        assert!((sample_mean(&d, 4, 200_000) - 0.2).abs() < 0.005);
        assert!((d.mean() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn erlang_mean_and_reduced_variance() {
        let k = 4;
        let d = Distribution::erlang_with_mean(k, 2.0).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let mut rng = Xoshiro256::seed_from(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        assert!((m - 2.0).abs() < 0.02);
        // Erlang-k variance is mean^2 / k = 1.0 here; exponential would be 4.0.
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn erlang_rejects_zero_stages() {
        assert!(Distribution::erlang(0, 1.0).is_err());
        assert!(Distribution::erlang(1, 0.0).is_err());
        assert!(Distribution::erlang_with_mean(2, 0.0).is_err());
    }

    #[test]
    fn scaled_preserves_shape_scales_mean() {
        let cases = [
            Distribution::deterministic(2.0).unwrap(),
            Distribution::exponential(4.0).unwrap(),
            Distribution::erlang(3, 6.0).unwrap(),
        ];
        for d in cases {
            let s = d.scaled(2.5).unwrap();
            assert!(
                (s.mean() - d.mean() * 2.5).abs() < 1e-9,
                "scaling {d:?} gave mean {} expected {}",
                s.mean(),
                d.mean() * 2.5
            );
        }
    }

    #[test]
    fn scaled_rejects_bad_factor() {
        let d = Distribution::exponential(1.0).unwrap();
        assert!(d.scaled(-1.0).is_err());
        assert!(d.scaled(f64::NAN).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Distribution::erlang(2, 3.0).unwrap();
        let a: Vec<f64> = {
            let mut rng = Xoshiro256::seed_from(10);
            (0..5).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256::seed_from(10);
            (0..5).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
