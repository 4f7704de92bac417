//! Global sensitivity analysis of a performance model.
//!
//! The paper's §5 reads tuning guidance off 2-D surface plots: which
//! parameters matter ("parallel slopes" = a futile knob) and which
//! interact (valleys/hills). This module quantifies the same questions
//! over the *whole* configuration space with variance-based first-order
//! Sobol indices, estimated through the trained model — cheap, because
//! model predictions replace experiments (the paper's core promise).
//!
//! The estimator is the classic Monte-Carlo one: for input `i`,
//! `S_i = Var_{x_i}( E[y | x_i] ) / Var(y)`, with the inner expectation
//! approximated by averaging over resamples of the remaining inputs.

use wlc_data::design::ParamRange;
use wlc_math::rng::{Seed, Xoshiro256};

use crate::{ModelError, PerformanceModel};

/// First-order sensitivity indices of one output with respect to every
/// input, in `[0, 1]` (up to Monte-Carlo noise).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SensitivityReport {
    /// Index of the analyzed output indicator.
    pub output: usize,
    /// One first-order index per input parameter.
    pub first_order: Vec<f64>,
    /// Total output variance over the sampled space (0 for a constant
    /// output — all indices are reported as 0 in that case).
    pub output_variance: f64,
}

impl SensitivityReport {
    /// Index of the most influential input.
    // wlc-lint: allow(unreferenced-pub, reason = "tests/extensions.rs::sensitivity_finds_injection_rate_dominant_for_throughput reads the indices' verdict through it")
    pub fn dominant_input(&self) -> usize {
        self.first_order
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Estimates first-order Sobol indices of `model`'s `output` indicator
/// over the box defined by `ranges`.
///
/// `outer` controls how many conditioning values each input gets and
/// `inner` how many resamples approximate each conditional mean;
/// `outer = inner = 64` gives ±0.05-ish accuracy for smooth models.
///
/// # Errors
///
/// - [`ModelError::WidthMismatch`] if `ranges.len() != model.inputs()`.
/// - [`ModelError::InvalidParameter`] for `output` out of range or zero
///   sample counts.
///
/// # Examples
///
/// ```
/// use wlc_data::design::ParamRange;
/// use wlc_model::sensitivity::first_order_indices;
/// use wlc_model::{ModelError, PerformanceModel};
///
/// // y = 10·x0 + x1: x0 should dominate.
/// struct Toy;
/// impl PerformanceModel for Toy {
///     fn inputs(&self) -> usize { 2 }
///     fn outputs(&self) -> usize { 1 }
///     fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
///         Ok(vec![10.0 * x[0] + x[1]])
///     }
/// }
/// let ranges = [ParamRange::new(0.0, 1.0)?, ParamRange::new(0.0, 1.0)?];
/// let report = first_order_indices(&Toy, 0, &ranges, 64, 64, 1)?;
/// assert!(report.first_order[0] > 0.9);
/// assert!(report.first_order[1] < 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn first_order_indices(
    model: &dyn PerformanceModel,
    output: usize,
    ranges: &[ParamRange],
    outer: usize,
    inner: usize,
    seed: u64,
) -> Result<SensitivityReport, ModelError> {
    if ranges.len() != model.inputs() {
        return Err(ModelError::WidthMismatch {
            expected: model.inputs(),
            actual: ranges.len(),
            what: "parameter ranges",
        });
    }
    if output >= model.outputs() {
        return Err(ModelError::InvalidParameter {
            name: "output",
            reason: "output index exceeds the model's outputs",
        });
    }
    if outer == 0 || inner == 0 {
        return Err(ModelError::InvalidParameter {
            name: "outer/inner",
            reason: "sample counts must be at least 1",
        });
    }

    let mut rng = Xoshiro256::from_seed(Seed::new(seed));
    let dims = ranges.len();
    let sample_point = |rng: &mut Xoshiro256| -> Vec<f64> {
        ranges.iter().map(|r| r.lerp(rng.next_f64())).collect()
    };

    // Total variance over the space.
    let total_samples = outer * inner;
    let mut all = Vec::with_capacity(total_samples);
    for _ in 0..total_samples {
        let x = sample_point(&mut rng);
        all.push(model.predict(&x)?[output]);
    }
    let grand_mean = all.iter().sum::<f64>() / all.len() as f64;
    let total_var = all.iter().map(|v| (v - grand_mean).powi(2)).sum::<f64>() / all.len() as f64;

    let mut first_order = vec![0.0; dims];
    if total_var > 1e-18 {
        for (dim, slot) in first_order.iter_mut().enumerate() {
            // Var over conditioning values of the conditional mean.
            let mut conditional_means = Vec::with_capacity(outer);
            for _ in 0..outer {
                let fixed = ranges[dim].lerp(rng.next_f64());
                let mut acc = 0.0;
                for _ in 0..inner {
                    let mut x = sample_point(&mut rng);
                    x[dim] = fixed;
                    acc += model.predict(&x)?[output];
                }
                conditional_means.push(acc / inner as f64);
            }
            let mean = conditional_means.iter().sum::<f64>() / conditional_means.len() as f64;
            let var = conditional_means
                .iter()
                .map(|v| (v - mean).powi(2))
                .sum::<f64>()
                / conditional_means.len() as f64;
            // Subtract the Monte-Carlo noise floor of the inner mean and
            // clamp into [0, 1].
            let noise_floor = total_var / inner as f64;
            *slot = ((var - noise_floor) / total_var).clamp(0.0, 1.0);
        }
    }

    Ok(SensitivityReport {
        output,
        first_order,
        output_variance: total_var,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Linear;
    impl PerformanceModel for Linear {
        fn inputs(&self) -> usize {
            3
        }
        fn outputs(&self) -> usize {
            2
        }
        fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
            // Output 0: dominated by x0; x2 is inert.
            // Output 1: constant.
            Ok(vec![5.0 * x[0] + 1.0 * x[1], 42.0])
        }
    }

    fn unit_ranges(n: usize) -> Vec<ParamRange> {
        (0..n).map(|_| ParamRange::new(0.0, 1.0).unwrap()).collect()
    }

    #[test]
    fn linear_model_indices_match_theory() {
        // Var(5 x0) : Var(x1) = 25 : 1 -> S0 ≈ 25/26, S1 ≈ 1/26, S2 = 0.
        let report = first_order_indices(&Linear, 0, &unit_ranges(3), 96, 96, 1).unwrap();
        assert!(
            (report.first_order[0] - 25.0 / 26.0).abs() < 0.08,
            "{report:?}"
        );
        assert!(
            (report.first_order[1] - 1.0 / 26.0).abs() < 0.05,
            "{report:?}"
        );
        assert!(report.first_order[2] < 0.03, "{report:?}");
        assert_eq!(report.dominant_input(), 0);
    }

    #[test]
    fn constant_output_reports_zero_everywhere() {
        let report = first_order_indices(&Linear, 1, &unit_ranges(3), 16, 16, 2).unwrap();
        assert_eq!(report.output_variance, 0.0);
        assert!(report.first_order.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn interaction_only_model_has_small_first_order() {
        // y = x0 · x1 over [-1,1]²: the first-order effects are weak
        // (conditional means are ~0); most variance is interaction.
        struct Product;
        impl PerformanceModel for Product {
            fn inputs(&self) -> usize {
                2
            }
            fn outputs(&self) -> usize {
                1
            }
            fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
                Ok(vec![x[0] * x[1]])
            }
        }
        let ranges = vec![
            ParamRange::new(-1.0, 1.0).unwrap(),
            ParamRange::new(-1.0, 1.0).unwrap(),
        ];
        let report = first_order_indices(&Product, 0, &ranges, 96, 96, 3).unwrap();
        assert!(report.first_order[0] < 0.1, "{report:?}");
        assert!(report.first_order[1] < 0.1, "{report:?}");
        assert!(report.output_variance > 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(first_order_indices(&Linear, 0, &unit_ranges(2), 8, 8, 1).is_err());
        assert!(first_order_indices(&Linear, 5, &unit_ranges(3), 8, 8, 1).is_err());
        assert!(first_order_indices(&Linear, 0, &unit_ranges(3), 0, 8, 1).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = first_order_indices(&Linear, 0, &unit_ranges(3), 16, 16, 9).unwrap();
        let b = first_order_indices(&Linear, 0, &unit_ranges(3), 16, 16, 9).unwrap();
        assert_eq!(a, b);
    }
}
