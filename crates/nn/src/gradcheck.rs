//! Finite-difference verification of back-propagation gradients.
//!
//! Back-propagation bugs are silent — training still "works", just worse.
//! This module compares the analytic gradients of the production path,
//! [`Mlp::batch_gradient_with`], against central finite differences of
//! [`Mlp::batch_loss_with`]. It is used heavily by this crate's test
//! suite and is exported for downstream sanity checks.

use wlc_math::Matrix;

use crate::{Loss, Mlp, NnError, Workspace};

/// Result of a gradient check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f64,
    /// Largest relative difference `|a−n| / max(|a|, |n|, 1e-8)`.
    pub max_rel_diff: f64,
    /// Index of the worst parameter.
    pub worst_index: usize,
}

impl GradCheckReport {
    /// Convenience predicate: both differences under `tol`.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/nn/tests/proptests.rs::backprop_matches_finite_differences judges each gradient check with it")
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_diff < tol || self.max_rel_diff < tol
    }
}

/// Compares back-propagation gradients with central finite differences.
///
/// `step` is the finite-difference step; `1e-5` is a good default for
/// parameters of order 1.
///
/// # Errors
///
/// Propagates shape errors from the forward/backward passes.
///
/// # Examples
///
/// ```
/// use wlc_math::Matrix;
/// use wlc_nn::{gradcheck, Activation, Loss, MlpBuilder};
///
/// let mlp = MlpBuilder::new(2)
///     .hidden(4, Activation::logistic())
///     .output(1, Activation::identity())
///     .seed(1)
///     .build()?;
/// let xs = Matrix::from_rows(&[&[0.3, -0.2], &[0.9, 0.5]]).unwrap();
/// let ys = Matrix::from_rows(&[&[0.1], &[0.7]]).unwrap();
/// let report = gradcheck::check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5)?;
/// assert!(report.passes(1e-6));
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
pub fn check(
    mlp: &Mlp,
    xs: &Matrix,
    ys: &Matrix,
    loss: Loss,
    step: f64,
) -> Result<GradCheckReport, NnError> {
    let mut ws = Workspace::for_mlp(mlp);
    mlp.batch_gradient_with(xs, ys, loss, &mut ws)?;
    let analytic = ws.grad().to_vec();
    let params = mlp.params_flat();
    let mut probe = mlp.clone();

    let mut max_abs = 0.0_f64;
    let mut max_rel = 0.0_f64;
    let mut worst = 0usize;
    for i in 0..params.len() {
        let mut plus = params.clone();
        plus[i] += step;
        probe.set_params_flat(&plus)?;
        let loss_plus = probe.batch_loss_with(xs, ys, loss, &mut ws)?;

        let mut minus = params.clone();
        minus[i] -= step;
        probe.set_params_flat(&minus)?;
        let loss_minus = probe.batch_loss_with(xs, ys, loss, &mut ws)?;

        let numeric = (loss_plus - loss_minus) / (2.0 * step);
        let abs_diff = (analytic[i] - numeric).abs();
        let rel_diff = abs_diff / analytic[i].abs().max(numeric.abs()).max(1e-8);
        if abs_diff > max_abs {
            max_abs = abs_diff;
            worst = i;
        }
        max_rel = max_rel.max(rel_diff);
    }
    Ok(GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
        worst_index: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpBuilder};

    fn data(inputs: usize, outputs: usize, rows: usize) -> (Matrix, Matrix) {
        // Deterministic pseudo-data without an RNG dependency in the test.
        let xs = Matrix::from_fn(rows, inputs, |r, c| {
            ((r * 7 + c * 3) % 11) as f64 / 11.0 - 0.5
        });
        let ys = Matrix::from_fn(rows, outputs, |r, c| ((r * 5 + c * 2) % 7) as f64 / 7.0);
        (xs, ys)
    }

    #[test]
    fn gradients_correct_single_layer() {
        let mlp = MlpBuilder::new(3)
            .output(2, Activation::identity())
            .seed(1)
            .build()
            .unwrap();
        let (xs, ys) = data(3, 2, 5);
        let report = check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5).unwrap();
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn gradients_correct_deep_logistic() {
        // The paper's topology family: logistic hidden layers, identity out.
        let mlp = MlpBuilder::new(4)
            .hidden(6, Activation::logistic())
            .hidden(6, Activation::logistic())
            .output(5, Activation::identity())
            .seed(2)
            .build()
            .unwrap();
        let (xs, ys) = data(4, 5, 8);
        let report = check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5).unwrap();
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn gradients_correct_sloped_logistic() {
        let mlp = MlpBuilder::new(2)
            .hidden(5, Activation::logistic_with_slope(2.5).unwrap())
            .output(1, Activation::identity())
            .seed(3)
            .build()
            .unwrap();
        let (xs, ys) = data(2, 1, 6);
        let report = check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5).unwrap();
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn gradients_correct_tanh() {
        let mlp = MlpBuilder::new(3)
            .hidden(4, Activation::Tanh)
            .output(2, Activation::identity())
            .seed(4)
            .build()
            .unwrap();
        let (xs, ys) = data(3, 2, 6);
        let report = check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5).unwrap();
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn gradients_correct_sigmoid_output_layer() {
        // Squashing output layer (classification-style use).
        let mlp = MlpBuilder::new(2)
            .hidden(4, Activation::logistic())
            .output(2, Activation::logistic())
            .seed(6)
            .build()
            .unwrap();
        let (xs, ys) = data(2, 2, 5);
        let report = check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5).unwrap();
        assert!(report.passes(1e-6), "{report:?}");
    }
}
