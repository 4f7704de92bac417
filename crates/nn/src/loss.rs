use std::fmt;

use wlc_math::Matrix;

use crate::NnError;

/// A training loss over one prediction/target pair.
///
/// The paper trains "with a goal to minimize the error between the
/// predicted value and the actual value, i.e. ‖Ŷ − Y‖" (§2.2); that is
/// [`Loss::MeanSquared`]. The others are standard robust alternatives
/// exercised by the ablation benchmarks.
///
/// # Examples
///
/// ```
/// use wlc_nn::Loss;
///
/// let loss = Loss::MeanSquared;
/// let v = loss.value(&[1.0, 2.0], &[1.0, 4.0]).unwrap();
/// assert!((v - 2.0).abs() < 1e-12); // ((0)^2 + (2)^2) / 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Loss {
    /// Mean squared error `mean((ŷ − y)²)`.
    MeanSquared,
    /// Mean absolute error `mean(|ŷ − y|)`.
    MeanAbsolute,
    /// Huber loss: quadratic within `delta` of the target, linear beyond.
    Huber {
        /// Transition point between the quadratic and linear regimes.
        delta: f64,
    },
}

impl Loss {
    /// Loss value for a prediction/target pair (averaged over outputs).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for unequal lengths or empty
    /// inputs.
    pub fn value(&self, predicted: &[f64], target: &[f64]) -> Result<f64, NnError> {
        self.check(predicted, target)?;
        let n = predicted.len() as f64;
        let total: f64 = predicted
            .iter()
            .zip(target.iter())
            .map(|(&p, &t)| self.pointwise(p - t))
            .sum();
        Ok(total / n)
    }

    /// Gradient of the loss with respect to each predicted value.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for unequal lengths or empty
    /// inputs.
    pub fn gradient(&self, predicted: &[f64], target: &[f64]) -> Result<Vec<f64>, NnError> {
        self.check(predicted, target)?;
        let n = predicted.len() as f64;
        Ok(predicted
            .iter()
            .zip(target.iter())
            .map(|(&p, &t)| self.pointwise_grad(p - t) / n)
            .collect())
    }

    /// Row-batched loss value + gradient over a band: adds up each row's
    /// [`Loss::value`] (rows ascending) against rows `t_r0..t_r0 + m` of
    /// `target` while writing each row's [`Loss::gradient`] result
    /// into the matching row of `grad_out`. Bit-identical to the per-row
    /// calls — this exists so the batched training hot path pays the
    /// shape checks and the variant dispatch once per band instead of
    /// twice per sample, and so band-mined callers can keep targets in
    /// the full dataset matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a width mismatch, a zero
    /// width, a row range outside `target`, or a `grad_out` shaped
    /// differently from `predicted`.
    pub fn value_gradient_rows(
        &self,
        predicted: &Matrix,
        target: &Matrix,
        t_r0: usize,
        grad_out: &mut Matrix,
    ) -> Result<f64, NnError> {
        let (m, width) = predicted.shape();
        if target.cols() != width || width == 0 || t_r0 + m > target.rows() {
            return Err(NnError::ShapeMismatch {
                expected: target.cols(),
                actual: width,
                what: "prediction width",
            });
        }
        if grad_out.shape() != predicted.shape() {
            return Err(NnError::ShapeMismatch {
                expected: predicted.cols(),
                actual: grad_out.cols(),
                what: "gradient buffer length",
            });
        }
        let n = width as f64;
        let mut total = 0.0;
        for r in 0..m {
            let p = predicted.row(r);
            let t = target.row(t_r0 + r);
            let o = grad_out.row_mut(r);
            let mut row_total = 0.0;
            for j in 0..p.len() {
                let d = p[j] - t[j];
                row_total += self.pointwise(d);
                o[j] = self.pointwise_grad(d) / n;
            }
            total += row_total / n;
        }
        Ok(total)
    }

    /// Sum of per-row [`Loss::value`]s (rows ascending) of `predicted`
    /// against rows `t_r0..t_r0 + predicted.rows()` of `targets` — the
    /// batched form used by strip-mined whole-dataset evaluation, where
    /// the predictions live in a strip-sized scratch matrix but the
    /// targets are the full dataset. Bit-identical to the per-row calls.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a width mismatch, a zero
    /// width, or a row range outside `targets`.
    pub fn value_rows(
        &self,
        predicted: &Matrix,
        targets: &Matrix,
        t_r0: usize,
    ) -> Result<f64, NnError> {
        let (m, width) = predicted.shape();
        if targets.cols() != width || width == 0 || t_r0 + m > targets.rows() {
            return Err(NnError::ShapeMismatch {
                expected: targets.cols(),
                actual: width,
                what: "prediction width",
            });
        }
        let n = width as f64;
        let mut total = 0.0;
        for r in 0..m {
            let p = predicted.row(r);
            let t = targets.row(t_r0 + r);
            let mut row_total = 0.0;
            for j in 0..p.len() {
                row_total += self.pointwise(p[j] - t[j]);
            }
            total += row_total / n;
        }
        Ok(total)
    }

    fn check(&self, predicted: &[f64], target: &[f64]) -> Result<(), NnError> {
        if predicted.len() != target.len() || predicted.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: target.len(),
                actual: predicted.len(),
                what: "prediction width",
            });
        }
        Ok(())
    }

    /// Per-component loss of a residual `r = ŷ − y`.
    fn pointwise(&self, r: f64) -> f64 {
        match *self {
            Loss::MeanSquared => r * r,
            Loss::MeanAbsolute => r.abs(),
            Loss::Huber { delta } => {
                if r.abs() <= delta {
                    0.5 * r * r
                } else {
                    delta * (r.abs() - 0.5 * delta)
                }
            }
        }
    }

    /// Per-component gradient d loss / d r.
    fn pointwise_grad(&self, r: f64) -> f64 {
        match *self {
            Loss::MeanSquared => 2.0 * r,
            Loss::MeanAbsolute => {
                if r > 0.0 {
                    1.0
                } else if r < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Loss::Huber { delta } => {
                if r.abs() <= delta {
                    r
                } else {
                    delta * r.signum()
                }
            }
        }
    }
}

impl Default for Loss {
    /// Mean squared error, the paper's criterion.
    fn default() -> Self {
        Loss::MeanSquared
    }
}

impl fmt::Display for Loss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Loss::MeanSquared => write!(f, "mse"),
            Loss::MeanAbsolute => write!(f, "mae"),
            Loss::Huber { delta } => write!(f, "huber({delta})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(loss: &Loss, predicted: &[f64], target: &[f64], i: usize) -> f64 {
        let h = 1e-6;
        let mut plus = predicted.to_vec();
        let mut minus = predicted.to_vec();
        plus[i] += h;
        minus[i] -= h;
        (loss.value(&plus, target).unwrap() - loss.value(&minus, target).unwrap()) / (2.0 * h)
    }

    #[test]
    fn mse_known_value() {
        let l = Loss::MeanSquared;
        assert_eq!(l.value(&[0.0], &[3.0]).unwrap(), 9.0);
        assert_eq!(l.value(&[1.0, 1.0], &[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn mae_known_value() {
        let l = Loss::MeanAbsolute;
        assert_eq!(l.value(&[0.0, 4.0], &[3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn huber_transitions() {
        let l = Loss::Huber { delta: 1.0 };
        // Inside delta: quadratic.
        assert!((l.value(&[0.5], &[0.0]).unwrap() - 0.125).abs() < 1e-12);
        // Outside delta: linear.
        assert!((l.value(&[3.0], &[0.0]).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn gradients_match_numeric() {
        let losses = [Loss::MeanSquared, Loss::Huber { delta: 0.7 }];
        let predicted = [0.3, -1.2, 2.0];
        let target = [0.0, 0.5, 1.8];
        for l in losses {
            let g = l.gradient(&predicted, &target).unwrap();
            for i in 0..predicted.len() {
                let n = numeric_grad(&l, &predicted, &target, i);
                assert!(
                    (g[i] - n).abs() < 1e-5,
                    "{l} component {i}: {} vs {n}",
                    g[i]
                );
            }
        }
    }

    #[test]
    fn mae_gradient_signs() {
        let l = Loss::MeanAbsolute;
        let g = l.gradient(&[2.0, -2.0, 1.0], &[1.0, 1.0, 1.0]).unwrap();
        assert!(g[0] > 0.0);
        assert!(g[1] < 0.0);
        assert_eq!(g[2], 0.0);
    }

    #[test]
    fn shape_mismatch_detected() {
        let l = Loss::MeanSquared;
        assert!(l.value(&[1.0], &[1.0, 2.0]).is_err());
        assert!(l.gradient(&[], &[]).is_err());
    }

    #[test]
    fn zero_loss_zero_gradient_at_optimum() {
        let l = Loss::MeanSquared;
        let g = l.gradient(&[1.0, 2.0], &[1.0, 2.0]).unwrap();
        assert!(g.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn display_tokens() {
        assert_eq!(Loss::MeanSquared.to_string(), "mse");
        assert_eq!(Loss::Huber { delta: 0.5 }.to_string(), "huber(0.5)");
    }

    #[test]
    fn default_is_mse() {
        assert_eq!(Loss::default(), Loss::MeanSquared);
    }
}
