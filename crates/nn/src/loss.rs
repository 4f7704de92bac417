use std::fmt;

use wlc_math::Matrix;

use crate::NnError;

/// The training loss over one prediction/target pair: mean squared
/// error.
///
/// The paper trains "with a goal to minimize the error between the
/// predicted value and the actual value, i.e. ‖Ŷ − Y‖" (§2.2); least
/// squares is also the maximum-likelihood criterion for an MLP
/// regression under Gaussian noise. It is the only loss; the type
/// remains because the batched entry points ([`crate::BandEngine`],
/// [`crate::Mlp::batch_gradient_with`]) take it as an argument.
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
            .map(|(&p, &t)| {
                let d = p - t;
                d * d
            })
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
            .map(|(&p, &t)| 2.0 * (p - t) / n)
            .collect())
    }

    /// Loss value + gradient over one feature-major band: `predicted`
    /// and `grad_out` are `width x m` (one row per output, one column
    /// per sample), and the band's targets are rows `t_r0..t_r0 + m` of
    /// the row-major `target`. Adds up each sample's [`Loss::value`]
    /// (samples ascending, each sample's squares in output order, then
    /// divided by the width) while writing each sample's
    /// [`Loss::gradient`] into its column of `grad_out`: bit-identical to
    /// the per-sample calls. Eight samples go at once, so the squares
    /// and divisions run along the band as vectors; this is what the
    /// batched training hot path calls, once per band.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a width mismatch, a zero
    /// width, a row range outside `target`, or a `grad_out` shaped
    /// differently from `predicted`.
    pub fn value_gradient_band(
        &self,
        predicted: &Matrix,
        target: &Matrix,
        t_r0: usize,
        grad_out: &mut Matrix,
    ) -> Result<f64, NnError> {
        const CHUNK: usize = 8;
        let (width, m) = predicted.shape();
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
        let targets = &target.as_slice()[t_r0 * width..(t_r0 + m) * width];
        let (p, o) = (predicted.as_slice(), grad_out.as_mut_slice());
        let mut total = 0.0;
        let mut q0 = 0;
        while q0 < m {
            let w = CHUNK.min(m - q0);
            let mut sums = [0.0f64; CHUNK];
            for j in 0..width {
                let at = j * m + q0;
                let (ps, os) = (&p[at..at + w], &mut o[at..at + w]);
                let ts = targets[q0 * width + j..].iter().step_by(width);
                for (((s, &pv), ov), &tv) in sums.iter_mut().zip(ps).zip(os).zip(ts) {
                    let d = pv - tv;
                    *s += d * d;
                    *ov = 2.0 * d / n;
                }
            }
            for &s in &sums[..w] {
                total += s / n;
            }
            q0 += w;
        }
        Ok(total)
    }

    /// Sum of per-row [`Loss::value`]s over rows `r0..r1` (ascending) of
    /// `predicted` against the same rows of `targets` — one band's loss
    /// partial, read off a full prediction matrix by the loss pass
    /// ([`crate::Mlp::batch_loss_with`]). Bit-identical to the per-row
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a width mismatch, a zero
    /// width, or a row range outside either matrix.
    pub fn value_rows(
        &self,
        predicted: &Matrix,
        targets: &Matrix,
        r0: usize,
        r1: usize,
    ) -> Result<f64, NnError> {
        let width = predicted.cols();
        if targets.cols() != width || width == 0 || r1 > predicted.rows().min(targets.rows()) {
            return Err(NnError::ShapeMismatch {
                expected: targets.cols(),
                actual: width,
                what: "prediction width",
            });
        }
        let n = width as f64;
        let mut total = 0.0;
        for r in r0..r1 {
            let p = predicted.row(r);
            let t = targets.row(r);
            let mut row_total = 0.0;
            for j in 0..p.len() {
                let d = p[j] - t[j];
                row_total += d * d;
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
    #[allow(clippy::needless_range_loop)]
    fn gradients_match_numeric() {
        let l = Loss::MeanSquared;
        let predicted = [0.3, -1.2, 2.0];
        let target = [0.0, 0.5, 1.8];
        let g = l.gradient(&predicted, &target).unwrap();
        for i in 0..predicted.len() {
            let n = numeric_grad(&l, &predicted, &target, i);
            assert!((g[i] - n).abs() < 1e-5, "component {i}: {} vs {n}", g[i]);
        }
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
    }

    #[test]
    fn default_is_mse() {
        assert_eq!(Loss::default(), Loss::MeanSquared);
    }
}
