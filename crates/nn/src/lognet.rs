use wlc_math::elementary::{slog, slog_inv};
use wlc_math::Matrix;

use crate::{Mlp, NnError, TrainReport, Trainer};

/// A logarithmic network for unbounded non-linear approximation.
///
/// Plain MLPs "cannot be used for extrapolation — the prediction accuracy
/// of MLPs drops rapidly outside the range of training data" (paper §5.3,
/// citing Hines '96, ref \[23\]). This variant wraps an [`Mlp`] between a
/// signed-logarithmic input transform and (optionally) a matching output
/// transform, so that power-law and multiplicative relationships become
/// near-linear in the transformed space and extrapolate far more
/// gracefully.
///
/// The transforms are
///
/// - input:  `u = sign(x) · ln(1 + |x|)`
/// - output: `y = sign(v) · (exp(|v|) − 1)` (inverse of the input
///   transform), applied when `log_outputs` is enabled.
///
/// # Examples
///
/// ```
/// use wlc_math::Matrix;
/// use wlc_nn::{Activation, LogarithmicNetwork, MlpBuilder, TrainConfig, Trainer};
///
/// let mlp = MlpBuilder::new(1)
///     .hidden(6, Activation::tanh())
///     .output(1, Activation::identity())
///     .seed(1)
///     .build()?;
/// let mut net = LogarithmicNetwork::new(mlp, true);
///
/// // y = x^2 on a small range...
/// let xs = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0], &[8.0]]).unwrap();
/// let ys = Matrix::from_rows(&[&[1.0], &[4.0], &[16.0], &[64.0]]).unwrap();
/// let trainer = Trainer::new(TrainConfig::new().max_epochs(200).learning_rate(0.1));
/// net.fit(&trainer, &xs, &ys)?;
/// let pred = net.predict(&[4.0])?;
/// assert!(pred[0] > 0.0);
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogarithmicNetwork {
    mlp: Mlp,
    log_outputs: bool,
}

impl LogarithmicNetwork {
    /// Wraps an MLP. When `log_outputs` is true, targets are fitted in
    /// log-space and predictions are transformed back.
    pub fn new(mlp: Mlp, log_outputs: bool) -> Self {
        LogarithmicNetwork { mlp, log_outputs }
    }

    /// The wrapped MLP.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Whether outputs are fitted in log-space.
    pub fn log_outputs(&self) -> bool {
        self.log_outputs
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.mlp.inputs()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.mlp.outputs()
    }

    /// Applies the input transform to every element of a matrix.
    fn transform_inputs(xs: &Matrix) -> Matrix {
        xs.map(slog)
    }

    /// Trains the wrapped MLP on log-transformed data.
    ///
    /// # Errors
    ///
    /// As for [`Trainer::fit`].
    pub fn fit(
        &mut self,
        trainer: &Trainer,
        xs: &Matrix,
        ys: &Matrix,
    ) -> Result<TrainReport, NnError> {
        let tx = Self::transform_inputs(xs);
        let ty = if self.log_outputs {
            ys.map(slog)
        } else {
            ys.clone()
        };
        trainer.fit(&mut self.mlp, &tx, &ty)
    }

    /// Predicts for a single raw (untransformed) input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.len() != self.inputs()`.
    pub fn predict(&self, x: &[f64]) -> Result<Vec<f64>, NnError> {
        let tx: Vec<f64> = x.iter().map(|&v| slog(v)).collect();
        let mut out = self.mlp.forward(tx)?;
        if self.log_outputs {
            for v in &mut out {
                *v = slog_inv(*v);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpBuilder, OptimizerKind, TrainConfig};

    #[test]
    fn slog_roundtrip() {
        for &x in &[-100.0, -1.0, -0.1, 0.0, 0.1, 1.0, 100.0, 1e6] {
            assert!((slog_inv(slog(x)) - x).abs() < 1e-6 * x.abs().max(1.0));
        }
    }

    #[test]
    fn slog_is_monotone_and_odd() {
        assert!(slog(2.0) > slog(1.0));
        assert!((slog(-3.0) + slog(3.0)).abs() < 1e-12);
        assert_eq!(slog(0.0), 0.0);
    }

    fn power_law_data() -> (Matrix, Matrix) {
        // y = 2 · x^1.5 sampled on x in [1, 16].
        let xs_vals: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let rows: Vec<Vec<f64>> = xs_vals.iter().map(|&x| vec![x]).collect();
        let ys: Vec<Vec<f64>> = xs_vals.iter().map(|&x| vec![2.0 * x.powf(1.5)]).collect();
        let xr: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let yr: Vec<&[f64]> = ys.iter().map(|r| r.as_slice()).collect();
        (
            Matrix::from_rows(&xr).unwrap(),
            Matrix::from_rows(&yr).unwrap(),
        )
    }

    fn trained_lognet() -> LogarithmicNetwork {
        let (xs, ys) = power_law_data();
        let mlp = MlpBuilder::new(1)
            .hidden(8, Activation::tanh())
            .output(1, Activation::identity())
            .seed(3)
            .build()
            .unwrap();
        let mut net = LogarithmicNetwork::new(mlp, true);
        let trainer = Trainer::new(
            TrainConfig::new()
                .max_epochs(4000)
                .learning_rate(0.02)
                .optimizer(OptimizerKind::adam()),
        );
        net.fit(&trainer, &xs, &ys).unwrap();
        net
    }

    #[test]
    fn fits_power_law_in_range() {
        let net = trained_lognet();
        for &x in &[2.0, 5.0, 10.0, 15.0] {
            let pred = net.predict(&[x]).unwrap()[0];
            let actual = 2.0 * x.powf(1.5);
            let rel = (pred - actual).abs() / actual;
            assert!(rel < 0.15, "x={x}: pred {pred} vs {actual}");
        }
    }

    #[test]
    fn extrapolates_power_law_reasonably() {
        // 4x beyond the training range — a plain MLP on raw values would
        // saturate; the log-net should stay within a factor ~2.
        let net = trained_lognet();
        let x = 64.0;
        let pred = net.predict(&[x]).unwrap()[0];
        let actual = 2.0 * x.powf(1.5);
        assert!(
            pred > actual * 0.4 && pred < actual * 2.5,
            "pred {pred} vs actual {actual}"
        );
    }

    #[test]
    fn raw_output_mode_skips_inverse() {
        let mlp = MlpBuilder::new(1)
            .output(1, Activation::identity())
            .seed(1)
            .build()
            .unwrap();
        let raw = LogarithmicNetwork::new(mlp.clone(), false);
        let logged = LogarithmicNetwork::new(mlp, true);
        let raw_pred = raw.predict(&[5.0]).unwrap()[0];
        let logged_pred = logged.predict(&[5.0]).unwrap()[0];
        assert!((slog_inv(raw_pred) - logged_pred).abs() < 1e-12);
    }

    #[test]
    fn shape_checked() {
        let mlp = MlpBuilder::new(2)
            .output(1, Activation::identity())
            .seed(1)
            .build()
            .unwrap();
        let net = LogarithmicNetwork::new(mlp, true);
        assert!(net.predict(&[1.0]).is_err());
        assert_eq!(net.inputs(), 2);
        assert_eq!(net.outputs(), 1);
        assert!(net.log_outputs());
    }
}
