//! Prediction-error metrics.
//!
//! The paper's validation metric (§3.3) is the **harmonic mean of
//! (absolute error) / (actual value)** over the validation samples —
//! implemented here as [`harmonic_mean_relative_error`] — reported per
//! performance indicator (Table 2). The arithmetic-mean variant
//! ([`mape`]) and the usual RMSE/MAE are provided for comparison.

use wlc_math::stats;
use wlc_math::Matrix;

use crate::DataError;

/// Per-sample relative errors `|predicted − actual| / |actual|`.
///
/// Samples whose actual value is zero are skipped (their relative error is
/// undefined); if every sample is skipped the result is empty.
///
/// # Errors
///
/// Returns [`DataError::LengthMismatch`] for unequal lengths.
pub fn relative_errors(actual: &[f64], predicted: &[f64]) -> Result<Vec<f64>, DataError> {
    check_lengths(actual, predicted, "relative_errors")?;
    Ok(actual
        .iter()
        .zip(predicted.iter())
        .filter(|(&a, _)| a != 0.0)
        .map(|(&a, &p)| (p - a).abs() / a.abs())
        .collect())
}

/// The paper's error metric: harmonic mean of per-sample relative errors.
///
/// Exact-hit samples (zero relative error) have no harmonic-mean
/// contribution — their reciprocal is infinite — so they are skipped,
/// exactly like samples whose actual value is zero. (An earlier revision
/// floored them at `1e-12` instead, which is worse than degenerate: one
/// exact hit contributed a `1e12` reciprocal and collapsed the whole
/// metric to ~0, making any model with a single memorized sample look
/// perfect.) If *every* usable sample is an exact hit the error is
/// genuinely zero and `Ok(0.0)` is returned.
///
/// # Errors
///
/// - [`DataError::LengthMismatch`] for unequal lengths.
/// - [`DataError::Empty`] if no sample has a non-zero actual value.
///
/// # Examples
///
/// ```
/// use wlc_data::metrics::harmonic_mean_relative_error;
///
/// let actual = [10.0, 10.0];
/// let predicted = [11.0, 12.0]; // 10% and 20% error
/// let hm = harmonic_mean_relative_error(&actual, &predicted)?;
/// assert!((hm - 2.0 / (10.0 + 5.0)).abs() < 1e-12); // 2/(1/0.1 + 1/0.2)
/// # Ok::<(), wlc_data::DataError>(())
/// ```
pub fn harmonic_mean_relative_error(actual: &[f64], predicted: &[f64]) -> Result<f64, DataError> {
    let all = relative_errors(actual, predicted)?;
    if all.is_empty() {
        return Err(DataError::Empty);
    }
    let errors: Vec<f64> = all.into_iter().filter(|&e| e > 0.0).collect();
    if errors.is_empty() {
        return Ok(0.0);
    }
    Ok(stats::harmonic_mean(&errors)?)
}

/// Mean absolute percentage error (arithmetic mean of relative errors).
///
/// # Errors
///
/// - [`DataError::LengthMismatch`] for unequal lengths.
/// - [`DataError::Empty`] if no sample has a non-zero actual value.
pub fn mape(actual: &[f64], predicted: &[f64]) -> Result<f64, DataError> {
    let errors = relative_errors(actual, predicted)?;
    if errors.is_empty() {
        return Err(DataError::Empty);
    }
    Ok(stats::mean(&errors)?)
}

/// Root mean squared error.
///
/// # Errors
///
/// - [`DataError::LengthMismatch`] for unequal lengths.
/// - [`DataError::Empty`] for empty inputs.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> Result<f64, DataError> {
    check_lengths(actual, predicted, "rmse")?;
    if actual.is_empty() {
        return Err(DataError::Empty);
    }
    let mse = actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (p - a).powi(2))
        .sum::<f64>()
        / actual.len() as f64;
    Ok(mse.sqrt())
}

/// Largest absolute error.
///
/// # Errors
///
/// - [`DataError::LengthMismatch`] for unequal lengths.
/// - [`DataError::Empty`] for empty inputs.
pub fn max_abs_error(actual: &[f64], predicted: &[f64]) -> Result<f64, DataError> {
    check_lengths(actual, predicted, "max_abs_error")?;
    if actual.is_empty() {
        return Err(DataError::Empty);
    }
    Ok(actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (p - a).abs())
        .fold(0.0, f64::max))
}

/// Coefficient of determination R².
///
/// # Errors
///
/// - [`DataError::LengthMismatch`] for unequal lengths.
/// - [`DataError::Empty`] for empty inputs.
pub fn r_squared(actual: &[f64], predicted: &[f64]) -> Result<f64, DataError> {
    check_lengths(actual, predicted, "r_squared")?;
    if actual.is_empty() {
        return Err(DataError::Empty);
    }
    Ok(stats::r_squared(actual, predicted)?)
}

fn check_lengths(a: &[f64], b: &[f64], op: &'static str) -> Result<(), DataError> {
    if a.len() != b.len() {
        return Err(DataError::LengthMismatch {
            left: a.len(),
            right: b.len(),
            op,
        });
    }
    Ok(())
}

/// Per-output-column error summary for a batch of predictions — the shape
/// of the paper's Table 2 rows.
///
/// # Examples
///
/// ```
/// use wlc_data::metrics::ErrorReport;
/// use wlc_math::Matrix;
///
/// let actual = Matrix::from_rows(&[&[10.0, 1.0], &[20.0, 2.0]]).unwrap();
/// let predicted = Matrix::from_rows(&[&[11.0, 1.0], &[22.0, 2.0]]).unwrap();
/// let report = ErrorReport::compare(
///     &["resp".into(), "tput".into()],
///     &actual,
///     &predicted,
/// )?;
/// assert_eq!(report.outputs().len(), 2);
/// assert!((report.outputs()[0].harmonic_mean_error - 0.1).abs() < 1e-9);
/// # Ok::<(), wlc_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReport {
    outputs: Vec<OutputError>,
}

/// Error summary for one output column.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct OutputError {
    /// The output column's name.
    pub name: String,
    /// Harmonic mean of relative errors (the paper's metric).
    pub harmonic_mean_error: f64,
    /// Arithmetic mean of relative errors (MAPE).
    pub mape: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Largest absolute error.
    pub max_abs_error: f64,
}

impl ErrorReport {
    /// Compares two matrices column by column.
    ///
    /// # Errors
    ///
    /// - [`DataError::LengthMismatch`] if shapes differ or `names.len()`
    ///   does not match the column count.
    /// - [`DataError::Empty`] for zero-row input or all-zero actual
    ///   columns.
    pub fn compare(
        names: &[String],
        actual: &Matrix,
        predicted: &Matrix,
    ) -> Result<Self, DataError> {
        if actual.shape() != predicted.shape() {
            return Err(DataError::LengthMismatch {
                left: actual.rows(),
                right: predicted.rows(),
                op: "ErrorReport::compare",
            });
        }
        if names.len() != actual.cols() {
            return Err(DataError::LengthMismatch {
                left: names.len(),
                right: actual.cols(),
                op: "ErrorReport::compare names",
            });
        }
        let mut outputs = Vec::with_capacity(names.len());
        for (c, name) in names.iter().enumerate() {
            let a = actual.col_to_vec(c);
            let p = predicted.col_to_vec(c);
            outputs.push(OutputError {
                name: name.clone(),
                harmonic_mean_error: harmonic_mean_relative_error(&a, &p)?,
                mape: mape(&a, &p)?,
                rmse: rmse(&a, &p)?,
                max_abs_error: max_abs_error(&a, &p)?,
            });
        }
        Ok(ErrorReport { outputs })
    }

    /// Per-output error summaries, in column order.
    pub fn outputs(&self) -> &[OutputError] {
        &self.outputs
    }

    /// Mean of the per-output harmonic-mean errors — the paper's "average
    /// prediction error" bottom line.
    pub fn overall_error(&self) -> f64 {
        if self.outputs.is_empty() {
            return 0.0;
        }
        self.outputs
            .iter()
            .map(|o| o.harmonic_mean_error)
            .sum::<f64>()
            / self.outputs.len() as f64
    }

    /// `1 − overall_error`, the paper's "average prediction accuracy".
    pub fn overall_accuracy(&self) -> f64 {
        1.0 - self.overall_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_errors_basic() {
        let e = relative_errors(&[10.0, 20.0], &[11.0, 18.0]).unwrap();
        assert!((e[0] - 0.1).abs() < 1e-12);
        assert!((e[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_errors_skip_zero_actuals() {
        let e = relative_errors(&[0.0, 10.0], &[5.0, 11.0]).unwrap();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn harmonic_vs_arithmetic_mean() {
        // Harmonic mean is dominated by the small errors.
        let actual = [100.0, 100.0];
        let predicted = [101.0, 150.0]; // 1% and 50%
        let hm = harmonic_mean_relative_error(&actual, &predicted).unwrap();
        let am = mape(&actual, &predicted).unwrap();
        assert!(hm < am);
        assert!((am - 0.255).abs() < 1e-12);
        let expected_hm = 2.0 / (1.0 / 0.01 + 1.0 / 0.5);
        assert!((hm - expected_hm).abs() < 1e-12);
    }

    #[test]
    fn harmonic_handles_exact_hits() {
        // An exact prediction is skipped: the remaining 20% error IS the
        // metric, not something diluted toward zero.
        let hm = harmonic_mean_relative_error(&[10.0, 10.0], &[10.0, 12.0]).unwrap();
        assert!((hm - 0.2).abs() < 1e-12);
    }

    #[test]
    fn harmonic_exact_hit_does_not_collapse_metric() {
        // Regression: the old 1e-12 floor made one exact hit contribute a
        // 1e12 reciprocal, dragging the metric to ~0 no matter how bad
        // the other predictions were.
        let actual = [10.0, 10.0, 10.0];
        let predicted = [10.0, 11.0, 12.0]; // exact, 10%, 20%
        let hm = harmonic_mean_relative_error(&actual, &predicted).unwrap();
        let expected = 2.0 / (1.0 / 0.1 + 1.0 / 0.2);
        assert!((hm - expected).abs() < 1e-12, "hm = {hm}");
        assert!(hm > 0.1, "metric collapsed: {hm}");
    }

    #[test]
    fn harmonic_all_exact_hits_is_zero() {
        let hm = harmonic_mean_relative_error(&[10.0, 20.0], &[10.0, 20.0]).unwrap();
        assert_eq!(hm, 0.0);
        // But no usable sample at all is still an error.
        assert!(harmonic_mean_relative_error(&[0.0], &[0.0]).is_err());
    }

    #[test]
    fn rmse_and_mae_known() {
        let a = [0.0, 0.0];
        let p = [3.0, 4.0];
        assert!((rmse(&a, &p).unwrap() - (12.5_f64).sqrt()).abs() < 1e-12);
        assert_eq!(max_abs_error(&a, &p).unwrap(), 4.0);
    }

    #[test]
    fn r_squared_wired_through() {
        let a = [1.0, 2.0, 3.0];
        assert!((r_squared(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_metrics() {
        let a = [5.0, 6.0];
        assert_eq!(rmse(&a, &a).unwrap(), 0.0);
        assert_eq!(max_abs_error(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(relative_errors(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mape(&[0.0], &[1.0]).is_err()); // all actuals zero
        assert!(rmse(&[], &[]).is_err());
        assert!(max_abs_error(&[], &[]).is_err());
        assert!(harmonic_mean_relative_error(&[0.0], &[1.0]).is_err());
    }

    #[test]
    fn error_report_per_column() {
        let actual = Matrix::from_rows(&[&[10.0, 100.0], &[20.0, 100.0]]).unwrap();
        let predicted = Matrix::from_rows(&[&[12.0, 101.0], &[24.0, 99.0]]).unwrap();
        let report =
            ErrorReport::compare(&["rt".into(), "tput".into()], &actual, &predicted).unwrap();
        assert_eq!(report.outputs().len(), 2);
        // First column: 20% everywhere.
        assert!((report.outputs()[0].harmonic_mean_error - 0.2).abs() < 1e-9);
        // Second column: 1% everywhere.
        assert!((report.outputs()[1].harmonic_mean_error - 0.01).abs() < 1e-9);
        // Overall = mean(0.2, 0.01).
        assert!((report.overall_error() - 0.105).abs() < 1e-9);
        assert!((report.overall_accuracy() - 0.895).abs() < 1e-9);
    }

    #[test]
    fn error_report_validates_shapes() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(ErrorReport::compare(&["a".into(), "b".into()], &a, &b).is_err());
        let sq = Matrix::from_fn(2, 2, |_, _| 1.0);
        assert!(ErrorReport::compare(&["only_one".into()], &sq, &sq).is_err());
    }
}
