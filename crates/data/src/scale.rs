use wlc_math::Matrix;

use crate::DataError;

/// A fitted, invertible per-column feature scaler.
///
/// The paper's §3.1 mandates **standardization** — "subtracting the mean
/// and then dividing it by the standard deviation of a feature" — for
/// every configuration parameter, because the back-propagation method is
/// gradient-based and unscaled features push the random initial
/// hyperplanes away from the sample cloud, stranding training in local
/// minima. [`Scaler::standard_fit`] implements exactly that;
/// [`Scaler::min_max_fit`] and [`Scaler::identity`] exist for ablations.
///
/// # Examples
///
/// ```
/// use wlc_data::Scaler;
/// use wlc_math::Matrix;
///
/// let xs = Matrix::from_rows(&[&[10.0], &[20.0], &[30.0]]).unwrap();
/// let scaler = Scaler::standard_fit(&xs)?;
/// let t = scaler.transform(&xs)?;
/// // mean 0 ...
/// assert!((t.col_to_vec(0).iter().sum::<f64>()).abs() < 1e-12);
/// // ... and invertible.
/// let back = scaler.inverse_transform(&t)?;
/// assert!((back.get(2, 0) - 30.0).abs() < 1e-9);
/// # Ok::<(), wlc_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Scaler {
    /// Z-score standardization: `(x − mean) / std` per column.
    Standard {
        /// Per-column means.
        means: Vec<f64>,
        /// Per-column standard deviations (1.0 substituted for constant
        /// columns so the transform stays invertible).
        stds: Vec<f64>,
    },
    /// Min-max scaling to `[0, 1]` per column.
    MinMax {
        /// Per-column minima.
        mins: Vec<f64>,
        /// Per-column ranges (1.0 substituted for constant columns).
        ranges: Vec<f64>,
    },
    /// No-op scaler (for ablation baselines).
    Identity {
        /// Number of columns accepted.
        cols: usize,
    },
}

impl Scaler {
    /// Fits a standardization scaler to the columns of `data`.
    ///
    /// Constant columns get a standard deviation of 1.0 (so they transform
    /// to zero and invert exactly).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] if `data` has no rows or no columns.
    pub fn standard_fit(data: &Matrix) -> Result<Self, DataError> {
        check_nonempty(data)?;
        let n = data.rows() as f64;
        let mut means = Vec::with_capacity(data.cols());
        let mut stds = Vec::with_capacity(data.cols());
        for c in 0..data.cols() {
            let col = data.col_to_vec(c);
            let mean = col.iter().sum::<f64>() / n;
            let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let std = var.sqrt();
            means.push(mean);
            stds.push(if std > 0.0 { std } else { 1.0 });
        }
        Ok(Scaler::Standard { means, stds })
    }

    /// Fits a min-max scaler to the columns of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] if `data` has no rows or no columns.
    pub fn min_max_fit(data: &Matrix) -> Result<Self, DataError> {
        check_nonempty(data)?;
        let mut mins = Vec::with_capacity(data.cols());
        let mut ranges = Vec::with_capacity(data.cols());
        for c in 0..data.cols() {
            let col = data.col_to_vec(c);
            let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let range = hi - lo;
            mins.push(lo);
            ranges.push(if range > 0.0 { range } else { 1.0 });
        }
        Ok(Scaler::MinMax { mins, ranges })
    }

    /// Creates a no-op scaler for `cols` columns.
    pub fn identity(cols: usize) -> Self {
        Scaler::Identity { cols }
    }

    /// Number of columns this scaler accepts.
    pub fn cols(&self) -> usize {
        match self {
            Scaler::Standard { means, .. } => means.len(),
            Scaler::MinMax { mins, .. } => mins.len(),
            Scaler::Identity { cols } => *cols,
        }
    }

    /// Transforms one row in place.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::WidthMismatch`] if `row.len() != self.cols()`.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<(), DataError> {
        self.check_width(row.len())?;
        match self {
            Scaler::Standard { means, stds } => {
                for ((v, m), s) in row.iter_mut().zip(means).zip(stds) {
                    *v = (*v - m) / s;
                }
            }
            Scaler::MinMax { mins, ranges } => {
                for ((v, lo), r) in row.iter_mut().zip(mins).zip(ranges) {
                    *v = (*v - lo) / r;
                }
            }
            Scaler::Identity { .. } => {}
        }
        Ok(())
    }

    /// Inverse-transforms one row in place.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::WidthMismatch`] if `row.len() != self.cols()`.
    pub fn inverse_row(&self, row: &mut [f64]) -> Result<(), DataError> {
        self.check_width(row.len())?;
        match self {
            Scaler::Standard { means, stds } => {
                for ((v, m), s) in row.iter_mut().zip(means).zip(stds) {
                    *v = *v * s + m;
                }
            }
            Scaler::MinMax { mins, ranges } => {
                for ((v, lo), r) in row.iter_mut().zip(mins).zip(ranges) {
                    *v = *v * r + lo;
                }
            }
            Scaler::Identity { .. } => {}
        }
        Ok(())
    }

    /// Returns a transformed copy of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::WidthMismatch`] if `data.cols() != self.cols()`.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix, DataError> {
        let mut out = data.clone();
        for r in 0..out.rows() {
            self.transform_row(out.row_mut(r))?;
        }
        Ok(out)
    }

    /// Returns an inverse-transformed copy of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::WidthMismatch`] if `data.cols() != self.cols()`.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/data/tests/proptests.rs::standard_scaler_roundtrips checks the scaler round trip through it")
    pub fn inverse_transform(&self, data: &Matrix) -> Result<Matrix, DataError> {
        let mut out = data.clone();
        for r in 0..out.rows() {
            self.inverse_row(out.row_mut(r))?;
        }
        Ok(out)
    }

    /// Validates a scaler before it is allowed near live predictions —
    /// run by a server's model-reload path: every parameter must be
    /// finite and every divisor (standard deviation / range) non-zero,
    /// so a transform of finite input can never manufacture NaN through
    /// the scaler itself.
    ///
    /// Fitted scalers always satisfy this; scalers *parsed from a file*
    /// ([`Scaler::from_text`]) may not.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Validation`] (line 0) naming the offending
    /// column.
    pub fn validate(&self) -> Result<(), DataError> {
        let bad = |reason: String| DataError::Validation { line: 0, reason };
        let check = |values: &[f64], name: &str, divisor: bool| -> Result<(), DataError> {
            for (col, &v) in values.iter().enumerate() {
                if !v.is_finite() {
                    return Err(bad(format!("scaler {name} for column {col} is not finite")));
                }
                if divisor && v == 0.0 {
                    return Err(bad(format!("scaler {name} for column {col} is zero")));
                }
            }
            Ok(())
        };
        match self {
            Scaler::Standard { means, stds } => {
                check(means, "mean", false)?;
                check(stds, "standard deviation", true)
            }
            Scaler::MinMax { mins, ranges } => {
                check(mins, "minimum", false)?;
                check(ranges, "range", true)
            }
            Scaler::Identity { .. } => Ok(()),
        }
    }

    fn check_width(&self, width: usize) -> Result<(), DataError> {
        if width != self.cols() {
            return Err(DataError::WidthMismatch {
                expected: self.cols(),
                actual: width,
                what: "scaler columns",
            });
        }
        Ok(())
    }

    /// Serializes the scaler to a single text line (used by model
    /// save/load).
    pub fn to_text(&self) -> String {
        fn join(v: &[f64]) -> String {
            v.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
        match self {
            Scaler::Standard { means, stds } => {
                format!("standard {} | {}", join(means), join(stds))
            }
            Scaler::MinMax { mins, ranges } => {
                format!("minmax {} | {}", join(mins), join(ranges))
            }
            Scaler::Identity { cols } => format!("identity {cols}"),
        }
    }

    /// Parses the format produced by [`Scaler::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Csv`] (with line 0) on malformed input.
    pub fn from_text(text: &str) -> Result<Self, DataError> {
        let bad = |reason: &str| DataError::Csv {
            line: 0,
            reason: reason.to_string(),
        };
        let text = text.trim();
        if let Some(rest) = text.strip_prefix("identity ") {
            let cols = rest.trim().parse().map_err(|_| bad("bad column count"))?;
            return Ok(Scaler::Identity { cols });
        }
        let (kind, rest) = text.split_once(' ').ok_or_else(|| bad("missing payload"))?;
        let (a, b) = rest.split_once('|').ok_or_else(|| bad("missing `|`"))?;
        let parse_vec = |s: &str| -> Result<Vec<f64>, DataError> {
            s.split_whitespace()
                .map(|t| t.parse::<f64>().map_err(|_| bad("bad float")))
                .collect()
        };
        let first = parse_vec(a)?;
        let second = parse_vec(b)?;
        if first.len() != second.len() || first.is_empty() {
            return Err(bad("vector lengths differ or empty"));
        }
        match kind {
            "standard" => Ok(Scaler::Standard {
                means: first,
                stds: second,
            }),
            "minmax" => Ok(Scaler::MinMax {
                mins: first,
                ranges: second,
            }),
            _ => Err(bad("unknown scaler kind")),
        }
    }
}

fn check_nonempty(data: &Matrix) -> Result<(), DataError> {
    if data.rows() == 0 || data.cols() == 0 {
        return Err(DataError::Empty);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 100.0], &[2.0, 200.0], &[3.0, 300.0], &[4.0, 400.0]]).unwrap()
    }

    #[test]
    fn standard_gives_zero_mean_unit_std() {
        let data = sample();
        let scaler = Scaler::standard_fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        for c in 0..2 {
            let col = t.col_to_vec(c);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-12, "col {c} var {var}");
        }
    }

    #[test]
    fn standard_inverse_roundtrip() {
        let data = sample();
        let scaler = Scaler::standard_fit(&data).unwrap();
        let back = scaler
            .inverse_transform(&scaler.transform(&data).unwrap())
            .unwrap();
        for r in 0..data.rows() {
            for c in 0..data.cols() {
                assert!((back.get(r, c) - data.get(r, c)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn standard_handles_constant_column() {
        let data = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0]]).unwrap();
        let scaler = Scaler::standard_fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 0), 0.0);
        let back = scaler.inverse_transform(&t).unwrap();
        assert_eq!(back.get(0, 0), 5.0);
    }

    #[test]
    fn min_max_maps_to_unit_interval() {
        let data = sample();
        let scaler = Scaler::min_max_fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        for c in 0..2 {
            let col = t.col_to_vec(c);
            assert_eq!(col.iter().copied().fold(f64::INFINITY, f64::min), 0.0);
            assert_eq!(col.iter().copied().fold(f64::NEG_INFINITY, f64::max), 1.0);
        }
    }

    #[test]
    fn min_max_inverse_roundtrip() {
        let data = sample();
        let scaler = Scaler::min_max_fit(&data).unwrap();
        let back = scaler
            .inverse_transform(&scaler.transform(&data).unwrap())
            .unwrap();
        assert!((back.get(3, 1) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn identity_is_noop() {
        let data = sample();
        let scaler = Scaler::identity(2);
        assert_eq!(scaler.transform(&data).unwrap(), data);
        assert_eq!(scaler.inverse_transform(&data).unwrap(), data);
    }

    #[test]
    fn width_checked() {
        let scaler = Scaler::standard_fit(&sample()).unwrap();
        let wrong = Matrix::zeros(1, 3);
        assert!(scaler.transform(&wrong).is_err());
        let mut row = [0.0; 3];
        assert!(scaler.transform_row(&mut row).is_err());
        assert!(scaler.inverse_row(&mut row).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Scaler::standard_fit(&Matrix::zeros(0, 2)).is_err());
        assert!(Scaler::min_max_fit(&Matrix::zeros(2, 0)).is_err());
    }

    #[test]
    fn cols_reported() {
        assert_eq!(Scaler::standard_fit(&sample()).unwrap().cols(), 2);
        assert_eq!(Scaler::identity(7).cols(), 7);
    }

    #[test]
    fn text_roundtrip_all_variants() {
        let scalers = [
            Scaler::standard_fit(&sample()).unwrap(),
            Scaler::min_max_fit(&sample()).unwrap(),
            Scaler::identity(3),
        ];
        for s in scalers {
            let text = s.to_text();
            let back = Scaler::from_text(&text).unwrap();
            assert_eq!(back, s, "roundtrip of `{text}`");
        }
    }

    #[test]
    fn text_rejects_malformed() {
        assert!(Scaler::from_text("standard 1.0 2.0").is_err()); // missing |
        assert!(Scaler::from_text("mystery 1 | 2").is_err());
        assert!(Scaler::from_text("standard 1.0 | 1.0 2.0").is_err()); // lengths
        assert!(Scaler::from_text("identity abc").is_err());
        assert!(Scaler::from_text("standard x | y").is_err());
    }

    #[test]
    fn validate_accepts_fitted_rejects_degenerate() {
        assert!(Scaler::standard_fit(&sample()).unwrap().validate().is_ok());
        assert!(Scaler::min_max_fit(&sample()).unwrap().validate().is_ok());
        assert!(Scaler::identity(4).validate().is_ok());
        // A zero std (only reachable via from_text) would divide to inf.
        let zero_std = Scaler::from_text("standard 1.0 | 0.0").unwrap();
        let err = zero_std.validate().unwrap_err();
        assert!(err.to_string().contains("zero"), "{err}");
        // Non-finite parameters are rejected too.
        let inf_mean = Scaler::from_text("standard inf | 1.0").unwrap();
        assert!(inf_mean.validate().is_err());
        let nan_range = Scaler::from_text("minmax 0.0 | NaN").unwrap();
        assert!(nan_range.validate().is_err());
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let data = sample();
        let scaler = Scaler::standard_fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        let mut row = data.row(2).to_vec();
        scaler.transform_row(&mut row).unwrap();
        assert_eq!(row.as_slice(), t.row(2));
    }
}
