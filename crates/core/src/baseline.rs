//! Baseline performance models the paper compares against (or proposes as
//! future work):
//!
//! - [`LinearModel`] — the prior-work approach (Chow et al., §1/§6): a
//!   fixed-order linear model fitted by least squares, optionally with
//!   interaction and quadratic terms as in Design-of-Experiments
//!   methodology.
//! - [`PolynomialModel`] — full polynomial expansion up to a total
//!   degree, the "other non-linear functions such as polynomial" of §7.
//! - [`LogarithmicModel`] — least squares in signed-log space, the
//!   "logarithmic functions" of §7.
//!
//! All implement [`PerformanceModel`], so every surface/classification/
//! tuning tool works with them interchangeably.

use wlc_data::metrics::ErrorReport;
use wlc_data::{Dataset, Scaler};
use wlc_math::elementary::{slog, slog_inv};
use wlc_math::float_text::{parse_f64, push_f64s};
use wlc_math::linalg;
use wlc_math::Matrix;
use wlc_nn::RbfNetwork;

use crate::{ModelError, PerformanceModel};

/// Which terms a [`LinearModel`] includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinearFeatures {
    /// Intercept + first-order terms only.
    FirstOrder,
    /// Adds pairwise interaction terms `x_i·x_j` (i < j).
    Interactions,
    /// Adds interactions and squared terms `x_i²`.
    Quadratic,
}

impl LinearFeatures {
    /// Stable text name used by the serialization format.
    fn name(self) -> &'static str {
        match self {
            LinearFeatures::FirstOrder => "first-order",
            LinearFeatures::Interactions => "interactions",
            LinearFeatures::Quadratic => "quadratic",
        }
    }

    /// Expands a raw input row into the feature vector (with leading 1).
    fn expand(self, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let mut out = Vec::with_capacity(self.feature_count(n));
        out.push(1.0);
        out.extend_from_slice(x);
        if matches!(
            self,
            LinearFeatures::Interactions | LinearFeatures::Quadratic
        ) {
            for i in 0..n {
                for j in (i + 1)..n {
                    out.push(x[i] * x[j]);
                }
            }
        }
        if matches!(self, LinearFeatures::Quadratic) {
            for &v in x {
                out.push(v * v);
            }
        }
        out
    }

    /// Number of expanded features for `n` raw inputs.
    fn feature_count(self, n: usize) -> usize {
        match self {
            LinearFeatures::FirstOrder => 1 + n,
            LinearFeatures::Interactions => 1 + n + n * (n - 1) / 2,
            LinearFeatures::Quadratic => 1 + n + n * (n - 1) / 2 + n,
        }
    }
}

/// A multi-output linear regression model (the prior-work baseline).
///
/// # Examples
///
/// ```
/// use wlc_data::{Dataset, Sample};
/// use wlc_model::baseline::{LinearFeatures, LinearModel};
/// use wlc_model::PerformanceModel;
///
/// let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
/// for i in 0..5 {
///     let x = i as f64;
///     ds.push(Sample::new(vec![x], vec![2.0 * x + 1.0])).unwrap();
/// }
/// let model = LinearModel::fit(&ds, LinearFeatures::FirstOrder)?;
/// let y = model.predict(&[10.0])?;
/// assert!((y[0] - 21.0).abs() < 1e-6);
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    features: LinearFeatures,
    inputs: usize,
    /// One coefficient column per output; rows = expanded features.
    coefficients: Matrix,
    ridge: f64,
}

impl LinearModel {
    /// Fits by ordinary least squares.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] for an empty dataset.
    /// - [`ModelError::Math`] if the normal equations cannot be solved.
    pub fn fit(dataset: &Dataset, features: LinearFeatures) -> Result<Self, ModelError> {
        Self::fit_ridge(dataset, features, 0.0)
    }

    /// Fits with ridge regularization `lambda >= 0`.
    ///
    /// # Errors
    ///
    /// As for [`LinearModel::fit`], plus invalid `lambda`.
    pub fn fit_ridge(
        dataset: &Dataset,
        features: LinearFeatures,
        lambda: f64,
    ) -> Result<Self, ModelError> {
        if dataset.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "dataset",
                reason: "must contain at least one sample",
            });
        }
        let (xs, ys) = dataset.to_matrices();
        let inputs = xs.cols();
        let width = features.feature_count(inputs);
        let design = Matrix::from_fn(xs.rows(), width, |r, c| features.expand(xs.row(r))[c]);

        let mut coefficients = Matrix::zeros(width, ys.cols());
        for out in 0..ys.cols() {
            let target = ys.col_to_vec(out);
            let w = linalg::ridge(&design, &target, lambda)?;
            for (row, &v) in w.iter().enumerate() {
                coefficients.set(row, out, v);
            }
        }
        Ok(LinearModel {
            features,
            inputs,
            coefficients,
            ridge: lambda,
        })
    }

    /// The fitted coefficient matrix (`expanded features × outputs`).
    pub fn coefficients(&self) -> &Matrix {
        &self.coefficients
    }

    /// Serializes the model to text, so a fitted baseline can be shipped
    /// next to the MLP model file and loaded as a serving fallback.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("wlc-linear v1\n");
        out.push_str(&format!("features {}\n", self.features.name()));
        out.push_str(&format!("inputs {}\n", self.inputs));
        out.push_str("ridge ");
        push_f64s(&mut out, &[self.ridge], ' ');
        out.push('\n');
        out.push_str(&format!(
            "coef {} {}\n",
            self.coefficients.rows(),
            self.coefficients.cols()
        ));
        for r in 0..self.coefficients.rows() {
            push_f64s(&mut out, self.coefficients.row(r), ' ');
            out.push('\n');
        }
        out
    }

    /// Parses the format produced by [`LinearModel::to_text`]. The parser
    /// is strict: malformed lines, inconsistent dimensions and non-finite
    /// coefficients are rejected with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] on any format violation.
    pub fn from_text(text: &str) -> Result<Self, ModelError> {
        let err = |line: usize, reason: &str| ModelError::Parse {
            line,
            reason: reason.to_string(),
        };
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("wlc-linear v1") {
            return Err(err(1, "missing `wlc-linear v1` header"));
        }
        let features = match lines
            .next()
            .and_then(|l| l.trim().strip_prefix("features "))
        {
            Some("first-order") => LinearFeatures::FirstOrder,
            Some("interactions") => LinearFeatures::Interactions,
            Some("quadratic") => LinearFeatures::Quadratic,
            _ => return Err(err(2, "expected `features <kind>`")),
        };
        let inputs: usize = lines
            .next()
            .and_then(|l| l.trim().strip_prefix("inputs "))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(3, "expected `inputs <n>`"))?;
        if inputs == 0 || inputs > (1 << 16) {
            return Err(err(3, "implausible input width"));
        }
        let ridge: f64 = lines
            .next()
            .and_then(|l| l.trim().strip_prefix("ridge "))
            .and_then(|s| parse_f64(s).ok())
            .ok_or_else(|| err(4, "expected `ridge <lambda>`"))?;
        if !ridge.is_finite() || ridge < 0.0 {
            return Err(err(4, "ridge must be finite and non-negative"));
        }
        let (rows, cols) = lines
            .next()
            .and_then(|l| l.trim().strip_prefix("coef "))
            .and_then(|s| s.split_once(' '))
            .and_then(|(r, c)| Some((r.trim().parse().ok()?, c.trim().parse().ok()?)))
            .ok_or_else(|| err(5, "expected `coef <rows> <cols>`"))?;
        if rows != features.feature_count(inputs) {
            return Err(err(5, "coefficient rows disagree with feature expansion"));
        }
        if cols == 0 || cols > (1 << 16) {
            return Err(err(5, "implausible output width"));
        }
        let mut coefficients = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let line_no = 6 + r;
            let row_line = lines
                .next()
                .ok_or_else(|| err(line_no, "unexpected end of input in coefficients"))?;
            let values: Vec<f64> = row_line
                .split_whitespace()
                .map(|tok| {
                    let v = parse_f64(tok).map_err(|_| err(line_no, "bad coefficient"))?;
                    if !v.is_finite() {
                        return Err(err(line_no, "non-finite coefficient"));
                    }
                    Ok(v)
                })
                .collect::<Result<_, _>>()?;
            if values.len() != cols {
                return Err(err(line_no, "wrong number of coefficients in row"));
            }
            coefficients.row_mut(r).copy_from_slice(&values);
        }
        Ok(LinearModel {
            features,
            inputs,
            coefficients,
            ridge,
        })
    }

    /// Writes the model to a file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on filesystem failure.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> Result<(), ModelError> {
        // wlc-lint: allow(durable-write, reason = "one-shot CLI export; the supervisor's durable path writes models via wlc_fault::write_atomic")
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Reads a model from a file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LoadFailed`] naming the offending path.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let wrap = |source: ModelError| ModelError::LoadFailed {
            path: path.to_path_buf(),
            source: Box::new(source),
        };
        let text = std::fs::read_to_string(path).map_err(|e| wrap(e.into()))?;
        Self::from_text(&text).map_err(wrap)
    }

    /// Evaluates prediction error on a labelled dataset.
    ///
    /// # Errors
    ///
    /// Propagates width and metric errors.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<ErrorReport, ModelError> {
        let (xs, ys) = dataset.to_matrices();
        let predicted = self.predict_batch(&xs)?;
        Ok(ErrorReport::compare(
            dataset.output_names(),
            &ys,
            &predicted,
        )?)
    }
}

impl PerformanceModel for LinearModel {
    fn inputs(&self) -> usize {
        self.inputs
    }

    fn outputs(&self) -> usize {
        self.coefficients.cols()
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        if x.len() != self.inputs {
            return Err(ModelError::WidthMismatch {
                expected: self.inputs,
                actual: x.len(),
                what: "configuration",
            });
        }
        let expanded = self.features.expand(x);
        let mut out = vec![0.0; self.outputs()];
        for (o, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (f, &v) in expanded.iter().enumerate() {
                acc += v * self.coefficients.get(f, o);
            }
            *slot = acc;
        }
        Ok(out)
    }
}

/// A full polynomial regression model: all monomials of total degree up
/// to `degree` over the raw inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct PolynomialModel {
    inputs: usize,
    degree: u32,
    /// Exponent vector of each monomial.
    monomials: Vec<Vec<u32>>,
    coefficients: Matrix,
}

impl PolynomialModel {
    /// Fits a polynomial of the given total degree by least squares (with
    /// a tiny ridge for numerical stability).
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] for an empty dataset, degree 0,
    ///   or an expansion wider than the sample count would support.
    pub fn fit(dataset: &Dataset, degree: u32) -> Result<Self, ModelError> {
        if dataset.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "dataset",
                reason: "must contain at least one sample",
            });
        }
        if degree == 0 {
            return Err(ModelError::InvalidParameter {
                name: "degree",
                reason: "must be at least 1",
            });
        }
        let (xs, ys) = dataset.to_matrices();
        let inputs = xs.cols();
        let monomials = enumerate_monomials(inputs, degree);
        if monomials.len() > 4 * xs.rows() {
            return Err(ModelError::InvalidParameter {
                name: "degree",
                reason: "polynomial expansion is far wider than the sample count",
            });
        }
        let design = Matrix::from_fn(xs.rows(), monomials.len(), |r, c| {
            eval_monomial(&monomials[c], xs.row(r))
        });
        let mut coefficients = Matrix::zeros(monomials.len(), ys.cols());
        for out in 0..ys.cols() {
            let target = ys.col_to_vec(out);
            let w = linalg::ridge(&design, &target, 1e-8)?;
            for (row, &v) in w.iter().enumerate() {
                coefficients.set(row, out, v);
            }
        }
        Ok(PolynomialModel {
            inputs,
            degree,
            monomials,
            coefficients,
        })
    }

    /// The polynomial's total degree.
    pub fn degree(&self) -> u32 {
        self.degree
    }
}

impl PerformanceModel for PolynomialModel {
    fn inputs(&self) -> usize {
        self.inputs
    }

    fn outputs(&self) -> usize {
        self.coefficients.cols()
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        if x.len() != self.inputs {
            return Err(ModelError::WidthMismatch {
                expected: self.inputs,
                actual: x.len(),
                what: "configuration",
            });
        }
        let mut out = vec![0.0; self.outputs()];
        for (o, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (m, mono) in self.monomials.iter().enumerate() {
                acc += eval_monomial(mono, x) * self.coefficients.get(m, o);
            }
            *slot = acc;
        }
        Ok(out)
    }
}

/// Linear least squares in signed-log space: fits
/// `slog(y) ≈ W · slog(x) + b`, where `slog(v) = sign(v)·ln(1+|v|)`.
/// Captures multiplicative/power-law relationships with few parameters
/// (the paper's "logarithmic functions" future-work direction).
#[derive(Debug, Clone, PartialEq)]
pub struct LogarithmicModel {
    inner: LinearModel,
}

impl LogarithmicModel {
    /// Fits the log-space linear model.
    ///
    /// # Errors
    ///
    /// As for [`LinearModel::fit`].
    pub fn fit(dataset: &Dataset) -> Result<Self, ModelError> {
        let (xs, ys) = dataset.to_matrices();
        let tx = xs.map(slog);
        let ty = ys.map(slog);
        let transformed = Dataset::from_matrices(
            dataset.input_names().to_vec(),
            dataset.output_names().to_vec(),
            &tx,
            &ty,
        )?;
        Ok(LogarithmicModel {
            inner: LinearModel::fit(&transformed, LinearFeatures::FirstOrder)?,
        })
    }
}

impl PerformanceModel for LogarithmicModel {
    fn inputs(&self) -> usize {
        self.inner.inputs()
    }

    fn outputs(&self) -> usize {
        self.inner.outputs()
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        let tx: Vec<f64> = x.iter().map(|&v| slog(v)).collect();
        let mut y = self.inner.predict(&tx)?;
        for v in &mut y {
            *v = slog_inv(*v);
        }
        Ok(y)
    }
}

/// A radial-basis-function baseline: standardization around a Gaussian
/// [`RbfNetwork`] — the "other" function-approximation family the paper's
/// §2.1 names alongside MLPs.
#[derive(Debug, Clone, PartialEq)]
pub struct RbfModel {
    input_scaler: Scaler,
    output_scaler: Scaler,
    network: RbfNetwork,
}

impl RbfModel {
    /// Fits an RBF model with `centers` Gaussian units.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] for an empty dataset.
    /// - [`ModelError::Nn`] for invalid center counts.
    pub fn fit(dataset: &Dataset, centers: usize, seed: u64) -> Result<Self, ModelError> {
        if dataset.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "dataset",
                reason: "must contain at least one sample",
            });
        }
        let (xs, ys) = dataset.to_matrices();
        let input_scaler = Scaler::standard_fit(&xs)?;
        let output_scaler = Scaler::standard_fit(&ys)?;
        let tx = input_scaler.transform(&xs)?;
        let ty = output_scaler.transform(&ys)?;
        let network = RbfNetwork::fit(&tx, &ty, centers, seed)?;
        Ok(RbfModel {
            input_scaler,
            output_scaler,
            network,
        })
    }

    /// Number of Gaussian centers.
    pub fn centers(&self) -> usize {
        self.network.centers()
    }
}

impl PerformanceModel for RbfModel {
    fn inputs(&self) -> usize {
        self.network.inputs()
    }

    fn outputs(&self) -> usize {
        self.network.outputs()
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        if x.len() != self.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: self.inputs(),
                actual: x.len(),
                what: "configuration",
            });
        }
        let mut scaled = x.to_vec();
        self.input_scaler.transform_row(&mut scaled)?;
        let mut y = self.network.predict(&scaled)?;
        self.output_scaler.inverse_row(&mut y)?;
        Ok(y)
    }
}

/// All exponent vectors over `n` variables with total degree `<= degree`
/// (including the constant term), in a deterministic order.
fn enumerate_monomials(n: usize, degree: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut current = vec![0u32; n];
    fn recurse(out: &mut Vec<Vec<u32>>, current: &mut Vec<u32>, var: usize, remaining: u32) {
        if var == current.len() {
            out.push(current.clone());
            return;
        }
        for d in 0..=remaining {
            current[var] = d;
            recurse(out, current, var + 1, remaining - d);
        }
        current[var] = 0;
    }
    recurse(&mut out, &mut current, 0, degree);
    out
}

fn eval_monomial(exponents: &[u32], x: &[f64]) -> f64 {
    exponents
        .iter()
        .zip(x.iter())
        .map(|(&e, &v)| v.powi(e as i32))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_data::Sample;

    fn linear_dataset() -> Dataset {
        // y0 = 3a - 2b + 1; y1 = a + b.
        let mut ds =
            Dataset::new(vec!["a".into(), "b".into()], vec!["y0".into(), "y1".into()]).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let (a, b) = (i as f64, j as f64);
                ds.push(Sample::new(
                    vec![a, b],
                    vec![3.0 * a - 2.0 * b + 1.0, a + b],
                ))
                .unwrap();
            }
        }
        ds
    }

    fn quadratic_dataset() -> Dataset {
        // y = a² + a·b (pure second order).
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (i as f64, j as f64);
                ds.push(Sample::new(vec![a, b], vec![a * a + a * b]))
                    .unwrap();
            }
        }
        ds
    }

    #[test]
    fn linear_text_roundtrip_preserves_predictions() {
        let ds = linear_dataset();
        for features in [
            LinearFeatures::FirstOrder,
            LinearFeatures::Interactions,
            LinearFeatures::Quadratic,
        ] {
            let m = LinearModel::fit(&ds, features).unwrap();
            let back = LinearModel::from_text(&m.to_text()).unwrap();
            assert_eq!(back, m, "{features:?}");
            let x = [2.5, 1.5];
            assert_eq!(back.predict(&x).unwrap(), m.predict(&x).unwrap());
        }
    }

    #[test]
    fn linear_from_text_rejects_corruption() {
        let m = LinearModel::fit(&linear_dataset(), LinearFeatures::FirstOrder).unwrap();
        let text = m.to_text();
        assert!(LinearModel::from_text(&text.replace("wlc-linear v1", "nope")).is_err());
        assert!(
            LinearModel::from_text(&text.replace("features first-order", "features x")).is_err()
        );
        // Truncated coefficient block.
        let short: String = text.lines().take(6).collect::<Vec<_>>().join("\n");
        assert!(LinearModel::from_text(&short).is_err());
        // Non-finite coefficient.
        let first_coef = text.lines().nth(5).unwrap();
        let poisoned = text.replacen(first_coef, "NaN 1.0", 1);
        assert!(LinearModel::from_text(&poisoned).is_err());
        // Row count disagreeing with the feature expansion.
        assert!(LinearModel::from_text(&text.replace("coef 3 2", "coef 2 2")).is_err());
    }

    #[test]
    fn linear_file_roundtrip_and_load_error() {
        let dir = std::env::temp_dir().join("wlc-linear-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.txt");
        let m = LinearModel::fit(&linear_dataset(), LinearFeatures::Quadratic).unwrap();
        m.save(&path).unwrap();
        assert_eq!(LinearModel::load(&path).unwrap(), m);
        std::fs::remove_file(&path).unwrap();
        let err = LinearModel::load(&path).unwrap_err();
        assert!(matches!(err, ModelError::LoadFailed { .. }), "{err}");
    }

    #[test]
    fn linear_model_recovers_exact_relationship() {
        let ds = linear_dataset();
        let m = LinearModel::fit(&ds, LinearFeatures::FirstOrder).unwrap();
        let y = m.predict(&[7.0, 3.0]).unwrap();
        assert!((y[0] - 16.0).abs() < 1e-6);
        assert!((y[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn linear_model_cannot_fit_quadratic_but_quadratic_features_can() {
        let ds = quadratic_dataset();
        let first = LinearModel::fit(&ds, LinearFeatures::FirstOrder).unwrap();
        let quad = LinearModel::fit(&ds, LinearFeatures::Quadratic).unwrap();
        let first_err = first.evaluate(&ds).unwrap().overall_error();
        let quad_err = quad.evaluate(&ds).unwrap().overall_error();
        assert!(
            quad_err < first_err * 0.01,
            "first {first_err} quad {quad_err}"
        );
    }

    #[test]
    fn interaction_features_capture_products() {
        let ds = quadratic_dataset();
        let inter = LinearModel::fit(&ds, LinearFeatures::Interactions).unwrap();
        // Interactions include a·b but not a²: partial improvement.
        let y = inter.predict(&[2.0, 2.0]).unwrap();
        assert!(y[0].is_finite());
    }

    #[test]
    fn feature_counts() {
        assert_eq!(LinearFeatures::FirstOrder.feature_count(4), 5);
        assert_eq!(LinearFeatures::Interactions.feature_count(4), 11);
        assert_eq!(LinearFeatures::Quadratic.feature_count(4), 15);
        assert_eq!(
            LinearFeatures::Quadratic
                .expand(&[1.0, 2.0, 3.0, 4.0])
                .len(),
            15
        );
    }

    #[test]
    fn linear_model_validates() {
        let empty = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        assert!(LinearModel::fit(&empty, LinearFeatures::FirstOrder).is_err());
        let ds = linear_dataset();
        let m = LinearModel::fit(&ds, LinearFeatures::FirstOrder).unwrap();
        assert!(m.predict(&[1.0]).is_err());
        assert_eq!(m.inputs(), 2);
        assert_eq!(m.outputs(), 2);
    }

    #[test]
    fn ridge_shrinks_but_still_predicts() {
        let ds = linear_dataset();
        let plain = LinearModel::fit(&ds, LinearFeatures::FirstOrder).unwrap();
        let ridged = LinearModel::fit_ridge(&ds, LinearFeatures::FirstOrder, 10.0).unwrap();
        let norm = |m: &LinearModel| {
            let c = m.coefficients().as_slice();
            c.iter().map(|x| x * x).sum::<f64>().sqrt()
        };
        assert!(norm(&ridged) < norm(&plain));
    }

    #[test]
    fn polynomial_fits_cubic() {
        // y = x³ - 2x.
        let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        for i in -5..=5 {
            let x = i as f64;
            ds.push(Sample::new(vec![x], vec![x * x * x - 2.0 * x]))
                .unwrap();
        }
        let m = PolynomialModel::fit(&ds, 3).unwrap();
        let y = m.predict(&[2.5]).unwrap();
        assert!((y[0] - (2.5f64.powi(3) - 5.0)).abs() < 1e-5, "{}", y[0]);
        assert_eq!(m.degree(), 3);
    }

    #[test]
    fn polynomial_monomial_enumeration() {
        // 2 vars, degree 2: 1, y, y², x, xy, x² = 6 monomials.
        assert_eq!(enumerate_monomials(2, 2).len(), 6);
        // 4 vars, degree 2: C(6,2) = 15.
        assert_eq!(enumerate_monomials(4, 2).len(), 15);
    }

    #[test]
    fn polynomial_validates() {
        let ds = linear_dataset();
        assert!(PolynomialModel::fit(&ds, 0).is_err());
        let tiny = {
            let mut d = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
            d.push(Sample::new(vec![1.0], vec![1.0])).unwrap();
            d
        };
        assert!(PolynomialModel::fit(&tiny, 30).is_err());
    }

    #[test]
    fn logarithmic_fits_power_law() {
        // y = 5 · x^2 — exactly linear in log space.
        let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        for i in 1..=12 {
            let x = i as f64;
            ds.push(Sample::new(vec![x], vec![5.0 * x * x])).unwrap();
        }
        let m = LogarithmicModel::fit(&ds).unwrap();
        // In-range check.
        let y = m.predict(&[6.0]).unwrap()[0];
        assert!((y - 180.0).abs() / 180.0 < 0.2, "{y}");
        // Extrapolation stays the right order of magnitude.
        let far = m.predict(&[50.0]).unwrap()[0];
        let actual = 5.0 * 2500.0;
        assert!(
            far > actual * 0.2 && far < actual * 5.0,
            "{far} vs {actual}"
        );
    }

    #[test]
    fn rbf_fits_nonlinear_relationship() {
        let ds = quadratic_dataset();
        let rbf = RbfModel::fit(&ds, 14, 3).unwrap();
        // Normalized RMSE (relative to the target's standard deviation)
        // is the meaningful fit criterion here: the quadratic surface
        // includes values near zero where relative error is unstable.
        let (xs, ys) = ds.to_matrices();
        let predicted = rbf.predict_batch(&xs).unwrap();
        let actual = ys.col_to_vec(0);
        let pred = predicted.col_to_vec(0);
        let rmse = wlc_data::metrics::rmse(&actual, &pred).unwrap();
        let std = wlc_math::stats::variance_population(&actual)
            .unwrap()
            .sqrt();
        assert!(rmse / std < 0.2, "normalized RMSE {}", rmse / std);
        assert_eq!(rbf.centers(), 14);
    }

    #[test]
    fn rbf_validates() {
        let empty = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        assert!(RbfModel::fit(&empty, 3, 1).is_err());
        let ds = linear_dataset();
        assert!(RbfModel::fit(&ds, 0, 1).is_err());
        let m = RbfModel::fit(&ds, 5, 1).unwrap();
        assert!(m.predict(&[1.0]).is_err());
        assert_eq!(m.inputs(), 2);
        assert_eq!(m.outputs(), 2);
    }

    #[test]
    fn models_work_through_trait_objects() {
        let ds = linear_dataset();
        let models: Vec<Box<dyn PerformanceModel>> = vec![
            Box::new(LinearModel::fit(&ds, LinearFeatures::FirstOrder).unwrap()),
            Box::new(PolynomialModel::fit(&ds, 2).unwrap()),
            Box::new(LogarithmicModel::fit(&ds).unwrap()),
            Box::new(RbfModel::fit(&ds, 6, 1).unwrap()),
        ];
        for m in &models {
            assert_eq!(m.inputs(), 2);
            assert_eq!(m.outputs(), 2);
            let (xs, _) = ds.to_matrices();
            let batch = m.predict_batch(&xs).unwrap();
            assert_eq!(batch.shape(), (25, 2));
        }
    }
}
