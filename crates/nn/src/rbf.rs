//! Radial-basis-function networks.
//!
//! The paper's §2.1 names two families used for function approximation:
//! "single or multilayer perceptrons and Radial Basis Function (RBF)
//! networks". The paper builds on MLPs; this module provides the RBF
//! alternative so the ablation experiments can compare them.
//!
//! The implementation is the classical two-stage scheme: unsupervised
//! center placement with seeded k-means++ / Lloyd iterations, Gaussian
//! basis functions with a shared data-driven width heuristic, and a
//! closed-form ridge-regression output layer.

use wlc_math::elementary::exp;
use wlc_math::linalg;
use wlc_math::rng::{Seed, Xoshiro256};
use wlc_math::Matrix;

use crate::NnError;

/// A Gaussian radial-basis-function network.
///
/// # Examples
///
/// ```
/// use wlc_math::Matrix;
/// use wlc_nn::RbfNetwork;
///
/// // y = x^2 on [-2, 2].
/// let xs = Matrix::from_fn(17, 1, |r, _| -2.0 + r as f64 * 0.25);
/// let ys = Matrix::from_fn(17, 1, |r, _| {
///     let x = -2.0 + r as f64 * 0.25;
///     x * x
/// });
/// let rbf = RbfNetwork::fit(&xs, &ys, 7, 42)?;
/// let y = rbf.predict(&[1.0])?;
/// assert!((y[0] - 1.0).abs() < 0.2);
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbfNetwork {
    /// `k × inputs` center matrix.
    centers: Matrix,
    /// Shared Gaussian width parameter (gamma = 1 / (2 sigma²)).
    gamma: f64,
    /// `(k + 1) × outputs` output weights (last row is the bias).
    weights: Matrix,
}

impl RbfNetwork {
    /// Fits an RBF network with `k` centers to `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// - [`NnError::EmptyTrainingSet`] for empty data.
    /// - [`NnError::InvalidHyperParameter`] if `k == 0` or
    ///   `k > xs.rows()`.
    /// - [`NnError::ShapeMismatch`] if `xs.rows() != ys.rows()`.
    pub fn fit(xs: &Matrix, ys: &Matrix, k: usize, seed: u64) -> Result<Self, NnError> {
        if xs.rows() == 0 {
            return Err(NnError::EmptyTrainingSet);
        }
        if ys.rows() != xs.rows() {
            return Err(NnError::ShapeMismatch {
                expected: xs.rows(),
                actual: ys.rows(),
                what: "target row count",
            });
        }
        if k == 0 || k > xs.rows() {
            return Err(NnError::InvalidHyperParameter {
                name: "k",
                reason: "must be between 1 and the number of samples",
            });
        }

        let centers = kmeans(xs, k, seed);

        // Width heuristic: sigma = mean distance between distinct centers
        // divided by sqrt(2k) is common; we use the robust variant
        // sigma = d_max / sqrt(2 k), with a fallback for k == 1.
        let mut d_max: f64 = 0.0;
        for i in 0..k {
            for j in (i + 1)..k {
                d_max = d_max.max(distance(centers.row(i), centers.row(j)));
            }
        }
        let sigma = if d_max > 0.0 {
            d_max / (2.0 * k as f64).sqrt()
        } else {
            1.0
        };
        let gamma = 1.0 / (2.0 * sigma * sigma);

        // Design matrix: one Gaussian column per center plus a bias.
        let design = Matrix::from_fn(xs.rows(), k + 1, |r, c| {
            if c == k {
                1.0
            } else {
                exp(-gamma * sq_distance(xs.row(r), centers.row(c)))
            }
        });

        let mut weights = Matrix::zeros(k + 1, ys.cols());
        for out in 0..ys.cols() {
            let target = ys.col_to_vec(out);
            let w = linalg::ridge(&design, &target, 1e-8)?;
            for (row, &v) in w.iter().enumerate() {
                weights.set(row, out, v);
            }
        }

        Ok(RbfNetwork {
            centers,
            gamma,
            weights,
        })
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.centers.cols()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.weights.cols()
    }

    /// Number of basis-function centers.
    pub fn centers(&self) -> usize {
        self.centers.rows()
    }

    /// The shared Gaussian width parameter gamma.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Predicts the outputs for one input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.len() != self.inputs()`.
    pub fn predict(&self, x: &[f64]) -> Result<Vec<f64>, NnError> {
        if x.len() != self.inputs() {
            return Err(NnError::ShapeMismatch {
                expected: self.inputs(),
                actual: x.len(),
                what: "input width",
            });
        }
        let k = self.centers.rows();
        let mut activations = Vec::with_capacity(k + 1);
        for c in 0..k {
            activations.push(exp(-self.gamma * sq_distance(x, self.centers.row(c))));
        }
        activations.push(1.0);
        let mut out = vec![0.0; self.outputs()];
        for (o, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (f, &a) in activations.iter().enumerate() {
                acc += a * self.weights.get(f, o);
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Batch prediction, one row per input row.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `xs.cols() != self.inputs()`.
    pub fn predict_batch(&self, xs: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::zeros(xs.rows(), self.outputs());
        for r in 0..xs.rows() {
            let y = self.predict(xs.row(r))?;
            out.row_mut(r).copy_from_slice(&y);
        }
        Ok(out)
    }
}

fn sq_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    sq_distance(a, b).sqrt()
}

/// Seeded k-means++ initialization followed by Lloyd iterations.
#[allow(clippy::needless_range_loop)] // index loops mirror the Lloyd update equations
fn kmeans(xs: &Matrix, k: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256::from_seed(Seed::new(seed));
    let n = xs.rows();
    let dims = xs.cols();

    // k-means++ seeding.
    let mut center_rows: Vec<usize> = Vec::with_capacity(k);
    center_rows.push(rng.next_below(n as u64) as usize);
    while center_rows.len() < k {
        let weights: Vec<f64> = (0..n)
            .map(|r| {
                center_rows
                    .iter()
                    .map(|&c| sq_distance(xs.row(r), xs.row(c)))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let next = if total > 0.0 {
            rng.pick_weighted(&weights).expect("positive total weight")
        } else {
            // All points coincide with existing centers: pick uniformly.
            rng.next_below(n as u64) as usize
        };
        center_rows.push(next);
    }
    let mut centers = Matrix::from_fn(k, dims, |c, d| xs.get(center_rows[c], d));

    // Lloyd iterations (fixed budget keeps fitting deterministic-time).
    let mut assignment = vec![0usize; n];
    for _ in 0..25 {
        let mut changed = false;
        for r in 0..n {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = sq_distance(xs.row(r), centers.row(c));
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[r] != best {
                assignment[r] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        let mut sums = Matrix::zeros(k, dims);
        let mut counts = vec![0usize; k];
        for r in 0..n {
            let c = assignment[r];
            counts[c] += 1;
            for d in 0..dims {
                let v = sums.get(c, d) + xs.get(r, d);
                sums.set(c, d, v);
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dims {
                    centers.set(c, d, sums.get(c, d) / counts[c] as f64);
                }
            }
        }
        if !changed {
            break;
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data() -> (Matrix, Matrix) {
        let n = 40;
        let xs = Matrix::from_fn(n, 1, |r, _| r as f64 / (n - 1) as f64 * 6.0);
        let ys = Matrix::from_fn(n, 1, |r, _| (r as f64 / (n - 1) as f64 * 6.0).sin());
        (xs, ys)
    }

    #[test]
    fn fits_sine_wave() {
        let (xs, ys) = sine_data();
        let rbf = RbfNetwork::fit(&xs, &ys, 12, 7).unwrap();
        let mut max_err = 0.0_f64;
        for i in 0..30 {
            let x = i as f64 / 29.0 * 6.0;
            let pred = rbf.predict(&[x]).unwrap()[0];
            max_err = max_err.max((pred - x.sin()).abs());
        }
        assert!(max_err < 0.1, "max error {max_err}");
    }

    #[test]
    fn validates_inputs() {
        let (xs, ys) = sine_data();
        assert!(RbfNetwork::fit(&xs, &ys, 0, 1).is_err());
        assert!(RbfNetwork::fit(&xs, &ys, 1000, 1).is_err());
        let bad_ys = Matrix::zeros(3, 1);
        assert!(RbfNetwork::fit(&xs, &bad_ys, 5, 1).is_err());
        assert!(RbfNetwork::fit(&Matrix::zeros(0, 1), &Matrix::zeros(0, 1), 1, 1).is_err());
    }

    #[test]
    fn predict_checks_width() {
        let (xs, ys) = sine_data();
        let rbf = RbfNetwork::fit(&xs, &ys, 5, 3).unwrap();
        assert!(rbf.predict(&[1.0, 2.0]).is_err());
        assert_eq!(rbf.inputs(), 1);
        assert_eq!(rbf.outputs(), 1);
        assert_eq!(rbf.centers(), 5);
        assert!(rbf.gamma() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (xs, ys) = sine_data();
        let a = RbfNetwork::fit(&xs, &ys, 8, 11).unwrap();
        let b = RbfNetwork::fit(&xs, &ys, 8, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_output_fit() {
        let n = 30;
        let xs = Matrix::from_fn(n, 2, |r, c| ((r * (c + 2)) % 10) as f64 / 5.0);
        let ys = Matrix::from_fn(n, 2, |r, c| {
            let a = ((r * 2) % 10) as f64 / 5.0;
            let b = ((r * 3) % 10) as f64 / 5.0;
            if c == 0 {
                a * a + b
            } else {
                a - b
            }
        });
        let rbf = RbfNetwork::fit(&xs, &ys, 10, 5).unwrap();
        let batch = rbf.predict_batch(&xs).unwrap();
        assert_eq!(batch.shape(), (n, 2));
        assert!(batch.is_finite());
    }

    #[test]
    fn interpolates_exactly_with_k_equals_n() {
        // One center per sample: the system is square-ish and should fit
        // the training data almost exactly.
        let xs = Matrix::from_fn(8, 1, |r, _| r as f64);
        let ys = Matrix::from_fn(8, 1, |r, _| ((r * r) % 7) as f64);
        let rbf = RbfNetwork::fit(&xs, &ys, 8, 2).unwrap();
        for r in 0..8 {
            let pred = rbf.predict(xs.row(r)).unwrap()[0];
            assert!((pred - ys.get(r, 0)).abs() < 0.2, "row {r}: {pred}");
        }
    }

    #[test]
    fn constant_data_handled() {
        // All samples identical: k-means degenerates but fit must not
        // panic or produce NaN.
        let xs = Matrix::from_fn(6, 2, |_, _| 3.0);
        let ys = Matrix::from_fn(6, 1, |_, _| 1.5);
        let rbf = RbfNetwork::fit(&xs, &ys, 2, 9).unwrap();
        let pred = rbf.predict(&[3.0, 3.0]).unwrap()[0];
        assert!((pred - 1.5).abs() < 1e-6, "{pred}");
    }
}
