//! Linear solvers and least-squares fitting.
//!
//! These routines back the linear baseline models ([`ridge`])
//! that the paper compares the neural-network approach against, plus the
//! general-purpose solvers ([`solve`], [`cholesky`]) they are built on.

use crate::{MathError, Matrix};

/// Solves the square linear system `A x = b` by Gaussian elimination with
/// partial pivoting.
///
/// # Errors
///
/// - [`MathError::NotSquare`] if `a` is not square.
/// - [`MathError::DimensionMismatch`] if `b.len() != a.rows()`.
/// - [`MathError::Singular`] if a pivot is (numerically) zero.
///
/// # Examples
///
/// ```
/// use wlc_math::{Matrix, linalg::solve};
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
/// let x = solve(&a, &[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok::<(), wlc_math::MathError>(())
/// ```
#[allow(clippy::needless_range_loop)] // index-based elimination mirrors the textbook algorithm
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, MathError> {
    let n = a.rows();
    if a.rows() != a.cols() {
        return Err(MathError::NotSquare { dims: a.shape() });
    }
    if b.len() != n {
        return Err(MathError::DimensionMismatch {
            left: a.shape(),
            right: (b.len(), 1),
            op: "solve",
        });
    }
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot: find the largest magnitude entry in this column.
        let mut pivot_row = col;
        let mut pivot_val = m.get(col, col).abs();
        for r in (col + 1)..n {
            let v = m.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return Err(MathError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot_row, c));
                m.set(pivot_row, c, tmp);
            }
            rhs.swap(col, pivot_row);
        }
        let pivot = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m.get(r, c) - factor * m.get(col, c);
                m.set(r, c, v);
            }
            rhs[r] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = rhs[r];
        for c in (r + 1)..n {
            acc -= m.get(r, c) * x[c];
        }
        x[r] = acc / m.get(r, r);
    }
    Ok(x)
}

/// Computes the lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Errors
///
/// - [`MathError::NotSquare`] if `a` is not square.
/// - [`MathError::NotPositiveDefinite`] if `a` is not positive definite.
///
/// # Examples
///
/// ```
/// use wlc_math::{Matrix, linalg::cholesky};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
/// let l = cholesky(&a)?;
/// let back = l.matmul(&l.transpose()).unwrap();
/// assert!((back.get(0, 0) - 4.0).abs() < 1e-12);
/// # Ok::<(), wlc_math::MathError>(())
/// ```
pub fn cholesky(a: &Matrix) -> Result<Matrix, MathError> {
    let n = a.rows();
    if a.rows() != a.cols() {
        return Err(MathError::NotSquare { dims: a.shape() });
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(MathError::NotPositiveDefinite);
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates the errors of [`cholesky`], plus
/// [`MathError::DimensionMismatch`] if `b.len() != a.rows()`.
#[allow(clippy::needless_range_loop)] // forward/back substitution reads best with indices
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, MathError> {
    let n = a.rows();
    if b.len() != n {
        return Err(MathError::DimensionMismatch {
            left: a.shape(),
            right: (b.len(), 1),
            op: "solve_spd",
        });
    }
    let l = cholesky(a)?;
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = b[i];
        for k in 0..i {
            acc -= l.get(i, k) * y[k];
        }
        y[i] = acc / l.get(i, i);
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for k in (i + 1)..n {
            acc -= l.get(k, i) * x[k];
        }
        x[i] = acc / l.get(i, i);
    }
    Ok(x)
}

/// Ridge regression: finds `w` minimizing `‖X w − y‖² + lambda ‖w‖²`;
/// `lambda = 0` is ordinary least squares.
///
/// Solves the normal equations `(XᵀX + lambda I) w = Xᵀy` via Cholesky,
/// falling back to Gaussian elimination with a tiny ridge when the
/// system is near-singular.
///
/// # Errors
///
/// - [`MathError::InvalidParameter`] if `lambda < 0`.
/// - [`MathError::DimensionMismatch`] if `y.len() != x.rows()`.
/// - [`MathError::Singular`] if the (regularized) normal equations are
///   singular.
///
/// # Examples
///
/// ```
/// use wlc_math::{Matrix, linalg::ridge};
///
/// // y = 2 a + 3, encoded with a bias column of ones.
/// let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]).unwrap();
/// let w = ridge(&x, &[5.0, 7.0, 9.0], 0.0)?;
/// assert!((w[0] - 2.0).abs() < 1e-9);
/// assert!((w[1] - 3.0).abs() < 1e-9);
/// # Ok::<(), wlc_math::MathError>(())
/// ```
pub fn ridge(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, MathError> {
    if lambda < 0.0 {
        return Err(MathError::InvalidParameter {
            name: "lambda",
            reason: "must be non-negative",
        });
    }
    if y.len() != x.rows() {
        return Err(MathError::DimensionMismatch {
            left: x.shape(),
            right: (y.len(), 1),
            op: "lstsq",
        });
    }
    let xt = x.transpose();
    let mut xtx = xt.matmul(x)?;
    for i in 0..xtx.rows() {
        let v = xtx.get(i, i) + lambda;
        xtx.set(i, i, v);
    }
    let xty = xt.matvec(y)?;
    match solve_spd(&xtx, &xty) {
        Ok(w) => Ok(w),
        Err(_) => {
            // Near-singular normal equations: retry with a tiny ridge to
            // stabilize, via the pivoting solver.
            let scale = xtx.max_abs().max(1.0);
            for i in 0..xtx.rows() {
                let v = xtx.get(i, i) + 1e-10 * scale;
                xtx.set(i, i, v);
            }
            solve(&xtx, &xty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn solve_identity() {
        let i = Matrix::identity(3);
        let b = [1.0, 2.0, 3.0];
        assert_close(&solve(&i, &b).unwrap(), &b, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn solve_3x3_known() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let x = solve(&a, &[8.0, -11.0, -3.0]).unwrap();
        assert_close(&x, &[2.0, 3.0, -1.0], 1e-10);
    }

    #[test]
    fn solve_singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(MathError::Singular));
    }

    #[test]
    fn solve_rejects_nonsquare_and_mismatch() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(MathError::NotSquare { .. })
        ));
        let sq = Matrix::identity(2);
        assert!(matches!(
            solve(&sq, &[1.0]),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_residual_is_small() {
        // Random-ish well-conditioned system.
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0],
            &[1.0, 5.0, 1.0, 0.5],
            &[0.5, 1.0, 6.0, 1.0],
            &[0.0, 0.5, 1.0, 7.0],
        ])
        .unwrap();
        let b = [1.0, -2.0, 3.5, 0.25];
        let x = solve(&a, &b).unwrap();
        let back = a.matvec(&x).unwrap();
        assert_close(&back, &b, 1e-10);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!((back.get(r, c) - a.get(r, c)).abs() < 1e-10);
            }
        }
        // L is lower triangular.
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(1, 2), 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(cholesky(&a), Err(MathError::NotPositiveDefinite));
    }

    #[test]
    fn solve_spd_agrees_with_solve() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let x1 = solve(&a, &b).unwrap();
        let x2 = solve_spd(&a, &b).unwrap();
        assert_close(&x1, &x2, 1e-10);
    }

    #[test]
    fn lstsq_exact_fit() {
        // Overdetermined but consistent: y = 2a - b + 1.
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 1.0],
            &[2.0, 1.0, 1.0],
        ])
        .unwrap();
        let y = [3.0, 0.0, 2.0, 4.0];
        let w = ridge(&x, &y, 0.0).unwrap();
        assert_close(&w, &[2.0, -1.0, 1.0], 1e-9);
    }

    #[test]
    fn lstsq_minimizes_residual() {
        // Inconsistent system: check the normal-equation optimality
        // condition Xᵀ(y - Xw) = 0.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0], &[4.0, 1.0]]).unwrap();
        let y = [1.0, 3.0, 2.0, 5.0];
        let w = ridge(&x, &y, 0.0).unwrap();
        let pred = x.matvec(&w).unwrap();
        let resid: Vec<f64> = y.iter().zip(pred.iter()).map(|(a, p)| a - p).collect();
        let grad = x.transpose().matvec(&resid).unwrap();
        assert!(grad.iter().all(|g| g.abs() < 1e-9), "gradient {grad:?}");
    }

    #[test]
    fn ridge_shrinks_weights() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [2.0, 4.0, 6.0];
        let w0 = ridge(&x, &y, 0.0).unwrap();
        let w_big = ridge(&x, &y, 100.0).unwrap();
        assert!(w_big[0].abs() < w0[0].abs());
        assert!((w0[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_rejects_negative_lambda() {
        let x = Matrix::identity(2);
        assert!(ridge(&x, &[1.0, 2.0], -1.0).is_err());
    }

    #[test]
    fn lstsq_dimension_mismatch() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            ridge(&x, &[1.0, 2.0], 0.0),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn lstsq_handles_collinear_columns() {
        // Second column is 2x the first: rank deficient. The fallback ridge
        // should still produce a finite solution with small residual.
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let y = [1.0, 2.0, 3.0];
        let w = ridge(&x, &y, 0.0).unwrap();
        assert!(w.iter().all(|v| v.is_finite()));
        let pred = x.matvec(&w).unwrap();
        for (p, a) in pred.iter().zip(y.iter()) {
            assert!((p - a).abs() < 1e-3);
        }
    }
}
