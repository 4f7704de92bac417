use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::MathError;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse type behind the neural-network layers and the
/// linear baseline models. It is deliberately simple: owned storage,
/// row-major layout, and explicit error reporting on dimension mismatches.
///
/// # Examples
///
/// ```
/// use wlc_math::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let m = Matrix::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert_eq!(m.get(1, 2), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    ///
    #[cfg(test)]
    pub(crate) fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i.get(1, 1), 1.0);
    /// assert_eq!(i.get(0, 2), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(m.get(1, 0), 3.0);
    /// # Ok::<(), wlc_math::MathError>(())
    /// ```
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyInput`] for an empty slice and
    /// [`MathError::DimensionMismatch`] if rows have differing lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m.shape(), (2, 2));
    /// # Ok::<(), wlc_math::MathError>(())
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MathError> {
        if rows.is_empty() {
            return Err(MathError::EmptyInput);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(MathError::DimensionMismatch {
                    left: (1, cols),
                    right: (1, row.len()),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a column vector (an `n x 1` matrix) from a slice.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let v = Matrix::column(&[1.0, 2.0, 3.0]);
    /// assert_eq!(v.shape(), (3, 1));
    /// ```
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Builds a matrix by calling `f(row, col)` for every element.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m.get(1, 1), 11.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns a view of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns a mutable view of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies column `col` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn col_to_vec(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the underlying row-major data as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
    /// assert_eq!(m.transpose().shape(), (3, 1));
    /// ```
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols x rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into output shape"
        );
        crate::gemm::transpose(&self.data, self.cols, &mut out.data);
    }

    /// Matrix multiplication `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `self.cols() != other.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
    /// let b = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.get(0, 0), 11.0);
    /// # Ok::<(), wlc_math::MathError>(())
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[r * other.cols..(r + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Multiplies `self` by a vector, returning `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != self.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
    /// assert_eq!(a.matvec(&[1.0, 1.0])?, vec![3.0, 7.0]);
    /// # Ok::<(), wlc_math::MathError>(())
    /// ```
    #[allow(clippy::needless_range_loop)] // row-index loop mirrors the math
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out[r] = acc;
        }
        Ok(out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if shapes differ.
    pub fn add_matrix(&self, other: &Matrix) -> Result<Matrix, MathError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if shapes differ.
    pub fn sub_matrix(&self, other: &Matrix) -> Result<Matrix, MathError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix, MathError> {
        if self.shape() != other.shape() {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::Matrix;
    /// let m = Matrix::from_rows(&[&[2.0, 3.0]]).unwrap().map(|x| x * x);
    /// assert_eq!(m.row(0), &[4.0, 9.0]);
    /// ```
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by `scalar`.
    pub fn scale(&self, scalar: f64) -> Matrix {
        self.map(|x| x * scalar)
    }

    /// Multiplies every element by `scalar` in place — the
    /// allocation-free variant of [`Matrix::scale`].
    pub fn scale_in_place(&mut self, scalar: f64) {
        for x in &mut self.data {
            *x *= scalar;
        }
    }

    /// Sets every element to `value`, keeping the allocation.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Element-wise `self += other` in place.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if shapes differ.
    pub fn add_assign_matrix(&mut self, other: &Matrix) -> Result<(), MathError> {
        self.zip_assign(other, "add_assign", |a, b| *a += b)
    }

    /// Element-wise `self -= other` in place.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if shapes differ.
    pub fn sub_assign_matrix(&mut self, other: &Matrix) -> Result<(), MathError> {
        self.zip_assign(other, "sub_assign", |a, b| *a -= b)
    }

    fn zip_assign<F: Fn(&mut f64, f64)>(
        &mut self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<(), MathError> {
        if self.shape() != other.shape() {
            return Err(MathError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            f(a, b);
        }
        Ok(())
    }

    /// Changes the row count in place, zero-filling any added rows.
    ///
    /// Shrinking keeps the backing allocation, so workspaces can resize
    /// down for a ragged final minibatch and back up for the next epoch
    /// without touching the heap.
    pub fn resize_rows(&mut self, rows: usize) {
        self.resize(rows, self.cols);
    }

    /// Changes the shape in place: the row-major buffer is truncated or
    /// zero-extended to `rows * cols` elements, so with an unchanged
    /// column count this is [`Matrix::resize_rows`]. Shrinking keeps the
    /// backing allocation — a workspace holding feature-major band
    /// matrices (neurons x band rows) resizes their width for a ragged
    /// band and back without touching the heap. Callers that change the
    /// column count overwrite the contents before reading them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns the maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            let cells: Vec<String> = self.row(r).iter().map(|x| format!("{x:>10.4}")).collect();
            writeln!(f, "[{}]", cells.join(" "))?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::add_matrix`] for a
    /// fallible version.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs)
            .expect("matrix shapes must match for +")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::sub_matrix`] for a
    /// fallible version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs)
            .expect("matrix shapes must match for -")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, rhs: f64) {
        self.scale_in_place(rhs);
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::add_assign_matrix`]
    /// for a fallible version.
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_assign_matrix(rhs)
            .expect("matrix shapes must match for +=");
    }
}

impl SubAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::sub_assign_matrix`]
    /// for a fallible version.
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.sub_assign_matrix(rhs)
            .expect("matrix shapes must match for -=");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_rows_rejects_empty() {
        let rows: &[&[f64]] = &[];
        assert_eq!(Matrix::from_rows(rows), Err(MathError::EmptyInput));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.matmul(&Matrix::identity(3)).unwrap(), a);
        assert_eq!(Matrix::identity(3).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MathError::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = vec![5.0, 6.0];
        let via_vec = a.matvec(&v).unwrap();
        let via_mat = a.matmul(&Matrix::column(&v)).unwrap();
        assert_eq!(via_vec, via_mat.col_to_vec(0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.shape(), (3, 2));
    }

    #[test]
    fn transpose_into_overwrites_every_element() {
        for (rows, cols) in [(1, 5), (5, 1), (2, 3), (4, 7), (1, 1)] {
            let a = Matrix::from_fn(rows, cols, |r, c| (r * 10 + c) as f64 + 0.5);
            // A stale output: every element must be overwritten.
            let mut out = Matrix::filled(cols, rows, f64::NAN);
            a.transpose_into(&mut out);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(out.get(c, r), a.get(r, c), "{rows}x{cols} at ({r}, {c})");
                }
            }
            assert_eq!(out, a.transpose(), "{rows}x{cols}");
        }
    }

    #[test]
    #[should_panic(expected = "transpose_into output shape")]
    fn transpose_into_rejects_wrong_shape() {
        let a = Matrix::zeros(2, 3);
        // The untransposed shape is wrong for a non-square matrix.
        a.transpose_into(&mut Matrix::zeros(2, 3));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.add_matrix(&b).unwrap(), Matrix::filled(2, 2, 5.0));
        assert_eq!(a.sub_matrix(&b).unwrap(), Matrix::filled(2, 2, 1.0));
    }

    #[test]
    fn operator_overloads() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(&a + &b, Matrix::filled(2, 2, 5.0));
        assert_eq!(&a - &b, Matrix::filled(2, 2, 1.0));
        assert_eq!(&a * 2.0, Matrix::filled(2, 2, 6.0));
        assert_eq!(-(&a), Matrix::filled(2, 2, -3.0));
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 - 5.0);
        let b = Matrix::from_fn(3, 4, |r, c| (c * 3 + r) as f64 * 0.5);

        let mut m = a.clone();
        m.scale_in_place(2.5);
        assert_eq!(m, a.scale(2.5));

        let mut m = a.clone();
        m.add_assign_matrix(&b).unwrap();
        assert_eq!(m, a.add_matrix(&b).unwrap());

        let mut m = a.clone();
        m.sub_assign_matrix(&b).unwrap();
        assert_eq!(m, a.sub_matrix(&b).unwrap());
    }

    #[test]
    fn assign_operators_and_shape_errors() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 2.0);
        let mut m = a.clone();
        m += &b;
        assert_eq!(m, Matrix::filled(2, 2, 5.0));
        m -= &b;
        assert_eq!(m, a);
        m *= 2.0;
        assert_eq!(m, Matrix::filled(2, 2, 6.0));
        let wrong = Matrix::zeros(2, 3);
        assert!(m.add_assign_matrix(&wrong).is_err());
        assert!(m.sub_assign_matrix(&wrong).is_err());
    }

    #[test]
    fn fill_and_resize_rows_keep_allocation() {
        let mut m = Matrix::from_fn(4, 3, |r, c| (r + c) as f64);
        let cap = {
            m.resize_rows(4);
            m.data.capacity()
        };
        m.resize_rows(2);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        m.resize_rows(4);
        assert_eq!(m.shape(), (4, 3));
        // Rows regrown after a shrink come back zeroed.
        assert_eq!(m.row(3), &[0.0, 0.0, 0.0]);
        assert_eq!(m.data.capacity(), cap);
        m.fill(7.0);
        assert!(m.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn map_and_scale() {
        let a = Matrix::filled(2, 2, 4.0);
        assert_eq!(a.map(f64::sqrt), Matrix::filled(2, 2, 2.0));
        assert_eq!(a.scale(0.5), Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col_to_vec(0), vec![1.0, 3.0]);
    }

    #[test]
    fn row_mut_modifies() {
        let mut a = Matrix::zeros(2, 2);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.is_finite());
        a.set(0, 0, f64::NAN);
        assert!(!a.is_finite());
    }

    #[test]
    fn max_abs_finds_largest() {
        let a = Matrix::from_rows(&[&[1.0, -7.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.max_abs(), 7.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(2, 2);
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(0, 1);
    }
}
