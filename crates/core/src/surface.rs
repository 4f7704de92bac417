use wlc_math::Matrix;
use wlc_nn::BandEngine;

use crate::model::{PredictScratch, WorkloadModel};
use crate::{ModelError, PerformanceModel};

/// A specification for the paper's "3D diagrams" (§5): fix all but two
/// configuration parameters, sweep the remaining two over grids, and
/// evaluate one predicted performance indicator at every grid point.
///
/// The paper's Figures 4/7/8 are all `(560, x, 16, y)` — injection rate
/// and mfg queue fixed, default and web queues swept.
///
/// # Examples
///
/// ```
/// use wlc_model::{ResponseSurface, PerformanceModel, ModelError};
///
/// // A toy model: z = x0 + 2·x1, 1 output.
/// struct Plane;
/// impl PerformanceModel for Plane {
///     fn inputs(&self) -> usize { 2 }
///     fn outputs(&self) -> usize { 1 }
///     fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
///         Ok(vec![x[0] + 2.0 * x[1]])
///     }
/// }
///
/// let surface = ResponseSurface::new(vec![0.0, 0.0], 0, vec![0.0, 1.0], 1, vec![0.0, 1.0], 0)?;
/// let grid = surface.evaluate(&Plane)?;
/// assert_eq!(grid.z().get(1, 1), 3.0);
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSurface {
    base: Vec<f64>,
    axis1: usize,
    axis1_values: Vec<f64>,
    axis2: usize,
    axis2_values: Vec<f64>,
    output: usize,
}

impl ResponseSurface {
    /// Creates a surface specification.
    ///
    /// - `base` — the full configuration vector; the entries at `axis1`
    ///   and `axis2` are overwritten during the sweep.
    /// - `axis1`/`axis2` — indices of the two swept parameters.
    /// - `output` — index of the predicted indicator to plot.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the axes coincide, an
    /// index is out of range, or a value list is empty.
    pub fn new(
        base: Vec<f64>,
        axis1: usize,
        axis1_values: Vec<f64>,
        axis2: usize,
        axis2_values: Vec<f64>,
        output: usize,
    ) -> Result<Self, ModelError> {
        if axis1 == axis2 {
            return Err(ModelError::InvalidParameter {
                name: "axis2",
                reason: "must differ from axis1",
            });
        }
        if axis1 >= base.len() || axis2 >= base.len() {
            return Err(ModelError::InvalidParameter {
                name: "axis1/axis2",
                reason: "must index into the base configuration",
            });
        }
        if axis1_values.is_empty() || axis2_values.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "axis values",
                reason: "must not be empty",
            });
        }
        Ok(ResponseSurface {
            base,
            axis1,
            axis1_values,
            axis2,
            axis2_values,
            output,
        })
    }

    /// Index of the plotted output indicator.
    pub fn output(&self) -> usize {
        self.output
    }

    /// Evaluates the surface through a model: every grid cell is one
    /// row of a single [`PerformanceModel::predict_batch`] call, in
    /// row-major order, so a failing cell reports the error of the first
    /// failing cell in that order.
    ///
    /// # Errors
    ///
    /// - [`ModelError::WidthMismatch`] if the base configuration width or
    ///   output index do not match the model.
    /// - Any error the model returns for a grid cell.
    pub fn evaluate(&self, model: &dyn PerformanceModel) -> Result<SurfaceGrid, ModelError> {
        self.check(model)?;
        let preds = model.predict_batch(&self.configs())?;
        Ok(self.grid_of(&preds, self.output))
    }

    /// [`evaluate`](Self::evaluate) for a [`WorkloadModel`], with the
    /// grid's row bands fanned out over `engine`'s persistent band-pool
    /// team. Bitwise identical to [`evaluate`](Self::evaluate) for any
    /// team size: each grid cell is one batch row and rows never
    /// interact.
    ///
    /// # Errors
    ///
    /// As for [`evaluate`](Self::evaluate).
    pub fn evaluate_banded(
        &self,
        model: &WorkloadModel,
        engine: &mut BandEngine,
    ) -> Result<SurfaceGrid, ModelError> {
        self.check(model)?;
        let mut scratch = PredictScratch::new();
        let preds = model.predict_batch_engine(&self.configs(), &mut scratch, engine)?;
        Ok(self.grid_of(preds, self.output))
    }

    fn check(&self, model: &dyn PerformanceModel) -> Result<(), ModelError> {
        if self.base.len() != model.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: model.inputs(),
                actual: self.base.len(),
                what: "base configuration",
            });
        }
        if self.output >= model.outputs() {
            return Err(ModelError::InvalidParameter {
                name: "output",
                reason: "output index exceeds the model's outputs",
            });
        }
        Ok(())
    }

    /// Every grid cell as one configuration row, row-major: cell
    /// `(i, j)` is row `i * axis2_values.len() + j`.
    fn configs(&self) -> Matrix {
        let n2 = self.axis2_values.len();
        let mut configs = Matrix::zeros(self.axis1_values.len() * n2, self.base.len());
        for (i, &a) in self.axis1_values.iter().enumerate() {
            for (j, &b) in self.axis2_values.iter().enumerate() {
                let row = configs.row_mut(i * n2 + j);
                row.copy_from_slice(&self.base);
                row[self.axis1] = a;
                row[self.axis2] = b;
            }
        }
        configs
    }

    /// Output `output` of row-major grid predictions, as a grid.
    fn grid_of(&self, preds: &Matrix, output: usize) -> SurfaceGrid {
        let n2 = self.axis2_values.len();
        SurfaceGrid {
            axis1_values: self.axis1_values.clone(),
            axis2_values: self.axis2_values.clone(),
            z: Matrix::from_fn(self.axis1_values.len(), n2, |i, j| {
                preds.row(i * n2 + j)[output]
            }),
        }
    }
}

/// Evaluates surfaces for *every* output indicator of a model at once,
/// predicting the grid once in one [`PerformanceModel::predict_batch`]
/// call — the efficient way to produce the full set of the paper's 3-D
/// diagrams for one operating point.
///
/// The `output` field of the spec is ignored; one [`SurfaceGrid`] per
/// model output is returned, in output order.
///
/// # Errors
///
/// As for [`ResponseSurface::evaluate`].
///
/// # Examples
///
/// See `examples/surface_explorer.rs`.
pub fn evaluate_all(
    spec: &ResponseSurface,
    model: &dyn PerformanceModel,
) -> Result<Vec<SurfaceGrid>, ModelError> {
    if spec.base.len() != model.inputs() {
        return Err(ModelError::WidthMismatch {
            expected: model.inputs(),
            actual: spec.base.len(),
            what: "base configuration",
        });
    }
    let preds = model.predict_batch(&spec.configs())?;
    Ok((0..model.outputs())
        .map(|o| spec.grid_of(&preds, o))
        .collect())
}

/// An evaluated response surface: `z[i][j]` is the predicted indicator at
/// `(axis1_values[i], axis2_values[j])`.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceGrid {
    axis1_values: Vec<f64>,
    axis2_values: Vec<f64>,
    z: Matrix,
}

impl SurfaceGrid {
    /// Builds a grid from raw parts (mainly for tests and custom sources).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if the matrix shape does not
    /// match the axis lengths.
    pub fn from_parts(
        axis1_values: Vec<f64>,
        axis2_values: Vec<f64>,
        z: Matrix,
    ) -> Result<Self, ModelError> {
        if z.rows() != axis1_values.len() || z.cols() != axis2_values.len() {
            return Err(ModelError::WidthMismatch {
                expected: axis1_values.len() * axis2_values.len(),
                actual: z.rows() * z.cols(),
                what: "surface grid",
            });
        }
        Ok(SurfaceGrid {
            axis1_values,
            axis2_values,
            z,
        })
    }

    /// Values swept on the first axis (grid rows).
    pub fn axis1_values(&self) -> &[f64] {
        &self.axis1_values
    }

    /// Values swept on the second axis (grid columns).
    pub fn axis2_values(&self) -> &[f64] {
        &self.axis2_values
    }

    /// The raw grid (rows = axis1, cols = axis2).
    pub fn z(&self) -> &Matrix {
        &self.z
    }

    /// `(i, j, value)` of the smallest grid value.
    pub fn min_cell(&self) -> (usize, usize, f64) {
        self.extreme_cell(|a, b| a < b)
    }

    /// `(i, j, value)` of the largest grid value.
    pub fn max_cell(&self) -> (usize, usize, f64) {
        self.extreme_cell(|a, b| a > b)
    }

    fn extreme_cell(&self, better: impl Fn(f64, f64) -> bool) -> (usize, usize, f64) {
        let mut best = (0, 0, self.z.get(0, 0));
        for i in 0..self.z.rows() {
            for j in 0..self.z.cols() {
                let v = self.z.get(i, j);
                if better(v, best.2) {
                    best = (i, j, v);
                }
            }
        }
        best
    }

    /// The mean of all grid values.
    pub fn mean(&self) -> f64 {
        let n = (self.z.rows() * self.z.cols()) as f64;
        self.z.as_slice().iter().sum::<f64>() / n
    }

    /// Serializes as tab-separated rows (axis2 as header), gnuplot-ready.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("axis1\\axis2");
        for b in &self.axis2_values {
            out.push_str(&format!("\t{b}"));
        }
        out.push('\n');
        for (i, a) in self.axis1_values.iter().enumerate() {
            out.push_str(&format!("{a}"));
            for j in 0..self.axis2_values.len() {
                out.push_str(&format!("\t{:.6}", self.z.get(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// z = (x0 − 3)² + (x1 − 4)², 1 output, 2 inputs.
    struct Bowl;
    impl PerformanceModel for Bowl {
        fn inputs(&self) -> usize {
            2
        }
        fn outputs(&self) -> usize {
            1
        }
        fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
            Ok(vec![(x[0] - 3.0).powi(2) + (x[1] - 4.0).powi(2)])
        }
    }

    /// 4-input, 2-output model mirroring the paper's shape.
    struct Wide;
    impl PerformanceModel for Wide {
        fn inputs(&self) -> usize {
            4
        }
        fn outputs(&self) -> usize {
            2
        }
        fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
            Ok(vec![x[1] + x[3], x[0] * 0.001 + x[2]])
        }
    }

    fn axis(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn evaluate_sweeps_both_axes() {
        let s = ResponseSurface::new(vec![0.0, 0.0], 0, axis(7), 1, axis(9), 0).unwrap();
        let grid = s.evaluate(&Bowl).unwrap();
        assert_eq!(grid.z().shape(), (7, 9));
        let (i, j, v) = grid.min_cell();
        assert_eq!((i, j), (3, 4));
        assert_eq!(v, 0.0);
    }

    #[test]
    fn fixed_parameters_stay_fixed() {
        // Sweep axes 1 and 3 of the 4-input model; outputs read axis 0/2
        // from the base.
        let s =
            ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(3), 3, axis(3), 1).unwrap();
        let grid = s.evaluate(&Wide).unwrap();
        // Output 1 = 0.001·560 + 16 = 16.56 everywhere (independent of axes).
        for i in 0..3 {
            for j in 0..3 {
                assert!((grid.z().get(i, j) - 16.56).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn output_selection() {
        let s =
            ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(2), 3, axis(2), 0).unwrap();
        let grid = s.evaluate(&Wide).unwrap();
        // Output 0 = x1 + x3.
        assert_eq!(grid.z().get(1, 1), 2.0);
        assert_eq!(grid.z().get(0, 1), 1.0);
    }

    #[test]
    fn constructor_validation() {
        assert!(ResponseSurface::new(vec![0.0; 2], 0, axis(2), 0, axis(2), 0).is_err());
        assert!(ResponseSurface::new(vec![0.0; 2], 0, axis(2), 5, axis(2), 0).is_err());
        assert!(ResponseSurface::new(vec![0.0; 2], 0, vec![], 1, axis(2), 0).is_err());
    }

    #[test]
    fn evaluate_validation() {
        let s = ResponseSurface::new(vec![0.0; 3], 0, axis(2), 1, axis(2), 0).unwrap();
        assert!(matches!(
            s.evaluate(&Bowl),
            Err(ModelError::WidthMismatch { .. })
        ));
        let s2 = ResponseSurface::new(vec![0.0; 2], 0, axis(2), 1, axis(2), 7).unwrap();
        assert!(s2.evaluate(&Bowl).is_err());
    }

    #[test]
    fn evaluate_all_matches_per_output_evaluation() {
        let spec =
            ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(3), 3, axis(4), 0).unwrap();
        let all = evaluate_all(&spec, &Wide).unwrap();
        assert_eq!(all.len(), 2);
        #[allow(clippy::needless_range_loop)] // `output` is also a spec argument below
        for output in 0..2 {
            let single =
                ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(3), 3, axis(4), output)
                    .unwrap()
                    .evaluate(&Wide)
                    .unwrap();
            assert_eq!(all[output], single, "output {output}");
        }
    }

    #[test]
    fn evaluate_all_validates_width() {
        let spec = ResponseSurface::new(vec![0.0; 3], 0, axis(2), 1, axis(2), 0).unwrap();
        assert!(evaluate_all(&spec, &Bowl).is_err());
    }

    #[test]
    fn grid_stats() {
        let s = ResponseSurface::new(vec![0.0, 0.0], 0, axis(7), 1, axis(9), 0).unwrap();
        let grid = s.evaluate(&Bowl).unwrap();
        let (_, _, max) = grid.max_cell();
        assert_eq!(max, 9.0 + 16.0); // corner (0,0): 9 + 16
        assert!(grid.mean() > 0.0);
    }

    #[test]
    fn from_parts_validates_shape() {
        let z = Matrix::zeros(2, 3);
        assert!(SurfaceGrid::from_parts(vec![0.0, 1.0], vec![0.0, 1.0, 2.0], z.clone()).is_ok());
        assert!(SurfaceGrid::from_parts(vec![0.0], vec![0.0, 1.0, 2.0], z).is_err());
    }

    #[test]
    fn tsv_contains_grid() {
        let s = ResponseSurface::new(vec![0.0, 0.0], 0, axis(2), 1, axis(2), 0).unwrap();
        let grid = s.evaluate(&Bowl).unwrap();
        let tsv = grid.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.contains('\t'));
    }
}
