use wlc_math::rng::Xoshiro256;
use wlc_math::Matrix;

use crate::{Activation, NnError};

/// A fully-connected layer: `a = f(W·x + b)`.
///
/// The weight matrix is `outputs × inputs`; biases are per-output. This
/// corresponds to the paper's perceptron (§2.1): each row of `W` together
/// with its bias defines one perceptron's hyperplane, and `f` is the
/// activation ("squashing") function. A layer computes nothing itself:
/// [`Mlp::forward`](crate::Mlp::forward) and the batched passes run it
/// through one GEMM kernel.
///
/// # Examples
///
/// ```
/// use wlc_nn::{Activation, DenseLayer, Mlp};
/// use wlc_math::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from(3);
/// let layer = DenseLayer::new(2, 4, Activation::tanh(), &mut rng)?;
/// assert_eq!((layer.inputs(), layer.outputs()), (2, 4));
/// let out = Mlp::from_layers(vec![layer])?.forward(&[0.5, -0.5])?;
/// assert_eq!(out.len(), 4);
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    /// `weights` transposed (`inputs × outputs`): the `a` operand of the
    /// delta GEMM (`Wᵀ · delta`), and the `b` operand of the one-row
    /// forward, whose vector runs along the outputs. Every writer of
    /// `weights` refreshes it.
    weights_t: Matrix,
    biases: Vec<f64>,
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with Xavier-uniform weights and zero biases: each
    /// weight is drawn uniformly on `[-limit, limit]`, `limit =
    /// sqrt(6 / (inputs + outputs))`, in row-major order. The paper's
    /// weights "are initialized with random values" (§3.1); this scale
    /// keeps the initial hyperplanes of logistic units cutting through
    /// standardized data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] if `inputs` or `outputs` is zero.
    pub fn new(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        rng: &mut Xoshiro256,
    ) -> Result<Self, NnError> {
        // A zero dimension draws nothing before `from_parts` rejects it.
        let weights = xavier_uniform(inputs, outputs, rng);
        DenseLayer::from_parts(weights, vec![0.0; outputs], activation)
    }

    /// Redraws every weight as [`DenseLayer::new`] does and zeroes the
    /// biases — a fresh random start on the existing topology
    /// (divergence recovery).
    pub fn reinitialize(&mut self, rng: &mut Xoshiro256) {
        self.weights = xavier_uniform(self.inputs(), self.outputs(), rng);
        self.weights.transpose_into(&mut self.weights_t);
        self.biases.fill(0.0);
    }

    /// Creates a layer from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `biases.len() != weights.rows()`
    /// and [`NnError::ZeroDimension`] for degenerate shapes.
    pub fn from_parts(
        weights: Matrix,
        biases: Vec<f64>,
        activation: Activation,
    ) -> Result<Self, NnError> {
        if weights.rows() == 0 {
            return Err(NnError::ZeroDimension { which: "outputs" });
        }
        if weights.cols() == 0 {
            return Err(NnError::ZeroDimension { which: "inputs" });
        }
        if biases.len() != weights.rows() {
            return Err(NnError::ShapeMismatch {
                expected: weights.rows(),
                actual: biases.len(),
                what: "bias length",
            });
        }
        Ok(DenseLayer {
            weights_t: weights.transpose(),
            weights,
            biases,
            activation,
        })
    }

    /// Number of inputs this layer accepts.
    pub fn inputs(&self) -> usize {
        self.weights.cols()
    }

    /// Number of outputs (perceptrons) in this layer.
    pub fn outputs(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow of the weight matrix (`outputs × inputs`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The transposed weight matrix (`inputs × outputs`), the forward
    /// GEMM's operand.
    pub(crate) fn weights_t(&self) -> &Matrix {
        &self.weights_t
    }

    /// Borrow of the bias vector.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Total number of trainable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.biases.len()
    }

    /// Copies the parameters (row-major weights, then biases) into `out`.
    pub(crate) fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.biases);
    }

    /// Reads parameters back from a flat slice; returns the number consumed.
    pub(crate) fn read_params(&mut self, flat: &[f64]) -> usize {
        let w_len = self.weights.rows() * self.weights.cols();
        self.weights.as_mut_slice().copy_from_slice(&flat[..w_len]);
        self.weights.transpose_into(&mut self.weights_t);
        let b_len = self.biases.len();
        self.biases.copy_from_slice(&flat[w_len..w_len + b_len]);
        w_len + b_len
    }
}

/// An `outputs × inputs` weight matrix drawn Xavier-uniform, in
/// row-major order.
fn xavier_uniform(inputs: usize, outputs: usize, rng: &mut Xoshiro256) -> Matrix {
    let limit = (6.0 / (inputs + outputs) as f64).sqrt();
    Matrix::from_fn(outputs, inputs, |_, _| rng.next_range(-limit, limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{forward, pre_activation};
    use crate::Mlp;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from(42)
    }

    /// A one-layer network around `layer`.
    fn net(layer: DenseLayer) -> Mlp {
        Mlp::from_layers(vec![layer]).unwrap()
    }

    #[test]
    fn new_validates_dimensions() {
        let mut r = rng();
        assert!(matches!(
            DenseLayer::new(0, 3, Activation::tanh(), &mut r),
            Err(NnError::ZeroDimension { which: "inputs" })
        ));
        assert!(matches!(
            DenseLayer::new(3, 0, Activation::tanh(), &mut r),
            Err(NnError::ZeroDimension { which: "outputs" })
        ));
    }

    // The five `forward`/`pre_activation` tests check a layer's
    // arithmetic, `f(W·x + b)`, as the oracle writes it out.

    #[test]
    fn forward_known_values() {
        let weights = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0]]).unwrap();
        let layer =
            DenseLayer::from_parts(weights, vec![1.0, 0.0], Activation::identity()).unwrap();
        let out = forward(&net(layer), &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![4.0, -0.5]);
    }

    #[test]
    fn forward_applies_activation() {
        let weights = Matrix::from_rows(&[&[1.0]]).unwrap();
        let mlp = net(DenseLayer::from_parts(weights, vec![0.0], Activation::Relu).unwrap());
        assert_eq!(forward(&mlp, &[-3.0]).unwrap(), vec![0.0]);
        assert_eq!(forward(&mlp, &[3.0]).unwrap(), vec![3.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut r = rng();
        let layer = DenseLayer::new(3, 2, Activation::tanh(), &mut r).unwrap();
        assert!(matches!(
            forward(&net(layer), &[1.0, 2.0]),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_validates_bias_length() {
        let weights = Matrix::zeros(2, 2);
        assert!(matches!(
            DenseLayer::from_parts(weights, vec![0.0], Activation::tanh()),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn param_count_counts_weights_and_biases() {
        let mut r = rng();
        let layer = DenseLayer::new(3, 4, Activation::tanh(), &mut r).unwrap();
        assert_eq!(layer.param_count(), 3 * 4 + 4);
    }

    #[test]
    fn param_roundtrip() {
        let mut r = rng();
        let mut a = DenseLayer::new(3, 2, Activation::tanh(), &mut r).unwrap();
        let mut flat = Vec::new();
        a.write_params(&mut flat);
        assert_eq!(flat.len(), a.param_count());

        let mut b = DenseLayer::new(3, 2, Activation::tanh(), &mut r).unwrap();
        let consumed = b.read_params(&flat);
        assert_eq!(consumed, flat.len());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.biases(), b.biases());
        // And reading into the original is a no-op.
        let before = a.clone();
        a.read_params(&flat);
        assert_eq!(a, before);
    }

    #[test]
    fn pre_activation_rejects_wrong_widths() {
        let mut r = rng();
        let layer = DenseLayer::new(5, 3, Activation::tanh(), &mut r).unwrap();
        let input = [0.3, -0.8, 1.5, 0.0, -0.1];
        assert_eq!(pre_activation(&layer, &input).unwrap().len(), 3);
        // Wrong widths are rejected, not panicked on.
        assert!(pre_activation(&layer, &input[..3]).is_err());
        assert!(pre_activation(&layer, &[0.0; 6]).is_err());
    }

    #[test]
    fn pre_activation_excludes_activation() {
        let weights = Matrix::from_rows(&[&[2.0]]).unwrap();
        let layer = DenseLayer::from_parts(weights, vec![1.0], Activation::Relu).unwrap();
        assert_eq!(pre_activation(&layer, &[-2.0]).unwrap(), vec![-3.0]);
        assert_eq!(forward(&net(layer), &[-2.0]).unwrap(), vec![0.0]);
    }

    #[test]
    fn initialization_is_seeded() {
        let mut r1 = rng();
        let mut r2 = rng();
        let a = DenseLayer::new(4, 4, Activation::tanh(), &mut r1).unwrap();
        let b = DenseLayer::new(4, 4, Activation::tanh(), &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn new_layer_biases_are_zero() {
        let mut r = rng();
        let layer = DenseLayer::new(2, 3, Activation::tanh(), &mut r).unwrap();
        assert!(layer.biases().iter().all(|&b| b == 0.0));
    }
}
