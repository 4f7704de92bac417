use wlc_math::rng::{Seed, Xoshiro256};
use wlc_math::Matrix;

use crate::{Activation, DenseLayer, Initializer, NnError};

/// A multilayer perceptron: a stack of [`DenseLayer`]s.
///
/// Matches the paper's §2.2: an input layer (not counted), one or more
/// hidden layers of perceptrons, and an output layer. For regression the
/// output layer conventionally uses [`Activation::Identity`] so predictions
/// are not squashed.
///
/// Construct with [`MlpBuilder`]:
///
/// ```
/// use wlc_nn::{Activation, MlpBuilder};
///
/// // The paper's case study shape: 4 inputs, 5 outputs.
/// let mlp = MlpBuilder::new(4)
///     .hidden(16, Activation::logistic())
///     .hidden(16, Activation::logistic())
///     .output(5, Activation::identity())
///     .seed(1)
///     .build()?;
/// assert_eq!(mlp.inputs(), 4);
/// assert_eq!(mlp.outputs(), 5);
/// let y = mlp.forward(&[0.0, 0.1, -0.3, 1.0])?;
/// assert_eq!(y.len(), 5);
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Creates an MLP directly from layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty layer list and
    /// [`NnError::ShapeMismatch`] if consecutive layers do not chain.
    pub fn from_layers(layers: Vec<DenseLayer>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        for pair in layers.windows(2) {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(NnError::ShapeMismatch {
                    expected: pair[0].outputs(),
                    actual: pair[1].inputs(),
                    what: "layer chaining",
                });
            }
        }
        Ok(Mlp { layers })
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Number of output values.
    pub fn outputs(&self) -> usize {
        self.layers[self.layers.len() - 1].outputs()
    }

    /// The layers, input-to-output.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Layer widths including the input layer, e.g. `[4, 16, 16, 5]`.
    pub fn topology(&self) -> Vec<usize> {
        let mut t = vec![self.inputs()];
        t.extend(self.layers.iter().map(DenseLayer::outputs));
        t
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(DenseLayer::param_count).sum()
    }

    /// Runs the forward pass for one input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `input.len() != self.inputs()`.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>, NnError> {
        self.layers
            .iter()
            .try_fold(input.to_vec(), |acts, layer| layer.forward(&acts))
    }

    /// Shape validation shared by the gradient entry points (the batched
    /// path, the band pool and the oracle).
    pub(crate) fn check_batch_shapes(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
    ) -> Result<(), NnError> {
        if inputs.rows() == 0 {
            return Err(NnError::EmptyTrainingSet);
        }
        if targets.rows() != inputs.rows() {
            return Err(NnError::ShapeMismatch {
                expected: inputs.rows(),
                actual: targets.rows(),
                what: "target row count",
            });
        }
        if targets.cols() != self.outputs() {
            return Err(NnError::ShapeMismatch {
                expected: self.outputs(),
                actual: targets.cols(),
                what: "target width",
            });
        }
        if inputs.cols() != self.inputs() {
            return Err(NnError::ShapeMismatch {
                expected: self.inputs(),
                actual: inputs.cols(),
                what: "input width",
            });
        }
        Ok(())
    }

    /// Copies all parameters into one flat vector (per layer: row-major
    /// weights, then biases).
    pub fn params_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`Mlp::params_flat`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `flat.len() != self.param_count()`.
    pub fn set_params_flat(&mut self, flat: &[f64]) -> Result<(), NnError> {
        if flat.len() != self.param_count() {
            return Err(NnError::ShapeMismatch {
                expected: self.param_count(),
                actual: flat.len(),
                what: "flat parameter length",
            });
        }
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.read_params(&flat[off..]);
        }
        Ok(())
    }

    /// Resamples every weight from `init` (seeded by `seed`) and zeroes
    /// the biases, keeping the topology — the trainer's divergence
    /// recovery uses this for a fresh random start per retry attempt.
    pub fn reinitialize(&mut self, init: Initializer, seed: u64) {
        let mut rng = Xoshiro256::seed_from(seed);
        for layer in &mut self.layers {
            layer.reinitialize(init, &mut rng);
        }
    }

    /// Returns `true` if every parameter is finite.
    pub fn is_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.weights().is_finite() && l.biases().iter().all(|b| b.is_finite()))
    }

    /// Validates a network before it is allowed to serve predictions —
    /// the entry point a server's hot-reload path runs on every candidate
    /// model: the expected input/output widths must match and every
    /// parameter must be finite.
    ///
    /// # Errors
    ///
    /// - [`NnError::ShapeMismatch`] if the topology does not provide
    ///   `inputs → outputs`.
    /// - [`NnError::NonFinite`] naming the first offending layer if any
    ///   weight or bias is NaN or infinite.
    pub fn validate(&self, inputs: usize, outputs: usize) -> Result<(), NnError> {
        if self.inputs() != inputs {
            return Err(NnError::ShapeMismatch {
                expected: inputs,
                actual: self.inputs(),
                what: "network input width",
            });
        }
        if self.outputs() != outputs {
            return Err(NnError::ShapeMismatch {
                expected: outputs,
                actual: self.outputs(),
                what: "network output width",
            });
        }
        for (index, layer) in self.layers.iter().enumerate() {
            if !layer.weights().is_finite() {
                return Err(NnError::NonFinite {
                    what: format!("layer {index} weights"),
                });
            }
            if !layer.biases().iter().all(|b| b.is_finite()) {
                return Err(NnError::NonFinite {
                    what: format!("layer {index} biases"),
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`Mlp`] networks.
///
/// See the paper's §3.2 on choosing the hidden node count; there is "no
/// definite answer", so the builder makes the topology fully explicit.
///
/// # Examples
///
/// ```
/// use wlc_nn::{Activation, Initializer, MlpBuilder};
///
/// let mlp = MlpBuilder::new(2)
///     .hidden(8, Activation::tanh())
///     .output(1, Activation::identity())
///     .initializer(Initializer::XavierNormal)
///     .seed(99)
///     .build()?;
/// assert_eq!(mlp.topology(), vec![2, 8, 1]);
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    inputs: usize,
    layers: Vec<(usize, Activation)>,
    has_output: bool,
    initializer: Initializer,
    seed: Seed,
}

impl MlpBuilder {
    /// Starts a builder for a network with `inputs` input features.
    pub fn new(inputs: usize) -> Self {
        MlpBuilder {
            inputs,
            layers: Vec::new(),
            has_output: false,
            initializer: Initializer::default(),
            seed: Seed::new(0),
        }
    }

    /// Appends a hidden layer of `width` perceptrons.
    pub fn hidden(mut self, width: usize, activation: Activation) -> Self {
        self.layers.push((width, activation));
        self
    }

    /// Appends the output layer. Must be called exactly once, last.
    pub fn output(mut self, width: usize, activation: Activation) -> Self {
        self.layers.push((width, activation));
        self.has_output = true;
        self
    }

    /// Sets the weight initializer (default: Xavier uniform).
    pub fn initializer(mut self, initializer: Initializer) -> Self {
        self.initializer = initializer;
        self
    }

    /// Sets the RNG seed used for weight initialization (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Seed::new(seed);
        self
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// - [`NnError::ZeroDimension`] if the input width or any layer width
    ///   is zero.
    /// - [`NnError::EmptyNetwork`] if [`MlpBuilder::output`] was never
    ///   called.
    pub fn build(&self) -> Result<Mlp, NnError> {
        if self.inputs == 0 {
            return Err(NnError::ZeroDimension { which: "inputs" });
        }
        if !self.has_output || self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut rng = Xoshiro256::from_seed(self.seed);
        let mut built = Vec::with_capacity(self.layers.len());
        let mut fan_in = self.inputs;
        for &(width, activation) in &self.layers {
            built.push(DenseLayer::new(
                fan_in,
                width,
                activation,
                self.initializer,
                &mut rng,
            )?);
            fan_in = width;
        }
        Mlp::from_layers(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loss, OptimizerKind, Workspace};

    fn tiny_mlp() -> Mlp {
        MlpBuilder::new(2)
            .hidden(3, Activation::tanh())
            .output(2, Activation::identity())
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_shapes() {
        let mlp = tiny_mlp();
        assert_eq!(mlp.inputs(), 2);
        assert_eq!(mlp.outputs(), 2);
        assert_eq!(mlp.topology(), vec![2, 3, 2]);
        assert_eq!(mlp.param_count(), (2 * 3 + 3) + (3 * 2 + 2));
    }

    #[test]
    fn builder_requires_output() {
        let err = MlpBuilder::new(2).hidden(3, Activation::tanh()).build();
        assert!(matches!(err, Err(NnError::EmptyNetwork)));
    }

    #[test]
    fn builder_rejects_zero_widths() {
        assert!(MlpBuilder::new(0)
            .output(1, Activation::identity())
            .build()
            .is_err());
        assert!(MlpBuilder::new(2)
            .hidden(0, Activation::tanh())
            .output(1, Activation::identity())
            .build()
            .is_err());
    }

    #[test]
    fn builder_is_seed_deterministic() {
        let a = tiny_mlp();
        let b = tiny_mlp();
        assert_eq!(a, b);
        let c = MlpBuilder::new(2)
            .hidden(3, Activation::tanh())
            .output(2, Activation::identity())
            .seed(12)
            .build()
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn from_layers_validates_chaining() {
        let mut rng = Xoshiro256::seed_from(0);
        let l1 =
            DenseLayer::new(2, 3, Activation::tanh(), Initializer::default(), &mut rng).unwrap();
        let l2 = DenseLayer::new(
            4,
            1,
            Activation::identity(),
            Initializer::default(),
            &mut rng,
        )
        .unwrap();
        assert!(matches!(
            Mlp::from_layers(vec![l1, l2]),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Mlp::from_layers(vec![]),
            Err(NnError::EmptyNetwork)
        ));
    }

    #[test]
    fn forward_width_checked() {
        let mlp = tiny_mlp();
        assert!(mlp.forward(&[1.0]).is_err());
        assert!(mlp.forward(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn forward_batch_matches_forward() {
        let mlp = tiny_mlp();
        let xs = Matrix::from_rows(&[&[0.1, 0.2], &[-0.5, 0.9]]).unwrap();
        let mut ws = Workspace::for_mlp(&mlp);
        let batch = mlp.forward_batch_with(&xs, &mut ws).unwrap();
        for r in 0..2 {
            let single = mlp.forward(xs.row(r)).unwrap();
            assert_eq!(batch.row(r), single.as_slice());
        }
    }

    #[test]
    fn identity_network_computes_affine() {
        // Single identity layer == plain affine map.
        let w = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let layer = DenseLayer::from_parts(w, vec![1.0, -1.0], Activation::identity()).unwrap();
        let mlp = Mlp::from_layers(vec![layer]).unwrap();
        assert_eq!(mlp.forward(&[1.0, 1.0]).unwrap(), vec![3.0, 2.0]);
    }

    #[test]
    fn params_flat_roundtrip() {
        let mlp = tiny_mlp();
        let params = mlp.params_flat();
        assert_eq!(params.len(), mlp.param_count());

        let mut other = MlpBuilder::new(2)
            .hidden(3, Activation::tanh())
            .output(2, Activation::identity())
            .seed(999)
            .build()
            .unwrap();
        assert_ne!(other.params_flat(), params);
        other.set_params_flat(&params).unwrap();
        assert_eq!(other.params_flat(), params);
        // Networks with identical params produce identical outputs.
        let x = [0.3, -0.7];
        assert_eq!(other.forward(&x).unwrap(), mlp.forward(&x).unwrap());
    }

    #[test]
    fn set_params_flat_length_checked() {
        let mut mlp = tiny_mlp();
        assert!(mlp.set_params_flat(&[0.0]).is_err());
    }

    #[test]
    fn batch_gradient_validates_shapes() {
        let mlp = tiny_mlp();
        let mut ws = Workspace::for_mlp(&mlp);
        let xs = Matrix::zeros(2, 2);
        let bad_rows = Matrix::zeros(3, 2);
        let bad_cols = Matrix::zeros(2, 5);
        let empty = Matrix::zeros(0, 2);
        let mse = Loss::MeanSquared;
        assert!(mlp
            .batch_gradient_with(&xs, &bad_rows, mse, &mut ws)
            .is_err());
        assert!(mlp
            .batch_gradient_with(&xs, &bad_cols, mse, &mut ws)
            .is_err());
        assert!(matches!(
            mlp.batch_gradient_with(&empty, &empty, mse, &mut ws),
            Err(NnError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut mlp = tiny_mlp();
        let mut ws = Workspace::for_mlp(&mlp);
        let xs = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let ys = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let mse = Loss::MeanSquared;
        let initial = mlp.batch_gradient_with(&xs, &ys, mse, &mut ws).unwrap();
        for _ in 0..200 {
            mlp.batch_gradient_with(&xs, &ys, mse, &mut ws).unwrap();
            let mut params = mlp.params_flat();
            OptimizerKind::Sgd
                .into_optimizer()
                .step(&mut params, ws.grad(), 0.5)
                .unwrap();
            mlp.set_params_flat(&params).unwrap();
        }
        let after = mlp.batch_gradient_with(&xs, &ys, mse, &mut ws).unwrap();
        assert!(
            after < initial * 0.5,
            "loss did not drop: {initial} -> {after}"
        );
    }

    #[test]
    fn is_finite_detects_corruption() {
        let mut mlp = tiny_mlp();
        assert!(mlp.is_finite());
        let mut params = mlp.params_flat();
        params[0] = f64::NAN;
        mlp.set_params_flat(&params).unwrap();
        assert!(!mlp.is_finite());
    }

    #[test]
    fn validate_checks_dims_and_finiteness() {
        let mut mlp = tiny_mlp();
        assert!(mlp.validate(2, 2).is_ok());
        assert!(matches!(
            mlp.validate(4, 2),
            Err(NnError::ShapeMismatch { expected: 4, .. })
        ));
        assert!(matches!(
            mlp.validate(2, 5),
            Err(NnError::ShapeMismatch { expected: 5, .. })
        ));
        let mut params = mlp.params_flat();
        params[0] = f64::INFINITY;
        mlp.set_params_flat(&params).unwrap();
        let err = mlp.validate(2, 2).unwrap_err();
        assert!(
            matches!(&err, NnError::NonFinite { what } if what.contains("layer 0")),
            "{err}"
        );
    }

    #[test]
    fn deep_network_forward_works() {
        let mlp = MlpBuilder::new(3)
            .hidden(8, Activation::logistic())
            .hidden(8, Activation::logistic())
            .hidden(8, Activation::logistic())
            .output(2, Activation::identity())
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(mlp.topology(), vec![3, 8, 8, 8, 2]);
        let y = mlp.forward(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(y.len(), 2);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
