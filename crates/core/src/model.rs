use std::path::{Path, PathBuf};

use wlc_data::metrics::ErrorReport;
use wlc_data::{Dataset, Scaler};
use wlc_fault::FsHandle;
use wlc_math::Matrix;
use wlc_nn::{
    Activation, BandEngine, Checkpoint, Loss, Mlp, MlpBuilder, OptimizerKind, TrainConfig,
    TrainReport, Trainer, Workspace,
};

use crate::ModelError;

/// Anything that maps a workload configuration to predicted performance
/// indicators — implemented by [`WorkloadModel`] and by every baseline in
/// [`crate::baseline`], so surfaces, classification and tuning work with
/// either.
pub trait PerformanceModel {
    /// Number of configuration parameters.
    fn inputs(&self) -> usize;

    /// Number of performance indicators.
    fn outputs(&self) -> usize;

    /// Predicts the indicator vector for one raw configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if `x.len() != self.inputs()`.
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError>;

    /// Predicts for every row of `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if `xs.cols() != self.inputs()`.
    fn predict_batch(&self, xs: &Matrix) -> Result<Matrix, ModelError> {
        let mut out = Matrix::zeros(xs.rows(), self.outputs());
        for r in 0..xs.rows() {
            let y = self.predict(xs.row(r))?;
            out.row_mut(r).copy_from_slice(&y);
        }
        Ok(out)
    }
}

/// Reusable scratch for [`WorkloadModel::predict_batch_engine`] —
/// a serving worker keeps one of these alive across requests so the
/// steady-state prediction path performs no heap allocations.
///
/// The scratch adapts itself: if the served model's topology changes
/// (hot reload) or a request carries a different batch size, the buffers
/// are rebuilt/regrown on the next call, then reused again.
#[derive(Debug, Clone)]
pub struct PredictScratch {
    scaled: Matrix,
    out: Matrix,
    ws: Option<Workspace>,
}

impl PredictScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        PredictScratch {
            scaled: Matrix::zeros(0, 0),
            out: Matrix::zeros(0, 0),
            ws: None,
        }
    }
}

impl Default for PredictScratch {
    fn default() -> Self {
        PredictScratch::new()
    }
}

/// Feature/indicator scaling applied around the MLP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScalingKind {
    /// Z-score standardization — the paper's mandated preprocessing
    /// (§3.1).
    Standard,
    /// Min-max scaling to `[0, 1]` (ablation alternative).
    MinMax,
    /// No scaling (ablation: demonstrates the local-minimum failure the
    /// paper warns about).
    None,
}

impl ScalingKind {
    fn fit(self, data: &Matrix) -> Result<Scaler, ModelError> {
        Ok(match self {
            ScalingKind::Standard => Scaler::standard_fit(data)?,
            ScalingKind::MinMax => Scaler::min_max_fit(data)?,
            ScalingKind::None => Scaler::identity(data.cols()),
        })
    }
}

/// The paper's non-linear workload model: input standardization, an MLP
/// core, and output de-standardization.
///
/// One model covers all `n → m` indicators at once: the paper opts "to
/// approximate each workload with 1 instance of n-to-m relation in the
/// belief that it will model the synthetic behavior of the application
/// more accurately" (§3.2).
///
/// Built (and trained) by [`WorkloadModelBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    input_names: Vec<String>,
    output_names: Vec<String>,
    input_scaler: Scaler,
    output_scaler: Scaler,
    mlp: Mlp,
}

impl WorkloadModel {
    /// Input (configuration) column names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output (indicator) column names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The underlying network topology, e.g. `[4, 16, 12, 5]`.
    pub fn topology(&self) -> Vec<usize> {
        self.mlp.topology()
    }

    /// Batched prediction through caller-owned scratch buffers, with the
    /// forward pass's row bands fanned out over `engine`'s worker team —
    /// the allocation-free serving path.
    ///
    /// Bit-identical to calling [`PerformanceModel::predict`] on each row
    /// (the batched forward pass is a GEMM with the same fixed
    /// accumulation order as the per-row path) for any team size: band
    /// geometry and per-element reduction order never depend on the
    /// worker count. Once `scratch` has been warmed by a call of the same
    /// batch size and topology, no heap allocation occurs. The returned
    /// matrix borrows from `scratch` and is valid until the next call.
    ///
    /// # Errors
    ///
    /// - [`ModelError::WidthMismatch`] if `xs.cols() != self.inputs()`.
    /// - [`ModelError::NonFiniteInput`] for non-finite raw or
    ///   standardized features (same checks as `predict`).
    pub fn predict_batch_engine<'s>(
        &self,
        xs: &Matrix,
        scratch: &'s mut PredictScratch,
        engine: &mut BandEngine,
    ) -> Result<&'s Matrix, ModelError> {
        if xs.cols() != self.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: self.inputs(),
                actual: xs.cols(),
                what: "configuration",
            });
        }
        let PredictScratch { scaled, out, ws } = scratch;
        self.scale_inputs(xs, scaled)?;
        let workspace = match ws {
            Some(w) if w.matches(&self.mlp) => w,
            _ => ws.insert(Workspace::for_mlp(&self.mlp)),
        };
        let acts = engine.forward_batch(&self.mlp, scaled, workspace)?;
        Self::unscale_outputs(&self.output_scaler, acts, out)?;
        Ok(out)
    }

    /// Copies `xs` into `scaled` and standardizes each row in place,
    /// rejecting non-finite raw or standardized features.
    fn scale_inputs(&self, xs: &Matrix, scaled: &mut Matrix) -> Result<(), ModelError> {
        if scaled.cols() != xs.cols() {
            *scaled = Matrix::zeros(0, xs.cols());
        }
        scaled.resize_rows(xs.rows());
        for r in 0..xs.rows() {
            let row = scaled.row_mut(r);
            row.copy_from_slice(xs.row(r));
            if let Some(index) = row.iter().position(|v| !v.is_finite()) {
                return Err(ModelError::NonFiniteInput {
                    index,
                    stage: "raw",
                });
            }
            self.input_scaler.transform_row(row)?;
            // Finite input can still standardize to ±inf or NaN against a
            // degenerate scaler — reject before it floods the network.
            if let Some(index) = row.iter().position(|v| !v.is_finite()) {
                return Err(ModelError::NonFiniteInput {
                    index,
                    stage: "standardized",
                });
            }
        }
        Ok(())
    }

    /// De-standardizes network activations into `out`.
    fn unscale_outputs(
        output_scaler: &Scaler,
        acts: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ModelError> {
        if out.cols() != acts.cols() {
            *out = Matrix::zeros(0, acts.cols());
        }
        out.resize_rows(acts.rows());
        for r in 0..acts.rows() {
            let row = out.row_mut(r);
            row.copy_from_slice(acts.row(r));
            output_scaler.inverse_row(row)?;
        }
        Ok(())
    }

    /// Evaluates prediction error on a labelled dataset, producing the
    /// per-indicator report used by the Table 2 reproduction.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] for incompatible widths and
    /// propagates metric errors.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<ErrorReport, ModelError> {
        let (xs, ys) = dataset.to_matrices();
        let predicted = self.predict_batch(&xs)?;
        Ok(ErrorReport::compare(
            dataset.output_names(),
            &ys,
            &predicted,
        )?)
    }

    /// Serializes the model (names, scalers, network) to text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("wlc-model v1\n");
        out.push_str(&format!("inputs {}\n", self.input_names.join(",")));
        out.push_str(&format!("outputs {}\n", self.output_names.join(",")));
        out.push_str(&format!("xscaler {}\n", self.input_scaler.to_text()));
        out.push_str(&format!("yscaler {}\n", self.output_scaler.to_text()));
        out.push_str(&self.mlp.to_text());
        out
    }

    /// Parses a model from the format produced by [`WorkloadModel::to_text`].
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
        if lines.next().map(str::trim) != Some("wlc-model v1") {
            return Err(err(1, "missing `wlc-model v1` header"));
        }
        let input_names: Vec<String> = lines
            .next()
            .and_then(|l| l.strip_prefix("inputs "))
            .ok_or_else(|| err(2, "expected `inputs <names>`"))?
            .split(',')
            .map(|s| s.trim().to_string())
            .collect();
        let output_names: Vec<String> = lines
            .next()
            .and_then(|l| l.strip_prefix("outputs "))
            .ok_or_else(|| err(3, "expected `outputs <names>`"))?
            .split(',')
            .map(|s| s.trim().to_string())
            .collect();
        let input_scaler = Scaler::from_text(
            lines
                .next()
                .and_then(|l| l.strip_prefix("xscaler "))
                .ok_or_else(|| err(4, "expected `xscaler ...`"))?,
        )
        .map_err(|e| err(4, &e.to_string()))?;
        let output_scaler = Scaler::from_text(
            lines
                .next()
                .and_then(|l| l.strip_prefix("yscaler "))
                .ok_or_else(|| err(5, "expected `yscaler ...`"))?,
        )
        .map_err(|e| err(5, &e.to_string()))?;
        // Preserve the trailing-newline state: the network parser uses
        // it to reject a document whose final line was torn mid-float.
        let mut rest = lines.collect::<Vec<&str>>().join("\n");
        if text.ends_with('\n') {
            rest.push('\n');
        }
        let mlp = Mlp::from_text(&rest)?;

        if input_scaler.cols() != mlp.inputs() || input_names.len() != mlp.inputs() {
            return Err(err(0, "input names/scaler/network widths disagree"));
        }
        if output_scaler.cols() != mlp.outputs() || output_names.len() != mlp.outputs() {
            return Err(err(0, "output names/scaler/network widths disagree"));
        }
        Ok(WorkloadModel {
            input_names,
            output_names,
            input_scaler,
            output_scaler,
            mlp,
        })
    }

    /// Validates the model before it is allowed to serve predictions —
    /// the check a prediction server runs on every hot-reload candidate:
    /// both scalers must be finite with non-zero divisors and every
    /// network parameter must be finite. When `expected` dimensions are
    /// given, the model must also provide exactly that `inputs → outputs`
    /// mapping (so a reload cannot swap in a model of a different shape).
    ///
    /// # Errors
    ///
    /// - [`ModelError::Data`] for a degenerate scaler.
    /// - [`ModelError::Nn`] for non-finite weights or a shape mismatch.
    pub fn validate(&self, expected: Option<(usize, usize)>) -> Result<(), ModelError> {
        self.input_scaler.validate()?;
        self.output_scaler.validate()?;
        let (inputs, outputs) = expected.unwrap_or((self.inputs(), self.outputs()));
        self.mlp.validate(inputs, outputs)?;
        Ok(())
    }

    /// Writes the model to a file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] on filesystem failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelError> {
        // wlc-lint: allow(durable-write, reason = "one-shot CLI export; the supervisor's durable path writes models via wlc_fault::write_atomic")
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Reads a model from a file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LoadFailed`] naming the offending path and
    /// wrapping the underlying [`ModelError::Io`] / [`ModelError::Parse`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let wrap = |source: ModelError| ModelError::LoadFailed {
            path: path.to_path_buf(),
            source: Box::new(source),
        };
        let text = std::fs::read_to_string(path).map_err(|e| wrap(e.into()))?;
        Self::from_text(&text).map_err(wrap)
    }
}

impl PerformanceModel for WorkloadModel {
    fn inputs(&self) -> usize {
        self.mlp.inputs()
    }

    fn outputs(&self) -> usize {
        self.mlp.outputs()
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        if x.len() != self.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: self.inputs(),
                actual: x.len(),
                what: "configuration",
            });
        }
        if let Some(index) = x.iter().position(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteInput {
                index,
                stage: "raw",
            });
        }
        let mut scaled = x.to_vec();
        self.input_scaler.transform_row(&mut scaled)?;
        // Finite input can still standardize to ±inf (overflow against a
        // tiny std) or NaN (degenerate file-loaded scaler) — reject here
        // rather than letting NaN flood the network.
        if let Some(index) = scaled.iter().position(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteInput {
                index,
                stage: "standardized",
            });
        }
        let mut y = self.mlp.forward(&scaled)?;
        self.output_scaler.inverse_row(&mut y)?;
        Ok(y)
    }

    /// Predicts all rows in one batched forward pass
    /// ([`WorkloadModel::predict_batch_engine`] on a one-member team).
    /// Bitwise [`PerformanceModel::predict`] on each row, and a bad row
    /// fails with `predict`'s error for the first such row.
    fn predict_batch(&self, xs: &Matrix) -> Result<Matrix, ModelError> {
        let mut scratch = PredictScratch::new();
        self.predict_batch_engine(xs, &mut scratch, &mut BandEngine::new(1))?;
        Ok(scratch.out)
    }
}

/// A trained model together with its training report.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TrainedModel {
    /// The trained workload model.
    pub model: WorkloadModel,
    /// What happened during training (loss history, stop reason).
    pub report: TrainReport,
}

/// Builder that configures and trains a [`WorkloadModel`].
///
/// Defaults follow the paper: logistic hidden activations, identity
/// output, standardized inputs *and* outputs (the paper standardizes
/// outputs "when approximating multiple performance indicators at the
/// same time", §3.1), momentum gradient descent, and a termination
/// threshold for the deliberate loose fit.
///
/// # Examples
///
/// ```
/// use wlc_model::WorkloadModelBuilder;
/// let builder = WorkloadModelBuilder::new()
///     .hidden_layer(16)
///     .hidden_layer(12)
///     .learning_rate(0.05)
///     .max_epochs(500)
///     .termination_threshold(1e-3)
///     .seed(7);
/// assert_eq!(builder.hidden_layers(), &[16, 12]);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadModelBuilder {
    hidden: Vec<usize>,
    activation: Activation,
    output_activation: Activation,
    input_scaling: ScalingKind,
    output_scaling: ScalingKind,
    max_epochs: usize,
    learning_rate: f64,
    optimizer: OptimizerKind,
    loss: Loss,
    termination_threshold: Option<f64>,
    batch_size: Option<usize>,
    seed: u64,
    hidden_explicit: bool,
    recover: usize,
    retry_backoff: Option<f64>,
    halt_on_divergence: bool,
    checkpoint: Option<(PathBuf, usize)>,
    checkpoint_fs: Option<FsHandle>,
    jobs: usize,
}

impl WorkloadModelBuilder {
    /// Creates a builder with the paper-like defaults (two logistic hidden
    /// layers of 16 and 12 perceptrons).
    pub fn new() -> Self {
        WorkloadModelBuilder {
            hidden: vec![16, 12],
            activation: Activation::logistic(),
            output_activation: Activation::identity(),
            input_scaling: ScalingKind::Standard,
            output_scaling: ScalingKind::Standard,
            max_epochs: 2000,
            learning_rate: 0.04,
            optimizer: OptimizerKind::momentum(),
            loss: Loss::MeanSquared,
            termination_threshold: Some(2e-3),
            batch_size: None,
            seed: 0,
            hidden_explicit: false,
            recover: 0,
            retry_backoff: None,
            halt_on_divergence: false,
            checkpoint: None,
            checkpoint_fs: None,
            jobs: 1,
        }
    }

    /// Clears the hidden layers (start of an explicit topology).
    pub fn no_hidden_layers(mut self) -> Self {
        self.hidden.clear();
        self.hidden_explicit = true;
        self
    }

    /// Appends a hidden layer of `width` perceptrons. The first call
    /// replaces the default topology; further calls accumulate.
    pub fn hidden_layer(mut self, width: usize) -> Self {
        if !self.hidden_explicit {
            self.hidden.clear();
            self.hidden_explicit = true;
        }
        self.hidden.push(width);
        self
    }

    /// The configured hidden-layer widths.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/bench/src/lib.rs::builder_is_configured checks the paper topology through it")
    pub fn hidden_layers(&self) -> &[usize] {
        &self.hidden
    }

    /// Sets the hidden activation (default: logistic sigmoid).
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Sets the output activation (default: identity, for regression).
    pub fn output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Sets input scaling (default: standardization).
    pub fn input_scaling(mut self, kind: ScalingKind) -> Self {
        self.input_scaling = kind;
        self
    }

    /// Sets output scaling (default: standardization).
    pub fn output_scaling(mut self, kind: ScalingKind) -> Self {
        self.output_scaling = kind;
        self
    }

    /// Sets the epoch budget.
    pub fn max_epochs(mut self, epochs: usize) -> Self {
        self.max_epochs = epochs;
        self
    }

    /// Sets a constant learning rate.
    pub fn learning_rate(mut self, rate: f64) -> Self {
        self.learning_rate = rate;
        self
    }

    /// Sets the optimizer (default: momentum gradient descent).
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the training loss (default: mean squared error).
    pub fn loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the loose-fit termination threshold (§3.3). Pass the scaled-
    /// space MSE below which training stops.
    pub fn termination_threshold(mut self, threshold: f64) -> Self {
        self.termination_threshold = Some(threshold);
        self
    }

    /// Disables the termination threshold (train to `max_epochs`).
    pub fn no_termination_threshold(mut self) -> Self {
        self.termination_threshold = None;
        self
    }

    /// Sets a mini-batch size (default: full batch).
    pub fn batch_size(mut self, size: usize) -> Self {
        self.batch_size = Some(size);
        self
    }

    /// Seed for weight initialization and shuffling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables divergence recovery: up to `retries` restarts with fresh
    /// derived seeds and a backed-off learning rate (see
    /// [`TrainConfig::recover`]).
    pub fn recover(mut self, retries: usize) -> Self {
        self.recover = retries;
        self
    }

    /// Learning-rate back-off factor applied on each recovery attempt
    /// (see [`TrainConfig::retry_backoff`]).
    pub fn retry_backoff(mut self, backoff: f64) -> Self {
        self.retry_backoff = Some(backoff);
        self
    }

    /// Report divergence in the [`TrainReport`] instead of failing with an
    /// error once recovery is exhausted (see
    /// [`TrainConfig::halt_on_divergence`]).
    pub fn halt_on_divergence(mut self, halt: bool) -> Self {
        self.halt_on_divergence = halt;
        self
    }

    /// Writes a training checkpoint to `path` every `every` epochs, for
    /// [`WorkloadModelBuilder::train_resuming`].
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// Filesystem checkpoint writes go through (defaults to the real
    /// filesystem). A [`wlc_fault::SimFs`] here exposes mid-training
    /// checkpoints to fault injection and crash sweeps.
    pub fn checkpoint_fs(mut self, fs: FsHandle) -> Self {
        self.checkpoint_fs = Some(fs);
        self
    }

    /// Worker threads for the batched training passes (see
    /// [`TrainConfig::jobs`]). The trained model is bitwise identical
    /// for every setting (default: 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    fn train_config(&self) -> TrainConfig {
        let mut config = TrainConfig::new()
            .max_epochs(self.max_epochs)
            .learning_rate(self.learning_rate)
            .optimizer(self.optimizer)
            .loss(self.loss)
            .rng_seed(self.seed);
        if let Some(t) = self.termination_threshold {
            config = config.termination_threshold(t);
        }
        if let Some(b) = self.batch_size {
            config = config.batch_size(b);
        }
        if self.recover > 0 {
            config = config.recover(self.recover);
        }
        if let Some(b) = self.retry_backoff {
            config = config.retry_backoff(b);
        }
        if self.halt_on_divergence {
            config = config.halt_on_divergence(true);
        }
        if let Some((path, every)) = &self.checkpoint {
            config = config
                .checkpoint_path(path.clone())
                .checkpoint_every(*every);
        }
        if let Some(fs) = &self.checkpoint_fs {
            config = config.checkpoint_fs(fs.clone());
        }
        config.jobs(self.jobs)
    }

    /// Trains a model on `dataset`.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] for an empty dataset.
    /// - [`ModelError::Nn`] for training failures (divergence, bad
    ///   hyper-parameters).
    pub fn train(&self, dataset: &Dataset) -> Result<TrainedModel, ModelError> {
        self.train_impl(dataset, None)
    }

    /// Continues an interrupted training run from a [`Checkpoint`]
    /// (written via [`WorkloadModelBuilder::checkpoint`]). Given the same
    /// builder configuration and dataset, the result is bit-identical to
    /// the uninterrupted run: the scalers are refit deterministically and
    /// the trainer replays its RNG up to the checkpointed epoch.
    ///
    /// # Errors
    ///
    /// As for [`WorkloadModelBuilder::train`], plus shape errors when the
    /// checkpoint does not match the configured topology.
    pub fn train_resuming(
        &self,
        dataset: &Dataset,
        checkpoint: &Checkpoint,
    ) -> Result<TrainedModel, ModelError> {
        self.train_impl(dataset, Some(checkpoint))
    }

    fn train_impl(
        &self,
        dataset: &Dataset,
        resume: Option<&Checkpoint>,
    ) -> Result<TrainedModel, ModelError> {
        if dataset.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "dataset",
                reason: "must contain at least one sample",
            });
        }
        let (xs, ys) = dataset.to_matrices();
        let input_scaler = self.input_scaling.fit(&xs)?;
        let output_scaler = self.output_scaling.fit(&ys)?;
        let tx = input_scaler.transform(&xs)?;
        let ty = output_scaler.transform(&ys)?;

        let mut builder = MlpBuilder::new(dataset.input_width()).seed(self.seed);
        for &width in &self.hidden {
            builder = builder.hidden(width, self.activation);
        }
        let mut mlp = builder
            .output(dataset.output_width(), self.output_activation)
            .build()?;

        let trainer = Trainer::new(self.train_config());
        let report = match resume {
            Some(ck) => trainer.resume_from(&mut mlp, &tx, &ty, ck)?,
            None => trainer.fit(&mut mlp, &tx, &ty)?,
        };

        Ok(TrainedModel {
            model: WorkloadModel {
                input_names: dataset.input_names().to_vec(),
                output_names: dataset.output_names().to_vec(),
                input_scaler,
                output_scaler,
                mlp,
            },
            report,
        })
    }
}

impl Default for WorkloadModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_data::Sample;

    /// A small synthetic dataset with a non-linear relationship:
    /// y0 = x0², y1 = x0·x1 (plus the identity-recoverable y2 = x1).
    fn synthetic_dataset() -> Dataset {
        let mut ds = Dataset::new(
            vec!["a".into(), "b".into()],
            vec!["sq".into(), "prod".into(), "lin".into()],
        )
        .unwrap();
        for i in 0..8 {
            for j in 0..8 {
                let a = i as f64 / 2.0 + 1.0;
                let b = j as f64 / 2.0 + 1.0;
                ds.push(Sample::new(vec![a, b], vec![a * a, a * b, b]))
                    .unwrap();
            }
        }
        ds
    }

    fn quick_builder() -> WorkloadModelBuilder {
        WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(12)
            .max_epochs(1500)
            .learning_rate(0.05)
            .termination_threshold(5e-4)
            .seed(3)
    }

    /// Per-row [`PerformanceModel::predict`], stacked.
    fn predict_rows(model: &WorkloadModel, xs: &Matrix) -> Vec<f64> {
        (0..xs.rows())
            .flat_map(|r| model.predict(xs.row(r)).unwrap())
            .collect()
    }

    #[test]
    fn predict_batch_engine_is_bitwise_for_any_jobs() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(50).train(&ds).unwrap();
        // Enough rows for several bands, with a ragged final band.
        let xs = Matrix::from_fn(211, 2, |r, c| 1.0 + ((r * 2 + c) % 9) as f64 / 3.0);
        let per_row = predict_rows(&outcome.model, &xs);
        for jobs in [1, 2, 4, 7] {
            let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
            let mut scratch = PredictScratch::new();
            let banded = outcome
                .model
                .predict_batch_engine(&xs, &mut scratch, &mut engine)
                .unwrap();
            assert_eq!(banded.as_slice(), per_row.as_slice(), "jobs={jobs}");
        }
    }

    #[test]
    fn surface_sweep_is_bitwise_for_any_jobs() {
        use crate::surface::ResponseSurface;
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(50).train(&ds).unwrap();
        let axis1: Vec<f64> = (0..12).map(|i| 1.0 + i as f64 * 0.2).collect();
        let axis2: Vec<f64> = (0..13).map(|i| 1.0 + i as f64 * 0.15).collect();
        let model = &outcome.model;
        let per_cell: Vec<f64> = axis1
            .iter()
            .flat_map(|&a| {
                axis2
                    .iter()
                    .map(move |&b| model.predict(&[a, b]).unwrap()[1])
            })
            .collect();
        let surface = ResponseSurface::new(vec![0.0, 0.0], 0, axis1, 1, axis2, 1).unwrap();
        let batched = surface.evaluate(&outcome.model).unwrap();
        assert_eq!(batched.z().as_slice(), per_cell.as_slice());
        for jobs in [1, 2, 4, 7] {
            let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
            let banded = surface
                .evaluate_banded(&outcome.model, &mut engine)
                .unwrap();
            assert_eq!(banded.z().as_slice(), per_cell.as_slice(), "jobs={jobs}");
        }
    }

    #[test]
    fn trains_nonlinear_relationship() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().train(&ds).unwrap();
        let report = outcome.model.evaluate(&ds).unwrap();
        assert!(
            report.overall_error() < 0.10,
            "error {}",
            report.overall_error()
        );
        // Spot-check a point: a=2, b=3.
        let pred = outcome.model.predict(&[2.0, 3.0]).unwrap();
        assert!((pred[0] - 4.0).abs() < 1.0, "sq {}", pred[0]);
        assert!((pred[1] - 6.0).abs() < 1.5, "prod {}", pred[1]);
    }

    #[test]
    fn builder_defaults_are_paper_like() {
        let b = WorkloadModelBuilder::new();
        assert_eq!(b.hidden_layers(), &[16, 12]);
        let def = WorkloadModelBuilder::default();
        assert_eq!(def.hidden_layers(), b.hidden_layers());
    }

    #[test]
    fn train_rejects_empty_dataset() {
        let ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
        assert!(matches!(
            WorkloadModelBuilder::new().train(&ds),
            Err(ModelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn predict_checks_width() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(10).train(&ds).unwrap();
        assert!(matches!(
            outcome.model.predict(&[1.0]),
            Err(ModelError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn predict_batch_matches_predict() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(50).train(&ds).unwrap();
        let (xs, _) = ds.to_matrices();
        let batch = outcome.model.predict_batch(&xs).unwrap();
        assert_eq!(
            batch.as_slice(),
            predict_rows(&outcome.model, &xs).as_slice()
        );
        // A bad row fails with `predict`'s error for the first such row.
        let mut bad = xs.clone();
        bad.row_mut(5)[1] = f64::INFINITY;
        bad.row_mut(9)[0] = f64::NAN;
        assert!(matches!(
            outcome.model.predict_batch(&bad),
            Err(ModelError::NonFiniteInput {
                index: 1,
                stage: "raw"
            })
        ));
    }

    #[test]
    fn predict_batch_engine_is_bitwise_predict_and_survives_reload() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(50).train(&ds).unwrap();
        let (xs, _) = ds.to_matrices();
        let mut scratch = PredictScratch::new();
        let mut engine = BandEngine::new(1);
        let batch = outcome
            .model
            .predict_batch_engine(&xs, &mut scratch, &mut engine)
            .unwrap()
            .clone();
        for r in 0..xs.rows() {
            let single = outcome.model.predict(xs.row(r)).unwrap();
            let batch_bits: Vec<u64> = batch.row(r).iter().map(|v| v.to_bits()).collect();
            let single_bits: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_bits, single_bits, "row {r}");
        }
        // A different topology (hot reload) must rebuild the workspace
        // transparently rather than erroring or answering garbage.
        let other = quick_builder()
            .no_hidden_layers()
            .hidden_layer(6)
            .max_epochs(10)
            .train(&ds)
            .unwrap();
        let swapped = other
            .model
            .predict_batch_engine(&xs, &mut scratch, &mut engine)
            .unwrap();
        assert_eq!(swapped.row(2), other.model.predict(xs.row(2)).unwrap());
        // Errors mirror `predict`: width and finiteness checks.
        let narrow = Matrix::zeros(2, 1);
        assert!(matches!(
            outcome
                .model
                .predict_batch_engine(&narrow, &mut scratch, &mut engine),
            Err(ModelError::WidthMismatch { .. })
        ));
        let mut bad = xs.clone();
        bad.row_mut(1)[0] = f64::NAN;
        assert!(matches!(
            outcome
                .model
                .predict_batch_engine(&bad, &mut scratch, &mut engine),
            Err(ModelError::NonFiniteInput { stage: "raw", .. })
        ));
    }

    #[test]
    fn text_roundtrip_preserves_predictions() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(100).train(&ds).unwrap();
        let text = outcome.model.to_text();
        let back = WorkloadModel::from_text(&text).unwrap();
        assert_eq!(back, outcome.model);
        let x = [2.5, 1.5];
        assert_eq!(
            back.predict(&x).unwrap(),
            outcome.model.predict(&x).unwrap()
        );
    }

    #[test]
    fn file_roundtrip() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(20).train(&ds).unwrap();
        let dir = std::env::temp_dir().join("wlc-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        outcome.model.save(&path).unwrap();
        let back = WorkloadModel::load(&path).unwrap();
        assert_eq!(back, outcome.model);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_text_rejects_corruption() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(10).train(&ds).unwrap();
        let text = outcome.model.to_text();
        assert!(WorkloadModel::from_text(&text.replace("wlc-model v1", "nope")).is_err());
        assert!(WorkloadModel::from_text(&text.replace("xscaler", "zscaler")).is_err());
        // Truncated network section.
        let short: String = text.lines().take(6).collect::<Vec<_>>().join("\n");
        assert!(WorkloadModel::from_text(&short).is_err());
    }

    #[test]
    fn standardization_beats_no_scaling_on_wide_ranges() {
        // The paper's §3.1 claim: without standardization, gradient
        // training on wide-magnitude features is prone to bad fits.
        let mut ds = Dataset::new(vec!["big".into()], vec!["y".into()]).unwrap();
        for i in 0..20 {
            let x = 1000.0 + i as f64 * 100.0; // large-magnitude feature
            let t = (i as f64 / 19.0 * std::f64::consts::PI).sin();
            ds.push(Sample::new(vec![x], vec![t])).unwrap();
        }
        let standardized = WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(8)
            .max_epochs(800)
            .learning_rate(0.05)
            .no_termination_threshold()
            .seed(1)
            .train(&ds)
            .unwrap();
        let raw_result = WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(8)
            .max_epochs(800)
            .learning_rate(0.05)
            .no_termination_threshold()
            .input_scaling(ScalingKind::None)
            .seed(1)
            .train(&ds);
        let std_loss = standardized.report.final_train_loss;
        match raw_result {
            Ok(raw) => assert!(
                std_loss < raw.report.final_train_loss * 0.5,
                "standardized {std_loss} vs raw {}",
                raw.report.final_train_loss
            ),
            // Divergence is an equally acceptable demonstration.
            Err(ModelError::Nn(wlc_nn::NnError::Diverged { .. })) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn termination_threshold_keeps_fit_loose() {
        let ds = synthetic_dataset();
        let loose = quick_builder()
            .termination_threshold(0.05)
            .train(&ds)
            .unwrap();
        let tight = quick_builder()
            .termination_threshold(1e-5)
            .train(&ds)
            .unwrap();
        assert!(loose.report.epochs_run <= tight.report.epochs_run);
        assert!(loose.report.final_train_loss >= tight.report.final_train_loss);
    }

    #[test]
    fn min_max_scaling_variant_works() {
        let ds = synthetic_dataset();
        let outcome = quick_builder()
            .input_scaling(ScalingKind::MinMax)
            .output_scaling(ScalingKind::MinMax)
            .train(&ds)
            .unwrap();
        let report = outcome.model.evaluate(&ds).unwrap();
        assert!(report.overall_error() < 0.2, "{}", report.overall_error());
    }

    #[test]
    fn load_error_names_path() {
        let err = WorkloadModel::load("/definitely/not/a/model.txt").unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, ModelError::LoadFailed { .. }) && msg.contains("model.txt"),
            "{msg}"
        );
        // Parse failures are wrapped the same way.
        let dir = std::env::temp_dir().join("wlc-model-load-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.txt");
        std::fs::write(&path, "not a model\n").unwrap();
        let err = WorkloadModel::load(&path).unwrap_err();
        assert!(err.to_string().contains("garbage.txt"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_wired_through_builder() {
        let ds = synthetic_dataset();
        let base = quick_builder()
            .max_epochs(200)
            .no_termination_threshold()
            .learning_rate(1e6); // guaranteed divergence at full rate
        assert!(matches!(
            base.clone().train(&ds),
            Err(ModelError::Nn(wlc_nn::NnError::Diverged { .. }))
        ));
        let outcome = base
            .clone()
            .recover(2)
            .retry_backoff(1e-8)
            .train(&ds)
            .unwrap();
        assert!(outcome.report.recovery_attempts >= 1);
        // halt_on_divergence reports instead of erroring.
        let halted = base.halt_on_divergence(true).train(&ds).unwrap();
        assert_eq!(halted.report.stop_reason, wlc_nn::StopReason::Diverged);
    }

    #[test]
    fn checkpointed_training_resumes_identically() {
        let ds = synthetic_dataset();
        let dir = std::env::temp_dir().join("wlc-model-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let base = quick_builder().no_termination_threshold().batch_size(16);

        let full = base.clone().max_epochs(60).train(&ds).unwrap();
        base.clone()
            .max_epochs(40)
            .checkpoint(&path, 20)
            .train(&ds)
            .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.epochs_completed(), 40);
        let resumed = base.max_epochs(60).train_resuming(&ds, &ck).unwrap();

        assert_eq!(resumed.model, full.model);
        assert_eq!(resumed.report.loss_history, full.report.loss_history);
        assert_eq!(resumed.report.resumed_from_epoch, Some(40));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn predict_rejects_non_finite_inputs() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(10).train(&ds).unwrap();
        // Raw NaN / infinity are refused up front.
        assert!(matches!(
            outcome.model.predict(&[f64::NAN, 1.0]),
            Err(ModelError::NonFiniteInput {
                index: 0,
                stage: "raw"
            })
        ));
        assert!(matches!(
            outcome.model.predict(&[1.0, f64::INFINITY]),
            Err(ModelError::NonFiniteInput {
                index: 1,
                stage: "raw"
            })
        ));
        // A finite value that *standardizes* to infinity (overflow against
        // a tiny std, reachable via a file-loaded scaler) is refused too.
        let mut tiny_std = outcome.model.clone();
        tiny_std.input_scaler = Scaler::from_text("standard 0.0 0.0 | 1e-300 1.0").unwrap();
        assert!(matches!(
            tiny_std.predict(&[1e60, 1.0]),
            Err(ModelError::NonFiniteInput {
                index: 0,
                stage: "standardized"
            })
        ));
    }

    #[test]
    fn validate_guards_serving_models() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(10).train(&ds).unwrap();
        assert!(outcome.model.validate(None).is_ok());
        assert!(outcome.model.validate(Some((2, 3))).is_ok());
        // Dimension pinning catches shape swaps.
        assert!(outcome.model.validate(Some((4, 3))).is_err());
        assert!(outcome.model.validate(Some((2, 5))).is_err());
        // Corrupt network parameters are rejected.
        let mut corrupt = outcome.model.clone();
        let mut params = corrupt.mlp.params_flat();
        params[0] = f64::NAN;
        corrupt.mlp.set_params_flat(&params).unwrap();
        assert!(matches!(
            corrupt.validate(None),
            Err(ModelError::Nn(wlc_nn::NnError::NonFinite { .. }))
        ));
        // A degenerate (zero-std) scaler is rejected too.
        let mut bad_scaler = outcome.model.clone();
        bad_scaler.input_scaler = Scaler::from_text("standard 0.0 0.0 | 0.0 1.0").unwrap();
        assert!(matches!(
            bad_scaler.validate(None),
            Err(ModelError::Data(_))
        ));
    }

    #[test]
    fn topology_reported() {
        let ds = synthetic_dataset();
        let outcome = quick_builder().max_epochs(5).train(&ds).unwrap();
        assert_eq!(outcome.model.topology(), vec![2, 12, 3]);
        assert_eq!(outcome.model.input_names(), &["a", "b"]);
        assert_eq!(outcome.model.output_names().len(), 3);
    }
}
