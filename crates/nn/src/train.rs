use std::path::PathBuf;

use wlc_fault::FsHandle;
use wlc_math::rng::{Seed, Xoshiro256};
use wlc_math::Matrix;

use crate::{
    BandEngine, Checkpoint, Initializer, LearningRateSchedule, Loss, Mlp, NnError, OptimizerKind,
    Workspace,
};

/// Why training stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// Ran the configured number of epochs.
    MaxEpochs,
    /// Training loss dropped below the termination threshold — the paper's
    /// deliberate loose fit (§3.3) to keep the model flexible.
    ThresholdReached,
    /// Training diverged (non-finite loss, non-finite parameters or an
    /// exploding gradient) and every recovery attempt was exhausted; the
    /// parameters were rolled back to the last finite epoch. Only reported
    /// when [`TrainConfig::halt_on_divergence`] is set — otherwise
    /// divergence is an [`NnError::Diverged`] error.
    Diverged,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::MaxEpochs => write!(f, "max epochs reached"),
            StopReason::ThresholdReached => write!(f, "termination threshold reached"),
            StopReason::Diverged => {
                write!(f, "diverged (non-finite loss or exploding gradient)")
            }
        }
    }
}

/// Configuration for [`Trainer`].
///
/// The defaults mirror the paper's method: full-batch gradient descent on
/// mean-squared error. The *termination threshold* implements §3.3's
/// guidance that "it is better to loosely fit the training sample to
/// maintain the flexibility of a model — a threshold value is needed to
/// indicate when to stop training".
///
/// In full-batch mode (no [`TrainConfig::batch_size`], or one that
/// covers every row) an epoch's loss comes from the gradient pass that
/// also yields the next epoch's step, so each epoch runs the network
/// once; see [`Trainer`].
///
/// # Robustness
///
/// Divergence (NaN/Inf loss, non-finite parameters, exploding gradients)
/// is always detected. What happens next is configurable:
///
/// - [`TrainConfig::recover`] retries with a freshly re-seeded network and
///   a backed-off learning rate, up to a bounded number of attempts.
/// - [`TrainConfig::halt_on_divergence`] turns an exhausted divergence
///   into an `Ok` report with [`StopReason::Diverged`] and the parameters
///   rolled back to the last finite epoch, instead of an error.
/// - [`TrainConfig::checkpoint_every`] writes periodic [`Checkpoint`]s so
///   a killed run can continue via [`Trainer::resume_from`].
///
/// # Examples
///
/// ```
/// use wlc_nn::{Loss, OptimizerKind, TrainConfig};
///
/// let config = TrainConfig::new()
///     .max_epochs(500)
///     .learning_rate(0.05)
///     .optimizer(OptimizerKind::adam())
///     .termination_threshold(1e-3)
///     .loss(Loss::MeanSquared);
/// ```
#[derive(Debug, Clone)]
pub struct TrainConfig {
    max_epochs: usize,
    batch_size: Option<usize>,
    shuffle: bool,
    loss: Loss,
    optimizer: OptimizerKind,
    schedule: LearningRateSchedule,
    termination_threshold: Option<f64>,
    weight_decay: f64,
    gradient_clip: Option<f64>,
    seed: u64,
    max_retries: usize,
    retry_lr_backoff: f64,
    retry_initializer: Initializer,
    halt_on_divergence: bool,
    divergence_grad_norm: f64,
    checkpoint_every: Option<usize>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_fs: FsHandle,
    jobs: usize,
}

impl TrainConfig {
    /// Creates a configuration with the paper-like defaults: 1000 epochs of
    /// full-batch SGD at rate 0.01 on mean-squared error.
    pub fn new() -> Self {
        TrainConfig {
            max_epochs: 1000,
            batch_size: None,
            shuffle: true,
            loss: Loss::MeanSquared,
            optimizer: OptimizerKind::Sgd,
            schedule: LearningRateSchedule::default(),
            termination_threshold: None,
            weight_decay: 0.0,
            gradient_clip: None,
            seed: 0,
            max_retries: 0,
            retry_lr_backoff: 0.5,
            retry_initializer: Initializer::default(),
            halt_on_divergence: false,
            divergence_grad_norm: 1e12,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_fs: wlc_fault::real_fs(),
            jobs: 1,
        }
    }

    /// Sets the maximum number of epochs.
    pub fn max_epochs(mut self, epochs: usize) -> Self {
        self.max_epochs = epochs;
        self
    }

    /// Sets a mini-batch size (`None`/unset = full batch).
    pub fn batch_size(mut self, size: usize) -> Self {
        self.batch_size = Some(size);
        self
    }

    /// Enables or disables per-epoch shuffling (default: enabled).
    pub fn shuffle(mut self, shuffle: bool) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Sets the training loss.
    pub fn loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the optimizer.
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets a constant learning rate (shorthand for a constant schedule).
    pub fn learning_rate(mut self, rate: f64) -> Self {
        self.schedule = LearningRateSchedule::Constant { rate };
        self
    }

    /// Sets a full learning-rate schedule.
    pub fn schedule(mut self, schedule: LearningRateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Stops training once the epoch's training loss falls below
    /// `threshold` (the paper's loose-fit stop).
    pub fn termination_threshold(mut self, threshold: f64) -> Self {
        self.termination_threshold = Some(threshold);
        self
    }

    /// Adds L2 weight decay: the gradient of `decay/2 · ‖w‖²` is added to
    /// every parameter gradient — an alternative flexibility mechanism to
    /// the paper's loose-fit threshold (exercised by the ablations).
    pub fn weight_decay(mut self, decay: f64) -> Self {
        self.weight_decay = decay;
        self
    }

    /// Clips the gradient's global L2 norm to `max_norm` before each
    /// update — guards against the divergence that §3.1 warns about when
    /// features are poorly scaled.
    pub fn gradient_clip(mut self, max_norm: f64) -> Self {
        self.gradient_clip = Some(max_norm);
        self
    }

    /// Seed for mini-batch shuffling (and for re-deriving recovery seeds).
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the batched passes (a [`crate::BandEngine`]
    /// team; the calling thread counts as one). Training results are
    /// bitwise identical for any value — the band geometry and fold
    /// order are fixed by the row count, never by the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Allows up to `retries` recovery attempts after divergence. Each
    /// attempt reinitializes the network from a seed re-derived from
    /// [`TrainConfig::rng_seed`] and multiplies every learning rate by
    /// [`TrainConfig::retry_backoff`] once more (attempt `k` trains at
    /// `backoff^k` times the configured rate).
    pub fn recover(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Learning-rate backoff factor per recovery attempt, in `(0, 1]`
    /// (default 0.5).
    pub fn retry_backoff(mut self, backoff: f64) -> Self {
        self.retry_lr_backoff = backoff;
        self
    }

    /// Weight initializer used for recovery restarts (default: the
    /// builder default, Xavier-uniform).
    pub fn retry_initializer(mut self, init: Initializer) -> Self {
        self.retry_initializer = init;
        self
    }

    /// When every attempt diverges, return an `Ok` report with
    /// [`StopReason::Diverged`] (parameters rolled back to the last finite
    /// epoch) instead of [`NnError::Diverged`]. Lets callers such as
    /// cross-validation quarantine a diverged run rather than abort.
    pub fn halt_on_divergence(mut self, halt: bool) -> Self {
        self.halt_on_divergence = halt;
        self
    }

    /// Gradient L2-norm limit above which training counts as diverged
    /// (default `1e12`). Measured after clipping, so a clipped run never
    /// trips it.
    pub fn divergence_grad_norm(mut self, max_norm: f64) -> Self {
        self.divergence_grad_norm = max_norm;
        self
    }

    /// Writes a [`Checkpoint`] to [`TrainConfig::checkpoint_path`] every
    /// `epochs` completed epochs.
    pub fn checkpoint_every(mut self, epochs: usize) -> Self {
        self.checkpoint_every = Some(epochs);
        self
    }

    /// Destination for periodic checkpoints (required when
    /// [`TrainConfig::checkpoint_every`] is set).
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Filesystem checkpoints are written through (defaults to the real
    /// filesystem). Supplying a [`wlc_fault::SimFs`] makes mid-training
    /// checkpoint writes visible to fault injection and crash sweeps.
    pub fn checkpoint_fs(mut self, fs: FsHandle) -> Self {
        self.checkpoint_fs = fs;
        self
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.max_epochs == 0 {
            return Err(NnError::InvalidHyperParameter {
                name: "max_epochs",
                reason: "must be at least 1",
            });
        }
        if let Some(b) = self.batch_size {
            if b == 0 {
                return Err(NnError::InvalidHyperParameter {
                    name: "batch_size",
                    reason: "must be at least 1",
                });
            }
        }
        if let Some(t) = self.termination_threshold {
            if !(t.is_finite() && t >= 0.0) {
                return Err(NnError::InvalidHyperParameter {
                    name: "termination_threshold",
                    reason: "must be non-negative and finite",
                });
            }
        }
        if !(self.weight_decay.is_finite() && self.weight_decay >= 0.0) {
            return Err(NnError::InvalidHyperParameter {
                name: "weight_decay",
                reason: "must be non-negative and finite",
            });
        }
        if let Some(c) = self.gradient_clip {
            if !(c.is_finite() && c > 0.0) {
                return Err(NnError::InvalidHyperParameter {
                    name: "gradient_clip",
                    reason: "must be positive and finite",
                });
            }
        }
        if !(self.retry_lr_backoff.is_finite()
            && self.retry_lr_backoff > 0.0
            && self.retry_lr_backoff <= 1.0)
        {
            return Err(NnError::InvalidHyperParameter {
                name: "retry_backoff",
                reason: "must be in (0, 1]",
            });
        }
        if !(self.divergence_grad_norm.is_finite() && self.divergence_grad_norm > 0.0) {
            return Err(NnError::InvalidHyperParameter {
                name: "divergence_grad_norm",
                reason: "must be positive and finite",
            });
        }
        if let Some(every) = self.checkpoint_every {
            if every == 0 {
                return Err(NnError::InvalidHyperParameter {
                    name: "checkpoint_every",
                    reason: "must be at least 1",
                });
            }
            if self.checkpoint_path.is_none() {
                return Err(NnError::InvalidHyperParameter {
                    name: "checkpoint_every",
                    reason: "requires a checkpoint path",
                });
            }
        }
        self.optimizer.validate()
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TrainReport {
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// Training loss after the final epoch.
    pub final_train_loss: f64,
    /// Why training stopped.
    pub stop_reason: StopReason,
    /// Per-epoch training loss.
    pub loss_history: Vec<f64>,
    /// Failed recovery attempts before this result (0 = first try).
    pub recovery_attempts: usize,
    /// Epoch the run resumed from when started via
    /// [`Trainer::resume_from`].
    pub resumed_from_epoch: Option<usize>,
}

/// Trains an [`Mlp`] by mini-batch gradient descent.
///
/// Each epoch steps once per batch, then measures the training loss
/// over every row. When the batch covers every row (one in-order chunk,
/// never shuffled), that measuring pass is a gradient pass: it records
/// the epoch's loss and leaves the gradient for the next epoch's step,
/// so a full-batch epoch runs the network once instead of twice. The
/// gradient pass returns the same loss bits as a loss-only pass, so
/// weights, loss histories, stop epochs and checkpoints are those of
/// the two-pass loop. Minibatch runs keep the separate loss pass.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains on `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// - [`NnError::EmptyTrainingSet`] if `xs` has no rows.
    /// - [`NnError::ShapeMismatch`] if widths do not match the network.
    /// - [`NnError::InvalidHyperParameter`] for invalid configuration.
    /// - [`NnError::Diverged`] if training diverges and every recovery
    ///   attempt is exhausted (unless
    ///   [`TrainConfig::halt_on_divergence`] is set).
    /// - [`NnError::Io`] if a configured checkpoint cannot be written.
    pub fn fit(&self, mlp: &mut Mlp, xs: &Matrix, ys: &Matrix) -> Result<TrainReport, NnError> {
        self.fit_impl(mlp, xs, ys, None)
    }

    /// Continues an interrupted run from `checkpoint`. With the same
    /// configuration, data and seed, the resumed run finishes
    /// bit-identically to an uninterrupted one: the checkpoint carries the
    /// optimizer state and loss history, and the shuffle RNG is fast-forwarded
    /// by replaying the completed epochs' permutations.
    ///
    /// # Errors
    ///
    /// As for [`Trainer::fit`], plus [`NnError::ShapeMismatch`] when the
    /// checkpointed network does not match `mlp`'s topology.
    pub fn resume_from(
        &self,
        mlp: &mut Mlp,
        xs: &Matrix,
        ys: &Matrix,
        checkpoint: &Checkpoint,
    ) -> Result<TrainReport, NnError> {
        self.fit_impl(mlp, xs, ys, Some(checkpoint))
    }

    fn fit_impl(
        &self,
        mlp: &mut Mlp,
        xs: &Matrix,
        ys: &Matrix,
        resume: Option<&Checkpoint>,
    ) -> Result<TrainReport, NnError> {
        self.config.validate()?;
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
        if let Some(ck) = resume {
            if ck.mlp.param_count() != mlp.param_count() {
                return Err(NnError::ShapeMismatch {
                    expected: mlp.param_count(),
                    actual: ck.mlp.param_count(),
                    what: "checkpoint parameter count",
                });
            }
            *mlp = ck.mlp.clone();
        }

        let start_attempt = resume.map_or(0, |c| c.attempt);
        let final_attempt = self.config.max_retries.max(start_attempt);
        let mut resume_state = resume;
        let mut diverged: Option<TrainReport> = None;
        for attempt in start_attempt..=final_attempt {
            if attempt != start_attempt {
                // Fresh restart: re-derived seed, backed-off learning rate.
                let seed = Seed::new(self.config.seed).derive(attempt as u64).value();
                mlp.reinitialize(self.config.retry_initializer, seed);
                resume_state = None;
            }
            let report = self.run_attempt(mlp, xs, ys, resume_state, attempt)?;
            if report.stop_reason == StopReason::Diverged {
                diverged = Some(report);
            } else {
                return Ok(report);
            }
        }
        // Every attempt diverged; `mlp` holds the last attempt's final
        // finite snapshot.
        let report = match diverged {
            Some(r) => r,
            // Unreachable: the loop above always runs at least once.
            None => return Err(NnError::Diverged { epoch: 0 }),
        };
        if self.config.halt_on_divergence {
            Ok(report)
        } else {
            Err(NnError::Diverged {
                epoch: report.epochs_run.saturating_sub(1),
            })
        }
    }

    /// One training attempt. Divergence is reported as an `Ok` result with
    /// [`StopReason::Diverged`] (parameters rolled back to the last finite
    /// epoch) so the caller can decide between retrying and erroring.
    fn run_attempt(
        &self,
        mlp: &mut Mlp,
        xs: &Matrix,
        ys: &Matrix,
        resume: Option<&Checkpoint>,
        attempt: usize,
    ) -> Result<TrainReport, NnError> {
        let n = xs.rows();
        let batch = self.config.batch_size.unwrap_or(n).min(n);
        let mut rng = Xoshiro256::seed_from(self.config.seed);
        let mut optimizer = self.config.optimizer.into_optimizer();
        let schedule = self
            .config
            .schedule
            .scaled(self.config.retry_lr_backoff.powi(attempt as i32));
        let mut params = mlp.params_flat();

        // All per-epoch scratch is allocated up front; the epoch loop then
        // runs allocation-free (asserted by `tests/alloc.rs`).
        let mut ws = Workspace::for_mlp(mlp);
        let mut engine = BandEngine::new(self.config.jobs);
        let mut bx = Matrix::zeros(0, xs.cols());
        let mut by = Matrix::zeros(0, ys.cols());

        let mut loss_history = Vec::with_capacity(self.config.max_epochs);
        let mut start_epoch = 0usize;
        let mut indices: Vec<usize> = (0..n).collect();

        if let Some(ck) = resume {
            start_epoch = ck.epoch;
            optimizer.restore_state(ck.opt_velocity.clone(), ck.opt_second.clone(), ck.opt_step);
            loss_history.clone_from(&ck.loss_history);
            // Replay the completed epochs' shuffles so the RNG position and
            // the index permutation match the interrupted run exactly.
            if self.config.shuffle && batch < n {
                for _ in 0..start_epoch {
                    rng.shuffle(&mut indices);
                }
            }
        }

        let mut stop_reason = StopReason::MaxEpochs;
        let mut epochs_run = start_epoch;
        let mut last_finite = params.clone();
        let grad_limit = self.config.divergence_grad_norm * self.config.divergence_grad_norm;
        // A full batch is one in-order chunk that is never shuffled, so
        // the pass that measures an epoch's loss can be a gradient pass:
        // it leaves the next epoch's gradient in `ws.grad`, and
        // `grad_ready` lets that step skip its own pass.
        let full_batch = batch == n;
        let mut grad_ready = false;

        for epoch in start_epoch..self.config.max_epochs {
            epochs_run = epoch + 1;
            if self.config.shuffle && batch < n {
                rng.shuffle(&mut indices);
            }
            let lr = schedule.rate_at(epoch);

            let mut exploded = false;
            for chunk in indices.chunks(batch) {
                if !grad_ready {
                    mlp.set_params_flat(&params)?;
                    gather_into(xs, ys, chunk, &mut bx, &mut by);
                    engine.batch_gradient(mlp, &bx, &by, self.config.loss, &mut ws)?;
                }
                grad_ready = false;
                let grads = ws.grad_mut();
                if self.config.weight_decay > 0.0 {
                    for (g, p) in grads.iter_mut().zip(params.iter()) {
                        *g += self.config.weight_decay * p;
                    }
                }
                if let Some(max_norm) = self.config.gradient_clip {
                    let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
                    if norm > max_norm {
                        let scale = max_norm / norm;
                        for g in grads.iter_mut() {
                            *g *= scale;
                        }
                    }
                }
                // Post-clip explosion guard: a clipped run never trips it.
                let norm_sq = grads.iter().map(|g| g * g).sum::<f64>();
                if !norm_sq.is_finite() || norm_sq > grad_limit {
                    exploded = true;
                    break;
                }
                optimizer.step(&mut params, grads, lr)?;
            }

            let mut train_loss = f64::NAN;
            let mut diverged = exploded || params.iter().any(|p| !p.is_finite());
            if !diverged {
                mlp.set_params_flat(&params)?;
                // Both passes return the same loss bits (`total / rows`).
                train_loss = if full_batch {
                    engine.batch_gradient(mlp, xs, ys, self.config.loss, &mut ws)?
                } else {
                    engine.batch_loss(mlp, xs, ys, self.config.loss, &mut ws)?
                };
                grad_ready = full_batch;
                diverged = !train_loss.is_finite();
            }
            if diverged {
                // Roll back to the last finite epoch rather than leaving
                // NaNs in the network.
                params = last_finite;
                mlp.set_params_flat(&params)?;
                let final_train_loss = engine.batch_loss(mlp, xs, ys, self.config.loss, &mut ws)?;
                return Ok(TrainReport {
                    epochs_run,
                    final_train_loss,
                    stop_reason: StopReason::Diverged,
                    loss_history,
                    recovery_attempts: attempt,
                    resumed_from_epoch: resume.map(|c| c.epoch),
                });
            }
            last_finite.clone_from(&params);
            loss_history.push(train_loss);

            if let Some(threshold) = self.config.termination_threshold {
                if train_loss <= threshold {
                    stop_reason = StopReason::ThresholdReached;
                    break;
                }
            }

            if let (Some(every), Some(path)) = (
                self.config.checkpoint_every,
                self.config.checkpoint_path.as_deref(),
            ) {
                if (epoch + 1) % every == 0 {
                    let (velocity, second, steps) = optimizer.state();
                    let ck = Checkpoint {
                        epoch: epoch + 1,
                        attempt,
                        recovery_attempts: attempt,
                        opt_step: steps,
                        opt_velocity: velocity.to_vec(),
                        opt_second: second.to_vec(),
                        loss_history: loss_history.clone(),
                        mlp: mlp.clone(),
                    };
                    ck.save_with(&*self.config.checkpoint_fs, path)?;
                }
            }
        }

        mlp.set_params_flat(&params)?;

        let final_train_loss = engine.batch_loss(mlp, xs, ys, self.config.loss, &mut ws)?;

        Ok(TrainReport {
            epochs_run,
            final_train_loss,
            stop_reason,
            loss_history,
            recovery_attempts: attempt,
            resumed_from_epoch: resume.map(|c| c.epoch),
        })
    }
}

/// Copies the selected sample rows into reusable minibatch matrices —
/// after the first (largest) chunk this never allocates.
fn gather_into(xs: &Matrix, ys: &Matrix, idx: &[usize], bx: &mut Matrix, by: &mut Matrix) {
    bx.resize_rows(idx.len());
    by.resize_rows(idx.len());
    for (out_r, &r) in idx.iter().enumerate() {
        bx.row_mut(out_r).copy_from_slice(xs.row(r));
        by.row_mut(out_r).copy_from_slice(ys.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, Activation, MlpBuilder};

    fn xor_data() -> (Matrix, Matrix) {
        let xs = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let ys = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]).unwrap();
        (xs, ys)
    }

    fn xor_mlp(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(8, Activation::tanh())
            .output(1, Activation::identity())
            .seed(seed)
            .build()
            .unwrap()
    }

    /// 960 rows = 15 bands, enough to clear `BandEngine::new(jobs)`'s
    /// dispatch threshold (2*jobs bands) for jobs up to 7.
    fn band_data() -> (Matrix, Matrix) {
        let rows = 960;
        let xs = Matrix::from_fn(rows, 2, |r, c| {
            let t = (r * 2 + c) as f64 / rows as f64;
            t * 4.0 - 2.0
        });
        let ys = Matrix::from_fn(rows, 1, |r, _| {
            let a = xs.get(r, 0);
            let b = xs.get(r, 1);
            a * a + 0.5 * b
        });
        (xs, ys)
    }

    /// What the two-pass oracle loop saw, epoch by epoch.
    struct OracleRun {
        /// Parameters before the first epoch, then after each finite one.
        params: Vec<Vec<f64>>,
        /// Training loss after each finite epoch.
        losses: Vec<f64>,
        /// Whether an epoch diverged (the trainer's default guards).
        diverged: bool,
    }

    /// Optimizer, batch size, shuffle seed, learning rate and epochs.
    type OracleCase = (OptimizerKind, usize, u64, f64, usize);

    /// The trainer's epoch loop written as two passes per epoch over the
    /// per-sample oracle: every chunk steps on `oracle::batch_gradient`,
    /// then `oracle::batch_loss` measures the epoch. The rows are shuffled
    /// only when `batch < n`, as in the trainer. Stops at the first
    /// diverged epoch.
    fn two_pass_oracle(mut mlp: Mlp, xs: &Matrix, ys: &Matrix, case: OracleCase) -> OracleRun {
        let (opt, batch, seed, lr, epochs) = case;
        let n = xs.rows();
        let grad_limit = 1e12 * 1e12;
        let mut rng = Xoshiro256::seed_from(seed);
        let mut optimizer = opt.into_optimizer();
        let mut params = mlp.params_flat();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut run = OracleRun {
            params: vec![params.clone()],
            losses: Vec::new(),
            diverged: false,
        };
        for _ in 0..epochs {
            if batch < n {
                rng.shuffle(&mut indices);
            }
            for chunk in indices.chunks(batch) {
                mlp.set_params_flat(&params).unwrap();
                let mut bx = Matrix::zeros(chunk.len(), xs.cols());
                let mut by = Matrix::zeros(chunk.len(), ys.cols());
                for (out_r, &r) in chunk.iter().enumerate() {
                    bx.row_mut(out_r).copy_from_slice(xs.row(r));
                    by.row_mut(out_r).copy_from_slice(ys.row(r));
                }
                let (_, grads) = oracle::batch_gradient(&mlp, &bx, &by, Loss::MeanSquared).unwrap();
                let norm_sq = grads.iter().map(|g| g * g).sum::<f64>();
                if !norm_sq.is_finite() || norm_sq > grad_limit {
                    run.diverged = true;
                    return run;
                }
                optimizer.step(&mut params, &grads, lr).unwrap();
            }
            if params.iter().any(|p| !p.is_finite()) {
                run.diverged = true;
                return run;
            }
            mlp.set_params_flat(&params).unwrap();
            let loss = oracle::batch_loss(&mlp, xs, ys, Loss::MeanSquared).unwrap();
            if !loss.is_finite() {
                run.diverged = true;
                return run;
            }
            run.params.push(params.clone());
            run.losses.push(loss);
        }
        run
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn trained_weights_are_bitwise_for_any_jobs() {
        // Full batch: each epoch's loss and the next step's gradient come
        // from one gradient pass, on the band pool from jobs 2 up, and
        // still match the two-pass oracle bit for bit.
        let (xs, ys) = band_data();
        let case = (OptimizerKind::Sgd, xs.rows(), 0, 0.05, 8);
        let oracle = two_pass_oracle(xor_mlp(11), &xs, &ys, case);
        assert!(!oracle.diverged);
        for jobs in [1, 2, 4, 7] {
            let mut mlp = xor_mlp(11);
            let config = TrainConfig::new()
                .max_epochs(8)
                .learning_rate(0.05)
                .jobs(jobs);
            let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
            assert_eq!(
                bits(&mlp.params_flat()),
                bits(&oracle.params[8]),
                "params at jobs={jobs}"
            );
            assert_eq!(
                bits(&report.loss_history),
                bits(&oracle.losses),
                "history at jobs={jobs}"
            );
        }
    }

    #[test]
    fn learns_xor() {
        // XOR is the canonical non-linearly-separable problem — exactly the
        // kind of non-linearity the paper argues linear models cannot fit.
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(3);
        let config = TrainConfig::new()
            .max_epochs(3000)
            .learning_rate(0.3)
            .optimizer(OptimizerKind::momentum());
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert!(
            report.final_train_loss < 0.02,
            "loss {}",
            report.final_train_loss
        );
        for r in 0..4 {
            let pred = mlp.forward(xs.row(r)).unwrap()[0];
            assert!((pred - ys.get(r, 0)).abs() < 0.35, "row {r}: {pred}");
        }
    }

    #[test]
    fn loss_history_trends_down() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(4);
        let config = TrainConfig::new().max_epochs(500).learning_rate(0.2);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert_eq!(report.loss_history.len(), 500);
        let first = report.loss_history[0];
        let last = *report.loss_history.last().unwrap();
        assert!(last < first);
        assert_eq!(report.stop_reason, StopReason::MaxEpochs);
        assert_eq!(report.recovery_attempts, 0);
        assert_eq!(report.resumed_from_epoch, None);
    }

    #[test]
    fn termination_threshold_stops_early() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(5);
        let config = TrainConfig::new()
            .max_epochs(10_000)
            .learning_rate(0.3)
            .optimizer(OptimizerKind::momentum())
            .termination_threshold(0.05);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert_eq!(report.stop_reason, StopReason::ThresholdReached);
        assert!(report.epochs_run < 10_000);
        assert!(report.final_train_loss <= 0.05 + 1e-9);

        // Full batch: the fused loop stops at the oracle's first epoch
        // under the threshold, with the oracle's history.
        let case = (OptimizerKind::momentum(), xs.rows(), 0, 0.3, 10_000);
        let oracle = two_pass_oracle(xor_mlp(5), &xs, &ys, case);
        let stop = oracle.losses.iter().position(|&l| l <= 0.05).unwrap();
        assert_eq!(report.epochs_run, stop + 1);
        assert_eq!(bits(&report.loss_history), bits(&oracle.losses[..=stop]));
        assert_eq!(bits(&mlp.params_flat()), bits(&oracle.params[stop + 1]));
    }

    #[test]
    fn mini_batch_training_works() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(7);
        let config = TrainConfig::new()
            .max_epochs(2000)
            .learning_rate(0.1)
            .batch_size(2)
            .optimizer(OptimizerKind::momentum())
            .rng_seed(1);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert!(report.final_train_loss < 0.1, "{}", report.final_train_loss);
    }

    #[test]
    fn batched_training_is_bitwise_scalar_training() {
        // The Trainer runs the GEMM-batched workspace path, and a
        // full-batch epoch takes its loss from the gradient pass that
        // feeds the next step. Replicate its epoch loop as two passes
        // over the per-sample oracle, and require byte-identical
        // parameters and loss history.
        let (xs, ys) = xor_data();
        let n = xs.rows();
        for case in [
            (OptimizerKind::Sgd, 2usize, 11u64, 0.1, 40usize),
            (OptimizerKind::Sgd, 3, 5, 0.2, 25), // ragged last chunk
            (OptimizerKind::adam(), 2, 23, 0.05, 40),
            // Full batch: one in-order chunk, never shuffled.
            (OptimizerKind::Sgd, n, 11, 0.1, 40),
            (OptimizerKind::momentum(), n, 5, 0.3, 60),
            (OptimizerKind::adam(), n, 23, 0.05, 40),
        ] {
            let (opt, batch, seed, lr, epochs) = case;
            let mut trained = xor_mlp(9);
            let config = TrainConfig::new()
                .max_epochs(epochs)
                .learning_rate(lr)
                .batch_size(batch)
                .optimizer(opt)
                .rng_seed(seed);
            let report = Trainer::new(config).fit(&mut trained, &xs, &ys).unwrap();

            let oracle = two_pass_oracle(xor_mlp(9), &xs, &ys, case);
            assert!(!oracle.diverged, "oracle diverged ({opt:?}, batch {batch})");
            let trained_bits = bits(&trained.params_flat());
            let manual_bits = bits(&oracle.params[epochs]);
            assert_eq!(trained_bits, manual_bits, "params differ ({opt:?})");
            let hist_bits = bits(&report.loss_history);
            let manual_hist = bits(&oracle.losses);
            assert_eq!(hist_bits, manual_hist, "loss history differs ({opt:?})");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = xor_data();
        let config = TrainConfig::new()
            .max_epochs(50)
            .learning_rate(0.1)
            .batch_size(2)
            .rng_seed(42);
        let mut a = xor_mlp(8);
        let mut b = xor_mlp(8);
        let ra = Trainer::new(config.clone()).fit(&mut a, &xs, &ys).unwrap();
        let rb = Trainer::new(config).fit(&mut b, &xs, &ys).unwrap();
        assert_eq!(ra.loss_history, rb.loss_history);
        assert_eq!(a.params_flat(), b.params_flat());
    }

    #[test]
    fn divergence_detected() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(9);
        // Huge learning rate on scaled-up targets blows up quickly.
        let big_y = ys.scale(1e6);
        let config = TrainConfig::new().max_epochs(200).learning_rate(1e6);
        let result = Trainer::new(config).fit(&mut mlp, &xs, &big_y);
        assert!(matches!(result, Err(NnError::Diverged { .. })));
        // The network is rolled back to the last finite snapshot, not left
        // full of NaNs.
        assert!(mlp.is_finite());
    }

    #[test]
    fn recovery_retries_after_divergence() {
        let (xs, ys) = xor_data();
        let big_y = ys.scale(1e6);
        let mut mlp = xor_mlp(9);
        // First attempt diverges at rate 1e6; the backoff drops the retry
        // to a rate that survives.
        let config = TrainConfig::new()
            .max_epochs(50)
            .learning_rate(1e6)
            .recover(2)
            .retry_backoff(1e-8);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &big_y).unwrap();
        assert!(report.recovery_attempts >= 1, "{report:?}");
        assert_ne!(report.stop_reason, StopReason::Diverged);
        assert!(mlp.is_finite());
    }

    #[test]
    fn halt_on_divergence_reports_instead_of_error() {
        let (xs, ys) = xor_data();
        let big_y = ys.scale(1e6);
        let mut mlp = xor_mlp(9);
        let config = TrainConfig::new()
            .max_epochs(200)
            .learning_rate(1e6)
            .halt_on_divergence(true);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &big_y).unwrap();
        assert_eq!(report.stop_reason, StopReason::Diverged);
        assert!(mlp.is_finite(), "diverged params must be rolled back");
        assert!(report.final_train_loss.is_finite());

        // Full batch: the rollback lands on the oracle's last finite
        // epoch, and the final loss is that epoch's loss.
        let case = (OptimizerKind::Sgd, xs.rows(), 0, 1e6, 200);
        let oracle = two_pass_oracle(xor_mlp(9), &xs, &big_y, case);
        assert!(oracle.diverged);
        let last_finite = oracle.params.last().unwrap();
        assert_eq!(report.epochs_run, oracle.losses.len() + 1);
        assert_eq!(bits(&report.loss_history), bits(&oracle.losses));
        assert_eq!(bits(&mlp.params_flat()), bits(last_finite));
        let mut probe = xor_mlp(9);
        probe.set_params_flat(last_finite).unwrap();
        let final_loss = oracle::batch_loss(&probe, &xs, &big_y, Loss::MeanSquared).unwrap();
        assert_eq!(report.final_train_loss.to_bits(), final_loss.to_bits());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (xs, ys) = xor_data();
        let dir = std::env::temp_dir().join(format!("wlc-nn-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let minibatch = TrainConfig::new()
            .max_epochs(60)
            .learning_rate(0.1)
            .batch_size(2)
            .optimizer(OptimizerKind::adam())
            .rng_seed(17);
        // Full batch: the resumed run recomputes the gradient the
        // interrupted run's last loss pass left behind.
        let full_batch = TrainConfig::new()
            .max_epochs(60)
            .learning_rate(0.1)
            .optimizer(OptimizerKind::adam())
            .rng_seed(17);
        for (name, base) in [("minibatch", minibatch), ("full-batch", full_batch)] {
            let path = dir.join(format!("{name}.ckpt"));

            // Uninterrupted run.
            let mut full = xor_mlp(13);
            let full_report = Trainer::new(base.clone()).fit(&mut full, &xs, &ys).unwrap();

            // "Killed" run: stops at epoch 40, leaving a checkpoint behind.
            let mut partial = xor_mlp(13);
            Trainer::new(
                base.clone()
                    .max_epochs(40)
                    .checkpoint_every(20)
                    .checkpoint_path(&path),
            )
            .fit(&mut partial, &xs, &ys)
            .unwrap();

            let ck = Checkpoint::load(&path).unwrap();
            assert_eq!(ck.epochs_completed(), 40);
            let mut resumed = xor_mlp(13);
            let resumed_report = Trainer::new(base)
                .resume_from(&mut resumed, &xs, &ys, &ck)
                .unwrap();

            assert_eq!(resumed_report.resumed_from_epoch, Some(40));
            assert_eq!(resumed.params_flat(), full.params_flat(), "{name}");
            assert_eq!(
                resumed_report.loss_history, full_report.loss_history,
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_network() {
        let (xs, ys) = xor_data();
        let dir = std::env::temp_dir().join("wlc-nn-resume-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let mut mlp = xor_mlp(13);
        Trainer::new(
            TrainConfig::new()
                .max_epochs(4)
                .learning_rate(0.1)
                .checkpoint_every(2)
                .checkpoint_path(&path),
        )
        .fit(&mut mlp, &xs, &ys)
        .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let mut other = MlpBuilder::new(2)
            .hidden(3, Activation::tanh())
            .output(1, Activation::identity())
            .seed(1)
            .build()
            .unwrap();
        assert!(matches!(
            Trainer::new(TrainConfig::new()).resume_from(&mut other, &xs, &ys, &ck),
            Err(NnError::ShapeMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_config() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(10);
        assert!(Trainer::new(TrainConfig::new().max_epochs(0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().batch_size(0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().termination_threshold(-1.0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn robustness_config_validates() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(10);
        assert!(Trainer::new(TrainConfig::new().retry_backoff(0.0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().retry_backoff(1.5))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().divergence_grad_norm(0.0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().checkpoint_every(0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        // checkpoint_every without a destination path is rejected.
        assert!(Trainer::new(TrainConfig::new().checkpoint_every(5))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn rejects_empty_and_mismatched_data() {
        let mut mlp = xor_mlp(11);
        let empty = Matrix::zeros(0, 2);
        let empty_y = Matrix::zeros(0, 1);
        assert!(matches!(
            Trainer::new(TrainConfig::new()).fit(&mut mlp, &empty, &empty_y),
            Err(NnError::EmptyTrainingSet)
        ));
        let xs = Matrix::zeros(4, 2);
        let ys = Matrix::zeros(3, 1);
        assert!(Trainer::new(TrainConfig::new())
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn learning_rate_schedule_is_consumed() {
        // A rapidly decaying schedule freezes training: early epochs must
        // move the loss far more than late epochs (the rate halves every
        // epoch, so by epoch 30 it is ~1e-10 of the initial value).
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(14);
        let schedule =
            crate::LearningRateSchedule::exponential(0.2, std::f64::consts::LN_2).unwrap();
        let config = TrainConfig::new().max_epochs(40).schedule(schedule);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        let early_move = (report.loss_history[0] - report.loss_history[5]).abs();
        let late_move = (report.loss_history[34] - report.loss_history[39]).abs();
        assert!(
            late_move < early_move / 100.0,
            "schedule not applied: early {early_move} late {late_move}"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameter_norm() {
        let (xs, ys) = xor_data();
        let norm_after = |decay: f64| {
            let mut mlp = xor_mlp(20);
            let mut config = TrainConfig::new().max_epochs(500).learning_rate(0.1);
            if decay > 0.0 {
                config = config.weight_decay(decay);
            }
            Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
            mlp.params_flat().iter().map(|p| p * p).sum::<f64>().sqrt()
        };
        let plain = norm_after(0.0);
        let decayed = norm_after(0.05);
        assert!(decayed < plain, "plain {plain} decayed {decayed}");
    }

    #[test]
    fn gradient_clipping_prevents_divergence() {
        // The same setup that diverges un-clipped (see divergence_detected)
        // survives with a clipped gradient norm.
        let (xs, ys) = xor_data();
        let big_y = ys.scale(1e6);
        let mut mlp = xor_mlp(9);
        let config = TrainConfig::new()
            .max_epochs(200)
            .learning_rate(1e6)
            .gradient_clip(1e-4);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &big_y);
        assert!(report.is_ok(), "{report:?}");
        assert!(mlp.is_finite());
    }

    #[test]
    fn decay_and_clip_validate() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(10);
        assert!(Trainer::new(TrainConfig::new().weight_decay(-1.0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().gradient_clip(0.0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn batch_loss_of_perfect_model_is_zero() {
        let (xs, _) = xor_data();
        let mlp = xor_mlp(12);
        let mut ws = Workspace::for_mlp(&mlp);
        let preds = mlp.forward_batch_with(&xs, &mut ws).unwrap().clone();
        let loss = mlp
            .batch_loss_with(&xs, &preds, Loss::MeanSquared, &mut ws)
            .unwrap();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn stop_reason_display() {
        assert!(StopReason::MaxEpochs.to_string().contains("epochs"));
        assert!(StopReason::ThresholdReached
            .to_string()
            .contains("threshold"));
        assert!(StopReason::Diverged.to_string().contains("diverged"));
    }
}
