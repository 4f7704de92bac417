//! Multi-threaded row-band execution of the batched entry points.
//!
//! A [`BandEngine`] pairs a persistent [`wlc_exec::BandPool`] worker
//! team with per-worker [`Workspace`] scratch, and runs the three
//! batched entry points — forward, loss, gradient — with their
//! [`crate::BAND_ROWS`]-row bands fanned out across the team.
//!
//! # Determinism
//!
//! The engine produces **bitwise identical** results for any `jobs`
//! value, including 1, because nothing about the numeric work depends
//! on the worker count:
//!
//! - The band geometry is derived from the row count alone
//!   ([`crate::BAND_ROWS`]); band `b` always covers the same rows.
//! - Band `b` runs on team member `b % jobs` — a static assignment —
//!   and computes exactly the partials the
//!   in-line loop computes ([`Mlp::batch_gradient_with`] et al.),
//!   overwriting every scratch buffer it reads.
//! - Partials come back to the calling thread and are folded in
//!   ascending band order — the same `+=` sequence, on the same values,
//!   as the in-line loop.
//!
//! This is tested (`jobs 1` vs `jobs N` trained-weight and output
//! byte-equality) in this module and enforced end-to-end by the CI
//! thread-matrix smoke.
//!
//! # Dispatch
//!
//! With `jobs <= 1`, fewer bands of work than the dispatch threshold
//! (see [`BandEngine::with_dispatch_threshold`]), or a single band,
//! calls delegate to the in-line entry points — same algorithm, no
//! synchronization, no copies. The threaded path clones the network and
//! batch matrices into `Arc`s (the worker team outlives the call frame),
//! so it pays off only when the batch is large enough; the default
//! threshold requires at least two bands per team member.

use std::sync::Arc;

use wlc_exec::{band_count, BandPool, TrackedMutex};
use wlc_math::Matrix;

use crate::workspace::BandGrads;
use crate::{Loss, Mlp, NnError, Workspace, BAND_ROWS};

/// A persistent worker team plus per-worker scratch for running the
/// batched forward/loss/gradient entry points over row bands. See the
/// module docs for the determinism contract.
///
/// # Examples
///
/// ```
/// use wlc_math::Matrix;
/// use wlc_nn::{Activation, BandEngine, Loss, MlpBuilder, Workspace};
///
/// let mlp = MlpBuilder::new(2)
///     .hidden(4, Activation::tanh())
///     .output(1, Activation::identity())
///     .seed(7)
///     .build()?;
/// let mut ws = Workspace::for_mlp(&mlp);
/// let mut engine = BandEngine::new(4);
/// let xs = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
/// let ys = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
/// // Bitwise identical to mlp.batch_gradient_with(..) for any jobs.
/// let loss = engine.batch_gradient(&mlp, &xs, &ys, Loss::MeanSquared, &mut ws)?;
/// assert!(loss.is_finite());
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
pub struct BandEngine {
    pool: BandPool,
    /// Pool path engages only when `band_count >= dispatch_threshold`.
    dispatch_threshold: usize,
    /// Reusable per-worker workspaces, checked out by band tasks. At
    /// most `jobs` are ever live, so steady state allocates nothing.
    scratch: Arc<TrackedMutex<Vec<Workspace>>>,
}

impl std::fmt::Debug for BandEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandEngine")
            .field("jobs", &self.pool.jobs())
            .field("dispatch_threshold", &self.dispatch_threshold)
            .finish_non_exhaustive()
    }
}

impl BandEngine {
    /// Builds an engine with a `jobs`-member team (the calling thread
    /// counts as one member) and the default dispatch threshold of two
    /// bands per member.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        BandEngine::with_dispatch_threshold(jobs, 2 * jobs)
    }

    /// [`BandEngine::new`] with an explicit dispatch threshold: the
    /// pool path engages once a call has at least `min_bands` bands
    /// (clamped to 2 — a single band always runs in-line). Tests use a
    /// low threshold to force the pool path on small batches.
    pub fn with_dispatch_threshold(jobs: usize, min_bands: usize) -> Self {
        BandEngine {
            pool: BandPool::new(jobs),
            dispatch_threshold: min_bands.max(2),
            scratch: Arc::new(TrackedMutex::new("BandEngine.scratch", Vec::new())),
        }
    }

    /// The team size (including the calling thread).
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Whether a `rows`-row call would take the pool path.
    fn pooled(&self, rows: usize) -> bool {
        self.pool.jobs() > 1 && band_count(rows, BAND_ROWS) >= self.dispatch_threshold
    }

    /// Checks out a worker workspace (or builds one on first use).
    fn checkout(scratch: &TrackedMutex<Vec<Workspace>>, mlp: &Mlp) -> Workspace {
        let cached = scratch.lock().pop();
        match cached {
            Some(ws) if ws.matches(mlp) => ws,
            _ => Workspace::for_mlp(mlp),
        }
    }

    /// [`Mlp::forward_batch_with`] with bands fanned out over the team;
    /// bitwise identical for any `jobs`.
    ///
    /// # Errors
    ///
    /// As for [`Mlp::forward_batch_with`].
    pub fn forward_batch<'ws>(
        &mut self,
        mlp: &Mlp,
        inputs: &Matrix,
        ws: &'ws mut Workspace,
    ) -> Result<&'ws Matrix, NnError> {
        if !self.pooled(inputs.rows()) {
            return mlp.forward_batch_with(inputs, ws);
        }
        ws.check(mlp)?;
        if inputs.cols() != mlp.inputs() {
            return Err(NnError::ShapeMismatch {
                expected: mlp.inputs(),
                actual: inputs.cols(),
                what: "input width",
            });
        }
        let rows = inputs.rows();
        let n_bands = band_count(rows, BAND_ROWS);
        let shared_mlp = Arc::new(mlp.clone());
        let shared_xs = Arc::new(inputs.clone());
        let scratch = Arc::clone(&self.scratch);
        let bands = self.pool.run(n_bands, move |b| {
            let r0 = b * BAND_ROWS;
            let r1 = (r0 + BAND_ROWS).min(shared_xs.rows());
            let mut band_ws = BandEngine::checkout(&scratch, &shared_mlp);
            let out = shared_mlp.forward_band_owned(&shared_xs, r0, r1, &mut band_ws);
            scratch.lock().push(band_ws);
            out
        });
        let out = ws.out_rows_mut(rows);
        let width = out.cols();
        for (b, band) in bands.into_iter().enumerate() {
            let rows_data = band?;
            let r0 = b * BAND_ROWS;
            for (q, chunk) in rows_data.chunks_exact(width).enumerate() {
                out.row_mut(r0 + q).copy_from_slice(chunk);
            }
        }
        Ok(ws.out_ref())
    }

    /// [`Mlp::batch_loss_with`] with bands fanned out over the team;
    /// bitwise identical for any `jobs`.
    ///
    /// # Errors
    ///
    /// As for [`Mlp::batch_loss_with`].
    pub fn batch_loss(
        &mut self,
        mlp: &Mlp,
        xs: &Matrix,
        ys: &Matrix,
        loss: Loss,
        ws: &mut Workspace,
    ) -> Result<f64, NnError> {
        if !self.pooled(xs.rows()) {
            return mlp.batch_loss_with(xs, ys, loss, ws);
        }
        if xs.rows() == 0 {
            return Err(NnError::EmptyTrainingSet);
        }
        ws.check(mlp)?;
        if xs.cols() != mlp.inputs() {
            return Err(NnError::ShapeMismatch {
                expected: mlp.inputs(),
                actual: xs.cols(),
                what: "input width",
            });
        }
        let rows = xs.rows();
        let n_bands = band_count(rows, BAND_ROWS);
        let shared_mlp = Arc::new(mlp.clone());
        let shared_xs = Arc::new(xs.clone());
        let shared_ys = Arc::new(ys.clone());
        let scratch = Arc::clone(&self.scratch);
        let bands = self.pool.run(n_bands, move |b| {
            let r0 = b * BAND_ROWS;
            let r1 = (r0 + BAND_ROWS).min(shared_xs.rows());
            let mut band_ws = BandEngine::checkout(&scratch, &shared_mlp);
            let sum = shared_mlp.band_loss_sum(&shared_xs, &shared_ys, loss, r0, r1, &mut band_ws);
            scratch.lock().push(band_ws);
            sum
        });
        // Fold band partials ascending — the in-line loop's order.
        let mut total = 0.0;
        for band in bands {
            total += band?;
        }
        Ok(total / rows as f64)
    }

    /// [`Mlp::batch_gradient_with`] with bands fanned out over the
    /// team, leaving the flat gradient in [`Workspace::grad`]; bitwise
    /// identical for any `jobs`.
    ///
    /// # Errors
    ///
    /// As for [`Mlp::batch_gradient_with`].
    pub fn batch_gradient(
        &mut self,
        mlp: &Mlp,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        ws: &mut Workspace,
    ) -> Result<f64, NnError> {
        if !self.pooled(inputs.rows()) {
            return mlp.batch_gradient_with(inputs, targets, loss, ws);
        }
        mlp.check_batch_shapes(inputs, targets)?;
        ws.check(mlp)?;
        let rows = inputs.rows();
        let n_bands = band_count(rows, BAND_ROWS);
        let shared_mlp = Arc::new(mlp.clone());
        let shared_xs = Arc::new(inputs.clone());
        let shared_ys = Arc::new(targets.clone());
        let scratch = Arc::clone(&self.scratch);
        let bands = self.pool.run(n_bands, move |b| {
            let b0 = b * BAND_ROWS;
            let b1 = (b0 + BAND_ROWS).min(shared_xs.rows());
            let mut band_ws = BandEngine::checkout(&scratch, &shared_mlp);
            let grads =
                shared_mlp.band_grads_owned(&shared_xs, &shared_ys, loss, b0, b1, &mut band_ws);
            scratch.lock().push(band_ws);
            grads
        });
        let mut partials: Vec<BandGrads> = Vec::with_capacity(n_bands);
        for band in bands {
            partials.push(band?);
        }
        Ok(mlp.fold_band_grads(&partials, rows, ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpBuilder};
    use wlc_math::rng::Xoshiro256;

    fn mlp() -> Mlp {
        MlpBuilder::new(4)
            .hidden(16, Activation::tanh())
            .hidden(12, Activation::logistic())
            .output(5, Activation::identity())
            .seed(11)
            .build()
            .unwrap()
    }

    fn batch(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_f64() * 2.0 - 1.0)
    }

    /// Rows chosen to exercise ragged final bands and band counts that
    /// do not divide evenly by any tested team size.
    const ROWS: usize = 451;

    /// Per-row [`Mlp::forward`], stacked.
    fn forward_rows(mlp: &Mlp, xs: &Matrix) -> Vec<f64> {
        (0..xs.rows())
            .flat_map(|r| mlp.forward(xs.row(r)).unwrap())
            .collect()
    }

    #[test]
    fn pooled_gradient_is_bitwise_inline_for_any_jobs() {
        let mlp = mlp();
        // At 7 and 103 rows, `total * (1 / rows)` and `total / rows`
        // round apart on these rows. 7 rows is one band, so it runs
        // in-line even at threshold 2; 103 rows takes the pool path.
        for rows in [7, 103, ROWS] {
            let xs = batch(rows, 4, 1);
            let ys = batch(rows, 5, 2);
            let (oracle_loss, oracle_grad) =
                crate::oracle::batch_gradient(&mlp, &xs, &ys, Loss::MeanSquared).unwrap();
            for jobs in [1, 2, 4, 7] {
                // Threshold 2 forces the pool path.
                let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
                let mut ws = Workspace::for_mlp(&mlp);
                let loss = engine
                    .batch_gradient(&mlp, &xs, &ys, Loss::MeanSquared, &mut ws)
                    .unwrap();
                assert_eq!(
                    loss.to_bits(),
                    oracle_loss.to_bits(),
                    "rows={rows} jobs={jobs}"
                );
                assert_eq!(ws.grad(), oracle_grad.as_slice(), "rows={rows} jobs={jobs}");
                // The gradient pass's mean loss is the loss pass's, bit
                // for bit: the trainer records full-batch epochs from it.
                let pooled_eval = engine
                    .batch_loss(&mlp, &xs, &ys, Loss::MeanSquared, &mut ws)
                    .unwrap();
                assert_eq!(
                    pooled_eval.to_bits(),
                    oracle_loss.to_bits(),
                    "rows={rows} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn pooled_forward_is_bitwise_inline_for_any_jobs() {
        let mlp = mlp();
        let xs = batch(ROWS, 4, 3);
        let per_row = forward_rows(&mlp, &xs);
        for jobs in [1, 2, 4, 7] {
            let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
            let mut ws = Workspace::for_mlp(&mlp);
            let out = engine.forward_batch(&mlp, &xs, &mut ws).unwrap();
            assert_eq!(out.as_slice(), per_row.as_slice(), "jobs={jobs}");
        }
    }

    #[test]
    fn pooled_loss_is_bitwise_inline_for_any_jobs() {
        let mlp = mlp();
        let xs = batch(ROWS, 4, 4);
        let ys = batch(ROWS, 5, 5);
        let mut ws = Workspace::for_mlp(&mlp);
        let per_row = crate::oracle::batch_loss(&mlp, &xs, &ys, Loss::MeanSquared).unwrap();
        for jobs in [1, 2, 4, 7] {
            let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
            let loss = engine
                .batch_loss(&mlp, &xs, &ys, Loss::MeanSquared, &mut ws)
                .unwrap();
            assert_eq!(loss.to_bits(), per_row.to_bits(), "jobs={jobs}");
        }
    }

    #[test]
    fn below_threshold_runs_inline() {
        let mlp = mlp();
        let xs = batch(64, 4, 6);
        // 1 band < threshold 2: in-line path, still correct.
        let mut engine = BandEngine::new(4);
        let mut ws = Workspace::for_mlp(&mlp);
        let out = engine.forward_batch(&mlp, &xs, &mut ws).unwrap();
        assert_eq!(out.as_slice(), forward_rows(&mlp, &xs).as_slice());
    }

    #[test]
    fn engine_is_reusable_and_errors_are_deterministic() {
        let mlp = mlp();
        let mut engine = BandEngine::with_dispatch_threshold(3, 2);
        let mut ws = Workspace::for_mlp(&mlp);
        // Wrong width errors identically to the in-line entry point.
        let bad = batch(ROWS, 3, 7);
        assert!(matches!(
            engine.forward_batch(&mlp, &bad, &mut ws),
            Err(NnError::ShapeMismatch { .. })
        ));
        // And the engine still works afterwards, call after call.
        let xs = batch(ROWS, 4, 8);
        let ys = batch(ROWS, 5, 9);
        let (oracle_loss, _) =
            crate::oracle::batch_gradient(&mlp, &xs, &ys, Loss::MeanSquared).unwrap();
        for _ in 0..2 {
            let loss = engine
                .batch_gradient(&mlp, &xs, &ys, Loss::MeanSquared, &mut ws)
                .unwrap();
            assert_eq!(loss.to_bits(), oracle_loss.to_bits());
        }
    }
}
