//! Reusable scratch buffers for allocation-free training and inference.
//!
//! A [`Workspace`] owns every intermediate buffer the batched forward and
//! backward passes need — activation/pre-activation/delta matrices,
//! per-layer gradient matrices and a flat gradient vector. Constructed
//! once per network topology, it lets steady-state training run with
//! **zero heap allocations per epoch**: buffers are grown on first use
//! and thereafter only resized within their existing capacity.
//!
//! There is one forward kernel and one gradient implementation. Each
//! layer's forward is one GEMM ([`wlc_math::gemm`]) against the layer's
//! own transposed weights, for one row ([`Mlp::forward`]) or a band of
//! rows ([`Mlp::forward_batch_with`]); the loss pass
//! ([`Mlp::batch_loss_with`]) is that forward pass plus a band-ordered
//! fold, and [`Mlp::batch_gradient_with`] runs the minibatch
//! forward/backward as GEMMs over the batch matrix. Every output element
//! of the kernels receives its floating-point additions in the committed
//! lane order, so the results are **bit-identical** to the naive
//! per-sample [`crate::oracle`] (see `docs/performance.md` for the
//! argument, and the tests below for the enforcement).
//!
//! Every multi-row pass is **band-mined** over [`BAND_ROWS`]-row bands:
//! rows `b * BAND_ROWS ..` form band `b`, per-band partial sums (weight
//! and bias gradients, loss totals) are produced independently per
//! band, and band partials are folded in ascending band order. The band
//! geometry depends only on the row count — never on worker counts or
//! data — which is what lets `wlc_exec::BandPool` fan bands out across
//! threads while producing the same bytes as this in-line loop.

use wlc_hot::wlc_hot;
use wlc_math::gemm;
use wlc_math::Matrix;

use crate::{Loss, Mlp, NnError};

/// Row-band height for every multi-row pass (batched forward, loss and
/// gradient). Part of the committed numeric contract: gradient and loss
/// partials are folded per band, so changing this value changes trained
/// model bits. The geometry is derived from the row count alone — band
/// `b` always covers rows `b * BAND_ROWS .. (b + 1) * BAND_ROWS`
/// (clamped) — so results never depend on how many workers process the
/// bands. A band's per-layer intermediates for a paper-sized topology
/// also stay cache-resident, which is why the pre-banding code strip-
/// mined at a similar width.
pub const BAND_ROWS: usize = 64;

/// Scratch buffers for allocation-free forward/backward passes over one
/// network topology.
///
/// Create one per [`Mlp`] shape with [`Workspace::for_mlp`] and reuse it
/// across calls; passing it to a network with a different topology is an
/// error. Batch-sized buffers grow on demand and are reused afterwards.
///
/// # Examples
///
/// ```
/// use wlc_math::Matrix;
/// use wlc_nn::{Activation, Loss, MlpBuilder, Workspace};
///
/// let mlp = MlpBuilder::new(2)
///     .hidden(4, Activation::tanh())
///     .output(1, Activation::identity())
///     .seed(7)
///     .build()?;
/// let mut ws = Workspace::for_mlp(&mlp);
/// let xs = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
/// let ys = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
/// let loss = mlp.batch_gradient_with(&xs, &ys, Loss::MeanSquared, &mut ws)?;
/// assert!(loss.is_finite());
/// assert_eq!(ws.grad().len(), mlp.param_count());
/// # Ok::<(), wlc_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Layer widths including the input layer, e.g. `[4, 16, 16, 5]`.
    topology: Vec<usize>,
    param_count: usize,
    /// Flat-gradient offset of each layer's parameter block.
    offsets: Vec<usize>,
    /// Rows currently materialized in the batch-sized matrices.
    rows: usize,
    /// Batched activations, one `rows x outputs(l)` matrix per layer.
    acts: Vec<Matrix>,
    /// Batched pre-activations, same shapes as `acts`.
    pre: Vec<Matrix>,
    /// Batched back-propagated deltas, same shapes as `acts`.
    deltas: Vec<Matrix>,
    /// Per-layer weight-gradient totals (`outputs x inputs`); their
    /// row-major layout equals the weight block of the flat gradient.
    /// Band partials from `wgrads_band` are folded in here, band
    /// ascending.
    wgrads: Vec<Matrix>,
    /// Per-layer single-band weight-gradient partials.
    wgrads_band: Vec<Matrix>,
    /// Per-layer bias-gradient totals.
    bgrads: Vec<Vec<f64>>,
    /// Per-layer single-band bias-gradient partials; folded into
    /// `bgrads` band-ascending, exactly like `wgrads_band`.
    bgrads_band: Vec<Vec<f64>>,
    /// [`gemm::LANES`] row-shaped partial-sum buffers (max layer width)
    /// for the bias-gradient column sums: band-local sample row `q`
    /// adds into buffer `q % LANES` contiguously, and the buffers are
    /// folded per column — the committed lane order, reached by
    /// row-contiguous (vectorizable) sweeps instead of column-strided
    /// scalar reads.
    bias_lanes: Vec<Vec<f64>>,
    /// Flat gradient, laid out like [`Mlp::params_flat`].
    grad: Vec<f64>,
    /// Full-size prediction matrix returned by the band-mined
    /// [`Mlp::forward_batch_with`], and read by the loss pass.
    out: Matrix,
}

impl Workspace {
    /// Builds a workspace sized for `mlp`'s topology. Batch-sized buffers
    /// start empty and grow on first use.
    pub fn for_mlp(mlp: &Mlp) -> Self {
        let topology = mlp.topology();
        let param_count = mlp.param_count();
        let mut offsets = Vec::with_capacity(mlp.layers().len());
        let mut off = 0;
        for layer in mlp.layers() {
            offsets.push(off);
            off += layer.param_count();
        }
        let max_width = topology[1..].iter().copied().max().unwrap_or(0);
        let acts: Vec<Matrix> = mlp
            .layers()
            .iter()
            .map(|l| Matrix::zeros(0, l.outputs()))
            .collect();
        Workspace {
            pre: acts.clone(),
            deltas: acts.clone(),
            acts,
            wgrads: mlp
                .layers()
                .iter()
                .map(|l| Matrix::zeros(l.outputs(), l.inputs()))
                .collect(),
            wgrads_band: mlp
                .layers()
                .iter()
                .map(|l| Matrix::zeros(l.outputs(), l.inputs()))
                .collect(),
            bias_lanes: (0..gemm::LANES).map(|_| vec![0.0; max_width]).collect(),
            bgrads: mlp
                .layers()
                .iter()
                .map(|l| vec![0.0; l.outputs()])
                .collect(),
            bgrads_band: mlp
                .layers()
                .iter()
                .map(|l| vec![0.0; l.outputs()])
                .collect(),
            grad: vec![0.0; param_count],
            out: Matrix::zeros(0, mlp.outputs()),
            topology,
            param_count,
            offsets,
            rows: 0,
        }
    }

    /// The flat gradient left by the last gradient call (layout of
    /// [`Mlp::params_flat`]).
    pub fn grad(&self) -> &[f64] {
        &self.grad
    }

    /// Layer widths this workspace was sized for.
    pub fn topology(&self) -> &[usize] {
        &self.topology
    }

    /// Whether this workspace was built for exactly `mlp`'s topology.
    /// Performs no allocation — long-lived callers (e.g. serving workers
    /// holding a workspace across hot model reloads) use this to decide
    /// when to rebuild.
    pub fn matches(&self, mlp: &Mlp) -> bool {
        self.check(mlp).is_ok()
    }

    /// Errors unless `mlp` has exactly the topology this workspace was
    /// built for. Performs no allocation.
    pub(crate) fn check(&self, mlp: &Mlp) -> Result<(), NnError> {
        let ok = self.param_count == mlp.param_count()
            && self.topology.len() == mlp.layers().len() + 1
            && self.topology[0] == mlp.inputs()
            && mlp
                .layers()
                .iter()
                .zip(self.topology[1..].iter())
                .all(|(l, &w)| l.outputs() == w);
        if ok {
            Ok(())
        } else {
            Err(NnError::ShapeMismatch {
                expected: mlp.param_count(),
                actual: self.param_count,
                what: "workspace topology",
            })
        }
    }

    /// Resizes the batch-dimension buffers to `rows`, reusing capacity.
    fn ensure_batch(&mut self, rows: usize) {
        if self.rows != rows {
            for m in self
                .acts
                .iter_mut()
                .chain(self.pre.iter_mut())
                .chain(self.deltas.iter_mut())
            {
                m.resize_rows(rows);
            }
            self.rows = rows;
        }
    }
}

impl Mlp {
    /// Allocation-free batched forward pass: one GEMM per layer per
    /// [`BAND_ROWS`] band, so the intermediates stay cache-resident.
    /// Returns the `rows x outputs` prediction matrix held inside `ws`;
    /// every row is bit-identical to [`Mlp::forward`] and
    /// [`crate::oracle::forward`] of the corresponding input row (rows
    /// never interact, so the band geometry cannot affect forward
    /// results).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `inputs.cols() != self.inputs()`
    /// or the workspace has a different topology.
    #[wlc_hot]
    pub fn forward_batch_with<'ws>(
        &self,
        inputs: &Matrix,
        ws: &'ws mut Workspace,
    ) -> Result<&'ws Matrix, NnError> {
        ws.check(self)?;
        self.check_input_width(inputs.cols())?;
        let rows = inputs.rows();
        let last = self.layers().len() - 1;
        ws.out.resize_rows(rows);
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + BAND_ROWS).min(rows);
            self.batched_forward(inputs, r0, r1, ws)?;
            for (sr, r) in (r0..r1).enumerate() {
                ws.out.row_mut(r).copy_from_slice(ws.acts[last].row(sr));
            }
            r0 = r1;
        }
        Ok(&ws.out)
    }

    /// Mean loss over a dataset: [`Mlp::forward_batch_with`], then
    /// [`Loss::value_rows`] over each [`BAND_ROWS`] band of its
    /// predictions, bands added ascending (the committed reduction order
    /// shared with the gradient paths). Per-row values are bit-identical
    /// to evaluating [`crate::oracle::forward`] row by row.
    ///
    /// # Errors
    ///
    /// - [`NnError::EmptyTrainingSet`] if `xs` has no rows.
    /// - [`NnError::ShapeMismatch`] for width or workspace mismatches.
    #[wlc_hot]
    pub fn batch_loss_with(
        &self,
        xs: &Matrix,
        ys: &Matrix,
        loss: Loss,
        ws: &mut Workspace,
    ) -> Result<f64, NnError> {
        if xs.rows() == 0 {
            return Err(NnError::EmptyTrainingSet);
        }
        mean_band_loss(self.forward_batch_with(xs, ws)?, ys, loss)
    }

    /// Batched backpropagation: average loss over the minibatch, leaving
    /// the flat parameter gradient in [`Workspace::grad`].
    ///
    /// This is the hot path behind [`crate::Trainer`]. The batch is
    /// processed in [`BAND_ROWS`] bands; each band's forward + backward
    /// pass produces weight/bias-gradient and loss partials that are
    /// folded into the totals in ascending band order, and within a band
    /// every reduction over sample rows uses the committed lane order
    /// ([`wlc_math::gemm`]). It is bit-identical to
    /// [`crate::oracle::batch_gradient`] and performs no heap allocation
    /// once the workspace has seen the band size.
    ///
    /// The returned mean loss is the band-folded loss total divided by
    /// the row count, so it has the same bits as [`Mlp::batch_loss_with`]
    /// on the same rows: the trainer's full-batch loop records an
    /// epoch's loss from the pass that also yields the next gradient.
    ///
    /// # Errors
    ///
    /// - [`NnError::EmptyTrainingSet`] if `inputs` has no rows.
    /// - [`NnError::ShapeMismatch`] if widths do not match the topology,
    ///   `targets.rows() != inputs.rows()`, or the workspace has a
    ///   different topology.
    #[wlc_hot]
    pub fn batch_gradient_with(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        ws: &mut Workspace,
    ) -> Result<f64, NnError> {
        self.check_batch_shapes(inputs, targets)?;
        ws.check(self)?;

        let rows = inputs.rows();
        let len = self.layers().len();

        for l in 0..len {
            ws.wgrads[l].as_mut_slice().fill(0.0);
            ws.bgrads[l].fill(0.0);
        }
        let mut total_loss = 0.0;
        let mut b0 = 0;
        while b0 < rows {
            let b1 = (b0 + BAND_ROWS).min(rows);
            total_loss += self.gradient_band(inputs, targets, loss, b0, b1, ws)?;
            b0 = b1;
        }

        Ok(flatten_and_scale(ws, rows, total_loss))
    }

    /// One band of the batched gradient: forward + backward over rows
    /// `b0..b1`, folding the band's weight/bias-gradient partials into
    /// the workspace totals and returning the band's loss partial.
    #[wlc_hot]
    fn gradient_band(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        b0: usize,
        b1: usize,
        ws: &mut Workspace,
    ) -> Result<f64, NnError> {
        let band_loss = self.band_partials(inputs, targets, loss, b0, b1, ws)?;
        add_band(
            &mut ws.wgrads,
            &mut ws.bgrads,
            ws.wgrads_band.iter().map(|w| w.as_slice()),
            ws.bgrads_band.iter().map(|b| b.as_slice()),
        );
        Ok(band_loss)
    }

    /// Forward + backward over rows `b0..b1`, leaving the band's
    /// weight/bias-gradient partials in `ws.wgrads_band` /
    /// `ws.bgrads_band` (assigned, not accumulated) and returning the
    /// band's loss partial. The partials depend only on the band's rows
    /// and the network — never on leftover workspace contents — which is
    /// what lets `wlc_exec::BandPool` compute bands on different workers
    /// and fold them band-ascending to the same bits as the in-line
    /// loop.
    #[wlc_hot]
    fn band_partials(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        b0: usize,
        b1: usize,
        ws: &mut Workspace,
    ) -> Result<f64, NnError> {
        let band_rows = b1 - b0;
        let len = self.layers().len();
        let last = len - 1;
        self.batched_forward(inputs, b0, b1, ws)?;

        // Loss and output deltas, sample-row ascending within the band.
        let band_loss =
            loss.value_gradient_rows(&ws.acts[last], targets, b0, &mut ws.deltas[last])?;
        apply_derivative(
            &mut ws.deltas[last],
            &ws.pre[last],
            &ws.acts[last],
            self.layers()[last].activation(),
        );

        for l in (0..len).rev() {
            let layer = &self.layers()[l];
            // dW_l = delta_l^T * a_{l-1}: `k` in the TN kernel is the
            // band-local sample row, so lane `q % LANES` takes sample
            // `q`'s product — exactly where the oracle puts it.
            // Layer 0 reads its input band in place.
            if l == 0 {
                gemm::matmul_tn_rows_into(&ws.deltas[0], inputs, b0, b1, &mut ws.wgrads_band[0])?;
            } else {
                gemm::matmul_tn_into(&ws.deltas[l], &ws.acts[l - 1], &mut ws.wgrads_band[l])?;
            }
            // db_l = lane-split column sums of delta_l over band-local
            // sample rows, folded like every other lane reduction. Each
            // sample row adds into lane buffer `q % LANES` contiguously
            // (a vectorizable row sweep); per column, lane `l` still
            // holds exactly the `q ≡ l (mod LANES)` terms in ascending
            // order, folded left-to-right.
            {
                let dl = &ws.deltas[l];
                let nw = dl.cols();
                for lane in ws.bias_lanes.iter_mut() {
                    lane[..nw].fill(0.0);
                }
                for q in 0..band_rows {
                    let lane = &mut ws.bias_lanes[q % gemm::LANES];
                    for (s, &v) in lane[..nw].iter_mut().zip(dl.row(q)) {
                        *s += v;
                    }
                }
                for (j, b) in ws.bgrads_band[l].iter_mut().enumerate() {
                    *b = gemm::fold_lanes([
                        ws.bias_lanes[0][j],
                        ws.bias_lanes[1][j],
                        ws.bias_lanes[2][j],
                        ws.bias_lanes[3][j],
                    ]);
                }
            }
            if l > 0 {
                // delta_{l-1} = (delta_l * W_l) ⊙ f'(z_{l-1}): `k` is
                // the out-neuron index — the oracle splits the
                // same sum over the same lanes. The broadcast form reads
                // W_l directly (its rows are indexed by `k`), so no
                // transposed scratch is needed here.
                {
                    let (head, tail) = ws.deltas.split_at_mut(l);
                    gemm::matmul_into(&tail[0], layer.weights(), &mut head[l - 1])?;
                }
                apply_derivative(
                    &mut ws.deltas[l - 1],
                    &ws.pre[l - 1],
                    &ws.acts[l - 1],
                    self.layers()[l - 1].activation(),
                );
            }
        }
        Ok(band_loss)
    }

    /// Batched forward over `inputs[r0..r1]` into `ws.pre`/`ws.acts`,
    /// sizing them to `r1 - r0` rows.
    fn batched_forward(
        &self,
        inputs: &Matrix,
        r0: usize,
        r1: usize,
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        let rows = r1 - r0;
        ws.ensure_batch(rows);
        for (l, layer) in self.layers().iter().enumerate() {
            // Z_l = A_{l-1} * W_l^T, computed in broadcast form against
            // the layer's transposed weights: each `a` element fans
            // across a register tile of output columns, so one pass over
            // `k` fills a whole tile with only throughput-bound FMAs.
            // Each output element is still the lane-order dot product
            // (`gemm::dot_lanes`) that `oracle::forward` computes, bit
            // for bit — lane assignment is per-element, so the traversal
            // cannot change a bit. Layer 0 reads the input band in place
            // — no band copy.
            let (done, rest) = ws.acts.split_at_mut(l);
            let (a, a_r0, a_r1) = match done.last() {
                None => (inputs, r0, r1),
                Some(prev) => (prev, 0, rows),
            };
            gemm::matmul_bias_rows_into(
                a,
                a_r0,
                a_r1,
                layer.weights_t(),
                layer.biases(),
                &mut ws.pre[l],
            )?;
            layer
                .activation()
                .apply_slice_into(ws.pre[l].as_slice(), rest[0].as_mut_slice());
        }
        Ok(())
    }
}

/// Mean loss of a prediction matrix against `ys`: [`Loss::value_rows`]
/// over each [`BAND_ROWS`] band, bands added ascending, divided by the
/// row count — the gradient paths' fold and rounding, shared by
/// [`Mlp::batch_loss_with`] and `BandEngine::batch_loss`.
pub(crate) fn mean_band_loss(predicted: &Matrix, ys: &Matrix, loss: Loss) -> Result<f64, NnError> {
    let rows = predicted.rows();
    let mut total = 0.0;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + BAND_ROWS).min(rows);
        total += loss.value_rows(predicted, ys, r0, r1)?;
        r0 = r1;
    }
    Ok(total / rows as f64)
}

/// Adds one band's weight- and bias-gradient partials into the totals,
/// layer by layer: the one `+=` fold of the in-line and pooled gradient
/// paths.
fn add_band<'a>(
    wgrads: &mut [Matrix],
    bgrads: &mut [Vec<f64>],
    band_w: impl Iterator<Item = &'a [f64]>,
    band_b: impl Iterator<Item = &'a [f64]>,
) {
    for (t, p) in wgrads.iter_mut().zip(band_w) {
        for (t, &v) in t.as_mut_slice().iter_mut().zip(p) {
            *t += v;
        }
    }
    for (t, p) in bgrads.iter_mut().zip(band_b) {
        for (t, &v) in t.iter_mut().zip(p) {
            *t += v;
        }
    }
}

/// `delta ⊙= f'(z, a)` element-wise over whole batch matrices.
fn apply_derivative(delta: &mut Matrix, pre: &Matrix, acts: &Matrix, act: crate::Activation) {
    act.mul_derivative_slice(pre.as_slice(), acts.as_slice(), delta.as_mut_slice());
}

/// Flattens the per-layer gradient totals into the `params_flat`
/// layout, scales them by `1/rows` exactly like the oracle
/// (accumulate, then multiply), and returns the mean loss as
/// `total_loss / rows` — the division [`Mlp::batch_loss_with`] and
/// `BandEngine::batch_loss` use, so a gradient pass reports the same
/// loss bits as a loss pass over the same rows. Shared tail of the
/// in-line and band-pool gradient paths.
fn flatten_and_scale(ws: &mut Workspace, rows: usize, total_loss: f64) -> f64 {
    for l in 0..ws.offsets.len() {
        let base = ws.offsets[l];
        let w_len = ws.wgrads[l].rows() * ws.wgrads[l].cols();
        ws.grad[base..base + w_len].copy_from_slice(ws.wgrads[l].as_slice());
        let b_len = ws.bgrads[l].len();
        ws.grad[base + w_len..base + w_len + b_len].copy_from_slice(&ws.bgrads[l]);
    }
    let scale = 1.0 / rows as f64;
    for g in &mut ws.grad {
        *g *= scale;
    }
    total_loss / rows as f64
}

/// One band's gradient contribution, copied out of a worker's
/// workspace so the band pool can hand it back to the calling thread
/// for the deterministic band-ascending fold.
#[derive(Debug)]
pub(crate) struct BandGrads {
    /// Per-layer weight-gradient partials, row-major.
    pub wgrads: Vec<Vec<f64>>,
    /// Per-layer bias-gradient partials.
    pub bgrads: Vec<Vec<f64>>,
    /// The band's loss partial (sum over the band's rows).
    pub loss: f64,
}

impl Mlp {
    /// Pool-path band gradient: computes rows `b0..b1`'s partials on
    /// `ws` (any leftover contents are fully overwritten) and copies
    /// them out. Bitwise the same partials the in-line loop folds.
    pub(crate) fn band_grads_owned(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        b0: usize,
        b1: usize,
        ws: &mut Workspace,
    ) -> Result<BandGrads, NnError> {
        let band_loss = self.band_partials(inputs, targets, loss, b0, b1, ws)?;
        Ok(BandGrads {
            wgrads: ws
                .wgrads_band
                .iter()
                .map(|m| m.as_slice().to_vec())
                .collect(),
            bgrads: ws.bgrads_band.clone(),
            loss: band_loss,
        })
    }

    /// Pool-path merge: folds band partials into `ws`'s totals in
    /// ascending band order — the same `+=` sequence the in-line loop
    /// performs — then flattens and scales. Returns the mean loss.
    pub(crate) fn fold_band_grads(
        &self,
        bands: &[BandGrads],
        rows: usize,
        ws: &mut Workspace,
    ) -> f64 {
        for l in 0..self.layers().len() {
            ws.wgrads[l].as_mut_slice().fill(0.0);
            ws.bgrads[l].fill(0.0);
        }
        let mut total_loss = 0.0;
        for band in bands {
            add_band(
                &mut ws.wgrads,
                &mut ws.bgrads,
                band.wgrads.iter().map(|w| w.as_slice()),
                band.bgrads.iter().map(|b| b.as_slice()),
            );
            total_loss += band.loss;
        }
        flatten_and_scale(ws, rows, total_loss)
    }

    /// Pool-path band forward: runs rows `r0..r1` through `ws` and
    /// copies the band's output rows out (row-major, `outputs()` wide).
    /// Rows never interact, so each row is bitwise [`Mlp::forward`].
    pub(crate) fn forward_band_owned(
        &self,
        inputs: &Matrix,
        r0: usize,
        r1: usize,
        ws: &mut Workspace,
    ) -> Result<Vec<f64>, NnError> {
        self.batched_forward(inputs, r0, r1, ws)?;
        let last = self.layers().len() - 1;
        let acts = &ws.acts[last];
        let mut out = Vec::with_capacity((r1 - r0) * acts.cols());
        for q in 0..r1 - r0 {
            out.extend_from_slice(acts.row(q));
        }
        Ok(out)
    }
}

impl Workspace {
    /// Sizes the full prediction matrix for `rows` rows and returns it
    /// mutably (pool path: the engine scatters band outputs into it).
    pub(crate) fn out_rows_mut(&mut self, rows: usize) -> &mut Matrix {
        self.out.resize_rows(rows);
        &mut self.out
    }

    /// The full prediction matrix written by the last batched forward.
    pub(crate) fn out_ref(&self) -> &Matrix {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, DenseLayer, MlpBuilder};
    use wlc_math::rng::Xoshiro256;

    /// Odd topologies and batch sizes: 1-sample batches, 1-wide layers,
    /// widths straddling the GEMM block size.
    fn cases() -> Vec<(Mlp, usize)> {
        let mk = |inputs: usize, hidden: &[(usize, Activation)], out: usize, seed: u64| {
            let mut b = MlpBuilder::new(inputs);
            for &(w, a) in hidden {
                b = b.hidden(w, a);
            }
            b.output(out, Activation::identity())
                .seed(seed)
                .build()
                .unwrap()
        };
        vec![
            (mk(1, &[(1, Activation::tanh())], 1, 1), 1),
            (mk(3, &[(5, Activation::logistic())], 2, 2), 7),
            (
                mk(
                    4,
                    &[(16, Activation::tanh()), (12, Activation::logistic())],
                    5,
                    3,
                ),
                64,
            ),
            (mk(2, &[(70, Activation::Relu)], 1, 4), 65),
            (mk(9, &[], 4, 5), 33),
            (
                mk(
                    2,
                    &[
                        (8, Activation::tanh()),
                        (8, Activation::tanh()),
                        (3, Activation::logistic()),
                    ],
                    2,
                    6,
                ),
                130,
            ),
            // Nine bands, the last one ragged (523 = 8 * 64 + 11).
            (mk(3, &[(6, Activation::tanh())], 2, 8), 523),
        ]
    }

    fn random_batch(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.next_f64() * 2.0 - 1.0)
    }

    #[test]
    fn forward_batch_with_is_bitwise_forward() {
        let mut rng = Xoshiro256::seed_from(21);
        for (mlp, rows) in cases() {
            let xs = random_batch(rows, mlp.inputs(), &mut rng);
            let mut ws = Workspace::for_mlp(&mlp);
            let batch = mlp.forward_batch_with(&xs, &mut ws).unwrap().clone();
            for r in 0..rows {
                let single = crate::oracle::forward(&mlp, xs.row(r)).unwrap();
                assert_eq!(batch.row(r), single.as_slice(), "row {r}");
            }
        }
    }

    #[test]
    fn every_weight_writer_keeps_the_forward_on_the_weights() {
        // The forward kernel reads each layer's transposed copy, the
        // oracle reads `weights` itself, so a writer that left the copy
        // stale (or transposed it wrongly: the layers are not square)
        // shows here.
        let mut rng = Xoshiro256::seed_from(31);
        let xs = random_batch(5, 3, &mut rng);
        let check = |mlp: &Mlp, writer: &str| {
            let mut ws = Workspace::for_mlp(mlp);
            let batch = mlp.forward_batch_with(&xs, &mut ws).unwrap();
            for r in 0..xs.rows() {
                let oracle = crate::oracle::forward(mlp, xs.row(r)).unwrap();
                assert_eq!(batch.row(r), oracle.as_slice(), "{writer}, row {r}");
                assert_eq!(mlp.forward(xs.row(r)).unwrap(), oracle, "{writer}, row {r}");
            }
        };
        let net = |layers| Mlp::from_layers(layers).unwrap();
        let mut init = Xoshiro256::seed_from(32);
        let drawn = net(vec![
            DenseLayer::new(3, 5, Activation::tanh(), &mut init).unwrap(),
            DenseLayer::new(5, 2, Activation::identity(), &mut init).unwrap(),
        ]);
        check(&drawn, "DenseLayer::new");
        let parts = net(vec![
            DenseLayer::from_parts(
                random_batch(5, 3, &mut rng),
                vec![0.1, -0.2, 0.3, 0.0, 0.5],
                Activation::logistic(),
            )
            .unwrap(),
            DenseLayer::from_parts(
                random_batch(2, 5, &mut rng),
                vec![0.25, -0.75],
                Activation::identity(),
            )
            .unwrap(),
        ]);
        check(&parts, "DenseLayer::from_parts");
        let mut layers = parts.layers().to_vec();
        for layer in &mut layers {
            layer.reinitialize(&mut init);
        }
        check(&net(layers), "DenseLayer::reinitialize");
        let mut set = drawn.clone();
        set.set_params_flat(&parts.params_flat()).unwrap();
        check(&set, "Mlp::set_params_flat");
        let mut redrawn = parts.clone();
        redrawn.reinitialize(99);
        check(&redrawn, "Mlp::reinitialize");
        check(&Mlp::from_text(&parts.to_text()).unwrap(), "Mlp::from_text");
    }

    #[test]
    fn batched_gradient_is_bitwise_scalar() {
        let mut rng = Xoshiro256::seed_from(23);
        let loss = Loss::MeanSquared;
        for (mlp, rows) in cases() {
            let xs = random_batch(rows, mlp.inputs(), &mut rng);
            let ys = random_batch(rows, mlp.outputs(), &mut rng);
            let (oracle_loss, oracle_grad) =
                crate::oracle::batch_gradient(&mlp, &xs, &ys, loss).unwrap();
            let mut ws = Workspace::for_mlp(&mlp);
            let batched = mlp.batch_gradient_with(&xs, &ys, loss, &mut ws).unwrap();
            assert_eq!(batched.to_bits(), oracle_loss.to_bits(), "loss value");
            assert_eq!(ws.grad(), oracle_grad.as_slice(), "gradient");
            // One rounding rule for the mean loss: the gradient pass
            // returns the loss pass's `total / rows`.
            let pass = mlp.batch_loss_with(&xs, &ys, loss, &mut ws).unwrap();
            assert_eq!(pass.to_bits(), oracle_loss.to_bits(), "loss pass");
        }
    }

    #[test]
    fn batch_loss_with_is_bitwise_per_row_eval() {
        let mut rng = Xoshiro256::seed_from(25);
        for (mlp, rows) in cases() {
            let xs = random_batch(rows, mlp.inputs(), &mut rng);
            let ys = random_batch(rows, mlp.outputs(), &mut rng);
            let mut ws = Workspace::for_mlp(&mlp);
            let batched = mlp
                .batch_loss_with(&xs, &ys, Loss::MeanSquared, &mut ws)
                .unwrap();
            let per_row = crate::oracle::batch_loss(&mlp, &xs, &ys, Loss::MeanSquared).unwrap();
            assert_eq!(batched.to_bits(), per_row.to_bits());
        }
    }

    #[test]
    fn workspace_rejects_other_topology() {
        let (mlp_a, _) = cases().remove(0);
        let mlp_b = MlpBuilder::new(3)
            .hidden(5, Activation::logistic())
            .output(2, Activation::identity())
            .seed(2)
            .build()
            .unwrap();
        let mut ws = Workspace::for_mlp(&mlp_a);
        let xs = Matrix::zeros(2, 3);
        let ys = Matrix::zeros(2, 2);
        assert!(matches!(
            mlp_b.forward_batch_with(&xs, &mut ws),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(mlp_b
            .batch_gradient_with(&xs, &ys, Loss::MeanSquared, &mut ws)
            .is_err());
    }

    #[test]
    fn workspace_reuse_across_batch_sizes_is_stable() {
        // Shrinking then regrowing the batch dimension must not change
        // results (stale row contents are fully overwritten).
        let (mlp, _) = cases().remove(2);
        let mut rng = Xoshiro256::seed_from(26);
        let big = random_batch(64, mlp.inputs(), &mut rng);
        let big_y = random_batch(64, mlp.outputs(), &mut rng);
        let small = random_batch(3, mlp.inputs(), &mut rng);
        let small_y = random_batch(3, mlp.outputs(), &mut rng);

        let mut ws = Workspace::for_mlp(&mlp);
        for (xs, ys) in [(&big, &big_y), (&small, &small_y), (&big, &big_y)] {
            let loss = mlp
                .batch_gradient_with(xs, ys, Loss::MeanSquared, &mut ws)
                .unwrap();
            let (oracle_loss, oracle_grad) =
                crate::oracle::batch_gradient(&mlp, xs, ys, Loss::MeanSquared).unwrap();
            assert_eq!(loss.to_bits(), oracle_loss.to_bits(), "{} rows", xs.rows());
            assert_eq!(ws.grad(), oracle_grad.as_slice(), "{} rows", xs.rows());
        }
    }
}
