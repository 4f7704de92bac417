//! Reusable scratch buffers for allocation-free training and inference.
//!
//! A [`Workspace`] owns every intermediate buffer the batched forward and
//! backward passes need — activation/pre-activation/delta matrices,
//! per-layer gradient partials and a flat gradient vector. Constructed
//! once per network topology, it lets steady-state training run with
//! **zero heap allocations per epoch**: buffers are grown on first use
//! (the gradient buffers on the first gradient pass, so a forward-only
//! workspace never holds them) and thereafter only resized within their
//! existing capacity.
//!
//! Inside a band the intermediates are **feature-major**: one row per
//! neuron, one column per band row. Every GEMM runs through the one
//! kernel, [`wlc_math::gemm::matmul_into`], whose vector runs along its
//! output columns, so here along the band's rows however narrow the
//! layer: the forward `Z = W·A + b` against the layer's weights, the
//! delta propagation `Wᵀ·Δ` against its transposed weights, and the
//! weight gradient `Δ·Aᵀ` against row-major activations. The layout
//! changes only at a band's edges: the input band going in, the
//! predictions going out, and the activations the weight gradient reads
//! ([`wlc_math::gemm::transpose`]). [`Mlp::forward`] runs the same
//! kernel on one row, along the layer's outputs instead. The loss pass
//! ([`Mlp::batch_loss_with`]) is the forward pass plus a band-ordered
//! fold. Every output element of the kernel receives its floating-point
//! additions in the committed lane order, so the results are
//! **bit-identical** to the naive per-sample [`crate::oracle`] (see
//! `docs/performance.md` for the argument, and the tests below for the
//! enforcement).
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
    /// Band rows currently materialized in the forward buffers.
    rows: usize,
    /// Band rows currently materialized in the gradient buffers.
    grad_rows: usize,
    /// The input band, feature-major (`inputs x rows`).
    xt: Matrix,
    /// Per-layer pre-activations, feature-major (`outputs(l) x rows`).
    pre: Vec<Matrix>,
    /// Per-layer activations, same shapes as `pre`.
    acts: Vec<Matrix>,
    /// Per-layer back-propagated deltas, same shapes as `pre`.
    deltas: Vec<Matrix>,
    /// Hidden-layer activations, row-major (`rows x outputs(l)`): the
    /// next layer's weight-gradient GEMM operand.
    acts_rm: Vec<Matrix>,
    /// Per-layer single-band weight-gradient partials (`outputs x
    /// inputs`, the weight block's layout in the flat gradient).
    wgrads_band: Vec<Matrix>,
    /// Per-layer single-band bias-gradient partials.
    bgrads_band: Vec<Vec<f64>>,
    /// Flat gradient, laid out like [`Mlp::params_flat`]: band partials
    /// are folded into it band-ascending, then it is scaled by
    /// `1 / rows`.
    grad: Vec<f64>,
    /// Full-size prediction matrix returned by the band-mined
    /// [`Mlp::forward_batch_with`], and read by the loss pass.
    out: Matrix,
}

impl Workspace {
    /// Builds a workspace sized for `mlp`'s topology. Batch-sized
    /// buffers start empty and grow on first use; the gradient buffers
    /// grow on the first gradient pass, so a forward-only workspace
    /// (serving, surfaces) never holds them.
    pub fn for_mlp(mlp: &Mlp) -> Self {
        // Every matrix starts with no elements: only the per-layer lists
        // touch the heap.
        let band = |w: &usize| Matrix::zeros(*w, 0);
        let topology = mlp.topology();
        let hidden = &topology[1..topology.len() - 1];
        Workspace {
            xt: Matrix::zeros(mlp.inputs(), 0),
            pre: topology[1..].iter().map(band).collect(),
            acts: topology[1..].iter().map(band).collect(),
            deltas: topology[1..].iter().map(band).collect(),
            acts_rm: hidden.iter().map(|&w| Matrix::zeros(0, w)).collect(),
            wgrads_band: topology[1..].iter().map(band).collect(),
            bgrads_band: topology[1..].iter().map(|_| Vec::new()).collect(),
            grad: Vec::new(),
            out: Matrix::zeros(0, mlp.outputs()),
            param_count: mlp.param_count(),
            topology,
            rows: 0,
            grad_rows: 0,
        }
    }

    /// The flat gradient left by the last gradient call (layout of
    /// [`Mlp::params_flat`]); empty before the first one.
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

    /// Sizes the forward band buffers to `rows` band rows, reusing
    /// capacity.
    fn ensure_forward(&mut self, rows: usize) {
        if self.rows != rows {
            for m in std::iter::once(&mut self.xt)
                .chain(self.pre.iter_mut())
                .chain(self.acts.iter_mut())
            {
                m.resize(m.rows(), rows);
            }
            self.rows = rows;
        }
    }

    /// Sizes the gradient band buffers to `rows` band rows; the first
    /// gradient pass also grows the per-layer gradient partials.
    fn ensure_gradient(&mut self, rows: usize) {
        if self.grad_rows != rows {
            for m in &mut self.deltas {
                m.resize(m.rows(), rows);
            }
            for m in &mut self.acts_rm {
                m.resize(rows, m.cols());
            }
            for (l, (w, b)) in self
                .wgrads_band
                .iter_mut()
                .zip(&mut self.bgrads_band)
                .enumerate()
            {
                w.resize(self.topology[l + 1], self.topology[l]);
                b.resize(self.topology[l + 1], 0.0);
            }
            self.grad_rows = rows;
        }
    }

    /// Zeroes the flat gradient before band partials are folded into it.
    fn reset_grad(&mut self) {
        self.grad.clear();
        self.grad.resize(self.param_count, 0.0);
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
        let width = self.outputs();
        let last = self.layers().len() - 1;
        ws.out.resize_rows(rows);
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + BAND_ROWS).min(rows);
            self.batched_forward(inputs, r0, r1, ws)?;
            gemm::transpose(
                ws.acts[last].as_slice(),
                r1 - r0,
                &mut ws.out.as_mut_slice()[r0 * width..r1 * width],
            );
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
        ws.reset_grad();
        let mut total_loss = 0.0;
        let mut b0 = 0;
        while b0 < rows {
            let b1 = (b0 + BAND_ROWS).min(rows);
            total_loss += self.band_partials(inputs, targets, loss, b0, b1, ws)?;
            add_band(&mut ws.grad, &ws.wgrads_band, &ws.bgrads_band);
            b0 = b1;
        }
        Ok(scale_grad(&mut ws.grad, rows, total_loss))
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
        let len = self.layers().len();
        let last = len - 1;
        self.batched_forward(inputs, b0, b1, ws)?;
        ws.ensure_gradient(b1 - b0);

        // Loss and output deltas, sample-row ascending within the band.
        let band_loss =
            loss.value_gradient_band(&ws.acts[last], targets, b0, &mut ws.deltas[last])?;
        apply_derivative(
            &mut ws.deltas[last],
            &ws.pre[last],
            &ws.acts[last],
            self.layers()[last].activation(),
        );

        for l in (0..len).rev() {
            let layer = &self.layers()[l];
            // dW_l = delta_l * a_{l-1}: `k` is the band-local sample row,
            // so lane `q % LANES` takes sample `q`'s product — exactly
            // where the oracle puts it. The kernel vectorises along the
            // layer's inputs, so it reads the previous activations
            // row-major; layer 0 reads its input band in place.
            if l == 0 {
                gemm::matmul_rows_into(&ws.deltas[0], inputs, b0, b1, &[], &mut ws.wgrads_band[0])?;
            } else {
                gemm::transpose(
                    ws.acts[l - 1].as_slice(),
                    b1 - b0,
                    ws.acts_rm[l - 1].as_mut_slice(),
                );
                gemm::matmul_into(
                    &ws.deltas[l],
                    &ws.acts_rm[l - 1],
                    &[],
                    &mut ws.wgrads_band[l],
                )?;
            }
            // db_l = lane-split sums of delta_l over band-local sample
            // rows, each neuron's row contiguous.
            lane_row_sums(&ws.deltas[l], &mut ws.bgrads_band[l]);
            if l > 0 {
                // delta_{l-1} = (W_l^T * delta_l) ⊙ f'(z_{l-1}): `k` is
                // the out-neuron index — the oracle splits the same sum
                // over the same lanes — and the vector runs along the
                // band rows.
                {
                    let (head, tail) = ws.deltas.split_at_mut(l);
                    gemm::matmul_into(layer.weights_t(), &tail[0], &[], &mut head[l - 1])?;
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

    /// Batched forward over `inputs[r0..r1]` into the feature-major
    /// `ws.pre`/`ws.acts`, sizing them to `r1 - r0` band rows.
    fn batched_forward(
        &self,
        inputs: &Matrix,
        r0: usize,
        r1: usize,
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        ws.ensure_forward(r1 - r0);
        let width = inputs.cols();
        gemm::transpose(
            &inputs.as_slice()[r0 * width..r1 * width],
            width,
            ws.xt.as_mut_slice(),
        );
        for (l, layer) in self.layers().iter().enumerate() {
            // Z_l = W_l * A_{l-1} + b_l on feature-major operands: the
            // kernel broadcasts one weight across eight consecutive band
            // rows, so the vector is full however narrow the layer. Each
            // output element is still the lane-order dot product
            // (`gemm::dot_lanes`) that `oracle::forward` computes, bit
            // for bit — lane assignment is per-element, so the traversal
            // cannot change a bit.
            let (done, rest) = ws.acts.split_at_mut(l);
            let a = done.last().unwrap_or(&ws.xt);
            gemm::matmul_into(layer.weights(), a, layer.biases(), &mut ws.pre[l])?;
            layer
                .activation()
                .apply_slice_into(ws.pre[l].as_slice(), rest[0].as_mut_slice());
        }
        Ok(())
    }
}

/// `out[j]` = the sum of row `j` of `m` in the committed lane order:
/// term `q` into lane `q % LANES`, ascending, lanes folded left to right
/// — the bias gradient over a feature-major band of deltas. Four rows
/// go at once, so their add chains overlap.
fn lane_row_sums(m: &Matrix, out: &mut [f64]) {
    const ROWS: usize = 4;
    let n = m.cols();
    let mut blocks = m.as_slice().chunks_exact(ROWS * n);
    let mut outs = out.chunks_exact_mut(ROWS);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        let mut acc = [[0.0f64; gemm::LANES]; ROWS];
        for (r, row) in block.chunks_exact(n).enumerate() {
            add_lanes(&mut acc[r], row);
        }
        for (o, lanes) in o.iter_mut().zip(acc) {
            *o = gemm::fold_lanes(lanes);
        }
    }
    for (row, o) in blocks
        .remainder()
        .chunks_exact(n)
        .zip(outs.into_remainder())
    {
        let mut lanes = [0.0f64; gemm::LANES];
        add_lanes(&mut lanes, row);
        *o = gemm::fold_lanes(lanes);
    }
}

/// Adds `row[q]` into `lanes[q % LANES]`, `q` ascending.
#[inline(always)]
fn add_lanes(lanes: &mut [f64; gemm::LANES], row: &[f64]) {
    let mut chunks = row.chunks_exact(gemm::LANES);
    for c in &mut chunks {
        for t in 0..gemm::LANES {
            lanes[t] += c[t];
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane += v;
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

/// Adds one band's weight- and bias-gradient partials into the flat
/// gradient (per layer: weights row-major, then biases): the one `+=`
/// fold of the in-line and pooled gradient paths.
fn add_band(grad: &mut [f64], wgrads: &[Matrix], bgrads: &[Vec<f64>]) {
    let mut rest = grad;
    for (w, b) in wgrads.iter().zip(bgrads) {
        for part in [w.as_slice(), b] {
            let (head, tail) = rest.split_at_mut(part.len());
            for (g, &v) in head.iter_mut().zip(part) {
                *g += v;
            }
            rest = tail;
        }
    }
}

/// `delta ⊙= f'(z, a)` element-wise over whole band matrices.
fn apply_derivative(delta: &mut Matrix, pre: &Matrix, acts: &Matrix, act: crate::Activation) {
    act.mul_derivative_slice(pre.as_slice(), acts.as_slice(), delta.as_mut_slice());
}

/// Scales the folded gradient by `1/rows` exactly like the oracle
/// (accumulate, then multiply), and returns the mean loss as
/// `total_loss / rows` — the division [`Mlp::batch_loss_with`] and
/// `BandEngine::batch_loss` use, so a gradient pass reports the same
/// loss bits as a loss pass over the same rows. Shared tail of the
/// in-line and band-pool gradient paths.
fn scale_grad(grad: &mut [f64], rows: usize, total_loss: f64) -> f64 {
    let scale = 1.0 / rows as f64;
    for g in grad {
        *g *= scale;
    }
    total_loss / rows as f64
}

/// One band's gradient contribution, copied out of a worker's
/// workspace so the band pool can hand it back to the calling thread
/// for the deterministic band-ascending fold.
#[derive(Debug)]
pub(crate) struct BandGrads {
    /// The band's weight- and bias-gradient partials, laid out like
    /// [`Mlp::params_flat`].
    pub grad: Vec<f64>,
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
        let mut grad = vec![0.0; self.param_count()];
        add_band(&mut grad, &ws.wgrads_band, &ws.bgrads_band);
        Ok(BandGrads {
            grad,
            loss: band_loss,
        })
    }

    /// Pool-path merge: folds band partials into `ws`'s flat gradient in
    /// ascending band order — the same `+=` sequence the in-line loop
    /// performs — then scales it. Returns the mean loss.
    pub(crate) fn fold_band_grads(
        &self,
        bands: &[BandGrads],
        rows: usize,
        ws: &mut Workspace,
    ) -> f64 {
        ws.reset_grad();
        let mut total_loss = 0.0;
        for band in bands {
            for (g, &v) in ws.grad.iter_mut().zip(&band.grad) {
                *g += v;
            }
            total_loss += band.loss;
        }
        scale_grad(&mut ws.grad, rows, total_loss)
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
        let acts = &ws.acts[self.layers().len() - 1];
        let mut out = vec![0.0; acts.rows() * acts.cols()];
        gemm::transpose(acts.as_slice(), r1 - r0, &mut out);
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
