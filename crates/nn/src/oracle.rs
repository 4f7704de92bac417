//! The naive reference the production path is checked against.
//!
//! [`Mlp::forward`], [`Mlp::forward_batch_with`],
//! [`Mlp::batch_gradient_with`], [`Mlp::batch_loss_with`] and
//! [`crate::BandEngine`] compute with GEMM kernels, the batched ones over
//! [`crate::BAND_ROWS`]-row bands. This module computes the same values
//! one sample at a time, allocating freely, from one lane-order dot
//! product per neuron ([`forward`]) and explicit `mul_add` lanes — never
//! from a GEMM kernel. It writes out the committed numeric contract once,
//! plainly:
//!
//! - every sum over samples or neurons puts term `k` into lane
//!   `k % LANES` with one fused multiply-add, and folds the lanes left to
//!   right (a neuron's pre-activation is [`gemm::dot_lanes`] of its
//!   weight row and the input, plus its bias);
//! - sample lanes restart at each band, and band partials are added to
//!   the totals in ascending band order;
//! - the gradient is scaled by `1 / rows` after accumulation, and the
//!   mean loss is `total / rows`.
//!
//! The bitwise tests and the baseline arm of `wlc bench` use it; nothing
//! in production does.

use wlc_math::gemm::{self, LANES};
use wlc_math::Matrix;

use crate::{DenseLayer, Loss, Mlp, NnError, BAND_ROWS};

/// Folds lane partials left to right.
fn fold(lanes: &[f64; LANES]) -> f64 {
    lanes[1..].iter().fold(lanes[0], |acc, &v| acc + v)
}

/// One layer's pre-activation `z = W·x + b`: one [`gemm::dot_lanes`]
/// per output neuron.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if `input.len() != layer.inputs()`.
pub(crate) fn pre_activation(layer: &DenseLayer, input: &[f64]) -> Result<Vec<f64>, NnError> {
    if input.len() != layer.inputs() {
        return Err(NnError::ShapeMismatch {
            expected: layer.inputs(),
            actual: input.len(),
            what: "input width",
        });
    }
    Ok(layer
        .biases()
        .iter()
        .enumerate()
        .map(|(r, &bi)| gemm::dot_lanes(layer.weights().row(r), input) + bi)
        .collect())
}

/// One sample's forward pass, `f(W·x + b)` layer by layer — bitwise
/// what [`Mlp::forward`] and every row of [`Mlp::forward_batch_with`]
/// compute.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if `input.len() != mlp.inputs()`.
pub fn forward(mlp: &Mlp, input: &[f64]) -> Result<Vec<f64>, NnError> {
    mlp.layers().iter().try_fold(input.to_vec(), |acts, layer| {
        let mut z = pre_activation(layer, &acts)?;
        layer.activation().apply_slice(&mut z);
        Ok(z)
    })
}

/// Mean loss over a batch: per-row [`forward`] and [`Loss::value`],
/// summed per band and folded band-ascending.
///
/// # Errors
///
/// - [`NnError::EmptyTrainingSet`] if `xs` has no rows.
/// - [`NnError::ShapeMismatch`] if widths do not match the network.
pub fn batch_loss(mlp: &Mlp, xs: &Matrix, ys: &Matrix, loss: Loss) -> Result<f64, NnError> {
    let rows = xs.rows();
    if rows == 0 {
        return Err(NnError::EmptyTrainingSet);
    }
    let mut total = 0.0;
    for b0 in (0..rows).step_by(BAND_ROWS) {
        let mut band = 0.0;
        for r in b0..(b0 + BAND_ROWS).min(rows) {
            band += loss.value(&forward(mlp, xs.row(r))?, ys.row(r))?;
        }
        total += band;
    }
    Ok(total / rows as f64)
}

/// Mean loss and flat parameter gradient over a batch, by per-sample
/// back-propagation. The gradient has the layout of
/// [`Mlp::params_flat`].
///
/// # Errors
///
/// - [`NnError::EmptyTrainingSet`] if `inputs` has no rows.
/// - [`NnError::ShapeMismatch`] if widths do not match the network or
///   the row counts differ.
pub fn batch_gradient(
    mlp: &Mlp,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
) -> Result<(f64, Vec<f64>), NnError> {
    mlp.check_batch_shapes(inputs, targets)?;
    let rows = inputs.rows();
    let mut grad = vec![0.0; mlp.param_count()];
    let mut total_loss = 0.0;
    for b0 in (0..rows).step_by(BAND_ROWS) {
        let mut lanes = vec![[0.0; LANES]; grad.len()];
        let mut band_loss = 0.0;
        for (q, r) in (b0..(b0 + BAND_ROWS).min(rows)).enumerate() {
            band_loss += sample_gradient(mlp, inputs.row(r), targets.row(r), loss, q, &mut lanes)?;
        }
        for (g, l) in grad.iter_mut().zip(&lanes) {
            *g += fold(l);
        }
        total_loss += band_loss;
    }
    let scale = 1.0 / rows as f64;
    for g in &mut grad {
        *g *= scale;
    }
    Ok((total_loss / rows as f64, grad))
}

/// Back-propagates band-local sample `q`, adding its gradient into lane
/// `q % LANES` of every parameter, and returns its loss.
fn sample_gradient(
    mlp: &Mlp,
    input: &[f64],
    target: &[f64],
    loss: Loss,
    q: usize,
    lanes: &mut [[f64; LANES]],
) -> Result<f64, NnError> {
    let layers = mlp.layers();
    // acts[0] is the input; acts[l + 1] and pre[l] belong to layer l.
    let mut pre = Vec::with_capacity(layers.len());
    let mut acts = vec![input.to_vec()];
    for (l, layer) in layers.iter().enumerate() {
        let z = pre_activation(layer, &acts[l])?;
        let mut a = z.clone();
        layer.activation().apply_slice(&mut a);
        pre.push(z);
        acts.push(a);
    }
    let last = layers.len() - 1;
    let prediction = &acts[last + 1];
    let value = loss.value(prediction, target)?;
    let mut delta = loss.gradient(prediction, target)?;
    for ((d, &z), &a) in delta.iter_mut().zip(&pre[last]).zip(prediction) {
        *d *= layers[last].activation().derivative(z, a);
    }

    let lane = q % LANES;
    let mut base = mlp.param_count();
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        base -= layer.param_count();
        let in_w = layer.inputs();
        for (i, &d) in delta.iter().enumerate() {
            for (j, &a) in acts[l].iter().enumerate() {
                let p = &mut lanes[base + i * in_w + j][lane];
                *p = d.mul_add(a, *p);
            }
            lanes[base + layer.outputs() * in_w + i][lane] += d;
        }
        if l > 0 {
            // delta_{l-1}[j] = (sum over out-neurons i of delta[i] * W[i][j],
            // term i in lane i % LANES) * f'(z_{l-1}[j]).
            let act = layers[l - 1].activation();
            delta = (0..in_w)
                .map(|j| {
                    let mut sum = [0.0; LANES];
                    for (i, &d) in delta.iter().enumerate() {
                        sum[i % LANES] = d.mul_add(layer.weights().get(i, j), sum[i % LANES]);
                    }
                    fold(&sum) * act.derivative(pre[l - 1][j], acts[l][j])
                })
                .collect();
        }
    }
    Ok(value)
}
