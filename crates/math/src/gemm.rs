//! Lane-accumulator matrix-multiply kernels writing into caller-provided
//! buffers.
//!
//! These are the hot-path primitives behind batched neural-network
//! training and inference. Two contracts distinguish them from a
//! classical BLAS:
//!
//! 1. **No allocation** — every kernel writes into an `out` buffer owned
//!    by the caller, so steady-state training can reuse the same
//!    workspace forever.
//! 2. **Fixed lane-accumulation order** — each output element is
//!    accumulated into [`LANES`] independent partial sums: the term for
//!    index `k` is *fused* into lane `k % LANES` with a single
//!    [`f64::mul_add`] (`fma(a, b, acc)`, one IEEE-754 rounding), each
//!    lane takes its terms with `k` ascending from a `0.0` start, and
//!    the lanes are folded strictly left-to-right
//!    (`((s0 + s1) + s2) + s3`) at the end. A lane that received no
//!    terms contributes its `0.0` start to the fold. The assignment,
//!    fusion and fold depend only on index arithmetic, never on the
//!    data, so IEEE-754 rounding — and therefore every seeded training
//!    run — is bit-identical across kernels, strip or band boundaries,
//!    and worker counts. See `docs/performance.md` for the full
//!    determinism argument.
//!
//! The element order is the *whole* contract: any loop structure that
//! fuses each lane's `k ≡ lane (mod LANES)` terms in ascending order
//! is conforming, so the one kernel, [`matmul_into`], picks the
//! traversal that vectorizes best — one weight broadcast across eight
//! consecutive band rows of a feature-major operand, register-tiled —
//! without affecting a single output bit. The four independent chains are also
//! what lets the CPU overlap FMA latency — the source of the kernels'
//! speedup — and because the fusion is spelled out with
//! [`f64::mul_add`], LLVM lowers it to hardware FMA and maps the
//! fixed-width lane arrays onto vector registers without reassociating
//! anything (rustc never contracts or reorders float arithmetic on its
//! own — which is also why `-C target-cpu=native` cannot change these
//! results).
//!
//! Unlike [`Matrix::matmul`], the kernels never skip zero operands:
//! a `0.0 * b` product is still added, keeping the per-element addition
//! sequence independent of the data.

use crate::{MathError, Matrix};
use wlc_hot::wlc_hot;

/// Number of independent partial sums each output element is split
/// across. Part of the committed numeric contract: changing it changes
/// every trained model bit pattern, so it is re-exported in bench
/// baselines (`config.lanes`) and pinned by golden tests.
pub const LANES: usize = 4;

/// Widest register tile: [`LANES`] lane accumulators of this many
/// consecutive output columns (band rows, in the feature-major layout)
/// live in vector registers across the whole `k` sweep. Purely a
/// performance knob (8 doubles is one AVX-512 register, two AVX2
/// registers); correctness never depends on it because lane assignment
/// is per-element.
const TILE: usize = 8;

/// One lane-accumulator tile: `W` consecutive output columns (from
/// `jc`) of the `R` output rows whose `a` rows are `arows`.
///
/// `b` is walked one row `k` at a time, [`LANES`] rows per step, and
/// each `a[r][k]` is broadcast across `b[k][jc..jc + W]`. The
/// accumulator tile is `R x LANES x W` and every index into it is a
/// compile-time constant — the `k` loop is unrolled by [`LANES`] and the
/// remainder dispatches on `k % LANES` — so LLVM keeps the whole tile in
/// vector registers. The operand slices are cut once per step of
/// [`LANES`] rows, so the inner loop carries no bounds checks. Each
/// element receives exactly the committed lane order: term `k` is fused
/// into lane `k % LANES` with `k` ascending, lanes folded by
/// [`fold_lanes`], and a row's bias (if any) added after the fold.
// Indexed `0..R` loops keep every accumulator index a compile-time
// constant, which is what lets LLVM keep the tile in registers;
// iterator rewrites obscure that without changing codegen for the
// better.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn lane_tile<const W: usize, const R: usize>(
    arows: [&[f64]; R],
    bd: &[f64],
    n: usize,
    jc: usize,
    bias: [Option<f64>; R],
    orows: [&mut [f64]; R],
) {
    // Proves every `brow[jc..jc + W]` below in bounds once, before the
    // loop, so the compiler drops the per-row checks.
    assert!(jc + W <= n);
    let mut acc = [[[0.0f64; W]; LANES]; R];
    let mut a_steps = arows.map(|row| row.chunks_exact(LANES));
    let mut b_steps = bd.chunks_exact(LANES * n);
    for b4 in &mut b_steps {
        // `matmul_rows_into` checks that each `a` row has one term per
        // `b` row, so the zeros never stand in; a fallback rather than a
        // panic keeps this loop's code measurably faster.
        let a4 = a_steps
            .each_mut()
            .map(|it| it.next().unwrap_or(&[0.0; LANES]));
        let (b0, rest) = b4.split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, b3) = rest.split_at(n);
        for (l, brow) in [b0, b1, b2, b3].into_iter().enumerate() {
            let bw: &[f64; W] = brow[jc..jc + W].try_into().expect("W wide");
            for r in 0..R {
                let av = a4[r][l];
                for t in 0..W {
                    acc[r][l][t] = av.mul_add(bw[t], acc[r][l][t]);
                }
            }
        }
    }
    let a_rest = a_steps.each_ref().map(|it| it.remainder());
    for (l, brow) in b_steps.remainder().chunks_exact(n).enumerate() {
        let bw: &[f64; W] = brow[jc..jc + W].try_into().expect("W wide");
        // `l < LANES - 1`; matching on it keeps the lane index constant.
        match l {
            0 => lane_step(&mut acc, 0, &a_rest, bw),
            1 => lane_step(&mut acc, 1, &a_rest, bw),
            _ => lane_step(&mut acc, 2, &a_rest, bw),
        }
    }
    for ((orow, acc), bias) in orows.into_iter().zip(acc).zip(bias) {
        let orow = &mut orow[jc..jc + W];
        for t in 0..W {
            orow[t] = fold_lanes([acc[0][t], acc[1][t], acc[2][t], acc[3][t]]);
        }
        if let Some(b) = bias {
            for o in orow.iter_mut() {
                *o += b;
            }
        }
    }
}

/// Fuses the remainder term `a_rest[r][l] * bw` into lane `l` of each
/// row's accumulators.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn lane_step<const W: usize, const R: usize>(
    acc: &mut [[[f64; W]; LANES]; R],
    l: usize,
    a_rest: &[&[f64]; R],
    bw: &[f64; W],
) {
    for r in 0..R {
        let av = a_rest[r][l];
        for t in 0..W {
            acc[r][l][t] = av.mul_add(bw[t], acc[r][l][t]);
        }
    }
}

/// `R` full output rows: walks the columns in [`TILE`]-wide register
/// tiles. A ragged edge takes one more full-width tile ending at the
/// last column, overlapping its neighbour: every element is computed
/// from its own `a` row and `b` column alone, so an overlapped column
/// is written twice with the same bits. Rows narrower than a tile take
/// const-width tiles (4, 2, 1). Either way every column keeps its lane
/// accumulators in registers, and tiling is pure traversal — every
/// element still sees the committed lane order.
#[inline(always)]
fn lane_rows<const R: usize>(
    arows: [&[f64]; R],
    bd: &[f64],
    n: usize,
    bias: [Option<f64>; R],
    mut orows: [&mut [f64]; R],
) {
    if n >= TILE {
        let mut jc = 0;
        while jc + TILE <= n {
            lane_tile::<TILE, R>(arows, bd, n, jc, bias, orows.each_mut().map(|o| &mut **o));
            jc += TILE;
        }
        if jc < n {
            lane_tile::<TILE, R>(arows, bd, n, n - TILE, bias, orows);
        }
        return;
    }
    let mut jc = 0;
    if jc + 4 <= n {
        lane_tile::<4, R>(arows, bd, n, jc, bias, orows.each_mut().map(|o| &mut **o));
        jc += 4;
    }
    if jc + 2 <= n {
        lane_tile::<2, R>(arows, bd, n, jc, bias, orows.each_mut().map(|o| &mut **o));
        jc += 2;
    }
    if jc < n {
        lane_tile::<1, R>(arows, bd, n, jc, bias, orows);
    }
}

/// Fold lane partial sums in the committed left-to-right order.
///
/// This is the single definition of the reduction every kernel and
/// every scalar-path reimplementation (e.g. per-sample gradients) must
/// share: `((s0 + s1) + s2) + s3`.
#[inline]
#[must_use]
pub fn fold_lanes(lanes: [f64; LANES]) -> f64 {
    ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
}

/// Dot product of two equal-length slices in the committed lane order.
///
/// Bitwise identical to the value any GEMM kernel produces for an
/// output element whose operand vectors are `x` and `y` — this is the
/// per-sample primitive that keeps scalar forward/gradient paths on the
/// same numerics as the batched kernels. Extra elements of the longer
/// slice are ignored (callers validate shapes; the kernels always pass
/// equal lengths).
#[wlc_hot]
#[must_use]
pub fn dot_lanes(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (cx, cy) in (&mut xc).zip(&mut yc) {
        for t in 0..LANES {
            lanes[t] = cx[t].mul_add(cy[t], lanes[t]);
        }
    }
    for (t, (&xv, &yv)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        lanes[t] = xv.mul_add(yv, lanes[t]);
    }
    fold_lanes(lanes)
}

/// `out = a * b`, plus `bias[i]` on every element of output row `i`
/// when `bias` is not empty. `a` is `m x k`, `b` is `k x n`, `out` must
/// be `m x n`.
///
/// The kernel vectorises along `n`: it broadcasts one `a[i][k]` and
/// fuses it with eight consecutive elements of `b`'s row `k`, so with a
/// feature-major operand (neurons x band rows) the vector runs along the
/// band's sample rows, whatever the layer widths. Columns come in
/// chunks of eight with a ragged tail of exact-width tiles, so
/// one row, a 38-row cross-validation band and a 64-row band all take
/// this one kernel. Each output element sees the committed lane order
/// (see the module docs and [`dot_lanes`]); the bias is added after the
/// fold (`fold + bias[i]`), and an empty `bias` adds nothing, not
/// `0.0`.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the inner dimensions
/// disagree, `out` has the wrong shape, or `bias` is neither empty nor
/// `a.rows()` long.
#[wlc_hot]
pub fn matmul_into(
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    out: &mut Matrix,
) -> Result<(), MathError> {
    matmul_rows_into(a, b, 0, b.rows(), bias, out)
}

/// `out = a * b[b_r0..b_r1] (+ bias)` — [`matmul_into`] where the `b`
/// operand is a row band of a larger matrix, so a weight-gradient caller
/// (`dW = delta * x[band]`) reads its input band in place instead of
/// copying it. `a` is `m x (b_r1 - b_r0)`.
///
/// # Errors
///
/// As for [`matmul_into`], plus a mismatch if the row range is out of
/// bounds.
#[wlc_hot]
pub fn matmul_rows_into(
    a: &Matrix,
    b: &Matrix,
    b_r0: usize,
    b_r1: usize,
    bias: &[f64],
    out: &mut Matrix,
) -> Result<(), MathError> {
    let (m, ka) = a.shape();
    let n = b.cols();
    if b_r0 > b_r1 || b_r1 > b.rows() || ka != b_r1 - b_r0 {
        return Err(MathError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul_rows_into",
        });
    }
    if out.shape() != (m, n) {
        return Err(MathError::DimensionMismatch {
            left: (m, n),
            right: out.shape(),
            op: "matmul_rows_into out",
        });
    }
    if !bias.is_empty() && bias.len() != m {
        return Err(MathError::DimensionMismatch {
            left: (bias.len(), 1),
            right: (m, 1),
            op: "matmul_rows_into bias",
        });
    }
    if m == 0 || n == 0 {
        out.as_mut_slice().fill(0.0);
        return Ok(());
    }
    let ad = a.as_slice();
    let bd = &b.as_slice()[b_r0 * n..b_r1 * n];
    let a_row = |i: usize| &ad[i * ka..(i + 1) * ka];
    let bias_at = |i: usize| bias.get(i).copied();
    // Row broadcast form: for each pair of output rows, walk `k` once
    // and fan each `a[i][k]` across a contiguous slice of `b`'s row `k`.
    // The pair shares every loaded `b` slice, halving load traffic and
    // doubling the independent FMA chains in flight; rows never
    // interact, so the blocking cannot change a bit. `lane_rows` rotates
    // the register-resident lane tiles with `k % LANES`, so every output
    // element sees exactly the committed lane order while the add chains
    // stay independent.
    let mut pairs = out.as_mut_slice().chunks_exact_mut(2 * n);
    let mut i = 0;
    for pair in &mut pairs {
        let (o0, o1) = pair.split_at_mut(n);
        let arows = [a_row(i), a_row(i + 1)];
        lane_rows::<2>(arows, bd, n, [bias_at(i), bias_at(i + 1)], [o0, o1]);
        i += 2;
    }
    if let Some(orow) = pairs.into_remainder().get_mut(..n) {
        lane_rows::<1>([a_row(i)], bd, n, [bias_at(i)], [orow]);
    }
    Ok(())
}

/// Writes the transpose of the row-major `src` (rows of `cols` values)
/// into `dst`, which must be as long: the layout change between
/// row-major samples and feature-major band matrices (neurons x band
/// rows) at a band's edges, and behind [`Matrix::transpose_into`]. Four
/// source rows go at once, each destination row taking four contiguous
/// values per step, and the iterators carry no bounds checks.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
#[wlc_hot]
pub fn transpose(src: &[f64], cols: usize, dst: &mut [f64]) {
    assert_eq!(dst.len(), src.len(), "transpose output length");
    if cols == 0 {
        return;
    }
    let rows = src.len() / cols;
    let mut quads = src.chunks_exact(4 * cols);
    let mut r = 0;
    for quad in &mut quads {
        let (s0, rest) = quad.split_at(cols);
        let (s1, rest) = rest.split_at(cols);
        let (s2, s3) = rest.split_at(cols);
        let columns = s0.iter().zip(s1).zip(s2).zip(s3);
        for (d, (((&a, &b), &c), &e)) in dst.chunks_exact_mut(rows).zip(columns) {
            d[r..r + 4].copy_from_slice(&[a, b, c, e]);
        }
        r += 4;
    }
    for row in quads.remainder().chunks_exact(cols) {
        for (d, &v) in dst.chunks_exact_mut(rows).zip(row) {
            d[r] = v;
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// Unblocked reference in the committed lane order: per element,
    /// lane `k % LANES` accumulates with `k` ascending, lanes folded
    /// left-to-right, then the row's bias (if any) added — the contract
    /// every kernel call must match bitwise.
    fn lane_reference(a: &Matrix, b: &Matrix, bias: &[f64]) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut lanes = [0.0f64; LANES];
                for k in 0..a.cols() {
                    lanes[k % LANES] = a.get(r, k).mul_add(b.get(k, c), lanes[k % LANES]);
                }
                let folded = fold_lanes(lanes);
                out.set(r, c, bias.get(r).map_or(folded, |&bi| folded + bi));
            }
        }
        out
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.next_f64() * 2.0 - 1.0)
    }

    /// Column counts (band rows in the feature-major layout) covering
    /// every `n % 8` class: the empty band, one row, the ragged widths
    /// around one and two tiles, a full 64-row band, and more.
    const BAND_WIDTHS: [usize; 10] = [0, 1, 7, 8, 9, 15, 63, 64, 65, 130];

    /// Inner dimensions covering every `k % LANES` class, with and
    /// without a full step of `LANES` before the remainder.
    const DEPTHS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 17];

    #[test]
    fn matmul_into_is_bitwise_lane_reference() {
        let mut rng = Xoshiro256::seed_from(11);
        for n in BAND_WIDTHS {
            for k in DEPTHS {
                // Output widths 1-20: odd and even row counts, so both
                // the row-pair tiles and the single-row tail run.
                for m in 1..=20 {
                    let a = random_matrix(m, k, &mut rng);
                    let b = random_matrix(k, n, &mut rng);
                    let bias: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
                    for bias in [&bias[..], &[]] {
                        let mut out = Matrix::filled(m, n, f64::NAN);
                        matmul_into(&a, &b, bias, &mut out).unwrap();
                        let expect = lane_reference(&a, &b, bias);
                        assert_eq!(
                            out.as_slice(),
                            expect.as_slice(),
                            "{m}x{k}x{n}, bias {}",
                            !bias.is_empty()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_rows_into_matches_copied_band_bitwise() {
        // A row-range product must equal running the plain kernel over a
        // physically copied band — including ranges that straddle chunk
        // boundaries and the empty range.
        let mut rng = Xoshiro256::seed_from(15);
        let a_full = random_matrix(7, 130, &mut rng);
        let b = random_matrix(130, 19, &mut rng);
        for &(r0, r1) in &[(0, 130), (0, 1), (17, 93), (63, 65), (128, 130), (40, 40)] {
            let a = Matrix::from_fn(7, r1 - r0, |r, c| a_full.get(r, r0 + c));
            let band = Matrix::from_fn(r1 - r0, b.cols(), |r, c| b.get(r0 + r, c));
            let mut expect = Matrix::zeros(7, b.cols());
            matmul_into(&a, &band, &[], &mut expect).unwrap();
            let mut out = Matrix::zeros(7, b.cols());
            matmul_rows_into(&a, &b, r0, r1, &[], &mut out).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "rows {r0}..{r1}");
        }
    }

    #[test]
    fn matmul_rows_into_rejects_bad_ranges() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(4, 3);
        let mut out = Matrix::zeros(2, 3);
        assert!(matmul_rows_into(&a, &b, 3, 5, &[], &mut out).is_err());
        assert!(matmul_rows_into(&a, &b, 2, 1, &[], &mut out).is_err());
        assert!(matmul_rows_into(&a, &b, 0, 3, &[], &mut out).is_err());
        assert!(matmul_rows_into(&a, &b, 1, 3, &[], &mut out).is_ok());
    }

    #[test]
    fn lane_order_is_pinned_to_the_golden_sequence() {
        // Golden pin of the committed reduction order. The operand is
        // built so the value *depends* on the order: big and small terms
        // cancel differently per grouping. If this test ever needs
        // updating, the committed numerics changed — so must the bench
        // baseline schema and docs/performance.md.
        let x = [1e16, 1.0, 1.0, 1.0, -1e16, 1.0, 1.0];
        let y = [1.0; 7];
        // lane0: (1e16 + -1e16), lane1: (1.0 + 1.0), lane2: (1.0 + 1.0),
        // lane3: 1.0; fold left-to-right.
        let expect: f64 = (((1e16 + -1e16) + (1.0 + 1.0)) + (1.0 + 1.0)) + 1.0;
        assert_eq!(dot_lanes(&x, &y).to_bits(), expect.to_bits());
        // Prove the pin is meaningful: the old flat k-ascending order
        // rounds differently on this input.
        let flat: f64 = x.iter().fold(0.0, |acc, &v| acc + v);
        assert_ne!(dot_lanes(&x, &y).to_bits(), flat.to_bits());
        // The same element goes through the kernel identically, as a row
        // against a column and as a column against a row of band rows.
        let row = Matrix::from_rows(&[&x]).unwrap();
        let col = Matrix::from_fn(7, 1, |r, _| y[r]);
        let mut out = Matrix::zeros(1, 1);
        matmul_into(&row, &col, &[], &mut out).unwrap();
        assert_eq!(out.get(0, 0).to_bits(), expect.to_bits());
        let band = Matrix::from_fn(7, 9, |r, _| x[r]);
        let mut outs = Matrix::zeros(1, 9);
        matmul_into(&Matrix::from_rows(&[&y]).unwrap(), &band, &[], &mut outs).unwrap();
        assert!(outs
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == expect.to_bits()));
    }

    #[test]
    fn empty_lanes_contribute_positive_zero() {
        // k < LANES leaves lanes at their 0.0 start; the fold must still
        // include them (a -0.0 partial sum becomes +0.0 after folding).
        assert_eq!(dot_lanes(&[-0.0], &[1.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            dot_lanes(&[2.5, -1.0], &[1.0, 1.0]).to_bits(),
            ((((2.5f64) + (-1.0)) + 0.0) + 0.0).to_bits()
        );
    }

    #[test]
    fn zero_operands_are_not_skipped() {
        // `Matrix::matmul` skips `a == 0.0` terms; the kernel must not,
        // so a 0.0 * inf product still poisons the sum.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[f64::INFINITY], &[2.0]]).unwrap();
        let mut out = Matrix::zeros(1, 1);
        matmul_into(&a, &b, &[], &mut out).unwrap();
        assert!(out.get(0, 0).is_nan());
    }

    #[test]
    fn kernels_reject_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(2, 2);
        assert!(matmul_into(&a, &b, &[], &mut out).is_err());
        let b_ok = Matrix::zeros(3, 2);
        let mut wrong_out = Matrix::zeros(3, 2);
        assert!(matmul_into(&a, &b_ok, &[], &mut wrong_out).is_err());
        assert!(matmul_into(&a, &b_ok, &[1.0], &mut out).is_err());
        assert!(matmul_into(&a, &b_ok, &[1.0, 2.0], &mut out).is_ok());
    }

    #[test]
    fn transpose_swaps_every_index() {
        let mut rng = Xoshiro256::seed_from(17);
        // Row counts on both sides of the four-row step.
        for rows in [0, 1, 3, 4, 5, 8, 9, 64, 65] {
            for cols in [1, 2, 4, 5, 16] {
                let src = random_matrix(rows, cols, &mut rng);
                let mut dst = vec![f64::NAN; rows * cols];
                transpose(src.as_slice(), cols, &mut dst);
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(dst[c * rows + r], src.get(r, c), "{rows}x{cols} at {r},{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn overwrites_stale_output_contents() {
        let a = Matrix::identity(3);
        let b = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let mut out = Matrix::filled(3, 3, f64::NAN);
        matmul_into(&a, &b, &[], &mut out).unwrap();
        assert_eq!(out, b);
    }
}
