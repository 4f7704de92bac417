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
//! is conforming, so each kernel picks the traversal that vectorizes
//! best for its operand layout (register-tiled row broadcasts for the
//! `N`/`T·N` forms, contiguous lane dots for the `N·T` form) without
//! affecting a single output bit. The four independent chains are also
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

/// Widest register tile: [`LANES`] lane rows of this many columns live
/// in vector registers across the whole `k` sweep. Purely a performance
/// knob (8 doubles is one AVX-512 register, two AVX2 registers);
/// correctness never depends on it because lane assignment is
/// per-element.
const TILE: usize = 8;

/// How many output rows a broadcast-form tile computes at once. Rows
/// share each loaded `b` row slice, halving load traffic and doubling
/// the number of independent FMA chains in flight. Purely a performance
/// knob: rows never interact, so blocking cannot change a bit.
const ROW_BLOCK: usize = 2;

/// One lane-accumulator tile of a broadcast-form product: computes
/// `W`-many consecutive output columns (starting at `jc`) of `R`
/// consecutive output rows (starting at `r_base`), for any kernel whose
/// element is `sum_k a(r, k) * b[k][j]`.
///
/// `a_at(r, k)` abstracts the `a` operand walk (contiguous row for the
/// `N`-form kernels, stride-`m` column for the `T·N` form). The
/// accumulator tile is `R x LANES x W` and every index into it is a
/// compile-time constant — the `k` loop is unrolled by [`LANES`] and
/// the remainder dispatches on `k % LANES` — so LLVM keeps the whole
/// tile in vector registers instead of spilling to the stack. Each
/// element receives exactly the committed lane order: term `k` is fused
/// into lane `k % LANES` with `k` ascending, lanes folded by
/// [`fold_lanes`].
///
/// A non-empty `bias` is added to each folded element (`fold + bias[j]`)
/// before the store — the same two operations callers would otherwise
/// perform in a separate sweep, so fusing it changes no bits.
// Indexed `0..R` loops keep every accumulator index a compile-time
// constant, which is what lets LLVM keep the tile in registers;
// iterator rewrites obscure that without changing codegen for the
// better. The argument list is the full microkernel state on purpose.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[inline(always)]
fn lane_tile<const W: usize, const R: usize, F: Fn(usize, usize) -> f64>(
    a_at: &F,
    bd: &[f64],
    n: usize,
    jc: usize,
    ka: usize,
    bias: &[f64],
    od: &mut [f64],
    r_base: usize,
) {
    let mut acc = [[[0.0f64; W]; LANES]; R];
    let mut k = 0;
    while k + LANES <= ka {
        for l in 0..LANES {
            let brow = &bd[(k + l) * n + jc..(k + l) * n + jc + W];
            for r in 0..R {
                let av = a_at(r, k + l);
                for t in 0..W {
                    acc[r][l][t] = av.mul_add(brow[t], acc[r][l][t]);
                }
            }
        }
        k += LANES;
    }
    while k < ka {
        let brow = &bd[k * n + jc..k * n + jc + W];
        match k % LANES {
            0 => {
                for r in 0..R {
                    let av = a_at(r, k);
                    for t in 0..W {
                        acc[r][0][t] = av.mul_add(brow[t], acc[r][0][t]);
                    }
                }
            }
            1 => {
                for r in 0..R {
                    let av = a_at(r, k);
                    for t in 0..W {
                        acc[r][1][t] = av.mul_add(brow[t], acc[r][1][t]);
                    }
                }
            }
            2 => {
                for r in 0..R {
                    let av = a_at(r, k);
                    for t in 0..W {
                        acc[r][2][t] = av.mul_add(brow[t], acc[r][2][t]);
                    }
                }
            }
            _ => {
                for r in 0..R {
                    let av = a_at(r, k);
                    for t in 0..W {
                        acc[r][3][t] = av.mul_add(brow[t], acc[r][3][t]);
                    }
                }
            }
        }
        k += 1;
    }
    for r in 0..R {
        let base = (r_base + r) * n + jc;
        let orow = &mut od[base..base + W];
        if bias.is_empty() {
            for t in 0..W {
                orow[t] = fold_lanes([acc[r][0][t], acc[r][1][t], acc[r][2][t], acc[r][3][t]]);
            }
        } else {
            for t in 0..W {
                orow[t] = fold_lanes([acc[r][0][t], acc[r][1][t], acc[r][2][t], acc[r][3][t]])
                    + bias[jc + t];
            }
        }
    }
}

/// `R` full output rows of a broadcast-form product: walks the columns
/// in [`TILE`]-wide register tiles, then progressively narrower
/// const-width tiles (4, 2, 1) for the ragged edge, so every column —
/// remainder included — keeps its lane accumulators in registers.
/// Tiling is pure traversal — every element still sees the committed
/// lane order.
#[inline(always)]
fn lane_rows<const R: usize, F: Fn(usize, usize) -> f64>(
    a_at: &F,
    bd: &[f64],
    n: usize,
    ka: usize,
    bias: &[f64],
    od: &mut [f64],
    r_base: usize,
) {
    let mut jc = 0;
    while jc + TILE <= n {
        lane_tile::<TILE, R, F>(a_at, bd, n, jc, ka, bias, od, r_base);
        jc += TILE;
    }
    if jc + 4 <= n {
        lane_tile::<4, R, F>(a_at, bd, n, jc, ka, bias, od, r_base);
        jc += 4;
    }
    if jc + 2 <= n {
        lane_tile::<2, R, F>(a_at, bd, n, jc, ka, bias, od, r_base);
        jc += 2;
    }
    if jc < n {
        lane_tile::<1, R, F>(a_at, bd, n, jc, ka, bias, od, r_base);
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

/// `out = a * b` (no transposes). `a` is `m x k`, `b` is `k x n`, `out`
/// must be `m x n`.
///
/// Accumulation order per output element is the committed lane order
/// (see the module docs and [`dot_lanes`]).
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the inner dimensions
/// disagree or `out` has the wrong shape.
#[wlc_hot]
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), MathError> {
    matmul_rows_into(a, 0, a.rows(), b, out)
}

/// `out = a[a_r0..a_r1] * b` — [`matmul_into`] restricted to a row band
/// of `a`, so strip-mined callers can walk a large input matrix without
/// copying each strip. `out` must be `(a_r1 - a_r0) x n`.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the inner dimensions
/// disagree, the row range is out of bounds, or `out` has the wrong
/// shape.
#[wlc_hot]
pub fn matmul_rows_into(
    a: &Matrix,
    a_r0: usize,
    a_r1: usize,
    b: &Matrix,
    out: &mut Matrix,
) -> Result<(), MathError> {
    matmul_rows_bias(a, a_r0, a_r1, b, &[], out)
}

/// `out[r] = a[a_r0 + r] * b + bias` — [`matmul_rows_into`] with a bias
/// row added to every output row before the store. The addition is the
/// same `fold + bias[j]` the caller would otherwise perform in a
/// separate sweep over `out`, so fusing it changes no bits; it exists
/// because that separate sweep is measurable on small layers.
///
/// # Errors
///
/// As for [`matmul_rows_into`], plus a mismatch if
/// `bias.len() != b.cols()`.
#[wlc_hot]
pub fn matmul_bias_rows_into(
    a: &Matrix,
    a_r0: usize,
    a_r1: usize,
    b: &Matrix,
    bias: &[f64],
    out: &mut Matrix,
) -> Result<(), MathError> {
    if bias.len() != b.cols() {
        return Err(MathError::DimensionMismatch {
            left: (bias.len(), 1),
            right: (b.cols(), 1),
            op: "matmul_bias_rows_into bias",
        });
    }
    matmul_rows_bias(a, a_r0, a_r1, b, bias, out)
}

/// Shared implementation of the `N`-form row-band kernels; `bias` is
/// empty for the plain product.
#[wlc_hot]
fn matmul_rows_bias(
    a: &Matrix,
    a_r0: usize,
    a_r1: usize,
    b: &Matrix,
    bias: &[f64],
    out: &mut Matrix,
) -> Result<(), MathError> {
    let (rows, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb || a_r0 > a_r1 || a_r1 > rows {
        return Err(MathError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul_rows_into",
        });
    }
    let m = a_r1 - a_r0;
    if out.shape() != (m, n) {
        return Err(MathError::DimensionMismatch {
            left: (m, n),
            right: out.shape(),
            op: "matmul_rows_into out",
        });
    }
    if m == 0 || n == 0 {
        out.as_mut_slice().fill(0.0);
        return Ok(());
    }
    let ad = a.as_slice();
    let bd = b.as_slice();
    let od = out.as_mut_slice();
    // Row broadcast form: for each block of output rows, walk `k` once
    // and fan each `a[r][k]` across a contiguous slice of the matching
    // `b` row. `lane_rows` rotates the register-resident lane tiles with
    // `k % LANES`, so every output element sees exactly the committed
    // lane order while the add chains stay independent.
    let mut r = 0;
    while r + ROW_BLOCK <= m {
        let a_at = |rr: usize, k: usize| ad[(a_r0 + r + rr) * ka + k];
        lane_rows::<ROW_BLOCK, _>(&a_at, bd, n, ka, bias, od, r);
        r += ROW_BLOCK;
    }
    while r < m {
        let a_at = |_rr: usize, k: usize| ad[(a_r0 + r) * ka + k];
        lane_rows::<1, _>(&a_at, bd, n, ka, bias, od, r);
        r += 1;
    }
    Ok(())
}

/// `out = a^T * b`. `a` is `k x m`, `b` is `k x n`, `out` must be
/// `m x n`.
///
/// Same row-broadcast structure as [`matmul_rows_into`] — only the `a`
/// operand is read down a column (stride `m`) instead of along a row —
/// so each output element again sees the committed lane order.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the inner dimensions
/// disagree or `out` has the wrong shape.
#[wlc_hot]
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), MathError> {
    matmul_tn_rows_into(a, b, 0, b.rows(), out)
}

/// `out = a^T * b[b_r0..b_r1]` — [`matmul_tn_into`] where the `b`
/// operand is a row band of a larger matrix, so band-mined gradient
/// callers (`dW = delta^T * x[band]`) can read the input band in place
/// instead of copying it. `a` is `(b_r1 - b_r0) x m`.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the inner dimensions
/// disagree, the row range is out of bounds, or `out` has the wrong
/// shape.
#[wlc_hot]
pub fn matmul_tn_rows_into(
    a: &Matrix,
    b: &Matrix,
    b_r0: usize,
    b_r1: usize,
    out: &mut Matrix,
) -> Result<(), MathError> {
    let (ka, m) = a.shape();
    let n = b.cols();
    if b_r0 > b_r1 || b_r1 > b.rows() || ka != b_r1 - b_r0 {
        return Err(MathError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul_tn_rows_into",
        });
    }
    if out.shape() != (m, n) {
        return Err(MathError::DimensionMismatch {
            left: (m, n),
            right: out.shape(),
            op: "matmul_tn_rows_into out",
        });
    }
    if m == 0 || n == 0 {
        out.as_mut_slice().fill(0.0);
        return Ok(());
    }
    let ad = a.as_slice();
    let bd = &b.as_slice()[b_r0 * n..b_r1 * n];
    let od = out.as_mut_slice();
    // Same blocked broadcast walk as `matmul_rows_into`; only the `a`
    // operand is read down a column (stride `m`).
    let mut i = 0;
    while i + ROW_BLOCK <= m {
        let a_at = |rr: usize, k: usize| ad[k * m + i + rr];
        lane_rows::<ROW_BLOCK, _>(&a_at, bd, n, ka, &[], od, i);
        i += ROW_BLOCK;
    }
    while i < m {
        let a_at = |_rr: usize, k: usize| ad[k * m + i];
        lane_rows::<1, _>(&a_at, bd, n, ka, &[], od, i);
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// Unblocked reference in the committed lane order: per element,
    /// lane `k % LANES` accumulates with `k` ascending, lanes folded
    /// left-to-right — the contract every kernel must match bitwise.
    fn lane_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut lanes = [0.0f64; LANES];
                for k in 0..a.cols() {
                    lanes[k % LANES] = a.get(r, k).mul_add(b.get(k, c), lanes[k % LANES]);
                }
                out.set(r, c, fold_lanes(lanes));
            }
        }
        out
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.next_f64() * 2.0 - 1.0)
    }

    /// Shapes chosen to exercise 1xN, Nx1, chunk-multiple, and
    /// non-multiple-of-chunk dimensions, plus k values hitting every
    /// lane-remainder class (k mod 4 in {0,1,2,3}).
    const SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (1, 7, 1),
        (5, 1, 9),
        (3, 4, 5),
        (6, 6, 33),
        (64, 64, 64),
        (65, 64, 63),
        (130, 70, 67),
        (2, 200, 3),
    ];

    #[test]
    fn matmul_into_is_bitwise_lane_reference() {
        let mut rng = Xoshiro256::seed_from(11);
        for &(m, k, n) in &SHAPES {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let mut out = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut out).unwrap();
            let expect = lane_reference(&a, &b);
            assert_eq!(out.as_slice(), expect.as_slice(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_tn_into_is_bitwise_lane_reference() {
        let mut rng = Xoshiro256::seed_from(13);
        for &(m, k, n) in &SHAPES {
            let a = random_matrix(k, m, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let mut out = Matrix::zeros(m, n);
            matmul_tn_into(&a, &b, &mut out).unwrap();
            let expect = lane_reference(&a.transpose(), &b);
            assert_eq!(out.as_slice(), expect.as_slice(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_rows_into_matches_copied_band_bitwise() {
        // A row-range product must equal running the plain kernel over a
        // physically copied band — including ranges that straddle chunk
        // boundaries and the empty range.
        let mut rng = Xoshiro256::seed_from(15);
        let a = random_matrix(130, 19, &mut rng);
        let b = random_matrix(19, 7, &mut rng);
        for &(r0, r1) in &[(0, 130), (0, 1), (17, 93), (63, 65), (128, 130), (40, 40)] {
            let band = Matrix::from_fn(r1 - r0, a.cols(), |r, c| a.get(r0 + r, c));
            let mut expect = Matrix::zeros(r1 - r0, b.cols());
            matmul_into(&band, &b, &mut expect).unwrap();
            let mut out = Matrix::zeros(r1 - r0, b.cols());
            matmul_rows_into(&a, r0, r1, &b, &mut out).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "rows {r0}..{r1}");
        }
    }

    #[test]
    fn matmul_rows_into_rejects_bad_ranges() {
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(2, 2);
        assert!(matmul_rows_into(&a, 3, 5, &b, &mut out).is_err());
        assert!(matmul_rows_into(&a, 2, 1, &b, &mut out).is_err());
        assert!(matmul_rows_into(&a, 0, 3, &b, &mut out).is_err());
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
        // The same element goes through every kernel identically.
        let a = Matrix::from_rows(&[&x]).unwrap();
        let b = Matrix::from_fn(7, 1, |r, _| y[r]);
        let mut out = Matrix::zeros(1, 1);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.get(0, 0).to_bits(), expect.to_bits());
        matmul_tn_into(&a.transpose(), &b, &mut out).unwrap();
        assert_eq!(out.get(0, 0).to_bits(), expect.to_bits());
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
        // `Matrix::matmul` skips `a == 0.0` terms; the kernels must not,
        // so a 0.0 * inf product still poisons the sum.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[f64::INFINITY], &[2.0]]).unwrap();
        let mut out = Matrix::zeros(1, 1);
        matmul_into(&a, &b, &mut out).unwrap();
        assert!(out.get(0, 0).is_nan());
    }

    #[test]
    fn kernels_reject_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(2, 2);
        assert!(matmul_into(&a, &b, &mut out).is_err());
        assert!(matmul_tn_into(&a, &b, &mut out).is_err());
        let b_ok = Matrix::zeros(3, 2);
        let mut wrong_out = Matrix::zeros(3, 2);
        assert!(matmul_into(&a, &b_ok, &mut wrong_out).is_err());
    }

    #[test]
    fn overwrites_stale_output_contents() {
        let a = Matrix::identity(3);
        let b = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let mut out = Matrix::filled(3, 3, f64::NAN);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out, b);
        let mut out3 = Matrix::filled(3, 3, f64::NAN);
        matmul_tn_into(&a, &b, &mut out3).unwrap();
        assert_eq!(out3, b);
    }
}
