//! Elementary functions whose bits do not depend on the host's libm:
//! [`exp`], the integer power [`powu`] and the signed-log pair
//! [`slog`]/[`slog_inv`].
//!
//! std's `f64::exp` and `f64::powf` call the platform libm, and glibc
//! picks an FMA or a non-FMA `exp` by CPU feature when a process loads,
//! so the same binary could train other weights on another host (or on
//! the same host under `GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`).
//! The functions here are built from `+ − × ÷`, comparisons and bit
//! operations in one fixed order, as [`crate::gemm`] pins its lane
//! order. They use no `mul_add` (without hardware FMA it becomes
//! libm's software `fma`), no table and no allocation.
//!
//! # `exp`
//!
//! The design is fdlibm's `e_exp.c` (Sun Microsystems, 1993), with its
//! branches replaced by arithmetic:
//!
//! 1. Clamp `x` to `[−746, 710]` with two comparisons. NaN compares
//!    false and passes through. Every input above 710 overflows and
//!    every input below −746 underflows to `+0` anyway; the clamp keeps
//!    `k` below in range.
//! 2. `k = round(x / ln 2)`, read from the low bits of
//!    `x·(1/ln 2) + 1.5·2^52`.
//! 3. `r = x − k·ln 2`, kept as `hi − lo`. `ln 2` is split in two, and
//!    the high part has 32 significant bits, so `k·LN2_HI` and
//!    `x − k·LN2_HI` are exact.
//! 4. On `|r| ≤ ln 2 / 2`, fdlibm's rational approximation:
//!    `c = r − r²·(P1 + r²·(P2 + r²·(P3 + r²·(P4 + r²·P5))))` and
//!    `exp(r) = 1 + (r·c / (2 − c) − lo + hi)`.
//! 5. Multiply by `2^k` as `2^k1 · 2^k2` with `k1 = round(k / 2)` and
//!    `k2 = k − k1`. Both factors are normal numbers for every `k` the
//!    clamp allows; the first product is exact and the second rounds
//!    once, gradually into the subnormals or to `+inf`, as the exact
//!    result would.
//!
//! Why this design and not another:
//!
//! - It is within 1 ulp for every finite input. The tests bound the
//!   error against a double-double reference on 2^18 inputs, and an
//!   ignored release sweep on 2^24 more; the largest error seen there
//!   is 0.90 ulp (at 597.8394432329529, which 200-bit `mpmath`
//!   confirms).
//! - It vectorizes. No branch on finite inputs and no table lookup (a
//!   gather) leave a straight line of arithmetic, so a loop over a slice
//!   compiles to SIMD code (one division per value) where a call into
//!   libm cannot. The logistic in the batched forward pass is such a
//!   loop.
//! - A correctly rounded `exp` (the CORE-MATH project: Sibidanov,
//!   Zimmermann and Glondu, ARITH 2022) would also be immune to a later
//!   rewrite, but needs a slow path behind a data-dependent branch. A
//!   degree-13 polynomial after a Cody–Waite reduction measured up to
//!   0.97 ulp, closer to the bound than this one.
//!
//! It returns glibc's bits for most inputs and is 1 ulp away on the
//! rest. Special values are exact: `exp(NaN)` is NaN, `exp(+inf)` is
//! `+inf`, `exp(−inf)` is `+0` and `exp(±0)` is `1`. The result is
//! `+inf` above 709.782712893384 and `+0` at or below
//! −745.1332191019412.
//!
//! # The other functions
//!
//! [`powu`] is square-and-multiply over the bits of the exponent, for
//! Adam's bias correction `β^t`. [`slog`] and [`slog_inv`] are the
//! signed-log transform of the logarithmic models; `slog` still calls
//! libm's `ln_1p`, which `docs/performance.md` lists with the other
//! libm functions left on the output path.
//!
//! # Examples
//!
//! ```
//! use wlc_math::elementary::{exp, powu};
//!
//! assert_eq!(exp(0.0), 1.0);
//! assert!((exp(1.0) - std::f64::consts::E).abs() <= f64::EPSILON * 3.0);
//! assert_eq!(exp(f64::NEG_INFINITY), 0.0);
//! assert_eq!(powu(0.5, 3), 0.125);
//! ```

/// `1.5 · 2^52`. Adding it to a value below 2^51 in magnitude rounds
/// the value to an integer held in the low bits of the sum.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `1 / ln 2`, rounded to nearest.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `ln 2` to 32 significant bits: its product with any `|k| < 2^21` is
/// exact.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`, rounded to nearest.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// fdlibm's coefficients for `exp` on `[−ln 2 / 2, ln 2 / 2]`.
const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);
/// Inputs above this overflow, so clamping to it changes no result.
const CLAMP_HI: f64 = 710.0;
/// Inputs below this underflow to `+0`, so clamping to it changes no
/// result.
const CLAMP_LO: f64 = -746.0;

/// `e^x`, within 1 ulp, with the same bits on every host. See the
/// module docs for the design and the special values.
#[inline]
pub fn exp(x: f64) -> f64 {
    let x = if x > CLAMP_HI { CLAMP_HI } else { x };
    let x = if x < CLAMP_LO { CLAMP_LO } else { x };
    let kd = x * INV_LN2 + SHIFT;
    let k = kd - SHIFT;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
    // `k1 = round(k / 2)` by the same shift; `k2 = k − k1` is the
    // difference of the two sums' bits, which share their high bits.
    let k1d = k * 0.5 + SHIFT;
    let k2_bits = kd.to_bits().wrapping_sub(k1d.to_bits());
    y * pow2(k1d.to_bits()) * pow2(k2_bits)
}

/// `2^k` for `−1022 ≤ k ≤ 1023`, given `k` in the low 12 bits of `bits`
/// (two's complement): the exponent field is `k + 1023`.
#[inline]
fn pow2(bits: u64) -> f64 {
    f64::from_bits(bits.wrapping_add(1023) << 52)
}

/// `x^n` by square-and-multiply: the factor `x^(2^j)` comes from `j`
/// squarings of `x`, and the factors for the set bits of `n` multiply
/// into the result from the lowest bit up. Without underflow or
/// overflow, the relative error is at most `(n − 1)·u / (1 − (n − 1)·u)`
/// with `u = 2^−53`. `powu(x, 0)` is 1 for every `x`, NaN included.
pub fn powu(x: f64, n: u64) -> f64 {
    let mut result = 1.0;
    let mut square = x;
    let mut n = n;
    while n > 0 {
        if n & 1 == 1 {
            result *= square;
        }
        square *= square;
        n >>= 1;
    }
    result
}

/// Signed logarithmic squash: `sign(x) · ln(1 + |x|)`.
pub fn slog(x: f64) -> f64 {
    x.signum() * x.abs().ln_1p()
}

/// Inverse of [`slog`]: `sign(u) · (exp(|u|) − 1)`, through [`exp`].
pub fn slog_inv(u: f64) -> f64 {
    u.signum() * (exp(u.abs()) - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{self, Gen};

    /// The unevaluated sum `hi + lo`, with `|lo|` at most half an ulp
    /// of `hi`: about 106 significant bits.
    #[derive(Clone, Copy, Debug)]
    struct Dd {
        hi: f64,
        lo: f64,
    }

    impl Dd {
        fn new(v: f64) -> Dd {
            Dd { hi: v, lo: 0.0 }
        }

        fn neg(self) -> Dd {
            Dd {
                hi: -self.hi,
                lo: -self.lo,
            }
        }
    }

    /// `a + b` exactly, as a rounded sum and its error.
    fn two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        let bb = s - a;
        Dd {
            hi: s,
            lo: (a - (s - bb)) + (b - bb),
        }
    }

    /// Renormalizes `hi + lo` when `|hi| ≥ |lo|`.
    fn quick_two_sum(hi: f64, lo: f64) -> Dd {
        let s = hi + lo;
        Dd {
            hi: s,
            lo: lo - (s - hi),
        }
    }

    /// Veltkamp's split of `a` into two halves of 26 bits.
    fn split(a: f64) -> (f64, f64) {
        let c = 134_217_729.0 * a;
        let hi = c - (c - a);
        (hi, a - hi)
    }

    /// `a · b` exactly (Dekker), without `mul_add`.
    fn two_prod(a: f64, b: f64) -> Dd {
        let p = a * b;
        let (ah, al) = split(a);
        let (bh, bl) = split(b);
        Dd {
            hi: p,
            lo: ((ah * bh - p) + ah * bl + al * bh) + al * bl,
        }
    }

    fn add(x: Dd, y: Dd) -> Dd {
        let s = two_sum(x.hi, y.hi);
        let t = two_sum(x.lo, y.lo);
        let s = quick_two_sum(s.hi, s.lo + t.hi);
        quick_two_sum(s.hi, s.lo + t.lo)
    }

    fn mul(x: Dd, y: Dd) -> Dd {
        let p = two_prod(x.hi, y.hi);
        quick_two_sum(p.hi, p.lo + (x.hi * y.lo + x.lo * y.hi))
    }

    fn div(x: Dd, d: f64) -> Dd {
        let q1 = x.hi / d;
        let r = add(x, two_prod(q1, d).neg());
        quick_two_sum(q1, r.hi / d)
    }

    /// `ln 2 = L1 + L2 + L3` to about 2^−120. `L1` and `L2` have at
    /// most 32 significant bits, so `k·L1` and `k·L2` are exact.
    const L1: f64 = LN2_HI;
    const L2: f64 = f64::from_bits(0x3dea_39ef_3580_0000);
    const L3: f64 = f64::from_bits(0xbbcb_0e26_33fe_0685);

    /// `e^x` as `(m, k)` with `e^x = m · 2^k` and `m` in `[0.7, 1.5)`,
    /// to about 2^−104, for `x` in `[−746, 710]`. The reduction
    /// `r = x − k·ln 2` is exact to 2^−106 (`x − k·L1` by `two_sum`,
    /// `k·L1` and `k·L2` exact), and `e^r` is its Taylor series to
    /// degree 24 in double-double Horner form (`0.35^25 / 25!` is below
    /// 2^−130).
    fn reference(x: f64) -> (Dd, i32) {
        let k = (x / std::f64::consts::LN_2).round();
        let mut r = two_sum(x, -(k * L1));
        r = add(r, Dd::new(-(k * L2)));
        r = add(r, two_prod(k, L3).neg());
        let mut sum = Dd::new(1.0);
        for n in (1..=24).rev() {
            sum = add(Dd::new(1.0), div(mul(r, sum), f64::from(n)));
        }
        (sum, k as i32)
    }

    /// `2^n` for `−1022 ≤ n ≤ 1023`.
    fn two_to(n: i32) -> f64 {
        f64::from_bits(((n + 1023) as u64) << 52)
    }

    /// The error of `got` against `e^x` in ulps of the exact result,
    /// for `x` in `[−746, 709.782712893384]`, where the result is finite.
    fn ulp_error(x: f64, got: f64) -> f64 {
        let (m, k) = reference(x);
        // Undo the scaling exactly, in two steps that stay normal.
        let unscaled = got * two_to(-(k / 2)) * two_to(-(k - k / 2));
        let diff = (unscaled - m.hi) - m.lo;
        // The exact result's binade, in unscaled terms.
        let mut e = m.hi.log2().floor() as i32;
        if m.hi == two_to(e) && m.lo < 0.0 {
            e -= 1;
        }
        let normal_ulp = two_to(e - 52);
        // Below 2^−1022 the ulp is 2^−1074 whatever the binade.
        let sub_exp = -1074 - k;
        let subnormal_ulp = if sub_exp >= -1022 {
            two_to(sub_exp)
        } else {
            0.0
        };
        diff.abs() / normal_ulp.max(subnormal_ulp)
    }

    /// Largest input with a finite result, and the smallest with a
    /// nonzero one.
    const LAST_FINITE: f64 = 709.782712893384;
    const FIRST_NONZERO: f64 = -745.1332191019411;

    fn check(x: f64) -> f64 {
        let got = exp(x);
        if x.is_nan() {
            assert!(got.is_nan(), "exp(NaN) = {got:?}");
            return 0.0;
        }
        if x > LAST_FINITE {
            assert_eq!(got, f64::INFINITY, "exp({x:?})");
            return 0.0;
        }
        if x < FIRST_NONZERO {
            assert_eq!(got.to_bits(), 0, "exp({x:?}) = {got:?}");
            return 0.0;
        }
        let err = ulp_error(x, got);
        assert!(err < 1.0, "exp({x:?}) = {got:?} is {err} ulp off");
        err
    }

    /// One random input: the whole finite range, the logistic's range,
    /// near zero, tiny, near a multiple of `ln 2 / 2` (where `k` steps
    /// or `r` cancels to zero), near either threshold, or arbitrary bits.
    fn case(g: &mut Gen) -> f64 {
        let sign = if g.u64() & 1 == 0 { 1.0 } else { -1.0 };
        match g.usize_in(0, 8) {
            0 => g.f64_in(-746.0, 710.0),
            1 => g.f64_in(-40.0, 40.0),
            2 => g.f64_in(-1.0, 1.0),
            3 => sign * g.f64_in(1.0, 2.0) * two_to(-(g.u32_in(1, 1000) as i32)),
            4 => {
                let half_steps = g.u32_in(0, 4200) as f64 / 2.0 - 1076.0;
                let near = half_steps * std::f64::consts::LN_2;
                f64::from_bits((near.to_bits() as i64 + g.u64_in(0, 64) as i64 - 32) as u64)
            }
            5 => g.f64_in(-746.0, -707.0),
            6 => g.f64_in(705.0, 710.0),
            _ => f64::from_bits(g.u64()),
        }
    }

    #[test]
    fn special_values_are_exact() {
        assert!(exp(f64::NAN).is_nan());
        assert!(exp(-f64::NAN).is_nan());
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f64::MAX), f64::INFINITY);
        assert_eq!(exp(f64::MIN).to_bits(), 0);
        assert_eq!(exp(1e-300), 1.0);
        assert_eq!(exp(-1e-300), 1.0);
    }

    #[test]
    fn thresholds_are_exact_on_both_sides() {
        // One ulp further from zero.
        let outward = |v: f64| f64::from_bits(v.to_bits() + 1);
        // 1024·ln 2 lies between these two.
        assert!(exp(LAST_FINITE).is_finite());
        assert_eq!(exp(outward(LAST_FINITE)), f64::INFINITY);
        // −1075·ln 2 lies between these two: the result rounds to the
        // smallest subnormal above it and to zero at or below it.
        assert_eq!(exp(FIRST_NONZERO), 5e-324);
        let last_zero = outward(FIRST_NONZERO);
        assert_eq!(last_zero, -745.133_219_101_941_2);
        assert_eq!(exp(last_zero).to_bits(), 0);
        // Both sides of the clamps.
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0).to_bits(), 0);
        // Gradual underflow: the last normal results, then subnormal ones.
        assert!(exp(-708.0) >= f64::MIN_POSITIVE);
        assert!(exp(-720.0) > 0.0 && exp(-720.0) < f64::MIN_POSITIVE);
        for x in [
            LAST_FINITE,
            709.0,
            -708.0,
            -708.4,
            -708.5,
            -720.0,
            -740.0,
            -745.0,
        ] {
            check(x);
        }
    }

    #[test]
    fn constants_match_exact_arithmetic() {
        assert_eq!(INV_LN2, std::f64::consts::LOG2_E);
        assert_eq!(LN2_HI.to_bits().trailing_zeros(), 21);
        assert_eq!(L2.to_bits().trailing_zeros(), 23);
        // ln 2 = 2·atanh(1/3) = Σ 2 / ((2n + 1)·3^(2n + 1)).
        // Forty terms leave a tail below 9^−40 < 2^−126.
        let mut ln2 = Dd::new(0.0);
        let mut twice_power = div(Dd::new(2.0), 3.0);
        for n in 0..40 {
            ln2 = add(ln2, div(twice_power, f64::from(2 * n + 1)));
            twice_power = div(twice_power, 9.0);
        }
        let residual = |parts: &[f64]| {
            let mut r = ln2;
            for &p in parts {
                r = add(r, Dd::new(-p));
            }
            (r.hi + r.lo).abs()
        };
        // The series itself is good to about 2^−104.
        assert!(residual(&[L1, L2, L3]) < two_to(-100));
        assert!(residual(&[LN2_HI, LN2_LO]) < two_to(-85));
        assert_eq!(LN2_HI + LN2_LO, std::f64::consts::LN_2);
    }

    #[test]
    fn random_inputs_are_within_one_ulp() {
        let mut worst = 0.0f64;
        propcheck::run_cases(1 << 15, |g| {
            for _ in 0..8 {
                worst = worst.max(check(case(g)));
            }
        });
        assert!(
            worst > 0.5,
            "a within-1-ulp exp is not correctly rounded everywhere"
        );
    }

    /// The wide sweep: 2^21 cases of 8 inputs, about 16.8 million. Run
    /// it in a release build:
    /// `cargo test --release -p wlc-math --lib elementary -- --ignored`.
    #[test]
    #[ignore = "release-build sweep; ci.sh and CI run it"]
    fn random_inputs_are_within_one_ulp_wide() {
        let mut worst = 0.0f64;
        propcheck::run_cases(1 << 21, |g| {
            for _ in 0..8 {
                worst = worst.max(check(case(g)));
            }
        });
        eprintln!("exp: largest error {worst:.4} ulp");
    }

    /// `β^t` in double-double by the same square-and-multiply.
    fn reference_pow(x: f64, n: u64) -> Dd {
        let mut result = Dd::new(1.0);
        let mut square = Dd::new(x);
        let mut n = n;
        while n > 0 {
            if n & 1 == 1 {
                result = mul(result, square);
            }
            square = mul(square, square);
            n >>= 1;
        }
        result
    }

    #[test]
    fn integer_power_is_within_its_bound() {
        // The bound (n − 1)·u / (1 − (n − 1)·u) holds without underflow.
        // 0.9^15000 ≈ e^−1580 underflows to 0 here and in the
        // reference, so it is checked as equal.
        for beta in [0.9, 0.999] {
            for t in [1u64, 2, 3, 1500, 15000] {
                let got = powu(beta, t);
                let want = reference_pow(beta, t);
                let u = two_to(-53);
                let bound = (t - 1) as f64 * u / (1.0 - (t - 1) as f64 * u);
                let err = ((got - want.hi) - want.lo).abs();
                assert!(
                    err <= bound * want.hi,
                    "{beta}^{t}: {got:?} vs {want:?}, error {err:e} above {:e}",
                    bound * want.hi
                );
            }
        }
        assert_eq!(powu(0.9, 1), 0.9);
        assert_eq!(powu(0.9, 15000), 0.0);
        assert_eq!(powu(f64::NAN, 0), 1.0);
        assert_eq!(powu(2.0, 10), 1024.0);
    }
}
