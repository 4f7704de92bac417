//! Text for `f64`, both ways: the shortest round-trip text that
//! `format!("{v:?}")` prints, written by Ryū (Adams, *Ryū: fast
//! float-to-string conversion*, PLDI 2018) into a stack buffer, and the
//! value `str::parse::<f64>` reads from any text, read by Clinger's fast
//! path and the Eisel–Lemire algorithm.
//!
//! [`write_f64`] prints the numbers the workspace serializes: JSON
//! numbers, dataset CSV cells, and every value in scaler, network,
//! checkpoint and linear-baseline files, the logistic slope in a
//! network file's `layer` line (`logistic(1.0)`) included. Its output
//! is `{:?}`'s, byte for byte:
//!
//! - **Digits.** The shortest digit string that parses back to the same
//!   bits; among strings of that length, the one nearest the exact
//!   value, with an exact tie rounded up. Published Ryū rounds a tie to
//!   even, and would print `2.9802322387695312e-8` for 2^-25 where
//!   `{:?}` prints `2.9802322387695313e-8`.
//! - **Layout.** Decimal when `1e-4 <= |v| < 1e16`, with at least one
//!   fractional digit (`3.0`, `0.0001`, `1000000000000000.0`); otherwise
//!   `d[.ddd]e[-]x` with no `+` (`1e16`, `1e-5`, `5e-324`).
//! - **Special values.** `-0.0`, `NaN` (whatever its sign and payload),
//!   `inf`, `-inf`.
//!
//! Ryū needs one 128-bit multiply per bound and no bignum fallback. An
//! exact integer below 1e16 skips Ryū altogether.
//!
//! [`parse_f64`] reads the same files back, and [`parse_f64_prefix`]
//! reads a number in place for the JSON parser. For every string,
//! `parse_f64` returns what `str::parse::<f64>` returns, bit for bit, and
//! the same error. A number of up to 19 significant digits in the form
//! `-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?`, which covers every finite
//! value `write_f64` prints, is read here; anything else goes to std.
//!
//! Both halves read one static table of 128-bit powers of five,
//! Lemire's. Ryū's two 125-bit tables are cut from it by the compiler,
//! so nothing is computed at start-up or per call.
//!
//! # Examples
//!
//! ```
//! use wlc_math::float_text::{parse_f64, write_f64};
//!
//! let mut text = String::new();
//! for v in [0.1 + 0.2, 1e16, -0.0, 3.0] {
//!     write_f64(&mut text, v).unwrap();
//!     text.push(' ');
//! }
//! assert_eq!(text, "0.30000000000000004 1e16 -0.0 3.0 ");
//!
//! let back: Vec<f64> = text.split_whitespace().map(|t| parse_f64(t).unwrap()).collect();
//! assert_eq!(back, [0.1 + 0.2, 1e16, -0.0, 3.0]);
//! ```

use std::fmt;

use wlc_hot::wlc_hot;

mod pow5_128;
mod read;

pub use read::{parse_f64, parse_f64_prefix};

/// Bits in each entry of Ryū's two tables.
const POW5_BITS: i32 = 125;

/// The top 125 bits of `5^0 ..= 5^325`, for negative binary exponents:
/// the 128-bit table's entries from `5^0` up, less their three low bits.
static POW5_SPLIT: [u128; 326] = {
    let mut table = [0; 326];
    let mut i = 0;
    while i < table.len() {
        table[i] = pow5_128::entry(i as i64) >> 3;
        i += 1;
    }
    table
};

/// Scaled inverses of `5^0 ..= 5^291`, for binary exponents from 0 up:
/// entry `i` is `floor(2^(len - 1 + 125) / 5^i) + 1`, with `len` the bit
/// length of `5^i`. The 128-bit entry for `5^-i` is `2^(len + 127) / 5^i`,
/// rounded up to `5^-27` and truncated below; taking back the rounding
/// and the three low bits leaves the floor. `5^0`'s entry, `2^125 + 1`,
/// has no counterpart there.
static POW5_INV_SPLIT: [u128; 292] = {
    let mut table = [(1 << 125) + 1; 292];
    let mut i = 1;
    while i < table.len() {
        let rounded_up = (i <= 27) as u128;
        table[i] = ((pow5_128::entry(-(i as i64)) - rounded_up) >> 3) + 1;
        i += 1;
    }
    table
};

/// The longest text `{:?}` prints for an `f64`:
/// `-2.2250738585072014e-308`.
const MAX_LEN: usize = 24;

/// Every two-digit number, for writing digits two at a time.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes `v` into `out` exactly as `format!("{v:?}")` would, in one
/// `write_str` and without allocating.
///
/// # Errors
///
/// Returns the error `out` returns.
#[wlc_hot]
pub fn write_f64<W: fmt::Write + ?Sized>(out: &mut W, v: f64) -> fmt::Result {
    let mut buf = [0u8; MAX_LEN];
    let len = render(v, &mut buf);
    out.write_str(std::str::from_utf8(&buf[..len]).map_err(|_| fmt::Error)?)
}

/// Appends `values` to `out` as [`write_f64`] prints them, with `sep`
/// between each two: what joining their `{:?}` strings with `sep` gives,
/// without a `String` per number.
pub fn push_f64s<'a>(out: &mut String, values: impl IntoIterator<Item = &'a f64>, sep: char) {
    for (i, &v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        // Writing into a `String` cannot fail.
        let _ = write_f64(out, v);
    }
}

/// Writes the text of `v` into `buf` and returns its length.
fn render(v: f64, buf: &mut [u8; MAX_LEN]) -> usize {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let special: Option<&[u8]> = match (ieee_exponent, ieee_mantissa) {
        (0x7ff, 0) if negative => Some(b"-inf"),
        (0x7ff, 0) => Some(b"inf"),
        (0x7ff, _) => Some(b"NaN"),
        (0, 0) if negative => Some(b"-0.0"),
        (0, 0) => Some(b"0.0"),
        _ => None,
    };
    if let Some(text) = special {
        buf[..text.len()].copy_from_slice(text);
        return text.len();
    }
    if negative {
        buf[0] = b'-';
    }
    let sign = usize::from(negative);
    let (digits, exponent) = small_int(ieee_mantissa, ieee_exponent)
        .map(|n| (n, 0))
        .unwrap_or_else(|| shortest(ieee_mantissa, ieee_exponent));
    sign + layout(digits, exponent, &mut buf[sign..])
}

/// `Some(n)` when the value is an integer `n` below 1e16, whose digits
/// and `.0` are its text.
///
/// `n`'s own digits are its shortest round-trip text: below 2^53 the
/// reals that parse back to `n` lie within 0.5 of it, and from 2^53 to
/// 1e16 within 1, so no other multiple of 10 is among them.
fn small_int(ieee_mantissa: u64, ieee_exponent: u32) -> Option<u64> {
    // `v = m2 * 2^e2`; a subnormal, below 1, lands in the last arm.
    let m2 = (1 << 52) | ieee_mantissa;
    let e2 = ieee_exponent as i32 - 1075;
    match e2 {
        -52..=-1 => {
            let shift = -e2 as u32;
            (m2 & ((1 << shift) - 1) == 0).then_some(m2 >> shift)
        }
        0 | 1 => Some(m2 << e2).filter(|&n| n < 10_000_000_000_000_000),
        _ => None,
    }
}

/// Ryū's `d2d`: the shortest `digits` with `digits * 10^exponent`
/// inside the interval of reals that parse back to this finite, nonzero
/// `f64`, rounded to the nearest and a tie up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1075 - 2, ieee_mantissa)
    } else {
        (ieee_exponent as i32 - 1075 - 2, (1 << 52) | ieee_mantissa)
    };
    // The parser rounds half to even, so an even mantissa's interval
    // includes both of its ends.
    let accept_bounds = m2 & 1 == 0;

    // The value and the two ends of its interval, times 4 so the ends
    // are integers: mv +- 2, except that the gap below a power of two
    // is half as wide.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale all three by 2^e2 / 10^e10, truncating. When the lower end
    // loses nothing, `vm_is_trailing_zeros` says so, since an included
    // lower end may itself be the answer; an excluded upper end that
    // loses nothing steps down by one. Whether `vr` loses anything
    // matters only to ties rounded to even, which `{:?}` does not do.
    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // An end loses nothing when 5^q divides it, and at most one of
        // mm, mv and mp is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= u64::from(pow5_factor(mp) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITS;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // An end loses nothing when 2^q divides it: mv has two trailing
        // zero bits, mp one, and mm one exactly when mm_shift is 1.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the ends still differ above them, then round
    // `vr` on the last digit removed: 5 or more rounds up, so an exact
    // tie does too.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the lower end is exact, so it may end in zeros that can
        // go too.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let excluded = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(excluded || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `floor(m * mul / 2^j)`, for `j` from 64 up.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `floor(log10(2^e))`, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// The bit length of `5^e`, for `0 <= e <= 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// How many times 5 divides `value`, which is not 0.
fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

/// Lays out `digits * 10^exponent` as `{:?}` does, into `buf`; returns
/// the length written.
fn layout(digits: u64, exponent: i32, buf: &mut [u8]) -> usize {
    let mut scratch = [0u8; 20];
    let digits = write_digits(digits, &mut scratch);
    let count = digits.len();
    // Where the decimal point falls, counted in digits from the left.
    // `{:?}` compares `|v|` with the `f64`s nearest 1e-4 and 1e16, and
    // parsing is monotonic, so the digits that parse back to `v` lie on
    // the same side of those powers of ten as `v`: `1e-4 <= |v| < 1e16`
    // exactly when the point falls in -3..=16.
    let point = count as i32 + exponent;
    if (-3..=16).contains(&point) {
        if point <= 0 {
            let zeros = -point as usize;
            buf[..2].copy_from_slice(b"0.");
            buf[2..2 + zeros].fill(b'0');
            buf[2 + zeros..2 + zeros + count].copy_from_slice(digits);
            2 + zeros + count
        } else if (point as usize) < count {
            let point = point as usize;
            buf[..point].copy_from_slice(&digits[..point]);
            buf[point] = b'.';
            buf[point + 1..count + 1].copy_from_slice(&digits[point..]);
            count + 1
        } else {
            let point = point as usize;
            buf[..count].copy_from_slice(digits);
            buf[count..point].fill(b'0');
            buf[point..point + 2].copy_from_slice(b".0");
            point + 2
        }
    } else {
        buf[0] = digits[0];
        let mut len = 1;
        if count > 1 {
            buf[1] = b'.';
            buf[2..count + 1].copy_from_slice(&digits[1..]);
            len = count + 1;
        }
        buf[len] = b'e';
        len += 1;
        let scientific = point - 1;
        if scientific < 0 {
            buf[len] = b'-';
            len += 1;
        }
        let mut scratch = [0u8; 20];
        let exponent = write_digits(u64::from(scientific.unsigned_abs()), &mut scratch);
        buf[len..len + exponent.len()].copy_from_slice(exponent);
        len + exponent.len()
    }
}

/// The decimal digits of `n`, written at the end of `scratch`.
fn write_digits(mut n: u64, scratch: &mut [u8; 20]) -> &[u8] {
    let mut start = scratch.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        start -= 2;
        scratch[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        start -= 2;
        scratch[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        scratch[start] = b'0' + n as u8;
    }
    &scratch[start..]
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    use super::*;
    use crate::propcheck::{self, Gen};

    /// Asserts that [`write_f64`] prints `v` as `{:?}` does, reusing
    /// both buffers.
    fn check(v: f64, ours: &mut String, std: &mut String) {
        ours.clear();
        std.clear();
        write_f64(ours, v).unwrap();
        write!(std, "{v:?}").unwrap();
        assert_eq!(ours, std, "bits {:#018x}", v.to_bits());
    }

    /// The `f64` nearest `10^e`, for `-323 <= e <= 308`.
    fn power_of_ten(e: i32) -> f64 {
        format!("1e{e}").parse().unwrap()
    }

    /// The next `f64` up from a positive finite `v`.
    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    /// The next `f64` down from a positive finite `v`.
    fn next_down(v: f64) -> f64 {
        f64::from_bits(v.to_bits() - 1)
    }

    /// One random case: arbitrary bits (NaN payloads, signed zeros,
    /// infinities and subnormals among them), a short decimal, a scaled
    /// integer, an integer near 2^53 or 1e16, or a power of ten and its
    /// neighbours.
    pub(super) fn case(g: &mut Gen) -> f64 {
        let sign = if g.u64() & 1 == 0 { 1.0 } else { -1.0 };
        match g.usize_in(0, 8) {
            0 | 1 => f64::from_bits(g.u64()),
            2 => {
                // Bits with a random exponent field at either extreme.
                let exponent = *g.pick(&[0, 1, 0x7fe, 0x7ff]);
                f64::from_bits((g.u64() & 0x800f_ffff_ffff_ffff) | (exponent << 52))
            }
            3 => {
                let len = g.u32_in(1, 18);
                let digits = g.u64_in(0, 10u64.pow(len));
                let text = format!("{digits}e{}", g.u32_in(0, 40) as i32 - 20);
                sign * text.parse::<f64>().unwrap()
            }
            4 => sign * g.u64_in(0, 1 << 20) as f64 * 10f64.powi(g.u32_in(0, 60) as i32 - 30),
            5 => {
                let base = *g.pick(&[9_007_199_254_740_992, 10_000_000_000_000_000]);
                sign * (base + g.u64_in(0, 64) - 32) as f64
            }
            6 => {
                let p = power_of_ten(g.u32_in(0, 632) as i32 - 323);
                sign * *g.pick(&[next_down(p), p, next_up(p)])
            }
            _ => g.f64_in(-1e4, 1e4),
        }
    }

    #[test]
    fn edges_match_debug_formatting() {
        let (mut ours, mut std) = (String::new(), String::new());
        // 2^-25 and 1658206780088562.25, each exactly halfway between
        // two shortest candidates.
        let ties = [1.0 / 33_554_432.0, 1_658_206_780_088_562.0 + 0.25];
        let mut edges = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            5e-324,
            0.04105526295482766,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
        ];
        edges.extend(ties);
        for p in [1e-4, 1e16] {
            edges.extend([next_down(p), p, next_up(p)]);
        }
        for e in -1074..=1023 {
            edges.push(2f64.powi(e));
        }
        for e in -323..=308 {
            let p = power_of_ten(e);
            edges.extend([next_down(p), p, next_up(p)]);
        }
        for v in edges {
            check(v, &mut ours, &mut std);
            check(-v, &mut ours, &mut std);
        }
        ours.clear();
        for v in ties {
            write_f64(&mut ours, v).unwrap();
            ours.push(' ');
        }
        assert_eq!(ours, "2.9802322387695313e-8 1658206780088562.3 ");
    }

    #[test]
    fn random_values_match_debug_formatting() {
        let (mut ours, mut std) = (String::new(), String::new());
        propcheck::run_cases(1 << 15, |g| {
            for _ in 0..8 {
                check(case(g), &mut ours, &mut std);
            }
        });
    }

    /// The wide sweep: 2^22 cases of 8 values each, about 34 million
    /// values. Run it in a release build:
    /// `cargo test --release -p wlc-math --lib float_text -- --ignored`.
    #[test]
    #[ignore = "release-build sweep; ci.sh and CI run it"]
    fn random_values_match_debug_formatting_wide() {
        let (mut ours, mut std) = (String::new(), String::new());
        propcheck::run_cases(1 << 22, |g| {
            for _ in 0..8 {
                check(case(g), &mut ours, &mut std);
            }
        });
    }

    /// An unsigned integer as little-endian 64-bit limbs, for the exact
    /// table checks here and in the reader's tests.
    pub(super) type Big = Vec<u64>;

    pub(super) fn big(x: u128) -> Big {
        vec![x as u64, (x >> 64) as u64]
    }

    pub(super) fn mul(a: &[u64], b: &[u64]) -> Big {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + b.len()] = carry as u64;
        }
        out
    }

    pub(super) fn bit_len(x: &[u64]) -> u32 {
        let top = x.iter().rposition(|&limb| limb != 0).unwrap();
        64 * top as u32 + 64 - x[top].leading_zeros()
    }

    pub(super) fn cmp(a: &[u64], b: &[u64]) -> Ordering {
        let len = a.len().max(b.len());
        let limb = |x: &[u64], i: usize| x.get(i).copied().unwrap_or(0);
        (0..len)
            .rev()
            .map(|i| limb(a, i).cmp(&limb(b, i)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// `floor(x / 2^s)`, which must fit in 128 bits.
    pub(super) fn shr(x: &[u64], s: u32) -> u128 {
        let bit = |i: u32| {
            let i = i + s;
            x.get((i / 64) as usize)
                .map_or(0, |limb| (limb >> (i % 64)) & 1)
        };
        (0..128).fold(0, |acc, i| acc | u128::from(bit(i)) << i)
    }

    #[test]
    fn tables_are_exact() {
        let mut pow5: Big = vec![1];
        for i in 0..POW5_SPLIT.len().max(POW5_INV_SPLIT.len()) {
            let len = bit_len(&pow5);
            if let Some(&entry) = POW5_SPLIT.get(i) {
                let top = match len.checked_sub(125) {
                    Some(s) => shr(&pow5, s),
                    None => shr(&pow5, 0) << (125 - len),
                };
                assert_eq!(entry, top, "POW5_SPLIT[{i}]");
            }
            if let Some(&entry) = POW5_INV_SPLIT.get(i) {
                // entry = floor(2^j / 5^i) + 1, so
                // (entry - 1) * 5^i <= 2^j < entry * 5^i.
                let j = len - 1 + 125;
                let mut pow2: Big = vec![0; j as usize / 64 + 1];
                pow2[j as usize / 64] = 1 << (j % 64);
                assert_ne!(
                    cmp(&mul(&big(entry - 1), &pow5), &pow2),
                    Ordering::Greater,
                    "POW5_INV_SPLIT[{i}] too large"
                );
                assert_eq!(
                    cmp(&mul(&big(entry), &pow5), &pow2),
                    Ordering::Greater,
                    "POW5_INV_SPLIT[{i}] too small"
                );
            }
            pow5 = mul(&pow5, &[5]);
        }
    }
}
