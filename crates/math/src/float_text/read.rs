//! The reading half: text to `f64`, exactly as `str::parse::<f64>`
//! reads it.
//!
//! A number of the form `-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?` with at
//! most 19 significant digits (leading zeros do not count) is read
//! here. Its digits make an integer `w` below 10^19 and its point and
//! exponent a power of ten `q`, and `w * 10^q` is rounded to the nearest
//! `f64`, a tie to even, in one of two ways:
//!
//! - **Clinger's fast path.** When `w <= 2^53` and `|q| <= 22`, both `w`
//!   and `10^|q|` are exact `f64`s, so one IEEE multiply or divide rounds
//!   the exact value once.
//! - **Eisel–Lemire** otherwise (Lemire, *Number Parsing at a Gigabyte per
//!   Second*, SPE 2021). `w`, shifted to fill 64 bits, is multiplied by a
//!   128-bit `5^q` from a static table; the top 54 bits of the product
//!   hold the mantissa and a rounding bit. A second 64-bit product is
//!   taken only when the first leaves the rounding open.
//!
//! Everything else goes to `str::parse::<f64>`: more than 19 significant
//! digits, an exponent of 10,000 or more, the one product
//! Eisel–Lemire cannot settle, and text outside the form above, which
//! std accepts (`.5`, `5.`, `+1`, `inf`, `NaN`) or rejects (`1e`, `--1`,
//! the empty string). So the result, and the error, are std's for every
//! string.

use std::num::ParseFloatError;

use wlc_hot::wlc_hot;

use super::pow5_128::{MIN_Q, POW5_128};

/// The largest decimal exponent read through [`POW5_128`]. Above it, any
/// number of up to 19 digits rounds to infinity; the table runs on to
/// `5^325` for the writer alone.
const MAX_Q: i64 = 308;

/// The most significant digits read here; `10^19 - 1` fits in a `u64`.
const MAX_DIGITS: usize = 19;

/// Exponents this large or larger, in magnitude, go to std.
const EXPONENT_LIMIT: i64 = 10_000;

/// The powers of ten that are exact `f64`s.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The bits of `+inf`.
const INFINITY_BITS: u64 = 0x7ff << 52;

/// Reads `s` as `f64`: for every string, what `s.parse::<f64>()`
/// returns, bit for bit on `Ok` and the same error on `Err`.
///
/// # Errors
///
/// Returns std's [`ParseFloatError`] for text std does not read as a
/// float.
///
/// # Examples
///
/// ```
/// use wlc_math::float_text::parse_f64;
///
/// assert_eq!(parse_f64("0.30000000000000004"), Ok(0.1 + 0.2));
/// assert_eq!(parse_f64("1e23"), "1e23".parse::<f64>());
/// assert!(parse_f64("-inf").unwrap().is_infinite());
/// assert!(parse_f64("1e").is_err());
/// ```
#[wlc_hot]
pub fn parse_f64(s: &str) -> Result<f64, ParseFloatError> {
    match parse_f64_prefix(s.as_bytes()) {
        Some((v, len)) if len == s.len() => Ok(v),
        _ => s.parse(),
    }
}

/// Reads the number at the start of `bytes`, for a parser that reads
/// numbers in place: the longest prefix of the form
/// `-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?` and its value, which is what
/// `str::parse::<f64>` reads from that prefix. Returns `None` when
/// `bytes` does not start with that form or the number is one this
/// reader leaves to std (more than 19 significant digits, an exponent of
/// 10,000 or more, or Eisel–Lemire's undecided case).
///
/// A `.` or `e` that no digit follows ends the prefix before it, so the
/// caller decides what the byte after the prefix means.
#[wlc_hot]
pub fn parse_f64_prefix(bytes: &[u8]) -> Option<(f64, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let start = usize::from(negative);
    // The digits, wrapping past 19 of them; their count says whether `w`
    // holds them all.
    let mut w = 0u64;
    let mut pos = read_digits(bytes, start, &mut w);
    let int_digits = pos - start;
    if int_digits == 0 {
        return None;
    }
    let mut frac_digits = 0;
    if bytes.get(pos) == Some(&b'.') && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) {
        let end = read_digits(bytes, pos + 1, &mut w);
        frac_digits = end - pos - 1;
        pos = end;
    }
    if int_digits + frac_digits > MAX_DIGITS {
        let leading_zeros = bytes[start..pos]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if int_digits + frac_digits - leading_zeros > MAX_DIGITS {
            return None;
        }
    }
    let mut q = -(frac_digits as i64);
    if let Some((exponent, end)) = read_exponent(bytes, pos) {
        if exponent.abs() >= EXPONENT_LIMIT {
            return None;
        }
        q += exponent;
        pos = end;
    }
    let value = decimal_to_f64(w, q)?;
    Some((if negative { -value } else { value }, pos))
}

/// Appends the digits at `bytes[pos..]` to `w`, wrapping, and returns
/// where they end. Eight digits at a time are read as one `u64`.
fn read_digits(bytes: &[u8], mut pos: usize, w: &mut u64) -> usize {
    while let Some(chunk) = bytes.get(pos..).and_then(<[u8]>::first_chunk::<8>) {
        let chunk = u64::from_le_bytes(*chunk);
        if !all_digits(chunk) {
            break;
        }
        *w = w
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digits(chunk));
        pos += 8;
    }
    while let Some(&b) = bytes.get(pos).filter(|b| b.is_ascii_digit()) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        pos += 1;
    }
    pos
}

/// Whether all eight bytes of `chunk` are ASCII digits: adding `0x46`
/// sets a byte's top bit from `:` up, and subtracting `0x30` below `0`.
fn all_digits(chunk: u64) -> bool {
    let above = chunk.wrapping_add(0x4646_4646_4646_4646);
    let below = chunk.wrapping_sub(0x3030_3030_3030_3030);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits, the first in the low byte: adjacent
/// digits combine into pairs, then pairs into the whole in one multiply
/// per half.
fn eight_digits(chunk: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 0x000f_4240_0000_0064; // 10^6 << 32 | 100
    const MUL2: u64 = 0x0000_2710_0000_0001; // 10^4 << 32 | 1
    let digits = chunk - 0x3030_3030_3030_3030;
    let pairs = digits * 10 + (digits >> 8);
    let high = (pairs & MASK).wrapping_mul(MUL1);
    let low = ((pairs >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((high.wrapping_add(low) >> 32) as u32)
}

/// The exponent at `bytes[pos..]`, `[eE][+-]?[0-9]+`, its magnitude
/// capped at [`EXPONENT_LIMIT`], and where it ends; `None` when there is
/// none.
fn read_exponent(bytes: &[u8], pos: usize) -> Option<(i64, usize)> {
    if !matches!(bytes.get(pos), Some(b'e' | b'E')) {
        return None;
    }
    let negative = bytes.get(pos + 1) == Some(&b'-');
    let start = pos + 1 + usize::from(matches!(bytes.get(pos + 1), Some(b'+' | b'-')));
    let mut exponent = 0i64;
    let mut end = start;
    while let Some(&b) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
        exponent = (exponent * 10 + i64::from(b - b'0')).min(EXPONENT_LIMIT);
        end += 1;
    }
    if end == start {
        return None;
    }
    Some((if negative { -exponent } else { exponent }, end))
}

/// `w * 10^q` rounded to the nearest `f64`, a tie to even, for `w` below
/// 10^19; `None` when Eisel–Lemire cannot settle it.
fn decimal_to_f64(w: u64, q: i64) -> Option<f64> {
    if w <= 1 << 53 && (-22..=22).contains(&q) {
        let v = w as f64;
        let p = EXACT_POW10[q.unsigned_abs() as usize];
        return Some(if q < 0 { v / p } else { v * p });
    }
    eisel_lemire(w, q).map(f64::from_bits)
}

/// Eisel–Lemire: the bits of `w * 10^q` rounded to the nearest, a tie to
/// even, or `None` when the truncated product cannot say which way it
/// rounds.
fn eisel_lemire(w: u64, q: i64) -> Option<u64> {
    if w == 0 || q < MIN_Q {
        return Some(0);
    }
    if q > MAX_Q {
        return Some(INFINITY_BITS);
    }
    let shift = w.leading_zeros();
    let w = w << shift;
    let (pow_hi, pow_lo) = POW5_128[(q - MIN_Q) as usize];
    // The top 64 bits of `w * 5^q`. Their top 55 hold the mantissa, a
    // rounding bit and a possible leading zero; when the 9 bits below
    // those are all ones, the low word's product may carry into them.
    let product = u128::from(w) * u128::from(pow_hi);
    let (mut hi, mut lo) = ((product >> 64) as u64, product as u64);
    if hi & 0x1ff == 0x1ff {
        let carry_in = ((u128::from(w) * u128::from(pow_lo)) >> 64) as u64;
        let (sum, carry) = lo.overflowing_add(carry_in);
        lo = sum;
        hi += u64::from(carry);
    }
    // Still all ones: the truncated table may hide a carry. Lemire shows
    // the result is right anyway for q from -27 to 55.
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let top = (hi >> 63) as i32;
    let mut mantissa = hi >> (top + 9);
    // floor(q * log2(10)) + 63, then the IEEE bias.
    let log2 = ((q as i32 * (152_170 + 65_536)) >> 16) + 63;
    let mut exponent = log2 + top - shift as i32 + 1023;
    if exponent <= 0 {
        // Subnormal, or zero once the shift leaves nothing.
        if 1 - exponent >= 64 {
            return Some(0);
        }
        mantissa >>= 1 - exponent;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        // Rounding up to 2^52 makes the smallest normal, whose exponent
        // field is that same bit.
        return Some(mantissa);
    }
    // An exact tie between two `f64`s needs `w * 10^q` to be a multiple
    // of a power of two with at most 54 significant bits, which bounds q
    // to -4..=23; there the product is exact, and a tie is a rounding bit
    // with nothing below it. Clear the bit so the tie rounds to even.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << (top + 9) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exponent += 1;
    }
    if exponent >= 0x7ff {
        return Some(INFINITY_BITS);
    }
    Some((mantissa & !(1 << 52)) | ((exponent as u64) << 52))
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    use super::super::pow5_128::entry;
    use super::super::tests::{big, bit_len, case, cmp, mul, shr, Big};
    use super::super::write_f64;
    use super::*;
    use crate::propcheck::{self, Gen};

    /// Asserts that [`parse_f64`] returns what std returns for `text`.
    fn check(text: &str) {
        match (parse_f64(text), text.parse::<f64>()) {
            (Ok(ours), Ok(std)) => assert_eq!(ours.to_bits(), std.to_bits(), "{text:?}"),
            (Err(ours), Err(std)) => assert_eq!(ours, std, "{text:?}"),
            (ours, std) => panic!("{text:?}: {ours:?}, std {std:?}"),
        }
    }

    /// Text off the reader's form, which std reads or rejects.
    const OFF_FORM: [&str; 30] = [
        "",
        ".5",
        "5.",
        "-5.",
        "+1",
        "+1.5e3",
        "-.5",
        "inf",
        "-inf",
        "+inf",
        "NaN",
        "nan",
        "infinity",
        "-Infinity",
        "1e",
        "1e+",
        "1E-",
        "--1",
        "-",
        ".",
        "1.2.3",
        "1..2",
        "e5",
        "0x10",
        "1_0",
        " 1",
        "1 ",
        "1,5",
        "1.5e+-3",
        "١",
    ];

    /// A decimal digit string of 1 to 25 digits after up to 20 leading
    /// zeros, perhaps with a point and an exponent in -400..=400, either
    /// sign.
    fn digit_string(g: &mut Gen, out: &mut String) {
        if g.u64() & 1 == 0 {
            out.push('-');
        }
        let start = out.len();
        let leading = *g.pick(&[0, 0, 0, 1, 3, 20]);
        let count = leading + g.usize_in(1, 26);
        for i in 0..count {
            let digit = if i < leading { 0 } else { g.usize_in(0, 10) };
            out.push(char::from(b'0' + digit as u8));
        }
        if count > 1 && g.u64() & 1 == 0 {
            out.insert(start + g.usize_in(1, count), '.');
        }
        if g.u64() & 1 == 0 {
            let exponent = g.usize_in(0, 801) as i32 - 400;
            let mark = if exponent < 0 {
                "e"
            } else {
                *g.pick(&["e", "E", "e+"])
            };
            let _ = write!(out, "{mark}{exponent}");
        }
    }

    /// An exact tie between two neighbouring `f64`s, `(2m + 1) * 2^(s - 1)`
    /// for a 53-bit `m`, printed in full: an integer for `s >= 1`, and
    /// with 1 to 5 fraction digits below.
    fn tie(g: &mut Gen, out: &mut String) {
        if g.u64() & 1 == 0 {
            out.push('-');
        }
        let odd = u128::from(2 * ((1 << 52) | (g.u64() >> 12)) + 1);
        let s = g.usize_in(0, 15) as i32 - 4;
        if s >= 1 {
            let _ = write!(out, "{}", odd << (s - 1));
        } else {
            let fraction = (1 - s) as u32;
            let digits = (odd * 5u128.pow(fraction)).to_string();
            let point = digits.len() - fraction as usize;
            let _ = write!(out, "{}.{}", &digits[..point], &digits[point..]);
        }
    }

    /// One token: a value as the writer, `{:e}` or `{:.Ne}` prints it, a
    /// digit string, an exact tie, or text off the reader's form.
    fn token(g: &mut Gen, out: &mut String) {
        out.clear();
        let _ = match g.usize_in(0, 10) {
            0 | 1 => write_f64(out, case(g)),
            2 => write!(out, "{:e}", case(g)),
            3 => write!(out, "{:.*e}", g.usize_in(0, 25), case(g)),
            4..=6 => {
                digit_string(g, out);
                Ok(())
            }
            7 | 8 => {
                tie(g, out);
                Ok(())
            }
            _ => {
                out.push_str(OFF_FORM[g.usize_in(0, OFF_FORM.len())]);
                Ok(())
            }
        };
    }

    #[test]
    fn random_text_reads_as_std_reads_it() {
        let mut text = String::new();
        propcheck::run_cases(1 << 15, |g| {
            for _ in 0..8 {
                token(g, &mut text);
                check(&text);
            }
        });
        for text in OFF_FORM {
            check(text);
        }
    }

    /// The wide sweep: 2^22 cases of 8 tokens each, about 34 million
    /// strings. Run it in a release build:
    /// `cargo test --release -p wlc-math --lib float_text -- --ignored`.
    #[test]
    #[ignore = "release-build sweep; ci.sh and CI run it"]
    fn random_text_reads_as_std_reads_it_wide() {
        let mut text = String::new();
        propcheck::run_cases(1 << 22, |g| {
            for _ in 0..8 {
                token(g, &mut text);
                check(&text);
            }
        });
    }

    /// Whatever the writer prints reads back to the same bits, a finite
    /// value without leaving the fast path.
    #[test]
    fn written_values_read_back() {
        let mut text = String::new();
        propcheck::run_cases(1 << 15, |g| {
            for _ in 0..8 {
                let v = case(g);
                text.clear();
                write_f64(&mut text, v).unwrap();
                let back = parse_f64(&text).unwrap();
                if v.is_nan() {
                    assert!(back.is_nan(), "{text}");
                    continue;
                }
                assert_eq!(back.to_bits(), v.to_bits(), "{text}");
                if v.is_finite() {
                    let (fast, len) = parse_f64_prefix(text.as_bytes()).unwrap();
                    assert_eq!((fast.to_bits(), len), (v.to_bits(), text.len()), "{text}");
                }
            }
        });
    }

    #[test]
    fn edges_read_as_std_reads_them() {
        let largest_subnormal = f64::from_bits((1 << 52) - 1);
        let edges = [
            ("5e-324", f64::from_bits(1)),
            ("4.9406564584124654e-324", f64::from_bits(1)),
            // Either side of half the smallest subnormal.
            ("2.4703282292062327e-324", 0.0),
            ("2.4703282292062328e-324", f64::from_bits(1)),
            // Both neighbours of the subnormal/normal boundary.
            ("2.225073858507201e-308", largest_subnormal),
            ("2.2250738585072009e-308", largest_subnormal),
            ("2.2250738585072014e-308", f64::MIN_POSITIVE),
            ("2.225073858507202e-308", f64::from_bits((1 << 52) + 1)),
            // Halfway around 2^53: each tie goes to the even neighbour.
            ("9007199254740993", 9_007_199_254_740_992.0),
            ("9007199254740995", 9_007_199_254_740_996.0),
            ("900719925474099.3e1", 9_007_199_254_740_992.0),
            ("9007199254740993.0000", 9_007_199_254_740_992.0),
            ("9007199254740994", 9_007_199_254_740_994.0),
            ("1.7976931348623157e308", f64::MAX),
            ("1.7976931348623158e308", f64::MAX),
            // The first 17-digit text that rounds to infinity.
            ("1.7976931348623159e308", f64::INFINITY),
            ("-1.7976931348623159e308", f64::NEG_INFINITY),
            // Clinger's limit: 10^22 is an exact f64 and 10^23 is not.
            ("1e22", 1e22),
            ("1e23", 1e23),
            ("1e-22", 1e-22),
            ("1e-23", 1e-23),
            ("0e999", 0.0),
            ("-0e999", -0.0),
            ("0e-999", 0.0),
            ("1e-400", 0.0),
            ("-1e-400", -0.0),
            ("1e400", f64::INFINITY),
            // The table runs on to 5^325 for the writer, and 1e326 lies
            // past it; the reader stops at 10^308, and everything above
            // reads as infinite.
            ("1e308", 1e308),
            ("1e309", f64::INFINITY),
            ("-1e309", f64::NEG_INFINITY),
            ("9.9e308", f64::INFINITY),
            ("1e325", f64::INFINITY),
            ("1e326", f64::INFINITY),
            ("0.00000000000000001e325", 1e308),
            ("-0", -0.0),
            ("-0.0", -0.0),
            ("0", 0.0),
            ("1e00005", 1e5),
            ("1e10000", f64::INFINITY),
        ];
        for (text, want) in edges {
            check(text);
            assert_eq!(parse_f64(text).unwrap().to_bits(), want.to_bits(), "{text}");
        }
        // At most 19 significant digits and an exponent below 10,000 take
        // the fast path; the rest go to std. Std is the oracle for both.
        let fast = [
            // One multiply past Clinger's limit would read these wrong.
            "3e23",
            "7e-23",
            "1234567890123456789",
            "9999999999999999999",
            "9007199254740993e-22",
            "9007199254740993e22",
            "0.000000001234567890123456789e9",
            "00000000000000000000001",
            "1e-9999",
        ];
        let slow = [
            "12345678901234567890",
            "18446744073709551615",
            "1.0000000000000000000",
            "0.0000000000000000000000000001e10000",
            "0e10000",
        ];
        for text in fast {
            check(text);
            assert!(parse_f64_prefix(text.as_bytes()).is_some(), "{text}");
        }
        for text in slow {
            check(text);
            assert_eq!(parse_f64_prefix(text.as_bytes()), None, "{text}");
        }
    }

    /// The prefix form ends at the first byte it cannot take, and a `.`
    /// or an `e` without digits after it is not part of it.
    #[test]
    fn prefix_ends_where_the_form_does() {
        for (text, want) in [
            ("1.5,", Some((1.5, 3))),
            ("-2e3]", Some((-2000.0, 4))),
            ("1.5e+3}", Some((1500.0, 6))),
            ("7 ", Some((7.0, 1))),
            ("1.e5", Some((1.0, 1))),
            ("1e", Some((1.0, 1))),
            ("1e+", Some((1.0, 1))),
            ("1.5.3", Some((1.5, 3))),
            ("12345678.125x", Some((12_345_678.125, 12))),
            ("-", None),
            ("-x", None),
            (".5", None),
            ("+1", None),
            ("inf", None),
            ("", None),
        ] {
            assert_eq!(parse_f64_prefix(text.as_bytes()), want, "{text}");
        }
    }

    #[test]
    fn power_table_is_exact() {
        // Every entry, 5^-342 ..= 5^325: the writer reads past MAX_Q.
        let last = MIN_Q + POW5_128.len() as i64 - 1;
        let mut pow5: Big = vec![1];
        for n in 0..=last.max(-MIN_Q) {
            let len = bit_len(&pow5);
            if n <= last {
                // 5^n, shifted to 128 bits and truncated.
                let top = match len.checked_sub(128) {
                    Some(s) => shr(&pow5, s),
                    None => shr(&pow5, 0) << (128 - len),
                };
                assert_eq!(entry(n), top, "5^{n}");
            }
            if (1..=-MIN_Q).contains(&n) {
                // 2^(len + 127) / 5^n lies in [2^127, 2^128): rounded up
                // down to 5^-27, truncated below it.
                let e = entry(-n);
                let (below, above) = if n <= 27 { (e - 1, e) } else { (e, e + 1) };
                let j = len + 127;
                let mut pow2: Big = vec![0; j as usize / 64 + 1];
                pow2[j as usize / 64] = 1 << (j % 64);
                assert_eq!(
                    cmp(&mul(&big(below), &pow5), &pow2),
                    Ordering::Less,
                    "5^-{n}"
                );
                assert_eq!(
                    cmp(&mul(&big(above), &pow5), &pow2),
                    Ordering::Greater,
                    "5^-{n}"
                );
            }
            pow5 = mul(&pow5, &[5]);
        }
    }
}
