//! A minimal JSON value type, parser and serializer, plus a tree-free
//! codec for the two prediction body shapes.
//!
//! The server's wire format is deliberately tiny — flat objects holding
//! numbers, strings, booleans and arrays — so a from-scratch
//! implementation keeps the workspace dependency-free. The parser is
//! strict (trailing garbage, unterminated strings and malformed escapes
//! are errors); the serializer emits non-finite numbers as `null`, which
//! request validation upstream makes unreachable for prediction outputs.
//!
//! A `POST /predict_batch` body carries hundreds of numbers, so both
//! prediction routes skip the tree: [`write_request`] and
//! [`write_answer`] write their bodies straight into one `String`, and
//! [`scan_request`] and [`scan_answer`] read them straight into rows.
//! The writers share [`Json`]'s number writer and string escaper, so
//! their bytes are the tree's `to_string()` exactly. The scanners reuse
//! the parser's whitespace and number rules and accept only the bodies
//! they expect; on anything else they return `None`, and the caller
//! parses the body into a [`Json`] tree instead.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use wlc_math::float_text::{parse_f64_prefix, write_f64};
use wlc_math::Matrix;

use crate::client::BatchPrediction;

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`] so serialization order is deterministic —
/// handy for byte-identical golden responses in tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`; `1e999` overflows to infinity,
    /// which downstream finiteness validation rejects).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Extracts an array of numbers (every element must be a number).
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<f64>>>()
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => write_num(f, *v),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a number as JSON: a finite f64 as its shortest round-trip
/// text ([`write_f64`], the bytes of `{:?}`), a non-finite one as `null`.
fn write_num(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if v.is_finite() {
        write_f64(out, v)
    } else {
        out.write_str("null")
    }
}

/// Writes a string literal, escaping quotes, backslashes and control
/// characters. Every byte it escapes is ASCII, so the runs between them
/// are copied whole.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Reads the number at `pos` in one pass with [`parse_f64_prefix`]. When
/// that reader does not take it, takes a text that is not an RFC 8259
/// number, or stops before a byte the token scan would take,
/// [`parse_number_token`] reads it instead; so either way the same bytes
/// are consumed and the same value or error returned.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let rest = bytes.get(*pos..).unwrap_or_default();
    if let Some((v, len)) = parse_f64_prefix(rest) {
        if json_form(&rest[..len]) && !rest.get(len).copied().is_some_and(is_number_byte) {
            *pos += len;
            return Ok(v);
        }
    }
    parse_number_token(bytes, pos)
}

/// A byte the number token scan takes.
fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Whether `token`, a text `str::parse::<f64>` reads, is also an RFC 8259
/// number: std's float syntax less a `+` sign, a point without a digit
/// on each side, a leading zero before another digit, and `inf`/`NaN`.
fn json_form(token: &[u8]) -> bool {
    let unsigned = token.strip_prefix(b"-").unwrap_or(token);
    match unsigned {
        [b'0', next, ..] if next.is_ascii_digit() => false,
        [first, ..] if first.is_ascii_digit() => match unsigned.iter().position(|&b| b == b'.') {
            Some(point) => unsigned.get(point + 1).is_some_and(u8::is_ascii_digit),
            None => true,
        },
        _ => false,
    }
}

/// Reads the number at `pos` as a token: an optional `-`, then every
/// byte [`is_number_byte`] takes, parsed by `str::parse::<f64>`; a
/// token outside [`json_form`] is an error.
fn parse_number_token(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && is_number_byte(bytes[*pos]) {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    token
        .parse::<f64>()
        .ok()
        .filter(|_| json_form(token.as_bytes()))
        .ok_or_else(|| format!("invalid number `{token}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice.
        // Both are ASCII, so the run ends on a char boundary and decodes
        // by itself; the input is a `&str`, so it always does.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        let text =
            std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|_| "invalid utf-8 in string")?;
        out.push_str(text);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // The run stopped at a backslash.
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        // Surrogates are rejected rather than paired; the
                        // server never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("invalid \\u escape `{hex}`"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err("invalid escape sequence".into()),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// The body shape of a prediction route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `POST /predict`: `inputs` is one configuration and `outputs` one
    /// flat row.
    Single,
    /// `POST /predict_batch`: `inputs` is a non-empty array of
    /// configurations, answered by one `outputs` row each plus `rows`.
    Batch,
}

impl Shape {
    /// The route that takes this shape.
    pub(crate) fn path(self) -> &'static str {
        match self {
            Shape::Single => "/predict",
            Shape::Batch => "/predict_batch",
        }
    }
}

/// What a 200 from a prediction route says besides its `outputs`.
#[derive(Debug)]
pub(crate) struct Answer<'a> {
    pub(crate) degraded: bool,
    pub(crate) generation: u64,
    pub(crate) model: &'a str,
    pub(crate) output_names: &'a [String],
    pub(crate) replica: u64,
}

// Writing to a `String` cannot fail, so the writers below drop the
// `fmt::Result`s of the formatter and escaper they share with `Json`.

/// Appends `[v0,v1,…]`.
fn write_nums(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write_num(out, v);
    }
    out.push(']');
}

/// Appends `rows` in `shape`'s form: the one row as a flat array, or an
/// array of rows.
fn write_rows<'r>(out: &mut String, shape: Shape, rows: impl IntoIterator<Item = &'r [f64]>) {
    let mut rows = rows.into_iter();
    match shape {
        Shape::Single => write_nums(out, rows.next().unwrap_or_default()),
        Shape::Batch => {
            out.push('[');
            for (i, row) in rows.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_nums(out, row);
            }
            out.push(']');
        }
    }
}

/// A prediction request body: byte for byte the `to_string()` of the
/// tree `{"deadline_ms":n,"inputs":…}`, keys in the tree's order.
pub(crate) fn write_request<'r>(
    shape: Shape,
    rows: impl IntoIterator<Item = &'r [f64]>,
    deadline_ms: Option<u64>,
) -> String {
    let mut out = String::new();
    out.push('{');
    if let Some(ms) = deadline_ms {
        out.push_str("\"deadline_ms\":");
        let _ = write_num(&mut out, ms as f64);
        out.push(',');
    }
    out.push_str("\"inputs\":");
    write_rows(&mut out, shape, rows);
    out.push('}');
    out
}

/// A prediction route's 200 body: byte for byte the `to_string()` of
/// its tree, keys in the tree's order.
pub(crate) fn write_answer(shape: Shape, answer: &Answer<'_>, outputs: &Matrix) -> String {
    // About 20 bytes per number; one allocation in the common case.
    let mut out = String::with_capacity(128 + 24 * outputs.as_slice().len());
    let _ = write!(out, "{{\"degraded\":{},\"generation\":", answer.degraded);
    let _ = write_num(&mut out, answer.generation as f64);
    out.push_str(",\"model\":");
    let _ = write_escaped(&mut out, answer.model);
    out.push_str(",\"output_names\":[");
    for (i, name) in answer.output_names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write_escaped(&mut out, name);
    }
    out.push_str("],\"outputs\":");
    write_rows(&mut out, shape, (0..outputs.rows()).map(|r| outputs.row(r)));
    out.push_str(",\"replica\":");
    let _ = write_num(&mut out, answer.replica as f64);
    if shape == Shape::Batch {
        out.push_str(",\"rows\":");
        let _ = write_num(&mut out, outputs.rows() as f64);
    }
    out.push('}');
    out
}

/// A cursor for the prediction scanners. Each step skips whitespace as
/// [`Json::parse`] does, then reads exactly the token it expects, or
/// returns `None`.
struct Scan<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// The next byte that is not whitespace, consumed.
    fn next(&mut self) -> Option<u8> {
        skip_ws(self.bytes(), &mut self.pos);
        let b = *self.bytes().get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn punct(&mut self, want: u8) -> Option<()> {
        (self.next()? == want).then_some(())
    }

    /// An object key, raw, and its `:`. A key holding an escape never
    /// equals a name the scanners look for, so it is refused like an
    /// unknown one.
    fn key(&mut self) -> Option<&'a str> {
        self.punct(b'"')?;
        let (key, _) = self.text.get(self.pos..)?.split_once('"')?;
        self.pos += key.len() + 1;
        self.punct(b':')?;
        Some(key)
    }

    /// `lead` (`{` or `,`), then the key `name` and its `:`.
    fn field(&mut self, lead: u8, name: &str) -> Option<()> {
        self.punct(lead)?;
        (self.key()? == name).then_some(())
    }

    /// A finite number, read by the parser's own [`parse_number`].
    fn number(&mut self) -> Option<f64> {
        skip_ws(self.bytes(), &mut self.pos);
        parse_number(self.bytes(), &mut self.pos)
            .ok()
            .filter(|v| v.is_finite())
    }

    fn boolean(&mut self) -> Option<bool> {
        skip_ws(self.bytes(), &mut self.pos);
        let rest = self.bytes().get(self.pos..)?;
        let (value, len) = if rest.starts_with(b"true") {
            (true, 4)
        } else if rest.starts_with(b"false") {
            (false, 5)
        } else {
            return None;
        };
        self.pos += len;
        Some(value)
    }

    /// A string, read by the parser's own [`parse_string`].
    fn string(&mut self) -> Option<String> {
        skip_ws(self.bytes(), &mut self.pos);
        if self.bytes().get(self.pos) != Some(&b'"') {
            return None;
        }
        parse_string(self.bytes(), &mut self.pos).ok()
    }

    /// An array, reading each element with `item`; returns how many.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<usize> {
        self.punct(b'[')?;
        skip_ws(self.bytes(), &mut self.pos);
        if self.bytes().get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(0);
        }
        let mut count = 0;
        loop {
            item(self)?;
            count += 1;
            match self.next()? {
                b',' => {}
                b']' => return Some(count),
                _ => return None,
            }
        }
    }

    /// An array of finite numbers, appended to `out`; returns how many.
    fn nums(&mut self, out: &mut Vec<f64>) -> Option<usize> {
        self.array(|s| {
            out.push(s.number()?);
            Some(())
        })
    }

    /// Nothing but whitespace is left.
    fn end(&mut self) -> Option<()> {
        skip_ws(self.bytes(), &mut self.pos);
        (self.pos == self.bytes().len()).then_some(())
    }
}

/// Reads a prediction request body, `{"inputs":…}` with an optional
/// `"deadline_ms":n` in either order, straight into a `rows x width`
/// matrix. Returns the rows and `deadline_ms`, or `None` for anything
/// else: an unknown, duplicate or escaped key, a row of another width,
/// an empty batch, a value that is not a finite number, trailing bytes.
pub(crate) fn scan_request(
    text: &str,
    shape: Shape,
    width: usize,
) -> Option<(Matrix, Option<f64>)> {
    let mut scan = Scan { text, pos: 0 };
    let mut values = Vec::new();
    let mut row = |s: &mut Scan<'_>| (s.nums(&mut values)? == width).then_some(());
    let (mut rows, mut deadline_ms) = (None, None);
    scan.punct(b'{')?;
    loop {
        match scan.key()? {
            "inputs" if rows.is_none() => {
                rows = Some(match shape {
                    Shape::Single => row(&mut scan).map(|()| 1)?,
                    Shape::Batch => scan.array(&mut row).filter(|&n| n > 0)?,
                });
            }
            "deadline_ms" if deadline_ms.is_none() => deadline_ms = Some(scan.number()?),
            _ => return None,
        }
        match scan.next()? {
            b',' => {}
            b'}' => break,
            _ => return None,
        }
    }
    scan.end()?;
    let xs = Matrix::from_vec(rows?, width, values).ok()?;
    Some((xs, deadline_ms))
}

/// Reads a prediction route's 200 body in the exact form
/// [`write_answer`] writes, or returns `None`.
pub(crate) fn scan_answer(text: &str, shape: Shape) -> Option<BatchPrediction> {
    let mut scan = Scan { text, pos: 0 };
    scan.field(b'{', "degraded")?;
    let degraded = scan.boolean()?;
    scan.field(b',', "generation")?;
    let generation = scan.number()? as u64;
    scan.field(b',', "model")?;
    let model = scan.string()?;
    scan.field(b',', "output_names")?;
    let mut output_names = Vec::new();
    scan.array(|s| {
        output_names.push(s.string()?);
        Some(())
    })?;
    scan.field(b',', "outputs")?;
    let mut outputs = Vec::new();
    let width = output_names.len();
    let mut row = |s: &mut Scan<'_>| {
        let mut values = Vec::with_capacity(width);
        s.nums(&mut values)?;
        outputs.push(values);
        Some(())
    };
    match shape {
        Shape::Single => row(&mut scan)?,
        Shape::Batch => scan.array(&mut row).map(drop)?,
    }
    scan.field(b',', "replica")?;
    let replica = scan.number()? as u64;
    if shape == Shape::Batch {
        scan.field(b',', "rows")?;
        scan.number()?;
    }
    scan.punct(b'}')?;
    scan.end()?;
    Some(BatchPrediction {
        outputs,
        output_names,
        degraded,
        model,
        generation,
        replica,
    })
}

/// Random values and edits for the prediction codec's differential
/// tests, here and in the server and client.
#[cfg(test)]
pub(crate) mod testgen {
    use wlc_math::propcheck::Gen;

    /// Finite numbers at the edges of `{:?}`: signed zero, the smallest
    /// subnormal and normal, the largest magnitudes, and both sides of
    /// its switches to exponent form at 1e16 and below 1e-4.
    const EDGES: [f64; 11] = [
        -0.0,
        5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        1e16,
        9999999999999998.0,
        0.0001,
        0.00009999999999999999,
        1e-5,
        -42.0,
    ];

    /// A finite number: an edge, an integer, arbitrary bits or a plain
    /// value.
    pub(crate) fn finite(g: &mut Gen) -> f64 {
        match g.usize_in(0, 4) {
            0 => *g.pick(&EDGES),
            1 => f64::from(g.u32_in(0, 20_000)) - 10_000.0,
            2 => Some(f64::from_bits(g.u64()))
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
            _ => g.f64_in(-1e4, 1e4),
        }
    }

    /// Text with quotes, backslashes, control characters and multi-byte
    /// characters.
    pub(crate) fn text(g: &mut Gen) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
            '€', '😀',
        ];
        (0..g.usize_in(0, 8)).map(|_| *g.pick(&CHARS)).collect()
    }

    /// `text` with one edit at a char boundary: cut short, one char
    /// replaced, whitespace inserted, or bytes appended.
    pub(crate) fn mutate(g: &mut Gen, text: &str) -> String {
        const REPLACEMENTS: [&str; 20] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "0", "1", "9", "-", "+", ".", "e", "n", "t",
            "x", " ", "é",
        ];
        let cuts: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let (head, tail) = text.split_at(*g.pick(&cuts));
        match g.usize_in(0, 4) {
            0 => head.to_string(),
            1 => {
                let mut rest = tail.chars();
                rest.next();
                format!("{head}{}{}", g.pick(&REPLACEMENTS), rest.as_str())
            }
            2 => format!("{head}{}{tail}", g.pick(&[" ", "\n", "\t", "\r\n"])),
            _ => format!("{text}{}", g.pick(&["x", " ,", "}", "]", "0", " "])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_math::propcheck;

    #[test]
    fn parses_round_trips() {
        let text = r#"{"inputs":[1.0,2.5,-3e2],"deadline_ms":250,"tag":"a b","ok":true,"n":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("inputs").unwrap().as_f64_array().unwrap(),
            vec![1.0, 2.5, -300.0]
        );
        assert_eq!(v.get("deadline_ms").unwrap().as_f64(), Some(250.0));
        assert_eq!(v.get("tag").unwrap().as_str(), Some("a b"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&Json::Null));
        // Serialize and reparse: stable.
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"a\" 1}",
            "{\"a\":}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "[1,,2]",
            "nul",
            "{\"a\":1e}",
            // Numbers outside RFC 8259's grammar.
            "+1",
            ".5",
            "1.",
            "01",
            "00.25",
            "-.5e+3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn overflowing_number_parses_to_infinity() {
        // The JSON layer accepts it; finiteness validation rejects it
        // later with a 400 rather than silently predicting on inf.
        let v = Json::parse("[1e999]").unwrap();
        assert!(v.as_f64_array().unwrap()[0].is_infinite());
    }

    #[test]
    fn escapes_strings_and_nonfinite_numbers() {
        let v = Json::obj([
            ("msg", Json::Str("line\n\"q\"\\".into())),
            ("bad", Json::Num(f64::NAN)),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"bad":null,"msg":"line\n\"q\"\\"}"#);
        assert_eq!(Json::parse(&text).unwrap().get("bad"), Some(&Json::Null));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""é\t""#).unwrap();
        assert_eq!(v.as_str(), Some("é\t"));
        assert!(Json::parse(r#""\ud800""#).is_err()); // lone surrogate
    }

    #[test]
    fn multibyte_characters_next_to_escapes_are_stable() {
        let v = Json::parse(r#""é\"ü\\n€""#).unwrap();
        assert_eq!(v.as_str(), Some("é\"ü\\n€"));
        for text in [
            r#""é\"ü\\n€""#,
            r#""€""#,
            r#""\\€""#,
            r#""😀\"""#,
            r#""aé€\t😀""#,
            r#""\"é""#,
            r#"{"ключ":["é\n","€\\"]}"#,
        ] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.to_string()).unwrap();
            assert_eq!(again, v, "{text}");
            assert_eq!(again.to_string(), v.to_string(), "{text}");
        }
        assert!(Json::parse(r#""é\"ü"#).is_err()); // unterminated after a multi-byte run
    }

    #[test]
    fn request_scanner_reads_only_the_bodies_it_expects() {
        let scan = |text: &str, shape| scan_request(text, shape, 2);
        let (xs, deadline) = scan(
            r#"{"deadline_ms":250.0,"inputs":[1.0,-0.0]}"#,
            Shape::Single,
        )
        .unwrap();
        assert_eq!(deadline, Some(250.0));
        assert_eq!(xs.row(0)[1].to_bits(), (-0.0f64).to_bits());
        let (xs, deadline) = scan(" { \"inputs\" : [ [1,2] , [3e0,4] ] }\n", Shape::Batch).unwrap();
        assert_eq!((xs.as_slice(), deadline), (&[1.0, 2.0, 3.0, 4.0][..], None));
        for bad in [
            r#"{"inputs":[1,2],"inputs":[1,2]}"#,
            r#"{"in\u0070uts":[1,2]}"#,
            r#"{"inputs":[1,2],"extra":1}"#,
            r#"{"inputs":[1,null]}"#,
            r#"{"inputs":[1,1e999]}"#,
            r#"{"inputs":[1,2]} x"#,
            r#"{"inputs":[1]}"#,
            r#"{"inputs":[1,2,3]}"#,
            r#"{"inputs":[[1,2]]}"#,
            r#"{"inputs":[1,2],}"#,
            r#"{"deadline_ms":null,"inputs":[1,2]}"#,
            r#"{}"#,
        ] {
            assert!(scan(bad, Shape::Single).is_none(), "scanned {bad}");
        }
        for bad in [
            r#"{"inputs":[]}"#,
            r#"{"inputs":[[1,2],[3]]}"#,
            r#"{"inputs":[1,2]}"#,
        ] {
            assert!(scan(bad, Shape::Batch).is_none(), "scanned {bad}");
        }
        // Numbers outside RFC 8259's grammar fail both readers, so such a
        // body gets the tree's 400.
        for number in ["+1", ".5", "1.", "01", "00.25", "-.5e+3"] {
            let body = format!(r#"{{"inputs":[{number},2]}}"#);
            assert!(scan(&body, Shape::Single).is_none(), "scanned {body}");
            assert!(Json::parse(&body).is_err(), "parsed {body}");
        }
    }

    /// The wire bytes, pinned apart from the tree: `{:?}` numbers (an
    /// exponent from 1e16 up and below 1e-4, `-0.0`, `.0` on integers)
    /// and keys in the tree's order.
    #[test]
    fn prediction_bodies_are_pinned() {
        // The third row: 2^-25 and 1658206780088562.25 lie exactly halfway
        // between two shortest candidates, and `{:?}` rounds both up;
        // 0.04105526295482766 is one of the values core's fast path
        // hands to its exact fallback.
        let rows = [
            vec![1e16, 1e-5, -0.0, 3.0],
            vec![0.0001, 5e-324, -1.7976931348623157e308, 123456.789],
            vec![
                1.0 / 33554432.0,
                1658206780088562.0 + 0.25,
                0.04105526295482766,
                0.1,
            ],
        ];
        assert_eq!(
            write_request(Shape::Batch, rows.iter().map(Vec::as_slice), Some(250)),
            r#"{"deadline_ms":250.0,"inputs":[[1e16,1e-5,-0.0,3.0],[0.0001,5e-324,-1.7976931348623157e308,123456.789],[2.9802322387695313e-8,1658206780088562.3,0.04105526295482766,0.1]]}"#
        );
        assert_eq!(
            write_request(Shape::Single, [rows[0].as_slice()], None),
            r#"{"inputs":[1e16,1e-5,-0.0,3.0]}"#
        );
        let names = ["a\"b".to_string(), "é\u{1}".to_string()];
        let answer = Answer {
            degraded: true,
            generation: 3,
            model: "linear-baseline",
            output_names: &names,
            replica: 1,
        };
        let outputs = Matrix::from_vec(1, 2, vec![9999999999999998.0, f64::NAN]).unwrap();
        assert_eq!(
            write_answer(Shape::Batch, &answer, &outputs),
            r#"{"degraded":true,"generation":3.0,"model":"linear-baseline","output_names":["a\"b","é\u0001"],"outputs":[[9999999999999998.0,null]],"replica":1.0,"rows":1.0}"#
        );
        assert_eq!(
            write_answer(Shape::Single, &answer, &outputs),
            r#"{"degraded":true,"generation":3.0,"model":"linear-baseline","output_names":["a\"b","é\u0001"],"outputs":[9999999999999998.0,null],"replica":1.0}"#
        );
    }

    /// A number token of every shape the reader sees: a value as the
    /// writer, `{:e}` or `{:.Ne}` prints it (non-finite ones as `inf` and
    /// `NaN`), a digit string of up to 25 digits with leading zeros, a
    /// point and an exponent, or text off the one-pass reader's form.
    fn number_token(g: &mut propcheck::Gen) -> String {
        const OFF_FORM: [&str; 16] = [
            ".5", "5.", "+1", "-", "--1", "1e", "1e+", "1E-", "1.2.3", "1..2", "-.5", "0x1",
            "1e5e5", "1-2", "", "١",
        ];
        let mut out = String::new();
        let value = match g.usize_in(0, 8) {
            0 => f64::from_bits(g.u64()),
            _ => testgen::finite(g),
        };
        match g.usize_in(0, 6) {
            0 => {
                let _ = write_f64(&mut out, value);
            }
            1 => out = format!("{value:e}"),
            2 => out = format!("{value:.*e}", g.usize_in(0, 25)),
            3 | 4 => {
                if g.usize_in(0, 2) == 0 {
                    out.push('-');
                }
                let start = out.len();
                let count = g.usize_in(1, 26);
                for _ in 0..count {
                    out.push(char::from(b'0' + g.usize_in(0, 10) as u8));
                }
                if count > 1 && g.usize_in(0, 2) == 0 {
                    out.insert(start + g.usize_in(1, count), '.');
                }
                if g.usize_in(0, 2) == 0 {
                    let exponent = g.usize_in(0, 801) as i32 - 400;
                    out.push_str(&format!("{}{exponent}", g.pick(&["e", "E"])));
                }
            }
            _ => out.push_str(OFF_FORM[g.usize_in(0, OFF_FORM.len())]),
        }
        out
    }

    /// The one-pass `parse_number` consumes the bytes the token scan
    /// consumes and returns the same bits or the same error text, for
    /// numbers of every shape followed by each byte that can end one in
    /// a body, and by the end of input.
    #[test]
    fn one_pass_numbers_read_as_the_token_scan_reads_them() {
        propcheck::run_cases(1 << 13, |g| {
            let token = number_token(g);
            for end in ["", ",", "]", "}", " ", "\n", ".5", "e", "-1", "x"] {
                let text = format!("{token}{end}");
                let (mut ours, mut oracle) = (0, 0);
                let got = parse_number(text.as_bytes(), &mut ours);
                let want = parse_number_token(text.as_bytes(), &mut oracle);
                assert_eq!(ours, oracle, "{text:?}");
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{text:?}"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{text:?}"),
                    (a, b) => panic!("{text:?}: {a:?}, token scan {b:?}"),
                }
            }
        });
    }

    /// The tree of `fields`, as `Json` prints a prediction body.
    fn tree(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn tree_rows(shape: Shape, rows: &[Vec<f64>]) -> Json {
        match shape {
            Shape::Single => Json::nums(&rows[0]),
            Shape::Batch => Json::Arr(rows.iter().map(|row| Json::nums(row)).collect()),
        }
    }

    /// Differential: both writers print exactly what the tree prints,
    /// for rows holding the edges of `{:?}`, integers, arbitrary bits and
    /// non-finite values, and for names needing every kind of escape.
    #[test]
    fn prediction_writers_match_the_tree_byte_for_byte() {
        propcheck::run_cases(1024, |g| {
            let shape = *g.pick(&[Shape::Single, Shape::Batch]);
            let width = g.usize_in(0, 6);
            let count = match shape {
                Shape::Single => 1,
                Shape::Batch => g.usize_in(0, 6),
            };
            let rows: Vec<Vec<f64>> = (0..count)
                .map(|_| {
                    (0..width)
                        .map(|_| match g.usize_in(0, 12) {
                            0 => *g.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
                            _ => testgen::finite(g),
                        })
                        .collect()
                })
                .collect();

            let deadline_ms = match g.usize_in(0, 3) {
                0 => None,
                1 => Some(g.u64_in(1, 3_600_001)),
                _ => Some(g.u64()),
            };
            let mut fields = vec![("inputs", tree_rows(shape, &rows))];
            if let Some(ms) = deadline_ms {
                fields.push(("deadline_ms", Json::Num(ms as f64)));
            }
            assert_eq!(
                write_request(shape, rows.iter().map(Vec::as_slice), deadline_ms),
                tree(fields).to_string()
            );

            let names: Vec<String> = (0..g.usize_in(0, 5)).map(|_| testgen::text(g)).collect();
            let model = match g.usize_in(0, 3) {
                0 => "mlp".to_string(),
                1 => "linear-baseline".to_string(),
                _ => testgen::text(g),
            };
            let answer = Answer {
                degraded: g.usize_in(0, 2) == 1,
                generation: g.u64(),
                model: &model,
                output_names: &names,
                replica: g.u64_in(0, 64),
            };
            let flat: Vec<f64> = rows.concat();
            let outputs = Matrix::from_vec(count, width, flat).unwrap();
            let mut fields = vec![
                (
                    "output_names",
                    Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()),
                ),
                ("degraded", Json::Bool(answer.degraded)),
                ("model", Json::Str(model.clone())),
                ("generation", Json::Num(answer.generation as f64)),
                ("replica", Json::Num(answer.replica as f64)),
                ("outputs", tree_rows(shape, &rows)),
            ];
            if shape == Shape::Batch {
                fields.push(("rows", Json::Num(count as f64)));
            }
            assert_eq!(
                write_answer(shape, &answer, &outputs),
                tree(fields).to_string()
            );
        });
    }
}
