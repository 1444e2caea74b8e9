//! A minimal JSON value, writer, and validating parser.
//!
//! The observability layer exports Chrome Trace Event files and metric
//! snapshots as JSON. The repository builds hermetically (no external
//! crates), so this module provides the small subset of JSON needed:
//! a [`Json`] tree, a compact serializer with correct string escaping
//! and float formatting, and [`validate`] — a strict recursive-descent
//! parser used by tests to prove emitted files are well-formed.

use std::collections::BTreeMap;
use std::io::Write as _;

/// A JSON value. Object keys are kept sorted (`BTreeMap`) so output is
/// deterministic across runs — important for diffable artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (serialized without a decimal point).
    Int(i64),
    /// Unsigned integer number (counters can exceed `i64`).
    UInt(u64),
    /// Floating-point number. Non-finite values serialize as `null`,
    /// matching what browsers' `JSON.stringify` does.
    Float(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Fetches a member of an object, or `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements of an array, or `None` for other variants.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64` (ints and floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, None, 0);
        into_string(out)
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(2), 0);
        into_string(out)
    }

    /// Appends the compact serialization to `out` — the bytes of
    /// [`Json::to_string_compact`], without a fresh buffer.
    pub(crate) fn write_compact(&self, out: &mut Vec<u8>) {
        self.write(out, None, 0);
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Int(i) => write_i64(out, *i),
            Json::UInt(u) => write_u64(out, *u),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(b']');
            }
            Json::Object(members) => {
                out.push(b'{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(b'}');
            }
        }
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push(b'\n');
        out.resize(out.len() + w * depth, b' ');
    }
}

/// The finished document. The helpers below append only ASCII, whole
/// `&str` slices and whole characters, so the bytes are always UTF-8
/// and this never fails.
pub(crate) fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the JSON writers emit only ASCII and whole strings")
}

/// `"00" "01" … "99"`: two decimal digits per table entry, so
/// [`put_u64`] divides by 100 instead of 10. Core's integer `Display`
/// does the same, but reaching it through `write!` costs a formatter
/// call per integer, and integers are most of a run record's bytes.
/// Ordering and writing the canonical JSON (the `obs.json` layer) is
/// about 41% of `observed_suite`'s traced wall (EXPERIMENTS.md,
/// "Observed records in linear passes").
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes the decimal digits of `v` to the front of `dst` and returns
/// how many it wrote. This is the one integer formatting rule: [`Json`],
/// the Chrome trace and the run-record writer all reach it, through
/// [`write_u64`] or, for a row formatted in place, directly, so the
/// outputs cannot drift.
///
/// # Panics
///
/// Panics if `dst` is shorter than the digits (at most 20).
pub(crate) fn put_u64(dst: &mut [u8], mut v: u64) -> usize {
    let len = v.checked_ilog10().map_or(1, |l| l as usize + 1);
    let digits = &mut dst[..len];
    let mut i = len;
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    // One or two digits remain, and `i` is their count.
    if v >= 10 {
        let d = v as usize * 2;
        digits[..2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        digits[0] = b'0' + v as u8;
    }
    len
}

/// Appends the decimal digits of `v` (see [`put_u64`]).
pub(crate) fn write_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let n = put_u64(&mut buf, v);
    out.extend_from_slice(&buf[..n]);
}

/// Appends the decimal digits of `v`, with a leading `-` when negative.
fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends `f` in shortest round-trip form. Whole values below 1e15
/// keep a `.0` so readers see a float; non-finite values become
/// `null`, matching what browsers' `JSON.stringify` does.
pub(crate) fn write_f64(out: &mut Vec<u8>, f: f64) {
    if !f.is_finite() {
        out.extend_from_slice(b"null");
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

/// Appends `s` as a quoted JSON string. Strings with nothing to escape
/// (every label and key the simulator emits) are copied in one piece.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.extend_from_slice(s.as_bytes());
    } else {
        for c in s.chars() {
            match c {
                '"' => out.extend_from_slice(b"\\\""),
                '\\' => out.extend_from_slice(b"\\\\"),
                '\n' => out.extend_from_slice(b"\\n"),
                '\r' => out.extend_from_slice(b"\\r"),
                '\t' => out.extend_from_slice(b"\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
            }
        }
    }
    out.push(b'"');
}

/// Parses `text` as a single JSON document, returning the value tree.
///
/// Strict: rejects trailing garbage, unterminated strings, bare words.
/// Used by the test suite to assert that every emitted artifact is
/// well-formed JSON.
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the
/// first syntax error, of a container nested deeper than
/// [`MAX_DEPTH`], or of a duplicate object key.
pub fn validate(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest container nesting [`validate`] accepts. The parser recurses
/// once per level, so the cap keeps a hostile file from overflowing the
/// stack; every artifact the workspace writes nests fewer than ten deep.
pub const MAX_DEPTH: usize = 256;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            loop {
                skip_ws(b, pos);
                let key_at = *pos;
                let key = parse_string(b, pos)?;
                if members.contains_key(&key) {
                    return Err(format!("duplicate key {key:?} at byte {key_at}"));
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            b'\\' => {
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogates are rejected (the writer never emits them).
                        let ch = char::from_u32(cp).ok_or("surrogate in \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control character at byte {}", *pos - 1)),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number bytes")?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected value at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    } else if let Ok(i) = text.parse::<i64>() {
        Ok(Json::Int(i))
    } else if let Ok(u) = text.parse::<u64>() {
        Ok(Json::UInt(u))
    } else {
        // Beyond the integer types: a whole float the writer printed
        // without an exponent (1e300 is 301 digits).
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let v = Json::object([
            ("name", Json::str("bcast \"fast\"\npath")),
            ("count", Json::Int(-3)),
            ("big", Json::UInt(u64::MAX)),
            ("ratio", Json::Float(0.5)),
            ("items", Json::Array(vec![Json::Null, Json::Bool(true)])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(validate(&text).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert_eq!(validate(&pretty).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters() {
        let text = Json::str("a\u{1}b").to_string_compact();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(validate(&text).unwrap(), Json::str("a\u{1}b"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(Json::Float(3.0).to_string_compact(), "3.0");
        match validate("3.0").unwrap() {
            Json::Float(f) => assert_eq!(f, 3.0),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(validate("").is_err());
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("[1] trailing").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("{\"a\" 1}").is_err());
        assert!(validate("nul").is_err());
    }

    #[test]
    fn caps_nesting_depth_with_the_offset() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(validate(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = validate(&deep).expect_err("too deep");
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past the cap (objects too) is an error, not a stack overflow.
        let hostile = "{\"a\":".repeat(100_000);
        let err = validate(&hostile).expect_err("hostile nesting");
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn rejects_duplicate_keys_with_the_offset() {
        let err = validate(r#"{"a":1,"b":{"a":2},"a":3}"#).expect_err("duplicate");
        assert_eq!(err, "duplicate key \"a\" at byte 19");
        // The same key in sibling objects is fine.
        assert!(validate(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn scalar_helpers_match_std_formatting() {
        let mut pow = 1u64;
        let mut edges = vec![0, u64::MAX];
        while let Some(next) = pow.checked_mul(10) {
            edges.extend([pow - 1, pow, pow + 1]);
            pow = next;
        }
        edges.extend([pow - 1, pow, 12345, u64::from(u32::MAX) + 1]);
        for v in edges {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(into_string(out), v.to_string());
            let mut buf = [b'x'; 21];
            let n = put_u64(&mut buf, v);
            assert_eq!(&buf[..n], v.to_string().as_bytes());
            assert_eq!(buf[n], b'x', "writes only its digits");
        }
        for v in [i64::MIN, -100, -1, 0, 42, i64::MAX] {
            assert_eq!(Json::Int(v).to_string_compact(), v.to_string());
        }
        assert_eq!(Json::Float(-0.0).to_string_compact(), "-0.0");
        assert_eq!(Json::Float(1e15).to_string_compact(), "1000000000000000");
        assert_eq!(Json::Float(0.25).to_string_compact(), "0.25");
        assert_eq!(Json::str("é\"\\").to_string_compact(), "\"é\\\"\\\\\"");
    }

    #[test]
    fn compact_bytes_are_pinned() {
        // One literal for every scalar rule: escapes (quote, backslash,
        // newline, tab, a control character, multi-byte UTF-8), a
        // negative integer, a whole float, a non-finite float, `null`.
        let v = Json::object([
            ("text", Json::str("say \"hi\"\\\n\t\u{1}é")),
            ("neg", Json::Int(-42)),
            ("whole", Json::Float(3.0)),
            ("inf", Json::Float(f64::NEG_INFINITY)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"inf":null,"neg":-42,"none":null,"text":"say \"hi\"\\\n\t\u0001é","whole":3.0}"#
        );
    }

    #[test]
    fn huge_whole_floats_round_trip() {
        for f in [1e20, -1e300, f64::MAX] {
            let text = Json::Float(f).to_string_compact();
            assert_eq!(validate(&text).unwrap().as_f64(), Some(f), "{text}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = validate(r#"{"a":[1,2.5,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_f64(), Some(2.5));
    }
}
