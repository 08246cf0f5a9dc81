//! A minimal, dependency-free JSON codec.
//!
//! The build environment has no registry access, so instead of `serde` /
//! `serde_json` the workspace ships this small value-tree codec. It exists
//! for the *reproducer artifacts* of the synthesis subsystem: shrunk
//! (program, schedule, seed) triples are serialized to JSON files in
//! `corpus/` and replayed by `cargo test`, so the encoding must be
//! self-contained, stable, and round-trip **exactly** — in particular for
//! full-range `u64` seeds and memory words, which is why integers get their
//! own variant instead of being squeezed through `f64` (where values above
//! 2⁵³ would silently lose bits).
//!
//! Supported surface: objects, arrays, strings (with the standard escapes),
//! `u64` integers, finite floats, booleans, and `null`. That is exactly the
//! shape of the artifacts this workspace writes; it is not a
//! general-purpose JSON library (no arbitrary-precision numbers, no
//! surrogate-pair escapes).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number (negative, fractional, or exponent form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

/// A parse or access error, with the byte offset where parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for access errors).
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>, at: usize) -> Result<T, JsonError> {
    Err(JsonError {
        msg: msg.into(),
        at,
    })
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return err("trailing characters after document", pos);
        }
        Ok(v)
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Render with two-space indentation (committed artifacts are diffed by
    /// humans).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => render_u64(*u, out),
            Json::Num(x) => render_f64(*x, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            // One push for any depth a record reaches.
            const SPACES: &str = "                                ";
            let mut width = 2 * d;
            while width > 0 {
                let chunk = width.min(SPACES.len());
                out.push_str(&SPACES[..chunk]);
                width -= chunk;
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line; arrays of containers
                // get one element per line.
                let nested = items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)));
                if !nested {
                    self.render_into(out);
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_pretty_into(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            _ => self.render_into(out),
        }
    }

    /// The value as `u64` (accepts `UInt`, and integral non-negative `Num`
    /// below 2⁵³).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < (1u64 << 53) as f64 => {
                Ok(*x as u64)
            }
            other => err(format!("expected unsigned integer, got {other:?}"), 0),
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let u = self.as_u64()?;
        usize::try_from(u).map_err(|_| JsonError {
            msg: format!("{u} does not fit usize"),
            at: 0,
        })
    }

    /// The value as `f64` (accepts `Num` and `UInt`).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::UInt(u) => Ok(*u as f64),
            other => err(format!("expected number, got {other:?}"), 0),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}"), 0),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(a) => Ok(a),
            other => err(format!("expected array, got {other:?}"), 0),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError {
                    msg: format!("missing field {key:?}"),
                    at: 0,
                }),
            other => err(format!("expected object with {key:?}, got {other:?}"), 0),
        }
    }

    /// Object field lookup that tolerates absence.
    pub fn get_opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Decimal digits of `u`, without the `fmt` machinery (records are
/// mostly small integers).
fn render_u64(mut u: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

fn render_f64(x: f64, out: &mut String) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    if x == x.trunc() && x.abs() < 1e15 {
        // Keep a fractional marker so the value re-parses as Num when
        // negative; non-negative integral floats legitimately collapse to
        // UInt on re-parse (as_f64 accepts both).
        let _ = write!(out, "{x:.1}");
    } else {
        // 17 significant digits round-trip every finite f64.
        let mut s = format!("{x:.17e}");
        if let Ok(back) = s.parse::<f64>() {
            if back == x {
                let short = format!("{x}");
                if short.parse::<f64>() == Ok(x) {
                    s = short;
                }
            }
        }
        let _ = write!(out, "{s}");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the unescaped runs
    // between them start and end on char boundaries: copy each run whole.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return err("unexpected end of input", *pos);
    };
    match c {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => err(format!("unexpected character {:?}", c as char), *pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("expected {lit}"), *pos)
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    // Fast path: a plain run of digits that fits u64.
    let mut u = 0u64;
    while let Some(&d @ b'0'..=b'9') = b.get(*pos) {
        match u
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(d - b'0')))
        {
            Some(v) => u = v,
            None => break,
        }
        *pos += 1;
    }
    if *pos > start && !matches!(b.get(*pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
        return Ok(Json::UInt(u));
    }
    *pos = start;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    let mut integral = true;
    if b.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    if integral && !text.starts_with('-') {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => err(format!("invalid number {text:?}"), start),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape in one piece (both
        // delimiters are ASCII, so the run is whole UTF-8 characters).
        let run = *pos;
        while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
            *pos += 1;
        }
        if *pos > run {
            out.push_str(std::str::from_utf8(&b[run..*pos]).map_err(|_| JsonError {
                msg: "invalid utf-8 in string".into(),
                at: run,
            })?);
        }
        let Some(&c) = b.get(*pos) else {
            return err("unterminated string", *pos);
        };
        *pos += 1;
        if c == b'"' {
            return Ok(out);
        }
        // `c` was the backslash of an escape.
        let Some(&e) = b.get(*pos) else {
            return err("unterminated escape", *pos);
        };
        *pos += 1;
        match e {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                if *pos + 4 > b.len() {
                    return err("truncated \\u escape", *pos);
                }
                let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                    .map_err(|_| JsonError {
                        msg: "non-ascii \\u escape".into(),
                        at: *pos,
                    })?
                    .to_string();
                let code = u32::from_str_radix(&hex, 16).map_err(|_| JsonError {
                    msg: format!("bad \\u escape {hex:?}"),
                    at: *pos,
                })?;
                *pos += 4;
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return err("surrogate \\u escape unsupported", *pos),
                }
            }
            _ => return err(format!("unknown escape \\{}", e as char), *pos),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return err("expected ',' or ']'", *pos),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return err("expected object key", *pos);
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return err("expected ':'", *pos);
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return err("expected ',' or '}'", *pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::UInt(0)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("\"hi\\n\\\"there\\\"\"", Json::Str("hi\n\"there\"".into())),
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed, v, "{text}");
            assert_eq!(Json::parse(&parsed.render()).unwrap(), v);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // The whole reason UInt exists: 2^53+1 is not representable in f64.
        let big = (1u64 << 53) + 1;
        let j = Json::UInt(big);
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back.as_u64().unwrap(), big);
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.25, -1.5, 16.75, 1e-9, 123456.789] {
            let j = Json::Num(x);
            let back = Json::parse(&j.render()).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "{x}");
        }
        // Integral non-negative floats may re-parse as UInt; as_f64 accepts.
        let j = Json::parse(&Json::Num(16.0).render()).unwrap();
        assert_eq!(j.as_f64().unwrap(), 16.0);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("p".into())),
            (
                "steps".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Null, Json::UInt(3)]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("frac".into(), Json::Num(0.125)),
        ]);
        let compact = Json::parse(&v.render()).unwrap();
        let pretty = Json::parse(&v.render_pretty()).unwrap();
        assert_eq!(compact, v);
        assert_eq!(pretty, v);
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "p");
        assert_eq!(v.get("steps").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_err());
        assert!(v.get_opt("frac").is_some());
    }

    #[test]
    fn unicode_and_whitespace() {
        let v = Json::parse(" { \"k\" : \"héllo ∑\" , \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), "héllo ∑");
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn errors_carry_positions() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("[1, x]").unwrap_err();
        assert!(e.at > 0);
        assert!(!e.to_string().is_empty());
    }
}
