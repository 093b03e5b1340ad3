//! The workspace's one JSON codec: a strict reader, a compact writer and
//! a pretty writer over one [`Value`] tree.
//!
//! Every number Clara reports leaves the process as JSON through this
//! module: the serve wire, telemetry reports, Chrome traces,
//! flight-recorder dumps, `clara validate -o`, sweep checkpoints and the
//! `BENCH_*.json` files. The workspace takes no serde dependency, so the
//! codec is std-only and small.
//!
//! **Reading.** Requests arrive as attacker-controllable bytes, so the
//! parser's contract is strict: [`parse`] returns `Err` on anything
//! malformed and never panics, recurses without bound, or allocates
//! proportionally to a claimed (rather than actual) length. Frame size
//! is capped upstream by the serve codec; nesting depth is capped here.
//!
//! **Numbers.** A literal of decimal digits alone that fits a `u64`
//! reads as [`Value::UInt`], exactly; every other number reads as
//! [`Value::Num`], an `f64`. The writers render `UInt` in decimal and
//! `Num` through [`num`] (`{:?}`), which round-trips every finite double
//! exactly through `str::parse`, so a prediction forwarded over the wire
//! stays bit-identical to the in-process value (the chaos test depends
//! on this) and a `u64` counter reads back exactly up to `u64::MAX`.
//! JSON has no NaN or Infinity: a non-finite `Num` is written `null`.
//!
//! **Objects** are `BTreeMap`s, so keys are written sorted and, when a
//! document repeats a key, the last value wins.
//!
//! **Layouts.** [`Value::to_json`] is compact (the wire, JSONL lines,
//! checkpoint cells); [`Value::to_json_pretty`] writes one member per
//! line with a two-space indent and `"key": value`, the form of every
//! JSON file Clara writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]. Protocol requests are
/// at most 3 deep; 32 leaves headroom without letting `[[[[...` recurse
/// to a stack overflow.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Any number that is not a plain unsigned integer literal.
    Num(f64),
    /// An unsigned integer, exact over the whole `u64` range.
    UInt(u64),
    Str(String),
    Arr(Vec<Value>),
    /// Object keys are sorted (BTreeMap) so serialization is canonical.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Any number as an `f64` (a `UInt` above 2^53 rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// A number that is a non-negative integer: a `UInt` exactly, or an
    /// integral `Num` up to 2^53 (beyond it a double is not exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && *n <= 9_007_199_254_740_992.0 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact JSON: no whitespace between tokens.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty JSON, newline-terminated: one member or element per line,
    /// a two-space indent per level, `"key": value`; empty containers
    /// stay `{}` and `[]`.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Append this value; `indent` is the current depth when pretty.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Value::Obj(map) => {
                write_members(out, indent, ['{', '}'], map.iter().map(|(k, v)| (Some(k), v)))
            }
        }
    }
}

/// Append a container's members between `brackets`, keyed for objects.
fn write_members<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    members: impl Iterator<Item = (Option<&'a String>, &'a Value)>,
) {
    out.push(brackets[0]);
    let inner = indent.map(|depth| depth + 1);
    let mut any = false;
    for (key, value) in members {
        if any {
            out.push(',');
        }
        any = true;
        if let Some(depth) = inner {
            newline(out, depth);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let (Some(depth), true) = (indent, any) {
        newline(out, depth);
    }
    out.push(brackets[1]);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append `s` as a JSON string literal: quotes, backslashes and every
/// control character escaped.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render an `f64` as the writers do: `{:?}` round-trips finite doubles
/// exactly; non-finite values become `null`.
pub fn num(v: f64) -> String {
    Value::Num(v).to_json()
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    let mut digits_only = true;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        digits_only &= bytes[*pos].is_ascii_digit();
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a value at byte {start}"));
    }
    // The slice is pure ASCII by construction, so from_utf8 can't fail.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    if digits_only {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
    }
    let n: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number `{text}`"));
    }
    Ok(Value::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates (paired or lone) are not worth
                        // supporting in a machine protocol: reject.
                        let c = char::from_u32(code).ok_or("surrogate \\u escape")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("control byte in string at {pos}")),
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // byte. Those are ASCII, so the run ends on a character
                // boundary of the (valid UTF-8) input, and each byte is
                // validated once.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8")?;
                out.push_str(run);
            }
        }
    }
}

/// Convenience: an object builder that keeps call sites readable.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    map: BTreeMap<String, Value>,
}

impl ObjBuilder {
    pub fn new() -> Self {
        ObjBuilder::default()
    }

    pub fn put(mut self, key: &str, value: Value) -> Self {
        self.map.insert(key.to_string(), value);
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.put(key, Value::Str(value.to_string()))
    }

    /// An `f64` member; a non-finite value is stored (and written) as
    /// `null`.
    pub fn num(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            self.put(key, Value::Num(value))
        } else {
            self.put(key, Value::Null)
        }
    }

    /// An exact unsigned-integer member.
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.put(key, Value::UInt(value))
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.put(key, Value::Bool(value))
    }

    pub fn build(self) -> Value {
        Value::Obj(self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let v = parse(r#"{"op":"predict","nf":"nat","rate_pps":6e4,"deadline_ms":250}"#).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("predict"));
        assert_eq!(v.get("rate_pps").and_then(Value::as_f64), Some(60_000.0));
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(250));
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"", "{\"a\":}", "[1,]", "tru", "nul", "1e999",
            "{\"a\":1}x", "\"\\u12\"", "\"\\ud800\"", "--3", "+", "\u{7f}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, f64::MIN_POSITIVE, -0.0] {
            let text = num(v);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn u64_round_trips_exactly() {
        // 2^53 + 1 is the first integer a double cannot hold.
        for v in [0, 4_000, (1u64 << 53) + 1, u64::MAX] {
            let text = ObjBuilder::new().uint("n", v).build().to_json();
            let back = parse(&text).unwrap().get("n").and_then(Value::as_u64);
            assert_eq!(back, Some(v), "{text}");
        }
        assert_eq!(ObjBuilder::new().uint("n", 4_000).build().to_json(), r#"{"n":4000}"#);
    }

    #[test]
    fn integer_literals_read_exactly_and_integral_floats_as_integers() {
        assert_eq!(parse("9007199254740993").unwrap(), Value::UInt((1 << 53) + 1));
        assert_eq!(parse("1000.0").unwrap().as_u64(), Some(1_000));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1_000));
        for not_u64 in ["1.5", "-5", "1e20", "\"1000\"", "true"] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        assert_eq!(parse("18446744073709551616").unwrap(), Value::Num(18_446_744_073_709_551_616.0));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A frame may carry up to 1 MiB of untrusted text, so a string
        // must parse in time linear in its length.
        let long = "é".repeat(128 * 1024);
        let text = Value::Str(long.clone()).to_json();
        let started = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), Value::Str(long));
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "256 KiB string took {took:?}");
    }

    #[test]
    fn serialization_round_trips() {
        let v = ObjBuilder::new()
            .str("op", "ping")
            .num("x", 1.5)
            .uint("n", 7)
            .bool("ok", true)
            .put("list", Value::Arr(vec![Value::Num(1.0), Value::Null]))
            .build();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.5), "2.5");
        assert_eq!(Value::Num(f64::NEG_INFINITY).to_json(), "null");
        assert_eq!(ObjBuilder::new().num("x", f64::NAN).build(), ObjBuilder::new().put("x", Value::Null).build());
    }

    #[test]
    fn pretty_layout_indents_two_spaces_per_level() {
        let v = ObjBuilder::new()
            .uint("b", 1)
            .put("a", Value::Arr(vec![Value::Bool(true), ObjBuilder::new().build()]))
            .put("c", Value::Arr(Vec::new()))
            .build();
        assert_eq!(
            v.to_json_pretty(),
            "{\n  \"a\": [\n    true,\n    {}\n  ],\n  \"b\": 1,\n  \"c\": []\n}\n"
        );
        assert_eq!(v.to_json(), r#"{"a":[true,{}],"b":1,"c":[]}"#);
    }

    #[test]
    fn escapes_control_and_quote_bytes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\r\u{01}");
        assert_eq!(out, r#""a\"b\\c\nd\te\r\u0001""#);
        // Every control char, a quote and a backslash read back intact.
        let nasty: String = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        let v = Value::Str(nasty);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
