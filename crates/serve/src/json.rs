//! A minimal, allocation-light JSON reader for the serve protocol.
//!
//! The daemon cannot take a serde dependency, and the CLI's existing
//! JSON *writers* (checkpoints, telemetry) never needed a reader. The
//! protocol does: requests arrive as attacker-controllable bytes, so the
//! parser's contract is strict — it returns `Err` on anything malformed
//! and **never panics**, recurses unboundedly, or allocates
//! proportionally to a claimed (rather than actual) length. Frame size
//! is capped upstream by the codec, nesting depth is capped here.
//!
//! Numbers are held as `f64`. Replies serialize `f64` with `{:?}`,
//! which round-trips every finite double exactly through `str::parse`,
//! so a prediction forwarded over the wire stays bit-identical to the
//! in-process value (the chaos test depends on this).

use clara_telemetry::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted from the wire. Protocol requests are
/// at most 3 deep; 32 leaves headroom without letting `[[[[...` recurse
/// to a stack overflow.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
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

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member coerced to `u64`; rejects negatives, non-integers
    /// and values beyond 2^53 (not exactly representable).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
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

    /// Serialize back to compact JSON. Non-finite numbers become
    /// `null` (JSON has no NaN/Infinity).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&num(*n)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", json_escape(k));
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Render an `f64` for the wire: `{:?}` round-trips finite doubles
/// exactly; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
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
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a value at byte {start}"));
    }
    // The slice is pure ASCII by construction, so from_utf8 can't fail.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
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
                // Consume one full UTF-8 scalar (the input is a &str,
                // so boundaries are valid by construction).
                let rest = &bytes[*pos..];
                let text = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                let c = text.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
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

    pub fn num(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            self.put(key, Value::Num(value))
        } else {
            self.put(key, Value::Null)
        }
    }

    pub fn uint(self, key: &str, value: u64) -> Self {
        self.put(key, Value::Num(value as f64))
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
    use clara_predict::{CellSummary, Checkpoint};

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
    fn serialization_round_trips() {
        let v = ObjBuilder::new()
            .str("op", "ping")
            .num("x", 1.5)
            .bool("ok", true)
            .put("list", Value::Arr(vec![Value::Num(1.0), Value::Null]))
            .build();
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_control_and_quote_bytes() {
        // Every control char, a quote and a backslash, through the one
        // shared escaper, read back by both parsers in the workspace.
        let nasty: String = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        let v = Value::Str(nasty.clone());
        assert_eq!(v.to_json(), format!("\"{}\"", json_escape(&nasty)));
        assert_eq!(parse(&v.to_json()).unwrap(), v);

        let mut ck = Checkpoint::new();
        ck.insert(CellSummary {
            hash: 7,
            label: nasty.clone(),
            avg_latency_cycles: 1.0,
            avg_latency_ns: 1.0,
            throughput_pps: 1.0,
            energy_nj_per_packet: 1.0,
            bottleneck: nasty.clone(),
            quality: nasty.clone(),
        });
        let back = Checkpoint::parse(&ck.to_json());
        assert_eq!(back.get(7), ck.get(7));
    }
}
