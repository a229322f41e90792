//! Hand-rolled JSON encoding and decoding — no serde.
//!
//! The metrics crate ships its numbers across process boundaries (the
//! page server's `STATS` reply, experiment artifacts) as JSON. The
//! workspace builds offline with no serde available, so this module
//! provides the two pieces actually needed: an escape-correct object
//! writer ([`JsonObject`]) and a small recursive-descent parser
//! ([`JsonValue::parse`]) for consuming those replies in clients and
//! tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (quotes included).
pub fn escape_str_into(out: &mut String, s: &str) {
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

/// Append `v` to `out` as a JSON number. Non-finite values have no JSON
/// representation and are emitted as `null`.
pub fn write_f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is valid JSON for every
        // finite double ("25" for 25.0, "1e300", ...).
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for one JSON object: `{"k":v,...}`.
///
/// ```
/// use bpw_metrics::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_u64("count", 3).field_str("name", "zipf \"0.86\"");
/// assert_eq!(o.finish(), r#"{"count":3,"name":"zipf \"0.86\""}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) -> &mut Self {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        escape_str_into(&mut self.buf, k);
        self.buf.push(':');
        self
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field (`null` if non-finite).
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_f64_into(&mut self.buf, v);
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        escape_str_into(&mut self.buf, v);
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-rendered JSON (for nesting
    /// objects built elsewhere). The caller vouches for its validity.
    pub fn field_raw(&mut self, k: &str, raw_json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(raw_json);
        self
    }

    /// Close the object and return the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64; exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. BTreeMap keeps iteration deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

/// Error from [`JsonValue::parse`]: a message and the byte offset where
/// parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    JsonError {
                                        message: "truncated \\u escape".into(),
                                        offset: self.pos,
                                    }
                                })?;
                            let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                                message: "invalid \\u escape".into(),
                                offset: self.pos,
                            })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                                message: "invalid \\u escape".into(),
                                offset: self.pos,
                            })?;
                            // Surrogate pairs are not needed for metric
                            // payloads; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            _ => {
                self.pos = start;
                self.err(format!("invalid number `{text}`"))
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

impl JsonValue {
    /// Parse one JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters");
        }
        Ok(v)
    }

    /// Object member lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integral value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render back to JSON text. `parse(render(v)) == v` for every
    /// value this type can hold: numbers round-trip because integral
    /// values within the exact-f64 range print as integers and
    /// everything else uses shortest-roundtrip float formatting;
    /// object keys keep the `BTreeMap`'s deterministic order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => {
                if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    write_f64_into(out, *v);
                }
            }
            JsonValue::Str(s) => escape_str_into(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_str_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl crate::Histogram {
    /// Render this histogram's summary as a JSON object:
    /// `count`, `mean`, `max`, the `p50`/`p95`/`p99`/`p999` quantiles
    /// (all in the recorded unit), and `buckets` — the occupied
    /// buckets as `[lower_bound, count]` pairs so consumers can
    /// rebuild the full distribution, not just the summary.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("count", self.count())
            .field_f64("mean", self.mean())
            .field_u64("max", self.max())
            .field_u64("p50", self.quantile(0.50))
            .field_u64("p95", self.quantile(0.95))
            .field_u64("p99", self.quantile(0.99))
            .field_u64("p999", self.quantile(0.999))
            .field_raw("buckets", &self.buckets_to_json());
        o.finish()
    }

    /// The occupied buckets as a JSON array of `[lower_bound, count]`
    /// pairs (empty buckets are omitted; an empty histogram renders
    /// `[]`).
    fn buckets_to_json(&self) -> String {
        let mut out = String::from("[");
        let mut any = false;
        for (lower, _, count) in self.buckets() {
            if count == 0 {
                continue;
            }
            if any {
                out.push(',');
            }
            any = true;
            let _ = write!(out, "[{lower},{count}]");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut s = String::new();
        escape_str_into(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn object_builder_round_trips_through_parser() {
        let mut o = JsonObject::new();
        o.field_u64("n", 42)
            .field_f64("pi", 3.5)
            .field_str("name", "he said \"hi\"\n")
            .field_bool("ok", true)
            .field_f64("bad", f64::NAN)
            .field_raw("nested", r#"{"x":1}"#);
        let text = o.finish();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("pi").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("name").unwrap().as_str(), Some("he said \"hi\"\n"));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
        assert_eq!(v.get("nested").unwrap().get("x").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn parser_handles_arrays_numbers_and_whitespace() {
        let v = JsonValue::parse(" [1, -2.5, 1e3, \"x\", null, [true]] ").unwrap();
        let JsonValue::Arr(items) = &v else {
            panic!("not an array")
        };
        assert_eq!(items.len(), 6);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert_eq!(items[4], JsonValue::Null);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} x").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn parser_decodes_escapes() {
        let v = JsonValue::parse(r#""aA\n\"\\""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\"\\"));
    }

    #[test]
    fn histogram_json_has_ordered_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let v = JsonValue::parse(&h.to_json()).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(1000));
        let p50 = v.get("p50").unwrap().as_u64().unwrap();
        let p99 = v.get("p99").unwrap().as_u64().unwrap();
        let max = v.get("max").unwrap().as_u64().unwrap();
        assert!(p50 > 0 && p50 <= p99 && p99 <= max);
        assert_eq!(max, 1000);
    }

    #[test]
    fn empty_histogram_serializes_to_zeros() {
        let v = JsonValue::parse(&Histogram::new().to_json()).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("p99").unwrap().as_u64(), Some(0));
    }
}
