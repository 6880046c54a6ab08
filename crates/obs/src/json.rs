//! The workspace's one JSON codec: a string escaper with a few map
//! writers, plus a minimal recursive-descent parser — enough to serialize
//! snapshots and events and to read request bodies, baselines and wire
//! documents without pulling serde into a zero-dependency crate.
//!
//! The parser is a small, strict RFC 8259 subset: no comments, no
//! trailing commas, `\uXXXX` escapes (including surrogate pairs), numbers
//! parsed as `f64`.

use std::collections::BTreeMap;
use std::fmt;

/// Appends the JSON string literal for `s` (quotes and escapes included)
/// to `out`. The escaping inverse of what [`parse_json`] accepts.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`write_json_string`] returning a fresh `String`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// `"key":` fragment.
pub fn write_key(out: &mut String, key: &str) {
    write_json_string(out, key);
    out.push(':');
}

/// Writes `{"k":v,...}` for string→u64 pairs in iteration order.
pub fn write_u64_map<'a, I: Iterator<Item = (&'a String, &'a u64)>>(out: &mut String, it: I) {
    out.push('{');
    for (i, (k, v)) in it.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, k);
        out.push_str(&v.to_string());
    }
    out.push('}');
}

/// Writes `{"k":v,...}` for string→i64 pairs in iteration order.
pub fn write_i64_map<'a, I: Iterator<Item = (&'a String, &'a i64)>>(out: &mut String, it: I) {
    out.push('{');
    for (i, (k, v)) in it.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, k);
        out.push_str(&v.to_string());
    }
    out.push('}');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    /// Object keys are kept sorted (last duplicate wins), making
    /// re-serialization canonical.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as a non-negative integer (floors; `None` for negatives,
    /// non-numbers, and non-finite values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if n.is_finite() && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|s| u16::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000
                                        + (((hi as u32) - 0xD800) << 10)
                                        + ((lo as u32) - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar (input is &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError { offset: start, message: "invalid number".to_string() })?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn maps_render_in_order() {
        let mut out = String::new();
        let pairs = [("a".to_string(), 1u64), ("b".to_string(), 2)];
        write_u64_map(&mut out, pairs.iter().map(|(k, v)| (k, v)));
        assert_eq!(out, "{\"a\":1,\"b\":2}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse_json("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse_json("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(|c| c.as_str()), Some("x"));
        let a = v.get("a").and_then(|a| a.as_array()).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA😀"));
        assert!(parse_json(r#""\uD800""#).is_err(), "unpaired surrogate rejected");
        assert!(parse_json(r#""\q""#).is_err(), "unknown escape rejected");
        let hostile = "tab\there \\ \"quoted\" \r\n\u{1}";
        assert_eq!(parse_json(&json_string(hostile)).unwrap().as_str(), Some(hostile));
    }

    /// Surrogate-escape edge cases: a high surrogate at end-of-string,
    /// followed by a non-`\u` escape, or standing alone must all produce a
    /// typed [`JsonError`] carrying the failure offset — never a panic,
    /// never a silent U+FFFD. A well-formed split pair round-trips to the
    /// astral scalar it encodes.
    #[test]
    fn surrogate_escapes_fail_typed_or_round_trip() {
        // Lone high surrogate, string ends right after it.
        let err = parse_json(r#""\uD800""#).unwrap_err();
        assert!(err.message.contains("unpaired high surrogate"), "{err}");
        assert!(err.offset > 0, "error carries a position: {err}");
        // High surrogate at hard EOF (unterminated string).
        let err = parse_json(r#""\uD800"#).unwrap_err();
        assert!(err.message.contains("surrogate") || err.message.contains("unterminated"), "{err}");
        // High surrogate followed by a non-\u escape.
        let err = parse_json(r#""\uD800\n""#).unwrap_err();
        assert!(err.message.contains("unpaired high surrogate"), "{err}");
        // High surrogate followed by a \u escape that is not a low half.
        let err = parse_json("\"\\uD800\\u0041\"").unwrap_err();
        assert!(err.message.contains("invalid low surrogate"), "{err}");
        // High surrogate followed by a plain character.
        let err = parse_json("\"\\uD800A\"").unwrap_err();
        assert!(err.message.contains("unpaired high surrogate"), "{err}");
        // Lone low surrogate.
        let err = parse_json(r#""\uDC00""#).unwrap_err();
        assert!(err.message.contains("unpaired surrogate"), "{err}");
        // A proper split pair decodes to the astral scalar and survives a
        // serialize → parse round trip.
        let v = parse_json(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let reserialized = json_string(v.as_str().unwrap());
        assert_eq!(parse_json(&reserialized).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "{\"a\":1,}", "[1 2]", "tru", "1 2", "{1:2}"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse_json("[1, @]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = parse_json(r#"{"n":-3,"s":"x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None, "negative is not a u64");
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_array(), None);
        assert!(v.as_object().is_some());
    }

    #[test]
    fn round_trips_snapshot_json() {
        let mut snap = crate::MetricsSnapshot::default();
        snap.counters.insert("a.b".into(), 3);
        snap.gauges.insert("g".into(), -1);
        let v = parse_json(&snap.to_json()).unwrap();
        assert_eq!(v.get("counters").unwrap().get("a.b").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("gauges").unwrap().get("g").unwrap().as_f64(), Some(-1.0));
    }
}
