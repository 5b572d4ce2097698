//! A minimal, serde-free JSON reader for the suite's own artifacts.
//!
//! The workspace is offline and dependency-free, so every tool that
//! consumes JSON — the campaign explorer and the Chrome-trace validator
//! in `bwap-bench` — reads documents through this one recursive-descent
//! parser instead of each shipping its own. The model is deliberately
//! small: a [`Json`] value tree with typed accessors; schema-specific
//! validation (missing fields, wrong types with helpful context) stays
//! in the tools.
//!
//! Numbers are parsed as `f64`, which is exact for the integer ranges
//! the repo's artifacts use (timestamps, page counts, event ids all stay
//! well below 2^53). Nesting is capped at [`MAX_DEPTH`] levels, so no
//! document can recurse the reader off the end of its stack.
//!
//! # Examples
//!
//! ```
//! use bwap_workloads::json::Json;
//! let v = Json::parse(r#"{"cells": [{"key": "w0", "ok": true}]}"#)?;
//! let cells = v.get("cells").and_then(Json::as_array).unwrap();
//! assert_eq!(cells[0].get("key").and_then(Json::as_str), Some("w0"));
//! # Ok::<(), bwap_workloads::json::JsonError>(())
//! ```

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The reader
/// recurses once per level, and a stack overflow aborts the process —
/// no caller can catch it — so a deeper document is a [`JsonError`]
/// instead. The repo's own documents nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: where it happened and what the reader expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the reader expected there.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The minimal JSON value model.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array of values.
    Array(Vec<Json>),
    /// An object as an ordered key/value list (duplicate keys kept;
    /// [`Json::get`] returns the first).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(v)
    }

    /// The object's field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// First value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Recursive-descent reader over the document bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &str) -> JsonError {
        JsonError { offset: self.pos, message: format!("expected {expected}") }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("{:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object_value),
            Some(b'[') => self.nested(Self::array_value),
            Some(b'"') => Ok(Json::String(self.string_value()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number_value(),
            _ => Err(self.err("a JSON value")),
        }
    }

    /// Read one array or object, one level deeper than the caller.
    fn nested(
        &mut self,
        read: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                offset: self.pos,
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(word))
        }
    }

    fn number_value(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.err("a number"))
    }

    /// Four hex digits starting at `at`, if present.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
    }

    fn string_value(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).ok_or_else(|| self.err("an escape"))?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| self.err("a \\uXXXX escape"))?;
                            self.pos += 4;
                            let scalar = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: valid JSON encodes
                                // non-BMP characters as a \uXXXX\uXXXX
                                // pair; combine it with the low half.
                                let low = (self.bytes.get(self.pos + 1..self.pos + 3)
                                    == Some(&br"\u"[..]))
                                .then(|| self.hex4(self.pos + 3))
                                .flatten()
                                .filter(|l| (0xdc00..0xe000).contains(l))
                                .ok_or_else(|| self.err("a low-surrogate \\uXXXX escape"))?;
                                self.pos += 6;
                                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                unit
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.err("a \\uXXXX escape"))?,
                            );
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("valid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array_value(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Array(items));
            }
            self.expect(b',')?;
        }
    }

    fn object_value(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string_value()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Object(fields));
            }
            self.expect(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_escapes_and_nesting() {
        let v = Json::parse(r#"{"a": ["\nA", {"b": true}, null, -1.5e2]}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0], Json::String("\nA".into()));
        assert_eq!(arr[1].get("b").and_then(Json::as_bool), Some(true));
        assert!(arr[2].is_null());
        assert_eq!(arr[3], Json::Number(-150.0));
    }

    #[test]
    fn unicode_escapes_including_surrogate_pairs() {
        // BMP escape, a surrogate-pair-encoded non-BMP character (🚀),
        // and raw UTF-8 all round-trip.
        let v = Json::parse("\"\\u00e9 \\ud83d\\ude80 é\"").unwrap();
        assert_eq!(v, Json::String("é 🚀 é".into()));
        // A lone high surrogate is not valid JSON.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_reports_offsets() {
        let err = Json::parse("{} trailing").unwrap_err();
        assert!(err.to_string().contains("end of document"), "{err}");
        let err = Json::parse("{\"name\": ").unwrap_err();
        assert_eq!(err.offset, 9);
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // Far past any stack: rejected at the cap, never recursed into.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"k\": ".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_keep_first_on_get() {
        let v = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.as_object().unwrap().len(), 2);
    }
}
