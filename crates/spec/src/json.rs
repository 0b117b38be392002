//! A minimal JSON tree: emitter *and* parser.
//!
//! The workspace has no serialization framework, so serialization is
//! explicit. This module provides the subset the declarative spec API
//! needs: a [`JsonValue`] tree with a spec-conformant `Display` (string
//! escaping, non-finite numbers as `null`), typed accessors, and a
//! hand-written recursive-descent [`parse`]r with positioned
//! [`JsonError`] diagnostics.
//!
//! Number round-trip note: `Display` for `f64` uses Rust's shortest
//! round-trippable representation, and [`parse`] reads numbers back with
//! `str::parse`, so `value -> render -> parse` reproduces every finite
//! float bit-for-bit. Non-negative integers without a fraction or exponent
//! parse as [`JsonValue::UInt`]; [`JsonValue::as_f64`] accepts both, which
//! is what keeps integer-valued floats (e.g. a 140 GB/s bandwidth) stable
//! through a round trip.

use std::fmt;

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The boolean payload, if this is a `Bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The unsigned-integer payload, if this is a `UInt`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (`UInt` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Human-readable name of the value's type, for diagnostics.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::UInt(_) | JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::UInt(n) => write!(f, "{n}"),
            JsonValue::Num(x) if x.is_finite() => write!(f, "{x}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
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

/// A positioned JSON syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (in bytes) of the offending byte.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Nesting deeper than this is rejected (guards the recursive parser's
/// stack against adversarial input).
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the line/column of the first offending
/// byte: truncated documents, bad escapes, malformed numbers, duplicate
/// structure characters, trailing garbage, or nesting beyond 128 levels.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_whitespace();
    let value = p.value(0)?;
    p.skip_whitespace();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{}`, found {}",
                b as char,
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("`{}`", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".to_owned(),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input (truncated document)")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error(format!("unexpected {}", self.describe_here()))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `]` in array, found {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error(format!(
                    "expected a string key, found {}",
                    self.describe_here()
                )));
            }
            let key = self.string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `}}` in object, found {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run stops at an ASCII
                // boundary byte, so the slice is valid UTF-8 too.
                match std::str::from_utf8(&self.bytes[start..self.pos]) {
                    Ok(run) => out.push_str(run),
                    Err(_) => return Err(self.error("invalid utf-8 inside string")),
                }
            }
            match self.peek() {
                None => return Err(self.error("unterminated string (truncated document)")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape sequence"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate escape"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate escape"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("unpaired surrogate escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.error(format!(
                                "bad escape `\\{}`",
                                if other.is_ascii_graphic() {
                                    (other as char).to_string()
                                } else {
                                    format!("x{other:02x}")
                                }
                            )))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => unreachable!("run loop stops only at boundary bytes"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| {
                self.error(format!("bad hex digit `{}` in \\u escape", b as char))
            })?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let mut fractional = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0'..=b'9') => {}
            _ => return Err(self.error("malformed number (digit expected)")),
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("malformed number (digit expected after `.`)"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("malformed number (digit expected in exponent)"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(text) => text,
            Err(_) => return Err(self.error("malformed number (non-ascii byte)")),
        };
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::Num(x)),
            _ => Err(self.error(format!("number `{text}` out of range"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_arrays_and_objects() {
        let v = JsonValue::Object(vec![
            ("a".to_owned(), JsonValue::UInt(3)),
            ("b".to_owned(), JsonValue::Num(0.5)),
            ("c".to_owned(), JsonValue::Bool(true)),
            (
                "d".to_owned(),
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Str("x".to_owned())]),
            ),
        ]);
        assert_eq!(v.to_string(), r#"{"a":3,"b":0.5,"c":true,"d":[null,"x"]}"#);
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        let v = JsonValue::Array(vec![
            JsonValue::Str("a\"b\\c\nd\u{1}".to_owned()),
            JsonValue::Num(f64::NAN),
            JsonValue::Num(f64::INFINITY),
        ]);
        assert_eq!(v.to_string(), "[\"a\\\"b\\\\c\\nd\\u0001\",null,null]");
    }

    #[test]
    fn parses_what_it_renders() {
        let v = JsonValue::Object(vec![
            ("name".to_owned(), JsonValue::Str("π \"x\" \\\n".to_owned())),
            ("count".to_owned(), JsonValue::UInt(18446744073709551615)),
            ("scale".to_owned(), JsonValue::Num(2.2)),
            ("tiny".to_owned(), JsonValue::Num(8.0e-6)),
            ("big".to_owned(), JsonValue::Num(140.0e9)),
            ("on".to_owned(), JsonValue::Bool(false)),
            ("none".to_owned(), JsonValue::Null),
            (
                "list".to_owned(),
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::Num(-0.25)]),
            ),
        ]);
        let parsed = parse(&v.to_string()).unwrap();
        // Integer-valued floats come back as UInt; compare through as_f64.
        assert_eq!(parsed.get("big").unwrap().as_f64(), Some(140.0e9));
        assert_eq!(parsed.get("scale").unwrap().as_f64(), Some(2.2));
        assert_eq!(parsed.get("tiny").unwrap().as_f64(), Some(8.0e-6));
        assert_eq!(
            parsed.get("count").unwrap().as_u64(),
            Some(18446744073709551615)
        );
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("π \"x\" \\\n"));
        assert_eq!(parsed.get("list").unwrap().as_array().unwrap().len(), 2);
        // Re-rendering the parsed tree reproduces the non-float fields and
        // every float byte-for-byte (shortest-repr round trip).
        assert_eq!(parse(&parsed.to_string()).unwrap(), parsed);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse(r#""é😀\t""#).unwrap(),
            JsonValue::Str("é😀\t".to_owned())
        );
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents_with_positions() {
        for (text, needle) in [
            ("", "truncated"),
            ("{\"a\":", "truncated"),
            ("[1,2", "expected `,` or `]`"),
            ("{\"a\" 1}", "expected `:`"),
            ("\"ab", "unterminated string"),
            ("\"a\\q\"", "bad escape"),
            ("01x", "trailing"),
            ("1.", "digit expected after `.`"),
            ("1e", "digit expected in exponent"),
            ("nul", "invalid literal"),
            ("{\"a\":1}extra", "trailing"),
            ("{1:2}", "string key"),
            ("1e999", "out of range"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "`{text}` -> {err} (wanted `{needle}`)"
            );
        }
        let err = parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!((err.line, err.column), (2, 8), "{err}");
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        assert_eq!(parse("-3").unwrap(), JsonValue::Num(-3.0));
        assert_eq!(parse("2e3").unwrap(), JsonValue::Num(2000.0));
        assert_eq!(parse("42").unwrap(), JsonValue::UInt(42));
    }
}
