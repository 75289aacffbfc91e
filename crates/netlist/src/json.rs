//! The workspace's one JSON reader.
//!
//! Every JSON document R2D3 reads goes through [`parse`]: Yosys
//! `write_json` cores, snapshot bodies, wire lines and the telemetry
//! validators. It builds an order-preserving [`Value`] tree, decodes
//! every string escape of RFC 8259 and raw UTF-8, caps nesting at
//! [`MAX_DEPTH`] levels, and reports malformed text as a
//! [`SyntaxError`] carrying its line and byte position.
//!
//! Decoders read the tree through one set of required-field accessors
//! ([`Value::str`], [`Value::bool`], [`Value::arr`], [`Value::obj`],
//! [`Value::hex`], [`Value::int`] and their array forms), which share
//! one [`FieldError`] naming the field and what was wrong with it.
//! Integers are exact: plain decimal digits below 2^53, the range every
//! IEEE-double JSON reader agrees on. A count the reader would round or
//! saturate is an error, not a different number. Full-range `u64`s
//! (digests, seeds, RNG words, `f64` bit patterns) travel as hex
//! strings ([`hex_u64`]) instead.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// R2D3 writes nests 8 levels (a campaign state holding a shrunk
/// scenario) and Yosys cores nest 7; the cap keeps a hostile document
/// from overflowing the stack of the thread parsing it.
pub const MAX_DEPTH: usize = 64;

/// Exclusive bound of the exact-integer accessors: 2^53.
const EXACT_LIMIT: u64 = 1 << 53;

/// What [`Value::int`] and [`Value::ints`] accept, as their errors say.
const INT: &str = "an exact integer in 0..2^53";

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text so integer reads are exact.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members, in document order.
    Obj(Vec<(String, Value)>),
}

/// Text that is not one well-formed JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 0-based byte offset of the offending byte.
    pub pos: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, byte {}: {}", self.line, self.pos, self.message)
    }
}

impl std::error::Error for SyntaxError {}

/// A required field that is absent or holds the wrong kind of value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The field is absent or `null`.
    Missing {
        /// The field's key.
        field: String,
    },
    /// The field is present but its value is unusable.
    Invalid {
        /// The field's key.
        field: String,
        /// Why the value was rejected.
        reason: String,
    },
}

impl FieldError {
    /// An [`Invalid`](FieldError::Invalid) error for `field`.
    pub fn invalid(field: &str, reason: impl Into<String>) -> Self {
        FieldError::Invalid { field: field.to_string(), reason: reason.into() }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing { field } => write!(f, "missing field \"{field}\""),
            FieldError::Invalid { field, reason } => write!(f, "invalid \"{field}\": {reason}"),
        }
    }
}

impl std::error::Error for FieldError {}

/// Renders a `u64` as the hex-string token [`Value::hex`] reads back.
#[must_use]
pub fn hex_u64(v: u64) -> String {
    format!("\"{v:x}\"")
}

/// Member accessors. Each required one returns [`FieldError::Missing`]
/// when `key` is absent or `null` (or `self` is not an object), and
/// [`FieldError::Invalid`] when the member holds another kind of value.
impl Value {
    /// The member `key`, or `None` when it is absent or `null`.
    #[must_use]
    pub fn opt(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| !matches!(v, Value::Null)),
            _ => None,
        }
    }

    /// The required member `key`, of any kind.
    pub fn field(&self, key: &str) -> Result<&Value, FieldError> {
        self.opt(key).ok_or_else(|| FieldError::Missing { field: key.to_string() })
    }

    /// The required string member `key`.
    pub fn str(&self, key: &str) -> Result<&str, FieldError> {
        self.typed(key, "a string", Value::as_str)
    }

    /// The required boolean member `key`.
    pub fn bool(&self, key: &str) -> Result<bool, FieldError> {
        self.typed(key, "a boolean", Value::as_bool)
    }

    /// The required array member `key`.
    pub fn arr(&self, key: &str) -> Result<&[Value], FieldError> {
        self.typed(key, "an array", |v| match v {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    /// The required object member `key`, as its members in order.
    pub fn obj(&self, key: &str) -> Result<&[(String, Value)], FieldError> {
        self.typed(key, "an object", |v| match v {
            Value::Obj(members) => Some(members.as_slice()),
            _ => None,
        })
    }

    /// The required member `key`, a full-range `u64` written by [`hex_u64`].
    pub fn hex(&self, key: &str) -> Result<u64, FieldError> {
        self.typed(key, "a hex string", Value::as_hex)
    }

    /// The required member `key`, an exact integer ([`Value::as_int`])
    /// that fits in `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, FieldError> {
        let n = self.typed(key, INT, Value::as_int)?;
        T::try_from(n).map_err(|_| {
            FieldError::invalid(key, format!("must fit in {}", std::any::type_name::<T>()))
        })
    }

    /// The required member `key`, an array of strings.
    pub fn strs(&self, key: &str) -> Result<Vec<&str>, FieldError> {
        self.each(key, "strings", Value::as_str)
    }

    /// The required member `key`, an array of booleans.
    pub fn bools(&self, key: &str) -> Result<Vec<bool>, FieldError> {
        self.each(key, "booleans", Value::as_bool)
    }

    /// The required member `key`, an array of [`hex_u64`] tokens.
    pub fn hexes(&self, key: &str) -> Result<Vec<u64>, FieldError> {
        self.each(key, "hex strings", Value::as_hex)
    }

    /// The required member `key`, an array of exact integers that each
    /// fit in `T`.
    pub fn ints<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, FieldError> {
        self.each(key, INT, |v| v.as_int().and_then(|n| T::try_from(n).ok()))
    }

    /// This value as an exact integer: a number written in plain
    /// decimal digits, below 2^53. Signs, fractions and exponents are
    /// refused rather than rounded.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse::<u64>().ok().filter(|&n| n < EXACT_LIMIT),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_hex(&self) -> Option<u64> {
        u64::from_str_radix(self.as_str()?, 16).ok()
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<T, FieldError> {
        read(self.field(key)?).ok_or_else(|| FieldError::invalid(key, format!("must be {what}")))
    }

    fn each<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Vec<T>, FieldError> {
        self.arr(key)?
            .iter()
            .map(|item| {
                read(item)
                    .ok_or_else(|| FieldError::invalid(key, format!("entries must be {what}")))
            })
            .collect()
    }
}

/// Parses one complete JSON document. Anything but whitespace after it
/// is an error.
///
/// # Errors
///
/// [`SyntaxError`] at the first byte that is not well-formed JSON, or
/// at the bracket that opens nesting level [`MAX_DEPTH`] + 1.
pub fn parse(text: &str) -> Result<Value, SyntaxError> {
    let mut p = Parser { text, pos: 0, line: 1, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing characters after the document")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> SyntaxError {
        SyntaxError { line: self.line, pos: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), SyntaxError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == byte => {
                self.bump();
                Ok(())
            }
            Some(b) => {
                Err(self.error(format!("expected `{}`, found `{}`", byte as char, b as char)))
            }
            None => Err(self.error(format!("expected `{}`, found end of input", byte as char))),
        }
    }

    fn value(&mut self) -> Result<Value, SyntaxError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(format!("unexpected character `{}`", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, SyntaxError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error(format!("invalid literal (expected `{word}`)")));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, SyntaxError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.parse::<f64>().is_err() {
            self.pos = start;
            return Err(self.error("invalid number"));
        }
        Ok(Value::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, SyntaxError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.bump();
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(_) => out.push(self.escape()?),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, SyntaxError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A UTF-16 high surrogate pairs with a low one escaped
                // right after it; `from_u32` refuses any other surrogate.
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code)
                    .ok_or_else(|| self.error("unpaired surrogate in \\u escape"))?
            }
            _ => return Err(self.error("invalid escape sequence")),
        })
    }

    fn hex4(&mut self) -> Result<u32, SyntaxError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, SyntaxError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, SyntaxError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(members)),
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_u64_round_trips_full_range() {
        for v in [0u64, 1, u64::MAX, 0x9e37_79b9_7f4a_7c15, (1 << 53) + 1] {
            let doc = parse(&format!("{{\"v\": {}}}", hex_u64(v))).unwrap();
            assert_eq!(doc.hex("v"), Ok(v));
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,2,]").is_err());
    }

    #[test]
    fn depth_cap_admits_64_levels_and_refuses_65() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.line, err.pos), (1, MAX_DEPTH));
        assert!(err.message.contains("nesting deeper than 64"), "{err}");
        // A megabyte of `[` stops at the cap, not at the stack's end.
        assert!(parse(&"[".repeat(1_000_000)).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn syntax_errors_carry_line_and_byte() {
        let err = parse("{\n  \"modules\": {\n  oops\n").unwrap_err();
        assert_eq!((err.line, err.pos), (3, 19), "{err}");
    }

    #[test]
    fn decodes_every_escape_and_raw_utf8() {
        let doc =
            parse(r#"{"s": "caf\u00e9 \b\f\n\r\t\"\\\/ \ud83d\ude00", "raw": "café ✓"}"#).unwrap();
        assert_eq!(doc.str("s"), Ok("café \u{8}\u{c}\n\r\t\"\\/ \u{1f600}"));
        assert_eq!(doc.str("raw"), Ok("café ✓"));
        for unpaired in [r#""\ud83d""#, r#""\udc00""#, r#""\ud83d\u0041""#] {
            assert!(parse(unpaired).is_err(), "{unpaired}");
        }
        assert!(parse(r#""\x""#).is_err());
    }

    #[test]
    fn integers_are_exact_below_2_pow_53() {
        let int = |text: &str| parse(&format!("{{\"n\": {text}}}")).unwrap().int::<u64>("n");
        assert_eq!(int("9007199254740991"), Ok((1 << 53) - 1));
        for bad in ["9007199254740993", "1e30", "-1", "2.5"] {
            assert!(matches!(int(bad), Err(FieldError::Invalid { .. })), "{bad}: {:?}", int(bad));
        }
        let byte = parse("{\"n\": 300}").unwrap().int::<u8>("n");
        assert_eq!(byte, Err(FieldError::invalid("n", "must fit in u8")));
    }

    #[test]
    fn accessors_name_the_field() {
        let doc = parse(r#"{"a": null, "b": "x", "c": [true, 1]}"#).unwrap();
        assert_eq!(doc.field("a"), Err(FieldError::Missing { field: "a".into() }));
        assert_eq!(doc.field("z"), Err(FieldError::Missing { field: "z".into() }));
        assert!(doc.opt("a").is_none());
        assert_eq!(
            doc.int::<u64>("b").unwrap_err().to_string(),
            "invalid \"b\": must be an exact integer in 0..2^53"
        );
        assert_eq!(doc.bools("c"), Err(FieldError::invalid("c", "entries must be booleans")));
    }
}
