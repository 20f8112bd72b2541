//! A minimal, offline, API-compatible subset of `serde_json`.
//!
//! Provides [`Value`], the [`json!`] macro, [`to_string`] / [`to_vec`],
//! [`from_str`] / [`from_slice`], and [`to_value`] /
//! [`from_value`] over the offline serde subset's `Content` data model.
//! Output is compact JSON with object keys in `BTreeMap` order, matching
//! real serde_json's default (non-`preserve_order`) behaviour.

use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// A JSON number: either an exact integer (up to `i128`) or a float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number(N);

#[derive(Clone, Copy, Debug, PartialEq)]
enum N {
    Int(i128),
    Float(f64),
}

impl Number {
    /// The number as `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::Int(n) => i64::try_from(n).ok(),
            N::Float(_) => None,
        }
    }

    /// The number as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::Int(n) => u64::try_from(n).ok(),
            N::Float(_) => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            N::Int(n) => Some(n as f64),
            N::Float(x) => Some(x),
        }
    }
}

impl From<i64> for Number {
    fn from(n: i64) -> Number {
        Number(N::Int(n as i128))
    }
}

impl From<u64> for Number {
    fn from(n: u64) -> Number {
        Number(N::Int(n as i128))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::Int(n) => write!(f, "{n}"),
            N::Float(x) => write!(f, "{x}"),
        }
    }
}

/// The JSON object map type (sorted keys, like real serde_json's default).
pub type Map = BTreeMap<String, Value>;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member lookup; `None` when `self` is not an object or lacks the key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// `Some(i)` when the value is an integral number fitting `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// `Some(u)` when the value is an integral number fitting `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// `Some(x)` for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// `Some(b)` when the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some(s)` when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(items)` when the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// `Some(map)` when the value is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string_value(self))
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        match self {
            Value::Null => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
            Value::Number(Number(N::Int(n))) => Content::Int(*n),
            Value::Number(Number(N::Float(x))) => Content::Float(*x),
            Value::String(s) => Content::Str(s.clone()),
            Value::Array(a) => Content::Seq(a.iter().map(Serialize::to_content).collect()),
            Value::Object(m) => {
                Content::Map(m.iter().map(|(k, v)| (k.clone(), v.to_content())).collect())
            }
        }
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Value, DeError> {
        Ok(content_to_value(c))
    }
}

fn content_to_value(c: &Content) -> Value {
    match c {
        Content::Null => Value::Null,
        Content::Bool(b) => Value::Bool(*b),
        Content::Int(n) => Value::Number(Number(N::Int(*n))),
        Content::Float(x) => Value::Number(Number(N::Float(*x))),
        Content::Str(s) => Value::String(s.clone()),
        Content::Seq(items) => Value::Array(items.iter().map(content_to_value).collect()),
        Content::Map(entries) => {
            Value::Object(entries.iter().map(|(k, v)| (k.clone(), content_to_value(v))).collect())
        }
    }
}

/// Serialization or parse failure.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.0)
    }
}

/// Serialize any `Serialize` into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    content_to_value(&v.to_content())
}

/// Reconstruct a `Deserialize` from a [`Value`].
pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_content(&v.to_content()).map_err(Error::from)
}

// ---- Writing -----------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_content(c: &Content, out: &mut String) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::Int(n) => out.push_str(&n.to_string()),
        Content::Float(x) => out.push_str(&x.to_string()),
        Content::Str(s) => escape_into(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_content(v, out);
            }
            out.push('}');
        }
    }
}

fn to_string_value(v: &Value) -> String {
    let mut out = String::new();
    write_content(&v.to_content(), &mut out);
    out
}

/// Compact JSON text for any `Serialize`.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&v.to_content(), &mut out);
    Ok(out)
}

/// Compact JSON bytes for any `Serialize`.
pub fn to_vec<T: Serialize + ?Sized>(v: &T) -> Result<Vec<u8>, Error> {
    to_string(v).map(String::into_bytes)
}

// ---- Parsing -----------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_lit("null") => Ok(Value::Null),
            Some(b't') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::new("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(Error::new("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!("unexpected input {other:?} at byte {}", self.pos))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid UTF-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(|x| Value::Number(Number(N::Float(x))))
                .map_err(|_| Error::new(format!("bad number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(|n| Value::Number(Number(N::Int(n))))
                .map_err(|_| Error::new(format!("bad number `{text}`")))
        }
    }
}

/// Parse JSON text into any `Deserialize`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing bytes at {}", p.pos)));
    }
    from_value(&v)
}

/// Parse JSON bytes into any `Deserialize`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| Error::new("invalid UTF-8"))?;
    from_str(s)
}

/// Build a [`Value`] from JSON-like syntax. Supports objects, arrays,
/// literals, `null`, and interpolated expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $($key:tt : $val:tt),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert(($key).to_string(), $crate::json!($val)); )*
        $crate::Value::Object(map)
    }};
    (( $e:expr )) => { $crate::to_value(&$e) };
    ($e:expr) => { $crate::to_value(&$e) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value() {
        let v = json!({"a": 1, "b": [true, null, "x"], "c": {"d": 2}});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn compact_format_matches_serde_json() {
        let v = json!({"txn": 1, "ts": 7});
        // BTreeMap order: keys sorted.
        assert_eq!(to_string(&v).unwrap(), r#"{"ts":7,"txn":1}"#);
    }

    #[test]
    fn torn_json_fails_to_parse() {
        assert!(from_str::<Value>("{\"Commit\":{\"txn\":2,").is_err());
        assert!(from_str::<Value>("{\"Op\":{\"txn\":77,\"obj").is_err());
    }

    #[test]
    fn index_and_accessors() {
        let v = json!({"enq": 5});
        assert_eq!(v["enq"].as_i64(), Some(5));
        assert!(v["missing"].is_null());
        assert_eq!(v.get("enq").and_then(Value::as_i64), Some(5));
    }

    #[test]
    fn numbers() {
        let v: Value = from_str("[-3, 2.5, 170141183460469231731687303715884105727]").unwrap();
        assert_eq!(v[0].as_i64(), Some(-3));
        assert_eq!(v[1].as_f64(), Some(2.5));
        assert_eq!(v[2].as_i64(), None, "i128 max does not fit i64");
    }

    #[test]
    fn string_escapes() {
        let v = Value::String("a\"b\\c\nd".into());
        let text = to_string(&v).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), v);
    }
}
