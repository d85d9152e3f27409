//! A small in-tree JSON writer and parser (no serde).
//!
//! The writer produces deterministic output: fields appear in insertion
//! order, floats render with Rust's shortest-roundtrip formatting, and
//! strings are escaped per RFC 8259. [`Obj`] is the one object writer:
//! trace lines, manifests, BENCH records, checkpoints and store entries
//! all append through it. The parser is the minimal recursive-descent
//! reader `trace-summary` needs to consume JSONL traces; it refuses
//! documents nested deeper than [`MAX_DEPTH`].

use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` to `out` as a quoted, escaped JSON string.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out` as a JSON number (JSON has no NaN/Inf; they map to
/// null, and negative zero is written as `0`).
pub fn number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 {
        out.push('0');
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append a JSON array to `out`, one `put` per item.
pub fn arr<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut put: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(out, item);
    }
    out.push(']');
}

/// An insertion-ordered JSON object writer. It appends to a buffer it owns
/// ([`Obj::new`]) or borrows ([`Obj::into`]), and [`Obj::finish`] closes
/// the object and hands that buffer back without copying it.
#[derive(Debug, Default)]
pub struct Obj<B = String> {
    buf: B,
    /// Whether the opening brace, written with the first field, is out.
    open: bool,
}

impl Obj {
    /// Start an object in a buffer of its own.
    pub fn new() -> Self {
        Obj::default()
    }
}

impl<'a> Obj<&'a mut String> {
    /// Start an object at the end of `buf`.
    pub fn into(buf: &'a mut String) -> Self {
        Obj { buf, open: false }
    }
}

impl<B: BorrowMut<String>> Obj<B> {
    fn key(&mut self, k: &str) -> &mut String {
        let buf = self.buf.borrow_mut();
        buf.push(if self.open { ',' } else { '{' });
        self.open = true;
        string(buf, k);
        buf.push(':');
        buf
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        string(self.key(k), v);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        number(self.key(k), v);
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k).push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a field holding whatever `put` appends to the buffer.
    pub fn with(mut self, k: &str, put: impl FnOnce(&mut String)) -> Self {
        put(self.key(k));
        self
    }

    /// Close the object and hand back its buffer.
    pub fn finish(mut self) -> B {
        let buf = self.buf.borrow_mut();
        if !self.open {
            buf.push('{');
        }
        buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order preserved via `BTreeMap` lookup semantics).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as u64, if numeric and non-negative integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The deepest array and object nesting [`parse`] accepts. The deepest
/// document the project writes, a checkpoint, nests 9 levels; the limit
/// keeps a corrupt input from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, or of
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse an array or object one level deeper, within [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs: combine when a high surrogate
                            // is followed by an escaped low surrogate.
                            let cp = if (0xd800..0xdc00).contains(&hex)
                                && self.bytes.get(self.pos) == Some(&b'\\')
                                && self.bytes.get(self.pos + 1) == Some(&b'u')
                            {
                                let low = self
                                    .bytes
                                    .get(self.pos + 2..self.pos + 6)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad low surrogate")?;
                                self.pos += 6;
                                0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                hex
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = rest.get(..len).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote(s: &str) -> String {
        let mut out = String::new();
        string(&mut out, s);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(quote("a\"b"), r#""a\"b""#);
        assert_eq!(quote("line\nbreak"), r#""line\nbreak""#);
        assert_eq!(quote("tab\tslash\\"), r#""tab\tslash\\""#);
        assert_eq!(quote("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn control_chars_hex_escaped() {
        assert_eq!(quote("\u{1f}"), "\"\\u001f\"");
        assert_eq!(quote("\u{08}\u{0c}"), "\"\\b\\f\"");
    }

    #[test]
    fn object_builder_orders_fields() {
        let s = Obj::new()
            .str("type", "dse.accept")
            .u64("iter", 3)
            .f64("delta", 0.25)
            .bool("better", true)
            .finish();
        assert_eq!(
            s,
            r#"{"type":"dse.accept","iter":3,"delta":0.25,"better":true}"#
        );
    }

    #[test]
    fn nonfinite_floats_become_null() {
        for (v, want) in [(f64::NAN, "null"), (f64::INFINITY, "null"), (-0.0, "0")] {
            let mut out = String::new();
            number(&mut out, v);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn borrowed_objects_nest_in_place() {
        let mut buf = String::from("[");
        Obj::into(&mut buf)
            .str("k\"ey", "v")
            .with("xs", |o| arr(o, [1, 2], |o, x| o.push_str(&x.to_string())))
            .with("o", |o| {
                Obj::into(o).finish();
            })
            .finish();
        buf.push(']');
        assert_eq!(buf, r#"[{"k\"ey":"v","xs":[1,2],"o":{}}]"#);
        assert_eq!(Obj::new().finish(), "{}");
    }

    #[test]
    fn writer_parser_round_trip() {
        let line = Obj::new()
            .str("name", "we\u{1f600}ird \"quoted\" \\ path\n")
            .u64("n", 18446744073709551615)
            .f64("x", -1.5e-9)
            .with("a", |o| arr(o, [1.0, 2.0, 3.0], number))
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("we\u{1f600}ird \"quoted\" \\ path\n")
        );
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(-1.5e-9));
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.0),
                Value::Num(3.0)
            ]))
        );
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = parse(r#"{"s":"a\u0041\u00e9\ud83d\ude00\n"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("aAé\u{1f600}\n"));
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{{\"a\":{ok}}}");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("nul").is_err());
    }
}
