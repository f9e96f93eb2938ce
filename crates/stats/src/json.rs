//! Hand-rolled JSON value, encoder, and parser.
//!
//! The workspace builds offline, so we cannot pull in `serde`. This module
//! provides the small subset of JSON the metrics layer needs: a value tree
//! ([`Json`]), a deterministic encoder ([`Json::encode`]), and a strict
//! recursive-descent parser ([`parse`]) used by the golden-schema tests and
//! the `check_json` CI smoke binary.
//!
//! Objects preserve insertion order (they are backed by a `Vec`), so an
//! encoded document is byte-for-byte reproducible from the same inputs —
//! a property the determinism tests rely on.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number. Non-finite values encode as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on encode.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Builder form of [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Field lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field lookup on objects; `None` for other variants or
    /// missing keys. Used by dotted key-path overrides to edit a leaf in
    /// place.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (covers `U64`, `I64`, and `F64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer payload as `u64`, if non-negative and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the value to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation (for committed artifacts).
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `pretty`, the [`Json::encode_pretty`] text of a document (its
/// final newline included), as the value of a field or element at
/// `depth`: the bytes `encode_pretty` writes for that document nested
/// there. Every raw newline in encoder text is structural, because
/// strings escape `\n` and every other control character, so nesting
/// indents each line after the first.
pub fn write_nested(pretty: &str, depth: usize, out: &mut String) {
    let text = pretty.strip_suffix('\n').unwrap_or(pretty);
    let mut lines = text.split('\n');
    out.push_str(lines.next().unwrap_or_default());
    for line in lines {
        out.push('\n');
        indent(out, depth);
        out.push_str(line);
    }
}

/// Encodes an `f64` deterministically: non-finite values become `null`,
/// finite values use Rust's shortest-roundtrip `{:?}` formatting (which
/// always keeps a decimal point or exponent, e.g. `1.0`).
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Encodes `s` as a JSON string literal, quotes included.
pub fn write_escaped(s: &str, out: &mut String) {
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

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let at = self.pos;
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(ParseError {
                                        message: "invalid low surrogate".into(),
                                        offset: at,
                                    });
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one go: both
                    // are ASCII and the input is a &str, so the run is whole
                    // UTF-8 characters. Raw control characters are kept.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_scalars() {
        assert_eq!(Json::Null.encode(), "null");
        assert_eq!(Json::Bool(true).encode(), "true");
        assert_eq!(Json::U64(42).encode(), "42");
        assert_eq!(Json::I64(-7).encode(), "-7");
        assert_eq!(Json::F64(1.5).encode(), "1.5");
        assert_eq!(Json::F64(1.0).encode(), "1.0");
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
        assert_eq!(Json::Str("a\"b\\c\n".into()).encode(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn encode_containers_preserve_order() {
        let v = Json::obj()
            .with("zeta", Json::U64(1))
            .with("alpha", Json::Arr(vec![Json::U64(1), Json::Null]));
        assert_eq!(v.encode(), r#"{"zeta":1,"alpha":[1,null]}"#);
    }

    #[test]
    fn roundtrip_through_parser() {
        let v = Json::obj()
            .with("name", Json::Str("fig6".into()))
            .with("eff", Json::F64(0.321))
            .with("cycles", Json::U64(123_456))
            .with("neg", Json::I64(-3))
            .with("rows", Json::Arr(vec![Json::Bool(false), Json::Null]));
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
        let pretty = v.encode_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("'single'").is_err());
        // A string cut short fails at the end of the input, also when the
        // cut falls after a multi-byte character or an escape.
        let err = |text: &str| {
            let e = parse(text).unwrap_err();
            (e.message, e.offset)
        };
        assert_eq!(err(r#"{"a":"xé"#), ("unterminated string".into(), 9));
        assert_eq!(err(r#"["\n"#), ("unterminated string".into(), 4));
        assert_eq!(err("\"ab\u{1}"), ("unterminated string".into(), 4));
        assert_eq!(err(r#""ab\"#), ("unterminated escape".into(), 4));
        assert_eq!(err(r#""é\q""#), ("invalid escape character".into(), 5));
    }

    #[test]
    fn parse_escapes_and_numbers() {
        let v = parse(r#"{"s":"aA\né","f":-2.5e2,"i":-9}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("aA\né"));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-250.0));
        assert_eq!(v.get("i"), Some(&Json::I64(-9)));
        // 2-, 3- and 4-byte characters directly before and after escapes.
        let v = parse(r#"["é\n😀\"x€", "\u00e9ß\\€\t😀", "€\""]"#).unwrap();
        let strs: Vec<_> = v.as_array().unwrap().iter().map(Json::as_str).collect();
        assert_eq!(strs, [Some("é\n😀\"x€"), Some("éß\\€\t😀"), Some("€\"")]);
        // Raw control characters inside a string are taken as they are.
        let v = parse("\"a\tb\u{1}\n\u{1f}c\"").unwrap();
        assert_eq!(v.as_str(), Some("a\tb\u{1}\n\u{1f}c"));
    }

    /// A long string parses in time linear in its length: copying one
    /// character at a time after re-checking the rest of the input took
    /// over a second on 256 KiB in a debug build.
    #[test]
    fn long_string_parses_in_linear_time() {
        let body = "é".repeat(64 * 1024) + &"x".repeat(128 * 1024);
        let text = format!("{{\"s\":\"{body}\"}}");
        assert_eq!(body.len(), 256 * 1024);
        let start = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v.get("s").unwrap().as_str(), Some(body.as_str()));
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "256 KiB string took {elapsed:?}"
        );
    }

    #[test]
    fn parse_surrogate_pair() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // A high surrogate must be followed by a low one (DC00–DFFF).
        for bad in [r#""\ud83d\u0041""#, r#""\ud800\ue000""#] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.message, "invalid low surrogate", "{bad}");
            assert_eq!(
                err.offset, 7,
                "{bad}: the error points at the second escape"
            );
        }
        let err = parse(r#""\ud83d""#).unwrap_err();
        assert!(err.to_string().contains("lone high surrogate"), "{err}");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a":1,"b":[2],"c":"x","d":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.members().unwrap().len(), 4);
        assert!(v.get("missing").is_none());
    }
}
