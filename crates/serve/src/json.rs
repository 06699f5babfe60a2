//! A minimal JSON value: just enough for the line-delimited `dew serve`
//! protocol, with no third-party dependency (the workspace builds offline).
//!
//! Supports the full JSON grammar except scientific-notation emission;
//! parsing accepts any RFC 8259 number. Strings escape the mandatory set
//! (`"`, `\`, control characters) on output and understand the standard
//! escapes plus `\uXXXX` (surrogate pairs included) on input.
//!
//! The parser recurses once per array or object level, so it refuses
//! nesting deeper than 128 levels: one hostile line must not overflow the
//! stack of the connection thread parsing it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The serve
/// protocol nests two levels; the bound keeps the parser's recursion far
/// inside a 2 MiB thread stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`], so emission order is deterministic — handy
/// for tests and for diffing server responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// Why a document failed to parse: a message and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the failure position on malformed input,
    /// including nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Member lookup; `None` for non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions, negatives
    /// and anything beyond 2^53).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialises compactly (no insignificant whitespace, keys sorted).
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => emit_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_str(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Shorthand for a numeric member.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Shorthand for a string member.
#[must_use]
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn emit_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected [")?;
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
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected {")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected : after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
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
                                // Surrogate pair: \uXXXX\uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u', "expected \\u for low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        // Caller advances past the escape; position the cursor on the last
        // consumed byte so the shared `self.pos += 1` below the match in
        // `string` is not double-applied (we `continue` instead).
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let doc = r#"{"cmd":"submit","kind":"sweep","requests":50000,"deadline_ms":250,"chaos":true,"mix":"zipf"}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(50_000));
        assert_eq!(v.get("chaos").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        let emitted = v.emit();
        assert_eq!(Json::parse(&emitted).expect("re-parses"), v);
    }

    #[test]
    fn numbers_strings_arrays_and_escapes() {
        let v = Json::parse(r#"[-1.5, 2e3, 0, "a\"b\\c\nd", [true, false, null]]"#).expect("ok");
        let Json::Arr(items) = &v else { panic!() };
        assert_eq!(items[0].as_f64(), Some(-1.5));
        assert_eq!(items[1].as_f64(), Some(2000.0));
        assert_eq!(items[0].as_u64(), None, "negative/fractional rejected");
        assert_eq!(items[3].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(Json::parse(&v.emit()).expect("round-trip"), v);

        let uni = Json::parse(r#""\u00e9\ud83d\ude00""#).expect("unicode escapes");
        assert_eq!(uni.as_str(), Some("é😀"));
    }

    #[test]
    fn malformed_documents_error_with_position() {
        for bad in [
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
            "\"\\q\"",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_refused_with_its_position() {
        // A million levels overflowed a connection thread's 2 MiB stack
        // before the parser bounded its recursion; parse on such a stack.
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let opener = |open: &str| -> Result<Json, JsonError> {
                    Json::parse(&open.repeat(1_000_000))
                };
                (opener("["), opener(r#"{"a":"#))
            })
            .expect("spawn")
            .join()
            .expect("the parser does not overflow its stack");
        let (arrays, objects) = parsed;
        let err = arrays.expect_err("too deep");
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        let err = objects.expect_err("too deep");
        assert_eq!(err.at, MAX_DEPTH * 5, "{err}");

        // The deepest accepted document parses and round-trips.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let v = Json::parse(&deepest).expect("128 levels parse");
        assert_eq!(v.emit(), deepest);
        let deeper = format!("[{deepest}]");
        assert_eq!(Json::parse(&deeper).expect_err("129 levels").at, MAX_DEPTH);
    }

    /// A value nested `depth` levels deep in arrays or objects, closed or
    /// cut short before its closers.
    fn nested(depth: usize, objects: bool, closed: bool) -> String {
        let (open, close) = if objects {
            (r#"{"a":"#, "}")
        } else {
            ("[", "]")
        };
        let mut text = open.repeat(depth);
        text.push('1');
        if closed {
            text.push_str(&close.repeat(depth));
        }
        text
    }

    proptest! {
        /// Around the cap, a closed document parses exactly when it nests at
        /// most 128 levels; every refusal points inside the input.
        #[test]
        fn nesting_around_the_cap_parses_or_fails_inside_the_input(
            depth in MAX_DEPTH - 8..MAX_DEPTH + 8,
            objects in any::<bool>(),
            closed in any::<bool>(),
        ) {
            let text = nested(depth, objects, closed);
            match Json::parse(&text) {
                Ok(_) => prop_assert!(closed && depth <= MAX_DEPTH, "{depth} levels parsed"),
                Err(e) => {
                    prop_assert!(e.at <= text.len(), "{e} is past the {} input bytes", text.len());
                    prop_assert!(!closed || depth > MAX_DEPTH, "{depth} levels refused: {e}");
                }
            }
        }
    }

    #[test]
    fn builders_compose() {
        let v = obj([
            ("ok", Json::Bool(true)),
            ("id", num(7)),
            ("status", str("queued")),
        ]);
        assert_eq!(v.emit(), r#"{"id":7,"ok":true,"status":"queued"}"#);
    }
}
