//! The one JSON reader and writer of the workspace.
//!
//! The build has no `serde`, so everything that reads or writes JSON goes
//! through this module: the serving protocol's request and response
//! frames, the trace sink's JSON-lines events and [`TraceAnalysis`]'s
//! reading of them, the registry's `stats` rendering, and `tables --json`.
//! The parser is a hand-rolled recursive descent over RFC 8259 JSON with
//! two defensive limits — a nesting-depth cap and the frame-level length
//! cap the protocol enforces before parsing — so hostile payloads from the
//! network fail with a typed error instead of exhausting the stack (see
//! the protocol robustness property tests). Integer literals are read
//! exactly ([`Json::Int`]); numbers with a fraction or an exponent, and
//! integers beyond `i128`, are read as `f64` ([`Json::Num`]).
//!
//! [`TraceAnalysis`]: crate::TraceAnalysis

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`].
const MAX_DEPTH: usize = 128;

/// 2^53: below it, a whole `f64` cannot be the rounding of another
/// integer literal.
const EXACT_F64_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value. Object keys are sorted (`BTreeMap`), which also
/// makes rendered output deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer literal (no fraction, no exponent), exact.
    Int(i128),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one exactly: an integer literal in
    /// range, or a whole float below 2^53 (from there on a float may have
    /// been rounded to what it reads).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_F64_LIMIT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: string field of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: unsigned integer field of an object.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }
}

/// A parse failure with a byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected `,` or `]`")),
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
                                // Surrogate pair: expect `\uXXXX` low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; find the char boundary).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
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
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let integer = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if let Some(i) = s.parse::<i128>().ok().filter(|_| integer) {
            return Ok(Json::Int(i));
        }
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

// ---- rendering --------------------------------------------------------------

/// Escapes a string per RFC 8259 (including the surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `s` escaped per RFC 8259, with its surrounding quotes, to
/// `out` (the allocation-free form the trace sink writes events with).
pub fn escape_into(out: &mut String, s: &str) {
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

/// Renders an `f64` as a JSON number (`null` for non-finite values).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Re-renders a parsed [`Json`] value (stable field order: object keys
/// are sorted by the `BTreeMap`).
pub fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Int(i) => i.to_string(),
        Json::Num(n) => num(*n),
        Json::Str(s) => escape(s),
        Json::Arr(items) => {
            format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(","))
        }
        Json::Obj(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, v)| format!("{}:{}", escape(k), render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// A tiny single-line JSON object builder for responses.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<String>,
}

impl ObjBuilder {
    pub fn new() -> ObjBuilder {
        ObjBuilder::default()
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, rendered: impl Into<String>) -> Self {
        self.fields.push(format!("{}:{}", escape(key), rendered.into()));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let v = escape(value);
        self.raw(key, v)
    }

    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn f64(self, key: &str, value: f64) -> Self {
        let v = num(value);
        self.raw(key, v)
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Adds an array of already-rendered JSON values.
    pub fn arr(self, key: &str, rendered: Vec<String>) -> Self {
        let v = format!("[{}]", rendered.join(","));
        self.raw(key, v)
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a": [1, -2.5, true, null], "b": {"c": "x\n\"y\""}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().str_field("c"), Some("x\n\"y\""));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1 2", "{\"a\":}", "\u{1}"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(num(75.0), "75");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn integers_read_exactly() {
        let u = |s: &str| parse(s).unwrap().as_u64();
        assert_eq!(u("9007199254740991"), Some((1 << 53) - 1));
        assert_eq!(u("9007199254740992"), Some(1 << 53));
        assert_eq!(u("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("18446744073709551616"), None, "2^64 is out of range");
        assert_eq!(u("-1"), None);
        assert_eq!(u("1e3"), Some(1000));
        assert_eq!(u("9007199254740993.0"), None, "a float above 2^53 may be rounded");
        assert_eq!(u("1.5"), None);
        let big = "1".repeat(50);
        assert_eq!(parse(&big).unwrap().as_f64(), big.parse().ok(), "beyond i128: a float");
        assert_eq!(
            render(&parse("[9007199254740993,-7,2.5]").unwrap()),
            "[9007199254740993,-7,2.5]"
        );
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{1F600}"));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn builder_renders_parseable_objects() {
        let s = ObjBuilder::new()
            .str("verb", "infer")
            .u64("n", 3)
            .bool("ok", true)
            .f64("x", 1.5)
            .arr("xs", vec!["1".into(), "\"two\"".into()])
            .build();
        let v = parse(&s).unwrap();
        assert_eq!(v.str_field("verb"), Some("infer"));
        assert_eq!(v.u64_field("n"), Some(3));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("xs").unwrap().as_array().unwrap()[1].as_str(), Some("two"));
    }
}
