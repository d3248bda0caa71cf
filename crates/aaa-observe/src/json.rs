//! A minimal hand-rolled JSON value, writer and parser.
//!
//! The workspace has no registry access, so no serde: this module covers
//! exactly what run reports and Chrome traces need — objects, arrays,
//! strings with escapes, finite doubles, booleans and null. Numbers are
//! written with Rust's shortest round-trip `f64` formatting, so
//! `parse(render(x)) == x` holds bit-exactly for every finite value (the
//! report round-trip test relies on this).

use std::fmt::Write as _;

/// A parsed or buildable JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; the report's integer counters stay
    /// exact well past any realistic magnitude (2^53).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved — reports serialize deterministically.
    Obj(Vec<(String, Json)>),
}

/// Typed parse/shape errors, with the byte offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended or contained an unexpected byte.
    Syntax { at: usize, what: String },
    /// The document parsed but did not have the expected shape.
    Shape(String),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax { at, what } => write!(f, "JSON syntax error at byte {at}: {what}"),
            JsonError::Shape(what) => write!(f, "unexpected JSON shape: {what}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // ---------------------------------------------------------------
    // Accessors (shape helpers for readers)
    // ---------------------------------------------------------------

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`], but a missing key or wrong container is a
    /// [`JsonError::Shape`].
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::Shape(format!("missing field `{key}`")))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer (rejects fractional values and
    /// anything outside `i64`; `i64::MAX as f64` rounds up to 2^63, hence
    /// the strict upper comparison).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Num(n) if n.fract() == 0.0 && n >= i64::MIN as f64 && n < i64::MAX as f64 => {
                Some(n as i64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields of an object, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Typed field readers — shape errors name the offending key.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| JsonError::Shape(format!("field `{key}` is not a number")))
    }

    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| JsonError::Shape(format!("field `{key}` is not a non-negative integer")))
    }

    pub fn i64_field(&self, key: &str) -> Result<i64, JsonError> {
        self.field(key)?
            .as_i64()
            .ok_or_else(|| JsonError::Shape(format!("field `{key}` is not an integer")))
    }

    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::Shape(format!("field `{key}` is not a string")))
    }

    pub fn arr_field(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| JsonError::Shape(format!("field `{key}` is not an array")))
    }

    // ---------------------------------------------------------------
    // Writer
    // ---------------------------------------------------------------

    /// Compact rendering (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline —
    /// the on-disk report format (stable, diffable).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    // ---------------------------------------------------------------
    // Parser
    // ---------------------------------------------------------------

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Parses a document from raw bytes — the entry point for data read
    /// off disk or a socket, where corruption may have produced invalid
    /// UTF-8. Every malformed input (bad encoding, truncation, garbage)
    /// returns a typed [`JsonError`]; this function never panics.
    pub fn parse_bytes(input: &[u8]) -> Result<Json, JsonError> {
        let s = std::str::from_utf8(input).map_err(|e| JsonError::Syntax {
            at: e.valid_up_to(),
            what: "invalid UTF-8".to_string(),
        })?;
        Json::parse(s)
    }
}

/// Nesting cap: recursion in the parser is bounded so hostile or corrupted
/// input (`[[[[…`) hits a typed error, never a stack overflow. Real
/// reports nest 4–5 levels.
const MAX_DEPTH: usize = 128;

/// JSON has no NaN/Infinity; reports never contain them (they would mean a
/// broken cost model), so treat them as a programming error loudly rather
/// than writing invalid output.
fn write_number(out: &mut String, n: f64) {
    assert!(n.is_finite(), "non-finite number in JSON document: {n}");
    if n == n.trunc() && n.abs() < 1e15 {
        // Integral values print without the ".0" Rust's Display would omit
        // anyway, and without exponent notation in the exact-count range.
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest round-trip formatting: parse(render(x)) == x.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError::Syntax { at: self.pos, what: what.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // documents; accept lone BMP scalars only.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Both entry points ([`Json::parse`]
                    // takes &str, [`Json::parse_bytes`] validates upfront)
                    // guarantee well-formed UTF-8 here.
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::Syntax { at: start, what: format!("bad number `{text}`") })?;
        if !n.is_finite() {
            return Err(JsonError::Syntax {
                at: start,
                what: format!("non-finite number `{text}`"),
            });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("fig4 \"pinned\"\n".into())),
            ("count".into(), Json::Num(42.0)),
            ("ratio".into(), Json::Num(0.1)),
            ("big".into(), Json::Num(9_007_199_254_740_991.0)),
            ("neg".into(), Json::Num(-17.25)),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            ("items".into(), Json::Arr(vec![Json::Num(1.0), Json::Str("två".into())])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "round trip failed for: {text}");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456.789012345, f64::MAX, f64::MIN_POSITIVE] {
            let text = Json::Num(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {text} → {back}");
        }
    }

    #[test]
    fn integral_values_print_without_exponent() {
        assert_eq!(Json::Num(1_000_000.0).render(), "1000000");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "a\tbå\"c", "n": -1.5e3}"#).unwrap();
        assert_eq!(v.str_field("s").unwrap(), "a\tbå\"c");
        assert_eq!(v.f64_field("n").unwrap(), -1500.0);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "{\"a\":NaN}"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn shape_helpers_report_key_names() {
        let v = Json::parse(r#"{"a": 1, "s": "x", "l": [1]}"#).unwrap();
        assert_eq!(v.u64_field("a").unwrap(), 1);
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert_eq!(v.arr_field("l").unwrap().len(), 1);
        let err = v.u64_field("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        let err = v.u64_field("s").unwrap_err();
        assert!(err.to_string().contains("`s`"));
        assert!(Json::Num(1.5).as_u64().is_none(), "fractional is not u64");
        assert_eq!(Json::Num(-1.0).as_i64(), Some(-1));
        assert_eq!(Json::Num(i64::MIN as f64).as_i64(), Some(i64::MIN));
        for bad in [1.5, 1e300, -1e300, i64::MAX as f64] {
            assert!(Json::Num(bad).as_i64().is_none(), "{bad} is not an i64");
        }
    }
}
