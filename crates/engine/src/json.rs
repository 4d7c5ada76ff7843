//! Minimal JSON value, writer, and parser (avoids pulling `serde_json`
//! through the offline mirror). The writer feeds Vega-Lite spec emission;
//! the parser feeds the serving layer (`t2v-serve` request bodies) and the
//! repository benchmark, which reads server traces and its own result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects use a `BTreeMap` so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialise with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serialise without whitespace — the wire format for service responses.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact_into(&mut out);
        out
    }

    /// Append the compact serialisation to `out`.
    pub fn write_compact_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Strict on structure (one top-level value, no
    /// trailing garbage, RFC 8259 numbers, nesting capped at
    /// [`MAX_PARSE_DEPTH`] so network input can't blow the stack), tolerant
    /// on whitespace. Errors carry the byte offset so the server can report
    /// *where* a request body broke.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Parser::new(input).document()
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// In-place object field insertion; turns non-objects into objects.
    /// Used by the bench tooling to merge a section into an existing report.
    pub fn set(&mut self, key: &str, value: Json) {
        if !matches!(self, Json::Obj(_)) {
            *self = Json::Obj(BTreeMap::new());
        }
        if let Json::Obj(map) = self {
            map.insert(key.to_string(), value);
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting limit for [`Json::parse`]: the parser recurses once per level,
/// and parse input includes network request bodies, so depth is bounded to
/// keep a pathological `[[[[…` from overflowing the thread stack.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Decode strings one character at a time: the oracle the run copy in
    /// [`Parser::string`] is checked against.
    #[cfg(test)]
    per_char: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            per_char: false,
        }
    }

    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.per_char {
            return self.string_per_char();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One run of plain bytes, copied whole. It stops at `"`, `\` or
            // a control byte; all three are ASCII, so the run ends on a char
            // boundary and slices straight out of the input.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decode the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
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
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be
                // followed by `\uXXXX` holding the low half.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            _ => return Err(self.err("invalid escape character")),
        }
        Ok(())
    }

    /// Exactly four ASCII hex digits (no sign: `from_str_radix` would take
    /// `+041`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut cp = 0;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            cp = cp << 4 | digit;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// RFC 8259 number grammar, enforced here rather than delegated to
    /// `f64::from_str` (which is laxer: it accepts `01`, `1.`, `.5`).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // int = "0" / digit1-9 *DIGIT
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        // frac = "." 1*DIGIT
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("invalid number: digits required after '.'"));
            }
        }
        // exp = ("e"/"E") ["+"/"-"] 1*DIGIT
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("invalid number: digits required in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// Consume a run of digits; `true` if at least one was present.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
impl Parser<'_> {
    /// The per-character decoder the run copy replaced: one `from_utf8` and
    /// one `push_str` per plain char.
    fn string_per_char(&mut self) -> Result<String, JsonError> {
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
                    self.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_nested_structure() {
        let j = Json::obj([
            ("mark", Json::str("bar")),
            (
                "encoding",
                Json::obj([("x", Json::obj([("field", Json::str("HIRE_DATE"))]))]),
            ),
        ]);
        let s = j.pretty();
        assert!(s.contains("\"mark\": \"bar\""));
        assert!(s.contains("\"field\": \"HIRE_DATE\""));
    }

    #[test]
    fn escapes_special_characters() {
        let s = Json::str("a\"b\\c\nd").pretty();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn numbers_render_integers_cleanly() {
        assert_eq!(Json::Num(40.0).pretty(), "40");
        assert_eq!(Json::Num(1.25).pretty(), "1.25");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(Default::default()).pretty(), "{}");
    }

    #[test]
    fn parses_nested_document() {
        let j = Json::parse(
            r#"{"nlq": "show wages", "db": "hr_1", "vegalite": true,
                "k": 10, "weights": [1, -2.5, 3e2], "none": null}"#,
        )
        .unwrap();
        assert_eq!(j.get("nlq").and_then(Json::as_str), Some("show wages"));
        assert_eq!(j.get("vegalite").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("k").and_then(Json::as_f64), Some(10.0));
        let w = j.get("weights").and_then(Json::as_arr).unwrap();
        assert_eq!(w[2].as_f64(), Some(300.0));
        assert_eq!(j.get("none"), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn compact_output_parses_back_and_has_no_padding() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::Num(1.0), Json::str("x y")])),
            ("b", Json::obj([("c", Json::Null)])),
        ]);
        let s = j.compact();
        assert_eq!(s, "{\"a\":[1,\"x y\"],\"b\":{\"c\":null}}");
        assert_eq!(Json::parse(&s).unwrap(), j);
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let j = Json::obj([
            ("mark", Json::str("bar\n\"quoted\" \\slash\\ ünïcode")),
            (
                "encoding",
                Json::obj([
                    ("x", Json::Arr(vec![Json::Num(1.5), Json::Bool(false)])),
                    ("y", Json::Null),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let j = Json::parse(r#""a\tA😀""#).unwrap();
        assert_eq!(j.as_str(), Some("a\tA😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "01a",
            "{\"a\" 1}",
            r#""\ud800""#,
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_non_rfc8259_numbers() {
        for bad in ["01", "1.", ".5", "-", "1e", "1e+", "+1", "0x10", "[1.e5]"] {
            assert!(Json::parse(bad).is_err(), "should reject number {bad:?}");
        }
        for good in ["0", "-0", "0.5", "10.25", "1e9", "1E-3", "-2.5e+2"] {
            assert!(Json::parse(good).is_ok(), "should accept number {good:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // Well past any sane document, well under any thread's stack: the
        // depth cap must turn this into a parse error, not an abort.
        let hostile = "[".repeat(60_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
        // A document exactly at the cap still parses.
        let deep = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        Json::parse(&deep).unwrap();
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn set_inserts_and_replaces_fields() {
        let mut j = Json::parse("{\"a\": 1}").unwrap();
        j.set("serving", Json::obj([("rps", Json::Num(1000.0))]));
        j.set("a", Json::Num(2.0));
        assert_eq!(j.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            j.get("serving")
                .and_then(|s| s.get("rps"))
                .and_then(Json::as_f64),
            Some(1000.0)
        );
    }

    #[test]
    fn u_escapes_take_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("invalid \\u escape", 3),
                "{bad}"
            );
        }
        let j = Json::parse(r#""\u0041\u00e9\u00C9""#).unwrap();
        assert_eq!(j.as_str(), Some("AéÉ"));
    }

    /// String bodies built from pieces that sit on every branch of the
    /// decoder: plain runs, each escape, surrogate halves alone and paired,
    /// raw control bytes, multi-byte chars next to `"` and `\`, and broken
    /// escapes.
    const STRING_PIECES: &[&str] = &[
        "a",
        "Show ME",
        " ",
        "é",
        "😀",
        "日本",
        "\"",
        "\\\\",
        "\\\"",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\uD83D\\uDE00",
        "\\ud83d\\ude00",
        "\\uD83D",
        "\\uDE00",
        "\\uD83D\\u0041",
        "\\u12",
        "\\uZZZZ",
        "\\u+041",
        "\\x",
        "\\",
        "\u{0}",
        "\u{1f}",
        "\n",
        "\t",
        "\u{7f}",
        "é\\n",
        "\\né",
        "\\\"é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn string_runs_decode_like_the_per_char_loop(
            pieces in prop::collection::vec(prop::sample::select(STRING_PIECES.to_vec()), 0..8),
            shape in 0usize..4,
        ) {
            let body = pieces.concat();
            let doc = match shape {
                0 => format!("\"{body}\""),
                1 => format!("\"{body}"),
                2 => format!("{{\"{body}\": [\"{body}\"]}}"),
                _ => format!("[\"{body}\", 1]"),
            };
            let oracle = Parser { per_char: true, ..Parser::new(&doc) }.document();
            prop_assert_eq!(Json::parse(&doc), oracle, "{:?}", doc);
        }
    }
}
