//! The workspace's one JSON codec: a recursive-descent parser and a
//! deterministic renderer, no external deps.
//!
//! Every JSON document the workspace writes — the service's JSON-lines
//! protocol, Chrome traces, lint/SARIF logs, certificates, metrics, span
//! trees, flight dumps, `BENCH_sim.json` and the watchdog verdict — is
//! built as a [`Json`] value and rendered here; no other module spells
//! braces, separators or escapes by hand. Three properties matter:
//!
//! * **No panics on hostile input** — the parser returns `Err` for
//!   anything malformed and bounds recursion depth, so a fuzzer (or a
//!   misbehaving client) cannot crash the service (the codec proptests
//!   pin this).
//! * **Deterministic rendering** — objects preserve insertion order
//!   (`Vec<(String, Json)>`, not a hash map), numbers render via Rust's
//!   shortest-round-trip formatting, so equal values always produce
//!   byte-identical text. Byte-identical response streams across worker
//!   counts build on this.
//! * **Always valid output** — non-finite numbers render as `null`, and
//!   strings escape quotes, backslashes and control characters, so any
//!   value renders to text that parses back to it.
//!
//! Two layouts: [`Json::render`] is compact (one response line), and
//! [`Json::render_doc`] puts one record per line for artifact files.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always an f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and rendered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document. The whole input must be consumed (trailing
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Render compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render as a document, one record per line: each member of a
    /// top-level object and each element of an array that is the document
    /// or one of its members goes on its own line; everything deeper is
    /// compact, as in [`Json::render`]. Ends with a newline.
    pub fn render_doc(&self) -> String {
        let mut out = String::new();
        self.write_doc(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_doc(&self, out: &mut String, depth: usize) {
        match self {
            Json::Obj(fields) if depth == 0 && !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n  " } else { "\n  " });
                    write_str(k, out);
                    out.push(':');
                    v.write_doc(out, 1);
                }
                out.push_str("\n}");
            }
            Json::Arr(items) if depth <= 1 && !items.is_empty() => {
                let indent = "  ".repeat(depth + 1);
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&indent);
                    v.write(out);
                }
                out.push('\n');
                out.push_str(&indent[2..]);
                out.push(']');
            }
            _ => self.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The largest integer a JSON number (an f64) holds together with all
    /// its neighbours: 2^53 − 1. Past it a number no longer names one
    /// integer (`9007199254740993` parses as `…992`).
    pub const MAX_SAFE_INT: u64 = (1 << 53) - 1;

    /// The numeric payload as a u64, if it is an integer in
    /// `0..=`[`Json::MAX_SAFE_INT`]. Larger numbers are refused rather than
    /// read as whatever integer the f64 rounded them to.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= Json::MAX_SAFE_INT as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as a usize, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a number value.
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// Shorthand for an integer value.
    pub fn int(x: u64) -> Json {
        Json::Num(x as f64)
    }

    /// `x` rounded to `places` decimals — the value `format!("{x:.places$}")`
    /// spells, rendered shortest (`40.000` becomes `40`).
    pub fn rounded(x: f64, places: usize) -> Json {
        Json::Num(format!("{x:.places$}").parse().unwrap_or(x))
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to a value.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Numbers convert as is; integers are exact up to 2^53, like [`Json::int`].
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}

from_number!(f64, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::str(s)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Append `s` as a quoted string literal: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab take their short
/// forms, other control characters `\u00XX`; everything else passes
/// through unchanged.
fn write_str(s: &str, out: &mut String) {
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

/// Numbers render integer-exact when they are integers, else with Rust's
/// shortest round-trip float formatting; NaN/inf (unrepresentable in JSON)
/// render as null.
fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                            let code = self.hex4(self.pos + 1).ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(self.escaped_char(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is &str, so
                    // slicing at char boundaries is safe via char_indices).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Four hex digits at byte `at`, if they are there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
    }

    /// The char a `\uXXXX` escape (already read, ending at `pos`) names.
    /// A high surrogate followed by a `\u` low surrogate decodes as the
    /// pair (consuming it), the way JSON spells non-BMP characters; a lone
    /// surrogate is `None`.
    fn escaped_char(&mut self, code: u32) -> Option<char> {
        if (0xD800..0xDC00).contains(&code)
            && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            let low = self.hex4(self.pos + 3)?;
            if (0xDC00..0xE000).contains(&low) {
                self.pos += 6;
                return char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00));
            }
        }
        char::from_u32(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        let x: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            r#"{"id":1,"query":{"kind":"exchange","n":32,"bytes":1024}}"#,
            r#"[1,2.5,-3,"x",true,false,null]"#,
            r#"{"s":"a\"b\\c\nd"}"#,
            r#"{}"#,
            r#"[]"#,
        ] {
            let v = Json::parse(text).unwrap();
            let rendered = v.render();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{text}");
            // Render is a fixed point: parse(render(v)) renders identically.
            assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
        }
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for text in [
            "",
            "{",
            "}",
            "[",
            "nul",
            "truee x",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "{\"a\":1,}",
            "[1,]",
            "\"\\q\"",
            "\"unterminated",
            "1e999",
            "--1",
            "{\"a\":1}x",
            "\u{1}",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
        // Depth bomb: deep nesting is rejected, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numbers_render_canonically() {
        assert_eq!(Json::int(0).render(), "0");
        assert_eq!(Json::num(1.5).render(), "1.5");
        assert_eq!(Json::num(-2.0).render(), "-2");
        assert_eq!(Json::num(f64::NAN).render(), "null");
        assert_eq!(Json::parse("1e3").unwrap().render(), "1000");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let s = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "\u{1F600}");
        assert_eq!(s(r#""a\uD834\uDD1Eb""#), "a\u{1D11E}b");
        // Lone surrogates, either half, degrade to U+FFFD.
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1F600}");
        for bad in [r#""\ud83d\uZZZZ""#, r#""\u+123""#, r#""\u12""#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        let v = Json::obj([
            ("ratio", Json::num(f64::INFINITY)),
            ("x", Json::rounded(f64::NEG_INFINITY, 3)),
        ]);
        assert_eq!(v.render(), r#"{"ratio":null,"x":null}"#);
        assert!(Json::parse(&v.render_doc()).is_ok());
    }

    #[test]
    fn rounded_keeps_the_fixed_decimal_value() {
        assert_eq!(Json::rounded(40.0, 3).render(), "40");
        assert_eq!(Json::rounded(2.0 / 3.0, 4).render(), "0.6667");
        assert_eq!(Json::rounded(1.23456, 1).render(), "1.2");
        for x in [0.1234567, 12.5, 1e-9, 987_654.321_987] {
            let text = format!("{x:.3}");
            assert_eq!(Json::rounded(x, 3), Json::parse(&text).unwrap(), "{text}");
        }
    }

    #[test]
    fn render_doc_puts_one_record_per_line() {
        let v = Json::obj([
            ("schema", Json::str("cm5-x/1")),
            (
                "rows",
                Json::arr([Json::obj([("a", Json::arr([1u64, 2]))]), Json::Null]),
            ),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("k", Json::arr(["v"]))])),
        ]);
        assert_eq!(
            v.render_doc(),
            "{\n  \"schema\":\"cm5-x/1\",\n  \"rows\":[\n    {\"a\":[1,2]},\n    null\n  ],\n  \
             \"empty\":[],\n  \"nested\":{\"k\":[\"v\"]}\n}\n"
        );
        assert_eq!(Json::arr([1u64, 2]).render_doc(), "[\n  1,\n  2\n]\n");
        assert_eq!(Json::obj::<&str>([]).render_doc(), "{}\n");
        assert_eq!(Json::parse(&v.render_doc()).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
    }
}
