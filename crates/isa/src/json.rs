//! A tiny self-contained JSON layer for ISA specs.
//!
//! The workspace builds hermetically with no external crates, so instead of
//! serde this module provides the few pieces spec serialization needs: a
//! JSON value type preserving object key order, a strict recursive-descent
//! parser, and a pretty printer that matches the `serde_json` layout the
//! spec files were originally written in (2-space indent, `"key": value`).

use std::collections::HashSet;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion order so specs render with
/// stable, human-diffable field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation (serde_json `to_string_pretty`
    /// compatible layout).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a frame of `[[[[…` overflows the
/// thread's stack; committed documents nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document, requiring that the whole input is consumed.
///
/// Runs in time linear in the input. Arrays and objects may nest at most
/// 128 levels deep; deeper input is an error, not a stack overflow.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{} at byte {}", what, self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return self.err(&format!("nesting deeper than {MAX_DEPTH} levels"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        // Keys seen so far: a hash set keeps the duplicate check linear
        // in the key count.
        let mut seen = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return self.err(&format!("duplicate key `{key}` in object"));
            }
            self.skip_ws();
            self.eat(b':')?;
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
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash in one slice: both are ASCII, so the run ends on
            // a char boundary of the `&str` input.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // A backslash: decode one escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, leaving `pos`
    /// on its last hex digit. A UTF-16 high surrogate directly followed by
    /// a `\u` low surrogate decodes as one character; an unpaired
    /// surrogate decodes as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&hi) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            if let Ok(lo @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                self.pos += 6;
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    /// The value of the four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let Some(digits) = self.bytes.get(at..at + 4) else {
            return self.err("truncated \\u escape");
        };
        digits.iter().try_fold(0, |acc, &d| {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| "bad \\u escape".to_string())?;
            Ok((acc << 4) | v)
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let src = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}}"#;
        let v = parse(src).unwrap();
        let back = parse(&v.pretty()).unwrap();
        assert_eq!(v, back);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64),
            Some(-2.5)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{not json").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn rejects_duplicate_keys_naming_the_key() {
        let err = parse("{\"mac\": 1, \"mac\": 2}").unwrap_err();
        assert!(
            err.contains("duplicate key `mac`"),
            "error must name the key: {err}"
        );
        // Nested objects are checked too; sibling objects may repeat keys.
        assert!(parse("{\"a\": {\"k\": 1, \"k\": 2}}").is_err());
        assert!(parse("{\"a\": {\"k\": 1}, \"b\": {\"k\": 2}}").is_ok());
    }

    #[test]
    fn large_objects_round_trip_and_still_reject_duplicates() {
        let fields: Vec<(String, Json)> = (0..64_000)
            .map(|i| (format!("k{i}"), Json::Num(i as f64)))
            .collect();
        let doc = Json::Obj(fields);
        let text = doc.pretty();
        assert_eq!(parse(&text).unwrap(), doc);

        // A repeat among many keys is reported with the same text (and
        // offset) as in a small object.
        let dup = text.replacen("\"k63999\"", "\"k5\"", 1);
        let at = dup.find("\"k5\": 63999").unwrap() + "\"k5\"".len();
        assert_eq!(
            parse(&dup).unwrap_err(),
            format!("duplicate key `k5` in object at byte {at}")
        );
        let small = "{\"a\": 1, \"b\": 2, \"a\": 3}";
        assert_eq!(
            parse(small).unwrap_err(),
            "duplicate key `a` in object at byte 20"
        );
    }

    #[test]
    fn large_multibyte_and_escaped_strings_round_trip() {
        let s: String = "aé€😀\"\\\n\t\u{1}/"
            .chars()
            .cycle()
            .take(200_000)
            .collect();
        let doc = Json::Arr(vec![Json::Str(s), Json::Str(String::new())]);
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(
            parse(r#""é\/\b\f""#).unwrap(),
            Json::Str("é/\u{8}\u{c}".into())
        );
        assert_eq!(parse(r#""ab\q""#).unwrap_err(), "bad escape at byte 4");
        assert_eq!(
            parse(r#""\u12"#).unwrap_err(),
            "truncated \\u escape at byte 2"
        );
        assert_eq!(parse(r#""\u12g4""#).unwrap_err(), "bad \\u escape");
        assert_eq!(parse("\"abc").unwrap_err(), "unterminated string at byte 4");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_become_replacement() {
        // What Python's json.dumps sends for U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(
            parse(r#""x\ud834\udd1ey""#).unwrap(),
            Json::Str("x\u{1D11E}y".into())
        );
        let jstr = |s: &str| Json::Str(s.into());
        assert_eq!(parse(r#""\ud83d""#).unwrap(), jstr("\u{fffd}"));
        assert_eq!(parse(r#""\ude00""#).unwrap(), jstr("\u{fffd}"));
        assert_eq!(parse(r#""\ud83dx""#).unwrap(), jstr("\u{fffd}x"));
        // A high surrogate followed by a non-surrogate escape keeps both.
        assert_eq!(parse(r#""\ud83d\u0041""#).unwrap(), jstr("\u{fffd}A"));
        assert_eq!(
            parse(r#""\ud83d\ud83d\ude00""#).unwrap(),
            jstr("\u{fffd}😀")
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Far deeper than any thread stack could recurse: still an error.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\": ".repeat(1 << 16)).is_err());
    }

    #[test]
    fn pretty_uses_two_space_indent() {
        let v = Json::Obj(vec![("k".into(), Json::Num(8.0))]);
        assert_eq!(v.pretty(), "{\n  \"k\": 8\n}");
    }
}
