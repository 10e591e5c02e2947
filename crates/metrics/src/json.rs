//! The workspace's one JSON module: a value type with a recursive-descent
//! parser ([`Json`]) and the string escaper ([`escape`]).
//!
//! Every JSON artefact the workspace reads — metrics snapshots, the budget
//! fixture, counterexamples, campaign trace files, bench results and
//! baselines — goes through [`Json::parse`]; JSON-lines files are parsed
//! one line at a time. Writers keep their own `format!` layouts (fixtures
//! pin their bytes), but every string field they emit goes through
//! [`escape`]. The workspace is offline, so there is no serde.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, held as its literal text so integers convert exactly
    /// ([`Json::as_u64`]) and reals as `f64` ([`Json::as_f64`]).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (the first field named `key`).
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

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number written as an integer in
    /// `u64` range; exact over the whole range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` for the inside of a JSON string literal (RFC 8259 §7):
/// `"`, `\` and every control character below U+0020. Everything else,
/// non-ASCII included, passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    /// Decodes a string literal. Unescaped runs are copied as `&str`
    /// slices: `"` and `\` are ASCII, so every run ends on a character
    /// boundary and decoding is linear in the literal's length.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes `uXXXX` (the parser sits on the `u`) and leaves the parser
    /// on the last hex digit. A surrogate code unit decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos += 4;
        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Scans a number literal and keeps its text; the literal must read
    /// as an `f64`, as it did when numbers were stored as one.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(format!("bad number {text:?} at offset {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            r#"{"schema": "mpc-aborts/bench-results/v1",
                "meta": {"git_rev": "abc1234", "build_profile": "release"},
                "experiments": [{"id": "E16", "rows": [["a", "1.20"], []]}, {}]}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mpc-aborts/bench-results/v1")
        );
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("build_profile"))
                .and_then(Json::as_str),
            Some("release")
        );
        let experiments = doc.get("experiments").and_then(Json::as_array).unwrap();
        assert_eq!(experiments.len(), 2);
        let rows = experiments[0].get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("1.20"));
        assert_eq!(rows[1], Json::Arr(Vec::new()));
        assert_eq!(experiments[1], Json::Obj(Vec::new()));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(rows[0].get("schema"), None, "get on a non-object");
    }

    #[test]
    fn scalars_escapes_and_unicode() {
        let tricky = Json::parse(r#"{"a": "q\"\\\nAé", "b": [1e3, -2.5, null, true]}"#).unwrap();
        assert_eq!(tricky.get("a").and_then(Json::as_str), Some("q\"\\\nAé"));
        let b = tricky.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(b[0].as_f64(), Some(1000.0));
        assert_eq!(b[1].as_f64(), Some(-2.5));
        assert_eq!(b[2], Json::Null);
        assert_eq!(b[3], Json::Bool(true));
        let escapes = Json::parse(r#""\/\b\f\r\t\u00e9\u00B5\ud800x""#).unwrap();
        assert_eq!(escapes.as_str(), Some("/\u{8}\u{c}\r\té\u{b5}\u{fffd}x"));
        assert_eq!(
            Json::parse("\"latency.µs\"").unwrap().as_str(),
            Some("latency.µs"),
            "raw multi-byte UTF-8 is kept as written"
        );
    }

    #[test]
    fn integers_convert_exactly() {
        for n in [0, 1, 12_835_850_853_227_824_550, u64::MAX] {
            let doc = Json::parse(&format!("{{\"seed\": {n}}}")).unwrap();
            assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(n));
        }
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_str(), None);
    }

    #[test]
    fn booleans_read_back() {
        assert_eq!(Json::parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(Json::parse(" false ").unwrap().as_bool(), Some(false));
        assert_eq!(Json::parse("null").unwrap().as_bool(), None);
        assert_eq!(Json::parse("1").unwrap().as_bool(), None);
    }

    #[test]
    fn escape_round_trips_every_control_character() {
        let mut all: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        all.push_str("\"\\ plain µ \u{7f} \u{1f600}");
        let escaped = escape(&all);
        assert!(
            escaped.chars().all(|c| (c as u32) >= 0x20),
            "no raw control character survives: {escaped:?}"
        );
        let literal = format!("\"{escaped}\"");
        assert_eq!(Json::parse(&literal).unwrap().as_str(), Some(all.as_str()));
        assert_eq!(escape("tab\there"), "tab\\there");
        assert_eq!(escape("\u{1}x"), "\\u0001x");
        assert_eq!(escape("latency.µs"), "latency.µs");
    }

    #[test]
    fn structural_errors_surface() {
        for bad in [
            "",
            "[1, 2",
            "{\"a\" 1}",
            "[] trailing",
            "{\"a\": 1,}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "tru",
            "-",
            "1.2.3",
            "{1: 2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
