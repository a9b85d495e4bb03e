//! A minimal recursive-descent JSON parser for the integration tests.
//!
//! The workspace deliberately has zero external dependencies, so nothing
//! else checks that the hand-rolled Chrome-trace writers emit well-formed
//! JSON. This parser builds a full [`Value`] DOM (the trace tests walk
//! records and cross-check fields, which a validating scanner cannot do),
//! rejects malformed documents and trailing garbage, and decodes string
//! escapes so round-trip assertions compare *values*, not raw bytes.
//!
//! It is a test instrument, not a library: numbers are `f64` (every
//! virtual timestamp the simulator emits fits losslessly), and there is
//! no serialization half.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers; use [`Value::as_u64`] for exact timestamps.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is preserved as written.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer. `None` when the
    /// value is not a number, is negative, has a fractional part, or
    /// exceeds `f64`'s exact-integer range (2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as u64)
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Every string value in the subtree, in document order (object keys
    /// excluded). The escaping tests use this to prove hostile names
    /// survive the writer intact.
    pub fn strings(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(v: &'a Value, out: &mut Vec<&'a str>) {
            match v {
                Value::Str(s) => out.push(s),
                Value::Arr(items) => items.iter().for_each(|v| walk(v, out)),
                Value::Obj(fields) => fields.iter().for_each(|(_, v)| walk(v, out)),
                _ => {}
            }
        }
        walk(self, &mut out);
        out
    }
}

/// Parse a complete document, failing on malformed input or trailing
/// garbage.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("bad object separator {other:?}")),
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    /// Parse a string literal, returning its *decoded* value.
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Multi-byte UTF-8 passes through unescaped; consume
                    // whole characters, not bytes. The document came in
                    // as a `&str`, so the lead byte gives the length and
                    // only those bytes are decoded.
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0x80..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xff => 4,
                    };
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.pos))?;
                    if (c as u32) < 0x20 {
                        return Err(format!("unescaped control char {c:?}"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>().map(Value::Num).map_err(|e| e.to_string())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom_accessors_expose_the_document() {
        let v = parse(r#"{"a": [1, "two", true, null], "b": {"c": 42}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("two")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.strings(), vec!["two"]);
    }

    #[test]
    fn multi_byte_characters_pass_through_whole() {
        // 2, 3 and 4 bytes, next to ASCII and next to each other.
        let v = parse("[\"caf\u{e9}s\", \"\u{20ac}5\", \"a\u{1f980}\u{e9}\u{20ac}z\"]").unwrap();
        assert_eq!(
            v.strings(),
            ["caf\u{e9}s", "\u{20ac}5", "a\u{1f980}\u{e9}\u{20ac}z"]
        );
        // A multi-byte character as the last string byte of the document:
        // nothing past the closing quote is there to be read.
        for c in ['\u{e9}', '\u{20ac}', '\u{1f980}'] {
            let doc = format!("\"x{c}\"");
            assert_eq!(parse(&doc).unwrap().as_str(), Some(&doc[1..doc.len() - 1]));
            // ... and cut off before its closing quote.
            assert_eq!(
                parse(&doc[..doc.len() - 1]),
                Err("unterminated string".into())
            );
        }
    }

    #[test]
    fn unescaped_control_characters_are_rejected() {
        assert!(parse("\"a\u{1}b\"").unwrap_err().contains("control char"));
        assert!(parse("\"line\nbreak\"")
            .unwrap_err()
            .contains("control char"));
        assert_eq!(parse(r#""tab\tbed""#).unwrap().as_str(), Some("tab\tbed"));
    }

    #[test]
    fn as_u64_refuses_lossy_conversions() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
    }
}
