//! Minimal JSON support for the structured sinks: allocation-free writer
//! helpers and a small validating parser.
//!
//! The workspace has no serialization framework (the build environment has
//! no registry access), so the sinks hand-write their JSON. Two invariants
//! live here:
//!
//! * **Non-finite floats serialize as `null`** ([`write_f64`]/[`push_f64`]) —
//!   untraced-iteration WNS/TNS are `NAN` in-memory and a naive `{}`-format
//!   would emit the invalid token `NaN`.
//! * **Everything emitted must parse back**: [`parse`] is a strict
//!   recursive-descent parser used by the tests, `bench_obs`, and CI to
//!   validate `metrics.json` and every JSONL line.

use std::fmt::Write as FmtWrite;
use std::io::{self, Write};

/// Writes `v` as a JSON number, or `null` when `v` is not finite.
///
/// Rust's `{}` float formatting never produces exponents or locale
/// separators, so finite values are always valid JSON number tokens. The
/// write is allocation-free (std formats floats on the stack).
#[inline]
pub fn write_f64(w: &mut dyn Write, v: f64) -> io::Result<()> {
    if v.is_finite() {
        write!(w, "{v}")
    } else {
        w.write_all(b"null")
    }
}

/// String-building counterpart of [`write_f64`].
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn push_str_escaped(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Appends this value as compact JSON (objects keep member order, so a
    /// parse → re-serialize round trip is byte-stable for sink output).
    pub fn push_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => push_f64(out, *v),
            Value::Str(s) => push_str_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.push_json(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_escaped(out, k);
                    out.push(':');
                    v.push_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses exactly one JSON value from `s` (surrounding whitespace allowed;
/// trailing non-whitespace is an error).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
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

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.expect_word("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.expect_word("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.expect_word("null").map(|_| Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
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
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("lone surrogate")?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte at {}", self.pos))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_serialize_as_null() {
        // The TracePoint-NAN fix: untraced WNS/TNS are NAN in memory and
        // must become `null` on the wire, not the invalid token `NaN`.
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        s.push(',');
        push_f64(&mut s, f64::INFINITY);
        s.push(',');
        push_f64(&mut s, f64::NEG_INFINITY);
        s.push(',');
        push_f64(&mut s, -1.25);
        assert_eq!(s, "null,null,null,-1.25");

        let mut buf: Vec<u8> = Vec::new();
        write_f64(&mut buf, f64::NAN).unwrap();
        buf.push(b' ');
        write_f64(&mut buf, 2.5).unwrap();
        assert_eq!(buf, b"null 2.5");

        // And the result must parse as valid JSON.
        let v = parse("[null, null, null, -1.25]").unwrap();
        let arr = v.as_array().unwrap();
        assert!(arr[0].is_null());
        assert_eq!(arr[3].as_f64(), Some(-1.25));
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}é";
        let mut s = String::new();
        push_str_escaped(&mut s, nasty);
        let v = parse(&s).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn parser_accepts_typical_metrics_shapes() {
        let v = parse(
            r#"{"schema":"dtp-metrics-v1","qor":{"wns":-12.5,"tns":null},
               "phases":[{"phase":"sta_forward","seconds":1.5e-3,"calls":40}],
               "ok":true,"empty":{},"list":[]}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("dtp-metrics-v1"));
        assert!(v.get("qor").unwrap().get("tns").unwrap().is_null());
        let phases = v.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases[0].get("calls").unwrap().as_f64(), Some(40.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parser_rejects_invalid_inputs() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "NaN", "{'a':1}", "[1] trailing",
            "\"unterminated", "01e", "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted invalid JSON: {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        // Raw UTF-8 pass-through.
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        // \uXXXX escapes, including a surrogate pair.
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        // A lone high surrogate is invalid.
        assert!(parse("\"\\ud83d\"").is_err());
    }
}
