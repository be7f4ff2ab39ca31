//! The one zero-copy cursor under every reader of this crate.
//!
//! A [`Cursor`] walks the bytes of an input text once, counts lines, and
//! hands out tokens as `&str` slices of that text: no token vector, no
//! per-token or per-statement `String`. Three faces share the state, one per
//! lexical family: [`Cursor::verilog_token`], [`Cursor::def_statement`] and
//! [`Cursor::record_line`] (Bookshelf and the `.classes` sidecar). DESIGN.md,
//! "netlist storage", has the token grammar of each.
//!
//! Error contract: every failure is a [`NetlistError::Parse`] naming the file
//! kind and a 1-based line; no input makes a reader panic, and a count read
//! from the input is clamped by [`Cursor::clamp_count`] before anything is
//! allocated for it.

use crate::error::NetlistError;

pub(crate) struct Cursor<'a> {
    kind: &'static str,
    text: &'a str,
    pos: usize,
    line: usize,
}

/// Single-character Verilog tokens.
const VERILOG_SYMBOLS: &[u8] = b"();,.=";

// Byte classes, one table lookup per input byte.
const SPACE: u8 = 1; // ASCII whitespace, `\n` included
const VERILOG_WORD: u8 = 2; // alphanumerics and `_ \ [ ] $ -`
const DEF_TOKEN: u8 = 4; // anything but whitespace and `( ) ; #`
const WIDE: u8 = 8; // part of a non-ASCII character
static CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        table[i] = if b >= 0x80 {
            WIDE
        } else if matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c) {
            SPACE
        } else {
            let word = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'\\' | b'[' | b']' | b'$' | b'-');
            let def = !matches!(b, b'(' | b')' | b';' | b'#');
            (if word { VERILOG_WORD } else { 0 }) | (if def { DEF_TOKEN } else { 0 })
        };
        i += 1;
    }
    table
};

/// Whether `token` (from [`Cursor::verilog_token`]) is an identifier.
pub(crate) fn is_word(token: &str) -> bool {
    !(token.len() == 1 && VERILOG_SYMBOLS.contains(&token.as_bytes()[0]))
}

/// Splits a record line into fields at whitespace (and at `:` when `colon`).
pub(crate) fn fields(line: &str, colon: bool) -> impl Iterator<Item = &str> {
    line.split(move |c: char| c.is_whitespace() || (colon && c == ':')).filter(|f| !f.is_empty())
}

/// Parses a finite number; `NaN`/`inf` spellings and garbage are `None`.
pub(crate) fn finite(token: &str) -> Option<f64> {
    token.parse::<f64>().ok().filter(|v| v.is_finite())
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(kind: &'static str, text: &'a str) -> Self {
        Cursor { kind, text, pos: 0, line: 1 }
    }

    /// A parse error at the current line.
    pub(crate) fn err(&self, message: impl Into<String>) -> NetlistError {
        self.err_at(self.line, message)
    }

    pub(crate) fn err_at(&self, line: usize, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse { kind: self.kind, line, message: message.into() }
    }

    /// A table-size hint from the text: `count` as declared by the input (or
    /// `usize::MAX` for "whatever fits"), clamped by the bytes that remain at
    /// `min_bytes` per entry — so no header can ask for more than the file
    /// could possibly hold.
    pub(crate) fn clamp_count(&self, count: usize, min_bytes: usize) -> usize {
        count.min(self.text.len().saturating_sub(self.pos) / min_bytes + 1)
    }

    fn char_at(&self, at: usize) -> char {
        self.text[at..].chars().next().expect("cursor stays on char boundaries inside the text")
    }

    /// Skips whitespace (Unicode, like `char::is_whitespace`), counting lines.
    fn skip_space(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match CLASS[b as usize] {
                SPACE => self.line += usize::from(b == b'\n'),
                WIDE if self.char_at(self.pos).is_whitespace() => {
                    self.pos += self.char_at(self.pos).len_utf8() - 1;
                }
                _ => return,
            }
            self.pos += 1;
        }
    }

    fn skip_to_eol(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// Extends a token from `self.pos` over the ASCII bytes of `class` and
    /// the non-ASCII characters `wide` accepts.
    fn take(&mut self, class: u8, wide: impl Fn(char) -> bool) -> &'a str {
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        while let Some(&b) = bytes.get(self.pos) {
            if CLASS[b as usize] & class != 0 {
                self.pos += 1;
            } else if b >= 0x80 && wide(self.char_at(self.pos)) {
                self.pos += self.char_at(self.pos).len_utf8();
            } else {
                break;
            }
        }
        &self.text[start..self.pos]
    }

    /// Next Verilog token: one of `( ) ; , . =`, or an identifier — a run of
    /// alphanumerics and `_ \ [ ] $` (and `-` after the first character) with
    /// leading `\` stripped. `//` and `/* */` comments are skipped.
    pub(crate) fn verilog_token(&mut self) -> Result<Option<&'a str>, NetlistError> {
        loop {
            self.skip_space();
            let bytes = self.text.as_bytes();
            let Some(&b) = bytes.get(self.pos) else { return Ok(None) };
            if b == b'/' && bytes.get(self.pos + 1) == Some(&b'/') {
                self.skip_to_eol();
            } else if b == b'/' && bytes.get(self.pos + 1) == Some(&b'*') {
                let body = &self.text[self.pos + 2..];
                let end = body.find("*/").ok_or_else(|| self.err("unterminated block comment"))?;
                self.line += body[..end].bytes().filter(|&b| b == b'\n').count();
                self.pos += end + 4;
            } else if VERILOG_SYMBOLS.contains(&b) {
                self.pos += 1;
                return Ok(Some(&self.text[self.pos - 1..self.pos]));
            } else {
                let word = if b == b'-' { "" } else { self.take(VERILOG_WORD, char::is_alphanumeric) };
                if word.is_empty() {
                    return Err(self.err(format!("unexpected character `{}`", self.char_at(self.pos))));
                }
                return Ok(Some(word.trim_start_matches('\\')));
            }
        }
    }

    /// Next DEF statement into `out` (cleared first): the tokens up to a `;`,
    /// or the two tokens of an `END <section>` line. Tokens are separated by
    /// whitespace, `(` and `)`; `#` starts a comment that runs to the end of
    /// the line. Returns the statement's first line, `None` at end of input
    /// (a last statement without its `;` is still returned).
    pub(crate) fn def_statement(&mut self, out: &mut Vec<&'a str>) -> Option<usize> {
        out.clear();
        let mut first_line = self.line;
        loop {
            self.skip_space();
            match self.text.as_bytes().get(self.pos) {
                None => return (!out.is_empty()).then_some(first_line),
                Some(b'#') => self.skip_to_eol(),
                Some(b'(' | b')') => self.pos += 1,
                Some(b';') => {
                    self.pos += 1;
                    if !out.is_empty() {
                        return Some(first_line);
                    }
                }
                Some(_) => {
                    if out.is_empty() {
                        first_line = self.line;
                    }
                    out.push(self.take(DEF_TOKEN, |c| !c.is_whitespace()));
                    if out.len() == 2 && out[0] == "END" {
                        return Some(first_line);
                    }
                }
            }
        }
    }

    /// Next record line of a line-oriented file, trimmed; blank lines, `#`
    /// comments and `UCLA` banners are skipped. [`Cursor::err`] then names its line.
    pub(crate) fn record_line(&mut self) -> Option<&'a str> {
        while self.pos < self.text.len() {
            let rest = &self.text[self.pos..];
            let len = rest.find('\n').unwrap_or(rest.len());
            self.line += usize::from(self.pos > 0);
            self.pos += len + 1;
            let line = rest[..len].trim();
            if !(line.is_empty() || line.starts_with('#') || line.starts_with("UCLA")) {
                return Some(line);
            }
        }
        None
    }
}
