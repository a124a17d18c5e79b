//! The workspace's one JSON codec: a small cursor parser and a string
//! escaper.
//!
//! Every JSON text this crate reads is parsed here, and every string it
//! writes into JSON is escaped here: the serve line protocol
//! ([`crate::serve`]), `repro sweep --format json` ([`crate::sweep`]) and
//! the `BENCH_*.json` baselines ([`crate::bench`]). Each format lays out
//! its own fixed field order when writing. Callers drive the [`Parser`]
//! field by field, so each format keeps its own strictness (serve
//! requests reject unknown fields; frames and baselines skip them). Input
//! from outside is bounded: [`Parser::skip_value`] refuses nesting deeper
//! than [`MAX_DEPTH`] with an error instead of recursing without limit.

use std::fmt;

/// A JSON parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Every reader of this crate reports failures as text, so `?` turns a
/// parse error into its message.
impl From<Error> for String {
    fn from(err: Error) -> String {
        err.message
    }
}

/// Appends `text` as a quoted, escaped JSON string.
pub fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Parser::skip_value`] walks
/// through. No format of this crate nests past four levels; the cap only
/// keeps a hostile line from exhausting the stack.
pub const MAX_DEPTH: usize = 64;

/// A cursor over JSON text: [`Parser::object`] and [`Parser::array`] walk
/// containers and hand each member or element to the caller, which reads
/// it with the typed leaf readers (or skips it).
#[derive(Debug)]
pub struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `input`.
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        Parser { input, bytes: input.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(Error::new(format!(
                "expected `{}`, found `{}` at byte {}",
                byte as char, b as char, self.pos
            ))),
            None => Err(Error::new(format!("expected `{}`, found end of input", byte as char))),
        }
    }

    /// Reads one object, handing each member's key to `member`, which
    /// must read the member's value.
    ///
    /// # Errors
    ///
    /// Fails on malformed input, or with the first error of `member`.
    pub fn object<E: From<Error>>(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'{')?;
        let mut first = true;
        while !self.next_item(b'}', &mut first)? {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
        }
        Ok(())
    }

    /// Reads one array, handing the cursor to `element` once per element,
    /// which must read it.
    ///
    /// # Errors
    ///
    /// Fails on malformed input, or with the first error of `element`.
    pub fn array<E: From<Error>>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'[')?;
        let mut first = true;
        while !self.next_item(b']', &mut first)? {
            element(self)?;
        }
        Ok(())
    }

    /// At the top of an object-member or array-element loop: consumes
    /// `close` and reports `true` when the container ends, otherwise
    /// consumes the separating comma (except before the first item) and
    /// reports `false`.
    fn next_item(&mut self, close: u8, first: &mut bool) -> Result<bool, Error> {
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(true);
        }
        if *first {
            *first = false;
        } else {
            self.expect(b',')?;
        }
        Ok(false)
    }

    /// Parses a quoted JSON string.
    ///
    /// # Errors
    ///
    /// Fails on a missing opening quote, an invalid escape, or an
    /// unterminated string.
    pub fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => text.push('"'),
                        b'\\' => text.push('\\'),
                        b'/' => text.push('/'),
                        b'n' => text.push('\n'),
                        b'r' => text.push('\r'),
                        b't' => text.push('\t'),
                        b'b' => text.push('\u{8}'),
                        b'f' => text.push('\u{c}'),
                        b'u' => {
                            let code = self.hex_escape()?;
                            let ch = if (0xd800..0xdc00).contains(&code) {
                                // High surrogate: must pair with a following
                                // \uDC00..\uDFFF low surrogate (how JSON
                                // escapes characters outside the BMP).
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(Error::new("unpaired surrogate in \\u escape"));
                                }
                                self.pos += 2;
                                let low = self.hex_escape()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(Error::new("invalid low surrogate in \\u escape"));
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?
                            };
                            text.push(ch);
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go: both are ASCII, so the run ends on a character
                    // boundary, and the cost stays linear in the string.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    text.push_str(&self.input[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself already
    /// consumed) and returns the code unit.
    fn hex_escape(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        self.pos += 4;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::new("non-ascii \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))
    }

    /// Returns the raw text of a JSON number token.
    ///
    /// # Errors
    ///
    /// Fails if the next token does not start a number.
    pub fn number_text(&mut self) -> Result<&'a str, Error> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(Error::new(format!("expected a number at byte {start}")));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parses one number token as a `T`; errors name the `field` it
    /// belongs to.
    ///
    /// # Errors
    ///
    /// Fails if the next token is not a number or does not fit `T`.
    pub fn number<T: std::str::FromStr>(&mut self, field: &str) -> Result<T, Error> {
        let text =
            self.number_text().map_err(|err| Error::new(format!("field `{field}`: {err}")))?;
        text.parse().map_err(|_| Error::new(format!("field `{field}`: invalid number `{text}`")))
    }

    /// Parses `true` or `false`.
    ///
    /// # Errors
    ///
    /// Fails if the next token is neither.
    pub fn boolean(&mut self) -> Result<bool, Error> {
        if self.try_keyword("true") {
            Ok(true)
        } else if self.try_keyword("false") {
            Ok(false)
        } else {
            Err(Error::new("expected `true` or `false`"))
        }
    }

    /// Consumes `null` if present, reporting whether it did.
    pub fn try_null(&mut self) -> bool {
        self.try_keyword("null")
    }

    fn try_keyword(&mut self, keyword: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    /// Skips one complete JSON value (used for unknown object fields of
    /// the formats that tolerate them).
    ///
    /// # Errors
    ///
    /// Fails on malformed input and on arrays or objects nested deeper
    /// than [`MAX_DEPTH`].
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.skip_nested(0)
    }

    /// [`Parser::skip_value`] for a value inside `depth` open arrays or
    /// objects.
    fn skip_nested(&mut self, depth: usize) -> Result<(), Error> {
        let next = self.peek();
        if matches!(next, Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        match next {
            Some(b'"') => {
                self.string()?;
            }
            Some(b'{') => self.object(|parser, _| parser.skip_nested(depth + 1))?,
            Some(b'[') => self.array(|parser| parser.skip_nested(depth + 1))?,
            Some(b't') | Some(b'f') => {
                self.boolean()?;
            }
            Some(b'n') => {
                if !self.try_null() {
                    return Err(Error::new("expected `null`"));
                }
            }
            Some(_) => {
                self.number_text()?;
            }
            None => return Err(Error::new("expected a value, found end of input")),
        }
        Ok(())
    }

    /// Verifies that only whitespace remains.
    ///
    /// # Errors
    ///
    /// Fails if non-whitespace input follows the parsed value.
    pub fn finish(&mut self) -> Result<(), Error> {
        if let Some(b) = self.peek() {
            return Err(Error::new(format!(
                "trailing characters starting with `{}` at byte {}",
                b as char, self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(text: &str) -> Result<String, Error> {
        let mut parser = Parser::new(text);
        let value = parser.string()?;
        parser.finish()?;
        Ok(value)
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        // Characters outside the BMP are escaped as UTF-16 surrogate pairs.
        assert_eq!(string(r#""\ud83d\ude00""#).unwrap(), "\u{1f600}");
        // Raw (unescaped) non-BMP characters are copied as they are.
        assert_eq!(string("\"a😀b\"").unwrap(), "a\u{1f600}b");
        // Unpaired or malformed surrogates are rejected, not mis-decoded.
        assert!(string(r#""\ud83d""#).is_err());
        assert!(string(r#""\ud83dx""#).is_err());
        assert!(string(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn strings_round_trip_through_write_string() {
        for text in ["plain", "a\"b\\c\nd", "\u{1}\t\r", "é😀"] {
            let mut quoted = String::new();
            write_string(text, &mut quoted);
            assert_eq!(string(&quoted).unwrap(), text, "{quoted}");
        }
        let mut quoted = String::new();
        write_string("a\"b\\c\nd\u{1}", &mut quoted);
        assert_eq!(quoted, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A request line may hold 1 MiB of string. Copying it run by run
        // takes milliseconds; re-validating the rest of the input once per
        // character took seconds.
        let text = format!("\"{}\\n{}\"", "a".repeat(1 << 19), "é".repeat(1 << 18));
        let start = std::time::Instant::now();
        let parsed = string(&text).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "{:?}", start.elapsed());
        assert_eq!(parsed.len(), (1 << 19) + 1 + (2 << 18));
    }

    #[test]
    fn nested_unknown_values_are_skipped() {
        let mut parser = Parser::new(r#"{"extra":{"nested":[true,null,-1.5e3,"x",{}]},"id":7} "#);
        let mut id = None;
        parser
            .object(|parser, key| match key.as_str() {
                "id" => parser.number("id").map(|n: u64| id = Some(n)),
                _ => parser.skip_value(),
            })
            .unwrap();
        parser.finish().unwrap();
        assert_eq!(id, Some(7));
    }

    #[test]
    fn trailing_input_is_rejected() {
        let mut parser = Parser::new("\"done\" junk");
        parser.string().unwrap();
        let err = parser.finish().unwrap_err().to_string();
        assert!(err.contains("trailing characters"), "{err}");
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Parser::new(&nested(MAX_DEPTH)).skip_value().is_ok());
        let err = Parser::new(&nested(MAX_DEPTH + 1)).skip_value().unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        // Far past any stack: refused at the cap, without recursing further.
        assert!(Parser::new(&nested(200_000)).skip_value().is_err());
    }
}
