//! Pull-based JSON event tokenizer and JSON emitter.
//!
//! This is the JSON twin of [`crate::events`]: it lexes a JSON document into
//! the exact same [`Event`] stream (`MappingStart` / `Key` / `SequenceStart`
//! / `Scalar` / `End` / `DocumentEnd`) so every consumer of the YAML
//! tokenizer — in particular the KubeFence streaming admission plane —
//! validates JSON bodies with no format-specific matcher code. As with the
//! YAML front end:
//!
//! * every event carries its source position (1-based line, 0-based byte
//!   offset into the buffer);
//! * string scalars and keys borrow from the input wherever no unescaping is
//!   required;
//! * duplicate object keys are rejected (a JSON parser that keeps "the last
//!   one wins" is a smuggling vector for an admission filter);
//! * no document tree is ever built — [`parse_json`] is a thin
//!   `TreeBuilder` (the shared tree-construction layer) over this
//!   tokenizer, mirroring how
//!   [`crate::parse`] sits on the YAML tokenizer.
//!
//! A JSON stream is always exactly one document: [`Event::DocumentEnd`] is
//! emitted after the root value, and any trailing non-whitespace is a parse
//! error (the analogue of YAML's multi-document rejection).

use std::borrow::Cow;

use crate::events::{too_deep, Event, Pos, ScalarToken, MAX_NESTING_DEPTH};
use crate::value::Value;
use crate::Error;

/// An open JSON container on the tokenizer stack.
#[derive(Debug, Clone, Copy)]
enum JFrame {
    /// An object; `keys_start` marks the start of its slice of the shared
    /// duplicate-detection key stack.
    Obj { keys_start: usize },
    /// An array.
    Arr,
}

/// What the state machine expects at the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    /// A value (the document root, an array element, or an object value).
    Value,
    /// The first element of an array, or `]`.
    FirstValueOrClose,
    /// The first key of an object, or `}`.
    KeyOrClose,
    /// A key (after a `,` inside an object).
    Key,
    /// `,` or the closing bracket of the innermost container; at the root,
    /// the document is complete.
    AfterValue,
    /// The document ended; only trailing whitespace is allowed.
    Done,
}

/// The pull-based JSON tokenizer. See the module docs for the event model.
#[derive(Debug)]
pub struct JsonTokenizer<'a> {
    text: &'a str,
    i: usize,
    line: usize,
    stack: Vec<JFrame>,
    /// Shared key stack for duplicate detection; each open object owns the
    /// suffix starting at its `keys_start`.
    keys: Vec<Cow<'a, str>>,
    state: JState,
}

impl<'a> JsonTokenizer<'a> {
    /// A tokenizer over `text`. Construction never fails; syntax errors
    /// surface as events are pulled.
    pub fn new(text: &'a str) -> Self {
        JsonTokenizer {
            text,
            i: 0,
            line: 1,
            stack: Vec::new(),
            keys: Vec::new(),
            state: JState::Value,
        }
    }

    /// Number of documents in the stream: always 1 (a JSON body is a single
    /// value). Mirrors [`crate::events::Tokenizer::document_count`].
    pub fn document_count(&self) -> usize {
        1
    }

    /// Pull the next event, or `None` at the end of the stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when the input is not a single well-formed
    /// JSON document. After an error the tokenizer state is unspecified and
    /// no further events should be pulled.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, Error> {
        loop {
            self.skip_ws();
            match self.state {
                JState::Done => {
                    return if self.i >= self.text.len() {
                        Ok(None)
                    } else {
                        Err(self.err("trailing characters after JSON document"))
                    };
                }
                JState::Value => return self.scan_value().map(Some),
                JState::FirstValueOrClose => {
                    if self.peek() == Some(b']') {
                        self.i += 1;
                        return Ok(Some(self.close_frame()));
                    }
                    self.state = JState::Value;
                }
                JState::KeyOrClose => {
                    if self.peek() == Some(b'}') {
                        self.i += 1;
                        return Ok(Some(self.close_frame()));
                    }
                    self.state = JState::Key;
                }
                JState::Key => {
                    return match self.peek() {
                        Some(b'"') => self.scan_key().map(Some),
                        Some(_) => Err(self.err("expected a string object key")),
                        None => Err(self.err("unexpected end of input inside object")),
                    };
                }
                JState::AfterValue => {
                    let Some(frame) = self.stack.last().copied() else {
                        self.state = JState::Done;
                        return Ok(Some(Event::DocumentEnd));
                    };
                    match (self.peek(), frame) {
                        (Some(b','), JFrame::Obj { .. }) => {
                            self.i += 1;
                            self.state = JState::Key;
                        }
                        (Some(b','), JFrame::Arr) => {
                            self.i += 1;
                            self.state = JState::Value;
                        }
                        (Some(b'}'), JFrame::Obj { .. }) => {
                            self.i += 1;
                            return Ok(Some(self.close_frame()));
                        }
                        (Some(b']'), JFrame::Arr) => {
                            self.i += 1;
                            return Ok(Some(self.close_frame()));
                        }
                        (Some(_), JFrame::Obj { .. }) => {
                            return Err(self.err("expected `,` or `}` in object"))
                        }
                        (Some(_), JFrame::Arr) => {
                            return Err(self.err("expected `,` or `]` in array"))
                        }
                        (None, _) => return Err(self.err("unexpected end of input")),
                    }
                }
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            offset: self.i,
        }
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::parse(self.line, message)
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.i) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                _ => break,
            }
        }
    }

    fn close_frame(&mut self) -> Event<'a> {
        if let Some(JFrame::Obj { keys_start }) = self.stack.pop() {
            self.keys.truncate(keys_start);
        }
        self.state = JState::AfterValue;
        Event::End
    }

    /// Scan the value at the cursor (the cursor sits on its first byte).
    fn scan_value(&mut self) -> Result<Event<'a>, Error> {
        let pos = self.pos();
        if matches!(self.peek(), Some(b'{' | b'[')) && self.stack.len() >= MAX_NESTING_DEPTH {
            return Err(too_deep(self.line));
        }
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                self.stack.push(JFrame::Obj {
                    keys_start: self.keys.len(),
                });
                self.state = JState::KeyOrClose;
                Ok(Event::MappingStart { pos })
            }
            Some(b'[') => {
                self.i += 1;
                self.stack.push(JFrame::Arr);
                self.state = JState::FirstValueOrClose;
                Ok(Event::SequenceStart { pos })
            }
            Some(b'"') => {
                let value = self.scan_string()?;
                self.state = JState::AfterValue;
                Ok(Event::Scalar {
                    value: ScalarToken::Str(value),
                    pos,
                })
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                let value = self.scan_keyword()?;
                self.state = JState::AfterValue;
                Ok(Event::Scalar { value, pos })
            }
            Some(b'-') | Some(b'0'..=b'9') => {
                let value = self.scan_number()?;
                self.state = JState::AfterValue;
                Ok(Event::Scalar { value, pos })
            }
            Some(other) => Err(self.err(format!(
                "unexpected character `{}` where a JSON value was expected",
                other as char
            ))),
            None => Err(self.err("expected a JSON value")),
        }
    }

    /// Scan `"key" :` at the cursor, checking for duplicates.
    fn scan_key(&mut self) -> Result<Event<'a>, Error> {
        let pos = self.pos();
        let name = self.scan_string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected `:` after object key"));
        }
        self.i += 1;
        let keys_start = match self.stack.last() {
            Some(JFrame::Obj { keys_start }) => *keys_start,
            _ => unreachable!("keys are only scanned inside objects"),
        };
        if self.keys[keys_start..].contains(&name) {
            return Err(self.err(format!("duplicate object key `{name}`")));
        }
        self.keys.push(name.clone());
        self.state = JState::Value;
        Ok(Event::Key { name, pos })
    }

    /// Scan a quoted string, borrowing when no escape processing is needed.
    /// The cursor sits on the opening quote.
    fn scan_string(&mut self) -> Result<Cow<'a, str>, Error> {
        let bytes = self.text.as_bytes();
        debug_assert_eq!(bytes[self.i], b'"');
        self.i += 1;
        let start = self.i;
        // Fast path: find the closing quote with no escapes in between.
        while self.i < bytes.len() {
            match bytes[self.i] {
                b'"' => {
                    let raw = &self.text[start..self.i];
                    self.i += 1;
                    return Ok(Cow::Borrowed(raw));
                }
                b'\\' => break,
                b if b < 0x20 => return Err(self.err("unescaped control character in string")),
                _ => self.i += 1,
            }
        }
        // Slow path: unescape into an owned buffer.
        let mut out = String::from(&self.text[start..self.i]);
        while self.i < bytes.len() {
            match bytes[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    self.i += 1;
                    let escape = bytes.get(self.i).copied();
                    self.i += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.scan_unicode_escape()?),
                        Some(other) => {
                            return Err(
                                self.err(format!("invalid escape `\\{}` in string", other as char))
                            )
                        }
                        None => return Err(self.err("dangling escape in string")),
                    }
                }
                b if b < 0x20 => return Err(self.err("unescaped control character in string")),
                _ => {
                    let c = self.text[self.i..].chars().next().expect("in bounds");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    /// Scan the `XXXX` of a `\u` escape (the cursor sits on the first hex
    /// digit), combining UTF-16 surrogate pairs.
    fn scan_unicode_escape(&mut self) -> Result<char, Error> {
        let unit = self.scan_hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            let bytes = self.text.as_bytes();
            if bytes.get(self.i) != Some(&b'\\') || bytes.get(self.i + 1) != Some(&b'u') {
                return Err(self.err("unpaired UTF-16 surrogate in string"));
            }
            self.i += 2;
            let low = self.scan_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid UTF-16 surrogate pair in string"));
            }
            let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(combined).ok_or_else(|| self.err("invalid unicode escape"));
        }
        char::from_u32(unit).ok_or_else(|| self.err("unpaired UTF-16 surrogate in string"))
    }

    fn scan_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        // `from_str_radix` alone would accept a leading `+`; require four
        // hex digits exactly, as the JSON grammar does.
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("invalid unicode escape"));
        }
        let unit =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.i += 4;
        Ok(unit)
    }

    /// Scan `true` / `false` / `null`.
    fn scan_keyword(&mut self) -> Result<ScalarToken<'a>, Error> {
        for (keyword, token) in [
            ("true", ScalarToken::Bool(true)),
            ("false", ScalarToken::Bool(false)),
            ("null", ScalarToken::Null),
        ] {
            if self.text[self.i..].starts_with(keyword) {
                self.i += keyword.len();
                return Ok(token);
            }
        }
        Err(self.err("invalid JSON literal (expected true, false or null)"))
    }

    /// Scan a number token: integers lex to [`ScalarToken::Int`], anything
    /// with a fraction or exponent (or outside `i64` range) to
    /// [`ScalarToken::Float`] — the same typing the YAML front end produces
    /// for the equivalent scalars.
    fn scan_number(&mut self) -> Result<ScalarToken<'a>, Error> {
        let bytes = self.text.as_bytes();
        let start = self.i;
        while self.i < bytes.len()
            && matches!(
                bytes[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let raw = &self.text[start..self.i];
        // Check the token against the RFC 8259 number grammar before any
        // value conversion: Rust's `FromStr` is more lenient (leading
        // zeros, `1.`, a leading `+`), and accepting what other parsers
        // reject — or read differently, as octal-interpreting parsers read
        // `010` — would open a validator/consumer differential, the same
        // smuggling gap the duplicate-key rejection closes.
        if !json_number_grammar(raw) {
            return Err(self.err(format!("invalid number literal `{raw}`")));
        }
        if raw.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            return raw
                .parse::<f64>()
                .map(ScalarToken::Float)
                .map_err(|_| self.err(format!("invalid number literal `{raw}`")));
        }
        if let Ok(i) = raw.parse::<i64>() {
            return Ok(ScalarToken::Int(i));
        }
        // Integer literal outside i64 range: widen, as YAML would via the
        // float fallback.
        raw.parse::<f64>()
            .map(ScalarToken::Float)
            .map_err(|_| self.err(format!("invalid number literal `{raw}`")))
    }
}

/// Whether `raw` matches the RFC 8259 number grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn json_number_grammar(raw: &str) -> bool {
    let bytes = raw.as_bytes();
    let mut i = 0;
    if bytes.first() == Some(&b'-') {
        i += 1;
    }
    // Integer part: `0` alone, or a non-zero digit followed by digits.
    let int_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    match i - int_start {
        0 => return false,
        1 => {}
        _ if bytes[int_start] == b'0' => return false, // leading zero
        _ => {}
    }
    // Optional fraction: `.` followed by at least one digit.
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    // Optional exponent: `e`/`E`, optional sign, at least one digit.
    if i < bytes.len() && matches!(bytes[i], b'e' | b'E') {
        i += 1;
        if i < bytes.len() && matches!(bytes[i], b'+' | b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == bytes.len()
}

/// Parse a single JSON document into a [`Value`] tree.
///
/// This is the JSON analogue of [`crate::parse`]: a thin tree builder over
/// [`JsonTokenizer`], so the tree and streaming front ends can never
/// disagree on the accepted syntax or on scalar typing.
///
/// # Errors
///
/// Returns [`Error::Parse`] when the text is not a single well-formed JSON
/// document (including trailing non-whitespace after the root value).
pub fn parse_json(text: &str) -> Result<Value, Error> {
    let mut tokenizer = JsonTokenizer::new(text);
    let mut builder = crate::parser::TreeBuilder::default();
    let mut document = None;
    while let Some(event) = tokenizer.next_event()? {
        if let Some(root) = builder.feed(event) {
            document = Some(root);
        }
    }
    document.ok_or_else(|| Error::parse(1, "expected a JSON value"))
}

/// Serialize a [`Value`] to compact JSON text.
///
/// The scalar formatting round-trips through [`JsonTokenizer`] to the same
/// typed values the YAML emitter/parser pair produces: whole floats keep a
/// decimal point, strings are escaped per RFC 8259. Non-finite floats (which
/// JSON cannot represent) are emitted as `null`.
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    emit_json(value, &mut out);
    out
}

/// Append `value`'s JSON rendering to `out` — the streaming twin of
/// [`to_json`], so serializers can build collection envelopes around
/// borrowed subtrees without concatenating intermediate strings.
pub fn write_json(value: &Value, out: &mut String) {
    emit_json(value, out);
}

fn emit_json(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => {
            if !x.is_finite() {
                out.push_str("null");
            } else if x.fract() == 0.0 {
                // Keep a decimal point so the value round-trips as a float.
                out.push_str(&format!("{x:.1}"));
            } else {
                out.push_str(&format!("{x}"));
            }
        }
        Value::Str(s) => emit_json_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json(item, out);
            }
            out.push(']');
        }
        Value::Map(map) => {
            out.push('{');
            for (i, (key, child)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json_string(key, out);
                out.push(':');
                emit_json(child, out);
            }
            out.push('}');
        }
    }
}

fn emit_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(text: &str) -> Vec<Event<'_>> {
        let mut tok = JsonTokenizer::new(text);
        let mut out = Vec::new();
        while let Some(e) = tok.next_event().unwrap() {
            out.push(e);
        }
        out
    }

    fn first_error(text: &str) -> Error {
        let mut tok = JsonTokenizer::new(text);
        loop {
            match tok.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected a parse error for `{text}`"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn objects_emit_the_yaml_event_shape() {
        let evs = events("{\"name\": \"web\", \"replicas\": 3}");
        assert!(matches!(evs[0], Event::MappingStart { .. }));
        let Event::Key { name, pos } = &evs[1] else {
            panic!("expected key, got {:?}", evs[1]);
        };
        assert_eq!(name.as_ref(), "name");
        assert_eq!(pos.offset, 1);
        assert!(matches!(&evs[2], Event::Scalar { value: ScalarToken::Str(s), .. } if s == "web"));
        assert!(matches!(
            &evs[4],
            Event::Scalar {
                value: ScalarToken::Int(3),
                ..
            }
        ));
        assert!(matches!(evs[5], Event::End));
        assert!(matches!(evs[6], Event::DocumentEnd));
        assert_eq!(evs.len(), 7);
    }

    #[test]
    fn nested_containers_balance_and_carry_positions() {
        let text = "{\n  \"spec\": {\n    \"ports\": [80, 443]\n  }\n}";
        let evs = events(text);
        let starts = evs
            .iter()
            .filter(|e| matches!(e, Event::MappingStart { .. } | Event::SequenceStart { .. }))
            .count();
        let ends = evs.iter().filter(|e| matches!(e, Event::End)).count();
        assert_eq!(starts, ends);
        for e in &evs {
            if let Event::Key { name, pos } = e {
                assert!(
                    text[pos.offset..].starts_with(&format!("\"{name}\"")),
                    "key position must point at the quoted key"
                );
                assert!(pos.line >= 1);
            }
        }
        // `ports` sits on line 3.
        let Event::Key { pos, .. } = &evs[3] else {
            panic!("expected the ports key");
        };
        assert_eq!(pos.line, 3);
    }

    #[test]
    fn strings_without_escapes_borrow_from_the_input() {
        let evs = events("{\"image\": \"nginx\"}");
        let Event::Scalar {
            value: ScalarToken::Str(s),
            ..
        } = &evs[2]
        else {
            panic!("expected string scalar");
        };
        assert!(matches!(s, Cow::Borrowed(_)), "plain strings must borrow");
    }

    #[test]
    fn escapes_unescape_including_surrogate_pairs() {
        let evs = events(r#"{"v": "a\"b\\c\ndé😀"}"#);
        let Event::Scalar {
            value: ScalarToken::Str(s),
            ..
        } = &evs[2]
        else {
            panic!("expected string scalar");
        };
        assert_eq!(s.as_ref(), "a\"b\\c\nd\u{e9}\u{1F600}");
    }

    #[test]
    fn numbers_type_like_the_yaml_front_end() {
        let evs = events("[3, -7, 2.5, 2.0, 1e3]");
        let scalars: Vec<&ScalarToken<'_>> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Scalar { value, .. } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(scalars[0], &ScalarToken::Int(3));
        assert_eq!(scalars[1], &ScalarToken::Int(-7));
        assert_eq!(scalars[2], &ScalarToken::Float(2.5));
        assert_eq!(scalars[3], &ScalarToken::Float(2.0));
        assert_eq!(scalars[4], &ScalarToken::Float(1000.0));
    }

    #[test]
    fn keywords_and_empty_containers() {
        let evs = events("{\"a\": true, \"b\": false, \"c\": null, \"d\": {}, \"e\": []}");
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Scalar {
                value: ScalarToken::Bool(true),
                ..
            }
        )));
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Scalar {
                value: ScalarToken::Null,
                ..
            }
        )));
        assert!(matches!(evs.last(), Some(Event::DocumentEnd)));
    }

    #[test]
    fn duplicate_object_keys_are_rejected_with_a_position() {
        let err = first_error("{\"a\": 1,\n \"a\": 2}");
        assert!(matches!(err, Error::Parse { line: 2, .. }));
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        for (text, line) in [
            ("{\"a\": 1,\n  broken}", 2),
            ("{\"a\"\n: 1", 2), // unterminated object
            ("[1,\n 2", 2),
            ("{\"a\": \"unterminated", 1),
            ("", 1),
            ("{} trailing", 1),
            ("{\"a\": 1} \n{\"b\": 2}", 2),
        ] {
            let err = first_error(text);
            let Error::Parse { line: at, .. } = &err else {
                panic!("expected a parse error for `{text}`");
            };
            assert_eq!(*at, line, "wrong line for `{text}`: {err}");
        }
    }

    #[test]
    fn non_grammar_numbers_are_rejected() {
        // Rust's FromStr would accept all of these; the JSON grammar does
        // not, and neither may an admission filter (parser differentials).
        for text in [
            "[010]",
            "[-010]",
            "[1.]",
            "[.5]",
            "[+1]",
            "[1.e5]",
            "[1e]",
            "[1e+]",
            "[--1]",
            "[\"a\", \u{1}]",
        ] {
            assert!(
                matches!(first_error(text), Error::Parse { .. }),
                "`{text}` must be rejected"
            );
        }
        // The strict grammar still admits every shape the emitter produces.
        for text in [
            "[0]",
            "[-0]",
            "[10]",
            "[0.5]",
            "[2.0]",
            "[-1.25e-3]",
            "[1E+2]",
        ] {
            let mut tok = JsonTokenizer::new(text);
            while tok.next_event().expect("valid number").is_some() {}
        }
    }

    #[test]
    fn malformed_unicode_escapes_are_rejected() {
        for text in [
            r#"["\u+04A1"]"#,
            r#"["\u00G1"]"#,
            r#"["\u00"]"#,
            r#"["\ud800x"]"#,
            r#"["\ud800\u0041"]"#,
        ] {
            assert!(
                matches!(first_error(text), Error::Parse { .. }),
                "`{text}` must be rejected"
            );
        }
    }

    #[test]
    fn trailing_commas_are_rejected() {
        assert!(matches!(first_error("[1, 2,]"), Error::Parse { .. }));
        assert!(matches!(first_error("{\"a\": 1,}"), Error::Parse { .. }));
    }

    #[test]
    fn parse_json_builds_the_same_tree_as_the_yaml_twin() {
        let yaml = "spec:\n  replicas: 3\n  labels:\n    app: web\n  ports:\n    - 80\n    - 443\n";
        let tree = crate::parse(yaml).unwrap();
        let json = to_json(&tree);
        let reparsed = parse_json(&json).unwrap();
        assert_eq!(tree, reparsed, "JSON round-trip must preserve the tree");
    }

    #[test]
    fn to_json_escapes_and_keeps_float_typing() {
        let doc = crate::parse("a: \"x\\\"y\"\nb: 2.0\nc: null\n").unwrap();
        let json = to_json(&doc);
        assert_eq!(json, r#"{"a":"x\"y","b":2.0,"c":null}"#);
        assert_eq!(parse_json(&json).unwrap(), doc);
    }

    #[test]
    fn document_end_precedes_trailing_garbage_detection() {
        // The root value is complete before the trailing garbage: the
        // streaming admission plane sees `DocumentEnd`, then the drain
        // surfaces the error — mirroring the YAML multi-document drain.
        let mut tok = JsonTokenizer::new("{\"kind\": \"Pod\"} x");
        let mut saw_doc_end = false;
        let saw_error = loop {
            match tok.next_event() {
                Ok(Some(Event::DocumentEnd)) => saw_doc_end = true,
                Ok(Some(_)) => continue,
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        assert!(saw_doc_end);
        assert!(saw_error);
    }

    #[test]
    fn nesting_is_capped_at_the_shared_limit() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nest(MAX_NESTING_DEPTH)).is_ok());
        let err = first_error(&format!("{{\"a\":\n{}}}", nest(MAX_NESTING_DEPTH)));
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }
}
