//! Pull-based YAML event tokenizer.
//!
//! This is the wire-level front end of the crate: it lexes a YAML stream into
//! structural events ([`MappingStart`](Event::MappingStart),
//! [`Key`](Event::Key), [`SequenceStart`](Event::SequenceStart),
//! [`Scalar`](Event::Scalar), [`End`](Event::End),
//! [`DocumentEnd`](Event::DocumentEnd)) without ever building a document
//! tree. Scalars and keys borrow from the input buffer wherever no
//! unescaping is required, every event carries its source position, and
//! multi-document streams (`---` separators) are supported.
//!
//! The tree parser ([`crate::parse`] / [`crate::parse_documents`]) is a thin
//! builder over this tokenizer, so the two front ends can never disagree on
//! the accepted syntax; consumers that want to *validate while parsing*
//! (the KubeFence streaming admission plane) drive the tokenizer directly
//! and stop pulling as soon as their verdict is decided.
//!
//! Nothing is read ahead of the events pulled: the tokenizer moves forward
//! one significant line at a time, skipping blank and comment lines and
//! stopping at `---` as it goes, and all per-node work (escape handling,
//! flow-collection scanning, scalar typing) happens as its line is reached.
//! What it holds is bounded by nesting depth and line length, not body size.

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::value::Value;
use crate::Error;

/// Position of a token in the source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based source line number.
    pub line: usize,
    /// 0-based byte offset from the start of the buffer.
    pub offset: usize,
}

/// A scalar lexed from the stream.
///
/// String payloads borrow from the input buffer unless unescaping forced an
/// allocation. The scalar typing rules (null/bool/int/float/string, quoting,
/// the leading-zero exception) are exactly those of the tree parser.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarToken<'a> {
    /// The YAML `null` / `~` / empty scalar.
    Null,
    /// A boolean scalar.
    Bool(bool),
    /// A signed integer scalar.
    Int(i64),
    /// A floating point scalar.
    Float(f64),
    /// A string scalar.
    Str(Cow<'a, str>),
}

impl<'a> ScalarToken<'a> {
    /// View as a string slice, if the token is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ScalarToken::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Convert the token into an owned [`Value`] node.
    pub fn into_value(self) -> Value {
        match self {
            ScalarToken::Null => Value::Null,
            ScalarToken::Bool(b) => Value::Bool(b),
            ScalarToken::Int(i) => Value::Int(i),
            ScalarToken::Float(x) => Value::Float(x),
            ScalarToken::Str(s) => Value::Str(s.into_owned()),
        }
    }

    /// Render the token the way [`Value::scalar_to_string`] renders the
    /// corresponding tree node (used in violation messages).
    pub fn render(&self) -> String {
        match self {
            ScalarToken::Null => String::new(),
            ScalarToken::Bool(b) => b.to_string(),
            ScalarToken::Int(i) => i.to_string(),
            ScalarToken::Float(x) => format!("{x}"),
            ScalarToken::Str(s) => s.to_string(),
        }
    }

    /// Short lowercase name of the scalar type, mirroring
    /// [`Value::type_name`].
    pub fn type_name(&self) -> &'static str {
        match self {
            ScalarToken::Null => "null",
            ScalarToken::Bool(_) => "bool",
            ScalarToken::Int(_) => "int",
            ScalarToken::Float(_) => "float",
            ScalarToken::Str(_) => "string",
        }
    }
}

/// One structural event of the token stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A block or flow mapping begins.
    MappingStart {
        /// Position of the mapping's first token.
        pos: Pos,
    },
    /// A mapping key (the next event opens or completes its value).
    Key {
        /// The (unquoted) key text.
        name: Cow<'a, str>,
        /// Position of the key token.
        pos: Pos,
    },
    /// A block or flow sequence begins.
    SequenceStart {
        /// Position of the sequence's first token.
        pos: Pos,
    },
    /// A scalar value.
    Scalar {
        /// The lexed scalar.
        value: ScalarToken<'a>,
        /// Position of the scalar token.
        pos: Pos,
    },
    /// The innermost open mapping or sequence ends.
    End,
    /// The current document ends. Pulling further events starts the next
    /// document of the stream, if any.
    DocumentEnd,
}

/// A significant (non-blank, non-comment) source line.
#[derive(Debug, Clone, Copy)]
struct Line<'a> {
    indent: usize,
    text: &'a str,
    number: usize,
    /// Byte offset of `text` within the input buffer.
    offset: usize,
}

impl<'a> Line<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.number,
            offset: self.offset,
        }
    }
}

/// The deepest container nesting either tokenizer accepts, block and flow
/// levels counted together. Real manifests nest fewer than 20 levels; the
/// cap exists because every consumer of the event stream — the tree
/// builder's `Value` (dropped recursively), the validators, the emitters —
/// recurses per level, so unbounded nesting in a 20 KB body is a stack
/// overflow that aborts the process before any policy runs.
pub(crate) const MAX_NESTING_DEPTH: usize = 128;

/// The positioned parse error for a container that would nest too deep.
pub(crate) fn too_deep(line: usize) -> Error {
    Error::parse(
        line,
        format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
    )
}

/// An open block container on the tokenizer stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// A block mapping at this indentation; `keys_start` marks the start of
    /// its slice of the shared duplicate-detection key stack.
    Map { indent: usize, keys_start: usize },
    /// A block sequence at this indentation.
    Seq { indent: usize },
}

/// What the state machine does on the next step.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Find the next non-empty document, or end the stream.
    Document,
    /// A new node at exactly this indentation (the current line's indent).
    Node { indent: usize },
    /// Continue the innermost open container (or close the document).
    Container,
}

/// The pull-based tokenizer. See the module docs for the event model.
///
/// It reads the input forward, one significant line at a time: what it
/// holds besides the input is the current line, the open block containers
/// and their keys, and the events of the line being lexed — bounded by
/// nesting depth and line length, never by the size of the body.
#[derive(Debug)]
pub struct Tokenizer<'a> {
    text: &'a str,
    /// Byte offset of the first line not yet read.
    cursor: usize,
    /// 1-based number of the last line read.
    number: usize,
    /// The current significant line of the document; `None` once the
    /// document's lines are used up (at a `---` separator or the end).
    line: Option<Line<'a>>,
    /// Where the document's last significant line read ends: the position
    /// of a null the document's end completes.
    last_end: Pos,
    stack: Vec<Frame>,
    /// Shared key stack for duplicate detection; each open mapping owns the
    /// suffix starting at its `keys_start`.
    keys: Vec<Cow<'a, str>>,
    expect: Expect,
    queue: VecDeque<Event<'a>>,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer over `text`. Construction reads nothing and never fails:
    /// every syntax error, tabs in indentation included, surfaces as events
    /// are pulled. It keeps its `Result` only because the benchmark's layer
    /// probes (`benchmark/src/probes.rs`) match on it.
    ///
    /// # Errors
    ///
    /// Never; see above.
    pub fn new(text: &'a str) -> Result<Self, Error> {
        Ok(Tokenizer {
            text,
            cursor: 0,
            number: 0,
            line: None,
            last_end: Pos::default(),
            stack: Vec::new(),
            keys: Vec::new(),
            expect: Expect::Document,
            queue: VecDeque::new(),
        })
    }

    /// Pull the next event, or `None` at the end of the stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when the input does not conform to the
    /// supported YAML subset: the first error in stream order. After an
    /// error the tokenizer state is unspecified and no further events should
    /// be pulled.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, Error> {
        loop {
            if let Some(event) = self.queue.pop_front() {
                return Ok(Some(event));
            }
            match self.expect {
                Expect::Document => {
                    // Empty documents (consecutive separators, comments
                    // only) are skipped, as the tree parser skips them.
                    while self.line.is_none() {
                        if self.cursor >= self.text.len() {
                            return Ok(None);
                        }
                        self.advance_line()?;
                    }
                    let indent = self.line.map_or(0, |line| line.indent);
                    self.expect = Expect::Node { indent };
                }
                Expect::Node { indent } => self.step_node(indent)?,
                Expect::Container => self.step_container()?,
            }
        }
    }

    /// Move to the next significant line of the document: past blank and
    /// comment-only lines, to `None` at a `---` separator (which it
    /// consumes) or at the end of the input.
    fn advance_line(&mut self) -> Result<(), Error> {
        self.line = None;
        while self.cursor < self.text.len() {
            let start = self.cursor;
            let rest = &self.text[start..];
            let end = rest.find('\n').unwrap_or(rest.len());
            let raw_full = &rest[..end];
            self.cursor = (start + end + 1).min(self.text.len());
            self.number += 1;
            let raw = raw_full.strip_suffix('\r').unwrap_or(raw_full);
            if is_separator(raw) {
                return Ok(());
            }
            let content =
                strip_comment(raw.trim_end_matches(is_trimmed)).trim_end_matches(is_trimmed);
            let text = content.trim_start_matches(is_trimmed);
            if text.is_empty() {
                continue;
            }
            let indent = content.len() - text.len();
            if content[..indent].contains('\t') {
                return Err(Error::parse(
                    self.number,
                    "tabs are not allowed in indentation",
                ));
            }
            let line = Line {
                indent,
                text,
                number: self.number,
                offset: start + indent,
            };
            self.last_end = Pos {
                line: line.number,
                offset: line.offset + text.len(),
            };
            self.line = Some(line);
            return Ok(());
        }
        Ok(())
    }

    fn offset_of(&self, slice: &str) -> usize {
        slice.as_ptr() as usize - self.text.as_ptr() as usize
    }

    /// The current line's position, or the end of the document's last line
    /// once its lines are used up.
    fn current_pos(&self) -> Pos {
        self.line.map_or(self.last_end, |line| line.pos())
    }

    fn push_null(&mut self, pos: Pos) {
        self.queue.push_back(Event::Scalar {
            value: ScalarToken::Null,
            pos,
        });
        self.expect = Expect::Container;
    }

    /// Open a block container, refusing nesting past [`MAX_NESTING_DEPTH`].
    fn open_frame(&mut self, frame: Frame, line: usize) -> Result<(), Error> {
        if self.stack.len() >= MAX_NESTING_DEPTH {
            return Err(too_deep(line));
        }
        self.stack.push(frame);
        self.expect = Expect::Container;
        Ok(())
    }

    fn close_frame(&mut self) {
        if let Some(frame) = self.stack.pop() {
            if let Frame::Map { keys_start, .. } = frame {
                self.keys.truncate(keys_start);
            }
            self.queue.push_back(Event::End);
        }
        self.expect = Expect::Container;
    }

    /// Start the node at the current line, which sits at exactly `indent`
    /// (callers guarantee this) — or is missing/dedented, which yields null.
    fn step_node(&mut self, indent: usize) -> Result<(), Error> {
        let Some(line) = self.line.filter(|line| line.indent >= indent) else {
            self.push_null(self.current_pos());
            return Ok(());
        };
        if is_dash(line.text) {
            self.queue
                .push_back(Event::SequenceStart { pos: line.pos() });
            self.open_frame(Frame::Seq { indent }, line.number)?;
        } else if find_key_split(line.text).is_some() {
            self.queue
                .push_back(Event::MappingStart { pos: line.pos() });
            let keys_start = self.keys.len();
            self.open_frame(Frame::Map { indent, keys_start }, line.number)?;
        } else {
            // A bare scalar (or flow collection) on a single line.
            self.scan_value(line.text, line.number)?;
            self.advance_line()?;
            self.expect = Expect::Container;
        }
        Ok(())
    }

    fn step_container(&mut self) -> Result<(), Error> {
        match self.stack.last().copied() {
            None => {
                // The document's root value is complete.
                if let Some(line) = self.line {
                    return Err(Error::parse(
                        line.number,
                        format!("unexpected content `{}` after document", line.text),
                    ));
                }
                self.queue.push_back(Event::DocumentEnd);
                self.expect = Expect::Document;
                Ok(())
            }
            Some(Frame::Map { indent, keys_start }) => self.step_map(indent, keys_start),
            Some(Frame::Seq { indent }) => self.step_seq(indent),
        }
    }

    fn step_map(&mut self, indent: usize, keys_start: usize) -> Result<(), Error> {
        let Some(line) = self.line.filter(|line| line.indent >= indent) else {
            self.close_frame();
            return Ok(());
        };
        if line.indent > indent {
            return Err(Error::parse(
                line.number,
                format!(
                    "unexpected indentation (expected {indent}, found {})",
                    line.indent
                ),
            ));
        }
        if is_dash(line.text) {
            self.close_frame();
            return Ok(());
        }
        let Some((key_raw, rest)) = find_key_split(line.text) else {
            return Err(Error::parse(
                line.number,
                format!("expected `key: value`, found `{}`", line.text),
            ));
        };
        let key_pos = Pos {
            line: line.number,
            offset: self.offset_of(key_raw),
        };
        let key = unquote_key(key_raw, line.number)?;
        if self.keys[keys_start..].contains(&key) {
            return Err(Error::parse(
                line.number,
                format!("duplicate mapping key `{key}`"),
            ));
        }
        self.keys.push(key.clone());
        self.queue.push_back(Event::Key {
            name: key,
            pos: key_pos,
        });
        if !rest.is_empty() {
            self.scan_value(rest, line.number)?;
            self.advance_line()?;
            self.expect = Expect::Container;
            return Ok(());
        }
        // The value is on the following lines (nested block), or null.
        self.advance_line()?;
        match self.line {
            Some(next) if next.indent > indent => {
                self.expect = Expect::Node {
                    indent: next.indent,
                };
            }
            // Sequences are conventionally allowed at the same indent as
            // their key.
            Some(next) if next.indent == indent && is_dash(next.text) => {
                self.queue
                    .push_back(Event::SequenceStart { pos: next.pos() });
                self.open_frame(Frame::Seq { indent }, next.number)?;
            }
            _ => self.push_null(self.current_pos()),
        }
        Ok(())
    }

    fn step_seq(&mut self, indent: usize) -> Result<(), Error> {
        let Some(line) = self.line else {
            self.close_frame();
            return Ok(());
        };
        if line.indent != indent || !is_dash(line.text) {
            if line.indent > indent {
                return Err(Error::parse(
                    line.number,
                    "unexpected indentation inside sequence".to_string(),
                ));
            }
            self.close_frame();
            return Ok(());
        }
        let content = if line.text == "-" {
            ""
        } else {
            line.text[2..].trim_start_matches(is_trimmed)
        };
        if content.is_empty() {
            // Nested block on the following lines, or a null item.
            self.advance_line()?;
            match self.line {
                Some(next) if next.indent > indent => {
                    self.expect = Expect::Node {
                        indent: next.indent,
                    };
                }
                _ => self.push_null(line.pos()),
            }
        } else {
            // Reinterpret the item content as a regular line at the column
            // where it starts; this uniformly handles both scalar items and
            // compact `- key: value` mapping items whose remaining keys
            // continue on the following lines.
            let content_col = line.indent + (line.text.len() - content.len());
            self.line = Some(Line {
                indent: content_col,
                text: content,
                number: line.number,
                offset: self.offset_of(content),
            });
            self.expect = Expect::Node {
                indent: content_col,
            };
        }
        Ok(())
    }

    /// Queue the events of an inline value: a flow collection when the text
    /// opens with `[` or `{`, a scalar token otherwise.
    fn scan_value(&mut self, text: &'a str, line: usize) -> Result<(), Error> {
        if text.starts_with('[') || text.starts_with('{') {
            let base_offset = self.offset_of(text);
            let mut cursor = FlowCursor {
                text,
                i: 0,
                line,
                base_offset,
            };
            scan_flow_node(&mut cursor, &mut self.queue, self.stack.len())?;
            cursor.skip_ws();
            if cursor.i != text.len() {
                return Err(Error::parse(
                    line,
                    "trailing characters after flow collection",
                ));
            }
            return Ok(());
        }
        let pos = Pos {
            line,
            offset: self.offset_of(text),
        };
        let value = scan_scalar(text, line)?;
        self.queue.push_back(Event::Scalar { value, pos });
        Ok(())
    }
}

/// Whether a raw line (line end removed) is a document separator: `---`,
/// optionally indented, optionally more dashes or a comment after it, and
/// no trailing whitespace.
fn is_separator(raw: &str) -> bool {
    let line = raw.trim_start_matches(is_trimmed);
    let after = line.trim_start_matches('-').trim_start_matches(is_trimmed);
    line.starts_with("---")
        && !line.ends_with(is_trimmed)
        && (after.is_empty() || after.starts_with('#'))
}

fn is_dash(text: &str) -> bool {
    text.starts_with("- ") || text == "-"
}

/// Whether the line scanner takes byte `b` for whitespace where a `#` may
/// start a comment and a `:` may end a key: ASCII whitespace only. Read as a
/// Latin-1 `char`, the UTF-8 continuation bytes 0x85 and 0xA0 would count
/// too, and split characters such as `你` (E4 BD A0).
pub(crate) fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Whether the reader trims `c` from the edges of a line, key or scalar:
/// space, tab, line breaks, and the `\v` / `\f` go-yaml does not read as
/// content either. Other Unicode white space (U+00A0, U+3000, …) is content,
/// as it is to go-yaml.
fn is_trimmed(c: char) -> bool {
    matches!(
        c,
        ' ' | '\t' | '\n' | '\r' | '\u{b}' | '\u{c}' | '\u{85}' | '\u{2028}' | '\u{2029}'
    )
}

/// Remove a trailing `# comment`, respecting quoted strings. Escapes inside
/// double quotes are tracked forward (a backslash escapes the *next* byte),
/// so `"x\\"` correctly closes the string.
pub(crate) fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_double && c == '\\' {
            // Skip the escaped byte (quote, backslash, …) entirely.
            i += 2;
            continue;
        }
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            // A '#' starts a comment when at start of line or preceded by
            // whitespace.
            '#' if !in_single && !in_double && (i == 0 || is_space(bytes[i - 1])) => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Split `key: rest` at the first unquoted `:` that is followed by a space or
/// ends the line. Returns `(key, rest)` with `rest` trimmed.
pub(crate) fn find_key_split(text: &str) -> Option<(&str, &str)> {
    let bytes = text.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut depth = 0usize; // inside flow collections `:` does not split
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_double && c == '\\' {
            // Forward escape tracking: the next byte cannot close the quote.
            i += 2;
            continue;
        }
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            '[' | '{' if !in_single && !in_double => depth += 1,
            ']' | '}' if !in_single && !in_double => depth = depth.saturating_sub(1),
            ':' if !in_single && !in_double && depth == 0 => {
                let at_end = i + 1 == bytes.len();
                if at_end || is_space(bytes[i + 1]) {
                    let key = text[..i].trim_matches(is_trimmed);
                    let rest = text[i + 1..].trim_matches(is_trimmed);
                    if key.is_empty() {
                        return None;
                    }
                    return Some((key, rest));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Unquote a mapping key if it is quoted; plain keys borrow.
fn unquote_key<'a>(key: &'a str, line: usize) -> Result<Cow<'a, str>, Error> {
    if (key.starts_with('"') && key.ends_with('"') && key.len() >= 2)
        || (key.starts_with('\'') && key.ends_with('\'') && key.len() >= 2)
    {
        scan_quoted(key, line)
    } else {
        Ok(Cow::Borrowed(key))
    }
}

/// Lex a plain or quoted scalar into a token. The typing rules are the tree
/// parser's: quoted → string, `~`/null/true/false keywords, integers (except
/// leading zeros), floats, everything else a string.
pub(crate) fn scan_scalar<'a>(text: &'a str, line: usize) -> Result<ScalarToken<'a>, Error> {
    let text = text.trim_matches(is_trimmed);
    if text.is_empty() {
        return Ok(ScalarToken::Null);
    }
    if (text.starts_with('"') && text.ends_with('"') && text.len() >= 2)
        || (text.starts_with('\'') && text.ends_with('\'') && text.len() >= 2)
    {
        return scan_quoted(text, line).map(ScalarToken::Str);
    }
    match text {
        "~" | "null" | "Null" | "NULL" => return Ok(ScalarToken::Null),
        "true" | "True" | "TRUE" => return Ok(ScalarToken::Bool(true)),
        "false" | "False" | "FALSE" => return Ok(ScalarToken::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        // Leading zeros (e.g. "0755") are kept as strings to avoid octal
        // surprises in manifests.
        if !(text.len() > 1 && (text.starts_with('0') || text.starts_with("-0"))) {
            return Ok(ScalarToken::Int(i));
        }
    }
    if looks_like_float(text) {
        if let Ok(x) = text.parse::<f64>() {
            return Ok(ScalarToken::Float(x));
        }
    }
    Ok(ScalarToken::Str(Cow::Borrowed(text)))
}

fn looks_like_float(text: &str) -> bool {
    let t = text.strip_prefix('-').unwrap_or(text);
    !t.is_empty()
        && t.contains('.')
        && t.chars().all(|c| c.is_ascii_digit() || c == '.')
        && t.chars().filter(|c| *c == '.').count() == 1
        && !t.starts_with('.')
        && !t.ends_with('.')
}

/// Unquote a quoted scalar, borrowing when no escape processing is needed.
fn scan_quoted<'a>(text: &'a str, line: usize) -> Result<Cow<'a, str>, Error> {
    let quote = text.chars().next().expect("non-empty");
    let inner = &text[1..text.len() - 1];
    if quote == '\'' {
        // Single quotes: the only escape is '' for a literal quote.
        if inner.contains("''") {
            return Ok(Cow::Owned(inner.replace("''", "'")));
        }
        return Ok(Cow::Borrowed(inner));
    }
    if !inner.contains('\\') {
        return Ok(Cow::Borrowed(inner));
    }
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => return Err(Error::parse(line, "dangling escape in quoted string")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(Cow::Owned(out))
}

/// Byte cursor over a single-line flow collection.
struct FlowCursor<'a> {
    text: &'a str,
    i: usize,
    line: usize,
    base_offset: usize,
}

impl<'a> FlowCursor<'a> {
    fn peek(&self) -> Option<char> {
        self.text[self.i..].chars().next()
    }

    fn skip_ws(&mut self) {
        self.i = self.text.len() - self.text[self.i..].trim_start_matches(is_trimmed).len();
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            offset: self.base_offset + self.i,
        }
    }
}

/// Scan one flow node (`[...]`, `{...}` or a scalar token), emitting events.
/// `depth` is the number of containers (block and flow) already open around
/// it; the scan recurses per flow level, so it refuses to open a collection
/// past [`MAX_NESTING_DEPTH`].
fn scan_flow_node<'a>(
    cur: &mut FlowCursor<'a>,
    queue: &mut VecDeque<Event<'a>>,
    depth: usize,
) -> Result<(), Error> {
    cur.skip_ws();
    if matches!(cur.peek(), Some('[' | '{')) && depth >= MAX_NESTING_DEPTH {
        return Err(too_deep(cur.line));
    }
    match cur.peek() {
        Some('[') => {
            queue.push_back(Event::SequenceStart { pos: cur.pos() });
            cur.i += 1;
            loop {
                cur.skip_ws();
                if cur.peek() == Some(']') {
                    cur.i += 1;
                    break;
                }
                scan_flow_node(cur, queue, depth + 1)?;
                cur.skip_ws();
                match cur.peek() {
                    Some(',') => cur.i += 1,
                    Some(']') => {
                        cur.i += 1;
                        break;
                    }
                    _ => {
                        return Err(Error::parse(
                            cur.line,
                            "expected `,` or `]` in flow sequence",
                        ))
                    }
                }
            }
            queue.push_back(Event::End);
            Ok(())
        }
        Some('{') => {
            queue.push_back(Event::MappingStart { pos: cur.pos() });
            cur.i += 1;
            let mut seen: Vec<String> = Vec::new();
            loop {
                cur.skip_ws();
                if cur.peek() == Some('}') {
                    cur.i += 1;
                    break;
                }
                // The loop skipped white space: the key starts here.
                let key_pos = cur.pos();
                let key_token = scan_flow_token(cur, &[':'])?;
                let key: Cow<'a, str> = match key_token {
                    ScalarToken::Str(s) => s,
                    other => Cow::Owned(other.render()),
                };
                if seen.iter().any(|k| *k == key.as_ref()) {
                    return Err(Error::parse(
                        cur.line,
                        format!("duplicate mapping key `{key}` in flow mapping"),
                    ));
                }
                seen.push(key.to_string());
                cur.skip_ws();
                if cur.peek() != Some(':') {
                    return Err(Error::parse(cur.line, "expected `:` in flow mapping"));
                }
                cur.i += 1;
                queue.push_back(Event::Key {
                    name: key,
                    pos: key_pos,
                });
                scan_flow_node(cur, queue, depth + 1)?;
                cur.skip_ws();
                match cur.peek() {
                    Some(',') => cur.i += 1,
                    Some('}') => {
                        cur.i += 1;
                        break;
                    }
                    _ => {
                        return Err(Error::parse(
                            cur.line,
                            "expected `,` or `}` in flow mapping",
                        ))
                    }
                }
            }
            queue.push_back(Event::End);
            Ok(())
        }
        Some(_) => {
            cur.skip_ws();
            let pos = cur.pos();
            let value = scan_flow_token(cur, &[',', ']', '}'])?;
            queue.push_back(Event::Scalar { value, pos });
            Ok(())
        }
        None => Err(Error::parse(cur.line, "unexpected end of flow collection")),
    }
}

/// Lex one scalar token inside a flow collection, stopping at any of the
/// `stops` characters (outside quotes). The stop set is always ASCII, so
/// byte-wise scanning is UTF-8 safe.
fn scan_flow_token<'a>(cur: &mut FlowCursor<'a>, stops: &[char]) -> Result<ScalarToken<'a>, Error> {
    cur.skip_ws();
    let bytes = cur.text.as_bytes();
    if let Some(quote @ ('"' | '\'')) = cur.peek() {
        let start = cur.i;
        cur.i += 1;
        while cur.i < bytes.len() {
            // Forward escape tracking in double quotes: a backslash escapes
            // the next byte, so `"a\\"` closes at its real closing quote.
            if quote == '"' && bytes[cur.i] == b'\\' {
                cur.i += 2;
                continue;
            }
            if bytes[cur.i] == quote as u8 {
                cur.i += 1;
                let raw = &cur.text[start..cur.i];
                return scan_quoted(raw, cur.line).map(ScalarToken::Str);
            }
            cur.i += 1;
        }
        return Err(Error::parse(cur.line, "unterminated quoted string"));
    }
    let start = cur.i;
    while cur.i < bytes.len() && !stops.contains(&(bytes[cur.i] as char)) {
        cur.i += 1;
    }
    let raw = cur.text[start..cur.i].trim_matches(is_trimmed);
    scan_scalar(raw, cur.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(text: &str) -> Vec<Event<'_>> {
        let mut tok = Tokenizer::new(text).unwrap();
        let mut out = Vec::new();
        while let Some(e) = tok.next_event().unwrap() {
            out.push(e);
        }
        out
    }

    fn key(name: &str) -> String {
        name.to_owned()
    }

    #[test]
    fn flat_mapping_events_in_document_order() {
        let evs = events("name: web\nreplicas: 3\n");
        assert!(matches!(evs[0], Event::MappingStart { .. }));
        let Event::Key { name, pos } = &evs[1] else {
            panic!("expected key, got {:?}", evs[1]);
        };
        assert_eq!(name.as_ref(), "name");
        assert_eq!(pos.line, 1);
        assert_eq!(pos.offset, 0);
        assert!(matches!(&evs[2], Event::Scalar { value: ScalarToken::Str(s), .. } if s == "web"));
        let Event::Key { name, pos } = &evs[3] else {
            panic!("expected key");
        };
        assert_eq!(name.as_ref(), "replicas");
        assert_eq!(pos.line, 2);
        assert_eq!(pos.offset, 10);
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
    fn nested_blocks_and_sequences_balance() {
        let text = "spec:\n  containers:\n    - name: web\n      ports:\n        - 80\n";
        let evs = events(text);
        let starts = evs
            .iter()
            .filter(|e| matches!(e, Event::MappingStart { .. } | Event::SequenceStart { .. }))
            .count();
        let ends = evs.iter().filter(|e| matches!(e, Event::End)).count();
        assert_eq!(starts, ends);
        assert!(matches!(evs.last(), Some(Event::DocumentEnd)));
    }

    #[test]
    fn scalars_borrow_from_the_input() {
        let text = "image: nginx\n";
        let evs = events(text);
        let Event::Scalar {
            value: ScalarToken::Str(s),
            ..
        } = &evs[2]
        else {
            panic!("expected string scalar");
        };
        assert!(matches!(s, Cow::Borrowed(_)), "plain scalars must borrow");
    }

    #[test]
    fn flow_collections_emit_structural_events() {
        let evs = events("sel: {app: web}\nvals: [1, 2]\n");
        let kinds: Vec<String> = evs
            .iter()
            .map(|e| match e {
                Event::MappingStart { .. } => key("map"),
                Event::Key { name, .. } => format!("key:{name}"),
                Event::SequenceStart { .. } => key("seq"),
                Event::Scalar { value, .. } => format!("scalar:{}", value.render()),
                Event::End => key("end"),
                Event::DocumentEnd => key("doc-end"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "map",
                "key:sel",
                "map",
                "key:app",
                "scalar:web",
                "end",
                "key:vals",
                "seq",
                "scalar:1",
                "scalar:2",
                "end",
                "end",
                "doc-end",
            ]
        );
    }

    #[test]
    fn multi_document_streams_emit_document_ends() {
        let evs = events("---\nkind: Service\n---\nkind: Pod\n");
        let doc_ends = evs
            .iter()
            .filter(|e| matches!(e, Event::DocumentEnd))
            .count();
        assert_eq!(doc_ends, 2);
    }

    #[test]
    fn positions_point_into_the_buffer() {
        let text = "a: 1\nb:\n  c: true\n";
        let evs = events(text);
        for e in &evs {
            if let Event::Key { name, pos } = e {
                assert_eq!(
                    &text[pos.offset..pos.offset + name.len()],
                    name.as_ref(),
                    "key position must point at the key text"
                );
            }
        }
    }

    #[test]
    fn duplicate_block_keys_are_rejected_at_the_key() {
        let mut tok = Tokenizer::new("a: 1\na: 2\n").unwrap();
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected duplicate-key error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::Parse { line: 2, .. }));
    }

    #[test]
    fn duplicate_flow_keys_are_rejected() {
        let mut tok = Tokenizer::new("m: {a: 1, a: 2}\n").unwrap();
        let mut saw_err = false;
        loop {
            match tok.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    assert!(e.to_string().contains("duplicate"));
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err);
    }

    #[test]
    fn early_pull_stops_before_later_errors() {
        // The first document is well-formed; the second has a syntax error.
        // Pulling only the first document's events must succeed.
        let text = "kind: Pod\n---\n{broken\n";
        let mut tok = Tokenizer::new(text).unwrap();
        loop {
            match tok.next_event().unwrap() {
                Some(Event::DocumentEnd) => break,
                Some(_) => continue,
                None => panic!("expected a first document"),
            }
        }
        // Continuing into the second document now surfaces the error.
        assert!(loop {
            match tok.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break false,
                Err(_) => break true,
            }
        });
    }

    #[test]
    fn a_tab_in_indentation_surfaces_when_its_line_is_reached() {
        // Construction reads nothing; the events before the tab's line are
        // delivered, then its error.
        let mut tok = Tokenizer::new("a: 1\nb: 2\n\tc: 3\n").unwrap();
        let mut keys = Vec::new();
        let err = loop {
            match tok.next_event() {
                Ok(Some(Event::Key { name, .. })) => keys.push(name.into_owned()),
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected the tab error"),
                Err(e) => break e,
            }
        };
        assert_eq!(keys.first().map(String::as_str), Some("a"));
        assert!(matches!(err, Error::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn nesting_is_capped_across_block_and_flow_levels() {
        let flow = |depth: usize| format!("a: {}{}\n", "[".repeat(depth), "]".repeat(depth));
        // One block mapping plus flow levels: exactly the cap still parses…
        let deepest = flow(MAX_NESTING_DEPTH - 1);
        let opened = events(&deepest)
            .iter()
            .filter(|e| matches!(e, Event::MappingStart { .. } | Event::SequenceStart { .. }))
            .count();
        assert_eq!(opened, MAX_NESTING_DEPTH);
        // …one level more is a positioned parse error, which the tree
        // parser inherits.
        let err = crate::parse(&format!("kind: Pod\n{}", flow(MAX_NESTING_DEPTH))).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // Compact nested sequences open one block frame per dash.
        assert!(crate::parse(&format!("{}x\n", "- ".repeat(MAX_NESTING_DEPTH))).is_ok());
        let err = crate::parse(&format!("{}x\n", "- ".repeat(MAX_NESTING_DEPTH + 1))).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }), "{err}");
    }
}
