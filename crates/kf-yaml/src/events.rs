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
use std::collections::{HashSet, VecDeque};

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

impl Pos {
    pub(crate) fn new(line: usize, offset: usize) -> Pos {
        Pos { line, offset }
    }
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
    /// Where `text` splits as `key: rest` (at its first `:` before white
    /// space or the line end, outside quotes and flow brackets, when the key
    /// is not empty): the trimmed key's end and the rest's start in `text`.
    split: Option<(usize, usize)>,
}

impl<'a> Line<'a> {
    fn pos(&self) -> Pos {
        Pos::new(self.number, self.offset)
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

/// How many keys a mapping compares a new key with one by one. Chart
/// mappings hold tens of keys. Past this many, a mapping keeps its keys in
/// a hash set instead (SipHash, so a body cannot aim its keys at one
/// bucket), and each further key costs one probe: a wide mapping is checked
/// in time linear in its keys, not quadratic.
const SCANNED_KEYS: usize = 32;

/// The keys of every open mapping of one document, for duplicate
/// detection, shared by the YAML (block and flow) and JSON tokenizers.
/// Each open mapping owns the suffix of `keys` from the start
/// [`OpenKeys::open`] returned for it, or, once wide, its entry in `wide`.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpenKeys<'a> {
    keys: Vec<Cow<'a, str>>,
    /// The open mappings that outgrew [`SCANNED_KEYS`], innermost last:
    /// each one's start, and all of its keys. Such a mapping keeps its
    /// first keys in `keys` too, so a mapping opened inside it starts past
    /// its start.
    wide: Vec<(usize, HashSet<Cow<'a, str>>)>,
}

impl<'a> OpenKeys<'a> {
    /// Open a mapping inside the innermost open one; returns its start.
    pub(crate) fn open(&self) -> usize {
        self.keys.len()
    }

    /// Add `key` to the innermost open mapping, opened at `start`; `false`
    /// when the mapping already holds it.
    pub(crate) fn insert(&mut self, start: usize, key: Cow<'a, str>) -> bool {
        if let Some((_, set)) = self.wide.last_mut().filter(|(wide, _)| *wide == start) {
            count_comparisons(1);
            return set.insert(key);
        }
        let own = &self.keys[start..];
        count_comparisons(own.len());
        if own.contains(&key) {
            return false;
        }
        if own.len() < SCANNED_KEYS {
            self.keys.push(key);
        } else {
            let set = own.iter().cloned().chain([key]).collect();
            self.wide.push((start, set));
        }
        true
    }

    /// Close the innermost open mapping, opened at `start`.
    pub(crate) fn close(&mut self, start: usize) {
        self.keys.truncate(start);
        if self.wide.last().is_some_and(|(wide, _)| *wide == start) {
            self.wide.pop();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Key comparisons made by duplicate detection on this thread: one per
    /// earlier key scanned, one per hash-set probe.
    static KEY_COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_comparisons(n: usize) {
    KEY_COMPARISONS.with(|count| count.set(count.get() + n));
}

#[cfg(not(test))]
fn count_comparisons(_: usize) {}

/// An open block container on the tokenizer stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// A block mapping at this indentation; `keys_start` is its start in
    /// the tokenizer's [`OpenKeys`].
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
/// A clone reads on from where the original stands.
#[derive(Debug, Clone)]
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
    /// Duplicate detection, for block and flow mappings alike.
    keys: OpenKeys<'a>,
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
            keys: OpenKeys::default(),
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
    /// consumes) or at the end of the input. One forward pass over [`CLASS`]
    /// reads a line's indent, comment start (a `#` at its start or after a
    /// blank, outside quotes), trimmed end, first key split and end, and
    /// refuses a line break other than LF or CRLF anywhere in it.
    fn advance_line(&mut self) -> Result<(), Error> {
        self.line = None;
        let (text, bytes) = (self.text, self.text.as_bytes());
        while self.cursor < bytes.len() {
            let (start, number) = (self.cursor, self.number + 1);
            let (mut i, mut tab_in_indent) = (start, false);
            while bytes.get(i).is_some_and(|&b| is_blank(b)) {
                tab_in_indent |= bytes[i] == b'\t';
                i += 1;
            }
            let indent = i;
            let (mut end, mut split) = (i, None);
            let (mut single, mut double, mut depth, mut comment) = (false, false, 0usize, false);
            let raw_end = loop {
                let Some(&byte) = bytes.get(i) else { break i };
                match CLASS[byte as usize] {
                    BLANK => {}
                    BREAK => match line_break(bytes, i) {
                        Some(c) => {
                            return fail(number, format!("line break U+{:04X} in a line", c as u32))
                        }
                        None if byte == b'\n' => break i,
                        None if byte == b'\r' => {
                            i += 1;
                            break i - 1;
                        }
                        None if !comment => end = i + 1,
                        None => {}
                    },
                    _ if comment => {}
                    PLAIN => end = i + 1,
                    _ => {
                        let (quoted, next) = (single || double, bytes.get(i + 1).copied());
                        match byte {
                            b'#' if !quoted && (i == start || is_space(bytes[i - 1])) => {
                                comment = true;
                            }
                            b':' if !quoted && depth == 0 && next.is_none_or(is_space) => {
                                let blanks = bytes[i + 1..].iter().take_while(|&&b| is_blank(b));
                                split =
                                    split.or(Some((end - indent, i + 1 + blanks.count() - indent)));
                            }
                            b'\'' if !double => single = !single,
                            b'"' if !single => double = !double,
                            b'[' | b'{' if !quoted => depth += 1,
                            b']' | b'}' if !quoted => depth = depth.saturating_sub(1),
                            // An escaped content byte is plain; an escaped
                            // blank or line break is read as itself.
                            b'\\' if double && next.is_some_and(|b| CLASS[b as usize] <= MARK) => {
                                i += 1
                            }
                            _ => {}
                        }
                        end = if comment { end } else { i + 1 };
                    }
                }
                i += 1;
            };
            (self.cursor, self.number) = ((i + 1).min(bytes.len()), number);
            if is_separator(&bytes[indent..raw_end]) {
                return Ok(());
            }
            if end == indent {
                continue;
            }
            if tab_in_indent {
                return fail(number, "tabs are not allowed in indentation");
            }
            self.last_end = Pos::new(number, end);
            self.line = Some(Line {
                indent: indent - start,
                text: &text[indent..end],
                number,
                offset: indent,
                // A first split with an empty key is none: the search stops there.
                split: split.filter(|&(key_end, _)| key_end > 0),
            });
            return Ok(());
        }
        Ok(())
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
                self.keys.close(keys_start);
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
        } else if line.split.is_some() {
            self.queue
                .push_back(Event::MappingStart { pos: line.pos() });
            let keys_start = self.keys.open();
            self.open_frame(Frame::Map { indent, keys_start }, line.number)?;
        } else {
            // A bare scalar (or flow collection) on a single line.
            self.scan_value(line.text, line.pos())?;
        }
        Ok(())
    }

    fn step_container(&mut self) -> Result<(), Error> {
        match self.stack.last().copied() {
            None => {
                // The document's root value is complete.
                if let Some(line) = self.line {
                    return fail(
                        line.number,
                        format!("unexpected content `{}` after document", line.text),
                    );
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
            return fail(
                line.number,
                format!(
                    "unexpected indentation (expected {indent}, found {})",
                    line.indent
                ),
            );
        }
        if is_dash(line.text) {
            self.close_frame();
            return Ok(());
        }
        let Some((key_end, rest)) = line.split else {
            return fail(
                line.number,
                format!("expected `key: value`, found `{}`", line.text),
            );
        };
        let key = unquote_key(&line.text[..key_end], line.number)?;
        let value = line.text.get(rest..).unwrap_or("");
        if !self.keys.insert(keys_start, key.clone()) {
            return fail(line.number, format!("duplicate mapping key `{key}`"));
        }
        self.queue.push_back(Event::Key {
            name: key,
            pos: line.pos(),
        });
        if value.is_empty() {
            self.step_nested(indent, None)
        } else {
            self.scan_value(value, Pos::new(line.number, line.offset + rest))
        }
    }

    /// Start the value of a key or item at `indent` whose own line holds
    /// none: a block on the deeper lines that follow; after a key, also a
    /// sequence at the key's indent, as is conventional; otherwise a null,
    /// at `item` for an item and where the lines stop for a key.
    fn step_nested(&mut self, indent: usize, item: Option<Pos>) -> Result<(), Error> {
        self.advance_line()?;
        match self.line {
            Some(next) if next.indent > indent => {
                self.expect = Expect::Node {
                    indent: next.indent,
                };
            }
            Some(next) if item.is_none() && next.indent == indent && is_dash(next.text) => {
                self.queue
                    .push_back(Event::SequenceStart { pos: next.pos() });
                self.open_frame(Frame::Seq { indent }, next.number)?;
            }
            _ => self.push_null(item.unwrap_or(self.current_pos())),
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
                return fail(line.number, "unexpected indentation inside sequence");
            }
            self.close_frame();
            return Ok(());
        }
        // The item starts past the dash and the blanks after it.
        let skip = match line.text.len() {
            1 => 1,
            _ => 2 + line.text[2..].bytes().take_while(|&b| is_blank(b)).count(),
        };
        let content = &line.text[skip..];
        if content.is_empty() {
            self.step_nested(indent, Some(line.pos()))?;
        } else {
            // Reinterpret the item content as a regular line at the column
            // where it starts; this uniformly handles both scalar items and
            // compact `- key: value` mapping items whose remaining keys
            // continue on the following lines. The dash line's split is the
            // item's (no quote precedes it), unless the item's key is empty.
            let content_col = line.indent + skip;
            self.line = Some(Line {
                indent: content_col,
                text: content,
                number: line.number,
                offset: line.offset + skip,
                split: line
                    .split
                    .filter(|&(key_end, _)| key_end > skip)
                    .map(|(key_end, rest)| (key_end - skip, rest - skip)),
            });
            self.expect = Expect::Node {
                indent: content_col,
            };
        }
        Ok(())
    }

    /// Queue the events of an inline value: a flow collection when the text
    /// opens with `[` or `{`, a scalar token otherwise. Then move on to the
    /// next line and the container around the value.
    fn scan_value(&mut self, text: &'a str, pos: Pos) -> Result<(), Error> {
        if text.starts_with('[') || text.starts_with('{') {
            let mut cursor = FlowCursor {
                text,
                i: 0,
                line: pos.line,
                base_offset: pos.offset,
            };
            scan_flow_node(
                &mut cursor,
                &mut self.queue,
                &mut self.keys,
                self.stack.len(),
            )?;
            cursor.skip_ws();
            if cursor.i != text.len() {
                return fail(pos.line, "trailing characters after flow collection");
            }
        } else {
            let value = scan_scalar(text, pos.line)?;
            self.queue.push_back(Event::Scalar { value, pos });
        }
        self.expect = Expect::Container;
        self.advance_line()
    }
}

/// The line scanner's byte classes: plain content; content that may carry
/// structure (`#:'"\[]{}`); a blank (space, tab, `\v`, `\f`, trimmed from
/// a line's edges as go-yaml does); a byte that may break the line (LF, CR,
/// and C2 / E2, which lead U+0085 / U+2028 and U+2029, not `é` or `©`).
const PLAIN: u8 = 0;
const MARK: u8 = 1;
const BLANK: u8 = 2;
const BREAK: u8 = 3;

/// The class of every byte, indexed by the byte.
static CLASS: [u8; 256] = {
    let mut class = [PLAIN; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'#' | b':' | b'\'' | b'"' | b'\\' | b'[' | b']' | b'{' | b'}' => MARK,
            b' ' | b'\t' | 0x0B | 0x0C => BLANK,
            b'\n' | b'\r' | 0xC2 | 0xE2 => BREAK,
            _ => PLAIN,
        };
        b += 1;
    }
    class
};

/// The line break other than LF or CRLF that starts at `bytes[i]`, if one
/// does: a CR not before LF, U+0085, U+2028 or U+2029.
pub(crate) fn line_break(bytes: &[u8], i: usize) -> Option<char> {
    match (bytes[i], bytes.get(i + 1), bytes.get(i + 2)) {
        (b'\r', Some(b'\n'), _) => None,
        (b'\r', ..) => Some('\r'),
        (0xC2, Some(0x85), _) => Some('\u{85}'),
        (0xE2, Some(0x80), Some(0xA8)) => Some('\u{2028}'),
        (0xE2, Some(0x80), Some(0xA9)) => Some('\u{2029}'),
        _ => None,
    }
}

/// Whether a line, indent and line end removed, is a document separator:
/// `---`, optionally more dashes, then nothing or blanks and a comment, with
/// no blank at its end.
fn is_separator(line: &[u8]) -> bool {
    if !line.starts_with(b"---") || line.last().is_some_and(|&b| is_space(b)) {
        return false;
    }
    let dashes = line.iter().take_while(|&&b| b == b'-').count();
    let blanks = line[dashes..].iter().take_while(|&&b| is_space(b)).count();
    line.get(dashes + blanks).is_none_or(|&b| b == b'#')
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

/// Whether the reader trims byte `b` from the edges of a line, key, scalar
/// or flow item: space, tab, `\v` and `\f`. Other Unicode white space
/// (U+00A0, U+3000, …) is content, as it is to go-yaml.
fn is_blank(b: u8) -> bool {
    CLASS[b as usize] == BLANK
}

/// The positioned parse error at `line`, as a result.
fn fail<T>(line: usize, message: impl Into<String>) -> Result<T, Error> {
    Err(Error::parse(line, message))
}

/// Unquote a mapping key if it is quoted; plain keys borrow.
fn unquote_key<'a>(key: &'a str, line: usize) -> Result<Cow<'a, str>, Error> {
    if is_quoted(key) {
        scan_quoted(key, line)
    } else {
        Ok(Cow::Borrowed(key))
    }
}

/// Whether `text` is one quoted string: it opens and closes with the same
/// quote.
fn is_quoted(text: &str) -> bool {
    text.len() >= 2 && matches!(text.as_bytes()[0], b'"' | b'\'') && text.ends_with(&text[..1])
}

/// Lex a plain or quoted scalar, trimmed by its caller, into a token. The
/// typing rules are the tree parser's: quoted → string, `~`/null/true/false
/// keywords, integers (except leading zeros), floats, everything else a
/// string.
fn scan_scalar<'a>(text: &'a str, line: usize) -> Result<ScalarToken<'a>, Error> {
    if text.is_empty() {
        return Ok(ScalarToken::Null);
    }
    if is_quoted(text) {
        return scan_quoted(text, line).map(ScalarToken::Str);
    }
    match text {
        "~" | "null" | "Null" | "NULL" => return Ok(ScalarToken::Null),
        "true" | "True" | "TRUE" => return Ok(ScalarToken::Bool(true)),
        "false" | "False" | "FALSE" => return Ok(ScalarToken::Bool(false)),
        _ => {}
    }
    // Only a sign or a digit can start an integer or a float.
    if !matches!(text.as_bytes()[0], b'0'..=b'9' | b'-' | b'+') {
        return Ok(ScalarToken::Str(Cow::Borrowed(text)));
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

/// Whether `text` reads `-?[0-9]+\.[0-9]+`.
fn looks_like_float(text: &str) -> bool {
    let digits = |part: &str| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit());
    let unsigned = text.strip_prefix('-').unwrap_or(text);
    unsigned
        .split_once('.')
        .is_some_and(|(whole, fraction)| digits(whole) && digits(fraction))
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
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('N') => out.push('\u{85}'),
                Some('L') => out.push('\u{2028}'),
                Some('P') => out.push('\u{2029}'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => return fail(line, "dangling escape in quoted string"),
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
        let bytes = &self.text.as_bytes()[self.i..];
        self.i += bytes.iter().take_while(|&&b| is_blank(b)).count();
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.base_offset + self.i)
    }
}

/// Scan one flow node (`[...]`, `{...}` or a scalar token), emitting events.
/// `depth` is the number of containers (block and flow) already open around
/// it; the scan recurses per flow level, so it refuses to open a collection
/// past [`MAX_NESTING_DEPTH`]. Flow mappings open in `keys` like block ones.
fn scan_flow_node<'a>(
    cur: &mut FlowCursor<'a>,
    queue: &mut VecDeque<Event<'a>>,
    keys: &mut OpenKeys<'a>,
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
                scan_flow_node(cur, queue, keys, depth + 1)?;
                cur.skip_ws();
                match cur.peek() {
                    Some(',') => cur.i += 1,
                    Some(']') => {
                        cur.i += 1;
                        break;
                    }
                    _ => return fail(cur.line, "expected `,` or `]` in flow sequence"),
                }
            }
            queue.push_back(Event::End);
            Ok(())
        }
        Some('{') => {
            queue.push_back(Event::MappingStart { pos: cur.pos() });
            cur.i += 1;
            let start = keys.open();
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
                if !keys.insert(start, key.clone()) {
                    return fail(
                        cur.line,
                        format!("duplicate mapping key `{key}` in flow mapping"),
                    );
                }
                cur.skip_ws();
                if cur.peek() != Some(':') {
                    return fail(cur.line, "expected `:` in flow mapping");
                }
                cur.i += 1;
                queue.push_back(Event::Key {
                    name: key,
                    pos: key_pos,
                });
                scan_flow_node(cur, queue, keys, depth + 1)?;
                cur.skip_ws();
                match cur.peek() {
                    Some(',') => cur.i += 1,
                    Some('}') => {
                        cur.i += 1;
                        break;
                    }
                    _ => return fail(cur.line, "expected `,` or `}` in flow mapping"),
                }
            }
            keys.close(start);
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
        None => fail(cur.line, "unexpected end of flow collection"),
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
        return fail(cur.line, "unterminated quoted string");
    }
    let start = cur.i;
    while cur.i < bytes.len() && !stops.contains(&(bytes[cur.i] as char)) {
        cur.i += 1;
    }
    let raw = cur.text[start..cur.i].trim_matches(|c: char| c.is_ascii() && is_blank(c as u8));
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

    /// Duplicate detection costs a constant per key once a mapping is
    /// wide: twice the keys make at most about twice the comparisons, in
    /// block, flow and JSON form, and a duplicate far past the scanned
    /// keys is still refused.
    #[test]
    fn duplicate_detection_is_linear_in_a_mappings_keys() {
        fn comparisons(text: &str, json: bool) -> Result<usize, Error> {
            KEY_COMPARISONS.with(|count| count.set(0));
            if json {
                let mut tok = crate::json::JsonTokenizer::new(text);
                while tok.next_event()?.is_some() {}
            } else {
                let mut tok = Tokenizer::new(text)?;
                while tok.next_event()?.is_some() {}
            }
            Ok(KEY_COMPARISONS.with(std::cell::Cell::get))
        }
        /// `key: 0` entries for `k0`, `k1`, … `k{n - 1}`, then `k5` again
        /// when `duplicate`.
        fn entries(n: usize, duplicate: bool, json: bool) -> Vec<String> {
            (0..n)
                .chain(duplicate.then_some(5))
                .map(|i| match json {
                    true => format!("\"k{i}\": 0"),
                    false => format!("k{i}: 0"),
                })
                .collect()
        }
        type Render = fn(Vec<String>) -> String;
        let forms: [(&str, bool, Render); 3] = [
            ("block", false, |entries| entries.join("\n") + "\n"),
            ("flow", false, |entries| {
                format!("m: {{{}}}\n", entries.join(", "))
            }),
            ("json", true, |entries| format!("{{{}}}", entries.join(","))),
        ];
        for (form, json, render) in forms {
            let count = |n: usize| comparisons(&render(entries(n, false, json)), json).unwrap();
            let (half, full) = (count(32 << 10), count(64 << 10));
            assert!(
                full as f64 <= 2.2 * half as f64,
                "{form}: {full} comparisons for 64k keys, {half} for 32k"
            );
            let duplicated = render(entries(SCANNED_KEYS * 4, true, json));
            let err = comparisons(&duplicated, json).unwrap_err();
            assert!(err.to_string().contains("duplicate"), "{form}: {err}");
        }
        // A mapping opened inside a wide one holds keys of its own.
        let wide: Vec<String> = (0..SCANNED_KEYS * 2).map(|i| format!("k{i}: 0")).collect();
        let block = format!(
            "{}\nn:\n  k0: 0\n  k1: {{k2: 0}}\nk99: 0\n",
            wide.join("\n")
        );
        assert!(comparisons(&block, false).is_ok());
        let refused = comparisons(&format!("{block}k1: 0\n"), false).unwrap_err();
        assert!(matches!(refused, Error::Parse { line, .. } if line == SCANNED_KEYS * 2 + 5));
        let flow = format!(
            "m: {{{}, n: {{k0: 0, k1: [{{k2: 0}}]}}, k99: 0}}\n",
            wide.join(", ")
        );
        assert!(comparisons(&flow, false).is_ok());
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
