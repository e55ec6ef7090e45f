//! Canonical YAML emitter for [`Value`] trees.
//!
//! The emitter produces the conventional 2-space-indented block style used by
//! Kubernetes manifests; output is deterministic (mapping order is insertion
//! order) so that rendered manifests and generated validators can be compared
//! textually in tests and documentation.
//!
//! Every writer appends to the caller's `out: &mut String` and allocates
//! nothing else: indentation is sliced from a static run of spaces, plain
//! keys and scalars are copied whole, quoted ones in the unescaped runs
//! between escapes, and numbers are formatted straight into `out`. The only
//! heap traffic is the growth of `out` itself.
//!
//! # Streaming fragments
//!
//! [`emit_entry`], [`emit_entry_inline`] and [`emit_seq_item`] let a caller
//! write an envelope around borrowed subtrees, one entry or element at a
//! time, without building an owned envelope tree (the API server's read
//! responses are written this way). [`emit_rendered_seq_item`] writes an
//! element from a mapping's [`to_yaml`] text, read from the buffer it
//! appends to, instead of its tree (a stored object caches both texts).
//! Their contract:
//!
//! * each appends exactly the bytes [`to_yaml`] writes for that entry or
//!   element inside an enclosing block mapping or sequence, so a sequence of
//!   fragments is byte-identical to rendering the whole document;
//! * `indent` is the column of the key or the dash; nested blocks sit two
//!   columns deeper, and empty containers are written inline as `{}` / `[]`;
//! * [`emit_entry`], [`emit_seq_item`] and [`emit_rendered_seq_item`] write
//!   whole lines, indentation included; [`emit_entry_inline`] continues a
//!   line the caller started (such as `- `) and ends it;
//! * none of them allocates beyond growing `out`.

use std::fmt::Write as _;
use std::iter::Peekable;

use crate::events::{is_space, line_break};
use crate::value::Value;

/// Serialize a [`Value`] to YAML text.
///
/// Scalars at the document root are emitted on a single line; mappings and
/// sequences use block style with 2-space indentation. Strings are quoted
/// whenever a plain scalar would be re-interpreted as another type — by this
/// crate's reader or by a YAML 1.1 one (`yes`, `on`, `0x1F`, `1_000`) — or
/// break parsing (empty strings, strings that look like numbers or booleans,
/// strings containing `: `, `#`, leading/trailing whitespace, …). Mapping
/// keys outside `[A-Za-z0-9_./-]`, or that read as another type, are quoted
/// the same way.
pub fn to_yaml(value: &Value) -> String {
    let mut out = String::new();
    write_yaml(value, &mut out);
    out
}

/// Append `value`'s YAML rendering to `out` — the appending twin of
/// [`to_yaml`], as [`write_json`](crate::write_json) is of
/// [`to_json`](crate::to_json).
pub fn write_yaml(value: &Value, out: &mut String) {
    emit_block(value, 0, out);
}

/// A size estimate for `value`'s wire text in either format, to reserve a
/// buffer the writers fill without growing it: a string at its bytes plus
/// five and a key at its bytes plus four, for the quotes, separators,
/// indentation and line break around them; a number at nine and a
/// container at five. It is cheap to count and errs long for chart
/// objects, whose binary records are shorter than their text, so
/// [`crate::binary::value_len`] would err short.
pub fn wire_len_hint(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Seq(items) => 5 + items.iter().map(wire_len_hint).sum::<usize>(),
        Value::Map(map) => {
            5 + map
                .iter()
                .map(|(key, item)| 4 + key.len() + wire_len_hint(item))
                .sum::<usize>()
        }
    }
}

/// The run of spaces indentation is sliced from.
const SPACES: &str = "                                                                ";

/// Append `indent` spaces.
fn push_indent(mut indent: usize, out: &mut String) {
    while indent > SPACES.len() {
        out.push_str(SPACES);
        indent -= SPACES.len();
    }
    out.push_str(&SPACES[..indent]);
}

/// Whether `value` is written as a block on the lines below its key or dash:
/// a non-empty container. Everything else fits on the line.
fn is_block(value: &Value) -> bool {
    match value {
        Value::Map(map) => !map.is_empty(),
        Value::Seq(seq) => !seq.is_empty(),
        _ => false,
    }
}

/// Write `value` with its lines at column `indent`: a non-empty container
/// in block style, anything else as one line.
fn emit_block(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Map(map) if !map.is_empty() => {
            for (key, child) in map.iter() {
                emit_entry(key, child, indent, out);
            }
        }
        Value::Seq(seq) if !seq.is_empty() => {
            for item in seq {
                emit_seq_item(item, indent, out);
            }
        }
        inline => {
            push_indent(indent, out);
            emit_inline(inline, out);
            out.push('\n');
        }
    }
}

/// Emit one `- item` element of a block sequence whose dashes sit at column
/// `indent` — exactly the bytes [`to_yaml`] produces for that element inside
/// an enclosing sequence. Together with [`emit_entry`] this is the streaming
/// serializer surface: callers render collection envelopes around borrowed
/// subtrees one element at a time, without ever materializing an owned
/// document tree.
pub fn emit_seq_item(item: &Value, indent: usize, out: &mut String) {
    push_indent(indent, out);
    match item {
        // Compact form: the first key on the dash line, the remaining keys
        // at the same column.
        Value::Map(map) if !map.is_empty() => {
            out.push_str("- ");
            for (i, (key, child)) in map.iter().enumerate() {
                if i == 0 {
                    emit_entry_inline(key, child, indent + 2, out);
                } else {
                    emit_entry(key, child, indent + 2, out);
                }
            }
        }
        Value::Seq(seq) if !seq.is_empty() => {
            out.push_str("-\n");
            emit_block(item, indent + 2, out);
        }
        inline => {
            out.push_str("- ");
            emit_inline(inline, out);
            out.push('\n');
        }
    }
}

/// Append to `out` one element of a block sequence whose dashes sit at
/// column `indent`, made from `out[rendered_from..]`: the [`to_yaml`] text
/// of a **non-empty mapping**, already in the buffer. What is appended is
/// exactly the bytes [`emit_seq_item`] writes for that mapping, without its
/// tree; the rendered text before it stays as it was, so a caller can keep
/// the text and its element side by side and cut the element off again.
///
/// The emitter never writes a raw line break inside a scalar — a string
/// holding `\n` is double-quoted and escaped — so every `\n` of the text
/// ends one of its lines, and the element is those lines shifted right: the
/// first behind `indent` spaces and a dash, the rest behind `indent + 2`
/// spaces. That is where [`emit_seq_item`]'s compact form puts them.
///
/// # Panics
///
/// If `rendered_from` is past the end of `out` or not on a character
/// boundary.
pub fn emit_rendered_seq_item(rendered_from: usize, indent: usize, out: &mut String) {
    let end = out.len();
    // Grow `out` once, to the element's exact length: each line gains
    // `indent + 2` columns, and a text that does not end in a line break
    // has one more line than it has breaks.
    let text = &out.as_bytes()[rendered_from..];
    let lines = text.iter().filter(|&&b| b == b'\n').count() + usize::from(!text.ends_with(b"\n"));
    out.reserve(text.len() + lines * (indent + 2));
    let line_end = |out: &str, from: usize| out[from..end].find('\n').map_or(end, |i| from + i + 1);
    push_indent(indent, out);
    out.push_str("- ");
    let mut to = line_end(out, rendered_from);
    out.extend_from_within(rendered_from..to);
    while to < end {
        let from = to;
        to = line_end(out, from);
        push_indent(indent + 2, out);
        out.extend_from_within(from..to);
    }
}

/// Emit one `key: value` mapping entry with the key at column `indent` —
/// exactly the bytes [`to_yaml`] produces for that entry inside an enclosing
/// mapping (nested containers in block style two columns deeper).
pub fn emit_entry(key: &str, value: &Value, indent: usize, out: &mut String) {
    push_indent(indent, out);
    emit_entry_inline(key, value, indent, out);
}

/// [`emit_entry`] for callers that already wrote the current line's prefix
/// (e.g. a sequence dash): appends `key:` plus the value, with nested
/// blocks indented relative to `key_indent` (the column the key sits at).
pub fn emit_entry_inline(key: &str, value: &Value, key_indent: usize, out: &mut String) {
    if key_is_plain(key) {
        out.push_str(key);
    } else {
        quote(key, out);
    }
    if is_block(value) {
        out.push_str(":\n");
        emit_block(value, key_indent + 2, out);
    } else {
        out.push_str(": ");
        emit_inline(value, out);
        out.push('\n');
    }
}

fn key_is_plain(key: &str) -> bool {
    !key.is_empty()
        && !key.starts_with('-')
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'/'))
        && !reads_as_non_string(key)
}

/// Write a scalar, or an empty container as `{}` / `[]`, with no line break.
fn emit_inline(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => push_float(*x, out),
        Value::Str(s) if string_is_plain(s) => out.push_str(s),
        Value::Str(s) => quote(s, out),
        Value::Map(_) => out.push_str("{}"),
        Value::Seq(_) => out.push_str("[]"),
    }
}

/// Write a float so that it reads back as one: a whole number keeps a
/// decimal point (`2.0`). Shared with the JSON writer.
pub(crate) fn push_float(x: f64, out: &mut String) {
    // The fraction of a non-finite float is NaN, so only finite whole
    // numbers take the first branch.
    let _ = if x.fract() == 0.0 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    };
}

/// Whether a string can be emitted without quotes and still parse back as the
/// same string. One pass over the bytes, then the type check.
fn string_is_plain(s: &str) -> bool {
    let bytes = s.as_bytes();
    let Some(&first) = bytes.first() else {
        return false;
    };
    if is_indicator(first) || s.starts_with(char::is_whitespace) || s.ends_with(char::is_whitespace)
    {
        return false;
    }
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\n' | b'\r' | b'\t' | b'\'' | b'"' => return false,
            // U+0085, U+2028 and U+2029 break a line for other readers.
            0xC2 | 0xE2 if line_break(bytes, i).is_some() => return false,
            // A `:` before whitespace or at the end would end a key, and a
            // `#` after whitespace starts a comment — whitespace as the
            // reader's line scanner judges it.
            b':' if bytes.get(i + 1).is_none_or(|&next| is_space(next)) => return false,
            b'#' if i > 0 && is_space(bytes[i - 1]) => return false,
            _ => {}
        }
    }
    !reads_as_non_string(s)
}

/// Whether `b` cannot start a plain scalar: the YAML indicator characters.
fn is_indicator(b: u8) -> bool {
    matches!(
        b,
        b'-' | b'?'
            | b':'
            | b','
            | b'['
            | b']'
            | b'{'
            | b'}'
            | b'#'
            | b'&'
            | b'*'
            | b'!'
            | b'|'
            | b'>'
            | b'%'
            | b'@'
            | b'`'
    )
}

/// Whether `s`, written plain, would be read as something other than a
/// string — by this crate's reader, or by a YAML 1.1 reader such as the
/// go-yaml v2 behind `sigs.k8s.io/yaml`: a null, a bool, a number or the
/// merge key `<<`.
fn reads_as_non_string(s: &str) -> bool {
    match s {
        "~" | "null" | "Null" | "NULL" | "true" | "True" | "TRUE" | "false" | "False" | "FALSE" => {
            true
        }
        // YAML 1.1's other bools, its infinities and NaNs, and the merge key.
        "y" | "Y" | "yes" | "Yes" | "YES" | "n" | "N" | "no" | "No" | "NO" | "on" | "On" | "ON"
        | "off" | "Off" | "OFF" | ".inf" | ".Inf" | ".INF" | "+.inf" | "+.Inf" | "+.INF"
        | "-.inf" | "-.Inf" | "-.INF" | ".nan" | ".NaN" | ".NAN" | "<<" => true,
        // Every string `parse::<i64>` accepts `parse::<f64>` accepts too.
        // Starting with a letter, `parse::<f64>` takes only `inf`,
        // `infinity` and `nan` in any case; otherwise it needs a sign, a
        // digit or a point first, and other strings skip the parse.
        _ => match s.as_bytes().first() {
            Some(b'0'..=b'9' | b'+' | b'-' | b'.') => {
                s.parse::<f64>().is_ok() || is_yaml11_number(s)
            }
            Some(b'i' | b'I' | b'n' | b'N') => ["inf", "infinity", "nan"]
                .iter()
                .any(|word| s.eq_ignore_ascii_case(word)),
            _ => false,
        },
    }
}

/// Whether a YAML 1.1 reader resolves `s` to a number where Rust's parsers
/// do not: after dropping every `_` (`1_000`), an integer in base 16, 8 or 2
/// (`0x1F`, `0o17`, `0b101`) or a decimal. Errs toward yes, which only
/// costs a pair of quotes.
fn is_yaml11_number(s: &str) -> bool {
    if s.starts_with('_') {
        return false;
    }
    let mut bytes = s.bytes().filter(|&b| b != b'_').peekable();
    if matches!(bytes.peek(), Some(b'+' | b'-')) {
        bytes.next();
    }
    let mut prefixed = bytes.clone();
    if prefixed.next() == Some(b'0') {
        let is_digit: Option<fn(&u8) -> bool> = match prefixed.next() {
            Some(b'x' | b'X') => Some(u8::is_ascii_hexdigit),
            Some(b'o' | b'O') => Some(|b| (b'0'..=b'7').contains(b)),
            Some(b'b' | b'B') => Some(|b| matches!(b, b'0' | b'1')),
            _ => None,
        };
        if let Some(is_digit) = is_digit {
            return prefixed.peek().is_some() && prefixed.all(|b| is_digit(&b));
        }
    }
    // A decimal: `[0-9]+(\.[0-9]*)?` or `\.[0-9]+`, then `([eE][-+]?[0-9]+)?`.
    let whole = skip_digits(&mut bytes);
    let fraction = bytes.next_if_eq(&b'.').is_some() && skip_digits(&mut bytes);
    if !whole && !fraction {
        return false;
    }
    if bytes.next_if(|b| matches!(b, b'e' | b'E')).is_some() {
        bytes.next_if(|b| matches!(b, b'+' | b'-'));
        if !skip_digits(&mut bytes) {
            return false;
        }
    }
    bytes.next().is_none()
}

/// Consume a run of ASCII digits; whether there was one.
fn skip_digits(bytes: &mut Peekable<impl Iterator<Item = u8>>) -> bool {
    let mut any = false;
    while bytes.next_if(u8::is_ascii_digit).is_some() {
        any = true;
    }
    any
}

/// Write `s` double-quoted, copying the runs between the characters that
/// need an escape. The line breaks the reader refuses inside a line (CR,
/// U+0085, U+2028, U+2029) are written as go-yaml's `\r`, `\N`, `\L`, `\P`.
fn quote(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0xC2 | 0xE2 => match line_break(bytes, i) {
                Some('\u{85}') => "\\N",
                Some('\u{2028}') => "\\L",
                Some('\u{2029}') => "\\P",
                _ => continue,
            },
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + s[i..].chars().next().map_or(1, char::len_utf8);
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Mapping, Path, Value};

    fn roundtrip(v: &Value) -> Value {
        parse(&to_yaml(v)).expect("emitted YAML must re-parse")
    }

    /// One string per quoting and escaping branch, with its pinned rendering.
    const QUOTING_STRINGS: &[(&str, &str)] = &[
        // Whitespace and the separators a plain scalar cannot hold.
        ("", "\"\""),
        (" lead", "\" lead\""),
        ("trail ", "\"trail \""),
        ("a: b", "\"a: b\""),
        ("trail:", "\"trail:\""),
        ("a #b", "\"a #b\""),
        ("a:b", "a:b"),
        ("a#b", "a#b"),
        // Quotes, line breaks, tabs, backslashes, control bytes.
        ("it's", "\"it's\""),
        ("say \"hi\"", "\"say \\\"hi\\\"\""),
        ("two\nlines", "\"two\\nlines\""),
        ("tab\there", "\"tab\\there\""),
        ("cr\rhere", "\"cr\\rhere\""),
        ("nel\u{85}ls\u{2028}ps\u{2029}", "\"nel\\Nls\\Lps\\P\""),
        ("back\\slash", "back\\slash"),
        ("\\: x", "\"\\\\: x\""),
        ("bell\u{7}", "bell\u{7}"),
        (" \u{1}\"\\\n\t", "\" \u{1}\\\"\\\\\\n\\t\""),
        // Indicator first characters.
        ("-x", "\"-x\""),
        ("?x", "\"?x\""),
        (":x", "\":x\""),
        (",x", "\",x\""),
        ("[x", "\"[x\""),
        ("]x", "\"]x\""),
        ("{x", "\"{x\""),
        ("}x", "\"}x\""),
        ("#x", "\"#x\""),
        ("&x", "\"&x\""),
        ("*x", "\"*x\""),
        ("!x", "\"!x\""),
        ("|x", "\"|x\""),
        (">x", "\">x\""),
        ("%x", "\"%x\""),
        ("@x", "\"@x\""),
        ("`x", "\"`x\""),
        // Words read as another type.
        ("null", "\"null\""),
        ("True", "\"True\""),
        ("~", "\"~\""),
        ("{}", "\"{}\""),
        ("[]", "\"[]\""),
        // Numbers, and lookalikes that stay strings.
        ("42", "\"42\""),
        ("+1", "\"+1\""),
        ("1e5", "\"1e5\""),
        (".5", "\".5\""),
        ("5.", "\"5.\""),
        ("inf", "\"inf\""),
        ("NaN", "\"NaN\""),
        ("infinity", "\"infinity\""),
        ("1.2.3", "1.2.3"),
        ("nginx:1.25", "nginx:1.25"),
        ("v1", "v1"),
        ("1a", "1a"),
        ("index", "index"),
        // A multibyte first character.
        ("ñame", "ñame"),
        ("日本 語", "日本 語"),
        ("\u{a0}lead", "\"\u{a0}lead\""),
    ];

    /// Strings a YAML 1.1 reader resolves to another type, and lookalikes
    /// that stay plain, with their pinned renderings.
    const YAML_1_1_STRINGS: &[(&str, &str)] = &[
        ("yes", "\"yes\""),
        ("Yes", "\"Yes\""),
        ("YES", "\"YES\""),
        ("no", "\"no\""),
        ("No", "\"No\""),
        ("NO", "\"NO\""),
        ("on", "\"on\""),
        ("On", "\"On\""),
        ("ON", "\"ON\""),
        ("off", "\"off\""),
        ("Off", "\"Off\""),
        ("OFF", "\"OFF\""),
        ("y", "\"y\""),
        ("Y", "\"Y\""),
        ("n", "\"n\""),
        ("N", "\"N\""),
        ("0x1F", "\"0x1F\""),
        ("0Xff", "\"0Xff\""),
        ("0o17", "\"0o17\""),
        ("0b101", "\"0b101\""),
        ("+0b1", "\"+0b1\""),
        ("1_000", "\"1_000\""),
        ("0x_1F", "\"0x_1F\""),
        ("1_000.5", "\"1_000.5\""),
        ("+1_0e1_0", "\"+1_0e1_0\""),
        (".inf", "\".inf\""),
        (".Inf", "\".Inf\""),
        ("+.INF", "\"+.INF\""),
        (".nan", "\".nan\""),
        (".NaN", "\".NaN\""),
        ("<<", "\"<<\""),
        // Lookalikes.
        ("yess", "yess"),
        ("onion", "onion"),
        ("NOPE", "NOPE"),
        ("0x", "0x"),
        ("0xG", "0xG"),
        ("0b102", "0b102"),
        ("_1", "_1"),
        ("1_a", "1_a"),
        (".info", ".info"),
        ("<<x", "<<x"),
        ("1:20", "1:20"),
    ];

    #[test]
    fn emits_scalars() {
        assert_eq!(to_yaml(&Value::Null), "null\n");
        assert_eq!(to_yaml(&Value::Bool(false)), "false\n");
        assert_eq!(to_yaml(&Value::Int(42)), "42\n");
        assert_eq!(to_yaml(&Value::Float(2.0)), "2.0\n");
        assert_eq!(to_yaml(&Value::from("plain")), "plain\n");
    }

    #[test]
    fn quotes_ambiguous_strings() {
        assert_eq!(to_yaml(&Value::from("true")), "\"true\"\n");
        assert_eq!(to_yaml(&Value::from("123")), "\"123\"\n");
        assert_eq!(to_yaml(&Value::from("")), "\"\"\n");
        assert_eq!(to_yaml(&Value::from("a: b")), "\"a: b\"\n");
    }

    /// The exact bytes of every quoting and escaping branch, pinned so a
    /// rewrite of the writer can be checked against them unedited.
    #[test]
    fn every_quoting_and_escaping_branch_writes_pinned_bytes() {
        for (input, expected) in QUOTING_STRINGS {
            assert_eq!(
                to_yaml(&Value::from(*input)),
                format!("{expected}\n"),
                "string {input:?}"
            );
        }
        for (scalar, expected) in [
            (Value::Null, "null\n"),
            (Value::Bool(true), "true\n"),
            (Value::Int(-7), "-7\n"),
            (Value::Int(i64::MIN), "-9223372036854775808\n"),
            (Value::Float(2.0), "2.0\n"),
            (Value::Float(-0.25), "-0.25\n"),
            (Value::Float(1e21), "1000000000000000000000.0\n"),
            (Value::Float(1e-7), "0.0000001\n"),
        ] {
            assert_eq!(to_yaml(&scalar), expected, "{scalar:?}");
        }
        // Keys: the plain alphabet, and the keys that need quotes.
        let mut map = Mapping::new();
        for key in [
            "app.kubernetes.io/name",
            "snake_case-key",
            "a b",
            "",
            "-lead",
            "x:y",
            "ключ",
            "q\"k",
        ] {
            map.insert(key, Value::from(1));
        }
        assert_eq!(
            to_yaml(&Value::Map(map)),
            "app.kubernetes.io/name: 1\nsnake_case-key: 1\n\"a b\": 1\n\"\": 1\n\
             \"-lead\": 1\n\"x:y\": 1\n\"ключ\": 1\n\"q\\\"k\": 1\n"
        );
    }

    /// What a YAML 1.1 reader (go-yaml v2, behind `sigs.k8s.io/yaml`)
    /// resolves to a bool, a number or a merge key is written quoted, as a
    /// value and as a key; lookalikes stay plain.
    #[test]
    fn yaml_1_1_non_strings_are_quoted() {
        for (snippet, bytes) in YAML_1_1_STRINGS {
            assert_eq!(
                to_yaml(&Value::from(*snippet)),
                format!("{bytes}\n"),
                "value {snippet:?}"
            );
        }
        let mut map = Mapping::new();
        for key in [
            "on", "123", "true", "Y", "0x1F", "1_000", ".inf", "1.5", "null", "inf", "one", "v1",
            "0x", "_1", "1.2.3",
        ] {
            map.insert(key, Value::from(1));
        }
        let doc = Value::Map(map);
        assert_eq!(
            to_yaml(&doc),
            "\"on\": 1\n\"123\": 1\n\"true\": 1\n\"Y\": 1\n\"0x1F\": 1\n\"1_000\": 1\n\
             \".inf\": 1\n\"1.5\": 1\n\"null\": 1\n\"inf\": 1\none: 1\nv1: 1\n0x: 1\n_1: 1\n\
             1.2.3: 1\n"
        );
        // This crate reads quoted and plain text alike: nothing changes on
        // the way back.
        assert_eq!(roundtrip(&doc), doc);
        let strings = Value::Seq(
            YAML_1_1_STRINGS
                .iter()
                .map(|(s, _)| Value::from(*s))
                .collect(),
        );
        assert_eq!(roundtrip(&strings), strings);
    }

    /// This crate's reader ends a key at a `:` before an ASCII whitespace
    /// byte and starts a comment at a `#` after one. A plain string holding
    /// such a pair is quoted; a multibyte character before a `#` is not
    /// whitespace, whatever its continuation bytes. A string holding a line
    /// break the reader refuses inside a line is quoted and escaped.
    #[test]
    fn separators_the_reader_finds_are_quoted() {
        for (input, expected) in [
            ("a:\rb", "\"a:\\rb\""),
            ("a:\u{b}b", "\"a:\u{b}b\""),
            ("a:\u{c}b", "\"a:\u{c}b\""),
            ("a\r#b", "\"a\\r#b\""),
            ("a\u{c}#b", "\"a\u{c}#b\""),
            // Still plain.
            ("a:b", "a:b"),
            ("日#", "日#"),
            ("é#", "é#"),
            ("你#", "你#"),
            ("a\u{85}#b", "\"a\\N#b\""),
            ("a\u{2028}#b", "\"a\\L#b\""),
            ("a\u{2029}b", "\"a\\Pb\""),
            ("é©…", "é©…"),
        ] {
            assert_eq!(
                to_yaml(&Value::from(input)),
                format!("{expected}\n"),
                "{input:?}"
            );
            let item = Value::Seq(vec![Value::from(input)]);
            assert_eq!(roundtrip(&item), item, "{input:?}");
        }
    }

    #[test]
    fn emits_nested_structures() {
        let mut inner = Mapping::new();
        inner.insert("name", Value::from("web"));
        inner.insert("image", Value::from("nginx:latest"));
        let mut spec = Mapping::new();
        spec.insert("replicas", Value::from(2));
        spec.insert("containers", Value::Seq(vec![Value::Map(inner)]));
        let mut root = Mapping::new();
        root.insert("spec", Value::Map(spec));
        let doc = Value::Map(root);
        let text = to_yaml(&doc);
        assert!(text.contains("spec:\n  replicas: 2\n  containers:\n    - name: web\n"));
        assert!(roundtrip(&doc).loosely_equals(&doc));
    }

    #[test]
    fn empty_containers_use_flow_style() {
        let mut root = Mapping::new();
        root.insert("emptyDir", Value::empty_map());
        root.insert("args", Value::empty_seq());
        let doc = Value::Map(root);
        let text = to_yaml(&doc);
        assert!(text.contains("emptyDir: {}"));
        assert!(text.contains("args: []"));
        assert!(roundtrip(&doc).loosely_equals(&doc));
    }

    #[test]
    fn sequences_of_scalars_and_maps_roundtrip() {
        let doc = parse(
            "spec:\n  ports:\n    - 80\n    - 443\n  containers:\n    - name: a\n      env:\n        - name: X\n          value: \"1\"\n    - name: b\n",
        )
        .unwrap();
        let rt = roundtrip(&doc);
        assert!(rt.loosely_equals(&doc));
        assert_eq!(
            rt.get_path(&Path::parse("spec.containers[0].env[0].value").unwrap())
                .unwrap()
                .as_str(),
            Some("1")
        );
    }

    #[test]
    fn nested_sequences_roundtrip() {
        let doc = Value::Seq(vec![
            Value::Seq(vec![Value::from(1), Value::from(2)]),
            Value::Seq(vec![Value::from(3)]),
        ]);
        assert!(roundtrip(&doc).loosely_equals(&doc));
    }

    #[test]
    fn realistic_manifest_roundtrips_exactly() {
        let text = r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx
  labels:
    app.kubernetes.io/name: nginx
spec:
  replicas: 2
  selector:
    matchLabels:
      app: nginx
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:1.25
          ports:
            - containerPort: 8080
          securityContext:
            runAsNonRoot: true
            allowPrivilegeEscalation: false
      volumes:
        - name: tmp
          emptyDir: {}
"#;
        let doc = parse(text).unwrap();
        let rt = roundtrip(&doc);
        assert!(rt.loosely_equals(&doc));
    }

    /// The rendered-text fragment against the tree fragment, at several
    /// columns (one past the static run of spaces), over the corpus above:
    /// every string as a value and as a key, on the dash line and below it,
    /// nested in a block and as the whole of a one-entry mapping, plus empty
    /// containers, sequences of sequences and a realistic manifest.
    #[test]
    fn a_rendered_mapping_splices_as_the_sequence_item_its_tree_writes() {
        let mut corpus = Vec::new();
        let extra = [
            "two\nlines",
            "cr\rhere",
            "  lead",
            "a: b",
            "日本 語",
            "a\u{2028}b",
        ];
        let strings = QUOTING_STRINGS
            .iter()
            .chain(YAML_1_1_STRINGS)
            .map(|(s, _)| *s)
            .chain(extra);
        for s in strings {
            let mut map = Mapping::new();
            map.insert(s, Value::from(s));
            map.insert("next", Value::from(s));
            let mut nested = Mapping::new();
            nested.insert("inner", Value::Map(map.clone()));
            nested.insert(
                "list",
                Value::Seq(vec![Value::from(s), Value::Map(map.clone())]),
            );
            corpus.push(Value::Map(map));
            corpus.push(Value::Map(nested));
        }
        let mut edges = Mapping::new();
        edges.insert("emptyMap", Value::empty_map());
        edges.insert("emptySeq", Value::empty_seq());
        edges.insert(
            "seqOfSeqs",
            Value::Seq(vec![
                Value::Seq(vec![Value::from(1), Value::Seq(vec![Value::Null])]),
                Value::empty_seq(),
            ]),
        );
        let mut block_first = Mapping::new();
        block_first.insert("spec", Value::Map(edges.clone()));
        corpus.push(Value::Map(edges));
        corpus.push(Value::Map(block_first));
        corpus.push(
            parse(
                "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: nginx\nspec:\n  template:\n    spec:\n      containers:\n        - name: nginx\n          args: [\"-c\", \"a: b\"]\n          ports:\n            - containerPort: 8080\n      volumes:\n        - name: tmp\n          emptyDir: {}\n",
            )
            .unwrap(),
        );
        for value in &corpus {
            let rendered = to_yaml(value);
            for indent in [0, 2, 4, 63, 70] {
                let (mut spliced, mut emitted) = (format!("x\n{rendered}"), rendered.clone());
                emit_rendered_seq_item(2, indent, &mut spliced);
                emit_seq_item(value, indent, &mut emitted);
                assert_eq!(spliced[2..], emitted, "{value:?} at column {indent}");
            }
        }
    }
}
