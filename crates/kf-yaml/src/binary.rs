//! A compact, hand-rolled binary codec for [`Value`] trees and the framing
//! primitives the persistence plane builds on.
//!
//! The workspace depends on nothing outside itself, so durable formats
//! (checkpoint segments, the write-ahead log, the AOT policy cache) are
//! encoded by hand here.
//!
//! Layout rules:
//!
//! * fixed-width integers, little-endian: `u8`, `u32`, `u64`; `f64` as its
//!   IEEE-754 bit pattern (`f64::to_bits`) in eight bytes;
//! * varints: LEB128, seven bits a byte, low group first, the high bit set
//!   on every byte but the last; at most ten bytes for a `u64`, and the
//!   shortest form only (a final `0x00` group after the first byte is
//!   refused);
//! * strings: a varint byte length followed by the UTF-8 bytes;
//! * a [`Value`] is a one-byte type tag followed by its payload: nothing
//!   for null and the booleans, a zigzag varint for an integer (`0, -1, 1,
//!   -2, …` map to `0, 1, 2, 3, …`, so small magnitudes of either sign take
//!   one byte), the eight-byte `f64`, a string, or a varint element count
//!   followed by the elements — mapping entries are `key string, value`
//!   pairs in document order, so a round trip is **byte-identical**
//!   ([`Mapping`] preserves order).
//!
//! The five charts' objects take 436 bytes a body here on average, against
//! 497 as compact JSON text: most strings and every count fit a one-byte
//! length.
//!
//! Decoding is strict: trailing garbage, truncated payloads, unknown tags,
//! invalid UTF-8, malformed varints, lengths and counts past the remaining
//! input and nesting past [`MAX_DECODE_DEPTH`] all surface as
//! [`BinaryError`] — never a panic or a stack overflow — which is what lets
//! the WAL reader treat a torn tail as data to truncate rather than a crash.
//! A mapping that repeats a key decodes last-wins, as [`Mapping::insert`]
//! does, in time linear in its entries.
//!
//! The layout's version is [`LAYOUT`]. The layout does not write it
//! itself: each file that holds it derives its own version from it (the
//! WAL record's layout tag, the `KFSEG2` segment magic, the `KFAOT3` policy
//! cache magic), so a layout change is the one edit of [`LAYOUT`].

use std::fmt;

use crate::value::{Mapping, Value};

/// Errors surfaced while decoding binary payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The input ended before the announced payload did.
    UnexpectedEof {
        /// How many bytes the decoder needed.
        needed: usize,
        /// How many bytes were left.
        remaining: usize,
    },
    /// An unknown type tag was read where a [`Value`] was expected.
    UnknownTag(u8),
    /// A string payload was not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeds the remaining input (corrupt or hostile).
    LengthOverflow {
        /// The announced length.
        announced: usize,
        /// How many bytes were actually left.
        remaining: usize,
    },
    /// Sequences and mappings nest deeper than [`MAX_DECODE_DEPTH`].
    TooDeep,
    /// A varint runs past ten bytes, overflows a `u64`, or is not in its
    /// shortest form.
    InvalidVarint,
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, {remaining} left")
            }
            BinaryError::UnknownTag(tag) => write!(f, "unknown value tag {tag:#04x}"),
            BinaryError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            BinaryError::LengthOverflow {
                announced,
                remaining,
            } => write!(
                f,
                "length prefix {announced} exceeds remaining input {remaining}"
            ),
            BinaryError::TooDeep => {
                write!(f, "nesting deeper than {MAX_DECODE_DEPTH} levels")
            }
            BinaryError::InvalidVarint => {
                write!(f, "varint is overlong, overflows 64 bits or is not minimal")
            }
        }
    }
}

impl std::error::Error for BinaryError {}

/// Result alias for binary decoding.
pub type BinaryResult<T> = std::result::Result<T, BinaryError>;

/// The deepest nesting of sequences and mappings [`Cursor::get_value`]
/// decodes; one level more is [`BinaryError::TooDeep`]. Decoding recurses
/// once per level, so without a bound a hostile payload of nested one-item
/// sequences (two bytes a level) overflows the stack. It sits well above
/// the reader's nesting cap, so every object a wire body can produce still
/// round-trips.
pub const MAX_DECODE_DEPTH: usize = 512;

/// The version of this value layout: 1 was the fixed-width one before
/// varints. Every file format that holds values derives its version from
/// this constant, so bumping it retires them all at once.
pub const LAYOUT: u8 = 2;

/// An eight-byte file magic: the five-letter `prefix`, the decimal
/// `version` digit and two NULs, as `magic(b"KFSEG", 2) == *b"KFSEG2\0\0"`.
///
/// # Panics
///
/// At compile time in a `const`, when `version` is more than one digit.
pub const fn magic(prefix: &[u8; 5], version: u8) -> [u8; 8] {
    assert!(version <= 9, "a magic's version is one digit");
    let [a, b, c, d, e] = *prefix;
    [a, b, c, d, e, b'0' + version, 0, 0]
}

const _: () = assert!(MAX_DECODE_DEPTH > crate::events::MAX_NESTING_DEPTH);

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

/// The longest varint: ten seven-bit groups cover 64 bits.
const MAX_VARINT_LEN: usize = 10;

/// How many earlier keys a decoded mapping compares a new key with one by
/// one. Past this many it indexes its keys in a hash map instead (SipHash,
/// so a record cannot aim its keys at one bucket), and each further key
/// costs one probe: a wide mapping decodes in time linear in its entries.
const SCANNED_KEYS: usize = 32;

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as a LEB128 varint: one byte below 128, at most ten.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The number of bytes [`put_varint`] appends for `v`.
pub fn varint_len(v: u64) -> usize {
    // One byte per started seven-bit group; zero still takes one.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Zigzag: `0, -1, 1, -2, …` to `0, 1, 2, 3, …`, so an integer's varint
/// grows with its magnitude whatever its sign.
fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Append a string: its varint byte length, then its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The number of bytes [`put_str`] appends for `s`.
pub fn str_len(s: &str) -> usize {
    varint_len(s.len() as u64) + s.len()
}

/// Append a [`Value`] tree (tag + payload, recursively).
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(out, TAG_NULL),
        Value::Bool(false) => put_u8(out, TAG_BOOL_FALSE),
        Value::Bool(true) => put_u8(out, TAG_BOOL_TRUE),
        Value::Int(i) => {
            put_u8(out, TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Value::Float(x) => {
            put_u8(out, TAG_FLOAT);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            put_u8(out, TAG_STR);
            put_str(out, s);
        }
        Value::Seq(items) => {
            put_u8(out, TAG_SEQ);
            put_varint(out, items.len() as u64);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(map) => {
            put_u8(out, TAG_MAP);
            put_varint(out, map.len() as u64);
            for (key, item) in map.iter() {
                put_str(out, key);
                put_value(out, item);
            }
        }
    }
}

/// The exact number of bytes [`put_value`] appends for `value`, so a caller
/// can allocate an encoding's buffer once, at its final size.
pub fn value_len(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Float(_) => 9,
        Value::Str(s) => 1 + str_len(s),
        Value::Seq(items) => {
            1 + varint_len(items.len() as u64) + items.iter().map(value_len).sum::<usize>()
        }
        Value::Map(map) => {
            1 + varint_len(map.len() as u64)
                + map
                    .iter()
                    .map(|(key, item)| str_len(key) + value_len(item))
                    .sum::<usize>()
        }
    }
}

/// Encode a [`Value`] into a fresh buffer.
pub fn value_to_bytes(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    put_value(&mut out, value);
    out
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

/// A cursor over a byte slice; every read advances it.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, offset: 0 }
    }

    /// How many bytes remain unread.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The absolute offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.offset
    }

    /// Consume `n` bytes without interpreting them, returning the slice.
    ///
    /// # Errors
    ///
    /// [`BinaryError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn skip(&mut self, n: usize) -> BinaryResult<&'a [u8]> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> BinaryResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(BinaryError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> BinaryResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> BinaryResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> BinaryResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`BinaryError::UnexpectedEof`] when the input ends inside it, and
    /// [`BinaryError::InvalidVarint`] past ten bytes, past 64 bits, or when
    /// a shorter form would hold the same value.
    pub fn get_varint(&mut self) -> BinaryResult<u64> {
        let mut value = 0u64;
        for (i, &byte) in self.bytes[self.offset..].iter().enumerate() {
            if i == MAX_VARINT_LEN - 1 && byte > 1 {
                return Err(BinaryError::InvalidVarint);
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(BinaryError::InvalidVarint);
                }
                self.offset += i + 1;
                return Ok(value);
            }
        }
        Err(BinaryError::UnexpectedEof {
            needed: self.remaining() + 1,
            remaining: self.remaining(),
        })
    }

    /// Read a varint length or count that the remaining input could hold
    /// at one byte an item; a larger one is refused before anything is
    /// allocated for it.
    fn get_len(&mut self) -> BinaryResult<usize> {
        let len = self.get_varint()?;
        match usize::try_from(len) {
            Ok(len) if len <= self.remaining() => Ok(len),
            _ => Err(BinaryError::LengthOverflow {
                announced: usize::try_from(len).unwrap_or(usize::MAX),
                remaining: self.remaining(),
            }),
        }
    }

    /// Read a string, borrowed from the input.
    pub fn get_str_ref(&mut self) -> BinaryResult<&'a str> {
        let len = self.get_len()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| BinaryError::InvalidUtf8)
    }

    /// Read a string into a fresh `String`.
    pub fn get_str(&mut self) -> BinaryResult<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Read a [`Value`] tree nested at most [`MAX_DECODE_DEPTH`] deep.
    pub fn get_value(&mut self) -> BinaryResult<Value> {
        self.get_value_within(MAX_DECODE_DEPTH)
    }

    /// Read a [`Value`] that may open at most `depth` more containers.
    fn get_value_within(&mut self, depth: usize) -> BinaryResult<Value> {
        let tag = self.get_u8()?;
        if matches!(tag, TAG_SEQ | TAG_MAP) && depth == 0 {
            return Err(BinaryError::TooDeep);
        }
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL_FALSE => Ok(Value::Bool(false)),
            TAG_BOOL_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(unzigzag(self.get_varint()?))),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.get_u64()?))),
            TAG_STR => Ok(Value::Str(self.get_str()?)),
            TAG_SEQ => {
                // Each element costs at least one tag byte: `get_len` refuses
                // counts the remaining input cannot satisfy.
                let len = self.get_len()?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.get_value_within(depth - 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => self.get_mapping(depth - 1),
            tag => Err(BinaryError::UnknownTag(tag)),
        }
    }

    /// Read a mapping's entries, whose values may open at most `depth`
    /// more containers. A repeated key keeps its first place and takes its
    /// last value, as [`Mapping::insert`] would: each of the first
    /// [`SCANNED_KEYS`] keys is compared with the earlier ones one by one,
    /// and a wider mapping is folded through a hash index once read.
    fn get_mapping(&mut self, depth: usize) -> BinaryResult<Value> {
        let len = self.get_len()?;
        let mut entries: Vec<(String, Value)> = Vec::with_capacity(len);
        for _ in 0..len {
            let key = self.get_str_ref()?;
            let value = self.get_value_within(depth)?;
            let earlier = if entries.len() < SCANNED_KEYS {
                count_key_probes(entries.len());
                entries.iter().position(|(k, _)| k == key)
            } else {
                None
            };
            match earlier {
                Some(at) => entries[at].1 = value,
                None => entries.push((key.to_owned(), value)),
            }
        }
        if entries.len() > SCANNED_KEYS {
            fold_repeated_keys(&mut entries);
        }
        Ok(Value::Map(Mapping::from_unique_entries(entries)))
    }
}

/// Fold a wide mapping's repeated keys last-wins in place: one hash probe
/// per entry, and the entries are rewritten only when some key repeats.
fn fold_repeated_keys(entries: &mut Vec<(String, Value)>) {
    use std::collections::hash_map::{Entry, HashMap};
    let mut first: HashMap<&str, usize> = HashMap::with_capacity(entries.len());
    // `(later, first)` index pairs, in increasing `later` order.
    let mut repeats = Vec::new();
    for (at, (key, _)) in entries.iter().enumerate() {
        count_key_probes(1);
        match first.entry(key) {
            Entry::Occupied(seen) => repeats.push((at, *seen.get())),
            Entry::Vacant(slot) => {
                slot.insert(at);
            }
        }
    }
    if repeats.is_empty() {
        return;
    }
    for &(later, first) in &repeats {
        entries[first].1 = std::mem::replace(&mut entries[later].1, Value::Null);
    }
    let mut dropped = repeats.iter().map(|&(later, _)| later).peekable();
    let mut at = 0;
    entries.retain(|_| {
        let keep = dropped.next_if_eq(&at).is_none();
        at += 1;
        keep
    });
}

#[cfg(test)]
thread_local! {
    /// Key comparisons and hash probes made folding decoded mappings'
    /// repeated keys on this thread.
    static KEY_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_key_probes(n: usize) {
    KEY_PROBES.with(|count| count.set(count.get() + n));
}

#[cfg(not(test))]
fn count_key_probes(_: usize) {}

/// Decode a [`Value`] that must span the whole input (trailing bytes are an
/// error — frames carry exact lengths).
pub fn value_from_bytes(bytes: &[u8]) -> BinaryResult<Value> {
    let mut cursor = Cursor::new(bytes);
    let value = cursor.get_value()?;
    if !cursor.is_empty() {
        return Err(BinaryError::LengthOverflow {
            announced: bytes.len(),
            remaining: cursor.remaining(),
        });
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over a byte slice.
///
/// Used to frame WAL records and seal snapshot/arena files: a torn or
/// bit-flipped payload fails its checksum and is treated as absent, never
/// replayed.
///
/// Slice-by-8: each step folds eight input bytes through eight lookup
/// tables, so the table reads are independent of one another instead of
/// each waiting on the previous byte's result; the last `len % 8` bytes go
/// one at a time through the first table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = crc_tables();
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// The slice-by-8 tables: `tables[0]` is the classic bytewise table, and
/// `tables[k][i]` is the CRC of byte `i` followed by `k` zero bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(value: &Value) -> Value {
        let bytes = value_to_bytes(value);
        assert_eq!(value_len(value), bytes.len(), "value_len is exact");
        value_from_bytes(&bytes).expect("round trip decodes")
    }

    #[test]
    fn scalars_round_trip() {
        for value in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Str("replicas: ∞".to_owned()),
        ] {
            assert_eq!(round_trip(&value), value);
        }
    }

    #[test]
    fn float_bit_patterns_survive() {
        let nan = Value::Float(f64::NAN);
        let Value::Float(back) = round_trip(&nan) else {
            panic!("expected float");
        };
        assert!(back.is_nan());
    }

    #[test]
    fn parsed_manifest_round_trips_byte_identically() {
        let doc = parse(concat!(
            "apiVersion: apps/v1\n",
            "kind: Deployment\n",
            "metadata:\n",
            "  name: web\n",
            "  labels:\n",
            "    app: web\n",
            "spec:\n",
            "  replicas: 3\n",
            "  ports:\n",
            "    - 80\n",
            "    - 443\n",
        ))
        .expect("manifest parses");
        let encoded = value_to_bytes(&doc);
        assert_eq!(value_len(&doc), encoded.len());
        let decoded = value_from_bytes(&encoded).expect("decodes");
        assert_eq!(decoded, doc);
        // Re-encoding the decoded tree reproduces the exact bytes: mapping
        // order is preserved, so the format is canonical for a given tree.
        assert_eq!(value_to_bytes(&decoded), encoded);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let doc = parse("spec:\n  replicas: 3\n").expect("parses");
        let encoded = value_to_bytes(&doc);
        for cut in 0..encoded.len() {
            let err = value_from_bytes(&encoded[..cut]);
            assert!(err.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn unknown_tag_is_an_error_not_a_panic() {
        assert_eq!(
            value_from_bytes(&[0xFF]),
            Err(BinaryError::UnknownTag(0xFF))
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut encoded = value_to_bytes(&Value::Int(7));
        encoded.push(0);
        assert!(value_from_bytes(&encoded).is_err());
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // A sequence claiming u32::MAX elements with no payload behind it.
        let mut bytes = vec![TAG_SEQ];
        put_varint(&mut bytes, u32::MAX.into());
        assert!(matches!(
            value_from_bytes(&bytes),
            Err(BinaryError::LengthOverflow { .. })
        ));
    }

    /// `levels` one-item sequences nested around a null, as raw bytes:
    /// encoding a tree that deep would itself recurse once per level.
    fn nested_sequences(levels: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(levels * 2 + 1);
        for _ in 0..levels {
            bytes.extend_from_slice(&[TAG_SEQ, 1]);
        }
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn nesting_past_the_decode_bound_is_an_error_not_a_stack_overflow() {
        let deepest = value_from_bytes(&nested_sequences(MAX_DECODE_DEPTH)).expect("at the bound");
        assert_eq!(value_to_bytes(&deepest), nested_sequences(MAX_DECODE_DEPTH));
        for levels in [MAX_DECODE_DEPTH + 1, 1_000_000] {
            assert_eq!(
                value_from_bytes(&nested_sequences(levels)),
                Err(BinaryError::TooDeep),
                "{levels} levels"
            );
        }
        // Mappings count toward the same bound.
        let mut bytes = Vec::new();
        for _ in 0..=MAX_DECODE_DEPTH {
            bytes.extend_from_slice(&[TAG_MAP, 1]);
            put_str(&mut bytes, "k");
        }
        bytes.push(TAG_NULL);
        assert_eq!(value_from_bytes(&bytes), Err(BinaryError::TooDeep));
    }

    #[test]
    fn varints_take_their_shortest_form_and_round_trip() {
        for (value, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX.into(), 5),
            (u64::MAX >> 1, 9),
            (u64::MAX, 10),
        ] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, value);
            assert_eq!((bytes.len(), varint_len(value)), (len, len), "{value}");
            let mut cursor = Cursor::new(&bytes);
            assert_eq!(cursor.get_varint(), Ok(value));
            assert!(cursor.is_empty());
        }
        // Small magnitudes of either sign take one byte behind the tag.
        for (int, len) in [
            (0i64, 2),
            (-1, 2),
            (63, 2),
            (-64, 2),
            (64, 3),
            (i64::MIN, 11),
        ] {
            assert_eq!(value_to_bytes(&Value::Int(int)).len(), len, "{int}");
            assert_eq!(round_trip(&Value::Int(int)), Value::Int(int));
        }
    }

    #[test]
    fn hostile_varints_lengths_and_counts_are_refused() {
        let refused = |bytes: &[u8], want: BinaryError| {
            assert_eq!(value_from_bytes(bytes), Err(want), "{bytes:02x?}");
        };
        // Eleven bytes, every one continued.
        let mut overlong = vec![TAG_INT];
        overlong.extend_from_slice(&[0x80; 10]);
        overlong.push(0x01);
        refused(&overlong, BinaryError::InvalidVarint);
        // Ten bytes whose last group carries bits past 64.
        let mut overflowing = vec![TAG_INT];
        overflowing.extend_from_slice(&[0xFF; 9]);
        overflowing.push(0x02);
        refused(&overflowing, BinaryError::InvalidVarint);
        // Zero spelled in two bytes.
        refused(&[TAG_STR, 0x80, 0x00], BinaryError::InvalidVarint);
        // A varint the input ends inside.
        assert!(matches!(
            value_from_bytes(&[TAG_SEQ, 0x80, 0x80]),
            Err(BinaryError::UnexpectedEof { .. })
        ));
        // Lengths and counts past the remaining input, up to u64::MAX.
        for announced in [3u64, 1 << 40, u64::MAX] {
            for tag in [TAG_STR, TAG_SEQ, TAG_MAP] {
                let mut bytes = vec![tag];
                put_varint(&mut bytes, announced);
                bytes.extend_from_slice(b"ab");
                assert!(
                    matches!(
                        value_from_bytes(&bytes),
                        Err(BinaryError::LengthOverflow { remaining: 2, .. })
                    ),
                    "tag {tag} announcing {announced}"
                );
            }
        }
        // A mapping key's length past the input.
        refused(
            &[TAG_MAP, 1, 9, b'k'],
            BinaryError::LengthOverflow {
                announced: 9,
                remaining: 1,
            },
        );
    }

    /// A mapping record over `keys` in order, each mapping to its index.
    fn mapping_record(keys: &[String]) -> Vec<u8> {
        let mut bytes = vec![TAG_MAP];
        put_varint(&mut bytes, keys.len() as u64);
        for (at, key) in keys.iter().enumerate() {
            put_str(&mut bytes, key);
            put_value(&mut bytes, &Value::Int(at as i64));
        }
        bytes
    }

    #[test]
    fn repeated_keys_decode_last_wins_in_the_first_place() {
        for width in [3, SCANNED_KEYS, SCANNED_KEYS + 1, 4 * SCANNED_KEYS] {
            let mut keys: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
            // Repeat the first key, one in the middle and the last one,
            // the middle one twice, past the end.
            for at in [0, width / 2, width - 1, width / 2] {
                keys.push(keys[at].clone());
            }
            let mut expected = Mapping::new();
            for (at, key) in keys.iter().enumerate() {
                expected.insert(key.clone(), Value::Int(at as i64));
            }
            assert_eq!(
                value_from_bytes(&mapping_record(&keys)),
                Ok(Value::Map(expected)),
                "{width} keys"
            );
        }
    }

    #[test]
    fn decoding_a_mapping_is_linear_in_its_entries() {
        let probes = |n: usize| {
            let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
            KEY_PROBES.with(|count| count.set(0));
            let decoded = value_from_bytes(&mapping_record(&keys)).expect("decodes");
            assert_eq!(decoded.as_map().map(Mapping::len), Some(n));
            KEY_PROBES.with(std::cell::Cell::get)
        };
        let (half, full) = (probes(2 << 10), probes(4 << 10));
        assert!(
            full as f64 <= 2.2 * half as f64,
            "{full} key probes for 4k keys, {half} for 2k"
        );
    }

    /// Mutated cases per decoder fuzz; CI raises it (see `docs/ci.md`).
    fn fuzz_cases() -> usize {
        std::env::var("KF_FUZZ_CASES")
            .ok()
            .and_then(|n| n.parse().ok())
            .unwrap_or(256)
    }

    /// xorshift64: seeded, so a failing case reproduces from its index.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn truncated_and_mutated_records_are_refused_or_decode_without_panicking() {
        let doc = parse(concat!(
            "apiVersion: apps/v1\n",
            "kind: Deployment\n",
            "metadata:\n",
            "  name: web-∞\n",
            "  labels: {app: web, tier: \"\"}\n",
            "spec:\n",
            "  replicas: 300\n",
            "  ratio: -2.5\n",
            "  paused: false\n",
            "  selector: ~\n",
            "  ports: [80, -443, 65536]\n",
        ))
        .expect("manifest parses");
        let record = value_to_bytes(&doc);
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for case in 0..fuzz_cases() {
            let mut bytes = record.clone();
            let at = (next() as usize) % bytes.len();
            match case % 5 {
                0 => bytes.truncate(at),
                1 => bytes[at] = next() as u8,
                2 => bytes.insert(at, next() as u8),
                3 => {
                    bytes.remove(at);
                }
                // A run of continued varint bytes.
                _ => bytes[at..].iter_mut().take(12).for_each(|b| *b = 0xFF),
            }
            // Through the cursor, which may stop short of the end, and as
            // a whole record; whatever decodes re-encodes canonically.
            let prefix = Cursor::new(&bytes).get_value();
            for decoded in [prefix, value_from_bytes(&bytes)].into_iter().flatten() {
                let encoded = value_to_bytes(&decoded);
                let again = value_from_bytes(&encoded).expect("an encoding decodes");
                assert_eq!(value_to_bytes(&again), encoded, "case {case}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-per-step CRC-32 the slice-by-8 loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in bytes {
            crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_reference() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let buffer: Vec<u8> = (0..72).map(|_| next() as u8).collect();
        // Every length a tail, a word and their seams can take, at every
        // start offset within one word.
        for len in 0..=64 {
            for start in 0..8 {
                let bytes = &buffer[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
            }
        }
        for case in 0..fuzz_cases() {
            let len = (next() % 4096) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                crc32(&bytes),
                crc32_bytewise(&bytes),
                "case {case}, len {len}"
            );
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let doc = parse("metadata:\n  name: web\n").expect("parses");
        let encoded = value_to_bytes(&doc);
        let reference = crc32(&encoded);
        for bit in 0..encoded.len() * 8 {
            let mut flipped = encoded.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), reference, "flip at bit {bit} undetected");
        }
    }
}
