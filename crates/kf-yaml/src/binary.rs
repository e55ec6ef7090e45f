//! A compact, hand-rolled binary codec for [`Value`] trees and the framing
//! primitives the persistence plane builds on.
//!
//! The workspace depends on nothing outside itself, so durable formats
//! (store snapshots, the write-ahead log, the AOT-compiled validator arena)
//! are encoded by hand here.
//!
//! Layout rules, all little-endian:
//!
//! * fixed-width integers: `u8`, `u32`, `u64`, `i64` (two's complement),
//!   `f64` as its IEEE-754 bit pattern (`f64::to_bits`);
//! * strings: `u32` byte length followed by UTF-8 bytes;
//! * sequences/mappings: `u32` element count followed by the elements
//!   (mapping entries are `key string, value` pairs in document order, so a
//!   round trip is **byte-identical** — [`Mapping`] preserves order);
//! * a [`Value`] is a one-byte type tag followed by the payload.
//!
//! Decoding is strict: trailing garbage, truncated payloads, unknown tags
//! and invalid UTF-8 all surface as [`BinaryError`] — never a panic — which
//! is what lets the WAL reader treat a torn tail as data to truncate rather
//! than a crash.

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
        }
    }
}

impl std::error::Error for BinaryError {}

/// Result alias for binary decoding.
pub type BinaryResult<T> = std::result::Result<T, BinaryError>;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

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

/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a [`Value`] tree (tag + payload, recursively).
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(out, TAG_NULL),
        Value::Bool(false) => put_u8(out, TAG_BOOL_FALSE),
        Value::Bool(true) => put_u8(out, TAG_BOOL_TRUE),
        Value::Int(i) => {
            put_u8(out, TAG_INT);
            put_i64(out, *i);
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
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(map) => {
            put_u8(out, TAG_MAP);
            put_u32(out, map.len() as u32);
            for (key, item) in map.iter() {
                put_str(out, key);
                put_value(out, item);
            }
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

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> BinaryResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> BinaryResult<String> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(BinaryError::LengthOverflow {
                announced: len,
                remaining: self.remaining(),
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinaryError::InvalidUtf8)
    }

    /// Read a [`Value`] tree.
    pub fn get_value(&mut self) -> BinaryResult<Value> {
        match self.get_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL_FALSE => Ok(Value::Bool(false)),
            TAG_BOOL_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(self.get_i64()?)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.get_u64()?))),
            TAG_STR => Ok(Value::Str(self.get_str()?)),
            TAG_SEQ => {
                let len = self.get_u32()? as usize;
                // Each element costs at least one tag byte; reject counts the
                // remaining input cannot possibly satisfy before allocating.
                if len > self.remaining() {
                    return Err(BinaryError::LengthOverflow {
                        announced: len,
                        remaining: self.remaining(),
                    });
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.get_value()?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let len = self.get_u32()? as usize;
                if len > self.remaining() {
                    return Err(BinaryError::LengthOverflow {
                        announced: len,
                        remaining: self.remaining(),
                    });
                }
                let mut map = Mapping::new();
                for _ in 0..len {
                    let key = self.get_str()?;
                    let value = self.get_value()?;
                    map.insert(key, value);
                }
                Ok(Value::Map(map))
            }
            tag => Err(BinaryError::UnknownTag(tag)),
        }
    }
}

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
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in bytes {
        let index = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ table[index];
    }
    !crc
}

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
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
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(value: &Value) -> Value {
        value_from_bytes(&value_to_bytes(value)).expect("round trip decodes")
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
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            value_from_bytes(&bytes),
            Err(BinaryError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
