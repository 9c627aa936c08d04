//! [`Wire`] implementations for columnar cell values and rows, and the
//! key-list codec.
//!
//! Tabular-view summaries (next items, quantiles, find) ship small numbers
//! of materialized rows between tree nodes; these encoders define their
//! on-wire representation.
//!
//! A [`Value`] is one *tagged varint* `x << 3 | kind` — LEB128 over up to 67
//! bits, so the kind costs three bits of the first byte instead of a byte —
//! and then its payload: `Missing` (kind 0, `x = 0`); `Int` (1) and `Date`
//! (3) with `x` the zigzag of the integer and no payload; `Double` (2,
//! `x = 0`) and eight little-endian bytes; `Str` (4) with `x` the byte
//! length and the UTF-8 bytes. Kinds 5–7, a non-zero `x` under `Missing` or
//! `Double`, and a padded or overlong varint are refused. The key list that
//! sorted summaries share is laid out in the `wire` module
//! docs.

use crate::error::{Error, Result};
use crate::wire::{unzigzag, zigzag, Wire, WireReader, WireWriter};
use hillview_columnar::{Row, RowKey, Value};
use std::cmp::Ordering;

const MISSING: u8 = 0;
const INT: u8 = 1;
const DOUBLE: u8 = 2;
const DATE: u8 = 3;
const STR: u8 = 4;

impl WireWriter {
    /// Write `x << 3 | kind` as one varint; `x` keeps all 64 bits.
    fn put_tagged(&mut self, kind: u8, x: u64) {
        let first = ((x & 0xF) as u8) << 3 | kind;
        if x >> 4 == 0 {
            self.put_u8(first);
        } else {
            self.put_u8(first | 0x80);
            self.put_varint(x >> 4);
        }
    }

    /// Open a key list of `count` keys: the count and — from `first`, the
    /// first of them, unless the list is empty — the arity and directions
    /// every key of the list shares.
    pub fn put_key_header(&mut self, count: usize, first: Option<&RowKey>) {
        debug_assert_eq!(count == 0, first.is_none());
        self.put_varint(count as u64);
        if let Some(first) = first {
            self.put_varint(first.descending().len() as u64);
            for d in first.descending() {
                d.encode(self);
            }
        }
    }

    /// Write `key`, the successor of `prev` in a key list (`None` for the
    /// first key): how many leading values it shares with `prev`, then the
    /// rest. Values are shared by representation, never by `Value::eq`,
    /// under which `Int(1)` equals `Double(1.0)` and `0.0` equals `-0.0`.
    pub fn put_key(&mut self, prev: Option<&RowKey>, key: &RowKey) {
        let mut shared = 0;
        if let Some(prev) = prev {
            debug_assert_eq!(prev.descending(), key.descending());
            let both = prev.values().iter().zip(key.values());
            shared = both.take_while(|(a, b)| same_repr(a, b)).count();
            self.put_varint(shared as u64);
        }
        for v in &key.values()[shared..] {
            v.encode(self);
        }
    }
}

impl WireReader {
    fn get_tagged(&mut self) -> Result<(u8, u64)> {
        let first = self.get_u8()?;
        let mut x = u64::from(first >> 3 & 0xF);
        if first & 0x80 != 0 {
            let high = self.get_varint()?;
            if high == 0 {
                return Err(Error::NotCanonical {
                    context: "padded value tag",
                });
            }
            if high >> 60 != 0 {
                return Err(Error::BadLength {
                    context: "value tag overflow",
                    len: high,
                });
            }
            x |= high << 4;
        }
        Ok((first & 7, x))
    }

    /// Read what [`WireWriter::put_key_header`] wrote: the number of keys
    /// (each takes at least a byte, or the count is refused) and their
    /// directions, whose length is their arity.
    pub fn get_key_header(&mut self) -> Result<(usize, Vec<bool>)> {
        let count = self.get_count("key list")?;
        let descending = if count == 0 {
            Vec::new()
        } else {
            Vec::<bool>::decode(self)?
        };
        Ok((count, descending))
    }

    /// Read the successor of `prev` (`None` for the first key) in a key
    /// list of these directions, refusing a key [`WireWriter::put_key`]
    /// would have written differently or that does not sort strictly after
    /// `prev`.
    pub fn get_key(&mut self, descending: &[bool], prev: Option<&RowKey>) -> Result<RowKey> {
        let arity = descending.len();
        let mut values = Vec::with_capacity(arity);
        if let Some(prev) = prev {
            let shared = self.get_varint()?;
            if shared > arity.min(prev.values().len()) as u64 {
                return Err(Error::BadLength {
                    context: "shared key prefix",
                    len: shared,
                });
            }
            values.extend_from_slice(&prev.values()[..shared as usize]);
        }
        let shared = values.len();
        for _ in shared..arity {
            values.push(Value::decode(self)?);
        }
        let key = RowKey::new(values, descending.to_vec());
        if let Some(prev) = prev {
            if shared < arity && same_repr(&prev.values()[shared], &key.values()[shared]) {
                return Err(Error::NotCanonical {
                    context: "shared key prefix is not maximal",
                });
            }
            if prev.cmp(&key) != Ordering::Less {
                return Err(Error::NotCanonical {
                    context: "keys are not strictly ascending",
                });
            }
        }
        Ok(key)
    }
}

/// Same kind and same bits: what a key may share with its predecessor, and
/// what a summary may leave for the decoder to copy from elsewhere.
pub fn same_repr(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Missing, Value::Missing) => true,
        (Value::Int(a), Value::Int(b)) | (Value::Date(a), Value::Date(b)) => a == b,
        (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
        (Value::Str(a), Value::Str(b)) => a == b,
        _ => false,
    }
}

impl Wire for Value {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Value::Missing => w.put_tagged(MISSING, 0),
            Value::Int(v) => w.put_tagged(INT, zigzag(*v)),
            Value::Double(v) => {
                w.put_tagged(DOUBLE, 0);
                w.put_f64(*v);
            }
            Value::Date(v) => w.put_tagged(DATE, zigzag(*v)),
            Value::Str(s) => {
                w.put_tagged(STR, s.len() as u64);
                w.put_raw(s.as_bytes());
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self> {
        let (kind, x) = r.get_tagged()?;
        if x != 0 && matches!(kind, MISSING | DOUBLE) {
            return Err(Error::NotCanonical {
                context: "payload bits under a Missing or Double tag",
            });
        }
        Ok(match kind {
            MISSING => Value::Missing,
            INT => Value::Int(unzigzag(x)),
            DOUBLE => Value::Double(r.get_f64()?),
            DATE => Value::Date(unzigzag(x)),
            STR => r.get_utf8(usize::try_from(x).unwrap_or(usize::MAX), |s| Value::str(s))?,
            tag => {
                return Err(Error::BadTag {
                    context: "Value",
                    tag,
                })
            }
        })
    }
}

impl Wire for Row {
    fn encode(&self, w: &mut WireWriter) {
        self.values.encode(w);
    }

    fn decode(r: &mut WireReader) -> Result<Self> {
        Ok(Row::new(Vec::<Value>::decode(r)?))
    }
}

/// A key on its own is a key list of one.
impl Wire for RowKey {
    fn encode(&self, w: &mut WireWriter) {
        w.put_key_header(1, Some(self));
        w.put_key(None, self);
    }

    fn decode(r: &mut WireReader) -> Result<Self> {
        match r.get_key_header()? {
            (1, descending) => r.get_key(&descending, None),
            (count, _) => Err(Error::BadLength {
                context: "RowKey",
                len: count as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn value_variants_roundtrip() {
        roundtrip(Value::Missing);
        roundtrip(Value::Int(-42));
        roundtrip(Value::Double(2.5));
        roundtrip(Value::Date(1_700_000_000_000));
        roundtrip(Value::str("Gandalf"));
        roundtrip(Value::str(""));
    }

    #[test]
    fn row_roundtrip() {
        roundtrip(Row::new(vec![
            Value::str("SFO"),
            Value::Int(42),
            Value::Missing,
        ]));
        roundtrip(Row::new(vec![]));
    }

    #[test]
    fn rowkey_roundtrip_preserves_direction() {
        let k = RowKey::new(vec![Value::str("AA"), Value::Int(10)], vec![false, true]);
        let k2 = RowKey::from_bytes(k.to_bytes()).unwrap();
        assert_eq!(k2.descending(), &[false, true]);
        assert_eq!(k, k2);
    }

    #[test]
    fn rowkey_ordering_survives_wire() {
        let a = RowKey::new(vec![Value::Int(1)], vec![true]);
        let b = RowKey::new(vec![Value::Int(2)], vec![true]);
        let a2 = RowKey::from_bytes(a.to_bytes()).unwrap();
        let b2 = RowKey::from_bytes(b.to_bytes()).unwrap();
        assert_eq!(a.cmp(&b), a2.cmp(&b2));
    }

    #[test]
    fn bad_value_tag_rejected() {
        for tag in [5u8, 6, 7, 99 & !7 | 5] {
            let mut w = WireWriter::new();
            w.put_u8(tag);
            assert!(matches!(
                Value::from_bytes(w.finish()),
                Err(Error::BadTag { .. })
            ));
        }
    }

    fn frame(bytes: &[u8]) -> bytes::Bytes {
        bytes::Bytes::from(bytes.to_vec())
    }

    #[test]
    fn value_layout_is_one_tagged_varint_and_a_payload() {
        let pinned: [(Value, &[u8]); 8] = [
            (Value::Missing, &[0x00]),
            (Value::Int(0), &[0x01]),
            (Value::Int(-1), &[0x09]),
            // zigzag 16: four low bits 0, then varint(1).
            (Value::Int(8), &[0x81, 0x01]),
            (Value::Date(7), &[0x73]),
            (Value::str("ab"), &[0x14, b'a', b'b']),
            (Value::Double(2.5), &[0x02, 0, 0, 0, 0, 0, 0, 0x04, 0x40]),
            // zigzag u64::MAX: 4 + 60 bits, nothing lost to the tag.
            (
                Value::Int(i64::MIN),
                &[0xF9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
            ),
        ];
        for (v, bytes) in pinned {
            assert_eq!(&v.to_bytes()[..], bytes, "{v:?}");
            roundtrip(v);
        }
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Date(i64::MIN));
    }

    #[test]
    fn value_decoder_accepts_one_spelling_only() {
        let refused: [&[u8]; 5] = [
            &[0x08],       // Missing carrying payload bits
            &[0x0A],       // Double carrying payload bits
            &[0x81, 0x00], // a continuation that adds nothing
            &[0x81, 0x80, 0x00],
            // an eleventh group: bits past the 67th
            &[0xF9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F],
        ];
        for bytes in refused {
            assert!(Value::from_bytes(frame(bytes)).is_err(), "{bytes:02x?}");
        }
        // A string longer than the frame is refused before it is copied.
        let mut w = WireWriter::new();
        w.put_tagged(STR, u64::MAX);
        w.put_u8(b'a');
        assert_eq!(
            Value::from_bytes(w.finish()),
            Err(Error::Truncated { context: "string" })
        );
    }

    fn key(values: Vec<Value>) -> RowKey {
        let descending = vec![false; values.len()];
        RowKey::new(values, descending)
    }

    fn put_list(keys: &[RowKey]) -> bytes::Bytes {
        let mut w = WireWriter::new();
        w.put_key_header(keys.len(), keys.first());
        let mut prev = None;
        for k in keys {
            w.put_key(prev, k);
            prev = Some(k);
        }
        w.finish()
    }

    fn get_list(bytes: bytes::Bytes) -> Result<Vec<RowKey>> {
        let mut r = WireReader::new(bytes);
        let (count, descending) = r.get_key_header()?;
        let mut keys: Vec<RowKey> = Vec::with_capacity(count);
        for _ in 0..count {
            keys.push(r.get_key(&descending, keys.last())?);
        }
        match r.remaining() {
            0 => Ok(keys),
            _ => Err(Error::Truncated { context: "test" }),
        }
    }

    /// Bit-exact comparison: `Value::eq` cannot tell the traps apart.
    fn repr(keys: &[RowKey]) -> String {
        format!("{keys:?}")
    }

    #[test]
    fn key_list_shares_leading_values() {
        let keys = [
            key(vec![Value::Int(2016), Value::Int(1), Value::str("AA")]),
            key(vec![Value::Int(2016), Value::Int(1), Value::str("UA")]),
            key(vec![Value::Int(2016), Value::Int(2), Value::str("AA")]),
            key(vec![Value::Int(2017), Value::Missing, Value::Missing]),
        ];
        let bytes = put_list(&keys);
        // count, arity, three directions; the first key in full (2+1+3
        // bytes — 2016 zigzags past one tagged byte); then a share count
        // and only what changed.
        let want: &[u8] = &[
            4, 3, 0, 0, 0, //
            0x81, 0xFC, 0x01, 0x11, 0x14, b'A', b'A', //
            2, 0x14, b'U', b'A', //
            1, 0x21, 0x14, b'A', b'A', //
            0, 0x91, 0xFC, 0x01, 0x00, 0x00,
        ];
        assert_eq!(&bytes[..], want);
        assert_eq!(repr(&get_list(bytes).unwrap()), repr(&keys));
        assert_eq!(get_list(put_list(&[])).unwrap(), Vec::<RowKey>::new());
        // Arity 0: one key, zero values.
        let empty = [key(vec![])];
        assert_eq!(&put_list(&empty)[..], &[1, 0]);
        assert_eq!(get_list(put_list(&empty)).unwrap(), empty);
    }

    #[test]
    fn keys_share_representations_not_equal_values() {
        // Under `Value::eq`, 0.0 == -0.0 and Int(1) == Double(1.0): a
        // prefix shared by equality would rewrite the second into the first.
        let keys = [
            key(vec![Value::Double(0.0), Value::Int(1), Value::Int(1)]),
            key(vec![Value::Double(-0.0), Value::Double(1.0), Value::Int(2)]),
        ];
        assert!(keys[0] < keys[1]);
        let back = get_list(put_list(&keys)).unwrap();
        assert_eq!(repr(&back), repr(&keys));
        assert_eq!(put_list(&back), put_list(&keys));
    }

    #[test]
    fn key_list_decoder_accepts_one_spelling_only() {
        let int = |v: i64| Value::Int(v).to_bytes()[0];
        let list = |body: &[u8]| {
            let mut bytes = vec![2, 2, 0, 0, int(1), int(5)];
            bytes.extend_from_slice(body);
            get_list(frame(&bytes))
        };
        assert!(list(&[1, int(6)]).is_ok());
        assert!(list(&[0, int(2), int(0)]).is_ok());
        // Shares nothing, then repeats the first value it could have shared.
        assert_eq!(
            list(&[0, int(1), int(6)]),
            Err(Error::NotCanonical {
                context: "shared key prefix is not maximal"
            })
        );
        // Shares more values than a key has.
        assert!(matches!(list(&[3]), Err(Error::BadLength { .. })));
        // Equal to its predecessor, and below it.
        let unsorted = Err(Error::NotCanonical {
            context: "keys are not strictly ascending",
        });
        assert_eq!(list(&[2]), unsorted);
        assert_eq!(list(&[1, int(4)]), unsorted);
        assert_eq!(list(&[0, int(0), int(7)]), unsorted);
        // Two keys of no columns cannot ascend.
        assert_eq!(get_list(frame(&[2, 0, 0])), unsorted);
        // A key count the frame cannot hold is refused before allocation.
        let mut w = WireWriter::new();
        w.put_varint(1 << 27);
        w.put_varint(1);
        assert_eq!(
            get_list(w.finish()),
            Err(Error::Truncated {
                context: "key list"
            })
        );
    }
}
