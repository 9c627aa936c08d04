//! Compact binary wire format.
//!
//! Summaries are "small by construction" (paper §5.3) and their size is the
//! quantity plotted in Figure 5 (bottom), so serialization is hand-rolled
//! rather than delegated to an opaque framework: integers are varint-encoded,
//! floats are fixed 8 bytes, collections carry a varint length prefix. The
//! [`Wire`] trait is implemented here for primitives and containers; summary
//! types in higher crates compose these.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Sanity cap on decoded collection lengths (defends against corrupt
/// frames; no legitimate summary is anywhere near this).
const MAX_LEN: u64 = 1 << 28;

/// Streaming writer over a growable byte buffer.
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Start an empty buffer.
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(64),
        }
    }

    /// Finish and take the bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write an unsigned varint (LEB128).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.put_u8((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.put_u8(v as u8);
    }

    /// Write a signed integer with zigzag + varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_varint(zigzag(v));
    }

    /// Write a fixed 8-byte little-endian float.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.put_slice(b);
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming reader over a byte slice.
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wrap bytes for reading.
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Read an unsigned varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            if !self.buf.has_remaining() {
                return Err(Error::Truncated { context: "varint" });
            }
            let b = self.buf.get_u8();
            if shift >= 64 {
                return Err(Error::BadLength {
                    context: "varint overflow",
                    len: v,
                });
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-varint signed integer.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(unzigzag(self.get_varint()?))
    }

    /// Read a fixed 8-byte float.
    pub fn get_f64(&mut self) -> Result<f64> {
        if self.buf.remaining() < 8 {
            return Err(Error::Truncated { context: "f64" });
        }
        Ok(self.buf.get_f64_le())
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        if !self.buf.has_remaining() {
            return Err(Error::Truncated { context: "u8" });
        }
        Ok(self.buf.get_u8())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_with(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string in place: `f` sees it borrowed
    /// from the buffer, so a reader that only inspects or re-homes the
    /// string copies and allocates nothing here.
    pub fn get_str_with<T>(&mut self, f: impl FnOnce(&str) -> T) -> Result<T> {
        let len = self.get_len("string")?;
        let raw = self
            .buf
            .chunk()
            .get(..len)
            .ok_or(Error::Truncated { context: "string" })?;
        let out = f(std::str::from_utf8(raw).map_err(|_| Error::BadUtf8)?);
        self.buf.advance(len);
        Ok(out)
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_len("bytes")?;
        if self.buf.remaining() < len {
            return Err(Error::Truncated { context: "bytes" });
        }
        Ok(self.buf.copy_to_bytes(len).to_vec())
    }

    /// Read a collection length prefix with the sanity cap applied; an
    /// oversized one is reported under the caller's `context`.
    pub fn get_len(&mut self, context: &'static str) -> Result<usize> {
        let len = self.get_varint()?;
        if len > MAX_LEN {
            return Err(Error::BadLength { context, len });
        }
        Ok(len as usize)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Types that can be serialized to / deserialized from the wire format.
///
/// Every summary the execution tree transports implements `Wire`; the byte
/// length of the encoding is what the bandwidth experiments measure.
pub trait Wire: Sized {
    /// Append this value to the writer.
    fn encode(&self, w: &mut WireWriter);
    /// Decode one value from the reader.
    fn decode(r: &mut WireReader) -> Result<Self>;

    /// Convenience: encode to a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Convenience: decode from a byte buffer, requiring full consumption.
    fn from_bytes(bytes: Bytes) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(Error::BadLength {
                context: "trailing bytes",
                len: r.remaining() as u64,
            });
        }
        Ok(v)
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        r.get_varint()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        let v = r.get_varint()?;
        u32::try_from(v).map_err(|_| Error::BadLength {
            context: "u32",
            len: v,
        })
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        let v = r.get_varint()?;
        usize::try_from(v).map_err(|_| Error::BadLength {
            context: "usize",
            len: v,
        })
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_i64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        r.get_i64()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        r.get_f64()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(Error::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        let len = r.get_len("Vec")?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(Error::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        let d = T::from_bytes(b).unwrap();
        assert_eq!(v, d);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(127u64);
        roundtrip(128u64);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip("hello world".to_string());
        roundtrip(String::new());
        roundtrip("日本語テキスト".to_string());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42i64));
        roundtrip(Option::<i64>::None);
        roundtrip((1u64, "x".to_string()));
        roundtrip((1u64, 2i64, 3.5f64));
        roundtrip(vec![Some("a".to_string()), None]);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = WireWriter::new();
        w.put_varint(5);
        assert_eq!(w.len(), 1);
        let mut w = WireWriter::new();
        w.put_varint(300);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn truncated_input_errors() {
        let b = 123456789u64.to_bytes();
        let cut = b.slice(0..b.len() - 1);
        assert!(matches!(u64::from_bytes(cut), Err(Error::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_varint(2);
        assert!(matches!(
            u64::from_bytes(w.finish()),
            Err(Error::BadLength { .. })
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        assert!(matches!(
            bool::from_bytes(w.finish()),
            Err(Error::BadTag { .. })
        ));
        let mut w = WireWriter::new();
        w.put_u8(9);
        assert!(matches!(
            Option::<u64>::from_bytes(w.finish()),
            Err(Error::BadTag { .. })
        ));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX / 2);
        assert!(matches!(
            Vec::<u64>::from_bytes(w.finish()),
            Err(Error::BadLength { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        assert_eq!(String::from_bytes(w.finish()), Err(Error::BadUtf8));
    }

    #[test]
    fn zigzag_properties() {
        for v in [-2i64, -1, 0, 1, 2, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small.
        assert!(zigzag(-1) < 10);
        assert!(zigzag(1) < 10);
    }
}
