//! Compact binary wire format.
//!
//! Summaries are "small by construction" (paper §5.3) and their size is the
//! quantity plotted in Figure 5 (bottom), so serialization is hand-rolled
//! rather than delegated to an opaque framework: integers are varint-encoded,
//! floats are fixed 8 bytes, collections carry a varint length prefix. The
//! [`Wire`] trait is implemented here for primitives and containers; summary
//! types in higher crates compose these.
//!
//! # Shape-aware codecs
//!
//! Most of what a summary holds has a shape the plain primitives spell out
//! cell by cell: a grid of counts is mostly empty, a sorted key list repeats
//! its leading columns, the registers of an HLL crowd a few small values
//! above a floor. Three codecs carry those shapes, and every summary is
//! written in terms of them. Each is *canonical* — a value has exactly one
//! byte string, and a decoder refuses every other spelling
//! ([`Error::NotCanonical`]) — so a decoded summary re-encodes to the bytes
//! it came from.
//!
//! **Varint.** LEB128, least significant group first, at most ten bytes.
//! Refused: a final byte of `0x00` after a continuation byte (a padded
//! value) and a tenth byte other than `0x01` (bits past the 64th).
//!
//! **Counts** ([`WireWriter::put_counts`] / [`WireReader::get_counts`]). A
//! vector of `n` counts, `n` known to the reader beforehand, as a sequence
//! of tokens. A non-zero count is its varint, and a zero between two
//! counts is the byte `0x00` — both as a varint per count would spell
//! them. A *maximal* run of `k ≥ 2` zeros is the one spelling that leaves
//! unused: `varint(k − 2)` *padded* — the continuation bit set on its every
//! byte, then `0x00` — so two bytes stand for up to 129 zeros, three for
//! 16 513, and no vector is longer than its varint-per-count encoding.
//! Refused: a run that reaches past `n`, padding of more than the one
//! `0x00`, and any zero or run directly after a zero or run (the two were
//! one run).
//!
//! **Patched** ([`WireWriter::put_packed`] / [`WireReader::get_packed`]).
//! `n` bytes, `n` known to the reader, as an offset, narrow slots and the
//! exceptions that do not fit them — the "offset + narrow registers +
//! exceptions" idea of HyperLogLog++ (Heule et al., EDBT 2013) and of
//! DataSketches' HLL_4. `base`, the least value (`0` when `n = 0`),
//! and `width ≤ 8`, each a byte; then slot `i`, `min(v_i − base, 2^width −
//! 1)`, in bits `i·width .. (i+1)·width` of a `⌈n·width / 8⌉`-byte string,
//! bit `j` of the string being bit `j mod 8` (least significant first) of
//! byte `j / 8`; then, in index order, for every full slot, the varint of
//! `v_i − base − (2^width − 1)`. At width 0 every value is its varint. The
//! width is the one that spells the values in the fewest bytes, the
//! narrower of two that tie. Refused: a width above 8, a set bit in the
//! padding after the last slot, a value past 255, a `base` that is not the
//! least value and a width that is not the shortest.
//!
//! **Key list** ([`WireWriter::put_key_header`] + [`WireWriter::put_key`] /
//! [`WireReader::get_key_header`] + [`WireReader::get_key`], beside the
//! tagged-varint `Value` encoding in [`values`](crate::values)). Keys of one
//! sort order, strictly ascending in it: `varint(count)`, then — unless the
//! list is empty — `varint(arity)` and one direction byte (`0` ascending,
//! `1` descending) per column, once. The first key is its `arity` values.
//! Every later key is `varint(shared)`, the number of leading values whose
//! *representation* (kind and bits, not `Value::eq`) equals the previous
//! key's, followed by its remaining `arity − shared` values. Refused:
//! `shared` above the arity, `shared` that is not maximal (the first value
//! that follows repeats the previous key's), and a key that does not sort
//! strictly after its predecessor — the invariant a merge of sorted runs
//! relies on. What rides between keys (a weight, a display row) is the
//! summary's own.
//!
//! # The expansion budget
//!
//! A zero run makes a two-byte token stand for a vector of any length, so
//! the frame's length no longer bounds what decoding it allocates. A
//! [`WireReader`] therefore carries one budget of [`MAX_COUNTS`] cells for
//! everything [`WireReader::get_counts`] expands, charged before the vector
//! is allocated. The budget belongs to the reader — to one frame — and not
//! to a call, so the nested summaries of one frame (a trellis of heat maps)
//! share it instead of multiplying it: a frame of `F` bytes decodes to at
//! most `O(F) + 8·MAX_COUNTS` bytes, whatever it claims. Every other length
//! prefix is checked against the bytes that remain
//! ([`WireReader::get_count`]) before anything is allocated for it.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Sanity cap on decoded collection lengths (defends against corrupt
/// frames; no legitimate summary is anywhere near this).
const MAX_LEN: u64 = 1 << 28;

/// Cells of counts one frame may hold, across all its count vectors: far
/// above any display (a 4K screen of 3 × 3-pixel heat-map cells is under
/// 2²⁰), far below what a hostile run token could claim. A sketch whose grid
/// exceeds it is refused where it is configured, not where it is decoded.
pub const MAX_COUNTS: usize = 1 << 22;

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
        self.put_raw(s.as_bytes());
    }

    /// Write bytes whose length the reader learns elsewhere.
    pub(crate) fn put_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.put_raw(b);
    }

    /// Write a count vector (its length is the reader's to know): counts
    /// and lone zeros as varints, each maximal run of `k ≥ 2` zeros as the
    /// padded varint of `k − 2`.
    pub fn put_counts(&mut self, counts: &[u64]) {
        let mut rest = counts;
        while let Some((&c, tail)) = rest.split_first() {
            let run = match c {
                0 => 1 + tail.iter().take_while(|&&c| c == 0).count(),
                _ => 0,
            };
            if run < 2 {
                self.put_varint(c);
                rest = tail;
            } else {
                // Every byte continues, and the byte they continue to
                // adds nothing: a spelling `put_varint` never writes.
                let mut v = run as u64 - 2;
                while v >= 0x80 {
                    self.buf.put_u8(v as u8 | 0x80);
                    v >>= 7;
                }
                self.buf.put_slice(&[v as u8 | 0x80, 0]);
                rest = &rest[run..];
            }
        }
    }

    /// Write bytes patched: the least value, the width that spells them
    /// shortest, each value's slot above the least, and an escape varint
    /// per full slot.
    pub fn put_packed(&mut self, values: &[u8]) {
        let counts = byte_counts(values);
        let base = counts.iter().position(|&n| n > 0).unwrap_or(0);
        let width = patched_width(&counts[base..], values.len());
        let (base, full) = (base as u8, ((1u16 << width) - 1) as u8);
        self.buf.put_slice(&[base, width as u8]);
        // Eight slots fill `width` bytes: each eight is packed into a word
        // and stored whole, the next overwriting its zero top bytes.
        let mut slots: Vec<u8> = values.iter().map(|&v| (v - base).min(full)).collect();
        slots.resize(values.len().next_multiple_of(8), 0);
        let len = (values.len() * width as usize).div_ceil(8);
        let mut packed = vec![0u8; len + 8];
        for (at, eight) in (0..).map(|k| k * width as usize).zip(slots.chunks_exact(8)) {
            let shifted = eight.iter().enumerate();
            let word = shifted.fold(0u64, |word, (i, &s)| {
                word | u64::from(s) << (i as u32 * width)
            });
            packed[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        self.buf.put_slice(&packed[..len]);
        for &v in values {
            if let Some(excess) = (v - base).checked_sub(full) {
                self.put_varint(u64::from(excess));
            }
        }
    }
}

/// How many of `values` hold each byte, tallied in four tables in turn so
/// that a run of one value does not wait on its own count.
fn byte_counts(values: &[u8]) -> [usize; 256] {
    let mut tables = [[0usize; 256]; 4];
    let mut fours = values.chunks_exact(4);
    for four in &mut fours {
        for (table, &v) in tables.iter_mut().zip(four) {
            table[usize::from(v)] += 1;
        }
    }
    for &v in fours.remainder() {
        tables[0][usize::from(v)] += 1;
    }
    let [mut counts, rest @ ..] = tables;
    for table in &rest {
        counts.iter_mut().zip(table).for_each(|(n, m)| *n += m);
    }
    counts
}

/// The width at which [`WireWriter::put_packed`] spells `n` values in the
/// fewest bytes, the narrower of two that tie, from `counts[d]`, the
/// values `d` above the floor.
fn patched_width(counts: &[usize], n: usize) -> u32 {
    let bytes = |width: u32| {
        let full = (1usize << width) - 1;
        let escaped = counts.get(full..).unwrap_or_default().iter().enumerate();
        let escapes: usize = escaped
            .map(|(excess, &k)| k << usize::from(excess >= 0x80))
            .sum();
        (n * width as usize).div_ceil(8) + escapes
    };
    (0..=8).min_by_key(|&width| bytes(width)).unwrap_or(0)
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming reader over the bytes of one frame.
pub struct WireReader {
    buf: Bytes,
    /// What is left of the frame's [`MAX_COUNTS`] expansion budget.
    counts_left: usize,
}

impl WireReader {
    /// Wrap bytes for reading.
    pub fn new(buf: Bytes) -> Self {
        WireReader {
            buf,
            counts_left: MAX_COUNTS,
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Read an unsigned varint, refusing every spelling
    /// [`WireWriter::put_varint`] does not write: a padded value and one
    /// with bits past the 64th.
    pub fn get_varint(&mut self) -> Result<u64> {
        match self.get_leb128()? {
            (v, false) => Ok(v),
            (_, true) => Err(Error::NotCanonical {
                context: "padded varint",
            }),
        }
    }

    /// Read LEB128 groups up to a byte that does not continue: the value,
    /// and whether it was *padded* — spelt in full by continuing bytes and
    /// closed by one `0x00`, the form a zero run takes in a count vector.
    /// Padding beyond that byte and bits past the 64th are refused.
    fn get_leb128(&mut self) -> Result<(u64, bool)> {
        let mut v: u64 = 0;
        let mut group = 0;
        for shift in (0..64).step_by(7) {
            if !self.buf.has_remaining() {
                return Err(Error::Truncated { context: "varint" });
            }
            let b = self.buf.get_u8();
            let before = std::mem::replace(&mut group, (b & 0x7F) as u64);
            // The tenth byte holds the 64th bit and nothing else.
            if shift == 63 && group > 1 {
                break;
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                let padded = b == 0 && shift > 0;
                // `0x80 0x00` pads zero; anywhere else an empty group
                // before the closing byte is padding too.
                if padded && before == 0 && shift > 7 {
                    return Err(Error::NotCanonical {
                        context: "varint padded twice",
                    });
                }
                return Ok((v, padded));
            }
        }
        Err(Error::BadLength {
            context: "varint overflow",
            len: v,
        })
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
        self.get_utf8(len, f)
    }

    /// Read `len` bytes of UTF-8 in place, as [`WireReader::get_str_with`]
    /// does once it has read the length.
    pub(crate) fn get_utf8<T>(&mut self, len: usize, f: impl FnOnce(&str) -> T) -> Result<T> {
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

    /// Read the length of a collection whose every item takes at least one
    /// byte: a count the remaining bytes cannot hold is refused here, so
    /// the caller may allocate for what is returned.
    pub fn get_count(&mut self, context: &'static str) -> Result<usize> {
        let len = self.get_len(context)?;
        if len > self.remaining() {
            return Err(Error::Truncated { context });
        }
        Ok(len)
    }

    /// Read the `n` counts [`WireWriter::put_counts`] wrote, charging them
    /// to the frame's expansion budget before allocating.
    pub fn get_counts(&mut self, n: usize) -> Result<Vec<u64>> {
        self.counts_left = self.counts_left.checked_sub(n).ok_or(Error::BadLength {
            context: "counts past the frame's expansion budget",
            len: n as u64,
        })?;
        let mut counts = Vec::with_capacity(n);
        let mut after_zeros = false;
        while counts.len() < n {
            let zeros = match self.get_leb128()? {
                (0, false) => 1,
                (c, false) => {
                    counts.push(c);
                    after_zeros = false;
                    continue;
                }
                (run, true) => run.saturating_add(2),
            };
            if after_zeros {
                return Err(Error::NotCanonical {
                    context: "adjacent zero runs",
                });
            }
            if zeros > (n - counts.len()) as u64 {
                return Err(Error::BadLength {
                    context: "zero run past the end of its counts",
                    len: zeros,
                });
            }
            counts.resize(counts.len() + zeros as usize, 0);
            after_zeros = true;
        }
        Ok(counts)
    }

    /// Read the `n` bytes [`WireWriter::put_packed`] wrote, refusing every
    /// other spelling of them.
    pub fn get_packed(&mut self, n: usize) -> Result<Vec<u8>> {
        let context = "patched bytes";
        let base = self.get_u8()?;
        let width = self.get_u8()?;
        if width > 8 {
            return Err(Error::BadTag {
                context: "patched width",
                tag: width,
            });
        }
        let width = u32::from(width);
        let len = n
            .checked_mul(width as usize)
            .ok_or(Error::BadLength {
                context,
                len: n as u64,
            })?
            .div_ceil(8);
        // Sized from the bytes at hand: at width 0 each value is a varint.
        if self.remaining() < if width == 0 { n } else { len } {
            return Err(Error::Truncated { context });
        }
        let full = ((1u16 << width) - 1) as u8;
        // Eight slots are `width` bytes: each eight is read as a whole word,
        // out of a copy with a word of zeros after the last byte.
        let mut packed = vec![0u8; len + 8];
        packed[..len].copy_from_slice(&self.buf.chunk()[..len]);
        let mut values = vec![0u8; n.next_multiple_of(8)];
        for (at, eight) in (0..)
            .map(|k| k * width as usize)
            .zip(values.chunks_exact_mut(8))
        {
            let mut word = [0u8; 8];
            word.copy_from_slice(&packed[at..at + 8]);
            let word = u64::from_le_bytes(word);
            for (i, v) in eight.iter_mut().enumerate() {
                *v = (word >> (i as u32 * width)) as u8 & full;
            }
        }
        // The slots past the last value hold the padding bits.
        if values.drain(n..).any(|slot| slot != 0) {
            return Err(Error::NotCanonical {
                context: "packed padding bits",
            });
        }
        self.buf.advance(len);
        // Each value its offset above `base` first, the escapes added in.
        let past = |offset: u64| Error::BadLength {
            context: "patched value past a byte",
            len: offset,
        };
        for v in values.iter_mut().filter(|v| **v == full) {
            let offset = u64::from(full).saturating_add(self.get_varint()?);
            *v = u8::try_from(offset).map_err(|_| past(offset))?;
        }
        let counts = byte_counts(&values);
        let top = counts.iter().rposition(|&k| k > 0).unwrap_or(0);
        if top > usize::from(u8::MAX - base) {
            return Err(past(top as u64));
        }
        if counts[0] == 0 && n > 0 || base > 0 && n == 0 {
            return Err(Error::NotCanonical {
                context: "patched base is not the least value",
            });
        }
        if patched_width(&counts, n) != width {
            return Err(Error::NotCanonical {
                context: "patched width is not the shortest",
            });
        }
        values.iter_mut().for_each(|v| *v += base);
        Ok(values)
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
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
        let len = r.get_count("Vec")?;
        let mut out = Vec::with_capacity(len);
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

    fn reader(bytes: &[u8]) -> WireReader {
        WireReader::new(Bytes::from(bytes.to_vec()))
    }

    #[test]
    fn varint_decoder_accepts_one_spelling_only() {
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(reader(&max).get_varint(), Ok(u64::MAX));
        assert_eq!(reader(&[0x00]).get_varint(), Ok(0));
        // Padded: the same value with a needless final group, or several.
        let mut ten = [0x80; 10];
        ten[9] = 0x00;
        for padded in [&[0x80, 0x00][..], &[0xFF, 0x00], &[0xFF, 0x80, 0x00], &ten] {
            assert!(
                matches!(reader(padded).get_varint(), Err(Error::NotCanonical { .. })),
                "{padded:02x?}"
            );
        }
        // Overflowing: a tenth byte with bits past the 64th, or an eleventh.
        for last in [0x02, 0x03, 0x7F, 0x81] {
            let mut over = max;
            over[9] = last;
            assert!(
                matches!(
                    reader(&over).get_varint(),
                    Err(Error::BadLength {
                        context: "varint overflow",
                        ..
                    })
                ),
                "{last:#x}"
            );
        }
    }

    fn counts_bytes(counts: &[u64]) -> Bytes {
        let mut w = WireWriter::new();
        w.put_counts(counts);
        w.finish()
    }

    #[test]
    fn counts_spell_zero_runs_once() {
        let cases: [(&[u64], &[u8]); 9] = [
            (&[], &[]),
            (&[7], &[7]),
            (&[0], &[0]),
            (&[0, 0], &[0x80, 0]),
            (&[0, 0, 0, 5, 0], &[0x81, 0, 5, 0]),
            (&[1, 0, 2, 0, 0, 300], &[1, 0, 2, 0x80, 0, 0xAC, 0x02]),
            (&[0; 129], &[0xFF, 0]),
            (&[0; 200], &[0xC6, 0x81, 0]),
            (
                &[u64::MAX, 0],
                &[
                    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0,
                ],
            ),
        ];
        for (counts, bytes) in cases {
            assert_eq!(&counts_bytes(counts)[..], bytes, "{counts:?}");
            let mut r = reader(bytes);
            assert_eq!(r.get_counts(counts.len()).unwrap(), counts);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn counts_decoder_accepts_one_spelling_only() {
        // A run one past the end, and far past it.
        for run in [&[0x82u8, 0][..], &[0xFF, 0xFF, 0xFF, 0xFF, 0x8F, 0]] {
            assert!(matches!(
                reader(run).get_counts(3),
                Err(Error::BadLength { .. })
            ));
        }
        // Zeros that were one run: two lone ones, a lone one beside a run,
        // two runs.
        for split in [
            &[0u8, 0, 7, 7][..],
            &[0, 0x80, 0, 7],
            &[0x80, 0, 0, 7],
            &[0x80, 0, 0x80, 0],
        ] {
            assert_eq!(
                reader(split).get_counts(4),
                Err(Error::NotCanonical {
                    context: "adjacent zero runs"
                }),
                "{split:02x?}"
            );
        }
        // A run whose length is itself padded.
        assert_eq!(
            reader(&[0x81, 0x80, 0]).get_counts(3),
            Err(Error::NotCanonical {
                context: "varint padded twice"
            })
        );
        // A run may follow a count, and the next vector starts afresh.
        let mut r = reader(&[0x80, 0, 0]);
        assert_eq!(r.get_counts(2).unwrap(), [0, 0]);
        assert_eq!(r.get_counts(1).unwrap(), [0]);
        assert!(matches!(
            reader(&[5, 0]).get_counts(3),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn counts_share_one_expansion_budget_per_reader() {
        let half = MAX_COUNTS / 2;
        let mut w = WireWriter::new();
        for _ in 0..3 {
            w.put_counts(&vec![0; half]);
        }
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_counts(half).unwrap().len(), half);
        assert_eq!(r.get_counts(half).unwrap().len(), half);
        // The third vector is as well-formed as the first two.
        assert!(matches!(
            r.get_counts(half),
            Err(Error::BadLength { len, .. }) if len == half as u64
        ));
        assert!(matches!(
            reader(&[0x80, 0]).get_counts(MAX_COUNTS + 1),
            Err(Error::BadLength { .. })
        ));
    }

    #[test]
    fn packed_integers_roundtrip_at_every_width() {
        for width in 0..=8u32 {
            // Every slot but the full one, dealt evenly above a floor of 1:
            // nothing escapes at `width`, and one bit narrower half would.
            let slots = (1usize << width).saturating_sub(1).max(1);
            for n in [0usize, 1, 7, 8, 9, 64, 100] {
                let values: Vec<u8> = (0..n).map(|i| (1 + i * 37 % slots) as u8).collect();
                let mut w = WireWriter::new();
                w.put_packed(&values);
                let bytes = w.finish();
                if n >= 64 {
                    assert_eq!(bytes[..2], [1, width.max(1) as u8], "{width} x {n}");
                }
                let mut r = WireReader::new(bytes);
                assert_eq!(r.get_packed(n).unwrap(), values, "{width} x {n}");
                assert_eq!(r.remaining(), 0);
            }
        }
        let spell = |values: &[u8]| {
            let mut w = WireWriter::new();
            w.put_packed(values);
            w.finish().to_vec()
        };
        // Base 1, width 2, least significant bit first: 0 | 1 << 2 | 2 << 4.
        assert_eq!(spell(&[1, 2, 3]), [0x01, 0x02, 0x24]);
        // One value far above eight at the floor: a one-bit slot, full,
        // and its escape `200 − 0 − 1`.
        let mut spike = [0u8; 9];
        spike[8] = 200;
        assert_eq!(spell(&spike), [0x00, 0x01, 0x00, 0x01, 0xC7, 0x01]);
        // Nothing, and one value: width 0 ties the wider ones and wins.
        assert_eq!(spell(&[]), [0, 0]);
        assert_eq!(spell(&[7]), [7, 0, 0]);
    }

    #[test]
    fn packed_decoder_refuses_short_input_and_padding_bits() {
        assert_eq!(reader(&[0x01, 0x02, 0x24]).get_packed(3), Ok(vec![1, 2, 3]));
        let context = "patched bytes";
        assert_eq!(
            reader(&[0x01, 0x02]).get_packed(3),
            Err(Error::Truncated { context })
        );
        for padding in [0x40, 0x80] {
            assert_eq!(
                reader(&[0x01, 0x02, 0x24 | padding]).get_packed(3),
                Err(Error::NotCanonical {
                    context: "packed padding bits"
                })
            );
        }
        assert_eq!(
            reader(&[0x00, 0x09, 0x00, 0x00]).get_packed(1),
            Err(Error::BadTag {
                context: "patched width",
                tag: 9
            })
        );
        // The values 1, 2, 3 again: from a floor below the least value, and
        // at a width wider than the shortest.
        for (frame, context) in [
            (
                &[0x00, 0x02, 0x39, 0x00][..],
                "patched base is not the least value",
            ),
            (
                &[0x01, 0x03, 0x88, 0x00],
                "patched width is not the shortest",
            ),
        ] {
            assert_eq!(
                reader(frame).get_packed(3),
                Err(Error::NotCanonical { context }),
                "{frame:02x?}"
            );
        }
        // Values past 255, one by its escape and one by its slot, and an
        // escape that is not there.
        for (frame, offset) in [(&[250, 0, 6][..], 6), (&[250, 3, 6], 6)] {
            assert_eq!(
                reader(frame).get_packed(1),
                Err(Error::BadLength {
                    context: "patched value past a byte",
                    len: offset
                })
            );
        }
        assert_eq!(
            reader(&[0x00, 0x01, 0x00, 0x01]).get_packed(9),
            Err(Error::Truncated { context: "varint" })
        );
        // Sized from the bytes at hand, not from the claim.
        assert!(reader(&[0, 6, 0xFF]).get_packed(usize::MAX / 2).is_err());
        assert_eq!(
            reader(&[0, 0, 0]).get_packed(1 << 40),
            Err(Error::Truncated { context })
        );
    }

    #[test]
    fn counts_the_frame_cannot_hold_are_refused_before_allocation() {
        let mut w = WireWriter::new();
        w.put_varint(1 << 27);
        w.put_u8(1);
        assert_eq!(
            Vec::<u64>::from_bytes(w.finish()),
            Err(Error::Truncated { context: "Vec" })
        );
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
