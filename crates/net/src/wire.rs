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
//! above a floor, the values present in a known integer domain fill it in a
//! few long runs. Four codecs carry those shapes — counts, patched values,
//! bit sets and key lists, the first spelling a scattered vector through
//! the second — and every summary is written in terms of them. Each is *canonical* — a
//! value has exactly one byte string, and a decoder refuses every other
//! spelling ([`Error::NotCanonical`]) — so a decoded summary re-encodes to
//! the bytes it came from.
//!
//! **Varint.** LEB128, least significant group first, at most ten bytes.
//! Refused: a final byte of `0x00` after a continuation byte (a padded
//! value) and a tenth byte other than `0x01` (bits past the 64th).
//!
//! **Counts** ([`WireWriter::put_counts`] / [`WireReader::get_counts`]). A
//! vector of `n` counts, `n` known to the reader beforehand, in the shorter
//! of two spellings, zero runs on a tie.
//!
//! *Zero runs*: a sequence of tokens. A non-zero count is its varint, and a
//! zero between two counts is the byte `0x00` — both as a varint per count
//! would spell them. A *maximal* run of `k ≥ 2` zeros is the one spelling
//! that leaves unused: `varint(k − 2)` *padded* — the continuation bit set
//! on its every byte, then `0x00` — so two bytes stand for up to 129 zeros,
//! three for 16 513, and no vector is longer than its varint-per-count
//! encoding. Refused: a run that reaches past `n`, padding of more than the
//! one `0x00`, and any zero or run directly after a zero or run (the two
//! were one run).
//!
//! *Sparse*, for `n ≥ 2`: the marker `0x00 0x00`, `varint(m)` for the `m`
//! non-empty cells, then each one's *gap* — the zeros since the previous
//! one — patched, then each one's count less one patched; the zeros after
//! the last are what `n` leaves. A scattered grid pays about a byte per
//! non-empty cell here where zero runs pay three. Zero runs never open a
//! vector of two or more with `0x00 0x00` — a lone zero is followed by a
//! non-zero count — so the marker is the one the reader looks for. Refused:
//! more non-empty cells than `n`, a gap that reaches past `n`, a count past
//! `u64::MAX`, and this spelling where zero runs are as short or shorter —
//! as zero runs are where this one is shorter. Both lengths come from the
//! non-empty cells, so choosing and checking cost a pass over them.
//!
//! **Patched** ([`WireWriter::put_packed`] / [`WireReader::get_packed`]).
//! `n` values, `n` known to the reader, as an offset, narrow slots and the
//! exceptions that do not fit them — the "offset + narrow registers +
//! exceptions" idea of HyperLogLog++ (Heule et al., EDBT 2013) and of
//! DataSketches' HLL_4. `varint(base)`, the least value (`0` when `n = 0`),
//! and `width ≤ 8` in a byte; then slot `i`, `min(v_i − base, 2^width −
//! 1)`, in bits `i·width .. (i+1)·width` of a `⌈n·width / 8⌉`-byte string,
//! bit `j` of the string being bit `j mod 8` (least significant first) of
//! byte `j / 8`, packed and unpacked eight slots to a word; then, in index
//! order, for every full slot, the varint of `v_i − base − (2^width − 1)`.
//! At width 0 every value is its varint. The width is the one that spells
//! the values in the fewest bytes, the narrower of two that tie. Refused: a
//! width above 8, a set bit in the padding after the last slot, a value
//! past `u64::MAX`, a `base` that is not the least value and a width that
//! is not the shortest. A caller whose values have a narrower range (HLL
//! ranks, a weight's low byte) refuses the rest itself.
//!
//! **Bit set** ([`WireWriter::put_bits`] / [`WireReader::get_bits`]). A set
//! of `len` bits, `len` known to the reader, in the shorter of two
//! spellings, raw bits on a tie. *Raw*: `0x00`, then `⌈len / 8⌉` bytes, bit
//! `j` of the set being bit `j mod 8` of byte `j / 8`. *Runs*: `0x01`, then
//! the varints of its alternating runs — absent first, then present, and so
//! on — that sum to `len`, the way a run container of Roaring bitmaps
//! spells a set (Lemire et al., 2016); only the first run may be empty (bit
//! 0 is present). Refused: a set padding bit after the last, an empty run
//! after the first, runs that stop short of `len` or reach past it, any
//! other marker, and either spelling where the other is shorter (runs where
//! they tie). The words decoded are charged to the expansion budget below.
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
//! A zero run makes a two-byte token stand for a vector of any length, a
//! sparse header leaves every cell after its last gap empty, and one run
//! fills a bit set, so the frame's length no longer bounds what decoding it
//! allocates. A [`WireReader`] therefore carries one budget of
//! [`MAX_COUNTS`] cells for everything [`WireReader::get_counts`] expands
//! and every 64-bit word [`WireReader::get_bits`] does, charged before the
//! vector is allocated. The budget belongs to the reader — to one frame — and not
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

    /// Write bytes whose length the reader learns elsewhere (the rest of
    /// a frame, say).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.put_raw(b);
    }

    /// Write a count vector (its length is the reader's to know) in the
    /// shorter of its two spellings, zero runs on a tie: counts and lone
    /// zeros as varints, each maximal run of `k ≥ 2` zeros as the padded
    /// varint of `k − 2`; or, for two counts or more, the marker `0x00
    /// 0x00`, the number of non-empty cells, and those cells' gaps and
    /// counts less one, each patched.
    pub fn put_counts(&mut self, counts: &[u64]) {
        let cells = Cells::of(counts);
        match cells.sparse(counts.len(), cells.zero_runs) {
            Some((gaps, less_one)) => {
                self.buf.put_slice(&[0, 0]);
                self.put_varint(cells.gaps.len() as u64);
                self.put_patched(cells.gaps.iter().copied(), gaps);
                self.put_patched(cells.counts.iter().copied(), less_one);
            }
            None => {
                for (&gap, &count) in cells.gaps.iter().zip(&cells.counts) {
                    self.put_zeros(gap);
                    self.put_varint(count);
                }
                self.put_zeros(cells.trailing);
            }
        }
    }

    /// Write `k` zeros of a zero-run count vector: nothing, a lone `0x00`,
    /// or the run token.
    fn put_zeros(&mut self, k: u64) {
        match k {
            0 => {}
            1 => self.buf.put_u8(0),
            _ => {
                // Every byte continues, and the byte they continue to adds
                // nothing: a spelling `put_varint` never writes.
                let mut v = k - 2;
                while v >= 0x80 {
                    self.buf.put_u8(v as u8 | 0x80);
                    v >>= 7;
                }
                self.buf.put_slice(&[v as u8 | 0x80, 0]);
            }
        }
    }

    /// Write values patched: the least value, the width that spells them
    /// shortest, each value's slot above the least, and an escape varint
    /// per full slot.
    pub fn put_packed<I>(&mut self, values: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let least = values.clone().min().unwrap_or(0);
        self.put_patched(values.clone(), Patch::of(values, least, 0));
    }

    /// Write `values` at `patch`, their shortest spelling.
    fn put_patched(&mut self, values: impl Iterator<Item = u64>, patch: Patch) {
        let Patch {
            count,
            least,
            base,
            width,
            ..
        } = patch;
        let full = FULL[width as usize];
        self.put_varint(base);
        self.buf.put_u8(width as u8);
        // Eight slots fill `width` bytes: each eight is packed into a word
        // and stored whole, the next overwriting its zero top bytes. The
        // escapes wait their turn.
        let len = (count * width as usize).div_ceil(8);
        let mut packed = vec![0u8; len + 8];
        let (mut word, mut slots, mut at) = (0u64, 0, 0);
        let mut escapes = WireWriter::new();
        for v in values {
            let offset = v - least;
            word |= offset.min(full) << (slots * width);
            slots += 1;
            if slots == 8 {
                packed[at..at + 8].copy_from_slice(&word.to_le_bytes());
                (word, slots, at) = (0, 0, at + width as usize);
            }
            if let Some(excess) = offset.checked_sub(full) {
                escapes.put_varint(excess);
            }
        }
        packed[at..at + 8].copy_from_slice(&word.to_le_bytes());
        self.buf.put_slice(&packed[..len]);
        self.buf.put_slice(escapes.buf.as_ref());
    }

    /// Write a set of `len` bits (its length is the reader's to know), bit
    /// `j` being bit `j mod 64` of `words[j / 64]` and every bit past `len`
    /// clear, in the shorter of its two spellings, raw bits on a tie: `0x00`
    /// and its `⌈len / 8⌉` bytes; or `0x01` and the varints of its
    /// alternating runs, absent first.
    pub fn put_bits(&mut self, words: &[u64], len: usize) {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let raw = len.div_ceil(8);
        if runs_len(words, len, raw) < raw {
            self.buf.put_u8(BITS_IN_RUNS);
            for_each_run(words, len, |run| {
                self.put_varint(run);
                true
            });
        } else {
            self.buf.put_u8(BITS_RAW);
            let bytes = words.iter().flat_map(|w| w.to_le_bytes());
            bytes.take(raw).for_each(|b| self.buf.put_u8(b));
        }
    }
}

/// The markers of a bit set's two spellings.
const BITS_RAW: u8 = 0;
const BITS_IN_RUNS: u8 = 1;

/// Call `f` with the length of each run of the first `len` bits of `words`,
/// absent and present in turn, absent first — that one empty when bit 0 is
/// set, every later one not — until the runs reach `len` or `f` returns
/// false.
fn for_each_run(words: &[u64], len: usize, mut f: impl FnMut(u64) -> bool) {
    let (mut at, mut present) = (0, false);
    while at < len {
        // The first bit from `at` on that is not `present`.
        let flip = |w: u64| if present { !w } else { w };
        let mut i = at / 64;
        let mut word = flip(words[i]) & (!0 << (at % 64));
        while word == 0 && i + 1 < words.len() {
            i += 1;
            word = flip(words[i]);
        }
        let end = match word {
            0 => len,
            _ => (i * 64 + word.trailing_zeros() as usize).min(len),
        };
        if !f((end - at) as u64) {
            return;
        }
        (at, present) = (end, !present);
    }
}

/// The bytes of the runs of the first `len` bits of `words`, or `cap` if
/// they are at least that many.
fn runs_len(words: &[u64], len: usize, cap: usize) -> usize {
    let mut bytes = 0;
    for_each_run(words, len, |run| {
        bytes += varint_len(run);
        bytes < cap
    });
    bytes.min(cap)
}

/// Set bits `from..to` of `words`.
fn set_bits(words: &mut [u64], from: usize, to: usize) {
    let mut at = from;
    while at < to {
        let (i, shift) = (at / 64, at % 64);
        let span = (to - at).min(64 - shift);
        words[i] |= (!0 >> (64 - span)) << shift;
        at += span;
    }
}

/// The bytes of `v`'s varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The bytes of `k` zeros in a zero-run count vector.
fn zeros_len(k: u64) -> usize {
    match k {
        0 | 1 => k as usize,
        _ => varint_len(k - 2) + 1,
    }
}

/// A count vector by its non-empty cells — each one's gap, the zeros since
/// the previous one, and its count — and the zeros after the last.
struct Cells {
    gaps: Vec<u64>,
    counts: Vec<u64>,
    trailing: u64,
    /// The least gap and the least count, `u64::MAX` when there is none.
    least: (u64, u64),
    /// The bytes of the zero-run spelling.
    zero_runs: usize,
}

impl Cells {
    /// Split in two passes, one to count the non-empty cells and one to
    /// place them, each skipping eight empty cells at a time.
    fn of(counts: &[u64]) -> Cells {
        let occupied = |eight: &[u64]| eight.iter().fold(0, |any, &c| any | c) != 0;
        let nonzero = |cells: &[u64]| cells.iter().filter(|&&c| c != 0).count();
        let mut eights = counts.chunks_exact(8);
        let occupied_eights = eights.by_ref().filter(|eight| occupied(eight));
        let m = occupied_eights.map(nonzero).sum::<usize>() + nonzero(eights.remainder());
        let (mut gaps, mut nonzero) = (vec![0; m], vec![0; m]);
        let mut places = gaps.iter_mut().zip(nonzero.iter_mut());
        let (mut gap, mut least, mut zero_runs) = (0, (u64::MAX, u64::MAX), 0);
        let mut cell = |count: u64, gap: &mut u64| {
            if count == 0 {
                *gap += 1;
            } else if let Some((g, c)) = places.next() {
                (*g, *c) = (*gap, count);
                least = (least.0.min(*gap), least.1.min(count));
                zero_runs += zeros_len(*gap) + varint_len(count);
                *gap = 0;
            }
        };
        let mut eights = counts.chunks_exact(8);
        for eight in &mut eights {
            match occupied(eight) {
                true => eight.iter().for_each(|&count| cell(count, &mut gap)),
                false => gap += 8,
            }
        }
        let rest = eights.remainder();
        rest.iter().for_each(|&count| cell(count, &mut gap));
        Cells {
            gaps,
            counts: nonzero,
            trailing: gap,
            least,
            zero_runs: zero_runs + zeros_len(gap),
        }
    }

    /// The patches of the gaps and of the counts less one, if the sparse
    /// spelling of these `n` cells is shorter than `zero_runs` bytes.
    fn sparse(&self, n: usize, zero_runs: usize) -> Option<(Patch, Patch)> {
        let m = self.gaps.len();
        if zero_runs <= sparse_floor(n, m) {
            return None;
        }
        let gaps = Patch::of(self.gaps.iter().copied(), self.least.0, 0);
        let header = 2 + varint_len(m as u64);
        if zero_runs <= header + gaps.bytes + patch_floor(m) {
            return None;
        }
        let less_one = Patch::of(self.counts.iter().copied(), self.least.1, 1);
        (header + gaps.bytes + less_one.bytes < zero_runs).then_some((gaps, less_one))
    }
}

/// The fewest bytes a patch of `m` values takes: a base, a width and a bit
/// per value.
fn patch_floor(m: usize) -> usize {
    2 + m.div_ceil(8)
}

/// The fewest bytes the sparse spelling of `m` non-empty cells takes — all
/// of them when `n < 2`, which it never spells.
fn sparse_floor(n: usize, m: usize) -> usize {
    match n {
        0 | 1 => usize::MAX,
        _ => 2 + varint_len(m as u64) + 2 * patch_floor(m),
    }
}

/// How [`WireWriter::put_packed`] spells some values less a constant: how
/// many there are, the least, the base written (the least less the
/// constant), the width that spells them in the fewest bytes, and those
/// bytes.
#[derive(Clone, Copy)]
struct Patch {
    count: usize,
    least: u64,
    base: u64,
    width: u32,
    bytes: usize,
}

impl Patch {
    /// The patch of `values` less `less`, `least` being the least of them
    /// and not below `less`.
    fn of(values: impl Iterator<Item = u64>, least: u64, less: u64) -> Patch {
        let mut spread = Spread::new();
        values.for_each(|v| spread.add(v - least));
        let (width, body) = spread.shortest();
        let base = least - less;
        Patch {
            count: spread.count,
            least,
            base,
            width,
            bytes: varint_len(base) + 1 + body,
        }
    }
}

/// The full slot of each width, `2^width − 1`.
const FULL: [u64; 9] = [0, 1, 3, 7, 15, 31, 63, 127, 255];

/// Where an offset below `2^14` gains an escape byte: at each full slot it
/// escapes in one byte, and from 128 above it in two.
const STEPS: [u64; 17] = [
    0, 1, 3, 7, 15, 31, 63, 127, 128, 129, 131, 135, 143, 159, 191, 255, 383,
];

/// How many [`STEPS`] an offset is at least, for every offset to the last
/// step; any offset above it, to `2^14`, is at least all of them.
static STEPS_BELOW: [u8; 384] = {
    let mut below = [0u8; 384];
    let mut d = 0;
    while d < below.len() {
        let mut k = 0;
        while k < STEPS.len() {
            below[d] += (STEPS[k] <= d as u64) as u8;
            k += 1;
        }
        d += 1;
    }
    below
};

/// The index of `step` in [`STEPS`].
fn step(step: u64) -> usize {
    STEPS.iter().position(|&s| s == step).unwrap_or(STEPS.len())
}

/// What the escapes of some offsets cost at each width.
struct Spread {
    count: usize,
    /// How many offsets below `2^14` are at least `k` of [`STEPS`], in
    /// four tables to be added up (32 wide, so that an index masked to
    /// five bits needs no bounds check).
    tables: [[usize; 32]; 4],
    /// The varint bytes of the offsets from `2^14` up: each escapes at
    /// every width, and its escape is as long as its varint —
    high: usize,
    /// — but for those less than 255 above a power of `2^7`, whose escape
    /// falls below that power at each width whose full slot is more than
    /// that distance: how many do, width by width.
    shorter: [usize; 9],
}

impl Spread {
    fn new() -> Spread {
        Spread {
            count: 0,
            tables: [[0; 32]; 4],
            high: 0,
            shorter: [0; 9],
        }
    }

    /// One more offset, tallied in four tables in turn so that a run of one
    /// offset does not wait on its own count.
    #[inline]
    fn add(&mut self, d: u64) {
        if d < 1 << 14 {
            let at = STEPS_BELOW[d.min(383) as usize];
            self.tables[self.count & 3][usize::from(at) & 31] += 1;
        } else {
            let len = varint_len(d);
            self.high += len;
            let above = d - (1 << (7 * (len - 1)));
            if above < 255 {
                let widths = self.shorter.iter_mut().zip(FULL);
                widths.for_each(|(n, full)| *n += usize::from(above < full));
            }
        }
        self.count += 1;
    }

    /// The width that spells the values in the fewest bytes, the narrower
    /// of two that tie, and those bytes after the base and the width byte.
    fn shortest(&self) -> (u32, usize) {
        // `at_least[k]`: the offsets below `2^14` at least `STEPS[k]`.
        let [mut steps, rest @ ..] = self.tables;
        for table in &rest {
            steps.iter_mut().zip(table).for_each(|(n, m)| *n += m);
        }
        let mut at_least = [0usize; STEPS.len() + 1];
        for k in (0..STEPS.len()).rev() {
            at_least[k] = at_least[k + 1] + steps[k + 1];
        }
        let bytes = |width: usize| {
            let full = FULL[width];
            let low = at_least[step(full)] + at_least[step(full + 128)];
            let escapes = low + self.high - self.shorter[width];
            (self.count * width).div_ceil(8) + escapes
        };
        let widths = (0..=8).map(|width| (bytes(width), width as u32));
        let (body, width) = widths.min().unwrap_or((0, 0));
        (width, body)
    }
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
    /// to the frame's expansion budget before allocating, and refusing
    /// either spelling where the other is shorter.
    pub fn get_counts(&mut self, n: usize) -> Result<Vec<u64>> {
        self.counts_left = self.counts_left.checked_sub(n).ok_or(Error::BadLength {
            context: "counts past the frame's expansion budget",
            len: n as u64,
        })?;
        let start = self.remaining();
        if n >= 2 && self.buf.chunk().starts_with(&[0, 0]) {
            self.buf.advance(2);
            return self.get_sparse(n, start);
        }
        let mut counts = Vec::with_capacity(n);
        let (mut occupied, mut after_zeros) = (0, false);
        while counts.len() < n {
            let zeros = match self.get_leb128()? {
                (0, false) => 1,
                (c, false) => {
                    counts.push(c);
                    (occupied, after_zeros) = (occupied + 1, false);
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
        let zero_runs = start - self.remaining();
        if zero_runs > sparse_floor(n, occupied)
            && Cells::of(&counts).sparse(n, zero_runs).is_some()
        {
            return Err(Error::NotCanonical {
                context: "zero runs where the sparse counts are shorter",
            });
        }
        Ok(counts)
    }

    /// Read the sparse spelling of `n` counts after its marker, `start`
    /// being what remained before the marker.
    fn get_sparse(&mut self, n: usize, start: usize) -> Result<Vec<u64>> {
        let m = self.get_varint()?;
        if m > n as u64 {
            return Err(Error::BadLength {
                context: "non-empty counts past their vector",
                len: m,
            });
        }
        let gaps = self.get_packed(m as usize)?;
        let less_one = self.get_packed(m as usize)?;
        let mut counts = vec![0; n];
        // Where the next cell may start, and the zero-run spelling's bytes.
        let (mut next, mut zero_runs) = (0, 0);
        for (gap, less_one) in gaps.into_iter().zip(less_one) {
            let at = gap
                .checked_add(next as u64)
                .filter(|&at| at < n as u64)
                .ok_or(Error::BadLength {
                    context: "sparse gap past the end of its counts",
                    len: gap,
                })?;
            let count = less_one.checked_add(1).ok_or(Error::BadLength {
                context: "sparse count past u64",
                len: less_one,
            })?;
            counts[at as usize] = count;
            next = at as usize + 1;
            zero_runs += zeros_len(gap) + varint_len(count);
        }
        zero_runs += zeros_len((n - next) as u64);
        if zero_runs <= start - self.remaining() {
            return Err(Error::NotCanonical {
                context: "sparse counts where zero runs are no longer",
            });
        }
        Ok(counts)
    }

    /// Read the set of `len` bits [`WireWriter::put_bits`] wrote, charging
    /// its words to the frame's expansion budget before reading it, and
    /// refusing either spelling where the other is shorter, set padding
    /// bits, an empty run after the first, and runs that stop short of
    /// `len` or reach past it.
    pub fn get_bits(&mut self, len: usize) -> Result<Vec<u64>> {
        let n = len.div_ceil(64);
        self.counts_left = self.counts_left.checked_sub(n).ok_or(Error::BadLength {
            context: "bit set past the frame's expansion budget",
            len: len as u64,
        })?;
        let raw = len.div_ceil(8);
        // The words are allocated once the spelling has been read whole, so
        // a refused one costs at most what the frame holds.
        match self.get_u8()? {
            BITS_RAW => {
                let bytes = self.buf.chunk().get(..raw).ok_or(Error::Truncated {
                    context: "raw bit set",
                })?;
                let mut words = vec![0u64; n];
                for (i, &b) in bytes.iter().enumerate() {
                    words[i / 8] |= u64::from(b) << (i % 8 * 8);
                }
                self.buf.advance(raw);
                if !len.is_multiple_of(64) && words[n - 1] >> (len % 64) != 0 {
                    return Err(Error::NotCanonical {
                        context: "bit set padding bits",
                    });
                }
                if runs_len(&words, len, raw) < raw {
                    return Err(Error::NotCanonical {
                        context: "raw bits where the runs are shorter",
                    });
                }
                Ok(words)
            }
            BITS_IN_RUNS => {
                let start = self.remaining();
                // The present runs, as bit ranges.
                let (mut at, mut present, mut ranges) = (0, false, Vec::new());
                while at < len {
                    let run = self.get_varint()?;
                    if run == 0 && (at > 0 || present) {
                        return Err(Error::NotCanonical {
                            context: "empty run inside a bit set",
                        });
                    }
                    let end = (at as u64)
                        .checked_add(run)
                        .filter(|&end| end <= len as u64)
                        .ok_or(Error::BadLength {
                            context: "bit-set run past the end of its set",
                            len: run,
                        })? as usize;
                    if present {
                        ranges.push((at, end));
                    }
                    (at, present) = (end, !present);
                }
                if start - self.remaining() >= raw {
                    return Err(Error::NotCanonical {
                        context: "runs where the raw bits are no longer",
                    });
                }
                let mut words = vec![0u64; n];
                ranges
                    .into_iter()
                    .for_each(|(from, to)| set_bits(&mut words, from, to));
                Ok(words)
            }
            tag => Err(Error::BadTag {
                context: "bit-set spelling",
                tag,
            }),
        }
    }

    /// Read the `n` values [`WireWriter::put_packed`] wrote, refusing every
    /// other spelling of them.
    pub fn get_packed(&mut self, n: usize) -> Result<Vec<u64>> {
        let context = "patched values";
        let base = self.get_varint()?;
        let width = self.get_u8()?;
        if width > 8 {
            return Err(Error::BadTag {
                context: "patched width",
                tag: width,
            });
        }
        let width = usize::from(width);
        let len = n
            .checked_mul(width)
            .ok_or(Error::BadLength {
                context,
                len: n as u64,
            })?
            .div_ceil(8);
        // Sized from the bytes at hand: at width 0 each value is a varint.
        if self.remaining() < if width == 0 { n } else { len } {
            return Err(Error::Truncated { context });
        }
        let full = FULL[width];
        // Eight slots are `width` bytes: each eight is read as a whole word,
        // out of a copy with a word of zeros after the last byte.
        let mut packed = vec![0u8; len + 8];
        packed[..len].copy_from_slice(&self.buf.chunk()[..len]);
        self.buf.advance(len);
        // The bits past the last slot are padding.
        let used = n * width % 8;
        if used != 0 && packed[len - 1] >> used != 0 {
            return Err(Error::NotCanonical {
                context: "packed padding bits",
            });
        }
        // Each value its offset above `base`, a full slot's escape added in.
        let past = |len: u64| Error::BadLength {
            context: "patched value past u64",
            len,
        };
        let mut values = vec![0; n];
        let (mut spread, mut least, mut top) = (Spread::new(), u64::MAX, 0);
        let mut value = |slot: u64, value: &mut u64| {
            let d = match slot == full {
                true => {
                    let escape = self.get_varint()?;
                    full.checked_add(escape).ok_or(past(escape))?
                }
                false => slot,
            };
            (least, top) = (least.min(d), top.max(d));
            spread.add(d);
            *value = base.wrapping_add(d);
            Ok(())
        };
        let word = |at: usize| {
            let mut word = [0u8; 8];
            word.copy_from_slice(&packed[at..at + 8]);
            u64::from_le_bytes(word)
        };
        let mut eights = values.chunks_exact_mut(8);
        for (k, eight) in (&mut eights).enumerate() {
            let word = word(k * width);
            for (i, v) in eight.iter_mut().enumerate() {
                value(word >> (i * width) & full, v)?;
            }
        }
        let word = word(n / 8 * width);
        for (i, v) in eights.into_remainder().iter_mut().enumerate() {
            value(word >> (i * width) & full, v)?;
        }
        if least > 0 && n > 0 || base > 0 && n == 0 {
            return Err(Error::NotCanonical {
                context: "patched base is not the least value",
            });
        }
        if spread.shortest().0 as usize != width {
            return Err(Error::NotCanonical {
                context: "patched width is not the shortest",
            });
        }
        base.checked_add(top).ok_or(past(base))?;
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
        // two runs. Two lone zeros cannot open a vector to show it: there,
        // `00 00` is the sparse spelling's marker.
        for split in [
            &[7u8, 0, 0, 7][..],
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

    /// `values` patched at any base and width, honest or not, a bit at a
    /// time: `base`, `width`, the slots `min(v − base, 2^width − 1)`, then
    /// an escape varint per full slot.
    fn patched(values: &[u64], base: u64, width: u32) -> Vec<u8> {
        let full = (1u64 << width) - 1;
        let mut w = WireWriter::new();
        w.put_varint(base);
        w.put_u8(width as u8);
        let mut bits = vec![0u8; (values.len() * width as usize).div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            for b in 0..width as usize {
                let at = i * width as usize + b;
                bits[at / 8] |= (((v - base).min(full) >> b & 1) as u8) << (at % 8);
            }
        }
        w.put_raw(&bits);
        for &v in values {
            if let Some(excess) = (v - base).checked_sub(full) {
                w.put_varint(excess);
            }
        }
        w.finish().to_vec()
    }

    /// A sparse spelling of `m` cells from whatever patches.
    fn sparse(m: u64, gaps: &[u8], less_one: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_raw(&[0, 0]);
        w.put_varint(m);
        w.put_raw(gaps);
        w.put_raw(less_one);
        w.finish().to_vec()
    }

    #[test]
    fn counts_take_the_shorter_spelling_zero_runs_on_a_tie() {
        // Ones two zeros apart: each is `80 00 01` in zero runs; sparse,
        // each gap is 2 and each count 1, a bit apiece.
        let spaced = |m: usize| [0, 0, 1].repeat(m);
        let runs = |m: usize| [0x80, 0, 1].repeat(m);
        let marked = |m: u8| vec![0, 0, m, 2, 1, 0, 0, 1, 0];
        // Three tie at nine bytes, and zero runs win; four are shorter sparse.
        assert_eq!(&counts_bytes(&spaced(3))[..], runs(3));
        assert_eq!(&counts_bytes(&spaced(4))[..], marked(4));
        for (m, bytes) in [(3, runs(3)), (4, marked(4))] {
            let mut r = reader(&bytes);
            assert_eq!(r.get_counts(3 * m).unwrap(), spaced(m));
            assert_eq!(r.remaining(), 0);
        }
        // Each spelling where the other is shorter, or ties with it.
        assert_eq!(
            reader(&marked(3)).get_counts(9),
            Err(Error::NotCanonical {
                context: "sparse counts where zero runs are no longer"
            })
        );
        assert_eq!(
            reader(&runs(4)).get_counts(12),
            Err(Error::NotCanonical {
                context: "zero runs where the sparse counts are shorter"
            })
        );
        // One count is never sparse: `00 00` is a zero and the next vector.
        let mut r = reader(&[0, 0]);
        assert_eq!(r.get_counts(1).unwrap(), [0]);
        assert_eq!(r.get_counts(1).unwrap(), [0]);
        // Scattered counts, a zero run past the last; each spelling is
        // never longer than a varint per count.
        let mut scattered = vec![0u64; 300];
        for (i, c) in [(3, 1), (40, 2), (41, 1), (150, 300), (151, 1), (160, 1)] {
            scattered[i] = c;
        }
        // Four bits would leave two gaps to escape: five bytes, as one bit
        // and four escapes take, and the narrower wins.
        let gaps = patched(&[3, 36, 0, 108, 0, 8], 0, 1);
        let less_one = patched(&[0, 1, 0, 299, 0, 0], 0, 1);
        let bytes = sparse(6, &gaps, &less_one);
        assert_eq!(&counts_bytes(&scattered)[..], bytes);
        assert_eq!(reader(&bytes).get_counts(300).unwrap(), scattered);
        assert!(bytes.len() < 300 + 1);
    }

    #[test]
    fn sparse_counts_refuse_every_other_spelling() {
        // Ones at 2, 7, 12, 17 and 22 of 24: 16 bytes of zero runs.
        let mut ones = vec![0u64; 24];
        for i in [2, 7, 12, 17, 22] {
            ones[i] = 1;
        }
        let gaps = [2, 4, 4, 4, 4];
        let honest_gaps = patched(&gaps, 2, 2);
        let counts = patched(&[0; 5], 0, 1);
        let honest = sparse(5, &honest_gaps, &counts);
        assert_eq!(honest, [0, 0, 5, 2, 2, 0xA8, 0x02, 0, 1, 0]);
        assert_eq!(&counts_bytes(&ones)[..], honest);
        assert_eq!(reader(&honest).get_counts(24).unwrap(), ones);
        // One cell shorter the vector ends at its last one.
        assert_eq!(reader(&honest).get_counts(23).unwrap(), &ones[..23]);

        let refusals: [(usize, Vec<u8>, Error); 8] = [
            // More non-empty cells than the vector has.
            (
                4,
                honest.clone(),
                Error::BadLength {
                    context: "non-empty counts past their vector",
                    len: 5,
                },
            ),
            // A gap that reaches past the end.
            (
                22,
                honest.clone(),
                Error::BadLength {
                    context: "sparse gap past the end of its counts",
                    len: 4,
                },
            ),
            // A count one past `u64::MAX`.
            (
                2,
                sparse(1, &patched(&[0], 0, 0), &patched(&[u64::MAX], u64::MAX, 0)),
                Error::BadLength {
                    context: "sparse count past u64",
                    len: u64::MAX,
                },
            ),
            (
                24,
                sparse(5, &[2, 9, 0xA8, 0x02], &counts),
                Error::BadTag {
                    context: "patched width",
                    tag: 9,
                },
            ),
            (
                24,
                sparse(5, &[2, 2, 0xA8, 0x06], &counts),
                Error::NotCanonical {
                    context: "packed padding bits",
                },
            ),
            (
                24,
                sparse(5, &patched(&gaps, 1, 2), &counts),
                Error::NotCanonical {
                    context: "patched base is not the least value",
                },
            ),
            // Width 3 spells the gaps in two bytes too, and is the wider.
            (
                24,
                sparse(5, &patched(&gaps, 2, 3), &counts),
                Error::NotCanonical {
                    context: "patched width is not the shortest",
                },
            ),
            // No count at all: seven bytes, where zero runs take two.
            (
                24,
                sparse(0, &patched(&[], 0, 0), &patched(&[], 0, 0)),
                Error::NotCanonical {
                    context: "sparse counts where zero runs are no longer",
                },
            ),
        ];
        for (n, frame, error) in refusals {
            assert_eq!(reader(&frame).get_counts(n), Err(error), "{frame:02x?}");
        }
        // The budget is charged before the marker is read.
        assert_eq!(
            reader(&honest).get_counts(MAX_COUNTS + 1),
            Err(Error::BadLength {
                context: "counts past the frame's expansion budget",
                len: MAX_COUNTS as u64 + 1,
            })
        );
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

    /// The words of a `len`-bit set holding `members`.
    fn bit_words(len: usize, members: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        members
            .into_iter()
            .for_each(|j| words[j / 64] |= 1 << (j % 64));
        words
    }

    fn bits_bytes(words: &[u64], len: usize) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_bits(words, len);
        w.finish().to_vec()
    }

    #[test]
    fn bits_take_the_shorter_spelling_raw_on_a_tie() {
        // A domain every value of which is present: one empty absent run
        // and one present run.
        let full = bit_words(5_999, 0..5_999);
        assert_eq!(bits_bytes(&full, 5_999), [1, 0, 0xEF, 0x2E]);
        // Nothing present: one absent run.
        assert_eq!(bits_bytes(&bit_words(300, []), 300), [1, 0xAC, 0x02]);
        // Bits 3..16 of 16: runs 3 and 13 tie the two raw bytes.
        let tie = bit_words(16, 3..16);
        assert_eq!(bits_bytes(&tie, 16), [0, 0xF8, 0xFF]);
        // Every other bit: raw, the runs would take a byte a bit.
        let every_other = bit_words(100, (0..100).step_by(2));
        let raw = bits_bytes(&every_other, 100);
        assert_eq!(raw.len(), 1 + 13);
        assert_eq!(raw[1..13], [0x55; 12]);
        assert_eq!(raw[13], 0x05, "the padding bits past 100 are clear");
        // Runs crossing word boundaries, ending present and absent.
        for (len, members) in [
            (200, vec![63, 64, 65, 127, 128, 199]),
            (129, (60..129).collect::<Vec<_>>()),
            (1, vec![0]),
            (1, vec![]),
            (64, (0..64).collect()),
        ] {
            let words = bit_words(len, members.iter().copied());
            let bytes = bits_bytes(&words, len);
            let mut r = reader(&bytes);
            assert_eq!(r.get_bits(len).unwrap(), words, "{len} {members:?}");
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn bits_refuse_every_other_spelling() {
        let refused = |bytes: &[u8], len: usize| reader(bytes).get_bits(len).unwrap_err();
        let not_canonical = |bytes: &[u8], len: usize| {
            assert!(
                matches!(refused(bytes, len), Error::NotCanonical { .. }),
                "{bytes:02x?} at {len}"
            );
        };
        // Runs short of the set, or past it.
        assert!(matches!(
            refused(&[1, 0, 0xEE, 0x2E], 5_999),
            Error::Truncated { .. }
        ));
        assert!(matches!(
            refused(&[1, 0, 0xF0, 0x2E], 5_999),
            Error::BadLength { .. }
        ));
        assert!(matches!(
            refused(
                &[1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
                300
            ),
            Error::BadLength { .. }
        ));
        // An empty run after the first: present, absent and present again.
        not_canonical(&[1, 0, 100, 0, 200], 300);
        not_canonical(&[1, 100, 0, 200], 300);
        // Raw bits where the runs are shorter: the full and the empty set.
        let mut full = vec![0, 0xFF, 0xFF, 0xFF];
        assert!(reader(&[1, 0, 24]).get_bits(24).is_ok());
        not_canonical(&full, 24);
        not_canonical(&[0, 0, 0, 0], 24);
        // Runs where raw bits are as short: the tie above, spelt in runs.
        not_canonical(&[1, 3, 13], 16);
        not_canonical(&[1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1], 9);
        // A padding bit past the last.
        assert!(reader(&[0, 0x55, 0x05]).get_bits(11).is_ok());
        not_canonical(&[0, 0x55, 0x0D], 11);
        full.truncate(3);
        assert!(matches!(refused(&full, 24), Error::Truncated { .. }));
        // A marker neither spelling has, and none at all.
        assert!(matches!(refused(&[2, 0], 8), Error::BadTag { tag: 2, .. }));
        assert!(matches!(refused(&[], 8), Error::Truncated { .. }));
        // The words are charged to the frame's budget before allocating.
        assert!(matches!(
            refused(&[1, 0], 64 * MAX_COUNTS + 1),
            Error::BadLength { .. }
        ));
    }

    fn spell(values: &[u64]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_packed(values.iter().copied());
        w.finish().to_vec()
    }

    #[test]
    fn packed_integers_roundtrip_at_every_width() {
        for width in 0..=8u32 {
            // Every slot but the full one, dealt evenly above a floor of 1:
            // nothing escapes at `width`, and one bit narrower half would.
            let slots = (1u64 << width).saturating_sub(1).max(1);
            for n in [0u64, 1, 7, 8, 9, 64, 100] {
                let values: Vec<u64> = (0..n).map(|i| 1 + i * 37 % slots).collect();
                let bytes = spell(&values);
                if n >= 64 {
                    assert_eq!(bytes[..2], [1, width.max(1) as u8], "{width} x {n}");
                }
                assert_eq!(bytes, patched(&values, 1.min(n), bytes[1].into()));
                let mut r = reader(&bytes);
                assert_eq!(r.get_packed(n as usize).unwrap(), values, "{width} x {n}");
                assert_eq!(r.remaining(), 0);
            }
        }
        // Base 1, width 2, least significant bit first: 0 | 1 << 2 | 2 << 4.
        assert_eq!(spell(&[1, 2, 3]), [0x01, 0x02, 0x24]);
        // One value far above eight at the floor: a one-bit slot, full,
        // and its escape `200 − 0 − 1`.
        let mut spike = [0u64; 9];
        spike[8] = 200;
        assert_eq!(spell(&spike), [0x00, 0x01, 0x00, 0x01, 0xC7, 0x01]);
        // Nothing, and one value: width 0 ties the wider ones and wins.
        assert_eq!(spell(&[]), [0, 0]);
        assert_eq!(spell(&[7]), [7, 0, 0]);
        // A base of any size is its varint; 3 above it needs two bits and a
        // full slot, or three bits.
        let far = [1 << 40, (1 << 40) + 3];
        assert_eq!(spell(&far), patched(&far, 1 << 40, 3));
        assert_eq!(spell(&far)[6..], [3, 0x18]);
        assert_eq!(reader(&spell(&far)).get_packed(2).unwrap(), far);
        let top = [u64::MAX, 0];
        assert_eq!(reader(&spell(&top)).get_packed(2).unwrap(), top);
    }

    #[test]
    fn packed_decoder_refuses_short_input_and_padding_bits() {
        assert_eq!(reader(&[0x01, 0x02, 0x24]).get_packed(3), Ok(vec![1, 2, 3]));
        let context = "patched values";
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
        // Values past `u64`: an escape past it, and a base it lifts past.
        let past = |len| {
            Err(Error::BadLength {
                context: "patched value past u64",
                len,
            })
        };
        let escape = [
            &patched(&[0], 0, 8)[..2],
            &[0xFF],
            &spell(&[u64::MAX])[..10],
        ]
        .concat();
        assert_eq!(reader(&escape).get_packed(1), past(u64::MAX));
        let lifted = [&spell(&[u64::MAX])[..10], &spell(&[0, 1])[1..]].concat();
        assert_eq!(reader(&lifted).get_packed(2), past(u64::MAX));
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
