//! Compressed numeric column storage: the encoding layer under the block
//! scan pipeline.
//!
//! The paper's "trillion-cell" claim rests on workers holding far more cells
//! than naive 8-bytes-per-value storage allows (§5: columnar in-memory
//! storage sized to the cluster). This module provides the in-memory
//! counterpart of `hvc`'s on-disk delta coding: an [`IntStorage`] enum that
//! backs [`I64Column`](crate::column::I64Column) values,
//! [`DictColumn`](crate::column::DictColumn) dictionary codes and — through
//! [`F64Storage`] — integral [`F64Column`](crate::column::F64Column) values
//! with one of five physical encodings:
//!
//! * [`IntStorage::Plain`] — the raw `Vec<T>`, for high-entropy data.
//! * [`IntStorage::BitPacked`] — frame-of-reference + bit-packing: values
//!   are stored as `(value - base) / step` in `width` bits each, packed
//!   little-endian into `u64` words, where `step` is the stride every
//!   value's offset from `base` shares (see [*Common
//!   stride*](self#common-stride)). A column of small-range integers
//!   (ports, bucket ids, year/month fields, dictionary codes) shrinks to
//!   `width/64` of its plain size, and so does a column of wide values on
//!   a coarse grid (day-granular epoch milliseconds).
//! * [`IntStorage::RunLength`] — run-length encoding for sorted or
//!   low-cardinality data: `(value, end)` pairs where `ends` is the
//!   cumulative (exclusive) end row of each run.
//! * [`IntStorage::Delta`] — per-64-row-block frame-of-reference delta
//!   coding for *sorted* (mostly-ascending) columns of mostly-unique values
//!   — timestamps, sequential ids. Each 64-row block stores its first value
//!   in `anchors`, and every row stores `value - previous value` bit-packed
//!   at a global `width` (block-anchor rows pack a zero). A million
//!   sequential timestamps shrink from 8 bytes to ~1 bit per row plus one
//!   anchor per block, matching what `hvc` already achieves on disk.
//! * [`IntStorage::Exceptions`] — for a column that is mostly one value
//!   (the placeholder every null row of a mostly-missing column stores, or
//!   a real zero): that value once, one mark bit per row, and only the
//!   marked rows' values, under one of the four encodings above (see
//!   [*Exceptions*](self#exceptions)).
//!
//! ## Block-decoder contract
//!
//! Encodings stay opaque to kernels. The scan drivers in [`crate::scan`]
//! iterate [`crate::block::Block`] frames — 64-row-aligned windows — and
//! obtain each frame's value lanes from
//! [`ScanSource::decode_frame`]:
//! plain storage borrows the backing slice zero-copy, bit-packed and delta
//! storage decode whole words through the const-generic unpackers (the
//! 64-value body of every frame is word-aligned for *every* width, so the
//! inner loop is fixed shifts with no straddle bookkeeping), and run-length
//! storage splats whole runs via an ascending run cursor — a run covering
//! the entire frame is a single `fill`, not 64 per-row steps. Decoding is
//! strictly in ascending row order, so kernels observe exactly the same
//! value sequence across every encoding — the scan-equivalence and encoding
//! property tests pin this down bit-for-bit.
//!
//! On x86-64 the unpack bodies are additionally compiled under wider
//! vector ISAs and dispatched at runtime (see [`crate::simd`]); the decoded
//! values are bit-identical either way.
//!
//! ## Encoding selection
//!
//! [`IntStorage::encode`] analyzes min/max, run structure, adjacent deltas
//! and a Boyer–Moore majority vote in one pass and picks the cheapest of
//! bit-packed, run-length and delta coding, but only if it saves at least
//! 25% over plain — marginal wins are not worth the decode work. The same
//! rule then weighs the exceptions layout against that choice: when a
//! second count confirms the majority candidate, and marks, ranks and the
//! exceptions' own cheapest encoding together cost at most three quarters
//! of the best other encoding's bytes, the column stores its exceptions.
//! No share of fill rows or other threshold is a setting.
//! Selection happens at ingest wherever columns are built (`I64Column::new`,
//! `DictColumn::new`, `F64Column::new`, and therefore CSV/JSONL/HVC readers
//! and `partition_table` slices, which re-analyze each micropartition).
//!
//! ## Integral doubles
//!
//! Measured `Double` columns are very often whole numbers (minutes of
//! delay, byte counts, scores). [`F64Storage::encode`] checks in one pass
//! whether *every* value is an integer of magnitude ≤ 2^53 — the range in
//! which `f64` holds each integer exactly — and if so hands the column to
//! [`IntStorage::encode`] as **sign-magnitude codes**: `|v| << 1 | sign`.
//! The sign rides in bit 0 instead of the integer's own sign because
//! `-0.0` is a value real data holds (`round()` of a small negative), and
//! a two's-complement `v as i64` maps both zeros to 0: the round trip
//! would not be bit-exact, so every column holding a negative zero would
//! have to stay plain. Decoding is `(code >> 1) as f64` with bit 0 moved to
//! the sign bit — exact for every code the encoder produces, and total (no
//! panic, never a NaN) for any `i64` a damaged file could hold. A column
//! with any fraction, infinity, stored NaN or larger magnitude, or whose
//! codes would not save [`IntStorage::encode`]'s 25 %, stays
//! [`F64Storage::Plain`], bit for bit.
//!
//! ## Common stride
//!
//! A bit-packed row is `base + packed · step`, where `step` is the greatest
//! common divisor of every value's offset from the minimum, so `width` is
//! sized from `(max − min) / step`. Epoch-millisecond dates that fall on
//! day boundaries share 86 400 000 and pack 730 days in 10 bits instead of
//! 36; dictionary codes, ports and other dense ranges share nothing and keep
//! `step = 1`, bit for bit the plain frame of reference. The stride is read
//! off the data like `width` is: there is no knob.
//!
//! Finding it costs no `div` per value and no pass of its own.
//! [`IntStorage::encode`] takes a candidate from the GCD of the first 64
//! nonzero offsets among the first 4 096 values (dense data reaches 1 within
//! a few and stops there) and packs at it, dividing by multiplication: the step splits as `odd <<
//! shift`, and a multiple `o` of it is `(o >> shift) · odd⁻¹ mod 2⁶⁴`. The
//! same arithmetic verifies the candidate on every value it packs. A multiple
//! has its low `shift` bits clear and a quotient that fits `width`; a
//! non-multiple's product lands above `u64::MAX / odd` (the
//! multiply-by-inverse divisibility test), which no `width`-bit quotient
//! reaches. Only a candidate that fails falls back to the exact GCD and a
//! second packing.
//!
//! Decoding folds the power-of-two part of the step into the unpackers'
//! frame-of-reference add as one more shift, in the scalar body and every
//! vector tier alike; only an odd factor above 1 pays a multiply per value.
//! That recovers the sign-magnitude layout's wasted bit: the integer codes
//! of a non-negative double column are `|v| << 1`, all even, so they pack at
//! `step = 2` with one bit less per row and no multiply on the read path.
//!
//! ## Exceptions
//!
//! A mostly-missing column pays its full width on every row: a null row's
//! placeholder sits in the payload like any other value. The exceptions
//! layout stores the most common value, `fill`, once, and then:
//!
//! * `marks` — one bit per row, set where the row differs from `fill`, in
//!   the frame-aligned words a [`ValueBuf`](crate::residency::ValueBuf)
//!   holds, so a mapped part faults them chunk by chunk like any payload;
//! * `ranks` — the number of exceptions before each run of 64 mark words
//!   (4 096 rows), always resident;
//! * `values` — the exceptions in row order, under the cheapest of the
//!   other four encodings. Exceptions never nest. No exception equals the
//!   fill, so one above it is stored one lower: exceptions on both sides of
//!   the fill span one value less — the codes of a category column but its
//!   commonest pack as if that code were not there.
//!
//! A frame's mark word says everything: with no mark the frame is a splat
//! of `fill`; fully marked, its values decode straight; otherwise its `k`
//! exceptions decode from their rank and scatter to the marked lanes. The
//! rank of a frame is its group's stored rank plus the popcounts of the
//! words before it in the group; the ascending cursor carries the running
//! rank, so a scan pays one popcount per frame and a forward jump at most
//! 63. A range test compares `fill` once for every unmarked lane and only
//! the `k` exceptions lane by lane. The layout reads no null mask: a real
//! zero compresses like a placeholder, and storage stays independent of
//! nulls. Decoded values are bit for bit those of every other encoding.

use crate::scan::ScanSource;
use crate::simd::integral_value;

/// The physical encoding of an [`IntStorage`], for tests, stats, and the
/// `hvc` file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingKind {
    /// Raw values.
    Plain,
    /// Frame-of-reference bit-packing.
    BitPacked,
    /// Run-length encoding.
    RunLength,
    /// Per-block anchors + bit-packed adjacent deltas.
    Delta,
    /// One fill value, a mark per row, and the marked rows' values.
    Exceptions,
}

impl std::fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EncodingKind::Plain => "plain",
            EncodingKind::BitPacked => "bit-packed",
            EncodingKind::RunLength => "run-length",
            EncodingKind::Delta => "delta",
            EncodingKind::Exceptions => "exceptions",
        })
    }
}

mod sealed {
    /// [`PackedInt`](super::PackedInt) is sealed: the vector decode paths
    /// dispatch on `BYTES` and store raw lane bit patterns, which is only
    /// sound for the two known implementors.
    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for u32 {}
}

/// Integer types that can live in an [`IntStorage`]: they convert to and
/// from unsigned deltas relative to a base value. Implemented for `i64`
/// (column values) and `u32` (dictionary codes); sealed.
pub trait PackedInt:
    Copy + Default + Ord + std::fmt::Debug + crate::simd::LaneOrd + sealed::Sealed + 'static
{
    /// Bytes one plain value occupies.
    const BYTES: usize;
    /// `self - base` as an unsigned delta (two's-complement exact).
    fn offset_from(self, base: Self) -> u64;
    /// `base + delta`, inverse of [`PackedInt::offset_from`].
    fn add_offset(base: Self, delta: u64) -> Self;
}

impl PackedInt for i64 {
    const BYTES: usize = 8;
    #[inline]
    fn offset_from(self, base: Self) -> u64 {
        self.wrapping_sub(base) as u64
    }
    #[inline]
    fn add_offset(base: Self, delta: u64) -> Self {
        base.wrapping_add(delta as i64)
    }
}

impl PackedInt for u32 {
    const BYTES: usize = 4;
    #[inline]
    fn offset_from(self, base: Self) -> u64 {
        self.wrapping_sub(base) as u64
    }
    #[inline]
    fn add_offset(base: Self, delta: u64) -> Self {
        base.wrapping_add(delta as u32)
    }
}

/// Rows per decoded block frame (the scan layer's 64-row granularity).
pub const BLOCK_ROWS: usize = 64;

/// Compressed (or plain) storage for a column of integers.
///
/// Immutable once built, like everything else in a [`Table`](crate::Table)
/// snapshot. See the [module docs](self) for the encoding inventory and the
/// block-decoder contract.
///
/// The bulk payloads — plain values, packed words and exception marks — live
/// in a [`ValueBuf`](crate::residency::ValueBuf), so they are either owned heap
/// vectors (ingest, heap-decoded files) or zero-copy windows into a mapped
/// `hvc` [`Segment`](crate::residency::Segment) with lazy, chunk-granular
/// residency. The small side structures (run values/ends, delta anchors,
/// exception ranks) are always owned: they are consulted by every block
/// decision, so keeping them resident is the point. Decode paths touch only the words of the
/// frames they decode, which is what turns zone-map block skipping into
/// skipped *I/O*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntStorage<T> {
    /// Raw values.
    Plain(crate::residency::ValueBuf<T>),
    /// Frame-of-reference bit-packing: value `i` is
    /// `base + step · bits[i*width .. (i+1)*width]` (wrapping), packed
    /// little-endian across `words`. `width` is at most 63 (a 64-bit range
    /// stays plain); width 0 means every row equals `base`, with `step` 1.
    BitPacked {
        /// The minimum value (frame of reference).
        base: T,
        /// The stride every value's offset from `base` is a multiple of
        /// (at least 1; see the module docs' *Common stride*).
        step: u64,
        /// Bits per packed delta (0..=63).
        width: u8,
        /// Number of rows.
        len: usize,
        /// `ceil(len * width / 64)` packed words.
        words: crate::residency::ValueBuf<u64>,
    },
    /// Run-length encoding: row `i` holds `values[k]` for the unique `k`
    /// with `ends[k-1] <= i < ends[k]` (`ends` is strictly increasing and
    /// `ends[last] == len`). Rows must fit in `u32` (micropartitions do).
    RunLength {
        /// One value per run.
        values: Vec<T>,
        /// Exclusive cumulative end row of each run.
        ends: Vec<u32>,
    },
    /// Per-block delta coding: row `i` is
    /// `anchors[i/64] + Σ delta[j]` for `j` in `(i/64)*64 + 1 ..= i`, where
    /// `delta[j] = value[j] - value[j-1]` is packed in `width` bits at the
    /// same little-endian layout as [`IntStorage::BitPacked`]. Rows at
    /// block starts (`j % 64 == 0`) pack a zero — their value is the
    /// anchor. Only viable when every adjacent delta fits `width` bits as
    /// an unsigned offset, i.e. for (near-)ascending data.
    Delta {
        /// Value of row `b * 64` for each block `b` (`ceil(len/64)` of them).
        anchors: Vec<T>,
        /// Bits per packed adjacent delta (0..=63).
        width: u8,
        /// Number of rows.
        len: usize,
        /// `ceil(len * width / 64)` packed words.
        words: crate::residency::ValueBuf<u64>,
    },
    /// Exceptions around one fill value: row `i` is `fill` unless bit `i`
    /// of `marks` is set, and then it is `values[r]`, where `r` counts the
    /// marks before `i` — plus one when `values[r] >= fill`, since a stored
    /// exception has the fill's value cut out of its range (see the module
    /// docs' *Exceptions*).
    Exceptions {
        /// The value of every unmarked row.
        fill: T,
        /// Number of rows.
        len: usize,
        /// `ceil(len / 64)` words, one bit per row; none set past `len`.
        marks: crate::residency::ValueBuf<u64>,
        /// Marks before each run of `RANK_WORDS` mark words.
        ranks: Vec<u32>,
        /// The marked rows' values in row order; never exceptions itself.
        values: Box<IntStorage<T>>,
    },
}

/// Mark words per entry of [`IntStorage::Exceptions`]' `ranks`: 4 096 rows,
/// so finding a frame's rank costs at most 63 popcounts.
pub(crate) const RANK_WORDS: usize = 64;

impl<T> Default for IntStorage<T> {
    fn default() -> Self {
        IntStorage::Plain(crate::residency::ValueBuf::default())
    }
}

/// Bits needed to represent `delta` (0 for 0).
#[inline]
fn bits_needed(delta: u64) -> usize {
    (64 - delta.leading_zeros()) as usize
}

/// The low `width` bits set (`width` <= 63).
#[inline]
fn low_mask(width: usize) -> u64 {
    debug_assert!(width < 64);
    (1u64 << width) - 1
}

/// The packed-word index range covering packed values `start..end` at
/// `width` bits each — the residency footprint of a decode, handed to
/// [`ValueBuf::hot`](crate::residency::ValueBuf::hot) so lazily mapped
/// storage faults in only the words a frame actually reads.
#[inline]
fn word_range(width: usize, start: usize, end: usize) -> std::ops::Range<usize> {
    (start * width) / 64..(end * width).div_ceil(64)
}

/// Packed delta at row `i` for an arbitrary (non-constant) width: the
/// per-value shift/mask reference every block unpacker must match.
#[inline]
fn packed_at(words: &[u64], width: usize, i: usize) -> u64 {
    let bit = i * width;
    let w = bit >> 6;
    let off = bit & 63;
    let mut d = words[w] >> off;
    if off + width > 64 {
        d |= words[w + 1] << (64 - off);
    }
    d & low_mask(width)
}

/// `len` deltas in `width` bits each (< 64), packed little-endian: the
/// layout [`packed_at`] reads. Width 0 packs (and draws) nothing.
#[inline(always)]
fn pack_words(len: usize, width: usize, deltas: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut words = vec![0u64; (len * width).div_ceil(64)];
    if width > 0 {
        let mut bit = 0usize;
        for d in deltas {
            let w = bit >> 6;
            let off = bit & 63;
            words[w] |= d << off;
            if off + width > 64 {
                words[w + 1] |= d >> (64 - off);
            }
            bit += width;
        }
    }
    words
}

/// Greatest common divisor, binary (Stein's): no `div`. `gcd(0, b) == b`.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let twos = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << twos;
        }
    }
}

/// A step split for division-free arithmetic on its multiples: `step = odd
/// << shift` and `inv` is `odd`'s inverse modulo 2⁶⁴, so a multiple `o`
/// divides exactly as `(o >> shift) · inv`.
#[derive(Debug, Clone, Copy)]
struct Stride {
    shift: u32,
    inv: u64,
}

impl Stride {
    fn new(step: u64) -> Self {
        debug_assert!(step != 0);
        let shift = step.trailing_zeros();
        let odd = step >> shift;
        // Newton's iteration doubles the correct low bits of the inverse,
        // from the 3 that `odd · odd ≡ 1 (mod 8)` gives: 6, 12, 24, 48, 96.
        let mut inv = odd;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
        }
        Stride { shift, inv }
    }

    /// `o / step`, exact when `o` is a multiple of the step.
    #[inline]
    fn quotient(self, o: u64) -> u64 {
        (o >> self.shift).wrapping_mul(self.inv)
    }

    /// Nonzero unless `o` is a multiple of the step whose quotient fits
    /// `width` bits, for any `width` with `2^width · step <= 2⁶⁴` (packing
    /// sizes it from a range below 2⁶³, so it has one): a multiple has its
    /// low `shift` bits clear, and a non-multiple's product by the inverse
    /// exceeds `u64::MAX / odd` (Granlund–Montgomery), which bounds every
    /// `width`-bit quotient. Branch-free, so packing ORs it over every value.
    #[inline]
    fn off_grid(self, o: u64, width: usize) -> u64 {
        (o & low_mask(self.shift as usize)) | self.quotient(o) >> width
    }
}

/// A candidate for the largest step every value's offset from `min` is a
/// multiple of: the GCD of the first 64 nonzero offsets among the first
/// 4 096 values, or 1 when they share none or all equal `min` — a column
/// that is mostly its minimum is not scanned for a stride — and when the
/// `range` needs all 64 bits, which packing refuses anyway. Packing verifies
/// the candidate on every value, and only one that fails pays
/// [`exact_stride`]. See the module docs' *Common stride*.
fn sampled_stride<T: PackedInt>(values: &[T], min: T, range: u64) -> u64 {
    if bits_needed(range) >= 64 {
        return 1;
    }
    let mut g = 0u64;
    let offsets = values.iter().take(4096).map(|&v| v.offset_from(min));
    for o in offsets.filter(|&o| o != 0).take(64) {
        g = gcd(g, o);
        if g == 1 {
            break;
        }
    }
    g.max(1)
}

/// The GCD of every offset from `min`, starting from a `candidate` stride
/// some offset is not a multiple of.
fn exact_stride<T: PackedInt>(values: &[T], min: T, candidate: u64) -> u64 {
    values
        .iter()
        .try_fold(candidate, |g, &v| match gcd(g, v.offset_from(min)) {
            1 => None,
            g => Some(g),
        })
        .unwrap_or(1)
}

/// What [`IntStorage::encode`]'s one analysis pass learns about a column.
struct Shape<T> {
    min: T,
    max: T,
    runs: usize,
    /// Widest adjacent delta at non-anchor rows, as an unsigned offset;
    /// descending data produces a huge offset and rules delta out.
    delta_width: usize,
    /// The Boyer–Moore majority candidate: the value more than half the
    /// rows hold, if any does (a second count confirms it).
    majority: T,
}

impl<T: PackedInt> Shape<T> {
    /// `None` for an empty column. Its passes vectorize only where 64-bit
    /// lanes compare in one instruction, so they run under AVX2 when the
    /// host has it.
    fn of(values: &[T]) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::current_tier() != crate::simd::Tier::Scalar {
            // SAFETY: both vector tiers are only reported after runtime
            // detection confirmed at least avx2 — the one feature the callee
            // enables.
            return unsafe { shape_avx2(values) };
        }
        Self::analyze(values)
    }

    #[inline(always)]
    fn analyze(values: &[T]) -> Option<Self> {
        let &first = values.first()?;
        let (min, max) = values
            .iter()
            .fold((first, first), |(min, max), &v| (min.min(v), max.max(v)));
        let runs = 1 + values.windows(2).filter(|pair| pair[0] != pair[1]).count();
        // A frame's first row is its delta anchor, which packs no delta; the
        // widest delta is the width of all of them ORed together.
        let mut deltas = 0u64;
        for frame in values.chunks(BLOCK_ROWS) {
            for pair in frame.windows(2) {
                deltas |= pair[1].offset_from(pair[0]);
            }
        }
        // Four interleaved votes, so no one chain of dependent votes sets
        // the pace; a value on more than half the rows survives the merge
        // of their summaries.
        let mut lanes = [(first, 0usize); 4];
        let mut quads = values.chunks_exact(4);
        for quad in &mut quads {
            for (lane, &v) in lanes.iter_mut().zip(quad) {
                *lane = vote(*lane, v);
            }
        }
        lanes[0] = quads
            .remainder()
            .iter()
            .fold(lanes[0], |lane, &v| vote(lane, v));
        let (majority, _) = lanes.into_iter().reduce(merge_votes).expect("four lanes");
        Some(Shape {
            min,
            max,
            runs,
            delta_width: bits_needed(deltas),
            majority,
        })
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn shape_avx2<T: PackedInt>(values: &[T]) -> Option<Shape<T>> {
    Shape::analyze(values)
}

/// One Boyer–Moore step: the `(candidate, votes)` summary after `v`.
/// Branch-free: on data without a majority, which way a vote goes is a
/// coin toss per row.
#[inline(always)]
fn vote<T: PackedInt>((candidate, votes): (T, usize), v: T) -> (T, usize) {
    let (same, empty) = (v == candidate, votes == 0);
    let candidate = if empty { v } else { candidate };
    (candidate, votes + 2 * usize::from(same | empty) - 1)
}

/// Two vote summaries as one (the one-counter Misra–Gries merge): a value
/// on more than half the rows of both survives it.
fn merge_votes<T: PackedInt>(a: (T, usize), b: (T, usize)) -> (T, usize) {
    match (a.0 == b.0, a.1 >= b.1) {
        (true, _) => (a.0, a.1 + b.1),
        (false, true) => (a.0, a.1 - b.1),
        (false, false) => (b.0, b.1 - a.1),
    }
}

/// Bytes of an exceptions layout's marks and ranks over `n` rows.
fn marks_cost(n: usize) -> usize {
    let words = n.div_ceil(BLOCK_ROWS);
    words * 8 + words.div_ceil(RANK_WORDS) * 4
}

/// One mark word per frame of `values`: bit `k` set where the frame's row
/// `k` differs from `fill` (the block predicate's compare, vectorized).
fn marks_of<T: PackedInt>(values: &[T], fill: T) -> Vec<u64> {
    values
        .chunks(BLOCK_ROWS)
        .map(|frame| {
            let filled = crate::simd::range_word_incl(frame, fill, fill);
            !filled & crate::bitmap::span_mask(0, frame.len())
        })
        .collect()
}

/// The marks before each run of `RANK_WORDS` words of `marks`.
fn ranks_of(marks: &[u64]) -> Vec<u32> {
    let mut rank = 0u32;
    marks
        .chunks(RANK_WORDS)
        .map(|group| {
            let before = rank;
            rank += group.iter().map(|m| m.count_ones()).sum::<u32>();
            before
        })
        .collect()
}

/// An exceptions cursor packs the mark word it stands before and the rank
/// there into one `usize`: the word above bit 32 (rows fit `u32`, so ranks
/// do too). A target whose `usize` cannot hold both never resumes.
const CURSOR_PACKS: bool = usize::BITS >= 64;

/// A cursor that never resumes: [`exception_word`] starts from `ranks`.
const NO_CURSOR: usize = usize::MAX;

/// The cursor standing before mark word `w`, where the rank is `rank`.
#[inline]
fn exception_cursor(w: usize, rank: usize) -> usize {
    ((w as u64) << 32 | rank as u64) as usize
}

/// The rank before mark word `w` of a `rows`-row column, and the word:
/// resumed from `cursor` when it stands at or before `w` in the same rank
/// group, taken from `ranks` otherwise, so at most 63 popcounts either way
/// and one per frame on an ascending scan. Leaves the cursor before word
/// `w + 1`. `count` is the number of exceptions.
///
/// Panics when the marks contradict the ranks — more marks than the group
/// holds, fewer at the group's end, or a mark past the last row — which
/// only a damaged mapped file can bring about (a heap decode checks every
/// word at open).
#[inline]
fn exception_word(
    marks: &crate::residency::ValueBuf<u64>,
    ranks: &[u32],
    count: usize,
    rows: usize,
    cursor: &mut usize,
    w: usize,
) -> (usize, u64) {
    let group = w / RANK_WORDS;
    let (at, rank) = ((*cursor as u64 >> 32) as usize, *cursor as u32 as usize);
    let (from, mut rank) = if CURSOR_PACKS && at <= w && at / RANK_WORDS == group {
        (at, rank)
    } else {
        (group * RANK_WORDS, ranks[group] as usize)
    };
    let words = marks.hot(from..w + 1);
    for &m in &words[from..w] {
        rank += m.count_ones() as usize;
    }
    let mark = words[w];
    let end = rank + mark.count_ones() as usize;
    let limit = ranks.get(group + 1).map_or(count, |&r| r as usize);
    let group_end = (w + 1).is_multiple_of(RANK_WORDS) || w + 1 == marks.len();
    let tail = rows - w * BLOCK_ROWS;
    assert!(
        end <= limit && (end == limit || !group_end) && (tail >= BLOCK_ROWS || mark >> tail == 0),
        "exception marks contradict their ranks at mark word {w}"
    );
    *cursor = exception_cursor(w + 1, end);
    (rank, mark)
}

/// An exception as `values` stores it: never the fill, so the fill's value
/// is cut out of the number line — one above it is stored one lower — and a
/// set of exceptions on both sides of the fill packs one value narrower
/// (the categories of a code column, numbered in byte order, are all
/// exceptions but the commonest). [`open_gap`] is the inverse.
#[inline]
fn close_gap<T: PackedInt>(v: T, fill: T) -> T {
    if v > fill {
        T::add_offset(v, u64::MAX)
    } else {
        v
    }
}

/// The exception a stored value stands for ([`close_gap`]'s inverse).
#[inline]
fn open_gap<T: PackedInt>(stored: T, fill: T) -> T {
    if stored >= fill {
        T::add_offset(stored, 1)
    } else {
        stored
    }
}

/// [`open_gap`] over decoded lanes.
#[inline]
fn open_gaps<T: PackedInt>(lanes: &mut [T], fill: T) {
    for v in lanes {
        *v = open_gap(*v, fill);
    }
}

/// Write `lanes` to the set bits of `mark` in `out`, in order.
#[inline]
fn scatter<T: Copy>(mut mark: u64, lanes: &[T], out: &mut [T]) {
    for &v in lanes {
        out[mark.trailing_zeros() as usize] = v;
        mark &= mark - 1;
    }
}

/// Move bit `j` of `compact` to the `j`-th set bit of `mark` (a software
/// `pdep`).
#[inline]
fn deposit(mut compact: u64, mut mark: u64) -> u64 {
    let mut out = 0;
    while mark != 0 {
        let low = mark & mark.wrapping_neg();
        out |= low & (compact & 1).wrapping_neg();
        compact >>= 1;
        mark ^= low;
    }
    out
}

impl<T: PackedInt> IntStorage<T> {
    /// Analyze `values` (min/max range, run structure, adjacent deltas, a
    /// majority vote) and store them under the cheapest encoding, keeping
    /// them plain unless a packed form saves at least 25% of the bytes, and
    /// storing their exceptions when that saves 25% over the best of the
    /// others (see the module docs' *Encoding selection*).
    pub fn encode(values: Vec<T>) -> Self {
        let Some(shape) = Shape::of(&values) else {
            return IntStorage::Plain(values.into());
        };
        let packed = Self::pack(&values, &shape);
        let cost = packed
            .as_ref()
            .map_or(values.len() * T::BYTES, Self::heap_bytes);
        Self::exceptions_within(&values, shape.majority, cost - cost / 4)
            .or(packed)
            .unwrap_or_else(|| IntStorage::Plain(values.into()))
    }

    /// [`IntStorage::encode`] without the exceptions layout: the encoding an
    /// exceptions storage keeps its values under.
    fn packed_or_plain(values: Vec<T>) -> Self {
        match Shape::of(&values).and_then(|shape| Self::pack(&values, &shape)) {
            Some(packed) => packed,
            None => IntStorage::Plain(values.into()),
        }
    }

    /// The exceptions layout around `fill`, when `fill` holds more than
    /// half the rows and the layout costs at most `budget` bytes. Counting
    /// waits until marks and ranks alone fit the budget.
    fn exceptions_within(values: &[T], fill: T, budget: usize) -> Option<Self> {
        let n = values.len();
        if n > u32::MAX as usize || marks_cost(n) > budget {
            return None;
        }
        let marks = marks_of(values, fill);
        let marked: usize = marks.iter().map(|m| m.count_ones() as usize).sum();
        if marked * 2 >= n {
            return None;
        }
        let storage = Self::exceptions_from(values, fill, marks);
        (storage.heap_bytes() <= budget).then_some(storage)
    }

    /// The cheapest of bit-packing, run-length and delta coding for
    /// `values`, of which `shape` is the analysis; `None` when none saves
    /// 25% over plain.
    fn pack(values: &[T], shape: &Shape<T>) -> Option<Self> {
        let n = values.len();
        let &Shape {
            min,
            max,
            runs,
            delta_width,
            ..
        } = shape;
        let plain_cost = n * T::BYTES;
        let rl_cost = if n > u32::MAX as usize {
            usize::MAX
        } else {
            runs * (T::BYTES + 4)
        };
        let delta_cost = if delta_width >= 64 {
            usize::MAX
        } else {
            n.div_ceil(BLOCK_ROWS) * T::BYTES + (n * delta_width).div_ceil(64) * 8
        };
        // Only leave plain when the saving is real (>= 25%).
        let budget = plain_cost - plain_cost / 4;
        let range = max.offset_from(min);
        let mut step = sampled_stride(values, min, range);
        // Twice at most: a candidate stride that packing refuses is replaced
        // by the exact one, whose wider packing may lose to another encoding.
        loop {
            let width = bits_needed(range / step);
            let packed_cost = if width >= 64 {
                usize::MAX
            } else {
                (n * width).div_ceil(64) * 8
            };
            if rl_cost <= packed_cost && rl_cost <= delta_cost && rl_cost <= budget {
                return Some(Self::run_length_from(values));
            }
            if delta_cost < packed_cost && delta_cost <= budget {
                return Some(Self::delta_from(values, delta_width));
            }
            if packed_cost > budget {
                return None;
            }
            match Self::bit_packed_from(values, min, step, width) {
                Some(packed) => return Some(packed),
                None => step = exact_stride(values, min, step),
            }
        }
    }

    /// Store `values` uncompressed regardless of their shape (benchmarks
    /// and encoding-equivalence tests force specific variants).
    pub fn plain_of(values: Vec<T>) -> Self {
        IntStorage::Plain(values.into())
    }

    /// Force frame-of-reference bit-packing at the values' common stride.
    /// `None` when the value range needs all 64 bits (only possible for
    /// `i64` extremes).
    pub fn bit_packed_of(values: &[T]) -> Option<Self> {
        let Some(&first) = values.first() else {
            return Some(IntStorage::BitPacked {
                base: T::default(),
                step: 1,
                width: 0,
                len: 0,
                words: crate::residency::ValueBuf::default(),
            });
        };
        let min = values.iter().copied().fold(first, T::min);
        let range = values.iter().copied().fold(first, T::max).offset_from(min);
        let step = sampled_stride(values, min, range);
        if bits_needed(range / step) >= 64 {
            return None;
        }
        let pack = |step| Self::bit_packed_from(values, min, step, bits_needed(range / step));
        pack(step).or_else(|| pack(exact_stride(values, min, step)))
    }

    /// Force run-length encoding. `None` when there are more rows than
    /// `u32` can index.
    pub fn run_length_of(values: &[T]) -> Option<Self> {
        (values.len() <= u32::MAX as usize).then(|| Self::run_length_from(values))
    }

    /// Force per-block delta coding. `None` when some adjacent delta does
    /// not fit 63 bits as an unsigned offset (descending `i64` data).
    pub fn delta_of(values: &[T]) -> Option<Self> {
        let mut delta_width = 0usize;
        for i in 1..values.len() {
            if !i.is_multiple_of(BLOCK_ROWS) {
                delta_width = delta_width.max(bits_needed(values[i].offset_from(values[i - 1])));
            }
        }
        (delta_width < 64).then(|| Self::delta_from(values, delta_width))
    }

    /// Force the exceptions layout around the values' majority candidate
    /// (any fill is correct; the majority leaves the fewest exceptions),
    /// with the exceptions under their cheapest other encoding. `None` when
    /// there are more rows than `u32` can index.
    pub fn exceptions_of(values: &[T]) -> Option<Self> {
        let fill = Shape::of(values).map_or(T::default(), |shape| shape.majority);
        (values.len() <= u32::MAX as usize)
            .then(|| Self::exceptions_from(values, fill, marks_of(values, fill)))
    }

    /// Pack `(v - base) / step` in `width` bits, verifying on the way that
    /// every offset is a multiple of `step` — `None` when one is not, so a
    /// candidate stride costs no pass of its own.
    fn bit_packed_from(values: &[T], base: T, step: u64, width: usize) -> Option<Self> {
        debug_assert!(width < 64);
        let offsets = values.iter().map(|&v| v.offset_from(base));
        let words = if step == 1 {
            pack_words(values.len(), width, offsets)
        } else {
            let stride = Stride::new(step);
            let mut off_grid = 0u64;
            let quotients = offsets.map(|o| {
                off_grid |= stride.off_grid(o, width);
                stride.quotient(o)
            });
            let words = pack_words(values.len(), width, quotients);
            if off_grid != 0 {
                return None;
            }
            words
        };
        Some(IntStorage::BitPacked {
            base,
            step,
            width: width as u8,
            len: values.len(),
            words: words.into(),
        })
    }

    fn run_length_from(values: &[T]) -> Self {
        let mut rvalues = Vec::new();
        let mut ends = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if rvalues.last() != Some(&v) || ends.is_empty() {
                rvalues.push(v);
                ends.push(i as u32 + 1);
            } else {
                *ends.last_mut().expect("non-empty") = i as u32 + 1;
            }
        }
        IntStorage::RunLength {
            values: rvalues,
            ends,
        }
    }

    fn delta_from(values: &[T], width: usize) -> Self {
        debug_assert!(width < 64);
        let deltas = values.iter().enumerate().map(|(i, &v)| {
            // Block starts pack a zero: their value is the anchor.
            let d = if i.is_multiple_of(BLOCK_ROWS) {
                0
            } else {
                v.offset_from(values[i - 1])
            };
            debug_assert!(bits_needed(d) <= width);
            d
        });
        IntStorage::Delta {
            anchors: values.iter().step_by(BLOCK_ROWS).copied().collect(),
            width: width as u8,
            len: values.len(),
            words: pack_words(values.len(), width, deltas).into(),
        }
    }

    /// The exceptions layout of `values` around `fill`, whose marks
    /// [`marks_of`] drew.
    fn exceptions_from(values: &[T], fill: T, marks: Vec<u64>) -> Self {
        let marked = marks.iter().map(|m| m.count_ones() as usize).sum();
        let mut exceptions = Vec::with_capacity(marked);
        for (frame, &mark) in values.chunks(BLOCK_ROWS).zip(&marks) {
            let mut mark = mark;
            while mark != 0 {
                exceptions.push(close_gap(frame[mark.trailing_zeros() as usize], fill));
                mark &= mark - 1;
            }
        }
        IntStorage::Exceptions {
            fill,
            len: values.len(),
            ranks: ranks_of(&marks),
            marks: marks.into(),
            values: Box::new(Self::packed_or_plain(exceptions)),
        }
    }

    /// Rebuild a bit-packed storage from its parts (used by `hvc` decode,
    /// which preserves the encoded representation instead of
    /// re-analyzing), over an owned or a mapped word buffer. Returns `None`
    /// if the parts are structurally inconsistent — a zero step, a step
    /// other than 1 at width 0 (the encoder never writes one), a width of 64
    /// or a word count that disagrees with `len` — and never touches the
    /// buffer's bytes, only its length.
    pub fn from_bit_packed_buf(
        base: T,
        step: u64,
        width: u8,
        len: usize,
        words: crate::residency::ValueBuf<u64>,
    ) -> Option<Self> {
        if step == 0
            || (width == 0 && step != 1)
            || width >= 64
            || words.len() != (len * width as usize).div_ceil(64)
        {
            return None;
        }
        Some(IntStorage::BitPacked {
            base,
            step,
            width,
            len,
            words,
        })
    }

    /// Rebuild a run-length storage from its parts; `None` unless `ends`
    /// is strictly increasing, matches `values` in length, and is non-empty
    /// exactly when `values` is.
    pub fn from_run_length(values: Vec<T>, ends: Vec<u32>) -> Option<Self> {
        if values.len() != ends.len() || ends.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(IntStorage::RunLength { values, ends })
    }

    /// Rebuild a delta storage from its parts (`hvc` decode), over an
    /// owned or a mapped word buffer; `None` if the anchor or word counts
    /// are inconsistent with `len`/`width`. Anchors stay owned: every frame
    /// decode starts from one, so they are resident by design.
    pub fn from_delta_buf(
        anchors: Vec<T>,
        width: u8,
        len: usize,
        words: crate::residency::ValueBuf<u64>,
    ) -> Option<Self> {
        if width >= 64
            || anchors.len() != len.div_ceil(BLOCK_ROWS)
            || words.len() != (len * width as usize).div_ceil(64)
        {
            return None;
        }
        Some(IntStorage::Delta {
            anchors,
            width,
            len,
            words,
        })
    }

    /// Rebuild an exceptions storage from its parts (`hvc` decode), over an
    /// owned or a mapped mark buffer. `None` unless what the parts' sizes
    /// alone can settle holds, without touching a mark: `values` is not
    /// exceptions itself, the rows fit `u32`, there is one mark word per 64
    /// rows and one rank per `RANK_WORDS` of them, the ranks start at 0
    /// and rise by at most a group's rows, and the exceptions after the
    /// last rank fit the last group. [`IntStorage::marks_match_ranks`] is
    /// the check that reads the marks.
    pub fn from_exceptions_buf(
        fill: T,
        len: usize,
        marks: crate::residency::ValueBuf<u64>,
        ranks: Vec<u32>,
        values: Self,
    ) -> Option<Self> {
        let words = len.div_ceil(BLOCK_ROWS);
        let group_rows = (BLOCK_ROWS * RANK_WORDS) as u32;
        let sound = !matches!(values, IntStorage::Exceptions { .. })
            && len <= u32::MAX as usize
            && marks.len() == words
            && ranks.len() == words.div_ceil(RANK_WORDS)
            && ranks.first().is_none_or(|&r| r == 0)
            && ranks
                .windows(2)
                .all(|w| w[0] <= w[1] && w[1] - w[0] <= group_rows)
            && ranks.last().map_or(values.is_empty(), |&last| {
                let tail = len - (ranks.len() - 1) * group_rows as usize;
                (last as usize..=last as usize + tail).contains(&values.len())
            });
        sound.then(|| IntStorage::Exceptions {
            fill,
            len,
            marks,
            ranks,
            values: Box::new(values),
        })
    }

    /// Whether an exceptions storage's marks agree with its ranks and its
    /// exception count, with no mark past the last row: the check a heap
    /// `hvc` decode runs at open, reading every mark word. `true` for every
    /// other encoding.
    pub fn marks_match_ranks(&self) -> bool {
        let IntStorage::Exceptions {
            len,
            marks,
            ranks,
            values,
            ..
        } = self
        else {
            return true;
        };
        let marks = marks.slice();
        let total: usize = marks.iter().map(|m| m.count_ones() as usize).sum();
        let tail = len % BLOCK_ROWS;
        ranks_of(marks) == *ranks
            && total == values.len()
            && (tail == 0 || marks.last().is_none_or(|&m| m >> tail == 0))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            IntStorage::Plain(v) => v.len(),
            IntStorage::BitPacked { len, .. }
            | IntStorage::Delta { len, .. }
            | IntStorage::Exceptions { len, .. } => *len,
            IntStorage::RunLength { ends, .. } => ends.last().map_or(0, |&e| e as usize),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which encoding this storage uses.
    pub fn kind(&self) -> EncodingKind {
        match self {
            IntStorage::Plain(_) => EncodingKind::Plain,
            IntStorage::BitPacked { .. } => EncodingKind::BitPacked,
            IntStorage::RunLength { .. } => EncodingKind::RunLength,
            IntStorage::Delta { .. } => EncodingKind::Delta,
            IntStorage::Exceptions { .. } => EncodingKind::Exceptions,
        }
    }

    /// Value at row `i`. O(1) for plain and bit-packed storage,
    /// O(log runs) for run-length, O(row-in-block) for delta, and for
    /// exceptions a stored rank, at most 64 popcounts and the exception's
    /// own lookup.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        match self {
            IntStorage::Plain(v) => v.hot(i..i + 1)[i],
            IntStorage::BitPacked {
                base,
                step,
                width,
                len,
                words,
            } => {
                assert!(i < *len, "row {i} out of range {len}");
                let width = *width as usize;
                if width == 0 {
                    return *base;
                }
                let words = words.hot(word_range(width, i, i + 1));
                T::add_offset(*base, packed_at(words, width, i).wrapping_mul(*step))
            }
            IntStorage::RunLength { values, ends } => {
                values[ends.partition_point(|&e| e as usize <= i)]
            }
            IntStorage::Delta {
                anchors,
                width,
                len,
                words,
            } => {
                assert!(i < *len, "row {i} out of range {len}");
                let width = *width as usize;
                let mut v = anchors[i / BLOCK_ROWS];
                if width > 0 {
                    let start = i / BLOCK_ROWS * BLOCK_ROWS;
                    let words = words.hot(word_range(width, start, i + 1));
                    for j in (start + 1)..=i {
                        v = T::add_offset(v, packed_at(words, width, j));
                    }
                }
                v
            }
            IntStorage::Exceptions {
                fill,
                len,
                marks,
                ranks,
                values,
            } => {
                assert!(i < *len, "row {i} out of range {len}");
                let (w, bit) = (i / BLOCK_ROWS, i % BLOCK_ROWS);
                let mut cursor = NO_CURSOR;
                let (rank, mark) = exception_word(marks, ranks, values.len(), *len, &mut cursor, w);
                if mark >> bit & 1 == 1 {
                    let at = rank + (mark & low_mask(bit)).count_ones() as usize;
                    open_gap(values.get(at), *fill)
                } else {
                    *fill
                }
            }
        }
    }

    /// Run-length lookup returning `(value, exclusive end of the run
    /// containing row i)`. Exceptions storage reports the run of fill rows
    /// up to the next mark (looked for within the row's rank group) and an
    /// exception as a single row; every other encoding reports the single
    /// row `(value, i + 1)`. Ascending callers (sparse scans, samples) use
    /// the returned end to serve *every remaining row of the run — and a
    /// run covering a whole 64-row frame serves the whole frame — without
    /// re-probing the storage.
    #[inline]
    pub fn run_at(&self, cursor: &mut usize, i: usize) -> (T, usize) {
        match self {
            IntStorage::RunLength { values, ends } => {
                let mut run = *cursor;
                if run >= ends.len() || (run > 0 && ends[run - 1] as usize > i) {
                    run = ends.partition_point(|&e| e as usize <= i);
                } else if ends[run] as usize <= i {
                    // Ahead of the cursor: O(1) when the target sits in the
                    // next run (the common ascending step), a binary
                    // re-seek into the tail for longer jumps — a cold
                    // cursor never walks the run list linearly.
                    run += 1;
                    if run < ends.len() && (ends[run] as usize) <= i {
                        run += ends[run..].partition_point(|&e| e as usize <= i);
                    }
                }
                *cursor = run;
                (values[run], ends[run] as usize)
            }
            IntStorage::Exceptions {
                fill,
                len,
                marks,
                ranks,
                values,
            } => {
                let (w, bit) = (i / BLOCK_ROWS, i % BLOCK_ROWS);
                let (rank, mark) = exception_word(marks, ranks, values.len(), *len, cursor, w);
                if mark >> bit & 1 == 1 {
                    let at = rank + (mark & low_mask(bit)).count_ones() as usize;
                    return (open_gap(values.get(at), *fill), i + 1);
                }
                if mark >> bit != 0 {
                    return (*fill, i + (mark >> bit).trailing_zeros() as usize);
                }
                // Past this word's last mark the run goes on across the
                // unmarked words that follow, looked for up to the group's
                // end; the cursor skips to the next marked word.
                let group_end = ((w / RANK_WORDS + 1) * RANK_WORDS).min(marks.len());
                let words = marks.hot(w + 1..group_end);
                match (w + 1..group_end).find(|&x| words[x] != 0) {
                    Some(x) => {
                        *cursor = exception_cursor(x, rank + mark.count_ones() as usize);
                        (*fill, x * BLOCK_ROWS + words[x].trailing_zeros() as usize)
                    }
                    None => (*fill, (group_end * BLOCK_ROWS).min(*len)),
                }
            }
            _ => (self.get(i), i + 1),
        }
    }

    /// Decode rows `start .. start + out.len()` into `out`, in row order.
    /// Works at any offset; the aligned whole-frame entry point the scan
    /// drivers use is [`IntStorage::decode_frame`].
    pub fn decode_into(&self, start: usize, out: &mut [T]) {
        match self {
            IntStorage::Plain(v) => {
                let end = start + out.len();
                out.copy_from_slice(&v.hot(start..end)[start..end]);
            }
            IntStorage::BitPacked {
                base,
                step,
                width,
                words,
                ..
            } => {
                let width = *width as usize;
                if width == 0 {
                    out.fill(*base);
                } else {
                    let ws = words.hot(word_range(width, start, start + out.len()));
                    unpack_span(ws, *base, *step, width, start, out);
                }
            }
            IntStorage::RunLength { .. } => {
                let mut cursor = 0usize;
                let mut i = start;
                let mut o = 0usize;
                while o < out.len() {
                    let (v, run_end) = self.run_at(&mut cursor, i);
                    let take = run_end.min(start + out.len()) - i;
                    out[o..o + take].fill(v);
                    i += take;
                    o += take;
                }
            }
            IntStorage::Delta { .. } | IntStorage::Exceptions { .. } => {
                // Frame-wise: decode each overlapping 64-row block and copy
                // the requested span.
                let mut buf = [T::default(); BLOCK_ROWS];
                let n = self.len();
                let mut i = start;
                let mut o = 0usize;
                let mut cursor = 0usize;
                while o < out.len() {
                    let fb = i / BLOCK_ROWS * BLOCK_ROWS;
                    let flen = BLOCK_ROWS.min(n - fb);
                    let lanes = self.decode_frame(&mut cursor, fb, flen, &mut buf);
                    let take = (fb + flen).min(start + out.len()) - i;
                    out[o..o + take].copy_from_slice(&lanes[i - fb..i - fb + take]);
                    i += take;
                    o += take;
                }
            }
        }
    }

    /// Decode the 64-row-aligned frame `base .. base + len` (`len <= 64`),
    /// returning the decoded value lanes — borrowed zero-copy from plain
    /// storage, materialized into `buf` otherwise. `cursor` is opaque
    /// ascending scan state shared with [`IntStorage::run_at`] (run-length
    /// storage resumes from the current run instead of re-seeking, so a run
    /// covering the whole frame costs one `fill`; exceptions storage resumes
    /// from the running rank, so a frame costs one popcount before its
    /// exceptions decode).
    ///
    /// This is the block-decoder entry point of the scan pipeline: frames
    /// are always word-aligned in the packed bit stream (64 values × any
    /// width is a whole number of words), so bit-packed and delta decode
    /// run the const-generic whole-word unpackers with no straddle head.
    #[inline]
    pub fn decode_frame<'a>(
        &'a self,
        cursor: &mut usize,
        base: usize,
        len: usize,
        buf: &'a mut [T; BLOCK_ROWS],
    ) -> &'a [T] {
        debug_assert!(base.is_multiple_of(BLOCK_ROWS) && len <= BLOCK_ROWS);
        match self {
            IntStorage::Plain(v) => &v.hot(base..base + len)[base..base + len],
            IntStorage::BitPacked {
                base: b,
                step,
                width,
                words,
                ..
            } => {
                let width = *width as usize;
                let out = &mut buf[..len];
                if width == 0 {
                    out.fill(*b);
                } else {
                    let ws = words.hot(word_range(width, base, base + len));
                    unpack_span(ws, *b, *step, width, base, out);
                }
                &buf[..len]
            }
            IntStorage::RunLength { .. } => {
                let mut i = base;
                let mut o = 0usize;
                while o < len {
                    let (v, run_end) = self.run_at(cursor, i);
                    let take = run_end.min(base + len) - i;
                    buf[o..o + take].fill(v);
                    i += take;
                    o += take;
                }
                &buf[..len]
            }
            IntStorage::Delta {
                anchors,
                width,
                words,
                ..
            } => {
                let width = *width as usize;
                let out = &mut buf[..len];
                if width == 0 {
                    out.fill(anchors[base / BLOCK_ROWS]);
                } else {
                    // Unpack the packed deltas of the frame (anchor rows
                    // packed zero), then prefix-sum from the anchor.
                    let ws = words.hot(word_range(width, base, base + len));
                    unpack_span(ws, T::default(), 1, width, base, out);
                    prefix_frame(anchors[base / BLOCK_ROWS], out);
                }
                &buf[..len]
            }
            IntStorage::Exceptions {
                fill,
                len: rows,
                marks,
                ranks,
                values,
            } => {
                let w = base / BLOCK_ROWS;
                let (rank, word) = exception_word(marks, ranks, values.len(), *rows, cursor, w);
                // A caller may ask for fewer rows than the frame holds.
                let mark = word & crate::bitmap::span_mask(0, len);
                let out = &mut buf[..len];
                if mark == 0 {
                    out.fill(*fill);
                } else if mark == crate::bitmap::span_mask(0, len) {
                    values.decode_into(rank, out);
                    open_gaps(out, *fill);
                } else {
                    let mut lanes = [T::default(); BLOCK_ROWS];
                    let lanes = &mut lanes[..mark.count_ones() as usize];
                    values.decode_into(rank, lanes);
                    open_gaps(lanes, *fill);
                    out.fill(*fill);
                    scatter(mark, lanes, out);
                }
                &buf[..len]
            }
        }
    }

    /// Decode rows `start..end` into a fresh vector (partition slicing).
    pub fn decode_range(&self, start: usize, end: usize) -> Vec<T> {
        let mut out = vec![T::default(); end - start];
        self.decode_into(start, &mut out);
        out
    }

    /// Decode every row (tests, format conversions).
    pub fn to_vec(&self) -> Vec<T> {
        self.decode_range(0, self.len())
    }

    /// Approximate heap footprint in bytes of the encoded payload. Mapped
    /// (file-backed) payloads count zero here — see
    /// `IntStorage::mapped_bytes`.
    pub fn heap_bytes(&self) -> usize {
        match self {
            IntStorage::Plain(v) => v.heap_bytes(),
            IntStorage::BitPacked { words, .. } => words.heap_bytes(),
            IntStorage::RunLength { values, ends } => values.len() * T::BYTES + ends.len() * 4,
            IntStorage::Delta { anchors, words, .. } => {
                anchors.len() * T::BYTES + words.heap_bytes()
            }
            IntStorage::Exceptions {
                marks,
                ranks,
                values,
                ..
            } => marks.heap_bytes() + ranks.len() * 4 + values.heap_bytes(),
        }
    }

    /// Bytes of the payload addressed through a lazily-resident mapped
    /// segment (zero for fully owned storage) — the file-backed capacity a
    /// column can reach without holding it on the heap.
    pub(crate) fn mapped_bytes(&self) -> usize {
        match self {
            IntStorage::Plain(v) => v.mapped_bytes(),
            IntStorage::BitPacked { words, .. } | IntStorage::Delta { words, .. } => {
                words.mapped_bytes()
            }
            IntStorage::RunLength { .. } => 0,
            IntStorage::Exceptions { marks, values, .. } => {
                marks.mapped_bytes() + values.mapped_bytes()
            }
        }
    }

    /// Selection word of the inclusive range test `lo <= value <= hi` over
    /// the 64-row-aligned frame `base .. base + len` (`len <= 64`): bit `k`
    /// set iff row `base + k` passes. `cursor` is the same opaque ascending
    /// scan state as [`IntStorage::decode_frame`].
    ///
    /// This is the block predicate's value compare, specialized per
    /// encoding so the comparison happens in the cheapest domain:
    ///
    /// * **Plain** — lane compares on the backing slice, no copy.
    /// * **Bit-packed** — the bounds are translated into the
    ///   frame-of-reference delta domain once, then the *raw packed deltas*
    ///   are unpacked and compared directly — no per-row reconstruction of
    ///   the value (`base + delta`) at all.
    /// * **Run-length** — one compare per run overlapping the frame; a run
    ///   covering the whole frame costs a single compare.
    /// * **Delta** — decodes the frame (the prefix sum is inherent) and
    ///   compares lanes.
    /// * **Exceptions** — one compare of `fill` answers every unmarked lane;
    ///   only the frame's exceptions decode and compare, and their verdicts
    ///   move to the marked lanes. A frame without a mark costs one compare.
    ///
    /// Bit-identical to testing `lo <= self.get(base + k) <= hi` per row.
    pub fn range_frame_word(
        &self,
        cursor: &mut usize,
        base: usize,
        len: usize,
        lo: T,
        hi: T,
        buf: &mut [T; BLOCK_ROWS],
    ) -> u64 {
        debug_assert!(base.is_multiple_of(BLOCK_ROWS) && len <= BLOCK_ROWS);
        if hi < lo || len == 0 {
            return 0;
        }
        match self {
            IntStorage::Plain(v) => {
                crate::simd::range_word_incl(&v.hot(base..base + len)[base..base + len], lo, hi)
            }
            IntStorage::BitPacked {
                base: b,
                step,
                width,
                words,
                ..
            } => {
                let width = *width as usize;
                if width == 0 {
                    return if lo <= *b && *b <= hi {
                        crate::bitmap::span_mask(0, len)
                    } else {
                        0
                    };
                }
                if hi < *b {
                    return 0;
                }
                // Translate the bounds into the packed-delta domain: value
                // is `b + d·step` with `d < 2^width`, so `lo <= value <= hi`
                // iff `⌈(lo − b)/step⌉ <= d <= ⌊(hi − b)/step⌋` (no `div`
                // at step 1).
                let per_step = |o: u64, round_up: bool| match *step {
                    1 => o,
                    s if round_up => o.div_ceil(s),
                    s => o / s,
                };
                let dlo = if lo <= *b {
                    0
                } else {
                    per_step(lo.offset_from(*b), true)
                };
                let top = low_mask(width);
                if dlo > top {
                    return 0;
                }
                let dhi = per_step(hi.offset_from(*b), false).min(top);
                let out = &mut buf[..len];
                let ws = words.hot(word_range(width, base, base + len));
                unpack_span(ws, T::default(), 1, width, base, out);
                crate::simd::range_word_incl(
                    out,
                    T::add_offset(T::default(), dlo),
                    T::add_offset(T::default(), dhi),
                )
            }
            IntStorage::RunLength { .. } => {
                let mut w = 0u64;
                let mut i = base;
                let end = base + len;
                while i < end {
                    let (v, run_end) = self.run_at(cursor, i);
                    let take_end = run_end.min(end);
                    if v >= lo && v <= hi {
                        w |= crate::bitmap::span_mask(i - base, take_end - base);
                    }
                    i = take_end;
                }
                w
            }
            IntStorage::Delta { .. } => {
                let lanes = self.decode_frame(cursor, base, len, buf);
                crate::simd::range_word_incl(lanes, lo, hi)
            }
            IntStorage::Exceptions {
                fill,
                len: rows,
                marks,
                ranks,
                values,
            } => {
                let w = base / BLOCK_ROWS;
                let (rank, word) = exception_word(marks, ranks, values.len(), *rows, cursor, w);
                // A caller may ask for fewer rows than the frame holds.
                let mark = word & crate::bitmap::span_mask(0, len);
                let unmarked = if lo <= *fill && *fill <= hi {
                    crate::bitmap::span_mask(0, len) & !mark
                } else {
                    0
                };
                if mark == 0 {
                    return unmarked;
                }
                let lanes = &mut buf[..mark.count_ones() as usize];
                values.decode_into(rank, lanes);
                open_gaps(lanes, *fill);
                unmarked | deposit(crate::simd::range_word_incl(lanes, lo, hi), mark)
            }
        }
    }
}

/// Per-64-row-block minimum and maximum of a column's stored values — the
/// zone maps the block filter pipeline (and the range vizketch) consults to
/// skip whole blocks without decoding them: when a block's extremes sit
/// entirely inside a range predicate every row passes, and when they sit
/// entirely outside none can.
///
/// Zone maps are recorded at ingest (column constructors build them right
/// after encoding selection) and fold the *stored* value of every row,
/// including the placeholder values of null rows — so a skip decision is
/// conservative but always sound once combined with the validity word.
/// They are derived acceleration state, excluded from heap-footprint
/// accounting, and they stay in the value domain whatever the encoding
/// (a bit-packed column's stride never reaches them). `hvc` persists them
/// in every part's header, so a mapped open rebuilds them without touching
/// the payload ([`ZoneMap::from_parts`]). On disk an extreme is written in
/// its column's integer domain — the value of an integer column, the code
/// of a dictionary column, the sign-magnitude code of an integral double
/// ([`F64Storage::code_of`]) — as its offset from the part's smallest,
/// divided by the offsets' common divisor; only a raw double column's
/// extremes stay 8-byte doubles. In memory they are the values themselves,
/// whatever the file said.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneMap<T> {
    mins: Vec<T>,
    maxs: Vec<T>,
}

impl<T: Copy> ZoneMap<T> {
    /// Rebuild a zone map from persisted per-block extremes (`hvc`
    /// stores them in the header so a mapped open never has to decode the
    /// payload it exists to skip). `None` when the vectors disagree.
    pub fn from_parts(mins: Vec<T>, maxs: Vec<T>) -> Option<Self> {
        (mins.len() == maxs.len()).then_some(ZoneMap { mins, maxs })
    }

    /// Per-block minima (persistence; index with [`ZoneMap::block`]).
    pub fn mins(&self) -> &[T] {
        &self.mins
    }

    /// Per-block maxima (persistence; index with [`ZoneMap::block`]).
    pub fn maxs(&self) -> &[T] {
        &self.maxs
    }

    /// Number of 64-row blocks covered.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// True when the map covers no blocks (empty column).
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// `(min, max)` of block `b` (rows `b * 64 .. (b + 1) * 64`, clipped to
    /// the column length).
    #[inline]
    pub fn block(&self, b: usize) -> (T, T) {
        (self.mins[b], self.maxs[b])
    }
}

impl<T: PackedInt> ZoneMap<T> {
    /// Fold the per-block extremes of `storage` through the block decoders
    /// (run-length storage folds once per run, not per row).
    pub fn build(storage: &IntStorage<T>) -> Self {
        let n = storage.len();
        let blocks = n.div_ceil(BLOCK_ROWS);
        let mut mins = Vec::with_capacity(blocks);
        let mut maxs = Vec::with_capacity(blocks);
        if let IntStorage::RunLength { .. } = storage {
            let mut cursor = 0usize;
            for b in 0..blocks {
                let start = b * BLOCK_ROWS;
                let end = (start + BLOCK_ROWS).min(n);
                let (mut mn, run_end) = storage.run_at(&mut cursor, start);
                let mut mx = mn;
                let mut i = run_end;
                while i < end {
                    let (v, run_end) = storage.run_at(&mut cursor, i);
                    mn = mn.min(v);
                    mx = mx.max(v);
                    i = run_end;
                }
                mins.push(mn);
                maxs.push(mx);
            }
        } else {
            let mut buf = [T::default(); BLOCK_ROWS];
            let mut cursor = 0usize;
            for b in 0..blocks {
                let start = b * BLOCK_ROWS;
                let len = (n - start).min(BLOCK_ROWS);
                let lanes = storage.decode_frame(&mut cursor, start, len, &mut buf);
                let mut mn = lanes[0];
                let mut mx = lanes[0];
                for &v in &lanes[1..] {
                    mn = mn.min(v);
                    mx = mx.max(v);
                }
                mins.push(mn);
                maxs.push(mx);
            }
        }
        ZoneMap { mins, maxs }
    }
}

impl ZoneMap<f64> {
    /// Per-block extremes of a float column. `NaN` values (null rows keep
    /// their raw storage) are dropped by the `f64::min`/`f64::max` folds; a
    /// block of only `NaN`s records the `(+inf, -inf)` identities, which no
    /// range test matches — sound, because those rows are all null anyway.
    pub fn from_f64(values: &[f64]) -> Self {
        let blocks = values.len().div_ceil(BLOCK_ROWS);
        let mut mins = Vec::with_capacity(blocks);
        let mut maxs = Vec::with_capacity(blocks);
        for chunk in values.chunks(BLOCK_ROWS) {
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            for &v in chunk {
                mn = mn.min(v);
                mx = mx.max(v);
            }
            mins.push(mn);
            maxs.push(mx);
        }
        ZoneMap { mins, maxs }
    }
}

/// The lesser and the greater of two lane values: `Ord` for integers and
/// codes, `f64::min` / `f64::max` for doubles — the folds the zone maps and
/// the range vizketch take, so extremes folded with it are theirs bit for
/// bit (a tie between `0.0` and `−0.0` resolves as it does there).
pub trait Extreme: Copy {
    /// The lesser of `self` and `other`.
    fn least(self, other: Self) -> Self;
    /// The greater of `self` and `other`.
    fn greatest(self, other: Self) -> Self;
}

macro_rules! ord_extreme {
    ($($t:ty),*) => {$(
        impl Extreme for $t {
            #[inline]
            fn least(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline]
            fn greatest(self, other: Self) -> Self {
                self.max(other)
            }
        }
    )*};
}
ord_extreme!(i64, u32, f64);

impl<T: Extreme> ZoneMap<T> {
    /// Every block's extremes folded, first block first: the exact minimum
    /// and maximum of a column without nulls (its zones fold no
    /// placeholder), `None` for an empty column.
    pub fn span(&self) -> Option<(T, T)> {
        let mut blocks = self.mins.iter().zip(&self.maxs);
        let (&min, &max) = blocks.next()?;
        Some(blocks.fold((min, max), |(min, max), (&lo, &hi)| {
            (min.least(lo), max.greatest(hi))
        }))
    }
}

/// Unpack `out.len()` width-`W` values starting at value index `start`
/// into `base + (d << shift)`: the const-generic unpacker body, generalized
/// to every width 1..=63, with the power-of-two part of a common stride
/// folded into the frame-of-reference add. `SHIFTED` is false for the
/// stride-free columns, whose `shift` is 0: they compile without the shift.
///
/// Aligned 64-value groups span exactly `W` whole words, so the body loop
/// reads a `W`-word window with compile-time-constant shifts (the straddle
/// branch folds away for widths dividing 64). Produces bit-identical values
/// to the per-value [`packed_at`] reference at every offset.
#[inline(always)]
fn unpack_span_body<T: PackedInt, const W: usize, const SHIFTED: bool>(
    words: &[u64],
    base: T,
    shift: u32,
    start: usize,
    out: &mut [T],
) {
    debug_assert!((1..64).contains(&W) && shift < 64 && (SHIFTED || shift == 0));
    let shift = if SHIFTED { shift } else { 0 };
    let mask = low_mask(W);
    let mut i = start;
    let mut o = 0usize;
    // Head: reach a 64-value (W-word) group boundary.
    while o < out.len() && !i.is_multiple_of(64) {
        out[o] = T::add_offset(base, packed_at(words, W, i) << shift);
        i += 1;
        o += 1;
    }
    // Body: whole 64-value groups from W whole words, fixed shifts.
    while o + 64 <= out.len() {
        let grp = &words[i / 64 * W..i / 64 * W + W];
        for k in 0..64 {
            let bit = k * W;
            let wi = bit >> 6;
            let off = bit & 63;
            let mut d = grp[wi] >> off;
            if off + W > 64 {
                d |= grp[wi + 1] << (64 - off);
            }
            out[o + k] = T::add_offset(base, (d & mask) << shift);
        }
        i += 64;
        o += 64;
    }
    // Tail.
    while o < out.len() {
        out[o] = T::add_offset(base, packed_at(words, W, i) << shift);
        i += 1;
        o += 1;
    }
}

/// The same unpack body compiled under wider vector ISAs for the
/// runtime-dispatched `simd` fast path; bit-identical output by
/// construction (same source, integer ops only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn unpack_span_avx2<T: PackedInt, const W: usize, const SHIFTED: bool>(
    words: &[u64],
    base: T,
    shift: u32,
    start: usize,
    out: &mut [T],
) {
    unpack_span_body::<T, W, SHIFTED>(words, base, shift, start, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
fn unpack_span_avx512<T: PackedInt, const W: usize, const SHIFTED: bool>(
    words: &[u64],
    base: T,
    shift: u32,
    start: usize,
    out: &mut [T],
) {
    unpack_span_body::<T, W, SHIFTED>(words, base, shift, start, out);
}

/// Byte-gather unpack for widths ≤ 25 on AVX-512 + VBMI: at 16-value
/// granularity the packed stream is byte-exact (16·W bits = 2·W bytes), so
/// one `vpermb` gathers each value's 4-byte window into a `u32` lane, a
/// per-lane variable shift (`vpsrlvd`) drops the sub-byte offset, and a
/// mask isolates the W value bits — 16 values in ~6 vector ops, for *any*
/// width, straddling or not. The per-value windows never exceed 32 bits
/// because `(j·W) % 8 + W ≤ 7 + 25 = 32`.
///
/// Bit-identical to [`unpack_span_body`] (pinned by the per-width tests
/// and the simd equivalence proptests); loads near the end of the word
/// stream are mask-suppressed, never out of bounds.
#[cfg(target_arch = "x86_64")]
mod vbmi {
    use super::{low_mask, packed_at, PackedInt};
    use std::arch::x86_64::*;

    /// Per-16-value tables: value `j`'s window starts at byte `(j*W)/8`
    /// (gathered as 4 consecutive bytes into lane `j`) with a residual
    /// shift of `(j*W) % 8` bits.
    const fn tables<const W: usize>() -> ([u8; 64], [u32; 16]) {
        let mut idx = [0u8; 64];
        let mut sh = [0u32; 16];
        let mut j = 0;
        while j < 16 {
            let bit = j * W;
            sh[j] = (bit % 8) as u32;
            let mut b = 0;
            while b < 4 {
                idx[4 * j + b] = (bit / 8 + b) as u8;
                b += 1;
            }
            j += 1;
        }
        (idx, sh)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
    pub(super) fn unpack_span_vbmi<T: PackedInt, const W: usize, const SHIFTED: bool>(
        words: &[u64],
        base: T,
        shift: u32,
        start: usize,
        out: &mut [T],
    ) {
        debug_assert!((1..=25).contains(&W) && shift < 64 && (SHIFTED || shift == 0));
        let shift = if SHIFTED { shift } else { 0 };
        let (idx, sh) = const { tables::<W>() };
        // Safety: every intrinsic below is gated by this function's target
        // features; loads are masked to the words slice.
        unsafe {
            let idxv = _mm512_loadu_si512(idx.as_ptr() as *const _);
            let shv = _mm512_loadu_si512(sh.as_ptr() as *const _);
            let maskv = _mm512_set1_epi32(low_mask(W) as i32);
            // The stride's power of two, one uniform shift per lane. A
            // 32-bit lane shifted by 32 or more is 0, which is the low half
            // of the scalar `u64` shift the lane stands for.
            let stride = _mm_cvtsi32_si128(shift as i32);
            let bytes = words.as_ptr() as *const u8;
            let nbytes = words.len() * 8;
            let mut i = start;
            let mut o = 0usize;
            // Head: reach 16-value (2·W-byte) alignment.
            while o < out.len() && !i.is_multiple_of(16) {
                out[o] = T::add_offset(base, packed_at(words, W, i) << shift);
                i += 1;
                o += 1;
            }
            while o + 16 <= out.len() {
                let byte_off = i * W / 8;
                let remain = nbytes - byte_off;
                let window = if remain >= 64 {
                    _mm512_loadu_si512(bytes.add(byte_off) as *const _)
                } else {
                    let m: u64 = (1u64 << remain) - 1;
                    _mm512_maskz_loadu_epi8(m, bytes.add(byte_off) as *const _)
                };
                let gathered = _mm512_permutexvar_epi8(idxv, window);
                let shifted = _mm512_srlv_epi32(gathered, shv);
                let masked = _mm512_and_si512(shifted, maskv);
                // Apply the frame of reference and store while still in
                // registers. `PackedInt` is sealed, so `BYTES` identifies
                // the lane type exactly; wrapping vector adds match
                // `add_offset`'s wrapping semantics bit for bit.
                let base_bits = base.offset_from(T::default());
                if T::BYTES == 8 {
                    let basev = _mm512_set1_epi64(base_bits as i64);
                    let lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(masked));
                    let hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(masked));
                    let (lo, hi) = if SHIFTED {
                        (_mm512_sll_epi64(lo, stride), _mm512_sll_epi64(hi, stride))
                    } else {
                        (lo, hi)
                    };
                    let p = out.as_mut_ptr().add(o) as *mut __m512i;
                    _mm512_storeu_si512(p, _mm512_add_epi64(lo, basev));
                    _mm512_storeu_si512(p.add(1), _mm512_add_epi64(hi, basev));
                } else {
                    let basev = _mm512_set1_epi32(base_bits as u32 as i32);
                    let masked = if SHIFTED {
                        _mm512_sll_epi32(masked, stride)
                    } else {
                        masked
                    };
                    _mm512_storeu_si512(
                        out.as_mut_ptr().add(o) as *mut __m512i,
                        _mm512_add_epi32(masked, basev),
                    );
                }
                i += 16;
                o += 16;
            }
            // Tail.
            while o < out.len() {
                out[o] = T::add_offset(base, packed_at(words, W, i) << shift);
                i += 1;
                o += 1;
            }
        }
    }
}

/// Turn one frame of unpacked deltas into values: `out[k] = anchor +
/// out[0] + .. + out[k]` in the wrapping offset domain. The scalar
/// reference body; the lane-parallel variant below must stay bit-identical
/// (wrapping integer adds are associative, so regrouping is exact).
#[inline]
fn prefix_frame_body<T: PackedInt>(anchor: T, out: &mut [T]) {
    let mut v = anchor;
    for slot in out.iter_mut() {
        v = T::add_offset(v, slot.offset_from(T::default()));
        *slot = v;
    }
}

/// 4-lane Hillis–Steele prefix sum with a running carry for 64-bit lanes
/// (the sorted/id `I64Storage::Delta` hot path); 32-bit code lanes fall
/// back to the scalar body, whose dependency chain is short enough at
/// width 4.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn prefix_frame_avx2<T: PackedInt>(anchor: T, out: &mut [T]) {
    use std::arch::x86_64::*;
    if T::BYTES != 8 {
        prefix_frame_body(anchor, out);
        return;
    }
    // Lanes already hold the raw delta bit patterns (`add_offset` from
    // default is the identity embedding), so the whole computation runs on
    // u64 bits; wrapping vector adds match `add_offset` bit for bit.
    // Safety: intrinsics gated by this function's target features; loads
    // and stores stay inside `out`.
    unsafe {
        let mut carry = _mm256_set1_epi64x(anchor.offset_from(T::default()) as i64);
        let n = out.len();
        let mut o = 0usize;
        while o + 4 <= n {
            let ptr = out.as_mut_ptr().add(o) as *mut __m256i;
            let mut x = _mm256_loadu_si256(ptr);
            // In-vector prefix: within each 128-bit half, then carry the
            // low half's total into the high half.
            x = _mm256_add_epi64(x, _mm256_slli_si256::<8>(x));
            let lo_sum = _mm256_permute4x64_epi64::<0b01_01_01_01>(x);
            let cross = _mm256_blend_epi32::<0b1111_0000>(_mm256_setzero_si256(), lo_sum);
            x = _mm256_add_epi64(x, cross);
            x = _mm256_add_epi64(x, carry);
            carry = _mm256_permute4x64_epi64::<0b11_11_11_11>(x);
            _mm256_storeu_si256(ptr, x);
            o += 4;
        }
        if o < n {
            let v = T::add_offset(T::default(), _mm256_extract_epi64::<0>(carry) as u64);
            prefix_frame_body(v, &mut out[o..]);
        }
    }
}

#[inline]
fn prefix_frame<T: PackedInt>(anchor: T, out: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    match crate::simd::current_tier() {
        crate::simd::Tier::Avx2 | crate::simd::Tier::Avx512 => {
            // SAFETY: both tiers are only reported after runtime detection
            // confirmed at least avx2 — the one feature the callee enables.
            return unsafe { prefix_frame_avx2(anchor, out) };
        }
        crate::simd::Tier::Scalar => {}
    }
    prefix_frame_body(anchor, out);
}

#[inline]
fn unpack_span_w<T: PackedInt, const W: usize, const SHIFTED: bool>(
    words: &[u64],
    base: T,
    shift: u32,
    start: usize,
    out: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    match crate::simd::current_tier() {
        crate::simd::Tier::Avx512 => {
            if W <= 25 && crate::simd::vbmi_available() {
                // SAFETY: guarded by `vbmi_available()` (runtime
                // avx512vbmi detection) on top of the Avx512 tier, which
                // itself implies avx512f/dq/vl/bw were detected.
                return unsafe {
                    vbmi::unpack_span_vbmi::<T, W, SHIFTED>(words, base, shift, start, out)
                };
            }
            // SAFETY: `Tier::Avx512` is only reported after runtime
            // detection confirmed avx512f/dq/vl/bw — the features the
            // callee enables.
            return unsafe { unpack_span_avx512::<T, W, SHIFTED>(words, base, shift, start, out) };
        }
        crate::simd::Tier::Avx2 => {
            // SAFETY: `Tier::Avx2` is only reported after runtime detection
            // confirmed avx2, the one feature the callee enables.
            return unsafe { unpack_span_avx2::<T, W, SHIFTED>(words, base, shift, start, out) };
        }
        crate::simd::Tier::Scalar => {}
    }
    unpack_span_body::<T, W, SHIFTED>(words, base, shift, start, out);
}

/// Width-dispatched unpack of `base + d · step` (wrapping, `step >= 1`):
/// monomorphizes [`unpack_span_body`] for every width so each instantiation
/// sees compile-time shifts. A stride-free column runs the kernels without
/// a shift; otherwise the step's power-of-two part rides in the kernels'
/// add, and an odd part above 1 is the one multiply per value.
#[inline]
fn unpack_span<T: PackedInt>(
    words: &[u64],
    base: T,
    step: u64,
    width: usize,
    start: usize,
    out: &mut [T],
) {
    if step == 1 {
        return unpack_span_at::<T, false>(words, base, 0, width, start, out);
    }
    let shift = step.trailing_zeros();
    let odd = step >> shift;
    let frame = if odd == 1 { base } else { T::default() };
    unpack_span_at::<T, true>(words, frame, shift, width, start, out);
    if odd != 1 {
        for v in out.iter_mut() {
            let scaled = v.offset_from(T::default()).wrapping_mul(odd);
            *v = T::add_offset(base, scaled);
        }
    }
}

#[inline(always)]
fn unpack_span_at<T: PackedInt, const SHIFTED: bool>(
    words: &[u64],
    base: T,
    shift: u32,
    width: usize,
    start: usize,
    out: &mut [T],
) {
    macro_rules! w {
        ($($W:literal)*) => {
            match width {
                $($W => unpack_span_w::<T, $W, SHIFTED>(words, base, shift, start, out),)*
                _ => unreachable!("width {width} out of range"),
            }
        };
    }
    w!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
       17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
       33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
       49 50 51 52 53 54 55 56 57 58 59 60 61 62 63)
}

/// Sign-magnitude code of `v` when it is an integer of magnitude ≤ 2^53
/// (the module docs say why the sign sits in bit 0); `None` for fractions,
/// infinities, NaN and larger magnitudes. Decoded by
/// [`integral_value`](crate::simd::integral_value).
#[inline]
fn integral_code(v: f64) -> Option<i64> {
    // `as` saturates and maps NaN to 0, so the round-trip compare rejects
    // everything that is not an integer `i64` — both zeros compare equal.
    let i = v as i64;
    let magnitude = i.unsigned_abs();
    (i as f64 == v && magnitude <= 1 << 53).then(|| (magnitude << 1 | v.to_bits() >> 63) as i64)
}

/// Storage for a column of doubles: the raw values, or — when every value
/// is an integer of magnitude ≤ 2^53 — their sign-magnitude codes under
/// whichever [`IntStorage`] encoding is cheapest. See the
/// [module docs](self#integral-doubles).
///
/// Implements [`ScanSource<f64>`], so kernels and predicates read either
/// variant through the same 64-row frames; a mapped `Plain` payload faults
/// frame by frame, like mapped integer storage.
#[derive(Debug, Clone, PartialEq)]
pub enum F64Storage {
    /// Raw values.
    Plain(crate::residency::ValueBuf<f64>),
    /// Sign-magnitude codes of integral values.
    Integral(IntStorage<i64>),
}

impl Default for F64Storage {
    fn default() -> Self {
        F64Storage::Plain(crate::residency::ValueBuf::default())
    }
}

impl F64Storage {
    /// Store `values` as integer codes when all of them are integral and
    /// the packed form saves [`IntStorage::encode`]'s 25 %, raw otherwise.
    pub fn encode(values: Vec<f64>) -> Self {
        match Self::codes_of(&values).map(IntStorage::encode) {
            Some(packed) if packed.kind() != EncodingKind::Plain => F64Storage::Integral(packed),
            _ => F64Storage::Plain(values.into()),
        }
    }

    /// The sign-magnitude codes of `values`, for forcing a specific
    /// [`IntStorage`] encoding under [`F64Storage::Integral`]
    /// (encoding-equivalence tests); `None` unless every value is integral.
    pub fn codes_of(values: &[f64]) -> Option<Vec<i64>> {
        values.iter().map(|&v| Self::code_of(v)).collect()
    }

    /// The sign-magnitude code of one value (`−0.0` has its own), `None`
    /// unless it is an integer of magnitude ≤ 2^53 — how `hvc` writes an
    /// `Integral` column's zone extremes.
    pub fn code_of(v: f64) -> Option<i64> {
        integral_code(v)
    }

    /// The value a sign-magnitude code stands for, the inverse of
    /// [`F64Storage::code_of`]; total over every `i64`.
    pub fn value_of(code: i64) -> f64 {
        integral_value(code)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            F64Storage::Plain(v) => v.len(),
            F64Storage::Integral(codes) => codes.len(),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical encoding: [`EncodingKind::Plain`] for raw doubles,
    /// the code storage's kind otherwise.
    pub fn kind(&self) -> EncodingKind {
        match self {
            F64Storage::Plain(_) => EncodingKind::Plain,
            F64Storage::Integral(codes) => codes.kind(),
        }
    }

    /// Value at row `i` (same costs as [`IntStorage::get`]).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            F64Storage::Plain(v) => v.hot(i..i + 1)[i],
            F64Storage::Integral(codes) => integral_value(codes.get(i)),
        }
    }

    /// Decode rows `start..end` into a fresh vector (partition slicing).
    pub fn decode_range(&self, start: usize, end: usize) -> Vec<f64> {
        match self {
            F64Storage::Plain(v) => v.hot(start..end)[start..end].to_vec(),
            F64Storage::Integral(codes) => {
                let mut out = vec![0.0; end - start];
                let mut scratch = [0i64; BLOCK_ROWS];
                for (k, chunk) in out.chunks_mut(BLOCK_ROWS).enumerate() {
                    let lanes = &mut scratch[..chunk.len()];
                    codes.decode_into(start + k * BLOCK_ROWS, lanes);
                    crate::simd::integral_lanes(lanes, chunk);
                }
                out
            }
        }
    }

    /// Decode every row (tests, format conversions).
    pub fn to_vec(&self) -> Vec<f64> {
        self.decode_range(0, self.len())
    }

    /// Heap bytes of the stored payload (mapped payloads count zero).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            F64Storage::Plain(v) => v.heap_bytes(),
            F64Storage::Integral(codes) => codes.heap_bytes(),
        }
    }

    /// File-backed payload bytes (zero when owned).
    pub(crate) fn mapped_bytes(&self) -> usize {
        match self {
            F64Storage::Plain(v) => v.mapped_bytes(),
            F64Storage::Integral(codes) => codes.mapped_bytes(),
        }
    }
}

impl ScanSource<f64> for F64Storage {
    #[inline]
    fn decode_frame<'a>(
        &'a self,
        cursor: &mut usize,
        base: usize,
        len: usize,
        buf: &'a mut [f64; BLOCK_ROWS],
    ) -> &'a [f64] {
        match self {
            F64Storage::Plain(v) => &v.hot(base..base + len)[base..base + len],
            F64Storage::Integral(codes) => {
                let mut scratch = [0i64; BLOCK_ROWS];
                let lanes = codes.decode_frame(cursor, base, len, &mut scratch);
                crate::simd::integral_lanes(lanes, buf);
                &buf[..len]
            }
        }
    }
    #[inline]
    fn index_run(&self, cursor: &mut usize, i: usize) -> (f64, usize) {
        match self {
            F64Storage::Plain(_) => (self.get(i), i + 1),
            F64Storage::Integral(codes) => {
                let (code, end) = codes.run_at(cursor, i);
                (integral_value(code), end)
            }
        }
    }
}

/// Storage for `i64` column values.
pub type I64Storage = IntStorage<i64>;
/// Storage for `u32` dictionary codes.
pub type CodeStorage = IntStorage<u32>;

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rows mostly of `fill`: a tenth of the rows differ, except that
    /// every seventh frame differs throughout and another holds only fill.
    fn sparse(n: usize, fill: i64) -> Vec<i64> {
        (0..n as i64)
            .map(|i| match (i / 64) % 7 {
                2 => (i * 7919) % 257 - 100,
                4 => fill,
                _ if (i * 7919) % 10 == 3 => (i * 31) % 257 - 100,
                _ => fill,
            })
            .collect()
    }

    fn roundtrip(values: Vec<i64>) {
        for s in [
            IntStorage::plain_of(values.clone()),
            IntStorage::encode(values.clone()),
        ]
        .into_iter()
        .chain(IntStorage::bit_packed_of(&values))
        .chain(IntStorage::run_length_of(&values))
        .chain(IntStorage::delta_of(&values))
        .chain(IntStorage::exceptions_of(&values))
        {
            assert_eq!(s.len(), values.len(), "{:?}", s.kind());
            assert_eq!(s.to_vec(), values, "{:?}", s.kind());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(s.get(i), v, "{:?} row {i}", s.kind());
            }
        }
    }

    #[test]
    fn all_encodings_round_trip() {
        roundtrip(vec![]);
        roundtrip(vec![42]);
        roundtrip(vec![7; 1000]);
        roundtrip((0..500).collect());
        roundtrip((0..500).map(|i| i / 37).collect());
        roundtrip((0..500).map(|i| (i * 7919) % 101 - 50).collect());
        roundtrip(vec![i64::MIN, 0, i64::MAX, -1, 1]);
        roundtrip(sparse(9_000, 5));
    }

    #[test]
    fn extreme_range_cannot_bit_pack() {
        assert!(IntStorage::bit_packed_of(&[i64::MIN, i64::MAX]).is_none());
        // But encode falls back gracefully.
        let s = IntStorage::encode(vec![i64::MIN, i64::MAX, 0, 17]);
        assert_eq!(s.to_vec(), vec![i64::MIN, i64::MAX, 0, 17]);
    }

    #[test]
    fn selection_prefers_run_length_on_sorted_low_cardinality() {
        let values: Vec<i64> = (0..10_000).map(|i| i / 100).collect();
        let s = IntStorage::encode(values.clone());
        assert_eq!(s.kind(), EncodingKind::RunLength);
        assert!(s.heap_bytes() * 4 <= values.len() * 8);
    }

    #[test]
    fn selection_prefers_bit_packing_on_small_range() {
        let values: Vec<i64> = (0..10_000).map(|i| (i * 7919) % 4096).collect();
        let s = IntStorage::encode(values.clone());
        assert_eq!(s.kind(), EncodingKind::BitPacked);
        assert!(s.heap_bytes() * 4 <= values.len() * 8);
        assert_eq!(s.to_vec(), values);
    }

    #[test]
    fn selection_prefers_delta_on_sorted_unique() {
        // Sequential ids: runs don't help, the value range needs ~17 bits,
        // but adjacent deltas are all 1 — delta wins by a wide margin.
        let values: Vec<i64> = (0..100_000).collect();
        let s = IntStorage::encode(values.clone());
        assert_eq!(s.kind(), EncodingKind::Delta);
        assert!(
            s.heap_bytes() * 10 <= values.len() * 8,
            "{} bytes for {} sequential rows",
            s.heap_bytes(),
            values.len()
        );
        assert_eq!(s.to_vec(), values);
        // Timestamps with jitter still delta-code.
        let stamps: Vec<i64> = (0..50_000)
            .map(|i: i64| 1_700_000_000_000 + i * 250 + (i * 7919) % 137)
            .collect();
        let s = IntStorage::encode(stamps.clone());
        assert_eq!(s.kind(), EncodingKind::Delta);
        assert_eq!(s.to_vec(), stamps);
    }

    #[test]
    fn selection_keeps_high_entropy_plain() {
        // Values span nearly the full 64-bit range with no run structure.
        let values: Vec<i64> = (0..1000)
            .map(|i: i64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64))
            .collect();
        let s = IntStorage::encode(values);
        assert_eq!(s.kind(), EncodingKind::Plain);
    }

    #[test]
    fn constant_column_packs_to_zero_width() {
        let s = IntStorage::encode(vec![99i64; 4096]);
        assert_eq!(s.get(4095), 99);
        assert!(s.heap_bytes() <= 64, "constant column stays tiny: {s:?}");
    }

    #[test]
    fn decode_into_arbitrary_offsets() {
        let values: Vec<i64> = (0..300).map(|i| (i % 23) * 3 - 11).collect();
        let sorted: Vec<i64> = (0..300).map(|i| i * 7 + (i % 7)).collect();
        for s in [
            IntStorage::bit_packed_of(&values).unwrap(),
            IntStorage::run_length_of(&values).unwrap(),
            IntStorage::delta_of(&sorted).unwrap(),
            IntStorage::exceptions_of(&values).unwrap(),
        ] {
            let reference = s.to_vec();
            let mut buf = [0i64; 64];
            for start in [0usize, 1, 63, 64, 65, 170, 236] {
                let n = 64.min(300 - start);
                s.decode_into(start, &mut buf[..n]);
                assert_eq!(&buf[..n], &reference[start..start + n], "start {start}");
            }
        }
    }

    #[test]
    fn per_width_fast_paths_match_generic_decode() {
        // Exercise a spread of widths (dividing 64, straddling, prime) at
        // many offsets and lengths; the unpackers must be bit-identical to
        // the per-value shift/mask reference.
        for width in [1usize, 2, 4, 5, 8, 12, 13, 16, 21, 31, 33, 47, 63] {
            let top = if width >= 63 {
                i64::MAX
            } else {
                (1i64 << width) - 1
            };
            let values: Vec<i64> = (0..700)
                .map(|i: i64| ((i.wrapping_mul(0x9E37_79B9) as u64) % (top as u64 + 1)) as i64)
                .collect();
            let s = IntStorage::bit_packed_of(&values).unwrap();
            if let IntStorage::BitPacked { width: w, .. } = &s {
                assert!(
                    (*w as usize) <= width,
                    "width {w} exceeds requested {width}"
                );
            }
            let mut buf = vec![0i64; 700];
            for start in [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 321, 699] {
                for len in [0usize, 1, 2, 15, 16, 17, 63, 64, 128, 130] {
                    let len = len.min(700 - start);
                    s.decode_into(start, &mut buf[..len]);
                    assert_eq!(
                        &buf[..len],
                        &values[start..start + len],
                        "width {width} start {start} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_width_fast_paths_cover_all_specializations() {
        // bit_packed_of derives width from the value range; pin exact widths
        // by constructing ranges that need them.
        for width in [1u32, 2, 4, 8, 12, 16, 24, 33, 48] {
            let top = (1i64 << width) - 1;
            let values: Vec<i64> = (0..300).map(|i| [0, top, 1, top - 1][i % 4]).collect();
            let s = IntStorage::bit_packed_of(&values).unwrap();
            match &s {
                IntStorage::BitPacked { width: w, .. } => assert_eq!(*w as u32, width),
                _ => panic!("expected bit-packed"),
            }
            assert_eq!(s.to_vec(), values, "width {width}");
        }
    }

    #[test]
    fn decode_frame_matches_decode_into() {
        let sorted: Vec<i64> = (0..515).map(|i| i * 11 + (i % 11)).collect();
        let mixed: Vec<i64> = (0..515).map(|i| (i * 7919) % 257 - 100).collect();
        let mut all = vec![IntStorage::plain_of(mixed.clone())];
        all.extend(IntStorage::bit_packed_of(&mixed));
        all.extend(IntStorage::run_length_of(&mixed));
        all.extend(IntStorage::delta_of(&sorted));
        all.extend(IntStorage::exceptions_of(&mixed));
        all.extend(IntStorage::exceptions_of(&sparse(515, 0)));
        for s in all {
            let reference = s.to_vec();
            let n = s.len();
            let mut buf = [0i64; 64];
            let mut cursor = 0usize;
            let mut base = 0usize;
            while base < n {
                let len = 64.min(n - base);
                let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
                assert_eq!(lanes, &reference[base..base + len], "{:?} {base}", s.kind());
                base += 64;
            }
        }
    }

    #[test]
    fn run_length_frame_decode_serves_whole_runs() {
        // One run covering many whole frames: the cursor must not re-seek.
        let values: Vec<i64> = std::iter::repeat_n(7i64, 1000)
            .chain(std::iter::repeat_n(9i64, 1000))
            .collect();
        let s = IntStorage::run_length_of(&values).unwrap();
        let mut buf = [0i64; 64];
        let mut cursor = 0usize;
        for base in (0..2000).step_by(64) {
            let len = 64.min(2000 - base);
            let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
            let expect: Vec<i64> = (base..base + len)
                .map(|i| if i < 1000 { 7 } else { 9 })
                .collect();
            assert_eq!(lanes, &expect[..], "frame at {base}");
        }
        // After a full pass the cursor sits on the final run.
        assert_eq!(cursor, 1);
    }

    #[test]
    fn ascending_cursor_matches_get() {
        let values: Vec<i64> = (0..500).map(|i| i / 37).collect();
        let rl = IntStorage::run_length_of(&values).unwrap();
        // Ascending walk with gaps.
        let mut cur = 0usize;
        for i in (0..500).step_by(13) {
            assert_eq!(rl.run_at(&mut cur, i).0, rl.get(i), "row {i}");
        }
        // Backward jump re-seeks correctly.
        assert_eq!(rl.run_at(&mut cur, 3).0, values[3]);
        assert_eq!(rl.run_at(&mut cur, 499).0, values[499]);
        // Non-RL storages ignore the cursor.
        let bp = IntStorage::bit_packed_of(&values).unwrap();
        let mut cur = 0usize;
        for i in [0usize, 400, 12, 499] {
            assert_eq!(bp.run_at(&mut cur, i).0, values[i]);
        }
    }

    #[test]
    fn run_at_reports_run_extents() {
        let values: Vec<i64> = (0..300).map(|i| i / 100).collect();
        let rl = IntStorage::run_length_of(&values).unwrap();
        let mut cur = 0usize;
        assert_eq!(rl.run_at(&mut cur, 0), (0, 100));
        assert_eq!(rl.run_at(&mut cur, 99), (0, 100));
        assert_eq!(rl.run_at(&mut cur, 100), (1, 200));
        assert_eq!(rl.run_at(&mut cur, 250), (2, 300));
        // Other encodings report single-row runs.
        let bp = IntStorage::bit_packed_of(&values).unwrap();
        let mut cur = 0usize;
        assert_eq!(bp.run_at(&mut cur, 5), (0, 6));
    }

    #[test]
    fn code_storage_round_trips() {
        let codes: Vec<u32> = (0..5000).map(|i| (i % 7) as u32).collect();
        let s = CodeStorage::encode(codes.clone());
        assert_eq!(s.kind(), EncodingKind::BitPacked);
        assert_eq!(s.to_vec(), codes);
    }

    #[test]
    fn from_parts_validates() {
        let packed = |step, width, len, words: Vec<u64>| {
            I64Storage::from_bit_packed_buf(0, step, width, len, words.into())
        };
        assert!(packed(1, 64, 10, vec![]).is_none());
        assert!(packed(1, 3, 10, vec![0]).is_some());
        assert!(packed(1, 3, 100, vec![0]).is_none());
        // A step is at least 1, and exactly 1 at width 0 (the canonical
        // constant column); any other step is the file's to choose.
        assert!(packed(0, 3, 10, vec![0]).is_none());
        assert!(packed(1, 0, 10, vec![]).is_some());
        assert!(packed(2, 0, 10, vec![]).is_none());
        assert!(packed(u64::MAX, 3, 10, vec![0]).is_some());
        assert!(I64Storage::from_run_length(vec![1, 2], vec![5, 3]).is_none());
        assert!(I64Storage::from_run_length(vec![1], vec![5, 9]).is_none());
        let s = I64Storage::from_run_length(vec![1, 2], vec![3, 5]).unwrap();
        assert_eq!(s.to_vec(), vec![1, 1, 1, 2, 2]);
        // Delta parts: anchor count and word count must match len/width.
        let delta = |anchors, width, len, words: Vec<u64>| {
            I64Storage::from_delta_buf(anchors, width, len, words.into())
        };
        assert!(delta(vec![0], 64, 10, vec![]).is_none());
        assert!(delta(vec![0], 1, 10, vec![0]).is_some());
        assert!(delta(vec![0, 0], 1, 10, vec![0]).is_none());
        assert!(delta(vec![0], 1, 100, vec![0]).is_none());
        let s = delta(vec![5], 0, 3, vec![]).unwrap();
        assert_eq!(s.to_vec(), vec![5, 5, 5]);
        // Exceptions parts: 4 100 rows are 65 mark words in two rank
        // groups, the second of 4 rows.
        let exceptions = |len, words: usize, ranks: Vec<u32>, count: usize| {
            let values = I64Storage::plain_of(vec![9; count]);
            I64Storage::from_exceptions_buf(0, len, vec![0; words].into(), ranks, values)
        };
        assert!(exceptions(4_100, 65, vec![0, 7], 9).is_some());
        assert!(exceptions(4_100, 65, vec![0, 7], 11).is_some());
        assert!(
            exceptions(4_100, 65, vec![0, 7], 12).is_none(),
            "5 in 4 rows"
        );
        assert!(
            exceptions(4_100, 65, vec![0, 7], 6).is_none(),
            "under the last rank"
        );
        assert!(
            exceptions(4_100, 64, vec![0, 7], 9).is_none(),
            "a word short"
        );
        assert!(exceptions(4_100, 65, vec![0], 9).is_none(), "a rank short");
        assert!(
            exceptions(4_100, 65, vec![1, 7], 9).is_none(),
            "a first rank of 1"
        );
        assert!(
            exceptions(4_100, 65, vec![0, 4_097], 4_097).is_none(),
            "4 097 in 4 096"
        );
        assert!(exceptions(0, 0, vec![], 0).is_some());
        assert!(exceptions(0, 0, vec![], 1).is_none());
        let nested = I64Storage::exceptions_of(&[1, 1, 2]).unwrap();
        let buf = vec![0b100].into();
        assert!(I64Storage::from_exceptions_buf(1, 3, buf, vec![0], nested).is_none());
        // The marks themselves are the heap decode's to check.
        let bad = exceptions(4_100, 65, vec![0, 7], 9).unwrap();
        assert!(!bad.marks_match_ranks());
        let good = I64Storage::exceptions_of(&sparse(4_100, 0)).unwrap();
        assert!(good.marks_match_ranks());
        let IntStorage::Exceptions { ranks, .. } = &good else {
            panic!("exceptions_of built {}", good.kind());
        };
        assert_eq!(ranks.len(), 2);
    }

    #[test]
    fn zone_maps_record_block_extremes() {
        let mixed: Vec<i64> = (0..515).map(|i| (i * 7919) % 257 - 100).collect();
        let sorted: Vec<i64> = (0..515).map(|i| i * 11 + (i % 11)).collect();
        let mut all = vec![
            IntStorage::plain_of(mixed.clone()),
            IntStorage::encode(mixed.clone()),
        ];
        all.extend(IntStorage::bit_packed_of(&mixed));
        all.extend(IntStorage::run_length_of(&mixed));
        all.extend(IntStorage::delta_of(&sorted));
        all.extend(IntStorage::exceptions_of(&sparse(515, -3)));
        for s in all {
            let values = s.to_vec();
            let z = ZoneMap::build(&s);
            assert_eq!(z.len(), values.len().div_ceil(BLOCK_ROWS), "{:?}", s.kind());
            for (b, chunk) in values.chunks(BLOCK_ROWS).enumerate() {
                let mn = *chunk.iter().min().unwrap();
                let mx = *chunk.iter().max().unwrap();
                assert_eq!(z.block(b), (mn, mx), "{:?} block {b}", s.kind());
            }
        }
        assert!(ZoneMap::build(&I64Storage::plain_of(vec![])).is_empty());
    }

    #[test]
    fn f64_zone_maps_ignore_nan() {
        let mut vals: Vec<f64> = (0..130).map(|i| i as f64 * 0.5 - 10.0).collect();
        vals[3] = f64::NAN;
        vals[70] = f64::NAN;
        let z = ZoneMap::from_f64(&vals);
        assert_eq!(z.len(), 3);
        assert_eq!(z.block(0), (-10.0, 21.5));
        assert_eq!(z.block(1), (22.0, 53.5)); // NaN at 70 dropped
        let all_nan = ZoneMap::from_f64(&[f64::NAN; 64]);
        assert_eq!(all_nan.block(0), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn range_frame_word_matches_per_row() {
        let mixed: Vec<i64> = (0..515).map(|i| (i * 7919) % 257 - 100).collect();
        let sorted: Vec<i64> = (0..515).map(|i| i * 3 + (i % 5)).collect();
        let mostly_zero = sparse(515, 0);
        for (values, storages) in [
            (mixed.clone(), {
                let mut v = vec![IntStorage::plain_of(mixed.clone())];
                v.extend(IntStorage::bit_packed_of(&mixed));
                v.extend(IntStorage::run_length_of(&mixed));
                v.extend(IntStorage::exceptions_of(&mixed));
                v
            }),
            (sorted.clone(), {
                let mut v = vec![IntStorage::encode(sorted.clone())];
                v.extend(IntStorage::delta_of(&sorted));
                v
            }),
            // The fill inside, at the edge of and outside each range.
            (mostly_zero.clone(), {
                let mut v = vec![IntStorage::encode(mostly_zero.clone())];
                v.extend(IntStorage::exceptions_of(&mostly_zero));
                v
            }),
        ] {
            let n = values.len();
            for s in storages {
                for (lo, hi) in [
                    (-50i64, 50i64),
                    (0, 0),
                    (0, 90),
                    (-90, 0),
                    (1, 90),
                    (-90, -1),
                    (10, 5),
                    (i64::MIN, i64::MAX),
                    (-1000, -200),
                    (1000, 5000),
                    (-100, 156),
                ] {
                    let mut cursor = 0usize;
                    let mut buf = [0i64; BLOCK_ROWS];
                    let mut base = 0usize;
                    while base < n {
                        let len = BLOCK_ROWS.min(n - base);
                        let w = s.range_frame_word(&mut cursor, base, len, lo, hi, &mut buf);
                        for k in 0..len {
                            let expect = values[base + k] >= lo && values[base + k] <= hi;
                            assert_eq!(
                                w >> k & 1 == 1,
                                expect,
                                "{:?} [{lo},{hi}] row {}",
                                s.kind(),
                                base + k
                            );
                        }
                        assert!(len == 64 || w >> len == 0, "{:?} stray bits", s.kind());
                        base += BLOCK_ROWS;
                    }
                }
            }
        }
        // Width-0 bit-packing (constant column).
        let s = IntStorage::bit_packed_of(&[7i64; 100]).unwrap();
        let mut cursor = 0usize;
        let mut buf = [0i64; BLOCK_ROWS];
        assert_eq!(
            s.range_frame_word(&mut cursor, 0, 64, 0, 10, &mut buf),
            u64::MAX
        );
        assert_eq!(s.range_frame_word(&mut cursor, 0, 64, 8, 10, &mut buf), 0);
    }

    #[test]
    fn delta_prefix_sum_simd_matches_scalar() {
        // The vectorized prefix-sum must reproduce the scalar fold bit for
        // bit, across frame lengths (full 64-row frames and ragged tails)
        // and extreme step values.
        let mut vals: Vec<i64> = Vec::new();
        let mut v: i64 = -1_000_000;
        for i in 0..517 {
            v += (i % 13) * 7 + 1;
            vals.push(v);
        }
        let s = IntStorage::delta_of(&vals).expect("ascending: delta encodes");
        let fast = s.to_vec();
        crate::simd::set_force_scalar(true);
        let slow = s.to_vec();
        crate::simd::set_force_scalar(false);
        assert_eq!(fast, slow);
        assert_eq!(fast, vals);
    }

    /// Every storage that can hold `values` — automatic, forced plain, and
    /// (when all are integral) each forced code encoding.
    fn f64_storages(values: &[f64]) -> Vec<F64Storage> {
        let mut out = vec![
            F64Storage::encode(values.to_vec()),
            F64Storage::Plain(values.to_vec().into()),
        ];
        if let Some(codes) = F64Storage::codes_of(values) {
            out.push(F64Storage::Integral(IntStorage::plain_of(codes.clone())));
            out.extend(IntStorage::bit_packed_of(&codes).map(F64Storage::Integral));
            out.extend(IntStorage::run_length_of(&codes).map(F64Storage::Integral));
            out.extend(IntStorage::delta_of(&codes).map(F64Storage::Integral));
        }
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Bit-exact through every accessor, at every frame incl. the ragged
    /// tail.
    fn f64_roundtrip(values: &[f64]) {
        let want = bits(values);
        for s in f64_storages(values) {
            let kind = s.kind();
            assert_eq!(s.len(), values.len(), "{kind}");
            assert_eq!(bits(&s.to_vec()), want, "{kind} to_vec");
            let mut cursor = 0usize;
            let mut asc = crate::block::BlockCursor::new(&s);
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(s.get(i).to_bits(), w, "{kind} get({i})");
                assert_eq!(asc.value(i).to_bits(), w, "{kind} ascending({i})");
                let (v, end) = s.index_run(&mut cursor, i);
                assert_eq!(v.to_bits(), w, "{kind} run({i})");
                assert!(end > i && want[i..end.min(want.len())].iter().all(|&x| x == w));
            }
            let mut buf = [0.0f64; BLOCK_ROWS];
            let mut cursor = 0usize;
            for base in (0..values.len()).step_by(BLOCK_ROWS) {
                let len = BLOCK_ROWS.min(values.len() - base);
                let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
                assert_eq!(bits(lanes), want[base..base + len], "{kind} frame {base}");
            }
            for start in [0usize, 1, 63, 64, 65, 130] {
                if start < values.len() {
                    let got = s.decode_range(start, values.len());
                    assert_eq!(bits(&got), want[start..], "{kind} range from {start}");
                }
            }
        }
    }

    const TWO_53: f64 = 9_007_199_254_740_992.0;

    #[test]
    fn integral_doubles_round_trip_bit_for_bit() {
        f64_roundtrip(&[]);
        f64_roundtrip(&[-0.0]);
        // Delays: small signed integers, negative zeros, a null's 0.0.
        let delays: Vec<f64> = (0..333)
            .map(|i| match i % 9 {
                0 => -0.0,
                1 => 0.0,
                _ => ((i * 7919) % 400) as f64 - 60.0,
            })
            .collect();
        f64_roundtrip(&delays);
        assert_eq!(F64Storage::encode(delays).kind(), EncodingKind::BitPacked);
        // Mostly-zero and sorted shapes pick the run-length and delta codes.
        let sparse: Vec<f64> = (0..1000).map(|i| f64::from(i / 400 * 15)).collect();
        f64_roundtrip(&sparse);
        assert_eq!(F64Storage::encode(sparse).kind(), EncodingKind::RunLength);
        let sorted: Vec<f64> = (0..1000).map(|i| 1e12 + f64::from(i * 7 + i % 5)).collect();
        f64_roundtrip(&sorted);
        assert_eq!(F64Storage::encode(sorted).kind(), EncodingKind::Delta);
        // The edge of the exactly-representable integers, both signs.
        let edge: Vec<f64> = (0..200)
            .map(|i| [TWO_53, -TWO_53, TWO_53 - 1.0, 1.0 - TWO_53, 0.0, -0.0][i % 6])
            .collect();
        f64_roundtrip(&edge);
        assert!(F64Storage::codes_of(&edge).is_some());
    }

    #[test]
    fn non_integral_doubles_stay_plain_bit_for_bit() {
        let base: Vec<f64> = (0..200).map(|i| f64::from(i % 40)).collect();
        assert_ne!(F64Storage::encode(base.clone()).kind(), EncodingKind::Plain);
        for odd in [
            0.5,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_1234), // NaN with a payload
            TWO_53 + 2.0,
            -(TWO_53 + 2.0),
            1e300,
        ] {
            let mut values = base.clone();
            values[77] = odd;
            assert!(F64Storage::codes_of(&values).is_none(), "{odd}");
            let s = F64Storage::encode(values.clone());
            assert!(matches!(s, F64Storage::Plain(_)), "{odd}");
            f64_roundtrip(&values);
        }
        // Integral but incompressible: the codes would not save 25 %.
        let noisy: Vec<f64> = (0..500u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64)
            .collect();
        assert!(F64Storage::codes_of(&noisy).is_some());
        assert!(matches!(F64Storage::encode(noisy), F64Storage::Plain(_)));
    }

    #[test]
    fn integral_decode_is_total_over_arbitrary_codes() {
        // A damaged file can hold any i64 where a code should be: decode
        // must give some non-NaN double, identically under every codegen.
        let codes: Vec<i64> = (0..300i64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64) >> (i % 60))
            .chain([i64::MIN, i64::MAX, -1, 0, 1])
            .collect();
        let s = F64Storage::Integral(IntStorage::plain_of(codes));
        let fast = s.to_vec();
        crate::simd::set_force_scalar(true);
        let slow = s.to_vec();
        crate::simd::set_force_scalar(false);
        assert_eq!(bits(&fast), bits(&slow));
        assert!(fast.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn delta_of_rejects_descending_i64() {
        assert!(I64Storage::delta_of(&(0..200).rev().collect::<Vec<_>>()).is_none());
        // Descent within the first row of a block is fine (anchored).
        let mut v: Vec<i64> = (0..128).collect();
        v[64] = -1_000_000; // block anchor, no packed delta
        for (i, slot) in v.iter_mut().enumerate().skip(65) {
            *slot = -1_000_000 + i as i64;
        }
        let s = I64Storage::delta_of(&v).unwrap();
        assert_eq!(s.to_vec(), v);
    }

    /// `(step, width)` of a bit-packed storage.
    fn packing<T>(s: &IntStorage<T>) -> (u64, u8) {
        match s {
            IntStorage::BitPacked { step, width, .. } => (*step, *width),
            _ => panic!("expected bit-packed"),
        }
    }

    const DAY_MS: i64 = 86_400_000;

    #[test]
    fn gcd_and_stride_division_match_the_reference() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 12), 12);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(u64::MAX, u64::MAX - 1), 1);
        assert_eq!(gcd(DAY_MS as u64 * 730, DAY_MS as u64 * 3), DAY_MS as u64);
        for step in [1u64, 2, 3, 12, 1000, DAY_MS as u64, 1 << 40, 3 << 40] {
            let stride = Stride::new(step);
            for width in [1usize, 5, 10, 23] {
                if (1u128 << width) * u128::from(step) > 1 << 64 {
                    continue;
                }
                for k in [0u64, 1, 2, 7, (1 << width) - 1, 1 << width] {
                    for off in [0, 1, step / 2 + 1, step - 1] {
                        let Some(o) = k.checked_mul(step).and_then(|o| o.checked_add(off)) else {
                            continue;
                        };
                        let on_grid = o % step == 0 && o / step < 1 << width;
                        let ctx = format!("{o} at step {step}, width {width}");
                        assert_eq!(stride.off_grid(o, width) == 0, on_grid, "{ctx}");
                        if o % step == 0 {
                            assert_eq!(stride.quotient(o), o / step, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn day_granular_dates_pack_at_their_stride() {
        // 730 distinct days of epoch milliseconds, shuffled: 36 bits as
        // offsets, 10 as day numbers.
        let start = 1_420_070_400_000i64;
        let dates: Vec<i64> = (0..20_000i64)
            .map(|i| start + (i * 7919 % 730) * DAY_MS)
            .collect();
        let s = IntStorage::encode(dates.clone());
        assert_eq!(packing(&s), (DAY_MS as u64, 10));
        assert_eq!(s.heap_bytes(), (dates.len() * 10).div_ceil(64) * 8);
        assert_eq!(s.to_vec(), dates);
        assert_eq!(s.get(12_345), dates[12_345]);
        assert_eq!(IntStorage::bit_packed_of(&dates), Some(s));
    }

    #[test]
    fn non_negative_integral_doubles_drop_the_sign_bit() {
        // Sign-magnitude codes of non-negative values are all even.
        let minutes: Vec<f64> = (0..5000).map(|i| f64::from((i * 7919) % 300)).collect();
        let F64Storage::Integral(codes) = F64Storage::encode(minutes.clone()) else {
            panic!("integral minutes stay plain");
        };
        assert_eq!(packing(&codes), (2, 9));
        let with_negatives: Vec<f64> = minutes.iter().map(|m| m - 20.0).collect();
        let F64Storage::Integral(codes) = F64Storage::encode(with_negatives) else {
            panic!("integral delays stay plain");
        };
        assert_eq!(packing(&codes).0, 1, "odd codes share no stride");
    }

    #[test]
    fn columns_without_a_common_factor_pack_as_before() {
        for values in [
            (0..1000i64).map(|i| (i * 7919) % 4096).collect::<Vec<_>>(),
            (0..1000i64).map(|i| (i * 7919) % 257 - 100).collect(),
            vec![7; 100],
            vec![5, 6],
        ] {
            let s = IntStorage::bit_packed_of(&values).unwrap();
            let min = *values.iter().min().unwrap();
            let max = *values.iter().max().unwrap();
            assert_eq!(packing(&s), (1, bits_needed(max.offset_from(min)) as u8));
        }
    }

    #[test]
    fn a_candidate_stride_that_fails_past_the_sample_falls_back() {
        // 100 multiples of 6 around one multiple of 3 that is not: the
        // sampled candidate is 6, the column's stride 3.
        let mut values: Vec<i64> = (0..200).map(|i| (i * 37 % 100) * 6).collect();
        values[150] = 3 * 41;
        let s = IntStorage::bit_packed_of(&values).unwrap();
        assert_eq!(packing(&s), (3, 8));
        assert_eq!(s.to_vec(), values);
        assert_eq!(IntStorage::encode(values.clone()), s);
        // And a candidate that drops to 1 past the sample.
        values[170] = 1;
        assert_eq!(packing(&IntStorage::bit_packed_of(&values).unwrap()).0, 1);
    }

    /// Values on a `step` grid around zero, shuffled, for every step the
    /// stride paths distinguish: 1, powers of two (shift only), odd (the
    /// multiply), mixed, and wide.
    fn strided(step: i64, n: i64) -> Vec<i64> {
        (0..n).map(|i| ((i * 7919) % 97 - 40) * step).collect()
    }

    const STEPS: [i64; 8] = [1, 2, 3, 12, 1000, DAY_MS, 1 << 40, 3 << 50];

    #[test]
    fn strided_decode_is_tier_identical_at_every_offset() {
        for step in STEPS {
            let values = strided(step, 700);
            let s = IntStorage::bit_packed_of(&values).unwrap();
            assert_eq!(packing(&s).0, step as u64);
            let mut buf = vec![0i64; 700];
            for scalar in [false, true] {
                crate::simd::set_force_scalar(scalar);
                for start in [0usize, 1, 15, 16, 17, 63, 64, 65, 321, 699] {
                    for len in [1usize, 15, 16, 17, 64, 130] {
                        let len = len.min(700 - start);
                        s.decode_into(start, &mut buf[..len]);
                        assert_eq!(&buf[..len], &values[start..start + len], "step {step}");
                    }
                }
                let mut cursor = 0;
                let mut frame = [0i64; BLOCK_ROWS];
                for base in (0..700).step_by(BLOCK_ROWS) {
                    let len = BLOCK_ROWS.min(700 - base);
                    let lanes = s.decode_frame(&mut cursor, base, len, &mut frame);
                    assert_eq!(lanes, &values[base..base + len], "step {step} frame {base}");
                }
            }
            crate::simd::set_force_scalar(false);
            // Dictionary-code lanes take the same paths at 32 bits.
            if 96 * step <= i64::from(u32::MAX) {
                let codes: Vec<u32> = values.iter().map(|&v| (v + 40 * step) as u32).collect();
                let s = CodeStorage::bit_packed_of(&codes).unwrap();
                assert_eq!(packing(&s).0, step as u64);
                for scalar in [false, true] {
                    crate::simd::set_force_scalar(scalar);
                    assert_eq!(s.to_vec(), codes, "u32 step {step}");
                }
                crate::simd::set_force_scalar(false);
            }
        }
    }

    #[test]
    fn strided_range_words_match_per_row_with_bounds_off_the_grid() {
        for step in STEPS {
            let values = strided(step, 300);
            let s = IntStorage::bit_packed_of(&values).unwrap();
            for (lo, hi) in [
                (-3 * step, 5 * step),
                (-3 * step + 1, 5 * step - 1),
                (-3 * step - 1, 5 * step + 1),
                (step / 2, step / 2),
                (step + 1, 2 * step - 1),
                (0, 0),
                (i64::MIN, i64::MAX),
                (i64::MIN, -40 * step),
                (56 * step, i64::MAX),
            ] {
                let mut cursor = 0usize;
                let mut buf = [0i64; BLOCK_ROWS];
                for base in (0..300).step_by(BLOCK_ROWS) {
                    let len = BLOCK_ROWS.min(300 - base);
                    let w = s.range_frame_word(&mut cursor, base, len, lo, hi, &mut buf);
                    for k in 0..len {
                        let v = values[base + k];
                        assert_eq!(
                            w >> k & 1 == 1,
                            lo <= v && v <= hi,
                            "step {step} [{lo}, {hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_column_that_is_mostly_one_value_stores_its_exceptions() {
        // A delay column's integer codes: nine rows in ten a null's 0, the
        // rest minutes from 1 to 255 (even codes, packed at step 2).
        let codes: Vec<i64> = (0..65_000)
            .map(|i| {
                if i % 10 == 7 {
                    (1 + i / 10 * 7919 % 255) << 1
                } else {
                    0
                }
            })
            .collect();
        let s = IntStorage::encode(codes.clone());
        let IntStorage::Exceptions { fill, values, .. } = &s else {
            panic!("{} storage", s.kind());
        };
        assert_eq!((*fill, values.kind()), (0, EncodingKind::BitPacked));
        assert_eq!(s.to_vec(), codes);
        // Marks, ranks and 6 500 exceptions at 8 bits, against 8 bits a row.
        assert_eq!(s.heap_bytes(), 1_016 * 8 + 16 * 4 + 813 * 8);
        let packed = IntStorage::bit_packed_of(&codes).unwrap();
        assert_eq!(packed.heap_bytes(), 65_000);
        // Real zeros compress like placeholders: the layout reads no nulls.
        let doubles: Vec<f64> = codes.iter().map(|&c| (c >> 1) as f64).collect();
        assert_eq!(F64Storage::encode(doubles).kind(), EncodingKind::Exceptions);
    }

    #[test]
    fn exceptions_cut_the_fill_out_of_their_range() {
        // Five categories in byte order, the commonest (code 3) on 55 % of
        // the rows, as a log's levels: the other four codes span 0..=4 but
        // pack in two bits, since none of them is 3 — which is also what
        // makes exceptions save their quarter over three bits a row.
        let codes: Vec<u32> = (0..65_000u32)
            .map(|i| match i % 20 {
                0..=10 => 3,
                11..=16 => 0,
                17 | 18 => 4,
                _ => 1 + i / 20 % 2,
            })
            .collect();
        let s = IntStorage::encode(codes.clone());
        let IntStorage::Exceptions { fill, values, .. } = &s else {
            panic!("{} storage", s.kind());
        };
        let IntStorage::BitPacked { width, .. } = **values else {
            panic!("{} exceptions", values.kind());
        };
        assert_eq!((*fill, width), (3, 2));
        assert_eq!(s.to_vec(), codes);
        let mut cursor = 0;
        let word = s.range_frame_word(&mut cursor, 0, 64, 4, 4, &mut [0; 64]);
        assert_eq!(
            word,
            (0..64).filter(|&k| codes[k] == 4).map(|k| 1u64 << k).sum()
        );
    }

    #[test]
    fn exceptions_must_save_a_quarter_over_the_best_other_encoding() {
        // A flag that is mostly 0 packs at one bit a row; marks alone cost
        // that much, so the flag stays bit-packed.
        let flags: Vec<i64> = (0..10_000).map(|i| i64::from(i % 50 == 0)).collect();
        assert_eq!(IntStorage::encode(flags).kind(), EncodingKind::BitPacked);
        // Half the rows one value is no majority.
        let half: Vec<i64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 0 } else { i * 7919 % 256 })
            .collect();
        assert_eq!(IntStorage::encode(half).kind(), EncodingKind::BitPacked);
        // A majority in long runs is cheaper as runs.
        let runs: Vec<i64> = (0..10_000).map(|i| i64::from(i >= 9_000)).collect();
        assert_eq!(IntStorage::encode(runs).kind(), EncodingKind::RunLength);
        // Two-bit values around a fill of 0: marks and two bits for a fifth
        // of the rows save a quarter of two bits a row, for three tenths
        // they do not.
        let two_bits = |marked: i64| -> Vec<i64> {
            (0..65_000)
                .map(|i| if i % 10 < marked { 1 + i % 3 } else { 0 })
                .collect()
        };
        assert_eq!(
            IntStorage::encode(two_bits(2)).kind(),
            EncodingKind::Exceptions
        );
        assert_eq!(
            IntStorage::encode(two_bits(3)).kind(),
            EncodingKind::BitPacked
        );
        assert_eq!(
            IntStorage::encode(vec![3i64; 9_000]).kind(),
            EncodingKind::BitPacked
        );
    }

    #[test]
    fn exception_frames_resume_jump_and_report_fill_runs() {
        // Three rank groups, fill-only stretches longer than a word.
        let n = 9_000;
        let values: Vec<i64> = sparse(n, 5)
            .into_iter()
            .enumerate()
            .map(|(i, v)| if (1_000..3_000).contains(&i) { 5 } else { v })
            .collect();
        let s = IntStorage::exceptions_of(&values).unwrap();
        let frames = n.div_ceil(BLOCK_ROWS);
        let mut buf = [0i64; BLOCK_ROWS];
        // From every frame start with a fresh cursor, and with one carried
        // across a jump of every length.
        for first in 0..frames {
            for cursor in [0, NO_CURSOR] {
                let mut cursor = cursor;
                for f in (first..frames).step_by(1 + first % 67) {
                    let base = f * BLOCK_ROWS;
                    let len = BLOCK_ROWS.min(n - base);
                    let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
                    assert_eq!(lanes, &values[base..base + len], "frame {f} from {first}");
                }
            }
        }
        // Runs: every row of a reported run holds its value, and a stretch
        // of fill rows is one run up to its next mark.
        let mut cursor = 0;
        let mut i = 0;
        while i < n {
            let (v, end) = s.run_at(&mut cursor, i);
            assert!(
                end > i && values[i..end].iter().all(|&x| x == v),
                "run at {i}"
            );
            i = end;
        }
        let next = (3_000..n).find(|&r| values[r] != 5).unwrap();
        assert!(next < 4_096);
        assert_eq!(s.run_at(&mut 0, 1_000), (5, next));
        let mut cursor = 0;
        for i in (0..n).rev().step_by(7) {
            assert_eq!(s.run_at(&mut cursor, i).0, values[i], "row {i}");
        }
    }

    #[test]
    fn exception_range_words_are_tier_identical() {
        let values = sparse(5_000, -7);
        let s = IntStorage::exceptions_of(&values).unwrap();
        let words = |scalar: bool| {
            crate::simd::set_force_scalar(scalar);
            let mut out = Vec::new();
            for (lo, hi) in [(-7, -7), (-50, 50), (-6, 300), (-300, -8)] {
                let mut cursor = 0;
                let mut buf = [0i64; BLOCK_ROWS];
                for base in (0..5_000).step_by(BLOCK_ROWS) {
                    let len = BLOCK_ROWS.min(5_000 - base);
                    out.push(s.range_frame_word(&mut cursor, base, len, lo, hi, &mut buf));
                }
            }
            crate::simd::set_force_scalar(false);
            (out, s.to_vec())
        };
        assert_eq!(words(false), words(true));
    }

    #[test]
    fn deposit_is_pdep() {
        assert_eq!(deposit(0b101, 0b1011_0000), 0b1001_0000);
        assert_eq!(deposit(u64::MAX, 0b1010), 0b1010);
        assert_eq!(deposit(0, u64::MAX), 0);
        assert_eq!(deposit(0x1234_5678, u64::MAX), 0x1234_5678);
    }
}
