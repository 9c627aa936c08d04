//! Chunked columnar scans: batch row selection for vizketch kernels.
//!
//! The per-row scan interface (`MembershipSet::iter` + `Column::get(i) ->
//! Option<T>`) pays a membership probe, a bounds check, and an `Option`
//! branch on *every cell*. That is far from the paper's claim that
//! `summarize` loops run "as fast as the hardware allows" (§5, App. C).
//! This module provides the batch alternative every sketch kernel is built
//! on:
//!
//! * [`ScanChunk`] — a batch of selected rows in one of three shapes:
//!   a dense row range (`Range`), a 64-row bitmap word (`Mask`), or an
//!   explicit sorted index list (`Rows`).
//! * [`MembershipSet::chunks`] — decomposes any membership representation
//!   into chunks, coalescing consecutive all-ones bitmap words into dense
//!   ranges.
//! * [`Selection`] — unifies "scan the whole membership" and "scan these
//!   sampled rows" so kernels have a single streaming/sampled code path.
//!   [`Selection::members_in`] additionally bounds a membership set to a
//!   row-index range, which is how split sub-ranges reuse the same drivers.
//! * [`SplittableSelection`] — the chunk partitioner behind intra-partition
//!   parallelism: it divides any membership representation into balanced,
//!   row-weighted sub-ranges (halving recursively) *without materializing
//!   row ids*, so a work-stealing executor can fan a single partition out
//!   across cores and fold the partial summaries back in range order.
//! * [`scan_values`] / [`scan_rows`] / [`count_missing`] — typed drivers
//!   built on **one block loop** ([`crate::block::scan_blocks`]): every
//!   selection shape decodes into 64-row-aligned [`Block`] frames (value
//!   lanes + selection word + validity word), with one null-word fetch per
//!   frame and a branch-free inner loop whenever a frame is fully live (the
//!   *dense fast path*). Plain storage borrows its lanes zero-copy; packed
//!   storages decode whole frames through the encoding layer's block
//!   decoders. There is no per-variant driver duplication — the `Block`
//!   ABI is the only interface between storage and kernels.
//!
//! Chunks are always emitted in ascending row order and never overlap, so
//! order-sensitive kernels (Misra-Gries, next-K) observe exactly the same
//! row sequence as the per-row reference path — the scan-equivalence
//! property tests in `hillview-sketch` rely on that. A bounded selection
//! emits exactly the chunks of the unbounded one clipped to the range, so
//! concatenating the value streams of adjacent sub-ranges reproduces the
//! whole-partition stream verbatim.

use crate::bitmap::Bitmap;
use crate::block::{scan_blocks, Block, BlockSink, BLOCK_ROWS};
use crate::encoding::{IntStorage, PackedInt};
use crate::membership::MembershipSet;
use crate::predicate::FrameFilter;

/// What a typed scan driver reads values from: either a plain slice (raw
/// column data, hash tables, scratch vectors) or an encoded
/// [`IntStorage`]. The block driver pulls 64-row-aligned frames through
/// [`ScanSource::decode_frame`] — plain sources return a zero-copy
/// sub-slice, packed sources decode into the caller's frame buffer — and
/// serves sparse row lists through [`ScanSource::index_run`].
///
/// `decode_frame` doubles as the pipeline's *residency hook*: a mapped
/// (`hvc`) storage touches only the file chunks covering the requested
/// frame (see [`crate::residency`]), and [`ScanSource::as_plain`] returns
/// `None` for it so no caller binds the whole payload. Since the fused
/// filter path evaluates zone maps and drops all-fail selection words
/// *before* asking for a frame, a zone-skipped block of a mapped column is
/// never faulted in at all.
pub trait ScanSource<T: Copy> {
    /// The contiguous backing slice, when the storage is uncompressed and
    /// fully resident (mapped storage declines, keeping scans
    /// frame-granular so lazy residency is preserved).
    fn as_plain(&self) -> Option<&[T]>;
    /// Random access to row `i` (sparse row lists, sampled scans).
    fn index(&self, i: usize) -> T;
    /// Random access tuned for *ascending* row sequences. `cursor` is
    /// opaque scan-local state (initialize to 0 and reuse across calls of
    /// one scan); run-length storage uses it to resume from the current run
    /// instead of binary-searching per row, making sparse and sampled scans
    /// O(1) amortized. Falling back to [`ScanSource::index`] is always
    /// correct.
    #[inline]
    fn index_ascending(&self, cursor: &mut usize, i: usize) -> T {
        let _ = cursor;
        self.index(i)
    }
    /// Ascending access returning `(value, exclusive end of the run of
    /// rows sharing it)`. Run-length storage reports whole runs so sparse
    /// scans probe once per run; other sources report single-row runs.
    #[inline]
    fn index_run(&self, cursor: &mut usize, i: usize) -> (T, usize) {
        (self.index_ascending(cursor, i), i + 1)
    }
    /// Decode rows `start .. start + out.len()` into `out`, ascending.
    fn decode_into(&self, start: usize, out: &mut [T]);
    /// Decoded lanes of the 64-row-aligned frame `base .. base + len`
    /// (`len <= 64`): zero-copy for plain sources, materialized into `buf`
    /// otherwise. `cursor` is the same ascending state as
    /// [`ScanSource::index_run`]. This is the block ABI's decode entry
    /// point; frames must be requested in ascending order.
    #[inline]
    fn decode_frame<'a>(
        &'a self,
        cursor: &mut usize,
        base: usize,
        len: usize,
        buf: &'a mut [T; BLOCK_ROWS],
    ) -> &'a [T] {
        let _ = cursor;
        self.decode_into(base, &mut buf[..len]);
        &buf[..len]
    }
}

impl<T: Copy> ScanSource<T> for [T] {
    #[inline]
    fn as_plain(&self) -> Option<&[T]> {
        Some(self)
    }
    #[inline]
    fn index(&self, i: usize) -> T {
        self[i]
    }
    #[inline]
    fn decode_into(&self, start: usize, out: &mut [T]) {
        out.copy_from_slice(&self[start..start + out.len()]);
    }
    #[inline]
    fn decode_frame<'a>(
        &'a self,
        _cursor: &mut usize,
        base: usize,
        len: usize,
        _buf: &'a mut [T; BLOCK_ROWS],
    ) -> &'a [T] {
        &self[base..base + len]
    }
}

impl<T: Copy> ScanSource<T> for Vec<T> {
    #[inline]
    fn as_plain(&self) -> Option<&[T]> {
        Some(self)
    }
    #[inline]
    fn index(&self, i: usize) -> T {
        self[i]
    }
    #[inline]
    fn decode_into(&self, start: usize, out: &mut [T]) {
        out.copy_from_slice(&self[start..start + out.len()]);
    }
    #[inline]
    fn decode_frame<'a>(
        &'a self,
        _cursor: &mut usize,
        base: usize,
        len: usize,
        _buf: &'a mut [T; BLOCK_ROWS],
    ) -> &'a [T] {
        &self[base..base + len]
    }
}

impl<T: PackedInt> ScanSource<T> for IntStorage<T> {
    #[inline]
    fn as_plain(&self) -> Option<&[T]> {
        IntStorage::as_plain(self)
    }
    #[inline]
    fn index(&self, i: usize) -> T {
        self.get(i)
    }
    #[inline]
    fn index_ascending(&self, cursor: &mut usize, i: usize) -> T {
        IntStorage::get_ascending(self, cursor, i)
    }
    #[inline]
    fn index_run(&self, cursor: &mut usize, i: usize) -> (T, usize) {
        IntStorage::run_at(self, cursor, i)
    }
    #[inline]
    fn decode_into(&self, start: usize, out: &mut [T]) {
        IntStorage::decode_into(self, start, out);
    }
    #[inline]
    fn decode_frame<'a>(
        &'a self,
        cursor: &mut usize,
        base: usize,
        len: usize,
        buf: &'a mut [T; BLOCK_ROWS],
    ) -> &'a [T] {
        IntStorage::decode_frame(self, cursor, base, len, buf)
    }
}

/// A batch of selected rows, in ascending row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanChunk<'a> {
    /// Every row in `start..end` is selected.
    Range {
        /// First selected row.
        start: usize,
        /// One past the last selected row.
        end: usize,
    },
    /// Selected rows within the 64-row block starting at `base` (which is
    /// always 64-aligned): bit `b` set means row `base + b` is selected.
    /// The word is never zero.
    Mask {
        /// 64-aligned block start.
        base: usize,
        /// Selection bits for rows `base..base + 64`.
        word: u64,
    },
    /// Explicitly listed selected rows, sorted ascending.
    Rows(&'a [u32]),
}

/// Iterator over the [`ScanChunk`]s of a selection.
pub struct ScanChunks<'a> {
    inner: ChunksInner<'a>,
}

enum ChunksInner<'a> {
    Done,
    /// A single dense range, emitted once.
    Range(usize, usize),
    /// Bitmap words still to decompose, clipped to rows `lo..hi`.
    Words {
        words: &'a [u64],
        idx: usize,
        lo: usize,
        hi: usize,
    },
    /// A single explicit row list, emitted once.
    Rows(&'a [u32]),
    /// Fused filtering: parent chunks are decomposed into 64-row selection
    /// words, each word is run through the [`FrameFilter`], and only
    /// non-zero match words are yielded as [`ScanChunk::Mask`].
    Filtered {
        inner: Box<ScanChunks<'a>>,
        filter: &'a core::cell::RefCell<FrameFilter<'a>>,
        pending: FilteredPending<'a>,
    },
}

/// The partially consumed parent chunk of a filtered iterator.
enum FilteredPending<'a> {
    None,
    /// Remaining rows `.0 .. .1` of a parent range chunk.
    Range(usize, usize),
    /// Remaining rows of a parent sparse chunk.
    Rows(&'a [u32]),
}

impl<'a> ScanChunks<'a> {
    fn range(start: usize, end: usize) -> Self {
        ScanChunks {
            inner: if start < end {
                ChunksInner::Range(start, end)
            } else {
                ChunksInner::Done
            },
        }
    }

    fn rows(rows: &'a [u32]) -> Self {
        ScanChunks {
            inner: if rows.is_empty() {
                ChunksInner::Done
            } else {
                ChunksInner::Rows(rows)
            },
        }
    }

    fn bitmap(bitmap: &'a Bitmap) -> Self {
        Self::bitmap_bounded(bitmap, 0, bitmap.len())
    }

    /// The chunks of `bitmap` clipped to rows `lo..hi`: exactly the
    /// unbounded chunk stream with out-of-range rows removed.
    fn bitmap_bounded(bitmap: &'a Bitmap, lo: usize, hi: usize) -> Self {
        let hi = hi.min(bitmap.len());
        ScanChunks {
            inner: if lo >= hi {
                ChunksInner::Done
            } else {
                ChunksInner::Words {
                    words: bitmap.words(),
                    idx: lo / 64,
                    lo,
                    hi,
                }
            },
        }
    }
}

/// The selectable bits of word `idx` for rows clipped to `lo..hi`: the
/// intersection of the word's 64-row span with the bounds. Zero only when
/// the word lies entirely outside the bounds.
#[inline]
fn word_span(idx: usize, lo: usize, hi: usize) -> u64 {
    let base = idx * 64;
    let s = lo.max(base).min(base + 64) - base;
    let e = hi.max(base).min(base + 64) - base;
    if s >= e {
        0
    } else {
        mask_span(s, e)
    }
}

impl<'a> Iterator for ScanChunks<'a> {
    type Item = ScanChunk<'a>;

    fn next(&mut self) -> Option<ScanChunk<'a>> {
        match &mut self.inner {
            ChunksInner::Done => None,
            ChunksInner::Range(start, end) => {
                let chunk = ScanChunk::Range {
                    start: *start,
                    end: *end,
                };
                self.inner = ChunksInner::Done;
                Some(chunk)
            }
            ChunksInner::Rows(rows) => {
                let chunk = ScanChunk::Rows(rows);
                self.inner = ChunksInner::Done;
                Some(chunk)
            }
            ChunksInner::Words { words, idx, lo, hi } => {
                // Skip words with no selected bits in bounds.
                let mut w = 0u64;
                while *idx * 64 < *hi {
                    w = words.get(*idx).copied().unwrap_or(0) & word_span(*idx, *lo, *hi);
                    if w != 0 {
                        break;
                    }
                    *idx += 1;
                }
                if *idx * 64 >= *hi {
                    self.inner = ChunksInner::Done;
                    return None;
                }
                if w == word_span(*idx, *lo, *hi) {
                    // Coalesce a run of fully selected spans into one range.
                    let start = (*idx * 64).max(*lo);
                    let mut j = *idx + 1;
                    while j * 64 < *hi {
                        let span = word_span(j, *lo, *hi);
                        if words.get(j).copied().unwrap_or(0) & span == span && span != 0 {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    let end = (j * 64).min(*hi);
                    *idx = j;
                    Some(ScanChunk::Range { start, end })
                } else {
                    let base = *idx * 64;
                    *idx += 1;
                    Some(ScanChunk::Mask { base, word: w })
                }
            }
            ChunksInner::Filtered {
                inner,
                filter,
                pending,
            } => {
                let mut f = filter.borrow_mut();
                loop {
                    // Produce the next 64-row (base, selection word) pair of
                    // the parent selection.
                    let (base, word) = match pending {
                        FilteredPending::Range(s, e) => {
                            let base = *s & !63;
                            let end = (*e).min(base + 64);
                            let w = mask_span(*s - base, end - base);
                            if end < *e {
                                *s = end;
                            } else {
                                *pending = FilteredPending::None;
                            }
                            (base, w)
                        }
                        FilteredPending::Rows(rows) => {
                            let base = rows[0] as usize & !63;
                            let mut k = 0;
                            let mut w = 0u64;
                            while k < rows.len() && (rows[k] as usize) < base + 64 {
                                w |= 1u64 << (rows[k] as usize - base);
                                k += 1;
                            }
                            if k < rows.len() {
                                *rows = &rows[k..];
                            } else {
                                *pending = FilteredPending::None;
                            }
                            (base, w)
                        }
                        FilteredPending::None => match inner.next() {
                            None => return None,
                            Some(ScanChunk::Range { start, end }) => {
                                *pending = FilteredPending::Range(start, end);
                                continue;
                            }
                            Some(ScanChunk::Rows(rows)) => {
                                if rows.is_empty() {
                                    continue;
                                }
                                *pending = FilteredPending::Rows(rows);
                                continue;
                            }
                            Some(ScanChunk::Mask { base, word }) => (base, word),
                        },
                    };
                    // Words the predicate zeroes out (zone-map skips,
                    // no-match blocks) are dropped here: the kernel never
                    // sees — and never decodes — those blocks.
                    let m = f.eval_word(base, word);
                    if m != 0 {
                        return Some(ScanChunk::Mask { base, word: m });
                    }
                }
            }
        }
    }
}

impl MembershipSet {
    /// Decompose this membership set into [`ScanChunk`]s: `Full` becomes one
    /// dense range, `Dense` becomes bitmap words with all-ones runs
    /// coalesced into ranges, `Sparse` becomes one explicit row list.
    pub fn chunks(&self) -> ScanChunks<'_> {
        match self {
            MembershipSet::Full(n) => ScanChunks::range(0, *n),
            MembershipSet::Dense(b) => ScanChunks::bitmap(b),
            MembershipSet::Sparse { rows, .. } => ScanChunks::rows(rows),
        }
    }
}

/// The sub-slice of a sorted row list whose rows lie in `lo..hi` — two
/// binary searches, no copying. Used to clip pre-drawn samples (and sparse
/// memberships) to a split sub-range.
pub fn rows_in_range(rows: &[u32], lo: usize, hi: usize) -> &[u32] {
    let a = rows.partition_point(|&r| (r as usize) < lo);
    let b = rows.partition_point(|&r| (r as usize) < hi);
    &rows[a..b]
}

/// What a kernel scans: an entire membership set (streaming), a row-bounded
/// slice of one (split sub-ranges), or an explicit sampled row list. Gives
/// kernels one code path for all three.
#[derive(Debug, Clone, Copy)]
pub enum Selection<'a> {
    /// Every row of the membership set.
    Members(&'a MembershipSet),
    /// The rows of the membership set whose index lies in `start..end`.
    /// Build through [`Selection::members_in`], which normalizes the cheap
    /// cases (full bounds, sparse sets) to the other variants.
    MemberRange {
        /// The underlying membership set.
        members: &'a MembershipSet,
        /// First row index of the bounds.
        start: usize,
        /// One past the last row index of the bounds.
        end: usize,
    },
    /// A pre-drawn ascending row sample (e.g. from
    /// [`MembershipSet::sample`]).
    Rows(&'a [u32]),
    /// A **fused** selection: the rows of `base` that additionally pass a
    /// compiled predicate, evaluated lazily inside the chunk iterator.
    ///
    /// Each parent chunk is decomposed into 64-row selection words, the
    /// [`FrameFilter`] turns every word into its match word, and only
    /// non-zero match words are yielded (as [`ScanChunk::Mask`]) — so a
    /// block the predicate rejects (e.g. by zone map) is never decoded by
    /// the consuming kernel at all. This is what compiles a
    /// `(predicate, sketch)` pair into a single memory pass: no
    /// intermediate membership set, no second decode.
    ///
    /// Single-pass: `chunks()` may be called once; `count()` panics — read
    /// [`FrameFilter::matched`] after the scan instead.
    Filtered {
        /// The parent selection being filtered.
        base: &'a Selection<'a>,
        /// The compiled filter (shared mutable state: decode cursors and
        /// the matched-row counter advance as the scan proceeds).
        filter: &'a core::cell::RefCell<FrameFilter<'a>>,
    },
}

impl<'a> Selection<'a> {
    /// The rows of `members` with index in `lo..hi` (clamped to the
    /// universe). Scanning `members_in` pieces over a partition of the
    /// universe yields exactly the row stream of `Members`, in order —
    /// that equivalence is what makes split execution safe.
    pub fn members_in(members: &'a MembershipSet, lo: usize, hi: usize) -> Selection<'a> {
        let hi = hi.min(members.universe());
        let lo = lo.min(hi);
        if lo == 0 && hi == members.universe() {
            return Selection::Members(members);
        }
        match members {
            // Sparse sets clip to a sub-slice of the row list for free.
            MembershipSet::Sparse { rows, .. } => Selection::Rows(rows_in_range(rows, lo, hi)),
            _ => Selection::MemberRange {
                members,
                start: lo,
                end: hi,
            },
        }
    }

    /// Number of selected rows.
    ///
    /// Panics on [`Selection::Filtered`]: the filtered row count only
    /// exists after the (single) scan — read [`FrameFilter::matched`] then.
    pub fn count(&self) -> usize {
        match self {
            Selection::Members(m) => m.len(),
            Selection::MemberRange {
                members,
                start,
                end,
            } => members.count_range(*start, *end),
            Selection::Rows(r) => r.len(),
            Selection::Filtered { .. } => panic!(
                "Selection::Filtered is single-pass: its row count is only known after \
                 the scan — read FrameFilter::matched() instead of count()"
            ),
        }
    }

    /// The selection as chunks, ascending.
    pub fn chunks(&self) -> ScanChunks<'a> {
        match self {
            Selection::Members(m) => m.chunks(),
            Selection::MemberRange {
                members,
                start,
                end,
            } => match members {
                MembershipSet::Full(n) => ScanChunks::range(*start, (*end).min(*n)),
                MembershipSet::Dense(b) => ScanChunks::bitmap_bounded(b, *start, *end),
                MembershipSet::Sparse { rows, .. } => {
                    ScanChunks::rows(rows_in_range(rows, *start, *end))
                }
            },
            Selection::Rows(r) => ScanChunks::rows(r),
            Selection::Filtered { base, filter } => {
                filter.borrow_mut().begin();
                ScanChunks {
                    inner: ChunksInner::Filtered {
                        inner: Box::new(base.chunks()),
                        filter,
                        pending: FilteredPending::None,
                    },
                }
            }
        }
    }
}

/// A row-bounded view of a membership set that an executor can divide into
/// balanced, row-weighted halves — the chunk partitioner for
/// intra-partition parallelism.
///
/// Splitting never materializes row ids: full sets halve their range,
/// dense sets cut at a popcount-balanced 64-row word boundary, and sparse
/// sets halve their row slice by index. Weights are conserved exactly
/// (`left.weight() + right.weight() == self.weight()`), so an executor can
/// detect completion by summing reported weights, and the leaf set produced
/// by recursive splitting is a pure function of (membership, grain) —
/// independent of thread count or stealing order, which is what pins
/// parallel results bit-identical to the serial split fold.
#[derive(Debug, Clone, Copy)]
pub struct SplittableSelection<'a> {
    members: &'a MembershipSet,
    start: usize,
    end: usize,
    weight: usize,
}

impl<'a> SplittableSelection<'a> {
    /// The whole membership set as one splittable piece.
    pub fn new(members: &'a MembershipSet) -> Self {
        SplittableSelection {
            members,
            start: 0,
            end: members.universe(),
            weight: members.len(),
        }
    }

    /// Rebuild a piece from bounds plus an already-known weight (executors
    /// ship `(start, end, weight)` across task boundaries).
    pub fn with_weight(
        members: &'a MembershipSet,
        start: usize,
        end: usize,
        weight: usize,
    ) -> Self {
        debug_assert_eq!(weight, members.count_range(start, end));
        SplittableSelection {
            members,
            start,
            end,
            weight,
        }
    }

    /// The universe row bounds `[start, end)` of this piece.
    pub fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// Selected rows within the bounds.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The piece as a driver [`Selection`].
    pub fn selection(&self) -> Selection<'a> {
        Selection::members_in(self.members, self.start, self.end)
    }

    /// Split into two pieces of roughly equal weight. Returns `None` when
    /// the piece cannot be split further (weight < 2, or — for dense sets —
    /// all weight concentrated in a single 64-row word).
    pub fn split(&self) -> Option<(Self, Self)> {
        if self.weight < 2 {
            return None;
        }
        let (mid, left_weight) = match self.members {
            MembershipSet::Full(_) => {
                let mid = self.start + (self.end - self.start) / 2;
                (mid, mid - self.start)
            }
            MembershipSet::Sparse { rows, .. } => {
                let a = rows.partition_point(|&r| (r as usize) < self.start);
                let m = a + self.weight / 2;
                (rows[m] as usize, self.weight / 2)
            }
            MembershipSet::Dense(b) => {
                // Walk words accumulating popcount; cut at the first word
                // boundary at or past half the weight that leaves both
                // sides non-empty.
                let target = (self.weight / 2).max(1);
                let words = b.words();
                let mut acc = 0usize;
                let mut w = self.start / 64;
                let mut cut = None;
                while w * 64 < self.end {
                    let span = word_span(w, self.start, self.end.min(b.len()));
                    let prev = acc;
                    acc += (words.get(w).copied().unwrap_or(0) & span).count_ones() as usize;
                    if acc >= target {
                        let after = ((w + 1) * 64).min(self.end);
                        if after < self.end && acc < self.weight {
                            cut = Some((after, acc));
                        } else if prev > 0 && w * 64 > self.start {
                            cut = Some((w * 64, prev));
                        }
                        break;
                    }
                    w += 1;
                }
                cut?
            }
        };
        if left_weight == 0 || left_weight >= self.weight {
            return None;
        }
        debug_assert!(self.start < mid && mid < self.end);
        Some((
            SplittableSelection {
                members: self.members,
                start: self.start,
                end: mid,
                weight: left_weight,
            },
            SplittableSelection {
                members: self.members,
                start: mid,
                end: self.end,
                weight: self.weight - left_weight,
            },
        ))
    }
}

use crate::bitmap::span_mask as mask_span;

/// Stream the non-null values of `data` at the selected rows into
/// `present`, adding the number of selected-but-null rows to `missing`.
///
/// This is the workhorse of every single-column kernel, a thin adapter
/// over the block driver ([`crate::block::scan_blocks`]): fully-live
/// frames stream their lanes branch-free (the dense fast path), partial
/// frames iterate their live bits, sparse rows arrive per value.
pub fn scan_values<T: Copy + Default, S: ScanSource<T> + ?Sized>(
    sel: &Selection<'_>,
    data: &S,
    nulls: Option<&Bitmap>,
    missing: &mut u64,
    present: impl FnMut(T),
) {
    struct Values<T, F: FnMut(T)> {
        f: F,
        _t: std::marker::PhantomData<fn(T)>,
    }
    impl<T: Copy, F: FnMut(T)> BlockSink<T> for Values<T, F> {
        #[inline]
        fn block(&mut self, b: &Block<'_, T>) {
            if b.all_live() {
                for &v in b.values {
                    (self.f)(v);
                }
            } else {
                let mut live = b.live();
                while live != 0 {
                    let k = live.trailing_zeros() as usize;
                    live &= live - 1;
                    (self.f)(b.values[k]);
                }
            }
        }
        #[inline]
        fn one(&mut self, _row: usize, v: T) {
            (self.f)(v);
        }
    }
    let mut sink = Values {
        f: present,
        _t: std::marker::PhantomData,
    };
    scan_blocks(sel, data, nulls, missing, &mut sink);
}

/// Enumerate the selected row indexes, ascending. For kernels that must
/// touch several columns per row (heat maps, next-K): the membership probe
/// is amortized to chunk decoding but value access stays per-row.
pub fn scan_rows(sel: &Selection<'_>, mut f: impl FnMut(usize)) {
    for chunk in sel.chunks() {
        match chunk {
            ScanChunk::Range { start, end } => {
                for r in start..end {
                    f(r);
                }
            }
            ScanChunk::Mask { base, word } => {
                let mut live = word;
                while live != 0 {
                    let b = live.trailing_zeros() as usize;
                    live &= live - 1;
                    f(base + b);
                }
            }
            ScanChunk::Rows(rows) => {
                for &r in rows {
                    f(r as usize);
                }
            }
        }
    }
}

/// Count selected rows whose bit is set in `nulls`, touching no column
/// data at all — pure word-AND popcounts for dense selections.
pub fn count_missing(sel: &Selection<'_>, nulls: Option<&Bitmap>) -> u64 {
    let Some(nb) = nulls else {
        return 0;
    };
    let mut missing = 0u64;
    for chunk in sel.chunks() {
        match chunk {
            ScanChunk::Range { start, end } => {
                let mut r = start;
                while r < end {
                    let w_idx = r / 64;
                    let w_end = ((w_idx + 1) * 64).min(end);
                    let span = mask_span(r - w_idx * 64, w_end - w_idx * 64);
                    missing += (nb.word(w_idx) & span).count_ones() as u64;
                    r = w_end;
                }
            }
            ScanChunk::Mask { base, word } => {
                missing += (word & nb.word(base / 64)).count_ones() as u64;
            }
            ScanChunk::Rows(rows) => {
                missing += rows.iter().filter(|&&r| nb.get(r as usize)).count() as u64;
            }
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_rows(m: &MembershipSet) -> Vec<usize> {
        let mut out = Vec::new();
        scan_rows(&Selection::Members(m), |r| out.push(r));
        out
    }

    #[test]
    fn full_is_one_range() {
        let m = MembershipSet::full(100);
        let chunks: Vec<_> = m.chunks().collect();
        assert_eq!(chunks, vec![ScanChunk::Range { start: 0, end: 100 }]);
    }

    #[test]
    fn empty_full_yields_nothing() {
        let m = MembershipSet::full(0);
        assert_eq!(m.chunks().count(), 0);
    }

    #[test]
    fn sparse_is_one_rows_chunk() {
        let m = MembershipSet::from_rows(vec![3, 17, 64], 1000);
        let chunks: Vec<_> = m.chunks().collect();
        assert!(matches!(chunks.as_slice(), [ScanChunk::Rows(r)] if r == &[3, 17, 64]));
    }

    #[test]
    fn dense_coalesces_full_words_into_ranges() {
        // 320 rows: words 0,1 full; word 2 partial; word 3 full; word 4 empty.
        let mut bm = Bitmap::new(320);
        for i in 0..128 {
            bm.set(i);
        }
        bm.set(130);
        bm.set(190);
        for i in 192..256 {
            bm.set(i);
        }
        let m = MembershipSet::Dense(bm);
        let chunks: Vec<_> = m.chunks().collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], ScanChunk::Range { start: 0, end: 128 });
        assert!(matches!(chunks[1], ScanChunk::Mask { base: 128, .. }));
        assert_eq!(
            chunks[2],
            ScanChunk::Range {
                start: 192,
                end: 256
            }
        );
    }

    #[test]
    fn dense_full_tail_word_coalesces() {
        // 70 rows all set: last word is a 6-bit tail, still a Range.
        let bm = Bitmap::all_set(70);
        let m = MembershipSet::Dense(bm);
        let chunks: Vec<_> = m.chunks().collect();
        assert_eq!(chunks, vec![ScanChunk::Range { start: 0, end: 70 }]);
    }

    #[test]
    fn chunk_row_enumeration_matches_iter_for_all_reps() {
        for m in [
            MembershipSet::full(130),
            MembershipSet::from_rows((0..130).step_by(3).collect(), 130),
            MembershipSet::from_rows((0..130).step_by(31).collect(), 130),
            MembershipSet::from_rows(vec![], 130),
            {
                let mut bm = Bitmap::new(130);
                for i in 50..130 {
                    bm.set(i);
                }
                MembershipSet::Dense(bm)
            },
        ] {
            assert_eq!(chunk_rows(&m), m.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn scan_values_respects_null_words() {
        let data: Vec<i64> = (0..200).collect();
        let mut nulls = Bitmap::new(200);
        for i in (0..200).step_by(7) {
            nulls.set(i);
        }
        let m = MembershipSet::full(200);
        let mut missing = 0u64;
        let mut sum = 0i64;
        scan_values(
            &Selection::Members(&m),
            &data,
            Some(&nulls),
            &mut missing,
            |v| sum += v,
        );
        let expect_missing = (0..200).step_by(7).count() as u64;
        assert_eq!(missing, expect_missing);
        let expect_sum: i64 = (0..200).filter(|i| i % 7 != 0).sum();
        assert_eq!(sum, expect_sum);
    }

    #[test]
    fn scan_values_dense_fast_path() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let m = MembershipSet::full(1000);
        let mut missing = 0u64;
        let mut n = 0usize;
        scan_values(&Selection::Members(&m), &data, None, &mut missing, |_| {
            n += 1
        });
        assert_eq!(n, 1000);
        assert_eq!(missing, 0);
    }

    #[test]
    fn scan_values_sampled_rows() {
        let data: Vec<i64> = (0..100).collect();
        let mut nulls = Bitmap::new(100);
        nulls.set(10);
        let rows: Vec<u32> = vec![5, 10, 20];
        let mut missing = 0u64;
        let mut seen = Vec::new();
        scan_values(
            &Selection::Rows(&rows),
            &data,
            Some(&nulls),
            &mut missing,
            |v| seen.push(v),
        );
        assert_eq!(missing, 1);
        assert_eq!(seen, vec![5, 20]);
    }

    #[test]
    fn count_missing_agrees_with_scan() {
        let mut nulls = Bitmap::new(500);
        for i in (0..500).step_by(13) {
            nulls.set(i);
        }
        for m in [
            MembershipSet::full(500),
            MembershipSet::from_rows((100..400).collect(), 500),
            MembershipSet::from_rows((0..500).step_by(29).collect(), 500),
        ] {
            let sel = Selection::Members(&m);
            let fast = count_missing(&sel, Some(&nulls));
            let slow = m.iter().filter(|&r| nulls.get(r)).count() as u64;
            assert_eq!(fast, slow);
        }
        assert_eq!(
            count_missing(&Selection::Members(&MembershipSet::full(500)), None),
            0
        );
    }

    #[test]
    fn selection_count_matches() {
        let m = MembershipSet::from_rows(vec![1, 5, 9], 10);
        assert_eq!(Selection::Members(&m).count(), 3);
        assert_eq!(Selection::Rows(&[1, 2]).count(), 2);
    }

    fn memberships() -> Vec<MembershipSet> {
        vec![
            MembershipSet::full(300),
            MembershipSet::from_rows((0..300).step_by(29).collect(), 300),
            MembershipSet::from_rows((0..300).filter(|r| r % 3 != 0).collect(), 300),
            MembershipSet::from_rows((40..230).collect(), 300),
            MembershipSet::from_rows(vec![], 300),
            {
                let mut bm = Bitmap::new(300);
                for i in (64..256).filter(|i| i % 5 != 2) {
                    bm.set(i);
                }
                MembershipSet::Dense(bm)
            },
        ]
    }

    #[test]
    fn bounded_selection_rows_match_filtered_iter() {
        for m in memberships() {
            for (lo, hi) in [(0, 300), (0, 0), (13, 200), (64, 128), (63, 65), (100, 999)] {
                let sel = Selection::members_in(&m, lo, hi);
                let mut got = Vec::new();
                scan_rows(&sel, |r| got.push(r));
                let want: Vec<usize> = m.iter().filter(|&r| r >= lo && r < hi).collect();
                assert_eq!(got, want, "{m:?} bounds {lo}..{hi}");
                assert_eq!(sel.count(), want.len());
            }
        }
    }

    #[test]
    fn bounded_pieces_reassemble_the_full_scan() {
        // Scanning members_in over consecutive bounds concatenates to the
        // unbounded scan — the property split execution rests on.
        for m in memberships() {
            let mut pieces = Vec::new();
            for (lo, hi) in [(0, 77), (77, 150), (150, 300)] {
                scan_rows(&Selection::members_in(&m, lo, hi), |r| pieces.push(r));
            }
            let whole: Vec<usize> = m.iter().collect();
            assert_eq!(pieces, whole, "{m:?}");
        }
    }

    #[test]
    fn split_conserves_weight_and_orders_bounds() {
        for m in memberships() {
            let root = SplittableSelection::new(&m);
            assert_eq!(root.weight(), m.len());
            if let Some((l, r)) = root.split() {
                assert_eq!(l.weight() + r.weight(), root.weight());
                assert!(l.weight() > 0 && r.weight() > 0);
                let (ls, le) = l.bounds();
                let (rs, re) = r.bounds();
                assert_eq!(ls, 0);
                assert_eq!(le, rs);
                assert_eq!(re, m.universe());
                assert_eq!(l.weight(), m.count_range(ls, le));
                assert_eq!(r.weight(), m.count_range(rs, re));
            } else {
                assert!(
                    m.len() < 2 || matches!(m, MembershipSet::Dense(_)),
                    "{m:?} should be splittable"
                );
            }
        }
    }

    #[test]
    fn recursive_split_partitions_every_membership() {
        // Split to a tiny grain and check the leaf selections tile the
        // original row stream exactly.
        for m in memberships() {
            let mut stack = vec![SplittableSelection::new(&m)];
            let mut rows = Vec::new();
            let mut leaves = 0;
            while let Some(part) = stack.pop() {
                if part.weight() > 16 {
                    if let Some((l, r)) = part.split() {
                        // Process left first to keep ascending order with a
                        // LIFO stack.
                        stack.push(r);
                        stack.push(l);
                        continue;
                    }
                }
                leaves += 1;
                scan_rows(&part.selection(), |r| rows.push(r));
            }
            let whole: Vec<usize> = m.iter().collect();
            assert_eq!(rows, whole, "{m:?}");
            if m.len() > 64 {
                assert!(leaves > 1, "{m:?} produced a single leaf");
            }
        }
    }

    #[test]
    fn splits_are_row_weighted_not_range_weighted() {
        // All the weight sits in the back half of the range; a balanced
        // split must cut inside that half, not at the naive midpoint.
        let m = MembershipSet::from_rows((800..1000).collect(), 1000);
        let root = SplittableSelection::new(&m);
        let (l, r) = root.split().unwrap();
        assert_eq!(l.weight(), 100);
        assert_eq!(r.weight(), 100);
        let (_, mid) = l.bounds();
        assert!((850..=950).contains(&mid), "cut at {mid}");
    }

    #[test]
    fn rows_in_range_clips_sorted_lists() {
        let rows: Vec<u32> = vec![3, 17, 64, 65, 200];
        assert_eq!(rows_in_range(&rows, 0, 1000), &rows[..]);
        assert_eq!(rows_in_range(&rows, 17, 65), &[17, 64]);
        assert_eq!(rows_in_range(&rows, 66, 200), &[] as &[u32]);
        assert_eq!(rows_in_range(&rows, 201, 300), &[] as &[u32]);
    }
}
