//! Selections and the typed scan drivers sketch kernels read through.
//!
//! The per-row scan interface (`MembershipSet::iter` + `Column::get(i) ->
//! Option<T>`) pays a membership probe, a bounds check, and an `Option`
//! branch on *every cell*. That is far from the paper's claim that
//! `summarize` loops run "as fast as the hardware allows" (§5, App. C).
//! This module provides the batch alternative every sketch kernel is built
//! on:
//!
//! * [`Selection`] — what a kernel scans: a whole membership set, a
//!   row-bounded slice of one ([`Selection::members_in`], which is how split
//!   sub-ranges reuse the same drivers), a sampled row list, or a fused
//!   selection that runs a compiled predicate over every 64-row word as the
//!   scan proceeds.
//! * [`SplittableSelection`] — the partitioner behind intra-partition
//!   parallelism: it divides any membership representation into balanced,
//!   row-weighted sub-ranges (halving recursively) *without materializing
//!   row ids*, so a work-stealing executor can fan a single partition out
//!   across cores and fold the partial summaries back in range order.
//! * [`ScanSource`] — the two reads a driver makes of a storage: a decoded
//!   64-row frame, and the run holding one sparse row.
//! * [`scan_values`] / [`scan_rows`] / [`count_missing`] — typed drivers,
//!   each a consumer of the one selection walk, [`scan_frames`]. It turns
//!   every selection shape into 64-row-aligned frames (a base and a
//!   selection word) plus, for sparse row lists, single rows. `scan_values`
//!   decodes those frames into [`Block`]s through [`scan_blocks`], with
//!   one null-word fetch per frame and a branch-free inner loop
//!   whenever a frame is fully live (the *dense fast path*); `scan_rows`
//!   enumerates the selected rows; `count_missing` ANDs each selection word
//!   with its null word and touches no column data. Plain storage lends its
//!   lanes zero-copy, packed storages decode whole frames through the
//!   encoding layer's block decoders, and the `Block` ABI is the only
//!   interface between storage and kernels.
//!
//! Frames are always emitted in ascending row order and never overlap, so
//! order-sensitive kernels (Misra-Gries, next-K) observe exactly the same
//! row sequence as the per-row reference path — the scan-equivalence
//! property tests in `hillview-sketch` rely on that. A bounded selection
//! emits exactly the frames of the unbounded one clipped to the range, so
//! concatenating the value streams of adjacent sub-ranges reproduces the
//! whole-partition stream verbatim.

use crate::bitmap::{span_mask, Bitmap};
use crate::block::{scan_blocks, scan_frames, Block, BlockSink, FrameEvent, BLOCK_ROWS};
use crate::encoding::{IntStorage, PackedInt};
use crate::membership::MembershipSet;
use crate::predicate::FrameFilter;

/// What a typed scan driver reads values from: a plain slice (raw column
/// data, hash tables, scratch vectors) or an encoded storage
/// ([`IntStorage`], [`F64Storage`](crate::encoding::F64Storage)). A driver
/// makes two reads, both ascending and both threading one opaque `cursor`
/// (start it at 0 and reuse it across one scan): whole 64-row frames
/// through [`ScanSource::decode_frame`], and the rows of sparse lists and
/// samples through [`ScanSource::index_run`].
///
/// A mapped (`hvc`) storage touches only the file chunks a requested frame
/// covers (see [`crate::residency`]). The fused filter drops all-fail
/// selection words *before* a frame is asked for, so a zone-skipped block
/// of a mapped column is never faulted in at all.
pub trait ScanSource<T: Copy> {
    /// Decoded lanes of the 64-row-aligned frame `base .. base + len`
    /// (`len <= 64`): borrowed zero-copy from plain sources, materialized
    /// into `buf` otherwise. Frames must be requested in ascending order.
    fn decode_frame<'a>(
        &'a self,
        cursor: &mut usize,
        base: usize,
        len: usize,
        buf: &'a mut [T; BLOCK_ROWS],
    ) -> &'a [T];
    /// The value at row `i` and the exclusive end of the run of rows that
    /// share it. Run-length and exceptions storage report whole runs, so a
    /// sparse scan probes once per run; other sources report the single
    /// row `(value, i + 1)`.
    fn index_run(&self, cursor: &mut usize, i: usize) -> (T, usize);
}

impl<T: Copy> ScanSource<T> for [T] {
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
    #[inline]
    fn index_run(&self, _cursor: &mut usize, i: usize) -> (T, usize) {
        (self[i], i + 1)
    }
}

impl<T: PackedInt> ScanSource<T> for IntStorage<T> {
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
    #[inline]
    fn index_run(&self, cursor: &mut usize, i: usize) -> (T, usize) {
        self.run_at(cursor, i)
    }
}

/// The selectable bits of word `idx` for rows clipped to `lo..hi`: the
/// intersection of the word's 64-row span with the bounds. Zero only when
/// the word lies entirely outside the bounds.
#[inline]
pub(crate) fn word_span(idx: usize, lo: usize, hi: usize) -> u64 {
    let base = idx * 64;
    let s = lo.max(base).min(base + 64) - base;
    let e = hi.max(base).min(base + 64) - base;
    if s >= e {
        0
    } else {
        span_mask(s, e)
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
/// slice of one (split sub-ranges), an explicit sampled row list, or a
/// fused filter over one of those. Gives kernels one code path for all of
/// them: [`scan_frames`] walks every shape.
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
    /// compiled predicate, evaluated lazily inside the walk.
    ///
    /// Every 64-row selection word of the (unfiltered) `base` — sparse rows
    /// grouped into their word first — goes through the [`FrameFilter`],
    /// and only non-zero match words are emitted as frames, so a block the
    /// predicate rejects (e.g. by zone map) is never decoded by the
    /// consuming kernel at all. This is what compiles a `(predicate,
    /// sketch)` pair into a single memory pass: no intermediate membership
    /// set, no second decode.
    ///
    /// Single-pass: it may be walked once; `count()` panics — read
    /// [`FrameFilter::matched`] after the scan instead.
    Filtered {
        /// The parent selection being filtered; never itself `Filtered`.
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
}

/// A row-bounded view of a membership set that an executor can divide into
/// balanced, row-weighted halves — the partitioner for intra-partition
/// parallelism.
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
/// is amortized to one selection word per 64 rows but value access stays
/// per-row.
pub fn scan_rows(sel: &Selection<'_>, mut f: impl FnMut(usize)) {
    scan_frames(sel, |ev| match ev {
        FrameEvent::Frame { base, word, .. } => {
            let mut live = word;
            while live != 0 {
                f(base + live.trailing_zeros() as usize);
                live &= live - 1;
            }
        }
        FrameEvent::Row(r) => f(r),
    });
}

/// Count selected rows whose bit is set in `nulls`, touching no column
/// data at all — one word-AND popcount per frame. The walk runs even when
/// the column has no nulls, so a fused filter is driven over every frame
/// (and its [`FrameFilter::matched`] count is complete).
pub fn count_missing(sel: &Selection<'_>, nulls: Option<&Bitmap>) -> u64 {
    let mut missing = 0u64;
    scan_frames(sel, |ev| {
        if let Some(nb) = nulls {
            missing += match ev {
                FrameEvent::Frame { base, word, .. } => (word & nb.word(base / 64)).count_ones(),
                FrameEvent::Row(r) => u32::from(nb.get(r)),
            } as u64;
        }
    });
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

    fn events(m: &MembershipSet) -> Vec<FrameEvent> {
        let mut out = Vec::new();
        scan_frames(&Selection::Members(m), |ev| out.push(ev));
        out
    }

    fn frame(base: usize, word: u64) -> FrameEvent {
        FrameEvent::Frame {
            base,
            len: 64 - word.leading_zeros() as usize,
            word,
        }
    }

    #[test]
    fn full_is_one_range() {
        // A full set walks as its range cut at word boundaries: all-ones
        // frames, then the short tail.
        let m = MembershipSet::full(100);
        assert_eq!(
            events(&m),
            vec![frame(0, u64::MAX), frame(64, span_mask(0, 36))]
        );
    }

    #[test]
    fn empty_full_yields_nothing() {
        assert!(events(&MembershipSet::full(0)).is_empty());
    }

    #[test]
    fn sparse_is_one_rows_chunk() {
        let m = MembershipSet::from_rows(vec![3, 17, 64], 1000);
        assert_eq!(
            events(&m),
            vec![FrameEvent::Row(3), FrameEvent::Row(17), FrameEvent::Row(64)]
        );
    }

    #[test]
    fn dense_walks_one_frame_per_nonempty_word() {
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
        assert_eq!(
            events(&m),
            vec![
                frame(0, u64::MAX),
                frame(64, u64::MAX),
                frame(128, 1 << 2 | 1 << 62),
                frame(192, u64::MAX),
            ]
        );
    }

    #[test]
    fn dense_full_tail_word_is_a_short_frame() {
        // 70 rows all set: the last word is a 6-lane frame.
        let m = MembershipSet::Dense(Bitmap::all_set(70));
        assert_eq!(
            events(&m),
            vec![frame(0, u64::MAX), frame(64, span_mask(0, 6))]
        );
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
            &data[..],
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
        scan_values(
            &Selection::Members(&m),
            &data[..],
            None,
            &mut missing,
            |_| n += 1,
        );
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
            &data[..],
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
