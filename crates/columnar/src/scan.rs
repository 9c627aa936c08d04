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
//!   sub-ranges reuse the same drivers), a fused selection that runs a
//!   compiled predicate over every 64-row word as the scan proceeds, or a
//!   sampled one that thins every word by the stateless sample rule.
//! * [`split_ranges`] — the split plan behind intra-partition parallelism:
//!   a partition's row span halved recursively to the grain, a function of
//!   its row count alone, so a work-stealing executor can fan a single
//!   partition out across cores and fold the partial summaries back in
//!   range order, whatever the membership or filter.
//! * [`ScanSource`] — the two reads a driver makes of a storage: a decoded
//!   64-row frame, and the run holding one sparse row.
//! * [`scan_values`] / [`scan_rows`] / [`count_missing`] — typed drivers,
//!   each a consumer of the one selection walk, [`scan_frames`]. It turns
//!   every selection shape into 64-row-aligned frames (a base and a
//!   selection word) plus, for unfiltered sparse row lists, single rows.
//!   `scan_values` decodes those frames into [`Block`]s through
//!   [`scan_blocks`], with one null-word fetch per frame and a branch-free
//!   inner loop whenever a frame is fully live (the *dense fast path*); `scan_rows`
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

use crate::bitmap::Bitmap;
use crate::block::{scan_blocks, scan_frames, Block, BlockSink, FrameEvent, BLOCK_ROWS};
use crate::encoding::{IntStorage, PackedInt};
use crate::membership::MembershipSet;
use crate::predicate::FrameFilter;

/// What a typed scan driver reads values from: a plain slice (raw column
/// data, hash tables, scratch vectors) or an encoded storage
/// ([`IntStorage`], [`F64Storage`](crate::encoding::F64Storage)). A driver
/// makes two reads, both ascending and both threading one opaque `cursor`
/// (start it at 0 and reuse it across one scan): whole 64-row frames
/// through [`ScanSource::decode_frame`], and the rows of sparse lists
/// through [`ScanSource::index_run`].
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

/// The sub-slice of a sorted row list whose rows lie in `lo..hi` — two
/// binary searches, no copying. Used to clip sparse memberships to a split
/// sub-range.
pub(crate) fn rows_in_range(rows: &[u32], lo: usize, hi: usize) -> &[u32] {
    let a = rows.partition_point(|&r| (r as usize) < lo);
    let b = rows.partition_point(|&r| (r as usize) < hi);
    &rows[a..b]
}

/// What a kernel scans: an entire membership set (streaming), a row-bounded
/// slice of one (split sub-ranges), a fused filter over one of those, and a
/// sample of any of these. Gives kernels one code path for all of them:
/// [`scan_frames`] walks every shape.
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
    /// The rows of a sparse membership within split bounds: an ascending
    /// sub-slice of its row list, as [`Selection::members_in`] clips it.
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
    /// A **sampled** selection: the rows of `base` that
    /// [`row_sampled`](crate::row_sampled) admits at `rate` under `seed`.
    ///
    /// The walk ANDs every 64-row word of `base` with its sample word —
    /// after a fused filter's match, so [`FrameFilter::matched`] still
    /// counts the rows before the sample — and tests each row of an
    /// unfiltered sparse list alone. The sample is a pure function of the
    /// row index, so it is the same whatever holds the rows, however they
    /// are split and whether or not a filter is fused.
    Sampled {
        /// The selection being sampled; never itself `Sampled`.
        base: &'a Selection<'a>,
        /// Row sampling rate.
        rate: f64,
        /// Sample seed.
        seed: u64,
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

    /// Number of selected rows. A row-bounded range is counted by walking
    /// its frames.
    ///
    /// Panics on [`Selection::Filtered`] and [`Selection::Sampled`]: those
    /// rows are only known by walking them, and a filter's count only after
    /// its (single) scan — read [`FrameFilter::matched`] then.
    pub fn count(&self) -> usize {
        match self {
            Selection::Members(m) => m.len(),
            Selection::MemberRange { .. } => {
                let mut rows = 0;
                scan_frames(self, |ev| {
                    rows += match ev {
                        FrameEvent::Frame { word, .. } => word.count_ones() as usize,
                        FrameEvent::Row(_) => 1,
                    }
                });
                rows
            }
            Selection::Rows(r) => r.len(),
            Selection::Filtered { .. } | Selection::Sampled { .. } => panic!(
                "a filtered or sampled Selection is single-pass: its row count is only \
                 known after the scan — read FrameFilter::matched() instead of count()"
            ),
        }
    }
}

/// The split plan of a partition of `universe` rows: the row span `[0,
/// universe)` halved until every piece spans at most `grain` rows, in
/// ascending order. A partition of no rows is one empty piece.
///
/// The plan depends on `(universe, grain)` alone — not on the membership,
/// how it is stored, or a filter — so a fused tree over a parent and a
/// tree over its materialized filter fold the same pieces in the same
/// order, as do every thread count and steal order. Scanning
/// [`Selection::members_in`] over the pieces reproduces the partition's
/// row stream exactly.
pub fn split_ranges(universe: usize, grain: usize) -> Vec<(usize, usize)> {
    fn halve(lo: usize, hi: usize, grain: usize, out: &mut Vec<(usize, usize)>) {
        if hi - lo > grain {
            let mid = lo + (hi - lo) / 2;
            halve(lo, mid, grain, out);
            halve(mid, hi, grain, out);
        } else {
            out.push((lo, hi));
        }
    }
    let mut pieces = Vec::new();
    halve(0, universe, grain.max(1), &mut pieces);
    pieces
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
    use crate::bitmap::span_mask;

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
        for (universe, grain) in [(0, 16), (1, 1), (300, 16), (300, 300), (301, 64), (7, 2)] {
            let pieces = split_ranges(universe, grain);
            assert_eq!(pieces.first().map(|p| p.0), Some(0));
            assert_eq!(pieces.last().map(|p| p.1), Some(universe));
            assert!(pieces
                .windows(2)
                .all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1));
            assert!(pieces.iter().all(|&(lo, hi)| hi - lo <= grain));
        }
        assert_eq!(
            split_ranges(0, 16),
            vec![(0, 0)],
            "an empty partition is one piece"
        );
        assert_eq!(split_ranges(10, usize::MAX), vec![(0, 10)]);
    }

    #[test]
    fn recursive_split_partitions_every_membership() {
        // Split to a tiny grain and check the leaf selections tile the
        // original row stream exactly.
        for m in memberships() {
            let pieces = split_ranges(m.universe(), 16);
            let mut rows = Vec::new();
            for &(lo, hi) in &pieces {
                scan_rows(&Selection::members_in(&m, lo, hi), |r| rows.push(r));
            }
            let whole: Vec<usize> = m.iter().collect();
            assert_eq!(rows, whole, "{m:?}");
        }
    }

    #[test]
    fn splits_are_range_weighted_not_row_weighted() {
        // All the members sit in the back half of the range; the plan cuts
        // at the midpoint of the rows anyway, as it would for any other
        // membership of 1 000 rows.
        let m = MembershipSet::from_rows((800..1000).collect(), 1000);
        assert_eq!(split_ranges(m.universe(), 999), vec![(0, 500), (500, 1000)]);
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
