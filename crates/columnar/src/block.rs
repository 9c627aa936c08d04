//! The decoded-block ABI and the one walk over a selection.
//!
//! [`scan_frames`] is the only code that walks a [`Selection`]: every shape
//! — a membership set, a bounded slice of one, a fused filter over either,
//! a sample of any of these — becomes 64-row-aligned frames (a base and a
//! selection word) plus, for unfiltered sparse row lists, single rows. The
//! drivers are its consumers: [`scan_blocks`] here, `scan_values`,
//! `scan_rows` and `count_missing` in [`crate::scan`], the fused and
//! two-pass filters in [`crate::predicate`], and the multi-column kernels.
//!
//! A [`Block`] is a 64-row-aligned window of a column: decoded value lanes
//! (borrowed zero-copy from plain storage, materialized by the block
//! decoders otherwise), a *selection* word saying which rows of the frame
//! the scan selects, and a *validity* word saying which rows are non-null.
//! Kernels consume frames through [`BlockSink`], driven by [`scan_blocks`].
//! The rows of an unfiltered sparse membership bypass frame decoding and
//! arrive per value through [`BlockSink::one`], with run-length storage
//! serving whole runs through one cursor probe.
//!
//! Frames tile a selection exactly: bases are 64-aligned and strictly
//! ascending, selection words never overlap, and the union of selection
//! bits (plus the sparse rows) is precisely the scanned selection — the
//! tiling laws the columnar proptests pin. Because lanes are decoded in
//! ascending order and frames never repeat rows, a kernel folding block
//! values observes exactly the per-row reference value stream.
//!
//! [`BlockCursor`] packages the scratch buffer and ascending read state of
//! one [`ScanSource`]: [`scan_blocks`] reads through one, and kernels that
//! pull frames from several columns in lockstep (heat maps, stacked
//! histograms) hold one per column.

use crate::bitmap::{span_mask, Bitmap};
use crate::membership::{row_sampled, sample_word, MembershipSet};
use crate::scan::{rows_in_range, ScanSource, Selection};

/// Rows per block frame.
pub const BLOCK_ROWS: usize = crate::encoding::BLOCK_ROWS;

/// A decoded 64-row-aligned frame of one column.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a, T> {
    /// First row of the frame; always a multiple of 64.
    pub base: usize,
    /// Decoded value lanes for rows `base .. base + values.len()`. Covers
    /// every selected row of the frame (null rows hold the storage's
    /// placeholder value, like the raw column arrays).
    pub values: &'a [T],
    /// Bit `k` set ⇔ row `base + k` is selected by the scan. Bits at or
    /// beyond `values.len()` are never set.
    pub selection: u64,
    /// Bit `k` set ⇔ row `base + k` is non-null. Bits beyond the column
    /// are meaningless; always combine with `selection`.
    pub validity: u64,
}

impl<T> Block<'_, T> {
    /// Rows the kernel must process: selected and non-null.
    #[inline]
    pub fn live(&self) -> u64 {
        self.selection & self.validity
    }

    /// Number of decoded lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the frame has no lanes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True when every lane is selected and non-null — the dense fast path
    /// where kernels may run branch-free over the whole value slice.
    #[inline]
    pub fn all_live(&self) -> bool {
        self.live() == span_mask(0, self.values.len())
    }
}

/// Receiver for [`scan_blocks`]: dense portions of the selection arrive as
/// decoded [`Block`] frames, sparse row lists value-at-a-time.
pub trait BlockSink<T> {
    /// A decoded frame; process the rows of `block.live()`.
    fn block(&mut self, block: &Block<'_, T>);
    /// One selected, non-null value at `row` (sparse row-list path).
    fn one(&mut self, row: usize, v: T);
}

/// Scratch + ascending read state over one [`ScanSource`]: the frames of
/// [`scan_blocks`], and the lockstep frames of kernels that pull several
/// columns per frame (heat maps, stacked histograms).
pub struct BlockCursor<'a, T, S: ?Sized> {
    src: &'a S,
    cursor: usize,
    buf: [T; BLOCK_ROWS],
    /// The run the last [`BlockCursor::value`] probe found, and its value.
    run: std::ops::Range<usize>,
    run_value: T,
}

impl<'a, T: Copy + Default, S: ScanSource<T> + ?Sized> BlockCursor<'a, T, S> {
    /// A cursor over `src`, starting before row 0.
    pub fn new(src: &'a S) -> Self {
        BlockCursor {
            src,
            cursor: 0,
            buf: [T::default(); BLOCK_ROWS],
            run: 0..0,
            run_value: T::default(),
        }
    }

    /// Decoded lanes of the frame `base .. base + len` (`base` 64-aligned,
    /// `len <= 64`). Frames should be requested in ascending order.
    #[inline]
    pub fn lanes(&mut self, base: usize, len: usize) -> &[T] {
        self.src
            .decode_frame(&mut self.cursor, base, len, &mut self.buf)
    }

    /// The value at `row`, for sparse rows read in ascending order: one
    /// storage probe per run ([`ScanSource::index_run`]), so a run covering
    /// many selected rows serves them all.
    #[inline]
    pub fn value(&mut self, row: usize) -> T {
        if !self.run.contains(&row) {
            let (v, end) = self.src.index_run(&mut self.cursor, row);
            (self.run, self.run_value) = (row..end, v);
        }
        self.run_value
    }
}

/// One step of [`scan_frames`]: a dense 64-aligned frame of the selection,
/// or a single sparse row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEvent {
    /// A dense frame: rows at the set bits of `word` within `base .. base +
    /// len` are selected. `len` is exactly the highest selected bit plus
    /// one; decode `base .. base + len`.
    Frame {
        /// 64-aligned frame base.
        base: usize,
        /// Lanes to decode (`<= 64`).
        len: usize,
        /// Selection bits of the frame; never zero.
        word: u64,
    },
    /// One explicitly listed row (unfiltered sparse lists).
    Row(usize),
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
        span_mask(s, e)
    }
}

/// The frame of the 64-row word at `base` whose selected rows are `word`.
#[inline]
fn frame(base: usize, word: u64) -> FrameEvent {
    FrameEvent::Frame {
        base,
        len: 64 - word.leading_zeros() as usize,
        word,
    }
}

/// Walk the selection as 64-aligned frames plus sparse rows, ascending.
///
/// This is the one walk over a [`Selection`]; every driver consumes it.
/// Full and dense memberships (bounded or not) emit one frame per 64-row
/// word with a selected row. Sparse memberships emit one
/// [`FrameEvent::Row`] per row. A [`Selection::Filtered`] walks its base
/// with sparse rows grouped into their word, runs every word through the
/// [`FrameFilter`](crate::predicate::FrameFilter), and emits only non-zero
/// match words — so a filtered selection is frames alone, and a block the
/// predicate rejects is never seen, nor decoded, by the kernel. A
/// [`Selection::Sampled`] ANDs each word — the filter's match word, when it
/// wraps a filter — with its sample word, drops the words that leave
/// empty, and keeps a sparse row only if [`row_sampled`] admits it.
pub fn scan_frames(sel: &Selection<'_>, mut f: impl FnMut(FrameEvent)) {
    let (sel, sample) = match *sel {
        Selection::Sampled { base, rate, seed } => (base, Some((rate, seed))),
        _ => (sel, None),
    };
    let (base, mut filter) = match sel {
        Selection::Filtered { base, filter } => {
            let mut filter = filter.borrow_mut();
            filter.begin();
            (*base, Some(filter))
        }
        _ => (sel, None),
    };
    let in_sample = |r: usize| sample.is_none_or(|(rate, seed)| row_sampled(r as u64, rate, seed));
    // One call of `f`, so the consumer's body inlines into this loop.
    let mut walk = Walk::new(base, filter.is_some());
    while let Some(ev) = walk.next() {
        let ev = match ev {
            FrameEvent::Frame { base, mut word, .. } if filter.is_some() || sample.is_some() => {
                if let Some(filter) = &mut filter {
                    word = filter.eval_word(base, word);
                }
                if let Some((rate, seed)) = sample {
                    word = sample_word(base, word, rate, seed);
                }
                match word {
                    0 => continue,
                    word => frame(base, word),
                }
            }
            FrameEvent::Row(r) if !in_sample(r) => continue,
            _ => ev,
        };
        f(ev);
    }
}

/// Where the walk of an unfiltered selection stands: at the next 64-row
/// word of a full or dense membership within `lo..hi`, or at the rest of
/// a sorted row list. Grouped rows arrive as one frame per word — the
/// unit a filter evaluates.
enum Walk<'a> {
    Words {
        bits: Option<&'a Bitmap>,
        w: usize,
        lo: usize,
        hi: usize,
    },
    Rows {
        rows: &'a [u32],
        grouped: bool,
    },
}

impl<'a> Walk<'a> {
    fn new(sel: &Selection<'a>, grouped: bool) -> Self {
        let (members, lo, hi) = match *sel {
            Selection::Members(m) => (m, 0, m.universe()),
            Selection::MemberRange {
                members,
                start,
                end,
            } => (members, start, end),
            Selection::Rows(rows) => return Walk::Rows { rows, grouped },
            Selection::Filtered { .. } | Selection::Sampled { .. } => {
                panic!("a sample wraps at most a filter, and a filter only a membership walk")
            }
        };
        let hi = hi.min(members.universe());
        let bits = match members {
            MembershipSet::Sparse { rows, .. } => {
                let rows = rows_in_range(rows, lo, hi);
                return Walk::Rows { rows, grouped };
            }
            MembershipSet::Dense(b) => Some(b),
            MembershipSet::Full(_) => None,
        };
        Walk::Words {
            bits,
            w: lo / 64,
            lo,
            hi,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> Option<FrameEvent> {
        match self {
            Walk::Words { bits, w, lo, hi } => {
                while *w * 64 < *hi {
                    let base = *w * 64;
                    let word = bits.map_or(u64::MAX, |b| b.word(*w)) & word_span(*w, *lo, *hi);
                    *w += 1;
                    if word != 0 {
                        return Some(frame(base, word));
                    }
                }
                None
            }
            Walk::Rows { rows, grouped } => {
                let &first = rows.first()?;
                if !*grouped {
                    *rows = &rows[1..];
                    return Some(FrameEvent::Row(first as usize));
                }
                let base = first as usize & !63;
                // A word holds at most 64 rows of the (deduplicated) list.
                let k = rows[..rows.len().min(64)].partition_point(|&r| (r as usize) < base + 64);
                let word = rows[..k]
                    .iter()
                    .fold(0, |w, &r| w | 1 << (r as usize - base));
                *rows = &rows[k..];
                Some(frame(base, word))
            }
        }
    }
}

/// The block driver: decode the selection's frames out of `data` (any
/// [`ScanSource`] — plain slices are borrowed zero-copy) and hand them to
/// `sink`, folding the null bitmap in at word granularity and adding the
/// number of selected-but-null rows to `missing`. Sparse rows skip frame
/// decoding and stream through [`BlockSink::one`], with run-length runs
/// served whole via [`BlockCursor::value`].
pub fn scan_blocks<T, S, K>(
    sel: &Selection<'_>,
    data: &S,
    nulls: Option<&Bitmap>,
    missing: &mut u64,
    sink: &mut K,
) where
    T: Copy + Default,
    S: ScanSource<T> + ?Sized,
    K: BlockSink<T>,
{
    let mut cur = BlockCursor::new(data);
    scan_frames(sel, |ev| match ev {
        FrameEvent::Frame { base, len, word } => {
            let nword = nulls.map_or(0, |nb| nb.word(base / 64));
            *missing += (word & nword).count_ones() as u64;
            sink.block(&Block {
                base,
                values: cur.lanes(base, len),
                selection: word,
                validity: !nword,
            });
        }
        FrameEvent::Row(r) => {
            if nulls.is_some_and(|nb| nb.get(r)) {
                *missing += 1;
            } else {
                sink.one(r, cur.value(r));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_tile_a_range_selection() {
        let m = MembershipSet::full(200);
        let sel = Selection::Members(&m);
        let mut frames = Vec::new();
        scan_frames(&sel, |ev| match ev {
            FrameEvent::Frame { base, len, word } => frames.push((base, len, word)),
            FrameEvent::Row(_) => panic!("no rows"),
        });
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0], (0, 64, u64::MAX));
        assert_eq!(frames[3], (192, 8, span_mask(0, 8)));
    }

    #[test]
    fn block_live_and_all_live() {
        let b = Block::<i64> {
            base: 0,
            values: &[1, 2, 3],
            selection: 0b111,
            validity: !0b010,
        };
        assert_eq!(b.live(), 0b101);
        assert!(!b.all_live());
        let b = Block::<i64> {
            base: 0,
            values: &[1, 2, 3],
            selection: 0b111,
            validity: !0,
        };
        assert!(b.all_live());
    }
}
