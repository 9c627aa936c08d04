//! The one row → bucket-cell kernel behind the bucketed charts.
//!
//! Histogram, heat map, stacked histogram and trellis all "count rows into
//! a display-sized grid" (paper §4.3, App. B.1); what differs is how many
//! columns pick the cell and what a cell adds to. [`scan_cells`] is the
//! scan the multi-column ones share, const-generic over the column count
//! `N`:
//!
//! | `N` | caller | what the cells pick |
//! |-----|--------|---------------------|
//! | 2 | [`heatmap`](crate::heatmap), [`stacked`](crate::stacked) | (x, y) of the matrix; bar and subdivision |
//! | 3 | [`trellis`](crate::trellis) | the group's heat map, then its (x, y) |
//!
//! The one-column [`histogram`](crate::histogram) binds here too — its
//! dictionary table and hoisted arithmetic are [`BoundColumn::bind`]'s and
//! [`numeric_params`]' — but keeps single-column loops over the bound
//! storage: with one column there is nothing to combine per row, and
//! streaming the values beats computing cell frames first.
//!
//! Each caller binds its columns ([`BoundColumn::bind`] resolves a column
//! to raw storage — encoded values or dictionary codes plus the null
//! bitmap — and, for strings, buckets the dictionary once into a
//! code → bucket table) and passes a tally closure; the driver owns the
//! scan: `TableView::scan` resolves the scope, `scan_frames` walks the
//! selection, and every selected row reaches the closure as one `u32`
//! *cell* per column — the bucket index, the column's bucket count when the
//! value is out of range, or the count plus one when it is missing.
//!
//! A frame that is **at least half selected** computes the cells of all 64
//! lanes per column ([`FrameCells`]: one decode through a
//! [`BlockCursor`](hillview_columnar::BlockCursor), zero-copy for plain
//! storage, numeric cells through the lane-parallel
//! [`hillview_columnar::simd::bucket_indexes`]) and reads the selected
//! lanes; a sparser frame, and every row of a sparse list or sample,
//! probes [`BoundColumn::bucket`] per row — decoding `N`×64 lanes to
//! consume a couple of rows would cost more than the probes. The threshold
//! is a property of that trade, not of any one chart, so it lives here.
//! Both paths produce the same cell for the same row under either codegen;
//! the `summarize_rowwise` oracles and the equivalence suites pin it.

use crate::buckets::BucketSpec;
use crate::traits::{SketchError, SketchResult};
use crate::view::{Scope, TableView};
use hillview_columnar::simd::{self, BucketParams};
use hillview_columnar::{
    scan_frames, Bitmap, BlockCursor, CodeStorage, Column, F64Storage, FrameEvent, I64Storage,
    BLOCK_ROWS,
};

/// Where a row's value landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cell {
    /// Value missing.
    Missing,
    /// Value outside the bucket range.
    Out,
    /// Bucket index.
    In(usize),
}

/// A column bound to its bucket spec, resolved to raw storage.
pub(crate) enum BoundColumn<'a> {
    F64 {
        data: &'a F64Storage,
        nulls: Option<&'a Bitmap>,
        spec: &'a BucketSpec,
    },
    I64 {
        data: &'a I64Storage,
        nulls: Option<&'a Bitmap>,
        spec: &'a BucketSpec,
    },
    Dict {
        codes: &'a CodeStorage,
        nulls: Option<&'a Bitmap>,
        spec: &'a BucketSpec,
        /// Bucket of each dictionary code, precomputed once.
        code_bucket: Vec<Option<usize>>,
    },
}

impl<'a> BoundColumn<'a> {
    pub(crate) fn bind(col: &'a Column, spec: &'a BucketSpec) -> SketchResult<Self> {
        match (spec, col) {
            (BucketSpec::Numeric { .. }, Column::Double(c)) => Ok(BoundColumn::F64 {
                data: c.data(),
                nulls: c.nulls().bitmap(),
                spec,
            }),
            (BucketSpec::Numeric { .. }, Column::Int(c) | Column::Date(c)) => {
                Ok(BoundColumn::I64 {
                    data: c.storage(),
                    nulls: c.nulls().bitmap(),
                    spec,
                })
            }
            (BucketSpec::Strings { .. }, Column::Str(c) | Column::Cat(c)) => {
                let mut code_bucket = Vec::with_capacity(c.dictionary().len());
                c.dictionary()
                    .for_each(|_, s| code_bucket.push(spec.index_of_str(s)));
                Ok(BoundColumn::Dict {
                    codes: c.codes(),
                    nulls: c.nulls().bitmap(),
                    spec,
                    code_bucket,
                })
            }
            (spec, col) => Err(SketchError::BadConfig(format!(
                "bucket spec with {} buckets incompatible with column kind {}",
                spec.count(),
                col.kind()
            ))),
        }
    }

    #[inline]
    pub(crate) fn bucket(&self, row: usize) -> Cell {
        match self {
            BoundColumn::F64 { data, nulls, spec } => {
                if nulls.is_some_and(|nb| nb.get(row)) {
                    Cell::Missing
                } else {
                    match spec.index_of_f64(data.get(row)) {
                        Some(b) => Cell::In(b),
                        None => Cell::Out,
                    }
                }
            }
            BoundColumn::I64 { data, nulls, spec } => {
                if nulls.is_some_and(|nb| nb.get(row)) {
                    Cell::Missing
                } else {
                    match spec.index_of_f64(data.get(row) as f64) {
                        Some(b) => Cell::In(b),
                        None => Cell::Out,
                    }
                }
            }
            BoundColumn::Dict {
                codes,
                nulls,
                code_bucket,
                ..
            } => {
                if nulls.is_some_and(|nb| nb.get(row)) {
                    Cell::Missing
                } else {
                    match code_bucket[codes.get(row) as usize] {
                        Some(b) => Cell::In(b),
                        None => Cell::Out,
                    }
                }
            }
        }
    }

    /// The bound spec's bucket count — the out-of-range cell; one more is
    /// the missing cell.
    fn out(&self) -> u32 {
        let (BoundColumn::F64 { spec, .. }
        | BoundColumn::I64 { spec, .. }
        | BoundColumn::Dict { spec, .. }) = self;
        spec.count() as u32
    }
}

/// Hand `tally` the cells of the `N` bound columns at every row of `view`
/// that `scope` selects — and that the sample admits, when `sample` is
/// `Some((rate, seed))` — in ascending row order, and return the number of
/// rows inspected. A cell is the column's bucket index, its bucket count
/// for an out-of-range value, or the count plus one for a missing one.
pub(crate) fn scan_cells<const N: usize>(
    view: &TableView,
    scope: Scope<'_>,
    sample: Option<(f64, u64)>,
    cols: [&BoundColumn<'_>; N],
    mut tally: impl FnMut([u32; N]),
) -> SketchResult<u64> {
    let mut rows = 0u64;
    let mut tally = |cells| {
        rows += 1;
        tally(cells)
    };
    let outs = cols.map(BoundColumn::out);
    let mut frames = cols.map(FrameCells::new);
    let mut lanes = [[0u32; BLOCK_ROWS]; N];
    let probe = |row: usize| -> [u32; N] {
        std::array::from_fn(|c| match cols[c].bucket(row) {
            Cell::In(b) => b as u32,
            Cell::Out => outs[c],
            Cell::Missing => outs[c] + 1,
        })
    };
    view.scan(scope, sample, |sel| {
        scan_frames(sel, |ev| match ev {
            // At least half selected: one full-frame cell computation per
            // column, amortized over the selected lanes (module doc).
            FrameEvent::Frame { base, len, word } if word.count_ones() as usize * 2 >= len => {
                for (frame, cells) in frames.iter_mut().zip(&mut lanes) {
                    frame.frame(base, len, cells);
                }
                let mut m = word;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    m &= m - 1;
                    tally(std::array::from_fn(|c| lanes[c][k]));
                }
            }
            FrameEvent::Frame { base, word, .. } => {
                let mut m = word;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    m &= m - 1;
                    tally(probe(base + k));
                }
            }
            FrameEvent::Row(row) => tally(probe(row)),
        })
    })?;
    Ok(rows)
}

/// The block-ABI face of a [`BoundColumn`]: the cells of a whole 64-row
/// frame — the same classification [`Cell`] models per row.
struct FrameCells<'a> {
    inner: FrameInner<'a>,
    /// Out-of-range cell (= bucket count).
    out: u32,
}

// One FrameCells lives on the stack per kernel scan; the inline 64-lane
// cursor buffers are the point, not a size problem.
#[allow(clippy::large_enum_variant)]
enum FrameInner<'a> {
    F64 {
        cursor: BlockCursor<'a, f64, F64Storage>,
        nulls: Option<&'a Bitmap>,
        params: BucketParams,
    },
    I64 {
        cursor: BlockCursor<'a, i64, I64Storage>,
        nulls: Option<&'a Bitmap>,
        params: BucketParams,
    },
    Dict {
        cursor: BlockCursor<'a, u32, CodeStorage>,
        nulls: Option<&'a Bitmap>,
        /// Cell of each dictionary code (bucket index or the out sentinel),
        /// precomputed once.
        code_cell: Vec<u32>,
    },
}

impl<'a> FrameCells<'a> {
    /// Wrap a binding for frame-wise cell computation.
    fn new(bound: &'a BoundColumn<'a>) -> Self {
        let out = bound.out();
        let inner = match bound {
            BoundColumn::F64 { data, nulls, spec } => FrameInner::F64 {
                cursor: BlockCursor::new(*data),
                nulls: *nulls,
                params: numeric_params(spec),
            },
            BoundColumn::I64 { data, nulls, spec } => FrameInner::I64 {
                cursor: BlockCursor::new(*data),
                nulls: *nulls,
                params: numeric_params(spec),
            },
            BoundColumn::Dict {
                codes,
                nulls,
                code_bucket,
                ..
            } => FrameInner::Dict {
                cursor: BlockCursor::new(*codes),
                nulls: *nulls,
                code_cell: code_bucket
                    .iter()
                    .map(|b| b.map_or(out, |i| i as u32))
                    .collect(),
            },
        };
        FrameCells { inner, out }
    }

    /// Compute the cells of frame `base .. base + len` into `cells[..len]`.
    /// Frames must be requested in ascending order.
    fn frame(&mut self, base: usize, len: usize, cells: &mut [u32; BLOCK_ROWS]) {
        let miss = self.out + 1;
        match &mut self.inner {
            FrameInner::F64 {
                cursor,
                nulls,
                params,
            } => {
                let valid = !nulls.map_or(0, |nb| nb.word(base / 64));
                let lanes = cursor.lanes(base, len);
                simd::bucket_indexes(lanes, valid, params, miss, cells);
            }
            FrameInner::I64 {
                cursor,
                nulls,
                params,
            } => {
                let valid = !nulls.map_or(0, |nb| nb.word(base / 64));
                let lanes = cursor.lanes(base, len);
                simd::bucket_indexes(lanes, valid, params, miss, cells);
            }
            FrameInner::Dict {
                cursor,
                nulls,
                code_cell,
            } => {
                let nword = nulls.map_or(0, |nb| nb.word(base / 64));
                let lanes = cursor.lanes(base, len);
                for (k, &code) in lanes.iter().enumerate() {
                    cells[k] = if nword >> k & 1 == 1 {
                        miss
                    } else {
                        code_cell[code as usize]
                    };
                }
            }
        }
    }
}

/// Hoisted numeric bucket arithmetic — `scale` has the bits of the per-call
/// value `index_of_f64` computes; panics on a string spec (bindings
/// guarantee numeric specs for numeric columns).
pub(crate) fn numeric_params(spec: &BucketSpec) -> BucketParams {
    match spec {
        BucketSpec::Numeric { lo, hi, count } => BucketParams {
            lo: *lo,
            hi: *hi,
            scale: *count as f64 / (hi - lo),
            cnt: *count as u32,
        },
        BucketSpec::Strings { .. } => unreachable!("numeric binding with string spec"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{DictColumn, F64Column, I64Column};

    #[test]
    fn numeric_binding() {
        let col = Column::Double(F64Column::from_options([Some(5.0), None, Some(99.0)]));
        let spec = BucketSpec::numeric(0.0, 10.0, 2);
        let b = BoundColumn::bind(&col, &spec).unwrap();
        assert_eq!(b.bucket(0), Cell::In(1));
        assert_eq!(b.bucket(1), Cell::Missing);
        assert_eq!(b.bucket(2), Cell::Out);
    }

    #[test]
    fn int_binding_buckets_as_f64() {
        let col = Column::Int(I64Column::from_options([Some(3), None]));
        let spec = BucketSpec::numeric(0.0, 10.0, 5);
        let b = BoundColumn::bind(&col, &spec).unwrap();
        assert_eq!(b.bucket(0), Cell::In(1));
        assert_eq!(b.bucket(1), Cell::Missing);
    }

    #[test]
    fn dict_binding_precomputes_codes() {
        let col = Column::Cat(DictColumn::from_strings([
            Some("apple"),
            Some("zebra"),
            None,
        ]));
        let spec = BucketSpec::strings(vec!["a".into(), "m".into()]);
        let b = BoundColumn::bind(&col, &spec).unwrap();
        assert_eq!(b.bucket(0), Cell::In(0));
        assert_eq!(b.bucket(1), Cell::In(1));
        assert_eq!(b.bucket(2), Cell::Missing);
    }

    #[test]
    fn incompatible_binding_rejected() {
        let col = Column::Int(I64Column::from_options([Some(1)]));
        let spec = BucketSpec::strings(vec!["a".into()]);
        assert!(BoundColumn::bind(&col, &spec).is_err());
    }
}
