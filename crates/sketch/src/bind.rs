//! Internal helper binding a column to a bucket spec for fast row→bucket
//! lookup, shared by the heatmap and stacked-histogram kernels.
//!
//! Binding resolves the column to its raw storage once — encoded
//! float/integer/code storage plus optional null bitmap — so the per-row
//! `bucket()` probe costs a storage read and a bitmap bit test instead of a
//! `Column` enum dispatch and an `Option` round-trip.
//!
//! [`FrameCells`] is the block-ABI face of a binding: for each 64-row
//! frame it decodes the column's value lanes through a
//! [`BlockCursor`](hillview_columnar::BlockCursor) (zero-copy for plain
//! storage) and produces one `u32` cell per lane — the bucket index, an
//! out-of-range sentinel, or a missing sentinel — so two-column kernels
//! (heat maps, stacked histograms) combine whole frames of cells instead
//! of dispatching per row. Numeric cells go through the lane-parallel
//! [`hillview_columnar::simd::bucket_indexes`] primitive; results are
//! bit-identical to the per-row [`BoundColumn::bucket`] reference under
//! either codegen.

use crate::buckets::BucketSpec;
use crate::traits::{SketchError, SketchResult};
use hillview_columnar::simd::{self, BucketParams};
use hillview_columnar::{
    Bitmap, BlockCursor, CodeStorage, Column, F64Storage, I64Storage, BLOCK_ROWS,
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
                let code_bucket = c
                    .dictionary()
                    .iter()
                    .map(|s| spec.index_of_str(s))
                    .collect();
                Ok(BoundColumn::Dict {
                    codes: c.codes(),
                    nulls: c.nulls().bitmap(),
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
}

/// The block-ABI face of a [`BoundColumn`]: per-frame cell computation.
///
/// A *cell* is a `u32`: `< n_buckets` is a bucket index, [`FrameCells::out`]
/// marks an in-range-but-unbucketed (out-of-range) row, [`FrameCells::miss`]
/// a missing row — the same classification [`Cell`] models per row.
pub(crate) struct FrameCells<'a> {
    inner: FrameInner<'a>,
    /// Out-of-range sentinel (= bucket count).
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
    /// Wrap a binding for frame-wise cell computation; `n_buckets` is the
    /// spec's bucket count (the out-of-range sentinel).
    pub(crate) fn new(bound: &'a BoundColumn<'a>, n_buckets: usize) -> Self {
        let out = n_buckets as u32;
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

    /// The out-of-range sentinel cell.
    #[inline]
    pub(crate) fn out(&self) -> u32 {
        self.out
    }

    /// The missing sentinel cell.
    #[inline]
    pub(crate) fn miss(&self) -> u32 {
        self.out + 1
    }

    /// Compute the cells of frame `base .. base + len` into `cells[..len]`.
    /// Frames must be requested in ascending order.
    pub(crate) fn frame(&mut self, base: usize, len: usize, cells: &mut [u32; BLOCK_ROWS]) {
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

/// Hoisted numeric bucket arithmetic; panics on a string spec (bindings
/// guarantee numeric specs for numeric columns).
fn numeric_params(spec: &BucketSpec) -> BucketParams {
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
