//! Statistical moments of a numeric column.
//!
//! Paper App. B.3: *"Given a column, this vizketch collects its minimum and
//! maximum values, number of rows, the number of missing values, and the
//! statistical moments up to a specified value K (including mean and
//! variance, the first two moments)."*
//!
//! ## Lane-structured accumulation
//!
//! The kernel's floating-point accumulation is *defined* over eight fixed
//! lanes: the value at row `r` accumulates into lane `r % 8`, and the
//! lanes combine as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` once at the
//! end (see
//! [`hillview_columnar::simd::MomentLanes`]). Row → lane assignment is a
//! pure function of the data, so the block path (which processes
//! fully-live frames with the lane-parallel
//! [`hillview_columnar::simd::moments_frame`] primitive, vector-dispatched
//! at runtime on x86-64), the per-row reference, every encoding, and
//! both codegens produce bit-identical power sums.

use crate::range::merge_opt;
use crate::traits::{Sketch, SketchError, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::simd::{self, LaneValue, MomentLanes};
use hillview_columnar::{scan_blocks, Block, BlockSink, Column};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Computes min/max/counts and power sums up to order `k` of one column.
#[derive(Debug, Clone)]
pub struct MomentsSketch {
    /// Column name (must be numeric).
    pub column: Arc<str>,
    /// Highest moment order (≥ 1).
    pub k: usize,
}

impl MomentsSketch {
    /// Moments up to order `k` of the named column.
    pub fn new(column: &str, k: usize) -> Self {
        MomentsSketch {
            column: Arc::from(column),
            k: k.max(1),
        }
    }
}

/// Result of a [`MomentsSketch`]: mergeable power sums.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentsSummary {
    /// Present rows.
    pub present: u64,
    /// Missing rows.
    pub missing: u64,
    /// Minimum value, if any row present.
    pub min: Option<f64>,
    /// Maximum value, if any row present.
    pub max: Option<f64>,
    /// `sums[i]` = Σ vⁱ⁺¹ over present rows.
    pub sums: Vec<f64>,
}

impl MomentsSummary {
    fn zero(k: usize) -> Self {
        MomentsSummary {
            present: 0,
            missing: 0,
            min: None,
            max: None,
            sums: vec![0.0; k],
        }
    }

    /// Mean, if any row is present.
    pub fn mean(&self) -> Option<f64> {
        (self.present > 0).then(|| self.sums[0] / self.present as f64)
    }

    /// Population variance, if at least one row present and k ≥ 2.
    pub fn variance(&self) -> Option<f64> {
        if self.present == 0 || self.sums.len() < 2 {
            return None;
        }
        let n = self.present as f64;
        let mean = self.sums[0] / n;
        Some((self.sums[1] / n - mean * mean).max(0.0))
    }
}

impl Summary for MomentsSummary {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.sums.len(), other.sums.len());
        self.present += other.present;
        self.missing += other.missing;
        merge_opt(&mut self.min, other.min, f64::min);
        merge_opt(&mut self.max, other.max, f64::max);
        self.sums
            .iter_mut()
            .zip(other.sums)
            .for_each(|(a, b)| *a += b);
    }
}

/// Layout: `present`, `missing`, `min` and `max` each behind a presence
/// byte, the number of power sums and the sums.
impl Wire for MomentsSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.present);
        w.put_varint(self.missing);
        self.min.encode(w);
        self.max.encode(w);
        self.sums.encode(w);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(MomentsSummary {
            present: r.get_varint()?,
            missing: r.get_varint()?,
            min: Option::<f64>::decode(r)?,
            max: Option::<f64>::decode(r)?,
            sums: Vec::<f64>::decode(r)?,
        })
    }
}

impl Sketch for MomentsSketch {
    type Summary = MomentsSummary;

    fn name(&self) -> &'static str {
        "moments"
    }

    /// Counts and min/max fold back exactly from split sub-ranges; the
    /// floating-point power sums fold deterministically in range order —
    /// the split plan and fold order are fixed, so split execution is
    /// reproducible even though f64 addition is not associative.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<MomentsSummary> {
        struct Sink {
            acc: MomentLanes,
            present: u64,
        }
        impl<T: LaneValue> BlockSink<T> for Sink {
            fn block(&mut self, b: &Block<'_, T>) {
                if b.all_live() {
                    // Fully-live frame: lane-parallel accumulation. The
                    // frame base is 64-aligned, so lane k holds row
                    // `base + k` with `(base + k) % 8 == k % 8`.
                    self.present += b.len() as u64;
                    simd::moments_frame(b.values, &mut self.acc);
                } else {
                    let mut live = b.live();
                    while live != 0 {
                        let k = live.trailing_zeros() as usize;
                        live &= live - 1;
                        self.present += 1;
                        simd::moments_one(
                            b.values[k].lane_f64(),
                            (b.base + k) % simd::MOMENT_LANES,
                            &mut self.acc,
                        );
                    }
                }
            }
            #[inline]
            fn one(&mut self, row: usize, v: T) {
                self.present += 1;
                simd::moments_one(v.lane_f64(), row % simd::MOMENT_LANES, &mut self.acc);
            }
        }

        let col = view.table().column_by_name(&self.column)?;
        let mut out = MomentsSummary::zero(self.k);
        let mut sink = Sink {
            acc: MomentLanes::new(self.k),
            present: 0,
        };
        // Fused filtering keeps absolute row indexes, so the `row % 8` lane
        // assignment — and therefore the power sums — stay bit-identical to
        // the two-pass execution.
        let (scanned, _) = view.scan(scope, None, |sel| match col {
            Column::Double(c) => {
                scan_blocks(
                    sel,
                    c.data(),
                    c.nulls().bitmap(),
                    &mut out.missing,
                    &mut sink,
                );
                Ok(())
            }
            Column::Int(c) | Column::Date(c) => {
                scan_blocks(
                    sel,
                    c.storage(),
                    c.nulls().bitmap(),
                    &mut out.missing,
                    &mut sink,
                );
                Ok(())
            }
            _ => Err(SketchError::BadConfig(format!(
                "moments require a numeric column, {} is {}",
                self.column,
                col.kind()
            ))),
        })?;
        scanned?;
        out.present = sink.present;
        let (min, max, sums) = sink.acc.collapse();
        if out.present > 0 {
            out.min = Some(min);
            out.max = Some(max);
        }
        out.sums = sums;
        Ok(out)
    }

    fn identity(&self) -> MomentsSummary {
        MomentsSummary::zero(self.k)
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        Some(format!("{}|{}", self.column, self.k).into_bytes())
    }
}

impl MomentsSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests and the chunked-vs-rowwise benchmark. Must remain
    /// bit-identical to [`Sketch::summarize`]: it accumulates into the
    /// same eight `row % 8` lanes and collapses them in the same order.
    pub fn summarize_rowwise(&self, view: &TableView, _seed: u64) -> SketchResult<MomentsSummary> {
        let col = view.table().column_by_name(&self.column)?;
        if !col.kind().is_numeric() {
            return Err(SketchError::BadConfig(format!(
                "moments require a numeric column, {} is {}",
                self.column,
                col.kind()
            )));
        }
        let mut out = MomentsSummary::zero(self.k);
        let mut acc = MomentLanes::new(self.k);
        for r in view.iter_rows() {
            match col.as_f64(r) {
                None => out.missing += 1,
                Some(v) => {
                    out.present += 1;
                    simd::moments_one(v, r % simd::MOMENT_LANES, &mut acc);
                }
            }
        }
        let (min, max, sums) = acc.collapse();
        if out.present > 0 {
            out.min = Some(min);
            out.max = Some(max);
        }
        out.sums = sums;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merged;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn view(vals: &[Option<f64>]) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(vals.iter().copied())),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn mean_and_variance() {
        let v = view(&[Some(2.0), Some(4.0), Some(6.0), None]);
        let s = MomentsSketch::new("X", 2)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.present, 3);
        assert_eq!(s.missing, 1);
        assert_eq!(s.mean(), Some(4.0));
        let var = s.variance().unwrap();
        assert!((var - 8.0 / 3.0).abs() < 1e-12, "var={var}");
        assert_eq!(s.min, Some(2.0));
        assert_eq!(s.max, Some(6.0));
    }

    #[test]
    fn higher_moments() {
        let v = view(&[Some(1.0), Some(2.0)]);
        let s = MomentsSketch::new("X", 4)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.sums, vec![3.0, 5.0, 9.0, 17.0]);
    }

    #[test]
    fn merge_matches_whole_scan() {
        let v = view(&[Some(1.0), Some(2.0), Some(3.0), Some(4.0)]);
        let t = v.table().clone();
        let sk = MomentsSketch::new("X", 3);
        let whole = sk.summarize(&v, Scope::ALL, 0).unwrap();
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows(vec![0, 1], 4)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(t, Arc::new(MembershipSet::from_rows(vec![2, 3], 4))),
                Scope::ALL,
                0,
            )
            .unwrap();
        let merged = merged(merged(a, b), sk.identity());
        assert_eq!(merged.present, whole.present);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        for (m, w) in merged.sums.iter().zip(&whole.sums) {
            assert!((m - w).abs() < 1e-9);
        }
    }

    #[test]
    fn non_numeric_column_rejected() {
        use hillview_columnar::column::DictColumn;
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([Some("a")])),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        assert!(matches!(
            MomentsSketch::new("S", 2).summarize(&v, Scope::ALL, 0),
            Err(SketchError::BadConfig(_))
        ));
    }

    #[test]
    fn empty_has_no_mean() {
        let v = view(&[]);
        let s = MomentsSketch::new("X", 2)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn wire_roundtrip() {
        let s = MomentsSummary {
            present: 3,
            missing: 1,
            min: Some(-1.0),
            max: Some(5.0),
            sums: vec![7.0, 35.0],
        };
        assert_eq!(MomentsSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
