//! Stacked-histogram kernel: X bucket totals plus (X, Y) subdivision counts.
//!
//! Paper §4.3 / App. B.1: *"The stacked histogram represents counts in two
//! ways: (1) the height of each histogram bar represents counts of bins of X
//! (like a histogram), (2) the height of a subdivision of a bar represents
//! counts of a bin of Y within the bin of X of that bar. ... The function
//! outputs a small vector of Bx + Bx×By bin counts."* The normalized variant
//! uses this same kernel without sampling (App. B.1).

use crate::bind::{scan_cells, BoundColumn, Cell};
use crate::buckets::{add_counts, grid_cells, BucketSpec};
use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::row_sampled;
use hillview_net::{Error as WireError, Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Stacked histogram sketch over an X column subdivided by a Y column.
#[derive(Debug, Clone)]
pub struct StackedHistogramSketch {
    /// Bar (X) column.
    pub col_x: Arc<str>,
    /// Subdivision (Y) column.
    pub col_y: Arc<str>,
    /// X bucket boundaries.
    pub buckets_x: BucketSpec,
    /// Y bucket boundaries (≤ ~20 colors; paper: "the human eye cannot
    /// distinguish many colors reliably").
    pub buckets_y: BucketSpec,
    /// Sampling rate; `>= 1.0` is exact. Normalized stacked histograms must
    /// use 1.0 (App. B.1).
    pub rate: f64,
}

impl StackedHistogramSketch {
    /// Exact stacked histogram.
    pub fn streaming(col_x: &str, col_y: &str, bx: BucketSpec, by: BucketSpec) -> Self {
        StackedHistogramSketch {
            col_x: Arc::from(col_x),
            col_y: Arc::from(col_y),
            buckets_x: bx,
            buckets_y: by,
            rate: 1.0,
        }
    }

    /// Sampled stacked histogram.
    pub fn sampled(col_x: &str, col_y: &str, bx: BucketSpec, by: BucketSpec, rate: f64) -> Self {
        StackedHistogramSketch {
            rate,
            ..Self::streaming(col_x, col_y, bx, by)
        }
    }
}

/// `Bx` bar totals plus `Bx×By` subdivision counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StackedSummary {
    /// Number of X buckets.
    pub bx: usize,
    /// Number of Y buckets.
    pub by: usize,
    /// Per-bar totals (count of rows in the X bucket, any Y).
    pub x_counts: Vec<u64>,
    /// Subdivision counts, row-major by X.
    pub xy_counts: Vec<u64>,
    /// Rows with X missing.
    pub missing: u64,
    /// Rows with X out of range.
    pub out_of_range: u64,
    /// Rows inspected.
    pub rows_inspected: u64,
}

impl StackedSummary {
    /// Zero summary of the given shape.
    pub fn zero(bx: usize, by: usize) -> Self {
        StackedSummary {
            bx,
            by,
            x_counts: vec![0; bx],
            xy_counts: vec![0; bx * by],
            ..Default::default()
        }
    }

    /// Subdivision count for (x, y).
    pub fn get(&self, x: usize, y: usize) -> u64 {
        self.xy_counts[x * self.by + y]
    }
}

impl Summary for StackedSummary {
    fn merge(&mut self, other: Self) {
        let mine = [&mut self.x_counts, &mut self.xy_counts];
        if add_counts(mine, [other.x_counts, other.xy_counts]) {
            (self.bx, self.by) = (other.bx, other.by);
        }
        self.missing += other.missing;
        self.out_of_range += other.out_of_range;
        self.rows_inspected += other.rows_inspected;
    }
}

/// Layout: `bx`, `by`, each bar's residual — its total less its
/// subdivisions, the rows whose Y is missing or out of range — and then the
/// `bx · by` subdivisions, each as counts (zero runs, or sparse where that
/// is shorter; see [`WireWriter::put_counts`]), `missing`,
/// `out_of_range`, `rows_inspected`. The decoder adds each bar's
/// subdivisions back to its residual, and refuses a bar past `u64`.
impl Wire for StackedSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.bx as u64);
        w.put_varint(self.by as u64);
        let bars = self.x_counts.iter().enumerate();
        let residuals: Vec<u64> = bars
            .map(|(x, &total)| {
                let cells = self.xy_counts.get(x * self.by..(x + 1) * self.by);
                let cells = cells.unwrap_or_default().iter();
                let subdivided = cells.fold(0, |sum: u64, &c| sum.wrapping_add(c));
                debug_assert!(subdivided <= total, "a bar counts its subdivisions");
                total.wrapping_sub(subdivided)
            })
            .collect();
        w.put_counts(&residuals);
        w.put_counts(&self.xy_counts);
        w.put_varint(self.missing);
        w.put_varint(self.out_of_range);
        w.put_varint(self.rows_inspected);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let bx = r.get_len("stacked bx")?;
        let by = r.get_len("stacked by")?;
        let mut x_counts = r.get_counts(bx)?;
        let xy_counts = r.get_counts(bx.saturating_mul(by))?;
        for (total, cells) in x_counts.iter_mut().zip(xy_counts.chunks(by.max(1))) {
            let bar = cells.iter().try_fold(*total, |sum, &c| sum.checked_add(c));
            *total = bar.ok_or(WireError::BadLength {
                context: "stacked bar past u64",
                len: *total,
            })?;
        }
        Ok(StackedSummary {
            bx,
            by,
            x_counts,
            xy_counts,
            missing: r.get_varint()?,
            out_of_range: r.get_varint()?,
            rows_inspected: r.get_varint()?,
        })
    }
}

impl Sketch for StackedHistogramSketch {
    type Summary = StackedSummary;

    fn name(&self) -> &'static str {
        "stacked-histogram"
    }

    /// Bar and subdivision counts are integers, so split partials fold back
    /// to exactly the unsplit summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<StackedSummary> {
        let cx = view.table().column_by_name(&self.col_x)?;
        let cy = view.table().column_by_name(&self.col_y)?;
        let bound_x = BoundColumn::bind(cx, &self.buckets_x)?;
        let bound_y = BoundColumn::bind(cy, &self.buckets_y)?;
        // Bar totals and subdivisions together.
        let (bx, by) = (self.buckets_x.count(), self.buckets_y.count());
        grid_cells(&[bx, by.saturating_add(1)])?;
        let mut out = StackedSummary::zero(bx, by);
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        let cols = [&bound_x, &bound_y];
        out.rows_inspected = scan_cells(view, scope, sample, cols, |[x, y]| {
            let (x, y) = (x as usize, y as usize);
            if x > bx {
                out.missing += 1;
            } else if x == bx {
                out.out_of_range += 1;
            } else {
                // The bar counts every row in the X bucket, even when Y is
                // missing or out of range (paper: bar height is the X
                // histogram); only in-range Y contributes a subdivision.
                out.x_counts[x] += 1;
                if y < by {
                    out.xy_counts[x * by + y] += 1;
                }
            }
        })?;
        Ok(out)
    }

    fn identity(&self) -> StackedSummary {
        StackedSummary::zero(self.buckets_x.count(), self.buckets_y.count())
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        (self.rate >= 1.0).then(|| {
            format!(
                "{}|{}|{:?}|{:?}",
                self.col_x, self.col_y, self.buckets_x, self.buckets_y
            )
            .into_bytes()
        })
    }
}

impl StackedHistogramSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, seed: u64) -> SketchResult<StackedSummary> {
        let cx = view.table().column_by_name(&self.col_x)?;
        let cy = view.table().column_by_name(&self.col_y)?;
        let bound_x = BoundColumn::bind(cx, &self.buckets_x)?;
        let bound_y = BoundColumn::bind(cy, &self.buckets_y)?;
        let mut out = StackedSummary::zero(self.buckets_x.count(), self.buckets_y.count());
        let width_y = out.by;
        let mut tally = |row: usize| {
            out.rows_inspected += 1;
            match bound_x.bucket(row) {
                Cell::Missing => out.missing += 1,
                Cell::Out => out.out_of_range += 1,
                Cell::In(x) => {
                    out.x_counts[x] += 1;
                    if let Cell::In(y) = bound_y.bucket(row) {
                        out.xy_counts[x * width_y + y] += 1;
                    }
                }
            }
        };
        for row in view.iter_rows() {
            if row_sampled(row as u64, self.rate, seed) {
                tally(row);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{merge_law_holds, merged};
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn view() -> TableView {
        let hours = [1i64, 1, 1, 8, 8, 8, 8, 1];
        let kinds = [
            Some("get"),
            Some("put"),
            Some("get"),
            Some("get"),
            None,
            Some("put"),
            Some("zzz-unbucketed"),
            Some("get"),
        ];
        let t = Table::builder()
            .column(
                "Hour",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(hours.iter().map(|&h| Some(h)))),
            )
            .column(
                "Kind",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(kinds)),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    fn sketch() -> StackedHistogramSketch {
        StackedHistogramSketch::streaming(
            "Hour",
            "Kind",
            BucketSpec::numeric(0.0, 10.0, 2),
            // Two Y buckets: get..put, put..(open); "zzz" lands in bucket 1.
            BucketSpec::strings(vec!["get".into(), "put".into()]),
        )
    }

    #[test]
    fn bar_totals_include_unsubdivided_rows() {
        let s = sketch().summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.x_counts, vec![4, 4]);
        // Bucket (0..5): rows 0,1,2,7 → get,put,get,get.
        assert_eq!(s.get(0, 0), 3);
        assert_eq!(s.get(0, 1), 1);
        // Bucket (5..10): get, missing, put, zzz → subdivisions 1 and 2; the
        // missing-Y row counts toward the bar but no subdivision.
        assert_eq!(s.get(1, 0), 1);
        assert_eq!(s.get(1, 1), 2, "put + zzz share the open last bucket");
        let subdivided: u64 = s.xy_counts.iter().sum();
        assert_eq!(subdivided, 7, "one row has missing Y");
    }

    #[test]
    fn merge_law_on_partitions() {
        let v = view();
        let t = v.table().clone();
        let parts = vec![
            TableView::with_members(
                t.clone(),
                Arc::new(MembershipSet::from_rows((0..3).collect(), 8)),
            ),
            TableView::with_members(t, Arc::new(MembershipSet::from_rows((3..8).collect(), 8))),
        ];
        assert!(merge_law_holds(&sketch(), &v, &parts, 0));
    }

    #[test]
    fn identity_is_unit() {
        let sk = sketch();
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(merged(sk.identity(), s.clone()), s);
        assert_eq!(merged(s.clone(), sk.identity()), s);
    }

    #[test]
    fn wire_roundtrip() {
        let s = sketch().summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(StackedSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn summary_has_bx_plus_bxby_counts() {
        let s = sketch().summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.x_counts.len(), 2);
        assert_eq!(s.xy_counts.len(), 4);
    }
}
