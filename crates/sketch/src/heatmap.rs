//! Two-dimensional bucket counts (heat maps).
//!
//! Paper §4.3: *"The summarize function samples data with the target rate,
//! counting the number of values that fall in each bin. It outputs a matrix
//! of Bx×By bin counts. The merge function adds two such matrices."*

use crate::bind::{scan_cells, BoundColumn, Cell};
use crate::buckets::{add_counts, grid_cells, BucketSpec};
use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::row_sampled;
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Heat map sketch over two columns.
#[derive(Debug, Clone)]
pub struct HeatmapSketch {
    /// X-axis column.
    pub col_x: Arc<str>,
    /// Y-axis column.
    pub col_y: Arc<str>,
    /// X bucket boundaries.
    pub buckets_x: BucketSpec,
    /// Y bucket boundaries.
    pub buckets_y: BucketSpec,
    /// Sampling rate; `>= 1.0` is exact. Sampling is only sound when the
    /// count→color map is linear (paper §4.3 footnote).
    pub rate: f64,
}

impl HeatmapSketch {
    /// Exact heat map.
    pub fn streaming(col_x: &str, col_y: &str, bx: BucketSpec, by: BucketSpec) -> Self {
        HeatmapSketch {
            col_x: Arc::from(col_x),
            col_y: Arc::from(col_y),
            buckets_x: bx,
            buckets_y: by,
            rate: 1.0,
        }
    }

    /// Sampled heat map.
    pub fn sampled(col_x: &str, col_y: &str, bx: BucketSpec, by: BucketSpec, rate: f64) -> Self {
        HeatmapSketch {
            rate,
            ..Self::streaming(col_x, col_y, bx, by)
        }
    }
}

/// A Bx×By count matrix in row-major order (`counts[x * by + y]`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeatmapSummary {
    /// X bucket count.
    pub bx: usize,
    /// Y bucket count.
    pub by: usize,
    /// Bin counts, row-major by X.
    pub counts: Vec<u64>,
    /// Rows where either coordinate was missing.
    pub missing: u64,
    /// Rows where either coordinate was out of range.
    pub out_of_range: u64,
    /// Rows inspected.
    pub rows_inspected: u64,
}

impl HeatmapSummary {
    /// Zero matrix of the given shape.
    pub fn zero(bx: usize, by: usize) -> Self {
        HeatmapSummary {
            bx,
            by,
            counts: vec![0; bx * by],
            ..Default::default()
        }
    }

    /// Count in cell (x, y).
    #[cfg(test)]
    fn get(&self, x: usize, y: usize) -> u64 {
        self.counts[x * self.by + y]
    }

    /// Count one row whose X and Y *cells* (see [`scan_cells`]) are `x` and
    /// `y`: missing if either is, else out of range if either is.
    #[inline]
    pub(crate) fn tally(&mut self, x: u32, y: u32) {
        let (x, y) = (x as usize, y as usize);
        if x > self.bx || y > self.by {
            self.missing += 1;
        } else if x == self.bx || y == self.by {
            self.out_of_range += 1;
        } else {
            self.counts[x * self.by + y] += 1;
        }
    }
}

impl Summary for HeatmapSummary {
    fn merge(&mut self, other: Self) {
        if add_counts([&mut self.counts], [other.counts]) {
            (self.bx, self.by) = (other.bx, other.by);
        }
        self.missing += other.missing;
        self.out_of_range += other.out_of_range;
        self.rows_inspected += other.rows_inspected;
    }
}

/// Layout: `bx`, `by`, the `bx · by` cells as counts (zero runs, or
/// sparse — the non-empty cells' gaps and counts patched — where that is
/// shorter; see [`WireWriter::put_counts`]), `missing`, `out_of_range`,
/// `rows_inspected`.
impl Wire for HeatmapSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.bx as u64);
        w.put_varint(self.by as u64);
        w.put_counts(&self.counts);
        w.put_varint(self.missing);
        w.put_varint(self.out_of_range);
        w.put_varint(self.rows_inspected);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let bx = r.get_len("heatmap bx")?;
        let by = r.get_len("heatmap by")?;
        Ok(HeatmapSummary {
            bx,
            by,
            counts: r.get_counts(bx.saturating_mul(by))?,
            missing: r.get_varint()?,
            out_of_range: r.get_varint()?,
            rows_inspected: r.get_varint()?,
        })
    }
}

impl Sketch for HeatmapSketch {
    type Summary = HeatmapSummary;

    fn name(&self) -> &'static str {
        "heatmap"
    }

    /// Matrix counts are integers, so split partials fold back to exactly
    /// the unsplit summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<HeatmapSummary> {
        let cx = view.table().column_by_name(&self.col_x)?;
        let cy = view.table().column_by_name(&self.col_y)?;
        let bx = BoundColumn::bind(cx, &self.buckets_x)?;
        let by = BoundColumn::bind(cy, &self.buckets_y)?;
        grid_cells(&[self.buckets_x.count(), self.buckets_y.count()])?;
        let mut out = self.identity();
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        out.rows_inspected = scan_cells(view, scope, sample, [&bx, &by], |[x, y]| out.tally(x, y))?;
        Ok(out)
    }

    fn identity(&self) -> HeatmapSummary {
        HeatmapSummary::zero(self.buckets_x.count(), self.buckets_y.count())
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

impl HeatmapSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, seed: u64) -> SketchResult<HeatmapSummary> {
        let cx = view.table().column_by_name(&self.col_x)?;
        let cy = view.table().column_by_name(&self.col_y)?;
        let bx = BoundColumn::bind(cx, &self.buckets_x)?;
        let by = BoundColumn::bind(cy, &self.buckets_y)?;
        let mut out = HeatmapSummary::zero(self.buckets_x.count(), self.buckets_y.count());
        let width_y = out.by;
        let mut tally = |row: usize| {
            out.rows_inspected += 1;
            match (bx.bucket(row), by.bucket(row)) {
                (Cell::In(x), Cell::In(y)) => out.counts[x * width_y + y] += 1,
                (Cell::Missing, _) | (_, Cell::Missing) => out.missing += 1,
                _ => out.out_of_range += 1,
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
    use hillview_columnar::column::{Column, DictColumn, F64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn view() -> TableView {
        // 8 rows on a 2x2 grid plus a missing and an out-of-range row.
        let xs = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 0.0, f64::NAN, 100.0];
        let ys = ["a", "a", "n", "a", "n", "n", "n", "n", "a", "a"];
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(xs.iter().map(|&v| Some(v)))),
            )
            .column(
                "Y",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(ys.iter().map(|&s| Some(s)))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    fn sketch() -> HeatmapSketch {
        HeatmapSketch::streaming(
            "X",
            "Y",
            BucketSpec::numeric(0.0, 10.0, 2),
            BucketSpec::strings(vec!["a".into(), "n".into()]),
        )
    }

    #[test]
    fn counts_land_in_cells() {
        let s = sketch().summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.get(0, 0), 2, "x<5, y=a*");
        assert_eq!(s.get(0, 1), 2, "x<5, y=n*");
        assert_eq!(s.get(1, 0), 1);
        assert_eq!(s.get(1, 1), 3);
        assert_eq!(s.missing, 1);
        assert_eq!(s.out_of_range, 1);
    }

    #[test]
    fn merge_law_on_partitions() {
        let v = view();
        let t = v.table().clone();
        let parts = vec![
            TableView::with_members(
                t.clone(),
                Arc::new(MembershipSet::from_rows((0..5).collect(), 10)),
            ),
            TableView::with_members(t, Arc::new(MembershipSet::from_rows((5..10).collect(), 10))),
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
    fn sampled_heatmap_is_deterministic() {
        let sk = HeatmapSketch::sampled(
            "X",
            "Y",
            BucketSpec::numeric(0.0, 10.0, 2),
            BucketSpec::strings(vec!["a".into(), "n".into()]),
            0.5,
        );
        let v = view();
        assert_eq!(
            sk.summarize(&v, Scope::ALL, 7).unwrap(),
            sk.summarize(&v, Scope::ALL, 7).unwrap()
        );
    }

    #[test]
    fn wire_roundtrip() {
        let s = sketch().summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(HeatmapSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn summary_size_is_screen_bound_not_data_bound() {
        // The serialized summary of a 2x2 heat map must stay small no matter
        // how many rows were scanned — the core vizketch property.
        let s = sketch().summarize(&view(), Scope::ALL, 0).unwrap();
        assert!(s.to_bytes().len() < 64);
    }
}
