//! Trellis plots: arrays of heat maps grouped by a column (paper App. B.1).
//!
//! *"A heat map trellis plot produces k heat maps, each for a fixed range
//! of values wᵢ in column W. ... because the rendering area is limited to
//! H×V, a large number of heat maps means that each heat map is small."*
//! The kernel is [`hillview_sketch::trellis`]; this module sizes it to the
//! display — near-square grid, per-cell bins, the smaller sample — and
//! renders its groups.

use crate::display::{DisplaySpec, COLOR_SHADES};
use crate::heatmap::AxisInfo;
use crate::render::ColorGrid;
use crate::samples;
use hillview_sketch::traits::SketchResult;
use hillview_sketch::trellis::{TrellisSketch, TrellisSummary};
use std::sync::Arc;

/// Trellis vizketch configuration.
#[derive(Debug, Clone)]
pub struct TrellisViz {
    /// Grouping column.
    pub col_w: Arc<str>,
    /// Inner heat-map X column.
    pub col_x: Arc<str>,
    /// Inner heat-map Y column.
    pub col_y: Arc<str>,
    /// Whole-surface display; cells divide it.
    pub display: DisplaySpec,
    /// Number of trellis cells (W buckets).
    pub groups: usize,
    /// Error probability.
    pub delta: f64,
}

impl TrellisViz {
    /// Trellis of `groups` heat maps of `col_x`×`col_y`, grouped by `col_w`.
    pub fn new(col_w: &str, col_x: &str, col_y: &str, display: DisplaySpec, groups: usize) -> Self {
        TrellisViz {
            col_w: Arc::from(col_w),
            col_x: Arc::from(col_x),
            col_y: Arc::from(col_y),
            display,
            groups: groups.clamp(1, 16),
            delta: samples::DEFAULT_DELTA,
        }
    }

    /// Grid layout: near-square `rows × cols ≥ groups`.
    pub fn layout(&self) -> (usize, usize) {
        let cols = (self.groups as f64).sqrt().ceil() as usize;
        let rows = self.groups.div_ceil(cols);
        (rows, cols)
    }

    /// Phase-2 sketch from phase-1 info for W, X, and Y.
    pub fn prepare(
        &self,
        w: &AxisInfo,
        x: &AxisInfo,
        y: &AxisInfo,
        population: u64,
    ) -> SketchResult<TrellisSketch> {
        let (rows, cols) = self.layout();
        let cell = self.display.trellis_cell(rows, cols);
        let (bx, by) = cell.heatmap_bins();
        // Smaller cells ⇒ fewer bins ⇒ smaller sample (paper: "this
        // requires a smaller sample size than rendering a single heat map").
        let cells = (bx * by) as f64;
        let target = samples::heatmap(COLOR_SHADES, 1.0 / cells.sqrt(), self.delta);
        let rate = samples::rate_for(target, population);
        Ok(TrellisSketch {
            col_w: self.col_w.clone(),
            col_x: self.col_x.clone(),
            col_y: self.col_y.clone(),
            buckets_w: w.bucket_spec(self.groups, "W axis")?,
            buckets_x: x.bucket_spec(bx, "X axis")?,
            buckets_y: y.bucket_spec(by, "Y axis")?,
            rate,
        })
    }

    /// Render each group to a color grid.
    pub fn render(&self, summary: &TrellisSummary) -> Vec<ColorGrid> {
        summary
            .groups
            .iter()
            .map(|g| ColorGrid::from_counts(&g.counts, g.bx, g.by, COLOR_SHADES))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, DictColumn, F64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};
    use hillview_net::Wire;
    use hillview_sketch::bottomk::BottomKSketch;
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::{Sketch, Summary};
    use hillview_sketch::{Scope, TableView};
    use std::sync::Arc as StdArc;

    /// Three datacenters; dc0 rows cluster low-X, dc2 rows high-X.
    fn view() -> TableView {
        let n = 3000usize;
        let dcs = ["dc0", "dc1", "dc2"];
        let w: Vec<Option<&str>> = (0..n).map(|i| Some(dcs[i % 3])).collect();
        let x: Vec<Option<f64>> = (0..n).map(|i| Some((i % 3) as f64 * 30.0 + 5.0)).collect();
        let y: Vec<Option<f64>> = (0..n).map(|i| Some((i % 50) as f64)).collect();
        let t = Table::builder()
            .column(
                "DC",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(w)),
            )
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(x)),
            )
            .column(
                "Y",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(y)),
            )
            .build()
            .unwrap();
        TableView::full(StdArc::new(t))
    }

    fn prepared(v: &TableView) -> (TrellisViz, TrellisSketch) {
        let viz = TrellisViz::new("DC", "X", "Y", DisplaySpec::new(120, 120), 3);
        let bw = BottomKSketch::new("DC", 64)
            .summarize(v, Scope::ALL, 0)
            .unwrap();
        let rx = RangeSketch::new("X").summarize(v, Scope::ALL, 0).unwrap();
        let ry = RangeSketch::new("Y").summarize(v, Scope::ALL, 0).unwrap();
        let sketch = viz
            .prepare(
                &AxisInfo::Strings(bw),
                &AxisInfo::Numeric(rx.clone()),
                &AxisInfo::Numeric(ry),
                rx.present,
            )
            .unwrap();
        (viz, sketch)
    }

    #[test]
    fn groups_partition_the_data() {
        let v = view();
        let (_viz, sketch) = prepared(&v);
        let s = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(s.groups.len(), 3);
        let total: u64 = s.groups.iter().map(|g| g.rows_inspected).sum();
        assert_eq!(total + s.dropped, 3000);
        // Each dc got 1000 rows.
        for g in &s.groups {
            assert_eq!(g.rows_inspected, 1000);
        }
    }

    #[test]
    fn per_group_distributions_differ() {
        let v = view();
        let (viz, sketch) = prepared(&v);
        let s = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        let grids = viz.render(&s);
        assert_eq!(grids.len(), 3);
        // dc0's mass is in low-X cells; dc2's in high-X cells.
        let mass_low: u64 = (0..grids[0].by).map(|y| grids[0].get(0, y) as u64).sum();
        assert!(mass_low > 0, "dc0 has low-X mass");
        let last_x = grids[2].bx - 1;
        let mass_high: u64 = (0..grids[2].by)
            .map(|y| grids[2].get(last_x, y) as u64)
            .sum();
        assert!(mass_high > 0, "dc2 has high-X mass");
    }

    #[test]
    fn merge_law_groupwise() {
        let v = view();
        let (_viz, sketch) = prepared(&v);
        let t = v.table().clone();
        let whole = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        let mut a = sketch
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    StdArc::new(MembershipSet::from_rows((0..1500).collect(), 3000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = sketch
            .summarize(
                &TableView::with_members(
                    t,
                    StdArc::new(MembershipSet::from_rows((1500..3000).collect(), 3000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        a.merge(b);
        assert_eq!(a, whole);
    }

    #[test]
    fn layout_is_near_square() {
        let viz = TrellisViz::new("W", "X", "Y", DisplaySpec::new(100, 100), 6);
        let (rows, cols) = viz.layout();
        assert!(rows * cols >= 6);
        assert!(cols <= 3 && rows <= 3);
    }

    #[test]
    fn wire_roundtrip() {
        let v = view();
        let (_viz, sketch) = prepared(&v);
        let s = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(TrellisSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
