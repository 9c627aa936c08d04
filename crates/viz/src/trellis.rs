//! Trellis plots: arrays of heat maps grouped by a column (paper App. B.1).
//!
//! *"A heat map trellis plot produces k heat maps, each for a fixed range
//! of values wᵢ in column W. ... because the rendering area is limited to
//! H×V, a large number of heat maps means that each heat map is small."*
//! The trellis sketch computes all k heat maps in one pass; its summary is
//! a vector of heat-map summaries and merges group-wise.

use crate::display::{DisplaySpec, COLOR_SHADES};
use crate::heatmap::AxisInfo;
use crate::render::ColorGrid;
use crate::samples;
use hillview_columnar::MembershipSet;
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use hillview_sketch::buckets::{grid_cells, BucketSpec};
use hillview_sketch::heatmap::{HeatmapSketch, HeatmapSummary};
use hillview_sketch::traits::{Sketch, SketchError, SketchResult, Summary};
use hillview_sketch::view::two_pass;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

/// Trellis-of-heat-maps sketch: group column W, then X×Y per group.
#[derive(Debug, Clone)]
pub struct TrellisSketch {
    /// Grouping column W.
    pub col_w: Arc<str>,
    /// X column of each inner heat map.
    pub col_x: Arc<str>,
    /// Y column of each inner heat map.
    pub col_y: Arc<str>,
    /// Buckets for W (one heat map per bucket).
    pub buckets_w: BucketSpec,
    /// Shared X buckets.
    pub buckets_x: BucketSpec,
    /// Shared Y buckets.
    pub buckets_y: BucketSpec,
    /// Sampling rate (`>= 1.0` exact).
    pub rate: f64,
}

/// One heat map per W bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct TrellisSummary {
    /// Per-group heat maps, indexed by W bucket.
    pub groups: Vec<HeatmapSummary>,
    /// Rows whose W was missing or out of range.
    pub dropped: u64,
}

impl Summary for TrellisSummary {
    fn merge(&self, other: &Self) -> Self {
        if self.groups.is_empty() {
            return other.clone();
        }
        if other.groups.is_empty() {
            return self.clone();
        }
        debug_assert_eq!(self.groups.len(), other.groups.len());
        TrellisSummary {
            groups: self
                .groups
                .iter()
                .zip(&other.groups)
                .map(|(a, b)| a.merge(b))
                .collect(),
            dropped: self.dropped + other.dropped,
        }
    }
}

/// Layout: group count, each group's heat map — all of them against the
/// frame's one expansion budget — then `dropped`.
impl Wire for TrellisSummary {
    fn encode(&self, w: &mut WireWriter) {
        self.groups.encode(w);
        w.put_varint(self.dropped);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(TrellisSummary {
            groups: Vec::decode(r)?,
            dropped: r.get_varint()?,
        })
    }
}

impl Sketch for TrellisSketch {
    type Summary = TrellisSummary;

    fn name(&self) -> &'static str {
        "trellis-heatmap"
    }

    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<TrellisSummary> {
        let (w, x, y) = (&self.buckets_w, &self.buckets_x, &self.buckets_y);
        grid_cells(&[w.count(), x.count(), y.count()])?;
        let view = &two_pass(self.name(), view, scope)?;
        // Reuse the heat-map kernel per group by restricting rows: simple
        // and correct, though it scans W once per group. Group counts are
        // small (k ≤ ~16 on any real display).
        let table = view.table();
        let bound = bind_w(table.column_by_name(&self.col_w)?, &self.buckets_w)?;
        // Partition rows by W bucket.
        let mut groups_rows: Vec<Vec<u32>> = vec![Vec::new(); self.buckets_w.count()];
        let mut dropped = 0u64;
        for row in view.iter_rows() {
            match bound(row) {
                Some(g) => groups_rows[g].push(row as u32),
                None => dropped += 1,
            }
        }
        let (bx, by) = (self.buckets_x.clone(), self.buckets_y.clone());
        let inner = HeatmapSketch::sampled(&self.col_x, &self.col_y, bx, by, self.rate);
        let mut groups = Vec::with_capacity(groups_rows.len());
        for (g, rows) in groups_rows.into_iter().enumerate() {
            let members = MembershipSet::from_rows(rows, table.num_rows());
            let sub = TableView::with_members(table.clone(), Arc::new(members));
            let group_seed = seed ^ (g as u64).wrapping_mul(0x9E37);
            groups.push(inner.summarize(&sub, Scope::ALL, group_seed)?);
        }
        Ok(TrellisSummary { groups, dropped })
    }

    fn identity(&self) -> TrellisSummary {
        TrellisSummary {
            groups: (0..self.buckets_w.count())
                .map(|_| HeatmapSummary::zero(self.buckets_x.count(), self.buckets_y.count()))
                .collect(),
            dropped: 0,
        }
    }
}

/// Bind the W column to its bucket spec, returning a row→group closure.
fn bind_w<'a>(
    col: &'a hillview_columnar::Column,
    spec: &'a BucketSpec,
) -> SketchResult<Box<dyn Fn(usize) -> Option<usize> + 'a>> {
    match (spec, col.as_dict_col()) {
        (BucketSpec::Strings { .. }, Some(dict)) => {
            let code_bucket: Vec<Option<usize>> = dict
                .dictionary()
                .iter()
                .map(|s| spec.index_of_str(s))
                .collect();
            Ok(Box::new(move |row: usize| {
                if dict.nulls().is_null(row) {
                    None
                } else {
                    code_bucket[dict.code(row) as usize]
                }
            }))
        }
        (BucketSpec::Numeric { .. }, None) if col.kind().is_numeric() => {
            Ok(Box::new(move |row: usize| {
                col.as_f64(row).and_then(|v| spec.index_of_f64(v))
            }))
        }
        _ => Err(SketchError::BadConfig(format!(
            "trellis group column {} incompatible with its bucket spec",
            col.kind()
        ))),
    }
}

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
        let spec_of = |info: &AxisInfo, bins: usize, which: &str| -> SketchResult<BucketSpec> {
            match info {
                AxisInfo::Numeric(range) => {
                    let (min, max) = match (range.min, range.max) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(SketchError::BadConfig(format!(
                                "{which} axis has no numeric range"
                            )))
                        }
                    };
                    let hi = if max > min {
                        max + (max - min) * 1e-9
                    } else {
                        min + 1.0
                    };
                    Ok(BucketSpec::numeric(min, hi, bins))
                }
                AxisInfo::Strings(bk) => {
                    let b = bk.bucket_boundaries(bins);
                    if b.is_empty() {
                        return Err(SketchError::BadConfig(format!(
                            "{which} axis has no string values"
                        )));
                    }
                    Ok(BucketSpec::strings(b))
                }
            }
        };
        // Smaller cells ⇒ fewer bins ⇒ smaller sample (paper: "this
        // requires a smaller sample size than rendering a single heat map").
        let cells = (bx * by) as f64;
        let target = samples::heatmap(COLOR_SHADES, 1.0 / cells.sqrt(), self.delta);
        let rate = samples::rate_for(target, population);
        Ok(TrellisSketch {
            col_w: self.col_w.clone(),
            col_x: self.col_x.clone(),
            col_y: self.col_y.clone(),
            buckets_w: spec_of(w, self.groups, "W")?,
            buckets_x: spec_of(x, bx, "X")?,
            buckets_y: spec_of(y, by, "Y")?,
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
    use hillview_sketch::bottomk::BottomKSketch;
    use hillview_sketch::range::RangeSketch;
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
        let a = sketch
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
        assert_eq!(a.merge(&b), whole);
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
