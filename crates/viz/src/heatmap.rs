//! The heat-map vizketch (paper §4.3, Fig. 13(d)), and the one rule by
//! which every bucketed chart turns a phase-1 axis summary into the
//! [`BucketSpec`] its phase-2 sketch counts into ([`AxisInfo::bucket_spec`]).

use crate::display::{DisplaySpec, COLOR_SHADES, MAX_STRING_BUCKETS};
use crate::render::ColorGrid;
use crate::samples;
use hillview_sketch::bottomk::BottomKSummary;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::heatmap::{HeatmapSketch, HeatmapSummary};
use hillview_sketch::range::RangeSummary;
use hillview_sketch::traits::{SketchError, SketchResult};
use std::sync::Arc;

/// Heat-map vizketch configuration.
#[derive(Debug, Clone)]
pub struct HeatmapViz {
    /// X-axis column.
    pub col_x: Arc<str>,
    /// Y-axis column.
    pub col_y: Arc<str>,
    /// Target display; bins are `HEATMAP_BIN_PX`² pixels.
    pub display: DisplaySpec,
    /// Exact scan instead of sampling (required for log color scales,
    /// paper App. C.2).
    pub exact: bool,
    /// Error probability δ.
    pub delta: f64,
}

/// Phase-1 information for one chart axis.
#[derive(Debug, Clone)]
pub enum AxisInfo {
    /// Numeric axis: the column's range summary.
    Numeric(RangeSummary),
    /// String axis: bottom-k quantiles over distinct values.
    Strings(BottomKSummary),
}

impl AxisInfo {
    /// The axis cut into (at most) `bins` buckets; `which` names the axis
    /// or column in the error an empty one gets.
    pub fn bucket_spec(&self, bins: usize, which: &str) -> SketchResult<BucketSpec> {
        match self {
            AxisInfo::Numeric(range) => numeric_spec(range, bins, which),
            AxisInfo::Strings(bottomk) => string_spec(bottomk, bins, which),
        }
    }
}

/// `bins` equal buckets over the phase-1 range `[min, max]`, the upper edge
/// nudged above `max` ([`bump_above`]) so the maximum lands in the last
/// bucket of the half-open [`BucketSpec`].
pub(crate) fn numeric_spec(
    range: &RangeSummary,
    bins: usize,
    which: &str,
) -> SketchResult<BucketSpec> {
    match (range.min, range.max) {
        (Some(min), Some(max)) => Ok(BucketSpec::numeric(min, bump_above(min, max), bins)),
        _ => Err(SketchError::BadConfig(format!(
            "{which}: no numeric range (empty or non-numeric)"
        ))),
    }
}

/// Up to `bins` — and never more than [`MAX_STRING_BUCKETS`] — alphabetical
/// buckets from the phase-1 bottom-k quantiles (paper App. B.1 "Equi-width
/// buckets for string data").
pub(crate) fn string_spec(
    bottomk: &BottomKSummary,
    bins: usize,
    which: &str,
) -> SketchResult<BucketSpec> {
    let boundaries = bottomk.bucket_boundaries(bins.min(MAX_STRING_BUCKETS));
    if boundaries.is_empty() {
        return Err(SketchError::BadConfig(format!("{which}: no string values")));
    }
    Ok(BucketSpec::strings(boundaries))
}

/// The smallest double strictly above `max` that still gives a non-empty
/// `[min, hi)` interval; widens degenerate ranges to one unit. The ε term
/// keeps the nudge at least one ulp of `max` however narrow the range is
/// beside its magnitude (a two-minute window of epoch-millisecond dates).
pub(crate) fn bump_above(min: f64, max: f64) -> f64 {
    if max > min {
        let width = max - min;
        max + width * 1e-9 + f64::EPSILON * max.abs().max(1.0)
    } else {
        min + 1.0
    }
}

impl HeatmapViz {
    /// Sampled heat map of `col_x` × `col_y`.
    pub fn new(col_x: &str, col_y: &str, display: DisplaySpec) -> Self {
        HeatmapViz {
            col_x: Arc::from(col_x),
            col_y: Arc::from(col_y),
            display,
            exact: false,
            delta: samples::DEFAULT_DELTA,
        }
    }

    /// Use the exact streaming kernel.
    pub fn exact(mut self) -> Self {
        self.exact = true;
        self
    }

    /// Phase-2 sketch from per-axis phase-1 info and the row count.
    pub fn prepare(
        &self,
        x: &AxisInfo,
        y: &AxisInfo,
        population: u64,
    ) -> SketchResult<HeatmapSketch> {
        let (bx, by) = self.display.heatmap_bins();
        let sx = x.bucket_spec(bx, "X axis")?;
        let sy = y.bucket_spec(by, "Y axis")?;
        if self.exact {
            Ok(HeatmapSketch::streaming(&self.col_x, &self.col_y, sx, sy))
        } else {
            // Prior for the densest cell: uniform over populated cells.
            let cells = (sx.count() * sy.count()) as f64;
            let target = samples::heatmap(COLOR_SHADES, 1.0 / cells.sqrt(), self.delta);
            let rate = samples::rate_for(target, population);
            Ok(HeatmapSketch::sampled(
                &self.col_x,
                &self.col_y,
                sx,
                sy,
                rate,
            ))
        }
    }

    /// Render the merged summary to a color grid with ~20 shades.
    pub fn render(&self, summary: &HeatmapSummary) -> ColorGrid {
        ColorGrid::from_counts(&summary.counts, summary.bx, summary.by, COLOR_SHADES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::Sketch;
    use hillview_sketch::{Scope, TableView};
    use std::sync::Arc as StdArc;

    /// Diagonal ridge: X ≈ Y.
    fn diagonal_view(n: usize) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..n).map(|i| Some((i % 100) as f64)),
                )),
            )
            .column(
                "Y",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..n).map(|i| Some((i % 100) as f64 + 0.25)),
                )),
            )
            .build()
            .unwrap();
        TableView::full(StdArc::new(t))
    }

    #[test]
    fn diagonal_data_renders_a_diagonal() {
        let v = diagonal_view(10_000);
        let viz = HeatmapViz::new("X", "Y", DisplaySpec::new(30, 30)).exact();
        let range_x = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();
        let range_y = RangeSketch::new("Y").summarize(&v, Scope::ALL, 0).unwrap();
        let sketch = viz
            .prepare(
                &AxisInfo::Numeric(range_x.clone()),
                &AxisInfo::Numeric(range_y),
                range_x.present,
            )
            .unwrap();
        let summary = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        let grid = viz.render(&summary);
        assert_eq!((grid.bx, grid.by), (10, 10));
        // Diagonal cells are dense, off-diagonal are empty.
        for i in 0..10 {
            assert!(grid.get(i, i) > 0, "diagonal cell ({i},{i}) empty");
            if i > 1 {
                assert_eq!(grid.get(i, 0), 0, "off-diagonal must be empty");
            }
        }
    }

    #[test]
    fn sampled_rate_uses_population() {
        let v = diagonal_view(1000);
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();
        let viz = HeatmapViz::new("X", "Y", DisplaySpec::new(30, 30));
        let big = viz
            .prepare(
                &AxisInfo::Numeric(range.clone()),
                &AxisInfo::Numeric(range.clone()),
                10_000_000_000,
            )
            .unwrap();
        assert!(big.rate < 0.01, "rate {}", big.rate);
        let small = viz
            .prepare(
                &AxisInfo::Numeric(range.clone()),
                &AxisInfo::Numeric(range),
                100,
            )
            .unwrap();
        assert!(small.rate >= 1.0);
    }

    /// A window narrow beside its magnitude — 1 000 consecutive
    /// epoch-millisecond dates — keeps its maximum in every bucketed chart:
    /// a nudge proportional to the width alone is absorbed by rounding there, the
    /// half-open spec ends *at* the maximum and each chart loses one row.
    #[test]
    fn narrow_date_window_keeps_its_maximum_in_every_chart() {
        use crate::cdf::CdfViz;
        use crate::histogram::HistogramViz;
        use crate::stacked::StackedViz;
        use crate::trellis::TrellisViz;
        use hillview_columnar::column::I64Column;

        let n = 1000u64;
        let t = Table::builder()
            .column(
                "When",
                ColumnKind::Date,
                Column::Date(I64Column::from_options(
                    (0..n as i64).map(|i| Some(1_700_000_000_000 + i)),
                )),
            )
            .column(
                "Shard",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..n as i64).map(|i| Some(i % 4)))),
            )
            .build()
            .unwrap();
        let v = TableView::full(StdArc::new(t));
        let display = DisplaySpec::new(120, 90);
        let range = |c: &str| RangeSketch::new(c).summarize(&v, Scope::ALL, 0).unwrap();
        let (when, shard) = (range("When"), range("Shard"));
        let (when_axis, shard_axis) = (AxisInfo::Numeric(when.clone()), AxisInfo::Numeric(shard));

        let bars = HistogramViz::new("When", display).exact();
        let bars = bars.prepare_numeric(&when).unwrap();
        let bars = bars.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!((bars.total_in_buckets(), bars.out_of_range), (n, 0));

        let cdf = CdfViz::new("When", display).exact().prepare(&when).unwrap();
        let cdf = cdf.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!((cdf.total_in_buckets(), cdf.out_of_range), (n, 0));

        let heat = HeatmapViz::new("When", "Shard", display).exact();
        let heat = heat.prepare(&when_axis, &shard_axis, n).unwrap();
        let heat = heat.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!((heat.counts.iter().sum::<u64>(), heat.out_of_range), (n, 0));

        let stack = StackedViz::new("When", "Shard", display).normalized();
        let stack = stack.prepare(&when_axis, &shard_axis, n).unwrap();
        let stack = stack.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(
            (stack.x_counts.iter().sum::<u64>(), stack.out_of_range),
            (n, 0)
        );
        assert_eq!(stack.xy_counts.iter().sum::<u64>(), n);

        let trellis = TrellisViz::new("Shard", "When", "When", display, 4);
        let trellis = trellis
            .prepare(&shard_axis, &when_axis, &when_axis, n)
            .unwrap();
        assert!(trellis.rate >= 1.0);
        let trellis = trellis.summarize(&v, Scope::ALL, 0).unwrap();
        let cells = trellis.groups.iter().flat_map(|g| &g.counts).sum::<u64>();
        let out = trellis.groups.iter().map(|g| g.out_of_range).sum::<u64>();
        assert_eq!((cells, out, trellis.dropped), (n, 0, 0));
    }

    #[test]
    fn missing_axis_info_is_error() {
        let viz = HeatmapViz::new("X", "Y", DisplaySpec::new(30, 30));
        let empty = AxisInfo::Numeric(RangeSummary::default());
        let ok = AxisInfo::Numeric(RangeSummary {
            present: 1,
            missing: 0,
            min: Some(0.0),
            max: Some(1.0),
            min_str: None,
            max_str: None,
        });
        assert!(viz.prepare(&empty, &ok, 10).is_err());
        assert!(viz.prepare(&ok, &empty, 10).is_err());
    }
}
