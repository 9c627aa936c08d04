//! The heat-map vizketch (paper §4.3, Fig. 13(d)).

use crate::display::{DisplaySpec, COLOR_SHADES};
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

/// Phase-1 information for one heat-map axis.
#[derive(Debug, Clone)]
pub enum AxisInfo {
    /// Numeric axis: the column's range summary.
    Numeric(RangeSummary),
    /// String axis: bottom-k quantiles over distinct values.
    Strings(BottomKSummary),
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

    fn axis_spec(info: &AxisInfo, bins: usize, which: &str) -> SketchResult<BucketSpec> {
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
                let boundaries = bk.bucket_boundaries(bins.min(crate::display::MAX_STRING_BUCKETS));
                if boundaries.is_empty() {
                    return Err(SketchError::BadConfig(format!(
                        "{which} axis has no string values"
                    )));
                }
                Ok(BucketSpec::strings(boundaries))
            }
        }
    }

    /// Phase-2 sketch from per-axis phase-1 info and the row count.
    pub fn prepare(
        &self,
        x: &AxisInfo,
        y: &AxisInfo,
        population: u64,
    ) -> SketchResult<HeatmapSketch> {
        let (bx, by) = self.display.heatmap_bins();
        let sx = Self::axis_spec(x, bx, "X")?;
        let sy = Self::axis_spec(y, by, "Y")?;
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
