//! The CDF vizketch (paper App. B.1, Fig. 13(a)).
//!
//! A CDF plot has one bucket per *horizontal pixel*; the rendering plots,
//! for each pixel column `h`, the fraction of data ≤ the value represented
//! by `h`, quantized to the vertical resolution. Sampling to ±0.1/V per
//! pixel keeps the drawn curve within 0.6/V of truth (App. B.1), i.e. at
//! most one pixel off.

use crate::display::DisplaySpec;
use crate::heatmap::numeric_spec;
use crate::samples;
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::range::RangeSummary;
use hillview_sketch::traits::SketchResult;
use std::sync::Arc;

/// CDF vizketch configuration.
#[derive(Debug, Clone)]
pub struct CdfViz {
    /// Column to plot.
    pub column: Arc<str>,
    /// Target display: one bucket per horizontal pixel.
    pub display: DisplaySpec,
    /// Exact scan instead of sampling.
    pub exact: bool,
    /// Error probability δ.
    pub delta: f64,
}

/// A rendered CDF: for each horizontal pixel, the curve height in pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfRendering {
    /// Curve height (0..=height_px) per horizontal pixel, non-decreasing.
    pub heights_px: Vec<u32>,
    /// Vertical resolution.
    pub height_px: usize,
    /// Rows included in the estimate (sampled count).
    pub rows: u64,
}

impl CdfViz {
    /// Sampled CDF of `column` on `display`.
    pub fn new(column: &str, display: DisplaySpec) -> Self {
        CdfViz {
            column: Arc::from(column),
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

    /// Phase-2 sketch from the phase-1 range: a histogram with one bucket
    /// per horizontal pixel.
    pub fn prepare(&self, range: &RangeSummary) -> SketchResult<HistogramSketch> {
        let spec = numeric_spec(range, self.display.width_px, &self.column)?;
        if self.exact {
            Ok(HistogramSketch::streaming(&self.column, spec))
        } else {
            let target = samples::cdf(self.display.height_px, self.delta);
            let rate = samples::rate_for(target, range.present);
            Ok(HistogramSketch::sampled(&self.column, spec, rate))
        }
    }

    /// Render the merged per-pixel histogram as a cumulative curve.
    pub fn render(&self, summary: &HistogramSummary) -> CdfRendering {
        let total: u64 = summary.total_in_buckets() + summary.out_of_range;
        let v = self.display.height_px as f64;
        let mut heights = Vec::with_capacity(summary.buckets.len());
        let mut acc = 0u64;
        for &b in &summary.buckets {
            acc += b;
            let frac = if total == 0 {
                0.0
            } else {
                acc as f64 / total as f64
            };
            heights.push((frac * v).round() as u32);
        }
        CdfRendering {
            heights_px: heights,
            height_px: self.display.height_px,
            rows: summary.rows_inspected,
        }
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

    fn uniform_view(n: usize) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..n).map(|i| Some(i as f64 / n as f64)),
                )),
            )
            .build()
            .unwrap();
        TableView::full(StdArc::new(t))
    }

    #[test]
    fn uniform_data_renders_a_straight_line() {
        let v = uniform_view(50_000);
        let viz = CdfViz::new("X", DisplaySpec::new(100, 100)).exact();
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();
        let sketch = viz.prepare(&range).unwrap();
        let summary = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        let cdf = viz.render(&summary);
        assert_eq!(cdf.heights_px.len(), 100);
        // Monotone non-decreasing, ends at full height.
        assert!(cdf.heights_px.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.heights_px.last().unwrap(), 100);
        // Straight line: pixel h ≈ h+1 high.
        for (h, &y) in cdf.heights_px.iter().enumerate() {
            assert!(
                (y as i64 - (h as i64 + 1)).abs() <= 1,
                "pixel {h} height {y}"
            );
        }
    }

    #[test]
    fn sampled_cdf_within_one_pixel_of_exact() {
        let v = uniform_view(600_000);
        let display = DisplaySpec::new(80, 50);
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();

        let exact_viz = CdfViz::new("X", display).exact();
        let exact = exact_viz.render(
            &exact_viz
                .prepare(&range)
                .unwrap()
                .summarize(&v, Scope::ALL, 0)
                .unwrap(),
        );

        let viz = CdfViz::new("X", display);
        let sketch = viz.prepare(&range).unwrap();
        assert!(sketch.rate < 1.0, "should sample on 600k rows");
        let cdf = viz.render(&sketch.summarize(&v, Scope::ALL, 3).unwrap());

        let max_err = cdf
            .heights_px
            .iter()
            .zip(&exact.heights_px)
            .map(|(a, b)| (*a as i64 - *b as i64).unsigned_abs())
            .max()
            .unwrap();
        assert!(max_err <= 1, "max pixel error {max_err} (paper: ≤ 1)");
    }

    #[test]
    fn skewed_distribution_bends_the_curve() {
        // 90% of mass in the lowest decile.
        let vals: Vec<Option<f64>> = (0..10_000)
            .map(|i| Some(if i % 10 < 9 { 0.05 } else { 0.95 }))
            .collect();
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(vals)),
            )
            .build()
            .unwrap();
        let v = TableView::full(StdArc::new(t));
        let viz = CdfViz::new("X", DisplaySpec::new(100, 100)).exact();
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();
        let cdf = viz.render(
            &viz.prepare(&range)
                .unwrap()
                .summarize(&v, Scope::ALL, 0)
                .unwrap(),
        );
        // After the first 10% of pixels the curve is already at ~90 px.
        assert!(cdf.heights_px[15] >= 85, "{}", cdf.heights_px[15]);
    }

    #[test]
    fn empty_range_is_error() {
        let viz = CdfViz::new("X", DisplaySpec::default_chart());
        assert!(viz.prepare(&RangeSummary::default()).is_err());
    }
}
