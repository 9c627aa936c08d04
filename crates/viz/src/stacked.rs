//! Stacked and normalized stacked histograms (paper §4.3, Fig. 13(c)).

use crate::display::{DisplaySpec, MAX_STACK_COLORS};
use crate::heatmap::AxisInfo;
use crate::render::scale_to_pixels;
use crate::samples;
use hillview_sketch::stacked::{StackedHistogramSketch, StackedSummary};
use hillview_sketch::traits::SketchResult;
use std::sync::Arc;

/// Stacked-histogram vizketch configuration.
#[derive(Debug, Clone)]
pub struct StackedViz {
    /// Bar (X) column.
    pub col_x: Arc<str>,
    /// Subdivision (Y) column — at most ~20 colors.
    pub col_y: Arc<str>,
    /// Target display.
    pub display: DisplaySpec,
    /// Normalize every bar to full height (“Ditto but bars normalized”,
    /// Fig. 2). Normalization amplifies small bars, so the kernel must run
    /// exactly (paper App. B.1).
    pub normalized: bool,
    /// Requested X bucket count.
    pub requested_buckets: Option<usize>,
    /// Error probability δ.
    pub delta: f64,
}

/// A rendered stacked histogram: bars of stacked colored segments.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedRendering {
    /// Total bar heights in pixels.
    pub bar_px: Vec<u32>,
    /// Per bar, per color: segment heights in pixels (sum ≤ bar height).
    pub segments_px: Vec<Vec<u32>>,
    /// Vertical resolution.
    pub height_px: usize,
    /// Count represented by the tallest bar.
    pub max_count: u64,
}

impl StackedViz {
    /// Sampled stacked histogram.
    pub fn new(col_x: &str, col_y: &str, display: DisplaySpec) -> Self {
        StackedViz {
            col_x: Arc::from(col_x),
            col_y: Arc::from(col_y),
            display,
            normalized: false,
            requested_buckets: None,
            delta: samples::DEFAULT_DELTA,
        }
    }

    /// Normalize bars to 100% (forces the exact kernel).
    #[cfg(test)]
    pub(crate) fn normalized(mut self) -> Self {
        self.normalized = true;
        self
    }

    /// Request a specific number of X buckets.
    #[cfg(test)]
    pub(crate) fn with_buckets(mut self, b: usize) -> Self {
        self.requested_buckets = Some(b);
        self
    }

    /// Phase-2 sketch from per-axis phase-1 info.
    pub fn prepare(
        &self,
        x: &AxisInfo,
        y: &AxisInfo,
        population: u64,
    ) -> SketchResult<StackedHistogramSketch> {
        let bx = self.display.histogram_buckets(self.requested_buckets);
        let sx = x.bucket_spec(bx, "X axis")?;
        let sy = y.bucket_spec(MAX_STACK_COLORS, "Y axis")?;
        if self.normalized {
            // Normalized bars need exact counts (App. B.1).
            Ok(StackedHistogramSketch::streaming(
                &self.col_x,
                &self.col_y,
                sx,
                sy,
            ))
        } else {
            let target = samples::histogram(self.display.height_px, self.delta);
            let rate = samples::rate_for(target, population);
            Ok(StackedHistogramSketch::sampled(
                &self.col_x,
                &self.col_y,
                sx,
                sy,
                rate,
            ))
        }
    }

    /// Render the merged summary.
    pub fn render(&self, summary: &StackedSummary) -> StackedRendering {
        let v = self.display.height_px;
        let max_count = summary.x_counts.iter().copied().max().unwrap_or(0);
        let mut bar_px = Vec::with_capacity(summary.bx);
        let mut segments_px = Vec::with_capacity(summary.bx);
        for x in 0..summary.bx {
            let bar_total = summary.x_counts[x];
            let bar_height = if self.normalized {
                if bar_total > 0 {
                    v as u32
                } else {
                    0
                }
            } else {
                scale_to_pixels(bar_total, max_count, v)
            };
            bar_px.push(bar_height);
            // Subdivisions share the bar's pixels proportionally to their
            // counts (relative to the bar total, so missing-Y rows leave an
            // uncolored remainder).
            let mut segs = Vec::with_capacity(summary.by);
            for y in 0..summary.by {
                let c = summary.get(x, y);
                let px = if bar_total == 0 {
                    0
                } else {
                    ((c as f64 / bar_total as f64) * bar_height as f64).round() as u32
                };
                segs.push(px);
            }
            segments_px.push(segs);
        }
        StackedRendering {
            bar_px,
            segments_px,
            height_px: v,
            max_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::bottomk::BottomKSketch;
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::Sketch;
    use hillview_sketch::{Scope, TableView};
    use std::sync::Arc as StdArc;

    /// Hours 0..10; type alternates a/b with ratio depending on hour.
    fn view() -> TableView {
        let n = 1000usize;
        let hours: Vec<Option<i64>> = (0..n).map(|i| Some((i % 10) as i64)).collect();
        let kinds: Vec<Option<&str>> = (0..n)
            .map(|i| Some(if (i % 10) < 5 { "alpha" } else { "beta" }))
            .collect();
        let t = Table::builder()
            .column(
                "Hour",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(hours)),
            )
            .column(
                "Kind",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(kinds)),
            )
            .build()
            .unwrap();
        TableView::full(StdArc::new(t))
    }

    fn prepare_and_run(viz: &StackedViz, v: &TableView) -> StackedSummary {
        let rx = RangeSketch::new("Hour")
            .summarize(v, Scope::ALL, 0)
            .unwrap();
        let by = BottomKSketch::new("Kind", 64)
            .summarize(v, Scope::ALL, 0)
            .unwrap();
        let sketch = viz
            .prepare(
                &AxisInfo::Numeric(rx.clone()),
                &AxisInfo::Strings(by),
                rx.present,
            )
            .unwrap();
        sketch.summarize(v, Scope::ALL, 0).unwrap()
    }

    #[test]
    fn stacked_bars_and_segments() {
        let v = view();
        let viz = StackedViz::new("Hour", "Kind", DisplaySpec::new(40, 100)).with_buckets(10);
        let summary = prepare_and_run(&viz, &v);
        let r = viz.render(&summary);
        assert_eq!(r.bar_px.len(), 10);
        // Uniform hours: all bars full height.
        assert!(r.bar_px.iter().all(|&b| b == 100), "{:?}", r.bar_px);
        // Hours < 5 are all alpha; hours >= 5 all beta.
        assert_eq!(r.segments_px[0][0], 100, "alpha segment fills bar 0");
        assert_eq!(r.segments_px[0][1], 0);
        assert_eq!(r.segments_px[9][0], 0);
        assert_eq!(r.segments_px[9][1], 100);
    }

    #[test]
    fn normalized_fills_every_bar() {
        // Make hour counts wildly uneven.
        let n = 1000usize;
        let hours: Vec<Option<i64>> = (0..n)
            .map(|i| Some(if i % 100 == 0 { 9 } else { 0 }))
            .collect();
        let kinds: Vec<Option<&str>> = (0..n).map(|_| Some("alpha")).collect();
        let t = Table::builder()
            .column(
                "Hour",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(hours)),
            )
            .column(
                "Kind",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(kinds)),
            )
            .build()
            .unwrap();
        let v = TableView::full(StdArc::new(t));
        let viz = StackedViz::new("Hour", "Kind", DisplaySpec::new(40, 100))
            .with_buckets(10)
            .normalized();
        let summary = prepare_and_run(&viz, &v);
        let r = viz.render(&summary);
        // Both populated bars reach full height despite 99:1 count skew.
        assert_eq!(r.bar_px[0], 100);
        assert_eq!(r.bar_px[9], 100);
        // Empty bars stay empty.
        assert_eq!(r.bar_px[5], 0);
    }

    #[test]
    fn normalized_forces_exact_kernel() {
        let v = view();
        let rx = RangeSketch::new("Hour")
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let by = BottomKSketch::new("Kind", 64)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let viz = StackedViz::new("Hour", "Kind", DisplaySpec::new(40, 100)).normalized();
        let sketch = viz
            .prepare(
                &AxisInfo::Numeric(rx),
                &AxisInfo::Strings(by),
                1_000_000_000,
            )
            .unwrap();
        assert!(sketch.rate >= 1.0, "normalized must not sample");
    }

    #[test]
    fn segment_pixels_bounded_by_bar() {
        let v = view();
        let viz = StackedViz::new("Hour", "Kind", DisplaySpec::new(40, 64)).with_buckets(5);
        let r = viz.render(&prepare_and_run(&viz, &v));
        for (bar, segs) in r.bar_px.iter().zip(&r.segments_px) {
            let sum: u32 = segs.iter().sum();
            assert!(sum <= bar + 1, "segments {sum} overflow bar {bar}");
        }
    }
}
