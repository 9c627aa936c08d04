//! The histogram vizketch (paper §4.3, App. B.1, Fig. 13(b)).
//!
//! `prepare` turns phase-1 results (column range or string quantiles, row
//! count) into a parameterized [`HistogramSketch`]; `render` turns the
//! merged summary into a [`BarChart`] whose bars are scaled so the tallest
//! occupies the full height and every bar is within ±½ pixel w.h.p.

use crate::display::DisplaySpec;
use crate::heatmap::{numeric_spec, string_spec};
use crate::render::BarChart;
use crate::samples;
use hillview_sketch::bottomk::BottomKSummary;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::range::RangeSummary;
use hillview_sketch::traits::SketchResult;
use std::sync::Arc;

/// Histogram vizketch configuration.
#[derive(Debug, Clone)]
pub struct HistogramViz {
    /// Column to chart.
    pub column: Arc<str>,
    /// Target display.
    pub display: DisplaySpec,
    /// User-requested bucket count (clamped to what the display fits).
    pub requested_buckets: Option<usize>,
    /// Use the exact streaming kernel instead of sampling (paper §4.3
    /// "Histogram (streaming)": "if users want to get the results precise
    /// to the last digit").
    pub exact: bool,
    /// Error probability δ for the sampled variant.
    pub delta: f64,
}

impl HistogramViz {
    /// Sampled histogram of `column` on `display`.
    pub fn new(column: &str, display: DisplaySpec) -> Self {
        HistogramViz {
            column: Arc::from(column),
            display,
            requested_buckets: None,
            exact: false,
            delta: samples::DEFAULT_DELTA,
        }
    }

    /// Switch to the exact streaming kernel.
    pub fn exact(mut self) -> Self {
        self.exact = true;
        self
    }

    /// Request a specific number of buckets (zooming changes this).
    pub fn with_buckets(mut self, b: usize) -> Self {
        self.requested_buckets = Some(b);
        self
    }

    /// Phase-2 sketch for a numeric column, given the phase-1 range.
    pub fn prepare_numeric(&self, range: &RangeSummary) -> SketchResult<HistogramSketch> {
        let bars = self.display.histogram_buckets(self.requested_buckets);
        let spec = numeric_spec(range, bars, &self.column)?;
        Ok(self.finish_prepare(spec, range.present))
    }

    /// Phase-2 sketch for a string column, given phase-1 bottom-k quantiles
    /// (paper App. B.1 "Equi-width buckets for string data").
    pub fn prepare_strings(&self, bottomk: &BottomKSummary) -> SketchResult<HistogramSketch> {
        let budget = self
            .display
            .string_buckets()
            .min(self.requested_buckets.unwrap_or(usize::MAX));
        let spec = string_spec(bottomk, budget, &self.column)?;
        Ok(self.finish_prepare(spec, bottomk.rows))
    }

    fn finish_prepare(&self, spec: BucketSpec, population: u64) -> HistogramSketch {
        if self.exact {
            HistogramSketch::streaming(&self.column, spec)
        } else {
            let target = samples::histogram(self.display.height_px, self.delta);
            let rate = samples::rate_for(target, population);
            HistogramSketch::sampled(&self.column, spec, rate)
        }
    }

    /// Render the merged summary as a bar chart.
    pub fn render(&self, sketch: &HistogramSketch, summary: &HistogramSummary) -> BarChart {
        let labels = (0..sketch.buckets.count())
            .map(|i| sketch.buckets.label(i))
            .collect();
        BarChart::from_counts(&summary.buckets, self.display.height_px, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::bump_above;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::bottomk::BottomKSketch;
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::Sketch;
    use hillview_sketch::{Scope, TableView};

    fn uniform_view(n: usize) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..n).map(|i| Some((i % 1000) as f64)),
                )),
            )
            .build()
            .unwrap();
        TableView::full(std::sync::Arc::new(t))
    }

    #[test]
    fn two_phase_numeric_flow() {
        let v = uniform_view(100_000);
        let viz = HistogramViz::new("X", DisplaySpec::new(400, 200)).with_buckets(10);
        // Phase 1: range.
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();
        // Phase 2: histogram.
        let sketch = viz.prepare_numeric(&range).unwrap();
        let summary = sketch.summarize(&v, Scope::ALL, 1).unwrap();
        let chart = viz.render(&sketch, &summary);
        assert_eq!(chart.heights_px.len(), 10);
        // Uniform data: all bars within a few pixels of the maximum.
        let max = *chart.heights_px.iter().max().unwrap();
        assert_eq!(max as usize, 200, "tallest bar fills the display");
        for &h in &chart.heights_px {
            assert!(max - h < 20, "uniform bars ragged: {:?}", chart.heights_px);
        }
    }

    #[test]
    fn max_value_lands_in_last_bucket() {
        let v = uniform_view(1000);
        let viz = HistogramViz::new("X", DisplaySpec::default_chart())
            .with_buckets(7)
            .exact();
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();
        let sketch = viz.prepare_numeric(&range).unwrap();
        let summary = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(summary.out_of_range, 0, "range covers min..=max");
        assert_eq!(summary.total_in_buckets(), 1000);
    }

    #[test]
    fn sampled_rate_reflects_population() {
        let viz = HistogramViz::new("X", DisplaySpec::new(400, 100));
        let small = RangeSummary {
            present: 1000,
            missing: 0,
            min: Some(0.0),
            max: Some(1.0),
            min_str: None,
            max_str: None,
        };
        let huge = RangeSummary {
            present: 1_000_000_000,
            ..small.clone()
        };
        let s1 = viz.prepare_numeric(&small).unwrap();
        let s2 = viz.prepare_numeric(&huge).unwrap();
        assert!((s1.rate - 1.0).abs() < 1e-12, "small data: scan everything");
        assert!(s2.rate < 0.01, "big data: aggressive sampling");
    }

    #[test]
    fn exact_flag_disables_sampling() {
        let viz = HistogramViz::new("X", DisplaySpec::default_chart()).exact();
        let range = RangeSummary {
            present: 1_000_000_000,
            missing: 0,
            min: Some(0.0),
            max: Some(1.0),
            min_str: None,
            max_str: None,
        };
        assert!(viz.prepare_numeric(&range).unwrap().rate >= 1.0);
    }

    #[test]
    fn string_histogram_flow() {
        use hillview_columnar::column::DictColumn;
        let vals: Vec<String> = (0..500).map(|i| format!("k{:03}", i % 60)).collect();
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(
                    vals.iter().map(|s| Some(s.as_str())),
                )),
            )
            .build()
            .unwrap();
        let v = TableView::full(std::sync::Arc::new(t));
        let viz = HistogramViz::new("S", DisplaySpec::new(200, 100)).exact();
        let bk = BottomKSketch::new("S", 512)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let sketch = viz.prepare_strings(&bk).unwrap();
        assert!(sketch.buckets.count() <= 50);
        let summary = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(summary.total_in_buckets(), 500);
    }

    #[test]
    fn empty_range_is_an_error() {
        let viz = HistogramViz::new("X", DisplaySpec::default_chart());
        let empty = RangeSummary::default();
        assert!(viz.prepare_numeric(&empty).is_err());
    }

    #[test]
    fn degenerate_range_widens() {
        assert_eq!(bump_above(5.0, 5.0), 6.0);
        assert!(bump_above(0.0, 10.0) > 10.0);
        let spec = BucketSpec::numeric(5.0, bump_above(5.0, 5.0), 3);
        assert_eq!(spec.index_of_f64(5.0), Some(0));
    }
}
