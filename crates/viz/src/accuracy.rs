//! Rendering-accuracy verification (paper Fig. 3 / Fig. 13).
//!
//! The paper's central guarantee: *"Charts in Hillview have an error of at
//! most 1/2 pixel or one color shade with high probability."* These helpers
//! compare a sampled rendering against the exact rendering of the same data
//! and report the worst-case pixel/shade deviation; the test suites and the
//! `figures -- accuracy` harness use them to validate the guarantee
//! empirically.

use crate::cdf::CdfRendering;
use crate::render::{BarChart, ColorGrid};

/// Largest per-bar pixel difference between two bar charts of equal width.
pub fn max_bar_pixel_error(a: &BarChart, b: &BarChart) -> u32 {
    assert_eq!(a.heights_px.len(), b.heights_px.len(), "bar count mismatch");
    a.heights_px
        .iter()
        .zip(&b.heights_px)
        .map(|(x, y)| x.abs_diff(*y))
        .max()
        .unwrap_or(0)
}

/// Largest per-pixel difference between two CDF curves.
pub fn max_cdf_pixel_error(a: &CdfRendering, b: &CdfRendering) -> u32 {
    assert_eq!(a.heights_px.len(), b.heights_px.len(), "width mismatch");
    a.heights_px
        .iter()
        .zip(&b.heights_px)
        .map(|(x, y)| x.abs_diff(*y))
        .max()
        .unwrap_or(0)
}

/// Largest per-cell shade difference between two color grids.
pub fn max_shade_error(a: &ColorGrid, b: &ColorGrid) -> u8 {
    assert_eq!((a.bx, a.by), (b.bx, b.by), "grid shape mismatch");
    a.cells
        .iter()
        .zip(&b.cells)
        .map(|(x, y)| x.abs_diff(*y))
        .max()
        .unwrap_or(0)
}

/// Fraction of bars whose error exceeds `tolerance_px` — the empirical δ.
pub fn bar_error_rate(a: &BarChart, b: &BarChart, tolerance_px: u32) -> f64 {
    if a.heights_px.is_empty() {
        return 0.0;
    }
    let bad = a
        .heights_px
        .iter()
        .zip(&b.heights_px)
        .filter(|(x, y)| x.abs_diff(**y) > tolerance_px)
        .count();
    bad as f64 / a.heights_px.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::DisplaySpec;
    use crate::histogram::HistogramViz;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::Sketch;
    use hillview_sketch::{Scope, TableView};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn skewed_view(n: usize) -> TableView {
        let mut rng = SmallRng::seed_from_u64(99);
        let vals: Vec<Option<f64>> = (0..n)
            .map(|_| {
                let v: f64 = rng.gen::<f64>();
                Some(v * v * 100.0) // quadratic skew
            })
            .collect();
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(vals)),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn error_metrics_basics() {
        let a = BarChart {
            heights_px: vec![10, 20, 30],
            height_px: 100,
            max_count: 30,
            labels: vec![],
        };
        let b = BarChart {
            heights_px: vec![11, 18, 30],
            height_px: 100,
            max_count: 30,
            labels: vec![],
        };
        assert_eq!(max_bar_pixel_error(&a, &b), 2);
        assert_eq!(bar_error_rate(&a, &b, 1), 1.0 / 3.0);
        assert_eq!(bar_error_rate(&a, &a, 0), 0.0);
    }

    /// The paper's guarantee, tested end to end: a sampled histogram's
    /// rendering is within ~1 pixel of the exact rendering (½-px estimation
    /// + ½-px quantization), for the vast majority of bars.
    #[test]
    fn sampled_histogram_respects_pixel_guarantee() {
        let v = skewed_view(400_000);
        let display = DisplaySpec::new(200, 100);
        let range = RangeSketch::new("X").summarize(&v, Scope::ALL, 0).unwrap();

        let exact_viz = HistogramViz::new("X", display).with_buckets(40).exact();
        let exact_sketch = exact_viz.prepare_numeric(&range).unwrap();
        let exact = exact_viz.render(
            &exact_sketch,
            &exact_sketch.summarize(&v, Scope::ALL, 0).unwrap(),
        );

        let viz = HistogramViz::new("X", display).with_buckets(40);
        let sketch = viz.prepare_numeric(&range).unwrap();
        assert!(sketch.rate < 1.0, "must actually sample");
        // Repeat over several seeds: the guarantee is probabilistic.
        let mut worst = 0u32;
        for seed in 0..5 {
            let sampled = viz.render(&sketch, &sketch.summarize(&v, Scope::ALL, seed).unwrap());
            worst = worst.max(max_bar_pixel_error(&exact, &sampled));
        }
        assert!(worst <= 2, "worst-case bar error {worst}px (paper: ~1px)");
    }

    #[test]
    #[should_panic(expected = "bar count mismatch")]
    fn mismatched_charts_rejected() {
        let a = BarChart {
            heights_px: vec![1],
            height_px: 10,
            max_count: 1,
            labels: vec![],
        };
        let b = BarChart {
            heights_px: vec![1, 2],
            height_px: 10,
            max_count: 2,
            labels: vec![],
        };
        let _ = max_bar_pixel_error(&a, &b);
    }
}
