//! Rendering-accuracy verification (paper Fig. 3 / Fig. 13).
//!
//! The paper's central guarantee: *"Charts in Hillview have an error of at
//! most 1/2 pixel or one color shade with high probability."* These helpers
//! compare a sampled rendering against the exact rendering of the same data
//! and report the worst-case pixel/shade deviation; the test suites and the
//! `figures -- accuracy` harness use them to validate the guarantee
//! empirically.

use crate::cdf::CdfRendering;
use crate::render::BarChart;

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

    /// The scroll bar's guarantee, per pixel (App. C.1): dragging to pixel
    /// `j` of `V` shows a page whose first row has true relative rank
    /// within `1/V` of `j/V`. Run as the engine runs O4 — each worker folds
    /// the leaf ranges of its rows and ships its fold compacted to the
    /// resolution budget, the root merges the weighted runs — over 2 and 8
    /// workers, so the test also pins that the error does not grow with
    /// the worker count. The sort column is a permutation of `0..n`: the
    /// row after key `k` is `k + 1`, at rank `k + 1`.
    #[test]
    fn scrollbar_page_lands_within_a_pixel_of_the_drag() {
        use crate::tableview::TableViewViz;
        use hillview_columnar::column::I64Column;
        use hillview_columnar::{MembershipSet, SortOrder, Value};
        use hillview_sketch::traits::{summarize_split, Summary};

        let n = 200_000usize;
        // 48 271 is coprime with 200 000, so this visits every value once.
        let values = (0..n as i64).map(|i| Some(i * 48_271 % n as i64));
        let table = Arc::new(
            Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(values)),
                )
                .build()
                .unwrap(),
        );
        let whole = TableView::full(table.clone());
        let viz = TableViewViz::new(SortOrder::ascending(&["X"]), 20);
        let sketch = viz.scrollbar_quantile(n as u64);
        assert!(sketch.rate < 1.0, "must actually sample");
        let key_of = |key: &hillview_columnar::RowKey| match key.values()[0] {
            Value::Int(x) => x,
            ref other => panic!("non-int key {other:?}"),
        };

        for workers in [2usize, 8] {
            let views: Vec<TableView> = (0..workers)
                .map(|w| {
                    let rows = (w * n / workers) as u32..((w + 1) * n / workers) as u32;
                    TableView::with_members(
                        table.clone(),
                        Arc::new(MembershipSet::from_rows(rows.collect(), n)),
                    )
                })
                .collect();
            for seed in 0..10u64 {
                let merged = views
                    .iter()
                    .enumerate()
                    .map(|(w, view)| {
                        let leaf_seed = seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        summarize_split(&sketch, view, None, 16_384, leaf_seed)
                            .unwrap()
                            .compact()
                    })
                    .fold(sketch.identity(), |acc, s| acc.merge(&s));
                assert!(merged.keys.len() <= workers * sketch.resolution);
                for pixel in 0..=viz.scrollbar_px {
                    let q = viz.pixel_to_quantile(pixel);
                    let start = merged.quantile(q).unwrap();
                    let first_row_rank = (key_of(&start) + 1) as f64 / n as f64;
                    assert!(
                        (first_row_rank - q).abs() <= 1.0 / viz.scrollbar_px as f64,
                        "{workers} workers, seed {seed}, pixel {pixel}: rank {first_row_rank}"
                    );
                    // The page O4 shows does start at the row after the key.
                    if seed == 0 && pixel % 50 == 37 {
                        let page = viz
                            .page_after(Some(start.clone()))
                            .summarize(&whole, Scope::ALL, 0)
                            .unwrap();
                        assert_eq!(key_of(&page.rows[0].0), key_of(&start) + 1);
                    }
                }
            }
        }
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
