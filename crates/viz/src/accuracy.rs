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
    use crate::samples::DEFAULT_DELTA;
    use crate::tableview::TableViewViz;
    use hillview_columnar::column::{Column, F64Column, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, RowKey, SortOrder, Table};
    use hillview_data::{generate_flights, FlightsConfig};
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::{summarize_split, Sketch, Summary};
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

    /// A data shape of the scroll-bar harness.
    struct Shape {
        name: &'static str,
        table: Arc<Table>,
        order: SortOrder,
        /// Each worker holds a disjoint key range, the first 90 % of the
        /// rows and the rest the other 10 %, instead of an even row range.
        skewed: bool,
    }

    /// A one-column `X` table; `key` maps a permutation of `0..n` to `X`.
    fn int_shape(name: &'static str, n: usize, key: impl Fn(i64) -> i64, skewed: bool) -> Shape {
        // 48 271 is coprime with 2 and 5, so for the harness's 40 000 rows
        // this visits every value once.
        let values = (0..n as i64).map(|i| Some(key(i * 48_271 % n as i64)));
        let table = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(values)),
            )
            .build()
            .unwrap();
        Shape {
            name,
            table: Arc::new(table),
            order: SortOrder::ascending(&["X"]),
            skewed,
        }
    }

    fn shapes(n: usize) -> Vec<Shape> {
        let n64 = n as i64;
        // A quarter of the rows share the smallest key, a tenth one in the
        // middle, and every other key holds 16 rows.
        let duplicates = move |p: i64| match p {
            p if p < n64 / 4 => 0,
            p if (n64 / 2..n64 / 2 + n64 / 10).contains(&p) => n64 / 2,
            p => p / 16 * 16,
        };
        let flights = generate_flights(&FlightsConfig::new(n, 7));
        vec![
            int_shape("permutation", n, |p| p, false),
            int_shape("duplicate_keys", n, duplicates, false),
            Shape {
                name: "flights_date_key",
                table: Arc::new(flights),
                order: SortOrder::ascending(&[
                    "Year",
                    "Month",
                    "DayOfMonth",
                    "CRSDepTime",
                    "FlightNum",
                ]),
                skewed: false,
            },
            int_shape("skewed_placement", n, |p| p, true),
        ]
    }

    /// The scroll bar's guarantee, per pixel (App. C.1), as a bound
    /// harness: dragging to pixel `j` of `V` shows the page after a key
    /// whose true rank is within `1/V` of `j/V` — with probability `1 − δ`,
    /// the budget `samples::quantile_resolution` derives. A key stands for
    /// the run of ranks its duplicates fill; the error is the distance from
    /// `j/V` to that run. Run as the engine runs O4 — each worker folds the
    /// leaf ranges of its rows and ships its fold compacted to the
    /// resolution budget, the root merges the weighted runs — over 2 and 8
    /// workers, on four shapes, with a screen small enough that 40 000 rows
    /// are sampled. Prints the worst error and the violating seeds per
    /// shape and worker count, so CI logs show a shrinking margin.
    #[test]
    fn scrollbar_page_lands_within_a_pixel_of_the_drag() {
        const ROWS: usize = 40_000;
        const PX: usize = 40;
        const SEEDS: u64 = 20;
        let (mut runs, mut violations) = (0usize, 0usize);
        for shape in shapes(ROWS) {
            let table = &shape.table;
            let whole = TableView::full(table.clone());
            let mut viz = TableViewViz::new(shape.order.clone(), 20);
            viz.scrollbar_px = PX;
            let sketch = viz.scrollbar_quantile(ROWS as u64);
            assert!(sketch.rate < 1.0, "{}: must actually sample", shape.name);

            // Every row's key, ascending: the exact ranks.
            let resolved = shape.order.resolve(table).unwrap();
            let mut keyed: Vec<(RowKey, u32)> = (0..ROWS)
                .map(|row| (resolved.key(table, row), row as u32))
                .collect();
            keyed.sort();
            let ranks = |key: &RowKey| {
                let lo = keyed.partition_point(|(k, _)| k < key);
                let hi = keyed.partition_point(|(k, _)| k <= key);
                (lo, hi)
            };

            for workers in [2usize, 8] {
                // Worker `w` holds `rows[cut[w]..cut[w + 1]]`.
                let (rows, cut): (Vec<u32>, Vec<usize>) = if shape.skewed {
                    let by_key = keyed.iter().map(|&(_, row)| row).collect();
                    let rest = |w: usize| ROWS * 9 / 10 + (w - 1) * (ROWS / 10) / (workers - 1);
                    let cut = [0].into_iter().chain((1..=workers).map(rest)).collect();
                    (by_key, cut)
                } else {
                    let cut = (0..=workers).map(|w| w * ROWS / workers).collect();
                    ((0..ROWS as u32).collect(), cut)
                };
                let views: Vec<TableView> = cut
                    .windows(2)
                    .map(|w| {
                        let members = MembershipSet::from_rows(rows[w[0]..w[1]].to_vec(), ROWS);
                        TableView::with_members(table.clone(), Arc::new(members))
                    })
                    .collect();

                let (mut worst, mut violated) = (0.0f64, 0usize);
                for seed in 0..SEEDS {
                    let merged = views
                        .iter()
                        .enumerate()
                        .map(|(w, view)| {
                            let leaf_seed = seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            summarize_split(&sketch, view, None, 16_384, leaf_seed)
                                .unwrap()
                                .compact()
                        })
                        .fold(sketch.identity(), |mut acc, s| {
                            acc.merge(s);
                            acc
                        });
                    assert!(merged.keys.len() <= workers * sketch.resolution);
                    let mut run_worst = 0.0f64;
                    for pixel in 0..=PX {
                        let q = viz.pixel_to_quantile(pixel);
                        let start = merged.quantile(q).unwrap();
                        let (lo, hi) = ranks(&start);
                        let rank = |r: usize| r as f64 / ROWS as f64;
                        let px = (rank(lo) - q).max(q - rank(hi)).max(0.0) * PX as f64;
                        assert!(
                            px <= 2.0,
                            "{} over {workers} workers, seed {seed}, pixel {pixel}: {px} px",
                            shape.name
                        );
                        run_worst = run_worst.max(px);
                        // The page O4 shows does start at the row after the key.
                        if seed == 0 && pixel % 10 == 7 {
                            let page = viz
                                .page_after(Some(start.clone()))
                                .summarize(&whole, Scope::ALL, 0)
                                .unwrap();
                            assert_eq!(page.rows[0].0, keyed[hi].0, "{}", shape.name);
                        }
                    }
                    worst = worst.max(run_worst);
                    violated += usize::from(run_worst > 1.0);
                }
                println!(
                    "scroll bar {:<16} {workers} workers: worst {worst:.3} px, \
                     {violated} of {SEEDS} seeds beyond 1 px (K = {})",
                    shape.name, sketch.resolution
                );
                runs += SEEDS as usize;
                violations += violated;
            }
        }
        // Each seed breaks 1/V with probability at most δ; allow three
        // standard deviations over the expected count.
        let expected = runs as f64 * DEFAULT_DELTA;
        let allowed = expected + 3.0 * expected.sqrt();
        assert!(
            violations as f64 <= allowed,
            "{violations} of {runs} seeds beyond 1 px, δ allows {allowed:.1}"
        );
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
