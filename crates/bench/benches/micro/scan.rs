//! Each case runs one vizketch kernel over identical data through the
//! block scan path (`summarize`) and the per-row reference path
//! (`summarize_rowwise`). Views cover the membership representations that
//! matter: full, contiguous range (coalesced bitmap words), alternating
//! dense bitmap, sparse, and a null-heavy column. The `simd_*` cases time
//! the hot kernels under the vector codegen (whichever tier the CPU
//! supports) against the forced-scalar fallback — same process, same
//! data, different codegen.

use super::data::ROWS;
use hillview_bench::harness::{forced_scalar, Registered, Suite};
use hillview_columnar::column::{Column, DictColumn, F64Column};
use hillview_columnar::{ColumnKind, MembershipSet, Table};
use hillview_net::Wire;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::heatmap::HeatmapSketch;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub const SUITE: Registered = Registered {
    name: "scan",
    about: "chunked vs per-row scan and simd vs forced-scalar codegen of the hot kernels over \
            1M rows (median ns per summarize); every pair asserted byte-identical before timing",
    run,
};

/// 1M-row table: clean Double, 30%-null Double, and a skewed category.
fn table() -> Arc<Table> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut next = move || rng.gen::<u64>();
    let dense: Vec<Option<f64>> = (0..ROWS)
        .map(|_| Some((next() % 10_000) as f64 / 10.0))
        .collect();
    let holey: Vec<Option<f64>> = (0..ROWS)
        .map(|_| {
            let v = next();
            (v % 10 >= 3).then_some((v % 10_000) as f64 / 10.0)
        })
        .collect();
    let cats = [
        "whale", "shark", "tuna", "cod", "eel", "crab", "squid", "ray",
    ];
    // Skewed: half the rows land on the first category.
    let skewed = (0..ROWS).map(|_| match next() % 16 {
        v if v < 8 => cats[0],
        v => cats[(v % 8) as usize],
    });
    let skewed = Column::Cat(DictColumn::from_strings(skewed.map(Some)));
    let double = |values| Column::Double(F64Column::from_options(values));
    let t = Table::builder()
        .column("X", ColumnKind::Double, double(dense))
        .column("H", ColumnKind::Double, double(holey))
        .column("C", ColumnKind::Category, skewed)
        .build();
    Arc::new(t.unwrap())
}

/// One chunked-vs-rowwise case. A macro because `summarize_rowwise` is an
/// inherent method of each sketch, not part of the `Sketch` trait.
macro_rules! pair {
    ($suite:expr, $name:literal, $sketch:expr, $view:expr, $seed:expr) => {{
        let chunked = || $sketch.summarize(&$view, Scope::ALL, $seed).unwrap();
        let rowwise = || $sketch.summarize_rowwise(&$view, $seed).unwrap();
        assert_eq!(
            chunked().to_bytes(),
            rowwise().to_bytes(),
            "chunked and rowwise diverge in {}",
            $name
        );
        $suite
            .case($name)
            .time("chunked", chunked)
            .time("rowwise", rowwise)
            .ratio("speedup", "rowwise", "chunked");
    }};
}

/// One kernel under both codegens.
fn simd_pair<S: Sketch>(suite: &mut Suite, name: &str, sketch: &S, view: &TableView) {
    let kernel = || sketch.summarize(view, Scope::ALL, 0).unwrap();
    assert_eq!(
        kernel().to_bytes(),
        forced_scalar(kernel).to_bytes(),
        "simd and scalar diverge in {name}"
    );
    suite
        .case(name)
        .time("simd", kernel)
        .time_scalar("scalar", kernel)
        .ratio("simd_speedup", "scalar", "simd");
}

fn run(suite: &mut Suite) {
    let t = table();
    let full = TableView::full(t.clone());
    let members = |rows: Vec<u32>| {
        TableView::with_members(t.clone(), Arc::new(MembershipSet::from_rows(rows, ROWS)))
    };
    let range = members((100_000u32..900_000).collect());
    let dense = members((0..ROWS as u32).filter(|r| r % 2 == 0).collect());
    let sparse = members((0..ROWS as u32).step_by(20).collect());

    let buckets = || BucketSpec::numeric(0.0, 1000.0, 100);
    let hist = HistogramSketch::streaming("X", buckets());
    let hist_nulls = HistogramSketch::streaming("H", buckets());
    let hist_sampled = HistogramSketch::sampled("X", buckets(), 0.05);
    let moments = MomentsSketch::new("X", 2);
    let mg = MisraGriesSketch::new("C", 8);
    let heat = HeatmapSketch::streaming(
        "X",
        "C",
        BucketSpec::numeric(0.0, 1000.0, 50),
        BucketSpec::strings(vec!["cod".into(), "shark".into(), "tuna".into()]),
    );

    pair!(suite, "histogram_1M_full", hist, full, 0);
    pair!(suite, "histogram_1M_null30pct", hist_nulls, full, 0);
    pair!(suite, "histogram_800k_range_filter", hist, range, 0);
    pair!(suite, "histogram_500k_bitmap_filter", hist, dense, 0);
    pair!(suite, "histogram_50k_sparse_filter", hist, sparse, 0);
    pair!(suite, "histogram_1M_sampled_5pct", hist_sampled, full, 7);
    pair!(suite, "moments_1M_full", moments, full, 0);
    pair!(suite, "misra_gries_1M_category", mg, full, 0);

    simd_pair(suite, "simd_histogram_1M_full", &hist, &full);
    simd_pair(suite, "simd_histogram_1M_null30pct", &hist_nulls, &full);
    simd_pair(suite, "simd_moments_1M_full", &moments, &full);
    simd_pair(suite, "simd_heatmap_1M_full", &heat, &full);
}
