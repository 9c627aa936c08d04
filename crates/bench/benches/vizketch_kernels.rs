//! Criterion microbenchmarks of the sketch kernels (single thread).
//!
//! Complements the `figures micro` table (§7.2.1): per-kernel throughput on
//! one million rows, including the row-store DB baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hillview_baseline::RowDb;
use hillview_columnar::SortOrder;
use hillview_data::{generate_flights, FlightsConfig};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::heatmap::HeatmapSketch;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::nextk::NextKSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

const ROWS: usize = 1_000_000;

fn flights_view() -> TableView {
    let t = generate_flights(&FlightsConfig::new(ROWS, 0xBEEF));
    TableView::full(Arc::new(t))
}

fn bench_kernels(c: &mut Criterion) {
    let view = flights_view();
    let mut g = c.benchmark_group("vizketch_1M_rows");
    g.sample_size(10);

    let spec = BucketSpec::numeric(-100.0, 600.0, 100);
    let streaming = HistogramSketch::streaming("DepDelay", spec.clone());
    g.bench_function("histogram_streaming", |b| {
        b.iter(|| streaming.summarize(&view, Scope::ALL, 0).unwrap())
    });

    let sampled = HistogramSketch::sampled("DepDelay", spec, 0.05);
    let mut seed = 0u64;
    g.bench_function("histogram_sampled_5pct", |b| {
        b.iter(|| {
            seed += 1;
            sampled.summarize(&view, Scope::ALL, seed).unwrap()
        })
    });

    let heatmap = HeatmapSketch::streaming(
        "Distance",
        "AirTime",
        BucketSpec::numeric(0.0, 3000.0, 200),
        BucketSpec::numeric(0.0, 500.0, 66),
    );
    g.bench_function("heatmap_streaming", |b| {
        b.iter(|| heatmap.summarize(&view, Scope::ALL, 0).unwrap())
    });

    let nextk = NextKSketch::first_page(SortOrder::ascending(&["Carrier", "DepDelay"]), 20);
    g.bench_function("next_items_k20", |b| {
        b.iter(|| nextk.summarize(&view, Scope::ALL, 0).unwrap())
    });

    let hll = DistinctSketch::new("TailNum");
    g.bench_function("distinct_hll", |b| {
        b.iter(|| hll.summarize(&view, Scope::ALL, 0).unwrap())
    });

    let mg = MisraGriesSketch::new("Carrier", 14);
    g.bench_function("heavy_hitters_mg", |b| {
        b.iter(|| mg.summarize(&view, Scope::ALL, 0).unwrap())
    });

    g.finish();
}

fn bench_db_baseline(c: &mut Criterion) {
    let t = generate_flights(&FlightsConfig::new(ROWS, 0xBEEF));
    let mut g = c.benchmark_group("baseline_1M_rows");
    g.sample_size(10);
    g.bench_function("rowdb_histogram", |b| {
        b.iter_batched(
            || {
                let mut db = RowDb::create(&["DepDelay"]);
                db.insert_table(&t);
                db
            },
            |db| db.histogram("DepDelay", -100.0, 600.0, 100),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_db_baseline);
criterion_main!(benches);
