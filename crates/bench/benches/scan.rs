//! Chunked vs. per-row scan benchmarks (the tentpole measurement for the
//! block scan pipeline), plus simd-on vs forced-scalar pairs.
//!
//! Each case runs the same vizketch kernel twice over identical data: once
//! through the block scan path (`summarize`) and once through the per-row
//! reference path (`summarize_rowwise`). Views cover the membership
//! representations that matter: full, contiguous-range (coalesced bitmap
//! words), alternating dense bitmap, sparse, and a null-heavy column.
//!
//! A second table of cases times each hot kernel under the vector codegen
//! (whichever tier the CPU supports) vs the forced-scalar fallback
//! (`hillview_columnar::simd::set_force_scalar`) — same process, same
//! data, byte-identical summaries, different codegen.
//!
//! Running `cargo bench --bench scan` rewrites `BENCH_scan.json` at the
//! repository root with the measured medians and speedups.

use criterion::Criterion;
use hillview_columnar::column::{Column, DictColumn, F64Column};
use hillview_columnar::{simd, ColumnKind, MembershipSet, Table};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::heatmap::HeatmapSketch;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

const ROWS: usize = 1_000_000;

/// 1M-row table: clean Double, 30%-null Double, and a skewed category.
fn table() -> Arc<Table> {
    // Deterministic pseudo-random values without pulling in `rand`.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
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
    let cat_rows: Vec<usize> = (0..ROWS)
        .map(|_| {
            // Skewed: half the rows land on the first category.
            let v = next() % 16;
            if v < 8 {
                0
            } else {
                (v % 8) as usize
            }
        })
        .collect();
    Arc::new(
        Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(dense)),
            )
            .column(
                "H",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(holey)),
            )
            .column(
                "C",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    cat_rows.iter().map(|&i| Some(cats[i])),
                )),
            )
            .build()
            .unwrap(),
    )
}

struct Case {
    name: &'static str,
    chunked_ns: u128,
    rowwise_ns: u128,
}

/// A simd-on vs forced-scalar timing of one kernel (same process, same
/// data; summaries asserted byte-identical before timing).
struct SimdCase {
    name: &'static str,
    simd_ns: u128,
    scalar_ns: u128,
}

fn run_pair(
    c: &mut Criterion,
    cases: &mut Vec<Case>,
    name: &'static str,
    mut chunked: impl FnMut(),
    mut rowwise: impl FnMut(),
) {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.bench_function("chunked", |b| b.iter(&mut chunked));
    g.bench_function("rowwise", |b| b.iter(&mut rowwise));
    g.finish();
    let ms = c.measurements();
    let chunked_ns = ms[ms.len() - 2].median.as_nanos();
    let rowwise_ns = ms[ms.len() - 1].median.as_nanos();
    cases.push(Case {
        name,
        chunked_ns,
        rowwise_ns,
    });
}

fn run_simd_pair(
    c: &mut Criterion,
    cases: &mut Vec<SimdCase>,
    name: &'static str,
    mut kernel: impl FnMut(),
) {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    simd::set_force_scalar(false);
    g.bench_function("simd", |b| b.iter(&mut kernel));
    simd::set_force_scalar(true);
    g.bench_function("scalar", |b| b.iter(&mut kernel));
    simd::set_force_scalar(false);
    g.finish();
    let ms = c.measurements();
    cases.push(SimdCase {
        name,
        simd_ns: ms[ms.len() - 2].median.as_nanos(),
        scalar_ns: ms[ms.len() - 1].median.as_nanos(),
    });
}

fn main() {
    let t = table();
    let full = TableView::full(t.clone());
    let range = TableView::with_members(
        t.clone(),
        Arc::new(MembershipSet::from_rows(
            (100_000u32..900_000).collect(),
            ROWS,
        )),
    );
    let dense = TableView::with_members(
        t.clone(),
        Arc::new(MembershipSet::from_rows(
            (0..ROWS as u32).filter(|r| r % 2 == 0).collect(),
            ROWS,
        )),
    );
    let sparse = TableView::with_members(
        t.clone(),
        Arc::new(MembershipSet::from_rows(
            (0..ROWS as u32).step_by(20).collect(),
            ROWS,
        )),
    );

    let hist = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 1000.0, 100));
    let hist_nulls = HistogramSketch::streaming("H", BucketSpec::numeric(0.0, 1000.0, 100));
    let hist_sampled = HistogramSketch::sampled("X", BucketSpec::numeric(0.0, 1000.0, 100), 0.05);
    let moments = MomentsSketch::new("X", 2);
    let mg = MisraGriesSketch::new("C", 8);

    let mut c = Criterion::default();
    let mut cases = Vec::new();

    run_pair(
        &mut c,
        &mut cases,
        "histogram_1M_full",
        || {
            hist.summarize(&full, Scope::ALL, 0).unwrap();
        },
        || {
            hist.summarize_rowwise(&full, 0).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "histogram_1M_null30pct",
        || {
            hist_nulls.summarize(&full, Scope::ALL, 0).unwrap();
        },
        || {
            hist_nulls.summarize_rowwise(&full, 0).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "histogram_800k_range_filter",
        || {
            hist.summarize(&range, Scope::ALL, 0).unwrap();
        },
        || {
            hist.summarize_rowwise(&range, 0).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "histogram_500k_bitmap_filter",
        || {
            hist.summarize(&dense, Scope::ALL, 0).unwrap();
        },
        || {
            hist.summarize_rowwise(&dense, 0).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "histogram_50k_sparse_filter",
        || {
            hist.summarize(&sparse, Scope::ALL, 0).unwrap();
        },
        || {
            hist.summarize_rowwise(&sparse, 0).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "histogram_1M_sampled_5pct",
        || {
            hist_sampled.summarize(&full, Scope::ALL, 7).unwrap();
        },
        || {
            hist_sampled.summarize_rowwise(&full, 7).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "moments_1M_full",
        || {
            moments.summarize(&full, Scope::ALL, 0).unwrap();
        },
        || {
            moments.summarize_rowwise(&full, 0).unwrap();
        },
    );
    run_pair(
        &mut c,
        &mut cases,
        "misra_gries_1M_category",
        || {
            mg.summarize(&full, Scope::ALL, 0).unwrap();
        },
        || {
            mg.summarize_rowwise(&full, 0).unwrap();
        },
    );

    // Sanity: chunked and rowwise agree on every benchmarked shape.
    assert_eq!(
        hist.summarize(&dense, Scope::ALL, 0).unwrap(),
        hist.summarize_rowwise(&dense, 0).unwrap()
    );
    assert_eq!(
        hist_nulls.summarize(&full, Scope::ALL, 0).unwrap(),
        hist_nulls.summarize_rowwise(&full, 0).unwrap()
    );

    // Simd-on vs forced-scalar pairs over the hot kernels; summaries must
    // be byte-identical before we time anything.
    let mut simd_cases = Vec::new();
    let heat = HeatmapSketch::streaming(
        "X",
        "C",
        BucketSpec::numeric(0.0, 1000.0, 50),
        BucketSpec::strings(vec!["cod".into(), "shark".into(), "tuna".into()]),
    );
    {
        let a = hist.summarize(&full, Scope::ALL, 0).unwrap();
        simd::set_force_scalar(true);
        let b = hist.summarize(&full, Scope::ALL, 0).unwrap();
        simd::set_force_scalar(false);
        assert_eq!(a, b, "simd and scalar histograms diverge");
        let a = moments.summarize(&full, Scope::ALL, 0).unwrap();
        simd::set_force_scalar(true);
        let b = moments.summarize(&full, Scope::ALL, 0).unwrap();
        simd::set_force_scalar(false);
        assert_eq!(a, b, "simd and scalar moments diverge");
    }
    run_simd_pair(&mut c, &mut simd_cases, "simd_histogram_1M_full", || {
        hist.summarize(&full, Scope::ALL, 0).unwrap();
    });
    run_simd_pair(
        &mut c,
        &mut simd_cases,
        "simd_histogram_1M_null30pct",
        || {
            hist_nulls.summarize(&full, Scope::ALL, 0).unwrap();
        },
    );
    run_simd_pair(&mut c, &mut simd_cases, "simd_moments_1M_full", || {
        moments.summarize(&full, Scope::ALL, 0).unwrap();
    });
    run_simd_pair(&mut c, &mut simd_cases, "simd_heatmap_1M_full", || {
        heat.summarize(&full, Scope::ALL, 0).unwrap();
    });

    write_json(&cases, &simd_cases);
    println!(
        "\n{:<32} {:>12} {:>12} {:>8}",
        "case", "chunked", "rowwise", "speedup"
    );
    for case in &cases {
        println!(
            "{:<32} {:>10}ns {:>10}ns {:>7.2}x",
            case.name,
            case.chunked_ns,
            case.rowwise_ns,
            case.rowwise_ns as f64 / case.chunked_ns.max(1) as f64
        );
    }
    println!(
        "\n{:<32} {:>12} {:>12} {:>8}  (simd_available: {})",
        "case",
        "simd",
        "scalar",
        "speedup",
        simd::active()
    );
    for case in &simd_cases {
        println!(
            "{:<32} {:>10}ns {:>10}ns {:>7.2}x",
            case.name,
            case.simd_ns,
            case.scalar_ns,
            case.scalar_ns as f64 / case.simd_ns.max(1) as f64
        );
    }
}

fn write_json(cases: &[Case], simd_cases: &[SimdCase]) {
    let mut out = String::from(
        "{\n  \"rows\": 1000000,\n  \"bench\": \"chunked vs per-row scan, median ns per summarize\",\n",
    );
    out.push_str(&format!("  \"simd_available\": {},\n", simd::active()));
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let speedup = case.rowwise_ns as f64 / case.chunked_ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"chunked_ns\": {}, \"rowwise_ns\": {}, \"speedup\": {:.2}}}{}\n",
            case.name,
            case.chunked_ns,
            case.rowwise_ns,
            speedup,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"simd_cases\": [\n");
    for (i, case) in simd_cases.iter().enumerate() {
        let speedup = case.scalar_ns as f64 / case.simd_ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"simd_ns\": {}, \"scalar_ns\": {}, \"simd_speedup\": {:.2}}}{}\n",
            case.name,
            case.simd_ns,
            case.scalar_ns,
            speedup,
            if i + 1 < simd_cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    std::fs::write(path, out).expect("write BENCH_scan.json");
    println!("wrote {path}");
}
