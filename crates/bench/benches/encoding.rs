//! Compressed-column benchmarks: in-memory footprint and block-scan
//! throughput of packed vs plain integer columns (the tentpole measurement
//! for the encoding layer).
//!
//! Each case builds the same 1M-row logical column twice — once forced
//! plain, once auto-encoded at ingest — and runs the identical block
//! histogram kernel over both, under the active codegen *and* under the
//! forced-scalar fallback (`set_force_scalar`), so the JSON records both
//! the packed-vs-plain gap and the simd-vs-scalar speedup per side.
//! Running `cargo bench --bench encoding` rewrites `BENCH_encoding.json`
//! at the repository root with the footprint ratio (plain bytes / packed
//! bytes) and the throughput ratio (packed ns / plain ns).

use criterion::Criterion;
use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::{simd, ColumnKind, NullMask, Table};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

const ROWS: usize = 1_000_000;

struct Case {
    name: &'static str,
    encoding: String,
    plain_bytes: usize,
    packed_bytes: usize,
    plain_ns: u128,
    packed_ns: u128,
    plain_scalar_ns: u128,
    packed_scalar_ns: u128,
}

/// Build plain and auto-encoded single-column tables over the same values.
fn tables(values: Vec<i64>) -> (Arc<Table>, Arc<Table>, String) {
    let plain = Table::builder()
        .column(
            "X",
            ColumnKind::Int,
            Column::Int(I64Column::plain(values.clone(), NullMask::none())),
        )
        .build()
        .unwrap();
    let packed = Table::builder()
        .column(
            "X",
            ColumnKind::Int,
            Column::Int(I64Column::new(values, NullMask::none())),
        )
        .build()
        .unwrap();
    let encoding = packed
        .column(0)
        .as_i64_col()
        .unwrap()
        .storage()
        .kind()
        .to_string();
    (Arc::new(plain), Arc::new(packed), encoding)
}

fn run_case(
    c: &mut Criterion,
    cases: &mut Vec<Case>,
    name: &'static str,
    values: Vec<i64>,
    spec: BucketSpec,
) {
    let (plain, packed, encoding) = tables(values);
    let plain_bytes = plain.heap_bytes();
    let packed_bytes = packed.heap_bytes();
    let hist = HistogramSketch::streaming("X", spec);
    let vp = TableView::full(plain);
    let vk = TableView::full(packed);
    // The kernels must agree exactly before we time them.
    assert_eq!(
        hist.summarize(&vp, Scope::ALL, 0).unwrap(),
        hist.summarize(&vk, Scope::ALL, 0).unwrap(),
        "packed and plain histograms diverge in {name}"
    );
    // The vector and scalar codegens must also agree exactly.
    simd::set_force_scalar(true);
    assert_eq!(
        hist.summarize(&vp, Scope::ALL, 0).unwrap(),
        hist.summarize(&vk, Scope::ALL, 0).unwrap(),
        "scalar packed and plain histograms diverge in {name}"
    );
    simd::set_force_scalar(false);
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.bench_function("plain", |b| {
        b.iter(|| hist.summarize(&vp, Scope::ALL, 0).unwrap());
    });
    g.bench_function("packed", |b| {
        b.iter(|| hist.summarize(&vk, Scope::ALL, 0).unwrap());
    });
    simd::set_force_scalar(true);
    g.bench_function("plain_scalar", |b| {
        b.iter(|| hist.summarize(&vp, Scope::ALL, 0).unwrap());
    });
    g.bench_function("packed_scalar", |b| {
        b.iter(|| hist.summarize(&vk, Scope::ALL, 0).unwrap());
    });
    simd::set_force_scalar(false);
    g.finish();
    let ms = c.measurements();
    cases.push(Case {
        name,
        encoding,
        plain_bytes,
        packed_bytes,
        plain_ns: ms[ms.len() - 4].median.as_nanos(),
        packed_ns: ms[ms.len() - 3].median.as_nanos(),
        plain_scalar_ns: ms[ms.len() - 2].median.as_nanos(),
        packed_scalar_ns: ms[ms.len() - 1].median.as_nanos(),
    });
}

fn main() {
    let mut c = Criterion::default();
    let mut cases = Vec::new();

    // Sorted, low-cardinality: the acceptance-criteria column. Runs of 128
    // identical values → run-length encoding.
    run_case(
        &mut c,
        &mut cases,
        "sorted_lowcard_1M",
        (0..ROWS as i64).map(|i| i / 128).collect(),
        BucketSpec::numeric(0.0, (ROWS / 128 + 1) as f64, 100),
    );

    // Shuffled small-range values (ports/buckets/categories as ints): no
    // run structure, 12-bit range → frame-of-reference bit-packing.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    run_case(
        &mut c,
        &mut cases,
        "shuffled_u12_1M",
        (0..ROWS).map(|_| (next() % 4096) as i64).collect(),
        BucketSpec::numeric(0.0, 4096.0, 100),
    );

    // Sequential ids with jitter (timestamps, auto-increment keys): no run
    // structure, ~31-bit value range, tiny adjacent deltas → per-block
    // delta coding.
    run_case(
        &mut c,
        &mut cases,
        "sequential_ids_1M",
        (0..ROWS as i64)
            .map(|i| i * 1000 + (i * 7919) % 613)
            .collect(),
        BucketSpec::numeric(0.0, (ROWS as f64) * 1000.0, 100),
    );

    write_json(&cases);
    println!(
        "\n{:<20} {:>12} {:>10} {:>10} {:>9} {:>11} {:>11}",
        "case", "encoding", "plain_B", "packed_B", "ratio", "plain_ns", "packed_ns"
    );
    for case in &cases {
        println!(
            "{:<20} {:>12} {:>10} {:>10} {:>8.1}x {:>11} {:>11}",
            case.name,
            case.encoding,
            case.plain_bytes,
            case.packed_bytes,
            case.plain_bytes as f64 / case.packed_bytes.max(1) as f64,
            case.plain_ns,
            case.packed_ns,
        );
    }
}

fn write_json(cases: &[Case]) {
    let mut out = String::from(
        "{\n  \"rows\": 1000000,\n  \"bench\": \"packed vs plain integer columns: heap bytes and block histogram median ns (simd + forced-scalar)\",\n",
    );
    out.push_str(&format!("  \"simd_available\": {},\n", simd::active()));
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let footprint = case.plain_bytes as f64 / case.packed_bytes.max(1) as f64;
        let slowdown = case.packed_ns as f64 / case.plain_ns.max(1) as f64;
        let packed_simd_speedup = case.packed_scalar_ns as f64 / case.packed_ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"encoding\": \"{}\", \"plain_bytes\": {}, \"packed_bytes\": {}, \"footprint_ratio\": {:.2}, \"plain_ns\": {}, \"packed_ns\": {}, \"throughput_ratio\": {:.3}, \"plain_scalar_ns\": {}, \"packed_scalar_ns\": {}, \"packed_simd_speedup\": {:.2}}}{}\n",
            case.name,
            case.encoding,
            case.plain_bytes,
            case.packed_bytes,
            footprint,
            case.plain_ns,
            case.packed_ns,
            slowdown,
            case.plain_scalar_ns,
            case.packed_scalar_ns,
            packed_simd_speedup,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encoding.json");
    std::fs::write(path, out).expect("write BENCH_encoding.json");
    println!("wrote {path}");
}
