//! Filter-pipeline benchmarks: block-wise predicate evaluation
//! (`filter_members`) vs the per-row baseline (`filter_members_rowwise`,
//! exactly the loop the worker ran before the block pipeline), across
//! selectivities × encodings, under the active codegen *and* the
//! forced-scalar fallback.
//!
//! Running `cargo bench --bench filter` rewrites `BENCH_filter.json` at
//! the repository root. The acceptance cases: a selective `Range` on a
//! bit-packed 1M-row column must beat the rowwise baseline by ≥ 5x, and
//! the sorted cases must show zone-map skipping (block time collapses to
//! the boundary blocks while the rowwise baseline still walks every row).

use criterion::Criterion;
use hillview_columnar::column::{Column, F64Column, I64Column};
use hillview_columnar::predicate::{filter_members, filter_members_rowwise};
use hillview_columnar::{simd, ColumnKind, MembershipSet, NullMask, Predicate, Table};

const ROWS: usize = 1_000_000;

struct Case {
    name: &'static str,
    encoding: String,
    selectivity: f64,
    rowwise_ns: u128,
    block_ns: u128,
    block_scalar_ns: u128,
}

fn int_table(values: Vec<i64>) -> Table {
    Table::builder()
        .column(
            "X",
            ColumnKind::Int,
            Column::Int(I64Column::new(values, NullMask::none())),
        )
        .build()
        .unwrap()
}

fn run_case(c: &mut Criterion, cases: &mut Vec<Case>, name: &'static str, t: Table, p: Predicate) {
    let encoding = match t.column(0) {
        Column::Int(col) => col.storage().kind().to_string(),
        Column::Double(col) => format!("{}-f64", col.data().kind()),
        _ => "dict".to_string(),
    };
    let parent = MembershipSet::full(t.num_rows());
    // The pipelines must agree exactly before we time them.
    let want: Vec<usize> = filter_members_rowwise(&t, &p, &parent)
        .unwrap()
        .iter()
        .collect();
    for force in [false, true] {
        simd::set_force_scalar(force);
        let got: Vec<usize> = filter_members(&t, &p, &parent).unwrap().iter().collect();
        assert_eq!(got, want, "block and rowwise filters diverge in {name}");
    }
    simd::set_force_scalar(false);
    let selectivity = want.len() as f64 / t.num_rows() as f64;
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.bench_function("rowwise", |b| {
        b.iter(|| filter_members_rowwise(&t, &p, &parent).unwrap().len());
    });
    g.bench_function("block", |b| {
        b.iter(|| filter_members(&t, &p, &parent).unwrap().len());
    });
    simd::set_force_scalar(true);
    g.bench_function("block_scalar", |b| {
        b.iter(|| filter_members(&t, &p, &parent).unwrap().len());
    });
    simd::set_force_scalar(false);
    g.finish();
    let ms = c.measurements();
    cases.push(Case {
        name,
        encoding,
        selectivity,
        rowwise_ns: ms[ms.len() - 3].median.as_nanos(),
        block_ns: ms[ms.len() - 2].median.as_nanos(),
        block_scalar_ns: ms[ms.len() - 1].median.as_nanos(),
    });
}

fn main() {
    let mut c = Criterion::default();
    let mut cases = Vec::new();

    // Shuffled small-range ints → bit-packed storage; compares run in the
    // packed-delta domain. Selective (zoom into ~0.1%) and unselective
    // (half the data) ranges — the acceptance pair.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let shuffled: Vec<i64> = (0..ROWS).map(|_| (next() % 4096) as i64).collect();
    run_case(
        &mut c,
        &mut cases,
        "packed_selective",
        int_table(shuffled.clone()),
        Predicate::range("X", 100.0, 104.0),
    );
    run_case(
        &mut c,
        &mut cases,
        "packed_unselective",
        int_table(shuffled),
        Predicate::range("X", 0.0, 2048.0),
    );

    // Plain f64 column (chart-zoom shape): lane compares on the raw slice.
    let doubles: Vec<f64> = (0..ROWS)
        .map(|i| ((i * 7919) % 10_000) as f64 * 0.1)
        .collect();
    let t = Table::builder()
        .column(
            "X",
            ColumnKind::Double,
            Column::Double(F64Column::new(doubles, NullMask::none())),
        )
        .build()
        .unwrap();
    run_case(
        &mut c,
        &mut cases,
        "f64_selective",
        t,
        Predicate::range("X", 500.0, 501.0),
    );

    // Sorted low-cardinality → run-length storage: one compare per run,
    // and zone maps skip every block outside the selected band.
    run_case(
        &mut c,
        &mut cases,
        "sorted_runlength_zone_skip",
        int_table((0..ROWS as i64).map(|i| i / 128).collect()),
        Predicate::range("X", 4000.0, 4010.0),
    );

    // Sequential ids → delta storage: a selective range on sorted data is
    // the pure zone-map case (only boundary blocks decode).
    run_case(
        &mut c,
        &mut cases,
        "sorted_delta_zone_skip",
        int_table(
            (0..ROWS as i64)
                .map(|i| i * 1000 + (i * 7919) % 613)
                .collect(),
        ),
        Predicate::range("X", 500_000_000.0, 501_000_000.0),
    );

    write_json(&cases);
    println!(
        "\n{:<28} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "case", "encoding", "rowwise_ns", "block_ns", "scalar_ns", "speedup"
    );
    for case in &cases {
        println!(
            "{:<28} {:>12} {:>12} {:>12} {:>12} {:>8.1}x",
            case.name,
            case.encoding,
            case.rowwise_ns,
            case.block_ns,
            case.block_scalar_ns,
            case.rowwise_ns as f64 / case.block_ns.max(1) as f64,
        );
    }
}

fn write_json(cases: &[Case]) {
    let mut out = String::from(
        "{\n  \"rows\": 1000000,\n  \"bench\": \"block-wise filter pipeline vs per-row baseline: median ns per full filter (simd + forced-scalar)\",\n",
    );
    out.push_str(&format!("  \"simd_available\": {},\n", simd::active()));
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let speedup = case.rowwise_ns as f64 / case.block_ns.max(1) as f64;
        let simd_speedup = case.block_scalar_ns as f64 / case.block_ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"encoding\": \"{}\", \"selectivity\": {:.4}, \"rowwise_ns\": {}, \"block_ns\": {}, \"block_scalar_ns\": {}, \"block_speedup\": {:.2}, \"block_simd_speedup\": {:.2}}}{}\n",
            case.name,
            case.encoding,
            case.selectivity,
            case.rowwise_ns,
            case.block_ns,
            case.block_scalar_ns,
            speedup,
            simd_speedup,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_filter.json");
    std::fs::write(path, out).expect("write BENCH_filter.json");
    println!("wrote {path}");
}
