//! Fused-query benchmarks: one block pass from predicate to sketch
//! (`summarize` under a filter `Scope`) vs the two-pass filter-then-sketch execution
//! (`filter_members` into a membership set, then `summarize` over it) vs
//! the per-row baseline (`filter_members_rowwise` + the rowwise kernel),
//! across selectivities × encodings, with the fused path timed under both
//! the active codegen and the forced-scalar fallback.
//!
//! Running `cargo bench --bench fused` rewrites `BENCH_fused.json` at the
//! repository root. The acceptance cases: on the selective packed and
//! delta (sorted, zone-map-skipping) columns the fused pass must beat the
//! two-pass baseline by ≥ 2x — the second decode and the intermediate
//! membership set are the only difference between the two.

use criterion::Criterion;
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::predicate::filter_members_rowwise;
use hillview_columnar::{simd, ColumnKind, MembershipSet, NullMask, Predicate, Table};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::view::filtered_view;
use hillview_sketch::{BucketSpec, Scope, TableView};
use std::sync::Arc;

const ROWS: usize = 1_000_000;

struct Case {
    name: &'static str,
    encoding: String,
    selectivity: f64,
    rowwise_ns: u128,
    two_pass_ns: u128,
    fused_ns: u128,
    fused_scalar_ns: u128,
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

fn run_case(
    c: &mut Criterion,
    cases: &mut Vec<Case>,
    name: &'static str,
    t: Table,
    p: Predicate,
    sk: HistogramSketch,
) {
    let encoding = match t.column(0) {
        Column::Int(col) => col.storage().kind().to_string(),
        Column::Double(col) => format!("{}-f64", col.data().kind()),
        _ => "dict".to_string(),
    };
    let table = Arc::new(t);
    let v = TableView::full(table.clone());
    // All three executions must agree exactly before we time them.
    let narrowed_rowwise = TableView::with_members(
        table.clone(),
        Arc::new(
            filter_members_rowwise(&table, &p, &MembershipSet::full(table.num_rows())).unwrap(),
        ),
    );
    let want = sk.summarize_rowwise(&narrowed_rowwise, 0).unwrap();
    let fused = Scope {
        rows: None,
        filter: Some(&p),
    };
    for force in [false, true] {
        simd::set_force_scalar(force);
        assert_eq!(
            sk.summarize(&v, fused, 0).unwrap(),
            want,
            "fused diverges from the rowwise reference in {name}"
        );
        assert_eq!(
            sk.summarize(&filtered_view(&v, &p).unwrap(), Scope::ALL, 0)
                .unwrap(),
            want,
            "two-pass diverges from the rowwise reference in {name}"
        );
    }
    simd::set_force_scalar(false);
    let selectivity = narrowed_rowwise.len() as f64 / table.num_rows() as f64;
    let mut g = c.benchmark_group(name);
    g.sample_size(30);
    g.bench_function("rowwise", |b| {
        b.iter(|| {
            let narrowed = TableView::with_members(
                table.clone(),
                Arc::new(
                    filter_members_rowwise(&table, &p, &MembershipSet::full(table.num_rows()))
                        .unwrap(),
                ),
            );
            sk.summarize_rowwise(&narrowed, 0).unwrap()
        });
    });
    g.bench_function("two_pass", |b| {
        b.iter(|| {
            sk.summarize(&filtered_view(&v, &p).unwrap(), Scope::ALL, 0)
                .unwrap()
        });
    });
    g.bench_function("fused", |b| {
        b.iter(|| sk.summarize(&v, fused, 0).unwrap());
    });
    simd::set_force_scalar(true);
    g.bench_function("fused_scalar", |b| {
        b.iter(|| sk.summarize(&v, fused, 0).unwrap());
    });
    simd::set_force_scalar(false);
    g.finish();
    let ms = c.measurements();
    cases.push(Case {
        name,
        encoding,
        selectivity,
        rowwise_ns: ms[ms.len() - 4].median.as_nanos(),
        two_pass_ns: ms[ms.len() - 3].median.as_nanos(),
        fused_ns: ms[ms.len() - 2].median.as_nanos(),
        fused_scalar_ns: ms[ms.len() - 1].median.as_nanos(),
    });
}

fn main() {
    let mut c = Criterion::default();
    let mut cases = Vec::new();
    let spec = || BucketSpec::numeric(0.0, 4096.0, 32);

    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let shuffled: Vec<i64> = (0..ROWS).map(|_| (next() % 4096) as i64).collect();
    // Sorted-with-jitter small-range ints: the jitter defeats run-length
    // encoding (storage stays bit-packed) while each 64-row block keeps a
    // tight min/max window, so a drill-down range on this *sorted* column
    // engages zone-map skipping for both stages — the acceptance case. The
    // ~20% band keeps the two-pass membership sparse (below the §5.6
    // threshold), which is exactly the regime interactive zooms live in:
    // the two-pass path pays a per-row storage probe for every selected
    // row, the fused pass decodes each surviving block once.
    //
    // The shuffled variants document the bandwidth-bound regime honestly:
    // with no zone-map skips the predicate decode dominates both paths, so
    // fusion only removes the (small) membership materialization.
    let sorted_jitter: Vec<i64> = (0..ROWS)
        .map(|i| (i / 244) as i64 + (next() % 4) as i64)
        .collect();
    run_case(
        &mut c,
        &mut cases,
        "packed_selective",
        int_table(sorted_jitter),
        Predicate::range("X", 1000.0, 1820.0),
        HistogramSketch::streaming("X", spec()),
    );
    run_case(
        &mut c,
        &mut cases,
        "packed_shuffled_selective",
        int_table(shuffled.clone()),
        Predicate::range("X", 100.0, 104.0),
        HistogramSketch::streaming("X", spec()),
    );
    run_case(
        &mut c,
        &mut cases,
        "packed_unselective",
        int_table(shuffled),
        Predicate::range("X", 0.0, 2048.0),
        HistogramSketch::streaming("X", spec()),
    );

    // Plain f64 column (chart-zoom shape): lane compares on the raw slice
    // feed surviving lanes straight into the bucket kernel.
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
        Predicate::range("X", 500.0, 510.0),
        HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 1000.0, 32)),
    );

    // Sequential ids → delta storage: a selective range on sorted data is
    // the pure zone-map case for BOTH stages — blocks outside the band are
    // skipped by the predicate and therefore never decoded for the kernel.
    run_case(
        &mut c,
        &mut cases,
        "sorted_delta_zone_skip",
        int_table(
            (0..ROWS as i64)
                .map(|i| i * 1000 + (i * 7919) % 613)
                .collect(),
        ),
        Predicate::range("X", 500_000_000.0, 510_000_000.0),
        HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 1.0e9, 32)),
    );

    // Dictionary column: categorical Equals consults the per-block code
    // zone maps, and the surviving codes flow into the string histogram
    // through the same fused pass.
    let names: Vec<String> = (0..64).map(|i| format!("cat{i:02}")).collect();
    let t = Table::builder()
        .column(
            "X",
            ColumnKind::Category,
            Column::Cat(DictColumn::from_strings(
                (0..ROWS).map(|i| Some(names[(i * 31) % 64].as_str())),
            )),
        )
        .build()
        .unwrap();
    run_case(
        &mut c,
        &mut cases,
        "dict_equals_selective",
        t,
        Predicate::equals("X", "cat07"),
        HistogramSketch::streaming(
            "X",
            BucketSpec::strings(names.iter().map(|s| Arc::from(s.as_str())).collect()),
        ),
    );

    write_json(&cases);
    println!(
        "\n{:<26} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "case", "encoding", "rowwise_ns", "two_pass_ns", "fused_ns", "scalar_ns", "speedup"
    );
    for case in &cases {
        println!(
            "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12} {:>8.1}x",
            case.name,
            case.encoding,
            case.rowwise_ns,
            case.two_pass_ns,
            case.fused_ns,
            case.fused_scalar_ns,
            case.two_pass_ns as f64 / case.fused_ns.max(1) as f64,
        );
    }
}

fn write_json(cases: &[Case]) {
    let mut out = String::from(
        "{\n  \"rows\": 1000000,\n  \"bench\": \"fused (predicate+sketch, one block pass) vs two-pass filter-then-sketch vs per-row baseline: median ns per filtered histogram query (simd + forced-scalar)\",\n",
    );
    out.push_str(&format!("  \"simd_available\": {},\n", simd::active()));
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let vs_two_pass = case.two_pass_ns as f64 / case.fused_ns.max(1) as f64;
        let vs_rowwise = case.rowwise_ns as f64 / case.fused_ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"encoding\": \"{}\", \"selectivity\": {:.4}, \"rowwise_ns\": {}, \"two_pass_ns\": {}, \"fused_ns\": {}, \"fused_scalar_ns\": {}, \"fused_vs_two_pass\": {:.2}, \"fused_vs_rowwise\": {:.2}}}{}\n",
            case.name,
            case.encoding,
            case.selectivity,
            case.rowwise_ns,
            case.two_pass_ns,
            case.fused_ns,
            case.fused_scalar_ns,
            vs_two_pass,
            vs_rowwise,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fused.json");
    std::fs::write(path, out).expect("write BENCH_fused.json");
    println!("wrote {path}");
}
