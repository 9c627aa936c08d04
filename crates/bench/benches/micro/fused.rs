//! One block pass from predicate to sketch (`summarize` under a filter
//! `Scope`) against the two-pass filter-then-sketch execution
//! (`filtered_view` into a membership set, then `summarize` over it) and
//! the per-row baseline (`filter_members_rowwise` + the rowwise kernel),
//! across selectivities × encodings, with the fused path timed under both
//! the active codegen and the forced-scalar fallback. What to read: on the
//! selective sorted columns (`packed_selective`, `sorted_delta_zone_skip`)
//! the fused pass beats two-pass by ≥ 2x — the second decode and the
//! intermediate membership set are the only difference between the two.

use super::data::{self, ROWS};
use hillview_bench::harness::{forced_scalar, Registered, Suite};
use hillview_columnar::column::{Column, DictColumn};
use hillview_columnar::predicate::filter_members_rowwise;
use hillview_columnar::{ColumnKind, MembershipSet, Predicate, Table};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::view::filtered_view;
use hillview_sketch::{BucketSpec, Scope, TableView};
use std::sync::Arc;

pub const SUITE: Registered = Registered {
    name: "fused",
    about: "fused (predicate+sketch, one block pass) vs two-pass filter-then-sketch vs per-row \
            baseline over 1M rows: median ns per filtered histogram query (simd + \
            forced-scalar); fused ≡ two-pass ≡ rowwise asserted under both codegens",
    run,
};

fn case(suite: &mut Suite, name: &str, t: Table, p: Predicate, buckets: BucketSpec) {
    let sk = HistogramSketch::streaming("X", buckets);
    let encoding = data::encoding_of(&t);
    let table = Arc::new(t);
    let v = TableView::full(table.clone());
    let narrowed = || {
        let all = MembershipSet::full(table.num_rows());
        let members = filter_members_rowwise(&table, &p, &all).unwrap();
        TableView::with_members(table.clone(), Arc::new(members))
    };
    let scope = Scope {
        rows: None,
        filter: Some(&p),
    };
    let rowwise = || sk.summarize_rowwise(&narrowed(), 0).unwrap();
    let two_pass = || {
        sk.summarize(&filtered_view(&v, &p).unwrap(), Scope::ALL, 0)
            .unwrap()
    };
    let fused = || sk.summarize(&v, scope, 0).unwrap();
    // All three executions must agree exactly before we time them.
    let want = rowwise();
    let gate = || {
        assert_eq!(
            fused(),
            want,
            "fused diverges from the rowwise reference in {name}"
        );
        assert_eq!(
            two_pass(),
            want,
            "two-pass diverges from the rowwise reference in {name}"
        );
    };
    gate();
    forced_scalar(gate);
    suite
        .case(name)
        .label("encoding", encoding)
        .fact(
            "selectivity",
            narrowed().len() as f64 / table.num_rows() as f64,
        )
        .time("rowwise", rowwise)
        .time("two_pass", two_pass)
        .time("fused", fused)
        .time_scalar("fused_scalar", fused)
        .ratio("fused_vs_two_pass", "two_pass", "fused")
        .ratio("fused_vs_rowwise", "rowwise", "fused");
}

fn run(suite: &mut Suite) {
    let range = |lo, hi| Predicate::range("X", lo, hi);
    let u12 = || BucketSpec::numeric(0.0, 4096.0, 32);
    // The ~20% band of the sorted-jitter column keeps the two-pass
    // membership sparse (below the §5.6 threshold): the two-pass path pays
    // a per-row storage probe for every selected row, the fused pass
    // decodes each surviving block once.
    let sorted = data::int_table(data::sorted_jitter(0..ROWS));
    case(
        suite,
        "packed_selective",
        sorted,
        range(1000.0, 1820.0),
        u12(),
    );
    // The shuffled cases document the bandwidth-bound regime honestly:
    // with no zone-map skips the predicate decode dominates both paths, so
    // fusion only removes the (small) membership materialization.
    let shuffled = || data::int_table(data::shuffled_u12(0..ROWS));
    let zoom = range(100.0, 104.0);
    case(suite, "packed_shuffled_selective", shuffled(), zoom, u12());
    let half = range(0.0, 2048.0);
    case(suite, "packed_unselective", shuffled(), half, u12());
    // Lane compares on the raw slice feed surviving lanes straight into
    // the bucket kernel.
    let tenths = BucketSpec::numeric(0.0, 1000.0, 32);
    let doubles = data::zoom_doubles();
    case(suite, "f64_selective", doubles, range(500.0, 510.0), tenths);
    // A selective range on sorted data is the pure zone-map case for both
    // stages: blocks outside the band are skipped by the predicate and
    // therefore never decoded for the kernel.
    let ids = data::int_table(data::sequential_ids());
    let band = range(500_000_000.0, 510_000_000.0);
    let wide = BucketSpec::numeric(0.0, 1.0e9, 32);
    case(suite, "sorted_delta_zone_skip", ids, band, wide);
    // Categorical Equals consults the per-block code zone maps, and the
    // surviving codes flow into the string histogram through the same
    // fused pass.
    let names: Vec<String> = (0..64).map(|i| format!("cat{i:02}")).collect();
    let cats = DictColumn::from_strings((0..ROWS).map(|i| Some(names[(i * 31) % 64].as_str())));
    let t = Table::builder()
        .column("X", ColumnKind::Category, Column::Cat(cats))
        .build()
        .unwrap();
    let by_name = BucketSpec::strings(names.iter().map(|s| Arc::from(s.as_str())).collect());
    let cat07 = Predicate::equals("X", "cat07");
    case(suite, "dict_equals_selective", t, cat07, by_name);
}
