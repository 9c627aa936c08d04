//! Block-wise predicate evaluation (`filter_members`) against the per-row
//! baseline (`filter_members_rowwise`, the loop the worker ran before the
//! block pipeline), across selectivities × encodings, under the active
//! codegen and the forced-scalar fallback. What to read: a selective
//! `Range` on the bit-packed column beats the rowwise baseline by ≥ 5x,
//! and the sorted cases show zone-map skipping (block time collapses to
//! the boundary blocks while the rowwise baseline still walks every row).

use super::data::{self, ROWS};
use hillview_bench::harness::{forced_scalar, Registered, Suite};
use hillview_columnar::predicate::{filter_members, filter_members_rowwise};
use hillview_columnar::{MembershipSet, Predicate, Table};

pub const SUITE: Registered = Registered {
    name: "filter",
    about: "block-wise filter pipeline vs per-row baseline over 1M rows: median ns per full \
            filter (simd + forced-scalar); block ≡ rowwise asserted under both codegens",
    run,
};

/// One predicate over one single-column table (also the `decode` suite's
/// text-filter probe).
pub fn case(suite: &mut Suite, name: &str, t: &Table, p: Predicate) {
    let parent = MembershipSet::full(t.num_rows());
    let rowwise = || filter_members_rowwise(t, &p, &parent).unwrap();
    let block = || filter_members(t, &p, &parent).unwrap();
    // The pipelines must agree exactly before we time them.
    let want: Vec<usize> = rowwise().iter().collect();
    let got = || block().iter().collect::<Vec<usize>>();
    assert_eq!(got(), want, "block and rowwise filters diverge in {name}");
    assert_eq!(
        forced_scalar(got),
        want,
        "scalar block and rowwise filters diverge in {name}"
    );
    suite
        .case(name)
        .label("encoding", data::encoding_of(t))
        .fact("selectivity", want.len() as f64 / t.num_rows() as f64)
        .time("rowwise", || rowwise().len())
        .time("block", || block().len())
        .time_scalar("block_scalar", || block().len())
        .ratio("block_speedup", "rowwise", "block")
        .ratio("block_simd_speedup", "block_scalar", "block");
}

fn run(suite: &mut Suite) {
    let range = |lo, hi| Predicate::range("X", lo, hi);
    // Compares run in the packed-delta domain: a zoom into ~0.1% of the
    // data, then half of it.
    let shuffled = data::int_table(data::shuffled_u12(0..ROWS));
    case(suite, "packed_selective", &shuffled, range(100.0, 104.0));
    case(suite, "packed_unselective", &shuffled, range(0.0, 2048.0));
    // Lane compares on the raw slice.
    let doubles = data::zoom_doubles();
    case(suite, "f64_selective", &doubles, range(500.0, 501.0));
    // One compare per run, and zone maps skip every block outside the band.
    let runs = data::int_table(data::sorted_lowcard());
    case(
        suite,
        "sorted_runlength_zone_skip",
        &runs,
        range(4000.0, 4010.0),
    );
    // A selective range on sorted data is the pure zone-map case: only
    // boundary blocks decode.
    let ids = data::int_table(data::sequential_ids());
    let band = range(500_000_000.0, 501_000_000.0);
    case(suite, "sorted_delta_zone_skip", &ids, band);
}
