//! Each case builds the same 1M-row logical column twice — once forced
//! plain, once auto-encoded at ingest — and runs the identical block
//! histogram kernel over both, under the active codegen and under the
//! forced-scalar fallback, so the file records the packed-vs-plain gap
//! (`footprint_ratio` = plain bytes / packed bytes, `throughput_ratio` =
//! packed ns / plain ns) and the simd-vs-scalar speedup per side.

use super::data::{self, ROWS};
use hillview_bench::harness::{forced_scalar, Registered, Suite};
use hillview_columnar::column::I64Column;
use hillview_columnar::NullMask;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

pub const SUITE: Registered = Registered {
    name: "encoding",
    about: "packed vs plain integer columns over 1M rows: heap bytes and block histogram median \
            ns (simd + forced-scalar); packed ≡ plain asserted under both codegens before timing",
    run,
};

fn case(suite: &mut Suite, name: &str, values: Vec<i64>, spec: BucketSpec) {
    let plain = data::int_column_table(I64Column::plain(values.clone(), NullMask::none()));
    let packed = data::int_table(values);
    let encoding = data::encoding_of(&packed);
    let (plain_bytes, packed_bytes) = (plain.heap_bytes(), packed.heap_bytes());
    let hist = HistogramSketch::streaming("X", spec);
    let (plain, packed) = (
        TableView::full(Arc::new(plain)),
        TableView::full(Arc::new(packed)),
    );
    let on_plain = || hist.summarize(&plain, Scope::ALL, 0).unwrap();
    let on_packed = || hist.summarize(&packed, Scope::ALL, 0).unwrap();
    // The kernels must agree exactly before we time them, and so must the
    // vector and scalar codegens.
    assert_eq!(
        on_plain(),
        on_packed(),
        "packed and plain histograms diverge in {name}"
    );
    forced_scalar(|| {
        assert_eq!(
            on_plain(),
            on_packed(),
            "scalar packed and plain histograms diverge in {name}"
        )
    });
    suite
        .case(name)
        .label("encoding", encoding)
        .fact("plain_bytes", plain_bytes as f64)
        .fact("packed_bytes", packed_bytes as f64)
        .fact(
            "footprint_ratio",
            plain_bytes as f64 / packed_bytes.max(1) as f64,
        )
        .time("plain", on_plain)
        .time("packed", on_packed)
        .time_scalar("plain_scalar", on_plain)
        .time_scalar("packed_scalar", on_packed)
        .ratio("throughput_ratio", "packed", "plain")
        .ratio("packed_simd_speedup", "packed_scalar", "packed");
}

fn run(suite: &mut Suite) {
    let upto = |hi: f64| BucketSpec::numeric(0.0, hi, 100);
    let runs = upto((ROWS / 128 + 1) as f64);
    case(suite, "sorted_lowcard_1M", data::sorted_lowcard(), runs);
    let shuffled = data::shuffled_u12(0..ROWS);
    case(suite, "shuffled_u12_1M", shuffled, upto(4096.0));
    let ids = upto(ROWS as f64 * 1000.0);
    case(suite, "sequential_ids_1M", data::sequential_ids(), ids);
}
