//! Each case builds the same 1M-row logical column twice — once forced
//! plain, once auto-encoded at ingest — and runs the identical block
//! histogram kernel over both, under the active codegen and under the
//! forced-scalar fallback, so the file records the packed-vs-plain gap
//! (`footprint_ratio` = plain bytes / packed bytes, `throughput_ratio` =
//! packed ns / plain ns) and the simd-vs-scalar speedup per side. The two
//! strided cases price the common stride's read path: day-granular dates
//! pay a multiply per value (an odd factor), non-negative integral doubles
//! only a shift (step 2).

use super::data::{self, ROWS};
use hillview_bench::harness::{forced_scalar, mix, Registered, Suite};
use hillview_columnar::column::{Column, F64Column, I64Column};
use hillview_columnar::{ColumnKind, F64Storage, NullMask, Table, ZoneMap};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

pub const SUITE: Registered = Registered {
    name: "encoding",
    about: "packed vs plain integer and integral-double columns over 1M rows: heap bytes and block \
            histogram median ns (simd + forced-scalar); packed ≡ plain asserted under both codegens \
            before timing",
    run,
};

/// `values` forced plain and as ingest encodes them.
fn ints(values: Vec<i64>) -> (Table, Table) {
    let plain = data::int_column_table(I64Column::plain(values.clone(), NullMask::none()));
    (plain, data::int_table(values))
}

/// `values` as a double column `X`, forced raw and as ingest encodes them.
fn doubles(values: Vec<f64>) -> (Table, Table) {
    let zones = ZoneMap::from_f64(&values);
    let raw = F64Storage::Plain(values.clone().into());
    let table = |col| {
        Table::builder()
            .column("X", ColumnKind::Double, Column::Double(col))
            .build()
            .unwrap()
    };
    (
        table(F64Column::from_parts(raw, NullMask::none(), zones)),
        table(F64Column::new(values, NullMask::none())),
    )
}

fn case(suite: &mut Suite, name: &str, (plain, packed): (Table, Table), spec: BucketSpec) {
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
    case(
        suite,
        "sorted_lowcard_1M",
        ints(data::sorted_lowcard()),
        runs,
    );
    let shuffled = data::shuffled_u12(0..ROWS);
    case(suite, "shuffled_u12_1M", ints(shuffled), upto(4096.0));
    let ids = upto(ROWS as f64 * 1000.0);
    case(
        suite,
        "sequential_ids_1M",
        ints(data::sequential_ids()),
        ids,
    );
    // Two years of midnights in epoch milliseconds, shuffled: 36 bits as
    // offsets, 10 as days.
    const DAY_MS: i64 = 86_400_000;
    let start = 1_420_070_400_000i64;
    let dates = (0..ROWS as u64).map(|i| start + (mix(i) % 730) as i64 * DAY_MS);
    let days = BucketSpec::numeric(start as f64, (start + 730 * DAY_MS) as f64, 100);
    case(suite, "day_dates_1M", ints(dates.collect()), days);
    // Whole minutes of delay, never negative: sign-magnitude codes, all even.
    let minutes = (0..ROWS as u64).map(|i| (mix(i) % 300) as f64);
    case(
        suite,
        "nonneg_integral_doubles_1M",
        doubles(minutes.collect()),
        upto(300.0),
    );
}
