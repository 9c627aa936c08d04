//! Each case builds the same 1M-row logical column twice — once forced
//! plain, once auto-encoded at ingest — and runs the identical block
//! histogram kernel over both, under the active codegen and under the
//! forced-scalar fallback, so the file records the packed-vs-plain gap
//! (`footprint_ratio` = plain bytes / packed bytes, `throughput_ratio` =
//! packed ns / plain ns) and the simd-vs-scalar speedup per side. The two
//! strided cases price the common stride's read path: day-granular dates
//! pay a multiply per value (an odd factor), non-negative integral doubles
//! only a shift (step 2). `mostly_zero_1M` prices the exceptions layout
//! against the bit-packing it replaces on a column nine tenths one value:
//! a whole-column frame decode, a range word per frame and the block
//! histogram, each as exceptions and as bit-packed.

use super::data::{self, ROWS};
use hillview_bench::harness::{forced_scalar, mix, Registered, Suite};
use hillview_columnar::column::{Column, F64Column, I64Column};
use hillview_columnar::{
    ColumnKind, EncodingKind, F64Storage, I64Storage, NullMask, Table, ZoneMap, BLOCK_ROWS,
};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use std::sync::Arc;

pub const SUITE: Registered = Registered {
    name: "encoding",
    about: "packed vs plain integer and integral-double columns over 1M rows: heap bytes and block \
            histogram median ns (simd + forced-scalar); packed ≡ plain asserted under both codegens \
            before timing; a mostly-zero column as exceptions vs bit-packed: decode, range word and \
            histogram ns",
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
    mostly_one_value(suite);
}

/// Every frame of `s` decoded in order, folded so nothing is optimized out.
fn decode(s: &I64Storage) -> i64 {
    let mut cursor = 0;
    let mut buf = [0i64; BLOCK_ROWS];
    let mut sum = 0i64;
    for base in (0..ROWS).step_by(BLOCK_ROWS) {
        let lanes = s.decode_frame(&mut cursor, base, BLOCK_ROWS.min(ROWS - base), &mut buf);
        sum = lanes.iter().fold(sum, |a, &v| a.wrapping_add(v));
    }
    sum
}

/// Rows of `s` in `[1, 150]`, one range word per frame: half the
/// exceptions pass, the fill does not.
fn range(s: &I64Storage) -> u32 {
    let mut cursor = 0;
    let mut buf = [0i64; BLOCK_ROWS];
    (0..ROWS)
        .step_by(BLOCK_ROWS)
        .map(|base| {
            let len = BLOCK_ROWS.min(ROWS - base);
            s.range_frame_word(&mut cursor, base, len, 1, 150, &mut buf)
                .count_ones()
        })
        .sum()
}

/// A delay column's values, nine rows in ten a null's 0: as ingest stores
/// them (exceptions) and forced bit-packed.
fn mostly_one_value(suite: &mut Suite) {
    let values: Vec<i64> = (0..ROWS as u64)
        .map(|i| match mix(i) % 10 {
            0 => (mix(!i) % 300 + 1) as i64,
            _ => 0,
        })
        .collect();
    let exceptions = I64Storage::encode(values.clone());
    assert_eq!(exceptions.kind(), EncodingKind::Exceptions);
    let packed = I64Storage::bit_packed_of(&values).unwrap();
    let view = |s: &I64Storage| {
        let column = I64Column::with_storage(s.clone(), NullMask::none());
        TableView::full(Arc::new(data::int_column_table(column)))
    };
    let (on_exceptions, on_packed) = (view(&exceptions), view(&packed));
    let hist = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 301.0, 100));
    let histogram = |v: &TableView| hist.summarize(v, Scope::ALL, 0).unwrap();
    for scalar in [false, true] {
        let agree = || {
            assert_eq!(decode(&exceptions), decode(&packed));
            assert_eq!(range(&exceptions), range(&packed));
            assert_eq!(histogram(&on_exceptions), histogram(&on_packed));
        };
        if scalar {
            forced_scalar(agree);
        } else {
            agree();
        }
    }
    let (packed_bytes, exceptions_bytes) = (packed.heap_bytes(), exceptions.heap_bytes());
    suite
        .case("mostly_zero_1M")
        .label("encoding", exceptions.kind())
        .fact("packed_bytes", packed_bytes as f64)
        .fact("exceptions_bytes", exceptions_bytes as f64)
        .fact(
            "footprint_ratio",
            packed_bytes as f64 / exceptions_bytes as f64,
        )
        .time("decode_packed", || decode(&packed))
        .time("decode_exceptions", || decode(&exceptions))
        .time_scalar("decode_exceptions_scalar", || decode(&exceptions))
        .time("range_packed", || range(&packed))
        .time("range_exceptions", || range(&exceptions))
        .time_scalar("range_exceptions_scalar", || range(&exceptions))
        .time("histogram_packed", || histogram(&on_packed))
        .time("histogram_exceptions", || histogram(&on_exceptions))
        .time_scalar("histogram_exceptions_scalar", || histogram(&on_exceptions))
        .ratio("decode_ratio", "decode_exceptions", "decode_packed")
        .ratio("range_ratio", "range_exceptions", "range_packed")
        .ratio(
            "histogram_ratio",
            "histogram_exceptions",
            "histogram_packed",
        );
}
