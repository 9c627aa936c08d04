//! Inputs that more than one suite measures, generated by global row index
//! so the single-table suites and the sharded cluster of `cache` see the
//! same column.

use hillview_bench::harness::mix;
use hillview_columnar::column::{Column, F64Column, I64Column};
use hillview_columnar::{ColumnKind, NullMask, Table};
use hillview_core::QueryOptions;
use std::ops::Range;

/// Rows of every single-table input.
pub const ROWS: usize = 1_000_000;

/// Shuffled 12-bit values (ports, buckets, categories held as ints): no
/// run structure, so storage is frame-of-reference bit-packed, and no
/// block has a tight min/max window, so zone maps skip nothing.
pub fn shuffled_u12(rows: Range<usize>) -> Vec<i64> {
    rows.map(|i| (mix(i as u64) % 4096) as i64).collect()
}

/// Sorted small-range values with jitter: the jitter defeats run-length
/// encoding (storage stays bit-packed) while each 64-row block keeps a
/// tight min/max window, so a range on this column engages zone-map
/// skipping — the drill-down shape interactive zooms live in.
pub fn sorted_jitter(rows: Range<usize>) -> Vec<i64> {
    rows.map(|i| (i / 244) as i64 + (mix(i as u64) % 4) as i64)
        .collect()
}

/// Sorted, low-cardinality: runs of 128 identical values → run-length.
pub fn sorted_lowcard() -> Vec<i64> {
    (0..ROWS as i64).map(|i| i / 128).collect()
}

/// Sequential ids with jitter (timestamps, auto-increment keys): no runs,
/// a ~31-bit value range, tiny adjacent deltas → per-block delta coding.
pub fn sequential_ids() -> Vec<i64> {
    (0..ROWS as i64)
        .map(|i| i * 1000 + (i * 7919) % 613)
        .collect()
}

/// A one-column integer table `X`.
pub fn int_column_table(column: I64Column) -> Table {
    Table::builder()
        .column("X", ColumnKind::Int, Column::Int(column))
        .build()
        .unwrap()
}

/// `values` as `X`, encoded the way ingest would.
pub fn int_table(values: Vec<i64>) -> Table {
    int_column_table(I64Column::new(values, NullMask::none()))
}

/// The chart-zoom shape: a fractional (hence plain) double column `X`.
pub fn zoom_doubles() -> Table {
    let doubles = (0..ROWS).map(|i| ((i * 7919) % 10_000) as f64 * 0.1);
    Table::builder()
        .column(
            "X",
            ColumnKind::Double,
            Column::Double(F64Column::new(doubles.collect(), NullMask::none())),
        )
        .build()
        .unwrap()
}

/// The physical encoding of a one-column table, for the `encoding` label.
pub fn encoding_of(t: &Table) -> String {
    match t.column(0) {
        Column::Int(col) => col.storage().kind().to_string(),
        Column::Double(col) => format!("{}-f64", col.data().kind()),
        _ => "dict".to_string(),
    }
}

/// Query options with the sketch-result cache off: every query computes.
pub fn uncached() -> QueryOptions {
    QueryOptions {
        cache: false,
        ..Default::default()
    }
}
