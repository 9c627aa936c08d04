//! The tables the storage property suites draw: shared by
//! `tests/roundtrips.rs` and the unit tests of `src/csv.rs`, which pulls
//! this file in by path.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{ColumnKind, Table};
use proptest::prelude::*;

/// Arbitrary mixed-type tables with nulls. `F` is fractional (stored raw);
/// `W` holds the same draws rounded to whole numbers — small negatives to
/// `-0.0` — so it is stored as encoded integer codes. Strings hold every
/// character CSV must quote, and are never empty: CSV cannot tell an empty
/// string from a missing one.
pub fn table_strategy() -> impl Strategy<Value = Table> {
    let row = (
        proptest::option::weighted(0.85, any::<i64>()),
        proptest::option::weighted(0.85, -1e12f64..1e12),
        proptest::option::weighted(0.85, "[a-zA-Z0-9 ,\"'\r\n]{1,12}"),
        proptest::option::weighted(0.85, "[ab,\"\r\n]{1,2}"),
    );
    proptest::collection::vec(row, 1..80).prop_map(|rows| {
        Table::builder()
            .column(
                "I",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(rows.iter().map(|r| r.0))),
            )
            .column(
                "F",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(rows.iter().map(|r| r.1))),
            )
            .column(
                "W",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    rows.iter().map(|r| r.1.map(|v| (v / 1e10).round())),
                )),
            )
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(
                    rows.iter().map(|r| r.2.as_deref()),
                )),
            )
            .column(
                "C",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    rows.iter().map(|r| r.3.as_deref()),
                )),
            )
            .build()
            .unwrap()
    })
}
