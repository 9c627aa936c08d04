//! Horizontal partitioning into micropartitions.
//!
//! Paper §5.3: *"the data partition within a server is divided into
//! micropartitions of 10-20M rows, each micropartition assigned to a
//! leaf."* (Scaled down by default here.) Partitioning
//! is arbitrary: Hillview makes no assumptions about which rows land where
//! (§2), which the sketch merge laws guarantee is harmless.

use crate::error::{Error, Result};
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::dictionary::{Dictionary, DictionaryBuilder};
use hillview_columnar::{NullMask, Table};
use std::sync::Arc;

/// Split `table` into chunks of at most `rows_per_partition` rows.
///
/// Copies column data (partitions are independent tables, as if read from
/// separate files); row order is preserved across the concatenation.
pub fn partition_table(table: &Table, rows_per_partition: usize) -> Vec<Table> {
    let rpp = rows_per_partition.max(1);
    let n = table.num_rows();
    if n == 0 {
        return vec![table.clone()];
    }
    let mut out = Vec::with_capacity(n.div_ceil(rpp));
    let mut start = 0usize;
    while start < n {
        let end = (start + rpp).min(n);
        out.push(slice_table(table, start, end));
        start = end;
    }
    out
}

/// Copy rows `start..end` of every column into a new table. A string
/// column's slice shares the source's dictionary, however few of its
/// entries the rows reference (pruning is [`crate::hvc::encode`]'s job).
pub fn slice_table(table: &Table, start: usize, end: usize) -> Table {
    slice(table, start, end, false)
}

/// [`slice_table`] for rows on their way to a file: each string column gets
/// the dictionary [`crate::hvc::encode`] would store for it, so that sealing
/// the slice finds nothing left to prune and encodes its codes once, not
/// twice.
pub(crate) fn slice_for_file(table: &Table, start: usize, end: usize) -> Table {
    slice(table, start, end, true)
}

/// Bring a string column's `codes` into the form a file stores: its
/// dictionary cut down to the entries the non-null rows reference, kept in
/// the order they had — a subset of a sorted dictionary is sorted, so this
/// interns nothing and sorts nothing — each code shifted down by the
/// entries dropped below it, null rows parked on code 0 (in range whenever
/// a row is present). Returns the cut dictionary, or `None`, leaving
/// `codes` alone, when every entry of `dict` is referenced already, as in
/// any column built by interning its own rows.
pub(crate) fn renumber(
    codes: &mut [u32],
    nulls: &NullMask,
    dict: &Dictionary,
) -> Option<Dictionary> {
    let mut keep = vec![false; dict.len()];
    for (row, &code) in codes.iter().enumerate() {
        if !nulls.is_null(row) {
            keep[code as usize] = true;
        }
    }
    if keep.iter().all(|&k| k) {
        return None;
    }
    // A kept entry's new code: how many kept entries sort below it.
    let mut renumbered = Vec::with_capacity(dict.len());
    let mut next = 0u32;
    for &k in &keep {
        renumbered.push(next);
        next += u32::from(k);
    }
    for (row, code) in codes.iter_mut().enumerate() {
        *code = if nulls.is_null(row) {
            0
        } else {
            renumbered[*code as usize]
        };
    }
    Some(dict.subset(&keep))
}

fn slice(table: &Table, start: usize, end: usize, prune: bool) -> Table {
    let slice_nulls = |nulls: &NullMask| {
        NullMask::from_flags((start..end).map(|i| nulls.is_null(i)), end - start)
    };
    let mut builder = Table::builder();
    for c in 0..table.num_columns() {
        let desc = table.schema().desc(c);
        let col = table.column(c);
        let sliced = match col {
            Column::Int(ic) | Column::Date(ic) => {
                let data: Vec<i64> = ic.storage().decode_range(start, end);
                let nc = I64Column::new(data, slice_nulls(ic.nulls()));
                if matches!(col, Column::Int(_)) {
                    Column::Int(nc)
                } else {
                    Column::Date(nc)
                }
            }
            Column::Double(fc) => {
                let data: Vec<f64> = fc.data().decode_range(start, end);
                Column::Double(F64Column::new(data, slice_nulls(fc.nulls())))
            }
            Column::Str(dc) | Column::Cat(dc) => {
                // Slice only the codes (decoded and re-encoded, so each
                // micropartition re-analyzes its slice).
                let mut codes: Vec<u32> = dc.codes().decode_range(start, end);
                let nulls = slice_nulls(dc.nulls());
                let own = if prune {
                    renumber(&mut codes, &nulls, dc.dictionary())
                } else {
                    None
                };
                let dict = own.map_or_else(|| dc.dictionary().clone(), Arc::new);
                let nc = DictColumn::new(codes, dict, nulls);
                if matches!(col, Column::Str(_)) {
                    Column::Str(nc)
                } else {
                    Column::Cat(nc)
                }
            }
        };
        builder = builder.column(&desc.name, desc.kind, sliced);
    }
    builder.build().expect("slice preserves schema validity")
}

/// Concatenate tables with identical schemas into one, in order — the
/// inverse of [`partition_table`]. Used by the spilling ingest
/// ([`crate::spill`]) to seal buffered row batches into one micropartition
/// file, and by tests to check spilled parts reassemble exactly.
///
/// Values are materialized row-wise (each part's dictionary entries are
/// re-interned once, since each part may carry its own), so the result is
/// always fully owned.
pub(crate) fn concat_tables(parts: &[Table]) -> Result<Table> {
    let Some(first) = parts.first() else {
        return Ok(Table::empty());
    };
    for p in &parts[1..] {
        if p.schema().descs() != first.schema().descs() {
            return Err(Error::Schema(format!(
                "cannot concatenate tables with different schemas ({:?} vs {:?})",
                p.schema().descs(),
                first.schema().descs()
            )));
        }
    }
    let mut builder = Table::builder();
    for c in 0..first.num_columns() {
        let desc = first.schema().desc(c);
        let column = match first.column(c) {
            Column::Int(_) | Column::Date(_) => {
                let vals = parts.iter().flat_map(|p| {
                    let col = p.column(c).as_i64_col().expect("schema checked");
                    (0..p.num_rows()).map(move |i| col.get(i))
                });
                let ic = I64Column::from_options(vals);
                if desc.kind == hillview_columnar::ColumnKind::Int {
                    Column::Int(ic)
                } else {
                    Column::Date(ic)
                }
            }
            Column::Double(_) => {
                Column::Double(F64Column::from_options(parts.iter().flat_map(|p| {
                    let col = p.column(c).as_f64_col().expect("schema checked");
                    (0..p.num_rows()).map(move |i| col.get(i))
                })))
            }
            Column::Str(_) | Column::Cat(_) => {
                let dc = concat_strings(
                    parts
                        .iter()
                        .map(|p| p.column(c).as_dict_col().expect("schema checked")),
                );
                if desc.kind == hillview_columnar::ColumnKind::String {
                    Column::Str(dc)
                } else {
                    Column::Cat(dc)
                }
            }
        };
        builder = builder.column(&desc.name, desc.kind, column);
    }
    Ok(builder.build()?)
}

/// The string columns `parts` one after another, under one dictionary:
/// each part's entries are interned once, in its code order, and its rows
/// carry their codes over; null rows park on code 0.
fn concat_strings<'a>(parts: impl Iterator<Item = &'a DictColumn>) -> DictColumn {
    let mut builder = DictionaryBuilder::new();
    let (mut codes, mut null_flags) = (Vec::new(), Vec::new());
    for part in parts {
        let mut interned = Vec::with_capacity(part.dictionary().len());
        part.dictionary().for_each(|_, s| {
            let code = builder
                .intern(s)
                .expect("one column's distinct strings stay under 4 GiB");
            interned.push(code);
        });
        for row in 0..part.len() {
            let null = part.nulls().is_null(row);
            codes.push(if null {
                0
            } else {
                interned[part.code(row) as usize]
            });
            null_flags.push(null);
        }
    }
    let dict = builder.finish(&mut codes);
    for (code, _) in codes.iter_mut().zip(&null_flags).filter(|(_, &null)| null) {
        *code = 0;
    }
    let rows = codes.len();
    DictColumn::new(
        codes,
        Arc::new(dict),
        NullMask::from_flags(null_flags, rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::{ColumnKind, Value};

    fn table(n: usize) -> Table {
        Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..n).map(|i| {
                    if i % 7 == 3 {
                        None
                    } else {
                        Some(i as i64)
                    }
                }))),
            )
            .column(
                "S",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    (0..n).map(|i| Some(["a", "b", "c"][i % 3])),
                )),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn partitions_cover_all_rows_in_order() {
        let t = table(25);
        let parts = partition_table(&t, 10);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].num_rows(), 10);
        assert_eq!(parts[2].num_rows(), 5);
        let mut global = 0usize;
        for p in &parts {
            for r in 0..p.num_rows() {
                assert_eq!(p.full_row(r), t.full_row(global), "row {global}");
                global += 1;
            }
        }
        assert_eq!(global, 25);
    }

    #[test]
    fn nulls_survive_slicing() {
        let t = table(20);
        let parts = partition_table(&t, 6);
        // Row 3, 10, 17 are null in X; find them in their partitions.
        assert_eq!(parts[0].get(3, "X").unwrap(), Value::Missing);
        assert_eq!(parts[1].get(4, "X").unwrap(), Value::Missing); // global 10
        assert_eq!(parts[2].get(5, "X").unwrap(), Value::Missing); // global 17
    }

    #[test]
    fn dictionaries_are_shared_not_copied() {
        let t = table(30);
        let parts = partition_table(&t, 10);
        let orig = t.column_by_name("S").unwrap().as_dict_col().unwrap();
        for p in &parts {
            let pc = p.column_by_name("S").unwrap().as_dict_col().unwrap();
            assert!(std::sync::Arc::ptr_eq(pc.dictionary(), orig.dictionary()));
        }
    }

    #[test]
    fn tiny_and_oversized_partitions() {
        let t = table(5);
        assert_eq!(partition_table(&t, 100).len(), 1);
        assert_eq!(partition_table(&t, 1).len(), 5);
        let empty = Table::empty();
        assert_eq!(partition_table(&empty, 10).len(), 1);
    }
}
