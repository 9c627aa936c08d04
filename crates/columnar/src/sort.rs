//! Multi-column sort orders.
//!
//! A [`SortOrder`] names the columns (and directions) by which the tabular
//! view is currently sorted (paper §3.3: "Sort by a set of columns"). It
//! resolves against a table to extract comparable [`RowKey`]s.

use crate::error::Result;
use crate::rows::RowKey;
use crate::table::Table;
use crate::value::Value;
use crate::Column;
use std::cmp::Ordering;
use std::sync::Arc;

/// One column of a sort order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortColumn {
    /// Column name.
    pub name: Arc<str>,
    /// True for descending order.
    pub descending: bool,
}

/// An ordered list of sort columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortOrder {
    columns: Vec<SortColumn>,
}

impl SortOrder {
    /// Ascending sort on the given column names.
    pub fn ascending(names: &[&str]) -> Self {
        SortOrder {
            columns: names
                .iter()
                .map(|n| SortColumn {
                    name: Arc::from(*n),
                    descending: false,
                })
                .collect(),
        }
    }

    /// Build with explicit directions: `(name, descending)`.
    pub fn with_directions(cols: &[(&str, bool)]) -> Self {
        SortOrder {
            columns: cols
                .iter()
                .map(|(n, d)| SortColumn {
                    name: Arc::from(*n),
                    descending: *d,
                })
                .collect(),
        }
    }

    /// The sort columns.
    pub fn columns(&self) -> &[SortColumn] {
        &self.columns
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_ref())
    }

    /// True if no sort columns are set.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve column names to indexes within `table`, for fast key
    /// extraction during scans.
    pub fn resolve(&self, table: &Table) -> Result<ResolvedSortOrder> {
        let mut idx = Vec::with_capacity(self.columns.len());
        let mut desc = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            idx.push(table.schema().index_of(&c.name)?);
            desc.push(c.descending);
        }
        Ok(ResolvedSortOrder {
            indexes: idx,
            descending: desc,
        })
    }
}

/// A sort order bound to the column indexes of a specific table.
#[derive(Debug, Clone)]
pub struct ResolvedSortOrder {
    indexes: Vec<usize>,
    descending: Vec<bool>,
}

impl ResolvedSortOrder {
    /// Extract the sort key of `row` from `table`.
    pub fn key(&self, table: &Table, row: usize) -> RowKey {
        let values = self
            .indexes
            .iter()
            .map(|&c| table.column(c).value(row))
            .collect();
        RowKey::new(values, self.descending.clone())
    }

    /// `self.key(table, row).cmp(key)` without building the row's key:
    /// each sort column is compared through its typed read
    /// ([`crate::Column::cmp_value`]), stopping at the first that differs. A
    /// scan tests every row against a bound this way and materializes a
    /// [`RowKey`] only for the few it keeps.
    pub fn cmp_row(&self, table: &Table, row: usize, key: &RowKey) -> Ordering {
        debug_assert_eq!(self.indexes.len(), key.values().len());
        for ((&c, other), &desc) in self.indexes.iter().zip(key.values()).zip(&self.descending) {
            let ord = table.column(c).cmp_value(row, other);
            if ord != Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    }

    /// `key` resolved against `table`'s columns once, so that rows compare
    /// against it without reading a string: a string key on a string
    /// column becomes its [`crate::Dictionary::rank`], which row codes
    /// compare against as `u32`s. Valid for `table` only; a scan that moves
    /// to another part binds again.
    pub fn bind(&self, table: &Table, key: &RowKey) -> RowBound {
        debug_assert_eq!(self.indexes.len(), key.values().len());
        let parts = self
            .indexes
            .iter()
            .zip(key.values())
            .map(|(&c, value)| match (table.column(c), value) {
                (Column::Str(d) | Column::Cat(d), Value::Str(s)) => BoundPart::Rank {
                    rank: d.dictionary().rank(s),
                    missing: Value::Missing.cmp(value),
                },
                _ => BoundPart::Value(value.clone()),
            })
            .collect();
        RowBound { parts }
    }

    /// `self.cmp_row(table, row, key)` for the `key` that `bound` was bound
    /// from ([`ResolvedSortOrder::bind`]) against this same `table`.
    #[inline]
    pub fn cmp_bound(&self, table: &Table, row: usize, bound: &RowBound) -> Ordering {
        debug_assert_eq!(self.indexes.len(), bound.parts.len());
        for ((&c, part), &desc) in self.indexes.iter().zip(&bound.parts).zip(&self.descending) {
            let col = table.column(c);
            let ord = match (part, col) {
                (BoundPart::Rank { rank, missing }, Column::Str(d) | Column::Cat(d)) => {
                    if d.nulls().is_null(row) {
                        *missing
                    } else {
                        let code = d.code(row);
                        match *rank {
                            Ok(at) => code.cmp(&at),
                            Err(at) if code < at => Ordering::Less,
                            Err(_) => Ordering::Greater,
                        }
                    }
                }
                (BoundPart::Value(value), _) => col.cmp_value(row, value),
                (BoundPart::Rank { .. }, _) => unreachable!("a rank is bound to a string column"),
            };
            if ord != Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    }

    /// The resolved column indexes.
    pub fn indexes(&self) -> &[usize] {
        &self.indexes
    }

    /// The per-column descending flags.
    pub fn descending(&self) -> &[bool] {
        &self.descending
    }
}

/// A sort key bound to the columns of one table
/// ([`ResolvedSortOrder::bind`]).
#[derive(Debug, Clone)]
pub struct RowBound {
    parts: Vec<BoundPart>,
}

#[derive(Debug, Clone)]
enum BoundPart {
    /// A string key on a string column: where it falls among the column's
    /// codes, and how a missing row compares with it.
    Rank {
        rank: std::result::Result<u32, u32>,
        missing: Ordering,
    },
    /// Any other key value, compared through [`crate::Column::cmp_value`].
    Value(Value),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, DictColumn, I64Column};
    use crate::schema::ColumnKind;
    use crate::table::Table;

    fn table() -> Table {
        Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([
                    Some("UA"),
                    Some("AA"),
                    Some("UA"),
                ])),
            )
            .column(
                "Delay",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(10), Some(5), Some(-3)])),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn resolve_and_extract_keys() {
        let t = table();
        let order = SortOrder::ascending(&["Carrier", "Delay"]);
        let r = order.resolve(&t).unwrap();
        let k0 = r.key(&t, 0);
        let k1 = r.key(&t, 1);
        let k2 = r.key(&t, 2);
        assert!(k1 < k0, "AA before UA");
        assert!(k2 < k0, "UA,-3 before UA,10");
    }

    #[test]
    fn descending_direction_applied() {
        let t = table();
        let order = SortOrder::with_directions(&[("Delay", true)]);
        let r = order.resolve(&t).unwrap();
        assert!(r.key(&t, 0) < r.key(&t, 1), "10 before 5 when descending");
    }

    #[test]
    fn unknown_column_fails_resolution() {
        let t = table();
        assert!(SortOrder::ascending(&["Nope"]).resolve(&t).is_err());
    }

    #[test]
    fn empty_order_yields_equal_keys() {
        let t = table();
        let r = SortOrder::default().resolve(&t).unwrap();
        assert_eq!(r.key(&t, 0), r.key(&t, 1));
    }
}
