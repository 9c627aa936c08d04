//! Materialized rows and sort keys.
//!
//! The tabular-view vizketches (next items, quantiles, find) exchange small
//! numbers of materialized rows between nodes. A [`RowKey`] is the projection
//! of a row onto the active sort columns; ordering row keys orders rows.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A materialized row: one `Value` per visible column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Cell values, in schema order of the projected columns.
    pub values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// A row's projection onto the sort columns, with per-column direction
/// already applied, so that plain lexicographic comparison orders rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowKey {
    values: Vec<Value>,
    /// Per-column descending flags, parallel to `values`.
    descending: Vec<bool>,
}

impl RowKey {
    /// Build from sort-column values and matching descending flags.
    pub fn new(values: Vec<Value>, descending: Vec<bool>) -> Self {
        debug_assert_eq!(values.len(), descending.len());
        RowKey { values, descending }
    }

    /// The underlying values (direction flags not applied).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The per-column descending flags.
    pub fn descending(&self) -> &[bool] {
        &self.descending
    }
}

impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(self.values.len(), other.values.len());
        for ((a, b), desc) in self.values.iter().zip(&other.values).zip(&self.descending) {
            let ord = a.cmp(b);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: Vec<Value>, desc: Vec<bool>) -> RowKey {
        RowKey::new(vals, desc)
    }

    #[test]
    fn ascending_comparison() {
        let a = key(vec![Value::Int(1)], vec![false]);
        let b = key(vec![Value::Int(2)], vec![false]);
        assert!(a < b);
    }

    #[test]
    fn descending_flag_reverses() {
        let a = key(vec![Value::Int(1)], vec![true]);
        let b = key(vec![Value::Int(2)], vec![true]);
        assert!(a > b);
    }

    #[test]
    fn lexicographic_multi_column() {
        let a = key(vec![Value::str("AA"), Value::Int(9)], vec![false, false]);
        let b = key(vec![Value::str("AA"), Value::Int(10)], vec![false, false]);
        let c = key(vec![Value::str("UA"), Value::Int(0)], vec![false, false]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn mixed_directions() {
        // Sort by carrier ascending, delay descending.
        let a = key(vec![Value::str("AA"), Value::Int(50)], vec![false, true]);
        let b = key(vec![Value::str("AA"), Value::Int(10)], vec![false, true]);
        assert!(a < b, "larger delay first within same carrier");
    }

    #[test]
    fn missing_sorts_first_even_descending() {
        let m = key(vec![Value::Missing], vec![true]);
        let v = key(vec![Value::Int(0)], vec![true]);
        // Descending reverses, so Missing (smallest) comes last.
        assert!(m > v);
    }

    #[test]
    fn row_display() {
        let r = Row::new(vec![Value::str("SFO"), Value::Int(42), Value::Missing]);
        assert_eq!(r.to_string(), "SFO | 42 | (missing)");
        assert_eq!(r.values.len(), 3);
    }
}
