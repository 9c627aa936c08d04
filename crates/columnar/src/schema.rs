//! Column kinds, descriptors, and table schemas.

use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The data type of a column (paper §3.5: integers, floating-point numbers,
/// dates, free-form text, and categorical strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// Date as epoch milliseconds.
    Date,
    /// Free-form text (dictionary-encoded).
    String,
    /// Categorical data: text from a small domain (dictionary-encoded).
    Category,
}

impl ColumnKind {
    /// True for kinds that can be converted to a real number for charting
    /// (paper §4.3: numeric "or a value that can be readily converted to a
    /// real number, such as a date").
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ColumnKind::Int | ColumnKind::Double | ColumnKind::Date
        )
    }
}

impl fmt::Display for ColumnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnKind::Int => "Int",
            ColumnKind::Double => "Double",
            ColumnKind::Date => "Date",
            ColumnKind::String => "String",
            ColumnKind::Category => "Category",
        };
        f.write_str(s)
    }
}

/// Name and kind of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDesc {
    /// Column name, unique within a schema.
    pub name: Arc<str>,
    /// Data type.
    pub kind: ColumnKind,
}

impl ColumnDesc {
    /// Convenience constructor.
    pub fn new(name: &str, kind: ColumnKind) -> Self {
        ColumnDesc {
            name: Arc::from(name),
            kind,
        }
    }
}

/// An ordered set of uniquely-named column descriptors.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    columns: Vec<ColumnDesc>,
    by_name: HashMap<Arc<str>, usize>,
}

impl Schema {
    /// Empty schema.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Build from descriptors; fails on duplicate names.
    pub fn from_descs(descs: Vec<ColumnDesc>) -> Result<Self> {
        let mut s = Schema::new();
        for d in descs {
            s.push(d)?;
        }
        Ok(s)
    }

    /// Append a column descriptor; fails on duplicate names.
    pub(crate) fn push(&mut self, desc: ColumnDesc) -> Result<()> {
        if self.by_name.contains_key(&desc.name) {
            return Err(Error::DuplicateColumn(desc.name.to_string()));
        }
        self.by_name.insert(desc.name.clone(), self.columns.len());
        self.columns.push(desc);
        Ok(())
    }

    /// Descriptor at position `i`.
    pub fn desc(&self, i: usize) -> &ColumnDesc {
        &self.columns[i]
    }

    /// All descriptors in order.
    pub fn descs(&self) -> &[ColumnDesc] {
        &self.columns
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Kind of the column named `name`.
    pub fn kind_of(&self, name: &str) -> Result<ColumnKind> {
        Ok(self.columns[self.index_of(name)?].kind)
    }

    /// A new schema containing only the named columns, in the given order.
    pub(crate) fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut out = Schema::new();
        for n in names {
            let i = self.index_of(n)?;
            out.push(self.columns[i].clone())?;
        }
        Ok(out)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", c.name, c.kind)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_descs(vec![
            ColumnDesc::new("Carrier", ColumnKind::Category),
            ColumnDesc::new("DepDelay", ColumnKind::Double),
            ColumnDesc::new("FlightDate", ColumnKind::Date),
        ])
        .unwrap()
    }

    #[test]
    fn index_and_kind_lookup() {
        let s = sample();
        assert_eq!(s.index_of("DepDelay").unwrap(), 1);
        assert_eq!(s.kind_of("Carrier").unwrap(), ColumnKind::Category);
        assert!(matches!(s.index_of("Nope"), Err(Error::UnknownColumn(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = sample();
        let e = s.push(ColumnDesc::new("Carrier", ColumnKind::Int));
        assert!(matches!(e, Err(Error::DuplicateColumn(_))));
    }

    #[test]
    fn project_preserves_order_given() {
        let s = sample();
        let p = s.project(&["FlightDate", "Carrier"]).unwrap();
        assert_eq!(p.descs().len(), 2);
        assert_eq!(p.desc(0).name.as_ref(), "FlightDate");
        assert_eq!(p.desc(1).name.as_ref(), "Carrier");
        assert!(s.project(&["Missing"]).is_err());
    }

    #[test]
    fn kind_predicates() {
        assert!(ColumnKind::Int.is_numeric());
        assert!(ColumnKind::Date.is_numeric());
        assert!(!ColumnKind::String.is_numeric());
    }

    #[test]
    fn display_formats() {
        let s = sample();
        let txt = s.to_string();
        assert!(txt.contains("Carrier:Category"));
        assert!(txt.contains("DepDelay:Double"));
    }
}
