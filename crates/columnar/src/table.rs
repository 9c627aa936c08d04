//! Immutable columnar tables.
//!
//! A [`Table`] is one horizontal partition's worth of data: a schema plus one
//! reference-counted column per schema entry. Derived tables (projections,
//! tables with appended UDF columns) share column storage with their parents,
//! mirroring Hillview's "tables share common data" design (paper §5.6).

use crate::column::Column;
use crate::error::{Error, Result};
use crate::rows::Row;
use crate::schema::{ColumnDesc, ColumnKind, Schema};
use crate::value::Value;
use std::sync::Arc;

/// An immutable table: schema + columns + row count.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    num_rows: usize,
}

impl Table {
    /// Start building a table column by column.
    pub fn builder() -> TableBuilder {
        TableBuilder::default()
    }

    /// An empty table with no columns and no rows.
    pub fn empty() -> Self {
        Table {
            schema: Arc::new(Schema::new()),
            columns: Vec::new(),
            num_rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Total number of cells (rows × columns) — the paper's headline unit.
    pub fn num_cells(&self) -> u64 {
        self.num_rows as u64 * self.columns.len() as u64
    }

    /// Column at schema position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The value of cell (`row`, column named `name`).
    pub fn get(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.num_rows {
            return Err(Error::RowOutOfBounds {
                row,
                len: self.num_rows,
            });
        }
        Ok(self.column_by_name(name)?.value(row))
    }

    /// Materialize row `row` across all columns.
    pub fn full_row(&self, row: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// A new table sharing storage but containing only the named columns.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| Ok(self.columns[self.schema.index_of(n)?].clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            schema: Arc::new(schema),
            columns,
            num_rows: self.num_rows,
        })
    }

    /// A new table sharing all existing columns plus one appended column.
    /// This is how UDF-derived columns are attached (paper §5.6).
    pub fn with_column(&self, name: &str, column: Column) -> Result<Table> {
        if !self.columns.is_empty() && column.len() != self.num_rows {
            return Err(Error::LengthMismatch {
                expected: self.num_rows,
                actual: column.len(),
            });
        }
        let mut schema = (*self.schema).clone();
        schema.push(ColumnDesc::new(name, column.kind()))?;
        let mut columns = self.columns.clone();
        let num_rows = if self.columns.is_empty() {
            column.len()
        } else {
            self.num_rows
        };
        columns.push(Arc::new(column));
        Ok(Table {
            schema: Arc::new(schema),
            columns,
            num_rows,
        })
    }

    /// Approximate heap footprint of all columns, for cache accounting.
    /// Mapped (file-backed) payloads are excluded — see
    /// [`Table::mapped_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }

    /// Bytes of column payload addressed through lazily-resident mapped
    /// segments (zero for fully heap-resident tables).
    pub fn mapped_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.mapped_bytes()).sum()
    }
}

/// Builds a [`Table`] column by column, validating kinds and lengths.
#[derive(Default)]
pub struct TableBuilder {
    descs: Vec<ColumnDesc>,
    columns: Vec<Arc<Column>>,
    err: Option<Error>,
}

impl TableBuilder {
    /// Append a column. Errors are deferred to [`TableBuilder::build`].
    pub fn column(mut self, name: &str, kind: ColumnKind, column: Column) -> Self {
        if self.err.is_some() {
            return self;
        }
        if column.kind() != kind {
            self.err = Some(Error::TypeMismatch {
                context: format!("column {name:?}"),
                expected: kind.to_string(),
                actual: column.kind().to_string(),
            });
            return self;
        }
        if let Some(first) = self.columns.first() {
            if first.len() != column.len() {
                self.err = Some(Error::LengthMismatch {
                    expected: first.len(),
                    actual: column.len(),
                });
                return self;
            }
        }
        self.descs.push(ColumnDesc::new(name, kind));
        self.columns.push(Arc::new(column));
        self
    }

    /// Finish building.
    pub fn build(self) -> Result<Table> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let num_rows = self.columns.first().map_or(0, |c| c.len());
        let schema = Schema::from_descs(self.descs)?;
        Ok(Table {
            schema: Arc::new(schema),
            columns: self.columns,
            num_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{DictColumn, F64Column, I64Column};

    fn flights() -> Table {
        Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([
                    Some("UA"),
                    Some("AA"),
                    None,
                    Some("DL"),
                ])),
            )
            .column(
                "DepDelay",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(5.0),
                    Some(-2.0),
                    Some(60.0),
                    None,
                ])),
            )
            .column(
                "Distance",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([
                    Some(2500),
                    Some(300),
                    Some(900),
                    Some(100),
                ])),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn dimensions_and_cells() {
        let t = flights();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.num_cells(), 12);
    }

    #[test]
    fn cell_access() {
        let t = flights();
        assert_eq!(t.get(0, "Carrier").unwrap(), Value::str("UA"));
        assert_eq!(t.get(2, "Carrier").unwrap(), Value::Missing);
        assert_eq!(t.get(1, "DepDelay").unwrap(), Value::Double(-2.0));
        assert!(t.get(9, "Carrier").is_err());
        assert!(t.get(0, "Nope").is_err());
    }

    #[test]
    fn row_materialization() {
        let t = flights();
        let r = t.full_row(1);
        assert_eq!(r.values.len(), 3);
        assert_eq!(r.values[0], Value::str("AA"));
    }

    #[test]
    fn projection_shares_storage() {
        let t = flights();
        let p = t.project(&["Distance", "Carrier"]).unwrap();
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.num_rows(), 4);
        assert!(Arc::ptr_eq(
            &p.columns[1],
            &t.columns[t.schema().index_of("Carrier").unwrap()]
        ));
    }

    #[test]
    fn with_column_appends() {
        let t = flights();
        let doubled = Column::Int(I64Column::from_options(
            (0..4).map(|i| t.get(i, "Distance").unwrap().as_i64().map(|v| v * 2)),
        ));
        let t2 = t.with_column("Distance2", doubled).unwrap();
        assert_eq!(t2.num_columns(), 4);
        assert_eq!(t2.get(0, "Distance2").unwrap(), Value::Int(5000));
        // Original untouched.
        assert_eq!(t.num_columns(), 3);
    }

    #[test]
    fn with_column_rejects_bad_length() {
        let t = flights();
        let short = Column::Int(I64Column::from_options([Some(1)]));
        assert!(matches!(
            t.with_column("X", short),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn builder_rejects_kind_mismatch() {
        let r = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Int(I64Column::from_options([Some(1)])),
            )
            .build();
        assert!(matches!(r, Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn builder_rejects_length_mismatch() {
        let r = Table::builder()
            .column(
                "A",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(1), Some(2)])),
            )
            .column(
                "B",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(1)])),
            )
            .build();
        assert!(matches!(r, Err(Error::LengthMismatch { .. })));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_cells(), 0);
    }
}
