//! CSV reading and writing, from scratch.
//!
//! Handles RFC-4180 quoting (embedded commas, quotes, newlines), optional
//! headers, and per-column type inference (Int → Double → String fallback;
//! empty fields become missing values). The reader is buffered and builds
//! columns directly — no per-row allocation of records.

use crate::error::{Error, Result};
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{ColumnKind, Table};
use std::io::{BufRead, Write};

/// Options for [`read_csv`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// First row is a header with column names.
    pub has_header: bool,
    /// Field delimiter.
    pub delimiter: u8,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            has_header: true,
            delimiter: b',',
        }
    }
}

/// Parse one CSV record starting at `first_line`; returns its fields.
/// Handles quoted fields spanning multiple lines by pulling more lines.
pub(crate) fn parse_record(
    first_line: String,
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    delimiter: u8,
    line_no: usize,
) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut buf: Vec<char> = first_line.chars().collect();
    let mut i = 0usize;
    let mut in_quotes = false;
    loop {
        if i >= buf.len() {
            if in_quotes {
                // Quoted newline: continue with the next physical line.
                match lines.next() {
                    Some(Ok(next)) => {
                        field.push('\n');
                        buf = next.chars().collect();
                        i = 0;
                        continue;
                    }
                    Some(Err(e)) => return Err(e.into()),
                    None => {
                        return Err(Error::Parse {
                            format: "csv",
                            at: line_no,
                            message: "unterminated quoted field".into(),
                        })
                    }
                }
            }
            fields.push(field);
            return Ok(fields);
        }
        let c = buf[i];
        i += 1;
        match c {
            '"' if !in_quotes && field.is_empty() => in_quotes = true,
            '"' if in_quotes => {
                if buf.get(i) == Some(&'"') {
                    i += 1;
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            c if c == delimiter as char && !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
}

/// What a column's values could all be parsed as so far.
#[derive(Clone, Copy, PartialEq)]
enum Inferred {
    Int,
    Double,
    Text,
}

/// Read a CSV stream into a [`Table`], inferring column types.
pub fn read_csv(reader: impl BufRead, options: &CsvOptions) -> Result<Table> {
    let mut lines = reader.lines();
    let mut line_no = 0usize;

    // Collect raw string fields column-wise.
    let mut names: Vec<String> = Vec::new();
    let mut cells: Vec<Vec<Option<String>>> = Vec::new();

    if options.has_header {
        match lines.next() {
            None => return Ok(Table::empty()),
            Some(line) => {
                line_no += 1;
                let header = parse_record(line?, &mut lines, options.delimiter, line_no)?;
                names = header;
                cells = names.iter().map(|_| Vec::new()).collect();
            }
        }
    }

    while let Some(line) = lines.next() {
        line_no += 1;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let record = parse_record(line, &mut lines, options.delimiter, line_no)?;
        if names.is_empty() {
            names = (0..record.len()).map(|i| format!("Column{i}")).collect();
            cells = names.iter().map(|_| Vec::new()).collect();
        }
        if record.len() != names.len() {
            return Err(Error::Parse {
                format: "csv",
                at: line_no,
                message: format!("expected {} fields, found {}", names.len(), record.len()),
            });
        }
        for (col, value) in cells.iter_mut().zip(record) {
            col.push(if value.is_empty() { None } else { Some(value) });
        }
    }

    // Infer each column's type from its non-missing values.
    let mut builder = Table::builder();
    for (name, col) in names.iter().zip(&cells) {
        let mut kind = Inferred::Int;
        for v in col.iter().flatten() {
            let v = v.trim();
            match kind {
                Inferred::Int if v.parse::<i64>().is_err() => {
                    kind = if v.parse::<f64>().is_ok() {
                        Inferred::Double
                    } else {
                        Inferred::Text
                    };
                }
                Inferred::Double if v.parse::<f64>().is_err() => kind = Inferred::Text,
                _ => {}
            }
            if kind == Inferred::Text {
                break;
            }
        }
        let column = match kind {
            Inferred::Int => Column::Int(I64Column::from_options(
                col.iter()
                    .map(|v| v.as_deref().and_then(|s| s.trim().parse().ok())),
            )),
            Inferred::Double => Column::Double(F64Column::from_options(
                col.iter()
                    .map(|v| v.as_deref().and_then(|s| s.trim().parse().ok())),
            )),
            Inferred::Text => {
                Column::Str(DictColumn::from_strings(col.iter().map(|v| v.as_deref())))
            }
        };
        builder = builder.column(name, column.kind(), column);
    }
    Ok(builder.build()?)
}

/// Write a table as CSV with a header row.
pub fn write_csv(table: &Table, mut out: impl Write) -> Result<()> {
    let names: Vec<&str> = table
        .schema()
        .descs()
        .iter()
        .map(|d| d.name.as_ref())
        .collect();
    writeln!(
        out,
        "{}",
        names.iter().map(|n| quote(n)).collect::<Vec<_>>().join(",")
    )?;
    for row in 0..table.num_rows() {
        let mut first = true;
        for c in 0..table.num_columns() {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            let v = table.column(c).value(row);
            if !v.is_missing() {
                write!(out, "{}", quote(&v.to_string()))?;
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Build a [`Column`] of the declared kind from raw string cells (used by
/// callers that know the schema, bypassing inference).
pub fn column_from_strings(kind: ColumnKind, cells: &[Option<String>]) -> Column {
    match kind {
        ColumnKind::Int => Column::Int(I64Column::from_options(
            cells
                .iter()
                .map(|v| v.as_deref().and_then(|s| s.trim().parse().ok())),
        )),
        ColumnKind::Date => Column::Date(I64Column::from_options(
            cells
                .iter()
                .map(|v| v.as_deref().and_then(|s| s.trim().parse().ok())),
        )),
        ColumnKind::Double => Column::Double(F64Column::from_options(
            cells
                .iter()
                .map(|v| v.as_deref().and_then(|s| s.trim().parse().ok())),
        )),
        ColumnKind::String => {
            Column::Str(DictColumn::from_strings(cells.iter().map(|v| v.as_deref())))
        }
        ColumnKind::Category => {
            Column::Cat(DictColumn::from_strings(cells.iter().map(|v| v.as_deref())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::Value;
    use std::io::Cursor;

    fn read(s: &str) -> Table {
        read_csv(Cursor::new(s), &CsvOptions::default()).unwrap()
    }

    #[test]
    fn basic_read_with_inference() {
        let t = read("name,age,score\nalice,30,9.5\nbob,25,8.25\n");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().kind_of("name").unwrap(), ColumnKind::String);
        assert_eq!(t.schema().kind_of("age").unwrap(), ColumnKind::Int);
        assert_eq!(t.schema().kind_of("score").unwrap(), ColumnKind::Double);
        assert_eq!(t.get(1, "age").unwrap(), Value::Int(25));
        assert_eq!(t.get(0, "score").unwrap(), Value::Double(9.5));
    }

    #[test]
    fn empty_fields_become_missing() {
        let t = read("a,b\n1,\n,2\n");
        assert_eq!(t.get(0, "b").unwrap(), Value::Missing);
        assert_eq!(t.get(1, "a").unwrap(), Value::Missing);
        assert_eq!(t.get(1, "b").unwrap(), Value::Int(2));
    }

    #[test]
    fn quoted_fields() {
        let t = read("text\n\"hello, world\"\n\"she said \"\"hi\"\"\"\n");
        assert_eq!(t.get(0, "text").unwrap(), Value::str("hello, world"));
        assert_eq!(t.get(1, "text").unwrap(), Value::str("she said \"hi\""));
    }

    #[test]
    fn quoted_newline() {
        let t = read("text\n\"line one\nline two\"\n");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, "text").unwrap(), Value::str("line one\nline two"));
    }

    #[test]
    fn mixed_numeric_column_demotes_to_double_then_text() {
        let t = read("x\n1\n2.5\n");
        assert_eq!(t.schema().kind_of("x").unwrap(), ColumnKind::Double);
        let t = read("x\n1\nabc\n");
        assert_eq!(t.schema().kind_of("x").unwrap(), ColumnKind::String);
    }

    #[test]
    fn field_count_mismatch_is_error() {
        let r = read_csv(Cursor::new("a,b\n1\n"), &CsvOptions::default());
        assert!(matches!(r, Err(Error::Parse { .. })));
    }

    #[test]
    fn headerless_mode_names_columns() {
        let t = read_csv(
            Cursor::new("1,x\n2,y\n"),
            &CsvOptions {
                has_header: false,
                delimiter: b',',
            },
        )
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert!(t.schema().index_of("Column0").is_ok());
    }

    #[test]
    fn round_trip_write_read() {
        let t = read("name,v\n\"a,b\",1\nplain,\n");
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let t2 = read_csv(Cursor::new(buf), &CsvOptions::default()).unwrap();
        assert_eq!(t2.num_rows(), t.num_rows());
        assert_eq!(t2.get(0, "name").unwrap(), Value::str("a,b"));
        assert_eq!(t2.get(1, "v").unwrap(), Value::Missing);
    }

    #[test]
    fn alternative_delimiter() {
        let t = read_csv(
            Cursor::new("a|b\n1|2\n"),
            &CsvOptions {
                has_header: true,
                delimiter: b'|',
            },
        )
        .unwrap();
        assert_eq!(t.get(0, "b").unwrap(), Value::Int(2));
    }

    #[test]
    fn empty_input() {
        let t = read("");
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn explicit_schema_builder() {
        let col = column_from_strings(
            ColumnKind::Date,
            &[Some("1000".into()), None, Some("2000".into())],
        );
        assert_eq!(col.kind(), ColumnKind::Date);
        assert_eq!(col.value(0), Value::Date(1000));
        assert!(col.is_null(1));
    }
}
