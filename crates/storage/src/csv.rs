//! CSV reading and writing, from scratch.
//!
//! Handles RFC-4180 quoting (embedded delimiters, quotes, newlines),
//! optional headers, and per-column type inference (Int → Double → String
//! fallback; empty fields become missing values).
//!
//! [`read_csv`] and [`crate::spill::spill_csv`] read through one record
//! loop and build columns by one cell → column rule. The loop reads bytes
//! into one reused line buffer, checks each line's UTF-8 once, and appends
//! each field straight to its column's text arena — no per-row allocation
//! of records, and no `String` per cell: only a quoted field passes through
//! a scratch buffer, to unescape it. A quote opens a field only at its
//! start, `""` inside one is a literal quote, and a quoted field keeps its
//! bytes verbatim, line ends included.
//!
//! [`write_csv`] is the one writer. It walks columns: each dictionary
//! entry is rendered once per column, and no cell becomes a `Value` or a
//! `String` on its way out.

use crate::error::{Error, Result};
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{ColumnDesc, ColumnKind, Table};
use std::io::{BufRead, Write};
use std::str::FromStr;

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

/// One column's cells as read: their text end to end in one arena, and
/// where each cell ends. An empty cell is a missing value.
#[derive(Default)]
pub(crate) struct Cells {
    text: String,
    ends: Vec<usize>,
}

impl Cells {
    fn push(&mut self, cell: &str) {
        self.text.push_str(cell);
        self.ends.push(self.text.len());
    }

    /// Cells held.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Each cell in order, `None` where it is empty.
    fn iter(&self) -> impl Iterator<Item = Option<&str>> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let cell = &self.text[start..end];
            start = end;
            (!cell.is_empty()).then_some(cell)
        })
    }

    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

fn parse_error(at: usize, message: impl Into<String>) -> Error {
    Error::Parse {
        format: "csv",
        at,
        message: message.into(),
    }
}

/// The byte side of the record loop: one reused line buffer and the
/// scratch a quoted field is unescaped into.
struct Lines<R> {
    reader: R,
    delimiter: u8,
    /// The current physical line, its line end included.
    line: String,
    /// Where its content ends: before the `\n` or `\r\n` that ends it, as
    /// `BufRead::lines` strips them.
    end: usize,
    /// The current line's 1-based number.
    line_no: usize,
    /// The quoted field being read, unescaped.
    quoted: String,
}

impl<R: BufRead> Lines<R> {
    /// Read the next physical line; `false` at the end of input.
    fn advance(&mut self) -> Result<bool> {
        let mut bytes = std::mem::take(&mut self.line).into_bytes();
        bytes.clear();
        if self.reader.read_until(b'\n', &mut bytes)? == 0 {
            return Ok(false);
        }
        self.line_no += 1;
        self.line = String::from_utf8(bytes).map_err(|_| parse_error(self.line_no, "not UTF-8"))?;
        let content = self.line.strip_suffix('\n');
        self.end = content.map_or(self.line.len(), |l| l.strip_suffix('\r').unwrap_or(l).len());
        Ok(true)
    }

    /// Append the fields of the record that starts on the current line to
    /// `cells`, one per column (growing it as needed); return how many
    /// there were.
    fn split(&mut self, cells: &mut Vec<Cells>) -> Result<usize> {
        let at = self.line_no;
        let (mut pos, mut n) = (0, 0);
        loop {
            if n == cells.len() {
                cells.push(Cells::default());
            }
            let quoted = pos < self.end && self.line.as_bytes()[pos] == b'"';
            if quoted {
                pos = self.unquote(pos + 1, at)?;
            }
            let line = &self.line[..self.end];
            let tail = line[pos..]
                .bytes()
                .position(|b| b == self.delimiter)
                .map_or(line.len(), |i| pos + i);
            if quoted {
                self.quoted.push_str(&line[pos..tail]);
                cells[n].push(&self.quoted);
            } else {
                cells[n].push(&line[pos..tail]);
            }
            n += 1;
            if tail == line.len() {
                return Ok(n);
            }
            pos = tail + 1;
        }
    }

    /// Unescape into `quoted` the quoted field whose text starts at `pos`,
    /// reading on while the quote stays open; return where the line that
    /// closes it goes on.
    fn unquote(&mut self, mut pos: usize, at: usize) -> Result<usize> {
        self.quoted.clear();
        loop {
            let line = &self.line[..self.end];
            let Some(close) = line[pos..].find('"') else {
                self.quoted.push_str(&self.line[pos..]);
                if !self.advance()? {
                    return Err(parse_error(at, "unterminated quoted field"));
                }
                pos = 0;
                continue;
            };
            self.quoted.push_str(&line[pos..pos + close]);
            pos += close + 1;
            if line.as_bytes().get(pos) != Some(&b'"') {
                return Ok(pos);
            }
            self.quoted.push('"');
            pos += 1;
        }
    }
}

/// The one CSV record loop, under [`read_csv`] and
/// [`crate::spill::spill_csv`]. Hands the header's names (when
/// `options.has_header`) to `header`; then appends each non-blank record
/// after it to one `Cells` per column, calling `record` after each, and
/// returns the columns. Every record has `width` fields — by default as
/// many as the header, or else the first record, has.
pub(crate) fn read_records(
    reader: impl BufRead,
    options: &CsvOptions,
    mut width: Option<usize>,
    header: impl FnOnce(Vec<&str>) -> Result<()>,
    mut record: impl FnMut(&mut [Cells]) -> Result<()>,
) -> Result<Vec<Cells>> {
    if !options.delimiter.is_ascii() {
        return Err(parse_error(0, "the delimiter is not ASCII"));
    }
    let mut lines = Lines {
        reader,
        delimiter: options.delimiter,
        line: String::new(),
        end: 0,
        line_no: 0,
        quoted: String::new(),
    };
    if options.has_header && lines.advance()? {
        let mut names = Vec::new();
        lines.split(&mut names)?;
        header(names.iter().map(|c| c.text.as_str()).collect())?;
        width = width.or(Some(names.len()));
    }
    let mut cells = Vec::new();
    cells.resize_with(width.unwrap_or(0), Cells::default);
    while lines.advance()? {
        if lines.end == 0 {
            continue;
        }
        let at = lines.line_no;
        let found = lines.split(&mut cells)?;
        let expected = *width.get_or_insert(found);
        if found != expected {
            let message = format!("expected {expected} fields, found {found}");
            return Err(parse_error(at, message));
        }
        record(&mut cells)?;
    }
    Ok(cells)
}

/// The one cell → column rule. Numbers and dates are trimmed and parsed,
/// and a cell that does not parse is missing — under a declared schema
/// too, without a word (ROADMAP 1(f)); strings are kept as read.
pub(crate) fn column(kind: ColumnKind, cells: &Cells) -> Column {
    fn parsed<T: FromStr>(cells: &Cells) -> impl Iterator<Item = Option<T>> + '_ {
        cells.iter().map(|c| c.and_then(|s| s.trim().parse().ok()))
    }
    match kind {
        ColumnKind::Int => Column::Int(I64Column::from_options(parsed(cells))),
        ColumnKind::Date => Column::Date(I64Column::from_options(parsed(cells))),
        ColumnKind::Double => Column::Double(F64Column::from_options(parsed(cells))),
        ColumnKind::String => Column::Str(DictColumn::from_strings(cells.iter())),
        ColumnKind::Category => Column::Cat(DictColumn::from_strings(cells.iter())),
    }
}

/// A table of `cells` under [`column`], column `i` described by `descs[i]`.
pub(crate) fn table(descs: &[ColumnDesc], cells: &[Cells]) -> Result<Table> {
    let mut builder = Table::builder();
    for (desc, cells) in descs.iter().zip(cells) {
        builder = builder.column(&desc.name, desc.kind, column(desc.kind, cells));
    }
    Ok(builder.build()?)
}

/// The kind [`read_csv`] gives a column: Int while every present cell
/// parses as one, then Double while every one parses as that, else String.
fn infer(cells: &Cells) -> ColumnKind {
    let mut kind = ColumnKind::Int;
    for cell in cells.iter().flatten().map(str::trim) {
        if kind == ColumnKind::Int && cell.parse::<i64>().is_err() {
            kind = ColumnKind::Double;
        }
        if kind == ColumnKind::Double && cell.parse::<f64>().is_err() {
            return ColumnKind::String;
        }
    }
    kind
}

/// Read a CSV stream into a [`Table`], inferring column types.
pub fn read_csv(reader: impl BufRead, options: &CsvOptions) -> Result<Table> {
    let mut names = Vec::new();
    let take_names = |header: Vec<&str>| {
        names = header.into_iter().map(String::from).collect();
        Ok(())
    };
    let cells = read_records(reader, options, None, take_names, |_| Ok(()))?;
    if !options.has_header {
        names = (0..cells.len()).map(|i| format!("Column{i}")).collect();
    }
    let descs: Vec<ColumnDesc> = names
        .iter()
        .zip(&cells)
        .map(|(name, c)| ColumnDesc::new(name, infer(c)))
        .collect();
    table(&descs, &cells)
}

/// Bytes gathered before a write to `out`.
const FLUSH_BYTES: usize = 64 << 10;

/// Write a table as CSV with a header row: a missing cell as nothing, and
/// a name or string holding the delimiter, a quote or a line end quoted.
///
/// The writer walks columns, not cells. Each string column's dictionary is
/// rendered once, already quoted, into one arena, and a row copies its
/// code's bytes from there; the walk costs O(entries), so a slice sharing
/// a larger table's dictionary pays for every entry, however few its rows
/// use. A number is printed from its typed read — an integer, or a double
/// `Display` would print as one, digit by digit; any other double by
/// `Display`. Rows go into one reused buffer, written to `out` in ≈ 64 KiB
/// pieces.
///
/// A date is written as `@<ms>`, which [`read_csv`] reads back missing.
/// That is kept byte for byte here: printing the bare number would change
/// the `ingest` benchmark's data and move its gated bytes, so the fix
/// belongs with the next change to the benchmark (ROADMAP 1(f)).
pub fn write_csv(table: &Table, mut out: impl Write) -> Result<()> {
    let mut buf = Vec::with_capacity(2 * FLUSH_BYTES);
    for (i, desc) in table.schema().descs().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_field(&mut buf, &desc.name);
    }
    buf.push(b'\n');
    let columns: Vec<_> = (0..table.num_columns())
        .map(|c| Field::of(table.column(c)))
        .collect();
    for row in 0..table.num_rows() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            column.push(row, &mut buf)?;
        }
        buf.push(b'\n');
        if buf.len() >= FLUSH_BYTES {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    Ok(out.write_all(&buf)?)
}

/// How [`write_csv`] prints one column's cells.
enum Field<'t> {
    /// Integers, or dates behind their `@`.
    Int(&'t I64Column, &'static [u8]),
    Double(&'t F64Column),
    /// Each dictionary entry as written, end to end in `arena`; code `c`'s
    /// bytes are `arena[ends[c]..ends[c + 1]]`.
    Text {
        column: &'t DictColumn,
        arena: Vec<u8>,
        ends: Vec<usize>,
    },
}

impl<'t> Field<'t> {
    fn of(column: &'t Column) -> Self {
        match column {
            Column::Int(c) => Field::Int(c, b""),
            Column::Date(c) => Field::Int(c, b"@"),
            Column::Double(c) => Field::Double(c),
            Column::Str(c) | Column::Cat(c) => {
                let dict = c.dictionary();
                let (mut arena, mut ends) = (Vec::new(), Vec::with_capacity(dict.len() + 1));
                ends.push(0);
                dict.for_each(|_, s| {
                    push_field(&mut arena, s);
                    ends.push(arena.len());
                });
                Field::Text {
                    column: c,
                    arena,
                    ends,
                }
            }
        }
    }

    /// Append row `row`'s cell to `buf`.
    fn push(&self, row: usize, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            Field::Int(c, prefix) => {
                if let Some(v) = c.get(row) {
                    buf.extend_from_slice(prefix);
                    push_int(buf, v);
                }
            }
            Field::Double(c) => match c.get(row) {
                Some(v) if prints_as_int(v) => push_int(buf, v as i64),
                Some(v) => write!(buf, "{v}")?,
                None => {}
            },
            Field::Text {
                column,
                arena,
                ends,
            } => {
                if !column.nulls().is_null(row) {
                    let code = column.code(row) as usize;
                    buf.extend_from_slice(&arena[ends[code]..ends[code + 1]]);
                }
            }
        }
        Ok(())
    }
}

/// Whether `Display` prints `v` as the digits of `v as i64`: it does for a
/// whole number below 2^53 in magnitude (each is exact, and no shorter
/// digit string rounds to it), except `-0.0`, which it prints as `-0`.
fn prints_as_int(v: f64) -> bool {
    const EXACT: f64 = (1u64 << 53) as f64;
    v.abs() < EXACT && v.trunc() == v && !(v == 0.0 && v.is_sign_negative())
}

/// Append the decimal digits of `v`, as `Display` prints them.
fn push_int(buf: &mut Vec<u8>, v: i64) {
    if v < 0 {
        buf.push(b'-');
    }
    let (mut n, mut digits, mut at) = (v.unsigned_abs(), [0u8; 20], 20);
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Append `s` as a field: quoted, its quotes doubled, when it holds the
/// delimiter, a quote or a line end; else as it is.
fn push_field(buf: &mut Vec<u8>, s: &str) {
    if !s.contains([',', '"', '\n', '\r']) {
        return buf.extend_from_slice(s.as_bytes());
    }
    buf.push(b'"');
    for b in s.bytes() {
        if b == b'"' {
            buf.push(b'"');
        }
        buf.push(b);
    }
    buf.push(b'"');
}

/// The tables the storage property suites draw (`table_strategy`).
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::Value;
    use proptest::prelude::*;
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
        let mut cells = Cells::default();
        for cell in ["1000", "", " 2000 ", "@3000"] {
            cells.push(cell);
        }
        let col = column(ColumnKind::Date, &cells);
        assert_eq!(col.kind(), ColumnKind::Date);
        assert_eq!(col.value(0), Value::Date(1000));
        assert!(col.is_null(1));
        assert_eq!(col.value(2), Value::Date(2000));
        assert!(
            col.is_null(3),
            "ROADMAP 1(f): `write_csv`'s dates stay missing"
        );
    }

    /// `input` as [`read_csv`] reads it: each column's name and kind, then
    /// each row's cells as displayed; or the line a parse error names.
    fn shown(input: &str, has_header: bool) -> std::result::Result<Vec<Vec<String>>, usize> {
        let options = CsvOptions {
            has_header,
            delimiter: b',',
        };
        let t = match read_csv(Cursor::new(input), &options) {
            Ok(t) => t,
            Err(Error::Parse { at, .. }) => return Err(at),
            Err(e) => panic!("{input:?}: {e}"),
        };
        let descs = t.schema().descs();
        let mut rows = vec![descs
            .iter()
            .map(|d| format!("{}:{:?}", d.name, d.kind))
            .collect()];
        for r in 0..t.num_rows() {
            rows.push(
                (0..descs.len())
                    .map(|c| t.column(c).value(r).to_string())
                    .collect(),
            );
        }
        Ok(rows)
    }

    #[test]
    fn quoting_edges_read_as_the_replaced_reader_read_them() {
        // Each expectation is what the reader before the byte loop (`lines`
        // + a `Vec<char>` per record) returned for the same input.
        let ok = |rows: &[&[&str]]| -> std::result::Result<Vec<Vec<String>>, usize> {
            Ok(rows
                .iter()
                .map(|r| r.iter().map(|c| c.to_string()).collect())
                .collect())
        };
        let cases: [(&str, bool, _); 14] = [
            // Text after a closing quote is literal, quotes included.
            (
                "t\n\"ab\"c\"d\"\n",
                true,
                ok(&[&["t:String"], &["abc\"d\""]]),
            ),
            ("t\nx\"y\"\n", true, ok(&[&["t:String"], &["x\"y\""]])),
            ("t\n\"\"\"\"\n", true, ok(&[&["t:String"], &["\""]])),
            (
                "a,b\n\"\",1\n",
                true,
                ok(&[&["a:Int", "b:Int"], &["(missing)", "1"]]),
            ),
            ("t\n\"abc\nde\n", true, Err(2)),
            ("t\nx\n\"abc", true, Err(3)),
            // Blank lines, `\r\n` ones too, are skipped; a blank header is
            // one column named "".
            ("a\n\n1\r\n\r\n2\n", true, ok(&[&["a:Int"], &["1"], &["2"]])),
            ("\nx\ny\n", true, ok(&[&[":String"], &["x"], &["y"]])),
            ("a\n \n", true, ok(&[&["a:String"], &[" "]])),
            // CRLF endings; a last line's `\r` without `\n` is text.
            (
                "a,b\r\n1,x\r\n2,y\r",
                true,
                ok(&[&["a:Int", "b:String"], &["1", "x"], &["2", "y\r"]]),
            ),
            (
                "1,\"x\"\n2,y\n",
                false,
                ok(&[&["Column0:Int", "Column1:String"], &["1", "x"], &["2", "y"]]),
            ),
            ("", false, ok(&[&[]])),
            ("a,b\n1,2\n3\n", true, Err(3)),
            ("a,b\n1,2,3\n", true, Err(2)),
        ];
        for (input, has_header, want) in cases {
            assert_eq!(shown(input, has_header), want, "{input:?}");
        }
    }

    #[test]
    fn errors_name_the_physical_line() {
        // The quoted record spans lines 2 and 3, so the short one is line 4.
        assert_eq!(shown("a,b\n\"x\ny\",1\n2\n", true), Err(4));
        assert_eq!(shown("a\n\"x\ny\"\n\"z\n", true), Err(4));
    }

    #[test]
    fn a_quoted_field_keeps_its_line_ends() {
        let t = read("s,n\n\"a\r\nb\",1\n\"c\r\",2\n");
        assert_eq!(t.get(0, "s").unwrap(), Value::str("a\r\nb"));
        assert_eq!(t.get(1, "s").unwrap(), Value::str("c\r"));
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(Cursor::new(buf), &CsvOptions::default()).unwrap();
        for r in 0..2 {
            assert_eq!(back.full_row(r), t.full_row(r));
        }
    }

    #[test]
    fn refused_input_is_a_parse_error() {
        let input = b"a\n\"x\ny\"\n\xff\n".as_slice();
        let utf8 = read_csv(Cursor::new(input), &CsvOptions::default());
        assert!(matches!(utf8, Err(Error::Parse { at: 4, .. })), "{utf8:?}");
        let options = CsvOptions {
            has_header: true,
            delimiter: 0xa7,
        };
        let delimiter = read_csv(Cursor::new("a\n1\n"), &options);
        assert!(matches!(delimiter, Err(Error::Parse { .. })));
    }

    /// The per-cell writer [`write_csv`] replaced, kept as its oracle: a
    /// `Value` and a `String` per cell.
    fn write_csv_per_cell(table: &Table, mut out: impl Write) -> Result<()> {
        let names = table
            .schema()
            .descs()
            .iter()
            .map(|d| Some(d.name.to_string()));
        write_record(&mut out, names)?;
        for row in 0..table.num_rows() {
            let values = (0..table.num_columns()).map(|c| table.column(c).value(row));
            write_record(
                &mut out,
                values.map(|v| (!v.is_missing()).then(|| v.to_string())),
            )?;
        }
        Ok(())
    }

    /// Write one record: a missing cell as nothing, and a cell holding the
    /// delimiter, a quote or a line end quoted.
    fn write_record(
        out: &mut impl Write,
        cells: impl Iterator<Item = Option<String>>,
    ) -> Result<()> {
        for (i, cell) in cells.enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            match cell {
                Some(s) if s.contains([',', '"', '\n', '\r']) => {
                    write!(out, "\"{}\"", s.replace('"', "\"\""))?
                }
                Some(s) => out.write_all(s.as_bytes())?,
                None => {}
            }
        }
        Ok(out.write_all(b"\n")?)
    }

    /// `t`'s CSV from [`write_csv`] and from the oracle.
    fn both_writers(t: &Table) -> (Vec<u8>, Vec<u8>) {
        let (mut fast, mut oracle) = (Vec::new(), Vec::new());
        write_csv(t, &mut fast).unwrap();
        write_csv_per_cell(t, &mut oracle).unwrap();
        (fast, oracle)
    }

    /// `t` with a `Date` column `D` appended, holding the first of `dates`.
    fn with_dates(t: Table, dates: &[Option<i64>]) -> Table {
        let mut builder = Table::builder();
        for (c, desc) in t.schema().descs().iter().enumerate() {
            builder = builder.column(&desc.name, desc.kind, t.column(c).clone());
        }
        let dates = I64Column::from_options(dates[..t.num_rows()].iter().copied());
        builder
            .column("D", ColumnKind::Date, Column::Date(dates))
            .build()
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every column kind, dates included, writes the oracle's bytes.
        #[test]
        fn write_csv_writes_the_per_cell_bytes(
            t in common::table_strategy(),
            dates in proptest::collection::vec(
                proptest::option::weighted(0.85, any::<i64>()),
                80,
            ),
        ) {
            let (fast, oracle) = both_writers(&t);
            prop_assert!(fast == oracle);
            let (fast, oracle) = both_writers(&with_dates(t, &dates));
            prop_assert!(fast == oracle);
        }
    }

    #[test]
    fn write_csv_writes_flights_as_the_per_cell_writer_did() {
        use hillview_data::{generate_flights, FlightsConfig};
        let (fast, oracle) = both_writers(&generate_flights(&FlightsConfig::new(2_000, 7)));
        assert!(fast == oracle);
    }

    #[test]
    fn write_csv_edges_match_the_per_cell_writer() {
        let two53 = (1u64 << 53) as f64;
        let doubles = [
            -0.0,
            0.0,
            two53,
            -two53,
            two53 + 2.0,
            two53 - 1.0,
            // The first whole doubles `Display` rounds: 2^54 + 8 is printed
            // as 18014398509481990, 2^60 as 1152921504606847000.
            2.0 * two53 + 8.0,
            (1u64 << 60) as f64,
            1e22,
            1e300,
            5e-324,
            f64::MAX,
            0.1,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let ints = [i64::MIN, i64::MAX, 0, -1, 10];
        let dates = [i64::MIN, -86_400_000, -1, 0];
        let strings = [
            "a,b",
            "say \"hi\"",
            "line\nend",
            "cr\r",
            " padded ",
            "ünï cödé ✓",
            "",
            "plain",
        ];
        // Every column as long as the longest plus a missing row.
        let rows = doubles.len() + 1;
        fn padded<T: Copy>(of: &[T], rows: usize) -> impl Iterator<Item = Option<T>> + '_ {
            (0..rows).map(|r| of.get(r).copied())
        }
        let t = Table::builder()
            .column(
                "I",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(padded(&ints, rows))),
            )
            .column(
                "a \"quoted\", name",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(padded(&doubles, rows))),
            )
            .column(
                "D",
                ColumnKind::Date,
                Column::Date(I64Column::from_options(padded(&dates, rows))),
            )
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(padded(&strings, rows))),
            )
            .build()
            .unwrap();
        let (fast, oracle) = both_writers(&t);
        let text = String::from_utf8(oracle.clone()).unwrap();
        assert!(text.contains(",18014398509481990,"), "{text}");
        assert!(text.contains(",1152921504606847000,"), "{text}");
        assert_eq!(String::from_utf8(fast).unwrap(), text);

        for slice in [
            crate::partition::slice_table(&t, 0, 0),
            crate::partition::slice_table(&t, 3, 7),
        ] {
            let (fast, oracle) = both_writers(&slice);
            assert_eq!(fast, oracle);
        }
    }
}
