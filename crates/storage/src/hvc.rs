//! HVC ("HillView Columnar") — our columnar binary file format.
//!
//! Substitutes for ORC/Parquet: per-column typed blocks so a
//! worker "reads a column completely from the data repository taking
//! advantage of fast sequential access and columnar access" (paper §5.4).
//!
//! Layout, version 2 (all integers varint unless noted):
//!
//! ```text
//! magic "HVC2" | column_count | row_count
//! per column:
//!   name | kind byte | null_run_lengths | payload
//! payload:
//!   Int/Date: enc byte, declared value count, then
//!     0 (plain):      delta-zigzag varints
//!     1 (bit-packed): base zigzag, width u8, word count, raw LE u64 words
//!     2 (run-length): run count, then (value zigzag, run length) pairs
//!     3 (delta):      anchor count, anchors zigzag, width u8, word count,
//!                     raw LE u64 words of packed adjacent deltas
//!   Double:   declared value count, raw little-endian f64
//!   Str/Cat:  dict_len, dict strings, codes in the same four encodings
//!             (code values as plain varints instead of zigzag)
//! ```
//!
//! The encoding byte mirrors the column's *in-memory*
//! [`hillview_columnar::IntStorage`] representation: a
//! bit-packed, run-length, or delta column round-trips through a file (and
//! across the wire — HVC bytes are also how partitions ship between nodes)
//! without ever inflating to plain, and decode rebuilds the exact same
//! variant via `with_storage` instead of re-analyzing.
//!
//! Encoding bytes are *additive* within the `HVC2` container: byte 3
//! (delta) was added after the format shipped, so a reader predating it
//! rejects files containing delta columns with a structured
//! "unknown encoding byte 3" parse error naming the column — older files
//! remain readable by every newer reader.
//!
//! Every column section carries its own declared value count; a mismatch
//! against the file's row count is rejected up front with the structured
//! [`Error::RowCountMismatch`] instead of surfacing later as a truncated
//! read or a wire error.
//!
//! Null masks are run-length encoded (alternating present/missing run
//! lengths, starting with present), which collapses the common all-present
//! case to a single varint.

#[path = "hvc_v3.rs"]
pub mod v3;

pub use v3::{probe_file, read_file_mapped, FileInfo};

use crate::error::{Error, Result};
use bytes::Bytes;
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::dictionary::DictionaryBuilder;
use hillview_columnar::encoding::{IntStorage, PackedInt};
use hillview_columnar::{ColumnKind, NullMask, Table};
use hillview_net::{WireReader, WireWriter};
use std::io::{Read, Write};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"HVC2";

pub(crate) const ENC_PLAIN: u8 = 0;
pub(crate) const ENC_BIT_PACKED: u8 = 1;
pub(crate) const ENC_RUN_LENGTH: u8 = 2;
pub(crate) const ENC_DELTA: u8 = 3;

pub(crate) fn kind_byte(kind: ColumnKind) -> u8 {
    match kind {
        ColumnKind::Int => 0,
        ColumnKind::Date => 1,
        ColumnKind::Double => 2,
        ColumnKind::String => 3,
        ColumnKind::Category => 4,
    }
}

pub(crate) fn byte_kind(b: u8, at: usize) -> Result<ColumnKind> {
    Ok(match b {
        0 => ColumnKind::Int,
        1 => ColumnKind::Date,
        2 => ColumnKind::Double,
        3 => ColumnKind::String,
        4 => ColumnKind::Category,
        _ => {
            return Err(Error::Parse {
                format: "hvc",
                at,
                message: format!("unknown column kind byte {b}"),
            })
        }
    })
}

pub(crate) fn parse_err(message: impl Into<String>) -> Error {
    Error::Parse {
        format: "hvc",
        at: 0,
        message: message.into(),
    }
}

pub(crate) fn wire_err(e: hillview_net::Error) -> Error {
    parse_err(e.to_string())
}

/// Write an integer storage payload, preserving its encoding. `put` writes
/// one logical value (zigzag for `i64`, plain varint for codes).
fn encode_int_storage<T: PackedInt>(
    w: &mut WireWriter,
    storage: &IntStorage<T>,
    put: impl Fn(&mut WireWriter, T),
) {
    match storage {
        IntStorage::Plain(values) => {
            w.put_u8(ENC_PLAIN);
            w.put_varint(values.len() as u64);
            for &v in values.slice() {
                put(w, v);
            }
        }
        IntStorage::BitPacked {
            base,
            width,
            len,
            words,
        } => {
            w.put_u8(ENC_BIT_PACKED);
            w.put_varint(*len as u64);
            put(w, *base);
            w.put_u8(*width);
            w.put_varint(words.len() as u64);
            for &word in words.slice() {
                w.put_u64(word);
            }
        }
        IntStorage::RunLength { values, ends } => {
            w.put_u8(ENC_RUN_LENGTH);
            w.put_varint(ends.last().copied().unwrap_or(0) as u64);
            w.put_varint(values.len() as u64);
            let mut prev = 0u32;
            for (&v, &end) in values.iter().zip(ends) {
                put(w, v);
                w.put_varint((end - prev) as u64);
                prev = end;
            }
        }
        IntStorage::Delta {
            anchors,
            width,
            len,
            words,
        } => {
            w.put_u8(ENC_DELTA);
            w.put_varint(*len as u64);
            w.put_varint(anchors.len() as u64);
            for &a in anchors {
                put(w, a);
            }
            w.put_u8(*width);
            w.put_varint(words.len() as u64);
            for &word in words.slice() {
                w.put_u64(word);
            }
        }
    }
}

/// Read an integer storage payload written by [`encode_int_storage`],
/// validating the declared value count against the file's row count and the
/// structural invariants of each encoding.
fn decode_int_storage<T: PackedInt>(
    r: &mut WireReader,
    rows: usize,
    column: &str,
    get: impl Fn(&mut WireReader) -> std::result::Result<T, hillview_net::Error>,
) -> Result<IntStorage<T>> {
    let enc = r.get_u8().map_err(wire_err)?;
    decode_int_storage_body(r, enc, rows, column, get)
}

/// [`decode_int_storage`] with the encoding byte already consumed (the
/// `i64` reader peels it off first to special-case delta-coded plain data).
fn decode_int_storage_body<T: PackedInt>(
    r: &mut WireReader,
    enc: u8,
    rows: usize,
    column: &str,
    get: impl Fn(&mut WireReader) -> std::result::Result<T, hillview_net::Error>,
) -> Result<IntStorage<T>> {
    let declared = r.get_len("values").map_err(wire_err)?;
    if declared != rows {
        return Err(Error::RowCountMismatch {
            column: column.to_string(),
            declared: rows,
            actual: declared,
        });
    }
    match enc {
        ENC_PLAIN => {
            let mut values = Vec::with_capacity(rows.min(1 << 20));
            for _ in 0..rows {
                values.push(get(r).map_err(wire_err)?);
            }
            Ok(IntStorage::Plain(values.into()))
        }
        ENC_BIT_PACKED => {
            let base = get(r).map_err(wire_err)?;
            let width = r.get_u8().map_err(wire_err)?;
            let nwords = r.get_len("packed words").map_err(wire_err)?;
            let mut words = Vec::with_capacity(nwords.min(1 << 20));
            for _ in 0..nwords {
                words.push(r.get_u64().map_err(wire_err)?);
            }
            IntStorage::from_bit_packed(base, width, rows, words).ok_or_else(|| {
                parse_err(format!(
                    "column {column:?}: inconsistent bit-packed section (width {width}, {nwords} words for {rows} rows)"
                ))
            })
        }
        ENC_RUN_LENGTH => {
            let nruns = r.get_len("runs").map_err(wire_err)?;
            let mut values = Vec::with_capacity(nruns.min(1 << 20));
            let mut ends = Vec::with_capacity(nruns.min(1 << 20));
            let mut at = 0u64;
            for _ in 0..nruns {
                values.push(get(r).map_err(wire_err)?);
                let run = r.get_varint().map_err(wire_err)?;
                if run == 0 {
                    return Err(parse_err(format!("column {column:?}: zero-length run")));
                }
                at += run;
                if at > u32::MAX as u64 {
                    return Err(parse_err(format!(
                        "column {column:?}: run-length section overflows row index"
                    )));
                }
                ends.push(at as u32);
            }
            if at as usize != rows {
                return Err(Error::RowCountMismatch {
                    column: column.to_string(),
                    declared: rows,
                    actual: at as usize,
                });
            }
            IntStorage::from_run_length(values, ends).ok_or_else(|| {
                parse_err(format!("column {column:?}: malformed run-length section"))
            })
        }
        ENC_DELTA => {
            let nanchors = r.get_len("delta anchors").map_err(wire_err)?;
            let mut anchors = Vec::with_capacity(nanchors.min(1 << 20));
            for _ in 0..nanchors {
                anchors.push(get(r).map_err(wire_err)?);
            }
            let width = r.get_u8().map_err(wire_err)?;
            let nwords = r.get_len("delta words").map_err(wire_err)?;
            let mut words = Vec::with_capacity(nwords.min(1 << 20));
            for _ in 0..nwords {
                words.push(r.get_u64().map_err(wire_err)?);
            }
            IntStorage::from_delta(anchors, width, rows, words).ok_or_else(|| {
                parse_err(format!(
                    "column {column:?}: inconsistent delta section (width {width}, {nanchors} anchors, {nwords} words for {rows} rows)"
                ))
            })
        }
        b => Err(parse_err(format!(
            "column {column:?}: unknown encoding byte {b}"
        ))),
    }
}

/// Encode a table to HVC bytes.
pub fn encode(table: &Table) -> Bytes {
    let mut w = WireWriter::new();
    for b in MAGIC {
        w.put_u8(*b);
    }
    w.put_varint(table.num_columns() as u64);
    w.put_varint(table.num_rows() as u64);
    for c in 0..table.num_columns() {
        let desc = table.schema().desc(c);
        w.put_str(&desc.name);
        w.put_u8(kind_byte(desc.kind));
        let col = table.column(c);
        encode_null_runs(&mut w, col, table.num_rows());
        match col {
            Column::Int(ic) | Column::Date(ic) => {
                // Plain integers stay delta-of-previous coded (the v1 trick
                // that shrinks near-sequential dates); packed storages ship
                // their words verbatim.
                match ic.storage() {
                    IntStorage::Plain(values) => {
                        w.put_u8(ENC_PLAIN);
                        w.put_varint(values.len() as u64);
                        let mut prev = 0i64;
                        for &v in values.slice() {
                            w.put_i64(v.wrapping_sub(prev));
                            prev = v;
                        }
                    }
                    packed => encode_int_storage(&mut w, packed, |w, v| w.put_i64(v)),
                }
            }
            Column::Double(fc) => {
                w.put_varint(fc.data().len() as u64);
                for &v in fc.data() {
                    w.put_f64(v);
                }
            }
            Column::Str(dc) | Column::Cat(dc) => {
                w.put_varint(dc.dictionary().len() as u64);
                for s in dc.dictionary().iter() {
                    w.put_str(s);
                }
                encode_int_storage(&mut w, dc.codes(), |w, code| w.put_varint(code as u64));
            }
        }
    }
    w.finish()
}

pub(crate) fn encode_null_runs(w: &mut WireWriter, col: &Column, rows: usize) {
    // Alternating run lengths: present, missing, present, ...
    let mut runs: Vec<u64> = Vec::new();
    let mut current_null = false;
    let mut run = 0u64;
    for i in 0..rows {
        let null = col.is_null(i);
        if null == current_null {
            run += 1;
        } else {
            runs.push(run);
            current_null = null;
            run = 1;
        }
    }
    runs.push(run);
    w.put_varint(runs.len() as u64);
    for r in runs {
        w.put_varint(r);
    }
}

pub(crate) fn decode_null_runs(r: &mut WireReader, rows: usize, column: &str) -> Result<NullMask> {
    let n = r.get_len("null runs").map_err(wire_err)?;
    let mut mask = NullMask::none();
    let mut idx = 0usize;
    let mut is_null = false;
    for _ in 0..n {
        let run = r.get_varint().map_err(wire_err)? as usize;
        if is_null {
            for i in idx..(idx + run).min(rows) {
                mask.set_null(i, rows);
            }
        }
        idx += run;
        is_null = !is_null;
    }
    if idx != rows {
        return Err(Error::RowCountMismatch {
            column: column.to_string(),
            declared: rows,
            actual: idx,
        });
    }
    Ok(mask)
}

/// Verify every decoded dictionary code stays inside the dictionary,
/// matching the per-value check v1 performed while reading plain codes.
/// `null_count` guards the empty-dictionary case: a dictionary can only be
/// empty when every row is null (present rows would dereference it).
pub(crate) fn validate_codes(
    codes: &IntStorage<u32>,
    dict_len: usize,
    null_count: usize,
    column: &str,
) -> Result<()> {
    if dict_len == 0 {
        if null_count < codes.len() {
            return Err(parse_err(format!(
                "column {column:?}: empty dictionary but {} non-null rows",
                codes.len() - null_count
            )));
        }
        return Ok(());
    }
    let check = |code: u32| -> Result<()> {
        if code as usize >= dict_len {
            Err(parse_err(format!(
                "column {column:?}: code {code} out of dictionary range {dict_len}"
            )))
        } else {
            Ok(())
        }
    };
    match codes {
        // Run-length: one check per run is exhaustive.
        IntStorage::RunLength { values, .. } => values.iter().try_for_each(|&c| check(c)),
        storage => {
            let mut buf = [0u32; 64];
            let len = storage.len();
            let mut i = 0usize;
            while i < len {
                let n = 64.min(len - i);
                storage.decode_into(i, &mut buf[..n]);
                buf[..n].iter().try_for_each(|&c| check(c))?;
                i += n;
            }
            Ok(())
        }
    }
}

/// Decode a table from HVC bytes.
pub fn decode(bytes: Bytes) -> Result<Table> {
    let mut r = WireReader::new(bytes);
    for expect in MAGIC {
        let b = r.get_u8().map_err(wire_err)?;
        if b != *expect {
            return Err(parse_err("bad magic"));
        }
    }
    let cols = r.get_len("columns").map_err(wire_err)?;
    let rows = r.get_len("rows").map_err(wire_err)?;
    let mut builder = Table::builder();
    for _ in 0..cols {
        let name = r.get_str().map_err(wire_err)?;
        let kind = byte_kind(r.get_u8().map_err(wire_err)?, 0)?;
        let nulls = decode_null_runs(&mut r, rows, &name)?;
        let column = match kind {
            ColumnKind::Int | ColumnKind::Date => {
                let storage = decode_i64_storage(&mut r, rows, &name)?;
                let ic = I64Column::with_storage(storage, nulls);
                if kind == ColumnKind::Int {
                    Column::Int(ic)
                } else {
                    Column::Date(ic)
                }
            }
            ColumnKind::Double => {
                let declared = r.get_len("values").map_err(wire_err)?;
                if declared != rows {
                    return Err(Error::RowCountMismatch {
                        column: name.clone(),
                        declared: rows,
                        actual: declared,
                    });
                }
                let mut data = Vec::with_capacity(rows.min(1 << 20));
                for _ in 0..rows {
                    data.push(r.get_f64().map_err(wire_err)?);
                }
                Column::Double(F64Column::new(data, nulls))
            }
            ColumnKind::String | ColumnKind::Category => {
                let dict_len = r.get_len("dict").map_err(wire_err)?;
                let mut db = DictionaryBuilder::new();
                for _ in 0..dict_len {
                    db.intern(&r.get_str().map_err(wire_err)?);
                }
                let dict = std::sync::Arc::new(db.finish());
                let codes = decode_int_storage(&mut r, rows, &name, |r| {
                    let v = r.get_varint()?;
                    // Reject oversized varints instead of silently wrapping
                    // into a (possibly valid) smaller code.
                    u32::try_from(v).map_err(|_| hillview_net::Error::BadLength {
                        context: "dictionary code",
                        len: v,
                    })
                })?;
                validate_codes(&codes, dict_len, nulls.null_count(), &name)?;
                let dc = DictColumn::with_storage(codes, dict, nulls);
                if kind == ColumnKind::String {
                    Column::Str(dc)
                } else {
                    Column::Cat(dc)
                }
            }
        };
        builder = builder.column(&name, kind, column);
    }
    Ok(builder.build()?)
}

/// Decode an `i64` payload: plain sections undo the delta-of-previous
/// transform, packed sections go through the shared reader.
fn decode_i64_storage(r: &mut WireReader, rows: usize, column: &str) -> Result<IntStorage<i64>> {
    // Read the encoding byte first: plain i64 needs the delta transform,
    // which the generic reader does not apply.
    let enc = r.get_u8().map_err(wire_err)?;
    if enc == ENC_PLAIN {
        let declared = r.get_len("values").map_err(wire_err)?;
        if declared != rows {
            return Err(Error::RowCountMismatch {
                column: column.to_string(),
                declared: rows,
                actual: declared,
            });
        }
        let mut data = Vec::with_capacity(rows.min(1 << 20));
        let mut prev = 0i64;
        for _ in 0..rows {
            prev = prev.wrapping_add(r.get_i64().map_err(wire_err)?);
            data.push(prev);
        }
        Ok(IntStorage::Plain(data.into()))
    } else {
        decode_int_storage_body(r, enc, rows, column, |r| r.get_i64())
    }
}

/// Write a table to a file, in the current on-disk version (v3: 64-byte
/// aligned raw-LE payload sections behind a self-contained header, so the
/// file can be mapped and scanned zero-copy — see [`v3`]). The v2 wire
/// format ([`encode`]/[`decode`]) is unchanged; use [`write_file_v2`] to
/// produce a v2 file for an older reader.
pub fn write_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let bytes = v3::encode(table);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Write a table in the v2 (wire) layout — varint-packed, unaligned, not
/// mappable — for interchange with readers predating v3.
pub fn write_file_v2(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let bytes = encode(table);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Read a table from a file into fully heap-resident columns, sniffing the
/// version from the magic (v2 and v3 both readable). For lazy, file-backed
/// columns use [`read_file_mapped`]; to inspect a file without reading its
/// payload use [`probe_file`].
pub fn read_file(path: impl AsRef<Path>) -> Result<Table> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    if buf.starts_with(v3::MAGIC3) {
        return v3::decode_owned(&buf);
    }
    decode(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::encoding::EncodingKind;
    use hillview_columnar::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample_table() -> Table {
        Table::builder()
            .column(
                "Id",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([
                    Some(100),
                    Some(101),
                    None,
                    Some(103),
                ])),
            )
            .column(
                "When",
                ColumnKind::Date,
                Column::Date(I64Column::from_options([
                    Some(1_700_000_000_000),
                    Some(1_700_000_000_100),
                    Some(1_700_000_000_200),
                    Some(1_700_000_000_300),
                ])),
            )
            .column(
                "Score",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(1.5),
                    None,
                    Some(-2.25),
                    Some(0.0),
                ])),
            )
            .column(
                "Tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([
                    Some("red"),
                    Some("blue"),
                    Some("red"),
                    None,
                ])),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_table();
        let t2 = decode(encode(&t)).unwrap();
        assert_eq!(t2.num_rows(), t.num_rows());
        assert_eq!(t2.num_columns(), t.num_columns());
        for r in 0..t.num_rows() {
            assert_eq!(t2.full_row(r), t.full_row(r), "row {r}");
        }
        for c in 0..t.num_columns() {
            assert_eq!(
                t2.schema().desc(c).kind,
                t.schema().desc(c).kind,
                "kind of col {c}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_encoding_without_inflating() {
        // Build columns under each forced in-memory encoding and check the
        // decoded table carries the identical variant.
        let sorted: Vec<i64> = (0..4000).map(|i| i / 100).collect();
        let packed: Vec<i64> = (0..4000).map(|i| (i * 7919) % 512).collect();
        let plain: Vec<i64> = (0..4000)
            .map(|i: i64| i.wrapping_mul(0x5851_F42D_4C95_7F2D))
            .collect();
        let sequential: Vec<i64> = (0..4000).map(|i| 1_000_000 + i * 3).collect();
        let t = Table::builder()
            .column(
                "RL",
                ColumnKind::Int,
                Column::Int(I64Column::new(sorted, NullMask::none())),
            )
            .column(
                "BP",
                ColumnKind::Int,
                Column::Int(I64Column::new(packed, NullMask::none())),
            )
            .column(
                "PL",
                ColumnKind::Int,
                Column::Int(I64Column::plain(plain, NullMask::none())),
            )
            .column(
                "DL",
                ColumnKind::Int,
                Column::Int(I64Column::new(sequential, NullMask::none())),
            )
            .build()
            .unwrap();
        let t2 = decode(encode(&t)).unwrap();
        for (name, kind) in [
            ("RL", EncodingKind::RunLength),
            ("BP", EncodingKind::BitPacked),
            ("PL", EncodingKind::Plain),
            ("DL", EncodingKind::Delta),
        ] {
            let c = t.column_by_name(name).unwrap().as_i64_col().unwrap();
            let c2 = t2.column_by_name(name).unwrap().as_i64_col().unwrap();
            assert_eq!(c.storage().kind(), kind, "in-memory {name}");
            assert_eq!(c2.storage().kind(), kind, "decoded {name}");
            assert_eq!(c2.storage(), c.storage(), "identical storage {name}");
        }
    }

    #[test]
    fn packed_columns_shrink_the_file() {
        let n = 100_000usize;
        let t = Table::builder()
            .column(
                "Bucketed",
                ColumnKind::Int,
                Column::Int(I64Column::new(
                    (0..n as i64).map(|i| i / 50).collect(),
                    NullMask::none(),
                )),
            )
            .build()
            .unwrap();
        let bytes = encode(&t);
        assert!(
            bytes.len() < n, // < 1 byte/row; plain would be several
            "{} bytes for {} run-length rows",
            bytes.len(),
            n
        );
    }

    #[test]
    fn delta_encoding_compresses_sorted_ints() {
        // Dates are near-sequential: whatever encoding ingest picks must
        // still beat 3 bytes/value on disk.
        let n = 10_000usize;
        let t = Table::builder()
            .column(
                "When",
                ColumnKind::Date,
                Column::Date(I64Column::from_options(
                    (0..n).map(|i| Some(1_700_000_000_000 + (i as i64) * 250)),
                )),
            )
            .build()
            .unwrap();
        let bytes = encode(&t);
        assert!(
            bytes.len() < n * 3,
            "{} bytes for {} near-sequential dates",
            bytes.len(),
            n
        );
    }

    #[test]
    fn file_round_trip() {
        // pid + a process-wide counter: no other test, in this process or
        // another, shares the path.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("hillview-hvc-test-{}-{n}.hvc", std::process::id()));
        let t = sample_table();
        write_file(&t, &path).unwrap();
        let t2 = read_file(&path).unwrap();
        assert_eq!(t2.get(0, "Tag").unwrap(), Value::str("red"));
        assert_eq!(t2.get(2, "Id").unwrap(), Value::Missing);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(decode(Bytes::from_static(b"NOPE")).is_err());
        let good = encode(&sample_table());
        let truncated = good.slice(0..good.len() / 2);
        assert!(decode(truncated).is_err());
        // Flip a code into out-of-range territory: corrupt tail bytes.
        let mut corrupt = good.to_vec();
        let len = corrupt.len();
        corrupt[len - 1] = 0xFF;
        // Either a parse error or trailing-bytes style failure — must not
        // panic or succeed silently.
        let r = decode(Bytes::from(corrupt));
        assert!(r.is_err() || r.is_ok()); // no panic is the contract
    }

    /// Helper building a single-int-column file whose payload we then
    /// corrupt at specific positions.
    fn packed_int_file(values: Vec<i64>) -> Vec<u8> {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::new(values, NullMask::none())),
            )
            .build()
            .unwrap();
        encode(&t).to_vec()
    }

    #[test]
    fn declared_row_count_mismatch_is_structured() {
        // 200 sorted low-cardinality rows → run-length payload. Lie about
        // the table's row count (byte right after the 4-byte magic + column
        // count varint): 200 fits one varint byte.
        let mut bytes = packed_int_file((0..200).map(|i| i / 20).collect());
        // Layout: magic(4) | cols=1 (1 byte) | rows=200 (2-byte varint)...
        // Patch rows to 199 (also 2 bytes: 0xC7 0x01).
        assert_eq!(&bytes[5..7], &[0xC8, 0x01], "expected varint 200");
        bytes[5] = 0xC7;
        let err = decode(Bytes::from(bytes)).unwrap_err();
        assert!(
            matches!(
                err,
                Error::RowCountMismatch {
                    declared: 199,
                    actual: 200,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_packed_sections_rejected() {
        // Bit-packed column: truncating the word stream must error, not
        // panic or fabricate rows.
        let bp = packed_int_file((0..1000).map(|i| (i * 37) % 256).collect());
        for cut in [bp.len() - 1, bp.len() - 9, bp.len() / 2] {
            assert!(
                decode(Bytes::copy_from_slice(&bp[..cut])).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Run-length column: zero-length and over-long runs must error.
        let rl = packed_int_file((0..1000).map(|i| i / 100).collect());
        let decoded = decode(Bytes::copy_from_slice(&rl)).unwrap();
        assert_eq!(decoded.num_rows(), 1000);
        let mut broken = rl.clone();
        // The last run length varint is the final byte (100 = 0x64).
        let last = broken.len() - 1;
        assert_eq!(broken[last], 100);
        broken[last] = 0; // zero-length run
        assert!(decode(Bytes::from(broken)).is_err());
        let mut short = rl.clone();
        let last = short.len() - 1;
        short[last] = 99; // runs now sum to 999 ≠ 1000
        let err = decode(Bytes::from(short)).unwrap_err();
        assert!(
            matches!(err, Error::RowCountMismatch { actual: 999, .. }),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_packed_codes_stay_in_dictionary() {
        // Five categories over many rows → bit-packed codes of width 3,
        // whose packed words are the last bytes of the file. Setting them
        // to all-ones decodes codes 7 > dictionary length 5; the decoder
        // must reject, never index out of bounds.
        let cats = ["a", "b", "c", "d", "e"];
        let t = Table::builder()
            .column(
                "Tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    (0..640).map(|i| Some(cats[i % 5])),
                )),
            )
            .build()
            .unwrap();
        let col = t.column_by_name("Tag").unwrap().as_dict_col().unwrap();
        assert_eq!(col.codes().kind(), EncodingKind::BitPacked);
        let mut bytes = encode(&t).to_vec();
        let n = bytes.len();
        assert!(decode(Bytes::copy_from_slice(&bytes)).is_ok());
        for b in &mut bytes[n - 8..] {
            *b = 0xFF;
        }
        let err = decode(Bytes::from(bytes)).unwrap_err();
        assert!(
            err.to_string().contains("out of dictionary range"),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_delta_sections_rejected() {
        // A delta-coded column (sequential values): truncating the word
        // stream or the anchors must error, never panic or fabricate rows.
        let dl = packed_int_file((0..1000).map(|i| 5_000_000 + i * 7).collect());
        let t = decode(Bytes::copy_from_slice(&dl)).unwrap();
        assert_eq!(
            t.column_by_name("X")
                .unwrap()
                .as_i64_col()
                .unwrap()
                .storage()
                .kind(),
            EncodingKind::Delta
        );
        for cut in [dl.len() - 1, dl.len() - 9, dl.len() / 2, 12] {
            assert!(
                decode(Bytes::copy_from_slice(&dl[..cut])).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn empty_dictionary_with_present_rows_rejected() {
        // Hand-craft a file whose Str column declares both rows present but
        // ships an empty dictionary: decoding must reject it up front, not
        // panic later when a row dereferences the missing entry.
        let mut w = hillview_net::WireWriter::new();
        for b in MAGIC {
            w.put_u8(*b);
        }
        w.put_varint(1); // columns
        w.put_varint(2); // rows
        w.put_str("S");
        w.put_u8(kind_byte(ColumnKind::String));
        w.put_varint(1); // one null run...
        w.put_varint(2); // ...of 2 present rows
        w.put_varint(0); // dict_len = 0
        w.put_u8(ENC_PLAIN);
        w.put_varint(2); // declared codes
        w.put_varint(0);
        w.put_varint(0);
        let err = decode(w.finish()).unwrap_err();
        assert!(err.to_string().contains("empty dictionary"), "got {err}");
        // The legitimate shape — all rows null — still decodes.
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([None::<&str>, None])),
            )
            .build()
            .unwrap();
        let t2 = decode(encode(&t)).unwrap();
        assert!(t2.column(0).is_null(0) && t2.column(0).is_null(1));
    }

    #[test]
    fn oversized_code_varints_rejected() {
        // A plain code varint above u32::MAX must error instead of silently
        // wrapping into a small (possibly in-range) code.
        let mut w = hillview_net::WireWriter::new();
        for b in MAGIC {
            w.put_u8(*b);
        }
        w.put_varint(1); // columns
        w.put_varint(1); // rows
        w.put_str("S");
        w.put_u8(kind_byte(ColumnKind::String));
        w.put_varint(1); // one null run...
        w.put_varint(1); // ...of 1 present row
        w.put_varint(1); // dict_len = 1
        w.put_str("a");
        w.put_u8(ENC_PLAIN);
        w.put_varint(1); // declared codes
        w.put_varint(1u64 << 32); // truncates to code 0 if unchecked
        let err = decode(w.finish()).unwrap_err();
        assert!(err.to_string().contains("dictionary code"), "got {err}");
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::empty();
        let t2 = decode(encode(&t)).unwrap();
        assert_eq!(t2.num_rows(), 0);
        assert_eq!(t2.num_columns(), 0);
    }

    #[test]
    fn all_null_column() {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([None, None, None])),
            )
            .build()
            .unwrap();
        let t2 = decode(encode(&t)).unwrap();
        assert!(t2.column(0).is_null(0) && t2.column(0).is_null(2));
    }
}
