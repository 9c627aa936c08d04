//! HVC version 3 — the mmap-friendly layout of the columnar format.
//!
//! v2 optimizes for the wire: everything is varint-packed back to back, so
//! a reader must decode the whole stream to materialize any column. v3
//! optimizes for the *file*: all variable-length metadata moves into a
//! self-contained header, and the bulk payloads (plain values, packed
//! words, doubles) are written as raw little-endian sections aligned to 64
//! bytes, so an [`hillview_columnar::residency::Segment`] can hand out
//! zero-copy [`ValueBuf`] windows over them without any decode pass:
//!
//! ```text
//! magic "HVC3" | header_len u32 LE | header blob | pad | payload sections
//! header blob (all integers varint unless noted):
//!   column_count | row_count
//!   per column:
//!     name | kind byte | null_run_lengths (as in v2)
//!     payload descriptor:
//!       Int/Date: enc byte, declared value count, then
//!         0 (plain):      section offset
//!         1 (bit-packed): base zigzag, width u8, word count, section offset
//!         2 (run-length): run count, (value zigzag, run length) pairs inline
//!         3 (delta):      anchor count, anchors zigzag, width u8,
//!                         word count, section offset
//!       Double:   declared value count, section offset
//!       Str/Cat:  dict_len, dict strings, codes descriptor (same four
//!                 encodings, code values as plain varints)
//!     zone map: block count, per block (min, max)
//!       (zigzag varints for i64, plain varints for codes, raw LE for f64)
//! ```
//!
//! Section offsets are relative to the *payload base* — the first 64-byte
//! boundary at or after the header — and each section starts on a 64-byte
//! boundary of its own, so every `i64`/`u64`/`f64` payload is naturally
//! aligned however long the header is. Sections hold raw little-endian
//! values: v3 deliberately trades v2's delta-of-previous varint shrink on
//! plain integers for fixed-width layouts a scan can borrow in place
//! (packed encodings still compress, and their word sections map as well).
//!
//! Because the header also persists each column's zone map, a mapped open
//! ([`read_file_mapped`]) constructs every column without touching one
//! payload byte: residency is faulted in chunk-at-a-time by the scans
//! themselves, and blocks the zone maps rule out are never read at all.
//! [`probe_file`] goes one step further and reads *only* the header —
//! enough for partition planning (schema + row count) at O(header) I/O.
//!
//! Integrity: the header is validated as strictly as v2 (declared counts
//! vs. rows, run structure, encoding invariants, zone-map block counts).
//! The heap path ([`decode_owned`]) additionally validates every
//! dictionary code like v2 does; the mapped path must not (that would
//! fault in the payload laziness exists to avoid), so it bounds codes by
//! the persisted per-block zone maxima instead — O(header) — and a file
//! whose payload contradicts its zone maps surfaces as a worker-isolated
//! panic at decode time rather than a quiet out-of-bounds.
//!
//! Endianness: mapped windows reinterpret file bytes in place and are only
//! correct on little-endian targets; big-endian hosts transparently fall
//! back to the heap path, which decodes via explicit LE reads.

use crate::error::{Error, Result};
use crate::hvc::{
    self, byte_kind, decode_null_runs, encode_null_runs, kind_byte, parse_err, validate_codes,
    wire_err, ENC_BIT_PACKED, ENC_DELTA, ENC_PLAIN, ENC_RUN_LENGTH,
};
use bytes::Bytes;
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::dictionary::{Dictionary, DictionaryBuilder};
use hillview_columnar::encoding::{IntStorage, PackedInt, ZoneMap};
use hillview_columnar::residency::{BlockCache, Pod, Segment, SegmentMode, ValueBuf};
use hillview_columnar::{ColumnDesc, ColumnKind, NullMask, Schema, Table, BLOCK_ROWS};
use hillview_net::{WireReader, WireWriter};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// v3 file magic.
pub(crate) const MAGIC3: &[u8; 4] = b"HVC3";

/// Payload section alignment: covers every lane type and leaves room for
/// cache-line-aligned SIMD loads.
const ALIGN: usize = 64;

fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN) * ALIGN
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Raw payload sections accumulated while the header is written; each is
/// placed at the next 64-byte-aligned offset relative to the payload base.
#[derive(Default)]
struct Sections {
    rel: usize,
    parts: Vec<(usize, Vec<u8>)>,
}

impl Sections {
    /// Reserve an aligned slot for `bytes`, returning its relative offset.
    fn push(&mut self, bytes: Vec<u8>) -> usize {
        let at = align_up(self.rel);
        self.rel = at + bytes.len();
        self.parts.push((at, bytes));
        at
    }
}

/// Write one integer-storage descriptor into the header, spilling bulk
/// payloads (plain values, packed words) into aligned sections. `put`
/// writes one inline logical value (zigzag for `i64`, varint for codes).
fn encode_int_storage_v3<T: PackedInt + Pod>(
    w: &mut WireWriter,
    sections: &mut Sections,
    storage: &IntStorage<T>,
    put: impl Fn(&mut WireWriter, T),
) {
    match storage {
        IntStorage::Plain(values) => {
            w.put_u8(ENC_PLAIN);
            w.put_varint(values.len() as u64);
            let mut bytes = Vec::with_capacity(values.len() * <T as Pod>::BYTES);
            for &v in values.slice() {
                v.write_le(&mut bytes);
            }
            w.put_varint(sections.push(bytes) as u64);
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
            let mut bytes = Vec::with_capacity(words.len() * 8);
            for &word in words.slice() {
                word.write_le(&mut bytes);
            }
            w.put_varint(sections.push(bytes) as u64);
        }
        IntStorage::RunLength { values, ends } => {
            // Fully inline, exactly as in v2: run tables are consulted by
            // every block decision, so there is nothing to keep lazy.
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
            let mut bytes = Vec::with_capacity(words.len() * 8);
            for &word in words.slice() {
                word.write_le(&mut bytes);
            }
            w.put_varint(sections.push(bytes) as u64);
        }
    }
}

fn encode_zones<T: Copy>(w: &mut WireWriter, zones: &ZoneMap<T>, put: impl Fn(&mut WireWriter, T)) {
    w.put_varint(zones.len() as u64);
    for (&min, &max) in zones.mins().iter().zip(zones.maxs()) {
        put(w, min);
        put(w, max);
    }
}

/// Encode a table as a complete v3 file image.
pub fn encode(table: &Table) -> Vec<u8> {
    let mut h = WireWriter::new();
    let mut sections = Sections::default();
    h.put_varint(table.num_columns() as u64);
    h.put_varint(table.num_rows() as u64);
    for c in 0..table.num_columns() {
        let desc = table.schema().desc(c);
        h.put_str(&desc.name);
        h.put_u8(kind_byte(desc.kind));
        let col = table.column(c);
        encode_null_runs(&mut h, col, table.num_rows());
        match col {
            Column::Int(ic) | Column::Date(ic) => {
                encode_int_storage_v3(&mut h, &mut sections, ic.storage(), |w, v| w.put_i64(v));
                encode_zones(&mut h, ic.zones(), |w, v| w.put_i64(v));
            }
            Column::Double(fc) => {
                h.put_varint(fc.len() as u64);
                let mut bytes = Vec::with_capacity(fc.len() * 8);
                for &v in fc.data() {
                    v.write_le(&mut bytes);
                }
                h.put_varint(sections.push(bytes) as u64);
                encode_zones(&mut h, fc.zones(), |w, v| w.put_f64(v));
            }
            Column::Str(dc) | Column::Cat(dc) => {
                h.put_varint(dc.dictionary().len() as u64);
                for s in dc.dictionary().iter() {
                    h.put_str(s);
                }
                encode_int_storage_v3(&mut h, &mut sections, dc.codes(), |w, code| {
                    w.put_varint(code as u64)
                });
                encode_zones(&mut h, dc.zones(), |w, v| w.put_varint(v as u64));
            }
        }
    }
    let hdr = h.finish();
    assert!(hdr.len() <= u32::MAX as usize, "hvc v3 header exceeds u32");
    let payload_base = align_up(8 + hdr.len());
    let mut out = Vec::with_capacity(payload_base + sections.rel);
    out.extend_from_slice(MAGIC3);
    out.extend_from_slice(&(hdr.len() as u32).to_le_bytes());
    out.extend_from_slice(&hdr);
    out.resize(payload_base, 0);
    for (rel, bytes) in sections.parts {
        out.resize(payload_base + rel, 0);
        out.extend_from_slice(&bytes);
    }
    out
}

// ---------------------------------------------------------------------------
// Header parsing (shared by heap, mapped, and probe paths)
// ---------------------------------------------------------------------------

/// Parsed integer-storage descriptor: inline parts materialized, bulk
/// payloads still only (offset, count) coordinates.
enum IntMeta<T> {
    Plain {
        rel: usize,
    },
    BitPacked {
        base: T,
        width: u8,
        nwords: usize,
        rel: usize,
    },
    RunLength {
        values: Vec<T>,
        ends: Vec<u32>,
    },
    Delta {
        anchors: Vec<T>,
        width: u8,
        nwords: usize,
        rel: usize,
    },
}

fn decode_int_meta<T>(
    r: &mut WireReader,
    rows: usize,
    column: &str,
    get: impl Fn(&mut WireReader) -> std::result::Result<T, hillview_net::Error>,
) -> Result<IntMeta<T>> {
    let enc = r.get_u8().map_err(wire_err)?;
    let declared = r.get_len("values").map_err(wire_err)?;
    if declared != rows {
        return Err(Error::RowCountMismatch {
            column: column.to_string(),
            declared: rows,
            actual: declared,
        });
    }
    match enc {
        ENC_PLAIN => Ok(IntMeta::Plain {
            rel: r.get_len("section offset").map_err(wire_err)?,
        }),
        ENC_BIT_PACKED => {
            let base = get(r).map_err(wire_err)?;
            let width = r.get_u8().map_err(wire_err)?;
            let nwords = r.get_len("packed words").map_err(wire_err)?;
            let rel = r.get_len("section offset").map_err(wire_err)?;
            Ok(IntMeta::BitPacked {
                base,
                width,
                nwords,
                rel,
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
            Ok(IntMeta::RunLength { values, ends })
        }
        ENC_DELTA => {
            let nanchors = r.get_len("delta anchors").map_err(wire_err)?;
            let mut anchors = Vec::with_capacity(nanchors.min(1 << 20));
            for _ in 0..nanchors {
                anchors.push(get(r).map_err(wire_err)?);
            }
            let width = r.get_u8().map_err(wire_err)?;
            let nwords = r.get_len("delta words").map_err(wire_err)?;
            let rel = r.get_len("section offset").map_err(wire_err)?;
            Ok(IntMeta::Delta {
                anchors,
                width,
                nwords,
                rel,
            })
        }
        b => Err(parse_err(format!(
            "column {column:?}: unknown encoding byte {b}"
        ))),
    }
}

fn decode_zones<T: Copy>(
    r: &mut WireReader,
    rows: usize,
    column: &str,
    get: impl Fn(&mut WireReader) -> std::result::Result<T, hillview_net::Error>,
) -> Result<ZoneMap<T>> {
    let n = r.get_len("zone blocks").map_err(wire_err)?;
    if n != rows.div_ceil(BLOCK_ROWS) {
        return Err(parse_err(format!(
            "column {column:?}: zone map covers {n} blocks for {rows} rows"
        )));
    }
    let mut mins = Vec::with_capacity(n.min(1 << 20));
    let mut maxs = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        mins.push(get(r).map_err(wire_err)?);
        maxs.push(get(r).map_err(wire_err)?);
    }
    ZoneMap::from_parts(mins, maxs)
        .ok_or_else(|| parse_err(format!("column {column:?}: malformed zone map")))
}

/// One column's fully-parsed header metadata.
struct ColMeta {
    name: String,
    kind: ColumnKind,
    nulls: NullMask,
    payload: PayloadMeta,
}

enum PayloadMeta {
    Int {
        storage: IntMeta<i64>,
        zones: ZoneMap<i64>,
    },
    Double {
        rel: usize,
        zones: ZoneMap<f64>,
    },
    Dict {
        dict: Arc<Dictionary>,
        dict_len: usize,
        codes: IntMeta<u32>,
        zones: ZoneMap<u32>,
    },
}

struct Header {
    rows: usize,
    columns: Vec<ColMeta>,
    /// Absolute byte offset of the first payload section.
    payload_base: usize,
}

fn get_code(r: &mut WireReader) -> std::result::Result<u32, hillview_net::Error> {
    let v = r.get_varint()?;
    u32::try_from(v).map_err(|_| hillview_net::Error::BadLength {
        context: "dictionary code",
        len: v,
    })
}

/// Parse a v3 header blob (the bytes after magic + length word).
fn parse_header(hdr: Bytes, payload_base: usize) -> Result<Header> {
    let mut r = WireReader::new(hdr);
    let cols = r.get_len("columns").map_err(wire_err)?;
    let rows = r.get_len("rows").map_err(wire_err)?;
    let mut columns = Vec::with_capacity(cols.min(1 << 16));
    for _ in 0..cols {
        let name = r.get_str().map_err(wire_err)?;
        let kind = byte_kind(r.get_u8().map_err(wire_err)?, 0)?;
        let nulls = decode_null_runs(&mut r, rows, &name)?;
        let payload = match kind {
            ColumnKind::Int | ColumnKind::Date => {
                let storage = decode_int_meta(&mut r, rows, &name, |r| r.get_i64())?;
                let zones = decode_zones(&mut r, rows, &name, |r| r.get_i64())?;
                PayloadMeta::Int { storage, zones }
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
                let rel = r.get_len("section offset").map_err(wire_err)?;
                let zones = decode_zones(&mut r, rows, &name, |r| r.get_f64())?;
                PayloadMeta::Double { rel, zones }
            }
            ColumnKind::String | ColumnKind::Category => {
                let dict_len = r.get_len("dict").map_err(wire_err)?;
                let mut db = DictionaryBuilder::new();
                for _ in 0..dict_len {
                    db.intern(&r.get_str().map_err(wire_err)?);
                }
                let codes = decode_int_meta(&mut r, rows, &name, get_code)?;
                let zones = decode_zones(&mut r, rows, &name, get_code)?;
                PayloadMeta::Dict {
                    dict: Arc::new(db.finish()),
                    dict_len,
                    codes,
                    zones,
                }
            }
        };
        columns.push(ColMeta {
            name,
            kind,
            nulls,
            payload,
        });
    }
    Ok(Header {
        rows,
        columns,
        payload_base,
    })
}

// ---------------------------------------------------------------------------
// Materialization (heap and mapped share everything but the ValueBuf source)
// ---------------------------------------------------------------------------

/// Where payload sections come from: a fully-read file image (heap tier,
/// decoded via explicit LE reads — endian-independent) or a lazily
/// resident [`Segment`] (zero-copy windows, little-endian only).
enum Source<'a> {
    Owned(&'a [u8]),
    Mapped(Arc<Segment>),
}

impl Source<'_> {
    fn buf<T: Pod>(
        &self,
        base: usize,
        rel: usize,
        len: usize,
        column: &str,
    ) -> Result<ValueBuf<T>> {
        let off = base
            .checked_add(rel)
            .ok_or_else(|| parse_err(format!("column {column:?}: section offset overflows")))?;
        match self {
            Source::Owned(bytes) => {
                let nbytes = len.checked_mul(T::BYTES).ok_or_else(|| {
                    parse_err(format!("column {column:?}: section length overflows"))
                })?;
                let end = off.checked_add(nbytes).ok_or_else(|| {
                    parse_err(format!("column {column:?}: section length overflows"))
                })?;
                if end > bytes.len() {
                    return Err(parse_err(format!(
                        "column {column:?}: section {off}..{end} exceeds file length {}",
                        bytes.len()
                    )));
                }
                let mut v = Vec::with_capacity(len);
                for chunk in bytes[off..end].chunks_exact(T::BYTES) {
                    v.push(T::read_le(chunk));
                }
                Ok(v.into())
            }
            Source::Mapped(seg) => ValueBuf::mapped(Arc::clone(seg), off, len)
                .map_err(|e| parse_err(format!("column {column:?}: {e}"))),
        }
    }
}

fn build_int_storage<T: Pod + PackedInt>(
    meta: IntMeta<T>,
    rows: usize,
    src: &Source<'_>,
    base: usize,
    column: &str,
) -> Result<IntStorage<T>> {
    match meta {
        IntMeta::Plain { rel } => Ok(IntStorage::Plain(src.buf::<T>(base, rel, rows, column)?)),
        IntMeta::BitPacked {
            base: frame,
            width,
            nwords,
            rel,
        } => {
            let words = src.buf::<u64>(base, rel, nwords, column)?;
            IntStorage::from_bit_packed_buf(frame, width, rows, words).ok_or_else(|| {
                parse_err(format!(
                    "column {column:?}: inconsistent bit-packed section (width {width}, {nwords} words for {rows} rows)"
                ))
            })
        }
        IntMeta::RunLength { values, ends } => IntStorage::from_run_length(values, ends)
            .ok_or_else(|| parse_err(format!("column {column:?}: malformed run-length section"))),
        IntMeta::Delta {
            anchors,
            width,
            nwords,
            rel,
        } => {
            let nanchors = anchors.len();
            let words = src.buf::<u64>(base, rel, nwords, column)?;
            IntStorage::from_delta_buf(anchors, width, rows, words).ok_or_else(|| {
                parse_err(format!(
                    "column {column:?}: inconsistent delta section (width {width}, {nanchors} anchors, {nwords} words for {rows} rows)"
                ))
            })
        }
    }
}

/// Assemble a [`Table`] from a parsed header and a payload source.
/// `deep_validate` runs the v2-parity full dictionary-code check (heap
/// path); the mapped path instead bounds codes by the persisted zone
/// maxima, which never touches payload bytes.
fn build_table(header: Header, src: &Source<'_>, deep_validate: bool) -> Result<Table> {
    let base = header.payload_base;
    let rows = header.rows;
    let mut builder = Table::builder();
    for cm in header.columns {
        let column = match cm.payload {
            PayloadMeta::Int { storage, zones } => {
                let st = build_int_storage(storage, rows, src, base, &cm.name)?;
                let ic = I64Column::with_storage_and_zones(st, cm.nulls, zones);
                if cm.kind == ColumnKind::Int {
                    Column::Int(ic)
                } else {
                    Column::Date(ic)
                }
            }
            PayloadMeta::Double { rel, zones } => {
                let data = src.buf::<f64>(base, rel, rows, &cm.name)?;
                Column::Double(F64Column::from_parts(data, cm.nulls, zones))
            }
            PayloadMeta::Dict {
                dict,
                dict_len,
                codes,
                zones,
            } => {
                let st = build_int_storage(codes, rows, src, base, &cm.name)?;
                if deep_validate {
                    validate_codes(&st, dict_len, cm.nulls.null_count(), &cm.name)?;
                } else if dict_len == 0 {
                    if cm.nulls.null_count() < rows {
                        return Err(parse_err(format!(
                            "column {:?}: empty dictionary but {} non-null rows",
                            cm.name,
                            rows - cm.nulls.null_count()
                        )));
                    }
                } else if let Some(&max) = zones.maxs().iter().find(|&&m| m as usize >= dict_len) {
                    return Err(parse_err(format!(
                        "column {:?}: zone max code {max} out of dictionary range {dict_len}",
                        cm.name
                    )));
                }
                let dc = DictColumn::with_storage_and_zones(st, dict, cm.nulls, zones);
                if cm.kind == ColumnKind::String {
                    Column::Str(dc)
                } else {
                    Column::Cat(dc)
                }
            }
        };
        builder = builder.column(&cm.name, cm.kind, column);
    }
    Ok(builder.build()?)
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

fn split_image(bytes: &[u8]) -> Result<(Bytes, usize)> {
    if bytes.len() < 8 || &bytes[0..4] != MAGIC3 {
        return Err(parse_err("bad v3 magic"));
    }
    let header_len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let end = 8usize
        .checked_add(header_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| parse_err("v3 header exceeds file length"))?;
    Ok((
        Bytes::copy_from_slice(&bytes[8..end]),
        align_up(8 + header_len),
    ))
}

/// Decode a complete v3 file image into fully heap-resident columns.
pub fn decode_owned(bytes: &[u8]) -> Result<Table> {
    let (hdr, payload_base) = split_image(bytes)?;
    let header = parse_header(hdr, payload_base)?;
    build_table(header, &Source::Owned(bytes), true)
}

/// Open a v3 file as lazily-resident, file-backed columns: bulk payloads
/// become zero-copy [`ValueBuf`] windows over a [`Segment`] attached to
/// `cache`, and no payload byte is read until a scan touches it. A v2 file
/// (or any open on a big-endian host) transparently falls back to the
/// heap-resident [`hvc::read_file`] path.
pub fn read_file_mapped(
    path: impl AsRef<Path>,
    cache: &Arc<BlockCache>,
    mode: SegmentMode,
) -> Result<Table> {
    let path = path.as_ref();
    if cfg!(target_endian = "big") {
        return hvc::read_file(path);
    }
    let mut f = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    if read_some(&mut f, &mut head)? < 4 || &head[0..4] != MAGIC3 {
        return hvc::read_file(path);
    }
    let header_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
    let mut hdr = vec![0u8; header_len];
    f.read_exact(&mut hdr)
        .map_err(|_| parse_err("v3 header exceeds file length"))?;
    drop(f);
    let header = parse_header(Bytes::from(hdr), align_up(8 + header_len))?;
    let seg = Segment::open(path, mode, cache)?;
    build_table(header, &Source::Mapped(seg), false)
}

/// What [`probe_file`] learns from a file's header alone.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Container version (2 or 3).
    pub version: u8,
    /// Number of columns.
    pub columns: usize,
    /// Number of rows.
    pub rows: usize,
    /// Full schema — available for v3 (whose header is self-contained);
    /// `None` for v2, where the schema is interleaved with the payload.
    pub schema: Option<Schema>,
}

/// Read as many bytes as the reader has, up to `buf.len()`.
fn read_some(f: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    let mut n = 0usize;
    while n < buf.len() {
        let got = f.read(&mut buf[n..])?;
        if got == 0 {
            break;
        }
        n += got;
    }
    Ok(n)
}

/// Probe a file's identity, dimensions and (v3) schema by reading only its
/// header — never the column payloads. This is what partition loading uses
/// to plan shard assignment without faulting data in.
pub fn probe_file(path: impl AsRef<Path>) -> Result<FileInfo> {
    let mut f = std::fs::File::open(path)?;
    // 4 magic + 4 length word (v3) — or 4 magic + two varints (v2, ≤ 10
    // bytes each). 24 bytes covers both.
    let mut head = [0u8; 24];
    let n = read_some(&mut f, &mut head)?;
    if n < 4 {
        return Err(parse_err("file too short for magic"));
    }
    if &head[0..4] == hvc::MAGIC {
        let mut r = WireReader::new(Bytes::copy_from_slice(&head[4..n]));
        let columns = r.get_len("columns").map_err(wire_err)?;
        let rows = r.get_len("rows").map_err(wire_err)?;
        return Ok(FileInfo {
            version: 2,
            columns,
            rows,
            schema: None,
        });
    }
    if &head[0..4] != MAGIC3 {
        return Err(parse_err("bad magic"));
    }
    if n < 8 {
        return Err(parse_err("file too short for v3 header length"));
    }
    let header_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
    let mut hdr = vec![0u8; header_len];
    let have = (n - 8).min(header_len);
    hdr[..have].copy_from_slice(&head[8..8 + have]);
    f.read_exact(&mut hdr[have..])
        .map_err(|_| parse_err("v3 header exceeds file length"))?;
    let header = parse_header(Bytes::from(hdr), align_up(8 + header_len))?;
    let descs: Vec<ColumnDesc> = header
        .columns
        .iter()
        .map(|c| ColumnDesc::new(&c.name, c.kind))
        .collect();
    Ok(FileInfo {
        version: 3,
        columns: header.columns.len(),
        rows: header.rows,
        schema: Some(Schema::from_descs(descs)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::encoding::EncodingKind;
    use hillview_columnar::Value;

    fn dir() -> std::path::PathBuf {
        // pid + a process-wide counter: no other test, in this process or
        // another, shares the path.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("hvc3-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn mixed_table(n: usize) -> Table {
        Table::builder()
            .column(
                "seq",
                ColumnKind::Int,
                Column::Int(I64Column::new(
                    (0..n as i64).map(|i| 1_000_000 + i * 3).collect(),
                    NullMask::none(),
                )),
            )
            .column(
                "bucket",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..n).map(|i| {
                    if i % 17 == 3 {
                        None
                    } else {
                        Some((i as i64 * 7919) % 512)
                    }
                }))),
            )
            .column(
                "rl",
                ColumnKind::Int,
                Column::Int(I64Column::new(
                    (0..n as i64).map(|i| i / 100).collect(),
                    NullMask::none(),
                )),
            )
            .column(
                "noise",
                ColumnKind::Int,
                Column::Int(I64Column::plain(
                    (0..n as i64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
                    NullMask::none(),
                )),
            )
            .column(
                "score",
                ColumnKind::Double,
                Column::Double(F64Column::from_options((0..n).map(|i| {
                    if i % 13 == 0 {
                        None
                    } else {
                        Some(i as f64 * 0.25 - 100.0)
                    }
                }))),
            )
            .column(
                "tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings((0..n).map(|i| {
                    if i % 11 == 5 {
                        None
                    } else {
                        Some(["red", "green", "blue", "teal"][i % 4])
                    }
                }))),
            )
            .build()
            .unwrap()
    }

    fn assert_tables_identical(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.num_columns(), b.num_columns());
        for c in 0..a.num_columns() {
            assert_eq!(a.schema().desc(c), b.schema().desc(c), "desc {c}");
        }
        for r in 0..a.num_rows() {
            assert_eq!(a.full_row(r), b.full_row(r), "row {r}");
        }
    }

    #[test]
    fn v3_round_trip_preserves_everything() {
        let t = mixed_table(700);
        let t2 = decode_owned(&encode(&t)).unwrap();
        assert_tables_identical(&t, &t2);
    }

    #[test]
    fn v3_round_trip_preserves_encoding_and_zones() {
        let t = mixed_table(4000);
        let img = encode(&t);
        let t2 = decode_owned(&img).unwrap();
        for (name, kind) in [
            ("seq", EncodingKind::Delta),
            ("bucket", EncodingKind::BitPacked),
            ("rl", EncodingKind::RunLength),
            ("noise", EncodingKind::Plain),
        ] {
            let a = t.column_by_name(name).unwrap().as_i64_col().unwrap();
            let b = t2.column_by_name(name).unwrap().as_i64_col().unwrap();
            assert_eq!(a.storage().kind(), kind, "{name}");
            assert_eq!(a.storage(), b.storage(), "{name}");
            assert_eq!(a.zones().mins(), b.zones().mins(), "{name} zone mins");
            assert_eq!(a.zones().maxs(), b.zones().maxs(), "{name} zone maxs");
        }
    }

    #[test]
    fn write_file_emits_v3_and_read_file_sniffs_both() {
        let d = dir();
        let t = mixed_table(300);
        let p3 = d.join("t3.hvc");
        hvc::write_file(&t, &p3).unwrap();
        let bytes = std::fs::read(&p3).unwrap();
        assert_eq!(&bytes[0..4], MAGIC3);
        assert_tables_identical(&t, &hvc::read_file(&p3).unwrap());
        // v2 files remain readable through the same entry point.
        let p2 = d.join("t2.hvc");
        hvc::write_file_v2(&t, &p2).unwrap();
        let bytes = std::fs::read(&p2).unwrap();
        assert_eq!(&bytes[0..4], hvc::MAGIC);
        assert_tables_identical(&t, &hvc::read_file(&p2).unwrap());
    }

    #[test]
    fn payload_sections_are_64_byte_aligned() {
        let t = mixed_table(500);
        let img = encode(&t);
        let (hdr, payload_base) = split_image(&img).unwrap();
        assert_eq!(payload_base % ALIGN, 0);
        let header = parse_header(hdr, payload_base).unwrap();
        for cm in &header.columns {
            let rels: Vec<usize> = match &cm.payload {
                PayloadMeta::Int { storage, .. } => match storage {
                    IntMeta::Plain { rel }
                    | IntMeta::BitPacked { rel, .. }
                    | IntMeta::Delta { rel, .. } => vec![*rel],
                    IntMeta::RunLength { .. } => vec![],
                },
                PayloadMeta::Double { rel, .. } => vec![*rel],
                PayloadMeta::Dict { codes, .. } => match codes {
                    IntMeta::Plain { rel }
                    | IntMeta::BitPacked { rel, .. }
                    | IntMeta::Delta { rel, .. } => vec![*rel],
                    IntMeta::RunLength { .. } => vec![],
                },
            };
            for rel in rels {
                assert_eq!(rel % ALIGN, 0, "column {:?} section at {rel}", cm.name);
            }
        }
    }

    #[test]
    fn mapped_read_bit_identical_to_heap_in_every_mode() {
        let d = dir();
        let t = mixed_table(2000);
        let p = d.join("mapped.hvc");
        hvc::write_file(&t, &p).unwrap();
        let heap = hvc::read_file(&p).unwrap();
        assert_tables_identical(&t, &heap);
        let modes: &[SegmentMode] = &[
            SegmentMode::Auto,
            SegmentMode::Pread,
            SegmentMode::Heap,
            #[cfg(feature = "ooc")]
            SegmentMode::Mmap,
        ];
        for &mode in modes {
            let cache = BlockCache::unbounded();
            let m = read_file_mapped(&p, &cache, mode).unwrap();
            assert_tables_identical(&heap, &m);
            // Storage-level equality: same variant, same decoded values.
            for name in ["seq", "bucket", "rl", "noise"] {
                let a = heap.column_by_name(name).unwrap().as_i64_col().unwrap();
                let b = m.column_by_name(name).unwrap().as_i64_col().unwrap();
                assert_eq!(a.storage(), b.storage(), "{name} under {mode:?}");
            }
        }
    }

    #[test]
    fn mapped_open_reads_no_payload() {
        let d = dir();
        let t = mixed_table(5000);
        let p = d.join("lazy.hvc");
        hvc::write_file(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Pread).unwrap();
        assert_eq!(cache.stats().faults, 0, "open faulted payload in");
        assert!(m.mapped_bytes() > 0, "columns are file-backed");
        // First actual access faults.
        let _ = m.column_by_name("noise").unwrap().value(4321);
        assert!(cache.stats().faults > 0);
    }

    #[test]
    fn mapped_falls_back_to_heap_for_v2_files() {
        let d = dir();
        let t = mixed_table(200);
        let p = d.join("old.hvc");
        hvc::write_file_v2(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap();
        assert_tables_identical(&t, &m);
        assert_eq!(m.mapped_bytes(), 0);
    }

    #[test]
    fn probe_reads_header_only() {
        let d = dir();
        let t = mixed_table(600);
        let p = d.join("probe.hvc");
        hvc::write_file(&t, &p).unwrap();
        let info = probe_file(&p).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.rows, 600);
        assert_eq!(info.columns, 6);
        let schema = info.schema.unwrap();
        assert_eq!(schema.index_of("score").unwrap(), 4);
        assert_eq!(schema.desc(5).kind, ColumnKind::Category);
        // Truncate the file to magic + header: the probe still succeeds
        // (proof it never reads payload), while a full read fails.
        let bytes = std::fs::read(&p).unwrap();
        let header_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let cut = d.join("probe-cut.hvc");
        std::fs::write(&cut, &bytes[..8 + header_len]).unwrap();
        let info = probe_file(&cut).unwrap();
        assert_eq!((info.version, info.rows), (3, 600));
        assert!(hvc::read_file(&cut).is_err());
    }

    #[test]
    fn probe_reports_v2_dimensions() {
        let d = dir();
        let t = mixed_table(250);
        let p = d.join("probe2.hvc");
        hvc::write_file_v2(&t, &p).unwrap();
        let info = probe_file(&p).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.rows, 250);
        assert_eq!(info.columns, 6);
        assert!(info.schema.is_none());
    }

    #[test]
    fn corrupt_v3_rejected() {
        let t = mixed_table(400);
        let img = encode(&t);
        // Bad magic.
        assert!(decode_owned(b"NOPE0000").is_err());
        // Header length beyond the file.
        let mut huge = img.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_owned(&huge).is_err());
        // Truncations at many points must error, never panic.
        for cut in [6, 20, img.len() / 4, img.len() / 2, img.len() - 1] {
            assert!(decode_owned(&img[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn row_count_mismatch_is_structured() {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::plain((0..200).collect(), NullMask::none())),
            )
            .build()
            .unwrap();
        let img = encode(&t);
        // Header blob starts at byte 8: cols varint (1 byte) then rows
        // varint 200 = [0xC8, 0x01]. Patch rows to 199.
        assert_eq!(&img[9..11], &[0xC8, 0x01], "expected varint 200");
        let mut bad = img.clone();
        bad[9] = 0xC7;
        let err = decode_owned(&bad).unwrap_err();
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
    fn mapped_open_rejects_zone_codes_outside_dictionary() {
        // Corrupt a categorical column's zone max above dict_len: the
        // mapped path's header-only validation must reject the file.
        let d = dir();
        let t = Table::builder()
            .column(
                "tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    (0..640).map(|i| Some(["a", "b", "c", "d", "e"][i % 5])),
                )),
            )
            .build()
            .unwrap();
        let p = d.join("badzones.hvc");
        hvc::write_file(&t, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let header_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        // The zone map is the header's tail: 10 blocks of (min=0, max=4)
        // varint pairs. Set every max to 127 (still a one-byte varint).
        let tail = &mut bytes[8 + header_len - 20..8 + header_len];
        assert!(tail.iter().step_by(2).all(|&b| b == 0), "zone mins");
        assert!(tail[1..].iter().step_by(2).all(|&b| b == 4), "zone maxs");
        for b in tail[1..].iter_mut().step_by(2) {
            *b = 127;
        }
        std::fs::write(&p, &bytes).unwrap();
        let cache = BlockCache::unbounded();
        let err = read_file_mapped(&p, &cache, SegmentMode::Pread).unwrap_err();
        assert!(
            err.to_string().contains("out of dictionary range"),
            "got {err}"
        );
    }

    #[test]
    fn empty_and_all_null_tables_round_trip() {
        let t = Table::empty();
        let t2 = decode_owned(&encode(&t)).unwrap();
        assert_eq!((t2.num_rows(), t2.num_columns()), (0, 0));
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([None::<&str>, None, None])),
            )
            .column(
                "D",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([None, None, None])),
            )
            .build()
            .unwrap();
        let t2 = decode_owned(&encode(&t)).unwrap();
        for r in 0..3 {
            assert_eq!(t2.get(r, "S").unwrap(), Value::Missing);
            assert_eq!(t2.get(r, "D").unwrap(), Value::Missing);
        }
        // And through the mapped path.
        let d = dir();
        let p = d.join("allnull.hvc");
        hvc::write_file(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap();
        assert_tables_identical(&t2, &m);
    }

    #[test]
    fn nan_doubles_survive_the_mapped_path() {
        // NaN payload values are null-masked at ingest; the raw section
        // preserves them bit-for-bit and from_parts must not re-normalize.
        let d = dir();
        let t = Table::builder()
            .column(
                "x",
                ColumnKind::Double,
                Column::Double(F64Column::new(
                    vec![1.0, f64::NAN, 3.0, f64::NAN],
                    NullMask::none(),
                )),
            )
            .build()
            .unwrap();
        let p = d.join("nan.hvc");
        hvc::write_file(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Pread).unwrap();
        let c = m.column_by_name("x").unwrap().as_f64_col().unwrap();
        assert_eq!(c.get(0), Some(1.0));
        assert_eq!(c.get(1), None, "NaN row stays null");
        assert_eq!(c.nulls().null_count(), 2);
    }
}
