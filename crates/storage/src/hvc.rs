//! HVC ("HillView Columnar") — our columnar binary file format.
//!
//! Substitutes for ORC/Parquet: per-column typed sections so a worker
//! "reads a column completely from the data repository taking advantage of
//! fast sequential access and columnar access" (paper §5.4).
//!
//! The layout is built for the *file*: what every open needs — schema, null
//! runs, encodings, zone maps — lives in a self-contained header; the bulk
//! payloads (plain values, packed words, doubles) are raw little-endian
//! sections aligned to 64 bytes, so an
//! [`hillview_columnar::residency::Segment`] can hand out zero-copy
//! [`ValueBuf`] windows over them without any decode pass; and the strings,
//! which only an operation that *shows* one needs, are byte sections at the
//! file's tail that an open merely locates:
//!
//! ```text
//! magic "HVC10" | header_len u32 LE | header blob | pad | payload sections
//!   | dictionary sections
//! header blob (all integers varint unless noted):
//!   column_count | row_count
//!   per column:
//!     name | kind byte | null runs
//!     null runs: run count, then the run lengths (present, missing,
//!       present, …; only the first may be 0) — or, when an earlier column
//!       has the same runs, 0 (which no run count is) and the index of the
//!       first such column
//!     payload descriptor:
//!       Int/Date: enc byte, declared value count, then
//!         0 (plain):      section offset
//!         1 (bit-packed): base zigzag, width u8, [step], word count,
//!                         section offset — row i is base + step · packed[i]
//!                         (wrapping). Bit 7 of the width byte says a step
//!                         ≥ 2 follows; clear, the step is 1 and the
//!                         descriptor is byte for byte a stride-free one. A
//!                         width-0 (constant) column has step 1.
//!         2 (run-length): run count, (value zigzag, run length) pairs inline
//!         3 (delta):      anchor count, anchors zigzag, width u8,
//!                         word count, section offset
//!         4 (exceptions): fill zigzag, rank count, ranks (varints, inline
//!                         like delta anchors), mark word count, section
//!                         offset of the marks, then the exceptions' own
//!                         descriptor: enc byte 0..3 (a 4 is refused), its
//!                         value count — the number of marks — and its
//!                         fields as above; an exception above the fill is
//!                         stored one lower (the fill's value cut out)
//!       Double:   enc byte, then the Int descriptor: encodings 1..4
//!                 hold the column's sign-magnitude codes, 0 = the section
//!                 holds the raw f64 values (inside an exceptions
//!                 descriptor, 0 is plain codes)
//!       Str/Cat:  dictionary entry count, byte length, and offset within
//!                 the dictionary area; codes descriptor (same five
//!                 encodings, code values as plain varints; a code is its
//!                 string's rank among the entries)
//!     zone map: block count, then per block (min, max) in the column's
//!       integer domain — an Int/Date value itself, a Str/Cat code, the
//!       sign-magnitude code of a Double whose enc byte is not 0 — as
//!       m (the smallest image: zigzag for Int/Date, plain for codes),
//!       g (the gcd of every image − m, wrapping in u64; 0 when all are
//!       equal) and each extreme as (image − m) / g (0 when g is 0); m and
//!       g are left out when there is no block. A Double with enc byte 0
//!       writes raw LE f64 extremes instead
//!     present extremes: only an Int/Date/Double column with rows both
//!       null and present writes any — the least then the greatest present
//!       value: an Int/Date's as its offset above m, an integral Double's
//!       sign-magnitude codes as plain varints, a raw Double's as LE f64s.
//!       Everything else the column's statistics hold, the header already
//!       says: its present and missing rows are its null runs, and a column
//!       without nulls has the fold of its zone map for extremes
//!   dictionary base: where the dictionary area starts, as a section offset
//! dictionary section: the entries in byte order, front-coded in buckets
//!   of 16 — per entry a header byte (high nibble: bytes shared with the
//!   previous entry, 0 for a bucket's first; low nibble: suffix length; a
//!   nibble of 15 adds a varint that follows), then the suffix's UTF-8
//! ```
//!
//! The encoding byte mirrors the column's *in-memory*
//! [`hillview_columnar::IntStorage`] representation: a bit-packed,
//! run-length, delta or exceptions column — integers, dictionary codes, and
//! the integer codes of an integral double column
//! ([`hillview_columnar::F64Storage`]) alike — round-trips through a file
//! without ever inflating to plain, and decode rebuilds the exact same
//! variant instead of re-analyzing.
//!
//! A dictionary holds exactly the strings the column's non-null rows
//! reference, sorted by their bytes, and a code is its string's rank
//! ([`encode`] prunes and renumbers a column that carries more, such as a
//! slice sharing its parent table's dictionary; null rows sit on code 0). So
//! a file is a function of its rows and a reader never parses a string no
//! row can show. The section's bytes are the in-memory layout of
//! [`hillview_columnar::dictionary`] — written as [`Dictionary::front_coded`]
//! returns them and taken back as the column's arena by the one parser
//! (`decode_dictionary`, which is [`Dictionary::from_front_coded`]): one
//! pass that validates every entry, checks that the entries strictly ascend
//! (so they are distinct) and rebuilds the bucket offsets, with no
//! allocation per entry. *When* it runs is the only thing the two tiers
//! differ in. The heap readers ([`decode`], [`read_file`],
//! `SegmentMode::Heap`) run it at open. A mapped open hands the column a
//! [`Dictionary::deferred`] that knows its entry count from the header, and
//! the parser runs when a string is first asked for — over bytes fetched
//! with one positioned read that goes around the block cache
//! ([`Segment::read_uncached`]), since the parsed arena is what stays
//! resident. A part's open and its heap footprint therefore follow the
//! string columns a query presents, not the ones the file stores.
//!
//! Section offsets are relative to the *payload base* — the first 64-byte
//! boundary at or after the header — and each payload section starts on a
//! 64-byte boundary of its own, so every `i64`/`u64`/`f64` payload is
//! naturally aligned however long the header is. Sections hold raw
//! fixed-width values a scan can borrow in place (packed encodings still
//! compress, and their word sections map as well). In header order, a
//! section that is not empty starts at or after the end of the one before,
//! so each byte of the payload belongs to one section: a mapped open hands
//! the sections to its [`Segment`] as the windows it faults in, each on a
//! chunk grid of its own. The dictionary area follows the last payload
//! section, unaligned and back to back: nothing windows it, and keeping it
//! out of the way leaves the payload sections packed as tightly as a file
//! without strings would have them.
//!
//! Null masks are run-length encoded (alternating present/missing run
//! lengths, starting with present), which collapses the common all-present
//! case to a single varint, and a mask another column already wrote — the
//! other all-present columns, the columns a data source nulls together —
//! costs two varints. Zone extremes cost what their offset from the part's
//! smallest needs at the offsets' common stride, not eight bytes: a column
//! of epoch-millisecond days writes day numbers. Either way a reader
//! rebuilds exactly what the writer held; the resident masks and maps do not
//! change with the header's width.
//!
//! Because the header also persists each column's zone map and statistics, a
//! mapped open ([`read_file_mapped`]) constructs every column without
//! touching one payload or dictionary byte: residency is faulted in
//! chunk-at-a-time by the scans themselves, and blocks the zone maps rule
//! out are never read at all. The statistics — a column's present and
//! missing rows and the extremes of its present values — are exact, so an
//! unfiltered dataset's row count and numeric ranges are answered from the
//! headers alone.
//! [`probe_file`] goes one step further and reads *only* the header —
//! enough for partition planning (schema + row count) at O(header) I/O.
//!
//! Integrity: decoding is total and every header field has one spelling.
//! Every length the file declares is checked against the bytes that could
//! back it before anything is allocated or sliced, and a broken structural
//! invariant (declared counts vs. rows, run structure, null runs with an
//! empty run past the first, written out in full when they repeat an
//! earlier column's, or naming a column that is not an earlier one that
//! wrote them, encoding invariants, zone-map block counts, a zone extreme
//! outside its column's domain — past `i64`, a code at or past the entry
//! count, a magnitude past 2^53 — or an integer-domain zone block whose
//! minimum is above its maximum, present extremes outside their domain, out
//! of order or outside the zones' span, a dictionary section the file is
//! too short to hold, exception ranks that fall or outrun their exceptions)
//! is a structured [`Error`]. The heap path ([`decode`]) additionally
//! validates every dictionary code, every dictionary entry, every exception
//! mark word against its ranks, and every zone map and every column's
//! present extremes against the ones its decoded payload folds to —
//! reported after the column faults, so a header whose zone max sits below
//! a row's value, or whose extremes no present row holds, is refused rather
//! than left to make a range predicate skip the row or a chart's axis
//! wrong. The mapped path must not — that would read
//! the bytes laziness exists to avoid — so it checks what the header alone
//! can settle (codes bounded by the zone maxima, which the parse held to the
//! entry count, sections bounded by the file's length, ranks by the rows and
//! the exception count), trusts zone maps that pass the header's checks, and
//! leaves three faults to the moment a scan meets them, each as a panic the worker's
//! pool isolates into `LeafPanicked` rather than a quiet out-of-bounds or a
//! wrong string: a payload that contradicts its zone maps, when the code is
//! dereferenced; exception marks that contradict their ranks, when the
//! frame is decoded; and a dictionary section that fails the parser's
//! validation (an entry the bytes cannot back, an escape that overflows, a
//! prefix longer than its predecessor, ending mid-character or shorter than
//! the longest shared, entries that do not strictly ascend) or cannot be
//! read, when the column's first string is asked for — the panic names the
//! column and the file, and every query that does not present that column
//! is answered as if nothing were wrong. All three
//! become a structured storage error with ROADMAP item 5.
//!
//! Endianness: mapped windows reinterpret file bytes in place and are only
//! correct on little-endian targets; big-endian hosts transparently fall
//! back to the heap path, which decodes via explicit LE reads.

use crate::error::{Error, Result};
use crate::partition::renumber;
use bytes::Bytes;
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::dictionary::Dictionary;
use hillview_columnar::encoding::{
    gcd, EncodingKind, Extreme, F64Storage, IntStorage, PackedInt, ZoneMap,
};
use hillview_columnar::residency::{BlockCache, Pod, Segment, SegmentMode, ValueBuf};
use hillview_columnar::{ColumnDesc, ColumnKind, NullMask, Schema, Table, BLOCK_ROWS};
use hillview_net::{WireReader, WireWriter};
use std::collections::HashMap;
use std::io::Read;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 5] = b"HVC10";

/// Bytes before the header blob: the magic and the blob's length word.
const PREAMBLE: usize = MAGIC.len() + 4;

const ENC_PLAIN: u8 = 0;
const ENC_BIT_PACKED: u8 = 1;
const ENC_RUN_LENGTH: u8 = 2;
const ENC_DELTA: u8 = 3;
const ENC_EXCEPTIONS: u8 = 4;

/// Width-byte flag of a bit-packed descriptor: a step varint follows.
const STRIDED: u8 = 0x80;

/// Payload section alignment: covers every lane type and leaves room for
/// cache-line-aligned SIMD loads.
const ALIGN: usize = 64;

fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN) * ALIGN
}

fn kind_byte(kind: ColumnKind) -> u8 {
    match kind {
        ColumnKind::Int => 0,
        ColumnKind::Date => 1,
        ColumnKind::Double => 2,
        ColumnKind::String => 3,
        ColumnKind::Category => 4,
    }
}

fn byte_kind(b: u8) -> Result<ColumnKind> {
    Ok(match b {
        0 => ColumnKind::Int,
        1 => ColumnKind::Date,
        2 => ColumnKind::Double,
        3 => ColumnKind::String,
        4 => ColumnKind::Category,
        _ => return Err(parse_err(format!("unknown column kind byte {b}"))),
    })
}

fn parse_err(message: impl Into<String>) -> Error {
    Error::Parse {
        format: "hvc",
        at: 0,
        message: message.into(),
    }
}

fn wire_err(e: hillview_net::Error) -> Error {
    parse_err(e.to_string())
}

fn row_count_mismatch(column: &str, declared: usize, actual: usize) -> Error {
    Error::RowCountMismatch {
        column: column.to_string(),
        declared,
        actual,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Raw payload sections accumulated while the header is written; each is
/// placed at the next 64-byte-aligned offset relative to the payload base.
/// The dictionary area — every string column's entries, back to back — goes
/// after the last of them, at offset `rel`.
#[derive(Default)]
struct Sections {
    rel: usize,
    parts: Vec<(usize, Vec<u8>)>,
    dictionaries: Vec<u8>,
}

impl Sections {
    /// Reserve an aligned slot for `bytes`, returning its relative offset.
    fn push(&mut self, bytes: Vec<u8>) -> usize {
        let at = align_up(self.rel);
        self.rel = at + bytes.len();
        self.parts.push((at, bytes));
        at
    }

    /// [`Sections::push`] of `values` as raw little-endian lanes.
    fn push_le<T: Pod>(&mut self, values: &[T]) -> usize {
        let mut bytes = Vec::with_capacity(values.len() * T::BYTES);
        for &v in values {
            v.write_le(&mut bytes);
        }
        self.push(bytes)
    }
}

/// A column's null mask as alternating run lengths — present, missing,
/// present, … — of which only the first can be 0.
fn null_runs(col: &Column, rows: usize) -> Vec<u64> {
    let Some(bits) = col.null_bitmap() else {
        return vec![rows as u64];
    };
    let mut runs = Vec::new();
    // Walk the mask a word at a time to each row whose bit differs from
    // the run it would extend.
    let (mut null, mut start, mut i) = (false, 0, 0);
    while i < rows {
        let word = bits.word(i / 64);
        let differs = (if null { !word } else { word }) >> (i % 64);
        if differs == 0 {
            i = (i / 64 + 1) * 64;
            continue;
        }
        i += differs.trailing_zeros() as usize;
        if i < rows {
            runs.push((i - start) as u64);
            (null, start) = (!null, i);
        }
    }
    runs.push((rows - start) as u64);
    runs
}

/// Write column `c`'s null runs, or — when an earlier column's `written`
/// were the same — a 0, which no run count can be, and that column.
fn encode_null_runs<'a>(
    w: &mut WireWriter,
    runs: &'a [u64],
    c: usize,
    written: &mut HashMap<&'a [u64], usize>,
) {
    if let Some(&first) = written.get(runs) {
        w.put_varint(0);
        w.put_varint(first as u64);
        return;
    }
    w.put_varint(runs.len() as u64);
    for &r in runs {
        w.put_varint(r);
    }
    written.insert(runs, c);
}

/// Write one integer-storage descriptor into the header, spilling bulk
/// payloads (plain values, packed words) into aligned sections. `put`
/// writes one inline logical value (zigzag for `i64`, varint for codes).
fn encode_int_storage<T: PackedInt + Pod>(
    w: &mut WireWriter,
    sections: &mut Sections,
    storage: &IntStorage<T>,
    put: &impl Fn(&mut WireWriter, T),
) {
    match storage {
        IntStorage::Plain(values) => {
            w.put_u8(ENC_PLAIN);
            w.put_varint(values.len() as u64);
            w.put_varint(sections.push_le(values.slice()) as u64);
        }
        IntStorage::BitPacked {
            base,
            step,
            width,
            len,
            words,
        } => {
            w.put_u8(ENC_BIT_PACKED);
            w.put_varint(*len as u64);
            put(w, *base);
            if *step == 1 {
                w.put_u8(*width);
            } else {
                w.put_u8(*width | STRIDED);
                w.put_varint(*step);
            }
            w.put_varint(words.len() as u64);
            w.put_varint(sections.push_le(words.slice()) as u64);
        }
        IntStorage::RunLength { values, ends } => {
            // Fully inline: run tables are consulted by every block
            // decision, so there is nothing to keep lazy.
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
            w.put_varint(sections.push_le(words.slice()) as u64);
        }
        IntStorage::Exceptions {
            fill,
            len,
            marks,
            ranks,
            values,
        } => {
            w.put_u8(ENC_EXCEPTIONS);
            w.put_varint(*len as u64);
            put(w, *fill);
            w.put_varint(ranks.len() as u64);
            for &rank in ranks {
                w.put_varint(rank.into());
            }
            w.put_varint(marks.len() as u64);
            w.put_varint(sections.push_le(marks.slice()) as u64);
            encode_int_storage(w, sections, values, put);
        }
    }
}

/// Write a double column's raw-values descriptor (encoding byte 0) and
/// spill the values into an aligned section.
fn encode_raw_doubles(w: &mut WireWriter, sections: &mut Sections, values: &[f64]) {
    w.put_u8(ENC_PLAIN);
    w.put_varint(values.len() as u64);
    w.put_varint(sections.push_le(values) as u64);
}

/// The integers a column's zone extremes are written as. A part's
/// smallest image is zigzagged in `Int` and a plain varint in the other
/// two, whose images are never negative.
#[derive(Clone, Copy)]
enum Domain {
    /// Int and Date values, themselves.
    Int,
    /// Dictionary codes of a dictionary of this many entries (an all-null
    /// column with none sits on code 0).
    Codes(usize),
    /// Sign-magnitude codes of integral doubles, magnitude ≤ 2^53.
    Integral,
}

impl Domain {
    /// The largest image the domain holds; the smallest a file can write
    /// is the domain's own (`i64::MIN`, or 0 for a plain varint).
    fn top(self) -> i128 {
        match self {
            Domain::Int => i64::MAX.into(),
            Domain::Codes(entries) => (entries.max(1) - 1).min(u32::MAX as usize) as i128,
            Domain::Integral => (1 << 54) + 1,
        }
    }
}

/// Write a zone map of raw doubles: per block `(min, max)` as LE `f64`s.
fn encode_raw_zones(w: &mut WireWriter, zones: &ZoneMap<f64>) {
    w.put_varint(zones.len() as u64);
    for (&min, &max) in zones.mins().iter().zip(zones.maxs()) {
        w.put_f64(min);
        w.put_f64(max);
    }
}

/// A zone map's extremes in their column's integer domain, interleaved
/// `min, max` block by block; `None` when `image` has none for one of them.
fn zone_images<T: Copy>(zones: &ZoneMap<T>, image: impl Fn(T) -> Option<i64>) -> Option<Vec<i64>> {
    zones
        .mins()
        .iter()
        .zip(zones.maxs())
        .flat_map(|(&min, &max)| [image(min), image(max)])
        .collect()
}

/// Write interleaved zone `images` of `domain`: the block count, then —
/// unless there are none — the smallest image `m`, the gcd `g` of every
/// `image − m` (0 when all are equal) and each extreme as `(image − m) / g`.
/// The differences wrap in `u64`, so a column spanning
/// `i64::MIN..=i64::MAX` needs no wider type.
fn encode_zone_images(w: &mut WireWriter, images: &[i64], domain: Domain) {
    w.put_varint((images.len() / 2) as u64);
    let Some(&m) = images.iter().min() else {
        return;
    };
    let offset = |v: i64| (v as u64).wrapping_sub(m as u64);
    let g = images.iter().fold(0, |g, &v| gcd(g, offset(v)));
    match domain {
        Domain::Int => w.put_i64(m),
        Domain::Codes(_) | Domain::Integral => w.put_varint(m as u64),
    }
    w.put_varint(g);
    for &v in images {
        w.put_varint(offset(v).checked_div(g).unwrap_or(0));
    }
}

/// Write a nullable column's present extremes, the minimum then the
/// maximum, each by `put` — or nothing when no row is present, which the
/// reader knows from the null runs.
fn encode_extremes<T: Copy>(
    w: &mut WireWriter,
    extremes: Option<(T, T)>,
    put: impl Fn(&mut WireWriter, T),
) {
    if let Some((min, max)) = extremes {
        put(w, min);
        put(w, max);
    }
}

/// The column a file stores for `dc` — its dictionary cut down to the
/// entries its rows reference, the codes renumbered to match
/// ([`renumber`]) and re-encoded, the zones rebuilt — or `None` when `dc`
/// already has that shape and is written as it stands.
fn pruned(dc: &DictColumn) -> Option<DictColumn> {
    let mut codes = dc.codes().decode_range(0, dc.len());
    let dict = renumber(&mut codes, dc.nulls(), dc.dictionary())?;
    Some(DictColumn::new(codes, Arc::new(dict), dc.nulls().clone()))
}

/// Lay a header blob and its payload sections out as a file image.
fn assemble(hdr: &[u8], sections: Sections) -> Vec<u8> {
    assert!(hdr.len() <= u32::MAX as usize, "hvc header exceeds u32");
    let payload_base = align_up(PREAMBLE + hdr.len());
    let mut out = Vec::with_capacity(payload_base + sections.rel + sections.dictionaries.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(hdr.len() as u32).to_le_bytes());
    out.extend_from_slice(hdr);
    out.resize(payload_base, 0);
    for (rel, bytes) in sections.parts {
        out.resize(payload_base + rel, 0);
        out.extend_from_slice(&bytes);
    }
    out.extend_from_slice(&sections.dictionaries);
    out
}

/// Encode a table as a complete HVC file image.
pub fn encode(table: &Table) -> Vec<u8> {
    let mut h = WireWriter::new();
    let mut sections = Sections::default();
    let runs: Vec<_> = (0..table.num_columns())
        .map(|c| null_runs(table.column(c), table.num_rows()))
        .collect();
    let mut written_runs = HashMap::new();
    h.put_varint(table.num_columns() as u64);
    h.put_varint(table.num_rows() as u64);
    for (c, runs) in runs.iter().enumerate() {
        let desc = table.schema().desc(c);
        h.put_str(&desc.name);
        h.put_u8(kind_byte(desc.kind));
        let col = table.column(c);
        encode_null_runs(&mut h, runs, c, &mut written_runs);
        match col {
            Column::Int(ic) | Column::Date(ic) => {
                encode_int_storage(&mut h, &mut sections, ic.storage(), &|w, v| w.put_i64(v));
                let images = zone_images(ic.zones(), Some).expect("every i64 is its own image");
                encode_zone_images(&mut h, &images, Domain::Int);
                if let Some(least) = images.iter().min().filter(|_| col.null_count() > 0) {
                    // Above the least image, as the zone quotients are.
                    let offset = |v: i64| (v as u64).wrapping_sub(*least as u64);
                    encode_extremes(&mut h, ic.extremes(), |w, v| w.put_varint(offset(v)));
                }
            }
            Column::Double(fc) => {
                let integral = match fc.data() {
                    F64Storage::Integral(codes) if codes.kind() != EncodingKind::Plain => {
                        zone_images(fc.zones(), F64Storage::code_of).map(|images| (codes, images))
                    }
                    _ => None,
                };
                let nullable = col.null_count() > 0;
                match (integral, fc.data()) {
                    (Some((codes, images)), _) => {
                        encode_int_storage(&mut h, &mut sections, codes, &|w, v| w.put_i64(v));
                        encode_zone_images(&mut h, &images, Domain::Integral);
                        if nullable {
                            encode_extremes(&mut h, fc.extremes(), |w, v| {
                                let code = F64Storage::code_of(v).expect("an integral column");
                                w.put_varint(code as u64)
                            });
                        }
                    }
                    // Byte 0 means raw doubles and raw extremes, so codes
                    // that happen to be stored plain — or whose zones hold
                    // a value no code stands for — are written as the
                    // values they stand for.
                    (None, data) => {
                        match data {
                            F64Storage::Plain(values) => {
                                encode_raw_doubles(&mut h, &mut sections, values.slice())
                            }
                            codes => encode_raw_doubles(&mut h, &mut sections, &codes.to_vec()),
                        }
                        encode_raw_zones(&mut h, fc.zones());
                        if nullable {
                            encode_extremes(&mut h, fc.extremes(), |w, v| w.put_f64(v));
                        }
                    }
                }
            }
            Column::Str(dc) | Column::Cat(dc) => {
                let pruned = pruned(dc);
                let dc = pruned.as_ref().unwrap_or(dc);
                let entries = dc.dictionary().front_coded();
                h.put_varint(dc.dictionary().len() as u64);
                h.put_varint(entries.len() as u64);
                h.put_varint(sections.dictionaries.len() as u64);
                sections.dictionaries.extend_from_slice(entries);
                encode_int_storage(&mut h, &mut sections, dc.codes(), &|w, code| {
                    w.put_varint(code as u64)
                });
                let images = zone_images(dc.zones(), |code| Some(code.into())).expect("codes fit");
                let domain = Domain::Codes(dc.dictionary().len());
                encode_zone_images(&mut h, &images, domain);
            }
        }
    }
    h.put_varint(sections.rel as u64);
    assemble(&h.finish(), sections)
}

// ---------------------------------------------------------------------------
// Header parsing (shared by heap, mapped, and probe paths)
//
// Inline item counts only ever reserve `count.min(r.remaining())`: each
// item takes at least one header byte, so the bytes left bound what a
// declared count may allocate.
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
        step: u64,
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
    Exceptions {
        fill: T,
        ranks: Vec<u32>,
        nwords: usize,
        rel: usize,
        /// The exceptions' own descriptor, over `count` values.
        count: usize,
        values: Box<IntMeta<T>>,
    },
}

/// A column's null runs as the header writes them.
enum NullRuns {
    /// Alternating run lengths, present first.
    Written(Vec<u64>),
    /// The same runs as the earlier column of this index.
    Repeated(usize),
}

/// Read a column's null runs, holding them to `rows` and to their one
/// spelling: a run count of 0 introduces a reference, and only the first
/// run may be empty (the column starts missing, or has no rows).
fn decode_null_runs(r: &mut WireReader, rows: usize, column: &str) -> Result<NullRuns> {
    let n = r.get_len("null runs").map_err(wire_err)?;
    if n == 0 {
        let k = r.get_varint().map_err(wire_err)?;
        return Ok(NullRuns::Repeated(usize::try_from(k).unwrap_or(usize::MAX)));
    }
    let mut runs = Vec::with_capacity(n.min(r.remaining()));
    let mut idx = 0usize;
    for i in 0..n {
        let run = r.get_varint().map_err(wire_err)?;
        if run == 0 && i > 0 {
            return Err(parse_err(format!("column {column:?}: empty null run {i}")));
        }
        // Saturating: a run past `rows` is a mismatch whatever its size.
        let end = idx.saturating_add(usize::try_from(run).unwrap_or(usize::MAX));
        if end > rows {
            return Err(row_count_mismatch(column, rows, end));
        }
        runs.push(run);
        idx = end;
    }
    if idx != rows {
        return Err(row_count_mismatch(column, rows, idx));
    }
    Ok(NullRuns::Written(runs))
}

/// The mask validated `runs` spell over `rows` rows.
fn null_mask(runs: &[u64], rows: usize) -> NullMask {
    let mut mask = NullMask::none();
    let mut idx = 0usize;
    for (i, &run) in runs.iter().enumerate() {
        let end = idx + run as usize;
        if i % 2 == 1 {
            mask.set_null_range(idx, end, rows);
        }
        idx = end;
    }
    mask
}

fn decode_int_meta<T: Pod>(
    r: &mut WireReader,
    layout: &mut Layout,
    rows: usize,
    column: &str,
    get: impl Fn(&mut WireReader) -> std::result::Result<T, hillview_net::Error>,
) -> Result<IntMeta<T>> {
    let enc = r.get_u8().map_err(wire_err)?;
    let declared = r.get_len("values").map_err(wire_err)?;
    if declared != rows {
        return Err(row_count_mismatch(column, rows, declared));
    }
    decode_int_body(r, layout, enc, rows, column, &get)
}

/// The fields of an integer-storage descriptor of encoding `enc` over
/// `rows` values.
fn decode_int_body<T: Pod>(
    r: &mut WireReader,
    layout: &mut Layout,
    enc: u8,
    rows: usize,
    column: &str,
    get: &impl Fn(&mut WireReader) -> std::result::Result<T, hillview_net::Error>,
) -> Result<IntMeta<T>> {
    match enc {
        ENC_PLAIN => Ok(IntMeta::Plain {
            rel: layout.section(r, rows, T::BYTES, column)?,
        }),
        ENC_BIT_PACKED => {
            let base = get(r).map_err(wire_err)?;
            let width = r.get_u8().map_err(wire_err)?;
            let (width, step) = if width & STRIDED == 0 {
                (width, 1)
            } else {
                match r.get_varint().map_err(wire_err)? {
                    step @ (0 | 1) => {
                        return Err(parse_err(format!(
                            "column {column:?}: non-canonical bit-packed step {step}"
                        )))
                    }
                    step => (width & !STRIDED, step),
                }
            };
            let nwords = r.get_len("packed words").map_err(wire_err)?;
            let rel = layout.section(r, nwords, u64::BYTES, column)?;
            Ok(IntMeta::BitPacked {
                base,
                width,
                step,
                nwords,
                rel,
            })
        }
        ENC_RUN_LENGTH => {
            let nruns = r.get_len("runs").map_err(wire_err)?;
            let mut values = Vec::with_capacity(nruns.min(r.remaining()));
            let mut ends = Vec::with_capacity(nruns.min(r.remaining()));
            let mut at = 0u64;
            for _ in 0..nruns {
                values.push(get(r).map_err(wire_err)?);
                let run = r.get_varint().map_err(wire_err)?;
                if run == 0 {
                    return Err(parse_err(format!("column {column:?}: zero-length run")));
                }
                at = at.saturating_add(run);
                if at > u32::MAX as u64 {
                    return Err(parse_err(format!(
                        "column {column:?}: run-length section overflows row index"
                    )));
                }
                ends.push(at as u32);
            }
            if at as usize != rows {
                return Err(row_count_mismatch(column, rows, at as usize));
            }
            Ok(IntMeta::RunLength { values, ends })
        }
        ENC_DELTA => {
            let nanchors = r.get_len("delta anchors").map_err(wire_err)?;
            let mut anchors = Vec::with_capacity(nanchors.min(r.remaining()));
            for _ in 0..nanchors {
                anchors.push(get(r).map_err(wire_err)?);
            }
            let width = r.get_u8().map_err(wire_err)?;
            let nwords = r.get_len("delta words").map_err(wire_err)?;
            let rel = layout.section(r, nwords, u64::BYTES, column)?;
            Ok(IntMeta::Delta {
                anchors,
                width,
                nwords,
                rel,
            })
        }
        ENC_EXCEPTIONS => {
            let fault = |what: String| parse_err(format!("column {column:?}: {what}"));
            let fill = get(r).map_err(wire_err)?;
            let nranks = r.get_len("exception ranks").map_err(wire_err)?;
            let mut ranks = Vec::with_capacity(nranks.min(r.remaining()));
            for _ in 0..nranks {
                let rank = r.get_varint().map_err(wire_err)?;
                let rank = u32::try_from(rank)
                    .map_err(|_| fault(format!("exception rank {rank} overflows")))?;
                ranks.push(rank);
            }
            let nwords = r.get_len("exception marks").map_err(wire_err)?;
            let rel = layout.section(r, nwords, u64::BYTES, column)?;
            let enc = r.get_u8().map_err(wire_err)?;
            if enc == ENC_EXCEPTIONS {
                return Err(fault("nested exceptions descriptor".into()));
            }
            let count = r.get_len("exceptions").map_err(wire_err)?;
            if count > rows {
                return Err(fault(format!("{count} exceptions in {rows} rows")));
            }
            if ranks.windows(2).any(|w| w[0] > w[1]) {
                return Err(fault("exception ranks decrease".into()));
            }
            if let Some(&last) = ranks.last().filter(|&&last| last as usize > count) {
                return Err(fault(format!(
                    "exception rank {last} exceeds {count} exceptions"
                )));
            }
            let values = decode_int_body(r, layout, enc, count, column, get)?;
            Ok(IntMeta::Exceptions {
                fill,
                ranks,
                nwords,
                rel,
                count,
                values: Box::new(values),
            })
        }
        b => Err(parse_err(format!(
            "column {column:?}: unknown encoding byte {b}"
        ))),
    }
}

/// The number of zone blocks a column of `rows` rows must declare.
fn zone_blocks(r: &mut WireReader, rows: usize, column: &str) -> Result<usize> {
    let n = r.get_len("zone blocks").map_err(wire_err)?;
    if n != rows.div_ceil(BLOCK_ROWS) {
        return Err(parse_err(format!(
            "column {column:?}: zone map covers {n} blocks for {rows} rows"
        )));
    }
    Ok(n)
}

/// A raw double column's zone map: per block `(min, max)` as LE `f64`s,
/// taken as written (an all-NaN block holds `(+∞, −∞)`).
fn decode_raw_zones(r: &mut WireReader, rows: usize, column: &str) -> Result<ZoneMap<f64>> {
    let n = zone_blocks(r, rows, column)?;
    let mut mins = Vec::with_capacity(n.min(r.remaining()));
    let mut maxs = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        mins.push(r.get_f64().map_err(wire_err)?);
        maxs.push(r.get_f64().map_err(wire_err)?);
    }
    Ok(ZoneMap::from_parts(mins, maxs).expect("as many maxima as minima"))
}

/// An integer-domain zone map ([`encode_zone_images`]): every image
/// `m + g · q` recomputed exactly and refused outside `domain`, mapped to
/// its value by `value`, and every block's minimum held to its maximum.
fn decode_zone_images<T: Copy + PartialOrd + std::fmt::Debug>(
    r: &mut WireReader,
    rows: usize,
    column: &str,
    domain: Domain,
    value: impl Fn(i64) -> T,
) -> Result<ZoneMap<T>> {
    let n = zone_blocks(r, rows, column)?;
    // An empty column writes neither `m` nor `g`.
    let (m, g) = if n == 0 {
        (0, 0)
    } else {
        let m = match domain {
            Domain::Int => i128::from(r.get_i64().map_err(wire_err)?),
            Domain::Codes(_) | Domain::Integral => i128::from(r.get_varint().map_err(wire_err)?),
        };
        (m, r.get_varint().map_err(wire_err)?)
    };
    let out_of_domain = |q: u64| {
        parse_err(match domain {
            Domain::Codes(entries) => format!(
                "column {column:?}: zone code {m} + {g} · {q} out of dictionary range {entries}"
            ),
            _ => format!("column {column:?}: zone extreme {m} + {g} · {q} out of its domain"),
        })
    };
    // No image is below `m`, so one bound on the quotients keeps every
    // `m + g·q` in the domain — and exact in `i64`.
    let q_top = match u64::try_from(domain.top() - m) {
        Ok(room) => room.checked_div(g).unwrap_or(u64::MAX),
        Err(_) => return Err(out_of_domain(0)),
    };
    let image = |q: u64| value((m as i64).wrapping_add(g.wrapping_mul(q) as i64));
    let mut mins = Vec::with_capacity(n.min(r.remaining()));
    let mut maxs = Vec::with_capacity(n.min(r.remaining()));
    for b in 0..n {
        let q_min = r.get_varint().map_err(wire_err)?;
        let q_max = r.get_varint().map_err(wire_err)?;
        if q_min.max(q_max) > q_top {
            return Err(out_of_domain(q_min.max(q_max)));
        }
        let (min, max) = (image(q_min), image(q_max));
        if min > max {
            return Err(parse_err(format!(
                "column {column:?}: zone block {b} has min {min:?} above max {max:?}"
            )));
        }
        mins.push(min);
        maxs.push(max);
    }
    Ok(ZoneMap::from_parts(mins, maxs).expect("as many maxima as minima"))
}

/// A numeric column's present extremes: a nullable column's read as
/// [`encode_extremes`] wrote them, each by `get` — none when no row is
/// present — and a null-free column's folded from `zones`, which then fold
/// nothing else. Refused: a minimum above the maximum, or either outside
/// the span of the zones, which fold every row.
fn decode_extremes<T: Extreme + PartialOrd + std::fmt::Debug>(
    r: &mut WireReader,
    nulls: &NullMask,
    rows: usize,
    zones: &ZoneMap<T>,
    column: &str,
    get: impl Fn(&mut WireReader, (T, T)) -> Result<T>,
) -> Result<Option<(T, T)>> {
    let missing = nulls.null_count();
    let span = zones.span();
    let Some(span) = span.filter(|_| missing > 0 && missing < rows) else {
        return Ok(span.filter(|_| missing == 0));
    };
    let (min, max) = (get(r, span)?, get(r, span)?);
    if !(span.0 <= min && min <= max && max <= span.1) {
        return Err(parse_err(format!(
            "column {column:?}: present rows span {min:?}..={max:?}, not inside its zones' {:?}..={:?}",
            span.0, span.1
        )));
    }
    Ok(Some((min, max)))
}

/// The payload sections a header declares, as absolute byte ranges, held to
/// one meaning each: in header order, a section that is not empty starts at
/// or after the end of the one before. Empty sections are exempt — the
/// writer places them all at its next offset.
struct Layout {
    payload_base: usize,
    sections: Vec<Range<usize>>,
}

impl Layout {
    /// Read the offset of a section of `count` lanes of `lane` bytes and
    /// declare the section.
    fn section(
        &mut self,
        r: &mut WireReader,
        count: usize,
        lane: usize,
        column: &str,
    ) -> Result<usize> {
        let rel = r.get_len("section offset").map_err(wire_err)?;
        let overflows = || parse_err(format!("column {column:?}: section at {rel} overflows"));
        let start = self.payload_base.checked_add(rel).ok_or_else(overflows)?;
        let end = (count.checked_mul(lane))
            .and_then(|bytes| start.checked_add(bytes))
            .ok_or_else(overflows)?;
        match self.sections.last() {
            _ if start == end => {}
            Some(last) if start < last.end => {
                return Err(parse_err(format!(
                    "column {column:?}: payload section {start}..{end} starts before the previous one ends ({})",
                    last.end
                )))
            }
            _ => self.sections.push(start..end),
        }
        Ok(rel)
    }
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
        extremes: Option<(i64, i64)>,
    },
    Double {
        /// `Plain` locates a raw f64 section; the packed variants describe
        /// the column's sign-magnitude codes.
        storage: IntMeta<i64>,
        zones: ZoneMap<f64>,
        extremes: Option<(f64, f64)>,
    },
    Dict {
        dict: DictMeta,
        codes: IntMeta<u32>,
        zones: ZoneMap<u32>,
    },
}

/// Where a column's dictionary section is and how many entries it holds.
struct DictMeta {
    entries: usize,
    bytes: usize,
    /// Offset within the dictionary area.
    rel: usize,
}

struct Header {
    rows: usize,
    columns: Vec<ColMeta>,
    /// Header bytes spent on null runs, on zone maps and on present
    /// extremes, every column's.
    null_run_bytes: usize,
    zone_bytes: usize,
    extreme_bytes: usize,
    /// Absolute byte offset of the first payload section.
    payload_base: usize,
    /// Every non-empty payload section, in file order.
    sections: Vec<Range<usize>>,
    /// Offset of the dictionary area from `payload_base`.
    dict_base: usize,
}

/// Read one dictionary code, rejecting an oversized varint instead of
/// silently wrapping it into a (possibly valid) smaller code.
fn get_code(r: &mut WireReader) -> std::result::Result<u32, hillview_net::Error> {
    let v = r.get_varint()?;
    u32::try_from(v).map_err(|_| hillview_net::Error::BadLength {
        context: "dictionary code",
        len: v,
    })
}

/// Read a byte length or offset the file's own length will be held against.
fn get_extent(r: &mut WireReader) -> Result<usize> {
    let v = r.get_varint().map_err(wire_err)?;
    usize::try_from(v).map_err(|_| parse_err(format!("extent {v} overflows")))
}

/// Parse a dictionary section of `entries` front-coded entries: the one
/// validation pass ([`Dictionary::from_front_coded`]) checks every header,
/// suffix and prefix and that the entries strictly ascend — which settles
/// that they are distinct — and rebuilds the bucket offsets on the way; the
/// section's bytes become the dictionary's arena as they are.
fn decode_dictionary(section: Vec<u8>, entries: usize, column: &str) -> Result<Dictionary> {
    Dictionary::from_front_coded(section, entries)
        .map_err(|e| parse_err(format!("column {column:?}: dictionary section: {e}")))
}

/// Parse a header blob (the bytes after magic + length word).
fn parse_header(hdr: Bytes, payload_base: usize) -> Result<Header> {
    let hdr_len = hdr.len();
    let mut r = WireReader::new(hdr);
    let cols = r.get_len("columns").map_err(wire_err)?;
    let rows = r.get_len("rows").map_err(wire_err)?;
    // Every column persists a zone map of at least two bytes per 64-row
    // block, so the header's own length bounds the rows it can describe —
    // and with them every null mask and row loop below.
    if cols > 0 && rows.div_ceil(BLOCK_ROWS) > hdr_len / 2 {
        return Err(parse_err(format!(
            "{rows} rows exceed what a {hdr_len}-byte header can describe"
        )));
    }
    let mut columns: Vec<ColMeta> = Vec::with_capacity(cols.min(r.remaining()));
    // Every run list written in full so far, with its column: a repeat
    // must have been written as a reference to that column.
    let mut written: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut wrote_runs = Vec::with_capacity(cols.min(r.remaining()));
    let (mut null_run_bytes, mut zone_bytes, mut extreme_bytes) = (0, 0, 0);
    let mut layout = Layout {
        payload_base,
        sections: Vec::new(),
    };
    for c in 0..cols {
        let name = r.get_str().map_err(wire_err)?;
        let kind = byte_kind(r.get_u8().map_err(wire_err)?)?;
        let before_nulls = r.remaining();
        let nulls = match decode_null_runs(&mut r, rows, &name)? {
            NullRuns::Written(runs) => {
                if let Some(k) = written.get(&runs) {
                    return Err(parse_err(format!(
                        "column {name:?}: null runs repeat column {k}'s in full"
                    )));
                }
                let mask = null_mask(&runs, rows);
                written.insert(runs, c);
                wrote_runs.push(true);
                mask
            }
            NullRuns::Repeated(k) if wrote_runs.get(k) == Some(&true) => {
                wrote_runs.push(false);
                columns[k].nulls.clone()
            }
            NullRuns::Repeated(k) if k >= c => {
                return Err(parse_err(format!(
                    "column {name:?}: null runs refer to column {k}, not an earlier one"
                )))
            }
            NullRuns::Repeated(k) => {
                return Err(parse_err(format!(
                    "column {name:?}: null runs refer to column {k}, itself a reference"
                )))
            }
        };
        null_run_bytes += before_nulls - r.remaining();
        // Where the zone map and the extremes start, counted from the end.
        let (zones_at, extremes_at);
        let payload = match kind {
            ColumnKind::Int | ColumnKind::Date => {
                let storage = decode_int_meta(&mut r, &mut layout, rows, &name, |r| r.get_i64())?;
                zones_at = r.remaining();
                let zones = decode_zone_images(&mut r, rows, &name, Domain::Int, |v| v)?;
                extremes_at = r.remaining();
                let extremes = decode_extremes(&mut r, &nulls, rows, &zones, &name, |r, span| {
                    // Above the least image: no wider than the zones' span.
                    let q = r.get_varint().map_err(wire_err)?;
                    let room = span.1.abs_diff(span.0);
                    let fault =
                        || parse_err(format!("column {name:?}: extreme {q} past its zones"));
                    (q <= room)
                        .then(|| span.0.wrapping_add(q as i64))
                        .ok_or_else(fault)
                })?;
                PayloadMeta::Int {
                    storage,
                    zones,
                    extremes,
                }
            }
            ColumnKind::Double => {
                // Plain here is raw `f64`s, as wide as the `i64` lanes.
                let storage = decode_int_meta(&mut r, &mut layout, rows, &name, |r| r.get_i64())?;
                zones_at = r.remaining();
                // Byte 0, raw doubles, keeps raw extremes too.
                let (zones, extremes) = if let IntMeta::Plain { .. } = storage {
                    let zones = decode_raw_zones(&mut r, rows, &name)?;
                    extremes_at = r.remaining();
                    let get = |r: &mut WireReader, _| r.get_f64().map_err(wire_err);
                    let extremes = decode_extremes(&mut r, &nulls, rows, &zones, &name, get)?;
                    (zones, extremes)
                } else {
                    let value = F64Storage::value_of;
                    let zones = decode_zone_images(&mut r, rows, &name, Domain::Integral, value)?;
                    extremes_at = r.remaining();
                    let extremes = decode_extremes(&mut r, &nulls, rows, &zones, &name, |r, _| {
                        let code = r.get_varint().map_err(wire_err)?;
                        let fault = || parse_err(format!("column {name:?}: extreme code {code}"));
                        let code = i64::try_from(code).map_err(|_| fault())?;
                        (i128::from(code) <= Domain::Integral.top())
                            .then(|| value(code))
                            .ok_or_else(fault)
                    })?;
                    (zones, extremes)
                };
                PayloadMeta::Double {
                    storage,
                    zones,
                    extremes,
                }
            }
            ColumnKind::String | ColumnKind::Category => {
                let dict = DictMeta {
                    entries: r.get_len("dict").map_err(wire_err)?,
                    bytes: get_extent(&mut r)?,
                    rel: get_extent(&mut r)?,
                };
                let codes = decode_int_meta(&mut r, &mut layout, rows, &name, get_code)?;
                zones_at = r.remaining();
                let domain = Domain::Codes(dict.entries);
                let zones = decode_zone_images(&mut r, rows, &name, domain, |v| v as u32)?;
                extremes_at = r.remaining();
                PayloadMeta::Dict { dict, codes, zones }
            }
        };
        zone_bytes += zones_at - extremes_at;
        extreme_bytes += extremes_at - r.remaining();
        columns.push(ColMeta {
            name,
            kind,
            nulls,
            payload,
        });
    }
    let dict_base = get_extent(&mut r)?;
    Ok(Header {
        rows,
        columns,
        null_run_bytes,
        zone_bytes,
        extreme_bytes,
        payload_base,
        sections: layout.sections,
        dict_base,
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
    /// The section of `len` lanes at `rel` into the payload at `base`: one
    /// the header parse declared, so its bounds do not overflow.
    fn buf<T: Pod>(
        &self,
        base: usize,
        rel: usize,
        len: usize,
        column: &str,
    ) -> Result<ValueBuf<T>> {
        let off = base + rel;
        match self {
            Source::Owned(bytes) => {
                let end = off + len * T::BYTES;
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

    /// The dictionary `meta` locates in the dictionary area at `area`:
    /// parsed here and now from bytes already in memory, handed out deferred
    /// over a lazily resident segment.
    fn dictionary(&self, area: usize, meta: &DictMeta, column: &str) -> Result<Dictionary> {
        let file_len = match self {
            Source::Owned(image) => image.len(),
            Source::Mapped(seg) => seg.len(),
        };
        let DictMeta {
            entries,
            bytes,
            rel,
        } = *meta;
        let off = area.checked_add(rel);
        let Some(off) = off.filter(|off| off.checked_add(bytes).is_some_and(|e| e <= file_len))
        else {
            return Err(parse_err(format!(
                "column {column:?}: dictionary section of {bytes} bytes at {area}+{rel} exceeds file length {file_len}"
            )));
        };
        match self {
            Source::Owned(image) => {
                decode_dictionary(image[off..off + bytes].to_vec(), entries, column)
            }
            Source::Mapped(seg) if seg.is_heap() => {
                decode_dictionary(seg.read_uncached(off, bytes)?, entries, column)
            }
            Source::Mapped(seg) => {
                let (seg, column) = (Arc::clone(seg), column.to_string());
                Ok(Dictionary::deferred(entries, move || {
                    seg.read_uncached(off, bytes)
                        .map_err(Error::from)
                        .and_then(|section| decode_dictionary(section, entries, &column))
                        .unwrap_or_else(|e| {
                            let path = seg.path();
                            panic!("first touch of column {column:?}'s dictionary in {path:?}: {e}")
                        })
                }))
            }
        }
    }
}

/// Build the storage `meta` describes over `rows` values. `deep_validate`
/// also checks every exception mark against its ranks, reading them all
/// (heap path).
fn build_int_storage<T: Pod + PackedInt>(
    meta: IntMeta<T>,
    rows: usize,
    src: &Source<'_>,
    base: usize,
    column: &str,
    deep_validate: bool,
) -> Result<IntStorage<T>> {
    match meta {
        IntMeta::Plain { rel } => Ok(IntStorage::Plain(src.buf::<T>(base, rel, rows, column)?)),
        IntMeta::BitPacked {
            base: frame,
            width,
            step,
            nwords,
            rel,
        } => {
            let words = src.buf::<u64>(base, rel, nwords, column)?;
            IntStorage::from_bit_packed_buf(frame, step, width, rows, words).ok_or_else(|| {
                parse_err(format!(
                    "column {column:?}: inconsistent bit-packed section (width {width}, step {step}, {nwords} words for {rows} rows)"
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
        IntMeta::Exceptions {
            fill,
            ranks,
            nwords,
            rel,
            count,
            values,
        } => {
            let nranks = ranks.len();
            let marks = src.buf::<u64>(base, rel, nwords, column)?;
            let values = build_int_storage(*values, count, src, base, column, deep_validate)?;
            let storage = IntStorage::from_exceptions_buf(fill, rows, marks, ranks, values)
                .ok_or_else(|| {
                    parse_err(format!(
                        "column {column:?}: inconsistent exceptions section ({nranks} ranks, {nwords} mark words, {count} exceptions for {rows} rows)"
                    ))
                })?;
            if deep_validate && !storage.marks_match_ranks() {
                return Err(parse_err(format!(
                    "column {column:?}: exception marks contradict their ranks"
                )));
            }
            Ok(storage)
        }
    }
}

/// Verify every decoded dictionary code stays inside the dictionary — the
/// heap path's full check; it reads the whole code payload.
fn validate_codes(codes: &IntStorage<u32>, dict_len: usize, column: &str) -> Result<()> {
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

/// The heap path's zone check: the persisted map must be the one the
/// decoded payload folds to, or a range predicate would skip a block that
/// holds matching rows.
fn check_zones<T: Copy + PartialEq + std::fmt::Debug>(
    persisted: &ZoneMap<T>,
    rebuilt: &ZoneMap<T>,
    column: &str,
) -> Result<()> {
    match (0..persisted.len()).find(|&b| persisted.block(b) != rebuilt.block(b)) {
        None => Ok(()),
        Some(b) => Err(parse_err(format!(
            "column {column:?}: zone block {b} says {:?} but its rows span {:?}",
            persisted.block(b),
            rebuilt.block(b)
        ))),
    }
}

/// The heap path's check of a column's present extremes, bit for bit: the
/// persisted ones must be the ones its payload and null runs give.
fn check_extremes<T: Copy + std::fmt::Debug>(
    persisted: Option<(T, T)>,
    rebuilt: Option<(T, T)>,
    bits: impl Fn(T) -> u64,
    column: &str,
) -> Result<()> {
    let spell = |e: Option<(T, T)>| e.map(|(min, max)| (bits(min), bits(max)));
    if spell(persisted) == spell(rebuilt) {
        return Ok(());
    }
    Err(parse_err(format!(
        "column {column:?}: statistics say its present rows span {persisted:?} but they span {rebuilt:?}"
    )))
}

/// Assemble a [`Table`] from a parsed header and a payload source.
/// `deep_validate` (heap path) checks every dictionary code and rebuilds
/// every zone map and every column's present extremes from the payload;
/// the mapped path settles only what the header can — codes bounded by the
/// zone maxima, which the parse already held to the dictionary — and never
/// touches payload bytes.
fn build_table(header: Header, src: &Source<'_>, deep_validate: bool) -> Result<Table> {
    let base = header.payload_base;
    // Saturated, a base that overflows puts every dictionary past the end.
    let dictionaries = base.saturating_add(header.dict_base);
    let rows = header.rows;
    let mut builder = Table::builder();
    // A zone map that contradicts its payload is reported only after every
    // column's other faults: those are the ones a mapped scan can meet.
    let mut zones_hold = Ok(());
    for cm in header.columns {
        let column = match cm.payload {
            PayloadMeta::Int {
                storage,
                zones,
                extremes,
            } => {
                let st = build_int_storage(storage, rows, src, base, &cm.name, deep_validate)?;
                let ic = if deep_validate {
                    let ic = I64Column::with_storage(st, cm.nulls);
                    if zones_hold.is_ok() {
                        zones_hold = check_zones(&zones, ic.zones(), &cm.name).and_then(|()| {
                            check_extremes(extremes, ic.extremes(), |v| v as u64, &cm.name)
                        });
                    }
                    ic
                } else {
                    I64Column::from_persisted(st, cm.nulls, zones, extremes)
                };
                if cm.kind == ColumnKind::Int {
                    Column::Int(ic)
                } else {
                    Column::Date(ic)
                }
            }
            PayloadMeta::Double {
                storage,
                zones,
                extremes,
            } => {
                let data = match storage {
                    IntMeta::Plain { rel } => {
                        F64Storage::Plain(src.buf::<f64>(base, rel, rows, &cm.name)?)
                    }
                    codes => F64Storage::Integral(build_int_storage(
                        codes,
                        rows,
                        src,
                        base,
                        &cm.name,
                        deep_validate,
                    )?),
                };
                let fc = if deep_validate {
                    let rebuilt = match &data {
                        F64Storage::Plain(values) => ZoneMap::from_f64(values.slice()),
                        codes => ZoneMap::from_f64(&codes.to_vec()),
                    };
                    let fc = F64Column::from_parts(data, cm.nulls, rebuilt);
                    if zones_hold.is_ok() {
                        zones_hold = check_zones(&zones, fc.zones(), &cm.name).and_then(|()| {
                            check_extremes(extremes, fc.extremes(), f64::to_bits, &cm.name)
                        });
                    }
                    fc
                } else {
                    F64Column::from_persisted(data, cm.nulls, zones, extremes)
                };
                Column::Double(fc)
            }
            PayloadMeta::Dict { dict, codes, zones } => {
                let st = build_int_storage(codes, rows, src, base, &cm.name, deep_validate)?;
                let dict = Arc::new(src.dictionary(dictionaries, &dict, &cm.name)?);
                if dict.is_empty() {
                    // Only an all-null column can do without entries: a
                    // present row would dereference one.
                    let present = rows - cm.nulls.null_count();
                    if present > 0 {
                        return Err(parse_err(format!(
                            "column {:?}: empty dictionary but {present} non-null rows",
                            cm.name
                        )));
                    }
                } else if deep_validate {
                    validate_codes(&st, dict.len(), &cm.name)?;
                }
                if deep_validate && zones_hold.is_ok() {
                    zones_hold = check_zones(&zones, &ZoneMap::build(&st), &cm.name);
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
    zones_hold?;
    Ok(builder.build()?)
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Check an image's preamble — magic, then the header blob's length as a
/// `u32` LE — against the image's total length, so nothing downstream
/// allocates or slices by an unchecked length. Returns the header length.
fn check_preamble(preamble: &[u8], image_len: u64) -> Result<usize> {
    if !preamble.starts_with(MAGIC) {
        return Err(parse_err("bad magic"));
    }
    let word = preamble
        .get(MAGIC.len()..PREAMBLE)
        .ok_or_else(|| parse_err("file too short for header length"))?;
    let header_len = u32::from_le_bytes(word.try_into().expect("4 bytes"));
    if PREAMBLE as u64 + u64::from(header_len) > image_len {
        return Err(parse_err("header exceeds file length"));
    }
    Ok(header_len as usize)
}

/// Decode a complete HVC file image into fully heap-resident columns.
pub fn decode(bytes: &[u8]) -> Result<Table> {
    let header_len = check_preamble(bytes, bytes.len() as u64)?;
    let hdr = Bytes::copy_from_slice(&bytes[PREAMBLE..PREAMBLE + header_len]);
    let header = parse_header(hdr, align_up(PREAMBLE + header_len))?;
    build_table(header, &Source::Owned(bytes), true)
}

/// Write a table to a file. The image goes to `<path>.tmp` and is renamed
/// into place, so whoever lists the directory meanwhile finds the file whole
/// or not at all ([`crate::spill::list_parts`] goes by the `hvc` extension).
pub fn write_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let written = std::fs::write(&tmp, encode(table)).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(written?)
}

/// Read a table from a file into fully heap-resident columns. For lazy,
/// file-backed columns use [`read_file_mapped`]; to inspect a file without
/// reading its payload use [`probe_file`].
pub fn read_file(path: impl AsRef<Path>) -> Result<Table> {
    decode(&std::fs::read(path)?)
}

/// Read and parse a file's header — and nothing after it.
fn read_header(path: &Path) -> Result<Header> {
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut preamble = Vec::with_capacity(PREAMBLE);
    Read::by_ref(&mut f)
        .take(PREAMBLE as u64)
        .read_to_end(&mut preamble)?;
    let header_len = check_preamble(&preamble, file_len)?;
    let mut hdr = vec![0u8; header_len];
    f.read_exact(&mut hdr)
        .map_err(|_| parse_err("header exceeds file length"))?;
    parse_header(Bytes::from(hdr), align_up(PREAMBLE + header_len))
}

/// Open a file as lazily-resident, file-backed columns: bulk payloads
/// become zero-copy [`ValueBuf`] windows over a [`Segment`] attached to
/// `cache`, and no payload byte is read until a scan touches it. An open
/// on a big-endian host transparently falls back to the heap-resident
/// [`read_file`] path.
pub fn read_file_mapped(
    path: impl AsRef<Path>,
    cache: &Arc<BlockCache>,
    mode: SegmentMode,
) -> Result<Table> {
    let path = path.as_ref();
    if cfg!(target_endian = "big") {
        return read_file(path);
    }
    let header = read_header(path)?;
    let seg = Segment::open(path, &header.sections, mode, cache)?;
    build_table(header, &Source::Mapped(seg), false)
}

/// What [`probe_file`] learns from a file's header alone.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Number of columns.
    pub columns: usize,
    /// Number of rows.
    pub rows: usize,
    /// Full schema (the header is self-contained).
    pub schema: Schema,
    /// Bytes of the header that hold the columns' null runs.
    pub null_run_bytes: usize,
    /// Bytes of the header that hold the columns' zone maps.
    pub zone_bytes: usize,
    /// Bytes of the header that hold the nullable numeric columns' present
    /// extremes.
    pub extreme_bytes: usize,
}

/// Probe a file's dimensions and schema by reading only its header — never
/// the column payloads: enough to plan over a directory of parts without
/// faulting data in. A loader that goes on to open the file should call
/// [`read_file_mapped`] alone, which parses the same header once.
pub fn probe_file(path: impl AsRef<Path>) -> Result<FileInfo> {
    let header = read_header(path.as_ref())?;
    let descs: Vec<ColumnDesc> = header
        .columns
        .iter()
        .map(|c| ColumnDesc::new(&c.name, c.kind))
        .collect();
    Ok(FileInfo {
        columns: header.columns.len(),
        rows: header.rows,
        schema: Schema::from_descs(descs)?,
        null_run_bytes: header.null_run_bytes,
        zone_bytes: header.zone_bytes,
        extreme_bytes: header.extreme_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::{TempDir, Value};
    use hillview_data::{generate_flights, generate_logs, FlightsConfig, LogsConfig};

    /// Every column kind, every integer encoding, nulls in each family.
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
            // Integral doubles, one per code encoding: bit-packed (with
            // nulls and negative zeros), run-length, delta.
            .column(
                "delay",
                ColumnKind::Double,
                Column::Double(F64Column::from_options((0..n).map(|i| match i % 13 {
                    0 => None,
                    5 => Some(-0.0),
                    _ => Some(((i * 7919) % 300) as f64 - 40.0),
                }))),
            )
            .column(
                "fee",
                ColumnKind::Double,
                Column::Double(F64Column::new(
                    (0..n).map(|i| -((i / 100) as f64)).collect(),
                    NullMask::none(),
                )),
            )
            .column(
                "ticks",
                ColumnKind::Double,
                Column::Double(F64Column::new(
                    (0..n).map(|i| 1e9 + (i * 3) as f64).collect(),
                    NullMask::none(),
                )),
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
            .column(
                "when",
                ColumnKind::Date,
                Column::Date(I64Column::from_options((0..n).map(|i| {
                    if i % 19 == 7 {
                        None
                    } else {
                        Some(1_700_000_000_000 + i as i64 * 250)
                    }
                }))),
            )
            .column(
                "word",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(
                    (0..n).map(|i| Some(["a", "bb", "", "dddd", "e,\"e"][i % 5])),
                )),
            )
            // Mostly zero, some of it missing: exceptions.
            .column(
                "sparse",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..n).map(|i| match i % 10 {
                    _ if i % 23 == 9 => None,
                    3 => Some((i as i64 * 7919) % 200 + 1),
                    _ => Some(0),
                }))),
            )
            // Day-granular dates, shuffled: bit-packed at a stride of a day.
            .column(
                "day",
                ColumnKind::Date,
                Column::Date(I64Column::new(
                    (0..n as i64)
                        .map(|i| 1_420_070_400_000 + (i * 7919 % 730) * 86_400_000)
                        .collect(),
                    NullMask::none(),
                )),
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

    fn one_int_column(values: impl Iterator<Item = i64>, kind: ColumnKind) -> Table {
        let col = I64Column::new(values.collect(), NullMask::none());
        let col = if kind == ColumnKind::Date {
            Column::Date(col)
        } else {
            Column::Int(col)
        };
        Table::builder().column("X", kind, col).build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = mixed_table(700);
        assert_tables_identical(&t, &decode(&encode(&t)).unwrap());
    }

    #[test]
    fn round_trip_preserves_encoding_and_zones() {
        let t = mixed_table(4000);
        let t2 = decode(&encode(&t)).unwrap();
        for (name, kind) in [
            ("seq", EncodingKind::Delta),
            ("bucket", EncodingKind::BitPacked),
            ("rl", EncodingKind::RunLength),
            ("noise", EncodingKind::Plain),
            ("day", EncodingKind::BitPacked),
            ("sparse", EncodingKind::Exceptions),
        ] {
            let a = t.column_by_name(name).unwrap().as_i64_col().unwrap();
            let b = t2.column_by_name(name).unwrap().as_i64_col().unwrap();
            assert_eq!(a.storage().kind(), kind, "{name}");
            assert_eq!(a.storage(), b.storage(), "{name}");
            assert_eq!(a.zones().mins(), b.zones().mins(), "{name} zone mins");
            assert_eq!(a.zones().maxs(), b.zones().maxs(), "{name} zone maxs");
        }
        for (name, kind) in [
            ("score", EncodingKind::Plain),
            ("delay", EncodingKind::BitPacked),
            ("fee", EncodingKind::RunLength),
            ("ticks", EncodingKind::Delta),
        ] {
            let a = t.column_by_name(name).unwrap().as_f64_col().unwrap();
            let b = t2.column_by_name(name).unwrap().as_f64_col().unwrap();
            assert_eq!(a.data().kind(), kind, "{name}");
            assert_eq!(a.data(), b.data(), "{name}");
            for r in 0..a.len() {
                let (x, y) = (a.data().get(r), b.data().get(r));
                assert_eq!(x.to_bits(), y.to_bits(), "{name} row {r}");
            }
            let bits = |z: &ZoneMap<f64>| {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (bits(z.mins()), bits(z.maxs()))
            };
            assert_eq!(bits(a.zones()), bits(b.zones()), "{name} zones");
        }
        assert_eq!(encode(&t2), encode(&t), "image stable under decode→encode");
    }

    #[test]
    fn zone_images_round_trip_at_the_domain_edges() {
        // Interleaved (min, max) images of two blocks, through the writer
        // and back: codes up to u32::MAX of a dictionary that large, the
        // ends of i64, and sign-magnitude codes at ±2^53 beside the zeros.
        fn trip<T: Copy + PartialOrd + std::fmt::Debug>(
            images: &[i64],
            domain: Domain,
            value: impl Fn(i64) -> T,
        ) -> Result<ZoneMap<T>> {
            let mut w = WireWriter::new();
            encode_zone_images(&mut w, images, domain);
            let mut r = WireReader::new(w.finish());
            decode_zone_images(&mut r, 2 * BLOCK_ROWS, "X", domain, value)
        }
        let top = u32::MAX as i64;
        let codes = [0, top, top - 1, top];
        let z = trip(&codes, Domain::Codes(u32::MAX as usize + 1), |v| v as u32).unwrap();
        assert_eq!(
            (z.block(0), z.block(1)),
            ((0, u32::MAX), (u32::MAX - 1, u32::MAX))
        );
        let err = trip(&codes, Domain::Codes(u32::MAX as usize), |v| v as u32).unwrap_err();
        assert!(err.to_string().contains("out of dictionary range"), "{err}");

        let ints = [i64::MIN, i64::MAX, -1, 0];
        let z = trip(&ints, Domain::Int, |v| v).unwrap();
        assert_eq!((z.block(0), z.block(1)), ((i64::MIN, i64::MAX), (-1, 0)));

        let edge = (1u64 << 53) as f64;
        let doubles = [-edge, edge, -0.0, 0.0];
        let images: Vec<i64> = doubles
            .iter()
            .map(|&v| F64Storage::code_of(v).unwrap())
            .collect();
        let z = trip(&images, Domain::Integral, F64Storage::value_of).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(z.mins()), bits(&[-edge, -0.0]));
        assert_eq!(bits(z.maxs()), bits(&[edge, 0.0]));
    }

    #[test]
    fn plain_coded_doubles_are_written_raw() {
        // Enc byte 0 means raw doubles: integer codes that happen to be
        // stored plain must be written as the values they stand for.
        let values = vec![3.0, -0.0, -17.0, 1e15];
        let codes = F64Storage::codes_of(&values).unwrap();
        let col = F64Column::from_parts(
            F64Storage::Integral(IntStorage::plain_of(codes)),
            NullMask::none(),
            ZoneMap::from_f64(&values),
        );
        let t = Table::builder()
            .column("x", ColumnKind::Double, Column::Double(col))
            .build()
            .unwrap();
        let back = decode(&encode(&t)).unwrap();
        let c = back.column_by_name("x").unwrap().as_f64_col().unwrap();
        assert_eq!(c.data().kind(), EncodingKind::Plain);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c.data().to_vec()), bits(&values));
    }

    #[test]
    fn encoded_doubles_shrink_file_and_heap() {
        // Footprint as a tier-1 number. Flights' ten double columns are
        // integral minutes: stored raw, a 65 000-row part took 114.0 B/row
        // on disk and 130.8 B/row decoded.
        let rows = 65_000;
        let t = generate_flights(&FlightsConfig::new(rows, 7));
        let img = encode(&t);
        assert!(
            img.len() <= 50 * rows,
            "{} B/row stored",
            img.len() as f64 / rows as f64
        );
        let heap = decode(&img).unwrap().heap_bytes();
        assert!(
            heap <= 70 * rows,
            "{} B/row decoded",
            heap as f64 / rows as f64
        );

        // An incompressible double column pays one header byte, nothing else.
        let logs = generate_logs(&LogsConfig::new(20_000, 7));
        let lat = logs
            .column_by_name("LatencyMs")
            .unwrap()
            .as_f64_col()
            .unwrap();
        assert_eq!(lat.data().kind(), EncodingKind::Plain);
        let one = Table::builder()
            .column("LatencyMs", ColumnKind::Double, Column::Double(lat.clone()))
            .build()
            .unwrap();
        let img = encode(&one);
        let header_len = check_preamble(&img, img.len() as u64).unwrap();
        // The layout without the enc byte: a header one byte shorter, then
        // the raw section.
        let raw_layout = align_up(PREAMBLE + header_len - 1) + lat.len() * 8;
        assert!(
            img.len() <= raw_layout + 64,
            "{} bytes against a raw layout of {raw_layout}",
            img.len()
        );
    }

    #[test]
    fn pruned_flat_dictionaries_shrink_file_and_heap() {
        // Footprint as a tier-1 number. A 65 000-row part of a 260 000-row
        // flights table shows about half of the table's 92 000 tail numbers:
        // stored with all of them, each a reference-counted string once
        // decoded, it took 43.3 B/row on disk and 60.4 B/row in memory.
        let rows = 65_000;
        let whole = generate_flights(&FlightsConfig::new(4 * rows, 7));
        let part = crate::partition::slice_table(&whole, rows, 2 * rows);
        let img = encode(&part);
        assert!(
            img.len() <= 40 * rows,
            "{} B/row stored",
            img.len() as f64 / rows as f64
        );
        let back = decode(&img).unwrap();
        assert!(
            back.heap_bytes() <= 38 * rows,
            "{} B/row decoded",
            back.heap_bytes() as f64 / rows as f64
        );
        let tails = back.column_by_name("TailNum").unwrap();
        let dict = tails.as_dict_col().unwrap().dictionary();
        assert!(dict.len() < 50_000, "{} entries", dict.len());
        // Sorted and front-coded: a header byte and the digits that differ
        // from the previous tail number, plus a quarter of an offset.
        assert!(
            dict.heap_bytes() <= 4 * dict.len(),
            "{} B/entry",
            dict.heap_bytes() as f64 / dict.len() as f64
        );
        assert_tables_identical(&part, &back);
    }

    #[test]
    fn packed_columns_shrink_the_file() {
        let n = 100_000usize;
        let t = one_int_column((0..n as i64).map(|i| i / 50), ColumnKind::Int);
        let bytes = encode(&t);
        assert!(
            bytes.len() < n, // < 1 byte/row; plain would be eight
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
        let t = one_int_column(
            (0..n as i64).map(|i| 1_700_000_000_000 + i * 250),
            ColumnKind::Date,
        );
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
        let d = TempDir::new("hvc-file");
        let t = mixed_table(300);
        let p = d.join("t.hvc");
        write_file(&t, &p).unwrap();
        assert_tables_identical(&t, &read_file(&p).unwrap());
    }

    #[test]
    fn foreign_magic_is_rejected() {
        // One container: any other magic — the retired wire-packed and
        // raw-double layouts' included — is a structured parse error from
        // every entry point.
        let d = TempDir::new("hvc-magic");
        let img = encode(&mixed_table(100));
        assert_eq!(&img[..MAGIC.len()], MAGIC);
        let old = d.join("old.hvc");
        let cache = BlockCache::unbounded();
        for magic in [
            b"HVC2", b"HVC3", b"HVC4", b"HVC5", b"HVC6", b"HVC7", b"HVC8",
        ] {
            let foreign = [magic, &img[4..]].concat();
            std::fs::write(&old, &foreign).unwrap();
            for err in [
                decode(&foreign).unwrap_err(),
                read_file(&old).unwrap_err(),
                read_file_mapped(&old, &cache, SegmentMode::Auto).unwrap_err(),
                probe_file(&old).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, Error::Parse { message, .. } if message == "bad magic"),
                    "got {err}"
                );
            }
        }
    }

    #[test]
    fn payload_sections_are_64_byte_aligned() {
        let t = mixed_table(500);
        let img = encode(&t);
        let header_len = check_preamble(&img, img.len() as u64).unwrap();
        let payload_base = align_up(PREAMBLE + header_len);
        let hdr = Bytes::copy_from_slice(&img[PREAMBLE..PREAMBLE + header_len]);
        let header = parse_header(hdr, payload_base).unwrap();
        fn rels<T>(meta: &IntMeta<T>) -> Vec<usize> {
            match meta {
                IntMeta::Plain { rel }
                | IntMeta::BitPacked { rel, .. }
                | IntMeta::Delta { rel, .. } => vec![*rel],
                IntMeta::RunLength { .. } => vec![],
                IntMeta::Exceptions { rel, values, .. } => [vec![*rel], rels(values)].concat(),
            }
        }
        for cm in &header.columns {
            let rels = match &cm.payload {
                PayloadMeta::Int { storage, .. } | PayloadMeta::Double { storage, .. } => {
                    rels(storage)
                }
                PayloadMeta::Dict { codes, .. } => rels(codes),
            };
            for rel in rels {
                assert_eq!(rel % ALIGN, 0, "column {:?} section at {rel}", cm.name);
            }
        }
    }

    #[test]
    fn mapped_read_bit_identical_to_heap_in_every_mode() {
        let d = TempDir::new("hvc-mapped");
        let t = mixed_table(2000);
        let p = d.join("mapped.hvc");
        write_file(&t, &p).unwrap();
        let heap = read_file(&p).unwrap();
        assert_tables_identical(&t, &heap);
        for mode in [SegmentMode::Auto, SegmentMode::Heap] {
            let cache = BlockCache::unbounded();
            let m = read_file_mapped(&p, &cache, mode).unwrap();
            assert_tables_identical(&heap, &m);
            // Storage-level equality: same variant, same decoded values.
            for name in ["seq", "bucket", "rl", "noise", "day", "sparse"] {
                let a = heap.column_by_name(name).unwrap().as_i64_col().unwrap();
                let b = m.column_by_name(name).unwrap().as_i64_col().unwrap();
                assert_eq!(a.storage(), b.storage(), "{name} under {mode:?}");
            }
            for name in ["score", "delay", "fee", "ticks"] {
                let a = heap.column_by_name(name).unwrap().as_f64_col().unwrap();
                let b = m.column_by_name(name).unwrap().as_f64_col().unwrap();
                assert_eq!(a.data(), b.data(), "{name} under {mode:?}");
            }
        }
    }

    #[test]
    fn mapped_open_reads_no_payload() {
        let d = TempDir::new("hvc-lazy");
        let t = mixed_table(5000);
        let p = d.join("lazy.hvc");
        write_file(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap();
        assert_eq!(cache.stats().faults, 0, "open faulted payload in");
        assert!(m.mapped_bytes() > 0, "columns are file-backed");
        // First actual access faults.
        let _ = m.column_by_name("noise").unwrap().value(4321);
        assert!(cache.stats().faults > 0);
    }

    #[test]
    fn probe_reads_header_only() {
        let d = TempDir::new("hvc-probe");
        let t = mixed_table(600);
        let p = d.join("probe.hvc");
        write_file(&t, &p).unwrap();
        let info = probe_file(&p).unwrap();
        assert_eq!(info.rows, 600);
        assert_eq!(info.columns, 13);
        assert_eq!(info.schema.descs(), t.schema().descs());
        // Truncate the file to magic + header: the probe still succeeds
        // (proof it never reads payload), while a full read fails.
        let bytes = std::fs::read(&p).unwrap();
        let header_len =
            u32::from_le_bytes(bytes[MAGIC.len()..PREAMBLE].try_into().unwrap()) as usize;
        let cut = d.join("probe-cut.hvc");
        std::fs::write(&cut, &bytes[..PREAMBLE + header_len]).unwrap();
        assert_eq!(probe_file(&cut).unwrap().rows, 600);
        assert!(read_file(&cut).is_err());
    }

    #[test]
    fn header_length_is_checked_against_the_file_before_allocating() {
        // The length word is the first thing a reader trusts: a value past
        // the end of the file must be refused before it sizes a buffer.
        let d = TempDir::new("hvc-hdrlen");
        let img = encode(&mixed_table(100));
        let mut one_past = img.clone();
        one_past[MAGIC.len()..PREAMBLE]
            .copy_from_slice(&(img.len() as u32 - PREAMBLE as u32 + 1).to_le_bytes());
        let bare = [&MAGIC[..], &u32::MAX.to_le_bytes()].concat();
        let cache = BlockCache::unbounded();
        for (name, bytes) in [("one-past.hvc", one_past), ("bare.hvc", bare)] {
            let p = d.join(name);
            std::fs::write(&p, &bytes).unwrap();
            for err in [
                probe_file(&p).unwrap_err(),
                read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap_err(),
                read_file(&p).unwrap_err(),
            ] {
                assert!(
                    err.to_string().contains("header exceeds file length"),
                    "{name}: got {err}"
                );
            }
        }
    }

    // Structural faults, one field at a time, in hand-written headers.

    /// A one-column image — column "X" of kind byte `kind`, `rows` rows all
    /// present — whose header after the null runs is written by `body`,
    /// with `payload` as the section at offset 0.
    fn crafted(
        kind: u8,
        rows: u64,
        payload: Vec<u8>,
        body: impl FnOnce(&mut WireWriter),
    ) -> Vec<u8> {
        let mut sections = Sections::default();
        sections.push(payload);
        crafted_over(kind, rows, sections, body)
    }

    /// [`crafted`] over sections laid out by the caller.
    fn crafted_over(
        kind: u8,
        rows: u64,
        sections: Sections,
        body: impl FnOnce(&mut WireWriter),
    ) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(1); // columns
        w.put_varint(rows);
        w.put_str("X");
        w.put_u8(kind);
        w.put_varint(1); // one null run...
        w.put_varint(rows); // ...of present rows
        body(&mut w);
        w.put_varint(sections.rel as u64); // dictionary base
        assemble(&w.finish(), sections)
    }

    /// One zone block — the map of any column of ≤ 64 rows — spanning the
    /// images `lo..=hi` of a column of `kind`: the smallest image (zigzag
    /// for an Int, a plain varint for codes), the gcd, the two quotients.
    fn zone(w: &mut WireWriter, kind: ColumnKind, lo: i64, hi: i64) {
        w.put_varint(1);
        if kind == ColumnKind::Int {
            w.put_i64(lo);
        } else {
            w.put_varint(lo as u64);
        }
        w.put_varint((hi - lo) as u64);
        w.put_varint(0);
        w.put_varint(u64::from(hi > lo));
    }

    /// The kinds whose payload is the integer-storage descriptor over
    /// `i64` values: a `Double`'s codes share it byte for byte.
    const INT_CODED: [ColumnKind; 2] = [ColumnKind::Int, ColumnKind::Double];

    /// Two rows of `kind`, bit-packed, with the step written after the
    /// width when there is one: well-formed at `(4, None, 1)`, and at a
    /// step ≥ 2 unless the width is 0.
    fn bit_packed_image(kind: ColumnKind, width: u8, step: Option<u64>, nwords: u64) -> Vec<u8> {
        crafted(kind_byte(kind), 2, vec![0; 16], |w| {
            w.put_u8(ENC_BIT_PACKED);
            w.put_varint(2);
            w.put_i64(5);
            match step {
                None => w.put_u8(width),
                Some(step) => {
                    w.put_u8(width | STRIDED);
                    w.put_varint(step);
                }
            }
            w.put_varint(nwords);
            w.put_varint(0);
            // Every row is the base: the packed words are zero.
            zone(w, kind, 5, 5);
        })
    }

    /// Two rows of `kind`, run-length coded: well-formed when `lens` sums
    /// to 2.
    fn run_length_image(kind: ColumnKind, lens: &[u64]) -> Vec<u8> {
        crafted(kind_byte(kind), 2, vec![], |w| {
            w.put_u8(ENC_RUN_LENGTH);
            w.put_varint(2);
            w.put_varint(lens.len() as u64);
            for &len in lens {
                w.put_i64(1);
                w.put_varint(len);
            }
            zone(w, kind, 1, 1);
        })
    }

    /// Two rows of `kind`, delta coded: well-formed at `(1, 4)`.
    fn delta_image(kind: ColumnKind, nanchors: u64, width: u8) -> Vec<u8> {
        crafted(kind_byte(kind), 2, vec![0; 16], |w| {
            w.put_u8(ENC_DELTA);
            w.put_varint(2);
            w.put_varint(nanchors);
            for _ in 0..nanchors {
                w.put_i64(7);
            }
            w.put_u8(width);
            w.put_varint(1);
            w.put_varint(0);
            zone(w, kind, 7, 7);
        })
    }

    /// Two String rows with plain codes: well-formed when `entries` ascend,
    /// share no prefix and cover both codes. Each entry is written whole: a
    /// header byte of prefix 0 and its length, then its bytes. The zone map
    /// spans the codes as far as the dictionary reaches, so a code past it
    /// is the payload's fault.
    fn dict_image(entries: &[&str], codes: [u32; 2]) -> Vec<u8> {
        let top = entries.len().max(1) as i64 - 1;
        let (lo, hi) = (codes[0].min(codes[1]) as i64, codes[0].max(codes[1]) as i64);
        let mut sections = Sections::default();
        sections.push(codes.iter().flat_map(|c| c.to_le_bytes()).collect());
        for e in entries {
            assert!(e.len() < 15, "one nibble holds the length");
            sections.dictionaries.push(e.len() as u8);
            sections.dictionaries.extend_from_slice(e.as_bytes());
        }
        let bytes = sections.dictionaries.len();
        crafted_over(kind_byte(ColumnKind::String), 2, sections, |w| {
            w.put_varint(entries.len() as u64);
            w.put_varint(bytes as u64);
            w.put_varint(0);
            w.put_u8(ENC_PLAIN);
            w.put_varint(2);
            w.put_varint(0);
            zone(w, ColumnKind::String, lo.min(top), hi.min(top));
        })
    }

    #[track_caller]
    fn assert_fault(img: &[u8], fault: &str) {
        let err = decode(img).unwrap_err().to_string();
        assert!(err.contains(fault), "expected {fault:?}, got {err}");
    }

    #[test]
    fn corrupt_images_rejected() {
        let img = encode(&mixed_table(400));
        assert!(decode(b"NOPE0000").is_err());
        // Truncations at many points must error, never panic.
        for cut in [0, 3, 6, 20, img.len() / 4, img.len() / 2, img.len() - 1] {
            assert!(decode(&img[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn unknown_kind_and_encoding_bytes_rejected() {
        assert_fault(&crafted(9, 2, vec![], |_| {}), "unknown column kind byte 9");
        for kind in INT_CODED {
            let enc = crafted(kind_byte(kind), 2, vec![], |w| {
                w.put_u8(9);
                w.put_varint(2);
            });
            assert_fault(&enc, "unknown encoding byte 9");
        }
    }

    #[test]
    fn corrupt_packed_sections_rejected() {
        for kind in INT_CODED {
            decode(&bit_packed_image(kind, 4, None, 1)).unwrap();
            decode(&bit_packed_image(kind, 4, Some(86_400_000), 1)).unwrap();
            decode(&bit_packed_image(kind, 0, None, 0)).unwrap();
            let fault = "inconsistent bit-packed section";
            assert_fault(&bit_packed_image(kind, 64, None, 2), fault);
            assert_fault(&bit_packed_image(kind, 4, None, 2), fault);
            assert_fault(&bit_packed_image(kind, 64, Some(2), 2), fault);
            // A zero step; a step of 1 spelled out, which the flag-clear
            // width byte already says; a step at width 0, where the encoder
            // writes a constant column at step 1.
            assert_fault(&bit_packed_image(kind, 4, Some(0), 1), "step 0");
            assert_fault(&bit_packed_image(kind, 4, Some(1), 1), "non-canonical");
            assert_fault(&bit_packed_image(kind, 0, Some(2), 0), "width 0, step 2");
            decode(&run_length_image(kind, &[1, 1])).unwrap();
            assert_fault(&run_length_image(kind, &[2, 0]), "zero-length run");
            assert_fault(
                &run_length_image(kind, &[1, u64::MAX]),
                "overflows row index",
            );
        }
    }

    #[test]
    fn corrupt_delta_sections_rejected() {
        for kind in INT_CODED {
            decode(&delta_image(kind, 1, 4)).unwrap();
            assert_fault(&delta_image(kind, 2, 4), "inconsistent delta section");
            assert_fault(&delta_image(kind, 1, 64), "inconsistent delta section");
        }
    }

    #[test]
    fn corrupt_codes_stay_in_dictionary() {
        decode(&dict_image(&["a", "b"], [0, 1])).unwrap();
        assert_fault(&dict_image(&["a", "b"], [0, 2]), "out of dictionary range");
        // Entries strictly ascend, which also refuses a repeat.
        assert_fault(&dict_image(&["a", "a"], [0, 0]), "entry 1: not ascending");
        assert_fault(&dict_image(&["b", "a"], [0, 1]), "entry 1: not ascending");
    }

    #[test]
    fn empty_dictionary_with_present_rows_rejected() {
        // Both rows present, no entry to dereference: rejected up front,
        // not a panic when a row is read. (The legitimate shape — every
        // row null — round-trips in `all_null_columns_round_trip`.)
        assert_fault(&dict_image(&[], [0, 0]), "empty dictionary");
    }

    #[test]
    fn oversized_code_varints_rejected() {
        // An inline code above u32::MAX must error instead of silently
        // wrapping into a small (possibly in-range) code.
        let img = crafted(kind_byte(ColumnKind::String), 2, vec![], |w| {
            w.put_varint(1); // one entry...
            w.put_varint(2); // ...of two bytes...
            w.put_varint(0); // ...first in the dictionary area
            w.put_u8(ENC_RUN_LENGTH);
            w.put_varint(2);
            w.put_varint(1); // one run...
            w.put_varint(1 << 32); // ...of code 2^32, which truncates to 0
            w.put_varint(2);
        });
        assert_fault(&img, "dictionary code");
    }

    #[test]
    fn lengths_the_file_cannot_back_are_rejected() {
        let plain = |payload: Vec<u8>, zone_blocks: u64| {
            crafted(kind_byte(ColumnKind::Int), 2, payload, |w| {
                w.put_u8(ENC_PLAIN);
                w.put_varint(2);
                w.put_varint(0);
                w.put_varint(zone_blocks);
                w.put_i64(0); // smallest image
                w.put_varint(0); // gcd
                for _ in 0..2 * zone_blocks {
                    w.put_varint(0);
                }
            })
        };
        decode(&plain(vec![0; 16], 1)).unwrap();
        // A section one byte short of its two values.
        assert_fault(&plain(vec![0; 15], 1), "exceeds file length");
        // Two zone blocks for two rows.
        assert_fault(&plain(vec![0; 16], 2), "zone map covers 2 blocks");
        // More rows than a header this short could carry zone maps for:
        // refused before a null mask or a row loop is sized by them.
        assert_fault(
            &crafted(kind_byte(ColumnKind::Int), 1 << 20, vec![], |_| {}),
            "rows exceed",
        );
    }

    #[test]
    fn row_count_mismatch_is_structured() {
        let t = one_int_column(0..200, ColumnKind::Int);
        let img = encode(&t);
        // The header blob follows the preamble: cols varint (1 byte) then
        // rows varint 200 = [0xC8, 0x01]. Patch rows to 199.
        let rows = PREAMBLE + 1;
        assert_eq!(&img[rows..rows + 2], &[0xC8, 0x01], "expected varint 200");
        let mut bad = img.clone();
        bad[rows] = 0xC7;
        // Every per-column count is held to the table's: the null runs
        // (above), a declared value count, a double column's, the sum of a
        // run table, and a null run long enough to overflow the row index.
        let mut w = WireWriter::new();
        w.put_varint(1); // columns
        w.put_varint(2); // rows
        w.put_str("X");
        w.put_u8(kind_byte(ColumnKind::Int));
        w.put_varint(2); // two null runs: 1 present...
        w.put_varint(1);
        w.put_varint(u64::MAX); // ...then more missing than a row index holds
        let overlong = assemble(&w.finish(), Sections::default());
        for (img, declared, actual) in [
            (bad, 199, 200),
            (
                crafted(kind_byte(ColumnKind::Int), 2, vec![], |w| {
                    w.put_u8(ENC_PLAIN);
                    w.put_varint(3);
                }),
                2,
                3,
            ),
            (
                crafted(kind_byte(ColumnKind::Double), 2, vec![], |w| {
                    w.put_u8(ENC_PLAIN);
                    w.put_varint(3)
                }),
                2,
                3,
            ),
            (run_length_image(ColumnKind::Int, &[1]), 2, 1),
            (run_length_image(ColumnKind::Int, &[1, 2]), 2, 3),
            (run_length_image(ColumnKind::Double, &[1, 2]), 2, 3),
            (overlong, 2, usize::MAX),
        ] {
            let err = decode(&img).unwrap_err();
            assert!(
                matches!(err, Error::RowCountMismatch { declared: d, actual: a, .. } if d == declared && a == actual),
                "expected {declared} vs {actual}, got {err}"
            );
        }
    }

    #[test]
    fn mapped_open_rejects_zone_codes_outside_dictionary() {
        // Corrupt a categorical column's zone max above dict_len: the
        // mapped path's header-only validation must reject the file.
        let d = TempDir::new("hvc-badzones");
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
        write_file(&t, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let header_len =
            u32::from_le_bytes(bytes[MAGIC.len()..PREAMBLE].try_into().unwrap()) as usize;
        // The zone map is the last thing in the header but the dictionary
        // base: 10 blocks of (min=0, max=4), at a gcd of 4 the quotient
        // pairs (0, 1). Set every max to 127 (still a one-byte varint), so
        // the code it stands for is 508.
        let mut base = WireWriter::new();
        base.put_varint((bytes.len() - "abcde".len() * 2 - align_up(PREAMBLE + header_len)) as u64);
        let zones_end = PREAMBLE + header_len - base.len();
        let tail = &mut bytes[zones_end - 20..zones_end];
        assert!(tail.iter().step_by(2).all(|&b| b == 0), "zone mins");
        assert!(tail[1..].iter().step_by(2).all(|&b| b == 1), "zone maxs");
        for b in tail[1..].iter_mut().step_by(2) {
            *b = 127;
        }
        std::fs::write(&p, &bytes).unwrap();
        let cache = BlockCache::unbounded();
        let err = read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap_err();
        assert!(
            err.to_string().contains("out of dictionary range"),
            "got {err}"
        );
    }

    #[test]
    fn empty_table_round_trips() {
        let t = decode(&encode(&Table::empty())).unwrap();
        assert_eq!((t.num_rows(), t.num_columns()), (0, 0));
    }

    #[test]
    fn all_null_columns_round_trip() {
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
        let t2 = decode(&encode(&t)).unwrap();
        for r in 0..3 {
            assert_eq!(t2.get(r, "S").unwrap(), Value::Missing);
            assert_eq!(t2.get(r, "D").unwrap(), Value::Missing);
        }
        // And through the mapped path.
        let d = TempDir::new("hvc-allnull");
        let p = d.join("allnull.hvc");
        write_file(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap();
        assert_tables_identical(&t2, &m);
    }

    #[test]
    fn nan_doubles_survive_the_mapped_path() {
        // NaN payload values are null-masked at ingest; the raw section
        // preserves them bit-for-bit and from_parts must not re-normalize.
        let d = TempDir::new("hvc-nan");
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
        write_file(&t, &p).unwrap();
        let cache = BlockCache::unbounded();
        let m = read_file_mapped(&p, &cache, SegmentMode::Auto).unwrap();
        let c = m.column_by_name("x").unwrap().as_f64_col().unwrap();
        assert_eq!(c.get(0), Some(1.0));
        assert_eq!(c.get(1), None, "NaN row stays null");
        assert_eq!(c.nulls().null_count(), 2);
    }
}
