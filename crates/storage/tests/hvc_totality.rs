//! Decoding is total: whatever bytes an `hvc` file holds, every reader
//! ends in a structured error or a table that scans — never a panic, a
//! hang, or an allocation sized by a length the file merely claims.
//!
//! A seeded mutation loop over valid images of every encoding × column
//! kind. The mutations know the container's shape — preamble, header blob,
//! payload sections — and aim at what a reader trusts: bits anywhere,
//! truncation, the header-length word, varint length fields spliced over
//! or into the header, and payloads cut short so section offsets point
//! past the end of the file.
//!
//! The one panic a reader may raise is the documented one: a *mapped* open
//! bounds dictionary codes by the header's zone maps instead of reading
//! the payload, so a payload that contradicts them surfaces when a scan
//! dereferences the code. The loop accepts that panic only when the heap
//! decoder, which does read the payload, names the same fault.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::dictionary::DictionaryBuilder;
use hillview_columnar::predicate::filter_members;
use hillview_columnar::{
    BlockCache, CodeStorage, ColumnKind, F64Storage, I64Storage, MembershipSet, NullMask,
    Predicate, SegmentMode, Table, TempDir, ZoneMap,
};
use hillview_net::WireWriter;
use hillview_storage::{hvc, probe_file, read_file_mapped};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const ROWS: usize = 200;
const MUTANTS_PER_IMAGE: usize = 250;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n.max(1) as u64) as usize
}

/// One table per integer encoding, each with every column kind: the
/// encoding is forced on the Int and Date values, on the Category and
/// String codes, and on the codes of an integral Double column alike (beside
/// a fractional one, stored raw). The data is ascending with repeats, which
/// all four encodings accept.
fn images() -> Vec<Vec<u8>> {
    let values: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i / 3).collect();
    let codes: Vec<u32> = (0..ROWS as u32).map(|i| i / 40).collect();
    let mut db = DictionaryBuilder::new();
    for s in ["ash", "birch", "cedar", "elm", "fir"] {
        db.intern(s).unwrap();
    }
    let dict = Arc::new(db.finish());
    let mut nulls = NullMask::none();
    for i in (5..ROWS).step_by(17) {
        nulls.set_null(i, ROWS);
    }
    let ints: [fn(&[i64]) -> I64Storage; 4] = [
        |v| I64Storage::plain_of(v.to_vec()),
        |v| I64Storage::bit_packed_of(v).unwrap(),
        |v| I64Storage::run_length_of(v).unwrap(),
        |v| I64Storage::delta_of(v).unwrap(),
    ];
    let dicts: [fn(&[u32]) -> CodeStorage; 4] = [
        |v| CodeStorage::plain_of(v.to_vec()),
        |v| CodeStorage::bit_packed_of(v).unwrap(),
        |v| CodeStorage::run_length_of(v).unwrap(),
        |v| CodeStorage::delta_of(v).unwrap(),
    ];
    let whole: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let whole_codes = F64Storage::codes_of(&whole).unwrap();
    ints.iter()
        .zip(dicts)
        .enumerate()
        .map(|(which, (int, code))| {
            let encoded = if which == 0 {
                F64Storage::Plain(whole.clone().into())
            } else {
                F64Storage::Integral(int(&whole_codes))
            };
            let t = Table::builder()
                .column(
                    "i",
                    ColumnKind::Int,
                    Column::Int(I64Column::with_storage(int(&values), nulls.clone())),
                )
                .column(
                    "d",
                    ColumnKind::Date,
                    Column::Date(I64Column::with_storage(int(&values), NullMask::none())),
                )
                .column(
                    "c",
                    ColumnKind::Category,
                    Column::Cat(DictColumn::with_storage(
                        code(&codes),
                        Arc::clone(&dict),
                        NullMask::none(),
                    )),
                )
                .column(
                    "s",
                    ColumnKind::String,
                    Column::Str(DictColumn::with_storage(
                        code(&codes),
                        Arc::clone(&dict),
                        nulls.clone(),
                    )),
                )
                .column(
                    "f",
                    ColumnKind::Double,
                    Column::Double(F64Column::from_options((0..ROWS).map(|i| {
                        if i % 13 == 0 {
                            None
                        } else {
                            Some(i as f64 * 0.5)
                        }
                    }))),
                )
                .column(
                    "e",
                    ColumnKind::Double,
                    Column::Double(F64Column::from_parts(
                        encoded,
                        nulls.clone(),
                        ZoneMap::from_f64(&whole),
                    )),
                )
                .build()
                .unwrap();
            hvc::encode(&t)
        })
        .collect()
}

fn varint(v: u64) -> bytes::Bytes {
    let mut w = WireWriter::new();
    w.put_varint(v);
    w.finish()
}

/// One mutant of `img`, whose header blob is `img[8..8 + header_len]`.
fn mutate(img: &[u8], state: &mut u64) -> Vec<u8> {
    let header_len = u32::from_le_bytes(img[4..8].try_into().unwrap()) as usize;
    let header_end = 8 + header_len;
    let payload_base = header_end.div_ceil(64) * 64;
    let mut m = img.to_vec();
    // Lengths a reader might trust: small, block-sized, the wire cap and
    // just past it, the integer edges, and this file's own dimensions.
    let lengths = [
        0,
        1,
        63,
        64,
        65,
        ROWS as u64 - 1,
        ROWS as u64 + 1,
        1 << 28,
        (1 << 28) + 1,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        u64::MAX,
        img.len() as u64,
        (img.len() - payload_base) as u64 + 1,
    ];
    match below(state, 7) {
        // A bit in the preamble or header…
        0 => m[below(state, header_end)] ^= 1 << below(state, 8),
        // …or in a payload section.
        1 => {
            let at = payload_base + below(state, img.len() - payload_base);
            m[at] ^= 1 << below(state, 8);
        }
        // Truncation anywhere.
        2 => m.truncate(below(state, img.len())),
        // The header-length word.
        3 => {
            let word = match below(state, 6) {
                0 => 0,
                1 => header_len as u32 - 1,
                2 => header_len as u32 + 1,
                3 => (img.len() - 8) as u32,
                4 => (img.len() - 8) as u32 + 1,
                _ => u32::MAX,
            };
            m[4..8].copy_from_slice(&word.to_le_bytes());
        }
        // A length field written over the header in place…
        4 => {
            let v = varint(lengths[below(state, lengths.len())]);
            let at = 8 + below(state, header_len);
            let n = v.len().min(header_end - at);
            m[at..at + n].copy_from_slice(&v[..n]);
        }
        // …or spliced into it, the length word kept honest so the parse
        // runs on into fields that have all shifted.
        5 => {
            let v = varint(lengths[below(state, lengths.len())]);
            let at = 8 + below(state, header_len);
            let drop = below(state, 3).min(header_end - at);
            m.splice(at..at + drop, v.iter().copied());
            let new_len = (header_len + v.len() - drop) as u32;
            m[4..8].copy_from_slice(&new_len.to_le_bytes());
        }
        // The header intact, the payload cut short: section offsets that
        // were valid now point past the end of the file.
        _ => m.truncate(payload_base + below(state, img.len() - payload_base)),
    }
    m
}

/// Touch every value of `t` both ways a query would: row-at-a-time, and
/// through the block decoders behind a predicate.
fn scan(t: &Table) {
    for r in 0..t.num_rows() {
        std::hint::black_box(t.full_row(r));
    }
    let full = MembershipSet::full(t.num_rows());
    for desc in t.schema().descs() {
        if matches!(
            desc.kind,
            ColumnKind::Int | ColumnKind::Date | ColumnKind::Double
        ) {
            let pred = Predicate::range(&desc.name, 0.0, 1_050.0);
            std::hint::black_box(filter_members(t, &pred, &full).unwrap());
        }
    }
}

/// What the three readers make of `m`.
enum Verdict {
    /// The heap decoder refused it, with this message.
    Rejected(String),
    /// The heap decoder opened it and the table scanned.
    Opened,
}

/// Put `m` to every reader: the heap decode ends in an error or a table
/// that scans; the header-only and mapped opens end in any verdict, but a
/// verdict; and a mapped table that opened scans too — or panics over a
/// fault the heap decoder named (`contradiction`).
fn verdict(m: &[u8], path: &Path, cache: &Arc<BlockCache>, label: &str) -> (Verdict, bool) {
    let heap = match hvc::decode(m) {
        Ok(t) => {
            scan(&t);
            Verdict::Opened
        }
        Err(e) => Verdict::Rejected(e.to_string()),
    };
    std::fs::write(path, m).unwrap();
    let _ = probe_file(path);
    let mut contradiction = false;
    if let Ok(mapped) = read_file_mapped(path, cache, SegmentMode::Auto) {
        if catch_unwind(AssertUnwindSafe(|| scan(&mapped))).is_err() {
            let fault = match &heap {
                Verdict::Rejected(fault) => fault.as_str(),
                Verdict::Opened => "",
            };
            assert!(
                fault.contains("out of dictionary range"),
                "{label}: mapped scan panicked, heap decode said {fault:?}"
            );
            contradiction = true;
        }
    }
    (heap, contradiction)
}

#[test]
fn every_mutant_ends_in_an_error_or_a_table_that_scans() {
    let dir = TempDir::new("hvc-totality");
    let path = dir.join("mutant.hvc");
    let cache = BlockCache::unbounded();
    let mut state = 0x70_7A11_u64;
    let (mut rejected, mut opened, mut contradictions) = (0usize, 0usize, 0usize);
    for (which, img) in images().iter().enumerate() {
        hvc::decode(img).expect("the unmutated image decodes");
        for n in 0..MUTANTS_PER_IMAGE {
            let m = mutate(img, &mut state);
            let label = format!("image {which} mutant {n}");
            let (heap, contradiction) = verdict(&m, &path, &cache, &label);
            match heap {
                Verdict::Opened => opened += 1,
                Verdict::Rejected(_) => rejected += 1,
            }
            contradictions += contradiction as usize;
        }
    }
    // The loop must have exercised both outcomes, or it proves nothing.
    assert!(rejected > 100, "only {rejected} mutants rejected");
    assert!(opened > 100, "only {opened} mutants opened");
    eprintln!("{rejected} rejected, {opened} opened, {contradictions} zone-map contradictions");
}

/// A two-row String column with plain codes `[0, 1]`, whose dictionary
/// section — the entry count, then each entry's length and bytes — is
/// written by `dict`.
fn dict_image(dict: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(1); // columns
    w.put_varint(2); // rows
    w.put_str("s");
    w.put_u8(3); // String
    w.put_varint(1); // one null run...
    w.put_varint(2); // ...of present rows
    dict(&mut w);
    w.put_u8(0); // plain codes
    w.put_varint(2); // values
    w.put_varint(0); // section offset
    w.put_varint(1); // one zone block
    w.put_varint(0);
    w.put_varint(1);
    let header = w.finish();
    let mut img = b"HVC4".to_vec();
    img.extend((header.len() as u32).to_le_bytes());
    img.extend(&header[..]);
    img.resize(img.len().div_ceil(64) * 64, 0);
    img.extend([0u32, 1].iter().flat_map(|c| c.to_le_bytes()));
    img
}

fn entry(w: &mut WireWriter, declared_len: u64, bytes: &[u8]) {
    w.put_varint(declared_len);
    for &b in bytes {
        w.put_u8(b);
    }
}

#[test]
fn crafted_dictionaries_end_in_an_error_or_a_table_that_scans() {
    // The dictionary parse moves entries from the header straight into an
    // arena, so every length, every byte and the entry count are the
    // file's word against the parser's checks.
    let dir = TempDir::new("hvc-dicts");
    let path = dir.join("crafted.hvc");
    let cache = BlockCache::unbounded();
    let sound = dict_image(|w| {
        w.put_varint(2);
        entry(w, 2, "é".as_bytes());
        entry(w, 1, b"b");
    });
    let t = hvc::decode(&sound).expect("the well-formed image decodes");
    assert_eq!(t.full_row(0).values[0].as_str(), Some("é"));
    assert_eq!(t.full_row(1).values[0].as_str(), Some("b"));

    type Dict = Box<dyn Fn(&mut WireWriter)>;
    let two = |first: (u64, &'static [u8]), second: (u64, &'static [u8])| -> Dict {
        Box::new(move |w| {
            w.put_varint(2);
            entry(w, first.0, first.1);
            entry(w, second.0, second.1);
        })
    };
    let refused: [(&str, Dict, &str); 8] = [
        (
            "an entry running past the header",
            two((1, b"a"), (1 << 20, b"b")),
            "truncated",
        ),
        (
            // The bytes are there, but they are the next entry's: the
            // declared count then reads entries out of the codes section.
            "an entry swallowing its successor",
            two((3, b"a"), (1, b"b")),
            "encodes 0 rows",
        ),
        (
            "an entry of u64::MAX bytes",
            two((u64::MAX, b"a"), (1, b"b")),
            "length",
        ),
        (
            "invalid UTF-8 inside an entry",
            two((2, b"a\xFF"), (1, b"b")),
            "UTF-8",
        ),
        (
            // Valid as a whole arena ("é"), invalid entry by entry.
            "a character split across two entries",
            two((1, b"\xC3"), (1, b"\xA9")),
            "UTF-8",
        ),
        (
            "a duplicate entry",
            two((1, b"a"), (1, b"a")),
            "duplicate dictionary entries",
        ),
        (
            "more entries than the header has bytes",
            Box::new(|w| {
                w.put_varint(1 << 27);
                entry(w, 1, b"a");
                entry(w, 1, b"b");
            }),
            "exceed the header",
        ),
        (
            "one entry more than was written",
            Box::new(|w| {
                w.put_varint(3);
                entry(w, 1, b"a");
                entry(w, 1, b"b");
            }),
            "encodes 0 rows",
        ),
    ];
    for (label, dict, fault) in refused {
        match verdict(&dict_image(dict), &path, &cache, label).0 {
            Verdict::Rejected(e) => assert!(
                e.to_lowercase().contains(&fault.to_lowercase()),
                "{label}: expected {fault:?}, got {e}"
            ),
            Verdict::Opened => panic!("{label}: accepted"),
        }
    }
}
