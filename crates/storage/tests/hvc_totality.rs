//! Decoding is total: whatever bytes an `hvc` file holds, every reader
//! ends in a structured error or a table that scans — never a panic, a
//! hang, or an allocation sized by a length the file merely claims.
//!
//! A seeded mutation loop over valid images of every encoding × column
//! kind. The mutations know the container's shape — preamble, header blob,
//! payload sections, dictionary sections — and aim at what a reader trusts:
//! bits anywhere, truncation, the header-length word, varint length fields
//! spliced over or into the header, payloads cut short so section offsets
//! point past the end of the file, and the dictionary area flipped or cut.
//!
//! The one panic a reader may raise is the documented one, and only a
//! *mapped* reader: its open settles what the header alone can, so a payload
//! that contradicts its zone maps surfaces when a scan dereferences the
//! code, exception marks that contradict their ranks when the frame is
//! decoded, and a dictionary section that fails the parser when the
//! column's first string is asked for. The loop accepts that panic only when
//! the heap decoder, which reads all three at open, names one of those faults.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::dictionary::{Dictionary, DictionaryBuilder};
use hillview_columnar::predicate::filter_members;
use hillview_columnar::{
    BlockCache, CodeStorage, ColumnKind, EncodingKind, F64Storage, I64Storage, MembershipSet,
    NullMask, Predicate, SegmentMode, Table, TempDir, ZoneMap,
};
use hillview_net::WireWriter;
use hillview_storage::{hvc, probe_file, read_file_mapped};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const ROWS: usize = 200;
const MUTANTS_PER_IMAGE: usize = 250;

/// The strings of both dictionary columns: every one is referenced, so each
/// column's dictionary section is [`dictionary_section`] whole.
const WORDS: [&str; 5] = ["ash", "birch", "cedar", "elm", "fir"];

fn dictionary() -> Dictionary {
    let mut db = DictionaryBuilder::new();
    for s in WORDS {
        db.intern(s).unwrap();
    }
    // Already in byte order, so the codes interning gave are final.
    db.finish(&mut [])
}

fn dictionary_section() -> Vec<u8> {
    dictionary().front_coded().to_vec()
}

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
/// all five encodings accept; the dates fall on day boundaries, so their
/// bit-packed descriptor carries a step.
fn images() -> Vec<Vec<u8>> {
    let values: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i / 3).collect();
    let days: Vec<i64> = values.iter().map(|v| v * 86_400_000).collect();
    let codes: Vec<u32> = (0..ROWS as u32).map(|i| i / 40).collect();
    let dict = Arc::new(dictionary());
    let mut nulls = NullMask::none();
    for i in (5..ROWS).step_by(17) {
        nulls.set_null(i, ROWS);
    }
    let ints: [fn(&[i64]) -> I64Storage; 5] = [
        |v| I64Storage::plain_of(v.to_vec()),
        |v| I64Storage::bit_packed_of(v).unwrap(),
        |v| I64Storage::run_length_of(v).unwrap(),
        |v| I64Storage::delta_of(v).unwrap(),
        |v| I64Storage::exceptions_of(v).unwrap(),
    ];
    let dicts: [fn(&[u32]) -> CodeStorage; 5] = [
        |v| CodeStorage::plain_of(v.to_vec()),
        |v| CodeStorage::bit_packed_of(v).unwrap(),
        |v| CodeStorage::run_length_of(v).unwrap(),
        |v| CodeStorage::delta_of(v).unwrap(),
        |v| CodeStorage::exceptions_of(v).unwrap(),
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
                    Column::Date(I64Column::with_storage(int(&days), NullMask::none())),
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

/// The magic, then the header blob's length as a `u32` LE.
const MAGIC: &[u8] = b"HVC10";
const PREAMBLE: usize = MAGIC.len() + 4;

/// One mutant of `img`, whose header blob is `img[PREAMBLE..PREAMBLE +
/// header_len]`.
fn mutate(img: &[u8], state: &mut u64) -> Vec<u8> {
    let length_word = MAGIC.len()..PREAMBLE;
    let header_len = u32::from_le_bytes(img[length_word.clone()].try_into().unwrap()) as usize;
    let header_end = PREAMBLE + header_len;
    let payload_base = header_end.div_ceil(64) * 64;
    // The file's tail: one section per dictionary column, back to back.
    let dictionaries = img.len() - 2 * dictionary_section().len();
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
    match below(state, 9) {
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
                3 => (img.len() - PREAMBLE) as u32,
                4 => (img.len() - PREAMBLE) as u32 + 1,
                _ => u32::MAX,
            };
            m[length_word].copy_from_slice(&word.to_le_bytes());
        }
        // A length field written over the header in place…
        4 => {
            let v = varint(lengths[below(state, lengths.len())]);
            let at = PREAMBLE + below(state, header_len);
            let n = v.len().min(header_end - at);
            m[at..at + n].copy_from_slice(&v[..n]);
        }
        // …or spliced into it, the length word kept honest so the parse
        // runs on into fields that have all shifted.
        5 => {
            let v = varint(lengths[below(state, lengths.len())]);
            let at = PREAMBLE + below(state, header_len);
            let drop = below(state, 3).min(header_end - at);
            m.splice(at..at + drop, v.iter().copied());
            let new_len = (header_len + v.len() - drop) as u32;
            m[length_word].copy_from_slice(&new_len.to_le_bytes());
        }
        // The header intact, the payload cut short: section offsets that
        // were valid now point past the end of the file.
        6 => m.truncate(payload_base + below(state, img.len() - payload_base)),
        // A bit in a dictionary section: a header, a suffix byte, the order…
        7 => {
            let at = dictionaries + below(state, img.len() - dictionaries);
            m[at] ^= 1 << below(state, 8);
        }
        // …or the file cut inside one.
        _ => m.truncate(dictionaries + below(state, img.len() - dictionaries)),
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
/// fault the heap decoder named (`contradiction`):
/// a code its zone map does not cover, exception marks their ranks do not
/// count, or a dictionary section the parser refuses.
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
                fault.contains("out of dictionary range")
                    || fault.contains("dictionary section")
                    || fault.contains("marks contradict their ranks"),
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
        let section = dictionary_section();
        assert!(img.ends_with(&[&section[..], &section[..]].concat()));
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
    assert!(
        contradictions > 10,
        "only {contradictions} faults left to a scan"
    );
    eprintln!("{rejected} rejected, {opened} opened, {contradictions} faults a mapped scan met");
}

/// The magic, the length word and the header `w` holds, padded to the
/// payload base.
fn preamble(w: WireWriter) -> Vec<u8> {
    let header = w.finish();
    let mut img = MAGIC.to_vec();
    img.extend((header.len() as u32).to_le_bytes());
    img.extend(&header[..]);
    img.resize(img.len().div_ceil(64) * 64, 0);
    img
}

/// One zone block in a column's integer domain: the block count, the
/// smallest image `m` (zigzagged for an Int, which the caller has done), the
/// gcd `g`, then the block's extremes as quotients `(image − m) / g`.
fn zone(w: &mut WireWriter, m: u64, g: u64, min: u64, max: u64) {
    w.put_varint(1);
    w.put_varint(m);
    w.put_varint(g);
    w.put_varint(min);
    w.put_varint(max);
}

/// Two rows of an Int column `n` = `[7, 9]` and a String column `s` with plain
/// codes `[0, 1]`, whose dictionary is `section` at the file's tail — `entries`
/// entries in `bytes` bytes at `rel` into the dictionary area, says the header.
fn dict_image(section: &[u8], entries: u64, bytes: u64, rel: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(2); // columns
    w.put_varint(2); // rows
    for (name, kind) in [("n", 0), ("s", 3)] {
        w.put_str(name);
        w.put_u8(kind);
        if kind == 0 {
            w.put_varint(1); // one null run...
            w.put_varint(2); // ...of present rows
        } else {
            w.put_varint(0); // the null runs of...
            w.put_varint(0); // ...column 0
            w.put_varint(entries);
            w.put_varint(bytes);
            w.put_varint(rel);
        }
        w.put_u8(0); // plain
        w.put_varint(2); // values
        w.put_varint(if kind == 3 { 64 } else { 0 }); // section offset
        if kind == 3 {
            zone(&mut w, 0, 1, 0, 1); // codes (0, 1)
        } else {
            zone(&mut w, 14, 2, 0, 1); // Int (7, 9): 7 zigzagged, a gcd of 2
        }
    }
    w.put_varint(72); // dictionary base: where the codes end
    let mut img = preamble(w);
    img.extend([7i64, 9].iter().flat_map(|v| v.to_le_bytes()));
    img.resize(img.len().div_ceil(64) * 64, 0);
    img.extend([0u32, 1].iter().flat_map(|c| c.to_le_bytes()));
    img.extend(section);
    img
}

/// Two rows of an Int column `n`, bit-packed from `base` at `width` bits and
/// `step` (flagged in the width byte and written out unless it is 1), over
/// the one packed word `word`; zone map `(min, max)`.
fn strided_image(base: i64, width: u8, step: u64, word: u64, (min, max): (i64, i64)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(1); // columns
    w.put_varint(2); // rows
    w.put_str("n");
    w.put_u8(0); // Int
    w.put_varint(1); // one null run...
    w.put_varint(2); // ...of present rows
    w.put_u8(1); // bit-packed
    w.put_varint(2); // values
    w.put_i64(base);
    if step == 1 {
        w.put_u8(width);
    } else {
        w.put_u8(width | 0x80);
        w.put_varint(step);
    }
    w.put_varint(u64::from(width > 0)); // words
    w.put_varint(0); // section offset
    w.put_varint(1); // one zone block...
    w.put_i64(min); // ...from its min...
    let span = (max as u64).wrapping_sub(min as u64);
    w.put_varint(span); // ...at a gcd of the whole span
    w.put_varint(0);
    w.put_varint(u64::from(span > 0));
    w.put_varint(8); // dictionary base: where the word ends
    let mut img = preamble(w);
    img.extend(word.to_le_bytes());
    img
}

#[test]
fn hostile_steps_end_in_an_error_or_a_table_that_scans() {
    // A step is the file's word, and `base + d · step` wraps wherever the
    // file says it does: no step may make a reader divide by zero, shift by
    // 64 or overflow, and a step the encoder never writes is refused.
    let dir = TempDir::new("hvc-steps");
    let path = dir.join("strided.hvc");
    let cache = BlockCache::unbounded();
    // (what, base, width, step): rows `d = 1` and `d = 2^width − 1`, or
    // two rows of `base` at width 0.
    let opened = [
        ("a day's stride", 0, 10, 86_400_000),
        ("step u64::MAX", 5, 4, u64::MAX),
        ("step 2^63", -3, 5, 1 << 63),
        ("base + top · step wraps", i64::MAX - 10, 3, 1 << 62),
        (
            "an odd step wrapping at width 31",
            i64::MIN,
            31,
            u64::MAX - 2,
        ),
        ("width 0 at step 1", 1_050, 0, 1),
    ];
    let rows = |width: u8| match width {
        0 => (0, 0),
        w => (1, (1u64 << w) - 1),
    };
    let row = |base: i64, step: u64, d: u64| base.wrapping_add(d.wrapping_mul(step) as i64);
    let image = |base, width, step| {
        let (first, second) = rows(width);
        let (a, b) = (row(base, step, first), row(base, step, second));
        strided_image(
            base,
            width,
            step,
            first | second << width,
            (a.min(b), a.max(b)),
        )
    };
    for (label, base, width, step) in opened {
        let img = image(base, width, step);
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Opened => {}
            Verdict::Rejected(e) => panic!("{label}: refused with {e}"),
        }
        let t = hvc::decode(&img).unwrap();
        let n = t.column_by_name("n").unwrap().as_i64_col().unwrap();
        let (first, second) = rows(width);
        let rows = (Some(row(base, step, first)), Some(row(base, step, second)));
        assert_eq!((n.get(0), n.get(1)), rows, "{label}");
    }
    for (label, img, fault) in [
        ("step 0", image(0, 4, 0), "step 0"),
        ("a step at width 0", image(0, 0, 2), "width 0, step 2"),
    ] {
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Rejected(e) => assert!(e.contains(fault), "{label}: {e}"),
            Verdict::Opened => panic!("{label}: accepted"),
        }
    }
}

/// Two rows of an Int column `n` around a fill of 3, in exceptions: `ranks`,
/// the one mark word `mark` at `marks_at` into the payload, then the
/// exceptions' descriptor, which `inner` writes, over a payload section at
/// 64 holding the one exception 9 (stored as 8); zone map `(3, 9)`, or
/// `(3, 3)` when no row is marked.
fn exceptions_image(
    ranks: &[u64],
    mark: u64,
    marks_at: u64,
    inner: impl FnOnce(&mut WireWriter),
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(1); // columns
    w.put_varint(2); // rows
    w.put_str("n");
    w.put_u8(0); // Int
    w.put_varint(1); // one null run...
    w.put_varint(2); // ...of present rows
    w.put_u8(4); // exceptions
    w.put_varint(2); // values
    w.put_i64(3); // fill
    w.put_varint(ranks.len() as u64);
    for &rank in ranks {
        w.put_varint(rank);
    }
    w.put_varint(1); // mark words
    w.put_varint(marks_at);
    inner(&mut w);
    zone(&mut w, 6, 6, 0, u64::from(mark != 0)); // 3 zigzagged, 9 = 3 + 6 · 1
    w.put_varint(72); // dictionary base: where the exception ends
    let mut img = preamble(w);
    img.extend(mark.to_le_bytes());
    img.resize(img.len().div_ceil(64) * 64, 0);
    // 9 is above the fill, so it is stored one lower.
    img.extend(8i64.to_le_bytes());
    img
}

/// The exceptions' descriptor: `count` plain values in the section at 64.
fn plain(count: u64) -> impl FnOnce(&mut WireWriter) {
    move |w| {
        w.put_u8(0);
        w.put_varint(count);
        w.put_varint(64);
    }
}

#[test]
fn crafted_exceptions_end_in_an_error_or_a_table_that_scans() {
    // Marks and ranks are the file's word: a structural contradiction the
    // header settles is an error at every open; one in the mark words
    // themselves is the heap decoder's to name at open, and a mapped scan's
    // to meet when it decodes the frame — a panic, never a wrong row.
    let dir = TempDir::new("hvc-exceptions");
    let path = dir.join("exceptions.hvc");
    let cache = BlockCache::unbounded();
    for (label, img, rows) in [
        (
            "row 1 marked",
            exceptions_image(&[0], 0b10, 0, plain(1)),
            (3, 9),
        ),
        ("no marks", exceptions_image(&[0], 0, 0, plain(0)), (3, 3)),
    ] {
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Opened => {}
            Verdict::Rejected(e) => panic!("{label}: refused with {e}"),
        }
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        for t in [hvc::decode(&img).unwrap(), mapped] {
            let n = t.column_by_name("n").unwrap().as_i64_col().unwrap();
            assert_eq!(
                (n.get(0), n.get(1)),
                (Some(rows.0), Some(rows.1)),
                "{label}"
            );
        }
    }
    let nested = |w: &mut WireWriter| {
        w.put_u8(4);
        w.put_varint(1);
    };
    // (what is wrong, the image, the fault, whether a mapped open names it)
    let refused: [(&str, Vec<u8>, &str, bool); 8] = [
        (
            "a nested exceptions descriptor",
            exceptions_image(&[0], 0b10, 0, nested),
            "nested exceptions descriptor",
            true,
        ),
        (
            "ranks that decrease",
            exceptions_image(&[1, 0], 0b10, 0, plain(1)),
            "exception ranks decrease",
            true,
        ),
        (
            "a rank past the exceptions",
            exceptions_image(&[2], 0b10, 0, plain(1)),
            "exception rank 2 exceeds 1 exceptions",
            true,
        ),
        (
            "more exceptions than rows",
            exceptions_image(&[0], 0b10, 0, plain(3)),
            "3 exceptions in 2 rows",
            true,
        ),
        (
            "a rank for a group that does not exist",
            exceptions_image(&[0, 1], 0b10, 0, plain(1)),
            "inconsistent exceptions section",
            true,
        ),
        (
            "marks the file cannot back",
            exceptions_image(&[0], 0b10, 1 << 20, |w: &mut WireWriter| {
                w.put_u8(0);
                w.put_varint(1);
                w.put_varint((1 << 20) + 64); // past the marks, in order
            }),
            "exceeds",
            true,
        ),
        (
            "two marks for one exception",
            exceptions_image(&[0], 0b11, 0, plain(1)),
            "exception marks contradict their ranks",
            false,
        ),
        (
            "a mark past the last row",
            exceptions_image(&[0], 0b100, 0, plain(1)),
            "exception marks contradict their ranks",
            false,
        ),
    ];
    for (label, img, fault, at_open) in refused {
        match verdict(&img, &path, &cache, label) {
            (Verdict::Rejected(e), contradiction) => {
                assert!(e.contains(fault), "{label}: expected {fault:?}, got {e}");
                match read_file_mapped(&path, &cache, SegmentMode::Auto) {
                    Err(e) => assert!(at_open && e.to_string().contains(fault), "{label}: {e}"),
                    Ok(_) => assert!(!at_open && contradiction, "{label}: scanned"),
                }
            }
            (Verdict::Opened, _) => panic!("{label}: accepted"),
        }
    }
}

/// A front-coded entry whose prefix and suffix lengths each fit a nibble:
/// the header byte, then the suffix bytes.
fn entry(prefix: u8, suffix: &[u8]) -> Vec<u8> {
    assert!(prefix < 15 && suffix.len() < 15);
    [&[prefix << 4 | suffix.len() as u8][..], suffix].concat()
}

#[test]
fn crafted_dictionaries_end_in_an_error_or_a_table_that_scans() {
    // The dictionary parse takes a section's bytes as the column's arena,
    // so every header, escape, prefix and suffix, the entry count and the
    // section's place are the file's word against the parser's checks. The
    // heap decode runs them at open. A mapped open runs the ones the header
    // can settle; the rest wait for the first string, and until then every
    // other column answers.
    let dir = TempDir::new("hvc-dicts");
    let path = dir.join("crafted.hvc");
    // The mapped tier under a budget of one page: whatever else is resident
    // when a first touch comes is evictable.
    let cache = BlockCache::new(4096);
    let whole = |section: Vec<u8>, entries: u64| {
        let bytes = section.len() as u64;
        dict_image(&section, entries, bytes, 0)
    };
    // "é" whole, then "éa" as the two bytes it shares and one more.
    let sound = whole([entry(0, "é".as_bytes()), entry(2, b"a")].concat(), 2);
    std::fs::write(&path, &sound).unwrap();
    let lazy = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
    let heap = hvc::decode(&sound).expect("the well-formed image decodes");
    for t in [heap, lazy] {
        assert_eq!(t.full_row(0).values[1].as_str(), Some("é"));
        assert_eq!(t.full_row(1).values[1].as_str(), Some("éa"));
    }

    let ab = || [entry(0, b"a"), entry(0, b"b")].concat();
    let two = |first: Vec<u8>, second: Vec<u8>| whole([first, second].concat(), 2);
    // (what is wrong, the image, the fault the readers name, whether a mapped
    // open can name it from the header and the file's length alone)
    let refused: [(&str, Vec<u8>, &str, bool); 19] = [
        (
            "a suffix running past the section",
            two(entry(0, b"a"), vec![0x05, b'b']),
            "entry 1: truncated",
            false,
        ),
        (
            // The bytes are there, but they are the next entry's.
            "an entry swallowing its successor",
            two(vec![0x03, b'a'], entry(0, b"b")),
            "entry 1: truncated",
            false,
        ),
        (
            "an escape that overflows",
            two(vec![0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], entry(0, b"b")),
            "entry 0: escape overflows",
            false,
        ),
        (
            "an escape spelt with a padding byte",
            two(vec![0x0F, 0x80, 0x00], entry(0, b"b")),
            "entry 0: non-canonical escape",
            false,
        ),
        (
            "invalid UTF-8 inside a suffix",
            two(entry(0, b"a\xFF"), entry(0, b"b")),
            "UTF-8",
            false,
        ),
        (
            // Valid as a whole arena ("é"), invalid entry by entry.
            "a character split across two entries",
            two(entry(0, b"\xC3"), entry(0, b"\xA9")),
            "UTF-8",
            false,
        ),
        (
            "a duplicate entry",
            two(entry(0, b"a"), entry(0, b"a")),
            "entry 1: not ascending",
            false,
        ),
        (
            "entries out of order",
            two(entry(0, b"b"), entry(0, b"a")),
            "entry 1: not ascending",
            false,
        ),
        (
            "a prefix longer than the previous entry",
            two(entry(0, b"a"), entry(2, b"b")),
            "entry 1: prefix of 2 bytes exceeds the previous 1",
            false,
        ),
        (
            "a prefix that ends mid-character",
            two(entry(0, "é".as_bytes()), entry(1, b"b")),
            "entry 1: prefix of 1 bytes ends mid-character",
            false,
        ),
        (
            "a prefix shorter than the longest shared",
            two(entry(0, b"ab"), entry(0, b"ac")),
            "entry 1: prefix of 0 bytes is not the longest shared",
            false,
        ),
        (
            "a bucket's first entry that claims a prefix",
            two(entry(1, b"a"), entry(0, b"b")),
            "entry 0: opens a bucket",
            false,
        ),
        (
            "more entries than the section has bytes",
            whole(ab(), 1 << 27),
            "entries exceed its 4 bytes",
            false,
        ),
        (
            "one entry more than was written",
            whole(ab(), 3),
            "entry 2: truncated",
            false,
        ),
        (
            "two entries fewer than were written",
            whole([ab(), entry(0, b"c"), entry(0, b"d")].concat(), 2),
            "4 bytes follow its 2 entries",
            false,
        ),
        (
            "a section cut inside its last entry",
            dict_image(&ab(), 2, 3, 0),
            "entry 1: truncated",
            false,
        ),
        (
            "a section longer than the file",
            dict_image(&ab(), 2, 5, 0),
            "exceeds file length",
            true,
        ),
        (
            "a section offset past the end of the file",
            dict_image(&ab(), 2, 4, 1),
            "exceeds file length",
            true,
        ),
        (
            "a section offset that overflows",
            dict_image(&ab(), 2, 4, u64::MAX),
            "exceeds file length",
            true,
        ),
    ];
    for (label, img, fault, at_open) in refused {
        let names_fault = |e: &str| e.to_lowercase().contains(&fault.to_lowercase());
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Rejected(e) => {
                assert!(names_fault(&e), "{label}: expected {fault:?}, got {e}")
            }
            Verdict::Opened => panic!("{label}: accepted"),
        }
        let mapped = match read_file_mapped(&path, &cache, SegmentMode::Auto) {
            Err(e) => {
                assert!(
                    at_open,
                    "{label}: a mapped open read the section to say {e}"
                );
                assert!(
                    names_fault(&e.to_string()),
                    "{label}: expected {fault:?}, got {e}"
                );
                continue;
            }
            Ok(t) => t,
        };
        assert!(!at_open, "{label}: a mapped open let it through");
        // Nothing of the section has been parsed, and the column beside
        // it scans as if nothing were wrong.
        let strings = mapped.column_by_name("s").unwrap().as_dict_col().unwrap();
        assert_eq!(strings.dictionary().heap_bytes(), 0, "{label}");
        let n = mapped.column_by_name("n").unwrap().as_i64_col().unwrap();
        assert_eq!((n.get(0), n.get(1)), (Some(7), Some(9)), "{label}");
        // The first string asked for runs the parser, which says what
        // the heap decoder said — and names the column and the file.
        let touched = catch_unwind(AssertUnwindSafe(|| {
            strings.read(0, &mut String::new()).map(str::to_owned)
        }));
        let panic = touched.expect_err("the first touch must not hand out a string");
        let said = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(said.contains("column \"s\""), "{label}: {said}");
        assert!(said.contains("crafted.hvc"), "{label}: {said}");
        assert!(names_fault(said), "{label}: expected {fault:?}, got {said}");
    }
}

/// Per column, the varints of its null runs.
type Runs<'a> = &'a [&'a [u64]];

/// Two rows in each of the Int columns `n0`, `n1`, … — all of them the
/// values `[7, 9]`, each column's in a plain section of its own — whose null
/// runs are written as the varints of `runs[c]`: a count and the lengths, or
/// a 0 and the column they repeat; a column with rows both null and present
/// writes its present extremes after its zone map, as the varints of
/// `extremes[c]` (offsets above 7).
fn null_runs_image(runs: Runs, extremes: Runs) -> Vec<u8> {
    let at: Vec<u64> = (0..runs.len() as u64).map(|c| 64 * c).collect();
    sections_image(runs, extremes, &at)
}

/// The columns of [`null_runs_image`], column `c`'s plain section `at[c]`
/// bytes into the payload.
fn sections_image(runs: Runs, extremes: Runs, at: &[u64]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(runs.len() as u64); // columns
    w.put_varint(2); // rows
    for (c, varints) in runs.iter().enumerate() {
        w.put_str(&format!("n{c}"));
        w.put_u8(0); // Int
        for &v in *varints {
            w.put_varint(v);
        }
        w.put_u8(0); // plain
        w.put_varint(2); // values
        w.put_varint(at[c]); // section offset
        zone(&mut w, 14, 2, 0, 1); // (7, 9)
        for &v in extremes.get(c).copied().unwrap_or_default() {
            w.put_varint(v);
        }
    }
    let end = at.iter().max().map_or(0, |&a| a as usize + 16);
    w.put_varint(end as u64); // dictionary base: where the values end
    let mut img = preamble(w);
    let base = img.len();
    img.resize(base + end, 0);
    for &a in at {
        let a = base + a as usize;
        img[a..a + 16].copy_from_slice(&[7i64, 9].map(i64::to_le_bytes).concat());
    }
    img
}

/// Put `img` to every open and expect each to refuse it, naming `fault`.
#[track_caller]
fn refused_by_every_open(
    img: &[u8],
    path: &Path,
    cache: &Arc<BlockCache>,
    label: &str,
    fault: &str,
) {
    match verdict(img, path, cache, label).0 {
        Verdict::Rejected(e) => assert!(e.contains(fault), "{label}: expected {fault:?}, got {e}"),
        Verdict::Opened => panic!("{label}: accepted"),
    }
    for e in [
        read_file_mapped(path, cache, SegmentMode::Auto).map(drop),
        probe_file(path).map(drop),
    ] {
        let e = e.expect_err(label).to_string();
        assert!(e.contains(fault), "{label}: expected {fault:?}, got {e}");
    }
}

#[test]
fn crafted_null_runs_have_one_spelling() {
    // A mask has one image: runs alternate, so only the first may be empty,
    // and a column whose runs repeat an earlier column's names the first
    // column that wrote them out. Any other spelling is refused by every
    // open, from the header alone.
    let dir = TempDir::new("hvc-null-runs");
    let path = dir.join("nulls.hvc");
    let cache = BlockCache::unbounded();
    // With the present rows' extremes of a column that has both: 9 alone,
    // or 7 alone.
    let opened: [(&str, Runs, Runs, &[[bool; 2]]); 4] = [
        ("no row missing", &[&[1, 2]], &[], &[[false, false]]),
        (
            "the first row missing",
            &[&[3, 0, 1, 1]],
            &[&[2, 2]],
            &[[true, false]],
        ),
        ("every row missing", &[&[2, 0, 2]], &[], &[[true, true]]),
        (
            "a repeat written as a reference",
            &[&[2, 1, 1], &[1, 2], &[0, 0]],
            &[&[0, 0], &[], &[0, 0]],
            &[[false, true], [false, false], [false, true]],
        ),
    ];
    for (label, runs, extremes, missing) in opened {
        let img = null_runs_image(runs, extremes);
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Opened => {}
            Verdict::Rejected(e) => panic!("{label}: refused with {e}"),
        }
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        for t in [hvc::decode(&img).unwrap(), mapped] {
            for (c, missing) in missing.iter().enumerate() {
                let col = t.column(c);
                assert_eq!([col.is_null(0), col.is_null(1)], *missing, "{label}: n{c}");
            }
        }
    }
    let refused: [(&str, Runs, &str); 6] = [
        ("an empty run inside", &[&[3, 1, 0, 1]], "empty null run 1"),
        ("a trailing empty run", &[&[2, 2, 0]], "empty null run 1"),
        (
            "runs repeated in full",
            &[&[1, 2], &[1, 2]],
            "null runs repeat column 0's in full",
        ),
        (
            "a reference to the column itself",
            &[&[0, 0]],
            "refer to column 0, not an earlier one",
        ),
        (
            "a reference to a later column",
            &[&[0, 1], &[1, 2]],
            "refer to column 1, not an earlier one",
        ),
        (
            "a reference to a reference",
            &[&[1, 2], &[0, 0], &[0, 1]],
            "refer to column 1, itself a reference",
        ),
    ];
    for (label, runs, fault) in refused {
        refused_by_every_open(&null_runs_image(runs, &[]), &path, &cache, label, fault);
    }
}

#[test]
fn crafted_sections_have_one_meaning() {
    // A payload section is one column's and lies after the one before it in
    // the header: then a mapped open can give each its own chunk grid. Two
    // columns naming one section, a section starting inside another and
    // sections out of order are refused by every open, from the header
    // alone; sections back to back open.
    let dir = TempDir::new("hvc-sections");
    let path = dir.join("sections.hvc");
    let cache = BlockCache::unbounded();
    let runs: Runs = &[&[1, 2], &[0, 0]];
    let img = sections_image(runs, &[], &[0, 16]);
    match verdict(&img, &path, &cache, "back to back").0 {
        Verdict::Opened => {}
        Verdict::Rejected(e) => panic!("back to back: refused with {e}"),
    }
    let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
    for t in [hvc::decode(&img).unwrap(), mapped] {
        for c in 0..2 {
            let col = t.column(c).as_i64_col().unwrap();
            assert_eq!((col.get(0), col.get(1)), (Some(7), Some(9)), "n{c}");
        }
    }
    let refused: [(&str, &[u64]); 3] = [
        ("two columns naming one section", &[0, 0]),
        ("a section that starts inside another", &[0, 8]),
        ("sections out of order", &[64, 0]),
    ];
    for (label, at) in refused {
        let fault = "starts before the previous one ends";
        refused_by_every_open(&sections_image(runs, &[], at), &path, &cache, label, fault);
    }
}

/// Two rows of one column `n`, with the zone map `zones` writes: Int values
/// `[7, 9]` in a plain section, or (`double`) the doubles `[3.0, -1.0]` as
/// the run-length sign-magnitude codes `[6, 3]`.
fn zoned_image(double: bool, zones: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(1); // columns
    w.put_varint(2); // rows
    w.put_str("n");
    w.put_u8(if double { 2 } else { 0 });
    w.put_varint(1); // one null run...
    w.put_varint(2); // ...of present rows
    if double {
        w.put_u8(2); // run-length
        w.put_varint(2); // values
        w.put_varint(2); // runs
        for code in [6, 3] {
            w.put_i64(code);
            w.put_varint(1);
        }
    } else {
        w.put_u8(0); // plain
        w.put_varint(2); // values
        w.put_varint(0); // section offset
    }
    zones(&mut w);
    w.put_varint(16); // dictionary base: where the values end
    let mut img = preamble(w);
    img.extend([7i64, 9].iter().flat_map(|v| v.to_le_bytes()));
    img
}

#[test]
fn crafted_zone_maps_are_held_to_their_rows() {
    // A zone map decides which blocks a range predicate reads, so a wrong
    // one is a wrong chart, not a crash. Every open recomputes each extreme
    // exactly, refuses one outside its column's domain and a block whose
    // minimum sits above its maximum; the heap open also rebuilds the map
    // from the payload it decodes and refuses any difference.
    let dir = TempDir::new("hvc-zones");
    let path = dir.join("zones.hvc");
    let cache = BlockCache::unbounded();
    for (label, img) in [
        ("Int (7, 9)", zoned_image(false, |w| zone(w, 14, 2, 0, 1))),
        (
            "doubles (-1, 3)",
            zoned_image(true, |w| zone(w, 3, 3, 0, 1)),
        ),
    ] {
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Opened => {}
            Verdict::Rejected(e) => panic!("{label}: refused with {e}"),
        }
    }

    // The header alone cannot tell a zone max of 8 from the 9 the payload
    // holds: a mapped open takes it, the heap open names column and block.
    let low_max = zoned_image(false, |w| zone(w, 14, 1, 0, 1));
    match verdict(&low_max, &path, &cache, "a zone max below a row").0 {
        Verdict::Rejected(e) => assert!(
            e.contains("column \"n\": zone block 0 says (7, 8) but its rows span (7, 9)"),
            "{e}"
        ),
        Verdict::Opened => panic!("a zone max below a row: accepted"),
    }
    read_file_mapped(&path, &cache, SegmentMode::Auto).expect("a mapped open reads no row");

    let refused: [(&str, Vec<u8>, &str); 6] = [
        (
            "an Int block whose min is above its max",
            zoned_image(false, |w| zone(w, 14, 2, 1, 0)),
            "zone block 0 has min 9 above max 7",
        ),
        (
            // Codes 2 and 3 ascend, the values they stand for do not.
            "a double block whose min is above its max",
            zoned_image(true, |w| zone(w, 2, 1, 0, 1)),
            "zone block 0 has min 1.0 above max -1.0",
        ),
        (
            "an Int extreme past i64::MAX",
            zoned_image(false, |w| zone(w, u64::MAX - 1, 1, 0, 1)),
            "zone extreme 9223372036854775807 + 1 · 1 out of its domain",
        ),
        (
            "a double extreme of magnitude 2^53 + 1",
            zoned_image(true, |w| zone(w, (1 << 54) + 2, 0, 0, 0)),
            "zone extreme 18014398509481986 + 0 · 0 out of its domain",
        ),
        (
            "a gcd times a quotient past u64",
            zoned_image(false, |w| zone(w, 14, u64::MAX, 0, 2)),
            "out of its domain",
        ),
        (
            "a double extreme written as a negative code",
            zoned_image(true, |w| zone(w, u64::MAX, 1, 0, 0)),
            "out of its domain",
        ),
    ];
    for (label, img, fault) in refused {
        refused_by_every_open(&img, &path, &cache, label, fault);
    }
}

/// Three rows of one column `n`, the middle one null, with the zone map of
/// one block and the present extremes `extremes` writes: Int values `[7, _,
/// 9]` (the null row holding 0) in a plain section, or (`double`) the raw
/// doubles `[0.5, _, 2.5]` (the null row holding 0.0).
fn extremes_image(double: bool, extremes: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(1); // columns
    w.put_varint(3); // rows
    w.put_str("n");
    w.put_u8(if double { 2 } else { 0 });
    for run in [3, 1, 1, 1] {
        w.put_varint(run); // three runs: present, missing, present
    }
    w.put_u8(0); // plain
    w.put_varint(3); // values
    w.put_varint(0); // section offset
    if double {
        w.put_varint(1); // one raw zone block
        w.put_f64(0.0);
        w.put_f64(2.5);
    } else {
        zone(&mut w, 0, 9, 0, 1); // (0, 9): from 0 at a gcd of 9
    }
    extremes(&mut w);
    w.put_varint(24); // dictionary base: where the values end
    let mut img = preamble(w);
    if double {
        img.extend([0.5f64, 0.0, 2.5].iter().flat_map(|v| v.to_le_bytes()));
    } else {
        img.extend([7i64, 0, 9].iter().flat_map(|v| v.to_le_bytes()));
    }
    img
}

#[test]
fn crafted_statistics_are_held_to_their_rows() {
    // A nullable numeric column's header holds its present rows' extremes,
    // which answer a range with no scan — so a wrong pair is a wrong chart.
    // Every open holds them in order and inside the zones, which fold every
    // row; the heap open also recomputes them from the payload and refuses
    // any difference, where a mapped open, which reads no row, trusts them.
    let dir = TempDir::new("hvc-extremes");
    let path = dir.join("extremes.hvc");
    let cache = BlockCache::unbounded();
    let (int, raw) = (
        extremes_image(false, |w| [7, 9].into_iter().for_each(|q| w.put_varint(q))),
        extremes_image(true, |w| [0.5, 2.5].into_iter().for_each(|v| w.put_f64(v))),
    );
    for (label, img, want) in [("Int", int, (7.0, 9.0)), ("raw", raw, (0.5, 2.5))] {
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Opened => {}
            Verdict::Rejected(e) => panic!("{label}: refused with {e}"),
        }
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        for t in [hvc::decode(&img).unwrap(), mapped] {
            let extremes = match t.column(0) {
                Column::Int(c) => c.extremes().map(|(a, b)| (a as f64, b as f64)),
                Column::Double(c) => c.extremes(),
                _ => None,
            };
            assert_eq!(extremes, Some(want), "{label}");
        }
    }

    for (label, img, said) in [
        (
            "an Int minimum no row holds",
            extremes_image(false, |w| [8, 9].into_iter().for_each(|q| w.put_varint(q))),
            "Some((8, 9)) but they span Some((7, 9))",
        ),
        (
            "a raw maximum no row holds",
            extremes_image(true, |w| [0.5, 2.0].into_iter().for_each(|v| w.put_f64(v))),
            "Some((0.5, 2.0)) but they span Some((0.5, 2.5))",
        ),
    ] {
        match verdict(&img, &path, &cache, label).0 {
            Verdict::Rejected(e) => assert!(e.contains(said), "{label}: {e}"),
            Verdict::Opened => panic!("{label}: accepted"),
        }
        read_file_mapped(&path, &cache, SegmentMode::Auto).expect("a mapped open reads no row");
    }

    let refused: [(&str, Vec<u8>, &str); 4] = [
        (
            "an Int minimum above its maximum",
            extremes_image(false, |w| [9, 7].into_iter().for_each(|q| w.put_varint(q))),
            "present rows span 9..=7, not inside its zones' 0..=9",
        ),
        (
            "an Int extreme past its zones",
            extremes_image(false, |w| [7, 10].into_iter().for_each(|q| w.put_varint(q))),
            "extreme 10 past its zones",
        ),
        (
            "a raw extreme outside its zones",
            extremes_image(true, |w| [-0.5, 2.5].into_iter().for_each(|v| w.put_f64(v))),
            "present rows span -0.5..=2.5, not inside its zones' 0.0..=2.5",
        ),
        (
            "a NaN extreme",
            extremes_image(true, |w| {
                [f64::NAN, 2.5].into_iter().for_each(|v| w.put_f64(v))
            }),
            "present rows span NaN..=2.5",
        ),
    ];
    for (label, img, fault) in refused {
        refused_by_every_open(&img, &path, &cache, label, fault);
    }
}

/// Tables whose zone extremes sit on every edge of their domains, above
/// any drawn rows: an Int block spanning `i64::MIN..=i64::MAX`; integral
/// doubles, stored as codes in a drawn encoding, with a block of only the
/// two zeros and one spanning `±2^53`; raw doubles with an all-NaN block and
/// one reaching both infinities; strings.
fn edge_tables() -> impl Strategy<Value = Table> {
    let row = (
        any::<i64>(),
        0u8..8,
        -70i64..70,
        proptest::option::weighted(0.9, "[a-c]{0,3}"),
    );
    let rows = proptest::collection::vec(row, 0..300);
    (rows, 0usize..4).prop_map(|(rows, encoding)| {
        const EDGE: usize = 128;
        const TOP: f64 = (1u64 << 53) as f64;
        let n = EDGE + rows.len();
        let drawn = |i: usize| &rows[i - EDGE];
        let ints: Vec<i64> = (0..n)
            .map(|i| match i {
                0 => i64::MIN,
                1 => i64::MAX,
                _ if i < EDGE => 0,
                _ => match drawn(i) {
                    (_, 0, ..) => i64::MIN,
                    (_, 1, ..) => i64::MAX,
                    (_, 2 | 3, small, _) => *small,
                    (any, ..) => *any,
                },
            })
            .collect();
        let whole: Vec<f64> = (0..n)
            .map(|i| match i {
                _ if i < 64 => [-0.0, 0.0][i % 2],
                64 => TOP,
                65 => -TOP,
                _ if i < EDGE => 0.0,
                _ => match drawn(i) {
                    (_, 0, ..) => TOP,
                    (_, 1, ..) => -TOP,
                    (_, 2, ..) => -0.0,
                    (_, _, small, _) => *small as f64,
                },
            })
            .collect();
        let codes = F64Storage::codes_of(&whole).unwrap();
        let coded = match encoding {
            0 => I64Storage::run_length_of(&codes),
            1 => I64Storage::delta_of(&codes),
            2 => I64Storage::exceptions_of(&codes),
            _ => None,
        };
        let coded = coded.or_else(|| I64Storage::bit_packed_of(&codes)).unwrap();
        let raw: Vec<f64> = (0..n)
            .map(|i| match i {
                _ if i < 64 => f64::NAN,
                64 => f64::INFINITY,
                65 => f64::NEG_INFINITY,
                _ if i < EDGE => 0.5,
                _ => match drawn(i) {
                    (_, 0, ..) => f64::NAN,
                    (_, 1, ..) => f64::INFINITY,
                    (_, 2, ..) => f64::NEG_INFINITY,
                    (_, 3, ..) => -0.0,
                    (_, _, small, _) => *small as f64 + 0.5,
                },
            })
            .collect();
        let strings = (0..n).map(|i| {
            if i < EDGE {
                None
            } else {
                drawn(i).3.as_deref()
            }
        });
        Table::builder()
            .column(
                "i",
                ColumnKind::Int,
                Column::Int(I64Column::new(ints, NullMask::none())),
            )
            .column(
                "w",
                ColumnKind::Double,
                Column::Double(F64Column::from_parts(
                    F64Storage::Integral(coded),
                    NullMask::none(),
                    ZoneMap::from_f64(&whole),
                )),
            )
            .column(
                "f",
                ColumnKind::Double,
                Column::Double(F64Column::new(raw, NullMask::none())),
            )
            .column(
                "s",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(strings)),
            )
            .build()
            .unwrap()
    })
}

/// Every zone extreme of `col`, as bits: `f64` equality cannot tell the two
/// zeros apart, nor a NaN from itself.
fn zone_bits(col: &Column) -> Vec<u64> {
    fn bits<T: Copy>(z: &ZoneMap<T>, bits: impl Fn(T) -> u64) -> Vec<u64> {
        z.mins().iter().chain(z.maxs()).map(|&v| bits(v)).collect()
    }
    match col {
        Column::Int(c) | Column::Date(c) => bits(c.zones(), |v| v as u64),
        Column::Double(c) => bits(c.zones(), f64::to_bits),
        Column::Str(c) | Column::Cat(c) => bits(c.zones(), u64::from),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A file gives back every zone extreme it was given, bit for bit, to
    /// both opens — and the heap open, which rebuilds each map from the
    /// payload, agrees with what the writer wrote.
    #[test]
    fn zone_extremes_round_trip_bit_for_bit(t in edge_tables()) {
        let dir = TempDir::new("hvc-zone-trip");
        let path = dir.join("edges.hvc");
        hvc::write_file(&t, &path).unwrap();
        let cache = BlockCache::unbounded();
        let heap = hvc::read_file(&path).unwrap();
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        prop_assert!(t.column(1).as_f64_col().unwrap().data().kind() != EncodingKind::Plain);
        for back in [heap, mapped] {
            for c in 0..t.num_columns() {
                prop_assert_eq!(zone_bits(back.column(c)), zone_bits(t.column(c)));
            }
        }
    }
}
