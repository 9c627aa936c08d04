//! Frame-decode probes for tuning the block decoders, none of which the
//! end-to-end benchmark isolates: whole-frame bit-unpack throughput per
//! width (read it when touching `unpack_span`), text search through the
//! filter pipeline (the display-format path must reuse one scratch buffer
//! — no per-row `String` — and case-insensitive matching must fold
//! without allocating; read it when touching `text_match` or the
//! `MatchDisplay`/`MatchCodes` predicate leaves), and the frame-decode cost
//! of an encoded double column against its raw form and against its
//! integer codes alone — the difference to the codes is the 64-lane
//! code → `f64` convert. Every pass covers 1M rows, so ns/row is a
//! median over 1e6. `dict_open` and `header_parse` are the open path
//! instead. `dict_open` opens a one-column part that is all dictionary (a
//! 65 000-row slice of flights' `TailNum`): decoded on the heap, which
//! parses the section at once; opened mapped and left alone, which only
//! locates it; and opened mapped and asked for one string, which parses it
//! then — per dictionary entry; read it when touching
//! `Dictionary::from_front_coded`, `hvc`'s dictionary parser.
//! `dict_get_random` and `dict_walk` read that part's opened dictionary: a
//! point read per entry in random code order (each walks up to 15
//! front-coded predecessors), and one sequential `for_each` — what a random
//! read costs against a walk, per entry. `header_parse`
//! splits what a mapped open of all 29 flights columns still costs, by
//! opening the same part with one ingredient of its header taken away at a
//! time: null runs, inline run-length tables, then all but one block of
//! every zone map — read it before making any of them lazy.

use super::data::{self, ROWS as N};
use super::filter;
use hillview_bench::harness::{Registered, Suite};
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{
    BlockCache, CodeStorage, ColumnKind, EncodingKind, F64Storage, I64Storage, NullMask, Predicate,
    ScanSource, SegmentMode, StrMatchKind, Table, TempDir, BLOCK_ROWS,
};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_storage::partition::slice_table;
use hillview_storage::{hvc, read_file_mapped};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub const SUITE: Registered = Registered {
    name: "decode",
    about: "decoder probes over 1M rows: bit-unpack per width, text filter rowwise vs block, \
            integral-double frame decode vs plain vs codes only (median ns per pass; ns/row for \
            the double decode); dict_open: a 65 000-row TailNum part decoded on the heap, opened \
            mapped and left alone, opened mapped and asked for a string, ns per dictionary entry; \
            dict_get_random / dict_walk: that dictionary's point reads in random code order vs one \
            sequential walk, ns per entry; header_parse: a mapped open of a 65 000-row, 29-column flights part, whole and with \
            null runs, run-length tables and zone-map blocks taken away in turn",
    run,
};

/// One pass over every 64-row frame of `s`, folding one lane per frame
/// through `sink` so the decode cannot be elided.
fn pass<T: Copy + Default, S: ScanSource<T>>(s: &S, sink: impl Fn(T) -> u64) -> u64 {
    let mut buf = [T::default(); BLOCK_ROWS];
    let (mut cursor, mut sum) = (0usize, 0u64);
    for base in (0..N).step_by(BLOCK_ROWS) {
        let lanes = s.decode_frame(&mut cursor, base, BLOCK_ROWS.min(N - base), &mut buf);
        sum = sum.wrapping_add(sink(lanes[lanes.len() - 1]));
    }
    sum
}

fn run(suite: &mut Suite) {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for width in [1usize, 4, 8, 12, 16, 20, 31] {
        let vals: Vec<i64> = (0..N)
            .map(|_| (rng.gen::<u64>() % (1 << width)) as i64)
            .collect();
        let s = I64Storage::bit_packed_of(&vals).unwrap();
        suite
            .case(&format!("unpack_width_{width:02}"))
            .time("pass", || pass(&s, |v: i64| v as u64));
    }

    let ids = data::int_table((0..N as i64).map(|i| i * 37 % 1_000_003).collect());
    let carriers = ["UA", "AA", "DL", "gandalf-airlines"];
    let carriers = DictColumn::from_strings((0..N).map(|i| Some(carriers[i % 4])));
    let carriers = Table::builder()
        .column("X", ColumnKind::Category, Column::Cat(carriers))
        .build()
        .unwrap();
    let substring = |needle, ignore_case| {
        Predicate::str_match("X", needle, StrMatchKind::Substring, ignore_case)
    };
    // The display path: digits are formatted per row to be searched.
    let numeric = "text_substring_numeric_display";
    filter::case(suite, numeric, &ids, substring("999", false));
    let folded = "text_ci_substring_numeric";
    filter::case(suite, folded, &ids, substring("999", true));
    let dictionary = "text_ci_substring_dictionary";
    filter::case(suite, dictionary, &carriers, substring("GANDALF", true));

    let vals: Vec<f64> = (0..N).map(|i| ((i * 7919) % 700) as f64 - 60.0).collect();
    let ints = I64Storage::encode(F64Storage::codes_of(&vals).unwrap());
    let encoded = F64Storage::encode(vals.clone());
    assert!(matches!(encoded, F64Storage::Integral(_)));
    let plain = F64Storage::Plain(vals.into());
    assert_eq!(pass(&plain, f64::to_bits), pass(&encoded, f64::to_bits));
    let case = suite.case("integral_double_decode");
    case.time("plain", || pass(&plain, f64::to_bits))
        .time("encoded", || pass(&encoded, f64::to_bits))
        .time("codes_only", || pass(&ints, |v: i64| v as u64));
    for variant in ["plain", "encoded", "codes_only"] {
        let ns_per_row = case.median_ns(variant) as f64 / N as f64;
        case.fact(&format!("{variant}_ns_per_row"), ns_per_row);
    }

    // The second of four 65 000-row parts, as the benchmark's flights spill.
    let rows = 65_000;
    let flights = generate_flights(&FlightsConfig::new(4 * rows, 7));
    let tails = flights.column_by_name("TailNum").unwrap().clone();
    let tails = Table::builder()
        .column("TailNum", ColumnKind::String, tails)
        .build()
        .unwrap();
    let part = slice_table(&tails, rows, 2 * rows);
    let img = hvc::encode(&part);
    let open = || hvc::decode(&img).unwrap();
    let opened = open();
    let strings = |t: &Table| -> Vec<Option<String>> {
        let col = t.column(0).as_dict_col().unwrap();
        let mut buf = String::new();
        (0..t.num_rows())
            .map(|r| col.read(r, &mut buf).map(str::to_owned))
            .collect()
    };
    assert_eq!(strings(&opened), strings(&part));
    let entries = opened.column(0).as_dict_col().unwrap().dictionary().len();
    let dir = TempDir::new("bench-decode");
    let cache = &BlockCache::unbounded();
    let open_mapped = |t: &Table, name: &str| {
        let path = dir.join(name);
        hvc::write_file(t, &path).unwrap();
        move || read_file_mapped(&path, cache, SegmentMode::Auto).unwrap()
    };
    let untouched = open_mapped(&part, "tails.hvc");
    let first_touch = || {
        let t = untouched();
        let dict = t.column(0).as_dict_col().unwrap().dictionary();
        let first = dict.read(0, &mut String::new()).len();
        (t, first)
    };
    assert_eq!(strings(&untouched()), strings(&part));
    let case = suite.case("dict_open");
    case.fact("entries", entries as f64)
        .time("decode", open)
        .time("mapped_open_untouched", &untouched)
        .time("first_touch", first_touch);
    let per_entry = |ns: u64| ns as f64 / entries as f64;
    case.fact("ns_per_entry", per_entry(case.median_ns("decode")));
    let parse = case.median_ns("first_touch") - case.median_ns("mapped_open_untouched");
    case.fact("first_touch_ns_per_entry", per_entry(parse));

    // The opened dictionary read two ways: one point read per entry, in a
    // random code order (each decodes from its bucket's first entry), and
    // one sequential walk of every entry.
    let dict = opened.column(0).as_dict_col().unwrap().dictionary();
    let codes: Vec<u32> = (0..entries)
        .map(|_| (rng.gen::<u64>() % entries as u64) as u32)
        .collect();
    let mut buf = String::new();
    let case = suite.case("dict_get_random");
    case.fact("entries", entries as f64).time("read", || {
        codes
            .iter()
            .map(|&c| dict.read(c, &mut buf).len())
            .sum::<usize>()
    });
    case.fact("ns_per_read", per_entry(case.median_ns("read")));
    let case = suite.case("dict_walk");
    case.fact("entries", entries as f64).time("for_each", || {
        let mut bytes = 0;
        dict.for_each(|_, s| bytes += s.len());
        bytes
    });
    case.fact("ns_per_entry", per_entry(case.median_ns("for_each")));

    // The same part of the same flights, every column.
    let whole = slice_table(&flights, rows, 2 * rows);
    // `t` with every null mask cleared, and (`unrun`) every run-length table
    // re-stored bit-packed: what is left of the header is names, descriptors
    // and zone maps.
    let stripped = |t: &Table, unrun: bool| {
        let ints = |s: &I64Storage| match s.kind() {
            EncodingKind::RunLength if unrun => {
                I64Storage::bit_packed_of(&s.decode_range(0, s.len())).unwrap()
            }
            _ => s.clone(),
        };
        let codes = |s: &CodeStorage| match s.kind() {
            EncodingKind::RunLength if unrun => {
                CodeStorage::bit_packed_of(&s.decode_range(0, s.len())).unwrap()
            }
            _ => s.clone(),
        };
        let mut b = Table::builder();
        for (c, desc) in t.schema().descs().iter().enumerate() {
            let none = NullMask::none();
            let col = match t.column(c) {
                Column::Int(c) => Column::Int(I64Column::with_storage(ints(c.storage()), none)),
                Column::Date(c) => Column::Date(I64Column::with_storage(ints(c.storage()), none)),
                Column::Double(c) => {
                    let data = match c.data() {
                        F64Storage::Integral(s) => F64Storage::Integral(ints(s)),
                        plain => plain.clone(),
                    };
                    Column::Double(F64Column::from_parts(data, none, c.zones().clone()))
                }
                Column::Str(c) | Column::Cat(c) => {
                    let dc =
                        DictColumn::with_storage(codes(c.codes()), c.dictionary().clone(), none);
                    if desc.kind == ColumnKind::String {
                        Column::Str(dc)
                    } else {
                        Column::Cat(dc)
                    }
                }
            };
            b = b.column(&desc.name, desc.kind, col);
        }
        b.build().unwrap()
    };
    let without_nulls = stripped(&whole, false);
    let without_runs = stripped(&whole, true);
    let one_block = slice_table(&without_runs, 0, BLOCK_ROWS);
    let case = suite.case("header_parse");
    case.fact("columns", whole.num_columns() as f64)
        .time("open", open_mapped(&whole, "whole.hvc"))
        .time(
            "without_null_runs",
            open_mapped(&without_nulls, "nulls.hvc"),
        )
        .time(
            "without_null_runs_or_run_length",
            open_mapped(&without_runs, "runs.hvc"),
        )
        .time("one_block", open_mapped(&one_block, "block.hvc"));
    let us = |case: &hillview_bench::harness::Case, from: &str, to: &str| {
        (case.median_ns(from) as f64 - case.median_ns(to) as f64) / 1e3
    };
    let null_runs = us(case, "open", "without_null_runs");
    let run_length = us(case, "without_null_runs", "without_null_runs_or_run_length");
    let zone_maps = us(case, "without_null_runs_or_run_length", "one_block");
    let rest = case.median_ns("one_block") as f64 / 1e3;
    case.fact("null_runs_us", null_runs)
        .fact("inline_run_length_us", run_length)
        .fact("zone_maps_us", zone_maps)
        .fact("rest_us", rest);
}
