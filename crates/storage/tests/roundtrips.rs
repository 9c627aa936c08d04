//! Property tests: every storage format must round-trip arbitrary tables.

use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::{ColumnKind, Table, TempDir};
use hillview_storage::csv::{read_csv, write_csv, CsvOptions};
use hillview_storage::hvc;
use hillview_storage::partition::{partition_table, slice_table};
use hillview_storage::spill::{list_parts, spill_csv};
use hillview_storage::{probe_file, SpillingWriter};
use proptest::prelude::*;
use std::io::Cursor;
use std::path::{Path, PathBuf};

mod common;
use common::table_strategy;

/// Row `r` of double column `name`, as bits: `Value` equality cannot tell
/// the two zeros apart.
fn double_bits(t: &Table, name: &str, r: usize) -> Option<u64> {
    let col = t.column_by_name(name).unwrap().as_f64_col().unwrap();
    col.get(r).map(f64::to_bits)
}

/// The bytes of every part spilled into `dir`, in row order.
fn part_bytes(dir: &Path) -> Vec<Vec<u8>> {
    let parts = list_parts(dir).unwrap();
    parts.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hvc_roundtrip_everything(t in table_strategy()) {
        let decoded = hvc::decode(&hvc::encode(&t)).unwrap();
        prop_assert_eq!(decoded.num_rows(), t.num_rows());
        prop_assert_eq!(decoded.num_columns(), t.num_columns());
        for r in 0..t.num_rows() {
            prop_assert_eq!(decoded.full_row(r), t.full_row(r));
            prop_assert_eq!(double_bits(&decoded, "W", r), double_bits(&t, "W", r));
        }
    }

    /// HVC preserves the in-memory encoding: whatever `IntStorage` variant
    /// a column carries (every variant, forced), the decoded column carries
    /// the identical storage — packed words ship without inflating.
    #[test]
    fn hvc_roundtrip_preserves_every_encoding(
        data in proptest::collection::vec(-3000i64..3000, 1..200),
        step in prop_oneof![Just(1i64), Just(2), Just(3), Just(1_000), Just(86_400_000)],
    ) {
        use hillview_columnar::{I64Storage, NullMask};
        let data: Vec<i64> = data.iter().map(|v| v * step).collect();
        let mut ascending = data.clone();
        ascending.sort_unstable();
        let storages = [
            I64Storage::plain_of(data.clone()),
            I64Storage::bit_packed_of(&data).unwrap(),
            I64Storage::run_length_of(&data).unwrap(),
            I64Storage::delta_of(&ascending).unwrap(),
            I64Storage::exceptions_of(&data).unwrap(),
        ];
        for s in storages {
            let kind = s.kind();
            let t = Table::builder()
                .column(
                    "V",
                    ColumnKind::Int,
                    Column::Int(I64Column::with_storage(s, NullMask::none())),
                )
                .build()
                .unwrap();
            let decoded = hvc::decode(&hvc::encode(&t)).unwrap();
            let c = decoded.column_by_name("V").unwrap().as_i64_col().unwrap();
            prop_assert_eq!(c.storage().kind(), kind);
            prop_assert_eq!(
                c.storage(),
                t.column_by_name("V").unwrap().as_i64_col().unwrap().storage()
            );
        }
    }

    /// CSV round-trips values it can represent: integers, strings (quoted
    /// line ends included) and missing values exactly.
    #[test]
    fn csv_roundtrip(t in table_strategy()) {
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(Cursor::new(buf), &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.num_rows(), t.num_rows());
        for r in 0..t.num_rows() {
            for name in ["I", "S", "C"] {
                prop_assert_eq!(back.get(r, name).unwrap(), t.get(r, name).unwrap());
            }
        }
    }

    /// The differential oracle (VisiGrid's fingerprint, SNIPPETS.md §3): a
    /// table's CSV, spilled under the table's schema, seals the very part
    /// bytes the table itself spills to. No `Date` column: `write_csv`
    /// prints a date as `@<ms>`, which reads back missing (ROADMAP 1(f)).
    #[test]
    fn spill_csv_seals_the_parts_the_table_seals(t in table_strategy(), rpp in 1usize..40) {
        let (from_csv, from_table) = (TempDir::new("rt-csv"), TempDir::new("rt-table"));
        let mut csv = Vec::new();
        write_csv(&t, &mut csv).unwrap();
        let options = CsvOptions::default();
        spill_csv(Cursor::new(csv), &options, t.schema(), rpp, from_csv.path()).unwrap();
        let mut writer = SpillingWriter::new(from_table.path(), rpp).unwrap();
        writer.push(&t).unwrap();
        writer.finish().unwrap();
        prop_assert!(part_bytes(from_csv.path()) == part_bytes(from_table.path()));
    }

    #[test]
    fn partitioning_is_lossless(t in table_strategy(), rpp in 1usize..40) {
        let parts = partition_table(&t, rpp);
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        prop_assert_eq!(total, t.num_rows());
        let mut global = 0usize;
        for p in &parts {
            for r in 0..p.num_rows() {
                prop_assert_eq!(p.full_row(r), t.full_row(global));
                prop_assert_eq!(double_bits(p, "W", r), double_bits(&t, "W", global));
                global += 1;
            }
        }
    }

    #[test]
    fn slices_compose(t in table_strategy(), cut in 0usize..80) {
        let n = t.num_rows();
        let cut = cut.min(n);
        let a = slice_table(&t, 0, cut);
        let b = slice_table(&t, cut, n);
        prop_assert_eq!(a.num_rows() + b.num_rows(), n);
        if cut < n {
            prop_assert_eq!(b.full_row(0), t.full_row(cut));
        }
    }
}

/// `parts` parts of flights at seed 7, 65 000 rows each, spilled to `hvc`
/// files in the directory returned beside their paths.
fn spilled_flights(parts: usize) -> (TempDir, Vec<PathBuf>) {
    use hillview_data::{generate_flights, FlightsConfig};
    let rows = 65_000;
    let dir = TempDir::new("rt-flights");
    let mut writer = SpillingWriter::new(dir.path(), rows).unwrap();
    writer
        .push(&generate_flights(&FlightsConfig::new(parts * rows, 7)))
        .unwrap();
    writer.finish().unwrap();
    let paths = list_parts(dir.path()).unwrap();
    (dir, paths)
}

/// [`spilled_flights`] read back onto the heap: the shape of the gated
/// `mem_bytes_per_row`.
fn flights_parts(parts: usize) -> Vec<Table> {
    let (_dir, paths) = spilled_flights(parts);
    paths.iter().map(|p| hvc::read_file(p).unwrap()).collect()
}

/// The physical encoding of a column's values or codes, with the encoding
/// of an exceptions storage's exceptions.
fn encoding(col: &Column) -> String {
    use hillview_columnar::{F64Storage, IntStorage, PackedInt};
    fn name<T: PackedInt>(s: &IntStorage<T>) -> String {
        match s {
            IntStorage::Exceptions { values, .. } => format!("exceptions({})", values.kind()),
            s => s.kind().to_string(),
        }
    }
    match col {
        Column::Int(c) | Column::Date(c) => name(c.storage()),
        Column::Double(c) => match c.data() {
            F64Storage::Plain(_) => "plain-f64".into(),
            F64Storage::Integral(codes) => name(codes),
        },
        Column::Str(c) | Column::Cat(c) => name(c.codes()),
    }
}

/// The gated footprint in miniature: one 65 000-row flights part, spilled
/// and read back onto the heap. Its epoch-millisecond dates fall on day
/// boundaries and pack at a day's stride, 10 bits where their offsets took
/// 36; the integer codes of every non-negative integral double are even
/// and pack at step 2, without the sign bit — the mostly-missing delay
/// columns' exceptions included.
#[test]
fn a_flights_part_packs_at_its_strides() {
    use hillview_columnar::{F64Storage, IntStorage, PackedInt};
    let part = flights_parts(1).remove(0);
    fn packing<T: PackedInt>(storage: &IntStorage<T>) -> (u64, u8) {
        match storage {
            IntStorage::BitPacked { step, width, .. } => (*step, *width),
            IntStorage::Exceptions { values, .. } => packing(values),
            other => panic!("{} storage", other.kind()),
        }
    }
    let dates = part.column_by_name("FlightDate").unwrap();
    assert_eq!(
        packing(dates.as_i64_col().unwrap().storage()),
        (86_400_000, 10)
    );
    for name in [
        "TaxiOut",
        "TaxiIn",
        "AirTime",
        "CarrierDelay",
        "NASDelay",
        "LateAircraftDelay",
    ] {
        let col = part.column_by_name(name).unwrap().as_f64_col().unwrap();
        let F64Storage::Integral(codes) = col.data() else {
            panic!("{name} stored raw");
        };
        assert_eq!(packing(codes).0, 2, "{name}");
    }
}

/// The gated footprint, column by column: two 65 000-row flights parts on
/// the heap. The five columns that are mostly one value — the null
/// placeholder of the three delay columns, of `WeatherDelay` and of the
/// cancellation codes — store only their exceptions; every column Fig. 4's
/// O1–O11 read keeps the encoding it had; `TailNum`, tens of thousands of
/// distinct six-character strings a part, is mostly its dictionary. `cargo
/// test --release -p hillview-storage --test roundtrips footprint --
/// --nocapture` prints the table.
#[test]
fn the_flights_footprint_column_by_column() {
    const EXCEPTIONS: [&str; 5] = [
        "CarrierDelay",
        "NASDelay",
        "LateAircraftDelay",
        "WeatherDelay",
        "CancellationCode",
    ];
    // Bit-packed, as they were before the exceptions layout existed.
    const READ_BY_OPERATIONS: [&str; 11] = [
        "DepDelay",
        "Year",
        "Month",
        "DayOfMonth",
        "CRSDepTime",
        "FlightNum",
        "TailNum",
        "Carrier",
        "Origin",
        "Distance",
        "AirTime",
    ];
    // 24.03 B/row; 29.30 while dictionaries held whole strings in order of
    // first appearance, 32.04 before the exceptions layout.
    const HEAP_BYTES_PER_ROW: f64 = 24.1;
    // 4.03 B/row, 2.03 of it the sorted, front-coded dictionary (9.30 and
    // 7.30 with whole strings).
    const TAIL_NUM_BYTES_PER_ROW: f64 = 4.1;
    let parts = flights_parts(2);
    let rows: usize = parts.iter().map(Table::num_rows).sum();
    let schema = parts[0].schema();
    let mut table = String::new();
    let mut total = 0;
    for (c, desc) in schema.descs().iter().enumerate() {
        let encodings: Vec<String> = parts.iter().map(|p| encoding(p.column(c))).collect();
        let bytes: usize = parts.iter().map(|p| p.column(c).heap_bytes()).sum();
        total += bytes;
        let per_row = bytes as f64 / rows as f64;
        let name: &str = &desc.name;
        table += &format!("{name:>18} {per_row:>7.3} B/row  {}\n", encodings.join(" "));
        let uniform = |kind: &str| encodings.iter().all(|e| e.starts_with(kind));
        if EXCEPTIONS.contains(&name) {
            assert!(uniform("exceptions"), "{name}\n{table}");
        }
        if READ_BY_OPERATIONS.contains(&name) {
            assert!(uniform("bit-packed"), "{name}\n{table}");
        }
        if name == "TailNum" {
            let dict = |p: &Table| p.column(c).as_dict_col().unwrap().dictionary().heap_bytes();
            let dict = parts.iter().map(dict).sum::<usize>() as f64 / rows as f64;
            table += &format!("{:>18} {dict:>7.3} B/row  of it the dictionary\n", "");
            assert!(
                per_row <= TAIL_NUM_BYTES_PER_ROW,
                "{per_row:.4} B/row\n{table}"
            );
        }
    }
    let per_row = total as f64 / rows as f64;
    println!("{table}{:>18} {per_row:>7.3} B/row", "all");
    assert!(per_row <= HEAP_BYTES_PER_ROW, "{per_row:.4} B/row\n{table}");
}

/// The gated `stored_bytes_per_row` in miniature: two 65 000-row flights
/// parts as files, with the two parts of their headers every open parses,
/// the zone maps and the null runs, on their own lines. Zone extremes are
/// written in each column's integer domain, as offsets from the part's
/// smallest at their common divisor, and a column whose null runs repeat an
/// earlier column's names that column instead. `cargo test --release -p
/// hillview-storage --test roundtrips footprint -- --nocapture` prints them.
#[test]
fn the_flights_file_footprint_header_by_header() {
    // 25.22 B/row, 1.087 of it zone maps and 0.291 null runs (0.04 is
    // padding that keeps a section inside one residency chunk); the file
    // took 28.53 while every extreme was a fixed-width double or a varint
    // of its value and every column wrote its null runs out.
    const FILE_BYTES_PER_ROW: f64 = 25.25;
    const ZONE_BYTES_PER_ROW: f64 = 1.09;
    const NULL_RUN_BYTES_PER_ROW: f64 = 0.3;
    let (_dir, paths) = spilled_flights(2);
    let (mut file, mut zones, mut null_runs, mut rows) = (0, 0, 0, 0);
    for p in &paths {
        let info = probe_file(p).unwrap();
        file += std::fs::metadata(p).unwrap().len() as usize;
        zones += info.zone_bytes;
        null_runs += info.null_run_bytes;
        rows += info.rows;
    }
    let per_row = |bytes: usize| bytes as f64 / rows as f64;
    let table = format!(
        "{:>18} {:>7.3} B/row\n{:>18} {:>7.3} B/row\n{:>18} {:>7.3} B/row",
        "file",
        per_row(file),
        "of it zone maps",
        per_row(zones),
        "and null runs",
        per_row(null_runs)
    );
    println!("{table}");
    assert!(per_row(file) <= FILE_BYTES_PER_ROW, "{table}");
    assert!(per_row(zones) <= ZONE_BYTES_PER_ROW, "{table}");
    assert!(per_row(null_runs) <= NULL_RUN_BYTES_PER_ROW, "{table}");
}
