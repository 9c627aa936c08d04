//! Residency-tier equivalence: a table read back *mapped* (lazily
//! resident, block-granular faults through a [`BlockCache`]) must be
//! bit-identical to the same file decoded onto the heap — across every
//! column encoding, every membership representation, both simd modes, and
//! under a block cache small enough that chunks evict mid-scan.
//!
//! This is the storage-level contract the engine's out-of-core path
//! stands on: residency is an I/O concern only, never a semantics one. And
//! what residency costs is the sections a scan reads, wherever the writer
//! places them (`placement_cannot_move_residency`).

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::predicate::filter_members;
use hillview_columnar::residency::CHUNK_BYTES;
use hillview_columnar::{
    row_sampled, simd, BlockCache, ColumnKind, F64Storage, I64Storage, MembershipSet, NullMask,
    Predicate, SegmentMode, Table, TempDir, ZoneMap,
};
use hillview_storage::{hvc, read_file_mapped};
use proptest::prelude::*;
use std::path::PathBuf;

/// Write `t` to a file in a scratch directory of its own; the file lives
/// as long as the returned guard.
fn write_temp(t: &Table, tag: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(tag);
    let path = dir.join("t.hvc");
    hvc::write_file(t, &path).unwrap();
    (dir, path)
}

/// The strides the encoding property draws from: a bit-packed column
/// stores its values divided by the one they share, in the file as on the
/// heap.
const STEPS: [i64; 5] = [1, 2, 3, 1_000, 86_400_000];

fn rows_of(m: &MembershipSet) -> Vec<usize> {
    m.iter().collect()
}

/// Assert `mapped` and `heap` agree on every row and under `predicate`
/// evaluated through each membership representation.
fn assert_tiers_identical(heap: &Table, mapped: &Table, predicate: &Predicate, seed: u64) {
    assert_eq!(mapped.num_rows(), heap.num_rows());
    assert_eq!(mapped.num_columns(), heap.num_columns());
    for r in 0..heap.num_rows() {
        assert_eq!(mapped.full_row(r), heap.full_row(r), "row {r} diverged");
    }
    // `Value` equality cannot tell the two zeros apart; doubles must agree
    // to the bit.
    for c in 0..heap.num_columns() {
        if let (Some(h), Some(m)) = (heap.column(c).as_f64_col(), mapped.column(c).as_f64_col()) {
            assert_eq!(h.data().kind(), m.data().kind(), "column {c} encoding");
            for r in 0..h.len() {
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                assert_eq!(bits(m.get(r)), bits(h.get(r)), "column {c} row {r} bits");
            }
        }
    }
    let n = heap.num_rows();
    let full = MembershipSet::full(n);
    let half = MembershipSet::from_rows((0..n as u32).step_by(2).collect(), n);
    let sampled = MembershipSet::from_rows(
        (0..n as u32)
            .filter(|&r| row_sampled(u64::from(r), 0.3, seed))
            .collect(),
        n,
    );
    for (name, parent) in [("full", &full), ("half", &half), ("sampled", &sampled)] {
        let h = filter_members(heap, predicate, parent).unwrap();
        let m = filter_members(mapped, predicate, parent).unwrap();
        assert_eq!(h.universe(), m.universe());
        assert_eq!(
            rows_of(&h),
            rows_of(&m),
            "membership rep {name:?} diverged between tiers"
        );
    }
}

/// Arbitrary mixed-type tables with nulls (mirrors the roundtrip suite).
fn table_strategy() -> impl Strategy<Value = Table> {
    let row = (
        proptest::option::weighted(0.85, -3000i64..3000),
        proptest::option::weighted(0.85, -1e9f64..1e9),
        proptest::option::weighted(0.85, "[a-z]{0,6}"),
    );
    proptest::collection::vec(row, 1..300).prop_map(|rows| {
        Table::builder()
            .column(
                "I",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(rows.iter().map(|r| r.0))),
            )
            .column(
                "F",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(rows.iter().map(|r| r.1))),
            )
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(
                    rows.iter().map(|r| r.2.as_deref()),
                )),
            )
            .build()
            .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed tables: mapped == heap row-for-row and filter-for-filter,
    /// under a cache small enough (one chunk) to churn mid-comparison.
    #[test]
    fn mapped_equals_heap_for_mixed_tables(t in table_strategy(), seed in any::<u64>()) {
        let (_dir, path) = write_temp(&t, "ooc-props-mixed");
        let heap = hvc::read_file(&path).unwrap();
        let pred = Predicate::range("I", -1500.0, 1500.0)
            .and(Predicate::range("F", -5e8, 5e8));
        let cache = BlockCache::new(64 << 10);
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        assert_tiers_identical(&heap, &mapped, &pred, seed);
    }

    /// A mapped table parses a dictionary when its column first shows a
    /// string, so the tiers must agree whichever column comes up first and
    /// whatever was parsed before it: four string columns compared in an
    /// order drawn from `seed`, each weighing nothing until its turn and
    /// what the heap tier's weighs after it.
    #[test]
    fn mapped_equals_heap_with_string_columns_touched_in_any_order(
        rows in proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.8, "[a-z]{0,3}"), 4),
            1..200,
        ),
        seed in any::<u64>(),
    ) {
        let mut builder = Table::builder();
        for c in 0..4 {
            let kind = [ColumnKind::String, ColumnKind::Category][c % 2];
            let col = DictColumn::from_strings(rows.iter().map(|r| r[c].as_deref()));
            let col = if c % 2 == 0 { Column::Str(col) } else { Column::Cat(col) };
            builder = builder.column(&format!("S{c}"), kind, col);
        }
        let (_dir, path) = write_temp(&builder.build().unwrap(), "ooc-props-strings");
        let heap = hvc::read_file(&path).unwrap();
        let mut order = [0, 1, 2, 3];
        let mut state = seed;
        for i in (1..4).rev() {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let lazy = cfg!(target_endian = "little");
        let cache = BlockCache::new(64 << 10);
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        for c in order {
            let h = heap.column(c).as_dict_col().unwrap();
            let m = mapped.column(c).as_dict_col().unwrap();
            prop_assert_eq!(m.dictionary().len(), h.dictionary().len());
            prop_assert!(!lazy || m.dictionary().heap_bytes() == 0, "column {} parsed early", c);
            let entries = |d: &DictColumn| {
                let mut all = Vec::new();
                d.dictionary().for_each(|_, s| all.push(s.to_string()));
                all
            };
            // By row, by string, or all at once: whichever door comes first.
            match (state >> 7) as usize % 3 {
                0 => {}
                1 => {
                    let found = |d: &DictColumn| d.dictionary().rank("a");
                    prop_assert_eq!(found(m), found(h));
                }
                _ => prop_assert_eq!(entries(m), entries(h)),
            }
            let (mut mb, mut hb) = (String::new(), String::new());
            for r in 0..heap.num_rows() {
                prop_assert_eq!(m.read(r, &mut mb), h.read(r, &mut hb), "column {} row {}", c, r);
            }
            prop_assert_eq!(entries(m), entries(h));
            prop_assert_eq!(m.dictionary().heap_bytes(), h.dictionary().heap_bytes());
        }
    }

    /// Every encoding survives the mapped tier: plain, bit-packed,
    /// run-length, delta, exceptions — each forced explicitly, over an
    /// integer column and over the codes of an integral double column (zeros
    /// at odd rows negative), on a drawn stride, each compared under both
    /// simd modes
    /// (the mapped windows feed the same kernels the heap buffers do) and
    /// under a range whose bounds fall off the stride's grid.
    #[test]
    fn mapped_equals_heap_for_every_encoding_and_simd_mode(
        data in proptest::collection::vec(-3000i64..3000, 1..400),
        seed in any::<u64>(),
        step in 0usize..5,
    ) {
        let step = STEPS[step];
        let data: Vec<i64> = data.iter().map(|v| v * step).collect();
        let mut ascending = data.clone();
        ascending.sort_unstable();
        // Mostly zero, a ninth of the rows drawn: exceptions in their shape.
        let sparse: Vec<i64> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 9 == 4 { v } else { 0 })
            .collect();
        let storages = [
            I64Storage::plain_of(data.clone()),
            I64Storage::bit_packed_of(&data).unwrap(),
            I64Storage::run_length_of(&data).unwrap(),
            I64Storage::delta_of(&ascending).unwrap(),
            I64Storage::exceptions_of(&data).unwrap(),
            I64Storage::exceptions_of(&sparse).unwrap(),
        ];
        let mut columns: Vec<Column> = storages
            .into_iter()
            .map(|s| Column::Int(I64Column::with_storage(s, NullMask::none())))
            .collect();
        let doubles = |data: &[i64], force: fn(&[i64]) -> Option<I64Storage>| {
            let values: Vec<f64> = data
                .iter()
                .enumerate()
                .map(|(i, &v)| if v == 0 && i % 2 == 1 { -0.0 } else { v as f64 })
                .collect();
            let codes = F64Storage::codes_of(&values).unwrap();
            let storage = force(&codes).map_or(F64Storage::Plain(values.clone().into()), F64Storage::Integral);
            let zones = ZoneMap::from_f64(&values);
            Column::Double(F64Column::from_parts(storage, NullMask::none(), zones))
        };
        // Codes ascend with the magnitude: delta over the non-negative shift.
        let shifted: Vec<i64> = ascending.iter().map(|v| v + 3000 * step).collect();
        columns.push(doubles(&data, |_| None));
        columns.push(doubles(&data, I64Storage::bit_packed_of));
        columns.push(doubles(&data, I64Storage::run_length_of));
        columns.push(doubles(&shifted, I64Storage::delta_of));
        columns.push(doubles(&sparse, I64Storage::exceptions_of));
        for col in columns {
            let t = Table::builder().column("V", col.kind(), col).build().unwrap();
            let (_dir, path) = write_temp(&t, "ooc-props-enc");
            let heap = hvc::read_file(&path).unwrap();
            let s = step as f64;
            let pred = Predicate::range("V", -1000.5 * s, 999.5 * s);
            let cache = BlockCache::new(64 << 10);
            let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
            for scalar in [false, true] {
                simd::set_force_scalar(scalar);
                assert_tiers_identical(&heap, &mapped, &pred, seed);
            }
            simd::set_force_scalar(false);
        }
    }
}

/// A mapped open of a part whose column stores its exceptions reads no
/// payload byte: the ranks are in the header, the marks and the exceptions
/// are sections a scan faults in chunk by chunk, and only the ranks weigh
/// on the heap.
#[test]
fn opening_an_exceptions_part_faults_nothing() {
    let rows: usize = 100_000;
    let t = Table::builder()
        .column(
            "late",
            ColumnKind::Int,
            Column::Int(I64Column::from_options((0..rows as i64).map(|i| {
                (i % 11 != 4).then_some(if i % 11 == 7 { i * 7919 % 300 + 1 } else { 0 })
            }))),
        )
        .build()
        .unwrap();
    let col = t.column_by_name("late").unwrap().as_i64_col().unwrap();
    assert_eq!(
        col.storage().kind(),
        hillview_columnar::EncodingKind::Exceptions
    );
    let (_dir, path) = write_temp(&t, "ooc-props-exceptions");
    let cache = BlockCache::unbounded();
    let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
    if cfg!(all(unix, target_endian = "little")) {
        assert_eq!(cache.stats().faults, 0, "the open faulted payload in");
        let ranks = rows.div_ceil(4_096) * 4;
        assert_eq!(mapped.heap_bytes(), ranks);
        assert_eq!(mapped.mapped_bytes(), col.storage().heap_bytes() - ranks);
        let _ = mapped.column_by_name("late").unwrap().value(54_321);
        let faults = cache.stats().faults;
        assert!((1..=2).contains(&faults), "one row faulted {faults} chunks");
    }
    let heap = hvc::read_file(&path).unwrap();
    assert_tiers_identical(&heap, &mapped, &Predicate::range("late", 1.0, 150.0), 7);
}

/// The storage-level mirror of the engine's
/// `seeded_cache_churn_evicts_without_corrupting_results`: five part
/// files scanned by a splitmix-seeded predicate grid through one shared
/// 2 KiB cache. Every answer must match the heap ground truth while
/// chunks continuously fault and evict.
#[test]
#[cfg_attr(miri, ignore)]
fn tiny_cache_churn_grid_never_corrupts_results() {
    const ROWS: usize = 50_000;
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut s = 0xD1CE_u64;
    // A dense shuffled payload plus a sorted delta column, split into five
    // part files sharing one 2 KiB cache — each part is its own segment,
    // so faulting one part's chunks must push out another's.
    let t = Table::builder()
        .column(
            "A",
            ColumnKind::Int,
            Column::Int(I64Column::from_options(
                (0..ROWS).map(|_| Some((splitmix(&mut s) % 100_000) as i64)),
            )),
        )
        .column(
            "K",
            ColumnKind::Int,
            Column::Int(I64Column::from_options((0..ROWS).map(|i| Some(i as i64)))),
        )
        .build()
        .unwrap();
    let parts = hillview_storage::partition_table(&t, ROWS / 5);
    let cache = BlockCache::new(2048);
    let tiers: Vec<(Table, Table, TempDir)> = parts
        .iter()
        .map(|p| {
            let (dir, path) = write_temp(p, "ooc-props-churn");
            let heap = hvc::read_file(&path).unwrap();
            let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
            (heap, mapped, dir)
        })
        .collect();

    let mut seed = 0xC0FFEE_u64;
    for q in 0..16 {
        let lo = (splitmix(&mut seed) % 90_000) as f64;
        let key = (splitmix(&mut seed) % 40_000) as f64;
        let pred = Predicate::range("A", lo, lo + 10_000.0).and(Predicate::range(
            "K",
            key,
            key + 10_000.0,
        ));
        for (part, (heap, mapped, _)) in tiers.iter().enumerate() {
            let full = MembershipSet::full(heap.num_rows());
            let h = filter_members(heap, &pred, &full).unwrap();
            let m = filter_members(mapped, &pred, &full).unwrap();
            assert_eq!(
                rows_of(&h),
                rows_of(&m),
                "query {q} part {part} corrupted by churn"
            );
        }
    }

    let stats = cache.stats();
    if cfg!(all(unix, target_endian = "little")) {
        assert!(stats.faults > 0, "mapped scans never faulted");
        assert!(stats.hits > 0, "repeated scans never hit residency");
        assert!(
            stats.evictions > 0,
            "2 KiB budget over five mapped parts must evict (resident {})",
            stats.resident_bytes
        );
    }
}

/// Rows of the placement part: each column's plain section is 64 KiB and
/// 64 bytes, so at every 64-byte phase it lies on the same number of pages
/// (of any size up to 64 KiB) and in two chunks of its own grid — the
/// placement tests isolate where the file puts a section from how many
/// pages it spans.
const PLACED_ROWS: usize = (CHUNK_BYTES + 64) / 8;
const PLACED_COLUMNS: usize = 3;

/// The same rows written behind a first column name of `pad` bytes,
/// stepped so the payload base moves 64 bytes at a time from 2 KiB below a
/// 64 KiB boundary of the file to 2 KiB above it. Yields each part's
/// payload base beside it.
fn placed_parts() -> impl Iterator<Item = (usize, TempDir, PathBuf)> {
    let mut s = 0x9ACE_u64;
    let mut noise = || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (s ^ (s >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 29)) as i64
    };
    let columns: Vec<Vec<i64>> = (0..PLACED_COLUMNS)
        .map(|_| (0..PLACED_ROWS).map(|_| noise()).collect())
        .collect();
    let payload = PLACED_COLUMNS * PLACED_ROWS * 8;
    let write = move |pad: usize| {
        let mut b = Table::builder();
        for (c, values) in columns.iter().enumerate() {
            let name = if c == 0 {
                "p".repeat(pad)
            } else {
                format!("c{c}")
            };
            let storage = I64Storage::plain_of(values.clone());
            let col = Column::Int(I64Column::with_storage(storage, NullMask::none()));
            b = b.column(&name, ColumnKind::Int, col);
        }
        let (dir, path) = write_temp(&b.build().unwrap(), "ooc-props-placed");
        let base = std::fs::metadata(&path).unwrap().len() as usize - payload;
        (base, dir, path)
    };
    // A name this long has a 3-byte length either way: the base follows the
    // padding byte for byte, rounded to 64.
    let first = CHUNK_BYTES - 2048;
    let pad = first + 20_000 - write(20_000).0;
    (0..64).map(move |step| write(pad + 64 * step))
}

/// Read every value of every column of `t`.
fn scan_all(t: &Table) {
    for c in 0..t.num_columns() {
        let col = t.column(c).as_i64_col().unwrap();
        for r in 0..col.len() {
            std::hint::black_box(col.get(r));
        }
    }
}

/// Where the writer puts a part's payload decides nothing a mapped scan
/// pays: behind headers of 64 lengths, the payload base stepping across a
/// 64 KiB boundary of the file, the same scan faults the same chunks, the
/// same bytes, and holds the same bytes resident.
#[test]
#[cfg_attr(miri, ignore)]
fn placement_cannot_move_residency() {
    let mut bases = Vec::new();
    let mut seen = None;
    for (base, _dir, path) in placed_parts() {
        let cache = BlockCache::unbounded();
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        scan_all(&mapped);
        let s = cache.stats();
        let paid = (s.faults, s.bytes_faulted, s.resident_bytes);
        if cfg!(all(unix, target_endian = "little")) {
            assert_eq!(s.faults, 2 * PLACED_COLUMNS as u64, "base {base}");
            assert_eq!(*seen.get_or_insert(paid), paid, "base {base}");
        }
        bases.push(base);
    }
    assert!(bases.windows(2).all(|w| w[1] == w[0] + 64), "{bases:?}");
    assert!(
        bases[0] < CHUNK_BYTES && CHUNK_BYTES < bases[63],
        "{bases:?}"
    );
}

/// A block cache whose budget is the charge of the windows a scan reads
/// holds them: at every placement, two passes evict nothing and the second
/// faults nothing. The charge is measured once, at the first placement.
#[test]
#[cfg_attr(miri, ignore)]
fn a_budget_of_the_scanned_windows_holds_them_at_every_placement() {
    let mut charge = None;
    for (base, _dir, path) in placed_parts() {
        let budget = *charge.get_or_insert_with(|| {
            let cache = BlockCache::unbounded();
            let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
            scan_all(&mapped);
            cache.stats().resident_bytes as usize
        });
        let cache = BlockCache::new(budget);
        let mapped = read_file_mapped(&path, &cache, SegmentMode::Auto).unwrap();
        scan_all(&mapped);
        let first = cache.stats();
        scan_all(&mapped);
        let second = cache.stats();
        if cfg!(all(unix, target_endian = "little")) {
            assert_eq!(second.evictions, 0, "base {base}: budget {budget}");
            assert_eq!(second.faults, first.faults, "base {base}: refaulted");
            assert_eq!(second.resident_bytes as usize, budget, "base {base}");
        }
    }
}
