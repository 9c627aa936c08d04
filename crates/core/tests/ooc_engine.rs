//! End-to-end out-of-core execution: a spilled `hvc` part directory loaded
//! through [`HvcDirSource`] under a deliberately tiny per-worker block
//! cache, queried fused, faulted, recovered — and bit-identical to the
//! heap-resident baseline throughout.
//!
//! What this pins down, beyond the storage-level property tests:
//!
//! * the engine's load path keeps mapped tables mapped (no partitioning
//!   pass that would decode every value),
//! * zone-map pruning reaches the I/O layer: a selective band over the
//!   sorted column faults in a small fraction of the mapped span, and the
//!   untouched second column faults nothing,
//! * lineage replay after evictions/kills re-opens part files and still
//!   reproduces the heap answer exactly, while the block cache evicts
//!   down to its budget,
//! * a part truncated under its mapping fails the queries that fault it —
//!   as a structured error, not a signal — and no other query,
//! * heap/mapped accounting split: mapped datasets report `mapped_bytes`,
//!   not `heap_bytes`,
//! * double columns fault frame by frame, raw and encoded alike,
//! * a mapped dataset's heap side holds the dictionaries its queries have
//!   presented and no other, each parsed once however many leaf tasks meet
//!   it first, and a damaged one fails the queries that present it — as a
//!   structured error — and no other query.

use hillview_columnar::column::{Column, F64Column, I64Column};
use hillview_columnar::dictionary::{Dictionary, DictionaryBuilder};
use hillview_columnar::residency::CHUNK_BYTES;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, EncodingKind, Predicate, SegmentMode, Table, TempDir};
use hillview_core::dataset::SourceRegistry;
use hillview_core::{
    Cluster, ClusterConfig, DatasetId, Engine, EngineError, FaultAction, FaultPlan, FaultSite,
    HvcDirSource, QueryOptions,
};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::BucketSpec;
use hillview_storage::spill::list_parts;
use hillview_storage::{hvc, SpillingWriter};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const ROWS: usize = 200_000;
const ROWS_PER_PART: usize = 20_000;

fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spill the reference dataset — a sorted ramp `X` (zone-skippable,
/// delta-coded) and a shuffled `Y` (dense plain payload the filter never
/// touches) — into a fresh part directory.
fn spill_dataset(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let mut w = SpillingWriter::new(dir.path(), ROWS_PER_PART).unwrap();
    let t = Table::builder()
        .column(
            "X",
            ColumnKind::Int,
            Column::Int(I64Column::from_options((0..ROWS).map(|i| Some(i as i64)))),
        )
        .column(
            "Y",
            ColumnKind::Int,
            Column::Int(I64Column::from_options(
                (0..ROWS).map(|i| Some((mix(i as u64) % 4096) as i64)),
            )),
        )
        .build()
        .unwrap();
    w.push(&t).unwrap();
    w.finish().unwrap();
    dir
}

/// An engine whose "mapped" source opens the part directory as
/// [`HvcDirSource::new`] does — lazily — and whose "heap" source decodes the
/// same files eagerly. The block cache is tiny relative to the dataset so
/// residency churns.
fn ooc_engine(dir: &Path, block_cache_bytes: usize) -> Engine {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(HvcDirSource::new("mapped", dir)));
    sources.register(Arc::new(HvcDirSource::with_mode(
        "heap",
        dir,
        SegmentMode::Heap,
    )));
    let cfg = ClusterConfig {
        micropartition_rows: 25_000,
        block_cache_bytes,
        ..ClusterConfig::test()
    };
    Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()))
}

fn histogram() -> HistogramSketch {
    HistogramSketch::streaming("X", BucketSpec::numeric(0.0, ROWS as f64, 20))
}

/// Every row of the shuffled `Y`: a scan that meets every chunk of every
/// part.
fn full_scan() -> HistogramSketch {
    HistogramSketch::streaming("Y", BucketSpec::numeric(0.0, 4096.0, 16))
}

/// The zone-skippable drill-down: a 5% contiguous band of the sorted ramp.
fn band() -> Predicate {
    Predicate::range("X", 10_000.0, 20_000.0)
}

#[test]
fn mapped_scan_is_bit_identical_to_heap_and_prunes_io() {
    let dir = spill_dataset("ooc-engine-identity");
    let e = ooc_engine(dir.path(), 64 << 10);
    let mapped = e.load("mapped", 0).unwrap();
    let heap = e.load("heap", 0).unwrap();

    assert_eq!(e.cluster().dataset_rows(mapped), ROWS);
    // Accounting split: on little-endian hosts the mapped dataset is file
    // windows (headers own a little heap), the heap dataset owns payloads.
    if cfg!(target_endian = "little") {
        let span = e.cluster().dataset_mapped_bytes(mapped);
        assert!(span > 0, "parts did not load mapped");
        assert!(
            e.cluster().dataset_heap_bytes(mapped) < e.cluster().dataset_heap_bytes(heap),
            "mapped columns must not be double-counted as heap"
        );
        assert_eq!(e.cluster().dataset_mapped_bytes(heap), 0);

        let before = e.cluster().block_cache_stats();
        let (m, _) = e
            .run_filtered(mapped, band(), histogram(), &QueryOptions::default())
            .unwrap();
        let after = e.cluster().block_cache_stats();
        let (h, _) = e
            .run_filtered(heap, band(), histogram(), &QueryOptions::default())
            .unwrap();
        assert_eq!(m, h, "mapped result diverged from heap-resident");
        let m: HistogramSummary = m;
        assert_eq!(m.buckets.iter().sum::<u64>(), 10_000, "5% band");

        // I/O pruning: the band covers 5% of sorted X and none of Y, so
        // the query must fault in a small fraction of the mapped span.
        let faulted = after.bytes_faulted - before.bytes_faulted;
        assert!(faulted > 0, "a cold mapped scan must fault something");
        assert!(
            faulted * 5 <= span as u64,
            "zone-skippable band faulted {faulted} of {span} mapped bytes \
             (> 20%) — block pruning is not reaching the I/O layer"
        );
    } else {
        // Big-endian fallback loads heap everywhere; results still match.
        let (m, _) = e
            .run_filtered(mapped, band(), histogram(), &QueryOptions::default())
            .unwrap();
        let (h, _) = e
            .run_filtered(heap, band(), histogram(), &QueryOptions::default())
            .unwrap();
        assert_eq!(m, h);
    }
}

/// A mapped double column is read 64-row frame by frame, so zone-map
/// pruning reaches the I/O layer for doubles as it does for integers: a 5%
/// band over a sorted double column faults in a fraction of the bytes the
/// column spans — whether the column is stored raw or as encoded codes —
/// and the answer is the heap-resident one.
#[test]
fn double_columns_fault_frame_by_frame() {
    const PART_ROWS: usize = 100_000;
    // Both ascend, so all but the band's blocks are zone-skipped. `P` is
    // fractional (stored raw, 8 B/row); `E` is whole numbers with low-bit
    // noise (neither runs nor ascending codes: bit-packed).
    let plain = |i: usize| i as f64 + 0.5;
    let encoded = |i: usize| (i * 4) as f64 + (mix(i as u64) % 4096) as f64;
    let dir = TempDir::new("ooc-engine-doubles");
    let mut w = SpillingWriter::new(dir.path(), PART_ROWS).unwrap();
    let t = Table::builder()
        .column(
            "P",
            ColumnKind::Double,
            Column::Double(F64Column::from_options((0..ROWS).map(|i| Some(plain(i))))),
        )
        .column(
            "E",
            ColumnKind::Double,
            Column::Double(F64Column::from_options((0..ROWS).map(|i| Some(encoded(i))))),
        )
        .build()
        .unwrap();
    w.push(&t).unwrap();
    let manifest = w.finish().unwrap();
    let part = hillview_storage::hvc::read_file(manifest.paths().next().unwrap()).unwrap();
    let kind = |name: &str| {
        let col = part.column_by_name(name).unwrap();
        col.as_f64_col().unwrap().data().kind()
    };
    assert_eq!(kind("P"), EncodingKind::Plain);
    assert_eq!(kind("E"), EncodingKind::BitPacked);

    if cfg!(target_endian = "big") {
        return; // big-endian hosts load heap everywhere: nothing to fault
    }
    let e = ooc_engine(dir.path(), 64 << 20);
    let mapped = e.load("mapped", 0).unwrap();
    let heap = e.load("heap", 0).unwrap();
    let span = e.cluster().dataset_mapped_bytes(mapped) as u64;
    let plain_span = (ROWS * 8) as u64;
    for (column, value, column_span) in [
        ("P", &plain as &dyn Fn(usize) -> f64, plain_span),
        ("E", &encoded, span - plain_span),
    ] {
        let sketch =
            || HistogramSketch::streaming(column, BucketSpec::numeric(0.0, value(ROWS), 20));
        let band = Predicate::range(column, value(ROWS / 2), value(ROWS / 2 + ROWS / 20));
        let before = e.cluster().block_cache_stats().bytes_faulted;
        let (m, _) = e
            .run_filtered(mapped, band.clone(), sketch(), &QueryOptions::default())
            .unwrap();
        let faulted = e.cluster().block_cache_stats().bytes_faulted - before;
        let (h, _) = e
            .run_filtered(heap, band, sketch(), &QueryOptions::default())
            .unwrap();
        assert_eq!(m, h, "{column}: mapped result diverged from heap-resident");
        assert!(m.buckets.iter().sum::<u64>() > 0, "{column}: empty band");
        assert!(
            faulted > 0,
            "{column}: a cold mapped scan must fault something"
        );
        assert!(
            faulted * 2 <= column_span,
            "{column}: a 5% band faulted {faulted} of the column's {column_span} mapped \
             bytes — doubles are not read frame by frame"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn tiny_block_cache_survives_eviction_and_kill_chaos() {
    let dir = spill_dataset("ooc-engine-chaos");
    // 4 KiB per worker: far below one 64 KiB residency chunk, so every
    // fault of a *different* part file must evict the previous one.
    let e = ooc_engine(dir.path(), 4 << 10);
    let mapped = e.load("mapped", 0).unwrap();
    let heap = e.load("heap", 0).unwrap();
    // Four 5% bands in four different part files, spread across both
    // workers by the round-robin part deal — the drill-down sweep that
    // forces residency churn (one band's chunks cannot stay resident
    // while the next band faults).
    let bands: Vec<Predicate> = (0..4)
        .map(|k| {
            let lo = (k * 50_000 + 10_000) as f64;
            Predicate::range("X", lo, lo + 10_000.0)
        })
        .collect();
    let answer = |dataset, b: &Predicate| -> HistogramSummary {
        e.run_filtered(dataset, b.clone(), histogram(), &QueryOptions::default())
            .unwrap()
            .0
    };
    let references: Vec<HistogramSummary> = bands.iter().map(|b| answer(heap, b)).collect();
    for (b, r) in bands.iter().zip(&references) {
        assert_eq!(r.buckets.iter().sum::<u64>(), 10_000);
        assert_eq!(
            &answer(mapped, b),
            r,
            "mapped scan diverged from heap-resident"
        );
    }

    // Evict the dataset on worker 0 mid-sequence, then kill worker 1:
    // both heal through lineage replay, which re-opens the part files
    // through the same block cache.
    e.cluster().arm_faults(FaultPlan::scripted([
        (
            FaultSite::WorkerOp {
                worker: 0,
                index: 2,
            },
            FaultAction::Evict,
        ),
        (
            FaultSite::WorkerOp {
                worker: 1,
                index: 3,
            },
            FaultAction::Kill,
        ),
    ]));
    for round in 0..2 {
        for (b, reference) in bands.iter().zip(&references) {
            let (s, _) = e
                .run_filtered(mapped, b.clone(), histogram(), &QueryOptions::default())
                .unwrap();
            assert_eq!(
                &s, reference,
                "round {round}: recovered mapped scan diverged from the \
                 heap-resident answer"
            );
        }
    }
    e.cluster().disarm_faults();
    let (full, _) = e
        .run(mapped, full_scan(), &QueryOptions::default())
        .unwrap();
    let (reference, _) = e.run(heap, full_scan(), &QueryOptions::default()).unwrap();
    assert_eq!(full, reference, "the full scan diverged from heap-resident");

    let stats = e.cluster().block_cache_stats();
    if cfg!(all(unix, target_endian = "little")) {
        assert!(stats.faults > 0, "mapped scans never faulted");
        // A 4 KiB budget cannot hold the touched band, so eviction must
        // actually churn — and it ends within the budget but for the
        // chunks of each worker's last touch, which a fault never evicts: a
        // 64-row frame lies in one section and straddles at most two chunks
        // of that section's grid, each charged its page span, at most
        // `CHUNK_BYTES`. A tier that pinned its chunks would still hold every
        // one the full scan met.
        assert!(
            stats.evictions > 0,
            "tiny budget never evicted (resident {} / budget {})",
            stats.resident_bytes,
            stats.budget
        );
        let last_touches = (e.cluster().num_workers() * 2 * CHUNK_BYTES) as u64;
        assert!(
            stats.resident_bytes <= stats.budget + last_touches,
            "resident {} over the {} B budget",
            stats.resident_bytes,
            stats.budget
        );
    }
}

/// A part cut short under its mapping, before any query touches it: the
/// `fstat` every block fault makes sees the change, so the scan ends in the
/// structured error of a panicked leaf — where a load through the mapping
/// would have been a `SIGBUS` — and the process, its workers and every
/// other dataset carry on.
#[test]
#[cfg_attr(miri, ignore)]
fn a_part_truncated_under_its_mapping_is_an_error_not_a_signal() {
    let cut = spill_dataset("ooc-engine-cut");
    let whole = spill_dataset("ooc-engine-whole");
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(HvcDirSource::new("cut", cut.path())));
    sources.register(Arc::new(HvcDirSource::new("whole", whole.path())));
    let cfg = ClusterConfig {
        block_cache_bytes: 4 << 10,
        ..ClusterConfig::test()
    };
    let e = Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()));
    let (cut_id, whole_id) = (e.load("cut", 0).unwrap(), e.load("whole", 0).unwrap());
    let part = &list_parts(cut.path()).unwrap()[0];
    let len = std::fs::metadata(part).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(part).unwrap();
    file.set_len(len / 2).unwrap();

    let run = |dataset| e.run(dataset, full_scan(), &QueryOptions::default());
    if cfg!(all(unix, target_endian = "little")) {
        let last = match run(cut_id).unwrap_err() {
            EngineError::RetriesExhausted { last, .. } => *last,
            other => other,
        };
        match last {
            EngineError::LeafPanicked { message, .. } => {
                assert!(message.contains("block fault failed"), "{message}");
                assert!(message.contains("changed since it was opened"), "{message}");
            }
            other => panic!("expected a panicked leaf, got {other}"),
        }
    }
    let (answer, _) = run(whole_id).unwrap();
    assert_eq!(answer.buckets.iter().sum::<u64>(), ROWS as u64);
}

/// 40 000 flights in four parts: seven string columns beside the numbers.
fn spill_flights(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let mut w = SpillingWriter::new(dir.path(), 10_000).unwrap();
    w.push(&generate_flights(&FlightsConfig::new(40_000, 7)))
        .unwrap();
    w.finish().unwrap();
    dir
}

fn delays(e: &Engine, dataset: DatasetId) -> HistogramSummary {
    let sketch = HistogramSketch::streaming("DepDelay", BucketSpec::numeric(-60.0, 600.0, 20));
    e.run(dataset, sketch, &QueryOptions::default()).unwrap().0
}

#[test]
fn a_mapped_dataset_holds_the_dictionaries_its_queries_presented() {
    let dir = spill_flights("ooc-engine-dictionaries");
    // What each string column's dictionaries weigh once parsed, all parts
    // together: the same files decoded onto the heap say.
    let parts: Vec<Table> = list_parts(dir.path())
        .unwrap()
        .iter()
        .map(|p| hvc::read_file(p).unwrap())
        .collect();
    let weigh = |column: &str| -> usize {
        let dict = |t: &Table| {
            let col = t.column_by_name(column).unwrap();
            col.as_dict_col().unwrap().dictionary().heap_bytes()
        };
        parts.iter().map(dict).sum()
    };
    let strings: Vec<String> = parts[0]
        .schema()
        .descs()
        .iter()
        .filter(|d| matches!(d.kind, ColumnKind::String | ColumnKind::Category))
        .map(|d| d.name.to_string())
        .collect();
    assert!(strings.iter().any(|s| s == "TailNum") && strings.len() > 3);

    if cfg!(target_endian = "big") {
        return; // big-endian hosts load heap everywhere: nothing is deferred
    }
    let e = ooc_engine(dir.path(), 64 << 20);
    let mapped = e.load("mapped", 0).unwrap();
    let heap_side = || e.cluster().dataset_heap_bytes(mapped);
    let opened = heap_side();
    let present = |column: &str| {
        let sketch = DistinctSketch::new(column);
        e.run(mapped, sketch, &QueryOptions::default()).unwrap();
    };

    // Numbers present no string.
    delays(&e, mapped);
    assert_eq!(heap_side(), opened, "a numeric query parsed a dictionary");
    // One string column costs its own dictionaries, to the byte, once.
    present("Origin");
    assert_eq!(heap_side(), opened + weigh("Origin"));
    present("Origin");
    assert_eq!(heap_side(), opened + weigh("Origin"));
    // All of them cost all of them: `opened` held none.
    for column in &strings {
        present(column);
    }
    let all: usize = strings.iter().map(|s| weigh(s)).sum();
    assert!(
        all > 10 * opened,
        "{all} B of dictionaries, {opened} B beside"
    );
    assert_eq!(heap_side(), opened + all);
    // A replayed open starts over.
    e.cluster().evict_all();
    delays(&e, mapped);
    assert_eq!(heap_side(), opened, "the replayed open kept a dictionary");
}

#[test]
fn concurrent_first_touches_parse_a_dictionary_once() {
    const THREADS: usize = 8;
    let words: Vec<String> = (0..5_000).map(|i| format!("N{i}é")).collect();
    let build = |words: &[String]| {
        let mut db = DictionaryBuilder::with_capacity(words.len());
        for w in words {
            db.intern(w).unwrap();
        }
        db.finish(&mut [])
    };
    let loads = Arc::new(AtomicUsize::new(0));
    let dict = {
        let (words, loads) = (words.clone(), Arc::clone(&loads));
        Dictionary::deferred(words.len(), move || {
            loads.fetch_add(1, Ordering::SeqCst);
            build(&words)
        })
    };
    assert_eq!((dict.len(), dict.heap_bytes()), (words.len(), 0));
    assert_eq!(loads.load(Ordering::SeqCst), 0, "len() ran the loader");
    let mut sorted = words.clone();
    sorted.sort();
    let entries = |dict: &Dictionary| {
        let mut all = Vec::new();
        dict.for_each(|_, s| all.push(s.to_string()));
        all
    };
    // Every thread arrives at its first string together, each by another
    // door.
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (dict, sorted, barrier) = (&dict, &sorted, &barrier);
            s.spawn(move || {
                barrier.wait();
                match t % 3 {
                    0 => assert_eq!(dict.read(t as u32, &mut String::new()), sorted[t]),
                    1 => assert_eq!(dict.rank(&sorted[t]), Ok(t as u32)),
                    _ => assert_eq!(entries(dict), *sorted),
                }
                assert_eq!(entries(dict), *sorted);
            });
        }
    });
    assert_eq!(loads.load(Ordering::SeqCst), 1);
    assert_eq!(dict.heap_bytes(), build(&words).heap_bytes());
}

#[test]
fn a_damaged_dictionary_fails_the_queries_that_present_it_and_no_other() {
    let dir = spill_flights("ooc-engine-damaged");
    let e = ooc_engine(dir.path(), 64 << 20);
    // The reference, read while the files are sound.
    let heap = e.load("heap", 0).unwrap();

    // Break the first part's `TailNum` section: its first entry's first
    // byte becomes one no UTF-8 string holds.
    let part = &list_parts(dir.path()).unwrap()[0];
    let sound = hvc::read_file(part).unwrap();
    let tails = sound.column_by_name("TailNum").unwrap();
    // The section is the dictionary's front-coded bytes, and its first
    // entry is stored whole: a header byte, then the string.
    let section = tails
        .as_dict_col()
        .unwrap()
        .dictionary()
        .front_coded()
        .to_vec();
    let head = &section[..section.len().min(32)];
    let mut image = std::fs::read(part).unwrap();
    let at = image
        .windows(head.len())
        .rposition(|w| w == head)
        .expect("the section is in the file");
    image[at + 1] = 0xFF;
    std::fs::write(part, &image).unwrap();
    assert!(hvc::read_file(part).is_err(), "the heap reader refuses it");
    if cfg!(target_endian = "big") {
        return; // big-endian hosts read every part on the heap
    }

    // The mapped open never reads the section; numbers and the other
    // strings answer as before.
    let mapped = e.load("mapped", 0).unwrap();
    assert_eq!(delays(&e, mapped), delays(&e, heap));
    let distinct = |dataset, column: &str| {
        e.run(
            dataset,
            DistinctSketch::new(column),
            &QueryOptions::default(),
        )
        .map(|(summary, _)| summary)
    };
    assert_eq!(distinct(mapped, "Origin"), distinct(heap, "Origin"));
    // The column itself ends in the structured error of a panicked leaf,
    // which names it — every attempt of the recovery loop, replay included.
    let err = distinct(mapped, "TailNum").unwrap_err();
    let last = match err {
        EngineError::RetriesExhausted { last, .. } => *last,
        other => other,
    };
    match last {
        EngineError::LeafPanicked { message, .. } => {
            assert!(message.contains("\"TailNum\""), "{message}");
            assert!(message.contains("UTF-8"), "{message}");
        }
        other => panic!("expected a panicked leaf, got {other}"),
    }
    // And the workers are still there.
    assert_eq!(delays(&e, mapped), delays(&e, heap));
}
