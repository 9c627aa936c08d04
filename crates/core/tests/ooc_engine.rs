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
//!   reproduces the heap answer exactly,
//! * heap/mapped accounting split: mapped datasets report `mapped_bytes`,
//!   not `heap_bytes`,
//! * double columns fault frame by frame, raw and encoded alike.

use hillview_columnar::column::{Column, F64Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, EncodingKind, Predicate, SegmentMode, Table, TempDir};
use hillview_core::dataset::SourceRegistry;
use hillview_core::{
    Cluster, ClusterConfig, Engine, FaultAction, FaultPlan, FaultSite, HvcDirSource, QueryOptions,
};
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::BucketSpec;
use hillview_storage::SpillingWriter;
use std::path::Path;
use std::sync::Arc;

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

/// An engine whose "mapped" source opens the part directory through the
/// residency tiers and whose "heap" source decodes the same files eagerly.
/// The block cache is tiny relative to the dataset so residency churns.
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

    // A cache that holds everything: faults count first touches only.
    let e = ooc_engine(dir.path(), 64 << 20);
    let mapped = e.load("mapped", 0).unwrap();
    let heap = e.load("heap", 0).unwrap();
    if cfg!(target_endian = "big") {
        return; // big-endian hosts load heap everywhere: nothing to fault
    }
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
fn tiny_block_cache_survives_eviction_and_kill_chaos() {
    let dir = spill_dataset("ooc-engine-chaos");
    // 4 KiB per worker: far below one 64 KiB residency chunk, so every
    // fault of a *different* part file must evict the previous one.
    let e = ooc_engine(dir.path(), 4 << 10);
    let mapped = e.load("mapped", 0).unwrap();
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
    let references: Vec<HistogramSummary> = bands
        .iter()
        .map(|b| {
            e.run_filtered(mapped, b.clone(), histogram(), &QueryOptions::default())
                .unwrap()
                .0
        })
        .collect();
    for r in &references {
        assert_eq!(r.buckets.iter().sum::<u64>(), 10_000);
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
                 pre-fault answer"
            );
        }
    }
    e.cluster().disarm_faults();

    let stats = e.cluster().block_cache_stats();
    if cfg!(target_endian = "little") {
        assert!(stats.faults > 0, "mapped scans never faulted");
        // Under the mmap tier a 4 KiB budget cannot hold the touched
        // band, so eviction must actually churn. (The pread tier pins
        // resident chunks; eviction needs `ooc`.)
        #[cfg(feature = "ooc")]
        assert!(
            stats.evictions > 0,
            "tiny budget never evicted (resident {} / budget {})",
            stats.resident_bytes,
            stats.budget
        );
    }
}
