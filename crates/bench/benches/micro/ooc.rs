//! Out-of-core tiered storage: a spilled `hvc` dataset ten times the
//! block-cache budget, queried through `HvcDirSource` with lazy block
//! residency (`SegmentMode::Auto`: zero-copy windows over the mapped file,
//! evicted past the budget) and, as the baseline, fully heap-resident. What
//! to read: the zone-skippable filtered histogram (a 5% band of the sorted
//! column) faults in ≤ 20% of the file bytes — I/O pruning reaches disk
//! (asserted) — and warm mapped latency stays near the heap-resident
//! baseline: residency bookkeeping is not a steady-state tax (recorded, not
//! asserted: a ≈ 1 ms query on this 2-core host moves ±10 % sample to
//! sample, and six recordings put the lazy tier anywhere from 0.94x to
//! 1.42x of heap).

use super::data::uncached;
use hillview_bench::harness::{mix, Registered, Suite};
use hillview_bench::setup::cluster_config;
use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, NullMask, Predicate, SegmentMode, Table, TempDir};
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::erase;
use hillview_core::{Cluster, ClusterConfig, Engine, HvcDirSource};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::BucketSpec;
use hillview_storage::SpillingWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const SUITE: Registered = Registered {
    name: "ooc",
    about: "out-of-core tiered storage, 4M rows: cold vs warm filtered histogram through lazy \
            block residency (the evictable mmap tier) at a block-cache budget one tenth of the \
            file, vs the heap-resident baseline (median ns); mapped ≡ heap and ≤ 20% of file \
            bytes faulted for a zone-skippable 5% band asserted before timing. The pinned pread \
            tier this replaced read warm 1.10 ms against this tier's 1.25 ms by ignoring the \
            budget: it never evicted a chunk it had read",
    run,
};

const ROWS: usize = 4_000_000;
const ROWS_PER_PART: usize = 250_000;

/// Spill the dataset: `X` a sorted ramp (tight zone windows, the
/// drill-down target) and `Y` a dense shuffled payload the filter never
/// touches — the bulk of the file bytes the scan must *not* read.
fn spill_dataset() -> (TempDir, u64) {
    let dir = TempDir::new("bench-ooc");
    let mut w = SpillingWriter::new(dir.path(), ROWS_PER_PART).unwrap();
    let int = |values: Vec<i64>| Column::Int(I64Column::new(values, NullMask::none()));
    for base in (0..ROWS).step_by(ROWS_PER_PART) {
        let rows = base..base + ROWS_PER_PART.min(ROWS - base);
        let y = rows.clone().map(|i| (mix(i as u64) % (1 << 20)) as i64);
        let t = Table::builder()
            .column("X", ColumnKind::Int, int(rows.map(|i| i as i64).collect()))
            .column("Y", ColumnKind::Int, int(y.collect()))
            .build()
            .unwrap();
        w.push(&t).unwrap();
    }
    w.finish().unwrap();
    let bytes = hillview_storage::spill::list_parts(dir.path())
        .unwrap()
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    (dir, bytes)
}

/// A cluster over the part directory opened under `mode`, whose per-worker
/// block cache holds one tenth of the file: the dataset is 10x "RAM" and
/// residency must stay partial.
fn ooc_engine(dir: &Path, mode: SegmentMode, block_cache_bytes: usize) -> Engine {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(HvcDirSource::with_mode("parts", dir, mode)));
    let cfg = ClusterConfig {
        block_cache_bytes,
        ..cluster_config(2, 4, 125_000)
    };
    Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()))
}

fn run(suite: &mut Suite) {
    let (dir, total_file_bytes) = spill_dataset();
    let budget = (total_file_bytes / 10) as usize;
    let sk = erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, ROWS as f64, 32),
    ));
    // The zone-skippable drill-down: 5% of the sorted ramp, result cache
    // off so every query really scans.
    let band = |engine: &Engine, dataset| {
        let band = Predicate::range("X", 1_000_000.0, 1_200_000.0);
        engine
            .run_filtered_erased(dataset, band, &sk, &uncached())
            .unwrap()
    };

    let heap_engine = ooc_engine(dir.path(), SegmentMode::Heap, budget);
    let heap = heap_engine.load("parts", 0).unwrap();
    let heap_answer = band(&heap_engine, heap).bytes;
    // Cold: fresh engine, headers just probed, zero payload bytes resident
    // — the first drill-down pays the pruned disk reads.
    let engine = ooc_engine(dir.path(), SegmentMode::Auto, budget);
    let mapped = engine.load("parts", 0).unwrap();
    let started = Instant::now();
    let cold_outcome = band(&engine, mapped);
    let cold_ns = started.elapsed().as_nanos();
    let bytes_faulted = engine.cluster().block_cache_stats().bytes_faulted;
    assert!(
        bytes_faulted * 5 <= total_file_bytes,
        "zone-skippable band faulted {bytes_faulted} of {total_file_bytes} file bytes (> 20%)"
    );
    assert!(
        cold_outcome.bytes == heap_answer,
        "mapped result diverged from heap-resident"
    );

    let file_over_budget = total_file_bytes as f64 / budget.max(1) as f64;
    let mapped_span = engine.cluster().dataset_mapped_bytes(mapped);
    let heap_baseline = heap_engine.cluster().dataset_heap_bytes(heap);
    suite
        .case("dataset")
        .fact("rows", ROWS as f64)
        .fact("total_file_bytes", total_file_bytes as f64)
        .fact("block_cache_bytes_per_worker", budget as f64)
        .fact("file_over_budget", file_over_budget)
        .fact("mapped_span_bytes", mapped_span as f64)
        .fact("heap_baseline_bytes", heap_baseline as f64);
    // Warm lazy tier vs heap-resident baseline: the identical query once
    // residency (resp. the heap) is populated.
    let warm = suite.case("filtered_histogram");
    warm.time("warm_mmap", || band(&engine, mapped));
    warm.time("warm_heap", || band(&heap_engine, heap));
    warm.ratio("mmap_over_heap", "warm_mmap", "warm_heap");
    let evictions = engine.cluster().block_cache_stats().evictions;
    suite
        .case("io_pruning_mmap")
        .fact("cold_ns", cold_ns as f64)
        .fact("bytes_faulted", bytes_faulted as f64)
        .fact("total_file_bytes", total_file_bytes as f64)
        .fact(
            "fault_fraction",
            bytes_faulted as f64 / total_file_bytes as f64,
        )
        .fact("evictions", evictions as f64);
}
