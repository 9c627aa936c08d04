//! Out-of-core tiered storage: a spilled `hvc` dataset ten times the
//! block-cache budget, queried through `HvcDirSource` with lazy block
//! residency and, as the baseline, fully heap-resident. What to read: the
//! zone-skippable filtered histogram (a 5% band of the sorted column)
//! faults in ≤ 20% of the file bytes — I/O pruning reaches disk — and
//! warm mapped latency lands within 1.2x of the heap-resident baseline:
//! residency bookkeeping is not a steady-state tax. With `--features ooc`
//! the mapped tier is zero-copy mmap with eviction; without it, the same
//! suite exercises the portable pread fallback (the `mode` label says
//! which one a file recorded).

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
            block residency at a block-cache budget one tenth of the file, vs the heap-resident \
            baseline (median ns); mapped ≡ heap and ≤ 20% of file bytes faulted for a \
            zone-skippable 5% band asserted before timing",
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

/// A cluster whose per-worker block cache holds one tenth of the file:
/// the dataset is 10x "RAM" and residency must stay partial.
fn ooc_engine(dir: &Path, block_cache_bytes: usize) -> Engine {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(HvcDirSource::new("mapped", dir)));
    let heap = HvcDirSource::with_mode("heap", dir, SegmentMode::Heap);
    sources.register(Arc::new(heap));
    let cfg = ClusterConfig {
        block_cache_bytes,
        ..cluster_config(2, 4, 125_000)
    };
    Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()))
}

fn run(suite: &mut Suite) {
    let (dir, total_file_bytes) = spill_dataset();
    let budget = (total_file_bytes / 10) as usize;
    let engine = ooc_engine(dir.path(), budget);
    let sk = erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, ROWS as f64, 32),
    ));
    // The zone-skippable drill-down: 5% of the sorted ramp, result cache
    // off so every query really scans.
    let band = |dataset| {
        let band = Predicate::range("X", 1_000_000.0, 1_200_000.0);
        engine
            .run_filtered_erased(dataset, band, &sk, &uncached())
            .unwrap()
    };

    // Cold: fresh engine, headers just probed, zero payload bytes
    // resident — the first drill-down pays the pruned disk reads.
    let mapped = engine.load("mapped", 0).unwrap();
    let started = Instant::now();
    let cold_outcome = band(mapped);
    let cold_ns = started.elapsed().as_nanos();
    let bytes_faulted = engine.cluster().block_cache_stats().bytes_faulted;
    let fault_fraction = bytes_faulted as f64 / total_file_bytes as f64;
    assert!(
        fault_fraction <= 0.20,
        "zone-skippable band faulted {:.1}% of file bytes (> 20%)",
        fault_fraction * 100.0
    );
    let heap = engine.load("heap", 0).unwrap();
    assert!(
        cold_outcome.bytes == band(heap).bytes,
        "mapped result diverged from heap-resident"
    );

    let cluster = engine.cluster();
    let file_over_budget = total_file_bytes as f64 / budget.max(1) as f64;
    let mapped_span = cluster.dataset_mapped_bytes(mapped);
    let heap_baseline = cluster.dataset_heap_bytes(heap);
    suite
        .case("dataset")
        .fact("rows", ROWS as f64)
        .fact("total_file_bytes", total_file_bytes as f64)
        .fact("block_cache_bytes_per_worker", budget as f64)
        .fact("file_over_budget", file_over_budget)
        .fact("mapped_span_bytes", mapped_span as f64)
        .fact("heap_baseline_bytes", heap_baseline as f64);
    // Warm mapped vs heap-resident baseline: the identical query once
    // residency (resp. the heap) is populated.
    let mode = if cfg!(feature = "ooc") {
        "mmap (zero-copy, evictable)"
    } else {
        "pread (lazy, pinned)"
    };
    suite
        .case("filtered_histogram")
        .label("mode", mode)
        .fact("cold_ns", cold_ns as f64)
        .time("warm_mapped", || band(mapped))
        .time("warm_heap", || band(heap))
        .ratio("warm_over_heap", "warm_mapped", "warm_heap");
    let evictions = cluster.block_cache_stats().evictions;
    suite
        .case("io_pruning")
        .fact("bytes_faulted", bytes_faulted as f64)
        .fact("total_file_bytes", total_file_bytes as f64)
        .fact("fault_fraction", fault_fraction)
        .fact("evictions", evictions as f64);
}
