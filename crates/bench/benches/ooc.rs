//! Out-of-core tiered storage benchmark: a spilled `hvc` dataset ten times
//! the block-cache budget, queried through [`HvcDirSource`] with lazy
//! block residency versus fully heap-resident.
//!
//! Running `cargo bench --bench ooc` rewrites `BENCH_ooc.json` at the
//! repository root. The acceptance cases:
//!
//! * a zone-skippable filtered histogram (5% band of the sorted column)
//!   faults in **≤ 20% of the file bytes** — I/O pruning reaches disk;
//! * warm mapped latency lands **within 1.2x** of the heap-resident
//!   baseline — residency bookkeeping is not a steady-state tax;
//! * mapped and heap summaries are **bit-identical**.
//!
//! With `--features ooc` the mapped tier is zero-copy mmap with eviction;
//! without it, the same bench exercises the portable pread fallback.

use criterion::Criterion;
use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, NullMask, Predicate, SegmentMode, Table, TempDir};
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::{erase, ErasedSketch};
use hillview_core::{Cluster, ClusterConfig, Engine, HvcDirSource, QueryOptions};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::BucketSpec;
use hillview_storage::SpillingWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 4_000_000;
const ROWS_PER_PART: usize = 250_000;
const WORKERS: usize = 2;

fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spill the dataset: `X` a sorted ramp (tight zone windows, the
/// drill-down target) and `Y` a dense shuffled payload the filter never
/// touches — the bulk of the file bytes the scan must *not* read.
fn spill_dataset() -> (TempDir, u64) {
    let dir = TempDir::new("bench-ooc");
    let mut w = SpillingWriter::new(dir.path(), ROWS_PER_PART).unwrap();
    for base in (0..ROWS).step_by(ROWS_PER_PART) {
        let n = ROWS_PER_PART.min(ROWS - base);
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::new(
                    (base..base + n).map(|i| i as i64).collect(),
                    NullMask::none(),
                )),
            )
            .column(
                "Y",
                ColumnKind::Int,
                Column::Int(I64Column::new(
                    (base..base + n)
                        .map(|i| (mix(i as u64) % (1 << 20)) as i64)
                        .collect(),
                    NullMask::none(),
                )),
            )
            .build()
            .unwrap();
        w.push(&t).unwrap();
    }
    w.finish().unwrap();
    let bytes = file_bytes(dir.path());
    (dir, bytes)
}

fn file_bytes(dir: &Path) -> u64 {
    hillview_storage::spill::list_parts(dir)
        .unwrap()
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// A cluster whose per-worker block cache holds one tenth of the file:
/// the dataset is 10x "RAM" and residency must stay partial.
fn ooc_engine(dir: &Path, block_cache_bytes: usize) -> Arc<Engine> {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(HvcDirSource::new("mapped", dir)));
    sources.register(Arc::new(HvcDirSource::with_mode(
        "heap",
        dir,
        SegmentMode::Heap,
    )));
    let cfg = ClusterConfig {
        workers: WORKERS,
        threads_per_worker: 4,
        micropartition_rows: 125_000,
        batch_interval: std::time::Duration::from_millis(100),
        link: hillview_net::LinkConfig::instant(),
        worker_timeout: std::time::Duration::from_secs(30),
        leaf_grain_rows: 65_536,
        cache_budget_bytes: 32 << 20,
        block_cache_bytes,
    };
    Arc::new(Engine::new(Cluster::new(
        cfg,
        sources,
        UdfRegistry::with_builtins(),
    )))
}

fn histogram() -> Arc<dyn ErasedSketch> {
    erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, ROWS as f64, 32),
    ))
}

/// The zone-skippable drill-down: 5% of the sorted ramp.
fn band() -> Predicate {
    Predicate::range("X", 1_000_000.0, 1_200_000.0)
}

fn uncached() -> QueryOptions {
    QueryOptions {
        cache: false,
        ..Default::default()
    }
}

fn main() {
    let (dir, total_file_bytes) = spill_dataset();
    let budget = (total_file_bytes / 10) as usize;
    let sk = histogram();

    // ------------------------------------------------------------------
    // Cold: fresh engine, headers just probed, zero payload bytes
    // resident — the first drill-down pays the pruned disk reads.
    // ------------------------------------------------------------------
    let engine = ooc_engine(dir.path(), budget);
    let mapped = engine.load("mapped", 0).unwrap();
    let started = Instant::now();
    let cold_outcome = engine
        .run_filtered_erased(mapped, band(), &sk, &uncached())
        .unwrap();
    let cold_ns = started.elapsed().as_nanos();
    let cold_stats = engine.cluster().block_cache_stats();
    let fault_fraction = cold_stats.bytes_faulted as f64 / total_file_bytes as f64;

    // ------------------------------------------------------------------
    // Warm mapped vs heap-resident baseline: the identical query, result
    // cache off, once residency (resp. the heap) is populated.
    // ------------------------------------------------------------------
    let heap = engine.load("heap", 0).unwrap();
    let heap_outcome = engine
        .run_filtered_erased(heap, band(), &sk, &uncached())
        .unwrap();
    let identical = cold_outcome.bytes == heap_outcome.bytes;

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("ooc_filtered_histogram");
    g.sample_size(20);
    g.bench_function("warm_mapped", |b| {
        b.iter(|| {
            engine
                .run_filtered_erased(mapped, band(), &sk, &uncached())
                .unwrap()
        });
    });
    g.bench_function("warm_heap", |b| {
        b.iter(|| {
            engine
                .run_filtered_erased(heap, band(), &sk, &uncached())
                .unwrap()
        });
    });
    g.finish();
    let ms = c.measurements();
    let warm_mapped_ns = ms[ms.len() - 2].median.as_nanos();
    let warm_heap_ns = ms[ms.len() - 1].median.as_nanos();
    let warm_over_heap = warm_mapped_ns as f64 / warm_heap_ns.max(1) as f64;

    let mapped_span = engine.cluster().dataset_mapped_bytes(mapped);
    let heap_bytes = engine.cluster().dataset_heap_bytes(heap);
    let end_stats = engine.cluster().block_cache_stats();

    assert!(identical, "mapped result diverged from heap-resident");
    assert!(
        fault_fraction <= 0.20,
        "zone-skippable band faulted {:.1}% of file bytes (> 20%)",
        fault_fraction * 100.0
    );

    write_json(
        total_file_bytes,
        budget,
        mapped_span,
        heap_bytes,
        cold_ns,
        warm_mapped_ns,
        warm_heap_ns,
        cold_stats.bytes_faulted,
        fault_fraction,
        end_stats.evictions,
        identical,
    );

    println!(
        "\nooc_filtered_histogram: cold {cold_ns} ns, warm_mapped {warm_mapped_ns} ns, \
         warm_heap {warm_heap_ns} ns ({warm_over_heap:.2}x heap)"
    );
    println!(
        "faulted {} of {} file bytes ({:.1}%) for the 5% band; cache budget {} per worker, \
         evictions {}",
        cold_stats.bytes_faulted,
        total_file_bytes,
        fault_fraction * 100.0,
        budget,
        end_stats.evictions
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    total_file_bytes: u64,
    budget: usize,
    mapped_span: usize,
    heap_bytes: usize,
    cold_ns: u128,
    warm_mapped_ns: u128,
    warm_heap_ns: u128,
    bytes_faulted: u64,
    fault_fraction: f64,
    evictions: u64,
    identical: bool,
) {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"rows\": {ROWS},\n"));
    out.push_str(
        "  \"bench\": \"out-of-core tiered storage: cold vs warm filtered histogram through \
         lazy block residency at a block-cache budget one tenth of the file, vs the \
         heap-resident baseline (median ns); bytes faulted for a zone-skippable 5% band\",\n",
    );
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg!(feature = "ooc") {
            "mmap (zero-copy, evictable)"
        } else {
            "pread (lazy, pinned)"
        }
    ));
    out.push_str(&format!(
        "  \"dataset\": {{\"total_file_bytes\": {total_file_bytes}, \
         \"block_cache_bytes_per_worker\": {budget}, \
         \"file_over_budget\": {:.1}, \"mapped_span_bytes\": {mapped_span}, \
         \"heap_baseline_bytes\": {heap_bytes}}},\n",
        total_file_bytes as f64 / budget.max(1) as f64
    ));
    out.push_str(&format!(
        "  \"filtered_histogram\": {{\"cold_ns\": {cold_ns}, \
         \"warm_mapped_ns\": {warm_mapped_ns}, \"warm_heap_ns\": {warm_heap_ns}, \
         \"warm_over_heap\": {:.3}}},\n",
        warm_mapped_ns as f64 / warm_heap_ns.max(1) as f64
    ));
    out.push_str(&format!(
        "  \"io_pruning\": {{\"bytes_faulted\": {bytes_faulted}, \
         \"total_file_bytes\": {total_file_bytes}, \
         \"fault_fraction\": {fault_fraction:.4}, \"evictions\": {evictions}}},\n"
    ));
    out.push_str(&format!(
        "  \"mapped_heap_bit_identical\": {identical}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ooc.json");
    std::fs::write(path, out).expect("write BENCH_ooc.json");
    println!("wrote {path}");
}
