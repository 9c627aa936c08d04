//! Set-up shared by every workload: the fixed cluster topology, and a
//! fixture that takes generated tables the way Hillview takes data — spilled
//! to `hvc` part files, then loaded through [`HvcDirSource`].

use crate::tempdir::{dir_bytes, TempDir};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{BlockCacheStats, SegmentMode, Table};
use hillview_core::dataset::{DataSource, SourceRegistry};
use hillview_core::{CacheStats, Cluster, ClusterConfig, DatasetId, Engine, HvcDirSource};
use hillview_net::LinkConfig;
use hillview_storage::SpillingWriter;
use hillview_viz::display::DisplaySpec;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The analyst's screen.
pub const DISPLAY: DisplaySpec = DisplaySpec {
    width_px: 600,
    height_px: 200,
};

pub const WORKERS: usize = 2;
pub const MICROPARTITION_ROWS: usize = 100_000;
/// Name every fixture registers its part directory under.
pub const SOURCE: &str = "parts";

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One pool thread per core across the two workers, so the closed loop
/// never runs more busy threads than the host has cores.
pub fn threads_per_worker() -> usize {
    (host_cores() / WORKERS).max(1)
}

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// A cluster over `source`, with the benchmark's fixed topology. Only the
/// listed fields differ from `ClusterConfig::default()`.
pub fn engine_over(source: Arc<dyn DataSource>, block_cache_bytes: usize) -> Arc<Engine> {
    let mut sources = SourceRegistry::new();
    sources.register(source);
    let cfg = ClusterConfig {
        workers: WORKERS,
        threads_per_worker: threads_per_worker(),
        micropartition_rows: MICROPARTITION_ROWS,
        batch_interval: Duration::from_millis(100),
        link: LinkConfig::instant(),
        block_cache_bytes,
        ..ClusterConfig::default()
    };
    Arc::new(Engine::new(Cluster::new(
        cfg,
        sources,
        UdfRegistry::with_builtins(),
    )))
}

/// Open a part directory on a fresh cluster and load it.
pub fn open_dir(
    dir: &Path,
    mode: SegmentMode,
    block_cache_bytes: usize,
) -> Result<(Arc<Engine>, DatasetId), BoxError> {
    let source = Arc::new(HvcDirSource::with_mode(SOURCE, dir, mode));
    let engine = engine_over(source, block_cache_bytes);
    let dataset = engine.load(SOURCE, 0)?;
    Ok((engine, dataset))
}

/// Generated tables made query-ready.
pub struct Fixture {
    pub engine: Arc<Engine>,
    pub dataset: DatasetId,
    pub rows: usize,
    pub file_bytes: u64,
    pub spill: Duration,
    pub load: Duration,
    // Declared last: the engine's file handles close before the directory
    // is removed.
    pub dir: TempDir,
}

impl Fixture {
    /// Spill `tables` into `part_rows`-row parts, then load the directory.
    pub fn build(
        label: &str,
        tables: &[Table],
        part_rows: usize,
        mode: SegmentMode,
        block_cache_bytes: usize,
    ) -> Result<Fixture, BoxError> {
        let dir = TempDir::new(label)?;
        let started = Instant::now();
        let mut writer = SpillingWriter::new(dir.path(), part_rows)?;
        for t in tables {
            writer.push(t)?;
        }
        let rows = writer.finish()?.total_rows();
        let spill = started.elapsed();
        let file_bytes = dir_bytes(dir.path())?;
        let started = Instant::now();
        let (engine, dataset) = open_dir(dir.path(), mode, block_cache_bytes)?;
        let load = started.elapsed();
        Ok(Fixture {
            engine,
            dataset,
            rows,
            file_bytes,
            spill,
            load,
            dir,
        })
    }

    /// The program's own memory accounting for the loaded dataset: owned
    /// column payloads plus whatever the block caches hold resident.
    pub fn mem_bytes(&self) -> u64 {
        mem_bytes(&self.engine, self.dataset)
    }
}

pub fn mem_bytes(engine: &Engine, dataset: DatasetId) -> u64 {
    let cluster = engine.cluster();
    cluster.dataset_heap_bytes(dataset) as u64 + cluster.block_cache_stats().resident_bytes
}

pub fn clear_sketch_caches(engine: &Engine) {
    let cluster = engine.cluster();
    for w in 0..cluster.num_workers() {
        cluster.worker(w).cache().clear();
    }
}

/// The counters the program keeps, read at span boundaries as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache: CacheStats,
    pub blocks: BlockCacheStats,
    pub leaf_tasks: u64,
    pub tasks_panicked: u64,
}

impl Counters {
    pub fn read(engine: &Engine) -> Counters {
        let cluster = engine.cluster();
        let workers = || (0..cluster.num_workers()).map(|w| cluster.worker(w));
        Counters {
            cache: cluster.cache_stats(),
            blocks: cluster.block_cache_stats(),
            leaf_tasks: workers().map(|w| w.leaf_tasks_executed()).sum(),
            tasks_panicked: workers().map(|w| w.pool().tasks_panicked() as u64).sum(),
        }
    }

    /// Add the counts of a cluster that is about to go away; gauges
    /// (resident entries and bytes) take the latest reading.
    pub fn add(&mut self, other: &Counters) {
        let (entries, bytes) = (other.cache.entries, other.cache.bytes);
        self.cache = self.cache.merge(other.cache);
        self.cache.entries = entries;
        self.cache.bytes = bytes;
        let resident = other.blocks.resident_bytes;
        self.blocks.merge(&other.blocks);
        self.blocks.resident_bytes = resident;
        self.leaf_tasks += other.leaf_tasks;
        self.tasks_panicked += other.tasks_panicked;
    }
}
