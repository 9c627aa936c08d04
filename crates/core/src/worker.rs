//! Worker nodes: per-server soft state, caches, and leaf execution.
//!
//! A worker models one server of the paper's testbed: it owns a slice of
//! every dataset (as micropartition [`TableView`]s), a thread pool that
//! executes leaf `summarize` calls, an in-memory data cache, and a
//! bounded sketch-result cache for deterministic summaries (§5.4,
//! [`SketchCache`]). All of it is soft state (§5.7): `evict_all`/`kill`
//! erase it, and the root reconstructs it by replaying lineage.
//!
//! There is one way a dataset comes to exist here: [`Worker::derive`]
//! applies one [`Lineage`] step — a load, a filter or a map — and every
//! per-partition step runs through one fan-out over the pool. Every
//! materialized dataset carries the content *version* its step assigns
//! (`Lineage::content_version`), which is what makes cache keys
//! structural — two queries share an entry exactly when their lineage
//! proves identical contents.

use crate::cache::{CacheStats, SketchCache};
use crate::cluster::ClusterConfig;
use crate::dataset::{DatasetId, Lineage, LoadRequest, SourceRegistry, SourceSpec};
use crate::error::{EngineError, EngineResult};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::pool::ThreadPool;
use crate::stats::DatasetStats;
use hillview_columnar::predicate::filter_members;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{BlockCache, BlockCacheStats, Predicate};
use hillview_sketch::TableView;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One materialized dataset on a worker: its partitions plus the
/// lineage-derived content version the sketch cache keys on, and — for a
/// load — its partitions' statistics, folded in partition order.
struct DatasetEntry {
    views: Arc<Vec<TableView>>,
    version: u64,
    stats: Option<Arc<DatasetStats>>,
}

/// One simulated server.
pub struct Worker {
    /// Worker index within the cluster.
    pub id: usize,
    num_workers: usize,
    micropartition_rows: usize,
    pool: Arc<ThreadPool>,
    datasets: Mutex<HashMap<DatasetId, DatasetEntry>>,
    comp_cache: SketchCache,
    /// Byte-budgeted residency cache for out-of-core (mapped) datasets:
    /// every chunk a scan faults in is charged here, and cold chunks past
    /// the budget are evicted back to the file. Unused (zero-cost) when
    /// every source is in-memory.
    block_cache: Arc<BlockCache>,
    alive: AtomicBool,
    sources: SourceRegistry,
    udfs: UdfRegistry,
    /// Cumulative rows loaded from sources (diagnostics).
    rows_loaded: AtomicU64,
    /// Cumulative encoded bytes of loaded datasets (footprint diagnostics).
    bytes_loaded: AtomicU64,
    /// Leaf sub-tasks executed on this worker's pool (diagnostics: a value
    /// above the partition count proves intra-partition splitting ran).
    leaf_tasks: AtomicU64,
    /// Armed fault plan, if any (chaos tests; `None` in production).
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// Engine-visible operations handled so far — the "Nth message"
    /// counter fault plans key kill/evict decisions on.
    ops: AtomicU64,
}

impl Worker {
    /// Create worker `id` of the cluster `cfg` describes: its pool
    /// threads, its sketch-result cache budget, and its block-residency
    /// budget ([`ClusterConfig::block_cache_bytes`]; `0` means
    /// unbounded).
    pub(crate) fn new(
        id: usize,
        cfg: &ClusterConfig,
        sources: SourceRegistry,
        udfs: UdfRegistry,
    ) -> Self {
        Worker {
            id,
            num_workers: cfg.workers,
            micropartition_rows: cfg.micropartition_rows,
            pool: Arc::new(ThreadPool::new(
                cfg.threads_per_worker,
                &format!("worker{id}"),
            )),
            datasets: Mutex::new(HashMap::new()),
            comp_cache: SketchCache::new(cfg.cache_budget_bytes),
            block_cache: match cfg.block_cache_bytes {
                0 => BlockCache::unbounded(),
                budget => BlockCache::new(budget),
            },
            alive: AtomicBool::new(true),
            sources,
            udfs,
            rows_loaded: AtomicU64::new(0),
            bytes_loaded: AtomicU64::new(0),
            leaf_tasks: AtomicU64::new(0),
            faults: Mutex::new(None),
            ops: AtomicU64::new(0),
        }
    }

    /// Arm a fault plan on this worker (kill/evict at operation
    /// boundaries, panic/stall at leaf tasks).
    pub(crate) fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *self.faults.lock() = Some(plan);
    }

    /// Remove any armed fault plan.
    pub(crate) fn disarm_faults(&self) {
        *self.faults.lock() = None;
    }

    /// The armed fault plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    /// Fault-injection point at an engine-visible operation boundary
    /// (a derive or a query fan-out). Consults the armed plan with
    /// this worker's next operation index; a `Kill` decision crashes the
    /// worker, an `Evict` decision drops `dataset`'s soft state. Both then
    /// surface through the ordinary failure paths (`WorkerDown`,
    /// `DatasetMissing`) that recovery already handles.
    pub(crate) fn fault_op(&self, dataset: Option<DatasetId>) {
        let Some(plan) = self.fault_plan() else {
            return;
        };
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        match plan.decide(FaultSite::WorkerOp {
            worker: self.id,
            index,
        }) {
            Some(FaultAction::Kill) => self.kill(),
            Some(FaultAction::Evict) => {
                if let Some(ds) = dataset {
                    self.evict(ds);
                }
            }
            _ => {}
        }
    }

    /// Fault-injection point at the head of a leaf sub-task; returns a
    /// panic/stall decision for the leaf identified by its deterministic
    /// split coordinates.
    pub(crate) fn leaf_fault(&self, partition: u32, lo: usize) -> Option<FaultAction> {
        let plan = self.fault_plan()?;
        match plan.decide(FaultSite::Leaf {
            worker: self.id,
            partition,
            lo: lo as u64,
        }) {
            a @ Some(FaultAction::PanicLeaf) | a @ Some(FaultAction::StallLeaf(_)) => a,
            _ => None,
        }
    }

    /// The worker's thread pool (used by the execution tree for leaves).
    /// Shared so leaf tasks can re-submit their split halves.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Leaf sub-tasks executed so far (diagnostics; exceeds the partition
    /// count of a query exactly when intra-partition splitting happened).
    pub fn leaf_tasks_executed(&self) -> u64 {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.leaf_tasks.load(Ordering::Relaxed)
    }

    /// Record one executed leaf sub-task.
    pub(crate) fn note_leaf_task(&self) {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.leaf_tasks.fetch_add(1, Ordering::Relaxed);
    }

    /// True while the worker is up.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Fault injection: the worker "crashes" — all soft state is lost and
    /// queries against it fail until [`Worker::restart`].
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.datasets.lock().clear();
        self.comp_cache.clear();
    }

    /// Bring a crashed worker back, empty ("Worker nodes are stateless, so
    /// restarting the node after a failure is equivalent to deleting all
    /// cached datasets", §5.8).
    pub fn restart(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Drop all cached datasets but stay alive — models cache expiry or
    /// memory pressure; the next query triggers lazy reconstruction.
    pub(crate) fn evict_all(&self) {
        self.datasets.lock().clear();
        self.comp_cache.clear();
    }

    /// Drop one dataset's partitions. Its cached summaries stay: each is a
    /// fact about immutable content, which a replay of the dataset's
    /// lineage restores under the same version, and the LRU drops them if
    /// nothing asks again.
    pub fn evict(&self, id: DatasetId) {
        self.datasets.lock().remove(&id);
    }

    /// Whether the worker currently materializes `id`.
    pub fn has_dataset(&self, id: DatasetId) -> bool {
        self.datasets.lock().contains_key(&id)
    }

    /// This worker's partitions of `id`, if materialized.
    pub fn partitions(&self, id: DatasetId) -> Option<Arc<Vec<TableView>>> {
        self.datasets.lock().get(&id).map(|e| e.views.clone())
    }

    /// The lineage-derived content version of `id`, if materialized.
    pub(crate) fn dataset_version(&self, id: DatasetId) -> Option<u64> {
        self.datasets.lock().get(&id).map(|e| e.version)
    }

    /// The version of `id` and the statistics of its partitions, if it is
    /// a load materialized here.
    pub(crate) fn dataset_stats(&self, id: DatasetId) -> Option<(u64, Arc<DatasetStats>)> {
        let datasets = self.datasets.lock();
        let entry = datasets.get(&id)?;
        Some((entry.version, entry.stats.clone()?))
    }

    /// What applying `step` to derive `id` here starts from and arrives at:
    /// the parent's partitions (none for a load) and the content version
    /// the derived dataset carries — exactly the one [`Worker::derive`]
    /// assigns, computed without materializing anything. `None` when the
    /// parent is not materialized. Fused queries key their cache entries on the
    /// version, so a canonically-equal predicate hits the same entry
    /// whether or not the membership was ever materialized under a
    /// different textual spelling.
    pub(crate) fn derivation(
        &self,
        id: DatasetId,
        step: &Lineage,
    ) -> Option<(Arc<Vec<TableView>>, u64)> {
        let (parent, version) = match step.parent() {
            Some(parent) => {
                let d = self.datasets.lock();
                let e = d.get(&parent)?;
                (e.views.clone(), e.version)
            }
            None => (Arc::default(), 0),
        };
        let schema = parent.first().map(|v| v.table().as_ref());
        let version = step.content_version(id, version, schema);
        Some((parent, version))
    }

    /// The content version this worker's sketch-cache entries carry for a
    /// tree over `dataset`: the dataset's own for a plain tree, and for one
    /// narrowed by a fused `filter` the version materializing that filter
    /// would assign — so the materialized filter and a canonically-equal
    /// respelling of the predicate share the entry. The one expression
    /// behind both levels of the computation cache: the aggregation node
    /// keys its entry on it, and the root folds it over the workers into
    /// the key of its memo. `None` when the dataset is not materialized
    /// here.
    pub(crate) fn entry_version(
        &self,
        dataset: DatasetId,
        filter: Option<&Predicate>,
    ) -> Option<u64> {
        let Some(predicate) = filter else {
            return self.dataset_version(dataset);
        };
        let step = Lineage::Filtered {
            parent: dataset,
            predicate: predicate.clone(),
        };
        // A filter's version does not read the id it would be derived as.
        self.derivation(dataset, &step).map(|(_, version)| version)
    }

    /// Total rows across this worker's partitions of `id`.
    pub(crate) fn dataset_rows(&self, id: DatasetId) -> usize {
        self.partitions(id)
            .map(|p| p.iter().map(|v| v.len()).sum())
            .unwrap_or(0)
    }

    /// Approximate in-memory footprint of this worker's partitions of `id`,
    /// in bytes. Reflects the *encoded* column payloads (compressed columns
    /// report their packed size), so tests and capacity planning can assert
    /// the compression ratio a load achieved. Mapped (out-of-core) columns
    /// are *excluded* — they are file windows, not heap; see
    /// [`Worker::dataset_mapped_bytes`].
    pub(crate) fn dataset_heap_bytes(&self, id: DatasetId) -> usize {
        self.partitions(id)
            .map(|p| p.iter().map(|v| v.table().heap_bytes()).sum())
            .unwrap_or(0)
    }

    /// Bytes of `id`'s partitions that are windows over mapped files
    /// rather than owned heap payloads — the out-of-core complement of
    /// [`Worker::dataset_heap_bytes`]. Counts the *addressable* span;
    /// how much of it is actually resident is a property of the
    /// [`Worker::block_cache`], not the dataset.
    pub(crate) fn dataset_mapped_bytes(&self, id: DatasetId) -> usize {
        self.partitions(id)
            .map(|p| p.iter().map(|v| v.table().mapped_bytes()).sum())
            .unwrap_or(0)
    }

    /// Counter snapshot of the block-residency cache.
    pub(crate) fn block_cache_stats(&self) -> BlockCacheStats {
        self.block_cache.stats()
    }

    /// Rows loaded from sources so far.
    pub fn rows_loaded(&self) -> u64 {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.rows_loaded.load(Ordering::Relaxed)
    }

    /// Encoded bytes of datasets loaded from sources so far (the in-memory
    /// footprint counterpart of [`Worker::rows_loaded`]).
    #[cfg(test)]
    pub(crate) fn bytes_loaded(&self) -> u64 {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.bytes_loaded.load(Ordering::Relaxed)
    }

    /// Sketch-result cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.comp_cache.stats().hits
    }

    /// The worker's sketch-result cache (execution tree, tests).
    pub fn cache(&self) -> &SketchCache {
        &self.comp_cache
    }

    /// Counter snapshot of the sketch-result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.comp_cache.stats()
    }

    fn check_alive(&self) -> EngineResult<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(EngineError::WorkerDown(self.id))
        }
    }

    /// Apply one lineage step, materializing dataset `id` (paper §5.6–5.7).
    ///
    /// * A **load** reads this worker's share of the source (the leaf of
    ///   every lineage chain: "the recursion ends when data is read from
    ///   disk").
    /// * A **filter** keeps the parent's tables and narrows their
    ///   membership sets: each partition runs the block-wise predicate
    ///   pipeline ([`hillview_columnar::predicate::filter_members`]) —
    ///   frame-word evaluation with zone-map block skipping, intersected
    ///   word-wise with the parent membership, no per-row id
    ///   materialization.
    /// * A **map** gives each partition's table a derived column computed
    ///   by the named UDF. The column lives only in this soft state,
    ///   recomputed on demand after eviction.
    ///
    /// A load also folds its partitions' statistics ([`DatasetStats`]),
    /// which the root reads instead of launching an unfiltered count or
    /// range tree.
    pub(crate) fn derive(&self, id: DatasetId, step: &Lineage) -> EngineResult<()> {
        // The dataset the step reads: its parent, or for a load the one
        // it (re)creates.
        let reads = step.parent().unwrap_or(id);
        self.fault_op(Some(reads));
        self.check_alive()?;
        let (parent, version) = self
            .derivation(id, step)
            .ok_or(EngineError::DatasetMissing {
                worker: self.id,
                dataset: reads,
            })?;
        let views = match step {
            Lineage::Loaded { spec } => self.load(spec)?,
            Lineage::Filtered { predicate, .. } => {
                let predicate = predicate.clone();
                self.for_each_partition(&parent, move |view| {
                    let members = filter_members(view.table(), &predicate, view.members())?;
                    Ok(TableView::with_members(
                        view.table().clone(),
                        Arc::new(members),
                    ))
                })?
            }
            Lineage::Mapped {
                udf, new_column, ..
            } => {
                let (udfs, udf, new_column) = (self.udfs.clone(), udf.clone(), new_column.clone());
                self.for_each_partition(&parent, move |view| {
                    let col = udfs.materialize(&udf, view.table())?;
                    let table = view.table().with_column(&new_column, col)?;
                    Ok(TableView::with_members(
                        Arc::new(table),
                        view.members().clone(),
                    ))
                })?
            }
        };
        let stats = match step {
            Lineage::Loaded { .. } => DatasetStats::of_parts(&views).map(Arc::new),
            _ => None,
        };
        self.datasets.lock().insert(
            id,
            DatasetEntry {
                views: Arc::new(views),
                version,
                stats,
            },
        );
        Ok(())
    }

    /// This worker's partitions of a source snapshot.
    fn load(&self, spec: &SourceSpec) -> EngineResult<Vec<TableView>> {
        let tables = self.sources.get(&spec.source)?.load(&LoadRequest {
            worker: self.id,
            num_workers: self.num_workers,
            micropartition_rows: self.micropartition_rows,
            snapshot: spec.snapshot,
            cache: &self.block_cache,
        })?;
        let mut views = Vec::new();
        for t in tables {
            // Split oversized tables into micropartitions (paper §5.3) —
            // except mapped tables: slicing decodes every value, which
            // would fault the whole file in. They stay one partition and
            // rely on intra-partition leaf splitting for parallelism.
            if t.num_rows() > self.micropartition_rows && t.mapped_bytes() == 0 {
                for part in hillview_storage::partition_table(&t, self.micropartition_rows) {
                    views.push(TableView::full(Arc::new(part)));
                }
            } else {
                views.push(TableView::full(Arc::new(t)));
            }
        }
        let rows: usize = views.iter().map(|v| v.len()).sum();
        let bytes: usize = views.iter().map(|v| v.table().heap_bytes()).sum();
        // lint: allow(relaxed, monotonic diagnostics counters; the dataset itself is published via the mutex in `derive`)
        self.rows_loaded.fetch_add(rows as u64, Ordering::Relaxed);
        // lint: allow(relaxed, monotonic diagnostics counters; the dataset itself is published via the mutex in `derive`)
        self.bytes_loaded.fetch_add(bytes as u64, Ordering::Relaxed);
        Ok(views)
    }

    /// Derive one partition from each of `parent`'s, in parallel on the
    /// pool — the one place dataset work is submitted to it. Results come
    /// back in partition order whatever order they finish in.
    fn for_each_partition(
        &self,
        parent: &[TableView],
        f: impl Fn(&TableView) -> EngineResult<TableView> + Send + Sync + 'static,
    ) -> EngineResult<Vec<TableView>> {
        let f = Arc::new(f);
        let (tx, rx) = crossbeam::channel::bounded(parent.len().max(1));
        for (i, view) in parent.iter().enumerate() {
            let (view, f, tx) = (view.clone(), f.clone(), tx.clone());
            self.pool.submit(move || {
                let _ = tx.send((i, f(&view)));
            });
        }
        drop(tx);
        let mut out = Vec::with_capacity(parent.len());
        for _ in parent {
            // A task that panics drops its sender unsent (the pool
            // isolates the panic), so the channel closes short of the count.
            let (i, view) = rx.recv().map_err(|_| EngineError::WorkerDown(self.id))?;
            out.push((i, view?));
        }
        out.sort_by_key(|&(i, _)| i);
        Ok(out.into_iter().map(|(_, view)| view).collect())
    }
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Worker{}(alive={}, datasets={})",
            self.id,
            self.is_alive(),
            self.datasets.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FnSource;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table, Value};

    fn test_worker() -> Arc<Worker> {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..100).map(|i| Some(i + w as i64 * 1000)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_sum("X2", "X", "X");
        Arc::new(Worker::new(0, &config(2, 2, 30), sources, udfs))
    }

    /// An unbounded block cache and a 1 MiB sketch cache under the given
    /// topology.
    fn config(workers: usize, threads_per_worker: usize, rows: usize) -> ClusterConfig {
        ClusterConfig {
            workers,
            threads_per_worker,
            micropartition_rows: rows,
            cache_budget_bytes: 1 << 20,
            block_cache_bytes: 0,
            ..ClusterConfig::test()
        }
    }

    fn load_of(source: &str, snapshot: u64) -> Lineage {
        let source = Arc::from(source);
        Lineage::Loaded {
            spec: SourceSpec { source, snapshot },
        }
    }

    fn load() -> Lineage {
        load_of("nums", 0)
    }

    fn filter(parent: DatasetId, predicate: &Predicate) -> Lineage {
        Lineage::Filtered {
            parent,
            predicate: predicate.clone(),
        }
    }

    fn map(parent: DatasetId, udf: &str, new_column: &str) -> Lineage {
        Lineage::Mapped {
            parent,
            udf: Arc::from(udf),
            new_column: Arc::from(new_column),
        }
    }

    #[test]
    fn load_splits_into_micropartitions() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        let parts = w.partitions(DatasetId(1)).unwrap();
        assert_eq!(parts.len(), 4, "100 rows at 30/partition");
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
        assert_eq!(w.rows_loaded(), 100);
    }

    #[test]
    fn load_reports_compressed_footprint() {
        // A sorted low-cardinality column: the encoding layer must land the
        // dataset at a fraction of the 8-bytes-per-value plain footprint.
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("sorted", |_w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "Bucket",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options((0..40_000).map(|i| Some(i / 100)))),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let w = Arc::new(Worker::new(
            0,
            &config(1, 1, 10_000),
            sources,
            UdfRegistry::with_builtins(),
        ));
        w.derive(DatasetId(1), &load_of("sorted", 0)).unwrap();
        let plain_bytes = 40_000 * 8;
        let actual = w.dataset_heap_bytes(DatasetId(1));
        assert!(actual > 0);
        assert!(
            actual * 4 <= plain_bytes,
            "footprint {actual} not >=4x below plain {plain_bytes}"
        );
        assert_eq!(w.bytes_loaded(), actual as u64);
        w.evict(DatasetId(1));
        assert_eq!(w.dataset_heap_bytes(DatasetId(1)), 0);
    }

    #[test]
    fn filter_narrows_membership() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        w.derive(
            DatasetId(2),
            &filter(DatasetId(1), &Predicate::range("X", 0.0, 50.0)),
        )
        .unwrap();
        assert_eq!(w.dataset_rows(DatasetId(2)), 50);
        // Parent untouched.
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
        // Tables are shared, not copied.
        let p1 = w.partitions(DatasetId(1)).unwrap();
        let p2 = w.partitions(DatasetId(2)).unwrap();
        assert!(Arc::ptr_eq(p1[0].table(), p2[0].table()));
    }

    #[test]
    fn map_adds_derived_column() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        w.derive(DatasetId(3), &map(DatasetId(1), "X2", "Doubled"))
            .unwrap();
        let parts = w.partitions(DatasetId(3)).unwrap();
        let t = parts[0].table();
        assert_eq!(t.get(5, "Doubled").unwrap(), Value::Double(10.0));
        assert_eq!(t.num_columns(), 2);
    }

    #[test]
    fn scripted_faults_evict_then_kill_surface_as_structured_errors() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        w.arm_faults(Arc::new(FaultPlan::scripted([
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: 0,
                },
                FaultAction::Evict,
            ),
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: 1,
                },
                FaultAction::Kill,
            ),
        ])));
        // Op 0: the parent is evicted right before the filter reads it.
        let err = w
            .derive(
                DatasetId(2),
                &filter(DatasetId(1), &Predicate::range("X", 0.0, 50.0)),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::DatasetMissing { .. }), "{err}");
        // Op 1: the worker is killed at the next boundary.
        let err = w.derive(DatasetId(1), &load()).unwrap_err();
        assert!(matches!(err, EngineError::WorkerDown(0)), "{err}");
        // Disarmed + restarted, the worker heals completely.
        w.disarm_faults();
        w.restart();
        w.derive(DatasetId(1), &load()).unwrap();
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
    }

    #[test]
    fn filter_of_filter_composes() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        w.derive(
            DatasetId(2),
            &filter(DatasetId(1), &Predicate::range("X", 0.0, 50.0)),
        )
        .unwrap();
        w.derive(
            DatasetId(3),
            &filter(DatasetId(2), &Predicate::range("X", 25.0, 100.0)),
        )
        .unwrap();
        assert_eq!(w.dataset_rows(DatasetId(3)), 25);
    }

    #[test]
    fn missing_parent_reports_dataset_missing() {
        let w = test_worker();
        let e = w
            .derive(DatasetId(9), &filter(DatasetId(8), &Predicate::True))
            .unwrap_err();
        assert!(matches!(
            e,
            EngineError::DatasetMissing {
                dataset: DatasetId(8),
                ..
            }
        ));
    }

    #[test]
    fn kill_drops_state_and_rejects_work() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        w.kill();
        assert!(!w.is_alive());
        assert!(!w.has_dataset(DatasetId(1)));
        assert!(matches!(
            w.derive(DatasetId(1), &load()),
            Err(EngineError::WorkerDown(0))
        ));
        w.restart();
        assert!(w.is_alive());
        assert!(
            !w.has_dataset(DatasetId(1)),
            "restart does not restore data"
        );
        w.derive(DatasetId(1), &load()).unwrap();
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
    }

    #[test]
    fn eviction_is_soft() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        w.evict(DatasetId(1));
        assert!(!w.has_dataset(DatasetId(1)));
        assert!(w.is_alive(), "eviction is not a crash");
    }

    #[test]
    fn sketch_cache_round_trip_and_eviction() {
        use crate::cache::{CacheKey, Lookup};
        use bytes::Bytes;
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        let key = CacheKey {
            version: 42,
            query: [7, 8],
        };
        match w.cache().lookup(key) {
            Lookup::Miss(g) => g.complete(Bytes::from_static(b"summary")),
            _ => panic!("fresh cache must miss"),
        }
        match w.cache().lookup(key) {
            Lookup::Hit(b) => assert_eq!(b, Bytes::from_static(b"summary")),
            _ => panic!("stored entry must hit"),
        }
        assert_eq!(w.cache_hits(), 1);
        // An entry is a fact about content, not about who holds it.
        w.evict(DatasetId(1));
        assert!(w.cache().contains(&key), "evicting a dataset keeps entries");
        w.evict_all();
        assert!(
            matches!(w.cache().lookup(key), Lookup::Miss(_)),
            "evicting everything drops them"
        );
    }

    #[test]
    fn dataset_versions_chain_through_lineage() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        let base = w.dataset_version(DatasetId(1)).unwrap();
        // Reload after eviction: same spec, same version.
        w.evict(DatasetId(1));
        w.derive(DatasetId(1), &load()).unwrap();
        assert_eq!(w.dataset_version(DatasetId(1)).unwrap(), base);
        // A different snapshot is different content, and a second load of
        // the same one is another dataset: their entries never meet.
        w.derive(DatasetId(5), &load_of("nums", 1)).unwrap();
        assert_ne!(w.dataset_version(DatasetId(5)).unwrap(), base);
        w.derive(DatasetId(6), &load()).unwrap();
        assert_ne!(w.dataset_version(DatasetId(6)).unwrap(), base);
        // Canonically-equal predicates derive the same filtered version;
        // semantically distinct ones never do.
        let a = Predicate::range("X", 0.0, 50.0).and(Predicate::range("X", 10.0, 100.0));
        let b = Predicate::range("X", 10.0, 100.0).and(Predicate::range("X", 0.0, 50.0));
        let c = Predicate::range("X", 0.0, 49.0);
        let filtered_version = |p| {
            w.derivation(DatasetId(2), &filter(DatasetId(1), p))
                .unwrap()
                .1
        };
        let va = filtered_version(&a);
        assert_eq!(va, filtered_version(&b));
        assert_ne!(va, filtered_version(&c));
        // Materializing the filter assigns exactly the predicted version.
        w.derive(DatasetId(2), &filter(DatasetId(1), &a)).unwrap();
        assert_eq!(w.dataset_version(DatasetId(2)).unwrap(), va);
        // Mapped datasets fold the UDF identity in.
        w.derive(DatasetId(3), &map(DatasetId(1), "X2", "Doubled"))
            .unwrap();
        let vm = w.dataset_version(DatasetId(3)).unwrap();
        assert_ne!(vm, base);
        w.derive(DatasetId(4), &map(DatasetId(1), "X2", "Tripled"))
            .unwrap();
        assert_ne!(w.dataset_version(DatasetId(4)).unwrap(), vm);
    }

    #[test]
    fn unknown_source_is_unregistered() {
        let w = test_worker();
        assert!(matches!(
            w.derive(DatasetId(1), &load_of("nope", 0)),
            Err(EngineError::Unregistered(_))
        ));
    }

    #[test]
    fn unknown_udf_errors() {
        let w = test_worker();
        w.derive(DatasetId(1), &load()).unwrap();
        assert!(w
            .derive(DatasetId(2), &map(DatasetId(1), "nope", "Y"))
            .is_err());
    }
}
