//! The simulated cluster and its execution trees.
//!
//! A query runs as the paper's two-phase tree (Fig. 1): the root broadcasts
//! the sketch to every worker's aggregation node; each aggregation node
//! fans leaf tasks onto the worker's thread pool, collects completions, and
//! — every [`ClusterConfig::batch_interval`] — ships its current partial
//! merge to the root ("nodes periodically propagate partially merged
//! results of the vizketch without waiting for all children to respond",
//! §5.3). The root folds per-worker partials, streams progressive results
//! to the client callback, and returns the final merge. Every edge message
//! is wire-encoded and byte-counted, and every summary crosses the root
//! link in its link form ([`ErasedSketch::compact_bytes`]): display-sized,
//! whatever the worker folded it from.
//!
//! There is one tree launch, [`Cluster::run_erased`], and each side of the
//! root link keeps its state in one place. On a worker, the aggregation
//! node, its crash barrier and every leaf task share one `TreeCtx` —
//! worker, sketch, fused filter, seed, both cancellation tokens, grain,
//! batch interval, cache identity — and every frame the node sends is built
//! by that context and encoded by the frame codec (`crate::msg`). At the
//! root, the merge loop's per-worker bookkeeping is one `RootState`, whose
//! methods own the single failure transition (explicit failure frame,
//! liveness sweep, link hang-up) and the single estimate of outstanding
//! work that the progress fraction and degraded coverage both read.
//!
//! ## A chart already drawn costs no tree
//!
//! The computation cache (§5.4: "indexed by what mergeable summary was
//! used and what dataset was operated on") has two levels with one key
//! expression. Each worker caches its merged summary under the content
//! version of the rows the tree reads there (`Worker::entry_version`: the
//! dataset's, with a fused predicate's canonical bytes folded in exactly
//! as materializing the filter would) crossed with the sketch's identity —
//! no dataset id, so a fused tree and the filter it would materialize
//! share one entry. The root keeps a memo of final folds — a second
//! instance of the same [`SketchCache`] — under the same key with the
//! workers' versions folded together, and consults it at the top of a
//! launch, before a link, a fault epoch or a thread exists: a repeated
//! query is a key fold and a map probe, and puts nothing on the root link.
//!
//! An entry is a fact about immutable content and never needs
//! invalidating, so evicting a dataset leaves its entries to the LRU. But
//! the memo is consulted only while every worker is up and holds the
//! dataset — an evicted one is found by a tree and replayed as ever, and
//! the memo may answer once it is back — and it *serves* an entry only
//! while every worker still holds the one it was folded from: clearing a
//! worker's cache, a crash or the LRU make the next query launch its tree,
//! so "drop the caches" keeps meaning "the next query computes". Here the
//! root checks by probing the workers' caches in-process (a fault boundary
//! like any worker operation); between machines the same rule would be a
//! lease each worker grants with its final frame and revokes when it drops
//! the entry. Hits are credited where they were spared — at the workers —
//! so the counters read as if every tree launched.
//!
//! ## Intra-partition parallelism
//!
//! A leaf is no longer one task per micropartition: the aggregation node
//! halves each partition's row span until every piece spans at most
//! [`ClusterConfig::leaf_grain_rows`] rows ([`split_ranges`]), and submits
//! one pool task per piece up front. Idle pool threads steal pending
//! pieces, so one large micropartition saturates every core instead of
//! serializing the query.
//!
//! Every merge in a tree is one call to [`ErasedSketch::fold_bytes`]: the
//! parts in order, each decoded once and merged by value into a running
//! summary that starts at the identity, the result encoded once. Sub-task
//! partials arrive in completion order. The partial stream folds them
//! lazily: when a batch tick is due, the running merge is folded with the
//! pieces completed since the last tick — it leads the parts, and the
//! identity is a left unit bit for bit — so a worker that finishes inside
//! one interval never builds it. The *final* worker summary is one fold of
//! all pieces sorted by `(partition, range start)`, compacted once before
//! it is cached or sent; the root folds the workers' summaries the same
//! way. Split boundaries depend only on the
//! partition's row count and the (fixed) grain — not on its membership or
//! a filter — so the folded result is a pure function of `(data, sketch,
//! seed, grain)`: bit-identical across thread counts, steal interleavings,
//! replay after failures (§5.8), and a fused or a materialized filter.
//! Progress is reported in work units per completed piece: its span of
//! rows plus one.

use crate::cache::{CacheKey, CacheStats, Lookup, SketchCache};
use crate::dataset::{DatasetId, Lineage, SourceRegistry};
use crate::erased::ErasedSketch;
use crate::error::{EngineError, EngineResult};
use crate::fault::{self, FaultAction, FaultPlan, FaultSite};
use crate::msg::{MsgPayload, WorkerMsg};
use crate::progress::{CancellationToken, Partial, PartialCallback};
use crate::stats::DatasetStats;
use crate::worker::Worker;
use bytes::Bytes;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{
    estimate_selectivity, fnv1a, split_ranges, Predicate, SelectivityEstimate, FNV_OFFSET,
};
use hillview_net::{link_pair, FrameFault, LinkConfig, LinkSender};
use hillview_sketch::Scope;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster topology and timing parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated servers.
    pub workers: usize,
    /// Pool threads per server (the paper's cores).
    pub threads_per_worker: usize,
    /// Rows per micropartition (paper §5.3: 10–20M; scaled down here).
    pub micropartition_rows: usize,
    /// Partial-result aggregation window (paper §5.3: 100 ms).
    pub batch_interval: Duration,
    /// Tree-edge link configuration (links add no delay of their own).
    pub link: LinkConfig,
    /// Largest row span of a leaf task: each partition's row span is
    /// halved until every piece spans at most this many of its rows,
    /// selected or not. Must be a pure config constant (never derived from
    /// load or thread count) — the split plan determines the floating-point
    /// fold structure, so it must be identical across runs and replays for
    /// results to reproduce bit-for-bit (§5.8).
    pub leaf_grain_rows: usize,
    /// Liveness bound: if the root hears nothing from a worker's
    /// aggregation node for this long (summaries *or* heartbeats — nodes
    /// heartbeat every [`ClusterConfig::batch_interval`] even when idle),
    /// the worker is declared down. Must comfortably exceed the batch
    /// interval plus worst-case link delay, or healthy-but-slow workers
    /// get falsely convicted.
    pub worker_timeout: Duration,
    /// Byte budget of each worker's sketch-result cache (§5.4): merged
    /// worker-level summaries, LRU-evicted past this bound.
    pub cache_budget_bytes: usize,
    /// Byte budget of each worker's block-residency cache: chunks of
    /// mapped (out-of-core) columns faulted in by scans are charged here
    /// and evicted LRU past this bound, so a worker can browse datasets far
    /// larger than its memory. `0` means unbounded.
    pub block_cache_bytes: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            micropartition_rows: 50_000,
            batch_interval: Duration::from_millis(100),
            link: LinkConfig::instant(),
            leaf_grain_rows: 65_536,
            worker_timeout: Duration::from_secs(2),
            cache_budget_bytes: 32 << 20,
            block_cache_bytes: 256 << 20,
        }
    }
}

impl ClusterConfig {
    /// Small fast topology for unit tests.
    pub fn test() -> Self {
        ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            micropartition_rows: 1_000,
            batch_interval: Duration::from_millis(2),
            link: LinkConfig::instant(),
            leaf_grain_rows: 65_536,
            worker_timeout: Duration::from_millis(500),
            cache_budget_bytes: 32 << 20,
            block_cache_bytes: 256 << 20,
        }
    }
}

/// Per-query options.
#[derive(Clone)]
pub struct QueryOptions {
    /// Seed for randomized sketches (logged for replay determinism, §5.8).
    pub seed: u64,
    /// Cooperative cancellation.
    pub cancel: CancellationToken,
    /// Client callback for progressive results.
    pub on_partial: Option<PartialCallback>,
    /// Use the sketch-result cache — the workers' entries and the root's
    /// memo over them (on by default); off, a query reads and writes
    /// neither. The key is
    /// *structural* — dataset lineage version (canonical predicate bytes
    /// folded in for fused trees) × 128-bit sketch identity — so this is
    /// purely an off-switch for measurements and degraded attempts, never
    /// a correctness knob. Sketches without a
    /// [cache identity](crate::erased::ErasedSketch::cache_identity)
    /// (seed-dependent sampling, positional kernels) never cache
    /// regardless (§5.4: only deterministic summaries are sound).
    pub cache: bool,
    /// Total wall-clock budget for the query; when exceeded the tree is
    /// torn down and the query fails with
    /// [`EngineError::DeadlineExceeded`]. `None` means unbounded (but the
    /// per-worker [`ClusterConfig::worker_timeout`] still catches silent
    /// workers).
    pub deadline: Option<Duration>,
    /// Graceful degradation (opt-in): when `true`, the
    /// [`Engine`](crate::engine::Engine) may — after exhausting its retry budget —
    /// return a summary folded from the surviving workers only, honestly
    /// labelled with [`QueryOutcome::coverage`] `< 1` and the failed
    /// worker set, instead of an error.
    pub allow_degraded: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            seed: 0,
            cancel: CancellationToken::default(),
            on_partial: None,
            cache: true,
            deadline: None,
            allow_degraded: false,
        }
    }
}

impl std::fmt::Debug for QueryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryOptions(seed={}, cache={})", self.seed, self.cache)
    }
}

/// Outcome of one query: the final summary bytes plus traffic/timing stats.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Final merged summary, wire-encoded.
    pub bytes: Bytes,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Bytes received by the root across the query: `0` when the root's
    /// memo answered it.
    pub root_bytes: u64,
    /// Messages received by the root: `0` when no tree was launched.
    pub root_messages: u64,
    /// Time until the first partial result reached the client — for a
    /// memo-answered query, until the complete one did.
    pub first_partial: Option<Duration>,
    /// Number of partial updates delivered.
    pub partials: usize,
    /// Fraction of the estimated total work represented in the final
    /// summary. `1.0` for a complete result; `< 1.0` only for a degraded
    /// result (failed workers excluded under
    /// [`QueryOptions::allow_degraded`]), estimated with the same
    /// machinery as the progressive-progress fraction.
    pub coverage: f64,
    /// Workers whose contribution is missing from a degraded result
    /// (empty for complete results).
    pub failed_workers: Vec<usize>,
    /// Whether the root's memo answered the query: no tree was launched.
    pub memo: bool,
}

/// The simulated cluster: N workers plus the root's view of them.
pub struct Cluster {
    cfg: ClusterConfig,
    workers: Vec<Arc<Worker>>,
    faults: parking_lot::Mutex<Option<Arc<FaultPlan>>>,
    /// The root's level of the computation cache: final folds, keyed by
    /// the workers' entry versions folded together (see the module docs).
    memo: SketchCache,
}

impl Cluster {
    /// Build a cluster; every worker shares the source and UDF registries.
    pub fn new(cfg: ClusterConfig, sources: SourceRegistry, udfs: UdfRegistry) -> Arc<Self> {
        let workers = (0..cfg.workers)
            .map(|id| Arc::new(Worker::new(id, &cfg, sources.clone(), udfs.clone())))
            .collect();
        Arc::new(Cluster {
            memo: SketchCache::new(cfg.cache_budget_bytes),
            cfg,
            workers,
            faults: parking_lot::Mutex::new(None),
        })
    }

    /// Arm a deterministic fault plan on the whole tree: worker operation
    /// boundaries, leaf tasks, and every aggregation-node→root link consult
    /// it. The plan's epoch is bumped once per execution-tree launch so
    /// random plans re-roll on retry (§5.8 determinism: the schedule is
    /// still a pure function of the seed and the attempt sequence).
    pub fn arm_faults(&self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        *self.faults.lock() = Some(plan.clone());
        for w in &self.workers {
            w.arm_faults(plan.clone());
        }
    }

    /// Remove any armed fault plan from the cluster and its workers.
    pub fn disarm_faults(&self) {
        *self.faults.lock() = None;
        for w in &self.workers {
            w.disarm_faults();
        }
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    /// The configuration.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Access a worker (tests, fault injection).
    pub fn worker(&self, i: usize) -> &Arc<Worker> {
        &self.workers[i]
    }

    /// Total rows of `dataset` across live workers.
    pub fn dataset_rows(&self, dataset: DatasetId) -> usize {
        self.workers.iter().map(|w| w.dataset_rows(dataset)).sum()
    }

    /// Total encoded in-memory bytes of `dataset` across live workers
    /// (compressed columns report their packed size). Mapped out-of-core
    /// columns are excluded; see [`Cluster::dataset_mapped_bytes`].
    pub fn dataset_heap_bytes(&self, dataset: DatasetId) -> usize {
        self.workers
            .iter()
            .map(|w| w.dataset_heap_bytes(dataset))
            .sum()
    }

    /// Total file-window bytes of `dataset` across live workers: the
    /// addressable span of mapped (out-of-core) columns. Residency of that
    /// span is bounded by each worker's block cache, not by this figure.
    pub fn dataset_mapped_bytes(&self, dataset: DatasetId) -> usize {
        self.workers
            .iter()
            .map(|w| w.dataset_mapped_bytes(dataset))
            .sum()
    }

    /// Aggregate block-residency cache counters across all workers
    /// (faults, faulted bytes, hits, evictions; budgets and resident
    /// bytes sum).
    pub fn block_cache_stats(&self) -> hillview_columnar::BlockCacheStats {
        let mut acc = hillview_columnar::BlockCacheStats::default();
        for w in &self.workers {
            acc.merge(&w.block_cache_stats());
        }
        acc
    }

    /// Drop all cached data everywhere (cold-start experiments).
    pub fn evict_all(&self) {
        for w in &self.workers {
            w.evict_all();
        }
        self.memo.clear();
    }

    /// The root's memo (tests and benches: clearing it alone makes the
    /// next query launch a tree over the workers' warm caches).
    pub fn memo(&self) -> &SketchCache {
        &self.memo
    }

    /// Sketch-result cache counters of the whole cluster. `hits`, `misses`
    /// and `insertions` are the workers' own, summed: a query the root's
    /// memo answers is credited as one hit at each worker — the lookup it
    /// was spared — so the hit ratio reads what it would if every tree
    /// launched. `entries`, `bytes`, `budget`, `evictions` and `coalesced`
    /// include the root's memo: `bytes <= budget` still holds cluster-wide,
    /// and a query that waited on another's tree at the root counts as
    /// coalesced once.
    pub fn cache_stats(&self) -> CacheStats {
        let root = CacheStats {
            hits: 0,
            misses: 0,
            insertions: 0,
            ..self.memo.stats()
        };
        self.workers
            .iter()
            .map(|w| w.cache_stats())
            .fold(root, CacheStats::merge)
    }

    /// The zone-map block classification of `predicate` over `dataset`:
    /// how many of its 64-row blocks the zone maps prove fully failing,
    /// without a scan or a tree. The planner does not read it (a lazy
    /// filter promotes by rule, see [`crate::engine::Engine::filter_lazy`]);
    /// it reports what a filter's zone maps skip. Dead workers and missing
    /// partitions contribute nothing.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn estimate_filter(
        &self,
        dataset: DatasetId,
        predicate: &Predicate,
    ) -> SelectivityEstimate {
        let mut est = SelectivityEstimate::default();
        for w in &self.workers {
            if !w.is_alive() {
                continue;
            }
            let Some(views) = w.partitions(dataset) else {
                continue;
            };
            for v in views.iter() {
                if let Ok(e) = estimate_selectivity(v.table(), predicate) {
                    est = est.merge(&e);
                }
            }
        }
        est
    }

    /// Apply one lineage step — the value the redo log holds for `id` —
    /// on every worker in parallel, or on worker `on` alone (replay).
    pub fn derive(&self, id: DatasetId, step: &Lineage, on: Option<usize>) -> EngineResult<()> {
        if let Some(worker) = on {
            return self.workers[worker].derive(id, step);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .map(|w| scope.spawn(|| w.derive(id, step)))
                .collect();
            let mut result = Ok(());
            for (worker, h) in handles.into_iter().enumerate() {
                // A panicking worker op must not take the root down with
                // it: map the panic into a structured, retryable error.
                let r = h.join().unwrap_or_else(|payload| {
                    Err(EngineError::LeafPanicked {
                        worker,
                        message: fault::panic_message(payload),
                    })
                });
                if result.is_ok() {
                    result = r;
                }
            }
            result
        })
    }

    /// Run an erased sketch over `dataset` as one execution tree,
    /// optionally narrowed by a fused
    /// predicate: instead of materializing a filtered membership first,
    /// every leaf compiles `filter` into the sketch's own block pass — the
    /// predicate evaluates per 64-row frame, its match word ANDs into the
    /// selection word, and surviving lanes feed the kernel directly (one
    /// decode per frame, zone maps pruning for both stages).
    pub fn run_erased(
        &self,
        dataset: DatasetId,
        filter: Option<&Predicate>,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        self.run_tree(dataset, filter, sketch, opts, false)
    }

    /// [`Cluster::run_erased`], choosing what a worker's failure means.
    /// With `tolerate`, a failed worker is excluded from the fold instead
    /// of failing the query. That is a property of the engine's last,
    /// degraded attempt and not of a query — its outcomes bypass recovery
    /// and replay — so callers ask for it with
    /// [`QueryOptions::allow_degraded`].
    pub(crate) fn run_tree(
        &self,
        dataset: DatasetId,
        filter: Option<&Predicate>,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
        tolerate: bool,
    ) -> EngineResult<QueryOutcome> {
        let started = Instant::now();
        // Structural query identity: half of the sketch-result cache key.
        // `None` (caller opted out, or the sketch has no deterministic
        // identity) disables caching for this tree at both levels.
        let query: Option<[u64; 2]> = if opts.cache {
            sketch
                .cache_identity()
                .map(|ident| query_hash(sketch.name(), &ident))
        } else {
            None
        };

        // The root's memo, before anything of a tree exists. A degraded
        // attempt neither reads nor writes it: its fold is of survivors.
        let memo = query
            .filter(|_| !tolerate)
            .and_then(|query| self.memo_keys(dataset, filter, query));
        // The flight is held until this tree is over, however it ends:
        // dropping it wakes the queries waiting on the key, to find the
        // entry or take over.
        let mut waited = false;
        let _flight = loop {
            let Some((key, held)) = &memo else {
                break None;
            };
            match self.memo.lookup(*key) {
                Lookup::Hit(bytes) => {
                    if self.workers_hold(dataset, held) {
                        if waited {
                            self.memo.note_coalesced();
                        }
                        return Ok(self.answered_by_memo(dataset, bytes, opts, started));
                    }
                    // Some worker dropped its entry: the tree below
                    // computes, and overwrites this one.
                    break None;
                }
                Lookup::Miss(guard) => break Some(guard),
                Lookup::InFlight => {
                    // Another query's tree is computing this key: one tree
                    // for N analysts opening the same chart. The tree below
                    // observes a cancel or a spent deadline at once, and
                    // reports it as it always has.
                    let late = opts.deadline.is_some_and(|d| started.elapsed() > d);
                    if late || opts.cancel.is_cancelled() {
                        break None;
                    }
                    waited = true;
                    self.memo.wait(key, self.cfg.batch_interval);
                }
            }
        };

        let filter: Option<Arc<Predicate>> = filter.map(|p| Arc::new(p.clone()));
        let (tx, rx) = link_pair();
        // Internal token: stops this tree's outstanding work on errors
        // without cancelling the caller's query (which may retry after
        // recovery). Leaves observe both tokens.
        let tree = CancellationToken::new();

        // One epoch per tree launch: a random fault plan re-rolls every
        // site on retry (transient faults heal), while the schedule stays
        // a pure function of (seed, attempt index) — §5.8 replayability.
        let plan = self.fault_plan();
        if let Some(p) = &plan {
            p.bump_epoch();
        }

        // Launch one aggregation node per worker.
        let mut aggregators = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            // Each aggregator gets its own link clone; arming the
            // frame-fault hook gives it a fresh sequence counter, so a
            // `Frame { worker, index }` site names the index-th frame
            // *this* node sends — deterministic under replay.
            let tx = match &plan {
                Some(p) => {
                    let p = p.clone();
                    let wid = worker.id;
                    tx.clone().with_faults(Arc::new(move |index, _len| {
                        match p.decide(FaultSite::Frame { worker: wid, index }) {
                            Some(FaultAction::DropFrame) => FrameFault::Drop,
                            Some(FaultAction::DuplicateFrame) => FrameFault::Duplicate,
                            Some(FaultAction::CorruptFrame(seed)) => FrameFault::Corrupt { seed },
                            Some(FaultAction::DelayFrame(d)) => FrameFault::Delay(d),
                            _ => FrameFault::Deliver,
                        }
                    }))
                }
                None => tx.clone(),
            };
            let ctx = Arc::new(TreeCtx {
                worker: worker.clone(),
                sketch: sketch.clone(),
                dataset,
                filter: filter.clone(),
                seed: opts.seed,
                cancel: opts.cancel.clone(),
                tree: tree.clone(),
                grain: self.cfg.leaf_grain_rows,
                batch: self.cfg.batch_interval,
                query,
            });
            aggregators.push(std::thread::spawn(move || aggregate_worker(&ctx, &tx)));
        }
        drop(tx);

        // Root merge loop.
        let n = self.workers.len();
        let mut root = RootState::new(n, tolerate);
        let mut first_partial = None;
        let mut partials = 0usize;
        while root.pending > 0 && root.error.is_none() {
            if opts.cancel.is_cancelled() {
                break;
            }
            if let Some(d) = opts.deadline {
                if started.elapsed() > d {
                    root.error = Some(EngineError::DeadlineExceeded {
                        elapsed: started.elapsed(),
                    });
                    break;
                }
            }
            // Liveness sweep on every iteration (heartbeats from healthy
            // workers keep the channel busy, so a quiet-tick-only sweep
            // could starve): a worker silent past `worker_timeout` —
            // aggregation nodes heartbeat every batch tick even when no
            // leaf has finished — is declared down.
            root.fail_pending(|slot| slot.last_heard.elapsed() > self.cfg.worker_timeout);
            let frame = match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Some(f)) => f,
                Ok(None) => continue,
                Err(_) => {
                    // Every aggregation node hung up. Any unresolved
                    // worker died without shipping a final frame (its
                    // thread panicked past all guards, or its finale was
                    // lost) — this must break the loop, never hang.
                    root.fail_pending(|_| true);
                    break;
                }
            };
            let msg = match WorkerMsg::decode(frame) {
                Ok(m) if (m.worker as usize) < n => m,
                // Corrupt frame (checksum mismatch, bad tag, truncated,
                // or an out-of-range worker id): drop it. The sender is
                // alive and its next batch tick re-ships the running
                // summary; a lost *final* frame is converted to a worker
                // failure by the liveness sweep. Never fatal at the root.
                _ => continue,
            };
            let w = msg.worker as usize;
            let slot = &mut root.slots[w];
            slot.last_heard = Instant::now();
            if slot.standing != Standing::Pending {
                // Duplicate final or frames racing a failure verdict.
                continue;
            }
            let failure = match msg.payload {
                MsgPayload::Summary(bytes) => {
                    slot.latest = Some(Bytes::from(bytes));
                    (slot.done, slot.total) = (msg.work_done, msg.work_total);
                    if msg.is_final {
                        slot.standing = Standing::Final;
                        root.pending -= 1;
                    }
                    // Progressive delivery to the client.
                    if let Some(cb) = &opts.on_partial {
                        // A fold error leaves through the epilogue like
                        // every other: the tree is cancelled and joined.
                        let partial = match root.partial(sketch) {
                            Ok(partial) => partial,
                            Err(e) => {
                                root.error = Some(e);
                                break;
                            }
                        };
                        first_partial.get_or_insert_with(|| started.elapsed());
                        partials += 1;
                        cb(&partial);
                    } else {
                        first_partial.get_or_insert_with(|| started.elapsed());
                    }
                    continue;
                }
                MsgPayload::Heartbeat => {
                    (slot.done, slot.total) = (msg.work_done, msg.work_total);
                    continue;
                }
                MsgPayload::DatasetMissing(d) => EngineError::DatasetMissing {
                    worker: w,
                    dataset: DatasetId(d),
                },
                MsgPayload::WorkerDown => EngineError::WorkerDown(w),
                MsgPayload::LeafPanicked(message) => {
                    EngineError::LeafPanicked { worker: w, message }
                }
                MsgPayload::Error(e) => EngineError::Sketch(e),
            };
            root.fail(w, failure);
        }

        // Stop outstanding work, then release aggregator threads.
        if root.error.is_some() || opts.cancel.is_cancelled() || !root.failed.is_empty() {
            tree.cancel();
        }
        let root_bytes = rx.metrics().bytes();
        let root_messages = rx.metrics().messages();
        drop(rx);
        for a in aggregators {
            let _ = a.join();
        }
        if let Some(e) = root.error {
            return Err(e);
        }

        // Degraded-mode accounting. Zero survivors is not a result.
        if !root.failed.is_empty() && root.failed.len() == n {
            return Err(EngineError::WorkerDown(root.failed[0]));
        }
        let bytes = root.fold(sketch)?;
        // Memoize only what the workers cache: the fold of every worker's
        // complete, uncancelled summary.
        if let Some((key, _)) = memo {
            if root.pending == 0 && root.failed.is_empty() && !opts.cancel.is_cancelled() {
                self.memo.insert(key, bytes.clone());
            }
        }
        Ok(QueryOutcome {
            bytes,
            duration: started.elapsed(),
            root_bytes,
            root_messages,
            first_partial,
            partials,
            coverage: root.coverage(),
            failed_workers: root.failed,
            memo: false,
        })
    }

    /// The memo key of a tree — what the workers key their entries on,
    /// folded over the workers — beside each worker's own key. `None`
    /// unless every worker is up and holds the dataset: what a tree would
    /// find out (a dead worker, a missing dataset) it must be launched to
    /// report, so recovery is reached exactly as without a memo.
    fn memo_keys(
        &self,
        dataset: DatasetId,
        filter: Option<&Predicate>,
        query: [u64; 2],
    ) -> Option<(CacheKey, Vec<CacheKey>)> {
        let key = |version| CacheKey { version, query };
        let mut folded = FNV_OFFSET;
        let mut held = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let version = w
                .is_alive()
                .then(|| w.entry_version(dataset, filter))
                .flatten()?;
            folded = fnv1a(folded, &version.to_le_bytes());
            held.push(key(version));
        }
        Some((key(folded), held))
    }

    /// Whether every worker still holds the entry a memoized fold was made
    /// from; if so each is credited with the hit it is spared. The probe is
    /// a worker operation boundary like the head of an aggregation node, so
    /// an armed fault plan can kill a worker or evict the dataset at it —
    /// which drops the entry, and the tree launches.
    fn workers_hold(&self, dataset: DatasetId, held: &[CacheKey]) -> bool {
        let probes = || self.workers.iter().zip(held);
        let all = probes().all(|(w, key)| {
            w.fault_op(Some(dataset));
            w.cache().contains(key)
        });
        if all {
            for (w, key) in probes() {
                w.cache().touch(key);
            }
        }
        all
    }

    /// The statistics of the load `dataset` at `version`, folded over the
    /// workers in order — what an unfiltered count or range tree would fold —
    /// or `None` unless every worker is up and holds it at that version. Each
    /// probe is a worker operation boundary, as in [`Cluster::workers_hold`],
    /// so an armed fault plan can kill a worker or evict the dataset at it,
    /// and the tree the caller falls back to meets the failure; nothing
    /// crosses the root link.
    pub(crate) fn dataset_stats(&self, dataset: DatasetId, version: u64) -> Option<DatasetStats> {
        self.workers
            .iter()
            .try_fold(DatasetStats::default(), |acc, w| {
                w.fault_op(Some(dataset));
                let (held, stats) = w.is_alive().then(|| w.dataset_stats(dataset))??;
                (held == version).then(|| acc.merge(&stats))?
            })
    }

    /// The outcome of a query the memo answered: the stored fold, nothing
    /// on the root link, and — for a client that asked for progress — one
    /// partial carrying the complete summary.
    fn answered_by_memo(
        &self,
        dataset: DatasetId,
        bytes: Bytes,
        opts: &QueryOptions,
        started: Instant,
    ) -> QueryOutcome {
        if let Some(cb) = &opts.on_partial {
            // What the workers' trees would have reported.
            let views = self.workers.iter().filter_map(|w| w.partitions(dataset));
            let grain = self.cfg.leaf_grain_rows;
            let work = views.map(|views| work_units(&views, grain)).sum();
            cb(&Partial {
                fraction: 1.0,
                work_done: work,
                work_total: work,
                summary: bytes.clone(),
            });
        }
        QueryOutcome {
            bytes,
            duration: started.elapsed(),
            root_bytes: 0,
            root_messages: 0,
            first_partial: Some(started.elapsed()),
            partials: usize::from(opts.on_partial.is_some()),
            coverage: 1.0,
            failed_workers: Vec::new(),
            memo: true,
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({} workers)", self.workers.len())
    }
}

/// Where one worker stands in the root's merge loop. A worker is settled
/// once it is not `Pending`: its final summary is in, or (tolerate mode)
/// its failure was accepted and it is excluded from the fold.
#[derive(Clone, Copy, PartialEq)]
enum Standing {
    Pending,
    Final,
    Failed,
}

/// What the root holds for one worker while a tree runs.
struct Slot {
    /// The latest summary it shipped, partial or final.
    latest: Option<Bytes>,
    done: u64,
    total: u64,
    standing: Standing,
    last_heard: Instant,
}

/// The root merge loop's state: one [`Slot`] per worker plus the verdict
/// so far. Its methods are the only place a failure is applied and the
/// only place outstanding work is estimated.
struct RootState {
    slots: Vec<Slot>,
    /// Exclude failed workers from the fold instead of failing the query.
    tolerate: bool,
    /// Workers still `Pending`.
    pending: usize,
    /// Workers excluded under `tolerate`, in the order they failed.
    failed: Vec<usize>,
    error: Option<EngineError>,
}

impl RootState {
    fn new(workers: usize, tolerate: bool) -> Self {
        let slot = || Slot {
            latest: None,
            done: 0,
            total: 0,
            standing: Standing::Pending,
            last_heard: Instant::now(),
        };
        RootState {
            slots: (0..workers).map(|_| slot()).collect(),
            tolerate,
            pending: workers,
            failed: Vec::new(),
            error: None,
        }
    }

    /// The single failure transition, shared by explicit failure frames,
    /// the liveness sweep, and channel disconnect.
    fn fail(&mut self, w: usize, e: EngineError) {
        if !self.tolerate {
            self.error.get_or_insert(e);
        } else if self.slots[w].standing == Standing::Pending {
            self.slots[w].standing = Standing::Failed;
            self.slots[w].latest = None;
            self.failed.push(w);
            self.pending -= 1;
        }
    }

    /// Declare down every pending worker that `silent` picks.
    fn fail_pending(&mut self, silent: impl Fn(&Slot) -> bool) {
        for w in 0..self.slots.len() {
            if self.slots[w].standing == Standing::Pending && silent(&self.slots[w]) {
                self.fail(w, EngineError::WorkerDown(w));
            }
        }
    }

    /// Fold the per-worker summaries held so far with the sketch's merge,
    /// starting from its identity.
    fn fold(&self, sketch: &Arc<dyn ErasedSketch>) -> EngineResult<Bytes> {
        let parts: Vec<Bytes> = self.slots.iter().filter_map(|s| s.latest.clone()).collect();
        sketch.fold_bytes(&parts)
    }

    /// Each worker's total work as far as the root can tell: the total it
    /// reported, or — until it reports one — the mean of those that have.
    /// Progress and degraded coverage both read this one estimate, so
    /// neither is overstated by workers that are late or silently failed.
    fn work_estimates(&self) -> Vec<f64> {
        let reported: Vec<u64> = self
            .slots
            .iter()
            .map(|s| s.total)
            .filter(|&t| t > 0)
            .collect();
        let mean = (reported.iter().sum::<u64>() as f64 / reported.len().max(1) as f64).max(1.0);
        let estimate = |s: &Slot| if s.total == 0 { mean } else { s.total as f64 };
        self.slots.iter().map(estimate).collect()
    }

    /// The progressive result as it stands: the fold of what has arrived
    /// and the fraction of the estimated work it represents.
    fn partial(&self, sketch: &Arc<dyn ErasedSketch>) -> EngineResult<Partial> {
        let summary = self.fold(sketch)?;
        let work_done: u64 = self.slots.iter().map(|s| s.done).sum();
        Ok(Partial {
            fraction: share(work_done as f64, self.work_estimates().iter().sum()),
            work_done,
            work_total: self.slots.iter().map(|s| s.total).sum(),
            summary,
        })
    }

    /// Fraction of the estimated total work the final summary represents:
    /// `1.0` unless workers were excluded.
    fn coverage(&self) -> f64 {
        if self.failed.is_empty() {
            return 1.0;
        }
        let estimates = self.work_estimates();
        let finals = self.slots.iter().zip(&estimates);
        let covered: f64 = finals
            .filter(|(s, _)| s.standing == Standing::Final)
            .map(|(_, e)| e)
            .sum();
        share(covered, estimates.iter().sum())
    }
}

/// `part / whole` as a fraction in `[0, 1]`; nothing of nothing is `0`.
fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        (part / whole).clamp(0.0, 1.0)
    }
}

/// What one worker's part of an execution tree shares: the aggregation
/// node, its crash barrier and every leaf task hold one `Arc` of it, cloned
/// once per task.
struct TreeCtx {
    worker: Arc<Worker>,
    sketch: Arc<dyn ErasedSketch>,
    dataset: DatasetId,
    /// The fused predicate, if the tree runs filtered.
    filter: Option<Arc<Predicate>>,
    seed: u64,
    /// The caller's token.
    cancel: CancellationToken,
    /// This tree's own token (see [`Cluster::run_tree`]).
    tree: CancellationToken,
    /// Largest row span a leaf summarizes whole.
    grain: usize,
    batch: Duration,
    /// The sketch half of the cache key; `None` disables caching.
    query: Option<[u64; 2]>,
}

impl TreeCtx {
    fn cancelled(&self) -> bool {
        self.cancel.is_cancelled() || self.tree.is_cancelled()
    }

    /// The one constructor of this worker's frames.
    fn frame(&self, work_done: u64, work_total: u64, is_final: bool, payload: MsgPayload) -> Bytes {
        let msg = WorkerMsg {
            worker: self.worker.id as u32,
            work_done,
            work_total,
            is_final,
            payload,
        };
        msg.encode()
    }

    /// Leaf seed mixes the query seed with worker and partition indexes
    /// so samples are independent yet reproducible (§5.8). Sub-tasks of
    /// one partition share its seed, and a row is sampled by its index
    /// under that seed, so each sub-task samples its range's share of the
    /// one partition-wide sample.
    fn leaf_seed(&self, partition: u32) -> u64 {
        self.seed
            ^ (self.worker.id as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (partition as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
    }
}

/// One piece's completion flowing from a pool thread to the aggregation
/// node: which partition, where its range started (the fold key), how many
/// work units it covered, and the summary bytes (or `None` if skipped by
/// cancellation).
struct LeafMsg {
    partition: u32,
    lo: usize,
    work: u64,
    result: EngineResult<Option<Bytes>>,
}

/// Execute one leaf task: summarize the rows `lo..hi` of a partition and
/// report them keyed by range start.
///
/// With a fused filter, the leaf passes it in the sketch's [`Scope`]: the
/// predicate is compiled once per leaf and evaluated inside the block
/// scan, so no filtered membership ever exists. A piece is a span of the
/// partition's rows, and filtering narrows rows, never renumbers them, so
/// the pieces (and therefore the deterministic fold order) are the same
/// with and without a filter, fused or materialized.
fn run_leaf_task(
    ctx: Arc<TreeCtx>,
    view: hillview_sketch::TableView,
    partition: u32,
    (lo, hi): (usize, usize),
    tx: crossbeam::channel::Sender<LeafMsg>,
) {
    let worker = &ctx.worker;
    worker.note_leaf_task();
    // Cancellation skips pieces not yet started (§5.3).
    let result = if ctx.cancelled() {
        Ok(None)
    } else {
        // Panic isolation: a panicking summarize (organic bug or injected
        // fault) must surface as a structured, retryable error that still
        // carries this piece's work — reported work adding up to the total
        // is what lets the aggregation node distinguish "done" from "lost".
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match worker.leaf_fault(partition, lo) {
                // lint: allow(panic, deliberate fault injection; caught by the catch_unwind directly above)
                Some(FaultAction::PanicLeaf) => panic!(
                    "injected leaf panic (worker {}, partition {partition}, lo {lo})",
                    worker.id
                ),
                Some(FaultAction::StallLeaf(d)) => std::thread::sleep(d),
                _ => {}
            }
            // With a filter the leaf runs fused: one block pass, no
            // filtered membership.
            let scope = Scope {
                rows: Some((lo, hi)),
                filter: ctx.filter.as_deref(),
            };
            ctx.sketch
                .summarize_bytes(&view, scope, ctx.leaf_seed(partition))
                .map(Some)
        }));
        match run {
            Ok(r) => r,
            Err(payload) => Err(EngineError::LeafPanicked {
                worker: worker.id,
                message: fault::panic_message(payload),
            }),
        }
    };
    let _ = tx.send(LeafMsg {
        partition,
        lo,
        work: piece_work((lo, hi)),
        result,
    });
}

/// The pieces of one worker's part of a tree, `(partition, rows)`: every
/// partition's row span split at `grain`, in fold order.
fn leaf_pieces(
    views: &[hillview_sketch::TableView],
    grain: usize,
) -> impl Iterator<Item = (u32, (usize, usize))> + '_ {
    views.iter().enumerate().flat_map(move |(i, v)| {
        let pieces = split_ranges(v.members().universe(), grain);
        pieces.into_iter().map(move |rows| (i as u32, rows))
    })
}

/// The work units of one piece: its span of rows plus one, so a piece of
/// an empty partition is still observed completing.
fn piece_work((lo, hi): (usize, usize)) -> u64 {
    (hi - lo) as u64 + 1
}

/// The work units of one worker's part of a tree: the sum over its pieces.
fn work_units(views: &[hillview_sketch::TableView], grain: usize) -> u64 {
    leaf_pieces(views, grain)
        .map(|(_, rows)| piece_work(rows))
        .sum()
}

/// 128-bit query identity for the sketch-result cache: two independent
/// FNV-1a streams over (stream tag, sketch name, 0, cache-identity bytes).
/// Two streams because 64 bits of FNV over arbitrary parameter encodings
/// is too collidable for a cache whose hits silently replace computation.
fn query_hash(name: &str, identity: &[u8]) -> [u64; 2] {
    let mut out = [FNV_OFFSET, FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15];
    for (i, h) in out.iter_mut().enumerate() {
        let mut state = fnv1a(*h, &[i as u8]);
        state = fnv1a(state, name.as_bytes());
        state = fnv1a(state, &[0]);
        *h = fnv1a(state, identity);
    }
    out
}

/// The aggregation node for one worker (paper Fig. 1): fan one leaf task per
/// piece of every partition, collect completions, ship batched partials and
/// the final fold to the root.
///
/// This wrapper is the node's crash barrier: if the body itself panics the
/// root still receives a final frame carrying the panic message, so the
/// merge loop terminates with a structured error instead of waiting out
/// the liveness timeout (or, before timeouts existed, hanging forever).
fn aggregate_worker(ctx: &Arc<TreeCtx>, tx: &LinkSender) {
    let node = std::panic::AssertUnwindSafe(|| aggregate(ctx, tx));
    if let Err(payload) = std::panic::catch_unwind(node) {
        let panicked = MsgPayload::LeafPanicked(fault::panic_message(payload));
        let _ = tx.send(ctx.frame(0, 0, true, panicked));
    }
}

fn aggregate(ctx: &Arc<TreeCtx>, tx: &LinkSender) {
    let (worker, sketch, dataset, batch) = (&ctx.worker, &ctx.sketch, ctx.dataset, ctx.batch);
    let send = |work_done, work_total, is_final, payload| {
        let _ = tx.send(ctx.frame(work_done, work_total, is_final, payload));
    };
    // Every summary leaves the worker in its link form: each call site
    // passes its bytes through [`ErasedSketch::compact_bytes`] (the same
    // bytes, untouched, for a sketch that has none). One that cannot be
    // produced ends the worker's part of the tree like any other sketch
    // error.
    let send_summary = |shipped: EngineResult<Bytes>, work_done, work_total, is_final| {
        let ok = shipped.is_ok();
        let payload = match shipped {
            Ok(bytes) => MsgPayload::Summary(bytes.to_vec()),
            Err(e) => MsgPayload::Error(e.to_string()),
        };
        send(work_done, work_total, is_final || !ok, payload);
        ok
    };

    // Fault-injection point for "the worker fails *mid-query*": a Kill or
    // Evict decided here happens after the root committed to this tree.
    worker.fault_op(Some(dataset));

    if !worker.is_alive() {
        return send(0, 0, true, MsgPayload::WorkerDown);
    }
    let Some(views) = worker.partitions(dataset) else {
        return send(0, 0, true, MsgPayload::DatasetMissing(dataset.0));
    };
    if views.is_empty() {
        send_summary(sketch.compact_bytes(sketch.identity_bytes()), 0, 0, true);
        return;
    }

    // Every piece reports its work once, so completion is "reported work ==
    // precomputed total".
    let total_work = work_units(&views, ctx.grain);

    // Sketch-result cache (paper §5.4), the workers' level of two (the
    // root's memo, consulted before this tree was launched, folds the same
    // key expression over the workers and is served only while this entry
    // is held — see the module docs). Keyed by the rows the tree reads, not
    // by the id that asked: the dataset's lineage version — with the fused
    // predicate's *canonical* bytes folded in exactly as materializing it
    // would — crossed with the sketch's 128-bit query identity. Both plans
    // fold the same pieces to the same bytes, so a fused tree shares its
    // entry with the materialized filter and with any canonically-equal
    // respelling of itself; a load's version folds in its id, so two loads
    // of one snapshot never share one. A hit reports the same work total
    // as the compute path would (the split plan follows the row span, which
    // a filter keeps), so the root's progress fraction never mixes
    // incomparable units across workers.
    let cache_key: Option<CacheKey> = ctx.query.and_then(|query| {
        let version = worker.entry_version(dataset, ctx.filter.as_deref())?;
        Some(CacheKey { version, query })
    });
    let cache = worker.cache();
    let mut flight = None;
    if let Some(key) = cache_key {
        // Single-flight: if another tree is already computing this exact
        // key, wait for it in `batch`-sized slices — heartbeating between
        // slices so the root's liveness sweep sees us — instead of
        // duplicating the scan.
        let mut waited = false;
        loop {
            match cache.lookup(key) {
                Lookup::Hit(hit) => {
                    if waited {
                        cache.note_coalesced();
                    }
                    // Entries are cached compacted, and compaction is
                    // idempotent: a hit ships the bytes a recompute would.
                    send_summary(sketch.compact_bytes(hit), total_work, total_work, true);
                    return;
                }
                Lookup::Miss(guard) => {
                    flight = Some(guard);
                    break;
                }
                Lookup::InFlight => {
                    if ctx.cancelled() {
                        break;
                    }
                    waited = true;
                    send(0, total_work, false, MsgPayload::Heartbeat);
                    cache.wait(&key, batch);
                }
            }
        }
    }

    let (leaf_tx, leaf_rx) = crossbeam::channel::unbounded::<LeafMsg>();
    for (partition, rows) in leaf_pieces(&views, ctx.grain) {
        worker.pool().submit({
            let (ctx, tx) = (ctx.clone(), leaf_tx.clone());
            let view = views[partition as usize].clone();
            move || run_leaf_task(ctx, view, partition, rows, tx)
        });
    }
    drop(leaf_tx);

    // Collect completions; propagate partials every `batch`. Nothing is
    // merged when a piece completes: the running `acc` — completion-order,
    // feeding only the transient partial stream — catches up with the
    // pieces that arrived since the last tick when a tick is actually due,
    // so a worker that finishes inside one batch interval never builds it.
    // The final summary is folded deterministically below.
    let mut pieces: Vec<(u32, usize, Bytes)> = Vec::new();
    let mut acc = sketch.identity_bytes();
    let mut merged_upto = 0usize;
    let mut done_work = 0u64;
    let mut skipped = 0u64;
    while done_work < total_work {
        match leaf_rx.recv_timeout(batch) {
            Ok(msg) => {
                match msg.result {
                    Ok(Some(bytes)) => pieces.push((msg.partition, msg.lo, bytes)),
                    // Cancelled piece: counts as completed-with-nothing.
                    Ok(None) => skipped += 1,
                    Err(e) => {
                        // Keep panics structured end-to-end: the root
                        // rebuilds `LeafPanicked` from its own tag.
                        let payload = match e {
                            EngineError::LeafPanicked { message, .. } => {
                                MsgPayload::LeafPanicked(message)
                            }
                            other => MsgPayload::Error(other.to_string()),
                        };
                        return send(done_work, total_work, true, payload);
                    }
                }
                done_work += msg.work;
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if merged_upto < pieces.len() {
                    let fresh = pieces[merged_upto..].iter().map(|(_, _, b)| b.clone());
                    let parts: Vec<Bytes> = std::iter::once(acc.clone()).chain(fresh).collect();
                    merged_upto = pieces.len();
                    let shipped = sketch.fold_bytes(&parts).and_then(|bytes| {
                        acc = bytes.clone();
                        sketch.compact_bytes(bytes)
                    });
                    if !send_summary(shipped, done_work, total_work, false) {
                        return;
                    }
                } else {
                    // Nothing new completed this tick: heartbeat so the
                    // root's liveness sweep can tell slow from dead.
                    send(done_work, total_work, false, MsgPayload::Heartbeat);
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }

    // The leaf channel can only disconnect short of the work total if
    // completions were *lost* — a pool thread died past every in-task
    // guard (the pool's own catch_unwind backstop swallows the panic but
    // not the piece's work). Folding the surviving pieces would
    // silently drop rows; report the loss instead.
    if done_work < total_work {
        let lost = format!(
            "leaf completions lost on worker {}: {done_work}/{total_work} work units reported",
            worker.id
        );
        return send(done_work, total_work, true, MsgPayload::LeafPanicked(lost));
    }

    // Deterministic final fold — the only fold of `pieces` the final
    // summary sees: partials sorted by (partition, range start). The piece
    // set is a pure function of (row counts, grain), so this fold — unlike
    // the completion-order `acc` — is bit-identical across thread counts,
    // steal orders, and replays, even for order-sensitive merges
    // (Misra-Gries) and floating-point sums. It is compacted once, here,
    // after the last merge and before it is cached or sent.
    pieces.sort_by_key(|&(p, lo, _)| (p, lo));
    let parts: Vec<Bytes> = pieces.into_iter().map(|(_, _, bytes)| bytes).collect();
    let final_acc = sketch
        .fold_bytes(&parts)
        .and_then(|bytes| sketch.compact_bytes(bytes));

    // Cache only complete summaries: a tree cancelled mid-flight (user
    // cancel or a sibling worker's failure) leaves the fold partial, and
    // caching it would silently corrupt every later query (§5.4 caches
    // must hold deterministic, complete results). Every early return
    // above drops the flight guard un-completed, which abandons the
    // in-flight slot and wakes coalesced waiters to take over.
    if let (Some(guard), Ok(bytes)) = (flight, &final_acc) {
        if skipped == 0 && !ctx.cancelled() {
            guard.complete(bytes.clone());
        }
    }
    send_summary(final_acc, done_work, total_work, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FnSource, SourceSpec};
    use crate::erased::erase;
    use hillview_columnar::column::{Column, F64Column, I64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_net::Wire as _;
    use hillview_sketch::count::{CountSketch, CountSummary};
    use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
    use hillview_sketch::BucketSpec;

    fn cluster(workers: usize) -> Arc<Cluster> {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..10_000).map(|i| Some((i + w as i64 * 10_000) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut cfg = ClusterConfig::test();
        cfg.workers = workers;
        Cluster::new(cfg, sources, UdfRegistry::with_builtins())
    }

    fn spec(source: &str) -> SourceSpec {
        SourceSpec {
            source: Arc::from(source),
            snapshot: 0,
        }
    }

    fn load_source(c: &Cluster, id: DatasetId, source: &str) -> DatasetId {
        let step = Lineage::Loaded { spec: spec(source) };
        c.derive(id, &step, None).unwrap();
        id
    }

    fn load(c: &Cluster) -> DatasetId {
        load_source(c, DatasetId(1), "nums")
    }

    #[test]
    fn count_query_spans_workers() {
        let c = cluster(3);
        let ds = load(&c);
        let outcome = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap();
        let s = CountSummary::from_bytes(outcome.bytes).unwrap();
        assert_eq!(s.rows, 30_000);
        assert!(outcome.root_bytes > 0);
        assert!(outcome.root_messages >= 3, "≥1 message per worker");
    }

    #[test]
    fn histogram_query_merges_across_partitions() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let outcome = c
            .run_erased(ds, None, &erase(sk), &QueryOptions::default())
            .unwrap();
        let s = HistogramSummary::from_bytes(outcome.bytes).unwrap();
        assert_eq!(s.buckets, vec![2000; 10]);
        assert_eq!(s.rows_inspected, 20_000);
    }

    #[test]
    fn partial_results_stream_to_client() {
        let c = cluster(2);
        let ds = load(&c);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<f64>::new()));
        let seen2 = seen.clone();
        let opts = QueryOptions {
            on_partial: Some(Arc::new(move |p: &Partial| {
                seen2.lock().push(p.fraction);
            })),
            ..Default::default()
        };
        let outcome = c
            .run_erased(ds, None, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let fractions = seen.lock().clone();
        assert!(!fractions.is_empty(), "client saw partial updates");
        assert!(outcome.first_partial.is_some());
        assert!(
            fractions.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "monotone progress: {fractions:?}"
        );
        assert!((fractions.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_dataset_reported_with_worker() {
        let c = cluster(2);
        let e = c
            .run_erased(
                DatasetId(99),
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(e, EngineError::DatasetMissing { .. }));
    }

    #[test]
    fn dead_worker_reported() {
        let c = cluster(2);
        let ds = load(&c);
        c.worker(1).kill();
        let e = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap_err();
        assert_eq!(e, EngineError::WorkerDown(1));
    }

    #[test]
    fn sketch_error_propagates_from_leaves() {
        let c = cluster(2);
        let ds = load(&c);
        let e = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::of_column("Nope")),
                &QueryOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(e, EngineError::Sketch(_)));
    }

    #[test]
    fn computation_cache_serves_second_query() {
        let c = cluster(2);
        let ds = load(&c);
        let opts = QueryOptions::default();
        let a = c
            .run_erased(ds, None, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let hits_before = c.cache_stats().hits;
        let b = c
            .run_erased(ds, None, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let stats = c.cache_stats();
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(stats.hits - hits_before, 2, "both workers hit their cache");
        assert!(stats.bytes > 0 && stats.entries >= 2);
    }

    #[test]
    fn failed_tree_never_caches_partial_summaries() {
        // Regression: a worker failure cancels the tree; surviving workers
        // skip leaves and must NOT cache their incomplete summaries.
        let c = cluster(2);
        let ds = load(&c);
        c.worker(0).kill();
        let opts = QueryOptions::default();
        let _ = c.run_erased(ds, None, &erase(CountSketch::rows()), &opts);
        c.worker(0).restart();
        let step = Lineage::Loaded { spec: spec("nums") };
        c.worker(0).derive(ds, &step).unwrap();
        let outcome = c
            .run_erased(ds, None, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let s = CountSummary::from_bytes(outcome.bytes).unwrap();
        assert_eq!(s.rows, 20_000, "no stale partial summary served");
    }

    #[test]
    fn cancellation_returns_partial_cleanly() {
        let c = cluster(2);
        let ds = load(&c);
        let cancel = CancellationToken::new();
        cancel.cancel(); // cancel before starting: all leaves skipped
        let opts = QueryOptions {
            cancel: cancel.clone(),
            ..Default::default()
        };
        let outcome = c.run_erased(ds, None, &erase(CountSketch::rows()), &opts);
        // Either an identity result or an early return; never a hang/panic.
        if let Ok(o) = outcome {
            let s = CountSummary::from_bytes(o.bytes).unwrap();
            assert!(s.rows <= 30_000);
        }
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = HistogramSketch::sampled("X", BucketSpec::numeric(0.0, 100.0, 10), 0.2);
        let opts = QueryOptions {
            seed: 42,
            ..Default::default()
        };
        let a = c.run_erased(ds, None, &erase(sk.clone()), &opts).unwrap();
        let b = c.run_erased(ds, None, &erase(sk), &opts).unwrap();
        assert_eq!(a.bytes, b.bytes, "same seed ⇒ identical summaries");
    }

    /// Cluster with an explicit thread count and leaf grain, holding one
    /// worker with a 40k-row low-cardinality dataset (8 micropartitions).
    fn split_cluster(threads: usize, grain: usize) -> Arc<Cluster> {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("skewed", |_w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..40_000).map(|i| Some((i * 7919) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        // The same X beside a column of fractional doubles, whose power
        // sums round differently when folded at different boundaries.
        sources.register(Arc::new(FnSource::new(
            "fractional",
            |_w, _n, _mp, _snap| {
                let rows = || (0..40_000i64).map(|i| (i * 7919) % 1_000);
                let t = Table::builder()
                    .column(
                        "X",
                        ColumnKind::Int,
                        Column::Int(I64Column::from_options(rows().map(|v| Some(v % 100)))),
                    )
                    .column(
                        "F",
                        ColumnKind::Double,
                        Column::Double(F64Column::from_options(
                            rows().map(|v| Some(v as f64 / 7.0)),
                        )),
                    )
                    .build()
                    .unwrap();
                Ok(vec![t])
            },
        )));
        let cfg = ClusterConfig {
            workers: 1,
            threads_per_worker: threads,
            micropartition_rows: 5_000,
            batch_interval: Duration::from_millis(2),
            link: LinkConfig::instant(),
            leaf_grain_rows: grain,
            ..ClusterConfig::test()
        };
        Cluster::new(cfg, sources, UdfRegistry::with_builtins())
    }

    fn load_skewed(c: &Cluster) -> DatasetId {
        load_source(c, DatasetId(1), "skewed")
    }

    #[test]
    fn split_execution_matches_unsplit_bytes_for_exact_sketches() {
        // Tiny grain (forces ~8 sub-tasks per partition) vs huge grain (no
        // splitting): integer-merge sketches must produce identical bytes.
        use hillview_sketch::heavy::SampledHeavyHittersSketch;
        let split = split_cluster(4, 512);
        let unsplit = split_cluster(2, usize::MAX);
        let (da, db) = (load_skewed(&split), load_skewed(&unsplit));
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
            erase(HistogramSketch::sampled(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
                0.25,
            )),
            erase(CountSketch::of_column("X")),
            erase(SampledHeavyHittersSketch::new("X", 4, 0.5)),
        ];
        for sk in sketches {
            let opts = QueryOptions {
                seed: 99,
                ..Default::default()
            };
            let a = split.run_erased(da, None, &sk, &opts).unwrap();
            let b = unsplit.run_erased(db, None, &sk, &opts).unwrap();
            assert_eq!(a.bytes, b.bytes, "sketch {}", sk.name());
        }
        // The split cluster really did split: more leaf tasks than the 8
        // partitions per query.
        assert!(
            split.worker(0).leaf_tasks_executed() > 4 * 8,
            "leaf tasks {} show no intra-partition splitting",
            split.worker(0).leaf_tasks_executed()
        );
        assert_eq!(unsplit.worker(0).leaf_tasks_executed(), 4 * 8);
    }

    #[test]
    fn split_results_independent_of_thread_count() {
        // Order-sensitive (Misra-Gries) and floating-point (moments)
        // sketches: the split plan and range-ordered fold are fixed, so
        // 1-thread and 4-thread execution produce identical bytes.
        use hillview_sketch::heavy::MisraGriesSketch;
        use hillview_sketch::moments::MomentsSketch;
        let one = split_cluster(1, 700);
        let four = split_cluster(4, 700);
        let (da, db) = (load_skewed(&one), load_skewed(&four));
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(MisraGriesSketch::new("X", 5)),
            erase(MomentsSketch::new("X", 4)),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 16),
            )),
        ];
        for sk in sketches {
            let opts = QueryOptions::default();
            let a = one.run_erased(da, None, &sk, &opts).unwrap();
            let b = four.run_erased(db, None, &sk, &opts).unwrap();
            assert_eq!(a.bytes, b.bytes, "sketch {}", sk.name());
            // Re-running on the same cluster is also stable.
            let a2 = one.run_erased(da, None, &sk, &opts).unwrap();
            assert_eq!(a.bytes, a2.bytes, "sketch {} re-run", sk.name());
        }
    }

    #[test]
    fn split_progress_reports_row_weighted_work() {
        let c = split_cluster(2, 512);
        let ds = load_skewed(&c);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<(u64, u64)>::new()));
        let seen2 = seen.clone();
        let opts = QueryOptions {
            on_partial: Some(Arc::new(move |p: &Partial| {
                seen2.lock().push((p.work_done, p.work_total));
            })),
            ..Default::default()
        };
        let sk = erase(HistogramSketch::streaming(
            "X",
            BucketSpec::numeric(0.0, 100.0, 10),
        ));
        c.run_erased(ds, None, &sk, &opts).unwrap();
        let partials = seen.lock().clone();
        assert!(!partials.is_empty());
        let (done, total) = *partials.last().unwrap();
        // 40k rows + one unit per piece: each of the 8 partitions of 5 000
        // rows halves four times, to 16 pieces of at most 512 rows.
        assert_eq!(total, 40_000 + 8 * 16);
        assert_eq!(done, total, "final partial reports complete work");
        assert!(
            partials.windows(2).all(|w| w[0].0 <= w[1].0),
            "work progress is monotone: {partials:?}"
        );
    }

    #[test]
    fn results_independent_of_worker_count() {
        // Partition-invariance: the same logical dataset spread over 1 vs 4
        // workers yields identical exact summaries.
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("span", |w, n, _mp, _snap| {
            // 40k logical rows split contiguously across n workers.
            let per = 40_000 / n as i64;
            let lo = w as i64 * per;
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (lo..lo + per).map(|i| Some(i % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut results = Vec::new();
        for workers in [1usize, 4] {
            let mut cfg = ClusterConfig::test();
            cfg.workers = workers;
            let c = Cluster::new(cfg, sources.clone(), UdfRegistry::new());
            let ds = load_source(&c, DatasetId(5), "span");
            let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 20));
            let o = c
                .run_erased(ds, None, &erase(sk), &QueryOptions::default())
                .unwrap();
            results.push(o.bytes);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn fused_tree_matches_materialized_filter() {
        // A fused tree over the parent must equal a plain tree over the
        // materialized filtered dataset byte-for-byte: both split each
        // partition's row span at the grain, whatever the membership, and
        // each piece visits the same rows in the same order under both
        // plans. So floating-point sums (moments, PCA) and order-sensitive
        // merges (Misra-Gries) fold identically too, and the sampled
        // sketches read the same rows, since a row is sampled by its index
        // and the partition's seed.
        use hillview_columnar::SortOrder;
        use hillview_sketch::distinct::DistinctSketch;
        use hillview_sketch::heavy::{MisraGriesSketch, SampledHeavyHittersSketch};
        use hillview_sketch::moments::MomentsSketch;
        use hillview_sketch::pca::PcaSketch;
        use hillview_sketch::quantile::QuantileSketch;
        let c = split_cluster(4, 512);
        let pred = Predicate::range("X", 10.0, 60.0);
        let trees_agree = |source: &str, id: u64, sketches: Vec<Arc<dyn ErasedSketch>>| {
            let ds = load_source(&c, DatasetId(id), source);
            let filtered = DatasetId(id + 1);
            let step = Lineage::Filtered {
                parent: ds,
                predicate: pred.clone(),
            };
            c.derive(filtered, &step, None).unwrap();
            for sk in sketches {
                // Uncached: the two plans share one entry, and here both
                // compute.
                let opts = QueryOptions {
                    seed: 7,
                    cache: false,
                    ..Default::default()
                };
                let fused = c.run_erased(ds, Some(&pred), &sk, &opts).unwrap();
                let two_pass = c.run_erased(filtered, None, &sk, &opts).unwrap();
                assert_eq!(fused.bytes, two_pass.bytes, "sketch {}", sk.name());
            }
        };
        trees_agree(
            "skewed",
            1,
            vec![
                erase(CountSketch::rows()),
                erase(HistogramSketch::streaming(
                    "X",
                    BucketSpec::numeric(0.0, 100.0, 10),
                )),
                erase(DistinctSketch::new("X")),
                erase(HistogramSketch::sampled(
                    "X",
                    BucketSpec::numeric(0.0, 100.0, 10),
                    0.3,
                )),
                erase(QuantileSketch::new(
                    SortOrder::ascending(&["X"]),
                    0.3,
                    100_000,
                    100_000,
                )),
                erase(SampledHeavyHittersSketch::new("X", 4, 0.3)),
            ],
        );
        trees_agree(
            "fractional",
            3,
            vec![
                erase(MomentsSketch::new("F", 4)),
                erase(PcaSketch::new(&["F", "X"], 1.0)),
                erase(MisraGriesSketch::new("F", 5)),
            ],
        );
    }

    #[test]
    fn fused_tree_deterministic_across_thread_counts() {
        // The split plan derives from the partition's row count and the
        // grain — both fixed — so order-sensitive (Misra-Gries) and
        // floating-point (moments) sketches produce identical bytes on 1
        // and 4 threads, exactly like the unfiltered trees do.
        use hillview_sketch::heavy::MisraGriesSketch;
        use hillview_sketch::moments::MomentsSketch;
        let one = split_cluster(1, 700);
        let four = split_cluster(4, 700);
        let (da, db) = (load_skewed(&one), load_skewed(&four));
        let pred = Predicate::range("X", 5.0, 95.0);
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(MisraGriesSketch::new("X", 5)),
            erase(MomentsSketch::new("X", 4)),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 16),
            )),
        ];
        for sk in sketches {
            let opts = QueryOptions::default();
            let a = one.run_erased(da, Some(&pred), &sk, &opts).unwrap();
            let b = four.run_erased(db, Some(&pred), &sk, &opts).unwrap();
            assert_eq!(a.bytes, b.bytes, "sketch {}", sk.name());
            let a2 = one.run_erased(da, Some(&pred), &sk, &opts).unwrap();
            assert_eq!(a.bytes, a2.bytes, "sketch {} re-run", sk.name());
        }
    }

    #[test]
    fn fused_and_unfiltered_queries_cache_without_collision() {
        // The structural key folds the fused predicate's canonical bytes
        // into the dataset version, so the fused and unfiltered entries
        // for the same sketch coexist — and canonically-equal respellings
        // of the predicate share the fused entry.
        let c = cluster(2);
        let ds = load(&c);
        let opts = QueryOptions::default();
        let pred = Predicate::range("X", 0.0, 50.0);
        let sk = erase(CountSketch::rows());
        let narrowed = c.run_erased(ds, Some(&pred), &sk, &opts).unwrap();
        assert_eq!(
            CountSummary::from_bytes(narrowed.bytes).unwrap().rows,
            10_000
        );
        let full = c.run_erased(ds, None, &sk, &opts).unwrap();
        assert_eq!(CountSummary::from_bytes(full.bytes).unwrap().rows, 20_000);

        // Repeats of both shapes are pure cache hits.
        let hits_before = c.cache_stats().hits;
        let narrowed2 = c.run_erased(ds, Some(&pred), &sk, &opts).unwrap();
        let full2 = c.run_erased(ds, None, &sk, &opts).unwrap();
        assert_eq!(
            CountSummary::from_bytes(narrowed2.bytes).unwrap().rows,
            10_000
        );
        assert_eq!(CountSummary::from_bytes(full2.bytes).unwrap().rows, 20_000);
        assert_eq!(c.cache_stats().hits - hits_before, 4);

        // A canonically-equal respelling (`p AND true` canonicalizes to
        // `p`) hits the same fused entry instead of recomputing.
        let respelled = pred.clone().and(Predicate::True);
        let hits_before = c.cache_stats().hits;
        let narrowed3 = c.run_erased(ds, Some(&respelled), &sk, &opts).unwrap();
        assert_eq!(
            CountSummary::from_bytes(narrowed3.bytes).unwrap().rows,
            10_000
        );
        assert_eq!(c.cache_stats().hits - hits_before, 2);
    }

    #[test]
    fn concurrent_identical_queries_coalesce_onto_one_flight() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = erase(CountSketch::rows());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (c, sk) = (&c, &sk);
                    scope.spawn(move || {
                        c.run_erased(ds, None, sk, &QueryOptions::default())
                            .unwrap()
                            .bytes
                    })
                })
                .collect();
            let results: Vec<Bytes> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                assert_eq!(r, &results[0]);
            }
        });
        let stats = c.cache_stats();
        // Exactly one scan per worker; the other three trees either hit
        // the finished entry or coalesced onto the in-flight scan.
        assert_eq!(stats.insertions, 2, "{stats:?}");
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.hits, 6, "{stats:?}");
    }

    #[test]
    fn memo_answer_delivers_one_complete_partial() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = erase(CountSketch::rows());
        let first = c
            .run_erased(ds, None, &sk, &QueryOptions::default())
            .unwrap();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<Partial>::new()));
        let seen2 = seen.clone();
        let opts = QueryOptions {
            on_partial: Some(Arc::new(move |p: &Partial| seen2.lock().push(p.clone()))),
            ..Default::default()
        };
        let again = c.run_erased(ds, None, &sk, &opts).unwrap();
        assert!(again.memo && again.root_messages == 0 && again.root_bytes == 0);
        assert_eq!((again.partials, again.coverage), (1, 1.0));
        assert!(again.first_partial.is_some());
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].summary, first.bytes);
        assert_eq!(seen[0].fraction, 1.0);
        // 10k rows and ten partitions on each worker, as a tree reports.
        assert_eq!((seen[0].work_done, seen[0].work_total), (20_020, 20_020));
    }

    #[test]
    fn degraded_attempt_neither_reads_nor_writes_the_memo() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = erase(CountSketch::rows());
        let opts = QueryOptions::default();
        // Healthy, but asked to tolerate: a tree, and nothing memoized.
        for _ in 0..2 {
            let o = c.run_tree(ds, None, &sk, &opts, true).unwrap();
            assert!(!o.memo && o.root_messages > 0);
        }
        assert!(!c.run_erased(ds, None, &sk, &opts).unwrap().memo);
        assert!(c.run_erased(ds, None, &sk, &opts).unwrap().memo);
        let o = c.run_tree(ds, None, &sk, &opts, true).unwrap();
        assert!(
            !o.memo && o.root_messages > 0,
            "not served to a tolerant tree"
        );
    }

    #[test]
    fn aggregator_death_without_final_frame_terminates_root_loop() {
        // Regression for the root-merge-loop hang: a worker whose
        // aggregation node dies without ever shipping a final frame (here:
        // every frame it sends is dropped) must be detected by the
        // liveness sweep — the query errors out instead of hanging.
        let mut cfg = ClusterConfig::test();
        cfg.worker_timeout = Duration::from_millis(200);
        let c = {
            let mut sources = SourceRegistry::new();
            sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _snap| {
                let t = Table::builder()
                    .column(
                        "X",
                        ColumnKind::Int,
                        Column::Int(I64Column::from_options(
                            (0..10_000).map(|i| Some((i + w as i64 * 10_000) % 100)),
                        )),
                    )
                    .build()
                    .unwrap();
                Ok(vec![t])
            })));
            Cluster::new(cfg, sources, UdfRegistry::with_builtins())
        };
        let ds = load(&c);
        // Drop every frame worker 1's node sends, finals included.
        c.arm_faults(FaultPlan::scripted((0..64).map(|i| {
            (
                FaultSite::Frame {
                    worker: 1,
                    index: i,
                },
                FaultAction::DropFrame,
            )
        })));
        let started = Instant::now();
        let e = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap_err();
        assert_eq!(e, EngineError::WorkerDown(1));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "liveness sweep bounded the wait"
        );
    }

    #[test]
    fn injected_leaf_panic_surfaces_structured() {
        let c = cluster(2);
        let ds = load(&c);
        c.arm_faults(FaultPlan::scripted([(
            FaultSite::Leaf {
                worker: 0,
                partition: 0,
                lo: 0,
            },
            FaultAction::PanicLeaf,
        )]));
        let e = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap_err();
        match e {
            EngineError::LeafPanicked { worker, message } => {
                assert_eq!(worker, 0);
                assert!(message.contains("injected leaf panic"), "{message}");
            }
            other => panic!("expected LeafPanicked, got {other:?}"),
        }
        // The panic was isolated: disarm and the same cluster still works.
        c.disarm_faults();
        let o = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap();
        let s = CountSummary::from_bytes(o.bytes).unwrap();
        assert_eq!(s.rows, 20_000);
    }

    #[test]
    fn duplicated_and_corrupted_frames_do_not_skew_results() {
        // Duplicate every frame worker 0 sends (finals included — the
        // duplicate-final guard is what keeps the count exact) and corrupt
        // worker 1's first frame. A stalled leaf on worker 1 guarantees
        // its frame 0 is a partial/heartbeat, not the final: the corrupt
        // frame is dropped by the checksum and later frames carry the
        // result through.
        let c = cluster(2);
        let ds = load(&c);
        let mut rules: Vec<(FaultSite, FaultAction)> = Vec::new();
        for i in 0..64 {
            rules.push((
                FaultSite::Frame {
                    worker: 0,
                    index: i,
                },
                FaultAction::DuplicateFrame,
            ));
        }
        rules.push((
            FaultSite::Frame {
                worker: 1,
                index: 0,
            },
            FaultAction::CorruptFrame(0xDEAD_BEEF),
        ));
        rules.push((
            FaultSite::Leaf {
                worker: 1,
                partition: 0,
                lo: 0,
            },
            FaultAction::StallLeaf(Duration::from_millis(50)),
        ));
        c.arm_faults(FaultPlan::scripted(rules));
        let o = c
            .run_erased(
                ds,
                None,
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap();
        let s = CountSummary::from_bytes(o.bytes).unwrap();
        assert_eq!(s.rows, 20_000, "exact despite dup + corrupt frames");
        assert_eq!(o.coverage, 1.0);
        assert!(o.failed_workers.is_empty());
    }

    #[test]
    fn tolerate_mode_folds_survivors_with_honest_coverage() {
        let c = cluster(2);
        let ds = load(&c);
        c.worker(1).kill();
        let opts = QueryOptions::default();
        let o = c
            .run_tree(ds, None, &erase(CountSketch::rows()), &opts, true)
            .unwrap();
        let s = CountSummary::from_bytes(o.bytes).unwrap();
        assert_eq!(s.rows, 10_000, "survivor's shard only");
        assert_eq!(o.failed_workers, vec![1]);
        assert!(
            o.coverage > 0.0 && o.coverage < 1.0,
            "coverage honestly strict: {}",
            o.coverage
        );
    }

    #[test]
    fn tolerate_mode_with_no_survivors_errors() {
        let c = cluster(2);
        let ds = load(&c);
        c.worker(0).kill();
        c.worker(1).kill();
        let opts = QueryOptions::default();
        let e = c
            .run_tree(ds, None, &erase(CountSketch::rows()), &opts, true)
            .unwrap_err();
        assert!(matches!(e, EngineError::WorkerDown(_)));
    }

    #[test]
    fn deadline_exceeded_is_structured_and_bounded() {
        let c = cluster(2);
        let ds = load(&c);
        // Stall every initial leaf long enough to blow a tiny deadline.
        let rules: Vec<(FaultSite, FaultAction)> = (0..2)
            .flat_map(|w| {
                (0..10u32).map(move |p| {
                    (
                        FaultSite::Leaf {
                            worker: w,
                            partition: p,
                            lo: 0,
                        },
                        FaultAction::StallLeaf(Duration::from_millis(120)),
                    )
                })
            })
            .collect();
        c.arm_faults(FaultPlan::scripted(rules));
        let opts = QueryOptions {
            deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        };
        let started = Instant::now();
        let e = c
            .run_erased(ds, None, &erase(CountSketch::rows()), &opts)
            .unwrap_err();
        assert!(matches!(e, EngineError::DeadlineExceeded { .. }), "{e}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// Counts and slows every leaf, and ships a link form nothing can
    /// decode: worker-side folds never see compacted bytes and succeed,
    /// the root's fold of what crossed the link fails.
    struct UnfoldableAtRoot {
        inner: Arc<dyn ErasedSketch>,
        summarized: std::sync::atomic::AtomicU64,
    }

    impl ErasedSketch for UnfoldableAtRoot {
        fn name(&self) -> &'static str {
            "unfoldable-at-root"
        }
        fn summarize_bytes(
            &self,
            view: &hillview_sketch::TableView,
            scope: Scope<'_>,
            seed: u64,
        ) -> EngineResult<Bytes> {
            self.summarized
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
            self.inner.summarize_bytes(view, scope, seed)
        }
        fn fold_bytes(&self, parts: &[Bytes]) -> EngineResult<Bytes> {
            self.inner.fold_bytes(parts)
        }
        fn identity_bytes(&self) -> Bytes {
            self.inner.identity_bytes()
        }
        fn compact_bytes(&self, _summary: Bytes) -> EngineResult<Bytes> {
            Ok(Bytes::from_static(&[0xFF; 6]))
        }
        fn cache_identity(&self) -> Option<Vec<u8>> {
            None
        }
    }

    #[test]
    fn root_fold_error_cancels_and_joins_the_tree() {
        const PARTITIONS: u64 = 40;
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("many", |_w, _n, _mp, _snap| {
            let part = || {
                Table::builder()
                    .column(
                        "X",
                        ColumnKind::Int,
                        Column::Int(I64Column::from_options((0..10).map(Some))),
                    )
                    .build()
                    .unwrap()
            };
            Ok((0..PARTITIONS).map(|_| part()).collect())
        })));
        // One pool thread per worker: leaves run one after another, so the
        // first partial reaches the root with most of them still queued.
        let cfg = ClusterConfig {
            threads_per_worker: 1,
            ..ClusterConfig::test()
        };
        let workers = cfg.workers as u64;
        let c = Cluster::new(cfg, sources, UdfRegistry::new());
        let ds = load_source(&c, DatasetId(1), "many");
        let sketch = Arc::new(UnfoldableAtRoot {
            inner: erase(CountSketch::rows()),
            summarized: Default::default(),
        });
        let opts = QueryOptions {
            on_partial: Some(Arc::new(|_: &Partial| {})),
            ..Default::default()
        };
        let erased: Arc<dyn ErasedSketch> = sketch.clone();
        let e = c.run_erased(ds, None, &erased, &opts).unwrap_err();
        assert!(matches!(e, EngineError::Wire(_)), "{e}");
        // Every queued leaf task drains — a cancelled one is counted, then
        // returns before summarizing — and the cancel reached most of them.
        let drained = || -> u64 {
            (0..c.num_workers())
                .map(|w| c.worker(w).leaf_tasks_executed())
                .sum()
        };
        let started = Instant::now();
        while drained() < workers * PARTITIONS {
            assert!(started.elapsed() < Duration::from_secs(10), "leaves hung");
            std::thread::sleep(Duration::from_millis(1));
        }
        let summarized = sketch.summarized.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            summarized < workers * PARTITIONS,
            "tree kept running after the fold error: {summarized} leaves summarized"
        );
    }
}
