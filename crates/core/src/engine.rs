//! The root-node engine: dataset management, query execution, recovery.
//!
//! [`Engine`] wraps a [`Cluster`] with the root's durable state — the redo
//! log and dataset-id allocator — and implements the paper's lazy recovery
//! protocol (§5.7): when a worker reports a missing dataset, the root
//! replays the lineage chain *on that worker only* and retries; when a
//! worker is down, it is restarted stateless (§5.8) and the same replay
//! path repopulates it on demand.
//!
//! Each decision has one home. Every dataset-producing call (`load`,
//! `reload`, `filter`, `map`, the promotion of a lazy filter) records its
//! [`Lineage`] and applies it through one helper; every query shape is one
//! private `execute`; and both run as attempts under one bounded loop,
//! which has three exits: the attempt's complete result, a structured
//! error (the failure itself when no retry could heal it, else
//! [`EngineError::RetriesExhausted`] around the last one), or — for a query
//! that opted in — the labelled degraded result of one last tree.

use crate::cluster::{Cluster, QueryOptions, QueryOutcome};
use crate::dataset::{DatasetId, Lineage, SourceSpec};
use crate::erased::{erase, ErasedSketch};
use crate::error::{EngineError, EngineResult};
use crate::redo::RedoLog;
use crate::stats::DatasetStats;
use hillview_columnar::{ColumnKind, Predicate};
use hillview_net::Wire;
use hillview_sketch::Sketch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded retry with exponential backoff — the budget of the engine's
/// recovery loop, for queries and dataset operations alike. An attempt is
/// retried only when its error [`EngineError::is_retryable`] — transient
/// infrastructure faults — and the budget is hard: once exhausted the
/// caller gets [`EngineError::RetriesExhausted`] wrapping the final failure
/// (or, under [`QueryOptions::allow_degraded`], a coverage-labelled partial
/// result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first. `1` means never retry.
    pub attempts: u32,
    /// Sleep before the first retry; doubles on each subsequent retry.
    pub base_backoff: Duration,
    /// Cap on the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Backoff before 1-based retry number `retry`:
    /// `base_backoff * 2^(retry-1)`, capped at `max_backoff`.
    pub(crate) fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }
}

/// The root node: cluster + redo log + recovery.
pub struct Engine {
    cluster: Arc<Cluster>,
    log: RedoLog,
    next_id: AtomicU64,
    /// Lazily-derived filtered datasets ([`Engine::filter_lazy`]) not yet
    /// promoted, each with whether a tree has launched over it: the id
    /// exists only in the redo log, which holds its parent and predicate,
    /// and this table.
    pending_filters: parking_lot::Mutex<HashMap<DatasetId, bool>>,
    /// Restart dead workers automatically during queries (on by default;
    /// tests can disable it to observe raw failures).
    pub auto_recover: bool,
    /// Retry budget of the recovery loop (queries and dataset-producing
    /// operations).
    pub retry: RetryPolicy,
}

impl Engine {
    /// Wrap a cluster.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        Engine {
            cluster,
            log: RedoLog::new(),
            next_id: AtomicU64::new(1),
            pending_filters: parking_lot::Mutex::new(HashMap::new()),
            auto_recover: true,
            retry: RetryPolicy::default(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The redo log (read-only access for inspection).
    pub fn redo_log(&self) -> &RedoLog {
        &self.log
    }

    fn fresh_id(&self) -> DatasetId {
        DatasetId(self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Record `step` as the lineage of `id`, then apply it on every worker
    /// under the recovery loop — how every dataset comes to exist or
    /// change. Dataset ops are idempotent (a re-run overwrites the same
    /// dataset id with identical contents), so retrying any transient
    /// failure — including a replay that itself hits a fault — is sound.
    fn derive_logged(&self, id: DatasetId, step: Lineage) -> EngineResult<()> {
        self.log.record(id, step.clone());
        self.recover(&QueryOptions::default(), None, |_, _| {
            self.cluster.derive(id, &step, None)
        })
    }

    /// Load a dataset from a registered source on every worker; logged.
    pub fn load(&self, source: &str, snapshot: u64) -> EngineResult<DatasetId> {
        let id = self.fresh_id();
        let source = Arc::from(source);
        let spec = SourceSpec { source, snapshot };
        self.derive_logged(id, Lineage::Loaded { spec })?;
        Ok(id)
    }

    /// Re-load a root dataset *in place* at a new snapshot: the id keeps
    /// naming "this source", but its contents — and its lineage-derived
    /// content version — change. The redo-log entry is rewritten so
    /// replay reconstructs the new snapshot, and every *derived* dataset
    /// (filtered/mapped descendants) is evicted cluster-wide so lazy
    /// replay rebuilds it from the new data. Cached summaries of the old
    /// snapshot stay under its version — going back finds them — and a
    /// pending lazy filter over the root fuses over the new contents.
    /// Errors on derived datasets: reload the chain's root instead.
    pub fn reload(&self, dataset: DatasetId, snapshot: u64) -> EngineResult<()> {
        let source = match self.log.lineage(dataset) {
            Some(Lineage::Loaded { spec }) => spec.source,
            Some(_) => {
                return Err(EngineError::Source(format!(
                    "dataset {dataset} is derived; reload its root load instead"
                )))
            }
            None => return Err(EngineError::UnknownDataset(dataset)),
        };
        // Descendants materialized from the old snapshot are stale:
        // evict them everywhere so the ordinary missing-dataset replay
        // path rebuilds them against the new contents on demand.
        for (id, _) in self.log.all() {
            if id != dataset && self.log.chain(id).iter().any(|(c, _)| *c == dataset) {
                for w in 0..self.cluster.num_workers() {
                    self.cluster.worker(w).evict(id);
                }
            }
        }
        let spec = SourceSpec { source, snapshot };
        self.derive_logged(dataset, Lineage::Loaded { spec })
    }

    /// Derive a filtered dataset; logged (paper §5.6 "Selection"). The
    /// narrowed membership is materialized on every worker immediately, so
    /// repeat queries reuse it through the two-pass path. For a filter that
    /// will likely be queried once (brushing a chart region), prefer
    /// [`Engine::filter_lazy`] or [`Engine::run_filtered`].
    pub fn filter(&self, parent: DatasetId, predicate: Predicate) -> EngineResult<DatasetId> {
        self.ensure_materialized(parent)?;
        let id = self.fresh_id();
        self.derive_logged(id, Lineage::Filtered { parent, predicate })?;
        Ok(id)
    }

    /// Derive a filtered dataset *lazily*: nothing is materialized now.
    /// Queries against the returned id run fused — the predicate chain down
    /// to the nearest materialized ancestor is compiled into the sketch's
    /// block pass, one decode per frame, no membership set — until one
    /// tree has launched over it. Its next query promotes the chain to
    /// materialized membership, ancestors first, and runs the cached
    /// two-pass path from then on. A query the root's memo answers
    /// launches nothing and does not count. A fused tree keys its cache
    /// entries as the filter it would materialize, so what the first
    /// query cached still answers after the promotion.
    pub fn filter_lazy(&self, parent: DatasetId, predicate: Predicate) -> DatasetId {
        let id = self.fresh_id();
        // Logged like an eager filter: the entry is what the pending
        // filter fuses, and lineage replay materializes the chain
        // identically if a worker ever needs it reconstructed.
        self.log.record(id, Lineage::Filtered { parent, predicate });
        self.pending_filters.lock().insert(id, false);
        id
    }

    /// Derive a mapped dataset with a UDF column; logged (§5.6).
    pub(crate) fn map(
        &self,
        parent: DatasetId,
        udf: &str,
        new_column: &str,
    ) -> EngineResult<DatasetId> {
        self.ensure_materialized(parent)?;
        let id = self.fresh_id();
        let (udf, new_column) = (Arc::from(udf), Arc::from(new_column));
        let step = Lineage::Mapped {
            parent,
            udf,
            new_column,
        };
        self.derive_logged(id, step)?;
        Ok(id)
    }

    /// Materialize the pending-filter chain ending at `dataset` (ancestors
    /// first — each link's parent must exist before the link itself),
    /// switching the ids to the cached-membership two-pass path. No-op for
    /// datasets that were never lazily derived.
    fn ensure_materialized(&self, dataset: DatasetId) -> EngineResult<()> {
        // Snapshot the chain under the lock, run cluster ops outside it
        // (they replay and retry, and can take arbitrarily long).
        let lazy = self.lazy_suffix(&self.pending_filters.lock(), dataset);
        for (id, step) in lazy {
            self.derive_logged(id, step)?;
            self.pending_filters.lock().remove(&id);
        }
        Ok(())
    }

    /// The pending lazy filters of `dataset`'s lineage — from the one over
    /// its nearest materialized ancestor down to `dataset` itself — each
    /// with its logged step. Empty unless `dataset` is pending.
    fn lazy_suffix(
        &self,
        pending: &HashMap<DatasetId, bool>,
        dataset: DatasetId,
    ) -> Vec<(DatasetId, Lineage)> {
        let mut chain = self.log.chain(dataset);
        let lazy = chain.iter().rev();
        let lazy = lazy.take_while(|(id, _)| pending.contains_key(id)).count();
        chain.split_off(chain.len() - lazy)
    }

    /// Resolve `dataset` into an execution plan: the dataset to run the
    /// tree against plus an optional fused predicate. A pending lazy
    /// filter no tree has launched over composes its predicate chain
    /// (ancestor-first AND) down to the nearest materialized dataset —
    /// an already-promoted ancestor anchors the chain, only the lazy
    /// suffix fuses. Once a tree has launched over it, the chain is
    /// promoted to materialized membership and the tree runs over that.
    ///
    /// Why a launch is the whole rule: the first tree pays at most the one
    /// pass materializing would, and a repeated chart is answered from
    /// entries both plans share, so only a filter someone keeps charting
    /// pays for its membership — once, after which each tree reads only
    /// its rows.
    fn plan_query(&self, dataset: DatasetId) -> EngineResult<(DatasetId, Option<Predicate>)> {
        let pending = self.pending_filters.lock();
        if pending.get(&dataset) == Some(&false) {
            let lazy = self.lazy_suffix(&pending, dataset);
            let root = lazy.first().and_then(|(_, step)| step.parent());
            // Ancestor-first AND: the coarse (usually more selective in
            // sequence) parent predicate short-circuits before child terms.
            let composed = lazy.into_iter().filter_map(|(_, step)| match step {
                Lineage::Filtered { predicate, .. } => Some(predicate),
                _ => None,
            });
            return Ok((root.unwrap_or(dataset), composed.reduce(|a, b| a.and(b))));
        }
        let launched = pending.contains_key(&dataset);
        drop(pending);
        if launched {
            self.ensure_materialized(dataset)?;
        }
        Ok((dataset, None))
    }

    /// The one recovery loop (§5.7–5.8): run `attempt` until it succeeds,
    /// fails in a way no retry can heal, or the [`RetryPolicy`] budget is
    /// spent. An attempt is handed what is left of [`QueryOptions::deadline`]
    /// — the deadline spans *all* attempts, not each one — and whether it
    /// is the degraded one. Between attempts the failure is repaired:
    /// a missing dataset is replayed on the worker that missed it, and a
    /// dead worker is restarted. `replay_at_once` names a dataset to replay
    /// on the restarted worker right away, as a query does with the root it
    /// is about to scan again; without one (a dataset operation) the worker
    /// comes back empty and the next attempt's miss says what to replay.
    ///
    /// When the budget runs out, [`QueryOptions::allow_degraded`] permits
    /// one final attempt that excludes failed workers and returns the
    /// survivors' merge labelled with [`QueryOutcome::coverage`]` < 1`;
    /// otherwise the caller gets [`EngineError::RetriesExhausted`].
    fn recover<T>(
        &self,
        opts: &QueryOptions,
        replay_at_once: Option<DatasetId>,
        attempt: impl Fn(Option<Duration>, bool) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let started = Instant::now();
        // Remaining deadline for the next attempt, or an error once spent.
        let remaining = || {
            let Some(deadline) = opts.deadline else {
                return Ok(None);
            };
            let elapsed = started.elapsed();
            let left = deadline.checked_sub(elapsed);
            left.map(Some)
                .ok_or(EngineError::DeadlineExceeded { elapsed })
        };
        let attempts = self.retry.attempts.max(1);
        let mut tried = 0;
        let last = loop {
            // A recovery retry must not inherit a cancel flag set by the
            // failure path of the previous attempt.
            if opts.cancel.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
            if tried > 0 {
                std::thread::sleep(self.retry.backoff(tried));
            }
            let mut failure = match attempt(remaining()?, false) {
                Ok(done) => return Ok(done),
                Err(e) => e,
            };
            let replay = match &failure {
                EngineError::DatasetMissing { worker, dataset } => Some((*worker, *dataset)),
                EngineError::WorkerDown(w) if self.auto_recover => {
                    self.cluster.worker(*w).restart();
                    replay_at_once.map(|dataset| (*w, dataset))
                }
                // Without auto-restart a dead worker stays dead: the
                // failure is deterministic, so surface it raw.
                EngineError::WorkerDown(_) => return Err(failure),
                _ if failure.is_retryable() => None,
                _ => return Err(failure),
            };
            // A replay can itself hit a fault (worker killed
            // mid-replay); transient replay failures consume an
            // attempt instead of escaping the retry loop raw.
            if let Some((worker, dataset)) = replay {
                if let Err(e) = self.replay(worker, dataset) {
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    failure = e;
                }
            }
            tried += 1;
            if tried == attempts {
                break failure;
            }
        };
        // Opt-in graceful degradation: one last tree that tolerates
        // worker failures and folds the survivors, honestly labelled.
        if opts.allow_degraded {
            if let Ok(degraded) = attempt(remaining()?, true) {
                return Ok(degraded);
            }
        }
        Err(EngineError::RetriesExhausted {
            attempts,
            last: Box::new(last),
        })
    }

    /// Reconstruct `dataset` on `worker` by replaying its lineage chain
    /// (paper §5.7: "This may require re-executing other queries, that
    /// produced the source objects; the recursion ends when data is read
    /// from disk").
    pub(crate) fn replay(&self, worker: usize, dataset: DatasetId) -> EngineResult<()> {
        let chain = self.log.chain(dataset);
        if chain.is_empty() {
            return Err(EngineError::UnknownDataset(dataset));
        }
        let w = self.cluster.worker(worker);
        if !w.is_alive() {
            if self.auto_recover {
                w.restart();
            } else {
                return Err(EngineError::WorkerDown(worker));
            }
        }
        for (id, lineage) in chain {
            if w.has_dataset(id) {
                continue;
            }
            self.cluster.derive(id, &lineage, Some(worker))?;
        }
        Ok(())
    }

    /// What `dataset`'s part statistics say ([`DatasetStats`]): the bytes an
    /// unfiltered count or range tree over it would fold, with no tree. Only
    /// for a load (`Lineage::Loaded`) that every worker is up for and holds
    /// at the version its lineage gives; `None` otherwise — a filtered or
    /// mapped dataset, a dead worker or an evicted dataset is left to a
    /// tree, which meets and recovers from it as ever. The probe is a worker
    /// operation boundary on each worker and puts nothing on the root link.
    pub fn stats(&self, dataset: DatasetId) -> Option<DatasetStats> {
        let step @ Lineage::Loaded { .. } = self.log.lineage(dataset)? else {
            return None;
        };
        let version = step.content_version(dataset, 0, None);
        self.cluster.dataset_stats(dataset, version)
    }

    /// The kind of `column` in `dataset`, read from a partition some live
    /// worker holds of it — or, since a filter keeps its parent's columns,
    /// of its nearest ancestor that one does. `None` when none is held, or
    /// the dataset has no such column.
    pub(crate) fn column_kind(&self, dataset: DatasetId, column: &str) -> Option<ColumnKind> {
        let mut id = dataset;
        loop {
            let workers = (0..self.cluster.num_workers()).map(|w| self.cluster.worker(w));
            let held = workers
                .filter(|w| w.is_alive())
                .find_map(|w| w.partitions(id).filter(|views| !views.is_empty()));
            if let Some(views) = held {
                return views[0].table().schema().kind_of(column).ok();
            }
            match self.log.lineage(id)? {
                Lineage::Filtered { parent, .. } => id = parent,
                _ => return None,
            }
        }
    }

    /// Run a typed sketch with automatic recovery; returns the summary and
    /// the query's traffic/latency stats.
    pub fn run<S: Sketch>(
        &self,
        dataset: DatasetId,
        sketch: S,
        opts: &QueryOptions,
    ) -> EngineResult<(S::Summary, QueryOutcome)> {
        typed::<S>(self.execute(dataset, None, &erase(sketch), opts))
    }

    /// Run a typed sketch over `dataset` narrowed by `predicate`, without
    /// deriving a dataset: the one-shot "filter + sketch" query. The
    /// predicate compiles into the sketch's block pass at every leaf (one
    /// decode per frame, zone maps pruning both stages); no membership is
    /// materialized and no dataset id is allocated.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
    pub fn run_filtered<S: Sketch>(
        &self,
        dataset: DatasetId,
        predicate: Predicate,
        sketch: S,
        opts: &QueryOptions,
    ) -> EngineResult<(S::Summary, QueryOutcome)> {
        typed::<S>(self.execute(dataset, Some(predicate), &erase(sketch), opts))
    }

    /// Erased form of [`Engine::run_filtered`]. If `dataset` is itself a
    /// pending lazy filter, its chain composes under the ad-hoc predicate.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
    pub fn run_filtered_erased(
        &self,
        dataset: DatasetId,
        predicate: Predicate,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        self.execute(dataset, Some(predicate), sketch, opts)
    }

    /// Run an erased sketch with automatic recovery. The reported duration
    /// covers the whole user-visible wait, including any lineage replays
    /// (cold reads show up here, Figure 6).
    ///
    /// Attempts are bounded by [`RetryPolicy`]; only
    /// [retryable](EngineError::is_retryable) failures are retried, and an
    /// [`QueryOptions::deadline`] spans *all* attempts, not each one. When
    /// the budget runs out, [`QueryOptions::allow_degraded`] permits one
    /// final attempt that excludes failed workers and returns the
    /// survivors' merge labelled with [`QueryOutcome::coverage`]` < 1`;
    /// otherwise the caller gets [`EngineError::RetriesExhausted`].
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
    pub fn run_erased(
        &self,
        dataset: DatasetId,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        self.execute(dataset, None, sketch, opts)
    }

    /// Every query shape: plan `dataset` (a pending lazy filter resolves
    /// to a materialized root and a predicate chain, which composes under
    /// the ad-hoc `predicate` if there is one), then run `sketch` over the
    /// root, narrowed by the fused predicate, as attempts under
    /// [`Engine::recover`]. A tree launched over a pending lazy filter is
    /// what promotes it at its next query.
    fn execute(
        &self,
        dataset: DatasetId,
        predicate: Option<Predicate>,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        let (root, chain) = self.plan_query(dataset)?;
        let fused = match (chain, predicate) {
            (Some(chain), Some(predicate)) => Some(chain.and(predicate)),
            (chain, predicate) => chain.or(predicate),
        };
        let started = Instant::now();
        let mut outcome = self.recover(opts, Some(root), |deadline, degraded| {
            let attempt = QueryOptions {
                deadline,
                // Never cache on the degraded path: per-worker shard
                // summaries of *survivors* would be sound, but a shared
                // cache key must only ever hold complete folds.
                cache: opts.cache && !degraded,
                ..opts.clone()
            };
            self.cluster
                .run_tree(root, fused.as_ref(), sketch, &attempt, degraded)
        })?;
        if !outcome.memo {
            if let Some(launched) = self.pending_filters.lock().get_mut(&dataset) {
                *launched = true;
            }
        }
        let replay_overhead = started.elapsed().saturating_sub(outcome.duration);
        outcome.first_partial = outcome.first_partial.map(|fp| fp + replay_overhead);
        outcome.duration = started.elapsed();
        Ok(outcome)
    }
}

/// The typed front of a query: its summary decoded beside its outcome.
fn typed<S: Sketch>(
    outcome: EngineResult<QueryOutcome>,
) -> EngineResult<(S::Summary, QueryOutcome)> {
    let outcome = outcome?;
    let summary = S::Summary::from_bytes(outcome.bytes.clone())?;
    Ok((summary, outcome))
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine({:?}, {} logged ops)",
            self.cluster,
            self.log.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::dataset::{FnSource, SourceRegistry};
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::udf::UdfRegistry;
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::count::CountSketch;
    use hillview_sketch::histogram::HistogramSketch;
    use hillview_sketch::BucketSpec;

    fn engine() -> Engine {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..5_000).map(|i| Some((i + w as i64 * 5_000 + snap as i64) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_sum("XX", "X", "X");
        let cluster = Cluster::new(ClusterConfig::test(), sources, udfs);
        Engine::new(cluster)
    }

    #[test]
    fn load_filter_map_pipeline() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        assert_eq!(e.cluster().dataset_rows(base), 10_000);
        let small = e.filter(base, Predicate::range("X", 0.0, 10.0)).unwrap();
        assert_eq!(e.cluster().dataset_rows(small), 1_000);
        let mapped = e.map(small, "XX", "Doubled").unwrap();
        let (sum, _) = e
            .run(
                mapped,
                CountSketch::of_column("Doubled"),
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(sum.rows, 1_000);
        assert_eq!(e.redo_log().len(), 3);
    }

    #[test]
    fn eviction_recovers_transparently() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let filtered = e.filter(base, Predicate::range("X", 0.0, 50.0)).unwrap();
        // Evict everything everywhere (cache expiry / memory pressure).
        e.cluster().evict_all();
        let (sum, _) = e
            .run(filtered, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 5_000, "replay reconstructed filter lineage");
    }

    #[test]
    fn worker_crash_recovers_transparently() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        e.cluster().worker(1).kill();
        let (sum, _) = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10_000, "restarted worker reloaded its shard");
    }

    #[test]
    fn crash_recovery_disabled_surfaces_error() {
        let mut e = engine();
        e.auto_recover = false;
        let base = e.load("nums", 0).unwrap();
        e.cluster().worker(0).kill();
        let err = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, EngineError::WorkerDown(0));
    }

    #[test]
    fn load_recovers_from_a_worker_killed_during_it() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        // Worker 1 dies at its first operation: the load itself.
        let kill = || {
            let first_op = FaultSite::WorkerOp {
                worker: 1,
                index: 0,
            };
            FaultPlan::scripted([(first_op, FaultAction::Kill)])
        };
        let rows = |e: &Engine, base| {
            let (sum, _) = e
                .run(base, CountSketch::rows(), &QueryOptions::default())
                .unwrap();
            sum.rows
        };
        let clean = engine();
        let fault_free = rows(&clean, clean.load("nums", 0).unwrap());
        let e = engine();
        e.cluster().arm_faults(kill());
        let base = e.load("nums", 0).unwrap();
        assert_eq!(rows(&e, base), fault_free, "restarted, then loaded whole");
        // Without auto-restart the worker stays dead and says so, raw.
        let mut e = engine();
        e.auto_recover = false;
        e.cluster().arm_faults(kill());
        assert_eq!(e.load("nums", 0).unwrap_err(), EngineError::WorkerDown(1));
        // A failure no retry can heal is the first attempt's own error.
        let err = engine().load("nope", 0).unwrap_err();
        assert!(matches!(err, EngineError::Unregistered(_)), "{err}");
    }

    #[test]
    fn recovery_reconverges_to_identical_results() {
        // The core §5.8 determinism claim: a replayed (sampled) query gives
        // the same bytes as before the crash because seeds are preserved.
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let sk = HistogramSketch::sampled("X", BucketSpec::numeric(0.0, 100.0, 10), 0.3);
        let opts = QueryOptions {
            seed: 1234,
            ..Default::default()
        };
        let (before, _) = e.run(base, sk.clone(), &opts).unwrap();
        e.cluster().worker(0).kill();
        let (after, _) = e.run(base, sk, &opts).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn partial_eviction_replays_only_missing_worker() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let w0_loads_before = e.cluster().worker(0).rows_loaded();
        e.cluster().worker(1).evict_all();
        let (sum, _) = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10_000);
        assert_eq!(
            e.cluster().worker(0).rows_loaded(),
            w0_loads_before,
            "healthy worker did not reload"
        );
    }

    #[test]
    fn unknown_dataset_errors() {
        let e = engine();
        let err = e
            .run(DatasetId(77), CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownDataset(DatasetId(77)));
    }

    #[test]
    fn bounded_retry_wraps_persistent_failure() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut e = engine();
        e.retry = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
        };
        let base = e.load("nums", 0).unwrap();
        // Kill worker 0 at every operation boundary, forever: recovery
        // (restart + replay) re-dies each attempt, so the budget — not an
        // unbounded loop — must end the query, with the cause preserved.
        e.cluster()
            .arm_faults(FaultPlan::scripted((0..10_000).map(|i| {
                (
                    FaultSite::WorkerOp {
                        worker: 0,
                        index: i,
                    },
                    FaultAction::Kill,
                )
            })));
        let err = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        match err {
            EngineError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.is_retryable(), "wrapped cause was transient: {last}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        // Disarm and the same engine heals transparently.
        e.cluster().disarm_faults();
        let (sum, _) = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10_000);
    }

    #[test]
    fn degraded_query_folds_survivors_with_honest_coverage() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut e = engine();
        e.retry = RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
        };
        let base = e.load("nums", 0).unwrap();
        // Worker 1 dies at every operation boundary; worker 0 is healthy.
        e.cluster()
            .arm_faults(FaultPlan::scripted((0..10_000).map(|i| {
                (
                    FaultSite::WorkerOp {
                        worker: 1,
                        index: i,
                    },
                    FaultAction::Kill,
                )
            })));
        let opts = QueryOptions {
            allow_degraded: true,
            ..Default::default()
        };
        let (sum, outcome) = e.run(base, CountSketch::rows(), &opts).unwrap();
        assert_eq!(sum.rows, 5_000, "survivor's shard only");
        assert_eq!(outcome.failed_workers, vec![1]);
        assert!(
            outcome.coverage > 0.0 && outcome.coverage < 1.0,
            "degraded result labelled: coverage={}",
            outcome.coverage
        );
        // Without the opt-in, the same schedule is an error, not a
        // silently partial answer.
        let err = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::RetriesExhausted { .. }), "{err}");
    }

    #[test]
    fn lazy_filter_fuses_first_query_then_promotes() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        // Nothing materialized: the id lives only in the redo log and the
        // pending table.
        assert!(!e.cluster().worker(0).has_dataset(lazy));
        assert_eq!(e.cluster().dataset_rows(lazy), 0);
        // First query runs fused against the parent — still no membership.
        let (sum, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 1_000);
        assert!(
            !e.cluster().worker(0).has_dataset(lazy),
            "one-shot query stayed fused"
        );
        // The second query promotes the chain to materialized membership
        // (cached two-pass reuse), with the identical result.
        let (sum2, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum2.rows, 1_000);
        assert!(
            e.cluster().worker(0).has_dataset(lazy),
            "repeat interaction materialized the membership"
        );
        assert_eq!(e.cluster().dataset_rows(lazy), 1_000);
    }

    /// A chart on a lazy filter shows the same bytes before and after the
    /// planner promotes it: the fused tree over the parent and the tree
    /// over the materialized membership split every partition at the same
    /// row boundaries, so even fractional power sums fold identically.
    #[test]
    fn lazy_filter_answers_the_same_bytes_before_and_after_promotion() {
        use hillview_columnar::column::F64Column;
        use hillview_net::Wire as _;
        use hillview_sketch::moments::MomentsSketch;
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new(
            "fractional",
            |w, _n, _mp, _snap| {
                let rows = || (0..5_000i64).map(|i| (i * 7_919 + w as i64) % 1_000);
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
            leaf_grain_rows: 256,
            ..ClusterConfig::test()
        };
        let e = Engine::new(Cluster::new(cfg, sources, UdfRegistry::new()));
        let base = e.load("fractional", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        // Uncached, or the promoted tree would be answered by the entries
        // the fused one left.
        let moments = || {
            let opts = QueryOptions {
                cache: false,
                ..Default::default()
            };
            let (summary, _) = e.run(lazy, MomentsSketch::new("F", 4), &opts).unwrap();
            summary.to_bytes()
        };
        let fused = moments();
        assert!(
            !e.cluster().worker(0).has_dataset(lazy),
            "the first query fuses"
        );
        let promoted = moments();
        assert!(
            e.cluster().worker(0).has_dataset(lazy),
            "the second query promotes the filter"
        );
        assert_eq!(fused, promoted);
    }

    #[test]
    fn lazy_filter_chain_composes_down_to_materialized_ancestor() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let a = e.filter_lazy(base, Predicate::range("X", 0.0, 50.0));
        let b = e.filter_lazy(a, Predicate::range("X", 25.0, 100.0));
        let (sum, _) = e
            .run(b, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 2_500, "AND of both links: X in [25,50)");
        assert!(!e.cluster().worker(0).has_dataset(a));
        assert!(!e.cluster().worker(0).has_dataset(b));
        // Promotion materializes the whole chain, ancestors first.
        let (sum2, _) = e
            .run(b, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum2.rows, 2_500);
        assert!(e.cluster().worker(0).has_dataset(a));
        assert!(e.cluster().worker(0).has_dataset(b));
    }

    #[test]
    fn reload_swaps_snapshot_in_place_and_invalidates_descendants() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let version = || e.cluster().worker(0).dataset_version(base);
        let v0 = version();
        let filtered = e.filter(base, Predicate::range("X", 0.0, 10.0)).unwrap();
        assert_eq!(e.cluster().dataset_rows(filtered), 1_000);
        e.reload(base, 7).unwrap();
        assert_ne!(
            version(),
            v0,
            "a new snapshot is new content, so the version must move"
        );
        assert!(
            !e.cluster().worker(0).has_dataset(filtered),
            "derived datasets built from the old snapshot must be evicted"
        );
        // The evicted descendant replays lazily against the new snapshot.
        let (sum, _) = e
            .run(filtered, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 1_000, "values stay mod 100, band still 10%");
        // Only root loads can reload.
        assert!(e.reload(filtered, 1).is_err());
        assert!(matches!(
            e.reload(DatasetId(999), 1),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn reload_refreshes_cached_selectivity_estimate() {
        // A lazy filter over a reloaded root answers the new snapshot,
        // whether the reload finds it fused or promoted. Snapshot 0 puts
        // every value inside both bands; snapshot 1 is a sorted ramp where
        // each band selects a sliver.
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("flip", |w, _n, _mp, snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options((0..5_000).map(|i| {
                        Some(if snap == 0 {
                            i % 10
                        } else {
                            i + w as i64 * 5_000
                        })
                    }))),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let cluster = Cluster::new(ClusterConfig::test(), sources, UdfRegistry::with_builtins());
        let e = Engine::new(cluster);
        let base = e.load("flip", 0).unwrap();
        let rows = |ds| {
            let opts = QueryOptions::default();
            e.run(ds, CountSketch::rows(), &opts).unwrap().0.rows
        };
        let fused = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        let promoted = e.filter_lazy(base, Predicate::range("X", 0.0, 5.0));
        assert_eq!(rows(fused), 10_000);
        assert_eq!((rows(promoted), rows(promoted)), (5_000, 5_000));
        assert!(!e.cluster().worker(0).has_dataset(fused));
        assert!(e.cluster().worker(0).has_dataset(promoted));
        e.reload(base, 1).unwrap();
        assert_eq!(rows(fused), 10, "sorted ramp: only X in [0,10) survives");
        assert_eq!(rows(promoted), 5, "replayed over the new snapshot");
    }

    #[test]
    fn one_shot_filtered_query_matches_materialized_path() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let pred = Predicate::range("X", 20.0, 40.0);
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let ops_before = e.redo_log().len();
        // Uncached: the two plans share entries, and here both compute.
        let opts = QueryOptions {
            cache: false,
            ..Default::default()
        };
        let (fused, _) = e
            .run_filtered(base, pred.clone(), sk.clone(), &opts)
            .unwrap();
        assert_eq!(e.redo_log().len(), ops_before, "no dataset derived");
        let materialized = e.filter(base, pred).unwrap();
        let (two_pass, _) = e.run(materialized, sk, &opts).unwrap();
        assert_eq!(fused, two_pass);
    }

    #[test]
    fn fused_queries_cache_under_predicate_identity() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let opts = QueryOptions::default();
        // Unfiltered and fused queries over the same sketch coexist in
        // the cache — the fused key folds the predicate's canonical
        // bytes into the dataset version, so neither poisons the other.
        let (all, _) = e.run(base, CountSketch::rows(), &opts).unwrap();
        assert_eq!(all.rows, 10_000);
        let pred = Predicate::range("X", 0.0, 10.0);
        let (sum, _) = e
            .run_filtered(base, pred.clone(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(sum.rows, 1_000);
        let (again, _) = e.run(base, CountSketch::rows(), &opts).unwrap();
        assert_eq!(again.rows, 10_000);
        // Repeating the fused query — and a canonically-equal respelling
        // of it (double negation cancels) — serves pure cache hits.
        let hits_before = e.cluster().cache_stats().hits;
        let (sum2, _) = e
            .run_filtered(base, pred.clone(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(sum2.rows, 1_000);
        let (sum3, _) = e
            .run_filtered(base, pred.not().not(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(sum3.rows, 1_000);
        assert_eq!(
            e.cluster().cache_stats().hits - hits_before,
            4,
            "two fused repeats x two workers hit the predicate-keyed entry"
        );
    }

    /// Promotion counts launched trees, not queries: a second lazy filter
    /// of the same rows is answered by the entries the first one's tree
    /// left, launches nothing, and is never materialized.
    #[test]
    fn a_re_derived_filter_the_memo_answers_is_never_materialized() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let opts = QueryOptions::default();
        let pred = || Predicate::range("X", 0.0, 10.0);
        let first = e.filter_lazy(base, pred());
        let (_, launched) = e.run(first, CountSketch::rows(), &opts).unwrap();
        assert!(!launched.memo);
        let again = e.filter_lazy(base, pred());
        for _ in 0..3 {
            let (sum, outcome) = e.run(again, CountSketch::rows(), &opts).unwrap();
            assert_eq!(sum.rows, 1_000);
            assert!(outcome.memo && outcome.root_bytes == 0);
        }
        assert!(!e.cluster().worker(0).has_dataset(again), "never launched");
    }

    /// One launched tree, of any sketch, and the next query materializes.
    #[test]
    fn a_filter_with_one_launched_tree_materializes_at_its_next_query() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let opts = QueryOptions::default();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 100.0));
        let histogram = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let (_, outcome) = e.run(lazy, histogram, &opts).unwrap();
        assert!(!outcome.memo && !e.cluster().worker(0).has_dataset(lazy));
        let (sum, _) = e.run(lazy, CountSketch::rows(), &opts).unwrap();
        assert_eq!(sum.rows, 10_000);
        for w in 0..e.cluster().num_workers() {
            assert!(e.cluster().worker(w).has_dataset(lazy), "worker {w}");
        }
    }

    #[test]
    fn fused_query_survives_worker_crash() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        e.cluster().worker(1).kill();
        let (sum, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 1_000, "restart + replay of the fused root");
    }

    #[test]
    fn snapshots_reload_identically() {
        let e = engine();
        let a = e.load("nums", 7).unwrap();
        let (s1, _) = e
            .run(
                a,
                HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 5)),
                &QueryOptions::default(),
            )
            .unwrap();
        e.cluster().evict_all();
        let (s2, _) = e
            .run(
                a,
                HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 5)),
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(s1, s2, "snapshot semantics: reload is identical");
    }
}
