//! # hillview-core
//!
//! The Hillview-RS engine: a distributed execution tree specialized to run
//! vizketches (paper §5), plus the [`Spreadsheet`] facade that maps
//! spreadsheet actions onto it.
//!
//! The cluster is simulated inside one process but keeps the
//! paper's structure and discipline:
//!
//! * **Execution trees** ([`cluster`]): a query fans out from the root to
//!   per-worker aggregation nodes and leaf micropartitions; summaries are
//!   serialized across every edge and merged upward. Nodes propagate
//!   *partially merged* results on a batching interval so the client sees
//!   progressive updates (§5.3), and queries are cancellable (§5.3). There
//!   is one tree launch ([`Cluster::run_erased`]); a worker's node and its
//!   leaf tasks share one tree context, every frame on the root link is
//!   built in one place and encoded by one codec, and the root's merge
//!   loop keeps one state with one failure transition.
//! * **Workers** ([`Cluster::worker`]): per-server thread pools executing leaf
//!   summarize calls; all state is soft (§5.7) — datasets live in a cache
//!   keyed by [`DatasetId`] and can vanish at any time. A dataset comes to
//!   exist in exactly one way: [`Cluster::derive`] applies a [`Lineage`]
//!   step — load, filter or map (§5.6) — the value the redo log holds.
//! * **Storage independence** ([`dataset`]): data enters via [`DataSource`]
//!   implementations with arbitrary horizontal partitioning (§2); a source
//!   has one `load`, and the [`LoadRequest`] it is handed always carries
//!   the calling worker's block cache.
//! * **Out-of-core storage tiers** ([`HvcDirSource`]): a directory of
//!   `hvc` part files loads *mapped* — headers only at load time, column
//!   payloads faulted in block-granular through a per-worker byte-budgeted
//!   [`BlockCache`](hillview_columnar::BlockCache)
//!   ([`ClusterConfig::block_cache_bytes`]) as scans touch them. Zone-map-skipped
//!   blocks are never read at all, so a filtered query over a dataset far
//!   larger than memory faults in only the selected band; results are
//!   bit-identical to heap-resident execution.
//!   [`Cluster::dataset_mapped_bytes`] and [`Cluster::block_cache_stats`]
//!   surface the accounting ([`Cluster::dataset_heap_bytes`] counts only
//!   owned payloads, and of a mapped dataset's dictionaries those a query
//!   has presented so far). [`HvcDirSource::new`] makes the columns
//!   zero-copy windows over the mapped files whose cold chunks are evicted
//!   past the budget; [`HvcDirSource::with_mode`] with `SegmentMode::Heap`
//!   reads every part eagerly instead.
//! * **Caches** ([`SketchCache`]): an in-memory column/data cache
//!   in front of the repository, plus a bounded per-worker LRU
//!   sketch-result cache for deterministic summaries (§5.4), keyed by
//!   structural query identity with single-flight coalescing — and at the
//!   root a memo of final folds under the same key, which answers a
//!   repeated query before any tree is launched, for as long as every
//!   worker still holds the entry it was folded from.
//! * **Fault tolerance** ([`Engine`], [`Engine::redo_log`]): the root logs every
//!   dataset-producing operation (with seeds); when a worker reports a
//!   missing dataset — eviction or restart — the root lazily replays the
//!   lineage and retries (§5.7–5.8). Dataset operations (`load` included)
//!   and queries run as attempts under the same bounded loop.
//! * **Phase-1 statistics** ([`DatasetStats`]): a loaded dataset's row count and
//!   numeric ranges were fixed when its parts were sealed; each worker
//!   folds its partitions' column statistics at load and replay, and
//!   [`Engine::stats`] answers an unfiltered count or range from them with
//!   the bytes the tree would fold, launching no tree.
//! * **Spreadsheet** ([`spreadsheet`]): the user-facing API — tabular
//!   views, scrolling, filtering, charts, heavy hitters, PCA — implemented
//!   exclusively with vizketches (§7.3: sketches are "the sole way to
//!   access data in the system").
//! * **Fault injection** ([`FaultPlan`]): a seeded, deterministic adversary
//!   for the whole tree — frame drops/duplicates/corruption/delays, leaf
//!   panics and stalls, worker kills and evictions — every decision a
//!   pure function of `(seed, epoch, site)` so failing chaos schedules
//!   replay exactly (§5.8).
//!
//! ## Failure semantics
//!
//! Every query terminates in bounded time with exactly one of three
//! outcomes — never a hang, a process abort, or a silently partial
//! answer:
//!
//! 1. **A complete result**, bit-identical to a fault-free run
//!    ([`QueryOutcome::coverage`]` == 1.0`). Transient faults (evictions,
//!    worker crashes, lost or corrupted frames, leaf panics) are healed by
//!    lineage replay and the engine's bounded [`RetryPolicy`]; §5.8
//!    determinism — logged seeds, range-ordered folds — guarantees the
//!    recovered bytes match.
//! 2. **A structured error** ([`EngineError`]): the retry budget is
//!    exhausted ([`EngineError::RetriesExhausted`] wraps the final
//!    cause), the query's [`QueryOptions::deadline`] fires
//!    ([`EngineError::DeadlineExceeded`]), or the failure is
//!    deterministic (bad column, unknown dataset) and retrying would be
//!    pointless.
//! 3. **An honestly-labelled degraded result** (opt-in via
//!    [`QueryOptions::allow_degraded`]): after the retry budget, one
//!    final tree tolerates worker failures and folds the survivors,
//!    reporting `coverage < 1.0` and the excluded
//!    [`QueryOutcome::failed_workers`].
//!
//! One loop in [`Engine`] produces all three: it retries, replays and
//! restarts within the budget (outcome 1, or outcome 2 as soon as a failure
//! is one no retry can heal), and its tail is the degraded attempt
//! (outcome 3, else outcome 2).
//!
//! The mechanisms behind this: panics are isolated at the pool thread,
//! the leaf task, the aggregation node, and the root's fan-out join
//! (surfacing as retryable [`EngineError::LeafPanicked`], with every
//! piece's work reported once so lost completions are detected); root-link frames
//! carry checksums so corruption is dropped, duplicated finals are
//! guarded, and re-sends come from the batching loop; aggregation nodes
//! heartbeat every batch tick so the root's per-worker liveness sweep
//! ([`ClusterConfig::worker_timeout`]) converts silence into
//! [`EngineError::WorkerDown`] instead of waiting forever; and the
//! computation cache only ever stores complete, uncancelled folds.
//! The chaos suite (`crates/core/tests/chaos.rs`) drives seeded fault
//! schedules across sketch × fault-class grids to enforce exactly this
//! trichotomy.
//!
//! ## Fused filtered-query planning and the sketch-result cache
//!
//! [`Engine::filter_lazy`] records a filter's lineage without touching
//! the cluster; each query against the lazy dataset takes one of two plans
//! by one rule:
//!
//! 1. **Fused** — until a tree has launched over the filter, ship the
//!    AND-composed predicate chain down the tree; every leaf passes it in
//!    the sketch's `Scope` (predicate and kernel in one block pass, no
//!    membership set materialized — see the `hillview-columnar` crate
//!    docs, "Query execution pipeline"). The first tree pays at most the
//!    one full pass materializing would.
//! 2. **Materialize, then reuse** — the next query promotes the chain
//!    ancestors-first into cached membership sets, and the classic
//!    two-pass path takes over: each later tree reads only the selected
//!    rows. A query the root's memo answers launches nothing and does not
//!    count, so a chart only re-drawn never pays for a membership. Once an
//!    ancestor is materialized, later lazy chains compose only the
//!    unmaterialized suffix on top of it.
//!
//! [`Engine::run_filtered`] exposes the one-shot (always-fused) form
//! directly. A partition splits by its row span, never by its membership
//! — filtering narrows rows, never renumbers them — so fused and
//! materialized trees fold the same pieces in the same order, and both are
//! deterministic across thread counts.
//!
//! Deterministic summaries land in a per-worker, byte-bounded LRU
//! [`SketchCache`] (§5.4) under a *structural* key that names the rows a
//! summary was folded from, not the dataset id that asked: the
//! lineage-derived content version — a load's source, snapshot and id; for fused
//! trees, the parent version with the predicate's canonical bytes folded
//! in, exactly as materializing the filter would — crossed with the
//! sketch's 128-bit parameter identity. Canonically-equal predicate
//! respellings (AND-operand order, double negation) therefore share
//! entries, and so do the fused and the two-pass plan of one filter: a
//! promotion keeps every entry its fused trees cached. A multi-link chain
//! is the exception: it versions link by link, so its fused conjunction
//! and its materialized chain keep entries of their own. Evicting a
//! dataset leaves its entries to the LRU; they are facts about immutable
//! content. Identical in-flight queries coalesce onto one scan
//! (single-flight); degraded, cancelled, or failed trees abandon their
//! flight without writing, so the cache only ever stores complete,
//! uncancelled folds. The root memoizes the final fold of such a tree
//! under the workers' keys folded together ([`cluster`], "A chart already
//! drawn costs no tree"): concurrent identical queries coalesce there
//! first — one tree, not one per query — and a repeated one launches none.
//! Counters are surfaced via [`Cluster::cache_stats`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]
// Non-test code returns structured errors: a panic site must be an
// `#[expect(..., reason = "...")]` that says why it is sound.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub(crate) mod cache;
pub mod cluster;
pub mod dataset;
pub(crate) mod engine;
pub mod erased;
pub mod error;
pub(crate) mod fault;
mod msg;
pub(crate) mod pool;
pub mod progress;
pub(crate) mod redo;
pub mod spreadsheet;
pub(crate) mod stats;
pub(crate) mod worker;

pub use cache::{CacheKey, CacheStats, SketchCache};
pub use cluster::{Cluster, ClusterConfig, QueryOptions, QueryOutcome};
pub use dataset::{
    DataSource, DatasetId, FnSource, HvcDirSource, Lineage, LoadRequest, SourceSpec,
};
pub use engine::{Engine, RetryPolicy};
pub use error::{EngineError, EngineResult};
pub use fault::{FaultAction, FaultPlan, FaultSite, FaultSpec};
pub use progress::CancellationToken;
pub use spreadsheet::{OpStats, Spreadsheet};
pub use stats::DatasetStats;
