//! Property tests for the sketch-result cache, both levels of it: each
//! worker's entries and the root's memo over them.
//!
//! The contract under test: a cache **hit is bit-identical to the
//! computation it replaced** — across integer encodings (plain /
//! bit-packed / run-length / delta), membership representations (fused
//! full-membership scan vs. materialized narrowed membership), and simd
//! modes (an entry computed with the vector kernels must serve a query
//! running the scalar fallbacks, and vice versa). Each case runs every
//! query shape three ways: uncached reference, cold miss (populates the
//! cache, possibly under the *other* simd mode), and warm hit; all three
//! summaries must agree byte-for-byte, and the counters must prove the
//! hit actually came from the cache — from the root's memo, with nothing
//! on the root link, credited at every worker. An entry names the rows it
//! summarizes, so the materialized filter's first tree is answered by the
//! fused tree's entries, at the memo and at every worker.
//!
//! The tests below the property pin the memo's own contract: it answers
//! only while every worker still holds the entry it was folded from, so
//! dropping one — by hand, by eviction, by a crash, by the LRU — makes the
//! next query launch its tree, and recovery is reached as if there were no
//! memo; and what must not be memoized (degraded, uncached, sampled) is not.

use bytes::Bytes;
use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{simd, ColumnKind, I64Storage, NullMask, Predicate, SortOrder, Table};
use hillview_core::cluster::ClusterConfig;
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::{erase, ErasedSketch};
use hillview_core::{
    CacheKey, Cluster, DatasetId, Engine, EngineResult, FaultAction, FaultPlan, FaultSite,
    FnSource, Lineage, QueryOptions, QueryOutcome, SourceSpec,
};
use hillview_sketch::count::CountSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::quantile::QuantileSketch;
use hillview_sketch::{BucketSpec, Scope, TableView};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Force one of the representable storages for `data`: every variant that
/// can hold the values, indexed stably so proptest shrinks meaningfully.
fn storage_for(enc: usize, data: &[i64]) -> I64Storage {
    let mut variants = vec![
        I64Storage::plain_of(data.to_vec()),
        I64Storage::encode(data.to_vec()),
    ];
    variants.extend(I64Storage::bit_packed_of(data));
    variants.extend(I64Storage::run_length_of(data));
    variants.extend(I64Storage::delta_of(data));
    variants.extend(I64Storage::exceptions_of(data));
    let pick = enc % variants.len();
    variants.swap_remove(pick)
}

/// A 2-worker cluster whose source shards `values` per worker (rotated so
/// the workers differ) with the chosen storage encoding, split into two
/// partitions per worker.
fn cluster_with(enc: usize, values: Arc<Vec<i64>>, null_p: u32) -> Arc<Cluster> {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new(
        "props",
        move |w, _n, _mp, _snap| {
            let n = values.len();
            let shard: Vec<i64> = (0..n)
                .map(|i| values[(i + w * 17) % n].wrapping_add(w as i64))
                .collect();
            let mid = n / 2;
            let mut parts = Vec::new();
            for chunk in [&shard[..mid], &shard[mid..]] {
                if chunk.is_empty() {
                    continue;
                }
                let nulls = NullMask::from_flags(
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v.unsigned_abs() ^ i as u64) % 100 < u64::from(null_p)),
                    chunk.len(),
                );
                let t = Table::builder()
                    .column(
                        "X",
                        ColumnKind::Int,
                        Column::Int(I64Column::with_storage(storage_for(enc, chunk), nulls)),
                    )
                    .build()
                    .unwrap();
                parts.push(t);
            }
            Ok(parts)
        },
    )));
    Cluster::new(ClusterConfig::test(), sources, UdfRegistry::with_builtins())
}

fn load(c: &Arc<Cluster>) -> DatasetId {
    let ds = DatasetId(1);
    let spec = SourceSpec {
        source: Arc::from("props"),
        snapshot: 0,
    };
    c.derive(ds, &Lineage::Loaded { spec }, None).unwrap();
    ds
}

/// Run one query shape (fused or two-pass) under the reference/miss/hit
/// triple and assert bit-identity plus real cache traffic.
fn assert_hit_equals_miss(
    c: &Arc<Cluster>,
    ds: DatasetId,
    filter: Option<&Predicate>,
    sk: &Arc<dyn ErasedSketch>,
    scalar_first: bool,
    ctx: &str,
) {
    let uncached = QueryOptions {
        cache: false,
        ..Default::default()
    };
    let cached = QueryOptions::default();

    simd::set_force_scalar(scalar_first);
    let reference = c.run_erased(ds, filter, sk, &uncached).unwrap();

    // Cold miss under the *other* simd mode: whatever lands in the cache
    // was computed by the other kernel path.
    simd::set_force_scalar(!scalar_first);
    let misses_before = c.cache_stats().misses;
    let cold = c.run_erased(ds, filter, sk, &cached).unwrap();
    let after_cold = c.cache_stats();
    assert!(
        after_cold.misses > misses_before,
        "{ctx}: cold run never consulted the cache"
    );

    // Warm hit back under the first mode.
    simd::set_force_scalar(scalar_first);
    let hits_before = after_cold.hits;
    let warm = c.run_erased(ds, filter, sk, &cached).unwrap();
    let hits_after = c.cache_stats().hits;
    simd::set_force_scalar(false);

    assert!(cold.root_messages > 0 && !cold.memo, "{ctx}: cold run");
    assert!(
        warm.memo && warm.root_messages == 0 && warm.root_bytes == 0,
        "{ctx}: warm run launched a tree ({} frames)",
        warm.root_messages
    );

    assert_eq!(
        reference.bytes, cold.bytes,
        "{ctx}: cached computation diverged from uncached reference"
    );
    assert_eq!(
        cold.bytes, warm.bytes,
        "{ctx}: cache hit served different bytes than the miss stored"
    );
    assert_eq!(
        hits_after - hits_before,
        c.num_workers() as u64,
        "{ctx}: warm run was not served from every worker's cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hit ≡ miss ≡ uncached, for a float-fold-sensitive sketch (moments),
    /// a bucketed histogram, and a rate-1 quantile whose worker summaries
    /// are compacted before they are cached or sent, over both the fused
    /// and the materialized two-pass membership representation.
    #[test]
    fn cache_hit_is_bit_identical_to_recomputation(
        values in proptest::collection::vec(-400i64..400, 64..1600),
        enc in 0usize..7,
        null_p in 0u32..30,
        lo in -300.0f64..300.0,
        span in 1.0f64..400.0,
        scalar_first in any::<bool>(),
    ) {
        let c = cluster_with(enc, Arc::new(values), null_p);
        let ds = load(&c);
        let pred = Predicate::range("X", lo, lo + span);
        let sketches: Vec<Arc<dyn ErasedSketch>> = vec![
            erase(MomentsSketch::new("X", 4)),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(-450.0, 450.0, 13),
            )),
            erase(QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 100_000, 16)),
        ];

        // Materialized membership for the two-pass representation.
        let narrowed = DatasetId(2);
        let step = Lineage::Filtered {
            parent: ds,
            predicate: pred.clone(),
        };
        c.derive(narrowed, &step, None).unwrap();

        for sk in &sketches {
            assert_hit_equals_miss(
                &c, ds, None, sk, scalar_first,
                &format!("{} full", sk.name()),
            );
            assert_hit_equals_miss(
                &c, ds, Some(&pred), sk, scalar_first,
                &format!("{} fused", sk.name()),
            );
            assert_plans_share(&c, narrowed, sk, &format!("{} two-pass", sk.name()));
        }
    }
}

/// The materialized filter's tree over entries the fused tree left: the
/// uncached two-pass computation is their bytes, the memo answers with
/// nothing on the root link, and with the memo cleared every worker hits.
fn assert_plans_share(
    c: &Arc<Cluster>,
    narrowed: DatasetId,
    sk: &Arc<dyn ErasedSketch>,
    ctx: &str,
) {
    let uncached = QueryOptions {
        cache: false,
        ..Default::default()
    };
    let cached = QueryOptions::default();
    let reference = c.run_erased(narrowed, None, sk, &uncached).unwrap();
    let shared = c.run_erased(narrowed, None, sk, &cached).unwrap();
    assert!(
        shared.memo && shared.root_bytes == 0,
        "{ctx}: the fused tree's memo entry did not answer"
    );
    assert_eq!(reference.bytes, shared.bytes, "{ctx}: shared entry");
    c.memo().clear();
    let before = c.cache_stats();
    let tree = c.run_erased(narrowed, None, sk, &cached).unwrap();
    let after = c.cache_stats();
    assert!(!tree.memo && tree.root_messages > 0, "{ctx}: memo cleared");
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (c.num_workers() as u64, 0),
        "{ctx}: every worker holds the fused tree's entry"
    );
    assert_eq!(reference.bytes, tree.bytes, "{ctx}: tree of hits");
}

/// An engine over two workers, 4 000 rows each in four partitions; the
/// snapshot shifts the values.
fn engine_with_budget(cache_budget_bytes: usize) -> Engine {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new("memo", |w, _n, _mp, snap| {
        let x = (0..4_000i64).map(|i| Some((i * 7 + w as i64 * 13) % 50 + 10 * snap as i64));
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(x)),
            )
            .build()
            .unwrap();
        Ok(vec![t])
    })));
    let cfg = ClusterConfig {
        cache_budget_bytes,
        ..ClusterConfig::test()
    };
    Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()))
}

fn engine() -> Engine {
    engine_with_budget(ClusterConfig::test().cache_budget_bytes)
}

fn histogram() -> Arc<dyn ErasedSketch> {
    erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, 100.0, 10),
    ))
}

/// One plain query through the engine, caches on.
fn ask(e: &Engine, ds: DatasetId, sk: &Arc<dyn ErasedSketch>) -> QueryOutcome {
    e.run_erased(ds, sk, &QueryOptions::default()).unwrap()
}

/// Dropping any one worker's entry — by hand, with everything, with the
/// worker itself, or to the LRU — makes the next identical query launch
/// its tree and compute the same bytes; and where the dataset went, the
/// missing-dataset replay is reached, not masked. Evicting the dataset
/// alone keeps the entries, facts about its content: the tree launched to
/// find the eviction replays it, and the retry is the memo's answer.
#[test]
fn memo_answers_only_while_every_worker_holds_its_entry() {
    type Drop = fn(&Engine, DatasetId);
    // What is dropped, whether the dataset is replayed, and whether the
    // entries went with it.
    let drops: [(&str, bool, bool, Drop); 5] = [
        ("clear one worker's cache", false, true, |e, _| {
            e.cluster().worker(1).cache().clear()
        }),
        ("evict on one worker", true, false, |e, ds| {
            e.cluster().worker(0).evict(ds)
        }),
        ("evict_all", true, true, |e, _| e.cluster().evict_all()),
        ("kill and restart", true, true, |e, _| {
            e.cluster().worker(1).kill();
            e.cluster().worker(1).restart();
        }),
        ("LRU eviction", false, true, |e, _| {
            // One entry more than worker 0's budget holds.
            let filler = CacheKey {
                version: 0,
                query: [0, 0],
            };
            let cache = e.cluster().worker(0).cache();
            cache.insert(filler, Bytes::from(vec![0u8; 150]));
            assert_eq!(cache.stats().evictions, 1, "the filler evicted the entry");
        }),
    ];
    for (what, replays, drops_entries, drop_entry) in drops {
        // 256 bytes hold one histogram entry (64 of overhead) and no more.
        let e = engine_with_budget(256);
        let ds = e.load("memo", 0).unwrap();
        let sk = histogram();
        let first = ask(&e, ds, &sk);
        let again = ask(&e, ds, &sk);
        assert!(first.root_messages > 0, "{what}: first run");
        assert!(again.memo && again.root_messages == 0, "{what}: repeat");
        assert_eq!(first.bytes, again.bytes, "{what}");

        drop_entry(&e, ds);
        let loaded_before =
            e.cluster().worker(0).rows_loaded() + e.cluster().worker(1).rows_loaded();
        let after = ask(&e, ds, &sk);
        let loaded = e.cluster().worker(0).rows_loaded() + e.cluster().worker(1).rows_loaded();
        assert_eq!(
            !after.memo && after.root_messages > 0,
            drops_entries,
            "{what}: the memo outlived a worker's entry, or forgot a held one"
        );
        assert_eq!(after.bytes, first.bytes, "{what}");
        assert_eq!(after.coverage, 1.0, "{what}");
        assert_eq!(loaded > loaded_before, replays, "{what}: lineage replay");
        // Recomputed and held everywhere again: the memo answers again.
        assert!(ask(&e, ds, &sk).memo, "{what}: after the recompute");
    }
}

/// A lazy filter's first tree runs fused and its next query promotes it,
/// and the promoted filter is answered by what the fused tree cached: by
/// the memo with nothing on the root link, and with the memo cleared, by
/// every worker. A one-shot fused query after an eager filter of the same
/// rows shares that filter's entries the same way.
#[test]
fn fused_and_materialized_filters_share_one_entry() {
    let e = engine();
    let ds = e.load("memo", 0).unwrap();
    let sk = histogram();
    let workers = e.cluster().num_workers() as u64;
    let hits = || e.cluster().cache_stats().hits;
    let lazy = e.filter_lazy(ds, Predicate::range("X", 10.0, 40.0));
    let fused = ask(&e, lazy, &sk);
    assert!(!fused.memo && !e.cluster().worker(0).has_dataset(lazy));
    let promoted = ask(&e, lazy, &sk);
    assert!(e.cluster().worker(0).has_dataset(lazy), "promoted");
    assert!(promoted.memo && promoted.root_bytes == 0, "memo answer");
    assert_eq!(promoted.bytes, fused.bytes);
    e.cluster().memo().clear();
    let before = hits();
    let tree = ask(&e, lazy, &sk);
    assert!(
        !tree.memo && hits() - before == workers,
        "every worker hits"
    );
    assert_eq!(tree.bytes, fused.bytes);

    let band = || Predicate::range("X", 20.0, 30.0);
    let one_shot = || {
        let opts = QueryOptions::default();
        e.run_filtered_erased(ds, band(), &sk, &opts).unwrap()
    };
    let eager = e.filter(ds, band()).unwrap();
    let two_pass = ask(&e, eager, &sk);
    assert!(!two_pass.memo);
    let shared = one_shot();
    assert!(shared.memo && shared.root_bytes == 0, "memo answer");
    assert_eq!(shared.bytes, two_pass.bytes);
    e.cluster().memo().clear();
    let before = hits();
    let tree = one_shot();
    assert!(
        !tree.memo && hits() - before == workers,
        "every worker hits"
    );
    assert_eq!(tree.bytes, two_pass.bytes);
}

/// Two loads of one source and snapshot are two datasets: a load's version
/// folds in its id, so neither is answered from the other's entries — a
/// plain or a fused tree.
#[test]
fn two_loads_of_one_snapshot_never_share_an_entry() {
    let e = engine();
    let (a, b) = (e.load("memo", 0).unwrap(), e.load("memo", 0).unwrap());
    let sk = histogram();
    let pred = Predicate::range("X", 10.0, 40.0);
    let fused = |ds| {
        let opts = QueryOptions::default();
        e.run_filtered_erased(ds, pred.clone(), &sk, &opts).unwrap()
    };
    let (plain_a, fused_a) = (ask(&e, a, &sk), fused(a));
    let (plain_b, fused_b) = (ask(&e, b, &sk), fused(b));
    for o in [&plain_a, &fused_a, &plain_b, &fused_b] {
        assert!(!o.memo && o.root_messages > 0);
    }
    let s = e.cluster().cache_stats();
    assert_eq!((s.hits, s.misses), (0, 8), "every tree computed");
    assert_eq!(plain_a.bytes, plain_b.bytes, "the same content");
    assert_eq!(fused_a.bytes, fused_b.bytes, "the same content");
}

/// A reload under the same id is new content under a new version: the memo
/// misses, the tree computes the new bytes, and going back finds the old.
#[test]
fn reload_at_a_new_snapshot_misses_the_memo() {
    let e = engine();
    let ds = e.load("memo", 0).unwrap();
    let sk = histogram();
    let old = ask(&e, ds, &sk);
    assert!(ask(&e, ds, &sk).memo);
    e.reload(ds, 3).unwrap();
    let new = ask(&e, ds, &sk);
    assert!(!new.memo && new.root_messages > 0, "new snapshot, new key");
    assert_ne!(new.bytes, old.bytes, "the snapshot shifts every value");
    assert!(ask(&e, ds, &sk).memo);
    e.reload(ds, 0).unwrap();
    assert_eq!(ask(&e, ds, &sk).bytes, old.bytes);
}

/// A degraded result is neither stored nor served: with one worker
/// persistently killed the opted-in query is a labelled partial, and the
/// healthy identical query after it computes the complete answer.
#[test]
fn degraded_result_is_neither_memoized_nor_served_from_the_memo() {
    let mut e = engine();
    e.retry.attempts = 2;
    let ds = e.load("memo", 0).unwrap();
    let sk = histogram();
    let complete = ask(&e, ds, &sk);
    assert!(ask(&e, ds, &sk).memo);

    e.cluster()
        .arm_faults(FaultPlan::scripted((0..10_000).map(|index| {
            let site = FaultSite::WorkerOp { worker: 1, index };
            (site, FaultAction::Kill)
        })));
    let opts = QueryOptions {
        allow_degraded: true,
        ..Default::default()
    };
    let degraded = e.run_erased(ds, &sk, &opts).unwrap();
    assert!(
        !degraded.memo,
        "the probe is a fault boundary: worker 1 died at it"
    );
    assert!(degraded.coverage < 1.0 && degraded.failed_workers == vec![1]);
    assert_ne!(degraded.bytes, complete.bytes);

    e.cluster().disarm_faults();
    let healed = ask(&e, ds, &sk);
    assert!(!healed.memo && healed.root_messages > 0, "nothing to serve");
    assert_eq!(healed.coverage, 1.0);
    assert_eq!(healed.bytes, complete.bytes);
}

/// `cache: false` neither reads nor writes the memo, and a sampled sketch —
/// no cache identity — never reaches it.
#[test]
fn uncached_and_sampled_queries_bypass_the_memo() {
    let e = engine();
    let ds = e.load("memo", 0).unwrap();
    let sk = histogram();
    let uncached = QueryOptions {
        cache: false,
        ..Default::default()
    };
    for _ in 0..2 {
        let o = e.run_erased(ds, &sk, &uncached).unwrap();
        assert!(!o.memo && o.root_messages > 0, "uncached");
    }
    assert!(!ask(&e, ds, &sk).memo, "the uncached runs wrote nothing");
    assert!(ask(&e, ds, &sk).memo);
    let o = e.run_erased(ds, &sk, &uncached).unwrap();
    assert!(!o.memo && o.root_messages > 0, "uncached reads nothing");
    assert_eq!(
        e.cluster().cache_stats().entries,
        3,
        "two workers and the root"
    );

    let sampled = erase(HistogramSketch::sampled(
        "X",
        BucketSpec::numeric(0.0, 100.0, 10),
        0.5,
    ));
    let runs: Vec<_> = (0..3).map(|_| ask(&e, ds, &sampled)).collect();
    assert!(runs.iter().all(|o| !o.memo && o.root_messages > 0));
    assert_eq!(runs[0].bytes, runs[1].bytes, "same seed, same sample");
    assert_eq!(e.cluster().cache_stats().entries, 3);
}

/// The hit and miss counters read what they read before there was a memo —
/// a memo-answered query is one hit at every worker, and a query that
/// launches counts nothing twice — for a sequence that takes every path:
/// miss, memo hit, fused, a respelled predicate, a dropped entry.
#[test]
fn hit_and_miss_counters_are_those_of_a_cluster_without_a_memo() {
    let e = engine();
    let ds = e.load("memo", 0).unwrap();
    let (hist, count) = (histogram(), erase(CountSketch::rows()));
    let pred = Predicate::range("X", 10.0, 60.0);
    let respelled = pred.clone().and(Predicate::True);
    let fused = |p: &Predicate, sk| {
        let opts = QueryOptions::default();
        e.run_filtered_erased(ds, p.clone(), sk, &opts).unwrap()
    };
    let counters = || {
        let s = e.cluster().cache_stats();
        (s.hits, s.misses)
    };
    ask(&e, ds, &hist);
    assert_eq!(counters(), (0, 2));
    ask(&e, ds, &hist);
    assert_eq!(counters(), (2, 2));
    fused(&pred, &hist);
    assert_eq!(counters(), (2, 4));
    ask(&e, ds, &count);
    assert_eq!(counters(), (2, 6));
    assert!(
        fused(&respelled, &hist).memo,
        "one canonical predicate, one key"
    );
    assert_eq!(counters(), (4, 6));
    ask(&e, ds, &hist);
    assert_eq!(counters(), (6, 6));
    e.cluster().worker(0).cache().clear();
    ask(&e, ds, &hist);
    assert_eq!(counters(), (7, 7), "worker 1 hit, worker 0 recomputed");
    ask(&e, ds, &count);
    assert_eq!(counters(), (8, 8));
    ask(&e, ds, &hist);
    ask(&e, ds, &count);
    assert_eq!(counters(), (12, 8));
    let stats = e.cluster().cache_stats();
    assert_eq!(stats.insertions, 8, "the workers' own");
    // Three queries at worker 1 and the root; worker 0 lost the fused one.
    assert_eq!(stats.entries, 2 + 3 + 3);
    assert_eq!(stats.coalesced, 0);
}

/// Counts the queries that asked for its identity — each then a step from
/// the memo's door — and holds every leaf until all `expect` have.
struct HeldUntilAllAsk {
    inner: Arc<dyn ErasedSketch>,
    expect: u64,
    asked: AtomicU64,
}

impl ErasedSketch for HeldUntilAllAsk {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn summarize_bytes(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> EngineResult<Bytes> {
        while self.asked.load(Ordering::SeqCst) < self.expect {
            std::thread::yield_now();
        }
        // The last to ask is a key fold and a map probe from the memo.
        std::thread::sleep(Duration::from_millis(5));
        self.inner.summarize_bytes(view, scope, seed)
    }
    fn fold_bytes(&self, parts: &[Bytes]) -> EngineResult<Bytes> {
        self.inner.fold_bytes(parts)
    }
    fn identity_bytes(&self) -> Bytes {
        self.inner.identity_bytes()
    }
    fn cache_identity(&self) -> Option<Vec<u8>> {
        self.asked.fetch_add(1, Ordering::SeqCst);
        self.inner.cache_identity()
    }
}

/// Eight analysts open one chart on cold caches: one tree, not eight — the
/// other seven wait on its flight at the root and are answered by the memo.
#[test]
fn concurrent_identical_queries_on_cold_caches_launch_one_tree() {
    const ANALYSTS: u64 = 8;
    let e = engine();
    let ds = e.load("memo", 0).unwrap();
    let sk: Arc<dyn ErasedSketch> = Arc::new(HeldUntilAllAsk {
        inner: histogram(),
        expect: ANALYSTS,
        asked: AtomicU64::new(0),
    });
    let outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ANALYSTS)
            .map(|_| scope.spawn(|| ask(&e, ds, &sk)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(outcomes.iter().all(|o| o.bytes == outcomes[0].bytes));
    assert_eq!(outcomes.iter().filter(|o| !o.memo).count(), 1, "one leader");
    // One tree's leaf tasks: four partitions on each of two workers.
    let c = e.cluster();
    let leaves: u64 = (0..2).map(|w| c.worker(w).leaf_tasks_executed()).sum();
    assert_eq!(leaves, 8);
    let stats = c.cache_stats();
    assert_eq!(stats.coalesced, ANALYSTS - 1, "{stats:?}");
    // One scan per worker; every other query is a hit it was spared.
    assert_eq!((stats.insertions, stats.misses), (2, 2), "{stats:?}");
    assert_eq!(stats.hits, 2 * (ANALYSTS - 1), "{stats:?}");
}
