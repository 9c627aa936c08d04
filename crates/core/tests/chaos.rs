//! Chaos suite: seeded fault schedules across a sketch × fault-class grid.
//!
//! This is the enforcement arm of the crate's failure-semantics contract
//! (see `hillview_core` crate docs): under an armed [`FaultPlan`] every
//! query must terminate in bounded time with exactly one of
//!
//! 1. a complete result, bit-identical to the fault-free baseline
//!    (`coverage == 1.0`);
//! 2. a structured [`EngineError`] — never a hang, a panic that escapes
//!    the engine, or a process abort;
//! 3. an honestly-labelled degraded result (`coverage < 1.0` with
//!    non-empty `failed_workers`), and only when the caller opted in.
//!
//! Afterwards the *same* engine — faults disarmed — must heal completely:
//! a re-run with the same cache key returns bytes bit-identical to the
//! clean baseline, proving no partial summary polluted the computation
//! cache — the root's memo, or a worker's entries under it.
//!
//! The clean baselines fill both levels of that cache, and a query the
//! root's memo answers consults one fault site per worker (the probe) and
//! no leaf or frame. So each seed's plan meets the grid twice: once with
//! the caches as the baselines left them, once with every worker's cache
//! cleared so each tree launches and computes; which comes first alternates
//! with the seed.
//!
//! The schedule is a pure function of the plan seed (§5.8 determinism),
//! so every assertion message carries the seed: re-run with
//! `CHAOS_SEED_BASE=<seed> CHAOS_SEEDS=1` to replay a failure exactly.
//! CI sets `CHAOS_SEEDS=64`; the local default keeps the suite quick.
//!
//! The grid runs over in-memory shards; over spilled `hvc` parts opened
//! lazily under a 4 KiB block cache, where the bytes a leaf scans are
//! faulted and evicted while the adversary is at work; fused under a
//! one-shot predicate; and on a lazy filter, whose promotion to a
//! materialized membership happens under the armed plan.

use bytes::Bytes;
use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, SegmentMode, Table, TempDir};
use hillview_core::cluster::ClusterConfig;
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::{erase, ErasedSketch};
use hillview_core::{
    Cluster, Engine, EngineError, EngineResult, FaultPlan, FaultSpec, FnSource, HvcDirSource,
    QueryOptions, QueryOutcome, RetryPolicy,
};
use hillview_sketch::count::CountSketch;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::BucketSpec;
use hillview_storage::SpillingWriter;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS_PER_WORKER: i64 = 2_000;

/// A fresh 2-worker engine over a deterministic integer shard per worker,
/// with a tight retry budget so even pathological schedules stay fast.
fn chaos_engine() -> Engine {
    chaos_engine_with_cache_budget(ClusterConfig::test().cache_budget_bytes)
}

/// Same fixture with an explicit sketch-cache budget, for churn tests that
/// need evictions to actually happen.
fn chaos_engine_with_cache_budget(cache_budget_bytes: usize) -> Engine {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new("chaos", |w, _n, _mp, snap| {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(
                    (0..ROWS_PER_WORKER).map(|i| Some((i * 7 + w as i64 * 13 + snap as i64) % 100)),
                )),
            )
            .build()
            .unwrap();
        Ok(vec![t])
    })));
    let mut cfg = ClusterConfig::test();
    cfg.cache_budget_bytes = cache_budget_bytes;
    let cluster = Cluster::new(cfg, sources, UdfRegistry::with_builtins());
    let mut engine = Engine::new(cluster);
    engine.retry = chaos_retry();
    engine
}

/// A tight retry budget, so even pathological schedules stay fast.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(5),
    }
}

/// The sketch grid: one representative per summary shape (scalar count,
/// bucketed histogram, bounded-size heavy hitters, numeric moments).
fn sketch_grid() -> Vec<(&'static str, Arc<dyn ErasedSketch>)> {
    vec![
        ("count", erase(CountSketch::rows())),
        (
            "histogram",
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
        ),
        ("misra-gries", erase(MisraGriesSketch::new("X", 8))),
        ("moments", erase(MomentsSketch::new("X", 4))),
    ]
}

fn seed_range() -> impl Iterator<Item = u64> {
    let base: u64 = std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let count: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    (0..count).map(move |i| base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Outcome tallies across a whole grid, printed for CI triage and used to
/// assert the adversary is not a silent no-op.
#[derive(Default)]
struct Tally {
    complete: u32,
    degraded: u32,
    errored: u32,
    /// Seeds under which at least one fault fired.
    fired: u32,
}

/// Fault-free answers of the sketch grid.
fn clean_baselines(run: Query<'_>) -> Vec<Bytes> {
    sketch_grid()
        .iter()
        .map(|(name, sk)| {
            let opts = QueryOptions {
                seed: 42,
                ..Default::default()
            };
            let outcome =
                run(sk, &opts).unwrap_or_else(|e| panic!("clean baseline {name} failed: {e}"));
            outcome.bytes
        })
        .collect()
}

/// One query of the grid, plain or fused, through the engine.
type Query<'a> = &'a dyn Fn(&Arc<dyn ErasedSketch>, &QueryOptions) -> EngineResult<QueryOutcome>;

/// Arm the plan `plan_seed` draws and put the sketch grid through it twice,
/// memo-guarded and launching — each query complete and equal to its
/// baseline, a structured error, or degraded with opt-in — then disarm and
/// hold the healed engine to the baselines bit for bit.
fn chaos_then_heal(
    engine: &Engine,
    run: Query<'_>,
    baselines: &[Bytes],
    (nth, plan_seed): (usize, u64),
    tally: &mut Tally,
) {
    // Hard per-query wall-clock bound: worker_timeout (500ms in the test
    // config) × 4 attempts plus stalls and backoffs sits well under this.
    const QUERY_BOUND: Duration = Duration::from_secs(30);
    let grid = sketch_grid();
    let cluster = engine.cluster();
    let forget = |w: usize| cluster.worker(w).cache().clear();
    cluster.arm_faults(FaultPlan::seeded(plan_seed, FaultSpec::chaos()));
    for round in 0..2 {
        if (nth + round) % 2 == 1 {
            (0..cluster.num_workers()).for_each(forget);
        }
        for (i, (name, sk)) in grid.iter().enumerate() {
            // Alternate the degradation opt-in across the grid so both
            // the strict and the tolerant contract get exercised.
            let allow_degraded = (nth + round + i) % 2 == 0;
            let opts = QueryOptions {
                seed: 42,
                deadline: Some(Duration::from_secs(20)),
                allow_degraded,
                ..Default::default()
            };
            let started = Instant::now();
            let result = run(sk, &opts);
            let elapsed = started.elapsed();
            assert!(
                elapsed < QUERY_BOUND,
                "seed {plan_seed:#x} sketch {name}: query took {elapsed:?} — not bounded"
            );
            match result {
                Ok(outcome) if outcome.coverage >= 1.0 => {
                    tally.complete += 1;
                    assert_eq!(
                        outcome.bytes, baselines[i],
                        "seed {plan_seed:#x} sketch {name}: complete result diverged from \
                         fault-free baseline"
                    );
                    assert!(
                        outcome.failed_workers.is_empty(),
                        "seed {plan_seed:#x} sketch {name}: full coverage but failed \
                         workers {:?}",
                        outcome.failed_workers
                    );
                }
                Ok(outcome) => {
                    tally.degraded += 1;
                    assert!(
                        allow_degraded,
                        "seed {plan_seed:#x} sketch {name}: degraded result \
                         (coverage {}) without opt-in",
                        outcome.coverage
                    );
                    assert!(
                        !outcome.failed_workers.is_empty(),
                        "seed {plan_seed:#x} sketch {name}: coverage {} < 1 but no \
                         failed workers named",
                        outcome.coverage
                    );
                    assert!(
                        outcome.coverage > 0.0,
                        "seed {plan_seed:#x} sketch {name}: zero-coverage result \
                         should have been an error"
                    );
                }
                // Any structured error is within contract; specific
                // classes are pinned by unit tests. What must never
                // happen — hangs, escaped panics, aborts — fails the
                // bound above or the harness itself.
                Err(_e) => tally.errored += 1,
            }
        }
    }
    tally.fired += cluster
        .fault_plan()
        .map_or(0, |p| u32::from(p.faults_fired() > 0));

    // Heal: disarm and re-run the grid. The cache keys every query
    // structurally, so the healed re-runs address the very entries
    // the chaos runs would have written. Whatever the chaos run did —
    // succeeded (cache holds complete folds), failed (cache must hold
    // nothing) — the healed engine must reconverge to the clean
    // baseline bit-for-bit. The first pass reads the root's memo wherever
    // every worker still holds its entry; with the memo alone cleared, the
    // second launches every tree over the workers' entries.
    cluster.disarm_faults();
    for pass in ["memo", "worker entries"] {
        if pass == "worker entries" {
            cluster.memo().clear();
        }
        for (i, (name, sk)) in grid.iter().enumerate() {
            let opts = QueryOptions {
                seed: 42,
                ..Default::default()
            };
            let outcome = run(sk, &opts).unwrap_or_else(|e| {
                panic!("seed {plan_seed:#x} sketch {name}: healed engine failed: {e}")
            });
            assert_eq!(
                outcome.bytes, baselines[i],
                "seed {plan_seed:#x} sketch {name}: healed re-run diverged — \
                 a faulted query polluted the computation cache ({pass})"
            );
            assert!(
                (outcome.coverage - 1.0).abs() < f64::EPSILON,
                "seed {plan_seed:#x} sketch {name}: healed run not full coverage"
            );
        }
    }
}

/// Every query under chaos terminates with a complete bit-identical
/// result, a structured error, or an opted-in labelled degraded result —
/// and the healed engine always reconverges to the clean baseline.
#[test]
fn seeded_chaos_grid_preserves_failure_semantics() {
    let mut tally = Tally::default();
    for seed in seed_range().enumerate() {
        let engine = chaos_engine();
        let data = engine.load("chaos", seed.1).unwrap();
        let run: Query<'_> = &|sk, opts| engine.run_erased(data, sk, opts);
        // Clean baselines first, before any fault is armed.
        let baselines = clean_baselines(run);
        chaos_then_heal(&engine, run, &baselines, seed, &mut tally);
    }
    eprintln!(
        "chaos grid: {} complete, {} degraded, {} errored; faults fired in {} seed(s)",
        tally.complete, tally.degraded, tally.errored, tally.fired
    );
    assert!(
        tally.fired > 0,
        "the seeded adversary never injected a single fault — the chaos \
         suite is vacuous; check FaultSpec::chaos() rates and site wiring"
    );
}

/// The same grid over bytes a scan faults in: spilled `hvc` parts opened
/// lazily under a 4 KiB block cache, so every part a query touches evicts
/// the one before it while leaves panic, workers die and datasets are
/// dropped and replayed. The baseline is the heap-resident answer:
/// complete means equal to it.
#[test]
#[cfg_attr(miri, ignore)]
fn seeded_chaos_grid_over_spilled_parts_under_a_tiny_block_cache() {
    const ROWS: i64 = 40_000;
    // A part is a micropartition under both tiers (the heap loader splits
    // at `micropartition_rows`, the lazy one never splits), so the
    // order-sensitive sketches of the grid see the same row sequences.
    const PART_ROWS: usize = 5_000;
    let dir = TempDir::new("chaos-parts");
    let mut w = SpillingWriter::new(dir.path(), PART_ROWS).unwrap();
    let x = (0..ROWS).map(|i| Some((i * 7 + i / 1_000 * 13) % 100));
    let t = Table::builder()
        .column(
            "X",
            ColumnKind::Int,
            Column::Int(I64Column::from_options(x)),
        )
        .build()
        .unwrap();
    w.push(&t).unwrap();
    w.finish().unwrap();

    let engine_over = |mode| {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(HvcDirSource::with_mode("parts", dir.path(), mode)));
        let cfg = ClusterConfig {
            block_cache_bytes: 4096,
            micropartition_rows: PART_ROWS,
            ..ClusterConfig::test()
        };
        let mut engine = Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()));
        engine.retry = chaos_retry();
        engine
    };
    let heap = engine_over(SegmentMode::Heap);
    let resident = heap.load("parts", 0).unwrap();
    let baselines = clean_baselines(&|sk, opts| heap.run_erased(resident, sk, opts));

    let mut tally = Tally::default();
    let mut evictions = 0;
    for seed in seed_range().enumerate() {
        let engine = engine_over(SegmentMode::Auto);
        let lazy = engine.load("parts", 0).unwrap();
        let run: Query<'_> = &|sk, opts| engine.run_erased(lazy, sk, opts);
        assert_eq!(
            clean_baselines(run),
            baselines,
            "fault-free answer diverged from heap-resident"
        );
        chaos_then_heal(&engine, run, &baselines, seed, &mut tally);
        evictions += engine.cluster().block_cache_stats().evictions;
    }
    eprintln!(
        "chaos grid over spilled parts: {} complete, {} degraded, {} errored; faults \
         fired in {} seed(s); {evictions} chunks evicted",
        tally.complete, tally.degraded, tally.errored, tally.fired
    );
    assert!(tally.fired > 0, "no fault was ever injected");
    if cfg!(all(unix, target_endian = "little")) {
        assert!(evictions > 0, "a 4 KiB budget over mapped parts must evict");
    }
}

/// The outcome trichotomy holds on the **fused** filtered-query path too:
/// under an armed plan every one-shot `(predicate, sketch)` query — which
/// runs the filter fused into `summarize` at the leaves, under cache keys
/// of its own — completes bit-identical to the fault-free fused baseline,
/// errors structurally, or degrades only with opt-in; and the healed
/// engine reconverges.
#[test]
fn seeded_chaos_fused_queries_preserve_failure_semantics() {
    use hillview_columnar::Predicate;
    let mut tally = Tally::default();
    for seed in seed_range().enumerate() {
        let engine = chaos_engine();
        let data = engine.load("chaos", seed.1).unwrap();
        let run: Query<'_> = &|sk, opts| {
            engine.run_filtered_erased(data, Predicate::range("X", 20.0, 70.0), sk, opts)
        };
        let baselines = clean_baselines(run);
        chaos_then_heal(&engine, run, &baselines, seed, &mut tally);
    }
    eprintln!(
        "fused chaos grid: {} complete, {} degraded, {} errored; faults fired in {} seed(s)",
        tally.complete, tally.degraded, tally.errored, tally.fired
    );
    assert!(
        tally.fired > 0,
        "the seeded adversary never injected a fault into a fused query run"
    );
}

/// The trichotomy on a lazy filter, where the planner's promotion meets the
/// armed plan: the first tree over the filter runs fused, and the next
/// query materializes it — a logged derivation under the same recovery
/// loop — while workers die, datasets are evicted and leaves panic at its
/// operations. The fused and the materialized plan fold the same bytes, so
/// a complete answer equals the fused baseline of a clean engine over the
/// same snapshot; the baselines are taken there, so that no entry they
/// left can answer a chaos query for free.
#[test]
fn seeded_chaos_lazy_filter_promotion_preserves_failure_semantics() {
    use hillview_columnar::Predicate;
    let band = || Predicate::range("X", 20.0, 70.0);
    let mut tally = Tally::default();
    let mut promoted = 0;
    for seed in seed_range().enumerate() {
        let clean = chaos_engine();
        let data = clean.load("chaos", seed.1).unwrap();
        let baselines =
            clean_baselines(&|sk, opts| clean.run_filtered_erased(data, band(), sk, opts));
        let engine = chaos_engine();
        let data = engine.load("chaos", seed.1).unwrap();
        let lazy = engine.filter_lazy(data, band());
        let run: Query<'_> = &|sk, opts| engine.run_erased(lazy, sk, opts);
        chaos_then_heal(&engine, run, &baselines, seed, &mut tally);
        let cluster = engine.cluster();
        promoted +=
            u32::from((0..cluster.num_workers()).all(|w| cluster.worker(w).has_dataset(lazy)));
    }
    eprintln!(
        "lazy filter chaos grid: {} complete, {} degraded, {} errored; faults fired in {} \
         seed(s); the filter ended materialized in {promoted}",
        tally.complete, tally.degraded, tally.errored, tally.fired
    );
    assert!(tally.fired > 0, "no fault was ever injected");
    assert!(promoted > 0, "no seed ever promoted the filter");
}

/// The scripted (epoch-blind) side of the plan: a persistent kill schedule
/// exhausts the retry budget with a structured, cause-preserving error,
/// and never caches anything under the failing key.
#[test]
fn scripted_persistent_kill_never_caches_partial_state() {
    use hillview_core::{FaultAction, FaultSite};
    let engine = chaos_engine();
    let data = engine.load("chaos", 0).unwrap();
    let sk = erase(CountSketch::rows());
    let clean = engine
        .run_erased(data, &sk, &QueryOptions::default())
        .unwrap();
    // Forget the clean run's cache entries (and datasets — lineage replay
    // restores them) so the faulted queries below actually execute, and
    // would write the very structural key the healed re-run reads if they
    // ever — wrongly — cached a partial fold.
    engine.cluster().evict_all();

    engine
        .cluster()
        .arm_faults(FaultPlan::scripted((0..100_000).map(|i| {
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: i,
                },
                FaultAction::Kill,
            )
        })));
    let err = engine
        .run_erased(data, &sk, &QueryOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::RetriesExhausted { .. }),
        "persistent kill should exhaust the budget, got {err}"
    );

    engine.cluster().disarm_faults();
    let healed = engine
        .run_erased(data, &sk, &QueryOptions::default())
        .unwrap();
    assert_eq!(
        healed.bytes, clean.bytes,
        "failed query left partial state under its cache key"
    );
}

/// A degraded or failed tree must never populate a predicate-keyed cache
/// entry on the worker it abandoned. A persistently-killed worker 0 ends
/// the fused query in either an honestly-labelled degraded result or a
/// structured error (both are within the trichotomy; which one is a race
/// between the liveness sweep and the tolerant final attempt) — either
/// way the killed worker's cache must record zero insertions for the
/// whole episode, and the healed engine — reading the *same* structural
/// key — must reconverge to the complete fused baseline.
#[test]
fn degraded_fused_tree_never_populates_predicate_keyed_entries() {
    use hillview_columnar::Predicate;
    use hillview_core::{FaultAction, FaultSite};
    let engine = chaos_engine();
    let data = engine.load("chaos", 7).unwrap();
    let sk = erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, 100.0, 10),
    ));
    let pred = || Predicate::range("X", 15.0, 85.0);
    let clean = engine
        .run_filtered_erased(data, pred(), &sk, &QueryOptions::default())
        .unwrap();
    // Forget the clean run's entries so the degraded episode below starts
    // cold: any insertion from here on is attributable to a faulted tree.
    engine.cluster().evict_all();
    let w0_insertions = engine.cluster().worker(0).cache_stats().insertions;

    engine
        .cluster()
        .arm_faults(FaultPlan::scripted((0..100_000).map(|i| {
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: i,
                },
                FaultAction::Kill,
            )
        })));
    let opts = QueryOptions {
        allow_degraded: true,
        deadline: Some(Duration::from_secs(20)),
        ..Default::default()
    };
    match engine.run_filtered_erased(data, pred(), &sk, &opts) {
        Ok(degraded) => assert!(
            degraded.coverage < 1.0 && degraded.failed_workers.contains(&0),
            "persistent kill of worker 0 should degrade the fused query \
             (coverage {}, failed {:?})",
            degraded.coverage,
            degraded.failed_workers
        ),
        Err(e) => assert!(
            e.is_retryable() || matches!(e, EngineError::RetriesExhausted { .. }),
            "persistent kill should surface a structured retryable/exhausted \
             error, got {e}"
        ),
    }
    assert_eq!(
        engine.cluster().worker(0).cache_stats().insertions,
        w0_insertions,
        "the killed worker cached state under the query's predicate key \
         while its tree was dying"
    );

    engine.cluster().disarm_faults();
    let healed = engine
        .run_filtered_erased(data, pred(), &sk, &QueryOptions::default())
        .unwrap();
    assert!(
        (healed.coverage - 1.0).abs() < f64::EPSILON,
        "healed fused run not full coverage"
    );
    assert_eq!(
        healed.bytes, clean.bytes,
        "healed fused re-run diverged — the degraded tree polluted a \
         predicate-keyed cache entry"
    );
}

/// Churn a deliberately tiny sketch cache with many distinct predicate
/// identities, across seeds. Evictions must actually fire, warm repeats
/// must actually hit, and every answer — fresh fold, cached entry, or
/// re-fold after eviction — must stay bit-identical to an uncached
/// reference of the same query.
#[test]
fn seeded_cache_churn_evicts_without_corrupting_results() {
    use hillview_columnar::Predicate;
    for plan_seed in seed_range().take(4) {
        // ~2 KB per worker: a handful of histogram/moments entries at
        // most, so 16 distinct predicates cycle the LRU several times.
        let engine = chaos_engine_with_cache_budget(2048);
        let data = engine.load("chaos", plan_seed).unwrap();
        let sketches = [
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
            erase(MomentsSketch::new("X", 4)),
        ];
        let uncached = QueryOptions {
            cache: false,
            ..Default::default()
        };
        let mut state = plan_seed | 1;
        for _ in 0..16 {
            // Splitmix-style step: the predicate sequence is a pure
            // function of the seed, so failures replay exactly.
            state = state
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(27)
                .wrapping_add(0x243F_6A88_85A3_08D3);
            let lo = (state % 60) as f64;
            let hi = lo + 10.0 + (state >> 8 & 0x1F) as f64;
            let pred = Predicate::range("X", lo, hi);
            for sk in &sketches {
                let reference = engine
                    .run_filtered_erased(data, pred.clone(), sk, &uncached)
                    .unwrap();
                let cold = engine
                    .run_filtered_erased(data, pred.clone(), sk, &QueryOptions::default())
                    .unwrap();
                let warm = engine
                    .run_filtered_erased(data, pred.clone(), sk, &QueryOptions::default())
                    .unwrap();
                assert_eq!(
                    reference.bytes, cold.bytes,
                    "seed {plan_seed:#x} pred [{lo}, {hi}): cached fold diverged \
                     from uncached reference under churn"
                );
                assert_eq!(
                    cold.bytes, warm.bytes,
                    "seed {plan_seed:#x} pred [{lo}, {hi}): warm repeat diverged \
                     from the entry its own miss stored"
                );
            }
        }
        let stats = engine.cluster().cache_stats();
        assert!(
            stats.evictions > 0,
            "seed {plan_seed:#x}: churn over a {}-byte budget never evicted \
             (insertions {}, bytes {}) — the budget is not being enforced",
            2048,
            stats.insertions,
            stats.bytes
        );
        assert!(
            stats.hits > 0,
            "seed {plan_seed:#x}: warm repeats never hit the cache"
        );
        // Each worker's cache and the root's memo hold one budget each.
        assert_eq!(
            stats.budget,
            2048 * (engine.cluster().num_workers() as u64 + 1)
        );
        assert!(
            stats.bytes <= stats.budget,
            "seed {plan_seed:#x}: cache grew past its budget ({} bytes)",
            stats.bytes
        );
    }
}
