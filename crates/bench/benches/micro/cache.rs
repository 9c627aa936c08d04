//! The sketch-result cache over a live cluster: cold fused execution vs a
//! warm per-worker cache hit on the drill-down shape (`packed_selective`,
//! the same sorted-jitter column and range the `fused` suite reads), a
//! revisit answered by a tree of worker hits vs by the root's memo,
//! single-flight coalescing under concurrent identical queries, and the
//! planner's promotion rule (fuse until a tree has launched over a lazy
//! filter, then materialize) against both static strategies on a
//! repeated-query sequence. What to read: the warm hit beats the cold miss
//! by ≥ 10x, the memo beats the tree of hits by ≥ 4x, and on every planner
//! scenario the rule lands within 1.3x of the better static strategy.

use super::data::{self, uncached, ROWS};
use hillview_bench::harness::{Registered, Suite};
use hillview_bench::setup::cluster_config;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::Predicate;
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::erase;
use hillview_core::{Cluster, Engine, FnSource, QueryOptions};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::BucketSpec;
use hillview_storage::partition_table;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

pub const SUITE: Registered = Registered {
    name: "cache",
    about: "sketch-result cache over a 2-worker cluster, 1M rows: cold fused drill-down vs warm \
            per-worker hit, a revisit as a tree of worker hits vs answered by the root's memo, \
            single-flight coalescing, and the fuse-then-materialize promotion rule's \
            regret vs both static strategies (median ns); the warm run is asserted to hit every \
            worker's cache and the coalescing run to lose no query",
    run,
};

const WORKERS: usize = 2;
const THREADS: usize = 8;
const BURST: usize = 6;

/// 2 workers × 4 threads over the `fused` suite's two integer columns,
/// sharded by global row index: `packed` (sorted with jitter — a
/// drill-down range engages zone-map skipping, so the fused scan only
/// decodes the ~20% band) and `shuffled` (no zone skips, every block
/// decodes — the regime where materializing the membership once beats
/// re-running the full-scan predicate per query).
fn bench_engine() -> Engine {
    let mut sources = SourceRegistry::new();
    let mut register = |name: &str, column: fn(Range<usize>) -> Vec<i64>| {
        sources.register(Arc::new(FnSource::new(name, move |w, _n, mp, _snap| {
            let per = ROWS / WORKERS;
            let t = data::int_table(column(w * per..(w + 1) * per));
            Ok(partition_table(&t, mp))
        })));
    };
    register("packed", data::sorted_jitter);
    register("shuffled", data::shuffled_u12);
    let cfg = cluster_config(WORKERS, 4, 125_000);
    Engine::new(Cluster::new(cfg, sources, UdfRegistry::with_builtins()))
}

fn run(suite: &mut Suite) {
    let engine = bench_engine();
    let cluster = engine.cluster().clone();
    let packed = engine.load("packed", 0).unwrap();
    let shuffled = engine.load("shuffled", 0).unwrap();
    let sk = erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, 4096.0, 32),
    ));
    let drill = || Predicate::range("X", 1000.0, 1820.0);
    let drill_down = |opts: &QueryOptions| {
        engine
            .run_filtered_erased(packed, drill(), &sk, opts)
            .unwrap()
    };
    let clear_caches = || {
        for w in 0..cluster.num_workers() {
            cluster.worker(w).cache().clear();
        }
        cluster.memo().clear();
    };
    let cached = QueryOptions::default();

    // Cold vs warm: the same fused filtered-histogram drill-down, timed as
    // a pure computation (`cache: false`), as a cache miss (caches cleared
    // inside the measured call), and as a warm hit at the workers (the
    // root's memo cleared inside the call, so the tree launches).
    suite
        .case("packed_selective")
        .time("uncached", || drill_down(&uncached()))
        .time("cold_miss", || {
            clear_caches();
            drill_down(&cached)
        })
        // The warm-up primes the worker caches; every timed call hits.
        .time("warm_hit", || {
            cluster.memo().clear();
            drill_down(&cached)
        })
        .ratio("warm_over_cold", "cold_miss", "warm_hit");

    // The warm path actually hits.
    cluster.memo().clear();
    let before = cluster.cache_stats();
    let tree = drill_down(&cached);
    assert_eq!(
        cluster.cache_stats().hits - before.hits,
        cluster.num_workers() as u64,
        "warm drill-down was not served from every worker's cache"
    );

    // A chart already drawn, drawn again — the exact histogram of the
    // whole column: a tree whose every worker answers from its cache
    // against the root's memo answering before any tree exists.
    let revisit = || engine.run_erased(packed, &sk, &cached).unwrap();
    suite
        .case("revisit")
        .time("tree_of_hits", || {
            cluster.memo().clear();
            revisit()
        })
        .time("root_memo", revisit)
        .ratio("tree_over_memo", "tree_of_hits", "root_memo");
    let memo = revisit();
    assert!(
        tree.root_messages > 0 && !tree.memo,
        "a tree of hits launches"
    );
    assert!(
        memo.memo && memo.root_messages == 0,
        "the memo launches none"
    );

    // Single-flight coalescing: N threads fire the identical cold query;
    // one flight per worker computes, everyone else waits on it. Counters
    // prove the dedup; the wall clock shows N queries for ~1 cold price.
    clear_caches();
    let base = cluster.cache_stats();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| drill_down(&cached));
        }
    });
    let coalesce_ns = started.elapsed().as_nanos();
    let now = cluster.cache_stats();
    let (misses, hits) = (now.misses - base.misses, now.hits - base.hits);
    assert_eq!(
        misses + hits,
        (THREADS * cluster.num_workers()) as u64,
        "coalescing run lost queries (misses {misses} + hits {hits})"
    );
    suite
        .case("coalesce")
        .fact("threads", THREADS as f64)
        .fact("total_ns", coalesce_ns as f64)
        .fact("misses", misses as f64)
        .fact("hits", hits as f64)
        .fact("coalesced_waits", (now.coalesced - base.coalesced) as f64)
        .fact("insertions", (now.insertions - base.insertions) as f64);

    // Planner regret: a burst of identical filtered queries (result cache
    // off, so every query really executes) under the promotion rule vs
    // both static strategies. `packed_selective` is the zone-skip regime
    // where staying fused wins; `shuffled_selective` (full decode, ~5%
    // selectivity) is the regime where materializing once wins.
    let scenarios = [
        ("planner_packed_selective", packed, drill()),
        (
            "planner_shuffled_selective",
            shuffled,
            Predicate::range("X", 100.0, 304.0),
        ),
    ];
    for (name, data, pred) in scenarios {
        let burst = |id| {
            for _ in 0..BURST {
                engine.run_erased(id, &sk, &uncached()).unwrap();
            }
        };
        let case = suite.case(name);
        case.fact("queries", BURST as f64)
            .time("fused_always", || {
                for _ in 0..BURST {
                    engine
                        .run_filtered_erased(data, pred.clone(), &sk, &uncached())
                        .unwrap();
                }
            })
            .time("materialize_always", || {
                burst(engine.filter(data, pred.clone()).unwrap())
            })
            .time("planner", || burst(engine.filter_lazy(data, pred.clone())));
        let best = case
            .median_ns("fused_always")
            .min(case.median_ns("materialize_always"));
        case.fact(
            "regret_vs_best_static",
            case.median_ns("planner") as f64 / best.max(1) as f64,
        );
    }
}
