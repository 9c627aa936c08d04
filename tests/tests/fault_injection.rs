//! Fault-injection integration tests: crashes, eviction, recovery (§5.7-5.8).

use hillview_columnar::Predicate;
use hillview_integration::{flights_sheet, test_engine};
use hillview_viz::display::DisplaySpec;

#[test]
fn crash_during_session_recovers_identically() {
    let sheet = flights_sheet(3, 10_000);
    let filtered = sheet
        .filtered(Predicate::range("DepDelay", -10.0, 120.0))
        .unwrap();
    filtered.set_seed(7);
    let (before, _, _) = filtered.histogram_with_cdf("DepDelay", Some(25)).unwrap();

    // Kill two of three workers.
    sheet.engine().cluster().worker(0).kill();
    sheet.engine().cluster().worker(2).kill();

    filtered.set_seed(7);
    let (after, _, _) = filtered.histogram_with_cdf("DepDelay", Some(25)).unwrap();
    assert_eq!(before.heights_px, after.heights_px);
    assert!(
        sheet.engine().cluster().worker(0).is_alive(),
        "auto-restarted"
    );
}

#[test]
fn deep_lineage_replays_in_order() {
    let sheet = flights_sheet(2, 10_000);
    // load → filter → filter → map → filter: five-deep lineage.
    let a = sheet
        .filtered(Predicate::range("DepDelay", -60.0, 240.0))
        .unwrap();
    let b = a.filtered(Predicate::equals("Cancelled", 0i64)).unwrap();
    let c = b.with_column("Speed", "Speed").unwrap();
    let d = c.filtered(Predicate::range("Speed", 1.0, 1e6)).unwrap();
    let (count_before, _) = d.row_count().unwrap();
    assert!(count_before > 0);

    sheet.engine().cluster().evict_all();
    let (count_after, _) = d.row_count().unwrap();
    assert_eq!(count_before, count_after);
    // Every ancestor was reconstructed on demand, in order, and so was `d`
    // itself: a tree had launched over the lazy filter, so its second
    // query promoted it, replaying the chain beneath it.
    for w in 0..2 {
        assert!(sheet.engine().cluster().worker(w).has_dataset(c.dataset()));
        assert!(sheet.engine().cluster().worker(w).has_dataset(d.dataset()));
    }
}

#[test]
fn repeated_crashes_eventually_converge() {
    let sheet = flights_sheet(2, 8_000);
    for round in 0..4 {
        sheet.engine().cluster().worker(round % 2).kill();
        let (rows, _) = sheet.row_count().unwrap();
        assert_eq!(rows, 16_000, "round {round}");
    }
}

#[test]
fn computation_cache_survives_unrelated_evictions() {
    let engine = test_engine(2, 8_000);
    let sheet =
        hillview_core::Spreadsheet::open(engine.clone(), "flights", 0, DisplaySpec::new(100, 50))
            .unwrap();
    // A string column's quantiles: a preparation tree the part statistics
    // do not answer, so each call reaches the workers' caches.
    let (r1, _) = sheet.string_quantiles("Origin").unwrap();
    // Cache hit on the second call.
    let hits0: u64 = (0..2)
        .map(|i| engine.cluster().worker(i).cache_hits())
        .sum();
    let (r2, _) = sheet.string_quantiles("Origin").unwrap();
    let hits1: u64 = (0..2)
        .map(|i| engine.cluster().worker(i).cache_hits())
        .sum();
    assert_eq!(r1, r2);
    assert!(hits1 > hits0);
    // After eviction the cache is cold but the answer is unchanged.
    engine.cluster().evict_all();
    let (r3, stats) = sheet.string_quantiles("Origin").unwrap();
    assert_eq!(r1, r3);
    assert_eq!(
        (stats.trees, stats.memo_hits),
        (1, 0),
        "the tree recomputed"
    );
}

#[test]
fn killed_worker_is_raw_below_the_recovery_loop_and_healed_above_it() {
    let engine = test_engine(2, 5_000);
    let ds = engine.load("flights", 0).unwrap();
    let rows = hillview_sketch::count::CountSketch::rows();
    let opts = hillview_core::QueryOptions::default();
    let (whole, _) = engine.run(ds, rows.clone(), &opts).unwrap();
    engine.cluster().worker(1).kill();
    // The cluster runs one tree and reports the dead worker as it is.
    let erased = hillview_core::erased::erase(rows.clone());
    let err = engine
        .cluster()
        .run_erased(ds, None, &erased, &opts)
        .unwrap_err();
    assert_eq!(err, hillview_core::EngineError::WorkerDown(1));
    // The engine restarts it, replays the lineage and answers in full.
    let (healed, _) = engine.run(ds, rows, &opts).unwrap();
    assert_eq!(healed.rows, whole.rows);
}
