//! Cross-system agreement: Hillview's exact vizketches, the GP engine, and
//! the row-store DB must produce identical exact answers; sampled
//! vizketches must land within their error bounds of those answers.

use hillview_baseline::{Expr, GpEngine, RowDb};
use hillview_columnar::{Predicate, Value};
use hillview_core::{QueryOptions, Spreadsheet};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_integration::test_engine;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::BucketSpec;
use hillview_viz::display::DisplaySpec;
use std::collections::HashSet;

#[test]
fn three_systems_one_histogram() {
    let engine = test_engine(2, 10_000);
    let ds = engine.load("flights", 3).unwrap();

    // Hillview exact histogram over Distance.
    let spec = BucketSpec::numeric(0.0, 3000.0, 30);
    let (hv, _) = engine
        .run(
            ds,
            HistogramSketch::streaming("Distance", spec),
            &QueryOptions::default(),
        )
        .unwrap();

    // Row-store DB over the identical data.
    let mut db = RowDb::create(&["Distance"]);
    for w in 0..2 {
        db.insert_table(&generate_flights(&FlightsConfig::new(10_000, 3 ^ w)));
    }
    let db_hist = db.histogram("Distance", 0.0, 3000.0, 30);
    assert_eq!(hv.buckets, db_hist, "vizketch == row DB");

    // GP engine group-by collapsed into the same buckets.
    let gp = GpEngine::new(engine.cluster().clone());
    let groups = gp.group_count(ds, "Distance").unwrap().result;
    let mut gp_hist = vec![0u64; 30];
    for (v, c) in groups {
        if let Some(x) = v.as_f64() {
            if (0.0..3000.0).contains(&x) {
                gp_hist[(x / 100.0) as usize] += c;
            }
        }
    }
    assert_eq!(hv.buckets, gp_hist, "vizketch == GP engine");
}

#[test]
fn sampled_histogram_within_bounds_of_exact() {
    let engine = test_engine(2, 50_000);
    let ds = engine.load("flights", 0).unwrap();
    let spec = BucketSpec::numeric(0.0, 2400.0, 24);
    let (exact, _) = engine
        .run(
            ds,
            HistogramSketch::streaming("CRSDepTime", spec.clone()),
            &QueryOptions::default(),
        )
        .unwrap();
    let (sampled, _) = engine
        .run(
            ds,
            HistogramSketch::sampled("CRSDepTime", spec, 0.2),
            &QueryOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
    let total_exact: u64 = exact.buckets.iter().sum();
    let total_sampled: u64 = sampled.buckets.iter().sum();
    for (e, s) in exact.buckets.iter().zip(&sampled.buckets) {
        let fe = *e as f64 / total_exact as f64;
        let fs = *s as f64 / total_sampled as f64;
        assert!((fe - fs).abs() < 0.02, "bucket fractions {fe} vs {fs}");
    }
}

#[test]
fn heavy_hitters_agree_with_gp_topk() {
    let engine = test_engine(2, 20_000);
    let ds = engine.load("flights", 0).unwrap();
    let (mg, _) = engine
        .run(
            ds,
            MisraGriesSketch::new("Carrier", 14),
            &QueryOptions::default(),
        )
        .unwrap();
    let gp = GpEngine::new(engine.cluster().clone());
    let top = gp.top_k(ds, "Carrier", 3).unwrap().result;
    // The top-3 exact carriers must all be tracked by Misra-Gries with
    // counts within the MG undercount bound (total/k).
    let bound = mg.total / 14;
    for (v, exact_count) in top {
        let mg_count = mg.count_of(&v);
        assert!(
            mg_count + bound >= exact_count,
            "{v}: MG {mg_count} vs exact {exact_count}"
        );
    }
}

/// O9 is exact where the part statistics bound an integer column: the
/// count equals the row DB's `COUNT(DISTINCT)`, nulls aside, on the
/// null-free `FlightNum` and on the nullable `DepTime`. Where they do not —
/// a filtered sheet, a `Date` column — it is HyperLogLog, within three
/// standard errors (`1.04 / √4096`) of the truth.
#[test]
fn o9_is_exact_where_statistics_bound_the_column() {
    let engine = test_engine(2, 10_000);
    let sheet = Spreadsheet::open(engine, "flights", 3, DisplaySpec::new(120, 60)).unwrap();
    let tables: Vec<_> = (0..2)
        .map(|w| generate_flights(&FlightsConfig::new(10_000, 3 ^ w)))
        .collect();
    let columns = ["FlightNum", "DepTime", "FlightDate", "Carrier"];
    let mut db = RowDb::create(&columns);
    tables.iter().for_each(|t| db.insert_table(t));
    let distinct = |c: usize| {
        let groups = db.group_count(&Expr::Col(c));
        groups.keys().filter(|v| !v.is_missing()).count() as f64
    };
    let has_nulls = db.group_count(&Expr::Col(1)).contains_key(&Value::Missing);
    assert!(has_nulls, "DepTime is nullable");
    for (c, column) in ["FlightNum", "DepTime"].into_iter().enumerate() {
        let (count, _) = sheet.distinct_count(column).unwrap();
        assert_eq!(count, distinct(c), "{column}");
    }

    let within = |estimate: f64, truth: f64, what: &str| {
        let error = (estimate - truth).abs() / truth;
        assert!(error <= 3.0 * 1.04 / 64.0, "{what}: {estimate} for {truth}");
    };
    let (dates, _) = sheet.distinct_count("FlightDate").unwrap();
    within(dates, distinct(2), "FlightDate");
    let ua = sheet.filtered(Predicate::equals("Carrier", "UA")).unwrap();
    let mut flights = HashSet::new();
    for t in &tables {
        let (num, carrier) = (
            t.column_by_name("FlightNum").unwrap(),
            t.column_by_name("Carrier").unwrap(),
        );
        for r in 0..t.num_rows() {
            if carrier.value(r) == Value::str("UA") {
                flights.insert(num.value(r));
            }
        }
    }
    let (count, _) = ua.distinct_count("FlightNum").unwrap();
    within(count, flights.len() as f64, "FlightNum where Carrier = UA");
}
