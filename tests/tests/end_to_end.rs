//! End-to-end spreadsheet sessions across every crate.

use hillview_columnar::{Predicate, StrMatchKind};
use hillview_integration::{flights_sheet, test_engine};
use hillview_viz::display::DisplaySpec;

#[test]
fn full_analyst_session() {
    let sheet = flights_sheet(3, 20_000);
    let (rows, _) = sheet.row_count().unwrap();
    assert_eq!(rows, 60_000);

    // Sort and page through the data.
    let (page1, _) = sheet.sort_view(&["Carrier", "DepDelay"], 10).unwrap();
    assert_eq!(page1.rows.len(), 10);

    // Chart a column, zoom into a region, chart again.
    let (chart, cdf, _) = sheet.histogram_with_cdf("DepDelay", Some(30)).unwrap();
    assert_eq!(chart.heights_px.len(), 30);
    assert!(cdf.heights_px.windows(2).all(|w| w[0] <= w[1]));
    let zoomed = sheet
        .filtered(Predicate::range("DepDelay", 0.0, 30.0))
        .unwrap();
    let (zchart, _, _) = zoomed.histogram_with_cdf("DepDelay", Some(30)).unwrap();
    assert!(zchart.max_count <= chart.max_count);

    // Heavy hitters, distinct count, heat map.
    let (hh, _) = sheet.heavy_hitters_streaming("Carrier", 14).unwrap();
    assert!(!hh.items.is_empty());
    let (distinct, _) = sheet.distinct_count("Origin").unwrap();
    assert!(
        (50.0..70.0).contains(&distinct),
        "60 airports, got {distinct}"
    );
    let (grid, _) = sheet.heatmap("Distance", "AirTime").unwrap();
    assert!(grid.max_count > 0);

    // Search.
    let (found, _) = sheet
        .find_text(
            "Origin",
            "SFO",
            StrMatchKind::Exact,
            false,
            &["FlightDate"],
            None,
        )
        .unwrap();
    assert!(found.first.is_some());
}

#[test]
fn filter_counts_match_ground_truth() {
    let sheet = flights_sheet(2, 10_000);
    // Independently compute the expected count from the generator.
    let t = hillview_data::generate_flights(&hillview_data::FlightsConfig::new(10_000, 0));
    let col = t.column_by_name("Carrier").unwrap();
    let expected_w0 = (0..t.num_rows())
        .filter(|&r| col.value(r).to_string() == "WN")
        .count();
    let t1 = hillview_data::generate_flights(&hillview_data::FlightsConfig::new(10_000, 1));
    let col1 = t1.column_by_name("Carrier").unwrap();
    let expected_w1 = (0..t1.num_rows())
        .filter(|&r| col1.value(r).to_string() == "WN")
        .count();

    let wn = sheet.filtered(Predicate::equals("Carrier", "WN")).unwrap();
    let (n, _) = wn.row_count().unwrap();
    assert_eq!(n as usize, expected_w0 + expected_w1);
}

#[test]
fn derived_column_statistics() {
    let sheet = flights_sheet(2, 10_000);
    let with_total = sheet.with_column("TotalDelay", "TotalDelay").unwrap();
    let (m, _) = with_total.moments("TotalDelay", 2).unwrap();
    assert!(m.present > 0);
    // TotalDelay = DepDelay + ArrDelay; means should add up approximately.
    let (dep, _) = sheet.moments("DepDelay", 2).unwrap();
    let (arr, _) = sheet.moments("ArrDelay", 2).unwrap();
    let sum_means = dep.mean().unwrap() + arr.mean().unwrap();
    assert!(
        (m.mean().unwrap() - sum_means).abs() < 1.5,
        "{} vs {}",
        m.mean().unwrap(),
        sum_means
    );
}

#[test]
fn scroll_bar_session() {
    let sheet = flights_sheet(2, 15_000);
    // Scroll to the middle of the distance-sorted view.
    let (page, stats) = sheet.scroll_to(&["Distance"], 50, 10).unwrap();
    assert!(!page.rows.is_empty());
    assert!(stats.trees >= 2);
    // The median-ish distance should be mid-range (routes span 100..2700).
    let first_distance: f64 = page.rows[0].0[0].parse().unwrap();
    assert!(
        (300.0..2300.0).contains(&first_distance),
        "scrolled to {first_distance}"
    );
}

#[test]
fn multiple_sheets_share_one_engine() {
    let engine = test_engine(2, 8_000);
    let flights =
        hillview_core::Spreadsheet::open(engine.clone(), "flights", 0, DisplaySpec::new(100, 50))
            .unwrap();
    let logs =
        hillview_core::Spreadsheet::open(engine.clone(), "logs", 0, DisplaySpec::new(100, 50))
            .unwrap();
    let (fr, _) = flights.row_count().unwrap();
    let (lr, _) = logs.row_count().unwrap();
    assert_eq!(fr, 16_000);
    assert_eq!(lr, 16_000);
    assert_eq!(engine.redo_log().len(), 2);
}

#[test]
fn results_scale_invariant_for_sampled_charts() {
    // The same distribution at different sizes renders the same chart
    // shape — the vizketch scalability claim (§4.4).
    let small = flights_sheet(2, 5_000);
    let large = flights_sheet(2, 50_000);
    let (cs, _, _) = small.histogram_with_cdf("CRSDepTime", Some(24)).unwrap();
    let (cl, _, _) = large.histogram_with_cdf("CRSDepTime", Some(24)).unwrap();
    // Compare normalized bar heights loosely.
    for (a, b) in cs.heights_px.iter().zip(&cl.heights_px) {
        assert!(
            (*a as i64 - *b as i64).abs() <= 12,
            "{:?} vs {:?}",
            cs.heights_px,
            cl.heights_px
        );
    }
}

/// Fig. 2: a trellis draws one heat map per group — the requested count
/// over a numeric grouping column, and one per value over a categorical
/// column with fewer distinct values than requested, every one of them
/// holding rows.
#[test]
fn trellis_draws_one_heat_map_per_group() {
    let sheet = flights_sheet(2, 10_000);
    let (grids, _) = sheet
        .trellis_heatmap("Distance", "DepDelay", "ArrDelay", 4)
        .unwrap();
    assert_eq!(grids.len(), 4);

    let carriers: std::collections::BTreeSet<String> = (0..2)
        .flat_map(|w| {
            let t = hillview_data::generate_flights(&hillview_data::FlightsConfig::new(10_000, w));
            let col = t.column_by_name("Carrier").unwrap();
            (0..t.num_rows())
                .map(|r| col.value(r).to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(carriers.len() < 16, "{} carriers", carriers.len());
    let (grids, _) = sheet
        .trellis_heatmap("Carrier", "Distance", "AirTime", 16)
        .unwrap();
    assert_eq!(grids.len(), carriers.len());
    assert!(grids.iter().all(|g| g.max_count > 0));
}

/// App. B.3: the spectrum of a correlation matrix is non-negative, sorted
/// descending, and sums to its trace — the number of columns.
#[test]
fn pca_spectrum_is_a_correlation_spectrum() {
    let sheet = flights_sheet(2, 10_000);
    let columns = ["DepDelay", "ArrDelay", "Distance", "AirTime"];
    let (pca, _) = sheet.pca(&columns, 1.0).unwrap();
    let eigen = pca.principal_components().unwrap();
    let values = &eigen.values;
    assert_eq!(values.len(), columns.len());
    assert!(values.iter().all(|&v| v >= -1e-9), "{values:?}");
    assert!(values.windows(2).all(|w| w[0] >= w[1]), "{values:?}");
    let trace: f64 = values.iter().sum();
    assert!((trace - columns.len() as f64).abs() < 1e-6, "{values:?}");
}

/// §3.5 "converting strings to integers": the built-in parse and a user
/// closure doing the same by hand derive equal columns, whose values are
/// the ones parsed here from the source rows.
#[test]
fn parsed_string_column_matches_a_hand_parse() {
    use hillview_columnar::column::{Column, DictColumn};
    use hillview_columnar::udf::UdfRegistry;
    use hillview_columnar::{ColumnKind, Table, Value};
    use hillview_core::dataset::{FnSource, SourceRegistry};
    use hillview_core::{Cluster, ClusterConfig, Engine, Spreadsheet};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const ROWS: usize = 3_000;
    let code = |w: usize, r: usize| match (r + w) % 11 {
        0 => None,
        1 => Some("n/a".to_string()),
        _ => Some(format!(" {} ", (r * 7 + w) as i64 % 50 - 10)),
    };
    let table = move |w: usize| {
        let codes: Vec<Option<String>> = (0..ROWS).map(|r| code(w, r)).collect();
        Table::builder()
            .column(
                "Code",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(codes.iter().map(|c| c.as_deref()))),
            )
            .build()
            .unwrap()
    };
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new("codes", move |w, _n, mp, _snap| {
        Ok(hillview_storage::partition_table(&table(w), mp))
    })));
    let mut udfs = UdfRegistry::new();
    udfs.register_parse_int("Parsed", "Code");
    udfs.register("ByHand", ColumnKind::Int, |t, r| {
        match t.column_by_name("Code").unwrap().value(r) {
            Value::Str(s) => s.trim().parse().map_or(Value::Missing, Value::Int),
            _ => Value::Missing,
        }
    });
    let config = ClusterConfig {
        workers: 2,
        micropartition_rows: 1_000,
        ..Default::default()
    };
    let engine = Arc::new(Engine::new(Cluster::new(config, sources, udfs)));
    let sheet = Spreadsheet::open(engine, "codes", 0, DisplaySpec::new(120, 60))
        .unwrap()
        .with_column("Parsed", "Parsed")
        .unwrap()
        .with_column("ByHand", "ByHand")
        .unwrap();

    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for w in 0..2 {
        for r in 0..ROWS {
            let parsed = code(w, r).and_then(|c| c.trim().parse::<i64>().ok());
            let shown = parsed.map_or(Value::Missing, Value::Int).to_string();
            *expected.entry(shown).or_default() += 1;
        }
    }
    let (page, _) = sheet.sort_view(&["Parsed", "ByHand"], 100).unwrap();
    let mut got: BTreeMap<String, u64> = BTreeMap::new();
    for (cells, n) in &page.rows {
        assert_eq!(cells[0], cells[1], "built-in and hand parse disagree");
        *got.entry(cells[0].clone()).or_default() += n;
    }
    assert_eq!(got, expected);
}
