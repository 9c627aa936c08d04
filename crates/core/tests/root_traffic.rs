//! Fig. 5 (bottom) as an assertion: what an operation puts on the root
//! link is sized by the display, not by the data or by a sample of it.
//!
//! The paper reports a few KB at the root per operation. Every vizketch
//! summary here is display-sized — buckets, pages, registers, or the
//! scroll bar's O(V) equi-depth keys — so each of Fig. 4's O1–O11 stays
//! under 64 KiB on 100 k rows, and would at any row count. A vizketch that
//! ships its sample instead fails here, not later in the bench pipeline.

use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::Predicate;
use hillview_core::cluster::ClusterConfig;
use hillview_core::dataset::SourceRegistry;
use hillview_core::spreadsheet::{OpStats, Spreadsheet};
use hillview_core::{Cluster, Engine, FnSource};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_storage::partition_table;
use hillview_viz::display::DisplaySpec;
use std::sync::Arc;
use std::time::Duration;

const ROWS_PER_WORKER: usize = 50_000;
const ROOT_BYTES_PER_OP: u64 = 64 << 10;

#[test]
fn every_operation_ships_a_display_sized_summary() {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new("flights", |w, _n, mp, snap| {
        let t = generate_flights(&FlightsConfig::new(ROWS_PER_WORKER, snap ^ w as u64));
        Ok(partition_table(&t, mp))
    })));
    // No batch tick inside a tree: each worker sends its final frame only,
    // so the byte counts do not depend on how fast this host is.
    let cfg = ClusterConfig {
        workers: 2,
        batch_interval: Duration::from_secs(30),
        worker_timeout: Duration::from_secs(120),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(cfg, sources, UdfRegistry::with_builtins());
    let engine = Arc::new(Engine::new(cluster));
    let sheet = Spreadsheet::open(engine, "flights", 1, DisplaySpec::new(600, 200)).unwrap();

    let by_date = ["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"];
    let ua = sheet.filtered(Predicate::equals("Carrier", "UA")).unwrap();
    let ops: Vec<(&str, OpStats)> = vec![
        ("O1", sheet.sort_view(&["DepDelay"], 20).unwrap().1),
        ("O2", sheet.sort_view(&by_date, 20).unwrap().1),
        ("O3", sheet.sort_view(&["TailNum"], 20).unwrap().1),
        ("O4", sheet.scroll_to(&by_date, 50, 20).unwrap().1),
        ("O5", sheet.histogram_with_cdf("DepDelay", None).unwrap().2),
        ("O6", ua.histogram_with_cdf("DepDelay", None).unwrap().2),
        ("O7", sheet.string_histogram("Origin").unwrap().1),
        ("O8", sheet.heavy_hitters_sampling("Carrier", 10).unwrap().1),
        ("O9", sheet.distinct_count("FlightNum").unwrap().1),
        (
            "O10",
            sheet
                .stacked_histogram_with_cdf("CRSDepTime", "Carrier")
                .unwrap()
                .2,
        ),
        ("O11", sheet.heatmap("Distance", "AirTime").unwrap().1),
    ];
    for (op, stats) in &ops {
        assert!(stats.root_bytes > 0, "{op} shipped nothing");
        assert!(
            stats.root_bytes <= ROOT_BYTES_PER_OP,
            "{op} shipped {} B to the root over {} trees",
            stats.root_bytes,
            stats.trees
        );
    }
}
