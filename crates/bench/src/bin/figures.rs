//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! ```text
//! figures fig5       # end-to-end warm: Spark-like GP engine vs Hillview
//! figures fig6       # cold data from HVC files on disk
//! figures micro      # §7.2.1 single-thread histogram: streaming/sampled/DB
//! figures fig7       # leaf scalability (1..64 leaves, data grows with leaves)
//! figures fig8       # server scalability (1..8 workers)
//! figures loc        # Fig. 9: vizketch implementation sizes
//! figures casestudy  # Fig. 11: the 20 analyst questions
//! figures accuracy   # Fig. 3/13: pixel/shade error guarantees
//! figures all        # everything above
//! ```
//!
//! Scales are divided by 1000 relative to the paper (see the
//! `hillview_bench` crate docs).

use hillview_baseline::GpEngine;
use hillview_bench::harness::host_cores;
use hillview_bench::setup::{cluster_config, BenchCluster};
use hillview_bench::table::{kb, secs, TableWriter};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::Predicate;
use hillview_core::dataset::{FnSource, SourceRegistry};
use hillview_core::spreadsheet::{OpStats, Spreadsheet};
use hillview_core::{Cluster, Engine, QueryOptions};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::{BucketSpec, Scope};
use hillview_viz::display::DisplaySpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DISPLAY: DisplaySpec = DisplaySpec {
    width_px: 600,
    height_px: 200,
};

/// The Figure 4 operation list.
const OPS: &[&str] = &[
    "O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9", "O10", "O11",
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "fig5" => fig5(),
        "fig6" => fig6(),
        "micro" => micro(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "loc" => loc(),
        "casestudy" => casestudy(),
        "accuracy" => accuracy(),
        "all" => {
            fig5();
            fig6();
            micro();
            fig7();
            fig8();
            loc();
            casestudy();
            accuracy();
        }
        other => {
            eprintln!("unknown figure {other:?}; try fig5|fig6|micro|fig7|fig8|loc|casestudy|accuracy|all");
            std::process::exit(2);
        }
    }
}

/// Run one Figure 4 operation on a spreadsheet, returning its stats.
fn run_op(sheet: &Spreadsheet, op: &str) -> OpStats {
    match op {
        "O1" => sheet.sort_view(&["DepDelay"], 20).unwrap().1,
        "O2" => {
            sheet
                .sort_view(
                    &["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"],
                    20,
                )
                .unwrap()
                .1
        }
        "O3" => sheet.sort_view(&["TailNum"], 20).unwrap().1,
        "O4" => {
            sheet
                .scroll_to(
                    &["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"],
                    50,
                    20,
                )
                .unwrap()
                .1
        }
        "O5" => sheet.histogram_with_cdf("DepDelay", None).unwrap().2,
        "O6" => {
            // Filter + range + (histogram & cdf): the derivation is part of
            // the measured operation.
            let started = Instant::now();
            let filtered = sheet.filtered(Predicate::equals("Carrier", "UA")).unwrap();
            let mut stats = filtered.histogram_with_cdf("DepDelay", None).unwrap().2;
            stats.duration = started.elapsed();
            stats
        }
        "O7" => sheet.string_histogram("Origin").unwrap().1,
        "O8" => sheet.heavy_hitters_sampling("Carrier", 10).unwrap().1,
        "O9" => sheet.distinct_count("FlightNum").unwrap().1,
        "O10" => {
            sheet
                .stacked_histogram_with_cdf("CRSDepTime", "Carrier")
                .unwrap()
                .2
        }
        "O11" => sheet.heatmap("Distance", "AirTime").unwrap().1,
        other => panic!("unknown op {other}"),
    }
}

/// Run one operation's GP-engine (Spark-like) equivalent.
fn run_gp_op(
    gp: &GpEngine,
    engine: &Arc<Engine>,
    ds: hillview_core::DatasetId,
    op: &str,
) -> (Duration, u64) {
    match op {
        "O1" => {
            let o = gp.sort_first_k(ds, &["DepDelay"], 20).unwrap();
            (o.duration, o.driver_bytes)
        }
        "O2" => {
            let o = gp
                .sort_first_k(
                    ds,
                    &["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"],
                    20,
                )
                .unwrap();
            (o.duration, o.driver_bytes)
        }
        "O3" => {
            let o = gp.sort_first_k(ds, &["TailNum"], 20).unwrap();
            (o.duration, o.driver_bytes)
        }
        "O4" => {
            let q = gp
                .quantile(
                    ds,
                    &["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"],
                    0.5,
                )
                .unwrap();
            (q.duration, q.driver_bytes)
        }
        "O5" => {
            let o = gp.group_count(ds, "DepDelay").unwrap();
            (o.duration, o.driver_bytes)
        }
        "O6" => {
            let started = Instant::now();
            let filtered = engine
                .filter(ds, Predicate::equals("Carrier", "UA"))
                .unwrap();
            let o = gp.group_count(filtered, "DepDelay").unwrap();
            (started.elapsed(), o.driver_bytes)
        }
        "O7" => {
            let o = gp.group_count(ds, "Origin").unwrap();
            (o.duration, o.driver_bytes)
        }
        "O8" => {
            let o = gp.top_k(ds, "Carrier", 10).unwrap();
            (o.duration, o.driver_bytes)
        }
        "O9" => {
            let o = gp.distinct(ds, "FlightNum").unwrap();
            (o.duration, o.driver_bytes)
        }
        "O10" => {
            let o = gp.group_count_2d(ds, "CRSDepTime", "Carrier").unwrap();
            (o.duration, o.driver_bytes)
        }
        "O11" => {
            let o = gp.group_count_2d(ds, "Distance", "AirTime").unwrap();
            (o.duration, o.driver_bytes)
        }
        other => panic!("unknown op {other}"),
    }
}

/// Figure 5: end-to-end warm performance, Spark-like vs Hillview.
fn fig5() {
    println!("\n## Figure 5 — end-to-end warm performance (time s / root KB)\n");
    let bench = BenchCluster::standard();

    let mut time = TableWriter::new(&[
        "op",
        "GP5x(s)",
        "HV5x(s)",
        "HV10x(s)",
        "HV100x(s)",
        "HV100xFirst(s)",
    ]);
    let mut bytes = TableWriter::new(&["op", "GP5x(KB)", "HV5x(KB)", "HV10x(KB)", "HV100x(KB)"]);

    // Load datasets once per scale.
    let ds5 = bench.load_warm(5);
    let ds10 = bench.load_warm(10);
    let ds100 = bench.load_warm(100);
    let gp = GpEngine::new(bench.engine.cluster().clone());

    for op in OPS {
        let (gp_t, gp_b) = run_gp_op(&gp, &bench.engine, ds5, op);
        let mut hv = Vec::new();
        for ds in [ds5, ds10, ds100] {
            let sheet = Spreadsheet::new(bench.engine.clone(), ds, DISPLAY);
            sheet.set_seed(42);
            hv.push(run_op(&sheet, op));
        }
        let first = hv[2]
            .first_partial
            .map(secs)
            .unwrap_or_else(|| "-".to_string());
        time.row(&[
            op.to_string(),
            secs(gp_t),
            secs(hv[0].duration),
            secs(hv[1].duration),
            secs(hv[2].duration),
            first,
        ]);
        bytes.row(&[
            op.to_string(),
            kb(gp_b),
            kb(hv[0].root_bytes),
            kb(hv[1].root_bytes),
            kb(hv[2].root_bytes),
        ]);
    }
    time.print();
    bytes.print();
}

/// Figure 6: cold data read from HVC files on disk.
fn fig6() {
    println!("\n## Figure 6 — cold-data performance (s; first partial in parentheses)\n");
    let bench = BenchCluster::standard();
    let mut t = TableWriter::new(&["op", "5xCold(s)", "10xCold(s)", "100xCold(s)"]);
    // O4 and O6 are omitted as in the paper (they never run on cold data).
    let cold_ops: Vec<&str> = OPS
        .iter()
        .copied()
        .filter(|o| *o != "O4" && *o != "O6")
        .collect();
    let ds5 = bench.load_cold(5);
    let ds10 = bench.load_cold(10);
    let ds100 = bench.load_cold(100);
    for op in cold_ops {
        let mut cells = vec![op.to_string()];
        for ds in [ds5, ds10, ds100] {
            bench.make_cold();
            let sheet = Spreadsheet::new(bench.engine.clone(), ds, DISPLAY);
            sheet.set_seed(42);
            let stats = run_op(&sheet, op);
            let first = stats
                .first_partial
                .map(secs)
                .unwrap_or_else(|| "-".to_string());
            cells.push(format!("{} ({first})", secs(stats.duration)));
        }
        t.row(&cells);
    }
    t.print();
}

/// §7.2.1: single-thread histogram microbenchmark.
fn micro() {
    println!("\n## §7.2.1 — single-thread histogram, 10M rows (paper: 100M)\n");
    let rows = 10_000_000usize;
    let t = {
        use hillview_columnar::column::{Column, F64Column};
        use hillview_columnar::{ColumnKind, Table};
        let mut rng_state = 0x12345u64;
        let vals: Vec<Option<f64>> = (0..rows)
            .map(|_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                Some((rng_state >> 40) as f64 % 1000.0)
            })
            .collect();
        Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(vals)),
            )
            .build()
            .unwrap()
    };
    let view = hillview_sketch::TableView::full(Arc::new(t.clone()));
    let spec = BucketSpec::numeric(0.0, 1000.0, 100);
    use hillview_sketch::traits::Sketch;

    // Streaming vizketch.
    let sk = HistogramSketch::streaming("X", spec.clone());
    let started = Instant::now();
    let exact = sk.summarize(&view, Scope::ALL, 0).unwrap();
    let streaming_ms = started.elapsed().as_millis();

    // Sampled vizketch: the display-derived target (V=200px).
    let target = hillview_viz::samples::histogram(200, 0.01);
    let rate = hillview_viz::samples::rate_for(target, rows as u64);
    let sk = HistogramSketch::sampled("X", spec, rate);
    let started = Instant::now();
    let sampled = sk.summarize(&view, Scope::ALL, 7).unwrap();
    let sampling_ms = started.elapsed().as_millis();

    // Row-store database.
    let mut db = hillview_baseline::RowDb::create(&["X"]);
    db.insert_table(&t);
    let started = Instant::now();
    let db_hist = db.histogram("X", 0.0, 1000.0, 100);
    let db_ms = started.elapsed().as_millis();

    assert_eq!(exact.buckets, db_hist, "systems agree on the exact answer");
    assert!(sampled.rows_inspected < rows as u64 / 2);

    let mut table = TableWriter::new(&["method", "time (ms)", "paper (ms)"]);
    table.row(&["streaming".into(), streaming_ms.to_string(), "527".into()]);
    table.row(&["sampling".into(), sampling_ms.to_string(), "197".into()]);
    table.row(&["database system".into(), db_ms.to_string(), "5830".into()]);
    table.print();
    println!(
        "db/streaming ratio: {:.1}x (paper: 11.1x); sampling speedup: {:.1}x (paper: 2.7x)\n",
        db_ms as f64 / streaming_ms.max(1) as f64,
        streaming_ms as f64 / sampling_ms.max(1) as f64,
    );
}

/// A cluster whose dataset grows with the leaf count (Figures 7/8).
fn sweep_cluster(workers: usize, threads: usize, leaves_per_worker: usize) -> Arc<Engine> {
    const ROWS_PER_LEAF: usize = 400_000;
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new("sweep", move |w, _n, _mp, _s| {
        let mut out = Vec::with_capacity(leaves_per_worker);
        for l in 0..leaves_per_worker {
            let t = generate_flights(&FlightsConfig::new(ROWS_PER_LEAF, (w * 1000 + l) as u64));
            out.push(t.project(&["DepDelay"]).unwrap());
        }
        Ok(out)
    })));
    let cfg = cluster_config(workers, threads, ROWS_PER_LEAF);
    Arc::new(Engine::new(Cluster::new(cfg, sources, UdfRegistry::new())))
}

fn histogram_latency(engine: &Arc<Engine>, ds: hillview_core::DatasetId, rate: f64) -> Duration {
    let spec = BucketSpec::numeric(-100.0, 500.0, 100);
    let sk = if rate >= 1.0 {
        HistogramSketch::streaming("DepDelay", spec)
    } else {
        HistogramSketch::sampled("DepDelay", spec, rate)
    };
    // Best-of-3 to suppress scheduler noise.
    let mut best = Duration::MAX;
    for seed in 0..3u64 {
        let opts = QueryOptions {
            seed,
            ..Default::default()
        };
        let (_, o) = engine.run(ds, sk.clone(), &opts).unwrap();
        best = best.min(o.duration);
    }
    best
}

/// One scalability table: streaming and fixed-sample histogram latency
/// per `(row label, workers, threads per worker, leaves per worker)`.
fn sweep_table(axis: &str, shapes: impl Iterator<Item = (usize, usize, usize, usize)>) {
    let mut t = TableWriter::new(&[axis, "streaming (ms)", "sampled (ms)"]);
    for (label, workers, threads, leaves) in shapes {
        let engine = sweep_cluster(workers, threads, leaves);
        let ds = engine.load("sweep", 0).unwrap();
        let total_rows = engine.cluster().dataset_rows(ds) as u64;
        let streaming = histogram_latency(&engine, ds, 1.0);
        // Sampled: fixed target sample size regardless of data size.
        let target = hillview_viz::samples::histogram(200, 0.01);
        let rate = hillview_viz::samples::rate_for(target, total_rows);
        let sampled = histogram_latency(&engine, ds, rate);
        t.row(&[
            label.to_string(),
            streaming.as_millis().to_string(),
            sampled.as_millis().to_string(),
        ]);
    }
    t.print();
}

/// Figure 7: scalability with leaf count on one server.
fn fig7() {
    const LEAVES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
    let cores = host_cores();
    println!("\n## Figure 7 — leaf scalability on one server (ms; constant = ideal)\n");
    println!("(data grows with leaves: 400k rows/leaf; one pool thread per leaf up to");
    println!("the {cores} cores of this host, where the paper's testbed had 24)");
    if LEAVES[LEAVES.len() - 1] > cores {
        println!("(past {cores} leaves the sweep exceeds this host's cores: time grows with data)");
    }
    println!();
    sweep_table(
        "leaves",
        LEAVES.iter().map(|&l| (l, 1, l.min(22).min(cores), l)),
    );
}

/// Figure 8: scalability with server count.
fn fig8() {
    const SERVERS: usize = 8;
    const THREADS: usize = 2;
    let cores = host_cores();
    println!("\n## Figure 8 — server scalability (ms; constant = ideal)\n");
    println!("(8 leaves and {THREADS} pool threads per server, 400k rows/leaf; the servers");
    println!("share the {cores} cores of this host)");
    if SERVERS * THREADS > cores {
        let first = cores / THREADS + 1;
        println!("(from {first} servers on the sweep exceeds this host's cores: time grows)");
    }
    println!();
    sweep_table("servers", (1..=SERVERS).map(|s| (s, s, THREADS, 8)));
}

/// Figure 9: lines of back-end code per vizketch.
fn loc() {
    println!("\n## Figure 9 — vizketch implementation sizes (lines of code)\n");
    // Count non-blank, non-test lines of the module implementing each
    // vizketch (the paper counts back-end Java; we count the Rust kernel).
    fn count(src: &str) -> usize {
        let body = src.split("#[cfg(test)]").next().unwrap_or(src);
        body.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    }
    let entries: &[(&str, usize, usize)] = &[
        (
            "Histogram",
            count(include_str!("../../../sketch/src/histogram.rs")),
            114,
        ),
        ("CDF", count(include_str!("../../../viz/src/cdf.rs")), 114),
        (
            "Stacked histogram",
            count(include_str!("../../../sketch/src/stacked.rs")),
            130,
        ),
        (
            "Heatmap",
            count(include_str!("../../../sketch/src/heatmap.rs")),
            130,
        ),
        (
            "Heatmap trellis",
            count(include_str!("../../../sketch/src/trellis.rs")),
            127,
        ),
        (
            "Quantile",
            count(include_str!("../../../sketch/src/quantile.rs")),
            79,
        ),
        (
            "Next items",
            count(include_str!("../../../sketch/src/nextk.rs")),
            191,
        ),
        (
            "Find text",
            count(include_str!("../../../sketch/src/find.rs")),
            108,
        ),
        (
            "Heavy hitters",
            count(include_str!("../../../sketch/src/heavy.rs")),
            35,
        ),
        (
            "Range",
            count(include_str!("../../../sketch/src/range.rs")),
            156,
        ),
        (
            "Number distinct",
            count(include_str!("../../../sketch/src/distinct.rs")),
            117,
        ),
    ];
    let mut t = TableWriter::new(&["vizketch", "LoC (this repo)", "LoC (paper, Java)"]);
    for (name, ours, paper) in entries {
        t.row(&[name.to_string(), ours.to_string(), paper.to_string()]);
    }
    t.print();
}

/// Figure 11: the §7.5 case-study questions, scripted.
fn casestudy() {
    println!("\n## Figure 11 — case study: 20 analyst questions on flights-1x\n");
    let bench = BenchCluster::new(2, 4, 50_000);
    let ds = bench.load_warm(1);
    let sheet = Spreadsheet::new(bench.engine.clone(), ds, DISPLAY);
    sheet.set_seed(7);
    let mut t = TableWriter::new(&["question", "actions", "time (s)", "answer"]);
    for (q, f) in questions() {
        let started = Instant::now();
        let (actions, answer) = f(&sheet);
        t.row(&[
            q.to_string(),
            actions.to_string(),
            secs(started.elapsed()),
            answer,
        ]);
    }
    t.print();
}

type Question = fn(&Spreadsheet) -> (usize, String);

/// Late-flight share of one carrier (helper for Q1).
fn late_share(sheet: &Spreadsheet, carrier: &str) -> f64 {
    let filtered = sheet
        .filtered(Predicate::equals("Carrier", carrier))
        .unwrap();
    let (total, _) = filtered.row_count().unwrap();
    let late = filtered
        .filtered(Predicate::range("DepDelay", 15.0, 1e9))
        .unwrap();
    let (late_n, _) = late.row_count().unwrap();
    late_n as f64 / total.max(1) as f64
}

/// Mean of a column under a filter (helper for several questions).
fn mean_where(sheet: &Spreadsheet, pred: Predicate, column: &str) -> f64 {
    let f = sheet.filtered(pred).unwrap();
    let (m, _) = f.moments(column, 2).unwrap();
    m.mean().unwrap_or(f64::NAN)
}

fn questions() -> Vec<(&'static str, Question)> {
    vec![
        ("Q1 late flights UA vs AA", |s| {
            let ua = late_share(s, "UA");
            let aa = late_share(s, "AA");
            (5, format!("UA {:.1}% vs AA {:.1}%", ua * 100.0, aa * 100.0))
        }),
        ("Q2 least dep delay by airline", |s| {
            let (hh, _) = s.heavy_hitters_streaming("Carrier", 14).unwrap();
            let best = hh
                .items
                .iter()
                .map(|(v, _, _)| {
                    let c = v.to_string();
                    (
                        c.clone(),
                        mean_where(s, Predicate::equals("Carrier", c.as_str()), "DepDelay"),
                    )
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            (3, format!("{} ({:.1} min)", best.0, best.1))
        }),
        ("Q3 typical delay of AA flight 11", |s| {
            let f = s
                .filtered(
                    Predicate::equals("Carrier", "AA").and(Predicate::equals("FlightNum", 11i64)),
                )
                .unwrap();
            let (m, _) = f.moments("DepDelay", 2).unwrap();
            (
                4,
                format!(
                    "mean {:.1} min over {} flights",
                    m.mean().unwrap_or(0.0),
                    m.present
                ),
            )
        }),
        ("Q4 flights leaving NY each day", |s| {
            let f = s.filtered(Predicate::equals("OriginState", "NY")).unwrap();
            let (n, _) = f.row_count().unwrap();
            (5, format!("{:.0}/day", n as f64 / 730.0))
        }),
        ("Q5 SFO->JFK vs SFO->EWR", |s| {
            let jfk = mean_where(
                s,
                Predicate::equals("Origin", "SFO").and(Predicate::equals("Dest", "JFK")),
                "ArrDelay",
            );
            let ewr = mean_where(
                s,
                Predicate::equals("Origin", "SFO").and(Predicate::equals("Dest", "EWR")),
                "ArrDelay",
            );
            (5, format!("JFK {jfk:.1} vs EWR {ewr:.1} min arr delay"))
        }),
        ("Q6 destinations from both SFO and SJC", |s| {
            let (from_sfo, _) = s
                .filtered(Predicate::equals("Origin", "SFO"))
                .unwrap()
                .distinct_count("Dest")
                .unwrap();
            let (from_sjc, _) = s
                .filtered(Predicate::equals("Origin", "SJC"))
                .unwrap()
                .distinct_count("Dest")
                .unwrap();
            (
                4,
                format!(
                    "~{:.0} (SFO) / ~{:.0} (SJC) destinations",
                    from_sfo, from_sjc
                ),
            )
        }),
        ("Q7 best hour of day to fly", |s| {
            let (chart, _, _) = s.histogram_with_cdf("DepDelay", Some(24)).unwrap();
            let _ = chart;
            // Stacked histogram of delay by hour: find hour bucket with the
            // lowest mean delay via filters on three candidate windows.
            let morning = mean_where(s, Predicate::range("CRSDepTime", 500.0, 900.0), "DepDelay");
            let midday = mean_where(
                s,
                Predicate::range("CRSDepTime", 1100.0, 1500.0),
                "DepDelay",
            );
            let evening = mean_where(
                s,
                Predicate::range("CRSDepTime", 1700.0, 2100.0),
                "DepDelay",
            );
            let best = [
                ("morning", morning),
                ("midday", midday),
                ("evening", evening),
            ]
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
            (2, format!("{} ({:.1} min)", best.0, best.1))
        }),
        ("Q8 state with worst dep delay", |s| {
            let (hh, _) = s.heavy_hitters_streaming("OriginState", 50).unwrap();
            let worst = hh
                .items
                .iter()
                .take(8)
                .map(|(v, _, _)| {
                    let st = v.to_string();
                    (
                        st.clone(),
                        mean_where(s, Predicate::equals("OriginState", st.as_str()), "DepDelay"),
                    )
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            (5, format!("{} ({:.1} min)", worst.0, worst.1))
        }),
        ("Q9 airline with most cancellations", |s| {
            let f = s.filtered(Predicate::equals("Cancelled", 1i64)).unwrap();
            let (hh, _) = f.heavy_hitters_streaming("Carrier", 14).unwrap();
            let top = hh
                .items
                .first()
                .map(|(v, _, _)| v.to_string())
                .unwrap_or_else(|| "none".into());
            (1, top)
        }),
        ("Q10 date with most flights", |s| {
            let (chart, _, _) = s.histogram_with_cdf("FlightDate", Some(100)).unwrap();
            let max_bar = chart
                .heights_px
                .iter()
                .enumerate()
                .max_by_key(|(_, &h)| h)
                .unwrap()
                .0;
            (1, format!("bucket {} of 100 (~week granularity)", max_bar))
        }),
        ("Q11 longest flight by distance", |s| {
            let (range, _) = s.range_of("Distance").unwrap();
            (3, format!("{:.0} miles", range.max.unwrap_or(0.0)))
        }),
        ("Q12 taxi times UA vs AA same airport", |s| {
            let ua = mean_where(
                s,
                Predicate::equals("Carrier", "UA").and(Predicate::equals("Origin", "ORD")),
                "TaxiOut",
            );
            let aa = mean_where(
                s,
                Predicate::equals("Carrier", "AA").and(Predicate::equals("Origin", "ORD")),
                "TaxiOut",
            );
            (5, format!("ORD taxi-out: UA {ua:.1} vs AA {aa:.1} min"))
        }),
        ("Q13 best/worst weather delays by city", |s| {
            let (hh, _) = s.heavy_hitters_streaming("Origin", 60).unwrap();
            let mut pairs: Vec<(String, f64)> = hh
                .items
                .iter()
                .take(6)
                .map(|(v, _, _)| {
                    let a = v.to_string();
                    (
                        a.clone(),
                        mean_where(s, Predicate::equals("Origin", a.as_str()), "WeatherDelay"),
                    )
                })
                .collect();
            pairs.retain(|(_, m)| m.is_finite());
            pairs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let answer = match (pairs.first(), pairs.last()) {
                (Some(best), Some(worst)) => format!(
                    "best {} ({:.1}), worst {} ({:.1})",
                    best.0, best.1, worst.0, worst.1
                ),
                _ => "insufficient data".into(),
            };
            (6, answer)
        }),
        ("Q14 airlines flying to Hawaii", |s| {
            let f = s.filtered(Predicate::equals("DestState", "HI")).unwrap();
            let (est, _) = f.distinct_count("Carrier").unwrap();
            (2, format!("{:.0} airlines", est))
        }),
        ("Q15 Hawaii airport with best dep delays", |s| {
            let best = ["HNL", "OGG", "LIH", "KOA"]
                .iter()
                .map(|a| {
                    (
                        *a,
                        mean_where(s, Predicate::equals("Origin", *a), "DepDelay"),
                    )
                })
                .filter(|(_, m)| m.is_finite())
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(a, m)| format!("{a} ({m:.1} min)"))
                .unwrap_or_else(|| "no data".into());
            (4, best)
        }),
        ("Q16 flights per day LAX-SFO", |s| {
            let f = s
                .filtered(Predicate::equals("Origin", "LAX").and(Predicate::equals("Dest", "SFO")))
                .unwrap();
            let (n, _) = f.row_count().unwrap();
            (3, format!("{:.1}/day", n as f64 / 730.0))
        }),
        ("Q17 best weekday ORD-EWR", |s| {
            let route = Predicate::equals("Origin", "ORD").and(Predicate::equals("Dest", "EWR"));
            let best = (1..=7i64)
                .map(|d| {
                    (
                        d,
                        mean_where(
                            s,
                            route.clone().and(Predicate::equals("DayOfWeek", d)),
                            "DepDelay",
                        ),
                    )
                })
                .filter(|(_, m)| m.is_finite())
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            (
                3,
                best.map(|(d, m)| format!("weekday {d} ({m:.1} min)"))
                    .unwrap_or_else(|| "insufficient data".into()),
            )
        }),
        ("Q18 December day with most/least flights", |s| {
            let dec = s.filtered(Predicate::equals("Month", 12i64)).unwrap();
            let (chart, _, _) = dec.histogram_with_cdf("DayOfMonth", Some(31)).unwrap();
            let most = chart
                .heights_px
                .iter()
                .enumerate()
                .max_by_key(|(_, &h)| h)
                .unwrap()
                .0
                + 1;
            let least = chart
                .heights_px
                .iter()
                .enumerate()
                .filter(|(_, &h)| h > 0)
                .min_by_key(|(_, &h)| h)
                .unwrap()
                .0
                + 1;
            (2, format!("most: day {most}, least: day {least}"))
        }),
        ("Q19 airlines that stopped flying", |s| {
            // Compare carriers present in the first vs last year.
            let y2016 = s.filtered(Predicate::equals("Year", 2016i64)).unwrap();
            let y2017 = s.filtered(Predicate::equals("Year", 2017i64)).unwrap();
            let (a, _) = y2016.distinct_count("Carrier").unwrap();
            let (b, _) = y2017.distinct_count("Carrier").unwrap();
            (2, format!("{:.0} → {:.0} carriers (none stopped)", a, b))
        }),
        ("Q20 flights that took off but never landed", |s| {
            // As in the paper: determine the data cannot answer this.
            let f = s
                .filtered(
                    Predicate::IsMissing {
                        column: "ArrTime".into(),
                    }
                    .and(Predicate::equals("Cancelled", 0i64))
                    .and(Predicate::equals("Diverted", 0i64)),
                )
                .unwrap();
            let (n, _) = f.row_count().unwrap();
            (
                3,
                format!("{n} candidate rows — dataset lacks the information"),
            )
        }),
    ]
}

/// Figure 3/13: verify the ½-pixel / one-shade accuracy guarantees.
fn accuracy() {
    println!("\n## Figure 3/13 — rendering accuracy of sampled vizketches\n");
    use hillview_sketch::range::RangeSketch;
    use hillview_sketch::traits::Sketch;
    use hillview_viz::accuracy::{max_bar_pixel_error, max_cdf_pixel_error};
    use hillview_viz::cdf::CdfViz;
    use hillview_viz::histogram::HistogramViz;

    let t = generate_flights(&FlightsConfig::new(1_000_000, 99));
    let view = hillview_sketch::TableView::full(Arc::new(t));
    let display = DisplaySpec::new(200, 100);
    let range = RangeSketch::new("DepDelay")
        .summarize(&view, Scope::ALL, 0)
        .unwrap();

    // Exact references.
    let hviz = HistogramViz::new("DepDelay", display)
        .with_buckets(50)
        .exact();
    let hsk = hviz.prepare_numeric(&range).unwrap();
    let exact_chart = hviz.render(&hsk, &hsk.summarize(&view, Scope::ALL, 0).unwrap());
    let cviz = CdfViz::new("DepDelay", display).exact();
    let exact_cdf = cviz.render(
        &cviz
            .prepare(&range)
            .unwrap()
            .summarize(&view, Scope::ALL, 0)
            .unwrap(),
    );

    // Sampled, over 10 seeds.
    let sviz = HistogramViz::new("DepDelay", display).with_buckets(50);
    let ssk = sviz.prepare_numeric(&range).unwrap();
    let scviz = CdfViz::new("DepDelay", display);
    let scsk = scviz.prepare(&range).unwrap();
    let mut worst_bar = 0u32;
    let mut worst_cdf = 0u32;
    for seed in 0..10 {
        let chart = sviz.render(&ssk, &ssk.summarize(&view, Scope::ALL, seed).unwrap());
        worst_bar = worst_bar.max(max_bar_pixel_error(&exact_chart, &chart));
        let cdf = scviz.render(&scsk.summarize(&view, Scope::ALL, seed).unwrap());
        worst_cdf = worst_cdf.max(max_cdf_pixel_error(&exact_cdf, &cdf));
    }
    let mut t = TableWriter::new(&["rendering", "worst error (10 seeds)", "paper bound"]);
    t.row(&[
        "histogram bars".into(),
        format!("{worst_bar} px"),
        "~1 px".into(),
    ]);
    t.row(&[
        "CDF curve".into(),
        format!("{worst_cdf} px"),
        "~1 px".into(),
    ]);
    t.row(&[
        format!("histogram sampling rate {:.4}", ssk.rate),
        format!("{} of 1M rows", (ssk.rate * 1e6) as u64),
        "O(V²) rows".into(),
    ]);
    t.print();
}
