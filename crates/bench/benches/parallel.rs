//! Thread-scaling benchmark for work-stealing parallel leaf execution.
//!
//! One worker holds a single 1M-row flights-shaped micropartition — the
//! worst case for the old one-task-per-partition executor, which ran it on
//! one pool thread regardless of core count. With recursive range
//! splitting (leaf grain 64k rows → 16 sub-tasks) the same query spreads
//! across every pool thread. This bench measures median latency of three
//! kernels (exact histogram, Misra-Gries heavy hitters, moments) at 1, 2,
//! 4, and 8 pool threads, over plain and packed column storage, asserts
//! the bytes are identical across thread counts (the determinism
//! contract), and rewrites `BENCH_parallel.json` at the repository root
//! with the scaling curve and the 8-thread-vs-1-thread speedup.
//!
//! Note: speedups are bounded by the physical cores of the host running
//! the bench; the JSON records `host_cores` so the curve can be read in
//! context.

use criterion::Criterion;
use hillview_columnar::column::{Column, DictColumn, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, NullMask, Table};
use hillview_core::dataset::{FnSource, SourceRegistry, SourceSpec};
use hillview_core::erased::{erase, ErasedSketch};
use hillview_core::{Cluster, ClusterConfig, DatasetId, QueryOptions};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 1_000_000;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const GRAIN: usize = 65_536;

/// splitmix64, the same generator the other benches use.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 1M-row flights-shaped table: a 12-bit-range delay column (mostly
/// small, occasionally huge — shuffled, so it bit-packs but cannot
/// run-length encode) and a skewed low-cardinality carrier column.
fn flights_shaped(packed: bool) -> Table {
    const CARRIERS: [&str; 12] = [
        "WN", "DL", "AA", "UA", "OO", "B6", "AS", "NK", "F9", "G4", "HA", "YX",
    ];
    let mut state = 0xF11u64;
    let mut delays = Vec::with_capacity(ROWS);
    let mut carriers: Vec<Option<&str>> = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        let r = mix(&mut state);
        // Delay in [-60, 4035]: a 4096-value frame.
        delays.push((r % 4096) as i64 - 60);
        // Zipf-ish carrier skew: the top two carriers take half the rows.
        let c = (mix(&mut state) % 100) as usize;
        let idx = match c {
            0..=29 => 0,
            30..=49 => 1,
            50..=64 => 2,
            65..=76 => 3,
            _ => 4 + c % 8,
        };
        carriers.push(Some(CARRIERS[idx]));
    }
    let delay_col = if packed {
        I64Column::new(delays, NullMask::none())
    } else {
        I64Column::plain(delays, NullMask::none())
    };
    let carrier_packed = DictColumn::from_strings(carriers);
    let carrier_col = if packed {
        carrier_packed
    } else {
        DictColumn::plain(
            carrier_packed.codes().to_vec(),
            carrier_packed.dictionary().clone(),
            carrier_packed.nulls().clone(),
        )
    };
    Table::builder()
        .column("DepDelay", ColumnKind::Int, Column::Int(delay_col))
        .column("Carrier", ColumnKind::Category, Column::Cat(carrier_col))
        .build()
        .unwrap()
}

/// One worker × `threads` pool threads holding the 1M-row table as a
/// single micropartition, so intra-partition splitting is the only source
/// of parallelism.
fn cluster(threads: usize, packed: bool) -> (Arc<Cluster>, DatasetId) {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new(
        "flights1m",
        move |_w, _n, _mp, _snap| Ok(vec![flights_shaped(packed)]),
    )));
    let cfg = ClusterConfig {
        workers: 1,
        threads_per_worker: threads,
        micropartition_rows: ROWS,
        batch_interval: Duration::from_millis(100),
        link: hillview_net::LinkConfig::instant(),
        worker_timeout: std::time::Duration::from_secs(30),
        leaf_grain_rows: GRAIN,
        cache_budget_bytes: 32 << 20,
        block_cache_bytes: 256 << 20,
    };
    let c = Cluster::new(cfg, sources, UdfRegistry::new());
    let ds = DatasetId(1);
    c.load(
        ds,
        &SourceSpec {
            source: Arc::from("flights1m"),
            snapshot: 0,
        },
    )
    .unwrap();
    (c, ds)
}

struct Case {
    sketch: &'static str,
    encoding: &'static str,
    /// Median ns, aligned with `THREADS`.
    ns: Vec<u128>,
}

fn main() {
    let mut c = Criterion::default();
    let mut cases = Vec::new();
    let sketches: Vec<(&'static str, Arc<dyn ErasedSketch>)> = vec![
        (
            "histogram",
            erase(HistogramSketch::streaming(
                "DepDelay",
                BucketSpec::numeric(-60.0, 4036.0, 100),
            )),
        ),
        (
            "heavy_hitters_mg",
            erase(MisraGriesSketch::new("Carrier", 8)),
        ),
        ("moments", erase(MomentsSketch::new("DepDelay", 2))),
    ];

    for packed in [false, true] {
        let encoding = if packed { "packed" } else { "plain" };
        let clusters: Vec<_> = THREADS.iter().map(|&t| cluster(t, packed)).collect();
        for (name, sketch) in &sketches {
            // Determinism gate before timing: every thread count must
            // produce identical bytes.
            let reference = clusters[0]
                .0
                .run_erased(clusters[0].1, None, sketch, &QueryOptions::default())
                .unwrap()
                .bytes;
            for (cl, ds) in &clusters[1..] {
                let got = cl
                    .run_erased(*ds, None, sketch, &QueryOptions::default())
                    .unwrap()
                    .bytes;
                assert_eq!(got, reference, "{name}/{encoding} differs across threads");
            }
            let mut g = c.benchmark_group(&format!("{name}_{encoding}"));
            g.sample_size(10);
            for (i, &threads) in THREADS.iter().enumerate() {
                let (cl, ds) = &clusters[i];
                g.bench_function(&format!("{threads}t"), |b| {
                    b.iter(|| {
                        cl.run_erased(*ds, None, sketch, &QueryOptions::default())
                            .unwrap()
                    });
                });
            }
            g.finish();
            let ms = c.measurements();
            let ns: Vec<u128> = ms[ms.len() - THREADS.len()..]
                .iter()
                .map(|m| m.median.as_nanos())
                .collect();
            cases.push(Case {
                sketch: name,
                encoding,
                ns,
            });
        }
    }

    write_json(&cases);
    println!(
        "\n{:<18} {:>8} {:>11} {:>11} {:>11} {:>11} {:>9}",
        "sketch", "encoding", "1t_ns", "2t_ns", "4t_ns", "8t_ns", "8t_speedup"
    );
    for case in &cases {
        println!(
            "{:<18} {:>8} {:>11} {:>11} {:>11} {:>11} {:>8.2}x",
            case.sketch,
            case.encoding,
            case.ns[0],
            case.ns[1],
            case.ns[2],
            case.ns[3],
            case.ns[0] as f64 / case.ns[3].max(1) as f64,
        );
    }
}

fn write_json(cases: &[Case]) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\n  \"rows\": {ROWS},\n  \"leaf_grain_rows\": {GRAIN},\n  \"host_cores\": {cores},\n  \"bench\": \"work-stealing leaf split: median query ns on one 1M-row micropartition at 1/2/4/8 pool threads; results asserted bit-identical across thread counts\",\n  \"cases\": [\n"
    );
    for (i, case) in cases.iter().enumerate() {
        let threads: Vec<String> = THREADS
            .iter()
            .zip(&case.ns)
            .map(|(&t, &ns)| format!("{{\"threads\": {t}, \"ns\": {ns}}}"))
            .collect();
        out.push_str(&format!(
            "    {{\"sketch\": \"{}\", \"encoding\": \"{}\", \"runs\": [{}], \"speedup_8t_vs_1t\": {:.2}}}{}\n",
            case.sketch,
            case.encoding,
            threads.join(", "),
            case.ns[0] as f64 / case.ns[3].max(1) as f64,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, out).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}
