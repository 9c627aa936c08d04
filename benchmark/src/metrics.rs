//! The declared metric set. `BENCHMARK.json` at the repository root states
//! the same names, units, directions and bounds; `run --check` fails when
//! the two differ or when a run emits a different set.

use crate::probe::KERNEL_KINDS;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// layer metrics have none.
    pub bound: Option<f64>,
}

impl MetricDef {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

fn lower(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: false,
        bound: None,
    }
}

fn higher(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

fn bounded(mut def: MetricDef, bound: f64) -> MetricDef {
    def.bound = Some(bound);
    def
}

pub const WORKLOADS: [&str; 4] = ["warm_browse", "zoom_session", "cold_ooc", "ingest"];

/// What a driver gates: every workload emits every one of these, none is
/// ever 0, and each repeats from run to run on a shared VM — which no
/// wall-clock time but set-up's (compute-bound, and compared median to
/// median only) does; see "Why no timing is gated" in `README.md`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        bounded(lower("setup_s", "s"), 0.25),
        bounded(lower("root_kb_per_op", "KB"), 0.05),
        bounded(lower("mem_bytes_per_row", "B"), 0.02),
        bounded(lower("stored_bytes_per_row", "B"), 0.01),
    ]
}

/// The cycle's time, whole and by what the analyst was doing. These are
/// what the analyst sees, but they do not repeat from run to run within
/// any bound a driver accepts, so they travel with the layer metrics and
/// their bounds are advisory: `compare` applies them, a driver does not.
/// A timing's value is its undisturbed time (`stats::undisturbed`), from
/// untraced cycles only.
fn cycle_parts() -> Vec<MetricDef> {
    vec![
        bounded(lower("cycle_ms", "ms"), 0.10),
        bounded(lower("table_ms", "ms"), 0.10),
        bounded(lower("chart_ms", "ms"), 0.10),
        bounded(lower("first_paint_ms", "ms"), 0.10),
        bounded(lower("cold_first_chart_ms", "ms"), 0.10),
        bounded(lower("revisit_ms", "ms"), 0.10),
        bounded(higher("ingest_rows_per_s", "rows/s"), 0.10),
    ]
}

/// Session predicates of `zoom_session`, by the shape `BENCH_fused.json`
/// names: a zone-skippable sorted range, a selective dictionary equality,
/// a selective f64 range.
pub const PREDICATE_SHAPES: [&str; 3] = ["window", "dict", "f64"];

/// From a traced run: the cycle's parts from its untraced half, the rest
/// from the traced pass. A layer a workload bypasses reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = cycle_parts();
    for n in 1..=11 {
        out.push(lower(&format!("op.O{n}_ms"), "ms"));
    }
    out.extend([
        lower("core.tree_ms", "ms"),
        lower("core.trees_per_op", "count"),
        lower("core.orchestration_ms", "ms"),
        lower("core.partials_per_op", "count"),
        lower("core.leaf_tasks_per_op", "count"),
        lower("core.spreadsheet.glue_us", "us"),
        higher("core.cache.hit_ratio", "ratio"),
        higher("core.cache.coalesced", "count"),
        lower("core.cache.evictions", "count"),
        lower("core.cache.resident_kb", "KB"),
    ]);
    for shape in PREDICATE_SHAPES {
        out.push(lower(&format!("core.filter_{shape}_ms"), "ms"));
        out.push(lower(&format!("core.run_filtered_{shape}_ms"), "ms"));
    }
    out.extend([
        lower("core.reload_ms", "ms"),
        lower("core.load_ms", "ms"),
        lower("core.pool.tasks_panicked", "count"),
        lower("core.failed_ops", "count"),
    ]);
    for kind in KERNEL_KINDS {
        out.push(lower(&format!("sketch.{kind}_ms_per_mrow"), "ms/Mrow"));
    }
    out.extend([
        lower("sketch.filtered_ms_per_mrow", "ms/Mrow"),
        lower("sketch.merge_us", "us"),
        lower("sketch.summary_bytes", "B"),
        lower("columnar.decode_ms_per_mrow", "ms/Mrow"),
        lower("columnar.predicate_ms_per_mrow", "ms/Mrow"),
        higher("columnar.zone_skip_fraction", "ratio"),
        lower("columnar.blockcache.faults_per_cycle", "count"),
        lower("columnar.blockcache.mb_faulted_per_cycle", "MB"),
        lower("columnar.blockcache.fault_share", "ratio"),
        higher("columnar.blockcache.hit_ratio", "ratio"),
        lower("columnar.blockcache.evictions", "count"),
        lower("storage.probe_us", "us"),
        lower("storage.open_ms", "ms"),
        higher("storage.read_heap_mb_per_s", "MB/s"),
        higher("storage.csv_parse_rows_per_s", "rows/s"),
        higher("storage.spill_rows_per_s", "rows/s"),
        higher("storage.encode_mb_per_s", "MB/s"),
        higher("storage.compression_ratio", "ratio"),
        lower("net.wire_encode_us", "us"),
        lower("net.wire_decode_us", "us"),
        lower("net.root_messages_per_op", "count"),
        lower("net.frame_bytes_p50", "B"),
        lower("viz.prepare_us", "us"),
        lower("viz.render_us", "us"),
        lower("trace_overhead_pct", "%"),
    ]);
    out
}
