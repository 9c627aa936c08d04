//! The traced run's layer probes: after an operation returns, its sketches
//! are replayed one layer at a time — kernel per partition, column decode,
//! merge, wire, render, and the whole tree with the cache off — outside the
//! operation's wall time.

use crate::ops::{OpSpec, ProbeTarget, Stage};
use crate::trace::{SpanAt, Tracer};
use bytes::Bytes;
use hillview_columnar::scan::{scan_values, Selection};
use hillview_columnar::Column;
use hillview_core::{EngineError, EngineResult};
use hillview_sketch::TableView;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples and counts gathered per layer metric during the traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// A metric that is one number for the run, not a median of samples.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The set value, else the median of the samples, else 0: a layer this
    /// workload bypasses reports no work.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .copied()
            .unwrap_or_else(|| crate::stats::median(self.samples(name)))
    }
}

/// Sketch kinds that have a `sketch.<kind>_ms_per_mrow` metric.
pub const KERNEL_KINDS: [&str; 9] = [
    "nextk",
    "quantile",
    "range",
    "histogram",
    "bottomk",
    "heavy",
    "distinct",
    "stacked",
    "heatmap",
];

/// Where one operation's time went, summed over its sketches.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpProbe {
    /// Worker 0's partitions summarized one after another.
    pub kernel: Duration,
    pub decode: Duration,
    pub merge: Duration,
    pub wire: Duration,
    pub render: Duration,
    /// Tree wall time not explained by worker 0's kernel critical path,
    /// its merges, or the wire.
    pub orchestration: Duration,
    /// A deterministic sketch whose locally folded bytes differ from the
    /// tree's: a wrong answer.
    pub mismatches: u32,
}

/// The seed `aggregate_worker` gives the leaf of partition `i` on worker `w`.
fn leaf_seed(seed: u64, worker: usize, partition: usize) -> u64 {
    seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (partition as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Decode one column of `view` through the scan pipeline into a sink that
/// only keeps the compiler from deleting the scan.
fn decode_column(view: &TableView, name: &str) -> EngineResult<Duration> {
    let column = view.table().column_by_name(name)?;
    let sel = Selection::Members(view.members());
    let mut missing = 0u64;
    let started = Instant::now();
    match column {
        Column::Double(c) => {
            let mut acc = 0.0f64;
            scan_values(
                &sel,
                c.data(),
                c.nulls().bitmap(),
                &mut missing,
                |v: f64| acc += v,
            );
            black_box(acc);
        }
        Column::Int(c) | Column::Date(c) => {
            let mut acc = 0i64;
            scan_values(
                &sel,
                c.storage(),
                c.nulls().bitmap(),
                &mut missing,
                |v: i64| acc = acc.wrapping_add(v),
            );
            black_box(acc);
        }
        Column::Str(c) | Column::Cat(c) => {
            let mut acc = 0u32;
            scan_values(
                &sel,
                c.codes(),
                c.nulls().bitmap(),
                &mut missing,
                |v: u32| acc = acc.wrapping_add(v),
            );
            black_box(acc);
        }
    }
    black_box(missing);
    Ok(started.elapsed())
}

fn ms_per_mrow(d: Duration, rows: usize) -> f64 {
    d.as_secs_f64() * 1e3 / (rows.max(1) as f64 / 1e6)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct SpanSink<'a> {
    tracer: &'a mut Tracer,
    at: SpanAt,
}

impl SpanSink<'_> {
    fn probe(&mut self, layer: &'static str, name: String, start_ns: u64, len: Duration) {
        self.tracer.record(self.at, layer, name, start_ns, len);
    }
}

fn replay_stage(
    stage: &Stage,
    target: &ProbeTarget<'_>,
    threads_per_worker: usize,
    sink: &mut SpanSink<'_>,
    layers: &mut Layers,
    out: &mut OpProbe,
) -> EngineResult<()> {
    let cluster = target.engine.cluster();
    let sketch = &stage.sketch;
    let (mut kernel, mut merge) = (Duration::ZERO, Duration::ZERO);
    let (mut rows0, mut merges0) = (0usize, 0u32);
    let mut folded = sketch.identity_bytes();
    for w in 0..cluster.num_workers() {
        let views =
            cluster
                .worker(w)
                .partitions(target.dataset)
                .ok_or(EngineError::DatasetMissing {
                    worker: w,
                    dataset: target.dataset,
                })?;
        let mut acc = sketch.identity_bytes();
        for (i, view) in views.iter().enumerate() {
            let seed = leaf_seed(target.seed, w, i);
            let start_ns = sink.tracer.now_ns();
            let started = Instant::now();
            let bytes = match &target.filter {
                None => sketch.summarize_to_bytes(view, seed)?,
                Some(p) => sketch.summarize_filtered_to_bytes(view, p, seed)?,
            };
            let took = started.elapsed();
            let started = Instant::now();
            acc = sketch.merge_bytes(&acc, &bytes)?;
            // Only worker 0 is timed; the others are folded so the result
            // can be compared with the tree's.
            if w == 0 {
                merge += started.elapsed();
                merges0 += 1;
                kernel += took;
                rows0 += view.len();
                sink.probe(
                    "sketch",
                    format!("summarize.{}", stage.kind),
                    start_ns,
                    took,
                );
            }
        }
        folded = sketch.merge_bytes(&folded, &acc)?;
    }

    let mut decode = Duration::ZERO;
    if let Some(views) = cluster.worker(0).partitions(target.dataset) {
        for column in &stage.columns {
            let start_ns = sink.tracer.now_ns();
            let mut took = Duration::ZERO;
            for view in views.iter() {
                took += decode_column(view, column)?;
            }
            sink.probe("columnar", format!("decode.{column}"), start_ns, took);
            layers.sample("columnar.decode_ms_per_mrow", ms_per_mrow(took, rows0));
            decode += took;
        }
    }

    let opts = target.options();
    let start_ns = sink.tracer.now_ns();
    let outcome = match &target.filter {
        None => target.engine.run_erased(target.dataset, sketch, &opts)?,
        Some(p) => target
            .engine
            .run_filtered_erased(target.dataset, p.clone(), sketch, &opts)?,
    };
    sink.probe(
        "core",
        format!("tree.{}", stage.kind),
        start_ns,
        outcome.duration,
    );
    if sketch.cache_identity().is_some() && folded != outcome.bytes {
        out.mismatches += 1;
    }

    let merged: &Bytes = &outcome.bytes;
    let start_ns = sink.tracer.now_ns();
    let tail = stage.tail(merged)?;
    sink.probe(
        "net",
        format!("wire.{}", stage.kind),
        start_ns,
        tail.decode + tail.encode,
    );

    let wire = tail.decode + tail.encode;
    let critical = kernel / threads_per_worker.max(1) as u32;
    let orchestration = outcome.duration.saturating_sub(critical + merge + wire);

    if target.filter.is_some() {
        layers.sample("sketch.filtered_ms_per_mrow", ms_per_mrow(kernel, rows0));
    } else if KERNEL_KINDS.contains(&stage.kind) {
        layers.sample(
            &format!("sketch.{}_ms_per_mrow", stage.kind),
            ms_per_mrow(kernel, rows0),
        );
    }
    if merges0 > 0 {
        layers.sample("sketch.merge_us", micros(merge) / merges0 as f64);
    }
    layers.sample("sketch.summary_bytes", merged.len() as f64);
    layers.sample("net.wire_encode_us", micros(tail.encode));
    layers.sample("net.wire_decode_us", micros(tail.decode));
    if !stage.prepare.is_zero() {
        layers.sample("viz.prepare_us", micros(stage.prepare));
        layers.sample("viz.render_us", micros(tail.render));
    }
    layers.sample("core.tree_ms", outcome.duration.as_secs_f64() * 1e3);
    layers.sample("core.orchestration_ms", orchestration.as_secs_f64() * 1e3);

    out.kernel += kernel;
    out.decode += decode;
    out.merge += merge;
    out.wire += wire;
    out.render += tail.render;
    out.orchestration += orchestration;
    Ok(())
}

/// Replay every sketch of `op` on `target`, recording probe spans under
/// `parent` and samples into `layers`.
pub fn replay_op(
    op: &OpSpec,
    target: &ProbeTarget<'_>,
    tracer: &mut Tracer,
    parent: u32,
    op_id: u32,
    layers: &mut Layers,
) -> EngineResult<OpProbe> {
    let threads = target.engine.cluster().config().threads_per_worker;
    let filter = match (target.filter.clone(), op.own_filter()) {
        (Some(outer), Some(own)) => Some(outer.and(own)),
        (outer, own) => outer.or(own),
    };
    let target = &ProbeTarget {
        engine: target.engine,
        dataset: target.dataset,
        filter,
        display: target.display,
        seed: target.seed,
    };
    let mut sink = SpanSink {
        tracer,
        at: SpanAt {
            parent,
            op_id,
            probe: true,
        },
    };
    let mut out = OpProbe::default();
    for stage in op.stages(target)? {
        replay_stage(&stage, target, threads, &mut sink, layers, &mut out)?;
    }
    Ok(out)
}
