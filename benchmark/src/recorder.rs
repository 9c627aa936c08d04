//! Per-run accounting: every operation a workload issues goes through
//! [`Recorder::op`], which times it, checks its output, attributes its time
//! to the cycle's end-to-end metrics and — in the traced pass — records its
//! spans, counter deltas and layer probes.

use crate::fixture::{Counters, DISPLAY};
use crate::ops::{Class, Op, ProbeTarget};
use crate::probe::{replay_op, Layers, OpProbe};
use crate::trace::{SpanAt, Tracer};
use hillview_columnar::Predicate;
use hillview_core::{DatasetId, Engine, EngineError};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An operation's place in its cycle, beyond its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Plain,
    /// The cycle's first chart, on data in the coldest state the workload
    /// has: feeds `cold_first_chart_ms` instead of `chart_ms`.
    FirstChart,
    /// A re-render of a chart already rendered in this cycle: feeds
    /// `revisit_ms` instead of `chart_ms`, and is not probed.
    Revisit,
}

/// The measured values of one cycle.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    /// Sum of the cycle's timed operations and steps; the harness's own
    /// bookkeeping between them (digests, cache clears) is not in it.
    pub total: Duration,
    pub table: Duration,
    pub chart: Duration,
    pub first_chart: Duration,
    revisit: Duration,
    revisits: u32,
    first_paint: Duration,
    pub ops: u32,
    pub root_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Cycle {
    pub fn cycle_ms(&self) -> f64 {
        ms(self.total)
    }
    pub fn table_ms(&self) -> f64 {
        ms(self.table)
    }
    pub fn chart_ms(&self) -> f64 {
        ms(self.chart)
    }
    pub fn first_chart_ms(&self) -> f64 {
        ms(self.first_chart)
    }
    /// Mean over the cycle's re-renders.
    pub fn revisit_ms(&self) -> f64 {
        ms(self.revisit) / self.revisits.max(1) as f64
    }
    /// Mean over the cycle's operations of the time until the analyst sees
    /// anything: the first partial, or the result when none came earlier.
    pub fn first_paint_ms(&self) -> f64 {
        ms(self.first_paint) / self.ops.max(1) as f64
    }
}

/// What a position in the cycle is, for the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    Table,
    Chart,
    FirstChart,
    Revisit,
    /// A timed step that is not a spreadsheet operation.
    Step,
}

#[derive(Debug, Clone)]
pub struct Slot {
    pub name: String,
    pub kind: SlotKind,
    pub wall_ms: Vec<f64>,
    /// Time to first paint; empty for steps.
    pub paint_ms: Vec<f64>,
}

/// One operation to issue.
pub struct OpCall<'a> {
    pub op: &'a Op,
    pub role: Role,
    pub engine: &'a Arc<Engine>,
    pub dataset: DatasetId,
    /// The output must equal every other output recorded under this key in
    /// the current verification scope.
    pub expect: String,
    /// Where the traced pass replays the operation: an engine, a
    /// materialized dataset on it, and a predicate to fuse. `None` skips
    /// the replay.
    pub probe: Option<(&'a Arc<Engine>, DatasetId, Option<Predicate>)>,
}

/// One row of the traced pass's per-operation table.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpRow {
    pub wall: Duration,
    pub trees: Duration,
    pub probe: OpProbe,
}

#[derive(Default)]
pub struct Recorder {
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations by cause.
    pub errors: BTreeMap<String, u64>,
    /// Cycles of the untraced passes: the only source of end-to-end metrics.
    pub cycles: Vec<Cycle>,
    /// Cycles of the traced pass, kept apart to measure tracing overhead.
    pub traced_cycles: Vec<Cycle>,
    /// One entry per position in the cycle — every cycle of a workload
    /// issues the same sequence — with that position's wall times over the
    /// untraced cycles.
    pub slots: Vec<Slot>,
    position: usize,
    pub tracer: Option<Tracer>,
    pub layers: Layers,
    pub op_rows: BTreeMap<&'static str, Vec<OpRow>>,
    expected: HashMap<String, u64>,
    current: Cycle,
}

fn error_kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Sketch(_) => "Sketch",
        EngineError::Wire(_) => "Wire",
        EngineError::DatasetMissing { .. } => "DatasetMissing",
        EngineError::WorkerDown(_) => "WorkerDown",
        EngineError::Cancelled => "Cancelled",
        EngineError::Source(_) => "Source",
        EngineError::UnknownDataset(_) => "UnknownDataset",
        EngineError::Unregistered(_) => "Unregistered",
        EngineError::LeafPanicked { .. } => "LeafPanicked",
        EngineError::DeadlineExceeded { .. } => "DeadlineExceeded",
        EngineError::RetriesExhausted { .. } => "RetriesExhausted",
        EngineError::Internal(_) => "Internal",
    }
}

impl Recorder {
    pub fn new(seed: u64) -> Recorder {
        Recorder {
            seed,
            ..Recorder::default()
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Count one failed operation or verification under `cause`.
    pub fn fail(&mut self, cause: &str) {
        self.failed += 1;
        *self.errors.entry(cause.to_string()).or_default() += 1;
    }

    /// A verification that is not itself a timed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("verification failed: {what}");
            self.fail(&format!("verify:{what}"));
        }
    }

    /// Pin the output expected under `key` (a reference answer).
    pub fn pin(&mut self, key: &str, digest: u64) {
        self.expected.insert(key.to_string(), digest);
    }

    /// Forget recorded outputs: a new verification scope begins.
    pub fn forget_expected(&mut self) {
        self.expected.clear();
    }

    /// Time a step of the cycle that is not a spreadsheet operation.
    pub fn step<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start_ns = self.tracer.as_ref().map(Tracer::now_ns);
        let started = Instant::now();
        let value = f();
        let took = started.elapsed();
        self.current.total += took;
        self.note(name, SlotKind::Step, took, None);
        if let (Some(tracer), Some(start_ns)) = (&mut self.tracer, start_ns) {
            let op_id = tracer.next_op_id();
            tracer.record(
                SpanAt {
                    parent: 0,
                    op_id,
                    probe: false,
                },
                layer,
                name,
                start_ns,
                took,
            );
        }
        (value, took)
    }

    /// Issue one spreadsheet operation; returns its output digest.
    pub fn op(&mut self, call: OpCall<'_>) -> Option<u64> {
        let before = self.tracing().then(|| Counters::read(call.engine));
        let start_ns = self.tracer.as_ref().map(Tracer::now_ns);
        let started = Instant::now();
        let result = call
            .op
            .spec
            .run(call.engine, call.dataset, DISPLAY, self.seed);
        let wall = started.elapsed();
        self.attempted += 1;
        self.current.total += wall;
        let kind = match (call.op.spec.class(), call.role) {
            (_, Role::Revisit) => {
                self.current.revisit += wall;
                self.current.revisits += 1;
                SlotKind::Revisit
            }
            (_, Role::FirstChart) => {
                self.current.first_chart += wall;
                SlotKind::FirstChart
            }
            (Class::Table, Role::Plain) => {
                self.current.table += wall;
                SlotKind::Table
            }
            (Class::Chart, Role::Plain) => {
                self.current.chart += wall;
                SlotKind::Chart
            }
        };
        // A failed operation never painted: it counts as its whole wait.
        let paint = match &result {
            Ok((_, stats)) => stats.first_partial.map_or(wall, |fp| fp.min(wall)),
            Err(_) => wall,
        };
        self.note(call.op.name, kind, wall, Some(paint));
        self.current.first_paint += paint;
        self.current.ops += 1;
        let (rendered, stats) = match result {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("{} failed: {e}", call.op.name);
                self.fail(error_kind(&e));
                return None;
            }
        };
        let digest = rendered.digest();
        match self.expected.get(&call.expect) {
            Some(&want) if want != digest => {
                eprintln!(
                    "{} ({}): output differs from its reference",
                    call.op.name, call.expect
                );
                self.fail("verify:output");
            }
            Some(_) => {}
            None => {
                self.expected.insert(call.expect.clone(), digest);
            }
        }
        self.current.root_bytes += stats.root_bytes;
        if !self.tracing() {
            return Some(digest);
        }

        // Traced pass: spans, counter deltas at the same boundary, probes.
        let after = Counters::read(call.engine);
        let before = before.expect("read when tracing");
        let tracer = self.tracer.as_mut().expect("tracing");
        let start_ns = start_ns.expect("read when tracing");
        let op_id = tracer.next_op_id();
        let at = |parent| SpanAt {
            parent,
            op_id,
            probe: false,
        };
        let root = tracer.record(at(0), "core::spreadsheet", call.op.name, start_ns, wall);
        // The engine reports the trees' total; the rest of the call is
        // spreadsheet glue and `viz`.
        let trees = stats.duration;
        tracer.record(at(root), "core", "core.trees", start_ns, trees);
        let layers = &mut self.layers;
        layers.sample(
            "core.spreadsheet.glue_us",
            wall.saturating_sub(trees).as_secs_f64() * 1e6,
        );
        layers.sample("core.trees_per_op", stats.trees as f64);
        layers.sample("core.partials_per_op", stats.partials as f64);
        layers.sample(
            "core.leaf_tasks_per_op",
            (after.leaf_tasks - before.leaf_tasks) as f64,
        );
        layers.sample("net.root_messages_per_op", stats.root_messages as f64);
        if stats.root_messages > 0 {
            layers.sample(
                "net.frame_bytes_p50",
                stats.root_bytes as f64 / stats.root_messages as f64,
            );
        }
        let mut row = OpRow {
            wall,
            trees,
            probe: OpProbe::default(),
        };
        if let Some((engine, dataset, filter)) = call.probe {
            let target = ProbeTarget {
                engine,
                dataset,
                filter,
                display: DISPLAY,
                seed: self.seed,
            };
            self.attempted += 1;
            match replay_op(&call.op.spec, &target, tracer, root, op_id, layers) {
                Ok(probe) => {
                    row.probe = probe;
                    if probe.mismatches > 0 {
                        eprintln!(
                            "{}: locally folded bytes differ from the tree's",
                            call.op.name
                        );
                        self.fail("verify:fold");
                    }
                }
                Err(e) => {
                    eprintln!("{} probe failed: {e}", call.op.name);
                    self.fail(error_kind(&e));
                }
            }
        }
        if call.role != Role::Revisit {
            self.op_rows.entry(call.op.name).or_default().push(row);
        }
        Some(digest)
    }

    /// Like [`Recorder::step`] for a step that can fail: a failure counts
    /// as a failed operation and yields `None`.
    pub fn try_step<T, E: std::fmt::Display>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<(T, Duration)> {
        self.attempted += 1;
        match self.step(layer, name, f) {
            (Ok(v), took) => Some((v, took)),
            (Err(e), _) => {
                eprintln!("{name} failed: {e}");
                self.fail(&format!("step:{name}"));
                None
            }
        }
    }

    /// Time a probe outside any operation; a span is kept when tracing.
    pub fn probe<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start_ns = self.tracer.as_ref().map(Tracer::now_ns);
        let started = Instant::now();
        let value = f();
        let took = started.elapsed();
        if let (Some(tracer), Some(start_ns)) = (&mut self.tracer, start_ns) {
            let op_id = tracer.next_op_id();
            tracer.record(
                SpanAt {
                    parent: 0,
                    op_id,
                    probe: true,
                },
                layer,
                name,
                start_ns,
                took,
            );
        }
        (value, took)
    }

    /// Close the current cycle and file it with its pass.
    /// File a wall time under the current position of the cycle.
    fn note(&mut self, name: &str, kind: SlotKind, wall: Duration, paint: Option<Duration>) {
        if self.tracing() {
            return;
        }
        if self.slots.len() <= self.position {
            self.slots.push(Slot {
                name: name.to_string(),
                kind,
                wall_ms: Vec::new(),
                paint_ms: Vec::new(),
            });
        }
        let slot = &mut self.slots[self.position];
        slot.wall_ms.push(ms(wall));
        slot.paint_ms.extend(paint.map(ms));
        self.position += 1;
    }

    pub fn end_cycle(&mut self) {
        self.position = 0;
        let cycle = std::mem::take(&mut self.current);
        if self.tracing() {
            self.traced_cycles.push(cycle);
        } else {
            self.cycles.push(cycle);
        }
    }

    /// Drop the unmeasured warm-up cycles; what they verified still counts.
    pub fn discard_warmup(&mut self) {
        self.cycles.clear();
        self.slots.clear();
    }
}
