//! `run`: set up, measure in passes, verify, and report.
//!
//! Load model: a closed loop with one analyst — one client thread issues
//! the next operation when the previous one returns, in one process.
//! Every workload's measured window is split into three passes, and with
//! several workloads selected pass 1 of each runs before pass 2 of any, so
//! that a burst of neighbour interference (they last about 30 s on the
//! shared VM this was sized on) lands in one pass of every workload rather
//! than in all of one. Each timing is the median over the pooled cycles.

use crate::fixture::{host_cores, threads_per_worker, BoxError, Counters, WORKERS};
use crate::json::Json;
use crate::metrics::{end_to_end, per_layer, MetricDef};
use crate::recorder::{Cycle, OpRow, Recorder, Slot, SlotKind};
use crate::stats::{median, undisturbed, Dist};
use crate::trace::Tracer;
use crate::workloads::{build, Built, Exact, Scale};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const PASSES: usize = 3;
/// A pass never ends before this many cycles, however short its window.
const MIN_CYCLES_PER_PASS: usize = 2;

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Cycles(usize),
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub scale: Scale,
    pub setup_repeats: usize,
    pub passes: usize,
    /// Per untraced pass.
    pub untraced: Budget,
    /// `None`: no traced pass.
    pub traced: Option<Budget>,
}

impl Plan {
    /// `seconds` of measuring: all of it untraced, or half and half.
    pub fn timed(seed: u64, scale: Scale, seconds: f64, trace: bool) -> Plan {
        let untraced = if trace { seconds / 2.0 } else { seconds };
        Plan {
            seed,
            scale,
            setup_repeats: crate::workloads::SETUP_REPEATS,
            passes: PASSES,
            untraced: Budget::Time(Duration::from_secs_f64(untraced / PASSES as f64)),
            traced: trace.then(|| Budget::Time(Duration::from_secs_f64(seconds / 2.0))),
        }
    }
}

/// One reported metric: the value that is gated, and beside it the
/// distribution of the samples it was taken from.
#[derive(Debug, Clone)]
pub struct Reported {
    pub def: MetricDef,
    pub value: f64,
    pub dist: Dist,
}

impl Reported {
    fn exact(def: MetricDef, value: f64) -> Reported {
        Reported {
            def,
            value,
            dist: Dist {
                median: value,
                p25: value,
                tail: None,
                n: 1,
            },
        }
    }

    /// The median of `samples` is the value.
    fn median_of(def: MetricDef, samples: &[f64]) -> Reported {
        let dist = Dist::of(samples);
        Reported {
            def,
            value: dist.median,
            dist,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.def.unit)),
            ("better", Json::str(self.def.better())),
            ("median", Json::Num(self.dist.median)),
            ("p25", Json::Num(self.dist.p25)),
            ("n", Json::Num(self.dist.n as f64)),
        ];
        if let Some(bound) = self.def.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        if let Some((pct, value)) = self.dist.tail {
            fields.push(("tail_percentile", Json::Num(pct)));
            fields.push(("tail", Json::Num(value)));
        }
        Json::obj(fields)
    }
}

pub struct WorkloadReport {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<(String, u64)>,
    pub end_to_end: Vec<Reported>,
    /// Empty without a traced pass.
    pub per_layer: Vec<Reported>,
    /// Wall-clock `(start, end)` of each pass, seconds since the epoch,
    /// so that an interference burst can be placed.
    pub passes: Vec<(f64, f64)>,
    /// Every untraced cycle's timings, so a reader can apply another
    /// statistic than the reported one.
    pub cycles: Vec<(&'static str, Vec<f64>)>,
    pub op_rows: Vec<(&'static str, OpRow, usize)>,
    pub accounting: Option<(usize, f64)>,
    pub tracer: Option<Tracer>,
}

impl WorkloadReport {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|r| r.def.name == name)
            .map(|r| r.value)
    }
}

struct Running {
    name: String,
    built: Built,
    rec: Recorder,
    passes: Vec<(f64, f64)>,
}

fn epoch_secs() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn run_pass(r: &mut Running, budget: Budget) {
    r.built.workload.begin_pass(&mut r.rec);
    let started = (epoch_secs(), Instant::now());
    let mut cycles = 0;
    loop {
        r.built.workload.cycle(&mut r.rec);
        cycles += 1;
        let done = match budget {
            Budget::Cycles(n) => cycles >= n,
            Budget::Time(window) => cycles >= MIN_CYCLES_PER_PASS && started.1.elapsed() >= window,
        };
        if done {
            break;
        }
    }
    r.passes.push((started.0, epoch_secs()));
}

type PerCycle = fn(&Cycle) -> f64;

/// The timings a cycle has a value for, by metric name.
const CYCLE_TIMINGS: [(&str, PerCycle); 6] = [
    ("cycle_ms", Cycle::cycle_ms),
    ("table_ms", Cycle::table_ms),
    ("chart_ms", Cycle::chart_ms),
    ("first_paint_ms", Cycle::first_paint_ms),
    ("cold_first_chart_ms", Cycle::first_chart_ms),
    ("revisit_ms", Cycle::revisit_ms),
];

fn dist_of(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> Dist {
    Dist::of(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// Undisturbed time of the slots `pick` selects, summed.
fn slots_ms(slots: &[Slot], pick: impl Fn(&Slot) -> bool) -> f64 {
    slots
        .iter()
        .filter(|s| pick(s))
        .map(|s| undisturbed(&s.wall_ms))
        .sum()
}

fn end_to_end_values(r: &Running, exact: Exact) -> Vec<Reported> {
    let cycles = &r.rec.cycles;
    let ops: u64 = cycles.iter().map(|c| c.ops as u64).sum();
    let root_bytes: u64 = cycles.iter().map(|c| c.root_bytes).sum();
    end_to_end()
        .into_iter()
        .map(|def| match def.name.as_str() {
            "setup_s" => Reported {
                def,
                value: r
                    .built
                    .setup_s
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min),
                dist: Dist::of(&r.built.setup_s),
            },
            "root_kb_per_op" => {
                Reported::exact(def, root_bytes as f64 / 1024.0 / ops.max(1) as f64)
            }
            "mem_bytes_per_row" => Reported::exact(def, exact.mem_bytes_per_row),
            "stored_bytes_per_row" => Reported::exact(def, exact.stored_bytes_per_row),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// The cycle's time, whole and by what the analyst was doing, from the
/// untraced cycles: `(name, value, distribution over cycles)`.
fn cycle_parts(r: &Running, exact: Exact) -> Vec<(&'static str, f64, Dist)> {
    let (slots, cycles) = (&r.rec.slots, &r.rec.cycles);
    let kind = |k: SlotKind| move |s: &Slot| s.kind == k;
    let revisits = slots.iter().filter(|s| s.kind == SlotKind::Revisit).count();
    let painted: Vec<f64> = slots
        .iter()
        .filter(|s| !s.paint_ms.is_empty())
        .map(|s| undisturbed(&s.paint_ms))
        .collect();
    let value = |name: &str| match name {
        "cycle_ms" => slots_ms(slots, |_| true),
        "table_ms" => slots_ms(slots, kind(SlotKind::Table)),
        "chart_ms" => slots_ms(slots, kind(SlotKind::Chart)),
        "first_paint_ms" => painted.iter().sum::<f64>() / painted.len().max(1) as f64,
        "cold_first_chart_ms" => slots_ms(slots, kind(SlotKind::FirstChart)),
        "revisit_ms" => slots_ms(slots, kind(SlotKind::Revisit)) / revisits.max(1) as f64,
        other => unreachable!("cycle timing {other} has no definition"),
    };
    let mut parts: Vec<_> = CYCLE_TIMINGS
        .iter()
        .map(|(name, per_cycle)| (*name, value(name), dist_of(cycles, per_cycle)))
        .collect();
    // The cycle's own ingest step where it has one; else the fastest of
    // the set-up's spills.
    let per_s = |ms: f64| exact.rows as f64 / (ms / 1e3).max(1e-9);
    parts.push(match slots.iter().find(|s| s.name == "spill_csv") {
        Some(slot) => {
            let rates: Vec<f64> = slot.wall_ms.iter().map(|ms| per_s(*ms)).collect();
            (
                "ingest_rows_per_s",
                per_s(undisturbed(&slot.wall_ms)),
                Dist::of(&rates),
            )
        }
        None => {
            let rates: Vec<f64> = r
                .built
                .info
                .iter()
                .filter_map(|i| i.spill_rows_per_s)
                .collect();
            let fastest = rates.iter().copied().fold(0.0, f64::max);
            ("ingest_rows_per_s", fastest, Dist::of(&rates))
        }
    });
    parts
}

/// Counter deltas over the traced pass, and the values that are one
/// number per run, into `rec.layers`; then every declared layer metric.
fn per_layer_values(
    r: &mut Running,
    before: Counters,
    after: Counters,
    exact: Exact,
) -> Vec<Reported> {
    let traced = r.rec.traced_cycles.len().max(1) as f64;
    let overhead = {
        let untraced = dist_of(&r.rec.cycles, Cycle::cycle_ms).median;
        let traced = dist_of(&r.rec.traced_cycles, Cycle::cycle_ms).median;
        (traced / untraced.max(1e-9) - 1.0) * 100.0
    };
    let load_ms: Vec<f64> = r
        .built
        .info
        .iter()
        .map(|i| i.load.as_secs_f64() * 1e3)
        .collect();
    let failed = r.rec.failed as f64;
    let parts = cycle_parts(r, exact);
    // First renders of one operation name, pooled over its positions.
    let mut by_op: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for slot in r
        .rec
        .slots
        .iter()
        .filter(|s| !matches!(s.kind, SlotKind::Revisit | SlotKind::Step))
    {
        by_op.entry(&slot.name).or_default().extend(&slot.wall_ms);
    }
    let l = &mut r.rec.layers;

    let (hits, misses) = (
        (after.cache.hits - before.cache.hits) as f64,
        (after.cache.misses - before.cache.misses) as f64,
    );
    l.set("core.cache.hit_ratio", hits / (hits + misses).max(1.0));
    l.set(
        "core.cache.coalesced",
        (after.cache.coalesced - before.cache.coalesced) as f64,
    );
    l.set(
        "core.cache.evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    l.set("core.cache.resident_kb", after.cache.bytes as f64 / 1024.0);
    l.set("core.pool.tasks_panicked", after.tasks_panicked as f64);
    l.set("core.failed_ops", failed);

    let (b, a) = (before.blocks, after.blocks);
    let faults = (a.faults - b.faults) as f64;
    let faulted = (a.bytes_faulted - b.bytes_faulted) as f64;
    let block_hits = (a.hits - b.hits) as f64;
    l.set("columnar.blockcache.faults_per_cycle", faults / traced);
    l.set(
        "columnar.blockcache.mb_faulted_per_cycle",
        faulted / 1e6 / traced,
    );
    l.set(
        "columnar.blockcache.fault_share",
        faulted / traced / (exact.file_bytes.max(1) as f64),
    );
    l.set(
        "columnar.blockcache.hit_ratio",
        block_hits / (block_hits + faults).max(1.0),
    );
    l.set(
        "columnar.blockcache.evictions",
        (a.evictions - b.evictions) as f64,
    );

    if l.samples("core.load_ms").is_empty() {
        l.set("core.load_ms", median(&load_ms));
    }
    l.set("trace_overhead_pct", overhead);

    per_layer()
        .into_iter()
        .map(|def| {
            if let Some((_, value, dist)) = parts.iter().find(|(name, ..)| *name == def.name) {
                return Reported {
                    def,
                    value: *value,
                    dist: *dist,
                };
            }
            if let Some(walls) = def
                .name
                .strip_prefix("op.")
                .and_then(|n| n.strip_suffix("_ms"))
                .and_then(|op| by_op.get(op))
            {
                return Reported {
                    value: undisturbed(walls),
                    dist: Dist::of(walls),
                    def,
                };
            }
            match l.samples(&def.name) {
                [] => {
                    let value = l.value(&def.name);
                    Reported::exact(def, value)
                }
                samples => Reported::median_of(def, samples),
            }
        })
        .collect()
}

/// Over the traced operations: how far `core.trees` (as long as the engine
/// says its trees took) plus the glue/`viz` self time is from the
/// operation's own span (as long as the harness measured), at worst, in
/// percent. Not zero only if the engine reports more time than passed.
fn accounting(tracer: &Tracer) -> (usize, f64) {
    let mut worst = 0.0f64;
    let mut ops = 0;
    for root in tracer.spans().iter().filter(|s| s.parent == 0 && !s.probe) {
        let children = tracer.children_ns(root.id);
        if children == 0 {
            continue;
        }
        let len = (root.end_ns - root.start_ns).max(1);
        let accounted = children + tracer.self_ns(root.id);
        worst = worst.max((accounted as f64 / len as f64 - 1.0).abs() * 100.0);
        ops += 1;
    }
    (ops, worst)
}

/// Run `names` under `plan`. Workloads are set up one after another, then
/// measured in interleaved passes.
pub fn run_workloads(names: &[String], plan: &Plan) -> Result<Vec<WorkloadReport>, BoxError> {
    let mut running = Vec::new();
    for name in names {
        let built = build(name, plan.seed, plan.scale, plan.setup_repeats)?;
        let mut r = Running {
            name: name.clone(),
            built,
            rec: Recorder::new(plan.seed),
            passes: Vec::new(),
        };
        // One unmeasured cycle: pools spin up, pages fault in, the
        // allocator grows. Its operations are still verified.
        run_pass(&mut r, Budget::Cycles(1));
        r.rec.discard_warmup();
        r.passes.clear();
        running.push(r);
    }
    for _ in 0..plan.passes {
        for r in &mut running {
            run_pass(r, plan.untraced);
        }
    }
    let mut reports = Vec::new();
    for mut r in running {
        let mut counters = None;
        if let Some(budget) = plan.traced {
            let before = r.built.workload.counters();
            r.rec.tracer = Some(Tracer::new());
            run_pass(&mut r, budget);
            counters = Some((before, r.built.workload.counters()));
        }
        let exact = r.built.workload.finish(&mut r.rec);
        let end_to_end = end_to_end_values(&r, exact);
        let per_layer = match counters {
            Some((before, after)) => per_layer_values(&mut r, before, after, exact),
            None => Vec::new(),
        };
        let op_rows = r
            .rec
            .op_rows
            .iter()
            .map(|(name, rows)| (*name, median_row(rows), rows.len()))
            .collect();
        let cycles = CYCLE_TIMINGS
            .iter()
            .map(|(name, per_cycle)| (*name, r.rec.cycles.iter().map(per_cycle).collect()))
            .collect();

        reports.push(WorkloadReport {
            cycles,
            name: r.name,
            attempted: r.rec.attempted,
            failed: r.rec.failed,
            errors: r.rec.errors.into_iter().collect(),
            end_to_end,
            per_layer,
            passes: r.passes,
            op_rows,
            accounting: r.rec.tracer.as_ref().map(accounting),
            tracer: r.rec.tracer,
        });
    }
    Ok(reports)
}

fn median_row(rows: &[OpRow]) -> OpRow {
    let pick = |f: &dyn Fn(&OpRow) -> Duration| {
        Duration::from_secs_f64(median(
            &rows.iter().map(|r| f(r).as_secs_f64()).collect::<Vec<_>>(),
        ))
    };
    let mut out = OpRow {
        wall: pick(&|r| r.wall),
        trees: pick(&|r| r.trees),
        ..OpRow::default()
    };
    out.probe.kernel = pick(&|r| r.probe.kernel);
    out.probe.decode = pick(&|r| r.probe.decode);
    out.probe.merge = pick(&|r| r.probe.merge);
    out.probe.wire = pick(&|r| r.probe.wire);
    out.probe.render = pick(&|r| r.probe.render);
    out.probe.orchestration = pick(&|r| r.probe.orchestration);
    out
}

fn print_metrics(title: &str, metrics: &[Reported]) {
    println!("  {title}");
    for m in metrics {
        let tail = m
            .dist
            .tail
            .map_or(String::new(), |(pct, v)| format!("  p{pct:.0} {v:.4}"));
        println!(
            "    {:<44} {:>14.4} {:<8} median {:.4}  p25 {:.4}{tail}  n {}",
            m.def.name, m.value, m.def.unit, m.dist.median, m.dist.p25, m.dist.n
        );
    }
}

pub fn print_report(report: &WorkloadReport) {
    println!(
        "workload {}: attempted {} failed {}",
        report.name, report.attempted, report.failed
    );
    for (cause, n) in &report.errors {
        println!("  failed by {cause}: {n}");
    }
    print_metrics("end to end (untraced passes)", &report.end_to_end);
    if report.per_layer.is_empty() {
        return;
    }
    print_metrics("per layer (traced pass)", &report.per_layer);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("  per operation, ms (medians; probes replay worker 0's partitions)");
    println!(
        "    {:<5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>4}",
        "op",
        "wall",
        "trees",
        "glue+viz",
        "kernel",
        "decode",
        "merge",
        "wire",
        "render",
        "orchestr",
        "n"
    );
    for (name, row, n) in &report.op_rows {
        println!(
            "    {:<5} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>9.3} {:>4}",
            name,
            ms(row.wall),
            ms(row.trees),
            ms(row.wall.saturating_sub(row.trees)),
            ms(row.probe.kernel),
            ms(row.probe.decode),
            ms(row.probe.merge),
            ms(row.probe.wire),
            ms(row.probe.render),
            ms(row.probe.orchestration),
            n
        );
    }
    if let Some((ops, worst)) = report.accounting {
        println!(
            "  accounting: over {ops} traced operations, core.trees + glue/viz self time is within {worst:.3} % of the op span"
        );
    }
}

/// `VmHWM` of this process, in kB.
fn vm_hwm_kb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The checked-out revision, read from `.git` without running git; a
/// source export has none.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
                        .unwrap_or_default()
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    }
}

fn report_json(report: &WorkloadReport) -> Json {
    let metrics = |list: &[Reported]| {
        Json::Obj(
            list.iter()
                .map(|m| (m.def.name.clone(), m.to_json()))
                .collect(),
        )
    };
    Json::obj(vec![
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "failed_by",
            Json::Obj(
                report
                    .errors
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "passes",
            Json::Arr(
                report
                    .passes
                    .iter()
                    .map(|(s, e)| Json::obj(vec![("start", Json::Num(*s)), ("end", Json::Num(*e))]))
                    .collect(),
            ),
        ),
        (
            "cycles",
            Json::Obj(
                report
                    .cycles
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(&report.end_to_end)),
        ("per_layer", metrics(&report.per_layer)),
    ])
}

/// Everything a reader needs to place the numbers: host, topology, build,
/// inputs — ungated.
pub fn envelope_json(reports: &[WorkloadReport], plan: &Plan, seconds: f64) -> Json {
    let s = plan.scale;
    Json::obj(vec![
        (
            "envelope",
            Json::obj(vec![
                ("host_cores", Json::Num(host_cores() as f64)),
                (
                    "topology",
                    Json::obj(vec![
                        ("workers", Json::Num(WORKERS as f64)),
                        ("threads_per_worker", Json::Num(threads_per_worker() as f64)),
                    ]),
                ),
                (
                    "load_model",
                    Json::str("closed loop, one analyst, one process"),
                ),
                ("simd_active", Json::Bool(hillview_columnar::simd::active())),
                ("cargo_features", Json::str("none (default features)")),
                ("rustc", Json::str(env!("HVBENCH_RUSTC_VERSION"))),
                ("git_revision", Json::str(git_revision())),
                ("seed", Json::Num(plan.seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("traced", Json::Bool(plan.traced.is_some())),
                ("setup_repeats", Json::Num(plan.setup_repeats as f64)),
                (
                    "scale",
                    Json::obj(vec![
                        ("flights_rows", Json::Num(s.flights_rows as f64)),
                        ("flights_part_rows", Json::Num(s.flights_part_rows as f64)),
                        ("logs_rows", Json::Num(s.logs_rows as f64)),
                        ("logs_part_rows", Json::Num(s.logs_part_rows as f64)),
                        ("ingest_rows", Json::Num(s.ingest_rows as f64)),
                        ("ingest_part_rows", Json::Num(s.ingest_part_rows as f64)),
                        (
                            "cold_block_cache_bytes",
                            Json::Num(s.cold_block_cache_bytes as f64),
                        ),
                    ]),
                ),
                ("vm_hwm_kb", vm_hwm_kb().map_or(Json::Null, Json::Num)),
            ]),
        ),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.name.clone(), report_json(r)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Obj(
                reports
                    .iter()
                    .filter_map(|r| Some((r.name.clone(), r.tracer.as_ref()?.to_json())))
                    .collect(),
            ),
        ),
    ])
}

/// The line a driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end set from an untraced run, the layer set from
/// a traced one. With several workloads, names are prefixed.
pub fn result_line(reports: &[WorkloadReport], traced: bool) -> String {
    let mut metrics = Vec::new();
    for r in reports {
        let list = if traced { &r.per_layer } else { &r.end_to_end };
        for m in list {
            let name = if reports.len() == 1 {
                m.def.name.clone()
            } else {
                format!("{}:{}", r.name, m.def.name)
            };
            metrics.push((
                name,
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.def.unit)),
                ]),
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

pub struct RunArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

pub fn run(args: &RunArgs) -> Result<bool, BoxError> {
    let plan = Plan::timed(args.seed, crate::workloads::FULL, args.seconds, args.trace);
    let reports = run_workloads(&args.workloads, &plan)?;
    for r in &reports {
        print_report(r);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, envelope_json(&reports, &plan, args.seconds).encode())?;
    }
    println!("{}", result_line(&reports, args.trace));
    Ok(reports.iter().all(|r| r.failed == 0))
}
