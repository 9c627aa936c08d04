//! `run --check`: a smoke run at small scale with fixed cycle counts that
//! asserts the benchmark still says what `BENCHMARK.json` declares.
//!
//! It checks that the declared workloads, metric names, units, directions
//! and bounds are exactly the set the code emits; that every operation
//! verifies; that two runs with the same seed emit identical values for
//! the exact metrics; and that each predicted bypass holds. The exact
//! metrics are functions of `(workload, --seed)` only — scales, block-cache
//! budget and predicates are constants, and none is defined over a cycle
//! count — so a claim resting on one must also hold on a seed that was not
//! used while the change was written.

use crate::fixture::BoxError;
use crate::json::Json;
use crate::metrics::{end_to_end, per_layer, MetricDef, WORKLOADS};
use crate::run::{result_line, run_workloads, Budget, Plan, WorkloadReport};
use crate::workloads::SMOKE;
use std::path::PathBuf;

const SEED: u64 = 7;

fn benchmark_json() -> Result<Json, BoxError> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let path = candidates
        .iter()
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in the working directory or beside benchmark/")?;
    Ok(Json::parse(&std::fs::read_to_string(path)?)?)
}

fn declared(list: &Json) -> Vec<(String, String, String, Option<f64>)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (
                field("name"),
                field("unit"),
                field("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn in_code(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|d| {
            (
                d.name.clone(),
                d.unit.to_string(),
                d.better().to_string(),
                d.bound,
            )
        })
        .collect()
}

struct Findings(Vec<String>);

impl Findings {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn value(r: &WorkloadReport, name: &str) -> f64 {
    r.value(name).unwrap_or(f64::NAN)
}

pub fn check() -> Result<bool, BoxError> {
    let mut f = Findings(Vec::new());
    let declared_file = benchmark_json()?;

    let names: Vec<String> = declared_file
        .get("workloads")
        .map(|w| w.as_arr())
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    f.require(names == WORKLOADS, || {
        format!("BENCHMARK.json workloads {names:?} differ from the code's {WORKLOADS:?}")
    });
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let file = declared(declared_file.get(key).unwrap_or(&Json::Null));
        let mut code = in_code(&defs);
        if key == "per_layer" {
            // Layer metrics are declared without a bound; those the code
            // gives one are advisory, for `compare` only.
            code.iter_mut().for_each(|d| d.3 = None);
        }
        for d in &code {
            f.require(file.contains(d), || {
                format!("{key}: {d:?} is emitted but not declared so in BENCHMARK.json")
            });
        }
        for d in &file {
            f.require(code.contains(d), || {
                format!("{key}: {d:?} is declared in BENCHMARK.json but not emitted so")
            });
        }
    }

    let plan = Plan {
        seed: SEED,
        scale: SMOKE,
        setup_repeats: 1,
        passes: 1,
        untraced: Budget::Cycles(2),
        traced: Some(Budget::Cycles(1)),
    };
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let first = run_workloads(&workloads, &plan)?;
    let second = run_workloads(&workloads, &plan)?;

    for (a, b) in first.iter().zip(&second) {
        let w = &a.name;
        for r in [a, b] {
            f.require(r.failed == 0, || {
                format!(
                    "{w}: {} of {} operations failed: {:?}",
                    r.failed, r.attempted, r.errors
                )
            });
            for m in &r.end_to_end {
                f.require(m.value.is_finite() && m.value > 0.0, || {
                    format!(
                        "{w}: end-to-end {} is {}, not a positive number",
                        m.def.name, m.value
                    )
                });
            }
            for m in &r.per_layer {
                f.require(m.value.is_finite(), || {
                    format!("{w}: layer metric {} is not finite", m.def.name)
                });
            }
        }
        for traced in [false, true] {
            let line = Json::parse(&result_line(std::slice::from_ref(a), traced))?;
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            f.require(
                keys == ["correct", "attempted", "failed", "metrics"],
                || format!("{w}: result line has keys {keys:?}"),
            );
            let want = if traced { per_layer() } else { end_to_end() };
            let emitted: Vec<(String, String)> = line
                .get("metrics")
                .map(|m| m.as_obj())
                .unwrap_or_default()
                .iter()
                .map(|(k, v)| {
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                    (k.clone(), unit.to_string())
                })
                .collect();
            let want: Vec<(String, String)> = want
                .iter()
                .map(|d| (d.name.clone(), d.unit.to_string()))
                .collect();
            f.require(emitted == want, || {
                format!(
                    "{w}: --trace {} emits a different metric set than declared",
                    traced as u8
                )
            });
        }

        // Same seed, same exact values. (On `cold_ooc` the sketch-cache
        // counters are not exact: after `evict_all` the two workers race to
        // report their dataset missing, and which tree of the replay loop
        // gets to store its summary depends on who wins.)
        for name in [
            "mem_bytes_per_row",
            "stored_bytes_per_row",
            "core.cache.hit_ratio",
            "columnar.blockcache.mb_faulted_per_cycle",
        ] {
            if w == "cold_ooc" && name == "core.cache.hit_ratio" {
                continue;
            }
            f.require(value(a, name) == value(b, name), || {
                format!(
                    "{w}: {name} differs between two runs of one seed: {} vs {}",
                    value(a, name),
                    value(b, name)
                )
            });
        }
        let (ka, kb) = (value(a, "root_kb_per_op"), value(b, "root_kb_per_op"));
        f.require(((ka - kb) / ka).abs() <= 0.05, || {
            format!("{w}: root_kb_per_op differs between two runs of one seed: {ka} vs {kb}")
        });

        // Predicted bypasses.
        let writes = [
            "storage.csv_parse_rows_per_s",
            "storage.spill_rows_per_s",
            "storage.encode_mb_per_s",
        ];
        for name in writes {
            f.require((value(a, name) > 0.0) == (w == "ingest"), || {
                format!(
                    "{w}: write probe {name} = {}; write probes run only in ingest",
                    value(a, name)
                )
            });
        }
        if w == "warm_browse" || w == "zoom_session" {
            for name in [
                "columnar.blockcache.faults_per_cycle",
                "columnar.blockcache.mb_faulted_per_cycle",
                "columnar.blockcache.evictions",
            ] {
                f.require(value(a, name) == 0.0, || {
                    format!(
                        "{w}: {name} = {}, expected 0 on resident data",
                        value(a, name)
                    )
                });
            }
        }
        let hit_ratio = value(a, "core.cache.hit_ratio");
        if w == "warm_browse" {
            // Its only hits are the one re-render's.
            f.require(hit_ratio < 0.15, || {
                format!(
                    "warm_browse: cache hit ratio {hit_ratio}, expected < 0.15 with caches cleared"
                )
            });
        }
        if w == "zoom_session" {
            f.require(hit_ratio > 0.3, || {
                format!("zoom_session: cache hit ratio {hit_ratio}, expected > 0.3")
            });
        }
    }

    for finding in &f.0 {
        eprintln!("check: {finding}");
    }
    println!(
        "check: {} workloads x 2 runs, {} findings",
        first.len(),
        f.0.len()
    );
    Ok(f.0.is_empty())
}
