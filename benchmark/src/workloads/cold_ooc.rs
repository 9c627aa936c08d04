//! `cold_ooc` — the paper's Fig. 6 shape: the same flights, spilled to
//! `hvc` v3 parts and opened out of core (`SegmentMode::Auto`) under a
//! block-cache budget of about an eighth of a worker's file bytes. Every
//! cycle evicts everything, so its first chart pays the replayed re-open
//! and the first faults. `storage` (header parse, open),
//! `columnar::residency` and `core` recovery do most of the work; on
//! `warm_browse` they do none. The OS page cache stays warm: latencies are
//! the sandbox's, not a device's.

use super::{flights_tables, pin_outputs, rows_per_s, Exact, Scale, SetupInfo, Workload};
use crate::fixture::{open_dir, BoxError, Counters, Fixture};
use crate::ops::{flight_op, Op};
use crate::recorder::{OpCall, Recorder, Role};
use crate::stats::median;
use hillview_columnar::{BlockCache, SegmentMode};
use hillview_core::{DatasetId, Engine};
use hillview_storage::spill::list_parts;
use hillview_storage::{hvc, probe_file, read_file_mapped};
use std::sync::Arc;

pub struct ColdOoc {
    fx: Fixture,
    /// The same part files read eagerly into memory: the reference every
    /// output must equal (mapped ≡ heap), and where probes run so that
    /// they never touch the measured cluster's block cache.
    reference: Option<(Arc<Engine>, DatasetId)>,
    /// O5 (cold), O11, O7, O10, O1, then O5 again (resident).
    script: Vec<Op>,
}

impl ColdOoc {
    pub fn setup(seed: u64, scale: Scale) -> Result<(ColdOoc, SetupInfo), BoxError> {
        let tables = flights_tables(seed, scale.flights_rows);
        let fx = Fixture::build(
            "cold",
            &tables,
            scale.flights_part_rows,
            SegmentMode::Auto,
            scale.cold_block_cache_bytes,
        )?;
        let info = SetupInfo {
            spill_rows_per_s: Some(rows_per_s(fx.rows, fx.spill)),
            load: fx.load,
        };
        let script = ["O5", "O11", "O7", "O10", "O1"].map(flight_op).to_vec();
        Ok((
            ColdOoc {
                fx,
                reference: None,
                script,
            },
            info,
        ))
    }

    /// Open the in-memory copy and pin every operation's output on it.
    fn pin_reference(&mut self, rec: &mut Recorder) {
        let opened = open_dir(self.fx.dir.path(), SegmentMode::Heap, 0);
        rec.check("open in-memory reference", opened.is_ok());
        let Ok((engine, dataset)) = opened else {
            return;
        };
        pin_outputs(rec, &engine, dataset, &self.script);
        self.reference = Some((engine, dataset));
    }

    fn call<'a>(&'a self, op: &'a Op, role: Role) -> OpCall<'a> {
        OpCall {
            op,
            role,
            engine: &self.fx.engine,
            dataset: self.fx.dataset,
            expect: op.name.to_string(),
            probe: match (&self.reference, role) {
                (Some((engine, dataset)), Role::Plain | Role::FirstChart) => {
                    Some((engine, *dataset, None))
                }
                _ => None,
            },
        }
    }
}

impl Workload for ColdOoc {
    fn begin_pass(&mut self, rec: &mut Recorder) {
        if self.reference.is_none() {
            self.pin_reference(rec);
        }
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        rec.step("core", "evict_all", || self.fx.engine.cluster().evict_all());
        for (i, op) in self.script.iter().enumerate() {
            let role = if i == 0 {
                Role::FirstChart
            } else {
                Role::Plain
            };
            rec.op(self.call(op, role));
        }
        rec.op(self.call(&self.script[0], Role::Revisit));
        rec.end_cycle();
    }

    fn finish(&mut self, rec: &mut Recorder) -> Exact {
        // What the replayed re-open costs: the cold first chart less the
        // same chart once resident.
        let reload: Vec<f64> = rec
            .cycles
            .iter()
            .map(|c| c.first_chart_ms() - c.revisit_ms())
            .collect();
        rec.layers.set("core.reload_ms", median(&reload));

        if rec.tracing() {
            let parts = list_parts(self.fx.dir.path()).unwrap_or_default();
            rec.check("list parts", !parts.is_empty());
            // A private cache: opening the parts again must not change the
            // measured workers' residency.
            let cache = BlockCache::unbounded();
            for path in &parts {
                let (info, took) = rec.probe("storage", "probe_file", || probe_file(path));
                rec.check("probe_file", info.is_ok());
                rec.layers
                    .sample("storage.probe_us", took.as_secs_f64() * 1e6);

                let (table, took) = rec.probe("storage", "read_file_mapped", || {
                    read_file_mapped(path, &cache, SegmentMode::Auto)
                });
                rec.check("read_file_mapped", table.is_ok());
                rec.layers
                    .sample("storage.open_ms", took.as_secs_f64() * 1e3);

                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                let (table, took) = rec.probe("storage", "read_file", || hvc::read_file(path));
                rec.check("read_file", table.is_ok());
                rec.layers.sample(
                    "storage.read_heap_mb_per_s",
                    bytes as f64 / 1e6 / took.as_secs_f64().max(1e-9),
                );
            }
        }

        Exact::of(&self.fx)
    }

    fn counters(&self) -> Counters {
        Counters::read(&self.fx.engine)
    }
}
