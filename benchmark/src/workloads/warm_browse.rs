//! `warm_browse` — the paper's Fig. 5 shape: Fig. 4's O1–O11 on flights
//! resident in memory, every worker's sketch cache cleared before each
//! operation, so every tree computes. `sketch` kernels, `columnar` decode,
//! `core` leaf split/merge/fold, `net` wire and `viz` do all the work;
//! residency and the result cache do none (but for one re-render).

use super::{flights_tables, rows_per_s, Exact, Scale, SetupInfo, Workload};
use crate::fixture::{clear_sketch_caches, BoxError, Counters, Fixture, DISPLAY};
use crate::ops::{flight_ops, Op};
use crate::recorder::{OpCall, Recorder, Role};
use hillview_baseline::{Expr, RowDb};
use hillview_columnar::{SegmentMode, Value};
use hillview_core::{QueryOptions, Spreadsheet};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::BucketSpec;
use hillview_viz::histogram::HistogramViz;
use hillview_viz::render::BarChart;

pub struct WarmBrowse {
    fx: Fixture,
    ops: Vec<Op>,
}

impl WarmBrowse {
    pub fn setup(seed: u64, scale: Scale) -> Result<(WarmBrowse, SetupInfo), BoxError> {
        let tables = flights_tables(seed, scale.flights_rows);
        let fx = Fixture::build(
            "warm",
            &tables,
            scale.flights_part_rows,
            SegmentMode::Heap,
            0,
        )?;
        let info = SetupInfo {
            spill_rows_per_s: Some(rows_per_s(fx.rows, fx.spill)),
            load: fx.load,
        };
        Ok((
            WarmBrowse {
                fx,
                ops: flight_ops(),
            },
            info,
        ))
    }

    fn call<'a>(&'a self, op: &'a Op, role: Role) -> OpCall<'a> {
        OpCall {
            op,
            role,
            engine: &self.fx.engine,
            dataset: self.fx.dataset,
            expect: op.name.to_string(),
            probe: (role != Role::Revisit).then_some((&self.fx.engine, self.fx.dataset, None)),
        }
    }
}

impl Workload for WarmBrowse {
    fn cycle(&mut self, rec: &mut Recorder) {
        for op in &self.ops {
            clear_sketch_caches(&self.fx.engine);
            if op.name == "O5" {
                rec.op(self.call(op, Role::FirstChart));
                // The same chart again with the caches as O5 left them:
                // the cycle's one cache-hit path.
                rec.op(self.call(op, Role::Revisit));
            } else {
                rec.op(self.call(op, Role::Plain));
            }
        }
        rec.end_cycle();
    }

    /// Row count, O7's bars and an exact DepDelay histogram must equal
    /// what the row-store baseline computes over the same rows.
    fn finish(&mut self, rec: &mut Recorder) -> Exact {
        let engine = &self.fx.engine;
        let cluster = engine.cluster();
        let mut db = RowDb::create(&["DepDelay", "Origin"]);
        for w in 0..cluster.num_workers() {
            for view in cluster
                .worker(w)
                .partitions(self.fx.dataset)
                .iter()
                .flat_map(|v| v.iter())
            {
                db.insert_table(view.table());
            }
        }
        let opts = QueryOptions {
            cache: false,
            ..QueryOptions::default()
        };

        let sheet = Spreadsheet::new(engine.clone(), self.fx.dataset, DISPLAY);
        rec.check(
            "row count equals RowDb",
            sheet
                .row_count()
                .is_ok_and(|(n, _)| n == db.row_count() as u64),
        );

        // Power-of-two bucket width over integer minutes: the engine's
        // multiply-by-scale and the baseline's divide-by-width bucket
        // arithmetic are then both exact, so the counts must be equal.
        let (lo, hi, buckets) = (-128.0, 896.0, 64);
        let sketch = HistogramSketch::streaming("DepDelay", BucketSpec::numeric(lo, hi, buckets));
        let got = engine.run(self.fx.dataset, sketch, &opts);
        rec.check(
            "exact DepDelay histogram equals RowDb",
            got.is_ok_and(|(s, _)| s.buckets == db.histogram("DepDelay", lo, hi, buckets)),
        );

        let o7 = (|| {
            let (quantiles, _) = sheet.string_quantiles("Origin")?;
            let (chart, _) = sheet.string_histogram("Origin")?;
            let spec = HistogramViz::new("Origin", DISPLAY)
                .exact()
                .prepare_strings(&quantiles)?
                .buckets;
            let mut counts = vec![0u64; spec.count()];
            for (value, n) in db.group_count(&Expr::Col(1)) {
                if let Value::Str(s) = value {
                    if let Some(i) = spec.index_of_str(&s) {
                        counts[i] += n;
                    }
                }
            }
            let labels = (0..spec.count()).map(|i| spec.label(i)).collect();
            let want = BarChart::from_counts(&counts, DISPLAY.height_px, labels);
            Ok::<bool, hillview_core::EngineError>(chart == want)
        })();
        rec.check("O7 bars equal RowDb", o7.unwrap_or(false));

        Exact::of(&self.fx)
    }

    fn counters(&self) -> Counters {
        Counters::read(&self.fx.engine)
    }
}
