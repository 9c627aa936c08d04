//! `zoom_session` — a drill-down on server logs sorted by time, caches
//! kept. `core::cache`, the fuse-vs-materialize planner,
//! `columnar::predicate` and zone maps do most of the work; the `sketch`
//! layer runs under a fused filter and is mostly answered from the cache.
//! The three session predicates are the shapes `BENCH_fused.json` tracks:
//! a zone-skippable sorted range, a selective dictionary equality, a
//! selective f64 range.

use super::{data_seed, rows_per_s, Exact, Scale, SetupInfo, Workload};
use crate::fixture::{clear_sketch_caches, BoxError, Counters, Fixture, DISPLAY};
use crate::metrics::PREDICATE_SHAPES;
use crate::ops::{Op, OpSpec};
use crate::recorder::{OpCall, Recorder, Role};
use hillview_columnar::{filter_members, Predicate, SegmentMode};
use hillview_core::{DatasetId, QueryOptions, Spreadsheet};
use hillview_data::{generate_logs, LogsConfig};
use hillview_sketch::count::CountSketch;

/// Share of the time span one session's window covers.
const WINDOW_SHARE: f64 = 0.05;

pub struct ZoomSession {
    fx: Fixture,
    seed: u64,
    /// Time span of the table.
    span: (f64, f64),
    sessions: u64,
    /// Datasets derived since the pass began.
    derived: Vec<DatasetId>,
    /// First renders of the latest session: `(dataset, op, digest)`.
    latest: Vec<(DatasetId, Op, u64)>,
    hist: Op,
    strings: Op,
    heatmap: Op,
    page: Op,
}

/// SplitMix64: the session's window and band are functions of
/// `(seed, session index)` only.
fn unit(seed: u64, stream: u64) -> f64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

impl ZoomSession {
    pub fn setup(seed: u64, scale: Scale) -> Result<(ZoomSession, SetupInfo), BoxError> {
        let table = generate_logs(&LogsConfig::new(scale.logs_rows, data_seed(seed, 0x10C5)));
        let ts = table.column_by_name("Timestamp")?;
        let first = ts.as_f64(0).ok_or("empty log table")?;
        let last = ts.as_f64(table.num_rows() - 1).ok_or("empty log table")?;
        let fx = Fixture::build("zoom", &[table], scale.logs_part_rows, SegmentMode::Heap, 0)?;
        let info = SetupInfo {
            spill_rows_per_s: Some(rows_per_s(fx.rows, fx.spill)),
            load: fx.load,
        };
        let op = |name, spec| Op { name, spec };
        Ok((
            ZoomSession {
                fx,
                seed,
                span: (first, last),
                sessions: 0,
                derived: Vec::new(),
                latest: Vec::new(),
                // Named by the Fig. 4 operation of the same shape.
                hist: op("O5", OpSpec::HistCdf("LatencyMs")),
                strings: op("O7", OpSpec::StringHist("Server")),
                heatmap: op("O11", OpSpec::Heatmap("LatencyMs", "Bytes")),
                page: op("O1", OpSpec::SortView(&["LatencyMs"])),
            },
            info,
        ))
    }

    /// The session's three predicates, by shape.
    fn predicates(&self, session: u64) -> [Predicate; 3] {
        let (first, last) = self.span;
        let width = (last - first) * WINDOW_SHARE;
        let lo = first + unit(self.seed, 2 * session) * (last - first - width);
        let band = 30.0 + 30.0 * unit(self.seed, 2 * session + 1);
        [
            Predicate::range("Timestamp", lo, lo + width),
            Predicate::equals("Level", "ERROR"),
            Predicate::range("LatencyMs", band, band + 20.0),
        ]
    }

    fn derive(
        &mut self,
        rec: &mut Recorder,
        parent: DatasetId,
        p: &Predicate,
    ) -> Option<DatasetId> {
        let sheet = Spreadsheet::new(self.fx.engine.clone(), parent, DISPLAY);
        let (derived, _) = rec.try_step("core", "derive", || {
            sheet.filtered(p.clone()).map(|s| s.dataset())
        })?;
        self.derived.push(derived);
        Some(derived)
    }

    /// Render `op` on `dataset`; the first render of a pair is remembered
    /// for the end-of-pass recompute check.
    fn render(
        &mut self,
        rec: &mut Recorder,
        label: &str,
        dataset: DatasetId,
        fused: &Predicate,
        op: &Op,
        role: Role,
    ) {
        let digest = rec.op(OpCall {
            op,
            role,
            engine: &self.fx.engine,
            dataset,
            expect: format!("{label}.{}", op.name),
            probe: (role != Role::Revisit)
                .then(|| (&self.fx.engine, self.fx.dataset, Some(fused.clone()))),
        });
        if let (Some(digest), true) = (digest, role != Role::Revisit) {
            self.latest.push((dataset, op.clone(), digest));
        }
    }

    /// Every chart of the latest session, recomputed with empty sketch
    /// caches, must equal what the session showed: hit ≡ recompute.
    fn recheck_latest(&mut self, rec: &mut Recorder) {
        clear_sketch_caches(&self.fx.engine);
        for (dataset, op, digest) in std::mem::take(&mut self.latest) {
            let again = op.spec.run(&self.fx.engine, dataset, DISPLAY, rec.seed);
            rec.check(
                "cached render equals recompute",
                again.is_ok_and(|(r, _)| r.digest() == digest),
            );
        }
    }

    /// Traced pass: the two plans the planner chooses between, and the
    /// predicate layer beneath them, for each session predicate.
    fn probe_predicates(&mut self, rec: &mut Recorder, composed: &[Predicate; 3]) {
        let engine = self.fx.engine.clone();
        let base = self.fx.dataset;
        let opts = QueryOptions {
            cache: false,
            ..QueryOptions::default()
        };
        for (shape, pred) in PREDICATE_SHAPES.iter().zip(composed) {
            let (eager, took) = rec.probe("core", "filter", || engine.filter(base, pred.clone()));
            rec.check("eager filter", eager.is_ok());
            self.derived.extend(eager.ok());
            rec.layers
                .sample(&format!("core.filter_{shape}_ms"), took.as_secs_f64() * 1e3);

            let (fused, took) = rec.probe("core", "run_filtered", || {
                engine.run_filtered(base, pred.clone(), CountSketch::rows(), &opts)
            });
            rec.check("fused filter", fused.is_ok());
            rec.layers.sample(
                &format!("core.run_filtered_{shape}_ms"),
                took.as_secs_f64() * 1e3,
            );

            let Some(views) = engine.cluster().worker(0).partitions(base) else {
                continue;
            };
            let rows: usize = views.iter().map(|v| v.len()).sum();
            let (ok, took) = rec.probe("columnar", "filter_members", || {
                views
                    .iter()
                    .all(|v| filter_members(v.table(), pred, v.members()).is_ok())
            });
            rec.check("filter_members", ok);
            rec.layers.sample(
                "columnar.predicate_ms_per_mrow",
                took.as_secs_f64() * 1e3 / (rows.max(1) as f64 / 1e6),
            );
            rec.layers.sample(
                "columnar.zone_skip_fraction",
                engine.cluster().estimate_filter(base, pred).skip_fraction(),
            );
        }
    }
}

impl Workload for ZoomSession {
    fn begin_pass(&mut self, rec: &mut Recorder) {
        if !self.latest.is_empty() {
            self.recheck_latest(rec);
        }
        clear_sketch_caches(&self.fx.engine);
        let cluster = self.fx.engine.cluster();
        for id in self.derived.drain(..) {
            for w in 0..cluster.num_workers() {
                cluster.worker(w).evict(id);
            }
        }
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        let session = self.sessions;
        self.sessions += 1;
        // A re-render must equal its first render within the session.
        rec.forget_expected();
        self.latest.clear();
        let [window, level, band] = self.predicates(session);
        let in_level = window.clone().and(level.clone());
        let in_band = window.clone().and(band.clone());
        let (hist, strings, heatmap, page) = (
            self.hist.clone(),
            self.strings.clone(),
            self.heatmap.clone(),
            self.page.clone(),
        );

        let base = self.fx.dataset;
        let Some(f1) = self.derive(rec, base, &window) else {
            return rec.end_cycle();
        };
        self.render(rec, "f1", f1, &window, &hist, Role::FirstChart);
        self.render(rec, "f1", f1, &window, &strings, Role::Plain);
        self.render(rec, "f1", f1, &window, &heatmap, Role::Plain);
        for op in [&hist, &strings, &heatmap] {
            self.render(rec, "f1", f1, &window, op, Role::Revisit);
        }

        if let Some(f2) = self.derive(rec, f1, &level) {
            for op in [&hist, &strings] {
                self.render(rec, "f2", f2, &in_level, op, Role::Plain);
                self.render(rec, "f2", f2, &in_level, op, Role::Revisit);
            }
            // The slowest errors in the window, as rows.
            self.render(rec, "f2", f2, &in_level, &page, Role::Plain);
        }
        if let Some(f3) = self.derive(rec, f1, &band) {
            for op in [&hist, &heatmap] {
                self.render(rec, "f3", f3, &in_band, op, Role::Plain);
                self.render(rec, "f3", f3, &in_band, op, Role::Revisit);
            }
        }
        // Back to the parent view.
        self.render(rec, "f1", f1, &window, &hist, Role::Revisit);

        let traced = rec.tracing();
        rec.end_cycle();
        if traced {
            self.probe_predicates(rec, &[window, in_level, in_band]);
        }
    }

    fn finish(&mut self, rec: &mut Recorder) -> Exact {
        self.recheck_latest(rec);
        Exact::of(&self.fx)
    }

    fn counters(&self) -> Counters {
        Counters::read(&self.fx.engine)
    }
}
