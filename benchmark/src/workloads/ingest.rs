//! `ingest` — the write path beside the read path. Each cycle turns CSV
//! text into `hvc` parts (`spill_csv`), spills the same table through
//! `SpillingWriter`, opens the CSV-made parts on a fresh cluster, asks it
//! for a row count, a sorted page and a histogram, and deletes both
//! directories. It is the only workload where `storage` writes: a
//! read-side gain bought with heavier encoding, more zone metadata or
//! alignment shows here as lower `ingest_rows_per_s` or higher
//! `stored_bytes_per_row`.

use super::{data_seed, pin_outputs, rows_per_s, Exact, Scale, SetupInfo, Workload};
use crate::fixture::{engine_over, mem_bytes, open_dir, BoxError, Counters, SOURCE};
use crate::ops::{flight_op, Op, OpSpec};
use crate::recorder::{OpCall, Recorder, Role};
use crate::tempdir::{dir_bytes, TempDir};
use hillview_columnar::{SegmentMode, Table};
use hillview_core::dataset::FnSource;
use hillview_core::{DatasetId, Engine};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_storage::csv::{read_csv, write_csv, CsvOptions};
use hillview_storage::spill::spill_csv;
use hillview_storage::{hvc, partition_table, SpillingWriter};
use std::io::Cursor;
use std::sync::Arc;

/// The default `ClusterConfig::block_cache_bytes`: nothing is evicted.
const BLOCK_CACHE_BYTES: usize = 256 << 20;

pub struct Ingest {
    table: Arc<Table>,
    csv: Vec<u8>,
    part_rows: usize,
    /// The generated table served from memory in the layout the part
    /// files are dealt in: what every answer must equal.
    reference: Option<(Arc<Engine>, DatasetId)>,
    rows_op: Op,
    page: Op,
    hist: Op,
    exact: Exact,
    counters: Counters,
}

impl Ingest {
    pub fn setup(seed: u64, scale: Scale) -> Result<(Ingest, SetupInfo), BoxError> {
        let table = generate_flights(&FlightsConfig::new(
            scale.ingest_rows,
            data_seed(seed, 0x1265),
        ));
        let mut csv = Vec::new();
        write_csv(&table, &mut csv)?;
        Ok((
            Ingest {
                table: Arc::new(table),
                csv,
                part_rows: scale.ingest_part_rows,
                reference: None,
                rows_op: Op {
                    name: "rows",
                    spec: OpSpec::RowCount,
                },
                page: flight_op("O1"),
                hist: flight_op("O5"),
                exact: Exact::default(),
                counters: Counters::default(),
            },
            SetupInfo::default(),
        ))
    }

    fn pin_reference(&mut self, rec: &mut Recorder) {
        let (table, part_rows) = (self.table.clone(), self.part_rows);
        let source = FnSource::new(SOURCE, move |worker, workers, _mp, _snapshot| {
            // `HvcDirSource` deals part files round-robin.
            Ok(partition_table(&table, part_rows)
                .into_iter()
                .skip(worker)
                .step_by(workers.max(1))
                .collect())
        });
        let engine = engine_over(Arc::new(source), BLOCK_CACHE_BYTES);
        let loaded = engine.load(SOURCE, 0);
        rec.check("load in-memory reference", loaded.is_ok());
        let Ok(dataset) = loaded else {
            return;
        };
        pin_outputs(
            rec,
            &engine,
            dataset,
            [&self.rows_op, &self.page, &self.hist],
        );
        self.reference = Some((engine, dataset));
    }

    /// Traced pass: the write path's layers one at a time.
    fn probe_write_path(&self, rec: &mut Recorder, stored_bytes: u64) {
        let rows = self.table.num_rows();
        let (parsed, took) = rec.probe("storage", "read_csv", || {
            read_csv(Cursor::new(&self.csv), &CsvOptions::default())
        });
        rec.check("read_csv", parsed.is_ok_and(|t| t.num_rows() == rows));
        rec.layers
            .sample("storage.csv_parse_rows_per_s", rows_per_s(rows, took));
        let (encoded, took) = rec.probe("storage", "hvc::encode", || hvc::encode(&self.table));
        rec.layers.sample(
            "storage.encode_mb_per_s",
            encoded.len() as f64 / 1e6 / took.as_secs_f64().max(1e-9),
        );
        rec.layers.sample(
            "storage.compression_ratio",
            self.csv.len() as f64 / stored_bytes.max(1) as f64,
        );
    }
}

impl Workload for Ingest {
    fn begin_pass(&mut self, rec: &mut Recorder) {
        if self.reference.is_none() {
            self.pin_reference(rec);
        }
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        let rows = self.table.num_rows();
        let dirs = TempDir::new("csv").and_then(|a| Ok((a, TempDir::new("table")?)));
        rec.check("create directories", dirs.is_ok());
        let Ok((csv_dir, table_dir)) = dirs else {
            return rec.end_cycle();
        };

        let spilled = rec.try_step("storage", "spill_csv", || {
            spill_csv(
                Cursor::new(&self.csv),
                &CsvOptions::default(),
                self.table.schema(),
                self.part_rows,
                csv_dir.path(),
            )
        });
        if let Some((manifest, _)) = &spilled {
            rec.check("spill_csv kept every row", manifest.total_rows() == rows);
        }
        let pushed = rec.try_step("storage", "spill_table", || {
            let mut writer = SpillingWriter::new(table_dir.path(), self.part_rows)?;
            writer.push(&self.table)?;
            writer.finish()
        });
        if let Some((_, took)) = &pushed {
            rec.layers
                .sample("storage.spill_rows_per_s", rows_per_s(rows, *took));
        }

        let opened = rec.try_step("core", "load", || {
            open_dir(csv_dir.path(), SegmentMode::Auto, BLOCK_CACHE_BYTES)
        });
        if let Some(((engine, dataset), took)) = opened {
            rec.layers.sample("core.load_ms", took.as_secs_f64() * 1e3);
            let probe = self.reference.as_ref().map(|(e, d)| (e, *d, None));
            for (op, role) in [
                (&self.rows_op, Role::Plain),
                (&self.page, Role::Plain),
                (&self.hist, Role::FirstChart),
                (&self.hist, Role::Revisit),
            ] {
                rec.op(OpCall {
                    op,
                    role,
                    engine: &engine,
                    dataset,
                    expect: op.name.to_string(),
                    probe: probe.clone().filter(|_| role != Role::Revisit),
                });
            }
            let stored = dir_bytes(csv_dir.path()).unwrap_or(0);
            self.exact = Exact {
                mem_bytes_per_row: mem_bytes(&engine, dataset) as f64 / rows as f64,
                stored_bytes_per_row: stored as f64 / rows as f64,
                file_bytes: stored,
                rows,
            };
            self.counters.add(&Counters::read(&engine));
            rec.step("storage", "delete", || {
                drop(engine);
                drop(csv_dir);
                drop(table_dir);
            });
            let traced = rec.tracing();
            rec.end_cycle();
            if traced {
                self.probe_write_path(rec, stored);
            }
        } else {
            rec.end_cycle();
        }
    }

    fn finish(&mut self, _rec: &mut Recorder) -> Exact {
        self.exact
    }

    /// Summed over the clusters of the cycles so far: each cycle opens
    /// its own.
    fn counters(&self) -> Counters {
        self.counters
    }
}
