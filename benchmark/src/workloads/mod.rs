//! The four workloads. Each stresses different layers; `README.md` records
//! why each exists and which layer metrics it is expected to move.

use crate::fixture::{BoxError, Counters};
use crate::recorder::Recorder;
use std::time::{Duration, Instant};

mod cold_ooc;
mod ingest;
mod warm_browse;
mod zoom_session;

/// Input sizes: constants of the workload, never of the host or the clock.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub flights_rows: usize,
    pub flights_part_rows: usize,
    pub logs_rows: usize,
    pub logs_part_rows: usize,
    pub ingest_rows: usize,
    pub ingest_part_rows: usize,
    /// Per-worker block-cache budget of `cold_ooc`: about an eighth of a
    /// worker's file bytes, so the working set exceeds the program's cache.
    pub cold_block_cache_bytes: usize,
}

/// Flights 4x (the paper's 130 M rows ÷ 1000 × 4) in eight 65 k-row parts,
/// four per worker; one million log rows in ten parts.
pub const FULL: Scale = Scale {
    flights_rows: 520_000,
    flights_part_rows: 65_000,
    logs_rows: 1_000_000,
    logs_part_rows: 100_000,
    ingest_rows: 40_000,
    ingest_part_rows: 10_000,
    cold_block_cache_bytes: 4 << 20,
};

/// `run --check`: flights 0.5x, 100 k log rows — small enough that two
/// runs of all four workloads, traced pass included, take about 15 s.
pub const SMOKE: Scale = Scale {
    flights_rows: 65_000,
    flights_part_rows: 16_250,
    logs_rows: 100_000,
    logs_part_rows: 25_000,
    ingest_rows: 10_000,
    ingest_part_rows: 2_500,
    cold_block_cache_bytes: 1 << 20,
};

/// Values that are exact functions of `(workload, seed)`, read once after
/// the last cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    pub mem_bytes_per_row: f64,
    pub stored_bytes_per_row: f64,
    /// Bytes of the part files the measured dataset was loaded from.
    pub file_bytes: u64,
    pub rows: usize,
}

impl Exact {
    fn of(fx: &crate::fixture::Fixture) -> Exact {
        Exact {
            mem_bytes_per_row: fx.mem_bytes() as f64 / fx.rows as f64,
            stored_bytes_per_row: fx.file_bytes as f64 / fx.rows as f64,
            file_bytes: fx.file_bytes,
            rows: fx.rows,
        }
    }
}

pub trait Workload {
    /// Start of a pass: drop whatever state the workload keeps per pass.
    fn begin_pass(&mut self, _rec: &mut Recorder) {}

    /// Run one cycle through `rec`.
    fn cycle(&mut self, rec: &mut Recorder);

    /// After the last pass: check outputs against an independent
    /// reference, run the probes that happen once per run, and read the
    /// exact metrics.
    fn finish(&mut self, rec: &mut Recorder) -> Exact;

    /// The measured cluster's counters so far.
    fn counters(&self) -> Counters;
}

/// What one set-up reports beside its wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    /// Rows per second of the set-up's spill, for workloads whose cycles
    /// do not ingest.
    pub spill_rows_per_s: Option<f64>,
    pub load: Duration,
}

pub struct Built {
    pub workload: Box<dyn Workload>,
    /// Wall seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
    pub info: Vec<SetupInfo>,
}

/// Set-up is repeated so that a burst of interference that stretches one
/// repeat does not become the run's set-up time: the fastest repeat is
/// reported (the median of three differed by up to 46 % between runs).
/// The last instance is the one measured.
pub const SETUP_REPEATS: usize = 5;

fn repeat<W: Workload + 'static>(
    repeats: usize,
    setup: impl Fn() -> Result<(W, SetupInfo), BoxError>,
) -> Result<Built, BoxError> {
    let mut setup_s = Vec::new();
    let mut info = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous instance first: its files and memory must not
        // weigh on the next set-up.
        drop(last.take());
        let started = Instant::now();
        let (workload, i) = setup()?;
        setup_s.push(started.elapsed().as_secs_f64());
        info.push(i);
        last = Some(workload);
    }
    Ok(Built {
        workload: Box::new(last.expect("at least one set-up")),
        setup_s,
        info,
    })
}

pub fn build(name: &str, seed: u64, scale: Scale, repeats: usize) -> Result<Built, BoxError> {
    match name {
        "warm_browse" => repeat(repeats, || warm_browse::WarmBrowse::setup(seed, scale)),
        "zoom_session" => repeat(repeats, || zoom_session::ZoomSession::setup(seed, scale)),
        "cold_ooc" => repeat(repeats, || cold_ooc::ColdOoc::setup(seed, scale)),
        "ingest" => repeat(repeats, || ingest::Ingest::setup(seed, scale)),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

/// Run `ops` on a reference copy of the data and pin their outputs: what
/// the measured cluster must answer. Verification, so never part of
/// set-up time.
fn pin_outputs<'a>(
    rec: &mut Recorder,
    engine: &std::sync::Arc<hillview_core::Engine>,
    dataset: hillview_core::DatasetId,
    ops: impl IntoIterator<Item = &'a crate::ops::Op>,
) {
    for op in ops {
        let reference = op
            .spec
            .run(engine, dataset, crate::fixture::DISPLAY, rec.seed);
        rec.check("reference output", reference.is_ok());
        if let Ok((rendered, _)) = reference {
            rec.pin(op.name, rendered.digest());
        }
    }
}

/// Data seeds derive from the run seed; the product sees only the tables.
fn data_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)
}

fn flights_tables(seed: u64, rows: usize) -> Vec<hillview_columnar::Table> {
    use hillview_data::{generate_flights, FlightsConfig};
    let half = rows / 2;
    (0..2)
        .map(|w| generate_flights(&FlightsConfig::new(half, data_seed(seed, 0xF11 + w))))
        .collect()
}

fn rows_per_s(rows: usize, took: Duration) -> f64 {
    rows as f64 / took.as_secs_f64().max(1e-9)
}
