//! Cluster construction for benchmarks: warm (generated in memory) and
//! cold (read from HVC files on disk) flight datasets at several scales.

use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::TempDir;
use hillview_core::dataset::{FnSource, SourceRegistry};
use hillview_core::{Cluster, ClusterConfig, DatasetId, Engine};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_storage::partition_table;
use std::sync::Arc;

/// Rows of the 1x flights dataset (paper: 130M; scaled ÷1000).
pub const FLIGHTS_1X_ROWS: usize = 130_000;

/// The topology-independent settings every bench cluster shares: the
/// paper's 100 ms batch window over instant links, and a worker timeout
/// long enough that a slow scan on a loaded host is never declared dead.
pub fn cluster_config(
    workers: usize,
    threads_per_worker: usize,
    micropartition_rows: usize,
) -> ClusterConfig {
    ClusterConfig {
        workers,
        threads_per_worker,
        micropartition_rows,
        worker_timeout: std::time::Duration::from_secs(30),
        ..ClusterConfig::default()
    }
}

/// A cluster + engine wired with flight-data sources for benchmarking.
pub struct BenchCluster {
    /// The engine (root node).
    pub engine: Arc<Engine>,
    /// Directory holding HVC files for the cold-read source; removed when
    /// the cluster drops.
    pub hvc_dir: TempDir,
}

impl BenchCluster {
    /// Build a cluster with `workers`×`threads` topology. Registers:
    ///
    /// * `flights` — generated in memory per worker; snapshot = scale
    ///   factor K (worker rows = 1x rows × K / workers).
    /// * `flights-hvc` — same data read back from `.hvc` files on disk
    ///   (written lazily on first load), for the cold experiments.
    pub fn new(workers: usize, threads: usize, micropartition_rows: usize) -> Self {
        let hvc_dir = TempDir::new("bench");

        let mut sources = SourceRegistry::new();
        let w_total = workers;
        sources.register(Arc::new(FnSource::new(
            "flights",
            move |w, _n, mp, scale| {
                let rows = FLIGHTS_1X_ROWS * (scale.max(1) as usize) / w_total;
                let t = generate_flights(&FlightsConfig::new(rows, 0xF11 ^ w as u64));
                Ok(partition_table(&t, mp))
            },
        )));

        let dir = hvc_dir.path().to_path_buf();
        sources.register(Arc::new(FnSource::new(
            "flights-hvc",
            move |w, _n, mp, scale| {
                let rows = FLIGHTS_1X_ROWS * (scale.max(1) as usize) / w_total;
                let path = dir.join(format!("flights-{scale}x-w{w}.hvc"));
                if !path.exists() {
                    let t = generate_flights(&FlightsConfig::new(rows, 0xF11 ^ w as u64));
                    hillview_storage::hvc::write_file(&t, &path)
                        .map_err(|e| hillview_core::EngineError::Source(e.to_string()))?;
                }
                let t = hillview_storage::hvc::read_file(&path)
                    .map_err(|e| hillview_core::EngineError::Source(e.to_string()))?;
                Ok(partition_table(&t, mp))
            },
        )));

        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_ratio("Speed", "Distance", "AirTime");
        udfs.register_sum("TotalDelay", "DepDelay", "ArrDelay");

        let cfg = cluster_config(workers, threads, micropartition_rows);
        let cluster = Cluster::new(cfg, sources, udfs);
        BenchCluster {
            engine: Arc::new(Engine::new(cluster)),
            hvc_dir,
        }
    }

    /// Standard Figure 5/6 topology: 4 workers × 4 threads.
    pub fn standard() -> Self {
        Self::new(4, 4, 100_000)
    }

    /// Load the warm flights dataset at scale `k` (memory-resident).
    pub fn load_warm(&self, k: u64) -> DatasetId {
        self.engine.load("flights", k).expect("load warm flights")
    }

    /// Load the cold flights dataset at scale `k` (from HVC files; call
    /// [`BenchCluster::make_cold`] before each measured op to force
    /// re-reads).
    pub fn load_cold(&self, k: u64) -> DatasetId {
        self.engine
            .load("flights-hvc", k)
            .expect("load cold flights")
    }

    /// Evict everything so the next query re-reads from disk.
    pub fn make_cold(&self) {
        self.engine.cluster().evict_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_and_cold_sources_agree() {
        let b = BenchCluster::new(2, 2, 10_000);
        let warm = b.load_warm(1);
        let cold = b.load_cold(1);
        let rows_warm = b.engine.cluster().dataset_rows(warm);
        let rows_cold = b.engine.cluster().dataset_rows(cold);
        assert_eq!(rows_warm, rows_cold);
        assert_eq!(rows_warm, FLIGHTS_1X_ROWS / 2 * 2);
    }

    #[test]
    fn cold_reload_recovers_from_eviction() {
        let b = BenchCluster::new(2, 2, 10_000);
        let cold = b.load_cold(1);
        b.make_cold();
        use hillview_core::QueryOptions;
        use hillview_sketch::count::CountSketch;
        let (sum, _) = b
            .engine
            .run(cold, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows as usize, FLIGHTS_1X_ROWS / 2 * 2);
    }
}
