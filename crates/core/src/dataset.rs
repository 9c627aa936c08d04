//! Dataset identity, lineage, and data sources.
//!
//! Datasets are *soft state*: a [`DatasetId`] names a distributed object
//! whose per-worker materialization may be evicted at any time and
//! reconstructed from its [`Lineage`] (paper §5.7: "all in-memory data
//! structures are disposable ... in-memory data is reconstructed by
//! reloading the original snapshot" or "by re-executing the operation that
//! created them in the first place").

use crate::error::{EngineError, EngineResult};
use hillview_columnar::{fnv1a, BlockCache, Predicate, SegmentMode, Table, FNV_OFFSET};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Identifies a distributed dataset (a "partitioned data set" in Sketch
/// terminology, §5.7). Dense small integers; allocated by the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u64);

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ds{}", self.0)
    }
}

/// Names a registered [`DataSource`] plus a snapshot tag. The tag makes the
/// load operation replayable: re-loading must yield the identical snapshot
/// (paper §5.7: "the storage layer \[must\] provide an API to read a
/// particular snapshot of a dataset").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// Registered source name.
    pub source: Arc<str>,
    /// Snapshot tag passed back to the source on (re)load.
    pub snapshot: u64,
}

/// How a dataset is (re)constructed — the redo-log payload.
#[derive(Debug, Clone)]
pub enum Lineage {
    /// Loaded from a storage source.
    Loaded {
        /// What to load.
        spec: SourceSpec,
    },
    /// Rows of `parent` selected by a predicate (paper §5.6 "Selection").
    Filtered {
        /// Parent dataset.
        parent: DatasetId,
        /// Row predicate.
        predicate: Predicate,
    },
    /// `parent` plus a derived column computed by a named UDF (§5.6
    /// "User-defined maps").
    Mapped {
        /// Parent dataset.
        parent: DatasetId,
        /// Registered map function.
        udf: Arc<str>,
        /// Name of the new column.
        new_column: Arc<str>,
    },
}

impl Lineage {
    /// The parent dataset, if any.
    pub fn parent(&self) -> Option<DatasetId> {
        match self {
            Lineage::Loaded { .. } => None,
            Lineage::Filtered { parent, .. } | Lineage::Mapped { parent, .. } => Some(*parent),
        }
    }

    /// The content version of dataset `id`, which this step derives from a
    /// parent at version `parent` (unused by a load, the leaf of every
    /// chain) — what a sketch-cache key names: two datasets share a
    /// version exactly when their lineage proves identical contents. A
    /// load hashes its source spec and its id, so a replay after eviction
    /// revalidates old cache entries while two loads of one snapshot never
    /// share one (a spec alone cannot tell a rewritten part directory from
    /// the one an entry was folded from). A filter chains the parent with
    /// the predicate's *canonical* bytes under `schema` (a partition of the
    /// parent) — And/Or order, double negation and compiler-equivalent
    /// numeric bounds all collapse to one identity — and not its id, so a
    /// fused tree over the parent names the entries of the filter it would
    /// materialize; a map folds in the UDF and the column it names. The
    /// one function behind every version: a worker's datasets, the fused
    /// trees' entries and the root's statistics check.
    pub(crate) fn content_version(
        &self,
        id: DatasetId,
        parent: u64,
        schema: Option<&Table>,
    ) -> u64 {
        match self {
            Lineage::Loaded { spec } => {
                let h = fnv1a(FNV_OFFSET, b"load\0");
                let h = fnv1a(h, spec.source.as_bytes());
                let h = fnv1a(h, &spec.snapshot.to_le_bytes());
                fnv1a(h, &id.0.to_le_bytes())
            }
            Lineage::Filtered { predicate, .. } => {
                let h = fnv1a(parent, b"filter\0");
                fnv1a(h, &predicate.canonical_bytes(schema))
            }
            Lineage::Mapped {
                udf, new_column, ..
            } => {
                let h = fnv1a(parent, b"map\0");
                let h = fnv1a(h, udf.as_bytes());
                let h = fnv1a(h, &[0]);
                fnv1a(h, new_column.as_bytes())
            }
        }
    }
}

/// What a worker asks a [`DataSource`] for: its share of one snapshot.
#[derive(Debug, Clone, Copy)]
pub struct LoadRequest<'a> {
    /// The calling worker's index.
    pub worker: usize,
    /// Workers the source is dealt across.
    pub num_workers: usize,
    /// Upper bound on the rows of one returned table.
    pub micropartition_rows: usize,
    /// Snapshot tag of the [`SourceSpec`] being (re)loaded.
    pub snapshot: u64,
    /// The calling worker's block cache — always that worker's own, so an
    /// out-of-core source charges the chunks its scans fault in against
    /// that worker's budget. In-memory sources ignore it.
    pub cache: &'a Arc<BlockCache>,
}

/// A storage-layer connector: yields one worker's horizontal partitions.
///
/// Implementations exist over generated tables, HVC/CSV directories, etc.
/// Hillview imposes no constraints on how rows are split across workers
/// (paper §2) — only that the same `(worker, snapshot)` pair always yields
/// the same data, so replay after failures reconverges (§5.8).
///
/// There is one entry point, and only workers call it: the
/// [`LoadRequest`] always carries the calling worker's own block cache, so
/// no source keeps a cache of its own.
pub trait DataSource: Send + Sync + 'static {
    /// Registered name.
    fn name(&self) -> &str;

    /// Load the micropartitions `req` names: those of its worker, each
    /// at most `micropartition_rows` rows.
    fn load(&self, req: &LoadRequest<'_>) -> EngineResult<Vec<Table>>;
}

/// Signature of a [`FnSource`] closure: `f(worker, num_workers,
/// micropartition_rows, snapshot)` produces that worker's partitions.
pub type SourceFn = dyn Fn(usize, usize, usize, u64) -> EngineResult<Vec<Table>> + Send + Sync;

/// A [`DataSource`] built from a closure — the usual way benches and tests
/// plug in generated or file-backed data.
pub struct FnSource {
    name: String,
    f: Arc<SourceFn>,
}

impl FnSource {
    /// Wrap `f(worker, num_workers, micropartition_rows, snapshot)`.
    pub fn new(
        name: &str,
        f: impl Fn(usize, usize, usize, u64) -> EngineResult<Vec<Table>> + Send + Sync + 'static,
    ) -> Self {
        FnSource {
            name: name.to_string(),
            f: Arc::new(f),
        }
    }
}

impl DataSource for FnSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn load(&self, req: &LoadRequest<'_>) -> EngineResult<Vec<Table>> {
        (self.f)(
            req.worker,
            req.num_workers,
            req.micropartition_rows,
            req.snapshot,
        )
    }
}

impl fmt::Debug for FnSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnSource({})", self.name)
    }
}

/// A [`DataSource`] over a directory of `hvc` part files — the out-of-core
/// loader, and the reader half of the spilling ingest
/// ([`hillview_storage::SpillingWriter`] writes `part-NNNNN.hvc` files
/// this source consumes).
///
/// Planning is header-only: parts are dealt to workers round-robin and
/// each worker opens its share with [`hillview_storage::read_file_mapped`],
/// which parses the header (schema, row count, null runs, zone maps, and
/// for each string column how many entries its dictionary has and where in
/// the file they are) and reads neither payload nor strings. An opened part
/// stays *mapped*: its columns are windows over the file, faulted in
/// block-granular through the worker's [`BlockCache`] as scans touch them,
/// and a string column's dictionary is parsed onto the heap when a query
/// first presents one of its strings — so loading a dataset costs
/// O(headers), and querying it costs only the blocks zone maps cannot prune
/// and the dictionaries of the columns it shows. A dictionary section that
/// turns out damaged then fails that query as
/// [`EngineError::LeafPanicked`], and no
/// query on another column. A big-endian host loads each part eagerly onto
/// the heap instead and answers identically.
///
/// The directory must be immutable while browsed (paper §2); the snapshot
/// tag is ignored because the directory *is* one snapshot, which keeps
/// replay deterministic trivially.
pub struct HvcDirSource {
    name: String,
    dir: PathBuf,
    mode: SegmentMode,
}

impl HvcDirSource {
    /// A source named `name` over the `hvc` files in `dir`, opened with
    /// the default residency policy ([`SegmentMode::Auto`]: zero-copy
    /// windows over the mapped files, faulted in as scans touch them and
    /// evicted past the worker's block-cache budget).
    pub fn new(name: &str, dir: impl Into<PathBuf>) -> Self {
        Self::with_mode(name, dir, SegmentMode::Auto)
    }

    /// Same, choosing how part files are opened: `Heap` for an eager
    /// baseline.
    pub fn with_mode(name: &str, dir: impl Into<PathBuf>, mode: SegmentMode) -> Self {
        HvcDirSource {
            name: name.to_string(),
            dir: dir.into(),
            mode,
        }
    }

    /// The directory this source reads.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn storage_err(e: hillview_storage::Error) -> EngineError {
        EngineError::Source(e.to_string())
    }
}

impl DataSource for HvcDirSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn load(&self, req: &LoadRequest<'_>) -> EngineResult<Vec<Table>> {
        let parts = hillview_storage::spill::list_parts(&self.dir).map_err(Self::storage_err)?;
        let nw = req.num_workers.max(1);
        let mut tables = Vec::new();
        for path in parts.iter().skip(req.worker % nw).step_by(nw) {
            // One open, so one header parse; a mapped open reads no
            // payload, so an empty part costs its header and is dropped.
            let table = hillview_storage::read_file_mapped(path, req.cache, self.mode)
                .map_err(Self::storage_err)?;
            if table.num_rows() > 0 {
                tables.push(table);
            }
        }
        Ok(tables)
    }
}

impl fmt::Debug for HvcDirSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HvcDirSource({} @ {})", self.name, self.dir.display())
    }
}

/// A registry of named sources shared by root and workers.
#[derive(Default, Clone)]
pub struct SourceRegistry {
    sources: std::collections::HashMap<Arc<str>, Arc<dyn DataSource>>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source under its own name.
    pub fn register(&mut self, source: Arc<dyn DataSource>) {
        self.sources.insert(Arc::from(source.name()), source);
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> EngineResult<Arc<dyn DataSource>> {
        self.sources
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::Unregistered(format!("data source {name:?}")))
    }
}

impl fmt::Debug for SourceRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SourceRegistry({} sources)", self.sources.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::ColumnKind;

    /// Worker `worker` of `num_workers` asking for `snapshot`, charging a
    /// cache of its own.
    fn load(
        s: &dyn DataSource,
        worker: usize,
        num_workers: usize,
        snapshot: u64,
    ) -> EngineResult<Vec<Table>> {
        s.load(&LoadRequest {
            worker,
            num_workers,
            micropartition_rows: 1_000,
            snapshot,
            cache: &BlockCache::unbounded(),
        })
    }

    fn tiny_source() -> FnSource {
        FnSource::new("tiny", |worker, _n, _mp, snapshot| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..4).map(|i| Some(i + worker as i64 * 100 + snapshot as i64)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })
    }

    #[test]
    fn fn_source_loads_per_worker() {
        let s = tiny_source();
        let a = load(&s, 0, 2, 0).unwrap();
        let b = load(&s, 1, 2, 0).unwrap();
        assert_eq!(a[0].get(0, "X").unwrap(), hillview_columnar::Value::Int(0));
        assert_eq!(
            b[0].get(0, "X").unwrap(),
            hillview_columnar::Value::Int(100)
        );
    }

    #[test]
    fn snapshot_changes_data() {
        let s = tiny_source();
        let a = load(&s, 0, 1, 0).unwrap();
        let b = load(&s, 0, 1, 5).unwrap();
        assert_ne!(a[0].get(0, "X").unwrap(), b[0].get(0, "X").unwrap());
    }

    #[test]
    fn registry_lookup() {
        let mut reg = SourceRegistry::new();
        reg.register(Arc::new(tiny_source()));
        assert!(reg.get("tiny").is_ok());
        assert!(matches!(reg.get("nope"), Err(EngineError::Unregistered(_))));
    }

    #[test]
    fn hvc_dir_source_deals_parts_round_robin_and_loads_mapped() {
        let dir = hillview_columnar::TempDir::new("dirsource");
        let mut w = hillview_storage::SpillingWriter::new(dir.path(), 100).unwrap();
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..450).map(|i| Some(i as i64)))),
            )
            .build()
            .unwrap();
        w.push(&t).unwrap();
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.parts.len(), 5);
        // An empty part, dealt to worker 1 (sixth in name order): it must
        // load as nothing, not as a zero-row table.
        let empty = hillview_storage::partition::slice_table(&t, 0, 0);
        hillview_storage::hvc::write_file(&empty, dir.join("part-00005.hvc")).unwrap();

        let src = HvcDirSource::new("parts", dir.path());
        let a = load(&src, 0, 2, 0).unwrap();
        let b = load(&src, 1, 2, 0).unwrap();
        assert_eq!(a.len(), 3, "parts 0,2,4");
        assert_eq!(b.len(), 2, "parts 1,3");
        let rows: usize = a.iter().chain(&b).map(|t| t.num_rows()).sum();
        assert_eq!(rows, 450);
        // Little-endian hosts open parts mapped: payloads are file
        // windows, not heap.
        if cfg!(target_endian = "little") {
            assert!(a[0].mapped_bytes() > 0, "part did not load mapped");
        }
        // Replay determinism: the same (worker, snapshot) yields the same
        // parts in the same order.
        let a2 = load(&src, 0, 2, 0).unwrap();
        for (x, y) in a.iter().zip(&a2) {
            assert_eq!(x.num_rows(), y.num_rows());
            assert_eq!(x.full_row(0), y.full_row(0));
        }
    }

    #[test]
    fn lineage_parents() {
        let l = Lineage::Loaded {
            spec: SourceSpec {
                source: Arc::from("tiny"),
                snapshot: 0,
            },
        };
        assert_eq!(l.parent(), None);
        let f = Lineage::Filtered {
            parent: DatasetId(1),
            predicate: Predicate::True,
        };
        assert_eq!(f.parent(), Some(DatasetId(1)));
    }
}
