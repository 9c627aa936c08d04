//! # hillview-storage
//!
//! The storage layer of Hillview-RS.
//!
//! Paper §2/§5.4: Hillview is *storage-independent* — it "reads data
//! repositories without pre-processing, repartitioning, or other
//! optimizations", requiring only that data is horizontally partitioned and
//! immutable while browsed. This crate provides that layer:
//!
//! * [`csv`] — a from-scratch CSV reader/writer, the paper's most common
//!   input format: one record loop over bytes and one cell → column rule,
//!   under both [`csv::read_csv`] (types inferred) and [`spill::spill_csv`]
//!   (types declared).
//! * [`hvc`] — our columnar binary format ("HillView Columnar"), the
//!   substitute for ORC/Parquet: a self-contained header (schema,
//!   dictionaries, zone maps) over per-column raw sections that map and
//!   scan in place.
//! * [`partition`] — horizontal partitioning into micropartitions
//!   (paper §5.3: "the data partition within a server is divided into
//!   micropartitions ... each assigned to a leaf").
//! * [`spill`] — streaming ingest that seals micropartitions to disk as
//!   they fill, keeping ingest memory O(micropartition).
//!
//! ## Storage tiers
//!
//! An `hvc` file can be opened two ways, trading memory for I/O — every
//! build has both, and a caller picks one per open with a
//! [`hillview_columnar::SegmentMode`]:
//!
//! 1. **Heap** ([`hvc::read_file`], or [`hvc::read_file_mapped`] under
//!    `SegmentMode::Heap`) — the whole payload is decoded into owned
//!    columns. Fastest scans, O(dataset) memory; also the only correct
//!    path on big-endian hosts.
//! 2. **Lazy** ([`hvc::read_file_mapped`] under `SegmentMode::Auto`, unix)
//!    — columns are zero-copy windows over a read-only mapping of the file,
//!    faulted in 64 KiB chunks as scans touch them. Untouched columns and
//!    zone-skipped blocks cost no I/O, and a byte-budgeted
//!    [`hillview_columnar::BlockCache`] evicts cold chunks with
//!    `MADV_DONTNEED`, so a worker scans datasets far larger than its
//!    budget. A refused mapping (and every open off unix) opens as tier 1.
//!
//! Under both tiers a column keeps the encoding it was written with —
//! integers, dictionary codes and integral doubles as packed words or run
//! tables, everything else raw — and scans read it 64-row frame by frame,
//! so "zone-skipped blocks cost no I/O" holds for every column kind,
//! doubles included.
//!
//! Both tiers produce bit-identical query results; the property tests in
//! `tests/ooc_props.rs` pin that equivalence across encodings.
//! [`hvc::probe_file`] reads none of the payload under any tier: the
//! header carries the schema, row count, and per-block zone maps.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub(crate) mod error;
pub mod hvc;
pub mod partition;
pub mod spill;

pub use error::{Error, Result};
pub use hvc::{probe_file, read_file_mapped, FileInfo};
pub use partition::partition_table;
pub use spill::{SpillManifest, SpilledPart, SpillingWriter};
