//! # hillview-columnar
//!
//! Columnar in-memory table substrate for Hillview-RS, a Rust reproduction of
//! *"Hillview: A trillion-cell spreadsheet for big data"* (VLDB 2019).
//!
//! Hillview operates on immutable, horizontally-partitioned tables held in a
//! column-oriented representation (paper §5.4, §6: "in-memory tables use as
//! much as possible arrays of base types"; "string columns use dictionary
//! encoding for compression"). This crate provides that representation:
//!
//! * [`Column`] — typed columns over base-type arrays with null masks:
//!   integers, doubles, dates, dictionary-encoded strings and categoricals.
//! * [`Table`] — an immutable set of columns sharing a row count; cheap to
//!   clone (columns are reference-counted) so derived tables share storage.
//! * [`MembershipSet`] — the paper's §5.6 "membership set" structure that
//!   identifies which rows belong to a filtered (derived) table, with dense
//!   (bitmap) and sparse (sorted index) implementations and uniform sampling.
//! * [`SortOrder`]/[`RowKey`] — multi-column row ordering used by the tabular
//!   view vizketches (next-items, quantile scrollbar, find).
//! * [`Predicate`] — row selection expressions (comparisons, ranges, text
//!   search including a small self-contained regex engine), compiled to a
//!   per-row reference form and to the block-wise form the filter pipeline
//!   runs ([`predicate::filter_members`]): 64-bit selection words per
//!   decoded frame, dictionary match bitmaps, and zone-map block skipping
//!   (see the [`predicate`] module docs).
//! * [`udf`] — named user-defined map functions that derive new columns from
//!   existing ones (paper §5.6 "user-defined maps"; Rust closures substitute
//!   for the paper's JavaScript functions).
//!
//! ## Scans
//!
//! The [`scan`] module is the performance substrate for sketch kernels. A
//! [`scan::Selection`] says what a kernel scans, and one walk,
//! [`block::scan_frames`], turns every selection shape into 64-row frames
//! (a base and a selection word) plus, for sparse row lists, single rows.
//! The typed drivers ([`scan::scan_values`], [`scan::scan_rows`],
//! [`scan::count_missing`]) consume that walk and combine the frames with a
//! column's value lanes and null-mask words. Null checks cost one word
//! fetch per 64 rows, and when a frame is fully live the inner loop runs
//! branch-free over the lanes (the *dense fast path*) that the compiler can
//! unroll and vectorize. Frames arrive in ascending row order, so chunked
//! kernels visit exactly the rows `MembershipSet::iter` would, in the same
//! order — which is what makes chunked and per-row kernel results
//! bit-identical.
//!
//! For intra-partition parallelism, [`scan::split_ranges`] halves a
//! partition's row span into pieces of at most a grain of rows — a plan
//! that depends on the row count alone, never on the membership — and
//! [`scan::Selection::members_in`] scans one piece through the same
//! drivers; adjacent piece scans concatenate to exactly the
//! whole-partition row stream.
//!
//! ## Compressed columns and the block ABI
//!
//! Integer values, dictionary codes and integral doubles (as sign-magnitude
//! codes inside an [`F64Storage`]) sit behind the [`encoding`] layer: an
//! [`IntStorage`] holds them plain, frame-of-reference bit-packed,
//! run-length encoded, or per-block delta coded, chosen automatically at
//! ingest by byte cost. The scan drivers and kernels meet the storage at
//! the [`block`] ABI: 64-row-aligned [`block::Block`] frames of decoded
//! value lanes plus selection/validity words, produced zero-copy from
//! plain storage and via whole-word block decoders otherwise — so every
//! kernel works unchanged over every encoding, and the encoding property
//! tests assert the results are bit-identical. The [`simd`] module holds
//! the runtime-dispatched lane-parallel fast paths kernels run over those
//! frames, with mandatory bit-identical scalar fallbacks.
//!
//! ## Lazy residency (out-of-core)
//!
//! The [`residency`] module adds a third dimension under the encodings: a
//! column payload ([`ValueBuf`]) is either an owned heap vector or a
//! zero-copy window into a mapped `hvc` file ([`Segment`]), faulted in
//! chunk-at-a-time through a per-worker byte-accounted [`BlockCache`].
//! Because the fused filter pipeline consults zone maps *before* decoding,
//! a block the predicate rejects is never decoded — and for mapped storage
//! "never decoded" means its file bytes are never read at all, so the
//! 190–483x block-skip ratios become I/O-skip ratios on out-of-core data.
//!
//! ## Query execution pipeline
//!
//! A filtered query — the paper's interactive zoom/search (§3.3) — is
//! **fused** into a single memory pass over each 64-row frame:
//!
//! 1. the compiled [`BlockPredicate`] evaluates the frame into a 64-bit
//!    *match word* (consulting zone maps first, so a block whose min/max
//!    — value or dictionary code — sits outside the predicate's bounds
//!    produces its word without decoding a single lane);
//! 2. the match word is ANDed into the parent *selection word* inside
//!    [`scan::Selection::Filtered`] (wrapping a [`FrameFilter`]), and
//!    zero words are dropped on the spot;
//! 3. surviving words flow straight into the block kernel, whose cursor
//!    decodes each surviving frame exactly once for both stages.
//!
//! No intermediate [`MembershipSet`] is materialized and no second decode
//! happens — predicate word → selection word → kernel, one pass. Derived
//! columns take the same path: block-compilable UDFs ([`udf::BlockUdf`])
//! materialize frame-at-a-time through the encodings' block decoders
//! instead of a per-row closure.
//!
//! Sampled kernels run fused too: a [`scan::Selection::Sampled`] thins each
//! match word by the one sampling rule, the per-row hash [`row_sampled`],
//! *before* the kernel sees it, so a sampled filtered query samples the
//! filtered rows in one pass — the same rows a sample of the materialized
//! membership holds. The two-pass execution ([`filter_members`] into a
//! membership set, then a second scan) remains, deliberately — it is what
//! materializing a derived table runs, when the engine promotes a filter a
//! tree has already run over and pays for the membership set once. The
//! fused and two-pass pipelines are property-tested bit-identical across
//! encodings × membership representations × null densities × simd modes,
//! so the planner's choice is invisible in results.
//!
//! Two predicate-layer services serve that planner and the cache. Every
//! [`Predicate`] reduces to a **canonical form**
//! ([`Predicate::canonical_bytes`]): negation-normal form, flattened and
//! sorted commutative operands, idempotence/absorption collapsed, numeric
//! bounds snapped to the column's integer domain — so any two respellings
//! of the same selection (operand order, double negation, De Morgan
//! variants) yield byte-identical encodings. Those bytes are the
//! *predicate identity* the engine hashes into structural cache keys: a
//! canonically-equal query hits the sketch-result cache no matter how the
//! caller spelled it. And [`estimate_selectivity`] classifies every block
//! from the zone maps alone to report, without a scan, the fraction of
//! blocks a predicate skips.

//!
//! ## Safety & invariants
//!
//! This is the only workspace crate (outside `vendor/`) that uses `unsafe`,
//! and every use falls into one of four audited families:
//!
//! 1. **SIMD intrinsics** (`simd.rs`, `encoding.rs`): every `#[target_feature]`
//!    kernel is called only behind a runtime `is_x86_feature_detected!` check,
//!    and every vector path has a scalar fallback that must produce
//!    byte-identical output (pinned by the forced-scalar equivalence tests
//!    and the `simd-registry` lint rule).
//! 2. **Out-of-core residency** (`residency.rs`): the 64-byte-aligned raw
//!    buffer behind the heap tier, written only through `&mut` while it is
//!    filled at open, and mapped `ValueBuf`s, whose reads borrow an
//!    `Arc`-kept segment whose bounds and alignment were validated at
//!    construction.
//! 3. **`Pod` reinterpretation** (`residency.rs`): byte-slice casts are
//!    restricted to the sealed `Pod` trait (`u32`/`i64`/`f64`/`u64`), whose
//!    implementations have no padding and accept any bit pattern.
//! 4. **The mapping FFI** (`residency/mmap.rs`, unix): `mmap`, `munmap` and
//!    `madvise` declared against the libc `std` already links. A mapping is
//!    read-only and private, made only over sealed part files (the contract
//!    of the one `unsafe fn`, `Mmap::map`), unmapped once in `Drop`, and
//!    `MADV_DONTNEED` is advised only on ranges clipped to it — dropped
//!    pages refault identical bytes, so eviction is sound under outstanding
//!    borrows. Miri never reaches the calls: under `cfg(miri)` the mapping
//!    behind [`Segment::open`] is a heap copy of the file read at open.
//!
//! Every `unsafe` site carries a `// SAFETY:` comment; `hillview-lint`
//! (rule `safety-comment`) fails CI when one is missing, and
//! `unsafe_op_in_unsafe_fn` is denied so `unsafe fn` bodies must scope
//! their dereferences explicitly. All other workspace crates are
//! `#![forbid(unsafe_code)]`.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(rust_2018_idioms)]

pub mod bitmap;
pub mod block;
pub mod column;
pub mod dictionary;
pub mod encoding;
pub mod error;
pub mod membership;
pub mod nullmask;
pub mod predicate;
pub mod regexlite;
pub mod residency;
pub mod rows;
pub mod scan;
pub mod schema;
pub mod simd;
pub mod sort;
pub mod table;
mod tempdir;
pub mod udf;
pub mod value;

pub use bitmap::Bitmap;
pub use block::{scan_blocks, scan_frames, Block, BlockCursor, BlockSink, FrameEvent, BLOCK_ROWS};
pub use column::{Column, DictColumn, F64Column, I64Column};
pub use dictionary::Dictionary;
pub use encoding::{
    CodeStorage, EncodingKind, F64Storage, I64Storage, IntStorage, PackedInt, ZoneMap,
};
pub use error::{Error, Result};
pub use membership::{row_sampled, MembershipSet};
pub use nullmask::NullMask;
pub use predicate::{
    estimate_selectivity, filter_members, filter_members_rowwise, fnv1a, BlockPredicate,
    CompiledPredicate, FrameFilter, Predicate, SelectivityEstimate, StrMatchKind, FNV_OFFSET,
};
pub use residency::{BlockCache, BlockCacheStats, Segment, SegmentMode, ValueBuf};
pub use rows::{Row, RowKey};
pub use scan::{rows_in_range, split_ranges, ScanSource, Selection};
pub use schema::{ColumnDesc, ColumnKind, Schema};
pub use sort::{ResolvedSortOrder, RowBound, SortColumn, SortOrder};
pub use table::Table;
#[doc(hidden)]
pub use tempdir::TempDir;
pub use udf::UdfRegistry;
pub use value::Value;
