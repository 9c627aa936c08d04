//! # hillview-bench
//!
//! Two instruments for the paper's evaluation (§7). `src/bin/figures.rs`
//! regenerates its tables and figures (the experiment index is the usage
//! block at the top of that file). `benches/micro` records the
//! layer-level numbers the end-to-end `benchmark/` does not report —
//! simd-vs-scalar pairs, footprint ratios, fused / two-pass / rowwise
//! triples, planner regret, frame-decode cost, summary codec bytes and ns —
//! one `BENCH_<suite>.json`
//! per suite at the repository root, all written by [`harness`]:
//!
//! ```text
//! cargo bench --bench micro                # every suite, ≈ 2 min
//! cargo bench --bench micro -- scan ooc    # the named ones
//! ```
//!
//! **Adding a suite** is one module under `benches/micro/` exposing
//! `pub const SUITE: Registered` (name, about, `run`) and one line in the
//! `SUITES` table of `benches/micro/main.rs`. Its `run` builds inputs,
//! asserts that the variants it is about to compare produce identical
//! results — those gates, not the timings, are what make the numbers
//! comparable — and then records through [`harness::Suite`].
//!
//! **The file.** `schema` (1), `suite`, `about`; where it was recorded:
//! `host_cores` (nothing here is a scaling result on 2), `simd_active`
//! (whether runtime dispatch found a vector tier; `*_scalar` variants pin
//! the fallback either way), `rustc`, `git_revision`
//! (`+dirty` when the tree differed from it in more than these files);
//! `samples` per timed variant; then per case its `labels` (strings),
//! `facts` (numbers that are not medians of the harness's samples: sizes,
//! counters, selectivities, one-shot cold times), `median_ns` and `mad_ns`
//! per variant, and `ratios` of two variants' medians.
//!
//! **No flags.** Sample count and warm-up are constants of [`harness`] and
//! row counts are constants of the suites: a file recorded with other
//! values would carry the same case names and not be comparable, and the
//! committed files must be what the one command above reproduces.
//!
//! Scales: the paper's testbed is 8 servers × 28 cores over 130M–13B rows;
//! `figures` runs one machine and divides row counts by 1000 (1x = 130k
//! rows, 100x = 13M rows). Sampled vizketches are insensitive to this by
//! construction; scan-bound operations scale linearly, so the *shapes* of
//! all comparisons are preserved.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod setup;
pub mod table;

pub use setup::{BenchCluster, FLIGHTS_1X_ROWS};
pub use table::TableWriter;
