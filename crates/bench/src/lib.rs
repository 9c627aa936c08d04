//! # hillview-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§7). The experiment index is the usage block at the top of
//! `src/bin/figures.rs`; measured results are the `BENCH_*.json` files at
//! the repository root.
//!
//! Scales: the paper's testbed is 8 servers × 28 cores over 130M–13B rows;
//! this harness runs one machine and divides row counts by 1000 (1x =
//! 130k rows, 100x = 13M rows). Sampled vizketches are insensitive to this
//! by construction; scan-bound operations scale linearly, so the *shapes*
//! of all comparisons are preserved.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod setup;
pub mod table;

pub use setup::{BenchCluster, FLIGHTS_1X_ROWS};
pub use table::TableWriter;
