//! # hillview-baseline
//!
//! The two comparison systems of the paper's evaluation, built from scratch:
//!
//! * [`gp`] — a **general-purpose analytics engine** standing in for the
//!   Spark back-end of §7.1. It computes *exact, complete* results with no
//!   display-driven reduction: sorts ship every key, group-bys ship every
//!   group, distinct-counts ship every distinct value. This reproduces the
//!   structural reason the visualization-front-end-plus-general-back-end
//!   architecture loses: "their queries could produce large results that
//!   take longer to visualize than to compute" (§1).
//! * [`rowdb`] — a **row-store in-memory database** standing in for the
//!   unnamed commercial system of §7.2.1. Rows are boxed value tuples
//!   processed through a Volcano-style iterator pipeline with per-row
//!   expression interpretation, visibility checks, and optional B-tree
//!   indexes — the classic overheads ("data structures must support
//!   indexes, transactions, integrity constraints, logging, queries of many
//!   types") that a specialized columnar scan avoids.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod gp;
pub mod rowdb;

pub use gp::GpEngine;
pub use rowdb::{Expr, RowDb};
