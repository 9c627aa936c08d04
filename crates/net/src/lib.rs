//! # hillview-net
//!
//! Simulated RPC substrate for Hillview-RS.
//!
//! The paper's deployment runs gRPC between servers and streams partial
//! results to a web client (§6). Here the whole cluster lives in one
//! process, but the *communication discipline* is preserved: every
//! summary that crosses a tree edge is serialized into a length-prefixed
//! frame with a hand-rolled wire format, byte counts are recorded per edge
//! (Figure 5's "data received by the root node" is measured, not estimated),
//! and links can inject faults — drops, duplicates, bit flips and delays.
//!
//! * `wire` — compact binary serialization ([`Wire`] trait) for all
//!   summary payloads: varints and the shape-aware codecs (zero-run counts,
//!   bit-packed registers, prefix-shared key lists), every decoder total
//!   and canonical.
//! * `link` — simulated point-to-point links over crossbeam channels with
//!   byte accounting and seeded fault injection.
//! * `metrics` — shared atomic counters for bytes/messages per endpoint.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub(crate) mod error;
pub(crate) mod link;
pub(crate) mod metrics;
pub mod values;
pub(crate) mod wire;

pub use error::{Error, Result};
pub use link::{link_pair, FrameFault, LinkConfig, LinkReceiver, LinkSender};
pub use metrics::NetMetrics;
pub use wire::{Wire, WireReader, WireWriter, MAX_COUNTS};
