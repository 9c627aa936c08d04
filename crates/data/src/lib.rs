//! # hillview-data
//!
//! Synthetic dataset generators for Hillview-RS.
//!
//! The paper evaluates on the US DoT airline on-time performance dataset
//! (130M rows × 110 columns, "a real dataset with numerical, categorical,
//! text, and undefined values", §7). That dataset is not available here, so
//! this crate generates a statistically similar substitute: the same column
//! family, Zipf-distributed airports and carriers, heavy-tailed delays
//! correlated with hour-of-day, missing values, and rare events
//! (cancellations, diversions). All generation is deterministic in an
//! explicit seed.
//!
//! A second generator produces a server-log dataset used by the examples
//! (the paper's §3.1 motivation: servers logging hundreds of columns).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod flights;
pub mod logs;

pub use dist::{Lognormal, TruncNormal, Zipf};
pub use flights::{generate_flights, FlightsConfig};
pub use logs::{generate_logs, LogsConfig};
