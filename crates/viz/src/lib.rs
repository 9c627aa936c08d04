//! # hillview-viz
//!
//! Vizketches: visualization-driven mergeable summaries (the paper's core
//! idea, §4). A vizketch is a sketch whose parameters — bucket counts,
//! sampling rates, retained rows — are derived from the *display
//! resolution*, so it computes "only what you can display":
//!
//! > "A vizketch ... adjusts its accuracy and resolution to match the
//! > display resolution and compute only what can be visually discerned."
//!
//! This crate layers those parameter choices and the rendering logic on top
//! of the raw summarization kernels in `hillview-sketch`:
//!
//! * [`display`] — screen geometry ([`DisplaySpec`]): pixel dimensions, bar
//!   widths, color-shade counts.
//! * [`samples`] — the sample-size formulas of Appendix C (histogram
//!   `O(V²·log 1/δ)`, CDF, heat map, quantiles, heavy hitters).
//! * One module per visualization — [`histogram`], [`cdf`], [`stacked`],
//!   [`heatmap`], [`trellis`], [`heavyviz`], [`tableview`] — each pairing a
//!   `prepare` step (phase-1 range/count → parameterized sketch) with a
//!   `render` step (summary → pixel-level rendering). Every sketch they
//!   prepare lives in `hillview-sketch`; the bucketed charts all cut an
//!   axis into buckets by one rule, `heatmap::AxisInfo::bucket_spec`.
//! * [`render`] — rendering data structures (bar charts in pixels, color
//!   grids in shades) plus ASCII output for the examples.
//! * [`accuracy`] — verification that sampled renderings stay within the
//!   paper's guarantees (±½ pixel per bar, ±1 color shade per cell,
//!   Fig. 3/13).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod cdf;
pub mod display;
pub mod heatmap;
pub mod heavyviz;
pub mod histogram;
pub mod render;
pub mod samples;
pub mod stacked;
pub mod tableview;
pub mod trellis;

pub use display::DisplaySpec;
pub use render::{BarChart, ColorGrid};
