//! # hillview-sketch
//!
//! The mergeable-summary substrate of Hillview-RS.
//!
//! Paper §4.1: *"a mergeable summarization method consists of two functions
//! `summarize(D)` and `merge(S, S')` ... `summarize(D1 ⊎ D2) =
//! merge(summarize(D1), summarize(D2))`."* Every query in Hillview — charts,
//! tabular views, auxiliary statistics — is expressed as such a pair, which
//! is what lets the engine parallelize blindly and stream partial results.
//!
//! ## Writing a vizketch
//!
//! Implement [`Sketch`] for the parameters and [`Summary`] (plus
//! [`Wire`](hillview_net::Wire)) for the result. Three functions carry the
//! whole contract:
//!
//! * [`Sketch::summarize`]`(view, scope, seed)` — summarize the rows of one
//!   partition [`TableView`] that the [`Scope`] selects. A kernel here
//!   binds its columns, passes its block body to `TableView::scan` and
//!   finishes the summary; `scan` owns everything about *which* rows — row
//!   bounds, the fused filter, the sample applied in the same walk, the
//!   selected-row count. A sketch outside this crate, or one that walks the
//!   whole view itself, starts from [`view::two_pass`]. The result must be
//!   a deterministic function of the arguments — the engine replays seeds
//!   after failures and expects the same bytes (paper §5.8).
//! * [`Summary::merge`]`(&mut self, other)` — fold the summary of a
//!   disjoint partition into this one, in place, consuming it: move what
//!   the result keeps, clone nothing. Associative and commutative, with
//! * [`Sketch::identity`] as its unit on both sides — every fold starts
//!   there. The trait doc says which laws hold bit for bit and which only
//!   to rounding.
//!
//! Every sketch is split: the engine summarizes a partition piece by piece
//! over its row span ([`summarize_split`](traits::summarize_split) is the
//! serial reference) and folds the pieces in range order. Opt in to the
//! engine's result cache with [`Sketch::cache_identity`]. The rules a
//! scoped summary obeys — range tiling, a row sampled by its index alone,
//! absolute row indexes, fusion ≡ two-pass — are stated once, on [`Scope`]; the
//! equivalence suites under `tests/` hold every kernel here to them bit for
//! bit, against the per-row `summarize_rowwise` reference implementations.
//!
//! ## Kernels
//!
//! This crate contains the summarization algorithms themselves, independent
//! of display resolution (the `hillview-viz` crate layers the
//! visualization-driven parameter choices on top):
//!
//! * [`histogram`]/[`heatmap`]/[`stacked`]/[`trellis`] — bucket-count
//!   kernels, exact (streaming) and sampled: one row → bucket-cell driver
//!   (the private `bind` module) called with one, two and three columns,
//!   each kernel keeping its grid check and a tally closure; [`buckets`]
//!   holds the [`BucketSpec`] they share.
//! * [`count`]/[`moments`]/[`range`] — column statistics (App. B.3
//!   "Moments").
//! * [`distinct`] — HyperLogLog distinct counting (App. B.3).
//! * [`heavy`] — Misra-Gries and sampling heavy hitters (App. B.2/C.3).
//! * [`bottomk`] — bottom-k sampling over distinct strings, for equi-width
//!   string buckets (App. B.1).
//! * [`quantile`] — sampled quantiles for the scroll bar (App. C.1).
//! * [`nextk`] — the "next K items" tabular-view summary (§4.3).
//! * [`find`] — find-text in sort order (App. B.2).
//! * [`pca`] — sampled correlation-matrix sketch plus a Jacobi eigensolver
//!   for principal component analysis (App. B.3).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod bind;
pub mod bottomk;
pub mod buckets;
pub mod count;
pub mod distinct;
pub(crate) mod eigen;
pub mod find;
pub mod hashutil;
pub mod heatmap;
pub mod heavy;
pub mod histogram;
pub mod moments;
pub mod nextk;
pub mod pca;
pub mod quantile;
pub mod range;
pub mod stacked;
pub mod traits;
pub mod trellis;
pub mod view;

pub use buckets::BucketSpec;
pub use traits::{Sketch, SketchError, SketchResult, Summary};
pub use view::{filtered_view, Scope, TableView};
