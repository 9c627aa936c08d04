//! The `Sketch`/`Summary` abstraction (paper §4.1, Appendix A), and the
//! merge / split / fusion laws the property tests check against it.

use crate::view::{Scope, TableView};
use hillview_columnar::{split_ranges, Predicate};
use hillview_net::Wire;
use std::cmp::Ordering;
use std::fmt;

/// Errors a sketch can raise while summarizing a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// Underlying columnar error (unknown column, type mismatch...).
    Column(String),
    /// The sketch was configured with invalid parameters.
    BadConfig(String),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::Column(m) => write!(f, "column error: {m}"),
            SketchError::BadConfig(m) => write!(f, "bad sketch configuration: {m}"),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<hillview_columnar::Error> for SketchError {
    fn from(e: hillview_columnar::Error) -> Self {
        SketchError::Column(e.to_string())
    }
}

/// Result alias for sketch operations.
pub type SketchResult<T> = Result<T, SketchError>;

/// A mergeable summary (paper §4.1).
///
/// [`Summary::merge`] folds the summary of a disjoint partition into this
/// one, in place, and consumes it: what the result keeps of `other` is
/// moved, and nothing of either operand is cloned. The execution tree
/// merges summaries in whatever order partitions happen to complete, and
/// every fold starts from [`Sketch::identity`], so `merge` must be
/// commutative and associative with the identity as unit — otherwise
/// results would depend on timing. `tests/merge_laws.rs` checks, per
/// summary type, how exactly:
///
/// * the identity is a unit on both sides, bit for bit, for every summary —
///   so a fold from the identity returns a lone summary's own bytes;
/// * counts, ranges, bucket grids, HLL registers, bottom-k, next-K, find
///   and exact heavy hitters obey every law bit for bit, and merging the
///   summaries of the parts equals summarizing the whole;
/// * moments and PCA merge counts and extrema exactly and commute bitwise,
///   but their floating-point sums regroup only to rounding;
/// * a quantile sample within its budget merges as a multiset union,
///   exactly; past it `merge` compresses and only the rank-error bound holds;
/// * Misra-Gries counters depend on arrival order: what survives merging is
///   the heavy-hitter guarantee.
pub trait Summary: Clone + Send + Sync + 'static {
    /// True exactly when [`Summary::compact`] is overridden. The engine
    /// moves summaries as wire bytes, and reads this to hand the bytes of
    /// every other summary on untouched instead of decoding them for a
    /// no-op.
    const COMPACTS: bool = false;

    /// Fold `other`, the summary of a disjoint data partition, into `self`.
    fn merge(&mut self, other: Self);

    /// The form that crosses a network link: a summary that holds more
    /// than the display can resolve (a sample, say) drops to display size
    /// here. The engine applies it to a worker's own fold as it leaves for
    /// the root — never between merges — and before caching, so it must
    /// be deterministic and idempotent, and cached bytes equal recomputed
    /// ones. Defaults to the summary itself; an override also sets
    /// [`Summary::COMPACTS`].
    fn compact(self) -> Self {
        self
    }
}

/// Merge two runs, each ascending by `key` without repeats, into one, by
/// value. On equal keys the left entry is kept and the right one is
/// combined into it. The key-ordered summaries (quantile, next-K, bottom-k)
/// merge through this, then cut the run to their budget.
pub(crate) fn merge_runs<T, K: Ord>(
    left: Vec<T>,
    right: Vec<T>,
    key: impl Fn(&T) -> &K,
    mut combine: impl FnMut(&mut T, T),
) -> Vec<T> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut left, mut right) = (left.into_iter().peekable(), right.into_iter().peekable());
    while let (Some(l), Some(r)) = (left.peek(), right.peek()) {
        let entry = match key(l).cmp(key(r)) {
            Ordering::Less => left.next(),
            Ordering::Greater => right.next(),
            Ordering::Equal => {
                let mut entry = left.next();
                if let (Some(l), Some(r)) = (entry.as_mut(), right.next()) {
                    combine(l, r);
                }
                entry
            }
        };
        out.extend(entry);
    }
    out.extend(left);
    out.extend(right);
    out
}

/// A mergeable summarization method bound to concrete parameters
/// (column names, bucket boundaries, sampling rates...).
///
/// A vizketch author writes three things — [`Sketch::summarize`],
/// [`Summary::merge`] and [`Sketch::identity`] — and the engine handles
/// partitioning, splitting, filtering, caching and replay around them.
///
/// `summarize` must be a deterministic function of `(view, scope, seed)`:
/// the engine logs seeds in its redo log and replays sketches after
/// failures, expecting bit-identical summaries (paper §5.8).
pub trait Sketch: Send + Sync + 'static {
    /// The summary type this sketch produces.
    type Summary: Summary + Wire;

    /// A short stable name, used for computation-cache keys and diagnostics.
    fn name(&self) -> &'static str;

    /// Summarize the rows of one partition view that `scope` selects; the
    /// rules a scoped summary must obey are stated on [`Scope`].
    ///
    /// A kernel in this crate binds its columns, hands its block body to
    /// `TableView::scan` — which resolves `scope` (row bounds, the fused
    /// filter, sampling) to the one selection the body consumes —
    /// and finishes the summary from what the scan accumulated. A sketch
    /// that walks the whole view itself starts from
    /// [`two_pass`](crate::view::two_pass) instead.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<Self::Summary>;

    /// The merge identity (summary of an empty partition).
    fn identity(&self) -> Self::Summary;

    /// Cacheability declaration: `Some(bytes)` when this sketch's summary
    /// is a pure function of `(data, membership, predicate)` — independent
    /// of the seed and of any per-run state — so the engine may serve a
    /// stored result for a repeated identical query. The bytes encode the
    /// sketch's **parameters** (column names, bucket boundaries, k, ...)
    /// and feed the engine's structural query key alongside the canonical
    /// predicate and the dataset version; two sketches with equal names and
    /// equal identity bytes must produce bit-identical summaries on
    /// identical inputs.
    ///
    /// Defaults to `None` (never cached): correct for seed-dependent
    /// kernels (sampling rate < 1), kernels with per-call state, and any
    /// sketch that doesn't opt in.
    fn cache_identity(&self) -> Option<Vec<u8>> {
        None
    }
}

/// `a` with `b` merged into it: the unit tests' expression form of
/// [`Summary::merge`].
#[cfg(test)]
pub(crate) fn merged<S: Summary>(mut a: S, b: S) -> S {
    a.merge(b);
    a
}

/// Check the mergeability law on concrete data: summarizing the union must
/// equal merging the parts. Exact sketches satisfy this bit-for-bit when
/// given the same effective sampling behaviour; used by this crate's unit
/// tests.
#[cfg(test)]
pub(crate) fn merge_law_holds<S>(
    sketch: &S,
    whole: &TableView,
    parts: &[TableView],
    seed: u64,
) -> bool
where
    S: Sketch,
    S::Summary: PartialEq,
{
    let direct = match sketch.summarize(whole, Scope::ALL, seed) {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut merged = sketch.identity();
    for p in parts {
        match sketch.summarize(p, Scope::ALL, seed) {
            Ok(s) => merged.merge(s),
            Err(_) => return false,
        }
    }
    direct == merged
}

/// The split execution plan the engine runs in parallel, executed serially:
/// summarize every piece of the partition's row span —
/// [`split_ranges`] of its row count at `grain` — under `filter`, if any,
/// and fold the partials in ascending range order from
/// [`Sketch::identity`].
///
/// The pieces depend on the partition's row count alone, never on its
/// membership or the filter, and the fold order is fixed. So this is the
/// *reference* the engine's leaf executor must reproduce bit-for-bit
/// whatever the thread count or completion order, and its bytes are the same
/// fused or over the materialized filter, whatever holds the membership.
/// For sketches whose merge is exact (integer counts, lattices) the result
/// also equals the unsplit [`Sketch::summarize`] bit-for-bit.
pub fn summarize_split<S: Sketch>(
    sketch: &S,
    view: &TableView,
    filter: Option<&Predicate>,
    grain: usize,
    seed: u64,
) -> SketchResult<S::Summary> {
    let mut acc = sketch.identity();
    for rows in split_ranges(view.members().universe(), grain) {
        let scope = Scope {
            rows: Some(rows),
            filter,
        };
        acc.merge(sketch.summarize(view, scope, seed)?);
    }
    Ok(acc)
}

/// Check that range-split execution reproduces the whole-partition summary
/// exactly: `summarize_split` at `grain` must equal `summarize`. Holds for
/// every sketch whose merge is exact (bucket counts, lattices, HLL
/// registers); order-sensitive or floating-point-summing sketches
/// (Misra-Gries, moments, PCA) are instead pinned by determinism of the
/// split fold itself. Used by tests.
pub fn split_law_holds<S>(sketch: &S, view: &TableView, grain: usize, seed: u64) -> bool
where
    S: Sketch,
    S::Summary: PartialEq,
{
    match (
        sketch.summarize(view, Scope::ALL, seed),
        summarize_split(sketch, view, None, grain, seed),
    ) {
        (Ok(direct), Ok(split)) => direct == split,
        _ => false,
    }
}

/// Check the fusion law on concrete data: a filter scope must reproduce the
/// two-pass execution (filter to a membership set, then sketch) byte for
/// byte — whole-partition, and folded over the split plan at `grain`. Each
/// piece visits the same rows in the same order under both plans, so this
/// holds even for floating-point-summing and order-sensitive kernels. Used
/// by tests.
pub fn fused_law_holds<S: Sketch>(
    sketch: &S,
    view: &TableView,
    predicate: &Predicate,
    grain: usize,
    seed: u64,
) -> bool {
    let Ok(narrowed) = crate::view::filtered_view(view, predicate) else {
        return false;
    };
    let filter = Some(predicate);
    let same = |a: SketchResult<S::Summary>, b: SketchResult<S::Summary>| matches!((a, b), (Ok(a), Ok(b)) if a.to_bytes() == b.to_bytes());
    same(
        sketch.summarize(view, Scope { rows: None, filter }, seed),
        sketch.summarize(&narrowed, Scope::ALL, seed),
    ) && same(
        summarize_split(sketch, view, filter, grain, seed),
        summarize_split(sketch, &narrowed, None, grain, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = SketchError::BadConfig("zero buckets".into());
        assert!(e.to_string().contains("zero buckets"));
        let e: SketchError = hillview_columnar::Error::UnknownColumn("X".into()).into();
        assert!(e.to_string().contains('X'));
    }
}
