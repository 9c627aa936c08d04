//! Partition views and scopes: the data a sketch's `summarize` sees, and
//! the one place a [`Scope`] is resolved to the rows a kernel scans.
//!
//! A view pairs an immutable [`Table`] (one micropartition of columnar data)
//! with a [`MembershipSet`] selecting which of its rows belong to the
//! current (possibly filtered) dataset — the paper's §5.6 derived-table
//! representation, where filtered tables share storage with their parents.

use crate::traits::SketchResult;
use hillview_columnar::scan::{scan_rows, Selection};
use hillview_columnar::{filter_members, FrameFilter, MembershipSet, Predicate, Table};
use std::cell::RefCell;
use std::sync::Arc;

/// Which rows of a partition view one [`Sketch::summarize`](crate::Sketch::summarize)
/// call speaks for: an optional row range, an optional predicate, or both.
///
/// The rules every scope obeys, stated once:
///
/// * **Tiling.** `rows` bounds tile the partition: folding the summaries of
///   consecutive ranges with [`Summary::merge`](crate::Summary::merge), in
///   ascending range order starting from the sketch's identity, is a valid
///   summary of the whole partition — bit-identical to the unsplit call for
///   sketches with exact merges. A range covering the whole universe is the
///   same scope as no range at all.
/// * **A row is sampled by `(row index, rate, seed)`.** Whether a sampled
///   sketch reads a row depends on nothing else
///   ([`row_sampled`](hillview_columnar::row_sampled)): not on `rows`, not
///   on how the membership is stored, not on `filter`. So split execution
///   stays deterministic and every sub-range samples its share of the
///   partition-wide sample.
/// * **Absolute row indexes.** `rows` are row indexes into the partition.
///   Filtering narrows the membership but never renumbers rows, so the
///   split plan comes from the partition's row count alone
///   ([`split_ranges`](hillview_columnar::split_ranges)) and is the same
///   under `filter`, over a materialized filter and whatever holds the
///   membership.
/// * **Fusion is invisible.** A `filter` scope must yield the bytes of the
///   two-pass execution — [`filtered_view`], then the same call without the
///   filter. The resolver the kernels share (`TableView::scan`) always fuses
///   the predicate into the block pass, sampled or not.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// Only rows whose partition row index lies in `lo..hi`.
    pub rows: Option<(usize, usize)>,
    /// Only rows satisfying the predicate.
    pub filter: Option<&'a Predicate>,
}

impl Scope<'_> {
    /// Every row of the view.
    pub const ALL: Scope<'static> = Scope {
        rows: None,
        filter: None,
    };
}

/// Materialize `predicate` over `view` into a narrowed view — the
/// **two-pass** execution of a filtered query (filter to a membership set,
/// then sketch it). This is the reference the fused one-pass path is pinned
/// against.
pub fn filtered_view(view: &TableView, predicate: &Predicate) -> SketchResult<TableView> {
    let members = filter_members(view.table(), predicate, view.members())?;
    Ok(TableView::with_members(
        view.table().clone(),
        Arc::new(members),
    ))
}

/// Resolve `scope` for a sketch that walks the whole view itself: the
/// filter is materialized into the returned view and the view is clipped to
/// the row bounds, so the sketch summarizes exactly the rows the scope
/// selects and every split plan stays valid for it. This is where a sketch
/// written outside this crate starts — `TableView::scan`, which every
/// kernel here goes through, is crate-private — and no kernel here calls
/// it: `tests/fused_equivalence.rs` holds such a sketch to the fusion and
/// split laws.
pub fn two_pass(view: &TableView, scope: Scope<'_>) -> SketchResult<TableView> {
    let view = match scope.filter {
        Some(predicate) => filtered_view(view, predicate)?,
        None => view.clone(),
    };
    let universe = view.members().universe();
    match scope.rows {
        Some((lo, hi)) if lo > 0 || hi < universe => {
            let mut rows = Vec::new();
            scan_rows(&Selection::members_in(view.members(), lo, hi), |r| {
                rows.push(r as u32)
            });
            let members = MembershipSet::from_rows(rows, universe);
            Ok(TableView::with_members(view.table, Arc::new(members)))
        }
        _ => Ok(view),
    }
}

/// One partition's worth of (possibly filtered) data.
#[derive(Debug, Clone)]
pub struct TableView {
    table: Arc<Table>,
    members: Arc<MembershipSet>,
}

impl TableView {
    /// View over every row of `table`.
    pub fn full(table: Arc<Table>) -> Self {
        let n = table.num_rows();
        TableView {
            table,
            members: Arc::new(MembershipSet::full(n)),
        }
    }

    /// View over a subset of rows.
    pub fn with_members(table: Arc<Table>, members: Arc<MembershipSet>) -> Self {
        debug_assert_eq!(members.universe(), table.num_rows());
        TableView { table, members }
    }

    /// The underlying table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The membership set.
    pub fn members(&self) -> &Arc<MembershipSet> {
        &self.members
    }

    /// Number of rows present in the view.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterate present row indexes in ascending order.
    pub fn iter_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter()
    }

    /// Resolve `scope` to the [`Selection`] a kernel scans, run `body` over
    /// it, and return `body`'s result with the number of rows the scope
    /// selects.
    ///
    /// One pass, whatever the scope: a filter is compiled once and fused
    /// into the selection, evaluated per 64-row frame as `body` consumes
    /// it, and `sample` of `Some((rate, seed))` thins each frame after the
    /// filter to the rows [`row_sampled`](hillview_columnar::row_sampled)
    /// admits. The count is taken before the sample: the bounded membership,
    /// or the filter's matches.
    pub(crate) fn scan<T>(
        &self,
        scope: Scope<'_>,
        sample: Option<(f64, u64)>,
        body: impl FnOnce(&Selection<'_>) -> T,
    ) -> SketchResult<(T, u64)> {
        let (lo, hi) = scope.rows.unwrap_or((0, usize::MAX));
        let base = Selection::members_in(&self.members, lo, hi);
        let filter = scope
            .filter
            .map(|p| FrameFilter::compile(p, &self.table).map(RefCell::new))
            .transpose()?;
        let filtered = match &filter {
            Some(filter) => Selection::Filtered {
                base: &base,
                filter,
            },
            None => base,
        };
        let out = body(&match sample {
            Some((rate, seed)) => Selection::Sampled {
                base: &filtered,
                rate,
                seed,
            },
            None => filtered,
        });
        // Fused, the row count only exists after the scan.
        let rows = match &filter {
            Some(filter) => filter.borrow().matched(),
            None => base.count() as u64,
        };
        Ok((out, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{row_sampled, ColumnKind};

    fn table(n: usize) -> Arc<Table> {
        Arc::new(
            Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options((0..n as i64).map(Some))),
                )
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn full_view_covers_table() {
        let v = TableView::full(table(10));
        assert_eq!(v.len(), 10);
        assert_eq!(v.iter_rows().count(), 10);
    }

    #[test]
    fn filtered_view() {
        let t = table(10);
        let m = Arc::new(MembershipSet::from_rows(vec![1, 3, 5], 10));
        let v = TableView::with_members(t, m);
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter_rows().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn sampling_is_deterministic() {
        let v = TableView::full(table(1000));
        let rows = |seed| {
            let (rows, n) = v
                .scan(Scope::ALL, Some((0.3, seed)), |sel| {
                    let mut rows = Vec::new();
                    scan_rows(sel, |r| rows.push(r));
                    rows
                })
                .unwrap();
            assert_eq!(n, 1000, "the count is taken before the sample");
            rows
        };
        assert_eq!(rows(5), rows(5));
        assert_ne!(rows(5), rows(6));
        let want: Vec<usize> = (0..1000)
            .filter(|&r| row_sampled(r as u64, 0.3, 5))
            .collect();
        assert_eq!(rows(5), want);
    }
}
