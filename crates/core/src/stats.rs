//! Phase 1 from the part statistics.
//!
//! The paper's vizketches run in two phases, and the first learns a row
//! count or a column's range. Over a loaded dataset those were fixed when
//! its parts were sealed: every column records its present and missing
//! rows and the extremes of its present values (in the `hvc` part header,
//! or beside the zone maps of a table built in memory). A worker folds its
//! partitions' statistics in partition order when it loads — or replays —
//! the dataset, and the root folds the workers' in worker order: the order
//! a tree folds its pieces in. So the `count` and `range` summaries read
//! here are the bytes a tree would fold, and [`Engine::stats`] answers phase
//! 1 with no tree and nothing on the root link.
//!
//! Statistics are load-time derived state, like zone maps: they are never
//! a sketch cache, and a query they answer is neither a hit nor a miss.
//!
//! [`Engine::stats`]: crate::engine::Engine::stats

use hillview_columnar::{ColumnDesc, ColumnKind, Table};
use hillview_sketch::count::{CountSketch, CountSummary};
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::{Summary, TableView};
use std::sync::Arc;

/// What an unfiltered tree of [`CountSketch`] or [`RangeSketch`] over a
/// loaded dataset would fold, read from its parts' statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatasetStats {
    /// Partitions folded in: none is the identity of the fold.
    parts: usize,
    /// [`CountSketch::rows`]'s summary.
    rows: CountSummary,
    /// One entry per column, in schema order.
    columns: Vec<ColumnStats>,
}

/// One column's summaries.
#[derive(Debug, Clone, PartialEq)]
struct ColumnStats {
    name: Arc<str>,
    kind: ColumnKind,
    /// [`CountSketch::of_column`]'s summary.
    count: CountSummary,
    /// [`RangeSketch`]'s, for a numeric column.
    range: Option<RangeSummary>,
}

impl DatasetStats {
    /// The statistics of a load's partitions, folded in partition order.
    /// Each view must select every row of its table, as a load's do. `None`
    /// when the partitions disagree on their columns.
    pub(crate) fn of_parts(views: &[TableView]) -> Option<Self> {
        views.iter().try_fold(Self::default(), |acc, view| {
            acc.merge(&Self::of_table(view.table())?)
        })
    }

    fn of_table(table: &Table) -> Option<Self> {
        let column = |ColumnDesc { name, kind }: &ColumnDesc| {
            Some(ColumnStats {
                name: name.clone(),
                kind: *kind,
                count: CountSketch::of_column(name).summarize_stats(table).ok()?,
                range: RangeSketch::new(name).summarize_stats(table).ok()?,
            })
        };
        let descs = table.schema().descs();
        Some(DatasetStats {
            parts: 1,
            rows: CountSketch::rows().summarize_stats(table).ok()?,
            columns: descs.iter().map(column).collect::<Option<_>>()?,
        })
    }

    /// `self` followed by `other`, merged summary by summary as a tree
    /// merges them; `None` when both hold partitions and their columns
    /// differ in name or kind.
    pub(crate) fn merge(mut self, other: &Self) -> Option<Self> {
        if other.parts == 0 {
            return Some(self);
        }
        if self.parts == 0 {
            return Some(other.clone());
        }
        let shape = |s: &Self| {
            let columns = s.columns.iter();
            columns
                .map(|c| (c.name.clone(), c.kind))
                .collect::<Vec<_>>()
        };
        if shape(&self) != shape(other) {
            return None;
        }
        self.parts += other.parts;
        self.rows.merge(other.rows);
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            mine.count.merge(theirs.count);
            if let (Some(range), Some(more)) = (&mut mine.range, &theirs.range) {
                range.merge(more.clone());
            }
        }
        Some(self)
    }

    /// What [`CountSketch::rows`] folds to.
    pub fn rows(&self) -> CountSummary {
        self.rows
    }

    fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| &*c.name == name)
    }

    /// What [`CountSketch::of_column`] folds to, if the dataset has the
    /// column.
    pub fn count(&self, column: &str) -> Option<CountSummary> {
        self.column(column).map(|c| c.count)
    }

    /// The kind of `column`, if the dataset has it.
    pub(crate) fn kind(&self, column: &str) -> Option<ColumnKind> {
        self.column(column).map(|c| c.kind)
    }

    /// What [`RangeSketch`] folds to, if the dataset has the column and it
    /// is numeric: a string column's extremes are strings the statistics do
    /// not hold.
    pub fn range(&self, column: &str) -> Option<&RangeSummary> {
        self.column(column)?.range.as_ref()
    }
}
