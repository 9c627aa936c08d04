//! Trellis plots: arrays of heat maps grouped by a column (paper App. B.1).
//!
//! *"A heat map trellis plot produces k heat maps, each for a fixed range
//! of values wᵢ in column W. ... because the rendering area is limited to
//! H×V, a large number of heat maps means that each heat map is small."*
//! The trellis sketch computes all k heat maps in one pass — the
//! three-column case of the cell kernel: W's cell picks the heat map, the
//! (X, Y) cells its bin. Its summary is a vector of heat-map summaries and
//! merges group-wise.

use crate::bind::{scan_cells, BoundColumn, Cell};
use crate::buckets::{grid_cells, BucketSpec};
use crate::heatmap::{HeatmapSketch, HeatmapSummary};
use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::{row_sampled, MembershipSet};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Trellis-of-heat-maps sketch: group column W, then X×Y per group.
#[derive(Debug, Clone)]
pub struct TrellisSketch {
    /// Grouping column W.
    pub col_w: Arc<str>,
    /// X column of each inner heat map.
    pub col_x: Arc<str>,
    /// Y column of each inner heat map.
    pub col_y: Arc<str>,
    /// Buckets for W (one heat map per bucket).
    pub buckets_w: BucketSpec,
    /// Shared X buckets.
    pub buckets_x: BucketSpec,
    /// Shared Y buckets.
    pub buckets_y: BucketSpec,
    /// Sampling rate (`>= 1.0` exact).
    pub rate: f64,
}

/// One heat map per W bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct TrellisSummary {
    /// Per-group heat maps, indexed by W bucket.
    pub groups: Vec<HeatmapSummary>,
    /// Rows whose W was missing or out of range.
    pub dropped: u64,
}

impl Summary for TrellisSummary {
    /// Group-wise. A trellis with no groups (the zero-width identity) gets
    /// zero-width heat maps first, which adopt the other's.
    fn merge(&mut self, other: Self) {
        if self.groups.is_empty() {
            self.groups
                .resize_with(other.groups.len(), Default::default);
        }
        debug_assert!(other.groups.is_empty() || other.groups.len() == self.groups.len());
        for (mine, theirs) in self.groups.iter_mut().zip(other.groups) {
            mine.merge(theirs);
        }
        self.dropped += other.dropped;
    }
}

/// Layout: group count, each group's heat map — all of them against the
/// frame's one expansion budget — then `dropped`.
impl Wire for TrellisSummary {
    fn encode(&self, w: &mut WireWriter) {
        self.groups.encode(w);
        w.put_varint(self.dropped);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(TrellisSummary {
            groups: Vec::decode(r)?,
            dropped: r.get_varint()?,
        })
    }
}

impl Sketch for TrellisSketch {
    type Summary = TrellisSummary;

    fn name(&self) -> &'static str {
        "trellis-heatmap"
    }

    /// Every count is an integer, so split partials fold back to exactly
    /// the unsplit summary. A group's `rows_inspected` is the rows that
    /// landed in it; the rest are `dropped`.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<TrellisSummary> {
        let (w, x, y) = (&self.buckets_w, &self.buckets_x, &self.buckets_y);
        grid_cells(&[w.count(), x.count(), y.count()])?;
        let table = view.table();
        let bw = BoundColumn::bind(table.column_by_name(&self.col_w)?, w)?;
        let bx = BoundColumn::bind(table.column_by_name(&self.col_x)?, x)?;
        let by = BoundColumn::bind(table.column_by_name(&self.col_y)?, y)?;
        let mut out = self.identity();
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        scan_cells(view, scope, sample, [&bw, &bx, &by], |[w, x, y]| match out
            .groups
            .get_mut(w as usize)
        {
            Some(group) => {
                group.rows_inspected += 1;
                group.tally(x, y);
            }
            None => out.dropped += 1,
        })?;
        Ok(out)
    }

    fn identity(&self) -> TrellisSummary {
        TrellisSummary {
            groups: (0..self.buckets_w.count())
                .map(|_| HeatmapSummary::zero(self.buckets_x.count(), self.buckets_y.count()))
                .collect(),
            dropped: 0,
        }
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        (self.rate >= 1.0).then(|| {
            format!(
                "{}|{}|{}|{:?}|{:?}|{:?}",
                self.col_w, self.col_x, self.col_y, self.buckets_w, self.buckets_x, self.buckets_y
            )
            .into_bytes()
        })
    }
}

impl TrellisSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests: partition the rows — those [`row_sampled`] admits,
    /// when sampling — by W bucket, then run the heat map's own reference
    /// over each group's rows. Must remain bit-identical to
    /// [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, seed: u64) -> SketchResult<TrellisSummary> {
        let table = view.table();
        let bound = BoundColumn::bind(table.column_by_name(&self.col_w)?, &self.buckets_w)?;
        let mut groups_rows: Vec<Vec<u32>> = vec![Vec::new(); self.buckets_w.count()];
        let mut dropped = 0u64;
        let mut place = |row: usize| match bound.bucket(row) {
            Cell::In(g) => groups_rows[g].push(row as u32),
            _ => dropped += 1,
        };
        view.iter_rows()
            .filter(|&row| row_sampled(row as u64, self.rate, seed))
            .for_each(&mut place);
        let (bx, by) = (self.buckets_x.clone(), self.buckets_y.clone());
        let inner = HeatmapSketch::streaming(&self.col_x, &self.col_y, bx, by);
        let groups = groups_rows
            .into_iter()
            .map(|rows| {
                let members = MembershipSet::from_rows(rows, table.num_rows());
                let sub = TableView::with_members(table.clone(), Arc::new(members));
                inner.summarize_rowwise(&sub, 0)
            })
            .collect::<SketchResult<_>>()?;
        Ok(TrellisSummary { groups, dropped })
    }
}
