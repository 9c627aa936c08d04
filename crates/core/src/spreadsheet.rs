//! The spreadsheet facade: user actions → vizketch executions.
//!
//! This is Hillview's public API surface. Every operation follows the
//! paper's two-phase structure (§5.3): a *preparation* phase computes
//! data-wide parameters (row counts, ranges, string quantiles — all cached,
//! since they are deterministic and reused), then a *rendering* tree runs
//! the vizketch parameterized for the display. On a loaded dataset the row
//! count and a numeric column's range were fixed when its parts were
//! sealed, so they come from the part statistics ([`Engine::stats`]) with
//! no tree; a filtered or derived sheet, a string column or a dataset some
//! worker does not hold runs the preparation tree. The same statistics, as
//! the root keeps them for each load (`Engine::load_stats`), bound O9:
//! over an `Int` column whose extremes span no more than three values a
//! HyperLogLog register, the distinct count is the exact set of present
//! values, built without a hash and shipped in no more bytes than the
//! filled registers take ([`hillview_sketch::distinct`]). The operation names O1–O11
//! match Figure 4 of the paper and are exercised one-to-one by the
//! benchmark harness.

use crate::cluster::QueryOptions;
use crate::dataset::DatasetId;
use crate::engine::Engine;
use crate::error::EngineResult;
use crate::progress::{CancellationToken, PartialCallback};
use crate::stats::DatasetStats;
use hillview_columnar::{ColumnKind, Predicate, RowKey, SortOrder, StrMatchKind};
use hillview_sketch::bottomk::{BottomKSketch, BottomKSummary};
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::find::{FindSketch, FindSummary};
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::pca::{PcaSketch, PcaSummary};
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::Sketch;
use hillview_viz::cdf::{CdfRendering, CdfViz};
use hillview_viz::display::DisplaySpec;
use hillview_viz::heatmap::{AxisInfo, HeatmapViz};
use hillview_viz::heavyviz::{HeavyHittersRendering, HeavyHittersViz};
use hillview_viz::histogram::HistogramViz;
use hillview_viz::render::{BarChart, ColorGrid};
use hillview_viz::stacked::{StackedRendering, StackedViz};
use hillview_viz::tableview::{TablePage, TableViewViz};
use hillview_viz::trellis::TrellisViz;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Latency/traffic statistics of one spreadsheet operation (possibly
/// spanning several execution trees).
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Total wall-clock time.
    pub duration: Duration,
    /// Bytes the root received.
    pub root_bytes: u64,
    /// Messages the root received.
    pub root_messages: u64,
    /// Time until the first partial visualization, if any arrived.
    pub first_partial: Option<Duration>,
    /// Partial updates delivered to the client.
    pub partials: usize,
    /// Sketch queries issued — the trees the operation asked for, whether
    /// each one launched or the root's memo answered it.
    pub trees: usize,
    /// How many of them the root's memo answered: `trees - memo_hits`
    /// execution trees were launched.
    pub memo_hits: usize,
    /// Preparation queries the part statistics answered, with no tree and
    /// nothing on the root link; not counted in `trees`.
    pub stats_answers: usize,
}

impl OpStats {
    /// Add the trees of a later phase of this operation (a preparation
    /// helper's, or one more tree's) to its totals.
    pub(crate) fn merge(&mut self, other: &OpStats) {
        // `first_partial` is relative to its own phase; offset by the time
        // already spent in earlier phases of this operation.
        if self.first_partial.is_none() {
            self.first_partial = other.first_partial.map(|fp| self.duration + fp);
        }
        self.duration += other.duration;
        self.root_bytes += other.root_bytes;
        self.root_messages += other.root_messages;
        self.partials += other.partials;
        self.trees += other.trees;
        self.memo_hits += other.memo_hits;
        self.stats_answers += other.stats_answers;
    }
}

/// A spreadsheet session over one (possibly derived) dataset.
pub struct Spreadsheet {
    engine: Arc<Engine>,
    dataset: DatasetId,
    display: DisplaySpec,
    seed: AtomicU64,
    /// Partial-result callback applied to rendering-phase queries.
    pub on_partial: Option<PartialCallback>,
    /// Cancellation for long renders.
    pub cancel: CancellationToken,
}

impl Spreadsheet {
    /// Open a spreadsheet on an already-loaded dataset.
    pub fn new(engine: Arc<Engine>, dataset: DatasetId, display: DisplaySpec) -> Self {
        Spreadsheet {
            engine,
            dataset,
            display,
            seed: AtomicU64::new(0x5EED),
            on_partial: None,
            cancel: CancellationToken::new(),
        }
    }

    /// Load `source` and open a spreadsheet on it.
    pub fn open(
        engine: Arc<Engine>,
        source: &str,
        snapshot: u64,
        display: DisplaySpec,
    ) -> EngineResult<Self> {
        let dataset = engine.load(source, snapshot)?;
        Ok(Self::new(engine, dataset, display))
    }

    /// The dataset this sheet views.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// The engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Fix the RNG seed base (tests, replay determinism).
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::SeqCst);
    }

    fn next_seed(&self) -> u64 {
        self.seed.fetch_add(0x9E37_79B9, Ordering::SeqCst)
    }

    // Caching needs no per-call-site keys anymore: the worker cache keys
    // every query structurally (dataset version × sketch identity), so
    // deterministic preparation sketches cache automatically and
    // seed-dependent ones are excluded by their own `cache_identity`.
    fn opts(&self, seed: u64) -> QueryOptions {
        QueryOptions {
            seed,
            cancel: self.cancel.clone(),
            on_partial: self.on_partial.clone(),
            ..Default::default()
        }
    }

    /// Issue one sketch query of an operation: a typed sketch over the
    /// sheet's dataset, its outcome added to the operation's `stats`. The
    /// only place a sheet runs a query, so no operation can issue one and
    /// forget to count it.
    fn tree<S: Sketch>(
        &self,
        stats: &mut OpStats,
        sketch: S,
        seed: u64,
    ) -> EngineResult<S::Summary> {
        let (summary, o) = self.engine.run(self.dataset, sketch, &self.opts(seed))?;
        stats.merge(&OpStats {
            duration: o.duration,
            root_bytes: o.root_bytes,
            root_messages: o.root_messages,
            first_partial: o.first_partial,
            partials: o.partials,
            trees: 1,
            memo_hits: usize::from(o.memo),
            stats_answers: 0,
        });
        Ok(summary)
    }

    /// Answer a preparation query from the dataset's part statistics, if
    /// they hold the answer; counted in `stats`.
    fn answer_from_stats<T>(
        &self,
        stats: &mut OpStats,
        answer: impl FnOnce(&DatasetStats) -> Option<T>,
    ) -> Option<T> {
        let answer = answer(&self.engine.stats(self.dataset)?)?;
        stats.stats_answers += 1;
        Some(answer)
    }

    // -----------------------------------------------------------------
    // Preparation-phase helpers (cached, deterministic).
    // -----------------------------------------------------------------

    /// Total rows: from the part statistics on a loaded dataset, else a
    /// (cached) tree.
    pub fn row_count(&self) -> EngineResult<(u64, OpStats)> {
        let mut stats = OpStats::default();
        Ok((self.count(&mut stats)?, stats))
    }

    fn count(&self, stats: &mut OpStats) -> EngineResult<u64> {
        if let Some(rows) = self.answer_from_stats(stats, |s| Some(s.rows())) {
            return Ok(rows.rows);
        }
        Ok(self.tree(stats, CountSketch::rows(), 0)?.rows)
    }

    /// Range of a column: a numeric column's from the part statistics on a
    /// loaded dataset, else a (cached) tree.
    pub fn range_of(&self, column: &str) -> EngineResult<(RangeSummary, OpStats)> {
        let mut stats = OpStats::default();
        Ok((self.range(&mut stats, column)?, stats))
    }

    fn range(&self, stats: &mut OpStats, column: &str) -> EngineResult<RangeSummary> {
        if let Some(range) = self.answer_from_stats(stats, |s| s.range(column).cloned()) {
            return Ok(range);
        }
        self.tree(stats, RangeSketch::new(column), 0)
    }

    /// Bottom-k distinct-string quantiles of a column (cached).
    pub fn string_quantiles(&self, column: &str) -> EngineResult<(BottomKSummary, OpStats)> {
        let mut stats = OpStats::default();
        Ok((self.quantiles(&mut stats, column)?, stats))
    }

    fn quantiles(&self, stats: &mut OpStats, column: &str) -> EngineResult<BottomKSummary> {
        self.tree(stats, BottomKSketch::new(column, 512), 0)
    }

    /// Phase-1 info for an axis: a numeric column's range, a string
    /// column's bottom-k quantiles. The schema of a partition of the
    /// dataset, or of the ancestor a filter narrows, says which
    /// ([`Engine::column_kind`]), so a string axis runs no range tree. Only
    /// when no worker holds one does the range find out, as a column
    /// without a numeric minimum. On an unfiltered sheet a numeric range
    /// comes from the part statistics, so such a chart learns a numeric
    /// axis with no tree at all.
    fn axis_info(&self, stats: &mut OpStats, column: &str) -> EngineResult<AxisInfo> {
        let kind = self.engine.column_kind(self.dataset, column);
        if kind.is_none_or(ColumnKind::is_numeric) {
            let range = self.range(stats, column)?;
            if range.min.is_some() {
                return Ok(AxisInfo::Numeric(range));
            }
        }
        Ok(AxisInfo::Strings(self.quantiles(stats, column)?))
    }

    // -----------------------------------------------------------------
    // Tabular views (O1–O4)
    // -----------------------------------------------------------------

    /// O1/O2/O3: (re)sort the view and show the first page.
    pub fn sort_view(&self, columns: &[&str], rows: usize) -> EngineResult<(TablePage, OpStats)> {
        self.page_after(columns, None, rows)
    }

    /// Scroll/page: the `rows` rows after `start` under the sort order.
    pub fn page_after(
        &self,
        columns: &[&str],
        start: Option<RowKey>,
        rows: usize,
    ) -> EngineResult<(TablePage, OpStats)> {
        let viz = TableViewViz::new(SortOrder::ascending(columns), rows);
        let mut stats = OpStats::default();
        let summary = self.tree(&mut stats, viz.page_after(start), 0)?;
        Ok((viz.render(&summary), stats))
    }

    /// O4: scroll-bar drag — quantile probe, then the page at that rank.
    /// Pixel 0 is the first page: the page after the smallest *sampled*
    /// key would hide every row up to and including it.
    pub fn scroll_to(
        &self,
        columns: &[&str],
        scrollbar_pixel: usize,
        rows: usize,
    ) -> EngineResult<(TablePage, OpStats)> {
        if scrollbar_pixel == 0 {
            return self.sort_view(columns, rows);
        }
        let mut stats = OpStats::default();
        let count = self.count(&mut stats)?;

        let viz = TableViewViz::new(SortOrder::ascending(columns), rows);
        let q = self.tree(&mut stats, viz.scrollbar_quantile(count), self.next_seed())?;
        let start = q.quantile(viz.pixel_to_quantile(scrollbar_pixel));
        let summary = self.tree(&mut stats, viz.page_after(start), 0)?;
        Ok((viz.render(&summary), stats))
    }

    /// Find the next row matching a text query in sort order (§3.3).
    pub fn find_text(
        &self,
        column: &str,
        query: &str,
        kind: StrMatchKind,
        case_insensitive: bool,
        order_columns: &[&str],
        after: Option<RowKey>,
    ) -> EngineResult<(FindSummary, OpStats)> {
        let mut sketch = FindSketch::new(column, query, kind, SortOrder::ascending(order_columns));
        if case_insensitive {
            sketch = sketch.case_insensitive();
        }
        if let Some(k) = after {
            sketch = sketch.after(k);
        }
        let mut stats = OpStats::default();
        Ok((self.tree(&mut stats, sketch, 0)?, stats))
    }

    // -----------------------------------------------------------------
    // Charts (O5–O7, O10, O11)
    // -----------------------------------------------------------------

    /// O5: range + (histogram & CDF) on a numeric column.
    pub fn histogram_with_cdf(
        &self,
        column: &str,
        buckets: Option<usize>,
    ) -> EngineResult<(BarChart, CdfRendering, OpStats)> {
        let mut stats = OpStats::default();
        let range = self.range(&mut stats, column)?;

        let mut viz = HistogramViz::new(column, self.display);
        if let Some(b) = buckets {
            viz = viz.with_buckets(b);
        }
        let sketch = viz.prepare_numeric(&range)?;
        let summary = self.tree(&mut stats, sketch.clone(), self.next_seed())?;
        let chart = viz.render(&sketch, &summary);

        let cdf = self.cdf(&mut stats, column, &range)?;
        Ok((chart, cdf, stats))
    }

    /// The CDF curve drawn over a chart of `column`.
    fn cdf(
        &self,
        stats: &mut OpStats,
        column: &str,
        range: &RangeSummary,
    ) -> EngineResult<CdfRendering> {
        let viz = CdfViz::new(column, self.display);
        let summary = self.tree(stats, viz.prepare(range)?, self.next_seed())?;
        Ok(viz.render(&summary))
    }

    /// O7: distinct-string buckets + histogram on a string column.
    pub fn string_histogram(&self, column: &str) -> EngineResult<(BarChart, OpStats)> {
        let mut stats = OpStats::default();
        let bk = self.quantiles(&mut stats, column)?;

        let viz = HistogramViz::new(column, self.display).exact();
        let sketch = viz.prepare_strings(&bk)?;
        let summary = self.tree(&mut stats, sketch.clone(), self.next_seed())?;
        Ok((viz.render(&sketch, &summary), stats))
    }

    /// O10: ranges + (stacked histogram & CDF).
    pub fn stacked_histogram_with_cdf(
        &self,
        col_x: &str,
        col_y: &str,
    ) -> EngineResult<(StackedRendering, CdfRendering, OpStats)> {
        let mut stats = OpStats::default();
        let rx = self.range(&mut stats, col_x)?;
        let y_info = self.axis_info(&mut stats, col_y)?;

        let viz = StackedViz::new(col_x, col_y, self.display);
        let sketch = viz.prepare(&AxisInfo::Numeric(rx.clone()), &y_info, rx.present)?;
        let summary = self.tree(&mut stats, sketch, self.next_seed())?;
        let rendering = viz.render(&summary);

        let cdf = self.cdf(&mut stats, col_x, &rx)?;
        Ok((rendering, cdf, stats))
    }

    /// O11: heat map of two numeric columns.
    pub fn heatmap(&self, col_x: &str, col_y: &str) -> EngineResult<(ColorGrid, OpStats)> {
        let mut stats = OpStats::default();
        let x_info = self.axis_info(&mut stats, col_x)?;
        let y_info = self.axis_info(&mut stats, col_y)?;
        let count = self.count(&mut stats)?;

        let viz = HeatmapViz::new(col_x, col_y, self.display);
        let sketch = viz.prepare(&x_info, &y_info, count)?;
        let summary = self.tree(&mut stats, sketch, self.next_seed())?;
        Ok((viz.render(&summary), stats))
    }

    /// Trellis of heat maps grouped by `col_w` (Fig. 2).
    pub fn trellis_heatmap(
        &self,
        col_w: &str,
        col_x: &str,
        col_y: &str,
        groups: usize,
    ) -> EngineResult<(Vec<ColorGrid>, OpStats)> {
        let mut stats = OpStats::default();
        let w_info = self.axis_info(&mut stats, col_w)?;
        let x_info = self.axis_info(&mut stats, col_x)?;
        let y_info = self.axis_info(&mut stats, col_y)?;
        let count = self.count(&mut stats)?;
        let viz = TrellisViz::new(col_w, col_x, col_y, self.display, groups);
        let sketch = viz.prepare(&w_info, &x_info, &y_info, count)?;
        let summary = self.tree(&mut stats, sketch, self.next_seed())?;
        Ok((viz.render(&summary), stats))
    }

    // -----------------------------------------------------------------
    // Analyses (O8, O9, PCA)
    // -----------------------------------------------------------------

    /// O8: heavy hitters by sampling.
    pub fn heavy_hitters_sampling(
        &self,
        column: &str,
        k: usize,
    ) -> EngineResult<(HeavyHittersRendering, OpStats)> {
        let mut stats = OpStats::default();
        let count = self.count(&mut stats)?;

        let viz = HeavyHittersViz::sampling(column, k);
        let summary = self.tree(&mut stats, viz.prepare_sampling(count), self.next_seed())?;
        Ok((viz.render_sampling(&summary, count), stats))
    }

    /// Heavy hitters via Misra-Gries (exact guarantee, full scan).
    pub fn heavy_hitters_streaming(
        &self,
        column: &str,
        k: usize,
    ) -> EngineResult<(HeavyHittersRendering, OpStats)> {
        let viz = HeavyHittersViz::streaming(column, k);
        let mut stats = OpStats::default();
        let summary = self.tree(&mut stats, MisraGriesSketch::new(column, k), 0)?;
        Ok((viz.render_streaming(&summary), stats))
    }

    /// O9: distinct count — exact where the part statistics bound an `Int`
    /// column within three values a HyperLogLog register, else a
    /// HyperLogLog estimate.
    pub fn distinct_count(&self, column: &str) -> EngineResult<(f64, OpStats)> {
        let mut stats = OpStats::default();
        let summary = self.tree(&mut stats, self.distinct_sketch(column), 0)?;
        Ok((summary.estimate(), stats))
    }

    /// O9's sketch: the exact set of an `Int` column's values when the
    /// load's kept part statistics ([`Engine::load_stats`]) hold its
    /// extremes and they span no more than three values a HLL register;
    /// the HLL otherwise. The form does not depend on what is resident, so
    /// O9 gives one answer on one load. Not counted as a statistics answer:
    /// the tree still runs.
    fn distinct_sketch(&self, column: &str) -> DistinctSketch {
        let hll = DistinctSketch::new(column);
        let Some(stats) = self.engine.load_stats(self.dataset) else {
            return hll;
        };
        if stats.kind(column) != Some(ColumnKind::Int) {
            return hll;
        }
        let range = stats.range(column);
        let bounds = range.and_then(|r| Some((integer(r.min?)?, integer(r.max?)?)));
        match bounds {
            Some((lo, hi)) => hll.clone().with_domain(lo, hi).unwrap_or(hll),
            None => hll,
        }
    }

    /// Column summary: count, missing, min/max, mean, variance (App. B.3).
    pub fn moments(
        &self,
        column: &str,
        k: usize,
    ) -> EngineResult<(hillview_sketch::moments::MomentsSummary, OpStats)> {
        let mut stats = OpStats::default();
        Ok((
            self.tree(&mut stats, MomentsSketch::new(column, k), 0)?,
            stats,
        ))
    }

    /// Principal component analysis over numeric columns (App. B.3).
    pub fn pca(&self, columns: &[&str], rate: f64) -> EngineResult<(PcaSummary, OpStats)> {
        let mut stats = OpStats::default();
        let sketch = PcaSketch::new(columns, rate);
        Ok((self.tree(&mut stats, sketch, self.next_seed())?, stats))
    }

    // -----------------------------------------------------------------
    // Derivations (§5.6)
    // -----------------------------------------------------------------

    /// Derive a filtered sheet (zooming a chart region, O6's first step).
    /// Lazy: charts on the new sheet run fused (the predicate rides inside
    /// the sketch's block pass) until one tree has launched over it; the
    /// next chart materializes the membership for two-pass reuse. Both
    /// plans read the same cache entries, so a chart drawn fused is not
    /// recomputed after the promotion.
    pub fn filtered(&self, predicate: Predicate) -> EngineResult<Spreadsheet> {
        let ds = self.engine.filter_lazy(self.dataset, predicate);
        let sheet = Spreadsheet::new(self.engine.clone(), ds, self.display);
        Ok(sheet)
    }

    /// Derive a sheet with an extra UDF column.
    pub fn with_column(&self, udf: &str, new_column: &str) -> EngineResult<Spreadsheet> {
        let ds = self.engine.map(self.dataset, udf, new_column)?;
        Ok(Spreadsheet::new(self.engine.clone(), ds, self.display))
    }
}

/// The integer an extreme of an `Int` column's range was converted from:
/// every `i64` of magnitude below `2^53` converts to `f64` exactly, and
/// past that a statistic no longer names one integer.
fn integer(x: f64) -> Option<i64> {
    const EXACT: f64 = (1u64 << 53) as f64;
    (x.fract() == 0.0 && x.abs() < EXACT).then_some(x as i64)
}

impl std::fmt::Debug for Spreadsheet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spreadsheet({})", self.dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::dataset::{FnSource, SourceRegistry};
    use crate::error::EngineError;
    use hillview_columnar::udf::UdfRegistry;
    use hillview_data::{generate_flights, FlightsConfig};
    use hillview_storage::partition_table;

    fn sheet() -> Spreadsheet {
        sheet_on(ClusterConfig::test(), 8_000)
    }

    /// A sheet over `rows_per_worker` generated flights on each worker.
    fn sheet_on(cfg: ClusterConfig, rows_per_worker: usize) -> Spreadsheet {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new(
            "flights",
            move |w, _n, mp, snap| {
                let t = generate_flights(&FlightsConfig::new(rows_per_worker, snap ^ w as u64));
                Ok(partition_table(&t, mp))
            },
        )));
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_ratio("Speed", "Distance", "AirTime");
        udfs.register("Boom", ColumnKind::Double, |_, row| {
            panic!("udf boom at row {row}")
        });
        let cluster = Cluster::new(cfg, sources, udfs);
        let engine = Arc::new(Engine::new(cluster));
        Spreadsheet::open(engine, "flights", 1, DisplaySpec::new(200, 100)).unwrap()
    }

    #[test]
    fn o1_sort_numeric() {
        let s = sheet();
        let (page, stats) = s.sort_view(&["DepDelay"], 10).unwrap();
        assert_eq!(page.rows.len(), 10);
        assert!(stats.root_bytes > 0);
        // First row is the most-negative delay (missing sorts first but the
        // key itself is shown).
        assert!(!page.rows[0].0[0].is_empty());
    }

    #[test]
    fn o2_sort_five_columns() {
        let s = sheet();
        let (page, _) = s
            .sort_view(&["Year", "Month", "DayOfMonth", "Carrier", "FlightNum"], 5)
            .unwrap();
        assert_eq!(page.headers.len(), 5);
        assert_eq!(page.rows.len(), 5);
    }

    #[test]
    fn o3_sort_string() {
        let s = sheet();
        let (page, _) = s.sort_view(&["Origin"], 8).unwrap();
        // Ascending airport codes.
        let codes: Vec<&String> = page.rows.iter().map(|(r, _)| &r[0]).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn o4_scrollbar_quantile() {
        let s = sheet();
        let (page, stats) = s.scroll_to(&["Distance"], 50, 5).unwrap();
        assert!(!page.rows.is_empty());
        assert!(stats.trees >= 2, "quantile + next-items trees");
    }

    /// Dragging the scroll bar to the top shows the first page, not the
    /// page after the smallest sampled key, and needs no count or quantile.
    #[test]
    fn o4_at_pixel_zero_is_the_first_page() {
        let s = sheet();
        let (top, stats) = s.scroll_to(&["Distance"], 0, 5).unwrap();
        assert_eq!(top, s.sort_view(&["Distance"], 5).unwrap().0);
        assert_eq!(stats.trees, 1);
    }

    /// Every query of an operation is counted, preparation trees included,
    /// and so is each one the root's memo answered: with no batch tick
    /// inside a tree, each of the two workers sends the root exactly its
    /// final frame for every tree that launched. A row count or numeric
    /// range the part statistics answer is no tree and sends nothing.
    #[test]
    fn stats_count_the_messages_of_every_tree() {
        let cfg = ClusterConfig {
            batch_interval: Duration::from_secs(30),
            worker_timeout: Duration::from_secs(120),
            ..ClusterConfig::test()
        };
        let s = sheet_on(cfg, 8_000);
        // Each operation with its trees and its statistics answers: O4's
        // row count, O5's range, O10's x range (its y axis, a string, runs
        // quantiles and no range), and O11's two ranges and row count.
        let ops = [
            ("O4", s.scroll_to(&["Distance"], 50, 5).unwrap().1, 2, 1),
            (
                "O5",
                s.histogram_with_cdf("DepDelay", None).unwrap().2,
                2,
                1,
            ),
            (
                "O10",
                s.stacked_histogram_with_cdf("CRSDepTime", "Carrier")
                    .unwrap()
                    .2,
                3,
                1,
            ),
            ("O11", s.heatmap("Distance", "AirTime").unwrap().1, 1, 3),
        ];
        for (op, stats, trees, answers) in &ops {
            assert_eq!(stats.trees, *trees, "{op} trees");
            assert_eq!(stats.stats_answers, *answers, "{op} statistics answers");
            assert_eq!(stats.memo_hits, 0, "{op} repeats no query");
            let launched = (stats.trees - stats.memo_hits) as u64;
            assert_eq!(stats.root_messages, 2 * launched, "{op} messages");
            assert!(stats.first_partial.is_some(), "{op} first frame");
        }
        // O11 counts rows as O4 did, on the same sheet: the statistics
        // answer both times, and the same count.
        let (rows, again) = s.row_count().unwrap();
        assert_eq!(rows, 16_000);
        assert_eq!((again.trees, again.stats_answers), (0, 1));
        assert_eq!((again.root_bytes, again.root_messages), (0, 0));
    }

    /// O4's page is a pure function of (data, seed): the quantile tree's
    /// sorted weighted summaries do not depend on how a partition was split
    /// or which thread ran which piece.
    #[test]
    fn o4_page_is_bit_identical_across_threads_and_grain() {
        let order = ["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"];
        let mut pages = Vec::new();
        for threads_per_worker in [1, 4] {
            for leaf_grain_rows in [4_096, 65_536] {
                let cfg = ClusterConfig {
                    threads_per_worker,
                    leaf_grain_rows,
                    micropartition_rows: 25_000,
                    ..ClusterConfig::test()
                };
                // 80k rows: above the 58k sample budget, so rows are sampled.
                let s = sheet_on(cfg, 40_000);
                pages.push(s.scroll_to(&order, 37, 20).unwrap().0);
            }
        }
        assert!(!pages[0].rows.is_empty());
        assert!(pages.iter().all(|p| *p == pages[0]));
    }

    #[test]
    fn o5_histogram_and_cdf() {
        let s = sheet();
        let (chart, cdf, stats) = s.histogram_with_cdf("DepDelay", Some(20)).unwrap();
        assert_eq!(chart.heights_px.len(), 20);
        assert_eq!(*chart.heights_px.iter().max().unwrap() as usize, 100);
        assert!(cdf.heights_px.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(stats.trees, 2, "histogram + cdf");
        assert_eq!(stats.stats_answers, 1, "the range, from the statistics");
    }

    #[test]
    fn o6_filter_then_histogram() {
        let s = sheet();
        let ua = s.filtered(Predicate::equals("Carrier", "UA")).unwrap();
        let (count, _) = ua.row_count().unwrap();
        let (all, _) = s.row_count().unwrap();
        assert!(count > 0 && count < all);
        let (chart, _, _) = ua.histogram_with_cdf("DepDelay", Some(10)).unwrap();
        assert_eq!(chart.heights_px.len(), 10);
    }

    #[test]
    fn o7_string_histogram() {
        let s = sheet();
        let (chart, _) = s.string_histogram("Origin").unwrap();
        assert!(chart.heights_px.len() > 10, "many airports");
        assert!(chart.max_count > 0);
    }

    #[test]
    fn o8_heavy_hitters_sampling() {
        let s = sheet();
        let (hh, _) = s.heavy_hitters_sampling("Carrier", 5).unwrap();
        assert!(!hh.items.is_empty());
        // WN is the most common carrier in the generator.
        assert_eq!(hh.items[0].0.to_string(), "WN");
    }

    #[test]
    fn o9_distinct_count() {
        let s = sheet();
        let (est, _) = s.distinct_count("Carrier").unwrap();
        assert!((est - 14.0).abs() < 1.5, "14 carriers, estimated {est}");
    }

    /// O9 takes the exact form where the part statistics bound an `Int`
    /// column within three values a register, and the HLL everywhere else.
    #[test]
    fn o9_is_exact_where_the_statistics_bound_an_int_column() {
        let s = sheet();
        let domain = |sheet: &Spreadsheet, column| sheet.distinct_sketch(column).domain();
        let (range, _) = s.range_of("FlightNum").unwrap();
        let bounds = (range.min.unwrap() as i64, range.max.unwrap() as i64);
        assert_eq!(domain(&s, "FlightNum"), Some(bounds));
        assert!(domain(&s, "DepTime").is_some(), "nullable, and bounded");
        for other_kind in ["FlightDate", "DepDelay", "Carrier", "TailNum", "Nope"] {
            assert_eq!(domain(&s, other_kind), None, "{other_kind}");
        }
        let ua = s.filtered(Predicate::equals("Carrier", "UA")).unwrap();
        assert_eq!(domain(&ua, "FlightNum"), None);
        let mapped = s.with_column("Speed", "Speed").unwrap();
        assert_eq!(domain(&mapped, "FlightNum"), None);
        // The exact count of the flight numbers the workers generated.
        let mut flights = std::collections::HashSet::new();
        for w in 0..s.engine().cluster().num_workers() {
            let t = generate_flights(&FlightsConfig::new(8_000, 1 ^ w as u64));
            let num = t.column_by_name("FlightNum").unwrap();
            flights.extend((0..t.num_rows()).map(|r| num.value(r)));
        }
        let (count, stats) = s.distinct_count("FlightNum").unwrap();
        assert_eq!(count, flights.len() as f64);
        assert_eq!((stats.trees, stats.stats_answers), (1, 0));
        // Nothing resident takes the form away: not a worker down, nor an
        // evicted dataset.
        s.engine().cluster().worker(1).kill();
        assert_eq!(domain(&s, "FlightNum"), Some(bounds));
        s.engine().cluster().evict_all();
        assert_eq!(domain(&s, "FlightNum"), Some(bounds));
        assert_eq!(domain(&s, "DepDelay"), None);

        // A column wider than three values a register, 12 288 at p = 12.
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("wide", |w, _n, mp, _snap| {
            let t = hillview_columnar::Table::builder()
                .column(
                    "Wide",
                    ColumnKind::Int,
                    hillview_columnar::Column::Int(
                        hillview_columnar::column::I64Column::from_options(
                            (0..1_000).map(|i| Some(i * 25 + w as i64)),
                        ),
                    ),
                )
                .build()?;
            Ok(partition_table(&t, mp))
        })));
        let cluster = Cluster::new(ClusterConfig::test(), sources, UdfRegistry::with_builtins());
        let engine = Arc::new(Engine::new(cluster));
        let wide = Spreadsheet::open(engine, "wide", 1, DisplaySpec::new(200, 100)).unwrap();
        assert_eq!(wide.range_of("Wide").unwrap().0.max, Some(24_976.0));
        assert_eq!(domain(&wide, "Wide"), None);
    }

    /// O9 gives one answer on one load, whatever is resident when it runs.
    #[test]
    fn o9_answers_alike_after_eviction_and_worker_loss() {
        let s = sheet();
        let first = s.distinct_count("FlightNum").unwrap().0;
        s.engine().cluster().evict_all();
        let evicted = s.distinct_count("FlightNum").unwrap();
        assert_eq!(evicted.0, first);
        assert_eq!(evicted.1.trees, 1, "the evicted load is replayed");
        s.engine().cluster().worker(0).kill();
        assert_eq!(s.distinct_count("FlightNum").unwrap().0, first);
        s.engine().cluster().memo().clear();
        s.engine().cluster().worker(1).evict(s.dataset);
        assert_eq!(s.distinct_count("FlightNum").unwrap().0, first);
    }

    #[test]
    fn only_integers_below_2_pow_53_bound_a_domain() {
        let edge = (1u64 << 53) as f64;
        assert_eq!(integer(-3.0), Some(-3));
        assert_eq!(integer(edge - 1.0), Some((1 << 53) - 1));
        assert_eq!(integer(-edge + 1.0), Some(1 - (1 << 53)));
        for x in [edge, -edge, 0.5, f64::NAN, f64::INFINITY, i64::MAX as f64] {
            assert_eq!(integer(x), None, "{x}");
        }
    }

    #[test]
    fn o10_stacked_histogram() {
        let s = sheet();
        let (stacked, cdf, _) = s
            .stacked_histogram_with_cdf("CRSDepTime", "Carrier")
            .unwrap();
        assert!(!stacked.bar_px.is_empty());
        assert!(!cdf.heights_px.is_empty());
    }

    #[test]
    fn o11_heatmap() {
        let s = sheet();
        let (grid, stats) = s.heatmap("Distance", "AirTime").unwrap();
        assert!(grid.bx > 0 && grid.by > 0);
        assert!(grid.max_count > 0);
        // Heatmaps ship Bx×By cells — the largest summaries (paper Fig. 5).
        assert!(stats.root_bytes > 500);
    }

    #[test]
    fn find_text_flow() {
        let s = sheet();
        let (found, _) = s
            .find_text(
                "Origin",
                "SFO",
                StrMatchKind::Exact,
                false,
                &["FlightDate"],
                None,
            )
            .unwrap();
        assert!(found.matches_total > 0);
        assert!(found.first.is_some());
    }

    #[test]
    fn udf_column_then_chart() {
        let s = sheet();
        let with_speed = s.with_column("Speed", "Speed").unwrap();
        let (chart, _, _) = with_speed.histogram_with_cdf("Speed", Some(10)).unwrap();
        assert_eq!(chart.heights_px.len(), 10);
    }

    /// A UDF that panics while a map step derives its column is a
    /// `LeafPanicked` carrying the panic's text, caught inside the task:
    /// the workers stay up and the pool's backstop never fires.
    #[test]
    fn a_panicking_udf_is_a_leaf_panic_not_a_dead_worker() {
        let s = sheet();
        let err = s.with_column("Boom", "Boom").unwrap_err();
        let EngineError::RetriesExhausted { attempts, last } = err else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert_eq!(attempts, 8);
        let EngineError::LeafPanicked { message, .. } = *last else {
            panic!("expected LeafPanicked, got {last:?}");
        };
        assert!(message.starts_with("udf boom at row"), "{message}");
        let cluster = s.engine().cluster();
        for w in 0..cluster.num_workers() {
            assert!(cluster.worker(w).is_alive());
            assert_eq!(cluster.worker(w).pool().tasks_panicked(), 0);
        }
    }

    #[test]
    fn moments_summary() {
        let s = sheet();
        let (m, _) = s.moments("Distance", 2).unwrap();
        assert!(m.present > 0);
        assert!(m.mean().unwrap() > 100.0);
        assert!(m.variance().unwrap() > 0.0);
    }

    #[test]
    fn pca_on_delay_columns() {
        let s = sheet();
        let (p, _) = s.pca(&["DepDelay", "ArrDelay", "Distance"], 1.0).unwrap();
        let corr = p.correlation().unwrap();
        // Departure and arrival delay are strongly correlated by design.
        assert!(corr.get(0, 1) > 0.5, "corr {}", corr.get(0, 1));
        let eig = p.principal_components().unwrap();
        assert!(eig.values[0] >= eig.values[1]);
    }

    /// A preparation tree's summary is cached: here a string column's
    /// quantiles, which no statistics answer.
    #[test]
    fn preparation_results_are_cached() {
        let s = sheet();
        let hits = || -> u64 {
            let cluster = s.engine().cluster();
            let workers = 0..cluster.num_workers();
            workers.map(|i| cluster.worker(i).cache_hits()).sum()
        };
        let _ = s.string_quantiles("Origin").unwrap();
        let hits_before = hits();
        let _ = s.string_quantiles("Origin").unwrap();
        assert!(hits() > hits_before, "second quantiles served from cache");
    }

    /// On an unfiltered sheet a row count and a numeric range come from the
    /// part statistics, as the bytes the tree folds, and touch no cache.
    #[test]
    fn statistics_answer_what_the_tree_folds() {
        use hillview_net::Wire as _;
        let s = sheet();
        let opts = QueryOptions::default();
        let cache = s.engine().cluster().cache_stats();
        let (rows, stats) = s.row_count().unwrap();
        assert_eq!((stats.trees, stats.stats_answers), (0, 1));
        for column in ["DepDelay", "Distance", "FlightDate", "Year"] {
            let (range, stats) = s.range_of(column).unwrap();
            assert_eq!((stats.trees, stats.stats_answers), (0, 1), "{column}");
            let sketch = RangeSketch::new(column);
            let (tree, _) = s.engine().run(s.dataset(), sketch, &opts).unwrap();
            assert_eq!(range.to_bytes(), tree.to_bytes(), "{column}");
        }
        let after = s.engine().cluster().cache_stats();
        assert_eq!(after.hits + after.misses, cache.hits + cache.misses + 8);
        let (tree, _) = s
            .engine()
            .run(s.dataset(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(rows, tree.rows);
    }

    /// What the statistics cannot vouch for runs the tree: a filtered
    /// sheet, a sheet with a derived column, and a sheet whose worker died
    /// or whose data was evicted — which the tree recovers, and whose
    /// replay folds the statistics again.
    #[test]
    fn every_fallback_launches_the_tree() {
        let s = sheet();
        let (want, _) = s.range_of("DepDelay").unwrap();
        let tree = |stats: &OpStats| (stats.trees, stats.stats_answers);
        let ua = s.filtered(Predicate::equals("Carrier", "UA")).unwrap();
        assert_eq!(tree(&ua.range_of("DepDelay").unwrap().1), (1, 0));
        assert_eq!(tree(&ua.row_count().unwrap().1), (1, 0));
        let mapped = s.with_column("Speed", "Speed").unwrap();
        assert_eq!(tree(&mapped.range_of("Speed").unwrap().1), (1, 0));
        assert_eq!(tree(&mapped.range_of("DepDelay").unwrap().1), (1, 0));
        let cluster = s.engine().cluster().clone();
        for lose in [
            |c: &Cluster| c.worker(1).kill(),
            |c: &Cluster| c.evict_all(),
        ] {
            lose(&cluster);
            let (range, stats) = s.range_of("DepDelay").unwrap();
            assert_eq!((range, tree(&stats)), (want.clone(), (1, 0)));
            assert_eq!(tree(&s.range_of("DepDelay").unwrap().1), (0, 1));
        }
    }

    #[test]
    fn trellis_renders_groups() {
        let s = sheet();
        let (grids, _) = s
            .trellis_heatmap("Carrier", "Distance", "AirTime", 4)
            .unwrap();
        assert_eq!(grids.len(), 4);
    }
}
