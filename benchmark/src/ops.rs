//! The spreadsheet operations the workloads issue, each in two forms: the
//! call through [`Spreadsheet`] that is timed, and the list of sketches
//! that call runs — rebuilt with the public `viz::*::prepare*` constructors
//! exactly as `spreadsheet.rs` builds them — so the traced run can replay an
//! operation layer by layer.

use bytes::Bytes;
use hillview_columnar::{fnv1a, Predicate, SortOrder, FNV_OFFSET};
use hillview_core::erased::{erase, ErasedSketch};
use hillview_core::spreadsheet::{OpStats, Spreadsheet};
use hillview_core::{DatasetId, Engine, EngineResult, QueryOptions};
use hillview_net::Wire;
use hillview_sketch::bottomk::BottomKSketch;
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::Sketch;
use hillview_viz::cdf::CdfViz;
use hillview_viz::display::DisplaySpec;
use hillview_viz::heatmap::{AxisInfo, HeatmapViz};
use hillview_viz::heavyviz::HeavyHittersViz;
use hillview_viz::histogram::HistogramViz;
use hillview_viz::stacked::StackedViz;
use hillview_viz::tableview::TableViewViz;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE_ROWS: usize = 20;

/// Which end-to-end metric an operation's time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Table,
    Chart,
}

#[derive(Debug, Clone)]
pub enum OpSpec {
    /// O1–O3: sort the view and show its first page.
    SortView(&'static [&'static str]),
    /// O4: drag the scroll bar to a pixel.
    ScrollTo(&'static [&'static str], usize),
    /// O5: range, then histogram and CDF.
    HistCdf(&'static str),
    /// O6: derive `column = value`, then O5 on the derived sheet.
    FilteredHistCdf {
        filter_column: &'static str,
        value: &'static str,
        column: &'static str,
    },
    /// O7: string quantiles, then an exact histogram.
    StringHist(&'static str),
    /// O8: heavy hitters by sampling.
    HeavySampling(&'static str, usize),
    /// O9: approximate distinct count.
    Distinct(&'static str),
    /// O10: stacked histogram and CDF.
    StackedCdf(&'static str, &'static str),
    /// O11: heat map.
    Heatmap(&'static str, &'static str),
    RowCount,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub name: &'static str,
    pub spec: OpSpec,
}

const DATE_KEY: &[&str] = &["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"];

/// Fig. 4's O1–O11 on the flights table, as `figures.rs::run_op` scripts them.
pub fn flight_ops() -> Vec<Op> {
    let op = |name, spec| Op { name, spec };
    vec![
        op("O1", OpSpec::SortView(&["DepDelay"])),
        op("O2", OpSpec::SortView(DATE_KEY)),
        op("O3", OpSpec::SortView(&["TailNum"])),
        op("O4", OpSpec::ScrollTo(DATE_KEY, 50)),
        op("O5", OpSpec::HistCdf("DepDelay")),
        op(
            "O6",
            OpSpec::FilteredHistCdf {
                filter_column: "Carrier",
                value: "UA",
                column: "DepDelay",
            },
        ),
        op("O7", OpSpec::StringHist("Origin")),
        op("O8", OpSpec::HeavySampling("Carrier", 10)),
        op("O9", OpSpec::Distinct("FlightNum")),
        op("O10", OpSpec::StackedCdf("CRSDepTime", "Carrier")),
        op("O11", OpSpec::Heatmap("Distance", "AirTime")),
    ]
}

pub fn flight_op(name: &str) -> Op {
    flight_ops()
        .into_iter()
        .find(|o| o.name == name)
        .expect("a Fig. 4 operation name")
}

/// What the analyst is shown. Two outputs are equal when their `Debug`
/// text is — every rendering type derives it over all of its fields.
#[derive(Debug)]
pub struct Rendered(Box<dyn std::fmt::Debug>);

impl Rendered {
    pub fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, format!("{:?}", self.0).as_bytes())
    }
}

fn rendered(v: impl std::fmt::Debug + 'static) -> Rendered {
    Rendered(Box::new(v))
}

impl OpSpec {
    pub fn class(&self) -> Class {
        match self {
            OpSpec::SortView(_) | OpSpec::ScrollTo(..) => Class::Table,
            _ => Class::Chart,
        }
    }

    /// Issue the operation on a fresh sheet over `dataset`.
    pub fn run(
        &self,
        engine: &Arc<Engine>,
        dataset: DatasetId,
        display: DisplaySpec,
        seed: u64,
    ) -> EngineResult<(Rendered, OpStats)> {
        let sheet = Spreadsheet::new(engine.clone(), dataset, display);
        sheet.set_seed(seed);
        Ok(match self {
            OpSpec::SortView(cols) => {
                let (page, stats) = sheet.sort_view(cols, PAGE_ROWS)?;
                (rendered(page), stats)
            }
            OpSpec::ScrollTo(cols, pixel) => {
                let (page, stats) = sheet.scroll_to(cols, *pixel, PAGE_ROWS)?;
                (rendered(page), stats)
            }
            OpSpec::HistCdf(col) => {
                let (chart, cdf, stats) = sheet.histogram_with_cdf(col, None)?;
                (rendered((chart, cdf)), stats)
            }
            OpSpec::FilteredHistCdf {
                filter_column,
                value,
                column,
            } => {
                // The derivation is part of the operation; it is lazy, so
                // its cost lands in the trees of the chart that follows.
                let filtered = sheet.filtered(Predicate::equals(filter_column, *value))?;
                filtered.set_seed(seed);
                let (chart, cdf, stats) = filtered.histogram_with_cdf(column, None)?;
                (rendered((chart, cdf)), stats)
            }
            OpSpec::StringHist(col) => {
                let (chart, stats) = sheet.string_histogram(col)?;
                (rendered(chart), stats)
            }
            OpSpec::HeavySampling(col, k) => {
                let (hh, stats) = sheet.heavy_hitters_sampling(col, *k)?;
                (rendered(hh), stats)
            }
            OpSpec::Distinct(col) => {
                let (estimate, stats) = sheet.distinct_count(col)?;
                (rendered(estimate), stats)
            }
            OpSpec::StackedCdf(x, y) => {
                let (stacked, cdf, stats) = sheet.stacked_histogram_with_cdf(x, y)?;
                (rendered((stacked, cdf)), stats)
            }
            OpSpec::Heatmap(x, y) => {
                let (grid, stats) = sheet.heatmap(x, y)?;
                (rendered(grid), stats)
            }
            OpSpec::RowCount => {
                let (rows, stats) = sheet.row_count()?;
                (rendered(rows), stats)
            }
        })
    }
}

/// Times of the typed tail of one stage: wire decode and encode of the
/// merged summary, and the `viz` render.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTail {
    pub decode: Duration,
    pub encode: Duration,
    pub render: Duration,
}

type TailFn = dyn Fn(&Bytes) -> EngineResult<StageTail>;

/// One sketch of an operation, ready to be replayed layer by layer.
pub struct Stage {
    /// Which `sketch.<kind>_ms_per_mrow` metric the kernel time feeds.
    pub kind: &'static str,
    pub sketch: Arc<dyn ErasedSketch>,
    pub columns: Vec<&'static str>,
    /// Time spent in the `viz` constructor that built the sketch.
    pub prepare: Duration,
    tail: Box<TailFn>,
}

impl Stage {
    pub fn tail(&self, merged: &Bytes) -> EngineResult<StageTail> {
        (self.tail)(merged)
    }
}

fn stage<S: Sketch>(
    kind: &'static str,
    sketch: S,
    columns: &[&'static str],
    prepare: Duration,
    render: impl Fn(&S::Summary) + 'static,
) -> Stage {
    Stage {
        kind,
        sketch: erase(sketch),
        columns: columns.to_vec(),
        prepare,
        tail: Box::new(move |merged| {
            let started = Instant::now();
            let summary = S::Summary::from_bytes(merged.clone())?;
            let decode = started.elapsed();
            let started = Instant::now();
            black_box(summary.to_bytes());
            let encode = started.elapsed();
            let started = Instant::now();
            render(&summary);
            Ok(StageTail {
                decode,
                encode,
                render: started.elapsed(),
            })
        }),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let v = f();
    (v, started.elapsed())
}

/// Where an operation's sketches are replayed: a materialized dataset,
/// optionally narrowed by a predicate that every sketch runs fused with.
pub struct ProbeTarget<'a> {
    pub engine: &'a Arc<Engine>,
    pub dataset: DatasetId,
    pub filter: Option<Predicate>,
    pub display: DisplaySpec,
    pub seed: u64,
}

impl ProbeTarget<'_> {
    /// Never through the result cache: a probe must neither be answered
    /// from it nor change its counters.
    pub fn options(&self) -> QueryOptions {
        QueryOptions {
            seed: self.seed,
            cache: false,
            ..QueryOptions::default()
        }
    }

    fn run<S: Sketch>(&self, sketch: S) -> EngineResult<S::Summary> {
        let opts = self.options();
        Ok(match &self.filter {
            None => self.engine.run(self.dataset, sketch, &opts)?.0,
            Some(p) => {
                self.engine
                    .run_filtered(self.dataset, p.clone(), sketch, &opts)?
                    .0
            }
        })
    }

    fn range(&self, column: &'static str, out: &mut Vec<Stage>) -> EngineResult<RangeSummary> {
        let sketch = RangeSketch::new(column);
        out.push(stage(
            "range",
            sketch.clone(),
            &[column],
            Duration::ZERO,
            |_| {},
        ));
        self.run(sketch)
    }

    /// Phase-1 information for an axis, as `Spreadsheet::axis_info` finds it.
    fn axis(&self, column: &'static str, out: &mut Vec<Stage>) -> EngineResult<AxisInfo> {
        let range = self.range(column, out)?;
        if range.min.is_some() {
            return Ok(AxisInfo::Numeric(range));
        }
        let bottomk = BottomKSketch::new(column, 512);
        out.push(stage(
            "bottomk",
            bottomk.clone(),
            &[column],
            Duration::ZERO,
            |_| {},
        ));
        Ok(AxisInfo::Strings(self.run(bottomk)?))
    }

    fn count(&self, out: &mut Vec<Stage>) -> EngineResult<u64> {
        out.push(stage(
            "count",
            CountSketch::rows(),
            &[],
            Duration::ZERO,
            |_| {},
        ));
        Ok(self.run(CountSketch::rows())?.rows)
    }

    fn hist_cdf(&self, column: &'static str, out: &mut Vec<Stage>) -> EngineResult<()> {
        let range = self.range(column, out)?;
        let viz = HistogramViz::new(column, self.display);
        let (sketch, prepare) = timed(|| viz.prepare_numeric(&range));
        let sketch = sketch?;
        let for_render = sketch.clone();
        out.push(stage("histogram", sketch, &[column], prepare, move |s| {
            black_box(viz.render(&for_render, s));
        }));
        self.cdf(column, &range, out)
    }

    fn cdf(
        &self,
        column: &'static str,
        range: &RangeSummary,
        out: &mut Vec<Stage>,
    ) -> EngineResult<()> {
        let viz = CdfViz::new(column, self.display);
        let (sketch, prepare) = timed(|| viz.prepare(range));
        out.push(stage("histogram", sketch?, &[column], prepare, move |s| {
            black_box(viz.render(s));
        }));
        Ok(())
    }
}

impl OpSpec {
    /// The predicate the operation itself derives its sheet with, which a
    /// replay must run fused with every sketch of the operation.
    pub fn own_filter(&self) -> Option<Predicate> {
        match self {
            OpSpec::FilteredHistCdf {
                filter_column,
                value,
                ..
            } => Some(Predicate::equals(filter_column, *value)),
            _ => None,
        }
    }

    /// The sketches this operation runs, in order. Data-wide parameters a
    /// later sketch needs (ranges, counts, quantiles) are computed through
    /// the engine with the cache off.
    pub fn stages(&self, target: &ProbeTarget<'_>) -> EngineResult<Vec<Stage>> {
        let mut out = Vec::new();
        match self {
            OpSpec::SortView(cols) => {
                let viz = TableViewViz::new(SortOrder::ascending(cols), PAGE_ROWS);
                let (sketch, prepare) = timed(|| viz.page_after(None));
                out.push(stage("nextk", sketch, cols, prepare, move |s| {
                    black_box(viz.render(s));
                }));
            }
            OpSpec::ScrollTo(cols, pixel) => {
                let count = target.count(&mut out)?;
                let viz = TableViewViz::new(SortOrder::ascending(cols), PAGE_ROWS);
                let (quantile, prepare) = timed(|| viz.scrollbar_quantile(count));
                out.push(stage("quantile", quantile.clone(), cols, prepare, |_| {}));
                let start = target
                    .run(quantile)?
                    .quantile(viz.pixel_to_quantile(*pixel));
                let (sketch, prepare) = timed(|| viz.page_after(start));
                out.push(stage("nextk", sketch, cols, prepare, move |s| {
                    black_box(viz.render(s));
                }));
            }
            OpSpec::HistCdf(column) => target.hist_cdf(column, &mut out)?,
            // The derived sheet's predicate is the target's filter: see
            // [`OpSpec::own_filter`].
            OpSpec::FilteredHistCdf { column, .. } => target.hist_cdf(column, &mut out)?,
            OpSpec::StringHist(column) => {
                let bottomk = BottomKSketch::new(column, 512);
                out.push(stage(
                    "bottomk",
                    bottomk.clone(),
                    &[*column],
                    Duration::ZERO,
                    |_| {},
                ));
                let quantiles = target.run(bottomk)?;
                let viz = HistogramViz::new(column, target.display).exact();
                let (sketch, prepare) = timed(|| viz.prepare_strings(&quantiles));
                let sketch = sketch?;
                let for_render = sketch.clone();
                out.push(stage("histogram", sketch, &[*column], prepare, move |s| {
                    black_box(viz.render(&for_render, s));
                }));
            }
            OpSpec::HeavySampling(column, k) => {
                let count = target.count(&mut out)?;
                let viz = HeavyHittersViz::sampling(column, *k);
                let (sketch, prepare) = timed(|| viz.prepare_sampling(count));
                out.push(stage("heavy", sketch, &[*column], prepare, move |s| {
                    black_box(viz.render_sampling(s, count));
                }));
            }
            OpSpec::Distinct(column) => {
                out.push(stage(
                    "distinct",
                    DistinctSketch::new(column),
                    &[*column],
                    Duration::ZERO,
                    |s| {
                        black_box(s.estimate());
                    },
                ));
            }
            OpSpec::StackedCdf(x, y) => {
                let x_info = target.axis(x, &mut out)?;
                let y_info = target.axis(y, &mut out)?;
                let AxisInfo::Numeric(x_range) = &x_info else {
                    return Err(hillview_core::EngineError::Sketch(format!(
                        "stacked histogram needs a numeric X column, {x} is not"
                    )));
                };
                let viz = StackedViz::new(x, y, target.display);
                let (sketch, prepare) = timed(|| viz.prepare(&x_info, &y_info, x_range.present));
                out.push(stage("stacked", sketch?, &[*x, *y], prepare, move |s| {
                    black_box(viz.render(s));
                }));
                target.cdf(x, x_range, &mut out)?;
            }
            OpSpec::Heatmap(x, y) => {
                let x_info = target.axis(x, &mut out)?;
                let y_info = target.axis(y, &mut out)?;
                let count = target.count(&mut out)?;
                let viz = HeatmapViz::new(x, y, target.display);
                let (sketch, prepare) = timed(|| viz.prepare(&x_info, &y_info, count));
                out.push(stage("heatmap", sketch?, &[*x, *y], prepare, move |s| {
                    black_box(viz.render(s));
                }));
            }
            OpSpec::RowCount => {
                target.count(&mut out)?;
            }
        }
        Ok(out)
    }
}
