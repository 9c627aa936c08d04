//! Histogram bucket-count kernels, streaming (exact) and sampled.
//!
//! Paper §4.3: the histogram vizketch divides a range into B equi-sized
//! intervals; the summarize function outputs a vector of B bin counts and
//! merge adds two vectors. The *sampled* variant reads only a uniform subset
//! of rows at a supplied rate — the viz layer picks the rate from the screen
//! resolution so the error stays under half a pixel (App. C.2). CDFs reuse
//! this kernel with one bucket per horizontal pixel.
//!
//! The hot loop consumes decoded [`hillview_columnar::block::Block`]
//! frames: 64 value lanes, one selection word, one validity word. Bucket
//! indexes for a whole frame are computed by the lane-parallel
//! [`hillview_columnar::simd::bucket_indexes`] primitive (vector-dispatched
//! at runtime on x86-64, scalar otherwise — bit-identical either way,
//! since counter increments commute and dead lanes land in a trash slot).
//! [`HistogramSketch::summarize_rowwise`] keeps the per-row scan as the
//! reference implementation for the equivalence property tests.

use crate::bind::{numeric_params, BoundColumn};
use crate::buckets::{add_counts, grid_cells, BucketSpec};
use crate::traits::{Sketch, SketchError, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::{scan_values, Selection};
use hillview_columnar::simd::{self, BucketParams, LaneValue};
use hillview_columnar::{row_sampled, scan_blocks, Block, BlockSink, Column};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Histogram sketch over one column.
#[derive(Debug, Clone)]
pub struct HistogramSketch {
    /// Column to bucket (numeric for [`BucketSpec::Numeric`], string for
    /// [`BucketSpec::Strings`]).
    pub column: Arc<str>,
    /// Bucket boundaries.
    pub buckets: BucketSpec,
    /// Row sampling rate; `>= 1.0` streams every row (exact).
    pub rate: f64,
}

impl HistogramSketch {
    /// Exact (streaming) histogram.
    pub fn streaming(column: &str, buckets: BucketSpec) -> Self {
        HistogramSketch {
            column: Arc::from(column),
            buckets,
            rate: 1.0,
        }
    }

    /// Sampled histogram at `rate`.
    pub fn sampled(column: &str, buckets: BucketSpec, rate: f64) -> Self {
        HistogramSketch {
            column: Arc::from(column),
            buckets,
            rate,
        }
    }
}

/// Bucket counts produced by a [`HistogramSketch`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Count per bucket (of sampled rows when `rate < 1`).
    pub buckets: Vec<u64>,
    /// Sampled rows whose value was missing.
    pub missing: u64,
    /// Sampled rows whose value fell outside the bucket range.
    pub out_of_range: u64,
    /// Total rows inspected (= sample size at the leaf).
    pub rows_inspected: u64,
}

impl HistogramSummary {
    /// Zero counts for `n` buckets.
    pub fn zero(n: usize) -> Self {
        HistogramSummary {
            buckets: vec![0; n],
            ..Default::default()
        }
    }

    /// Total count across buckets.
    pub fn total_in_buckets(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

impl Summary for HistogramSummary {
    fn merge(&mut self, other: Self) {
        add_counts([&mut self.buckets], [other.buckets]);
        self.missing += other.missing;
        self.out_of_range += other.out_of_range;
        self.rows_inspected += other.rows_inspected;
    }
}

/// Layout: bucket count, the buckets as counts (zero runs, or sparse
/// where that is shorter; see [`WireWriter::put_counts`]), `missing`,
/// `out_of_range`, `rows_inspected`.
impl Wire for HistogramSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.buckets.len() as u64);
        w.put_counts(&self.buckets);
        w.put_varint(self.missing);
        w.put_varint(self.out_of_range);
        w.put_varint(self.rows_inspected);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let n = r.get_len("histogram buckets")?;
        Ok(HistogramSummary {
            buckets: r.get_counts(n)?,
            missing: r.get_varint()?,
            out_of_range: r.get_varint()?,
            rows_inspected: r.get_varint()?,
        })
    }
}

impl Sketch for HistogramSketch {
    type Summary = HistogramSummary;

    fn name(&self) -> &'static str {
        if self.rate >= 1.0 {
            "histogram-streaming"
        } else {
            "histogram-sampled"
        }
    }

    /// Counters are integers, so range partials fold back to exactly the
    /// unsplit summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<HistogramSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let bound = BoundColumn::bind(col, &self.buckets)?;
        let mut out = HistogramSummary::zero(grid_cells(&[self.buckets.count()])?);
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        view.scan(scope, sample, |sel| match &bound {
            // Numeric buckets over numeric columns: block frames with one
            // null-word check per 64 rows. Bucket indexes of a whole frame
            // are computed by the lane-parallel primitive (dead lanes to a
            // trash slot, branch-free), then folded into the counters. The
            // arithmetic is `index_of_f64` with the spec fields hoisted;
            // identical expression order, and counter additions commute, so
            // the result is bit-identical to the reference path under
            // either codegen.
            BoundColumn::F64 { data, nulls, spec } => {
                scan_numeric_blocks(sel, *data, *nulls, numeric_params(spec), &mut out)
            }
            BoundColumn::I64 { data, nulls, spec } => {
                scan_numeric_blocks(sel, *data, *nulls, numeric_params(spec), &mut out)
            }
            // String buckets over dictionary columns: the binding bucketed
            // the dictionary once, rows count by code. One column needs no
            // cell frames, so this streams the codes themselves — measured
            // at two thirds the time of `scan_cells` with one column.
            BoundColumn::Dict {
                codes,
                nulls,
                code_bucket,
                ..
            } => scan_values(
                sel,
                *codes,
                *nulls,
                &mut out.missing,
                |code| match code_bucket[code as usize] {
                    Some(b) => out.buckets[b] += 1,
                    None => out.out_of_range += 1,
                },
            ),
        })?;
        // Every inspected (sampled) row lands in exactly one counter.
        out.rows_inspected = out.total_in_buckets() + out.missing + out.out_of_range;
        Ok(out)
    }

    fn identity(&self) -> HistogramSummary {
        HistogramSummary::zero(self.buckets.count())
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // Only the exact (streaming) histogram is seed-independent.
        (self.rate >= 1.0).then(|| format!("{}|{:?}", self.column, self.buckets).into_bytes())
    }
}

/// Block-based numeric histogram loop shared by the Double and Int/Date
/// arms; any [`ScanSource`](hillview_columnar::ScanSource) whose lanes
/// convert to `f64` works (plain float slices, every integer encoding).
///
/// Counts land in a `cnt + 2`-slot scratch vector: slot `cnt` collects
/// out-of-range rows and slot `cnt + 1` is the trash slot that dead lanes
/// (unselected or null) of vectorized frames scatter into, so the lane
/// loop is branch-free. The scratch is folded into `out` afterwards;
/// counter additions commute, so the vector and scalar paths (and any
/// split execution) produce bit-identical summaries.
fn scan_numeric_blocks<T: LaneValue + Default, S: hillview_columnar::ScanSource<T> + ?Sized>(
    sel: &Selection<'_>,
    data: &S,
    nulls: Option<&hillview_columnar::Bitmap>,
    params: BucketParams,
    out: &mut HistogramSummary,
) {
    struct Sink {
        params: BucketParams,
        /// Four interleaved sub-histograms of `cnt + 2` slots each (slot
        /// `cnt` = out-of-range, `cnt + 1` = dead-lane trash): lane `k`
        /// scatters into sub-histogram `k % 4`, breaking the
        /// store-to-load dependency chain when consecutive rows hit the
        /// same bucket (sorted data). Integer adds commute, so the merged
        /// counts are independent of the sub-histogram split.
        counts: Vec<u64>,
        stride: usize,
        idxs: [u32; 64],
    }

    impl<T: LaneValue> BlockSink<T> for Sink {
        fn block(&mut self, b: &Block<'_, T>) {
            let live = b.live();
            if live == 0 {
                return;
            }
            // Lane-parallel fast path: compute every lane's cell (dead
            // lanes → trash), scatter unconditionally. Sparser frames fall
            // back to per-bit scalar work — same cells, same counts — the
            // lane path does 64 lanes of work regardless of liveness, so
            // it only pays off when (nearly) the whole frame is live.
            if simd::active() && live.count_ones() as usize * 8 >= b.len() * 7 {
                let dead = self.params.cnt + 1;
                simd::bucket_indexes(b.values, live, &self.params, dead, &mut self.idxs);
                let s = self.stride;
                for chunk in self.idxs[..b.len()].chunks_exact(4) {
                    self.counts[chunk[0] as usize] += 1;
                    self.counts[s + chunk[1] as usize] += 1;
                    self.counts[2 * s + chunk[2] as usize] += 1;
                    self.counts[3 * s + chunk[3] as usize] += 1;
                }
                for (j, &i) in self.idxs[..b.len()]
                    .chunks_exact(4)
                    .remainder()
                    .iter()
                    .enumerate()
                {
                    self.counts[j * s + i as usize] += 1;
                }
            } else {
                let mut m = live;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let cell = self.params.cell_of(b.values[k].lane_f64());
                    self.counts[(k % 4) * self.stride + cell as usize] += 1;
                }
            }
        }
        #[inline]
        fn one(&mut self, row: usize, v: T) {
            let cell = self.params.cell_of(v.lane_f64());
            self.counts[(row % 4) * self.stride + cell as usize] += 1;
        }
    }

    let cnt = params.cnt as usize;
    let stride = cnt + 2;
    let mut sink = Sink {
        params,
        counts: vec![0u64; stride * 4],
        stride,
        idxs: [0u32; 64],
    };
    scan_blocks(sel, data, nulls, &mut out.missing, &mut sink);
    let merged = |slot: usize| -> u64 { (0..4).map(|l| sink.counts[l * stride + slot]).sum() };
    out.out_of_range += merged(cnt);
    for (i, b) in out.buckets.iter_mut().enumerate() {
        *b += merged(i);
    }
}

impl HistogramSketch {
    /// Per-row reference implementation: the pre-chunking scan, kept for the
    /// scan-equivalence property tests and the chunked-vs-rowwise benchmark.
    /// Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, seed: u64) -> SketchResult<HistogramSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut out = HistogramSummary::zero(self.buckets.count());
        match (&self.buckets, col) {
            (BucketSpec::Numeric { .. }, Column::Double(c)) => {
                self.scan_numeric_rowwise(view, seed, &mut out, |r| c.get(r));
            }
            (BucketSpec::Numeric { .. }, Column::Int(c) | Column::Date(c)) => {
                self.scan_numeric_rowwise(view, seed, &mut out, |r| c.get(r).map(|v| v as f64));
            }
            (BucketSpec::Strings { .. }, Column::Str(c) | Column::Cat(c)) => {
                let mut code_bucket: Vec<Option<usize>> = Vec::with_capacity(c.dictionary().len());
                c.dictionary()
                    .for_each(|_, s| code_bucket.push(self.buckets.index_of_str(s)));
                let mut tally = |row: usize| {
                    out.rows_inspected += 1;
                    if c.nulls().is_null(row) {
                        out.missing += 1;
                        return;
                    }
                    match code_bucket[c.code(row) as usize] {
                        Some(b) => out.buckets[b] += 1,
                        None => out.out_of_range += 1,
                    }
                };
                for row in view.iter_rows() {
                    if row_sampled(row as u64, self.rate, seed) {
                        tally(row);
                    }
                }
            }
            (spec, col) => {
                return Err(SketchError::BadConfig(format!(
                    "bucket spec {:?} incompatible with column kind {}",
                    spec.count(),
                    col.kind()
                )))
            }
        }
        Ok(out)
    }

    fn scan_numeric_rowwise(
        &self,
        view: &TableView,
        seed: u64,
        out: &mut HistogramSummary,
        get: impl Fn(usize) -> Option<f64>,
    ) {
        let mut tally = |row: usize| {
            out.rows_inspected += 1;
            match get(row) {
                None => out.missing += 1,
                Some(v) => match self.buckets.index_of_f64(v) {
                    Some(b) => out.buckets[b] += 1,
                    None => out.out_of_range += 1,
                },
            }
        };
        for row in view.iter_rows() {
            if row_sampled(row as u64, self.rate, seed) {
                tally(row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{merge_law_holds, merged};
    use hillview_columnar::column::{DictColumn, F64Column, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn numeric_view() -> TableView {
        let vals: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(vals)),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn streaming_counts_are_exact() {
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let s = sk.summarize(&numeric_view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.buckets, vec![10; 10]);
        assert_eq!(s.missing, 0);
        assert_eq!(s.out_of_range, 0);
        assert_eq!(s.rows_inspected, 100);
    }

    #[test]
    fn out_of_range_and_missing_counted() {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(-5.0),
                    Some(5.0),
                    None,
                    Some(150.0),
                ])),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let s = sk.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(s.total_in_buckets(), 1);
        assert_eq!(s.missing, 1);
        assert_eq!(s.out_of_range, 2);
    }

    #[test]
    fn int_and_date_columns_bucket() {
        let t = Table::builder()
            .column(
                "I",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(1), Some(9)])),
            )
            .column(
                "D",
                ColumnKind::Date,
                Column::Date(I64Column::from_options([Some(100), Some(900)])),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let s = HistogramSketch::streaming("I", BucketSpec::numeric(0.0, 10.0, 2))
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.buckets, vec![1, 1]);
        let s = HistogramSketch::streaming("D", BucketSpec::numeric(0.0, 1000.0, 2))
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.buckets, vec![1, 1]);
    }

    #[test]
    fn string_histogram_buckets_by_boundaries() {
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([
                    Some("apple"),
                    Some("banana"),
                    Some("cherry"),
                    Some("avocado"),
                    None,
                ])),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let sk = HistogramSketch::streaming(
            "S",
            BucketSpec::strings(vec!["a".into(), "b".into(), "c".into()]),
        );
        let s = sk.summarize(&v, Scope::ALL, 0).unwrap();
        assert_eq!(s.buckets, vec![2, 1, 1]);
        assert_eq!(s.missing, 1);
    }

    #[test]
    fn merge_law_on_partitions() {
        let v = numeric_view();
        let t = v.table().clone();
        let parts: Vec<TableView> = (0..4)
            .map(|p| {
                TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows(
                        (p * 25..(p + 1) * 25).collect(),
                        100,
                    )),
                )
            })
            .collect();
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 7));
        assert!(merge_law_holds(&sk, &v, &parts, 9));
    }

    #[test]
    fn sampled_histogram_approximates_exact() {
        let vals: Vec<Option<f64>> = (0..200_000).map(|i| Some((i % 100) as f64)).collect();
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(vals)),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let spec = BucketSpec::numeric(0.0, 100.0, 10);
        let sampled = HistogramSketch::sampled("X", spec, 0.05)
            .summarize(&v, Scope::ALL, 3)
            .unwrap();
        let n = sampled.rows_inspected as f64;
        assert!((n - 10_000.0).abs() < 1_500.0, "sample size {n}");
        // Each bucket holds ~10% of the distribution.
        for (i, &b) in sampled.buckets.iter().enumerate() {
            let frac = b as f64 / n;
            assert!((frac - 0.1).abs() < 0.02, "bucket {i} frac {frac}");
        }
    }

    #[test]
    fn sampled_is_deterministic_in_seed() {
        let v = numeric_view();
        let sk = HistogramSketch::sampled("X", BucketSpec::numeric(0.0, 100.0, 4), 0.5);
        assert_eq!(
            sk.summarize(&v, Scope::ALL, 1).unwrap(),
            sk.summarize(&v, Scope::ALL, 1).unwrap()
        );
        // Different seeds explore different rows (almost surely).
        assert_ne!(
            sk.summarize(&v, Scope::ALL, 1).unwrap(),
            sk.summarize(&v, Scope::ALL, 2).unwrap()
        );
    }

    #[test]
    fn identity_is_merge_unit() {
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 1.0, 3));
        let s = HistogramSummary {
            buckets: vec![1, 2, 3],
            missing: 4,
            out_of_range: 5,
            rows_inspected: 15,
        };
        assert_eq!(merged(sk.identity(), s.clone()), s);
        assert_eq!(merged(s.clone(), sk.identity()), s);
    }

    #[test]
    fn mismatched_spec_and_column_rejected() {
        let v = numeric_view();
        let sk = HistogramSketch::streaming("X", BucketSpec::strings(vec!["a".into()]));
        assert!(matches!(
            sk.summarize(&v, Scope::ALL, 0),
            Err(SketchError::BadConfig(_))
        ));
    }

    #[test]
    fn wire_roundtrip() {
        let s = HistogramSummary {
            buckets: vec![0, 5, 17, 2],
            missing: 3,
            out_of_range: 1,
            rows_inspected: 28,
        };
        assert_eq!(HistogramSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
