//! Fusion-law property tests: for every kernel, `summarize` under a
//! [`Scope`] with a filter (whole-partition and row-bounded) must
//! reproduce the two-pass execution — materialize the predicate into a
//! membership set with `filter_members`, then sketch it — **bit for bit**,
//! across random tables, predicate shapes, membership representations,
//! null densities, split grains, and physical encodings. Because the
//! two-pass side is itself pinned to the per-row reference by
//! `scan_equivalence.rs`, these laws chain to `fused ≡ two-pass ≡ rowwise`.
//!
//! Float- and order-sensitive kernels (moments, PCA, Misra-Gries) are held
//! to the same bit-exact bar: the fused pass visits the surviving rows in
//! the same order the two-pass scan does, so even power sums agree to the
//! last bit. Split laws fold the pieces of the partition's row span
//! (`summarize_split`), which depend on its row count alone: the fused
//! split fold must equal the split fold over the materialized filter, and
//! every membership representation of the same rows, byte for byte.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{
    Bitmap, ColumnKind, MembershipSet, Predicate, SortOrder, StrMatchKind, Table,
};
use hillview_net::Wire;
use hillview_sketch::bottomk::BottomKSketch;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::count::{CountSketch, CountSummary};
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::find::FindSketch;
use hillview_sketch::heatmap::HeatmapSketch;
use hillview_sketch::heavy::{MisraGriesSketch, SampledHeavyHittersSketch};
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::nextk::NextKSketch;
use hillview_sketch::pca::PcaSketch;
use hillview_sketch::quantile::QuantileSketch;
use hillview_sketch::range::RangeSketch;
use hillview_sketch::stacked::StackedHistogramSketch;
use hillview_sketch::traits::{
    fused_law_holds, summarize_split, Sketch, SketchError, SketchResult,
};
use hillview_sketch::trellis::TrellisSketch;
use hillview_sketch::view::{filtered_view, two_pass};
use hillview_sketch::{Scope, TableView};
use proptest::prelude::*;
use std::sync::Arc;

const CATS: [&str; 6] = ["aa", "bb", "cc", "dd", "ee", "ff"];

/// The strides the encoding suites draw from: bit-packed storage divides
/// the common one out of a column, and no fused scan may notice.
const STEPS: [i64; 5] = [1, 2, 3, 1_000, 86_400_000];

/// Random mixed-type table (same shape as `scan_equivalence.rs`): `null_p`
/// drives the Double column's null density from 0% to ~100%, and half the
/// tables round it to whole numbers so it is stored as encoded codes.
fn table_strategy() -> impl Strategy<Value = Table> {
    (
        0.0f64..1.1,
        any::<bool>(),
        proptest::collection::vec(
            (
                (0.0f64..1.0, -50.0f64..150.0),
                (0.0f64..1.0, -100i64..100),
                (0.0f64..1.0, 0usize..6),
            ),
            1..300,
        ),
    )
        .prop_map(|(null_p, integral, rows)| {
            let x = |v: f64| if integral { v.round() } else { v };
            Table::builder()
                .column(
                    "X",
                    ColumnKind::Double,
                    Column::Double(F64Column::from_options(
                        rows.iter().map(|r| (r.0 .0 >= null_p).then_some(x(r.0 .1))),
                    )),
                )
                .column(
                    "I",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        rows.iter().map(|r| (r.1 .0 >= 0.15).then_some(r.1 .1)),
                    )),
                )
                .column(
                    "C",
                    ColumnKind::Category,
                    Column::Cat(DictColumn::from_strings(
                        rows.iter().map(|r| (r.2 .0 >= 0.1).then(|| CATS[r.2 .1])),
                    )),
                )
                .build()
                .unwrap()
        })
}

/// Membership of the requested representation (full / empty / sparse /
/// dense / contiguous range) over `n` rows.
fn membership(kind: usize, raw: &[u32], cuts: (f64, f64), n: usize) -> MembershipSet {
    match kind {
        0 => MembershipSet::full(n),
        1 => MembershipSet::from_rows(Vec::new(), n),
        2 => MembershipSet::from_rows(raw.iter().map(|r| r % n as u32).collect(), n),
        3 => MembershipSet::from_rows(
            (0..n as u32)
                .filter(|r| r % 10 != 3 && r % 7 != 1)
                .collect(),
            n,
        ),
        _ => {
            let a = ((cuts.0 * n as f64) as usize).min(n);
            let b = ((cuts.1 * n as f64) as usize).min(n);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            MembershipSet::from_rows((lo as u32..hi as u32).collect(), n)
        }
    }
}

/// Predicate family covering every leaf the block compiler special-cases:
/// numeric range (zone-map skippable), integer range, dictionary equality
/// (code zone maps), text match, the exact-complement `Not`, and an `And`
/// that makes the second leaf see a partial selection word.
fn predicate(pick: usize, bounds: (f64, f64), cat: usize) -> Predicate {
    let (a, b) = bounds;
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match pick {
        0 => Predicate::range("X", lo, hi),
        1 => Predicate::range("I", lo, hi),
        2 => Predicate::equals("C", CATS[cat]),
        3 => Predicate::range("X", lo, hi).not(),
        4 => Predicate::range("X", lo, hi).and(Predicate::equals("C", CATS[cat])),
        _ => Predicate::str_match("C", "a", StrMatchKind::Substring, false),
    }
}

/// The whole-partition scope under `p`.
fn under(p: &Predicate) -> Scope<'_> {
    Scope {
        rows: None,
        filter: Some(p),
    }
}

/// What the scope resolver owns, beyond the fusion law: a row range
/// covering the whole universe is the same scope as no range (same bytes,
/// filtered and unfiltered), and a predicate over an unknown column
/// surfaces as `SketchError::Column`.
fn resolver_contract_holds<S: Sketch>(sk: &S, v: &TableView, p: &Predicate, seed: u64) -> bool {
    let rows = Some((0, v.members().universe()));
    let same_bytes = [None, Some(p)].into_iter().all(|filter| {
        let ranged = sk.summarize(v, Scope { rows, filter }, seed);
        let plain = sk.summarize(v, Scope { rows: None, filter }, seed);
        matches!((ranged, plain), (Ok(a), Ok(b)) if a.to_bytes() == b.to_bytes())
    });
    let unknown = Predicate::range("NoSuchColumn", 0.0, 1.0);
    same_bytes
        && matches!(
            sk.summarize(v, under(&unknown), seed),
            Err(SketchError::Column(_))
        )
}

/// The rows of `m` in every representation that can hold them: `Dense`,
/// `Sparse`, and `Full` when they are every row.
fn representations(m: &MembershipSet) -> Vec<MembershipSet> {
    let n = m.universe();
    let rows: Vec<u32> = m.iter().map(|r| r as u32).collect();
    let mut bits = Bitmap::new(n);
    rows.iter().for_each(|&r| bits.set(r as usize));
    let mut reps = vec![MembershipSet::Dense(bits)];
    if rows.len() == n {
        reps.push(MembershipSet::full(n));
    }
    reps.push(MembershipSet::Sparse { rows, universe: n });
    reps
}

/// Representation independence: `sk` summarizes `v`'s rows to the same
/// bytes whichever representation holds them, unfiltered and under `p`,
/// whole and folded over the split plan at `grain`.
fn representation_independent<S: Sketch>(
    sk: &S,
    v: &TableView,
    p: &Predicate,
    grain: usize,
    seed: u64,
) -> bool {
    let reps = representations(v.members());
    [None, Some(p)].into_iter().all(|filter| {
        let bytes: Vec<_> = reps
            .iter()
            .map(|m| {
                let view = TableView::with_members(v.table().clone(), Arc::new(m.clone()));
                let whole = sk.summarize(&view, Scope { rows: None, filter }, seed);
                let split = summarize_split(sk, &view, filter, grain, seed);
                Some((whole.ok()?.to_bytes(), split.ok()?.to_bytes()))
            })
            .collect();
        bytes.iter().all(|b| b.is_some() && *b == bytes[0])
    })
}

/// A sketch that walks the whole view itself, starting from [`two_pass`].
struct WholeViewCount;

impl Sketch for WholeViewCount {
    type Summary = CountSummary;

    fn name(&self) -> &'static str {
        "whole-view-count"
    }

    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<CountSummary> {
        let rows = two_pass(view, scope)?.len() as u64;
        Ok(CountSummary { rows, missing: 0 })
    }

    fn identity(&self) -> CountSummary {
        CountSummary::default()
    }
}

fn num_spec() -> BucketSpec {
    BucketSpec::numeric(-50.0, 150.0, 17)
}

/// The exact distinct form over the integer column's domain.
fn exact_distinct() -> DistinctSketch {
    DistinctSketch::new("I").with_domain(-100, 99).unwrap()
}

fn str_spec() -> BucketSpec {
    BucketSpec::strings(vec!["aa".into(), "cc".into(), "ee".into()])
}

/// A heat map of X × I per bucket of C (as in `scan_equivalence.rs`).
fn trellis(rate: f64) -> TrellisSketch {
    TrellisSketch {
        col_w: Arc::from("C"),
        col_x: Arc::from("X"),
        col_y: Arc::from("I"),
        buckets_w: BucketSpec::strings(vec!["cc".into(), "dd".into(), "ff".into()]),
        buckets_x: num_spec(),
        buckets_y: BucketSpec::numeric(-80.0, 80.0, 5),
        rate,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fusion law, all 15 kernels: fused ≡ two-pass, whole-partition
    /// and folded over the split plan, and the split fold is the same over
    /// every representation of the membership. This pins the fused and the
    /// materialized trees the cluster's leaf tasks run to the same
    /// bytes.
    #[test]
    fn fused_law_all_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        macro_rules! law {
            ($sk:expr) => {
                prop_assert!(
                    fused_law_holds(&$sk, &v, &p, grain, seed),
                    "fusion law failed for {} under {:?}", $sk.name(), p
                );
                prop_assert!(
                    resolver_contract_holds(&$sk, &v, &p, seed),
                    "scope resolution failed for {} under {:?}", $sk.name(), p
                );
                prop_assert!(
                    representation_independent(&$sk, &v, &p, grain, seed),
                    "representation independence failed for {} under {:?}", $sk.name(), p
                );
            };
        }
        law!(CountSketch::rows());
        law!(CountSketch::of_column("X"));
        law!(HistogramSketch::streaming("X", num_spec()));
        law!(HistogramSketch::streaming("C", str_spec()));
        law!(HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), 1.0));
        law!(StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec()));
        law!(trellis(1.0));
        law!(MomentsSketch::new("X", 4));
        law!(BottomKSketch::new("C", 8));
        law!(NextKSketch::first_page(SortOrder::ascending(&["C", "I"]), 5).with_display(&["X"]));
        law!(MisraGriesSketch::new("C", 4));
        law!(SampledHeavyHittersSketch::new("C", 4, 1.0));
        law!(DistinctSketch::new("I"));
        law!(exact_distinct());
        law!(FindSketch::new("C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"])));
        law!(PcaSketch::new(&["X", "I"], 1.0));
        law!(RangeSketch::new("X"));
        law!(QuantileSketch::new(SortOrder::ascending(&["I", "X"]), 1.0, 100_000, 100_000));
        // A sketch that walks the whole view: `two_pass` materializes the
        // filter and clips the view to the row bounds.
        law!(WholeViewCount);
        let narrowed = filtered_view(&v, &p).unwrap();
        for (lo, hi) in [(0, n - 1), (1, n)] {
            let scope = Scope { rows: Some((lo, hi)), filter: Some(&p) };
            let want = narrowed.iter_rows().filter(|r| (lo..hi).contains(r)).count();
            prop_assert_eq!(WholeViewCount.summarize(&v, scope, seed).unwrap().rows, want as u64);
        }
    }

    /// Every sampled kernel keeps the fusion law bit-for-bit at every rate:
    /// a row is sampled by its index alone, so sampling the fused filter's
    /// matches takes the rows that sampling the materialized membership
    /// does. The same rule makes a sample independent of how the membership
    /// is stored: one row set as `Dense`, `Sparse` and (when it is every
    /// row) `Full` gives identical summary bytes.
    #[test]
    fn fused_law_sampled_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        rate in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        macro_rules! law {
            ($sk:expr) => {
                prop_assert!(fused_law_holds(&$sk, &v, &p, grain, seed), "fusion law: {}", $sk.name());
                prop_assert!(resolver_contract_holds(&$sk, &v, &p, seed));
                prop_assert!(
                    representation_independent(&$sk, &v, &p, grain, seed),
                    "representation independence: {}", $sk.name()
                );
            };
        }
        law!(HistogramSketch::sampled("X", num_spec(), rate));
        law!(HistogramSketch::sampled("C", str_spec(), rate));
        law!(HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), rate));
        law!(StackedHistogramSketch::sampled("I", "C", num_spec(), str_spec(), rate));
        law!(trellis(rate));
        law!(PcaSketch::new(&["X", "I"], rate));
        law!(SampledHeavyHittersSketch::new("C", 4, rate));
        law!(SampledHeavyHittersSketch::new("I", 4, rate));
        law!(QuantileSketch::new(SortOrder::ascending(&["I", "X"]), rate, 100_000, 100_000));
    }

    /// The fused-sampling distribution contract: under a fused plan, a
    /// sampled kernel reads the filtered rows that the one sampling rule,
    /// [`hillview_columnar::row_sampled`], admits. The sampled row *set* is
    /// pinned exactly — it must equal the rowwise-filtered membership
    /// intersected with `row_sampled` — for row kernels (quantile, sampled
    /// heavy hitters) and a frame kernel (the sampled histogram) alike,
    /// which both fixes the per-row inclusion probability (uniform at
    /// `rate`, independent across rows) and makes the sample a pure function
    /// of `(membership, predicate, rate, seed)`. Tiling is pinned too: leaf
    /// ranges fold to the unsplit summary.
    #[test]
    fn fused_sampling_matches_hash_threshold_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        rate in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::predicate::filter_members_rowwise;
        use hillview_columnar::row_sampled;

        let n = t.num_rows();
        let table = Arc::new(t);
        let v = TableView::with_members(
            table.clone(), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);

        // Reference sample: rowwise-filtered membership ∩ hash test.
        let filtered = filter_members_rowwise(&table, &p, v.members()).unwrap();
        let sample: Vec<usize> = filtered
            .iter()
            .filter(|&r| row_sampled(r as u64, rate, seed))
            .collect();

        // Sampled heavy hitters: counts over the reference sample, exactly.
        let hh = SampledHeavyHittersSketch::new("C", 4, rate);
        let fused = hh.summarize(&v, under(&p), seed).unwrap();
        let col = table.column_by_name("C").unwrap();
        let mut want: std::collections::HashMap<hillview_columnar::Value, u64> =
            std::collections::HashMap::new();
        let mut present = 0u64;
        for &r in &sample {
            let val = col.value(r);
            if !val.is_missing() {
                present += 1;
                *want.entry(val).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(fused.sampled, present);
        let mut got: Vec<_> = fused.counts.clone();
        got.sort();
        let mut want: Vec<_> = want.into_iter().collect();
        want.sort();
        prop_assert_eq!(got, want);
        // Tiling: the split plan's pieces fold to the unsplit fused summary.
        prop_assert_eq!(
            summarize_split(&hh, &v, Some(&p), grain, seed).unwrap(),
            fused
        );

        // Quantile: keys of the reference sample in sorted weighted form
        // (cap chosen above any plausible sample size, so no compression
        // confounds the comparison), population = the full filtered
        // membership.
        let order = SortOrder::ascending(&["I", "X"]);
        let qs = QuantileSketch::new(order.clone(), rate, 100_000, 100_000);
        let fused = qs.summarize(&v, under(&p), seed).unwrap();
        prop_assert_eq!(fused.population, filtered.len() as u64);
        let resolved = order.resolve(&table).unwrap();
        let mut want_keys = std::collections::BTreeMap::new();
        for &r in &sample {
            *want_keys.entry(resolved.key(&table, r)).or_insert(0u64) += 1;
        }
        let want_keys: Vec<_> = want_keys.into_iter().collect();
        prop_assert_eq!(&fused.keys, &want_keys);
        prop_assert_eq!(
            summarize_split(&qs, &v, Some(&p), grain, seed).unwrap().keys,
            want_keys
        );

        // Sampled histogram: bucket counts of the reference sample, exactly,
        // and `rows_inspected` the sample size.
        let hist = HistogramSketch::sampled("X", num_spec(), rate);
        let Column::Double(xs) = table.column_by_name("X").unwrap() else {
            panic!("X is a double column");
        };
        let mut want = HistogramSummary::zero(num_spec().count());
        for &r in &sample {
            want.rows_inspected += 1;
            match xs.get(r).map(|x| num_spec().index_of_f64(x)) {
                None => want.missing += 1,
                Some(Some(b)) => want.buckets[b] += 1,
                Some(None) => want.out_of_range += 1,
            }
        }
        prop_assert_eq!(hist.summarize(&v, under(&p), seed).unwrap(), want.clone());
        prop_assert_eq!(summarize_split(&hist, &v, Some(&p), grain, seed).unwrap(), want);
    }

    /// Chain the law to the per-row reference: the fused pass must equal
    /// the rowwise kernel walked over the rowwise-filtered membership.
    #[test]
    fn fused_matches_rowwise_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::predicate::filter_members_rowwise;
        let n = t.num_rows();
        let table = Arc::new(t);
        let v = TableView::with_members(
            table.clone(), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        let narrowed = TableView::with_members(
            table.clone(),
            Arc::new(filter_members_rowwise(&table, &p, v.members()).unwrap()),
        );
        let hist = HistogramSketch::streaming("X", num_spec());
        prop_assert_eq!(
            hist.summarize(&v, under(&p), seed).unwrap(),
            hist.summarize_rowwise(&narrowed, seed).unwrap()
        );
        let mg = MisraGriesSketch::new("C", 4);
        prop_assert_eq!(
            mg.summarize(&v, under(&p), seed).unwrap(),
            mg.summarize_rowwise(&narrowed, seed).unwrap()
        );
        let mo = MomentsSketch::new("X", 4);
        let fused = mo.summarize(&v, under(&p), seed).unwrap();
        let rowwise = mo.summarize_rowwise(&narrowed, seed).unwrap();
        prop_assert_eq!(fused.present, rowwise.present);
        prop_assert_eq!(fused.missing, rowwise.missing);
        prop_assert_eq!(fused.min, rowwise.min);
        prop_assert_eq!(fused.max, rowwise.max);
        for (f, r) in fused.sums.iter().zip(&rowwise.sums) {
            prop_assert!(f.to_bits() == r.to_bits(), "power sums differ: {f} vs {r}");
        }
        let ds = DistinctSketch::new("C");
        prop_assert_eq!(
            ds.summarize(&v, under(&p), seed).unwrap(),
            ds.summarize_rowwise(&narrowed, seed).unwrap()
        );
        let fs = FindSketch::new(
            "C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"]));
        prop_assert_eq!(
            fs.summarize(&v, under(&p), seed).unwrap(),
            fs.summarize_rowwise(&narrowed, seed).unwrap()
        );
    }

    /// Fused split law for exact-merge kernels: folding the split plan's
    /// pieces of the filtered scope equals the unsplit fused pass
    /// at every grain — what keeps PR 3's parallel leaves and PR 6's
    /// retry-on-failure sites correct under fusion.
    #[test]
    fn fused_split_equals_unsplit_for_exact_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        macro_rules! split_law {
            ($sk:expr) => {{
                let sk = $sk;
                prop_assert_eq!(
                    summarize_split(&sk, &v, Some(&p), grain, seed).unwrap(),
                    sk.summarize(&v, under(&p), seed).unwrap(),
                    "fused split law failed for {} under {:?}", sk.name(), &p
                );
            }};
        }
        split_law!(CountSketch::rows());
        split_law!(CountSketch::of_column("X"));
        split_law!(HistogramSketch::streaming("X", num_spec()));
        split_law!(HistogramSketch::streaming("C", str_spec()));
        split_law!(StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec()));
        split_law!(trellis(1.0));
        split_law!(BottomKSketch::new("C", 8));
        split_law!(DistinctSketch::new("I"));
        split_law!(exact_distinct());
        split_law!(NextKSketch::first_page(SortOrder::ascending(&["C", "I"]), 5));
        split_law!(FindSketch::new(
            "C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"])));
        split_law!(RangeSketch::new("X"));
        split_law!(QuantileSketch::new(SortOrder::ascending(&["I", "X"]), 1.0, 100_000, 100_000));
    }

    /// The fusion law is invisible to the encoding layer: identical fused
    /// summaries whichever physical storage backs the filtered column —
    /// integers and integral doubles alike — with split boundaries landing
    /// mid-word, mid-run, mid-delta-block.
    #[test]
    fn fused_law_across_encodings(
        vals in proptest::collection::vec((0.0f64..1.0, -40i64..40), 1..300),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        bounds in (-50.0f64..50.0, -50.0f64..50.0),
        grain in 1usize..96,
        step in 0usize..5,
    ) {
        use hillview_columnar::{F64Storage, I64Storage, NullMask, ZoneMap};
        let n = vals.len();
        let step = STEPS[step];
        let data: Vec<i64> = vals.iter().map(|r| r.1 * step).collect();
        let nulls = NullMask::from_flags(vals.iter().map(|r| r.0 < 0.15), n);
        let mut columns = vec![Column::Int(I64Column::plain(data.clone(), nulls.clone()))];
        let forced = [
            I64Storage::bit_packed_of(&data),
            I64Storage::run_length_of(&data),
            I64Storage::exceptions_of(&data),
        ];
        for s in forced.into_iter().flatten() {
            columns.push(Column::Int(I64Column::with_storage(s, nulls.clone())));
        }
        // Delta needs ascending data: sorted copy, plain vs delta.
        let mut ascending = data.clone();
        ascending.sort_unstable();
        let mut delta_columns =
            vec![Column::Int(I64Column::plain(ascending.clone(), nulls.clone()))];
        if let Some(s) = I64Storage::delta_of(&ascending) {
            delta_columns.push(Column::Int(I64Column::with_storage(s, nulls.clone())));
        }
        // The same values as doubles (zeros at odd rows negative): raw,
        // the automatic choice, and each code encoding forced. Codes ascend
        // with the magnitude, so the delta copy is shifted non-negative.
        let doubles = |data: &[i64]| -> Vec<Column> {
            let values: Vec<f64> = data
                .iter()
                .enumerate()
                .map(|(i, &v)| if v == 0 && i % 2 == 1 { -0.0 } else { v as f64 })
                .collect();
            let codes = F64Storage::codes_of(&values).expect("integral by construction");
            let mut storages = vec![
                F64Storage::Plain(values.clone().into()),
                F64Storage::encode(values.clone()),
            ];
            let forced = [
                I64Storage::bit_packed_of(&codes),
                I64Storage::run_length_of(&codes),
                I64Storage::delta_of(&codes),
                I64Storage::exceptions_of(&codes),
            ];
            storages.extend(forced.into_iter().flatten().map(F64Storage::Integral));
            storages
                .into_iter()
                .map(|s| {
                    let zones = ZoneMap::from_f64(&values);
                    Column::Double(F64Column::from_parts(s, nulls.clone(), zones))
                })
                .collect()
        };
        let shifted: Vec<i64> = ascending.iter().map(|v| v + 40 * step).collect();
        let members = Arc::new(membership(kind, &raw, cuts, n));
        // Scaled with the data, the drawn bounds and bucket edges fall off
        // the stride's grid.
        let s = step as f64;
        let (a, b) = (bounds.0 * s, bounds.1 * s);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p = Predicate::range("V", lo, hi);
        let zero = Predicate::equals("V", 0.0);
        let hist = HistogramSketch::streaming("V", BucketSpec::numeric(-50.0 * s, 150.0 * s, 17));
        let mo = MomentsSketch::new("V", 3);
        let range = RangeSketch::new("V");
        for group in [columns, delta_columns, doubles(&data), doubles(&shifted)] {
            let mut results = Vec::new();
            for col in group {
                let t = Table::builder().column("V", col.kind(), col).build().unwrap();
                let v = TableView::with_members(Arc::new(t), members.clone());
                prop_assert!(fused_law_holds(&hist, &v, &p, grain, 0));
                prop_assert!(fused_law_holds(&range, &v, &p, grain, 0));
                let h = hist.summarize(&v, under(&p), 0).unwrap();
                let m = mo.summarize(&v, under(&p), 0).unwrap();
                let r = range.summarize(&v, under(&p), 0).unwrap();
                let zeros = CountSketch::rows().summarize(&v, under(&zero), 0).unwrap();
                results.push((h, m.present, m.missing, m.min, m.max, r, zeros,
                    m.sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()));
            }
            for r in &results[1..] {
                prop_assert_eq!(r, &results[0]);
            }
        }
    }

    /// The fused path's summaries are byte-identical between the vector
    /// codegen and the forced-scalar fallback — and both still satisfy the
    /// fusion law.
    #[test]
    fn fused_simd_on_off_byte_identical(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::simd::set_force_scalar;
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        let hist = HistogramSketch::streaming("X", num_spec());
        let stack = StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec());
        let count = CountSketch::of_column("X");
        let mo = MomentsSketch::new("X", 4);
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let m = mo.summarize(&v, under(&p), seed).unwrap();
            let out = (
                hist.summarize(&v, under(&p), seed).unwrap(),
                stack.summarize(&v, under(&p), seed).unwrap(),
                count.summarize(&v, under(&p), seed).unwrap(),
                (m.present, m.missing, m.min.map(f64::to_bits), m.max.map(f64::to_bits),
                 m.sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()),
            );
            set_force_scalar(false);
            out
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(&fast, &slow);
        // Both modes also satisfy the law against the (scalar) two-pass.
        let narrowed = filtered_view(&v, &p).unwrap();
        prop_assert_eq!(&fast.0, &hist.summarize(&narrowed, Scope::ALL, seed).unwrap());
    }
}
