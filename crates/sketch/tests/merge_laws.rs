//! Property tests for the sketch merge laws (paper §4.1).
//!
//! For every summary type: merge is commutative, associative, and has the
//! sketch identity as unit on both sides; and for exact (non-sampled)
//! sketches, `summarize(D1 ⊎ D2) = merge(summarize(D1), summarize(D2))` over
//! random data and random partition splits. Last, the bytes every summary's
//! fold produces over a flights table are pinned.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{ColumnKind, MembershipSet, SortOrder, StrMatchKind, Table, Value};
use hillview_sketch::bottomk::BottomKSketch;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::find::FindSketch;
use hillview_sketch::heatmap::HeatmapSketch;
use hillview_sketch::heavy::{MisraGriesSketch, SampledHeavyHittersSketch};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::nextk::NextKSketch;
use hillview_sketch::pca::PcaSketch;
use hillview_sketch::quantile::QuantileSketch;
use hillview_sketch::range::RangeSketch;
use hillview_sketch::stacked::StackedHistogramSketch;
use hillview_sketch::traits::{Sketch, Summary};
use hillview_sketch::trellis::TrellisSketch;
use hillview_sketch::{Scope, TableView};
use proptest::prelude::*;
use std::sync::Arc;

/// `a` with `b` merged into it.
fn merged<S: Summary>(mut a: S, b: S) -> S {
    a.merge(b);
    a
}

/// `parts` merged, in order, into `first`.
fn fold<S: Summary>(first: S, parts: &[S]) -> S {
    parts.iter().cloned().fold(first, merged)
}

/// Relative-tolerance comparison for merged f64 accumulators: partitioning
/// regroups the additions, so sums agree to rounding, not bit-for-bit.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Random table: numeric column X in [0, 100) with nulls, category column C.
fn table_strategy() -> impl Strategy<Value = Table> {
    let rows = proptest::collection::vec(
        (
            proptest::option::weighted(0.9, 0.0f64..100.0),
            0usize..5usize,
        ),
        1..200,
    );
    rows.prop_map(|rows| {
        let cats = ["aa", "bb", "cc", "dd", "ee"];
        Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(rows.iter().map(|(x, _)| *x))),
            )
            .column(
                "C",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    rows.iter().map(|(_, c)| Some(cats[*c])),
                )),
            )
            .build()
            .unwrap()
    })
}

/// Split `n` rows into three disjoint views by `split` percentages.
fn three_way_split(table: Arc<Table>, cut1: usize, cut2: usize) -> Vec<TableView> {
    let n = table.num_rows();
    let c1 = (cut1 % (n + 1)).min(n);
    let c2 = c1 + (cut2 % (n - c1 + 1));
    [(0..c1), (c1..c2), (c2..n)]
        .into_iter()
        .map(|r| {
            TableView::with_members(
                table.clone(),
                Arc::new(MembershipSet::from_rows(r.map(|i| i as u32).collect(), n)),
            )
        })
        .collect()
}

/// The identity is a unit on both sides, bit for bit — on the summary and
/// on its wire bytes.
fn check_units<S>(sketch: &S, s: &S::Summary) -> Result<(), TestCaseError>
where
    S: Sketch,
    S::Summary: PartialEq + std::fmt::Debug,
{
    use hillview_net::Wire;
    let right = merged(s.clone(), sketch.identity());
    prop_assert_eq!(&right, s, "identity is a right unit");
    let left = merged(sketch.identity(), s.clone());
    prop_assert_eq!(&left, s, "identity is a left unit");
    prop_assert_eq!(left.to_bytes(), s.to_bytes(), "left unit, byte for byte");
    Ok(())
}

/// Assert the full merge-law battery for an exact sketch, returning the
/// error string on failure so proptest can shrink.
fn check_exact_sketch<S>(
    sketch: &S,
    table: Arc<Table>,
    cut1: usize,
    cut2: usize,
) -> Result<(), TestCaseError>
where
    S: Sketch,
    S::Summary: PartialEq + std::fmt::Debug,
{
    let whole = TableView::full(table.clone());
    let parts = three_way_split(table, cut1, cut2);
    let direct = sketch.summarize(&whole, Scope::ALL, 7).unwrap();
    let s: Vec<_> = parts
        .iter()
        .map(|p| sketch.summarize(p, Scope::ALL, 7).unwrap())
        .collect();
    // Mergeability.
    let ab_c = fold(s[0].clone(), &s[1..]);
    prop_assert_eq!(&ab_c, &direct, "summarize(⊎) == fold(merge)");
    // Commutativity & associativity.
    let a_bc = merged(s[0].clone(), merged(s[1].clone(), s[2].clone()));
    prop_assert_eq!(&ab_c, &a_bc, "associative");
    let ba = merged(s[1].clone(), s[0].clone());
    let ab = merged(s[0].clone(), s[1].clone());
    prop_assert_eq!(&ba, &ab, "commutative");
    // Identity, on either side.
    check_units(sketch, &direct)?;
    // Split law: recursive range-split execution (the engine's parallel
    // leaf plan, run serially) reproduces the whole-partition summary
    // bit-for-bit for exact sketches.
    let grain = (cut1 % 64) + 1;
    prop_assert!(
        hillview_sketch::traits::split_law_holds(sketch, &whole, grain, 7),
        "split law at grain {}",
        grain
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&CountSketch::of_column("X"), Arc::new(t), c1, c2)?;
    }

    #[test]
    fn range_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&RangeSketch::new("X"), Arc::new(t), c1, c2)?;
    }

    #[test]
    fn histogram_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 13));
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn string_histogram_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = HistogramSketch::streaming(
            "C",
            BucketSpec::strings(vec!["aa".into(), "cc".into()]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn heatmap_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = HeatmapSketch::streaming(
            "X",
            "C",
            BucketSpec::numeric(0.0, 100.0, 5),
            BucketSpec::strings(vec!["aa".into(), "cc".into(), "ee".into()]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn stacked_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = StackedHistogramSketch::streaming(
            "X",
            "C",
            BucketSpec::numeric(0.0, 100.0, 4),
            BucketSpec::strings(vec!["aa".into(), "bb".into(), "cc".into()]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn trellis_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = TrellisSketch {
            col_w: Arc::from("C"),
            col_x: Arc::from("X"),
            col_y: Arc::from("X"),
            buckets_w: BucketSpec::strings(vec!["bb".into(), "cc".into(), "ee".into()]),
            buckets_x: BucketSpec::numeric(0.0, 100.0, 5),
            buckets_y: BucketSpec::numeric(20.0, 90.0, 3),
            rate: 1.0,
        };
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn hll_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&DistinctSketch::new("C"), Arc::new(t), c1, c2)?;
    }

    /// The exact form over a domain at least the values' span, padded on
    /// either side so its set spells as runs or raw bits: sets OR, so
    /// every law holds bit for bit.
    #[test]
    fn exact_distinct_merge_laws(
        values in proptest::collection::vec(proptest::option::weighted(0.85, -40i64..60), 1..200),
        pad in (0i64..3_000, 0i64..300),
        c1 in 0usize..200,
        c2 in 0usize..200,
    ) {
        let t = Table::builder()
            .column("I", ColumnKind::Int, Column::Int(I64Column::from_options(values)))
            .build()
            .unwrap();
        let sk = DistinctSketch::new("I").with_domain(-40 - pad.0, 59 + pad.1).unwrap();
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn nextk_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["C", "X"]), 7);
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn bottomk_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&BottomKSketch::new("C", 8), Arc::new(t), c1, c2)?;
    }

    #[test]
    fn find_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = FindSketch::new(
            "C",
            "a",
            StrMatchKind::Substring,
            SortOrder::ascending(&["C", "X"]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    /// At rate 1.0 the sampled heavy-hitters sketch counts every row exactly
    /// and keeps all distinct values; both `summarize` and `merge` finish
    /// with the same (count desc, value asc) sort, so the summary is
    /// partition-invariant and the full exact battery applies.
    #[test]
    fn sampled_heavy_hitters_merge_laws(
        t in table_strategy(),
        c1 in 0usize..200,
        c2 in 0usize..200,
    ) {
        check_exact_sketch(&SampledHeavyHittersSketch::new("C", 4, 1.0), Arc::new(t), c1, c2)?;
    }

    /// Moments power sums are f64 additions regrouped by the partitioning:
    /// counts and extrema merge exactly, the sums to rounding. Commutativity
    /// and both identity units stay bitwise (IEEE `a+b == b+a`, and a sum
    /// that starts at `0.0` is never `-0.0`, so `x + 0.0 == 0.0 + x == x`).
    #[test]
    fn moments_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = MomentsSketch::new("X", 4);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table, c1, c2);
        let direct = sk.summarize(&whole, Scope::ALL, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, Scope::ALL, 7).unwrap()).collect();
        let ab_c = fold(s[0].clone(), &s[1..]);
        prop_assert_eq!(ab_c.present, direct.present);
        prop_assert_eq!(ab_c.missing, direct.missing);
        prop_assert_eq!(ab_c.min, direct.min);
        prop_assert_eq!(ab_c.max, direct.max);
        for (m, d) in ab_c.sums.iter().zip(&direct.sums) {
            prop_assert!(close(*m, *d), "power sum {} vs {}", m, d);
        }
        let a_bc = merged(s[0].clone(), merged(s[1].clone(), s[2].clone()));
        prop_assert_eq!(a_bc.present, ab_c.present);
        for (g, m) in a_bc.sums.iter().zip(&ab_c.sums) {
            prop_assert!(close(*g, *m), "regrouped power sum {} vs {}", g, m);
        }
        prop_assert_eq!(
            merged(s[1].clone(), s[0].clone()),
            merged(s[0].clone(), s[1].clone()),
            "commutative"
        );
        check_units(&sk, &direct)?;
    }

    /// Complete-case PCA accumulators behave like the moments sums: exact
    /// counts, rounding-level Σx / Σxᵢxⱼ under regrouped partition merges.
    #[test]
    fn pca_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = PcaSketch::new(&["X"], 1.0);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table, c1, c2);
        let direct = sk.summarize(&whole, Scope::ALL, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, Scope::ALL, 7).unwrap()).collect();
        let ab_c = fold(s[0].clone(), &s[1..]);
        prop_assert_eq!(ab_c.m, direct.m);
        prop_assert_eq!(ab_c.count, direct.count);
        for (m, d) in ab_c.sums.iter().zip(&direct.sums) {
            prop_assert!(close(*m, *d), "column sum {} vs {}", m, d);
        }
        for (m, d) in ab_c.prods.iter().zip(&direct.prods) {
            prop_assert!(close(*m, *d), "co-moment {} vs {}", m, d);
        }
        prop_assert_eq!(
            merged(s[1].clone(), s[0].clone()),
            merged(s[0].clone(), s[1].clone()),
            "commutative"
        );
        check_units(&sk, &direct)?;
    }

    /// At rate 1.0 with the cap above any generated table, the quantile
    /// sample is the whole population and merging only unites sorted
    /// weighted runs. That form is canonical — distinct keys ascending,
    /// each with its multiplicity — so the merged key multiset equals the
    /// direct one as the *same list* under any partition split, grouping,
    /// or operand order.
    #[test]
    fn quantile_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = QuantileSketch::new(SortOrder::ascending(&["C", "X"]), 1.0, 100_000, 100_000);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table.clone(), c1, c2);
        let direct = sk.summarize(&whole, Scope::ALL, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, Scope::ALL, 7).unwrap()).collect();
        prop_assert!(direct.keys.windows(2).all(|w| w[0].0 < w[1].0), "distinct, ascending");
        prop_assert_eq!(
            direct.keys.iter().map(|(_, w)| *w).sum::<u64>(),
            table.num_rows() as u64,
            "one unit of weight per sampled row"
        );
        let ab_c = fold(s[0].clone(), &s[1..]);
        prop_assert_eq!(ab_c.population, direct.population);
        prop_assert_eq!(ab_c.cap, direct.cap);
        prop_assert_eq!(&ab_c, &direct, "key multiset");
        let a_bc = merged(s[0].clone(), merged(s[1].clone(), s[2].clone()));
        prop_assert_eq!(&a_bc, &ab_c, "associative");
        prop_assert_eq!(
            merged(s[1].clone(), s[0].clone()),
            merged(s[0].clone(), s[1].clone()),
            "commutative"
        );
        check_units(&sk, &direct)?;
    }

    /// The compaction law. A key multiset is dealt to 1..=8 "workers" in
    /// any proportion; each worker compacts its own summary to `k` keys
    /// once and the root merges the weighted runs. For every pixel of a
    /// 100-pixel scroll bar, the key the merge returns has true rank within
    /// `total/(2k)` of the target rank (half a rank more per worker, from
    /// rounding bucket widths to whole rows) — whatever the number of
    /// workers. Compaction is idempotent and a no-op at or below `k` keys;
    /// compress, merge and the wire conserve total weight.
    #[test]
    fn quantile_compaction_law(
        xs in proptest::collection::vec(0i64..400, 1..600),
        owners in proptest::collection::vec(0usize..8, 600),
        workers in 1usize..9,
        k in 1usize..40,
    ) {
        use hillview_columnar::column::I64Column;
        use hillview_net::Wire;
        use hillview_sketch::quantile::QuantileSummary;

        let n = xs.len();
        let table = Arc::new(
            Table::builder()
                .column("X", ColumnKind::Int,
                    Column::Int(I64Column::from_options(xs.iter().map(|x| Some(*x)))))
                .build()
                .unwrap(),
        );
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 100_000, k);
        let weight = |s: &QuantileSummary| s.keys.iter().map(|(_, w)| *w).sum::<u64>();
        let per_worker: Vec<QuantileSummary> = (0..workers)
            .map(|w| {
                let rows = (0..n).filter(|i| owners[*i] % workers == w).map(|i| i as u32);
                let view = TableView::with_members(
                    table.clone(), Arc::new(MembershipSet::from_rows(rows.collect(), n)));
                sk.summarize(&view, Scope::ALL, 0).unwrap()
            })
            .collect();
        let fold = |parts: &[QuantileSummary]| fold(sk.identity(), parts);
        let compacted: Vec<QuantileSummary> =
            per_worker.iter().map(|s| s.clone().compact()).collect();
        for (s, c) in per_worker.iter().zip(&compacted) {
            prop_assert!(c.keys.len() <= k);
            prop_assert_eq!(weight(c), weight(s), "compress conserves weight");
            prop_assert_eq!(&c.clone().compact(), c, "idempotent");
            if s.keys.len() <= k {
                prop_assert_eq!(c, s, "no-op at or below k keys");
            }
            prop_assert_eq!(&QuantileSummary::from_bytes(c.to_bytes()).unwrap(), c);
        }
        let (full, shipped) = (fold(&per_worker), fold(&compacted));
        prop_assert_eq!(weight(&full), n as u64, "merge conserves weight");
        prop_assert_eq!(weight(&shipped), n as u64);
        prop_assert_eq!(shipped.population, n as u64);

        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let bound = n as f64 / (2.0 * k as f64) + workers as f64 / 2.0;
        for pixel in 0..=100usize {
            let q = pixel as f64 / 100.0;
            let target = (q * (n - 1) as f64).round() as usize;
            // The uncompacted merge is the multiset itself.
            let exact = full.quantile(q).unwrap();
            prop_assert_eq!(exact.values()[0].clone(), Value::Int(sorted[target]));
            let got = match shipped.quantile(q).unwrap().values()[0] {
                Value::Int(x) => x,
                ref other => return Err(TestCaseError::fail(format!("non-int key {other:?}"))),
            };
            // The ranks `got` occupies in the whole multiset.
            let first = sorted.partition_point(|x| *x < got);
            let last = sorted.partition_point(|x| *x <= got) - 1;
            let off = first.saturating_sub(target).max(target.saturating_sub(last));
            prop_assert!(
                off as f64 <= bound,
                "pixel {}: key {} at ranks {}..={}, target {}, bound {}",
                pixel, got, first, last, target, bound
            );
        }
    }

    /// Misra-Gries is not exactly partition-invariant (the summary depends on
    /// arrival order), but the identity is a unit on both sides and the
    /// heavy-hitter *guarantee* must survive merging: any item with true
    /// frequency > total/k appears in the merged counters.
    #[test]
    fn misra_gries_guarantee_survives_merge(
        t in table_strategy(),
        c1 in 0usize..200,
        c2 in 0usize..200,
    ) {
        let table = Arc::new(t);
        let k = 3usize;
        let sk = MisraGriesSketch::new("C", k);
        let parts = three_way_split(table.clone(), c1, c2);
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, Scope::ALL, 0).unwrap()).collect();
        for part in &s {
            check_units(&sk, part)?;
        }
        let merged = fold(sk.identity(), &s);
        // Exact counts for comparison.
        let col = table.column_by_name("C").unwrap();
        let mut exact = std::collections::HashMap::new();
        for i in 0..table.num_rows() {
            *exact.entry(col.value(i).to_string()).or_insert(0u64) += 1;
        }
        let total = table.num_rows() as u64;
        for (v, count) in exact {
            if count > total / k as u64 {
                let found = merged
                    .counters
                    .iter()
                    .any(|(val, _)| val.to_string() == v);
                prop_assert!(found, "heavy item {} (count {}) missing", v, count);
            }
        }
    }

    /// Wire round-trips on randomly generated summaries.
    #[test]
    fn summaries_roundtrip_wire(t in table_strategy()) {
        use hillview_net::Wire;
        let v = TableView::full(Arc::new(t));
        let h = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 9))
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        prop_assert_eq!(
            hillview_sketch::histogram::HistogramSummary::from_bytes(h.to_bytes()).unwrap(),
            h
        );
        let n = NextKSketch::first_page(SortOrder::ascending(&["X"]), 5)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        prop_assert_eq!(
            hillview_sketch::nextk::NextKSummary::from_bytes(n.to_bytes()).unwrap(),
            n
        );
    }
}

/// A seeded flights table, whole and dealt into three partitions (the
/// middle one empty).
struct Folds {
    whole: TableView,
    parts: Vec<TableView>,
}

impl Folds {
    fn new() -> Self {
        use hillview_data::{generate_flights, FlightsConfig};
        let table = Arc::new(generate_flights(&FlightsConfig::new(6_000, 29)));
        let n = table.num_rows();
        let parts = [0..n / 3, n / 3..n / 3, n / 3..n]
            .into_iter()
            .map(|rows| {
                let members = MembershipSet::from_rows(rows.map(|i| i as u32).collect(), n);
                TableView::with_members(table.clone(), Arc::new(members))
            })
            .collect();
        Folds {
            whole: TableView::full(table),
            parts,
        }
    }

    /// FNV-1a over the wire bytes of `sketch`'s serial split folds
    /// ([`summarize_split`]): of the whole table at two grains, then of
    /// each partition.
    fn fingerprint<S: Sketch>(&self, sketch: S) -> u64 {
        use hillview_net::Wire;
        self.fingerprint_as(sketch, |summary| summary.to_bytes().to_vec())
    }

    /// The same, over the bytes `layout` spells each fold in.
    fn fingerprint_as<S: Sketch>(&self, sketch: S, layout: impl Fn(&S::Summary) -> Vec<u8>) -> u64 {
        use hillview_columnar::{fnv1a, FNV_OFFSET};
        use hillview_sketch::traits::summarize_split;
        let whole = [(&self.whole, 97), (&self.whole, 1_024)].into_iter();
        let folds = whole.chain(self.parts.iter().map(|part| (part, 256)));
        folds.fold(FNV_OFFSET, |h, (view, grain)| {
            let summary = summarize_split(&sketch, view, None, grain, 11).unwrap();
            fnv1a(h, &layout(&summary))
        })
    }
}

/// The wire layouts nine summaries had when their fingerprints were pinned:
/// each spells out bytes its layout now leaves for the root to recompute,
/// or spells its counts in zero runs where they now ship sparse. A fold
/// written in them must still give the pinned bytes, so the summaries did
/// not move when their layouts did.
mod pinned_layouts {
    use hillview_columnar::Row;
    use hillview_net::{Wire, WireWriter};
    use hillview_sketch::bottomk::BottomKSummary;
    use hillview_sketch::distinct::{Counter, DistinctSummary};
    use hillview_sketch::find::FindSummary;
    use hillview_sketch::heatmap::HeatmapSummary;
    use hillview_sketch::histogram::HistogramSummary;
    use hillview_sketch::nextk::NextKSummary;
    use hillview_sketch::quantile::QuantileSummary;
    use hillview_sketch::stacked::StackedSummary;
    use hillview_sketch::trellis::TrellisSummary;

    fn finish(w: WireWriter) -> Vec<u8> {
        w.finish().to_vec()
    }

    /// `counts` in zero runs: each count and lone zero its varint, each
    /// maximal run of `k ≥ 2` zeros the varint of `k − 2` with every byte
    /// continued, then `0x00`.
    fn zero_runs(w: &mut WireWriter, counts: &[u64]) {
        let mut rest = counts;
        while let Some((&c, tail)) = rest.split_first() {
            let run = match c {
                0 => 1 + tail.iter().take_while(|&&c| c == 0).count(),
                _ => 0,
            };
            if run < 2 {
                w.put_varint(c);
                rest = tail;
            } else {
                let mut v = run as u64 - 2;
                while v >= 0x80 {
                    w.put_u8(v as u8 | 0x80);
                    v >>= 7;
                }
                w.put_u8(v as u8 | 0x80);
                w.put_u8(0);
                rest = &rest[run..];
            }
        }
    }

    /// The bucket count, the buckets in zero runs, the three tallies.
    pub fn histogram(s: &HistogramSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(s.buckets.len() as u64);
        zero_runs(&mut w, &s.buckets);
        for tally in [s.missing, s.out_of_range, s.rows_inspected] {
            w.put_varint(tally);
        }
        finish(w)
    }

    fn put_heatmap(w: &mut WireWriter, s: &HeatmapSummary) {
        w.put_varint(s.bx as u64);
        w.put_varint(s.by as u64);
        zero_runs(w, &s.counts);
        for tally in [s.missing, s.out_of_range, s.rows_inspected] {
            w.put_varint(tally);
        }
    }

    /// `bx`, `by`, the cells in zero runs, the three tallies.
    pub fn heatmap(s: &HeatmapSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        put_heatmap(&mut w, s);
        finish(w)
    }

    /// The group count, each group's heat map as [`heatmap`] spells it,
    /// `dropped`.
    pub fn trellis(s: &TrellisSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(s.groups.len() as u64);
        s.groups.iter().for_each(|group| put_heatmap(&mut w, group));
        w.put_varint(s.dropped);
        finish(w)
    }

    /// `p`, every register in six bits, least significant bit first, `missing`.
    pub fn distinct(s: &DistinctSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        let Counter::Registers(registers) = &s.counter else {
            panic!("the pinned distinct fold is the HLL's");
        };
        w.put_u8(s.p);
        let mut bits = vec![0u8; (registers.len() * 6).div_ceil(8)];
        for (i, &r) in registers.iter().enumerate() {
            for b in 0..6 {
                bits[(i * 6 + b) / 8] |= (r >> b & 1) << ((i * 6 + b) % 8);
            }
        }
        bits.iter().for_each(|&b| w.put_u8(b));
        w.put_varint(s.missing);
        finish(w)
    }

    /// `k`, each entry's hash and string, `rows`.
    pub fn bottom_k(s: &BottomKSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(s.k as u64);
        s.entries.encode(&mut w);
        w.put_varint(s.rows);
        finish(w)
    }

    /// `bx`, `by`, the bar totals and the subdivisions in zero runs, the
    /// three tallies.
    pub fn stacked(s: &StackedSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(s.bx as u64);
        w.put_varint(s.by as u64);
        zero_runs(&mut w, &s.x_counts);
        zero_runs(&mut w, &s.xy_counts);
        for tally in [s.missing, s.out_of_range, s.rows_inspected] {
            w.put_varint(tally);
        }
        finish(w)
    }

    /// `k`, the key list with each key's row — its key values, then its
    /// display values — and count after it, `matched`.
    pub fn nextk(s: &NextKSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(s.k as u64);
        w.put_key_header(s.rows.len(), s.rows.first().map(|(key, _, _)| key));
        let mut prev = None;
        for (key, row, count) in &s.rows {
            w.put_key(prev, key);
            let values = key.values().iter().chain(&row.values).cloned();
            Row::new(values.collect()).encode(&mut w);
            w.put_varint(*count);
            prev = Some(key);
        }
        w.put_varint(s.matched);
        finish(w)
    }

    /// The key list with each key's weight after it, `population`, `cap`,
    /// `resolution`.
    pub fn quantile(s: &QuantileSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_key_header(s.keys.len(), s.keys.first().map(|(key, _)| key));
        let mut prev = None;
        for (key, weight) in &s.keys {
            w.put_key(prev, key);
            w.put_varint(*weight);
            prev = Some(key);
        }
        w.put_varint(s.population);
        w.put_varint(s.cap as u64);
        w.put_varint(s.resolution as u64);
        finish(w)
    }

    /// A key list of no key or one, the key followed by its whole row,
    /// `matches_after`, `matches_total`.
    pub fn find(s: &FindSummary) -> Vec<u8> {
        let mut w = WireWriter::new();
        let key = s.first.as_ref().map(|(key, _)| key);
        w.put_key_header(usize::from(key.is_some()), key);
        if let Some((key, row)) = &s.first {
            w.put_key(None, key);
            row.encode(&mut w);
        }
        w.put_varint(s.matches_after);
        w.put_varint(s.matches_total);
        finish(w)
    }
}

/// The bytes every summary's fold produces, pinned. Each sketch — the
/// sampled ones at a fixed seed — is folded over a seeded `generate_flights`
/// table by `summarize_split`, at two grains and across three partitions,
/// one of them empty. The constants were recorded on commit `d280ef4`, whose
/// `merge` took both operands by reference and returned a new summary: how a
/// merge is written may change, the bytes it folds to may not. The five
/// sampled entries were re-recorded when sampling became the one row-hash
/// rule (`row_sampled`). `misra-gries` and `quantile-sampled` were
/// re-recorded when a partition came to split by its row span rather than
/// by its selected rows: their merges depend on order or compress, and the
/// sparse partitions here now fold at span boundaries. The ten other exact
/// entries still hold `d280ef4`'s bytes. `distinct`, `bottom-k`, `stacked`,
/// `nextk`, `quantile-sampled`, `find`, `histogram-sampled`, `heatmap` and
/// `trellis-sampled` ship less than they did then (registers patched,
/// hashes and bar totals recomputed at the root, a page's keys and a
/// match's key cells sent once, weights as offsets above the least, counts
/// sparse where that is shorter than zero runs), so their folds are
/// fingerprinted in the layouts of [`pinned_layouts`]. `distinct-exact`,
/// the exact set of `FlightNum`'s values over its domain `[1, 5 999]`, was
/// recorded when the distinct sketch gained that form, in its first layout.
#[test]
fn fold_fingerprints_are_pinned() {
    let f = Folds::new();
    let by_date = SortOrder::ascending(&["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"]);
    let numeric = BucketSpec::numeric;
    let carriers = || BucketSpec::strings(["AA", "DL", "UA", "WN"].map(Arc::from).to_vec());
    let trellis = TrellisSketch {
        col_w: Arc::from("Carrier"),
        col_x: Arc::from("Distance"),
        col_y: Arc::from("AirTime"),
        buckets_w: carriers(),
        buckets_x: numeric(0.0, 3_000.0, 12),
        buckets_y: numeric(0.0, 400.0, 8),
        rate: 0.7,
    };
    let page = NextKSketch::first_page(SortOrder::ascending(&["Origin", "DepDelay"]), 20);
    let find_order = SortOrder::ascending(&["Origin", "FlightNum"]);
    let got = [
        ("count", f.fingerprint(CountSketch::of_column("DepDelay"))),
        ("range", f.fingerprint(RangeSketch::new("ArrDelay"))),
        ("range-strings", f.fingerprint(RangeSketch::new("TailNum"))),
        (
            "histogram-sampled",
            f.fingerprint_as(
                HistogramSketch::sampled("DepDelay", numeric(-60.0, 600.0, 600), 0.5),
                pinned_layouts::histogram,
            ),
        ),
        (
            "heatmap",
            f.fingerprint_as(
                HeatmapSketch::streaming(
                    "Distance",
                    "AirTime",
                    numeric(0.0, 3_000.0, 40),
                    numeric(0.0, 400.0, 20),
                ),
                pinned_layouts::heatmap,
            ),
        ),
        (
            "stacked",
            f.fingerprint_as(
                StackedHistogramSketch::streaming(
                    "CRSDepTime",
                    "Carrier",
                    numeric(0.0, 2_400.0, 24),
                    carriers(),
                ),
                pinned_layouts::stacked,
            ),
        ),
        (
            "trellis-sampled",
            f.fingerprint_as(trellis, pinned_layouts::trellis),
        ),
        ("moments", f.fingerprint(MomentsSketch::new("ArrDelay", 4))),
        (
            "pca-sampled",
            f.fingerprint(PcaSketch::new(&["DepDelay", "ArrDelay", "Distance"], 0.6)),
        ),
        (
            "distinct",
            f.fingerprint_as(DistinctSketch::new("TailNum"), pinned_layouts::distinct),
        ),
        (
            "distinct-exact",
            f.fingerprint(
                DistinctSketch::new("FlightNum")
                    .with_domain(1, 5_999)
                    .unwrap(),
            ),
        ),
        (
            "misra-gries",
            f.fingerprint(MisraGriesSketch::new("Origin", 8)),
        ),
        (
            "sampled-hh",
            f.fingerprint(SampledHeavyHittersSketch::new("Dest", 6, 0.4)),
        ),
        (
            "bottom-k",
            f.fingerprint_as(BottomKSketch::new("TailNum", 64), pinned_layouts::bottom_k),
        ),
        (
            "quantile-sampled",
            f.fingerprint_as(
                QuantileSketch::new(by_date, 0.5, 400, 80),
                pinned_layouts::quantile,
            ),
        ),
        (
            "nextk",
            f.fingerprint_as(page.with_display(&["Carrier"]), pinned_layouts::nextk),
        ),
        (
            "find",
            f.fingerprint_as(
                FindSketch::new("Origin", "S", StrMatchKind::Substring, find_order),
                pinned_layouts::find,
            ),
        ),
    ];
    let pinned = [
        ("count", 0x9942b7754394befa),
        ("range", 0xfe4847ac1694ac1e),
        ("range-strings", 0x7985f778f4beb1ca),
        ("histogram-sampled", 0xd8f72d40084432af),
        ("heatmap", 0xb90441e3344f2751),
        ("stacked", 0x8fa6a0dfe9685360),
        ("trellis-sampled", 0xe817ea779130b64c),
        ("moments", 0x2afe95d435515c02),
        ("pca-sampled", 0x091af345718b82f3),
        ("distinct", 0x5ff4b5b470e51f68),
        ("distinct-exact", 0xe64355f71e413a91),
        ("misra-gries", 0xad1899b75589ff89),
        ("sampled-hh", 0x68296581ed369a71),
        ("bottom-k", 0xde366bfb57356c10),
        ("quantile-sampled", 0x3f27188f9bda7712),
        ("nextk", 0x969ad72a7869478b),
        ("find", 0x2dfb21fe37116b53),
    ];
    for ((name, got), want) in got.into_iter().zip(pinned) {
        assert_eq!((name, got), want, "{name}: {got:#018x}");
    }
}
