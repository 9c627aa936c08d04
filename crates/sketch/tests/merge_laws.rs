//! Property tests for the sketch merge laws (paper §4.1).
//!
//! For every summary type: merge is commutative, associative, and has the
//! sketch identity as unit; and for exact (non-sampled) sketches,
//! `summarize(D1 ⊎ D2) = merge(summarize(D1), summarize(D2))` over random
//! data and random partition splits.

use hillview_columnar::column::{Column, DictColumn, F64Column};
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
    let merged = s[0].merge(&s[1]).merge(&s[2]);
    prop_assert_eq!(&merged, &direct, "summarize(⊎) == fold(merge)");
    // Commutativity & associativity.
    let ab_c = s[0].merge(&s[1]).merge(&s[2]);
    let a_bc = s[0].merge(&s[1].merge(&s[2]));
    prop_assert_eq!(&ab_c, &a_bc, "associative");
    let ba = s[1].merge(&s[0]);
    let ab = s[0].merge(&s[1]);
    prop_assert_eq!(&ba, &ab, "commutative");
    // Identity.
    let with_id = direct.merge(&sketch.identity());
    prop_assert_eq!(&with_id, &direct, "identity is unit");
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
    /// and the identity unit stay bitwise (IEEE `a+b == b+a`, and the power
    /// sums of X ∈ [0, 100) are non-negative so `x + 0.0 == x`).
    #[test]
    fn moments_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = MomentsSketch::new("X", 4);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table, c1, c2);
        let direct = sk.summarize(&whole, Scope::ALL, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, Scope::ALL, 7).unwrap()).collect();
        let merged = s[0].merge(&s[1]).merge(&s[2]);
        prop_assert_eq!(merged.present, direct.present);
        prop_assert_eq!(merged.missing, direct.missing);
        prop_assert_eq!(merged.min, direct.min);
        prop_assert_eq!(merged.max, direct.max);
        for (m, d) in merged.sums.iter().zip(&direct.sums) {
            prop_assert!(close(*m, *d), "power sum {} vs {}", m, d);
        }
        let a_bc = s[0].merge(&s[1].merge(&s[2]));
        prop_assert_eq!(a_bc.present, merged.present);
        for (g, m) in a_bc.sums.iter().zip(&merged.sums) {
            prop_assert!(close(*g, *m), "regrouped power sum {} vs {}", g, m);
        }
        prop_assert_eq!(s[1].merge(&s[0]), s[0].merge(&s[1]), "commutative");
        prop_assert_eq!(direct.merge(&sk.identity()), direct, "identity is unit");
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
        let merged = s[0].merge(&s[1]).merge(&s[2]);
        prop_assert_eq!(merged.m, direct.m);
        prop_assert_eq!(merged.count, direct.count);
        for (m, d) in merged.sums.iter().zip(&direct.sums) {
            prop_assert!(close(*m, *d), "column sum {} vs {}", m, d);
        }
        for (m, d) in merged.prods.iter().zip(&direct.prods) {
            prop_assert!(close(*m, *d), "co-moment {} vs {}", m, d);
        }
        prop_assert_eq!(s[1].merge(&s[0]), s[0].merge(&s[1]), "commutative");
        prop_assert_eq!(direct.merge(&sk.identity()), direct, "identity is unit");
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
        let merged = s[0].merge(&s[1]).merge(&s[2]);
        prop_assert_eq!(merged.population, direct.population);
        prop_assert_eq!(merged.cap, direct.cap);
        prop_assert_eq!(&merged, &direct, "key multiset");
        prop_assert_eq!(&s[0].merge(&s[1].merge(&s[2])), &merged, "associative");
        prop_assert_eq!(s[1].merge(&s[0]), s[0].merge(&s[1]), "commutative");
        prop_assert_eq!(direct.merge(&sk.identity()), direct, "identity is unit");
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
        let fold = |parts: &[QuantileSummary]| {
            parts.iter().fold(sk.identity(), |acc, s| acc.merge(s))
        };
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
    /// arrival order), but the heavy-hitter *guarantee* must survive merging:
    /// any item with true frequency > total/k appears in the merged counters.
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
        let merged = parts
            .iter()
            .map(|p| sk.summarize(p, Scope::ALL, 0).unwrap())
            .fold(sk.identity(), |acc, s| acc.merge(&s));
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
