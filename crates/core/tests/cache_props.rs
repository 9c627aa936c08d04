//! Property tests for the per-worker sketch-result cache.
//!
//! The contract under test: a cache **hit is bit-identical to the
//! computation it replaced** — across integer encodings (plain /
//! bit-packed / run-length / delta), membership representations (fused
//! full-membership scan vs. materialized narrowed membership), and simd
//! modes (an entry computed with the vector kernels must serve a query
//! running the scalar fallbacks, and vice versa). Each case runs every
//! query shape three ways: uncached reference, cold miss (populates the
//! cache, possibly under the *other* simd mode), and warm hit; all three
//! summaries must agree byte-for-byte, and the counters must prove the
//! hit actually came from the cache.

use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{simd, ColumnKind, I64Storage, NullMask, Predicate, SortOrder, Table};
use hillview_core::cluster::ClusterConfig;
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::{erase, ErasedSketch};
use hillview_core::{Cluster, DatasetId, FnSource, Lineage, QueryOptions, SourceSpec};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::quantile::QuantileSketch;
use hillview_sketch::BucketSpec;
use proptest::prelude::*;
use std::sync::Arc;

/// Force one of the representable storages for `data`: every variant that
/// can hold the values, indexed stably so proptest shrinks meaningfully.
fn storage_for(enc: usize, data: &[i64]) -> I64Storage {
    let mut variants = vec![
        I64Storage::plain_of(data.to_vec()),
        I64Storage::encode(data.to_vec()),
    ];
    variants.extend(I64Storage::bit_packed_of(data));
    variants.extend(I64Storage::run_length_of(data));
    variants.extend(I64Storage::delta_of(data));
    let pick = enc % variants.len();
    variants.swap_remove(pick)
}

/// A 2-worker cluster whose source shards `values` per worker (rotated so
/// the workers differ) with the chosen storage encoding, split into two
/// partitions per worker.
fn cluster_with(enc: usize, values: Arc<Vec<i64>>, null_p: u32) -> Arc<Cluster> {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new(
        "props",
        move |w, _n, _mp, _snap| {
            let n = values.len();
            let shard: Vec<i64> = (0..n)
                .map(|i| values[(i + w * 17) % n].wrapping_add(w as i64))
                .collect();
            let mid = n / 2;
            let mut parts = Vec::new();
            for chunk in [&shard[..mid], &shard[mid..]] {
                if chunk.is_empty() {
                    continue;
                }
                let nulls = NullMask::from_flags(
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v.unsigned_abs() ^ i as u64) % 100 < u64::from(null_p)),
                    chunk.len(),
                );
                let t = Table::builder()
                    .column(
                        "X",
                        ColumnKind::Int,
                        Column::Int(I64Column::with_storage(storage_for(enc, chunk), nulls)),
                    )
                    .build()
                    .unwrap();
                parts.push(t);
            }
            Ok(parts)
        },
    )));
    Cluster::new(ClusterConfig::test(), sources, UdfRegistry::with_builtins())
}

fn load(c: &Arc<Cluster>) -> DatasetId {
    let ds = DatasetId(1);
    let spec = SourceSpec {
        source: Arc::from("props"),
        snapshot: 0,
    };
    c.derive(ds, &Lineage::Loaded { spec }, None).unwrap();
    ds
}

/// Run one query shape (fused or two-pass) under the reference/miss/hit
/// triple and assert bit-identity plus real cache traffic.
fn assert_hit_equals_miss(
    c: &Arc<Cluster>,
    ds: DatasetId,
    filter: Option<&Predicate>,
    sk: &Arc<dyn ErasedSketch>,
    scalar_first: bool,
    ctx: &str,
) {
    let uncached = QueryOptions {
        cache: false,
        ..Default::default()
    };
    let cached = QueryOptions::default();

    simd::set_force_scalar(scalar_first);
    let reference = c.run_erased(ds, filter, sk, &uncached).unwrap();

    // Cold miss under the *other* simd mode: whatever lands in the cache
    // was computed by the other kernel path.
    simd::set_force_scalar(!scalar_first);
    let misses_before = c.cache_stats().misses;
    let cold = c.run_erased(ds, filter, sk, &cached).unwrap();
    let after_cold = c.cache_stats();
    assert!(
        after_cold.misses > misses_before,
        "{ctx}: cold run never consulted the cache"
    );

    // Warm hit back under the first mode.
    simd::set_force_scalar(scalar_first);
    let hits_before = after_cold.hits;
    let warm = c.run_erased(ds, filter, sk, &cached).unwrap();
    let hits_after = c.cache_stats().hits;
    simd::set_force_scalar(false);

    assert_eq!(
        reference.bytes, cold.bytes,
        "{ctx}: cached computation diverged from uncached reference"
    );
    assert_eq!(
        cold.bytes, warm.bytes,
        "{ctx}: cache hit served different bytes than the miss stored"
    );
    assert_eq!(
        hits_after - hits_before,
        c.num_workers() as u64,
        "{ctx}: warm run was not served from every worker's cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hit ≡ miss ≡ uncached, for a float-fold-sensitive sketch (moments),
    /// a bucketed histogram, and a rate-1 quantile whose worker summaries
    /// are compacted before they are cached or sent, over both the fused
    /// and the materialized two-pass membership representation.
    #[test]
    fn cache_hit_is_bit_identical_to_recomputation(
        values in proptest::collection::vec(-400i64..400, 64..1600),
        enc in 0usize..6,
        null_p in 0u32..30,
        lo in -300.0f64..300.0,
        span in 1.0f64..400.0,
        scalar_first in any::<bool>(),
    ) {
        let c = cluster_with(enc, Arc::new(values), null_p);
        let ds = load(&c);
        let pred = Predicate::range("X", lo, lo + span);
        let sketches: Vec<Arc<dyn ErasedSketch>> = vec![
            erase(MomentsSketch::new("X", 4)),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(-450.0, 450.0, 13),
            )),
            erase(QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 100_000, 16)),
        ];

        // Materialized membership for the two-pass representation.
        let narrowed = DatasetId(2);
        let step = Lineage::Filtered {
            parent: ds,
            predicate: pred.clone(),
        };
        c.derive(narrowed, &step, None).unwrap();

        for sk in &sketches {
            assert_hit_equals_miss(
                &c, ds, None, sk, scalar_first,
                &format!("{} full", sk.name()),
            );
            assert_hit_equals_miss(
                &c, ds, Some(&pred), sk, scalar_first,
                &format!("{} fused", sk.name()),
            );
            assert_hit_equals_miss(
                &c, narrowed, None, sk, scalar_first,
                &format!("{} two-pass", sk.name()),
            );
        }
    }
}
