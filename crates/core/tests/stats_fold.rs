//! Phase 1 from the part statistics, as a property: over a loaded
//! dataset, what [`Engine::stats`] folds from its parts' statistics is, byte
//! for byte, what an unfiltered `CountSketch` or `RangeSketch` tree folds
//! from its rows.
//!
//! Each case generates a few partitions of every column kind — integers
//! under every storage encoding, dates, integral and raw doubles (NaN
//! normalised to null, `±0.0`, `±∞`, `i64::MIN`/`MAX`), strings — with
//! empty and all-null partitions among them, deals them over 1, 2 or 3
//! workers, and loads them three ways: tables built in memory, `hvc` parts
//! read onto the heap, and the same parts mapped. Every way, the statistics
//! must answer with the tree's bytes, and the three ways must agree.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{
    ColumnKind, F64Storage, I64Storage, NullMask, SegmentMode, Table, TempDir, ZoneMap,
};
use hillview_core::cluster::ClusterConfig;
use hillview_core::dataset::SourceRegistry;
use hillview_core::{Cluster, DatasetId, Engine, FnSource, HvcDirSource, QueryOptions};
use hillview_net::Wire;
use hillview_sketch::count::CountSketch;
use hillview_sketch::range::RangeSketch;
use proptest::prelude::*;
use std::sync::Arc;

/// A small deterministic generator, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Integers that reach the domain's edges, or stay in a narrow band so
/// the encoders pack, run and stride them.
fn ints(g: &mut Gen, n: usize) -> Vec<i64> {
    let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    match g.below(3) {
        0 => (0..n).map(|_| g.pick(&edges)).collect(),
        1 => (0..n).map(|_| 1_000 + 7 * g.below(40) as i64).collect(),
        _ => (0..n).map(|_| g.next() as i64).collect(),
    }
}

/// Doubles with both zeros, both infinities, NaN, integers past 2^53 and
/// fractions — integral on their own in some cases, so they encode.
fn doubles(g: &mut Gen, n: usize) -> Vec<f64> {
    let integral = [-0.0, 0.0, -3.0, 2.0, 9_007_199_254_740_992.0, -1e15];
    let raw = [
        -0.0,
        0.0,
        0.5,
        -2.25,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        i64::MIN as f64,
        i64::MAX as f64,
        f64::MIN_POSITIVE,
    ];
    let from: &[f64] = if g.below(2) == 0 { &integral } else { &raw };
    (0..n).map(|_| g.pick(from)).collect()
}

/// Every storage an integer column can take for `data`, one chosen.
fn int_storage(g: &mut Gen, data: &[i64]) -> I64Storage {
    let mut variants = vec![
        I64Storage::plain_of(data.to_vec()),
        I64Storage::encode(data.to_vec()),
    ];
    variants.extend(I64Storage::bit_packed_of(data));
    variants.extend(I64Storage::run_length_of(data));
    variants.extend(I64Storage::delta_of(data));
    variants.extend(I64Storage::exceptions_of(data));
    let pick = g.below(variants.len() as u64) as usize;
    variants.swap_remove(pick)
}

/// A null mask over `n` rows: none, some, or every row null.
fn nulls(g: &mut Gen, n: usize) -> NullMask {
    let share = g.pick(&[0, 0, 30, 90, 100]);
    NullMask::from_flags((0..n).map(|_| g.below(100) < share), n)
}

/// One partition of `n` rows holding every column kind.
fn part(g: &mut Gen, n: usize) -> Table {
    let int = |g: &mut Gen| {
        let data = ints(g, n);
        I64Column::with_storage(int_storage(g, &data), nulls(g, n))
    };
    let (i, d) = (int(g), int(g));
    let values = doubles(g, n);
    let mut mask = nulls(g, n);
    let double = if g.below(2) == 0 {
        F64Column::new(values, mask)
    } else {
        // Stored raw whatever the values: NaN rows marked null first, as
        // `new` would.
        for (r, v) in values.iter().enumerate() {
            if v.is_nan() {
                mask.set_null(r, n);
            }
        }
        let zones = ZoneMap::from_f64(&values);
        F64Column::from_parts(F64Storage::Plain(values.into()), mask, zones)
    };
    let strings = ["ORD", "SFO", "JFK"];
    let s = (0..n).map(|_| [None, Some(g.pick(&strings))][g.below(4).min(1) as usize]);
    Table::builder()
        .column("I", ColumnKind::Int, Column::Int(i))
        .column("D", ColumnKind::Date, Column::Date(d))
        .column("F", ColumnKind::Double, Column::Double(double))
        .column(
            "S",
            ColumnKind::String,
            Column::Str(DictColumn::from_strings(s)),
        )
        .build()
        .unwrap()
}

/// The bytes a tree over `dataset` folds `sketch` to, caches bypassed.
fn tree<S: hillview_sketch::Sketch>(e: &Engine, dataset: DatasetId, sketch: S) -> Vec<u8> {
    let opts = QueryOptions {
        cache: false,
        ..Default::default()
    };
    e.run(dataset, sketch, &opts).unwrap().0.to_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stats_fold_is_the_tree(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let parts: Vec<Table> = (0..g.below(5))
            .map(|_| {
                let n = g.pick(&[0, 1, 63, 64, 65, 200]);
                part(&mut g, n)
            })
            .collect();
        let dir = TempDir::new("stats-fold");
        for (k, t) in parts.iter().enumerate() {
            hillview_storage::hvc::write_file(t, dir.join(format!("part-{k:05}.hvc"))).unwrap();
        }
        let workers = g.pick(&[1, 2, 3]);
        let mut sources = SourceRegistry::new();
        // Dealt as the part directory deals them: part k to worker k mod W.
        let tables = Arc::new(parts);
        let dealt = tables.clone();
        sources.register(Arc::new(FnSource::new("mem", move |w, n, _, _| {
            Ok(dealt.iter().skip(w).step_by(n).cloned().collect())
        })));
        sources.register(Arc::new(HvcDirSource::with_mode("heap", dir.path(), SegmentMode::Heap)));
        sources.register(Arc::new(HvcDirSource::with_mode("mapped", dir.path(), SegmentMode::Auto)));
        let cfg = ClusterConfig {
            workers,
            threads_per_worker: 1,
            micropartition_rows: g.pick(&[97, 100_000]),
            leaf_grain_rows: g.pick(&[64, 65_536]),
            ..ClusterConfig::test()
        };
        let e = Engine::new(Cluster::new(cfg, sources, UdfRegistry::new()));
        let mut trees = Vec::new();
        for source in ["mem", "heap", "mapped"] {
            let ds = e.load(source, 0).unwrap();
            // A dataset of no partition names no column: its columns' counts
            // and ranges are left to the tree. The part directory drops
            // empty parts.
            let held = if source == "mem" {
                !tables.is_empty()
            } else {
                tables.iter().any(|t| t.num_rows() > 0)
            };
            let stats = e.stats(ds);
            prop_assert!(stats.is_some(), "{source}: a load every worker holds");
            let stats = stats.unwrap();
            let rows = tree(&e, ds, CountSketch::rows());
            prop_assert_eq!(&stats.rows().to_bytes().to_vec(), &rows, "{} rows", source);
            let mut folds = vec![rows];
            for column in ["I", "D", "F", "S"] {
                let count = stats.count(column).map(|c| c.to_bytes().to_vec());
                let want = tree(&e, ds, CountSketch::of_column(column));
                prop_assert_eq!(count, held.then(|| want.clone()), "{} count {}", source, column);
                folds.push(want);
                let range = stats.range(column).map(|r| r.to_bytes().to_vec());
                let want = tree(&e, ds, RangeSketch::new(column));
                // A string column's extremes are strings: the tree's.
                let numeric = held && column != "S";
                prop_assert_eq!(range, numeric.then(|| want.clone()), "{} range {}", source, column);
                folds.push(want);
            }
            trees.push(folds);
        }
        prop_assert_eq!(&trees[0], &trees[1], "in memory and heap");
        prop_assert_eq!(&trees[1], &trees[2], "heap and mapped");
    }
}
