//! Heavy hitters: Misra-Gries (streaming) and sampling variants.
//!
//! Paper App. B.2 gives both algorithms. Misra-Gries keeps K counters and is
//! exact up to an additive n/K undercount; the mergeable variant (Agarwal et
//! al. \[2\]) combines counter sets and re-truncates. The sampling variant
//! draws `n = K² log(K/δ)` rows and reports items with sample frequency
//! ≥ 3n/4K; Theorem 4 (App. C.3) shows this returns every item above 1/K and
//! none below 1/4K with probability 1−δ.

use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::{scan_rows, scan_values};
use hillview_columnar::{row_sampled, scan_blocks, Block, BlockSink, Value};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Misra-Gries
// ---------------------------------------------------------------------------

/// Streaming Misra-Gries heavy hitters over one column.
#[derive(Debug, Clone)]
pub struct MisraGriesSketch {
    /// Column name.
    pub column: Arc<str>,
    /// Maximum number of counters (the paper's K).
    pub k: usize,
}

impl MisraGriesSketch {
    /// Track up to `k` heavy items of the named column.
    pub fn new(column: &str, k: usize) -> Self {
        MisraGriesSketch {
            column: Arc::from(column),
            k: k.max(1),
        }
    }
}

/// Misra-Gries counter set.
#[derive(Debug, Clone, PartialEq)]
pub struct MisraGriesSummary {
    /// Counter capacity.
    pub k: usize,
    /// (value, counter) pairs; counters underestimate true counts by at most
    /// `total/k`.
    pub counters: Vec<(Value, u64)>,
    /// Total rows observed (present values only).
    pub total: u64,
}

impl MisraGriesSummary {
    fn zero(k: usize) -> Self {
        MisraGriesSummary {
            k,
            counters: Vec::new(),
            total: 0,
        }
    }

    /// Estimated count of `v` (0 if not tracked).
    pub fn count_of(&self, v: &Value) -> u64 {
        self.counters
            .iter()
            .find(|(x, _)| x == v)
            .map_or(0, |(_, c)| *c)
    }

    /// Items whose estimated frequency is at least `threshold` (e.g. `1.0 /
    /// k as f64` for the paper's heavy-hitter definition), sorted by
    /// descending count.
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(Value, u64)> {
        let mut out: Vec<(Value, u64)> = self
            .counters
            .iter()
            .filter(|(_, c)| self.total > 0 && *c as f64 / self.total as f64 >= threshold)
            .cloned()
            .collect();
        sort_by_count(&mut out);
        out
    }
}

impl Summary for MisraGriesSummary {
    fn merge(&mut self, other: Self) {
        self.k = self.k.max(other.k);
        let counters = &mut self.counters;
        add_counters(counters, other.counters);
        // If over capacity: subtract the (k+1)-th largest counter from all
        // and drop non-positive (the mergeable-summaries MG merge).
        if counters.len() > self.k {
            counters.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            let pivot = counters[self.k].1;
            counters.retain_mut(|(_, c)| {
                *c = c.saturating_sub(pivot);
                *c > 0
            });
        }
        sort_by_count(counters);
        self.total += other.total;
    }
}

/// Adds `other`'s counts into `mine` by value, in place, each value kept as
/// it first occurs in `mine`, then `other`; leaves `mine` in no particular
/// order.
fn add_counters(mine: &mut Vec<(Value, u64)>, other: Vec<(Value, u64)>) {
    let mut map: HashMap<Value, u64> = HashMap::with_capacity(mine.len() + other.len());
    for (v, c) in mine.drain(..).chain(other) {
        *map.entry(v).or_insert(0) += c;
    }
    mine.extend(map);
}

/// Count descending, then value ascending: the order every heavy-hitters
/// summary lists its counts in.
fn sort_by_count(counts: &mut [(Value, u64)]) {
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// Layout: `k`, counter count, each counter's value and count, `total`.
impl Wire for MisraGriesSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.k as u64);
        self.counters.encode(w);
        w.put_varint(self.total);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(MisraGriesSummary {
            k: r.get_len("MG k")?,
            counters: Vec::decode(r)?,
            total: r.get_varint()?,
        })
    }
}

impl Sketch for MisraGriesSketch {
    type Summary = MisraGriesSummary;

    fn name(&self) -> &'static str {
        "heavy-hitters-mg"
    }

    /// MG counters are order-sensitive, so a split execution (sub-range
    /// counter sets folded with the mergeable-summaries merge) is a
    /// *different but equally valid* MG summary than the unsplit pass —
    /// same capacity, same `total/k` undercount bound. Determinism comes
    /// from the fixed split plan and range-ordered fold.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<MisraGriesSummary> {
        let col = view.table().column_by_name(&self.column)?;
        // Dictionary fast path: run the MG counter updates keyed by u32
        // code over the raw code slice (chunked, null-word aware) and only
        // materialize `Value`s for the ≤ k surviving counters. The counter
        // dynamics see the identical value stream, so the result is
        // bit-identical to the per-row reference.
        let mut missing = 0u64;
        let (mut counters, selected) = view.scan(scope, None, |sel| -> Vec<(Value, u64)> {
            if let Some(dict) = col.as_dict_col() {
                let mut code_counters: HashMap<u32, u64> = HashMap::with_capacity(self.k + 1);
                scan_values(
                    sel,
                    dict.codes(),
                    dict.nulls().bitmap(),
                    &mut missing,
                    |code| {
                        if let Some(c) = code_counters.get_mut(&code) {
                            *c += 1;
                        } else if code_counters.len() < self.k {
                            code_counters.insert(code, 1);
                        } else {
                            code_counters.retain(|_, c| {
                                *c -= 1;
                                *c > 0
                            });
                        }
                    },
                );
                let mut s = String::new();
                code_counters
                    .into_iter()
                    .map(|(code, c)| (Value::str(dict.dictionary().read(code, &mut s)), c))
                    .collect()
            } else {
                let mut val_counters: HashMap<Value, u64> = HashMap::with_capacity(self.k + 1);
                scan_rows(sel, |row| {
                    let v = col.value(row);
                    if v.is_missing() {
                        missing += 1;
                    } else if let Some(c) = val_counters.get_mut(&v) {
                        *c += 1;
                    } else if val_counters.len() < self.k {
                        val_counters.insert(v, 1);
                    } else {
                        // Decrement all; drop zeros. Amortized O(1) per row.
                        val_counters.retain(|_, c| {
                            *c -= 1;
                            *c > 0
                        });
                    }
                });
                val_counters.into_iter().collect()
            }
        })?;
        sort_by_count(&mut counters);
        Ok(MisraGriesSummary {
            k: self.k,
            counters,
            total: selected - missing,
        })
    }

    fn identity(&self) -> MisraGriesSummary {
        MisraGriesSummary::zero(self.k)
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        Some(format!("{}|{}", self.column, self.k).into_bytes())
    }
}

impl MisraGriesSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(
        &self,
        view: &TableView,
        _seed: u64,
    ) -> SketchResult<MisraGriesSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut counters: HashMap<Value, u64> = HashMap::with_capacity(self.k + 1);
        let mut total = 0u64;
        for row in view.iter_rows() {
            let v = col.value(row);
            if v.is_missing() {
                continue;
            }
            total += 1;
            if let Some(c) = counters.get_mut(&v) {
                *c += 1;
            } else if counters.len() < self.k {
                counters.insert(v, 1);
            } else {
                counters.retain(|_, c| {
                    *c -= 1;
                    *c > 0
                });
            }
        }
        let mut counters: Vec<(Value, u64)> = counters.into_iter().collect();
        sort_by_count(&mut counters);
        Ok(MisraGriesSummary {
            k: self.k,
            counters,
            total,
        })
    }
}

// ---------------------------------------------------------------------------
// Sampling heavy hitters
// ---------------------------------------------------------------------------

/// Sampling heavy hitters (paper §4.3 "Heavy hitters (sampling)").
#[derive(Debug, Clone)]
pub struct SampledHeavyHittersSketch {
    /// Column name.
    pub column: Arc<str>,
    /// Maximum number of heavy hitters desired (the paper's K).
    pub k: usize,
    /// Row sampling rate chosen by the caller so the expected total sample
    /// size is `K² log(K/δ)`.
    pub rate: f64,
}

impl SampledHeavyHittersSketch {
    /// Sketch with an explicit rate.
    pub fn new(column: &str, k: usize, rate: f64) -> Self {
        SampledHeavyHittersSketch {
            column: Arc::from(column),
            k: k.max(1),
            rate,
        }
    }
}

/// Exact counts over the sampled rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledHeavyHittersSummary {
    /// (value, sample count), all values seen in the sample.
    pub counts: Vec<(Value, u64)>,
    /// Total sampled rows with a present value.
    pub sampled: u64,
}

impl SampledHeavyHittersSummary {
    /// Items with sample frequency ≥ `3n/4K` (Theorem 4), sorted descending.
    pub fn heavy_hitters(&self, k: usize) -> Vec<(Value, u64)> {
        let threshold = 3.0 * self.sampled as f64 / (4.0 * k.max(1) as f64);
        let mut out: Vec<(Value, u64)> = self
            .counts
            .iter()
            .filter(|(_, c)| *c as f64 >= threshold)
            .cloned()
            .collect();
        sort_by_count(&mut out);
        out
    }
}

impl Summary for SampledHeavyHittersSummary {
    fn merge(&mut self, other: Self) {
        add_counters(&mut self.counts, other.counts);
        sort_by_count(&mut self.counts);
        self.sampled += other.sampled;
    }
}

/// Layout: value count, each value and its sample count, `sampled`.
impl Wire for SampledHeavyHittersSummary {
    fn encode(&self, w: &mut WireWriter) {
        self.counts.encode(w);
        w.put_varint(self.sampled);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(SampledHeavyHittersSummary {
            counts: Vec::decode(r)?,
            sampled: r.get_varint()?,
        })
    }
}

/// Per-dictionary-code counters fed by the block pipeline.
struct CodeCounts(Vec<u64>);

impl BlockSink<u32> for CodeCounts {
    fn block(&mut self, b: &Block<'_, u32>) {
        if b.all_live() {
            for &code in b.values {
                self.0[code as usize] += 1;
            }
        } else {
            let mut live = b.live();
            while live != 0 {
                let k = live.trailing_zeros() as usize;
                live &= live - 1;
                self.0[b.values[k] as usize] += 1;
            }
        }
    }
    #[inline]
    fn one(&mut self, _row: usize, code: u32) {
        self.0[code as usize] += 1;
    }
}

impl Sketch for SampledHeavyHittersSketch {
    type Summary = SampledHeavyHittersSummary;

    fn name(&self) -> &'static str {
        "heavy-hitters-sampling"
    }

    /// Counts are exact over the sample, so split partials fold back to
    /// exactly the unsplit summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<SampledHeavyHittersSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        let (mut counts, _) = view.scan(scope, sample, |sel| -> Vec<(Value, u64)> {
            match col.as_dict_col() {
                // Dictionary fast path: exact counts into a dictionary-sized
                // array, consumed frame-wise from the block pipeline — a
                // fully-live frame is 64 unconditional array increments
                // with no hashing, and values are materialized once per
                // distinct code, not once per row. Increments commute, so
                // the result is independent of frame shape.
                Some(dict) => {
                    let mut by_code = CodeCounts(vec![0u64; dict.dictionary().len()]);
                    scan_blocks(
                        sel,
                        dict.codes(),
                        dict.nulls().bitmap(),
                        &mut 0,
                        &mut by_code,
                    );
                    let mut counts = Vec::new();
                    dict.dictionary().for_each(|code, s| {
                        let c = by_code.0[code as usize];
                        if c > 0 {
                            counts.push((Value::str(s), c));
                        }
                    });
                    counts
                }
                None => {
                    let mut map: HashMap<Value, u64> = HashMap::new();
                    scan_rows(sel, |row| {
                        let v = col.value(row);
                        if !v.is_missing() {
                            *map.entry(v).or_insert(0) += 1;
                        }
                    });
                    map.into_iter().collect()
                }
            }
        })?;
        // Each sampled row with a value is in exactly one count.
        let sampled = counts.iter().map(|(_, c)| c).sum();
        sort_by_count(&mut counts);
        Ok(SampledHeavyHittersSummary { counts, sampled })
    }

    fn identity(&self) -> SampledHeavyHittersSummary {
        SampledHeavyHittersSummary {
            counts: Vec::new(),
            sampled: 0,
        }
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // At rate >= 1 the "sample" is every row, so the counts are exact
        // and seed-independent.
        (self.rate >= 1.0).then(|| format!("{}|{}", self.column, self.k).into_bytes())
    }
}

impl SampledHeavyHittersSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(
        &self,
        view: &TableView,
        seed: u64,
    ) -> SketchResult<SampledHeavyHittersSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut map: HashMap<Value, u64> = HashMap::new();
        let mut sampled = 0u64;
        for row in view.iter_rows() {
            if !row_sampled(row as u64, self.rate, seed) {
                continue;
            }
            let v = col.value(row);
            if v.is_missing() {
                continue;
            }
            sampled += 1;
            *map.entry(v).or_insert(0) += 1;
        }
        let mut counts: Vec<(Value, u64)> = map.into_iter().collect();
        sort_by_count(&mut counts);
        Ok(SampledHeavyHittersSummary { counts, sampled })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merged;
    use hillview_columnar::column::{Column, DictColumn};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    /// 1000 rows: "whale" 40%, "shark" 25%, long tail of minnows.
    fn skewed_view() -> TableView {
        let mut vals = Vec::new();
        for i in 0..1000 {
            vals.push(if i % 20 < 8 {
                "whale".to_string()
            } else if i % 20 < 13 {
                "shark".to_string()
            } else {
                format!("minnow{}", i)
            });
        }
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(
                    vals.iter().map(|s| Some(s.as_str())),
                )),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn mg_finds_the_heavy_items() {
        let sk = MisraGriesSketch::new("S", 10);
        let s = sk.summarize(&skewed_view(), Scope::ALL, 0).unwrap();
        let hh = s.heavy_hitters(0.1);
        assert_eq!(hh[0].0, Value::str("whale"));
        assert_eq!(hh[1].0, Value::str("shark"));
        // MG undercounts by at most total/k = 100.
        assert!(hh[0].1 >= 400 - 100);
        assert!(hh[0].1 <= 400);
    }

    #[test]
    fn mg_merge_preserves_heavy_items() {
        let v = skewed_view();
        let t = v.table().clone();
        let sk = MisraGriesSketch::new("S", 10);
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows((0..500).collect(), 1000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(
                    t,
                    Arc::new(MembershipSet::from_rows((500..1000).collect(), 1000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let merged = merged(a, b);
        assert_eq!(merged.total, 1000);
        let hh = merged.heavy_hitters(0.1);
        assert_eq!(hh[0].0, Value::str("whale"));
        // Merged MG error bound: ≤ total/k per the mergeable-summaries paper.
        assert!(merged.count_of(&Value::str("whale")) >= 300);
        assert!(merged.counters.len() <= 10, "capacity respected");
    }

    #[test]
    fn mg_identity_is_unit() {
        let sk = MisraGriesSketch::new("S", 5);
        let s = sk.summarize(&skewed_view(), Scope::ALL, 0).unwrap();
        let m = merged(sk.identity(), s.clone());
        assert_eq!(m.total, s.total);
        assert_eq!(m.heavy_hitters(0.1), s.heavy_hitters(0.1));
    }

    #[test]
    fn mg_never_tracks_more_than_k() {
        let sk = MisraGriesSketch::new("S", 3);
        let s = sk.summarize(&skewed_view(), Scope::ALL, 0).unwrap();
        assert!(s.counters.len() <= 3);
    }

    #[test]
    fn sampled_hh_finds_heavy_items() {
        let sk = SampledHeavyHittersSketch::new("S", 4, 0.5);
        let s = sk.summarize(&skewed_view(), Scope::ALL, 1).unwrap();
        let hh = s.heavy_hitters(4);
        let names: Vec<String> = hh.iter().map(|(v, _)| v.to_string()).collect();
        assert!(names.contains(&"whale".to_string()), "{names:?}");
        assert!(names.contains(&"shark".to_string()), "{names:?}");
        // No minnow occurs anywhere near 3n/4K of the sample.
        assert!(names.iter().all(|n| !n.starts_with("minnow")));
    }

    #[test]
    fn sampled_hh_merge_accumulates() {
        let v = skewed_view();
        let t = v.table().clone();
        let sk = SampledHeavyHittersSketch::new("S", 4, 0.6);
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows((0..500).collect(), 1000)),
                ),
                Scope::ALL,
                1,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(
                    t,
                    Arc::new(MembershipSet::from_rows((500..1000).collect(), 1000)),
                ),
                Scope::ALL,
                2,
            )
            .unwrap();
        let merged = merged(a.clone(), b.clone());
        assert_eq!(merged.sampled, a.sampled + b.sampled);
        let hh = merged.heavy_hitters(4);
        assert_eq!(hh[0].0, Value::str("whale"));
    }

    #[test]
    fn wire_roundtrips() {
        let s = MisraGriesSketch::new("S", 5)
            .summarize(&skewed_view(), Scope::ALL, 0)
            .unwrap();
        assert_eq!(MisraGriesSummary::from_bytes(s.to_bytes()).unwrap(), s);
        let s = SampledHeavyHittersSketch::new("S", 5, 0.3)
            .summarize(&skewed_view(), Scope::ALL, 0)
            .unwrap();
        assert_eq!(
            SampledHeavyHittersSummary::from_bytes(s.to_bytes()).unwrap(),
            s
        );
    }

    #[test]
    fn fused_sampling_rate_is_calibrated() {
        // 200k rows, half passing the filter, rate 0.3: the fused
        // sample fraction concentrates around the rate
        // (binomial std err ~0.0014 at n=100k; 3 sigma is well under the
        // 0.015 tolerance), and the draw is seed-deterministic.
        use hillview_columnar::column::I64Column;
        use hillview_columnar::Predicate;
        let n = 200_000usize;
        let names = ["alpha", "beta", "gamma", "delta"];
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings((0..n).map(|i| Some(names[i % 4])))),
            )
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(
                    (0..n).map(|i| Some(i as i64 % 100)),
                )),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let p = Predicate::range("X", 0.0, 50.0);
        let rate = 0.3f64;
        let sk = SampledHeavyHittersSketch::new("S", 4, rate);
        let under_p = Scope {
            rows: None,
            filter: Some(&p),
        };
        let s1 = sk.summarize(&v, under_p, 42).unwrap();
        let frac = s1.sampled as f64 / 100_000.0;
        assert!((frac - rate).abs() < 0.015, "sample fraction {frac}");
        // Each value appears in 1/4 of the filtered rows; the sampled
        // counts stay proportional.
        for (_, c) in &s1.counts {
            let share = *c as f64 / s1.sampled as f64;
            assert!((share - 0.25).abs() < 0.02, "value share {share}");
        }
        // Deterministic per seed, different across seeds.
        assert_eq!(s1, sk.summarize(&v, under_p, 42).unwrap());
        assert_ne!(s1, sk.summarize(&v, under_p, 43).unwrap());
    }
}
