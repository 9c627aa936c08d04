//! Sampled quantile estimation for the scroll bar, on two budgets.
//!
//! Paper App. C.1: when the user drags the scroll bar to pixel `j` of `V`,
//! the spreadsheet must display rows starting near relative rank `j/V`. A
//! uniform sample of `O(ε⁻² log 1/δ)` rows suffices (Theorem 2); with
//! ε = 1/2V that is `O(V²)` rows — independent of the dataset size.
//!
//! * The **sample budget** (`cap`, `O(V²)`) fixes the sampling accuracy.
//!   Each leaf Bernoulli-samples rows at the caller-chosen rate and keeps
//!   their sort keys; the budget bounds what a summary may hold in memory.
//! * The **resolution budget** (`resolution`, `K = O(V)`) bounds what a
//!   worker may put on a network link. The screen tells `V` scroll
//!   positions apart, so `K = 2·V` equi-depth keys place every pixel
//!   within a quarter of a pixel of where the full sample would — the
//!   share of the `1/V` contract the sample's own error leaves over
//!   (`hillview_viz::samples` derives both budgets from that contract).
//!
//! A summary is a *sorted, weighted* key list: distinct keys ascending, each
//! with the number of sampled rows it stands for. That form is canonical —
//! one multiset, one list, whatever the fold order — so `merge` is a merge
//! of sorted runs and `quantile` a walk over cumulative weight. One
//! primitive, [`QuantileSummary::compress`], shrinks a list to `k` keys by
//! equi-depth selection: cut the cumulative weight into `k` equal buckets
//! and let the key at each bucket's middle stand for the whole bucket, so
//! total weight is conserved and no sampled row moves more than half a
//! bucket, `⌈W/k⌉/2` ranks.
//!
//! ## Why compaction is a ship-time step
//!
//! [`Summary::compact`] compresses to `resolution` and runs exactly once
//! per worker, on the worker's own finished fold as it leaves for the root.
//! Worker `i` then misplaces at most `W_i/(2K)` of its weight around any
//! threshold, and the root only merges weighted runs, so the merged rank
//! error is at most `Σ W_i/(2K) = W/(2K)` of the sample — 1/(4·V) of the
//! population, 0.25 px — whatever the number of workers, partitions, split
//! grain or fold order (plus at most half a rank per worker, from rounding
//! bucket widths to whole rows). Compressing inside `merge` instead would
//! add that error once per merge: a worker folds its pieces sequentially,
//! so the error would grow linearly with the length of the fold and the
//! result would depend on the split grain. That is why the resolution is
//! not simply a smaller `cap`: `merge` compresses only past the sample
//! budget, where `W/(2·cap)` is `K/cap` — 1/290 at V = 100 — of the
//! ship-time error.

use crate::traits::{merge_runs, Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::scan_rows;
use hillview_columnar::{RowKey, SortOrder};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};

/// Sampled quantile sketch over a sort order.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// The active sort order whose keys are sampled.
    pub order: SortOrder,
    /// Row sampling rate.
    pub rate: f64,
    /// Sample budget: distinct keys a summary may hold (the paper's O(V²)).
    pub cap: usize,
    /// Resolution budget: distinct keys a summary may carry across a
    /// network link (O(V)).
    pub resolution: usize,
}

impl QuantileSketch {
    /// Sample sort keys at `rate`, holding at most `cap` per summary and
    /// shipping at most `resolution`.
    pub fn new(order: SortOrder, rate: f64, cap: usize, resolution: usize) -> Self {
        QuantileSketch {
            order,
            rate,
            cap: cap.max(1),
            resolution: resolution.max(1),
        }
    }
}

/// A uniform sample of sort keys, as a sorted weighted list, plus the
/// population size it represents.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Distinct sampled keys, ascending, each with the number of sampled
    /// rows it stands for.
    pub keys: Vec<(RowKey, u64)>,
    /// Rows in the underlying (filtered) population.
    pub population: u64,
    /// Sample budget (see [`QuantileSketch::cap`]).
    pub cap: usize,
    /// Resolution budget (see [`QuantileSketch::resolution`]).
    pub resolution: usize,
}

impl QuantileSummary {
    /// The summary of one leaf's sampled keys, in any order.
    fn from_sample(mut sample: Vec<RowKey>, population: u64, sketch: &QuantileSketch) -> Self {
        sample.sort_unstable();
        let mut keys: Vec<(RowKey, u64)> = Vec::new();
        for key in sample {
            match keys.last_mut() {
                Some((last, weight)) if *last == key => *weight += 1,
                _ => keys.push((key, 1)),
            }
        }
        QuantileSummary {
            keys,
            population,
            cap: sketch.cap,
            resolution: sketch.resolution,
        }
        .compress(sketch.cap)
    }

    /// Sampled rows the keys stand for.
    fn weight(&self) -> u64 {
        self.keys
            .iter()
            .fold(0u64, |sum, (_, w)| sum.saturating_add(*w))
    }

    /// The key at relative rank `q ∈ [0, 1]`, if any rows were sampled.
    pub fn quantile(&self, q: f64) -> Option<RowKey> {
        let last_rank = self.weight().checked_sub(1)?;
        let rank = (q.clamp(0.0, 1.0) * last_rank as f64).round() as u64;
        let mut seen = 0u64;
        let at = self.keys.iter().find(|(_, w)| {
            seen = seen.saturating_add(*w);
            rank < seen
        });
        at.map(|(key, _)| key.clone())
    }

    /// At most `k` keys standing for the same total weight: the cumulative
    /// weight is cut into `k` equal-depth buckets and the key holding each
    /// bucket's middle row takes the bucket's weight. A no-op at or below
    /// `k` keys, hence idempotent.
    pub fn compress(self, k: usize) -> Self {
        let k = k.max(1);
        if self.keys.len() <= k {
            return self;
        }
        let total = self.weight();
        let mut out: Vec<(RowKey, u64)> = Vec::with_capacity(k);
        let mut source = self.keys.into_iter();
        // Cumulative weight through the entries taken from `source`.
        let mut taken = 0u64;
        let mut lo = 0u64;
        for j in 1..=k as u128 {
            let hi = (j * total as u128 / k as u128) as u64;
            if hi == lo {
                continue;
            }
            let middle = lo + (hi - lo - 1) / 2;
            let mut holder = None;
            while taken <= middle {
                let Some((key, w)) = source.next() else { break };
                taken = taken.saturating_add(w);
                holder = Some(key);
            }
            match (holder, out.last_mut()) {
                (Some(key), _) => out.push((key, hi - lo)),
                // A heavy key holds the middle of several buckets.
                (None, Some((_, weight))) => *weight += hi - lo,
                (None, None) => {}
            }
            lo = hi;
        }
        QuantileSummary { keys: out, ..self }
    }
}

impl Summary for QuantileSummary {
    const COMPACTS: bool = true;

    fn merge(&mut self, other: Self) {
        let keys = merge_runs(
            std::mem::take(&mut self.keys),
            other.keys,
            |(key, _)| key,
            |(_, weight), (_, more)| *weight = weight.saturating_add(more),
        );
        let cap = self.cap.max(other.cap);
        *self = QuantileSummary {
            keys,
            population: self.population + other.population,
            cap,
            resolution: self.resolution.max(other.resolution),
        }
        .compress(cap);
    }

    fn compact(self) -> Self {
        let k = self.resolution;
        self.compress(k)
    }
}

/// Layout: a key list — the keys come from one sort order and ascend
/// strictly, which `merge` relies on and the decoder checks — then, unless
/// it is empty, the keys' weights (`put_weights`); then `population`,
/// `cap`, `resolution`.
impl Wire for QuantileSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_key_header(self.keys.len(), self.keys.first().map(|(key, _)| key));
        let mut prev = None;
        for (key, _) in &self.keys {
            w.put_key(prev, key);
            prev = Some(key);
        }
        put_weights(w, &self.keys.iter().map(|(_, w)| *w).collect::<Vec<_>>());
        w.put_varint(self.population);
        w.put_varint(self.cap as u64);
        w.put_varint(self.resolution as u64);
    }

    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let (len, descending) = r.get_key_header()?;
        let mut keys: Vec<RowKey> = Vec::with_capacity(len);
        for _ in 0..len {
            keys.push(r.get_key(&descending, keys.last())?);
        }
        let weights = get_weights(r, len)?;
        Ok(QuantileSummary {
            keys: keys.into_iter().zip(weights).collect(),
            population: r.get_varint()?,
            cap: r.get_len("quantile cap")?,
            resolution: r.get_len("quantile resolution")?,
        })
    }
}

/// Write weights — an equi-depth summary's are nearly equal — as their
/// least value and each one's offset above it: the varint of the least,
/// then the offsets' low bytes patched ([`WireWriter::put_packed`]) and
/// their higher bits as counts ([`WireWriter::put_counts`]), which a run of
/// zeros makes two bytes. Nothing for no weights.
fn put_weights(w: &mut WireWriter, weights: &[u64]) {
    let Some(&least) = weights.iter().min() else {
        return;
    };
    w.put_varint(least);
    let offsets: Vec<u64> = weights.iter().map(|&v| v - least).collect();
    w.put_packed(offsets.iter().map(|&d| d & 0xFF));
    w.put_counts(&offsets.iter().map(|&d| d >> 8).collect::<Vec<_>>());
}

/// Read the `n` weights [`put_weights`] wrote, refusing every other
/// spelling of them: a low byte past a byte, a least value that no weight
/// holds, and a weight past `u64`.
fn get_weights(r: &mut WireReader, n: usize) -> WireResult<Vec<u64>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let least = r.get_varint()?;
    let low = r.get_packed(n)?;
    if let Some(&lo) = low.iter().find(|&&lo| lo > 0xFF) {
        return Err(hillview_net::Error::BadLength {
            context: "quantile weight's low byte past a byte",
            len: lo,
        });
    }
    let high = r.get_counts(n)?;
    if low.iter().zip(&high).all(|(&lo, &hi)| lo > 0 || hi > 0) {
        return Err(hillview_net::Error::NotCanonical {
            context: "quantile weights above a least value none holds",
        });
    }
    let weight = |(&lo, &hi): (&u64, &u64)| {
        let offset = (hi < 1 << 56).then_some(hi << 8 | lo);
        offset.and_then(|d| least.checked_add(d))
    };
    let past = hillview_net::Error::BadLength {
        context: "quantile weight past u64",
        len: least,
    };
    low.iter()
        .zip(&high)
        .map(weight)
        .collect::<Option<_>>()
        .ok_or(past)
}

impl Sketch for QuantileSketch {
    type Summary = QuantileSummary;

    fn name(&self) -> &'static str {
        "quantile"
    }

    /// Sub-range populations count the membership rows in the bounds (not
    /// the sample), so split partials sum to the partition population
    /// exactly; merged keys stay a uniform sample.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> SketchResult<QuantileSummary> {
        let resolved = self.order.resolve(view.table())?;
        // The walk samples each frame after the filter, so the keys are
        // those of the sampled rows and the count is the population they
        // stand for: the bounded membership, or the filter's matches.
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        let mut keys = Vec::new();
        let ((), population) = view.scan(scope, sample, |sel| {
            scan_rows(sel, |row| keys.push(resolved.key(view.table(), row)))
        })?;
        Ok(QuantileSummary::from_sample(keys, population, self))
    }

    fn identity(&self) -> QuantileSummary {
        QuantileSummary::from_sample(Vec::new(), 0, self)
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // At rate >= 1 every key is taken and compression is
        // deterministic, so the summary is seed-independent.
        (self.rate >= 1.0)
            .then(|| format!("{:?}|{}|{}", self.order, self.cap, self.resolution).into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table, Value};
    use std::sync::Arc;

    fn view(n: i64) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..n).map(Some))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    fn sketch(rate: f64, cap: usize, resolution: usize) -> QuantileSketch {
        QuantileSketch::new(SortOrder::ascending(&["X"]), rate, cap, resolution)
    }

    fn key_val(k: &RowKey) -> i64 {
        match &k.values()[0] {
            Value::Int(v) => *v,
            _ => panic!("expected int key"),
        }
    }

    #[test]
    fn median_estimate_is_close() {
        let sk = sketch(0.2, 100_000, 100_000);
        let s = sk.summarize(&view(100_000), Scope::ALL, 3).unwrap();
        let med = key_val(&s.quantile(0.5).unwrap());
        assert!((45_000..55_000).contains(&med), "median estimate {med}");
        let p10 = key_val(&s.quantile(0.1).unwrap());
        assert!((5_000..15_000).contains(&p10), "p10 {p10}");
    }

    #[test]
    fn extremes_map_to_ends() {
        let sk = sketch(1.0, 1_000_000, 1_000_000);
        let s = sk.summarize(&view(1000), Scope::ALL, 0).unwrap();
        assert_eq!(key_val(&s.quantile(0.0).unwrap()), 0);
        assert_eq!(key_val(&s.quantile(1.0).unwrap()), 999);
    }

    #[test]
    fn merge_preserves_accuracy() {
        let v = view(50_000);
        let t = v.table().clone();
        let sk = sketch(0.3, 2_000, 2_000);
        use hillview_columnar::MembershipSet;
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows((0..25_000).collect(), 50_000)),
                ),
                Scope::ALL,
                1,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(
                    t,
                    Arc::new(MembershipSet::from_rows((25_000..50_000).collect(), 50_000)),
                ),
                Scope::ALL,
                2,
            )
            .unwrap();
        let mut m = a.clone();
        m.merge(b.clone());
        assert_eq!(m.population, 50_000);
        assert!(m.keys.len() <= 2_000);
        assert_eq!(m.weight(), a.weight() + b.weight(), "weight conserved");
        let med = key_val(&m.quantile(0.5).unwrap());
        assert!((20_000..30_000).contains(&med), "median {med}");
    }

    #[test]
    fn cap_enforced_at_leaf() {
        let sk = sketch(1.0, 50, 50);
        let s = sk.summarize(&view(10_000), Scope::ALL, 0).unwrap();
        assert!(s.keys.len() <= 50);
        assert_eq!(s.weight(), 10_000);
        // Even capped, quantiles remain roughly correct.
        let med = key_val(&s.quantile(0.5).unwrap());
        assert!((4_800..5_200).contains(&med), "median {med}");
    }

    #[test]
    fn duplicate_keys_share_one_weighted_entry() {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..900).map(|i| Some(i % 3)))),
            )
            .build()
            .unwrap();
        let s = sketch(1.0, 1_000, 1_000)
            .summarize(&TableView::full(Arc::new(t)), Scope::ALL, 0)
            .unwrap();
        let entries: Vec<(i64, u64)> = s.keys.iter().map(|(k, w)| (key_val(k), *w)).collect();
        assert_eq!(entries, vec![(0, 300), (1, 300), (2, 300)]);
        assert_eq!(key_val(&s.quantile(0.5).unwrap()), 1);
    }

    #[test]
    fn compress_is_equi_depth_and_idempotent() {
        let s = sketch(1.0, 100_000, 10)
            .summarize(&view(1_000), Scope::ALL, 0)
            .unwrap();
        let c = s.clone().compact();
        let entries: Vec<(i64, u64)> = c.keys.iter().map(|(k, w)| (key_val(k), *w)).collect();
        // Bucket j covers ranks [100j, 100j + 100); its middle row is 100j + 49.
        let want: Vec<(i64, u64)> = (0..10).map(|j| (100 * j + 49, 100)).collect();
        assert_eq!(entries, want);
        assert_eq!(c.population, s.population);
        assert_eq!(c.clone().compact(), c, "idempotent");
        // A heavy key that holds several bucket middles keeps one entry.
        let heavy = QuantileSummary {
            keys: vec![
                (s.keys[0].0.clone(), 1),
                (s.keys[1].0.clone(), 97),
                (s.keys[2].0.clone(), 1),
                (s.keys[3].0.clone(), 1),
            ],
            ..s.clone()
        }
        .compress(3);
        let entries: Vec<(i64, u64)> = heavy.keys.iter().map(|(k, w)| (key_val(k), *w)).collect();
        assert_eq!(entries, vec![(1, 100)]);
    }

    #[test]
    fn empty_has_no_quantile() {
        let sk = sketch(0.5, 10, 10);
        assert!(sk.identity().quantile(0.5).is_none());
    }

    #[test]
    fn wire_roundtrip() {
        let sk = QuantileSketch::new(
            SortOrder::with_directions(&[("X", true), ("X", false)]),
            1.0,
            64,
            16,
        );
        for s in [
            sk.summarize(&view(100), Scope::ALL, 0).unwrap(),
            sk.identity(),
        ] {
            assert_eq!(QuantileSummary::from_bytes(s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn wire_encodes_the_key_schema_once() {
        let s = sketch(1.0, 64, 64)
            .summarize(&view(64), Scope::ALL, 0)
            .unwrap();
        let per_key: usize = s.keys.iter().map(|(k, _)| k.to_bytes().len()).sum();
        // Each stand-alone key repeats count, arity and direction (3 bytes
        // here) where the summary spends 2 on the shared count and the
        // weight.
        assert!(s.to_bytes().len() < per_key, "{} bytes", s.to_bytes().len());
    }

    #[test]
    fn wire_shares_the_leading_columns_of_neighbouring_keys() {
        let t = Table::builder()
            .column(
                "Day",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(
                    (0..400).map(|i| Some(20_160_101 + i / 100)),
                )),
            )
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..400).map(Some))),
            )
            .build()
            .unwrap();
        let s = QuantileSketch::new(SortOrder::ascending(&["Day", "X"]), 1.0, 400, 400)
            .summarize(&TableView::full(Arc::new(t)), Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.keys.len(), 400);
        // Share count, X (two bytes from 8 up), weight; the four-byte day
        // travels four times.
        let bytes = s.to_bytes();
        assert!(bytes.len() < 400 * 4 + 4 * 4 + 16, "{} bytes", bytes.len());
        assert_eq!(QuantileSummary::from_bytes(bytes).unwrap(), s);
    }

    #[test]
    fn decode_refuses_lengths_the_bytes_cannot_hold() {
        use hillview_net::Error as WireError;
        let mut w = WireWriter::new();
        w.put_varint(1 << 20); // keys
        w.put_varint(1); // arity
        w.put_u8(0);
        Value::Int(1).encode(&mut w); // one key...
        w.put_varint(1); // ...and its weight
        assert!(matches!(
            QuantileSummary::from_bytes(w.finish()),
            Err(WireError::Truncated { .. })
        ));
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_varint(1 << 20); // arity
        assert!(matches!(
            QuantileSummary::from_bytes(w.finish()),
            Err(WireError::Truncated { .. })
        ));
    }
}
