//! Sampled quantile estimation for the scroll bar.
//!
//! Paper App. C.1: when the user drags the scroll bar to pixel `j` of `V`,
//! the spreadsheet must display rows starting near relative rank `j/V`. A
//! uniform sample of `O(ε⁻² log 1/δ)` rows suffices (Theorem 2); with
//! ε = 1/2V that is `O(V²)` rows — independent of the dataset size.
//!
//! Each leaf Bernoulli-samples rows at the caller-chosen rate and keeps
//! their sort keys; merge concatenates, down-sampling deterministically if a
//! cap is exceeded (both inputs are uniform samples at equal rate, so
//! keeping every j-th element of the concatenation stays uniform).

use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::scan_rows;
use hillview_columnar::{row_sampled, RowKey, SortOrder};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};

/// Sampled quantile sketch over a sort order.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// The active sort order whose keys are sampled.
    pub order: SortOrder,
    /// Row sampling rate.
    pub rate: f64,
    /// Cap on retained keys per summary (≈ the paper's O(V²) budget).
    pub cap: usize,
}

impl QuantileSketch {
    /// Sample sort keys at `rate`, keeping at most `cap` per summary.
    pub fn new(order: SortOrder, rate: f64, cap: usize) -> Self {
        QuantileSketch {
            order,
            rate,
            cap: cap.max(1),
        }
    }

    /// The paper's sample budget for a `v`-pixel scroll bar: `O(V²)`;
    /// we use 4V² which keeps the rank error well under one pixel.
    pub fn sample_budget(scrollbar_pixels: usize) -> usize {
        4 * scrollbar_pixels * scrollbar_pixels
    }
}

/// A uniform sample of sort keys plus the population size it represents.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Sampled keys (unsorted until [`QuantileSummary::quantile`]).
    pub keys: Vec<RowKey>,
    /// Rows in the underlying (filtered) population.
    pub population: u64,
    /// Down-sampling cap.
    pub cap: usize,
}

impl QuantileSummary {
    /// The key at relative rank `q ∈ [0, 1]`, if any rows were sampled.
    pub fn quantile(&self, q: f64) -> Option<RowKey> {
        if self.keys.is_empty() {
            return None;
        }
        let mut sorted = self.keys.clone();
        sorted.sort();
        let idx = ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize;
        Some(sorted[idx].clone())
    }
}

impl Summary for QuantileSummary {
    fn merge(&self, other: &Self) -> Self {
        let cap = self.cap.max(other.cap);
        let mut keys: Vec<RowKey> =
            Vec::with_capacity((self.keys.len() + other.keys.len()).min(2 * cap));
        keys.extend_from_slice(&self.keys);
        keys.extend_from_slice(&other.keys);
        if keys.len() > cap {
            // Deterministic uniform thinning: keep every stride-th element.
            let stride = keys.len().div_ceil(cap);
            keys = keys.into_iter().step_by(stride).collect();
        }
        QuantileSummary {
            keys,
            population: self.population + other.population,
            cap,
        }
    }
}

impl Wire for QuantileSummary {
    fn encode(&self, w: &mut WireWriter) {
        self.keys.encode(w);
        w.put_varint(self.population);
        w.put_varint(self.cap as u64);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(QuantileSummary {
            keys: Vec::<RowKey>::decode(r)?,
            population: r.get_varint()?,
            cap: r.get_len("quantile cap")?,
        })
    }
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
        // Unfiltered sampling pre-draws a partition-wide sample
        // (representation-dependent walk, clipped to the bounds). Under
        // fusion the sample must come from the *filtered* stream, so each
        // surviving row is instead tested with the stateless hash-threshold
        // decision [`row_sampled`] — a pure function of `(row, rate, seed)`,
        // which keeps split tiling exact and the one-pass structure intact
        // (no materialized membership, no second decode).
        let sample = (self.rate < 1.0 && scope.filter.is_none()).then_some((self.rate, seed));
        let hash_sample = self.rate < 1.0 && sample.is_none();
        let mut keys = Vec::new();
        let ((), rows) = view.scan(scope, sample, |sel| {
            scan_rows(sel, |row| {
                if !hash_sample || row_sampled(row as u64, self.rate, seed) {
                    keys.push(resolved.key(view.table(), row));
                }
            })
        })?;
        // The population is the rows the summary speaks for — the scanned
        // rows, or the bounded membership a pre-drawn sample came from.
        let (lo, hi) = scope.rows.unwrap_or((0, usize::MAX));
        let population = match sample {
            Some(_) => view.members().count_range(lo, hi) as u64,
            None => rows,
        };
        if keys.len() > self.cap {
            let stride = keys.len().div_ceil(self.cap);
            keys = keys.into_iter().step_by(stride).collect();
        }
        Ok(QuantileSummary {
            keys,
            population,
            cap: self.cap,
        })
    }

    fn splittable(&self) -> bool {
        true
    }

    fn identity(&self) -> QuantileSummary {
        QuantileSummary {
            keys: Vec::new(),
            population: 0,
            cap: self.cap,
        }
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // At rate >= 1 every key is taken and cap-thinning is
        // deterministic, so the summary is seed-independent.
        (self.rate >= 1.0).then(|| format!("{:?}|{}", self.order, self.cap).into_bytes())
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

    fn key_val(k: &RowKey) -> i64 {
        match &k.values()[0] {
            Value::Int(v) => *v,
            _ => panic!("expected int key"),
        }
    }

    #[test]
    fn median_estimate_is_close() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 0.2, 100_000);
        let s = sk.summarize(&view(100_000), Scope::ALL, 3).unwrap();
        let med = key_val(&s.quantile(0.5).unwrap());
        assert!((45_000..55_000).contains(&med), "median estimate {med}");
        let p10 = key_val(&s.quantile(0.1).unwrap());
        assert!((5_000..15_000).contains(&p10), "p10 {p10}");
    }

    #[test]
    fn extremes_map_to_ends() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 1_000_000);
        let s = sk.summarize(&view(1000), Scope::ALL, 0).unwrap();
        assert_eq!(key_val(&s.quantile(0.0).unwrap()), 0);
        assert_eq!(key_val(&s.quantile(1.0).unwrap()), 999);
    }

    #[test]
    fn merge_preserves_accuracy() {
        let v = view(50_000);
        let t = v.table().clone();
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 0.3, 2_000);
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
        let m = a.merge(&b);
        assert_eq!(m.population, 50_000);
        assert!(m.keys.len() <= 2_000);
        let med = key_val(&m.quantile(0.5).unwrap());
        assert!((20_000..30_000).contains(&med), "median {med}");
    }

    #[test]
    fn cap_enforced_at_leaf() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 50);
        let s = sk.summarize(&view(10_000), Scope::ALL, 0).unwrap();
        assert!(s.keys.len() <= 50);
        // Even capped, quantiles remain roughly correct.
        let med = key_val(&s.quantile(0.5).unwrap());
        assert!((3_000..7_000).contains(&med), "median {med}");
    }

    #[test]
    fn empty_has_no_quantile() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 0.5, 10);
        assert!(sk.identity().quantile(0.5).is_none());
    }

    #[test]
    fn sample_budget_is_quadratic() {
        assert_eq!(QuantileSketch::sample_budget(10), 400);
        assert_eq!(QuantileSketch::sample_budget(100), 40_000);
    }

    #[test]
    fn wire_roundtrip() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 64);
        let s = sk.summarize(&view(100), Scope::ALL, 0).unwrap();
        assert_eq!(QuantileSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
