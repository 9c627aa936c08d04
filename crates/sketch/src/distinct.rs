//! HyperLogLog distinct counting.
//!
//! Paper App. B.3: *"Number of distinct elements. This information is
//! computed approximatively using the HyperLogLog sketch."* Registers merge
//! by pointwise max, making HLL a textbook mergeable summary.

use crate::hashutil::hash_value;
use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::{scan_rows, scan_values};
use hillview_net::{Error as WireError, Result as WireResult, Wire, WireReader, WireWriter};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Register-count exponents a sketch may be built with.
const PRECISIONS: RangeInclusive<u8> = 4..=16;

/// HLL sketch of one column's distinct value count.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    /// Column name.
    pub column: Arc<str>,
    /// Register-count exponent: `2^p` registers. 12 ⇒ 4096 registers ⇒
    /// ~1.6% standard error. Range 4..=16.
    pub p: u8,
    /// Hash seed (logged for deterministic replay).
    pub seed: u64,
}

impl DistinctSketch {
    /// Default-precision (p=12) sketch of the named column.
    pub fn new(column: &str) -> Self {
        DistinctSketch {
            column: Arc::from(column),
            p: 12,
            seed: 0,
        }
    }

    /// Override precision.
    pub fn with_precision(mut self, p: u8) -> Self {
        assert!(PRECISIONS.contains(&p), "p out of range");
        self.p = p;
        self
    }
}

/// HLL register array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSummary {
    /// Register-count exponent.
    pub p: u8,
    /// `2^p` max-rank registers.
    pub registers: Vec<u8>,
    /// Missing rows seen (not counted as a distinct value).
    pub missing: u64,
}

impl DistinctSummary {
    fn zero(p: u8) -> Self {
        DistinctSummary {
            p,
            registers: vec![0; 1 << p],
            missing: 0,
        }
    }

    /// The HLL cardinality estimate with small-range correction.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: linear counting on empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    fn observe(&mut self, hash: u64) {
        let p = self.p as u32;
        let idx = (hash >> (64 - p)) as usize;
        let rest = hash << p;
        // Rank = leading zeros of the remaining bits + 1, capped.
        let rank = (rest.leading_zeros() + 1).min(64 - p) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }
}

impl Summary for DistinctSummary {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.p, other.p);
        let registers = self.registers.iter_mut().zip(other.registers);
        registers.for_each(|(a, b)| *a = (*a).max(b));
        self.missing += other.missing;
    }
}

/// Layout: `p` (one byte), the `2^p` registers patched (their floor, the
/// narrow slots above it and the ranks too high for a slot; see
/// [`WireWriter::put_packed`]), `missing`. A register past `64 − p` is
/// refused.
impl Wire for DistinctSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.p);
        w.put_packed(self.registers.iter().map(|&rank| u64::from(rank)));
        w.put_varint(self.missing);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        // Checked before it sizes anything: `p` is a byte off the wire.
        let p = r.get_u8()?;
        if !PRECISIONS.contains(&p) {
            return Err(WireError::BadTag {
                context: "HLL precision",
                tag: p,
            });
        }
        let registers = r.get_packed(1 << p)?;
        if let Some(&rank) = registers.iter().find(|&&rank| rank > u64::from(64 - p)) {
            return Err(WireError::BadTag {
                context: "HLL register above its maximal rank",
                tag: u8::try_from(rank).unwrap_or(u8::MAX),
            });
        }
        Ok(DistinctSummary {
            p,
            registers: registers.into_iter().map(|rank| rank as u8).collect(),
            missing: r.get_varint()?,
        })
    }
}

impl Sketch for DistinctSketch {
    type Summary = DistinctSummary;

    fn name(&self) -> &'static str {
        "distinct-hll"
    }

    /// HLL registers max-merge, so split partials fold back to exactly the
    /// unsplit register array.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _partition_seed: u64,
    ) -> SketchResult<DistinctSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut out = DistinctSummary::zero(self.p);
        // Only the sketch-level seed feeds the hash: every partition must
        // hash values identically or registers would not merge.
        let seed = self.seed;
        view.scan(scope, None, |sel| {
            if let Some(dict) = col.as_dict_col() {
                // Dictionary columns: hash each *code's* string once per
                // partition, then observe per row via the chunked code scan
                // (one null-word probe per 64 rows).
                let mut hashes = Vec::with_capacity(dict.dictionary().len());
                dict.dictionary()
                    .for_each(|_, s| hashes.push(crate::hashutil::hash_str(s, seed)));
                let mut missing = 0u64;
                scan_values(
                    sel,
                    dict.codes(),
                    dict.nulls().bitmap(),
                    &mut missing,
                    |code| out.observe(hashes[code as usize]),
                );
                out.missing = missing;
            } else {
                // Generic path: chunked row enumeration (registers are
                // max-merged, so order is irrelevant, but frames visit the same
                // rows the per-row reference would).
                scan_rows(sel, |row| {
                    let v = col.value(row);
                    if v.is_missing() {
                        out.missing += 1;
                    } else {
                        out.observe(hash_value(&v, seed));
                    }
                });
            }
        })?;
        Ok(out)
    }

    fn identity(&self) -> DistinctSummary {
        DistinctSummary::zero(self.p)
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        Some(format!("{}|{}|{}", self.column, self.p, self.seed).into_bytes())
    }
}

impl DistinctSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(
        &self,
        view: &TableView,
        _partition_seed: u64,
    ) -> SketchResult<DistinctSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut out = DistinctSummary::zero(self.p);
        let seed = self.seed;
        if let Some(dict) = col.as_dict_col() {
            let mut hashes = Vec::with_capacity(dict.dictionary().len());
            dict.dictionary()
                .for_each(|_, s| hashes.push(crate::hashutil::hash_str(s, seed)));
            for row in view.iter_rows() {
                if dict.nulls().is_null(row) {
                    out.missing += 1;
                } else {
                    out.observe(hashes[dict.code(row) as usize]);
                }
            }
        } else {
            for row in view.iter_rows() {
                let v = col.value(row);
                if v.is_missing() {
                    out.missing += 1;
                } else {
                    out.observe(hash_value(&v, seed));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{merge_law_holds, merged};
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn int_view(vals: Vec<i64>) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(vals.into_iter().map(Some))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let v = int_view((0..100).map(|i| i % 10).collect());
        let s = DistinctSketch::new("X")
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let est = s.estimate();
        assert!((est - 10.0).abs() < 1.0, "estimate {est}");
    }

    #[test]
    fn large_cardinalities_within_tolerance() {
        let v = int_view((0..50_000).collect());
        let s = DistinctSketch::new("X")
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let est = s.estimate();
        let err = (est - 50_000.0).abs() / 50_000.0;
        assert!(err < 0.05, "estimate {est}, err {err}");
    }

    #[test]
    fn merge_equals_whole_exactly() {
        // HLL registers are max-merged, so the law holds bit-for-bit.
        let v = int_view((0..1000).collect());
        let t = v.table().clone();
        let parts = vec![
            TableView::with_members(
                t.clone(),
                Arc::new(MembershipSet::from_rows((0..500).collect(), 1000)),
            ),
            TableView::with_members(
                t,
                Arc::new(MembershipSet::from_rows((500..1000).collect(), 1000)),
            ),
        ];
        assert!(merge_law_holds(&DistinctSketch::new("X"), &v, &parts, 0));
    }

    #[test]
    fn duplicates_across_partitions_not_double_counted() {
        let v = int_view((0..1000).map(|i| i % 50).collect());
        let t = v.table().clone();
        let a = DistinctSketch::new("X")
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows((0..500).collect(), 1000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = DistinctSketch::new("X")
            .summarize(
                &TableView::with_members(
                    t,
                    Arc::new(MembershipSet::from_rows((500..1000).collect(), 1000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let est = merged(a, b).estimate();
        assert!((est - 50.0).abs() < 5.0, "estimate {est}");
    }

    #[test]
    fn string_column_distincts() {
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings((0..500).map(|i| {
                    if i % 7 == 0 {
                        None
                    } else {
                        Some(["a", "b", "c"][i % 3])
                    }
                }))),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let s = DistinctSketch::new("S")
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert!((s.estimate() - 3.0).abs() < 0.5);
        assert!(s.missing > 0);
    }

    #[test]
    fn precision_trades_size_for_error() {
        let lo = DistinctSketch::new("X").with_precision(6);
        let hi = DistinctSketch::new("X").with_precision(14);
        let v = int_view((0..20_000).collect());
        let slo = lo.summarize(&v, Scope::ALL, 0).unwrap();
        let shi = hi.summarize(&v, Scope::ALL, 0).unwrap();
        assert!(slo.to_bytes().len() < shi.to_bytes().len());
        let err_hi = (shi.estimate() - 20_000.0).abs() / 20_000.0;
        assert!(err_hi < 0.05, "err {err_hi}");
    }

    #[test]
    fn wire_roundtrip() {
        let v = int_view((0..100).collect());
        let s = DistinctSketch::new("X")
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(DistinctSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn empty_estimates_zero() {
        let s = DistinctSketch::new("X").identity();
        assert_eq!(s.estimate(), 0.0);
    }
}
