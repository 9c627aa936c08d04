//! Distinct counting: HyperLogLog, or the exact set where the domain is
//! small.
//!
//! Paper App. B.3: *"Number of distinct elements. This information is
//! computed approximatively using the HyperLogLog sketch."* Registers merge
//! by pointwise max, making HLL a textbook mergeable summary.
//!
//! The paper estimates because a column's domain is unknown. Where it is
//! known — an integer column whose every value lies in `[lo, hi]` — and
//! spans no more than three values a register (`3 · 2^p`, 12 288 at `p =
//! 12`), the set of present values is exact, its raw bits no longer than
//! the filled registers ship, and cheaper to build: a bit set per row
//! instead of a hash. [`DistinctSketch::with_domain`] asks for that form; the summary is
//! then bit `v − lo` per present value `v`, sets merge by OR, and
//! [`DistinctSummary::estimate`] is their popcount. The spreadsheet takes
//! the domain from a loaded dataset's part statistics, the exact extremes
//! of each numeric column; a filtered or derived sheet, a wide or a
//! non-integer column keeps the HLL, byte for byte. The domain is part of
//! the sketch's cache identity, so the two forms never meet in a cache or
//! a fold, and a value outside it is an error, never a panic.

use crate::hashutil::hash_value;
use crate::traits::{Sketch, SketchError, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::{scan_rows, scan_values};
use hillview_columnar::Value;
use hillview_net::{Error as WireError, Result as WireResult, Wire, WireReader, WireWriter};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Register-count exponents a sketch may be built with.
const PRECISIONS: RangeInclusive<u8> = 4..=16;

/// The bit of the first wire byte that marks the exact form.
const EXACT: u8 = 0x80;

/// The most values an exact domain may span at precision `p`: three bits a
/// register. The HLL ships its registers patched, about three bits each
/// once they fill (1 630 bytes at `p = 12`), so the set's raw bits, its
/// longest spelling, stay no longer than that.
fn max_domain(p: u8) -> u64 {
    3 << p
}

/// HLL sketch of one column's distinct value count, or the exact set of its
/// values where [`DistinctSketch::with_domain`] bounds them.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    /// Column name.
    pub column: Arc<str>,
    /// Register-count exponent: `2^p` registers. 12 ⇒ 4096 registers ⇒
    /// ~1.6% standard error. Range 4..=16.
    pub p: u8,
    /// Hash seed (logged for deterministic replay).
    pub seed: u64,
    /// The integer domain `(lo, values)` the column's values lie in, when
    /// known: the summary is then their exact set.
    domain: Option<(i64, usize)>,
}

impl DistinctSketch {
    /// Default-precision (p=12) sketch of the named column.
    pub fn new(column: &str) -> Self {
        DistinctSketch {
            column: Arc::from(column),
            p: 12,
            seed: 0,
            domain: None,
        }
    }

    /// Override precision. The domain is bounded by the precision, so set
    /// it after: a sketch that already has one is refused.
    pub fn with_precision(mut self, p: u8) -> Self {
        assert!(PRECISIONS.contains(&p), "p out of range");
        assert!(self.domain.is_none(), "precision set after the domain");
        self.p = p;
        self
    }

    /// The exact form over an integer column whose values all lie in `[lo,
    /// hi]`; `None` when that domain is empty or spans more than `3 · 2^p`
    /// values.
    pub fn with_domain(mut self, lo: i64, hi: i64) -> Option<Self> {
        let values = u64::try_from(i128::from(hi) - i128::from(lo) + 1).ok()?;
        if values == 0 || values > max_domain(self.p) {
            return None;
        }
        self.domain = Some((lo, values as usize));
        Some(self)
    }

    /// The domain `[lo, hi]` of the exact form, if this sketch has one.
    pub fn domain(&self) -> Option<(i64, i64)> {
        self.domain
            .map(|(lo, values)| (lo, lo + (values as i64 - 1)))
    }

    /// The empty summary of this sketch's form.
    fn zero(&self) -> DistinctSummary {
        let counter = match self.domain {
            Some((lo, len)) => Counter::Exact(ValueSet {
                lo,
                len,
                words: vec![0; len.div_ceil(64)],
            }),
            None => Counter::Registers(vec![0; 1 << self.p]),
        };
        DistinctSummary {
            p: self.p,
            counter,
            missing: 0,
        }
    }

    /// The error for a value the domain does not hold.
    fn outside(&self, v: i64) -> SketchError {
        let (lo, hi) = self.domain().unwrap_or((0, -1));
        SketchError::BadConfig(format!(
            "{}: value {v} outside the distinct domain [{lo}, {hi}]",
            self.column
        ))
    }
}

/// A distinct-count summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSummary {
    /// Register-count exponent.
    pub p: u8,
    /// The registers or the exact set.
    pub counter: Counter,
    /// Missing rows seen (not counted as a distinct value).
    pub missing: u64,
}

/// What a [`DistinctSummary`] counts with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Counter {
    /// `2^p` max-rank HLL registers.
    Registers(Vec<u8>),
    /// The exact set of present values of a domain.
    Exact(ValueSet),
}

/// The present values of the domain `[lo, lo + len)`: value `v` is bit
/// `v − lo`, bit `j` being bit `j mod 64` of `words[j / 64]`; the bits past
/// `len` are clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueSet {
    /// The domain's least value.
    pub lo: i64,
    /// The values the domain spans.
    pub len: usize,
    /// `⌈len / 64⌉` words of bits.
    pub words: Vec<u64>,
}

impl ValueSet {
    /// Add `v`; false, leaving the set as it was, if the domain does not
    /// hold it.
    #[inline]
    fn insert(&mut self, v: i64) -> bool {
        // Below `lo` the difference wraps past every index.
        let bit = v.wrapping_sub(self.lo) as u64;
        if bit >= self.len as u64 {
            return false;
        }
        self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        true
    }
}

impl DistinctSummary {
    /// The distinct count: the exact set's size, or the HLL cardinality
    /// estimate with small-range correction.
    pub fn estimate(&self) -> f64 {
        let registers = match &self.counter {
            Counter::Registers(registers) => registers,
            Counter::Exact(set) => {
                return set.words.iter().map(|w| w.count_ones() as f64).sum();
            }
        };
        let m = registers.len() as f64;
        let alpha = match registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: linear counting on empty registers.
            let zeros = registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }
}

/// One HLL observation: the register the hash's top `p` bits name keeps
/// the rank of the rest, if higher.
#[inline]
fn observe(registers: &mut [u8], p: u8, hash: u64) {
    let p = p as u32;
    let idx = (hash >> (64 - p)) as usize;
    let rest = hash << p;
    // Rank = leading zeros of the remaining bits + 1, capped.
    let rank = (rest.leading_zeros() + 1).min(64 - p) as u8;
    if rank > registers[idx] {
        registers[idx] = rank;
    }
}

impl Summary for DistinctSummary {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.p, other.p);
        match (&mut self.counter, other.counter) {
            (Counter::Registers(mine), Counter::Registers(theirs)) => {
                let registers = mine.iter_mut().zip(theirs);
                registers.for_each(|(a, b)| *a = (*a).max(b));
            }
            (Counter::Exact(mine), Counter::Exact(theirs)) => {
                debug_assert_eq!((mine.lo, mine.len), (theirs.lo, theirs.len));
                let words = mine.words.iter_mut().zip(theirs.words);
                words.for_each(|(a, b)| *a |= b);
            }
            // One sketch's summaries share its form: its cache identity
            // names the domain.
            (_, _) => debug_assert!(false, "distinct summaries of two forms"),
        }
        self.missing += other.missing;
    }
}

/// Layout: `p` (one byte), the `2^p` registers patched (their floor, the
/// narrow slots above it and the ranks too high for a slot; see
/// [`WireWriter::put_packed`]), `missing`. A register past `64 − p` is
/// refused. The exact form sets the byte's top bit over `p`, then ships
/// `lo` (zigzag), the domain's length and the set
/// ([`WireWriter::put_bits`]: raw bits or runs, whichever is shorter), then
/// `missing`; a length of zero, past `3 · 2^p`, or reaching past `i64` is
/// refused.
impl Wire for DistinctSummary {
    fn encode(&self, w: &mut WireWriter) {
        match &self.counter {
            Counter::Registers(registers) => {
                w.put_u8(self.p);
                w.put_packed(registers.iter().map(|&rank| u64::from(rank)));
            }
            Counter::Exact(set) => {
                w.put_u8(EXACT | self.p);
                w.put_i64(set.lo);
                w.put_varint(set.len as u64);
                w.put_bits(&set.words, set.len);
            }
        }
        w.put_varint(self.missing);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        // Checked before it sizes anything: `p` is a byte off the wire.
        let tag = r.get_u8()?;
        let p = tag & !EXACT;
        if !PRECISIONS.contains(&p) {
            return Err(WireError::BadTag {
                context: "HLL precision",
                tag,
            });
        }
        let counter = match tag & EXACT {
            0 => Counter::Registers(get_registers(r, p)?),
            _ => Counter::Exact(get_set(r, p)?),
        };
        Ok(DistinctSummary {
            p,
            counter,
            missing: r.get_varint()?,
        })
    }
}

/// Read `2^p` patched registers, refusing a rank past `64 − p`.
fn get_registers(r: &mut WireReader, p: u8) -> WireResult<Vec<u8>> {
    let registers = r.get_packed(1 << p)?;
    if let Some(&rank) = registers.iter().find(|&&rank| rank > u64::from(64 - p)) {
        return Err(WireError::BadTag {
            context: "HLL register above its maximal rank",
            tag: u8::try_from(rank).unwrap_or(u8::MAX),
        });
    }
    Ok(registers.into_iter().map(|rank| rank as u8).collect())
}

/// Read an exact set's domain and bits, refusing a domain that is empty,
/// wider than `3 · 2^p` values, or reaching past `i64::MAX`.
fn get_set(r: &mut WireReader, p: u8) -> WireResult<ValueSet> {
    let lo = r.get_i64()?;
    let len = r.get_varint()?;
    if len == 0 || len > max_domain(p) {
        return Err(WireError::BadLength {
            context: "distinct domain past three bits a register",
            len,
        });
    }
    if lo.checked_add(len as i64 - 1).is_none() {
        return Err(WireError::BadLength {
            context: "distinct domain past i64",
            len,
        });
    }
    let len = len as usize;
    Ok(ValueSet {
        lo,
        len,
        words: r.get_bits(len)?,
    })
}

impl Sketch for DistinctSketch {
    type Summary = DistinctSummary;

    fn name(&self) -> &'static str {
        "distinct-hll"
    }

    /// HLL registers max-merge and sets OR, so split partials fold back to
    /// exactly the unsplit summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _partition_seed: u64,
    ) -> SketchResult<DistinctSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut out = self.zero();
        let DistinctSummary {
            p,
            counter,
            missing,
        } = &mut out;
        // Only the sketch-level seed feeds the hash: every partition must
        // hash values identically or registers would not merge.
        let seed = self.seed;
        match counter {
            Counter::Exact(set) => {
                let ints = self.integers(col)?;
                // The first value the domain does not hold, if any.
                let mut outside = None;
                view.scan(scope, None, |sel| {
                    scan_values(sel, ints.storage(), ints.nulls().bitmap(), missing, |v| {
                        if !set.insert(v) {
                            outside.get_or_insert(v);
                        }
                    });
                })?;
                if let Some(v) = outside {
                    return Err(self.outside(v));
                }
            }
            Counter::Registers(registers) => {
                view.scan(scope, None, |sel| {
                    if let Some(dict) = col.as_dict_col() {
                        // Dictionary columns: hash each *code's* string once per
                        // partition, then observe per row via the chunked code
                        // scan (one null-word probe per 64 rows).
                        let mut hashes = Vec::with_capacity(dict.dictionary().len());
                        dict.dictionary()
                            .for_each(|_, s| hashes.push(crate::hashutil::hash_str(s, seed)));
                        scan_values(sel, dict.codes(), dict.nulls().bitmap(), missing, |code| {
                            observe(registers, *p, hashes[code as usize])
                        });
                    } else {
                        // Generic path: chunked row enumeration (registers are
                        // max-merged, so order is irrelevant, but frames visit
                        // the same rows the per-row reference would).
                        scan_rows(sel, |row| {
                            let v = col.value(row);
                            if v.is_missing() {
                                *missing += 1;
                            } else {
                                observe(registers, *p, hash_value(&v, seed));
                            }
                        });
                    }
                })?;
            }
        }
        Ok(out)
    }

    fn identity(&self) -> DistinctSummary {
        self.zero()
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        let mut identity = format!("{}|{}|{}", self.column, self.p, self.seed);
        if let Some((lo, hi)) = self.domain() {
            identity += &format!("|{lo}..={hi}");
        }
        Some(identity.into_bytes())
    }
}

impl DistinctSketch {
    /// The integer column an exact set is built over.
    fn integers<'a>(
        &self,
        col: &'a hillview_columnar::Column,
    ) -> SketchResult<&'a hillview_columnar::column::I64Column> {
        col.as_i64_col().ok_or_else(|| {
            SketchError::BadConfig(format!(
                "{}: an exact distinct count needs an integer column",
                self.column
            ))
        })
    }

    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(
        &self,
        view: &TableView,
        _partition_seed: u64,
    ) -> SketchResult<DistinctSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let mut out = self.zero();
        let seed = self.seed;
        match &mut out.counter {
            Counter::Exact(set) => {
                self.integers(col)?;
                for row in view.iter_rows() {
                    match col.value(row) {
                        Value::Int(v) | Value::Date(v) if !set.insert(v) => {
                            return Err(self.outside(v));
                        }
                        Value::Int(_) | Value::Date(_) => {}
                        _ => out.missing += 1,
                    }
                }
            }
            Counter::Registers(registers) => {
                if let Some(dict) = col.as_dict_col() {
                    let mut hashes = Vec::with_capacity(dict.dictionary().len());
                    dict.dictionary()
                        .for_each(|_, s| hashes.push(crate::hashutil::hash_str(s, seed)));
                    for row in view.iter_rows() {
                        if dict.nulls().is_null(row) {
                            out.missing += 1;
                        } else {
                            observe(registers, self.p, hashes[dict.code(row) as usize]);
                        }
                    }
                } else {
                    for row in view.iter_rows() {
                        let v = col.value(row);
                        if v.is_missing() {
                            out.missing += 1;
                        } else {
                            observe(registers, self.p, hash_value(&v, seed));
                        }
                    }
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

    /// An `Int` column with a null every seventh row.
    fn nullable_view(vals: impl Iterator<Item = i64>) -> TableView {
        let cells = vals.enumerate().map(|(i, v)| (i % 7 != 3).then_some(v));
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(cells)),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn a_domain_counts_exactly() {
        let v = nullable_view((0..5_000).map(|i| (i * 37) % 1_000 - 500));
        let sketch = DistinctSketch::new("X").with_domain(-500, 499).unwrap();
        let s = sketch.summarize(&v, Scope::ALL, 0).unwrap();
        let mut want = std::collections::BTreeSet::new();
        let mut nulls = 0;
        for i in 0..5_000 {
            match i % 7 {
                3 => nulls += 1,
                _ => drop(want.insert((i * 37) % 1_000 - 500)),
            }
        }
        assert_eq!(s.estimate(), want.len() as f64);
        assert_eq!(s.missing, nulls);
        assert_eq!(s, sketch.summarize_rowwise(&v, 0).unwrap());
        assert_eq!(DistinctSummary::from_bytes(s.to_bytes()).unwrap(), s);
        assert_eq!(sketch.identity().estimate(), 0.0);
    }

    #[test]
    fn a_domain_is_at_most_three_values_a_register() {
        let sketch = || DistinctSketch::new("X");
        assert_eq!(
            sketch().with_domain(1, 5_999).unwrap().domain(),
            Some((1, 5_999))
        );
        assert!(sketch().with_domain(0, 3 * 4_096 - 1).is_some());
        assert!(sketch().with_domain(0, 3 * 4_096).is_none());
        assert!(sketch().with_domain(5, 4).is_none());
        assert!(sketch().with_domain(i64::MIN, i64::MAX).is_none());
        assert!(sketch().with_domain(i64::MAX, i64::MAX).is_some());
        let small = sketch().with_precision(4);
        assert!(small.clone().with_domain(0, 47).is_some());
        assert!(small.with_domain(0, 48).is_none());
    }

    #[test]
    #[should_panic(expected = "precision set after the domain")]
    fn the_precision_comes_before_the_domain() {
        let _ = DistinctSketch::new("X")
            .with_domain(0, 40)
            .unwrap()
            .with_precision(4);
    }

    /// Scattered values over the widest domain at `p = 12`: the set ships
    /// at most its 1 536 raw bytes and a 6-byte header, no more than the HLL
    /// over the same values once it fills (3 500 values or so); below that
    /// the set's runs may outgrow the half-empty registers, by at most a
    /// quarter.
    #[test]
    fn a_scattered_set_is_bounded_by_its_hll() {
        let hll = DistinctSketch::new("X");
        let exact = hll.clone().with_domain(0, 3 * 4_096 - 1).unwrap();
        let mut state = 0x9E37_u64;
        for values in [10, 100, 300, 1_000, 2_000, 4_000, 6_000, 9_000, 12_288] {
            let v = int_view(
                (0..values)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        ((state >> 33) % (3 * 4_096)) as i64
                    })
                    .collect(),
            );
            let bytes =
                |s: &DistinctSketch| s.summarize(&v, Scope::ALL, 0).unwrap().to_bytes().len();
            let (set, registers) = (bytes(&exact), bytes(&hll));
            assert!(set <= 1_536 + 6, "{values}: {set}");
            assert!(4 * set <= 5 * registers, "{values}: {set} > {registers}");
            if values >= 4_000 {
                assert!(set <= registers, "{values}: {set} > {registers}");
            }
        }
    }

    #[test]
    fn the_domain_names_the_cache_entry() {
        let hll = DistinctSketch::new("X");
        let exact = hll.clone().with_domain(0, 99).unwrap();
        let other = hll.clone().with_domain(0, 100).unwrap();
        let ids = [&hll, &exact, &other].map(|s| s.cache_identity().unwrap());
        assert_eq!(ids[0], b"X|12|0");
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    #[test]
    fn a_value_outside_the_domain_is_an_error() {
        let v = int_view(vec![3, 7, 12, 5]);
        for (lo, hi) in [(3, 11), (4, 12), (i64::MIN, i64::MIN + 5)] {
            let sketch = DistinctSketch::new("X").with_domain(lo, hi).unwrap();
            for got in [
                sketch.summarize(&v, Scope::ALL, 0),
                sketch.summarize_rowwise(&v, 0),
            ] {
                let e = got.unwrap_err();
                assert!(matches!(e, SketchError::BadConfig(_)), "{e}");
                assert!(e.to_string().contains("outside the distinct domain"), "{e}");
            }
        }
        let strings = Table::builder()
            .column(
                "S",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([Some("a")])),
            )
            .build()
            .unwrap();
        let strings = TableView::full(Arc::new(strings));
        let sketch = DistinctSketch::new("S").with_domain(0, 9).unwrap();
        assert!(matches!(
            sketch.summarize(&strings, Scope::ALL, 0),
            Err(SketchError::BadConfig(_))
        ));
    }

    #[test]
    fn exact_sets_merge_as_their_union() {
        let v = nullable_view((0..1_000).map(|i| i % 300));
        let t = v.table().clone();
        let half = |rows: std::ops::Range<u32>| {
            TableView::with_members(
                t.clone(),
                Arc::new(MembershipSet::from_rows(rows.collect(), 1_000)),
            )
        };
        let sketch = DistinctSketch::new("X").with_domain(0, 299).unwrap();
        assert!(merge_law_holds(
            &sketch,
            &v,
            &[half(0..500), half(500..1_000)],
            0
        ));
        let parts = [half(0..150), half(150..1_000)].map(|p| sketch.summarize(&p, Scope::ALL, 0));
        let [a, b] = parts.map(Result::unwrap);
        assert_eq!(merged(a, b).estimate(), 300.0);
    }

    #[test]
    fn empty_estimates_zero() {
        let s = DistinctSketch::new("X").identity();
        assert_eq!(s.estimate(), 0.0);
    }
}
