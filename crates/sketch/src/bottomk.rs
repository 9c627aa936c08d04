//! Bottom-k sampling over *distinct* values.
//!
//! Paper App. B.1: string charts need equi-width buckets over an
//! alphabetical ordering, *"found using a sketch based on bottom-k sampling
//! [92, 19], which is an efficient mergeable randomized streaming algorithm
//! that computes approximate quantiles over distinct strings."* Keeping the
//! k distinct values with the smallest hashes yields a uniform sample of the
//! distinct-value domain, from which quantile boundaries are read off.

use crate::hashutil::hash_str;
use crate::traits::{merge_runs, Sketch, SketchError, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::scan_values;
use hillview_net::{Error as WireError, Result as WireResult, Wire, WireReader, WireWriter};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bottom-k distinct-string sketch of one string column.
#[derive(Debug, Clone)]
pub struct BottomKSketch {
    /// Column name (must be a string/categorical column).
    pub column: Arc<str>,
    /// Number of smallest-hash distinct values to keep.
    pub k: usize,
    /// Hash seed; must be identical across partitions.
    pub seed: u64,
}

impl BottomKSketch {
    /// Keep the `k` distinct values with smallest hashes.
    pub fn new(column: &str, k: usize) -> Self {
        BottomKSketch {
            column: Arc::from(column),
            k: k.max(1),
            seed: 0x0B0_770,
        }
    }
}

/// The k smallest (hash, value) pairs over distinct values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BottomKSummary {
    /// Capacity.
    pub k: usize,
    /// The sketch's hash seed: each entry's hash is `hash_str(value, seed)`.
    pub seed: u64,
    /// Ascending by hash; values are distinct. When two distinct values
    /// share a hash, the entry holds the smaller string (byte order), in
    /// `summarize` and `merge` alike, so the summary is a function of the
    /// values seen and not of the order they were met in.
    pub entries: Vec<(u64, String)>,
    /// Total distinct-or-not present rows observed (for diagnostics).
    pub rows: u64,
}

impl BottomKSummary {
    fn zero(k: usize, seed: u64) -> Self {
        BottomKSummary {
            k,
            seed,
            entries: Vec::new(),
            rows: 0,
        }
    }

    /// Equi-width bucket boundaries over the sampled distinct values: up to
    /// `buckets` lower bounds in alphabetical order (App. B.1: quantiles at
    /// 1/50, 2/50, ... of the distinct strings).
    pub fn bucket_boundaries(&self, buckets: usize) -> Vec<Arc<str>> {
        let mut values: Vec<&String> = self.entries.iter().map(|(_, v)| v).collect();
        values.sort();
        if values.is_empty() || buckets == 0 {
            return Vec::new();
        }
        if values.len() <= buckets {
            return values.into_iter().map(|s| Arc::from(s.as_str())).collect();
        }
        let mut out = Vec::with_capacity(buckets);
        for i in 0..buckets {
            let idx = i * values.len() / buckets;
            out.push(Arc::from(values[idx].as_str()));
        }
        out.dedup();
        out
    }
}

impl Summary for BottomKSummary {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.seed, other.seed);
        self.k = self.k.max(other.k);
        let mine = std::mem::take(&mut self.entries);
        self.entries = merge_runs(mine, other.entries, |(hash, _)| hash, keep_smaller);
        self.entries.truncate(self.k);
        self.rows += other.rows;
    }
}

/// The hash-collision rule of [`BottomKSummary::entries`]: of two values
/// under one hash, keep the smaller string.
fn keep_smaller(mine: &mut (u64, String), theirs: (u64, String)) {
    if theirs.1 < mine.1 {
        *mine = theirs;
    }
}

/// Offer `(hash, value)` to a hash-keyed entry map under the collision rule
/// of [`BottomKSummary::entries`].
fn offer(map: &mut BTreeMap<u64, String>, hash: u64, value: &str) {
    match map.entry(hash) {
        std::collections::btree_map::Entry::Vacant(slot) => {
            slot.insert(value.to_string());
        }
        std::collections::btree_map::Entry::Occupied(mut kept) => {
            if value < kept.get().as_str() {
                kept.insert(value.to_string());
            }
        }
    }
}

/// Layout: `k`, `seed`, the entry count, each entry's string in hash order,
/// `rows`. A hash is not shipped: the decoder recomputes it from the string
/// and the seed, and refuses a list whose hashes do not ascend strictly,
/// which `merge` relies on.
impl Wire for BottomKSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.k as u64);
        w.put_varint(self.seed);
        w.put_varint(self.entries.len() as u64);
        for (hash, value) in &self.entries {
            debug_assert_eq!(*hash, hash_str(value, self.seed));
            w.put_str(value);
        }
        w.put_varint(self.rows);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let k = r.get_len("bottomk k")?;
        let seed = r.get_varint()?;
        let n = r.get_count("bottom-k entries")?;
        let mut entries: Vec<(u64, String)> = Vec::with_capacity(n);
        for _ in 0..n {
            let entry = r.get_str_with(|s| (hash_str(s, seed), s.to_owned()))?;
            if entries.last().is_some_and(|(prev, _)| *prev >= entry.0) {
                let context = "bottom-k hashes are not strictly ascending";
                return Err(WireError::NotCanonical { context });
            }
            entries.push(entry);
        }
        Ok(BottomKSummary {
            k,
            seed,
            entries,
            rows: r.get_varint()?,
        })
    }
}

impl Sketch for BottomKSketch {
    type Summary = BottomKSummary;

    fn name(&self) -> &'static str {
        "bottom-k"
    }

    /// The k-smallest-hash entry set is a lattice (deterministic union +
    /// truncation), so split partials fold back to exactly the unsplit
    /// summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<BottomKSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let dict = col.as_dict_col().ok_or_else(|| {
            SketchError::BadConfig(format!(
                "bottom-k requires a string column, {} is {}",
                self.column,
                col.kind()
            ))
        })?;
        // Chunked scan over the raw code slice: mark which codes occur, with
        // one null-word probe per 64 rows instead of per-row `is_null`.
        let mut seen = vec![false; dict.dictionary().len()];
        let mut missing = 0u64;
        let ((), selected) = view.scan(scope, None, |sel| {
            scan_values(
                sel,
                dict.codes(),
                dict.nulls().bitmap(),
                &mut missing,
                |code| seen[code as usize] = true,
            )
        })?;
        // Hash each distinct dictionary entry once — O(dict), not O(rows).
        let mut map: BTreeMap<u64, String> = BTreeMap::new();
        dict.dictionary().for_each(|code, value| {
            if seen[code as usize] {
                offer(&mut map, hash_str(value, self.seed), value);
            }
        });
        let entries: Vec<(u64, String)> = map.into_iter().take(self.k).collect();
        Ok(BottomKSummary {
            k: self.k,
            seed: self.seed,
            entries,
            rows: selected - missing,
        })
    }

    fn identity(&self) -> BottomKSummary {
        BottomKSummary::zero(self.k, self.seed)
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // The hash seed is a sketch *parameter* (identical across
        // partitions), not per-run state, so it joins the identity bytes.
        Some(format!("{}|{}|{}", self.column, self.k, self.seed).into_bytes())
    }
}

impl BottomKSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, _seed: u64) -> SketchResult<BottomKSummary> {
        let col = view.table().column_by_name(&self.column)?;
        let dict = col.as_dict_col().ok_or_else(|| {
            SketchError::BadConfig(format!(
                "bottom-k requires a string column, {} is {}",
                self.column,
                col.kind()
            ))
        })?;
        let mut seen = vec![false; dict.dictionary().len()];
        let mut rows = 0u64;
        for row in view.iter_rows() {
            if !dict.nulls().is_null(row) {
                rows += 1;
                seen[dict.code(row) as usize] = true;
            }
        }
        let mut map: BTreeMap<u64, String> = BTreeMap::new();
        let mut buf = String::new();
        for (code, _) in seen.iter().enumerate().filter(|&(_, &s)| s) {
            let value = dict.dictionary().read(code as u32, &mut buf);
            offer(&mut map, hash_str(value, self.seed), value);
        }
        let entries: Vec<(u64, String)> = map.into_iter().take(self.k).collect();
        Ok(BottomKSummary {
            k: self.k,
            seed: self.seed,
            entries,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merge_law_holds;
    use hillview_columnar::column::{Column, DictColumn};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn view(vals: Vec<String>) -> TableView {
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
    fn small_domains_kept_exactly() {
        let v = view((0..100).map(|i| format!("v{}", i % 7)).collect());
        let s = BottomKSketch::new("S", 50)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.entries.len(), 7);
        let b = s.bucket_boundaries(50);
        assert_eq!(b.len(), 7, "one bucket per value for small domains");
        assert!(b.windows(2).all(|w| w[0] < w[1]), "alphabetical");
    }

    #[test]
    fn merge_law_is_exact() {
        // Bottom-k merge is deterministic set union + truncation.
        let v = view((0..200).map(|i| format!("key{i:03}")).collect());
        let t = v.table().clone();
        let parts = vec![
            TableView::with_members(
                t.clone(),
                Arc::new(MembershipSet::from_rows((0..100).collect(), 200)),
            ),
            TableView::with_members(
                t,
                Arc::new(MembershipSet::from_rows((100..200).collect(), 200)),
            ),
        ];
        let mut sk = BottomKSketch::new("S", 32);
        sk.seed = 5;
        // rows differ between whole and merged? No: rows counts present rows.
        assert!(merge_law_holds(&sk, &v, &parts, 0));
    }

    #[test]
    fn boundaries_approximate_string_quantiles() {
        // 1000 distinct keys; 10 boundaries should split them ~evenly.
        let v = view((0..1000).map(|i| format!("key{i:04}")).collect());
        let s = BottomKSketch::new("S", 256)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let b = s.bucket_boundaries(10);
        assert_eq!(b.len(), 10);
        // First boundary is near the beginning of the domain.
        assert!(b[0].as_ref() < "key0200", "{}", b[0]);
        // Boundaries are increasing and spread.
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        let mid: &str = &b[5];
        assert!(("key0300".."key0700").contains(&mid), "median-ish: {mid}");
    }

    #[test]
    fn a_hash_collision_keeps_the_smaller_string() {
        // Two values under one hash: whichever side of a merge, and
        // whichever order a leaf met them in, the smaller string stays.
        let one = |v: &str| BottomKSummary {
            k: 4,
            seed: 0,
            entries: vec![(9, v.to_string())],
            rows: 1,
        };
        for (left, right) in [("N2", "N10"), ("N10", "N2")] {
            let mut merged = one(left);
            merged.merge(one(right));
            assert_eq!(merged.entries, [(9, "N10".to_string())]);
        }
        let mut map = BTreeMap::new();
        for v in ["b", "a", "c"] {
            offer(&mut map, 3, v);
        }
        assert_eq!(map[&3], "a");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let many_dups = view((0..1000).map(|i| format!("v{}", i % 3)).collect());
        let s = BottomKSketch::new("S", 10)
            .summarize(&many_dups, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.entries.len(), 3);
        assert_eq!(s.rows, 1000);
    }

    #[test]
    fn numeric_column_rejected() {
        use hillview_columnar::column::I64Column;
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(1)])),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        assert!(BottomKSketch::new("X", 4)
            .summarize(&v, Scope::ALL, 0)
            .is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let v = view((0..50).map(|i| format!("s{i}")).collect());
        let s = BottomKSketch::new("S", 16)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(BottomKSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
