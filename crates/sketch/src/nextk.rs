//! The "next K items" summary that renders the tabular view.
//!
//! Paper §4.3: *"This vizketch is used to render a tabular view of the
//! spreadsheet given the current row shown at the top R (or R = ⊥ ...). We
//! are also given a column sort order, and the number K of rows to show.
//! This vizketch returns the contents of the K distinct rows that follow R
//! in the sort order. The summarize function scans the dataset and keeps a
//! priority heap with the K next values following row R ... The merge
//! function combines the two priority heaps by selecting the smallest K
//! elements and dropping the rest."*
//!
//! Duplicate rows (equal sort keys) are aggregated with repetition counts
//! (§3.3 "Aggregate duplicates and show repetition counts").

use crate::traits::{merge_runs, Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::scan_rows;
use hillview_columnar::{Row, RowBound, RowKey, SortOrder, Value};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Next-K-rows sketch.
#[derive(Debug, Clone)]
pub struct NextKSketch {
    /// Active sort order; its columns are also the deduplication key.
    pub order: SortOrder,
    /// Extra columns to materialize for display (beyond the sort columns).
    pub display: Vec<Arc<str>>,
    /// Exclusive start key (`None` starts at the beginning).
    pub start: Option<RowKey>,
    /// Number of distinct rows to return.
    pub k: usize,
}

impl NextKSketch {
    /// First `k` rows of the dataset in `order`.
    pub fn first_page(order: SortOrder, k: usize) -> Self {
        NextKSketch {
            order,
            display: Vec::new(),
            start: None,
            k: k.max(1),
        }
    }

    /// The `k` rows strictly after `start`.
    pub fn after(order: SortOrder, start: RowKey, k: usize) -> Self {
        NextKSketch {
            order,
            display: Vec::new(),
            start: Some(start),
            k: k.max(1),
        }
    }

    /// Also materialize these columns for display.
    pub fn with_display(mut self, cols: &[&str]) -> Self {
        self.display = cols.iter().map(|c| Arc::from(*c)).collect();
        self
    }
}

/// Up to K (key, display row, repetition count) entries, ascending by key.
#[derive(Debug, Clone, PartialEq)]
pub struct NextKSummary {
    /// Capacity.
    pub k: usize,
    /// Ascending by sort key; counts aggregate duplicate keys. A row holds
    /// the display columns' values only: the sort columns' are its key's.
    pub rows: Vec<(RowKey, Row, u64)>,
    /// Rows matching (i.e. after `start`) in the scanned data, including
    /// those beyond the first K — drives the scroll-position indicator.
    pub matched: u64,
}

impl NextKSummary {
    fn zero(k: usize) -> Self {
        NextKSummary {
            k,
            rows: Vec::new(),
            matched: 0,
        }
    }
}

impl Summary for NextKSummary {
    fn merge(&mut self, other: Self) {
        self.k = self.k.max(other.k);
        self.rows = merge_runs(
            std::mem::take(&mut self.rows),
            other.rows,
            |(key, _, _)| key,
            |(_, _, count), (_, _, more)| *count += more,
        );
        self.rows.truncate(self.k);
        self.matched += other.matched;
    }
}

/// Layout: `k`, a key list (the page ascends strictly by key) — unless it is
/// empty, the display width once after its header — each key followed by
/// its display values and its count; then `matched`.
impl Wire for NextKSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.k as u64);
        w.put_key_header(self.rows.len(), self.rows.first().map(|(key, _, _)| key));
        let width = self.rows.first().map(|(_, row, _)| row.values.len());
        if let Some(width) = width {
            w.put_varint(width as u64);
        }
        let mut prev = None;
        for (key, row, count) in &self.rows {
            debug_assert_eq!(Some(row.values.len()), width);
            w.put_key(prev, key);
            row.values.iter().for_each(|v| v.encode(w));
            w.put_varint(*count);
            prev = Some(key);
        }
        w.put_varint(self.matched);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let k = r.get_len("nextk k")?;
        let (n, descending) = r.get_key_header()?;
        let width = match n {
            0 => 0,
            _ => r.get_count("nextk display width")?,
        };
        let mut rows: Vec<(RowKey, Row, u64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.get_key(&descending, rows.last().map(|(key, _, _)| key))?;
            let values = (0..width).map(|_| Value::decode(r));
            let row = Row::new(values.collect::<WireResult<_>>()?);
            let count = r.get_varint()?;
            rows.push((key, row, count));
        }
        Ok(NextKSummary {
            k,
            rows,
            matched: r.get_varint()?,
        })
    }
}

impl Sketch for NextKSketch {
    type Summary = NextKSummary;

    fn name(&self) -> &'static str {
        "next-items"
    }

    /// The k-smallest-keys map is a lattice with exact duplicate-count
    /// addition, so split partials fold back to exactly the unsplit summary.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<NextKSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let display_idx: Vec<usize> = self
            .display
            .iter()
            .map(|c| table.schema().index_of(c))
            .collect::<Result<_, _>>()?;

        // Bounded "heap": at most k entries kept ascending by key; a row
        // past the k-th is dropped, exactly the paper's priority-heap
        // behaviour but with duplicate aggregation. A row is placed by
        // comparing it in its columns, so the rows a page does not keep —
        // nearly all of them — never build a key. The two keys every row
        // meets, `start` and the page's last entry, are bound to this part
        // once each (`bind`; the last again only when it changes), so a
        // string sort column compares codes against a rank there and never
        // reads a string. Row enumeration is chunked so the per-row
        // membership probe disappears on dense views.
        let start = self.start.as_ref().map(|key| resolved.bind(table, key));
        let mut rows: Vec<(RowKey, Row, u64)> = Vec::new();
        let mut last: Option<RowBound> = None;
        let mut matched = 0u64;
        view.scan(scope, None, |sel| {
            scan_rows(sel, |row| {
                if let Some(start) = &start {
                    if resolved.cmp_bound(table, row, start).is_le() {
                        return;
                    }
                }
                matched += 1;
                // A full page turns most rows away at its last entry.
                if rows.len() == self.k {
                    let Some((key, _, count)) = rows.last_mut() else {
                        return; // k = 0 keeps nothing
                    };
                    let bound = last.get_or_insert_with(|| resolved.bind(table, key));
                    match resolved.cmp_bound(table, row, bound) {
                        Ordering::Greater => return,
                        Ordering::Equal => return *count += 1,
                        Ordering::Less => {}
                    }
                }
                let place = rows
                    .binary_search_by(|(key, _, _)| resolved.cmp_row(table, row, key).reverse());
                match place {
                    Ok(at) => rows[at].2 += 1,
                    Err(at) => {
                        let key = resolved.key(table, row);
                        let values = display_idx.iter().map(|&c| table.column(c).value(row));
                        rows.insert(at, (key, Row::new(values.collect()), 1));
                        rows.truncate(self.k);
                        last = None;
                    }
                }
            })
        })?;
        Ok(NextKSummary {
            k: self.k,
            rows,
            matched,
        })
    }

    fn identity(&self) -> NextKSummary {
        NextKSummary::zero(self.k)
    }
}

impl NextKSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, _seed: u64) -> SketchResult<NextKSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let display_idx: Vec<usize> = self
            .display
            .iter()
            .map(|c| table.schema().index_of(c))
            .collect::<Result<_, _>>()?;
        let mut map: BTreeMap<RowKey, (Row, u64)> = BTreeMap::new();
        let mut matched = 0u64;
        for row in view.iter_rows() {
            let key = resolved.key(table, row);
            if let Some(start) = &self.start {
                if key <= *start {
                    continue;
                }
            }
            matched += 1;
            if map.len() == self.k {
                let largest = map.keys().next_back().expect("non-empty");
                if key > *largest {
                    continue;
                }
            }
            match map.get_mut(&key) {
                Some((_, c)) => *c += 1,
                None => {
                    let values = display_idx.iter().map(|&c| table.column(c).value(row));
                    map.insert(key, (Row::new(values.collect()), 1));
                    if map.len() > self.k {
                        let largest = map.keys().next_back().expect("over capacity").clone();
                        map.remove(&largest);
                    }
                }
            }
        }
        Ok(NextKSummary {
            k: self.k,
            rows: map
                .into_iter()
                .map(|(key, (row, count))| (key, row, count))
                .collect(),
            matched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merged;
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table, Value};

    fn view() -> TableView {
        let carriers = ["UA", "AA", "DL", "AA", "UA", "AA"];
        let delays = [10i64, 5, 7, 5, 2, 30];
        let t = Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(carriers.iter().map(|&c| Some(c)))),
            )
            .column(
                "Delay",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(delays.iter().map(|&d| Some(d)))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn first_page_sorted_with_dup_counts() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Carrier", "Delay"]), 3);
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.rows.len(), 3);
        // (AA,5) ×2, (AA,30), (DL,7)
        assert_eq!(s.rows[0].0.values(), &[Value::str("AA"), Value::Int(5)]);
        assert_eq!(s.rows[0].2, 2, "duplicates aggregated");
        assert_eq!(s.rows[1].0.values(), &[Value::str("AA"), Value::Int(30)]);
        assert_eq!(s.rows[2].0.values(), &[Value::str("DL"), Value::Int(7)]);
        assert_eq!(s.matched, 6);
    }

    #[test]
    fn paging_continues_after_start_key() {
        let order = SortOrder::ascending(&["Carrier", "Delay"]);
        let first = NextKSketch::first_page(order.clone(), 2)
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        let last_key = first.rows.last().unwrap().0.clone();
        let next = NextKSketch::after(order, last_key, 2)
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        assert_eq!(next.rows[0].0.values(), &[Value::str("DL"), Value::Int(7)]);
        assert_eq!(next.rows[1].0.values(), &[Value::str("UA"), Value::Int(2)]);
    }

    #[test]
    fn merge_selects_globally_smallest() {
        let v = view();
        let t = v.table().clone();
        let order = SortOrder::ascending(&["Carrier", "Delay"]);
        let sk = NextKSketch::first_page(order, 3);
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows(vec![0, 1, 2], 6)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(t, Arc::new(MembershipSet::from_rows(vec![3, 4, 5], 6))),
                Scope::ALL,
                0,
            )
            .unwrap();
        let merged = merged(a, b);
        let whole = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(merged, whole, "merge law holds exactly");
    }

    #[test]
    fn descending_sort() {
        let order = SortOrder::with_directions(&[("Delay", true)]);
        let s = NextKSketch::first_page(order, 2)
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.rows[0].0.values(), &[Value::Int(30)]);
        assert_eq!(s.rows[1].0.values(), &[Value::Int(10)]);
    }

    #[test]
    fn display_columns_materialized() {
        let order = SortOrder::ascending(&["Delay"]);
        let sk = NextKSketch::first_page(order, 1).with_display(&["Carrier"]);
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        // The key holds the sort column, the row the display column.
        assert_eq!(s.rows[0].0.values(), &[Value::Int(2)]);
        assert_eq!(s.rows[0].1.values, vec![Value::str("UA")]);
    }

    #[test]
    fn k_bounds_summary_size() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Delay"]), 2);
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.matched, 6, "matched counts everything scanned");
    }

    #[test]
    fn identity_is_unit() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Delay"]), 3);
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(merged(sk.identity(), s.clone()), s);
        assert_eq!(merged(s.clone(), sk.identity()), s);
    }

    #[test]
    fn wire_roundtrip() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Carrier", "Delay"]), 4)
            .with_display(&["Delay"]);
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(NextKSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
