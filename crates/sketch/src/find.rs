//! Find-text: locate the next matching row in sort order.
//!
//! Paper App. B.2: *"Given a row R, a search criteria (the search text;
//! whether it is exact match, substring, or regexp; and whether it is case
//! sensitive), and a column sort order, we want to find the next row
//! satisfying the criteria in the sort order. This is similar to the next
//! item vizketch above except that we eliminate all rows that do not match
//! the search criteria."*

use crate::range::merge_opt;
use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::scan_rows;
use hillview_columnar::{Predicate, Row, RowBound, RowKey, SortOrder, StrMatchKind, Value};
use hillview_net::values::same_repr;
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Find-text sketch.
#[derive(Debug, Clone)]
pub struct FindSketch {
    /// Column searched.
    pub column: Arc<str>,
    /// Query text or pattern.
    pub query: Arc<str>,
    /// Match mode (exact / substring / regex).
    pub kind: StrMatchKind,
    /// Case-insensitive matching.
    pub case_insensitive: bool,
    /// Sort order defining "next".
    pub order: SortOrder,
    /// Exclusive start key; `None` searches from the beginning.
    pub start: Option<RowKey>,
}

impl FindSketch {
    /// Find the first match of `query` in `column` under `order`.
    pub fn new(column: &str, query: &str, kind: StrMatchKind, order: SortOrder) -> Self {
        FindSketch {
            column: Arc::from(column),
            query: Arc::from(query),
            kind,
            case_insensitive: false,
            order,
            start: None,
        }
    }

    /// Fold case when matching.
    pub fn case_insensitive(mut self) -> Self {
        self.case_insensitive = true;
        self
    }

    /// Continue from (strictly after) `start`.
    pub fn after(mut self, start: RowKey) -> Self {
        self.start = Some(start);
        self
    }
}

/// The first matching row after the start key, plus match counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FindSummary {
    /// Smallest matching (key, row) after the start key, if any.
    pub first: Option<(RowKey, Row)>,
    /// Matches after the start key (including `first`).
    pub matches_after: u64,
    /// Matches anywhere in the scanned data (lets the UI say "wrapped").
    pub matches_total: u64,
}

impl Summary for FindSummary {
    fn merge(&mut self, other: Self) {
        merge_opt(
            &mut self.first,
            other.first,
            |a, b| if a.0 <= b.0 { a } else { b },
        );
        self.matches_after += other.matches_after;
        self.matches_total += other.matches_total;
    }
}

/// Layout: a key list of no key or one; after the key, its row without the
/// cells the key already holds — the row's width, the cell of each key
/// value (`key_cells`), then every other cell in order — and the decoder
/// puts the key's values back in their cells; then `matches_after`,
/// `matches_total`.
impl Wire for FindSummary {
    fn encode(&self, w: &mut WireWriter) {
        let key = self.first.as_ref().map(|(key, _)| key);
        w.put_key_header(usize::from(key.is_some()), key);
        if let Some((key, row)) = &self.first {
            w.put_key(None, key);
            let cells = key_cells(key, row);
            w.put_varint(row.values.len() as u64);
            cells.iter().for_each(|&c| w.put_varint(c as u64));
            for (c, v) in row.values.iter().enumerate() {
                if !cells.contains(&c) {
                    v.encode(w);
                }
            }
        }
        w.put_varint(self.matches_after);
        w.put_varint(self.matches_total);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let first = match r.get_key_header()? {
            (0, _) => None,
            (1, descending) => {
                let key = r.get_key(&descending, None)?;
                let row = get_row(r, &key)?;
                Some((key, row))
            }
            (n, _) => {
                return Err(hillview_net::Error::BadLength {
                    context: "find matches",
                    len: n as u64,
                })
            }
        };
        Ok(FindSummary {
            first,
            matches_after: r.get_varint()?,
            matches_total: r.get_varint()?,
        })
    }
}

/// The cell of `row` each value of `key` is written in: the first whose
/// representation is the value's ([`same_repr`]) — the key column's own
/// cell, or an equal one before it — or the row's width when none is.
fn key_cells(key: &RowKey, row: &Row) -> Vec<usize> {
    let width = row.values.len();
    let cell = |v: &Value| row.values.iter().position(|c| same_repr(c, v));
    key.values()
        .iter()
        .map(|v| cell(v).unwrap_or(width))
        .collect()
}

/// Read the row [`FindSummary`]'s encoder wrote after `key`, refusing every
/// other spelling of it: a cell past the width, and key cells that are not
/// [`key_cells`] of the row they rebuild.
fn get_row(r: &mut WireReader, key: &RowKey) -> WireResult<Row> {
    let arity = key.values().len();
    let width = r.get_len("find row width")?;
    let cells = (0..arity)
        .map(|_| r.get_len("find key cell"))
        .collect::<WireResult<Vec<_>>>()?;
    // Every cell the key does not fill takes a byte of its own at least.
    if width > r.remaining().saturating_add(arity) || cells.iter().any(|&c| c > width) {
        return Err(hillview_net::Error::BadLength {
            context: "find row",
            len: width as u64,
        });
    }
    let mut values: Vec<Option<Value>> = vec![None; width];
    for (&c, v) in cells.iter().zip(key.values()) {
        if let Some(slot) = values.get_mut(c) {
            slot.get_or_insert_with(|| v.clone());
        }
    }
    for slot in values.iter_mut().filter(|slot| slot.is_none()) {
        *slot = Some(Value::decode(r)?);
    }
    let row = Row::new(values.into_iter().flatten().collect());
    if key_cells(key, &row) != cells {
        return Err(hillview_net::Error::NotCanonical {
            context: "find key cells",
        });
    }
    Ok(row)
}

impl Sketch for FindSketch {
    type Summary = FindSummary;

    fn name(&self) -> &'static str {
        "find-text"
    }

    /// Match counts add and the first-match key is a minimum lattice, so
    /// split partials fold back to exactly the unsplit summary.
    ///
    /// The search criteria compile into the block-wise predicate engine: on
    /// dictionary columns the query is matched once per distinct entry into
    /// a code bitmap, and the frame scan probes 64-row match words — rows
    /// that fail the search (or the fused filter) never reach the key
    /// builder. Any extra `filter` is AND-composed into the same compiled
    /// pass.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<FindSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let match_pred = Predicate::str_match(
            &self.column,
            &self.query,
            self.kind.clone(),
            self.case_insensitive,
        );
        let pred = match scope.filter {
            Some(f) => f.clone().and(match_pred),
            None => match_pred,
        };
        let matching = Scope {
            rows: scope.rows,
            filter: Some(&pred),
        };
        let mut out = FindSummary {
            first: None,
            matches_after: 0,
            matches_total: 0,
        };
        // Every surviving row already matches the criteria, so the scan
        // body only maintains the minimum lattice — comparing rows against
        // `start` and the best so far, each bound to this part once (the
        // best again when it changes), and building a key just for a new
        // best.
        let start = self.start.as_ref().map(|key| resolved.bind(table, key));
        let mut best: Option<RowBound> = None;
        view.scan(matching, None, |sel| {
            scan_rows(sel, |row| {
                out.matches_total += 1;
                if let Some(start) = &start {
                    if resolved.cmp_bound(table, row, start).is_le() {
                        return;
                    }
                }
                out.matches_after += 1;
                let better = match &out.first {
                    None => true,
                    Some((key, _)) => {
                        let bound = best.get_or_insert_with(|| resolved.bind(table, key));
                        resolved.cmp_bound(table, row, bound).is_lt()
                    }
                };
                if better {
                    out.first = Some((resolved.key(table, row), table.full_row(row)));
                    best = None;
                }
            })
        })?;
        Ok(out)
    }

    fn identity(&self) -> FindSummary {
        FindSummary {
            first: None,
            matches_after: 0,
            matches_total: 0,
        }
    }
}

impl FindSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, _seed: u64) -> SketchResult<FindSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let mut pred = Predicate::str_match(
            &self.column,
            &self.query,
            self.kind.clone(),
            self.case_insensitive,
        )
        .compile(table)?;
        let mut out = FindSummary {
            first: None,
            matches_after: 0,
            matches_total: 0,
        };
        for row in view.iter_rows() {
            if !pred.eval(table, row) {
                continue;
            }
            out.matches_total += 1;
            let key = resolved.key(table, row);
            if let Some(start) = &self.start {
                if key <= *start {
                    continue;
                }
            }
            out.matches_after += 1;
            let better = match &out.first {
                None => true,
                Some((best, _)) => key < *best,
            };
            if better {
                out.first = Some((key, table.full_row(row)));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merged;
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table, Value};

    fn view() -> TableView {
        let servers = ["frodo", "gandalf-1", "bilbo", "gandalf-2", "GANDALF-3"];
        let ord = [4i64, 1, 3, 2, 0];
        let t = Table::builder()
            .column(
                "Server",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings(servers.iter().map(|&s| Some(s)))),
            )
            .column(
                "Ord",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(ord.iter().map(|&v| Some(v)))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn finds_first_in_sort_order() {
        let sk = FindSketch::new(
            "Server",
            "gandalf",
            StrMatchKind::Substring,
            SortOrder::ascending(&["Ord"]),
        );
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        let (key, row) = s.first.unwrap();
        assert_eq!(key.values(), &[Value::Int(1)]);
        assert_eq!(row.values[0], Value::str("gandalf-1"));
        assert_eq!(s.matches_total, 2, "case-sensitive: GANDALF-3 excluded");
    }

    #[test]
    fn case_insensitive_widens_matches() {
        let sk = FindSketch::new(
            "Server",
            "gandalf",
            StrMatchKind::Substring,
            SortOrder::ascending(&["Ord"]),
        )
        .case_insensitive();
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.matches_total, 3);
        let (key, _) = s.first.unwrap();
        assert_eq!(key.values(), &[Value::Int(0)], "GANDALF-3 sorts first");
    }

    #[test]
    fn find_next_continues_after_start() {
        let order = SortOrder::ascending(&["Ord"]);
        let first = FindSketch::new("Server", "gandalf", StrMatchKind::Substring, order.clone())
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        let start = first.first.unwrap().0;
        let next = FindSketch::new("Server", "gandalf", StrMatchKind::Substring, order)
            .after(start)
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        let (key, row) = next.first.unwrap();
        assert_eq!(key.values(), &[Value::Int(2)]);
        assert_eq!(row.values[0], Value::str("gandalf-2"));
        assert_eq!(next.matches_after, 1);
        assert_eq!(next.matches_total, 2, "total ignores the start key");
    }

    #[test]
    fn regex_matching() {
        let sk = FindSketch::new(
            "Server",
            "^gandalf-[0-9]$",
            StrMatchKind::Regex,
            SortOrder::ascending(&["Ord"]),
        );
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(s.matches_total, 2);
    }

    #[test]
    fn merge_takes_global_minimum() {
        let v = view();
        let t = v.table().clone();
        let sk = FindSketch::new(
            "Server",
            "gandalf",
            StrMatchKind::Substring,
            SortOrder::ascending(&["Ord"]),
        );
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows(vec![0, 3], 5)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(t, Arc::new(MembershipSet::from_rows(vec![1, 2, 4], 5))),
                Scope::ALL,
                0,
            )
            .unwrap();
        let merged = merged(a, b);
        let whole = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(merged, whole);
    }

    #[test]
    fn no_match_yields_none() {
        let sk = FindSketch::new(
            "Server",
            "sauron",
            StrMatchKind::Substring,
            SortOrder::ascending(&["Ord"]),
        );
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert!(s.first.is_none());
        assert_eq!(s.matches_total, 0);
    }

    /// The first match ships its key once: its row leaves out the cells the
    /// key holds and names each in a byte, where the row used to repeat
    /// them whole.
    #[test]
    fn first_ships_its_key_once() {
        let order = SortOrder::ascending(&["Server", "Ord"]);
        let sk = FindSketch::new("Server", "gandalf", StrMatchKind::Substring, order);
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        let (key, row) = s.first.clone().unwrap();
        let mut whole = WireWriter::new();
        whole.put_key_header(1, Some(&key));
        whole.put_key(None, &key);
        row.encode(&mut whole);
        whole.put_varint(s.matches_after);
        whole.put_varint(s.matches_total);
        let key_bytes: usize = key.values().iter().map(|v| v.to_bytes().len()).sum();
        let shipped = s.to_bytes();
        assert_eq!(shipped.len(), whole.len() - key_bytes + key.values().len());
        assert_eq!(FindSummary::from_bytes(shipped).unwrap(), s);
    }

    #[test]
    fn wire_roundtrip() {
        let sk = FindSketch::new(
            "Server",
            "gandalf",
            StrMatchKind::Substring,
            SortOrder::ascending(&["Ord"]),
        );
        let s = sk.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(FindSummary::from_bytes(s.to_bytes()).unwrap(), s);
        let empty = sk.identity();
        assert_eq!(FindSummary::from_bytes(empty.to_bytes()).unwrap(), empty);
    }
}
