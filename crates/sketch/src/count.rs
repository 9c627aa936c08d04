//! Exact row/missing counting — the simplest mergeable summary.
//!
//! Used by the preparation phase of every visualization (paper §5.3: the
//! first execution tree "computes data-wide parameters such as the size ...
//! of the data set").
//!
//! Count is the degenerate consumer of the block ABI: it needs only the
//! frames' selection and validity *words*, never the value lanes, so
//! [`count_missing`] runs pure word-AND popcounts (one per 64 rows) and
//! touches no column data at all.

use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::count_missing;
use hillview_columnar::Table;
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Counts present and missing rows, optionally of one column.
#[derive(Debug, Clone)]
pub struct CountSketch {
    /// Column whose missing values are counted; `None` counts rows only.
    pub column: Option<Arc<str>>,
}

impl CountSketch {
    /// Count rows of the whole table.
    pub fn rows() -> Self {
        CountSketch { column: None }
    }

    /// Count rows and missing values of one column.
    pub fn of_column(name: &str) -> Self {
        CountSketch {
            column: Some(Arc::from(name)),
        }
    }

    /// The summary [`Sketch::summarize`] gives over every row of `table`,
    /// read from its row count and the column's null count.
    pub fn summarize_stats(&self, table: &Table) -> SketchResult<CountSummary> {
        let missing = match &self.column {
            None => 0,
            Some(name) => table.column_by_name(name)?.null_count() as u64,
        };
        Ok(CountSummary {
            rows: table.num_rows() as u64,
            missing,
        })
    }
}

/// Result of a [`CountSketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountSummary {
    /// Rows present in the view (including ones missing in the column).
    pub rows: u64,
    /// Rows whose tracked column is missing.
    pub missing: u64,
}

impl Summary for CountSummary {
    fn merge(&mut self, other: Self) {
        self.rows += other.rows;
        self.missing += other.missing;
    }
}

/// Layout: `rows`, `missing`.
impl Wire for CountSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.rows);
        w.put_varint(self.missing);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(CountSummary {
            rows: r.get_varint()?,
            missing: r.get_varint()?,
        })
    }
}

impl Sketch for CountSketch {
    type Summary = CountSummary;

    fn name(&self) -> &'static str {
        "count"
    }

    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<CountSummary> {
        let nulls = match &self.column {
            None => None,
            Some(name) => view.table().column_by_name(name)?.null_bitmap(),
        };
        // Word-AND popcounts of selection × null mask: no column data is
        // touched at all.
        let (missing, rows) = view.scan(scope, None, |sel| count_missing(sel, nulls))?;
        Ok(CountSummary { rows, missing })
    }

    fn identity(&self) -> CountSummary {
        CountSummary::default()
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // Exact counts: pure function of data + membership.
        Some(format!("{:?}", self.column).into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merged;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn view() -> TableView {
        let t = Table::builder()
            .column(
                "D",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(1.0),
                    None,
                    Some(3.0),
                    None,
                    Some(5.0),
                ])),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn counts_rows_and_missing() {
        let s = CountSketch::of_column("D");
        let sum = s.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(sum.rows, 5);
        assert_eq!(sum.missing, 2);
    }

    #[test]
    fn row_only_count() {
        let s = CountSketch::rows();
        let sum = s.summarize(&view(), Scope::ALL, 0).unwrap();
        assert_eq!(
            sum,
            CountSummary {
                rows: 5,
                missing: 0
            }
        );
    }

    #[test]
    fn respects_membership() {
        let v = view();
        let v = TableView::with_members(
            v.table().clone(),
            Arc::new(MembershipSet::from_rows(vec![0, 1], 5)),
        );
        let sum = CountSketch::of_column("D")
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(
            sum,
            CountSummary {
                rows: 2,
                missing: 1
            }
        );
    }

    #[test]
    fn merge_adds_and_identity_is_unit() {
        let s = CountSketch::of_column("D");
        let a = CountSummary {
            rows: 3,
            missing: 1,
        };
        let b = CountSummary {
            rows: 2,
            missing: 1,
        };
        assert_eq!(
            merged(a, b),
            CountSummary {
                rows: 5,
                missing: 2
            }
        );
        assert_eq!(merged(a, s.identity()), a);
    }

    #[test]
    fn fused_count_without_nulls_equals_the_two_pass_count() {
        // A column with no nulls still drives the fused filter over every
        // frame, so the rows it reports are the rows the filter kept.
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..300).map(|i| Some(f64::from(i))),
                )),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let p = hillview_columnar::Predicate::range("X", 10.0, 200.0);
        let fused = Scope {
            rows: None,
            filter: Some(&p),
        };
        let two_pass = crate::view::filtered_view(&v, &p).unwrap();
        for s in [CountSketch::rows(), CountSketch::of_column("X")] {
            let want = s.summarize(&two_pass, Scope::ALL, 0).unwrap();
            assert_eq!(s.summarize(&v, fused, 0).unwrap(), want);
            assert_eq!(want.rows, 190);
        }
    }

    #[test]
    fn unknown_column_errors() {
        assert!(CountSketch::of_column("X")
            .summarize(&view(), Scope::ALL, 0)
            .is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let s = CountSummary {
            rows: 7,
            missing: 2,
        };
        assert_eq!(CountSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
