//! Column range: min/max plus counts.
//!
//! Every chart starts with a range computation (paper §5.3 / App. B.4:
//! "All charts, when produced initially, require a vizketch to determine the
//! range of the inputs; subsequently, this information can be cached").
//! Numeric columns report numeric bounds; string columns report the
//! lexicographic extremes.
//!
//! Over a loaded dataset's every row, a numeric column's range was fixed
//! when its parts were sealed: each column records its present and missing
//! rows and its present values' extremes (`hvc` keeps them in the part
//! header), and [`RangeSketch::summarize_stats`] reads a part's summary from them
//! without touching a row. Folded part by part in tree order, those
//! summaries are the bytes the tree folds, so the spreadsheet answers an
//! unfiltered numeric range from them and launches a tree only for a
//! filtered or derived dataset, a string column, or a worker that is down
//! or does not hold the data.

use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::simd::LaneValue;
use hillview_columnar::{BlockCursor, ScanSource, Table};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Computes the range of one column.
#[derive(Debug, Clone)]
pub struct RangeSketch {
    /// Column name.
    pub column: Arc<str>,
}

impl RangeSketch {
    /// Range of the named column.
    pub fn new(column: &str) -> Self {
        RangeSketch {
            column: Arc::from(column),
        }
    }

    /// The summary [`Sketch::summarize`] gives over every row of `table`,
    /// read from the column's statistics — its null count and its present
    /// extremes — instead of its rows. `None` for a string column, whose
    /// extremes are strings the statistics do not hold.
    pub fn summarize_stats(&self, table: &Table) -> SketchResult<Option<RangeSummary>> {
        use hillview_columnar::Column;
        let col = table.column_by_name(&self.column)?;
        let extremes = match col {
            // i64 → f64 is monotone: the converted extremes are the
            // extremes of the conversions the scan folds.
            Column::Int(c) | Column::Date(c) => c.extremes().map(|(a, b)| (a as f64, b as f64)),
            Column::Double(c) => c.extremes(),
            Column::Str(_) | Column::Cat(_) => return Ok(None),
        };
        let missing = col.null_count() as u64;
        Ok(Some(RangeSummary {
            present: col.len() as u64 - missing,
            missing,
            min: extremes.map(|(min, _)| min),
            max: extremes.map(|(_, max)| max),
            min_str: None,
            max_str: None,
        }))
    }
}

/// Result of a [`RangeSketch`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RangeSummary {
    /// Present (non-missing) rows.
    pub present: u64,
    /// Missing rows.
    pub missing: u64,
    /// Numeric minimum, if the column is numeric and any row present.
    pub min: Option<f64>,
    /// Numeric maximum.
    pub max: Option<f64>,
    /// Lexicographic minimum, for string columns.
    pub min_str: Option<String>,
    /// Lexicographic maximum, for string columns.
    pub max_str: Option<String>,
}

impl Summary for RangeSummary {
    fn merge(&mut self, other: Self) {
        self.present += other.present;
        self.missing += other.missing;
        merge_opt(&mut self.min, other.min, f64::min);
        merge_opt(&mut self.max, other.max, f64::max);
        merge_opt(&mut self.min_str, other.min_str, Ord::min);
        merge_opt(&mut self.max_str, other.max_str, Ord::max);
    }
}

/// `mine = pick(mine, other)` where both are present, else whichever is:
/// the merge of an optional extreme.
pub(crate) fn merge_opt<T>(mine: &mut Option<T>, other: Option<T>, pick: impl FnOnce(T, T) -> T) {
    *mine = match (mine.take(), other) {
        (Some(a), Some(b)) => Some(pick(a, b)),
        (x, None) | (None, x) => x,
    };
}

/// Layout: `present`, `missing`, then `min`, `max`, `min_str`, `max_str`,
/// each behind a presence byte.
impl Wire for RangeSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.present);
        w.put_varint(self.missing);
        self.min.encode(w);
        self.max.encode(w);
        self.min_str.encode(w);
        self.max_str.encode(w);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        Ok(RangeSummary {
            present: r.get_varint()?,
            missing: r.get_varint()?,
            min: Option::<f64>::decode(r)?,
            max: Option::<f64>::decode(r)?,
            min_str: Option::<String>::decode(r)?,
            max_str: Option::<String>::decode(r)?,
        })
    }
}

impl Sketch for RangeSketch {
    type Summary = RangeSummary;

    fn name(&self) -> &'static str {
        "range"
    }

    /// Counts add and min/max are lattices, so split partials fold back to
    /// exactly the unsplit summary.
    ///
    /// Numeric columns run frame-wise and consult the per-64-row-block
    /// zone maps recorded at ingest: a fully-selected, null-free frame
    /// contributes its pre-computed block extremes without decoding a
    /// single value.
    fn summarize(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        _seed: u64,
    ) -> SketchResult<RangeSummary> {
        use hillview_columnar::scan::scan_values;
        use hillview_columnar::Column;
        let col = view.table().column_by_name(&self.column)?;
        let mut out = RangeSummary::default();
        view.scan(scope, None, |sel| match col {
            Column::Double(c) => {
                let zones = c.zones();
                scan_numeric(
                    sel,
                    c.nulls(),
                    c.len(),
                    |b| zones.block(b),
                    c.data(),
                    &mut out,
                );
            }
            Column::Int(c) | Column::Date(c) => {
                let zones = c.zones();
                scan_numeric(
                    sel,
                    c.nulls(),
                    c.len(),
                    // i64 → f64 is monotone, so the converted block
                    // extremes are the extremes of the conversions.
                    |b| {
                        let (mn, mx) = zones.block(b);
                        (mn as f64, mx as f64)
                    },
                    c.storage(),
                    &mut out,
                );
            }
            Column::Str(dict) | Column::Cat(dict) => {
                // Codes sort as their strings do, so the extremes are the
                // strings of the smallest and largest present code: one
                // pass over codes, then two point reads.
                let (mut lo, mut hi, mut present) = (u32::MAX, 0u32, 0u64);
                let nulls = dict.nulls().bitmap();
                scan_values(sel, dict.codes(), nulls, &mut out.missing, |code| {
                    present += 1;
                    lo = lo.min(code);
                    hi = hi.max(code);
                });
                out.present += present;
                if present > 0 {
                    let string = |code| {
                        let mut s = String::new();
                        dict.dictionary().read(code, &mut s);
                        s
                    };
                    out.min_str = Some(string(lo));
                    out.max_str = Some(string(hi));
                }
            }
        })?;
        Ok(out)
    }

    fn identity(&self) -> RangeSummary {
        RangeSummary::default()
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        Some(self.column.as_bytes().to_vec())
    }
}

/// The numeric frame walk of [`RangeSketch`]:
/// count missing/present per frame word, take fully-live frames straight
/// from `zone` (the per-block extremes recorded at ingest), and fold
/// partial frames lane by lane from one frame decode of `data` (sparse
/// rows through its cursor, one probe per run).
fn scan_numeric<T: LaneValue + Default, S: ScanSource<T> + ?Sized>(
    sel: &hillview_columnar::Selection<'_>,
    nulls: &hillview_columnar::NullMask,
    n: usize,
    zone: impl Fn(usize) -> (f64, f64),
    data: &S,
    out: &mut RangeSummary,
) {
    use hillview_columnar::block::{scan_frames, FrameEvent};
    let mut cur = BlockCursor::new(data);
    let fold = |out: &mut RangeSummary, mn: f64, mx: f64| {
        out.min = Some(out.min.map_or(mn, |m| m.min(mn)));
        out.max = Some(out.max.map_or(mx, |m| m.max(mx)));
    };
    scan_frames(sel, |ev| match ev {
        FrameEvent::Frame { base, len, word } => {
            let nword = nulls.word(base / 64);
            out.missing += (word & nword).count_ones() as u64;
            let mut live = word & !nword;
            out.present += live.count_ones() as u64;
            if live == 0 {
                return;
            }
            let blk = 64.min(n - base);
            let full = if blk == 64 {
                u64::MAX
            } else {
                (1u64 << blk) - 1
            };
            if live == full {
                let (mn, mx) = zone(base / 64);
                fold(out, mn, mx);
            } else {
                let lanes = cur.lanes(base, len);
                let mut mn = f64::INFINITY;
                let mut mx = f64::NEG_INFINITY;
                while live != 0 {
                    let k = live.trailing_zeros() as usize;
                    live &= live - 1;
                    let v = lanes[k].lane_f64();
                    mn = mn.min(v);
                    mx = mx.max(v);
                }
                fold(out, mn, mx);
            }
        }
        FrameEvent::Row(r) => {
            if nulls.is_null(r) {
                out.missing += 1;
            } else {
                out.present += 1;
                let v = cur.value(r).lane_f64();
                fold(out, v, v);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merge_law_holds;
    use hillview_columnar::column::{Column, DictColumn, F64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};

    fn view() -> TableView {
        let t = Table::builder()
            .column(
                "D",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(5.0),
                    None,
                    Some(-3.5),
                    Some(12.0),
                ])),
            )
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([
                    Some("m"),
                    Some("a"),
                    None,
                    Some("z"),
                ])),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn numeric_range() {
        let s = RangeSketch::new("D")
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.present, 3);
        assert_eq!(s.missing, 1);
        assert_eq!(s.min, Some(-3.5));
        assert_eq!(s.max, Some(12.0));
        assert_eq!(s.min_str, None);
    }

    #[test]
    fn string_range() {
        let s = RangeSketch::new("S")
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.min_str.as_deref(), Some("a"));
        assert_eq!(s.max_str.as_deref(), Some("z"));
        assert_eq!(s.min, None);
    }

    #[test]
    fn merge_law() {
        let v = view();
        let t = v.table().clone();
        let parts = vec![
            TableView::with_members(t.clone(), Arc::new(MembershipSet::from_rows(vec![0, 1], 4))),
            TableView::with_members(t, Arc::new(MembershipSet::from_rows(vec![2, 3], 4))),
        ];
        assert!(merge_law_holds(&RangeSketch::new("D"), &v, &parts, 0));
        assert!(merge_law_holds(&RangeSketch::new("S"), &v, &parts, 0));
    }

    #[test]
    fn empty_view_gives_identity() {
        let v = view();
        let empty = TableView::with_members(
            v.table().clone(),
            Arc::new(MembershipSet::from_rows(vec![], 4)),
        );
        let sk = RangeSketch::new("D");
        assert_eq!(sk.summarize(&empty, Scope::ALL, 0).unwrap(), sk.identity());
    }

    #[test]
    fn wire_roundtrip() {
        let s = RangeSummary {
            present: 10,
            missing: 2,
            min: Some(-1.0),
            max: Some(9.0),
            min_str: None,
            max_str: Some("zz".into()),
        };
        assert_eq!(RangeSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
