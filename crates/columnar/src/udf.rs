//! User-defined map functions that derive new columns.
//!
//! Paper §5.6: *"User-defined maps permit a user to create a column from
//! existing ones (e.g., add two columns), where the map is an arbitrary
//! function. Some map functions are built-in ...; additional functions can be
//! written by users in JavaScript."* In this Rust reproduction, UDFs are
//! named Rust closures registered in a [`UdfRegistry`]; naming them keeps
//! derived columns *recomputable*, which the engine's soft-state fault
//! tolerance requires (a derived column evicted from cache is regenerated by
//! re-running the named function, §5.7).

use crate::bitmap::span_mask;
use crate::block::{BlockCursor, BLOCK_ROWS};
use crate::column::{Column, DictColumn, F64Column, I64Column};
use crate::error::{Error, Result};
use crate::nullmask::NullMask;
use crate::schema::ColumnKind;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A map function: given a table and row index, produce the derived value.
pub(crate) type MapFn = Arc<dyn Fn(&Table, usize) -> Value + Send + Sync>;

/// The block-compilable UDF shapes: arithmetic over two numeric input
/// columns, evaluated 64 decoded lanes at a time. Functions of this shape
/// materialize through the block pipeline — each input column decodes one
/// frame per 64 rows straight out of its physical encoding, the op runs
/// over the lane buffers, and validity is folded at word granularity — so
/// computed columns cost one fused arithmetic pass, not a per-row closure
/// call with two hash lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockOp {
    /// `a + b`; missing where either input is missing.
    Add,
    /// `a / b`; missing where either input is missing or `b == 0`.
    Ratio,
}

/// A UDF's block compilation: the op plus its named input columns.
#[derive(Clone, Debug)]
pub(crate) struct BlockUdf {
    /// The 64-lane operation.
    pub op: BlockOp,
    /// Left input column.
    pub a: Arc<str>,
    /// Right input column.
    pub b: Arc<str>,
}

/// A named user-defined map function with a declared output kind.
#[derive(Clone)]
pub(crate) struct Udf {
    /// Registry name.
    pub name: Arc<str>,
    /// Kind of the derived column.
    pub output_kind: ColumnKind,
    /// The function.
    pub f: MapFn,
    /// Block compilation of the function, when its shape admits one; the
    /// rowwise closure remains the semantic reference (and the fallback
    /// for non-numeric inputs).
    pub block: Option<BlockUdf>,
}

impl std::fmt::Debug for Udf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Udf({} -> {})", self.name, self.output_kind)
    }
}

/// A registry of named map functions.
#[derive(Debug, Default, Clone)]
pub struct UdfRegistry {
    fns: HashMap<Arc<str>, Udf>,
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-populated with the built-in functions.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register_builtin_factories();
        r
    }

    /// Register a UDF; replaces any previous function of the same name.
    pub fn register(
        &mut self,
        name: &str,
        output_kind: ColumnKind,
        f: impl Fn(&Table, usize) -> Value + Send + Sync + 'static,
    ) {
        let name: Arc<str> = Arc::from(name);
        self.fns.insert(
            name.clone(),
            Udf {
                name,
                output_kind,
                f: Arc::new(f),
                block: None,
            },
        );
    }

    /// Attach a block compilation to an already-registered UDF.
    fn set_block(&mut self, name: &str, block: BlockUdf) {
        if let Some(udf) = self.fns.get_mut(name) {
            udf.block = Some(block);
        }
    }

    /// Look up a UDF by name.
    pub(crate) fn get(&self, name: &str) -> Result<&Udf> {
        self.fns
            .get(name)
            .ok_or_else(|| Error::UnknownUdf(name.to_string()))
    }

    /// Evaluate the named UDF over every row of `table`, producing the
    /// derived column. This is the work a leaf performs when the engine
    /// materializes a mapped table (paper §5.6). Block-compilable
    /// functions over numeric inputs take the 64-lane path; everything
    /// else runs the rowwise closure.
    pub fn materialize(&self, name: &str, table: &Table) -> Result<Column> {
        let udf = self.get(name)?;
        if let Some(bu) = &udf.block {
            if let Some(col) = materialize_block(bu, table) {
                return Ok(col);
            }
            // Missing or non-numeric inputs: the rowwise closure is the
            // general path and defines the semantics (all-missing output
            // for absent inputs, matching `Value`-level coercion).
        }
        let n = table.num_rows();
        Ok(match udf.output_kind {
            ColumnKind::Int => Column::Int(I64Column::from_options(
                (0..n).map(|r| (udf.f)(table, r).as_i64()),
            )),
            ColumnKind::Date => Column::Date(I64Column::from_options(
                (0..n).map(|r| (udf.f)(table, r).as_i64()),
            )),
            ColumnKind::Double => Column::Double(F64Column::from_options(
                (0..n).map(|r| (udf.f)(table, r).as_f64()),
            )),
            ColumnKind::String | ColumnKind::Category => {
                let vals: Vec<Option<String>> = (0..n)
                    .map(|r| (udf.f)(table, r).as_str().map(str::to_string))
                    .collect();
                let col = DictColumn::from_strings(vals.iter().map(|v| v.as_deref()));
                if udf.output_kind == ColumnKind::String {
                    Column::Str(col)
                } else {
                    Column::Cat(col)
                }
            }
        })
    }

    /// Built-ins mirroring the paper's examples ("e.g., converting strings
    /// to integers", "a ratio of two columns" §3.5). Functions that need
    /// column names are registered via the `register_*` factory helpers.
    fn register_builtin_factories(&mut self) {
        self.register("row_number", ColumnKind::Int, |_t, r| Value::Int(r as i64));
    }

    /// Register a ratio UDF `name = numer / denom` over two numeric
    /// columns; block-compiled (`BlockOp::Ratio`).
    pub fn register_ratio(&mut self, name: &str, numer: &str, denom: &str) {
        let (numer, denom) = (Arc::<str>::from(numer), Arc::<str>::from(denom));
        let block = BlockUdf {
            op: BlockOp::Ratio,
            a: numer.clone(),
            b: denom.clone(),
        };
        self.register(name, ColumnKind::Double, move |t, r| {
            let a = t.column_by_name(&numer).ok().and_then(|c| c.as_f64(r));
            let b = t.column_by_name(&denom).ok().and_then(|c| c.as_f64(r));
            match (a, b) {
                (Some(a), Some(b)) if b != 0.0 => Value::Double(a / b),
                _ => Value::Missing,
            }
        });
        self.set_block(name, block);
    }

    /// Register a sum UDF `name = a + b` over two numeric columns;
    /// block-compiled (`BlockOp::Add`).
    pub fn register_sum(&mut self, name: &str, a: &str, b: &str) {
        let (a, b) = (Arc::<str>::from(a), Arc::<str>::from(b));
        let block = BlockUdf {
            op: BlockOp::Add,
            a: a.clone(),
            b: b.clone(),
        };
        self.register(name, ColumnKind::Double, move |t, r| {
            let x = t.column_by_name(&a).ok().and_then(|c| c.as_f64(r));
            let y = t.column_by_name(&b).ok().and_then(|c| c.as_f64(r));
            match (x, y) {
                (Some(x), Some(y)) => Value::Double(x + y),
                _ => Value::Missing,
            }
        });
        self.set_block(name, block);
    }

    /// Register a string→int parse of column `src` (paper's "converting
    /// strings to integers" built-in).
    pub fn register_parse_int(&mut self, name: &str, src: &str) {
        let src = Arc::<str>::from(src);
        self.register(name, ColumnKind::Int, move |t, r| {
            t.column_by_name(&src)
                .ok()
                .and_then(|c| {
                    c.as_dict_col()?
                        .read(r, &mut String::new())?
                        .trim()
                        .parse()
                        .ok()
                })
                .map_or(Value::Missing, Value::Int)
        });
    }
}

/// f64 lane decoder over one numeric input column: both storages decode
/// 64-row frames through their block unpackers (bit-packed, delta,
/// run-length — whatever the column chose at ingest), and integer lanes
/// cast in a lane loop.
enum NumLanes<'a> {
    F(BlockCursor<'a, f64, crate::encoding::F64Storage>),
    I(BlockCursor<'a, i64, crate::encoding::I64Storage>),
}

impl<'a> NumLanes<'a> {
    /// `None` for non-numeric columns (the rowwise closure handles those).
    fn new(col: &'a Column) -> Option<(Self, &'a NullMask)> {
        match col {
            Column::Double(c) => Some((NumLanes::F(BlockCursor::new(c.data())), c.nulls())),
            Column::Int(c) | Column::Date(c) => {
                Some((NumLanes::I(BlockCursor::new(c.storage())), c.nulls()))
            }
            _ => None,
        }
    }

    /// Fill `out[..len]` with the frame `base .. base + len`.
    #[inline]
    fn frame(&mut self, base: usize, len: usize, out: &mut [f64; BLOCK_ROWS]) {
        match self {
            NumLanes::F(cursor) => out[..len].copy_from_slice(cursor.lanes(base, len)),
            NumLanes::I(cursor) => {
                let lanes = cursor.lanes(base, len);
                for (o, &v) in out[..len].iter_mut().zip(lanes) {
                    *o = v as f64;
                }
            }
        }
    }
}

/// Materialize a block-compiled UDF: one frame-at-a-time pass over both
/// input columns, validity folded per 64-row word. Returns `None` when an
/// input is absent or non-numeric — the caller falls back to the rowwise
/// closure, which defines those semantics.
///
/// Lane arithmetic is the same f64 op the rowwise closure performs, in the
/// same row order, so the two paths are bit-identical (computed NaNs
/// become nulls in both, via [`F64Column::new`]).
fn materialize_block(bu: &BlockUdf, table: &Table) -> Option<Column> {
    let ca = table.column_by_name(&bu.a).ok()?;
    let cb = table.column_by_name(&bu.b).ok()?;
    let (mut la, na) = NumLanes::new(ca)?;
    let (mut lb, nb) = NumLanes::new(cb)?;
    let n = table.num_rows();
    let words = n.div_ceil(64);
    let mut data = vec![0.0f64; n];
    let mut valid = vec![0u64; words];
    let mut a_buf = [0.0f64; BLOCK_ROWS];
    let mut b_buf = [0.0f64; BLOCK_ROWS];
    for (w, valid_w) in valid.iter_mut().enumerate() {
        let base = w * 64;
        let len = (n - base).min(64);
        la.frame(base, len, &mut a_buf);
        lb.frame(base, len, &mut b_buf);
        let null_a = na.bitmap().map_or(0, |b| b.word(w));
        let null_b = nb.bitmap().map_or(0, |b| b.word(w));
        let mut live = !null_a & !null_b & span_mask(0, len);
        let out = &mut data[base..base + len];
        match bu.op {
            BlockOp::Add => {
                for i in 0..len {
                    out[i] = a_buf[i] + b_buf[i];
                }
            }
            BlockOp::Ratio => {
                let mut nonzero = 0u64;
                for i in 0..len {
                    // Division by a zero or null-placeholder denominator
                    // produces a lane that the mask below discards.
                    nonzero |= u64::from(b_buf[i] != 0.0) << i;
                    out[i] = a_buf[i] / b_buf[i];
                }
                live &= nonzero;
            }
        }
        // Dead lanes revert to the storage convention (null rows hold 0.0).
        for (i, o) in out.iter_mut().enumerate() {
            if live >> i & 1 == 0 {
                *o = 0.0;
            }
        }
        *valid_w = live;
    }
    let nulls = NullMask::from_flags((0..n).map(|r| valid[r / 64] >> (r % 64) & 1 == 0), n);
    Some(Column::Double(F64Column::new(data, nulls)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::builder()
            .column(
                "Distance",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(100), Some(250), None])),
            )
            .column(
                "AirTime",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([Some(2.0), Some(0.0), Some(1.0)])),
            )
            .column(
                "Tail",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([
                    Some("42"),
                    Some("n/a"),
                    Some(" 7 "),
                ])),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn ratio_udf_handles_zero_and_missing() {
        let mut reg = UdfRegistry::with_builtins();
        reg.register_ratio("Speed", "Distance", "AirTime");
        let col = reg.materialize("Speed", &table()).unwrap();
        assert_eq!(col.value(0), Value::Double(50.0));
        assert_eq!(col.value(1), Value::Missing, "division by zero");
        assert_eq!(col.value(2), Value::Missing, "missing numerator");
    }

    #[test]
    fn sum_udf() {
        let mut reg = UdfRegistry::new();
        reg.register_sum("Total", "Distance", "AirTime");
        let col = reg.materialize("Total", &table()).unwrap();
        assert_eq!(col.value(0), Value::Double(102.0));
    }

    #[test]
    fn parse_int_udf() {
        let mut reg = UdfRegistry::new();
        reg.register_parse_int("TailNum", "Tail");
        let col = reg.materialize("TailNum", &table()).unwrap();
        assert_eq!(col.value(0), Value::Int(42));
        assert_eq!(col.value(1), Value::Missing);
        assert_eq!(col.value(2), Value::Int(7), "trims whitespace");
    }

    #[test]
    fn row_number_builtin() {
        let reg = UdfRegistry::with_builtins();
        let col = reg.materialize("row_number", &table()).unwrap();
        assert_eq!(col.value(2), Value::Int(2));
    }

    #[test]
    fn unknown_udf_is_an_error() {
        let reg = UdfRegistry::new();
        assert!(matches!(
            reg.materialize("nope", &table()),
            Err(Error::UnknownUdf(_))
        ));
    }

    #[test]
    fn derived_column_attaches_to_table() {
        let mut reg = UdfRegistry::new();
        reg.register_ratio("Speed", "Distance", "AirTime");
        let t = table();
        let col = reg.materialize("Speed", &t).unwrap();
        let t2 = t.with_column("Speed", col).unwrap();
        assert_eq!(t2.get(0, "Speed").unwrap(), Value::Double(50.0));
    }

    /// 130 rows (crosses two frame boundaries, ragged tail) mixing nulls,
    /// zero denominators, and infinities that make `Add`/`Ratio` produce
    /// NaN on valid lanes. `D` is stored raw, `W` (whole numbers, both
    /// zeros) as encoded codes.
    fn wide_table() -> Table {
        let n = 130usize;
        let ints = (0..n).map(|i| {
            if i % 7 == 3 {
                None
            } else if i == 40 {
                Some(i64::MAX)
            } else {
                Some(i as i64 * 3 - 50)
            }
        });
        let dbls = (0..n).map(|i| match i {
            i if i % 11 == 5 => None,
            i if i % 5 == 0 => Some(0.0),
            17 => Some(f64::INFINITY),
            23 => Some(f64::NEG_INFINITY),
            i => Some(i as f64 * 0.25 - 8.0),
        });
        let whole = F64Column::from_options((0..n).map(|i| match i {
            i if i % 13 == 2 => None,
            i if i % 5 == 0 => Some(-0.0),
            i => Some((i * 7 % 60) as f64 - 20.0),
        }));
        assert_ne!(whole.data().kind(), crate::EncodingKind::Plain);
        Table::builder()
            .column(
                "I",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(ints)),
            )
            .column(
                "D",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(dbls)),
            )
            .column("W", ColumnKind::Double, Column::Double(whole))
            .build()
            .unwrap()
    }

    /// Operand pairs over [`wide_table`]: raw and encoded doubles on
    /// either side.
    const OPERANDS: [(&str, &str); 3] = [("I", "D"), ("I", "W"), ("W", "D")];

    #[test]
    fn ratio_and_sum_are_block_compiled() {
        let mut reg = UdfRegistry::new();
        reg.register_ratio("Speed", "I", "D");
        reg.register_sum("Total", "I", "D");
        reg.register_parse_int("P", "I");
        assert!(matches!(
            reg.get("Speed").unwrap().block,
            Some(BlockUdf {
                op: BlockOp::Ratio,
                ..
            })
        ));
        assert!(matches!(
            reg.get("Total").unwrap().block,
            Some(BlockUdf {
                op: BlockOp::Add,
                ..
            })
        ));
        assert!(reg.get("P").unwrap().block.is_none());
    }

    #[test]
    fn block_materialization_matches_rowwise_closure() {
        let t = wide_table();
        for (name, mk) in [
            (
                "Speed",
                UdfRegistry::register_ratio as fn(&mut UdfRegistry, &str, &str, &str),
            ),
            ("Total", UdfRegistry::register_sum),
        ] {
            for (a, b) in OPERANDS {
                let mut blocked = UdfRegistry::new();
                mk(&mut blocked, name, a, b);
                let mut rowwise = UdfRegistry::new();
                mk(&mut rowwise, name, a, b);
                rowwise.fns.get_mut(name).unwrap().block = None;
                let cb = blocked.materialize(name, &t).unwrap();
                let cr = rowwise.materialize(name, &t).unwrap();
                assert_eq!(cb.len(), cr.len());
                for r in 0..t.num_rows() {
                    assert_eq!(cb.value(r), cr.value(r), "{name}({a}, {b}) row {r}");
                }
            }
        }
    }

    #[test]
    fn block_udf_falls_back_when_input_is_absent_or_non_numeric() {
        let t = table();
        let mut reg = UdfRegistry::new();
        reg.register_ratio("R1", "Distance", "NoSuchColumn");
        reg.register_ratio("R2", "Distance", "Tail");
        for name in ["R1", "R2"] {
            let col = reg.materialize(name, &t).unwrap();
            assert_eq!(col.len(), t.num_rows());
            for r in 0..t.num_rows() {
                assert_eq!(col.value(r), Value::Missing, "{name} row {r}");
            }
        }
    }

    #[test]
    fn string_output_udf() {
        let mut reg = UdfRegistry::new();
        reg.register("CarrierUpper", ColumnKind::String, |t, r| {
            match t.column_by_name("Tail").unwrap().value(r) {
                Value::Str(s) => Value::str(s.to_ascii_uppercase()),
                _ => Value::Missing,
            }
        });
        let col = reg.materialize("CarrierUpper", &table()).unwrap();
        assert_eq!(col.value(1), Value::str("N/A"));
        assert_eq!(col.kind(), ColumnKind::String);
    }
}
