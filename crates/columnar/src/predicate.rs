//! Row-selection predicates: the filter pipeline behind every derived
//! table.
//!
//! Hillview derives new tables by filtering (paper §5.6 "Selection") — e.g.
//! zooming into a chart region selects rows inside the zoom window, and the
//! find-text vizketch filters rows by a search criterion (§3.3). A
//! [`Predicate`] is the user-facing expression tree; it compiles into one
//! of **two forms** bound to a concrete [`Table`]:
//!
//! * [`CompiledPredicate`] — the per-row *reference* form:
//!   [`CompiledPredicate::eval`] answers "does row `r` match?" one row at a
//!   time. It resolves column names to indexes, pre-compiles regexes, and
//!   reuses a scratch buffer for display-text matching, but it still pays
//!   a dispatch per row. The block form below is pinned bit-identical to
//!   it by property tests.
//! * `BlockPredicate` — the *block-wise* form the filter pipeline runs:
//!   `BlockPredicate::eval_frame` turns the selection word of one
//!   64-row-aligned frame into the word of matching rows. Numeric
//!   `Range`/`Equals` leaves are lane comparisons over decoded frames
//!   (SIMD-dispatched at runtime on x86-64, with the mandatory
//!   bit-identical scalar fallback), with range bounds pre-translated into
//!   the column's integer domain — and further into the packed-delta
//!   domain for bit-packed storage, so no frame-of-reference
//!   reconstruction happens at all
//!   ([`IntStorage::range_frame_word`](crate::encoding::IntStorage::range_frame_word)).
//!   `Double` leaves compare in the f64 domain on frames decoded from the
//!   column's [`F64Storage`], whichever encoding it chose.
//!   Text and regex matches on dictionary columns are evaluated **once per
//!   dictionary entry** into a code-indexed match bitmap; the per-row test
//!   is then a bitmap probe on the code lane. `And`/`Or`/`Not` are bitwise
//!   word ops with short-circuiting.
//!
//! ## Zone-map skipping
//!
//! Numeric columns record per-64-row-block min/max zone maps at ingest
//! ([`ZoneMap`]). A range/equality leaf consults
//! the frame's zone entry before decoding: if the block's extremes sit
//! entirely inside the bounds every valid row passes (the leaf returns the
//! selection-and-validity word without touching the values), and if they
//! sit entirely outside it returns `0`. On sorted data a selective range
//! filter therefore decodes only the boundary blocks.
//!
//! ## Missing values and NaN
//!
//! The rules, which both compiled forms implement identically:
//!
//! * Missing rows never satisfy `Range`, a present-value `Equals`, or any
//!   text/regex match. `IsMissing` and `Equals(Value::Missing)` match
//!   exactly the missing rows.
//! * **`Not` is the exact complement** over the scanned rows:
//!   `Not(p)` matches every row `p` rejects — *including rows that are
//!   missing in the columns `p` references*. `Not(Range{..})` therefore
//!   selects rows outside the range *plus* the missing rows; conjoin
//!   `.and(Predicate::IsMissing{..}.not())` to exclude them. This is the
//!   spreadsheet complement rule, not SQL's three-valued logic.
//! * `Equals` compares numerically across the numeric kinds (`Int`,
//!   `Double`, `Date`): `Equals(Double(5.0))` matches an integer cell
//!   holding 5 and a date cell at epoch-milli 5. When both the constant
//!   and the column are integer-kinded the comparison is *exact* in the
//!   i64 domain (ids beyond 2^53 don't merge under f64 rounding); as soon
//!   as a `Double` is involved on either side, both sides normalize
//!   through `as_f64`. A string constant matches only string-like
//!   columns, and a numeric constant never matches a string column.
//! * `Equals(Double(NaN))` matches nothing (NaN is unequal to
//!   everything). Note that `Value::from(f64::NAN)` normalizes to
//!   `Value::Missing` — an `Equals` built through that conversion matches
//!   the missing rows instead. A `Range` with a NaN bound matches nothing.
//!
//! [`filter_members`] is the pipeline entry point: it streams a parent
//! [`MembershipSet`] through the block form frame by frame, intersecting
//! selection words in place (sparse parents are grouped into per-block
//! words; row ids are never materialized) and emits the narrowed
//! membership directly from the result bitmap words.

use crate::bitmap::Bitmap;
use crate::block::{scan_frames, FrameEvent, BLOCK_ROWS};
use crate::column::Column;
use crate::encoding::{CodeStorage, F64Storage, I64Storage, ZoneMap};
use crate::error::Result;
use crate::membership::MembershipSet;
use crate::regexlite::Regex;
use crate::scan::{ScanSource, Selection};
use crate::simd;
use crate::table::Table;
use crate::value::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// How a text search matches a cell (paper §3.3: "exact match, substring,
/// regular expressions, case sensitivity").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrMatchKind {
    /// Whole-cell equality.
    Exact,
    /// Cell contains the query as a substring.
    Substring,
    /// Cell matches a lite-regex pattern.
    Regex,
}

/// A row predicate over named columns.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Always true.
    True,
    /// Numeric range test `lo <= x < hi` on a numeric column; missing rows
    /// fail. This is the predicate a chart zoom generates.
    Range {
        /// Column name.
        column: Arc<str>,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Equality with a constant value. Numeric constants compare
    /// numerically across `Int`/`Double`/`Date` cells; `Value::Missing`
    /// matches exactly the missing rows (see the module docs).
    Equals {
        /// Column name.
        column: Arc<str>,
        /// Value compared against.
        value: Value,
    },
    /// Text search on a string-like column (non-string columns are matched
    /// against their display text, like searching a spreadsheet).
    StrMatch {
        /// Column name.
        column: Arc<str>,
        /// The query text or pattern.
        query: Arc<str>,
        /// Match mode.
        kind: StrMatchKind,
        /// Fold ASCII case before comparing.
        case_insensitive: bool,
    },
    /// The row is missing in this column.
    IsMissing {
        /// Column name.
        column: Arc<str>,
    },
    /// Logical AND.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical OR.
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical NOT: the exact complement, *including* rows missing in the
    /// referenced columns (module docs).
    Not(Box<Predicate>),
}

impl Predicate {
    /// Range predicate helper.
    pub fn range(column: &str, lo: f64, hi: f64) -> Self {
        Predicate::Range {
            column: Arc::from(column),
            lo,
            hi,
        }
    }

    /// Equality predicate helper.
    pub fn equals(column: &str, value: impl Into<Value>) -> Self {
        Predicate::Equals {
            column: Arc::from(column),
            value: value.into(),
        }
    }

    /// Text-search predicate helper.
    pub fn str_match(
        column: &str,
        query: &str,
        kind: StrMatchKind,
        case_insensitive: bool,
    ) -> Self {
        Predicate::StrMatch {
            column: Arc::from(column),
            query: Arc::from(query),
            kind,
            case_insensitive,
        }
    }

    /// AND combinator.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// OR combinator.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// NOT combinator.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Compile to the per-row reference form: column names resolved to
    /// indexes, regexes pre-compiled, queries case-folded once, so per-row
    /// evaluation is cheap. The filter pipeline itself runs the block form
    /// (`Predicate::compile_blockwise`); this form is the semantic
    /// reference the block form is property-tested against, and the
    /// fallback for per-row consumers (the find vizketch).
    pub fn compile(&self, table: &Table) -> Result<CompiledPredicate> {
        Ok(match self {
            Predicate::True => CompiledPredicate::True,
            Predicate::Range { column, lo, hi } => CompiledPredicate::Range {
                col: table.schema().index_of(column)?,
                lo: *lo,
                hi: *hi,
            },
            Predicate::Equals { column, value } => {
                let col = table.schema().index_of(column)?;
                match value {
                    Value::Missing => CompiledPredicate::EqualsMissing { col },
                    Value::Str(s) => CompiledPredicate::EqualsStr {
                        col,
                        value: s.clone(),
                    },
                    v => {
                        let int_col = matches!(table.column(col), Column::Int(_) | Column::Date(_));
                        match (v.as_i64(), int_col) {
                            // Integer constant against an integer column:
                            // compare exactly in the i64 domain, so ids and
                            // timestamps beyond 2^53 don't merge under f64
                            // rounding.
                            (Some(i), true) => CompiledPredicate::EqualsI64 { col, value: i },
                            _ => CompiledPredicate::EqualsNum {
                                col,
                                value: v.as_f64().expect("numeric value"),
                            },
                        }
                    }
                }
            }
            Predicate::StrMatch {
                column,
                query,
                kind,
                case_insensitive,
            } => CompiledPredicate::Match {
                col: table.schema().index_of(column)?,
                matcher: Matcher::compile(query, kind, *case_insensitive)?,
                scratch: String::new(),
            },
            Predicate::IsMissing { column } => CompiledPredicate::IsMissing {
                col: table.schema().index_of(column)?,
            },
            Predicate::And(a, b) => {
                CompiledPredicate::And(Box::new(a.compile(table)?), Box::new(b.compile(table)?))
            }
            Predicate::Or(a, b) => {
                CompiledPredicate::Or(Box::new(a.compile(table)?), Box::new(b.compile(table)?))
            }
            Predicate::Not(p) => CompiledPredicate::Not(Box::new(p.compile(table)?)),
        })
    }

    /// Compile to the block-wise form bound to `table`'s columns: per
    /// 64-row frame, `BlockPredicate::eval_frame` turns a selection word
    /// into the word of matching rows. See the module docs for the leaf
    /// strategies (lane compares, packed-domain bounds, dictionary match
    /// bitmaps, zone-map skipping).
    pub(crate) fn compile_blockwise<'a>(&self, table: &'a Table) -> Result<BlockPredicate<'a>> {
        Ok(BlockPredicate {
            node: self.block_node(table)?,
        })
    }

    fn block_node<'a>(&self, table: &'a Table) -> Result<BNode<'a>> {
        Ok(match self {
            Predicate::True => BNode::Always(true),
            Predicate::Range { column, lo, hi } => {
                let col = table.column(table.schema().index_of(column)?);
                match col {
                    Column::Double(c) => {
                        if *lo < *hi {
                            BNode::RangeF64 {
                                data: c.data(),
                                nulls: c.nulls().bitmap(),
                                zones: c.zones(),
                                lo: *lo,
                                hi: *hi,
                                cursor: 0,
                                buf: Box::new([0.0; BLOCK_ROWS]),
                            }
                        } else {
                            // Empty range, or a NaN bound: nothing matches.
                            BNode::Always(false)
                        }
                    }
                    Column::Int(c) | Column::Date(c) => {
                        match (int_lower_bound(*lo), int_upper_bound_excl(*hi)) {
                            (Some(ilo), Some(ihi)) if ilo <= ihi => BNode::RangeI64 {
                                storage: c.storage(),
                                nulls: c.nulls().bitmap(),
                                zones: c.zones(),
                                lo: ilo,
                                hi: ihi,
                                cursor: 0,
                                buf: Box::new([0; BLOCK_ROWS]),
                            },
                            _ => BNode::Always(false),
                        }
                    }
                    // Range on a string column: as_f64 is None per row.
                    Column::Str(_) | Column::Cat(_) => BNode::Always(false),
                }
            }
            Predicate::Equals { column, value } => {
                let col = table.column(table.schema().index_of(column)?);
                match value {
                    Value::Missing => BNode::IsMissing {
                        nulls: col.null_bitmap(),
                    },
                    Value::Str(s) => match col.as_dict_col() {
                        Some(d) => match d.dictionary().rank(s) {
                            Ok(code) => BNode::EqualsCode {
                                codes: d.codes(),
                                nulls: d.nulls().bitmap(),
                                zones: d.zones(),
                                code,
                                cursor: 0,
                                buf: Box::new([0; BLOCK_ROWS]),
                            },
                            Err(_) => BNode::Always(false),
                        },
                        None => BNode::Always(false),
                    },
                    v => {
                        // Integer constant on an integer column: exact
                        // i64-domain equality (a degenerate range).
                        if let (Some(i), Column::Int(c) | Column::Date(c)) = (v.as_i64(), col) {
                            return Ok(BNode::RangeI64 {
                                storage: c.storage(),
                                nulls: c.nulls().bitmap(),
                                zones: c.zones(),
                                lo: i,
                                hi: i,
                                cursor: 0,
                                buf: Box::new([0; BLOCK_ROWS]),
                            });
                        }
                        let target = v.as_f64().expect("numeric value");
                        match col {
                            Column::Double(c) => {
                                if target.is_nan() {
                                    BNode::Always(false)
                                } else {
                                    BNode::EqualsF64 {
                                        data: c.data(),
                                        nulls: c.nulls().bitmap(),
                                        zones: c.zones(),
                                        value: target,
                                        cursor: 0,
                                        buf: Box::new([0.0; BLOCK_ROWS]),
                                    }
                                }
                            }
                            Column::Int(c) | Column::Date(c) => {
                                // (v as f64) == target ⇔ v in the integer
                                // interval whose conversions land on target.
                                match (
                                    int_lower_bound(target),
                                    int_upper_bound_excl(target.next_up()),
                                ) {
                                    (Some(ilo), Some(ihi)) if ilo <= ihi => BNode::RangeI64 {
                                        storage: c.storage(),
                                        nulls: c.nulls().bitmap(),
                                        zones: c.zones(),
                                        lo: ilo,
                                        hi: ihi,
                                        cursor: 0,
                                        buf: Box::new([0; BLOCK_ROWS]),
                                    },
                                    _ => BNode::Always(false),
                                }
                            }
                            Column::Str(_) | Column::Cat(_) => BNode::Always(false),
                        }
                    }
                }
            }
            Predicate::StrMatch {
                column,
                query,
                kind,
                case_insensitive,
            } => {
                let col = table.column(table.schema().index_of(column)?);
                let matcher = Matcher::compile(query, kind, *case_insensitive)?;
                match col.as_dict_col() {
                    Some(d) => {
                        // Evaluate the matcher once per dictionary entry
                        // into a code-indexed bitmap; the per-row test is a
                        // probe on the code lane.
                        let dict = d.dictionary();
                        let mut bits = vec![0u64; dict.len().max(1).div_ceil(64)];
                        let mut hits = 0usize;
                        dict.for_each(|code, s| {
                            if matcher.matches(s) {
                                bits[code as usize / 64] |= 1 << (code % 64);
                                hits += 1;
                            }
                        });
                        if hits == 0 {
                            BNode::Always(false)
                        } else if hits == dict.len() {
                            // Every entry matches: the test degenerates to
                            // "present".
                            BNode::Present {
                                nulls: d.nulls().bitmap(),
                            }
                        } else {
                            BNode::MatchCodes {
                                codes: d.codes(),
                                nulls: d.nulls().bitmap(),
                                zones: d.zones(),
                                bits,
                                cursor: 0,
                                buf: Box::new([0; BLOCK_ROWS]),
                            }
                        }
                    }
                    None => BNode::MatchDisplay {
                        col,
                        nulls: col.null_bitmap(),
                        matcher,
                        scratch: String::new(),
                    },
                }
            }
            Predicate::IsMissing { column } => BNode::IsMissing {
                nulls: table.column(table.schema().index_of(column)?).null_bitmap(),
            },
            Predicate::And(a, b) => BNode::And(
                Box::new(a.block_node(table)?),
                Box::new(b.block_node(table)?),
            ),
            Predicate::Or(a, b) => BNode::Or(
                Box::new(a.block_node(table)?),
                Box::new(b.block_node(table)?),
            ),
            Predicate::Not(p) => BNode::Not(Box::new(p.block_node(table)?)),
        })
    }
}

/// A predicate bound to a specific table's column indexes — the per-row
/// reference form (see the module docs for the two compiled forms).
#[derive(Debug)]
pub enum CompiledPredicate {
    /// Always true.
    True,
    /// See [`Predicate::Range`].
    Range {
        /// Resolved column index.
        col: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Numeric equality through `as_f64` (matches `Int`/`Double`/`Date`
    /// cells alike; a NaN target matches nothing).
    EqualsNum {
        /// Resolved column index.
        col: usize,
        /// Target value.
        value: f64,
    },
    /// Exact i64-domain equality: an integer constant against an
    /// integer/date column (no f64 rounding beyond 2^53).
    EqualsI64 {
        /// Resolved column index.
        col: usize,
        /// Target value.
        value: i64,
    },
    /// String equality on a dictionary column (never matches elsewhere).
    EqualsStr {
        /// Resolved column index.
        col: usize,
        /// Target string.
        value: Arc<str>,
    },
    /// `Equals(Value::Missing)`: matches exactly the missing rows.
    EqualsMissing {
        /// Resolved column index.
        col: usize,
    },
    /// Text or regex match (see [`Matcher`]).
    Match {
        /// Resolved column index.
        col: usize,
        /// The compiled matcher.
        matcher: Matcher,
        /// Reused display-format buffer for non-string columns.
        scratch: String,
    },
    /// See [`Predicate::IsMissing`].
    IsMissing {
        /// Resolved column index.
        col: usize,
    },
    /// Logical AND.
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Logical OR.
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Logical NOT (exact complement; see the module docs on missing rows).
    Not(Box<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Evaluate against row `row` of `table`. Takes `&mut self` so text
    /// matching on non-string columns can format into a reused scratch
    /// buffer instead of allocating per row.
    pub fn eval(&mut self, table: &Table, row: usize) -> bool {
        match self {
            CompiledPredicate::True => true,
            CompiledPredicate::Range { col, lo, hi } => match table.column(*col).as_f64(row) {
                Some(v) => v >= *lo && v < *hi,
                None => false,
            },
            CompiledPredicate::EqualsNum { col, value } => {
                table.column(*col).as_f64(row) == Some(*value)
            }
            CompiledPredicate::EqualsI64 { col, value } => {
                table.column(*col).as_i64_col().and_then(|c| c.get(row)) == Some(*value)
            }
            CompiledPredicate::EqualsStr { col, value } => {
                table.column(*col).as_dict_col().is_some_and(|d| {
                    !d.nulls().is_null(row) && d.dictionary().compare(d.code(row), value).is_eq()
                })
            }
            CompiledPredicate::EqualsMissing { col } => table.column(*col).is_null(row),
            CompiledPredicate::Match {
                col,
                matcher,
                scratch,
            } => {
                let c = table.column(*col);
                if c.is_null(row) {
                    return false;
                }
                match c.as_dict_col() {
                    Some(d) => matcher.matches(d.read(row, scratch).expect("checked non-null")),
                    // Non-string columns are matched against their display
                    // text, like searching a spreadsheet.
                    None => {
                        scratch.clear();
                        let _ = write!(scratch, "{}", c.value(row));
                        matcher.matches(scratch)
                    }
                }
            }
            CompiledPredicate::IsMissing { col } => table.column(*col).is_null(row),
            CompiledPredicate::And(a, b) => a.eval(table, row) && b.eval(table, row),
            CompiledPredicate::Or(a, b) => a.eval(table, row) || b.eval(table, row),
            CompiledPredicate::Not(p) => !p.eval(table, row),
        }
    }
}

/// Exact or substring match with optional ASCII case folding. `query` is
/// pre-folded at compile; the haystack is folded byte-by-byte *during* the
/// comparison, so case-insensitive matching allocates nothing.
fn text_match(hay: &str, query: &str, exact: bool, case_insensitive: bool) -> bool {
    if !case_insensitive {
        return if exact {
            hay == query
        } else {
            hay.contains(query)
        };
    }
    let (h, q) = (hay.as_bytes(), query.as_bytes());
    if exact {
        h.len() == q.len() && folded_eq(h, q)
    } else {
        // UTF-8 substring containment is byte-substring containment, and
        // ASCII folding is per-byte, so a folded byte-window scan matches
        // exactly what `hay.to_ascii_lowercase().contains(query)` would.
        q.is_empty()
            || (h.len() >= q.len()
                && (0..=h.len() - q.len()).any(|i| folded_eq(&h[i..i + q.len()], q)))
    }
}

/// `a` equals `b` after folding `a` to ASCII lowercase (`b` pre-folded).
#[inline]
fn folded_eq(a: &[u8], b: &[u8]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x.to_ascii_lowercase() == y)
}

/// Smallest `i64` whose `as f64` conversion is `>= lo`, or `None` when no
/// i64 qualifies (NaN, or `lo` above the i64 range). `i64 → f64` is
/// monotone, so for every i64 `v`: `(v as f64) >= lo ⇔ v >= bound` — this
/// is what makes the integer-domain bounds exactly equivalent to the
/// per-row f64 comparison.
fn int_lower_bound(lo: f64) -> Option<i64> {
    if lo.is_nan() {
        return None;
    }
    if lo <= i64::MIN as f64 {
        return Some(i64::MIN);
    }
    if lo > i64::MAX as f64 {
        return None;
    }
    let g = lo.ceil();
    let mut v = if g >= i64::MAX as f64 {
        i64::MAX
    } else {
        g as i64
    };
    // Fix up rounding at magnitudes beyond 2^53: enforce minimality of
    // (v as f64) >= lo. Both loops take at most one ulp's worth of steps.
    while (v as f64) < lo {
        v = v.checked_add(1)?;
    }
    while v > i64::MIN && ((v - 1) as f64) >= lo {
        v -= 1;
    }
    Some(v)
}

/// Largest `i64` whose `as f64` conversion is `< hi`, or `None` when every
/// conversion is at or above `hi` (or `hi` is NaN) — i.e. nothing passes.
fn int_upper_bound_excl(hi: f64) -> Option<i64> {
    if hi.is_nan() {
        return None;
    }
    match int_lower_bound(hi) {
        None => Some(i64::MAX),
        Some(i64::MIN) => None,
        Some(x) => Some(x - 1),
    }
}

/// A compiled text matcher — exact/substring (query case-folded once at
/// compile) or lite-regex — shared by the rowwise reference form, the
/// dictionary-bitmap build, and the display-text block leaf, so all three
/// apply the identical matching rules.
#[derive(Debug)]
pub enum Matcher {
    /// Exact or substring text match.
    Text {
        /// Case-folded query.
        query: String,
        /// Whole-cell equality instead of substring.
        exact: bool,
        /// Fold the haystack's ASCII case too (without allocating).
        case_insensitive: bool,
    },
    /// Pre-compiled lite-regex pattern.
    Regex(Regex),
}

impl Matcher {
    fn compile(query: &str, kind: &StrMatchKind, case_insensitive: bool) -> Result<Matcher> {
        Ok(match kind {
            StrMatchKind::Regex => Matcher::Regex(Regex::compile(query, case_insensitive)?),
            _ => Matcher::Text {
                query: if case_insensitive {
                    query.to_ascii_lowercase()
                } else {
                    query.to_string()
                },
                exact: *kind == StrMatchKind::Exact,
                case_insensitive,
            },
        })
    }

    fn matches(&self, s: &str) -> bool {
        match self {
            Matcher::Text {
                query,
                exact,
                case_insensitive,
            } => text_match(s, query, *exact, *case_insensitive),
            Matcher::Regex(r) => r.is_match(s),
        }
    }
}

/// A predicate compiled to the block-wise form, bound to one table's
/// columns (see the module docs for the two compiled forms). Frames must
/// be requested in ascending base order within one scan; leaves keep
/// ascending decode cursors, which tolerate skipped frames.
#[derive(Debug)]
pub(crate) struct BlockPredicate<'a> {
    node: BNode<'a>,
}

impl BlockPredicate<'_> {
    /// The matching rows of the 64-row-aligned frame `base .. base + len`:
    /// given the word of rows the caller has selected (`sel`), returns the
    /// subset whose rows satisfy the predicate. Bit-identical to testing
    /// [`CompiledPredicate::eval`] on every set bit of `sel`.
    pub(crate) fn eval_frame(&mut self, base: usize, len: usize, sel: u64) -> u64 {
        eval_node(&mut self.node, base, len, sel)
    }
}

#[derive(Debug)]
enum BNode<'a> {
    /// Constant result (degenerate compiles: empty ranges, NaN targets,
    /// strings absent from the dictionary, type mismatches).
    Always(bool),
    /// Selected and non-null (an all-matching dictionary bitmap).
    Present {
        nulls: Option<&'a Bitmap>,
    },
    /// Selected and null.
    IsMissing {
        nulls: Option<&'a Bitmap>,
    },
    /// `lo <= v < hi` lane compare on a float column.
    RangeF64 {
        data: &'a F64Storage,
        nulls: Option<&'a Bitmap>,
        zones: &'a ZoneMap<f64>,
        lo: f64,
        hi: f64,
        cursor: usize,
        buf: Box<[f64; BLOCK_ROWS]>,
    },
    /// `v == value` lane compare on a float column.
    EqualsF64 {
        data: &'a F64Storage,
        nulls: Option<&'a Bitmap>,
        zones: &'a ZoneMap<f64>,
        value: f64,
        cursor: usize,
        buf: Box<[f64; BLOCK_ROWS]>,
    },
    /// Inclusive integer-domain bounds on an integer/date column (range
    /// *and* numeric equality both lower to this).
    RangeI64 {
        storage: &'a I64Storage,
        nulls: Option<&'a Bitmap>,
        zones: &'a ZoneMap<i64>,
        lo: i64,
        hi: i64,
        cursor: usize,
        buf: Box<[i64; BLOCK_ROWS]>,
    },
    /// Code equality on a dictionary column (string `Equals`).
    EqualsCode {
        codes: &'a CodeStorage,
        nulls: Option<&'a Bitmap>,
        zones: &'a ZoneMap<u32>,
        code: u32,
        cursor: usize,
        buf: Box<[u32; BLOCK_ROWS]>,
    },
    /// Dictionary match bitmap probed by the code lane (text/regex on
    /// string columns).
    MatchCodes {
        codes: &'a CodeStorage,
        nulls: Option<&'a Bitmap>,
        zones: &'a ZoneMap<u32>,
        bits: Vec<u64>,
        cursor: usize,
        buf: Box<[u32; BLOCK_ROWS]>,
    },
    /// Display-text match on non-string columns (formats live lanes into a
    /// reused scratch buffer).
    MatchDisplay {
        col: &'a Column,
        nulls: Option<&'a Bitmap>,
        matcher: Matcher,
        scratch: String,
    },
    And(Box<BNode<'a>>, Box<BNode<'a>>),
    Or(Box<BNode<'a>>, Box<BNode<'a>>),
    Not(Box<BNode<'a>>),
}

/// `sel` restricted to non-null rows of the frame's 64-row block.
#[inline]
fn live_word(nulls: Option<&Bitmap>, base: usize, sel: u64) -> u64 {
    sel & !nulls.map_or(0, |nb| nb.word(base / 64))
}

/// How a block classifies against the zone maps.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tri {
    AllPass,
    AllFail,
    Mixed,
}

impl Tri {
    /// The verdict, given whether no value of the block can pass and
    /// whether every one must.
    #[inline]
    fn of(none: bool, all: bool) -> Tri {
        if none {
            Tri::AllFail
        } else if all {
            Tri::AllPass
        } else {
            Tri::Mixed
        }
    }
}

// What a block's zone-map entry `(min, max)` alone settles for each value
// leaf — the one statement of the short-circuits `eval_node` acts on and
// `classify_node` counts: `AllFail` when no value of the block can pass,
// `AllPass` when every *present* one must, `Mixed` when the lanes have to
// be decoded.

#[inline]
fn zone_range_f64((zmin, zmax): (f64, f64), lo: f64, hi: f64) -> Tri {
    Tri::of(zmax < lo || zmin >= hi, zmin >= lo && zmax < hi)
}

/// All-pass is a constant block equal to the target.
#[inline]
fn zone_equals_f64((zmin, zmax): (f64, f64), value: f64) -> Tri {
    Tri::of(value < zmin || value > zmax, zmin == zmax && zmin == value)
}

#[inline]
fn zone_range_i64((zmin, zmax): (i64, i64), lo: i64, hi: i64) -> Tri {
    Tri::of(zmax < lo || zmin > hi, zmin >= lo && zmax <= hi)
}

/// All-pass is a constant block: its one code lies in `zmin..=zmax`, so it
/// is the target.
#[inline]
fn zone_equals_code((zmin, zmax): (u32, u32), code: u32) -> Tri {
    Tri::of(code < zmin || code > zmax, zmin == zmax)
}

/// Sweep the match bitmap over the block's code interval: sorted or
/// low-cardinality categorical data has narrow per-block code ranges, so a
/// cheap sweep decides whole blocks. Wide intervals skip the sweep rather
/// than pay O(interval) per block.
fn zone_match_codes((zmin, zmax): (u32, u32), bits: &[u64]) -> Tri {
    if zmax - zmin >= 256 {
        return Tri::Mixed;
    }
    let hit = |c: u32| bits[c as usize / 64] >> (c % 64) & 1 == 1;
    Tri::of(!(zmin..=zmax).any(hit), (zmin..=zmax).all(hit))
}

fn eval_node(node: &mut BNode<'_>, base: usize, len: usize, sel: u64) -> u64 {
    if sel == 0 {
        return 0;
    }
    match node {
        BNode::Always(pass) => {
            if *pass {
                sel
            } else {
                0
            }
        }
        BNode::Present { nulls } => live_word(*nulls, base, sel),
        BNode::IsMissing { nulls } => sel & nulls.map_or(0, |nb| nb.word(base / 64)),
        BNode::RangeF64 {
            data,
            nulls,
            zones,
            lo,
            hi,
            cursor,
            buf,
        } => {
            let live = live_word(*nulls, base, sel);
            if live == 0 {
                return 0;
            }
            match zone_range_f64(zones.block(base / 64), *lo, *hi) {
                Tri::AllFail => 0,
                Tri::AllPass => live,
                Tri::Mixed => {
                    let lanes = data.decode_frame(cursor, base, len, buf);
                    simd::range_word_half(lanes, *lo, *hi) & live
                }
            }
        }
        BNode::EqualsF64 {
            data,
            nulls,
            zones,
            value,
            cursor,
            buf,
        } => {
            let live = live_word(*nulls, base, sel);
            if live == 0 {
                return 0;
            }
            match zone_equals_f64(zones.block(base / 64), *value) {
                Tri::AllFail => 0,
                Tri::AllPass => live,
                Tri::Mixed => {
                    simd::eq_word(data.decode_frame(cursor, base, len, buf), *value) & live
                }
            }
        }
        BNode::RangeI64 {
            storage,
            nulls,
            zones,
            lo,
            hi,
            cursor,
            buf,
        } => {
            let live = live_word(*nulls, base, sel);
            if live == 0 {
                return 0;
            }
            match zone_range_i64(zones.block(base / 64), *lo, *hi) {
                Tri::AllFail => 0,
                Tri::AllPass => live,
                Tri::Mixed => storage.range_frame_word(cursor, base, len, *lo, *hi, buf) & live,
            }
        }
        BNode::EqualsCode {
            codes,
            nulls,
            zones,
            code,
            cursor,
            buf,
        } => {
            let live = live_word(*nulls, base, sel);
            if live == 0 {
                return 0;
            }
            match zone_equals_code(zones.block(base / 64), *code) {
                Tri::AllFail => 0,
                Tri::AllPass => live,
                Tri::Mixed => codes.range_frame_word(cursor, base, len, *code, *code, buf) & live,
            }
        }
        BNode::MatchCodes {
            codes,
            nulls,
            zones,
            bits,
            cursor,
            buf,
        } => {
            let live = live_word(*nulls, base, sel);
            if live == 0 {
                return 0;
            }
            match zone_match_codes(zones.block(base / 64), bits) {
                Tri::AllFail => 0,
                Tri::AllPass => live,
                Tri::Mixed => {
                    simd::probe_word(codes.decode_frame(cursor, base, len, buf), bits) & live
                }
            }
        }
        BNode::MatchDisplay {
            col,
            nulls,
            matcher,
            scratch,
        } => {
            let mut live = live_word(*nulls, base, sel);
            let mut w = 0u64;
            while live != 0 {
                let k = live.trailing_zeros() as usize;
                live &= live - 1;
                scratch.clear();
                let _ = write!(scratch, "{}", col.value(base + k));
                if matcher.matches(scratch) {
                    w |= 1 << k;
                }
            }
            w
        }
        BNode::And(a, b) => {
            let l = eval_node(a, base, len, sel);
            if l == 0 {
                0
            } else {
                eval_node(b, base, len, l)
            }
        }
        BNode::Or(a, b) => {
            let l = eval_node(a, base, len, sel);
            l | eval_node(b, base, len, sel & !l)
        }
        BNode::Not(a) => sel & !eval_node(a, base, len, sel),
    }
}

/// Evaluate `predicate` over the rows of `parent`, returning the narrowed
/// membership — the block filter pipeline behind `Worker::filter`.
///
/// This is the fused walk with a bitmap for its kernel: the parent
/// membership is walked as a [`Selection::Filtered`], so every 64-row
/// selection word (sparse parents grouped into per-block words) goes
/// through `BlockPredicate::eval_frame`, and each non-zero match word is
/// stored into the result's bitmap directly — no per-row id list is ever
/// materialized by the evaluation loop. The final representation
/// (full/dense/sparse) is chosen by the usual §5.6 selectivity rule.
pub fn filter_members(
    table: &Table,
    predicate: &Predicate,
    parent: &MembershipSet,
) -> Result<MembershipSet> {
    let n = table.num_rows();
    debug_assert_eq!(parent.universe(), n, "membership universe mismatch");
    let filter = core::cell::RefCell::new(FrameFilter::compile(predicate, table)?);
    let mut words = vec![0u64; n.div_ceil(64)];
    let sel = Selection::Filtered {
        base: &Selection::Members(parent),
        filter: &filter,
    };
    scan_frames(&sel, |ev| {
        if let FrameEvent::Frame { base, word, .. } = ev {
            words[base / 64] = word;
        }
    });
    Ok(MembershipSet::from_mask(&Bitmap::from_words(words, n)))
}

/// A compiled predicate packaged for **fused** scans: the filter stage of a
/// one-pass `(predicate, sketch)` query.
///
/// Where [`filter_members`] materializes a narrowed [`MembershipSet`] that a
/// kernel then re-walks (two memory passes), a `FrameFilter` is handed to
/// [`Selection::Filtered`](crate::scan::Selection) and evaluated *inside*
/// the kernel's walk ([`scan_frames`]): each parent selection word is
/// turned into its match word on the fly, zero words are dropped before
/// any column decode happens, and the surviving words flow straight into
/// the block kernel. Zone maps therefore prune for both stages at once — a
/// block the predicate skips is never decoded for the kernel either.
///
/// The filter counts matching rows as a side effect ([`FrameFilter::matched`]
/// replaces the pre-scan `Selection::count()` kernels use on materialized
/// memberships) and is strictly **single-pass**: the underlying
/// `BlockPredicate` decode cursors only move forward, so a second walk
/// or a `count()` on the filtered selection panics instead of silently
/// returning garbage.
pub struct FrameFilter<'a> {
    pred: BlockPredicate<'a>,
    universe: usize,
    matched: u64,
    started: bool,
}

impl std::fmt::Debug for FrameFilter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameFilter")
            .field("universe", &self.universe)
            .field("matched", &self.matched)
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl<'a> FrameFilter<'a> {
    /// Compile `predicate` against `table` for fused evaluation.
    pub fn compile(predicate: &Predicate, table: &'a Table) -> Result<Self> {
        Ok(FrameFilter {
            pred: predicate.compile_blockwise(table)?,
            universe: table.num_rows(),
            matched: 0,
            started: false,
        })
    }

    /// Rows that passed the predicate so far; after a scan drains the
    /// filtered selection this is the filtered row count.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Marks the start of the (single permitted) pass.
    pub(crate) fn begin(&mut self) {
        assert!(
            !self.started,
            "FrameFilter is single-pass: a filtered selection can only be scanned once \
             (compile a fresh filter, or materialize with filter_members for reuse)"
        );
        self.started = true;
    }

    /// Evaluate the parent selection `word` of the 64-row block at `base`
    /// (64-aligned, `word != 0`) and return the word of matching rows.
    pub(crate) fn eval_word(&mut self, base: usize, word: u64) -> u64 {
        let len = (64 - word.leading_zeros() as usize).min(self.universe - base);
        let m = self.pred.eval_frame(base, len, word);
        self.matched += u64::from(m.count_ones());
        m
    }
}

/// Per-row reference of [`filter_members`]: iterate the parent membership
/// and test [`CompiledPredicate::eval`] on every row. Kept for the
/// block-vs-rowwise equivalence property tests and as the benchmark
/// baseline (this is exactly the filter loop the worker ran before the
/// block pipeline).
pub fn filter_members_rowwise(
    table: &Table,
    predicate: &Predicate,
    parent: &MembershipSet,
) -> Result<MembershipSet> {
    let mut compiled = predicate.compile(table)?;
    let rows: Vec<u32> = parent
        .iter()
        .filter(|&r| compiled.eval(table, r))
        .map(|r| r as u32)
        .collect();
    Ok(MembershipSet::from_rows(rows, table.num_rows()))
}

// ---------------------------------------------------------------------
// Canonicalization + identity hashing (paper §5.4: the computation cache
// needs query *identity*, and a predicate's identity must survive the
// syntactic noise of how the UI assembled it).
// ---------------------------------------------------------------------

/// The canonical structural form a predicate normalizes into for identity
/// hashing. **Never executed** — execution always runs the original tree —
/// this form only decides when two predicates are the *same query*:
///
/// * negation-normal form: `Not` is pushed through `And`/`Or` by De Morgan
///   and double negations cancel, so `Not(Not(p))` ≡ `p` and
///   `Not(a.or(b))` ≡ `a.not().and(b.not())`;
/// * `And`/`Or` chains flatten into sorted, deduplicated operand lists, so
///   `a.and(b)` ≡ `b.and(a)` and `a.and(a)` ≡ `a`;
/// * numeric bounds on integer-kinded columns normalize through the same
///   [`int_lower_bound`]/[`int_upper_bound_excl`] translation the block
///   compiler uses, so `Range(10.2, 19.7)` ≡ `Range(11.0, 20.0)` on an
///   `Int` column, and an integer `Equals` lowers to the same inclusive
///   interval leaf as the equivalent one-value `Range`;
/// * statically-empty leaves (NaN bounds, `lo >= hi`, empty snapped
///   intervals) collapse to `False`, and constants propagate through the
///   connectives (`And` with `False` is `False`, `Or` with `True` is
///   `True`, ...).
#[derive(Debug, Clone, PartialEq)]
enum Canon {
    True,
    False,
    /// `lo <= x < hi` on a float-kinded (or unresolved) column.
    RangeF(Arc<str>, u64, u64),
    /// Inclusive integer-domain interval on an `Int`/`Date` column.
    RangeI(Arc<str>, i64, i64),
    /// Numeric equality through `as_f64` (bit pattern of the target).
    EqualsF(Arc<str>, u64),
    /// String equality on a column.
    EqualsStr(Arc<str>, Arc<str>),
    /// Text/regex match; the query is case-folded when insensitive, so the
    /// two spellings of a case-insensitive search hash equal.
    Match(Arc<str>, String, u8),
    /// The row is missing in the column (`IsMissing` and
    /// `Equals(Value::Missing)` both land here — they match identical rows).
    Missing(Arc<str>),
    And(Vec<Canon>),
    Or(Vec<Canon>),
    /// Negated leaf (NNF keeps `Not` only directly above leaves).
    Not(Box<Canon>),
}

impl Canon {
    /// Deterministic structural encoding: tag byte, then length-prefixed
    /// operands. Operand lists are already sorted by their encodings.
    fn encode(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        match self {
            Canon::True => out.push(0),
            Canon::False => out.push(1),
            Canon::RangeF(c, lo, hi) => {
                out.push(2);
                put_str(out, c);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            Canon::RangeI(c, lo, hi) => {
                out.push(3);
                put_str(out, c);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            Canon::EqualsF(c, bits) => {
                out.push(4);
                put_str(out, c);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Canon::EqualsStr(c, s) => {
                out.push(5);
                put_str(out, c);
                put_str(out, s);
            }
            Canon::Match(c, q, mode) => {
                out.push(6);
                put_str(out, c);
                put_str(out, q);
                out.push(*mode);
            }
            Canon::Missing(c) => {
                out.push(7);
                put_str(out, c);
            }
            Canon::And(ops) | Canon::Or(ops) => {
                out.push(if matches!(self, Canon::And(_)) { 8 } else { 9 });
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for op in ops {
                    op.encode(out);
                }
            }
            Canon::Not(p) => {
                out.push(10);
                p.encode(out);
            }
        }
    }
}

/// Normalize an f64 for canonical encoding: `-0.0` compares equal to
/// `0.0` in every predicate, so both encode as `0.0`. NaN never reaches
/// this point (NaN leaves collapse to `False` first).
fn canon_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// True when the named column exists in `table` and is integer-kinded
/// (`Int`/`Date`), i.e. the block compiler would translate range bounds
/// into the i64 domain for it.
fn int_kinded(table: Option<&Table>, column: &str) -> bool {
    table
        .and_then(|t| t.schema().index_of(column).ok().map(|i| t.column(i)))
        .is_some_and(|c| matches!(c, Column::Int(_) | Column::Date(_)))
}

fn canon_node(p: &Predicate, neg: bool, table: Option<&Table>) -> Canon {
    match p {
        Predicate::Not(inner) => canon_node(inner, !neg, table),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            // De Morgan: a negated And is an Or of negations (and vice
            // versa), so NNF needs only the negation flag.
            let is_and = matches!(p, Predicate::And(..)) != neg;
            let mut ops = Vec::new();
            for side in [a, b] {
                match canon_node(side, neg, table) {
                    // Flatten same-connective children into one list.
                    Canon::And(inner) if is_and => ops.extend(inner),
                    Canon::Or(inner) if !is_and => ops.extend(inner),
                    // Identity elements vanish; absorbing elements decide.
                    Canon::True if is_and => {}
                    Canon::False if !is_and => {}
                    Canon::True => return Canon::True,
                    Canon::False => return Canon::False,
                    other => ops.push(other),
                }
            }
            // Sort operands by their structural encodings and drop
            // duplicates (idempotence: `a AND a` ≡ `a`).
            let mut keyed: Vec<(Vec<u8>, Canon)> = ops
                .into_iter()
                .map(|c| {
                    let mut k = Vec::new();
                    c.encode(&mut k);
                    (k, c)
                })
                .collect();
            keyed.sort_by(|x, y| x.0.cmp(&y.0));
            keyed.dedup_by(|x, y| x.0 == y.0);
            let ops: Vec<Canon> = keyed.into_iter().map(|(_, c)| c).collect();
            match (ops.len(), is_and) {
                (0, true) => Canon::True,
                (0, false) => Canon::False,
                (1, _) => ops.into_iter().next().unwrap(),
                (_, true) => Canon::And(ops),
                (_, false) => Canon::Or(ops),
            }
        }
        leaf => {
            let c = canon_leaf(leaf, table);
            if neg {
                match c {
                    Canon::True => Canon::False,
                    Canon::False => Canon::True,
                    other => Canon::Not(Box::new(other)),
                }
            } else {
                c
            }
        }
    }
}

fn canon_leaf(p: &Predicate, table: Option<&Table>) -> Canon {
    match p {
        Predicate::True => Canon::True,
        Predicate::Range { column, lo, hi } => {
            if lo.is_nan() || hi.is_nan() || lo >= hi {
                return Canon::False;
            }
            if int_kinded(table, column) {
                // The same translation the block compiler applies: the
                // smallest/largest i64 whose f64 image satisfies the bound.
                match (int_lower_bound(*lo), int_upper_bound_excl(*hi)) {
                    (Some(l), Some(u)) if l <= u => Canon::RangeI(column.clone(), l, u),
                    _ => Canon::False,
                }
            } else {
                Canon::RangeF(column.clone(), canon_f64_bits(*lo), canon_f64_bits(*hi))
            }
        }
        Predicate::Equals { column, value } => match value {
            Value::Missing => Canon::Missing(column.clone()),
            Value::Str(s) => Canon::EqualsStr(column.clone(), s.clone()),
            v => match (v.as_i64(), int_kinded(table, column)) {
                // Same lowering as the compiler: exact i64 equality on an
                // integer column is the one-value inclusive interval.
                (Some(i), true) => Canon::RangeI(column.clone(), i, i),
                _ => {
                    let f = v.as_f64().expect("numeric value");
                    if f.is_nan() {
                        Canon::False
                    } else {
                        Canon::EqualsF(column.clone(), canon_f64_bits(f))
                    }
                }
            },
        },
        Predicate::StrMatch {
            column,
            query,
            kind,
            case_insensitive,
        } => {
            let q = if *case_insensitive && *kind != StrMatchKind::Regex {
                query.to_ascii_lowercase()
            } else {
                query.to_string()
            };
            let mode = match kind {
                StrMatchKind::Exact => 0u8,
                StrMatchKind::Substring => 1,
                StrMatchKind::Regex => 2,
            } | (u8::from(*case_insensitive) << 4);
            Canon::Match(column.clone(), q, mode)
        }
        Predicate::IsMissing { column } => Canon::Missing(column.clone()),
        Predicate::And(..) | Predicate::Or(..) | Predicate::Not(..) => {
            unreachable!("handled by canon_node")
        }
    }
}

/// FNV-1a over a byte slice, continuing from `state` — the same hash the
/// engine uses for wire checksums; collisions only cost a cache miss here
/// because the full key is compared on lookup.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis (the conventional starting state for [`fnv1a`]).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

impl Predicate {
    /// The canonical structural encoding of this predicate, optionally
    /// schema-aware: when `table` is given, numeric bounds on its
    /// integer-kinded columns normalize through the block compiler's
    /// integer-domain translation (see `Canon`). Two predicates with
    /// equal canonical bytes select identical rows on every table
    /// consistent with the schema used; the encoding is the basis of the
    /// engine's predicate-identity cache keys.
    pub fn canonical_bytes(&self, table: Option<&Table>) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        canon_node(self, false, table).encode(&mut out);
        out
    }
}

// ---------------------------------------------------------------------
// Zone-map block classification.
// ---------------------------------------------------------------------

/// How many of a table's 64-row blocks the zone maps prove fully failing
/// for a predicate — the blocks both the fused pass and the filter
/// pipeline skip without decoding. Estimates from different
/// partitions/workers sum with [`SelectivityEstimate::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectivityEstimate {
    /// 64-row blocks examined.
    pub blocks: u64,
    /// Blocks the zone maps prove fully failing.
    pub all_fail: u64,
}

impl SelectivityEstimate {
    /// Combine estimates of disjoint data (summing every counter).
    pub fn merge(&self, other: &Self) -> Self {
        SelectivityEstimate {
            blocks: self.blocks + other.blocks,
            all_fail: self.all_fail + other.all_fail,
        }
    }

    /// Fraction of blocks the zone maps prove fully failing.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn skip_fraction(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.all_fail as f64 / self.blocks as f64
        }
    }
}

/// Classify one 64-row block using only zone maps and null words: the
/// `zone_*` verdicts at the value leaves — so `Mixed` exactly where
/// `eval_node` would decode — folded through the connectives. Null rows are
/// ignored (they affect which rows pass, not whether a decode happens),
/// so `AllPass` means "every *present* row passes".
fn classify_node(node: &BNode<'_>, block: usize) -> Tri {
    match node {
        BNode::Always(true) => Tri::AllPass,
        BNode::Always(false) => Tri::AllFail,
        BNode::Present { .. } => Tri::AllPass,
        BNode::IsMissing { nulls } => match nulls.map_or(0, |nb| nb.word(block)) {
            0 => Tri::AllFail,
            _ => Tri::Mixed,
        },
        BNode::RangeF64 { zones, lo, hi, .. } => zone_range_f64(zones.block(block), *lo, *hi),
        BNode::EqualsF64 { zones, value, .. } => zone_equals_f64(zones.block(block), *value),
        BNode::RangeI64 { zones, lo, hi, .. } => zone_range_i64(zones.block(block), *lo, *hi),
        BNode::EqualsCode { zones, code, .. } => zone_equals_code(zones.block(block), *code),
        BNode::MatchCodes { zones, bits, .. } => zone_match_codes(zones.block(block), bits),
        BNode::MatchDisplay { .. } => Tri::Mixed,
        BNode::And(a, b) => match (classify_node(a, block), classify_node(b, block)) {
            (Tri::AllFail, _) | (_, Tri::AllFail) => Tri::AllFail,
            (Tri::AllPass, Tri::AllPass) => Tri::AllPass,
            _ => Tri::Mixed,
        },
        BNode::Or(a, b) => match (classify_node(a, block), classify_node(b, block)) {
            (Tri::AllPass, _) | (_, Tri::AllPass) => Tri::AllPass,
            (Tri::AllFail, Tri::AllFail) => Tri::AllFail,
            _ => Tri::Mixed,
        },
        BNode::Not(a) => match classify_node(a, block) {
            Tri::AllPass => Tri::AllFail,
            Tri::AllFail => Tri::AllPass,
            Tri::Mixed => Tri::Mixed,
        },
    }
}

/// Classify every 64-row block of `table` for `predicate` from zone maps
/// and null words alone, decoding nothing, and count the ones that fail
/// whole.
pub fn estimate_selectivity(table: &Table, predicate: &Predicate) -> Result<SelectivityEstimate> {
    let blocks = table.num_rows().div_ceil(64);
    let bp = predicate.compile_blockwise(table)?;
    let all_fail = (0..blocks)
        .filter(|&b| classify_node(&bp.node, b) == Tri::AllFail)
        .count();
    Ok(SelectivityEstimate {
        blocks: blocks as u64,
        all_fail: all_fail as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, DictColumn, F64Column, I64Column};
    use crate::nullmask::NullMask;
    use crate::schema::ColumnKind;

    fn table() -> Table {
        Table::builder()
            .column(
                "Server",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([
                    Some("Gandalf"),
                    Some("gandalf-2"),
                    Some("Frodo"),
                    None,
                ])),
            )
            .column(
                "Delay",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(5.0),
                    Some(15.0),
                    Some(-3.0),
                    None,
                ])),
            )
            .column(
                "Count",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(5), Some(15), None, Some(-3)])),
            )
            .build()
            .unwrap()
    }

    fn rows_matching(t: &Table, p: &Predicate) -> Vec<usize> {
        let mut c = p.compile(t).unwrap();
        let rowwise: Vec<usize> = (0..t.num_rows()).filter(|&r| c.eval(t, r)).collect();
        // Every rowwise answer is also checked against the block pipeline.
        let m = filter_members(t, p, &MembershipSet::full(t.num_rows())).unwrap();
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            rowwise,
            "block and rowwise disagree for {p:?}"
        );
        rowwise
    }

    #[test]
    fn range_excludes_missing_and_respects_bounds() {
        let t = table();
        let p = Predicate::range("Delay", 0.0, 15.0);
        assert_eq!(rows_matching(&t, &p), vec![0]);
        let p = Predicate::range("Delay", -10.0, 100.0);
        assert_eq!(rows_matching(&t, &p), vec![0, 1, 2]);
        // Integer column through the same f64 bounds.
        let p = Predicate::range("Count", 0.0, 15.0);
        assert_eq!(rows_matching(&t, &p), vec![0]);
        // NaN bounds match nothing.
        let p = Predicate::range("Delay", f64::NAN, 100.0);
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
        let p = Predicate::range("Count", 0.0, f64::NAN);
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
    }

    #[test]
    fn equals_matches_values_and_missing() {
        let t = table();
        let p = Predicate::equals("Server", "Frodo");
        assert_eq!(rows_matching(&t, &p), vec![2]);
        let p = Predicate::equals("Server", Value::Missing);
        assert_eq!(rows_matching(&t, &p), vec![3]);
    }

    #[test]
    fn equals_double_matches_integer_column() {
        // Regression: strict Value equality used to make Equals(Double(5.0))
        // never match an I64 cell displaying 5; numeric comparison now
        // normalizes through as_f64.
        let t = table();
        let p = Predicate::equals("Count", 5.0);
        assert_eq!(rows_matching(&t, &p), vec![0]);
        // And the converse: an Int constant against a Double column.
        let p = Predicate::equals("Delay", 15i64);
        assert_eq!(rows_matching(&t, &p), vec![1]);
        // Date constants compare numerically too.
        let p = Predicate::Equals {
            column: Arc::from("Count"),
            value: Value::Date(15),
        };
        assert_eq!(rows_matching(&t, &p), vec![1]);
    }

    #[test]
    fn equals_int_is_exact_beyond_2_pow_53() {
        // Regression (review finding): an integer constant against an
        // integer column must compare in the i64 domain — adjacent ids
        // beyond 2^53 round to the same f64 and must not merge.
        let big = 1i64 << 53;
        let t = Table::builder()
            .column(
                "Id",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(big), Some(big + 1), None])),
            )
            .build()
            .unwrap();
        let p = Predicate::equals("Id", Value::Int(big + 1));
        assert_eq!(rows_matching(&t, &p), vec![1]);
        let p = Predicate::equals("Id", Value::Int(big));
        assert_eq!(rows_matching(&t, &p), vec![0]);
        // A Double constant opts into f64 semantics: both cells round to
        // the same double, so both match (documented).
        let p = Predicate::equals("Id", big as f64);
        assert_eq!(rows_matching(&t, &p), vec![0, 1]);
    }

    #[test]
    fn equals_nan_matches_nothing() {
        // Regression: Double(NaN) used to compare Equal to present doubles
        // through the Ord-based PartialEq. The rule is now: NaN equals
        // nothing (Value::from(f64::NAN) is Missing, which matches the
        // missing rows instead — a different, documented constructor).
        let t = table();
        let p = Predicate::Equals {
            column: Arc::from("Delay"),
            value: Value::Double(f64::NAN),
        };
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
        let p = Predicate::Equals {
            column: Arc::from("Count"),
            value: Value::Double(f64::NAN),
        };
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
        // The From<f64> constructor normalizes NaN to Missing.
        let p = Predicate::equals("Delay", f64::NAN);
        assert_eq!(rows_matching(&t, &p), vec![3]);
    }

    #[test]
    fn equals_type_mismatches_never_match() {
        let t = table();
        // String constant against a numeric column.
        let p = Predicate::equals("Count", "5");
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
        // Numeric constant against a string column.
        let p = Predicate::equals("Server", 5.0);
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
        // String absent from the dictionary.
        let p = Predicate::equals("Server", "Sauron");
        assert_eq!(rows_matching(&t, &p), Vec::<usize>::new());
    }

    #[test]
    fn substring_and_exact_search() {
        let t = table();
        let p = Predicate::str_match("Server", "andal", StrMatchKind::Substring, false);
        assert_eq!(rows_matching(&t, &p), vec![0, 1]);
        let p = Predicate::str_match("Server", "Gandalf", StrMatchKind::Exact, false);
        assert_eq!(rows_matching(&t, &p), vec![0]);
    }

    #[test]
    fn case_insensitive_search() {
        let t = table();
        let p = Predicate::str_match("Server", "GANDALF", StrMatchKind::Substring, true);
        assert_eq!(rows_matching(&t, &p), vec![0, 1]);
        let p = Predicate::str_match("Server", "GANDALF", StrMatchKind::Exact, true);
        assert_eq!(rows_matching(&t, &p), vec![0]);
        // Empty queries match every present cell.
        let p = Predicate::str_match("Server", "", StrMatchKind::Substring, true);
        assert_eq!(rows_matching(&t, &p), vec![0, 1, 2]);
    }

    #[test]
    fn regex_search() {
        let t = table();
        let p = Predicate::str_match("Server", "^[Gg]andalf", StrMatchKind::Regex, false);
        assert_eq!(rows_matching(&t, &p), vec![0, 1]);
    }

    #[test]
    fn text_search_on_numeric_column_uses_display() {
        let t = table();
        let p = Predicate::str_match("Delay", "15", StrMatchKind::Substring, false);
        assert_eq!(rows_matching(&t, &p), vec![1]);
        // Integer columns too (scratch-buffer formatting path).
        let p = Predicate::str_match("Count", "-3", StrMatchKind::Substring, false);
        assert_eq!(rows_matching(&t, &p), vec![3]);
        let p = Predicate::str_match("Count", "5", StrMatchKind::Exact, false);
        assert_eq!(rows_matching(&t, &p), vec![0]);
    }

    #[test]
    fn not_over_missing_includes_missing_rows() {
        // Documented complement rule: Not(p) matches exactly the rows p
        // rejects, *including* rows missing in p's column.
        let t = table();
        let p = Predicate::range("Delay", 0.0, 100.0).not();
        assert_eq!(rows_matching(&t, &p), vec![2, 3], "row 3 is missing");
        // Conjoining not-missing excludes them, per the documented recipe.
        let p = Predicate::range("Delay", 0.0, 100.0).not().and(
            Predicate::IsMissing {
                column: Arc::from("Delay"),
            }
            .not(),
        );
        assert_eq!(rows_matching(&t, &p), vec![2]);
        // Same rule through Equals and StrMatch.
        let p = Predicate::equals("Server", "Frodo").not();
        assert_eq!(rows_matching(&t, &p), vec![0, 1, 3]);
        let p = Predicate::str_match("Server", "andal", StrMatchKind::Substring, false).not();
        assert_eq!(rows_matching(&t, &p), vec![2, 3]);
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let p = Predicate::range("Delay", 0.0, 100.0).and(Predicate::str_match(
            "Server",
            "gandalf",
            StrMatchKind::Substring,
            true,
        ));
        assert_eq!(rows_matching(&t, &p), vec![0, 1]);
        let p = Predicate::equals("Server", "Frodo").or(Predicate::equals("Server", "Gandalf"));
        assert_eq!(rows_matching(&t, &p), vec![0, 2]);
        let p = Predicate::IsMissing {
            column: Arc::from("Delay"),
        }
        .not();
        assert_eq!(rows_matching(&t, &p), vec![0, 1, 2]);
    }

    #[test]
    fn unknown_column_fails_compile() {
        let t = table();
        assert!(Predicate::range("Nope", 0.0, 1.0).compile(&t).is_err());
        assert!(Predicate::range("Nope", 0.0, 1.0)
            .compile_blockwise(&t)
            .is_err());
        assert!(filter_members(
            &t,
            &Predicate::range("Nope", 0.0, 1.0),
            &MembershipSet::full(4)
        )
        .is_err());
    }

    #[test]
    fn true_predicate_matches_everything() {
        let t = table();
        assert_eq!(rows_matching(&t, &Predicate::True).len(), 4);
    }

    #[test]
    fn int_bounds_are_exact_at_the_extremes() {
        // int_lower_bound/int_upper_bound_excl must agree with the f64
        // comparison for every i64, including magnitudes beyond 2^53 where
        // the conversion rounds.
        for lo in [
            f64::NEG_INFINITY,
            i64::MIN as f64,
            -9.007199254740993e15,
            -0.5,
            0.0,
            0.5,
            9.007199254740993e15,
            9.223372036854776e18, // 2^63
            f64::INFINITY,
        ] {
            let b = int_lower_bound(lo);
            for probe in [
                i64::MIN,
                i64::MIN + 1,
                -(1 << 55),
                -1,
                0,
                1,
                1 << 55,
                (1 << 55) + 1,
                i64::MAX - 1,
                i64::MAX,
            ] {
                let direct = (probe as f64) >= lo;
                let via_bound = b.is_some_and(|x| probe >= x);
                assert_eq!(direct, via_bound, "lo={lo} probe={probe} bound={b:?}");
            }
        }
        assert_eq!(int_lower_bound(f64::NAN), None);
        assert_eq!(int_upper_bound_excl(f64::NAN), None);
        assert_eq!(int_upper_bound_excl(f64::INFINITY), Some(i64::MAX));
        assert_eq!(int_upper_bound_excl(i64::MIN as f64), None);
    }

    #[test]
    fn filter_members_respects_parent_membership() {
        let t = table();
        let parent = MembershipSet::from_rows(vec![1, 2, 3], 4);
        let p = Predicate::range("Delay", -10.0, 100.0);
        let m = filter_members(&t, &p, &parent).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 2]);
        let r = filter_members_rowwise(&t, &p, &parent).unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn zone_maps_skip_blocks_on_sorted_data() {
        // A sorted 1k-row integer column: a selective range touches only
        // the boundary blocks, and the result matches the rowwise path.
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..1000).map(Some))),
            )
            .build()
            .unwrap();
        for (lo, hi) in [(250.0, 260.0), (0.0, 1.0), (999.0, 2000.0), (-5.0, 0.0)] {
            let p = Predicate::range("X", lo, hi);
            let parent = MembershipSet::full(1000);
            let a = filter_members(&t, &p, &parent).unwrap();
            let b = filter_members_rowwise(&t, &p, &parent).unwrap();
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                b.iter().collect::<Vec<_>>(),
                "{lo}..{hi}"
            );
        }
    }

    #[test]
    fn dict_zone_maps_skip_blocks_on_sorted_categories() {
        // 640 rows of sorted categories: every per-block code interval is
        // narrow, so Equals and text matches block-skip; results must stay
        // identical to the rowwise reference (and missing rows excluded).
        let cats = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let vals: Vec<Option<&str>> = (0..640)
            .map(|i| {
                if i % 97 == 0 {
                    None
                } else {
                    Some(cats[i / 128])
                }
            })
            .collect();
        let t = Table::builder()
            .column(
                "Cat",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(vals)),
            )
            .build()
            .unwrap();
        for p in [
            Predicate::equals("Cat", "gamma"),
            Predicate::equals("Cat", "alpha"),
            Predicate::str_match("Cat", "a", StrMatchKind::Substring, false),
            Predicate::str_match("Cat", "delta", StrMatchKind::Exact, false),
            Predicate::equals("Cat", "gamma").not(),
        ] {
            rows_matching(&t, &p); // asserts block ≡ rowwise internally
        }
    }

    fn fused_rows(t: &Table, p: &Predicate, parent: &MembershipSet) -> Vec<usize> {
        use core::cell::RefCell;
        let base = Selection::Members(parent);
        let filter = RefCell::new(FrameFilter::compile(p, t).unwrap());
        let sel = Selection::Filtered {
            base: &base,
            filter: &filter,
        };
        let mut rows = Vec::new();
        scan_frames(&sel, |ev| match ev {
            FrameEvent::Frame { base, word, .. } => {
                assert_ne!(word, 0, "filtered selections drop zero words");
                let mut w = word;
                while w != 0 {
                    let k = w.trailing_zeros() as usize;
                    w &= w - 1;
                    rows.push(base + k);
                }
            }
            other => panic!("filtered selections yield only frames, got {other:?}"),
        });
        assert_eq!(
            filter.borrow().matched() as usize,
            rows.len(),
            "matched() must equal the yielded row count"
        );
        rows
    }

    #[test]
    fn fused_selection_matches_filter_members() {
        // One fused pass must yield exactly the rows the two-pass pipeline
        // (filter_members then re-scan) yields, for every parent
        // representation (full / dense / sparse).
        let n = 517;
        let vals: Vec<Option<i64>> = (0..n as i64).map(|i| Some(i * 7919 % 100)).collect();
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(vals)),
            )
            .build()
            .unwrap();
        let full = MembershipSet::full(n);
        let dense = {
            let mut b = Bitmap::new(n);
            for r in (0..n).filter(|r| r % 3 != 1) {
                b.set(r);
            }
            MembershipSet::Dense(b)
        };
        let sparse = MembershipSet::from_rows((0..n as u32).step_by(17).collect(), n);
        for p in [
            Predicate::range("X", 10.0, 35.0),
            Predicate::equals("X", 42i64),
            Predicate::range("X", 10.0, 35.0).not(),
        ] {
            for parent in [&full, &dense, &sparse] {
                let two_pass = filter_members(&t, &p, parent).unwrap();
                assert_eq!(
                    fused_rows(&t, &p, parent),
                    two_pass.iter().collect::<Vec<_>>(),
                    "fused vs two-pass for {p:?}"
                );
            }
        }
    }

    #[test]
    fn not_over_udf_derived_missing_agrees_on_every_path() {
        // A block-compiled ratio column derives Missing three ways: null
        // inputs, zero denominators, and inf/inf lanes whose raw data slot
        // keeps the computed NaN (F64Column only marks it null). `Not` is
        // the exact complement rule, so all of those rows must be selected
        // by `Not(Range)` — and the rowwise, blockwise, and fused filter
        // paths must agree lane for lane despite the NaN placeholders.
        use crate::udf::UdfRegistry;
        let n = 200usize;
        let num = (0..n).map(|i| match i {
            17 | 81 => Some(f64::INFINITY),
            i if i % 13 == 4 => None,
            i => Some(i as f64),
        });
        let den = (0..n).map(|i| match i {
            17 | 81 => Some(f64::INFINITY), // inf/inf -> NaN lane, null row
            i if i % 7 == 2 => Some(0.0),   // division by zero -> Missing
            i if i % 11 == 6 => None,       // missing denominator
            i => Some((i % 9) as f64 - 4.0),
        });
        let t = Table::builder()
            .column(
                "A",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(num)),
            )
            .column(
                "B",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(den)),
            )
            .build()
            .unwrap();
        let mut reg = UdfRegistry::new();
        reg.register_ratio("R", "A", "B");
        let col = reg.materialize("R", &t).unwrap();
        let missing: Vec<usize> = (0..n).filter(|&r| col.value(r) == Value::Missing).collect();
        assert!(missing.contains(&17), "inf/inf must derive Missing");
        let t = t.with_column("R", col).unwrap();

        let parent = MembershipSet::full(n);
        let inside = Predicate::range("R", -2.0, 3.0);
        let complement = inside.clone().not();
        let missing_only = Predicate::IsMissing {
            column: Arc::from("R"),
        };
        for p in [&inside, &complement, &missing_only] {
            let block = filter_members(&t, p, &parent).unwrap();
            let row = filter_members_rowwise(&t, p, &parent).unwrap();
            assert_eq!(
                block.iter().collect::<Vec<_>>(),
                row.iter().collect::<Vec<_>>(),
                "block vs rowwise for {p:?}"
            );
            assert_eq!(
                fused_rows(&t, p, &parent),
                row.iter().collect::<Vec<_>>(),
                "fused vs rowwise for {p:?}"
            );
        }
        let matched_in = filter_members(&t, &inside, &parent).unwrap();
        let matched_not = filter_members(&t, &complement, &parent).unwrap();
        for &r in &missing {
            assert!(
                !matched_in.contains(r),
                "missing row {r} must never satisfy Range"
            );
            assert!(
                matched_not.contains(r),
                "Not(Range) is the exact complement: must select missing row {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "single-pass")]
    fn fused_selection_rejects_second_pass() {
        let t = table();
        let parent = MembershipSet::full(4);
        let base = Selection::Members(&parent);
        let filter = core::cell::RefCell::new(
            FrameFilter::compile(&Predicate::range("Delay", 0.0, 100.0), &t).unwrap(),
        );
        let sel = Selection::Filtered {
            base: &base,
            filter: &filter,
        };
        scan_frames(&sel, |_| {});
        scan_frames(&sel, |_| {}); // must panic: decode cursors cannot rewind
    }

    #[test]
    #[should_panic(expected = "single-pass")]
    fn fused_selection_rejects_count() {
        let t = table();
        let parent = MembershipSet::full(4);
        let base = Selection::Members(&parent);
        let filter = core::cell::RefCell::new(
            FrameFilter::compile(&Predicate::range("Delay", 0.0, 100.0), &t).unwrap(),
        );
        let sel = Selection::Filtered {
            base: &base,
            filter: &filter,
        };
        let _ = sel.count();
    }

    // --- canonicalization + identity hashing ---

    fn hash_of(p: &Predicate, t: Option<&Table>) -> u64 {
        fnv1a(FNV_OFFSET, &p.canonical_bytes(t))
    }

    #[test]
    fn canonical_hash_ignores_operand_order_and_double_negation() {
        let t = table();
        let a = Predicate::range("Delay", 0.0, 10.0);
        let b = Predicate::equals("Server", "Frodo");
        let c = Predicate::str_match("Server", "gan", StrMatchKind::Substring, true);
        let left = a.clone().and(b.clone()).and(c.clone());
        let right = c.clone().and(a.clone()).and(b.clone());
        assert_eq!(hash_of(&left, Some(&t)), hash_of(&right, Some(&t)));
        let double_neg = a.clone().not().not();
        assert_eq!(hash_of(&double_neg, Some(&t)), hash_of(&a, Some(&t)));
        // De Morgan: !(a | b) ≡ !a & !b.
        let dm1 = a.clone().or(b.clone()).not();
        let dm2 = a.clone().not().and(b.clone().not());
        assert_eq!(hash_of(&dm1, Some(&t)), hash_of(&dm2, Some(&t)));
        // Idempotence: a & a ≡ a.
        assert_eq!(
            hash_of(&a.clone().and(a.clone()), Some(&t)),
            hash_of(&a, Some(&t))
        );
    }

    #[test]
    fn canonical_hash_distinguishes_semantically_distinct_predicates() {
        let t = table();
        let shapes = [
            Predicate::range("Delay", 0.0, 10.0),
            Predicate::range("Delay", 0.0, 11.0),
            Predicate::range("Count", 0.0, 10.0),
            Predicate::equals("Server", "Frodo"),
            Predicate::equals("Server", "Gandalf"),
            Predicate::IsMissing {
                column: Arc::from("Delay"),
            },
            Predicate::range("Delay", 0.0, 10.0).not(),
            Predicate::range("Delay", 0.0, 10.0).and(Predicate::equals("Server", "Frodo")),
            Predicate::range("Delay", 0.0, 10.0).or(Predicate::equals("Server", "Frodo")),
            Predicate::True,
        ];
        let hashes: Vec<u64> = shapes.iter().map(|p| hash_of(p, Some(&t))).collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(
                    hashes[i], hashes[j],
                    "distinct predicates collide: {:?} vs {:?}",
                    shapes[i], shapes[j]
                );
            }
        }
    }

    #[test]
    fn canonical_hash_snaps_int_bounds_like_the_compiler() {
        let t = table();
        // On the Int column, fractional bounds snap to the integer domain:
        // 10 <= x < 20 whichever way it's spelled.
        let frac = Predicate::range("Count", 9.2, 19.7);
        let snapped = Predicate::range("Count", 10.0, 20.0);
        assert_eq!(hash_of(&frac, Some(&t)), hash_of(&snapped, Some(&t)));
        // ... but NOT on the Double column, where 9.2 and 10.0 differ.
        let frac_d = Predicate::range("Delay", 9.2, 19.7);
        let snapped_d = Predicate::range("Delay", 10.0, 20.0);
        assert_ne!(hash_of(&frac_d, Some(&t)), hash_of(&snapped_d, Some(&t)));
        // Integer equality is the one-value range.
        let eq = Predicate::equals("Count", 5i64);
        let range = Predicate::range("Count", 5.0, 6.0);
        assert_eq!(hash_of(&eq, Some(&t)), hash_of(&range, Some(&t)));
        // Equals(Missing) and IsMissing match exactly the same rows.
        assert_eq!(
            hash_of(&Predicate::equals("Count", Value::Missing), Some(&t)),
            hash_of(
                &Predicate::IsMissing {
                    column: Arc::from("Count"),
                },
                Some(&t)
            )
        );
        // Degenerate leaves collapse: NaN bound ≡ empty range ≡ !True.
        let nan = Predicate::range("Delay", f64::NAN, 1.0);
        let empty = Predicate::range("Delay", 5.0, 5.0);
        let untrue = Predicate::True.not();
        assert_eq!(hash_of(&nan, Some(&t)), hash_of(&empty, Some(&t)));
        assert_eq!(hash_of(&nan, Some(&t)), hash_of(&untrue, Some(&t)));
        // -0.0 and 0.0 bound the same half-open interval.
        assert_eq!(
            hash_of(&Predicate::range("Delay", -0.0, 1.0), Some(&t)),
            hash_of(&Predicate::range("Delay", 0.0, 1.0), Some(&t))
        );
    }

    #[test]
    fn canonical_equal_predicates_select_identical_rows() {
        // Hash-equal pairs from the tests above must agree row-for-row.
        let t = table();
        let pairs = [
            (
                Predicate::range("Count", 9.2, 19.7),
                Predicate::range("Count", 10.0, 20.0),
            ),
            (
                Predicate::equals("Count", 5i64),
                Predicate::range("Count", 5.0, 6.0),
            ),
            (
                Predicate::equals("Count", Value::Missing),
                Predicate::IsMissing {
                    column: Arc::from("Count"),
                },
            ),
            (
                Predicate::range("Delay", 0.0, 10.0)
                    .or(Predicate::equals("Server", "Frodo"))
                    .not(),
                Predicate::range("Delay", 0.0, 10.0)
                    .not()
                    .and(Predicate::equals("Server", "Frodo").not()),
            ),
        ];
        for (p, q) in &pairs {
            assert_eq!(hash_of(p, Some(&t)), hash_of(q, Some(&t)));
            assert_eq!(
                rows_matching(&t, p),
                rows_matching(&t, q),
                "hash-equal predicates disagree: {p:?} vs {q:?}"
            );
        }
    }

    // --- zone-map selectivity estimation ---

    fn sorted_int_table(n: usize) -> Table {
        Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::new((0..n as i64).collect(), NullMask::none())),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn estimator_classifies_sorted_range_blocks() {
        let t = sorted_int_table(64 * 10);
        // Covers blocks 2..6 fully, straddles nothing (block-aligned).
        let p = Predicate::range("X", 128.0, 384.0);
        let est = estimate_selectivity(&t, &p).unwrap();
        assert_eq!((est.blocks, est.all_fail), (10, 6));
        assert!((est.skip_fraction() - 0.6).abs() < 1e-9);
        // Unaligned bounds leave the straddling blocks to a decode.
        let p = Predicate::range("X", 100.0, 400.0);
        let est = estimate_selectivity(&t, &p).unwrap();
        assert_eq!((est.blocks, est.all_fail), (10, 4));
        // A negation fails exactly the blocks its operand passes whole.
        let p = Predicate::range("X", 128.0, 384.0).not();
        assert_eq!(estimate_selectivity(&t, &p).unwrap().all_fail, 4);
    }

    #[test]
    fn estimator_merge_sums_partitions() {
        let t1 = sorted_int_table(64 * 4);
        let t2 = sorted_int_table(64 * 4);
        let p = Predicate::range("X", 0.0, 128.0);
        let e1 = estimate_selectivity(&t1, &p).unwrap();
        let e2 = estimate_selectivity(&t2, &p).unwrap();
        let m = e1.merge(&e2);
        assert_eq!((m.blocks, m.all_fail), (8, 4));
        assert!((m.skip_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn estimator_handles_degenerate_and_tail_blocks() {
        // 70 rows: the tail block has 6 rows; True passes everything.
        let t = sorted_int_table(70);
        let est = estimate_selectivity(&t, &Predicate::True).unwrap();
        assert_eq!((est.blocks, est.all_fail), (2, 0));
        // A statically-false predicate fails every block.
        let est = estimate_selectivity(&t, &Predicate::range("X", 5.0, 5.0)).unwrap();
        assert_eq!(est.all_fail, 2);
        assert!((est.skip_fraction() - 1.0).abs() < 1e-9);
        // Empty table.
        let t = sorted_int_table(0);
        let est = estimate_selectivity(&t, &Predicate::True).unwrap();
        assert_eq!(est.blocks, 0);
        assert_eq!(est.skip_fraction(), 0.0);
    }
}
