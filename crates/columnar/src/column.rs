//! Typed columns over base-type arrays.
//!
//! Columns are immutable after construction (tables are snapshots, paper §2).
//! Enum dispatch keeps hot scan loops monomorphic without trait objects.
//!
//! Every column's values live behind the [`crate::encoding`] layer —
//! integers, dictionary codes, and doubles (integral ones as integer codes):
//! constructors analyze the data and pick a physical encoding (plain /
//! frame-of-reference bit-packed / run-length / delta / exceptions around
//! one mostly-held value), and the chunked
//! scan drivers decode 64-row blocks on the fly. Kernels that need raw
//! access go through [`I64Column::storage`] / [`F64Column::data`] /
//! [`DictColumn::codes`] (any [`crate::scan::ScanSource`]) or the per-row
//! [`I64Column::get`] / [`F64Column::get`] / [`DictColumn::code`]
//! accessors.

use crate::block::BlockCursor;
use crate::dictionary::{Dictionary, DictionaryBuilder};
use crate::encoding::{CodeStorage, Extreme, F64Storage, I64Storage, ZoneMap};
use crate::nullmask::NullMask;
use crate::scan::ScanSource;
use crate::schema::ColumnKind;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// A column of 64-bit integers (also backs `Date` columns as epoch millis).
#[derive(Debug, Clone, Default)]
pub struct I64Column {
    storage: I64Storage,
    nulls: NullMask,
    /// Per-64-row-block min/max, recorded at ingest for block skipping
    /// (shared by clones; derived state, not counted in footprints).
    zones: Arc<ZoneMap<i64>>,
    /// Min and max over the present rows, recorded beside the zones (see
    /// [`I64Column::extremes`]).
    extremes: Option<(i64, i64)>,
}

impl I64Column {
    /// Build from values and an optional per-row null flag, choosing the
    /// cheapest physical encoding automatically.
    pub fn new(data: Vec<i64>, nulls: NullMask) -> Self {
        Self::with_storage(I64Storage::encode(data), nulls)
    }

    /// Build keeping the values uncompressed (benchmark baselines and
    /// encoding-equivalence tests).
    pub fn plain(data: Vec<i64>, nulls: NullMask) -> Self {
        Self::with_storage(I64Storage::plain_of(data), nulls)
    }

    /// Build from an already-encoded storage (e.g. `hvc` decode, which
    /// preserves the file's encoding instead of re-analyzing).
    pub fn with_storage(storage: I64Storage, nulls: NullMask) -> Self {
        let zones = ZoneMap::build(&storage);
        let extremes = present_extremes(&storage, storage.len(), &nulls, &zones);
        I64Column {
            storage,
            nulls,
            zones: Arc::new(zones),
            extremes,
        }
    }

    /// Build from an already-encoded storage, its persisted zone map and
    /// its present rows' extremes — the mapped-file (`hvc`) open path,
    /// where rebuilding either would fault in the very payload they exist
    /// to skip. The caller asserts the zones describe `storage` exactly and
    /// `extremes` are what [`I64Column::extremes`] would compute.
    pub fn from_persisted(
        storage: I64Storage,
        nulls: NullMask,
        zones: ZoneMap<i64>,
        extremes: Option<(i64, i64)>,
    ) -> Self {
        I64Column {
            storage,
            nulls,
            zones: Arc::new(zones),
            extremes,
        }
    }

    /// Build from options: `None` becomes a null.
    pub fn from_options(vals: impl IntoIterator<Item = Option<i64>>) -> Self {
        let vals: Vec<Option<i64>> = vals.into_iter().collect();
        let len = vals.len();
        let nulls = NullMask::from_flags(vals.iter().map(|v| v.is_none()), len);
        let data = vals.into_iter().map(|v| v.unwrap_or(0)).collect();
        Self::new(data, nulls)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// The encoded value storage (null rows hold 0; check the mask).
    /// Implements [`crate::scan::ScanSource`], so it plugs straight into
    /// the chunked scan drivers.
    #[inline]
    pub fn storage(&self) -> &I64Storage {
        &self.storage
    }

    /// Null mask.
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Per-64-row-block min/max of the stored values (null rows contribute
    /// their placeholder), recorded at ingest for block skipping.
    #[inline]
    pub fn zones(&self) -> &ZoneMap<i64> {
        &self.zones
    }

    /// The least and greatest value of the present rows (`None` when no row
    /// is present) — exact, unlike the zones, which fold null rows'
    /// placeholders too. Recorded at ingest like the zones, derived state
    /// that no footprint counts.
    #[inline]
    pub fn extremes(&self) -> Option<(i64, i64)> {
        self.extremes
    }

    /// Value at row `i`, or `None` if missing.
    #[inline]
    pub fn get(&self, i: usize) -> Option<i64> {
        if self.nulls.is_null(i) {
            None
        } else {
            Some(self.storage.get(i))
        }
    }
}

/// A column of 64-bit floats. NaNs are normalized to nulls at build time.
///
/// The payload is an [`F64Storage`]: constructors analyze the values and
/// store integral columns as encoded integer codes, everything else raw
/// (see [`crate::encoding`]). Either way scans read it 64-row frame by
/// frame, so a mapped (`hvc`) double column faults in only the chunks of
/// the frames a query decodes — a zone-skipped block is never read.
#[derive(Debug, Clone, Default)]
pub struct F64Column {
    data: F64Storage,
    nulls: NullMask,
    /// Per-64-row-block min/max (NaN-free folds), recorded at ingest for
    /// block skipping.
    zones: Arc<ZoneMap<f64>>,
    /// Min and max over the present rows (see [`F64Column::extremes`]).
    extremes: Option<(f64, f64)>,
}

impl F64Column {
    /// Build from values and a null mask, choosing the cheapest physical
    /// encoding automatically; NaNs become additional nulls.
    pub fn new(data: Vec<f64>, mut nulls: NullMask) -> Self {
        let len = data.len();
        for (i, v) in data.iter().enumerate() {
            if v.is_nan() {
                nulls.set_null(i, len);
            }
        }
        Self::normalized(data, nulls)
    }

    /// Build from options: `None` (and NaN) become nulls.
    pub fn from_options(vals: impl IntoIterator<Item = Option<f64>>) -> Self {
        let vals: Vec<Option<f64>> = vals.into_iter().collect();
        let len = vals.len();
        let nulls = NullMask::from_flags(vals.iter().map(|v| v.is_none_or(f64::is_nan)), len);
        let data = vals.into_iter().map(|v| v.unwrap_or(0.0)).collect();
        Self::normalized(data, nulls)
    }

    /// Record the zones of `data`, whose NaN rows `nulls` already marks,
    /// and choose its encoding.
    fn normalized(data: Vec<f64>, nulls: NullMask) -> Self {
        let zones = ZoneMap::from_f64(&data);
        let extremes = present_extremes(&data[..], data.len(), &nulls, &zones);
        F64Column {
            data: F64Storage::encode(data),
            nulls,
            zones: Arc::new(zones),
            extremes,
        }
    }

    /// Build from an already-normalized storage and its zone map, deriving
    /// the present rows' extremes (from the zones alone when no row is
    /// null) — the heap `hvc` open, and how tests force a specific
    /// encoding. The caller asserts the invariant `new` establishes at
    /// ingest: every NaN row is already marked null (the writer stored the
    /// normalized payload), and the zones describe `data` exactly.
    pub fn from_parts(data: F64Storage, nulls: NullMask, zones: ZoneMap<f64>) -> Self {
        let extremes = present_extremes(&data, data.len(), &nulls, &zones);
        Self::from_persisted(data, nulls, zones, extremes)
    }

    /// [`F64Column::from_parts`] with the extremes persisted beside the
    /// zones — the mapped `hvc` open, which must not read the payload to
    /// derive them. The caller asserts they are what
    /// [`F64Column::extremes`] would compute.
    pub fn from_persisted(
        data: F64Storage,
        nulls: NullMask,
        zones: ZoneMap<f64>,
        extremes: Option<(f64, f64)>,
    ) -> Self {
        F64Column {
            data,
            nulls,
            zones: Arc::new(zones),
            extremes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The value storage (null rows hold their placeholder; check the
    /// mask). Implements [`crate::scan::ScanSource`], so it plugs straight
    /// into the chunked scan drivers.
    #[inline]
    pub fn data(&self) -> &F64Storage {
        &self.data
    }

    /// Heap bytes of the payload (zero when file-backed).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }

    /// File-backed payload bytes (zero when owned).
    pub(crate) fn mapped_bytes(&self) -> usize {
        self.data.mapped_bytes()
    }

    /// Per-64-row-block min/max of the raw values (NaN-free folds),
    /// recorded at ingest for block skipping.
    #[inline]
    pub fn zones(&self) -> &ZoneMap<f64> {
        &self.zones
    }

    /// The least and greatest value of the present rows (`None` when no row
    /// is present), folded by `f64::min` / `f64::max` in row order as the
    /// range vizketch folds them — exact, unlike the zones, which fold null
    /// rows' placeholders too. Derived state, like the zones.
    #[inline]
    pub fn extremes(&self) -> Option<(f64, f64)> {
        self.extremes
    }

    /// Null mask.
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Value at row `i`, or `None` if missing.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        if self.nulls.is_null(i) {
            None
        } else {
            Some(self.data.get(i))
        }
    }
}

/// A dictionary-encoded column of strings or categoricals.
#[derive(Debug, Clone, Default)]
pub struct DictColumn {
    codes: CodeStorage,
    dict: Arc<Dictionary>,
    nulls: NullMask,
    /// Per-64-row-block min/max *code*, recorded at ingest so categorical
    /// `Equals`/text matches can skip whole blocks (null rows contribute
    /// their code-0 placeholder).
    zones: Arc<ZoneMap<u32>>,
}

impl DictColumn {
    /// Build from pre-encoded codes and their dictionary, choosing the
    /// cheapest physical encoding for the code array automatically.
    pub fn new(codes: Vec<u32>, dict: Arc<Dictionary>, nulls: NullMask) -> Self {
        Self::with_storage(CodeStorage::encode(codes), dict, nulls)
    }

    /// Build from already-encoded code storage (e.g. `hvc` decode).
    pub fn with_storage(codes: CodeStorage, dict: Arc<Dictionary>, nulls: NullMask) -> Self {
        let zones = Arc::new(ZoneMap::build(&codes));
        DictColumn {
            codes,
            dict,
            nulls,
            zones,
        }
    }

    /// Build from already-encoded code storage *and* its persisted zone map
    /// — the mapped-file (`hvc`) open path (see
    /// [`I64Column::from_persisted`]).
    pub fn with_storage_and_zones(
        codes: CodeStorage,
        dict: Arc<Dictionary>,
        nulls: NullMask,
        zones: ZoneMap<u32>,
    ) -> Self {
        DictColumn {
            codes,
            dict,
            nulls,
            zones: Arc::new(zones),
        }
    }

    /// Build by interning an iterator of optional strings: codes in byte
    /// order of the strings, null rows parked on code 0.
    pub fn from_strings<'a>(vals: impl IntoIterator<Item = Option<&'a str>>) -> Self {
        let mut builder = DictionaryBuilder::new();
        let mut codes = Vec::new();
        let mut null_rows = Vec::new();
        for (i, v) in vals.into_iter().enumerate() {
            match v {
                Some(s) => codes.push(
                    builder
                        .intern(s)
                        .expect("one column's distinct strings stay under 4 GiB"),
                ),
                None => {
                    codes.push(0);
                    null_rows.push(i);
                }
            }
        }
        let dict = builder.finish(&mut codes);
        let len = codes.len();
        let mut nulls = NullMask::none();
        for i in null_rows {
            codes[i] = 0;
            nulls.set_null(i, len);
        }
        Self::new(codes, Arc::new(dict), nulls)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The encoded code storage (null rows hold code 0; check the mask).
    /// Implements [`crate::scan::ScanSource`] for the chunked drivers.
    #[inline]
    pub fn codes(&self) -> &CodeStorage {
        &self.codes
    }

    /// The dictionary code at row `i` (code 0 for null rows).
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes.get(i)
    }

    /// The dictionary shared by this column.
    #[inline]
    pub fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Per-64-row-block min/max code (null rows contribute code 0),
    /// recorded at ingest for categorical block skipping.
    #[inline]
    pub fn zones(&self) -> &ZoneMap<u32> {
        &self.zones
    }

    /// Null mask.
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// The string at row `i`, decoded into `buf` (see
    /// [`Dictionary::read`]), or `None` if missing.
    #[inline]
    pub fn read<'b>(&self, i: usize, buf: &'b mut String) -> Option<&'b str> {
        if self.nulls.is_null(i) {
            None
        } else {
            Some(self.dict.read(self.codes.get(i), buf))
        }
    }
}

/// The least and greatest of the `len` values of `data` that `nulls` leaves
/// present: a block whose every row is present gives its zone, any other
/// block its present lanes from one frame decode — the walk the range
/// vizketch takes over an unfiltered column, so the extremes are the ones
/// it folds, bit for bit.
fn present_extremes<T: Extreme + Default, S: ScanSource<T> + ?Sized>(
    data: &S,
    len: usize,
    nulls: &NullMask,
    zones: &ZoneMap<T>,
) -> Option<(T, T)> {
    let mut cursor = BlockCursor::new(data);
    let mut out: Option<(T, T)> = None;
    for b in 0..zones.len() {
        let base = b * crate::BLOCK_ROWS;
        let rows = crate::BLOCK_ROWS.min(len - base);
        let full = u64::MAX >> (crate::BLOCK_ROWS - rows);
        let mut live = !nulls.word(b) & full;
        let (min, max) = match live {
            0 => continue,
            _ if live == full => zones.block(b),
            _ => {
                let lanes = cursor.lanes(base, rows);
                let first = lanes[live.trailing_zeros() as usize];
                live &= live - 1;
                let mut fold = (first, first);
                while live != 0 {
                    let v = lanes[live.trailing_zeros() as usize];
                    live &= live - 1;
                    fold = (fold.0.least(v), fold.1.greatest(v));
                }
                fold
            }
        };
        out = Some(out.map_or((min, max), |(lo, hi)| (lo.least(min), hi.greatest(max))));
    }
    out
}

/// A typed column. The kind tag distinguishes `Int` from `Date` and `String`
/// from `Category` even though they share storage layouts.
#[derive(Debug, Clone)]
pub enum Column {
    /// Integers.
    Int(I64Column),
    /// Dates (epoch milliseconds).
    Date(I64Column),
    /// Floats.
    Double(F64Column),
    /// Free-form strings.
    Str(DictColumn),
    /// Categorical strings.
    Cat(DictColumn),
}

impl Column {
    /// The column's kind.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Int(_) => ColumnKind::Int,
            Column::Date(_) => ColumnKind::Date,
            Column::Double(_) => ColumnKind::Double,
            Column::Str(_) => ColumnKind::String,
            Column::Cat(_) => ColumnKind::Category,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) | Column::Date(c) => c.len(),
            Column::Double(c) => c.len(),
            Column::Str(c) | Column::Cat(c) => c.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of missing values.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(c) | Column::Date(c) => c.nulls().null_count(),
            Column::Double(c) => c.nulls().null_count(),
            Column::Str(c) | Column::Cat(c) => c.nulls().null_count(),
        }
    }

    /// The null bitmap shared by all column kinds, if any nulls exist.
    /// Chunked kernels combine this with membership words (see
    /// [`crate::scan`]).
    #[inline]
    pub fn null_bitmap(&self) -> Option<&crate::bitmap::Bitmap> {
        match self {
            Column::Int(c) | Column::Date(c) => c.nulls().bitmap(),
            Column::Double(c) => c.nulls().bitmap(),
            Column::Str(c) | Column::Cat(c) => c.nulls().bitmap(),
        }
    }

    /// True if row `i` is missing.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(c) | Column::Date(c) => c.nulls().is_null(i),
            Column::Double(c) => c.nulls().is_null(i),
            Column::Str(c) | Column::Cat(c) => c.nulls().is_null(i),
        }
    }

    /// The dynamically-typed value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(c) => c.get(i).map_or(Value::Missing, Value::Int),
            Column::Date(c) => c.get(i).map_or(Value::Missing, Value::Date),
            Column::Double(c) => c.get(i).map_or(Value::Missing, Value::Double),
            Column::Str(c) | Column::Cat(c) => c
                .read(i, &mut String::new())
                .map_or(Value::Missing, Value::str),
        }
    }

    /// `self.value(i).cmp(other)`, computed on the typed read: a string
    /// row is compared in place in its dictionary ([`Dictionary::compare`])
    /// instead of being decoded into a `Value` first.
    #[inline]
    pub(crate) fn cmp_value(&self, i: usize, other: &Value) -> Ordering {
        match self {
            Column::Str(c) | Column::Cat(c) => match (c.nulls().is_null(i), other) {
                (true, _) => Value::Missing.cmp(other),
                (false, Value::Str(s)) => c.dictionary().compare(c.code(i), s),
                // Strings rank above every other type (`Value::cmp`).
                (false, _) => Ordering::Greater,
            },
            // The numeric kinds build their `Value` without allocating.
            _ => self.value(i).cmp(other),
        }
    }

    /// Row `i` as an `f64`, when the column is numeric and the row present.
    /// Used by chart vizketches (histogram/CDF/heatmap), which operate on
    /// anything convertible to a real number (paper §4.3).
    #[inline]
    pub fn as_f64(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int(c) | Column::Date(c) => c.get(i).map(|v| v as f64),
            Column::Double(c) => c.get(i),
            _ => None,
        }
    }

    /// The numeric (`I64Column`) view if the column is `Int` or `Date`.
    pub fn as_i64_col(&self) -> Option<&I64Column> {
        match self {
            Column::Int(c) | Column::Date(c) => Some(c),
            _ => None,
        }
    }

    /// The float view if the column is `Double`.
    pub fn as_f64_col(&self) -> Option<&F64Column> {
        match self {
            Column::Double(c) => Some(c),
            _ => None,
        }
    }

    /// The dictionary view if the column is `Str` or `Cat`.
    pub fn as_dict_col(&self) -> Option<&DictColumn> {
        match self {
            Column::Str(c) | Column::Cat(c) => Some(c),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes (for the data-cache accounting of
    /// paper §5.4 and the worker's per-dataset footprint reports). Reflects
    /// the *encoded* payload, so compressed columns report their true size.
    /// File-backed (mapped) payloads count zero here — see
    /// `Column::mapped_bytes` — and are never touched by the accounting.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int(c) | Column::Date(c) => c.storage().heap_bytes(),
            Column::Double(c) => c.heap_bytes(),
            Column::Str(c) | Column::Cat(c) => c.codes().heap_bytes() + c.dictionary().heap_bytes(),
        }
    }

    /// Bytes of the payload addressed through a lazily-resident mapped
    /// segment (zero for fully owned columns): the out-of-core capacity
    /// this column reaches without heap cost. Resident-chunk accounting
    /// lives in the block cache, not per column.
    pub(crate) fn mapped_bytes(&self) -> usize {
        match self {
            Column::Int(c) | Column::Date(c) => c.storage().mapped_bytes(),
            Column::Double(c) => c.mapped_bytes(),
            Column::Str(c) | Column::Cat(c) => c.codes().mapped_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;

    #[test]
    fn i64_column_nulls() {
        let c = I64Column::from_options([Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Some(1));
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(3));
        assert_eq!(c.nulls().null_count(), 1);
    }

    #[test]
    fn f64_column_normalizes_nan() {
        let c = F64Column::new(vec![1.0, f64::NAN, 3.0], NullMask::none());
        assert_eq!(c.get(1), None);
        assert_eq!(c.nulls().null_count(), 1);
        let c = F64Column::from_options([Some(1.0), Some(f64::NAN), None]);
        assert_eq!(c.nulls().null_count(), 2);
    }

    #[test]
    fn dict_column_round_trips() {
        let c = DictColumn::from_strings([Some("UA"), Some("AA"), None, Some("UA")]);
        assert_eq!(c.len(), 4);
        let mut buf = String::new();
        assert_eq!(c.read(0, &mut buf), Some("UA"));
        assert_eq!(c.read(1, &mut buf), Some("AA"));
        assert!(c.read(2, &mut buf).is_none());
        assert_eq!(
            (c.code(1), c.code(0), c.code(2)),
            (0, 1, 0),
            "byte order; nulls on 0"
        );
        assert_eq!(c.code(0), c.code(3), "repeated strings share codes");
        assert_eq!(c.dictionary().len(), 2);
    }

    #[test]
    fn column_value_and_kind() {
        let col = Column::Int(I64Column::from_options([Some(5), None]));
        assert_eq!(col.kind(), ColumnKind::Int);
        assert_eq!(col.value(0), Value::Int(5));
        assert_eq!(col.value(1), Value::Missing);
        assert_eq!(col.null_count(), 1);

        let col = Column::Date(I64Column::from_options([Some(1000)]));
        assert_eq!(col.kind(), ColumnKind::Date);
        assert_eq!(col.value(0), Value::Date(1000));
        assert_eq!(col.as_f64(0), Some(1000.0));

        let col = Column::Cat(DictColumn::from_strings([Some("DL")]));
        assert_eq!(col.kind(), ColumnKind::Category);
        assert_eq!(col.value(0), Value::str("DL"));
        assert_eq!(col.as_f64(0), None);
    }

    #[test]
    fn typed_views() {
        let int = Column::Int(I64Column::from_options([Some(1)]));
        assert!(int.as_i64_col().is_some());
        assert!(int.as_f64_col().is_none());
        assert!(int.as_dict_col().is_none());
        let dbl = Column::Double(F64Column::from_options([Some(1.0)]));
        assert!(dbl.as_f64_col().is_some());
        let s = Column::Str(DictColumn::from_strings([Some("a")]));
        assert!(s.as_dict_col().is_some());
    }

    #[test]
    fn heap_bytes_scales_with_rows() {
        let small = Column::Int(I64Column::plain((0..10).collect(), NullMask::none()));
        let big = Column::Int(I64Column::plain((0..1000).collect(), NullMask::none()));
        assert!(big.heap_bytes() > small.heap_bytes());
    }

    #[test]
    fn ingest_compresses_compressible_columns() {
        // Sorted, low-cardinality: run-length; small range: bit-packed;
        // sequential unique: delta; mostly one value: exceptions.
        let sorted = I64Column::new((0..4096).map(|i| i / 100).collect(), NullMask::none());
        assert_eq!(sorted.storage().kind(), EncodingKind::RunLength);
        let sequential = I64Column::new((0..4096).collect(), NullMask::none());
        assert_eq!(sequential.storage().kind(), EncodingKind::Delta);
        for i in [0usize, 63, 64, 4095] {
            assert_eq!(sequential.get(i), Some(i as i64));
        }
        let packed = I64Column::new(
            (0..4096).map(|i| (i * 7919) % 1024).collect(),
            NullMask::none(),
        );
        assert_eq!(packed.storage().kind(), EncodingKind::BitPacked);
        let plain = I64Column::plain((0..4096).collect(), NullMask::none());
        assert_eq!(plain.storage().kind(), EncodingKind::Plain);
        let sparse = I64Column::new(
            (0..4096)
                .map(|i| if i % 16 == 5 { i * 7919 % 1024 } else { 0 })
                .collect(),
            NullMask::none(),
        );
        assert_eq!(sparse.storage().kind(), EncodingKind::Exceptions);
        // Values identical under every encoding.
        for i in [0usize, 63, 64, 4095] {
            assert_eq!(sorted.get(i), Some(i as i64 / 100));
        }
        assert!(sorted.storage().heap_bytes() * 4 <= 4096 * 8);
    }

    #[test]
    fn dict_codes_compress() {
        let c = DictColumn::from_strings((0..5000).map(|i| Some(["a", "b", "c"][i % 3])));
        assert_ne!(c.codes().kind(), EncodingKind::Plain);
        assert_eq!(c.code(3), c.code(0));
    }
}
