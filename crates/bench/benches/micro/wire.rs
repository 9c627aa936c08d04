//! What the shape-aware summary codecs of `hillview_net::wire` cost and
//! buy, summary by summary: bytes, encode ns and decode ns of the `Wire`
//! impl (`codec`) against a local copy of the per-cell encoding it replaced
//! (`plain`: a varint per count, a kind byte per value and every key in
//! full, a page row repeating its key, a byte per register, a hash beside
//! every bottom-k string). Bytes are where the codecs pay — the root link
//! and the sketch cache hold them — and ns is where they charge: a dense
//! vector pays a zero test per count, a count vector is sized in both its
//! spellings (zero runs, and sparse: the non-empty cells' gaps and counts
//! patched) and the decoder sizes the one it did not get, a key encode
//! compares its predecessor and a key decode clones the shared prefix,
//! registers are patched (a floor, a width chosen by counting, slots
//! shifted into place and escapes) instead of copied, a bottom-k decode
//! hashes every string. The heat-map cases also report the bytes of their
//! cells' zero-run spelling alone (`zero_runs_bytes`), what they shipped
//! before a count vector could be sparse.
//! Read it when touching `put_counts`, `put_packed`, `put_key` or a
//! summary's layout.
//!
//! The `fold_*` cases time what a worker's final fold costs: the erased
//! `fold_bytes` over [`LEAVES`] leaf summaries of the flights fixture —
//! each decoded once, merged into the running summary, the result encoded
//! once. Read them when touching a summary's `merge`.

use hillview_bench::harness::{mix, Case, Registered, Suite};
use hillview_columnar::{Row, RowKey, SortOrder, Value};
use hillview_core::erased::{erase, ErasedSketch};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_net::{Result, Wire, WireReader, WireWriter};
use hillview_sketch::bottomk::{BottomKSketch, BottomKSummary};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::distinct::{Counter, DistinctSketch, DistinctSummary};
use hillview_sketch::heatmap::HeatmapSummary;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::nextk::{NextKSketch, NextKSummary};
use hillview_sketch::quantile::QuantileSummary;
use hillview_sketch::{Scope, Sketch, TableView};
use hillview_viz::tableview::TableViewViz;
use std::fmt::Debug;
use std::hint::black_box;
use std::sync::Arc;

pub const SUITE: Registered = Registered {
    name: "wire",
    about: "summary codecs (counts in zero runs or sparse, patched registers, prefix-shared keys, \
            recomputed hashes) vs the plain per-cell encodings they replaced: frame bytes, and median ns \
            per 64 encodes / 64 decodes (facts give ns per single one); plain ≡ codec ≡ the \
            summary asserted before timing; fold_*: one erased fold of 32 leaf summaries, \
            median ns",
    run,
};

/// Encodes or decodes per timed call: the small frames take under a
/// microsecond each.
const REPS: usize = 64;

/// Leaf summaries a `fold_*` case folds: one worker's row-range pieces.
const LEAVES: usize = 32;

/// The encoding a summary had before the codecs, as its old `Wire` impl
/// wrote it.
trait Plain: Sized {
    fn put(&self, w: &mut WireWriter);
    fn get(r: &mut WireReader) -> Result<Self>;
}

fn put_all(w: &mut WireWriter, counts: &[u64]) {
    for &c in counts {
        w.put_varint(c);
    }
}

fn get_all(r: &mut WireReader, n: usize) -> Result<Vec<u64>> {
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.get_varint()?);
    }
    Ok(counts)
}

impl Plain for HistogramSummary {
    fn put(&self, w: &mut WireWriter) {
        w.put_varint(self.buckets.len() as u64);
        put_all(w, &self.buckets);
        put_all(w, &[self.missing, self.out_of_range, self.rows_inspected]);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        let n = r.get_len("buckets")?;
        Ok(HistogramSummary {
            buckets: get_all(r, n)?,
            missing: r.get_varint()?,
            out_of_range: r.get_varint()?,
            rows_inspected: r.get_varint()?,
        })
    }
}

impl Plain for HeatmapSummary {
    fn put(&self, w: &mut WireWriter) {
        put_all(w, &[self.bx as u64, self.by as u64]);
        put_all(w, &self.counts);
        put_all(w, &[self.missing, self.out_of_range, self.rows_inspected]);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        let (bx, by) = (r.get_len("bx")?, r.get_len("by")?);
        Ok(HeatmapSummary {
            bx,
            by,
            counts: get_all(r, bx * by)?,
            missing: r.get_varint()?,
            out_of_range: r.get_varint()?,
            rows_inspected: r.get_varint()?,
        })
    }
}

impl Plain for DistinctSummary {
    fn put(&self, w: &mut WireWriter) {
        let Counter::Registers(registers) = &self.counter else {
            panic!("the plain layout is the HLL's");
        };
        w.put_u8(self.p);
        w.put_bytes(registers);
        w.put_varint(self.missing);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        Ok(DistinctSummary {
            p: r.get_u8()?,
            counter: Counter::Registers(r.get_bytes()?),
            missing: r.get_varint()?,
        })
    }
}

/// A kind byte, then the payload.
fn put_value(w: &mut WireWriter, v: &Value) {
    match v {
        Value::Missing => w.put_u8(0),
        Value::Int(v) => {
            w.put_u8(1);
            w.put_i64(*v);
        }
        Value::Double(v) => {
            w.put_u8(2);
            w.put_f64(*v);
        }
        Value::Date(v) => {
            w.put_u8(3);
            w.put_i64(*v);
        }
        Value::Str(s) => {
            w.put_u8(4);
            w.put_str(s);
        }
    }
}

fn get_value(r: &mut WireReader) -> Result<Value> {
    Ok(match r.get_u8()? {
        0 => Value::Missing,
        1 => Value::Int(r.get_i64()?),
        2 => Value::Double(r.get_f64()?),
        3 => Value::Date(r.get_i64()?),
        _ => Value::Str(r.get_str()?.into()),
    })
}

fn get_values(r: &mut WireReader, n: usize) -> Result<Vec<Value>> {
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(r)?);
    }
    Ok(values)
}

/// Arity and directions once, then every key in full and its weight.
impl Plain for QuantileSummary {
    fn put(&self, w: &mut WireWriter) {
        w.put_varint(self.keys.len() as u64);
        if let Some((first, _)) = self.keys.first() {
            first.descending().to_vec().encode(w);
        }
        for (key, weight) in &self.keys {
            key.values().iter().for_each(|v| put_value(w, v));
            w.put_varint(*weight);
        }
        put_all(
            w,
            &[self.population, self.cap as u64, self.resolution as u64],
        );
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        let len = r.get_len("keys")?;
        let mut keys = Vec::with_capacity(len);
        if len > 0 {
            let descending = Vec::<bool>::decode(r)?;
            for _ in 0..len {
                let values = get_values(r, descending.len())?;
                keys.push((RowKey::new(values, descending.clone()), r.get_varint()?));
            }
        }
        Ok(QuantileSummary {
            keys,
            population: r.get_varint()?,
            cap: r.get_len("cap")?,
            resolution: r.get_len("resolution")?,
        })
    }
}

/// Every key with its arity and a direction byte per value, then the row:
/// its key values again and its display values.
impl Plain for NextKSummary {
    fn put(&self, w: &mut WireWriter) {
        put_all(w, &[self.k as u64, self.rows.len() as u64]);
        for (key, row, count) in &self.rows {
            w.put_varint(key.values().len() as u64);
            for (v, d) in key.values().iter().zip(key.descending()) {
                put_value(w, v);
                w.put_u8(*d as u8);
            }
            w.put_varint((key.values().len() + row.values.len()) as u64);
            let cells = key.values().iter().chain(&row.values);
            cells.for_each(|v| put_value(w, v));
            w.put_varint(*count);
        }
        w.put_varint(self.matched);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        let (k, n) = (r.get_len("k")?, r.get_len("rows")?);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let arity = r.get_len("key")?;
            let (mut values, mut descending) = (Vec::new(), Vec::new());
            for _ in 0..arity {
                values.push(get_value(r)?);
                descending.push(r.get_u8()? != 0);
            }
            let width = r.get_len("row")?;
            let mut cells = get_values(r, width)?;
            let row = Row::new(cells.split_off(arity.min(width)));
            rows.push((RowKey::new(values, descending), row, r.get_varint()?));
        }
        Ok(NextKSummary {
            k,
            rows,
            matched: r.get_varint()?,
        })
    }
}

/// `k`, the seed, each entry's hash and string, `rows`.
impl Plain for BottomKSummary {
    fn put(&self, w: &mut WireWriter) {
        put_all(w, &[self.k as u64, self.seed]);
        self.entries.encode(w);
        w.put_varint(self.rows);
    }
    fn get(r: &mut WireReader) -> Result<Self> {
        Ok(BottomKSummary {
            k: r.get_len("k")?,
            seed: r.get_varint()?,
            entries: Vec::decode(r)?,
            rows: r.get_varint()?,
        })
    }
}

fn plain_writer(s: &impl Plain) -> WireWriter {
    let mut w = WireWriter::new();
    s.put(&mut w);
    w
}

/// [`REPS`] calls of `f` as one.
fn repeated<O>(f: impl Fn() -> O) -> impl FnMut() {
    move || {
        for _ in 0..REPS {
            black_box(f());
        }
    }
}

fn case<'a, S>(suite: &'a mut Suite, name: &str, s: &S) -> &'a mut Case
where
    S: Wire + Plain + PartialEq + Debug,
{
    let plain_encode = || plain_writer(s).finish();
    let (plain, codec) = (plain_encode(), s.to_bytes());
    let plain_decode = || S::get(&mut WireReader::new(plain.clone())).unwrap();
    let codec_decode = || S::from_bytes(codec.clone()).unwrap();
    assert_eq!(&plain_decode(), s, "{name}: plain round trip");
    assert_eq!(&codec_decode(), s, "{name}: codec round trip");
    let case = suite.case(name);
    case.fact("plain_bytes", plain.len() as f64)
        .fact("codec_bytes", codec.len() as f64)
        .fact("bytes_ratio", codec.len() as f64 / plain.len() as f64)
        .time("plain_encode", repeated(plain_encode))
        .time("codec_encode", repeated(|| s.to_bytes()))
        .time("plain_decode", repeated(plain_decode))
        .time("codec_decode", repeated(codec_decode))
        .ratio("encode_ratio", "codec_encode", "plain_encode")
        .ratio("decode_ratio", "codec_decode", "plain_decode");
    for variant in [
        "plain_encode",
        "codec_encode",
        "plain_decode",
        "codec_decode",
    ] {
        let ns = case.median_ns(variant) as f64 / REPS as f64;
        case.fact(&format!("{variant}_ns"), ns);
    }
    case
}

/// A 200 × 66 heat map (a 600 × 200 px display in 3 px cells). A cell is
/// occupied when `occupied(x, y, i)` says so; counts fall off from 400.
fn heatmap(occupied: impl Fn(f64, f64, u64) -> Option<f64>) -> HeatmapSummary {
    let (bx, by) = (200, 66);
    let cell = |i: u64| {
        let (x, y) = ((i / by) as f64 + 0.5, (i % by) as f64 + 0.5);
        let depth = occupied(x / bx as f64, y / by as f64, i)?;
        Some(1 + (400.0 * depth) as u64 + mix(i ^ 0xC0DE) % 8)
    };
    HeatmapSummary {
        bx: bx as usize,
        by: by as usize,
        counts: (0..bx * by).map(|i| cell(i).unwrap_or(0)).collect(),
        missing: 17,
        out_of_range: 0,
        rows_inspected: 520_000,
    }
}

/// Occupied cells as a chart has them — two correlated columns fill a
/// band around the diagonal, `half` of the height to either side, its edge
/// frayed by a cell.
fn band(half: f64) -> HeatmapSummary {
    heatmap(|x, y, i| {
        let off = (x - y).abs() + (mix(i) % 3) as f64 / 66.0 - 1.0 / 66.0;
        (off < half).then(|| 1.0 - off.max(0.0) / half)
    })
}

/// The same share of cells scattered independently: few runs survive, the
/// worst case for the zero-run codec (which then writes what `plain` does).
fn scattered(percent: u64) -> HeatmapSummary {
    heatmap(|_, _, i| (mix(i) % 100 < percent).then_some(0.5))
}

/// A filtered heat map of a few thousand rows: ≈ 12 % of the cells
/// occupied, scattered, three in four of them holding one row.
fn singletons() -> HeatmapSummary {
    let mut h = heatmap(|_, _, i| (mix(i) % 100 < 12).then_some(0.0));
    for (i, c) in (0..).zip(h.counts.iter_mut()).filter(|(_, c)| **c > 0) {
        *c = 1 + u64::from(mix(i ^ 0x5EED).is_multiple_of(4)) * (1 + mix(i ^ 0xFACE) % 3);
    }
    h
}

/// The bytes of `h` with its cells in zero runs, as `put_counts` wrote
/// every count vector before it could choose the sparse spelling.
fn zero_runs_bytes(h: &HeatmapSummary) -> f64 {
    let mut w = WireWriter::new();
    w.put_varint(h.bx as u64);
    w.put_varint(h.by as u64);
    let mut rest = &h.counts[..];
    while let Some((&c, tail)) = rest.split_first() {
        let run = match c {
            0 => 1 + tail.iter().take_while(|&&c| c == 0).count(),
            _ => 0,
        };
        if run < 2 {
            w.put_varint(c);
            rest = tail;
        } else {
            let mut v = run as u64 - 2;
            while v >= 0x80 {
                w.put_u8(v as u8 | 0x80);
                v >>= 7;
            }
            w.put_u8(v as u8 | 0x80);
            w.put_u8(0);
            rest = &rest[run..];
        }
    }
    put_all(&mut w, &[h.missing, h.out_of_range, h.rows_inspected]);
    w.len() as f64
}

fn occupancy(h: &HeatmapSummary) -> f64 {
    h.counts.iter().filter(|&&c| c != 0).count() as f64 / h.counts.len() as f64
}

/// One worker's final fold: `fold_bytes` over the wire bytes of `sketch`'s
/// summaries of [`LEAVES`] equal row ranges of `flights`, in range order.
fn fold_case(suite: &mut Suite, name: &str, sketch: Arc<dyn ErasedSketch>, flights: &TableView) {
    let n = flights.table().num_rows();
    let leaves: Vec<_> = (0..LEAVES)
        .map(|i| {
            let rows = Some((i * n / LEAVES, (i + 1) * n / LEAVES));
            let scope = Scope { rows, filter: None };
            sketch.summarize_bytes(flights, scope, 0).unwrap()
        })
        .collect();
    let folded = sketch.fold_bytes(&leaves).unwrap();
    assert_eq!(sketch.fold_bytes(&leaves).unwrap(), folded, "{name}");
    let case = suite.case(name);
    case.fact("leaves", LEAVES as f64)
        .fact(
            "leaf_bytes",
            leaves.iter().map(|b| b.len()).sum::<usize>() as f64,
        )
        .fact("folded_bytes", folded.len() as f64)
        .time("fold", || sketch.fold_bytes(&leaves).unwrap());
}

fn run(suite: &mut Suite) {
    let dense = HistogramSummary {
        buckets: (0..600).map(|i| 1 + mix(i) % 5_000).collect(),
        missing: 40,
        out_of_range: 3,
        rows_inspected: 1_500_000,
    };
    case(suite, "histogram_600_dense", &dense);
    for (name, half, percent) in [
        ("heatmap_200x66_5pct", 1.65 / 66.0, 5),
        ("heatmap_200x66_60pct", 24.5 / 66.0, 60),
    ] {
        let (band, scattered) = (band(half), scattered(percent));
        assert!((occupancy(&band) * 100.0 - percent as f64).abs() < 1.0);
        assert!((occupancy(&scattered) * 100.0 - percent as f64).abs() < 1.0);
        case(suite, name, &band)
            .fact("occupancy", occupancy(&band))
            .fact("zero_runs_bytes", zero_runs_bytes(&band))
            .fact(
                "scattered_plain_bytes",
                plain_writer(&scattered).len() as f64,
            )
            .fact("scattered_codec_bytes", scattered.to_bytes().len() as f64)
            .fact("scattered_zero_runs_bytes", zero_runs_bytes(&scattered));
    }
    let singletons = singletons();
    assert!((occupancy(&singletons) * 100.0 - 12.0).abs() < 1.0);
    case(suite, "heatmap_200x66_12pct_singletons", &singletons)
        .fact("occupancy", occupancy(&singletons))
        .fact("zero_runs_bytes", zero_runs_bytes(&singletons));

    let rows = 50_000;
    let flights = TableView::full(Arc::new(generate_flights(&FlightsConfig::new(rows, 7))));
    let by_date = ["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"];
    let order = SortOrder::ascending(&by_date);
    // What one worker ships for O4: the scroll bar's own sketch, whose
    // resolution is the shipped key count.
    let scrollbar = TableViewViz::new(order.clone(), 20).scrollbar_quantile(rows as u64);
    let keys = scrollbar.resolution;
    let scroll = scrollbar.summarize(&flights, Scope::ALL, 0).unwrap();
    let scroll = hillview_sketch::Summary::compact(scroll);
    assert_eq!(scroll.keys.len(), keys);
    case(
        suite,
        &format!("quantile_scrollbar_{keys}_keys_5_columns"),
        &scroll,
    );

    let pager = NextKSketch::first_page(order, 20).with_display(&["Carrier", "DepDelay"]);
    let page = pager.summarize(&flights, Scope::ALL, 0).unwrap();
    assert_eq!(page.rows.len(), 20);
    case(suite, "nextk_page_20_rows", &page);

    let hll = DistinctSketch::new("FlightNum");
    case(
        suite,
        "hll_p12",
        &hll.summarize(&flights, Scope::ALL, 0).unwrap(),
    );

    // O7's first tree: every airport of the fixture, three letters each.
    let origins = BottomKSketch::new("Origin", 512);
    let origins = origins.summarize(&flights, Scope::ALL, 0).unwrap();
    assert_eq!(origins.entries.len(), 60);
    case(suite, "bottomk_60_strings", &origins);

    fold_case(suite, "fold_quantile_scrollbar", erase(scrollbar), &flights);
    fold_case(suite, "fold_nextk_page_20_rows", erase(pager), &flights);
    let mg = MisraGriesSketch::new("Origin", 20);
    fold_case(suite, "fold_misra_gries_20", erase(mg), &flights);
    let delays = HistogramSketch::streaming("DepDelay", BucketSpec::numeric(-60.0, 600.0, 600));
    fold_case(suite, "fold_histogram_600", erase(delays), &flights);
}
