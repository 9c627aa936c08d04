//! Every summary decoder is total and canonical: whatever bytes arrive —
//! over a link the frame checksum guards, or out of the sketch cache — the
//! `Wire` impl ends in an error or in a summary whose own encoding is
//! exactly those bytes. Never a panic, never an allocation sized by a length
//! the frame merely claims.
//!
//! One test per `impl Sketch` of this crate (the `sketch-registry` lint rule
//! fails a sketch this file does not name): the identity, summaries of
//! `hillview_data` flights, and the edge shapes of its layout, each
//! round-tripped to an equal value *and* to equal bytes; then a seeded
//! mutation loop over those frames, where every mutant is refused or
//! re-encodes to itself; then the frames a hostile peer would craft.

mod totality;

use hillview_columnar::{Row, RowKey, SortOrder, StrMatchKind, Table, Value};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_net::{Error as WireError, Wire, WireWriter, MAX_COUNTS};
use hillview_sketch::bottomk::{BottomKSketch, BottomKSummary};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::count::{CountSketch, CountSummary};
use hillview_sketch::distinct::{Counter, DistinctSketch, DistinctSummary};
use hillview_sketch::find::{FindSketch, FindSummary};
use hillview_sketch::hashutil::{fnv1a, mix};
use hillview_sketch::heatmap::{HeatmapSketch, HeatmapSummary};
use hillview_sketch::heavy::{
    MisraGriesSketch, MisraGriesSummary, SampledHeavyHittersSketch, SampledHeavyHittersSummary,
};
use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
use hillview_sketch::moments::{MomentsSketch, MomentsSummary};
use hillview_sketch::nextk::{NextKSketch, NextKSummary};
use hillview_sketch::pca::{PcaSketch, PcaSummary};
use hillview_sketch::quantile::{QuantileSketch, QuantileSummary};
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::stacked::{StackedHistogramSketch, StackedSummary};
use hillview_sketch::trellis::{TrellisSketch, TrellisSummary};
use hillview_sketch::{Scope, Sketch, SketchError, TableView};
use std::sync::{Arc, OnceLock};
use totality::{bomb, patched, refused, roundtrip, sparse, total_and_canonical, varint, zero_run};

const BY_DATE: [&str; 5] = ["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"];

fn flights() -> TableView {
    static TABLE: OnceLock<Arc<Table>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(generate_flights(&FlightsConfig::new(3_000, 7))));
    TableView::full(table.clone())
}

fn summary<S: Sketch>(sketch: &S) -> S::Summary {
    sketch.summarize(&flights(), Scope::ALL, 11).unwrap()
}

/// Count vectors at the edges of the zero-run codec.
fn count_shapes(n: usize) -> Vec<Vec<u64>> {
    vec![
        vec![0; n],
        (0..n as u64).map(|i| i % 2).collect(),
        (0..n as u64).map(|i| (i + 1) % 2 * 300).collect(),
        (0..n as u64)
            .map(|i| if i == n as u64 / 2 { u64::MAX } else { 0 })
            .collect(),
        (1..=n as u64).collect(),
    ]
}

fn key(values: Vec<Value>) -> RowKey {
    let descending = vec![false; values.len()];
    RowKey::new(values, descending)
}

/// Key lists at the edges of the prefix-sharing codec: the pairs
/// `Value::eq` conflates in a position the next key would share, strings
/// with common prefixes, a missing value, no columns at all.
fn key_shapes() -> Vec<Vec<RowKey>> {
    let s = Value::str;
    vec![
        vec![key(vec![])],
        vec![
            key(vec![Value::Double(0.0), Value::Int(1)]),
            key(vec![Value::Double(-0.0), Value::Int(2)]),
            key(vec![Value::Double(1.0), Value::Int(0)]),
            key(vec![Value::Int(1), Value::Int(1)]),
            key(vec![Value::Int(1), Value::Int(i64::MAX)]),
        ],
        vec![
            key(vec![Value::Missing, s("")]),
            key(vec![s("N100"), s("SFO")]),
            key(vec![s("N100"), s("SJC")]),
            key(vec![s("N1000"), s("SJC")]),
            key(vec![s("N1000"), s("SJC ")]),
            key(vec![s("日本"), s("SJC")]),
        ],
        vec![
            key(vec![Value::Date(i64::MIN), Value::Int(i64::MIN)]),
            key(vec![Value::Date(i64::MIN), Value::Int(-1)]),
            key(vec![Value::Date(0), Value::Int(-1)]),
        ],
    ]
}

#[test]
fn count_is_total_and_canonical() {
    let edge = CountSummary {
        rows: u64::MAX,
        missing: 0,
    };
    let summaries = [
        CountSketch::rows().identity(),
        summary(&CountSketch::rows()),
        summary(&CountSketch::of_column("DepDelay")),
        edge,
    ];
    total_and_canonical("count", &summaries);
}

#[test]
fn moments_is_total_and_canonical() {
    let sketch = MomentsSketch::new("DepDelay", 3);
    let edge = MomentsSummary {
        present: 1,
        missing: u64::MAX,
        min: Some(-0.0),
        max: Some(f64::INFINITY),
        sums: vec![0.0, -0.0, f64::MIN_POSITIVE],
    };
    total_and_canonical("moments", &[sketch.identity(), summary(&sketch), edge]);
}

#[test]
fn range_is_total_and_canonical() {
    let numeric = RangeSketch::new("DepDelay");
    let strings = RangeSketch::new("Origin");
    let edge = RangeSummary {
        present: 2,
        missing: 0,
        min: Some(-0.0),
        max: Some(0.0),
        min_str: Some(String::new()),
        max_str: Some("日本".into()),
    };
    let summaries = [
        numeric.identity(),
        summary(&numeric),
        summary(&strings),
        edge,
    ];
    total_and_canonical("range", &summaries);
}

#[test]
fn distinct_is_total_and_canonical() {
    let sketch = DistinctSketch::new("FlightNum");
    let small = DistinctSketch::new("Carrier").with_precision(4);
    roundtrip(&summary(&DistinctSketch::new("TailNum").with_precision(16)));
    let mut full = small.identity();
    full.counter = Counter::Registers(vec![60; 16]);
    // The exact form: FlightNum's domain, in raw bits at these 3 000 rows
    // and in runs when empty or full; a domain at `i64`'s top.
    let exact = sketch.clone().with_domain(1, 5_999).unwrap();
    let mut every = exact.identity();
    if let Counter::Exact(set) = &mut every.counter {
        set.words.fill(!0);
        set.words[5_999 / 64] = (1 << (5_999 % 64)) - 1;
    }
    let top = DistinctSketch::new("X")
        .with_domain(i64::MAX - 9, i64::MAX)
        .unwrap();
    let summaries = [
        sketch.identity(),
        summary(&sketch),
        small.identity(),
        summary(&small),
        full,
        exact.identity(),
        summary(&exact),
        every.clone(),
        top.identity(),
    ];
    total_and_canonical("distinct", &summaries);

    // The exact form: `0x80 | p`, `lo`, the domain's length, the set, and
    // `missing`. The set's spellings are the bit-set codec's.
    let exact_frame = |p: u8, lo: i64, len: u64, set: &[u8]| {
        let mut w = WireWriter::new();
        w.put_u8(0x80 | p);
        w.put_i64(lo);
        w.put_varint(len);
        [&w.finish()[..], set, &[0]].concat()
    };
    let runs = |runs: &[u64]| [vec![1], runs.iter().flat_map(|&r| varint(r)).collect()].concat();
    let full_runs = exact_frame(12, 1, 5_999, &runs(&[0, 5_999]));
    assert_eq!(full_runs, roundtrip(&every));
    assert_eq!(every.estimate(), 5_999.0);
    assert_eq!(full_runs.len(), 9, "a full domain ships in nine bytes");
    // Runs short of the domain, or past it.
    refused::<DistinctSummary>("runs short", &exact_frame(12, 1, 5_999, &runs(&[0, 5_998])));
    refused::<DistinctSummary>("runs past", &exact_frame(12, 1, 5_999, &runs(&[0, 6_000])));
    refused::<DistinctSummary>(
        "runs past by one run",
        &exact_frame(12, 1, 5_999, &runs(&[0, 5_999, 1])),
    );
    // An empty inner run.
    refused::<DistinctSummary>(
        "empty inner run",
        &exact_frame(12, 1, 5_999, &runs(&[0, 3_000, 0, 2_999])),
    );
    refused::<DistinctSummary>(
        "two empty runs",
        &exact_frame(12, 1, 5_999, &runs(&[0, 0, 5_999])),
    );
    // Raw bits where the runs are shorter: the full domain.
    let mut raw = vec![0u8; 1 + 5_999usize.div_ceil(8)];
    raw[1..].fill(0xFF);
    *raw.last_mut().unwrap() = 0x7F;
    refused::<DistinctSummary>(
        "raw where runs are shorter",
        &exact_frame(12, 1, 5_999, &raw),
    );
    // Padding bits: eleven alternating bits, raw, and a set bit past them.
    assert!(DistinctSummary::from_bytes(exact_frame(12, 0, 11, &[0, 0x55, 0x05]).into()).is_ok());
    refused::<DistinctSummary>("padding bit", &exact_frame(12, 0, 11, &[0, 0x55, 0x0D]));
    // A domain past three values a register, empty, or past `i64`.
    assert!(DistinctSummary::from_bytes(exact_frame(4, 0, 48, &runs(&[48])).into()).is_ok());
    refused::<DistinctSummary>("49 values at p = 4", &exact_frame(4, 0, 49, &runs(&[49])));
    refused::<DistinctSummary>(
        "12 289 values at p = 12",
        &exact_frame(12, 0, 12_289, &runs(&[12_289])),
    );
    refused::<DistinctSummary>("an empty domain", &exact_frame(12, 0, 0, &[0]));
    assert!(DistinctSummary::from_bytes(exact_frame(12, i64::MAX - 1, 2, &[0, 0]).into()).is_ok());
    refused::<DistinctSummary>(
        "lo + len past i64",
        &exact_frame(12, i64::MAX - 1, 3, &[0, 0]),
    );
    refused::<DistinctSummary>(
        "two values from i64::MAX",
        &exact_frame(12, i64::MAX, 2, &[0, 0]),
    );
    refused::<DistinctSummary>("precision 0", &exact_frame(0, 0, 1, &[0, 0]));
    // A refused spelling of the widest domain allocates nothing its size.
    bomb::<DistinctSummary>(
        "p = 16, runs short",
        &exact_frame(16, 0, 3 << 16, &runs(&[0, 1])),
        4 << 10,
    );
    bomb::<DistinctSummary>(
        "p = 16, raw cut short",
        &exact_frame(16, 0, 3 << 16, &[0, 0]),
        4 << 10,
    );

    // `p` sizes the register array: it is bounded before it shifts.
    let frame = |p: u8, registers: &[u8]| {
        let mut w = WireWriter::new();
        w.put_u8(p);
        w.put_packed(registers.iter().map(|&rank| u64::from(rank)));
        w.put_varint(0);
        w.finish().to_vec()
    };
    let flat = |p: u8, register: u8| frame(p, &vec![register; 1 << p.min(16)]);
    assert!(DistinctSummary::from_bytes(flat(12, 52).into()).is_ok());
    for p in [0, 3, 17, 64, 255] {
        refused::<DistinctSummary>(&format!("p = {p}"), &flat(p, 0));
        bomb::<DistinctSummary>(&format!("p = {p}, no body"), &[p], 4 << 10);
    }
    // A rank past `64 - p` is no register `observe` can produce.
    refused::<DistinctSummary>("register 63 at p = 12", &flat(12, 63));
    refused::<DistinctSummary>("register 53 at p = 12", &flat(12, 53));
    // A truncated body is refused before the registers are allocated.
    bomb::<DistinctSummary>("p = 16, 3 bytes", &[16, 1, 2], 4 << 10);
    bomb::<DistinctSummary>("p = 16, width 0, 3 bytes", &[16, 1, 0], 4 << 10);

    // Sixteen registers at 2 and 3 and one at 9 ship as 2 + slots of two
    // bits, the 9 in a full slot and its escape 4. Every other floor or
    // width spells the same registers, and is refused.
    let mut registers: Vec<u8> = (0..16).map(|i| 2 + i % 2).collect();
    registers[5] = 9;
    let honest = frame(4, &registers);
    assert_eq!(honest, hll_frame(4, &registers, 2, 2));
    assert_eq!(&honest[1..3], [2, 2]);
    assert_eq!(&honest[7..], [4, 0], "one escape, then `missing`");
    for (base, width) in [(1, 2), (0, 2), (2, 1), (2, 3), (2, 0), (2, 8)] {
        assert!(
            matches!(
                DistinctSummary::from_bytes(hll_frame(4, &registers, base, width).into()),
                Err(WireError::NotCanonical { .. })
            ),
            "base {base}, width {width}"
        );
    }
    // An escape that lifts a register past `64 − p`: 60 is the most a
    // register holds at p = 4.
    registers[5] = 60;
    assert!(DistinctSummary::from_bytes(frame(4, &registers).into()).is_ok());
    registers[5] = 61;
    let lifted = frame(4, &registers);
    assert_eq!(&lifted[7..], [56, 0], "the escape carries 61 − 2 − 3");
    assert!(matches!(
        DistinctSummary::from_bytes(lifted.into()),
        Err(WireError::BadTag { tag: 61, .. })
    ));
    // An escape that lifts a register past a byte: 2 + 3 + 295.
    let past = [&frame(4, &registers)[..7], &varint(295), &[0]].concat();
    assert!(matches!(
        DistinctSummary::from_bytes(past.into()),
        Err(WireError::BadTag { tag: u8::MAX, .. })
    ));
    // Escapes cut short: the slot is full and its varint is missing.
    refused::<DistinctSummary>("no escape", &honest[..7]);
    refused::<DistinctSummary>("half an escape", &[&honest[..7], &[0x84]].concat());
}

/// An HLL frame spelt at any floor and width, honest or not: `p`, the
/// registers patched at `base` and `width`, `missing = 0`.
fn hll_frame(p: u8, registers: &[u8], base: u8, width: u32) -> Vec<u8> {
    let registers: Vec<u64> = registers.iter().map(|&r| u64::from(r)).collect();
    [&[p][..], &patched(&registers, base.into(), width), &[0]].concat()
}

#[test]
fn histogram_is_total_and_canonical() {
    let buckets = BucketSpec::numeric(-60.0, 600.0, 50);
    let exact = HistogramSketch::streaming("DepDelay", buckets.clone());
    let sampled = HistogramSketch::sampled("DepDelay", buckets, 0.3);
    // A CDF is the same kernel with a bucket per horizontal pixel.
    let cdf = HistogramSketch::streaming("DepDelay", BucketSpec::numeric(-60.0, 600.0, 600));
    let mut summaries = vec![
        exact.identity(),
        HistogramSummary::zero(0),
        summary(&exact),
        summary(&sampled),
        summary(&cdf),
    ];
    summaries.extend(count_shapes(9).into_iter().map(|buckets| HistogramSummary {
        buckets,
        missing: 1,
        out_of_range: 2,
        rows_inspected: 3,
    }));
    total_and_canonical("histogram", &summaries);

    // 2^28 buckets in one run token, and in a sparse header.
    let frame = |n: u64, counts: &[u8]| [&varint(n)[..], counts, &[0, 0, 0]].concat();
    bomb::<HistogramSummary>(
        "2^28 empty buckets",
        &frame(1 << 28, &zero_run(1 << 28)),
        4 << 10,
    );
    let one = sparse(1, &patched(&[0], 0, 0), &patched(&[0], 0, 0));
    bomb::<HistogramSummary>("2^28 sparse buckets", &frame(1 << 28, &one), 4 << 10);

    // Ones at 2, 7, 12, 17 and 22 of 24 buckets ship sparse: in ten bytes
    // where zero runs take sixteen.
    let mut ones = HistogramSummary::zero(24);
    for i in [2, 7, 12, 17, 22] {
        ones.buckets[i] = 1;
    }
    let gaps = [2, 4, 4, 4, 4];
    let counts = patched(&[0; 5], 0, 1);
    let honest = sparse(5, &patched(&gaps, 2, 2), &counts);
    let mut runs = [zero_run(2), vec![1]].concat();
    runs.extend([zero_run(4), vec![1]].concat().repeat(4));
    runs.push(0);
    assert_eq!((honest.len(), runs.len()), (10, 16));
    let mut w = WireWriter::new();
    ones.encode(&mut w);
    assert_eq!(w.finish().to_vec(), frame(24, &honest));
    // Every other spelling of those buckets, and the lies a sparse header
    // can tell.
    let cases = [
        ("more non-empty buckets than buckets", frame(4, &honest)),
        ("a gap past the last bucket", frame(22, &honest)),
        (
            "a bucket past u64::MAX",
            frame(
                2,
                &sparse(1, &patched(&[0], 0, 0), &patched(&[u64::MAX], u64::MAX, 0)),
            ),
        ),
        (
            "a width above 8",
            frame(24, &sparse(5, &[2, 9, 0xA8, 2], &counts)),
        ),
        (
            "set padding bits",
            frame(24, &sparse(5, &[2, 2, 0xA8, 6], &counts)),
        ),
        (
            "a base below the least gap",
            frame(24, &sparse(5, &patched(&gaps, 1, 2), &counts)),
        ),
        (
            "a width wider than the shortest",
            frame(24, &sparse(5, &patched(&gaps, 2, 3), &counts)),
        ),
        ("zero runs where sparse is shorter", frame(24, &runs)),
        (
            "sparse where zero runs are no longer",
            frame(
                9,
                &sparse(3, &patched(&[2; 3], 2, 1), &patched(&[0; 3], 0, 1)),
            ),
        ),
    ];
    for (label, frame) in cases {
        refused::<HistogramSummary>(label, &frame);
    }
    // A histogram no frame could carry is refused where it is configured.
    let wide = HistogramSketch::streaming("DepDelay", BucketSpec::numeric(0.0, 1.0, (1 << 22) + 1));
    assert!(matches!(
        wide.summarize(&flights(), Scope::ALL, 0),
        Err(SketchError::BadConfig(_))
    ));
}

#[test]
fn heatmap_is_total_and_canonical() {
    let sketch = HeatmapSketch::streaming(
        "Distance",
        "AirTime",
        BucketSpec::numeric(0.0, 3_000.0, 40),
        BucketSpec::numeric(0.0, 400.0, 20),
    );
    let mut summaries = vec![
        sketch.identity(),
        HeatmapSummary::zero(0, 0),
        HeatmapSummary::zero(0, 7),
        summary(&sketch),
    ];
    summaries.extend(count_shapes(12).into_iter().map(|counts| HeatmapSummary {
        bx: 3,
        by: 4,
        counts,
        missing: 0,
        out_of_range: u64::MAX,
        rows_inspected: 5,
    }));
    total_and_canonical("heatmap", &summaries);

    // A five-byte grid claiming 2^14 × 2^14 empty cells.
    let mut w = WireWriter::new();
    w.put_varint(1 << 14);
    w.put_varint(1 << 14);
    let frame = [&w.finish()[..], &zero_run(1 << 28), &[0, 0, 0]].concat();
    bomb::<HeatmapSummary>("2^28 empty cells", &frame, 4 << 10);
    let wide = HeatmapSketch::streaming(
        "Distance",
        "AirTime",
        BucketSpec::numeric(0.0, 3_000.0, 1 << 12),
        BucketSpec::numeric(0.0, 400.0, (1 << 10) + 1),
    );
    assert!(matches!(
        wide.summarize(&flights(), Scope::ALL, 0),
        Err(SketchError::BadConfig(_))
    ));
}

#[test]
fn stacked_is_total_and_canonical() {
    let carriers = ["AA", "DL", "UA", "WN"].map(Arc::from).to_vec();
    let sketch = StackedHistogramSketch::streaming(
        "CRSDepTime",
        "Carrier",
        BucketSpec::numeric(0.0, 2_400.0, 24),
        BucketSpec::strings(carriers),
    );
    let mut summaries = vec![
        sketch.identity(),
        StackedSummary::zero(0, 0),
        StackedSummary::zero(5, 0),
        summary(&sketch),
    ];
    // A bar counts its subdivisions and the rows whose Y it could not
    // place: the residuals take the shapes of the bars' counts, as far as
    // `u64` lets them.
    let shapes = count_shapes(3).into_iter().zip(count_shapes(12));
    summaries.extend(shapes.map(|(residuals, xy_counts)| {
        StackedSummary {
            bx: 3,
            by: 4,
            x_counts: residuals
                .iter()
                .zip(xy_counts.chunks(4))
                .map(|(r, cells)| cells.iter().sum::<u64>().saturating_add(*r))
                .collect(),
            xy_counts,
            missing: 7,
            out_of_range: 0,
            rows_inspected: 9,
        }
    }));
    total_and_canonical("stacked", &summaries);

    // A residual and subdivisions that add up past `u64`: an error, not a
    // bar that wrapped.
    let bar = |residual: u64, cells: [u64; 2]| {
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_varint(2);
        w.put_counts(&[residual]);
        w.put_counts(&cells);
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(0);
        StackedSummary::from_bytes(w.finish())
    };
    assert_eq!(bar(1, [u64::MAX - 3, 2]).unwrap().x_counts, [u64::MAX]);
    for (residual, cells) in [
        (2, [u64::MAX - 3, 2]),
        (0, [u64::MAX, 1]),
        (u64::MAX, [1, 0]),
    ] {
        assert_eq!(
            bar(residual, cells),
            Err(WireError::BadLength {
                context: "stacked bar past u64",
                len: residual
            }),
            "{residual} + {cells:?}"
        );
    }

    // Honest bars, then 2^28 subdivisions in one run token.
    let mut w = WireWriter::new();
    w.put_varint(1 << 14);
    w.put_varint(1 << 14);
    w.put_counts(&vec![0; 1 << 14]);
    let frame = [&w.finish()[..], &zero_run(1 << 28)].concat();
    // The bars are within budget and are allocated; nothing else is.
    bomb::<StackedSummary>("2^28 empty subdivisions", &frame, (8 << 14) + (4 << 10));
}

fn trellis(groups: usize, bx: usize, by: usize) -> TrellisSketch {
    TrellisSketch {
        col_w: Arc::from("Month"),
        col_x: Arc::from("Distance"),
        col_y: Arc::from("AirTime"),
        buckets_w: BucketSpec::numeric(1.0, 13.0, groups),
        buckets_x: BucketSpec::numeric(0.0, 3_000.0, bx),
        buckets_y: BucketSpec::numeric(0.0, 400.0, by),
        rate: 1.0,
    }
}

/// The trellis's heat maps draw on one expansion budget per frame, not one
/// each.
#[test]
fn trellis_is_total_and_canonical() {
    let sketch = trellis(4, 20, 10);
    let summaries = [
        sketch.identity(),
        summary(&sketch),
        TrellisSummary {
            groups: Vec::new(),
            dropped: u64::MAX,
        },
        TrellisSummary {
            groups: vec![HeatmapSummary::zero(0, 0), HeatmapSummary::zero(2, 0)],
            dropped: 0,
        },
    ];
    total_and_canonical("trellis", &summaries);
    // A group count one above the groups that follow: the last one is read
    // out of `dropped` and whatever is not there.
    let mut short = summaries[1].to_bytes().to_vec();
    short[0] += 1;
    refused::<TrellisSummary>("a group count past its groups", &short);

    // Each group is within the budget; together they are past it. The
    // first is decoded (80 bytes of cells), the second refused unallocated.
    let group = |w: &mut WireWriter, bx: usize, by: usize| {
        w.put_varint(bx as u64);
        w.put_varint(by as u64);
        for b in [zero_run((bx * by) as u64), vec![0; 3]].concat() {
            w.put_u8(b);
        }
    };
    let mut w = WireWriter::new();
    w.put_varint(2);
    group(&mut w, 5, 2);
    group(&mut w, MAX_COUNTS / 4, 4);
    w.put_varint(0);
    bomb::<TrellisSummary>("groups past the budget together", &w.finish(), 4 << 10);
    // One group fewer cells, and the frame is a summary.
    let mut w = WireWriter::new();
    w.put_varint(2);
    group(&mut w, 5, 2);
    group(&mut w, MAX_COUNTS / 4 - 3, 4);
    w.put_varint(0);
    assert!(TrellisSummary::from_bytes(w.finish()).is_ok());
    bomb::<TrellisSummary>("2^27 groups", &[0x80, 0x80, 0x80, 0x40, 0, 0, 0], 4 << 10);

    // And a trellis that large is refused where it is configured.
    assert!(matches!(
        trellis(16, 1 << 10, (1 << 8) + 1).summarize(&flights(), Scope::ALL, 0),
        Err(SketchError::BadConfig(_))
    ));
}

#[test]
fn misra_gries_is_total_and_canonical() {
    let strings = MisraGriesSketch::new("Carrier", 5);
    let ints = MisraGriesSketch::new("FlightNum", 8);
    let edge = MisraGriesSummary {
        k: 3,
        counters: vec![
            (Value::Double(-0.0), u64::MAX),
            (Value::Int(i64::MIN), 2),
            (Value::Missing, 1),
        ],
        total: 0,
    };
    let summaries = [strings.identity(), summary(&strings), summary(&ints), edge];
    total_and_canonical("misra-gries", &summaries);
    bomb::<MisraGriesSummary>(
        "2^27 counters",
        &[3, 0x80, 0x80, 0x80, 0x40, 0, 1, 0],
        4 << 10,
    );
}

#[test]
fn sampled_heavy_hitters_is_total_and_canonical() {
    let sketch = SampledHeavyHittersSketch::new("Carrier", 5, 0.5);
    let edge = SampledHeavyHittersSummary {
        counts: vec![
            (Value::Int(1), 4),
            (Value::Double(1.5), 3),
            (Value::Date(-1), 2),
            (Value::str("日本"), 1),
        ],
        sampled: 10,
    };
    total_and_canonical("sampled-hh", &[sketch.identity(), summary(&sketch), edge]);
}

#[test]
fn bottomk_is_total_and_canonical() {
    let sketch = BottomKSketch::new("TailNum", 20);
    // Strings with the hashes the decoder will compute for them.
    let hashed = |seed: u64, values: &[&str]| {
        let mut entries: Vec<(u64, String)> = values
            .iter()
            .map(|v| (mix(fnv1a(v.as_bytes()) ^ seed), v.to_string()))
            .collect();
        entries.sort();
        entries
    };
    let edge = BottomKSummary {
        k: 2,
        seed: u64::MAX,
        entries: hashed(u64::MAX, &["", "日本"]),
        rows: 2,
    };
    let reseeded = BottomKSketch {
        seed: 0,
        ..sketch.clone()
    };
    total_and_canonical(
        "bottomk",
        &[
            sketch.identity(),
            summary(&sketch),
            summary(&reseeded),
            edge.clone(),
        ],
    );
    // Strings whose hashes come out of order, or twice: no run `merge`
    // could unite.
    let frame = |values: &[&str]| {
        let mut w = WireWriter::new();
        w.put_varint(edge.k as u64);
        w.put_varint(edge.seed);
        w.put_varint(values.len() as u64);
        values.iter().for_each(|v| w.put_str(v));
        w.put_varint(edge.rows);
        w.finish()
    };
    let ascending = hashed(edge.seed, &["a", "b"]);
    let (first, second) = (ascending[0].1.as_str(), ascending[1].1.as_str());
    let honest = BottomKSummary {
        entries: ascending.clone(),
        ..edge.clone()
    };
    assert_eq!(frame(&[first, second]), honest.to_bytes());
    for values in [[second, first], [first, first]] {
        assert_eq!(
            BottomKSummary::from_bytes(frame(&values)),
            Err(WireError::NotCanonical {
                context: "bottom-k hashes are not strictly ascending"
            }),
            "{values:?}"
        );
    }
}

#[test]
fn pca_is_total_and_canonical() {
    let sketch = PcaSketch::new(&["DepDelay", "ArrDelay", "Distance"], 1.0);
    total_and_canonical("pca", &[sketch.identity(), summary(&sketch)]);
    // Three columns cannot have two sums.
    let torn = PcaSummary {
        sums: vec![0.0; 2],
        ..sketch.identity()
    };
    refused::<PcaSummary>("m = 3 with two sums", &torn.to_bytes());
}

/// A quantile summary over `keys`, the `i`-th standing for `i + 1` rows.
fn weighted(keys: Vec<RowKey>) -> QuantileSummary {
    QuantileSummary {
        keys: keys.into_iter().zip(1..).collect(),
        population: 1_000,
        cap: 400,
        resolution: 100,
    }
}

#[test]
fn quantile_is_total_and_canonical() {
    let by_date = QuantileSketch::new(SortOrder::ascending(&BY_DATE), 1.0, 400, 100);
    let strings = QuantileSketch::new(
        SortOrder::with_directions(&[("Origin", true), ("TailNum", false)]),
        0.5,
        200,
        50,
    );
    let mut summaries = vec![
        by_date.identity(),
        summary(&by_date),
        by_date
            .summarize(&flights(), Scope::ALL, 0)
            .unwrap()
            .compress(100),
        summary(&strings),
        summary(&QuantileSketch::new(SortOrder::ascending(&[]), 1.0, 10, 10)),
    ];
    summaries.extend(key_shapes().into_iter().map(weighted));
    total_and_canonical("quantile", &summaries);

    // Keys out of order: the encoder writes what it is given, the decoder
    // refuses what `merge` could not fold.
    let sorted = summary(&by_date).compress(8);
    let mut unsorted = sorted.clone();
    unsorted.keys.swap(2, 5);
    refused::<QuantileSummary>("unsorted keys", &unsorted.to_bytes());
    let mut repeated = sorted.clone();
    repeated.keys[4].0 = repeated.keys[3].0.clone();
    refused::<QuantileSummary>("a key twice", &repeated.to_bytes());

    // The same list with one key sharing `shorten` values less than it
    // could, and its weights spelled as `least` and `offsets` above it: the
    // least's varint, the offsets' low bytes patched, their high bits as
    // counts.
    let spelled = |shorten: usize, least: u64, low: &[u64], high: &[u64]| {
        let mut w = WireWriter::new();
        w.put_key_header(sorted.keys.len(), sorted.keys.first().map(|(k, _)| k));
        let mut prev: Option<&RowKey> = None;
        for (i, (key, _)) in sorted.keys.iter().enumerate() {
            match prev {
                Some(p) if i == 3 => {
                    let both = p.values().iter().zip(key.values());
                    let shared = both.take_while(|(a, b)| format!("{a:?}") == format!("{b:?}"));
                    let shared = shared.count() - shorten;
                    w.put_varint(shared as u64);
                    for v in &key.values()[shared..] {
                        v.encode(&mut w);
                    }
                }
                _ => w.put_key(prev, key),
            }
            prev = Some(key);
        }
        w.put_varint(least);
        w.put_packed(low.iter().copied());
        w.put_counts(high);
        w.put_varint(sorted.population);
        w.put_varint(sorted.cap as u64);
        w.put_varint(sorted.resolution as u64);
        w.finish().to_vec()
    };
    let split = |offsets: &[u64]| -> (Vec<u64>, Vec<u64>) {
        (
            offsets.iter().map(|&d| d & 0xFF).collect(),
            offsets.iter().map(|&d| d >> 8).collect(),
        )
    };
    let frame = |shorten: usize, least: u64, offsets: &[u64]| {
        let (low, high) = split(offsets);
        spelled(shorten, least, &low, &high)
    };
    let weights: Vec<u64> = sorted.keys.iter().map(|(_, weight)| *weight).collect();
    let least = *weights.iter().min().unwrap();
    let offsets: Vec<u64> = weights.iter().map(|w| w - least).collect();
    assert_eq!(frame(0, least, &offsets), sorted.to_bytes().to_vec());
    refused::<QuantileSummary>(
        "a shared count that is not maximal",
        &frame(1, least, &offsets),
    );
    // The weights' least value is the least weight, and no weight is past
    // `u64`; an offset past a byte carries its high bits as counts.
    let above: Vec<u64> = offsets.iter().map(|d| d + 1).collect();
    refused::<QuantileSummary>("a least no weight holds", &frame(0, least - 1, &above));
    let mut one = vec![0; offsets.len()];
    one[2] = 1;
    refused::<QuantileSummary>("a weight past u64", &frame(0, u64::MAX, &one));
    let mut wide = sorted.clone();
    wide.keys[1].1 = u64::MAX;
    wide.keys[4].1 += 300;
    let least = wide.keys.iter().map(|(_, w)| *w).min().unwrap();
    let spread: Vec<u64> = wide.keys.iter().map(|(_, w)| w - least).collect();
    assert_eq!(roundtrip(&wide), frame(0, least, &spread));
    // The same weights with one offset's low part past a byte and its high
    // bits one lower: the patch holds it, the weights refuse it.
    let (mut low, mut high) = split(&spread);
    low[1] += 256;
    high[1] -= 1;
    refused::<QuantileSummary>("a low byte past a byte", &spelled(0, least, &low, &high));

    bomb::<QuantileSummary>("2^27 keys", &[0x80, 0x80, 0x80, 0x40, 1, 0, 1, 1], 4 << 10);
    bomb::<QuantileSummary>("2^27 columns", &[1, 0x80, 0x80, 0x80, 0x40, 0, 0], 4 << 10);
}

#[test]
fn nextk_is_total_and_canonical() {
    let first = NextKSketch::first_page(SortOrder::ascending(&BY_DATE), 20)
        .with_display(&["Carrier", "DepDelay"]);
    let page = summary(&first);
    let start = page.rows[9].0.clone();
    let after = NextKSketch::after(SortOrder::ascending(&BY_DATE), start, 20);
    let strings = NextKSketch::first_page(
        SortOrder::with_directions(&[("TailNum", true), ("Origin", false)]),
        20,
    );
    let mut summaries = vec![
        first.identity(),
        page.clone(),
        summary(&after),
        summary(&strings),
        summary(&NextKSketch::first_page(SortOrder::ascending(&[]), 5)),
    ];
    summaries.extend(key_shapes().into_iter().map(|keys| {
        NextKSummary {
            k: 20,
            rows: keys
                .into_iter()
                .map(|k| {
                    (
                        k.clone(),
                        Row::new(k.values().iter().rev().cloned().collect()),
                        1,
                    )
                })
                .collect(),
            matched: 9,
        }
    }));
    total_and_canonical("nextk", &summaries);

    let mut unsorted = page.clone();
    unsorted.rows.swap(0, 1);
    refused::<NextKSummary>("unsorted page", &unsorted.to_bytes());
    bomb::<NextKSummary>("2^27 rows", &[20, 0x80, 0x80, 0x80, 0x40, 1, 0, 1], 4 << 10);
}

#[test]
fn find_is_total_and_canonical() {
    let order = SortOrder::ascending(&["Origin", "FlightNum"]);
    let hit = FindSketch::new("Origin", "S", StrMatchKind::Substring, order.clone());
    let miss = FindSketch::new("Origin", "no such airport", StrMatchKind::Exact, order);
    assert!(summary(&hit).first.is_some() && summary(&miss).first.is_none());
    let mut summaries = vec![hit.identity(), summary(&hit), summary(&miss)];
    summaries.extend(key_shapes().into_iter().map(|mut keys| {
        let k = keys.pop().unwrap();
        FindSummary {
            first: Some((k.clone(), Row::new(k.values().to_vec()))),
            matches_after: 1,
            matches_total: u64::MAX,
        }
    }));
    total_and_canonical("find", &summaries);
    // "First match" is one row.
    refused::<FindSummary>("two first matches", &[2, 0, 0, 0, 0, 0, 0]);

    // The first match's row leaves out the cells its key holds, naming each
    // by its index — the first cell of the same representation, or the
    // row's width when the row has none.
    let k = key(vec![Value::Int(7), Value::str("SFO")]);
    let frame = |width: u64, cells: &[u64], rest: &[Value]| {
        let mut w = WireWriter::new();
        w.put_key_header(1, Some(&k));
        w.put_key(None, &k);
        w.put_varint(width);
        cells.iter().for_each(|&c| w.put_varint(c));
        rest.iter().for_each(|v| v.encode(&mut w));
        w.put_varint(1);
        w.put_varint(1);
        w.finish().to_vec()
    };
    let found = |row: Vec<Value>| FindSummary {
        first: Some((k.clone(), Row::new(row))),
        matches_after: 1,
        matches_total: 1,
    };
    let (s, int, miss) = (Value::str("SFO"), Value::Int(7), Value::Missing);
    let row = vec![miss.clone(), s.clone(), int.clone(), s.clone()];
    assert_eq!(
        roundtrip(&found(row)),
        frame(4, &[2, 1], &[miss.clone(), s.clone()])
    );
    let no_key = vec![Value::Int(8)];
    assert_eq!(
        roundtrip(&found(no_key)),
        frame(1, &[1, 1], &[Value::Int(8)])
    );
    // The later of two equal cells, a cell past the width, a key value
    // left out of a row that holds it, and more cells than bytes.
    let later = frame(4, &[2, 3], &[miss.clone(), s.clone()]);
    refused::<FindSummary>("the later of two equal cells", &later);
    refused::<FindSummary>("a cell past the width", &frame(2, &[5, 0], &[]));
    let hidden = frame(2, &[2, 1], &[int.clone(), s.clone()]);
    refused::<FindSummary>("a key value its row holds, left out", &hidden);
    bomb::<FindSummary>("2^27 cells", &frame(1 << 27, &[0, 1], &[]), 4 << 10);
}
