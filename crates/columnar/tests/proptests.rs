//! Property-based tests for the columnar substrate's core invariants.

use hillview_columnar::block::{scan_frames, FrameEvent};
use hillview_columnar::column::{Column, DictColumn, I64Column};
use hillview_columnar::scan::{
    count_missing, scan_rows, scan_values, split_ranges, ScanSource, Selection,
};
use hillview_columnar::{
    row_sampled, Bitmap, BlockCursor, ColumnKind, EncodingKind, F64Column, F64Storage, FrameFilter,
    I64Storage, MembershipSet, NullMask, Predicate, RowKey, SortOrder, Table, Value, ZoneMap,
    BLOCK_ROWS,
};
use proptest::prelude::*;
use std::cell::RefCell;

/// Every `IntStorage` variant that can represent `data`, forced plus the
/// automatic choice. (Delta only represents near-ascending data, so random
/// vectors exercise it rarely; `delta_storages_agree_with_plain` covers it
/// densely. Random vectors are rarely mostly one value either:
/// `exceptions_agree_with_the_rows_they_store` covers that shape.)
fn all_storages(data: &[i64]) -> Vec<I64Storage> {
    let mut out = vec![
        I64Storage::plain_of(data.to_vec()),
        I64Storage::encode(data.to_vec()),
    ];
    out.extend(I64Storage::bit_packed_of(data));
    out.extend(I64Storage::run_length_of(data));
    out.extend(I64Storage::delta_of(data));
    out.extend(I64Storage::exceptions_of(data));
    out
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` rows mostly of `fill`, frame by frame: two frames in eight of fill
/// alone, one of exceptions alone, the rest `percent` (< 40) exceptions,
/// drawn from `seed` — so `fill` is the majority. Exceptions are multiples
/// of `step` under 300 in magnitude, so some equal the fill.
fn mostly(n: usize, fill: i64, percent: u64, step: i64, seed: u64) -> Vec<i64> {
    let mut state = seed;
    let mut frame = 0;
    (0..n)
        .map(|i| {
            if i % BLOCK_ROWS == 0 {
                frame = splitmix(&mut state) % 8;
            }
            let h = splitmix(&mut state);
            let marked = match frame {
                0 | 1 => false,
                2 => true,
                _ => h % 100 < percent,
            };
            if marked {
                ((h >> 32) % 600) as i64 * step - 300 * step
            } else {
                fill
            }
        })
        .collect()
}

/// The strides a generator draws from: none, the sign-magnitude bit, odd,
/// decimal, and a day in milliseconds. A bit-packed storage divides the
/// common one out, so every property below also runs on data that packs
/// at `step > 1`.
const STEPS: [i64; 5] = [1, 2, 3, 1_000, 86_400_000];

/// One double of an ingest-shaped mix: mostly small integers, with the
/// values that decide whether a column may ride the integer encodings —
/// both zeros, the 2^53 edge and just past it, a fraction, a subnormal,
/// infinities and NaN. `odd` admits the non-integral ones; `step` scales the
/// small integers.
fn mixed_double(pick: u8, small: i16, odd: bool, step: i64) -> f64 {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    match pick % 24 {
        0 => -0.0,
        1 => 0.0,
        2 => TWO_53,
        3 => -TWO_53,
        4 if odd => TWO_53 + 2.0,
        5 if odd => -(TWO_53 + 2.0),
        6 if odd => 0.5,
        7 if odd => f64::MIN_POSITIVE / 4.0,
        8 if odd => f64::INFINITY,
        9 if odd => f64::NEG_INFINITY,
        10 if odd => f64::NAN,
        _ => (i64::from(small) * step) as f64,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A membership set of the requested shape over `n` rows, covering all
/// chunk decompositions (full range / sparse rows / dense bitmap / empty).
fn membership(kind: usize, raw: &[u32], n: usize) -> MembershipSet {
    match kind {
        0 => MembershipSet::full(n),
        1 => MembershipSet::from_rows(Vec::new(), n),
        2 => MembershipSet::from_rows(raw.iter().map(|r| r % n as u32).collect(), n),
        _ => MembershipSet::from_rows(
            (0..n as u32).filter(|r| r % 8 != 5 && r % 3 != 1).collect(),
            n,
        ),
    }
}

/// Run `body` over one selection shape of `m` — `Members` (kind 0),
/// `MemberRange` over `bounds` (1) or that range sampled at `sample =
/// (rate, seed)` (2) — bare, or fused with a fresh filter of `fused` (a
/// filter is single-pass, and a sample thins its matches); returns the
/// result and the filter's matched count.
fn over_shape<R>(
    m: &MembershipSet,
    sample: (f64, u64),
    bounds: (usize, usize),
    kind: usize,
    fused: Option<(&Predicate, &Table)>,
    body: impl FnOnce(&Selection<'_>) -> R,
) -> (R, Option<u64>) {
    let base = match kind {
        0 => Selection::Members(m),
        _ => Selection::MemberRange {
            members: m,
            start: bounds.0,
            end: bounds.1,
        },
    };
    match fused {
        None => (sampled_if(kind == 2, sample, &base, body), None),
        Some((predicate, table)) => {
            let filter = RefCell::new(FrameFilter::compile(predicate, table).unwrap());
            let filtered = Selection::Filtered {
                base: &base,
                filter: &filter,
            };
            let out = sampled_if(kind == 2, sample, &filtered, body);
            let matched = filter.borrow().matched();
            (out, Some(matched))
        }
    }
}

/// `body` over `sel`, or over `sel` sampled at `(rate, seed)` when `sample`.
fn sampled_if<'a, R>(
    sample: bool,
    (rate, seed): (f64, u64),
    sel: &'a Selection<'a>,
    body: impl FnOnce(&Selection<'_>) -> R,
) -> R {
    match sample {
        true => body(&Selection::Sampled {
            base: sel,
            rate,
            seed,
        }),
        false => body(sel),
    }
}

proptest! {
    /// Every encoding an `IntStorage` can choose is value-preserving: per
    /// row, per decoded block, and over the whole column.
    #[test]
    fn encodings_are_value_preserving(
        raw in proptest::collection::vec(any::<i64>(), 0..400),
        probe in any::<u64>(),
        step in 0usize..5,
        wide in any::<bool>(),
    ) {
        // Full-range values, or 31-bit signed ones on a stride.
        let data: Vec<i64> = if wide {
            raw
        } else {
            raw.iter().map(|v| (v >> 33) * STEPS[step]).collect()
        };
        for s in all_storages(&data) {
            prop_assert_eq!(s.len(), data.len(), "{} len", s.kind());
            prop_assert_eq!(&s.to_vec(), &data, "{} to_vec", s.kind());
            if !data.is_empty() {
                let i = (probe % data.len() as u64) as usize;
                prop_assert_eq!(s.get(i), data[i], "{} get({})", s.kind(), i);
                let start = i.min(data.len().saturating_sub(7));
                let n = 7.min(data.len() - start);
                let mut buf = [0i64; 7];
                s.decode_into(start, &mut buf[..n]);
                prop_assert_eq!(&buf[..n], &data[start..start + n], "{} block", s.kind());
            }
        }
    }

    /// A double column is lossless, bit for bit, whatever it holds and
    /// however it is stored: through `get`, the ascending cursor,
    /// arbitrary-offset and whole-frame decodes (ragged tail included), with
    /// NaNs turned into nulls. Anything non-integral keeps the column plain;
    /// an all-integral column decodes identically under every forced code
    /// encoding.
    #[test]
    fn double_columns_are_lossless(
        cells in proptest::collection::vec((any::<u8>(), -300i16..300), 0..400),
        odd in any::<bool>(),
        probe in any::<u64>(),
        step in 0usize..5,
        magnitudes in any::<bool>(),
    ) {
        // The ingest mix, or non-negative multiples of a stride alone, whose
        // codes pack at twice the stride.
        let data: Vec<f64> = cells
            .iter()
            .map(|&(p, s)| if magnitudes {
                (i64::from(s.unsigned_abs()) * STEPS[step]) as f64
            } else {
                mixed_double(p, s, odd, STEPS[step])
            })
            .collect();
        let want = bits(&data);
        let col = F64Column::new(data.clone(), NullMask::none());
        for (i, v) in data.iter().enumerate() {
            prop_assert_eq!(col.get(i).map(f64::to_bits), (!v.is_nan()).then_some(want[i]));
        }
        let integral = F64Storage::codes_of(&data);
        if integral.is_none() {
            prop_assert_eq!(col.data().kind(), EncodingKind::Plain);
        }
        let mut storages = vec![col.data().clone(), F64Storage::Plain(data.clone().into())];
        for codes in integral.iter().flat_map(|c| all_storages(c)) {
            storages.push(F64Storage::Integral(codes));
        }
        for s in storages {
            let kind = s.kind();
            prop_assert_eq!(s.len(), data.len());
            prop_assert_eq!(bits(&s.to_vec()), &want[..], "{} to_vec", kind);
            let mut cursor = 0usize;
            let mut buf = [0.0f64; BLOCK_ROWS];
            for base in (0..data.len()).step_by(BLOCK_ROWS) {
                let len = BLOCK_ROWS.min(data.len() - base);
                let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
                prop_assert_eq!(bits(lanes), &want[base..base + len], "{} frame {}", kind, base);
            }
            let mut asc = BlockCursor::new(&s);
            for (i, &w) in want.iter().enumerate().step_by(3) {
                prop_assert_eq!(s.get(i).to_bits(), w, "{} get({})", kind, i);
                prop_assert_eq!(asc.value(i).to_bits(), w, "{} ascending({})", kind, i);
            }
            if !data.is_empty() {
                let start = (probe % data.len() as u64) as usize;
                let n = 71.min(data.len() - start);
                let out = s.decode_range(start, start + n);
                prop_assert_eq!(bits(&out), &want[start..start + n], "{} short range", kind);
                let tail = s.decode_range(start, data.len());
                prop_assert_eq!(bits(&tail), &want[start..], "{} decode_range", kind);
            }
        }
    }

    /// Automatic selection picks the expected variant on shaped data and
    /// never loses information.
    #[test]
    fn selection_matches_data_shape(
        card in 1usize..6,
        run in 8usize..60,
        n in 64usize..600,
        spread in 1i64..1000,
    ) {
        // Sorted low-cardinality with wide values that share no stride (so
        // bit-packing cannot undercut the run encoding) → run-length. Two
        // values always share one, their difference, so there are three runs
        // at least.
        let sorted: Vec<i64> = (0..n.max(3 * run))
            .map(|i| (i / run) as i64)
            .map(|k| k * 1_234_567_890_123 + k / 2)
            .collect();
        let s = I64Storage::encode(sorted.clone());
        prop_assert_eq!(s.kind(), EncodingKind::RunLength);
        prop_assert_eq!(s.to_vec(), sorted);
        // Small-range alternating values → bit-packed (no run structure).
        let packed: Vec<i64> = (0..n).map(|i| ((i * 7919) % (card * 17)) as i64 * spread % 512).collect();
        let s = I64Storage::encode(packed.clone());
        if packed.windows(2).all(|w| w[0] != w[1]) {
            prop_assert_eq!(s.kind(), EncodingKind::BitPacked);
        }
        prop_assert_eq!(s.to_vec(), packed);
        // Full-range entropy → plain.
        let noisy: Vec<i64> = (0..n as i64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)).collect();
        prop_assert_eq!(I64Storage::encode(noisy).kind(), EncodingKind::Plain);
    }

    /// `scan_values` yields the identical value stream and missing count
    /// over every encoding × membership representation × null density.
    #[test]
    fn scans_bit_identical_across_encodings(
        rows in proptest::collection::vec((0.0f64..1.0, -500i64..500), 1..300),
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..150),
        null_p in 0.0f64..0.5,
        step in 0usize..5,
    ) {
        let n = rows.len();
        let data: Vec<i64> = rows.iter().map(|r| r.1 * STEPS[step]).collect();
        let nulls = NullMask::from_flags(rows.iter().map(|r| r.0 < null_p), n);
        let m = membership(kind, &raw, n);
        let sel = Selection::Members(&m);
        let mut reference: Option<(Vec<i64>, u64)> = None;
        for s in all_storages(&data) {
            let mut seen = Vec::new();
            let mut missing = 0u64;
            scan_values(&sel, &s, nulls.bitmap(), &mut missing, |v| seen.push(v));
            match &reference {
                None => reference = Some((seen, missing)),
                Some((ref_seen, ref_missing)) => {
                    prop_assert_eq!(&seen, ref_seen, "{} values", s.kind());
                    prop_assert_eq!(missing, *ref_missing, "{} missing", s.kind());
                }
            }
        }
        // Sparse row lists exercise the random-access path.
        let sample: Vec<u32> = (0..n as u32).step_by(3).collect();
        let sel = Selection::Rows(&sample);
        let mut reference: Option<(Vec<i64>, u64)> = None;
        for s in all_storages(&data) {
            let mut seen = Vec::new();
            let mut missing = 0u64;
            scan_values(&sel, &s, nulls.bitmap(), &mut missing, |v| seen.push(v));
            match &reference {
                None => reference = Some((seen, missing)),
                Some((ref_seen, ref_missing)) => {
                    prop_assert_eq!(&seen, ref_seen, "{} sampled values", s.kind());
                    prop_assert_eq!(missing, *ref_missing, "{} sampled missing", s.kind());
                }
            }
        }
    }

    /// Bitmap set/get round-trips for arbitrary index sets.
    #[test]
    fn bitmap_roundtrip(mut idx in proptest::collection::vec(0usize..2000, 0..200)) {
        let mut bm = Bitmap::new(2000);
        for &i in &idx {
            bm.set(i);
        }
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(bm.count_ones(), idx.len());
        prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), idx);
    }

    /// AND/OR against naive set semantics.
    #[test]
    fn bitmap_boolean_algebra(
        a in proptest::collection::btree_set(0usize..500, 0..100),
        b in proptest::collection::btree_set(0usize..500, 0..100),
    ) {
        let mut ba = Bitmap::new(500);
        let mut bb = Bitmap::new(500);
        for &i in &a { ba.set(i); }
        for &i in &b { bb.set(i); }
        let and: Vec<usize> = ba.and(&bb).iter_ones().collect();
        let or: Vec<usize> = ba.or(&bb).iter_ones().collect();
        let naive_and: Vec<usize> = a.intersection(&b).copied().collect();
        let naive_or: Vec<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(and, naive_and);
        prop_assert_eq!(or, naive_or);
        // De Morgan over the 500-bit universe.
        let lhs = ba.and(&bb).not();
        let rhs = ba.not().or(&bb.not());
        prop_assert_eq!(lhs.iter_ones().collect::<Vec<_>>(), rhs.iter_ones().collect::<Vec<_>>());
    }

    /// Membership sets preserve row sets regardless of representation.
    #[test]
    fn membership_representation_agnostic(
        rows in proptest::collection::btree_set(0u32..1000, 0..600),
    ) {
        let v: Vec<u32> = rows.iter().copied().collect();
        let m = MembershipSet::from_rows(v.clone(), 1000);
        prop_assert_eq!(m.len(), v.len());
        prop_assert_eq!(
            m.iter().map(|r| r as u32).collect::<Vec<_>>(),
            v.clone()
        );
        for r in 0..1000usize {
            prop_assert_eq!(m.contains(r), rows.contains(&(r as u32)));
        }
    }

    /// Intersection is commutative and contained in both operands.
    #[test]
    fn membership_intersection_laws(
        a in proptest::collection::btree_set(0u32..400, 0..300),
        b in proptest::collection::btree_set(0u32..400, 0..300),
    ) {
        let ma = MembershipSet::from_rows(a.iter().copied().collect(), 400);
        let mb = MembershipSet::from_rows(b.iter().copied().collect(), 400);
        let i1: Vec<usize> = ma.intersect(&mb).iter().collect();
        let i2: Vec<usize> = mb.intersect(&ma).iter().collect();
        prop_assert_eq!(&i1, &i2);
        let naive: Vec<usize> = a.intersection(&b).map(|&r| r as usize).collect();
        prop_assert_eq!(i1, naive);
    }

    /// A sampled walk returns a subset of present rows, in ascending order:
    /// exactly the members `row_sampled` admits, so it is deterministic in
    /// the seed.
    #[test]
    fn membership_sample_is_subset(
        rows in proptest::collection::btree_set(0u32..5000, 1..2000),
        seed in any::<u64>(),
        rate in 0.05f64..0.95,
    ) {
        let m = MembershipSet::from_rows(rows.iter().copied().collect(), 5000);
        let sample = |seed| {
            let mut s = Vec::new();
            scan_rows(&Selection::Sampled { base: &Selection::Members(&m), rate, seed }, |r| {
                s.push(r as u32)
            });
            s
        };
        let s = sample(seed);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
        for r in &s {
            prop_assert!(rows.contains(r), "sampled row {} not a member", r);
        }
        let want: Vec<u32> =
            rows.iter().copied().filter(|&r| row_sampled(u64::from(r), rate, seed)).collect();
        prop_assert_eq!(&s, &want, "the members row_sampled admits");
        prop_assert_eq!(s, sample(seed), "deterministic");
    }

    /// RowKey ordering is a total order consistent with reversal of the
    /// descending flag.
    #[test]
    fn rowkey_direction_antisymmetry(a in any::<i64>(), b in any::<i64>()) {
        let asc_a = RowKey::new(vec![Value::Int(a)], vec![false]);
        let asc_b = RowKey::new(vec![Value::Int(b)], vec![false]);
        let desc_a = RowKey::new(vec![Value::Int(a)], vec![true]);
        let desc_b = RowKey::new(vec![Value::Int(b)], vec![true]);
        prop_assert_eq!(asc_a.cmp(&asc_b), desc_b.cmp(&desc_a));
    }

    /// Bounded selections are exactly the unbounded row stream clipped to
    /// the bounds, for every membership representation.
    #[test]
    fn bounded_selection_equals_clipped_iteration(
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        n in 1usize..500,
        cuts in (any::<u16>(), any::<u16>()),
    ) {
        let m = membership(kind, &raw, n);
        let a = cuts.0 as usize % (n + 1);
        let b = cuts.1 as usize % (n + 1);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sel = Selection::members_in(&m, lo, hi);
        let mut got = Vec::new();
        scan_rows(&sel, |r| got.push(r));
        let want: Vec<usize> = m.iter().filter(|&r| r >= lo && r < hi).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(sel.count(), want.len());
    }

    /// The split plan at any grain tiles the partition's rows exactly: the
    /// pieces ascend, cover `[0, universe)` with no gap or overlap and span
    /// at most the grain each. The plan is the same for every membership
    /// kind over the universe, and the concatenated piece scans reproduce
    /// each one's row stream.
    #[test]
    fn split_ranges_tile_exactly(
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        n in 1usize..500,
        grain in 1usize..128,
    ) {
        let plan = split_ranges(n, grain);
        prop_assert_eq!(plan.first().map(|p| p.0), Some(0));
        prop_assert_eq!(plan.last().map(|p| p.1), Some(n));
        prop_assert!(plan.windows(2).all(|w| w[0].1 == w[1].0), "pieces adjoin: {:?}", plan);
        prop_assert!(plan.iter().all(|&(lo, hi)| lo < hi && hi - lo <= grain));
        for kind in 0..4 {
            let m = membership(kind, &raw, n);
            let mut rows = Vec::new();
            for &(lo, hi) in &plan {
                scan_rows(&Selection::members_in(&m, lo, hi), |r| rows.push(r));
            }
            let whole: Vec<usize> = m.iter().collect();
            prop_assert_eq!(rows, whole, "pieces tile the membership");
        }
    }

    /// The ascending cursor agrees with plain `get` on arbitrary ascending
    /// (and occasionally jumping) probe sequences, for every encoding.
    #[test]
    fn ascending_cursor_agrees_with_get(
        data in proptest::collection::vec(-50i64..50, 1..400),
        probes in proptest::collection::vec(any::<u32>(), 1..100),
        step in 0usize..5,
    ) {
        let data: Vec<i64> = data.iter().map(|v| v * STEPS[step]).collect();
        for s in all_storages(&data) {
            let mut sorted: Vec<usize> =
                probes.iter().map(|&p| p as usize % data.len()).collect();
            sorted.sort_unstable();
            let mut cur = 0usize;
            for &i in &sorted {
                prop_assert_eq!(s.run_at(&mut cur, i).0, data[i], "{} asc", s.kind());
            }
            // A backward jump after the walk still answers correctly.
            let back = sorted[0];
            prop_assert_eq!(s.run_at(&mut cur, back).0, data[back], "{} back", s.kind());
        }
    }

    /// Delta storage is value-preserving on ascending data at every access
    /// granularity: per row, ascending cursor, arbitrary-offset block
    /// decode, and whole frames.
    #[test]
    fn delta_storages_agree_with_plain(
        increments in proptest::collection::vec(0u32..10_000, 1..400),
        start in any::<i32>(),
        probe in any::<u64>(),
    ) {
        let mut v = start as i64;
        let data: Vec<i64> = increments
            .iter()
            .map(|&d| {
                v += d as i64;
                v
            })
            .collect();
        let s = I64Storage::delta_of(&data).expect("ascending data delta-codes");
        prop_assert_eq!(s.kind(), EncodingKind::Delta);
        prop_assert_eq!(&s.to_vec(), &data);
        let i = (probe % data.len() as u64) as usize;
        prop_assert_eq!(s.get(i), data[i]);
        // Whole frames, in ascending cursor order.
        let mut buf = [0i64; BLOCK_ROWS];
        let mut cursor = 0usize;
        let mut base = 0usize;
        while base < data.len() {
            let len = BLOCK_ROWS.min(data.len() - base);
            let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
            prop_assert_eq!(lanes, &data[base..base + len], "frame {}", base);
            base += BLOCK_ROWS;
        }
        // Arbitrary offset decode.
        let n = 17.min(data.len() - i);
        let mut out = vec![0i64; n];
        s.decode_into(i, &mut out);
        prop_assert_eq!(&out[..], &data[i..i + n]);
    }

    /// Exceptions storage answers every access as the rows it stores, over
    /// up to three rank groups: whole and shortened frames from every frame
    /// start with a fresh cursor and with one carried across jumps;
    /// arbitrary-offset decodes; `get`, ascending `index_run` reads and the
    /// runs they report; and `range_frame_word` row by row, with the fill
    /// inside, at either edge of and outside the range — under the vector
    /// codegen or forced scalar.
    #[test]
    fn exceptions_agree_with_the_rows_they_store(
        n in 1usize..9_000,
        center in -3i64..3,
        percent in 0u64..40,
        step in 0usize..5,
        seed in any::<u64>(),
        jumps in proptest::collection::vec(any::<u16>(), 1..16),
        scalar in any::<bool>(),
    ) {
        let data = mostly(n, center * STEPS[step], percent, STEPS[step], seed);
        let s = I64Storage::exceptions_of(&data).unwrap();
        // The majority's, or with none some value's: read it back.
        let &hillview_columnar::IntStorage::Exceptions { fill, .. } = &s else {
            panic!("exceptions_of built {}", s.kind());
        };
        hillview_columnar::simd::set_force_scalar(scalar);
        prop_assert_eq!(s.len(), n);
        prop_assert_eq!(&s.to_vec(), &data);
        let frames = n.div_ceil(BLOCK_ROWS);
        let mut buf = [0i64; BLOCK_ROWS];
        for first in 0..frames {
            let mut cursor = 0usize;
            let mut frame = first;
            for (k, &jump) in jumps.iter().cycle().take(frames).enumerate() {
                if frame >= frames {
                    break;
                }
                let base = frame * BLOCK_ROWS;
                let rows = BLOCK_ROWS.min(n - base);
                // Every other frame cut short, as a selection word's
                // highest bit cuts it.
                let len = if k % 2 == 1 { 1 + usize::from(jump) % rows } else { rows };
                let lanes = s.decode_frame(&mut cursor, base, len, &mut buf);
                prop_assert_eq!(lanes, &data[base..base + len], "frame {} from {}", frame, first);
                frame += if jump % 3 == 0 { 1 } else { 1 + usize::from(jump) % 70 };
            }
        }
        let start = usize::from(jumps[0]) % n;
        let take = (n - start).min(usize::from(jumps[jumps.len() - 1]) % 300);
        prop_assert_eq!(s.decode_range(start, start + take), &data[start..start + take]);
        let mut cursor = 0usize;
        for i in (0..n).step_by(1 + usize::from(jumps[0]) % 13) {
            prop_assert_eq!(s.get(i), data[i], "get {}", i);
            prop_assert_eq!(s.index_run(&mut cursor, i).0, data[i], "ascending {}", i);
        }
        let mut cursor = 0usize;
        let mut i = start;
        while i < n {
            let (v, end) = s.index_run(&mut cursor, i);
            prop_assert!(end > i && data[i..end].iter().all(|&x| x == v), "run at {}", i);
            i = end;
        }
        let k = 40 * STEPS[step];
        for (lo, hi) in [
            (fill, fill),
            (fill - k, fill + k),
            (fill, fill + k),
            (fill - k, fill),
            (fill + 1, fill + k),
            (fill - k, fill - 1),
            (i64::MIN, i64::MAX),
        ] {
            let mut cursor = 0usize;
            for base in (0..n).step_by(BLOCK_ROWS) {
                let len = BLOCK_ROWS.min(n - base);
                let w = s.range_frame_word(&mut cursor, base, len, lo, hi, &mut buf);
                for (r, &v) in data[base..base + len].iter().enumerate() {
                    prop_assert_eq!(w >> r & 1 == 1, lo <= v && v <= hi, "[{}, {}] row {}", lo, hi, base + r);
                }
                prop_assert!(len == BLOCK_ROWS || w >> len == 0, "stray bits");
            }
        }
        hillview_columnar::simd::set_force_scalar(false);
    }

    /// Block-ABI tiling laws: the frames of any selection have 64-aligned,
    /// strictly ascending bases; selection words stay within the frame
    /// length; and frame bits plus sparse rows reproduce the selection's
    /// row stream exactly, conserving the total weight.
    #[test]
    fn frames_tile_the_selection_exactly(
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        n in 1usize..500,
        cuts in (any::<u16>(), any::<u16>()),
    ) {
        let m = membership(kind, &raw, n);
        let a = cuts.0 as usize % (n + 1);
        let b = cuts.1 as usize % (n + 1);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for sel in [Selection::Members(&m), Selection::members_in(&m, lo, hi)] {
            let mut rows: Vec<usize> = Vec::new();
            let mut weight = 0usize;
            let mut last_base: Option<usize> = None;
            scan_frames(&sel, |ev| match ev {
                FrameEvent::Frame { base, len, word } => {
                    assert_eq!(base % BLOCK_ROWS, 0, "base 64-aligned");
                    assert!(len <= BLOCK_ROWS);
                    assert!(word != 0, "empty frames are never emitted");
                    assert_eq!(word & !(u64::MAX >> (64 - len)), 0, "selection bits within len");
                    if let Some(prev) = last_base {
                        assert!(base > prev, "bases strictly ascending");
                    }
                    last_base = Some(base);
                    weight += word.count_ones() as usize;
                    let mut w = word;
                    while w != 0 {
                        let k = w.trailing_zeros() as usize;
                        w &= w - 1;
                        rows.push(base + k);
                    }
                }
                FrameEvent::Row(r) => {
                    weight += 1;
                    rows.push(r);
                }
            });
            let want: Vec<usize> = match sel {
                Selection::Members(_) => m.iter().collect(),
                _ => m.iter().filter(|&r| r >= lo && r < hi).collect(),
            };
            prop_assert_eq!(&rows, &want, "frames tile the selection");
            prop_assert_eq!(weight, sel.count(), "weights conserved");
        }
    }

    /// The one selection walk over every shape: `Members`, `MemberRange`
    /// with bounds anywhere in a word and that range `Sampled`, each over
    /// `Full`, `Dense` and `Sparse` memberships, bare and under a fused
    /// filter. Frames are 64-aligned with strictly ascending bases and end
    /// at their highest selected bit; the rows emitted ascend strictly (so
    /// frames and rows never overlap) and are exactly `MembershipSet::iter`
    /// clipped to the bounds — kept, sampled, by `row_sampled` and, fused,
    /// by `CompiledPredicate::eval`, with only frames emitted and `matched`
    /// counting the rows before the sample. `scan_rows`, `count_missing`
    /// and `scan_values` (over every encoding) agree.
    #[test]
    fn one_walk_tiles_every_selection_shape(
        shape in 0usize..3,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        n in 1usize..600,
        run in (any::<u16>(), 0usize..200),
        cuts in (any::<u16>(), any::<u16>()),
        rate in 0.05f64..1.0,
        seed in any::<u64>(),
        range in (-20i64..120, 0i64..80),
    ) {
        // The rows `raw` names plus one contiguous run, so dense words are
        // sometimes all ones; each shape is forced, whatever the density.
        let mut rows: Vec<u32> = raw.iter().map(|r| r % n as u32).collect();
        let from = usize::from(run.0) % n;
        rows.extend((from..(from + run.1).min(n)).map(|r| r as u32));
        rows.sort_unstable();
        rows.dedup();
        let m = match shape {
            0 => MembershipSet::full(n),
            1 => {
                let mut b = Bitmap::new(n);
                rows.iter().for_each(|&r| b.set(r as usize));
                MembershipSet::Dense(b)
            }
            _ => MembershipSet::Sparse { rows, universe: n },
        };
        let (a, b) = (usize::from(cuts.0) % (n + 1), usize::from(cuts.1) % (n + 1));
        let bounds = (a.min(b), a.max(b));
        let x: Vec<Option<i64>> = (0..n as i64).map(|i| (i % 7 != 3).then_some(i * 7919 % 100)).collect();
        let nulls = NullMask::from_flags(x.iter().map(Option::is_none), n);
        let data: Vec<i64> = x.iter().map(|v| v.unwrap_or(0)).collect();
        let table = Table::builder()
            .column("X", ColumnKind::Int, Column::Int(I64Column::from_options(x.clone())))
            .build()
            .unwrap();
        let predicate = Predicate::range("X", range.0 as f64, (range.0 + range.1) as f64);
        let mut compiled = predicate.compile(&table).unwrap();
        let keep: Vec<bool> = (0..n).map(|r| compiled.eval(&table, r)).collect();
        let sample = (rate, seed);
        for kind in 0..3 {
            let unfiltered: Vec<usize> = match kind {
                0 => m.iter().collect(),
                _ => m.iter().filter(|&r| bounds.0 <= r && r < bounds.1).collect(),
            };
            let sparse = shape == 2;
            for fused in [None, Some((&predicate, &table))] {
                let matches: Vec<usize> =
                    unfiltered.iter().copied().filter(|&r| fused.is_none() || keep[r]).collect();
                let want: Vec<usize> = matches
                    .iter()
                    .copied()
                    .filter(|&r| kind != 2 || row_sampled(r as u64, rate, seed))
                    .collect();
                let (events, matched) = over_shape(&m, sample, bounds, kind, fused, |sel| {
                    let mut events = Vec::new();
                    scan_frames(sel, |ev| events.push(ev));
                    events
                });
                let mut got = Vec::new();
                let mut last_base = None;
                for ev in events {
                    match ev {
                        FrameEvent::Frame { base, len, word } => {
                            prop_assert!(!(sparse && fused.is_none()), "sparse rows arrive one by one");
                            prop_assert_eq!(base % BLOCK_ROWS, 0, "base 64-aligned");
                            prop_assert!(last_base.is_none_or(|b| base > b), "bases ascend");
                            last_base = Some(base);
                            prop_assert!(word != 0, "empty frames are never emitted");
                            prop_assert_eq!(len, 64 - word.leading_zeros() as usize, "len ends at the top bit");
                            prop_assert!(base + len <= n, "frame inside the column");
                            got.extend((0..len).filter(|k| word >> k & 1 == 1).map(|k| base + k));
                        }
                        FrameEvent::Row(r) => {
                            prop_assert!(sparse && fused.is_none(), "row {} from a dense or fused walk", r);
                            got.push(r);
                        }
                    }
                }
                prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "rows ascend, never overlap");
                prop_assert_eq!(&got, &want, "kind {} fused {}", kind, fused.is_some());
                if let Some(matched) = matched {
                    prop_assert_eq!(matched as usize, matches.len(), "matched");
                }
                let (rows, _) = over_shape(&m, sample, bounds, kind, fused, |sel| {
                    let mut rows = Vec::new();
                    scan_rows(sel, |r| rows.push(r));
                    rows
                });
                prop_assert_eq!(&rows, &want, "scan_rows");
                let want_missing = want.iter().filter(|&&r| x[r].is_none()).count() as u64;
                let want_values: Vec<i64> = want.iter().filter_map(|&r| x[r]).collect();
                let (missing, _) = over_shape(&m, sample, bounds, kind, fused, |sel| {
                    count_missing(sel, nulls.bitmap())
                });
                prop_assert_eq!(missing, want_missing, "count_missing");
                for s in all_storages(&data) {
                    let ((values, missing), _) = over_shape(&m, sample, bounds, kind, fused, |sel| {
                        let (mut values, mut missing) = (Vec::new(), 0u64);
                        scan_values(sel, &s, nulls.bitmap(), &mut missing, |v| values.push(v));
                        (values, missing)
                    });
                    prop_assert_eq!(&values, &want_values, "{} scan_values", s.kind());
                    prop_assert_eq!(missing, want_missing, "{} scan_values missing", s.kind());
                }
            }
        }
    }

    /// `decode_frame` agrees with `decode_into` (and the raw data) for
    /// every storage at every frame of the column.
    #[test]
    fn decode_frame_matches_reference(
        data in proptest::collection::vec(-300i64..300, 1..400),
        step in 0usize..5,
    ) {
        let data: Vec<i64> = data.iter().map(|v| v * STEPS[step]).collect();
        for s in all_storages(&data) {
            let mut buf = [0i64; BLOCK_ROWS];
            let mut cursor = 0usize;
            let mut base = 0usize;
            while base < data.len() {
                let len = BLOCK_ROWS.min(data.len() - base);
                let lanes = ScanSource::decode_frame(&s, &mut cursor, base, len, &mut buf);
                prop_assert_eq!(lanes, &data[base..base + len], "{} frame {}", s.kind(), base);
                base += BLOCK_ROWS;
            }
        }
    }

    /// The vector codegen of every primitive is byte-identical to its
    /// forced-scalar fallback on arbitrary inputs — the dispatch only
    /// selects codegen, never semantics.
    #[test]
    fn simd_primitives_match_scalar_fallbacks(
        vals in proptest::collection::vec(-1.0e6f64..1.0e6, 1..65),
        live in any::<u64>(),
        word in any::<u64>(),
        lohi in (-100.0f64..100.0, 1.0f64..500.0),
        cnt in 1u32..200,
        data in proptest::collection::vec(0i64..(1 << 20), 1..300),
        step in 0usize..5,
    ) {
        use hillview_columnar::simd::{
            bucket_indexes, expand_word, integral_lanes, moments_frame, set_force_scalar,
            BucketParams, MomentLanes,
        };
        let p = BucketParams {
            lo: lohi.0,
            hi: lohi.0 + lohi.1,
            scale: cnt as f64 / lohi.1,
            cnt,
        };
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let mut cells = [0u32; 64];
            bucket_indexes(&vals, live, &p, cnt + 1, &mut cells);
            let mut masks = [0u32; 64];
            expand_word(word, &mut masks);
            let mut acc = MomentLanes::new(3);
            moments_frame(&vals, &mut acc);
            let mut packed_out = Vec::new();
            let strided: Vec<i64> = data.iter().map(|v| v * STEPS[step] - (1 << 40)).collect();
            for values in [&data, &strided] {
                packed_out.extend(I64Storage::bit_packed_of(values).unwrap().to_vec());
            }
            // Any i64 may stand where a code should (a damaged file).
            let codes: Vec<i64> = data.iter().map(|&d| d.wrapping_mul(word as i64)).collect();
            let mut doubles = vec![0.0f64; codes.len()];
            integral_lanes(&codes, &mut doubles);
            set_force_scalar(false);
            (cells, masks, acc.collapse(), packed_out, bits(&doubles))
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(fast.0, slow.0, "bucket cells");
        prop_assert_eq!(fast.1, slow.1, "expanded masks");
        prop_assert_eq!(fast.2.0.to_bits(), slow.2.0.to_bits(), "min");
        prop_assert_eq!(fast.2.1.to_bits(), slow.2.1.to_bits(), "max");
        for (a, b) in fast.2.2.iter().zip(&slow.2.2) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "power sums");
        }
        prop_assert_eq!(fast.3, slow.3, "bit-unpack");
        prop_assert_eq!(fast.4, slow.4, "integral-double convert");
    }

    /// The predicate word primitives (`range_word_incl`, `range_word_half`,
    /// `eq_word`, `probe_word`) produce bit-identical selection words under
    /// forced-scalar and vector dispatch, including NaN lanes and
    /// out-of-bitmap dictionary codes.
    #[test]
    fn predicate_word_primitives_match_scalar_fallbacks(
        fraw in proptest::collection::vec(
            proptest::option::weighted(0.85, -1.0e6f64..1.0e6),
            1..65,
        ),
        ivals in proptest::collection::vec(any::<i64>(), 1..65),
        cvals in proptest::collection::vec(0u32..200, 1..65),
        codes in proptest::collection::vec(0u32..160, 1..65),
        bits in proptest::collection::vec(any::<u64>(), 2..3),
        flo in -1.0e5f64..1.0e5,
        fspan in 0.0f64..1.0e5,
        ilo in any::<i64>(),
        ispan in 0i64..1_000_000,
        traw in proptest::option::weighted(0.8, -1.0e6f64..1.0e6),
    ) {
        use hillview_columnar::simd::{
            eq_word, probe_word, range_word_half, range_word_incl, set_force_scalar,
        };
        // The vendored proptest has no weighted one-of; model "mostly finite,
        // sometimes NaN" lanes with a weighted Option instead.
        let fvals: Vec<f64> = fraw.iter().map(|v| v.unwrap_or(f64::NAN)).collect();
        let target = traw.unwrap_or(f64::NAN);
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let out = (
                range_word_incl(&ivals, ilo, ilo.saturating_add(ispan)),
                range_word_incl(&cvals, 20u32, 150u32),
                range_word_incl(&fvals, flo, flo + fspan),
                range_word_half(&fvals, flo, flo + fspan),
                eq_word(&fvals, target),
                probe_word(&codes, &bits),
            );
            set_force_scalar(false);
            out
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(fast.0, slow.0, "range_word_incl i64");
        prop_assert_eq!(fast.1, slow.1, "range_word_incl u32");
        prop_assert_eq!(fast.2, slow.2, "range_word_incl f64");
        prop_assert_eq!(fast.3, slow.3, "range_word_half");
        prop_assert_eq!(fast.4, slow.4, "eq_word");
        prop_assert_eq!(fast.5, slow.5, "probe_word");
    }

    /// `cmp_row` is the order of the materialized keys, and a key bound to
    /// the table (`bind`, which turns a string into a dictionary rank)
    /// compares as `cmp_row` does: for every column kind (nulls in each;
    /// doubles raw and integral-encoded, both zeros included), every mix of
    /// directions, keys taken from other rows and keys whose variants are
    /// foreign to their columns — strings among them that no row holds,
    /// between two entries, before the first and after the last.
    #[test]
    fn cmp_row_is_the_materialized_order(
        cells in proptest::collection::vec((any::<u8>(), any::<i16>(), any::<u8>()), 1..40),
        order in proptest::collection::vec((0usize..6, any::<bool>()), 1..4),
        probes in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
    ) {
        const WORDS: [&str; 5] = ["", "a", "ab", "b", "é"];
        // The rows' words, and strings no row can hold: below "a", between
        // entries, between "b" and "é", and above everything.
        const KEYS: [&str; 12] =
            ["", "a", "ab", "b", "é", "\0", "aa", "ac", "c", "è", "éa", "\u{10FFFF}"];
        let n = cells.len();
        let missing = |bit: u8| move |&(_, _, nulls): &(u8, i16, u8)| nulls >> bit & 1 == 1;
        let ints = |bit: u8, modulus: i16| {
            I64Column::from_options(
                cells.iter().map(|c| (!missing(bit)(c)).then_some(i64::from(c.1 % modulus))),
            )
        };
        let words = |bit: u8, shift: u8| {
            DictColumn::from_strings(cells.iter().map(|c| {
                (!missing(bit)(c)).then_some(WORDS[usize::from(c.0 >> shift) % WORDS.len()])
            }))
        };
        // Whole-valued doubles, forced onto the integer codes however few
        // rows there are; `raw` admits fractions and stays plain.
        let whole: Vec<f64> = cells.iter().map(|c| mixed_double(c.0, c.1 % 4, false, 1)).collect();
        let whole_nulls = NullMask::from_flags(cells.iter().map(missing(2)), n);
        let codes = I64Storage::bit_packed_of(&F64Storage::codes_of(&whole).unwrap()).unwrap();
        let whole = F64Column::from_parts(
            F64Storage::Integral(codes),
            whole_nulls,
            ZoneMap::from_f64(&whole),
        );
        let raw = F64Column::from_options(cells.iter().map(|c| {
            (!missing(3)(c)).then_some(mixed_double(c.0, c.1 % 4, true, 1))
        }));
        let names = ["int", "date", "whole", "raw", "str", "cat"];
        let t = Table::builder()
            .column(names[0], ColumnKind::Int, Column::Int(ints(0, 5)))
            .column(names[1], ColumnKind::Date, Column::Date(ints(1, 3)))
            .column(names[2], ColumnKind::Double, Column::Double(whole))
            .column(names[3], ColumnKind::Double, Column::Double(raw))
            .column(names[4], ColumnKind::String, Column::Str(words(4, 0)))
            .column(names[5], ColumnKind::Category, Column::Cat(words(5, 3)))
            .build()
            .unwrap();
        let directions: Vec<(&str, bool)> = order.iter().map(|&(c, desc)| (names[c], desc)).collect();
        let resolved = SortOrder::with_directions(&directions).resolve(&t).unwrap();
        for (a, b, foreign) in probes {
            let (a, b) = (usize::from(a) % n, usize::from(b) % n);
            let mut key = resolved.key(&t, b);
            if foreign % 2 == 1 {
                // One variant per position, whatever the column holds there.
                let values = (0..order.len()).map(|at| match (usize::from(foreign) + at) % 6 {
                    0 => Value::Missing,
                    1 => Value::Int(i64::from(foreign % 5)),
                    2 => Value::Double(f64::from(foreign % 5) - 0.5),
                    3 => Value::Double(-0.0),
                    4 => Value::Date(i64::from(foreign % 3)),
                    _ => Value::str(KEYS[usize::from(foreign / 2) % KEYS.len()]),
                });
                key = RowKey::new(values.collect(), key.descending().to_vec());
            }
            let want = resolved.key(&t, a).cmp(&key);
            prop_assert_eq!(
                resolved.cmp_row(&t, a, &key),
                want,
                "row {} against {:?} under {:?}", a, key, directions
            );
            prop_assert_eq!(
                resolved.cmp_bound(&t, a, &resolved.bind(&t, &key)),
                want,
                "row {} against bound {:?} under {:?}", a, key, directions
            );
        }
    }

    /// Value ordering is transitive on random triples (sort consistency).
    #[test]
    fn value_total_order(
        mut vals in proptest::collection::vec(
            prop_oneof![
                Just(Value::Missing),
                any::<i64>().prop_map(Value::Int),
                (-1e12f64..1e12).prop_map(Value::Double),
                any::<i64>().prop_map(Value::Date),
                "[a-z]{0,8}".prop_map(Value::str),
            ],
            0..50,
        ),
    ) {
        vals.sort();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }
}

/// Pieces the dictionary properties build strings from: the empty string,
/// an embedded NUL, characters whose UTF-8 encodings share one, two and
/// three leading bytes (so a shared run can stop inside a character), and
/// runs of 15, 16 and 20 bytes (so prefix and suffix lengths escape their
/// nibbles).
const PIECES: [&str; 14] = [
    "",
    "\0",
    "N",
    "1",
    "2",
    "é",
    "è",
    "€",
    "₤",
    "𝄞",
    "𝄢",
    "ppppppppppppppp",
    "pppppppppppppppp",
    "qqqqqqqqqqqqqqqqqqqq",
];

fn pieced(picks: &[usize]) -> String {
    picks.iter().map(|&p| PIECES[p % PIECES.len()]).collect()
}

/// The longest prefix `a` and `b` share that ends on a character boundary
/// of both: what a front-coded entry keeps of its predecessor.
fn char_shared(a: &str, b: &str) -> usize {
    let mut n = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    while !(a.is_char_boundary(n) && b.is_char_boundary(n)) {
        n -= 1;
    }
    n
}

/// The resident bytes of a dictionary of `sorted` (distinct, ascending),
/// counted from the layout: per entry a header byte, a varint for each
/// length of 15 or more (holding the length less 15), and the suffix; a
/// bucket's first entry shares nothing; four bytes per bucket of 16.
fn front_coded_bytes(sorted: &[String]) -> usize {
    let varint = |n: usize| {
        if n < 15 {
            0
        } else {
            1 + (n - 15).max(1).ilog2() as usize / 7
        }
    };
    let mut bytes = 4 * sorted.len().div_ceil(16);
    for (i, s) in sorted.iter().enumerate() {
        let prefix = if i % 16 == 0 {
            0
        } else {
            char_shared(&sorted[i - 1], s)
        };
        let suffix = s.len() - prefix;
        bytes += 1 + varint(prefix) + varint(suffix) + suffix;
    }
    bytes
}

/// Everything the one dictionary layout promises, for the column built
/// from `strings` (a `None` is a null row).
fn check_dictionary(strings: &[Option<String>]) -> Result<(), TestCaseError> {
    use std::cmp::Ordering;
    let col = DictColumn::from_strings(strings.iter().map(Option::as_deref));
    let mut buf = String::new();
    for (row, s) in strings.iter().enumerate() {
        prop_assert_eq!(col.read(row, &mut buf), s.as_deref(), "row {}", row);
    }
    let dict = col.dictionary();
    let mut sorted: Vec<String> = strings.iter().flatten().cloned().collect();
    sorted.sort();
    sorted.dedup();
    let mut walked = Vec::new();
    dict.for_each(|code, s| walked.push((code, s.to_string())));
    prop_assert_eq!(walked.len(), sorted.len());
    for (i, ((code, s), want)) in walked.iter().zip(&sorted).enumerate() {
        prop_assert_eq!(*code as usize, i);
        prop_assert_eq!(s, want);
        prop_assert_eq!(
            dict.read(*code, &mut buf),
            want.as_str(),
            "point read {}",
            code
        );
        prop_assert_eq!(dict.rank(want), Ok(*code));
    }
    prop_assert_eq!(dict.heap_bytes(), front_coded_bytes(&sorted));
    // Strings beside the entries: each one extended, cut short by a
    // character, and the extremes of the order.
    let mut probes: Vec<String> = vec![String::new(), "\0".into(), "\u{10FFFF}".into()];
    for s in &sorted {
        probes.push(format!("{s}\0"));
        probes.push(format!("{s}é"));
        let mut cut = s.clone();
        cut.pop();
        probes.push(cut);
    }
    for p in &probes {
        let below = sorted.iter().filter(|s| s.as_str() < p.as_str()).count() as u32;
        let want = if sorted.binary_search(p).is_ok() {
            Ok(below)
        } else {
            Err(below)
        };
        prop_assert_eq!(dict.rank(p), want, "rank of {:?}", p);
        for (code, s) in sorted.iter().enumerate() {
            let order: Ordering = s.as_str().cmp(p.as_str());
            prop_assert_eq!(
                dict.compare(code as u32, p),
                order,
                "{:?} against {:?}",
                s,
                p
            );
        }
    }
    // The bytes are the one encoding, and they read back as they are.
    let back =
        hillview_columnar::Dictionary::from_front_coded(dict.front_coded().to_vec(), dict.len())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(back.front_coded(), dict.front_coded());
    let keep: Vec<bool> = (0..dict.len()).map(|i| i % 3 != 1).collect();
    let kept: Vec<String> = sorted
        .iter()
        .enumerate()
        .filter(|(i, _)| keep[*i])
        .map(|(_, s)| s.clone())
        .collect();
    let subset = dict.subset(&keep);
    let rebuilt = DictColumn::from_strings(kept.iter().map(|s| Some(s.as_str())));
    prop_assert_eq!(subset.front_coded(), rebuilt.dictionary().front_coded());
    Ok(())
}

proptest! {
    /// One layout, whatever the strings: the entries are the sorted
    /// distinct input, the walk and the point read agree at every code,
    /// `rank` round-trips and places absent strings between their
    /// neighbours (as `compare` orders them against every entry), the heap
    /// footprint is the layout's exact size, the bytes parse back to
    /// themselves, a subset is the dictionary of its strings, and the
    /// column reads back its rows.
    #[test]
    fn a_dictionary_is_its_sorted_distinct_strings(
        rows in proptest::collection::vec(
            proptest::option::weighted(0.9, proptest::collection::vec(0usize..64, 0..5)),
            0..80,
        ),
    ) {
        let strings: Vec<Option<String>> =
            rows.iter().map(|r| r.as_ref().map(|picks| pieced(picks))).collect();
        check_dictionary(&strings)?;
    }
}

#[test]
fn dictionaries_of_every_bucket_edge() {
    // 0, 1, 15, 16, 17 and 33 distinct strings: empty, one entry, a bucket
    // one short, full, one over, and two full plus one.
    for n in [0usize, 1, 15, 16, 17, 33] {
        let mut state = n as u64;
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < n {
            let picks: Vec<usize> = (0..4).map(|_| splitmix(&mut state) as usize % 64).collect();
            seen.insert(pieced(&picks));
        }
        let strings: Vec<Option<String>> = seen.into_iter().rev().map(Some).collect();
        check_dictionary(&strings).unwrap();
        assert_eq!(
            DictColumn::from_strings(strings.iter().map(Option::as_deref))
                .dictionary()
                .len(),
            n
        );
    }
}
