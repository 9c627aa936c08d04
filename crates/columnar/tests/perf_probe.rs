//! Ignored-by-default perf probe: whole-frame bit-unpack throughput per
//! width, for tuning the block decoders (compare against the cycles/value
//! notes in ROADMAP.md when touching `unpack_span`).
//!
//! Run with:
//! `cargo test -p hillview-columnar --release --test perf_probe -- --ignored --nocapture`

use hillview_columnar::{I64Storage, ScanSource, BLOCK_ROWS};
use std::time::Instant;

#[test]
#[ignore]
fn probe_unpack() {
    const N: usize = 1_000_000;
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for width in [1usize, 4, 8, 12, 16, 20, 31] {
        let vals: Vec<i64> = (0..N).map(|_| (next() % (1 << width)) as i64).collect();
        let s = I64Storage::bit_packed_of(&vals).unwrap();
        let mut buf = [0i64; BLOCK_ROWS];
        let mut sum = 0i64;
        // warmup
        for _ in 0..2 {
            let mut cursor = 0usize;
            for base in (0..N).step_by(64) {
                let lanes =
                    ScanSource::decode_frame(&s, &mut cursor, base, 64.min(N - base), &mut buf);
                sum = sum.wrapping_add(lanes[0]);
            }
        }
        let t = Instant::now();
        let reps = 10;
        for _ in 0..reps {
            let mut cursor = 0usize;
            for base in (0..N).step_by(64) {
                let lanes =
                    ScanSource::decode_frame(&s, &mut cursor, base, 64.min(N - base), &mut buf);
                sum = sum.wrapping_add(lanes[63.min(lanes.len() - 1)]);
            }
        }
        let el = t.elapsed();
        println!(
            "width {width:>2}: {:>8.3} ms/pass  ({:.2} cycles/val @3.5GHz)  [{sum}]",
            el.as_secs_f64() * 1000.0 / reps as f64,
            el.as_secs_f64() * 3.5e9 / (reps * N) as f64
        );
    }
}

/// Text-search throughput probe for the filter pipeline: the
/// display-format path must reuse one scratch buffer (no per-row `String`)
/// and case-insensitive matching must fold without allocating. Compare
/// ns/row against the notes in ROADMAP.md when touching `text_match` or
/// the `MatchDisplay`/`MatchCodes` predicate leaves.
#[test]
#[ignore]
fn probe_text_filter() {
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::predicate::{filter_members, filter_members_rowwise};
    use hillview_columnar::{ColumnKind, MembershipSet, NullMask, Predicate, StrMatchKind, Table};
    use std::sync::Arc;

    const N: usize = 1_000_000;
    let t = Table::builder()
        .column(
            "Id",
            ColumnKind::Int,
            Column::Int(I64Column::new(
                (0..N as i64).map(|i| i * 37 % 1_000_003).collect(),
                NullMask::none(),
            )),
        )
        .column(
            "Carrier",
            ColumnKind::Category,
            Column::Cat(DictColumn::from_strings(
                (0..N).map(|i| Some(["UA", "AA", "DL", "gandalf-airlines"][i % 4])),
            )),
        )
        .build()
        .unwrap();
    let full = Arc::new(MembershipSet::full(N));
    for (name, pred) in [
        (
            "substring on numeric (display path)",
            Predicate::str_match("Id", "999", StrMatchKind::Substring, false),
        ),
        (
            "ci substring on numeric",
            Predicate::str_match("Id", "999", StrMatchKind::Substring, true),
        ),
        (
            "ci substring on dictionary",
            Predicate::str_match("Carrier", "GANDALF", StrMatchKind::Substring, true),
        ),
    ] {
        for (path, f) in [
            (
                "rowwise",
                &(|| filter_members_rowwise(&t, &pred, &full).unwrap().len()) as &dyn Fn() -> usize,
            ),
            (
                "block",
                &(|| filter_members(&t, &pred, &full).unwrap().len()),
            ),
        ] {
            let matches = f(); // warmup
            let reps = 3;
            let start = Instant::now();
            for _ in 0..reps {
                assert_eq!(f(), matches);
            }
            let el = start.elapsed();
            println!(
                "{name:<38} {path:<8} {:>8.1} ns/row  ({matches} matches)",
                el.as_secs_f64() * 1e9 / (reps * N) as f64
            );
        }
    }
}

/// Frame-decode cost of an encoded double column against its raw form and
/// against the integer codes alone: the difference to the codes is the
/// 64-lane code → `f64` convert.
#[test]
#[ignore]
fn probe_integral_double_decode() {
    use hillview_columnar::F64Storage;
    const N: usize = 1_000_000;
    let vals: Vec<f64> = (0..N).map(|i| ((i * 7919) % 700) as f64 - 60.0).collect();
    let codes = F64Storage::codes_of(&vals).unwrap();
    let encoded = F64Storage::encode(vals.clone());
    assert!(matches!(encoded, F64Storage::Integral(_)));
    let plain = F64Storage::Plain(vals.into());
    let ints = I64Storage::encode(codes);

    fn pass<T: Copy + Default, S: ScanSource<T>>(s: &S, sink: impl Fn(T) -> u64) -> (f64, u64) {
        let mut buf = [T::default(); BLOCK_ROWS];
        let mut sum = 0u64;
        let reps = 20;
        let t = Instant::now();
        for _ in 0..reps {
            let mut cursor = 0usize;
            for base in (0..N).step_by(64) {
                let lanes = s.decode_frame(&mut cursor, base, 64.min(N - base), &mut buf);
                sum = sum.wrapping_add(sink(lanes[lanes.len() - 1]));
            }
        }
        (t.elapsed().as_secs_f64() * 1e9 / (reps * N) as f64, sum)
    }
    for _ in 0..2 {
        let (p, a) = pass(&plain, f64::to_bits);
        let (e, b) = pass(&encoded, f64::to_bits);
        let (i, _) = pass(&ints, |v: i64| v as u64);
        assert_eq!(a, b);
        println!("plain {p:.3} ns/row  encoded {e:.3} ns/row  codes only {i:.3} ns/row");
    }
}
