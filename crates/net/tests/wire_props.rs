//! Property tests for the wire format: decode(encode(x)) == x, and corrupt
//! frames never panic.

use hillview_columnar::{Row, RowKey, Value};
use hillview_net::{Wire, WireReader, WireWriter};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Missing),
        any::<i64>().prop_map(Value::Int),
        (-1e15f64..1e15).prop_map(Value::Double),
        any::<i64>().prop_map(Value::Date),
        "\\PC{0,24}".prop_map(Value::str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn primitives_roundtrip(u in any::<u64>(), i in any::<i64>(), f in any::<f64>(), s in "\\PC{0,64}") {
        prop_assert_eq!(u64::from_bytes(u.to_bytes()).unwrap(), u);
        prop_assert_eq!(i64::from_bytes(i.to_bytes()).unwrap(), i);
        let f2 = f64::from_bytes(f.to_bytes()).unwrap();
        prop_assert!(f2 == f || (f.is_nan() && f2.is_nan()));
        prop_assert_eq!(String::from_bytes(s.clone().to_bytes()).unwrap(), s);
    }

    #[test]
    fn values_roundtrip(v in value_strategy()) {
        prop_assert_eq!(Value::from_bytes(v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn rows_roundtrip(vals in proptest::collection::vec(value_strategy(), 0..12)) {
        let row = Row::new(vals);
        prop_assert_eq!(Row::from_bytes(row.to_bytes()).unwrap(), row);
    }

    #[test]
    fn rowkeys_roundtrip_with_order(
        vals in proptest::collection::vec((value_strategy(), any::<bool>()), 1..6),
        other in proptest::collection::vec((value_strategy(), any::<bool>()), 1..6),
    ) {
        let k1 = RowKey::new(
            vals.iter().map(|(v, _)| v.clone()).collect(),
            vals.iter().map(|(_, d)| *d).collect(),
        );
        let k2 = RowKey::from_bytes(k1.to_bytes()).unwrap();
        prop_assert_eq!(&k1, &k2);
        // Ordering is preserved through the wire when widths match.
        if other.len() == vals.len() {
            let o1 = RowKey::new(
                other.iter().map(|(v, _)| v.clone()).collect(),
                vals.iter().map(|(_, d)| *d).collect(),
            );
            let o2 = RowKey::from_bytes(o1.to_bytes()).unwrap();
            prop_assert_eq!(k1.cmp(&o1), k2.cmp(&o2));
        }
    }

    /// Corrupt bytes must produce errors, never panics or hangs.
    #[test]
    fn corrupt_frames_fail_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let b = bytes::Bytes::from(bytes);
        let _ = Value::from_bytes(b.clone());
        let _ = Row::from_bytes(b.clone());
        let _ = RowKey::from_bytes(b.clone());
        let _ = Vec::<u64>::from_bytes(b.clone());
        let _ = String::from_bytes(b);
    }

    /// Truncating a valid frame anywhere must fail cleanly (no partial
    /// values silently accepted as complete).
    #[test]
    fn truncation_never_roundtrips(v in value_strategy(), cut_frac in 0.0f64..1.0) {
        let full = v.to_bytes();
        if full.len() > 1 {
            let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
            let sliced = full.slice(0..cut);
            if let Ok(decoded) = Value::from_bytes(sliced) {
                // Only acceptable if the truncation point was a no-op
                // (impossible for our formats, so this must not happen).
                prop_assert_eq!(decoded, v, "truncated decode produced a different value");
                prop_assert_eq!(cut, full.len());
            }
        }
    }

    /// Truncating a row encoding anywhere must also fail cleanly — rows
    /// carry a leading arity, so a clean prefix must not parse as a
    /// shorter row.
    #[test]
    fn row_truncation_never_roundtrips(
        vals in proptest::collection::vec(value_strategy(), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let row = Row::new(vals);
        let full = row.to_bytes();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        if let Ok(decoded) = Row::from_bytes(full.slice(0..cut)) {
            prop_assert_eq!(decoded, row, "truncated decode produced a different row");
            prop_assert_eq!(cut, full.len());
        }
    }

    /// Flipping any single bit of a valid encoding must either fail with a
    /// structured [`hillview_net::Error`] or decode to a self-consistent
    /// value (one that re-encodes canonically) — never panic, and never
    /// decode to something that cannot survive its own round trip.
    #[test]
    fn single_bit_flips_decode_structurally(
        vals in proptest::collection::vec(value_strategy(), 0..6),
        flip in any::<usize>(),
    ) {
        let row = Row::new(vals);
        let full = row.to_bytes();
        if !full.is_empty() {
            let mut mutated = full.to_vec();
            let bit = flip % (mutated.len() * 8);
            mutated[bit / 8] ^= 1 << (bit % 8);
            if let Ok(decoded) = Row::from_bytes(bytes::Bytes::from(mutated)) {
                let reencoded = decoded.to_bytes();
                prop_assert_eq!(
                    Row::from_bytes(reencoded).unwrap(),
                    decoded,
                    "bit-flipped decode is not round-trip stable"
                );
            }
        }
    }

    /// Inflating a length prefix far beyond the actual payload must fail
    /// with a structured error — no panic, hang, or absurd allocation.
    /// [`WireReader::get_len`] bounds every length by the bytes remaining.
    #[test]
    fn inflated_length_fields_fail_cleanly(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        excess in 1u64..u64::MAX / 2,
    ) {
        let mut w = WireWriter::new();
        w.put_varint(payload.len() as u64 + excess);
        for &b in &payload {
            w.put_u8(b);
        }
        let frame = w.finish();
        let mut r = WireReader::new(frame.clone());
        prop_assert!(r.get_bytes().is_err(), "oversized byte-length accepted");
        let mut r = WireReader::new(frame.clone());
        prop_assert!(r.get_str().is_err(), "oversized string-length accepted");
        prop_assert!(String::from_bytes(frame.clone()).is_err());
        prop_assert!(Vec::<u64>::from_bytes(frame).is_err());
        // Past the sanity cap, the error names what the caller was reading.
        let len = (1u64 << 28) + excess;
        let mut w = WireWriter::new();
        w.put_varint(len);
        prop_assert_eq!(
            WireReader::new(w.finish()).get_len("heatmap bx"),
            Err(hillview_net::Error::BadLength { context: "heatmap bx", len })
        );
    }

    /// Varint decoding tolerates any byte soup: it either yields a value
    /// consuming at most 10 bytes or errors — never panics or reads past
    /// the buffer.
    #[test]
    fn varint_decoding_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
        let len = bytes.len();
        let mut r = WireReader::new(bytes::Bytes::from(bytes));
        if let Ok(v) = r.get_varint() {
            let consumed = len - r.remaining();
            prop_assert!(consumed <= 10, "varint consumed {consumed} bytes");
            // Canonical re-encoding is never longer than what was read.
            let mut w = WireWriter::new();
            w.put_varint(v);
            prop_assert!(w.len() <= consumed);
        }
    }
}
