//! Property tests for the wire format: decode(encode(x)) == x, and corrupt
//! frames never panic.

use hillview_columnar::{Row, RowKey, Value};
use hillview_net::{Error, Wire, WireReader, WireWriter};
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
    /// the buffer — and what it accepts is exactly what the writer writes.
    #[test]
    fn varint_decoding_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut r = WireReader::new(bytes::Bytes::from(bytes.clone()));
        if let Ok(v) = r.get_varint() {
            let consumed = bytes.len() - r.remaining();
            prop_assert!(consumed <= 10, "varint consumed {consumed} bytes");
            let mut w = WireWriter::new();
            w.put_varint(v);
            prop_assert_eq!(&w.finish()[..], &bytes[..consumed]);
        }
    }

    /// Count vectors of every mix of zeros round-trip in the shorter of
    /// their two spellings — zero runs on a tie, never longer than a varint
    /// per count — the decoder refuses the longer, and arbitrary bytes
    /// decode to an error or to counts that encode back to the bytes
    /// consumed.
    #[test]
    fn counts_roundtrip_and_decode_canonically(
        counts in prop_oneof![
            proptest::collection::vec(prop_oneof![Just(0u64), Just(0u64), any::<u64>()], 0..64),
            proptest::collection::vec(
                prop_oneof![Just(0u64), Just(0u64), Just(0u64), Just(0u64), 1u64..3, 1u64..300],
                0..200,
            ),
        ],
        soup in proptest::collection::vec(prop_oneof![Just(0u8), Just(0x80u8), any::<u8>()], 0..24),
        n in 0usize..40,
    ) {
        let mut w = WireWriter::new();
        w.put_counts(&counts);
        let plain: usize = counts.iter().map(|c| c.to_bytes().len()).sum();
        prop_assert!(w.len() <= plain, "{} bytes against {plain}", w.len());
        let bytes = w.finish();
        let (runs, sparse) = (zero_runs(&counts), sparse(&counts));
        let sparse_wins = counts.len() >= 2 && sparse.len() < runs.len();
        let (shorter, longer) = if sparse_wins { (sparse, runs) } else { (runs, sparse) };
        prop_assert_eq!(&bytes[..], &shorter[..]);
        let mut r = WireReader::new(bytes);
        prop_assert_eq!(r.get_counts(counts.len()).unwrap(), counts.clone());
        prop_assert_eq!(r.remaining(), 0);
        if counts.len() >= 2 {
            let refused = WireReader::new(longer.into()).get_counts(counts.len());
            prop_assert!(matches!(refused, Err(Error::NotCanonical { .. })), "{:?}", refused);
        }

        let mut r = WireReader::new(bytes::Bytes::from(soup.clone()));
        if let Ok(decoded) = r.get_counts(n) {
            prop_assert_eq!(decoded.len(), n);
            let mut w = WireWriter::new();
            w.put_counts(&decoded);
            prop_assert_eq!(&w.finish()[..], &soup[..soup.len() - r.remaining()]);
        }
    }

    /// A sorted, deduplicated key list round-trips bit for bit — kinds and
    /// float signs included — and re-encodes to the same bytes.
    #[test]
    fn key_lists_roundtrip(
        rows in proptest::collection::vec(proptest::collection::vec(small_value_strategy(), 3), 0..24),
        descending in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let mut keys: Vec<RowKey> = rows
            .into_iter()
            .map(|values| RowKey::new(values, descending.clone()))
            .collect();
        keys.sort();
        keys.dedup_by(|a, b| a.cmp(&b) == std::cmp::Ordering::Equal);
        let encode = |keys: &[RowKey]| {
            let mut w = WireWriter::new();
            w.put_key_header(keys.len(), keys.first());
            for (i, key) in keys.iter().enumerate() {
                w.put_key(i.checked_sub(1).map(|p| &keys[p]), key);
            }
            w.finish()
        };
        let bytes = encode(&keys);
        let mut r = WireReader::new(bytes.clone());
        let (count, directions) = r.get_key_header().unwrap();
        let mut back: Vec<RowKey> = Vec::new();
        for _ in 0..count {
            back.push(r.get_key(&directions, back.last()).unwrap());
        }
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(format!("{back:?}"), format!("{keys:?}"));
        prop_assert_eq!(encode(&back), bytes);
    }
}

fn varint(v: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(v);
    w.finish().to_vec()
}

/// `values` patched at any floor and width, honest or not, a bit at a
/// time: `varint(base)`, `width`, the slots `min(v − base, 2^width − 1)`
/// packed least significant bit first, then an escape varint per full
/// slot.
fn patched(values: &[u64], base: u64, width: u32) -> Vec<u8> {
    let full = (1u64 << width) - 1;
    let mut bits = vec![0u8; (values.len() * width as usize).div_ceil(8)];
    let mut escapes = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        let offset = v - base;
        for b in 0..width as usize {
            let at = i * width as usize + b;
            bits[at / 8] |= ((offset.min(full) >> b & 1) as u8) << (at % 8);
        }
        if offset >= full {
            escapes.extend(varint(offset - full));
        }
    }
    [varint(base), vec![width as u8], bits, escapes].concat()
}

/// The shortest of `values`' patched spellings at their least value, the
/// narrower of two widths that tie.
fn shortest_patched(values: &[u64]) -> Vec<u8> {
    let least = values.iter().copied().min().unwrap_or(0);
    let spellings = (0..=8).map(|width| patched(values, least, width));
    spellings.min_by_key(Vec::len).unwrap_or_default()
}

/// `counts` in zero runs: each count and lone zero its varint, each
/// maximal run of `k ≥ 2` zeros the varint of `k − 2` padded.
fn zero_runs(counts: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = counts;
    while let Some((&c, tail)) = rest.split_first() {
        let run = if c == 0 {
            1 + tail.iter().take_while(|&&c| c == 0).count()
        } else {
            0
        };
        if run < 2 {
            out.extend(varint(c));
            rest = tail;
        } else {
            let mut token = varint(run as u64 - 2);
            *token.last_mut().unwrap() |= 0x80;
            out.extend(token);
            out.push(0);
            rest = &rest[run..];
        }
    }
    out
}

/// `counts` sparse: `00 00`, the number of non-empty cells, the zeros
/// before each patched, each one's count less one patched.
fn sparse(counts: &[u64]) -> Vec<u8> {
    let (mut gaps, mut less_one, mut gap) = (Vec::new(), Vec::new(), 0);
    for &c in counts {
        if c == 0 {
            gap += 1;
        } else {
            gaps.push(gap);
            less_one.push(c - 1);
            gap = 0;
        }
    }
    let m = varint(gaps.len() as u64);
    [
        vec![0, 0],
        m,
        shortest_patched(&gaps),
        shortest_patched(&less_one),
    ]
    .concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Patched values round-trip whatever they hold; the writer's floor is
    /// the least value and its width spells them in the fewest bytes, the
    /// narrower of two that tie; and every other floor and width that
    /// spells them is refused.
    #[test]
    fn patched_bytes_roundtrip_at_their_shortest_spelling(
        values in proptest::collection::vec(
            prop_oneof![
                0u64..4,
                0u64..16,
                0u64..256,
                0u64..70_000,
                any::<u64>(),
                // Near a power of 2^7, where an escape may be a byte shorter
                // than its offset's varint.
                (1u32..10, 0u64..600).prop_map(|(k, r)| (1u64 << (7 * k)) + r - 300.min(1 << (7 * k))),
            ],
            0..80,
        ),
        floor in prop_oneof![0u64..24, Just(1 << 40)],
    ) {
        let values: Vec<u64> = values.iter().map(|v| v.saturating_add(floor)).collect();
        let n = values.len();
        let mut w = WireWriter::new();
        w.put_packed(values.iter().copied());
        let bytes = w.finish().to_vec();
        let mut r = WireReader::new(bytes.clone().into());
        prop_assert_eq!(r.get_packed(n).unwrap(), values.clone());
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(&shortest_patched(&values), &bytes);
        let least = values.iter().copied().min().unwrap_or(0);
        let width = u32::from(bytes[varint(least).len()]);
        for other_base in least.saturating_sub(2)..=least {
            for other_width in 0..=8 {
                if (other_base, other_width) == (least, width) {
                    continue;
                }
                let other = patched(&values, other_base, other_width);
                if other_base == least {
                    let longer = (other.len(), other_width) > (bytes.len(), width);
                    prop_assert!(longer, "width {} spells {} bytes", other_width, other.len());
                }
                let refused = WireReader::new(other.into()).get_packed(n);
                prop_assert!(
                    matches!(refused, Err(Error::NotCanonical { .. })),
                    "base {} width {}: {:?}", other_base, other_width, refused
                );
            }
        }
    }
}

/// A test-local reference of a bit set's raw spelling: `0x00` and the
/// bytes of its bits, least significant first.
fn raw_bits(bits: &[bool]) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (j, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
        bytes[j / 8] |= 1 << (j % 8);
    }
    [vec![0], bytes].concat()
}

/// And of its runs: `0x01` and the varint of each run, absent first.
fn bit_runs(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![1];
    let (mut at, mut present) = (0, false);
    while at < bits.len() {
        let run = bits[at..].iter().take_while(|&&b| b == present).count();
        out.extend(varint(run as u64));
        (at, present) = (at + run, !present);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A bit set round-trips in the shorter of its two spellings, raw bits
    /// on a tie; the decoder refuses the longer, and arbitrary bytes decode
    /// to an error or to a set that encodes back to the bytes consumed.
    #[test]
    fn bit_sets_roundtrip_and_decode_canonically(
        runs in proptest::collection::vec((1usize..40, prop_oneof![Just(1usize), 1usize..300]), 0..12),
        noise in proptest::collection::vec(any::<bool>(), 0..150),
        first_present in any::<bool>(),
        soup in proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), any::<u8>()], 0..24),
        n in 0usize..200,
    ) {
        // Long runs, or noise, or both.
        let mut bits: Vec<bool> = Vec::new();
        let mut present = first_present;
        for (absent, run) in runs {
            bits.extend(std::iter::repeat_n(present, absent));
            bits.extend(std::iter::repeat_n(!present, run));
            present = !present;
        }
        bits.extend(noise);
        let len = bits.len();
        let mut words = vec![0u64; len.div_ceil(64)];
        for (j, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            words[j / 64] |= 1 << (j % 64);
        }
        let mut w = WireWriter::new();
        w.put_bits(&words, len);
        let bytes = w.finish();
        let (raw, runs) = (raw_bits(&bits), bit_runs(&bits));
        let (shorter, longer) = if runs.len() < raw.len() { (runs, raw) } else { (raw, runs) };
        prop_assert_eq!(&bytes[..], &shorter[..]);
        let mut r = WireReader::new(bytes);
        prop_assert_eq!(r.get_bits(len).unwrap(), words);
        prop_assert_eq!(r.remaining(), 0);
        if longer != shorter {
            let refused = WireReader::new(longer.into()).get_bits(len);
            prop_assert!(matches!(refused, Err(Error::NotCanonical { .. })), "{:?}", refused);
        }

        let mut r = WireReader::new(bytes::Bytes::from(soup.clone()));
        if let Ok(decoded) = r.get_bits(n) {
            prop_assert_eq!(decoded.len(), n.div_ceil(64));
            let mut w = WireWriter::new();
            w.put_bits(&decoded, n);
            prop_assert_eq!(&w.finish()[..], &soup[..soup.len() - r.remaining()]);
        }
    }
}

/// Values from a small domain, so sorted keys share prefixes, and with the
/// pairs `Value::eq` conflates: `0.0` / `-0.0`, `Int(1)` / `Double(1.0)`.
fn small_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Missing),
        (-2i64..3).prop_map(Value::Int),
        prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(2.5)].prop_map(Value::Double),
        (0i64..2).prop_map(Value::Date),
        "[ab]{0,2}".prop_map(Value::str),
    ]
}
