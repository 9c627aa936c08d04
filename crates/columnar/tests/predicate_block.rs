//! Property tests pinning block-wise predicate evaluation bit-identical to
//! the rowwise `CompiledPredicate::eval` reference, across integer and
//! integral-double encodings (plain / bit-packed / run-length / delta /
//! exceptions) × membership representations × null densities × predicate
//! shapes, in both simd-on and forced-scalar modes.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::predicate::{filter_members, filter_members_rowwise};
use hillview_columnar::{
    simd, ColumnKind, F64Storage, I64Storage, MembershipSet, NullMask, Predicate, StrMatchKind,
    Table, Value, ZoneMap,
};
use proptest::prelude::*;
use std::sync::Arc;

const ALPHABET: [&str; 5] = ["alpha", "Beta", "gamma-2", "15", "Ünïcode"];

/// Every `IntStorage` variant that can represent `data`, forced plus the
/// automatic choice (delta only represents near-ascending data, so the
/// dedicated sorted test below covers it densely).
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

/// The strides a generator draws from: none, the sign-magnitude bit, odd,
/// decimal, and a day in milliseconds. Bit-packed storage compares in the
/// packed domain, so bounds that fall between two multiples of the stride
/// must round the way the per-row compare does.
const STEPS: [i64; 5] = [1, 2, 3, 1_000, 86_400_000];

/// A membership set of the requested shape over `n` rows, covering all
/// frame decompositions (full range / sparse rows / dense bitmap / empty).
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

/// The predicate shapes one case exercises: every leaf kind, numeric
/// cross-type equality, NaN corners, text and regex on both dictionary and
/// display-text columns, and nested combinators (including the documented
/// Not-over-missing complement).
fn predicate_set(lo: f64, hi: f64, eq_target: f64, query: &str) -> Vec<Predicate> {
    vec![
        Predicate::True,
        Predicate::range("I", lo, hi),
        Predicate::range("F", lo, hi),
        Predicate::range("S", lo, hi),
        Predicate::range("I", f64::NAN, hi),
        Predicate::equals("I", eq_target),
        Predicate::equals("I", Value::Int(eq_target as i64)),
        Predicate::equals("F", eq_target),
        Predicate::Equals {
            column: Arc::from("I"),
            value: Value::Double(f64::NAN),
        },
        Predicate::equals("I", Value::Missing),
        Predicate::equals("S", "Beta"),
        Predicate::equals("S", "not-in-dictionary"),
        Predicate::str_match("S", query, StrMatchKind::Substring, false),
        Predicate::str_match("S", query, StrMatchKind::Substring, true),
        Predicate::str_match("S", query, StrMatchKind::Exact, true),
        Predicate::str_match("S", "", StrMatchKind::Substring, false),
        Predicate::str_match("I", "1", StrMatchKind::Substring, false),
        Predicate::str_match("F", "5", StrMatchKind::Substring, false),
        Predicate::str_match("S", "^[gG]amma", StrMatchKind::Regex, false),
        Predicate::str_match("I", "^-", StrMatchKind::Regex, false),
        Predicate::IsMissing {
            column: Arc::from("F"),
        },
        Predicate::range("I", lo, hi).not(),
        Predicate::range("F", lo, hi)
            .not()
            .and(Predicate::IsMissing {
                column: Arc::from("F"),
            }),
        Predicate::range("I", lo, hi).and(Predicate::str_match(
            "S",
            query,
            StrMatchKind::Substring,
            true,
        )),
        Predicate::equals("S", "alpha").or(Predicate::range("F", lo, hi)),
        Predicate::range("I", lo, hi)
            .or(Predicate::equals("I", eq_target))
            .not(),
    ]
}

/// Block and rowwise filtering must select the identical row set for every
/// predicate, under both codegens.
fn assert_equivalent(t: &Table, preds: &[Predicate], members: &MembershipSet, ctx: &str) {
    for p in preds {
        let want: Vec<usize> = filter_members_rowwise(t, p, members)
            .unwrap()
            .iter()
            .collect();
        for force in [false, true] {
            simd::set_force_scalar(force);
            let got: Vec<usize> = filter_members(t, p, members).unwrap().iter().collect();
            simd::set_force_scalar(false);
            assert_eq!(got, want, "{ctx} scalar={force} predicate {p:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random data over every representable encoding × membership shape.
    #[test]
    fn block_filter_bit_identical_to_rowwise(
        rows in proptest::collection::vec(
            (-500i64..500, -50.0f64..50.0, 0usize..5, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            1..260,
        ),
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..130),
        null_p in 0.0f64..0.4,
        lo in -60.0f64..60.0,
        span in 0.0f64..80.0,
        probe in any::<u64>(),
        query_pick in 0usize..4,
        step in 0usize..5,
        sparse in any::<bool>(),
    ) {
        let n = rows.len();
        let step = STEPS[step];
        // Or mostly zero, four rows in five: the shape exceptions store.
        let ints: Vec<i64> = rows
            .iter()
            .map(|r| if sparse && r.0 % 5 != 0 { 0 } else { r.0 * step })
            .collect();
        let int_nulls = NullMask::from_flags(rows.iter().map(|r| r.3 < null_p), n);
        let f_opts: Vec<Option<f64>> =
            rows.iter().map(|r| (r.4 >= null_p).then_some(r.1)).collect();
        let strs: Vec<Option<&str>> = rows
            .iter()
            .map(|r| (r.5 >= null_p).then(|| ALPHABET[r.2]))
            .collect();
        let members = membership(kind, &raw, n);
        let eq_target = ints[(probe % n as u64) as usize] as f64;
        let query = ["a", "AMM", "eta", "15"][query_pick];
        // Scaled with the data, the drawn bounds fall off the grid.
        let (lo, span) = (lo * step as f64, span * step as f64);
        let preds = predicate_set(lo, lo + span, eq_target, query);
        for storage in all_storages(&ints) {
            let enc = storage.kind();
            let t = Table::builder()
                .column(
                    "I",
                    ColumnKind::Int,
                    Column::Int(I64Column::with_storage(storage, int_nulls.clone())),
                )
                .column(
                    "F",
                    ColumnKind::Double,
                    Column::Double(F64Column::from_options(f_opts.iter().copied())),
                )
                .column(
                    "S",
                    ColumnKind::String,
                    Column::Str(DictColumn::from_strings(strs.iter().copied())),
                )
                .build()
                .unwrap();
            assert_equivalent(&t, &preds, &members, &format!("{enc:?} membership {kind}"));
        }
    }

    /// Ascending data pins the delta encoding (and dense zone-map skipping)
    /// under selective, unselective, empty, and boundary-crossing ranges.
    #[test]
    fn block_filter_on_sorted_columns(
        deltas in proptest::collection::vec(0i64..5, 65..400),
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..130),
        null_p in 0.0f64..0.25,
        nulls_seed in proptest::collection::vec(0.0f64..1.0, 400),
        lo_frac in 0.0f64..1.2,
        span_frac in 0.0f64..0.6,
        probe in any::<u64>(),
        step in 0usize..5,
    ) {
        let n = deltas.len();
        let step = STEPS[step];
        let mut v = -37 * step;
        let ints: Vec<i64> = deltas.iter().map(|d| { v += d * step; v }).collect();
        let int_nulls = NullMask::from_flags((0..n).map(|i| nulls_seed[i] < null_p), n);
        let members = membership(kind, &raw, n);
        let top = *ints.last().unwrap() as f64;
        let lo = ints[0] as f64 - 3.0 + lo_frac * (top - ints[0] as f64);
        let hi = lo + span_frac * (top - ints[0] as f64 + 6.0);
        let eq_target = ints[(probe % n as u64) as usize] as f64;
        let preds = vec![
            Predicate::range("I", lo, hi),
            Predicate::range("I", lo, lo),
            Predicate::range("I", top + 1.0, top + 50.0),
            Predicate::equals("I", eq_target),
            Predicate::range("I", lo, hi).not(),
        ];
        for storage in all_storages(&ints) {
            let enc = storage.kind();
            let t = Table::builder()
                .column(
                    "I",
                    ColumnKind::Int,
                    Column::Int(I64Column::with_storage(storage, int_nulls.clone())),
                )
                .build()
                .unwrap();
            assert_equivalent(&t, &preds, &members, &format!("sorted {enc:?} membership {kind}"));
        }
    }

    /// Integral double columns — random or ascending (so zone maps decide
    /// whole blocks, all-pass and all-fail), with nulls and negative zeros
    /// — select the same rows raw and under every code encoding, and
    /// `Equals(0.0)` matches both zeros.
    #[test]
    fn block_filter_on_integral_double_columns(
        steps in proptest::collection::vec((0i32..40, 0.0f64..1.0), 1..400),
        sorted in any::<bool>(),
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..130),
        null_p in 0.0f64..0.3,
        lo_frac in -0.1f64..1.1,
        span_frac in 0.0f64..0.7,
        probe in any::<u64>(),
        stride in 0usize..5,
    ) {
        let n = steps.len();
        let stride = STEPS[stride] as f64;
        let mut acc = -25i32;
        let values: Vec<f64> = steps
            .iter()
            .map(|&(d, _)| {
                acc = if sorted { acc + d } else { d - 20 };
                // Small negatives round to the negative zero real data holds.
                if acc == -1 { -0.0 } else { f64::from(acc) * stride }
            })
            .collect();
        let nulls = NullMask::from_flags(steps.iter().map(|s| s.1 < null_p), n);
        let members = membership(kind, &raw, n);
        let (first, last) = (values[0], values[n - 1].max(values[0] + 1.0));
        let lo = first + lo_frac * (last - first);
        let hi = lo + span_frac * (last - first);
        let preds = vec![
            Predicate::range("F", lo, hi),
            Predicate::range("F", lo, lo),
            Predicate::range("F", -1e9, 1e9),
            Predicate::range("F", last + 1.0, last + 50.0),
            Predicate::equals("F", values[(probe % n as u64) as usize]),
            Predicate::equals("F", 0.0),
            Predicate::equals("F", -0.0),
            Predicate::equals("F", Value::Int(3)),
            Predicate::range("F", lo, hi).not(),
        ];
        let codes = F64Storage::codes_of(&values).expect("integral by construction");
        let mut storages = vec![
            F64Storage::encode(values.clone()),
            F64Storage::Plain(values.clone().into()),
        ];
        storages.extend(all_storages(&codes).into_iter().map(F64Storage::Integral));
        let mut reference: Option<Vec<Vec<usize>>> = None;
        for storage in storages {
            let enc = storage.kind();
            let col = F64Column::from_parts(storage, nulls.clone(), ZoneMap::from_f64(&values));
            let t = Table::builder()
                .column("F", ColumnKind::Double, Column::Double(col))
                .build()
                .unwrap();
            assert_equivalent(&t, &preds, &members, &format!("double {enc:?} membership {kind}"));
            let selected: Vec<Vec<usize>> = preds
                .iter()
                .map(|p| filter_members(&t, p, &members).unwrap().iter().collect())
                .collect();
            prop_assert_eq!(&selected[5], &selected[6], "{:?}: 0.0 and -0.0 select alike", enc);
            match &reference {
                None => reference = Some(selected),
                Some(r) => prop_assert_eq!(&selected, r, "{:?} against the automatic choice", enc),
            }
        }
    }

    /// Extreme i64 magnitudes: the integer-domain bound translation must
    /// agree with the per-row `as f64` comparison even where the
    /// conversion rounds (|v| > 2^53).
    #[test]
    fn block_filter_at_extreme_magnitudes(
        base in any::<i64>(),
        offsets in proptest::collection::vec(any::<i64>(), 1..120),
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 0..60),
        lo in any::<f64>(),
        span in 0.0f64..1e19,
    ) {
        let ints: Vec<i64> = offsets.iter().map(|o| base.wrapping_add(o >> 16)).collect();
        let n = ints.len();
        let members = membership(kind, &raw, n);
        let lo = if lo.is_nan() { 0.0 } else { lo };
        let preds = vec![
            Predicate::range("I", lo, lo + span),
            Predicate::equals("I", ints[0] as f64),
            Predicate::equals("I", Value::Int(ints[0])),
            Predicate::equals("I", 9.223372036854776e18),
            Predicate::range("I", -9.3e18, 9.3e18),
        ];
        for storage in all_storages(&ints) {
            let enc = storage.kind();
            let t = Table::builder()
                .column(
                    "I",
                    ColumnKind::Int,
                    Column::Int(I64Column::with_storage(storage, NullMask::none())),
                )
                .build()
                .unwrap();
            assert_equivalent(&t, &preds, &members, &format!("extreme {enc:?} membership {kind}"));
        }
    }
}

/// Draw the next structure byte, defaulting to 0 past the end.
fn next_byte(bytes: &[u8], pos: &mut usize) -> u8 {
    let b = bytes.get(*pos).copied().unwrap_or(0);
    *pos += 1;
    b
}

/// A random predicate tree over columns `I` and `F`, shaped by a byte
/// stream: small depths, every leaf kind the canonicalizer normalizes.
fn build_tree(bytes: &[u8], pos: &mut usize, depth: usize, lo: f64, hi: f64, eq: f64) -> Predicate {
    let b = next_byte(bytes, pos);
    if depth == 0 || b % 8 < 4 {
        match b % 4 {
            0 => Predicate::range("I", lo, hi),
            1 => Predicate::range("F", lo, hi),
            2 => Predicate::equals("I", eq),
            _ => Predicate::IsMissing {
                column: Arc::from("F"),
            },
        }
    } else {
        let d = depth - 1;
        match b % 8 {
            4 => build_tree(bytes, pos, d, lo, hi, eq).and(build_tree(bytes, pos, d, lo, hi, eq)),
            5 => build_tree(bytes, pos, d, lo, hi, eq).or(build_tree(bytes, pos, d, lo, hi, eq)),
            6 => build_tree(bytes, pos, d, lo, hi, eq).not(),
            _ => Predicate::True.and(build_tree(bytes, pos, d, lo, hi, eq)),
        }
    }
}

/// A semantics-preserving respelling of `p`, shaped by its own byte
/// stream: operand swaps, De Morgan rewrites, double negation, neutral
/// (`AND true` / `OR false`) and idempotent (`p OP p`) padding — exactly
/// the equivalences [`Predicate::canonical_bytes`] claims to normalize.
fn respell(p: &Predicate, bytes: &[u8], pos: &mut usize) -> Predicate {
    let b = next_byte(bytes, pos);
    let core = match p {
        Predicate::And(x, y) => {
            let (rx, ry) = (respell(x, bytes, pos), respell(y, bytes, pos));
            match b % 3 {
                0 => rx.and(ry),
                1 => ry.and(rx),
                _ => rx.not().or(ry.not()).not(), // De Morgan
            }
        }
        Predicate::Or(x, y) => {
            let (rx, ry) = (respell(x, bytes, pos), respell(y, bytes, pos));
            match b % 3 {
                0 => rx.or(ry),
                1 => ry.or(rx),
                _ => rx.not().and(ry.not()).not(), // De Morgan
            }
        }
        Predicate::Not(x) => respell(x, bytes, pos).not(),
        leaf => leaf.clone(),
    };
    match (b >> 2) % 5 {
        0 => core.not().not(),
        1 => core.and(Predicate::True),
        2 => core.clone().and(core),
        3 => core.clone().or(core),
        _ => core,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization soundness: a random semantics-preserving
    /// respelling of a random predicate tree has byte-identical canonical
    /// form (so the predicate-identity cache treats them as one query),
    /// and — the soundness half — the two spellings select the identical
    /// row set on a real table.
    #[test]
    fn canonical_form_is_respelling_invariant_and_sound(
        rows in proptest::collection::vec((-80i64..80, -40.0f64..40.0, 0.0f64..1.0), 1..200),
        structure in proptest::collection::vec(any::<u8>(), 32),
        rewrites in proptest::collection::vec(any::<u8>(), 64),
        null_p in 0.0f64..0.4,
        lo in -50.0f64..50.0,
        span in 0.0f64..60.0,
        probe in any::<u64>(),
    ) {
        let n = rows.len();
        let ints: Vec<Option<i64>> =
            rows.iter().map(|r| (r.2 >= null_p).then_some(r.0)).collect();
        let floats: Vec<Option<f64>> =
            rows.iter().map(|r| (r.2 >= null_p / 2.0).then_some(r.1)).collect();
        let t = Table::builder()
            .column(
                "I",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(ints.iter().copied())),
            )
            .column(
                "F",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(floats.iter().copied())),
            )
            .build()
            .unwrap();
        let eq = rows[(probe % n as u64) as usize].0 as f64;
        let p = build_tree(&structure, &mut 0, 3, lo, lo + span, eq);
        let r = respell(&p, &rewrites, &mut 0);

        // Identity: both spellings collapse to one canonical encoding,
        // schema-aware and schema-less alike.
        prop_assert_eq!(
            p.canonical_bytes(Some(&t)),
            r.canonical_bytes(Some(&t)),
            "respelling changed the schema-aware canonical form of {:?}",
            p
        );
        prop_assert_eq!(
            p.canonical_bytes(None),
            r.canonical_bytes(None),
            "respelling changed the schema-less canonical form of {:?}",
            p
        );

        // Soundness: canonical equality must imply identical selection.
        let members = MembershipSet::full(n);
        let want: Vec<usize> = filter_members(&t, &p, &members).unwrap().iter().collect();
        let got: Vec<usize> = filter_members(&t, &r, &members).unwrap().iter().collect();
        prop_assert_eq!(want, got, "canonically-equal spellings selected different rows: {:?}", p);
    }
}
