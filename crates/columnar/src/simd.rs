//! Portable vector fast paths over the decoded-block ABI.
//!
//! The block scan pipeline hands kernels 64-row [`Block`](crate::block::Block)
//! frames: decoded value lanes plus selection/validity words. This module
//! provides the lane-parallel primitives the hot kernels run over those
//! frames:
//!
//! * [`bucket_indexes`] — histogram bucket index as multiply-by-scale
//!   lanes, with selection/validity masking folded in branch-free.
//! * [`expand_word`] — null/selection word expansion to per-lane `u32`
//!   masks, for kernels that mask lanes explicitly instead of folding the
//!   word in arithmetically the way [`bucket_indexes`] does.
//! * [`moments_frame`] / [`moments_one`] — 8-lane sum / sum-of-squares /
//!   higher-power accumulation (lane of a row = `row % 8`, one 512-bit
//!   vector of `f64`).
//! * [`integral_lanes`] — the 64-lane code → `f64` convert behind encoded
//!   double columns ([`crate::encoding::F64Storage`]).
//! * the width-`w` whole-block bit-unpack lives with the storage types in
//!   [`crate::encoding`], dispatched through [`active`] the same way.
//!
//! ## Dispatch and bit-identity
//!
//! Every primitive has exactly one arithmetic definition — an
//! `#[inline(always)]` body — compiled once at the baseline target (the
//! **mandatory scalar fallback**) and once per vector tier
//! (`#[target_feature]` AVX2 and AVX-512 wrappers) on x86-64; the runtime
//! dispatcher picks the best tier the CPU supports. Every codegen executes
//! the identical IEEE-754/integer operation sequence, so summaries are
//! **byte-identical** whichever tier runs, whatever the CPU — the property
//! the `simd`-equivalence proptests pin.
//!
//! Floating-point accumulation is made lane-safe by *defining* kernel
//! semantics over fixed lanes: a value at row `r` accumulates into lane
//! `r % 8` ([`MOMENT_LANES`]), and lanes combine in a fixed binary tree
//! `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` at the end of the scan. Row → lane assignment is a pure function of the
//! data (not of traversal or batching), so per-row reference
//! implementations, block kernels, and every encoding agree bitwise.
//!
//! [`set_force_scalar`] lets benchmarks and tests pin the scalar fallback
//! at runtime, which is how the simd-on/off bench pairs and equivalence
//! proptests run inside one process.

use std::sync::atomic::{AtomicBool, Ordering};

/// Number of independent floating-point accumulator lanes; the lane of a
/// row is `row % MOMENT_LANES`. Eight lanes fill one 512-bit vector of
/// `f64`.
pub const MOMENT_LANES: usize = 8;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force the scalar fallbacks even when CPU support for a vector tier is
/// present (benchmark pairs, equivalence tests). Results are
/// bit-identical either way; this only selects the codegen.
pub fn set_force_scalar(v: bool) {
    // lint: allow(relaxed, standalone codegen-selection flag; both codegens produce identical bytes, so staleness only affects which one runs)
    FORCE_SCALAR.store(v, Ordering::Relaxed);
}

/// True when [`set_force_scalar`] pinned the scalar fallbacks.
pub fn force_scalar() -> bool {
    // lint: allow(relaxed, standalone codegen-selection flag; both codegens produce identical bytes, so staleness only affects which one runs)
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Vector ISA tier selected at runtime. AVX-512 (with DQ/VL/BW) matters
/// beyond width: it has native 8-lane `i64 → f64` conversion
/// (`vcvtqq2pd`), which AVX2 must scalarize — and integer column lanes
/// are the common case here.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    Scalar,
    Avx2,
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn detected_tier() -> Tier {
    use std::sync::OnceLock;
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        // Miri interprets only some of the vector intrinsics: keep its lane
        // on the scalar bodies whatever detection reports there.
        if cfg!(miri) {
            Tier::Scalar
        } else if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            Tier::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Tier::Avx2
        } else {
            Tier::Scalar
        }
    })
}

#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn current_tier() -> Tier {
    if force_scalar() {
        Tier::Scalar
    } else {
        detected_tier()
    }
}

/// AVX512-VBMI (`vpermb`) on top of the AVX-512 tier: the byte-gather
/// bit-unpack in [`crate::encoding`] needs it.
#[cfg(target_arch = "x86_64")]
pub(crate) fn vbmi_available() -> bool {
    use std::sync::OnceLock;
    static VBMI: OnceLock<bool> = OnceLock::new();
    *VBMI.get_or_init(|| std::arch::is_x86_feature_detected!("avx512vbmi"))
}

/// True when the vector codegen paths will be used: x86-64 with AVX2 or
/// better detected, and not pinned scalar by [`set_force_scalar`].
#[inline]
pub fn active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        current_tier() != Tier::Scalar
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The two vector codegens of one `#[inline(always)]` body plus the
/// tier-dispatched entry: same source, same operation order, different
/// ISA — bit-identical results by construction.
macro_rules! tier_dispatch {
    ($body:ident => $avx2:ident, $avx512:ident;
     $(#[$meta:meta])* fn $entry:ident $(<$($g:ident : $b:path),*>)? ($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2 $(<$($g: $b),*>)? ($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
        fn $avx512 $(<$($g: $b),*>)? ($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$meta])*
        #[inline]
        pub fn $entry $(<$($g: $b),*>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            match current_tier() {
                // SAFETY: `Tier::Avx512` is only reported after
                // `is_x86_feature_detected!` confirmed avx512f/dq/vl/bw at
                // runtime — exactly the features the wrapper enables.
                Tier::Avx512 => return unsafe { $avx512($($arg),*) },
                // SAFETY: `Tier::Avx2` is only reported after runtime
                // detection confirmed avx2, the one feature the wrapper
                // enables.
                Tier::Avx2 => return unsafe { $avx2($($arg),*) },
                Tier::Scalar => {}
            }
            $body($($arg),*)
        }
    };
}

/// A value type whose lanes the vector kernels can process: anything with
/// an exact, per-lane conversion to `f64`.
pub trait LaneValue: Copy {
    /// The value as an `f64` — the same conversion the per-row reference
    /// paths apply (`v as f64` for integers, identity for floats).
    fn lane_f64(self) -> f64;
}

impl LaneValue for f64 {
    #[inline(always)]
    fn lane_f64(self) -> f64 {
        self
    }
}

impl LaneValue for i64 {
    #[inline(always)]
    fn lane_f64(self) -> f64 {
        self as f64
    }
}

// ---------------------------------------------------------------------------
// Word expansion
// ---------------------------------------------------------------------------

#[inline(always)]
fn expand_word_body(word: u64, out: &mut [u32; 64]) {
    for (k, o) in out.iter_mut().enumerate() {
        *o = 0u32.wrapping_sub(((word >> k) & 1) as u32);
    }
}

tier_dispatch! {
    expand_word_body => expand_word_avx2, expand_word_avx512;
    /// Expand a selection/null word to per-lane masks: `out[k]` is all-ones
    /// when bit `k` of `word` is set, zero otherwise.
    fn expand_word(word: u64, out: &mut [u32; 64])
}

// ---------------------------------------------------------------------------
// Integral-double codes
// ---------------------------------------------------------------------------

/// The double a sign-magnitude code stands for (see
/// [`crate::encoding`]'s "Integral doubles"): magnitude in bits 1.., sign
/// in bit 0. Total — any `i64` yields some non-NaN double.
#[inline(always)]
pub(crate) fn integral_value(code: i64) -> f64 {
    f64::from_bits(((code >> 1) as f64).to_bits() | (code as u64) << 63)
}

#[inline(always)]
fn integral_lanes_body(codes: &[i64], out: &mut [f64]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = integral_value(c);
    }
}

tier_dispatch! {
    integral_lanes_body => integral_lanes_avx2, integral_lanes_avx512;
    /// Decode a frame of integral-double codes: `out[k]` is the double
    /// `codes[k]` stands for, for `k < codes.len().min(out.len())`.
    /// `i64 → f64` is one instruction per eight lanes on the AVX-512 tier
    /// and scalar below it; the conversion is exact either way.
    fn integral_lanes(codes: &[i64], out: &mut [f64])
}

// ---------------------------------------------------------------------------
// Predicate word compares
// ---------------------------------------------------------------------------

/// Lane types the predicate word-compare primitives accept. The compares
/// are plain `PartialOrd` lane ops, so any `NaN` lane compares false —
/// exactly the per-row reference semantics (missing/NaN rows never satisfy
/// a numeric comparison).
pub trait LaneOrd: Copy + PartialOrd {}

impl LaneOrd for i64 {}
impl LaneOrd for u32 {}
impl LaneOrd for f64 {}

#[inline(always)]
fn range_word_incl_body<T: LaneOrd>(vals: &[T], lo: T, hi: T) -> u64 {
    let mut w = 0u64;
    for (k, &v) in vals.iter().enumerate() {
        w |= (((v >= lo) & (v <= hi)) as u64) << k;
    }
    w
}

tier_dispatch! {
    range_word_incl_body => range_word_incl_avx2, range_word_incl_avx512;
    /// Selection word of an *inclusive* range test: bit `k` set iff
    /// `lo <= vals[k] <= hi`. This is the integer-domain compare the block
    /// predicate leaves run after translating `f64` range bounds into the
    /// column's value (or packed-delta) domain.
    fn range_word_incl<T: LaneOrd>(vals: &[T], lo: T, hi: T) -> u64
}

#[inline(always)]
fn range_word_half_body(vals: &[f64], lo: f64, hi: f64) -> u64 {
    let mut w = 0u64;
    for (k, &v) in vals.iter().enumerate() {
        w |= (((v >= lo) & (v < hi)) as u64) << k;
    }
    w
}

tier_dispatch! {
    range_word_half_body => range_word_half_avx2, range_word_half_avx512;
    /// Selection word of the half-open `lo <= v < hi` test on `f64` lanes —
    /// the exact comparison `Predicate::Range` defines. `NaN` lanes (null
    /// placeholders) compare false.
    fn range_word_half(vals: &[f64], lo: f64, hi: f64) -> u64
}

#[inline(always)]
fn eq_word_body(vals: &[f64], target: f64) -> u64 {
    let mut w = 0u64;
    for (k, &v) in vals.iter().enumerate() {
        w |= ((v == target) as u64) << k;
    }
    w
}

tier_dispatch! {
    eq_word_body => eq_word_avx2, eq_word_avx512;
    /// Selection word of `v == target` on `f64` lanes. A `NaN` target
    /// matches nothing (callers normally fold that case away at compile).
    fn eq_word(vals: &[f64], target: f64) -> u64
}

#[inline(always)]
fn probe_word_body(codes: &[u32], bits: &[u64]) -> u64 {
    let mut w = 0u64;
    for (k, &c) in codes.iter().enumerate() {
        let b = bits
            .get((c >> 6) as usize)
            .map_or(0, |word| (word >> (c & 63)) & 1);
        w |= b << k;
    }
    w
}

tier_dispatch! {
    probe_word_body => probe_word_avx2, probe_word_avx512;
    /// Selection word of a dictionary-code bitmap probe: bit `k` set iff
    /// bit `codes[k]` of `bits` is set. This is the per-row test of a text
    /// or regex predicate once the matcher has been evaluated once per
    /// dictionary entry; out-of-bitmap codes probe as unmatched.
    fn probe_word(codes: &[u32], bits: &[u64]) -> u64
}

// ---------------------------------------------------------------------------
// Histogram bucket indexes
// ---------------------------------------------------------------------------

/// Hoisted bucket arithmetic of `BucketSpec::index_of_f64`: bucket of `v`
/// is `((v - lo) * scale) as usize`, out of range when `v < lo || v >= hi`.
#[derive(Debug, Clone, Copy)]
pub struct BucketParams {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
    /// `cnt / (hi - lo)`, bit-identical to the per-call value the per-row
    /// reference computes.
    pub scale: f64,
    /// Bucket count.
    pub cnt: u32,
}

impl BucketParams {
    /// Bucket of one value: `idx` in range, `cnt` out of range. The single
    /// arithmetic definition every path (lane bodies, scalar per-bit loops,
    /// per-row references) shares. Written as a mask select so the lane
    /// bodies stay branch-free.
    #[inline(always)]
    pub fn cell_of(&self, v: f64) -> u32 {
        let idx = (((v - self.lo) * self.scale) as u32).min(self.cnt - 1);
        let oor = 0u32.wrapping_sub(((v < self.lo) | (v >= self.hi)) as u32);
        (self.cnt & oor) | (idx & !oor)
    }
}

#[inline(always)]
fn bucket_indexes_body<T: LaneValue>(
    vals: &[T],
    live: u64,
    p: &BucketParams,
    dead: u32,
    out: &mut [u32; 64],
) {
    for (k, &raw) in vals.iter().enumerate() {
        let cell = p.cell_of(raw.lane_f64());
        let m = 0u32.wrapping_sub(((live >> k) & 1) as u32);
        out[k] = (cell & m) | (dead & !m);
    }
}

tier_dispatch! {
    bucket_indexes_body => bucket_indexes_avx2, bucket_indexes_avx512;
    /// Compute the bucket cell of every lane of a frame: `out[k]` is the
    /// bucket index of `vals[k]` (or `p.cnt` when out of range) when bit `k`
    /// of `live` is set, `dead` otherwise. Lanes past `vals.len()` are left
    /// untouched — callers consume exactly `vals.len()` lanes.
    ///
    /// Counter increments commute, so scattering these cells (including the
    /// `dead` slot) produces bit-identical counts to a per-live-bit scalar
    /// loop — which is exactly the mandatory fallback kernels run when
    /// [`active`] is false.
    fn bucket_indexes<T: LaneValue>(
        vals: &[T],
        live: u64,
        p: &BucketParams,
        dead: u32,
        out: &mut [u32; 64]
    )
}

// ---------------------------------------------------------------------------
// Moments accumulation
// ---------------------------------------------------------------------------

/// 8-lane accumulator state for min/max and power sums up to order
/// `sums.len()`; `sums[j][l]` is Σ v^(j+1) over the values in lane `l`.
#[derive(Debug, Clone)]
pub struct MomentLanes {
    /// Per-lane power sums: `sums[j][l]` = Σ v^(j+1) of lane `l`.
    pub sums: Vec<[f64; MOMENT_LANES]>,
    /// Per-lane minimum (`+inf` when the lane is empty).
    pub min: [f64; MOMENT_LANES],
    /// Per-lane maximum (`-inf` when the lane is empty).
    pub max: [f64; MOMENT_LANES],
}

impl MomentLanes {
    /// Empty accumulators for moments up to order `k`.
    pub fn new(k: usize) -> Self {
        MomentLanes {
            sums: vec![[0.0; MOMENT_LANES]; k],
            min: [f64::INFINITY; MOMENT_LANES],
            max: [f64::NEG_INFINITY; MOMENT_LANES],
        }
    }

    /// Collapse the lanes in the fixed binary tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`: `(min, max, sums)` of the
    /// whole stream. The caller decides whether any value was seen (empty
    /// lanes contribute the `±inf`/zero identities exactly).
    pub fn collapse(&self) -> (f64, f64, Vec<f64>) {
        fn tree(l: &[f64; MOMENT_LANES], f: impl Fn(f64, f64) -> f64) -> f64 {
            f(
                f(f(l[0], l[1]), f(l[2], l[3])),
                f(f(l[4], l[5]), f(l[6], l[7])),
            )
        }
        let min = tree(&self.min, f64::min);
        let max = tree(&self.max, f64::max);
        let sums = self.sums.iter().map(|s| tree(s, |a, b| a + b)).collect();
        (min, max, sums)
    }
}

/// Accumulate one value into lane `lane`: the per-value definition both
/// the frame body below and the per-row reference paths share.
#[inline(always)]
pub fn moments_one(v: f64, lane: usize, acc: &mut MomentLanes) {
    acc.min[lane] = acc.min[lane].min(v);
    acc.max[lane] = acc.max[lane].max(v);
    let mut p = v;
    for s in acc.sums.iter_mut() {
        s[lane] += p;
        p *= v;
    }
}

/// Highest moment order with a register-resident accumulator loop; higher
/// orders fall back to the in-place loop (still lane-structured).
const MOMENT_LOCAL_MAX: usize = 6;

#[inline(always)]
fn moments_frame_body<T: LaneValue>(vals: &[T], acc: &mut MomentLanes) {
    let k = acc.sums.len();
    let mut chunks = vals.chunks_exact(MOMENT_LANES);
    if k <= MOMENT_LOCAL_MAX {
        // Copy the accumulators to locals so the hot loop keeps them in
        // vector registers instead of round-tripping through the Vec.
        let mut min = acc.min;
        let mut max = acc.max;
        let mut sums = [[0.0f64; MOMENT_LANES]; MOMENT_LOCAL_MAX];
        sums[..k].copy_from_slice(&acc.sums);
        for c in chunks.by_ref() {
            let mut v = [0.0f64; MOMENT_LANES];
            for (l, slot) in v.iter_mut().enumerate() {
                *slot = c[l].lane_f64();
            }
            for (l, &vl) in v.iter().enumerate() {
                min[l] = min[l].min(vl);
                max[l] = max[l].max(vl);
            }
            let mut p = v;
            for s in sums[..k].iter_mut() {
                for l in 0..MOMENT_LANES {
                    s[l] += p[l];
                }
                for l in 0..MOMENT_LANES {
                    p[l] *= v[l];
                }
            }
        }
        acc.min = min;
        acc.max = max;
        acc.sums.copy_from_slice(&sums[..k]);
    } else {
        for c in chunks.by_ref() {
            let mut v = [0.0f64; MOMENT_LANES];
            for (l, slot) in v.iter_mut().enumerate() {
                *slot = c[l].lane_f64();
            }
            for (l, &vl) in v.iter().enumerate() {
                acc.min[l] = acc.min[l].min(vl);
                acc.max[l] = acc.max[l].max(vl);
            }
            let mut p = v;
            for s in acc.sums.iter_mut() {
                for l in 0..MOMENT_LANES {
                    s[l] += p[l];
                }
                for l in 0..MOMENT_LANES {
                    p[l] *= v[l];
                }
            }
        }
    }
    let off = vals.len() - chunks.remainder().len();
    for (j, &raw) in chunks.remainder().iter().enumerate() {
        moments_one(raw.lane_f64(), (off + j) % MOMENT_LANES, acc);
    }
}

tier_dispatch! {
    moments_frame_body => moments_frame_avx2, moments_frame_avx512;
    /// Accumulate a fully-live frame whose first lane sits at a row ≡ 0
    /// (mod 8) — 64-row-aligned frame bases guarantee this — so `vals[k]`
    /// lands in lane `k % 8`. Per-lane operation order is identical to
    /// calling [`moments_one`] per value, hence bit-identical results under
    /// either codegen.
    fn moments_frame<T: LaneValue>(vals: &[T], acc: &mut MomentLanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_word_sets_full_lanes() {
        let mut out = [0u32; 64];
        expand_word(0b1011, &mut out);
        assert_eq!(out[0], u32::MAX);
        assert_eq!(out[1], u32::MAX);
        assert_eq!(out[2], 0);
        assert_eq!(out[3], u32::MAX);
        assert!(out[4..].iter().all(|&m| m == 0));
    }

    #[test]
    fn bucket_cells_match_per_value_reference() {
        let p = BucketParams {
            lo: 0.0,
            hi: 100.0,
            scale: 10.0 / 100.0,
            cnt: 10,
        };
        let vals: Vec<f64> = (0..64).map(|k| k as f64 * 2.5 - 10.0).collect();
        let live = 0xF0F0_F0F0_F0F0_F0F0u64;
        let mut out = [0u32; 64];
        bucket_indexes(&vals, live, &p, 99, &mut out);
        for (k, &cell) in out.iter().enumerate() {
            let expect = if live >> k & 1 == 1 {
                p.cell_of(vals[k])
            } else {
                99
            };
            assert_eq!(cell, expect, "lane {k}");
        }
    }

    #[test]
    fn moments_frame_equals_per_value_lanes() {
        let vals: Vec<f64> = (0..61).map(|k| (k as f64) * 0.37 - 7.0).collect();
        let mut a = MomentLanes::new(3);
        moments_frame(&vals, &mut a);
        let mut b = MomentLanes::new(3);
        for (k, &v) in vals.iter().enumerate() {
            moments_one(v, k % MOMENT_LANES, &mut b);
        }
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        for (x, y) in a.sums.iter().zip(&b.sums) {
            for l in 0..MOMENT_LANES {
                assert_eq!(x[l].to_bits(), y[l].to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn forced_scalar_is_bit_identical() {
        let vals: Vec<f64> = (0..64).map(|k| (k as f64) * 1.13 - 31.0).collect();
        let p = BucketParams {
            lo: -10.0,
            hi: 40.0,
            scale: 17.0 / 50.0,
            cnt: 17,
        };
        let mut fast = [0u32; 64];
        let mut slow = [0u32; 64];
        bucket_indexes(&vals, u64::MAX, &p, 18, &mut fast);
        set_force_scalar(true);
        bucket_indexes(&vals, u64::MAX, &p, 18, &mut slow);
        set_force_scalar(false);
        assert_eq!(fast, slow);
    }
}
