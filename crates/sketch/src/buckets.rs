//! Bucket boundary specifications shared by the chart sketches.
//!
//! Numeric columns use equi-sized intervals over `[lo, hi)` (paper §4.3);
//! string columns use equi-width buckets over an alphabetical ordering with
//! explicit boundary strings computed by the bottom-k quantile sketch
//! (App. B.1 "Equi-width buckets for string data").

use crate::traits::{SketchError, SketchResult};
use hillview_net::{
    Error as WireError, Result as WireResult, Wire, WireReader, WireWriter, MAX_COUNTS,
};
use std::sync::Arc;

/// The number of cells in a `dims[0] × dims[1] × …` grid of counts, refused
/// as a configuration error when no frame could carry a summary that large:
/// a decoder expands at most [`MAX_COUNTS`] cells per frame, a bound sized
/// for displays, so such a sketch fails here instead of at the first merge.
pub(crate) fn grid_cells(dims: &[usize]) -> SketchResult<usize> {
    dims.iter()
        .try_fold(1usize, |cells, &d| cells.checked_mul(d))
        .filter(|&cells| cells <= MAX_COUNTS)
        .ok_or_else(|| {
            SketchError::BadConfig(format!(
                "a grid of {dims:?} counts is past the {MAX_COUNTS} cells a summary may hold"
            ))
        })
}

/// The merge of every bucketed summary: adds each of `other`'s count
/// vectors into the matching one of `mine`, cell by cell, in place. A
/// summary with no cells at all is the zero-width identity (`Default`, or a
/// `zero` of width 0) and merges with any shape: when `other` is it nothing
/// is added, and when `mine` is it takes `other`'s vectors and this returns
/// `true`, so the caller adopts `other`'s shape too.
pub(crate) fn add_counts<const N: usize>(mine: [&mut Vec<u64>; N], other: [Vec<u64>; N]) -> bool {
    let adopt = mine.iter().all(|counts| counts.is_empty());
    for (mine, other) in mine.into_iter().zip(other) {
        if adopt {
            *mine = other;
        } else {
            debug_assert!(other.is_empty() || other.len() == mine.len());
            mine.iter_mut().zip(&other).for_each(|(m, o)| *m += o);
        }
    }
    adopt
}

/// How values map to histogram/heatmap buckets.
#[derive(Debug, Clone, PartialEq)]
pub enum BucketSpec {
    /// `count` equal intervals over `[lo, hi)`.
    Numeric {
        /// Inclusive lower edge of the first bucket.
        lo: f64,
        /// Exclusive upper edge of the last bucket.
        hi: f64,
        /// Number of buckets.
        count: usize,
    },
    /// Alphabetical ranges: bucket `i` covers `[boundaries[i],
    /// boundaries[i+1])`, the last bucket is unbounded above. Built from
    /// bottom-k string quantiles.
    Strings {
        /// Ascending bucket lower bounds; `len()` = number of buckets.
        boundaries: Vec<Arc<str>>,
    },
}

impl BucketSpec {
    /// Equi-sized numeric buckets. `hi` must exceed `lo` and `count > 0`.
    pub fn numeric(lo: f64, hi: f64, count: usize) -> Self {
        assert!(count > 0, "bucket count must be positive");
        assert!(hi > lo, "empty bucket range [{lo}, {hi})");
        BucketSpec::Numeric { lo, hi, count }
    }

    /// String buckets from ascending boundary strings.
    pub fn strings(boundaries: Vec<Arc<str>>) -> Self {
        assert!(!boundaries.is_empty(), "need at least one string bucket");
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be ascending"
        );
        BucketSpec::Strings { boundaries }
    }

    /// Number of buckets.
    pub fn count(&self) -> usize {
        match self {
            BucketSpec::Numeric { count, .. } => *count,
            BucketSpec::Strings { boundaries } => boundaries.len(),
        }
    }

    /// Bucket index of a numeric value, or `None` if out of range or the
    /// spec is for strings.
    ///
    /// The index is `(v - lo) * (count / (hi - lo))`, i.e. a multiply by a
    /// precomputable scale rather than a per-value division — the chunked
    /// histogram kernel hoists the scale out of its inner loop and must
    /// produce bit-identical buckets to this function.
    #[inline]
    pub fn index_of_f64(&self, v: f64) -> Option<usize> {
        match self {
            BucketSpec::Numeric { lo, hi, count } => {
                if v < *lo || v >= *hi {
                    return None;
                }
                let scale = *count as f64 / (hi - lo);
                let idx = ((v - lo) * scale) as usize;
                Some(idx.min(count - 1))
            }
            BucketSpec::Strings { .. } => None,
        }
    }

    /// Bucket index of a string value, or `None` if below the first
    /// boundary or the spec is numeric.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    #[inline]
    pub fn index_of_str(&self, s: &str) -> Option<usize> {
        match self {
            BucketSpec::Strings { boundaries } => {
                match boundaries.binary_search_by(|b| b.as_ref().cmp(s)) {
                    Ok(i) => Some(i),
                    Err(0) => None, // below the smallest boundary
                    Err(i) => Some(i - 1),
                }
            }
            BucketSpec::Numeric { .. } => None,
        }
    }

    /// The numeric sub-range covered by bucket `i` (numeric specs only).
    pub(crate) fn numeric_bounds(&self, i: usize) -> Option<(f64, f64)> {
        match self {
            BucketSpec::Numeric { lo, hi, count } => {
                if i >= *count {
                    return None;
                }
                let w = (hi - lo) / *count as f64;
                Some((lo + w * i as f64, lo + w * (i + 1) as f64))
            }
            _ => None,
        }
    }

    /// Label for bucket `i`, for rendering axes.
    pub fn label(&self, i: usize) -> String {
        match self {
            BucketSpec::Numeric { .. } => {
                let (a, b) = self.numeric_bounds(i).expect("index in range");
                format!("[{a:.4}, {b:.4})")
            }
            BucketSpec::Strings { boundaries } => boundaries[i].to_string(),
        }
    }
}

impl Wire for BucketSpec {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            BucketSpec::Numeric { lo, hi, count } => {
                w.put_u8(0);
                w.put_f64(*lo);
                w.put_f64(*hi);
                w.put_varint(*count as u64);
            }
            BucketSpec::Strings { boundaries } => {
                w.put_u8(1);
                w.put_varint(boundaries.len() as u64);
                for b in boundaries {
                    w.put_str(b);
                }
            }
        }
    }

    fn decode(r: &mut WireReader) -> WireResult<Self> {
        match r.get_u8()? {
            0 => {
                let lo = r.get_f64()?;
                let hi = r.get_f64()?;
                let count = r.get_len("bucket count")?;
                Ok(BucketSpec::Numeric { lo, hi, count })
            }
            1 => {
                let n = r.get_len("boundaries")?;
                let mut boundaries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    boundaries.push(Arc::from(r.get_str()?.as_str()));
                }
                Ok(BucketSpec::Strings { boundaries })
            }
            tag => Err(WireError::BadTag {
                context: "BucketSpec",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_bucketing_covers_range() {
        let b = BucketSpec::numeric(0.0, 100.0, 10);
        assert_eq!(b.index_of_f64(0.0), Some(0));
        assert_eq!(b.index_of_f64(9.999), Some(0));
        assert_eq!(b.index_of_f64(10.0), Some(1));
        assert_eq!(b.index_of_f64(99.999), Some(9));
        assert_eq!(b.index_of_f64(100.0), None, "hi is exclusive");
        assert_eq!(b.index_of_f64(-0.001), None);
    }

    #[test]
    fn numeric_rounding_never_overflows_last_bucket() {
        // A value infinitesimally below hi must land in the last bucket even
        // with FP rounding.
        let b = BucketSpec::numeric(0.0, 0.3, 3);
        let v = 0.3 - f64::EPSILON;
        assert_eq!(b.index_of_f64(v), Some(2));
    }

    #[test]
    fn numeric_bounds_partition_the_range() {
        let b = BucketSpec::numeric(-10.0, 10.0, 4);
        let (l0, h0) = b.numeric_bounds(0).unwrap();
        let (l3, h3) = b.numeric_bounds(3).unwrap();
        assert_eq!(l0, -10.0);
        assert_eq!(h0, -5.0);
        assert_eq!(l3, 5.0);
        assert_eq!(h3, 10.0);
        assert!(b.numeric_bounds(4).is_none());
    }

    #[test]
    fn string_bucketing_by_boundaries() {
        let b = BucketSpec::strings(vec!["a".into(), "g".into(), "n".into(), "t".into()]);
        assert_eq!(b.count(), 4);
        assert_eq!(b.index_of_str("a"), Some(0));
        assert_eq!(b.index_of_str("apple"), Some(0));
        assert_eq!(b.index_of_str("golf"), Some(1));
        assert_eq!(b.index_of_str("n"), Some(2));
        assert_eq!(b.index_of_str("zebra"), Some(3), "last bucket open above");
        assert_eq!(b.index_of_str("Z"), None, "below first boundary");
    }

    #[test]
    fn single_value_buckets_for_small_domains() {
        // Fewer than 50 distinct values: one bucket per value (App. B.1).
        let b = BucketSpec::strings(vec!["AA".into(), "DL".into(), "UA".into()]);
        assert_eq!(b.index_of_str("DL"), Some(1));
        assert_eq!(b.index_of_str("DLX"), Some(1), "range semantics");
    }

    #[test]
    fn cross_type_queries_return_none() {
        let n = BucketSpec::numeric(0.0, 1.0, 2);
        assert_eq!(n.index_of_str("x"), None);
        let s = BucketSpec::strings(vec!["a".into()]);
        assert_eq!(s.index_of_f64(0.5), None);
    }

    #[test]
    fn labels() {
        let n = BucketSpec::numeric(0.0, 10.0, 2);
        assert!(n.label(0).starts_with('['));
        let s = BucketSpec::strings(vec!["alpha".into()]);
        assert_eq!(s.label(0), "alpha");
    }

    #[test]
    fn wire_roundtrip() {
        for spec in [
            BucketSpec::numeric(-1.5, 9.25, 40),
            BucketSpec::strings(vec!["a".into(), "m".into()]),
        ] {
            let got = BucketSpec::from_bytes(spec.to_bytes()).unwrap();
            assert_eq!(got, spec);
        }
    }

    #[test]
    #[should_panic(expected = "empty bucket range")]
    fn invalid_numeric_range_panics() {
        let _ = BucketSpec::numeric(1.0, 1.0, 5);
    }
}
