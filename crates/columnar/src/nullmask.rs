//! Null (missing value) tracking for columns.
//!
//! Most real columns have no missing values, so the mask is lazily allocated:
//! a column with no nulls costs no extra memory and `is_null` is a single
//! branch on `None`.

use crate::bitmap::Bitmap;

/// Tracks which rows of a column are missing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullMask {
    /// Set bit == value is missing. `None` means "no nulls anywhere".
    mask: Option<Bitmap>,
}

impl NullMask {
    /// A mask with no missing values.
    pub fn none() -> Self {
        NullMask { mask: None }
    }

    /// Build from an iterator of "is null" flags of length `len`.
    pub fn from_flags(flags: impl IntoIterator<Item = bool>, len: usize) -> Self {
        let mut bm: Option<Bitmap> = None;
        for (i, f) in flags.into_iter().enumerate() {
            if f {
                bm.get_or_insert_with(|| Bitmap::new(len)).set(i);
            }
        }
        NullMask { mask: bm }
    }

    /// True if row `i` is missing.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.mask {
            None => false,
            Some(b) => b.get(i),
        }
    }

    /// Mark row `i` (of a column with `len` rows) as missing.
    pub fn set_null(&mut self, i: usize, len: usize) {
        self.mask.get_or_insert_with(|| Bitmap::new(len)).set(i);
    }

    /// Mark rows `lo..hi` (of a column with `len` rows) as missing — one
    /// run of nulls, filled by the word. An empty run allocates nothing.
    pub fn set_null_range(&mut self, lo: usize, hi: usize, len: usize) {
        if lo < hi {
            let mask = self.mask.get_or_insert_with(|| Bitmap::new(len));
            mask.set_range(lo, hi);
        }
    }

    /// Number of missing rows.
    pub fn null_count(&self) -> usize {
        self.mask.as_ref().map_or(0, |b| b.count_ones())
    }

    /// True if the column has no missing values at all.
    pub fn is_empty(&self) -> bool {
        self.null_count() == 0
    }

    /// The underlying bitmap, if any nulls exist.
    pub fn bitmap(&self) -> Option<&Bitmap> {
        self.mask.as_ref()
    }

    /// Null bits of the 64-row block starting at row `64 * i` (bit `b` set
    /// means row `64 * i + b` is missing). Zero when the column has no nulls
    /// at all, so chunked kernels pay one branch-free word fetch per block
    /// instead of a per-row `is_null` probe.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        match &self.mask {
            None => 0,
            Some(b) => b.word(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_no_nulls() {
        let m = NullMask::none();
        assert!(!m.is_null(0));
        assert!(!m.is_null(1_000_000));
        assert_eq!(m.null_count(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn set_null_allocates_lazily() {
        let mut m = NullMask::none();
        assert!(m.bitmap().is_none());
        m.set_null(3, 10);
        assert!(m.bitmap().is_some());
        assert!(m.is_null(3));
        assert!(!m.is_null(2));
        assert_eq!(m.null_count(), 1);
    }

    #[test]
    fn from_flags_counts() {
        let m = NullMask::from_flags([false, true, false, true, true], 5);
        assert_eq!(m.null_count(), 3);
        assert!(m.is_null(1) && m.is_null(3) && m.is_null(4));
        assert!(!m.is_null(0) && !m.is_null(2));
    }

    #[test]
    fn from_flags_all_false_allocates_nothing() {
        let m = NullMask::from_flags([false; 64], 64);
        assert!(m.bitmap().is_none());
    }
}
