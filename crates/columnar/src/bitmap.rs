//! A packed bitmap over row indexes.
//!
//! Used both as the null mask of a column and as the dense representation of
//! a [`MembershipSet`](crate::membership::MembershipSet) (paper §5.6: "Dense
//! tables that contain most rows store a bitmap").

/// The bits `[lo, hi)` of a 64-bit word, set (`hi <= 64`). Shared with the
/// scan layer's word-granular null and bounds masking.
#[inline]
pub(crate) fn span_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi <= 64);
    if hi - lo == 64 {
        u64::MAX
    } else {
        ((1u64 << (hi - lo)) - 1) << lo
    }
}

/// A fixed-length bitmap backed by 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create a bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Create a bitmap of `len` bits, all set.
    #[cfg(test)]
    pub(crate) fn all_set(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Build a bitmap of `len` bits directly from backing words (bit `i` at
    /// `words[i / 64] >> (i % 64)`), the word-granular surface the block
    /// filter pipeline emits into. `words` is resized to the exact word
    /// count and tail bits beyond `len` are cleared.
    pub(crate) fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut b = Bitmap { words, len };
        b.clear_tail();
        b
    }

    /// Zero any bits beyond `len` in the last word so popcounts stay exact.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits (rows) the bitmap covers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Get bit `i`. Panics if out of range (callers own bounds).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Set bits `lo..hi` to 1, a word at a time: the first and the last
    /// word masked, every word between them filled.
    pub(crate) fn set_range(&mut self, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= self.len, "{lo}..{hi} of {}", self.len);
        if lo == hi {
            return;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        // Bits of the last word the run reaches: 1..=64.
        let upto = (hi - 1) % 64 + 1;
        if first == last {
            self.words[first] |= span_mask(lo % 64, upto);
        } else {
            self.words[first] |= span_mask(lo % 64, 64);
            self.words[first + 1..last].fill(u64::MAX);
            self.words[last] |= span_mask(0, upto);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND with another bitmap of identical length.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise OR with another bitmap of identical length.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise NOT (within `len`).
    pub fn not(&self) -> Bitmap {
        let mut b = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.clear_tail();
        b
    }

    /// Word `i` of the backing storage (bit `j` at `word(j / 64) >> (j %
    /// 64)`; bits at or beyond the length are zero), or 0 if `i` is past the
    /// end — callers processing 64-row blocks need no bounds branch.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Iterate over the indexes of set bits, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set-bit indexes of a [`Bitmap`], ascending.
pub struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

impl FromIterator<usize> for Bitmap {
    /// Build from set-bit indexes; length is `max_index + 1`.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let idx: Vec<usize> = iter.into_iter().collect();
        let len = idx.iter().max().map_or(0, |m| m + 1);
        let mut b = Bitmap::new(len);
        for i in idx {
            b.set(i);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear() {
        let b = Bitmap::new(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(0));
        assert!(!b.get(99));
    }

    #[test]
    fn all_set_has_exact_popcount() {
        for len in [0, 1, 63, 64, 65, 127, 128, 1000] {
            let b = Bitmap::all_set(len);
            assert_eq!(b.count_ones(), len, "len={len}");
        }
    }

    /// Every `(lo % 64, hi % 64)` pair, runs inside one word and across up
    /// to five, over bits already set: the word fill is the bit loop.
    #[test]
    fn set_range_equals_the_bit_loop() {
        const LEN: usize = 5 * 64;
        let mut seeded = Bitmap::new(LEN);
        (0..LEN).step_by(7).for_each(|i| seeded.set(i));
        for lo in 0..128 {
            for hi in lo..=LEN {
                let (mut filled, mut looped) = (seeded.clone(), seeded.clone());
                filled.set_range(lo, hi);
                (lo..hi).for_each(|i| looped.set(i));
                assert_eq!(filled, looped, "{lo}..{hi}");
            }
        }
        let mut tail = Bitmap::new(70);
        tail.set_range(3, 70);
        assert_eq!(tail.count_ones(), 67, "nothing set past the length");
    }

    #[test]
    #[should_panic(expected = "of 70")]
    fn set_range_refuses_a_run_past_the_length() {
        Bitmap::new(70).set_range(60, 71);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = Bitmap::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn iter_ones_matches_set_bits() {
        let mut b = Bitmap::new(200);
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idx {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn iter_ones_empty() {
        let b = Bitmap::new(77);
        assert_eq!(b.iter_ones().count(), 0);
        let b = Bitmap::new(0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn and_or_not() {
        let mut a = Bitmap::new(70);
        let mut b = Bitmap::new(70);
        a.set(1);
        a.set(65);
        b.set(65);
        b.set(2);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![65]);
        assert_eq!(a.or(&b).iter_ones().collect::<Vec<_>>(), vec![1, 2, 65]);
        let n = a.not();
        assert_eq!(n.count_ones(), 68);
        assert!(!n.get(1) && !n.get(65) && n.get(0));
    }

    #[test]
    fn not_respects_tail() {
        let b = Bitmap::new(65);
        let n = b.not();
        assert_eq!(n.count_ones(), 65);
    }

    #[test]
    fn from_iter_builds_minimal_length() {
        let b: Bitmap = [3usize, 10, 7].into_iter().collect();
        assert_eq!(b.len(), 11);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 7, 10]);
    }
}
