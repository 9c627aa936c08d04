//! Membership sets: which rows of a partition belong to a derived table.
//!
//! Paper §5.6: *"tables share common data and store a 'membership set' data
//! structure that identifies which rows are contained in the table. ... Dense
//! tables that contain most rows store a bitmap, while sparse tables store a
//! hashset of the row indexes."* Sampling must be efficient and uniform; the
//! paper takes a sparse table's sample *"in sorted order of their hash
//! values"*. Here that hash rule, [`row_sampled`], is the only one: it
//! decides every row of every representation, so which rows a sample holds
//! never depends on how the membership is stored.

use crate::bitmap::Bitmap;

/// Fraction of rows below which a filtered set switches to the sparse
/// representation.
const SPARSE_THRESHOLD: f64 = 0.25;

/// The set of rows (by index within one partition) present in a table view.
#[derive(Debug, Clone)]
pub enum MembershipSet {
    /// All rows `0..n` are present.
    Full(usize),
    /// A dense subset stored as a bitmap over `0..n`.
    Dense(Bitmap),
    /// A sparse subset stored as sorted row indexes.
    Sparse {
        /// Sorted, deduplicated row indexes.
        rows: Vec<u32>,
        /// Size of the underlying partition (`0..universe`).
        universe: usize,
    },
}

impl MembershipSet {
    /// Membership covering every row of a partition with `n` rows.
    pub fn full(n: usize) -> Self {
        MembershipSet::Full(n)
    }

    /// Build from a per-row boolean mask, choosing dense or sparse
    /// representation by selectivity (paper §5.6).
    pub fn from_mask(mask: &Bitmap) -> Self {
        let n = mask.len();
        let count = mask.count_ones();
        if count == n {
            return MembershipSet::Full(n);
        }
        if (count as f64) < (n as f64) * SPARSE_THRESHOLD {
            MembershipSet::Sparse {
                rows: mask.iter_ones().map(|i| i as u32).collect(),
                universe: n,
            }
        } else {
            MembershipSet::Dense(mask.clone())
        }
    }

    /// Build from row indexes (need not be sorted; duplicates removed).
    pub fn from_rows(mut rows: Vec<u32>, universe: usize) -> Self {
        rows.sort_unstable();
        rows.dedup();
        debug_assert!(rows.last().is_none_or(|&r| (r as usize) < universe));
        if rows.len() == universe {
            return MembershipSet::Full(universe);
        }
        if (rows.len() as f64) >= (universe as f64) * SPARSE_THRESHOLD {
            let mut bm = Bitmap::new(universe);
            for &r in &rows {
                bm.set(r as usize);
            }
            MembershipSet::Dense(bm)
        } else {
            MembershipSet::Sparse { rows, universe }
        }
    }

    /// Number of rows present.
    pub fn len(&self) -> usize {
        match self {
            MembershipSet::Full(n) => *n,
            MembershipSet::Dense(b) => b.count_ones(),
            MembershipSet::Sparse { rows, .. } => rows.len(),
        }
    }

    /// True if no rows are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the underlying partition.
    pub fn universe(&self) -> usize {
        match self {
            MembershipSet::Full(n) => *n,
            MembershipSet::Dense(b) => b.len(),
            MembershipSet::Sparse { universe, .. } => *universe,
        }
    }

    /// True if row `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        match self {
            MembershipSet::Full(n) => i < *n,
            MembershipSet::Dense(b) => i < b.len() && b.get(i),
            MembershipSet::Sparse { rows, .. } => rows.binary_search(&(i as u32)).is_ok(),
        }
    }

    /// Iterate present row indexes in ascending order.
    pub fn iter(&self) -> MembershipIter<'_> {
        match self {
            MembershipSet::Full(n) => MembershipIter::Range(0..*n),
            MembershipSet::Dense(b) => MembershipIter::Bits(Box::new(b.iter_ones())),
            MembershipSet::Sparse { rows, .. } => MembershipIter::Rows(rows.iter()),
        }
    }

    /// Intersect with another membership set over the same universe.
    pub fn intersect(&self, other: &MembershipSet) -> MembershipSet {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        match (self, other) {
            (MembershipSet::Full(_), _) => other.clone(),
            (_, MembershipSet::Full(_)) => self.clone(),
            _ => {
                // General path: iterate the smaller side, probe the other.
                let (small, big) = if self.len() <= other.len() {
                    (self, other)
                } else {
                    (other, self)
                };
                let rows: Vec<u32> = small
                    .iter()
                    .filter(|&r| big.contains(r))
                    .map(|r| r as u32)
                    .collect();
                MembershipSet::from_rows(rows, self.universe())
            }
        }
    }
}

/// The one sampling rule (§5.6): row `row` of a partition is in the
/// sample at `rate` under `seed` iff its seeded hash falls at or below the
/// rate's threshold — the paper's "sorted order of their hash values",
/// applied whatever holds the row. The decision is a pure function of
/// `(row, rate, seed)`, so no sample is ever drawn or stored: the selection
/// walk ([`crate::block::scan_frames`]) thins each 64-row word by
/// its sample word, and every tiling of the row space, every membership
/// representation and every filter plan select the same rows. A `rate >=
/// 1.0` samples every row (sampling never upsamples), `rate <= 0.0` none.
pub fn row_sampled(row: u64, rate: f64, seed: u64) -> bool {
    threshold(rate).is_some_and(|t| splitmix64(row ^ seed) <= t)
}

/// The sample word of the 64-row frame at `base`: the bits of `word` whose
/// rows [`row_sampled`] admits at `rate` under `seed` — one hash per
/// selected row.
pub(crate) fn sample_word(base: usize, word: u64, rate: f64, seed: u64) -> u64 {
    match threshold(rate) {
        None => 0,
        Some(u64::MAX) => word,
        Some(t) => {
            let (mut m, mut out) = (word, 0);
            while m != 0 {
                let k = m.trailing_zeros();
                m &= m - 1;
                out |= u64::from(splitmix64((base as u64 + u64::from(k)) ^ seed) <= t) << k;
            }
            out
        }
    }
}

/// The hash threshold of `rate`; `None` samples nothing.
fn threshold(rate: f64) -> Option<u64> {
    if rate >= 1.0 {
        Some(u64::MAX)
    } else {
        (rate > 0.0).then_some((rate * u64::MAX as f64) as u64)
    }
}

/// A fast 64-bit mix: the row hash of [`row_sampled`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Iterator over present rows of a [`MembershipSet`].
pub enum MembershipIter<'a> {
    /// Full sets iterate a range.
    Range(std::ops::Range<usize>),
    /// Dense sets iterate bitmap ones.
    Bits(Box<crate::bitmap::OnesIter<'a>>),
    /// Sparse sets iterate stored rows.
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for MembershipIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            MembershipIter::Range(r) => r.next(),
            MembershipIter::Bits(it) => it.next(),
            MembershipIter::Rows(it) => it.next().map(|&r| r as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_semantics() {
        let m = MembershipSet::full(5);
        assert_eq!(m.len(), 5);
        assert_eq!(m.universe(), 5);
        assert!(m.contains(4));
        assert!(!m.contains(5));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_mask_chooses_representation() {
        // Dense: half the rows set.
        let mut mask = Bitmap::new(100);
        for i in (0..100).step_by(2) {
            mask.set(i);
        }
        assert!(matches!(
            MembershipSet::from_mask(&mask),
            MembershipSet::Dense(_)
        ));
        // Sparse: 5% of rows set.
        let mut mask = Bitmap::new(100);
        for i in (0..100).step_by(20) {
            mask.set(i);
        }
        assert!(matches!(
            MembershipSet::from_mask(&mask),
            MembershipSet::Sparse { .. }
        ));
        // Full: everything set.
        let mask = Bitmap::all_set(64);
        assert!(matches!(
            MembershipSet::from_mask(&mask),
            MembershipSet::Full(64)
        ));
    }

    #[test]
    fn from_rows_dedups_and_sorts() {
        let m = MembershipSet::from_rows(vec![5, 1, 5, 3], 100);
        assert_eq!(m.len(), 3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(m.contains(3));
        assert!(!m.contains(2));
    }

    #[test]
    fn intersect_matches_naive() {
        let a = MembershipSet::from_rows((0..50).collect(), 100);
        let b = MembershipSet::from_rows((25..75).collect(), 100);
        let i = a.intersect(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), (25..50).collect::<Vec<_>>());
        // Intersect with Full is identity.
        let f = MembershipSet::full(100);
        assert_eq!(f.intersect(&a).len(), a.len());
        assert_eq!(a.intersect(&f).len(), a.len());
    }

    /// The rows of `0..n` [`row_sampled`] admits.
    fn sampled(n: usize, rate: f64, seed: u64) -> Vec<usize> {
        (0..n)
            .filter(|&r| row_sampled(r as u64, rate, seed))
            .collect()
    }

    #[test]
    fn sample_rate_one_returns_all() {
        assert_eq!(sampled(10, 1.0, 7), (0..10).collect::<Vec<_>>());
        assert_eq!(sampled(10, 1.5, 7), (0..10).collect::<Vec<_>>());
        assert_eq!(sample_word(64, 0b1011, 1.0, 7), 0b1011);
    }

    #[test]
    fn sample_rate_zero_returns_none() {
        assert!(sampled(1000, 0.0, 7).is_empty());
        assert!(sampled(1000, -1.0, 7).is_empty());
        assert_eq!(sample_word(0, u64::MAX, 0.0, 7), 0);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        assert_eq!(sampled(10_000, 0.1, 42), sampled(10_000, 0.1, 42));
        assert_ne!(sampled(10_000, 0.1, 42), sampled(10_000, 0.1, 43));
    }

    #[test]
    fn sample_size_close_to_expected_full() {
        let got = sampled(100_000, 0.1, 1).len() as f64;
        assert!((8_000.0..12_000.0).contains(&got), "got {got}");
        // The frame word samples exactly the rows the per-row rule does.
        for w in 0..100_000 / 64 {
            let word = sample_word(w * 64, u64::MAX, 0.1, 1);
            for k in 0..64 {
                let r = (w * 64 + k) as u64;
                assert_eq!(word >> k & 1 == 1, row_sampled(r, 0.1, 1), "row {r}");
            }
        }
    }

    #[test]
    fn sample_size_close_to_expected_dense_and_sparse() {
        let mut mask = Bitmap::new(100_000);
        for i in (0..100_000).step_by(2) {
            mask.set(i);
        }
        let MembershipSet::Dense(bits) = MembershipSet::from_mask(&mask) else {
            panic!("half the rows are dense");
        };
        let words: Vec<u64> = (0..bits.words().len())
            .map(|w| sample_word(w * 64, bits.word(w), 0.2, 3))
            .collect();
        let got: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        let expect = 0.2 * 50_000.0;
        assert!((got as f64 - expect).abs() < expect * 0.2, "{got}");
        assert!(
            words.iter().zip(bits.words()).all(|(s, w)| s & !w == 0),
            "samples only present rows"
        );

        let sparse = MembershipSet::from_rows((0..100_000).step_by(17).collect(), 100_000);
        let n = sparse.len() as f64;
        let got = sparse
            .iter()
            .filter(|&r| row_sampled(r as u64, 0.3, 9))
            .count() as f64;
        assert!((got - 0.3 * n).abs() < 0.3 * n * 0.25, "{got}");
    }

    #[test]
    fn sample_uniformity_rough_chi_square() {
        // Bucket 100k full-universe samples into 10 deciles; each decile
        // should receive roughly 10% of the samples.
        let s = sampled(100_000, 0.5, 11);
        let mut buckets = [0usize; 10];
        for r in &s {
            buckets[r / 10_000] += 1;
        }
        let expect = s.len() as f64 / 10.0;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (b as f64 - expect).abs() < expect * 0.15,
                "bucket {i}: {b} vs {expect}"
            );
        }
    }

    #[test]
    fn empty_set_behaviour() {
        let m = MembershipSet::from_rows(vec![], 10);
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        assert_eq!(sample_word(0, 0, 0.5, 1), 0);
    }
}
