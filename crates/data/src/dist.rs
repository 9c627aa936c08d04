//! Small deterministic distribution samplers.
//!
//! Everything takes an explicit `&mut SmallRng` so dataset generation is
//! reproducible from a seed — which the engine's replay-based fault
//! tolerance also relies on in tests.

use rand::rngs::SmallRng;
use rand::Rng;

/// A Zipf(α) sampler over ranks `0..n` via inverse-CDF table lookup.
///
/// Rank 0 is the most frequent. Used for airports, carriers, and servers —
/// real-world popularity follows a power law.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, ascending to 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `alpha` (> 0).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(alpha > 0.0, "Zipf exponent must be positive");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against FP drift so binary search always lands.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no ranks (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of rank `k`.
    #[cfg(test)]
    pub(crate) fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// A normal distribution truncated to `[lo, hi]`, sampled by Box–Muller with
/// rejection at the bounds (clamping would pile mass at the edges).
#[derive(Debug, Clone, Copy)]
pub struct TruncNormal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl TruncNormal {
    /// Construct; panics if the interval is empty.
    pub fn new(mean: f64, std: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "empty truncation interval");
        TruncNormal { mean, std, lo, hi }
    }

    /// Draw one value.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        for _ in 0..64 {
            let v = self.mean + self.std * standard_normal(rng);
            if v >= self.lo && v <= self.hi {
                return v;
            }
        }
        // Pathological parameters: fall back to the clamped mean.
        self.mean.clamp(self.lo, self.hi)
    }
}

/// A lognormal distribution: `exp(N(mu, sigma))`. Heavy right tail — used
/// for delays and latencies.
#[derive(Debug, Clone, Copy)]
pub struct Lognormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Std of the underlying normal.
    pub sigma: f64,
}

impl Lognormal {
    /// Construct.
    pub fn new(mu: f64, sigma: f64) -> Self {
        Lognormal { mu, sigma }
    }

    /// Draw one value (always positive).
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw via Box–Muller.
pub(crate) fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(50, 1.1);
        let mut r = rng();
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] >= counts[40]);
        // Rank 0 should carry far more than uniform share.
        assert!(counts[0] > 20_000 / 50 * 3, "rank0={}", counts[0]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(20, 0.9);
        let total: f64 = (0..20).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut r = rng();
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let expect = z.pmf(k) * n as f64;
            let got = count as f64;
            assert!(
                (got - expect).abs() < expect * 0.15 + 30.0,
                "rank {k}: got {got} expect {expect}"
            );
        }
    }

    #[test]
    fn trunc_normal_respects_bounds() {
        let d = TruncNormal::new(0.0, 10.0, -5.0, 5.0);
        let mut r = rng();
        for _ in 0..5_000 {
            let v = d.sample(&mut r);
            assert!((-5.0..=5.0).contains(&v));
        }
    }

    #[test]
    fn trunc_normal_mean_near_center() {
        let d = TruncNormal::new(2.0, 1.0, -10.0, 14.0);
        let mut r = rng();
        let mean: f64 = (0..20_000).map(|_| d.sample(&mut r)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let d = Lognormal::new(1.0, 1.0);
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(mean > median, "right-skew: mean {mean} median {median}");
    }

    #[test]
    fn samplers_are_deterministic() {
        let z = Zipf::new(100, 1.2);
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        let va: Vec<usize> = (0..100).map(|_| z.sample(&mut a)).collect();
        let vb: Vec<usize> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }
}
