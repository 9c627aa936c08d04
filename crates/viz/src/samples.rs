//! Sample-size formulas (paper Appendix C).
//!
//! Each formula returns the number of rows a vizketch must sample for its
//! rendering error to stay below perception thresholds with probability
//! 1 − δ. Crucially, every formula depends only on screen geometry — never
//! on the dataset size — which is what makes vizketches "scalable by
//! construction" (§1): on more data they sample *more aggressively*.
//!
//! The theorems give asymptotic bounds; following the paper's practice
//! ("In practice, we have found that using CV² samples for constant C works
//! well", App. C.2) the functions below use calibrated constants and are
//! validated empirically by the accuracy tests in [`crate::accuracy`].

/// Default error probability δ.
pub(crate) const DEFAULT_DELTA: f64 = 0.01;

/// Calibration constant for the CV² histogram rule.
const HISTOGRAM_C: f64 = 5.0;

/// Samples for a histogram with `v_px` vertical pixels (Theorem 3 with the
/// pragmatic CV² rule): the tallest bar is off by at most ~½ pixel w.h.p.
pub fn histogram(v_px: usize, delta: f64) -> u64 {
    let v = v_px as f64;
    (HISTOGRAM_C * v * v * (1.0 / delta).ln()).ceil() as u64
}

/// Samples for a CDF over `v_px` vertical pixels: `O(V² log 1/δ)`
/// (App. B.1). The CDF needs accuracy ±0.1/V per horizontal pixel.
pub fn cdf(v_px: usize, delta: f64) -> u64 {
    let v = v_px as f64;
    (25.0 * v * v * (1.0 / delta).ln()).ceil() as u64
}

/// Samples for a heat map with `c` color shades where the densest cell
/// holds fraction `p_max` of the data: `O(c²/p_max²)` (App. C.2). `p_max`
/// is unknown before the scan, so callers pass an estimate (1 / number of
/// populated cells is a reasonable prior); the result is clamped to a
/// budget because the theoretical bound explodes for tiny `p_max`.
pub fn heatmap(shades: usize, p_max_estimate: f64, delta: f64) -> u64 {
    let c = shades as f64;
    let p = p_max_estimate.clamp(1e-6, 1.0);
    let n = (c * c / (p * p) * (1.0 / delta).ln()).ceil() as u64;
    n.min(heatmap_budget())
}

/// Upper bound on heat-map sampling: past this, streaming the data is
/// cheaper than sampling it (sampling is an optimization, not a cap on
/// correctness — the engine falls back to exact scans).
fn heatmap_budget() -> u64 {
    8_000_000
}

/// Samples for a scroll-bar quantile with `v_px` pixels: Theorem 2 with
/// ε = 1/2V gives `O(V²)` for constant success probability; the paper uses
/// exactly that ("In practice, we choose ε = 1/(2V) ... which requires
/// sample complexity O(V²)", App. C.1). δ sharpens the constant mildly.
/// This is the sample half of the scroll bar's error budget, which
/// `quantile_resolution` states whole.
pub fn quantile(v_px: usize, delta: f64) -> u64 {
    let v = v_px as f64;
    ((4.0 * v * v) * (1.0 + (1.0 / delta).ln() / 10.0)).ceil() as u64
}

/// Keys of a scroll-bar quantile summary that may cross a network link:
/// `K = 2·V` equi-depth keys per worker.
///
/// **The scroll bar's error budget.** A drag to pixel `j` of `V` must show
/// rows starting within `1/V` of rank `j/V`. Two steps spend that budget:
///
/// * *Sampling.* [`quantile`] draws `cap = ⌈4V²(1 + ln(1/δ)/10)⌉` rows
///   (58 421 at V = 100). By the Dvoretzky–Kiefer–Wolfowitz inequality
///   with Massart's constant, with probability `1 − δ` that sample's CDF is
///   within `ε_s = √(ln(2/δ) / (2·cap))` of the population's at every
///   threshold at once — ≈ 0.674/V at δ = 0.01, for every V, since `cap`
///   grows as V².
/// * *Compaction.* Each worker ships its fold compressed to `K` equi-depth
///   keys, which moves at most `W_i/(2K)` of its weight `W_i` past any
///   threshold; the root only merges weighted runs, so the merged rank
///   error grows by at most `1/(2K)` whatever the number of workers
///   (`hillview_sketch::quantile`'s module doc) — 0.25/V at `K = 2V`.
///
/// Together `ε_s + 1/(2K) ≈ 0.92/V < 1/V`. A smaller `K` is not licensed:
/// at `K = V` the sum is ≈ 1.17/V. The tests of this module pin the
/// inequality for a range of displays; `crate::accuracy` measures it.
pub(crate) fn quantile_resolution(v_px: usize) -> usize {
    2 * v_px
}

/// Samples for sampled heavy hitters: `K² log(K/δ)` (Theorem 4).
pub fn heavy_hitters(k: usize, delta: f64) -> u64 {
    let k = k.max(1) as f64;
    (k * k * (k / delta).ln()).ceil() as u64
}

/// Convert a target sample size into a per-row Bernoulli rate for a dataset
/// of `population` rows. Rates ≥ 1 mean "scan everything" — sampling only
/// ever *reduces* work (paper §4.4 "Scalability").
pub fn rate_for(target: u64, population: u64) -> f64 {
    if population == 0 {
        return 1.0;
    }
    (target as f64 / population as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_independent_of_data_size() {
        // The whole point: no formula takes a dataset size.
        let n1 = histogram(200, DEFAULT_DELTA);
        assert!(n1 > 0);
        // More pixels ⇒ more samples.
        assert!(histogram(400, DEFAULT_DELTA) > n1);
        // Lower δ ⇒ more samples.
        assert!(histogram(200, 0.001) > histogram(200, 0.01));
    }

    #[test]
    fn histogram_magnitude_is_practical() {
        // ~200 px tall chart: sample count in the single-digit millions at
        // most — far below the billions of rows it summarizes.
        let n = histogram(200, DEFAULT_DELTA);
        assert!((100_000..10_000_000).contains(&n), "n = {n}");
    }

    #[test]
    fn cdf_needs_more_than_histogram_per_pixel() {
        assert!(cdf(200, DEFAULT_DELTA) > histogram(200, DEFAULT_DELTA) / 10);
    }

    #[test]
    fn heatmap_clamped_to_budget() {
        let n = heatmap(20, 1e-9, DEFAULT_DELTA);
        assert_eq!(n, heatmap_budget());
        let n2 = heatmap(20, 0.1, DEFAULT_DELTA);
        assert!(n2 < heatmap_budget());
    }

    /// DKW with Massart's constant: the largest CDF error of a uniform
    /// sample of `samples` rows, at every threshold at once, w.p. `1 − δ`.
    fn dkw(samples: u64, delta: f64) -> f64 {
        ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt()
    }

    /// The scroll bar's budget, not its constants: lowering `cap` or `K`
    /// below what the `1/V` contract allows fails here.
    #[test]
    fn quantile_formula() {
        let n = quantile(100, DEFAULT_DELTA);
        assert_eq!(n, 58_421, "the sample budget is unchanged");
        assert!(quantile(100, 0.001) > n, "lower δ, more samples");
        for v in [10, 20, 40, 100, 200, 600, 1_080, 2_160] {
            let sampling = dkw(quantile(v, DEFAULT_DELTA), DEFAULT_DELTA);
            let compaction = 1.0 / (2.0 * quantile_resolution(v) as f64);
            let budget = 1.0 / v as f64;
            assert!(
                sampling + compaction < budget,
                "V = {v}: {sampling} + {compaction} ≥ {budget}"
            );
            assert_eq!(
                quantile_resolution(v),
                v * quantile_resolution(1),
                "linear in V, not V²"
            );
        }
    }

    #[test]
    fn heavy_hitters_formula() {
        assert_eq!(
            heavy_hitters(10, 0.01),
            (100.0 * (1000.0f64).ln()).ceil() as u64
        );
        assert!(heavy_hitters(0, 0.01) > 0, "k=0 clamps to 1");
    }

    #[test]
    fn rate_conversion() {
        assert_eq!(rate_for(1000, 0), 1.0);
        assert_eq!(rate_for(1000, 500), 1.0, "never upsample");
        assert!((rate_for(1000, 100_000) - 0.01).abs() < 1e-12);
    }
}
