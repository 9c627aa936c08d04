//! Order statistics over the samples of one run.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Dist::of(values).median
}

/// The undisturbed time of something executed repeatedly: the mean of its
/// fastest tenth of executions, at least three.
///
/// On a shared VM the hypervisor takes the CPU away in bursts, so the
/// median of one run's executions does not repeat from run to run (it
/// differed by 25–120 % over ten runs on the host this was sized on); the
/// work is deterministic, so interference only ever adds time, and the
/// fastest executions are the ones it spared. One execution alone (the
/// minimum) repeats less well than the mean of a few.
pub fn undisturbed(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let keep = (sorted.len() / 10).max(3).min(sorted.len());
    sorted[..keep].iter().sum::<f64>() / keep as f64
}

/// What is reported beside every timing: the median (the gated value),
/// the lower quartile, the highest percentile that still has at least ten
/// samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dist {
    pub median: f64,
    pub p25: f64,
    /// `(percentile, value)`; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

impl Dist {
    pub fn of(values: &[f64]) -> Dist {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = (n >= 20).then(|| {
            let pct = 1.0 - 10.0 / n as f64;
            (pct * 100.0, quantile_sorted(&sorted, pct))
        });
        Dist {
            median: quantile_sorted(&sorted, 0.5),
            p25: quantile_sorted(&sorted, 0.25),
            tail,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!(d.median, 20.5);
        assert_eq!(d.n, 40);
        let (pct, val) = d.tail.unwrap();
        assert_eq!(pct, 75.0);
        assert!((30.0..=31.0).contains(&val));
        assert!(Dist::of(&v[..10]).tail.is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn undisturbed_is_the_mean_of_the_fastest_tenth() {
        let v: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(undisturbed(&v), 3.0); // mean of 1..=5
        assert_eq!(undisturbed(&[9.0, 1.0, 2.0, 3.0]), 2.0); // at least three
        assert_eq!(undisturbed(&[4.0]), 4.0);
        assert_eq!(undisturbed(&[]), 0.0);
    }
}
