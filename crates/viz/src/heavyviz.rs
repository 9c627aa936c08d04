//! Heavy-hitters visualization (paper §4.3, App. B.2).
//!
//! Subsumes pie charts (§3.4): the rendering is a ranked table of the most
//! frequent values with counts and percentages. Two
//! back-end algorithms are available — Misra-Gries (exact guarantee, full
//! scan) and sampling (cheaper; "better ... when K ≥ 1/100", App. B.2).

use crate::samples;
use hillview_columnar::Value;
use hillview_sketch::heavy::{
    MisraGriesSummary, SampledHeavyHittersSketch, SampledHeavyHittersSummary,
};
use std::sync::Arc;

/// Heavy-hitters vizketch configuration. The algorithm is the caller's
/// choice of method pair: [`prepare_sampling`](Self::prepare_sampling) and
/// [`render_sampling`](Self::render_sampling) (uniform sampling, paper
/// Theorem 4), or a Misra-Gries sketch and
/// [`render_streaming`](Self::render_streaming).
#[derive(Debug, Clone)]
pub struct HeavyHittersViz {
    /// Column to analyze.
    pub column: Arc<str>,
    /// Maximum number of heavy hitters (the paper's K).
    pub k: usize,
    /// Error probability δ (sampling).
    pub delta: f64,
}

/// A ranked heavy-hitters table.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHittersRendering {
    /// (value, estimated count, share of total), descending by count.
    pub items: Vec<(Value, u64, f64)>,
    /// Total rows the shares are relative to.
    pub total: u64,
}

impl HeavyHittersViz {
    /// Streaming (Misra-Gries) heavy hitters.
    pub fn streaming(column: &str, k: usize) -> Self {
        HeavyHittersViz {
            column: Arc::from(column),
            k: k.max(1),
            delta: samples::DEFAULT_DELTA,
        }
    }

    /// Sampling heavy hitters: the same configuration, at the default δ.
    pub fn sampling(column: &str, k: usize) -> Self {
        Self::streaming(column, k)
    }

    /// The sampling sketch, with rate derived from K, δ and the population
    /// (paper: n = K² log(K/δ)).
    pub fn prepare_sampling(&self, population: u64) -> SampledHeavyHittersSketch {
        let target = samples::heavy_hitters(self.k, self.delta);
        let rate = samples::rate_for(target, population);
        SampledHeavyHittersSketch::new(&self.column, self.k, rate)
    }

    /// Render a Misra-Gries summary: items above frequency 1/K.
    pub fn render_streaming(&self, summary: &MisraGriesSummary) -> HeavyHittersRendering {
        let items = summary
            .heavy_hitters(1.0 / self.k as f64)
            .into_iter()
            .map(|(v, c)| {
                let share = if summary.total > 0 {
                    c as f64 / summary.total as f64
                } else {
                    0.0
                };
                (v, c, share)
            })
            .collect();
        HeavyHittersRendering {
            items,
            total: summary.total,
        }
    }

    /// Render a sampling summary: items above 3n/4K of the sample, with
    /// counts extrapolated to the population.
    pub fn render_sampling(
        &self,
        summary: &SampledHeavyHittersSummary,
        population: u64,
    ) -> HeavyHittersRendering {
        let scale = if summary.sampled > 0 {
            population as f64 / summary.sampled as f64
        } else {
            0.0
        };
        let items = summary
            .heavy_hitters(self.k)
            .into_iter()
            .map(|(v, c)| {
                let est = (c as f64 * scale).round() as u64;
                let share = if population > 0 {
                    est as f64 / population as f64
                } else {
                    0.0
                };
                (v, est, share)
            })
            .collect();
        HeavyHittersRendering {
            items,
            total: population,
        }
    }
}

impl HeavyHittersRendering {
    /// Text table for the spreadsheet UI.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (v, c, share) in &self.items {
            out.push_str(&format!("{v:<24} {c:>12} {:>6.2}%\n", share * 100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, DictColumn};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::heavy::MisraGriesSketch;
    use hillview_sketch::traits::Sketch;
    use hillview_sketch::{Scope, TableView};
    use std::sync::Arc as StdArc;

    fn view() -> TableView {
        // 10k rows: "UA" 50%, "AA" 30%, 2000 distinct rare tails.
        let vals: Vec<String> = (0..10_000)
            .map(|i| match i % 10 {
                0..=4 => "UA".to_string(),
                5..=7 => "AA".to_string(),
                _ => format!("rare{}", i),
            })
            .collect();
        let t = Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    vals.iter().map(|s| Some(s.as_str())),
                )),
            )
            .build()
            .unwrap();
        TableView::full(StdArc::new(t))
    }

    #[test]
    fn streaming_mode_end_to_end() {
        let v = view();
        let viz = HeavyHittersViz::streaming("Carrier", 5);
        let s = MisraGriesSketch::new("Carrier", 5)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let r = viz.render_streaming(&s);
        assert_eq!(r.items[0].0, Value::str("UA"));
        assert_eq!(r.items[1].0, Value::str("AA"));
        assert!(r.items[0].2 > 0.4 && r.items[0].2 < 0.6, "{}", r.items[0].2);
        assert!(r.items.len() <= 5);
    }

    #[test]
    fn sampling_mode_end_to_end() {
        let v = view();
        let viz = HeavyHittersViz::sampling("Carrier", 5);
        let sketch = viz.prepare_sampling(10_000);
        let s = sketch.summarize(&v, Scope::ALL, 9).unwrap();
        let r = viz.render_sampling(&s, 10_000);
        assert_eq!(r.items[0].0, Value::str("UA"));
        // Extrapolated count within 20% of truth (5000).
        assert!(
            (r.items[0].1 as f64 - 5000.0).abs() < 1000.0,
            "{}",
            r.items[0].1
        );
        // Rare values excluded.
        assert!(r
            .items
            .iter()
            .all(|(v, _, _)| !v.to_string().starts_with("rare")));
    }

    #[test]
    fn renderings_export() {
        let v = view();
        let viz = HeavyHittersViz::streaming("Carrier", 4);
        let s = MisraGriesSketch::new("Carrier", 4)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let text = viz.render_streaming(&s).to_text();
        assert!(text.contains("UA"));
        assert!(text.contains('%'));
    }

    #[test]
    fn sampling_rate_derivation() {
        let viz = HeavyHittersViz::sampling("Carrier", 10);
        let sk = viz.prepare_sampling(1_000_000_000);
        // n = K²log(K/δ) ≈ 691; rate ≈ 6.9e-7.
        assert!(sk.rate < 1e-5, "rate {}", sk.rate);
        let sk_small = viz.prepare_sampling(100);
        assert!(sk_small.rate >= 1.0);
    }
}
