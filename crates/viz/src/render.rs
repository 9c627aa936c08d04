//! Rendering data structures.
//!
//! The paper's client renders summaries as SVG in a browser; here renderings
//! are explicit data structures — bar heights in integer pixels, density
//! grids in color-shade indexes — that tests can assert on, plus an ASCII
//! backend for the examples. The structures are deliberately lossy in
//! exactly the way a screen is: that quantization is what vizketches exploit.

use std::fmt::Write as _;

/// A bar chart rendered to integer pixel heights.
#[derive(Debug, Clone, PartialEq)]
pub struct BarChart {
    /// Height of each bar in pixels (0..=height_px).
    pub heights_px: Vec<u32>,
    /// Vertical resolution the heights are scaled to.
    pub height_px: usize,
    /// The count represented by the tallest bar (the scale anchor).
    pub max_count: u64,
    /// Bar labels (bucket bounds or strings).
    pub labels: Vec<String>,
}

impl BarChart {
    /// Render counts to pixel heights: the largest count maps to the full
    /// height ("to maximize use of screen, we should scale the bars so that
    /// the largest one has V pixels", §4.3); others round to nearest pixel.
    pub fn from_counts(counts: &[u64], height_px: usize, labels: Vec<String>) -> Self {
        let max_count = counts.iter().copied().max().unwrap_or(0);
        let heights_px = counts
            .iter()
            .map(|&c| scale_to_pixels(c, max_count, height_px))
            .collect();
        BarChart {
            heights_px,
            height_px,
            max_count,
            labels,
        }
    }

    /// ASCII rendering, one row of characters per `rows` pixel band.
    pub fn to_ascii(&self, rows: usize) -> String {
        let rows = rows.max(1);
        let mut out = String::new();
        for r in (0..rows).rev() {
            let threshold = ((r as f64 + 0.5) / rows as f64 * self.height_px as f64) as u32;
            for &h in &self.heights_px {
                out.push(if h > threshold { '█' } else { ' ' });
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{}", "▔".repeat(self.heights_px.len()));
        out
    }
}

/// Scale `count` into `0..=height_px` pixels relative to `max_count`,
/// rounding to the nearest pixel (the ±½ px quantization of Fig. 3).
pub(crate) fn scale_to_pixels(count: u64, max_count: u64, height_px: usize) -> u32 {
    if max_count == 0 {
        return 0;
    }
    ((count as f64 / max_count as f64) * height_px as f64).round() as u32
}

/// A heat map rendered to color-shade indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorGrid {
    /// X bins.
    pub bx: usize,
    /// Y bins.
    pub by: usize,
    /// Shade index per cell (0 = empty, `shades` = densest), row-major by X.
    pub cells: Vec<u8>,
    /// Number of discernible shades.
    pub shades: usize,
    /// The count mapped to the densest shade.
    pub max_count: u64,
}

impl ColorGrid {
    /// Map counts to shades linearly ("sampling can be used only if the map
    /// from count to color is linear", §4.3): 0 stays 0, the maximum maps to
    /// `shades`, everything else rounds to the nearest shade, minimum 1 so
    /// that presence is always visible.
    pub fn from_counts(counts: &[u64], bx: usize, by: usize, shades: usize) -> Self {
        debug_assert_eq!(counts.len(), bx * by);
        let max_count = counts.iter().copied().max().unwrap_or(0);
        let cells = counts
            .iter()
            .map(|&c| shade_of(c, max_count, shades))
            .collect();
        ColorGrid {
            bx,
            by,
            cells,
            shades,
            max_count,
        }
    }

    /// Shade at (x, y).
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.cells[x * self.by + y]
    }

    /// ASCII rendering with a density ramp, y growing upward.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        for y in (0..self.by).rev() {
            for x in 0..self.bx {
                let s = self.get(x, y) as usize;
                let idx = s * (RAMP.len() - 1) / self.shades.max(1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Linear count→shade quantization.
pub(crate) fn shade_of(count: u64, max_count: u64, shades: usize) -> u8 {
    if count == 0 || max_count == 0 {
        return 0;
    }
    let s = (count as f64 / max_count as f64 * shades as f64).round() as u8;
    s.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallest_bar_fills_the_height() {
        let c = BarChart::from_counts(&[10, 20, 5], 100, vec![]);
        assert_eq!(c.heights_px, vec![50, 100, 25]);
        assert_eq!(c.max_count, 20);
    }

    #[test]
    fn empty_chart_is_flat() {
        let c = BarChart::from_counts(&[0, 0], 100, vec![]);
        assert_eq!(c.heights_px, vec![0, 0]);
        assert_eq!(c.max_count, 0);
    }

    #[test]
    fn pixel_rounding_is_nearest() {
        // 1/3 of 100 px = 33.3 → 33; 2/3 → 66.67 → 67.
        assert_eq!(scale_to_pixels(1, 3, 100), 33);
        assert_eq!(scale_to_pixels(2, 3, 100), 67);
    }

    #[test]
    fn ascii_bar_chart_shape() {
        let c = BarChart::from_counts(&[1, 2], 2, vec![]);
        let art = c.to_ascii(2);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines[0], " █", "only the tall bar reaches the top row");
        assert_eq!(lines[1], "██");
    }

    #[test]
    fn shades_quantize_linearly() {
        assert_eq!(shade_of(0, 100, 20), 0);
        assert_eq!(shade_of(100, 100, 20), 20);
        assert_eq!(shade_of(50, 100, 20), 10);
        assert_eq!(shade_of(1, 1000, 20), 1, "presence is visible");
    }

    #[test]
    fn grid_layout_and_ascii() {
        let g = ColorGrid::from_counts(&[0, 10, 5, 0], 2, 2, 10);
        assert_eq!(g.get(0, 0), 0);
        assert_eq!(g.get(0, 1), 10);
        assert_eq!(g.get(1, 0), 5);
        let art = g.to_ascii();
        assert_eq!(art.lines().count(), 2);
        assert!(art.starts_with('@'), "densest cell renders darkest:\n{art}");
    }
}
