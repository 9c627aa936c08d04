//! Display geometry.
//!
//! Every vizketch is "parameterized by the target display resolution, and
//! produces calculations that are just precise enough to render at that
//! resolution" (paper App. B.1). [`DisplaySpec`] captures that resolution
//! and the perceptual constants the paper uses.

/// Maximum number of histogram bars regardless of screen width (paper §1:
/// "limits the number of bars to ≈100").
const MAX_HISTOGRAM_BARS: usize = 100;

/// Maximum buckets for string-valued axes (paper App. B.1: 50).
pub(crate) const MAX_STRING_BUCKETS: usize = 50;

/// Discernible colors in a heat-map density scale (paper §4.3: c ≈ 20).
pub(crate) const COLOR_SHADES: usize = 20;

/// Maximum subdivisions (colors) in a stacked histogram (paper App. B.1:
/// "By is limited to ≈20").
pub(crate) const MAX_STACK_COLORS: usize = 20;

/// Heat-map bin size in pixels (paper App. B.1: "each bin consumes b×b
/// pixels, where b = 3").
const HEATMAP_BIN_PX: usize = 3;

/// A target drawing surface in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisplaySpec {
    /// Horizontal resolution (the paper's H).
    pub width_px: usize,
    /// Vertical resolution (the paper's V).
    pub height_px: usize,
}

impl DisplaySpec {
    /// A display of the given pixel dimensions.
    pub fn new(width_px: usize, height_px: usize) -> Self {
        assert!(width_px > 0 && height_px > 0, "degenerate display");
        DisplaySpec {
            width_px,
            height_px,
        }
    }

    /// The paper's default chart surface (§4.2 example: "at most 50 buckets
    /// ... when the screen width is 200 pixels" ⇒ bars are ≥ 4 px wide).
    pub(crate) fn default_chart() -> Self {
        DisplaySpec::new(600, 200)
    }

    /// Number of histogram bars that fit: one per 4 horizontal pixels,
    /// capped at [`MAX_HISTOGRAM_BARS`] and at the caller's request.
    pub(crate) fn histogram_buckets(&self, requested: Option<usize>) -> usize {
        let fit = (self.width_px / 4).clamp(1, MAX_HISTOGRAM_BARS);
        match requested {
            Some(r) => r.clamp(1, fit),
            None => fit,
        }
    }

    /// String-axis bucket budget (≤ 50).
    pub(crate) fn string_buckets(&self) -> usize {
        self.histogram_buckets(None).min(MAX_STRING_BUCKETS)
    }

    /// Heat-map bins along X and Y: Bx = H/b, By = V/b (paper §4.3).
    pub(crate) fn heatmap_bins(&self) -> (usize, usize) {
        (
            (self.width_px / HEATMAP_BIN_PX).max(1),
            (self.height_px / HEATMAP_BIN_PX).max(1),
        )
    }

    /// Sub-display for one cell of a `rows × cols` trellis grid (paper App.
    /// B.1: "a large number of heat maps means that each heat map is small").
    pub(crate) fn trellis_cell(&self, rows: usize, cols: usize) -> DisplaySpec {
        DisplaySpec::new(
            (self.width_px / cols.max(1)).max(1),
            (self.height_px / rows.max(1)).max(1),
        )
    }
}

impl Default for DisplaySpec {
    fn default() -> Self {
        Self::default_chart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_budget_scales_with_width() {
        let narrow = DisplaySpec::new(200, 100);
        assert_eq!(narrow.histogram_buckets(None), 50);
        let wide = DisplaySpec::new(4000, 100);
        assert_eq!(
            wide.histogram_buckets(None),
            MAX_HISTOGRAM_BARS,
            "capped at ≈100 bars"
        );
    }

    #[test]
    fn requested_buckets_clamped() {
        let d = DisplaySpec::new(200, 100);
        assert_eq!(d.histogram_buckets(Some(10)), 10);
        assert_eq!(d.histogram_buckets(Some(500)), 50, "cannot exceed fit");
        assert_eq!(d.histogram_buckets(Some(0)), 1);
    }

    #[test]
    fn heatmap_bins_use_3px_cells() {
        let d = DisplaySpec::new(600, 300);
        assert_eq!(d.heatmap_bins(), (200, 100));
    }

    #[test]
    fn string_buckets_capped_at_50() {
        let d = DisplaySpec::new(4000, 100);
        assert_eq!(d.string_buckets(), MAX_STRING_BUCKETS);
    }

    #[test]
    fn trellis_cells_shrink() {
        let d = DisplaySpec::new(600, 400);
        let cell = d.trellis_cell(2, 3);
        assert_eq!(cell, DisplaySpec::new(200, 200));
    }

    #[test]
    #[should_panic(expected = "degenerate display")]
    fn zero_size_rejected() {
        let _ = DisplaySpec::new(0, 100);
    }
}
