//! Tabular-view rendering: pages, scroll bar, find.
//!
//! Paper App. B.4 maps spreadsheet actions to vizketches: the initial view
//! and scrolling use *next items*; moving the scroll bar runs *quantile*
//! then *next items*; find runs the *find* vizketch. This module renders
//! their summaries as a spreadsheet page.

use crate::samples;
use hillview_columnar::{RowKey, SortOrder};
use hillview_sketch::nextk::{NextKSketch, NextKSummary};
use hillview_sketch::quantile::QuantileSketch;
use std::fmt::Write as _;

/// A rendered spreadsheet page.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePage {
    /// Column headers (sort columns first, then display columns).
    pub headers: Vec<String>,
    /// Rows as display strings, with a repetition count per row.
    pub rows: Vec<(Vec<String>, u64)>,
    /// Rows at-or-after this page's first row (drives the scroll thumb).
    pub matched: u64,
}

/// Tabular-view vizketch configuration.
#[derive(Debug, Clone)]
pub struct TableViewViz {
    /// Active sort order.
    pub order: SortOrder,
    /// Extra display columns.
    pub display_cols: Vec<String>,
    /// Rows per page (the paper's K, e.g. 20 visible rows).
    pub page_rows: usize,
    /// Scroll bar height in pixels.
    pub scrollbar_px: usize,
}

impl TableViewViz {
    /// A view sorted by `order` showing `page_rows` rows.
    pub fn new(order: SortOrder, page_rows: usize) -> Self {
        TableViewViz {
            order,
            display_cols: Vec::new(),
            page_rows: page_rows.max(1),
            scrollbar_px: 100,
        }
    }

    /// Add display columns.
    pub fn with_display(mut self, cols: &[&str]) -> Self {
        self.display_cols = cols.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Sketch for the first page.
    pub fn first_page(&self) -> NextKSketch {
        self.page_after(None)
    }

    /// Sketch for the page after `start` (paging / scrolling one page).
    pub fn page_after(&self, start: Option<RowKey>) -> NextKSketch {
        let refs: Vec<&str> = self.display_cols.iter().map(|s| s.as_str()).collect();
        let mut sk = match start {
            None => NextKSketch::first_page(self.order.clone(), self.page_rows),
            Some(k) => NextKSketch::after(self.order.clone(), k, self.page_rows),
        };
        sk = sk.with_display(&refs);
        sk
    }

    /// Quantile sketch for a scroll-bar drag: the engine runs this first,
    /// then [`TableViewViz::page_after`] from the returned key (App. B.4:
    /// "Moving scrollbar: Quantile + next items").
    pub fn scrollbar_quantile(&self, population: u64) -> QuantileSketch {
        let target = samples::quantile(self.scrollbar_px, samples::DEFAULT_DELTA);
        let rate = samples::rate_for(target, population);
        QuantileSketch::new(
            self.order.clone(),
            rate,
            target as usize,
            samples::quantile_resolution(self.scrollbar_px),
        )
    }

    /// Scroll-bar pixel position → target quantile.
    pub fn pixel_to_quantile(&self, pixel: usize) -> f64 {
        pixel.min(self.scrollbar_px) as f64 / self.scrollbar_px as f64
    }

    /// Render a merged next-K summary as a page: each row's key values,
    /// then its display values.
    pub fn render(&self, summary: &NextKSummary) -> TablePage {
        let mut headers: Vec<String> = self.order.names().map(|n| n.to_string()).collect();
        headers.extend(self.display_cols.iter().cloned());
        let rows = summary
            .rows
            .iter()
            .map(|(key, row, count)| {
                let cells = key.values().iter().chain(&row.values);
                (cells.map(|v| v.to_string()).collect(), *count)
            })
            .collect();
        TablePage {
            headers,
            rows,
            matched: summary.matched,
        }
    }
}

impl TablePage {
    /// Fixed-width text rendering, like the spreadsheet's grid.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for (cells, _) in &self.rows {
            for (i, c) in cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(out, "{h:<w$} | ");
        }
        out.push_str("count\n");
        let total_w: usize = widths.iter().sum::<usize>() + widths.len() * 3 + 5;
        out.push_str(&"-".repeat(total_w));
        out.push('\n');
        for (cells, count) in &self.rows {
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(out, "{c:<w$} | ");
            }
            let _ = writeln!(out, "{count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::traits::Sketch;
    use hillview_sketch::{Scope, TableView};
    use std::sync::Arc;

    fn view() -> TableView {
        let carriers = ["UA", "AA", "AA", "DL", "UA", "AA"];
        let delays = [10i64, 5, 5, 7, 2, 30];
        let t = Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(carriers.iter().map(|&c| Some(c)))),
            )
            .column(
                "Delay",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(delays.iter().map(|&d| Some(d)))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn first_page_renders_sorted_grid() {
        let viz = TableViewViz::new(SortOrder::ascending(&["Carrier", "Delay"]), 3);
        let s = viz.first_page().summarize(&view(), Scope::ALL, 0).unwrap();
        let page = viz.render(&s);
        assert_eq!(page.headers, vec!["Carrier", "Delay"]);
        assert_eq!(page.rows.len(), 3);
        assert_eq!(page.rows[0].0, vec!["AA", "5"]);
        assert_eq!(page.rows[0].1, 2, "duplicate (AA,5) aggregated");
        let text = page.to_text();
        assert!(text.contains("Carrier"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn paging_walks_the_dataset() {
        let viz = TableViewViz::new(SortOrder::ascending(&["Carrier", "Delay"]), 2);
        let p1 = viz.first_page().summarize(&view(), Scope::ALL, 0).unwrap();
        let last = p1.rows.last().unwrap().0.clone();
        let p2 = viz
            .page_after(Some(last))
            .summarize(&view(), Scope::ALL, 0)
            .unwrap();
        let page2 = viz.render(&p2);
        assert_eq!(page2.rows[0].0, vec!["DL", "7"]);
    }

    #[test]
    fn scrollbar_quantile_then_page() {
        let viz = TableViewViz::new(SortOrder::ascending(&["Delay"]), 2);
        let v = view();
        let q = viz
            .scrollbar_quantile(6)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        // Middle of the scroll bar → median-ish key.
        let key = q.quantile(viz.pixel_to_quantile(50)).unwrap();
        let page = viz
            .page_after(Some(key.clone()))
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert!(!page.rows.is_empty());
        assert!(page.rows[0].0 > key, "page starts after the quantile key");
    }

    #[test]
    fn display_columns_render() {
        let viz = TableViewViz::new(SortOrder::ascending(&["Delay"]), 2).with_display(&["Carrier"]);
        let s = viz.first_page().summarize(&view(), Scope::ALL, 0).unwrap();
        let page = viz.render(&s);
        assert_eq!(page.headers, vec!["Delay", "Carrier"]);
        assert_eq!(page.rows[0].0, vec!["2", "UA"]);
    }

    #[test]
    fn pixel_to_quantile_maps_linearly() {
        let viz = TableViewViz::new(SortOrder::ascending(&["Delay"]), 2);
        assert_eq!(viz.pixel_to_quantile(0), 0.0);
        assert_eq!(viz.pixel_to_quantile(50), 0.5);
        assert_eq!(viz.pixel_to_quantile(100), 1.0);
        assert_eq!(viz.pixel_to_quantile(999), 1.0, "clamped");
    }
}
