//! The size ledger: `hillview-lint stats --json`, committed as `SIZE.json`.
//!
//! One object per *unit* — each `crates/*` and `vendor/*` package, plus
//! `tests`, `examples` and the standalone `benchmark` package — and a
//! `total`, keys sorted, nothing that changes unless the tree does:
//!
//! | field | counts |
//! |-------|--------|
//! | `lines` | physical lines of the unit's `.rs` files (`wc -l`) |
//! | `code_lines` | lines carrying a code token outside test code |
//! | `test_lines` | lines carrying a code token in test code: `#[test]` / `#[cfg(test)]` items and everything under `tests/`, `benches/`, `examples/` |
//! | `pub_items` | `pub fn/struct/enum/union/trait/const/static/type/mod` outside test code (no `pub(...)`, fields or re-exports) |
//! | `unsafe_sites` | `unsafe` keywords, the sites the `safety-comment` rule patrols |
//! | `features` | entries of the unit's `[features]` table |
//!
//! Blank and comment-only lines are in `lines` and in neither of the
//! other two, so deleting comments moves no tracked code number.

use crate::lexer::TokKind;
use crate::{SourceFile, Workspace};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The ledger row of one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Physical lines.
    pub lines: usize,
    /// Non-test lines carrying code.
    pub code_lines: usize,
    /// Test lines carrying code.
    pub test_lines: usize,
    /// Public items in non-test code.
    pub pub_items: usize,
    /// `unsafe` keywords.
    pub unsafe_sites: usize,
    /// `[features]` entries.
    pub features: usize,
}

impl UnitStats {
    fn add(&mut self, other: &UnitStats) {
        self.lines += other.lines;
        self.code_lines += other.code_lines;
        self.test_lines += other.test_lines;
        self.pub_items += other.pub_items;
        self.unsafe_sites += other.unsafe_sites;
        self.features += other.features;
    }
}

/// Keywords that make the `pub` before them a public item.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "const", "static", "type", "mod",
];
/// Qualifiers that may sit between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["unsafe", "async", "extern"];

/// The unit a workspace-relative path belongs to: two components under
/// `crates/` and `vendor/`, one elsewhere.
fn unit_of(path: &str) -> String {
    let mut parts = path.split('/');
    let top = parts.next().unwrap_or_default();
    match (top, parts.next()) {
        ("crates" | "vendor", Some(package)) => format!("{top}/{package}"),
        _ => top.to_string(),
    }
}

fn file_stats(f: &SourceFile) -> UnitStats {
    let mut stats = UnitStats {
        lines: f.text.lines().count(),
        ..UnitStats::default()
    };
    // Per 1-based line: does it carry live code, does it carry test code.
    let mut live = vec![false; stats.lines + 2];
    let mut test = vec![false; stats.lines + 2];
    let code = f.code_idx();
    for (k, &i) in code.iter().enumerate() {
        let t = &f.toks[i];
        let in_test = f.in_test(t.lo);
        let marks = if in_test { &mut test } else { &mut live };
        for line in f.line_of(t.lo)..=f.line_of(t.hi - 1) {
            marks[line as usize] = true;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = |n: usize| code.get(k + n).map(|&j| f.toks[j].text(&f.text));
        match t.text(&f.text) {
            "unsafe" => stats.unsafe_sites += 1,
            "pub" if !in_test => {
                let mut keyword = next(1);
                if keyword.is_some_and(|w| FN_QUALIFIERS.contains(&w)) {
                    // `pub unsafe fn`, `pub extern "C" fn`: the item
                    // keyword is the first `fn` within the next tokens.
                    keyword = (2..=3).map(next).find(|w| *w == Some("fn")).flatten();
                }
                if keyword.is_some_and(|w| ITEM_KEYWORDS.contains(&w)) {
                    stats.pub_items += 1;
                }
            }
            _ => {}
        }
    }
    stats.code_lines = live.iter().filter(|&&l| l).count();
    stats.test_lines = (0..live.len()).filter(|&l| test[l] && !live[l]).count();
    stats
}

/// Entries of the `[features]` table of a manifest's text.
fn feature_entries(manifest: &str) -> usize {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[features]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#') && l.contains('='))
        .count()
}

/// The ledger of the tree under `root`: unit → row, with a `total`.
pub fn collect(root: &Path) -> io::Result<BTreeMap<String, UnitStats>> {
    let ws = Workspace::load_dirs(
        root,
        &["crates", "vendor", "tests", "examples", "benchmark"],
    )?;
    let mut units: BTreeMap<String, UnitStats> = BTreeMap::new();
    for f in &ws.files {
        units
            .entry(unit_of(&f.path))
            .or_default()
            .add(&file_stats(f));
    }
    for (unit, stats) in units.iter_mut() {
        // `examples/` has no manifest of its own: its files are targets of
        // the `tests` package.
        if let Ok(manifest) = std::fs::read_to_string(root.join(unit).join("Cargo.toml")) {
            stats.features = feature_entries(&manifest);
        }
    }
    let mut total = UnitStats::default();
    for stats in units.values() {
        total.add(stats);
    }
    units.insert("total".to_string(), total);
    Ok(units)
}

/// The ledger as JSON: one line per unit, keys sorted at both levels.
pub fn to_json(units: &BTreeMap<String, UnitStats>) -> String {
    let rows: Vec<String> = units
        .iter()
        .map(|(unit, s)| {
            format!(
                "  \"{unit}\": {{\"code_lines\": {}, \"features\": {}, \"lines\": {}, \
                 \"pub_items\": {}, \"test_lines\": {}, \"unsafe_sites\": {}}}",
                s.code_lines, s.features, s.lines, s.pub_items, s.test_lines, s.unsafe_sites
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_into_code_test_and_neither() {
        let src = "\
//! Docs.

pub fn live() {
    let s = \"two
lines\";
}

pub(crate) fn hidden() {}
pub struct S { pub field: u8 }
pub use other::Thing;

#[cfg(test)]
mod tests {
    pub fn helper() {}
    // a comment
    #[test]
    fn t() { unsafe { x() } }
}
";
        let s = file_stats(&SourceFile::new("crates/a/src/lib.rs", src));
        assert_eq!(s.lines, 18);
        assert_eq!(s.code_lines, 7, "string continuation lines are code");
        assert_eq!(s.test_lines, 6);
        assert_eq!(s.pub_items, 2, "live and S; not fields, re-exports, tests");
        assert_eq!(s.unsafe_sites, 1);
        let bench = file_stats(&SourceFile::new("crates/a/benches/b.rs", "pub fn f() {}\n"));
        assert_eq!(
            (bench.code_lines, bench.test_lines, bench.pub_items),
            (0, 1, 0)
        );
    }

    #[test]
    fn qualified_fns_are_items() {
        let src = "pub unsafe fn a() {}\npub extern \"C\" fn b() {}\npub async fn c() {}\n";
        let s = file_stats(&SourceFile::new("crates/a/src/lib.rs", src));
        assert_eq!(s.pub_items, 3);
    }

    #[test]
    fn units_and_feature_tables() {
        assert_eq!(unit_of("crates/core/src/lib.rs"), "crates/core");
        assert_eq!(unit_of("vendor/rand/src/lib.rs"), "vendor/rand");
        assert_eq!(unit_of("tests/tests/x.rs"), "tests");
        assert_eq!(unit_of("benchmark/src/main.rs"), "benchmark");
        let manifest = "[package]\nname = \"x\"\n\n[features]\n# why\nooc = [\"a/ooc\"]\nfast = []\n\n[dependencies]\nrand = \"1\"\n";
        assert_eq!(feature_entries(manifest), 2);
        assert_eq!(feature_entries("[package]\nname = \"x\"\n"), 0);
    }
}
