//! # hillview-lint
//!
//! The workspace invariant checker. Hillview's correctness story rests on
//! invariants rustc cannot see — sketches must merge bit-identically
//! across thread counts and codegen tiers, every SIMD fast path needs a
//! byte-equal scalar fallback, and the mmap/`ValueBuf`/`Pod` layer is
//! only sound under aliasing rules stated in comments. This crate pins
//! those invariants mechanically: a dependency-free binary with a small
//! Rust lexer that walks every `.rs` file in the workspace (including
//! `vendor/`) and fails CI on violations.
//!
//! ## Rules
//!
//! | id | invariant |
//! |----|-----------|
//! | `safety-comment` | every `unsafe` block/fn/impl is immediately preceded by a comment containing `SAFETY` |
//! | `simd-registry` | every `tier_dispatch!` entry in `columnar/src/simd.rs` has its scalar body defined and appears by name in a forced-scalar equivalence test |
//! | `sketch-registry` | every `impl Sketch for T` appears in the `fused_equivalence`, `scan_equivalence`, `merge_laws` and `wire_totality` suites |
//! | `relaxed-ordering` | `Ordering::Relaxed` only in the counters allowlist ([`rules::RELAXED_COUNTER_FILES`]) or under a `// lint: allow(relaxed, reason)` marker |
//! | `pub-unused` | every `pub fn` in the library code of a `crates/*` or `vendor/*` package is named outside that package's `src/` (another crate, a `tests/`, `benches/` or `examples/` file, a binary target, or `benchmark/`), or carries a `// lint: allow(pub-unused, reason)` marker |
//!
//! Three invariants live in clippy instead, run by CI's `cargo clippy
//! --all-targets -- -D warnings`: no panic site in the non-test code of
//! `crates/core` and `crates/net` (crate-level `clippy::unwrap_used` and
//! siblings), no `std::env::temp_dir` outside `hillview_columnar::TempDir`
//! (`disallowed-methods` in the root `clippy.toml`), and no wildcard arm in
//! `EngineError::is_retryable` (two `deny`s on the fn). A justified site
//! there is an `#[expect(<lint>, reason = "...")]`. `safety-comment` stays
//! here because clippy's `undocumented_unsafe_blocks` does not cover an
//! `unsafe fn` inside a trait impl.
//!
//! ## Size ledger
//!
//! `hillview-lint stats --json` prints the per-crate size ledger that is
//! committed as `SIZE.json` and diffed in CI; see [`stats`].
//!
//! ## Markers
//!
//! A justified exception is a trailing or preceding-line comment of the
//! form `// lint: allow(<rule>, <reason>)` where `<rule>` is `relaxed` or
//! `pub-unused` and `<reason>` is non-empty. The reason is the point: the
//! marker records *why* the site is sound, next to the site.
//!
//! ## Adding a rule
//!
//! Try a clippy lint first: an attribute or a `clippy.toml` setting checks
//! the resolved program, which a token match cannot. Otherwise write a
//! `fn rule_<name>(ws: &Workspace) -> Vec<Finding>` in [`rules`], list it
//! in [`rules::RULES`], and add a bad/good fixture pair under
//! `tests/fixtures/<name>/` plus a case in `tests/lint_tests.rs`. The
//! live-tree self-check test will hold the workspace to it from then on.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod stats;

use lexer::{lex, TokKind, Token};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (stable, kebab-case).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number of the offending site.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// One lexed source file plus the derived facts rules share: line table,
/// test-code spans, and per-line comment text.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full file text.
    pub text: String,
    /// Lossless token stream (comments included).
    pub toks: Vec<Token>,
    /// Byte offsets of each line start (index 0 = line 1).
    line_starts: Vec<usize>,
    /// Byte spans of test-gated items: `#[test]` functions and
    /// `#[cfg(test)]`/`#[cfg(any(test, ...))]` items.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex `text` and compute the derived tables.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into();
        let text = text.into();
        let toks = lex(&text);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let test_spans = find_test_spans(&text, &toks);
        SourceFile {
            path,
            text,
            toks,
            line_starts,
            test_spans,
        }
    }

    /// 1-based line number of byte offset `off`.
    pub(crate) fn line_of(&self, off: usize) -> u32 {
        match self.line_starts.binary_search(&off) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// The text of 1-based line `line` (without the newline), or `""`.
    pub(crate) fn line_text(&self, line: u32) -> &str {
        if line == 0 {
            return "";
        }
        let i = (line - 1) as usize;
        let Some(&start) = self.line_starts.get(i) else {
            return "";
        };
        let end = self
            .line_starts
            .get(i + 1)
            .map(|&e| e.saturating_sub(1))
            .unwrap_or(self.text.len());
        &self.text[start..end.max(start)]
    }

    /// True when the whole file is test/bench/example code by location.
    pub(crate) fn is_test_file(&self) -> bool {
        self.path.contains("/tests/")
            || self.path.contains("/benches/")
            || self.path.starts_with("tests/")
            || self.path.starts_with("examples/")
            || self.path.contains("/examples/")
    }

    /// True when byte offset `off` falls inside test-gated code (or the
    /// whole file is test code).
    pub(crate) fn in_test(&self, off: usize) -> bool {
        self.is_test_file()
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| lo <= off && off < hi)
    }

    /// True when line `line` or the line above carries a
    /// `// lint: allow(<kind>, <reason>)` marker with a non-empty reason.
    pub(crate) fn has_allow_marker(&self, line: u32, kind: &str) -> bool {
        if comment_has_marker(self.line_text(line), kind) {
            return true;
        }
        // A marker on the line above only applies if that line is purely a
        // comment — a trailing marker on another code line covers that line,
        // not its neighbours.
        let above = line.saturating_sub(1);
        above != 0
            && self.line_text(above).trim_start().starts_with("//")
            && comment_has_marker(self.line_text(above), kind)
    }

    /// Indices (into `toks`) of non-comment tokens.
    pub(crate) fn code_idx(&self) -> Vec<usize> {
        self.toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect()
    }
}

/// True when `line` contains `lint: allow(<kind>, <non-space...>)` inside
/// a `//` comment.
fn comment_has_marker(line: &str, kind: &str) -> bool {
    let Some(c) = line.find("//") else {
        return false;
    };
    let comment = &line[c..];
    let needle = format!("lint: allow({kind},");
    let Some(p) = comment.find(&needle) else {
        return false;
    };
    let rest = &comment[p + needle.len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    rest[..close].trim() != ""
}

/// Find byte spans of test-gated items: an attribute whose tokens include
/// the identifier `test` (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test,
/// ...))]`) marks the following item, through its closing brace or
/// terminating semicolon, as test code.
fn find_test_spans(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if !(t.kind == TokKind::Punct && t.text(src) == "#") {
            i += 1;
            continue;
        }
        // Item attribute `#[...]` (skip inner `#![...]`).
        let Some(open) = code.get(i + 1) else { break };
        if !(open.kind == TokKind::Punct && open.text(src) == "[") {
            i += 1;
            continue;
        }
        let attr_start = t.lo;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut is_test_attr = false;
        while j < code.len() {
            let u = code[j];
            match (u.kind, u.text(src)) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, "test") => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then span the item body.
        let mut k = j + 1;
        while k + 1 < code.len()
            && code[k].kind == TokKind::Punct
            && code[k].text(src) == "#"
            && code[k + 1].text(src) == "["
        {
            let mut d = 0usize;
            k += 1;
            while k < code.len() {
                match (code[k].kind, code[k].text(src)) {
                    (TokKind::Punct, "[") => d += 1,
                    (TokKind::Punct, "]") => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // Scan the item header to its body: first `{` at delimiter depth 0
        // opens the body (matched to its close); a `;` first ends the item.
        let mut d = 0isize;
        let mut end = src.len();
        while k < code.len() {
            let u = code[k];
            match (u.kind, u.text(src)) {
                (TokKind::Punct, "(") | (TokKind::Punct, "[") => d += 1,
                (TokKind::Punct, ")") | (TokKind::Punct, "]") => d -= 1,
                (TokKind::Punct, ";") if d == 0 => {
                    end = u.hi;
                    break;
                }
                (TokKind::Punct, "{") if d == 0 => {
                    // Body: match braces to the close.
                    let mut bd = 0isize;
                    while k < code.len() {
                        match (code[k].kind, code[k].text(src)) {
                            (TokKind::Punct, "{") => bd += 1,
                            (TokKind::Punct, "}") => {
                                bd -= 1;
                                if bd == 0 {
                                    end = code[k].hi;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((attr_start, end));
        i = j + 1;
    }
    spans
}

/// The lexed workspace: every `.rs` file rules operate on.
pub struct Workspace {
    /// All files, paths workspace-relative.
    pub files: Vec<SourceFile>,
    /// The frozen `benchmark/` package: read only to count uses of public
    /// items; no rule reports findings in it.
    pub benchmark: Vec<SourceFile>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, text)` pairs (fixtures);
    /// paths under `benchmark/` go to [`Workspace::benchmark`].
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let (benchmark, files) = sources
            .into_iter()
            .map(|(p, t)| SourceFile::new(p, t))
            .partition(|f| f.path.starts_with("benchmark/"));
        Workspace { files, benchmark }
    }

    /// Walk `root` and lex every `.rs` file under `crates/`, `vendor/`,
    /// `tests/`, and `examples/`, skipping build output and the lint
    /// fixture corpus (which contains known-bad snippets on purpose), plus
    /// `benchmark/` into [`Workspace::benchmark`].
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut ws = Workspace::load_dirs(root, &["crates", "vendor", "tests", "examples"])?;
        ws.benchmark = Workspace::load_dirs(root, &["benchmark"])?.files;
        Ok(ws)
    }

    /// [`Workspace::load`] over the given top-level directories (the size
    /// ledger also counts the standalone `benchmark/` package, which the
    /// rules do not patrol).
    pub(crate) fn load_dirs(root: &Path, tops: &[&str]) -> io::Result<Workspace> {
        let mut files = Vec::new();
        for top in tops {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(&dir, root, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace {
            files,
            benchmark: Vec::new(),
        })
    }

    /// File by exact workspace-relative path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Run every rule; findings sorted by path then line.
    pub fn check(&self) -> Vec<Finding> {
        let mut out: Vec<Finding> = rules::RULES.iter().flat_map(|rule| rule(self)).collect();
        out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        out
    }
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_path(&path, root);
            let text = fs::read_to_string(&path)?;
            out.push(SourceFile::new(rel, text));
        }
    }
    Ok(())
}

fn rel_path(path: &Path, root: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_modules_and_test_fns() {
        let src = "\
fn live() { x.unwrap(); }

#[test]
fn unit() { y.unwrap(); }

#[cfg(test)]
mod tests {
    fn helper() { z.unwrap(); }
}

fn also_live() {}
";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        let live = src.find("x.unwrap").unwrap();
        let unit = src.find("y.unwrap").unwrap();
        let in_mod = src.find("z.unwrap").unwrap();
        let tail = src.find("also_live").unwrap();
        assert!(!f.in_test(live));
        assert!(f.in_test(unit));
        assert!(f.in_test(in_mod));
        assert!(!f.in_test(tail));
    }

    #[test]
    fn markers_require_reasons() {
        let f = SourceFile::new(
            "x.rs",
            "a(); // lint: allow(relaxed, diagnostic counter)\nb(); // lint: allow(relaxed,)\n",
        );
        assert!(f.has_allow_marker(1, "relaxed"));
        assert!(!f.has_allow_marker(2, "relaxed"), "empty reason rejected");
    }

    #[test]
    fn marker_on_preceding_line_counts() {
        let f = SourceFile::new(
            "x.rs",
            "// lint: allow(relaxed, diagnostic counter)\nc.load(Ordering::Relaxed);\n",
        );
        assert!(f.has_allow_marker(2, "relaxed"));
        assert!(!f.has_allow_marker(2, "pub-unused"));
    }
}
