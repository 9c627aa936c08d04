//! The seven invariant rules. Each is a pure function of the lexed
//! [`Workspace`] returning [`Finding`]s; see the crate docs for the rule
//! table and the marker grammar.

use crate::lexer::{TokKind, Token};
use crate::{Finding, SourceFile, Workspace};

/// Files whose `Ordering::Relaxed` uses are all monotonic diagnostic
/// counters with no load/store pairing — the explicit allowlist of the
/// `relaxed-ordering` rule. Every `Relaxed` anywhere else needs a
/// `// lint: allow(relaxed, reason)` marker at the site.
pub const RELAXED_COUNTER_FILES: &[&str] = &["crates/net/src/metrics.rs"];

/// Crates whose non-test code must not contain panicking calls without a
/// `// lint: allow(panic, reason)` marker (PR 6 contract: panics never
/// kill the query tree, so core/net code paths return structured errors).
pub const PANIC_FREE_PREFIXES: &[&str] = &["crates/core/src/", "crates/net/src/"];

/// The forced-scalar equivalence suites a `tier_dispatch!` entry must
/// appear in by name: any file under a `tests/` directory that calls
/// `set_force_scalar`.
fn is_forced_scalar_suite(f: &SourceFile) -> bool {
    f.path.contains("/tests/") && f.text.contains("set_force_scalar")
}

fn finding(rule: &'static str, f: &SourceFile, off: usize, msg: String) -> Finding {
    Finding {
        rule,
        path: f.path.clone(),
        line: f.line_of(off),
        msg,
    }
}

// ---------------------------------------------------------------------------
// Rule: safety-comment
// ---------------------------------------------------------------------------

/// Every `unsafe` token introducing a block, fn, or impl must be
/// immediately preceded by a comment block containing `SAFETY` (attribute
/// lines may sit between the comment and the item). Doc `# Safety`
/// sections directly above an `unsafe fn` count.
pub fn rule_safety_comment(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        for t in &f.toks {
            if t.kind != TokKind::Ident || t.text(&f.text) != "unsafe" {
                continue;
            }
            if !preceded_by_safety_comment(f, t) {
                out.push(finding(
                    "safety-comment",
                    f,
                    t.lo,
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
                ));
            }
        }
    }
    out
}

fn preceded_by_safety_comment(f: &SourceFile, t: &Token) -> bool {
    let mut line = f.line_of(t.lo);
    // Walk upward: skip single-line attributes, then require a contiguous
    // comment block; any line of it must mention SAFETY.
    loop {
        if line <= 1 {
            return false;
        }
        line -= 1;
        let text = f.line_text(line).trim();
        if text.starts_with("#[") || text.starts_with("#![") {
            continue;
        }
        if !(text.starts_with("//") || text.starts_with("*") || text.starts_with("/*")) {
            return false;
        }
        // Contiguous comment block above the item.
        let mut l = line;
        loop {
            let ct = f.line_text(l).trim();
            if !(ct.starts_with("//") || ct.starts_with('*') || ct.starts_with("/*")) {
                return false;
            }
            if ct.to_uppercase().contains("SAFETY") {
                return true;
            }
            if l == 1 {
                return false;
            }
            l -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-site
// ---------------------------------------------------------------------------

/// No `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` in non-test code under [`PANIC_FREE_PREFIXES`],
/// except sites carrying a `// lint: allow(panic, reason)` marker.
pub fn rule_panic_site(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !PANIC_FREE_PREFIXES.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        let idx = f.code_idx();
        for (k, &i) in idx.iter().enumerate() {
            let t = &f.toks[i];
            if t.kind != TokKind::Ident || f.in_test(t.lo) {
                continue;
            }
            let name = t.text(&f.text);
            let prev = k
                .checked_sub(1)
                .map(|p| f.toks[idx[p]].text(&f.text))
                .unwrap_or("");
            let next = idx
                .get(k + 1)
                .map(|&n| f.toks[n].text(&f.text))
                .unwrap_or("");
            let hit = match name {
                "unwrap" | "expect" => prev == "." && next == "(",
                "panic" | "unreachable" | "todo" | "unimplemented" => next == "!",
                _ => false,
            };
            if !hit {
                continue;
            }
            if f.has_allow_marker(f.line_of(t.lo), "panic") {
                continue;
            }
            let spelled = if next == "!" {
                format!("{name}!")
            } else {
                format!(".{name}()")
            };
            out.push(finding(
                "panic-site",
                f,
                t.lo,
                format!(
                    "`{spelled}` in non-test {} code; return a structured error or add \
                     `// lint: allow(panic, reason)`",
                    &f.path[..f.path.find("/src/").unwrap_or(0)]
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: simd-registry
// ---------------------------------------------------------------------------

/// Every `tier_dispatch!` invocation in `crates/columnar/src/simd.rs`
/// must (a) name a scalar body `fn` defined in the same file and (b) have
/// its entry function referenced by name in at least one forced-scalar
/// equivalence suite (a `tests/` file calling `set_force_scalar`), so a
/// new SIMD primitive cannot ship without a byte-equality test pinning
/// its scalar fallback.
pub fn rule_simd_registry(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(f) = ws.file("crates/columnar/src/simd.rs") else {
        return out;
    };
    let idx = f.code_idx();
    let texts: Vec<&str> = idx.iter().map(|&i| f.toks[i].text(&f.text)).collect();
    for k in 0..texts.len() {
        if !(texts[k] == "tier_dispatch" && texts.get(k + 1) == Some(&"!")) {
            continue;
        }
        // Invocation shape: `tier_dispatch! { body => avx2, avx512; ... fn entry ... }`
        let Some(body_k) = (k + 2..texts.len()).find(|&j| f.toks[idx[j]].kind == TokKind::Ident)
        else {
            continue;
        };
        let body = texts[body_k];
        let entry_k = (body_k..texts.len())
            .find(|&j| texts[j] == "fn")
            .and_then(|j| {
                (j + 1..texts.len()).find(|&m| f.toks[idx[m]].kind == TokKind::Ident && m == j + 1)
            });
        let Some(entry_k) = entry_k else { continue };
        let entry = texts[entry_k];
        let site = f.toks[idx[k]].lo;
        let body_defined = (0..texts.len())
            .any(|j| texts[j] == "fn" && texts.get(j + 1) == Some(&body) && j + 1 != body_k);
        if !body_defined {
            out.push(finding(
                "simd-registry",
                f,
                site,
                format!("tier_dispatch! entry `{entry}`: scalar body `{body}` is not defined"),
            ));
        }
        let covered = ws.files.iter().any(|tf| {
            is_forced_scalar_suite(tf)
                && tf
                    .toks
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text(&tf.text) == entry)
        });
        if !covered {
            out.push(finding(
                "simd-registry",
                f,
                site,
                format!(
                    "tier_dispatch! entry `{entry}` appears in no forced-scalar equivalence \
                     test (a tests/ file calling set_force_scalar)"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: sketch-registry
// ---------------------------------------------------------------------------

/// Every `impl Sketch for T` in `crates/sketch/src` must appear in all
/// three kernel equivalence suites and in the decoder suite, so a new
/// kernel cannot ship half-tested: `fused_equivalence` (fused ≡ two-pass ≡
/// rowwise), `scan_equivalence` (chunked ≡ rowwise across encodings),
/// `merge_laws` (merge associativity/commutativity/split laws), and
/// `wire_totality` (its summary's decoder is total and canonical).
pub fn rule_sketch_registry(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let suites = [
        "crates/sketch/tests/fused_equivalence.rs",
        "crates/sketch/tests/scan_equivalence.rs",
        "crates/sketch/tests/merge_laws.rs",
        "crates/sketch/tests/wire_totality.rs",
    ];
    for f in &ws.files {
        if !f.path.starts_with("crates/sketch/src/") {
            continue;
        }
        let idx = f.code_idx();
        let texts: Vec<&str> = idx.iter().map(|&i| f.toks[i].text(&f.text)).collect();
        for k in 0..texts.len() {
            if !(texts[k] == "impl"
                && texts.get(k + 1) == Some(&"Sketch")
                && texts.get(k + 2) == Some(&"for"))
            {
                continue;
            }
            let Some(&ty) = texts.get(k + 3) else {
                continue;
            };
            let site = f.toks[idx[k]].lo;
            for suite in suites {
                let present = ws.file(suite).is_some_and(|sf| {
                    sf.toks
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text(&sf.text) == ty)
                });
                if !present {
                    let name = suite.rsplit('/').next().unwrap_or(suite);
                    out.push(finding(
                        "sketch-registry",
                        f,
                        site,
                        format!("`{ty}` implements Sketch but is missing from {name}"),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: temp-dir
// ---------------------------------------------------------------------------

/// The one file allowed to call `std::env::temp_dir()`: the shared
/// `hillview_columnar::TempDir` helper.
pub const TEMP_DIR_HELPER: &str = "crates/columnar/src/tempdir.rs";

/// No `temp_dir` identifier in first-party code — tests, benches and
/// examples included, since that is where scratch paths are made — outside
/// [`TEMP_DIR_HELPER`]. A hand-rolled path is shared by every test that
/// picks the same name and outlives the run; the helper's are unique per
/// use and removed on drop. Vendored shims cannot depend on the helper and
/// are not patrolled.
pub fn rule_temp_dir(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if f.path.starts_with("vendor/") || f.path == TEMP_DIR_HELPER {
            continue;
        }
        for t in &f.toks {
            if t.kind == TokKind::Ident && t.text(&f.text) == "temp_dir" {
                out.push(finding(
                    "temp-dir",
                    f,
                    t.lo,
                    "bare `temp_dir()`; take scratch space from `hillview_columnar::TempDir` \
                     (unique per use, removed on drop)"
                        .to_string(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: relaxed-ordering
// ---------------------------------------------------------------------------

/// `Ordering::Relaxed` is confined to the counters allowlist
/// ([`RELAXED_COUNTER_FILES`]); every other non-test site must carry a
/// `// lint: allow(relaxed, reason)` marker justifying why no
/// acquire/release pairing is needed.
pub fn rule_relaxed_ordering(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if RELAXED_COUNTER_FILES.contains(&f.path.as_str()) {
            continue;
        }
        let idx = f.code_idx();
        for (k, &i) in idx.iter().enumerate() {
            let t = &f.toks[i];
            if t.kind != TokKind::Ident || t.text(&f.text) != "Relaxed" || f.in_test(t.lo) {
                continue;
            }
            let prev = k
                .checked_sub(1)
                .map(|p| f.toks[idx[p]].text(&f.text))
                .unwrap_or("");
            if prev != ":" {
                continue; // not a path segment (e.g. an enum variant decl)
            }
            if f.has_allow_marker(f.line_of(t.lo), "relaxed") {
                continue;
            }
            out.push(finding(
                "relaxed-ordering",
                f,
                t.lo,
                "Ordering::Relaxed outside the counters allowlist; justify with \
                 `// lint: allow(relaxed, reason)` or use an acquire/release pairing"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: error-classified
// ---------------------------------------------------------------------------

/// Every variant of `EngineError` must be named in `is_retryable()`, and
/// the classification match must have no wildcard arm — adding a variant
/// without deciding its retry semantics is a lint failure (and, with the
/// wildcard gone, a compile failure too).
pub fn rule_error_classified(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(f) = ws.file("crates/core/src/error.rs") else {
        return out;
    };
    let idx = f.code_idx();
    let texts: Vec<&str> = idx.iter().map(|&i| f.toks[i].text(&f.text)).collect();
    let Some(enum_k) =
        (0..texts.len()).find(|&k| texts[k] == "enum" && texts.get(k + 1) == Some(&"EngineError"))
    else {
        return out;
    };
    // Collect variant names: idents at brace depth 1 directly after `{`
    // or `,` (attributes skipped).
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut k = enum_k + 2;
    let mut depth = 0isize;
    let mut expect_variant = false;
    while k < texts.len() {
        match texts[k] {
            "{" => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
            }
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" if depth == 1 && texts.get(k + 1) == Some(&"[") => {
                // Skip the attribute tokens.
                let mut d = 0isize;
                k += 1;
                while k < texts.len() {
                    match texts[k] {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            t if depth == 1 && expect_variant && f.toks[idx[k]].kind == TokKind::Ident => {
                variants.push((t.to_string(), f.toks[idx[k]].lo));
                expect_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    // Locate the is_retryable body.
    let Some(fn_k) =
        (0..texts.len()).find(|&k| texts[k] == "fn" && texts.get(k + 1) == Some(&"is_retryable"))
    else {
        out.push(Finding {
            rule: "error-classified",
            path: f.path.clone(),
            line: 1,
            msg: "EngineError has no is_retryable() classifier".to_string(),
        });
        return out;
    };
    let Some(body_open) = (fn_k..texts.len()).find(|&k| texts[k] == "{") else {
        return out;
    };
    let mut body_close = texts.len();
    let mut d = 0isize;
    for (k, &t) in texts.iter().enumerate().skip(body_open) {
        match t {
            "{" => d += 1,
            "}" => {
                d -= 1;
                if d == 0 {
                    body_close = k;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &texts[body_open..body_close];
    for (v, off) in &variants {
        if !body.contains(&v.as_str()) {
            out.push(finding(
                "error-classified",
                f,
                *off,
                format!("EngineError::{v} is not classified in is_retryable()"),
            ));
        }
    }
    for k in body_open..body_close {
        if texts[k] == "_" && texts.get(k + 1) == Some(&"=") && texts.get(k + 2) == Some(&">") {
            out.push(finding(
                "error-classified",
                f,
                f.toks[idx[k]].lo,
                "is_retryable() has a wildcard arm; every variant must be classified \
                 explicitly so new variants fail to compile until classified"
                    .to_string(),
            ));
        }
    }
    out
}
