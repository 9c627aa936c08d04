//! Fixture tests (each rule fires on its bad corpus, stays silent on its
//! good corpus) plus the live-tree self-check that holds the real
//! workspace to every invariant.

use hillview_lint::{Finding, Workspace};

/// Build a virtual workspace and run every rule.
fn check(sources: &[(&str, &str)]) -> Vec<Finding> {
    Workspace::from_sources(
        sources
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect(),
    )
    .check()
}

/// Findings restricted to one rule id.
fn of_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

fn assert_clean(findings: &[Finding]) {
    assert!(
        findings.is_empty(),
        "expected clean, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn safety_comment_fires_and_clears() {
    let bad = check(&[(
        "crates/columnar/src/fix.rs",
        include_str!("fixtures/safety_comment/bad.rs"),
    )]);
    assert_eq!(of_rule(&bad, "safety-comment").len(), 1, "{bad:?}");
    let good = check(&[(
        "crates/columnar/src/fix.rs",
        include_str!("fixtures/safety_comment/good.rs"),
    )]);
    assert_clean(&good);
}

#[test]
fn panic_site_fires_and_clears() {
    let bad = check(&[(
        "crates/core/src/fix.rs",
        include_str!("fixtures/panic_site/bad.rs"),
    )]);
    assert_eq!(of_rule(&bad, "panic-site").len(), 3, "{bad:?}");
    let good = check(&[(
        "crates/net/src/fix.rs",
        include_str!("fixtures/panic_site/good.rs"),
    )]);
    assert_clean(&good);
    // The rule only patrols core and net: the same panicky source is fine
    // in, say, the viz crate.
    let elsewhere = check(&[(
        "crates/viz/src/fix.rs",
        include_str!("fixtures/panic_site/bad.rs"),
    )]);
    assert_clean(&elsewhere);
}

#[test]
fn simd_registry_fires_and_clears() {
    let bad = check(&[(
        "crates/columnar/src/simd.rs",
        include_str!("fixtures/simd_registry/bad.rs"),
    )]);
    let hits = of_rule(&bad, "simd-registry");
    assert_eq!(hits.len(), 2, "{bad:?}");
    assert!(hits[0].msg.contains("missing_scalar") || hits[1].msg.contains("missing_scalar"));
    let good = check(&[
        (
            "crates/columnar/src/simd.rs",
            include_str!("fixtures/simd_registry/good.rs"),
        ),
        (
            "crates/columnar/tests/forced.rs",
            "#[test]\nfn equivalence() { set_force_scalar(true); covered_entry(&[]); }\n",
        ),
    ]);
    assert_clean(&good);
}

#[test]
fn sketch_registry_fires_and_clears() {
    let bad = check(&[(
        "crates/sketch/src/fix.rs",
        include_str!("fixtures/sketch_registry/bad.rs"),
    )]);
    assert_eq!(of_rule(&bad, "sketch-registry").len(), 4, "{bad:?}");
    let good = check(&[
        (
            "crates/sketch/src/fix.rs",
            include_str!("fixtures/sketch_registry/good.rs"),
        ),
        (
            "crates/sketch/tests/fused_equivalence.rs",
            "fn law() { CoveredSketch; }\n",
        ),
        (
            "crates/sketch/tests/scan_equivalence.rs",
            "fn law() { CoveredSketch; }\n",
        ),
        (
            "crates/sketch/tests/merge_laws.rs",
            "fn law() { CoveredSketch; }\n",
        ),
        (
            "crates/sketch/tests/wire_totality.rs",
            "fn total() { CoveredSketch; }\n",
        ),
    ]);
    assert_clean(&good);
}

#[test]
fn temp_dir_fires_and_clears() {
    let bad = check(&[(
        "crates/storage/tests/fix.rs",
        include_str!("fixtures/temp_dir/bad.rs"),
    )]);
    assert_eq!(of_rule(&bad, "temp-dir").len(), 1, "{bad:?}");
    let good = check(&[(
        "crates/storage/tests/fix.rs",
        include_str!("fixtures/temp_dir/good.rs"),
    )]);
    assert_clean(&good);
    // The helper itself is the one place allowed to name the system dir,
    // and vendored shims (which cannot depend on it) are not patrolled.
    for exempt in [
        "crates/columnar/src/tempdir.rs",
        "vendor/proptest/src/lib.rs",
    ] {
        assert_clean(&check(&[(
            exempt,
            include_str!("fixtures/temp_dir/bad.rs"),
        )]));
    }
}

#[test]
fn relaxed_ordering_fires_and_clears() {
    let bad = check(&[(
        "crates/core/src/fix.rs",
        include_str!("fixtures/relaxed_ordering/bad.rs"),
    )]);
    assert_eq!(of_rule(&bad, "relaxed-ordering").len(), 1, "{bad:?}");
    let good = check(&[(
        "crates/core/src/fix.rs",
        include_str!("fixtures/relaxed_ordering/good.rs"),
    )]);
    assert_clean(&good);
    // The counters allowlist file needs no markers.
    let allowlisted = check(&[(
        "crates/net/src/metrics.rs",
        include_str!("fixtures/relaxed_ordering/bad.rs"),
    )]);
    assert_clean(&allowlisted);
}

#[test]
fn error_classified_fires_and_clears() {
    let bad = check(&[(
        "crates/core/src/error.rs",
        include_str!("fixtures/error_classified/bad.rs"),
    )]);
    let hits = of_rule(&bad, "error-classified");
    assert_eq!(hits.len(), 2, "{bad:?}");
    assert!(hits.iter().any(|f| f.msg.contains("Beta")));
    assert!(hits.iter().any(|f| f.msg.contains("wildcard")));
    let good = check(&[(
        "crates/core/src/error.rs",
        include_str!("fixtures/error_classified/good.rs"),
    )]);
    assert_clean(&good);
}

#[test]
fn pub_unused_fires_and_clears() {
    let bad = check(&[
        (
            "crates/alpha/src/lib.rs",
            include_str!("fixtures/pub_unused/bad.rs"),
        ),
        (
            "crates/beta/src/lib.rs",
            "// Calls in_comment() elsewhere.\nfn f() -> &'static str { \"in_string\" }\n",
        ),
    ]);
    let hits = of_rule(&bad, "pub-unused");
    assert_eq!(hits.len(), 4, "{bad:?}");
    for name in ["only_here", "in_comment", "in_string", "empty_reason"] {
        assert!(
            hits.iter().any(|f| f.msg.contains(&format!("fn {name}`"))),
            "{name}"
        );
    }
    let good = check(&[
        (
            "crates/alpha/src/lib.rs",
            include_str!("fixtures/pub_unused/good.rs"),
        ),
        ("crates/beta/src/lib.rs", "fn f() { used_by_beta(); }\n"),
        ("crates/alpha/tests/t.rs", "fn t() { used_by_tests(); }\n"),
        ("examples/e.rs", "fn main() { used_by_examples(); }\n"),
        (
            "benchmark/src/main.rs",
            "fn main() { drop(used_by_benchmark()); }\n",
        ),
        // The benchmark package is read for uses, never patrolled.
        ("benchmark/src/lib.rs", "pub fn nobody_calls_this() {}\n"),
    ]);
    assert_clean(&good);
    // A binary target is a crate of its own: its calls count as outside.
    let bin = check(&[
        ("crates/alpha/src/lib.rs", "pub fn run() {}\n"),
        ("crates/alpha/src/main.rs", "fn main() { run(); }\n"),
    ]);
    assert_clean(&bin);
}

/// The real workspace passes every rule. This is the same check CI runs
/// via `cargo run -p hillview-lint -- check`, pinned here so plain
/// `cargo test` catches regressions too.
#[test]
fn live_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint");
    let ws = Workspace::load(root).expect("walk workspace sources");
    assert!(
        ws.files.len() > 100,
        "workspace walk looks truncated: {} files",
        ws.files.len()
    );
    let findings = ws.check();
    assert!(
        findings.is_empty(),
        "live tree has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The size ledger is a pure function of the tree: two runs over the
/// fixture tree give equal bytes, and those bytes are the committed
/// golden file (sorted keys, one unit per line, a `total`).
#[test]
fn stats_are_deterministic_on_a_fixture_tree() {
    use hillview_lint::stats;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stats");
    let run = || stats::to_json(&stats::collect(&root).expect("walk the fixture tree"));
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first, include_str!("fixtures/stats/SIZE.json"));
}
