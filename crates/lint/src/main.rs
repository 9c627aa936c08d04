//! `hillview-lint` — the workspace invariant checker CLI.
//!
//! Usage: `cargo run -p hillview-lint -- <check | stats --json> [--root <path>]`
//!
//! `check` exits 0 when the tree satisfies every invariant, 1 with one
//! line per finding otherwise (2 for usage/IO errors); see the library
//! docs for the rule table and the `// lint: allow(...)` marker grammar.
//! `stats --json` prints the size ledger committed as `SIZE.json` (JSON is
//! its only format; the flag says so at the call site).

use hillview_lint::{rules, stats, Workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: hillview-lint <check | stats --json> [--root <path>]";

fn find_workspace_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut command = None;
    let mut root = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "check" => command = Some("check"),
            "stats" => command = Some("stats"),
            "--json" if command == Some("stats") => {}
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`; {USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| std::env::current_dir().ok().and_then(find_workspace_root));
    let Some(root) = root else {
        eprintln!("no workspace root found (no ancestor Cargo.toml with [workspace]); use --root");
        return ExitCode::from(2);
    };
    match command {
        Some("check") => check(&root),
        Some("stats") => match stats::collect(&root) {
            Ok(units) => {
                print!("{}", stats::to_json(&units));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to read workspace under {}: {e}", root.display());
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(root: &Path) -> ExitCode {
    let ws = match Workspace::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("failed to read workspace under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if ws.files.is_empty() {
        // A clean bill of health over zero files is a misconfiguration
        // (wrong --root, wrong CI working directory), not a pass.
        eprintln!(
            "no .rs sources found under {}; wrong --root?",
            root.display()
        );
        return ExitCode::from(2);
    }
    let findings = ws.check();
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!(
            "hillview-lint: {} files clean across {} rules",
            ws.files.len(),
            rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("hillview-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
