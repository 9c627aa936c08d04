//! The `BENCH_*.json` files at the repository root are exactly what one
//! `cargo bench --bench micro` writes: one per registered suite, in the
//! harness's envelope, none left over from a target that no longer exists.

use hillview_bench::harness::bench_json_path;

// The registry lives with the bench target; only its names are read here.
#[allow(dead_code)]
#[path = "../benches/micro/main.rs"]
mod micro;

#[test]
fn committed_bench_files_are_the_registered_suites() {
    let root = bench_json_path("any");
    let mut found: Vec<String> = std::fs::read_dir(root.parent().unwrap())
        .unwrap()
        .filter_map(|entry| {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let suite = file.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some(suite.to_string())
        })
        .collect();
    found.sort();
    let mut registered: Vec<&str> = micro::SUITES.iter().map(|s| s.name).collect();
    registered.sort();
    assert_eq!(found, registered);
    for suite in registered {
        let text = std::fs::read_to_string(bench_json_path(suite)).unwrap();
        let head = format!("{{\n  \"schema\": 1,\n  \"suite\": \"{suite}\",\n");
        assert!(text.starts_with(&head), "BENCH_{suite}.json: {text:.60}");
        for retired in ["simd_available", "cargo_features"] {
            assert!(!text.contains(retired), "BENCH_{suite}.json: {retired}");
        }
    }
}
