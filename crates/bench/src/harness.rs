//! The micro-bench harness: one timing protocol, one result shape, one
//! table and one JSON writer for every suite of `benches/micro`.
//!
//! A suite fills a [`Suite`] case by case. Everything a case records —
//! labels, facts, timed variants, ratios — is keyed by name, and a name
//! used twice or a ratio over a variant that was never timed panics where
//! it is registered, so no number can land in another's field.

use crate::table::TableWriter;
use hillview_columnar::simd;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Every variant first runs untimed for this long (at least once).
pub const WARMUP: Duration = Duration::from_millis(300);
/// Timed calls per variant; each call is one sample.
pub const SAMPLES: usize = 20;

/// One registered suite: `name` is the positional argument that selects
/// it and the `<name>` of its `BENCH_<name>.json`.
pub struct Registered {
    /// Suite name.
    pub name: &'static str,
    /// What the suite measures and what it asserts before timing.
    pub about: &'static str,
    /// Fills the suite: builds inputs, asserts, times.
    pub run: fn(&mut Suite),
}

/// Entry point of the `micro` bench target: run the suites named by the
/// positional arguments (all of them when none is named), print each
/// one's table and rewrite its `BENCH_<suite>.json`.
pub fn main(registry: &[Registered]) {
    // `cargo bench` appends `--bench` to every bench binary's arguments.
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| registry.iter().all(|r| r.name != w.as_str()))
    {
        let known: Vec<&str> = registry.iter().map(|r| r.name).collect();
        eprintln!("unknown suite `{unknown}`; suites: {}", known.join(" "));
        std::process::exit(2);
    }
    let envelope = envelope();
    for entry in registry {
        if wanted.is_empty() || wanted.iter().any(|w| w == entry.name) {
            let mut suite = Suite::new(entry.name, entry.about);
            (entry.run)(&mut suite);
            println!("\n## {} — {}\n", suite.name, suite.about);
            suite.table().print();
            std::fs::write(bench_json_path(entry.name), suite.to_json(&envelope))
                .expect("write the suite's JSON");
            println!("wrote BENCH_{}.json", entry.name);
        }
    }
}

/// Cores this process may run on: the ceiling of any parallel speed-up a
/// number recorded here can show.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `BENCH_<suite>.json` at the repository root (two levels above this
/// crate's manifest).
pub fn bench_json_path(suite: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{suite}.json"))
}

/// SplitMix64 of `i`: the stateless form of the workspace's one generator
/// (`SmallRng` seeded with `i`, first output), so a shard can generate its
/// slice of a shuffled column by global row index.
pub fn mix(i: u64) -> u64 {
    SmallRng::seed_from_u64(i).gen()
}

/// Run `f` under the forced-scalar codegen (the suites' simd ≡ scalar
/// gates; timings go through [`Case::time_scalar`]). A `Drop` guard puts
/// the previous setting back, on return or unwind.
pub fn forced_scalar<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::set_force_scalar(self.0);
        }
    }
    let _restore = Restore(simd::force_scalar());
    simd::set_force_scalar(true);
    f()
}

/// Where and from what a run was recorded: the envelope lines every suite
/// of the run shares, named as `benchmark/` names them.
fn envelope() -> String {
    format!(
        "  \"host_cores\": {},\n  \"simd_active\": {},\n  \"rustc\": {},\n  \
         \"git_revision\": {},\n  \"samples\": {SAMPLES},\n",
        host_cores(),
        simd::active(),
        quote(env!("HILLVIEW_BENCH_RUSTC")),
        quote(&git_revision())
    )
}

/// `HEAD`, with `+dirty` when the work tree differs from it in anything
/// but the `BENCH_*.json` a run rewrites; `unknown` outside a checkout.
fn git_revision() -> String {
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => match git(&[
            "status",
            "--porcelain",
            "--",
            ":/",
            ":(top,exclude)BENCH_*.json",
        ]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}+dirty"),
        },
        None => "unknown".to_string(),
    }
}

/// Named entries in recording order.
type Named<T> = Vec<(String, T)>;

/// The results of one suite.
pub struct Suite {
    name: String,
    about: String,
    cases: Vec<Case>,
}

/// One named case: what was measured on one input.
#[derive(Default)]
pub struct Case {
    name: String,
    labels: Named<String>,
    facts: Named<f64>,
    /// `(median ns, MAD ns)` per variant.
    timings: Named<(u64, u64)>,
    ratios: Named<f64>,
}

/// Append `(name, value)`, refusing a name the list already holds.
fn insert<T>(list: &mut Named<T>, kind: &str, case: &str, name: &str, value: T) {
    assert!(
        list.iter().all(|(n, _)| n != name),
        "duplicate {kind} `{name}` in case `{case}`"
    );
    list.push((name.to_string(), value));
}

impl Suite {
    /// An empty suite.
    pub fn new(name: &str, about: &str) -> Suite {
        Suite {
            name: name.to_string(),
            about: about.to_string(),
            cases: Vec::new(),
        }
    }

    /// Open a new case; panics when the suite already has one of that name.
    pub fn case(&mut self, name: &str) -> &mut Case {
        assert!(
            self.cases.iter().all(|c| c.name != name),
            "duplicate case `{name}` in suite `{}`",
            self.name
        );
        self.cases.push(Case {
            name: name.to_string(),
            ..Case::default()
        });
        self.cases.last_mut().expect("just pushed")
    }

    /// One row per recorded entry, in the order of the JSON fields.
    fn table(&self) -> TableWriter {
        let mut t = TableWriter::new(&["case", "entry", "value"]);
        for case in &self.cases {
            let labels = case.labels.iter().map(|(n, v)| (n, v.clone()));
            let facts = case.facts.iter().map(|(n, v)| (n, num(*v)));
            let timings = case
                .timings
                .iter()
                .map(|(n, (median, mad))| (n, format!("{median} ns ± {mad}")));
            let ratios = case.ratios.iter().map(|(n, v)| (n, format!("{v:.2}x")));
            let entries = labels.chain(facts).chain(timings).chain(ratios);
            for (i, (entry, value)) in entries.enumerate() {
                let head = if i == 0 { case.name.as_str() } else { "" };
                t.row(&[head.to_string(), entry.clone(), value]);
            }
        }
        t
    }

    /// The suite's `BENCH_<suite>.json` text: the envelope, then one
    /// object per case.
    fn to_json(&self, envelope: &str) -> String {
        let cases: Vec<String> = self
            .cases
            .iter()
            .map(|case| {
                format!(
                    "    {{\"name\": {}, \"labels\": {}, \"facts\": {}, \"median_ns\": {}, \
                     \"mad_ns\": {}, \"ratios\": {}}}",
                    quote(&case.name),
                    object(&case.labels, |v| quote(v)),
                    object(&case.facts, |v| num(*v)),
                    object(&case.timings, |(median, _)| median.to_string()),
                    object(&case.timings, |(_, mad)| mad.to_string()),
                    object(&case.ratios, |v| num(*v)),
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": 1,\n  \"suite\": {},\n  \"about\": {},\n{envelope}  \
             \"cases\": [\n{}\n  ]\n}}\n",
            quote(&self.name),
            quote(&self.about),
            cases.join(",\n")
        )
    }
}

impl Case {
    /// Record a descriptive string (an encoding, a residency mode).
    pub fn label(&mut self, name: &str, value: impl ToString) -> &mut Case {
        let value = value.to_string();
        insert(&mut self.labels, "label", &self.name, name, value);
        self
    }

    /// Record a number that is not a median of this harness's samples: a
    /// byte count, a selectivity, a counter, a one-shot cold time.
    pub fn fact(&mut self, name: &str, value: f64) -> &mut Case {
        let case = &self.name;
        assert!(
            value.is_finite(),
            "fact `{name}` in case `{case}` is {value}"
        );
        insert(&mut self.facts, "fact", case, name, value);
        self
    }

    /// Time `f` under runtime dispatch: [`WARMUP`] of untimed calls, then
    /// [`SAMPLES`] timed ones; records their upper median and MAD.
    pub fn time<O>(&mut self, variant: &str, mut f: impl FnMut() -> O) -> &mut Case {
        // Claim the name before paying for the measurement.
        insert(&mut self.timings, "variant", &self.name, variant, (0, 0));
        let warm = Instant::now();
        loop {
            black_box(f());
            if warm.elapsed() >= WARMUP {
                break;
            }
        }
        let mut samples: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                let out = f();
                let ns = t.elapsed().as_nanos() as u64;
                black_box(out);
                ns
            })
            .collect();
        let stats = median_and_mad(&mut samples);
        eprintln!("{}/{variant}: {} ns ± {}", self.name, stats.0, stats.1);
        self.timings.last_mut().expect("just claimed").1 = stats;
        self
    }

    /// [`Case::time`] with the scalar codegen pinned for the duration.
    pub fn time_scalar<O>(&mut self, variant: &str, f: impl FnMut() -> O) -> &mut Case {
        forced_scalar(move || self.time(variant, f))
    }

    /// The recorded median of `variant`; panics when it was never timed.
    pub fn median_ns(&self, variant: &str) -> u64 {
        match self.timings.iter().find(|(n, _)| n == variant) {
            Some((_, (median, _))) => *median,
            None => panic!("no variant `{variant}` in case `{}`", self.name),
        }
    }

    /// Record `median(numerator) / median(denominator)`.
    pub fn ratio(&mut self, name: &str, numerator: &str, denominator: &str) -> &mut Case {
        let value = self.median_ns(numerator) as f64 / self.median_ns(denominator).max(1) as f64;
        insert(&mut self.ratios, "ratio", &self.name, name, value);
        self
    }
}

/// Upper median and median absolute deviation (also the upper one) of a
/// non-empty sample; sorts `samples`.
fn median_and_mad(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let mut deviations: Vec<u64> = samples.iter().map(|s| s.abs_diff(median)).collect();
    deviations.sort_unstable();
    (median, deviations[deviations.len() / 2])
}

/// A JSON number with at most four decimals.
fn num(x: f64) -> String {
    format!("{}", (x * 1e4).round() / 1e4)
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// A one-line JSON object over named entries, in recording order.
fn object<T>(entries: &Named<T>, value: impl Fn(&T) -> String) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(name, v)| format!("{}: {}", quote(name), value(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_upper_one_and_mad_follows_it() {
        assert_eq!(median_and_mad(&mut [100, 1, 3, 2, 4]), (3, 1));
        assert_eq!(median_and_mad(&mut [4, 1, 3, 2]), (3, 1));
        assert_eq!(median_and_mad(&mut [7]), (7, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate case `a` in suite `s`")]
    fn duplicate_case_panics() {
        let mut s = Suite::new("s", "");
        s.case("a");
        s.case("a");
    }

    #[test]
    #[should_panic(expected = "duplicate variant `v` in case `a`")]
    fn duplicate_variant_panics_before_it_is_timed() {
        let mut s = Suite::new("s", "");
        let case = s.case("a");
        case.timings.push(("v".to_string(), (1, 0)));
        case.time("v", || -> u8 {
            unreachable!("a taken name is never measured")
        });
    }

    #[test]
    #[should_panic(expected = "no variant `missing` in case `a`")]
    fn ratio_over_an_unknown_variant_panics() {
        let mut s = Suite::new("s", "");
        let case = s.case("a");
        case.timings.push(("v".to_string(), (1, 0)));
        case.ratio("r", "v", "missing");
    }

    #[test]
    fn scalar_guard_is_released_by_a_panic() {
        let before = simd::active();
        let caught = std::panic::catch_unwind(|| {
            forced_scalar(|| {
                assert!(simd::force_scalar() && !simd::active());
                panic!("mid-measurement");
            })
        });
        assert!(caught.is_err());
        assert!(!simd::force_scalar());
        assert_eq!(simd::active(), before);
    }

    #[test]
    fn json_escapes_strings_and_is_byte_stable() {
        let mut s = Suite::new("demo", "says \"hi\"");
        let case = s.case("c1");
        case.label("path", "a\\b \"q\"").fact("rows", 1e6);
        case.fact("share", 0.123456);
        case.timings.push(("fast".to_string(), (100, 3)));
        case.timings.push(("slow".to_string(), (250, 7)));
        case.ratio("speedup", "slow", "fast");
        s.case("empty");
        let env = "  \"host_cores\": 2,\n  \"samples\": 20,\n";
        let want = r#"{
  "schema": 1,
  "suite": "demo",
  "about": "says \"hi\"",
  "host_cores": 2,
  "samples": 20,
  "cases": [
    {"name": "c1", "labels": {"path": "a\\b \"q\""}, "facts": {"rows": 1000000, "share": 0.1235}, "median_ns": {"fast": 100, "slow": 250}, "mad_ns": {"fast": 3, "slow": 7}, "ratios": {"speedup": 2.5}},
    {"name": "empty", "labels": {}, "facts": {}, "median_ns": {}, "mad_ns": {}, "ratios": {}}
  ]
}
"#;
        assert_eq!(s.to_json(env), want);
        assert_eq!(s.to_json(env), want, "a second rendering differs");
        let real = envelope();
        for field in "host_cores simd_active rustc git_revision samples".split(' ') {
            assert!(real.contains(&format!("  \"{field}\": ")), "{field}");
        }
        assert_eq!(s.table().render().lines().count(), 2 + 6);
    }
}
