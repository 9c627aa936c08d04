//! The end-to-end, layer-attributed Hillview benchmark. See `README.md`.

mod check;
mod compare;
mod fixture;
mod json;
mod metrics;
mod ops;
mod probe;
mod recorder;
mod run;
mod stats;
mod tempdir;
mod trace;
mod workloads;

use fixture::BoxError;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  hillview-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  hillview-benchmark run --check
  hillview-benchmark compare OLD.json NEW.json

run      sets up, measures for S seconds per workload (default 10; all four
         workloads unless named), verifies every output, prints every metric
         with its unit and, last, one JSON line with the end-to-end metrics
         (or, with --trace, the per-layer metrics). --out FILE also writes the
         envelope and, with --trace, the spans.
--check  a smoke run asserting the emitted metrics are those BENCHMARK.json declares.
compare  prints both medians, the change and the bound per workload and
         end-to-end metric; exits 1 on a breach or more failed operations.";

enum Command {
    Run(run::RunArgs),
    Check,
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    match it.next().map(String::as_str) {
        Some("compare") => match (it.next(), it.next(), it.next()) {
            (Some(old), Some(new), None) => Ok(Command::Compare(old.into(), new.into())),
            _ => Err("compare takes exactly two files".into()),
        },
        Some("run") => {
            let mut run = run::RunArgs {
                workloads: Vec::new(),
                seed: 1,
                seconds: 10.0,
                trace: false,
                out: None,
            };
            let mut check = false;
            while let Some(flag) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs {what}"))
                };
                match flag.as_str() {
                    "--workload" => {
                        let name = value("a workload name")?;
                        if !metrics::WORKLOADS.contains(&name.as_str()) {
                            return Err(format!(
                                "unknown workload {name:?}; one of {:?}",
                                metrics::WORKLOADS
                            ));
                        }
                        run.workloads.push(name);
                    }
                    "--seed" => {
                        run.seed = value("a number")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--seconds" => {
                        run.seconds = value("a number")?
                            .parse()
                            .ok()
                            .filter(|s: &f64| s.is_finite() && *s > 0.0)
                            .ok_or("--seconds needs a positive number")?
                    }
                    "--out" => run.out = Some(value("a file")?.into()),
                    "--check" => check = true,
                    // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                    "--trace" => {
                        run.trace = match it.peek().map(|s| s.as_str()) {
                            Some("0") => {
                                it.next();
                                false
                            }
                            Some("1") => {
                                it.next();
                                true
                            }
                            _ => true,
                        }
                    }
                    other => return Err(format!("unknown argument {other:?}")),
                }
            }
            if check {
                return Ok(Command::Check);
            }
            if run.workloads.is_empty() {
                run.workloads = metrics::WORKLOADS.iter().map(|w| w.to_string()).collect();
            }
            Ok(Command::Run(run))
        }
        _ => Err("expected `run` or `compare`".into()),
    }
}

fn execute(command: Command) -> Result<bool, BoxError> {
    match command {
        // A run that measured and reported has done its job even when an
        // operation failed: the result line says so.
        Command::Run(args) => run::run(&args).map(|_| true),
        Command::Check => check::check(),
        Command::Compare(old, new) => {
            let read = |p: &PathBuf| -> Result<json::Json, BoxError> {
                Ok(json::Json::parse(&std::fs::read_to_string(p)?)?)
            };
            Ok(compare::compare(&read(&old)?, &read(&new)?)?)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The package's own `cargo test`: the smoke run must find nothing.
    #[test]
    fn check_finds_nothing() {
        assert!(crate::check::check().expect("check runs"));
    }
}
