//! `compare OLD.json NEW.json`: per workload and bounded metric — the gated
//! end-to-end set and, from traced runs, the cycle's parts with their
//! advisory bounds — both values, the relative change and the bound. A
//! metric whose own spread (median to lower quartile over the run's
//! cycles) exceeds its bound in either file is *unresolved*, not
//! *unchanged*.

use crate::json::Json;

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Breach,
    Unresolved,
}

struct Side {
    value: f64,
    spread: f64,
}

fn side(metric: &Json) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    let median = metric.get("median").and_then(Json::as_f64).unwrap_or(value);
    let p25 = metric.get("p25").and_then(Json::as_f64).unwrap_or(median);
    Some(Side {
        value,
        spread: if median == 0.0 {
            0.0
        } else {
            ((median - p25) / median).abs()
        },
    })
}

/// How much worse `new` is than `old`, as a share of `old`; negative when
/// it is better.
fn worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if old == 0.0 {
        return if new == old { 0.0 } else { f64::INFINITY };
    }
    let change = (new - old) / old.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn judge(old: &Side, new: &Side, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse = worsening(old.value, new.value, higher_is_better);
    let verdict = if worse > bound {
        Verdict::Breach
    } else if old.spread > bound || new.spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints the table; `Ok(true)` when nothing breached.
pub fn compare(old: &Json, new: &Json) -> Result<bool, String> {
    let old_workloads = old.get("workloads").ok_or("OLD has no \"workloads\"")?;
    let new_workloads = new.get("workloads").ok_or("NEW has no \"workloads\"")?;
    let mut clean = true;
    println!(
        "{:<13} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse %", "bound %"
    );
    for (workload, old_w) in old_workloads.as_obj() {
        let Some(new_w) = new_workloads.get(workload) else {
            println!("{workload:<13} missing from NEW");
            clean = false;
            continue;
        };
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(new_w) > failed(old_w) {
            println!(
                "{workload:<13} failed operations rose from {} to {}: breach",
                failed(old_w),
                failed(new_w)
            );
            clean = false;
        }
        let sections = ["end_to_end", "per_layer"];
        let bounded = sections.iter().flat_map(|section| {
            let metrics = old_w.get(section).map(Json::as_obj).unwrap_or_default();
            metrics.iter().map(move |(name, m)| (*section, name, m))
        });
        for (section, name, old_m) in bounded {
            let Some(bound) = old_m.get("bound").and_then(Json::as_f64) else {
                continue;
            };
            let new_m = new_w.get(section).and_then(|m| m.get(name));
            let (Some(o), Some(n)) = (side(old_m), new_m.and_then(side)) else {
                println!("{workload:<13} {name:<22} missing from NEW");
                clean = false;
                continue;
            };
            let higher = old_m.get("better").and_then(Json::as_str) == Some("higher");
            let (worse, verdict) = judge(&o, &n, higher, bound);
            clean &= verdict != Verdict::Breach;
            println!(
                "{workload:<13} {name:<22} {:>14.4} {:>14.4} {:>+9.2} {:>7.1}  {}",
                o.value,
                n.value,
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            judge(&s(100.0, 0.01), &s(105.0, 0.01), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(100.0, 0.01), &s(111.0, 0.01), false, 0.10).1,
            Verdict::Breach
        );
        assert_eq!(
            judge(&s(100.0, 0.01), &s(89.0, 0.01), true, 0.10).1,
            Verdict::Breach
        );
        assert_eq!(
            judge(&s(100.0, 0.01), &s(120.0, 0.01), true, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(100.0, 0.15), &s(101.0, 0.01), false, 0.10).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn compares_envelopes() {
        let file = |cycle: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w": {{"failed": {failed}, "end_to_end": {{"cycle_ms":
                {{"value": {cycle}, "p25": {cycle}, "unit": "ms", "better": "lower", "bound": 0.1}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert!(compare(&file(100.0, 0.0), &file(104.0, 0.0)).unwrap());
        assert!(!compare(&file(100.0, 0.0), &file(120.0, 0.0)).unwrap());
        assert!(!compare(&file(100.0, 0.0), &file(100.0, 1.0)).unwrap());
    }
}
