//! `smpbench --compare OLD.json [--with NEW.json]`: per (workload, metric)
//! deltas between two result files, every ratio beside its base.

use crate::json::{self, Value};
use crate::metrics;
use crate::stats;

/// Median and interquartile distance of a metric's runs (at least one).
fn summary(values: &[f64]) -> (f64, f64) {
    match values {
        [one] => (*one, 0.0),
        many => {
            let (q1, median, q3) = stats::quartiles(many);
            (median, q3 - q1)
        }
    }
}

/// The runs of one metric of one workload; empty when the metric is missing
/// or any of its values is not a number.
fn runs(workload: &Value, table: &str, name: &str) -> Vec<f64> {
    workload
        .get(table)
        .and_then(|t| t.get(name))
        .and_then(|m| m.get("values"))
        .and_then(|v| v.items().iter().map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// The verdict on one end-to-end metric.  `worse` is the share of the old
/// median by which the new one is worse (negative when it is better).
pub fn verdict(worse: f64, spread: f64, bound: f64) -> &'static str {
    if worse - spread > bound {
        "regressed"
    } else if worse + spread > bound {
        // Past the bound, or within a spread of it: the runs do not say.
        "unresolved"
    } else {
        "ok"
    }
}

/// Prints the comparison; `Ok(false)` when it found a failed operation, a
/// changed exact count, or a declared workload or metric that either file
/// lacks: differences of behaviour, not of speed.
pub fn compare(old_text: &str, new_text: &str) -> Result<bool, String> {
    let old = json::parse(old_text).map_err(|e| format!("old result: {e}"))?;
    let new = json::parse(new_text).map_err(|e| format!("new result: {e}"))?;
    let mut clean = true;
    for (workload, _) in metrics::WORKLOADS {
        println!("== {workload}");
        let of = |file: &Value| file.get("workloads")?.get(workload).cloned();
        let (Some(old_w), Some(new_w)) = (of(&old), of(&new)) else {
            println!("  MISSING from one of the results");
            clean = false;
            continue;
        };
        // A result with failed operations is no base to compare against
        // either.
        for side in [&old_w, &new_w] {
            let failed = side.get("failed").and_then(Value::as_f64);
            if failed != Some(0.0) {
                println!("  FAILED operations: {failed:?}");
                clean = false;
            }
        }
        for declared in &metrics::END_TO_END {
            let name = declared.name;
            let (old_runs, new_runs) = (
                runs(&old_w, "end_to_end", name),
                runs(&new_w, "end_to_end", name),
            );
            if old_runs.is_empty() || new_runs.is_empty() {
                println!("  {name:<14} MISSING or not a number in one of the results");
                clean = false;
                continue;
            }
            let (old_median, old_iqr) = summary(&old_runs);
            let (new_median, new_iqr) = summary(&new_runs);
            let change = new_median / old_median - 1.0;
            let worse = if declared.higher_is_better {
                -change
            } else {
                change
            };
            let spread = old_iqr.max(new_iqr) / old_median;
            println!(
                "  {name:<14} {new_median:>12.5} {unit:<4} = {ratio:.4} x base {old_median:.5} {unit} \
                 (bound {bound:.0} %, spread {spread_pct:.1} %)  {verdict}",
                unit = declared.unit,
                ratio = new_median / old_median,
                bound = declared.bound * 100.0,
                spread_pct = spread * 100.0,
                verdict = if workload == metrics::SUITE_ONLY {
                    "not bounded"
                } else {
                    verdict(worse, spread, declared.bound)
                },
            );
        }
        for declared in &metrics::PER_LAYER {
            let name = declared.name;
            let (old_runs, new_runs) = (
                runs(&old_w, "per_layer", name),
                runs(&new_w, "per_layer", name),
            );
            if old_runs.is_empty() || new_runs.is_empty() {
                println!("  {name:<34} MISSING or not a number in one of the results");
                clean = false;
                continue;
            }
            let (old_v, _) = summary(&old_runs);
            let (new_v, _) = summary(&new_runs);
            // An exact count must agree run by run, not only in the median.
            let changed =
                declared.exact && old_runs.iter().chain(&new_runs).any(|&v| v != old_runs[0]);
            let note = if changed {
                clean = false;
                "  EXACT COUNT CHANGED"
            } else {
                ""
            };
            let ratio = if old_v == 0.0 {
                "      -".to_string()
            } else {
                format!("{:.4}", new_v / old_v)
            };
            println!(
                "  {name:<34} {new_v:>14.5} {unit:<6} = {ratio} x base {old_v:.5}{note}",
                unit = declared.unit
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(0.02, 0.01, 0.10), "ok");
        assert_eq!(verdict(-0.30, 0.05, 0.10), "ok");
        assert_eq!(verdict(0.20, 0.02, 0.10), "regressed");
        assert_eq!(verdict(0.12, 0.05, 0.10), "unresolved");
        assert_eq!(verdict(0.08, 0.05, 0.10), "unresolved");
    }

    /// A result file in which every declared metric of every workload
    /// reads 1, but for the `edits` made to `sharded_sys0`.
    fn result(edits: &[(&str, &str, &str)]) -> String {
        let table = |workload: &str, table: &str, names: Vec<&str>| {
            let entries: Vec<String> = names
                .into_iter()
                .filter_map(|name| {
                    let edit = edits
                        .iter()
                        .find(|e| workload == "sharded_sys0" && e.0 == table && e.1 == name);
                    match edit {
                        Some((_, _, "")) => None,
                        Some((_, _, values)) => {
                            Some(format!("\"{name}\": {{\"values\": {values}}}"))
                        }
                        None => Some(format!("\"{name}\": {{\"values\": [1, 1]}}")),
                    }
                })
                .collect();
            format!("\"{table}\": {{{}}}", entries.join(", "))
        };
        let workloads: Vec<String> = metrics::WORKLOADS
            .iter()
            .map(|(workload, _)| {
                let failed = edits
                    .iter()
                    .find(|e| *workload == "sharded_sys0" && e.0 == "failed")
                    .map_or("0", |e| e.2);
                format!(
                    "\"{workload}\": {{\"failed\": {failed}, {}, {}}}",
                    table(
                        workload,
                        "end_to_end",
                        metrics::END_TO_END.iter().map(|m| m.name).collect()
                    ),
                    table(
                        workload,
                        "per_layer",
                        metrics::PER_LAYER.iter().map(|m| m.name).collect()
                    ),
                )
            })
            .collect();
        format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))
    }

    #[test]
    fn only_differences_of_behaviour_are_not_clean() {
        let base = result(&[]);
        assert_eq!(compare(&base, &base), Ok(true));
        // Slower, even far past the bound, is a verdict, not an exit status.
        let slow = result(&[("end_to_end", "solve_s", "[3, 3]")]);
        assert_eq!(compare(&base, &slow), Ok(true));
        let inexact = result(&[("per_layer", "wire.mb", "[2, 2]")]);
        assert_eq!(compare(&base, &inexact), Ok(true));
        for edit in [
            ("failed", "", "1"),
            ("per_layer", "shard.exchange_rounds", "[2, 2]"),
            // One run of an exact count off, the median unchanged.
            ("per_layer", "shard.exchange_rounds", "[1, 1, 2]"),
            // Dropped or unreadable metrics, exact or not, on either side.
            ("per_layer", "shard.exchange_rounds", ""),
            ("per_layer", "wire.mb", ""),
            ("end_to_end", "solve_s", ""),
            ("end_to_end", "solve_s", "[null]"),
        ] {
            let not_clean = result(&[edit]);
            assert_eq!(compare(&base, &not_clean), Ok(false), "{edit:?}");
            assert_eq!(compare(&not_clean, &base), Ok(false), "{edit:?}");
        }
        // A workload that is gone.
        let gone = base.replace("\"served_mix\"", "\"served_other\"");
        assert_eq!(compare(&base, &gone), Ok(false));
        assert_eq!(compare(&gone, &base), Ok(false));
    }
}
