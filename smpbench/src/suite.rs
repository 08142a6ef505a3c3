//! The whole benchmark in one command: every workload in a fresh child of
//! this executable (so peak memory and allocator state do not leak from one
//! workload into the next), first with tracing off for the end-to-end
//! metrics, then traced for the per-layer ones; every metric printed by name
//! with its unit.  The run is added to `result.json`: the file gathers one
//! run per invocation, so that two builds (or one build twice) can be
//! measured alternately, seed by seed, each into its own file.

use crate::json::{self, Value};
use crate::metrics;
use std::process::{Command, Stdio};

/// What one child run printed: its named lines and its result line.
struct ChildRun {
    extras: Vec<(String, f64, String)>,
    result: Value,
    ok: bool,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed nothing ({})", output.status))?;
    let result = json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let extras = lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (name, value, unit) = (fields.next()?, fields.next()?, fields.next()?);
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect();
    Ok(ChildRun {
        extras,
        result,
        ok: output.status.success(),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken: a result means little without it.
fn machine_json() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (level, kind, size) = (
            read(&format!("{dir}/level")),
            read(&format!("{dir}/type")),
            read(&format!("{dir}/size")),
        );
        if !level.is_empty() {
            caches.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
        }
    }
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"caches\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json::quote(&cpu),
        json::quote(&caches.join(", ")),
        json::quote(read("/proc/sys/kernel/osrelease").trim()),
        json::quote(&command_line("rustc", &["--version"])),
        json::quote(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

fn metric_of(run: &ChildRun, name: &str) -> f64 {
    (|| run.result.get("metrics")?.get(name)?.get("value")?.as_f64())().unwrap_or(f64::NAN)
}

const SCHEMA: &str = "smpbench-result-2";

/// The runs a result file holds of one workload.
struct Runs {
    attempted: f64,
    failed: f64,
    /// One list of values per declared metric, in the tables' order.
    end_to_end: Vec<Vec<f64>>,
    per_layer: Vec<Vec<f64>>,
}

/// Reads the runs gathered so far, or none if `path` does not exist.  Runs
/// made with other settings do not mix: that is an error, not a new file.
fn load(
    path: &std::path::Path,
    seconds: f64,
    smoke: bool,
) -> Result<(Vec<f64>, Vec<Runs>), String> {
    // A file that is not there yet holds no runs: every lookup below finds
    // nothing in `Null`.
    let file = match std::fs::read_to_string(path) {
        Ok(text) => {
            let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let same = file.get("schema") == Some(&Value::Text(SCHEMA.to_string()))
                && file.get("seconds").and_then(Value::as_f64) == Some(seconds)
                && file.get("smoke") == Some(&Value::Bool(smoke));
            if !same {
                return Err(format!(
                    "{} holds runs made with other settings; delete it to start over",
                    path.display()
                ));
            }
            file
        }
        Err(_) => Value::Null,
    };
    let numbers = |v: Option<&Value>| -> Vec<f64> {
        v.map_or(Vec::new(), |v| {
            v.items().iter().filter_map(Value::as_f64).collect()
        })
    };
    let gathered = metrics::WORKLOADS
        .iter()
        .map(|(workload, _)| {
            let w = file.get("workloads").and_then(|w| w.get(workload));
            let values =
                |table: &str, name: &str| numbers((|| w?.get(table)?.get(name)?.get("values"))());
            let count = |field: &str| (|| w?.get(field)?.as_f64())().unwrap_or(0.0);
            Runs {
                attempted: count("attempted"),
                failed: count("failed"),
                end_to_end: metrics::END_TO_END
                    .iter()
                    .map(|m| values("end_to_end", m.name))
                    .collect(),
                per_layer: metrics::PER_LAYER
                    .iter()
                    .map(|m| values("per_layer", m.name))
                    .collect(),
            }
        })
        .collect();
    Ok((numbers(file.get("seeds")), gathered))
}

fn values_json(values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
    format!("[{}]", values.join(", "))
}

/// Runs the suite once with `seed` and adds the run to the result file at
/// `path`; `Ok(false)` when any operation of any workload failed.
pub fn run(seed: u64, seconds: f64, smoke: bool, path: &std::path::Path) -> Result<bool, String> {
    let (mut seeds, mut gathered) = load(path, seconds, smoke)?;
    seeds.push(seed as f64);
    let mut all_ok = true;
    let mut workloads_json = Vec::new();
    for ((workload, _), runs) in metrics::WORKLOADS.iter().zip(&mut gathered) {
        println!("== {workload}");
        if *workload == metrics::SUITE_ONLY {
            println!(
                "  (not in the driver's list: its timings are not bounded, its counts are exact)"
            );
        }
        let untraced = run_child(workload, seed, seconds, false, smoke)?;
        let traced = run_child(workload, seed, seconds, true, smoke)?;
        let count = |field: &str| -> f64 {
            [&untraced, &traced]
                .iter()
                .filter_map(|r| r.result.get(field).and_then(Value::as_f64))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_ok &= failed == 0.0 && untraced.ok && traced.ok;
        runs.attempted += attempted;
        runs.failed += failed;
        println!(
            "  failed_share {} ratio ({failed} of {attempted} operations)",
            failed / attempted.max(1.0)
        );

        let mut e2e = Vec::new();
        for (m, values) in metrics::END_TO_END.iter().zip(&mut runs.end_to_end) {
            let value = metric_of(&untraced, m.name);
            values.push(value);
            println!("  {:<14} {:>14.6} {}", m.name, value, m.unit);
            e2e.push(format!(
                "        {}: {{\"unit\": {}, \"better\": {}, \"bound\": {}, \"values\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
                m.bound,
                values_json(values)
            ));
        }
        let mut layers = Vec::new();
        for (m, values) in metrics::PER_LAYER.iter().zip(&mut runs.per_layer) {
            let value = metric_of(&traced, m.name);
            values.push(value);
            println!("  {:<34} {:>16.6} {}", m.name, value, m.unit);
            layers.push(format!(
                "        {}: {{\"unit\": {}, \"values\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                values_json(values)
            ));
        }
        // Workload-specific numbers of this run: the end-to-end run's, and
        // those only the traced run has.
        let extras: Vec<String> = untraced
            .extras
            .iter()
            .chain(
                traced
                    .extras
                    .iter()
                    .filter(|t| !untraced.extras.iter().any(|e| e.0 == t.0)),
            )
            .map(|(name, value, unit)| {
                println!("  {name:<34} {value:>16.6} {unit}");
                format!(
                    "        {}: {{\"unit\": {}, \"value\": {}}}",
                    json::quote(name),
                    json::quote(unit),
                    json::number(*value)
                )
            })
            .collect();
        workloads_json.push(format!(
            "    {}: {{\n      \"attempted\": {}, \"failed\": {},\n      \
             \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }},\n      \
             \"extras\": {{\n{}\n      }}\n    }}",
            json::quote(workload),
            runs.attempted,
            runs.failed,
            e2e.join(",\n"),
            layers.join(",\n"),
            extras.join(",\n")
        ));
    }
    let text = format!(
        "{{\n  \"schema\": {},\n  \"claim\": null,\n  \"machine\": {},\n  \
         \"seconds\": {seconds}, \"smoke\": {smoke}, \"seeds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::quote(SCHEMA),
        machine_json(),
        values_json(&seeds),
        workloads_json.join(",\n")
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} ({} runs)", path.display(), seeds.len());
    Ok(all_ok)
}
