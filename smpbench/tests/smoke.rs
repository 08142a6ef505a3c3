//! Runs the built `smpbench` on its shrunken workloads and holds the
//! declarations — `BENCHMARK.json`, `src/metrics.rs` and what the program
//! prints — in agreement.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use json::Value;
use std::collections::BTreeSet;
use std::process::{Command, Output};

fn smpbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smpbench"))
        .args(args)
        .output()
        .expect("run smpbench")
}

/// As [`smpbench`], with the run's artefacts under `dir`.
fn smpbench_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smpbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", dir)
        .output()
        .expect("run smpbench")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no '{key}' in {value:?}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_restates_the_metric_tables() {
    let declared = benchmark_json();
    let keys: Vec<&str> = declared.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        declared.get("paths").unwrap().items(),
        [Value::Text("smpbench".to_string())]
    );

    let workloads: Vec<(&str, &str)> = declared
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let driven: Vec<(&str, &str)> = metrics::WORKLOADS
        .into_iter()
        .filter(|(name, _)| *name != metrics::SUITE_ONLY)
        .collect();
    assert_eq!(workloads, driven);
    assert_eq!(driven.len() + 1, metrics::WORKLOADS.len());
    assert!(workloads
        .iter()
        .all(|(name, why)| valid_name(name) && why.len() <= 200 && !why.contains('\n')));

    let e2e = declared.get("end_to_end").unwrap().items();
    assert_eq!(e2e.len(), metrics::END_TO_END.len());
    for (json, table) in e2e.iter().zip(&metrics::END_TO_END) {
        assert_eq!(text(json, "name"), table.name);
        assert_eq!(text(json, "unit"), table.unit);
        assert_eq!(
            text(json, "better"),
            if table.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        );
        assert_eq!(json.get("bound").and_then(Value::as_f64), Some(table.bound));
        assert!(table.bound <= 0.25 && valid_name(table.name));
    }
    assert!(metrics::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));

    let layers = declared.get("per_layer").unwrap().items();
    assert_eq!(layers.len(), metrics::PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (json, table) in layers.iter().zip(&metrics::PER_LAYER) {
        assert_eq!(text(json, "name"), table.name);
        assert_eq!(text(json, "unit"), table.unit);
        assert_eq!(
            text(json, "better"),
            if table.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        );
        assert!(valid_name(table.name), "{}", table.name);
    }
    let names: BTreeSet<&str> = metrics::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(metrics::PER_LAYER.iter().map(|m| m.name))
        .chain(metrics::WORKLOADS.iter().map(|w| w.0))
        .collect();
    assert_eq!(
        names.len(),
        metrics::END_TO_END.len() + metrics::PER_LAYER.len() + metrics::WORKLOADS.len(),
        "a name is used twice"
    );
    assert_eq!(
        declared.get("run_seconds").and_then(Value::as_f64),
        Some(20.0)
    );
}

/// Every workload, with tracing off and on: the result line carries exactly
/// the declared metrics, each once, and no operation fails.  A per-layer
/// metric reads 0 on the workloads that do not execute its layer, but no
/// probe may have been left out of all four.
#[test]
fn every_workload_emits_every_declared_metric_once() {
    let mut measured_somewhere = BTreeSet::new();
    for (workload, _) in metrics::WORKLOADS {
        for trace in ["0", "1"] {
            let output = smpbench(&[
                "--workload",
                workload,
                "--smoke",
                "--seed",
                "3",
                "--seconds",
                "0.5",
                "--trace",
                trace,
            ]);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let line =
                json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let expected: Vec<(&str, &str)> = if trace == "0" {
                metrics::END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect()
            } else {
                metrics::PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect()
            };
            let emitted = line.get("metrics").unwrap().fields();
            let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                emitted_names,
                expected.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                "{workload} --trace {trace}"
            );
            for ((name, metric), (_, unit)) in emitted.iter().zip(&expected) {
                assert!(valid_name(name));
                assert_eq!(text(metric, "unit"), *unit, "{name}");
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name} = {value:?}"
                );
                if trace == "0" {
                    assert!(value.unwrap() > 0.0, "{workload} {name} must never be 0");
                } else if value != Some(0.0) {
                    measured_somewhere.insert(name.clone());
                }
            }
        }
    }
    // No query is refused, on any workload.
    measured_somewhere.insert("server.refused_share".to_string());
    let declared: BTreeSet<String> = metrics::PER_LAYER
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(measured_somewhere, declared);
}

#[test]
fn a_damaged_reference_fails_the_run() {
    for workload in ["fanout_sys0", "served_mix"] {
        let output = smpbench(&[
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "0.2",
            "--corrupt-reference",
        ]);
        assert!(
            !output.status.success(),
            "{workload} accepted a wrong answer"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert!(line.get("failed").and_then(Value::as_f64).unwrap() >= 1.0);
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    // The cold order and the warm schedule are the only seeded inputs; the
    // run echoes a digest of them.
    let digest = |seed: &str| {
        let output = smpbench(&[
            "--workload",
            "served_mix",
            "--smoke",
            "--seconds",
            "0.2",
            "--seed",
            seed,
        ]);
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .find(|l| l.starts_with("served.schedule_digest"))
            .expect("a schedule digest line")
            .to_string()
    };
    assert_eq!(digest("5"), digest("5"));
    assert_ne!(digest("5"), digest("6"));
}

#[test]
fn the_suite_gathers_runs_in_a_result_that_compares_clean_with_itself() {
    let dir = std::env::temp_dir().join(format!("smpbench-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for seed in ["1", "2"] {
        let suite = smpbench_in(&dir, &["--smoke", "--seconds", "0.2", "--seed", seed]);
        assert!(
            suite.status.success(),
            "{}",
            String::from_utf8_lossy(&suite.stderr)
        );
    }
    let result = dir.join("smpbench").join("result.json");
    let parsed = json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    assert_eq!(parsed.get("claim"), Some(&Value::Null));
    assert_eq!(
        parsed.get("seeds").unwrap().items(),
        [Value::Number(1.0), Value::Number(2.0)]
    );
    let workloads = parsed.get("workloads").unwrap().fields();
    assert_eq!(workloads.len(), metrics::WORKLOADS.len());
    for (_, workload) in workloads {
        for table in ["end_to_end", "per_layer"] {
            for (name, metric) in workload.get(table).unwrap().fields() {
                assert_eq!(metric.get("values").unwrap().items().len(), 2, "{name}");
            }
        }
    }
    // Runs made with other settings do not mix into the file.
    let other = smpbench_in(&dir, &["--smoke", "--seconds", "0.3"]);
    assert!(!other.status.success());

    let compared = smpbench_in(&dir, &["--compare", result.to_str().unwrap()]);
    assert!(
        compared.status.success(),
        "{}",
        String::from_utf8_lossy(&compared.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
