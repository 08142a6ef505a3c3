//! `smpbench`: the end-to-end and per-layer benchmark of the semi-Markov
//! passage-time suite.  See `README.md` beside this package.

mod compare;
mod json;
mod layers;
mod metrics;
mod proc;
mod rng;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{RunConfig, RunResult};

const USAGE: &str = "usage:
  smpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one workload; the last line of output is the result as JSON
  smpbench [--seed N] [--seconds S] [--smoke]
      every workload, untraced then traced, each in a fresh child; prints
      every metric and adds the run to $CARGO_TARGET_DIR/smpbench/result.json
  smpbench --compare OLD.json [--with NEW.json]
      NEW.json defaults to that result.json
  smpbench --record-expected
workloads: oneshot_sys1, fanout_sys0, sharded_sys0, served_mix";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Flag values by name; flags without a value map to an empty string.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        const SWITCHES: [&str; 3] = ["--smoke", "--corrupt-reference", "--record-expected"];
        const VALUED: [&str; 8] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--compare",
            "--with",
            "--role",
            "--connect",
        ];
        let mut flags = Vec::new();
        let mut iter = raw.iter();
        while let Some(flag) = iter.next() {
            let value = if SWITCHES.contains(&flag.as_str()) {
                String::new()
            } else if VALUED.contains(&flag.as_str()) {
                iter.next()
                    .ok_or(format!("{flag} expects a value"))?
                    .clone()
            } else {
                return Err(format!("unknown argument '{flag}'\n{USAGE}"));
            };
            flags.push((flag.clone(), value));
        }
        Ok(Args(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} expects a number, got '{text}'")),
            None => Ok(default),
        }
    }
}

/// Exit status of a run that completed: did every check pass?
fn passed(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where run artefacts (traces, result files) go: under the build
/// directory, which every checkout ignores.
fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("smpbench")
}

/// The driver's result line.
fn result_line(result: &RunResult, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    // A layer the workload does not execute reads 0: see
                    // `layers::probe`.
                    result.layers.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .map(|(name, unit, value)| metric_json(name, value, unit))
            .collect()
    } else {
        let value = |name| match name {
            "setup_s" => result.setup_s,
            "solve_s" => result.solve_s,
            "work_per_s" => result.work_per_s,
            _ => result.peak_rss_kb as f64 / 1e3,
        };
        metrics::END_TO_END
            .iter()
            .map(|m| metric_json(m.name, value(m.name), m.unit))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::quote(name),
        json::number(value),
        json::quote(unit)
    )
}

fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    let config = RunConfig {
        seed: args.number("--seed", 1u64)?,
        seconds: args.number("--seconds", DEFAULT_SECONDS)?,
        trace: args.number("--trace", 0u8)? != 0,
        smoke: args.get("--smoke").is_some(),
        corrupt_reference: args.get("--corrupt-reference").is_some(),
    };
    let mut tracer = trace::Tracer::new(config.trace);
    let mut result = workloads::run(name, &config, &mut tracer)?;
    if config.trace {
        let problem = result
            .probe
            .take()
            .expect("every workload names a probe problem");
        let dir = out_dir();
        layers::probe(name, &problem, &mut result.layers, &dir)?;
        // The share of a sharded solve not spent computing: one minus what
        // the same points cost the in-process sharded solver.
        if let Some(compute_ms) = result.layers.get("shard.compute_ms_per_spoint") {
            let compute_s = compute_ms / 1e3 * result.layers["master.evaluations"];
            result
                .layers
                .insert("shard.exchange_share", 1.0 - compute_s / result.solve_s);
        }
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&path, tracer.to_json(name, result.failed == 0))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for failure in &result.failures {
        eprintln!("smpbench: {name}: FAILED operation: {failure}");
    }
    let walls: Vec<String> = result.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "# {name}: seed {} · {} s · {} repetitions, sorted, in s: {}",
        config.seed,
        config.seconds,
        walls.len(),
        walls.join(" ")
    );
    for extra in &result.extras {
        println!(
            "{} {} {}",
            extra.name,
            json::number(extra.value),
            extra.unit
        );
    }
    println!("{}", result_line(&result, config.trace));
    Ok(passed(result.failed == 0))
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if let Some(role) = args.get("--role") {
        return match role {
            "worker" => proc::worker_main(
                args.get("--connect")
                    .ok_or("--role worker needs --connect")?,
            ),
            "serve" => proc::serve_main(),
            "reference" => proc::reference_main(
                args.get("--workload")
                    .ok_or("--role reference needs --workload")?,
                args.get("--smoke").is_some(),
            ),
            other => Err(format!("unknown role '{other}'")),
        }
        .map(|()| ExitCode::SUCCESS);
    }
    if args.get("--record-expected").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/oneshot_sys1.tsv");
        let table = workloads::oneshot::record_expected()?;
        std::fs::write(path, &table).map_err(|e| format!("{path}: {e}"))?;
        print!("{table}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(old_path) = args.get("--compare") {
        let new_path = args
            .get("--with")
            .map_or_else(|| out_dir().join("result.json"), std::path::PathBuf::from);
        let read = |path: &std::path::Path| {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let clean = compare::compare(&read(old_path.as_ref())?, &read(&new_path)?)?;
        return Ok(passed(clean));
    }
    if let Some(name) = args.get("--workload") {
        return run_workload(name, args);
    }
    suite::run(
        args.number("--seed", 1u64)?,
        args.number("--seconds", DEFAULT_SECONDS)?,
        args.get("--smoke").is_some(),
        &out_dir().join("result.json"),
    )
    .map(passed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&raw).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("smpbench: {message}");
            ExitCode::from(2)
        }
    }
}
