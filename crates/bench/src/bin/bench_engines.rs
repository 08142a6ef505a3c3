//! Engine benchmark: the same measure batch through the analytic, simulation
//! and distributed engines, with machine-readable output for the perf
//! trajectory.
//!
//! ```text
//! cargo run -p smp-bench --release --bin bench_engines [-- --voting CC,MM,NN --quick]
//! ```
//!
//! Emits `BENCH_engines.json` in the working directory (and echoes it to
//! stdout): per-engine wall time, wire traffic and evaluation counts for a
//! batch of one CDF, one transient and one three-probability quantile measure
//! on the voting model.  The distributed engine runs over the in-process
//! transport here; its bytes-on-wire column becomes non-zero under the TCP
//! and sharded backends (see `smpq`, and `smpbench` for the measured runs).

use smp_bench::Args;
use smp_core::query::{Engine, MeasureRequest, TargetSpec};
use smp_laplace::InversionMethod;
use smp_numeric::stats::linspace;
use smp_pipeline::{
    AnalyticEngine, DistributedEngine, ModelSpec, PipelineOptions, SimulationEngine,
    SimulationOptions,
};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    engine: &'static str,
    backend: String,
    wall_s: f64,
    messages: usize,
    bytes_on_wire: u64,
    evaluations: usize,
}

fn measure(engine: &dyn Engine, requests: &[MeasureRequest]) -> Row {
    let started = Instant::now();
    let reports = engine.solve(requests).expect("engine solve");
    let wall_s = started.elapsed().as_secs_f64();
    Row {
        engine: engine.name(),
        backend: reports
            .first()
            .map(|r| r.provenance.backend.clone())
            .unwrap_or_default(),
        wall_s,
        messages: reports.iter().map(|r| r.provenance.messages).sum(),
        bytes_on_wire: reports.iter().map(|r| r.provenance.bytes_on_wire).sum(),
        evaluations: reports.iter().map(|r| r.provenance.evaluations).sum(),
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let voting_flag = args.value_or::<String>("voting", String::new());
    let (voters, polling, central) = if voting_flag.is_empty() {
        if quick {
            (3, 1, 1)
        } else {
            (5, 2, 2)
        }
    } else {
        let parts: Vec<u32> = voting_flag
            .split(',')
            .map(|p| p.trim().parse().expect("--voting expects integers"))
            .collect();
        assert_eq!(parts.len(), 3, "--voting expects CC,MM,NN");
        (parts[0], parts[1], parts[2])
    };
    let model = ModelSpec::Voting {
        voters,
        polling,
        central,
    };
    let replications = if quick { 2_000 } else { 10_000 };
    let workers = 4usize;

    let ts = linspace(2.0, 60.0, if quick { 6 } else { 12 });
    let target = TargetSpec::parse("p2>=3").expect("target");
    let requests = vec![
        MeasureRequest::cdf(target.clone(), &ts),
        MeasureRequest::transient(target.clone(), &ts),
        MeasureRequest::quantile(target, &[0.5, 0.9, 0.99]).with_t_points(&ts),
    ];

    let rows = [
        measure(
            &AnalyticEngine::new(model.clone(), InversionMethod::euler()),
            &requests,
        ),
        measure(
            &SimulationEngine::new(
                model.clone(),
                SimulationOptions {
                    replications,
                    threads: workers,
                    ..Default::default()
                },
            ),
            &requests,
        ),
        measure(
            &DistributedEngine::in_process(
                model.clone(),
                InversionMethod::euler(),
                PipelineOptions::with_workers(workers),
            ),
            &requests,
        ),
    ];

    // Hand-rolled JSON (no serde_json in the vendored set); the schema is
    // flat on purpose so CI trend tooling can diff it.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"model\": \"voting:{voters},{polling},{central}\","
    );
    let _ = writeln!(
        json,
        "  \"measures\": [\"cdf:p2>=3\", \"transient:p2>=3\", \"quantile:p2>=3@0.5,0.9,0.99\"],"
    );
    let _ = writeln!(json, "  \"replications\": {replications},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"engines\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"backend\": \"{}\", \"wall_s\": {:.6}, \
\"messages\": {}, \"bytes_on_wire\": {}, \"evaluations\": {}}}{comma}",
            row.engine, row.backend, row.wall_s, row.messages, row.bytes_on_wire, row.evaluations
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    print!("{json}");
    std::fs::write("BENCH_engines.json", &json).expect("write BENCH_engines.json");
    eprintln!("wrote BENCH_engines.json");
}
