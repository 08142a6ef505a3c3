//! Table 2 — time, speedup and efficiency of the distributed analysis pipeline for
//! an increasing number of workers, computing a passage time at 5 t-points with
//! Euler inversion (the paper's protocol: system 1, 165 s-point evaluations, 1–32
//! slave processors).
//!
//! ```text
//! cargo run -p smp-bench --release --bin table2 [--system 0] [--voters K]
//!     [--workers 1,2,4,8,16,32]
//! ```
//!
//! Absolute times differ from the paper (different hardware, thread workers instead
//! of cluster nodes); the quantity being reproduced is the *shape*: near-linear
//! speedup that tapers as the per-worker share of the fixed-size work queue shrinks
//! (and, on this machine, once the worker count exceeds the physical core count).
//! The same table over worker *processes* on real sockets is
//! `smpbench --workload fanout_sys0` (`fanout.efficiency_w2`).

use smp_bench::{build_paper_system, build_scaled_system, Args};
use smp_core::query::{Engine, MeasureRequest};
use smp_laplace::InversionMethod;
use smp_pipeline::{
    available_cores, DistributedEngine, InProcess, ModelCache, ModelSpec, PipelineOptions,
    TargetSpec,
};
use std::sync::Arc;

fn main() {
    let args = Args::from_env();
    let system = if args.value_or("system", -1i64) >= 0 {
        build_paper_system(args.value_or("system", 0u32))
    } else {
        build_scaled_system()
    };
    let config = system.config();
    let voters = args.value_or("voters", config.voters);
    let worker_counts = args.list_or("workers", &[1, 2, 4, 8, 16, 32]);

    println!(
        "# Table 2: pipeline scalability, {} states, passage of {voters} voters, 5 t-points, Euler inversion",
        system.num_states()
    );
    println!(
        "# available parallelism on this host: {} cores",
        available_cores()
    );
    println!("# thread workers; for worker processes on real sockets run: smpbench --workload fanout_sys0");

    // The passage as a request over the voting model's text, the one
    // `system` was built from.  It is explored once, here, so that every row
    // times evaluation and not exploration.
    let model = ModelSpec::Voting {
        voters: config.voters,
        polling: config.polling_units,
        central: config.central_units,
    };
    let models = Arc::new(ModelCache::new(1));
    models.explored(&model).expect("the voting model explores");
    let engine_on = |workers: usize, options: PipelineOptions| {
        let transport = InProcess::new(workers).with_model_cache(Arc::clone(&models));
        DistributedEngine::with_transport(
            model.clone(),
            InversionMethod::euler(),
            options,
            Box::new(transport),
        )
    };
    let targets = TargetSpec::parse(&format!("p2>={voters}")).expect("a voted-count predicate");
    let mean = engine_on(1, PipelineOptions::with_workers(1))
        .solve(&[MeasureRequest::mean(targets.clone())])
        .expect("mean passage time")[0]
        .values[0];
    // 5 t-points, as in the paper's Table 2 workload.
    let t_points: Vec<f64> = (1..=5).map(|k| mean * 0.4 * k as f64).collect();
    let request = MeasureRequest::density(targets, &t_points);
    println!(
        "{:>6}  {:>10}  {:>8}  {:>10}  {:>8}",
        "slaves", "time(s)", "speedup", "efficiency", "messages"
    );
    let mut baseline: Option<f64> = None;
    for &workers in &worker_counts {
        // One point per message, as in the paper's protocol: automatic chunk
        // sizing depends on the worker count, which would make the per-message
        // cost differ between rows and corrupt the speedup comparison.
        let engine = engine_on(workers, PipelineOptions::with_workers(workers).chunked(1));
        let run = engine
            .solve(std::slice::from_ref(&request))
            .expect("pipeline run failed")
            .remove(0)
            .provenance;
        let elapsed = run.wall.as_secs_f64();
        let speedup = *baseline.get_or_insert(elapsed) / elapsed.max(1e-12);
        println!(
            "{workers:>6}  {elapsed:>10.3}  {speedup:>8.2}  {:>10.3}  {:>8}",
            speedup / workers as f64,
            run.messages
        );
    }
}
