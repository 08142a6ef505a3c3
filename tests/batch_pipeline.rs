//! Multi-measure solves on a real semi-Markov workload: union planning,
//! per-measure cache-hit accounting, chunked dispatch, and the
//! measure-tagged checkpoint format.

use smp_suite::core::query::{Engine, MeasureReport, MeasureRequest};
use smp_suite::core::PassageTimeAnalysis;
use smp_suite::laplace::{InversionMethod, SPointPlan};
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::checkpoint::load_checkpoint_by_measure;
use smp_suite::pipeline::transport::{ExecutionPlan, Transport};
use smp_suite::pipeline::work::WorkItem;
use smp_suite::pipeline::{
    DistributedEngine, InProcess, ModelSpec, PipelineOptions, ResolveTarget, TargetSpec,
    TransformSpec,
};
use smp_suite::smspn::StateSpace;

/// A four-stage cycle `q0 → q1 → q2 → q3 → q0` with one token, which starts
/// in place `q{start}`: Erlang, uniform, exponential and deterministic
/// stages.
fn tandem(start: usize) -> ModelSpec {
    let stage = |from: usize, sojourn: &str| {
        let to = (from + 1) % 4;
        format!(
            "\\transition{{t{from}{to}}}{{ \\condition{{q{from} > 0}}
                \\action{{ next->q{from} = q{from} - 1; next->q{to} = q{to} + 1; }}
                \\sojourntimeLT{{ return {sojourn}; }} }}\n"
        )
    };
    let mut source: String = (0..4)
        .map(|q| format!("\\place{{q{q}}}{{{}}}\n", usize::from(q == start)))
        .collect();
    source += &stage(0, "erlangLT(2.0, 2, s)");
    source += &stage(1, "uniformLT(0.2, 1.0, s)");
    source += &stage(2, "expLT(1.5, s)");
    source += &stage(3, "detLT(0.3, s)");
    ModelSpec::Dnamaca(source)
}

fn target(text: &str) -> TargetSpec {
    TargetSpec::parse(text).unwrap()
}

/// The passage from `tandem(0)`'s initial marking into `target`.
fn passage(target_text: &str) -> TransformSpec {
    TransformSpec::passage(tandem(0), target(target_text))
}

/// A distributed engine over `tandem(0)` with `options`, on as many
/// worker threads as they ask.
fn engine(options: PipelineOptions) -> DistributedEngine {
    DistributedEngine::in_process(tandem(0), InversionMethod::euler(), options)
}

/// Transform points the measure evaluated, found cached, and shared.
fn spent(report: &MeasureReport) -> (usize, usize, usize) {
    let p = &report.provenance;
    (p.evaluations, p.cache_hits, p.shared_hits)
}

/// M measures sharing a t-grid (with distinct transforms) evaluate exactly
/// |union of planned s-points| × M points on a cold cache, and a warm rerun
/// reports them all as cache hits.
#[test]
fn batch_evaluation_count_is_union_times_measures_and_warm_reruns_hit_cache() {
    let targets = ["q2>=1", "q3>=1", "q1>=1"];
    let ts = linspace(0.5, 8.0, 7);
    let requests = [
        MeasureRequest::density(target(targets[0]), &ts),
        MeasureRequest::density(target(targets[1]), &ts),
        MeasureRequest::cdf(target(targets[2]), &ts),
    ];

    let mut checkpoint = std::env::temp_dir();
    checkpoint.push(format!("smp-suite-batch-ckpt-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);

    let engine = engine(PipelineOptions {
        workers: 4,
        checkpoint_path: Some(checkpoint.clone()),
        chunk_size: 16,
        ..Default::default()
    });

    // Cold cache: |union| × M evaluations, no hits.
    let union = SPointPlan::new(InversionMethod::euler(), &ts).len();
    let cold = engine.solve(&requests).unwrap();
    for measure in &cold {
        assert_eq!(spent(measure), (union, 0, 0), "{}", measure.name);
    }
    // Chunked dispatch: ceil(union × 3 / 16) result messages, counted on the
    // run's first report.
    assert_eq!(cold[0].provenance.messages, (union * 3).div_ceil(16));
    assert!(cold[1..].iter().all(|m| m.provenance.messages == 0));

    // Warm rerun against the checkpoint: zero evaluations, per-measure hits.
    let warm = engine.solve(&requests).unwrap();
    for (cold_measure, warm_measure) in cold.iter().zip(&warm) {
        assert_eq!(spent(warm_measure), (0, union, 0));
        assert_eq!(warm_measure.values, cold_measure.values, "bit-identical");
    }

    // The checkpoint holds one tagged shard per measure, |union| records each.
    let shards = load_checkpoint_by_measure(&checkpoint).unwrap();
    assert_eq!(shards.len(), 3);
    for target in targets {
        let key = passage(target).transform_key();
        assert_eq!(shards[&key].len(), union, "shard {key}");
    }
    std::fs::remove_file(&checkpoint).unwrap();

    // The same plan handed to the transport directly: it answers in
    // chunks of 16, counted consistently by the master's callback and by
    // the workers.
    let specs: Vec<TransformSpec> = targets.iter().map(|t| passage(t)).collect();
    let plan = SPointPlan::new(InversionMethod::euler(), &ts);
    let s_points = plan.s_points();
    let items: Vec<WorkItem> = (0..specs.len())
        .flat_map(|measure| s_points.iter().map(move |&s| (measure, s)))
        .enumerate()
        .map(|(index, (measure, s))| WorkItem { measure, index, s })
        .collect();
    let plan = ExecutionPlan {
        specs: specs.iter().collect(),
        items,
        chunk_size: 16,
        method: "euler".to_string(),
    };
    let mut chunks_dispatched = 0;
    let report = InProcess::new(4)
        .execute(plan, &mut |_| chunks_dispatched += 1)
        .unwrap();
    assert_eq!(chunks_dispatched, (union * 3).div_ceil(16));
    let worker_messages: usize = report.worker_stats.iter().map(|w| w.messages).sum();
    assert_eq!(worker_messages, chunks_dispatched);
}

/// Multi-measure results agree with the sequential single-measure analyses.
#[test]
fn batch_values_match_single_process_analysis() {
    let to_end = passage("q3>=1");
    let source = to_end.model().source();
    let net = smp_suite::dnamaca::parse_model(&source).unwrap();
    let space = StateSpace::explore(&net).unwrap();
    let targets = target("q3>=1").resolve(&net, &space).unwrap();
    let analysis =
        PassageTimeAnalysis::new(space.smp(), &[space.initial_state()], &targets).unwrap();
    let ts = linspace(0.4, 10.0, 20);

    let [f, cdf] = engine(PipelineOptions::with_workers(3).chunked(5))
        .solve(&[
            MeasureRequest::density(target("q3>=1"), &ts),
            MeasureRequest::cdf(target("q3>=1"), &ts),
        ])
        .unwrap()
        .try_into()
        .unwrap();

    let density = analysis.density(InversionMethod::euler(), &ts).unwrap();
    for (a, b) in f.values.iter().zip(density.values()) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    let reference = analysis.cdf(InversionMethod::euler(), &ts).unwrap();
    for (a, b) in cdf.values.iter().zip(reference.values()) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
    // The shared transform key halves the work.
    assert_eq!(cdf.provenance.evaluations, 0);
    assert_eq!(cdf.provenance.shared_hits, f.provenance.evaluations);
}

/// Runs under distinct transform keys append to one checkpoint file and each
/// restores its own shard — a later run never pays for, or reads, another
/// key's records.
#[test]
fn one_checkpoint_file_feeds_runs_under_distinct_transform_keys() {
    let ts = linspace(0.5, 4.0, 5);
    let mut checkpoint = std::env::temp_dir();
    checkpoint.push(format!("smp-suite-mixed-ckpt-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);

    let engine = engine(PipelineOptions {
        workers: 2,
        checkpoint_path: Some(checkpoint.clone()),
        ..Default::default()
    });
    let run = |target_text: &str| {
        let request = MeasureRequest::density(target(target_text), &ts);
        spent(&engine.solve(&[request]).unwrap()[0])
    };

    // A single-measure run writes its records…
    let (half, ..) = run("q2>=1");
    assert!(half > 0);
    // …a run under another key appends to the same file…
    let (end, ..) = run("q3>=1");
    assert_eq!(end, half); // distinct shard: re-evaluated

    // …and both shards restore: a second run under either key is all cache
    // hits.
    assert_eq!(run("q2>=1"), (0, half, 0));
    assert_eq!(run("q3>=1"), (0, half, 0));

    let shards = load_checkpoint_by_measure(&checkpoint).unwrap();
    assert_eq!(shards.len(), 2, "one shard per transform key");
    std::fs::remove_file(&checkpoint).unwrap();
}
