//! Batched multi-measure pipeline runs on a real semi-Markov workload:
//! union planning, per-measure cache-hit accounting, chunked dispatch, and the
//! measure-tagged checkpoint format.

use smp_suite::core::PassageTimeAnalysis;
use smp_suite::laplace::{InversionMethod, SPointPlan};
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::checkpoint::load_checkpoint_by_measure;
use smp_suite::pipeline::{
    BatchJob, DistSpec, DistributedPipeline, InProcess, MeasureKind, MeasureSpec, ModelSpec,
    PipelineOptions, ResolveTarget, TargetSpec, TransformSpec,
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

/// The passage from `tandem(start)`'s initial marking into `target`.
fn passage(start: usize, target: &str) -> TransformSpec {
    TransformSpec::passage(tandem(start), TargetSpec::parse(target).unwrap())
}

/// The ISSUE's acceptance criterion: M measures sharing a t-grid (with
/// distinct transforms) evaluate exactly |union of planned s-points| × M
/// points on a cold cache, and a warm rerun reports them all as cache hits.
#[test]
fn batch_evaluation_count_is_union_times_measures_and_warm_reruns_hit_cache() {
    let to_half = passage(0, "q2>=1");
    let to_end = passage(0, "q3>=1");
    let back_home = passage(1, "q0>=1");
    let ts = linspace(0.5, 8.0, 7);

    let mut checkpoint = std::env::temp_dir();
    checkpoint.push(format!("smp-suite-batch-ckpt-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);

    let pipeline = DistributedPipeline::new(
        InversionMethod::euler(),
        PipelineOptions {
            workers: 4,
            checkpoint_path: Some(checkpoint.clone()),
            chunk_size: 16,
            ..Default::default()
        },
    );
    let job = || {
        BatchJob::new()
            .with_measure(MeasureSpec::from_spec(
                "0->2",
                MeasureKind::Density,
                &ts,
                to_half.clone(),
            ))
            .with_measure(MeasureSpec::from_spec(
                "0->3",
                MeasureKind::Density,
                &ts,
                to_end.clone(),
            ))
            .with_measure(MeasureSpec::from_spec(
                "1->0",
                MeasureKind::Cdf,
                &ts,
                back_home.clone(),
            ))
    };

    // Cold cache: |union| × M evaluations, no hits.
    let union = SPointPlan::new(InversionMethod::euler(), &ts).len();
    let cold = pipeline.execute(job(), &InProcess::new(4)).unwrap();
    assert_eq!(cold.evaluations, union * 3);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.shared_hits, 0);
    for measure in &cold.measures {
        assert_eq!(measure.evaluations, union, "{}", measure.name);
        assert_eq!(measure.cache_hits, 0);
    }
    // Chunked dispatch: ceil(union × 3 / 16) chunks, counted consistently by
    // master and workers.
    assert_eq!(cold.chunk_size, 16);
    assert_eq!(cold.chunks_dispatched, (union * 3).div_ceil(16));
    let worker_messages: usize = cold.report.worker_stats.iter().map(|w| w.messages).sum();
    assert_eq!(worker_messages, cold.chunks_dispatched);

    // Warm rerun against the checkpoint: zero evaluations, per-measure hits.
    let warm = pipeline.execute(job(), &InProcess::new(4)).unwrap();
    assert_eq!(warm.evaluations, 0);
    assert_eq!(warm.cache_hits, union * 3);
    for (cold_measure, warm_measure) in cold.measures.iter().zip(&warm.measures) {
        assert_eq!(warm_measure.cache_hits, union);
        assert_eq!(warm_measure.evaluations, 0);
        assert_eq!(warm_measure.values, cold_measure.values, "bit-identical");
    }

    // The checkpoint holds one tagged shard per measure, |union| records each.
    let shards = load_checkpoint_by_measure(&checkpoint).unwrap();
    assert_eq!(shards.len(), 3);
    for spec in [&to_half, &to_end, &back_home] {
        let key = spec.transform_key();
        assert_eq!(shards[&key].len(), union, "shard {key}");
    }
    std::fs::remove_file(&checkpoint).unwrap();
}

/// Batch results agree with the sequential single-measure analyses.
#[test]
fn batch_values_match_single_process_analysis() {
    let to_end = passage(0, "q3>=1");
    let source = to_end.model().unwrap().source();
    let net = smp_suite::dnamaca::parse_model(&source).unwrap();
    let space = StateSpace::explore(&net).unwrap();
    let targets = TargetSpec::parse("q3>=1")
        .unwrap()
        .resolve(&net, &space)
        .unwrap();
    let analysis =
        PassageTimeAnalysis::new(space.smp(), &[space.initial_state()], &targets).unwrap();
    let ts = linspace(0.4, 10.0, 20);

    let pipeline = DistributedPipeline::new(
        InversionMethod::euler(),
        PipelineOptions::with_workers(3).chunked(5),
    );
    let job = BatchJob::new()
        .with_measure(MeasureSpec::from_spec(
            "f",
            MeasureKind::Density,
            &ts,
            to_end.clone(),
        ))
        .with_measure(MeasureSpec::from_spec("F", MeasureKind::Cdf, &ts, to_end));
    let batch = pipeline.execute(job, &InProcess::new(3)).unwrap();

    let density = analysis.density(InversionMethod::euler(), &ts).unwrap();
    for (a, b) in batch
        .measure("f")
        .unwrap()
        .values
        .iter()
        .zip(density.values())
    {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    let cdf = analysis.cdf(InversionMethod::euler(), &ts).unwrap();
    for (a, b) in batch.measure("F").unwrap().values.iter().zip(cdf.values()) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
    // The shared transform key halves the work.
    assert_eq!(batch.measure("F").unwrap().evaluations, 0);
    assert_eq!(
        batch.measure("F").unwrap().shared_hits,
        batch.measure("f").unwrap().evaluations
    );
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

    let pipeline = DistributedPipeline::new(
        InversionMethod::euler(),
        PipelineOptions {
            workers: 2,
            checkpoint_path: Some(checkpoint.clone()),
            ..Default::default()
        },
    );
    let erlang = |phases| TransformSpec::Analytic(DistSpec::Erlang { rate: 2.0, phases });
    let run = |phases: u32| {
        let measure = MeasureSpec::from_spec("d", MeasureKind::Density, &ts, erlang(phases));
        pipeline
            .execute(BatchJob::new().with_measure(measure), &InProcess::new(2))
            .unwrap()
    };

    // A single-measure run writes its records…
    let two = run(2);
    assert!(two.evaluations > 0);
    // …a run under another key appends to the same file…
    let three = run(3);
    assert_eq!(three.evaluations, two.evaluations); // distinct shard: re-evaluated

    // …and both shards restore: a second run under either key is all cache
    // hits.
    let two_again = run(2);
    assert_eq!(two_again.evaluations, 0);
    assert_eq!(two_again.cache_hits, two.evaluations);
    let three_again = run(3);
    assert_eq!(three_again.evaluations, 0);
    assert_eq!(three_again.measures[0].cache_hits, two.evaluations);

    let shards = load_checkpoint_by_measure(&checkpoint).unwrap();
    assert_eq!(shards.len(), 2, "one shard per transform key");
    std::fs::remove_file(&checkpoint).unwrap();
}
