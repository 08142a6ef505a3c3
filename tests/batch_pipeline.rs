//! Batched multi-measure pipeline runs on a real semi-Markov workload:
//! union planning, per-measure cache-hit accounting, chunked dispatch, and the
//! measure-tagged checkpoint format.

use smp_suite::core::{PassageTimeSolver, SmpBuilder};
use smp_suite::distributions::Dist;
use smp_suite::laplace::{InversionMethod, SPointPlan};
use smp_suite::numeric::stats::linspace;
use smp_suite::numeric::Complex64;
use smp_suite::pipeline::checkpoint::load_checkpoint_by_measure;
use smp_suite::pipeline::{BatchJob, DistributedPipeline, MeasureSpec, PipelineOptions};

fn tandem_smp() -> smp_suite::core::SemiMarkovProcess {
    let mut b = SmpBuilder::new(4);
    b.add_transition(0, 1, 1.0, Dist::erlang(2.0, 2));
    b.add_transition(1, 2, 1.0, Dist::uniform(0.2, 1.0));
    b.add_transition(2, 3, 1.0, Dist::exponential(1.5));
    b.add_transition(3, 0, 1.0, Dist::deterministic(0.3));
    b.build().unwrap()
}

/// The ISSUE's acceptance criterion: M measures sharing a t-grid (with
/// distinct transforms) evaluate exactly |union of planned s-points| × M
/// points on a cold cache, and a warm rerun reports them all as cache hits.
#[test]
fn batch_evaluation_count_is_union_times_measures_and_warm_reruns_hit_cache() {
    let smp = tandem_smp();
    let to_half = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
    let to_end = PassageTimeSolver::new(&smp, &[0], &[3]).unwrap();
    let back_home = PassageTimeSolver::new(&smp, &[1], &[0]).unwrap();
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
    fn passage<'a>(
        solver: &'a PassageTimeSolver<'a>,
    ) -> impl Fn(Complex64) -> Result<Complex64, String> + Sync + 'a {
        move |s| {
            solver
                .transform_at(s)
                .map(|p| p.value)
                .map_err(|e| e.to_string())
        }
    }
    let job = || {
        BatchJob::new()
            .with_measure(MeasureSpec::density("0->2", &ts, passage(&to_half)))
            .with_measure(MeasureSpec::density("0->3", &ts, passage(&to_end)))
            .with_measure(MeasureSpec::cdf("1->0", &ts, passage(&back_home)))
    };

    // Cold cache: |union| × M evaluations, no hits.
    let union = SPointPlan::new(InversionMethod::euler(), &ts).len();
    let cold = pipeline.run_batch(job()).unwrap();
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
    let warm = pipeline.run_batch(job()).unwrap();
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
    for key in ["0->2", "0->3", "1->0"] {
        assert_eq!(shards[key].len(), union, "shard {key}");
    }
    std::fs::remove_file(&checkpoint).unwrap();
}

/// Batch results agree with the sequential single-measure analyses.
#[test]
fn batch_values_match_single_process_analysis() {
    use smp_suite::core::PassageTimeAnalysis;
    let smp = tandem_smp();
    let analysis = PassageTimeAnalysis::new(&smp, &[0], &[3]).unwrap();
    let solver = PassageTimeSolver::new(&smp, &[0], &[3]).unwrap();
    let ts = linspace(0.4, 10.0, 20);

    let pipeline = DistributedPipeline::new(
        InversionMethod::euler(),
        PipelineOptions::with_workers(3).chunked(5),
    );
    let evaluator = |s: Complex64| {
        solver
            .transform_at(s)
            .map(|p| p.value)
            .map_err(|e| e.to_string())
    };
    let batch = pipeline
        .run_batch(
            BatchJob::new()
                .with_measure(
                    MeasureSpec::density("f", &ts, evaluator).with_transform_key("passage"),
                )
                .with_measure(MeasureSpec::cdf("F", &ts, evaluator).with_transform_key("passage")),
        )
        .unwrap();

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
    let d = Dist::erlang(2.0, 2);
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
    let evaluator = {
        let d = d.clone();
        move |s: Complex64| Ok::<_, String>(d.lst(s))
    };
    let run = |name: &str| {
        pipeline
            .run_batch(BatchJob::new().with_measure(MeasureSpec::density(name, &ts, &evaluator)))
            .unwrap()
    };

    // A single-measure run writes its records…
    let single = run("single");
    assert!(single.evaluations > 0);
    // …a run under another key appends to the same file…
    let batch = run("erlang");
    assert_eq!(batch.evaluations, single.evaluations); // distinct shard: re-evaluated

    // …and both shards restore: a second run under either key is all cache
    // hits.
    let single_again = run("single");
    assert_eq!(single_again.evaluations, 0);
    assert_eq!(single_again.cache_hits, single.evaluations);
    let batch_again = run("erlang");
    assert_eq!(batch_again.evaluations, 0);
    assert_eq!(batch_again.measures[0].cache_hits, single.evaluations);

    let shards = load_checkpoint_by_measure(&checkpoint).unwrap();
    assert_eq!(shards.len(), 2, "'single' shard + 'erlang' shard");
    std::fs::remove_file(&checkpoint).unwrap();
}
