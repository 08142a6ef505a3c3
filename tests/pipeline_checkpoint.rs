//! Checkpoint / restart behaviour of the distributed pipeline on a real
//! passage-time workload — across worker counts (the protocol of Table 2)
//! and across sharded and unsharded deployments.

use smp_suite::core::query::{Engine, MeasureReport, MeasureRequest, TargetSpec};
use smp_suite::laplace::{InversionMethod, SPointPlan};
use smp_suite::numeric::stats::linspace;
use smp_suite::numeric::Complex64;
use smp_suite::pipeline::checkpoint::{shard_snapshot_path, ShardSnapshot};
use smp_suite::pipeline::transport::{ExecutionPlan, Transport};
use smp_suite::pipeline::work::WorkItem;
use smp_suite::pipeline::{
    AnalyticEngine, DistributedEngine, InProcess, ModelSpec, PipelineOptions, TransformSpec,
};
use std::path::{Path, PathBuf};

/// `voting voters,2,2` and the request for the density of the passage until
/// every voter has voted, over the grid `ts`.
fn all_voted_density(voters: u32, ts: &[f64]) -> (ModelSpec, MeasureRequest) {
    let model = ModelSpec::Voting {
        voters,
        polling: 2,
        central: 2,
    };
    let targets = TargetSpec::parse(&format!("p2>={voters}")).unwrap();
    (model, MeasureRequest::density(targets, ts))
}

#[test]
fn checkpoint_restart_recomputes_nothing_and_reproduces_results() {
    let ts = linspace(1.0, 15.0, 6);

    let mut checkpoint = std::env::temp_dir();
    checkpoint.push(format!(
        "smp-suite-integration-ckpt-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&checkpoint);

    let options = PipelineOptions {
        workers: 3,
        checkpoint_path: Some(checkpoint.clone()),
        ..Default::default()
    };
    let (model, _) = all_voted_density(3, &ts);
    let engine = DistributedEngine::in_process(model, InversionMethod::euler(), options);
    let run = |ts: &[f64]| -> MeasureReport {
        let (_, request) = all_voted_density(3, ts);
        engine.solve(&[request]).unwrap().remove(0)
    };
    let first = run(&ts);
    assert!(first.provenance.evaluations > 0);
    assert_eq!(first.provenance.cache_hits, 0);

    // A second run against the same checkpoint file must do no transform work at
    // all and produce bit-identical output.
    let second = run(&ts);
    assert_eq!(second.provenance.evaluations, 0);
    assert_eq!(second.provenance.cache_hits, first.provenance.evaluations);
    assert_eq!(first.values, second.values);

    // Extending the time grid reuses the checkpointed points that overlap (here the
    // shared t = 1.0 contributes one t-point's worth of s-values) and only computes
    // the new ones.
    let extended = linspace(1.0, 20.0, 8);
    let third = run(&extended);
    let per_t_point = first.provenance.evaluations / ts.len();
    assert_eq!(third.provenance.cache_hits, per_t_point);
    assert_eq!(
        third.provenance.evaluations,
        (extended.len() - 1) * per_t_point
    );

    std::fs::remove_file(&checkpoint).unwrap();
}

#[test]
fn scalability_sweep_runs_the_table2_protocol() {
    // 5 t-points, as in the paper's Table 2 workload.
    let ts: Vec<f64> = (1..=5).map(|k| k as f64 * 3.0).collect();
    let (model, request) = all_voted_density(4, &ts);

    // The protocol: the same plan, one point per message, solved with an
    // increasing worker count.  Every row does the same work and — the
    // property the speedup column rests on — produces the same bits.
    let rows: Vec<MeasureReport> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let options = PipelineOptions::with_workers(workers).chunked(1);
            DistributedEngine::in_process(model.clone(), InversionMethod::euler(), options)
                .solve(std::slice::from_ref(&request))
                .unwrap()
                .remove(0)
        })
        .collect();

    assert_eq!(rows.len(), 3);
    for (row, workers) in rows.iter().zip([1usize, 2, 4]) {
        let p = &row.provenance;
        assert!(p.wall.as_secs_f64() > 0.0);
        assert_eq!(p.workers, workers);
        assert_eq!(p.evaluations, rows[0].provenance.evaluations);
        assert_eq!(p.messages, p.evaluations, "one message per point");
        assert_eq!(row.values, rows[0].values);
    }

    // Every one of a row's threads takes a share of the queue: the row's
    // plan handed to the thread backend directly.
    let spec = TransformSpec::passage(model, request.target.clone());
    for workers in [1usize, 2, 4] {
        let s_points = SPointPlan::new(InversionMethod::euler(), &ts)
            .s_points()
            .to_vec();
        let items = s_points.iter().enumerate();
        let plan = ExecutionPlan {
            specs: vec![&spec],
            items: items
                .map(|(index, &s)| WorkItem {
                    measure: 0,
                    index,
                    s,
                })
                .collect(),
            chunk_size: 1,
            method: "euler".to_string(),
        };
        let report = InProcess::new(workers).execute(plan, &mut |_| {}).unwrap();
        assert_eq!(report.worker_stats.len(), workers);
        assert_eq!(report.messages, rows[0].provenance.evaluations);
    }
}

fn voting_311() -> ModelSpec {
    ModelSpec::Voting {
        voters: 3,
        polling: 1,
        central: 1,
    }
}

fn temp_checkpoint(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("smp-suite-ckpt-{tag}-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(shard_snapshot_path(&path));
    path
}

/// A distributed engine over `checkpoint`: two loopback row shards, or two
/// worker threads.
fn checkpointed_engine(sharded: bool, checkpoint: &Path) -> DistributedEngine {
    let options = PipelineOptions {
        workers: 2,
        checkpoint_path: Some(checkpoint.to_path_buf()),
        ..Default::default()
    };
    if sharded {
        DistributedEngine::sharded(voting_311(), InversionMethod::euler(), options, 2)
    } else {
        DistributedEngine::in_process(voting_311(), InversionMethod::euler(), options)
    }
}

#[test]
fn a_checkpoint_warms_sharded_and_unsharded_runs_of_one_measure_alike() {
    let ts = linspace(2.0, 40.0, 5);
    let target = TargetSpec::parse("p2>=2").unwrap();
    // A curve and a mean: the stencil's two points are checkpointed under
    // the same key as the curve's, so both are restored.
    let requests = [
        MeasureRequest::cdf(target.clone(), &ts),
        MeasureRequest::mean(target),
    ];
    for written_sharded in [false, true] {
        let checkpoint = temp_checkpoint(if written_sharded { "s2u" } else { "u2s" });
        let cold = checkpointed_engine(written_sharded, &checkpoint)
            .solve(&requests)
            .unwrap();
        assert!(cold[0].provenance.evaluations > 0);
        assert_eq!(cold[1].provenance.evaluations, 2);
        // The other deployment reads the same records under the same key.
        let warm = checkpointed_engine(!written_sharded, &checkpoint)
            .solve(&requests)
            .unwrap();
        for (warm, cold) in warm.iter().zip(&cold) {
            let name = &warm.name;
            assert_eq!(
                warm.provenance.evaluations, 0,
                "{name}, sharded={written_sharded}"
            );
            assert_eq!(
                warm.provenance.cache_hits, cold.provenance.evaluations,
                "{name}"
            );
            assert_eq!(warm.provenance.exchange_rounds, 0, "{name}");
            assert_eq!(warm.values, cold.values, "{name}: bitwise equal");
        }
        std::fs::remove_file(&checkpoint).unwrap();
    }
}

#[test]
fn a_shard_sidecar_left_by_another_measure_is_never_resumed_from() {
    let ts = linspace(2.0, 40.0, 5);
    let requests = [MeasureRequest::cdf(
        TargetSpec::parse("p2>=2").unwrap(),
        &ts,
    )];
    let baseline = AnalyticEngine::new(voting_311(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    // A well-formed snapshot of this run's very first point, but stamped with
    // another measure's key and holding an iterate that would wreck the value.
    let checkpoint = temp_checkpoint("stale-sidecar");
    let sidecar = shard_snapshot_path(&checkpoint);
    ShardSnapshot {
        key: "m0000000000000000:passage:other>=1".to_string(),
        s: SPointPlan::new(InversionMethod::euler(), &ts).s_points()[0],
        round: 3,
        total: Complex64::new(42.0, -42.0),
        quiet: 0,
        last_delta: 1.0,
        entries: vec![(0, Complex64::new(7.0, 7.0))],
    }
    .save(&sidecar)
    .unwrap();

    let report = checkpointed_engine(true, &checkpoint)
        .solve(&requests)
        .unwrap()
        .remove(0);
    assert_eq!(report.values, baseline[0].values, "the point started cold");
    assert_eq!(report.provenance.resumed_rounds, 0);
    assert!(
        ShardSnapshot::load(&sidecar).unwrap().is_none(),
        "a clean completion clears the sidecar"
    );
    std::fs::remove_file(&checkpoint).unwrap();
}
