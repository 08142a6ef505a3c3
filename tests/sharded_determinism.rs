//! The shard-boundary determinism suite: row-sharding must be invisible in
//! the numbers.
//!
//! Every `tests/corpus/` model plus the larger voting 5,2,2 system is solved
//! with the full six-kind measure battery at shard counts {1, 2, 3, 4} and
//! compared **bitwise** against the unsharded analytic path — the block
//! boundaries are a pure function of the state count, each slice scatters
//! its stored rows through the unsharded kernel's own inner loop
//! (`scatter_row`) entry for entry in row order, and
//! halo entries are exchanged as exact bit patterns, so no shard count may
//! perturb even the last ulp of any value.
//!
//! The suite also kills a TCP shard worker mid-solve and checks that the
//! master reshards the model onto the survivors and still produces the very
//! same bits: the shard layout is derived state, so losing a worker changes
//! only who holds which rows, never what the rows say.

mod corpus;

use corpus::{corpus, measures, CorpusModel};
use smp_suite::core::query::{Engine, MeasureReport};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{
    run_tcp_worker, AnalyticEngine, DistributedEngine, ModelSpec, PipelineOptions, TcpTransport,
    TcpWorkerOptions,
};
use std::time::Duration;

/// The corpus plus the paper's larger voting configuration (5 voters, 2
/// polling units, 2 central servers) — big enough that every shard count in
/// {1..4} produces non-trivial, unequal row blocks.
fn suite_models() -> Vec<CorpusModel> {
    let mut models = corpus();
    models.push(CorpusModel {
        name: "voting-5-2-2",
        spec: ModelSpec::Voting {
            voters: 5,
            polling: 2,
            central: 2,
        },
        all_exponential: false,
        target: "p2>=2",
        t_start: 2.0,
        t_stop: 40.0,
    });
    models
}

/// Bitwise equality: `to_bits` comparison so that −0.0 vs +0.0 and NaN
/// payload differences fail loudly instead of slipping through an `==`.
fn assert_bitwise(label: &str, sharded: &[MeasureReport], baseline: &[MeasureReport]) {
    assert_eq!(sharded.len(), baseline.len(), "{label}: report count");
    for (s, b) in sharded.iter().zip(baseline) {
        assert_eq!(s.name, b.name, "{label}: battery order");
        assert_eq!(s.points.len(), b.points.len(), "{label}: {}", s.name);
        for (i, (x, y)) in s.values.iter().zip(&b.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {} value {i}: {x:e} vs {y:e}",
                s.name
            );
        }
        for (i, (x, y)) in s.points.iter().zip(&b.points).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {} point {i}: {x:e} vs {y:e}",
                s.name
            );
        }
    }
}

#[test]
fn every_shard_count_is_bitwise_identical_to_the_unsharded_analytic_path() {
    for model in suite_models() {
        let ts = linspace(model.t_start, model.t_stop, 5);
        let requests = measures(model.target, &ts);
        let baseline = AnalyticEngine::new(model.spec.clone(), InversionMethod::euler())
            .solve(&requests)
            .unwrap();

        for shards in 1..=4usize {
            let engine = DistributedEngine::sharded(
                model.spec.clone(),
                InversionMethod::euler(),
                PipelineOptions::with_workers(2),
                shards,
            );
            let reports = engine.solve(&requests).unwrap();
            let label = format!("{} @ {shards} shard(s)", model.name);
            assert_bitwise(&label, &reports, &baseline);

            // The memory claim: the row blocks partition the state space —
            // the per-shard counts sum to the full model and no slice exceeds
            // the ⌈N/shards⌉ block ceiling.
            let first = &reports[0].provenance;
            let states = first.states.expect("sharded runs report the state count");
            assert_eq!(first.shards, shards, "{label}");
            assert_eq!(first.shard_states.len(), shards, "{label}");
            assert_eq!(first.shard_states.iter().sum::<usize>(), states, "{label}");
            let ceiling = states.div_ceil(shards);
            assert!(
                first.shard_states.iter().all(|&n| n <= ceiling),
                "{label}: {:?} exceeds ⌈{states}/{shards}⌉ = {ceiling}",
                first.shard_states
            );
            if shards > 1 {
                assert!(first.halo_bytes > 0, "{label}: no boundary exchange?");
                assert!(first.exchange_rounds > 0, "{label}");
            }
        }
    }
}

#[test]
fn a_killed_tcp_shard_worker_is_resharded_without_changing_a_bit() {
    // Three real shard-worker sessions over TCP; worker 1 drops its link
    // after 5 slice responses, mid-solve.  The master must reshard the rows
    // onto the two survivors, redo the interrupted point, and deliver the
    // same bits as the unsharded analytic engine.
    let spec = ModelSpec::Voting {
        voters: 5,
        polling: 2,
        central: 2,
    };
    let ts = linspace(2.0, 40.0, 5);
    let requests = measures("p2>=2", &ts);
    let baseline = AnalyticEngine::new(spec.clone(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"])
        .unwrap()
        .with_accept_timeout(Duration::from_secs(10));
    let workers: Vec<_> = transport
        .local_addrs()
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let connect = addr.to_string();
            let options = TcpWorkerOptions {
                exit_after_chunks: if i == 1 { Some(5) } else { None },
                ..Default::default()
            };
            std::thread::spawn(move || run_tcp_worker(&connect, &options))
        })
        .collect();

    let engine = DistributedEngine::sharded_tcp(
        spec,
        InversionMethod::euler(),
        PipelineOptions::with_workers(3),
        transport,
    );
    let reports = engine.solve(&requests).unwrap();
    assert_bitwise(
        "voting-5-2-2 over tcp with a killed shard",
        &reports,
        &baseline,
    );

    // The reshard is visible in the provenance: the run ends on 2 shards
    // whose blocks still partition the full state space.
    let last_sharded = reports
        .iter()
        .rev()
        .find(|r| !r.provenance.shard_states.is_empty())
        .expect("a sharded report");
    let states = last_sharded.provenance.states.unwrap();
    assert_eq!(last_sharded.provenance.shard_states.len(), 2);
    assert_eq!(
        last_sharded.provenance.shard_states.iter().sum::<usize>(),
        states
    );

    // The shard holders stay resident until the engine — and with it the
    // transport that owns the fleet — drops; that is their farewell.
    drop(engine);
    let mut dropped = 0;
    for worker in workers {
        let summary = worker.join().unwrap().unwrap();
        if summary.dropped_early {
            dropped += 1;
        }
    }
    assert_eq!(dropped, 1, "exactly the injected fault");
}
