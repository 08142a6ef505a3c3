//! The chaos matrix: deterministic fault schedules crossed with deployment
//! shapes, every cell demanding **bitwise** identity with the fault-free run.
//!
//! The fault layer never reads a clock or OS entropy — a [`FaultPlan`] is a
//! pure function of `(seed, op counter)` — so each cell here replays exactly:
//! the same drops, corruptions and disconnects land on the same messages on
//! every run, and the recovery machinery (requeue, re-shard, mid-point
//! snapshot resume, checksummed frame refusal) must absorb them without
//! perturbing one ulp of any reported value.
//!
//! Deployments covered: the unsharded distributed engine's chunk dispatch
//! over faulty links, a sharded slice fleet over faulty links, the query service
//! behind a retrying client, and — the crash-recovery acceptance cell — a
//! master "killed" mid-solve whose restart resumes from the per-shard
//! checkpoint instead of starting cold.

mod corpus;

use corpus::measures;
use smp_suite::core::query::{Engine, MeasureReport, MeasureRequest};
use smp_suite::core::TargetSpec;
use smp_suite::laplace::{InversionMethod, SPointPlan};
use smp_suite::numeric::stats::linspace;
use smp_suite::numeric::Complex64;
use smp_suite::pipeline::checkpoint::{shard_snapshot_path, CheckpointWriter, ShardSnapshot};
use smp_suite::pipeline::server::encode_query_reply;
use smp_suite::pipeline::wire::{read_payload, write_payload};
use smp_suite::pipeline::{
    query_with_retry, run_tcp_worker, AnalyticEngine, CompiledModelSet, DistributedEngine,
    FaultKind, FaultPlan, FaultyLink, Link, LoopbackLink, ModelSpec, PipelineError,
    PipelineOptions, PoolSpec, QueryClient, QueryReply, QueryRequest, QueryServer,
    QueryServerOptions, Refusal, RefusalKind, RetryPolicy, SliceFleet, SolveRecovery, TcpLink,
    TcpTransport, TcpWorkerOptions, TransformSpec,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// The matrix's model: the paper's voting system at 3,1,1 — small enough
/// that every cell solves in test time, structured enough that drops,
/// corruptions and disconnects all land mid-computation.
fn model() -> ModelSpec {
    ModelSpec::Voting {
        voters: 3,
        polling: 1,
        central: 1,
    }
}

fn target() -> TargetSpec {
    TargetSpec::parse("p2>=2").unwrap()
}

/// Bitwise equality: `to_bits` comparison so that −0.0 vs +0.0 and NaN
/// payload differences fail loudly instead of slipping through an `==`.
fn assert_bitwise(label: &str, faulty: &[MeasureReport], baseline: &[MeasureReport]) {
    assert_eq!(faulty.len(), baseline.len(), "{label}: report count");
    for (a, b) in faulty.iter().zip(baseline) {
        assert_eq!(a.name, b.name, "{label}: battery order");
        assert_eq!(a.points.len(), b.points.len(), "{label}: {}", a.name);
        for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {} value {i}: {x:e} vs {y:e}",
                a.name
            );
        }
        for (i, (x, y)) in a.points.iter().zip(&b.points).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {} point {i}: {x:e} vs {y:e}",
                a.name
            );
        }
    }
}

/// Wraps every link so that all of them consult one fault plan (a single op
/// counter across the fleet).
fn faulty<L: Link + 'static>(
    links: impl Iterator<Item = L>,
    plan: &Arc<std::sync::Mutex<FaultPlan>>,
) -> Vec<Box<dyn Link>> {
    links
        .map(|link| Box::new(FaultyLink::new(Box::new(link), Arc::clone(plan))) as Box<dyn Link>)
        .collect()
}

/// Handshaken links to `workers` real worker loops (threads running what
/// `smpq worker --connect` runs) over real sockets.
fn tcp_workers(workers: usize) -> Vec<TcpLink> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accept = |_| {
        let addr = addr.clone();
        std::thread::spawn(move || run_tcp_worker(&addr, &TcpWorkerOptions::default()));
        let accepted = TcpLink::accept(&listener, Duration::from_secs(30), &mut || true);
        accepted.unwrap().expect("the worker dials in").0
    };
    (0..workers).map(accept).collect()
}

/// Cell row 1: the unsharded distributed engine's production chunk dispatch
/// over fault-injecting links.  Scripted drops, corruptions, delays and a
/// seeded background schedule — every schedule's full six-measure battery
/// must equal the fault-free battery bit for bit, and the lossy schedules
/// must visibly flow through the recovery path a real lost worker takes: the
/// link is given up and its chunk in flight requeued onto the survivors.
#[test]
fn faulty_transport_schedules_are_bitwise_invisible_to_the_engine() {
    let ts = linspace(2.0, 40.0, 5);
    let requests = measures("p2>=2", &ts);
    let baseline = AnalyticEngine::new(model(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    let schedules: Vec<(&str, FaultPlan)> = vec![
        ("fault-free control", FaultPlan::none()),
        (
            "scripted drop",
            FaultPlan::scripted([(0, FaultKind::DropFrame)]),
        ),
        (
            "scripted corruption",
            FaultPlan::scripted([(1, FaultKind::CorruptByte { xor: 0x20 })]),
        ),
        (
            "scripted delay",
            FaultPlan::scripted([(2, FaultKind::Delay { millis: 1 })]),
        ),
        (
            "drop+corrupt+disconnect",
            FaultPlan::scripted([
                (0, FaultKind::DropFrame),
                (3, FaultKind::CorruptByte { xor: 0x01 }),
                (5, FaultKind::Disconnect),
            ]),
        ),
        (
            "seeded background",
            FaultPlan::seeded(0xabad_1dea, 5).with_budget(8),
        ),
    ];

    for (label, plan) in schedules {
        let lossy = !matches!(label, "fault-free control" | "scripted delay");
        // Ten workers against a fault budget of at most eight: a fault can
        // cost the fleet one link, so every schedule leaves survivors.
        let shared = Arc::new(std::sync::Mutex::new(plan));
        let engine = DistributedEngine::with_transport(
            model(),
            InversionMethod::euler(),
            PipelineOptions::with_workers(2),
            Box::new(TcpTransport::from_links(faulty(
                tcp_workers(10).into_iter(),
                &shared,
            ))),
        );
        let reports = engine.solve(&requests).unwrap();
        assert_bitwise(label, &reports, &baseline);
        if lossy {
            let recovered: u64 = reports.iter().map(|r| r.provenance.recovered_faults).sum();
            let retried: u64 = reports.iter().map(|r| r.provenance.retries).sum();
            assert!(
                recovered > 0,
                "{label}: the schedule injected nothing — the cell tests no fault"
            );
            assert!(
                retried > 0,
                "{label}: swallowed results must be re-executed"
            );
        }
    }
}

/// Cell row 2: a sharded slice fleet whose links inject the plan's
/// faults.  Dropped frames poison the link (a silent gap would desync the
/// lockstep exchange), corrupted frames are refused by the checksum, and
/// either way the fleet re-shards and redoes the point — the values must
/// match the local compiled evaluator exactly.
#[test]
fn faulty_slice_channels_leave_sharded_values_untouched() {
    let spec = TransformSpec::passage(model(), target());
    let ts = linspace(2.0, 40.0, 5);
    let plan = SPointPlan::new(InversionMethod::euler(), &ts);
    let set = CompiledModelSet::compile(std::slice::from_ref(&spec)).unwrap();
    let evaluator = set.evaluator(0).unwrap();
    let expected: Vec<Complex64> = plan
        .s_points()
        .iter()
        .map(|&s| evaluator.transform_at(s).unwrap().value)
        .collect();

    let schedules: Vec<FaultPlan> = vec![
        FaultPlan::scripted([(9, FaultKind::DropFrame)]),
        FaultPlan::scripted([(14, FaultKind::CorruptByte { xor: 0x55 })]),
        FaultPlan::scripted([(21, FaultKind::Disconnect)]),
        // A background schedule over a 4-shard fleet needs a budget under
        // the shard count: each fault can cost at most one worker.
        FaultPlan::seeded(0xdead_beef, 41).with_budget(3),
    ];
    for plan_cell in schedules {
        let shared = Arc::new(std::sync::Mutex::new(plan_cell));
        let shards = (0..4).map(|_| LoopbackLink::new());
        let mut fleet = SliceFleet::from_links(faulty(shards, &shared));
        let mut recovery = SolveRecovery {
            key: "passage".to_string(),
            snapshot_every: 4,
            ..SolveRecovery::default()
        };
        let out = fleet
            .solve_recoverable(&spec, plan.s_points(), &mut recovery)
            .unwrap();
        let injected = shared.lock().unwrap().injected();
        for (i, (got, want)) in out.values.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.re.to_bits(),
                want.re.to_bits(),
                "point {i} re under {injected} injected fault(s)"
            );
            assert_eq!(
                got.im.to_bits(),
                want.im.to_bits(),
                "point {i} im under {injected} injected fault(s)"
            );
        }
        assert!(injected > 0, "the schedule must actually fire");
        assert!(
            out.recovered_faults > 0,
            "faults must flow through recovery, not vanish"
        );
    }
}

/// Cell row 3a: a retrying client against a server that refuses twice with
/// `Busy` before answering — fully scripted, so the retry count is exact.
/// The eventual answer must be the untouched baseline and the spent retries
/// must surface in the first report's provenance.
#[test]
fn query_retries_absorb_busy_refusals_and_count_them() {
    let ts = linspace(2.0, 20.0, 3);
    let requests = vec![
        MeasureRequest::cdf(target(), &ts),
        MeasureRequest::density(target(), &ts),
    ];
    let baseline = AnalyticEngine::new(model(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let reply = baseline.clone();
    let server = std::thread::spawn(move || {
        // Two Busy refusals, then the real answer — the deterministic stand-in
        // for a server draining its admission queue.
        for attempt in 0..3 {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_payload(&mut stream).unwrap();
            let payload = if attempt < 2 {
                encode_query_reply(&QueryReply::Refusal(Refusal {
                    kind: RefusalKind::Busy,
                    message: "admission queue full".to_string(),
                }))
            } else {
                encode_query_reply(&QueryReply::Reports(reply.clone()))
            };
            write_payload(&mut stream, &payload).unwrap();
        }
    });

    let request = QueryRequest {
        model: model(),
        engine: "analytic".to_string(),
        method: "euler".to_string(),
        deadline: None,
        t_points: ts.clone(),
        measures: vec!["cdf:p2>=2".to_string(), "density:p2>=2".to_string()],
    };
    let policy = RetryPolicy {
        retries: 5,
        backoff: Duration::from_millis(1),
    };
    let reports = query_with_retry(&addr, &request, &policy).unwrap();
    server.join().unwrap();

    assert_bitwise("busy-refusal retry", &reports, &baseline);
    assert_eq!(
        reports[0].provenance.retries, 2,
        "exactly the two scripted refusals were retried"
    );
}

/// Cell row 3b: the real query service.  The daemon binds, a retrying client
/// asks the six-measure battery, and the served values must equal a local
/// analytic solve bit for bit; a clean shutdown drains the daemon.
#[test]
fn served_queries_survive_retry_policies_without_changing_values() {
    let ts = linspace(2.0, 20.0, 3);
    let requests = vec![
        MeasureRequest::cdf(target(), &ts),
        MeasureRequest::density(target(), &ts),
    ];
    let baseline = AnalyticEngine::new(model(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    let server = QueryServer::bind(QueryServerOptions {
        listen: "127.0.0.1:0".to_string(),
        pool: PoolSpec::InProcess(2),
        max_inflight: 1,
        max_queued: 2,
        ..QueryServerOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let request = QueryRequest {
        model: model(),
        engine: "analytic".to_string(),
        method: "euler".to_string(),
        deadline: None,
        t_points: ts.clone(),
        measures: vec!["cdf:p2>=2".to_string(), "density:p2>=2".to_string()],
    };
    let policy = RetryPolicy {
        retries: 10,
        backoff: Duration::from_millis(10),
    };
    let reports = query_with_retry(&addr, &request, &policy).unwrap();
    assert_bitwise("served battery", &reports, &baseline);

    QueryClient::connect(&addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// The crash-recovery acceptance cell: a sharded master is "killed" after
/// checkpointing two of its points (its in-flight third point has a mid-
/// iteration snapshot in the sidecar).  A fresh engine pointed at the same
/// checkpoint must redo only the missing points, resume the interrupted one
/// mid-iteration, and deliver the fault-free bits.
#[test]
fn a_killed_sharded_master_resumes_from_the_per_shard_checkpoint() {
    let ts = linspace(2.0, 40.0, 5);
    let requests = vec![MeasureRequest::cdf(target(), &ts)];
    let baseline = AnalyticEngine::new(model(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    let plan = SPointPlan::new(InversionMethod::euler(), &ts);
    let spec = TransformSpec::passage(model(), target());
    let key = spec.transform_key();

    let mut checkpoint = std::env::temp_dir();
    checkpoint.push(format!(
        "smp-chaos-killed-master-{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&checkpoint);
    let sidecar = shard_snapshot_path(&checkpoint);
    let _ = std::fs::remove_file(&sidecar);

    // Run 1: the doomed master.  It checkpoints its first two points, then
    // dies inside the third — exactly what a kill -9 leaves on disk: a
    // checkpoint of the finished points plus a sidecar snapshot of the
    // in-flight iterate.
    {
        let mut writer = CheckpointWriter::open(&checkpoint).unwrap();
        let mut fleet = SliceFleet::loopback(3);
        let mut seen = 0usize;
        let mut on_value = |s: Complex64, value: Complex64| -> std::io::Result<()> {
            if seen == 2 {
                return Err(std::io::Error::other("simulated master kill"));
            }
            writer.record_tagged(&key, s, value)?;
            seen += 1;
            Ok(())
        };
        let mut recovery = SolveRecovery {
            key: key.clone(),
            snapshot_path: Some(sidecar.clone()),
            snapshot_every: 2,
            on_value: Some(&mut on_value),
            ..SolveRecovery::default()
        };
        let err = fleet
            .solve_recoverable(&spec, plan.s_points(), &mut recovery)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Io(_)), "{err:?}");
    }
    let seed = ShardSnapshot::load(&sidecar)
        .unwrap()
        .expect("the killed run left its in-flight iterate behind");
    assert_eq!(seed.key, key);
    assert!(seed.round > 0, "the snapshot holds a mid-iteration state");
    assert_eq!(
        seed.s.re.to_bits(),
        plan.s_points()[2].re.to_bits(),
        "the sidecar snapshots the third (interrupted) point"
    );

    // Run 2: the restarted master — same checkpoint path, fresh fleet.  It
    // must pre-seed the two finished points, resume the third from the
    // snapshot's round, and agree with the fault-free analytic run bitwise.
    let engine = DistributedEngine::sharded(
        model(),
        InversionMethod::euler(),
        PipelineOptions {
            checkpoint_path: Some(checkpoint.clone()),
            ..PipelineOptions::default()
        },
        3,
    );
    let reports = engine.solve(&requests).unwrap();
    assert_bitwise("killed-master resume", &reports, &baseline);

    let recovered = &reports[0].provenance;
    assert_eq!(
        recovered.evaluations,
        plan.len() - 2,
        "only the points the crash interrupted are redone"
    );
    assert!(
        recovered.evaluations < plan.len(),
        "a resumed run redoes fewer points than a cold run"
    );
    assert!(
        recovered.cache_hits >= 2,
        "the two checkpointed points are restored, not recomputed"
    );
    assert_eq!(
        recovered.resumed_rounds, seed.round,
        "the interrupted point resumed mid-iteration, skipping its finished rounds"
    );
    assert!(
        ShardSnapshot::load(&sidecar).unwrap().is_none(),
        "a clean completion consumes the sidecar snapshot"
    );

    std::fs::remove_file(&checkpoint).ok();
    std::fs::remove_file(&sidecar).ok();
}
