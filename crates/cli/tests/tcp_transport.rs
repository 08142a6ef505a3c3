//! End-to-end TCP transport tests with **real worker processes**.
//!
//! These are the acceptance tests of the transport redesign: the voting model
//! solved over [`TcpTransport`] with two `smpq worker` processes on localhost
//! must produce bitwise-identical densities/CDF values to the in-process
//! backend, and a mid-run worker disconnect must be survived by requeueing the
//! dead worker's outstanding chunk onto the survivor.

use smp_core::query::{Engine, MeasureRequest};
use smp_laplace::InversionMethod;
use smp_numeric::stats::linspace;
use smp_pipeline::{
    AnalyticEngine, BatchJob, DistributedEngine, DistributedPipeline, InProcess, MeasureKind,
    MeasureSpec, ModelSpec, PipelineOptions, TargetSpec, TcpTransport, TransformSpec,
};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn spawn_worker(addr: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_smpq"))
        .arg("worker")
        .arg("--connect")
        .arg(addr)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smpq worker")
}

fn voting_model() -> ModelSpec {
    ModelSpec::Voting {
        voters: 3,
        polling: 1,
        central: 1,
    }
}

/// The three-measure voting job of the walkthrough: density and CDF of the
/// same passage (shared transform key) plus a transient probability.
fn voting_job(ts: &[f64]) -> BatchJob<'static> {
    let targets = TargetSpec::parse("p2>=2").unwrap();
    let passage = TransformSpec::passage(voting_model(), targets.clone());
    let transient = TransformSpec::transient(voting_model(), targets);
    BatchJob::new()
        .with_measure(MeasureSpec::from_spec(
            "density:p2>=2",
            MeasureKind::Density,
            ts,
            passage.clone(),
        ))
        .with_measure(MeasureSpec::from_spec(
            "cdf:p2>=2",
            MeasureKind::Cdf,
            ts,
            passage,
        ))
        .with_measure(MeasureSpec::from_spec(
            "transient:p2>=2",
            MeasureKind::Transient,
            ts,
            transient,
        ))
}

fn finish(mut child: Child) {
    let status = child.wait().expect("worker did not exit");
    assert!(status.success(), "worker exited with {status:?}");
}

#[test]
fn voting_over_tcp_is_bitwise_identical_to_in_process() {
    let ts = linspace(2.0, 20.0, 3);
    let pipeline =
        DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(2));

    // Reference: the in-process backend (threads) over the same spec job.
    let reference = pipeline
        .execute(voting_job(&ts), &InProcess::new(2))
        .unwrap();
    assert_eq!(reference.backend, "in-process");

    // Two real worker processes dial the master's rendezvous listeners.
    let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0"])
        .unwrap()
        .with_accept_timeout(Duration::from_secs(60));
    let children: Vec<Child> = transport
        .local_addrs()
        .iter()
        .map(|addr| spawn_worker(&addr.to_string(), &[]))
        .collect();
    let over_tcp = pipeline.execute(voting_job(&ts), &transport).unwrap();
    assert_eq!(over_tcp.backend, "tcp");
    assert_eq!(over_tcp.report.disconnects, 0);
    assert!(over_tcp.report.bytes_on_wire > 0);

    // Bitwise-identical inversions: every measure, every t-point.
    assert_eq!(reference.measures.len(), over_tcp.measures.len());
    for (a, b) in reference.measures.iter().zip(&over_tcp.measures) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.values, b.values,
            "measure {} differs between backends",
            a.name
        );
    }
    // The CDF shared every evaluation with the density, over TCP too.
    let cdf = over_tcp.measure("cdf:p2>=2").unwrap();
    assert_eq!(cdf.evaluations, 0);
    assert_eq!(
        cdf.shared_hits,
        over_tcp.measure("density:p2>=2").unwrap().evaluations
    );

    // Closing the sockets is the workers' release.
    drop(transport);
    for child in children {
        finish(child);
    }
}

#[test]
fn every_measure_kind_is_dispatched_to_the_tcp_workers() {
    let ts = linspace(2.0, 20.0, 3);
    let target = TargetSpec::parse("p2>=2").unwrap();
    // The mean leads the batch, so the batch's wire counters are its.
    let requests = [
        MeasureRequest::mean(target.clone()),
        MeasureRequest::cdf(target.clone(), &ts),
        MeasureRequest::quantile(target.clone(), &[0.5, 0.9]).with_t_points(&ts),
        MeasureRequest::moment(target, 2),
    ];
    let reference = AnalyticEngine::new(voting_model(), InversionMethod::euler())
        .solve(&requests)
        .unwrap();

    let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0"])
        .unwrap()
        .with_accept_timeout(Duration::from_secs(60));
    let children: Vec<Child> = transport
        .local_addrs()
        .iter()
        .map(|addr| spawn_worker(&addr.to_string(), &[]))
        .collect();
    let engine = DistributedEngine::with_transport(
        voting_model(),
        InversionMethod::euler(),
        PipelineOptions::with_workers(2),
        Box::new(transport),
    );
    let reports = engine.solve(&requests).unwrap();
    // Dropping the engine closes the sockets: the workers' release.
    drop(engine);

    for (report, analytic) in reports.iter().zip(&reference) {
        assert_eq!(report.provenance.backend, "tcp", "{}", report.name);
        assert_eq!(report.points, analytic.points, "{}", report.name);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&report.values),
            bits(&analytic.values),
            "{}",
            report.name
        );
    }
    // The stencils and every quantile round went over the wire.
    assert!(reports[0].provenance.messages > 0, "mean");
    assert_eq!(reports[0].provenance.evaluations, 2);
    assert!(reports[2].provenance.messages > 0, "quantile");
    assert_eq!(reports[3].provenance.evaluations, 3);
    for child in children {
        finish(child);
    }
}

#[test]
fn mid_run_worker_disconnect_is_survived_by_requeueing() {
    let ts = linspace(2.0, 20.0, 3);
    // Chunk size 1 so the flaky worker's outstanding chunk is a single point
    // and plenty of work remains when it vanishes.
    let pipeline = DistributedPipeline::new(
        InversionMethod::euler(),
        PipelineOptions::with_workers(2).chunked(1),
    );
    let reference = pipeline
        .execute(voting_job(&ts), &InProcess::new(2))
        .unwrap();

    let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0"])
        .unwrap()
        .with_accept_timeout(Duration::from_secs(60));
    let addrs = transport.local_addrs();
    // Worker 0 drops its connection right after answering its first chunk;
    // the chunk the master had already sent it is requeued onto worker 1 —
    // which starts only once worker 0 is gone, so it cannot drain the queue
    // before the fault lands.
    let over_tcp = std::thread::scope(|scope| {
        // The run owns the transport: its end closes the sockets, which is
        // the healthy worker's release.
        let (pipeline, ts) = (&pipeline, &ts);
        let run = scope.spawn(move || pipeline.execute(voting_job(ts), &transport));
        let mut flaky = spawn_worker(&addrs[0].to_string(), &["--exit-after-chunks", "1"]);
        let _ = flaky.wait();
        let healthy = spawn_worker(&addrs[1].to_string(), &[]);
        let over_tcp = run.join().expect("master panicked").unwrap();
        finish(flaky);
        finish(healthy);
        over_tcp
    });
    assert_eq!(over_tcp.report.disconnects, 1, "the casualty is reported");
    // …as absorbed work: the one-point chunk in flight at the lost worker
    // was requeued and finished by the survivor.
    assert_eq!(over_tcp.report.retries, 1);
    assert_eq!(over_tcp.report.recovered_faults, 1);
    for (a, b) in reference.measures.iter().zip(&over_tcp.measures) {
        assert_eq!(
            a.values, b.values,
            "measure {} differs after the disconnect",
            a.name
        );
    }
    // The flaky worker answered exactly one chunk before vanishing.
    let flaky_stats = &over_tcp.report.worker_stats[0];
    assert_eq!(flaky_stats.messages, 1);

    // The same loss through `smpq`: the absorbed fault surfaces on the
    // report's recovery line.
    let flaky: [&[&str]; 2] = [&["--exit-after-chunks", "1"], &[]];
    let (report, _, children) = run_cli_master(&["--chunk-size", "1"], flaky);
    assert!(report.contains("recovery: 1 retry"), "{report}");
    assert!(report.contains("1 fault(s) absorbed"), "{report}");
    for child in children {
        finish(child);
    }
}

/// The two-terminal walkthrough the README documents, both sides driven
/// through the CLI: an `smpq` master (the library entry point) over two
/// `smpq worker` processes started with the given extra arguments.  Returns
/// the master's report, its argument list and the worker processes.  Ports
/// are picked by binding ephemeral listeners first so the master can re-bind
/// them — another process could grab a probed port in the gap (TOCTOU), so a
/// bind failure re-probes fresh ports instead of failing the test.
fn run_cli_master(
    master_args: &[&str],
    worker_args: [&[&str]; 2],
) -> (String, Vec<String>, Vec<Child>) {
    let fixed = [
        "--voting",
        "3,1,1",
        "--measure",
        "density:p2>=2",
        "--measure",
        "cdf:p2>=2",
        "--t-start",
        "2",
        "--t-stop",
        "20",
        "--t-count",
        "3",
    ];
    let base_args: Vec<String> = fixed
        .iter()
        .chain(master_args)
        .chain(&["--workers"])
        .map(|s| s.to_string())
        .collect();

    let mut attempt = 0;
    loop {
        attempt += 1;
        let addrs: Vec<String> = (0..2)
            .map(|_| {
                let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                format!("127.0.0.1:{}", probe.local_addr().unwrap().port())
            })
            .collect();
        let mut args = base_args.clone();
        args.push(format!("tcp:{}", addrs.join(",")));
        let options = smp_cli::parse_args(&args).unwrap();

        let (outcome, children) = std::thread::scope(|scope| {
            let master = scope.spawn(|| smp_cli::run(&options));
            let mut children = Vec::new();
            for (addr, extra) in addrs.iter().zip(worker_args) {
                let mut child = spawn_worker(addr, extra);
                // A fault-injected worker has the master to itself until its
                // fault has fired (it exits on it): a faster peer could
                // otherwise drain the queue before the fault ever lands.
                if !extra.is_empty() {
                    let _ = child.wait();
                }
                children.push(child);
            }
            (master.join().expect("cli master panicked"), children)
        });
        match outcome {
            Ok(report) => return (report, args, children),
            Err(e) if e.to_string().contains("cannot bind") && attempt < 3 => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            Err(e) => panic!("cli master run failed: {e}"),
        }
    }
}

#[test]
fn smpq_master_and_workers_run_the_cli_paths() {
    let (report, args, children) = run_cli_master(&[], [&[], &[]]);
    assert!(
        report.contains("state space explored by the workers"),
        "{report}"
    );
    assert!(report.contains("[tcp]"), "{report}");
    assert!(report.contains("density:p2>=2"), "{report}");
    // Nothing went wrong, so nothing was absorbed.
    assert!(!report.contains("recovery:"), "{report}");

    // The thread-backend report over the same model/grid carries the same
    // value table (formatting included), so the CLI paths agree end to end.
    let mut thread_args = args.clone();
    let n = thread_args.len();
    thread_args[n - 1] = "2".to_string();
    let thread_options = smp_cli::parse_args(&thread_args).unwrap();
    let thread_report = smp_cli::run(&thread_options).unwrap();
    let table = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(table(&report), table(&thread_report));

    for child in children {
        finish(child);
    }
}
