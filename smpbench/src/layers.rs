//! Layer probes: each times calls into one layer's public functions, from
//! outside, on the workload's own model, matrices and frame sizes.  Run in
//! the traced pass only, and only on the workloads that execute the layer:
//! see [`probe`].  Every probe reports the median of several repetitions;
//! sweeps too long to repeat whole use a sample of eight `s`-points taken
//! evenly from the workload's plan.

use crate::stats;
use crate::workloads::{served::VOTING_EXP, voting, Problem};
use smp_core::query::{Engine, MeasureReport, MeasureRequest, Provenance, TargetSpec};
use smp_core::shard::shard_bounds;
use smp_core::{
    IterationOptions, PassageSkeleton, PassageTimeSolver, PassageWorkspace, PhaseCtmc,
    ShardWorkspace, ShardedSkeleton, ShardedSolver, StateSet,
};
use smp_distributions::Dist;
use smp_laplace::{InversionMethod, SPointPlan, TransformValues};
use smp_numeric::stats::linspace;
use smp_numeric::Complex64;
use smp_pipeline::cache::ResultCache;
use smp_pipeline::checkpoint::{load_checkpoint_by_measure, CheckpointWriter};
use smp_pipeline::server::{decode_query_reply, encode_query_reply, encode_query_request};
use smp_pipeline::wire::{
    decode_worker_message, encode_worker_message, frame_checksum, read_frame, write_frame, Frame,
};
use smp_pipeline::work::WorkItem;
use smp_pipeline::worker::{WorkItemOutcome, WorkerMessage};
use smp_pipeline::{
    run_tcp_worker, AnalyticEngine, CompiledModelSet, DistributedEngine, ModelSpec,
    PipelineOptions, QueryReply, QueryRequest, ResolveTarget, TcpTransport, TcpWorkerOptions,
    TransformSpec, UniformizationEngine,
};
use smp_smspn::StateSpace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Layers = BTreeMap<&'static str, f64>;
type Probe = fn(&Problem, &mut Layers, &Path) -> Result<(), String>;

/// Runs the probes of the layers `workload` executes.  Where a workload
/// does not execute a layer the probe is not run and the metric reads 0,
/// like the `Provenance` counts of an unused layer: one quantity measured
/// under four workloads' names is four chances of a false delta.
/// `sharded_sys0` shares system 0 with `fanout_sys0`, which reports the
/// model's probes; checkpointing is for long one-shot solves.
pub fn probe(
    workload: &str,
    problem: &Problem,
    layers: &mut Layers,
    scratch: &Path,
) -> Result<(), String> {
    let probes: &[Probe] = match workload {
        "oneshot_sys1" => &[model, plan, checkpoint],
        "fanout_sys0" => &[model, plan, chunks],
        "sharded_sys0" => &[plan, sharding],
        "served_mix" => &[model, plan, service],
        _ => &[],
    };
    probes
        .iter()
        .try_for_each(|probe| probe(problem, layers, scratch))
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Median seconds of one call of `f`: five calls, or fewer once half a
/// second is spent (exploring system 1 takes seconds).
fn median_secs(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5
        && (samples.is_empty() || started.elapsed() < Duration::from_millis(500))
    {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&mut samples)
}

/// Median seconds of one call of a call too short to time alone: `f` is run
/// in batches sized to about two milliseconds.
fn median_secs_batched(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((2e-3 / once) as usize).clamp(1, 100_000);
    median_secs(|| (0..batch).for_each(|_| f())) / batch as f64
}

fn euler_plan(problem: &Problem) -> SPointPlan {
    SPointPlan::new(InversionMethod::euler(), &problem.t_points)
}

/// Eight points taken evenly from the problem's plan (all of them if it has
/// fewer).
fn sample_points(problem: &Problem) -> Vec<Complex64> {
    let plan = euler_plan(problem);
    let points = plan.s_points();
    let count = points.len().min(8);
    (0..count)
        .map(|i| points[i * points.len() / count])
        .collect()
}

/// A transform value with all its digits, for frames and cache entries.
const VALUE: Complex64 = Complex64::new(0.123_456_789, -0.987_654_321);

/// The problem's model explored, and its target resolved on it.
struct Explored {
    space: StateSpace,
    targets: Vec<usize>,
    target_set: StateSet,
}

impl Explored {
    fn resolve(
        problem: &Problem,
        net: &smp_smspn::SmSpn,
        space: StateSpace,
    ) -> Result<Self, String> {
        let targets = problem.target.resolve(net, &space).map_err(text)?;
        let target_set = StateSet::new(space.num_states(), &targets).map_err(text)?;
        Ok(Explored {
            space,
            targets,
            target_set,
        })
    }
}

fn explore(problem: &Problem) -> Result<Explored, String> {
    let net = smp_dnamaca::parse_model(&problem.model.source()).map_err(text)?;
    let space = StateSpace::explore(&net).map_err(text)?;
    Explored::resolve(problem, &net, space)
}

/// Front end and numeric kernel on the workload's model: parse, explore,
/// compile, skeleton; LST pool, refill, masked SpMV; `s`-points to
/// convergence.
fn model(problem: &Problem, layers: &mut Layers, _: &Path) -> Result<(), String> {
    let source_text = problem.model.source();
    layers.insert(
        "dnamaca.parse_us",
        1e6 * median_secs(|| {
            black_box(smp_dnamaca::parse_model(&source_text).is_ok());
        }),
    );
    // The kernel structure is memoized per explored process, so only the
    // first skeleton built on a fresh exploration pays for it: the two are
    // sampled in pairs.
    let (mut explore_s, mut skeleton_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let net = smp_dnamaca::parse_model(&source_text).map_err(text)?;
    let explored = loop {
        let t0 = Instant::now();
        let space = StateSpace::explore(&net).map_err(text)?;
        explore_s.push(t0.elapsed().as_secs_f64());
        let explored = Explored::resolve(problem, &net, space)?;
        let t0 = Instant::now();
        black_box(PassageSkeleton::build(explored.space.smp(), &explored.target_set).nnz());
        skeleton_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if explore_s.len() == 5 || started.elapsed() >= Duration::from_millis(500) {
            break explored;
        }
    };
    let Explored {
        space,
        targets,
        target_set,
    } = explored;
    layers.insert(
        "smspn.explore_states_per_s",
        space.num_states() as f64 / stats::median(&mut explore_s),
    );
    layers.insert(
        "workspace.skeleton_build_ms",
        stats::median(&mut skeleton_ms),
    );
    let spec = TransformSpec::passage(problem.model.clone(), problem.target.clone());
    layers.insert(
        "transform.compile_ms",
        1e3 * median_secs(|| {
            black_box(CompiledModelSet::compile(std::slice::from_ref(&spec)).is_ok());
        }),
    );

    let smp = space.smp();
    let sample = sample_points(problem);
    let dists = smp.num_distributions();
    layers.insert(
        "distributions.lst_ns_per_eval",
        1e9 * median_secs_batched(|| {
            for id in 0..dists {
                for &s in &sample {
                    black_box(smp.distribution(id as u32).lst(black_box(s)));
                }
            }
        }) / (dists * sample.len()) as f64,
    );
    let skeleton = Arc::new(PassageSkeleton::build(smp, &target_set));
    let (n, nnz) = (skeleton.num_states(), skeleton.nnz());
    let mut workspace = PassageWorkspace::new(Arc::clone(&skeleton));
    let mut next = 0;
    layers.insert(
        "workspace.refill_ns_per_nnz",
        1e9 * median_secs(|| {
            black_box(workspace.refill(smp, sample[next % sample.len()]));
            next += 1;
        }) / nnz as f64,
    );
    // A dense iterate: the steady state of the iteration once the frontier
    // of reachable rows has saturated.
    let x = vec![Complex64::new(1.0 / n as f64, 0.5 / n as f64); n];
    let mut y = vec![Complex64::ZERO; n];
    let u = workspace.u();
    let spmv_s = median_secs_batched(|| {
        u.vec_mul_into_masked(black_box(&x), &mut y, skeleton.target_mask());
        black_box(&y);
    });
    layers.insert("sparse.spmv_masked_ns_per_nnz", 1e9 * spmv_s / nnz as f64);
    // Computed, not measured, bytes: values and columns once, row pointers,
    // both vectors and the mask once each; cache misses are not in it.
    let bytes = nnz * (16 + 4) + n * (8 + 16 + 16 + 1);
    layers.insert(
        "sparse.spmv_masked_gbps_computed",
        bytes as f64 / spmv_s / 1e9,
    );

    let solver = PassageTimeSolver::new(smp, &[space.initial_state()], &targets).map_err(text)?;
    let mut ws = solver.checkout_workspace();
    let (mut point_ms, mut per_iter_ms, mut iterations) = (Vec::new(), Vec::new(), 0usize);
    for &s in &sample {
        let t0 = Instant::now();
        let point = solver.transform_at_with(&mut ws, s).map_err(text)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        point_ms.push(ms);
        per_iter_ms.push(ms / point.iterations as f64);
        iterations += point.iterations;
    }
    solver.give_back(ws);
    layers.insert("workspace.spoint_ms_p50", stats::median(&mut point_ms));
    layers.insert(
        "workspace.spoint_ms_p90",
        stats::percentile(&mut point_ms, 0.9),
    );
    layers.insert(
        "workspace.iters_per_spoint",
        iterations as f64 / sample.len() as f64,
    );
    layers.insert("workspace.iters_total", iterations as f64);
    // One iteration with the point's share of the refill.  Early iterations
    // touch only the rows the passage has reached, so on a large model this
    // is below the dense product timed above.
    layers.insert("workspace.ms_per_iter", stats::median(&mut per_iter_ms));
    Ok(())
}

/// Planning the workload's own `t`-points.
fn plan(problem: &Problem, layers: &mut Layers, _: &Path) -> Result<(), String> {
    layers.insert(
        "laplace.plan_us",
        1e6 * median_secs_batched(|| {
            black_box(euler_plan(problem).len());
        }),
    );
    layers.insert("laplace.spoints", euler_plan(problem).len() as f64);
    Ok(())
}

/// What `fanout_sys0` adds to the kernel: the chunk codec and the cost of
/// dispatching one more chunk.
fn chunks(problem: &Problem, layers: &mut Layers, _: &Path) -> Result<(), String> {
    let message = WorkerMessage {
        worker: 1,
        results: euler_plan(problem)
            .s_points()
            .iter()
            .take(64)
            .enumerate()
            .map(|(index, &s)| WorkItemOutcome {
                item: WorkItem {
                    measure: 0,
                    index,
                    s,
                },
                outcome: Ok(VALUE),
            })
            .collect(),
    };
    let items = message.results.len() as f64;
    let chunk = encode_worker_message(&message, 1_234_567).map_err(text)?;
    layers.insert(
        "wire.chunk_encode_ns_per_item",
        1e9 * median_secs_batched(|| {
            black_box(encode_worker_message(black_box(&message), 1_234_567).is_ok());
        }) / items,
    );
    layers.insert(
        "wire.chunk_decode_ns_per_item",
        1e9 * median_secs_batched(|| {
            black_box(decode_worker_message(black_box(&chunk)).is_ok());
        }) / items,
    );
    layers.insert("transport.dispatch_us_per_chunk", dispatch_us_per_chunk()?);
    Ok(())
}

/// What `sharded_sys0` runs in place of the unsharded kernel: halo frames
/// of the size the model's two-shard split exchanges, their round trips,
/// and the slices' iteration in process.
fn sharding(problem: &Problem, layers: &mut Layers, _: &Path) -> Result<(), String> {
    let Explored {
        space,
        targets,
        target_set,
    } = explore(problem)?;
    let smp = space.smp();
    let source = space.initial_state();
    let skeleton = Arc::new(PassageSkeleton::build(smp, &target_set));
    // The slice is carved from the kernel structure memoized just above, so
    // the build time is the carving alone.
    layers.insert(
        "shard.skeleton_build_ms",
        1e3 * median_secs(|| {
            black_box(ShardedSkeleton::build(smp, &target_set, source, 2, 0).nnz());
        }),
    );
    let slice = Arc::new(ShardedSkeleton::build(smp, &target_set, source, 2, 0));
    let halo = Frame::Halo {
        id: 7,
        r: 3,
        entries: slice.need_rows().iter().map(|&row| (row, VALUE)).collect(),
    };
    let entries = slice.need_rows().len().max(1) as f64;
    let halo_text = halo.encode().map_err(text)?;
    layers.insert(
        "wire.halo_encode_ns_per_entry",
        1e9 * median_secs_batched(|| {
            black_box(black_box(&halo).encode().is_ok());
        }) / entries,
    );
    layers.insert(
        "wire.halo_decode_ns_per_entry",
        1e9 * median_secs_batched(|| {
            black_box(Frame::decode(black_box(&halo_text)).is_ok());
        }) / entries,
    );
    layers.insert(
        "wire.checksum_mb_per_s",
        halo_text.len() as f64
            / 1e6
            / median_secs_batched(|| {
                black_box(frame_checksum(
                    halo_text.len() as u32,
                    black_box(halo_text.as_bytes()),
                ));
            }),
    );
    layers.insert(
        "transport.tcp_rtt_us_small",
        echo_rtt_us(&Frame::Ping { nonce: 42 })?,
    );
    layers.insert("transport.tcp_rtt_us_halo", echo_rtt_us(&halo)?);

    let sample = sample_points(problem);
    let mut shard_ws = ShardWorkspace::new(Arc::clone(&slice));
    let _ = shard_ws.refill(sample[0]);
    shard_ws.init();
    layers.insert(
        "shard.step_ns_per_nnz",
        1e9 * median_secs_batched(|| shard_ws.step()) / slice.nnz().max(1) as f64,
    );
    // What a column-block product over shard 0's columns costs; `step`
    // gathers per owned column instead and does not call it.
    let mut workspace = PassageWorkspace::new(Arc::clone(&skeleton));
    let _ = workspace.refill(smp, sample[0]);
    let n = skeleton.num_states();
    let x = vec![Complex64::new(1.0 / n as f64, 0.5 / n as f64); n];
    let (lo, hi) = shard_bounds(n, 2, 0);
    let mut y_range = vec![Complex64::ZERO; hi - lo];
    let u = workspace.u();
    let in_range = u
        .col_indices()
        .iter()
        .filter(|&&c| (lo..hi).contains(&(c as usize)))
        .count()
        .max(1);
    layers.insert(
        "sparse.spmv_range_ns_per_nnz",
        1e9 * median_secs_batched(|| {
            u.vec_mul_into_masked_range(
                black_box(&x),
                &mut y_range,
                skeleton.target_mask(),
                lo,
                hi,
            );
            black_box(&y_range);
        }) / in_range as f64,
    );
    let mut sharded =
        ShardedSolver::new(smp, source, &targets, IterationOptions::default(), 2).map_err(text)?;
    let mut sharded_ms = Vec::new();
    for &s in &sample {
        let t0 = Instant::now();
        sharded.transform_at(s).map_err(text)?;
        sharded_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    layers.insert(
        "shard.compute_ms_per_spoint",
        stats::median(&mut sharded_ms),
    );
    Ok(())
}

/// What is left of a `served_mix` query once its values are cached:
/// fingerprinting, the query codec, cache reads and writes, inversion; and
/// uniformization, where `engine=auto` sends the all-exponential models
/// (timed on the corpus's `voting_exp`).
fn service(problem: &Problem, layers: &mut Layers, _: &Path) -> Result<(), String> {
    let model = &problem.model;
    layers.insert(
        "transform.fingerprint_us",
        1e6 * median_secs_batched(|| {
            black_box(model.fingerprint());
        }),
    );
    let query = QueryRequest {
        model: model.clone(),
        engine: "auto".to_string(),
        method: "euler".to_string(),
        deadline: None,
        t_points: problem.t_points.clone(),
        measures: vec![problem.requests[0].name()],
    };
    let reply = encode_query_reply(&QueryReply::Reports(vec![MeasureReport {
        name: problem.requests[0].name(),
        kind: problem.requests[0].kind.clone(),
        points: problem.t_points.clone(),
        values: problem.t_points.iter().map(|t| 1.0 / (1.0 + t)).collect(),
        provenance: Provenance::local("distributed", "in-process"),
    }]));
    layers.insert(
        "wire.query_codec_us",
        1e6 * median_secs_batched(|| {
            black_box(encode_query_request(black_box(&query)));
            black_box(decode_query_reply(black_box(&reply)).is_ok());
        }),
    );

    let plan = euler_plan(problem);
    let points = plan.len() as f64;
    let key = TransformSpec::passage(model.clone(), problem.target.clone()).transform_key();
    let filled = ResultCache::new();
    for &s in plan.s_points() {
        filled.insert(&key, s, VALUE);
    }
    layers.insert(
        "cache.result_get_ns",
        1e9 * median_secs_batched(|| {
            for &s in plan.s_points() {
                black_box(filled.get(&key, s));
            }
        }) / points,
    );
    layers.insert(
        "cache.result_insert_ns",
        1e9 * median_secs_batched(|| {
            let cache = ResultCache::new();
            for &s in plan.s_points() {
                cache.insert(&key, s, VALUE);
            }
            black_box(cache.len());
        }) / points,
    );

    let erlang = Dist::Erlang {
        rate: 0.1,
        phases: 3,
    };
    for (name, method) in [
        ("laplace.euler_invert_us_per_t", InversionMethod::euler()),
        (
            "laplace.laguerre_invert_us_per_t",
            InversionMethod::laguerre(),
        ),
    ] {
        let plan = SPointPlan::new(method, &problem.t_points);
        let mut values = TransformValues::new();
        for &s in plan.s_points() {
            values.insert(s, erlang.lst(s));
        }
        layers.insert(
            name,
            1e6 * median_secs_batched(|| {
                black_box(plan.invert(black_box(&values)));
            }) / problem.t_points.len() as f64,
        );
    }

    let exp_grid = linspace(0.5, 12.0, 10);
    let exp_target = TargetSpec::parse("p2>=2").expect("target predicate");
    let exp = Problem {
        model: ModelSpec::Dnamaca(VOTING_EXP.to_string()),
        requests: vec![MeasureRequest::cdf(exp_target.clone(), &exp_grid)],
        target: exp_target,
        t_points: exp_grid,
    };
    layers.insert(
        "uniform.solve_ms",
        1e3 * median_secs(|| {
            black_box(
                UniformizationEngine::new(exp.model.clone())
                    .solve(&exp.requests)
                    .is_ok(),
            );
        }),
    );
    let Explored {
        space, target_set, ..
    } = explore(&exp)?;
    let chain =
        PhaseCtmc::passage(space.smp(), space.initial_state(), &target_set).map_err(text)?;
    layers.insert(
        "uniform.cdf_us_per_t",
        1e6 * median_secs_batched(|| {
            black_box(
                chain
                    .cdf(&exp.t_points, smp_core::uniform::DEFAULT_TOLERANCE)
                    .is_ok(),
            );
        }) / exp.t_points.len() as f64,
    );
    Ok(())
}

/// Writing and loading a checkpoint of the workload's plan.  No workload
/// checkpoints today; these are the baseline for one that will.
fn checkpoint(problem: &Problem, layers: &mut Layers, scratch: &Path) -> Result<(), String> {
    let plan = euler_plan(problem);
    let points = plan.len() as f64;
    let key = TransformSpec::passage(problem.model.clone(), problem.target.clone()).transform_key();
    std::fs::create_dir_all(scratch).map_err(text)?;
    let path = scratch.join(format!("probe-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let measured = (|| -> std::io::Result<(f64, f64, f64)> {
        let mut writer = CheckpointWriter::open(&path)?;
        let t0 = Instant::now();
        for &s in plan.s_points() {
            writer.record_tagged(&key, s, VALUE)?;
        }
        let record_us = t0.elapsed().as_secs_f64() * 1e6 / points;
        drop(writer);
        let size = std::fs::metadata(&path)?.len() as f64;
        let mut loaded = Ok(());
        let load_s = median_secs(|| {
            if let Err(e) = load_checkpoint_by_measure(&path) {
                loaded = Err(e);
            }
        });
        loaded?;
        Ok((record_us, size / 1e6 / load_s, size / points))
    })();
    let _ = std::fs::remove_file(&path);
    let (record_us, load_mb_per_s, bytes_per_record) = measured.map_err(text)?;
    layers.insert("checkpoint.record_us", record_us);
    layers.insert("checkpoint.load_mb_per_s", load_mb_per_s);
    layers.insert("checkpoint.bytes_per_record", bytes_per_record);
    Ok(())
}

/// Median round trip of `frame` through `write_frame`/`read_frame` against
/// an echoing thread of this process on a loopback socket.
fn echo_rtt_us(frame: &Frame) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(text)?;
    let addr = listener.local_addr().map_err(text)?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            // Ends with the client's hang-up.
            while let Ok((frame, _)) = read_frame(&mut stream) {
                write_frame(&mut stream, &frame)?;
            }
            Ok(())
        });
        let rtt = (|| -> std::io::Result<f64> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut samples = Vec::with_capacity(300);
            for _ in 0..300 {
                let t0 = Instant::now();
                write_frame(&mut stream, frame)?;
                read_frame(&mut stream)?;
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            Ok(stats::median(&mut samples))
        })();
        let echoed = echo
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("echo thread panicked")));
        rtt.and_then(|rtt| echoed.map(|()| rtt)).map_err(text)
    })
}

/// What one more chunk costs a TCP job whose compute is next to nothing:
/// voting 3,1,1 over `TcpTransport` to a worker thread of this process, once
/// a point per chunk and once all points in one chunk; the difference in
/// wall time over the difference in messages.
fn dispatch_us_per_chunk() -> Result<f64, String> {
    let target = TargetSpec::parse("p2>=3").expect("target predicate");
    let requests = [MeasureRequest::cdf(target, &[10.0, 20.0])];
    let job = |chunk_size: usize| -> Result<(f64, f64), String> {
        let transport = TcpTransport::bind(&["127.0.0.1:0"]).map_err(text)?;
        let addr = transport.local_addrs()[0].to_string();
        let options = PipelineOptions::with_workers(1).chunked(chunk_size);
        let engine = DistributedEngine::with_transport(
            voting(3, 1, 1),
            InversionMethod::euler(),
            options,
            Box::new(transport),
        );
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| run_tcp_worker(&addr, &TcpWorkerOptions::default()));
            let t0 = Instant::now();
            let reports = engine.solve(&requests).map_err(text);
            let wall = t0.elapsed().as_secs_f64();
            drop(engine);
            worker
                .join()
                .unwrap_or_else(|_| Err("worker thread panicked".to_string()))?;
            let messages: usize = reports?.iter().map(|r| r.provenance.messages).sum();
            Ok((wall, messages as f64))
        })
    };
    // The reference answer also says how many points the job has.
    let points = AnalyticEngine::new(voting(3, 1, 1), InversionMethod::euler())
        .solve(&requests)
        .map_err(text)?[0]
        .provenance
        .evaluations;
    let mut per_chunk = Vec::new();
    for _ in 0..5 {
        let (fine_wall, fine_messages) = job(1)?;
        let (coarse_wall, coarse_messages) = job(points)?;
        per_chunk.push(1e6 * (fine_wall - coarse_wall) / (fine_messages - coarse_messages));
    }
    Ok(stats::median(&mut per_chunk))
}
