//! `served_mix`: one resident query server (shipped default options) asked
//! 60 keys — 12 models × 5 measure kinds, more models than its 8-entry model
//! cache holds — first cold, each key once, then warm in a Zipf-shaped mix
//! by closed-loop clients.  Closed loop because the callers (`smpq query`,
//! scripts) each wait for their reply before asking again.

use super::{
    corrupt, hit_ratio, mismatch, repeat, timed_setup, voting, Counts, Problem, RunConfig,
    RunResult,
};
use crate::proc::RoleChild;
use crate::rng::{zipf_schedule, SplitMix};
use crate::stats;
use crate::trace::Tracer;
use smp_core::query::{Engine, MeasureReport, MeasureRequest, TargetSpec};
use smp_laplace::InversionMethod;
use smp_numeric::stats::linspace;
use smp_pipeline::{
    uniformization_applies, AnalyticEngine, ModelSpec, QueryClient, QueryError, QueryRequest,
    UniformizationEngine,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const RING_EXP: &str = include_str!("../../../tests/corpus/ring_exp.mod");
pub const VOTING_EXP: &str = include_str!("../../../tests/corpus/voting_exp.mod");
const ERLANG_LOOKALIKE: &str = include_str!("../../../tests/corpus/erlang_lookalike.mod");

/// The measure kinds of a key; `{}` is the target predicate.
const KINDS: [&str; 5] = [
    "cdf:{}",
    "density:{}",
    "transient:{}",
    "mean:{}",
    "quantile:{}@0.5,0.9",
];
const GRID_POINTS: usize = 10;
const ZIPF_EXPONENT: f64 = 1.1;
/// Warm queries per second of `--seconds`: the warm phase is a fixed list,
/// so that two runs take their percentiles over the same mix of queries.
const WARM_QUERIES_PER_SECOND: f64 = 500.0;
/// The share of `--seconds` that cold passes may take.
const COLD_SHARE: f64 = 0.5;
/// Which key holds which Zipf rank: rank `r` is key `37 r` modulo the number
/// of keys (37 is coprime to 60 and to the smoke run's 20), so neighbouring
/// ranks fall on different models and kinds.  The hot set is the same for
/// every `--seed`; the seed decides arrival order alone.
const RANK_STRIDE: usize = 37;

struct ServedModel {
    spec: ModelSpec,
    target: &'static str,
    window: (f64, f64),
}

/// The four conformance-corpus models first (two of them all-exponential,
/// which `engine=auto` routes to uniformization), then eight more voting
/// shapes.  Windows span the bulk of each passage.  The largest is voting
/// 9,3,2: on system 0 (18,6,3) the transient measure alone takes 32 s cold.
fn models(smoke: bool) -> Vec<ServedModel> {
    let dnamaca = |source: &str, target, window| ServedModel {
        spec: ModelSpec::Dnamaca(source.to_string()),
        target,
        window,
    };
    let shape = |cc, mm, nn, target, window| ServedModel {
        spec: voting(cc, mm, nn),
        target,
        window,
    };
    let mut models = vec![
        dnamaca(RING_EXP, "c>=1", (0.5, 8.0)),
        dnamaca(VOTING_EXP, "p2>=2", (0.5, 12.0)),
        dnamaca(ERLANG_LOOKALIKE, "c>=1", (0.5, 8.0)),
        shape(3, 1, 1, "p2>=2", (2.0, 40.0)),
    ];
    if !smoke {
        models.extend([
            shape(4, 1, 1, "p2>=4", (4.0, 60.0)),
            shape(4, 2, 1, "p2>=4", (3.0, 40.0)),
            shape(5, 2, 2, "p2>=5", (3.0, 50.0)),
            shape(6, 2, 2, "p2>=6", (4.0, 60.0)),
            shape(6, 3, 2, "p2>=6", (3.0, 45.0)),
            shape(7, 2, 2, "p2>=7", (5.0, 70.0)),
            shape(8, 3, 2, "p2>=8", (4.0, 60.0)),
            shape(9, 3, 2, "p2>=9", (5.0, 70.0)),
        ]);
    }
    models
}

/// One key: the query as it goes on the wire, and the answer it must get.
struct Key {
    model: usize,
    request: QueryRequest,
    reference: MeasureReport,
}

/// Builds every key and its reference answer: the engine `engine=auto`
/// routes the model to, run in this process on the same parsed measures.
fn keys(smoke: bool) -> Result<Vec<Key>, String> {
    let mut keys = Vec::new();
    for (index, model) in models(smoke).into_iter().enumerate() {
        let t_points = linspace(model.window.0, model.window.1, GRID_POINTS);
        let texts: Vec<String> = KINDS
            .iter()
            .map(|k| k.replace("{}", model.target))
            .collect();
        let requests = texts
            .iter()
            .map(|text| MeasureRequest::parse(text).map(|r| r.with_t_points(&t_points)))
            .collect::<Result<Vec<_>, _>>()?;
        let engine: Box<dyn Engine> = if uniformization_applies(&model.spec) {
            Box::new(UniformizationEngine::new(model.spec.clone()))
        } else {
            Box::new(AnalyticEngine::new(
                model.spec.clone(),
                InversionMethod::euler(),
            ))
        };
        let reports = engine
            .solve(&requests)
            .map_err(|e| format!("reference solve of model {index}: {e}"))?;
        for (text, reference) in texts.into_iter().zip(reports) {
            keys.push(Key {
                model: index,
                request: QueryRequest {
                    model: model.spec.clone(),
                    engine: "auto".to_string(),
                    method: "euler".to_string(),
                    deadline: None,
                    t_points: t_points.clone(),
                    measures: vec![text],
                },
                reference,
            });
        }
    }
    Ok(keys)
}

/// One answered (or refused) query, as its client saw it.
struct Sample {
    key: usize,
    latency_ms: f64,
    /// Server-reported admission wait and solve wall, in ms.
    queue_wait_ms: f64,
    server_wall_ms: f64,
    problem: Option<String>,
    refused: bool,
    counts: Counts,
}

fn ask(
    client: &mut QueryClient,
    keys: &[Key],
    key: usize,
    tracer: &mut Tracer,
    req: u64,
) -> Sample {
    let span = tracer.begin("query", None, req);
    let t0 = Instant::now();
    let reply = client.query(&keys[key].request);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end(span);
    let mut sample = Sample {
        key,
        latency_ms,
        queue_wait_ms: 0.0,
        server_wall_ms: 0.0,
        problem: None,
        refused: false,
        counts: Counts::default(),
    };
    match reply {
        Ok(reports) => {
            sample.problem = mismatch(&reports, std::slice::from_ref(&keys[key].reference));
            sample.counts = Counts::of(&reports);
            let wait: std::time::Duration = reports.iter().map(|r| r.provenance.queue_wait).sum();
            let wall: std::time::Duration = reports.iter().map(|r| r.provenance.wall).sum();
            sample.queue_wait_ms = wait.as_secs_f64() * 1e3;
            sample.server_wall_ms = wall.as_secs_f64() * 1e3;
            // The server's own account of the interval, laid inside the
            // client's: what is left over is codec, socket and dispatch.
            tracer.child_interval("queue_wait", span, 0, wait.as_nanos() as u64);
            tracer.child_interval(
                "server_wall",
                span,
                wait.as_nanos() as u64,
                wall.as_nanos() as u64,
            );
        }
        Err(error) => {
            sample.refused = matches!(error, QueryError::Refused(_));
            sample.problem = Some(format!(
                "query '{}': {error}",
                keys[key].request.measures[0]
            ));
        }
    }
    sample
}

/// Ends a server on request; returns its peak resident set in kB.
fn stop(server: RoleChild, addr: &str) -> Result<u64, String> {
    QueryClient::connect(addr)
        .and_then(QueryClient::shutdown)
        .map_err(|e| format!("shutdown: {e}"))?;
    server.join()
}

fn column(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let (keys, setup_s) = timed_setup(config.seconds, || {
        let mut keys = keys(config.smoke)?;
        if config.corrupt_reference {
            corrupt(std::slice::from_mut(&mut keys[0].reference));
        }
        Ok(keys)
    })?;
    result.setup_s = setup_s;

    // Cold passes: every key once, in seeded order, on one connection to a
    // fresh server.  The pass is repeated (a new server each time) while
    // the cold share of the time lasts, because a pass keeps both cores
    // busy for seconds and one reading of it is too noisy; the warm phase
    // then runs against the last server.
    let mut rng = SplitMix::new(config.seed);
    // Drawn before the passes, so that it does not depend on how many of
    // them the time allows.
    let schedule_seed = rng.next_u64();
    let mut retired_rss_kb = 0;
    let mut cold = Vec::new();
    let mut current: Option<(RoleChild, String)> = None;
    let cold_seconds = config.seconds * COLD_SHARE;
    let mut pass_walls = repeat(config, cold_seconds, tracer, &mut result, |spans, _, _| {
        if let Some((server, addr)) = current.take() {
            retired_rss_kb = retired_rss_kb.max(stop(server, &addr)?);
        }
        let (server, addr) = RoleChild::server()?;
        let mut order: Vec<usize> = (0..keys.len()).collect();
        rng.shuffle(&mut order);
        let mut client = QueryClient::connect(&addr).map_err(|e| e.to_string())?;
        let pass_started = Instant::now();
        for &key in &order {
            cold.push(ask(&mut client, &keys, key, spans, cold.len() as u64));
        }
        current = Some((server, addr));
        Ok(Some(pass_started.elapsed().as_secs_f64()))
    })?;
    let (server, addr) = current.expect("the last pass leaves its server running");
    result.solve_s = stats::median(&mut pass_walls);
    result.walls = pass_walls;

    // Warm phase: the Zipf-shaped list, shared out to the clients as each
    // becomes free.
    let total = if config.smoke {
        60
    } else {
        (config.seconds * WARM_QUERIES_PER_SECOND) as usize
    };
    let schedule: Vec<usize> = zipf_schedule(keys.len(), ZIPF_EXPONENT, total, schedule_seed)
        .into_iter()
        .map(|rank| rank * RANK_STRIDE % keys.len())
        .collect();
    // The seeded inputs, as one number: the same seed must give the same.
    // Every pass a run makes has its own order; the first is in every run.
    let digest = cold[..keys.len()]
        .iter()
        .map(|s| s.key)
        .chain(schedule.iter().copied())
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, key| {
            (hash ^ key as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    result.extra("served.schedule_digest", (digest >> 32) as f64, "count");
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let next = AtomicUsize::new(0);
    let warm_started = Instant::now();
    let per_client: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let mut local = tracer.fork();
                let (keys, schedule, next, addr) = (&keys, &schedule, &next, &addr);
                scope.spawn(move || {
                    let mut client = QueryClient::connect(addr).map_err(|e| e.to_string())?;
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = schedule.get(i) else { break };
                        let req = (1 << 32) + i as u64;
                        samples.push(ask(&mut client, keys, key, &mut local, req));
                    }
                    Ok((samples, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_string()))
            })
            .collect()
    });
    let warm_wall = warm_started.elapsed().as_secs_f64();
    let mut warm = Vec::new();
    for outcome in per_client {
        let (samples, local) = outcome?;
        warm.extend(samples);
        tracer.absorb(local);
    }

    result.peak_rss_kb = retired_rss_kb.max(stop(server, &addr)?);

    for sample in cold.iter().chain(&warm) {
        result.operation(sample.problem.clone());
    }
    let correct_warm = warm.iter().filter(|s| s.problem.is_none()).count();
    result.work_per_s = correct_warm as f64 / warm_wall;
    // Counts, like everywhere, are those of one repetition: the last cold
    // pass, whose single client makes them repeat exactly (two clients
    // meeting on one uncached key may both evaluate it).  The hit ratios
    // are the warm phase's, where the caches are read.
    let sum = |samples: &[Sample]| {
        samples.iter().fold(Counts::default(), |mut total, sample| {
            total.add(&sample.counts);
            total
        })
    };
    sum(&cold[cold.len() - keys.len()..]).record(&mut result.layers);
    let warm_counts = sum(&warm);
    result.layers.insert(
        "server.model_cache_hit_ratio",
        hit_ratio(warm_counts.model_hits, warm_counts.model_misses),
    );
    result.layers.insert(
        "server.result_cache_hit_ratio",
        hit_ratio(warm_counts.cache_hits, warm_counts.evaluations),
    );
    let refused = cold.iter().chain(&warm).filter(|s| s.refused).count();
    result.layers.insert(
        "server.refused_share",
        refused as f64 / result.attempted as f64,
    );

    // A model's first cold query pays its exploration.
    let mut seen = std::collections::BTreeSet::new();
    let mut model_cold: Vec<f64> = cold
        .iter()
        .filter(|s| seen.insert(keys[s.key].model))
        .map(|s| s.latency_ms)
        .collect();
    let tail = stats::tail_percentile(warm.len());
    let mut warm_ms = column(&warm, |s| s.latency_ms);
    result.extra(
        "server.cold_ms_p50",
        stats::median(&mut column(&cold, |s| s.latency_ms)),
        "ms",
    );
    result.extra(
        "server.model_cold_ms_p50",
        stats::median(&mut model_cold),
        "ms",
    );
    result.extra("server.warm_ms_p50", stats::median(&mut warm_ms), "ms");
    if tail > 0.5 {
        result.extra(
            format!("server.warm_ms_p{}", tail * 100.0),
            stats::percentile(&mut warm_ms, tail),
            "ms",
        );
    }
    result.extra("server.qps", result.work_per_s, "1/s");
    result.extra("server.clients", clients as f64, "count");
    result.extra("server.warm_queries", warm.len() as f64, "count");
    result.extra(
        "server.queue_wait_ms_p50",
        stats::median(&mut column(&warm, |s| s.queue_wait_ms)),
        "ms",
    );
    result.extra(
        "server.solve_ms_p50_warm",
        stats::median(&mut column(&warm, |s| s.server_wall_ms)),
        "ms",
    );
    result.extra(
        "client.overhead_ms_p50",
        stats::median(&mut column(&warm, |s| {
            s.latency_ms - s.queue_wait_ms - s.server_wall_ms
        })),
        "ms",
    );

    // The probes run on a mid-sized served model, not system 0 again.
    let probe = &models(config.smoke)[if config.smoke { 3 } else { 10 }];
    let target = TargetSpec::parse(probe.target).expect("target predicate");
    let t_points = linspace(probe.window.0, probe.window.1, GRID_POINTS);
    result.probe = Some(Problem {
        requests: vec![MeasureRequest::cdf(target.clone(), &t_points)],
        model: probe.spec.clone(),
        target,
        t_points,
    });
    Ok(result)
}
