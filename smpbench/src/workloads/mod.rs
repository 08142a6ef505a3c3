//! The four workloads, and what they share: the run configuration, the
//! result record, reference checks and the set-up timer.

pub mod fanout;
pub mod oneshot;
pub mod served;
pub mod sharded;

use crate::stats;
use smp_core::query::{MeasureReport, MeasureRequest, TargetSpec};
use smp_pipeline::ModelSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// How long the timed region should measure for.
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every workload to a model of a few dozen states (tests).
    pub smoke: bool,
    /// Damages the reference answers, to show that the output check bites.
    pub corrupt_reference: bool,
}

/// A model, a target and the measures asked of it.
#[derive(Debug, Clone)]
pub struct Problem {
    pub model: ModelSpec,
    pub target: TargetSpec,
    pub t_points: Vec<f64>,
    pub requests: Vec<MeasureRequest>,
}

pub fn voting(voters: u32, polling: u32, central: u32) -> ModelSpec {
    ModelSpec::Voting {
        voters,
        polling,
        central,
    }
}

/// A number the run produced beyond the declared metrics: workload-specific
/// timings that cannot be measured on every workload.  Printed and stored,
/// not part of the driver's result line.
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub solve_s: f64,
    pub work_per_s: f64,
    pub peak_rss_kb: u64,
    /// Declared per-layer values the run itself yields (counts and shares);
    /// the probes of `layers.rs` add the rest.
    pub layers: BTreeMap<&'static str, f64>,
    pub extras: Vec<Extra>,
    /// The wall time of every repetition the medians were taken over.
    pub walls: Vec<f64>,
    /// What the layer probes should run on.
    pub probe: Option<Problem>,
}

impl RunResult {
    /// Counts one operation (a solve or a query); `problem` says what was
    /// wrong with it, if anything.
    pub fn operation(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(problem);
            }
        }
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push(Extra {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Run-level counters summed over the `Provenance` of a set of reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub messages: u64,
    pub bytes_on_wire: u64,
    pub evaluations: u64,
    pub shared_hits: u64,
    pub cache_hits: u64,
    pub exchange_rounds: u64,
    pub halo_bytes: u64,
    pub model_hits: u64,
    pub model_misses: u64,
}

impl Counts {
    pub fn of(reports: &[MeasureReport]) -> Counts {
        let mut counts = Counts::default();
        for p in reports.iter().map(|r| &r.provenance) {
            counts.messages += p.messages as u64;
            counts.bytes_on_wire += p.bytes_on_wire;
            counts.evaluations += p.evaluations as u64;
            counts.shared_hits += p.shared_hits as u64;
            counts.cache_hits += p.cache_hits as u64;
            counts.exchange_rounds += p.exchange_rounds;
            counts.halo_bytes += p.halo_bytes;
            counts.model_hits += p.model_cache_hits as u64;
            counts.model_misses += p.model_cache_misses as u64;
        }
        counts
    }

    pub fn add(&mut self, other: &Counts) {
        self.messages += other.messages;
        self.bytes_on_wire += other.bytes_on_wire;
        self.evaluations += other.evaluations;
        self.shared_hits += other.shared_hits;
        self.cache_hits += other.cache_hits;
        self.exchange_rounds += other.exchange_rounds;
        self.halo_bytes += other.halo_bytes;
        self.model_hits += other.model_hits;
        self.model_misses += other.model_misses;
    }

    /// The declared per-layer counts.
    pub fn record(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("master.messages", self.messages as f64);
        layers.insert("master.evaluations", self.evaluations as f64);
        layers.insert("master.shared_hits", self.shared_hits as f64);
        layers.insert("master.cache_hits", self.cache_hits as f64);
        layers.insert("wire.mb", self.bytes_on_wire as f64 / 1e6);
        layers.insert("shard.exchange_rounds", self.exchange_rounds as f64);
        layers.insert("shard.halo_bytes", self.halo_bytes as f64);
        layers.insert(
            "server.model_cache_hit_ratio",
            hit_ratio(self.model_hits, self.model_misses),
        );
        layers.insert(
            "server.result_cache_hit_ratio",
            hit_ratio(self.cache_hits, self.evaluations),
        );
    }
}

/// Hits over hits and misses; 0 when there were neither.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// `None` when `got` answers `want` bit for bit; otherwise what differs.
pub fn mismatch(got: &[MeasureReport], want: &[MeasureReport]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} reports, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if g.name != w.name || bits(&g.points) != bits(&w.points) {
            return Some(format!("report '{}' answers '{}'", g.name, w.name));
        }
        if bits(&g.values) != bits(&w.values) {
            let at = g
                .values
                .iter()
                .zip(&w.values)
                .position(|(a, b)| a.to_bits() != b.to_bits());
            return Some(format!(
                "'{}' differs from the reference at value {:?} ({} values, expected {})",
                g.name,
                at,
                g.values.len(),
                w.values.len()
            ));
        }
    }
    None
}

/// Flips the lowest bit of the first reference value.
pub fn corrupt(reference: &mut [MeasureReport]) {
    if let Some(value) = reference.first_mut().and_then(|r| r.values.first_mut()) {
        *value = f64::from_bits(value.to_bits() ^ 1);
    }
}

/// Set-up is repeated until a quarter of `seconds` is spent on it, nine
/// times at most, and its median time reported: one of milliseconds is too
/// noisy to read once, one of seconds is steady enough and too dear to
/// repeat often.
pub fn timed_setup<T>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == 9 || !time_left(started, seconds / 4.0) {
            return Ok((built, stats::median(&mut times)));
        }
    }
}

/// Repetitions of identical work run until the time is spent; at least one.
pub fn time_left(started: Instant, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() < seconds
}

/// Runs `repetition` while `seconds` last, at least once, and returns the
/// wall times it reported (`None` = the repetition failed and counted its
/// failure itself).  The traced pass makes exactly two repetitions instead,
/// the first with its spans off, and records the second over the first as
/// what tracing costs.  Stops at the first failed operation.
pub fn repeat(
    config: &RunConfig,
    seconds: f64,
    tracer: &mut crate::trace::Tracer,
    result: &mut RunResult,
    mut repetition: impl FnMut(
        &mut crate::trace::Tracer,
        u64,
        &mut RunResult,
    ) -> Result<Option<f64>, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    for index in 0u64.. {
        let mut spans_off = crate::trace::Tracer::new(false);
        let spans = if config.trace && index == 0 {
            &mut spans_off
        } else {
            &mut *tracer
        };
        walls.extend(repetition(spans, index, result)?);
        let done = if config.trace {
            index == 1
        } else {
            !time_left(started, seconds)
        };
        if done || result.failed > 0 {
            break;
        }
    }
    if walls.is_empty() {
        return Err(format!("no repetition completed: {:?}", result.failures));
    }
    if config.trace && walls.len() == 2 {
        result
            .layers
            .insert("trace.overhead_share", walls[1] / walls[0] - 1.0);
    }
    Ok(walls)
}

/// The answer the distributed engines must reproduce bit for bit: the
/// analytic engine's.  It is computed in a child that ends before anything
/// is timed, so that this process's peak resident set is the master's own.
pub fn reference(workload: &str, config: &RunConfig) -> Result<Vec<MeasureReport>, String> {
    let mut reference = crate::proc::RoleChild::reference(workload, config.smoke)?;
    if config.corrupt_reference {
        corrupt(&mut reference);
    }
    Ok(reference)
}

/// What the reference child runs.
pub fn solve_reference(workload: &str, smoke: bool) -> Result<Vec<MeasureReport>, String> {
    use smp_core::query::Engine;
    let problem = match workload {
        "fanout_sys0" => fanout::problem(smoke),
        "sharded_sys0" => sharded::problem(smoke),
        other => return Err(format!("no reference solve for workload '{other}'")),
    };
    smp_pipeline::AnalyticEngine::new(problem.model, smp_laplace::InversionMethod::euler())
        .solve(&problem.requests)
        .map_err(|e| format!("reference solve: {e}"))
}

/// One distributed solve on real sockets, as a one-shot user runs it: bind
/// one rendezvous port per worker, start the worker processes, solve, and
/// let the workers end when the master's sockets close.  `sharded` picks the
/// row-sharded engine (the workers then hold one row block each) over the
/// chunk-farming one.  Returns the reports, the wall time from bind to
/// reports, and the largest worker's peak resident set in kB.
pub fn tcp_solve(
    problem: &Problem,
    workers: usize,
    sharded: bool,
    tracer: &mut crate::trace::Tracer,
    req: u64,
) -> Result<(Vec<MeasureReport>, f64, u64), String> {
    use smp_core::query::Engine;
    use smp_laplace::InversionMethod;
    use smp_pipeline::{DistributedEngine, PipelineOptions, TcpTransport};

    let root = tracer.begin(
        if sharded {
            "sharded_solve"
        } else {
            "fanout_solve"
        },
        None,
        req,
    );
    let started = Instant::now();
    let spawn = tracer.begin("spawn", root, req);
    let transport = TcpTransport::bind(&vec!["127.0.0.1:0"; workers])
        .map_err(|e| format!("cannot bind rendezvous ports: {e}"))?;
    let children = transport
        .local_addrs()
        .iter()
        .map(|addr| crate::proc::RoleChild::worker(&addr.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    tracer.end(spawn);
    let options = PipelineOptions::with_workers(workers);
    let method = InversionMethod::euler();
    let engine = if sharded {
        DistributedEngine::sharded_tcp(problem.model.clone(), method, options, transport)
    } else {
        DistributedEngine::with_transport(
            problem.model.clone(),
            method,
            options,
            Box::new(transport),
        )
    };
    // Rendezvous and handshake happen inside `solve`, so they are part of
    // this span: they are part of what the user waits for.
    let reports = tracer
        .span("solve", root, req, || engine.solve(&problem.requests))
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    let join = tracer.begin("join", root, req);
    drop(engine);
    let mut hwm_kb = 0;
    for child in children {
        hwm_kb = hwm_kb.max(child.join()?);
    }
    tracer.end(join);
    tracer.end(root);
    Ok((reports, wall, hwm_kb))
}

pub fn run(
    name: &str,
    config: &RunConfig,
    tracer: &mut crate::trace::Tracer,
) -> Result<RunResult, String> {
    match name {
        "oneshot_sys1" => oneshot::run(config, tracer),
        "fanout_sys0" => fanout::run(config, tracer),
        "sharded_sys0" => sharded::run(config, tracer),
        "served_mix" => served::run(config, tracer),
        other => Err(format!(
            "unknown workload '{other}' (expected one of: {})",
            crate::metrics::WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}
