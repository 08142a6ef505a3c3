//! # smp-cli
//!
//! The `smpq` command line tool: drive the whole analysis tool chain — DNAmaca
//! model parsing, SM-SPN state-space generation, and the unified measure
//! engines — the way a modeller drove the paper's original tool.
//!
//! ```text
//! smpq --model voting.mod --measure 'cdf:p2>=3' --measure 'quantile:p2>=3@0.5,0.9,0.99' \
//!      --t-start 2 --t-stop 60 --t-count 12 --engine distributed --validate-sim 1e-2
//! ```
//!
//! (The quotes matter: an unquoted `>=` is a shell redirection.)
//!
//! A model comes either from a file (`--model`) or from the built-in voting
//! system generator (`--voting CC,MM,NN`).  Each repeated `--measure` flag adds
//! one [`MeasureRequest`] to the batch — densities, CDFs, transient
//! probabilities, quantiles, means and higher moments — and `--engine` selects
//! which implementation of the [`Engine`] trait answers it:
//!
//! * `distributed` (default) — the master–worker pipeline over worker threads,
//!   or over TCP worker processes with `--workers tcp:ADDR,...`;
//! * `analytic` — in-process Laplace inversion: the same pipeline over one
//!   worker thread per core, handing out lane blocks of `s`-points, so it is
//!   bitwise identical to `distributed` by construction;
//! * `sim` — discrete-event simulation of the same model with
//!   `--replications`/`--seed` control;
//! * `uniform` — CTMC uniformization for models whose holding times are all
//!   exponential, with an a-priori truncation error bound and no Laplace
//!   inversion (when `--engine analytic` is asked to solve such a model, the
//!   report carries a hint that `uniform` applies).
//!
//! `--validate-sim TOL` runs the chosen engine *and* the simulation engine and
//! fails if any shared point disagrees beyond `TOL` (relative) plus the
//! simulation's own 95% confidence bound — the paper's analytic-vs-simulation
//! validation loop as a one-flag feature.
//!
//! All five modes (`smpq`, `smpq worker|serve|query|shutdown`) read argv
//! through one scanner over one flag table, and each `parse_*_args` is typed
//! reads from the scanned flags plus its cross-flag rules.  The request part
//! of a command line ([`RequestOptions`]) is built by one function for
//! one-shot runs and `smpq query`, and its engine / method / measure text is
//! resolved by [`smp_pipeline::resolve_request`] — the function the query
//! server calls on the wire fields, so a served answer equals the one-shot
//! answer because there is one resolver.
//!
//! The binary in `src/main.rs` is a thin wrapper around [`parse_args`] and
//! [`run`], which are kept in this library so the whole flow is unit-testable.

use smp_core::query::{Engine, EngineError, MeasureKind, MeasureReport, MeasureRequest};
use smp_laplace::InversionMethod;
use smp_numeric::stats::linspace;
use smp_pipeline::shard::ShardedTransport;
use smp_pipeline::transport::Transport;
use smp_pipeline::{
    available_cores, build_engine, query_with_retry, resolve_request, route, run_tcp_worker,
    EngineChoice, InProcess, ModelCache, ModelSpec, PipelineOptions, PoolSpec, QueryClient,
    QueryError, QueryRequest, QueryServer, QueryServerOptions, RefusalKind, RetryPolicy,
    SimulationEngine, SimulationOptions, TcpTransport, TcpWorkerOptions,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What is asked, of which model, on what grid, of which engine: the part of
/// the command line that one-shot runs and `smpq query` share, and that
/// `smpq query` ships to the server.
#[derive(Debug, Clone)]
pub struct RequestOptions {
    /// Where the model text comes from.
    pub model: ModelSource,
    /// The requested measures, in command-line order (time grids are filled
    /// in from the `--t-*` flags when the run starts).
    pub measures: Vec<MeasureRequest>,
    /// Shared output time grid: first point.
    pub t_start: f64,
    /// Shared output time grid: last point.
    pub t_stop: f64,
    /// Shared output time grid: number of points.
    pub t_count: usize,
    /// Which engine answers the requests.
    pub engine: EngineChoice,
    /// Inversion method driving the `s`-point plan.
    pub method: InversionMethod,
}

/// Everything `smpq` needs for one invocation, parsed from the command line.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The request itself; its fields read as this struct's own.
    pub request: RequestOptions,
    /// Where the distributed engine's evaluations run: in-process worker
    /// threads or TCP worker processes.
    pub workers: PoolSpec,
    /// Row shards for the distributed engine over in-process loopback slice
    /// workers (`--shards N`; 0 = unsharded).
    pub shards: usize,
    /// Make the TCP worker processes row-shard holders (`--sharded` with
    /// `--workers tcp:...`): each worker iterates only its own contiguous
    /// slice of the state space, with per-round boundary exchange, after
    /// exploring the whole model to carve it.
    pub sharded: bool,
    /// Work-queue chunk size; 0 lets the pipeline choose.
    pub chunk_size: usize,
    /// Optional checkpoint file shared across invocations.
    pub checkpoint: Option<PathBuf>,
    /// Print the model source instead of solving.
    pub emit_model: bool,
    /// Cross-validate the chosen engine against the simulation engine with
    /// this relative tolerance.
    pub validate_sim: Option<f64>,
    /// Simulation replications (simulation engine and `--validate-sim`).
    pub replications: usize,
    /// Simulation RNG seed.
    pub sim_seed: u64,
}

impl std::ops::Deref for CliOptions {
    type Target = RequestOptions;
    fn deref(&self) -> &RequestOptions {
        &self.request
    }
}

/// Where the model specification text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSource {
    /// Read an extended-DNAmaca specification from a file.
    File(PathBuf),
    /// Generate the built-in voting model for `(voters, polling, central)`.
    Voting(u32, u32, u32),
}

/// An `smpq` failure: bad flags, unreadable/invalid model, or analysis error.
#[derive(Debug)]
pub enum CliError {
    /// `--help` / `-h` was given: print [`usage`] and exit successfully.
    Help,
    /// A command-line problem; print [`usage`] alongside it.
    Usage(String),
    /// The model could not be read, parsed or explored.
    Model(String),
    /// The analysis itself failed (solver, pipeline or validation).
    Analysis(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Model(m) => write!(f, "model error: {m}"),
            CliError::Analysis(m) => write!(f, "analysis error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Model(m) => CliError::Model(m),
            EngineError::Unsupported(m) | EngineError::Analysis(m) => CliError::Analysis(m),
        }
    }
}

impl From<QueryError> for CliError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Refused(refusal) => match refusal.kind {
                RefusalKind::Model => CliError::Model(refusal.message),
                RefusalKind::Protocol => CliError::Usage(refusal.message),
                kind => CliError::Analysis(format!("{}: {}", kind.name(), refusal.message)),
            },
            QueryError::Protocol(m) => CliError::Analysis(format!("protocol error: {m}")),
            QueryError::Io(e) => CliError::Analysis(format!("connection error: {e}")),
        }
    }
}

/// The `--help` text.
pub fn usage() -> &'static str {
    "smpq — passage-time and transient analysis of semi-Markov models
        (analytic, simulated, or distributed — one typed query layer)

USAGE:
    smpq (--model FILE | --voting CC,MM,NN) --measure KIND:TARGET[@ARGS] [options]
    smpq worker --connect HOST:PORT [--reconnect N] [--exit-after-chunks N]
    smpq serve --listen ADDR [--workers N|tcp:ADDR,...] [cache/admission options]
    smpq query --server ADDR (--model FILE | --voting CC,MM,NN) --measure ... [options]
    smpq shutdown --server ADDR

MODEL:
    --model FILE        extended-DNAmaca model specification file
    --voting CC,MM,NN   built-in voting model: CC voters, MM polling units,
                        NN central voting units (the paper's case study)
    --emit-model        print the model source and exit

MEASURES (repeatable, at least one):
    --measure KIND:TARGET[@ARGS]
        KIND    density | cdf | transient | quantile | mean | moment
        TARGET  a predicate PLACE OP N, e.g. p2>=3
                (OP is one of >= <= > < == !=)
        ARGS    quantile: probabilities, e.g. quantile:p2>=3@0.5,0.9,0.99
                moment:   the order 1..=4, e.g. moment:p2>=3@2
        density/cdf/quantile/mean/moment measure the first passage from the
        initial marking into the target's markings; transient measures their
        time-dependent state probability.

ENGINE:
    --engine NAME       distributed (default) | analytic | sim | uniform | auto
                        analytic and distributed agree bitwise; sim is the
                        discrete-event reference with confidence bounds;
                        uniform solves all-exponential models by CTMC
                        uniformization with an a-priori truncation bound
                        (rejects models with any non-exponential holding time);
                        auto probes the model and routes to uniform when every
                        holding time is exponential, distributed otherwise
    --validate-sim TOL  also run the simulation engine and fail if any shared
                        point deviates more than TOL (relative) plus the
                        simulation's 95% confidence bound (density measures
                        are reported but not enforced: the simulated density
                        is a biased kernel estimate)
    --replications N    simulation replications (default 10000)
    --seed N            simulation RNG seed (default 24301)

TIME GRID (shared by all curve measures; quantile searches start at --t-stop):
    --t-start X         first output time (default 1)
    --t-stop X          last output time (default 10)
    --t-count N         number of output times (default 10, minimum 2)

PIPELINE (distributed engine):
    --workers N         worker threads (default: one per available core,
                        as the analytic engine runs)
    --workers tcp:ADDR[,ADDR...]
                        distribute over TCP worker *processes* instead: the
                        master binds each ADDR (one per worker) and waits for
                        an 'smpq worker --connect HOST:PORT' to dial in
    --shards N          row-shard the state space into N contiguous blocks
                        solved by in-process loopback slice workers: each
                        iterates ~1/N of the states as lockstep sharded SpMV
                        with per-round halo exchange, but explores the whole
                        model first, so peak memory does not fall with N;
                        results are bitwise identical for any N
    --sharded           with --workers tcp: make each TCP worker process a row
                        shard holder (one shard per ADDR) instead of an
                        s-point evaluator
    --chunk-size N      work items per dispatch chunk (default: automatic)
    --checkpoint PATH   append computed transform values to PATH and reuse
                        them on the next run (warm cache across invocations;
                        also warms the quantile refinement rounds)
    --method NAME       euler (default) | laguerre
    --help              print this text

WORKER MODE (one per terminal/host):
    smpq worker --connect HOST:PORT
                        dial the master's rendezvous address, rebuild the
                        job's evaluators from its transform specs, answer
                        work chunks until the master says done
    --reconnect N       survive up to N lost masters: redial the rendezvous
                        with deterministic-jitter backoff and resume (compiled
                        models stay warm across reconnects); 0 (default) exits
                        on the first loss
    --exit-after-chunks N
                        fault injection: drop the connection after N chunks

QUERY SERVICE (always-on daemon; see ARCHITECTURE.md 'Query service'):
    smpq serve --listen ADDR
                        bind the query port and answer smpq query requests
                        until an smpq shutdown arrives; caches explored
                        models and transform values across queries
    --workers N         solve on N in-process threads (default: one per
                        available core), or
    --workers tcp:ADDR[,ADDR...]
                        bind one rendezvous per ADDR and wait for resident
                        'smpq worker --connect' processes to attach once
    --shards N          row-shard distributed solves into N loopback slices
                        (in-process pools only; answers stay bitwise identical)
    --cache-models N    explored-model LRU capacity (default 8)
    --cache-results MB  transform-value cache byte budget (default 64)
    --max-inflight N    concurrent solves (default 4)
    --max-queued N      waiting requests before Busy refusals (default 16)

    smpq query --server ADDR (--model FILE | --voting CC,MM,NN) --measure ...
                        ship one query to a running server; results are
                        bitwise identical to the same one-shot smpq run
    --engine NAME       auto (default) | analytic | distributed | uniform
                        (sim is one-shot only: the server refuses it)
    --deadline-ms N     refuse the request (typed: deadline) if it has not
                        completed after N ms, queue time included
    --retries N         retry transient failures (connect refused, connection
                        broken, server Busy) up to N extra times with
                        deterministic-jitter exponential backoff (default 0)
    --retry-backoff MS  base delay between retry attempts (default 100);
                        doubles per attempt, capped, never past the deadline
                        (also --t-start/--t-stop/--t-count/--method as above)

    smpq shutdown --server ADDR
                        ask the server to drain in-flight queries and exit"
}

// ---------------------------------------------------------------------------
// The front door: one flag table, one scanner
// ---------------------------------------------------------------------------

/// What a flag takes after its name.  The words finish the flag's parse
/// error: "`--t-count` expects an integer".
#[derive(Debug, Clone, Copy)]
enum Takes {
    /// Nothing: being there is the value.
    Switch,
    /// Any text; the mode that reads it gives it meaning.
    Text,
    /// A real number.
    Number(&'static str),
    /// An unsigned integer no smaller than the minimum.
    Int(&'static str, u64),
}
use Takes::{Int, Number, Switch, Text};

/// One table row: the flag and what it takes.
type Flag = (&'static str, Takes);

/// What is asked — one-shot runs and `smpq query`.
const REQUEST_FLAGS: &[Flag] = &[
    ("--model", Text),
    ("--voting", Text),
    ("--measure", Text),
    ("--t-start", Number("a number")),
    ("--t-stop", Number("a number")),
    ("--t-count", Int("an integer", 0)),
    ("--engine", Text),
    ("--method", Text),
];

/// Where solves run — one-shot runs and `smpq serve`.
const POOL_FLAGS: &[Flag] = &[("--workers", Text), ("--shards", Int("an integer", 1))];

const ONE_SHOT_FLAGS: &[Flag] = &[
    ("--emit-model", Switch),
    ("--validate-sim", Number("a tolerance")),
    ("--replications", Int("an integer", 1)),
    ("--seed", Int("an integer", 0)),
    ("--sharded", Switch),
    ("--chunk-size", Int("an integer", 0)),
    ("--checkpoint", Text),
];

const WORKER_FLAGS: &[Flag] = &[
    ("--connect", Text),
    ("--exit-after-chunks", Int("an integer", 0)),
    ("--reconnect", Int("an integer", 0)),
];

const SERVE_FLAGS: &[Flag] = &[
    ("--listen", Text),
    ("--cache-models", Int("an integer", 1)),
    ("--cache-results", Int("a size in MiB", 0)),
    ("--max-inflight", Int("an integer", 1)),
    ("--max-queued", Int("an integer", 0)),
];

const QUERY_FLAGS: &[Flag] = &[
    ("--server", Text),
    ("--deadline-ms", Int("milliseconds", 1)),
    ("--retries", Int("an integer", 0)),
    ("--retry-backoff", Int("milliseconds", 1)),
];

const SHUTDOWN_FLAGS: &[Flag] = &[("--server", Text)];

fn usage_error(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

impl Takes {
    /// The error for a value that is not what the flag takes.
    fn mismatch(self, name: &str) -> CliError {
        match self {
            Number(words) | Int(words, _) => usage_error(format!("{name} expects {words}")),
            Switch | Text => usage_error(format!("{name} expects a value")),
        }
    }
}

/// The flags of one invocation in command-line order, every value already
/// checked against its table row.
struct Scanned<'a>(Vec<(Flag, &'a str)>);

/// The one pass over argv.  Looks each argument up in the mode's tables,
/// takes its value and checks it against the row, so `--help`, an unknown
/// flag (in the mode's words: "unknown serve flag"), a missing value, a
/// non-number and a count below its minimum are refused here for every mode.
fn scan<'a>(mode: &str, tables: &[&[Flag]], args: &'a [String]) -> Result<Scanned<'a>, CliError> {
    let mut found = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        }
        let mut rows = tables.iter().copied().flatten();
        let Some(&(name, takes)) = rows.find(|row| row.0 == arg.as_str()) else {
            return Err(usage_error(format!("unknown {mode}flag '{arg}'")));
        };
        let value = match takes {
            Switch => "",
            _ => args.next().ok_or_else(|| Text.mismatch(name))?.as_str(),
        };
        match takes {
            Number(_) if value.parse::<f64>().is_err() => return Err(takes.mismatch(name)),
            Int(_, min) => match value.parse::<u64>() {
                Ok(n) if n >= min => {}
                Ok(_) => return Err(usage_error(format!("{name} must be at least {min}"))),
                Err(_) => return Err(takes.mismatch(name)),
            },
            _ => {}
        }
        found.push(((name, takes), value));
    }
    Ok(Scanned(found))
}

impl<'a> Scanned<'a> {
    /// Every value given for a flag, in order.
    fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        let given = self.0.iter().filter(move |(flag, _)| flag.0 == name);
        given.map(|&(_, value)| value)
    }

    fn has(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The last value given for a flag: repeating a flag overrides it.
    fn text(&self, name: &str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// Runs `parse` over every value given for a flag, so that each one is
    /// validated, and keeps the last.
    fn last_of<T>(
        &self,
        name: &str,
        parse: impl Fn(&'a str) -> Result<T, CliError>,
    ) -> Result<Option<T>, CliError> {
        self.all(name)
            .try_fold(None, |_, value| parse(value).map(Some))
    }

    /// The last value of a `Number` or `Int` flag, in the field's own type.
    /// [`scan`] parsed every value at full width, so this fails only on one
    /// too large for a narrower field.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let Some(&((_, takes), value)) = self.0.iter().rev().find(|(flag, _)| flag.0 == name)
        else {
            return Ok(None);
        };
        value.parse().map(Some).map_err(|_| takes.mismatch(name))
    }
}

/// Parses a `--workers` value: a thread count, or `tcp:` plus a list of
/// rendezvous addresses (shared by one-shot runs and `smpq serve`).
fn parse_workers_value(value: &str) -> Result<PoolSpec, CliError> {
    if let Some(list) = value.strip_prefix("tcp:") {
        let addrs: Vec<String> = list
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err(usage_error("--workers tcp: needs at least one ADDR"));
        }
        Ok(PoolSpec::Tcp(addrs))
    } else {
        Ok(PoolSpec::InProcess(value.parse().map_err(|_| {
            usage_error("--workers expects an integer or tcp:ADDR[,ADDR...]")
        })?))
    }
}

fn parse_voting(value: &str) -> Result<ModelSource, CliError> {
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 3 {
        return Err(usage_error(format!(
            "--voting expects CC,MM,NN (got '{value}')"
        )));
    }
    let mut numbers = [0u32; 3];
    for (slot, part) in numbers.iter_mut().zip(&parts) {
        *slot = part
            .trim()
            .parse()
            .map_err(|_| usage_error(format!("--voting component '{part}' is not a number")))?;
    }
    Ok(ModelSource::Voting(numbers[0], numbers[1], numbers[2]))
}

/// What [`resolve_request`] makes of a request's three texts.
type Resolved = (EngineChoice, InversionMethod, Vec<MeasureRequest>);

/// [`resolve_request`] for the command line: a refusal is a usage error.
/// `smpq query` (`served`) also refuses here, before any round trip, what its
/// server would not take for an engine.
fn resolve(
    served: bool,
    engine: &str,
    method: &str,
    measures: &[String],
) -> Result<Resolved, CliError> {
    match EngineChoice::from_name(engine) {
        Some(EngineChoice::Sim) if served => Err(usage_error(
            "the query server does not serve the simulation engine; \
run `smpq --engine sim` one-shot instead",
        )),
        None if served => Err(usage_error(format!(
            "unknown engine '{engine}' (expected auto, analytic, distributed or uniform)"
        ))),
        _ => resolve_request(engine, method, measures)
            .map_err(|refusal| CliError::Usage(refusal.message)),
    }
}

/// Reads the request flags: the one place a model source, a measure list, a
/// time grid and the engine and method selectors leave the command line, for
/// one-shot runs and for `smpq query` (`served`: engine `auto` unless told
/// otherwise).
fn request_options(bag: &Scanned<'_>, served: bool) -> Result<RequestOptions, CliError> {
    let mut model = None;
    let mut engine = if served { "auto" } else { "distributed" };
    let mut method = "euler";
    for &((name, _), value) in &bag.0 {
        match name {
            "--model" => model = Some(ModelSource::File(PathBuf::from(value))),
            "--voting" => model = Some(parse_voting(value)?),
            // Each selector is resolved as it is given, so a bad one is
            // refused even where a later one overrides it.
            "--engine" => engine = resolve(served, value, method, &[]).map(|_| value)?,
            "--method" => method = resolve(served, engine, value, &[]).map(|_| value)?,
            _ => {}
        }
    }
    let Some(model) = model else {
        return Err(usage_error(
            "a model is required: --model FILE or --voting CC,MM,NN",
        ));
    };
    // The measures are resolved last, so a kind error speaks for whichever
    // engine `--engine` picked, regardless of flag order.
    let texts: Vec<String> = bag.all("--measure").map(str::to_string).collect();
    let (engine, method, measures) = resolve(served, engine, method, &texts)?;
    if measures.is_empty() && !bag.has("--emit-model") {
        return Err(usage_error(
            "at least one --measure KIND:TARGET is required",
        ));
    }
    let t_start = bag.get("--t-start")?.unwrap_or(1.0);
    let t_stop = bag.get("--t-stop")?.unwrap_or(10.0);
    let t_count = bag.get("--t-count")?.unwrap_or(10usize);
    if !(t_start > 0.0 && t_stop >= t_start) || t_count < 2 {
        return Err(usage_error(
            "the time grid needs 0 < --t-start <= --t-stop and --t-count >= 2",
        ));
    }
    Ok(RequestOptions {
        model,
        measures,
        t_start,
        t_stop,
        t_count,
        engine,
        method,
    })
}

/// Parses command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    let bag = scan("", &[REQUEST_FLAGS, POOL_FLAGS, ONE_SHOT_FLAGS], args)?;
    let request = request_options(&bag, false)?;
    let engine = request.engine;
    let workers = bag
        .last_of("--workers", parse_workers_value)?
        .unwrap_or_else(|| PoolSpec::InProcess(available_cores()));
    let shards = bag.get("--shards")?.unwrap_or(0usize);
    let sharded = bag.has("--sharded");
    let validate_sim = bag.last_of("--validate-sim", |value| match value.parse::<f64>() {
        Ok(tol) if tol > 0.0 && tol.is_finite() => Ok(tol),
        _ => Err(usage_error(
            "--validate-sim tolerance must be a positive number",
        )),
    })?;
    let tcp = matches!(workers, PoolSpec::Tcp(_));
    if tcp && !matches!(engine, EngineChoice::Distributed | EngineChoice::Auto) {
        return Err(usage_error(format!(
            "--workers tcp: applies to the distributed engine only (got --engine {})",
            engine.name()
        )));
    }
    if (shards > 0 || sharded) && engine != EngineChoice::Distributed {
        return Err(usage_error(format!(
            "row sharding applies to the distributed engine only (got --engine {})",
            engine.name()
        )));
    }
    if shards > 0 && tcp {
        return Err(usage_error(
            "--shards runs in-process loopback slices; over TCP workers use --sharded \
(one shard per rendezvous address)",
        ));
    }
    if sharded && !tcp {
        return Err(usage_error(
            "--sharded needs --workers tcp:ADDR[,ADDR...] (one shard per worker \
process); for in-process sharding use --shards N",
        ));
    }
    let sim = SimulationOptions::default();
    Ok(CliOptions {
        request,
        workers,
        shards,
        sharded,
        chunk_size: bag.get("--chunk-size")?.unwrap_or(0),
        checkpoint: bag.text("--checkpoint").map(PathBuf::from),
        emit_model: bag.has("--emit-model"),
        validate_sim,
        replications: bag.get("--replications")?.unwrap_or(sim.replications),
        sim_seed: bag.get("--seed")?.unwrap_or(sim.seed),
    })
}

fn model_source_text(model: &ModelSource) -> Result<String, CliError> {
    match model {
        ModelSource::File(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Model(format!("cannot read {}: {e}", path.display()))),
        ModelSource::Voting(cc, mm, nn) => Ok(smp_voting::spec::dnamaca_source(
            smp_voting::VotingConfig::new(*cc, *mm, *nn),
        )),
    }
}

fn model_spec(model: &ModelSource, source: &str) -> ModelSpec {
    match model {
        ModelSource::Voting(cc, mm, nn) => ModelSpec::Voting {
            voters: *cc,
            polling: *mm,
            central: *nn,
        },
        ModelSource::File(_) => ModelSpec::Dnamaca(source.to_string()),
    }
}

fn sim_options(options: &CliOptions) -> SimulationOptions {
    SimulationOptions {
        replications: options.replications,
        seed: options.sim_seed,
        threads: match &options.workers {
            PoolSpec::InProcess(n) => (*n).max(1),
            PoolSpec::Tcp(_) => 1,
        },
        ..Default::default()
    }
}

/// The transport a one-shot distributed solve runs over: in-process threads
/// sharing the run's model cache, loopback row shards (`--shards N`), or TCP
/// worker processes (row-shard holders under `--sharded`).  The TCP
/// rendezvous is bound here, and its hints go to stderr at once — solve
/// blocks in accept until the workers dial in, and the report is printed
/// only afterwards — as well as to the report.
fn pool_transport(
    options: &CliOptions,
    models: &Arc<ModelCache>,
    out: &mut String,
) -> Result<Box<dyn Transport>, CliError> {
    let checkpoint = options.checkpoint.as_deref();
    let addrs = match &options.workers {
        PoolSpec::InProcess(_) if options.shards > 0 => {
            let shards = ShardedTransport::loopback(options.shards);
            return Ok(Box::new(shards.with_checkpoint(checkpoint)));
        }
        PoolSpec::InProcess(n) => {
            let threads = InProcess::new((*n).max(1));
            return Ok(Box::new(threads.with_model_cache(Arc::clone(models))));
        }
        PoolSpec::Tcp(addrs) => addrs,
    };
    let transport = TcpTransport::bind(addrs)
        .map_err(|e| CliError::Analysis(format!("cannot bind tcp rendezvous address: {e}")))?;
    for (worker, addr) in transport.local_addrs().iter().enumerate() {
        let hint = format!(
            "tcp master: worker {worker} rendezvous at {addr} \
(start it with: smpq worker --connect {addr})"
        );
        eprintln!("{hint}");
        let _ = writeln!(out, "{hint}");
    }
    Ok(if options.sharded {
        Box::new(ShardedTransport::tcp(transport).with_checkpoint(checkpoint))
    } else {
        Box::new(transport)
    })
}

/// Runs one `smpq` invocation, writing the report to a string the binary
/// prints (tests inspect it).
///
/// The whole measure-resolution flow is a shim over
/// [`smp_core::query::Engine::solve`]: the flags select and configure one of
/// the four engines, the `--measure` requests go through unchanged, and the
/// report is rendered from the returned [`MeasureReport`]s — including their
/// provenance (backend, wire traffic, cache hits, error bounds).
pub fn run(options: &CliOptions) -> Result<String, CliError> {
    let mut out = String::new();
    let source = model_source_text(&options.model)?;
    if options.emit_model {
        out.push_str(&source);
        return Ok(out);
    }

    // Parse the net locally for the model summary (cheap: no exploration).
    let net = smp_dnamaca::parse_model(&source).map_err(|e| CliError::Model(e.to_string()))?;
    let spec = model_spec(&options.model, &source);
    let ts = linspace(options.t_start, options.t_stop, options.t_count);
    let requests: Vec<MeasureRequest> = options
        .measures
        .iter()
        .map(|m| m.clone().with_t_points(&ts))
        .collect();

    // The routing probe and the engine it leads to look the model up in one
    // cache, so the run explores the model once.  The clock starts here: the
    // probe's exploration is the engine's.  `--engine analytic` runs the
    // `auto` probe too, for its hint.
    let started = Instant::now();
    let models = Arc::new(ModelCache::new(1));
    let probe = match options.engine {
        EngineChoice::Analytic => EngineChoice::Auto,
        chosen => chosen,
    };
    let (probed, probe_hits, probe_misses) = route(probe, &spec, &models, None)?;
    let (routed, note) = match (options.engine, probed) {
        // The uniformization engine solves all-exponential models exactly
        // with an a-priori truncation bound; tell the modeller when their
        // model qualifies but they picked the Laplace-inversion path.
        (EngineChoice::Analytic, EngineChoice::Uniform) => (
            EngineChoice::Analytic,
            Some(
                "hint: every holding-time distribution in this model is exponential; \
--engine uniform solves it by CTMC uniformization with an a-priori truncation bound",
            ),
        ),
        (EngineChoice::Auto, EngineChoice::Uniform) => (
            probed,
            Some("engine auto: every holding time is exponential; routing to uniformization"),
        ),
        (EngineChoice::Auto, _) => (
            probed,
            Some(
                "engine auto: non-exponential holding times present; \
routing to the distributed pipeline",
            ),
        ),
        (chosen, _) => (chosen, None),
    };
    if let Some(note) = note {
        let _ = writeln!(out, "{note}");
    }

    // A TCP master binds only when the routed engine is distributed.
    let engine: Box<dyn Engine> = if routed == EngineChoice::Sim {
        Box::new(SimulationEngine::new(spec, sim_options(options)))
    } else {
        let method = options.method.clone();
        let pipeline = PipelineOptions {
            checkpoint_path: options.checkpoint.clone(),
            chunk_size: options.chunk_size,
            ..Default::default()
        };
        let transport = || pool_transport(options, &models, &mut out);
        build_engine(routed, spec, method, &models, None, pipeline, transport)?
    };

    let mut reports = engine.solve(&requests)?;
    let elapsed = started.elapsed();
    if let Some(first) = reports.first_mut() {
        first.provenance.model_cache_hits += probe_hits;
        first.provenance.model_cache_misses += probe_misses;
    }

    // Every report carries the backend label of the engine that produced it.
    let backend = reports.first().map_or("", |r| &r.provenance.backend);
    if backend.contains("tcp") && reports.iter().all(|r| r.provenance.messages == 0) {
        // A TCP master ran, but no frame ever crossed the rendezvous: the
        // checkpoint satisfied the whole plan.  Say so eagerly — a worker
        // started per the hints above will retry against a closed port and
        // exit (cleanly, as released).
        let note = "tcp master: run satisfied entirely from the checkpoint; \
no worker connections were used (any started workers exit cleanly)";
        eprintln!("{note}");
        let _ = writeln!(out, "{note}");
    }

    render_model_line(&mut out, &net, routed, &reports);
    render_reports(&mut out, &ts, &reports);
    render_engine_summary(&mut out, engine.name(), backend, &reports, elapsed);

    if let Some(tolerance) = options.validate_sim {
        // With --engine sim the primary reports *are* the simulation's: reuse
        // them instead of burning a second identical replication set (the
        // comparison is then a self-consistency statement, flagged as such).
        let sim_reports = if options.engine == EngineChoice::Sim {
            reports.clone()
        } else {
            SimulationEngine::new(model_spec(&options.model, &source), sim_options(options))
                .solve(&requests)?
        };
        render_validation(&mut out, tolerance, options, &reports, &sim_reports)?;
    }
    Ok(out)
}

fn render_model_line(
    out: &mut String,
    net: &smp_smspn::SmSpn,
    engine: EngineChoice,
    reports: &[MeasureReport],
) {
    let states = reports.iter().find_map(|r| r.provenance.states);
    let suffix = match states {
        Some(states) => format!("{states} reachable markings"),
        None if engine == EngineChoice::Sim => {
            "(state space not built: discrete-event simulation)".to_string()
        }
        None if reports.iter().any(|r| r.provenance.backend.contains("tcp")) => {
            "(state space explored by the workers)".to_string()
        }
        None => "(state space not explored: run satisfied from cache/checkpoint)".to_string(),
    };
    let _ = writeln!(
        out,
        "model: {} places, {} transitions, {suffix}",
        net.num_places(),
        net.num_transitions(),
    );
}

fn render_reports(out: &mut String, ts: &[f64], reports: &[MeasureReport]) {
    // One combined table for the curve measures: a column per measure over
    // the shared grid.
    let curves: Vec<&MeasureReport> = reports.iter().filter(|r| r.kind.is_curve()).collect();
    if !curves.is_empty() {
        let _ = writeln!(out);
        let mut header = format!("{:>10}", "t");
        for report in &curves {
            let _ = write!(header, "  {:>18}", report.name);
        }
        let _ = writeln!(out, "{header}");
        for (row, &t) in ts.iter().enumerate() {
            let mut line = format!("{t:>10.3}");
            for report in &curves {
                let _ = write!(line, "  {:>18.6}", report.values[row]);
            }
            let _ = writeln!(out, "{line}");
        }
    }

    // Derived measures get their own sections.
    for report in reports.iter().filter(|r| !r.kind.is_curve()) {
        let _ = writeln!(out);
        match &report.kind {
            MeasureKind::Quantile { .. } => {
                let _ = writeln!(out, "{}:", report.name);
                for (p, q) in report.iter() {
                    let _ = writeln!(out, "    p = {p:<6} ->  t = {q:.6}");
                }
            }
            MeasureKind::Mean | MeasureKind::Moment { .. } => {
                let value = report.scalar().unwrap_or(f64::NAN);
                match report.provenance.error_bound {
                    // The simulation's bound is a confidence interval; every
                    // other engine reports a numerical error bound.
                    Some(ci) if report.provenance.engine == "simulation" => {
                        let _ = writeln!(out, "{} = {value:.6} (95% CI ±{ci:.6})", report.name);
                    }
                    Some(bound) => {
                        let _ = writeln!(out, "{} = {value:.6} (±{bound:.6})", report.name);
                    }
                    None => {
                        let _ = writeln!(out, "{} = {value:.6}", report.name);
                    }
                }
            }
            _ => unreachable!("curve kinds rendered above"),
        }
    }
}

/// The engine/backend/traffic/cache block shared between one-shot runs and
/// `smpq query` (which learns the engine and backend from the returned
/// provenance rather than from local flags).
fn render_engine_summary(
    out: &mut String,
    engine_name: &str,
    backend: &str,
    reports: &[MeasureReport],
    elapsed: std::time::Duration,
) {
    let workers = reports
        .iter()
        .map(|r| r.provenance.workers)
        .max()
        .unwrap_or(1);
    // Run-level counters are attributed to the first measure of each shared
    // run, so summing across reports gives the true totals.
    let messages: usize = reports.iter().map(|r| r.provenance.messages).sum();
    let bytes: u64 = reports.iter().map(|r| r.provenance.bytes_on_wire).sum();
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "engine: {engine_name} [{backend}], {workers} worker(s), {messages} wire message(s), \
{bytes} wire byte(s), {:.3}s elapsed",
        elapsed.as_secs_f64()
    );
    let evaluations: usize = reports.iter().map(|r| r.provenance.evaluations).sum();
    let cache_hits: usize = reports.iter().map(|r| r.provenance.cache_hits).sum();
    let shared_hits: usize = reports.iter().map(|r| r.provenance.shared_hits).sum();
    let _ = writeln!(
        out,
        "evaluations: {evaluations} new, {cache_hits} from checkpoint/cache, \
{shared_hits} shared between measures",
    );
    // The symbolic/numeric split's savings: each avoided rebuild is one
    // s-point that refilled a prebuilt CSR skeleton instead of constructing
    // the (U, U') pair, and LST evaluations are counted per *distinct*
    // pooled distribution, not per transition.
    let rebuilds_avoided: u64 = reports
        .iter()
        .map(|r| r.provenance.matrix_rebuilds_avoided)
        .sum();
    let pooled_lsts: u64 = reports
        .iter()
        .map(|r| r.provenance.pooled_lst_evaluations)
        .sum();
    if rebuilds_avoided > 0 || pooled_lsts > 0 {
        let _ = writeln!(
            out,
            "hot path: {rebuilds_avoided} matrix rebuild(s) avoided, \
{pooled_lsts} pooled LST evaluation(s)",
        );
    }
    // Row-sharding counters: zero unless the run was sharded, so unsharded
    // output stays byte-identical to earlier releases.  The per-shard state
    // counts sum to the full state space; their maximum is each worker's
    // memory high-water mark.
    let shards = reports
        .iter()
        .map(|r| r.provenance.shards)
        .max()
        .unwrap_or(0);
    if shards > 0 {
        let halo: u64 = reports.iter().map(|r| r.provenance.halo_bytes).sum();
        let rounds: u64 = reports.iter().map(|r| r.provenance.exchange_rounds).sum();
        let slice = reports
            .iter()
            .find(|r| !r.provenance.shard_states.is_empty())
            .map(|r| {
                r.provenance
                    .shard_states
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "sharding: {shards} row shard(s) [{slice} states], {halo} halo byte(s) over {rounds} exchange round(s)",
        );
    }
    // Queue wait is a served-query quantity, zero on one-shot runs.  The
    // model-cache line counts explored-model lookups (a miss is one
    // exploration) on every engine that explores on this side of the wire.
    let queued: std::time::Duration = reports.iter().map(|r| r.provenance.queue_wait).sum();
    let model_hits: usize = reports.iter().map(|r| r.provenance.model_cache_hits).sum();
    let model_misses: usize = reports
        .iter()
        .map(|r| r.provenance.model_cache_misses)
        .sum();
    if queued > std::time::Duration::ZERO {
        let _ = writeln!(out, "server: {:.3}s queued", queued.as_secs_f64());
    }
    if model_hits > 0 || model_misses > 0 {
        let _ = writeln!(
            out,
            "model cache: {model_hits} hit(s) / {model_misses} miss(es)"
        );
    }
    // Fault-recovery counters: all zero on an untroubled run, so this line
    // only appears when something went wrong and was absorbed.
    let retries: u64 = reports.iter().map(|r| r.provenance.retries).sum();
    let recovered: u64 = reports.iter().map(|r| r.provenance.recovered_faults).sum();
    let resumed: u64 = reports.iter().map(|r| r.provenance.resumed_rounds).sum();
    if retries > 0 || recovered > 0 || resumed > 0 {
        let _ = writeln!(
            out,
            "recovery: {retries} retr{} with backoff, {recovered} fault(s) absorbed, \
{resumed} iteration round(s) resumed from checkpoint",
            if retries == 1 { "y" } else { "ies" }
        );
    }
    for report in reports {
        let _ = writeln!(
            out,
            "  {:<24} {:>6} evaluated  {:>6} cached  {:>6} shared",
            report.name,
            report.provenance.evaluations,
            report.provenance.cache_hits,
            report.provenance.shared_hits
        );
    }
}

/// Compares the chosen engine's reports against the simulation engine's:
/// every shared point must satisfy
/// `|a − b| ≤ TOL · max(1, |a|, |b|) + sim 95% bound`.
///
/// Density measures are compared *advisorily* only: the simulation side is a
/// kernel-density estimate whose smoothing bias does not vanish with more
/// replications, so a mismatch there is expected and must not fail the run.
fn render_validation(
    out: &mut String,
    tolerance: f64,
    options: &CliOptions,
    reports: &[MeasureReport],
    sim_reports: &[MeasureReport],
) -> Result<(), CliError> {
    let self_check = options.engine == EngineChoice::Sim;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "validation vs simulation (tolerance {tolerance}, {} replications, seed {:#x}){}:",
        options.replications,
        options.sim_seed,
        if self_check {
            " — self-consistency only: the chosen engine IS the simulation"
        } else {
            ""
        }
    );
    let mut failures = Vec::new();
    for (report, sim) in reports.iter().zip(sim_reports) {
        debug_assert_eq!(report.name, sim.name);
        let advisory = matches!(report.kind, MeasureKind::Density);
        let bound = sim.provenance.error_bound.unwrap_or(0.0);
        // Track the largest deviation for the per-measure summary line.
        let mut worst: Option<(f64, f64)> = None; // (Δ, allowed at that point)
        for ((&point, &a), &b) in report.points.iter().zip(&report.values).zip(&sim.values) {
            let delta = (a - b).abs();
            let allowed = tolerance * a.abs().max(b.abs()).max(1.0) + bound;
            if worst.is_none_or(|(d, _)| delta > d) {
                worst = Some((delta, allowed));
            }
            if delta > allowed && !advisory {
                failures.push(format!(
                    "{} at {point}: {} {a:.6} vs sim {b:.6} (|Δ| {delta:.6} > allowed {allowed:.6})",
                    report.name,
                    report.provenance.engine,
                ));
            }
        }
        if let Some((delta, allowed)) = worst {
            let _ = writeln!(
                out,
                "  {:<32} max |Δ| {delta:.6} (allowed {allowed:.6}){}",
                report.name,
                if advisory {
                    "  [advisory: kernel-density estimate, not enforced]"
                } else {
                    ""
                }
            );
        }
    }
    if failures.is_empty() {
        let _ = writeln!(
            out,
            "validation passed: {} measure(s) agree with the simulation",
            reports.len()
        );
        Ok(())
    } else {
        Err(CliError::Analysis(format!(
            "validation against simulation failed:\n  {}",
            failures.join("\n  ")
        )))
    }
}

// ---------------------------------------------------------------------------
// Worker mode
// ---------------------------------------------------------------------------

/// Options for the `smpq worker` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCliOptions {
    /// The master's rendezvous address (`HOST:PORT`).
    pub connect: String,
    /// Fault injection: drop the connection after this many chunks.
    pub exit_after_chunks: Option<usize>,
    /// Redial-and-resume budget after a lost master (`--reconnect N`;
    /// 0 = exit on the first loss, today's one-shot behaviour).
    pub reconnect: u32,
}

/// Parses the arguments after `smpq worker`.
pub fn parse_worker_args(args: &[String]) -> Result<WorkerCliOptions, CliError> {
    let bag = scan("worker ", &[WORKER_FLAGS], args)?;
    let Some(connect) = bag.text("--connect") else {
        return Err(usage_error(
            "smpq worker needs --connect HOST:PORT (the master's rendezvous address)",
        ));
    };
    Ok(WorkerCliOptions {
        connect: connect.to_string(),
        exit_after_chunks: bag.get("--exit-after-chunks")?,
        reconnect: bag.get("--reconnect")?.unwrap_or(0),
    })
}

/// Runs one worker process: dial the master, rebuild the evaluators from the
/// job's transform specs, answer chunks until released.  Returns the summary
/// line the binary prints.
pub fn run_worker(options: &WorkerCliOptions) -> Result<String, CliError> {
    let worker_options = TcpWorkerOptions {
        exit_after_chunks: options.exit_after_chunks,
        reconnect_attempts: options.reconnect,
        ..Default::default()
    };
    let summary = run_tcp_worker(&options.connect, &worker_options).map_err(CliError::Analysis)?;
    let recovery = if summary.reconnects > 0 || summary.dial_retries > 0 {
        format!(
            " (recovered: {} reconnect(s), {} dial retr{})",
            summary.reconnects,
            summary.dial_retries,
            if summary.dial_retries == 1 {
                "y"
            } else {
                "ies"
            }
        )
    } else {
        String::new()
    };
    if summary.released_before_work {
        return Ok(format!(
            "worker released: the master finished before assigning work (warm run \
or a faster peer drained the queue){recovery}\n"
        ));
    }
    Ok(format!(
        "worker {} done: {} chunk(s), {} evaluation(s){}{recovery}\n",
        summary.worker_id,
        summary.chunks,
        summary.evaluated,
        if summary.dropped_early {
            " (connection dropped by fault injection)"
        } else {
            ""
        }
    ))
}

// ---------------------------------------------------------------------------
// Query-service modes: serve / query / shutdown
// ---------------------------------------------------------------------------

/// Parses the arguments after `smpq serve`: the server's own options, but
/// for the pool, which defaults to one in-process thread per core.
pub fn parse_serve_args(args: &[String]) -> Result<QueryServerOptions, CliError> {
    let bag = scan("serve ", &[POOL_FLAGS, SERVE_FLAGS], args)?;
    let defaults = QueryServerOptions::default();
    let options = QueryServerOptions {
        listen: bag.text("--listen").map_or(defaults.listen, str::to_string),
        pool: bag
            .last_of("--workers", parse_workers_value)?
            .unwrap_or_else(|| PoolSpec::InProcess(available_cores())),
        cache_models: bag.get("--cache-models")?.unwrap_or(defaults.cache_models),
        cache_result_bytes: match bag.get::<usize>("--cache-results")? {
            Some(mib) => mib.saturating_mul(1 << 20),
            None => defaults.cache_result_bytes,
        },
        max_inflight: bag.get("--max-inflight")?.unwrap_or(defaults.max_inflight),
        max_queued: bag.get("--max-queued")?.unwrap_or(defaults.max_queued),
        solve_shards: bag.get("--shards")?.unwrap_or(defaults.solve_shards),
    };
    if options.solve_shards > 0 && matches!(options.pool, PoolSpec::Tcp(_)) {
        return Err(usage_error(
            "serve --shards row-shards on in-process loopback slices and cannot be \
combined with a resident tcp worker pool",
        ));
    }
    Ok(options)
}

/// Runs the always-on query server: bind, attach any TCP workers, then
/// answer `smpq query` requests until an `smpq shutdown` arrives.  Returns
/// the summary line the binary prints after a clean shutdown.
///
/// The listening address and the worker rendezvous addresses are printed to
/// stderr *eagerly* (before the accept loop blocks), since the operator —
/// or the integration test — needs them to start clients and workers.
pub fn run_serve(options: &QueryServerOptions) -> Result<String, CliError> {
    let server = QueryServer::bind(options.clone())
        .map_err(|e| CliError::Analysis(format!("cannot bind the query server: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Analysis(format!("cannot read the bound address: {e}")))?;
    eprintln!("serve: listening on {addr} (query it with: smpq query --server {addr} ...)");
    let worker_addrs = server
        .worker_addrs()
        .map_err(|e| CliError::Analysis(format!("cannot read a worker rendezvous address: {e}")))?;
    for (worker, waddr) in worker_addrs.iter().enumerate() {
        eprintln!(
            "serve: worker {worker} rendezvous at {waddr} \
(start it with: smpq worker --connect {waddr})"
        );
    }
    if !worker_addrs.is_empty() {
        let attached = server
            .attach_workers()
            .map_err(|e| CliError::Analysis(format!("worker attachment failed: {e}")))?;
        eprintln!("serve: pool attached: {attached} resident worker(s)");
    }
    server
        .run()
        .map_err(|e| CliError::Analysis(format!("query server failed: {e}")))?;
    Ok(format!("serve: shut down cleanly ({addr})\n"))
}

/// Options for the `smpq query` subcommand.
#[derive(Debug, Clone)]
pub struct QueryCliOptions {
    /// The running server's address (`HOST:PORT`).
    pub server: String,
    /// The request itself (engine [`EngineChoice::Auto`] unless told
    /// otherwise; the model is read locally and shipped in the query); its
    /// fields read as this struct's own.
    pub request: RequestOptions,
    /// Raw `--measure` texts, shipped verbatim (the server resolves them
    /// with the resolver that checked them here).
    pub measure_texts: Vec<String>,
    /// Per-request deadline in milliseconds (queue time included).
    pub deadline_ms: Option<u64>,
    /// Extra attempts after a transient failure (connect refused, connection
    /// broken, server Busy); 0 = single attempt.
    pub retries: u32,
    /// Base backoff between retry attempts, in milliseconds (doubles per
    /// attempt with deterministic jitter).
    pub retry_backoff_ms: u64,
}

impl std::ops::Deref for QueryCliOptions {
    type Target = RequestOptions;
    fn deref(&self) -> &RequestOptions {
        &self.request
    }
}

/// Parses the arguments after `smpq query`.
pub fn parse_query_args(args: &[String]) -> Result<QueryCliOptions, CliError> {
    let bag = scan("query ", &[REQUEST_FLAGS, QUERY_FLAGS], args)?;
    let Some(server) = bag.text("--server") else {
        return Err(usage_error(
            "smpq query needs --server HOST:PORT (a running smpq serve)",
        ));
    };
    Ok(QueryCliOptions {
        server: server.to_string(),
        // Resolving here fails a typo before the round trip.
        request: request_options(&bag, true)?,
        measure_texts: bag.all("--measure").map(str::to_string).collect(),
        deadline_ms: bag.get("--deadline-ms")?,
        retries: bag.get("--retries")?.unwrap_or(0),
        retry_backoff_ms: bag.get("--retry-backoff")?.unwrap_or(100),
    })
}

/// Ships one query to a running server and renders its answer with the same
/// table/summary code as a one-shot run — the output differs only in the
/// backend label (`... via ADDR`) and the server-side cache/queue counters.
pub fn run_query(options: &QueryCliOptions) -> Result<String, CliError> {
    let mut out = String::new();
    let source = model_source_text(&options.model)?;
    // Parse the net locally for the model summary line (cheap: no
    // exploration; the server does the real work).
    let net = smp_dnamaca::parse_model(&source).map_err(|e| CliError::Model(e.to_string()))?;
    let ts = linspace(options.t_start, options.t_stop, options.t_count);
    let request = QueryRequest {
        model: model_spec(&options.model, &source),
        engine: options.engine.name().to_string(),
        method: options.method.name().to_string(),
        deadline: options.deadline_ms.map(Duration::from_millis),
        t_points: ts.clone(),
        measures: options.measure_texts.clone(),
    };

    let started = Instant::now();
    let reports = if options.retries > 0 {
        // Systematic client-side retry: transient failures (connect refused,
        // broken connection, server Busy) redial with deterministic-jitter
        // backoff; final refusals and the request deadline cut it short.
        query_with_retry(
            &options.server,
            &request,
            &RetryPolicy {
                retries: options.retries,
                backoff: Duration::from_millis(options.retry_backoff_ms),
            },
        )?
    } else {
        QueryClient::connect(&options.server)?.query(&request)?
    };
    let elapsed = started.elapsed();
    // The table below is laid out on the grid that was asked for.
    if let Some(off_grid) = reports.iter().find(|r| r.kind.is_curve() && r.points != ts) {
        return Err(CliError::Analysis(format!(
            "protocol error: the report for '{}' is not on the requested time grid",
            off_grid.name
        )));
    }

    // The engine that actually answered (auto-routing happens server-side)
    // comes back in the provenance.
    let engine_name = reports
        .first()
        .map(|r| r.provenance.engine)
        .unwrap_or("remote");
    let backend = format!(
        "{} via {}",
        reports
            .first()
            .map(|r| r.provenance.backend.as_str())
            .unwrap_or("server"),
        options.server
    );
    render_model_line(&mut out, &net, options.engine, &reports);
    render_reports(&mut out, &ts, &reports);
    render_engine_summary(&mut out, engine_name, &backend, &reports, elapsed);
    Ok(out)
}

/// Options for the `smpq shutdown` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownCliOptions {
    /// The running server's address (`HOST:PORT`).
    pub server: String,
}

/// Parses the arguments after `smpq shutdown`.
pub fn parse_shutdown_args(args: &[String]) -> Result<ShutdownCliOptions, CliError> {
    let bag = scan("shutdown ", &[SHUTDOWN_FLAGS], args)?;
    let Some(server) = bag.text("--server") else {
        return Err(usage_error(
            "smpq shutdown needs --server HOST:PORT (a running smpq serve)",
        ));
    };
    Ok(ShutdownCliOptions {
        server: server.to_string(),
    })
}

/// Asks a running server to drain and exit; returns the confirmation line.
pub fn run_shutdown(options: &ShutdownCliOptions) -> Result<String, CliError> {
    QueryClient::connect(&options.server)?.shutdown()?;
    Ok(format!(
        "server at {} acknowledged shutdown\n",
        options.server
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_pipeline::CompareOp;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// No usage error carries a run of spaces (the mark of a string literal
    /// that lost its line continuation).
    fn single_spaced(message: &str) -> &str {
        assert!(!message.contains("  "), "{message:?}");
        message
    }

    fn parse_predicate(text: &str) -> Result<smp_pipeline::TargetSpec, CliError> {
        smp_pipeline::TargetSpec::parse(text).map_err(CliError::Usage)
    }

    #[test]
    fn parse_full_flag_set() {
        let options = parse_args(&args(&[
            "--voting",
            "5,2,2",
            "--measure",
            "density:p2>=3",
            "--measure",
            "cdf:p2>=3",
            "--measure",
            "transient:p6==0",
            "--measure",
            "quantile:p2>=3@0.5,0.9,0.99",
            "--measure",
            "mean:p2>=3",
            "--measure",
            "moment:p2>=3@2",
            "--t-start",
            "2",
            "--t-stop",
            "60",
            "--t-count",
            "12",
            "--engine",
            "distributed",
            "--workers",
            "8",
            "--chunk-size",
            "16",
            "--checkpoint",
            "/tmp/x.ckpt",
            "--method",
            "laguerre",
            "--validate-sim",
            "1e-2",
            "--replications",
            "5000",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(options.model, ModelSource::Voting(5, 2, 2));
        assert_eq!(options.measures.len(), 6);
        assert_eq!(options.measures[0].kind, MeasureKind::Density);
        assert_eq!(options.measures[0].name(), "density:p2>=3");
        assert_eq!(options.measures[2].target.op, CompareOp::Eq);
        assert_eq!(
            options.measures[3].kind,
            MeasureKind::Quantile {
                probs: vec![0.5, 0.9, 0.99]
            }
        );
        assert_eq!(options.measures[4].kind, MeasureKind::Mean);
        assert_eq!(options.measures[5].kind, MeasureKind::Moment { order: 2 });
        assert_eq!(options.t_count, 12);
        assert_eq!(options.engine, EngineChoice::Distributed);
        assert_eq!(options.workers, PoolSpec::InProcess(8));
        assert_eq!(options.chunk_size, 16);
        assert_eq!(options.method.name(), "laguerre");
        assert_eq!(options.checkpoint, Some(PathBuf::from("/tmp/x.ckpt")));
        assert_eq!(options.validate_sim, Some(1e-2));
        assert_eq!(options.replications, 5000);
        assert_eq!(options.sim_seed, 7);
    }

    /// Without `--workers` the in-process pipeline runs one thread per core
    /// the host gives the process, as the analytic engine does; each thread
    /// holds its own lane buffers, so a fixed count past the cores only adds
    /// memory.
    #[test]
    fn default_workers_follow_the_host() {
        let options = parse_args(&args(&["--voting", "3,1,1", "--measure", "cdf:p2>=2"])).unwrap();
        assert_eq!(options.workers, PoolSpec::InProcess(available_cores()));
        assert!(
            usage().contains("--workers N         worker threads (default: one per available core")
        );
    }

    /// `smpq serve` without `--workers` solves on one in-process thread per
    /// core, as the one-shot run does.
    #[test]
    fn serve_workers_default_to_the_host() {
        let options = parse_serve_args(&[]).unwrap();
        assert_eq!(options.pool, PoolSpec::InProcess(available_cores()));
        assert!(
            usage().contains("--workers N         solve on N in-process threads (default: one per")
        );
    }

    #[test]
    fn parse_engine_choices() {
        for (value, expect) in [
            ("analytic", EngineChoice::Analytic),
            ("sim", EngineChoice::Sim),
            ("simulation", EngineChoice::Sim),
            ("distributed", EngineChoice::Distributed),
            ("uniform", EngineChoice::Uniform),
            ("uniformization", EngineChoice::Uniform),
            ("auto", EngineChoice::Auto),
        ] {
            let options = parse_args(&args(&[
                "--voting",
                "3,1,1",
                "--measure",
                "mean:p2>=2",
                "--engine",
                value,
            ]))
            .unwrap();
            assert_eq!(options.engine, expect, "{value}");
        }
        assert!(matches!(
            parse_args(&args(&[
                "--voting",
                "3,1,1",
                "--measure",
                "mean:p2>=2",
                "--engine",
                "quantum",
            ])),
            Err(CliError::Usage(_))
        ));
        // TCP workers only make sense for the distributed engine.
        let e = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--engine",
            "analytic",
            "--workers",
            "tcp:127.0.0.1:9000",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("distributed engine only"), "{e}");
    }

    #[test]
    fn parse_tcp_backend_and_worker_flags() {
        let options = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "density:p2>=2",
            "--workers",
            "tcp:127.0.0.1:9001, 127.0.0.1:9002",
        ]))
        .unwrap();
        assert_eq!(
            options.workers,
            PoolSpec::Tcp(vec![
                "127.0.0.1:9001".to_string(),
                "127.0.0.1:9002".to_string()
            ])
        );

        // Worker subcommand flags.
        let worker = parse_worker_args(&args(&["--connect", "10.0.0.5:9000"])).unwrap();
        assert_eq!(worker.connect, "10.0.0.5:9000");
        assert_eq!(worker.exit_after_chunks, None);
        assert_eq!(worker.reconnect, 0);
        let worker = parse_worker_args(&args(&[
            "--connect",
            "localhost:1234",
            "--exit-after-chunks",
            "3",
            "--reconnect",
            "5",
        ]))
        .unwrap();
        assert_eq!(worker.exit_after_chunks, Some(3));
        assert_eq!(worker.reconnect, 5);
        assert!(matches!(
            parse_worker_args(&args(&["--connect", "x:1", "--reconnect", "lots"])),
            Err(CliError::Usage(_))
        ));

        // Bad input.
        for bad in [
            vec![
                "--voting",
                "3,1,1",
                "--measure",
                "density:p2>=2",
                "--workers",
                "tcp:",
            ],
            vec![
                "--voting",
                "3,1,1",
                "--measure",
                "density:p2>=2",
                "--workers",
                "seven",
            ],
        ] {
            assert!(matches!(parse_args(&args(&bad)), Err(CliError::Usage(_))));
        }
        assert!(matches!(
            parse_worker_args(&args(&[])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_worker_args(&args(&["--connect", "x:1", "--frob"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn model_fingerprint_distinguishes_models() {
        let fingerprint = |source: &str| ModelSpec::Dnamaca(source.to_string()).fingerprint();
        let a = fingerprint("\\place{p}{1}");
        let b = fingerprint("\\place{p}{2}");
        assert_ne!(a, b);
        assert_eq!(a, fingerprint("\\place{p}{1}"), "deterministic");
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn checkpoint_is_not_shared_across_different_models() {
        // Same measure and grid, two different voting configurations, one
        // checkpoint file: the second run must not reuse the first model's
        // transform values.
        let mut checkpoint = std::env::temp_dir();
        checkpoint.push(format!("smpq-model-key-test-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&checkpoint);
        let run_with = |voting: &str| {
            let mut options = parse_args(&args(&[
                "--voting",
                voting,
                "--measure",
                "transient:p2>=2",
                "--t-count",
                "2",
                "--t-stop",
                "4",
            ]))
            .unwrap();
            options.checkpoint = Some(checkpoint.clone());
            run(&options).unwrap()
        };
        let first = run_with("3,1,1");
        assert!(first.contains(" 0 from checkpoint/cache"), "{first}");
        let second = run_with("4,1,1");
        // A different model: everything is evaluated fresh, nothing restored.
        assert!(second.contains(" 0 from checkpoint/cache"), "{second}");
        // The same model again: fully warm.
        let third = run_with("4,1,1");
        assert!(third.contains("evaluations: 0 new"), "{third}");
        std::fs::remove_file(&checkpoint).unwrap();
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            vec!["--measure", "density:p2>=3"],                    // no model
            vec!["--voting", "5,2"],                               // malformed triple
            vec!["--voting", "5,2,2"],                             // no measure
            vec!["--voting", "5,2,2", "--measure", "p2>=3"],       // missing kind
            vec!["--voting", "5,2,2", "--measure", "frob:p2>=3"],  // unknown kind
            vec!["--voting", "5,2,2", "--measure", "density:p2"],  // no operator
            vec!["--voting", "5,2,2", "--measure", "density:>=3"], // no place
            vec!["--voting", "5,2,2", "--measure", "density:p2>=x"], // bad count
            vec!["--voting", "5,2,2", "--measure", "quantile:p2>=3"], // no probs
            vec!["--voting", "5,2,2", "--measure", "quantile:p2>=3@2"], // prob out of range
            vec!["--voting", "5,2,2", "--measure", "moment:p2>=3@7"], // order out of range
            vec!["--voting", "5,2,2", "--method", "talbot"],       // unknown method
            vec![
                "--voting",
                "5,2,2",
                "--measure",
                "cdf:p2>=1",
                "--validate-sim",
                "-1",
            ],
            // a 1-point grid would panic linspace; rejected up front
            vec![
                "--voting",
                "5,2,2",
                "--measure",
                "cdf:p2>=1",
                "--t-count",
                "1",
            ],
            vec!["--frobnicate"], // unknown flag
        ] {
            assert!(
                matches!(parse_args(&args(&bad)), Err(CliError::Usage(_))),
                "expected a usage error for {bad:?}"
            );
            if let Err(CliError::Usage(message)) = parse_args(&args(&bad)) {
                single_spaced(&message);
            }
        }
    }

    #[test]
    fn measure_parse_errors_name_the_token_and_list_kinds() {
        let err = parse_args(&args(&["--voting", "3,1,1", "--measure", "frob:p2>=3"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("'frob'"), "{err}");
        assert!(
            err.contains("density, cdf, transient, quantile, mean, moment"),
            "{err}"
        );
        let err = parse_args(&args(&["--voting", "3,1,1", "--measure", "density:p2"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("'p2'"), "{err}");
        assert!(err.contains(">= <= > < == !="), "{err}");
    }

    #[test]
    fn predicates_evaluate_correctly() {
        let cases = [
            ("p>=3", 3, true),
            ("p>=3", 2, false),
            ("p<=1", 1, true),
            ("p>0", 0, false),
            ("p<5", 4, true),
            ("p==2", 2, true),
            ("p!=2", 2, false),
        ];
        for (text, tokens, expect) in cases {
            let predicate = parse_predicate(text).unwrap();
            assert_eq!(predicate.matches(tokens), expect, "{text} with {tokens}");
        }
    }

    #[test]
    fn emit_model_prints_the_dnamaca_source() {
        let options = parse_args(&args(&["--voting", "3,1,1", "--emit-model"])).unwrap();
        let report = run(&options).unwrap();
        assert!(report.contains("\\place"), "expected model text: {report}");
        assert!(report.contains("\\transition"));
    }

    #[test]
    fn unknown_place_is_a_model_error() {
        let options = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "transient:nosuch>=1",
            "--t-count",
            "2",
        ]))
        .unwrap();
        match run(&options) {
            Err(CliError::Model(message)) => assert!(message.contains("nosuch")),
            other => panic!("expected a model error, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_voting_model_via_run() {
        // The same model as examples/dnamaca_spec.rs: voting system (5, 2, 2),
        // transient probability that at least 3 voters have voted.
        let options = parse_args(&args(&[
            "--voting",
            "5,2,2",
            "--measure",
            "transient:p2>=3",
            "--t-start",
            "2",
            "--t-stop",
            "20",
            "--t-count",
            "4",
            "--workers",
            "4",
            "--chunk-size",
            "8",
        ]))
        .unwrap();
        let report = run(&options).unwrap();
        assert!(report.contains("reachable markings"), "{report}");
        assert!(report.contains("transient:p2>=3"), "{report}");
        assert!(report.contains("evaluations:"), "{report}");
        // The probability column is populated with values in [0, 1].
        let last_row = report
            .lines()
            .find(|line| line.trim_start().starts_with("20.000"))
            .expect("a t = 20 row");
        let p: f64 = last_row.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((0.0..=1.0).contains(&p), "P = {p}");

        // A transient point is one refill, like a passage point: G = 4 × 46
        // points evaluate each pooled LST G times — the count a CDF on that
        // grid prints.  Rebuilds are avoided per workspace, one per thread
        // that took a block: G − 1 on one thread, as few as G − W on W.
        let hot_path = |measure: &str| -> (u64, String) {
            let mut argv = args(&["--voting", "5,2,2", "--engine", "analytic"]);
            argv.extend(args(&["--measure", measure, "--t-start", "2"]));
            argv.extend(args(&["--t-stop", "20", "--t-count", "4"]));
            let report = run(&parse_args(&argv).unwrap()).unwrap();
            let line = report
                .lines()
                .find_map(|line| line.strip_prefix("hot path: "));
            let (rebuilds, pooled) = line
                .and_then(|line| line.split_once(" matrix rebuild(s) avoided, "))
                .expect("a hot path line");
            (rebuilds.parse().unwrap(), pooled.to_string())
        };
        let g: usize = 4 * 46;
        let threads = std::thread::available_parallelism().unwrap().get();
        for measure in ["transient:p2>=3", "cdf:p2>=3"] {
            let (rebuilds, pooled) = hot_path(measure);
            // Eight pooled distributions, each evaluated once a point.
            assert_eq!(pooled, format!("{} pooled LST evaluation(s)", g * 8));
            let range = g - threads.min(g.div_ceil(smp_core::workspace::BLOCK_LANES))..g;
            assert!(
                range.contains(&(rebuilds as usize)),
                "{measure}: {rebuilds}"
            );
        }
    }

    #[test]
    fn engines_agree_through_the_cli() {
        // The same quantile+cdf request through all three engines: analytic
        // and distributed render identical tables; the simulation engine
        // passes --validate-sim against itself trivially.
        let base = |engine: &str| {
            args(&[
                "--voting",
                "3,1,1",
                "--measure",
                "cdf:p2>=2",
                "--measure",
                "quantile:p2>=2@0.5,0.9",
                "--t-start",
                "1",
                "--t-stop",
                "12",
                "--t-count",
                "4",
                "--engine",
                engine,
                "--replications",
                "4000",
            ])
        };
        let analytic = run(&parse_args(&base("analytic")).unwrap()).unwrap();
        let distributed = run(&parse_args(&base("distributed")).unwrap()).unwrap();
        let numeric_rows = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| {
                    l.trim_start().starts_with(|c: char| c.is_ascii_digit())
                        || l.trim_start().starts_with("p =")
                })
                .map(str::to_string)
                .collect()
        };
        assert_eq!(numeric_rows(&analytic), numeric_rows(&distributed));
        assert!(
            analytic.contains("engine: analytic [in-process]"),
            "{analytic}"
        );
        assert!(
            distributed.contains("engine: distributed [in-process]"),
            "{distributed}"
        );
        assert!(analytic.contains("quantile:p2>=2@0.5,0.9:"), "{analytic}");

        let sim = run(&parse_args(&base("sim")).unwrap()).unwrap();
        assert!(sim.contains("engine: simulation [monte-carlo"), "{sim}");
    }

    #[test]
    fn parse_sharding_flags_and_their_usage_errors() {
        let options = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--shards",
            "3",
        ]))
        .unwrap();
        assert_eq!(options.shards, 3);
        assert!(!options.sharded);

        // Sharding belongs to the distributed engine only.
        for extra in [&["--shards", "2"][..], &["--sharded"][..]] {
            let mut list = args(&[
                "--voting",
                "3,1,1",
                "--measure",
                "mean:p2>=2",
                "--engine",
                "analytic",
            ]);
            list.extend(extra.iter().map(|s| s.to_string()));
            match parse_args(&list) {
                Err(CliError::Usage(msg)) => {
                    assert!(single_spaced(&msg).contains("distributed"), "{msg}")
                }
                other => panic!("expected a usage error, got {other:?}"),
            }
        }
        // --shards is loopback-only; over TCP it is one shard per address.
        match parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--workers",
            "tcp:127.0.0.1:0",
            "--shards",
            "2",
        ])) {
            Err(CliError::Usage(msg)) => {
                assert!(single_spaced(&msg).contains("--sharded"), "{msg}")
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        // --sharded needs worker processes to hold the shards.
        match parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--sharded",
        ])) {
            Err(CliError::Usage(msg)) => {
                assert!(single_spaced(&msg).contains("--workers tcp"), "{msg}")
            }
            other => panic!("expected a usage error, got {other:?}"),
        }

        // smpq serve: --shards parses, but refuses a resident tcp pool.
        let serve = parse_serve_args(&args(&["--shards", "4"])).unwrap();
        assert_eq!(serve.solve_shards, 4);
        match parse_serve_args(&args(&["--shards", "2", "--workers", "tcp:127.0.0.1:0"])) {
            Err(CliError::Usage(msg)) => assert!(single_spaced(&msg).contains("loopback"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_cli_run_matches_the_unsharded_tables() {
        // `--shards 3` must render the same numeric tables as the plain
        // in-process run (the engine guarantees bitwise-identical values),
        // plus the sharding provenance block.
        let base = |extra: &[&str]| {
            let mut list = args(&[
                "--voting",
                "3,1,1",
                "--measure",
                "cdf:p2>=2",
                "--measure",
                "quantile:p2>=2@0.5,0.9",
                "--measure",
                "mean:p2>=2",
                "--t-start",
                "1",
                "--t-stop",
                "12",
                "--t-count",
                "4",
            ]);
            list.extend(extra.iter().map(|s| s.to_string()));
            list
        };
        let plain = run(&parse_args(&base(&[])).unwrap()).unwrap();
        let sharded = run(&parse_args(&base(&["--shards", "3"])).unwrap()).unwrap();
        let numeric_rows = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| {
                    l.trim_start().starts_with(|c: char| c.is_ascii_digit())
                        || l.trim_start().starts_with("p =")
                        || l.trim_start().starts_with("mean:")
                })
                .map(str::to_string)
                .collect()
        };
        assert_eq!(numeric_rows(&plain), numeric_rows(&sharded));
        assert!(
            sharded.contains("engine: distributed [sharded-loopback]"),
            "{sharded}"
        );
        assert!(sharded.contains("sharding: 3 row shard(s) ["), "{sharded}");
        assert!(!plain.contains("sharding:"), "{plain}");
    }

    /// A three-state all-exponential ring, written to a temp file for
    /// `--model` runs of the uniformization engine and its analytic hint.
    fn exp_ring_model_file(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("smpq-exp-ring-{tag}-{}.mod", std::process::id()));
        std::fs::write(
            &path,
            r"
\place{a}{1}
\place{b}{0}
\place{c}{0}

\transition{ab}{
    \condition{a > 0}
    \action{ next->a = a - 1; next->b = b + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(2.0, s); }
}
\transition{bc}{
    \condition{b > 0}
    \action{ next->b = b - 1; next->c = c + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(1.0, s); }
}
\transition{ca}{
    \condition{c > 0}
    \action{ next->c = c - 1; next->a = a + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(3.0, s); }
}
",
        )
        .unwrap();
        path
    }

    #[test]
    fn uniform_engine_end_to_end_with_analytic_hint() {
        let model = exp_ring_model_file("e2e");
        let base = |engine: &str| {
            args(&[
                "--model",
                model.to_str().unwrap(),
                "--measure",
                "cdf:c>=1",
                "--measure",
                "mean:c>=1",
                "--t-start",
                "0.5",
                "--t-stop",
                "8",
                "--t-count",
                "4",
                "--engine",
                engine,
            ])
        };

        // The uniformization engine answers both measures; the hint is absent
        // (the user already picked the right engine).
        let uniform = run(&parse_args(&base("uniform")).unwrap()).unwrap();
        assert!(
            uniform.contains("engine: uniformization [poisson]"),
            "{uniform}"
        );
        assert!(uniform.contains("mean:c>=1 = 1.5000"), "{uniform}");
        assert!(!uniform.contains("hint:"), "{uniform}");

        // The analytic engine on the same all-exponential model carries the
        // routing hint, and the two engines' mean passage times agree.
        let analytic = run(&parse_args(&base("analytic")).unwrap()).unwrap();
        assert!(
            analytic.contains("hint: every holding-time distribution in this model is exponential"),
            "{analytic}"
        );
        assert!(analytic.contains("--engine uniform"), "{analytic}");
        assert!(analytic.contains("mean:c>=1 = 1.5000"), "{analytic}");

        // A mixed-distribution model must NOT carry the hint.
        let voting = run(&parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--engine",
            "analytic",
        ]))
        .unwrap())
        .unwrap();
        assert!(!voting.contains("hint:"), "{voting}");

        std::fs::remove_file(&model).unwrap();
    }

    #[test]
    fn uniform_engine_rejects_non_exponential_models() {
        // The built-in voting model mixes Erlang/uniform/deterministic holding
        // times: the uniformization engine must refuse it, naming the cure.
        let options = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--engine",
            "uniform",
        ]))
        .unwrap();
        match run(&options) {
            Err(CliError::Analysis(m)) => {
                assert!(m.contains("not exponential"), "{m}");
                assert!(m.contains("analytic"), "{m}");
            }
            other => panic!("expected an analysis error, got {other:?}"),
        }
    }

    #[test]
    fn measure_parse_errors_name_the_chosen_engines_kinds() {
        // Engine-scoped kind errors flow through the CLI regardless of the
        // order of --engine and --measure on the command line.
        for flags in [
            vec![
                "--voting",
                "3,1,1",
                "--measure",
                "frob:p2>=3",
                "--engine",
                "uniform",
            ],
            vec![
                "--voting",
                "3,1,1",
                "--engine",
                "uniform",
                "--measure",
                "frob:p2>=3",
            ],
        ] {
            let err = parse_args(&args(&flags)).unwrap_err().to_string();
            assert!(
                err.contains("kinds supported by the uniform engine"),
                "{err}"
            );
            assert!(
                err.contains("density, cdf, transient, quantile, mean, moment"),
                "{err}"
            );
        }
    }

    #[test]
    fn validate_sim_passes_and_fails_as_expected() {
        // A generous tolerance passes…
        let mut ok_args = args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "cdf:p2>=2",
            "--measure",
            "mean:p2>=2",
            "--t-start",
            "2",
            "--t-stop",
            "12",
            "--t-count",
            "4",
            "--engine",
            "analytic",
            "--replications",
            "6000",
            "--validate-sim",
            "0.05",
        ]);
        let report = run(&parse_args(&ok_args).unwrap()).unwrap();
        assert!(report.contains("validation passed"), "{report}");
        assert!(report.contains("validation vs simulation"), "{report}");

        // …an absurdly tight one fails with a named offender.
        let n = ok_args.len();
        ok_args[n - 1] = "1e-12".to_string();
        // Tiny replication count so the sim bound cannot rescue the check.
        ok_args[n - 3] = "50".to_string();
        match run(&parse_args(&ok_args).unwrap()) {
            Err(CliError::Analysis(m)) => {
                assert!(m.contains("validation against simulation failed"), "{m}");
                assert!(m.contains("p2>=2"), "{m}");
            }
            other => panic!("expected validation failure, got {other:?}"),
        }
    }

    #[test]
    fn quantile_report_round_trips_against_the_cdf_column() {
        // quantile@p read back through a dense CDF: F(q) ≈ p.
        let options = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "quantile:p2>=2@0.5",
            "--t-start",
            "1",
            "--t-stop",
            "12",
            "--t-count",
            "4",
            "--engine",
            "analytic",
        ]))
        .unwrap();
        let report = run(&options).unwrap();
        let q: f64 = report
            .lines()
            .find(|l| l.trim_start().starts_with("p = 0.5"))
            .and_then(|l| l.split("t =").nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("a quantile line");
        assert!(q > 0.0, "{report}");
    }

    #[test]
    fn a_multi_round_thread_run_explores_the_model_once() {
        // The search's runs and a mean stencil over one model.  The median
        // (9.19) is reached on the first level (horizon 40) and the
        // 0.9-quantile (51.0) on the second (80): 2 level grids + 4 and 2
        // Newton rounds = 8 quantile runs, and the stencil makes 9.  The
        // thread backend keeps its explored model between runs, so only the
        // first explores.
        let options = parse_args(&args(&[
            "--voting",
            "8,3,2",
            "--measure",
            "quantile:p2>=8@0.5,0.9",
            "--measure",
            "mean:p2>=8",
            "--t-start",
            "2",
            "--t-stop",
            "40",
            "--t-count",
            "8",
            "--workers",
            "2",
        ]))
        .unwrap();
        let report = run(&options).unwrap();
        assert!(
            report.contains("model cache: 8 hit(s) / 1 miss(es)"),
            "{report}"
        );
        // 16 t-points on the first level, the 8 new ones of the doubled level
        // (its other 8 are the first level's even points, served by the
        // search's cache) and one probe per Newton round, at Euler's 46
        // s-points each; plus the mean's two stencil nodes.
        let new = (16 + 8 + 4 + 2) * 46 + 2;
        let line = format!("evaluations: {new} new, {} from checkpoint/cache", 8 * 46);
        assert!(report.contains(&line), "{report}");
        // The values the 128 + 64-point grids of the previous search policy
        // reported, to its own resolution.
        for (p, expected) in [("0.5", 9.192657), ("0.9", 51.001205)] {
            let q: f64 = report
                .lines()
                .find_map(|l| l.trim_start().strip_prefix(&format!("p = {p:<6} ->  t = ")))
                .and_then(|t| t.parse().ok())
                .expect("a quantile line");
            assert!((q - expected).abs() < 1e-4, "q({p}) = {q}\n{report}");
        }
        assert!(report.contains("mean:p2>=8 = 23.403984"), "{report}");
    }

    #[test]
    fn engine_auto_routes_and_says_so() {
        // The 3,1,1 voting model has deterministic holding times, so auto
        // must route to the distributed pipeline — and say which way it went.
        let options = parse_args(&args(&[
            "--voting",
            "3,1,1",
            "--measure",
            "mean:p2>=2",
            "--engine",
            "auto",
            "--workers",
            "2",
        ]))
        .unwrap();
        let report = run(&options).unwrap();
        assert!(
            report.contains("engine auto: non-exponential holding times present"),
            "{report}"
        );
        assert!(report.contains("engine: distributed"), "{report}");
    }

    #[test]
    fn parse_serve_flags() {
        let options = parse_serve_args(&args(&[
            "--listen",
            "127.0.0.1:7070",
            "--workers",
            "tcp:127.0.0.1:0,127.0.0.1:0",
            "--cache-models",
            "3",
            "--cache-results",
            "16",
            "--max-inflight",
            "2",
            "--max-queued",
            "5",
        ]))
        .unwrap();
        assert_eq!(options.listen, "127.0.0.1:7070");
        assert_eq!(
            options.pool,
            PoolSpec::Tcp(vec!["127.0.0.1:0".to_string(), "127.0.0.1:0".to_string()])
        );
        assert_eq!(options.cache_models, 3);
        assert_eq!(options.cache_result_bytes, 16 << 20);
        assert_eq!(options.max_inflight, 2);
        assert_eq!(options.max_queued, 5);

        // Defaults stand when no flags are given.
        let defaults = parse_serve_args(&[]).unwrap();
        let pool = PoolSpec::InProcess(available_cores());
        assert_eq!(
            defaults,
            QueryServerOptions {
                pool,
                ..QueryServerOptions::default()
            }
        );

        // Degenerate capacities are rejected up front.
        assert!(matches!(
            parse_serve_args(&args(&["--max-inflight", "0"])),
            Err(CliError::Usage(m)) if single_spaced(&m).contains("--max-inflight")
        ));
    }

    #[test]
    fn parse_query_flags() {
        let options = parse_query_args(&args(&[
            "--server",
            "127.0.0.1:7070",
            "--voting",
            "3,1,1",
            "--measure",
            "cdf:p2>=2",
            "--deadline-ms",
            "1500",
        ]))
        .unwrap();
        assert_eq!(options.server, "127.0.0.1:7070");
        assert_eq!(options.engine, EngineChoice::Auto);
        assert_eq!(options.deadline_ms, Some(1500));
        assert_eq!(options.measure_texts, vec!["cdf:p2>=2".to_string()]);
        assert_eq!((options.retries, options.retry_backoff_ms), (0, 100));

        let options = parse_query_args(&args(&[
            "--server",
            "127.0.0.1:7070",
            "--voting",
            "3,1,1",
            "--measure",
            "cdf:p2>=2",
            "--retries",
            "4",
            "--retry-backoff",
            "250",
        ]))
        .unwrap();
        assert_eq!((options.retries, options.retry_backoff_ms), (4, 250));
        assert!(matches!(
            parse_query_args(&args(&[
                "--server", "x:1", "--voting", "3,1,1",
                "--measure", "cdf:p2>=2", "--retry-backoff", "0",
            ])),
            Err(CliError::Usage(m)) if m.contains("--retry-backoff")
        ));

        // --server is mandatory; sim is refused client-side; measure syntax
        // is validated before any round trip.
        assert!(matches!(
            parse_query_args(&args(&["--voting", "3,1,1", "--measure", "cdf:p2>=2"])),
            Err(CliError::Usage(m)) if m.contains("--server")
        ));
        assert!(matches!(
            parse_query_args(&args(&[
                "--server", "x:1", "--voting", "3,1,1",
                "--measure", "cdf:p2>=2", "--engine", "sim",
            ])),
            Err(CliError::Usage(m)) if m.contains("one-shot")
        ));
        assert!(matches!(
            parse_query_args(&args(&[
                "--server", "x:1", "--voting", "3,1,1", "--measure", "frobnicate:p2>=2",
            ])),
            Err(CliError::Usage(m)) if m.contains("frobnicate")
        ));
    }

    #[test]
    fn parse_shutdown_flags() {
        let options = parse_shutdown_args(&args(&["--server", "127.0.0.1:7070"])).unwrap();
        assert_eq!(options.server, "127.0.0.1:7070");
        assert!(matches!(
            parse_shutdown_args(&[]),
            Err(CliError::Usage(m)) if m.contains("--server")
        ));
    }

    #[test]
    fn served_query_round_trips_against_a_local_server() {
        // In-process end-to-end: bind a server with thread workers, ship each
        // query through run_query, and compare it with the same one-shot run:
        // every engine choice over a model with deterministic holding times
        // and over an all-exponential one routes alike on both sides.
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(2),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        // The numeric table must agree line for line (the summary blocks
        // differ: backend label, timings, server counters), and so must the
        // engine that answered.
        let table = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let engine = |report: &str| -> String {
            let line = report.lines().find_map(|l| l.strip_prefix("engine: "));
            let line = line.unwrap_or_else(|| panic!("no engine line:\n{report}"));
            line.split_whitespace().next().unwrap().to_string()
        };
        let ring = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/ring_exp.mod"
        );
        let models = [
            ("--voting", "3,1,1", "cdf:p2>=2"),
            ("--model", ring, "cdf:c>=1"),
        ];
        for (flag, model, measure) in models {
            for choice in ["auto", "analytic", "distributed", "uniform"] {
                let request = [flag, model, "--measure", measure, "--t-count", "4"];
                let request = [&request[..], &["--engine", choice]].concat();
                let query = [&["--server", addr.as_str()], &request[..]].concat();
                let served = run_query(&parse_query_args(&args(&query)).unwrap());
                let oneshot = run(&parse_args(&args(&request)).unwrap());
                let cell = format!("{model} --engine {choice}");
                let (served, oneshot) = match (served, oneshot) {
                    (Ok(served), Ok(oneshot)) => (served, oneshot),
                    // Uniformization refuses the deterministic holding times
                    // of the voting model on both sides.
                    (Err(_), Err(_)) if choice == "uniform" && flag == "--voting" => continue,
                    (served, oneshot) => panic!("{cell}: {served:?}\n---\n{oneshot:?}"),
                };
                assert!(served.contains(&format!("via {addr}")), "{served}");
                assert_eq!(engine(&served), engine(&oneshot), "{cell}");
                assert_eq!(table(&served), table(&oneshot), "{served}\n---\n{oneshot}");
                assert!(!table(&served).is_empty(), "{cell}: {served}");
                if (flag, choice) == ("--voting", "distributed") {
                    assert!(served.contains("engine: distributed"), "{served}");
                }
            }
        }

        run_shutdown(&parse_shutdown_args(&args(&["--server", &addr])).unwrap()).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// `auto` routes an all-exponential model away from `--workers tcp:` to
    /// uniformization, so no TCP master runs and nothing is said of the
    /// checkpoint.
    #[test]
    fn auto_routed_away_from_tcp_prints_no_checkpoint_note() {
        let model = exp_ring_model_file("auto-tcp");
        let options = parse_args(&args(&[
            "--model",
            model.to_str().unwrap(),
            "--engine",
            "auto",
            "--workers",
            "tcp:127.0.0.1:0",
            "--measure",
            "cdf:c>=1",
            "--t-count",
            "3",
        ]))
        .unwrap();
        let report = run(&options).unwrap();
        std::fs::remove_file(&model).unwrap();
        assert!(
            report.contains("engine: uniformization [poisson]"),
            "{report}"
        );
        assert!(
            !report.contains("satisfied entirely from the checkpoint"),
            "{report}"
        );
    }

    #[test]
    fn query_refuses_a_reply_that_does_not_fit_the_requested_grid() {
        use smp_pipeline::wire::{read_payload, write_payload};
        // A fake server: each connection's query is answered with one
        // crafted, well-framed payload.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let report = |points: &[f64], values: &[f64]| MeasureReport {
            name: "cdf:p2>=2".to_string(),
            kind: MeasureKind::Cdf,
            points: points.to_vec(),
            values: values.to_vec(),
            provenance: smp_core::query::Provenance::local("analytic", "sequential"),
        };
        let replies = [
            // `points 2 … / values 0`: fewer values than the grid it claims.
            report(&[1.0, 10.0], &[]),
            // Consistent, but not the grid that was asked for.
            report(&[1.0], &[0.5]),
        ];
        let server = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                read_payload(&mut stream).unwrap();
                let reply = smp_pipeline::QueryReply::Reports(vec![reply]);
                let payload = smp_pipeline::server::encode_query_reply(&reply);
                write_payload(&mut stream, &payload).unwrap();
            }
        });
        let flags = format!("--server {addr} --voting 3,1,1 --measure cdf:p2>=2 --t-count 2");
        let query = parse_query_args(&words(&flags)).unwrap();
        for _ in 0..2 {
            match run_query(&query) {
                Err(CliError::Analysis(m)) => assert!(m.starts_with("protocol error:"), "{m}"),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        server.join().unwrap();
    }

    #[test]
    fn usage_names_exactly_the_flags_in_the_tables() {
        use std::collections::BTreeSet;
        let tables = [
            REQUEST_FLAGS,
            POOL_FLAGS,
            ONE_SHOT_FLAGS,
            WORKER_FLAGS,
            SERVE_FLAGS,
            QUERY_FLAGS,
            SHUTDOWN_FLAGS,
        ];
        let mut declared: BTreeSet<&str> = tables.iter().copied().flatten().map(|f| f.0).collect();
        declared.insert("--help");
        assert_eq!(declared.len(), 30);
        let documented: BTreeSet<&str> = usage()
            .split(|c: char| !(c == '-' || c.is_ascii_lowercase()))
            .filter(|word| word.starts_with("--"))
            .collect();
        assert_eq!(documented, declared);
    }

    /// Every default the help text states as a number is the options' own.
    #[test]
    fn usage_states_the_options_defaults() {
        let stated = |flag: &str| -> usize {
            let line = usage()
                .lines()
                .find(|line| line.trim_start().starts_with(&format!("{flag} ")))
                .unwrap_or_else(|| panic!("{flag} is documented"));
            let (_, default) = line
                .split_once("(default ")
                .unwrap_or_else(|| panic!("{flag} states a default"));
            default.trim_end_matches(')').parse().unwrap()
        };
        let sim = SimulationOptions::default();
        let server = QueryServerOptions::default();
        assert_eq!(stated("--replications"), sim.replications);
        assert_eq!(stated("--seed") as u64, sim.seed);
        assert_eq!(stated("--cache-models"), server.cache_models);
        assert_eq!(stated("--cache-results") << 20, server.cache_result_bytes);
        assert_eq!(stated("--max-inflight"), server.max_inflight);
        assert_eq!(stated("--max-queued"), server.max_queued);
    }

    #[test]
    fn repeated_flags_are_each_validated_and_the_last_one_wins() {
        let with = |extra: &str| {
            parse_args(&words(&format!(
                "--voting 3,1,1 --measure cdf:p2>=2 {extra}"
            )))
        };
        let options = with(
            "--t-count 4 --t-count 6 --engine sim --engine analytic --measure mean:p2>=2 \
             --voting 4,1,1",
        )
        .unwrap();
        assert_eq!(options.t_count, 6);
        assert_eq!(options.engine, EngineChoice::Analytic);
        assert_eq!(options.model, ModelSource::Voting(4, 1, 1));
        let names: Vec<String> = options.measures.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["cdf:p2>=2", "mean:p2>=2"]);
        for (overridden, complaint) in [
            ("--t-count x --t-count 4", "--t-count expects an integer"),
            ("--shards 0 --shards 2", "--shards must be at least 1"),
            ("--engine quantum --engine sim", "unknown engine 'quantum'"),
            ("--method talbot --method euler", "unknown method 'talbot'"),
            ("--workers tcp: --workers 2", "--workers tcp: needs"),
            ("--voting 5,2 --voting 3,1,1", "--voting expects CC,MM,NN"),
            ("--validate-sim -1 --validate-sim 1", "positive number"),
            ("--seed", "--seed expects a value"),
        ] {
            match with(overridden) {
                Err(CliError::Usage(m)) => assert!(m.contains(complaint), "{m}"),
                other => panic!("expected a usage error for {overridden:?}, got {other:?}"),
            }
        }
        // `--help` is its own outcome in every mode, wherever it stands.
        assert!(matches!(with("--help"), Err(CliError::Help)));
        assert!(matches!(
            parse_serve_args(&words("-h")),
            Err(CliError::Help)
        ));
    }
}
