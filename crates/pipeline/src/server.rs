//! The `smpq serve` query daemon: an always-on master answering measure
//! queries over TCP.
//!
//! The paper observes that its caching pays off "both within and across
//! successive queries" — but a one-shot CLI throws the warm state away after
//! every run.  This module keeps the master *resident*: one process binds a
//! query port, attaches a standing pool of worker processes once, and then
//! answers any number of [`QueryRequest`]s, each a full measure batch over
//! any model.  Between requests it retains
//!
//! * a bounded-LRU [`CompiledSetCache`] of compiled model sets, so a repeated
//!   model costs zero state-space explorations;
//! * a byte-bounded [`crate::cache::ResultCache`] of transform values keyed
//!   by measure fingerprint, so overlapping evaluation grids are served warm;
//! * a bounded memo of engine-routing probes (`--engine auto`), so deciding
//!   "is this model all-exponential?" also costs one exploration ever.
//!
//! ## Frames
//!
//! The query protocol is layered on the same length-prefixed payload framing
//! as worker frames ([`crate::wire::write_payload`]), and its payloads are
//! written in the field grammar of [`crate::wire`].  One client request is one
//! payload; the server answers with exactly one payload per request and keeps
//! the connection open for the next request:
//!
//! ```text
//! client → server    query v=1 engine=auto method=euler deadline_ms=0 measures=2 tpoints=3
//!                    model voting:3:1:1
//!                    grid 3ff0000000000000 4000000000000000 4008000000000000
//!                    measure density:p2>=2
//!                    measure cdf:p2>=2
//! server → client    reports v=1 n=2
//!                    report name=density:p2>=2 kind=density
//!                    points 3 3ff0000000000000 4000000000000000 4008000000000000
//!                    values 3 3fb3ab167a0df4e4 ...
//!                    prov engine=distributed backend=tcp-pool workers=2 ...
//!                    report name=cdf:p2>=2 kind=cdf
//!                    ...
//! ```
//!
//! A request names its engine, method and measures as text.
//! [`resolve_request`] is the one place that text becomes a typed request —
//! the server calls it on the decoded fields, the `smpq` command line calls
//! it on its flags — so the vocabulary ([`EngineChoice`], the method names,
//! the measure grammar) is spelled once and a served answer is the one-shot
//! answer.  On the way back, a reply is checked where it is decoded: as many
//! values as points, a moment order in `1..=4`.
//!
//! A request the server will not answer gets a one-line `refusal` payload
//! carrying a [`RefusalKind`] — the typed analogue of [`EngineError`] plus
//! the server-only outcomes (admission rejection, deadline exceeded,
//! protocol errors).  `shutdown v=1` asks the server to stop accepting and
//! drain; it acknowledges with `bye v=1`.
//!
//! ## Admission and deadlines
//!
//! At most `max_inflight` solves run concurrently; up to `max_queued` more
//! wait on a condition variable (their queue time is reported in
//! [`Provenance::queue_wait`]).  Anything beyond that is refused immediately
//! with [`RefusalKind::Busy`] — a bounded queue keeps one flood of queries
//! from taking the daemon down.  A request may carry a deadline: it is
//! enforced while queued, between dispatch rounds of the standing worker
//! pool, and after the solve (a result computed too late is refused, not
//! returned).  The pool itself survives a deadline — workers are released in
//! protocol with a `done` frame and stay attached for the next request.

use crate::cache::{LruMemo, ResultCache};
use crate::engine::{
    available_cores, uniformization_applies, AnalyticEngine, DistributedEngine, PhaseChainCache,
    UniformizationEngine,
};
use crate::fault::splitmix64;
use crate::link::{Link, TcpLink};
use crate::master::{PipelineError, PipelineOptions};
use crate::shard::ShardedTransport;
use crate::transform::{CompiledSetCache, ModelSpec};
use crate::transport::{
    dispatch_chunks, encode_plan_specs, held, transport_error, ExecutionPlan, InProcess, Transport,
    TransportReport,
};
use crate::unpoisoned;
use crate::wire::{
    self, encode_f64, encode_str, malformed, read_payload, write_payload, Body, Frame, Line,
    WireError,
};
use crate::worker::WorkerMessage;
use smp_core::query::{
    Engine, EngineError, MeasureKind, MeasureReport, MeasureRequest, Provenance,
};
use smp_laplace::InversionMethod;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The query-protocol version spoken by this build.
pub const QUERY_PROTOCOL_VERSION: u32 = 1;

/// The payload a client sends to stop the server (drain and exit).
pub const SHUTDOWN_REQUEST: &str = "shutdown v=1";

/// The server's acknowledgement of [`SHUTDOWN_REQUEST`].
pub const SHUTDOWN_ACK: &str = "bye v=1";

/// Socket read/write timeout for query connections and pooled workers: long
/// enough for any realistic solve, short enough that a vanished peer cannot
/// pin a thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(600);

/// Read timeout while a heartbeat waits for a pong: a crashed worker answers
/// with EOF instantly, so this only bounds a wedged-but-connected one.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(2);

/// Idle-loop iterations (20 ms sleeps) between heartbeat sweeps — about one
/// sweep per second, counted rather than clocked.
const HEARTBEAT_IDLE_TICKS: u64 = 50;

/// Outcome of one standing-pool heartbeat sweep
/// ([`QueryServer::heartbeat_workers`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Idle workers pinged this sweep.
    pub checked: usize,
    /// Workers that failed to echo the ping nonce and were dropped.
    pub dead: usize,
    /// Replacement workers accepted onto vacant rendezvous listeners.
    pub replaced: usize,
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One query as shipped to the server: a model, an engine choice, and a batch
/// of measures over a shared time grid.
///
/// Engine, method and measures travel as their *source text* (`auto`,
/// `euler`, `density:p2>=3`), not as parsed structures: [`resolve_request`]
/// is the one place that text becomes a typed request, for the server and
/// for the `smpq` command line alike, so a served query and a local run
/// build identical requests — the precondition for bitwise-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The model to analyse.
    pub model: ModelSpec,
    /// Engine selector: `auto`, `analytic`, `distributed`, `uniform`.
    pub engine: String,
    /// Inversion method name (`euler`, `laguerre`).
    pub method: String,
    /// Give up on the request after this long (queued time included).
    /// `None` waits as long as the solve takes.
    pub deadline: Option<Duration>,
    /// The shared evaluation time grid.
    pub t_points: Vec<f64>,
    /// The measures, in `smpq` source syntax (`KIND:TARGET[@ARGS]`).
    pub measures: Vec<String>,
}

/// Encodes a request into one query payload (the inverse of
/// [`decode_query_request`]).  Time points travel as 16-hex-digit bit
/// patterns, so the grid the server evaluates is the grid the client typed,
/// bit for bit.
pub fn encode_query_request(request: &QueryRequest) -> String {
    let deadline_ms = match request.deadline {
        Some(d) => d.as_millis().min(u128::from(u64::MAX)) as u64,
        None => 0,
    };
    let mut out = format!(
        "query v={QUERY_PROTOCOL_VERSION} engine={} method={} deadline_ms={deadline_ms} \
         measures={} tpoints={}\n",
        encode_str(&request.engine),
        encode_str(&request.method),
        request.measures.len(),
        request.t_points.len(),
    );
    out.push_str("model ");
    out.push_str(&request.model.encode());
    out.push('\n');
    out.push_str("grid");
    for t in &request.t_points {
        out.push(' ');
        out.push_str(&encode_f64(*t));
    }
    out.push('\n');
    for measure in &request.measures {
        out.push_str("measure ");
        out.push_str(&encode_str(measure));
        out.push('\n');
    }
    out
}

/// Decodes one query payload (the inverse of [`encode_query_request`]).
/// Malformed input surfaces as a typed [`WireError`], never a panic — this
/// function parses bytes from an untrusted TCP peer.
pub fn decode_query_request(payload: &str) -> Result<QueryRequest, WireError> {
    Body::payload(payload, |head, body| {
        head.tag("query")?;
        head.version(QUERY_PROTOCOL_VERSION)?;
        let engine = head.text("engine")?;
        let method = head.text("method")?;
        let deadline_ms: u64 = head.key("deadline_ms")?;
        let n_measures = head.key("measures")?;
        let n_points = head.key("tpoints")?;
        let model = body.line("model line", |line| {
            line.tag("model")?;
            ModelSpec::decode(line.token("model")?)
        })?;
        let t_points = body.line("grid line", |line| {
            line.tag("grid")?;
            line.list(n_points, |line| line.bits("grid point"))
        })?;
        let measures = body.list(n_measures, |body| {
            body.line("measure line", |line| {
                line.tag("measure")?;
                wire::text(line.token("measure")?, "measure")
            })
        })?;
        Ok(QueryRequest {
            model,
            engine,
            method,
            deadline: if deadline_ms == 0 {
                None
            } else {
                Some(Duration::from_millis(deadline_ms))
            },
            t_points,
            measures,
        })
    })
}

/// The engine a request selects: what `--engine` names on the command line
/// and the `engine=` field carries on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// In-process Laplace inversion: the distributed pipeline over worker
    /// threads on every core, lane blocks at a time, reported as `analytic`.
    Analytic,
    /// Discrete-event simulation (one-shot runs only; the server refuses it).
    Sim,
    /// The distributed master–worker pipeline.
    Distributed,
    /// CTMC uniformization (all-exponential models only).
    Uniform,
    /// Probe the model: uniformization when every holding time is
    /// exponential, the distributed pipeline otherwise.
    Auto,
}

impl EngineChoice {
    /// Parses a selector, long aliases included.
    pub fn from_name(name: &str) -> Option<EngineChoice> {
        match name {
            "analytic" => Some(EngineChoice::Analytic),
            "sim" | "simulation" => Some(EngineChoice::Sim),
            "distributed" => Some(EngineChoice::Distributed),
            "uniform" | "uniformization" => Some(EngineChoice::Uniform),
            "auto" => Some(EngineChoice::Auto),
            _ => None,
        }
    }

    /// The canonical selector — what `smpq query` ships and what measure
    /// parse errors call the engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Analytic => "analytic",
            EngineChoice::Sim => "sim",
            EngineChoice::Distributed => "distributed",
            EngineChoice::Uniform => "uniform",
            EngineChoice::Auto => "auto",
        }
    }
}

/// Turns the three text fields of a [`QueryRequest`] into a typed request,
/// or the refusal that says which one is wrong.  One-shot `smpq`, `smpq
/// query`'s check before the round trip and the server all resolve here, so
/// the same text means the same request wherever it is read.  The grid is not
/// this function's business: callers fill it in with
/// [`MeasureRequest::with_t_points`].
pub fn resolve_request(
    engine: &str,
    method: &str,
    measures: &[String],
) -> Result<(EngineChoice, InversionMethod, Vec<MeasureRequest>), Refusal> {
    let refusal = |kind, message| Refusal { kind, message };
    let method = InversionMethod::from_name(method).ok_or_else(|| {
        let message = format!("unknown method '{method}' (expected euler or laguerre)");
        refusal(RefusalKind::Protocol, message)
    })?;
    let engine = EngineChoice::from_name(engine).ok_or_else(|| {
        let message = format!(
            "unknown engine '{engine}' (expected auto, analytic, sim, distributed or uniform)"
        );
        refusal(RefusalKind::Protocol, message)
    })?;
    let measures = measures
        .iter()
        .map(|text| MeasureRequest::parse_for_engine(text, engine.name()))
        .collect::<Result<_, _>>()
        .map_err(|message| refusal(RefusalKind::Model, message))?;
    Ok((engine, method, measures))
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Why the server refused a request.  `Model`/`Unsupported`/`Analysis`
/// mirror [`EngineError`]; the rest are server-side outcomes a one-shot run
/// cannot have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalKind {
    /// The model or a measure is unreadable or names a missing place.
    Model,
    /// The routed engine cannot compute a requested measure kind.
    Unsupported,
    /// The computation itself failed.
    Analysis,
    /// Admission control: the in-flight limit and the wait queue are full.
    Busy,
    /// The request's deadline passed before an answer was ready.
    Deadline,
    /// The request frame itself is malformed (bad engine name, bad method,
    /// no measures, undecodable payload).
    Protocol,
}

impl RefusalKind {
    /// The kind's wire token.
    pub fn name(self) -> &'static str {
        match self {
            RefusalKind::Model => "model",
            RefusalKind::Unsupported => "unsupported",
            RefusalKind::Analysis => "analysis",
            RefusalKind::Busy => "busy",
            RefusalKind::Deadline => "deadline",
            RefusalKind::Protocol => "protocol",
        }
    }

    /// Parses a wire token back into its kind.
    pub fn from_name(name: &str) -> Option<RefusalKind> {
        match name {
            "model" => Some(RefusalKind::Model),
            "unsupported" => Some(RefusalKind::Unsupported),
            "analysis" => Some(RefusalKind::Analysis),
            "busy" => Some(RefusalKind::Busy),
            "deadline" => Some(RefusalKind::Deadline),
            "protocol" => Some(RefusalKind::Protocol),
            _ => None,
        }
    }
}

/// A typed rejection: the kind plus a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Why the request was refused.
    pub kind: RefusalKind,
    /// The detailed message (engine error text, admission state, …).
    pub message: String,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

/// The server's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub enum QueryReply {
    /// One report per requested measure, in request order.
    Reports(Vec<MeasureReport>),
    /// The request was refused.
    Refusal(Refusal),
}

/// Maps a wire engine name back to the `'static` name [`Provenance`] wants.
/// Unknown names (a future engine) collapse to `"remote"` rather than
/// failing — the numbers still carry their own meaning.
fn engine_static(name: &str) -> &'static str {
    match name {
        "analytic" => "analytic",
        "distributed" => "distributed",
        "simulation" => "simulation",
        "uniformization" => "uniformization",
        _ => "remote",
    }
}

/// Rebuilds a [`MeasureKind`] from its wire name plus the report's points
/// (quantile probabilities and the moment order live in the points vector,
/// so the kind needs no payload of its own).
fn decode_kind(name: &str, points: &[f64]) -> Result<MeasureKind, WireError> {
    match name {
        "density" => Ok(MeasureKind::Density),
        "cdf" => Ok(MeasureKind::Cdf),
        "transient" => Ok(MeasureKind::Transient),
        "mean" => Ok(MeasureKind::Mean),
        "quantile" => Ok(MeasureKind::Quantile {
            probs: points.to_vec(),
        }),
        "moment" => (1..=4)
            .find(|&order| points.first() == Some(&f64::from(order)))
            .map(|order| MeasureKind::Moment { order })
            .ok_or_else(|| malformed("moment report does not carry an order in 1..=4")),
        other => Err(malformed(format!("unknown measure kind '{other}'"))),
    }
}

fn encode_provenance(p: &Provenance) -> String {
    let states = match p.states {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    };
    let bound = match p.error_bound {
        Some(b) => encode_f64(b),
        None => "-".to_string(),
    };
    let shard_states = if p.shard_states.is_empty() {
        "-".to_string()
    } else {
        p.shard_states
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "prov engine={} backend={} workers={} states={states} messages={} bytes={} \
         evaluations={} rebuilds={} pooled={} cache={} shared={} wall_ns={} bound={bound} \
         queue_ns={} mhits={} mmiss={} shards={} sstates={shard_states} halo={} rounds={} \
         retries={} recovered={} resumed={}",
        encode_str(p.engine),
        encode_str(&p.backend),
        p.workers,
        p.messages,
        p.bytes_on_wire,
        p.evaluations,
        p.matrix_rebuilds_avoided,
        p.pooled_lst_evaluations,
        p.cache_hits,
        p.shared_hits,
        p.wall.as_nanos().min(u128::from(u64::MAX)) as u64,
        p.queue_wait.as_nanos().min(u128::from(u64::MAX)) as u64,
        p.model_cache_hits,
        p.model_cache_misses,
        p.shards,
        p.halo_bytes,
        p.exchange_rounds,
        p.retries,
        p.recovered_faults,
        p.resumed_rounds,
    )
}

/// Reads a `prov` line; the struct literal below lists its fields in wire
/// order, which is the order they are read in.
fn read_provenance(line: &mut Line<'_>) -> Result<Provenance, WireError> {
    line.tag("prov")?;
    Ok(Provenance {
        engine: engine_static(&line.text("engine")?),
        backend: line.text("backend")?,
        workers: line.key("workers")?,
        states: match line.value("states")? {
            "-" => None,
            count => Some(wire::number(count, "states")?),
        },
        messages: line.key("messages")?,
        bytes_on_wire: line.key("bytes")?,
        evaluations: line.key("evaluations")?,
        matrix_rebuilds_avoided: line.key("rebuilds")?,
        pooled_lst_evaluations: line.key("pooled")?,
        cache_hits: line.key("cache")?,
        shared_hits: line.key("shared")?,
        wall: Duration::from_nanos(line.key("wall_ns")?),
        error_bound: match line.value("bound")? {
            "-" => None,
            bound => Some(wire::bits(bound, "bound")?),
        },
        queue_wait: Duration::from_nanos(line.key("queue_ns")?),
        model_cache_hits: line.key("mhits")?,
        model_cache_misses: line.key("mmiss")?,
        shards: line.key("shards")?,
        shard_states: match line.value("sstates")? {
            "-" => Vec::new(),
            counts => counts
                .split(',')
                .map(|count| wire::number(count, "sstates"))
                .collect::<Result<_, _>>()?,
        },
        halo_bytes: line.key("halo")?,
        exchange_rounds: line.key("rounds")?,
        retries: line.key("retries")?,
        recovered_faults: line.key("recovered")?,
        resumed_rounds: line.key("resumed")?,
    })
}

/// Encodes a reply into one payload (the inverse of [`decode_query_reply`]).
/// Values travel as bit patterns: the client prints exactly the `f64`s the
/// server computed.
pub fn encode_query_reply(reply: &QueryReply) -> String {
    match reply {
        QueryReply::Refusal(refusal) => format!(
            "refusal v={QUERY_PROTOCOL_VERSION} kind={} msg={}\n",
            refusal.kind.name(),
            encode_str(&refusal.message)
        ),
        QueryReply::Reports(reports) => {
            let mut out = format!("reports v={QUERY_PROTOCOL_VERSION} n={}\n", reports.len());
            for report in reports {
                out.push_str(&format!(
                    "report name={} kind={}\n",
                    encode_str(&report.name),
                    report.kind.name()
                ));
                out.push_str(&format!("points {}", report.points.len()));
                for p in &report.points {
                    out.push(' ');
                    out.push_str(&encode_f64(*p));
                }
                out.push('\n');
                out.push_str(&format!("values {}", report.values.len()));
                for v in &report.values {
                    out.push(' ');
                    out.push_str(&encode_f64(*v));
                }
                out.push('\n');
                out.push_str(&encode_provenance(&report.provenance));
                out.push('\n');
            }
            out
        }
    }
}

/// Decodes one reply payload (the inverse of [`encode_query_reply`]).
/// Malformed input surfaces as a typed [`WireError`], never a panic.
pub fn decode_query_reply(payload: &str) -> Result<QueryReply, WireError> {
    Body::payload(payload, |head, body| match head.token("reply tag")? {
        "refusal" => {
            head.version(QUERY_PROTOCOL_VERSION)?;
            let kind_name = head.value("kind")?;
            let kind = RefusalKind::from_name(kind_name)
                .ok_or_else(|| malformed(format!("unknown refusal kind '{kind_name}'")))?;
            let message = head.text("msg")?;
            Ok(QueryReply::Refusal(Refusal { kind, message }))
        }
        "reports" => {
            head.version(QUERY_PROTOCOL_VERSION)?;
            let n = head.key("n")?;
            Ok(QueryReply::Reports(body.list(n, read_report)?))
        }
        other => Err(malformed(format!(
            "expected 'reports' or 'refusal' header, got '{other}'"
        ))),
    })
}

/// One report's four lines: name and kind, points, values, provenance.
fn read_report(body: &mut Body<'_>) -> Result<MeasureReport, WireError> {
    let (name, kind_name) = body.line("report line", |line| {
        line.tag("report")?;
        Ok((line.text("name")?, line.text("kind")?))
    })?;
    let points = body.line("points line", |line| {
        line.tag("points")?;
        let n = line.parse("point count")?;
        line.list(n, |line| line.bits("point"))
    })?;
    let values = body.line("values line", |line| {
        line.tag("values")?;
        let n: usize = line.parse("value count")?;
        if n != points.len() {
            let message = format!(
                "report '{name}' carries {n} values for {} points",
                points.len()
            );
            return Err(malformed(message));
        }
        line.list(n, |line| line.bits("value"))
    })?;
    let provenance = body.line("prov line", read_provenance)?;
    let kind = decode_kind(&kind_name, &points)?;
    Ok(MeasureReport {
        name,
        kind,
        points,
        values,
        provenance,
    })
}

// ---------------------------------------------------------------------------
// Server options
// ---------------------------------------------------------------------------

/// How the server runs its solves: a standing pool of TCP worker processes,
/// or in-process threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolSpec {
    /// Bind one rendezvous listener per address; `smpq worker --connect`
    /// processes attach once (see [`QueryServer::attach_workers`]) and stay
    /// resident across requests.
    Tcp(Vec<String>),
    /// No worker processes: distributed solves run on this many in-process
    /// threads.
    InProcess(usize),
}

/// Configuration for [`QueryServer::bind`].
#[derive(Debug, Clone)]
pub struct QueryServerOptions {
    /// Address the query listener binds (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// The worker pool behind distributed solves.
    pub pool: PoolSpec,
    /// Capacity (entries) of the compiled-model-set LRU cache.
    pub cache_models: usize,
    /// Byte budget of the shared transform-value result cache.
    pub cache_result_bytes: usize,
    /// Maximum solves running concurrently.
    pub max_inflight: usize,
    /// Maximum requests waiting for a solve slot before new arrivals are
    /// refused with [`RefusalKind::Busy`].
    pub max_queued: usize,
    /// Row shards for distributed solves (0 = unsharded).  In-process pools
    /// only: each solve runs over loopback slice workers, each holding one
    /// contiguous row block of the state space.  Answers are bitwise
    /// identical for any value.
    pub solve_shards: usize,
}

impl Default for QueryServerOptions {
    fn default() -> Self {
        QueryServerOptions {
            listen: "127.0.0.1:0".to_string(),
            pool: PoolSpec::InProcess(2),
            cache_models: 8,
            cache_result_bytes: 64 << 20,
            max_inflight: 4,
            max_queued: 16,
            solve_shards: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------------

/// One attached worker process: its rendezvous slot and its link, kept in
/// protocol sync (`done` received, next `job` expected) between requests.
type PoolWorker = (usize, TcpLink);

/// Counters behind the admission condition variable.
struct AdmissionState {
    active: usize,
    waiting: usize,
}

/// Capacity of the `--engine auto` routing memo.  An entry is a fingerprint
/// and one `bool`, and a miss costs a parse plus a full state-space
/// exploration whose result is thrown away — so the memo is sized by what it
/// holds, not by `cache_models` (which budgets whole compiled models); a few
/// hundred keeps the LRU's linear scan trivial.
const ROUTE_MEMO_SLOTS: usize = 256;

/// Everything the connection handlers share: the warm caches, the admission
/// controller, and the standing worker pool.
struct ServerShared {
    compiled: Arc<CompiledSetCache>,
    phase_chains: Arc<PhaseChainCache>,
    results: Arc<ResultCache>,
    /// `--engine auto` routing probes, memoized per model fingerprint (a
    /// probe explores the state space, so it is exactly as expensive as the
    /// compile it precedes).
    routes: LruMemo<String, bool>,
    admission: Mutex<AdmissionState>,
    admission_cv: Condvar,
    /// `None` while the whole pool is checked out by a solve (or not yet
    /// attached); `Some` holds the idle workers.
    pool: Mutex<Option<Vec<PoolWorker>>>,
    pool_cv: Condvar,
    pool_size: usize,
    inproc_workers: usize,
    max_inflight: usize,
    max_queued: usize,
    solve_shards: usize,
    shutdown: AtomicBool,
    /// Monotonic heartbeat counter — each sweep's ping nonces are derived
    /// from it (clock-free, so nonce streams replay deterministically).
    heartbeats: AtomicU64,
    /// Pool workers culled by a heartbeat and replaced by a fresh dial-in,
    /// folded into the next answered query's `recovered_faults` provenance.
    pool_recovered: AtomicU64,
}

/// Releases one admission slot on drop, waking a queued request.
struct AdmissionPermit<'a> {
    shared: &'a ServerShared,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = unpoisoned(self.shared.admission.lock());
        state.active = state.active.saturating_sub(1);
        drop(state);
        self.shared.admission_cv.notify_all();
    }
}

impl ServerShared {
    /// Takes a solve slot, queueing up to the deadline if all are busy.
    /// Returns the time spent queued; the matching release happens when the
    /// returned permit drops.
    fn admit(&self, deadline: Option<Instant>) -> Result<(AdmissionPermit<'_>, Duration), Refusal> {
        let started = Instant::now();
        let mut state = unpoisoned(self.admission.lock());
        if state.active < self.max_inflight {
            state.active += 1;
            return Ok((AdmissionPermit { shared: self }, Duration::ZERO));
        }
        if state.waiting >= self.max_queued {
            return Err(Refusal {
                kind: RefusalKind::Busy,
                message: format!(
                    "server is at capacity: {} solve(s) in flight and {} queued \
                     (limits: --max-inflight {}, --max-queued {})",
                    state.active, state.waiting, self.max_inflight, self.max_queued
                ),
            });
        }
        state.waiting += 1;
        loop {
            if state.active < self.max_inflight {
                state.waiting -= 1;
                state.active += 1;
                return Ok((AdmissionPermit { shared: self }, started.elapsed()));
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    state.waiting -= 1;
                    return Err(Refusal {
                        kind: RefusalKind::Deadline,
                        message: format!(
                            "request deadline passed after {:?} in the admission queue",
                            started.elapsed()
                        ),
                    });
                }
            }
            let (guard, _) = unpoisoned(
                self.admission_cv
                    .wait_timeout(state, Duration::from_millis(50)),
            );
            state = guard;
        }
    }

    /// Routes `--engine auto` for a model: is the all-exponential fast path
    /// applicable?  Returns the memoized verdict plus (memo hits, memo misses)
    /// for provenance.
    fn route_auto(&self, model: &ModelSpec) -> (bool, usize, usize) {
        let probe = || Ok::<_, std::convert::Infallible>(uniformization_applies(model));
        match self.routes.get_or_insert_with(model.fingerprint(), probe) {
            Ok((uniform, true)) => (uniform, 1, 0),
            Ok((uniform, false)) => (uniform, 0, 1),
            Err(never) => match never {},
        }
    }

    /// Takes the whole idle pool, waiting (deadline-capped) while another
    /// solve holds it or the workers have not attached yet.
    fn checkout_pool(&self, deadline: Option<Instant>) -> Result<Vec<PoolWorker>, PipelineError> {
        let mut slot = unpoisoned(self.pool.lock());
        loop {
            if let Some(workers) = slot.take() {
                return Ok(workers);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(transport_error(
                        "request deadline exceeded while waiting for the worker pool",
                    ));
                }
            }
            let (guard, _) = unpoisoned(self.pool_cv.wait_timeout(slot, Duration::from_millis(50)));
            slot = guard;
        }
    }

    /// Puts the (surviving) workers back and wakes the next solve.
    fn return_pool(&self, workers: Vec<PoolWorker>) {
        let mut slot = unpoisoned(self.pool.lock());
        *slot = Some(workers);
        drop(slot);
        self.pool_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The standing-pool transport
// ---------------------------------------------------------------------------

/// A [`Transport`] over the server's resident worker processes.  Where
/// [`crate::TcpTransport`] owns its seats, this one borrows them: `execute`
/// checks the attached links out of the pool all requests share, runs the
/// shared chunk dispatch over them under the request's deadline, and checks
/// the survivors back in.
struct PoolTransport {
    shared: Arc<ServerShared>,
    deadline: Option<Instant>,
}

impl Transport for PoolTransport {
    fn name(&self) -> &'static str {
        "tcp-pool"
    }

    fn parallelism(&self) -> usize {
        self.shared.pool_size.max(1)
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        let specs = encode_plan_specs(&plan.specs)?;
        let workers = self.shared.checkout_pool(self.deadline)?;
        let (survivors, outcome) = dispatch_chunks(
            specs,
            plan,
            held(workers),
            &|_, _| Ok(None),
            self.deadline,
            on_message,
        );
        // Workers still in protocol sync (their `done` frame was delivered —
        // including those released early by a deadline) go back in the pool;
        // anything else was dropped and its socket closed.
        self.shared.return_pool(survivors);
        outcome
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn refuse(kind: RefusalKind, message: impl Into<String>) -> QueryReply {
    QueryReply::Refusal(Refusal {
        kind,
        message: message.into(),
    })
}

/// Builds the engine a request selected, over the server's long-lived
/// transform-value and compiled-model caches: explicit choices pass through,
/// `auto` consults the memoized uniformization probe (the all-exponential
/// fast path when it applies, the distributed pipeline otherwise) and also
/// returns its (memo hits, memo misses).  Distributed solves go over the
/// standing worker pool when one is attached, in-process threads otherwise.
fn route_engine(
    shared: &Arc<ServerShared>,
    choice: EngineChoice,
    model: &ModelSpec,
    method: &InversionMethod,
    deadline: Option<Instant>,
) -> Result<(Box<dyn Engine>, usize, usize), Refusal> {
    let uniformization = || -> Box<dyn Engine> {
        let engine = UniformizationEngine::new(model.clone());
        Box::new(engine.with_phase_cache(shared.phase_chains.clone()))
    };
    let distributed = || -> Box<dyn Engine> {
        let workers = if shared.pool_size > 0 {
            shared.pool_size
        } else {
            shared.inproc_workers.max(1)
        };
        let mut options = PipelineOptions::with_workers(workers);
        options.shared_cache = Some(shared.results.clone());
        let transport: Box<dyn Transport> = if shared.pool_size > 0 {
            Box::new(PoolTransport {
                shared: shared.clone(),
                deadline,
            })
        } else if shared.solve_shards > 0 {
            // `serve --shards N`: row-shard onto loopback slice workers.
            // The resident tcp pool speaks the chunked s-point protocol,
            // not slice jobs, so sharding is in-process only (enforced at
            // the CLI).
            Box::new(ShardedTransport::loopback(shared.solve_shards))
        } else {
            Box::new(InProcess::new(workers).with_compiled_cache(shared.compiled.clone()))
        };
        Box::new(DistributedEngine::with_transport(
            model.clone(),
            method.clone(),
            options,
            transport,
        ))
    };
    let mut memo = (0, 0);
    let engine: Box<dyn Engine> = match choice {
        EngineChoice::Analytic => {
            let cores = InProcess::new(available_cores());
            let backend = cores.with_compiled_cache(shared.compiled.clone());
            Box::new(AnalyticEngine::over(model.clone(), method.clone(), backend))
        }
        EngineChoice::Uniform => uniformization(),
        EngineChoice::Distributed => distributed(),
        EngineChoice::Auto => {
            let (uniform, hits, misses) = shared.route_auto(model);
            memo = (hits, misses);
            if uniform {
                uniformization()
            } else {
                distributed()
            }
        }
        EngineChoice::Sim => {
            return Err(Refusal {
                kind: RefusalKind::Unsupported,
                message: "the query server does not run the simulation engine; \
                          run `smpq --engine sim` one-shot instead"
                    .to_string(),
            })
        }
    };
    Ok((engine, memo.0, memo.1))
}

/// Answers one decoded request end to end: resolve its text, route, pass
/// admission, solve, and stamp the server-side provenance (queue wait,
/// model-cache traffic, rebuilds avoided by warm grid points).
fn answer_query(shared: &Arc<ServerShared>, request: &QueryRequest) -> QueryReply {
    let deadline = request.deadline.map(|d| Instant::now() + d);

    let (choice, method, measures) =
        match resolve_request(&request.engine, &request.method, &request.measures) {
            Ok(resolved) => resolved,
            Err(refusal) => return QueryReply::Refusal(refusal),
        };
    if measures.is_empty() {
        return refuse(RefusalKind::Protocol, "query carries no measures");
    }
    let requests: Vec<MeasureRequest> = measures
        .into_iter()
        .map(|measure| measure.with_t_points(&request.t_points))
        .collect();
    let (engine, memo_hits, memo_misses) =
        match route_engine(shared, choice, &request.model, &method, deadline) {
            Ok(routed) => routed,
            Err(refusal) => return QueryReply::Refusal(refusal),
        };

    let (permit, queue_wait) = match shared.admit(deadline) {
        Ok(admitted) => admitted,
        Err(refusal) => return QueryReply::Refusal(refusal),
    };
    let outcome = engine.solve(&requests);
    drop(permit);

    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            // Even a successful solve that finished late is refused: a
            // deadline is a promise about *when*, not just whether.
            return refuse(
                RefusalKind::Deadline,
                "request deadline exceeded before the solve completed",
            );
        }
    }

    match outcome {
        Ok(mut reports) => {
            if let Some(first) = reports.first_mut() {
                first.provenance.queue_wait = queue_wait;
                first.provenance.model_cache_hits += memo_hits;
                first.provenance.model_cache_misses += memo_misses;
                // Pool workers the heartbeat culled and replaced since the
                // last answer: surfaced here so recovery is visible to the
                // client that next touches the pool.
                first.provenance.recovered_faults +=
                    shared.pool_recovered.swap(0, Ordering::Relaxed);
            }
            for report in &mut reports {
                // Every grid point served from the warm result cache (or
                // shared with a sibling measure) is a kernel-matrix build
                // the server never ran — fold it into the rebuild counter
                // so warm queries are visibly cheap.
                let warm = (report.provenance.cache_hits + report.provenance.shared_hits) as u64;
                report.provenance.matrix_rebuilds_avoided += warm;
            }
            QueryReply::Reports(reports)
        }
        Err(EngineError::Model(message)) => refuse(RefusalKind::Model, message),
        Err(EngineError::Unsupported(message)) => refuse(RefusalKind::Unsupported, message),
        Err(EngineError::Analysis(message)) => {
            let kind = if message.contains("request deadline exceeded") {
                RefusalKind::Deadline
            } else {
                RefusalKind::Analysis
            };
            refuse(kind, message)
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The `smpq serve` daemon: a bound query listener, its worker rendezvous
/// listeners, and the warm state shared by every connection.
pub struct QueryServer {
    listener: TcpListener,
    worker_listeners: Vec<TcpListener>,
    shared: Arc<ServerShared>,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("listen", &self.listener.local_addr())
            .field("pool_size", &self.shared.pool_size)
            .finish()
    }
}

impl QueryServer {
    /// Binds the query listener and (for a TCP pool) one worker rendezvous
    /// listener per configured address.  Workers are not yet attached — call
    /// [`QueryServer::attach_workers`] before [`QueryServer::run`].
    ///
    /// On Unix std binds every listener with `SO_REUSEADDR` (see
    /// [`crate::transport::TcpTransport::bind`]): a daemon restarted after a
    /// crash reclaims its advertised addresses immediately instead of
    /// waiting out its predecessor's `TIME_WAIT` quarantine.
    pub fn bind(options: QueryServerOptions) -> std::io::Result<QueryServer> {
        let listener = TcpListener::bind(options.listen.as_str())?;
        let (worker_listeners, pool_size, inproc_workers, initial_pool) = match &options.pool {
            PoolSpec::Tcp(addrs) => {
                let mut listeners = Vec::with_capacity(addrs.len());
                for addr in addrs {
                    listeners.push(TcpListener::bind(addr.as_str())?);
                }
                let size = listeners.len();
                // The pool slot stays `None` until attach_workers fills it;
                // early queries wait on the condvar rather than failing.
                (listeners, size, 0, None)
            }
            PoolSpec::InProcess(threads) => (Vec::new(), 0, (*threads).max(1), Some(Vec::new())),
        };
        let shared = Arc::new(ServerShared {
            compiled: Arc::new(CompiledSetCache::new(options.cache_models)),
            phase_chains: Arc::new(PhaseChainCache::new(options.cache_models)),
            results: Arc::new(ResultCache::with_byte_limit(options.cache_result_bytes)),
            routes: LruMemo::new(ROUTE_MEMO_SLOTS),
            admission: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            admission_cv: Condvar::new(),
            pool: Mutex::new(initial_pool),
            pool_cv: Condvar::new(),
            pool_size,
            inproc_workers,
            max_inflight: options.max_inflight.max(1),
            max_queued: options.max_queued,
            solve_shards: options.solve_shards,
            shutdown: AtomicBool::new(false),
            heartbeats: AtomicU64::new(0),
            pool_recovered: AtomicU64::new(0),
        });
        Ok(QueryServer {
            listener,
            worker_listeners,
            shared,
        })
    }

    /// The bound query address (what clients dial).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound worker rendezvous addresses (what `smpq worker --connect`
    /// dials).  Empty for an in-process pool.
    pub fn worker_addrs(&self) -> std::io::Result<Vec<SocketAddr>> {
        self.worker_listeners
            .iter()
            .map(|listener| listener.local_addr())
            .collect()
    }

    /// Accepts one worker per rendezvous listener (blocking), verifies each
    /// handshake, and stocks the standing pool.  Returns the number of
    /// attached workers.  A no-op for an in-process pool.
    pub fn attach_workers(&self) -> std::io::Result<usize> {
        if self.worker_listeners.is_empty() {
            return Ok(0);
        }
        let mut workers = Vec::with_capacity(self.worker_listeners.len());
        for (id, listener) in self.worker_listeners.iter().enumerate() {
            let accepted = TcpLink::accept(listener, IO_TIMEOUT, &mut || true)?;
            let (link, ..) = accepted.ok_or(std::io::ErrorKind::TimedOut)?;
            workers.push((id, link));
        }
        let attached = workers.len();
        self.shared.return_pool(workers);
        Ok(attached)
    }

    /// Pings every *idle* pool worker and culls those that fail to echo the
    /// nonce, then re-accepts replacement workers on the vacated rendezvous
    /// listeners (non-blocking: a replacement attaches on whichever later
    /// sweep finds it dialing).  A no-op for an in-process pool or while a
    /// solve holds the pool checked out — heartbeats never contend with
    /// work.  Replacements are folded into the next answered query's
    /// `recovered_faults` provenance.
    pub fn heartbeat_workers(&self) -> PoolHealth {
        let mut health = PoolHealth::default();
        if self.worker_listeners.is_empty() {
            return health;
        }
        let workers = {
            let mut slot = unpoisoned(self.shared.pool.lock());
            match slot.take() {
                Some(workers) => workers,
                None => return health, // a solve holds the pool
            }
        };
        let mut live = Vec::with_capacity(workers.len());
        for (id, mut link) in workers {
            health.checked += 1;
            let tick = self.shared.heartbeats.fetch_add(1, Ordering::Relaxed);
            let nonce = splitmix64(tick ^ ((id as u64) << 32));
            // A kill -9'd worker answers the ping with EOF immediately; the
            // short timeout only bounds a *hung* (connected but wedged) one.
            let _ = link.stream().set_read_timeout(Some(HEARTBEAT_TIMEOUT));
            let healthy = link.send(&Frame::Ping { nonce }).is_ok()
                && matches!(
                    link.recv(),
                    Ok((Frame::Pong { nonce: echoed }, _)) if echoed == nonce
                );
            let _ = link.stream().set_read_timeout(Some(IO_TIMEOUT));
            if healthy {
                live.push((id, link));
            } else {
                health.dead += 1;
            }
        }
        // Every vacant rendezvous slot — vacated by this sweep or by a solve
        // that dropped an out-of-sync worker — offers itself to a dialing
        // replacement: one non-blocking accept, and nobody waiting is not an
        // error.
        for (id, listener) in self.worker_listeners.iter().enumerate() {
            if live.iter().any(|(taken, _)| *taken == id) {
                continue;
            }
            if let Ok(Some((link, ..))) = TcpLink::accept(listener, IO_TIMEOUT, &mut || false) {
                live.push((id, link));
                health.replaced += 1;
            }
        }
        self.shared
            .pool_recovered
            .fetch_add(health.replaced as u64, Ordering::Relaxed);
        self.shared.return_pool(live);
        health
    }

    /// Serves queries until a client sends [`SHUTDOWN_REQUEST`], then drains
    /// the in-flight solves and returns.  Each accepted connection gets its
    /// own thread; the solve concurrency cap is the admission controller,
    /// not the thread count.  Between accepts the idle loop heartbeats the
    /// standing worker pool about once a second.
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut idle_ticks = 0u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(IO_TIMEOUT))?;
                    stream.set_write_timeout(Some(IO_TIMEOUT))?;
                    let shared = self.shared.clone();
                    std::thread::spawn(move || serve_client(shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    idle_ticks += 1;
                    if idle_ticks.is_multiple_of(HEARTBEAT_IDLE_TICKS) {
                        self.heartbeat_workers();
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: give in-flight solves a bounded grace period to finish.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let idle = {
                let state = unpoisoned(self.shared.admission.lock());
                state.active == 0 && state.waiting == 0
            };
            if idle || Instant::now() >= drain_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Ok(())
    }
}

/// One client connection: read a payload, answer it, repeat until the client
/// hangs up or asks for shutdown.
fn serve_client(shared: Arc<ServerShared>, mut stream: TcpStream) {
    loop {
        let payload = match read_payload(&mut stream) {
            Ok((payload, _)) => payload,
            Err(_) => return, // client hung up (or timed out): this connection is done
        };
        if payload.trim() == SHUTDOWN_REQUEST {
            let _ = write_payload(&mut stream, SHUTDOWN_ACK);
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }
        let reply = match decode_query_request(&payload) {
            Ok(request) => answer_query(&shared, &request),
            Err(e) => refuse(RefusalKind::Protocol, format!("malformed query: {e}")),
        };
        if write_payload(&mut stream, &encode_query_reply(&reply)).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voting() -> ModelSpec {
        ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        }
    }

    fn sample_request() -> QueryRequest {
        QueryRequest {
            model: voting(),
            engine: "auto".to_string(),
            method: "euler".to_string(),
            deadline: Some(Duration::from_millis(2500)),
            t_points: vec![1.0, 2.5, 14.0],
            measures: vec![
                "density:p2>=2".to_string(),
                "quantile:p2>=2@0.5,0.9".to_string(),
            ],
        }
    }

    #[test]
    fn query_request_round_trips() {
        let request = sample_request();
        let decoded = decode_query_request(&encode_query_request(&request)).expect("decodes");
        assert_eq!(decoded, request);
    }

    #[test]
    fn query_request_without_deadline_round_trips() {
        let request = QueryRequest {
            deadline: None,
            ..sample_request()
        };
        let decoded = decode_query_request(&encode_query_request(&request)).expect("decodes");
        assert_eq!(decoded.deadline, None);
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for payload in [
            "",
            "reports v=1 n=0\n",
            "query v=1\n",
            "query v=9 engine=auto method=euler deadline_ms=0 measures=0 tpoints=0\nmodel x\ngrid\n",
            "query v=1 engine=auto method=euler deadline_ms=0 measures=1 tpoints=2\nmodel voting:3:1:1\ngrid 3ff0000000000000\n",
            "query v=1 engine=auto method=euler deadline_ms=0 measures=2 tpoints=0\nmodel voting:3:1:1\ngrid\nmeasure density:p2>=2\n",
            // Counts far past what the payload carries fail when it runs out.
            hostile_query("1", HUGE_COUNT).as_str(),
            hostile_query(HUGE_COUNT, "0").as_str(),
        ] {
            assert!(
                decode_query_request(payload).is_err(),
                "payload should be rejected: {payload:?}"
            );
        }
    }

    #[test]
    fn reply_round_trips_reports_with_full_provenance() {
        let mut provenance = Provenance::local("distributed", "tcp-pool");
        provenance.workers = 2;
        provenance.states = Some(37);
        provenance.messages = 12;
        provenance.bytes_on_wire = 4096;
        provenance.evaluations = 99;
        provenance.matrix_rebuilds_avoided = 7;
        provenance.pooled_lst_evaluations = 55;
        provenance.cache_hits = 3;
        provenance.shared_hits = 2;
        provenance.wall = Duration::from_micros(1234);
        provenance.error_bound = Some(1e-9);
        provenance.queue_wait = Duration::from_millis(5);
        provenance.model_cache_hits = 4;
        provenance.model_cache_misses = 1;
        provenance.shards = 3;
        provenance.shard_states = vec![13, 12, 12];
        provenance.halo_bytes = 2048;
        provenance.exchange_rounds = 17;
        let reports = vec![
            MeasureReport {
                name: "density:p2>=2".to_string(),
                kind: MeasureKind::Density,
                points: vec![1.0, 2.0],
                values: vec![0.25, 0.125],
                provenance: provenance.clone(),
            },
            MeasureReport {
                name: "quantile:p2>=2@0.5,0.9".to_string(),
                kind: MeasureKind::Quantile {
                    probs: vec![0.5, 0.9],
                },
                points: vec![0.5, 0.9],
                values: vec![3.5, 7.25],
                provenance: Provenance::local("uniformization", "phase-ctmc"),
            },
            MeasureReport {
                name: "moment:p2>=2@2".to_string(),
                kind: MeasureKind::Moment { order: 2 },
                points: vec![2.0],
                values: vec![42.0],
                provenance,
            },
        ];
        let encoded = encode_query_reply(&QueryReply::Reports(reports.clone()));
        let decoded = match decode_query_reply(&encoded).expect("decodes") {
            QueryReply::Reports(decoded) => decoded,
            QueryReply::Refusal(refusal) => panic!("unexpected refusal: {refusal}"),
        };
        assert_eq!(decoded.len(), reports.len());
        for (d, r) in decoded.iter().zip(&reports) {
            assert_eq!(d.name, r.name);
            assert_eq!(d.kind, r.kind);
            assert_eq!(d.points, r.points);
            assert_eq!(d.values, r.values);
            let (dp, rp) = (&d.provenance, &r.provenance);
            assert_eq!(dp.engine, rp.engine);
            assert_eq!(dp.backend, rp.backend);
            assert_eq!(dp.workers, rp.workers);
            assert_eq!(dp.states, rp.states);
            assert_eq!(dp.messages, rp.messages);
            assert_eq!(dp.bytes_on_wire, rp.bytes_on_wire);
            assert_eq!(dp.evaluations, rp.evaluations);
            assert_eq!(dp.matrix_rebuilds_avoided, rp.matrix_rebuilds_avoided);
            assert_eq!(dp.pooled_lst_evaluations, rp.pooled_lst_evaluations);
            assert_eq!(dp.cache_hits, rp.cache_hits);
            assert_eq!(dp.shared_hits, rp.shared_hits);
            assert_eq!(dp.wall, rp.wall);
            assert_eq!(dp.error_bound, rp.error_bound);
            assert_eq!(dp.queue_wait, rp.queue_wait);
            assert_eq!(dp.model_cache_hits, rp.model_cache_hits);
            assert_eq!(dp.model_cache_misses, rp.model_cache_misses);
            assert_eq!(dp.shards, rp.shards);
            assert_eq!(dp.shard_states, rp.shard_states);
            assert_eq!(dp.halo_bytes, rp.halo_bytes);
            assert_eq!(dp.exchange_rounds, rp.exchange_rounds);
        }
    }

    #[test]
    fn refusals_round_trip_every_kind() {
        for kind in [
            RefusalKind::Model,
            RefusalKind::Unsupported,
            RefusalKind::Analysis,
            RefusalKind::Busy,
            RefusalKind::Deadline,
            RefusalKind::Protocol,
        ] {
            let refusal = Refusal {
                kind,
                message: format!("details for {} with spaces / % signs", kind.name()),
            };
            let encoded = encode_query_reply(&QueryReply::Refusal(refusal.clone()));
            match decode_query_reply(&encoded).expect("decodes") {
                QueryReply::Refusal(decoded) => assert_eq!(decoded, refusal),
                QueryReply::Reports(_) => panic!("expected a refusal"),
            }
        }
    }

    fn bare_shared(max_inflight: usize, max_queued: usize) -> ServerShared {
        ServerShared {
            compiled: Arc::new(CompiledSetCache::new(4)),
            phase_chains: Arc::new(PhaseChainCache::new(4)),
            results: Arc::new(ResultCache::with_byte_limit(1 << 20)),
            routes: LruMemo::new(2),
            admission: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            admission_cv: Condvar::new(),
            pool: Mutex::new(Some(Vec::new())),
            pool_cv: Condvar::new(),
            pool_size: 0,
            inproc_workers: 1,
            max_inflight,
            max_queued,
            solve_shards: 0,
            shutdown: AtomicBool::new(false),
            heartbeats: AtomicU64::new(0),
            pool_recovered: AtomicU64::new(0),
        }
    }

    #[test]
    fn admission_refuses_busy_beyond_queue_cap_and_releases_on_drop() {
        let shared = bare_shared(1, 0);
        let (permit, wait) = shared.admit(None).expect("first admit");
        assert_eq!(wait, Duration::ZERO);
        // In flight is full and the queue cap is zero: refuse immediately.
        match shared.admit(Some(Instant::now() + Duration::from_secs(5))) {
            Err(refusal) => assert_eq!(refusal.kind, RefusalKind::Busy),
            Ok(_) => panic!("second admit should be refused busy"),
        }
        drop(permit);
        let (_permit, _) = shared.admit(None).expect("slot freed by drop");
    }

    #[test]
    fn admission_queue_times_out_against_the_deadline() {
        let shared = bare_shared(1, 4);
        let (_permit, _) = shared.admit(None).expect("first admit");
        let started = Instant::now();
        match shared.admit(Some(Instant::now() + Duration::from_millis(120))) {
            Err(refusal) => assert_eq!(refusal.kind, RefusalKind::Deadline),
            Ok(_) => panic!("queued admit should hit its deadline"),
        }
        assert!(started.elapsed() >= Duration::from_millis(100));
    }

    #[test]
    fn route_memo_hits_on_repeat_and_evicts_lru() {
        let shared = bare_shared(1, 1); // two route slots
        let a = ModelSpec::Voting {
            voters: 2,
            polling: 1,
            central: 1,
        };
        let b = ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        };
        let c = ModelSpec::Voting {
            voters: 4,
            polling: 1,
            central: 1,
        };
        assert_eq!(shared.route_auto(&a), (false, 0, 1), "first probe misses");
        assert_eq!(shared.route_auto(&a), (false, 1, 0), "repeat probe hits");
        assert_eq!(shared.route_auto(&b), (false, 0, 1));
        // Touch `a`, insert `c`: the LRU entry is now `b`.
        assert_eq!(shared.route_auto(&a), (false, 1, 0));
        assert_eq!(shared.route_auto(&c), (false, 0, 1));
        assert_eq!(shared.route_auto(&a), (false, 1, 0), "a survived eviction");
        assert_eq!(shared.route_auto(&b), (false, 0, 1), "b was evicted");
    }

    /// A one-token three-state all-exponential ring, so `--engine auto`'s
    /// uniformization probe says yes.
    fn exp_ring() -> ModelSpec {
        ModelSpec::Dnamaca(
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
"
            .to_string(),
        )
    }

    #[test]
    fn auto_routes_all_exponential_models_to_uniformization() {
        let shared = Arc::new(bare_shared(1, 1));
        let route = |model: &ModelSpec| {
            let method = InversionMethod::euler();
            let (engine, hits, misses) =
                route_engine(&shared, EngineChoice::Auto, model, &method, None)
                    .expect("auto routes");
            (engine.name(), hits, misses)
        };
        let exp_model = exp_ring();
        assert_eq!(route(&exp_model), ("uniformization", 0, 1));
        assert_eq!(route(&exp_model), ("uniformization", 1, 0));
        assert_eq!(route(&voting()).0, "distributed");
    }

    #[test]
    fn sharded_server_answers_a_repeat_query_from_the_shared_cache() {
        let mut shared = bare_shared(1, 1);
        shared.solve_shards = 2;
        let shared = Arc::new(shared);
        let request = QueryRequest {
            engine: "distributed".to_string(),
            deadline: None,
            measures: vec!["cdf:p2>=2".to_string()],
            ..sample_request()
        };
        let answer = || match answer_query(&shared, &request) {
            QueryReply::Reports(mut reports) => reports.remove(0),
            other => panic!("expected reports, got {other:?}"),
        };
        let grid = smp_laplace::SPointPlan::new(InversionMethod::euler(), &request.t_points).len();
        let cold = answer();
        assert_eq!(cold.provenance.backend, "sharded-loopback");
        assert_eq!(cold.provenance.evaluations, grid);
        assert!(cold.provenance.exchange_rounds > 0);
        // The repeat never reaches the slice fleet: every planned point is
        // in the server's result cache.
        let warm = answer();
        assert_eq!(warm.provenance.evaluations, 0);
        assert_eq!(warm.provenance.exchange_rounds, 0);
        assert_eq!(warm.provenance.cache_hits, grid);
        assert_eq!(
            warm.values, cold.values,
            "bitwise equal to the first answer"
        );
        let target = smp_core::query::TargetSpec::parse("p2>=2").unwrap();
        let analytic = AnalyticEngine::new(voting(), InversionMethod::euler())
            .solve(&[MeasureRequest::cdf(target, &request.t_points)])
            .unwrap();
        assert_eq!(warm.values, analytic[0].values, "bitwise equal to one-shot");
    }

    #[test]
    fn simulation_and_unknown_engines_are_refused() {
        let shared = Arc::new(bare_shared(1, 1));
        let refusal = |engine: &str, method: &str, measure: &str| {
            let request = QueryRequest {
                engine: engine.to_string(),
                method: method.to_string(),
                measures: measure.split_whitespace().map(str::to_string).collect(),
                ..sample_request()
            };
            match answer_query(&shared, &request) {
                QueryReply::Refusal(refusal) => refusal,
                QueryReply::Reports(_) => panic!("{engine}/{method}/{measure} was answered"),
            }
        };
        let kind = |engine, method, measure| refusal(engine, method, measure).kind;
        assert_eq!(kind("sim", "euler", "cdf:p2>=2"), RefusalKind::Unsupported);
        assert_eq!(kind("warp", "euler", "cdf:p2>=2"), RefusalKind::Protocol);
        assert_eq!(kind("auto", "talbot", "cdf:p2>=2"), RefusalKind::Protocol);
        assert_eq!(kind("auto", "euler", ""), RefusalKind::Protocol);
        // A bad measure is refused in the words of the selector the request
        // named, before any routing probe runs.
        let bad_kind = refusal("auto", "euler", "frob:p2>=2");
        assert_eq!(bad_kind.kind, RefusalKind::Model);
        assert!(bad_kind.message.contains("the auto engine"), "{bad_kind}");
        assert_eq!(shared.routes.misses(), 0);
    }

    #[test]
    fn malformed_replies_are_typed_errors_not_panics() {
        let report = |kind: &str, points: &[f64], values: &[f64]| {
            let run = |xs: &[f64]| {
                let count = xs.len().to_string();
                xs.iter()
                    .fold(count, |run, x| format!("{run} {}", encode_f64(*x)))
            };
            format!(
                "reports v=1 n=1\nreport name=m kind={kind}\npoints {}\nvalues {}\n{}\n",
                run(points),
                run(values),
                encode_provenance(&Provenance::local("analytic", "sequential"))
            )
        };
        assert!(decode_query_reply(&report("moment", &[4.0], &[1.0])).is_ok());
        for payload in [
            String::new(),
            "reports v=1 n=1\n".to_string(),
            "refusal v=1 kind=grumpy msg=x\n".to_string(),
            // As many values as points, or a client indexes past the short one.
            report("cdf", &[1.0, 2.0], &[]),
            report("cdf", &[1.0], &[0.5, 0.5]),
            // A moment's order is its first point, in 1..=4.
            report("moment", &[], &[]),
            report("moment", &[9.0], &[1.0]),
            report("moment", &[1.5], &[1.0]),
            report("moment", &[f64::NAN], &[1.0]),
            // Counts far past what the payload carries.
            format!("reports v=1 n={HUGE_COUNT}\n"),
            report("cdf", &[], &[]).replace("points 0", &format!("points {HUGE_COUNT}")),
            report("cdf", &[1.0], &[]).replace("values 0", &format!("values {HUGE_COUNT}")),
        ] {
            let decoded = decode_query_reply(&payload);
            assert!(
                matches!(decoded, Err(WireError::Malformed { .. })),
                "payload should be rejected: {payload:?}"
            );
        }
    }

    /// 2^45: reserving as many grid points up front is 256 TiB, which aborts
    /// the process instead of returning an error.
    const HUGE_COUNT: &str = "35184372088832";

    /// A query announcing `measures` measures and `tpoints` grid points over
    /// a payload that carries none of either.
    fn hostile_query(measures: &str, tpoints: &str) -> String {
        let model = voting().encode();
        format!("query v=1 engine=auto method=euler deadline_ms=0 measures={measures} tpoints={tpoints}\nmodel {model}\ngrid\n")
    }

    #[test]
    fn a_hostile_count_is_refused_and_the_server_keeps_answering() {
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            let mut hostile = TcpStream::connect(&addr).unwrap();
            write_payload(&mut hostile, &hostile_query("1", HUGE_COUNT)).unwrap();
            let (reply, _) = read_payload(&mut hostile).unwrap();
            match decode_query_reply(&reply).unwrap() {
                QueryReply::Refusal(refusal) => assert_eq!(refusal.kind, RefusalKind::Protocol),
                QueryReply::Reports(_) => panic!("a hostile count was answered"),
            }
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            let reports = client.query(&sample_request()).unwrap();
            assert_eq!(reports.len(), 2);
            client.shutdown().unwrap();
            running.join().unwrap().unwrap();
        });
    }

    /// A model whose one constant sojourn is a zero-weight mixture makes no
    /// distribution.  Every engine refuses it as a model error, and the
    /// server goes on answering.
    #[test]
    fn a_model_whose_sojourn_makes_no_distribution_is_refused_on_every_engine() {
        let zero_weight = ModelSpec::Dnamaca(
            r"\place{a}{1} \place{b}{0}
              \transition{ab}{ \condition{a > 0} \action{ next->a = a - 1; next->b = b + 1; }
                  \sojourntimeLT{ return 0 * expLT(2.0, s); } }
              \transition{ba}{ \condition{b > 0} \action{ next->b = b - 1; next->a = a + 1; }
                  \sojourntimeLT{ return expLT(1.0, s); } }"
                .to_string(),
        );
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            for engine in ["auto", "analytic", "distributed"] {
                let request = QueryRequest {
                    model: zero_weight.clone(),
                    engine: engine.to_string(),
                    measures: vec!["density:b>=1".to_string()],
                    ..sample_request()
                };
                let mut client = crate::client::QueryClient::connect(&addr).unwrap();
                match client.query(&request) {
                    Err(crate::client::QueryError::Refused(refusal)) => {
                        assert_eq!(refusal.kind, RefusalKind::Model, "{engine}: {refusal}");
                    }
                    other => panic!("{engine}: expected a model refusal, got {other:?}"),
                }
            }
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            assert_eq!(client.query(&sample_request()).unwrap().len(), 2);
            client.shutdown().unwrap();
            running.join().unwrap().unwrap();
        });
    }
}
