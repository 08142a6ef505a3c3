//! Pluggable master⇄worker transports.
//!
//! The paper's pipeline ran on a cluster of PCs: the master placed `s`-point
//! evaluations in a global work queue and slave processors collected them over
//! a message-passing layer.  This module abstracts that layer behind the
//! [`Transport`] trait so the *same* planning, caching, checkpointing and
//! inversion code drives every deployment:
//!
//! * [`InProcess`] — worker threads and `std::sync::mpsc` channels (the
//!   default; the substitution documented in the crate root),
//! * [`TcpTransport`] — real worker *processes* on real sockets: the master
//!   listens, each `smpq worker --connect HOST:PORT` dials in, receives the
//!   job's [`TransformSpec`]s, rebuilds the evaluators from bytes and answers
//!   chunks until the queue drains.  The master keeps the link for its next
//!   run (a quantile search is one run per refinement round) and releases
//!   its workers with a farewell when the transport drops.  A worker that
//!   disconnects mid-run loses nothing: its outstanding chunk is requeued
//!   and the surviving workers finish it.  The query server keeps its
//!   resident workers in one, too,
//! * `ShardedTransport` (`shard.rs`) — row-sharded evaluation: instead of
//!   farming whole `s`-points out, every point runs as lockstep sparse
//!   products over slice workers that each hold one row block of the model,
//!   seated in a `TcpTransport`.
//!
//! All of them speak about the same [`ExecutionPlan`], whose measures are
//! [`TransformSpec`]s: a description every backend can rebuild into an
//! evaluator, in process or on the far side of a socket.  Where a solve runs
//! is one [`PoolSpec`], which [`build_transport`] makes a backend of.
//!
//! Every run with a worker at the far end of a link — chunk or slice,
//! one-shot or served — takes its [`Link`]s from one seat table, filled by
//! lazy rendezvous accepts and released by one farewell when its last
//! handle drops; the chunk protocol itself is written once, in
//! `dispatch_chunks`.  This file also holds the crate's socket timeouts and
//! deadlines, which is why `smp-lint` D003 leaves its clock reads alone; the
//! fault schedule and backoff (`fault.rs`, whose [`splitmix64`] is
//! re-exported here) are clock-free and machine-checked.

pub use crate::fault::splitmix64;
use crate::link::{Link, TcpLink};
use crate::master::PipelineError;
use crate::shard::{loopback_slices, ShardedTransport};
use crate::transform::{CompiledEvaluator, CompiledModelSet, ModelCache, TransformSpec};
use crate::unpoisoned;
use crate::wire::{Frame, WIRE_VERSION};
use crate::work::{WorkItem, WorkQueue};
use crate::worker::{run_batch_worker, WorkerMessage, WorkerStats};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

impl std::fmt::Debug for ExecutionPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionPlan")
            .field("specs", &self.specs)
            .field("items", &self.items.len())
            .field("chunk_size", &self.chunk_size)
            .field("method", &self.method)
            .finish()
    }
}

/// Everything a transport needs to run one distributed evaluation: the
/// per-measure transform specs, the outstanding work items, and the dispatch
/// chunk size.  Produced by `DistributedPipeline::execute` after planning and
/// cache dedup.
pub struct ExecutionPlan<'a> {
    /// Per-measure transform specs, indexed by [`WorkItem::measure`].
    pub specs: Vec<&'a TransformSpec>,
    /// The work items still to evaluate (cache misses only).
    pub items: Vec<WorkItem>,
    /// Work items dispatched per request; the final chunk may be shorter.
    pub chunk_size: usize,
    /// Name of the inversion method driving the plan (diagnostics only).
    pub method: String,
}

/// What a transport reports back after draining a plan.
#[derive(Debug, Clone, Default)]
pub struct TransportReport {
    /// Per-worker accounting, in worker-id order.
    pub worker_stats: Vec<WorkerStats>,
    /// Number of protocol messages exchanged (chunk requests + results for
    /// socket-backed transports; result messages for in-process ones).
    pub messages: usize,
    /// Bytes put on the wire (the loopback slice workers account the bytes
    /// their frames would ship).  Zero for [`InProcess`] — shared memory
    /// ships no bytes.
    pub bytes_on_wire: u64,
    /// Number of workers that disconnected or failed before the queue drained.
    pub disconnects: usize,
    /// Reachable markings of the state space, when this backend explored it
    /// in-process or learned it from its slice workers (`None` for the TCP
    /// chunk backend, whose workers explore it on their side of the wire).
    pub states: Option<usize>,
    /// Aggregate symbolic/numeric-split counters of the backend's local
    /// evaluators (zero for the TCP backend — its workers count on their own
    /// side of the wire).
    pub hotpath: smp_core::HotPathStats,
    /// Distinct models this run found explored in its [`ModelCache`] (zero
    /// for backends that explore on the far side of a wire).
    pub model_cache_hits: usize,
    /// Distinct models this run had to explore, one state-space exploration
    /// each.
    pub model_cache_misses: usize,
    /// Row shards alive at the end of the last sharded session of the run
    /// (0 when none ran — the backend does not row-shard, or the plan held
    /// only specs it evaluates master-side).
    pub shards: usize,
    /// Owned states per shard of the final session (empty when not sharded).
    pub shard_states: Vec<usize>,
    /// Bytes of boundary (halo) traffic within `bytes_on_wire`.
    pub halo_bytes: u64,
    /// Boundary-exchange rounds driven across all sharded points.
    pub exchange_rounds: u64,
    /// Work re-issued after a fault: sessions re-sharded around a lost slice
    /// worker, work items re-executed after a swallowed result message.
    pub retries: u64,
    /// Faults the run absorbed without changing a value.
    pub recovered_faults: u64,
    /// Exchange rounds skipped by resuming a point from a mid-iteration
    /// snapshot instead of redoing them.
    pub resumed_rounds: u64,
}

impl TransportReport {
    /// Folds a later round's report into this one: counters add up, the
    /// state count keeps its first reading, and the shard layout follows the
    /// most recent session (it shrinks when a slice worker is lost).
    pub fn absorb(&mut self, later: TransportReport) {
        self.worker_stats.extend(later.worker_stats);
        self.messages += later.messages;
        self.bytes_on_wire += later.bytes_on_wire;
        self.disconnects += later.disconnects;
        self.states = self.states.or(later.states);
        self.hotpath = self.hotpath.merged(later.hotpath);
        self.model_cache_hits += later.model_cache_hits;
        self.model_cache_misses += later.model_cache_misses;
        if later.shards > 0 {
            self.shards = later.shards;
            self.shard_states = later.shard_states;
        }
        self.halo_bytes += later.halo_bytes;
        self.exchange_rounds += later.exchange_rounds;
        self.retries += later.retries;
        self.recovered_faults += later.recovered_faults;
        self.resumed_rounds += later.resumed_rounds;
    }
}

/// A pluggable master⇄worker message-passing backend.  `execute` may be
/// called any number of times on one instance: multi-round computations (the
/// distributed engine's quantile refinement) run every round on the same
/// workers.
pub trait Transport {
    /// Short backend name for reports (`in-process`, `tcp`, `sharded-tcp`, …).
    fn name(&self) -> &'static str;

    /// How many workers the backend runs in parallel — the master's hint for
    /// automatic chunk sizing.
    fn parallelism(&self) -> usize;

    /// The model cache the backend's runs look models up in, when it keeps
    /// one on the master's side of the wire (`None`, the default, when its
    /// workers explore on theirs).
    fn model_cache(&self) -> Option<&ModelCache> {
        None
    }

    /// Drains the plan, delivering every [`WorkerMessage`] to `on_message` as
    /// it arrives (the master caches and checkpoints inside the callback).
    ///
    /// A transport returns `Ok` when the run ended in an orderly way even if
    /// individual evaluations failed — per-point failures travel inside the
    /// messages.  `Err` means the backend itself broke (could not compile a
    /// spec, lost every worker, I/O on the checkpoint socket…).
    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError>;
}

pub(crate) fn transport_error(message: impl Into<String>) -> PipelineError {
    PipelineError::Transport {
        message: message.into(),
    }
}

/// Where a distributed solve runs, for one-shot runs and `smpq serve` alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolSpec {
    /// This many worker threads in process, over the caller's model cache.
    InProcess(usize),
    /// This many in-process loopback row slices (`--shards N`).
    Loopback(usize),
    /// One TCP worker process per rendezvous address (resident when served).
    Tcp(Vec<String>),
    /// One row-shard holder process per rendezvous address (`--sharded`).
    ShardedTcp(Vec<String>),
}

/// The transport `spec` describes, looking models up in `models` and keeping
/// a sharded run's mid-point snapshots beside `checkpoint`, when given.  A
/// TCP spec binds its rendezvous listeners here and returns their addresses,
/// so a caller can name them before the solve blocks waiting for workers.
pub fn build_transport(
    spec: &PoolSpec,
    models: &Arc<ModelCache>,
    checkpoint: Option<&Path>,
) -> io::Result<(Box<dyn Transport>, Vec<SocketAddr>)> {
    let rendezvous = match spec {
        PoolSpec::Tcp(addrs) | PoolSpec::ShardedTcp(addrs) => Some(TcpTransport::bind(addrs)?),
        PoolSpec::InProcess(_) | PoolSpec::Loopback(_) => None,
    };
    let bound = rendezvous.as_ref().map(TcpTransport::local_addrs);
    let transport = transport_over(spec, rendezvous, Arc::clone(models), checkpoint);
    Ok((transport, bound.unwrap_or_default()))
}

/// [`build_transport`] past the bind: `spec` over `rendezvous`, the seats
/// bound for its addresses (`None` for a spec that names none; the query
/// server hands in a clone of its resident seats).
pub(crate) fn transport_over(
    spec: &PoolSpec,
    rendezvous: Option<TcpTransport>,
    models: Arc<ModelCache>,
    checkpoint: Option<&Path>,
) -> Box<dyn Transport> {
    let rendezvous = || rendezvous.unwrap_or_else(|| TcpTransport::from_links(Vec::new()));
    match spec {
        PoolSpec::InProcess(n) => Box::new(InProcess::new(*n).with_model_cache(models)),
        PoolSpec::Loopback(n) => {
            let slices = TcpTransport::from_links(loopback_slices((*n).max(1)));
            Box::new(ShardedTransport::new(slices, models, checkpoint))
        }
        PoolSpec::Tcp(_) => Box::new(rendezvous().with_model_cache(models)),
        PoolSpec::ShardedTcp(_) => {
            Box::new(ShardedTransport::new(rendezvous(), models, checkpoint))
        }
    }
}

// ---------------------------------------------------------------------------
// In-process backends
// ---------------------------------------------------------------------------

/// The default backend: worker threads inside the master process, one shared
/// lock-protected queue, `mpsc` result channels.
#[derive(Debug, Clone)]
pub struct InProcess {
    /// Number of worker threads; 0 or 1 means a single worker.
    pub workers: usize,
    models: Arc<ModelCache>,
}

impl InProcess {
    /// An in-process backend with `workers` threads.  It keeps the explored
    /// model of its last run, so every run of a solve over one model — its
    /// batch and each refinement round of a quantile search, whatever
    /// measures they ask — explores the state space once.
    pub fn new(workers: usize) -> Self {
        InProcess {
            workers,
            models: Arc::new(ModelCache::new(1)),
        }
    }

    /// Looks models up in `models` instead of the backend's own one-entry
    /// cache: the query server shares one cache across all requests, and the
    /// CLI hands the engine the model its `--engine` probe explored.
    pub fn with_model_cache(mut self, models: Arc<ModelCache>) -> Self {
        self.models = models;
        self
    }
}

impl Transport for InProcess {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn parallelism(&self) -> usize {
        self.workers.max(1)
    }

    fn model_cache(&self) -> Option<&ModelCache> {
        Some(&self.models)
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        run_threaded(self.workers, plan, &self.models, on_message)
    }
}

/// The thread-backed engine behind [`InProcess`].
fn run_threaded(
    workers: usize,
    plan: ExecutionPlan<'_>,
    models: &ModelCache,
    on_message: &mut dyn FnMut(WorkerMessage),
) -> Result<TransportReport, PipelineError> {
    let workers = workers.max(1);

    // Compile every measure locally, exactly what a remote worker does on
    // receipt of the job frame: each distinct model is looked up in the
    // cache, and only a model it lacks is explored.
    let compiled_set = CompiledModelSet::compile_cached(plan.specs.iter().copied(), models)?;
    let states = (compiled_set.num_models() > 0).then(|| compiled_set.num_states());
    let evaluators: Vec<CompiledEvaluator<'_>> =
        compiled_set.evaluators().map_err(transport_error)?;

    let mut messages = 0usize;
    let queue = WorkQueue::with_chunk_size(plan.items, plan.chunk_size.max(1));
    let serve = |id, tx: &Sender<_>| run_batch_worker(id, &queue, &evaluators, tx);
    let worker_stats = fan_in((0..workers).collect(), serve, &mut |message| {
        messages += 1;
        on_message(message);
    });

    let hotpath = evaluators
        .iter()
        .map(|evaluator| evaluator.hotpath_stats())
        .fold(smp_core::HotPathStats::default(), |acc, s| acc.merged(s));
    Ok(TransportReport {
        worker_stats,
        messages,
        states,
        hotpath,
        model_cache_hits: compiled_set.cache_hits(),
        model_cache_misses: compiled_set.cache_misses(),
        ..TransportReport::default()
    })
}

// ---------------------------------------------------------------------------
// TCP backend — master side
// ---------------------------------------------------------------------------

/// How long a finished run keeps a vacant rendezvous address open for a
/// worker that may already be dialing — longer than the worker-side dial
/// retry delay.
const FINISHED_RUN_GRACE: Duration = Duration::from_millis(400);

/// How long a heartbeat waits for a pong: a crashed worker answers the ping
/// with EOF at once, so this only bounds a wedged-but-connected one.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(2);

/// The link each seat of a [`TcpTransport`] holds, by worker id.
pub(crate) type Links = Vec<Option<Box<dyn Link>>>;

/// Real multi-process distribution over TCP.
///
/// The master binds one listener per expected worker (so each worker has an
/// unambiguous rendezvous address) and hands each seat its own handler
/// thread.  Handlers pull chunks from the shared `WorkQueue` — the same
/// global queue the thread backends use — so work naturally balances across
/// workers of different speeds, and a dead worker's outstanding chunk is
/// pushed back for the survivors.
///
/// A seat keeps its worker's link between runs: the worker is resident
/// across `job … done` rounds, so the second and later runs of a solve
/// dispatch without a rendezvous.  A vacant seat (nobody dialed yet, or the
/// worker was lost) accepts lazily at the start of a run.  Dropping the
/// transport's last clone sends every seated worker the farewell, which is
/// how a master releases its workers.
///
/// A `TcpTransport` is a handle: its clones share one seat table, which one
/// run at a time holds — a second `execute` waits for the seats.  The query
/// server keeps its resident workers in one table and runs each request on
/// a clone under the request's deadline.
#[derive(Clone)]
pub struct TcpTransport {
    table: Arc<SeatTable>,
    accept_timeout: Duration,
    /// Per-read socket timeout on accepted connections.  A worker that
    /// connects but goes silent — a SIGSTOPped process, a network partition
    /// with no RST — is declared lost after this long without a frame, and
    /// its outstanding chunk is requeued.
    io_timeout: Duration,
    /// When this handle's runs give up: no wait for the seats or for a
    /// dialing worker, and no new chunk, goes past it.
    deadline: Option<Instant>,
    /// The master-side cache places are checked against (the workers
    /// explore on their side of the wire).
    models: Option<Arc<ModelCache>>,
}

/// The seats every clone of a [`TcpTransport`] shares, chunk or slice.
struct SeatTable {
    listeners: Vec<TcpListener>,
    /// The seats' links between runs; `None` while a run or a heartbeat has
    /// them out (no lock is held across link I/O).
    seats: Mutex<Option<Links>>,
    /// Signalled when the seats come back.
    returned: Condvar,
    width: usize,
    /// Heartbeat pings sent; each ping's nonce derives from this count
    /// (clock-free, so nonce streams replay deterministically).
    pings: AtomicU64,
}

impl SeatTable {
    /// Takes the seats, waiting while another run holds them — but never
    /// past `deadline`.
    fn checkout(&self, deadline: Option<Instant>) -> Result<Links, PipelineError> {
        let mut seats = unpoisoned(self.seats.lock());
        loop {
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                let message = "request deadline exceeded while waiting for the workers";
                return Err(transport_error(message));
            }
            if let Some(links) = seats.take() {
                return Ok(links);
            }
            seats = unpoisoned(self.returned.wait_timeout(seats, Duration::from_millis(50))).0;
        }
    }

    /// Puts the seats back and wakes the next run.
    fn checkin(&self, links: Links) {
        *unpoisoned(self.seats.lock()) = Some(links);
        self.returned.notify_all();
    }
}

impl Drop for SeatTable {
    /// The farewell: `Done` twice per held seat, so a worker still inside a
    /// slice session (a failed solve never ended it) hears the second at
    /// its outer loop — the one signal a `--reconnect` worker does not
    /// redial after.
    fn drop(&mut self) {
        let seats = unpoisoned(self.seats.get_mut()).iter_mut().flatten();
        for link in seats.flatten() {
            let _ = link.send(&Frame::Done);
            let _ = link.send(&Frame::Done);
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addrs", &self.local_addrs())
            .field("accept_timeout", &self.accept_timeout)
            .field("io_timeout", &self.io_timeout)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl TcpTransport {
    /// Binds one listener per address (use port `0` for an ephemeral port and
    /// read the real one back with [`TcpTransport::local_addrs`]).  Each
    /// listener seats one worker; an empty list is refused (`InvalidInput`),
    /// since no run could ever finish on it.
    ///
    /// A master killed mid-solve (`kill -9`) leaves its accepted sockets'
    /// `TIME_WAIT` entries parked on the listener's port.  On Unix std sets
    /// `SO_REUSEADDR` between `socket()` and `bind()` (and accepted sockets
    /// inherit it), so the restarted master re-binds its advertised
    /// rendezvous endpoints immediately instead of waiting out the
    /// quarantine — longer than any reconnecting worker's redial budget.
    pub fn bind<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<TcpTransport> {
        if addrs.is_empty() {
            let message = "a tcp pool needs at least one rendezvous address";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
        let listeners: Vec<TcpListener> = addrs
            .iter()
            .map(TcpListener::bind)
            .collect::<io::Result<_>>()?;
        let vacant = listeners.iter().map(|_| None).collect();
        Ok(TcpTransport::seated(listeners, vacant))
    }

    /// A transport whose seats come with their links: one worker, past its
    /// handshake, at the far end of each.  There is no address to rejoin at,
    /// so a seat that loses its link stays vacant.  Loopback row slices are
    /// seated this way, as are the fault tests' [`crate::link::FaultyLink`]s
    /// that run under the production dispatch.
    pub fn from_links(links: Vec<Box<dyn Link>>) -> TcpTransport {
        TcpTransport::seated(Vec::new(), links.into_iter().map(Some).collect())
    }

    fn seated(listeners: Vec<TcpListener>, links: Links) -> TcpTransport {
        let table = SeatTable {
            listeners,
            width: links.len(),
            seats: Mutex::new(Some(links)),
            returned: Condvar::new(),
            pings: AtomicU64::new(0),
        };
        TcpTransport {
            table: Arc::new(table),
            accept_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(600),
            deadline: None,
            models: None,
        }
    }

    /// Overrides how long `execute` waits for each worker to dial in.
    pub fn with_accept_timeout(mut self, timeout: Duration) -> Self {
        self.accept_timeout = timeout;
        self
    }

    /// Shortens the per-read socket timeout on accepted connections (10
    /// minutes in production) so a test sees a silent worker declared lost.
    #[cfg(test)]
    fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Gives up this handle's runs at `deadline`: a run that cannot have
    /// the seats, or a dialing worker, by then fails, and one under way
    /// dispatches no chunk past it.
    pub(crate) fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Checks places against `models`, the master's explored models.
    pub(crate) fn with_model_cache(mut self, models: Arc<ModelCache>) -> Self {
        self.models = Some(models);
        self
    }

    /// The bound rendezvous addresses, in worker-id order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.table
            .listeners
            .iter()
            .filter_map(|l| l.local_addr().ok())
            .collect()
    }

    /// Fills seat `id` through [`TcpLink::accept`] on its listener; a seat
    /// with none stays vacant.  With `poll` the listener is polled once: the
    /// run holds other links, and a vacant seat (a `--reconnect` worker may
    /// still rejoin it) must not tax every run of a multi-round solve with
    /// the wait.  Otherwise this is the blocking rendezvous, for up to the
    /// accept timeout and never past the deadline.  `remaining` counts the
    /// items no worker has answered yet.  `Ok(None)` means the run finished
    /// (every item answered by the other workers) before anyone dialed in —
    /// not a failure, just an unused rendezvous address; without this check
    /// a spare address would stall the completed run for the full accept
    /// timeout and then be misreported as a disconnect.
    pub(crate) fn accept(
        &self,
        id: usize,
        remaining: &AtomicUsize,
        poll: bool,
    ) -> io::Result<Option<Handshaken>> {
        let Some(listener) = self.table.listeners.get(id) else {
            return Ok(None);
        };
        let timeout = Instant::now() + self.accept_timeout;
        let deadline = self.deadline.map_or(timeout, |d| d.min(timeout));
        // Once the run is finished (remaining == 0) this worker is not
        // needed, but one may already be dialing — its connection would land
        // in the listener backlog, never be accepted, and die with an error
        // when the listener drops.  A short grace window lets such a worker
        // be accepted and handshaked, and seated for the next run.
        let mut grace_deadline: Option<Instant> = None;
        let mut keep_waiting = || match remaining.load(Ordering::SeqCst) {
            _ if poll => false,
            0 => {
                Instant::now()
                    < *grace_deadline.get_or_insert_with(|| Instant::now() + FINISHED_RUN_GRACE)
            }
            _ => Instant::now() < deadline,
        };
        let accepted = TcpLink::accept(listener, self.io_timeout, &mut keep_waiting)?;
        if accepted.is_none() && !poll && remaining.load(Ordering::SeqCst) > 0 {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no worker connected within {:?}", self.accept_timeout),
            ));
        }
        Ok(accepted
            .map(|(link, messages, bytes)| (Box::new(link) as Box<dyn Link>, messages, bytes)))
    }

    /// Fills the vacant seats of `links` in turn, polling each once (`poll`)
    /// or waiting for every worker.  Returns how many it filled and a report
    /// of the handshakes' messages and bytes.
    fn fill(&self, links: &mut Links, poll: bool) -> io::Result<(usize, TransportReport)> {
        // The sentinel never reaches zero: nobody is excused.
        let pending = AtomicUsize::new(usize::MAX);
        let (mut filled, mut hellos) = (0, TransportReport::default());
        let vacant = links
            .iter_mut()
            .enumerate()
            .filter(|(_, seat)| seat.is_none());
        for (id, seat) in vacant {
            match self.accept(id, &pending, poll) {
                Ok(Some((link, messages, bytes))) => {
                    *seat = Some(link);
                    filled += 1;
                    hellos.messages += messages;
                    hellos.bytes_on_wire += bytes;
                }
                Err(e) if !poll => return Err(io::Error::other(format!("worker {id}: {e}"))),
                _ => {}
            }
        }
        Ok((filled, hellos))
    }

    /// Runs `session` (a row-sharded one, which needs every worker at once)
    /// over the links by seat id, from a report of the handshakes: checks
    /// the seats out, never past the deadline, fills the vacant ones
    /// (polling each if the run holds any), and checks the links still
    /// there back in.
    pub(crate) fn with_seats(
        &self,
        session: impl FnOnce(&mut Links, TransportReport) -> Result<TransportReport, PipelineError>,
    ) -> Result<TransportReport, PipelineError> {
        let mut links = self.table.checkout(self.deadline)?;
        let resident = links.iter().any(Option::is_some);
        let outcome = match self.fill(&mut links, resident) {
            Ok((_, hellos)) => session(&mut links, hellos),
            Err(e) => Err(transport_error(format!("a worker failed to connect: {e}"))),
        };
        self.table.checkin(links);
        outcome
    }

    /// Seats a worker on every vacant seat, waiting as long as each takes to
    /// dial in (the query server's start-up), and returns how many seats
    /// hold one.
    pub(crate) fn attach(&self) -> io::Result<usize> {
        let mut links = self.table.checkout(None).map_err(io::Error::other)?;
        let mut seats = links.iter_mut().zip(&self.table.listeners);
        let attached = seats.try_for_each(|(seat, listener)| {
            if seat.is_none() {
                let accepted = TcpLink::accept(listener, self.io_timeout, &mut || true)?;
                let (link, ..) = accepted.ok_or(io::ErrorKind::TimedOut)?;
                *seat = Some(Box::new(link));
            }
            io::Result::Ok(())
        });
        let held = links.iter().flatten().count();
        self.table.checkin(links);
        attached.map(|()| held)
    }

    /// Pings every held seat and vacates those that fail to echo the nonce
    /// within [`HEARTBEAT_TIMEOUT`], then polls each vacant listener once
    /// for a worker dialing in (nobody waiting is not an error).  Returns
    /// how many seats it refilled.  A no-op while a run holds the seats:
    /// heartbeats never contend with work.
    pub(crate) fn heartbeat(&self) -> usize {
        let Some(mut links) = unpoisoned(self.table.seats.lock()).take() else {
            return 0;
        };
        for (id, seat) in links.iter_mut().enumerate() {
            let Some(link) = seat else { continue };
            let tick = self.table.pings.fetch_add(1, Ordering::Relaxed);
            let nonce = splitmix64(tick ^ ((id as u64) << 32));
            let _ = link.set_read_timeout(HEARTBEAT_TIMEOUT);
            let healthy = link.send(&Frame::Ping { nonce }).is_ok()
                && matches!(
                    link.recv(),
                    Ok((Frame::Pong { nonce: echoed }, _)) if echoed == nonce
                );
            let _ = link.set_read_timeout(self.io_timeout);
            if !healthy {
                *seat = None;
            }
        }
        let refilled = self.fill(&mut links, true).map_or(0, |(filled, ..)| filled);
        self.table.checkin(links);
        refilled
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn parallelism(&self) -> usize {
        self.table.width.max(1)
    }

    fn model_cache(&self) -> Option<&ModelCache> {
        self.models.as_deref()
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        let specs = plan.specs.iter().map(|spec| spec.encode()).collect();
        let held = self.table.checkout(self.deadline)?;
        // Each vacant seat is filled on its own handler thread, so the run
        // proceeds as soon as any worker is seated.
        let resident = held.iter().any(Option::is_some);
        let accept = |id, remaining: &AtomicUsize| self.accept(id, remaining, resident);
        let (survivors, outcome) =
            dispatch_chunks(specs, plan, held, &accept, self.deadline, on_message);
        self.table.checkin(survivors);
        outcome
    }
}

// ---------------------------------------------------------------------------
// Chunk dispatch — the one master-side loop
// ---------------------------------------------------------------------------

/// A handshaken link plus the handshake's message and byte counts.
type Handshaken = (Box<dyn Link>, usize, u64);

/// What one seat's handler thread reports back to [`dispatch_chunks`].
struct Seat {
    stats: WorkerStats,
    messages: usize,
    bytes: u64,
    /// Items this seat pushed back into the queue when its link failed.
    requeued: u64,
    failure: Option<String>,
    /// The link, when it is still in protocol sync (its `done` was delivered).
    link: Option<Box<dyn Link>>,
}

impl Seat {
    /// Sends one frame on the seat's link, counting it.
    fn send(&mut self, link: &mut dyn Link, frame: &Frame) -> io::Result<()> {
        self.bytes += link.send(frame)?;
        self.messages += 1;
        Ok(())
    }
}

/// Drains a plan through one link per seat.  Each seat's handler thread
/// takes the link it holds (or has `accept` fetch one, given the seat id
/// and the count of unanswered items; `None` when the run finished without
/// needing the seat), pulls chunks from the shared [`WorkQueue`] until no
/// item is outstanding (or `deadline` passes) and releases the worker with
/// `done`.  A link that fails mid-run loses nothing: its outstanding chunk
/// goes back into the queue for the survivors, and the report counts what
/// was absorbed — `retries` by requeued item, `recovered_faults` by lost
/// link whose work a survivor finished.
///
/// Returns the links still in protocol sync (including those released early
/// by the deadline), by seat, beside the outcome: losing workers is
/// survivable as long as every item was answered; losing *all* of them with
/// work outstanding is not.
fn dispatch_chunks(
    specs: Vec<String>,
    plan: ExecutionPlan<'_>,
    seats: Links,
    accept: &(dyn Fn(usize, &AtomicUsize) -> io::Result<Option<Handshaken>> + Sync),
    deadline: Option<Instant>,
    on_message: &mut dyn FnMut(WorkerMessage),
) -> (Links, Result<TransportReport, PipelineError>) {
    let queue = WorkQueue::with_chunk_size(plan.items, plan.chunk_size.max(1));
    // Items not yet answered by *any* worker.  Handlers stay on duty while
    // this is non-zero even when the queue is momentarily empty: a chunk in
    // flight at a dying worker will be requeued, and someone must still be
    // around to pick it up.
    let remaining = AtomicUsize::new(queue.len());
    let serve = |(worker, held): (usize, Option<Box<dyn Link>>), tx: &Sender<_>| {
        let job = Frame::Job {
            version: WIRE_VERSION,
            worker,
            method: plan.method.clone(),
            specs: specs.clone(),
        };
        let link = match held {
            Some(link) => Ok(Some((link, 0, 0))),
            None => accept(worker, &remaining),
        };
        serve_seat(worker, link, job, &queue, &remaining, deadline, tx)
    };
    let outcomes = fan_in(seats.into_iter().enumerate().collect(), serve, on_message);

    let mut report = TransportReport::default();
    let mut failures = Vec::new();
    let mut survivors = Vec::new();
    for seat in outcomes {
        report.messages += seat.messages;
        report.bytes_on_wire += seat.bytes;
        report.retries += seat.requeued;
        report.recovered_faults += u64::from(seat.requeued > 0);
        if let Some(failure) = seat.failure {
            if seat.link.is_none() {
                report.disconnects += 1;
            }
            failures.push(format!("worker {}: {failure}", seat.stats.id));
        }
        survivors.push(seat.link);
        report.worker_stats.push(seat.stats);
    }
    let undone = remaining.load(Ordering::SeqCst);
    let outcome = if undone > 0 {
        Err(transport_error(format!(
            "{undone} work item(s) left undone: {}",
            failures.join("; ")
        )))
    } else {
        Ok(report)
    };
    (survivors, outcome)
}

/// The master-side collection loop, where a cluster deployment reads from
/// the network: runs `serve` for each seat on its own scoped thread with a
/// sender of one result channel, hands every message to `on_message` as it
/// arrives, and returns the threads' results in seat order.
fn fan_in<S: Send, R: Send>(
    seats: Vec<S>,
    serve: impl Fn(S, &Sender<WorkerMessage>) -> R + Sync,
    on_message: &mut dyn FnMut(WorkerMessage),
) -> Vec<R> {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let serve = &serve;
        let handles: Vec<_> = seats
            .into_iter()
            .map(|seat| {
                let tx = tx.clone();
                scope.spawn(move || serve(seat, &tx))
            })
            .collect();
        drop(tx);
        rx.into_iter().for_each(on_message);
        handles
            .into_iter()
            .map(|h| h.join().expect("master-side handler thread panicked"))
            .collect()
    })
}

/// One seat of a dispatch: stream chunks to the worker at the far end of
/// `link` and forward the results, then release it with `done`.
fn serve_seat(
    worker: usize,
    link: io::Result<Option<Handshaken>>,
    job: Frame,
    queue: &WorkQueue,
    remaining: &AtomicUsize,
    deadline: Option<Instant>,
    results: &Sender<WorkerMessage>,
) -> Seat {
    let mut seat = Seat {
        stats: WorkerStats {
            id: worker,
            evaluated: 0,
            messages: 0,
            busy: Duration::ZERO,
        },
        messages: 0,
        bytes: 0,
        requeued: 0,
        failure: None,
        link: None,
    };
    let mut link = match link {
        Ok(Some((link, messages, bytes))) => {
            seat.messages += messages;
            seat.bytes += bytes;
            link
        }
        Ok(None) => return seat, // run finished without needing this worker
        Err(e) => {
            seat.failure = Some(e.to_string());
            return seat;
        }
    };
    // The job header (worker id, method, one spec line per measure) travels
    // with the first chunk in hand, so a link that fails at any frame of the
    // run has work outstanding and requeues it like any other loss.
    let mut job = Some(job);
    loop {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            // Nothing from this handler is in flight at a check point, so
            // there is nothing to requeue — stop taking new chunks and
            // release the worker in protocol (the `done` below), leaving
            // the unanswered items in the queue for the caller to count.
            seat.failure = Some("request deadline exceeded".to_string());
            break;
        }
        let Some(chunk) = queue.pop_chunk() else {
            if remaining.load(Ordering::SeqCst) == 0 {
                break;
            }
            // Another worker's chunk is still in flight; its failure would
            // requeue it here.  Idle briefly and look again.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let roundtrip = (|| -> io::Result<(WorkerMessage, u64)> {
            if let Some(job) = job.take() {
                seat.send(&mut link, &job)?;
            }
            let frame = Frame::Chunk {
                items: chunk.clone(),
            };
            seat.send(&mut link, &frame)?;
            let (reply, n) = link.recv()?;
            seat.bytes += n;
            seat.messages += 1;
            match reply {
                // A result must answer exactly the dispatched chunk, item for
                // item — anything else would corrupt the outstanding-item
                // accounting, or (worse) cache a value under the wrong
                // measure's transform key and poison the checkpoint file.
                Frame::Result {
                    message,
                    busy_nanos,
                } if message.results.len() == chunk.len()
                    && message
                        .results
                        .iter()
                        .zip(&chunk)
                        .all(|(outcome, sent)| outcome.item == *sent) =>
                {
                    Ok((message, busy_nanos))
                }
                Frame::Result { message, .. } => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "worker answered {} item(s) that do not match the {} dispatched",
                        message.results.len(),
                        chunk.len()
                    ),
                )),
                Frame::Fatal { message } => {
                    Err(io::Error::other(format!("worker reported: {message}")))
                }
                other => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected result frame, got {other:?}"),
                )),
            }
        })();
        match roundtrip {
            Ok((message, busy_nanos)) => {
                seat.stats.evaluated += message.results.len();
                seat.stats.messages += 1;
                seat.stats.busy += Duration::from_nanos(busy_nanos);
                remaining.fetch_sub(chunk.len(), Ordering::SeqCst);
                if results.send(message).is_err() {
                    break; // master collection loop has gone away
                }
            }
            Err(e) => {
                // The chunk was sent but never (fully) answered: every item in
                // it is still outstanding.  Requeue and retire this handler.
                seat.requeued += chunk.len() as u64;
                for item in chunk {
                    queue.push(item);
                }
                seat.failure = Some(format!("connection lost mid-run: {e}"));
                return seat;
            }
        }
    }

    // Release the worker (one that never took a chunk still hears `job`,
    // `done`).  Its link may already be gone if it crashed right after its
    // last result — nothing is outstanding either way.
    let farewell = job.into_iter().chain([Frame::Done]);
    if farewell
        .map(|frame| seat.send(&mut link, &frame))
        .all(|sent| sent.is_ok())
    {
        seat.link = Some(link);
    }
    seat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Backoff, FaultKind, FaultPlan};
    use crate::link::{FaultyLink, LoopbackLink};
    use crate::one_stage;
    use crate::transform::{ModelSpec, TargetSpec};
    use crate::wire::{read_frame, write_frame};
    use crate::worker::{run_tcp_worker, TcpWorkerOptions, TcpWorkerSummary, WorkItemOutcome};
    use smp_distributions::Dist;
    use smp_numeric::Complex64;
    use std::net::TcpStream;

    fn items_for(points: &[Complex64], measure: usize) -> Vec<WorkItem> {
        points
            .iter()
            .enumerate()
            .map(|(index, &s)| WorkItem { measure, index, s })
            .collect()
    }

    fn collect(
        transport: &dyn Transport,
        plan: ExecutionPlan<'_>,
    ) -> (Vec<WorkItemOutcome>, TransportReport) {
        let mut outcomes = Vec::new();
        let report = transport
            .execute(plan, &mut |message| outcomes.extend(message.results))
            .unwrap();
        outcomes.sort_by_key(|o| o.item.index);
        (outcomes, report)
    }

    /// A plan evaluating `spec` (measure 0) at `points`, `chunk_size` a chunk.
    fn spec_plan<'a>(
        spec: &'a TransformSpec,
        points: &[Complex64],
        chunk_size: usize,
    ) -> ExecutionPlan<'a> {
        ExecutionPlan {
            specs: vec![spec],
            items: items_for(points, 0),
            chunk_size,
            method: "euler".to_string(),
        }
    }

    type WorkerThread = std::thread::JoinHandle<Result<TcpWorkerSummary, String>>;

    /// A miniature cluster inside one test: the master side binds one
    /// listener per entry of `exit_after`, and a "process" (a thread running
    /// the real worker loop, with that fault-injection limit) dials each.
    fn cluster(exit_after: &[Option<usize>]) -> (TcpTransport, Vec<WorkerThread>) {
        let transport = TcpTransport::bind(&vec!["127.0.0.1:0"; exit_after.len()])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let dial = |(addr, &exit_after_chunks): (SocketAddr, &Option<usize>)| {
            let connect = addr.to_string();
            let options = TcpWorkerOptions {
                exit_after_chunks,
                ..Default::default()
            };
            std::thread::spawn(move || run_tcp_worker(&connect, &options))
        };
        let addrs = transport.local_addrs().into_iter();
        let workers = addrs.zip(exit_after).map(dial).collect();
        (transport, workers)
    }

    /// Every item of an in-process plan is evaluated once, and the report
    /// accounts for it.  (The name predates specs: the in-process plan is
    /// the one that used to carry closures.)
    #[test]
    fn in_process_closure_plan_evaluates_everything() {
        let spec = one_stage::passage("expLT(1.0, s)");
        let points: Vec<Complex64> = (1..=9).map(|k| Complex64::new(k as f64, 0.5)).collect();
        let transport = InProcess::new(3);
        assert_eq!(transport.name(), "in-process");
        let (outcomes, report) = collect(&transport, spec_plan(&spec, &points, 2));
        assert_eq!(outcomes.len(), 9);
        let indices: Vec<usize> = outcomes.iter().map(|o| o.item.index).collect();
        assert_eq!(
            indices,
            (0..9).collect::<Vec<_>>(),
            "each item exactly once"
        );
        let d = Dist::exponential(1.0);
        for outcome in outcomes {
            assert_eq!(outcome.outcome.unwrap(), d.lst(outcome.item.s));
        }
        assert_eq!(report.bytes_on_wire, 0, "shared memory ships no bytes");
        assert_eq!(report.disconnects, 0);
        let evaluated: usize = report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(evaluated, 9);
        let messages: usize = report.worker_stats.iter().map(|w| w.messages).sum();
        assert_eq!(report.messages, messages);
    }

    /// The one-stage net's passage is its Erlang sojourn's LST.
    #[test]
    fn in_process_spec_plan_matches_the_analytic_transform() {
        let spec = one_stage::passage("erlangLT(2.0, 3, s)");
        let points: Vec<Complex64> = (1..=5)
            .map(|k| Complex64::new(0.3 * k as f64, 1.0))
            .collect();
        let (outcomes, _) = collect(&InProcess::new(2), spec_plan(&spec, &points, 3));
        let d = Dist::erlang(2.0, 3);
        for outcome in outcomes {
            assert_eq!(outcome.outcome.unwrap(), d.lst(outcome.item.s));
        }
    }

    #[test]
    fn tcp_round_trip_with_in_process_worker_threads() {
        // The whole frame protocol over real sockets.
        let spec = one_stage::passage("expLT(1.5, s)");
        let points: Vec<Complex64> = (1..=20)
            .map(|k| Complex64::new(0.2 * k as f64, -1.0))
            .collect();
        let (transport, workers) = cluster(&[None, None]);
        assert_eq!(transport.name(), "tcp");
        assert_eq!(transport.local_addrs().len(), 2);

        let (outcomes, report) = collect(&transport, spec_plan(&spec, &points, 4));
        assert_eq!(outcomes.len(), 20);
        let d = Dist::exponential(1.5);
        for outcome in &outcomes {
            assert_eq!(
                outcome.outcome.clone().unwrap(),
                d.lst(outcome.item.s),
                "bit-exact through the wire"
            );
        }
        assert!(report.bytes_on_wire > 0);
        assert_eq!(report.disconnects, 0);
        let by_workers: usize = report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(by_workers, 20);

        // Closing the sockets is the workers' release.
        drop(transport);
        let mut total = 0;
        for handle in workers {
            let summary = handle.join().unwrap().unwrap();
            assert!(!summary.dropped_early);
            total += summary.evaluated;
        }
        assert_eq!(total, 20);
    }

    /// The one builder over every spec it takes: a voting 3,1,1 CDF and a
    /// quantile answer with the analytic engine's bits on each, under the
    /// backend name the spec promises.  A TCP spec binds two ephemeral
    /// rendezvous addresses, and a thread running the real worker loop dials
    /// each address the builder returns.
    #[test]
    fn every_pool_spec_answers_with_the_analytic_bits() {
        use crate::engine::{AnalyticEngine, DistributedEngine};
        use crate::master::PipelineOptions;
        use crate::transform::ModelSpec;
        use smp_core::query::{Engine, MeasureReport, MeasureRequest, TargetSpec};
        use smp_laplace::InversionMethod;

        let model = ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        };
        let target = TargetSpec::parse("p2>=2").unwrap();
        let ts = [1.0, 4.0, 10.0];
        let requests = [
            MeasureRequest::cdf(target.clone(), &ts),
            MeasureRequest::quantile(target, &[0.5]).with_t_points(&ts),
        ];
        let bits = |reports: &[MeasureReport]| -> Vec<Vec<u64>> {
            let values = |r: &MeasureReport| r.values.iter().map(|v| v.to_bits()).collect();
            reports.iter().map(values).collect()
        };
        let method = InversionMethod::euler();
        let analytic = AnalyticEngine::new(model.clone(), method.clone());
        let expected = bits(&analytic.solve(&requests).unwrap());

        let two = || vec!["127.0.0.1:0".to_string(); 2];
        let specs = [
            (PoolSpec::InProcess(1), "in-process", 0),
            (PoolSpec::InProcess(3), "in-process", 0),
            (PoolSpec::Loopback(2), "sharded-loopback", 0),
            (PoolSpec::Tcp(two()), "tcp", 2),
            (PoolSpec::ShardedTcp(two()), "sharded-tcp", 2),
        ];
        for (spec, backend, dialers) in specs {
            let models = Arc::new(ModelCache::new(1));
            let (transport, rendezvous) = build_transport(&spec, &models, None).unwrap();
            assert_eq!(transport.name(), backend, "{spec:?}");
            assert_eq!(rendezvous.len(), dialers, "{spec:?}");
            let dial = |addr: &SocketAddr| {
                let connect = addr.to_string();
                std::thread::spawn(move || run_tcp_worker(&connect, &TcpWorkerOptions::default()))
            };
            let workers: Vec<WorkerThread> = rendezvous.iter().map(dial).collect();
            let options = PipelineOptions::default();
            let engine = DistributedEngine::with_transport(
                model.clone(),
                method.clone(),
                options,
                transport,
            );
            let reports = engine.solve(&requests).unwrap();
            assert_eq!(bits(&reports), expected, "{spec:?}");
            for report in &reports {
                assert_eq!(report.provenance.backend, backend, "{spec:?}");
            }
            // Dropping the engine's transport releases the workers.
            drop(engine);
            for worker in workers {
                worker.join().unwrap().unwrap();
            }
        }
    }

    fn sharded_spec_and_points() -> (TransformSpec, Vec<Complex64>, Vec<Complex64>) {
        use crate::shard::tests::{points, reference, voting_spec};
        let expected = reference(&voting_spec(), &points());
        (voting_spec(), points(), expected)
    }

    /// Row-sharded evaluation over the holders `seats` seats.
    fn sharded_over(seats: TcpTransport) -> ShardedTransport {
        ShardedTransport::new(seats, Arc::new(ModelCache::new(1)), None)
    }

    /// The values of `outcomes`, in item order.
    fn values(outcomes: &[WorkItemOutcome]) -> Vec<Complex64> {
        let value = |o: &WorkItemOutcome| o.outcome.clone().unwrap();
        outcomes.iter().map(value).collect()
    }

    /// How many of the table's seats hold a link between runs.
    fn held(seats: &TcpTransport) -> usize {
        let links = unpoisoned(seats.table.seats.lock());
        links
            .as_ref()
            .map_or(0, |links| links.iter().flatten().count())
    }

    #[test]
    fn sharded_tcp_session_matches_the_local_evaluator_bitwise() {
        // Three real worker loops over real sockets, each holding one row
        // slice in a seat; the master folds their lockstep SpMV rounds.
        let (spec, points, expected) = sharded_spec_and_points();
        let (transport, workers) = cluster(&[None, None, None]);
        let sharded = sharded_over(transport.clone());
        assert_eq!(sharded.name(), "sharded-tcp");
        let (outcomes, report) = collect(&sharded, spec_plan(&spec, &points, 1));
        assert_eq!(values(&outcomes), expected, "bit-exact through the wire");
        assert_eq!(report.disconnects, 0);
        assert_eq!(report.shard_states.len(), 3);
        assert_eq!(
            report.shard_states.iter().sum::<usize>(),
            report.states.unwrap()
        );
        assert!(
            report.halo_bytes > 0,
            "boundary exchange shipped real bytes"
        );
        assert_eq!(held(&transport), 3, "the holders are back in their seats");
        // The last handle's drop is the farewell.
        drop((sharded, transport));

        for handle in workers {
            let summary = handle.join().unwrap().unwrap();
            assert_eq!(summary.jobs, 1, "one slice session served");
            assert_eq!(summary.evaluated, points.len(), "every point refilled");
            assert!(!summary.dropped_early);
        }
    }

    #[test]
    fn sharded_tcp_session_solves_underflow_points_on_the_shards() {
        let (transport, workers) = cluster(&[None, None, None]);
        let accept = |k| {
            let accepted = transport.accept(k, &AtomicUsize::new(1), false).unwrap();
            accepted.expect("the worker dials in").0
        };
        let links = (0..3).map(accept).collect();
        let mut fleet = crate::shard::SliceFleet::from_links(links);
        crate::shard::tests::assert_underflow_points_run_on_the_shards(&mut fleet);
        drop(fleet);
        for handle in workers {
            assert_eq!(handle.join().unwrap().unwrap().jobs, 2, "two sessions");
        }
    }

    #[test]
    fn sharded_tcp_worker_kill_is_resharded_onto_survivors() {
        let (spec, points, expected) = sharded_spec_and_points();
        // Worker 1 vanishes mid-point after five slice responses; the master
        // re-shards the session across the two survivors and redoes the
        // in-flight point — the values cannot tell the difference because
        // the block boundaries are a pure function of N and the shard count.
        let (transport, workers) = cluster(&[None, Some(5), None]);
        let sharded = sharded_over(transport.clone());
        let (outcomes, report) = collect(&sharded, spec_plan(&spec, &points, 1));
        assert_eq!(
            values(&outcomes),
            expected,
            "requeue preserves bitwise identity"
        );
        assert_eq!(report.disconnects, 1);
        assert_eq!(report.shards, 2);
        assert_eq!(
            report.shard_states.len(),
            2,
            "memory model tracks survivors"
        );
        assert_eq!(held(&transport), 2, "the lost holder's seat is vacant");
        drop((sharded, transport));

        for (k, handle) in workers.into_iter().enumerate() {
            assert_eq!(handle.join().unwrap().unwrap().dropped_early, k == 1);
        }
    }

    /// Loopback row slices are seated through `from_links`: the seat table
    /// holds them between runs, and every run answers with the unsharded
    /// evaluator's bits.
    #[test]
    fn loopback_shards_are_seated_through_from_links() {
        let (spec, points, expected) = sharded_spec_and_points();
        let seats = TcpTransport::from_links(crate::shard::loopback_slices(3));
        let sharded = sharded_over(seats.clone());
        assert_eq!(sharded.name(), "sharded-loopback");
        for run in 0..2 {
            let (outcomes, report) = collect(&sharded, spec_plan(&spec, &points, 1));
            assert_eq!(values(&outcomes), expected, "run {run}");
            assert_eq!((report.shards, report.disconnects), (3, 0), "run {run}");
            assert_eq!(held(&seats), 3, "run {run}: the slices are seated again");
        }
    }

    /// A holder lost mid-run leaves its seat vacant: the run re-shards onto
    /// the survivors, and the next run seats only them (with no address to
    /// rejoin at, nobody refills the seat) and answers with the same bits.
    #[test]
    fn a_sharded_run_after_a_lost_holder_seats_only_the_survivors() {
        let (spec, points, expected) = sharded_spec_and_points();
        // Holder 1 dies at the eighth frame the master sends it.
        let plan = FaultPlan::scripted([(8, FaultKind::Disconnect)]);
        let mut slices = crate::shard::loopback_slices(3);
        let doomed = slices.remove(1);
        let doomed = FaultyLink::new(doomed, Arc::new(Mutex::new(plan)));
        slices.insert(1, Box::new(doomed));
        let seats = TcpTransport::from_links(slices);
        let sharded = sharded_over(seats.clone());
        let (outcomes, report) = collect(&sharded, spec_plan(&spec, &points, 1));
        assert_eq!(values(&outcomes), expected);
        assert_eq!((report.shards, report.disconnects), (2, 1));
        assert_eq!(held(&seats), 2, "the lost holder's seat is vacant");
        let (outcomes, report) = collect(&sharded, spec_plan(&spec, &points, 1));
        assert_eq!(values(&outcomes), expected);
        assert_eq!((report.shards, report.disconnects), (2, 0));
        assert_eq!(report.shard_states.len(), 2);
        assert_eq!(held(&seats), 2);
    }

    /// One release policy for every seat table: the farewell it sends when
    /// its last handle drops ends a worker with a reconnect budget without
    /// a redial, whether the worker served a one-shot chunk run or was
    /// seated and never given a job — and the latter still reports that it
    /// was released before work.
    #[test]
    fn a_dropped_seat_table_releases_reconnecting_workers_without_a_redial() {
        let spec = one_stage::passage("expLT(1.0, s)");
        let dial = |transport: &TcpTransport| {
            let connect = transport.local_addrs()[0].to_string();
            let options = TcpWorkerOptions {
                connect_attempts: 2,
                retry_delay: Duration::from_millis(10),
                reconnect_attempts: 3,
                ..Default::default()
            };
            std::thread::spawn(move || run_tcp_worker(&connect, &options))
        };
        let transport = TcpTransport::bind(&["127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let worker = dial(&transport);
        let (outcomes, _) = collect(&transport, spec_plan(&spec, &[Complex64::ONE], 1));
        assert_eq!(outcomes.len(), 1);
        drop(transport);
        let served = worker.join().unwrap().unwrap();
        assert_eq!(
            (served.jobs, served.reconnects, served.dial_retries),
            (1, 0, 0)
        );
        assert!(!served.released_before_work);

        let transport = TcpTransport::bind(&["127.0.0.1:0"]).unwrap();
        let worker = dial(&transport);
        assert_eq!(transport.attach().unwrap(), 1, "the worker is seated");
        drop(transport);
        let idle = worker.join().unwrap().unwrap();
        assert_eq!((idle.jobs, idle.reconnects, idle.dial_retries), (0, 0, 0));
        assert!(idle.released_before_work);
    }

    #[test]
    fn worker_disconnect_requeues_its_outstanding_chunk() {
        let spec = one_stage::passage("expLT(1.0, s)");
        let points: Vec<Complex64> = (1..=12)
            .map(|k| Complex64::new(0.5 * k as f64, 1.0))
            .collect();
        let transport = TcpTransport::bind(&["127.0.0.1:0"; 2])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let addrs = transport.local_addrs();
        let serve = |k: usize, exit_after_chunks| {
            let options = TcpWorkerOptions {
                exit_after_chunks,
                ..Default::default()
            };
            run_tcp_worker(&addrs[k].to_string(), &options).unwrap()
        };
        // Worker 0 vanishes after a single chunk; the healthy worker 1 dials
        // in only once it is gone, so it cannot drain the queue first, and
        // serves until the run's end drops the transport.
        let ((outcomes, report), flaky_summary) = std::thread::scope(|scope| {
            let (spec, points) = (&spec, &points);
            let run = scope.spawn(move || collect(&transport, spec_plan(spec, points, 2)));
            let flaky_summary = serve(0, Some(1));
            serve(1, None);
            (run.join().unwrap(), flaky_summary)
        });
        // Every point was evaluated exactly once despite the disconnect…
        assert_eq!(outcomes.len(), 12);
        let d = Dist::exponential(1.0);
        for outcome in &outcomes {
            assert_eq!(outcome.outcome.clone().unwrap(), d.lst(outcome.item.s));
        }
        // …and the report records the casualty and what was absorbed: the
        // chunk in flight at the lost worker was requeued, item for item, and
        // finished by the survivor.
        assert_eq!(report.disconnects, 1);
        assert_eq!(report.retries, 2, "one two-item chunk requeued");
        assert_eq!(report.recovered_faults, 1);
        assert!(flaky_summary.dropped_early);
        assert_eq!(flaky_summary.chunks, 1);
    }

    #[test]
    fn a_vacant_seat_costs_a_multi_round_solve_one_grace_window() {
        // Two rendezvous addresses, one worker.  The first run — the
        // transport holds no link yet — waits the grace window out for the
        // absent worker.  Every later run (which is what each further
        // refinement round of a quantile search is to its transport) holds
        // worker 0's link and only polls.  One cheap point per run keeps the
        // compute three orders of magnitude under the window.
        let spec = one_stage::passage("expLT(1.0, s)");
        let transport = TcpTransport::bind(&["127.0.0.1:0"; 2]).unwrap();
        let addr = transport.local_addrs()[0].to_string();
        let worker =
            std::thread::spawn(move || run_tcp_worker(&addr, &TcpWorkerOptions::default()));
        let run = |round: usize| {
            let started = Instant::now();
            let point = Complex64::new(1.0 + round as f64, 0.5);
            let (outcomes, report) = collect(&transport, spec_plan(&spec, &[point], 1));
            assert_eq!(outcomes.len(), 1);
            assert_eq!(report.disconnects, 0, "an absent worker is not a lost one");
            started.elapsed()
        };
        assert!(run(0) >= FINISHED_RUN_GRACE);
        for round in 1..4 {
            let elapsed = run(round);
            assert!(elapsed < FINISHED_RUN_GRACE, "round {round}: {elapsed:?}");
        }
        drop(transport);
        assert_eq!(worker.join().unwrap().unwrap().jobs, 4, "one job per run");
    }

    /// Two runs on one seat table take turns: the second waits for the
    /// seats instead of accepting on listeners whose workers the first
    /// holds, and both answer on the same two links.  A run whose deadline
    /// has passed is refused without touching them.
    #[test]
    fn concurrent_runs_take_turns_at_the_seats_and_a_passed_deadline_is_refused() {
        let spec = one_stage::passage("expLT(1.0, s)");
        let points: Vec<Complex64> = (1..=16)
            .map(|k| Complex64::new(0.5 * k as f64, 1.0))
            .collect();
        let transport = TcpTransport::bind(&["127.0.0.1:0"; 2])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let run = || collect(&transport, spec_plan(&spec, &points, 2));
        let d = Dist::exponential(1.0);
        let check = |(outcomes, report): (Vec<WorkItemOutcome>, TransportReport)| {
            assert_eq!(outcomes.len(), points.len());
            for outcome in outcomes {
                assert_eq!(outcome.outcome.unwrap(), d.lst(outcome.item.s));
            }
            assert_eq!(report.disconnects, 0);
        };
        // Both runs start before any worker dials, so whichever takes the
        // seats waits in accept while the other waits for the seats.
        let started = std::sync::Barrier::new(3);
        let workers = std::thread::scope(|scope| {
            let start = || {
                started.wait();
                run()
            };
            let runs: Vec<_> = (0..2).map(|_| scope.spawn(start)).collect();
            started.wait();
            let dial = |addr: SocketAddr| {
                let connect = addr.to_string();
                std::thread::spawn(move || run_tcp_worker(&connect, &TcpWorkerOptions::default()))
            };
            let workers: Vec<WorkerThread> =
                transport.local_addrs().into_iter().map(dial).collect();
            for handle in runs {
                check(handle.join().unwrap());
            }
            workers
        });
        let late = transport.clone().with_deadline(Some(Instant::now()));
        let plan = spec_plan(&spec, &points, 2);
        let error = late.execute(plan, &mut |_| {}).unwrap_err();
        // The server's `engine_refusal` reads this as a `Deadline` refusal.
        assert!(
            error.to_string().contains("request deadline exceeded"),
            "{error}"
        );
        check(run());
        drop((transport, late));
        for worker in workers {
            let summary = worker.join().unwrap().unwrap();
            assert_eq!(summary.jobs, 3, "one link served every run it was offered");
        }
    }

    /// A worker that hangs up between runs keeps its seat until the
    /// heartbeat finds it silent; the heartbeat then seats whoever dials the
    /// freed address, and the next run answers on both seats with the
    /// analytic engine's bits.
    #[test]
    fn the_heartbeat_vacates_a_lost_seat_and_seats_a_fresh_dialer() {
        use crate::engine::{AnalyticEngine, DistributedEngine};
        use crate::master::PipelineOptions;
        use smp_core::query::{Engine, MeasureReport, MeasureRequest};
        use smp_laplace::InversionMethod;

        let model = ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        };
        let target = TargetSpec::parse("p2>=2").unwrap();
        let cdf = [MeasureRequest::cdf(target, &[1.0, 4.0, 10.0])];
        let method = InversionMethod::euler();
        let bits = |reports: Vec<MeasureReport>| -> Vec<u64> {
            reports[0].values.iter().map(|v| v.to_bits()).collect()
        };
        let analytic = AnalyticEngine::new(model.clone(), method.clone());
        let expected = bits(analytic.solve(&cdf).unwrap());
        let transport = TcpTransport::bind(&["127.0.0.1:0"; 2])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let addrs = transport.local_addrs();
        // The whole plan is one chunk: a worker that answers it has nothing
        // left to do.
        let solve = || {
            let options = PipelineOptions::default().chunked(1 << 20);
            let seats = Box::new(transport.clone());
            let (model, method) = (model.clone(), method.clone());
            let engine = DistributedEngine::with_transport(model, method, options, seats);
            bits(engine.solve(&cdf).unwrap())
        };

        // Worker 1 answers the chunk and hangs up after the run has heard
        // its result, so the run delivers its `done` and keeps the seat.
        // Nobody dials seat 0, whose rendezvous lapses after the grace.
        let first = std::thread::scope(|scope| {
            let run = scope.spawn(solve);
            let options = TcpWorkerOptions {
                exit_after_chunks: Some(1),
                ..Default::default()
            };
            let lost = run_tcp_worker(&addrs[1].to_string(), &options).unwrap();
            assert!(lost.dropped_early);
            run.join().unwrap()
        });
        assert_eq!(first, expected);
        assert_eq!(
            held(&transport),
            1,
            "a hang-up between runs goes unseen until the heartbeat"
        );
        assert_eq!(transport.heartbeat(), 0, "nobody dials");
        assert_eq!(
            held(&transport),
            0,
            "the heartbeat vacated the lost worker's seat"
        );

        // A fresh worker dials each address in turn, the freed one first;
        // a heartbeat seats each.
        let mut workers = Vec::new();
        for addr in addrs {
            let connect = addr.to_string();
            let options = TcpWorkerOptions::default();
            workers.push(std::thread::spawn(move || {
                run_tcp_worker(&connect, &options)
            }));
            let started = Instant::now();
            let refilled = loop {
                let refilled = transport.heartbeat();
                if refilled > 0 || started.elapsed() > Duration::from_secs(10) {
                    break refilled;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            assert_eq!(refilled, 1, "{addr}");
        }
        assert_eq!(held(&transport), 2);
        assert_eq!(solve(), expected);
        drop(transport);
        for worker in workers {
            let summary = worker.join().unwrap().unwrap();
            assert_eq!(summary.jobs, 1, "both seats served the second run");
        }
    }

    #[test]
    fn worker_reports_fatal_on_uncompilable_specs() {
        let bad = TransformSpec::passage(
            ModelSpec::Voting {
                voters: 2,
                polling: 1,
                central: 1,
            },
            TargetSpec::parse("nosuchplace>=1").unwrap(),
        );
        let (transport, mut workers) = cluster(&[None]);
        let plan = spec_plan(&bad, &[Complex64::ONE], 1);
        let error = transport.execute(plan, &mut |_| {}).unwrap_err();
        assert!(error.to_string().contains("nosuchplace"), "{error}");
        let summary = workers.pop().unwrap().join().unwrap();
        assert!(summary.unwrap_err().contains("nosuchplace"));
    }

    /// A link that sends `line` in place of every spec line of a `job`: a
    /// line no `TransformSpec` encodes to can still reach a worker.
    struct SpecLineSwap<L> {
        inner: L,
        line: &'static str,
    }

    impl<L: Link> Link for SpecLineSwap<L> {
        fn send(&mut self, frame: &Frame) -> io::Result<u64> {
            match frame {
                Frame::Job {
                    version,
                    worker,
                    method,
                    specs,
                } => self.inner.send(&Frame::Job {
                    version: *version,
                    worker: *worker,
                    method: method.clone(),
                    specs: vec![self.line.to_string(); specs.len()],
                }),
                frame => self.inner.send(frame),
            }
        }

        fn recv(&mut self) -> io::Result<(Frame, u64)> {
            self.inner.recv()
        }
    }

    /// The closed-form `analytic` spec line is no spec: a worker handed a
    /// job carrying one answers `fatal`, and the master's error names the
    /// tag.
    #[test]
    fn a_worker_refuses_an_analytic_spec_line_as_fatal() {
        let (rendezvous, mut workers) = cluster(&[None]);
        let accepted = rendezvous.accept(0, &AtomicUsize::new(1), false).unwrap();
        let link = SpecLineSwap {
            inner: accepted.expect("the worker dials in").0,
            line: "analytic v=1 dist=erlang:4000000000000000:3",
        };
        let transport = TcpTransport::from_links(vec![Box::new(link)]);
        let spec = one_stage::passage("erlangLT(2.0, 3, s)");
        let plan = spec_plan(&spec, &[Complex64::ONE], 1);
        let error = transport.execute(plan, &mut |_| {}).unwrap_err();
        assert!(
            error.to_string().contains("unknown spec tag 'analytic'"),
            "{error}"
        );
        drop((transport, rendezvous));
        let summary = workers.pop().unwrap().join().unwrap();
        assert!(summary.unwrap_err().contains("'analytic'"));
    }

    #[test]
    fn silent_connected_worker_times_out_instead_of_hanging_the_run() {
        // A client that dials the rendezvous port and never speaks (a port
        // scanner, a SIGSTOPped worker) must not hang execute() forever: the
        // per-read io timeout declares it lost and the run fails cleanly.
        let spec = one_stage::passage("expLT(1.0, s)");
        let transport = TcpTransport::bind(&["127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(5))
            .with_io_timeout(Duration::from_millis(200));
        let addr = transport.local_addrs()[0];
        let mute = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_secs(3));
            drop(stream);
        });
        let plan = spec_plan(&spec, &[Complex64::ONE], 1);
        let started = Instant::now();
        let error = transport.execute(plan, &mut |_| {}).unwrap_err();
        assert!(error.to_string().contains("left undone"), "{error}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "timed out via io timeout, not by luck: {:?}",
            started.elapsed()
        );
        mute.join().unwrap();
    }

    #[test]
    fn accept_timeout_fails_cleanly_when_no_worker_dials_in() {
        let spec = one_stage::passage("expLT(1.0, s)");
        let transport = TcpTransport::bind(&["127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_millis(100));
        let plan = spec_plan(&spec, &[Complex64::ONE], 1);
        let error = transport.execute(plan, &mut |_| {}).unwrap_err();
        assert!(error.to_string().contains("left undone"), "{error}");
    }

    #[test]
    fn fault_plans_replay_deterministically() {
        // Scripted ops fire at exactly their index.
        let mut plan = FaultPlan::scripted([
            (2, FaultKind::DropFrame),
            (5, FaultKind::CorruptByte { xor: 0x10 }),
        ]);
        let fired: Vec<FaultKind> = (0..8).map(|_| plan.next_op()).collect();
        assert_eq!(fired[2], FaultKind::DropFrame);
        assert_eq!(fired[5], FaultKind::CorruptByte { xor: 0x10 });
        assert_eq!(
            fired.iter().filter(|k| **k != FaultKind::Pass).count(),
            2,
            "nothing fires off-script"
        );
        assert_eq!(plan.injected(), 2);

        // Seeded schedules are pure functions of (seed, op): two instances
        // replay identically, a different seed diverges somewhere.
        let mut a = FaultPlan::seeded(42, 5);
        let mut b = FaultPlan::seeded(42, 5);
        let run_a: Vec<FaultKind> = (0..200).map(|_| a.next_op()).collect();
        let run_b: Vec<FaultKind> = (0..200).map(|_| b.next_op()).collect();
        assert_eq!(run_a, run_b, "same seed must replay exactly");
        assert!(a.injected() > 0, "a 1-in-5 schedule over 200 ops fires");
        assert!(
            run_a.iter().all(|k| !matches!(k, FaultKind::Delay { .. })),
            "seeded schedules never delay (tests must stay fast)"
        );

        // A budget caps total injections.
        let mut capped = FaultPlan::seeded(42, 5).with_budget(3);
        for _ in 0..200 {
            capped.next_op();
        }
        assert_eq!(capped.injected(), 3);
    }

    #[test]
    fn backoff_schedules_are_deterministic_jittered_and_capped() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        let mut a = Backoff::for_endpoint(base, max, "10.0.0.5:9000");
        let mut b = Backoff::for_endpoint(base, max, "10.0.0.5:9000");
        let delays_a: Vec<Duration> = (0..10).map(|_| a.next_delay()).collect();
        let delays_b: Vec<Duration> = (0..10).map(|_| b.next_delay()).collect();
        assert_eq!(delays_a, delays_b, "same endpoint → same schedule");
        for (k, &d) in delays_a.iter().enumerate() {
            // Jitter lives in [0.5, 1.0): never less than half the doubled
            // base, never at or above the cap × 1.0.
            let ceiling = base.saturating_mul(1 << k.min(16) as u32).min(max);
            assert!(d >= ceiling / 2, "attempt {k}: {d:?} under the floor");
            assert!(d < ceiling, "attempt {k}: {d:?} at or over the ceiling");
        }
        // A different endpoint de-synchronizes.
        let mut c = Backoff::for_endpoint(base, max, "10.0.0.6:9000");
        let delays_c: Vec<Duration> = (0..10).map(|_| c.next_delay()).collect();
        assert_ne!(delays_a, delays_c, "distinct endpoints must not stampede");
    }

    #[test]
    fn faulty_transport_recovers_to_bitwise_identical_outcomes() {
        // The production chunk dispatch over fault-injecting links: every
        // lossy fault costs the run one link, whose chunk in flight goes
        // back into the queue for the survivors — the path a real lost
        // worker takes.
        let spec = one_stage::passage("erlangLT(1.25, 4, s)");
        let points: Vec<Complex64> = (1..=12)
            .map(|k| Complex64::new(0.15 * k as f64, 0.4 * k as f64 - 2.0))
            .collect();
        let make_plan = || spec_plan(&spec, &points, 2);
        let (clean, _) = collect(&InProcess::new(2), make_plan());
        let schedules = [
            FaultPlan::scripted([(1, FaultKind::DropFrame)]),
            FaultPlan::scripted([(0, FaultKind::CorruptByte { xor: 0x20 })]),
            FaultPlan::scripted([
                (2, FaultKind::DropFrame),
                (4, FaultKind::CorruptByte { xor: 0x01 }),
                (7, FaultKind::Disconnect),
            ]),
            FaultPlan::seeded(7, 4).with_budget(5),
        ];
        for plan in schedules {
            // One op counter across the fleet, and more workers than the
            // largest fault budget: each fault can cost at most one link.
            let shared = Arc::new(Mutex::new(plan));
            let (rendezvous, _workers) = cluster(&[None; 7]);
            let links = (0..7).map(|k| {
                let accepted = rendezvous.accept(k, &AtomicUsize::new(1), false).unwrap();
                let worker = accepted.expect("the worker dials in").0;
                Box::new(FaultyLink::new(worker, Arc::clone(&shared))) as Box<dyn Link>
            });
            let faulty = TcpTransport::from_links(links.collect());
            let (outcomes, report) = collect(&faulty, make_plan());
            assert_eq!(outcomes.len(), clean.len());
            for (got, want) in outcomes.iter().zip(&clean) {
                assert_eq!(got.item, want.item);
                let (got_v, want_v) = (got.outcome.clone().unwrap(), want.outcome.clone().unwrap());
                assert_eq!(got_v.re.to_bits(), want_v.re.to_bits());
                assert_eq!(got_v.im.to_bits(), want_v.im.to_bits());
            }
            // Every schedule here fires within the first frames of the run,
            // all of which carry work (a job travels with its first chunk).
            assert!(
                report.recovered_faults > 0,
                "every schedule here injects at least one fault"
            );
            assert!(report.retries > 0, "recovery re-executes items");
            assert_eq!(report.disconnects as u64, report.recovered_faults);
        }
    }

    #[test]
    fn faulty_stream_corruption_is_refused_by_the_frame_reader() {
        // Three frames through a FaultyLink: op 0 passes, op 1 is corrupted,
        // op 2 dropped.
        let ping = |nonce| Frame::Ping { nonce };
        let plan = FaultPlan::scripted([
            (1, FaultKind::CorruptByte { xor: 0x08 }),
            (2, FaultKind::DropFrame),
        ]);
        let shared = Arc::new(Mutex::new(plan));
        let mut faulty = FaultyLink::new(Box::new(LoopbackLink::new()), Arc::clone(&shared));
        // The intact frame reaches the worker, which answers it.
        faulty.send(&ping(0)).unwrap();
        assert_eq!(faulty.recv().unwrap().0, Frame::Pong { nonce: 0 });
        // The corrupted bytes went through the frame reader, which refused
        // them (an accepted corruption panics inside the link): the sender
        // sees the receiver's refusal.
        let refusal = faulty.send(&ping(1)).unwrap_err();
        assert!(
            crate::wire::wire_error_of(&refusal).is_some()
                || refusal.kind() == io::ErrorKind::InvalidData,
            "corruption must surface as a typed refusal, got {refusal:?}"
        );
        // A dropped frame looks shipped to its sender…
        let shipped = faulty.send(&ping(2)).unwrap();
        assert_eq!(shipped, crate::wire::frame_wire_size(&ping(2)).unwrap());
        assert_eq!(shared.lock().unwrap().injected(), 2);
        // …but stalls the link instead of silently desynchronising it.
        assert_eq!(faulty.recv().unwrap_err().kind(), io::ErrorKind::TimedOut);

        // A disconnect kills the link for good.
        let plan = FaultPlan::scripted([(0, FaultKind::Disconnect)]);
        let near = Box::new(LoopbackLink::new());
        let mut dead = FaultyLink::new(near, Arc::new(Mutex::new(plan)));
        let error = dead.send(&ping(9)).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::ConnectionAborted);
        assert!(dead.recv().is_err());
    }

    #[test]
    fn accepted_links_are_blocking_nodelay_and_time_out_both_ways() {
        let timeout = Duration::from_millis(150);
        let transport = TcpTransport::bind(&["127.0.0.1:0"])
            .unwrap()
            .with_io_timeout(timeout);
        let addr = transport.local_addrs()[0];
        let dialer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = Frame::Hello {
                version: WIRE_VERSION,
            };
            write_frame(&mut stream, &hello).unwrap();
            // Stay connected and silent until the master hangs up.
            let _ = read_frame(&mut stream);
        });
        let listener = &transport.table.listeners[0];
        let (mut link, messages, bytes) =
            TcpLink::accept(listener, transport.io_timeout, &mut || true)
                .unwrap()
                .expect("the dialer is accepted");
        assert_eq!((messages, bytes > 0), (1, true), "the hello is accounted");
        let stream = link.stream();
        // The kernel rounds socket timeouts up to its timer tick.
        let set = stream.read_timeout().unwrap().expect("a read timeout");
        assert!(set >= timeout && set < timeout + Duration::from_millis(20));
        assert_eq!(stream.write_timeout().unwrap(), Some(set));
        assert!(stream.nodelay().unwrap());
        // Blocking mode: a read on the silent peer waits the timeout out
        // (a non-blocking socket would refuse at once).
        let started = Instant::now();
        assert!(link.recv().is_err());
        assert!(started.elapsed() >= timeout / 2, "{:?}", started.elapsed());
        drop(link);
        dialer.join().unwrap();
    }

    #[test]
    fn a_restarted_master_rebinds_its_port_through_time_wait() {
        // After a master dies mid-session, the kernel parks its half of each
        // accepted connection in TIME_WAIT on the *listener's* port for up to
        // a minute.  A restarted master must re-bind that exact advertised
        // port immediately — workers are redialing it — which only works when
        // both generations of the listener set SO_REUSEADDR before bind (std
        // does, on Unix).
        //
        // Reproduce the state in-process: accept a connection, then close the
        // master side *first* (active close → our port owns the TIME_WAIT
        // entry), then re-bind the same port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let accepted = listener.accept().unwrap().0;
        drop(accepted); // master sends FIN first: TIME_WAIT lands on addr
        let mut sink = Vec::new();
        let mut client = client;
        std::io::Read::read_to_end(&mut client, &mut sink).unwrap(); // EOF
        drop(client);
        drop(listener);
        let reborn = TcpListener::bind(addr)
            .expect("immediate re-bind of a crashed master's port must succeed");
        assert_eq!(reborn.local_addr().unwrap(), addr);
    }

    #[test]
    fn reconnecting_worker_redials_after_a_master_crash_and_answers_pings() {
        // A worker with a reconnect budget treats EOF as "the master may be
        // restarting" (a kill -9 and a clean close are indistinguishable at
        // the socket) and exits only on an explicit outer Done.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = TcpWorkerOptions {
            retry_delay: Duration::from_millis(10),
            idle_timeout: Some(Duration::from_secs(5)),
            reconnect_attempts: 5,
            ..Default::default()
        };
        let worker = std::thread::spawn(move || run_tcp_worker(&addr.to_string(), &options));
        let accept = || {
            let accepted = TcpLink::accept(&listener, Duration::from_secs(5), &mut || true);
            accepted
                .unwrap()
                .expect("the worker dials in and says hello")
                .0
        };
        // Session 1: accept the hello, then vanish without a farewell —
        // exactly what a kill -9'd master looks like from the worker.
        drop(accept());
        // Session 2: the worker redials.  Probe it with a heartbeat, then
        // release it with the explicit outer farewell.
        let mut link = accept();
        link.send(&Frame::Ping { nonce: 77 }).unwrap();
        assert_eq!(link.recv().unwrap().0, Frame::Pong { nonce: 77 });
        link.send(&Frame::Done).unwrap();
        let summary = worker.join().unwrap().unwrap();
        assert_eq!(summary.reconnects, 1, "one redial after the crash");
        assert_eq!(summary.jobs, 0);
    }
}
