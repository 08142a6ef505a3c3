//! Pluggable master⇄worker transports.
//!
//! The paper's pipeline ran on a cluster of PCs: the master placed `s`-point
//! evaluations in a global work queue and slave processors collected them over
//! a message-passing layer.  This module abstracts that layer behind the
//! [`Transport`] trait so the *same* planning, caching, checkpointing and
//! inversion code drives every deployment:
//!
//! * [`InProcess`] — worker threads and crossbeam channels (the default; the
//!   substitution documented in the crate root),
//! * [`TcpTransport`] — real worker *processes* on real sockets: the master
//!   listens, each `smpq worker --connect HOST:PORT` dials in, receives the
//!   job's [`TransformSpec`]s, rebuilds the evaluators from bytes and answers
//!   chunks until the queue drains.  A worker that disconnects mid-run loses
//!   nothing: its outstanding chunk is requeued and the surviving workers
//!   finish it,
//! * [`crate::shard::ShardedTransport`] — row-sharded evaluation: instead of
//!   farming whole `s`-points out, every point runs as lockstep sparse
//!   products over slice workers that each hold one row block of the model,
//! * the query server's standing pool (`server.rs`) and the fault-injecting
//!   [`FaultyTransport`] wrapper.
//!
//! All of them speak about the same [`ExecutionPlan`]; only [`InProcess`]
//! accepts closure-based measures — everything else needs a serializable spec
//! (closures cannot cross a process boundary — that is the whole point of
//! [`TransformSpec`]).

use crate::master::PipelineError;
use crate::transform::{CompiledEvaluator, CompiledModelSet, CompiledSetCache, TransformSpec};
use crate::wire::{read_frame, write_frame, Frame, WIRE_VERSION};
use crate::work::{WorkItem, WorkQueue};
use crate::worker::{run_batch_worker, TransformFn, WorkItemOutcome, WorkerMessage, WorkerStats};
use crossbeam::channel::unbounded;
use smp_numeric::Complex64;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one measure of a plan is evaluated.
pub enum Evaluator<'a> {
    /// A live in-process closure (cannot cross a process boundary).
    Closure(&'a TransformFn<'a>),
    /// A serializable description a remote worker can rebuild.
    Spec(&'a TransformSpec),
}

impl std::fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Evaluator::Closure(_) => f.write_str("Evaluator::Closure(..)"),
            Evaluator::Spec(spec) => f.debug_tuple("Evaluator::Spec").field(spec).finish(),
        }
    }
}

impl Clone for Evaluator<'_> {
    fn clone(&self) -> Self {
        *self
    }
}

impl Copy for Evaluator<'_> {}

impl std::fmt::Debug for ExecutionPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionPlan")
            .field("evaluators", &self.evaluators)
            .field("items", &self.items.len())
            .field("chunk_size", &self.chunk_size)
            .field("method", &self.method)
            .finish()
    }
}

/// Everything a transport needs to run one distributed evaluation: the
/// per-measure evaluators, the outstanding work items, and the dispatch chunk
/// size.  Produced by `DistributedPipeline::execute` after planning and cache
/// dedup.
pub struct ExecutionPlan<'a> {
    /// Per-measure evaluators, indexed by [`WorkItem::measure`].
    pub evaluators: Vec<Evaluator<'a>>,
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
    /// Compiled model sets this run served from a shared
    /// [`CompiledSetCache`] without
    /// re-exploring (zero when the backend has no cache attached).
    pub model_cache_hits: usize,
    /// Compiled model sets this run had to compile — each one a state-space
    /// exploration per distinct model in the plan.
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

/// A pluggable master⇄worker message-passing backend.
pub trait Transport {
    /// Short backend name for reports (`in-process`, `tcp`, `sharded-tcp`, …).
    fn name(&self) -> &'static str;

    /// How many workers the backend runs in parallel — the master's hint for
    /// automatic chunk sizing.
    fn parallelism(&self) -> usize;

    /// True when [`Transport::execute`] may be called repeatedly on the same
    /// instance (worker threads, row shards, the server's standing pool).
    /// The TCP chunk backend returns `false`: its
    /// rendezvous listeners serve one worker connection per run, so
    /// multi-round computations (the distributed engine's quantile
    /// refinement) must fall back to master-side evaluation rather than
    /// expecting workers to dial in again.
    fn reusable(&self) -> bool {
        true
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

fn transport_error(message: impl Into<String>) -> PipelineError {
    PipelineError::Transport {
        message: message.into(),
    }
}

/// Encodes every measure of a plan into its wire spec line, rejecting plans
/// with closure-based measures (they cannot cross a process boundary).  Shared
/// by the TCP rendezvous backend and the query server's standing worker pool.
pub(crate) fn encode_plan_specs(
    evaluators: &[Evaluator<'_>],
) -> Result<Vec<String>, PipelineError> {
    evaluators
        .iter()
        .map(|evaluator| match evaluator {
            Evaluator::Spec(spec) => spec
                .encode()
                .map_err(|e| transport_error(format!("unencodable transform spec: {e}"))),
            Evaluator::Closure(_) => Err(transport_error(
                "closure-based measures cannot cross a process boundary; \
                 build the batch from TransformSpecs to use the TCP backend",
            )),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// In-process backends
// ---------------------------------------------------------------------------

/// The default backend: worker threads inside the master process, one shared
/// lock-protected queue, crossbeam result channels.
#[derive(Debug, Clone)]
pub struct InProcess {
    /// Number of worker threads; 0 or 1 means a single worker.
    pub workers: usize,
    compiled_cache: Option<Arc<CompiledSetCache>>,
}

impl InProcess {
    /// An in-process backend with `workers` threads.
    pub fn new(workers: usize) -> Self {
        InProcess {
            workers,
            compiled_cache: None,
        }
    }

    /// Serves compiled model sets from `cache` instead of re-exploring the
    /// state space on every run — the query server shares one cache across
    /// all requests.
    pub fn with_compiled_cache(mut self, cache: Arc<CompiledSetCache>) -> Self {
        self.compiled_cache = Some(cache);
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

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        run_threaded(
            self.workers,
            plan,
            self.compiled_cache.as_deref(),
            on_message,
        )
    }
}

/// The thread-backed engine behind [`InProcess`].
fn run_threaded(
    workers: usize,
    plan: ExecutionPlan<'_>,
    compiled_cache: Option<&CompiledSetCache>,
    on_message: &mut dyn FnMut(WorkerMessage),
) -> Result<TransportReport, PipelineError> {
    let workers = workers.max(1);

    // Compile every spec-based measure locally: one state-space exploration
    // per distinct model, exactly what a remote worker would do on receipt of
    // the job frame.  With a cache attached, a repeated spec list reuses the
    // explored state space instead.
    let specs: Vec<TransformSpec> = plan
        .evaluators
        .iter()
        .filter_map(|e| match e {
            Evaluator::Spec(spec) => Some((*spec).clone()),
            Evaluator::Closure(_) => None,
        })
        .collect();
    let (compiled_set, cache_hit) = match compiled_cache {
        Some(cache) => cache.get_or_compile(&specs).map_err(transport_error)?,
        None => (
            Arc::new(CompiledModelSet::compile(&specs).map_err(transport_error)?),
            false,
        ),
    };
    let (model_cache_hits, model_cache_misses) = if cache_hit {
        (compiled_set.num_models(), 0)
    } else {
        (0, compiled_set.num_models())
    };
    let states = (compiled_set.num_models() > 0).then(|| compiled_set.num_states());
    let compiled: Vec<CompiledEvaluator<'_>> =
        compiled_set.evaluators().map_err(transport_error)?;

    // Per-measure evaluation closures: live closures pass straight through,
    // spec measures call their compiled evaluator.
    let mut next_spec = 0usize;
    let boxed: Vec<Box<TransformFn<'_>>> = plan
        .evaluators
        .iter()
        .map(|evaluator| match evaluator {
            Evaluator::Closure(f) => {
                let f = *f;
                Box::new(move |s: Complex64| f(s)) as Box<TransformFn<'_>>
            }
            Evaluator::Spec(_) => {
                let compiled = &compiled[next_spec];
                next_spec += 1;
                Box::new(move |s: Complex64| compiled.eval(s)) as Box<TransformFn<'_>>
            }
        })
        .collect();
    let evaluators: Vec<&TransformFn<'_>> = boxed.iter().map(|b| b.as_ref()).collect();

    let queue = WorkQueue::with_chunk_size(plan.items, plan.chunk_size.max(1));
    let (tx, rx) = unbounded::<WorkerMessage>();
    let mut messages = 0usize;
    let worker_stats: Vec<WorkerStats> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for id in 0..workers {
            let queue = &queue;
            let evaluators = &evaluators;
            let tx = tx.clone();
            handles.push(scope.spawn(move |_| run_batch_worker(id, queue, evaluators, &tx)));
        }
        drop(tx);

        // The master-side collection loop (where a cluster deployment would
        // read from the network instead of a channel).
        for message in rx {
            messages += 1;
            on_message(message);
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
    .expect("transport scope failed");

    let hotpath = compiled
        .iter()
        .map(|evaluator| evaluator.hotpath_stats())
        .fold(smp_core::HotPathStats::default(), |acc, s| acc.merged(s));
    Ok(TransportReport {
        worker_stats,
        messages,
        states,
        hotpath,
        model_cache_hits,
        model_cache_misses,
        ..TransportReport::default()
    })
}

// ---------------------------------------------------------------------------
// TCP backend — master side
// ---------------------------------------------------------------------------

/// Binds a TCP listener with `SO_REUSEADDR` set *before* the bind — the
/// crash-restart precondition of every fixed rendezvous endpoint.
///
/// A master killed mid-solve (`kill -9`) leaves its accepted sockets'
/// `TIME_WAIT` entries parked on the listener's port; a plain
/// `TcpListener::bind` by the restarted master is then refused with
/// `EADDRINUSE` for up to a minute — longer than any reconnecting worker's
/// redial budget.  Linux honours an immediate re-bind only when *both*
/// generations of socket carry `SO_REUSEADDR` (accepted sockets inherit the
/// flag from their listener), and the flag must be set between `socket()`
/// and `bind()`, a window `std` does not expose — hence this small libc
/// shim.  Non-Linux targets keep the plain bind.
#[cfg(target_os = "linux")]
pub(crate) fn bind_reusable(addr: &SocketAddr) -> std::io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const BACKLOG: i32 = 128;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    // `struct sockaddr_in` / `sockaddr_in6`, byte for byte: the family is a
    // host-endian u16; ports, addresses and the v6 flow label travel in
    // network byte order; the v6 scope id stays host-endian.
    let (family, raw): (i32, Vec<u8>) = match addr {
        SocketAddr::V4(v4) => {
            let mut raw = Vec::with_capacity(16);
            raw.extend_from_slice(&(AF_INET as u16).to_ne_bytes());
            raw.extend_from_slice(&v4.port().to_be_bytes());
            raw.extend_from_slice(&v4.ip().octets());
            raw.resize(16, 0); // sin_zero padding
            (AF_INET, raw)
        }
        SocketAddr::V6(v6) => {
            let mut raw = Vec::with_capacity(28);
            raw.extend_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            raw.extend_from_slice(&v6.port().to_be_bytes());
            raw.extend_from_slice(&v6.flowinfo().to_be_bytes());
            raw.extend_from_slice(&v6.ip().octets());
            raw.extend_from_slice(&v6.scope_id().to_ne_bytes());
            (AF_INET6, raw)
        }
    };

    // SAFETY: the fd is owned by this function until `from_raw_fd` transfers
    // it to the returned listener (or `close` reclaims it on error), and the
    // sockaddr bytes outlive every call that reads them.
    unsafe {
        let fd = socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, (&one as *const i32).cast(), 4) != 0
            || bind(fd, raw.as_ptr(), raw.len() as u32) != 0
            || listen(fd, BACKLOG) != 0
        {
            let error = std::io::Error::last_os_error();
            close(fd);
            return Err(error);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Fallback for non-Linux targets: the portable bind, without the
/// crash-restart `SO_REUSEADDR` guarantee.
#[cfg(not(target_os = "linux"))]
pub(crate) fn bind_reusable(addr: &SocketAddr) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// [`bind_reusable`] over anything address-like: each candidate the name
/// resolves to is tried in order, exactly as `TcpListener::bind` would.
pub(crate) fn bind_reusable_to<A: ToSocketAddrs>(addr: A) -> std::io::Result<TcpListener> {
    let mut last: Option<std::io::Error> = None;
    for candidate in addr.to_socket_addrs()? {
        match bind_reusable(&candidate) {
            Ok(listener) => return Ok(listener),
            Err(error) => last = Some(error),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    }))
}

/// The bundle [`TcpTransport::accept_slice_channels`] returns: one
/// handshaken channel per worker, plus the handshake's message and byte
/// counts so the caller's wire accounting starts from the true totals.
pub type AcceptedSliceChannels = (Vec<Box<dyn crate::shard::SliceChannel>>, usize, u64);

/// Real multi-process distribution over TCP.
///
/// The master binds one listener per expected worker (so each worker has an
/// unambiguous rendezvous address) and hands each accepted connection its own
/// handler thread.  Handlers pull chunks from the shared [`WorkQueue`] — the
/// same global queue the thread backends use — so work naturally balances
/// across workers of different speeds, and a dead worker's outstanding chunk
/// is pushed back for the survivors.
pub struct TcpTransport {
    listeners: Vec<TcpListener>,
    accept_timeout: Duration,
    io_timeout: Duration,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addrs", &self.local_addrs())
            .field("accept_timeout", &self.accept_timeout)
            .field("io_timeout", &self.io_timeout)
            .finish()
    }
}

impl TcpTransport {
    /// Binds one listener per address (use port `0` for an ephemeral port and
    /// read the real one back with [`TcpTransport::local_addrs`]).  Each
    /// listener serves exactly one worker connection per run.
    ///
    /// Listeners are bound with `SO_REUSEADDR` (see [`bind_reusable`]): a
    /// master restarted after a crash re-binds its advertised rendezvous
    /// endpoints immediately instead of waiting out its predecessor's
    /// `TIME_WAIT` quarantine.
    pub fn bind<A: ToSocketAddrs>(addrs: &[A]) -> std::io::Result<TcpTransport> {
        let listeners: Vec<TcpListener> = addrs
            .iter()
            .map(bind_reusable_to)
            .collect::<std::io::Result<_>>()?;
        Ok(TcpTransport {
            listeners,
            accept_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(600),
        })
    }

    /// Overrides how long `execute` waits for each worker to dial in.
    pub fn with_accept_timeout(mut self, timeout: Duration) -> Self {
        self.accept_timeout = timeout;
        self
    }

    /// Overrides the per-read socket timeout on accepted connections.  A
    /// worker that connects but goes silent — a SIGSTOPped process, a
    /// network partition with no RST — must not hang the run forever: after
    /// this long without a frame the handler declares the worker lost and
    /// requeues its outstanding chunk.  Size it above the slowest expected
    /// chunk evaluation (default: 10 minutes).
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// The bound rendezvous addresses, in worker-id order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.listeners
            .iter()
            .filter_map(|l| l.local_addr().ok())
            .collect()
    }

    /// Number of workers this transport expects.
    pub fn num_workers(&self) -> usize {
        self.listeners.len()
    }

    /// Accepts every expected worker connection (dial-in plus `Hello`
    /// handshake) and wraps each stream as a [`crate::shard::SliceChannel`]
    /// ready for a row-sharded session ([`crate::shard::SliceFleet`]).
    /// Returns the channels plus the handshake's message and byte counts so
    /// the caller's wire accounting starts from the true totals.
    pub fn accept_slice_channels(&self) -> Result<AcceptedSliceChannels, PipelineError> {
        // The sentinel never reaches zero: a sharded session needs every
        // worker, so an absent one is a timeout error, not an unused address.
        let pending = std::sync::atomic::AtomicUsize::new(usize::MAX);
        let mut channels: Vec<Box<dyn crate::shard::SliceChannel>> =
            Vec::with_capacity(self.num_workers());
        let mut messages = 0usize;
        let mut bytes = 0u64;
        for index in 0..self.num_workers() {
            let mut stream = self
                .accept_one(index, &pending)
                .map_err(|e| transport_error(format!("worker {index} failed to connect: {e}")))?
                .expect("a non-zero sentinel never skips the accept");
            let n = expect_hello(&mut stream)
                .map_err(|e| transport_error(format!("worker {index} handshake failed: {e}")))?;
            messages += 1;
            bytes += n;
            channels.push(Box::new(crate::shard::TcpSliceChannel::new(stream)));
        }
        Ok((channels, messages, bytes))
    }

    /// Accepts this listener's worker.  `Ok(None)` means the run finished
    /// (every item answered by the other workers) before anyone dialed in —
    /// not a failure, just an unused rendezvous address; without this check a
    /// spare address would stall the completed run for the full accept
    /// timeout and then be misreported as a disconnect.
    fn accept_one(
        &self,
        index: usize,
        remaining: &std::sync::atomic::AtomicUsize,
    ) -> std::io::Result<Option<TcpStream>> {
        let listener = &self.listeners[index];
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + self.accept_timeout;
        // Once the run is finished (remaining == 0) this worker is not
        // needed, but one may already be dialing — its connection would land
        // in the listener backlog, never be accepted, and die with an error
        // when the listener drops.  A short grace window (longer than the
        // worker-side dial retry delay) lets such a worker be accepted,
        // handshaked and released cleanly with a `done` frame instead.
        let mut grace_deadline: Option<Instant> = None;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.io_timeout))?;
                    return Ok(Some(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if remaining.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                        let grace = *grace_deadline
                            .get_or_insert_with(|| Instant::now() + Duration::from_millis(400));
                        if Instant::now() >= grace {
                            return Ok(None);
                        }
                    } else if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("no worker connected within {:?}", self.accept_timeout),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Everything one connection handler reports back to `execute`.  Shared with
/// the query server's standing worker pool, which runs the same dispatch loop
/// over sockets it keeps alive across requests.
pub(crate) struct HandlerOutcome {
    pub(crate) stats: WorkerStats,
    pub(crate) messages: usize,
    pub(crate) bytes: u64,
    pub(crate) failure: Option<String>,
}

impl HandlerOutcome {
    pub(crate) fn new(worker_id: usize) -> Self {
        HandlerOutcome {
            stats: WorkerStats {
                id: worker_id,
                evaluated: 0,
                messages: 0,
                busy: Duration::ZERO,
            },
            messages: 0,
            bytes: 0,
            failure: None,
        }
    }
}

/// Reads one frame and checks it is a version-compatible hello.  Returns the
/// bytes read so the caller can account them.
pub(crate) fn expect_hello(stream: &mut TcpStream) -> std::io::Result<u64> {
    let (frame, n) = read_frame(stream)?;
    match frame {
        Frame::Hello { version } if version == WIRE_VERSION => Ok(n),
        Frame::Hello { version } => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("worker speaks wire version {version}, master speaks {WIRE_VERSION}"),
        )),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected hello frame, got {other:?}"),
        )),
    }
}

/// Writes the job header (worker id, method, one spec line per measure) that
/// opens every dispatch round.  Returns the bytes written.
pub(crate) fn send_job(
    stream: &mut TcpStream,
    worker_id: usize,
    method: &str,
    specs: &[String],
) -> std::io::Result<u64> {
    write_frame(
        stream,
        &Frame::Job {
            version: WIRE_VERSION,
            worker: worker_id,
            method: method.to_string(),
            specs: specs.to_vec(),
        },
    )
}

/// The post-handshake dispatch loop: stream chunks to one connected worker and
/// forward its results until the queue drains (or the optional deadline
/// passes), then release the worker with a `done` frame.  On any I/O failure
/// the outstanding chunk goes back into the queue, `outcome.failure` is set,
/// and the function returns with the stream out of protocol sync.
///
/// Returns `true` when the connection is still in sync afterwards (the `done`
/// frame was delivered) — the standing pool uses this to decide whether the
/// worker can be kept for the next request.
pub(crate) fn drive_connected_worker(
    stream: &mut TcpStream,
    queue: &WorkQueue,
    remaining: &std::sync::atomic::AtomicUsize,
    deadline: Option<Instant>,
    results: &crossbeam::channel::Sender<WorkerMessage>,
    outcome: &mut HandlerOutcome,
) -> bool {
    use std::sync::atomic::Ordering;
    loop {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                // Nothing from this handler is in flight at a check point, so
                // there is nothing to requeue — stop taking new chunks and
                // release the worker in protocol (the `done` below), leaving
                // the unanswered items in the queue for the caller to count.
                outcome.failure = Some("request deadline exceeded".to_string());
                break;
            }
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
        let roundtrip = (|| -> std::io::Result<(WorkerMessage, u64)> {
            let frame = Frame::Chunk {
                items: chunk.clone(),
            };
            outcome.bytes += write_frame(stream, &frame)?;
            outcome.messages += 1;
            let (reply, n) = read_frame(stream)?;
            outcome.bytes += n;
            outcome.messages += 1;
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
                Frame::Result { message, .. } => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "worker answered {} item(s) that do not match the {} dispatched",
                        message.results.len(),
                        chunk.len()
                    ),
                )),
                Frame::Fatal { message } => {
                    Err(std::io::Error::other(format!("worker reported: {message}")))
                }
                other => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected result frame, got {other:?}"),
                )),
            }
        })();
        match roundtrip {
            Ok((message, busy_nanos)) => {
                outcome.stats.evaluated += message.results.len();
                outcome.stats.messages += 1;
                outcome.stats.busy += Duration::from_nanos(busy_nanos);
                remaining.fetch_sub(chunk.len(), Ordering::SeqCst);
                if results.send(message).is_err() {
                    break; // master collection loop has gone away
                }
            }
            Err(e) => {
                // The chunk was sent but never (fully) answered: every item in
                // it is still outstanding.  Requeue and retire this handler.
                for item in chunk {
                    queue.push(item);
                }
                outcome.failure = Some(format!("connection lost mid-run: {e}"));
                return false;
            }
        }
    }

    // Release the worker.  Its socket may already be gone if it crashed right
    // after its last result — nothing is outstanding either way.
    match write_frame(stream, &Frame::Done) {
        Ok(n) => {
            outcome.bytes += n;
            outcome.messages += 1;
            true
        }
        Err(_) => false,
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn parallelism(&self) -> usize {
        self.listeners.len().max(1)
    }

    fn reusable(&self) -> bool {
        // One rendezvous per listener per run: a second execute() would wait
        // for workers that have already been released.
        false
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        // Closures cannot be shipped; every measure must carry a spec.
        let specs = encode_plan_specs(&plan.evaluators)?;

        let total_items = plan.items.len();
        let queue = WorkQueue::with_chunk_size(plan.items, plan.chunk_size.max(1));
        // Items not yet answered by *any* worker.  Handlers stay on duty while
        // this is non-zero even when the queue is momentarily empty: a chunk
        // in flight at a dying worker will be requeued, and someone must
        // still be around to pick it up.
        let remaining = std::sync::atomic::AtomicUsize::new(total_items);
        let (tx, rx) = unbounded::<WorkerMessage>();
        let method = plan.method.clone();

        let outcomes: Vec<HandlerOutcome> = crossbeam::scope(|scope| {
            let mut handles = Vec::with_capacity(self.listeners.len());
            for worker_id in 0..self.listeners.len() {
                let queue = &queue;
                let specs = &specs;
                let method = &method;
                let remaining = &remaining;
                let tx = tx.clone();
                handles.push(scope.spawn(move |_| {
                    serve_worker_connection(self, worker_id, queue, specs, method, remaining, &tx)
                }));
            }
            drop(tx);

            for message in rx {
                on_message(message);
            }

            handles
                .into_iter()
                .map(|h| h.join().expect("tcp handler thread panicked"))
                .collect()
        })
        .expect("tcp transport scope failed");

        let mut report = TransportReport::default();
        let mut failures = Vec::new();
        for outcome in outcomes {
            report.messages += outcome.messages;
            report.bytes_on_wire += outcome.bytes;
            if let Some(failure) = outcome.failure {
                report.disconnects += 1;
                failures.push(format!("worker {}: {failure}", outcome.stats.id));
            }
            report.worker_stats.push(outcome.stats);
        }

        // Losing workers is survivable as long as every item was answered;
        // losing *all* of them with work outstanding is not.
        let undone = remaining.load(std::sync::atomic::Ordering::SeqCst);
        if undone > 0 {
            return Err(transport_error(format!(
                "{undone} work item(s) left undone: {}",
                failures.join("; ")
            )));
        }
        Ok(report)
    }
}

/// Runs one master-side connection: accept, handshake, stream chunks, forward
/// results.  On any I/O failure the outstanding chunk goes back into the queue
/// and the handler retires — the remaining workers absorb the load.  A handler
/// whose queue pop comes up empty does **not** retire while other handlers
/// still have chunks in flight: if one of those workers dies, its requeued
/// chunk must find someone still on duty.
fn serve_worker_connection(
    transport: &TcpTransport,
    worker_id: usize,
    queue: &WorkQueue,
    specs: &[String],
    method: &str,
    remaining: &std::sync::atomic::AtomicUsize,
    results: &crossbeam::channel::Sender<WorkerMessage>,
) -> HandlerOutcome {
    let mut outcome = HandlerOutcome::new(worker_id);

    let mut stream = match transport.accept_one(worker_id, remaining) {
        Ok(Some(stream)) => stream,
        Ok(None) => return outcome, // run finished without needing this worker
        Err(e) => {
            outcome.failure = Some(format!("accept failed: {e}"));
            return outcome;
        }
    };

    // Handshake: the worker announces its wire version, the master answers
    // with the job header (worker id, method, one spec line per measure).
    let handshake = (|| -> std::io::Result<()> {
        outcome.bytes += expect_hello(&mut stream)?;
        outcome.messages += 1;
        outcome.bytes += send_job(&mut stream, worker_id, method, specs)?;
        outcome.messages += 1;
        Ok(())
    })();
    if let Err(e) = handshake {
        outcome.failure = Some(format!("handshake failed: {e}"));
        return outcome;
    }

    drive_connected_worker(&mut stream, queue, remaining, None, results, &mut outcome);
    outcome
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// SplitMix64: the stateless mixing function under every deterministic
/// decision in the fault layer (fault schedules, backoff jitter).  Keyed by
/// `(seed, op counter)` or `(seed, attempt)` — never by a clock — so a
/// failure schedule replays bit-for-bit on every run.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One scripted misbehaviour of the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No fault: the operation proceeds untouched.
    Pass,
    /// The frame/message vanishes in transit (the sender believes it went
    /// out; the receiver never sees it).
    DropFrame,
    /// One payload byte is XORed with this (nonzero) mask after the checksum
    /// was computed — the receiver must detect and refuse it.
    CorruptByte {
        /// The nonzero mask applied to one deterministic payload byte.
        xor: u8,
    },
    /// The link dies at this operation (connection-aborted error).
    Disconnect,
    /// The operation is delayed by this many milliseconds, then proceeds —
    /// models a congested or partitioned link that heals.
    Delay {
        /// Injected latency in milliseconds.
        millis: u64,
    },
}

/// A deterministic, replayable schedule of faults, consulted once per
/// intercepted operation.
///
/// Two layers compose: *scripted* ops (an explicit `op index → fault` map,
/// for pinpoint tests) and a *seeded* background schedule (every op hashes
/// `(seed, op counter)` through [`splitmix64`]; when the hash says "fault",
/// the next hash bits pick the kind).  No wall clock, no OS entropy: the
/// same plan over the same traffic injects the same faults in the same
/// places, which is what lets the chaos matrix demand bitwise-identical
/// results.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    scripted: std::collections::BTreeMap<u64, FaultKind>,
    seeded: Option<(u64, u64)>,
    budget: Option<u64>,
    counter: u64,
    injected: u64,
}

impl FaultPlan {
    /// A plan that never injects anything (the fault-free control cell).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from explicit `(op index, fault)` pairs; all other ops pass.
    pub fn scripted(ops: impl IntoIterator<Item = (u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            scripted: ops.into_iter().collect(),
            ..FaultPlan::default()
        }
    }

    /// A pseudo-random background schedule: roughly one op in `every` faults
    /// (drop, corrupt or disconnect — never delay, which only scripts can
    /// inject), decided purely by `splitmix64(seed ^ op)`.
    pub fn seeded(seed: u64, every: u64) -> FaultPlan {
        FaultPlan {
            seeded: Some((seed, every.max(1))),
            ..FaultPlan::default()
        }
    }

    /// Adds one scripted op to any plan (builder style).
    pub fn with_op(mut self, op: u64, kind: FaultKind) -> FaultPlan {
        self.scripted.insert(op, kind);
        self
    }

    /// Caps the total faults the plan will inject; ops past the budget pass
    /// untouched.  A chaos schedule over an `n`-shard fleet needs a budget
    /// `< n` to be survivable by construction — each injected fault can cost
    /// at most one worker.
    pub fn with_budget(mut self, budget: u64) -> FaultPlan {
        self.budget = Some(budget);
        self
    }

    /// Decides the fault for the next operation and advances the op counter.
    pub fn next_op(&mut self) -> FaultKind {
        let op = self.counter;
        self.counter += 1;
        if self.budget.is_some_and(|budget| self.injected >= budget) {
            return FaultKind::Pass;
        }
        let kind = match self.scripted.get(&op) {
            Some(&kind) => kind,
            None => match self.seeded {
                Some((seed, every)) if splitmix64(seed ^ op).is_multiple_of(every) => {
                    let h = splitmix64(seed ^ op ^ 0x5bf0_3635);
                    match h % 3 {
                        0 => FaultKind::DropFrame,
                        1 => FaultKind::CorruptByte {
                            xor: ((h >> 8) as u8) | 1,
                        },
                        _ => FaultKind::Disconnect,
                    }
                }
                _ => FaultKind::Pass,
            },
        };
        if kind != FaultKind::Pass {
            self.injected += 1;
        }
        kind
    }

    /// Operations consulted so far.
    pub fn ops_seen(&self) -> u64 {
        self.counter
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// Proves that a frame with one payload byte flipped is *refused* by the
/// frame reader, exactly as a receiver would refuse it on a real link.
/// Returns the refusing error (panics if the corrupted bytes were accepted —
/// that would mean the checksum failed at its one job).
pub(crate) fn prove_corruption_detected(frame: &Frame, xor: u8) -> std::io::Error {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame).expect("encodable frame");
    let header = crate::wire::FRAME_HEADER_BYTES as usize;
    let payload_len = bytes.len() - header;
    let index =
        (header + (xor as usize).wrapping_mul(7919) % payload_len.max(1)).min(bytes.len() - 1);
    bytes[index] ^= if xor == 0 { 0xff } else { xor };
    match read_frame(&mut std::io::Cursor::new(bytes)) {
        Err(error) => error,
        Ok((decoded, _)) => panic!(
            "injected corruption went undetected: flipped byte {index} yet decoded {decoded:?}"
        ),
    }
}

/// A [`Transport`] wrapper that injects the plan's faults into the message
/// stream and then *recovers*: dropped, corrupted or disconnected result
/// messages are requeued and re-executed on the inner transport until the
/// plan is drained, so a run under faults produces exactly the messages a
/// fault-free run produces (corrupted ones are first proven to be refused by
/// the wire layer).  The faults absorbed and the work items re-executed are
/// reported as [`TransportReport::recovered_faults`] and
/// [`TransportReport::retries`].  Requires a reusable inner transport (the
/// in-process backend); the TCP path injects faults at the worker
/// (`exit_after_chunks`) and slice-channel layers instead.
pub struct FaultyTransport<T> {
    inner: T,
    plan: std::sync::Mutex<FaultPlan>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps a transport with a fault plan.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            plan: std::sync::Mutex::new(plan),
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn reusable(&self) -> bool {
        self.inner.reusable()
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        let ExecutionPlan {
            evaluators,
            mut items,
            chunk_size,
            method,
        } = plan;
        let mut total = TransportReport::default();
        // Each pass re-executes only the items whose results a fault
        // swallowed; the plan keeps advancing (one consult per message), so
        // a scripted schedule addresses retry traffic too.
        loop {
            let round = ExecutionPlan {
                evaluators: evaluators.clone(),
                items,
                chunk_size,
                method: method.clone(),
            };
            let mut swallowed: Vec<WorkItem> = Vec::new();
            let mut recovered = 0u64;
            let report = self.inner.execute(round, &mut |message: WorkerMessage| {
                let kind = match self.plan.lock() {
                    Ok(mut plan) => plan.next_op(),
                    Err(_) => FaultKind::Pass,
                };
                match kind {
                    FaultKind::Pass => on_message(message),
                    FaultKind::Delay { millis } => {
                        std::thread::sleep(Duration::from_millis(millis));
                        on_message(message);
                    }
                    FaultKind::CorruptByte { xor } => {
                        // The corrupted bytes must be *refused* by the wire
                        // layer — then recovery treats the message as lost.
                        let frame = Frame::Result {
                            message: message.clone(),
                            busy_nanos: 0,
                        };
                        let _refusal = prove_corruption_detected(&frame, xor);
                        recovered += 1;
                        swallowed.extend(message.results.into_iter().map(|o| o.item));
                    }
                    FaultKind::DropFrame | FaultKind::Disconnect => {
                        recovered += 1;
                        swallowed.extend(message.results.into_iter().map(|o| o.item));
                    }
                }
            })?;
            total.absorb(report);
            total.recovered_faults += recovered;
            total.retries += swallowed.len() as u64;
            if swallowed.is_empty() {
                return Ok(total);
            }
            if !self.inner.reusable() {
                return Err(transport_error(
                    "fault plan swallowed results on a non-reusable transport; \
                     nothing can re-execute them",
                ));
            }
            items = swallowed;
        }
    }
}

/// A `Read + Write` stream wrapper that applies a [`FaultPlan`] at *frame*
/// granularity on the write side: bytes are buffered until `flush` (the wire
/// layer flushes exactly once per frame), and the flush consults the plan —
/// pass the frame through, corrupt one byte (after the checksum was
/// computed, so the receiver must refuse it), drop it silently, delay it, or
/// kill the link.  Reads pass straight through.
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    buffered: Vec<u8>,
    dead: bool,
}

impl<S> FaultyStream<S> {
    /// Wraps a stream with a per-frame fault plan.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan,
            buffered: Vec::new(),
            dead: false,
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.plan.injected()
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: std::io::Read> std::io::Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: std::io::Write> std::io::Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "link killed by fault plan",
            ));
        }
        self.buffered.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "link killed by fault plan",
            ));
        }
        let frame = std::mem::take(&mut self.buffered);
        match self.plan.next_op() {
            FaultKind::Pass => {}
            FaultKind::DropFrame => return Ok(()), // vanished in transit
            FaultKind::Delay { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            FaultKind::Disconnect => {
                self.dead = true;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "link killed by fault plan",
                ));
            }
            FaultKind::CorruptByte { xor } => {
                let header = crate::wire::FRAME_HEADER_BYTES as usize;
                if frame.len() > header {
                    let index = header + (xor as usize).wrapping_mul(7919) % (frame.len() - header);
                    let mut corrupted = frame;
                    corrupted[index] ^= if xor == 0 { 0xff } else { xor };
                    self.inner.write_all(&corrupted)?;
                    return self.inner.flush();
                }
            }
        }
        self.inner.write_all(&frame)?;
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Deterministic-jitter backoff
// ---------------------------------------------------------------------------

/// Exponential backoff with *deterministic* jitter: delay `k` is
/// `min(base·2ᵏ, max) · (½ + splitmix64(seed ^ k)/2⁶⁵)` — the jitter factor
/// lives in `[0.5, 1.0)` and is a pure function of `(seed, attempt)`, so
/// retry schedules replay exactly and never read a clock for randomness.
/// Seeding by a stable per-endpoint key (see [`Backoff::for_endpoint`])
/// de-synchronizes a fleet of workers hammering one master without
/// sacrificing replayability.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A backoff schedule from a base delay, a cap, and a jitter seed.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            max,
            seed,
            attempt: 0,
        }
    }

    /// A backoff seeded by an endpoint string (FNV-1a of its bytes): every
    /// process retrying `10.0.0.5:9000` jitters identically run over run,
    /// while distinct endpoints de-synchronize.
    pub fn for_endpoint(base: Duration, max: Duration, endpoint: &str) -> Backoff {
        Backoff::new(
            base,
            max,
            crate::wire::frame_checksum(endpoint.len() as u32, endpoint.as_bytes()),
        )
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let attempt = self.attempt;
        self.attempt = self.attempt.saturating_add(1);
        let doubled = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max);
        // splitmix64 → [0.5, 1.0): take 53 mantissa bits, halve, offset.
        let jitter = 0.5
            + (splitmix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        doubled.mul_f64(jitter)
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

// ---------------------------------------------------------------------------
// TCP backend — worker side
// ---------------------------------------------------------------------------

/// Options for a worker process's connection loop.
#[derive(Debug, Clone)]
pub struct TcpWorkerOptions {
    /// How many times to retry the initial dial (the master may still be
    /// binding when the worker starts).
    pub connect_attempts: u32,
    /// Delay between dial attempts.
    pub retry_delay: Duration,
    /// How long to wait for the master's next frame before declaring it lost
    /// and exiting — the mirror image of the master's io timeout, so a
    /// SIGSTOPped or partitioned master cannot leave zombie workers behind.
    /// `None` waits forever.  An idle worker legitimately waits while its
    /// peers finish the tail of the queue, so size this above the expected
    /// run length (default: 10 minutes, matching the master's default).
    pub idle_timeout: Option<Duration>,
    /// Drop the connection (without farewell) after evaluating this many
    /// chunks — an operational fault-injection hook, used by the disconnect
    /// recovery tests.
    pub exit_after_chunks: Option<usize>,
    /// How many times to *redial* after the link closes (0 = exit on close,
    /// today's one-shot behaviour).  A reconnecting worker treats every link
    /// end except an explicit outer `done` frame as "the master may be
    /// restarting" — a `kill -9`'d master and a clean release both present as
    /// EOF, so only the farewell frame distinguishes them — and redials with
    /// deterministic-jitter backoff.  This is what lets a recovering master
    /// find its fleet waiting at the rendezvous.
    pub reconnect_attempts: u32,
}

impl Default for TcpWorkerOptions {
    fn default() -> Self {
        TcpWorkerOptions {
            connect_attempts: 40,
            retry_delay: Duration::from_millis(250),
            idle_timeout: Some(Duration::from_secs(600)),
            exit_after_chunks: None,
            reconnect_attempts: 0,
        }
    }
}

/// What a worker process did during one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpWorkerSummary {
    /// The id the master assigned in the most recent job frame.
    pub worker_id: usize,
    /// Jobs served to completion (`done` frames received).  A one-shot run
    /// serves exactly one; a worker resident behind a query server serves one
    /// per request it participated in.
    pub jobs: usize,
    /// Chunks evaluated and answered, across all jobs.
    pub chunks: usize,
    /// Individual `s`-points evaluated, across all jobs.
    pub evaluated: usize,
    /// True when the worker dropped the link early via
    /// [`TcpWorkerOptions::exit_after_chunks`].
    pub dropped_early: bool,
    /// True when the master's run finished before this worker was assigned
    /// any job: the link closed cleanly between the hello and the first job
    /// frame.  Not a failure — the queue simply drained without this worker.
    pub released_before_work: bool,
    /// Dial attempts that failed and were retried (initial connect and every
    /// reconnect round).
    pub dial_retries: u64,
    /// Sessions re-established after a link loss (only under
    /// [`TcpWorkerOptions::reconnect_attempts`] > 0).
    pub reconnects: u32,
}

/// Runs one worker process end to end: dial the master, handshake, rebuild
/// the evaluators from the job's [`TransformSpec`]s, answer chunks until the
/// master says `done` (or the fault-injection limit drops the link).
///
/// The worker is **resident**: after a `done` frame it stays connected and
/// waits for the next job, so a long-running master (the query server) can
/// reuse it across requests without a fresh rendezvous.  The one-shot master
/// closes the socket after its single run, which the worker sees as a clean
/// end-of-stream and exits on — so `smpq worker --connect` behaves exactly as
/// before against a batch run.  The last compiled model set is memoized:
/// back-to-back jobs over the same specs (the common case behind a server)
/// skip the parse + state-space exploration entirely.
///
/// This is what `smpq worker --connect HOST:PORT` executes.
pub fn run_tcp_worker(
    connect: &str,
    options: &TcpWorkerOptions,
) -> Result<TcpWorkerSummary, String> {
    let mut summary = TcpWorkerSummary {
        worker_id: 0,
        jobs: 0,
        chunks: 0,
        evaluated: 0,
        dropped_early: false,
        released_before_work: false,
        dial_retries: 0,
        reconnects: 0,
    };
    // The last job's spec lines and their compiled model set.  A resident
    // worker behind a query daemon sees the same model for most jobs, and a
    // repeat job must not pay the exploration again.  The cache survives
    // reconnects: a worker that outlives a crashed master keeps its compiled
    // state space for the resumed run.
    let mut cached: Option<(Vec<String>, CompiledModelSet)> = None;
    let mut redial = Backoff::for_endpoint(
        options.retry_delay.max(Duration::from_millis(1)),
        options.retry_delay.max(Duration::from_millis(1)) * 8,
        connect,
    );

    loop {
        let mut stream = match dial(connect, options, &mut summary.dial_retries) {
            Ok(stream) => stream,
            // A reconnecting worker that already served work and now cannot
            // find the master again has outlived the computation — that is a
            // clean end, not a failure.  The very first dial failing is still
            // an error either way.
            Err(e) if summary.reconnects > 0 => {
                let _ = e;
                return Ok(summary);
            }
            Err(e) => return Err(e),
        };

        match run_worker_session(&mut stream, options, &mut summary, &mut cached) {
            // Only an explicit outer `done` (or the fault-injection exit)
            // ends a reconnecting worker: every other link end could be a
            // master mid-restart.
            Ok(SessionEnd::Done) | Ok(SessionEnd::DroppedEarly) => return Ok(summary),
            Ok(SessionEnd::Released) => {
                if summary.reconnects >= options.reconnect_attempts {
                    summary.released_before_work = summary.jobs == 0;
                    return Ok(summary);
                }
            }
            Ok(SessionEnd::Lost(message)) => {
                if summary.reconnects >= options.reconnect_attempts {
                    return Err(message);
                }
            }
            // Protocol-level refusals (wire version skew, bad specs, unknown
            // frames) are never retried: redialling cannot fix them.
            Err(protocol) => return Err(protocol),
        }
        summary.reconnects += 1;
        std::thread::sleep(redial.next_delay());
    }
}

/// How one worker⇄master session ended, seen from the worker.
enum SessionEnd {
    /// The link closed cleanly (EOF) or went idle — a released worker, a
    /// finished one-shot master, or a `kill -9`'d master: indistinguishable
    /// at the socket, which is exactly why a reconnecting worker redials on
    /// this and exits only on [`SessionEnd::Done`].
    Released,
    /// The master said `done` at the outer level — an explicit farewell.
    Done,
    /// The worker dropped the link itself via
    /// [`TcpWorkerOptions::exit_after_chunks`].
    DroppedEarly,
    /// The link failed abruptly mid-work; the message is the error a
    /// non-reconnecting worker reports.
    Lost(String),
}

/// One connected session: handshake, then serve jobs until the link ends.
/// Protocol errors (the master speaking a different dialect) are `Err` and
/// never retried; every way the *link* can end is a [`SessionEnd`].
fn run_worker_session(
    stream: &mut TcpStream,
    options: &TcpWorkerOptions,
    summary: &mut TcpWorkerSummary,
    cached: &mut Option<(Vec<String>, CompiledModelSet)>,
) -> Result<SessionEnd, String> {
    if let Err(e) = write_frame(
        stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    ) {
        return Ok(SessionEnd::Lost(format!("handshake write failed: {e}")));
    }

    // Report a failure the master must hear about (it would otherwise wait on
    // a result that never comes), then fail the worker with the same message.
    fn fatal(stream: &mut TcpStream, message: String) -> String {
        let _ = write_frame(
            stream,
            &Frame::Fatal {
                message: message.clone(),
            },
        );
        // Half-close and drain: the master may already have a chunk frame in
        // flight, and closing a socket with unread data sends an RST that can
        // destroy the fatal frame before the master reads it.  Shut down the
        // write half (the master sees orderly EOF after the fatal) and sink
        // incoming data until the master closes or goes quiet.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut sink = [0u8; 1024];
        use std::io::Read;
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        message
    }

    loop {
        let job = match read_frame(stream) {
            Ok((job, _)) => job,
            // A link that closes while no job is in progress means the master
            // released this worker: either its queue drained without the
            // worker ever being assigned work (a warm run, or a faster peer
            // took everything), or a long-running master shut down after some
            // number of jobs.  Both are clean exits, not failures — exiting
            // non-zero here made `smpq worker` flaky whenever it lost the
            // race for the last chunk.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                return Ok(SessionEnd::Released);
            }
            // A read timeout *between* jobs is an idle release: the master is
            // merely quiet, but a worker cannot idle forever (that is what
            // `idle_timeout` bounds).  Only the very first job wait treats a
            // timeout as an error — a master that never sends any job within
            // the window is indistinguishable from a hung one.
            Err(e)
                if summary.jobs > 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(SessionEnd::Released);
            }
            Err(e) => return Ok(SessionEnd::Lost(format!("job read failed: {e}"))),
        };
        let (worker_id, method, spec_lines) = match job {
            Frame::Job {
                version,
                worker,
                method,
                specs,
            } if version == WIRE_VERSION => (worker, method, specs),
            Frame::Job { version, .. } => {
                return Err(format!(
                    "master speaks wire version {version}, this worker speaks {WIRE_VERSION}"
                ))
            }
            // A sharded session: this worker becomes one row slice of the
            // state space and serves lockstep SpMV rounds until the master's
            // `done`, then waits for the next assignment.  The chunk-level
            // fault-injection limit doubles as the slice-response limit, so
            // `smpq worker --exit-after` can kill a shard mid-run too.
            Frame::SliceJob { worker, .. } => {
                summary.worker_id = worker;
                match crate::shard::serve_slices(stream, &job, options.exit_after_chunks) {
                    Ok(sliced) => {
                        summary.jobs += 1;
                        summary.chunks += sliced.responses;
                        summary.evaluated += sliced.points;
                        if sliced.exited_early {
                            summary.dropped_early = true;
                            return Ok(SessionEnd::DroppedEarly);
                        }
                        continue;
                    }
                    // The master vanishing mid-session is how a one-shot
                    // sharded master releases its workers (and how a lost —
                    // or `kill -9`'d — master manifests): both are clean
                    // session ends here, and a reconnecting worker redials to
                    // offer itself to the resumed run.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::UnexpectedEof
                                | std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::ConnectionAborted
                                | std::io::ErrorKind::WouldBlock
                                | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(SessionEnd::Released);
                    }
                    Err(e) => return Ok(SessionEnd::Lost(format!("slice session failed: {e}"))),
                }
            }
            // An explicit outer-level `done` releases a resident worker — the
            // one link end a reconnecting worker does *not* retry.
            Frame::Done => return Ok(SessionEnd::Done),
            // Outer-level liveness probe (the query server's pool heartbeat).
            Frame::Ping { nonce } => {
                if let Err(e) = write_frame(stream, &Frame::Pong { nonce }) {
                    return Ok(SessionEnd::Lost(format!("heartbeat reply failed: {e}")));
                }
                continue;
            }
            other => return Err(format!("expected job frame, got {other:?}")),
        };
        summary.worker_id = worker_id;

        // The s-points arrive explicitly in chunks, but a method this build
        // does not know signals a master from a future protocol era — refuse
        // loudly rather than compute something subtly incompatible.
        if smp_laplace::InversionMethod::from_name(&method).is_none() {
            return Err(fatal(
                stream,
                format!("unknown inversion method '{method}'"),
            ));
        }

        // Rebuild the evaluators from bytes unless this job repeats the
        // previous one verbatim.  A compile failure is reported to the master
        // as a fatal frame so the run fails with a message, not a timeout.
        let needs_compile = match &cached {
            Some((lines, _)) => *lines != spec_lines,
            None => true,
        };
        if needs_compile {
            let specs: Result<Vec<TransformSpec>, _> = spec_lines
                .iter()
                .map(|l| TransformSpec::decode(l))
                .collect();
            let compiled = specs
                .map_err(|e| e.to_string())
                .and_then(|specs| CompiledModelSet::compile(&specs));
            match compiled {
                Ok(set) => *cached = Some((spec_lines, set)),
                Err(message) => {
                    return Err(format!("spec compile failed: {}", fatal(stream, message)))
                }
            }
        }
        let Some((_, compiled_set)) = &cached else {
            return Err("internal error: no compiled model set after compile".to_string());
        };
        let evaluators = match compiled_set.evaluators() {
            Ok(evaluators) => evaluators,
            Err(message) => {
                return Err(format!(
                    "evaluator construction failed: {}",
                    fatal(stream, message)
                ))
            }
        };

        // One job's chunk loop: evaluate until the master says `done`.
        loop {
            let (frame, _) = match read_frame(stream) {
                Ok(ok) => ok,
                Err(e) => return Ok(SessionEnd::Lost(format!("master connection lost: {e}"))),
            };
            match frame {
                Frame::Chunk { items } => {
                    let started = Instant::now();
                    let results: Vec<WorkItemOutcome> = items
                        .into_iter()
                        .map(|item| WorkItemOutcome {
                            outcome: match evaluators.get(item.measure) {
                                Some(evaluator) => evaluator.eval(item.s),
                                None => Err(format!(
                                    "work item references measure {} but the job has {}",
                                    item.measure,
                                    evaluators.len()
                                )),
                            },
                            item,
                        })
                        .collect();
                    let busy_nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    summary.evaluated += results.len();
                    summary.chunks += 1;
                    let reply = Frame::Result {
                        message: WorkerMessage {
                            worker: worker_id,
                            results,
                        },
                        busy_nanos,
                    };
                    if let Err(e) = write_frame(stream, &reply) {
                        return Ok(SessionEnd::Lost(format!("result write failed: {e}")));
                    }
                    if let Some(limit) = options.exit_after_chunks {
                        if summary.chunks >= limit {
                            // Fault injection: vanish without a farewell,
                            // exactly like a crashed slave processor.
                            summary.dropped_early = true;
                            return Ok(SessionEnd::DroppedEarly);
                        }
                    }
                }
                Frame::Done => break,
                Frame::Ping { nonce } => {
                    if let Err(e) = write_frame(stream, &Frame::Pong { nonce }) {
                        return Ok(SessionEnd::Lost(format!("heartbeat reply failed: {e}")));
                    }
                }
                other => return Err(format!("unexpected frame from master: {other:?}")),
            }
        }
        summary.jobs += 1;
    }
}

/// Dials the master with deterministic-jitter exponential backoff (seeded by
/// the endpoint string, so the schedule replays run over run and distinct
/// endpoints de-synchronize).  `retries` counts failed attempts that were
/// retried.
fn dial(connect: &str, options: &TcpWorkerOptions, retries: &mut u64) -> Result<TcpStream, String> {
    let attempts = options.connect_attempts.max(1);
    let base = options.retry_delay.max(Duration::from_millis(1));
    let mut backoff = Backoff::for_endpoint(base, base * 8, connect);
    let mut last_error = String::new();
    for attempt in 0..attempts {
        match TcpStream::connect(connect) {
            Ok(stream) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("set_nodelay failed: {e}"))?;
                stream
                    .set_read_timeout(options.idle_timeout)
                    .map_err(|e| format!("set_read_timeout failed: {e}"))?;
                return Ok(stream);
            }
            Err(e) => {
                last_error = e.to_string();
                if attempt + 1 < attempts {
                    *retries += 1;
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }
    Err(format!(
        "could not connect to master at {connect} after {attempts} attempt(s): {last_error}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{DistSpec, ModelSpec, TargetSpec};
    use smp_distributions::Dist;

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

    #[test]
    fn in_process_closure_plan_evaluates_everything() {
        let points: Vec<Complex64> = (1..=9).map(|k| Complex64::new(k as f64, 0.5)).collect();
        let square = |s: Complex64| -> Result<Complex64, String> { Ok(s * s) };
        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Closure(&square)],
            items: items_for(&points, 0),
            chunk_size: 2,
            method: "euler".to_string(),
        };
        let transport = InProcess::new(3);
        assert_eq!(transport.name(), "in-process");
        let (outcomes, report) = collect(&transport, plan);
        assert_eq!(outcomes.len(), 9);
        for outcome in &outcomes {
            assert_eq!(
                outcome.outcome.clone().unwrap(),
                outcome.item.s * outcome.item.s
            );
        }
        assert_eq!(report.bytes_on_wire, 0, "shared memory ships no bytes");
        assert_eq!(report.disconnects, 0);
        let evaluated: usize = report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(evaluated, 9);
        assert_eq!(
            report.messages,
            report
                .worker_stats
                .iter()
                .map(|w| w.messages)
                .sum::<usize>()
        );
    }

    #[test]
    fn in_process_spec_plan_matches_the_analytic_transform() {
        let spec = TransformSpec::Analytic(DistSpec::Erlang {
            rate: 2.0,
            phases: 3,
        });
        let points: Vec<Complex64> = (1..=5)
            .map(|k| Complex64::new(0.3 * k as f64, 1.0))
            .collect();
        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&spec)],
            items: items_for(&points, 0),
            chunk_size: 3,
            method: "euler".to_string(),
        };
        let (outcomes, _) = collect(&InProcess::new(2), plan);
        let d = Dist::erlang(2.0, 3);
        for outcome in outcomes {
            assert_eq!(outcome.outcome.unwrap(), d.lst(outcome.item.s));
        }
    }

    #[test]
    fn tcp_transport_rejects_closure_plans() {
        let transport = TcpTransport::bind(&["127.0.0.1:0"]).unwrap();
        let f = |s: Complex64| -> Result<Complex64, String> { Ok(s) };
        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Closure(&f)],
            items: Vec::new(),
            chunk_size: 1,
            method: "euler".to_string(),
        };
        let error = transport.execute(plan, &mut |_| {}).unwrap_err();
        assert!(error.to_string().contains("process boundary"), "{error}");
    }

    #[test]
    fn tcp_round_trip_with_in_process_worker_threads() {
        // A miniature cluster inside one test: the master side binds two
        // listeners, two "processes" (threads running the real worker loop)
        // dial in, and the whole frame protocol runs over real sockets.
        let spec = TransformSpec::Analytic(DistSpec::Exponential { rate: 1.5 });
        let points: Vec<Complex64> = (1..=20)
            .map(|k| Complex64::new(0.2 * k as f64, -1.0))
            .collect();
        let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        assert_eq!(transport.name(), "tcp");
        assert_eq!(transport.num_workers(), 2);
        let addrs = transport.local_addrs();

        let workers: Vec<std::thread::JoinHandle<Result<TcpWorkerSummary, String>>> = addrs
            .iter()
            .map(|addr| {
                let connect = addr.to_string();
                std::thread::spawn(move || run_tcp_worker(&connect, &TcpWorkerOptions::default()))
            })
            .collect();

        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&spec)],
            items: items_for(&points, 0),
            chunk_size: 4,
            method: "euler".to_string(),
        };
        let (outcomes, report) = collect(&transport, plan);
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

        let mut total = 0;
        for handle in workers {
            let summary = handle.join().unwrap().unwrap();
            assert!(!summary.dropped_early);
            total += summary.evaluated;
        }
        assert_eq!(total, 20);
    }

    fn sharded_spec_and_points() -> (TransformSpec, Vec<Complex64>, Vec<Complex64>) {
        let spec = TransformSpec::passage(
            crate::transform::ModelSpec::Voting {
                voters: 3,
                polling: 1,
                central: 1,
            },
            smp_core::query::TargetSpec::parse("p2>=2").unwrap(),
        );
        let points = vec![
            Complex64::new(0.9, 0.0),
            Complex64::new(0.4, 1.3),
            Complex64::new(1.7, -0.8),
        ];
        let set = CompiledModelSet::compile(std::slice::from_ref(&spec)).unwrap();
        let evaluator = set.evaluator(0).unwrap();
        let expected = points.iter().map(|&s| evaluator.eval(s).unwrap()).collect();
        (spec, points, expected)
    }

    #[test]
    fn sharded_tcp_session_matches_the_local_evaluator_bitwise() {
        // Three real worker loops over real sockets, each holding one row
        // slice; the master folds their lockstep SpMV rounds.
        let (spec, points, expected) = sharded_spec_and_points();
        let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let addrs = transport.local_addrs();
        let workers: Vec<std::thread::JoinHandle<Result<TcpWorkerSummary, String>>> = addrs
            .iter()
            .map(|addr| {
                let connect = addr.to_string();
                std::thread::spawn(move || run_tcp_worker(&connect, &TcpWorkerOptions::default()))
            })
            .collect();

        let (channels, messages, bytes) = transport.accept_slice_channels().unwrap();
        assert_eq!(messages, 3, "one hello per worker");
        assert!(bytes > 0);
        let mut fleet = crate::shard::SliceFleet::from_channels(channels);
        let out = fleet.solve(&spec, &points).unwrap();
        assert_eq!(out.values, expected, "bit-exact through the wire");
        assert_eq!(out.disconnects, 0);
        assert_eq!(out.shard_states.len(), 3);
        assert_eq!(out.shard_states.iter().sum::<usize>(), out.num_states);
        assert!(out.halo_bytes > 0, "boundary exchange shipped real bytes");
        fleet.release();

        for handle in workers {
            let summary = handle.join().unwrap().unwrap();
            assert_eq!(summary.jobs, 1, "one slice session served");
            assert_eq!(summary.evaluated, points.len(), "every point refilled");
            assert!(!summary.dropped_early);
        }
    }

    #[test]
    fn sharded_tcp_worker_kill_is_resharded_onto_survivors() {
        let (spec, points, expected) = sharded_spec_and_points();
        let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let addrs = transport.local_addrs();

        // Worker 1 vanishes mid-point after five slice responses; the master
        // re-shards the session across the two survivors and redoes the
        // in-flight point — the values cannot tell the difference because
        // the block boundaries are a pure function of N and the shard count.
        let flaky_addr = addrs[1].to_string();
        let flaky = std::thread::spawn(move || {
            run_tcp_worker(
                &flaky_addr,
                &TcpWorkerOptions {
                    exit_after_chunks: Some(5),
                    ..Default::default()
                },
            )
        });
        let steady: Vec<std::thread::JoinHandle<Result<TcpWorkerSummary, String>>> =
            [&addrs[0], &addrs[2]]
                .iter()
                .map(|addr| {
                    let connect = addr.to_string();
                    std::thread::spawn(move || {
                        run_tcp_worker(&connect, &TcpWorkerOptions::default())
                    })
                })
                .collect();

        let (channels, _, _) = transport.accept_slice_channels().unwrap();
        let mut fleet = crate::shard::SliceFleet::from_channels(channels);
        let out = fleet.solve(&spec, &points).unwrap();
        assert_eq!(out.values, expected, "requeue preserves bitwise identity");
        assert_eq!(out.disconnects, 1);
        assert_eq!(fleet.shards(), 2);
        assert_eq!(out.shard_states.len(), 2, "memory model tracks survivors");
        fleet.release();

        let flaky_summary = flaky.join().unwrap().unwrap();
        assert!(flaky_summary.dropped_early);
        for handle in steady {
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn worker_disconnect_requeues_its_outstanding_chunk() {
        let spec = TransformSpec::Analytic(DistSpec::Exponential { rate: 1.0 });
        let points: Vec<Complex64> = (1..=12)
            .map(|k| Complex64::new(0.5 * k as f64, 1.0))
            .collect();
        let transport = TcpTransport::bind(&["127.0.0.1:0", "127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let addrs = transport.local_addrs();

        // Worker 0 vanishes after a single chunk; worker 1 is healthy.
        let flaky_addr = addrs[0].to_string();
        let flaky = std::thread::spawn(move || {
            run_tcp_worker(
                &flaky_addr,
                &TcpWorkerOptions {
                    exit_after_chunks: Some(1),
                    ..Default::default()
                },
            )
        });
        let healthy_addr = addrs[1].to_string();
        let healthy =
            std::thread::spawn(move || run_tcp_worker(&healthy_addr, &TcpWorkerOptions::default()));

        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&spec)],
            items: items_for(&points, 0),
            chunk_size: 2,
            method: "euler".to_string(),
        };
        let (outcomes, report) = collect(&transport, plan);
        // Every point was evaluated exactly once despite the disconnect…
        assert_eq!(outcomes.len(), 12);
        let d = Dist::exponential(1.0);
        for outcome in &outcomes {
            assert_eq!(outcome.outcome.clone().unwrap(), d.lst(outcome.item.s));
        }
        // …and the report records the casualty.
        assert_eq!(report.disconnects, 1);
        let flaky_summary = flaky.join().unwrap().unwrap();
        assert!(flaky_summary.dropped_early);
        assert_eq!(flaky_summary.chunks, 1);
        healthy.join().unwrap().unwrap();
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
        let transport = TcpTransport::bind(&["127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_secs(10));
        let addr = transport.local_addrs()[0].to_string();
        let worker =
            std::thread::spawn(move || run_tcp_worker(&addr, &TcpWorkerOptions::default()));

        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&bad)],
            items: items_for(&[Complex64::ONE], 0),
            chunk_size: 1,
            method: "euler".to_string(),
        };
        let error = transport.execute(plan, &mut |_| {}).unwrap_err();
        assert!(error.to_string().contains("nosuchplace"), "{error}");
        let summary = worker.join().unwrap();
        assert!(summary.unwrap_err().contains("nosuchplace"));
    }

    #[test]
    fn silent_connected_worker_times_out_instead_of_hanging_the_run() {
        // A client that dials the rendezvous port and never speaks (a port
        // scanner, a SIGSTOPped worker) must not hang execute() forever: the
        // per-read io timeout declares it lost and the run fails cleanly.
        let spec = TransformSpec::Analytic(DistSpec::Exponential { rate: 1.0 });
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
        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&spec)],
            items: items_for(&[Complex64::ONE], 0),
            chunk_size: 1,
            method: "euler".to_string(),
        };
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
        let spec = TransformSpec::Analytic(DistSpec::Exponential { rate: 1.0 });
        let transport = TcpTransport::bind(&["127.0.0.1:0"])
            .unwrap()
            .with_accept_timeout(Duration::from_millis(100));
        let plan = ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&spec)],
            items: items_for(&[Complex64::ONE], 0),
            chunk_size: 1,
            method: "euler".to_string(),
        };
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
        assert_eq!(plan.ops_seen(), 8);
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
        assert_eq!(a.attempts(), 10);
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
        let spec = TransformSpec::Analytic(DistSpec::Erlang {
            rate: 1.25,
            phases: 4,
        });
        let points: Vec<Complex64> = (1..=12)
            .map(|k| Complex64::new(0.15 * k as f64, 0.4 * k as f64 - 2.0))
            .collect();
        let make_plan = || ExecutionPlan {
            evaluators: vec![Evaluator::Spec(&spec)],
            items: items_for(&points, 0),
            chunk_size: 2,
            method: "euler".to_string(),
        };
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
            let faulty = FaultyTransport::new(InProcess::new(2), plan);
            assert_eq!(faulty.name(), "faulty");
            assert!(faulty.reusable());
            let (outcomes, report) = collect(&faulty, make_plan());
            assert_eq!(outcomes.len(), clean.len());
            for (got, want) in outcomes.iter().zip(&clean) {
                assert_eq!(got.item, want.item);
                let (got_v, want_v) = (got.outcome.clone().unwrap(), want.outcome.clone().unwrap());
                assert_eq!(got_v.re.to_bits(), want_v.re.to_bits());
                assert_eq!(got_v.im.to_bits(), want_v.im.to_bits());
            }
            assert!(
                report.recovered_faults > 0,
                "every schedule here injects at least one fault"
            );
            assert!(report.retries > 0, "recovery re-executes items");
        }
    }

    #[test]
    fn faulty_stream_corruption_is_refused_by_the_frame_reader() {
        // Three frames through a FaultyStream into a buffer: op 0 passes,
        // op 1 is corrupted, op 2 dropped.  The reader must accept the first,
        // refuse the second, and see clean EOF instead of the third.
        let plan = FaultPlan::scripted([
            (1, FaultKind::CorruptByte { xor: 0x08 }),
            (2, FaultKind::DropFrame),
        ]);
        let mut stream = FaultyStream::new(Vec::<u8>::new(), plan);
        for nonce in 0..3u64 {
            write_frame(&mut stream, &Frame::Ping { nonce }).unwrap();
        }
        assert_eq!(stream.injected(), 2);
        let bytes = stream.into_inner();
        let mut cursor = std::io::Cursor::new(bytes);
        let (first, _) = read_frame(&mut cursor).unwrap();
        assert_eq!(first, Frame::Ping { nonce: 0 });
        let refusal = read_frame(&mut cursor).unwrap_err();
        assert!(
            crate::wire::wire_error_of(&refusal).is_some()
                || refusal.kind() == std::io::ErrorKind::InvalidData,
            "corruption must surface as a typed refusal, got {refusal:?}"
        );
        // The dropped frame shipped no bytes: nothing further to read.
        let rest = {
            use std::io::Read;
            let mut sink = Vec::new();
            let position = cursor.position() as usize;
            cursor.read_to_end(&mut sink).unwrap();
            let _ = position;
            sink
        };
        // After the corrupted frame's bytes there is nothing: the reader
        // consumed up to the corrupt payload, and the dropped frame vanished.
        assert!(rest.len() < crate::wire::FRAME_HEADER_BYTES as usize + 2);

        // A disconnect kills the stream for good.
        let plan = FaultPlan::scripted([(0, FaultKind::Disconnect)]);
        let mut dead = FaultyStream::new(Vec::<u8>::new(), plan);
        let error = write_frame(&mut dead, &Frame::Ping { nonce: 9 }).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::ConnectionAborted);
        let error = write_frame(&mut dead, &Frame::Ping { nonce: 10 }).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::ConnectionAborted);
    }

    #[test]
    fn a_restarted_master_rebinds_its_port_through_time_wait() {
        // After a master dies mid-session, the kernel parks its half of each
        // accepted connection in TIME_WAIT on the *listener's* port for up to
        // a minute.  A restarted master must re-bind that exact advertised
        // port immediately — workers are redialing it — which only works when
        // both generations of the listener set SO_REUSEADDR before bind.
        //
        // Reproduce the state in-process: accept a connection, then close the
        // master side *first* (active close → our port owns the TIME_WAIT
        // entry), then re-bind the same port.
        let listener = bind_reusable_to("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let accepted = listener.accept().unwrap().0;
        drop(accepted); // master sends FIN first: TIME_WAIT lands on addr
        let mut sink = Vec::new();
        let mut client = client;
        std::io::Read::read_to_end(&mut client, &mut sink).unwrap(); // EOF
        drop(client);
        drop(listener);
        let reborn = bind_reusable_to(addr)
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
        let worker = std::thread::spawn(move || {
            run_tcp_worker(
                &addr.to_string(),
                &TcpWorkerOptions {
                    connect_attempts: 40,
                    retry_delay: Duration::from_millis(10),
                    idle_timeout: Some(Duration::from_secs(5)),
                    exit_after_chunks: None,
                    reconnect_attempts: 5,
                },
            )
        });
        // Session 1: accept the hello, then vanish without a farewell —
        // exactly what a kill -9'd master looks like from the worker.
        {
            let mut conn = listener.accept().unwrap().0;
            let (hello, _) = read_frame(&mut conn).unwrap();
            assert_eq!(
                hello,
                Frame::Hello {
                    version: WIRE_VERSION
                }
            );
            // conn drops here: EOF at the worker.
        }
        // Session 2: the worker redials.  Probe it with a heartbeat, then
        // release it with the explicit outer farewell.
        {
            let mut conn = listener.accept().unwrap().0;
            let (hello, _) = read_frame(&mut conn).unwrap();
            assert_eq!(
                hello,
                Frame::Hello {
                    version: WIRE_VERSION
                }
            );
            write_frame(&mut conn, &Frame::Ping { nonce: 77 }).unwrap();
            let (pong, _) = read_frame(&mut conn).unwrap();
            assert_eq!(pong, Frame::Pong { nonce: 77 });
            write_frame(&mut conn, &Frame::Done).unwrap();
        }
        let summary = worker.join().unwrap().unwrap();
        assert_eq!(summary.reconnects, 1, "one redial after the crash");
        assert_eq!(summary.jobs, 0);
    }
}
