//! # smp-pipeline
//!
//! The distributed master–worker analysis pipeline of Section 4 of the paper.
//!
//! The paper's architecture: the master computes in advance the `s`-values at which
//! the passage-time transform must be known, places them in a **global work queue**,
//! and slave processors repeatedly request the next available `s`-value, build the
//! matrices `U` and `U'`, run the iterative algorithm to convergence and return the
//! transform value.  Results are cached in memory **and on disk** (checkpointing);
//! once every value has arrived, the master performs the final Laplace inversion.
//! Because no inter-slave communication is needed, the pipeline scales almost
//! linearly (Table 2).
//!
//! ## Transports
//!
//! The original tool ran on a cluster of PCs over 100 Mbps Ethernet via a
//! master–slave message-passing harness.  That layer is abstracted behind the
//! [`transport::Transport`] trait, so one planning/caching/checkpointing core
//! — the only solve path, entered through [`DistributedEngine`]'s
//! `Engine::solve` — drives interchangeable backends:
//!
//! * [`transport::InProcess`] (default) — worker threads stand in for slave
//!   processors, a shared lock-protected queue is the global work queue;
//! * [`transport::TcpTransport`] — real worker **processes** over
//!   length-prefixed frames on TCP sockets (`smpq worker --connect`), which
//!   rebuild their evaluators from serializable [`transform::TransformSpec`]s
//!   and survive mid-run disconnects by requeueing outstanding chunks;
//! * `ShardedTransport` ([`shard`]) — row-sharded evaluation: every point
//!   runs as lockstep sparse products over slice workers (loopback or TCP)
//!   that each hold one row block of the model.
//!
//! The query server's standing worker pool is a [`transport::TcpTransport`]
//! too: every request's solve runs on its resident seats.
//!
//! Every backend with a worker at the far end of a wire reaches it through
//! one type, the [`link::Link`] — a framed, checksummed, handshaken duplex
//! with TCP, in-memory loopback and fault-injecting implementations.  A
//! worker process runs one frame loop over the far end of it; a loopback
//! shard runs that loop's slice step inline, one call per frame.
//!
//! The scheduling, caching, checkpointing and convergence code paths are
//! identical across backends — a TCP or sharded run inverts from
//! bit-identical transform values.  Every measure's transform is a
//! [`TransformSpec`], which each backend rebuilds into an evaluator on its
//! side of the wire (see the workspace `README.md` for the two-terminal
//! walkthrough).
//!
//! ## One run per solve
//!
//! The paper amortises transform evaluations across many time points and
//! measures, caching values "both within and across successive queries".  A
//! solve's requests with a fixed plan — densities, CDFs via the `/s` trick,
//! transients over shared or distinct time grids, moments over their
//! finite-difference stencil — are therefore one run, with per-transform
//! union planning, a measure-keyed cache/checkpoint, and chunked work
//! dispatch so channel and lock traffic is one round-trip per *chunk*, not
//! per point; a quantile search is one run per grid it asks for.
//!
//! * [`work`] — the global chunked `s`-point work queue;
//! * [`batch`] — the measure kinds: each one's `s`-point plan and how its
//!   values are read off the transform;
//! * `transform` — serializable evaluator descriptions ([`TransformSpec`])
//!   and their reconstruction into solvers on a worker;
//! * [`transport`] — the pluggable master⇄worker backends and the one
//!   chunk-dispatch loop they share;
//! * `link` — the one framed duplex between the master and a worker, and
//!   the single fault-injection point;
//! * `fault` — the deterministic fault schedule and retry backoff;
//! * [`wire`] — the shared field/frame encoding: TCP frames, query payloads,
//!   transform specs and checkpoint records are one field grammar with one
//!   reader;
//! * [`cache`] — the measure-keyed in-memory result cache shared between
//!   workers and master;
//! * [`checkpoint`] — append-only on-disk checkpoint files of measure-tagged
//!   records, the mid-point shard snapshot sidecar, and their recovery;
//! * [`worker`] — the slave loops: pull a chunk, evaluate, push one result
//!   message — from the shared queue (threads) or off a link (processes and
//!   loopback shards);
//! * `master` — the orchestrating run: planning, dedupe, dispatch,
//!   checkpointing and inversion;
//! * [`shard`] — row-sharded distributed SpMV sessions: each worker holds
//!   one contiguous `O(N/shards)` row block of the state space and the
//!   Laplace-domain iteration runs as lockstep sparse products with a
//!   per-round boundary (halo) exchange — bitwise identical to the
//!   single-machine solve for any worker count — and the transport that
//!   puts those sessions behind the pipeline;
//! * [`server`] — the always-on query daemon behind `smpq serve`: the
//!   request/reply protocol, fingerprint-keyed caches, admission control
//!   and the TCP pool's heartbeat;
//! * `client` — the matching client side (`smpq query` / `smpq shutdown`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod checkpoint;
mod client;
mod engine;
mod fault;
mod link;
mod master;
#[cfg(test)]
#[path = "../tests/one_stage/mod.rs"]
mod one_stage;
pub mod server;
pub mod shard;
pub mod transform;
pub mod transport;
pub mod wire;
pub mod work;
pub mod worker;

pub use batch::MeasureKind;
pub use client::{query_with_retry, QueryClient, QueryError, RetryPolicy};
pub use engine::{
    available_cores, build_engine, route, uniformization_applies, AnalyticEngine,
    DistributedEngine, SimulationEngine, SimulationOptions, UniformizationEngine,
};
pub use fault::{FaultKind, FaultPlan};
pub use link::{FaultyLink, Link, LoopbackLink, TcpLink};
pub use master::{PipelineError, PipelineOptions};
pub use server::{
    resolve_request, EngineChoice, QueryReply, QueryRequest, QueryServer, QueryServerOptions,
    Refusal, RefusalKind,
};
pub use shard::{SliceFleet, SolveRecovery};
pub use transform::{
    CompareOp, CompiledModelSet, ModelCache, ModelSpec, ResolveTarget, TargetSpec, TransformSpec,
};
pub use transport::{build_transport, InProcess, PoolSpec, TcpTransport};
pub use worker::{run_tcp_worker, TcpWorkerOptions};

/// A lock's guard (or a condvar wait's result) whether or not an earlier
/// holder panicked: every lock in this crate guards a queue, cache, seat
/// table or counter that is whole between statements, so one panicking
/// request or worker thread leaves the server usable.
pub(crate) fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
