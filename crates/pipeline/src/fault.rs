//! The deterministic fault schedule and retry backoff.
//!
//! Everything here is a pure function of a seed and a counter — no clock, no
//! OS entropy (`smp-lint` D003 patrols this file) — so a failure schedule or
//! a retry schedule replays bit-for-bit on every run.  Faults are *injected*
//! in exactly one place, [`crate::link::FaultyLink`]; this module only
//! decides which operation misbehaves and how.

use std::time::Duration;

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

    /// Caps the total faults the plan will inject; ops past the budget pass
    /// untouched.  A chaos schedule over an `n`-shard fleet needs a budget
    /// `< n` to be survivable by construction — each injected fault can cost
    /// at most one worker.
    pub fn with_budget(mut self, budget: u64) -> FaultPlan {
        self.budget = Some(budget);
        self
    }

    /// Decides the fault for the next operation and advances the op counter.
    pub(crate) fn next_op(&mut self) -> FaultKind {
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

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

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
    pub(crate) fn for_endpoint(base: Duration, max: Duration, endpoint: &str) -> Backoff {
        Backoff::new(
            base,
            max,
            crate::wire::frame_checksum(endpoint.len() as u32, endpoint.as_bytes()),
        )
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub(crate) fn next_delay(&mut self) -> Duration {
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
}
