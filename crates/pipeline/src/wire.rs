//! Stable wire encoding shared by the checkpoint format and the TCP transport.
//!
//! The original tool shipped `s`-point requests and transform values between
//! the master and its slave processors as messages over the cluster's
//! message-passing layer.  This module is that layer's encoding: a small,
//! versioned, text-based format with two primitives —
//!
//! * **strings** are percent-encoded into a single whitespace-free field
//!   (exactly the encoding the measure-tagged checkpoint records use for their
//!   transform keys), and
//! * **floats** are written as the 16-hex-digit big-endian bit pattern of the
//!   `f64` (exactly the encoding checkpoint records use for `s` and `L(s)`),
//!   so a value survives the master⇄worker round trip *bit for bit* and a
//!   TCP-backed run inverts from identical inputs to an in-process run.
//!
//! On top of the field primitives sit the protocol [`Frame`]s exchanged over a
//! transport connection (see [`crate::transport`]) and the serialization of
//! [`WorkItem`], [`WorkItemOutcome`] and [`WorkerMessage`].  Frames on a socket
//! carry a 12-byte header — a `u32` big-endian byte count followed by a `u64`
//! big-endian FNV-1a checksum over (length bytes ‖ payload) — then that many
//! bytes of UTF-8 payload, so the stream needs no sentinel characters,
//! payloads may contain newlines, and a flipped bit anywhere in the frame is a
//! typed [`WireError::Corrupt`] refusal instead of a silent protocol desync.
//! A corrupted length prefix is caught twice: above the size cap it is a typed
//! [`WireError::Oversize`] refusal *before any allocation*, below it the
//! checksum (which covers the length bytes themselves) no longer matches.
//!
//! Numbers that are *quantities* (an `s`-point, a transform value's components)
//! are rejected when non-finite: a NaN or infinity entering the cache or the
//! checkpoint would silently poison every inversion that touches it, so the
//! encoder turns such outcomes into errors at the boundary instead.
//!
//! ## The field grammar
//!
//! Every text payload in the crate — frames, query requests and replies
//! (`crate::server`), transform specs (`crate::transform`), checkpoint
//! records and the `.shard` sidecar (`crate::checkpoint`) — is one grammar,
//! and one crate-private cursor (`Fields`) is its only reader:
//!
//! * a payload is lines; the first is a **header** of whitespace-separated
//!   tokens in a fixed order: a tag, then `key=value` and bare fields;
//! * a **typed key** (`n=3`, `v=1`) parses into the field's own integer type:
//!   a value out of that type's range is malformed, never narrowed with `as`;
//! * strings are percent-encoded and floats are 16-hex-digit bit patterns, as
//!   above;
//! * a **counted list** (`n=3` then three tokens, or three body lines) grows
//!   by pushing: a wire count never sizes a reservation and never enters
//!   arithmetic, so a count the payload does not carry fails when the
//!   payload runs out;
//! * **trailing** tokens after a line's last field, and trailing lines after
//!   a payload's last one, are refused.

use crate::work::WorkItem;
use crate::worker::{WorkItemOutcome, WorkerMessage};
use smp_numeric::Complex64;
use std::io::{Read, Write};
use std::str::{FromStr, Lines, Split, SplitWhitespace};

/// Protocol version spoken by this build (first field of `hello`/`job`
/// frames).  Version 2 added the checksummed 12-byte frame header and the
/// fault-tolerance frames (`ping`/`pong` heartbeats, `termreq`/`term`
/// iterate snapshots, `restore` mid-point resume).  Version 3 dropped the
/// refill-verdict flag from `sstate`: slices solve exact-zero kernel entries
/// themselves, so there is no per-point verdict to ship.
pub const WIRE_VERSION: u32 = 3;

/// An encoding or decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A float field was NaN or infinite where a finite quantity is required.
    NonFinite {
        /// Which field was non-finite.
        field: &'static str,
    },
    /// The payload could not be parsed.
    Malformed {
        /// What went wrong.
        message: String,
    },
    /// The peer speaks an incompatible protocol version.
    Version {
        /// The version the peer announced.
        got: u32,
    },
    /// The frame header announced a payload above the size cap.  Raised
    /// *before* any allocation: a corrupted length prefix must not drive an
    /// unbounded `Vec` reservation.
    Oversize {
        /// The announced payload length.
        len: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// The frame payload did not match its header checksum: bytes were
    /// flipped in transit (or injected by the fault layer).  The connection
    /// is no longer trustworthy — the reader refuses the frame instead of
    /// decoding garbage or desyncing on a wrong length.
    Corrupt {
        /// The checksum the header announced.
        expected: u64,
        /// The checksum of the bytes actually received.
        got: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::NonFinite { field } => {
                write!(f, "non-finite value in wire field '{field}'")
            }
            WireError::Malformed { message } => write!(f, "malformed wire payload: {message}"),
            WireError::Version { got } => {
                write!(
                    f,
                    "peer speaks wire version {got}, this build speaks {WIRE_VERSION}"
                )
            }
            WireError::Oversize { len, cap } => {
                write!(f, "frame length {len} exceeds the {cap}-byte cap")
            }
            WireError::Corrupt { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header says {expected:016x}, \
                     payload hashes to {got:016x} (bytes corrupted in transit)"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The one constructor of [`WireError::Malformed`] in the crate.
pub(crate) fn malformed(message: impl Into<String>) -> WireError {
    WireError::Malformed {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Field primitives
// ---------------------------------------------------------------------------

/// Percent-encodes a string into one whitespace-free field (alphanumerics and
/// `-_.:+/` pass through unchanged).  Shared with the checkpoint format's
/// measure-tagged records.
pub fn encode_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b':' | b'+' | b'/' => {
                out.push(byte as char)
            }
            _ => out.push_str(&format!("%{byte:02x}")),
        }
    }
    out
}

/// Inverse of [`encode_str`].  Returns `None` for malformed escapes or invalid
/// UTF-8.
pub fn decode_str(field: &str) -> Option<String> {
    let bytes = field.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Encodes an `f64` as its 16-hex-digit bit pattern (bit-exact; shared with
/// the checkpoint format).  Accepts any value, including NaN — use
/// [`encode_finite_f64`] for quantity fields.
pub fn encode_f64(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Encodes a *quantity* `f64`, rejecting NaN and infinities.
pub fn encode_finite_f64(value: f64, field: &'static str) -> Result<String, WireError> {
    if !value.is_finite() {
        return Err(WireError::NonFinite { field });
    }
    Ok(encode_f64(value))
}

/// Decodes a 16-hex-digit `f64` field (any bit pattern).
pub fn decode_f64(field: &str) -> Option<f64> {
    if field.len() != 16 {
        return None; // a short field is a record truncated mid-write
    }
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
}

/// Decodes a *quantity* `f64` field, rejecting NaN and infinities.
pub fn decode_finite_f64(field: &str, name: &'static str) -> Result<f64, WireError> {
    let value =
        decode_f64(field).ok_or_else(|| malformed(format!("bad f64 field '{name}': {field}")))?;
    if !value.is_finite() {
        return Err(WireError::NonFinite { field: name });
    }
    Ok(value)
}

/// Encodes a complex quantity as two finite-`f64` fields.
pub fn encode_complex(value: Complex64, field: &'static str) -> Result<String, WireError> {
    Ok(format!(
        "{} {}",
        encode_finite_f64(value.re, field)?,
        encode_finite_f64(value.im, field)?
    ))
}

/// A field that must parse into `T` (an integer type, for every count and
/// id on the wire): a value out of `T`'s range is malformed, never narrowed.
pub(crate) fn number<T: FromStr>(token: &str, what: &str) -> Result<T, WireError> {
    token.parse().map_err(|_| {
        let ty = std::any::type_name::<T>();
        malformed(format!("field '{what}' is not a {ty}: '{token}'"))
    })
}

/// A percent-encoded string field (see [`encode_str`]).
pub(crate) fn text(token: &str, what: &str) -> Result<String, WireError> {
    decode_str(token).ok_or_else(|| {
        malformed(format!(
            "field '{what}' is not an encoded string: '{token}'"
        ))
    })
}

/// A bit-exact `f64` field, any bit pattern (see [`decode_f64`]).
pub(crate) fn bits(token: &str, what: &str) -> Result<f64, WireError> {
    decode_f64(token).ok_or_else(|| {
        malformed(format!(
            "field '{what}' is not a 16-hex-digit f64: '{token}'"
        ))
    })
}

// ---------------------------------------------------------------------------
// The field cursor
// ---------------------------------------------------------------------------

/// A cursor over the fields of one payload: the tokens of a [`Line`], the
/// lines of a [`Body`], or the parts of one field split on a separator.
/// Every decoder in the crate reads through it, so the grammar in the module
/// docs is enforced in one place.  Decoders read fields in wire order; a
/// struct literal written in that order is the decoder, because Rust
/// evaluates its fields in the order they are written.
pub(crate) struct Fields<I> {
    tokens: I,
}

/// A cursor over the whitespace-separated tokens of one line.
pub(crate) type Line<'a> = Fields<SplitWhitespace<'a>>;

/// A cursor over the lines of a payload, each read whole by [`Body::line`].
pub(crate) type Body<'a> = Fields<Lines<'a>>;

impl<'a> Line<'a> {
    /// A cursor over `line`'s tokens.
    pub(crate) fn new(line: &'a str) -> Self {
        Fields {
            tokens: line.split_whitespace(),
        }
    }
}

impl<'a> Fields<Split<'a, char>> {
    /// A cursor over the parts of one field (`voting:3,1,1`'s counts, a
    /// distribution's parameters).
    pub(crate) fn split(field: &'a str, separator: char) -> Self {
        Fields {
            tokens: field.split(separator),
        }
    }
}

impl<'a> Body<'a> {
    /// Reads a payload: `read` gets its header line and the body lines after
    /// it, and neither may have anything left over.
    pub(crate) fn payload<T>(
        payload: &'a str,
        read: impl FnOnce(&mut Line<'a>, &mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let body = Fields {
            tokens: payload.lines(),
        };
        body.all(|body| {
            let header = body.token("header line")?;
            Line::new(header).all(|head| read(head, body))
        })
    }

    /// Reads the next line whole.
    pub(crate) fn line<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Line<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        Line::new(self.token(what)?).all(read)
    }
}

impl<'a, I: Iterator<Item = &'a str>> Fields<I> {
    /// Runs `read` over the cursor and refuses whatever it leaves.
    pub(crate) fn all<T>(
        mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let value = read(&mut self)?;
        match self.tokens.next() {
            None => Ok(value),
            Some(_) => Err(malformed("trailing data after the last field")),
        }
    }

    /// The next field, raw.
    pub(crate) fn token(&mut self, what: &str) -> Result<&'a str, WireError> {
        self.tokens
            .next()
            .ok_or_else(|| malformed(format!("payload ends before its {what}")))
    }

    /// The next field, which must be `expected`.
    pub(crate) fn tag(&mut self, expected: &str) -> Result<(), WireError> {
        match self.token(expected)? {
            token if token == expected => Ok(()),
            other => Err(malformed(format!("expected '{expected}', got '{other}'"))),
        }
    }

    /// The value of the next field, which must be `key=value`.
    pub(crate) fn value(&mut self, key: &str) -> Result<&'a str, WireError> {
        let token = self.token(key)?;
        token
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| malformed(format!("expected '{key}=...', got '{token}'")))
    }

    /// A typed `key=value` field (see [`number`]).
    pub(crate) fn key<T: FromStr>(&mut self, key: &str) -> Result<T, WireError> {
        number(self.value(key)?, key)
    }

    /// A percent-encoded `key=value` field.
    pub(crate) fn text(&mut self, key: &str) -> Result<String, WireError> {
        text(self.value(key)?, key)
    }

    /// A `v=N` field that must announce version `expected`.
    pub(crate) fn version(&mut self, expected: u32) -> Result<(), WireError> {
        match self.key("v")? {
            got if got == expected => Ok(()),
            got => Err(WireError::Version { got }),
        }
    }

    /// A typed bare field (see [`number`]).
    pub(crate) fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, WireError> {
        number(self.token(what)?, what)
    }

    /// A bare bit-exact `f64` field, any bit pattern.
    pub(crate) fn bits(&mut self, what: &str) -> Result<f64, WireError> {
        bits(self.token(what)?, what)
    }

    /// A bare *quantity* `f64` field: NaN and infinities are refused.
    pub(crate) fn finite(&mut self, what: &'static str) -> Result<f64, WireError> {
        decode_finite_f64(self.token(what)?, what)
    }

    /// Two quantity fields: a complex value's real and imaginary parts.
    pub(crate) fn complex(&mut self, what: &'static str) -> Result<Complex64, WireError> {
        Ok(Complex64::new(self.finite(what)?, self.finite(what)?))
    }

    /// `n` items, each taken by `read`.  `n` comes off the wire, so the list
    /// grows by pushing and never reserves for it: a count the payload does
    /// not carry fails when the fields run out.
    pub(crate) fn list<T>(
        &mut self,
        n: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut items = Vec::new();
        while items.len() < n {
            items.push(read(self)?);
        }
        Ok(items)
    }
}

// ---------------------------------------------------------------------------
// Work item / outcome / message encoding
// ---------------------------------------------------------------------------

/// Encodes one [`WorkItem`] as `"<measure> <index> <s.re> <s.im>"`.
pub fn encode_work_item(item: &WorkItem) -> Result<String, WireError> {
    Ok(format!(
        "{} {} {}",
        item.measure,
        item.index,
        encode_complex(item.s, "work item s-point")?
    ))
}

fn read_work_item(line: &mut Line<'_>) -> Result<WorkItem, WireError> {
    Ok(WorkItem {
        measure: line.parse("measure")?,
        index: line.parse("index")?,
        s: line.complex("work item s-point")?,
    })
}

/// Decodes one [`WorkItem`] line.
#[cfg(test)]
fn decode_work_item(line: &str) -> Result<WorkItem, WireError> {
    Line::new(line).all(read_work_item)
}

/// Encodes one [`WorkItemOutcome`]: the item's fields followed by
/// `ok <v.re> <v.im>` or `err <message>`.  A *non-finite* success value is
/// encoded as an error outcome — a NaN transform value must never enter the
/// master's cache or checkpoint as a number.
pub fn encode_outcome(outcome: &WorkItemOutcome) -> Result<String, WireError> {
    let mut line = encode_work_item(&outcome.item)?;
    match &outcome.outcome {
        Ok(value) if value.re.is_finite() && value.im.is_finite() => {
            line.push_str(&format!(
                " ok {}",
                encode_complex(*value, "transform value")?
            ));
        }
        Ok(value) => {
            // The offending value is reported by its exact bit pattern (the
            // same 16-hex-digit codec as every wire f64), not by `{}`: decimal
            // float formatting is banned on wire paths (smp-lint D001) so that
            // no text on the wire ever depends on a float-to-decimal routine.
            line.push_str(&format!(
                " err {}",
                encode_str(&format!(
                    "non-finite transform value bits={}/{}",
                    encode_f64(value.re),
                    encode_f64(value.im)
                ))
            ));
        }
        Err(message) => {
            line.push_str(&format!(" err {}", encode_str(message)));
        }
    }
    Ok(line)
}

/// Decodes one [`WorkItemOutcome`] line.
#[cfg(test)]
fn decode_outcome(line: &str) -> Result<WorkItemOutcome, WireError> {
    Line::new(line).all(read_outcome)
}

fn read_outcome(line: &mut Line<'_>) -> Result<WorkItemOutcome, WireError> {
    let item = read_work_item(line)?;
    let outcome = match line.token("outcome tag")? {
        "ok" => Ok(line.complex("transform value")?),
        "err" => Err(text(line.token("error message")?, "error message")?),
        other => return Err(malformed(format!("unknown outcome tag '{other}'"))),
    };
    Ok(WorkItemOutcome { item, outcome })
}

/// Encodes a [`WorkerMessage`] (plus the chunk's busy time) as a multi-line
/// `result` frame payload.
pub fn encode_worker_message(
    message: &WorkerMessage,
    busy_nanos: u64,
) -> Result<String, WireError> {
    let mut out = format!(
        "result worker={} busy_ns={} n={}",
        message.worker,
        busy_nanos,
        message.results.len()
    );
    for outcome in &message.results {
        out.push('\n');
        out.push_str(&encode_outcome(outcome)?);
    }
    Ok(out)
}

/// Decodes a `result` frame payload back into a [`WorkerMessage`] and the
/// chunk's busy time in nanoseconds.
pub fn decode_worker_message(payload: &str) -> Result<(WorkerMessage, u64), WireError> {
    Body::payload(payload, |head, body| {
        head.tag("result")?;
        read_result(head, body)
    })
}

/// A `result` frame after its tag.
fn read_result(
    head: &mut Line<'_>,
    body: &mut Body<'_>,
) -> Result<(WorkerMessage, u64), WireError> {
    let worker = head.key("worker")?;
    let busy_nanos = head.key("busy_ns")?;
    let n = head.key("n")?;
    let results = body.list(n, |body| body.line("outcome", read_outcome))?;
    Ok((WorkerMessage { worker, results }, busy_nanos))
}

// ---------------------------------------------------------------------------
// Sharded-session line codecs
// ---------------------------------------------------------------------------

/// Encodes one boundary entry (`halo` / `sstate` export line) as
/// `"<row> <v.re> <v.im>"` with the bit-exact float codec.
pub fn encode_value_entry(row: u32, value: Complex64) -> Result<String, WireError> {
    Ok(format!(
        "{row} {}",
        encode_complex(value, "boundary value")?
    ))
}

/// `n` boundary-entry lines (the inverse of [`encode_value_entry`]).
fn read_entries(body: &mut Body<'_>, n: usize) -> Result<Vec<(u32, Complex64)>, WireError> {
    body.list(n, |body| {
        body.line("boundary entry", |line| {
            Ok((line.parse("row")?, line.complex("boundary value")?))
        })
    })
}

// ---------------------------------------------------------------------------
// Protocol frames
// ---------------------------------------------------------------------------

/// One protocol message between master and worker.
///
/// Master → worker: [`Frame::Job`], [`Frame::Chunk`], [`Frame::Done`].
/// Worker → master: [`Frame::Hello`], [`Frame::Result`], [`Frame::Fatal`].
///
/// The sharded (row-partitioned) session adds — master → worker:
/// [`Frame::SliceJob`], [`Frame::SliceRoute`], [`Frame::SPoint`],
/// [`Frame::Halo`]; worker → master: [`Frame::SliceMeta`],
/// [`Frame::SState`].
///
/// The fault-tolerance layer adds — either direction: [`Frame::Ping`] /
/// [`Frame::Pong`] liveness probes; master → worker: [`Frame::TermReq`]
/// (snapshot the slice's iterate) and [`Frame::Restore`] (reload a
/// checkpointed iterate mid-point); worker → master: [`Frame::Term`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker greeting: announces its wire version.
    Hello {
        /// Protocol version the worker speaks.
        version: u32,
    },
    /// Job header: the worker's assigned id, the inversion method's name (for
    /// diagnostics; `s`-points arrive explicitly in chunks) and one encoded
    /// [`crate::transform::TransformSpec`] line per measure.
    Job {
        /// Protocol version the master speaks.
        version: u32,
        /// Worker id assigned by the master (stable across the run's stats).
        worker: usize,
        /// Name of the inversion method driving the plan.
        method: String,
        /// Encoded transform specs, one per measure, in measure order.
        specs: Vec<String>,
    },
    /// A chunk of work items to evaluate.
    Chunk {
        /// The items, in queue order.
        items: Vec<WorkItem>,
    },
    /// All work is done; the worker should exit.
    Done,
    /// One evaluated chunk.
    Result {
        /// The outcomes, tagged with the sending worker.
        message: WorkerMessage,
        /// Time the worker spent evaluating this chunk, in nanoseconds.
        busy_nanos: u64,
    },
    /// The worker cannot continue (e.g. its transform specs failed to compile).
    Fatal {
        /// Human-readable description of the failure.
        message: String,
    },
    /// Sharded-session header: assigns the worker one contiguous row block of
    /// the state space.  The worker compiles the spec's model, carves its
    /// slice (the block boundaries are a pure function of the model size and
    /// `shards`) and answers with [`Frame::SliceMeta`].
    SliceJob {
        /// Protocol version the master speaks.
        version: u32,
        /// Shard index assigned to this worker (also its row block).
        worker: usize,
        /// Total number of shards in the session.
        shards: usize,
        /// One encoded [`crate::transform::TransformSpec`] line naming the
        /// model, source and targets of the passage.
        spec: String,
    },
    /// Worker → master after building its slice: the slice's size (the
    /// memory-model numbers for provenance) and its halo subscription.
    SliceMeta {
        /// States in the worker's owned row block.
        states: usize,
        /// Kernel entries stored by the slice.
        nnz: usize,
        /// Distributions in the slice's restricted LST pool.
        dists: usize,
        /// External rows whose iterate values the slice needs each round,
        /// ascending.
        need: Vec<u32>,
    },
    /// Master → worker once all subscriptions are in: the owned rows this
    /// worker must publish in every round's [`Frame::SState`].
    SliceRoute {
        /// Owned rows demanded by other shards, ascending.
        rows: Vec<u32>,
    },
    /// Starts one `s`-point on the slice: refill + init.  The worker answers
    /// with the round-0 [`Frame::SState`].
    SPoint {
        /// Point id, echoed by every frame of this point's rounds.
        id: u64,
        /// The `s`-point.
        s: Complex64,
    },
    /// One round's boundary values for a slice (the entries of the worker's
    /// halo subscription that are nonzero at their owners).  The worker
    /// applies it, takes one step and answers with the round's
    /// [`Frame::SState`].
    Halo {
        /// Point id this round belongs to.
        id: u64,
        /// Round number (1-based; round r's halo feeds step r).
        r: u64,
        /// `(global row, value)` boundary entries, ascending by row.
        entries: Vec<(u32, Complex64)>,
    },
    /// Worker → master after init (round 0) or a step (round ≥ 1): the
    /// slice's contribution to the convergence fold and the boundary values
    /// it publishes for the next round.
    SState {
        /// Point id.
        id: u64,
        /// Round number (0 after init).
        r: u64,
        /// Whether the slice's term slice is quiet under the session epsilon.
        quiet: bool,
        /// Term values at the slice's owned target states, ascending.
        targets: Vec<Complex64>,
        /// Published boundary values (nonzero entries of the route),
        /// ascending by row.
        exports: Vec<(u32, Complex64)>,
    },
    /// Liveness probe: "are you still there?".  The receiver answers with a
    /// [`Frame::Pong`] echoing the nonce.  Sent by the query server's
    /// heartbeat sweep to its resident pool workers between jobs.
    Ping {
        /// Opaque token echoed by the matching pong.
        nonce: u64,
    },
    /// Liveness reply: echoes the probe's nonce.
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
    /// Master → worker mid-point: publish your owned slice of the current
    /// term iterate so the master can checkpoint the round.  A pure read —
    /// the slice's state is untouched, so snapshot cadence can never perturb
    /// a value.  The worker answers with a [`Frame::Term`].
    TermReq {
        /// Point id this snapshot belongs to.
        id: u64,
        /// Round number being snapshotted.
        r: u64,
    },
    /// Worker → master: the slice's owned nonzero iterate entries, keyed by
    /// *global* row so the master-side snapshot is shard-layout-independent
    /// (a restart may resume onto a different shard count).
    Term {
        /// Point id.
        id: u64,
        /// Round number.
        r: u64,
        /// `(global row, value)` owned nonzero iterate entries, ascending.
        entries: Vec<(u32, Complex64)>,
    },
    /// Master → worker: reload a checkpointed iterate mid-point.  The worker
    /// refills for `s`, overwrites its owned block with the entries falling
    /// in its row range, and answers with the round-`r` [`Frame::SState`]
    /// (whose exports seed the next round's halos; its target values are a
    /// re-read of the restored iterate and are ignored by the master, which
    /// restores the convergence fold from the checkpoint instead).
    Restore {
        /// Point id assigned to the resumed point.
        id: u64,
        /// The round the snapshot captured; stepping resumes at `r + 1`.
        r: u64,
        /// The `s`-point being resumed.
        s: Complex64,
        /// `(global row, value)` iterate entries of the full state space,
        /// ascending; each worker keeps the rows it owns.
        entries: Vec<(u32, Complex64)>,
    },
}

impl Frame {
    /// Encodes the frame into a payload string (no length prefix).
    pub fn encode(&self) -> Result<String, WireError> {
        match self {
            Frame::Hello { version } => Ok(format!("hello v={version}")),
            Frame::Job {
                version,
                worker,
                method,
                specs,
            } => {
                let mut out = format!(
                    "job v={version} worker={worker} method={} specs={}",
                    encode_str(method),
                    specs.len()
                );
                for spec in specs {
                    out.push('\n');
                    out.push_str(spec);
                }
                Ok(out)
            }
            Frame::Chunk { items } => {
                let mut out = format!("chunk n={}", items.len());
                for item in items {
                    out.push('\n');
                    out.push_str(&encode_work_item(item)?);
                }
                Ok(out)
            }
            Frame::Done => Ok("done".to_string()),
            Frame::Result {
                message,
                busy_nanos,
            } => encode_worker_message(message, *busy_nanos),
            Frame::Fatal { message } => Ok(format!("fatal {}", encode_str(message))),
            Frame::SliceJob {
                version,
                worker,
                shards,
                spec,
            } => Ok(format!(
                "slicejob v={version} worker={worker} shards={shards}\n{spec}"
            )),
            Frame::SliceMeta {
                states,
                nnz,
                dists,
                need,
            } => {
                let mut out = format!(
                    "slicemeta states={states} nnz={nnz} dists={dists} need={}",
                    need.len()
                );
                for r in need {
                    out.push(' ');
                    out.push_str(&r.to_string());
                }
                Ok(out)
            }
            Frame::SliceRoute { rows } => {
                let mut out = format!("sliceroute n={}", rows.len());
                for r in rows {
                    out.push(' ');
                    out.push_str(&r.to_string());
                }
                Ok(out)
            }
            Frame::SPoint { id, s } => {
                Ok(format!("spoint id={id} {}", encode_complex(*s, "s-point")?))
            }
            Frame::Halo { id, r, entries } => {
                let mut out = format!("halo id={id} r={r} n={}", entries.len());
                for &(row, value) in entries {
                    out.push('\n');
                    out.push_str(&encode_value_entry(row, value)?);
                }
                Ok(out)
            }
            Frame::SState {
                id,
                r,
                quiet,
                targets,
                exports,
            } => {
                let mut out = format!(
                    "sstate id={id} r={r} quiet={} targets={} exports={}",
                    *quiet as u32,
                    targets.len(),
                    exports.len()
                );
                for &t in targets {
                    out.push('\n');
                    out.push_str(&encode_complex(t, "target value")?);
                }
                for &(row, value) in exports {
                    out.push('\n');
                    out.push_str(&encode_value_entry(row, value)?);
                }
                Ok(out)
            }
            Frame::Ping { nonce } => Ok(format!("ping nonce={nonce}")),
            Frame::Pong { nonce } => Ok(format!("pong nonce={nonce}")),
            Frame::TermReq { id, r } => Ok(format!("termreq id={id} r={r}")),
            Frame::Term { id, r, entries } => {
                let mut out = format!("term id={id} r={r} n={}", entries.len());
                for &(row, value) in entries {
                    out.push('\n');
                    out.push_str(&encode_value_entry(row, value)?);
                }
                Ok(out)
            }
            Frame::Restore { id, r, s, entries } => {
                let mut out = format!(
                    "restore id={id} r={r} {} n={}",
                    encode_complex(*s, "s-point")?,
                    entries.len()
                );
                for &(row, value) in entries {
                    out.push('\n');
                    out.push_str(&encode_value_entry(row, value)?);
                }
                Ok(out)
            }
        }
    }

    /// Decodes a payload string back into a frame.
    pub fn decode(payload: &str) -> Result<Frame, WireError> {
        Body::payload(payload, |head, body| {
            Ok(match head.token("frame tag")? {
                "hello" => Frame::Hello {
                    version: head.key("v")?,
                },
                "job" => Frame::Job {
                    version: head.key("v")?,
                    worker: head.key("worker")?,
                    method: head.text("method")?,
                    specs: body.list(head.key("specs")?, |body| {
                        Ok(body.token("spec line")?.to_string())
                    })?,
                },
                "chunk" => Frame::Chunk {
                    items: body.list(head.key("n")?, |body| {
                        body.line("work item", read_work_item)
                    })?,
                },
                "done" => Frame::Done,
                "result" => {
                    let (message, busy_nanos) = read_result(head, body)?;
                    Frame::Result {
                        message,
                        busy_nanos,
                    }
                }
                "fatal" => Frame::Fatal {
                    message: text(head.token("message")?, "fatal message")?,
                },
                "slicejob" => Frame::SliceJob {
                    version: head.key("v")?,
                    worker: head.key("worker")?,
                    shards: head.key("shards")?,
                    spec: body.token("spec line")?.to_string(),
                },
                "slicemeta" => Frame::SliceMeta {
                    states: head.key("states")?,
                    nnz: head.key("nnz")?,
                    dists: head.key("dists")?,
                    need: {
                        let n = head.key("need")?;
                        head.list(n, |head| head.parse("need row"))?
                    },
                },
                "sliceroute" => {
                    let n = head.key("n")?;
                    Frame::SliceRoute {
                        rows: head.list(n, |head| head.parse("route row"))?,
                    }
                }
                "spoint" => Frame::SPoint {
                    id: head.key("id")?,
                    s: head.complex("s-point")?,
                },
                "halo" => Frame::Halo {
                    id: head.key("id")?,
                    r: head.key("r")?,
                    entries: read_entries(body, head.key("n")?)?,
                },
                "sstate" => Frame::SState {
                    id: head.key("id")?,
                    r: head.key("r")?,
                    quiet: match head.key::<u8>("quiet")? {
                        0 => false,
                        1 => true,
                        other => {
                            let message = format!("flag 'quiet' must be 0 or 1, got {other}");
                            return Err(malformed(message));
                        }
                    },
                    targets: body.list(head.key("targets")?, |body| {
                        body.line("target value", |line| line.complex("target value"))
                    })?,
                    exports: read_entries(body, head.key("exports")?)?,
                },
                "ping" => Frame::Ping {
                    nonce: head.key("nonce")?,
                },
                "pong" => Frame::Pong {
                    nonce: head.key("nonce")?,
                },
                "termreq" => Frame::TermReq {
                    id: head.key("id")?,
                    r: head.key("r")?,
                },
                "term" => Frame::Term {
                    id: head.key("id")?,
                    r: head.key("r")?,
                    entries: read_entries(body, head.key("n")?)?,
                },
                "restore" => Frame::Restore {
                    id: head.key("id")?,
                    r: head.key("r")?,
                    s: head.complex("s-point")?,
                    entries: read_entries(body, head.key("n")?)?,
                },
                other => return Err(malformed(format!("unknown frame tag '{other}'"))),
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Length-prefixed frame I/O
// ---------------------------------------------------------------------------

/// Upper bound on an accepted frame payload (64 MiB) — a corrupted length
/// prefix must not trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of frame header on the wire: 4-byte big-endian payload length plus
/// the 8-byte big-endian FNV-1a checksum over (length bytes ‖ payload).
pub const FRAME_HEADER_BYTES: u64 = 12;

/// FNV-1a (64-bit) over the length prefix bytes followed by the payload.
///
/// Every per-byte FNV-1a step (`h = (h ^ b) * PRIME`) is a bijection of the
/// running 64-bit hash — xor by a constant and multiplication by the odd
/// constant `PRIME` are both invertible mod 2⁶⁴ — so flipping any single
/// byte of the covered bytes *provably* changes the final checksum.  Covering
/// the length bytes means a flipped length prefix is caught even when the
/// shorter/longer read happens to land on a frame boundary.
pub fn frame_checksum(len: u32, payload: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in len.to_be_bytes().iter().chain(payload) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    hash
}

/// Wraps a typed [`WireError`] as the source of an `InvalidData` io error, so
/// protocol layers can refuse with the precise failure kind.
fn invalid_data(error: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, error)
}

/// Recovers the typed [`WireError`] carried by an io error raised in this
/// module, if any, so a test can tell "bytes were corrupted" from "peer hung
/// up".
#[cfg(test)]
pub(crate) fn wire_error_of(error: &std::io::Error) -> Option<&WireError> {
    error.get_ref().and_then(|e| e.downcast_ref::<WireError>())
}

/// Writes one checksummed, length-prefixed UTF-8 payload to a stream and
/// flushes it.  Returns the number of bytes put on the wire (header
/// included).  Header and payload go out in one write, so a frame on a
/// `TCP_NODELAY` socket is one segment where it fits, not three.
///
/// This is the raw layer under [`write_frame`]; the query server's client
/// protocol layers its own request/response payloads on it so every protocol
/// in the system shares one framing (one length cap, one checksum).
pub fn write_payload(stream: &mut impl Write, payload: &str) -> std::io::Result<u64> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            invalid_data(WireError::Oversize {
                len: u32::try_from(bytes.len()).unwrap_or(u32::MAX),
                cap: MAX_FRAME_BYTES,
            })
        })?;
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&frame_checksum(len, bytes).to_be_bytes());
    frame.extend_from_slice(bytes);
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(frame.len() as u64)
}

/// Reads one checksummed, length-prefixed UTF-8 payload from a stream.
/// Returns the text and the number of bytes taken off the wire.  The raw
/// layer under [`read_frame`] — see [`write_payload`].
///
/// An announced length above [`MAX_FRAME_BYTES`] is a typed
/// [`WireError::Oversize`] refusal raised *before allocating anything*; a
/// checksum mismatch is a typed [`WireError::Corrupt`] refusal.  Both reach
/// the caller as `InvalidData` io errors whose source is the [`WireError`]
/// (`io::Error::get_ref` recovers it).
pub fn read_payload(stream: &mut impl Read) -> std::io::Result<(String, u64)> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    stream.read_exact(&mut header)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    let expected = u64::from_be_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    if len > MAX_FRAME_BYTES {
        return Err(invalid_data(WireError::Oversize {
            len,
            cap: MAX_FRAME_BYTES,
        }));
    }
    // Grow the buffer by reading, never by trusting `len` for a reservation:
    // a corrupted-but-under-cap length costs at most the bytes the stream
    // actually delivers.
    let mut payload = Vec::new();
    let taken = stream
        .take(u64::from(len))
        .read_to_end(&mut payload)
        .map(|n| n as u64)?;
    if taken < u64::from(len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame truncated: header announced {len} bytes, stream ended after {taken}"),
        ));
    }
    let got = frame_checksum(len, &payload);
    if got != expected {
        return Err(invalid_data(WireError::Corrupt { expected, got }));
    }
    let text = String::from_utf8(payload)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 frame"))?;
    Ok((text, FRAME_HEADER_BYTES + u64::from(len)))
}

/// Writes one length-prefixed frame to a stream and flushes it.  Returns the
/// number of bytes put on the wire (prefix included).
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> std::io::Result<u64> {
    let payload = frame
        .encode()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_payload(stream, &payload)
}

/// Reads one length-prefixed frame from a stream.  Returns the frame and the
/// number of bytes taken off the wire.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<(Frame, u64)> {
    let (text, n) = read_payload(stream)?;
    let frame = Frame::decode(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((frame, n))
}

/// The wire size of a frame without writing it anywhere — used by the
/// loopback slice workers to report the bytes a real network deployment
/// would have shipped.
pub fn frame_wire_size(frame: &Frame) -> Result<u64, WireError> {
    Ok(FRAME_HEADER_BYTES + frame.encode()?.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(measure: usize, index: usize, re: f64, im: f64) -> WorkItem {
        WorkItem {
            measure,
            index,
            s: Complex64::new(re, im),
        }
    }

    #[test]
    fn string_field_round_trips() {
        for text in [
            "plain",
            "with space",
            "pct%sign",
            "naïve-ütf8",
            "a=b k=c",
            "",
        ] {
            let encoded = encode_str(text);
            assert!(!encoded.contains(char::is_whitespace));
            assert_eq!(decode_str(&encoded).as_deref(), Some(text));
        }
        assert_eq!(decode_str("bad%2"), None);
        assert_eq!(decode_str("bad%zz"), None);
    }

    #[test]
    fn f64_fields_are_bit_exact() {
        for value in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, -f64::MAX] {
            let field = encode_f64(value);
            assert_eq!(field.len(), 16);
            assert_eq!(decode_f64(&field).map(f64::to_bits), Some(value.to_bits()));
        }
        // Short fields are truncation damage, not tiny numbers.
        assert_eq!(decode_f64("deadbeef"), None);
    }

    #[test]
    fn non_finite_quantities_are_rejected() {
        assert_eq!(
            encode_finite_f64(f64::NAN, "s"),
            Err(WireError::NonFinite { field: "s" })
        );
        assert_eq!(
            encode_finite_f64(f64::INFINITY, "s"),
            Err(WireError::NonFinite { field: "s" })
        );
        // Decoding a NaN bit pattern into a quantity field fails too.
        let nan_field = encode_f64(f64::NAN);
        assert!(matches!(
            decode_finite_f64(&nan_field, "s"),
            Err(WireError::NonFinite { .. })
        ));
    }

    #[test]
    fn outcome_round_trips_ok_and_err() {
        let ok = WorkItemOutcome {
            item: item(2, 17, 0.25, -3.5),
            outcome: Ok(Complex64::new(1.0 / 3.0, 2e-15)),
        };
        let err = WorkItemOutcome {
            item: item(0, 0, 9.5, 0.0),
            outcome: Err("did not converge after 64 iterations".to_string()),
        };
        for outcome in [&ok, &err] {
            let line = encode_outcome(outcome).unwrap();
            assert_eq!(&decode_outcome(&line).unwrap(), outcome);
        }
    }

    #[test]
    fn non_finite_success_value_becomes_an_error_outcome() {
        let poisoned = WorkItemOutcome {
            item: item(0, 3, 1.0, 2.0),
            outcome: Ok(Complex64::new(f64::NAN, 0.0)),
        };
        let line = encode_outcome(&poisoned).unwrap();
        let decoded = decode_outcome(&line).unwrap();
        assert_eq!(decoded.item, poisoned.item);
        let message = decoded.outcome.unwrap_err();
        assert!(message.contains("non-finite"), "{message}");
    }

    #[test]
    fn worker_message_round_trips() {
        let message = WorkerMessage {
            worker: 3,
            results: vec![
                WorkItemOutcome {
                    item: item(0, 0, 0.5, 1.5),
                    outcome: Ok(Complex64::new(-0.25, 0.75)),
                },
                WorkItemOutcome {
                    item: item(1, 1, 0.5, 3.0),
                    outcome: Err("synthetic failure".to_string()),
                },
            ],
        };
        let payload = encode_worker_message(&message, 12_345).unwrap();
        let (decoded, busy) = decode_worker_message(&payload).unwrap();
        assert_eq!(decoded, message);
        assert_eq!(busy, 12_345);
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello { version: 1 },
            Frame::Job {
                version: 1,
                worker: 2,
                method: "euler".to_string(),
                specs: vec!["analytic v=1 key=x dist=exponential:3ff0000000000000".to_string()],
            },
            Frame::Chunk {
                items: vec![item(0, 0, 1.0, 2.0), item(1, 5, 3.0, -4.0)],
            },
            Frame::Done,
            Frame::Result {
                message: WorkerMessage {
                    worker: 0,
                    results: vec![WorkItemOutcome {
                        item: item(0, 0, 1.0, 2.0),
                        outcome: Ok(Complex64::I),
                    }],
                },
                busy_nanos: 77,
            },
            Frame::Fatal {
                message: "spec compile failed: place 'p9' does not exist".to_string(),
            },
        ];
        for frame in frames {
            let payload = frame.encode().unwrap();
            assert_eq!(Frame::decode(&payload).unwrap(), frame);
        }
    }

    #[test]
    fn slice_frames_round_trip() {
        let frames = vec![
            Frame::SliceJob {
                version: 1,
                worker: 2,
                shards: 4,
                spec: "analytic v=1 key=x dist=exponential:3ff0000000000000".to_string(),
            },
            Frame::SliceMeta {
                states: 25,
                nnz: 73,
                dists: 9,
                need: vec![3, 7, 99],
            },
            Frame::SliceMeta {
                states: 0,
                nnz: 0,
                dists: 0,
                need: vec![],
            },
            Frame::SliceRoute { rows: vec![12, 13] },
            Frame::SliceRoute { rows: vec![] },
            Frame::SPoint {
                id: 41,
                s: Complex64::new(0.5, -2.25),
            },
            Frame::Halo {
                id: 41,
                r: 7,
                entries: vec![
                    (3, Complex64::new(1.0 / 3.0, -0.0)),
                    (99, Complex64::new(-0.0, 2e-300)),
                ],
            },
            Frame::Halo {
                id: 41,
                r: 8,
                entries: vec![],
            },
            Frame::SState {
                id: 41,
                r: 0,
                quiet: true,
                targets: vec![Complex64::new(0.25, -0.75), Complex64::ZERO],
                exports: vec![(12, Complex64::new(-1.5, 0.5))],
            },
            Frame::SState {
                id: 42,
                r: 3,
                quiet: false,
                targets: vec![],
                exports: vec![],
            },
        ];
        for frame in frames {
            let payload = frame.encode().unwrap();
            assert_eq!(Frame::decode(&payload).unwrap(), frame, "{payload}");
        }
    }

    #[test]
    fn slice_frame_values_survive_bit_for_bit() {
        // Negative zero and subnormals must cross the wire unchanged: the
        // sharded solve's bitwise guarantee rests on this codec.
        let entries = vec![(0u32, Complex64::new(-0.0, f64::MIN_POSITIVE / 2.0))];
        let frame = Frame::Halo {
            id: 1,
            r: 1,
            entries,
        };
        let decoded = Frame::decode(&frame.encode().unwrap()).unwrap();
        match decoded {
            Frame::Halo { entries, .. } => {
                assert_eq!(entries[0].1.re.to_bits(), (-0.0f64).to_bits());
                assert_eq!(
                    entries[0].1.im.to_bits(),
                    (f64::MIN_POSITIVE / 2.0).to_bits()
                );
            }
            other => panic!("decoded to {other:?}"),
        }
    }

    #[test]
    fn malformed_slice_frames_are_rejected() {
        // Count mismatches.
        assert!(Frame::decode("slicemeta states=1 nnz=1 dists=1 need=2 5").is_err());
        assert!(Frame::decode("sliceroute n=3 1 2").is_err());
        assert!(Frame::decode("halo id=1 r=1 n=1").is_err());
        assert!(Frame::decode("sstate id=1 r=0 quiet=0 targets=1 exports=0").is_err());
        // Missing spec line and trailing junk.
        assert!(Frame::decode("slicejob v=1 worker=0 shards=2").is_err());
        assert!(Frame::decode("spoint id=1 3ff0000000000000 3ff0000000000000 junk").is_err());
        // Flags must be 0/1.
        assert!(Frame::decode("sstate id=1 r=0 quiet=2 targets=0 exports=0").is_err());
        // The version-2 grammar (a refill-verdict token) is refused.
        assert!(Frame::decode("sstate id=1 r=0 quiet=0 targets=0 exports=0").is_ok());
        assert!(Frame::decode("sstate id=1 r=0 faithful=1 quiet=0 targets=0 exports=0").is_err());
        // Non-finite boundary values are rejected at decode.
        let nan = encode_f64(f64::NAN);
        assert!(Frame::decode(&format!("halo id=1 r=1 n=1\n4 {nan} {nan}")).is_err());
        // Counts past the body and versions past `u32` are typed refusals:
        // no overflow, no out-of-range slice, no version narrowed to a match.
        for payload in [
            "sstate id=0 r=0 quiet=0 targets=18446744073709551615 exports=1",
            "slicejob v=4294967299 worker=0 shards=2\npassage v=1 model=voting:3,1,1 targets=p2%3e%3d2",
        ] {
            let decoded = Frame::decode(payload);
            assert!(matches!(decoded, Err(WireError::Malformed { .. })), "{payload}: {decoded:?}");
        }
    }

    #[test]
    fn frame_io_over_a_buffer() {
        let frame = Frame::Chunk {
            items: (0..10)
                .map(|k| item(k % 2, k, k as f64, -(k as f64)))
                .collect(),
        };
        let mut buffer = Vec::new();
        let written = write_frame(&mut buffer, &frame).unwrap();
        assert_eq!(written, buffer.len() as u64);
        assert_eq!(written, frame_wire_size(&frame).unwrap());
        let mut cursor = std::io::Cursor::new(buffer);
        let (decoded, read) = read_frame(&mut cursor).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(read, written);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_with_a_typed_error() {
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff];
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(b"junk");
        let mut cursor = std::io::Cursor::new(bytes);
        let error = read_frame(&mut cursor).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            matches!(
                wire_error_of(&error),
                Some(WireError::Oversize {
                    len: 0xffff_ffff,
                    ..
                })
            ),
            "{error}"
        );
    }

    #[test]
    fn fault_frames_round_trip() {
        let frames = vec![
            Frame::Ping { nonce: 7 },
            Frame::Pong { nonce: u64::MAX },
            Frame::TermReq { id: 9, r: 41 },
            Frame::Term {
                id: 9,
                r: 41,
                entries: vec![
                    (0, Complex64::new(1.0 / 3.0, -0.0)),
                    (250, Complex64::new(-2e-300, 0.5)),
                ],
            },
            Frame::Term {
                id: 1,
                r: 0,
                entries: vec![],
            },
            Frame::Restore {
                id: 10,
                r: 16,
                s: Complex64::new(0.25, -1.5),
                entries: vec![(3, Complex64::new(0.125, 0.0))],
            },
        ];
        for frame in frames {
            let payload = frame.encode().unwrap();
            assert_eq!(Frame::decode(&payload).unwrap(), frame, "{payload}");
        }
        // Count mismatches and trailing junk are refused.
        assert!(Frame::decode("term id=1 r=1 n=2\n0 3ff0000000000000 3ff0000000000000").is_err());
        assert!(Frame::decode("ping nonce=1 extra").is_err());
        assert!(
            Frame::decode("restore id=1 r=1 3ff0000000000000 3ff0000000000000 n=1").is_err(),
            "restore announcing one entry but carrying none"
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_refused() {
        // The integrity guarantee in its strongest form: take a real frame's
        // wire bytes, flip every bit of every byte in turn, and demand that
        // the reader either refuses the frame or (for flips in bytes past
        // the announced frame, which a reader never consumes) leaves the
        // decoded frame identical.  Silent acceptance of different content
        // is the failure mode this framing exists to kill.
        let frame = Frame::SState {
            id: 3,
            r: 5,
            quiet: false,
            targets: vec![Complex64::new(0.25, -0.75)],
            exports: vec![(12, Complex64::new(-1.5, 0.5))],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        for index in 0..wire.len() {
            for bit in 0..8 {
                let mut corrupted = wire.clone();
                corrupted[index] ^= 1 << bit;
                let mut cursor = std::io::Cursor::new(corrupted);
                match read_frame(&mut cursor) {
                    Err(_) => {} // refused: corruption detected
                    Ok((decoded, _)) => {
                        panic!("byte {index} bit {bit}: corrupted frame accepted as {decoded:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn corruption_is_a_typed_refusal() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Done).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x10; // flip a payload bit
        let error = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(
            matches!(wire_error_of(&error), Some(WireError::Corrupt { .. })),
            "{error}"
        );
    }

    #[test]
    fn truncated_frame_is_unexpected_eof_not_a_hang() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping { nonce: 3 }).unwrap();
        wire.truncate(wire.len() - 2);
        let error = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn checksum_covers_the_length_prefix() {
        // Same payload, different announced length: even when the stream
        // happens to contain enough bytes for the shorter length, the
        // checksum (computed over the length bytes) no longer matches.
        let payload = b"done";
        let len = payload.len() as u32;
        let sum = frame_checksum(len, payload);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(len - 1).to_be_bytes()); // lie about length
        wire.extend_from_slice(&sum.to_be_bytes());
        wire.extend_from_slice(payload);
        let error = read_payload(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(
            matches!(wire_error_of(&error), Some(WireError::Corrupt { .. })),
            "{error}"
        );
    }

    #[test]
    fn oversized_write_is_refused_before_hitting_the_stream() {
        let huge = "x".repeat(MAX_FRAME_BYTES as usize + 1);
        let mut sink = Vec::new();
        let error = write_payload(&mut sink, &huge).unwrap_err();
        assert!(
            matches!(wire_error_of(&error), Some(WireError::Oversize { .. })),
            "{error}"
        );
        assert!(sink.is_empty(), "nothing reached the stream");
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        assert!(decode_work_item("0 1 3ff0000000000000").is_err());
        assert!(decode_work_item("0 1 3ff0000000000000 3ff0000000000000 extra").is_err());
        assert!(Frame::decode("chunk n=2\n0 0 3ff0000000000000 3ff0000000000000").is_err());
        assert!(Frame::decode("warble n=1").is_err());
        assert!(Frame::decode("").is_err());
        for payload in [
            "hello v=4294967299",
            "job v=4294967299 worker=0 method=euler specs=0",
        ] {
            let decoded = Frame::decode(payload);
            assert!(
                matches!(decoded, Err(WireError::Malformed { .. })),
                "{payload}: {decoded:?}"
            );
        }
    }
}
