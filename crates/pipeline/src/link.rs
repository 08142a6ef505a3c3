//! The one message-passing layer between the master and a worker.
//!
//! The paper's cluster has exactly one such layer, and so does this crate: a
//! [`Link`] is a framed, checksummed, handshaken duplex to one worker, and it
//! is the only thing master-side code talks to a worker through — chunk
//! dispatch and its heartbeats ([`crate::transport`], one-shot and served
//! alike) and row-sharded sessions ([`crate::shard`]) hold `Link`s, and the
//! worker's frame loop ([`crate::worker`]) runs over the far end of one.  Three implementations:
//!
//! * [`TcpLink`] — a connected socket.  The single place that accepts or
//!   dials, sets socket options, and performs the `Hello` handshake.
//! * [`LoopbackLink`] — an in-process slice worker answering inline, with
//!   the same wire-size accounting, so a loopback run reports the bytes a
//!   socket would ship.
//! * [`FaultyLink`] — wraps any link and injects a [`FaultPlan`]'s faults:
//!   the single fault-injection point of the crate.

use crate::fault::{FaultKind, FaultPlan};
use crate::shard::SliceWorkerSession;
use crate::unpoisoned;
use crate::wire::{self, Frame, WIRE_VERSION};
use crate::worker;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A bidirectional frame link between the master and one worker.
///
/// Both directions report the frame's wire size, so every implementation
/// accounts the same `bytes_on_wire`.  An `Err` from either direction means
/// the peer is lost: the master drops the link and its work goes to the
/// survivors.
pub trait Link: Send {
    /// Sends one frame, returning its wire size in bytes.
    fn send(&mut self, frame: &Frame) -> io::Result<u64>;
    /// Receives the next frame and its wire size.
    fn recv(&mut self) -> io::Result<(Frame, u64)>;

    /// Bounds how long `recv` waits for the peer's next frame.  Only a
    /// socket waits, so the default does nothing.
    fn set_read_timeout(&self, _timeout: Duration) -> io::Result<()> {
        Ok(())
    }
}

impl<L: Link + ?Sized> Link for Box<L> {
    fn send(&mut self, frame: &Frame) -> io::Result<u64> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> io::Result<(Frame, u64)> {
        (**self).recv()
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        (**self).set_read_timeout(timeout)
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// A [`Link`] over a connected TCP stream: length-prefixed checksummed wire
/// frames, one worker process at the far end.
#[derive(Debug)]
pub struct TcpLink {
    stream: TcpStream,
}

impl TcpLink {
    /// The master side: accepts one worker on `listener`, polling while
    /// `keep_waiting` says so (`Ok(None)` once it says stop — nobody dialed
    /// in).  The accepted connection is made blocking and `nodelay`, bounded
    /// by `io_timeout` on reads *and* writes (a stopped peer with a full
    /// receive buffer must not block a large write forever), and must open
    /// with a version-compatible `Hello`.  Returns the link plus the
    /// handshake's message and byte counts.
    pub fn accept(
        listener: &TcpListener,
        io_timeout: Duration,
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> io::Result<Option<(TcpLink, usize, u64)>> {
        listener.set_nonblocking(true)?;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _peer)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !keep_waiting() {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let mut link = TcpLink { stream };
        match link.recv() {
            Ok((Frame::Hello { version }, bytes)) if version == WIRE_VERSION => {
                Ok(Some((link, 1, bytes)))
            }
            Ok((Frame::Hello { version }, _)) => Err(invalid(format!(
                "handshake failed: worker speaks wire version {version}, master speaks \
                 {WIRE_VERSION}"
            ))),
            Ok((other, _)) => Err(invalid(format!(
                "handshake failed: expected hello frame, got {other:?}"
            ))),
            Err(e) => Err(io::Error::new(e.kind(), format!("handshake failed: {e}"))),
        }
    }

    /// The worker side: one dial attempt.  `idle_timeout` bounds every wait
    /// for the master's next frame.
    pub(crate) fn dial(connect: &str, idle_timeout: Option<Duration>) -> io::Result<TcpLink> {
        let stream = TcpStream::connect(connect)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(idle_timeout)?;
        Ok(TcpLink { stream })
    }

    /// The socket, for tests that check its options.
    #[cfg(test)]
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Half-closes and drains after a final `Fatal` frame: the master may
    /// still have a frame in flight, and closing a socket with unread data
    /// sends an RST that can destroy the fatal before the master reads it.
    /// Shutting down the write half lets the master see orderly EOF after
    /// the fatal; incoming data is sunk until it closes or goes quiet.
    pub(crate) fn linger(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(500)));
        let mut sink = [0u8; 1024];
        while matches!(self.stream.read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl Link for TcpLink {
    fn send(&mut self, frame: &Frame) -> io::Result<u64> {
        wire::write_frame(&mut self.stream, frame)
    }

    fn recv(&mut self) -> io::Result<(Frame, u64)> {
        wire::read_frame(&mut self.stream)
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }
}

// ---------------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------------

/// An in-memory [`Link`] to a row-slice worker held in this process — the
/// `--shards N` backend.  `send` runs the worker's per-frame step
/// (`worker::answer`) inline and queues its reply for `recv`, so a lockstep
/// round costs a function call, not a thread hand-off; both directions
/// account the wire size of their frame, exactly the bytes a TCP deployment
/// would ship.  The worker is past its handshake and serves slice sessions
/// and pings only: chunk evaluators borrow their explored model for the
/// length of a job, so a chunk job cannot be suspended between two `send`s —
/// in-process chunk work is [`crate::InProcess`]'s, without frames.
#[derive(Default)]
pub struct LoopbackLink {
    session: Option<SliceWorkerSession>,
    replies: VecDeque<Frame>,
}

impl LoopbackLink {
    /// A link to a fresh, idle in-process slice worker.
    pub fn new() -> LoopbackLink {
        LoopbackLink::default()
    }
}

impl Link for LoopbackLink {
    fn send(&mut self, frame: &Frame) -> io::Result<u64> {
        let bytes = wire::frame_wire_size(frame).map_err(|e| invalid(e.to_string()))?;
        // A refusal is reported as `fatal` and ends the session, as on a wire.
        let reply = worker::answer(&mut self.session, frame).unwrap_or_else(|message| {
            self.session = None;
            Some(Frame::Fatal { message })
        });
        self.replies.extend(reply);
        Ok(bytes)
    }

    fn recv(&mut self) -> io::Result<(Frame, u64)> {
        let frame = self.replies.pop_front().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "loopback worker has no frame pending",
            )
        })?;
        let bytes = wire::frame_wire_size(&frame).map_err(|e| invalid(e.to_string()))?;
        Ok((frame, bytes))
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Proves that a frame with one payload byte flipped is *refused* by the
/// frame reader, exactly as a receiver would refuse it on a real link.
/// Returns the refusing error (panics if the corrupted bytes were accepted —
/// that would mean the checksum failed at its one job).
fn prove_corruption_detected(frame: &Frame, xor: u8) -> io::Error {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, frame).expect("encodable frame");
    let header = wire::FRAME_HEADER_BYTES as usize;
    let payload_len = bytes.len() - header;
    let index =
        (header + (xor as usize).wrapping_mul(7919) % payload_len.max(1)).min(bytes.len() - 1);
    bytes[index] ^= if xor == 0 { 0xff } else { xor };
    match wire::read_frame(&mut io::Cursor::new(bytes)) {
        Err(error) => error,
        Ok((decoded, _)) => panic!(
            "injected corruption went undetected: flipped byte {index} yet decoded {decoded:?}"
        ),
    }
}

/// A [`Link`] wrapper that injects a [`FaultPlan`]'s faults into the
/// master→worker direction, one plan consult per sent frame.
///
/// * `DropFrame` — the frame vanishes: the worker never sees it.  TCP cannot
///   lose one frame and stay healthy, so the drop poisons the link's receive
///   side: every later `recv` times out, exactly as a stalled peer would.
///   (Without the poison, dropping a frame that expects no reply — a
///   `SliceRoute` — would leave the worker on a stale route and corrupt
///   values *silently*.)
/// * `CorruptByte` — the frame's wire bytes are corrupted and *proven to be
///   refused* by the frame reader (the checksum at work), then surfaced as
///   the `InvalidData` error the receiving end would raise.
/// * `Disconnect` — the link dies with `ConnectionAborted`.
/// * `Delay` — the frame is late but intact.
///
/// Every lossy outcome funnels into the caller's lost-worker recovery — the
/// chunk dispatch's requeue, the slice fleet's re-shard — so a chaos
/// schedule exercises exactly the paths a real flaky network would.  The
/// plan is shared (`Arc<Mutex>`) so one schedule can address a whole fleet's
/// links with a single op counter.
pub struct FaultyLink {
    inner: Box<dyn Link>,
    plan: Arc<Mutex<FaultPlan>>,
    stalled: bool,
}

impl FaultyLink {
    /// Wraps a link with a shared fault plan.
    pub fn new(inner: Box<dyn Link>, plan: Arc<Mutex<FaultPlan>>) -> FaultyLink {
        FaultyLink {
            inner,
            plan,
            stalled: false,
        }
    }
}

impl Link for FaultyLink {
    fn send(&mut self, frame: &Frame) -> io::Result<u64> {
        let kind = unpoisoned(self.plan.lock()).next_op();
        match kind {
            FaultKind::Pass => self.inner.send(frame),
            FaultKind::Delay { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.send(frame)
            }
            FaultKind::DropFrame => {
                // The sender believes the frame shipped; the worker never
                // sees it, and the link is now out of sync for good.
                self.stalled = true;
                wire::frame_wire_size(frame).map_err(|e| invalid(e.to_string()))
            }
            FaultKind::Disconnect => {
                self.stalled = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "link killed by fault plan",
                ))
            }
            // The wire layer must refuse the corrupted bytes; surface its
            // refusal as this link's failure.
            FaultKind::CorruptByte { xor } => Err(prove_corruption_detected(frame, xor)),
        }
    }

    fn recv(&mut self) -> io::Result<(Frame, u64)> {
        if self.stalled {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "peer never received a dropped frame; link stalled",
            ));
        }
        self.inner.recv()
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_stage;
    use crate::work::WorkItem;
    use crate::worker::{run_tcp_worker, TcpWorkerOptions};
    use smp_numeric::Complex64;

    /// The master's half of a chunk job, in protocol order.
    fn chunk_script() -> Vec<Frame> {
        let item = WorkItem {
            measure: 0,
            index: 7,
            s: Complex64::new(0.4, 1.3),
        };
        vec![
            Frame::Job {
                version: WIRE_VERSION,
                worker: 1,
                method: "euler".to_string(),
                specs: vec![one_stage::passage("expLT(1.5, s)").encode()],
            },
            Frame::Chunk { items: vec![item] },
            Frame::Done,
        ]
    }

    /// The master's half of a one-shard slice session, in protocol order.
    fn slice_script() -> Vec<Frame> {
        let s = Complex64::new(0.9, 0.0);
        vec![
            Frame::SliceJob {
                version: WIRE_VERSION,
                worker: 0,
                shards: 1,
                spec: crate::shard::tests::voting_spec().encode(),
            },
            Frame::SliceRoute { rows: Vec::new() },
            Frame::SPoint { id: 3, s },
            Frame::Ping { nonce: 77 },
            Frame::Halo {
                id: 3,
                r: 1,
                entries: Vec::new(),
            },
            Frame::TermReq { id: 3, r: 1 },
            Frame::Done,
        ]
    }

    /// Plays the master's `script` over `link`, checking that both
    /// directions account exactly the encoded frame behind its
    /// length-and-checksum header, and returns the worker's answers.
    fn play(name: &str, link: &mut dyn Link, script: &[Frame]) -> Vec<Frame> {
        let size = |frame: &Frame| wire::frame_wire_size(frame).unwrap();
        let mut answers = Vec::new();
        for frame in script {
            assert_eq!(link.send(frame).unwrap(), size(frame), "{name}: {frame:?}");
            let answered = !matches!(
                frame,
                Frame::Job { .. } | Frame::SliceRoute { .. } | Frame::Done
            );
            if answered {
                let (answer, bytes) = link.recv().unwrap();
                assert_eq!(bytes, size(&answer), "{name}: {answer:?}");
                answers.push(answer);
            }
        }
        answers
    }

    #[test]
    fn every_link_ships_the_same_frames_at_the_same_byte_counts() {
        // A real worker loop behind a real socket…
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker =
            std::thread::spawn(move || run_tcp_worker(&addr, &TcpWorkerOptions::default()));
        let (mut tcp, messages, bytes) =
            TcpLink::accept(&listener, Duration::from_secs(5), &mut || true)
                .unwrap()
                .unwrap();
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        assert_eq!(
            (messages, bytes),
            (1, wire::frame_wire_size(&hello).unwrap())
        );
        // …serves the chunk family, which has no in-memory counterpart…
        let results = play("tcp", &mut tcp, &chunk_script());
        assert!(matches!(&results[..], [Frame::Result { message, .. }] if message.worker == 1));
        // …and then the slice family, frame for frame and byte for byte as
        // the loopback worker (bare, and behind a pass-through fault wrapper)
        // does: loopback `bytes_on_wire` is what a socket ships.
        let expected = play("tcp", &mut tcp, &slice_script());
        assert!(matches!(expected[0], Frame::SliceMeta { .. }));
        assert!(matches!(expected[1], Frame::SState { id: 3, r: 0, .. }));
        // A slice session answers a ping with a pong, and stays intact.
        assert_eq!(expected[2], Frame::Pong { nonce: 77 });
        assert!(matches!(expected[3], Frame::SState { id: 3, r: 1, .. }));
        assert!(matches!(expected[4], Frame::Term { id: 3, r: 1, .. }));
        drop(tcp);
        assert_eq!(worker.join().unwrap().unwrap().jobs, 2);

        let mut loopback = LoopbackLink::new();
        assert_eq!(play("loopback", &mut loopback, &slice_script()), expected);
        let plan = Arc::new(Mutex::new(FaultPlan::none()));
        let mut faulty = FaultyLink::new(Box::new(LoopbackLink::new()), plan);
        assert_eq!(play("faulty", &mut faulty, &slice_script()), expected);
    }

    #[test]
    fn a_loopback_worker_refuses_what_it_cannot_serve() {
        let mut link = LoopbackLink::new();
        // Nothing is pending before the master asks for something.
        assert!(link.recv().is_err());
        for frame in chunk_script().iter().take(2) {
            link.send(frame).unwrap();
            assert!(matches!(link.recv().unwrap().0, Frame::Fatal { .. }));
        }
    }
}
