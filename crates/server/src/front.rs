//! The client-facing half of an event loop, shared by the solve server and
//! the router.
//!
//! A [`Front`] owns the listener, the loop's waker, every client [`Conn`]
//! and their poll-set entries. Each lap its owner appends its own
//! descriptors, calls [`Front::wait`], then [`Front::service`]: accept (with
//! `max_conns` rejection), read, peel frames, answer a first-frame `HELLO`
//! inline, verify v4 envelopes, enforce the slow-peer and write deadlines,
//! flush and reap. What comes back is a list of admitted [`Request`]s, each
//! already holding a pipeline slot on its connection. The server queues
//! them to its solver workers; the router forwards them to backends. Either
//! way the answer comes back through [`Front::finish`], and
//! [`Front::settle`] is the completion edge: frames past the pipeline cap
//! (or arriving just before a peer EOF) live only in `Conn::read_buf`,
//! invisible to `poll`, so a freed slot is what must resume parsing.
//!
//! Client-facing contract, identical for `serve` and `route`:
//!
//! * a garbage or oversized length prefix gets an `ERR` reply and a close
//!   (the stream cannot be re-synchronized);
//! * a peer that starts a frame but trickles it in slower than
//!   `io_timeout` (slow loris) gets `ERR Timeout` and a close; idle
//!   connections *between* frames may wait forever;
//! * a connection over `max_conns` gets a best-effort `ERR Busy` and a
//!   close, written without ever blocking the loop;
//! * a `HELLO` first frame negotiates protocol v4 inline (never through the
//!   owner, so no pipelined enveloped frame can race the mode switch); a
//!   later `HELLO` is an ordinary request and gets `ERR UnknownOpcode`,
//!   exactly what a v3 peer says;
//! * on a negotiated connection a frame failing its checksum gets
//!   `ERR Corrupt` (counted through [`FrontStats::crc_reject`]) and the
//!   connection keeps serving;
//! * when `accept` fails for lack of descriptors the listener sits out of
//!   the poll set until a connection closes or a short back-off expires,
//!   instead of spinning on a backlog it cannot drain.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{Conn, FrameStep, Outcome, ReadStatus};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::poller::{self, Interest, PollFd};
use crate::protocol::{
    encode_frame, err_payload, op, unwrap_v4, v4_req_id_hint, wrap_v4, write_frame, Builder,
    Cursor, EnvelopeError, ErrorCode, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// How long the listener stays out of the poll set after `accept` fails for
/// lack of resources (EMFILE/ENFILE). The refused connection stays queued,
/// so a level-triggered listener would report ready again at once and spin
/// the loop; a closing connection ends the pause early.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Post-shutdown grace for flushing buffered replies.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Counters the front end reports into (the server's engine, the router's
/// gauges).
pub trait FrontStats: Send + Sync {
    /// A connection was admitted.
    fn conn_opened(&self) {}
    /// An admitted connection closed.
    fn conn_closed(&self) {}
    /// A frame was admitted while an earlier request on its connection was
    /// still in flight.
    fn frame_pipelined(&self) {}
    /// A negotiated frame failed its payload checksum.
    fn crc_reject(&self);
}

/// Front-end policy, taken from the owner's options.
pub struct FrontOptions {
    /// Slow-peer and slow-reader budget; zero disables both guards.
    pub io_timeout: Duration,
    /// Maximum concurrent connections (0 = unlimited).
    pub max_conns: usize,
    /// Per-connection pipelining cap.
    pub max_pipeline: usize,
    /// Retry hint on the `ERR Busy` that rejects a connection over
    /// `max_conns`.
    pub busy_retry_ms: u64,
    /// Fault plan for the `conn` (per accept) and `read` (per frame) sites.
    pub fault: FaultPlan,
}

/// One admitted client request. Its pipeline slot is taken; the owner must
/// resolve it with [`Front::finish`].
pub struct Request {
    /// The connection it arrived on.
    pub conn: u64,
    /// Its reply-ordering sequence number on that connection.
    pub seq: u64,
    /// The request opcode.
    pub opcode: u8,
    /// The request payload, with any v4 envelope already verified and
    /// stripped.
    pub payload: Vec<u8>,
    /// The v4 request id to echo in the reply envelope; `None` on a legacy
    /// connection, whose replies stay bare frames.
    pub wire: Option<u64>,
    /// When the frame finished arriving; deadlines count from here.
    pub received: Instant,
}

/// The client-facing state of one event loop; see the module docs.
pub struct Front {
    listener: TcpListener,
    wake_rx: TcpStream,
    opts: FrontOptions,
    stats: Arc<dyn FrontStats>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Set after a resource-exhaustion `accept` failure; see
    /// [`ACCEPT_BACKOFF`].
    accept_paused_until: Option<Instant>,
    /// Where this front's entries start in the last poll set, whether the
    /// listener was among them, and the connection ids that followed the
    /// waker.
    base: usize,
    listening: bool,
    polled: Vec<u64>,
    /// Connections finished since the last [`Front::settle`].
    touched: Vec<u64>,
}

impl Front {
    /// Take over a bound, nonblocking listener and the read half of the
    /// loop's waker (see [`poller::wake_pair`]).
    pub fn new(
        listener: TcpListener,
        wake_rx: TcpStream,
        opts: FrontOptions,
        stats: Arc<dyn FrontStats>,
    ) -> Front {
        Front {
            listener,
            wake_rx,
            opts: FrontOptions {
                max_pipeline: opts.max_pipeline.max(1),
                ..opts
            },
            stats,
            conns: HashMap::new(),
            next_id: 0,
            accept_paused_until: None,
            base: 0,
            listening: false,
            polled: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Append this front's descriptors to `fds` after the owner's own, and
    /// sleep until something is ready or the nearer of `deadline` and the
    /// front's own deadlines passes. With nothing pending this blocks
    /// indefinitely: an idle loop makes zero wakeups.
    pub fn wait(&mut self, fds: &mut Vec<PollFd>, deadline: Option<Instant>) {
        let now = Instant::now();
        if self.accept_paused_until.is_some_and(|t| now >= t) {
            self.accept_paused_until = None;
        }
        self.base = fds.len();
        self.listening = self.accept_paused_until.is_none();
        if self.listening {
            fds.push(PollFd::new(poller::fd_of(&self.listener), Interest::read()));
        }
        fds.push(PollFd::new(poller::fd_of(&self.wake_rx), Interest::read()));
        self.polled.clear();
        for (&id, conn) in &self.conns {
            fds.push(PollFd::new(
                poller::fd_of(&conn.stream),
                Interest {
                    readable: conn.wants_read(self.opts.max_pipeline),
                    writable: conn.wants_write(),
                },
            ));
            self.polled.push(id);
        }
        let nearest = self
            .conns
            .values()
            .flat_map(|c| [c.read_deadline, c.write_deadline])
            .chain([deadline, self.accept_paused_until])
            .flatten()
            .min();
        let timeout = nearest.map(|t| t.saturating_duration_since(now));
        if poller::wait(fds, timeout).is_err() {
            // poll(2) failures other than EINTR (absorbed by the poller)
            // are exotic; readiness comes back cleared, and the pause keeps
            // a persistent one from spinning the loop
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Act on the readiness [`Front::wait`] collected: accept, read and
    /// parse, write, fire expired deadlines, reap. Returns the requests
    /// admitted on the way.
    pub fn service(&mut self, fds: &[PollFd]) -> Vec<Request> {
        let mut admitted = Vec::new();
        let mut ready = fds[self.base..].iter().map(|f| f.ready);
        if self.listening && ready.next().is_some_and(|r| r.readable) {
            self.accept_ready();
        }
        if ready.next().is_some_and(|r| r.readable || r.hangup) {
            poller::drain(&mut self.wake_rx);
        }
        let now = Instant::now();
        let polled = std::mem::take(&mut self.polled);
        for (&id, r) in polled.iter().zip(ready) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let mut close = false;
            if r.readable || r.hangup {
                close = match conn.read_some() {
                    Err(_) => true,
                    Ok(status) => {
                        let dead = extract(&self.opts, &*self.stats, id, conn, &mut admitted);
                        if status == ReadStatus::Eof {
                            conn.close_input();
                        }
                        dead
                    }
                };
            }
            if !close && (r.writable || conn.wants_write()) {
                close = conn.try_write(self.opts.io_timeout).is_err();
            }
            if !close {
                if conn.read_deadline.is_some_and(|d| now >= d) {
                    // slow loris: started a frame, trickled it in too slowly
                    conn.fail_and_close(encode_frame(
                        op::ERR,
                        &err_payload(ErrorCode::Timeout, "slow peer: frame stalled", None),
                    ));
                    let _ = conn.try_write(self.opts.io_timeout);
                }
                // the peer stopped accepting our replies
                close = conn.write_deadline.is_some_and(|d| now >= d);
            }
            if close || conn.finished() {
                self.close(id);
            }
        }
        self.polled = polled;
        admitted
    }

    /// Resolve request `seq` on connection `id`; a no-op once the
    /// connection is gone. The bytes flush at the next [`Front::settle`].
    pub fn finish(&mut self, id: u64, seq: u64, outcome: Outcome) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.finish(seq, outcome);
            self.touched.push(id);
        }
    }

    /// The completion edge: for every connection finished since the last
    /// call, admit buffered frames into the freed pipeline slots, flush,
    /// and reap. Returns the newly admitted requests.
    pub fn settle(&mut self) -> Vec<Request> {
        let mut admitted = Vec::new();
        let mut ids = std::mem::take(&mut self.touched);
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if extract(&self.opts, &*self.stats, id, conn, &mut admitted)
                || conn.try_write(self.opts.io_timeout).is_err()
                || conn.finished()
            {
                self.close(id);
            }
        }
        admitted
    }

    /// Is connection `id` still open?
    pub fn is_open(&self, id: u64) -> bool {
        self.conns.contains_key(&id)
    }

    /// Drop connection `id` now (a no-op once it is gone).
    pub fn close(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.stats.conn_closed();
            // a freed descriptor is what a paused listener waits for
            self.accept_paused_until = None;
        }
    }

    /// Bounded post-shutdown grace: flush buffered replies (the `OK_BYE` in
    /// particular), then close everything. With `settle`, requests still in
    /// flight are awaited too, and `settle` runs each lap to resolve them;
    /// without it they are abandoned and their clients see the close. The
    /// only sleep here runs during teardown, never on the idle path.
    pub fn drain(&mut self, mut settle: Option<&mut dyn FnMut(&mut Front)>) {
        let deadline = Instant::now() + DRAIN_GRACE;
        while !self.conns.is_empty() && Instant::now() < deadline {
            if let Some(settle) = settle.as_mut() {
                settle(self);
            }
            let awaiting = settle.is_some();
            let io_timeout = self.opts.io_timeout;
            let done: Vec<u64> = self
                .conns
                .iter_mut()
                .filter_map(|(&id, c)| {
                    let failed = c.try_write(io_timeout).is_err();
                    let pending = c.wants_write() || (awaiting && c.in_flight > 0);
                    (failed || !pending).then_some(id)
                })
                .collect();
            for id in done {
                self.close(id);
            }
            if !self.conns.is_empty() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let leftover: Vec<u64> = self.conns.keys().copied().collect();
        for id in leftover {
            self.close(id);
        }
    }

    /// Accept everything the backlog has (the listener is level-triggered,
    /// but draining it now saves poll round-trips under an accept storm).
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // this one connection failed and left the queue: keep going
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // out of descriptors or memory: the connection stays queued
                Err(_) => {
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            };
            if self.opts.fault.trip(FaultSite::Conn) == Some(FaultAction::Drop) {
                continue; // spurious connection drop before the first frame
            }
            if self.opts.max_conns != 0 && self.conns.len() >= self.opts.max_conns {
                // Best-effort rejection that must not block the loop: the
                // socket goes nonblocking *before* the write, so a peer that
                // connects with a full receive window costs one WouldBlock,
                // not a stalled event loop. A peer that misses the frame
                // still sees the close.
                let mut stream = stream;
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let _ = write_frame(
                    &mut stream,
                    op::ERR,
                    &err_payload(
                        ErrorCode::Busy,
                        "connection limit reached",
                        Some(self.opts.busy_retry_ms),
                    ),
                );
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.conns.insert(id, Conn::new(stream));
            self.stats.conn_opened();
        }
    }
}

/// Peel complete frames off `conn`'s read buffer into pipeline slots,
/// answering `HELLO` and envelope failures inline and pushing every admitted
/// request onto `out`. Returns `true` when the connection must close now.
fn extract(
    opts: &FrontOptions,
    stats: &dyn FrontStats,
    id: u64,
    conn: &mut Conn,
    out: &mut Vec<Request>,
) -> bool {
    let mut extracted = false;
    while conn.can_extract(opts.max_pipeline) {
        match conn.next_frame() {
            FrameStep::Incomplete => break,
            FrameStep::BadLength(len) => {
                // cannot resync the stream after a bad length: reply, close
                let code = if len > MAX_FRAME_LEN {
                    ErrorCode::TooLarge
                } else {
                    ErrorCode::Malformed
                };
                conn.fail_and_close(encode_frame(
                    op::ERR,
                    &err_payload(code, &format!("bad frame length {len}"), None),
                ));
                break;
            }
            FrameStep::Frame {
                opcode,
                mut payload,
            } => {
                extracted = true;
                // The read fault site fires per parsed frame: a drop severs
                // the connection mid-stream, a stall stalls the loop, and a
                // bitflip corrupts one payload byte in flight — the v4
                // checksum rejects the frame as `ERR Corrupt`; a legacy
                // connection carries the damage into the decoder.
                match opts.fault.trip(FaultSite::Read) {
                    Some(FaultAction::Drop) => return true,
                    Some(FaultAction::BitFlip) if !payload.is_empty() => {
                        let at = payload.len() / 2;
                        payload[at] ^= 0x20;
                    }
                    _ => {}
                }
                if opcode == op::HELLO && !conn.is_v4() && conn.requests_begun() == 0 {
                    let reply = match Cursor::new(&payload).u16() {
                        Ok(theirs) => {
                            let negotiated = theirs.min(PROTOCOL_VERSION);
                            if negotiated >= 4 {
                                conn.set_v4();
                            }
                            encode_frame(op::OK_HELLO, &Builder::new().u16(negotiated).build())
                        }
                        Err(msg) => {
                            encode_frame(op::ERR, &err_payload(ErrorCode::Malformed, &msg, None))
                        }
                    };
                    conn.enqueue(&reply);
                    continue;
                }
                // Verify the checksum trailer before any byte reaches a
                // decoder. A mismatch rejects the *frame*, not the
                // connection: framing is intact, and the id hint lets the
                // client correlate the refusal.
                let mut wire = None;
                if conn.is_v4() {
                    match unwrap_v4(opcode, &payload) {
                        Ok((rid, inner)) => {
                            wire = Some(rid);
                            payload = inner.to_vec();
                        }
                        Err(e) => {
                            let (code, msg) = match e {
                                EnvelopeError::Checksum => {
                                    stats.crc_reject();
                                    (ErrorCode::Corrupt, "frame failed payload checksum")
                                }
                                EnvelopeError::TooShort => {
                                    (ErrorCode::Malformed, "v4 frame shorter than its envelope")
                                }
                            };
                            let rid = v4_req_id_hint(&payload);
                            let body = wrap_v4(op::ERR, rid, &err_payload(code, msg, None));
                            conn.enqueue(&encode_frame(op::ERR, &body));
                            continue;
                        }
                    }
                }
                if conn.in_flight > 0 {
                    stats.frame_pipelined();
                }
                out.push(Request {
                    conn: id,
                    seq: conn.begin_request(),
                    opcode,
                    payload,
                    wire,
                    received: Instant::now(),
                });
            }
        }
    }
    conn.compact();
    conn.update_read_deadline(opts.io_timeout, extracted);
    false
}
