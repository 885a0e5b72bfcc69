//! Protocol v4 client side: one connection, pipelined frames, replies
//! correlated by request id.
//!
//! The library `Client` is strictly one request at a time and encodes a
//! `LOAD` payload afresh on every call. The open loop needs one sender and
//! one receiver on a single connection, and the load phases send
//! ready-made payloads, so this module speaks the wire format directly
//! through the server crate's public codec (`write_frame`, `read_frame`,
//! `wrap_v4`, `unwrap_v4`). Set-up, STATS and the one-caller probes use
//! the library `Client`.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use trisolv_matrix::CscMatrix;
use trisolv_server::protocol::{
    op, parse_err, read_frame, unwrap_v4, wrap_v4, write_frame, Builder, Cursor, ErrorCode,
};
use trisolv_server::Fingerprint;

/// One decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Reply opcode (`op::OK_*` or `op::ERR`).
    pub opcode: u8,
    /// Echoed request id; `None` for a connection-scoped legacy `ERR`.
    pub rid: Option<u64>,
    /// Inner payload (envelope stripped).
    pub body: Vec<u8>,
}

impl Reply {
    /// The error code of an `ERR` reply (`None` for success replies and
    /// unknown codes).
    pub fn err_code(&self) -> Option<ErrorCode> {
        if self.opcode != op::ERR {
            return None;
        }
        parse_err(&self.body).ok().and_then(|(code, _, _)| code)
    }
}

/// Write half of a negotiated connection, shared by the threads that send
/// on it.
pub struct Sender {
    wr: Mutex<BufWriter<TcpStream>>,
}

impl Sender {
    /// Send one enveloped request frame.
    pub fn send(&self, opcode: u8, rid: u64, inner: &[u8]) -> io::Result<()> {
        let framed = wrap_v4(opcode, rid, inner);
        let mut w = self
            .wr
            .lock()
            .expect("sender lock poisoned by a panicked writer");
        write_frame(&mut *w, opcode, &framed)?;
        w.flush()
    }
}

/// Read half of a negotiated connection.
pub struct Receiver {
    rd: BufReader<TcpStream>,
}

impl Receiver {
    /// The underlying socket (for read timeouts).
    pub fn stream(&self) -> &TcpStream {
        self.rd.get_ref()
    }

    /// Block for the next reply frame and strip its envelope.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let (opcode, payload) = read_frame(&mut self.rd)?;
        match unwrap_v4(opcode, &payload) {
            Ok((rid, inner)) => Ok(Reply {
                opcode,
                rid: Some(rid),
                body: inner.to_vec(),
            }),
            // close-path errors stay legacy-encoded on a v4 connection
            Err(_) if opcode == op::ERR => Ok(Reply {
                opcode,
                rid: None,
                body: payload,
            }),
            Err(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply failed its v4 envelope: {e:?}"),
            )),
        }
    }
}

/// Open a TCP connection and negotiate protocol v4 with `HELLO`.
pub fn connect(addr: &str) -> io::Result<(Sender, Receiver)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut rd = BufReader::new(stream.try_clone()?);
    let mut wr = BufWriter::new(stream);
    write_frame(&mut wr, op::HELLO, &Builder::new().u16(4).build())?;
    wr.flush()?;
    let (opcode, body) = read_frame(&mut rd)?;
    let version = Cursor::new(&body).u16().unwrap_or(0);
    if opcode != op::OK_HELLO || version < 4 {
        return Err(io::Error::other(format!(
            "peer did not negotiate protocol v4 (opcode 0x{opcode:02x}, version {version})"
        )));
    }
    Ok((Sender { wr: Mutex::new(wr) }, Receiver { rd }))
}

/// A connection used one request at a time with ready-made payloads
/// (closed-loop callers and LOAD round trips).
pub struct SyncConn {
    tx: Sender,
    rx: Receiver,
    next_rid: u64,
}

impl SyncConn {
    /// Connect and negotiate v4.
    pub fn connect(addr: &str) -> io::Result<SyncConn> {
        let (tx, rx) = connect(addr)?;
        Ok(SyncConn {
            tx,
            rx,
            next_rid: 1,
        })
    }

    /// One request, one reply; the reply must correlate to the request.
    pub fn call(&mut self, opcode: u8, inner: &[u8]) -> io::Result<Reply> {
        let rid = self.next_rid;
        self.next_rid += 1;
        self.tx.send(opcode, rid, inner)?;
        let reply = self.rx.recv()?;
        match reply.rid {
            Some(got) if got != rid && reply.opcode != op::ERR => Err(io::Error::other(format!(
                "reply correlates to request {got}, expected {rid}"
            ))),
            _ => Ok(reply),
        }
    }
}

/// Requests in flight on a pipelined connection, keyed by request id.
/// The sender inserts before it writes; the receiver takes on reply, in
/// whatever order replies arrive.
pub struct Pending<T> {
    map: Mutex<HashMap<u64, T>>,
}

impl<T> Default for Pending<T> {
    fn default() -> Self {
        Pending {
            map: Mutex::new(HashMap::new()),
        }
    }
}

impl<T> Pending<T> {
    /// Register an in-flight request; returns how many are now in flight.
    pub fn insert(&self, rid: u64, v: T) -> usize {
        let mut m = self.map.lock().expect("pending table poisoned");
        let prev = m.insert(rid, v);
        assert!(prev.is_none(), "request id {rid} reused while in flight");
        m.len()
    }

    /// Claim the request a reply correlates to (`None` for an unknown or
    /// already-answered id).
    pub fn take(&self, rid: u64) -> Option<T> {
        self.map
            .lock()
            .expect("pending table poisoned")
            .remove(&rid)
    }

    /// Drain everything still in flight (requests never answered).
    pub fn drain(&self) -> Vec<T> {
        let mut m = self.map.lock().expect("pending table poisoned");
        m.drain().map(|(_, v)| v).collect()
    }
}

/// `LOAD` payload for a matrix (the lower-triangle CSC arrays).
pub fn load_payload(a: &CscMatrix) -> Vec<u8> {
    Builder::new()
        .u64(a.nrows() as u64)
        .u64(a.ncols() as u64)
        .u64(a.nnz() as u64)
        .usize_slice(a.colptr())
        .usize_slice(a.rowidx())
        .f64_slice(a.values())
        .build()
}

/// `SOLVE` payload: no deadline preference.
pub fn solve_payload(fp: Fingerprint, rhs: &[f64]) -> Vec<u8> {
    Builder::new()
        .fingerprint(fp)
        .u64(0)
        .u64(rhs.len() as u64)
        .f64_slice(rhs)
        .build()
}

/// Decode an `OK_SOLVED` payload into the solution.
pub fn parse_solved(body: &[u8]) -> Result<Vec<f64>, String> {
    let mut c = Cursor::new(body);
    let n = c.usize()?;
    let x = c.f64_vec(n)?;
    c.finish()?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A fake v4 peer: negotiates, reads `n` SOLVE frames, then answers
    /// them in reverse order, echoing each request's RHS as the solution.
    fn reversing_peer(n: usize) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut rd = BufReader::new(s.try_clone().unwrap());
            let mut wr = BufWriter::new(s);
            let (opc, _) = read_frame(&mut rd).unwrap();
            assert_eq!(opc, op::HELLO);
            write_frame(&mut wr, op::OK_HELLO, &Builder::new().u16(4).build()).unwrap();
            wr.flush().unwrap();
            let mut got = Vec::new();
            for _ in 0..n {
                let (opc, payload) = read_frame(&mut rd).unwrap();
                let (rid, inner) = unwrap_v4(opc, &payload).unwrap();
                let mut c = Cursor::new(inner);
                c.fingerprint().unwrap();
                c.u64().unwrap();
                let len = c.usize().unwrap();
                got.push((rid, c.f64_vec(len).unwrap()));
            }
            for (rid, rhs) in got.into_iter().rev() {
                let body = Builder::new().u64(rhs.len() as u64).f64_slice(&rhs).build();
                let framed = wrap_v4(op::OK_SOLVED, rid, &body);
                write_frame(&mut wr, op::OK_SOLVED, &framed).unwrap();
            }
            wr.flush().unwrap();
        });
        (addr, h)
    }

    #[test]
    fn out_of_order_replies_correlate_by_request_id() {
        let n = 16;
        let (addr, peer) = reversing_peer(n);
        let (tx, mut rx) = connect(&addr).unwrap();
        let pending: Pending<f64> = Pending::default();
        for i in 0..n {
            // rid i+100 carries the value i; the peer echoes it back
            let rid = 100 + i as u64;
            pending.insert(rid, i as f64);
            tx.send(
                op::SOLVE,
                rid,
                &solve_payload(Fingerprint(1, 2), &[i as f64]),
            )
            .unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..n {
            let reply = rx.recv().unwrap();
            let rid = reply.rid.unwrap();
            let want = pending.take(rid).expect("reply for a request in flight");
            assert_eq!(
                parse_solved(&reply.body).unwrap(),
                vec![want],
                "reply {rid} matched to the wrong request"
            );
            order.push(rid);
        }
        assert!(pending.drain().is_empty());
        assert_eq!(
            order.first(),
            Some(&(100 + n as u64 - 1)),
            "peer answered last-first"
        );
        peer.join().unwrap();
    }

    #[test]
    fn pending_refuses_double_claims() {
        let p: Pending<u8> = Pending::default();
        assert_eq!(p.insert(1, 7), 1);
        assert_eq!(p.insert(2, 8), 2);
        assert_eq!(p.take(2), Some(8));
        assert_eq!(p.take(2), None);
        assert_eq!(p.drain(), vec![7]);
    }
}
