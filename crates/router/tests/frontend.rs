//! Client-facing front-end regressions, run against both `serve` and
//! `route`. The two share one front end (`trisolv_server::front`), so each
//! body runs twice: once with the server facing the client, once with a
//! router facing the client in front of a server.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::{gen, DenseMatrix};
use trisolv_router::{Router, RouterOptions, RunningRouter};
use trisolv_server::{protocol, protocol::op, protocol::ErrorCode};
use trisolv_server::{
    BatchOptions, Client, ClientOptions, EngineOptions, ExecMode, RunningServer, Server,
    ServerOptions,
};

/// Front-end settings a test applies to whichever process faces the client.
#[derive(Clone, Copy)]
struct Knobs {
    max_pipeline: usize,
    max_conns: usize,
    io_timeout: Duration,
}

impl Default for Knobs {
    fn default() -> Knobs {
        let d = ServerOptions::default();
        Knobs {
            max_pipeline: d.max_pipeline,
            max_conns: d.max_conns,
            io_timeout: d.io_timeout,
        }
    }
}

/// A server, optionally behind a router, and the address clients use.
struct Stack {
    addr: String,
    /// The STATS key counting client frames that failed their checksum.
    crc_key: &'static str,
    router: Option<RunningRouter>,
    server: RunningServer,
}

impl Stack {
    fn spawn(routed: bool, knobs: Knobs) -> Stack {
        let mut sopts = ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            engine: EngineOptions {
                exec: ExecMode::Seq,
                batch: BatchOptions {
                    max_batch: 4,
                    window: Duration::from_millis(2),
                    wait_timeout: Duration::from_secs(20),
                },
                ..EngineOptions::default()
            },
            ..ServerOptions::default()
        };
        if !routed {
            sopts.max_pipeline = knobs.max_pipeline;
            sopts.max_conns = knobs.max_conns;
            sopts.io_timeout = knobs.io_timeout;
        }
        let server = Server::spawn(sopts).unwrap();
        if !routed {
            return Stack {
                addr: server.local_addr().to_string(),
                crc_key: "crc_rejects",
                router: None,
                server,
            };
        }
        let router = Router::spawn(RouterOptions {
            backends: vec![server.local_addr().to_string()],
            replication: 1,
            probe_interval: Duration::from_millis(20),
            max_pipeline: knobs.max_pipeline,
            max_conns: knobs.max_conns,
            io_timeout: knobs.io_timeout,
            ..RouterOptions::default()
        })
        .unwrap();
        assert!(router.wait_healthy(1, Duration::from_secs(10)));
        Stack {
            addr: router.local_addr().to_string(),
            crc_key: "router_crc_rejects",
            router: Some(router),
            server,
        }
    }
}

/// Run `body` against the server alone, then against a router in front of
/// one, with `knobs` applied to whichever faces the client.
fn each_front(knobs: Knobs, body: impl Fn(&Stack)) {
    for routed in [false, true] {
        let stack = Stack::spawn(routed, knobs);
        body(&stack);
        if let Some(router) = stack.router {
            router.join();
        }
        stack.server.join();
    }
}

/// Read one `len | opcode | payload` frame off a raw socket.
fn read_frame(s: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut body)?;
    Ok((body[0], body[1..].to_vec()))
}

/// Regression: a burst larger than `max_pipeline` is drained into the
/// connection's read buffer by one socket read, where level-triggered poll
/// can never see it again — admission must resume when completions free
/// pipeline slots, not on socket readiness. With the cap at 1 the old loop
/// answered exactly one request and stranded the rest forever; a burst
/// under the default cap of 64 never trips this.
#[test]
fn burst_past_pipeline_cap_is_fully_answered() {
    let knobs = Knobs {
        max_pipeline: 1,
        ..Knobs::default()
    };
    each_front(knobs, |stack| {
        let addr = &stack.addr;
        // bounded reads so a stranded frame fails the test instead of
        // hanging it; pinned to the legacy protocol because the burst below
        // is raw legacy-framed bytes
        let mut client = Client::connect_with(
            addr,
            ClientOptions {
                request_timeout: Duration::from_secs(5),
                max_version: 3,
                ..ClientOptions::default()
            },
        )
        .unwrap();

        let n = 36;
        let a = gen::grid2d_laplacian(6, 6);
        let reference = SparseCholeskySolver::factor(&a).unwrap();
        let fp = client.load(&a).unwrap().fingerprint;

        let nreq = 8;
        let rhs: Vec<DenseMatrix> = (0..nreq)
            .map(|i| gen::random_rhs(n, 1, 100 + i as u64))
            .collect();
        let mut burst = Vec::new();
        for b in &rhs {
            let payload = protocol::Builder::new()
                .fingerprint(fp)
                .u64(0)
                .u64(n as u64)
                .f64_slice(b.col(0))
                .build();
            protocol::write_frame(&mut burst, op::SOLVE, &payload).unwrap();
        }
        client.send_raw(&burst).unwrap();
        for (i, b) in rhs.iter().enumerate() {
            let (opcode, reply) = client
                .recv_raw()
                .unwrap_or_else(|e| panic!("request {i} stranded past the pipeline cap: {e}"));
            assert_eq!(opcode, op::OK_SOLVED, "request {i}");
            let mut c = protocol::Cursor::new(&reply);
            let len = c.usize().unwrap();
            assert_eq!(
                c.f64_vec(len).unwrap().as_slice(),
                reference.solve(b).col(0),
                "reply {i} out of order"
            );
        }

        // EOF variant: the whole burst lands and the peer half-closes
        // before reading a single reply. Frames already in userspace owe
        // nothing to the socket — every one must still be answered, then
        // the front end closes. The old loop silently dropped everything
        // past the cap here.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&burst).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        for i in 0..nreq {
            let (opcode, _) = read_frame(&mut raw)
                .unwrap_or_else(|e| panic!("request {i} dropped at peer EOF: {e}"));
            assert_eq!(opcode, op::OK_SOLVED, "request {i} after half-close");
        }
        let mut probe = [0u8; 1];
        assert_eq!(
            raw.read(&mut probe).unwrap_or(0),
            0,
            "the front end must close once the flush drains"
        );
    });
}

/// Regression: rejecting a connection over `max_conns` must never block
/// the event loop — the `ERR Busy` write is best-effort on a nonblocking
/// socket, so peers that connect and never read cannot stall service for
/// the admitted connection.
#[test]
fn conn_limit_rejection_never_blocks_the_loop() {
    let knobs = Knobs {
        max_conns: 1,
        ..Knobs::default()
    };
    each_front(knobs, |stack| {
        let addr = &stack.addr;
        let mut client = Client::connect_with(
            addr,
            ClientOptions {
                request_timeout: Duration::from_secs(5),
                ..ClientOptions::default()
            },
        )
        .unwrap();
        let a = gen::grid2d_laplacian(6, 6);
        let fp = client.load(&a).unwrap().fingerprint;

        // peers that connect but never read a byte
        let rejected: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(addr).expect("reject connect"))
            .collect();

        // the admitted connection keeps being served promptly
        for seed in 0..4 {
            let b = gen::random_rhs(36, 1, seed);
            assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 36);
        }

        // each rejected peer got the best-effort ERR Busy, then a close
        for (i, mut s) in rejected.into_iter().enumerate() {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let (opcode, payload) = read_frame(&mut s)
                .unwrap_or_else(|e| panic!("rejected peer {i} never got ERR Busy: {e}"));
            assert_eq!(opcode, op::ERR, "peer {i}");
            let mut c = protocol::Cursor::new(&payload);
            assert_eq!(c.u16().unwrap(), ErrorCode::Busy as u16, "peer {i}");
            let mut probe = [0u8; 1];
            assert_eq!(
                s.read(&mut probe).unwrap_or(0),
                0,
                "peer {i} must be closed"
            );
        }
    });
}

/// A peer that starts a frame and stalls is cut loose with `ERR Timeout`
/// once the io budget expires.
#[test]
fn slow_loris_is_cut_loose() {
    let knobs = Knobs {
        io_timeout: Duration::from_millis(200),
        ..Knobs::default()
    };
    each_front(knobs, |stack| {
        let addr = &stack.addr;
        let mut loris = Client::connect(addr).unwrap();
        // length says 20 bytes; send the prefix plus two bytes and stall
        let mut partial = 20u32.to_le_bytes().to_vec();
        partial.extend_from_slice(&[op::SOLVE, 0x00]);
        loris.send_raw(&partial).unwrap();

        let (opcode, payload) = loris.recv_raw().expect("ERR Timeout before close");
        assert_eq!(opcode, op::ERR);
        let mut c = protocol::Cursor::new(&payload);
        assert_eq!(c.u16().unwrap(), ErrorCode::Timeout as u16);
        // ...and the connection is then closed
        assert!(loris.recv_raw().is_err());

        // a well-behaved client is untouched
        let mut client = Client::connect(addr).unwrap();
        let a = gen::grid2d_laplacian(6, 6);
        let fp = client.load(&a).unwrap().fingerprint;
        let b = gen::random_rhs(36, 1, 3);
        assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 36);
    });
}

/// `HELLO` after the first request is an unknown opcode (the v3 answer),
/// and the refusal leaves the connection serving.
#[test]
fn late_hello_is_refused_without_condemning_the_connection() {
    each_front(Knobs::default(), |stack| {
        let mut client = Client::connect(&stack.addr).unwrap();
        let a = gen::grid2d_laplacian(4, 4);
        let fp = client.load(&a).unwrap().fingerprint;

        let hello = protocol::Builder::new().u16(4).build();
        let mut bytes = Vec::new();
        protocol::write_frame(&mut bytes, op::HELLO, &hello).unwrap();
        client.send_raw(&bytes).unwrap();
        let (opcode, payload) = client.recv_raw().unwrap();
        assert_eq!(opcode, op::ERR);
        let (code, _, _) = protocol::parse_err(&payload).unwrap();
        assert_eq!(code, Some(ErrorCode::UnknownOpcode));

        // the connection still serves — and still in legacy framing
        let b = gen::random_rhs(16, 1, 9);
        assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 16);
    });
}

/// End-to-end integrity: a negotiated frame whose payload was flipped in
/// transit is refused as `ERR Corrupt`, counted, and the connection keeps
/// serving — one damaged frame is not a teardown.
#[test]
fn corrupt_v4_frame_is_rejected_and_the_connection_survives() {
    each_front(Knobs::default(), |stack| {
        let mut client = Client::connect(&stack.addr).unwrap();

        // negotiate by hand so the rest of the exchange can use raw frames
        let mut bytes = Vec::new();
        protocol::write_frame(
            &mut bytes,
            op::HELLO,
            &protocol::Builder::new().u16(4).build(),
        )
        .unwrap();
        client.send_raw(&bytes).unwrap();
        let (opcode, payload) = client.recv_raw().unwrap();
        assert_eq!(opcode, op::OK_HELLO);
        assert_eq!(protocol::Cursor::new(&payload).u16().unwrap(), 4);

        // a STATS wrapped in the v4 envelope, then one bit flipped
        // mid-payload
        let mut wrapped = protocol::wrap_v4(op::STATS, 7, &[]);
        let mid = wrapped.len() / 2;
        wrapped[mid] ^= 0x01;
        let mut bytes = Vec::new();
        protocol::write_frame(&mut bytes, op::STATS, &wrapped).unwrap();
        client.send_raw(&bytes).unwrap();
        let (opcode, payload) = client.recv_raw().unwrap();
        assert_eq!(opcode, op::ERR);
        let (_, inner) = protocol::unwrap_v4(op::ERR, &payload).expect("ERR reply is enveloped");
        let (code, _, _) = protocol::parse_err(inner).unwrap();
        assert_eq!(code, Some(ErrorCode::Corrupt));

        // the undamaged retry on the same connection succeeds, and the
        // reject shows up in the counters
        let wrapped = protocol::wrap_v4(op::STATS, 8, &[]);
        let mut bytes = Vec::new();
        protocol::write_frame(&mut bytes, op::STATS, &wrapped).unwrap();
        client.send_raw(&bytes).unwrap();
        let (opcode, payload) = client.recv_raw().unwrap();
        assert_eq!(opcode, op::OK_STATS);
        let (rid, inner) = protocol::unwrap_v4(op::OK_STATS, &payload).unwrap();
        assert_eq!(rid, 8, "reply echoes the request id");
        let mut c = protocol::Cursor::new(inner);
        let count = c.u64().unwrap();
        let mut crc_rejects = None;
        for _ in 0..count {
            let klen = c.u16().unwrap() as usize;
            let key = String::from_utf8(c.bytes(klen).unwrap().to_vec()).unwrap();
            let val = c.u64().unwrap();
            if key == stack.crc_key {
                crc_rejects = Some(val);
            }
        }
        assert_eq!(crc_rejects, Some(1), "the flipped frame was counted");
    });
}
