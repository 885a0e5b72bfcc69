//! Event-driven front-end tests: pipelining, idle fan-in, torn-frame
//! recovery, and the retry/overflow bug fixes. The client-facing
//! regressions shared with the router (pipeline-cap bursts, connection
//! limit, slow loris) run against both in `crates/router/tests/frontend.rs`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::{gen, DenseMatrix};
use trisolv_server::{protocol, protocol::op, protocol::ErrorCode};
use trisolv_server::{
    BatchOptions, Client, ClientError, ClientOptions, EngineOptions, ExecMode, FaultPlan, Server,
    ServerOptions,
};

fn opts(exec: ExecMode, max_batch: usize, workers: usize) -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        engine: EngineOptions {
            exec,
            batch: BatchOptions {
                max_batch,
                window: Duration::from_millis(2),
                wait_timeout: Duration::from_secs(20),
            },
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    }
}

/// Tentpole: N SOLVE frames written back-to-back on one connection (no
/// reads in between) come back in request order, each bit-identical to the
/// sequential solver on the same input.
#[test]
fn pipelined_solves_in_order_bit_identical() {
    let server = Server::spawn(opts(ExecMode::Seq, 4, 8)).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let n = 64;
    let a = gen::random_spd(n, 5, 321);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    let fp = client.load(&a).unwrap().fingerprint;

    // burst: all requests hit the wire before any reply is read
    let nreq = 12;
    let rhs: Vec<DenseMatrix> = (0..nreq).map(|i| gen::random_rhs(n, 1, i as u64)).collect();
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
        let (opcode, reply) = client.recv_raw().unwrap();
        assert_eq!(opcode, op::OK_SOLVED, "request {i}");
        let mut c = protocol::Cursor::new(&reply);
        let len = c.usize().unwrap();
        let x = c.f64_vec(len).unwrap();
        assert_eq!(
            x.as_slice(),
            reference.solve(b).col(0),
            "reply {i} out of order or not bit-identical"
        );
    }

    let stats = client.stats().unwrap();
    let get = |k: &str| stats.iter().find(|(key, _)| key == k).unwrap().1;
    assert!(get("frames_pipelined") >= 1, "burst never overlapped");
    assert!(get("connections_total") >= 1);
    assert!(get("connections_open") >= 1);

    client.shutdown_server().unwrap();
    server.join();
}

/// Satellite: hundreds of idle connections must not consume solver workers.
/// With only 2 workers, the old thread-per-connection front end parks both
/// on the first two idle sockets and the active client starves.
#[test]
fn many_idle_connections_dont_starve_service() {
    let server = Server::spawn(opts(ExecMode::Threaded, 4, 2)).unwrap();
    let addr = server.local_addr().to_string();

    let idle: Vec<TcpStream> = (0..300)
        .map(|_| TcpStream::connect(&addr).expect("idle connect"))
        .collect();

    // bounded reads so starvation fails fast instead of hanging the test
    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            request_timeout: Duration::from_secs(5),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let a = gen::grid2d_laplacian(8, 8);
    let fp = client.load(&a).unwrap().fingerprint;
    for seed in 0..4 {
        let b = gen::random_rhs(64, 1, seed);
        assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 64);
    }

    drop(idle);
    client.shutdown_server().unwrap();
    server.join();
}

/// Satellite: a torn reply desynchronizes the stream; the retrying client
/// must recover by reconnecting, never by reusing the poisoned connection —
/// re-pinned against the event loop's write-fault path.
#[test]
fn torn_frame_reply_recovers_via_reconnect() {
    let mut o = opts(ExecMode::Threaded, 4, 4);
    o.fault = FaultPlan::parse("write.torn=every:2").unwrap();
    let server = Server::spawn(o).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            retries: 8,
            backoff: Duration::from_millis(1),
            request_timeout: Duration::from_secs(2),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let a = gen::grid2d_laplacian(7, 7);
    let fp = client.load(&a).unwrap().fingerprint;
    for seed in 0..6 {
        let b = gen::random_rhs(49, 1, seed);
        let x = client.solve_with_retry(fp, b.col(0), 0).unwrap();
        assert_eq!(x.len(), 49);
    }
    assert!(
        client.retry_stats().reconnects >= 1,
        "torn replies must force reconnects: {:?}",
        client.retry_stats()
    );
    server.shutdown();
    server.join();
}

/// Satellite bugfix: a LOAD header with `ncols == u64::MAX` used to compute
/// `ncols + 1` unchecked (a debug-build panic answered `ERR Internal`); it
/// must be a structured `ERR Malformed` with the connection still usable.
#[test]
fn load_ncols_overflow_is_malformed() {
    let server = Server::spawn(opts(ExecMode::Threaded, 4, 4)).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let payload = protocol::Builder::new()
        .u64(1)
        .u64(u64::MAX) // ncols: ncols + 1 overflows
        .u64(0)
        .build();
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, op::LOAD, &payload).unwrap();
    client.send_raw(&frame).unwrap();
    let (opcode, reply) = client.recv_raw().unwrap();
    assert_eq!(opcode, op::ERR);
    let mut c = protocol::Cursor::new(&reply);
    assert_eq!(
        c.u16().unwrap(),
        ErrorCode::Malformed as u16,
        "overflow must be a malformed request, not an internal error"
    );

    // the connection survives and still serves
    let a = gen::grid2d_laplacian(5, 5);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(25, 1, 9);
    assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 25);

    client.shutdown_server().unwrap();
    server.join();
}

/// A minimal hostile "server" that answers every frame with a valid frame
/// carrying a garbage opcode, counting connections and frames served.
fn garbage_opcode_server() -> (String, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let conns = Arc::new(AtomicUsize::new(0));
    let frames = Arc::new(AtomicUsize::new(0));
    let (c, f) = (Arc::clone(&conns), Arc::clone(&frames));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            c.fetch_add(1, Ordering::SeqCst);
            loop {
                let mut len = [0u8; 4];
                if stream.read_exact(&mut len).is_err() {
                    break;
                }
                let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                if stream.read_exact(&mut body).is_err() {
                    break;
                }
                f.fetch_add(1, Ordering::SeqCst);
                // valid framing, nonsense opcode: the client can parse the
                // frame but not interpret the reply
                let mut reply = Vec::new();
                protocol::write_frame(&mut reply, 0x60, &[0xAA; 4]).unwrap();
                if stream.write_all(&reply).is_err() {
                    break;
                }
            }
        }
    });
    (addr, conns, frames)
}

/// Satellite bugfix: a `Protocol` error means the stream may be
/// desynchronized, so `solve_with_retry` must reconnect before retrying and
/// go permanent once a *fresh* stream also replies garbage. The old code
/// retried on the same socket up to `retries` times.
#[test]
fn protocol_errors_retry_once_on_a_fresh_connection_only() {
    let (addr, conns, frames) = garbage_opcode_server();
    let fp = trisolv_server::Fingerprint(1, 2);

    // reconnect-capable client: attempt on conn 1, reconnect, attempt on
    // conn 2, then permanent — exactly 2 frames over exactly 2 connections
    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            retries: 5,
            backoff: Duration::from_millis(1),
            request_timeout: Duration::from_secs(2),
            // the fake server answers everything (a HELLO included) with
            // garbage; pin legacy so construction reaches the retry ladder
            max_version: 3,
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let err = client.solve_with_retry(fp, &[1.0, 2.0], 0).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    assert_eq!(
        frames.load(Ordering::SeqCst),
        2,
        "must not retry a desynchronized stream"
    );
    assert_eq!(conns.load(Ordering::SeqCst), 2);
    assert_eq!(client.retry_stats().reconnects, 1);

    // a client with no retained address cannot reconnect: one attempt, done
    let (addr2, conns2, frames2) = garbage_opcode_server();
    let mut bare = Client::connect(&addr2).unwrap();
    let err = bare.solve_with_retry(fp, &[1.0], 0).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    assert_eq!(frames2.load(Ordering::SeqCst), 1);
    assert_eq!(conns2.load(Ordering::SeqCst), 1);
}
