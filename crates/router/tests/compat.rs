//! Router version-compat matrix (satellite c) and the orphan-reply
//! regression (satellite a).
//!
//! The compatibility surface has two sides. Client-facing: v3 and v4
//! clients interleave on the same router, each served in its own framing.
//! Backend-facing: backends must speak v4, because replies are matched to
//! requests only by v4 request id. A pre-v4 backend refuses the router's
//! `HELLO` with `ERR UnknownOpcode`; the router treats that as a failed
//! connection, so the backend never receives a sub-request and clients get
//! a retryable `ERR Busy` instead of a hang. On a v4 backend a reply that
//! correlates to nothing (a duplicate, or a late frame after its
//! sub-request expired) is counted as an orphan and dropped while the
//! connection keeps serving.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trisolv_matrix::gen;
use trisolv_router::{Router, RouterOptions};
use trisolv_server::protocol::{self, op, ErrorCode};
use trisolv_server::{
    BatchOptions, Client, ClientError, ClientOptions, EngineOptions, ExecMode, Server,
    ServerOptions,
};

/// Every frame a stub backend received after its handshake, as
/// `(opcode, payload length)`.
type SeenFrames = Arc<Mutex<Vec<(u8, usize)>>>;

/// A hand-rolled backend that answers every STATS **twice** — the second
/// reply is exactly the stray frame that must never condemn a connection.
/// With `v4 == false` it is a pre-v4 backend: it refuses `HELLO` the way a
/// v3 server does (`ERR UnknownOpcode`, connection kept). With `v4 == true`
/// it accepts the handshake and envelopes its replies, echoing each
/// request id. Returns its address, the frames it saw, and how many
/// `HELLO`s it was sent.
fn spawn_legacy_backend(v4: bool) -> (String, SeenFrames, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let seen: SeenFrames = Arc::new(Mutex::new(Vec::new()));
    let hellos = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let hellos2 = Arc::clone(&hellos);
    std::thread::spawn(move || {
        // serve reconnects too: the router redials a failed backend
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            while let Ok((opcode, payload)) = protocol::read_frame(&mut stream) {
                let mut out = Vec::new();
                if opcode == op::HELLO {
                    hellos2.fetch_add(1, Ordering::Relaxed);
                    let (reply_op, reply) = if v4 {
                        (op::OK_HELLO, protocol::Builder::new().u16(4).build())
                    } else {
                        let p = protocol::err_payload(
                            ErrorCode::UnknownOpcode,
                            "unknown request opcode 0x06",
                            None,
                        );
                        (op::ERR, p)
                    };
                    protocol::write_frame(&mut out, reply_op, &reply).unwrap();
                    let _ = stream.write_all(&out);
                    continue;
                }
                seen2.lock().unwrap().push((opcode, payload.len()));
                let rid = protocol::v4_req_id_hint(&payload);
                let (reply_op, reply) = match opcode {
                    // a minimal OK_STATS: zero pairs
                    op::STATS => (op::OK_STATS, protocol::Builder::new().u64(0).build()),
                    _ => (
                        op::ERR,
                        protocol::err_payload(ErrorCode::UnknownFingerprint, "stub", None),
                    ),
                };
                let reply = if v4 {
                    protocol::wrap_v4(reply_op, rid, &reply)
                } else {
                    reply
                };
                protocol::write_frame(&mut out, reply_op, &reply).unwrap();
                if opcode == op::STATS {
                    // ...written twice: reply + unsolicited duplicate
                    out.extend_from_slice(&out.clone());
                }
                let _ = stream.write_all(&out);
            }
        }
    });
    (addr, seen, hellos)
}

fn get(stats: &[(String, u64)], k: &str) -> u64 {
    stats
        .iter()
        .find(|(key, _)| key == k)
        .unwrap_or_else(|| panic!("missing stat {k}"))
        .1
}

/// A backend that refuses `HELLO` is never used: it receives no
/// sub-request, and a client's SOLVE and LOAD come back as `ERR Busy`
/// with a retry hint — promptly, not after a hang.
#[test]
fn backend_that_refuses_hello_never_gets_a_sub_request() {
    let (addr, seen, hellos) = spawn_legacy_backend(false);
    let router = Router::spawn(RouterOptions {
        backends: vec![addr],
        replication: 1,
        probe_interval: Duration::from_millis(20),
        ..RouterOptions::default()
    })
    .unwrap();
    let start = Instant::now();
    while hellos.load(Ordering::Relaxed) < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the router must keep probing a refusing backend"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(router.healthy_backends(), 0, "a refusal is not a downgrade");

    let mut client = Client::connect_with(
        &router.local_addr().to_string(),
        ClientOptions {
            request_timeout: Duration::from_secs(5),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let a = gen::grid2d_laplacian(4, 4);
    let b = gen::random_rhs(16, 1, 3);
    let t0 = Instant::now();
    let solve = client.solve(trisolv_server::Fingerprint::of_matrix(&a), b.col(0));
    let load = client.load(&a);
    assert!(t0.elapsed() < Duration::from_secs(2), "answered, not hung");
    for (what, err) in [("solve", solve.unwrap_err()), ("load", load.unwrap_err())] {
        match err {
            ClientError::Server {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, Some(ErrorCode::Busy), "{what}");
                assert!(
                    retry_after_ms.is_some_and(|ms| ms > 0),
                    "{what}: retry hint"
                );
            }
            other => panic!("{what}: expected ERR Busy, got {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(get(&stats, "router_backends_healthy"), 0);
    assert!(
        seen.lock().unwrap().is_empty(),
        "a backend that refused HELLO received {:?}",
        seen.lock().unwrap()
    );

    drop(client);
    router.join();
}

/// The orphan regression on a v4 backend: the duplicate reply is counted,
/// dropped, and the connection keeps serving — it is never condemned.
#[test]
fn v4_duplicate_reply_is_an_orphan_and_does_not_condemn() {
    let (addr, seen, _hellos) = spawn_legacy_backend(true);
    let router = Router::spawn(RouterOptions {
        backends: vec![addr],
        replication: 1,
        probe_interval: Duration::from_millis(20),
        ..RouterOptions::default()
    })
    .unwrap();
    assert!(router.wait_healthy(1, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    // each STATS round trip provokes one duplicate backend reply
    let stats = client.stats().unwrap();
    assert_eq!(get(&stats, "router_backends_healthy"), 1);

    // the duplicate lands asynchronously; wait for the counter
    let start = Instant::now();
    while router.orphan_replies() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "orphan reply was never counted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // the stray frame must not have condemned the connection — the same
    // backend connection still answers
    let stats = client.stats().unwrap();
    assert_eq!(get(&stats, "router_backends_healthy"), 1);
    assert!(get(&stats, "router_orphan_replies") >= 1);
    assert_eq!(get(&stats, "router_crc_rejects"), 0);

    // every sub-request was enveloped: an empty STATS payload plus the
    // 24-byte v4 envelope
    for (opcode, plen) in seen.lock().unwrap().iter() {
        assert_eq!(*opcode, op::STATS);
        assert_eq!(*plen, protocol::V4_ENVELOPE_BYTES);
    }

    drop(client);
    router.join();
}

fn backend_opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        engine: EngineOptions {
            exec: ExecMode::Seq,
            batch: BatchOptions {
                max_batch: 4,
                window: Duration::from_millis(1),
                wait_timeout: Duration::from_secs(20),
            },
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    }
}

/// A mixed-version fleet round trip: v3 and v4 clients interleaved on
/// one router over v4 backends, every answer bit-identical.
#[test]
fn mixed_version_clients_round_trip_through_the_router() {
    let servers: Vec<_> = (0..2)
        .map(|_| Server::spawn(backend_opts()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::spawn(RouterOptions {
        backends: addrs,
        replication: 2,
        probe_interval: Duration::from_millis(20),
        ..RouterOptions::default()
    })
    .unwrap();
    assert!(router.wait_healthy(2, Duration::from_secs(10)));
    let raddr = router.local_addr().to_string();

    // a legacy client and a negotiated one on the same router
    let mut v3 = Client::connect(raddr.clone()).unwrap();
    assert_eq!(v3.negotiated_version(), 3);
    let mut v4 = Client::connect_with(&raddr, ClientOptions::default()).unwrap();
    assert_eq!(v4.negotiated_version(), 4);

    let a = gen::grid2d_laplacian(8, 8);
    let fp = v3.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(64, 1, 13);
    // interleave so both framings are live on the router at once
    for _ in 0..3 {
        let x3 = v3.solve(fp, b.col(0)).unwrap();
        let x4 = v4.solve(fp, b.col(0)).unwrap();
        assert_eq!(x3, x4, "framing must not change the numbers");
    }
    // the v4 client's STATS sees the fleet aggregation keys
    let stats = v4.stats().unwrap();
    assert!(stats.iter().any(|(k, _)| k == "router_hedges_sent"));
    assert!(stats.iter().any(|(k, _)| k == "router_orphan_replies"));

    drop(v3);
    drop(v4);
    router.join();
    for s in servers {
        s.join();
    }
}
