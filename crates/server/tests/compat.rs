//! Protocol version-compat matrix against a v4 server (satellite c).
//!
//! Rolling-upgrade invariant: a v4 server must serve pre-v4 clients
//! byte-unchanged. A legacy client never sends `HELLO`; its frames carry
//! no envelope and its replies must carry none either. A v4 client
//! negotiates up front and gets request ids echoed plus a checksum
//! trailer on every reply. The late-`HELLO` and corrupt-frame cases are
//! front-end behaviour shared with the router and run against both in
//! `crates/router/tests/frontend.rs`.

use trisolv_matrix::gen;
use trisolv_server::{Client, ClientOptions, EngineOptions, ExecMode, Server, ServerOptions};

fn spawn_server() -> trisolv_server::RunningServer {
    Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        engine: EngineOptions {
            exec: ExecMode::Seq,
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    })
    .unwrap()
}

fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing stat {key}"))
        .1
}

/// A legacy client (no `HELLO`, bare frames) round-trips every opcode
/// against a v4 server exactly as it did against a v3 one.
#[test]
fn legacy_client_works_unchanged_against_a_v4_server() {
    let server = spawn_server();
    // `Client::connect` never negotiates: this is the v2/v3 wire dialect.
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    assert_eq!(client.negotiated_version(), 3);

    let a = gen::grid2d_laplacian(6, 6);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(36, 1, 11);
    let x = client.solve(fp, b.col(0)).unwrap();
    assert_eq!(x.len(), 36);
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "cache_entries"), 1);
    assert_eq!(stat(&stats, "crc_rejects"), 0);
    assert!(client.evict(fp).unwrap());

    server.shutdown();
    server.join();
}

/// A client pinned to `max_version: 3` behaves identically to a legacy
/// one — `connect_with` skips the handshake entirely.
#[test]
fn max_version_pin_skips_negotiation() {
    let server = spawn_server();
    let mut client = Client::connect_with(
        &server.local_addr().to_string(),
        ClientOptions {
            max_version: 3,
            ..ClientOptions::default()
        },
    )
    .unwrap();
    assert_eq!(client.negotiated_version(), 3);
    let a = gen::grid2d_laplacian(5, 5);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(25, 1, 3);
    assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 25);
    server.shutdown();
    server.join();
}

/// The default client negotiates v4 and the answers match a legacy
/// client's bit for bit — the envelope is framing, not semantics.
#[test]
fn v4_client_negotiates_and_answers_match_legacy() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let mut v4 = Client::connect_with(&addr, ClientOptions::default()).unwrap();
    assert_eq!(v4.negotiated_version(), 4);
    let mut legacy = Client::connect(addr).unwrap();

    let a = gen::grid2d_laplacian(7, 7);
    let fp = v4.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(49, 1, 5);
    let x4 = v4.solve(fp, b.col(0)).unwrap();
    let x3 = legacy.solve(fp, b.col(0)).unwrap();
    assert_eq!(x4, x3, "negotiated framing must not change the numbers");

    // pipelined v4 traffic: several requests in flight, ids keep replies
    // straight even though this client reads them in order
    for _ in 0..5 {
        assert_eq!(v4.solve(fp, b.col(0)).unwrap(), x3);
    }
    server.shutdown();
    server.join();
}

/// The `write.bitflip` fault site corrupts server replies *after* the
/// envelope is sealed, so a negotiated client's checksum check must catch
/// every flipped reply — silent wire corruption cannot become a wrong
/// answer.
#[test]
fn server_write_bitflips_are_caught_by_the_client_checksum() {
    let server = Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        engine: EngineOptions {
            exec: ExecMode::Seq,
            ..EngineOptions::default()
        },
        fault: trisolv_server::FaultPlan::parse("write.bitflip=every:2").unwrap(),
        ..ServerOptions::default()
    })
    .unwrap();
    let mut client =
        Client::connect_with(&server.local_addr().to_string(), ClientOptions::default()).unwrap();
    assert_eq!(client.negotiated_version(), 4);

    let a = gen::grid2d_laplacian(5, 5);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(25, 1, 7);
    let mut caught = 0;
    for _ in 0..6 {
        match client.solve(fp, b.col(0)) {
            Ok(x) => assert_eq!(x.len(), 25),
            Err(e) => {
                assert!(
                    e.to_string().contains("checksum"),
                    "flipped reply must fail the checksum, got: {e}"
                );
                caught += 1;
                // the stream itself is intact; the same connection serves on
            }
        }
    }
    assert!(
        caught >= 2,
        "every other reply was flipped; caught {caught}"
    );
    server.shutdown();
    drop(client);
    server.join();
}
