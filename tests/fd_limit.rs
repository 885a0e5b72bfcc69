//! Regression: out of file descriptors, the front end must park its
//! listener instead of spinning on it — for `serve` and `route` alike,
//! which share that front end.
//!
//! When `accept` fails with EMFILE the refused connection stays queued, so
//! the level-triggered listener reports ready again at once. A loop that
//! just returns to `poll` burns a full core until a descriptor frees up.
//! Each drill runs the real binary under `ulimit -n`, holds more
//! connections open than the limit allows, and reads the child's CPU time
//! from `/proc/<pid>/stat` while it waits; then it frees the descriptors
//! and checks that a fresh client is answered.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use trisolv_server::{Client, ClientOptions, Server, ServerOptions};

/// Descriptor limit for the child: room for its own sockets plus a few
/// clients, far fewer than the drill connects.
const NOFILE: usize = 16;
/// Connections the drill holds open against the child.
const HELD: usize = 40;

/// Kills the child if a check fails before it shut down.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// CPU time (utime + stime) of process `pid` in milliseconds.
fn cpu_ms(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("linux procfs");
    // fields after the parenthesized comm, so spaces in the name are safe;
    // utime/stime are fields 14/15 (1-indexed), i.e. 11/12 from field 3
    let rest = &stat[stat.rfind(')').expect("stat comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    // USER_HZ is 100 on every mainstream Linux configuration
    (utime + stime) * 1000 / 100
}

/// Start `trisolv <args>` under the descriptor limit and return it with
/// the address from its announce line.
fn spawn_limited(args: &str) -> (Reaper, String) {
    let exe = env!("CARGO_BIN_EXE_trisolv");
    let mut child = Command::new("sh")
        .args(["-c", &format!("ulimit -n {NOFILE}; exec '{exe}' {args}")])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("listening on"), "announce line: {line:?}");
    let addr = line.split_whitespace().nth(3).unwrap().to_string();
    (Reaper(child), addr)
}

fn client(addr: &str) -> Client {
    Client::connect_with(
        addr,
        ClientOptions {
            request_timeout: Duration::from_secs(5),
            ..ClientOptions::default()
        },
    )
    .unwrap()
}

fn drill(mut child: Reaper, addr: &str) {
    let pid = child.0.id();
    let held: Vec<TcpStream> = (0..HELD)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // let the child run into the limit, then watch it wait
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ms(pid);
    std::thread::sleep(Duration::from_millis(1000));
    let spent = cpu_ms(pid) - before;
    assert!(
        spent < 300,
        "the child burned {spent} ms of CPU in 1000 ms while out of descriptors"
    );

    // descriptors free up: the backlog drains and a fresh client is served
    drop(held);
    let mut c = client(addr);
    assert!(!c.stats().unwrap().is_empty());
    c.shutdown_server().unwrap();
    let start = Instant::now();
    while child.0.try_wait().unwrap().is_none() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "child never exited"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn serve_out_of_descriptors_does_not_spin() {
    let (child, addr) = spawn_limited("serve --addr 127.0.0.1:0 --workers 2");
    drill(child, &addr);
}

#[test]
fn route_out_of_descriptors_does_not_spin() {
    let backend = Server::spawn(ServerOptions {
        workers: 2,
        ..ServerOptions::default()
    })
    .unwrap();
    let (child, addr) = spawn_limited(&format!(
        "route --addr 127.0.0.1:0 --backends {} --replication 1",
        backend.local_addr()
    ));
    // the backend connection comes first, so the flood cannot starve it
    let mut c = client(&addr);
    let start = Instant::now();
    while c
        .stats()
        .unwrap()
        .iter()
        .all(|(k, v)| k != "router_backends_healthy" || *v == 0)
    {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "router never healthy"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(c);
    drill(child, &addr);
    backend.join();
}
