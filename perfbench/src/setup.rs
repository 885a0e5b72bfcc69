//! Bringing a workload's server up: spawn, load, first answer.

use std::time::{Duration, Instant};

use trisolv_matrix::CscMatrix;
use trisolv_server::protocol::ErrorCode;
use trisolv_server::{Client, ClientError, ClientOptions};

use crate::procs::Proc;
use crate::workload::{Checker, Inputs, Kind, Refs, Verdict};

/// One set-up: generate the inputs, spawn `trisolv serve` with the
/// defaults plus the settings the workload names, LOAD the working set and
/// wait for the first verified answer. Returns the server, the inputs and
/// the elapsed seconds.
pub fn set_up(
    bin: &str,
    kind: Kind,
    seed: u64,
    refs: &Refs,
) -> Result<(Proc, Inputs, f64), String> {
    let t0 = Instant::now();
    let inputs = Inputs::generate(kind, seed);
    let mut serve = vec!["serve".to_string(), "--addr".into(), "127.0.0.1:0".into()];
    serve.extend(inputs.serve_args(refs)?);
    let args: Vec<&str> = serve.iter().map(String::as_str).collect();
    let server = Proc::spawn(bin, &args).map_err(|e| format!("spawn failed: {e}"))?;
    let mut client = connect_retry(&server.addr)?;
    for m in &inputs.mats {
        load(&mut client, &m.a).map_err(|e| format!("set-up LOAD of {}: {e}", m.spec))?;
    }
    // the last matrix loaded is resident in every workload
    let last = inputs.mats.len() - 1;
    let x = client
        .solve(inputs.mats[last].fp, &inputs.mats[last].rhs[0])
        .map_err(|e| format!("set-up SOLVE: {e}"))?;
    if Checker::new(&inputs, refs).check(last, 0, &x) != Verdict::Ok {
        return Err("set-up SOLVE returned a wrong answer".to_string());
    }
    Ok((server, inputs, t0.elapsed().as_secs_f64()))
}

/// LOAD a matrix. A freshly spawned router answers `Busy` until its first
/// probes mark a backend healthy, so `Busy` is retried for up to 10 s.
pub fn load(client: &mut Client, a: &CscMatrix) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.load(a) {
            Ok(_) => return Ok(()),
            Err(ClientError::Server {
                code: Some(ErrorCode::Busy),
                ..
            }) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Connect and negotiate protocol v4, retrying briefly while a freshly
/// spawned process finishes starting up. Requests are single-shot.
pub fn connect_retry(addr: &str) -> Result<Client, String> {
    let opts = ClientOptions {
        retries: 0,
        ..ClientOptions::default()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect_with(addr, opts.clone()) {
            Ok(c) if c.negotiated_version() >= 4 => return Ok(c),
            Ok(c) => {
                return Err(format!(
                    "{addr} negotiated protocol v{}, not v4",
                    c.negotiated_version()
                ))
            }
            Err(e) if Instant::now() > deadline => return Err(format!("connect {addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
