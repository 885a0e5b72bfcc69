//! Load phases: open loop at a fixed offered rate, closed loop with a
//! fixed number of callers, and a LOAD round-trip phase.
//!
//! The generator is one process with at most two threads and two
//! connections (the container's `nproc`): the open loop uses one sender
//! and one receiver on a single pipelined connection; the closed loop
//! uses two callers with a connection each.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use trisolv_server::protocol::{op, ErrorCode};

use crate::sched;
use crate::wire::{self, Pending, Reply, SyncConn};
use crate::workload::{Checker, Inputs, Verdict};

/// What one phase observed.
#[derive(Debug, Default, Clone)]
pub struct PhaseOut {
    /// Operation latencies (ms), verified answers only; open loop: from
    /// the due time.
    pub lat_ms: Vec<f64>,
    /// LOAD step latencies (ms).
    pub load_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed (error reply, lost, or timed out).
    pub failed: usize,
    /// Operations refused with `ERR Busy`.
    pub refused: usize,
    /// Operations answered wrongly.
    pub wrong: usize,
    /// Send lag behind the schedule (ms), open loop only.
    pub lag_ms: Vec<f64>,
    /// Most operations in flight at any send, open loop only.
    pub backlog_max: usize,
    /// Operations that issued a LOAD (cache misses).
    pub misses: usize,
    /// Wall time of the phase (s).
    pub elapsed: f64,
}

impl PhaseOut {
    /// Fold another phase's counts and samples into this one.
    pub fn absorb(&mut self, o: &PhaseOut) {
        self.lat_ms.extend_from_slice(&o.lat_ms);
        self.load_ms.extend_from_slice(&o.load_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.refused += o.refused;
        self.wrong += o.wrong;
        self.lag_ms.extend_from_slice(&o.lag_ms);
        self.backlog_max = self.backlog_max.max(o.backlog_max);
        self.misses += o.misses;
        self.elapsed += o.elapsed;
    }

    /// Verified answers.
    pub fn ok(&self) -> usize {
        self.attempted - self.failed - self.refused - self.wrong
    }
}

/// Where an operation is in its SOLVE → (LOAD → SOLVE) chain.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Solve,
    Load(Instant),
    Retry,
}

/// One in-flight operation of the open loop.
#[derive(Debug, Clone, Copy)]
struct Req {
    m: usize,
    r: usize,
    due: Instant,
    stage: Stage,
}

/// How a reply advanced an operation.
enum Step {
    Done(Verdict),
    Failed {
        refused: bool,
    },
    /// Send this follow-up request for the same operation.
    Next(u8, Stage),
}

/// Decide what a reply means for an operation at `stage`.
fn advance(
    inputs: &Inputs,
    checker: &Checker,
    m: usize,
    r: usize,
    stage: Stage,
    reply: &Reply,
) -> Step {
    match (stage, reply.opcode) {
        (Stage::Solve | Stage::Retry, op::OK_SOLVED) => match wire::parse_solved(&reply.body) {
            Ok(x) => Step::Done(checker.check(m, r, &x)),
            Err(_) => Step::Done(Verdict::Wrong),
        },
        (Stage::Solve, op::ERR)
            if inputs.kind.reloads() && reply.err_code() == Some(ErrorCode::UnknownFingerprint) =>
        {
            Step::Next(op::LOAD, Stage::Load(Instant::now()))
        }
        (Stage::Load(_), op::OK_LOADED) => Step::Next(op::SOLVE, Stage::Retry),
        _ => Step::Failed {
            refused: reply.err_code() == Some(ErrorCode::Busy),
        },
    }
}

fn payload(inputs: &Inputs, m: usize, r: usize, opcode: u8) -> Vec<u8> {
    let mat = &inputs.mats[m];
    if opcode == op::LOAD {
        mat.load.clone()
    } else {
        wire::solve_payload(mat.fp, &mat.rhs[r])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn tally(out: &mut PhaseOut, step: &Step) {
    match step {
        Step::Done(Verdict::Ok) => {}
        Step::Done(Verdict::Wrong) => out.wrong += 1,
        Step::Failed { refused: true } => out.refused += 1,
        Step::Failed { refused: false } => out.failed += 1,
        Step::Next(..) => {}
    }
}

/// Open loop: Poisson arrivals at `rate` per second for `secs`, pipelined
/// on one connection. Replies are correlated by request id; every
/// operation is timed from its due time.
pub fn open_loop(
    addr: &str,
    inputs: &Inputs,
    checker: &Checker,
    rate: f64,
    secs: f64,
    seed: u64,
) -> io::Result<PhaseOut> {
    let due = sched::poisson(rate, secs, seed);
    let ops = inputs.ops(due.len(), seed ^ 0x5eed);
    let total = due.len();
    let (tx, mut rx) = wire::connect(addr)?;
    let pending: Pending<Req> = Pending::default();
    let done = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    // replies still missing this long after the last due time are lost
    let drain_deadline = start + Duration::from_secs_f64(secs) + Duration::from_secs(10);
    // wake now and then to notice the drain deadline when replies are lost
    rx.stream().set_read_timeout(Some(Duration::from_secs(2)))?;

    let mut out = thread::scope(|s| -> io::Result<PhaseOut> {
        let receiver = s.spawn(|| {
            let mut got = PhaseOut::default();
            let mut next_rid = total as u64 + 1;
            while done.load(Ordering::Acquire) < total && Instant::now() < drain_deadline {
                let reply = match rx.recv() {
                    Ok(r) => r,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(_) => break,
                };
                let Some(req) = reply.rid.and_then(|rid| pending.take(rid)) else {
                    continue;
                };
                let step = advance(inputs, checker, req.m, req.r, req.stage, &reply);
                tally(&mut got, &step);
                if let Stage::Load(t) = req.stage {
                    if reply.opcode == op::OK_LOADED {
                        got.load_ms.push(ms(t.elapsed()));
                    }
                }
                match step {
                    Step::Next(opcode, stage) => {
                        if opcode == op::LOAD {
                            got.misses += 1;
                        }
                        let rid = next_rid;
                        next_rid += 1;
                        pending.insert(rid, Req { stage, ..req });
                        let body = payload(inputs, req.m, req.r, opcode);
                        if tx.send(opcode, rid, &body).is_err() {
                            pending.take(rid);
                            got.failed += 1;
                            done.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                    Step::Done(v) => {
                        if v == Verdict::Ok {
                            got.lat_ms.push(ms(req.due.elapsed()));
                        }
                        done.fetch_add(1, Ordering::AcqRel);
                    }
                    Step::Failed { .. } => {
                        done.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
            got
        });

        let mut sent = PhaseOut::default();
        for (k, (&offset, &(m, r))) in due.iter().zip(&ops).enumerate() {
            let when = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if when > now {
                thread::sleep(when - now);
            }
            sent.lag_ms
                .push(ms(Instant::now().saturating_duration_since(when)));
            let rid = k as u64 + 1;
            let inflight = pending.insert(
                rid,
                Req {
                    m,
                    r,
                    due: when,
                    stage: Stage::Solve,
                },
            );
            sent.backlog_max = sent.backlog_max.max(inflight);
            if tx
                .send(op::SOLVE, rid, &payload(inputs, m, r, op::SOLVE))
                .is_err()
            {
                pending.take(rid);
                sent.failed += 1;
                done.fetch_add(1, Ordering::AcqRel);
            }
        }
        let got = receiver.join().expect("receiver thread panicked");
        sent.absorb(&got);
        Ok(sent)
    })?;
    // anything still in flight at the drain deadline never got an answer
    out.failed += pending.drain().len();
    out.attempted = total;
    out.elapsed = secs;
    Ok(out)
}

/// Run one operation to completion on a blocking connection.
fn run_op(
    conn: &mut SyncConn,
    inputs: &Inputs,
    checker: &Checker,
    m: usize,
    r: usize,
    out: &mut PhaseOut,
) {
    let t0 = Instant::now();
    let mut stage = Stage::Solve;
    let mut opcode = op::SOLVE;
    out.attempted += 1;
    loop {
        let reply = match conn.call(opcode, &payload(inputs, m, r, opcode)) {
            Ok(reply) => reply,
            Err(_) => {
                out.failed += 1;
                return;
            }
        };
        if let Stage::Load(t) = stage {
            if reply.opcode == op::OK_LOADED {
                out.load_ms.push(ms(t.elapsed()));
            }
        }
        let step = advance(inputs, checker, m, r, stage, &reply);
        tally(out, &step);
        match step {
            Step::Next(next_op, next_stage) => {
                if next_op == op::LOAD {
                    out.misses += 1;
                }
                opcode = next_op;
                stage = next_stage;
            }
            Step::Done(Verdict::Ok) => {
                out.lat_ms.push(ms(t0.elapsed()));
                return;
            }
            _ => return,
        }
    }
}

/// Closed loop: `callers` blocking callers (one on this thread, the rest
/// spawned), each on its own connection, for `secs`.
pub fn closed_loop(
    addr: &str,
    inputs: &Inputs,
    checker: &Checker,
    callers: usize,
    secs: f64,
    seed: u64,
) -> io::Result<PhaseOut> {
    let mut conns = (0..callers)
        .map(|_| SyncConn::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let caller = |conn: &mut SyncConn, c: usize| {
        let mut out = PhaseOut::default();
        let mut ops = inputs.ops(4096, seed ^ (c as u64 + 1)).into_iter().cycle();
        while Instant::now() < end {
            let (m, r) = ops.next().expect("cycled");
            run_op(conn, inputs, checker, m, r, &mut out);
        }
        out
    };
    let mut total = thread::scope(|s| {
        let (first, rest) = conns.split_first_mut().expect("at least one caller");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || caller(conn, i + 1)))
            .collect();
        let mut total = caller(first, 0);
        for h in handles {
            total.absorb(&h.join().expect("caller thread panicked"));
        }
        total
    });
    total.elapsed = start.elapsed().as_secs_f64();
    Ok(total)
}

/// LOAD round trips of the workload's first matrix (already resident)
/// by one caller for `secs`: what a client pays to (re-)register a
/// matrix.
pub fn load_loop(addr: &str, inputs: &Inputs, secs: f64) -> io::Result<PhaseOut> {
    let mut conn = SyncConn::connect(addr)?;
    let mut out = PhaseOut::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    while Instant::now() < end {
        out.attempted += 1;
        let t = Instant::now();
        match conn.call(op::LOAD, &inputs.mats[0].load) {
            Ok(reply) if reply.opcode == op::OK_LOADED => out.load_ms.push(ms(t.elapsed())),
            Ok(reply) if reply.err_code() == Some(ErrorCode::Busy) => out.refused += 1,
            _ => out.failed += 1,
        }
    }
    out.elapsed = start.elapsed().as_secs_f64();
    Ok(out)
}
