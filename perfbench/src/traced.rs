//! The traced run: the same generated inputs replayed through each
//! layer's public calls, with spans recorded around every call.
//!
//! Spans are replays, one call per layer per request id, linked to the
//! span of the next layer out for the same request:
//!
//! | span       | call timed                                              |
//! |------------|---------------------------------------------------------|
//! | `router`   | one-caller SOLVE through `trisolv route`                |
//! | `wire`     | one-caller SOLVE straight to a `trisolv serve`          |
//! | `lane`     | `Engine::solve`, default 1 ms batch window              |
//! | `engine`   | `Engine::solve` with a 0 ms window                      |
//! | `executor` | `ThreadedSolver` forward+backward                       |
//! | `kernel`   | the trsm/gemm kernels at every supernode's shape        |
//!
//! `refine::refine_mixed` on the demoted f32 factor is timed on its own:
//! no workload's SOLVEs ask for a certificate.
//!
//! A layer's self time is its span minus its children, so the ledger's
//! rows add up to the outermost span; the residual is what the open-loop
//! end-to-end p50 adds on top.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use trisolv_core::refine::refine_mixed;
use trisolv_core::{default_threads, RefineOptions, SparseCholeskySolver, ThreadedSolver};
use trisolv_matrix::DenseMatrix;
use trisolv_server::protocol::{encode_frame, op, unwrap_v4, wrap_v4, Builder};
use trisolv_server::{BatchOptions, Client, Engine, EngineOptions, Fingerprint};

use crate::layers::{self, secs, KernelBench};
use crate::phases::{self, PhaseOut};
use crate::procs::Proc;
use crate::report::{parse_size, Env, Metrics};
use crate::setup;
use crate::spans::{self_times, Recorder};
use crate::stats::{median, nearest_rank, sorted};
use crate::wire;
use crate::workload::{omega, Checker, Inputs, Kind, Refs, Verdict, OMEGA_TARGET};
use crate::{Args, RunResult};

/// Requests replayed through the layer chain for the ledger.
const LEDGER_REQUESTS: usize = 40;

/// One-caller SOLVEs of each tracing-overhead arm.
const OVERHEAD_REQUESTS: usize = 60;

/// Verified server answers the probes ask for: a routed and a direct
/// SOLVE per ledger request, two per overhead pair.
const PROBE_REQUESTS: usize = 2 * LEDGER_REQUESTS + 2 * OVERHEAD_REQUESTS;

/// Counter deltas between two STATS snapshots.
fn delta(after: &HashMap<String, u64>, before: &HashMap<String, u64>, key: &str) -> f64 {
    after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(key).copied().unwrap_or(0)) as f64
}

fn stats(client: &mut Client) -> Result<HashMap<String, u64>, String> {
    Ok(client
        .stats()
        .map_err(|e| format!("STATS: {e}"))?
        .into_iter()
        .collect())
}

/// One verified SOLVE of the primary matrix; `Err` on a failed or wrong
/// answer.
fn solve_once(
    client: &mut Client,
    inputs: &Inputs,
    checker: &Checker,
    r: usize,
) -> Result<(), String> {
    let m = &inputs.mats[0];
    let x = client
        .solve(m.fp, &m.rhs[r])
        .map_err(|e| format!("probe SOLVE: {e}"))?;
    match checker.check(0, r, &x) {
        Verdict::Ok => Ok(()),
        Verdict::Wrong => Err("probe SOLVE answered wrongly".to_string()),
    }
}

/// Raw loopback TCP echo of `bytes`-sized messages: the bound on what the
/// wire layer can cost per round trip. Median microseconds.
fn echo_rtt_us(bytes: usize, reps: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut buf = vec![0u8; bytes];
            for _ in 0..reps {
                peer.read_exact(&mut buf)?;
                peer.write_all(&buf)?;
            }
            Ok(())
        });
        let run = || -> std::io::Result<f64> {
            let mut c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            let mut buf = vec![7u8; bytes];
            let mut t = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (dt, r) = secs(|| {
                    c.write_all(&buf)?;
                    c.read_exact(&mut buf)
                });
                r?;
                t.push(dt * 1e6);
            }
            Ok(median(&t))
        };
        let rtt = run().map_err(|e| format!("echo: {e}"));
        let served = echo
            .join()
            .expect("echo thread panicked")
            .map_err(|e| format!("echo peer: {e}"));
        served.and(rtt)
    })
}

/// The traced run.
pub fn run(args: &Args, env: &Env) -> Result<RunResult, String> {
    let kind = args.kind;
    let s = args.seconds;
    let inputs = Inputs::generate(kind, args.seed);
    let refs = Refs::compute(&inputs)?;
    let checker = Checker::new(&inputs, &refs);
    let mut m = Metrics::default();
    let a = &inputs.mats[0].a;
    let n = a.nrows();

    // ---- factor: the factorization's three phases, per matrix
    let reps = if kind == Kind::LoadChurn { 1 } else { 3 };
    let mut parts = Vec::new();
    for mat in &inputs.mats {
        for _ in 0..reps {
            parts.push(layers::factor_parts(&mat.a)?);
        }
    }
    let med =
        |f: &dyn Fn(&layers::FactorParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    m.put("factor.order_ms", med(&|p| p.order_s * 1e3), "ms");
    m.put("factor.symbolic_ms", med(&|p| p.symbolic_s * 1e3), "ms");
    m.put("factor.numeric_ms", med(&|p| p.numeric_s * 1e3), "ms");
    m.put("factor.nnz_l", med(&|p| p.nnz_l as f64), "count");
    m.put("factor.flops", med(&|p| p.flops as f64), "count");

    // ---- fingerprint
    let fp_us: Vec<f64> = (0..20)
        .map(|_| secs(|| Fingerprint::of_matrix(a)).0 * 1e6)
        .collect();
    m.put("fingerprint.us", median(&fp_us), "us");

    // ---- kernel and executor on the primary matrix
    let solver = SparseCholeskySolver::factor(a).map_err(|e| e.to_string())?;
    let s32 = solver.demote();
    let (f64f, plan) = (solver.factor_matrix(), solver.plan());
    let f32f = s32.factor_matrix();
    let threads = default_threads();
    let sched = plan.subtree_schedule(threads);
    let t64 = ThreadedSolver::with_plan_schedule(f64f, plan, &sched);
    let t32 = ThreadedSolver::with_plan_schedule(f32f, s32.plan(), &sched);
    let scalar_bytes = 8;
    let k1 = KernelBench::new(f64f, plan, 1).median_sweep(15);
    let k8 = KernelBench::new(f64f, plan, 8).median_sweep(7);
    m.put("kernel.trsm_gflops.nrhs1", k1.trsm_gflops(), "GFLOP/s");
    m.put("kernel.trsm_gflops.nrhs8", k8.trsm_gflops(), "GFLOP/s");
    m.put("kernel.gemm_gflops.nrhs1", k1.gemm_gflops(), "GFLOP/s");
    m.put("kernel.gemm_gflops.nrhs8", k8.gemm_gflops(), "GFLOP/s");
    m.put(
        "kernel.flops_per_solve",
        layers::flops_per_solve(plan) as f64,
        "count",
    );
    let bytes = layers::bytes_per_solve(plan, scalar_bytes) as f64;
    m.put("kernel.bytes_per_solve", bytes, "B");

    // measured bounds: DRAM with 4x the LLC, L3 with the factor's size
    let llc = parse_size(&env.llc).unwrap_or(105 << 20);
    let factor_bytes = f64f.value_count() * scalar_bytes;
    m.put(
        "mem.dram_gbps",
        layers::read_gbps(4 * llc + (16 << 20), 3),
        "GB/s",
    );
    m.put(
        "mem.l3_gbps",
        layers::read_gbps(factor_bytes.clamp(1 << 20, llc / 2), 25),
        "GB/s",
    );

    let pb1 = layers::permuted(solver.perm(), &inputs.mats[0].rhs[0], 1);
    let pb8 = layers::permuted(solver.perm(), &inputs.mats[0].rhs[0], 8);
    m.put(
        "executor.seq_us.nrhs1",
        layers::seq_secs(f64f, plan, &pb1, 31) * 1e6,
        "us",
    );
    let thr1 = layers::threaded_secs(&t64, &pb1, 41) * 1e6;
    m.put("executor.threaded_us.nrhs1", thr1, "us");
    m.put(
        "executor.threaded_us.nrhs8",
        layers::threaded_secs(&t64, &pb8, 21) * 1e6,
        "us",
    );
    let thr32 = layers::threaded_secs(&t32, &pb1, 41) * 1e6;
    m.put("executor.f32_us.nrhs1", thr32, "us");
    m.put(
        "executor.gbps_computed",
        bytes / (thr1 * 1e-6) / 1e9,
        "GB/s",
    );
    m.put("executor.nsup", plan.nsup() as f64, "count");
    m.put(
        "executor.cols_per_snode",
        n as f64 / plan.nsup() as f64,
        "count",
    );
    let slot = sched.slot_flops();
    let mean_slot = slot.iter().sum::<u64>() as f64 / slot.len().max(1) as f64;
    m.put(
        "executor.slot_imbalance",
        slot.iter().copied().max().unwrap_or(0) as f64 / mean_slot.max(1.0),
        "ratio",
    );

    // ---- refine: mixed-precision refinement on the f32 factor; a
    // certified result must recompute to ω ≤ 1e-10 and agree with the
    // ω it reports
    let ropts = RefineOptions::default();
    let mut sweeps = Vec::new();
    let mut refine_t = Vec::new();
    let mut direct_t = Vec::new();
    let mut fallbacks = 0usize;
    let mut omega_max = 0.0f64;
    let mut refine_wrong = 0usize;
    for b in inputs.mats[0].rhs.iter().take(16) {
        let bm = DenseMatrix::column_vector(b);
        direct_t.push(secs(|| s32.solve(&bm)).0);
        let (dt, out) = secs(|| refine_mixed(&s32, a, &bm, &ropts));
        let (x, report) = out.map_err(|e| format!("refine_mixed: {e}"))?;
        refine_t.push(dt);
        sweeps.push(report.iterations as f64);
        omega_max = omega_max.max(report.backward_error);
        if report.certified {
            let w = omega(a, x.col(0), b);
            let agrees = (report.backward_error - w).abs() <= 1e-3 * w + 1e-15;
            refine_wrong += usize::from(!(w <= OMEGA_TARGET && agrees));
        } else {
            fallbacks += 1;
        }
    }
    let mean_sweeps = sweeps.iter().sum::<f64>() / sweeps.len() as f64;
    m.put("refine.sweeps_per_solve", mean_sweeps, "count");
    m.put(
        "refine.us_per_sweep",
        (median(&refine_t) - median(&direct_t)) / mean_sweeps * 1e6,
        "us",
    );
    m.put(
        "refine.fallback_share",
        fallbacks as f64 / sweeps.len() as f64,
        "ratio",
    );
    m.put("refine.omega_max", omega_max, "ratio");

    // ---- engine, in-process, as `serve` configures it
    let eopts = EngineOptions::default();
    let no_window = EngineOptions {
        batch: BatchOptions {
            window: Duration::ZERO,
            ..BatchOptions::default()
        },
        ..eopts
    };
    let mut miss = Vec::new();
    for mat in inputs
        .mats
        .iter()
        .take(if kind == Kind::LoadChurn { 8 } else { 3 })
    {
        let e = Engine::new(eopts);
        miss.push(secs(|| e.load(&mat.a)).0 * 1e3);
    }
    m.put("engine.load_miss_ms", median(&miss), "ms");
    let engine = Engine::new(eopts);
    let engine0 = Engine::new(no_window);
    let fp = engine.load(a).map_err(|e| e.to_string())?.fingerprint;
    engine0.load(a).map_err(|e| e.to_string())?;
    let hit: Vec<f64> = (0..10).map(|_| secs(|| engine.load(a)).0 * 1e3).collect();
    m.put("engine.load_hit_ms", median(&hit), "ms");

    // ---- the serving tier: traffic for the counters, then probes
    let (server, _, _) = setup::set_up(&args.bin, kind, args.seed, &refs)?;
    let mut ctl = setup::connect_retry(&server.addr)?;
    let before = stats(&mut ctl)?;
    let (low_rps, high_rps) = kind.rates();
    let io = |e: std::io::Error| format!("traffic: {e}");
    let low = phases::open_loop(
        &server.addr,
        &inputs,
        &checker,
        low_rps,
        0.2 * s,
        args.seed ^ 0x10,
    )
    .map_err(io)?;
    let high = phases::open_loop(
        &server.addr,
        &inputs,
        &checker,
        high_rps,
        0.2 * s,
        args.seed ^ 0x20,
    )
    .map_err(io)?;
    let after = stats(&mut ctl)?;
    let mut traffic = PhaseOut::default();
    traffic.absorb(&low);
    traffic.absorb(&high);

    let lag = sorted(high.lag_ms.clone());
    m.put(
        "gen.lag_p99_ms",
        nearest_rank(&lag, 99.0).unwrap_or(0.0),
        "ms",
    );
    m.put("gen.backlog_max", high.backlog_max as f64, "count");
    let d = |k: &str| delta(&after, &before, k);
    let lookups = d("hits") + d("misses");
    m.put(
        "cache.hit_share",
        if lookups > 0.0 {
            d("hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    m.put("cache.evictions", d("evictions"), "count");
    m.put(
        "cache.resident_mb",
        after.get("cache_bytes").copied().unwrap_or(0) as f64 / (1u64 << 20) as f64,
        "MB",
    );
    let mean_batch = if d("batches") > 0.0 {
        d("batched_cols") / d("batches")
    } else {
        0.0
    };
    m.put("lane.mean_batch", mean_batch, "count");
    m.put(
        "lane.fill_share",
        mean_batch / BatchOptions::default().max_batch as f64,
        "ratio",
    );
    m.put("engine.shed", d("shed"), "count");
    m.put("engine.exec_fallbacks", d("exec_fallbacks"), "count");
    m.put(
        "engine.precision_fallbacks",
        d("precision_fallbacks"),
        "count",
    );
    m.put("wire.frames_pipelined", d("frames_pipelined"), "count");
    m.put("wire.crc_rejects", d("crc_rejects"), "count");

    // a router in front of the server for the one-caller hop probes
    let router = Proc::spawn(
        &args.bin,
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--backends",
            &server.addr,
            "--replication",
            "1",
        ],
    )
    .map_err(|e| format!("router: {e}"));
    let out = router.and_then(|router| {
        let out = probe_and_ledger(
            &inputs,
            &checker,
            &mut m,
            &ProbeCtx {
                direct_addr: &server.addr,
                routed_addr: &router.addr,
                engine: &engine,
                engine0: &engine0,
                fp,
                solver: &solver,
                t64: &t64,
                e2e_p50_ms: median(&low.lat_ms),
            },
            &mut ctl,
        );
        router.stop();
        out
    });
    server.stop();
    let (rec, wrong) = out?;

    let (_, wrong_kept) = checker.verify_kept();
    let failed =
        traffic.failed + traffic.refused + traffic.wrong + wrong + wrong_kept + refine_wrong;
    let spans_path = format!("{}/spans-{}-{}.jsonl", args.out_dir, kind.name(), args.seed);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|_| std::fs::write(&spans_path, rec.to_jsonl()))
        .map_err(|e| format!("writing {spans_path}: {e}"))?;
    println!("spans: {} written to {spans_path}", rec.spans().len());
    Ok(RunResult {
        correct: failed == 0,
        attempted: traffic.attempted + PROBE_REQUESTS + sweeps.len(),
        failed,
        metrics: m,
    })
}

/// What the one-caller probes need.
struct ProbeCtx<'a> {
    direct_addr: &'a str,
    routed_addr: &'a str,
    engine: &'a Engine,
    engine0: &'a Engine,
    fp: Fingerprint,
    solver: &'a SparseCholeskySolver,
    t64: &'a ThreadedSolver<'a, trisolv_factor::SupernodalFactor>,
    e2e_p50_ms: f64,
}

/// Wire and router probes, the span ledger, and the tracing overhead.
/// Returns the recorder and the number of wrong probe answers.
fn probe_and_ledger(
    inputs: &Inputs,
    checker: &Checker,
    m: &mut Metrics,
    cx: &ProbeCtx,
    ctl: &mut Client,
) -> Result<(Recorder, usize), String> {
    let kind = inputs.kind;
    let mut direct = setup::connect_retry(cx.direct_addr)?;
    let mut routed = setup::connect_retry(cx.routed_addr)?;
    // the primary matrix may have been evicted by the traffic
    for client in [&mut direct, &mut routed] {
        setup::load(client, &inputs.mats[0].a).map_err(|e| format!("probe LOAD: {e}"))?;
    }
    let rbefore = stats(&mut routed)?;

    // wire bounds and codec: encode a SOLVE request frame and decode an
    // `OK_SOLVED` reply frame carrying the reference answer
    let req_bytes = wire::solve_payload(cx.fp, &inputs.mats[0].rhs[0]).len();
    m.put("wire.echo_rtt_us", echo_rtt_us(req_bytes, 200)?, "us");
    let st: Vec<f64> = (0..50).map(|_| secs(|| stats(ctl)).0 * 1e6).collect();
    m.put("wire.stats_rtt_us", median(&st), "us");
    let x0 = checker.reference(0, 0);
    let reply_body = Builder::new().u64(x0.len() as u64).f64_slice(x0).build();
    let reply_frame = wrap_v4(op::OK_SOLVED, 1, &reply_body);
    let codec: Vec<f64> = (0..200)
        .map(|i| {
            secs(|| {
                let p =
                    wire::solve_payload(cx.fp, &inputs.mats[0].rhs[i % inputs.mats[0].rhs.len()]);
                let framed = encode_frame(op::SOLVE, &wrap_v4(op::SOLVE, i as u64, &p));
                let (_, inner) = unwrap_v4(op::OK_SOLVED, &reply_frame).expect("own frame");
                (framed.len(), wire::parse_solved(inner).map(|x| x.len()))
            })
            .0 * 1e6
        })
        .collect();
    m.put("wire.codec_us", median(&codec), "us");

    // the ledger: one replay per layer per request
    let mut rec = Recorder::default();
    let mut wrong = 0usize;
    let nr = inputs.mats[0].rhs.len();
    let pbs: Vec<DenseMatrix> = inputs.mats[0]
        .rhs
        .iter()
        .map(|b| layers::permuted(cx.solver.perm(), b, 1))
        .collect();
    let mut k64 = KernelBench::new(cx.solver.factor_matrix(), cx.solver.plan(), 1);
    let mut ws64 = cx.t64.workspace(1);
    for i in 0..LEDGER_REQUESTS {
        let r = i % nr;
        let req = i as u64;
        let b = &inputs.mats[0].rhs[r];
        let (router, res) = rec.time("router", req, None, || {
            solve_once(&mut routed, inputs, checker, r)
        });
        wrong += usize::from(res.is_err());
        let (wire_sp, res) = rec.time("wire", req, Some(router), || {
            solve_once(&mut direct, inputs, checker, r)
        });
        wrong += usize::from(res.is_err());
        let verdict = |x: Option<Vec<f64>>| match x {
            Some(x) => usize::from(checker.check(0, r, &x) != Verdict::Ok),
            None => 1,
        };
        let (lane, res) = rec.time("lane", req, Some(wire_sp), || {
            cx.engine.solve(cx.fp, b.clone())
        });
        wrong += verdict(res.ok());
        let (engine, res) = rec.time("engine", req, Some(lane), || {
            cx.engine0.solve(cx.fp, b.clone())
        });
        wrong += verdict(res.ok());
        let (exec, _) = rec.time("executor", req, Some(engine), || {
            cx.t64.forward_backward_with(&pbs[r], &mut ws64)
        });
        let (t0, t1) = k64.parallel_span(cx.t64.schedule());
        rec.push("kernel", req, Some(exec), t0, t1);
    }

    // per-layer self times and call durations, medians over requests
    let selfs = self_times(rec.spans());
    let layer = |name: &str| -> (f64, f64) {
        let (mut dur, mut own) = (Vec::new(), Vec::new());
        for (sp, st) in rec.spans().iter().zip(&selfs) {
            if sp.name == name {
                dur.push(sp.dur_us());
                own.push(*st);
            }
        }
        (median(&dur), median(&own))
    };
    let chain = ["kernel", "executor", "lane", "engine", "wire", "router"];
    let (_, router_self) = layer("router");
    let (wire_dur, wire_self) = layer("wire");
    let (lane_dur, lane_self) = layer("lane");
    m.put("engine.solve_us", lane_dur, "us");
    m.put("engine.self_us", layer("engine").1, "us");
    m.put("lane.wait_us", lane_self, "us");
    m.put("wire.solve_overhead_us", wire_self, "us");
    m.put("router.hop_us", router_self, "us");

    // the router's own counters over the probes
    let rafter = stats(&mut routed)?;
    let d = |k: &str| delta(&rafter, &rbefore, k);
    let hedges = d("router_hedges_sent");
    m.put(
        "router.hedge_share",
        hedges / d("router_requests").max(1.0),
        "ratio",
    );
    m.put(
        "router.hedge_win_share",
        if hedges > 0.0 {
            d("router_hedge_wins") / hedges
        } else {
            0.0
        },
        "ratio",
    );
    m.put("router.failovers", d("router_failovers"), "count");
    m.put("router.orphan_replies", d("router_orphan_replies"), "count");

    // tracing overhead: one-caller SOLVE with and without span recording
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut overhead_rec = Recorder::default();
    for i in 0..OVERHEAD_REQUESTS {
        let r = i % nr;
        let (dt, res) = secs(|| solve_once(&mut direct, inputs, checker, r));
        plain.push(dt * 1e6);
        wrong += usize::from(res.is_err());
        let t0 = std::time::Instant::now();
        let (_, res) = overhead_rec.time("wire", i as u64, None, || {
            solve_once(&mut direct, inputs, checker, r)
        });
        traced.push(t0.elapsed().as_secs_f64() * 1e6);
        wrong += usize::from(res.is_err());
    }
    let overhead = median(&traced) - median(&plain);

    // print the ledger
    println!(
        "ledger ({}, one caller, median self time per request over {LEDGER_REQUESTS} requests):",
        kind.name()
    );
    let mut on_path = 0.0;
    for name in chain {
        let own = layer(name).1;
        let in_e2e = name != "router";
        if in_e2e {
            on_path += own;
        }
        println!(
            "  {name:<9} {own:>10.1} us{}",
            if in_e2e {
                ""
            } else {
                "   (router hop: not on this workload's path)"
            }
        );
    }
    let e2e_us = cx.e2e_p50_ms * 1e3;
    println!("  sum of layers    {on_path:>10.1} us   (wire span p50 {wire_dur:.1} us)");
    println!("  end-to-end p50   {e2e_us:>10.1} us   (open loop at the low rate, untraced)");
    println!("  residual         {:>10.1} us   (queueing, batching and timing the ledger does not explain)", e2e_us - on_path);
    println!(
        "  tracing overhead {overhead:>10.1} us   (traced minus untraced one-caller SOLVE p50)"
    );
    m.put("ledger.residual_us", e2e_us - on_path, "us");
    m.put("trace.overhead_us", overhead, "us");
    Ok((rec, wrong))
}
