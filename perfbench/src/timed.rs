//! The timed run: end-to-end metrics with tracing off.
//!
//! After set-up and an untimed warm-up, the run repeats [`ROUNDS`] rounds
//! of the same phases: open loop at the low rate, open loop at the high
//! rate, closed loop with two callers, and (where LOADs are not already
//! part of every operation) LOAD round trips. Around every phase it reads
//! how much CPU time the hypervisor stole from this VM.
//!
//! A shared 2-vCPU VM loses from none to a third of its CPU time to its
//! neighbours, in stretches of seconds to minutes, and a phase that loses
//! a few percent of it reads up to twice as slow at the tail. So each
//! metric pools the samples of the quiet phases of its kind (see
//! [`quiet`]). The choice rests on the host's steal counter alone, never
//! on the measured values, and a change that slows the program slows the
//! quiet phases as much as any other.

use std::fmt::Write as _;

use crate::phases::{self, PhaseOut};
use crate::report::Metrics;
use crate::setup;
use crate::stats::{self, median, nearest_rank, sorted};
use crate::workload::{Checker, Inputs, Refs};
use crate::{Args, RunResult};

/// Set-ups per run; `setup_s` and `rss_peak_mb` are their medians.
const SETUPS: usize = 7;

/// Rounds of phases per run: short phases (about a second at a 48 s
/// run), so that a quiet stretch of a few seconds still holds whole ones.
const ROUNDS: usize = 16;

/// A phase is quiet when the hypervisor stole at most this share (%) of
/// the machine's CPU time while it ran: two 10 ms ticks of a 0.9 s phase
/// on two vCPUs.
const QUIET_STEAL_PCT: f64 = 1.25;

/// Fewest phases of a kind a metric pools: the quietest ones stand in
/// when fewer are quiet.
const MIN_QUIET: usize = 2;

/// Untimed closed-loop warm-up before the measured phases, seconds.
const WARMUP_S: f64 = 1.0;

/// Tail percentile reported as `*_p90_*`: at these rates and run lengths
/// a p99 rests on too few samples to repeat from run to run.
pub const TAIL: f64 = 90.0;

/// A run is invalid, not reported, when the generator's send lag p99 over
/// the open-loop phases exceeds this many milliseconds: it fell grossly
/// behind its own schedule. Latency is timed from the due time either
/// way, so a late send is never hidden; the limit only rejects runs whose
/// offered rate was not the rate asked for. (Disturbed stretches of a
/// shared VM push the p99 lag to ~100 ms on valid runs.)
const LAG_LIMIT_MS: f64 = 250.0;

/// Share of `--seconds` each phase gets, summed over the rounds:
/// `(low, high, closed, load)`. `load_churn`'s LOADs happen inside its
/// operations, so it needs no LOAD phase, and its low rate gets the most
/// time because it offers the fewest requests.
fn shares(inputs: &Inputs) -> (f64, f64, f64, f64) {
    if inputs.kind.reloads() {
        (0.4, 0.3, 0.3, 0.0)
    } else {
        (0.3, 0.3, 0.25, 0.15)
    }
}

/// `(steal, total)` CPU ticks of the whole machine so far, from
/// `/proc/stat`; `None` where it cannot be read.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Percent of the machine's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings; 0 where `/proc/stat` cannot be read.
fn steal_pct(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

/// One measured phase and the share of CPU time stolen while it ran.
struct Measured {
    out: PhaseOut,
    steal: f64,
}

/// Run a phase and read the steal around it.
fn measure(phase: impl FnOnce() -> std::io::Result<PhaseOut>) -> Result<Measured, String> {
    let t = cpu_ticks();
    let out = phase().map_err(|e| format!("load phase failed: {e}"))?;
    Ok(Measured {
        out,
        steal: steal_pct(t, cpu_ticks()),
    })
}

/// Indices, in round order, of the quiet phases among `steal` (one entry
/// per phase of one kind): every phase with at most [`QUIET_STEAL_PCT`]
/// stolen, and at least the [`MIN_QUIET`] quietest, the earlier round
/// first among equals.
fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let calm = steal.iter().filter(|&&s| s <= QUIET_STEAL_PCT).count();
    order.truncate(calm.max(MIN_QUIET));
    order.sort_unstable();
    order
}

/// The timed run.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let kind = args.kind;
    let refs = Refs::compute(&Inputs::generate(kind, args.seed))?;

    let mut setup_s = Vec::new();
    let mut setup_rss = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let (server, inputs, secs) = setup::set_up(&args.bin, kind, args.seed, &refs)?;
        setup_s.push(secs);
        setup_rss.push(server.rss_peak_kib().unwrap_or(0) as f64 / 1024.0);
        if i + 1 < SETUPS {
            server.stop();
        } else {
            live = Some((server, inputs));
        }
    }
    let (server, inputs) = live.expect("at least one set-up");
    let checker = Checker::new(&inputs, &refs);
    let addr = server.addr.clone();
    let (low_rps, high_rps) = kind.rates();
    let (sl, sh, sc, sd) = shares(&inputs);
    let per = args.seconds / ROUNDS as f64;

    // untimed warm-up: lazy workspaces, page faults
    phases::closed_loop(&addr, &inputs, &checker, 2, WARMUP_S, args.seed ^ 0x40)
        .map_err(|e| format!("warm-up failed: {e}"))?;
    let ticks0 = cpu_ticks();
    // per phase kind (low, high, closed, load), one entry per round
    let mut kinds: [Vec<Measured>; 4] = Default::default();
    for r in 0..ROUNDS as u64 {
        let seed = args.seed ^ (r << 16);
        kinds[0].push(measure(|| {
            phases::open_loop(&addr, &inputs, &checker, low_rps, sl * per, seed ^ 0x10)
        })?);
        kinds[1].push(measure(|| {
            phases::open_loop(&addr, &inputs, &checker, high_rps, sh * per, seed ^ 0x20)
        })?);
        kinds[2].push(measure(|| {
            phases::closed_loop(&addr, &inputs, &checker, 2, sc * per, seed ^ 0x30)
        })?);
        if !kind.reloads() {
            kinds[3].push(measure(|| phases::load_loop(&addr, &inputs, sd * per))?);
        }
    }
    // a hypervisor that takes CPU time from this VM slows every latency;
    // the log says how much it took
    println!(
        "machine: steal {:.1}% of CPU time during the rounds",
        steal_pct(ticks0, cpu_ticks())
    );
    let serving_rss = server.rss_peak_kib().unwrap_or(0) as f64 / 1024.0;
    server.stop();
    println!("set-ups: {setup_s:.3?} s");
    println!(
        "server peak RSS: {setup_rss:.1?} MB after each set-up, {serving_rss:.1} MB after serving"
    );

    // outside the timed window: ω of every kept answer
    let (checked, wrong_kept) = checker.verify_kept();
    let mut all = PhaseOut::default();
    for phase in kinds.iter().flatten() {
        all.absorb(&phase.out);
    }
    let failed = all.failed + all.refused + all.wrong + wrong_kept;
    let error_share = failed as f64 / all.attempted.max(1) as f64;
    println!(
        "ops: {} attempted, {} ok, {} failed, {} refused, {} wrong; {} LOAD misses; error_share {error_share}",
        all.attempted,
        all.ok(),
        all.failed,
        all.refused,
        all.wrong + wrong_kept,
        all.misses
    );
    println!(
        "checked: every answer against an ω-verified reference; {checked} kept answers re-verified \
         to ω ≤ 1e-10"
    );
    let lag = sorted(all.lag_ms.clone());
    let lag_p99 = nearest_rank(&lag, 99.0).unwrap_or(0.0);
    println!(
        "generator: lag p99 {lag_p99:.3} ms, backlog max {} (limit {LAG_LIMIT_MS} ms)",
        all.backlog_max
    );
    if lag_p99 > LAG_LIMIT_MS {
        return Err(format!(
            "run invalid: the generator fell {lag_p99:.1} ms behind its schedule (limit {LAG_LIMIT_MS} ms)"
        ));
    }
    write_phases(args, &kinds);

    // the quiet phases of each kind, pooled
    let mut pooled: [PhaseOut; 4] = Default::default();
    for (k, (phases, pool)) in kinds.iter().zip(&mut pooled).enumerate() {
        if phases.is_empty() {
            continue;
        }
        let steal: Vec<f64> = phases.iter().map(|p| p.steal).collect();
        let picked = quiet(&steal);
        for &i in &picked {
            pool.absorb(&phases[i].out);
        }
        println!(
            "  {} phases: steal % {steal:.1?}; pooled {picked:?}",
            KIND_NAMES[k]
        );
    }
    let tail = format!("p{}", TAIL as u32);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    // LOAD steps inside missing operations, or the LOAD round trips
    let loads: Vec<f64> = pooled
        .iter()
        .flat_map(|p| p.load_ms.iter().copied())
        .collect();
    for (name, samples) in [
        ("solve_{}_ms.low", pooled[0].lat_ms.clone()),
        ("solve_{}_ms.high", pooled[1].lat_ms.clone()),
        ("load_{}_ms", loads),
    ] {
        let samples = sorted(samples);
        println!(
            "  {}: {} samples, {} beyond {tail}",
            name.replace("{}", "*"),
            samples.len(),
            stats::beyond(&samples, TAIL)
        );
        for (label, p) in [("p50", 50.0), (tail.as_str(), TAIL)] {
            let v =
                nearest_rank(&samples, p).ok_or_else(|| format!("no pooled samples for {name}"))?;
            m.put(name.replace("{}", label), v, "ms");
        }
    }
    m.put(
        "solve_rps",
        pooled[2].ok() as f64 / pooled[2].elapsed,
        "1/s",
    );
    m.put("rss_peak_mb", median(&setup_rss), "MB");
    Ok(RunResult {
        correct: failed == 0,
        attempted: all.attempted,
        failed,
        metrics: m,
    })
}

/// Phase kinds in the order of the timed run's rounds.
const KIND_NAMES: [&str; 4] = ["low", "high", "closed", "load"];

/// Write every phase's steal and samples to
/// `<out-dir>/phases-<workload>-<seed>.jsonl`, one JSON object a line, so
/// a run's figures can be derived again. A write failure only loses the
/// file.
fn write_phases(args: &Args, kinds: &[Vec<Measured>; 4]) {
    let mut text = String::new();
    for (k, phases) in kinds.iter().enumerate() {
        for (round, p) in phases.iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"kind\": \"{}\", \"round\": {round}, \"steal_pct\": {}, \"ok\": {}, \
                 \"elapsed_s\": {}, \"lat_ms\": {:?}, \"load_ms\": {:?}}}",
                KIND_NAMES[k],
                p.steal,
                p.out.ok(),
                p.out.elapsed,
                p.out.lat_ms,
                p.out.load_ms
            );
        }
    }
    let path = format!(
        "{}/phases-{}-{}.jsonl",
        args.out_dir,
        args.kind.name(),
        args.seed
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&path, text))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::quiet;

    #[test]
    fn quiet_pools_every_calm_phase_and_at_least_two() {
        // five calm phases of sixteen (one tick of steal is still calm)
        let mut steal = vec![3.0; 16];
        for (i, s) in [(1, 0.0), (4, 0.6), (9, 0.0), (10, 1.2), (15, 0.0)] {
            steal[i] = s;
        }
        assert_eq!(quiet(&steal), vec![1, 4, 9, 10, 15]);
        // one calm phase: the next quietest stands in, the earlier round
        // first among equals
        let steal = [9.0, 2.0, 0.0, 30.0, 2.0, 2.5, 2.0, 8.0];
        assert_eq!(quiet(&steal), vec![1, 2]);
        // steal everywhere: still the two quietest
        assert_eq!(quiet(&[4.0, 3.0, 2.0, 1.5, 5.0]), vec![2, 3]);
    }
}
