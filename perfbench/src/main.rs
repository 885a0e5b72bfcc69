//! `trisolv` serving benchmark.
//!
//! ```text
//! trisolv-perfbench --workload <hot_solve|load_churn>
//!                   --seed <n> --seconds <s> --trace <0|1>
//!                   --server-bin <path to trisolv> [--rev <source revision>]
//!                   [--out-dir <dir for the traced run's spans>]
//! ```
//!
//! `--trace 0` is the timed run: it brings up the workload's server as
//! users run it (`trisolv serve` defaults, changing only the settings the
//! workload names), drives it open-loop at two
//! fixed rates and closed-loop with two callers, checks every answer, and
//! prints the end-to-end metrics. `--trace 1` is the separate traced run:
//! it replays the same generated inputs through each layer's public calls
//! and prints the per-layer metrics and the layer ledger. The last line of
//! standard output is the JSON result.
//!
//! `perfbench/run.py` builds the server binary and this harness from
//! source, then runs it; see `perfbench/README.md` for every metric.

mod layers;
mod phases;
mod procs;
mod report;
mod sched;
mod setup;
mod spans;
mod stats;
mod timed;
mod traced;
mod wire;
mod workload;

use std::process::ExitCode;

use report::{Env, Metrics};
use workload::Kind;

/// Parsed command line.
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the timed run.
    pub trace: bool,
    /// The `trisolv` binary to serve with.
    pub bin: String,
    /// Source revision for the environment stamp.
    pub rev: String,
    /// Where the traced run writes its spans.
    pub out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let name = need(get("--workload"), "--workload")?;
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = need(get("--seed"), "--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in [1, 600]".to_string());
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let bin = need(get("--server-bin"), "--server-bin")?;
    let rev = get("--rev").unwrap_or_else(|| "unknown".to_string());
    let out_dir = get("--out-dir").unwrap_or_else(|| "perfbench/out".to_string());
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        bin,
        rev,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env::probe(&args.rev);
    println!(
        "perfbench {} seed {} for {} s ({} run)",
        args.kind.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "timed" }
    );
    println!("env {}", env.to_json());
    let outcome = if args.trace {
        traced::run(&args, &env)
    } else {
        timed::run(&args)
    };
    match outcome {
        Ok(run) => {
            run.metrics.print_table();
            println!(
                "{}",
                report::result_line(run.correct, run.attempted, run.failed, &run.metrics)
            );
            if run.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers or failed requests; see above");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// What a run reports.
pub struct RunResult {
    /// Every answer verified and none failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed, refused, or answered wrongly.
    pub failed: usize,
    /// Metrics for the result line.
    pub metrics: Metrics,
}
