//! Ablation: relaxed supernode amalgamation, simulated and wall-clock.
//!
//! Fundamental supernodes on sparse problems are often narrow (width 1–3),
//! which starves the dense kernels and multiplies per-supernode startups.
//! Amalgamation pads a few explicit zeros to fatten supernodes. This
//! harness sweeps the relaxation on the serving benchmark's matrices and
//! reports, per setting: supernode count and mean width, padding, the
//! solve service's cache-entry estimate, the wall-clock cost of the
//! partition-dependent part of a LOAD (amalgamation + numeric
//! factorization + solve plan), sequential and threaded (t = 2) solve
//! times at nrhs 1 and 8, and the simulated T3D solve time T_P (p = 16)
//! next to them. The row marked `*` is the production rule
//! `trisolv_core::seq::RELAX`.
//!
//! Wall-clock cases are timed in rounds that visit the settings in
//! alternating order, taking each case's minimum within a round. A
//! reported time is the median of its per-round minima, and its speedup
//! the median of the per-round ratios to `(0, 0)` — paired within a
//! round, so a noisy neighbour slows both sides of a ratio alike.
//!
//! Run: `cargo run --release -p trisolv-bench --bin ablation_amalgamation`

use trisolv_analysis::Table;
use trisolv_bench::timing::measure;
use trisolv_core::mapping::SubcubeMapping;
use trisolv_core::seq::{self, RELAX};
use trisolv_core::tree::{solve_fb, SolveConfig};
use trisolv_core::{SolvePlan, ThreadedSolver};
use trisolv_factor::{seqchol, SupernodalFactor};
use trisolv_graph::{nd, Graph};
use trisolv_machine::MachineParams;
use trisolv_matrix::{gen, CscMatrix, DenseMatrix};
use trisolv_server::FactorEntry;
use trisolv_symbolic::SupernodePartition;

/// The swept relaxations `(relax_abs, relax_frac)`; `(0, 0)` is the
/// fundamental partition.
const SETTINGS: [(usize, f64); 7] = [
    (0, 0.0),
    (4, 0.05),
    (8, 0.1),
    (12, 0.05),
    RELAX,
    (16, 0.15),
    (64, 0.3),
];
/// Measurement rounds per wall-clock case.
const ROUNDS: usize = 9;
/// Per-case time budget within one round, in seconds.
const BUDGET: f64 = 0.05;

/// One swept partition with its factor and the wall-clock samples.
struct Case {
    part: SupernodePartition,
    factor: SupernodalFactor,
    plan: SolvePlan,
    /// per-round minimum seconds: factor+plan, seq r1, seq r8, t2 r1, t2 r8
    secs: Vec<[f64; 5]>,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn seq_solve(f: &SupernodalFactor, plan: &SolvePlan, b: &DenseMatrix) -> DenseMatrix {
    seq::backward(f, &seq::forward_with_plan(f, plan, b))
}

fn ablate(spec: &str) {
    let a: CscMatrix = gen::from_spec(spec).expect("valid spec");
    let n = a.ncols();
    let g = Graph::from_sym_lower(&a);
    let perm = nd::nested_dissection(&g, nd::NdOptions::default());
    let an = seqchol::analyze_with_perm(&a, &perm);
    let rhs = [gen::random_rhs(n, 1, 3), gen::random_rhs(n, 8, 3)];

    let mut cases: Vec<Case> = SETTINGS
        .iter()
        .map(|&(abs, frac)| {
            let part = an.part.amalgamate(abs, frac);
            let factor = seqchol::factor_supernodal(&an.pa, &part).expect("SPD");
            let plan = SolvePlan::new(&part).expect("nested partition");
            Case {
                part,
                factor,
                plan,
                secs: Vec::with_capacity(ROUNDS),
            }
        })
        .collect();
    // every setting answers within rounding of the fundamental one
    let x0 = seq_solve(&cases[0].factor, &cases[0].plan, &rhs[1]);
    for c in &cases {
        let x = seq_solve(&c.factor, &c.plan, &rhs[1]);
        let diff = x.max_abs_diff(&x0).expect("same shape");
        assert!(
            diff < 1e-10 * x0.norm_max().max(1.0),
            "{spec}: drift {diff:e}"
        );
    }

    for round in 0..ROUNDS {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..cases.len()).collect()
        } else {
            (0..cases.len()).rev().collect()
        };
        for &i in &order {
            let (abs, frac) = SETTINGS[i];
            let c = &mut cases[i];
            let t_factor = measure(2, BUDGET, || {
                let part = an.part.amalgamate(abs, frac);
                let f = seqchol::factor_supernodal(&an.pa, &part).expect("SPD");
                (SolvePlan::new(f.partition()).expect("nested"), f)
            })
            .min;
            let mut t = [t_factor, 0.0, 0.0, 0.0, 0.0];
            for (k, b) in rhs.iter().enumerate() {
                t[1 + k] = measure(5, BUDGET, || seq_solve(&c.factor, &c.plan, b)).min;
                let thr = ThreadedSolver::new(&c.factor)
                    .expect("nested")
                    .with_threads(2);
                let mut ws = thr.workspace(b.ncols());
                t[3 + k] = measure(5, BUDGET, || thr.forward_backward_with(b, &mut ws)).min;
            }
            c.secs.push(t);
        }
    }

    println!(
        "{spec} (N = {n}, fundamental supernodes {}); wall-clock ms (median of {ROUNDS} \
         alternating rounds) with speedup over (0, 0); entry KiB with its ratio to (0, 0); \
         T_P simulated at p = 16\n",
        an.part.nsup()
    );
    let mut table = Table::new(vec![
        "relax (abs, frac)",
        "snodes",
        "cols/snode",
        "pad %",
        "entry KiB",
        "factor+plan",
        "seq r1",
        "seq r8",
        "t2 r1",
        "t2 r8",
        "T_P r1",
        "T_P r10",
    ]);
    let base_nnz = an.part.nnz() as f64;
    let base_bytes = FactorEntry::estimate_bytes(&an.part, 8, &a) as f64;

    for (&(abs, frac), c) in SETTINGS.iter().zip(&cases) {
        let mapping = SubcubeMapping::new(&c.part, 16);
        let config = SolveConfig {
            nprocs: 16,
            block: 8,
            params: MachineParams::t3d(),
        };
        let tp: Vec<f64> = [1usize, 10]
            .iter()
            .map(|&nrhs| {
                let b = gen::random_rhs(n, nrhs, 3);
                solve_fb(&c.factor, &mapping, &b, &config).1.total_time
            })
            .collect();
        let mark = if (abs, frac) == RELAX { "*" } else { "" };
        let ms = |k: usize| {
            let t = median(c.secs.iter().map(|r| r[k]).collect());
            let speedup = median(
                cases[0]
                    .secs
                    .iter()
                    .zip(&c.secs)
                    .map(|(b, r)| b[k] / r[k])
                    .collect(),
            );
            format!("{:.2} ({speedup:.2}x)", t * 1e3)
        };
        table.push_row(vec![
            format!("{mark}({abs}, {frac})"),
            c.part.nsup().to_string(),
            format!("{:.2}", n as f64 / c.part.nsup() as f64),
            format!("{:+.1}", 100.0 * (c.part.nnz() as f64 / base_nnz - 1.0)),
            {
                let bytes = FactorEntry::estimate_bytes(&c.part, 8, &a) as f64;
                format!("{:.0} ({:.3})", bytes / 1024.0, bytes / base_bytes)
            },
            ms(0),
            ms(1),
            ms(2),
            ms(3),
            ms(4),
            format!("{:.3}", tp[0] * 1e3),
            format!("{:.3}", tp[1] * 1e3),
        ]);
    }
    println!("{}\n", table.render());
}

fn main() {
    println!(
        "amalgamation ablation ({} hardware threads; ratios are speedups over (0, 0))\n",
        trisolv_core::default_threads()
    );
    for spec in ["grid2d:112", "mesh2d:51:1", "grid3d:20"] {
        ablate(spec);
    }
    println!("Reading: the simulator prices padded flops at a flat rate and charges a");
    println!("supernode only through its message startups, so T_P barely moves on the 2-D");
    println!("problems (it drops ~30% on grid3d:20, where the pipelines are deep) and cannot");
    println!("rank partitions. Wall clock can: each supernode costs a fixed startup the flop");
    println!("count does not see, so mild relaxation solves ~1.1-2.1x faster (sequential and");
    println!("t = 2, nrhs 1 and 8) and factors ~1.3-2.9x faster than fundamental supernodes.");
    println!("Rows within ~15% of each other are within the round-to-round spread of a");
    println!("shared 2-vCPU machine. Beyond mild relaxation the speedups flatten while");
    println!("padding grows the cache entry past the fundamental one (entry ratio > 1:");
    println!("fewer factors per byte budget). The production rule (*) merges the most among");
    println!("the settings whose entries stay below fundamental; (8, 0.1), close in speed,");
    println!("grows some mesh2d:51 entries (a large separator merge pads more than it");
    println!("saves), which the cache-density test over mesh2d:51:1..16 rejects.");
}
