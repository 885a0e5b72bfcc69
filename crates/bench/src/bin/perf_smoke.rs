//! CI perf gates on the factor `serve` solves with
//! (`SparseCholeskySolver::factor`, relaxed supernodes):
//!
//! 1. the subtree-mapped executor at one thread must stay within 10% of
//!    the sequential solver. The single-thread case is the executor's
//!    floor — one worker runs every subtree task and top supernode in
//!    postorder, so any gap versus `seq::forward_backward` is pure
//!    scheduling overhead (dep-counter atomics on the cut, arena staging).
//!    Bit-identity with the sequential answer is asserted before any
//!    timing.
//! 2. the sequential solve on the relaxed partition must be no slower than
//!    on the fundamental partition of the same ordering — the supernode
//!    relaxation must keep paying for itself.
//!
//! The gates are deliberately narrow: one matrix (grid2d 64×64), two RHS
//! widths, best-of-`ROUNDS` measurement with alternating order so one
//! noisy CI sample cannot fail the job.
//!
//! Exits non-zero (after printing every timing) if any case falls below
//! its floor.
//!
//! Run: `cargo run --release -p trisolv-bench --bin perf_smoke`

use trisolv_bench::timing::measure;
use trisolv_core::{seq, SparseCholeskySolver, ThreadedSolver};
use trisolv_factor::seqchol::{analyze_with_perm, factor_supernodal};
use trisolv_factor::SupernodalFactor;
use trisolv_graph::{nd, Graph};
use trisolv_matrix::{gen, DenseMatrix};

/// Minimum acceptable `seq_time / threaded_t1_time`.
const FLOOR: f64 = 0.9;
/// Minimum acceptable `fundamental_seq_time / relaxed_seq_time`.
const RELAX_FLOOR: f64 = 1.0;
/// Measurement rounds per variant; the best (smallest min) wins. The
/// two variants swap measurement order every round so slow clock drift
/// (turbo decay, thermal throttling) cannot systematically favor
/// whichever side is timed first.
const ROUNDS: usize = 4;

/// Best-of-[`ROUNDS`] minimum times of two variants, measured in
/// alternating order.
fn interleaved<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            ta = ta.min(measure(10, 0.25, &mut a).min);
            tb = tb.min(measure(10, 0.25, &mut b).min);
        } else {
            tb = tb.min(measure(10, 0.25, &mut b).min);
            ta = ta.min(measure(10, 0.25, &mut a).min);
        }
    }
    (ta, tb)
}

fn report(case: &str, what: [&str; 2], t: (f64, f64), floor: f64) -> bool {
    let ratio = t.0 / t.1;
    let verdict = if ratio >= floor { "ok" } else { "FAIL" };
    println!(
        "grid2d_64x64 {case}: {} {:.3?}  {} {:.3?}  ratio {ratio:.3} (floor {floor}) {verdict}",
        what[0],
        std::time::Duration::from_secs_f64(t.0),
        what[1],
        std::time::Duration::from_secs_f64(t.1),
    );
    ratio >= floor
}

fn main() {
    let a = gen::grid2d_laplacian(64, 64);
    let solver = SparseCholeskySolver::factor(&a).expect("SPD");
    let f = solver.factor_matrix();
    // the fundamental partition of the same ordering, for gate 2
    let g = Graph::from_sym_lower(&a);
    let perm = nd::nested_dissection(&g, nd::NdOptions::default());
    let an = analyze_with_perm(&a, &perm);
    assert_eq!(
        an.perm.as_slice(),
        solver.perm().as_slice(),
        "same ordering"
    );
    let fundamental: SupernodalFactor = factor_supernodal(&an.pa, &an.part).expect("SPD");

    let mut failed = false;
    for nrhs in [1usize, 8] {
        let b: DenseMatrix = gen::random_rhs(f.n(), nrhs, 42);
        let expect = seq::forward_backward(f, &b);
        let threaded = ThreadedSolver::new(f)
            .expect("valid partition")
            .with_threads(1);
        let mut ws = threaded.workspace(nrhs);
        let got = threaded.forward_backward_with(&b, &mut ws);
        assert_eq!(
            got.as_slice(),
            expect.as_slice(),
            "nrhs={nrhs}: t=1 executor is not bit-identical to seq"
        );
        let wide = seq::forward_backward(&fundamental, &b);
        let drift = wide.max_abs_diff(&expect).expect("same shape");
        assert!(
            drift < 1e-10 * wide.norm_max(),
            "nrhs={nrhs}: relaxed drift {drift:e}"
        );

        let t = interleaved(
            || seq::forward_backward(f, &b),
            || threaded.forward_backward_with(&b, &mut ws),
        );
        failed |= !report(
            &format!("nrhs={nrhs}"),
            ["seq", "subtree-map t=1"],
            t,
            FLOOR,
        );
        let t = interleaved(
            || seq::forward_backward(&fundamental, &b),
            || seq::forward_backward(f, &b),
        );
        failed |= !report(
            &format!("nrhs={nrhs}"),
            ["fundamental seq", "relaxed seq"],
            t,
            RELAX_FLOOR,
        );
    }
    if failed {
        eprintln!("perf_smoke: a gate fell below its floor");
        std::process::exit(1);
    }
    println!("perf_smoke: pass");
}
