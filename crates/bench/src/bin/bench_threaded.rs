//! Shared-memory solver benchmark: subtree-mapped executor vs the
//! sequential solver.
//!
//! Measures forward+backward wall-clock on grid Laplacians for several
//! RHS widths, sweeping the executor width over 1, 2, 4, and the machine
//! maximum, and writes `BENCH_threaded.json` (plus a table on stdout).
//! Before timing anything, each executor width is gated on bit-identity
//! with the sequential solver — the subtree-mapped executor performs the
//! relay accumulation order exactly, on any thread count.
//!
//! Run: `cargo run --release -p trisolv-bench --bin bench_threaded`

use trisolv_bench::timing::{measure, stats_json, Json, Stats};
use trisolv_core::{seq, ThreadedSolver};
use trisolv_factor::seqchol::{analyze_with_perm, factor_supernodal};
use trisolv_factor::SupernodalFactor;
use trisolv_graph::{nd, Graph};
use trisolv_matrix::gen;

struct Case {
    name: &'static str,
    matrix: trisolv_matrix::CscMatrix,
    nrhs: usize,
}

fn factor(a: &trisolv_matrix::CscMatrix) -> SupernodalFactor {
    let g = Graph::from_sym_lower(a);
    let perm = nd::nested_dissection(&g, nd::NdOptions::default());
    let an = analyze_with_perm(a, &perm);
    factor_supernodal(&an.pa, &an.part).expect("SPD")
}

fn row(name: &str, variant: &str, s: Stats, baseline: Option<f64>) {
    let speedup = baseline.map_or(String::new(), |b| format!("  {:5.2}x", b / s.min));
    println!(
        "{name:28} {variant:16} min {:>10.3?} median {:>10.3?}{speedup}",
        std::time::Duration::from_secs_f64(s.min),
        std::time::Duration::from_secs_f64(s.median),
    );
}

fn main() {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench_threaded: forward+backward wall-clock ({hw} hw threads)\n");

    // Executor widths to sweep: 1, 2, 4, and the machine maximum.
    let mut sweep = vec![1usize, 2, 4, hw];
    sweep.sort_unstable();
    sweep.dedup();

    let cases = vec![
        Case {
            name: "grid2d_64x64_nrhs8",
            matrix: gen::grid2d_laplacian(64, 64),
            nrhs: 8,
        },
        Case {
            name: "grid2d_96x96_nrhs8",
            matrix: gen::grid2d_laplacian(96, 96),
            nrhs: 8,
        },
        Case {
            name: "grid2d_96x96_nrhs1",
            matrix: gen::grid2d_laplacian(96, 96),
            nrhs: 1,
        },
        Case {
            name: "grid3d_20x20x20_nrhs8",
            matrix: gen::grid3d_laplacian(20, 20, 20),
            nrhs: 8,
        },
    ];

    let mut out = Vec::new();
    for case in &cases {
        let f = factor(&case.matrix);
        let b = gen::random_rhs(f.n(), case.nrhs, 42);

        let expect = seq::forward_backward(&f, &b);
        let s_seq = measure(10, 1.0, || seq::forward_backward(&f, &b));
        row(case.name, "sequential", s_seq, None);

        let mut sweep_json = Vec::new();
        let mut s_max: Option<Stats> = None;
        for &t in &sweep {
            let solver = ThreadedSolver::new(&f)
                .expect("valid partition")
                .with_threads(t);
            let mut ws = solver.workspace(case.nrhs);
            let got = solver.forward_backward_with(&b, &mut ws);
            assert_eq!(
                got.as_slice(),
                expect.as_slice(),
                "{}: subtree-mapped executor at {t} threads is not bit-identical to seq",
                case.name
            );
            let s_t = measure(10, 1.0, || solver.forward_backward_with(&b, &mut ws));
            row(
                case.name,
                &format!("subtree-map t={t}"),
                s_t,
                Some(s_seq.min),
            );
            sweep_json.push(Json::obj(vec![
                ("threads", Json::Int(t as i64)),
                (
                    "n_subtree_tasks",
                    Json::Int(solver.schedule().n_tasks() as i64),
                ),
                (
                    "n_top_supernodes",
                    Json::Int(solver.schedule().top().len() as i64),
                ),
                ("stats", stats_json(s_t)),
                ("speedup_vs_seq", Json::Num(s_seq.min / s_t.min)),
            ]));
            if t == hw {
                s_max = Some(s_t);
            }
        }
        let s_best = s_max.expect("sweep ran");
        println!();

        out.push(Json::obj(vec![
            ("case", Json::Str(case.name.to_string())),
            ("n", Json::Int(f.n() as i64)),
            ("nsup", Json::Int(f.nsup() as i64)),
            ("nrhs", Json::Int(case.nrhs as i64)),
            ("executor_threads", Json::Int(hw as i64)),
            ("sequential", stats_json(s_seq)),
            ("subtree_mapped", stats_json(s_best)),
            ("speedup_vs_seq", Json::Num(s_seq.min / s_best.min)),
            ("thread_sweep", Json::Arr(sweep_json)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("threaded_solve".into())),
        ("hw_threads", Json::Int(hw as i64)),
        ("cases", Json::Arr(out)),
    ]);
    std::fs::write("BENCH_threaded.json", doc.pretty()).expect("write BENCH_threaded.json");
    println!("wrote BENCH_threaded.json");
}
