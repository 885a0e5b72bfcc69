//! Wall-clock micro-benchmarks for the dense and pipelined kernels.
//!
//! These are regression benches (real wall-clock, not virtual time): the
//! paper-figure artifacts come from the `fig*` binaries instead. The
//! harness is `trisolv_bench::timing` (plain `Instant` sampling) so the
//! suite builds offline with no external benchmarking crate.

use trisolv_bench::timing::{measure, Stats};
use trisolv_core::pipeline::{forward_column_priority, LocalTrapezoid};
use trisolv_factor::blas;
use trisolv_machine::{BlockCyclic1d, Group, Machine, MachineParams};
use trisolv_matrix::{gen, DenseMatrix};

fn report(group: &str, name: &str, s: Stats) {
    println!(
        "{group:10} {name:42} min {:>10.3?} median {:>10.3?} ({} iters)",
        std::time::Duration::from_secs_f64(s.min),
        std::time::Duration::from_secs_f64(s.median),
        s.iters
    );
}

fn random_lower(n: usize, seed: u64) -> DenseMatrix {
    let vals = gen::random_rhs(n * n, 1, seed);
    let mut l = DenseMatrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            l[(i, j)] = if i == j {
                3.0 + vals.as_slice()[i + j * n].abs()
            } else {
                vals.as_slice()[i + j * n] * 0.01
            };
        }
    }
    l
}

fn bench_blas() {
    for n in [64usize, 128] {
        let a = random_lower(n, 1);
        let s = measure(20, 0.5, || {
            let mut m = a.clone();
            blas::potrf_lower(m.as_mut_slice(), n, n).unwrap();
            m
        });
        report("blas", &format!("potrf/{n}"), s);
        let l = {
            let mut m = a.clone();
            blas::potrf_lower(m.as_mut_slice(), n, n).unwrap();
            m
        };
        let rhs = gen::random_rhs(n, 8, 2);
        let s = measure(20, 0.5, || {
            let mut x = rhs.clone();
            blas::trsm_lower_left(l.as_slice(), n, x.as_mut_slice(), n, n, 8);
            x
        });
        report("blas", &format!("trsm_lower_left_8rhs/{n}"), s);
    }
}

/// nrhs=1 vs nrhs=4 over the four solve kernels, pitting the gemv-shaped
/// single-RHS fast paths against the four-column blocked code on a
/// typical supernode trapezoid (t=64 columns, 128 below-rows).
fn bench_single_rhs_kernels() {
    let (t, below) = (64usize, 128usize);
    let l = random_lower(t, 5);
    let a = gen::random_rhs(below, t, 6);
    for nrhs in [1usize, 4] {
        let x0 = gen::random_rhs(t, nrhs, 7);
        let s = measure(30, 0.3, || {
            let mut x = x0.clone();
            blas::trsm_lower_left(l.as_slice(), t, x.as_mut_slice(), t, t, nrhs);
            x
        });
        report("blas1rhs", &format!("trsm_lower_left/{t} nrhs={nrhs}"), s);
        let s = measure(30, 0.3, || {
            let mut x = x0.clone();
            blas::trsm_lower_trans_left(l.as_slice(), t, x.as_mut_slice(), t, t, nrhs);
            x
        });
        report(
            "blas1rhs",
            &format!("trsm_lower_trans_left/{t} nrhs={nrhs}"),
            s,
        );
        let top = gen::random_rhs(t, nrhs, 8);
        let c0 = gen::random_rhs(below, nrhs, 9);
        let s = measure(30, 0.3, || {
            let mut c = c0.clone();
            blas::gemm_update(
                c.as_mut_slice(),
                below,
                a.as_slice(),
                below,
                top.as_slice(),
                t,
                below,
                nrhs,
                t,
            );
            c
        });
        report(
            "blas1rhs",
            &format!("gemm_update/{below}x{t} nrhs={nrhs}"),
            s,
        );
        let xb = gen::random_rhs(below, nrhs, 10);
        let ct0 = gen::random_rhs(t, nrhs, 11);
        let s = measure(30, 0.3, || {
            let mut c = ct0.clone();
            blas::gemm_tn_update(
                c.as_mut_slice(),
                t,
                a.as_slice(),
                below,
                xb.as_slice(),
                below,
                t,
                nrhs,
                below,
            );
            c
        });
        report(
            "blas1rhs",
            &format!("gemm_tn_update/{t}x{below} nrhs={nrhs}"),
            s,
        );
    }
}

fn bench_pipeline() {
    for q in [2usize, 4, 8] {
        let (n, t, b) = (256usize, 128usize, 8usize);
        let trap = {
            let full = random_lower(n, 3);
            full.sub_block(0, n, 0, t)
        };
        let layout = BlockCyclic1d::new(n, b, q);
        let machine = Machine::new(q, MachineParams::t3d());
        let s = measure(10, 0.5, || {
            machine.run(|p| {
                let group = Group::world(q);
                let local = LocalTrapezoid::from_global(&trap, &layout, p.rank());
                let mut rhs = DenseMatrix::zeros(local.positions.len(), 1);
                for v in rhs.as_mut_slice() {
                    *v = 1.0;
                }
                forward_column_priority(p, &group, 1, &layout, t, 1, &local, &mut rhs);
            })
        });
        report("pipeline", &format!("forward_column_priority/{q}"), s);
    }
}

fn bench_seq_solve() {
    let a = gen::grid2d_laplacian(63, 63);
    let solver = trisolv_core::SparseCholeskySolver::factor(&a).unwrap();
    let b1 = gen::random_rhs(a.ncols(), 1, 1);
    let b10 = gen::random_rhs(a.ncols(), 10, 1);
    report(
        "solver",
        "seq_fb_grid63_nrhs1",
        measure(10, 0.5, || solver.solve(&b1)),
    );
    report(
        "solver",
        "seq_fb_grid63_nrhs10",
        measure(10, 0.5, || solver.solve(&b10)),
    );
    let f = solver.factor_matrix();
    report(
        "solver",
        "threaded_fb_grid63_nrhs10",
        measure(10, 0.5, || {
            trisolv_core::threaded::forward_backward(f, &b10)
        }),
    );
    // wall-clock effect of supernode amalgamation (fatter dense blocks):
    // the production relaxation against the fundamental partition
    {
        let graph = trisolv_graph::Graph::from_sym_lower(&a);
        let perm =
            trisolv_graph::nd::nested_dissection(&graph, trisolv_graph::nd::NdOptions::default());
        let an = trisolv_factor::seqchol::analyze_with_perm(&a, &perm);
        let (abs, frac) = trisolv_core::seq::RELAX;
        for (name, part) in [
            (
                "seq_fb_grid63_nrhs10_amalgamated",
                an.part.amalgamate(abs, frac),
            ),
            ("seq_fb_grid63_nrhs10_fundamental", an.part.clone()),
        ] {
            let f = trisolv_factor::seqchol::factor_supernodal(&an.pa, &part).unwrap();
            report(
                "solver",
                name,
                measure(10, 0.5, || trisolv_core::seq::forward_backward(&f, &b10)),
            );
        }
        // simplicial CSC baseline: same arithmetic, column-at-a-time
        let l_csc = trisolv_factor::seqchol::factor_simplicial(&an.pa, &an.sym).unwrap();
        report(
            "solver",
            "seq_fb_grid63_nrhs10_simplicial_csc",
            measure(10, 0.5, || {
                let y = trisolv_core::seq::forward_csc(&l_csc, &b10);
                trisolv_core::seq::backward_csc(&l_csc, &y)
            }),
        );
    }
}

fn bench_orderings() {
    let a = gen::grid2d_laplacian(32, 32);
    let graph = trisolv_graph::Graph::from_sym_lower(&a);
    let coords = trisolv_graph::nd::grid2d_coords(32, 32, 1);
    report(
        "ordering",
        "nd_coords_grid32",
        measure(10, 0.5, || {
            trisolv_graph::nd::nested_dissection_coords(
                &graph,
                &coords,
                trisolv_graph::nd::NdOptions::default(),
            )
        }),
    );
    report(
        "ordering",
        "nd_bfs_grid32",
        measure(10, 0.5, || {
            trisolv_graph::nd::nested_dissection(&graph, trisolv_graph::nd::NdOptions::default())
        }),
    );
    report(
        "ordering",
        "rcm_grid32",
        measure(10, 0.5, || {
            trisolv_graph::rcm::reverse_cuthill_mckee(&graph)
        }),
    );
}

fn main() {
    bench_blas();
    bench_single_rhs_kernels();
    bench_pipeline();
    bench_seq_solve();
    bench_orderings();
}
