//! In-process layer measurements: each times calls into one layer's
//! public functions on the workload's own matrices.

use std::hint::black_box;
use std::time::Instant;

use trisolv_core::plan::{SolvePlan, SubtreeSchedule};
use trisolv_core::{seq, ThreadedSolver};
use trisolv_factor::blas;
use trisolv_factor::{seqchol, FScalar, FactorBlocks};
use trisolv_graph::{nd, Graph};
use trisolv_matrix::{CscMatrix, DenseMatrix};

use crate::stats::median;

/// Seconds `f` takes.
pub fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Sustained read bandwidth (GB/s) over `bytes` of `f64`, median of
/// `passes` full sweeps after one untimed warm sweep.
pub fn read_gbps(bytes: usize, passes: usize) -> f64 {
    let v = vec![1.0f64; bytes / 8];
    let sweep = |v: &[f64]| {
        let mut acc = [0.0f64; 8];
        for c in v.chunks_exact(8) {
            for (a, x) in acc.iter_mut().zip(c) {
                *a += x;
            }
        }
        acc.iter().sum::<f64>()
    };
    black_box(sweep(&v));
    let times: Vec<f64> = (0..passes)
        .map(|_| secs(|| sweep(black_box(&v))).0)
        .collect();
    (v.len() * 8) as f64 / median(&times) / 1e9
}

/// The factorization split into its parts, for one matrix.
pub struct FactorParts {
    /// Nested-dissection ordering (graph build + `nd::nested_dissection`).
    pub order_s: f64,
    /// Symbolic analysis (`seqchol::analyze_with_perm`).
    pub symbolic_s: f64,
    /// Numeric supernodal factorization plus solve plan.
    pub numeric_s: f64,
    /// Nonzeros in `L`.
    pub nnz_l: usize,
    /// Factorization flops.
    pub flops: u64,
}

/// Run `SparseCholeskySolver::factor`'s three phases separately.
pub fn factor_parts(a: &CscMatrix) -> Result<FactorParts, String> {
    let (order_s, perm) = secs(|| {
        let g = Graph::from_sym_lower(a);
        nd::nested_dissection(&g, nd::NdOptions::default())
    });
    let (symbolic_s, an) = secs(|| seqchol::analyze_with_perm(a, &perm));
    let (numeric_s, factor) = secs(|| {
        let f =
            seqchol::factor_supernodal_opts(&an.pa, &an.part, seqchol::FactorOptions::default());
        let plan = f.as_ref().ok().map(|f| SolvePlan::new(f.partition()));
        (f, plan)
    });
    let f = factor.0.map_err(|e| e.to_string())?;
    Ok(FactorParts {
        order_s,
        symbolic_s,
        numeric_s,
        nnz_l: f.nnz(),
        flops: seqchol::supernodal_factor_flops(&an.part),
    })
}

/// The four solve kernels at every supernode's own shape.
pub struct KernelSweep {
    /// Seconds in `trsm_lower_left` + `trsm_lower_trans_left`.
    pub trsm_s: f64,
    /// Seconds in `gemm_update` + `gemm_tn_update`.
    pub gemm_s: f64,
    /// Triangular-solve flops in one sweep.
    pub trsm_flops: u64,
    /// Rectangle-update flops in one sweep.
    pub gemm_flops: u64,
}

impl KernelSweep {
    /// Triangular-solve rate, GFLOP/s.
    pub fn trsm_gflops(&self) -> f64 {
        self.trsm_flops as f64 / self.trsm_s / 1e9
    }

    /// Rectangle-update rate, GFLOP/s.
    pub fn gemm_gflops(&self) -> f64 {
        self.gemm_flops as f64 / self.gemm_s / 1e9
    }
}

/// The forward and backward kernels of one supernode (`ns` rows, `t`
/// columns) on its own right-hand-side blocks.
fn snode_kernels<S: FScalar>(
    blk: &[S],
    ns: usize,
    t: usize,
    k: usize,
    top: &mut [S],
    below: &mut [S],
) {
    let nb = ns - t;
    blas::trsm_lower_left(blk, ns, top, t, t, k);
    if nb > 0 {
        blas::gemm_update(below, nb, &blk[t..], ns, top, t, nb, k, t);
        blas::gemm_tn_update(top, t, &blk[t..], ns, below, nb, t, k, nb);
    }
    blas::trsm_lower_trans_left(blk, ns, top, t, t, k);
}

/// Per-supernode buffers for a kernel sweep.
pub struct KernelBench<'a, F: FactorBlocks> {
    f: &'a F,
    plan: &'a SolvePlan,
    nrhs: usize,
    top: Vec<Vec<F::S>>,
    below: Vec<Vec<F::S>>,
}

impl<'a, F: FactorBlocks> KernelBench<'a, F> {
    /// Buffers for `nrhs`-wide sweeps over `f`.
    pub fn new(f: &'a F, plan: &'a SolvePlan, nrhs: usize) -> Self {
        let nsup = plan.nsup();
        KernelBench {
            f,
            plan,
            nrhs,
            top: (0..nsup)
                .map(|s| vec![F::S::ZERO; plan.width(s) * nrhs])
                .collect(),
            below: (0..nsup)
                .map(|s| vec![F::S::ZERO; (plan.height(s) - plan.width(s)) * nrhs])
                .collect(),
        }
    }

    fn refill(&mut self) {
        for buf in self.top.iter_mut().chain(self.below.iter_mut()) {
            for (i, v) in buf.iter_mut().enumerate() {
                *v = F::S::from_f64(1.0 / (1 + i % 7) as f64);
            }
        }
    }

    /// One sweep: the forward and backward kernels at every supernode,
    /// the two kernel families timed separately.
    pub fn sweep(&mut self) -> KernelSweep {
        let (plan, f, k) = (self.plan, self.f, self.nrhs);
        let mut out = KernelSweep {
            trsm_s: 0.0,
            gemm_s: 0.0,
            trsm_flops: 0,
            gemm_flops: 0,
        };
        self.refill();
        let t0 = Instant::now();
        for s in 0..plan.nsup() {
            let (ns, t) = (plan.height(s), plan.width(s));
            let blk = f.values(s);
            blas::trsm_lower_left(blk, ns, &mut self.top[s], t, t, k);
            blas::trsm_lower_trans_left(blk, ns, &mut self.top[s], t, t, k);
            out.trsm_flops += 2 * blas::trsm_flops(t, k);
        }
        out.trsm_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for s in 0..plan.nsup() {
            let (ns, t) = (plan.height(s), plan.width(s));
            let nb = ns - t;
            if nb == 0 {
                continue;
            }
            let blk = &f.values(s)[t..];
            blas::gemm_update(&mut self.below[s], nb, blk, ns, &self.top[s], t, nb, k, t);
            blas::gemm_tn_update(&mut self.top[s], t, blk, ns, &self.below[s], nb, t, k, nb);
            out.gemm_flops += 2 * blas::gemm_flops(nb, k, t);
        }
        out.gemm_s = t0.elapsed().as_secs_f64();
        black_box(&self.top);
        out
    }

    /// All four kernels at every supernode, spread over the threads the
    /// way `sched` spreads subtrees: each slot's supernodes on its own
    /// thread, then the top of the tree on the calling thread. Returns
    /// the timed interval (thread start-up included).
    pub fn parallel_span(&mut self, sched: &SubtreeSchedule) -> (Instant, Instant) {
        self.refill();
        let (f, plan, k) = (self.f, self.plan, self.nrhs);
        let mut owner = vec![usize::MAX; plan.nsup()];
        for i in 0..sched.nthreads() {
            for &task in sched.slot(i) {
                for &s in sched.task(task) {
                    owner[s] = i;
                }
            }
        }
        type Unit<'b, S> = (usize, &'b mut Vec<S>, &'b mut Vec<S>);
        let mut per: Vec<Vec<Unit<'_, F::S>>> = (0..sched.nthreads()).map(|_| Vec::new()).collect();
        let mut top_units = Vec::new();
        for (s, (top, below)) in self.top.iter_mut().zip(self.below.iter_mut()).enumerate() {
            match per.get_mut(owner[s]) {
                Some(list) => list.push((s, top, below)),
                None => top_units.push((s, top, below)),
            }
        }
        let run = |units: Vec<Unit<'_, F::S>>| {
            for (s, top, below) in units {
                snode_kernels(f.values(s), plan.height(s), plan.width(s), k, top, below);
            }
        };
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let mut lists = per.into_iter();
            let mine = lists.next().unwrap_or_default();
            for list in lists {
                scope.spawn(move || run(list));
            }
            run(mine);
        });
        run(top_units);
        (t0, Instant::now())
    }

    /// Median kernel times over `reps` sweeps.
    pub fn median_sweep(&mut self, reps: usize) -> KernelSweep {
        let runs: Vec<KernelSweep> = (0..reps).map(|_| self.sweep()).collect();
        KernelSweep {
            trsm_s: median(&runs.iter().map(|r| r.trsm_s).collect::<Vec<_>>()),
            gemm_s: median(&runs.iter().map(|r| r.gemm_s).collect::<Vec<_>>()),
            trsm_flops: runs[0].trsm_flops,
            gemm_flops: runs[0].gemm_flops,
        }
    }
}

/// Solve flops for one right-hand side: forward plus backward, each the
/// plan's `t² + 2·t·(h − t)` per supernode.
pub fn flops_per_solve(plan: &SolvePlan) -> u64 {
    2 * (0..plan.nsup()).map(|s| plan.solve_flops(s)).sum::<u64>()
}

/// Bytes one single-RHS solve must move, computed (not measured): the
/// factor values read once forward and once backward, one 8-byte row
/// index per trapezoid row each way, and four `n`-vectors of `f64`
/// (right-hand side in, intermediate out and in, solution out).
pub fn bytes_per_solve(plan: &SolvePlan, scalar_bytes: usize) -> u64 {
    let (mut values, mut rows) = (0u64, 0u64);
    for s in 0..plan.nsup() {
        let (h, t) = (plan.height(s) as u64, plan.width(s) as u64);
        values += h * t;
        rows += h;
    }
    2 * values * scalar_bytes as u64 + 2 * rows * 8 + 4 * plan.n() as u64 * 8
}

/// Permute a right-hand side into the factor's index space.
pub fn permuted(perm: &trisolv_graph::Permutation, b: &[f64], nrhs: usize) -> DenseMatrix {
    let n = b.len();
    let mut pb = DenseMatrix::zeros(n, nrhs);
    for c in 0..nrhs {
        let dst = pb.col_mut(c);
        for (i, &v) in b.iter().enumerate() {
            dst[perm.apply(i)] = v;
        }
    }
    pb
}

/// Median seconds of the sequential executor (`core::seq`) on `pb`.
pub fn seq_secs<F: FactorBlocks>(f: &F, plan: &SolvePlan, pb: &DenseMatrix, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            secs(|| {
                let y = seq::forward_with_plan_any(f, plan, pb);
                seq::backward_any(f, &y)
            })
            .0
        })
        .collect();
    median(&times)
}

/// Median seconds of the threaded executor (`core::threaded`) on `pb`,
/// through one reused workspace as the engine runs it.
pub fn threaded_secs<F: FactorBlocks>(
    solver: &ThreadedSolver<'_, F>,
    pb: &DenseMatrix,
    reps: usize,
) -> f64 {
    let mut ws = solver.workspace(pb.ncols());
    black_box(solver.forward_backward_with(pb, &mut ws));
    let times: Vec<f64> = (0..reps)
        .map(|_| secs(|| solver.forward_backward_with(pb, &mut ws)).0)
        .collect();
    median(&times)
}
