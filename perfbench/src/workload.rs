//! The serving workloads, generated from a seed.
//!
//! The program only ever sees the generated inputs: matrices, right-hand
//! sides, matrix choices and arrival times all derive from `--seed`.

use std::collections::HashMap;
use std::sync::Mutex;

use trisolv_core::refine::componentwise_backward_error;
use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::rng::Rng;
use trisolv_matrix::{gen, CscMatrix, DenseMatrix};
use trisolv_server::Fingerprint;

use crate::wire;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One resident `grid2d:112` f64 factor, single-RHS SOLVEs only.
    HotSolve,
    /// Eight seeded irregular meshes, cache sized for about six; SOLVE by
    /// fingerprint, LOAD and retry on `UnknownFingerprint`.
    LoadChurn,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "hot_solve" => Some(Kind::HotSolve),
            "load_churn" => Some(Kind::LoadChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotSolve => "hot_solve",
            Kind::LoadChurn => "load_churn",
        }
    }

    /// Open-loop offered rates `(low, high)` in requests per second, fixed
    /// so every commit is offered the same load. They are at most 30% and
    /// 75% of the closed-loop `solve_rps` each workload measured on a
    /// 2-vCPU Xeon with a 105 MiB L3 when the benchmark was defined, and
    /// lower where the latency at those loads did not repeat from run to
    /// run (table and reasons in `perfbench/README.md`).
    pub fn rates(self) -> (f64, f64) {
        match self {
            Kind::HotSolve => (RATES[0], RATES[1]),
            Kind::LoadChurn => (RATES[2], RATES[3]),
        }
    }

    /// Whether an operation LOADs and retries on `UnknownFingerprint`.
    pub fn reloads(self) -> bool {
        self == Kind::LoadChurn
    }
}

/// `(low, high)` open-loop rates per workload, in the order of
/// [`Kind::rates`].
const RATES: [f64; 4] = [80.0, 160.0, 40.0, 75.0];

/// Right-hand sides per matrix.
const RHS_PER_MATRIX: [usize; 2] = [32, 8];

/// Mesh side of each of `load_churn`'s eight matrices. One side for all
/// keeps the cache entries within a few percent of each other, so the
/// budget holds the same number of them whichever are resident and the
/// miss share does not depend on the seed. At side 51 six entries take
/// 6.5–6.8 MiB and seven 7.3 MiB or more, so a 7 MiB budget holds six
/// with ~4% to spare either way. Larger meshes (70–90) take ~85 ms per
/// LOAD on 2 vCPUs; with a quarter of the operations missing, the
/// factorizations then overlap most hits and the p50 does not repeat from
/// run to run.
const CHURN_SIDE: usize = 51;

/// Cache entries `load_churn`'s byte budget holds: with uniform picks over
/// eight matrices and LRU eviction, a quarter of the operations miss.
const CHURN_RESIDENT: usize = 6;

/// One matrix of a workload with its right-hand sides.
pub struct Mat {
    /// Generator spec (`grid2d:112`, `mesh2d:K:SEED`, …).
    pub spec: String,
    /// The matrix (lower triangle).
    pub a: CscMatrix,
    /// Content hash the server caches it under.
    pub fp: Fingerprint,
    /// Ready-made `LOAD` payload.
    pub load: Vec<u8>,
    /// Right-hand sides `b = A·x` for seeded `x`.
    pub rhs: Vec<Vec<f64>>,
}

/// A workload's generated inputs.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// Its matrices.
    pub mats: Vec<Mat>,
}

impl Inputs {
    /// Generate the inputs for `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = Rng::seed_from_u64(seed);
        let specs: Vec<String> = match kind {
            Kind::HotSolve => vec!["grid2d:112".to_string()],
            // the mesh side is fixed so every seed asks for the same amount
            // of work; the seed draws each mesh's jitter and weights
            Kind::LoadChurn => (0..8)
                .map(|_| format!("mesh2d:{CHURN_SIDE}:{}", rng.next_u64() % 1_000_000))
                .collect(),
        };
        let per = RHS_PER_MATRIX[kind as usize];
        let mats = specs
            .into_iter()
            .map(|spec| {
                let a = gen::from_spec(&spec).expect("workload specs are valid generator specs");
                let n = a.nrows();
                let x = gen::random_rhs(n, per, rng.next_u64());
                let b = a.spmv_sym_lower(&x).expect("square matrix");
                Mat {
                    fp: Fingerprint::of_matrix(&a),
                    load: wire::load_payload(&a),
                    rhs: (0..per).map(|c| b.col(c).to_vec()).collect(),
                    spec,
                    a,
                }
            })
            .collect();
        Inputs { kind, mats }
    }

    /// An operation stream: `(matrix, rhs)` choices for `count` requests.
    pub fn ops(&self, count: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let m = rng.range_usize(0, self.mats.len());
                (m, rng.range_usize(0, self.mats[m].rhs.len()))
            })
            .collect()
    }

    /// Extra `serve` flags this workload names (the rest stay default).
    /// `load_churn`'s budget is the least whole MiB that holds
    /// [`CHURN_RESIDENT`] of the largest entries; it must not hold one
    /// more of the smallest.
    pub fn serve_args(&self, refs: &Refs) -> Result<Vec<String>, String> {
        match self.kind {
            Kind::HotSolve => Ok(Vec::new()),
            Kind::LoadChurn => {
                let max = *refs.entry_bytes.iter().max().expect("eight matrices");
                let min = *refs.entry_bytes.iter().min().expect("eight matrices");
                let (lo, hi) = (CHURN_RESIDENT * max, (CHURN_RESIDENT + 1) * min);
                let mb = lo.div_ceil(1 << 20);
                if mb << 20 >= hi {
                    return Err(format!(
                        "no whole-MiB cache budget holds {CHURN_RESIDENT} entries of \
                         {min}..{max} bytes and no more"
                    ));
                }
                Ok(vec!["--budget-mb".into(), mb.to_string()])
            }
        }
    }
}

/// Reference answers, computed in-process before any timing and checked
/// to `ω ≤ 1e-10` themselves.
pub struct Refs {
    /// `x[m][r]` solves `mats[m].a · x = mats[m].rhs[r]`.
    pub x: Vec<Vec<Vec<f64>>>,
    /// The engine's resident-size estimate for each matrix's f64 entry.
    pub entry_bytes: Vec<usize>,
}

/// Componentwise backward-error target every answer must meet.
pub const OMEGA_TARGET: f64 = 1e-10;

impl Refs {
    /// Factor each matrix in-process and solve every right-hand side.
    pub fn compute(inputs: &Inputs) -> Result<Refs, String> {
        let mut x = Vec::new();
        let mut entry_bytes = Vec::new();
        for m in &inputs.mats {
            let solver = SparseCholeskySolver::factor(&m.a).map_err(|e| e.to_string())?;
            let mut xs = Vec::new();
            for b in &m.rhs {
                let xr = solver.solve(&DenseMatrix::column_vector(b)).col(0).to_vec();
                let omega = omega(&m.a, &xr, b);
                if omega > OMEGA_TARGET {
                    return Err(format!("reference answer for {} has ω = {omega:e}", m.spec));
                }
                xs.push(xr);
            }
            x.push(xs);
            // the same estimate FactorEntry::new charges against the budget
            let f = solver.factor_matrix();
            let part = f.partition();
            let rows: usize = (0..part.nsup()).map(|s| part.height(s)).sum();
            entry_bytes.push(f.value_count() * 8 + rows * 8 + m.a.nnz() * 16 + m.a.nrows() * 96);
        }
        Ok(Refs { x, entry_bytes })
    }
}

/// Componentwise backward error of `x` for `A·x = b`.
pub fn omega(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    componentwise_backward_error(
        a,
        &DenseMatrix::column_vector(x),
        &DenseMatrix::column_vector(b),
    )
    .unwrap_or(f64::INFINITY)
}

/// Outcome of checking one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Matches the reference.
    Ok,
    /// A reply that is not the right answer.
    Wrong,
}

/// Checks every answer against the reference inside the run (an `O(n)`
/// comparison) and keeps the first answer for each `(matrix, rhs)` so
/// its backward error can be recomputed after the timed window.
pub struct Checker<'a> {
    inputs: &'a Inputs,
    refs: &'a Refs,
    kept: Mutex<HashMap<(usize, usize), Vec<f64>>>,
}

impl<'a> Checker<'a> {
    /// A checker over a workload's inputs and references.
    pub fn new(inputs: &'a Inputs, refs: &'a Refs) -> Checker<'a> {
        Checker {
            inputs,
            refs,
            kept: Mutex::new(HashMap::new()),
        }
    }

    /// The reference answer for `(matrix, rhs)`.
    pub fn reference(&self, m: usize, r: usize) -> &[f64] {
        &self.refs.x[m][r]
    }

    /// Check one answer: it must agree with the reference to `1e-8`
    /// relative.
    pub fn check(&self, m: usize, r: usize, x: &[f64]) -> Verdict {
        let xr = &self.refs.x[m][r];
        if x.len() != xr.len() {
            return Verdict::Wrong;
        }
        let scale = xr.iter().fold(1.0f64, |s, v| s.max(v.abs()));
        let diff = x
            .iter()
            .zip(xr)
            .fold(0.0f64, |d, (a, b)| d.max((a - b).abs()));
        if diff.is_nan() || diff > 1e-8 * scale {
            return Verdict::Wrong;
        }
        let mut kept = self.kept.lock().expect("checker lock poisoned");
        kept.entry((m, r)).or_insert_with(|| x.to_vec());
        Verdict::Ok
    }

    /// After the timed window: recompute `ω` for every kept answer against
    /// the generated matrix. Returns `(answers checked, answers wrong)`.
    pub fn verify_kept(&self) -> (usize, usize) {
        let kept = self.kept.lock().expect("checker lock poisoned");
        let wrong = kept
            .iter()
            .filter(|(&(m, r), x)| {
                let mat = &self.inputs.mats[m];
                let w = omega(&mat.a, x, &mat.rhs[r]);
                w.is_nan() || w > OMEGA_TARGET
            })
            .count();
        (kept.len(), wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_budget_holds_six_entries_and_no_more() {
        let mib = 1usize << 20;
        let inputs = Inputs {
            kind: Kind::LoadChurn,
            mats: Vec::new(),
        };
        let refs = Refs {
            x: Vec::new(),
            entry_bytes: vec![2 * mib, 2 * mib + mib / 20],
        };
        let args = inputs.serve_args(&refs).unwrap();
        assert_eq!(args[0], "--budget-mb");
        // six of the largest take 12.3 MiB, seven of the smallest 14 MiB
        assert_eq!(args[1], "13");
        // entries too unequal for any whole-MiB budget to hold exactly six
        let wide = Refs {
            x: Vec::new(),
            entry_bytes: vec![mib, 2 * mib],
        };
        assert!(inputs.serve_args(&wide).is_err());
    }
}
