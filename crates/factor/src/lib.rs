//! Sparse Cholesky factorization and the dense kernels underneath it.
//!
//! The triangular solvers of the paper consume the factor `L` produced by a
//! supernodal multifrontal Cholesky factorization ([Gupta, Karypis & Kumar
//! 1994], reference `[4]` of the paper). This crate provides:
//!
//! * [`blas`] — hand-written dense BLAS-like kernels (`gemm`, `syrk`,
//!   `trsm`, `potrf`) operating on column-major blocks with explicit
//!   leading dimensions;
//! * [`dense`] — dense Cholesky factorization and triangular solves, used
//!   as reference numerics and as the dense baselines of the paper's
//!   Figure 5 comparison;
//! * [`snfactor`] — the [`SupernodalFactor`] container: per-supernode
//!   `n_s × t_s` trapezoidal blocks of `L`, the storage format every
//!   solver kernel operates on;
//! * [`seqchol`] — sequential factorization: simplicial left-looking (a
//!   reference) and supernodal multifrontal (the production path);
//! * [`par`] — the simulated-parallel multifrontal factorization with
//!   subtree-to-subcube mapping and 2-D block-cyclic frontal kernels,
//!   which supplies the factorization-time columns of the paper's main
//!   table and the 2-D distributed factor that the solvers must
//!   redistribute.

pub mod blas;
pub mod dense;
pub mod dense_par;
pub mod fio;
pub mod fscalar;
pub mod mapping;
pub mod par;
pub mod seqchol;
pub mod snfactor;

pub use fscalar::{FScalar, FactorBlocks};
pub use mapping::SubcubeMapping;
pub use snfactor::{SupernodalFactor, SupernodalFactorF32};
/// The partition type every factor is stored in, re-exported so callers
/// that size or inspect factors need not depend on the symbolic crate.
pub use trisolv_symbolic::SupernodePartition;
