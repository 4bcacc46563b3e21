//! Sparse and dense linear-algebra substrate for the `hicond` workspace.
//!
//! The paper this workspace reproduces (Koutis & Miller, *Graph partitioning
//! into isolated, high conductance clusters*, SPAA 2008) leans on a fairly
//! specific linear-algebra toolkit:
//!
//! * symmetric sparse matrices in CSR form for graph Laplacians
//!   ([`CsrMatrix`]),
//! * conjugate gradients with pluggable preconditioners ([`cg`]),
//! * Lanczos iteration for the extreme eigenpairs of normalized Laplacians
//!   ([`lanczos`]),
//! * dense symmetric kernels — Cholesky factorization and a Jacobi
//!   eigensolver — used both as coarse-grid direct solvers and as exact
//!   verifiers in tests and experiments ([`dense`]),
//! * Schur complements with respect to vertex elimination (paper
//!   Definition 5.5; [`schur`]),
//! * generalized eigenvalue (matrix pencil) computations behind the support
//!   numbers σ(A,B) of support theory ([`pencil`]).
//!
//! Everything here is written from scratch on `f64`. SpMV runs one
//! band-blocked kernel ([`CsrMatrix::spmv_into`]), band-parallel on large
//! operators; the vector kernels go parallel by length. Every parallel
//! path is bitwise identical to its sequential reference at any thread
//! count, so tests pin sequential runs with `rayon::pool::with_thread_cap`.

pub mod block;
mod blocked;
pub mod cg;
pub mod chebyshev;
pub mod csr;
pub mod dense;
pub mod ichol;
pub mod invariant;
pub mod lanczos;
pub mod ops;
pub mod pencil;
pub mod schur;
pub mod serialize;
pub mod ssor;
pub mod tridiag;
pub mod vector;

pub use block::block_pcg_solve;
pub use blocked::BAND_ROWS;
pub use cg::{
    cg_solve, pcg_solve, pcg_solve_unfused, CgOptions, CgResult, IdentityPreconditioner,
    Preconditioner,
};
pub use chebyshev::ChebyshevSolver;
pub use csr::{CooBuilder, CsrMatrix};
pub use dense::DenseMatrix;
pub use ichol::IncompleteCholesky;
pub use invariant::{invariant_checks_enabled, InvariantViolation};
pub use lanczos::{lanczos_extreme, LanczosOptions, LanczosResult};
pub use ops::LinearOperator;
pub use pencil::{pencil_lambda_max, PencilOptions};
pub use schur::schur_complement;
pub use ssor::SsorPreconditioner;
pub use vector::{axpy, dot, norm2, scale};

/// Relative tolerance used by equality-style assertions across the workspace.
pub const DEFAULT_REL_TOL: f64 = 1e-10;

/// Returns `true` when `a` and `b` agree to relative tolerance `tol`
/// (absolute tolerance for values near zero).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-10));
        assert!(approx_eq(0.0, 1e-12, 1e-10));
    }
}
