//! Steiner and subgraph preconditioners for graph Laplacians
//! (paper Section 3).
//!
//! The paper's central application of `[φ, ρ]` decompositions is the
//! **Steiner preconditioner** `S_P = Q + Σᵢ Tᵢ` of Definition 3.1: the
//! quotient graph `Q` over the clusters plus one star `Tᵢ` per cluster
//! whose root joins each cluster vertex `u` with weight `vol_A(u)`. Its
//! key algebraic property (exploited by Remark 2) is that Gaussian
//! elimination of the leaves is *closed form*: with `V = DR` one has
//! `VᵀD⁻¹V = D_Q`, so applying the Schur-complement inverse reduces to
//!
//! ```text
//! B⁻¹ r  =  D⁻¹ r  +  R · Q⁺ (Rᵀ r)
//! ```
//!
//! — a Jacobi sweep plus a quotient-graph solve. This crate provides:
//!
//! * [`steiner`] — two-level Steiner preconditioner with an exact (dense
//!   Cholesky, grounded) quotient solve, plus the explicit `(n+m)`-vertex
//!   Steiner Laplacian for support-theory verification of Theorem 3.5;
//! * [`multilevel`] — the laminar-hierarchy version (recursive quotient
//!   preconditioning with optional damped-Jacobi smoothing, kept symmetric
//!   positive definite so plain PCG applies);
//! * [`subgraph`] — the baseline subgraph preconditioner (spanning tree +
//!   high-stretch edges) solved by the sequential degree-1/2 partial
//!   elimination that Remark 2 contrasts against;
//! * [`treesolve`] — exact linear-time forest Laplacian solves.

pub mod artifact;
pub mod gremban;
pub mod multilevel;
pub mod solver;
pub mod steiner;
pub mod subgraph;
pub mod treesolve;

pub use artifact::{decode_solver, encode_solver, load_or_build, solver_cache_key, SolverSource};
pub use gremban::{apply_via_extended_system, ExtendedSteinerSolver};
#[doc(hidden)]
pub use multilevel::LevelNs;
pub use multilevel::{MultilevelOptions, MultilevelSteiner};
pub use solver::{LaplacianSolver, Solution, SolveError, SolverOptions};
pub use steiner::{steiner_laplacian, SteinerPreconditioner};
pub use subgraph::{SubgraphOptions, SubgraphPreconditioner};
pub use treesolve::solve_forest;
