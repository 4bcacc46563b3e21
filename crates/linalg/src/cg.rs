//! Conjugate gradients and preconditioned conjugate gradients.
//!
//! The residual histories recorded in [`CgResult`] are the raw material of
//! the paper's Figure 6 (norm of `‖Axᵢ − b‖₂` against iteration number for
//! the Steiner versus the subgraph preconditioner).
//!
//! The solvers tolerate *singular consistent* systems — graph Laplacians
//! have the constant vector in their kernel — as long as `b` is orthogonal
//! to the kernel; iterates then stay in the kernel's complement.

use crate::block::{pcg_engine, DenseBlock};
use crate::ops::LinearOperator;
use crate::vector::{
    dot_with_scratch, fused_axpy_dot_self, fused_copy_dot, fused_scale_dot, norm2, par_axpy,
    scratch_len, xpby,
};

/// A symmetric positive (semi)definite preconditioner: application of
/// `M⁻¹ r`.
pub trait Preconditioner {
    /// Dimension of the operator.
    fn dim(&self) -> usize;

    /// `z = M⁻¹ r`.
    fn apply_into(&self, r: &[f64], z: &mut [f64]);

    /// Fused `z = M⁻¹ r` plus the PCG inner product `rᵀz`, returned.
    ///
    /// The default implementation is literally the unfused sequence
    /// (`apply_into` then [`dot_with_scratch`]), so every implementor gets
    /// correct (and trivially bitwise-matching) behavior for free.
    /// Implementors that *can* produce `z` and accumulate `rᵀz` in a single
    /// traversal should override this — the default
    /// [`Self::apply_dot_block`] calls it once per column per PCG
    /// iteration, and eliminating the extra read of `r` and `z` is one of
    /// the two memory-sweep savings of the fused solver. **Contract:** an
    /// override must return bitwise the same `z` and the same dot value as
    /// the default (same per-element arithmetic, same chunk geometry, same
    /// fixed-shape partial reduction); `tests/determinism.rs` holds
    /// implementations to it.
    fn apply_dot_into(&self, r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
        self.apply_into(r, z);
        dot_with_scratch(r, z, partials)
    }

    /// `z[:, j] = M⁻¹ r[:, j]` and `rz[j] = r[:, j]ᵀ z[:, j]` for each `j`
    /// in `active` (sorted, unique) — the preconditioner sweep of the
    /// block-PCG engine, fused with the `rᵀz` inner product it needs next.
    /// Together with the operator's
    /// [`crate::ops::LinearOperator::apply_block`] this is how one
    /// iteration serves k right-hand sides with one traversal each.
    ///
    /// **Contract:** each active column of `z`, and each `rz[j]`, must be
    /// bitwise identical to [`Self::apply_dot_into`] on that column alone,
    /// at any thread cap. The default loops `apply_dot_into` column by
    /// column; hierarchical implementations should override with a shared
    /// traversal (one walk of the level structure feeding all columns) as
    /// long as per-column arithmetic order is preserved — the multilevel
    /// Steiner solver in `hicond-precond` does exactly that. Inactive
    /// columns of `z` and entries of `rz` must not be written.
    ///
    /// # Panics
    ///
    /// Panics if block shapes disagree with the preconditioner dimension,
    /// `rz` is shorter than the block width, or `active` indexes out of
    /// range.
    fn apply_dot_block(
        &self,
        r: &DenseBlock,
        z: &mut DenseBlock,
        active: &[usize],
        rz: &mut [f64],
        partials: &mut [f64],
    ) {
        assert_eq!(r.n(), self.dim(), "apply_dot_block: r column length");
        assert_eq!(z.n(), self.dim(), "apply_dot_block: z column length");
        for &j in active {
            rz[j] = self.apply_dot_into(r.col(j), z.col_mut(j), partials);
        }
    }

    /// Allocating `M⁻¹ r`.
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.dim()];
        self.apply_into(r, &mut z);
        z
    }
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy)]
pub struct IdentityPreconditioner(pub usize);

impl Preconditioner for IdentityPreconditioner {
    fn dim(&self) -> usize {
        self.0
    }
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn apply_dot_into(&self, r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
        fused_copy_dot(r, z, partials)
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(d)`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds from the matrix diagonal; zero diagonal entries (isolated
    /// vertices) map to zero.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        JacobiPreconditioner {
            inv_diag: diag
                .iter()
                .map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 })
                .collect(),
        }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
    fn apply_dot_into(&self, r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
        // z_i = r_i · d_i is a single multiplication, so computing it inside
        // the fused chunked sweep yields the same bits as the sequential
        // apply; the dot uses the standard chunk geometry — bitwise equal
        // to the default unfused sequence.
        fused_scale_dot(&self.inv_diag, r, z, partials)
    }
}

/// Options for the CG drivers.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Stop when `‖r‖₂ ≤ rel_tol · ‖b‖₂`.
    pub rel_tol: f64,
    /// Hard iteration cap.
    pub max_iter: usize,
    /// Record `‖rᵢ‖₂` per iteration (Figure 6 data).
    pub record_residuals: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            rel_tol: 1e-8,
            max_iter: 5000,
            record_residuals: true,
        }
    }
}

/// Outcome of a CG/PCG run.
#[derive(Debug, Clone, Default)]
pub struct CgResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// `‖r‖₂ / ‖b‖₂` at exit.
    pub final_rel_residual: f64,
    /// `‖rᵢ‖₂` per iteration including the initial residual, when recorded.
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Plain conjugate gradients for `A x = b`, starting from `x = 0`.
pub fn cg_solve<A: LinearOperator>(a: &A, b: &[f64], opts: &CgOptions) -> CgResult {
    pcg_solve(a, &IdentityPreconditioner(a.dim()), b, opts)
}

/// Preconditioned conjugate gradients for `A x = b`, starting from `x = 0`.
///
/// `m` must be symmetric positive definite on the relevant subspace; the
/// Steiner preconditioner of the paper enters here through its Schur
/// complement action (see `hicond-precond`).
///
/// A one-column [`crate::block_pcg_solve`]: the block engine is the only PCG
/// loop, so a solo solve runs the same fused iteration (and emits the same
/// telemetry) as every column of a batch. Bitwise identical to
/// [`pcg_solve_unfused`]; CI gates on the equivalence.
///
/// # Panics
///
/// Panics if the rhs length or the preconditioner dimension disagrees with the matrix.
pub fn pcg_solve<A: LinearOperator, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &[f64],
    opts: &CgOptions,
) -> CgResult {
    let mut rhs = DenseBlock::new(b.len(), 1);
    rhs.col_mut(0).copy_from_slice(b);
    // A one-column block yields exactly one result.
    pcg_engine(a, m, &rhs, opts, true).pop().unwrap_or_default()
}

/// The textbook (unfused) PCG iteration: separate sweeps for the `x`
/// update, the `r` update, the residual norm, the preconditioner apply, and
/// the `rᵀz` dot, with no telemetry. It is the reference the block engine
/// is gated against — benchmark and CI both compare [`pcg_solve`] to this
/// bitwise.
///
/// # Panics
///
/// Panics if the rhs length or the preconditioner dimension disagrees with the matrix.
pub fn pcg_solve_unfused<A: LinearOperator, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &[f64],
    opts: &CgOptions,
) -> CgResult {
    let n = a.dim();
    assert_eq!(b.len(), n, "pcg: rhs length");
    assert_eq!(m.dim(), n, "pcg: preconditioner dim");
    let bnorm = norm2(b);
    let mut x = vec![0.0; n];
    let mut history = Vec::new();
    // exact: a norm is 0.0 iff b is identically zero.
    if bnorm == 0.0 {
        return CgResult {
            x,
            iterations: 0,
            final_rel_residual: 0.0,
            residual_history: history,
            converged: true,
        };
    }
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    let mut ap = vec![0.0; n];
    let mut partials = vec![0.0; scratch_len(n)];
    m.apply_into(&r, &mut z);
    let mut rz = dot_with_scratch(&r, &z, &mut partials);
    let mut p = z.clone();
    if opts.record_residuals {
        history.push(norm2(&r));
    }
    let mut it = 0;
    let mut converged = false;
    while it < opts.max_iter {
        a.apply_into(&p, &mut ap);
        let pap = dot_with_scratch(&p, &ap, &mut partials);
        if pap <= 0.0 {
            break; // hit the (numerical) kernel
        }
        let alpha = rz / pap;
        if !alpha.is_finite() {
            break;
        }
        par_axpy(alpha, &p, &mut x);
        let rnorm = fused_axpy_dot_self(-alpha, &ap, &mut r, &mut partials).sqrt();
        it += 1;
        if opts.record_residuals {
            history.push(rnorm);
        }
        if rnorm <= opts.rel_tol * bnorm {
            converged = true;
            break;
        }
        if !rnorm.is_finite() {
            break;
        }
        m.apply_into(&r, &mut z);
        let rz_new = dot_with_scratch(&r, &z, &mut partials);
        // exact: only a zero (or non-finite) rz poisons β.
        if rz_new == 0.0 || !rz_new.is_finite() {
            break;
        }
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
    }
    CgResult {
        x,
        iterations: it,
        final_rel_residual: norm2(&r) / bnorm,
        residual_history: history,
        converged,
    }
}

/// Estimates the PCG convergence-rate-implied condition number from a
/// residual history: fits `‖rᵢ‖ ≈ C·qⁱ` on the tail and inverts
/// `q = (√κ−1)/(√κ+1)`.
///
/// A coarse but useful practical proxy for κ(A, M) used in the experiment
/// tables (the paper reports residual curves; we additionally report this
/// derived rate).
pub fn condition_estimate_from_history(history: &[f64]) -> Option<f64> {
    if history.len() < 4 {
        return None;
    }
    // Geometric-mean convergence factor over the second half of the run.
    let lo = history.len() / 2;
    let hi = history.len() - 1;
    let first = history[lo];
    let last = history[hi];
    if first <= 0.0 || last <= 0.0 || last >= first {
        return None;
    }
    let q = (last / first).powf(1.0 / (hi - lo) as f64);
    if q <= 0.0 || q >= 1.0 {
        return None;
    }
    let s = (1.0 + q) / (1.0 - q);
    Some(s * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CooBuilder, CsrMatrix};

    fn laplacian_path(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n - 1 {
            b.push(i, i, 1.0);
            b.push(i + 1, i + 1, 1.0);
            b.push_sym(i, i + 1, -1.0);
        }
        b.build()
    }

    fn spd_tridiag(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
            if i + 1 < n {
                b.push_sym(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn cg_solves_spd() {
        let a = spd_tridiag(50);
        let xtrue: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.mul(&xtrue);
        let res = cg_solve(&a, &b, &CgOptions::default());
        assert!(res.converged);
        for (xi, ti) in res.x.iter().zip(&xtrue) {
            assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn cg_zero_rhs() {
        let a = spd_tridiag(10);
        let res = cg_solve(&a, &vec![0.0; 10], &CgOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn pcg_jacobi_converges_not_slower() {
        // Badly scaled diagonal: Jacobi should fix it in few iterations.
        let n = 60;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 10f64.powi((i % 6) as i32));
        }
        let a = b.build();
        let rhs: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let plain = cg_solve(&a, &rhs, &CgOptions::default());
        let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
        let pre = pcg_solve(&a, &m, &rhs, &CgOptions::default());
        assert!(pre.converged);
        assert!(pre.iterations <= plain.iterations);
        assert!(pre.iterations <= 3);
    }

    #[test]
    fn cg_singular_consistent_laplacian() {
        // Laplacian with b ⟂ 1: converges to a solution with Ax = b.
        let n = 30;
        let a = laplacian_path(n);
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        crate::vector::deflate_constant(&mut b);
        let res = cg_solve(&a, &b, &CgOptions::default());
        assert!(res.converged);
        let ax = a.mul(&res.x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn fused_solver_is_bitwise_identical_to_unfused() {
        // Covers both preconditioners that override apply_dot_into plus a
        // non-overriding one (exercising the default unfused fallback).
        struct PlainJacobi(JacobiPreconditioner);
        impl Preconditioner for PlainJacobi {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn apply_into(&self, r: &[f64], z: &mut [f64]) {
                self.0.apply_into(r, z);
            }
        }
        let n = 300;
        let a = spd_tridiag(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let opts = CgOptions {
            rel_tol: 1e-10,
            ..Default::default()
        };
        let jac = JacobiPreconditioner::from_diagonal(&a.diagonal());
        let cases: Vec<(CgResult, CgResult)> = vec![
            (
                pcg_solve(&a, &IdentityPreconditioner(n), &b, &opts),
                pcg_solve_unfused(&a, &IdentityPreconditioner(n), &b, &opts),
            ),
            (
                pcg_solve(&a, &jac, &b, &opts),
                pcg_solve_unfused(&a, &jac, &b, &opts),
            ),
            (
                pcg_solve(&a, &PlainJacobi(jac.clone()), &b, &opts),
                pcg_solve_unfused(&a, &PlainJacobi(jac.clone()), &b, &opts),
            ),
        ];
        for (k, (f, u)) in cases.iter().enumerate() {
            assert_eq!(f.iterations, u.iterations, "case {k}");
            assert_eq!(f.converged, u.converged, "case {k}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f.x), bits(&u.x), "case {k} iterate");
            assert_eq!(
                bits(&f.residual_history),
                bits(&u.residual_history),
                "case {k} residual trajectory"
            );
        }
    }

    #[test]
    fn residual_history_monotone_start_end() {
        let a = spd_tridiag(40);
        let b = vec![1.0; 40];
        let res = cg_solve(&a, &b, &CgOptions::default());
        assert!(res.residual_history.len() >= 2);
        assert!(res.residual_history[0] >= *res.residual_history.last().unwrap());
    }

    #[test]
    fn condition_estimate_sane() {
        // Perfectly conditioned: identity-like -> converges in 1 it, no estimate.
        let a = CsrMatrix::identity(10);
        let res = cg_solve(&a, &vec![1.0; 10], &CgOptions::default());
        assert!(res.iterations <= 1);
        // A mildly conditioned system yields a finite estimate ≥ 1.
        let a = spd_tridiag(100);
        let res = cg_solve(
            &a,
            &vec![1.0; 100],
            &CgOptions {
                rel_tol: 1e-12,
                ..Default::default()
            },
        );
        if let Some(k) = condition_estimate_from_history(&res.residual_history) {
            assert!(k >= 1.0 && k < 100.0);
        }
    }
}
