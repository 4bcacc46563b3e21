//! Conjugate gradients and preconditioned conjugate gradients.
//!
//! The residual histories recorded in [`CgResult`] are the raw material of
//! the paper's Figure 6 (norm of `‖Axᵢ − b‖₂` against iteration number for
//! the Steiner versus the subgraph preconditioner).
//!
//! The solvers tolerate *singular consistent* systems — graph Laplacians
//! have the constant vector in their kernel — as long as `b` is orthogonal
//! to the kernel; iterates then stay in the kernel's complement.

use crate::ops::LinearOperator;
use crate::vector::{
    dot_with_scratch, fused_axpy_dot_self, fused_copy_dot, fused_scale_dot, fused_update_x_r,
    norm2, par_axpy, scratch_len, xpby,
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
    /// traversal should override this — the PCG engine calls it once per
    /// iteration, and eliminating the extra read of `r` and `z` is one of
    /// the two memory-sweep savings of the fused solver (the multilevel
    /// Steiner solver in `hicond-precond` folds it into its last level
    /// sweep). **Contract:** an override must return bitwise the same `z`
    /// and the same dot value as the default (same per-element arithmetic,
    /// same chunk geometry, same fixed-shape partial reduction) at any
    /// thread cap; `tests/determinism.rs` holds implementations to it.
    fn apply_dot_into(&self, r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
        self.apply_into(r, z);
        dot_with_scratch(r, z, partials)
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

/// Interned flight-recorder name for residual-decade milestones, resolved
/// once per process so the hot loop never touches the intern mutex.
fn residual_milestone_id() -> u32 {
    static ID: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *ID.get_or_init(|| hicond_obs::flight::intern("cg/residual_decade"))
}

/// Preconditioned conjugate gradients for `A x = b`, starting from `x = 0`.
///
/// `m` must be symmetric positive definite on the relevant subspace; the
/// Steiner preconditioner of the paper enters here through its Schur
/// complement action (see `hicond-precond`).
///
/// This is the workspace's only production PCG loop: every column of a
/// batch ([`crate::block_pcg_solve`]) is one such solve. Per iteration it
/// makes one operator apply, one fused preconditioner apply with `rᵀz`
/// ([`Preconditioner::apply_dot_into`]), and updates `x += αp`,
/// `r −= α·Ap` and `‖r‖²` in one pass ([`fused_update_x_r`]). Bitwise
/// identical to [`pcg_solve_unfused`] — same kernels or fused twins with
/// the same per-element arithmetic and chunk geometry — at any thread cap
/// and jitter seed; CI gates on the equivalence. All scratch is allocated
/// before the loop, and the iteration itself performs no heap allocation
/// (`tests/alloc_counting.rs`).
///
/// # Telemetry
///
/// Observe-only, so on/off runs are bitwise identical: a `pcg` span, the
/// `cg/solves`, `cg/scratch_bytes` and `cg/iterations` counters, the
/// `cg/iterations_per_solve` histogram, the `cg/final_rel_residual` gauge,
/// a convergence watchdog, and a flight milestone each time the relative
/// residual crosses a decade. Counters are recorded once per solve, so
/// an iteration adds only what the preconditioner itself records.
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
    let n = a.dim();
    assert_eq!(b.len(), n, "pcg: rhs length");
    assert_eq!(m.dim(), n, "pcg: preconditioner dim");
    // One relaxed load; the loop below stays allocation- and lock-free
    // when observability is off.
    let obs_on = hicond_obs::enabled();
    let _span = hicond_obs::span("pcg");
    if obs_on {
        hicond_obs::counter_add("cg/solves", 1);
        hicond_obs::counter_add("cg/scratch_bytes", 8 * (5 * n + scratch_len(n)) as u64);
    }
    let bnorm = norm2(b);
    let mut x = vec![0.0; n];
    let mut history = Vec::new();
    // A zero rhs is converged at iteration 0 with residual 0.
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
    // The watchdog and milestones read computed residuals and never
    // produce a value the iteration uses.
    let mut watchdog = obs_on.then(hicond_obs::Watchdog::new);
    // Next decade of the relative residual that fires a flight milestone;
    // the solve starts at ‖b‖/‖b‖ = 1.
    let mut next_milestone = 0.1f64;
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    let mut ap = vec![0.0; n];
    let mut partials = vec![0.0; scratch_len(n)];
    let mut rz = m.apply_dot_into(&r, &mut z, &mut partials);
    let mut p = z.clone();
    if opts.record_residuals {
        history.reserve(opts.max_iter + 2);
        history.push(norm2(&r));
    }
    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iter {
        a.apply_into(&p, &mut ap);
        let pap = dot_with_scratch(&p, &ap, &mut partials);
        if pap <= 0.0 {
            break; // hit the (numerical) kernel
        }
        let alpha = rz / pap;
        if !alpha.is_finite() {
            break; // breakdown
        }
        let rnorm = fused_update_x_r(alpha, &p, &ap, &mut x, &mut r, &mut partials).sqrt();
        iterations += 1;
        if opts.record_residuals {
            history.push(rnorm);
        }
        if obs_on {
            let rel = rnorm / bnorm;
            if let Some(w) = watchdog.as_mut() {
                w.observe(iterations as u64, rel);
            }
            if rel > 0.0 && rel.is_finite() && rel < next_milestone {
                // One event per iteration at most, on crossing a residual
                // decade (bounded: at worst ~300 divisions down to
                // underflow).
                hicond_obs::flight::event(
                    hicond_obs::flight::EventKind::ResidualMilestone,
                    residual_milestone_id(),
                    iterations as u64,
                    rel.to_bits(),
                );
                while next_milestone > rel {
                    next_milestone /= 10.0;
                }
            }
        }
        if rnorm <= opts.rel_tol * bnorm {
            converged = true;
            break;
        }
        if !rnorm.is_finite() || iterations >= opts.max_iter {
            // At the cap the textbook loop would run one more
            // preconditioner apply before its loop condition fails;
            // skipping it changes only scratch (z, p), never an output.
            break;
        }
        let rz_new = m.apply_dot_into(&r, &mut z, &mut partials);
        // exact: only a zero (or non-finite) rz poisons β = rz_new/rz.
        if rz_new == 0.0 || !rz_new.is_finite() {
            break; // stagnated
        }
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
    }
    let final_rel_residual = norm2(&r) / bnorm;
    if obs_on {
        hicond_obs::counter_add("cg/iterations", iterations as u64);
        hicond_obs::hist_record("cg/iterations_per_solve", iterations as f64);
        hicond_obs::gauge_set("cg/final_rel_residual", final_rel_residual);
    }
    CgResult {
        x,
        iterations,
        final_rel_residual,
        residual_history: history,
        converged,
    }
}

/// The textbook (unfused) PCG iteration: separate sweeps for the `x`
/// update, the `r` update, the residual norm, the preconditioner apply, and
/// the `rᵀz` dot, with no telemetry. It is the reference the PCG engine
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
