//! Block (multi-right-hand-side) preconditioned conjugate gradients.
//!
//! The paper's economic argument — pay for one `[φ, ρ]` decomposition, then
//! amortize it across a *stream* of solves — extends one level down: when k
//! right-hand sides are in flight at once, the matrix and the preconditioner
//! hierarchy can be traversed **once per iteration for a group of columns**
//! instead of once per column. The engine runs k interleaved PCG
//! iterations over a column-major [`DenseBlock`], feeding every active
//! column from shared operator sweeps ([`crate::ops::LinearOperator::apply_block`],
//! [`crate::cg::Preconditioner::apply_dot_block`]). A solo solve
//! ([`crate::cg::pcg_solve`]) is the k = 1 block, so this is the only
//! production PCG loop.
//!
//! # Column fan-out
//!
//! At serve sizes, splitting each kernel across threads costs more than it
//! saves, while whole columns are independent work. [`block_pcg_solve`]
//! therefore cuts the k columns into `g = min(k, current_num_threads())`
//! contiguous groups and runs the engine on each group's sub-block in one
//! pool dispatch. Inside a group the kernels run inline (the pool's
//! nested-dispatch rule); when another caller holds the pool, the groups
//! run one after another on the calling thread.
//!
//! # Masking
//!
//! Columns converge (or break down) independently. A finished column
//! **freezes**: it leaves the active set, its iterate and residual are never
//! touched again, and subsequent operator sweeps cover only the surviving
//! columns — the block shrinks instead of dragging converged work along.
//!
//! # Bitwise contract
//!
//! Every column of a block solve is **bitwise identical** to running the
//! textbook [`crate::cg::pcg_solve_unfused`] on that column alone, at any
//! `HICOND_THREADS` cap and jitter seed. This holds because the engine
//! performs, per column, the textbook operation sequence on that column's
//! contiguous slice: the same kernels ([`dot_with_scratch`], [`xpby`]) or
//! fused twins with the same per-element arithmetic ([`fused_update_x_r`],
//! the preconditioners' `apply_dot_into`), the same length-only chunk
//! geometry, and block operator applies whose per-column output is
//! contractually bitwise equal to the single-vector apply. Interleaving columns reorders *between* columns,
//! never *within* one — no arithmetic crosses columns, so each column's
//! floating-point stream is unchanged, whichever group (and thread) it
//! runs in. `tests/block_pcg.rs` holds the engine to this.

use crate::cg::{CgOptions, CgResult, Preconditioner};
use crate::ops::LinearOperator;
use crate::vector::{dot_with_scratch, fused_update_x_r, norm2, scratch_len, xpby};
use rayon::prelude::*;

/// A dense multi-vector: k columns of length n, stored column-major so
/// every column is one contiguous `&[f64]` slice — the layout the
/// single-vector kernels (and their fixed chunk geometry) operate on
/// directly, which is what makes per-column bitwise equality to the
/// single-rhs solver structural rather than incidental.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseBlock {
    n: usize,
    k: usize,
    data: Vec<f64>,
}

impl DenseBlock {
    /// An n×k block of zeros.
    pub fn new(n: usize, k: usize) -> DenseBlock {
        DenseBlock {
            n,
            k,
            data: vec![0.0; n * k],
        }
    }

    /// Builds a block from k equal-length columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns disagree in length.
    pub fn from_columns(cols: &[Vec<f64>]) -> DenseBlock {
        let n = cols.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols.len());
        for c in cols {
            assert_eq!(c.len(), n, "DenseBlock: ragged columns");
            data.extend_from_slice(c);
        }
        DenseBlock {
            n,
            k: cols.len(),
            data,
        }
    }

    /// Column length n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Column count k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column `j` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.k, "DenseBlock: column {j} out of {}", self.k);
        &self.data[j * self.n..(j + 1) * self.n]
    }

    /// Column `j` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.k, "DenseBlock: column {j} out of {}", self.k);
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    /// Columns `start..end` as a new block.
    fn columns(&self, start: usize, end: usize) -> DenseBlock {
        DenseBlock {
            n: self.n,
            k: end - start,
            data: self.data[start * self.n..end * self.n].to_vec(),
        }
    }

    /// Consumes the block into its k columns.
    pub fn into_columns(mut self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.k);
        for _ in 0..self.k {
            let rest = self.data.split_off(self.n.min(self.data.len()));
            out.push(std::mem::replace(&mut self.data, rest));
        }
        out
    }
}

/// Interned flight-recorder name for residual-decade milestones, resolved
/// once per process so the hot loop never touches the intern mutex.
fn residual_milestone_id() -> u32 {
    static ID: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *ID.get_or_init(|| hicond_obs::flight::intern("cg/residual_decade"))
}

/// Block PCG for `A X = B`, k right-hand sides at once, starting from
/// `X = 0`. Returns one [`CgResult`] per column, index-aligned with the
/// columns of `b`. This is the workspace's only production PCG loop:
/// [`crate::cg::pcg_solve`] is its k = 1 case.
///
/// The columns are cut into `g = min(k, current_num_threads())` contiguous
/// groups, and each group's sub-block runs the engine in one pool dispatch
/// (see the module docs); g = 1 runs the engine directly on `b`.
///
/// Per iteration the engine performs **one** operator sweep
/// ([`LinearOperator::apply_block`]) and **one** fused preconditioner
/// sweep ([`Preconditioner::apply_dot_block`], which also yields each
/// column's `rᵀz`) over its group's active columns, then the per-column
/// scalar recurrences, with `x += αp`, `r −= α·Ap` and `‖r‖²` in one pass
/// ([`fused_update_x_r`]). Columns that converge, hit `max_iter`, or
/// break down numerically freeze and drop out of subsequent sweeps.
///
/// Every column's outputs (`x`, `iterations`, `converged`,
/// `final_rel_residual`, `residual_history`) are bitwise identical to the
/// textbook [`crate::cg::pcg_solve_unfused`] on that column — see the
/// module docs for why — and therefore also deterministic across thread
/// caps and jitter seeds.
///
/// All scratch is allocated before the loop; the iteration itself
/// performs no heap allocation (asserted by `tests/alloc_counting.rs`).
///
/// # Telemetry
///
/// Observe-only, so on/off runs are bitwise identical: a `pcg` span per
/// group, the `cg/solves` (one per column) and `cg/iterations` counters,
/// the `cg/residual` trace of the first group's first nonzero column, a
/// convergence watchdog per column, and a flight milestone each time a
/// column's relative residual crosses a decade.
///
/// # Panics
///
/// Panics if the block shape or the preconditioner dimension disagrees
/// with the matrix.
pub fn block_pcg_solve<A, M>(a: &A, m: &M, b: &DenseBlock, opts: &CgOptions) -> Vec<CgResult>
where
    A: LinearOperator + Sync,
    M: Preconditioner + Sync,
{
    let k = b.k();
    let groups = k.min(rayon::current_num_threads());
    if groups <= 1 {
        return pcg_engine(a, m, b, opts, true);
    }
    let per_group: Vec<Vec<CgResult>> = (0..groups)
        .into_par_iter()
        .map(|u| {
            let (start, end) = rayon::pool::block_range(k, groups, u);
            pcg_engine(a, m, &b.columns(start, end), opts, u == 0)
        })
        .collect();
    per_group.into_iter().flatten().collect()
}

/// The PCG engine behind [`block_pcg_solve`], on one block of columns and
/// the calling thread. `trace_residual` selects whether this block owns
/// the `cg/residual` trace (one block per solve does, so concurrent
/// groups never interleave their points in it).
pub(crate) fn pcg_engine<A: LinearOperator, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &DenseBlock,
    opts: &CgOptions,
    trace_residual: bool,
) -> Vec<CgResult> {
    let n = a.dim();
    let k = b.k();
    assert_eq!(b.n(), n, "pcg: rhs column length");
    assert_eq!(m.dim(), n, "pcg: preconditioner dim");
    if k == 0 {
        return Vec::new();
    }
    // One relaxed load; the loop below stays allocation- and lock-free
    // when observability is off.
    let obs_on = hicond_obs::enabled();
    let _span = hicond_obs::span("pcg");
    let mut bnorm = vec![0.0; k];
    let mut rz = vec![0.0; k];
    let mut rz_new = vec![0.0; k];
    let mut iterations = vec![0usize; k];
    let mut converged = vec![false; k];
    let mut history: Vec<Vec<f64>> = vec![Vec::new(); k];
    // Zero columns are converged at iteration 0 and never enter the
    // active set. `active` and `survivors` are the two halves of each
    // iteration's column mask, reused so the loop never allocates.
    let mut active: Vec<usize> = Vec::with_capacity(k);
    let mut survivors: Vec<usize> = Vec::with_capacity(k);
    for j in 0..k {
        bnorm[j] = norm2(b.col(j));
        // exact: a norm is 0.0 iff the column is identically zero.
        if bnorm[j] == 0.0 {
            converged[j] = true;
        } else {
            active.push(j);
        }
    }
    let traced = active.first().copied().filter(|_| trace_residual);
    // The watchdogs and milestones read computed residuals and never
    // produce a value the iteration uses.
    let mut watchdogs: Vec<hicond_obs::Watchdog> = Vec::new();
    if obs_on {
        hicond_obs::counter_add("cg/solves", k as u64);
        hicond_obs::counter_add(
            "cg/scratch_bytes",
            8 * (5 * (n * k) as u64 + scratch_len(n) as u64),
        );
        if trace_residual {
            // Reserve the whole series so per-iteration pushes never
            // allocate.
            hicond_obs::trace_start("cg/residual", opts.max_iter.saturating_add(1));
        }
        watchdogs.resize_with(k, hicond_obs::Watchdog::new);
    }
    // Next decade of each column's relative residual that fires a flight
    // milestone; every column starts at ‖b‖/‖b‖ = 1.
    let mut next_milestone = vec![0.1f64; k];
    let mut x = DenseBlock::new(n, k);
    let mut r = b.clone();
    let mut z = DenseBlock::new(n, k);
    let mut ap = DenseBlock::new(n, k);
    let mut partials = vec![0.0; scratch_len(n)];
    m.apply_dot_block(&r, &mut z, &active, &mut rz, &mut partials);
    let mut p = DenseBlock::new(n, k);
    for &j in &active {
        p.col_mut(j).copy_from_slice(z.col(j));
        if opts.record_residuals {
            history[j].reserve(opts.max_iter + 2);
            history[j].push(norm2(r.col(j)));
        }
        if obs_on && traced == Some(j) {
            hicond_obs::trace_push("cg/residual", norm2(r.col(j)));
        }
    }
    let mut it = 0;
    while it < opts.max_iter && !active.is_empty() {
        a.apply_block(&p, &mut ap, &active);
        // Per-column direction dot, fused x/r update, convergence check.
        // Scanning `active` in increasing column order keeps the schedule
        // k-independent.
        survivors.clear();
        for &j in &active {
            let pap = dot_with_scratch(p.col(j), ap.col(j), &mut partials);
            if pap <= 0.0 {
                continue; // numerical kernel: freeze, not converged
            }
            let alpha = rz[j] / pap;
            if !alpha.is_finite() {
                continue; // breakdown: freeze
            }
            let rnorm = fused_update_x_r(
                alpha,
                p.col(j),
                ap.col(j),
                x.col_mut(j),
                r.col_mut(j),
                &mut partials,
            )
            .sqrt();
            iterations[j] += 1;
            if opts.record_residuals {
                history[j].push(rnorm);
            }
            if obs_on {
                if traced == Some(j) {
                    hicond_obs::trace_push("cg/residual", rnorm);
                }
                let rel = rnorm / bnorm[j];
                if let Some(w) = watchdogs.get_mut(j) {
                    w.observe(iterations[j] as u64, rel);
                }
                if rel > 0.0 && rel.is_finite() && rel < next_milestone[j] {
                    // One event per iteration at most, on crossing a
                    // residual decade (bounded: at worst ~300 divisions
                    // down to underflow).
                    hicond_obs::flight::event(
                        hicond_obs::flight::EventKind::ResidualMilestone,
                        residual_milestone_id(),
                        iterations[j] as u64,
                        rel.to_bits(),
                    );
                    while next_milestone[j] > rel {
                        next_milestone[j] /= 10.0;
                    }
                }
            }
            if rnorm <= opts.rel_tol * bnorm[j] {
                converged[j] = true;
                continue; // done: freeze
            }
            if !rnorm.is_finite() {
                continue; // diverged: freeze
            }
            survivors.push(j);
        }
        it += 1;
        if survivors.is_empty() || it >= opts.max_iter {
            // The textbook loop would run one more preconditioner apply
            // here before its loop condition fails; skipping it changes
            // only internal scratch (z, p), never a reported output.
            break;
        }
        // One preconditioner sweep (with rᵀz) for every surviving column,
        // then the loop's tail: breakdown test, β, direction update.
        m.apply_dot_block(&r, &mut z, &survivors, &mut rz_new, &mut partials);
        active.clear();
        for &j in &survivors {
            // β = rz_new/rz divides by this value; only an exact zero
            // (or non-finite) poisons it — exact compare.
            if rz_new[j] == 0.0 || !rz_new[j].is_finite() {
                continue; // stagnated: freeze
            }
            let beta = rz_new[j] / rz[j];
            rz[j] = rz_new[j];
            xpby(z.col(j), beta, p.col_mut(j));
            active.push(j);
        }
    }
    if obs_on {
        hicond_obs::counter_add("cg/iterations", iterations.iter().map(|&i| i as u64).sum());
    }
    x.into_columns()
        .into_iter()
        .enumerate()
        .map(|(j, xj)| {
            // exact: zero-rhs columns never iterated and report residual 0.
            let final_rel_residual = if bnorm[j] == 0.0 {
                0.0
            } else {
                let rel = norm2(r.col(j)) / bnorm[j];
                if obs_on {
                    hicond_obs::hist_record("cg/iterations_per_solve", iterations[j] as f64);
                    hicond_obs::gauge_set("cg/final_rel_residual", rel);
                }
                rel
            };
            CgResult {
                x: xj,
                iterations: iterations[j],
                final_rel_residual,
                residual_history: std::mem::take(&mut history[j]),
                converged: converged[j],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{pcg_solve_unfused, IdentityPreconditioner, JacobiPreconditioner};
    use crate::csr::{CooBuilder, CsrMatrix};

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

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                ((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97) % 1000) as f64 / 500.0
                    - 1.0
            })
            .collect()
    }

    #[test]
    fn dense_block_shape_and_columns() {
        let cols = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let mut blk = DenseBlock::from_columns(&cols);
        assert_eq!((blk.n(), blk.k()), (2, 3));
        assert_eq!(blk.col(1), &[3.0, 4.0]);
        blk.col_mut(2)[0] = 9.0;
        assert_eq!(
            blk.into_columns(),
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![9.0, 6.0]]
        );
    }

    #[test]
    fn empty_column_block() {
        let blk = DenseBlock::new(0, 2);
        assert_eq!(blk.into_columns(), vec![Vec::<f64>::new(); 2]);
    }

    #[test]
    fn block_matches_solo_bitwise_small() {
        let n = 120;
        let a = spd_tridiag(n);
        let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
        let cols: Vec<Vec<f64>> = (0..4).map(|s| rhs(n, s)).collect();
        let b = DenseBlock::from_columns(&cols);
        let opts = CgOptions::default();
        let block = block_pcg_solve(&a, &m, &b, &opts);
        for (j, col) in cols.iter().enumerate() {
            let solo = pcg_solve_unfused(&a, &m, col, &opts);
            assert_eq!(block[j].iterations, solo.iterations, "col {j}");
            assert_eq!(block[j].converged, solo.converged, "col {j}");
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&block[j].x), bits(&solo.x), "col {j} iterate");
            assert_eq!(
                bits(&block[j].residual_history),
                bits(&solo.residual_history),
                "col {j} residuals"
            );
        }
    }

    #[test]
    fn zero_column_converges_at_iteration_zero() {
        let n = 50;
        let a = spd_tridiag(n);
        let cols = vec![vec![0.0; n], rhs(n, 3)];
        let b = DenseBlock::from_columns(&cols);
        let res = block_pcg_solve(&a, &IdentityPreconditioner(n), &b, &CgOptions::default());
        assert!(res[0].converged);
        assert_eq!(res[0].iterations, 0);
        assert_eq!(res[0].final_rel_residual, 0.0);
        assert!(res[0].x.iter().all(|&v| v == 0.0));
        assert!(res[1].converged);
        assert!(res[1].iterations > 0);
    }

    #[test]
    fn single_column_block_is_a_solo_solve() {
        let n = 80;
        let a = spd_tridiag(n);
        let col = rhs(n, 11);
        let b = DenseBlock::from_columns(std::slice::from_ref(&col));
        let blk = block_pcg_solve(&a, &IdentityPreconditioner(n), &b, &CgOptions::default());
        let solo = pcg_solve_unfused(&a, &IdentityPreconditioner(n), &col, &CgOptions::default());
        assert_eq!(blk.len(), 1);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&blk[0].x), bits(&solo.x));
        assert_eq!(blk[0].iterations, solo.iterations);
    }

    #[test]
    fn mixed_difficulty_columns_freeze_independently() {
        let n = 200;
        let a = spd_tridiag(n);
        // Easy: an eigenvector-ish smooth rhs; hard: rough pseudorandom.
        let easy: Vec<f64> = {
            let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
            a.mul(&xt)
        };
        let hard = rhs(n, 7);
        let b = DenseBlock::from_columns(&[easy.clone(), hard.clone(), vec![0.0; n]]);
        let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
        let opts = CgOptions {
            rel_tol: 1e-10,
            ..Default::default()
        };
        let res = block_pcg_solve(&a, &m, &b, &opts);
        assert!(res.iter().all(|r| r.converged));
        assert_eq!(res[2].iterations, 0);
        // Each column still matches its solo run exactly.
        for (j, col) in [easy, hard].iter().enumerate() {
            let solo = pcg_solve_unfused(&a, &m, col, &opts);
            assert_eq!(res[j].iterations, solo.iterations, "col {j}");
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&res[j].x), bits(&solo.x), "col {j}");
        }
    }

    #[test]
    fn zero_width_block() {
        let a = spd_tridiag(10);
        let b = DenseBlock::new(10, 0);
        let res = block_pcg_solve(&a, &IdentityPreconditioner(10), &b, &CgOptions::default());
        assert!(res.is_empty());
    }
}
