//! Batched preconditioned conjugate gradients: k right-hand sides against
//! one operator and one preconditioner.
//!
//! The paper's economic argument — pay for one `[φ, ρ]` decomposition, then
//! amortize it across a *stream* of solves — makes a batch of k
//! right-hand sides the unit of serve work. The columns of a batch are
//! independent, so a batch is k solo solves ([`crate::cg::pcg_solve`],
//! one per column) fanned over the thread pool: the gain of
//! batching is whole columns running on different threads.
//!
//! # Column fan-out
//!
//! At serve sizes, splitting each kernel across threads costs more than it
//! saves, while whole columns are independent work. [`block_pcg_solve`]
//! therefore cuts the k columns into `g = min(k, current_num_threads())`
//! contiguous groups in one pool dispatch, and each group solves its
//! columns one after another on plain slices. Inside a group the kernels
//! run inline (the pool's nested-dispatch rule); when another caller holds
//! the pool, the groups run one after another on the calling thread.
//!
//! # Bitwise contract
//!
//! Every column of a batch is **bitwise identical** to running the
//! textbook [`crate::cg::pcg_solve_unfused`] on that column alone, at any
//! `HICOND_THREADS` cap and jitter seed: each column *is* a solo solve,
//! no arithmetic crosses columns, and every kernel's chunk geometry
//! depends only on the vector length, whichever group (and thread) runs
//! it. `tests/block_pcg.rs` holds the batch to this.

use crate::cg::{pcg_solve, CgOptions, CgResult, Preconditioner};
use crate::ops::LinearOperator;
use rayon::prelude::*;

/// PCG for `A xⱼ = bⱼ` on every column `bⱼ` of `b`, each starting from
/// `xⱼ = 0`. Returns one [`CgResult`] per column, index-aligned with `b`.
///
/// The columns are cut into `g = min(k, current_num_threads())` contiguous
/// groups, run in one pool dispatch (see the module docs); g = 1 runs the
/// columns in order on the calling thread. Each column is one
/// [`crate::cg::pcg_solve`], so its outputs (`x`, `iterations`,
/// `converged`, `final_rel_residual`, `residual_history`) and telemetry
/// are those of a solo solve.
///
/// # Panics
///
/// Panics if a column length or the preconditioner dimension disagrees
/// with the matrix.
pub fn block_pcg_solve<A, M, B>(a: &A, m: &M, b: &[B], opts: &CgOptions) -> Vec<CgResult>
where
    A: LinearOperator + Sync,
    M: Preconditioner + Sync,
    B: AsRef<[f64]> + Sync,
{
    let k = b.len();
    let groups = k.min(rayon::current_num_threads());
    let solve = |j: usize| pcg_solve(a, m, b[j].as_ref(), opts);
    if groups <= 1 {
        return (0..k).map(solve).collect();
    }
    let per_group: Vec<Vec<CgResult>> = (0..groups)
        .into_par_iter()
        .map(|u| {
            let (start, end) = rayon::pool::block_range(k, groups, u);
            (start..end).map(solve).collect()
        })
        .collect();
    per_group.into_iter().flatten().collect()
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
    fn block_matches_solo_bitwise_small() {
        let n = 120;
        let a = spd_tridiag(n);
        let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
        let cols: Vec<Vec<f64>> = (0..4).map(|s| rhs(n, s)).collect();
        let opts = CgOptions::default();
        let block = block_pcg_solve(&a, &m, &cols, &opts);
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
        let res = block_pcg_solve(&a, &IdentityPreconditioner(n), &cols, &CgOptions::default());
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
        let b = std::slice::from_ref(&col);
        let blk = block_pcg_solve(&a, &IdentityPreconditioner(n), b, &CgOptions::default());
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
        let b = [easy.clone(), hard.clone(), vec![0.0; n]];
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
        let b: [Vec<f64>; 0] = [];
        let res = block_pcg_solve(&a, &IdentityPreconditioner(10), &b, &CgOptions::default());
        assert!(res.is_empty());
    }
}
