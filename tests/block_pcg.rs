//! Batched-PCG acceptance suite: a batch solve must be **column-wise
//! bitwise identical** to k independent single-rhs solves, at every
//! thread cap × scheduler-jitter seed, with each column converging (or
//! stopping at iteration 0 on a zero rhs) on its own.
//!
//! The per-crate unit tests cover the kernels in isolation; this suite
//! exercises the full stack — `block_pcg_solve`'s column fan-out over the
//! pool, the CSR operator, the multilevel preconditioner's fused walk,
//! and `LaplacianSolver::solve_block` — the way the serve batch
//! dispatcher drives it.

use hicond_graph::generators;
use hicond_linalg::cg::{pcg_solve, CgOptions};
use hicond_linalg::{block_pcg_solve, CgResult};
use hicond_precond::{LaplacianSolver, MultilevelSteiner, SolverOptions};
use rayon::pool::{set_sched_jitter, with_thread_cap};

const CAPS: [usize; 3] = [1, 2, 4];
const JITTER_SEEDS: [Option<u64>; 3] = [None, Some(7), Some(1912)];

/// Restores `set_sched_jitter(None)` even if an assertion unwinds.
struct JitterGuard;
impl Drop for JitterGuard {
    fn drop(&mut self) {
        set_sched_jitter(None);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic deflated (zero-mean) rhs family: column `j` gets a
/// distinct phase so the k systems are genuinely different.
fn rhs_columns(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|j| {
            let mut b: Vec<f64> = (0..n)
                .map(|i| (((i * (2 * j + 3) + 7 * j) % 23) as f64) - 11.0)
                .collect();
            let mean = b.iter().sum::<f64>() / n as f64;
            for v in &mut b {
                *v -= mean;
            }
            b
        })
        .collect()
}

/// The full block result (x bits, iterations, residuals) for comparison.
fn result_key(results: &[CgResult]) -> Vec<(Vec<u64>, usize, u64, bool)> {
    results
        .iter()
        .map(|r| {
            (
                bits(&r.x),
                r.iterations,
                r.final_rel_residual.to_bits(),
                r.converged,
            )
        })
        .collect()
}

#[test]
fn block_pcg_matches_solo_solves_through_the_multilevel_stack() {
    let g = generators::grid2d(24, 24, |u, v| 1.0 + ((u + 2 * v) % 5) as f64);
    let a = hicond_graph::laplacian(&g);
    let m = MultilevelSteiner::new(&g, &Default::default());
    let opts = CgOptions {
        rel_tol: 1e-9,
        max_iter: 500,
        record_residuals: true,
    };
    let cols = rhs_columns(a.nrows(), 5);
    let results = block_pcg_solve(&a, &m, &cols, &opts);
    assert_eq!(results.len(), 5);
    for (j, col) in cols.iter().enumerate() {
        let solo = pcg_solve(&a, &m, col, &opts);
        assert!(results[j].converged, "column {j} converged");
        assert_eq!(
            bits(&results[j].x),
            bits(&solo.x),
            "column {j}: block x bitwise equals the solo solve"
        );
        assert_eq!(results[j].iterations, solo.iterations, "column {j} iters");
        assert_eq!(
            results[j].residual_history, solo.residual_history,
            "column {j}: identical residual trajectory"
        );
    }
}

#[test]
fn block_pcg_bitwise_invariant_across_caps_and_jitter() {
    let _guard = JitterGuard;
    let g = generators::grid2d(40, 40, |u, v| 1.0 + ((3 * u + v) % 7) as f64);
    let a = hicond_graph::laplacian(&g);
    let m = MultilevelSteiner::new(&g, &Default::default());
    let opts = CgOptions {
        rel_tol: 1e-8,
        max_iter: 400,
        record_residuals: false,
    };
    let cols = rhs_columns(a.nrows(), 4);
    let reference = with_thread_cap(1, || {
        set_sched_jitter(None);
        result_key(&block_pcg_solve(&a, &m, &cols, &opts))
    });
    for cap in CAPS {
        for seed in JITTER_SEEDS {
            let got = with_thread_cap(cap, || {
                set_sched_jitter(seed);
                let r = result_key(&block_pcg_solve(&a, &m, &cols, &opts));
                set_sched_jitter(None);
                r
            });
            assert!(
                got == reference,
                "block PCG diverged at cap {cap}, jitter {seed:?}"
            );
        }
    }
}

#[test]
fn solve_block_bitwise_invariant_across_caps_and_jitter() {
    let _guard = JitterGuard;
    // The 8³ volume keeps every level inside one BLAS-1 chunk; the 80×80
    // grid's level 0 (6400 rows) spans two, so its level sweeps and the
    // chunked rᵀz run on the pool at caps 2 and 4. The one-column solve
    // takes the pool itself: a fanned-out block runs its groups' kernels
    // inline.
    let graphs = [
        generators::oct_like_grid3d(8, 8, 8, 7, generators::OctParams::default()),
        generators::grid2d(80, 80, |u, v| 1.0 + ((u + 3 * v) % 5) as f64),
    ];
    for g in &graphs {
        let n = g.num_vertices();
        let solver = LaplacianSolver::new(g, &SolverOptions::default());
        let cols = rhs_columns(n, 3);
        let key = |results: &[Result<hicond_precond::Solution, hicond_precond::SolveError>]| {
            results
                .iter()
                .map(|r| match r {
                    Ok(s) => (bits(&s.x), s.iterations, true),
                    Err(_) => (Vec::new(), 0, false),
                })
                .collect::<Vec<_>>()
        };
        let run = || {
            let mut k = key(&solver.solve_block(&cols));
            k.extend(key(&[solver.solve(&cols[0])]));
            k
        };
        let reference = with_thread_cap(1, || {
            set_sched_jitter(None);
            run()
        });
        assert!(
            reference.iter().all(|(_, _, ok)| *ok),
            "n={n}: all columns converge"
        );
        assert_eq!(
            reference[0], reference[3],
            "n={n}: block column 0 equals its solo solve"
        );
        for cap in CAPS {
            for seed in JITTER_SEEDS {
                let got = with_thread_cap(cap, || {
                    set_sched_jitter(seed);
                    let r = run();
                    set_sched_jitter(None);
                    r
                });
                assert!(
                    got == reference,
                    "n={n}: solve_block diverged at cap {cap}, jitter {seed:?}"
                );
            }
        }
    }
}

#[test]
fn masking_freezes_mixed_difficulty_columns_independently() {
    // Easy column (loose tolerance hit fast), hard column (tight work),
    // zero column (converged at iteration 0), and a k=1 control: each
    // must behave exactly as it would alone.
    let g = generators::grid2d(20, 20, |u, v| 1.0 + ((u * v) % 3) as f64);
    let a = hicond_graph::laplacian(&g);
    let m = MultilevelSteiner::new(&g, &Default::default());
    let n = a.nrows();
    let opts = CgOptions {
        rel_tol: 1e-10,
        max_iter: 600,
        record_residuals: false,
    };
    let mut easy = vec![0.0; n];
    easy[0] = 1.0;
    easy[1] = -1.0;
    let hard = rhs_columns(n, 1).remove(0);
    let zero = vec![0.0; n];
    let cols = vec![easy.clone(), hard.clone(), zero.clone()];
    let results = block_pcg_solve(&a, &m, &cols, &opts);
    for (j, col) in [easy, hard.clone()].iter().enumerate() {
        let solo = pcg_solve(&a, &m, col, &opts);
        assert_eq!(bits(&results[j].x), bits(&solo.x), "column {j}");
        assert_eq!(results[j].iterations, solo.iterations, "column {j}");
    }
    assert!(results[2].converged, "zero rhs converges trivially");
    assert_eq!(results[2].iterations, 0, "zero rhs at iteration 0");
    assert!(results[2].x.iter().all(|&v| v == 0.0));
    // k=1 control: a one-column block is exactly the solo solver.
    let one = block_pcg_solve(&a, &m, std::slice::from_ref(&hard), &opts);
    let solo = pcg_solve(&a, &m, &hard, &opts);
    assert_eq!(bits(&one[0].x), bits(&solo.x), "k=1 block == solo");
}

#[test]
fn all_columns_converged_at_iteration_zero() {
    let g = generators::grid2d(10, 10, |_, _| 1.0);
    let a = hicond_graph::laplacian(&g);
    let m = MultilevelSteiner::new(&g, &Default::default());
    let n = a.nrows();
    let zeros = vec![vec![0.0; n]; 3];
    let results = block_pcg_solve(&a, &m, &zeros, &CgOptions::default());
    for (j, r) in results.iter().enumerate() {
        assert!(r.converged, "column {j}");
        assert_eq!(r.iterations, 0, "column {j} never iterated");
        assert_eq!(r.final_rel_residual, 0.0, "column {j}");
    }
}
