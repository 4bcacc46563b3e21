//! A turnkey Laplacian solver — the "combinatorial multigrid" facade this
//! paper's pipeline grew into.
//!
//! [`LaplacianSolver`] bundles the whole stack behind one call: build the
//! laminar hierarchy once (Section 3.1 clustering per level), assemble the
//! multilevel Steiner preconditioner, and answer any number of right-hand
//! sides with PCG. This is the API a downstream user actually wants:
//!
//! ```
//! use hicond_precond::solver::{LaplacianSolver, SolverOptions};
//! use hicond_graph::generators;
//!
//! let g = generators::grid2d(20, 20, |_, _| 1.0);
//! let solver = LaplacianSolver::new(&g, &SolverOptions::default());
//! let mut b = vec![0.0; 400];
//! b[0] = 1.0;
//! b[399] = -1.0;
//! let sol = solver.solve(&b).unwrap();
//! assert!(sol.iterations < 60);
//! ```

use crate::multilevel::{MultilevelOptions, MultilevelSteiner};
use hicond_graph::Graph;
use hicond_linalg::block_pcg_solve;
use hicond_linalg::cg::CgOptions;

/// Options for [`LaplacianSolver`].
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Multilevel preconditioner construction.
    pub multilevel: MultilevelOptions,
    /// PCG relative tolerance.
    pub rel_tol: f64,
    /// PCG iteration cap.
    pub max_iter: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            multilevel: MultilevelOptions::default(),
            rel_tol: 1e-8,
            max_iter: 10_000,
        }
    }
}

/// Errors a solve can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The right-hand side does not sum to ~zero on some connected
    /// component — the Laplacian system is inconsistent.
    InconsistentRhs {
        /// Worst component imbalance relative to ‖b‖₁.
        imbalance: f64,
    },
    /// PCG hit the iteration cap before reaching the tolerance.
    NotConverged {
        /// Relative residual at the cap.
        final_rel_residual: f64,
    },
    /// Dimension mismatch.
    WrongLength {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The solve panicked and the caller contained it (a serve lane
    /// answers every member of a panicked batch with this).
    Internal,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::InconsistentRhs { imbalance } => {
                write!(
                    f,
                    "rhs inconsistent on a component (imbalance {imbalance:.2e})"
                )
            }
            SolveError::NotConverged { final_rel_residual } => {
                write!(
                    f,
                    "PCG did not converge (relative residual {final_rel_residual:.2e})"
                )
            }
            SolveError::WrongLength { expected, got } => {
                write!(f, "rhs length {got}, expected {expected}")
            }
            SolveError::Internal => f.write_str("internal"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A solved system.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solution with zero mean per connected component.
    pub x: Vec<f64>,
    /// PCG iterations spent.
    pub iterations: usize,
    /// Final relative residual.
    pub rel_residual: f64,
}

/// Reusable Laplacian solver: one setup, many right-hand sides. The
/// system matrix is the preconditioner's level-0 Laplacian
/// ([`MultilevelSteiner::operator`]), held once.
pub struct LaplacianSolver {
    pub(crate) pre: MultilevelSteiner,
    pub(crate) comp_labels: Vec<u32>,
    pub(crate) num_components: usize,
    pub(crate) opts: SolverOptions,
}

impl LaplacianSolver {
    /// Builds the hierarchy and preconditioner for `g`.
    pub fn new(g: &Graph, opts: &SolverOptions) -> Self {
        let (comp_labels, num_components) = hicond_graph::connectivity::connected_components(g);
        LaplacianSolver {
            pre: MultilevelSteiner::new(g, &opts.multilevel),
            comp_labels,
            num_components,
            opts: *opts,
        }
    }

    /// Number of vertices.
    pub fn dim(&self) -> usize {
        self.pre.operator().nrows()
    }

    /// Number of hierarchy levels in the preconditioner.
    pub fn num_levels(&self) -> usize {
        self.pre.num_levels()
    }

    /// Solves `L x = b`. `b` must sum to (approximately) zero on each
    /// connected component; small imbalances are projected away, large
    /// ones are an error.
    pub fn solve(&self, b: &[f64]) -> Result<Solution, SolveError> {
        self.solve_one(b, false).map(|(sol, _)| sol)
    }

    /// Like [`solve`](Self::solve) but also returns the PCG residual
    /// trajectory `‖rᵢ‖₂` (one entry per iteration, starting at `‖r₀‖₂`).
    /// Two solvers with bitwise-identical state produce bitwise-identical
    /// trajectories at any thread cap — the artifact round-trip tests rely
    /// on this.
    pub fn solve_recording(&self, b: &[f64]) -> Result<(Solution, Vec<f64>), SolveError> {
        self.solve_one(b, true)
    }

    /// Solves `L x = bᵢ` for a whole batch of right-hand sides: the
    /// columns are solo PCG solves fanned over the thread pool (see
    /// [`block_pcg_solve`]), sharing one setup.
    ///
    /// Results are index-aligned with `bs`. Each column is validated
    /// independently — a wrong-length or inconsistent rhs gets its own
    /// `Err` and never enters the batch; the remaining columns solve
    /// normally. Each returned solution is **bitwise identical** to what
    /// [`Self::solve`] produces for that rhs alone, at any thread cap and
    /// jitter seed: both run the same validation, projection, PCG engine,
    /// and zero-mean normalization, and the columns do not interact.
    pub fn solve_block(&self, bs: &[Vec<f64>]) -> Vec<Result<Solution, SolveError>> {
        let _span = hicond_obs::span("solve_block");
        self.solve_columns(bs, false)
            .into_iter()
            .map(|r| r.map(|(sol, _)| sol))
            .collect()
    }

    fn solve_one(&self, b: &[f64], record: bool) -> Result<(Solution, Vec<f64>), SolveError> {
        // "pcg" and "precond_apply" spans from the inner solve nest under
        // this one ("solve/pcg/precond_apply" in the phase tree).
        let _span = hicond_obs::span("solve");
        self.solve_columns(&[b], record)
            .pop()
            .unwrap_or(Err(SolveError::NotConverged {
                final_rel_residual: f64::NAN,
            }))
    }

    /// Per-component sums of `b` after the consistency check: the one
    /// validation every solve entry point runs.
    fn component_sums(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveError::WrongLength {
                expected: n,
                got: b.len(),
            });
        }
        let mut comp_sum = vec![0.0; self.num_components];
        let mut l1 = 0.0;
        for (&bv, &c) in b.iter().zip(&self.comp_labels) {
            // connected_components labels densely, so every label fits
            // the bounds: comp_labels[v] < num_components.
            comp_sum[c as usize] += bv;
            l1 += bv.abs();
        }
        let imbalance =
            comp_sum.iter().map(|s| s.abs()).fold(0.0, f64::max) / l1.max(f64::MIN_POSITIVE);
        if imbalance > 1e-6 {
            return Err(SolveError::InconsistentRhs { imbalance });
        }
        Ok(comp_sum)
    }

    /// The shared solve path: validate each rhs, project the admitted ones
    /// to zero mean per component, solve them with [`block_pcg_solve`], and
    /// normalize each solution to zero mean per component. Results (with
    /// the residual history when `record`) are index-aligned with `bs`.
    fn solve_columns<B: AsRef<[f64]>>(
        &self,
        bs: &[B],
        record: bool,
    ) -> Vec<Result<(Solution, Vec<f64>), SolveError>> {
        hicond_obs::counter_add("solver/solves", bs.len() as u64);
        let mut comp_cnt = vec![0usize; self.num_components];
        for &c in &self.comp_labels {
            comp_cnt[c as usize] += 1; // bounds: labels < num_components
        }
        let mean = |sums: &[f64], v: usize| {
            let c = self.comp_labels[v] as usize;
            sums[c] / comp_cnt[c] as f64
        };
        let checked: Vec<Result<Vec<f64>, SolveError>> =
            bs.iter().map(|b| self.component_sums(b.as_ref())).collect();
        let projected: Vec<Vec<f64>> = bs
            .iter()
            .zip(&checked)
            .filter_map(|(b, c)| {
                let sums = c.as_ref().ok()?;
                let b = b.as_ref().iter().enumerate();
                Some(b.map(|(v, &bv)| bv - mean(sums, v)).collect())
            })
            .collect();
        let opts = CgOptions {
            rel_tol: self.opts.rel_tol,
            max_iter: self.opts.max_iter,
            record_residuals: record,
        };
        let mut solved =
            block_pcg_solve(self.pre.operator(), &self.pre, &projected, &opts).into_iter();
        checked
            .into_iter()
            .map(|c| {
                c?;
                // Every admitted column has a block result.
                let res = solved.next().ok_or(SolveError::NotConverged {
                    final_rel_residual: f64::NAN,
                })?;
                if !res.converged {
                    return Err(SolveError::NotConverged {
                        final_rel_residual: res.final_rel_residual,
                    });
                }
                let mut x = res.x;
                let mut xsum = vec![0.0; self.num_components];
                for (&xv, &c) in x.iter().zip(&self.comp_labels) {
                    xsum[c as usize] += xv;
                }
                for (v, xv) in x.iter_mut().enumerate() {
                    *xv -= mean(&xsum, v);
                }
                if hicond_obs::enabled() {
                    hicond_obs::counter_add("solver/iterations", res.iterations as u64);
                    hicond_obs::hist_record("solver/iterations_per_solve", res.iterations as f64);
                }
                Ok((
                    Solution {
                        x,
                        iterations: res.iterations,
                        rel_residual: res.final_rel_residual,
                    },
                    res.residual_history,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::{generators, laplacian};
    use hicond_linalg::vector::{deflate_constant, norm2};
    use hicond_linalg::LinearOperator;

    #[test]
    fn solves_multiple_rhs_reusing_setup() {
        let g = generators::oct_like_grid3d(8, 8, 8, 13, generators::OctParams::default());
        let n = g.num_vertices();
        let solver = LaplacianSolver::new(&g, &SolverOptions::default());
        let lap = laplacian(&g);
        for seed in 0..3u64 {
            let mut b: Vec<f64> = (0..n)
                .map(|i| (((i as u64 + seed) * 48271) % 101) as f64 - 50.0)
                .collect();
            deflate_constant(&mut b);
            let sol = solver.solve(&b).unwrap();
            let ax = lap.apply(&sol.x);
            let mut diff: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
            deflate_constant(&mut diff);
            assert!(norm2(&diff) <= 1e-6 * norm2(&b));
            // Zero-mean solution.
            assert!(sol.x.iter().sum::<f64>().abs() < 1e-8 * n as f64);
        }
    }

    #[test]
    fn rejects_inconsistent_rhs() {
        let g = generators::grid2d(6, 6, |_, _| 1.0);
        let solver = LaplacianSolver::new(&g, &SolverOptions::default());
        let b = vec![1.0; 36];
        match solver.solve(&b) {
            Err(SolveError::InconsistentRhs { .. }) => {}
            other => panic!("expected inconsistency error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_length() {
        let g = generators::grid2d(4, 4, |_, _| 1.0);
        let solver = LaplacianSolver::new(&g, &SolverOptions::default());
        assert!(matches!(
            solver.solve(&[1.0, -1.0]),
            Err(SolveError::WrongLength {
                expected: 16,
                got: 2
            })
        ));
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = hicond_graph::Graph::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 2.0)],
        );
        let solver = LaplacianSolver::new(&g, &SolverOptions::default());
        // Consistent per component.
        let b = vec![1.0, 0.0, -1.0, 2.0, -1.0, -1.0];
        let sol = solver.solve(&b).unwrap();
        let lap = laplacian(&g);
        let ax = lap.apply(&sol.x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-6);
        }
        // Inconsistent on one component caught.
        let bad = vec![1.0, 0.0, -1.0, 1.0, 0.0, 0.0];
        assert!(matches!(
            solver.solve(&bad),
            Err(SolveError::InconsistentRhs { .. })
        ));
    }

    #[test]
    fn solve_block_matches_solo_and_isolates_bad_columns() {
        let g = generators::oct_like_grid3d(6, 6, 6, 7, generators::OctParams::default());
        let n = g.num_vertices();
        let solver = LaplacianSolver::new(&g, &SolverOptions::default());
        let mut cols: Vec<Vec<f64>> = (0..3u64)
            .map(|seed| {
                let mut b: Vec<f64> = (0..n)
                    .map(|i| (((i as u64 + seed) * 48271) % 101) as f64 - 50.0)
                    .collect();
                deflate_constant(&mut b);
                b
            })
            .collect();
        // Inject a wrong-length column and an inconsistent one mid-batch.
        cols.insert(1, vec![1.0, 2.0]);
        cols.insert(3, vec![1.0; n]);
        let res = solver.solve_block(&cols);
        assert_eq!(res.len(), 5);
        assert!(matches!(res[1], Err(SolveError::WrongLength { .. })));
        assert!(matches!(res[3], Err(SolveError::InconsistentRhs { .. })));
        for j in [0usize, 2, 4] {
            let sol = res[j].as_ref().expect("good column solves");
            let solo = solver.solve(&cols[j]).expect("solo solves");
            assert_eq!(sol.iterations, solo.iterations, "col {j}");
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sol.x), bits(&solo.x), "col {j} not bitwise equal");
        }
    }

    #[test]
    fn tiny_imbalance_projected() {
        let g = generators::grid2d(5, 5, |_, _| 1.0);
        let solver = LaplacianSolver::new(&g, &SolverOptions::default());
        let mut b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.9).sin()).collect();
        deflate_constant(&mut b);
        b[0] += 1e-9; // numerically tiny imbalance
        assert!(solver.solve(&b).is_ok());
    }
}
