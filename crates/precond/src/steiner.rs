//! The two-level Steiner preconditioner (Definition 3.1, Theorem 3.5,
//! Remark 2).
//!
//! Given a decomposition `P` of the graph `A`, the Steiner graph is
//! `S_P = Q + Σ Tᵢ` — quotient plus volume-stars. Preconditioning with
//! `S_P` means applying the inverse of its Schur complement `B` with
//! respect to the Steiner (root) vertices, and because the leaf block of
//! `S_P` is diagonal this collapses to
//! `B⁻¹ r = D⁻¹ r + R · Q⁺ (Rᵀ r)`: a pointwise scaling, a cluster-wise
//! sum, one solve on the (ρ-times smaller) quotient Laplacian, and a
//! broadcast back — all embarrassingly parallel except the coarse solve,
//! exactly as Remark 2 describes.

use hicond_graph::{laplacian, Graph, Partition};
use hicond_linalg::dense::CholeskyFactor;
use hicond_linalg::{CooBuilder, CsrMatrix, Preconditioner};
use rayon::prelude::*;

/// Exact solver for a (possibly singular) graph Laplacian via grounded
/// dense Cholesky, one factor per connected component. The action equals
/// the Moore–Penrose pseudoinverse on consistent right-hand sides and is
/// symmetric positive semidefinite on all of `Rⁿ` (inputs and outputs are
/// projected to zero mean per component).
#[derive(Debug)]
pub struct GroundedLaplacianSolver {
    pub(crate) comps: Vec<Vec<usize>>,
    pub(crate) factors: Vec<Option<CholeskyFactor>>,
    pub(crate) n: usize,
}

impl GroundedLaplacianSolver {
    /// Factors the Laplacian of `g`. Cost O(Σ |componentᵢ|³); intended for
    /// coarse grids — panics above `dense_limit` vertices as a guard.
    pub fn new(g: &Graph, dense_limit: usize) -> Self {
        let n = g.num_vertices();
        assert!(
            n <= dense_limit,
            "GroundedLaplacianSolver: {n} vertices exceeds dense limit {dense_limit}"
        );
        let (labels, ncomp) = hicond_graph::connectivity::connected_components(g);
        let mut comps = vec![Vec::new(); ncomp];
        for v in 0..n {
            comps[labels[v] as usize].push(v);
        }
        let lap = laplacian(g);
        let factors = comps
            .iter()
            .map(|comp| {
                if comp.len() < 2 {
                    return None;
                }
                // Grounded: drop the last vertex of the component. The
                // grounded block of a connected component is SPD, so the
                // factorization cannot fail; the debug assert documents
                // the invariant without a release panic path.
                let keep = &comp[..comp.len() - 1];
                let sub = lap.principal_submatrix(keep);
                let f = CholeskyFactor::factor(&sub.to_dense());
                debug_assert!(f.is_some(), "grounded Laplacian block must be SPD");
                f
            })
            .collect();
        GroundedLaplacianSolver { comps, factors, n }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Applies the pseudoinverse: projects `b` to zero mean per component,
    /// solves, and returns the zero-mean solution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        let mut scratch = vec![0.0; self.scratch_len()];
        self.solve_into(b, &mut x, &mut scratch);
        x
    }

    /// Scratch length [`Self::solve_into`] needs: the largest component.
    pub(crate) fn scratch_len(&self) -> usize {
        self.comps.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// [`Self::solve`] into a caller buffer, with caller scratch of at
    /// least [`Self::scratch_len`] entries: the same arithmetic, no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` is not of length `dim`, or `scratch` is short.
    pub(crate) fn solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        x.fill(0.0);
        for (comp, factor) in self.comps.iter().zip(&self.factors) {
            let Some(f) = factor else { continue };
            let Some((&grounded, kept)) = comp.split_last() else {
                continue;
            };
            let mean = comp.iter().map(|&v| b[v]).sum::<f64>() / comp.len() as f64;
            let sol = &mut scratch[..kept.len()];
            for (s, &v) in sol.iter_mut().zip(kept) {
                *s = b[v] - mean;
            }
            f.solve_in_place(sol);
            // Grounded vertex gets 0; shift to zero mean.
            let shift = sol.iter().sum::<f64>() / comp.len() as f64;
            for (&s, &v) in sol.iter().zip(kept) {
                x[v] = s - shift;
            }
            x[grounded] = -shift;
        }
    }
}

/// The two-level Steiner preconditioner with an exact quotient solve.
#[derive(Debug)]
pub struct SteinerPreconditioner {
    inv_d: Vec<f64>,
    assignment: Vec<u32>,
    num_clusters: usize,
    coarse: GroundedLaplacianSolver,
}

impl SteinerPreconditioner {
    /// Builds the preconditioner for `g` from the decomposition `p`.
    ///
    /// The quotient Laplacian is factored densely (grounded Cholesky);
    /// `coarse_dense_limit` guards against accidentally huge quotients —
    /// use [`crate::MultilevelSteiner`] beyond it.
    pub fn new(g: &Graph, p: &Partition, coarse_dense_limit: usize) -> Self {
        assert_eq!(g.num_vertices(), p.num_vertices());
        p.debug_invariants();
        let quotient = p.quotient_graph(g);
        let coarse = GroundedLaplacianSolver::new(&quotient, coarse_dense_limit);
        let inv_d: Vec<f64> = g
            .volumes()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        SteinerPreconditioner {
            inv_d,
            assignment: p.assignment().to_vec(),
            num_clusters: p.num_clusters(),
            coarse,
        }
    }

    /// Number of Steiner (quotient) vertices `m`.
    pub fn num_steiner_vertices(&self) -> usize {
        self.num_clusters
    }
}

impl Preconditioner for SteinerPreconditioner {
    fn dim(&self) -> usize {
        self.inv_d.len()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        // Cluster-wise sums (Rᵀ r).
        let mut coarse_rhs = vec![0.0; self.num_clusters];
        for (v, &c) in self.assignment.iter().enumerate() {
            coarse_rhs[c as usize] += r[v];
        }
        let y = self.coarse.solve(&coarse_rhs);
        // z = D⁻¹ r + R y (pointwise; parallel for large n).
        let inv_d = &self.inv_d;
        let assignment = &self.assignment;
        if r.len() >= 1 << 15 {
            z.par_iter_mut().enumerate().for_each(|(v, zv)| {
                *zv = inv_d[v] * r[v] + y[assignment[v] as usize];
            });
        } else {
            for (v, zv) in z.iter_mut().enumerate() {
                *zv = inv_d[v] * r[v] + y[assignment[v] as usize];
            }
        }
    }
}

/// The explicit `(n + m)`-vertex Steiner graph Laplacian `S_P` of
/// Definition 3.1: leaves `0..n` are the graph vertices, roots `n..n+m`
/// the clusters; star edges `(u, root(u))` carry `vol_A(u)` and quotient
/// edges `(rᵢ, rⱼ)` carry `cap(Vᵢ, Vⱼ)`. Used to verify Theorem 3.5
/// support bounds via explicit Schur complements.
pub fn steiner_laplacian(g: &Graph, p: &Partition) -> CsrMatrix {
    let n = g.num_vertices();
    let m = p.num_clusters();
    let mut b = CooBuilder::with_capacity(n + m, n + m, 4 * n + 4 * g.num_edges());
    for v in 0..n {
        let vol = g.vol(v);
        if vol <= 0.0 {
            continue;
        }
        let root = n + p.cluster_of(v);
        b.push(v, v, vol);
        b.push(root, root, vol);
        b.push_sym(v, root, -vol);
    }
    let q = p.quotient_graph(g);
    for e in q.edges() {
        let (i, j) = (n + e.u as usize, n + e.v as usize);
        b.push(i, i, e.w);
        b.push(j, j, e.w);
        b.push_sym(i, j, -e.w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_core::{decompose_fixed_degree, FixedDegreeOptions};
    use hicond_graph::generators;
    use hicond_linalg::cg::{cg_solve, pcg_solve, CgOptions};
    use hicond_linalg::schur::schur_complement;
    use hicond_linalg::vector::deflate_constant;
    use hicond_support::support_matrices_dense;

    fn decomposition(g: &Graph, k: usize) -> Partition {
        decompose_fixed_degree(
            g,
            &FixedDegreeOptions {
                k,
                ..Default::default()
            },
        )
    }

    #[test]
    fn apply_matches_schur_inverse() {
        // The fast apply must equal solving the dense Schur complement B.
        let g = generators::grid2d(5, 4, |u, v| 1.0 + ((u * v) % 3) as f64);
        let p = decomposition(&g, 4);
        let pre = SteinerPreconditioner::new(&g, &p, 100);
        let sp = steiner_laplacian(&g, &p);
        let n = g.num_vertices();
        let steiner_ids: Vec<usize> = (n..n + p.num_clusters()).collect();
        let (b, _) = schur_complement(&sp, &steiner_ids);
        // Random consistent rhs.
        let mut r: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 11) as f64 - 5.0).collect();
        deflate_constant(&mut r);
        let z = pre.apply(&r);
        // Check B z = r (up to the constant shift).
        let bz = b.mul(&z);
        let mut diff: Vec<f64> = bz.iter().zip(&r).map(|(a, c)| a - c).collect();
        deflate_constant(&mut diff);
        let err = hicond_linalg::norm2(&diff);
        assert!(err < 1e-8, "B·apply(r) != r: residual {err}");
    }

    #[test]
    fn theorem_3_5_support_bound() {
        // σ(B_S, A) ≤ 3(1 + 2/φ³) with φ the measured min closure
        // conductance of the decomposition.
        for (nx, ny, k) in [(4, 4, 3), (5, 5, 4), (6, 4, 4)] {
            let g = generators::grid2d(nx, ny, |u, v| 1.0 + ((u + v) % 4) as f64);
            let p = decomposition(&g, k);
            let q = p.quality(&g, 20);
            assert!(q.phi_exact, "need exact φ for the bound check");
            let phi = q.phi;
            let sp = steiner_laplacian(&g, &p);
            let n = g.num_vertices();
            let steiner_ids: Vec<usize> = (n..n + p.num_clusters()).collect();
            let (b, _) = schur_complement(&sp, &steiner_ids);
            let a = laplacian(&g);
            let sigma = support_matrices_dense(&b, &a);
            let bound = 3.0 * (1.0 + 2.0 / (phi * phi * phi));
            assert!(
                sigma <= bound + 1e-6,
                "σ(B,A) = {sigma} exceeds Thm 3.5 bound {bound} (φ = {phi})"
            );
        }
    }

    #[test]
    fn gremban_direction_support() {
        // σ(A, B) is the easy direction: every A-edge routes through a
        // 3-hop Steiner path. Verify it is modest (≤ 3·max congestion-ish);
        // concretely check σ(A, B) ≤ 4 on a small grid.
        let g = generators::grid2d(4, 4, |_, _| 1.0);
        let p = decomposition(&g, 4);
        let sp = steiner_laplacian(&g, &p);
        let n = g.num_vertices();
        let steiner_ids: Vec<usize> = (n..n + p.num_clusters()).collect();
        let (b, _) = schur_complement(&sp, &steiner_ids);
        let a = laplacian(&g);
        let sigma = support_matrices_dense(&a, &b);
        assert!(sigma <= 4.0 + 1e-6, "σ(A,B) = {sigma}");
    }

    #[test]
    fn pcg_beats_plain_cg_on_oct_grid() {
        let g = generators::oct_like_grid3d(7, 7, 7, 5, generators::OctParams::default());
        let n = g.num_vertices();
        let a = laplacian(&g);
        let mut rhs: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
        deflate_constant(&mut rhs);
        let opts = CgOptions {
            rel_tol: 1e-8,
            max_iter: 3000,
            record_residuals: true,
        };
        let plain = cg_solve(&a, &rhs, &opts);
        let p = decomposition(&g, 8);
        let pre = SteinerPreconditioner::new(&g, &p, 400);
        let fast = pcg_solve(&a, &pre, &rhs, &opts);
        assert!(fast.converged, "PCG did not converge");
        assert!(
            fast.iterations * 2 < plain.iterations.max(1),
            "Steiner PCG {} vs plain CG {}",
            fast.iterations,
            plain.iterations
        );
    }

    #[test]
    fn steiner_laplacian_is_laplacian() {
        let g = generators::grid2d(3, 3, |_, _| 1.0);
        let p = decomposition(&g, 4);
        let sp = steiner_laplacian(&g, &p);
        let ones = vec![1.0; sp.nrows()];
        let y = sp.mul(&ones);
        for v in y {
            assert!(v.abs() < 1e-10);
        }
        assert!(sp.is_symmetric(1e-12));
    }

    #[test]
    fn grounded_solver_pseudoinverse() {
        let g = generators::cycle(7, |i| 1.0 + i as f64);
        let solver = GroundedLaplacianSolver::new(&g, 100);
        let mut b: Vec<f64> = (0..7).map(|i| i as f64).collect();
        deflate_constant(&mut b);
        let x = solver.solve(&b);
        let l = laplacian(&g);
        let lx = l.mul(&x);
        for (a, c) in lx.iter().zip(&b) {
            assert!((a - c).abs() < 1e-9);
        }
        // Zero mean.
        assert!(x.iter().sum::<f64>().abs() < 1e-9);
    }

    #[test]
    fn grounded_solver_disconnected() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (2, 3, 2.0)]);
        let solver = GroundedLaplacianSolver::new(&g, 100);
        let b = vec![1.0, -1.0, 3.0, -3.0, 0.0];
        let x = solver.solve(&b);
        assert!((x[0] - x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - x[3] - 1.5).abs() < 1e-12);
        assert_eq!(x[4], 0.0);
    }
}
