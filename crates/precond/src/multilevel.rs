//! Multilevel Steiner preconditioning over a laminar hierarchy
//! (paper Section 3, Remark 3: "the recursive computation of [φ, ρ]
//! decompositions leads to a laminar decomposition and a corresponding
//! hierarchy of Steiner preconditioners").
//!
//! Two symmetric-positive-definite cycles are provided:
//!
//! * **additive** (`smoothing = false`): `M_ℓ⁻¹ = D_ℓ⁻¹ + R_ℓ M_{ℓ+1}⁻¹ R_ℓᵀ`
//!   — the direct recursion of the two-level Steiner apply, BPX-flavored;
//! * **V-cycle** (`smoothing = true`): damped-Jacobi pre/post smoothing
//!   around the coarse correction, `v₁ = ωD⁻¹r`,
//!   `v₂ = v₁ + R M₊(Rᵀ(r − Av₁))`, `z = v₂ + ωD⁻¹(r − Av₂)` — symmetric
//!   by construction, and in practice much stronger on deep hierarchies.
//!
//! The coarsest level is solved exactly (grounded dense Cholesky).

use crate::steiner::GroundedLaplacianSolver;
use hicond_core::{build_hierarchy, Hierarchy, HierarchyOptions};
use hicond_graph::{laplacian, Graph};
use hicond_linalg::vector::dot_with_scratch;
use hicond_linalg::{CsrMatrix, DenseBlock, LinearOperator, Preconditioner};
use std::sync::Mutex;

/// Options for [`MultilevelSteiner`].
#[derive(Debug, Clone, Copy)]
pub struct MultilevelOptions {
    /// Hierarchy construction (per-level clustering, coarse size).
    pub hierarchy: HierarchyOptions,
    /// Enable damped-Jacobi pre/post smoothing (V-cycle).
    pub smoothing: bool,
    /// Jacobi damping factor ω.
    pub omega: f64,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            hierarchy: HierarchyOptions::default(),
            smoothing: true,
            omega: 2.0 / 3.0,
        }
    }
}

pub(crate) struct MlLevel {
    pub(crate) lap: CsrMatrix,
    pub(crate) inv_d: Vec<f64>,
    pub(crate) assignment: Vec<u32>,
    pub(crate) num_clusters: usize,
}

/// Reusable buffers for the hierarchy walk
/// ([`MultilevelSteiner::cycle_block_into`]): one entry per level plus
/// the coarse Cholesky scratch.
///
/// At serve-batch widths these blocks run to hundreds of kilobytes —
/// past the allocator's mmap threshold — so a fresh
/// allocate/fault/free cycle on every apply costs more than the
/// arithmetic it feeds. The buffers are sized on first use and kept
/// across applies, so a steady-state apply allocates nothing; a width
/// change (a different batch size) triggers one resize.
///
/// Concurrent walks on one shared preconditioner (serve lanes, the
/// column groups of one block solve) each check out their own
/// workspace from a free list, so the list settles at one workspace per
/// walk that has ever run at the same time as the others.
#[derive(Default)]
pub(crate) struct BlockWs {
    k: usize,
    levels: Vec<LevelWs>,
    /// Scratch for the coarse grounded Cholesky solves.
    coarse: Vec<f64>,
}

struct LevelWs {
    /// Smoother iterate `v₁` (level size × k).
    v1: DenseBlock,
    /// Level SpMV output `A v₁` (level size × k).
    av: DenseBlock,
    /// Restricted residual handed down (num_clusters × k).
    rc: DenseBlock,
    /// Coarse correction coming back up (num_clusters × k).
    co: DenseBlock,
}

impl BlockWs {
    /// Checks a workspace out of the free list, preferring one already
    /// sized for width `k`, or hands back an empty one when every cached
    /// workspace is in use. The lock is held only for the pop — never
    /// across the hierarchy walk — so `block_ws` stays a leaf in the
    /// lock-order graph.
    fn take(list: &Mutex<Vec<BlockWs>>, k: usize) -> BlockWs {
        let mut list = match list.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match list.iter().rposition(|ws| ws.k == k) {
            Some(i) => list.swap_remove(i),
            None => list.pop().unwrap_or_default(),
        }
    }

    /// Returns a workspace to the free list for the next apply. A
    /// poisoned lock is reusable: every pass rewrites the buffers it
    /// reads before reading them.
    fn store(list: &Mutex<Vec<BlockWs>>, ws: BlockWs) {
        match list.lock() {
            Ok(mut g) => g.push(ws),
            Err(poisoned) => poisoned.into_inner().push(ws),
        }
    }

    /// Sizes the level buffers for width `k` (no-op when they already
    /// fit) and the coarse scratch.
    fn ensure(&mut self, m: &MultilevelSteiner, k: usize) {
        if self.k != k || self.levels.len() != m.levels.len() {
            self.k = k;
            self.levels = m
                .levels
                .iter()
                .map(|l| LevelWs {
                    v1: DenseBlock::new(l.lap.nrows(), k),
                    av: DenseBlock::new(l.lap.nrows(), k),
                    rc: DenseBlock::new(l.num_clusters, k),
                    co: DenseBlock::new(l.num_clusters, k),
                })
                .collect();
        }
        self.coarse.resize(m.coarse.scratch_len(), 0.0);
    }
}

/// Multilevel Steiner preconditioner.
pub struct MultilevelSteiner {
    pub(crate) levels: Vec<MlLevel>,
    pub(crate) coarse: GroundedLaplacianSolver,
    pub(crate) smoothing: bool,
    pub(crate) omega: f64,
    pub(crate) n: usize,
    /// Free list of block-apply workspaces; see [`BlockWs`]. Never
    /// serialized — the artifact codec rebuilds an empty list on decode.
    pub(crate) block_ws: Mutex<Vec<BlockWs>>,
}

impl MultilevelSteiner {
    /// Builds the hierarchy for `g` and assembles the preconditioner.
    pub fn new(g: &Graph, opts: &MultilevelOptions) -> Self {
        // Children ("hierarchy" from build_hierarchy, "assemble" below)
        // nest under this span in the phase tree.
        let _span = hicond_obs::span("precondition");
        let hierarchy = build_hierarchy(g, &opts.hierarchy);
        Self::from_hierarchy(g, &hierarchy, opts)
    }

    /// Assembles from an existing hierarchy (level 0 must match `g`).
    pub fn from_hierarchy(g: &Graph, h: &Hierarchy, opts: &MultilevelOptions) -> Self {
        let _span = hicond_obs::span("assemble");
        assert_eq!(h.levels[0].graph.num_vertices(), g.num_vertices());
        let mut levels = Vec::new();
        for level in &h.levels[..h.levels.len() - 1] {
            let p = level
                .partition
                .as_ref()
                // audit: allow(panic-path) — build_hierarchy guarantees non-coarsest levels carry partitions
                .expect("non-coarsest level must carry a partition");
            levels.push(MlLevel {
                lap: laplacian(&level.graph),
                inv_d: level
                    .graph
                    .volumes()
                    .iter()
                    .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
                    .collect(),
                assignment: p.assignment().to_vec(),
                num_clusters: p.num_clusters(),
            });
        }
        let coarse_graph = &h.levels[h.levels.len() - 1].graph;
        let coarse = GroundedLaplacianSolver::new(
            coarse_graph,
            opts.hierarchy.coarse_size.max(coarse_graph.num_vertices()),
        );
        MultilevelSteiner {
            levels,
            coarse,
            smoothing: opts.smoothing,
            omega: opts.omega,
            n: g.num_vertices(),
            block_ws: Mutex::new(Vec::new()),
        }
    }

    /// Number of levels including the coarsest.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// The allocating recursive V-cycle: the test reference that
    /// [`Self::cycle_block_into`] is held to bit for bit.
    #[cfg(test)]
    fn cycle(&self, level: usize, r: &[f64]) -> Vec<f64> {
        if level == self.levels.len() {
            return self.coarse.solve(r);
        }
        let l = &self.levels[level];
        let restrict = |res: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; l.num_clusters];
            for (v, &c) in l.assignment.iter().enumerate() {
                out[c as usize] += res[v];
            }
            out
        };
        if !self.smoothing {
            // Additive: D⁻¹ r + R M₊ Rᵀ r.
            let coarse = self.cycle(level + 1, &restrict(r));
            return r
                .iter()
                .enumerate()
                .map(|(v, &rv)| l.inv_d[v] * rv + coarse[l.assignment[v] as usize])
                .collect();
        }
        // V-cycle with damped Jacobi smoothing.
        let n = r.len();
        let mut v1: Vec<f64> = (0..n).map(|v| self.omega * l.inv_d[v] * r[v]).collect();
        let mut av = vec![0.0; n];
        l.lap.spmv_into(&v1, &mut av);
        let r2: Vec<f64> = (0..n).map(|v| r[v] - av[v]).collect();
        let coarse = self.cycle(level + 1, &restrict(&r2));
        for (v, val) in v1.iter_mut().enumerate() {
            *val += coarse[l.assignment[v] as usize];
        }
        l.lap.spmv_into(&v1, &mut av);
        (0..n)
            .map(|v| v1[v] + self.omega * l.inv_d[v] * (r[v] - av[v]))
            .collect()
    }

    /// Multi-column cycle: one walk of the hierarchy serves every active
    /// column of `rb`, writing results into the matching columns of `out`.
    /// Per level, the restriction table, the level Laplacian (via its
    /// band-major block SpMV), the inverse-degree vector, and the coarse
    /// Cholesky factors are each traversed **once per block** instead of
    /// once per column — the shared-traversal amortization the block-PCG
    /// engine exists for. All intermediates live in the caller's
    /// [`BlockWs`] (one [`LevelWs`] per level, `ws[0]` for this level),
    /// so a steady-state apply performs no allocation at all.
    ///
    /// Every per-column arithmetic expression, and its evaluation order,
    /// is copied verbatim from the test-only recursive reference `cycle`
    /// (the level SpMV goes through `apply_block`, whose per-column output
    /// is contractually bitwise equal to `spmv_into`; the restriction
    /// accumulates the summand `r[v] − (Av₁)[v]` in the same vertex order
    /// the reference materializes it), so each column of the result is
    /// bitwise identical to a single-vector cycle on that column.
    fn cycle_block_into(
        &self,
        level: usize,
        rb: &DenseBlock,
        out: &mut DenseBlock,
        active: &[usize],
        ws: &mut [LevelWs],
        coarse_scratch: &mut [f64],
    ) {
        if level == self.levels.len() {
            for &j in active {
                // One coarse solve per column, all sharing the factors.
                self.coarse
                    .solve_into(rb.col(j), out.col_mut(j), coarse_scratch);
            }
            return;
        }
        let l = &self.levels[level];
        let (lw, rest) = ws
            .split_first_mut()
            // audit: allow(panic-path) — BlockWs::ensure sizes one entry per level
            .expect("block workspace depth matches hierarchy depth");
        if !self.smoothing {
            // Additive: D⁻¹ r + R M₊ Rᵀ r over one shared coarse block.
            for &j in active {
                lw.rc.col_mut(j).fill(0.0);
                let (rj, cj) = (rb.col(j), lw.rc.col_mut(j));
                for (v, &c) in l.assignment.iter().enumerate() {
                    // Hierarchy construction keeps every assignment entry
                    // in bounds: c < num_clusters == cj.len().
                    cj[c as usize] += rj[v];
                }
            }
            self.cycle_block_into(level + 1, &lw.rc, &mut lw.co, active, rest, coarse_scratch);
            for &j in active {
                let (rj, cj, oj) = (rb.col(j), lw.co.col(j), out.col_mut(j));
                for (v, zv) in oj.iter_mut().enumerate() {
                    // bounds: assignment < num_clusters == cj.len().
                    *zv = l.inv_d[v] * rj[v] + cj[l.assignment[v] as usize];
                }
            }
            return;
        }
        // V-cycle with damped Jacobi smoothing, block-wide.
        for &j in active {
            let (rj, vj) = (rb.col(j), lw.v1.col_mut(j));
            for (v, val) in vj.iter_mut().enumerate() {
                *val = self.omega * l.inv_d[v] * rj[v];
            }
        }
        l.lap.apply_block(&lw.v1, &mut lw.av, active);
        // Restrict the smoothed residual r − Av₁ without materializing
        // it: the accumulated summand is rounded once either way, so the
        // coarse right-hand side bits match the solo path's.
        for &j in active {
            lw.rc.col_mut(j).fill(0.0);
            let (rj, aj, cj) = (rb.col(j), lw.av.col(j), lw.rc.col_mut(j));
            for (v, &c) in l.assignment.iter().enumerate() {
                // bounds: assignment < num_clusters == cj.len().
                cj[c as usize] += rj[v] - aj[v];
            }
        }
        self.cycle_block_into(level + 1, &lw.rc, &mut lw.co, active, rest, coarse_scratch);
        for &j in active {
            let (cj, vj) = (lw.co.col(j), lw.v1.col_mut(j));
            for (v, val) in vj.iter_mut().enumerate() {
                // bounds: assignment < num_clusters == cj.len().
                *val += cj[l.assignment[v] as usize];
            }
        }
        l.lap.apply_block(&lw.v1, &mut lw.av, active);
        for &j in active {
            let (rj, aj, vj, oj) = (rb.col(j), lw.av.col(j), lw.v1.col(j), out.col_mut(j));
            for (v, zv) in oj.iter_mut().enumerate() {
                *zv = vj[v] + self.omega * l.inv_d[v] * (rj[v] - aj[v]);
            }
        }
    }
}

impl MultilevelSteiner {
    /// One shared hierarchy walk for the active columns of `r` into `z`,
    /// on the cached workspace.
    fn apply_block_into(&self, r: &DenseBlock, z: &mut DenseBlock, active: &[usize]) {
        let _span = hicond_obs::span("precond_apply");
        hicond_obs::counter_add("precond/ml_applies", active.len() as u64);
        assert_eq!(r.n(), self.n, "multilevel apply: r column length");
        assert_eq!(z.n(), self.n, "multilevel apply: z column length");
        assert_eq!(r.k(), z.k(), "multilevel apply: block widths");
        // Check a workspace out of the free list instead of holding the
        // lock across the hierarchy walk: the walk calls into the level
        // operators, and a lock held across a deep call tree is exactly
        // the shape the lock-order analyzer refuses to certify. The lock
        // is only ever held for the pop and the push (see
        // BlockWs::take/store). A walk that finds every workspace in use
        // allocates one, which joins the list on return, so concurrent
        // walks each reuse their own from then on.
        let mut ws = BlockWs::take(&self.block_ws, r.k());
        ws.ensure(self, r.k());
        self.cycle_block_into(0, r, z, active, &mut ws.levels, &mut ws.coarse);
        BlockWs::store(&self.block_ws, ws);
    }
}

impl Preconditioner for MultilevelSteiner {
    fn dim(&self) -> usize {
        self.n
    }

    /// One column through the same walk as [`Self::apply_dot_block`].
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        let mut rb = DenseBlock::new(self.n, 1);
        rb.col_mut(0).copy_from_slice(r);
        let mut zb = DenseBlock::new(self.n, 1);
        self.apply_block_into(&rb, &mut zb, &[0]);
        z.copy_from_slice(zb.col(0));
    }

    fn apply_dot_block(
        &self,
        r: &DenseBlock,
        z: &mut DenseBlock,
        active: &[usize],
        rz: &mut [f64],
        partials: &mut [f64],
    ) {
        // The walk writes z in place; rᵀz uses the same chunked kernel as
        // the default `apply_dot_into`, so the override is
        // bitwise-transparent by construction.
        self.apply_block_into(r, z, active);
        for &j in active {
            rz[j] = dot_with_scratch(r.col(j), z.col(j), partials);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::generators;
    use hicond_linalg::cg::{cg_solve, pcg_solve, CgOptions};
    use hicond_linalg::vector::{deflate_constant, dot};

    fn consistent_rhs(n: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 29 + 5) % 17) as f64 - 8.0).collect();
        deflate_constant(&mut b);
        b
    }

    #[test]
    fn symmetric_operator() {
        // xᵀ M⁻¹ y == yᵀ M⁻¹ x is required for PCG correctness.
        let g = generators::grid2d(12, 12, |u, v| 1.0 + ((u * v) % 5) as f64);
        for smoothing in [false, true] {
            let m = MultilevelSteiner::new(
                &g,
                &MultilevelOptions {
                    hierarchy: hicond_core::HierarchyOptions {
                        coarse_size: 10,
                        ..Default::default()
                    },
                    smoothing,
                    ..Default::default()
                },
            );
            let n = g.num_vertices();
            let mut x = consistent_rhs(n);
            let mut y: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) % 7) as f64 - 3.0).collect();
            deflate_constant(&mut y);
            x[0] += 0.5;
            deflate_constant(&mut x);
            let mx = m.apply(&x);
            let my = m.apply(&y);
            let lhs = dot(&y, &mx);
            let rhs = dot(&x, &my);
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "smoothing={smoothing}: asymmetric ({lhs} vs {rhs})"
            );
        }
    }

    #[test]
    fn positive_on_nonconstant_vectors() {
        let g = generators::grid2d(10, 10, |_, _| 1.0);
        for smoothing in [false, true] {
            let m = MultilevelSteiner::new(
                &g,
                &MultilevelOptions {
                    hierarchy: hicond_core::HierarchyOptions {
                        coarse_size: 8,
                        ..Default::default()
                    },
                    smoothing,
                    ..Default::default()
                },
            );
            for seed in 0..5 {
                let mut x: Vec<f64> = (0..100)
                    .map(|i| (((i as u64 + seed) * 2654435761) % 1000) as f64 / 500.0 - 1.0)
                    .collect();
                deflate_constant(&mut x);
                let mx = m.apply(&x);
                assert!(dot(&x, &mx) > 0.0, "not positive definite");
            }
        }
    }

    #[test]
    fn multilevel_pcg_converges_fast() {
        let g = generators::oct_like_grid3d(8, 8, 8, 9, generators::OctParams::default());
        let n = g.num_vertices();
        let a = laplacian(&g);
        let b = consistent_rhs(n);
        let opts = CgOptions {
            rel_tol: 1e-8,
            max_iter: 2000,
            record_residuals: false,
        };
        let plain = cg_solve(&a, &b, &opts);
        let m = MultilevelSteiner::new(
            &g,
            &MultilevelOptions {
                hierarchy: hicond_core::HierarchyOptions {
                    coarse_size: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(m.num_levels() >= 2);
        let fast = pcg_solve(&a, &m, &b, &opts);
        assert!(fast.converged);
        assert!(
            fast.iterations * 2 < plain.iterations.max(1),
            "multilevel {} vs plain {}",
            fast.iterations,
            plain.iterations
        );
    }

    #[test]
    fn smoothing_helps_on_deep_hierarchies() {
        let g = generators::grid2d(40, 40, |_, _| 1.0);
        let a = laplacian(&g);
        let b = consistent_rhs(1600);
        let opts = CgOptions {
            rel_tol: 1e-8,
            max_iter: 2000,
            record_residuals: false,
        };
        let hierarchy = hicond_core::HierarchyOptions {
            coarse_size: 16,
            ..Default::default()
        };
        let additive = MultilevelSteiner::new(
            &g,
            &MultilevelOptions {
                hierarchy,
                smoothing: false,
                omega: 2.0 / 3.0,
            },
        );
        let vcycle = MultilevelSteiner::new(
            &g,
            &MultilevelOptions {
                hierarchy,
                smoothing: true,
                omega: 2.0 / 3.0,
            },
        );
        let ra = pcg_solve(&a, &additive, &b, &opts);
        let rv = pcg_solve(&a, &vcycle, &b, &opts);
        assert!(ra.converged && rv.converged);
        assert!(
            rv.iterations <= ra.iterations,
            "V-cycle {} vs additive {}",
            rv.iterations,
            ra.iterations
        );
    }

    #[test]
    fn block_apply_matches_single_apply_bitwise() {
        // The shared-traversal block cycle must reproduce the recursive
        // reference cycle bit for bit on every active column (and so must
        // apply_into and the fused rᵀz), for both cycle flavors, deep and
        // single-level hierarchies, and strict active subsets.
        let g = generators::grid2d(20, 20, |u, v| 1.0 + ((u + 2 * v) % 5) as f64);
        let n = g.num_vertices();
        for (smoothing, coarse_size) in [(true, 16), (false, 16), (true, 1000)] {
            let m = MultilevelSteiner::new(
                &g,
                &MultilevelOptions {
                    hierarchy: hicond_core::HierarchyOptions {
                        coarse_size,
                        ..Default::default()
                    },
                    smoothing,
                    ..Default::default()
                },
            );
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|s| {
                    let mut c: Vec<f64> = (0..n)
                        .map(|i| ((i * 31 + s * 7 + 1) % 13) as f64 - 6.0)
                        .collect();
                    deflate_constant(&mut c);
                    c
                })
                .collect();
            let r = hicond_linalg::DenseBlock::from_columns(&cols);
            let mut partials = vec![0.0; hicond_linalg::vector::scratch_len(n)];
            for active in [vec![0usize, 1, 2], vec![1], vec![0, 2]] {
                let mut z = hicond_linalg::DenseBlock::new(n, 3);
                let mut rz = vec![f64::NAN; 3];
                m.apply_dot_block(&r, &mut z, &active, &mut rz, &mut partials);
                for &j in &active {
                    let reference = m.cycle(0, &cols[j]);
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    let tag = format!(
                        "smoothing={smoothing} coarse={coarse_size} col {j} active {active:?}"
                    );
                    assert_eq!(bits(z.col(j)), bits(&reference), "{tag}");
                    assert_eq!(
                        bits(&m.apply(&cols[j])),
                        bits(&reference),
                        "{tag} apply_into"
                    );
                    let dot = dot_with_scratch(&cols[j], &reference, &mut partials);
                    assert_eq!(rz[j].to_bits(), dot.to_bits(), "{tag} rᵀz");
                }
            }
        }
    }

    #[test]
    fn single_level_fallback() {
        // Tiny graph: hierarchy is just the coarse solve = exact solve;
        // PCG converges in very few iterations.
        let g = generators::path(20, |_| 1.0);
        let a = laplacian(&g);
        let b = consistent_rhs(20);
        let m = MultilevelSteiner::new(
            &g,
            &MultilevelOptions {
                hierarchy: hicond_core::HierarchyOptions {
                    coarse_size: 50,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(m.num_levels(), 1);
        let res = pcg_solve(&a, &m, &b, &CgOptions::default());
        assert!(res.converged);
        assert!(res.iterations <= 3, "{} iterations", res.iterations);
    }
}
