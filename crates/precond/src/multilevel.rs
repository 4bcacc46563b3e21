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
//!
//! # The walk: two fused row sweeps per level
//!
//! One V-cycle level reads the level Laplacian twice, and each read is a
//! row sweep that finishes the level's vector work while the row is hot
//! ([`CsrMatrix::sweep_rows`] hands over each `(Av)_i` as it is summed):
//!
//! 1. after the one-pass `v₁ = ωD⁻¹r`, sweep 1 computes `A v₁` and
//!    writes each row's `r − (Av₁)` into a level-sized buffer — `A v₁`
//!    itself is never stored — and one in-order pass restricts the buffer
//!    into the coarse right-hand side;
//! 2. after the coarse correction and the one-pass prolongation
//!    `v₂ = v₁ + R c`, sweep 2 computes `A v₂` and writes
//!    `z = v₂ + ωD⁻¹(r − Av₂)` row by row; on level 0 it also adds `r·z`
//!    into the PCG inner product `rᵀz`.
//!
//! Each sweep runs its rows in `chunk_len(n)` chunks that go to the pool
//! iff the level spans more than one BLAS-1 chunk (`num_chunks(n) > 1`,
//! the rule of every kernel in `hicond_linalg::vector` and of
//! [`CsrMatrix::spmv_into`]); a one-chunk level runs on the calling
//! thread. The restriction stays one sequential pass because the order of
//! its scatter is part of its bits.
//!
//! The walk serves one vector: a batch of right-hand sides is k solo
//! solves (`hicond_linalg::block_pcg_solve`), each applying this
//! preconditioner to its own column. Its buffers live in a workspace
//! checked out of a free list, so concurrent walks (serve lanes, the
//! column groups of one batch) never share one and a steady-state apply
//! allocates nothing.
//!
//! **Why the bits hold.** Every value is the same floating-point
//! expression, evaluated in the same order, as in the test-only recursive
//! reference `cycle`: a row sum is the SpMV's row loop; the restriction
//! adds the same rounded summands in increasing vertex order; and `rᵀz`
//! adds `r_i·z_i` from `Sum`'s neutral in row order within each
//! `chunk_len(n)` chunk, then combines the chunk partials along
//! `tree_sum` — exactly `dot_with_scratch`. Which thread runs a chunk
//! changes no expression, so the output is the same at any thread cap
//! and jitter seed.

use crate::steiner::GroundedLaplacianSolver;
use hicond_core::{build_hierarchy, Hierarchy, HierarchyOptions};
use hicond_graph::{laplacian, Graph};
use hicond_linalg::vector::dot_with_scratch;
use hicond_linalg::{CsrMatrix, Preconditioner};
use rayon::pool::{chunk_len, num_chunks};
use rayon::prelude::*;
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
    pub(crate) inv_d: Vec<f64>,
    pub(crate) assignment: Vec<u32>,
    pub(crate) num_clusters: usize,
}

/// Reusable buffers for the hierarchy walk
/// ([`MultilevelSteiner::cycle_into`]): one entry per level plus the
/// coarse Cholesky scratch.
///
/// The buffers are sized on first use and kept across applies, so a
/// steady-state apply allocates nothing. Concurrent walks on one shared
/// preconditioner (serve lanes, the column groups of one batch) each
/// check out their own workspace from a free list, so the list settles
/// at one workspace per walk that has ever run at the same time as the
/// others.
#[derive(Default)]
pub(crate) struct WalkWs {
    levels: Vec<LevelWs>,
    /// Scratch for the coarse grounded Cholesky solves.
    coarse: Vec<f64>,
}

struct LevelWs {
    /// Smoother iterate `v₁` (level size).
    v1: Vec<f64>,
    /// `r − A v₁` (level size), written by sweep 1 before the in-order
    /// restriction; sweep 2 keeps its chunk partials of `rᵀz` here when
    /// the walk's caller wants no `rᵀz`.
    res: Vec<f64>,
    /// Restricted residual handed down (num_clusters).
    rc: Vec<f64>,
    /// Coarse correction coming back up (num_clusters).
    co: Vec<f64>,
}

impl WalkWs {
    /// Checks a workspace out of the free list, or hands back an empty one
    /// when every cached workspace is in use. The lock is held only for
    /// the pop — never across the hierarchy walk — so `walk_ws` stays a
    /// leaf in the lock-order graph.
    fn take(list: &Mutex<Vec<WalkWs>>) -> WalkWs {
        match list.lock() {
            Ok(mut g) => g.pop(),
            Err(poisoned) => poisoned.into_inner().pop(),
        }
        .unwrap_or_default()
    }

    /// Returns a workspace to the free list for the next apply. A
    /// poisoned lock is reusable: every pass rewrites the buffers it
    /// reads before reading them.
    fn store(list: &Mutex<Vec<WalkWs>>, ws: WalkWs) {
        match list.lock() {
            Ok(mut g) => g.push(ws),
            Err(poisoned) => poisoned.into_inner().push(ws),
        }
    }

    /// Sizes the level buffers for `m` (a no-op once sized) and the
    /// coarse scratch.
    fn ensure(&mut self, m: &MultilevelSteiner) {
        if self.levels.len() != m.levels.len() {
            self.levels = m
                .levels
                .iter()
                .zip(&m.laps)
                .map(|(l, a)| {
                    let n = a.nrows();
                    LevelWs {
                        v1: vec![0.0; n],
                        res: vec![0.0; n],
                        rc: vec![0.0; l.num_clusters],
                        co: vec![0.0; l.num_clusters],
                    }
                })
                .collect();
        }
        self.coarse.resize(m.coarse.scratch_len(), 0.0);
    }
}

/// `res[i] = r[i] − (A v)[i]` for the rows `r0..r0 + res.len()`: the
/// residual summands that sweep 1 hands to the restriction.
fn residual(a: &CsrMatrix, r: &[f64], v: &[f64], r0: usize, res: &mut [f64]) {
    let rows = r0..r0 + res.len();
    let mut row = res.iter_mut().zip(&r[rows.clone()]);
    a.sweep_rows(v, rows, |s| {
        if let Some((x, &rv)) = row.next() {
            *x = rv - s;
        }
    });
}

/// `rc[assignment[i]] += res[i]` in increasing `i`: the restriction
/// `Rᵀ res` (onto a zeroed `rc`), in the order that fixes its bits.
fn scatter_add(assignment: &[u32], res: &[f64], rc: &mut [f64]) {
    for (&c, &x) in assignment.iter().zip(res) {
        // Hierarchy construction keeps every assignment entry in
        // bounds: c < num_clusters == rc.len().
        rc[c as usize] += x;
    }
}

/// One level of [`MultilevelSteiner::walk_ledger`]: the time of each
/// V-cycle phase on that level, in nanoseconds.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct LevelNs {
    /// Level size.
    pub rows: usize,
    /// Stored entries of the level Laplacian (0 on the coarsest level,
    /// which is a dense Cholesky solve).
    pub nnz: usize,
    /// Sweep 1: `v₁ = ωD⁻¹r`, then `A v₁` with the restriction of
    /// `r − A v₁`.
    pub sweep1: u64,
    /// The in-order restriction alone, over sweep 1's stored residual
    /// (also counted in `sweep1`).
    pub restrict: u64,
    /// Prolongation `v₁ += R c`.
    pub prolong: u64,
    /// Sweep 2: `A v₂` with the post-smoothed output.
    pub sweep2: u64,
    /// Coarse Cholesky solve (coarsest level only).
    pub coarse: u64,
}

/// Multilevel Steiner preconditioner.
pub struct MultilevelSteiner {
    /// Level Laplacians: `laps[ℓ]` belongs to `levels[ℓ]`. The first entry
    /// exists for every hierarchy, coarse-only included: it is the input
    /// graph's Laplacian, the [`operator`](Self::operator) this
    /// preconditions.
    pub(crate) laps: Vec<CsrMatrix>,
    pub(crate) levels: Vec<MlLevel>,
    pub(crate) coarse: GroundedLaplacianSolver,
    pub(crate) smoothing: bool,
    pub(crate) omega: f64,
    /// Free list of walk workspaces; see [`WalkWs`]. Never serialized —
    /// the artifact codec rebuilds an empty list on decode.
    pub(crate) walk_ws: Mutex<Vec<WalkWs>>,
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
        let smoothed = &h.levels[..h.levels.len() - 1];
        // Level 0's Laplacian is g's, kept even when level 0 is the
        // coarsest: it is the operator this preconditions.
        let laps = std::iter::once(laplacian(g))
            .chain(smoothed.iter().skip(1).map(|l| laplacian(&l.graph)))
            .collect();
        let mut levels = Vec::new();
        for level in smoothed {
            let p = level
                .partition
                .as_ref()
                // audit: allow(panic-path) — build_hierarchy guarantees non-coarsest levels carry partitions
                .expect("non-coarsest level must carry a partition");
            levels.push(MlLevel {
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
            laps,
            levels,
            coarse,
            smoothing: opts.smoothing,
            omega: opts.omega,
            walk_ws: Mutex::new(Vec::new()),
        }
    }

    /// Number of levels including the coarsest.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// The level-0 Laplacian: the operator this preconditions, and the
    /// one PCG solves with.
    pub fn operator(&self) -> &CsrMatrix {
        // reach: allow(reach-index, laps[0] exists for every hierarchy: from_hierarchy pushes it first, and decode rejects a payload that lacks it)
        &self.laps[0]
    }

    /// The allocating recursive V-cycle: the test reference that
    /// [`Self::cycle_into`] is held to bit for bit.
    #[cfg(test)]
    fn cycle(&self, level: usize, r: &[f64]) -> Vec<f64> {
        if level == self.levels.len() {
            return self.coarse.solve(r);
        }
        let (l, a) = (&self.levels[level], &self.laps[level]);
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
        a.spmv_into(&v1, &mut av);
        let r2: Vec<f64> = (0..n).map(|v| r[v] - av[v]).collect();
        let coarse = self.cycle(level + 1, &restrict(&r2));
        for (v, val) in v1.iter_mut().enumerate() {
            *val += coarse[l.assignment[v] as usize];
        }
        a.spmv_into(&v1, &mut av);
        (0..n)
            .map(|v| v1[v] + self.omega * l.inv_d[v] * (r[v] - av[v]))
            .collect()
    }

    /// The hierarchy walk from `level` down: `out = M⁻¹ r` on that
    /// level. All intermediates live in the caller's [`WalkWs`] (one
    /// [`LevelWs`] per level, `ws[0]` for this level), so a steady-state
    /// apply performs no allocation at all.
    ///
    /// A V-cycle level is two fused row sweeps around the coarse
    /// correction (see [`Self::sweep1`] and [`Self::sweep2`]). With
    /// `partials` (at least `scratch_len(n)` slots) the walk also returns
    /// `rᵀz`, fused into level 0's second sweep.
    ///
    /// Every arithmetic expression, and its evaluation order, is copied
    /// verbatim from the test-only recursive reference `cycle`: each row
    /// sum is the SpMV's, the restriction accumulates the summand
    /// `r[v] − (Av₁)[v]` in the same vertex order the reference
    /// materializes it, and `rᵀz` keeps `dot_with_scratch`'s chunks and
    /// tree. So the result is bitwise identical to the reference cycle.
    fn cycle_into(
        &self,
        level: usize,
        r: &[f64],
        out: &mut [f64],
        ws: &mut [LevelWs],
        coarse_scratch: &mut [f64],
        partials: Option<&mut [f64]>,
    ) -> Option<f64> {
        if level == self.levels.len() {
            self.coarse.solve_into(r, out, coarse_scratch);
            return partials.map(|p| dot_with_scratch(r, out, p));
        }
        let (l, a) = (&self.levels[level], &self.laps[level]);
        let (lw, rest) = ws
            .split_first_mut()
            // audit: allow(panic-path) — WalkWs::ensure sizes one entry per level
            .expect("walk workspace depth matches hierarchy depth");
        if !self.smoothing {
            // Additive: D⁻¹ r + R M₊ Rᵀ r.
            lw.rc.fill(0.0);
            scatter_add(&l.assignment, r, &mut lw.rc);
            self.cycle_into(level + 1, &lw.rc, &mut lw.co, rest, coarse_scratch, None);
            for (((zv, &rv), &d), &c) in out.iter_mut().zip(r).zip(&l.inv_d).zip(&l.assignment) {
                // bounds: assignment < num_clusters == co.len().
                *zv = d * rv + lw.co[c as usize];
            }
            // No sweep to fuse rᵀz into: the separate chunked pass.
            return partials.map(|p| dot_with_scratch(r, out, p));
        }
        // V-cycle with damped Jacobi smoothing.
        self.sweep1(l, a, r, lw);
        self.cycle_into(level + 1, &lw.rc, &mut lw.co, rest, coarse_scratch, None);
        prolong(l, lw);
        self.sweep2(l, a, r, out, lw, partials)
    }

    /// Sweep 1 of a V-cycle level: `v₁ = ωD⁻¹r` (one zip pass), then the
    /// rows of `A v₁` chunk by chunk, each row writing `r − (Av₁)` into
    /// `lw.res`, then the restriction of `lw.res` into `lw.rc`. The
    /// restriction adds the summands in increasing row order — the order
    /// is part of the bits, so it never runs in parallel.
    fn sweep1(&self, l: &MlLevel, a: &CsrMatrix, r: &[f64], lw: &mut LevelWs) {
        let cl = chunk_len(a.nrows());
        for ((v, &d), &rv) in lw.v1.iter_mut().zip(&l.inv_d).zip(r) {
            *v = self.omega * d * rv;
        }
        let v1 = &lw.v1;
        lw.res
            .par_chunks_mut(cl)
            .enumerate()
            .for_each(|(c, res)| residual(a, r, v1, c * cl, res));
        lw.rc.fill(0.0);
        scatter_add(&l.assignment, &lw.res, &mut lw.rc);
    }

    /// Sweep 2 of a V-cycle level: the rows of `A v₂` (`v₂` is `lw.v1`
    /// after prolongation) chunk by chunk, each row writing
    /// `z = v₂ + ωD⁻¹(r − A v₂)` as soon as its sum is done and adding
    /// `r·z` to its chunk's partial from `Sum`'s neutral. With `partials`,
    /// they combine along `tree_sum` into the returned `rᵀz` — exactly
    /// `dot_with_scratch`'s geometry, so `rᵀz` keeps its bits without a
    /// separate pass; without, they land in the idle `lw.res`.
    fn sweep2(
        &self,
        l: &MlLevel,
        a: &CsrMatrix,
        r: &[f64],
        out: &mut [f64],
        lw: &mut LevelWs,
        partials: Option<&mut [f64]>,
    ) -> Option<f64> {
        let n = a.nrows();
        let (cl, nc) = (chunk_len(n), num_chunks(n));
        let omega = self.omega;
        // The value `Sum` folds from, so partials match `dot`'s bit for bit.
        let neutral: f64 = std::iter::empty::<f64>().sum();
        let want_dot = partials.is_some();
        let partials = match partials {
            Some(p) => &mut p[..nc],
            None => &mut lw.res[..nc],
        };
        let v2 = &lw.v1;
        partials
            .par_iter_mut()
            .zip(out.par_chunks_mut(cl))
            .enumerate()
            .for_each(|(c, (p, zc))| {
                let rows = c * cl..c * cl + zc.len();
                let mut acc = neutral;
                let mut row = zc
                    .iter_mut()
                    .zip(&r[rows.clone()])
                    .zip(&l.inv_d[rows.clone()])
                    .zip(&v2[rows.clone()]);
                a.sweep_rows(v2, rows, |s| {
                    if let Some((((z, &r), &d), &v)) = row.next() {
                        *z = v + omega * d * (r - s);
                        acc += r * *z;
                    }
                });
                *p = acc;
            });
        want_dot.then(|| rayon::tree_sum(partials))
    }

    /// One hierarchy walk of `r` into `z` on a cached workspace; with
    /// `partials`, also returns `rᵀz`.
    fn walk(&self, r: &[f64], z: &mut [f64], partials: Option<&mut [f64]>) -> Option<f64> {
        let _span = hicond_obs::span("precond_apply");
        // Check a workspace out of the free list instead of holding the
        // lock across the hierarchy walk: the walk calls into the level
        // operators, and a lock held across a deep call tree is exactly
        // the shape the lock-order analyzer refuses to certify. The lock
        // is only ever held for the pop and the push (see
        // WalkWs::take/store). A walk that finds every workspace in use
        // allocates one, which joins the list on return, so concurrent
        // walks each reuse their own from then on.
        let mut ws = WalkWs::take(&self.walk_ws);
        ws.ensure(self);
        let rz = self.cycle_into(0, r, z, &mut ws.levels, &mut ws.coarse, partials);
        WalkWs::store(&self.walk_ws, ws);
        rz
    }

    /// Times each V-cycle phase on every level of this hierarchy, on the
    /// residuals one walk of `r` produces: `time` runs the phase it is
    /// handed (as often as it likes) and returns its time in nanoseconds.
    /// One row per smoothing level, then one for the coarse solve. A
    /// diagnostic behind the per-level ledger of `bench_suite`; it
    /// allocates.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` differs from the preconditioner dimension.
    #[doc(hidden)]
    pub fn walk_ledger(
        &self,
        r: &[f64],
        mut time: impl FnMut(&mut dyn FnMut()) -> u64,
    ) -> Vec<LevelNs> {
        assert_eq!(r.len(), self.dim(), "walk_ledger: r length");
        let mut ws = WalkWs::default();
        ws.ensure(self);
        // One full walk leaves every level's restricted residual and
        // coarse correction in the workspace.
        let mut z = vec![0.0; self.dim()];
        self.cycle_into(0, r, &mut z, &mut ws.levels, &mut ws.coarse, None);
        let mut rows = Vec::with_capacity(self.levels.len() + 1);
        for (level, (l, a)) in self.levels.iter().zip(&self.laps).enumerate() {
            let (above, here) = ws.levels.split_at_mut(level);
            let rl = above.last().map_or(r, |w| &w.rc[..]);
            let Some(lw) = here.first_mut() else { break };
            let n = a.nrows();
            let sweep1 = time(&mut || self.sweep1(l, a, rl, lw));
            // Sweep 1 leaves its residual in `lw.res`.
            let restrict = time(&mut || {
                lw.rc.fill(0.0);
                scatter_add(&l.assignment, &lw.res, &mut lw.rc);
            });
            // Repeated prolongations keep adding the same correction:
            // the values drift, the work does not.
            let prolong = time(&mut || prolong(l, lw));
            let mut out = vec![0.0; n];
            let sweep2 = time(&mut || {
                self.sweep2(l, a, rl, &mut out, lw, None);
            });
            rows.push(LevelNs {
                rows: n,
                nnz: a.nnz(),
                sweep1,
                restrict,
                prolong,
                sweep2,
                coarse: 0,
            });
        }
        let rc = ws.levels.last().map_or(r, |lw| &lw.rc[..]);
        let mut co = vec![0.0; self.coarse.dim()];
        let coarse = time(&mut || self.coarse.solve_into(rc, &mut co, &mut ws.coarse));
        rows.push(LevelNs {
            rows: self.coarse.dim(),
            coarse,
            ..LevelNs::default()
        });
        rows
    }
}

/// Prolongation `v₁ += R c`: one zip pass.
fn prolong(l: &MlLevel, lw: &mut LevelWs) {
    for (v, &c) in lw.v1.iter_mut().zip(&l.assignment) {
        // bounds: assignment < num_clusters == co.len().
        *v += lw.co[c as usize];
    }
}

impl Preconditioner for MultilevelSteiner {
    fn dim(&self) -> usize {
        self.operator().nrows()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        let n = self.dim();
        assert_eq!(r.len(), n, "multilevel apply: r length");
        assert_eq!(z.len(), n, "multilevel apply: z length");
        self.walk(r, z, None);
    }

    /// The walk, with `rᵀz` fused into level 0's second sweep (a separate
    /// `dot_with_scratch` pass when level 0 has no such sweep: the
    /// additive cycle, a coarse-only hierarchy).
    fn apply_dot_into(&self, r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
        let n = self.dim();
        assert_eq!(r.len(), n, "multilevel apply: r length");
        assert_eq!(z.len(), n, "multilevel apply: z length");
        // A walk handed the partials always returns its rᵀz.
        self.walk(r, z, Some(partials)).unwrap_or(f64::NAN)
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
        // The walk must reproduce the recursive reference cycle bit for
        // bit through `apply_into` and `apply_dot_into` (and its fused rᵀz
        // must equal the chunked dot), for both cycle flavors and deep and
        // single-level hierarchies. The 80×80 grid's level 0 spans two
        // BLAS-1 chunks, so at caps 2 and 4 its level sweeps and the
        // chunked rᵀz run on the pool.
        let graphs = [
            generators::grid2d(20, 20, |u, v| 1.0 + ((u + 2 * v) % 5) as f64),
            generators::grid2d(80, 80, |u, v| 1.0 + ((u + 2 * v) % 5) as f64),
        ];
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for g in &graphs {
            let n = g.num_vertices();
            for (smoothing, coarse_size) in [(true, 16), (false, 16), (true, 1000)] {
                let m = MultilevelSteiner::new(
                    g,
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
                let mut partials = vec![0.0; hicond_linalg::vector::scratch_len(n)];
                for (j, col) in cols.iter().enumerate() {
                    let reference = m.cycle(0, col);
                    let dot = dot_with_scratch(col, &reference, &mut partials);
                    for cap in [1, 2, 4] {
                        let tag = format!(
                            "n={n} smoothing={smoothing} coarse={coarse_size} cap {cap} col {j}"
                        );
                        let mut z = vec![0.0; n];
                        let rz = rayon::pool::with_thread_cap(cap, || {
                            m.apply_dot_into(col, &mut z, &mut partials)
                        });
                        assert_eq!(bits(&z), bits(&reference), "{tag} apply_dot_into");
                        assert_eq!(rz.to_bits(), dot.to_bits(), "{tag} rᵀz");
                        let one = rayon::pool::with_thread_cap(cap, || m.apply(col));
                        assert_eq!(bits(&one), bits(&reference), "{tag} apply_into");
                    }
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
