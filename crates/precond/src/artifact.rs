//! Persistence for preconditioner state: [`Encode`]/[`Decode`] impls for
//! the full [`LaplacianSolver`] stack, the solver cache key, and the
//! build-or-load front door ([`load_or_build`]).
//!
//! The design goal is *bitwise reproducibility*: every `f64` in the solver
//! state (Laplacian values, inverse degrees, Cholesky factors, options)
//! travels by bit pattern, so a loaded solver is indistinguishable from the
//! one that was saved — down to the exact PCG residual trajectory it
//! produces. Decoding validates all cross-structure dimensions (level
//! chaining, component covers, assignment ranges) so a decoded solver can
//! never index out of bounds; corrupt bytes surface as
//! [`ArtifactError::Malformed`], never a panic.

use crate::multilevel::{MlLevel, MultilevelOptions, MultilevelSteiner};
use crate::solver::{LaplacianSolver, SolverOptions};
use crate::steiner::GroundedLaplacianSolver;
use hicond_artifact::{
    kinds, ArtifactError, ArtifactReader, ArtifactWriter, Cache, Decode, Decoder, Encode, Encoder,
    Fnv64, FORMAT_VERSION,
};
use hicond_core::{hash_hierarchy_options, HierarchyOptions};
use hicond_graph::{graph_fingerprint, Graph};
use hicond_linalg::dense::CholeskyFactor;
use hicond_linalg::CsrMatrix;

/// Section tag for the solver payload inside a [`kinds::SOLVER`] container.
pub const SOLVER_SECTION: u32 = 1;

impl Encode for MultilevelOptions {
    fn encode(&self, enc: &mut Encoder) {
        self.hierarchy.encode(enc);
        enc.put_bool(self.smoothing);
        enc.put_f64(self.omega);
    }
}

impl Decode for MultilevelOptions {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        Ok(MultilevelOptions {
            hierarchy: HierarchyOptions::decode(dec)?,
            smoothing: dec.bool()?,
            omega: dec.f64()?,
        })
    }
}

impl Encode for SolverOptions {
    fn encode(&self, enc: &mut Encoder) {
        self.multilevel.encode(enc);
        enc.put_f64(self.rel_tol);
        enc.put_usize(self.max_iter);
    }
}

impl Decode for SolverOptions {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        Ok(SolverOptions {
            multilevel: MultilevelOptions::decode(dec)?,
            rel_tol: dec.f64()?,
            max_iter: dec.usize_()?,
        })
    }
}

impl Encode for GroundedLaplacianSolver {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.n);
        self.comps.encode(enc);
        self.factors.encode(enc);
    }
}

impl Decode for GroundedLaplacianSolver {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let n = dec.usize_()?;
        let comps: Vec<Vec<usize>> = Vec::decode(dec)?;
        let factors: Vec<Option<CholeskyFactor>> = Vec::decode(dec)?;
        if comps.len() != factors.len() {
            return Err(ArtifactError::Malformed(format!(
                "{} components but {} factors",
                comps.len(),
                factors.len()
            )));
        }
        // Components must partition a subset of 0..n with no repeats —
        // solve() writes x[v] for every listed vertex. Dedup by sorting the
        // listed vertices so memory stays proportional to the decoded data
        // rather than the (attacker-chosen) vertex count n.
        let mut listed: Vec<usize> = comps.iter().flatten().copied().collect();
        listed.sort_unstable();
        let mut prev: Option<usize> = None;
        for &v in &listed {
            if prev == Some(v) {
                return Err(ArtifactError::Malformed(format!(
                    "vertex {v} appears in two components"
                )));
            }
            prev = Some(v);
        }
        for (i, (comp, factor)) in comps.iter().zip(&factors).enumerate() {
            for &v in comp {
                if v >= n {
                    return Err(ArtifactError::Malformed(format!(
                        "component {i} lists vertex {v} >= n = {n}"
                    )));
                }
            }
            match factor {
                Some(f) if comp.len() < 2 => {
                    return Err(ArtifactError::Malformed(format!(
                        "component {i} of size {} carries a factor of dim {}",
                        comp.len(),
                        f.dim()
                    )));
                }
                Some(f) if f.dim() != comp.len() - 1 => {
                    return Err(ArtifactError::Malformed(format!(
                        "component {i} of size {} has factor of dim {} (expected {})",
                        comp.len(),
                        f.dim(),
                        comp.len() - 1
                    )));
                }
                None if comp.len() >= 2 => {
                    return Err(ArtifactError::Malformed(format!(
                        "component {i} of size {} lacks a factor",
                        comp.len()
                    )));
                }
                _ => {}
            }
        }
        Ok(GroundedLaplacianSolver { comps, factors, n })
    }
}

impl Encode for MlLevel {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64_slice(&self.inv_d);
        enc.put_u32_slice(&self.assignment);
        enc.put_usize(self.num_clusters);
    }
}

impl Decode for MlLevel {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let inv_d = dec.f64_vec()?;
        let assignment = dec.u32_vec()?;
        let num_clusters = dec.usize_()?;
        if inv_d.len() != assignment.len() {
            return Err(ArtifactError::Malformed(format!(
                "level arrays disagree: inv_d {}, assignment {}",
                inv_d.len(),
                assignment.len()
            )));
        }
        for (v, &c) in assignment.iter().enumerate() {
            if c as usize >= num_clusters {
                return Err(ArtifactError::Malformed(format!(
                    "vertex {v} assigned to cluster {c} >= num_clusters {num_clusters}"
                )));
            }
        }
        Ok(MlLevel {
            inv_d,
            assignment,
            num_clusters,
        })
    }
}

impl Encode for MultilevelSteiner {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.smoothing);
        enc.put_f64(self.omega);
        self.laps.encode(enc);
        self.levels.encode(enc);
        self.coarse.encode(enc);
    }
}

impl Decode for MultilevelSteiner {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let smoothing = dec.bool()?;
        let omega = dec.f64()?;
        let laps: Vec<CsrMatrix> = Vec::decode(dec)?;
        let levels: Vec<MlLevel> = Vec::decode(dec)?;
        let coarse = GroundedLaplacianSolver::decode(dec)?;
        // One Laplacian per smoothing level, and level 0's always: it is
        // the operator PCG solves with.
        if laps.len() != levels.len().max(1) {
            return Err(ArtifactError::Malformed(format!(
                "{} level Laplacians for {} levels",
                laps.len(),
                levels.len()
            )));
        }
        for (i, lap) in laps.iter().enumerate() {
            if lap.ncols() != lap.nrows() {
                return Err(ArtifactError::Malformed(format!(
                    "level {i} Laplacian is {}x{}, not square",
                    lap.nrows(),
                    lap.ncols()
                )));
            }
        }
        // The walk hands each level's coarse vector (length num_clusters)
        // to the next level as its residual, so the chain of dimensions
        // must be consistent end to end.
        let mut expect = laps.first().map_or(0, CsrMatrix::nrows);
        for (i, (level, lap)) in levels.iter().zip(&laps).enumerate() {
            if lap.nrows() != expect || level.inv_d.len() != expect {
                return Err(ArtifactError::Malformed(format!(
                    "level {i} has {} vertices and {} inverse degrees, expected {expect}",
                    lap.nrows(),
                    level.inv_d.len()
                )));
            }
            expect = level.num_clusters;
        }
        if coarse.n != expect {
            return Err(ArtifactError::Malformed(format!(
                "coarse solver covers {} vertices, expected {expect}",
                coarse.n
            )));
        }
        Ok(MultilevelSteiner {
            laps,
            levels,
            coarse,
            smoothing,
            omega,
            walk_ws: std::sync::Mutex::new(Vec::new()),
        })
    }
}

impl Encode for LaplacianSolver {
    fn encode(&self, enc: &mut Encoder) {
        self.pre.encode(enc);
        enc.put_u32_slice(&self.comp_labels);
        enc.put_usize(self.num_components);
        self.opts.encode(enc);
    }
}

impl Decode for LaplacianSolver {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let pre = MultilevelSteiner::decode(dec)?;
        let comp_labels = dec.u32_vec()?;
        let num_components = dec.usize_()?;
        let opts = SolverOptions::decode(dec)?;
        let n = pre.operator().nrows();
        if comp_labels.len() != n {
            return Err(ArtifactError::Malformed(format!(
                "{} component labels for {n} vertices",
                comp_labels.len()
            )));
        }
        // Labels must be dense in 0..num_components: solve() divides by
        // per-component vertex counts. Density forces num_components <= n,
        // so reject larger claims before sizing anything by them.
        if num_components > n {
            return Err(ArtifactError::Malformed(format!(
                "{num_components} components over {n} vertices: some component must be empty"
            )));
        }
        let mut used = vec![false; num_components.min(n)];
        for (v, &c) in comp_labels.iter().enumerate() {
            match used.get_mut(c as usize) {
                Some(slot) => *slot = true,
                None => {
                    return Err(ArtifactError::Malformed(format!(
                        "vertex {v} labeled component {c} >= num_components {num_components}"
                    )));
                }
            }
        }
        if let Some(empty) = used.iter().position(|&u| !u) {
            return Err(ArtifactError::Malformed(format!(
                "component {empty} is empty"
            )));
        }
        Ok(LaplacianSolver {
            pre,
            comp_labels,
            num_components,
            opts,
        })
    }
}

/// The content-addressed cache key for a solver artifact: graph
/// fingerprint + every build option that shapes the preconditioner +
/// container format version. Thread count does not participate (builds are
/// bitwise thread-count independent), so one entry serves any parallelism.
pub fn solver_cache_key(g: &Graph, opts: &SolverOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("hicond-solver-key");
    h.write_u32(FORMAT_VERSION);
    h.write_u64(graph_fingerprint(g));
    hash_hierarchy_options(&mut h, &opts.multilevel.hierarchy);
    h.write_bool(opts.multilevel.smoothing);
    h.write_f64(opts.multilevel.omega);
    h.write_f64(opts.rel_tol);
    h.write_usize(opts.max_iter);
    h.finish()
}

/// Serializes a solver into a [`kinds::SOLVER`] container.
pub fn encode_solver(solver: &LaplacianSolver) -> Vec<u8> {
    let mut w = ArtifactWriter::new(kinds::SOLVER);
    w.section(SOLVER_SECTION, solver);
    w.finish()
}

/// Parses, checksum-verifies, and decodes a solver container.
pub fn decode_solver(bytes: &[u8]) -> Result<LaplacianSolver, ArtifactError> {
    let reader = ArtifactReader::parse(bytes)?;
    reader.expect_kind(kinds::SOLVER)?;
    reader.decode_section(SOLVER_SECTION)
}

/// Where a solver came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverSource {
    /// Deserialized from a cache entry.
    Loaded,
    /// Built from scratch (and published to the cache).
    Built,
}

/// Loads the solver for `(g, opts)` from `cache` if a valid entry exists,
/// otherwise builds it and publishes the artifact atomically. A corrupt
/// cache entry is treated as a miss (counted under
/// `artifact/cache_corrupt`) and rebuilt over.
pub fn load_or_build(
    cache: &Cache,
    g: &Graph,
    opts: &SolverOptions,
) -> Result<(LaplacianSolver, SolverSource), ArtifactError> {
    let key = solver_cache_key(g, opts);
    match cache.load(kinds::SOLVER, key) {
        Ok(Some(bytes)) => {
            let _span = hicond_obs::span("artifact_load");
            match decode_solver(&bytes) {
                Ok(solver) => return Ok((solver, SolverSource::Loaded)),
                Err(_) => {
                    // Parsed container of the right kind but stale payload
                    // semantics; fall through to rebuild.
                    hicond_obs::counter_add("artifact/cache_corrupt", 1);
                }
            }
        }
        Ok(None) => {}
        Err(_) => {
            hicond_obs::counter_add("artifact/cache_corrupt", 1);
        }
    }
    let solver = {
        let _span = hicond_obs::span("artifact_build");
        LaplacianSolver::new(g, opts)
    };
    cache.store(kinds::SOLVER, key, &encode_solver(&solver))?;
    Ok((solver, SolverSource::Built))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::generators;
    use hicond_linalg::vector::deflate_constant;

    fn sample_graph() -> Graph {
        generators::grid2d(14, 14, |u, v| 1.0 + ((u + 2 * v) % 5) as f64)
    }

    fn small_opts() -> SolverOptions {
        SolverOptions {
            multilevel: MultilevelOptions {
                hierarchy: HierarchyOptions {
                    coarse_size: 16,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn consistent_rhs(n: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 19) as f64 - 9.0).collect();
        deflate_constant(&mut b);
        b
    }

    #[test]
    fn solver_roundtrips_to_identical_solutions() {
        // A multi-level hierarchy, and a coarse-only one (20 vertices under
        // the default coarse size), whose level-0 Laplacian is the only
        // matrix the preconditioner holds besides the coarse factors.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cases = [
            (sample_graph(), small_opts(), false),
            (
                generators::path(20, |_| 1.0),
                SolverOptions::default(),
                true,
            ),
        ];
        for (g, opts, coarse_only) in &cases {
            let built = LaplacianSolver::new(g, opts);
            let loaded = decode_solver(&encode_solver(&built)).unwrap();
            let n = g.num_vertices();
            assert_eq!(built.num_levels() == 1, *coarse_only, "n={n}");
            assert_eq!(loaded.num_levels(), built.num_levels(), "n={n}");
            let (a, b) = (built.pre.operator(), loaded.pre.operator());
            assert_eq!(a.row_ptr(), b.row_ptr(), "n={n}");
            assert_eq!(a.col_idx(), b.col_idx(), "n={n}");
            assert_eq!(bits(a.values()), bits(b.values()), "n={n}");
            let rhs = consistent_rhs(n);
            let s1 = built.solve(&rhs).unwrap();
            let s2 = loaded.solve(&rhs).unwrap();
            assert_eq!(s1.iterations, s2.iterations, "n={n}");
            assert_eq!(
                bits(&s1.x),
                bits(&s2.x),
                "n={n}: loaded solver must be bitwise identical"
            );
        }
    }

    #[test]
    fn every_byte_flip_rejected() {
        let g = generators::grid2d(6, 6, |_, _| 1.0);
        let bytes = encode_solver(&LaplacianSolver::new(&g, &small_opts()));
        // Sample positions across the whole container (every 7th byte,
        // covering header, table, and payload) with two flip patterns.
        for i in (0..bytes.len()).step_by(7) {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                assert!(
                    decode_solver(&bad).is_err(),
                    "flip {flip:#x} at byte {i} accepted"
                );
            }
        }
        for cut in (0..bytes.len()).step_by(11) {
            assert!(decode_solver(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn cache_key_sensitivity() {
        let g = sample_graph();
        let opts = small_opts();
        let base = solver_cache_key(&g, &opts);
        assert_eq!(base, solver_cache_key(&g, &opts), "key must be stable");

        let mut o = opts;
        o.multilevel.smoothing = !o.multilevel.smoothing;
        assert_ne!(base, solver_cache_key(&g, &o));
        let mut o = opts;
        o.multilevel.hierarchy.fixed_degree.seed += 1;
        assert_ne!(base, solver_cache_key(&g, &o));
        let mut o = opts;
        o.rel_tol *= 0.5;
        assert_ne!(base, solver_cache_key(&g, &o));
        let g2 = generators::grid2d(14, 14, |_, _| 1.0);
        assert_ne!(base, solver_cache_key(&g2, &opts));
        // Thread configuration must NOT split the cache.
        let mut o = opts;
        o.multilevel.hierarchy.fixed_degree.parallel = false;
        assert_eq!(base, solver_cache_key(&g, &o));
    }

    #[test]
    fn load_or_build_hits_after_build() {
        let dir = std::env::temp_dir().join(format!("hicond-precond-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::at(&dir);
        let g = sample_graph();
        let opts = small_opts();
        let (s1, src1) = load_or_build(&cache, &g, &opts).unwrap();
        assert_eq!(src1, SolverSource::Built);
        let (s2, src2) = load_or_build(&cache, &g, &opts).unwrap();
        assert_eq!(src2, SolverSource::Loaded);
        let b = consistent_rhs(g.num_vertices());
        let x1 = s1.solve(&b).unwrap().x;
        let x2 = s2.solve(&b).unwrap().x;
        assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_rebuilt_not_propagated() {
        let dir =
            std::env::temp_dir().join(format!("hicond-precond-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::at(&dir);
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let opts = small_opts();
        let (_, src) = load_or_build(&cache, &g, &opts).unwrap();
        assert_eq!(src, SolverSource::Built);
        // Corrupt the entry on disk.
        let key = solver_cache_key(&g, &opts);
        let path = cache.path_for(kinds::SOLVER, key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Next load_or_build must rebuild, not fail or return garbage.
        let (s, src) = load_or_build(&cache, &g, &opts).unwrap();
        assert_eq!(src, SolverSource::Built);
        let b = consistent_rhs(64);
        assert!(s.solve(&b).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
