//! End-to-end acceptance tests for the artifact store (DESIGN.md §10).
//!
//! The contract under test:
//!
//! 1. A preconditioner loaded from a cached artifact is *bitwise
//!    indistinguishable* from the one that was built: the PCG residual
//!    trajectory, iterate, and iteration count match bit for bit — at any
//!    thread cap (1, 2, 4), since the execution engine is bitwise
//!    thread-count independent.
//! 2. Any single-byte corruption or truncation of an artifact is rejected
//!    with a structured [`ArtifactError`], never a panic.
//! 3. Cache publication is atomic: partially written entries are never
//!    visible to readers, and orphaned temporaries are swept by `gc`.
//!
//! The cache-counter contract lives in `tests/artifact_counters.rs`: the
//! counters are process-global, so it needs a test binary of its own.

use hicond::artifact::{ArtifactError, Cache};
use hicond::graph::generators;
use hicond::precond::{
    decode_solver, encode_solver, load_or_build, solver_cache_key, LaplacianSolver, SolverOptions,
    SolverSource,
};
use rayon::pool::with_thread_cap;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hicond-artifact-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The paper's planar stress shape: a weighted 2-D grid.
fn planar_graph() -> hicond::graph::Graph {
    generators::grid2d(24, 24, |u, v| 1.0 + ((u * 5 + v * 3) % 7) as f64)
}

fn rhs(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|i| ((i * 29 + 7) % 13) as f64 - 6.0).collect();
    hicond::linalg::vector::deflate_constant(&mut b);
    b
}

#[test]
fn loaded_solver_replays_bitwise_identical_trajectory_at_caps_1_2_4() {
    let g = planar_graph();
    let b = rhs(g.num_vertices());
    let opts = SolverOptions::default();
    let built = LaplacianSolver::new(&g, &opts);
    let loaded = decode_solver(&encode_solver(&built)).expect("decode");

    // Reference trajectory: the built solver at one thread.
    let (ref_sol, ref_traj) = with_thread_cap(1, || built.solve_recording(&b).expect("solve"));
    assert!(ref_sol.iterations > 0 && ref_traj.len() == ref_sol.iterations + 1);

    for cap in [1usize, 2, 4] {
        let (built_sol, built_traj) =
            with_thread_cap(cap, || built.solve_recording(&b).expect("solve"));
        let (loaded_sol, loaded_traj) =
            with_thread_cap(cap, || loaded.solve_recording(&b).expect("solve"));
        // Loaded vs built at this cap: bitwise identical trajectory + iterate.
        assert_eq!(built_sol.iterations, loaded_sol.iterations, "cap {cap}");
        assert_eq!(built_traj.len(), loaded_traj.len(), "cap {cap}");
        for (i, (a, c)) in built_traj.iter().zip(&loaded_traj).enumerate() {
            assert_eq!(
                a.to_bits(),
                c.to_bits(),
                "cap {cap}: residual {i} differs: {a:.17e} vs {c:.17e}"
            );
        }
        for (i, (a, c)) in built_sol.x.iter().zip(&loaded_sol.x).enumerate() {
            assert_eq!(a.to_bits(), c.to_bits(), "cap {cap}: x[{i}] differs");
        }
        // And every cap reproduces the cap-1 reference exactly.
        for (a, c) in ref_traj.iter().zip(&built_traj) {
            assert_eq!(a.to_bits(), c.to_bits(), "cap {cap} diverges from cap 1");
        }
    }
}

#[test]
fn every_byte_flip_and_truncation_is_structured_rejection() {
    // A small solver keeps the exhaustive sweep fast while still exercising
    // every section of the container.
    let g = generators::grid2d(6, 6, |_, _| 1.0);
    let bytes = encode_solver(&LaplacianSolver::new(&g, &SolverOptions::default()));
    assert!(decode_solver(&bytes).is_ok());

    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        let Err(err) = decode_solver(&bad) else {
            panic!("flip at byte {i} accepted");
        };
        let _: ArtifactError = err; // structured error, no panic
    }
    for len in 0..bytes.len() {
        assert!(
            decode_solver(&bytes[..len]).is_err(),
            "truncation to {len} bytes accepted"
        );
    }
    assert!(decode_solver(&[]).is_err());
}

#[test]
fn partial_cache_writes_are_never_visible() {
    let cache = Cache::at(tmpdir("atomicity"));
    let g = generators::grid2d(8, 8, |_, _| 1.0);
    let opts = SolverOptions::default();

    // Simulate a crashed writer: a temporary that never got renamed.
    std::fs::create_dir_all(cache.dir()).unwrap();
    std::fs::write(cache.dir().join(".tmp-999-0-5-dead"), b"partial junk").unwrap();
    assert!(
        cache.entries().unwrap().is_empty(),
        "tmp file surfaced as an entry"
    );
    assert!(
        load_or_build(&cache, &g, &opts).unwrap().1 == SolverSource::Built,
        "tmp file must not satisfy a lookup"
    );
    // The published entry is complete and valid; the orphan is swept.
    assert_eq!(cache.entries().unwrap().len(), 1);
    assert!(cache.verify().unwrap().bad.is_empty());
    let gc = cache.gc(false).unwrap();
    assert_eq!(gc.tmp_removed, 1);
    assert_eq!(gc.removed, 0, "valid entry must survive a non-full gc");
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn corrupt_cache_entry_is_rejected_then_rebuilt() {
    let cache = Cache::at(tmpdir("corrupt-rebuild"));
    let g = generators::grid2d(8, 8, |_, _| 2.0);
    let opts = SolverOptions::default();
    let (_, s1) = load_or_build(&cache, &g, &opts).unwrap();
    assert_eq!(s1, SolverSource::Built);

    // Flip one byte in the middle of the published artifact.
    let path = cache.path_for(hicond::artifact::kinds::SOLVER, solver_cache_key(&g, &opts));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    std::fs::write(&path, &bytes).unwrap();

    // verify flags it; load_or_build degrades to a rebuild, not an error.
    assert_eq!(cache.verify().unwrap().bad.len(), 1);
    let (solver, s2) = load_or_build(&cache, &g, &opts).unwrap();
    assert_eq!(s2, SolverSource::Built);
    let b = rhs(g.num_vertices());
    assert!(solver.solve(&b).is_ok());
    // The rebuild republished a valid entry over the corrupt one.
    assert!(cache.verify().unwrap().bad.is_empty());
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn a_solver_artifact_stores_its_laplacian_once() {
    // The solver's operator is the preconditioner's level-0 Laplacian, so
    // the artifact carries that matrix once. A second copy of it is
    // 622,128 bytes of the 96² grid's artifact and 358,448 of oct16's.
    let opts = SolverOptions::default();
    let grid = generators::grid2d(96, 96, |_, _| 1.0);
    let oct = generators::oct_like_grid3d(16, 16, 16, 42, generators::OctParams::default());
    for (name, g, bound) in [("grid 96²", &grid, 1_195_197), ("oct16", &oct, 674_245)] {
        let bytes = encode_solver(&LaplacianSolver::new(g, &opts)).len();
        assert!(bytes <= bound, "{name}: {bytes} bytes, bound {bound}");
    }
}
