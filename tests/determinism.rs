//! Determinism suite for the multi-threaded execution engine
//! (`vendor/rayon`): every parallel kernel in the workspace must produce
//! **bitwise-identical** output at thread caps 1, 2, 4 and 8 — the
//! engine's terminals reduce in fixed index order, so thread count can
//! never change a result (DESIGN.md §7).
//!
//! Also property-tests the pool's chunk partitioner (`block_range`) over
//! the awkward shapes: empty input, fewer items than threads, and lengths
//! not divisible by the unit count.
//!
//! Thread *timing* is the orthogonal axis: `tests/sched_stress.rs` runs
//! the same kernels under seeded scheduler jitter, and CI additionally
//! replays this whole suite with `HICOND_SCHED_JITTER=1` so cap
//! invariance is also exercised on perturbed claim interleavings
//! (DESIGN.md §9).

use hicond_core::{
    decompose_planar, decompose_recursive_bisection, PlanarOptions, RecursiveBisectionOptions,
};
use hicond_graph::{generators, laplacian, RootedForest};
use hicond_linalg::cg::{pcg_solve, CgOptions, JacobiPreconditioner};
use hicond_treecontract::{
    critical_vertices, euler_tour, list_rank_parallel_with_rounds, subtree_sizes_parallel,
};
use proptest::prelude::*;
use rayon::pool::{block_range, with_thread_cap};

const CAPS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` under each thread cap and asserts all outputs equal the
/// 1-thread reference, bit for bit.
fn assert_cap_invariant<T, F>(label: &str, f: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let reference = with_thread_cap(1, &f);
    for cap in CAPS {
        let got = with_thread_cap(cap, &f);
        assert!(
            got == reference,
            "{label}: output at cap {cap} differs from the 1-thread result"
        );
    }
}

/// Bit-exact view of an f64 vector (PartialEq on f64 would also accept
/// -0.0 == 0.0; the engine promises *bitwise* identity).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn list_ranking_identical() {
    // A long path: next[i] = i+1, last points to itself.
    let n = 30_000u32;
    let next: Vec<u32> = (0..n).map(|i| if i + 1 < n { i + 1 } else { i }).collect();
    assert_cap_invariant("list_rank", || list_rank_parallel_with_rounds(&next));
}

#[test]
fn euler_tour_and_subtree_sizes_identical() {
    let tree = generators::random_tree(20_000, 11, 0.5, 2.0);
    let forest = RootedForest::from_graph(&tree).expect("tree input");
    assert_cap_invariant("subtree_sizes", || subtree_sizes_parallel(&forest));
    assert_cap_invariant("euler_tour", || {
        let t = euler_tour(&forest);
        (t.succ.clone(), t.first_arc.clone())
    });
}

#[test]
fn critical_sets_identical() {
    let tree = generators::random_tree(20_000, 5, 1.0, 1.0);
    let forest = RootedForest::from_graph(&tree).expect("tree input");
    let sizes = subtree_sizes_parallel(&forest);
    assert_cap_invariant("critical_vertices", || {
        critical_vertices(&forest, &sizes, 3)
    });
}

#[test]
fn planar_decomposition_identical() {
    let g = generators::grid2d(28, 28, |u, v| 1.0 + ((u + 2 * v) % 3) as f64);
    assert_cap_invariant("decompose_planar", || {
        let d = decompose_planar(&g, &PlanarOptions::default());
        (
            d.partition.assignment().to_vec(),
            d.core_size,
            d.extra_edges,
        )
    });
}

#[test]
fn recursive_bisection_identical() {
    let g = generators::grid2d(16, 16, |u, v| 1.0 + ((u * v) % 4) as f64);
    assert_cap_invariant("recursive_bisection", || {
        let (p, stats) = decompose_recursive_bisection(
            &g,
            &RecursiveBisectionOptions {
                phi_target: 0.4,
                min_cluster: 2,
                ..Default::default()
            },
        );
        (p.assignment().to_vec(), stats.cuts_computed)
    });
}

#[test]
fn pcg_solve_identical() {
    // Big enough to cross the BLAS-1 parallel chunk threshold (2^14).
    let g = generators::grid2d(150, 150, |u, v| 1.0 + ((u + v) % 5) as f64);
    let a = laplacian(&g);
    let n = a.nrows();
    let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = CgOptions {
        rel_tol: 1e-6,
        max_iter: 60,
        record_residuals: true,
    };
    assert_cap_invariant("pcg_solve", || {
        let r = pcg_solve(&a, &m, &b, &opts);
        (bits(&r.x), bits(&r.residual_history), r.iterations)
    });
}

#[test]
fn blocked_spmv_bitwise_identical() {
    // The row-band blocked kernel runs every production SpMV, so it must
    // be a pure layout change at every size: same per-row accumulation
    // order as the reference row loop, same bits, at every cap. The three
    // operators are a one-band 10×10 grid (460 nnz), the 16³ OCT volume
    // (4096 rows, the first band-parallel size), and a 90×90 grid.
    let operators = [
        laplacian(&generators::grid2d(10, 10, |u, v| {
            1.0 + ((u + v) % 3) as f64
        })),
        laplacian(&generators::oct_like_grid3d(
            16,
            16,
            16,
            42,
            generators::OctParams::default(),
        )),
        laplacian(&generators::grid2d(90, 90, |u, v| {
            1.0 + ((u * 7 + v) % 5) as f64
        })),
    ];
    for a in &operators {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin()).collect();
        let mut reference = vec![0.0; n];
        a.mul_into(&x, &mut reference);
        assert_cap_invariant("blocked_spmv", || {
            let mut y = vec![0.0; n];
            a.spmv_into(&x, &mut y);
            bits(&y)
        });
        let mut y = vec![0.0; n];
        a.spmv_into(&x, &mut y);
        assert_eq!(
            bits(&reference),
            bits(&y),
            "n={n}: blocked SpMV must match the reference row loop bitwise"
        );
    }
}

#[test]
fn fused_pcg_bitwise_identical_to_unfused() {
    // The fused solver (apply+dot and x/r/norm single-sweep kernels) must
    // reproduce the unfused trajectory bit for bit at every cap, both over
    // the blocked SpMV.
    let g = generators::grid2d(120, 120, |u, v| 1.0 + ((u + 3 * v) % 4) as f64);
    let a = laplacian(&g);
    let n = a.nrows();
    let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = CgOptions {
        rel_tol: 1e-6,
        max_iter: 60,
        record_residuals: true,
    };
    let unfused = with_thread_cap(1, || {
        let r = hicond_linalg::pcg_solve_unfused(&a, &m, &b, &opts);
        (bits(&r.x), bits(&r.residual_history), r.iterations)
    });
    assert_cap_invariant("fused_pcg", || {
        let r = pcg_solve(&a, &m, &b, &opts);
        (bits(&r.x), bits(&r.residual_history), r.iterations)
    });
    let fused = with_thread_cap(4, || {
        let r = pcg_solve(&a, &m, &b, &opts);
        (bits(&r.x), bits(&r.residual_history), r.iterations)
    });
    assert_eq!(
        unfused, fused,
        "fused PCG must match the unfused residual trajectory bitwise"
    );
}

#[test]
fn obs_off_vs_json_bitwise_identical() {
    // Instrumentation must never feed back into the numerics: the same
    // decompose + solve pipeline under HICOND_OBS=off and =json is
    // bitwise identical at every thread cap. (Other tests in this binary
    // are mode-independent, so flipping the global mode here is safe.)
    let g = generators::grid2d(32, 32, |u, v| 1.0 + ((u * 5 + v) % 3) as f64);
    let a = laplacian(&g);
    let n = a.nrows();
    let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = CgOptions {
        rel_tol: 1e-8,
        max_iter: 80,
        record_residuals: true,
    };
    let run = || {
        let d = decompose_planar(&g, &PlanarOptions::default());
        let r = pcg_solve(&a, &m, &b, &opts);
        (
            d.partition.assignment().to_vec(),
            bits(&r.x),
            bits(&r.residual_history),
            r.iterations,
        )
    };
    for cap in [1usize, 2, 4] {
        hicond_obs::set_mode(hicond_obs::Mode::Off);
        let off = with_thread_cap(cap, &run);
        hicond_obs::set_mode(hicond_obs::Mode::Json);
        let json = with_thread_cap(cap, &run);
        hicond_obs::set_mode(hicond_obs::Mode::Off);
        assert!(
            off == json,
            "cap {cap}: output differs between HICOND_OBS=off and HICOND_OBS=json"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The partitioner tiles [0, len) exactly: contiguous, in order, no
    /// gaps or overlap — including len == 0, len < units, and
    /// len % units != 0.
    #[test]
    fn block_range_tiles_exactly(len in 0usize..10_000, units in 1usize..64) {
        let mut prev_end = 0usize;
        for u in 0..units {
            let (s, e) = block_range(len, units, u);
            prop_assert_eq!(s, prev_end);
            prop_assert!(e >= s);
            // Balanced: no unit more than one item larger than another.
            prop_assert!(e - s <= len / units + 1);
            prev_end = e;
        }
        prop_assert_eq!(prev_end, len);
    }

    /// Empty input and len < units degenerate cleanly (trailing units get
    /// empty ranges).
    #[test]
    fn block_range_small_inputs(units in 1usize..64) {
        for len in 0..units {
            let nonempty = (0..units)
                .map(|u| block_range(len, units, u))
                .filter(|(s, e)| e > s)
                .count();
            prop_assert_eq!(nonempty, len);
        }
    }
}
