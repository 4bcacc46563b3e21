//! Schedule-perturbation stress suite for the execution engine.
//!
//! The determinism suite (`tests/determinism.rs`) proves thread *count*
//! cannot change results. This suite attacks the orthogonal axis: thread
//! *timing*. `rayon::pool::set_sched_jitter(Some(seed))` injects seeded
//! yields/sleeps at every unit-claim boundary, forcing claim interleavings
//! that a quiet machine never produces — fast workers stall mid-range,
//! slow workers grab contiguous runs, claim order inverts between rounds.
//! Because the engine's unit → result-slot mapping is fixed and all
//! order-sensitive reduction is sequential on the dispatcher, every
//! perturbed run must still be **bitwise identical** to the unperturbed
//! 1-thread reference.
//!
//! The jitter latch is process-global, so this suite serializes all
//! perturbed sections behind one lock (Rust runs tests in one process) and
//! always restores `None` on exit.

use hicond_core::{decompose_planar, PlanarOptions};
use hicond_graph::{generators, laplacian};
use hicond_linalg::cg::{pcg_solve, CgOptions, JacobiPreconditioner};
use rayon::pool::{set_sched_jitter, with_thread_cap};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Eight seeds spread across the mixer's input space; each drives a
/// distinct pause pattern per (unit, worker).
const SEEDS: [u64; 8] = [
    1,
    2,
    0xdead_beef,
    0x100_0000_01b3,
    42,
    0x9e37_79b9_7f4a_7c15,
    7_777_777,
    u64::MAX,
];

/// Thread caps exercised under each seed. Cap 1 pins the degenerate
/// single-claimant schedule; 2 and 4 give real concurrency on any CI box.
const CAPS: [usize; 3] = [1, 2, 4];

/// Serializes perturbed sections: the jitter latch is global state.
fn jitter_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Restores `set_sched_jitter(None)` even if an assertion unwinds.
struct JitterOff;
impl Drop for JitterOff {
    fn drop(&mut self) {
        set_sched_jitter(None);
    }
}

/// Runs `f` unperturbed at cap 1, then under every (seed, cap) pair, and
/// asserts every output equals the reference bit for bit.
fn assert_schedule_invariant<T, F>(label: &str, f: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let _serial = jitter_lock();
    let _restore = JitterOff;
    set_sched_jitter(None);
    let reference = with_thread_cap(1, &f);
    for seed in SEEDS {
        set_sched_jitter(Some(seed));
        for cap in CAPS {
            let got = with_thread_cap(cap, &f);
            assert!(
                got == reference,
                "{label}: output under jitter seed {seed} at cap {cap} \
                 differs from the unperturbed 1-thread result"
            );
        }
    }
}

/// Bit-exact view of an f64 vector (PartialEq on f64 would also accept
/// -0.0 == 0.0; the engine promises *bitwise* identity).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pcg_stable_under_schedule_jitter() {
    // 130×130 = 16900 > 2^14: the BLAS-1 chunked kernels dispatch too,
    // not just the band-parallel SpMV.
    let g = generators::grid2d(130, 130, |u, v| 1.0 + ((u + 3 * v) % 5) as f64);
    let a = laplacian(&g);
    // Zero-sum rhs keeps the singular Laplacian system consistent.
    let n = a.nrows();
    let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin()).collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = CgOptions {
        rel_tol: 1e-6,
        max_iter: 60,
        record_residuals: true,
    };
    assert_schedule_invariant("pcg_solve", || {
        let r = pcg_solve(&a, &m, &b, &opts);
        (bits(&r.x), bits(&r.residual_history), r.iterations)
    });
}

#[test]
fn blocked_spmv_stable_under_schedule_jitter() {
    // Band-parallel blocked SpMV under perturbed claim interleavings: the
    // whole-band → worker assignment may shuffle arbitrarily, but each
    // band's rows reduce sequentially in storage order, so the output must
    // match the reference row loop bit for bit. The operators straddle
    // the band-parallel cutoff: a one-band 10×10 grid (460 nnz), the 16³
    // OCT volume (4096 rows) and an 80×80 grid.
    let operators = [
        laplacian(&generators::grid2d(10, 10, |u, v| {
            1.0 + ((u + 2 * v) % 3) as f64
        })),
        laplacian(&generators::oct_like_grid3d(
            16,
            16,
            16,
            42,
            generators::OctParams::default(),
        )),
        laplacian(&generators::grid2d(80, 80, |u, v| {
            1.0 + ((u * 3 + 2 * v) % 9) as f64
        })),
    ];
    for a in &operators {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
        let mut reference = vec![0.0; n];
        a.mul_into(&x, &mut reference);
        assert_schedule_invariant("blocked_spmv", || {
            let mut y = vec![0.0; n];
            a.spmv_into(&x, &mut y);
            bits(&y)
        });
        let mut y = vec![0.0; n];
        a.spmv_into(&x, &mut y);
        assert_eq!(bits(&reference), bits(&y), "n={n}: blocked vs reference");
    }
}

#[test]
fn fused_pcg_stable_under_schedule_jitter() {
    // The fused solver composed with the blocked SpMV — the full PR-7 fast
    // path — against the unfused, unperturbed trajectory.
    let g = generators::grid2d(130, 130, |u, v| 1.0 + ((2 * u + v) % 7) as f64);
    let a = laplacian(&g);
    let n = a.nrows();
    let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = CgOptions {
        rel_tol: 1e-6,
        max_iter: 60,
        record_residuals: true,
    };
    let unfused = hicond_linalg::pcg_solve_unfused(&a, &m, &b, &opts);
    assert_schedule_invariant("fused_pcg", || {
        let r = pcg_solve(&a, &m, &b, &opts);
        (bits(&r.x), bits(&r.residual_history), r.iterations)
    });
    let fused = pcg_solve(&a, &m, &b, &opts);
    assert_eq!(
        (
            bits(&unfused.x),
            bits(&unfused.residual_history),
            unfused.iterations
        ),
        (
            bits(&fused.x),
            bits(&fused.residual_history),
            fused.iterations
        ),
        "fused trajectory must match unfused bitwise"
    );
}

#[test]
fn planar_decomposition_stable_under_schedule_jitter() {
    let g = generators::grid2d(26, 26, |u, v| 1.0 + ((2 * u + v) % 3) as f64);
    assert_schedule_invariant("decompose_planar", || {
        let d = decompose_planar(&g, &PlanarOptions::default());
        (
            d.partition.assignment().to_vec(),
            d.core_size,
            d.extra_edges,
        )
    });
}
