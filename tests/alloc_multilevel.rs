//! Proves the production solve path is allocation-free per iteration on
//! the multilevel Steiner preconditioner: `LaplacianSolver::solve` and a
//! three-column `solve_block`, each run for 30 and for 60 fixed
//! iterations (`rel_tol: 0.0`), must perform the same number of heap
//! allocations. Any per-iteration allocation — in the PCG engine,
//! the operator or level SpMVs, the hierarchy walk or the coarse
//! Cholesky solves — shows up as a nonzero difference. The same holds
//! when walks run concurrently on one shared solver: two threads solving
//! at once, and the column groups of a two-column `solve_block`.
//!
//! The walk itself is pinned too: a one-column `apply_into` allocates
//! nothing once warm, and alternating one- and two-column solves reuse
//! one workspace instead of rebuilding it at every switch.
//!
//! The allocation counter is process-wide, so the tests take a lock and
//! never count while another one runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a zero-sized pass-through wrapper (no fields) — every method
// delegates to `System` verbatim, so `System`'s GlobalAlloc contract
// (layout fitting, pointer validity) is preserved unchanged; the counter
// bump has no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` pair is the caller's live allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use hicond_graph::generators;
use hicond_linalg::cg::CgOptions;
use hicond_linalg::{block_pcg_solve, Preconditioner};
use hicond_precond::{LaplacianSolver, MultilevelSteiner, SolveError, SolverOptions};
use rayon::pool::with_thread_cap;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests: each counts every allocation in the process.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    (out, after - before)
}

fn grid_and_rhs(cols: usize) -> (hicond_graph::Graph, Vec<Vec<f64>>) {
    let g = generators::grid2d(130, 130, |u, v| 1.0 + ((u + 2 * v) % 5) as f64);
    let n = g.num_vertices();
    let rhs = (0..cols)
        .map(|j| {
            let mut b: Vec<f64> = (0..n)
                .map(|i| ((i * (j + 3) + 7) % 23) as f64 - 11.0)
                .collect();
            hicond_linalg::vector::deflate_constant(&mut b);
            b
        })
        .collect();
    (g, rhs)
}

#[test]
fn multilevel_solve_loop_is_allocation_free() {
    let _serial = serial();
    // Level 0 (16900 rows) spans five 4096-element BLAS-1 chunks, so its
    // SpMVs, level sweeps and vector kernels take the pool under the
    // multi-thread cap below; the coarser levels run inline.
    let g = generators::grid2d(130, 130, |u, v| 1.0 + ((u + 2 * v) % 5) as f64);
    let n = g.num_vertices();
    let cols: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            let mut b: Vec<f64> = (0..n)
                .map(|i| ((i * (j + 3) + 7) % 23) as f64 - 11.0)
                .collect();
            hicond_linalg::vector::deflate_constant(&mut b);
            b
        })
        .collect();
    let opts = |iters: usize| SolverOptions {
        rel_tol: 0.0, // never met: run exactly `iters` iterations
        max_iter: iters,
        ..Default::default()
    };

    with_thread_cap(4, || {
        // (solve allocations, solve_block allocations) at `iters`. The
        // warmups spawn the pool workers and size a hierarchy workspace
        // for every concurrent walk before anything is counted.
        let counts = |iters: usize| {
            let solver = LaplacianSolver::new(&g, &opts(iters));
            let _warmup = solver.solve(&cols[0]);
            let (one, a_one) = allocs_during(|| solver.solve(&cols[0]));
            let _warmup = solver.solve_block(&cols);
            let (block, a_block) = allocs_during(|| solver.solve_block(&cols));
            assert!(matches!(one, Err(SolveError::NotConverged { .. })));
            assert!(block
                .iter()
                .all(|r| matches!(r, Err(SolveError::NotConverged { .. }))));
            (a_one, a_block)
        };
        let (one30, block30) = counts(30);
        let (one60, block60) = counts(60);
        assert_eq!(
            one30, one60,
            "doubling the iteration count changed solve's allocation count: \
             the loop allocated per iteration ({one30} vs {one60})"
        );
        assert_eq!(
            block30, block60,
            "doubling the iteration count changed solve_block's allocation \
             count: the loop allocated per iteration ({block30} vs {block60})"
        );

        // The same engine on the same operator pair really runs all 60
        // iterations per column (no early breakdown), so the counts above
        // compare 30 against 60 iterations of work.
        let a = hicond_graph::laplacian(&g);
        let m = MultilevelSteiner::new(&g, &opts(60).multilevel);
        let cg = CgOptions {
            rel_tol: 0.0,
            max_iter: 60,
            record_residuals: false,
        };
        for res in block_pcg_solve(&a, &m, &cols, &cg) {
            assert_eq!(res.iterations, 60);
        }
    });
}

#[test]
fn concurrent_walks_on_one_solver_are_allocation_free() {
    let _serial = serial();
    let (g, cols) = grid_and_rhs(2);
    let opts = |iters: usize| SolverOptions {
        rel_tol: 0.0, // never met: run exactly `iters` iterations
        max_iter: iters,
        ..Default::default()
    };
    // (two concurrent solves, one k = 2 solve_block at cap 2) allocations
    // at `iters`: the fewest over three runs after a warmup. Which thread
    // runs a walk first is up to the scheduler, and a thread's first walk
    // (or the first walk to find every workspace in use) allocates once;
    // the minimum is the steady state, which a per-apply allocation would
    // still raise with the iteration count.
    let counts = |iters: usize| {
        let solver = LaplacianSolver::new(&g, &opts(iters));
        let two_threads = || {
            std::thread::scope(|s| {
                let solves: Vec<_> = cols
                    .iter()
                    .map(|b| s.spawn(|| with_thread_cap(2, || solver.solve(b))))
                    .collect();
                for h in solves {
                    let res = h.join().expect("solver thread");
                    assert!(matches!(res, Err(SolveError::NotConverged { .. })));
                }
            })
        };
        let block = || {
            let res = with_thread_cap(2, || solver.solve_block(&cols));
            assert!(res
                .iter()
                .all(|r| matches!(r, Err(SolveError::NotConverged { .. }))));
        };
        let fewest = |run: &dyn Fn()| {
            run();
            (0..3).map(|_| allocs_during(run).1).min().unwrap_or(0)
        };
        (fewest(&two_threads), fewest(&block))
    };
    let (threads30, block30) = counts(30);
    let (threads60, block60) = counts(60);
    assert_eq!(
        threads30, threads60,
        "doubling the iteration count changed the allocation count of two \
         concurrent solves: a walk allocated per apply ({threads30} vs {threads60})"
    );
    assert_eq!(
        block30, block60,
        "doubling the iteration count changed the allocation count of a \
         fanned-out solve_block: a walk allocated per apply ({block30} vs {block60})"
    );
}

#[test]
fn apply_into_allocates_nothing_once_warm() {
    let _serial = serial();
    let (g, cols) = grid_and_rhs(1);
    let m = MultilevelSteiner::new(&g, &Default::default());
    let mut z = vec![0.0; g.num_vertices()];
    // Cap 1 runs every level sweep inline; cap 4 puts level 0 (16900
    // rows, five BLAS-1 chunks) on the pool.
    for cap in [1, 4] {
        with_thread_cap(cap, || {
            // The warmup sizes the workspace and spawns the pool workers.
            m.apply_into(&cols[0], &mut z);
            let ((), count) = allocs_during(|| {
                for _ in 0..10 {
                    m.apply_into(&cols[0], &mut z);
                }
            });
            assert_eq!(count, 0, "ten warm apply_into calls at cap {cap} allocated");
        });
    }
}

#[test]
fn alternating_walk_widths_reuse_one_workspace() {
    let _serial = serial();
    let (g, cols) = grid_and_rhs(2);
    let a = hicond_graph::laplacian(&g);
    let m = MultilevelSteiner::new(&g, &Default::default());
    let (one, two) = (&cols[..1], &cols[..]);
    // Cap 1: no column fan-out, so the two columns of a two-column solve
    // walk one after another and share the preconditioner's one
    // workspace with the one-column solves.
    with_thread_cap(1, || {
        // (one-column solve after a one-column solve, one-column solve
        // after a two-column solve, an alternating pair) allocations at
        // `iters` fixed iterations.
        let counts = |iters: usize| {
            let cg = CgOptions {
                rel_tol: 0.0, // never met: run exactly `iters` iterations
                max_iter: iters,
                record_residuals: false,
            };
            let solve = |b: &[Vec<f64>]| {
                for res in block_pcg_solve(&a, &m, b, &cg) {
                    assert_eq!(res.iterations, iters);
                }
            };
            solve(two);
            solve(one);
            let after_one = allocs_during(|| solve(one)).1;
            solve(two);
            let after_two = allocs_during(|| solve(one)).1;
            let pair = allocs_during(|| {
                solve(two);
                solve(one);
            })
            .1;
            (after_one, after_two, pair)
        };
        let (after_one30, after_two30, pair30) = counts(30);
        let (_, _, pair60) = counts(60);
        assert_eq!(
            after_one30, after_two30,
            "a one-column walk after a two-column walk reallocated the \
             workspace ({after_one30} vs {after_two30} allocations)"
        );
        assert_eq!(
            pair30, pair60,
            "doubling the iteration count changed the allocation count of \
             alternating one- and two-column solves ({pair30} vs {pair60})"
        );
    });
}
