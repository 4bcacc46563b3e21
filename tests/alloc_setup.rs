//! Proves setup allocates per hierarchy level, not per vertex, per edge,
//! per input line or per forest tree. Building a `LaplacianSolver` must
//! stay within 64 heap allocations per hierarchy level on grids and OCT
//! volumes of growing size; reading an edge list and building a graph
//! from an edge slice must stay within a fixed count whatever the graph's
//! size. A row re-sort in the graph builder, a triplet buffer in the
//! Laplacian, a few vectors per tree in the fixed-degree split or a
//! `String` per line in a reader each cost thousands of allocations on
//! these inputs.
//!
//! The allocation counter is process-wide, so the tests take a lock and
//! never count while another one runs, and each count is the fewest of
//! three calls: the harness's own threads allocate while a test runs
//! (reporting the tests that finished), which only ever adds.

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

use hicond_graph::{generators, io, Graph};
use hicond_precond::{LaplacianSolver, SolverOptions};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests: each counts every allocation in the process.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The last of three calls of `f` and the fewest allocations any of
/// them made.
fn fewest_allocs<T>(mut f: impl FnMut() -> T) -> (T, usize) {
    let mut fewest = usize::MAX;
    let mut out = None;
    for _ in 0..3 {
        drop(out.take());
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let value = f();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        out = Some(value);
    }
    (out.expect("three calls ran"), fewest)
}

/// Allocations a solver build may make per hierarchy level: the level's
/// graph, partition, quotient, Laplacian, smoother and workspace arrays,
/// plus the pool and telemetry bookkeeping a level's passes touch.
const PER_LEVEL: usize = 64;

fn grid(side: usize) -> Graph {
    generators::grid2d(side, side, |_, _| 1.0)
}

fn oct(side: usize) -> Graph {
    generators::oct_like_grid3d(side, side, side, 42, generators::OctParams::default())
}

fn assert_setup_per_level(name: &str, g: &Graph) {
    let opts = SolverOptions::default();
    // The warmup spawns the pool workers and registers every telemetry
    // name the build records before anything is counted.
    drop(LaplacianSolver::new(g, &opts));
    let (solver, count) = fewest_allocs(|| LaplacianSolver::new(g, &opts));
    let levels = solver.num_levels().max(1);
    assert!(
        count <= PER_LEVEL * levels,
        "{name}: LaplacianSolver::new made {count} allocations for {levels} \
         level(s), bound {PER_LEVEL} per level"
    );
}

#[test]
fn solver_setup_allocates_per_level_on_grids() {
    let _serial = serial();
    for side in [24, 48, 96] {
        assert_setup_per_level(&format!("grid {side}²"), &grid(side));
    }
}

#[test]
fn solver_setup_allocates_per_level_on_oct_volumes() {
    let _serial = serial();
    for side in [8, 16] {
        assert_setup_per_level(&format!("OCT {side}³"), &oct(side));
    }
}

#[test]
fn reading_an_edge_list_allocates_a_fixed_count() {
    let _serial = serial();
    let g = grid(96);
    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).expect("writing to a Vec cannot fail");
    let (read, count) = fewest_allocs(|| io::read_edge_list(&text[..]));
    let read = read.expect("a written edge list reads back");
    assert_eq!(read.edges(), g.edges());
    assert!(
        count <= 32,
        "read_edge_list of the 96² grid made {count} allocations, bound 32"
    );
}

#[test]
fn building_a_graph_allocates_a_fixed_count() {
    let _serial = serial();
    let g = grid(96);
    let list: Vec<(usize, usize, f64)> = g
        .edges()
        .iter()
        .map(|e| (e.u as usize, e.v as usize, e.w))
        .collect();
    let (built, count) = fewest_allocs(|| Graph::from_edges(g.num_vertices(), &list));
    assert_eq!(built.edges(), g.edges());
    assert!(
        count <= 32,
        "Graph::from_edges on the 96² grid's edges made {count} allocations, bound 32"
    );
}
