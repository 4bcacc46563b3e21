//! End-to-end acceptance test for the observability layer (DESIGN.md §8).
//!
//! With JSON mode on, a decompose → precondition → solve pipeline on a
//! planar mesh must populate: total PCG iterations, the final relative
//! residual, per-phase span timers for decomposition / precondition / solve,
//! the per-cluster conductance histogram, and per-worker pool task
//! counters — and the rendered export must be valid JSON.

use hicond_core::{decompose_planar, PlanarOptions};
use hicond_graph::{generators, laplacian};
use hicond_precond::{LaplacianSolver, SolverOptions};
use rayon::pool::with_thread_cap;

#[test]
fn pcg_on_planar_mesh_emits_full_snapshot() {
    hicond_obs::set_mode(hicond_obs::Mode::Json);
    hicond_obs::reset();

    // Small mesh drives the full decompose/precondition/solve path; the
    // big SpMV afterwards is large enough (> 4096 rows) to fan out onto
    // pool workers so per-worker counters attribute work.
    let opts = SolverOptions::default();
    let g = generators::grid2d(24, 24, |u, v| 1.0 + ((u * 3 + v) % 4) as f64);
    let n = g.num_vertices();
    let mut b: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
    hicond_linalg::vector::deflate_constant(&mut b);

    let big = generators::grid2d(90, 90, |_, _| 1.0);
    let big_a = laplacian(&big);
    let x: Vec<f64> = (0..big_a.nrows()).map(|i| (i % 17) as f64 - 8.0).collect();

    with_thread_cap(4, || {
        let _d = decompose_planar(&g, &PlanarOptions::default());
        let solver = LaplacianSolver::new(&g, &opts);
        let sol = solver.solve(&b).expect("solve succeeds");
        assert!(sol.iterations > 0);
        let mut y = vec![0.0; big_a.nrows()];
        big_a.spmv_into(&x, &mut y);
        assert!(y.iter().any(|v| *v != 0.0));
    });

    let snap = hicond_obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };

    // Solver counters and the final residual of the last solve.
    assert!(counter("cg/solves").unwrap_or(0) >= 1, "cg/solves missing");
    assert!(
        counter("cg/iterations").unwrap_or(0) > 0,
        "cg/iterations missing"
    );
    let final_rel = snap
        .gauges
        .iter()
        .find(|(k, _)| k == "cg/final_rel_residual")
        .map(|(_, v)| *v)
        .expect("cg/final_rel_residual gauge missing");
    assert!(
        final_rel <= opts.rel_tol,
        "final relative residual {final_rel:e} above rel_tol {:e}",
        opts.rel_tol
    );

    // Per-phase spans for the three pipeline stages, with nesting.
    for prefix in ["decomposition", "precondition", "solve"] {
        assert!(
            snap.timers.iter().any(|(k, _)| k.starts_with(prefix)),
            "no span under {prefix:?}; spans: {:?}",
            snap.timers.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
    assert!(
        snap.timers.iter().any(|(k, _)| k == "solve/pcg"),
        "solve/pcg span must nest under solve"
    );
    assert!(
        snap.timers
            .iter()
            .any(|(k, _)| k == "solve/pcg/precond_apply"),
        "precond_apply span must nest under solve/pcg"
    );

    // Per-cluster conductance histogram from the decomposition.
    let phi = snap
        .histograms
        .iter()
        .find(|(k, _)| k == "decomposition/phi")
        .expect("decomposition/phi histogram missing");
    assert!(phi.1.count > 0, "phi histogram empty");

    // Pool attribution: dispatched work lands on per-worker counters.
    let pool_tasks: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| {
            (k.starts_with("pool/worker.") && k.ends_with(".tasks")) || k == "pool/dispatcher.tasks"
        })
        .map(|(_, v)| *v)
        .sum();
    assert!(pool_tasks > 0, "no pool task counters attributed");

    // The machine-readable export round-trips the validator.
    let json = hicond_obs::render_json(&snap);
    hicond_obs::json::validate(&json).expect("snapshot JSON must validate");
    assert!(json.contains("cg/iterations"));

    // The human-readable report renders without panicking.
    let text = hicond_obs::render_text(&snap);
    assert!(text.contains("spans:"));

    hicond_obs::set_mode(hicond_obs::Mode::Off);
}
