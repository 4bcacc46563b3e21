//! What one PCG iteration records with telemetry on.
//!
//! Counters are per phase or per solve, so a solve's `counter` flight
//! events do not grow with its iteration count. An iteration records only
//! the preconditioner's `precond_apply` span (one enter/exit pair) and, when
//! the relative residual crosses a decade, one milestone. Two multilevel
//! solves capped at different iteration counts, each under its own trace
//! id, hold the ring to that, on one thread and with every kernel fanned
//! out over the pool, where the pool's task and dispatch counters go to
//! the registry only.

use std::collections::BTreeMap;
use std::sync::Mutex;

use hicond_graph::generators;
use hicond_obs::flight::{self, EventKind};
use hicond_precond::{LaplacianSolver, SolveError, SolverOptions};
use rayon::pool::with_thread_cap;

/// Serializes the tests of this file: each switches the process-wide
/// recording mode on and off around its solves.
static MODE: Mutex<()> = Mutex::new(());

/// Flight events of one capped solve, counted by `(kind, name)`.
fn events_of_capped_solve(
    g: &hicond_graph::Graph,
    b: &[f64],
    max_iter: usize,
) -> BTreeMap<(String, String), usize> {
    let solver = LaplacianSolver::new(
        g,
        &SolverOptions {
            rel_tol: 0.0, // never met: run exactly `max_iter` iterations
            max_iter,
            ..Default::default()
        },
    );
    let trace = hicond_obs::next_trace_id();
    let since = flight::recorder().head();
    {
        let _t = hicond_obs::trace_scope(trace);
        let res = solver.solve(b);
        assert!(
            matches!(res, Err(SolveError::NotConverged { .. })),
            "the solve must hit its cap of {max_iter}: {res:?}"
        );
    }
    let mut counts = BTreeMap::new();
    for e in flight::recorder().drain_since(since) {
        if e.trace == trace {
            let key = (e.kind.label().to_string(), flight::name_of(e.name));
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    counts
}

/// Number of `kind` events in a count map.
fn total(m: &BTreeMap<(String, String), usize>, kind: EventKind) -> usize {
    m.iter()
        .filter(|((k, _), _)| k == kind.label())
        .map(|(_, c)| c)
        .sum()
}

/// A deflated right-hand side for `g`.
fn rhs(g: &hicond_graph::Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut b: Vec<f64> = (0..n).map(|i| ((i * 29 + 7) % 19) as f64 - 9.0).collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    b
}

#[test]
fn an_iteration_records_only_its_precond_apply_span_and_milestones() {
    let _mode = MODE.lock().unwrap_or_else(|p| p.into_inner());
    hicond_obs::set_mode(hicond_obs::Mode::Json);
    // 400 rows: every kernel runs as one chunk, so no pool task events.
    let g = generators::grid2d(20, 20, |u, v| 1.0 + ((u + 2 * v) % 3) as f64);
    let b = rhs(&g);

    let (short, long) = with_thread_cap(1, || {
        (
            events_of_capped_solve(&g, &b, 5),
            events_of_capped_solve(&g, &b, 20),
        )
    });
    hicond_obs::set_mode(hicond_obs::Mode::Off);

    let counters = |m: &BTreeMap<(String, String), usize>| total(m, EventKind::CounterAdd);
    assert!(counters(&short) > 0, "no counter events: {short:?}");
    assert_eq!(
        counters(&short),
        counters(&long),
        "counter events grew with the iteration count:\n5 iterations: {short:?}\n20 iterations: {long:?}"
    );

    let apply = "solve/pcg/precond_apply";
    for key in short.keys().chain(long.keys()) {
        let (c_short, c_long) = (short.get(key).copied(), long.get(key).copied());
        let extra = c_long
            .unwrap_or(0)
            .checked_sub(c_short.unwrap_or(0))
            .unwrap_or_else(|| panic!("{key:?}: {c_short:?} events at 5, {c_long:?} at 20"));
        let (kind, name) = (key.0.as_str(), key.1.as_str());
        let is_apply_span = name == apply
            && (kind == EventKind::SpanEnter.label() || kind == EventKind::SpanExit.label());
        assert!(
            extra == 0 || is_apply_span || kind == EventKind::ResidualMilestone.label(),
            "{kind} {name} recorded {extra} more event(s) in the longer solve"
        );
    }
    // One preconditioner apply per extra iteration, each one enter/exit
    // pair.
    let extra = |kind: EventKind| {
        let key = (kind.label().to_string(), apply.to_string());
        long.get(&key).copied().unwrap_or(0) - short.get(&key).copied().unwrap_or(0)
    };
    assert_eq!(
        (extra(EventKind::SpanEnter), extra(EventKind::SpanExit)),
        (15, 15)
    );
}

#[test]
fn a_fanned_out_iteration_records_no_counter_events() {
    let _mode = MODE.lock().unwrap_or_else(|p| p.into_inner());
    hicond_obs::set_mode(hicond_obs::Mode::Json);
    // 4900 rows, over one `MIN_PAR_CHUNK` of 4096: the finest level's row
    // sweeps split into chunks, so at cap 2 every iteration dispatches.
    let g = generators::grid2d(70, 70, |u, v| 1.0 + ((u + 2 * v) % 3) as f64);
    assert!(g.num_vertices() > rayon::pool::MIN_PAR_CHUNK);
    let b = rhs(&g);

    let (short, long) = with_thread_cap(2, || {
        (
            events_of_capped_solve(&g, &b, 5),
            events_of_capped_solve(&g, &b, 20),
        )
    });
    hicond_obs::set_mode(hicond_obs::Mode::Off);

    assert!(
        total(&long, EventKind::PoolTask) > total(&short, EventKind::PoolTask),
        "the longer solve fanned more kernels out over the pool:\n5 iterations: {short:?}\n20 iterations: {long:?}"
    );
    assert_eq!(
        total(&short, EventKind::CounterAdd),
        total(&long, EventKind::CounterAdd),
        "counter events grew with the iteration count:\n5 iterations: {short:?}\n20 iterations: {long:?}"
    );
}
