//! The traced run: per-layer numbers, timed from this benchmark around
//! calls into each layer's public functions. Nothing is instrumented
//! inside hicond; its telemetry stays off.
//!
//! Every workload's traced run measures every layer on its own graph:
//! a short serve phase (closed loop, `stats` scrape, low-rate open
//! loop), then in-process probes. `ANNOTATIONS` names the end-to-end
//! metric and workload each layer metric should move.

use crate::load::{self, Tally};
use crate::stats::{median, median_secs, quantile, timed};
use crate::{inputs, metric, print_phase, solve_checked, Ctx, Metric};
use hicond::artifact::{kinds, Cache};
use hicond::core::build_hierarchy;
use hicond::graph::{io, laplacian};
use hicond::linalg::{LinearOperator, Preconditioner};
use hicond::precond::{
    decode_solver, encode_solver, solver_cache_key, LaplacianSolver, MultilevelSteiner,
    SolverOptions,
};
use hicond::serve::{self, Action, BatchConfig, BatchQueue, ServeStats};
use rayon::pool::with_thread_cap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// (metric, end-to-end metric and workload it should move). `oct32_cold`
/// and `oct48_solve` run by hand only; they are not in `BENCHMARK.json`.
pub const ANNOTATIONS: [(&str, &str); 29] = [
    (
        "serve.codec_ms",
        "p50_ms on grid96_serve and oct32_cold; nothing on oct16_solve",
    ),
    ("serve.request_bytes", "p50_ms on oct32_cold (codec volume)"),
    ("serve.reply_bytes", "p50_ms on oct32_cold (codec volume)"),
    (
        "serve.queue_wait_ms",
        "p50_ms on grid96_serve and oct32_cold",
    ),
    ("serve.batch_k", "solves_per_s on grid96_serve"),
    (
        "serve.transport_ms",
        "p50_ms on grid96_serve and oct32_cold",
    ),
    (
        "serve.unexplained_ms",
        "none: reconciliation remainder of the low-rate p50",
    ),
    ("precond.solve_ms", "p50_ms on every workload"),
    ("precond.block_ms", "solves_per_s on grid96_serve"),
    ("precond.block_gain", "solves_per_s on grid96_serve"),
    (
        "precond.vcycle_ms",
        "solves_per_s on oct16_solve and oct48_solve",
    ),
    (
        "precond.assemble_s",
        "setup_s on oct16_solve, oct48_solve and oct32_cold",
    ),
    (
        "linalg.pcg_iters",
        "solves_per_s on oct16_solve and oct48_solve (exact count)",
    ),
    (
        "linalg.spmv_ns_per_nnz",
        "solves_per_s on oct16_solve and oct48_solve",
    ),
    (
        "linalg.spmv_bytes_per_nnz",
        "solves_per_s on oct16_solve and oct48_solve (computed from array sizes)",
    ),
    (
        "linalg.pcg_rest_ms",
        "solves_per_s on oct16_solve and oct48_solve",
    ),
    (
        "core.hierarchy_s",
        "setup_s on oct16_solve, oct48_solve and oct32_cold",
    ),
    (
        "core.levels",
        "setup_s and solves_per_s on oct16_solve and oct48_solve (exact count)",
    ),
    (
        "core.coarse_n",
        "setup_s and solves_per_s on oct16_solve and oct48_solve (exact count)",
    ),
    ("graph.read_s", "setup_s on grid96_serve"),
    (
        "graph.laplacian_s",
        "setup_s on oct16_solve, oct48_solve and oct32_cold",
    ),
    ("artifact.encode_s", "setup_s on oct32_cold"),
    ("artifact.store_s", "setup_s on oct32_cold"),
    ("artifact.load_s", "setup_s on grid96_serve"),
    ("artifact.decode_s", "setup_s on grid96_serve"),
    ("artifact.bytes", "setup_s on grid96_serve and oct32_cold"),
    (
        "rayon.solve_speedup",
        "solves_per_s on oct16_solve and oct48_solve",
    ),
    (
        "rayon.setup_speedup",
        "setup_s on oct16_solve and oct48_solve",
    ),
    (
        "loadgen.late_p95_ms",
        "none: generator health; p50_ms and p95_ms are trusted only while it stays small",
    ),
];

/// Round trips of the `stats` verb timed per transport probe.
const STATS_TRIPS: usize = 21;

/// What the short serve phase measured.
struct ServePhase {
    batch_k: f64,
    lowrate_p50_ms: f64,
    late_p95_ms: f64,
    /// Median round trip of the `stats` verb over TCP.
    stats_trip_ms: f64,
}

/// Short serve phase: closed loop, `stats` scrape, a low-rate open loop,
/// then `stats` round trips on an idle connection.
fn serve_phase(ctx: &Ctx, tally: &mut Tally) -> Result<ServePhase, String> {
    let spec = ctx.args.workload.serve;
    let secs = ctx.args.seconds;
    let (server, _) = ctx.start_server()?;
    let mut conns = ctx.connect(&server)?;
    let req = ctx.requests();
    let warm = load::warm_up(&mut conns, &req, 2);
    let closed = load::closed_loop(&mut conns, &req, Duration::from_secs_f64(0.15 * secs));
    conns[0]
        .exchange("stats\n")
        .map_err(|f| format!("stats verb: {f:?}"))?;
    let stats = conns[0].reply().to_string();
    let batch_k = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("batch_p50="))
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("no batch_p50 in {stats:?}"))?;
    let due = inputs::schedule(
        ctx.args.seed,
        spec.open_rate,
        (0.25 * secs * spec.open_rate).round().max(1.0) as usize,
    );
    let open = load::open_loop(&mut conns, &req, &due);
    let mut trips = Vec::new();
    for _ in 0..STATS_TRIPS {
        let t0 = Instant::now();
        let done = conns[0]
            .exchange("stats\n")
            .map_err(|f| format!("stats verb: {f:?}"))?;
        trips.push((done - t0).as_secs_f64() * 1e3);
    }
    drop(conns);
    drop(server);
    print_phase("trace-warmup", &warm);
    print_phase("trace-closed", &closed.tally);
    print_phase("trace-open", &open.tally);
    println!("server {stats}");
    for t in [warm, closed.tally, open.tally] {
        tally.add(t);
    }
    Ok(ServePhase {
        batch_k,
        lowrate_p50_ms: median(&open.latency_ms),
        late_p95_ms: quantile(&open.late_ms, 0.95),
        stats_trip_ms: median(&trips),
    })
}

fn reply_of(a: Action) -> Result<String, String> {
    match a {
        Action::Reply(r) => Ok(r),
        _ => Err("respond gave no reply".into()),
    }
}

pub fn run(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();
    let sp = serve_phase(ctx, &mut tally)?;
    let lowrate_p50 = sp.lowrate_p50_ms;

    let g = &ctx.g;
    let n = g.num_vertices();
    let k = ctx.nproc;
    let opts = SolverOptions::default();
    let file = ctx.graph_file()?;
    let read_s = median_secs(5, || {
        io::read_edge_list(std::fs::File::open(file).expect("graph file was written"))
    });
    let laplacian_s = median_secs(5, || laplacian(g));

    let h = build_hierarchy(g, &opts.multilevel.hierarchy);
    let hierarchy_s = median_secs(3, || build_hierarchy(g, &opts.multilevel.hierarchy));
    let assemble_s = median_secs(3, || {
        MultilevelSteiner::from_hierarchy(g, &h, &opts.multilevel)
    });
    let pre = MultilevelSteiner::from_hierarchy(g, &h, &opts.multilevel);
    let levels = h.num_levels() as f64;
    let coarse_n = h.levels.last().map_or(0, |l| l.graph.num_vertices()) as f64;
    drop(h);

    let setup_wide = median_secs(3, || LaplacianSolver::new(g, &opts));
    let setup_one = with_thread_cap(1, || median_secs(3, || LaplacianSolver::new(g, &opts)));

    let solver = Arc::new(LaplacianSolver::new(g, &opts));
    let b0 = &ctx.rhs[0];
    let iters = solver
        .solve(b0)
        .map_err(|e| format!("solve: {e}"))?
        .iterations as f64;
    for b in &ctx.rhs {
        solve_checked(ctx, &solver, b, &mut tally);
    }
    // Solve and respond alternate, so both see the same host load and
    // their difference isolates the codec.
    let line = &ctx.lines[0];
    let stats = ServeStats::new();
    let reply = reply_of(serve::respond(&solver, n, line, &stats))?;
    tally.record(&ctx.verifier.check_reply(b0, &reply));
    let (mut solves, mut codecs) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let s = timed(|| solver.solve(b0)).1;
        let r = timed(|| serve::respond(&solver, n, line, &stats)).1;
        solves.push(s * 1e3);
        codecs.push((r - s) * 1e3);
    }
    let solve_ms = median(&solves);
    let codec_ms = median(&codecs);
    let solve_one_ms = 1e3 * with_thread_cap(1, || median_secs(7, || solver.solve(b0)));

    let bs: Vec<Vec<f64>> = ctx.rhs.iter().cycle().take(k).cloned().collect();
    for (b, r) in bs.iter().zip(solver.solve_block(&bs)) {
        let outcome = match r {
            Ok(sol) => ctx.verifier.check(b, &sol.x),
            Err(e) => Err(crate::verify::Failure::Refused(e.to_string())),
        };
        tally.record(&outcome);
    }
    let block_ms = 1e3 * median_secs(5, || solver.solve_block(&bs));

    let mut z = vec![0.0; n];
    let vcycle_ms = 1e3 * median_secs(21, || pre.apply_into(b0, &mut z));
    let lap = laplacian(g);
    let nnz = lap.nnz() as f64;
    let spmv_s = median_secs(51, || lap.apply_into(b0, &mut z));
    // Computed, not measured: values (8 B) and column indices (4 B) per
    // nonzero; row pointers (8 B), one read of x and one write of y
    // (8 B each) per row.
    let spmv_bytes = 12.0 * nnz + 8.0 * (n as f64 + 1.0) + 16.0 * n as f64;
    let pcg_rest_ms = solve_ms - iters * (1e3 * spmv_s + vcycle_ms);

    let bytes = encode_solver(&solver);
    let encode_s = median_secs(5, || encode_solver(&solver));
    let cache = Cache::at(ctx.args.work.join("cache-probe"));
    let key = solver_cache_key(g, &opts);
    let store_s = median_secs(5, || {
        cache.store(kinds::SOLVER, key, &bytes).expect("store")
    });
    let load_s = median_secs(5, || cache.load(kinds::SOLVER, key).expect("load"));
    let decode_s = median_secs(5, || decode_solver(&bytes).expect("decode"));

    let queue = BatchQueue::new(BatchConfig {
        max_batch: ctx.batch(),
        window: Duration::from_millis(inputs::BATCH_WINDOW_MS),
        max_inflight: 4 * ctx.batch(),
    });
    let dispatcher = queue.start(Arc::clone(&solver), Arc::new(ServeStats::new()));
    // Queue wait: submit-to-reply minus a one-column block solve,
    // alternated like codec above.
    let one = vec![b0.clone()];
    let mut waits = Vec::new();
    for _ in 0..7 {
        let block = timed(|| solver.solve_block(&one)).1;
        let b = b0.clone();
        let t0 = Instant::now();
        let rx = queue.submit(b, 0).map_err(|e| format!("submit: {e:?}"))?;
        rx.recv()
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        waits.push((t0.elapsed().as_secs_f64() - block) * 1e3);
    }
    queue.shutdown();
    dispatcher.join();

    let queue_wait_ms = median(&waits);
    // Transport is measured on its own: the `stats` round trip over TCP
    // minus the same verb answered in process.
    let stats_ms = 1e3 * median_secs(STATS_TRIPS, || serve::respond(&solver, n, "stats", &stats));
    let transport_ms = sp.stats_trip_ms - stats_ms;
    let explained = codec_ms + queue_wait_ms + solve_ms + transport_ms;
    println!(
        "reconcile {}: low-rate p50_ms {lowrate_p50:.3} = codec {codec_ms:.3} + queue wait {queue_wait_ms:.3} + solve {solve_ms:.3} + transport {transport_ms:.3} (sum {explained:.3}) + unexplained {:.3}",
        ctx.args.workload.name,
        lowrate_p50 - explained
    );

    let metrics = vec![
        metric("serve.codec_ms", codec_ms, "ms"),
        metric("serve.request_bytes", line.len() as f64, "bytes"),
        metric("serve.reply_bytes", reply.len() as f64 + 1.0, "bytes"),
        metric("serve.queue_wait_ms", queue_wait_ms, "ms"),
        metric("serve.batch_k", sp.batch_k, "count"),
        metric("serve.transport_ms", transport_ms, "ms"),
        metric("serve.unexplained_ms", lowrate_p50 - explained, "ms"),
        metric("precond.solve_ms", solve_ms, "ms"),
        metric("precond.block_ms", block_ms, "ms"),
        metric(
            "precond.block_gain",
            k as f64 * solve_ms / block_ms,
            "ratio",
        ),
        metric("precond.vcycle_ms", vcycle_ms, "ms"),
        metric("precond.assemble_s", assemble_s, "s"),
        metric("linalg.pcg_iters", iters, "count"),
        metric("linalg.spmv_ns_per_nnz", spmv_s * 1e9 / nnz, "ns"),
        metric("linalg.spmv_bytes_per_nnz", spmv_bytes / nnz, "bytes"),
        metric("linalg.pcg_rest_ms", pcg_rest_ms, "ms"),
        metric("core.hierarchy_s", hierarchy_s, "s"),
        metric("core.levels", levels, "count"),
        metric("core.coarse_n", coarse_n, "count"),
        metric("graph.read_s", read_s, "s"),
        metric("graph.laplacian_s", laplacian_s, "s"),
        metric("artifact.encode_s", encode_s, "s"),
        metric("artifact.store_s", store_s, "s"),
        metric("artifact.load_s", load_s, "s"),
        metric("artifact.decode_s", decode_s, "s"),
        metric("artifact.bytes", bytes.len() as f64, "bytes"),
        metric("rayon.solve_speedup", solve_one_ms / solve_ms, "ratio"),
        metric("rayon.setup_speedup", setup_one / setup_wide, "ratio"),
        metric("loadgen.late_p95_ms", sp.late_p95_ms, "ms"),
    ];
    for m in &metrics {
        let moves = ANNOTATIONS
            .iter()
            .find(|(name, _)| *name == m.name)
            .map_or("?", |(_, moves)| moves);
        println!(
            "layer {:<26} {:>14.6} {:<6} moves {moves}",
            m.name, m.value, m.unit
        );
    }
    Ok((metrics, tally))
}
