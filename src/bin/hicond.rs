//! `hicond` — command-line front end.
//!
//! ```text
//! hicond decompose <graph-file> [--k K] [--method fixed|planar|tree] [--validate PHI RHO]
//! hicond solve <graph-file> <rhs-file|--demo> [--tol T] [--cached]
//! hicond serve <graph-file> [--tol T]
//! hicond top [--check] [--trace ID]
//! hicond cache ls|verify|gc [--all]
//! hicond cluster <graph-file> --k K [--method eigen|walk]
//! hicond info <graph-file>
//! ```
//!
//! Graph files use the native edge-list format (`n m` header, `u v w`
//! lines) or METIS (detected by extension `.metis` / `.graph`). Every
//! graph-loading subcommand accepts `--weight-scale S` (default 1000):
//! METIS integer weights are divided by `S` on read and multiplied back on
//! write.
//!
//! `solve --cached` and `serve` persist the built preconditioner in the
//! artifact cache (`HICOND_CACHE_DIR`, default `.hicond-cache`) keyed by
//! graph content + build options, so repeat invocations skip the build.

use hicond::artifact::{Cache, GcReport};
use hicond::core::{
    decompose_fixed_degree, decompose_forest, decompose_planar, validate_phi_rho,
    FixedDegreeOptions, PlanarOptions,
};
use hicond::graph::{io, Graph};
use hicond::precond::{load_or_build, LaplacianSolver, SolverOptions, SolverSource};
use hicond::spectral::{
    spectral_clustering, walk_mixture_clustering, SpectralClusteringOptions, WalkClusteringOptions,
};
use std::fs::File;
use std::io::{BufRead, Write};
use std::process::ExitCode;

/// Default METIS weight scale: integer weights on disk are `w * 1000`.
const DEFAULT_WEIGHT_SCALE: f64 = 1000.0;

fn load_graph(path: &str, weight_scale: f64) -> Result<Graph, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if path.ends_with(".metis") || path.ends_with(".graph") {
        io::read_metis(f, weight_scale).map_err(|e| format!("metis parse error: {e}"))
    } else if path.ends_with(".dimacs") || path.ends_with(".col") {
        io::read_dimacs(f).map_err(|e| format!("dimacs parse error: {e}"))
    } else {
        io::read_edge_list(f).map_err(|e| format!("edge-list parse error: {e}"))
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--weight-scale S` (default 1000, must be positive and finite).
fn weight_scale(args: &[String]) -> Result<f64, String> {
    match arg_value(args, "--weight-scale") {
        None => Ok(DEFAULT_WEIGHT_SCALE),
        Some(s) => {
            let v: f64 = s.parse().map_err(|_| "bad --weight-scale".to_string())?;
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!(
                    "--weight-scale must be positive and finite, got {v}"
                ))
            }
        }
    }
}

fn parse_tol(args: &[String]) -> Result<f64, String> {
    arg_value(args, "--tol")
        .map(|s| s.parse().map_err(|_| "bad --tol".to_string()))
        .transpose()
        .map(|t| t.unwrap_or(1e-8))
}

fn cmd_info(path: &str, args: &[String]) -> Result<(), String> {
    let g = load_graph(path, weight_scale(args)?)?;
    let (_, comps) = hicond::graph::connectivity::connected_components(&g);
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for e in g.edges() {
        lo = lo.min(e.w);
        hi = hi.max(e.w);
    }
    println!("vertices:        {}", g.num_vertices());
    println!("edges:           {}", g.num_edges());
    println!("components:      {comps}");
    println!("max degree:      {}", g.max_degree());
    println!("total weight:    {:.6e}", g.total_weight());
    if g.num_edges() > 0 {
        println!("weight range:    [{lo:.3e}, {hi:.3e}]");
    }
    println!(
        "fingerprint:     {:016x}",
        hicond::graph::graph_fingerprint(&g)
    );
    Ok(())
}

fn cmd_decompose(path: &str, args: &[String]) -> Result<(), String> {
    let g = load_graph(path, weight_scale(args)?)?;
    let k: usize = arg_value(args, "--k")
        .map(|s| s.parse().map_err(|_| "bad --k".to_string()))
        .transpose()?
        .unwrap_or(8);
    let method = arg_value(args, "--method").unwrap_or_else(|| "fixed".into());
    let p = match method.as_str() {
        "fixed" => decompose_fixed_degree(
            &g,
            &FixedDegreeOptions {
                k,
                ..Default::default()
            },
        ),
        "planar" => decompose_planar(&g, &PlanarOptions::default()).partition,
        "tree" => decompose_forest(&g),
        other => return Err(format!("unknown method '{other}' (fixed|planar|tree)")),
    };
    let q = p.quality(&g, 18);
    println!("method:          {method}");
    println!("clusters:        {}", p.num_clusters());
    println!("reduction rho:   {:.3}", q.rho);
    println!(
        "min phi:         {:.5} ({})",
        q.phi,
        if q.phi_exact { "exact" } else { "lower bound" }
    );
    println!("min gamma:       {:.4}", q.gamma);
    println!("cut fraction:    {:.4}", q.cut_fraction);
    println!("max cluster:     {}", q.max_cluster_size);
    if let Some(phi_s) = arg_value(args, "--validate") {
        let phi: f64 = phi_s
            .parse()
            .map_err(|_| "bad --validate PHI".to_string())?;
        let rho: f64 = args
            .iter()
            .position(|a| a == "--validate")
            .and_then(|i| args.get(i + 2))
            .and_then(|s| s.parse().ok())
            .ok_or("missing RHO after --validate PHI")?;
        let cert = validate_phi_rho(&g, &p, phi, rho, 18);
        println!(
            "validation:      {}",
            if cert.certified() {
                "CERTIFIED"
            } else if cert.plausible() {
                "plausible (some clusters too large for exact check)"
            } else {
                "FAILED"
            }
        );
        for v in cert.violations.iter().take(10) {
            println!("  violation in cluster {}: {:?}", v.cluster, v.kind);
        }
    }
    Ok(())
}

/// Builds the solver directly, or through the artifact cache with
/// `--cached` (build once, load on every later run).
fn obtain_solver(g: &Graph, opts: &SolverOptions, cached: bool) -> Result<LaplacianSolver, String> {
    if !cached {
        return Ok(LaplacianSolver::new(g, opts));
    }
    let cache = Cache::from_env();
    let (solver, source) = load_or_build(&cache, g, opts).map_err(|e| format!("cache: {e}"))?;
    eprintln!(
        "preconditioner {} (cache dir {})",
        match source {
            SolverSource::Loaded => "loaded from cache",
            SolverSource::Built => "built and cached",
        },
        cache.dir().display()
    );
    Ok(solver)
}

fn cmd_solve(path: &str, args: &[String]) -> Result<(), String> {
    let g = load_graph(path, weight_scale(args)?)?;
    let n = g.num_vertices();
    let tol = parse_tol(args)?;
    let b: Vec<f64> = if args.iter().any(|a| a == "--demo") {
        // Unit dipole between the first and last vertex.
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        b
    } else {
        let rhs_path = args
            .iter()
            .find(|a| !a.starts_with("--") && a.as_str() != path)
            .ok_or("need an rhs file or --demo")?;
        let text =
            std::fs::read_to_string(rhs_path).map_err(|e| format!("cannot read rhs: {e}"))?;
        let vals: Result<Vec<f64>, _> = text.split_whitespace().map(|t| t.parse()).collect();
        vals.map_err(|e| format!("bad rhs value: {e}"))?
    };
    let opts = SolverOptions {
        rel_tol: tol,
        ..Default::default()
    };
    let solver = obtain_solver(&g, &opts, args.iter().any(|a| a == "--cached"))?;
    println!("hierarchy levels: {}", solver.num_levels());
    match solver.solve(&b) {
        Ok(sol) => {
            println!(
                "converged in {} iterations (relative residual {:.2e})",
                sol.iterations, sol.rel_residual
            );
            let mut preview = String::new();
            for (i, x) in sol.x.iter().take(8).enumerate() {
                preview.push_str(&format!("x[{i}] = {x:.6e}  "));
            }
            println!("{preview}...");
            Ok(())
        }
        Err(e) => Err(format!("solve failed: {e}")),
    }
}

/// `hicond serve <graph>`: build-or-load the preconditioner once, then
/// answer solves over a line protocol — on stdin/stdout by default, or
/// as a concurrent TCP service with `--listen ADDR`.
///
/// Protocol (one request per line, see [`hicond::serve`]):
/// - `n` whitespace-separated f64 values — a right-hand side; the reply is
///   `ok <iterations> <rel_residual> <x_0> ... <x_{n-1}>` on one line, or
///   `ERR <code>: <detail>` — the session stays alive after an error.
/// - `stats` — session counters, solve-latency quantiles, and live
///   queue/batch gauges on one line.
/// - `metrics` — one line of delta-snapshot JSON (registry + flight
///   events since the last scrape); pipe to `hicond top` to render.
/// - `quit` — exit cleanly. EOF also ends the session.
///
/// `--listen ADDR` (e.g. `127.0.0.1:0`) accepts concurrent clients,
/// one thread each, and coalesces their pending right-hand sides into
/// block solves (`HICOND_SERVE_BATCH` / `HICOND_SERVE_BATCH_WINDOW_MS`
/// / `HICOND_SERVE_MAX_INFLIGHT`); the resolved address is printed as
/// `listening <addr>` on stdout. `--conns N` exits after `N`
/// connections have been served (CI smoke); without it the server runs
/// until killed. Both transports enforce the request-line byte limit;
/// TCP connections additionally get an idle read timeout.
fn cmd_serve(path: &str, args: &[String]) -> Result<(), String> {
    let g = load_graph(path, weight_scale(args)?)?;
    let tol = parse_tol(args)?;
    let opts = SolverOptions {
        rel_tol: tol,
        ..Default::default()
    };
    let solver = obtain_solver(&g, &opts, true)?;
    let n = g.num_vertices();
    eprintln!(
        "serving {n} vertices, {} hierarchy levels; send {n} rhs values per line, 'quit' to exit",
        solver.num_levels()
    );
    if let Some(addr) = arg_value(args, "--listen") {
        return serve_listen(&addr, solver, n, args);
    }
    let cfg = hicond::serve::ServeConfig {
        n,
        max_line: hicond::serve::max_line_bytes(n),
        // stdin has no read deadline; only the TCP front end sets one.
        read_timeout: std::time::Duration::ZERO,
    };
    let stats = hicond::serve::ServeStats::new();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let end = hicond::serve::serve_session(
        &mut stdin.lock(),
        &mut stdout.lock(),
        &cfg,
        &stats,
        |line| hicond::serve::respond(&solver, n, line, &stats),
    );
    if let Some(e) = end.error {
        return Err(format!("serve session: {e}"));
    }
    eprintln!("served {} requests", end.replies);
    Ok(())
}

/// The `--listen` arm of `cmd_serve`: TCP front end over the shared
/// batch queue.
fn serve_listen(
    addr: &str,
    solver: hicond::precond::LaplacianSolver,
    n: usize,
    args: &[String],
) -> Result<(), String> {
    let max_conns: Option<u64> = match arg_value(args, "--conns") {
        Some(s) => Some(s.parse().map_err(|_| "bad --conns count".to_string())?),
        None => None,
    };
    let batch_cfg = hicond::serve::BatchConfig::from_env()?;
    let (listener, local) = hicond::serve::server::bind(addr)?;
    // The resolved address goes to *stdout* so scripts binding port 0
    // can read it back; diagnostics stay on stderr.
    println!("listening {local}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "batching up to {} rhs per block solve, {:?} window, {} inflight cap",
        batch_cfg.max_batch, batch_cfg.window, batch_cfg.max_inflight
    );
    let solver = std::sync::Arc::new(solver);
    let stats = std::sync::Arc::new(hicond::serve::ServeStats::new());
    let queue = hicond::serve::BatchQueue::new(batch_cfg);
    let dispatcher = queue.start(
        std::sync::Arc::clone(&solver),
        std::sync::Arc::clone(&stats),
    );
    let cfg = hicond::serve::ServeConfig {
        n,
        max_line: hicond::serve::max_line_bytes(n),
        read_timeout: std::time::Duration::from_secs(30),
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    let summary =
        hicond::serve::serve_tcp(listener, &queue, dispatcher, &stats, &cfg, max_conns, &stop)?;
    eprintln!(
        "served {} connections, {} replies; drained {} queued request(s) at shutdown",
        summary.connections, summary.replies, summary.drain.queued_at_shutdown
    );
    Ok(())
}

/// `hicond client <addr>`: minimal protocol client for scripts and CI —
/// forwards stdin lines to a `hicond serve --listen` endpoint and
/// prints each reply line to stdout. Exits on stdin EOF (after a final
/// `quit`) or when the server closes the connection.
fn cmd_client(addr: &str) -> Result<(), String> {
    use std::io::BufRead;
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    let mut reader = std::io::BufReader::new(stream);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    // Lock order stdin → stdout, same as the serve loop: the workspace
    // lock-order graph must stay acyclic.
    let input = stdin.lock();
    let mut out = stdout.lock();
    for line in input.lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let quitting = line.trim() == "quit";
        // One write per line: a separate newline write would sit behind
        // the server's delayed ACK (tens of ms per request on loopback).
        hicond::serve::write_reply(&mut writer, &line).map_err(|e| format!("send: {e}"))?;
        if quitting {
            break;
        }
        if line.trim().is_empty() {
            continue; // the server ignores blank lines: no reply to wait for
        }
        let mut reply = String::new();
        let got = reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if got == 0 {
            break; // server closed (timeout or shutdown)
        }
        out.write_all(reply.as_bytes())
            .and_then(|_| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let cache = Cache::from_env();
    let action = args.first().map(|s| s.as_str()).unwrap_or("ls");
    match action {
        "ls" => {
            let entries = cache.entries().map_err(|e| e.to_string())?;
            println!("cache dir: {}", cache.dir().display());
            if entries.is_empty() {
                println!("(empty)");
                return Ok(());
            }
            let mut total = 0u64;
            for e in &entries {
                println!(
                    "  {:<14} {:016x}  {:>12} bytes  {}",
                    hicond::artifact::kinds::name(e.kind),
                    e.key,
                    e.bytes,
                    e.path.display()
                );
                total += e.bytes;
            }
            println!("{} entries, {total} bytes", entries.len());
            Ok(())
        }
        "verify" => {
            let report = cache.verify().map_err(|e| e.to_string())?;
            println!("ok: {}", report.ok);
            for (path, err) in &report.bad {
                println!("BAD {}: {err}", path.display());
            }
            if report.bad.is_empty() {
                Ok(())
            } else {
                Err(format!("{} corrupt entries", report.bad.len()))
            }
        }
        "gc" => {
            let all = args.iter().any(|a| a == "--all");
            let GcReport {
                removed,
                bytes,
                tmp_removed,
                corrupt_removed,
            } = cache.gc(all).map_err(|e| e.to_string())?;
            println!(
                "removed {removed} entries ({corrupt_removed} corrupt), {tmp_removed} tmp files, {bytes} bytes"
            );
            Ok(())
        }
        other => Err(format!("unknown cache action '{other}' (ls|verify|gc)")),
    }
}

fn cmd_cluster(path: &str, args: &[String]) -> Result<(), String> {
    let g = load_graph(path, weight_scale(args)?)?;
    let k: usize = arg_value(args, "--k")
        .map(|s| s.parse().map_err(|_| "bad --k".to_string()))
        .transpose()?
        .ok_or("cluster needs --k K")?;
    let method = arg_value(args, "--method").unwrap_or_else(|| "walk".into());
    let p = match method.as_str() {
        "eigen" => spectral_clustering(
            &g,
            &SpectralClusteringOptions {
                k,
                ..Default::default()
            },
        ),
        "walk" => walk_mixture_clustering(
            &g,
            &WalkClusteringOptions {
                k,
                ..Default::default()
            },
        ),
        other => return Err(format!("unknown method '{other}' (eigen|walk)")),
    };
    let q = p.quality(&g, 18);
    println!(
        "clusters: {} (cut fraction {:.4}, gamma {:.4})",
        p.num_clusters(),
        q.cut_fraction,
        q.gamma
    );
    for (i, c) in p.clusters().iter().enumerate().take(20) {
        let head: Vec<usize> = c.iter().copied().take(12).collect();
        println!(
            "  cluster {i} ({} vertices): {head:?}{}",
            c.len(),
            if c.len() > 12 { " ..." } else { "" }
        );
    }
    Ok(())
}

/// `hicond top`: live telemetry viewer. Reads a serve session's output
/// from stdin, ignores `ok`/`ERR` reply lines, and renders every
/// `metrics`-verb JSON line (a delta scrape) as a compact dashboard:
/// counter deltas, span activity, anomalies, and per-trace span trees
/// reassembled from the flight events. `--check` parses silently and
/// fails on malformed scrapes (the CI telemetry smoke step); `--trace ID`
/// restricts the event tree to one request.
///
/// Composes with any transport the serve loop is wired to:
/// `printf '…\nmetrics\nquit\n' | hicond serve g.txt | hicond top`.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let check = args.iter().any(|a| a == "--check");
    let trace_filter: Option<u64> = match arg_value(args, "--trace") {
        Some(s) => Some(s.parse().map_err(|_| "bad --trace id".to_string())?),
        None => None,
    };
    let stdin = std::io::stdin();
    let mut scrapes = 0u64;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let t = line.trim();
        if !t.starts_with('{') {
            continue; // solve replies and banners pass through silently
        }
        let v = hicond::obs::json::parse(t).map_err(|e| format!("bad metrics JSON: {e}"))?;
        if let Some(dump) = v.get("flight_recorder") {
            // A panic-hook black-box dump (piped from a crashed process's
            // stderr): validate its shape, render its events.
            let events = dump
                .get("events")
                .and_then(hicond::obs::json::Value::as_array)
                .ok_or("flight_recorder dump lacks events")?;
            scrapes += 1;
            if !check {
                println!(
                    "── flight-recorder panic dump: {} event(s) ──",
                    events.len()
                );
                render_scrape(&v, scrapes, trace_filter);
            }
            continue;
        }
        v.get("delta")
            .and_then(|d| d.get("counters"))
            .ok_or("metrics line lacks delta.counters")?;
        scrapes += 1;
        if !check {
            render_scrape(&v, scrapes, trace_filter);
        }
    }
    if check {
        if scrapes == 0 {
            return Err("no metrics scrape lines seen on stdin".into());
        }
        println!("ok: {scrapes} metrics scrape(s) parsed");
    }
    Ok(())
}

/// Renders one parsed `metrics` scrape for `hicond top`.
fn render_scrape(v: &hicond::obs::json::Value, n: u64, trace_filter: Option<u64>) {
    use hicond::obs::json::Value;
    println!("── scrape {n} ──");
    if let Some(counters) = v
        .get("delta")
        .and_then(|d| d.get("counters"))
        .and_then(Value::as_object)
    {
        for (name, val) in counters {
            let mark = if name.starts_with("anomaly/") {
                "  !! "
            } else {
                "    "
            };
            println!("{mark}{name:<32} +{}", val.as_f64().unwrap_or(0.0));
        }
    }
    if let Some(spans) = v
        .get("delta")
        .and_then(|d| d.get("spans"))
        .and_then(Value::as_object)
    {
        for (name, t) in spans {
            let count = t.get("count").and_then(Value::as_f64).unwrap_or(0.0);
            let total = t.get("total_ns").and_then(Value::as_f64).unwrap_or(0.0);
            println!("    span {name:<27} x{count} {:.3}ms", total / 1e6);
        }
    }
    let events = v
        .get("flight")
        .or_else(|| v.get("flight_recorder"))
        .and_then(|f| f.get("events"))
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    if events.is_empty() {
        return;
    }
    println!("    flight events: {}", events.len());
    // Reassemble span trees: per (trace, thread) nesting depth, indent by
    // enter/exit pairing in sequence order (events arrive seq-sorted).
    let mut depth: std::collections::BTreeMap<(u64, u64), usize> =
        std::collections::BTreeMap::new();
    for e in events {
        let trace = e.get("trace").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(want) = trace_filter {
            if trace != want {
                continue;
            }
        }
        let thread = e.get("thread").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let kind = e.get("kind").and_then(Value::as_str).unwrap_or("?");
        let name = e.get("name").and_then(Value::as_str).unwrap_or("?");
        let d = depth.entry((trace, thread)).or_insert(0);
        match kind {
            "span_enter" => {
                println!(
                    "    [t{trace}/th{thread}] {:indent$}▶ {name}",
                    "",
                    indent = *d * 2
                );
                *d += 1;
            }
            "span_exit" => {
                *d = d.saturating_sub(1);
                let ns = e.get("dur_ns").and_then(Value::as_f64).unwrap_or(0.0);
                println!(
                    "    [t{trace}/th{thread}] {:indent$}◀ {name} {:.3}ms",
                    "",
                    ns / 1e6,
                    indent = *d * 2
                );
            }
            "anomaly" => {
                let iter = e.get("iter").and_then(Value::as_f64).unwrap_or(0.0);
                println!("    [t{trace}/th{thread}] !! {name} at iter {iter}");
            }
            _ => {
                println!(
                    "    [t{trace}/th{thread}] {:indent$}· {kind} {name}",
                    "",
                    indent = *d * 2
                );
            }
        }
    }
}

/// Hidden selftest: records a few flight events, then panics, so CI can
/// assert the panic hook dumps a parseable flight record to stderr.
fn cmd_flight_panic() -> Result<(), String> {
    hicond::obs::set_mode(hicond::obs::Mode::Json);
    let _span = hicond::obs::span("flight_panic_selftest");
    hicond::obs::counter_add("selftest/flight_panic", 1);
    panic!("flight-panic selftest: intentional panic to exercise the flight-recorder dump");
}

fn usage() -> &'static str {
    "usage:\n  hicond info <graph>\n  hicond decompose <graph> [--k K] [--method fixed|planar|tree] [--validate PHI RHO]\n  hicond solve <graph> <rhs|--demo> [--tol T] [--cached]\n  hicond serve <graph> [--tol T] [--listen ADDR [--conns N]]\n  hicond client <addr>                (stdin lines -> a --listen server, replies -> stdout)\n  hicond top [--check] [--trace ID]   (reads a serve session's output on stdin)\n  hicond cache ls|verify|gc [--all]\n  hicond cluster <graph> --k K [--method eigen|walk]\n\nserve --listen batches concurrent clients into block solves; tune with\nHICOND_SERVE_BATCH, HICOND_SERVE_BATCH_WINDOW_MS, HICOND_SERVE_MAX_INFLIGHT\nall graph-loading commands accept --weight-scale S (default 1000, METIS weight divisor)\ngraph files: native edge list ('n m' header + 'u v w' lines) or METIS (.metis/.graph)\ncache dir: $HICOND_CACHE_DIR (default .hicond-cache)"
}

fn main() -> ExitCode {
    // Fail fast on garbled scheduler env (HICOND_THREADS / HICOND_SCHED_JITTER)
    // with an orderly diagnostic instead of a panic mid-solve: a set-but-
    // invalid variable is an operator error, never a silent fallback.
    if let Err(e) = rayon::pool::validate_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    // Every crash ships its own black box: the hook dumps the last flight
    // events as one JSON line on stderr (no-op when nothing was recorded).
    hicond::obs::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match (args.first().map(|s| s.as_str()), args.get(1)) {
        (Some("info"), Some(path)) => cmd_info(path, &args[2..]),
        (Some("decompose"), Some(path)) => cmd_decompose(path, &args[2..]),
        (Some("solve"), Some(path)) => cmd_solve(path, &args[2..]),
        (Some("serve"), Some(path)) => cmd_serve(path, &args[2..]),
        (Some("client"), Some(addr)) => cmd_client(addr),
        (Some("top"), _) => cmd_top(&args[1..]),
        (Some("cache"), _) => cmd_cache(&args[1..]),
        (Some("cluster"), Some(path)) => cmd_cluster(path, &args[2..]),
        // Hidden: exercises the panic-hook flight dump for CI.
        (Some("flight-panic"), _) => cmd_flight_panic(),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    // With HICOND_OBS=text|json the accumulated metrics snapshot (phase
    // tree, solver counters, histograms) lands on stderr; off is silent.
    hicond::obs::report();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
