//! hicond benchmark: end-to-end numbers a client sees (`--trace 0`) and
//! a separate traced run that times each layer's public functions
//! (`--trace 1`). See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --hicond <path to hicond binary> --work-dir <dir> [--smoke]
//! perfbench self-test-verify
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod host;
mod inputs;
mod layers;
mod load;
mod server;
mod stats;
mod verify;

use hicond::graph::{io, Graph};
use hicond::precond::{LaplacianSolver, SolverOptions};
use inputs::Workload;
use load::{Conn, Requests, Tally};
use server::Server;
use stats::{median, quantile, timed};
use std::cell::{Cell, OnceCell};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::Verifier;

/// A run is `SEGMENTS` equal segments with a fresh setup between any
/// two. `p50_ms`, `p95_ms` and `solves_per_s` are each the median of the
/// segments' own readings, so a burst of host steal that spoils a few
/// segments does not move them, while a slower program slows every
/// segment. Each segment's readings, the hypervisor's steal during it
/// and the whole-run pooled figures are printed as diagnostics.
const SEGMENTS: usize = 10;
/// Fresh setups before the first segment. With one setup per segment
/// and one after the last, `setup_s` is the median of 13.
const SETUPS_BEFORE: usize = 2;
/// Distinct right-hand sides per run, sent round-robin.
const RHS_POOL: usize = 8;
/// Untimed requests per connection before the measured phases.
const WARMUP_PER_CONN: usize = 3;
/// Seconds a spinner outlives the run's nominal length at most, should
/// it not be stopped.
const SPIN_MARGIN_S: f64 = 60.0;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub hicond: PathBuf,
    pub work: PathBuf,
    pub smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = inputs::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
        hicond: PathBuf::from(get("--hicond")?),
        work: PathBuf::from(get("--work-dir")?),
        smoke: raw.iter().any(|a| a == "--smoke"),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run needs that is made from the workload and the seed.
pub struct Ctx {
    pub args: Args,
    pub nproc: usize,
    pub g: Graph,
    pub verifier: Verifier,
    pub rhs: Vec<Vec<f64>>,
    pub lines: Vec<String>,
    graph_file: OnceCell<PathBuf>,
    /// Server starts so far; names each cold start's cache directory.
    starts: Cell<usize>,
}

impl Ctx {
    fn new(args: Args) -> Ctx {
        let g = args.workload.graph.build(args.smoke);
        let rhs = inputs::rhs_pool(g.num_vertices(), args.seed, RHS_POOL);
        // An in-process run sends no request lines; making them would
        // only add to its peak_rss_mb.
        let lines = if args.workload.in_process && !args.trace {
            Vec::new()
        } else {
            rhs.iter().map(|b| inputs::request_line(b)).collect()
        };
        Ctx {
            nproc: host::nproc(),
            verifier: Verifier::new(&g),
            lines,
            rhs,
            g,
            args,
            graph_file: OnceCell::new(),
            starts: Cell::new(0),
        }
    }

    pub fn requests(&self) -> Requests<'_> {
        Requests {
            lines: &self.lines,
            rhs: &self.rhs,
            verifier: &self.verifier,
        }
    }

    pub fn conns(&self) -> usize {
        self.args.workload.serve.conns.unwrap_or(self.nproc)
    }

    pub fn batch(&self) -> usize {
        self.args.workload.serve.batch.unwrap_or(self.nproc)
    }

    /// The graph in the native edge-list format, written on first use;
    /// the server and the traced reader load it from there.
    pub fn graph_file(&self) -> Result<&Path, String> {
        if self.graph_file.get().is_none() {
            let path = self.args.work.join("graph.txt");
            let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            io::write_edge_list(&self.g, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
            let _ = self.graph_file.set(path);
        }
        Ok(self.graph_file.get().expect("set above"))
    }

    /// Starts one server and returns it with its setup time. Warm-cache
    /// workloads share one cache directory, populated by an untimed
    /// first start; cold ones give every start a new, empty directory.
    pub fn start_server(&self) -> Result<(Server, f64), String> {
        let warm = self.args.workload.serve.warm_cache;
        let n = self.starts.get();
        self.starts.set(n + 1);
        if warm && n == 0 {
            // One untimed start builds and stores the artifact.
            drop(self.start_server()?);
        }
        let env = [
            ("HICOND_THREADS", self.nproc.to_string()),
            ("HICOND_OBS", "off".to_string()),
            ("HICOND_SERVE_BATCH", self.batch().to_string()),
            (
                "HICOND_SERVE_BATCH_WINDOW_MS",
                inputs::BATCH_WINDOW_MS.to_string(),
            ),
        ];
        let dir = if warm {
            self.args.work.join("cache-warm")
        } else {
            self.args.work.join(format!("cache-cold-{n}"))
        };
        let log = self.args.work.join("server.log");
        Server::start(
            &self.args.hicond,
            self.graph_file()?,
            &dir,
            !warm,
            &env,
            &log,
        )
    }

    pub fn connect(&self, server: &Server) -> Result<Vec<Conn>, String> {
        (0..self.conns())
            .map(|_| Conn::connect(&server.addr))
            .collect()
    }
}

/// What each segment measured.
#[derive(Default)]
struct Segments {
    /// Latency samples, in milliseconds.
    latency_ms: Vec<Vec<f64>>,
    /// Verified closed-loop (or in-process) solves and the seconds they
    /// took.
    solves: Vec<(u64, f64)>,
    /// Share of CPU time stolen by the hypervisor.
    steal: Vec<f64>,
}

impl Segments {
    /// Books one segment that started at `ticks` (from `host::cpu_ticks`).
    fn push(&mut self, ticks: (u64, u64), latency_ms: Vec<f64>, solves: u64, secs: f64) {
        self.steal.push(host::steal_since(ticks));
        self.latency_ms.push(latency_ms);
        self.solves.push((solves, secs));
    }

    /// Prints what each segment measured, then returns `setup_s` and the
    /// load metrics, each the median over segments.
    fn report(&self, setups: &[f64]) -> Vec<Metric> {
        let ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        println!("setup_ms: {}", ms.join(" "));
        let (mut p50, mut p95, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        for (j, lat) in self.latency_ms.iter().enumerate() {
            let (n, secs) = self.solves[j];
            p50.push(median(lat));
            p95.push(quantile(lat, 0.95));
            rate.push(n as f64 / secs);
            println!(
                "segment {j}: steal {:.3} samples {} p50_ms {:.2} p95_ms {:.2} solves_per_s {:.2}",
                self.steal[j],
                lat.len(),
                p50[j],
                p95[j],
                rate[j]
            );
        }
        let all: Vec<f64> = self.latency_ms.concat();
        let (n, secs) = self
            .solves
            .iter()
            .fold((0, 0.0), |(n, t), &(k, s)| (n + k, t + s));
        println!(
            "whole run pooled: {} samples ({} beyond p95), p50_ms {:.3} p95_ms {:.3} solves_per_s {:.3}",
            all.len(),
            all.len() / 20,
            median(&all),
            quantile(&all, 0.95),
            n as f64 / secs
        );
        vec![
            metric("setup_s", median(setups), "s"),
            metric("p50_ms", median(&p50), "ms"),
            metric("p95_ms", median(&p95), "ms"),
            metric("solves_per_s", median(&rate), "1/s"),
        ]
    }
}

/// Prints one phase's request counts.
pub fn print_phase(name: &str, t: &Tally) {
    println!(
        "phase {name}: sent={} succeeded={} failed={} wrong={}",
        t.sent, t.ok, t.failed, t.wrong
    );
}

fn ok_share(t: &Tally) -> f64 {
    t.ok as f64 / t.sent.max(1) as f64
}

/// End-to-end run over TCP. Each segment is an open-loop stretch at the
/// workload's rate followed by a closed-loop stretch; setups run
/// between segments while the measured server idles.
fn serve_e2e(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let spec = ctx.args.workload.serve;
    // An open loop leaves the CPUs idle between requests; see README.md,
    // "CPUs are kept from idling".
    let _spinners = host::Spinners::start(ctx.nproc, ctx.args.seconds + SPIN_MARGIN_S)?;
    let restart = || ctx.start_server().map(|(_, secs)| secs);
    let mut setups = (0..SETUPS_BEFORE)
        .map(|_| restart())
        .collect::<Result<Vec<_>, _>>()?;
    let (server, secs) = ctx.start_server()?;
    setups.push(secs);
    let mut conns = ctx.connect(&server)?;
    let req = ctx.requests();
    let mut tally = load::warm_up(&mut conns, &req, WARMUP_PER_CONN);
    print_phase("warmup", &tally);
    let segment_secs = ctx.args.seconds / SEGMENTS as f64;
    let per_segment = (segment_secs * spec.open_share * spec.open_rate)
        .round()
        .max(1.0) as usize;
    let due = inputs::schedule(ctx.args.seed, spec.open_rate, per_segment * SEGMENTS);
    let closed_secs = segment_secs * (1.0 - spec.open_share);
    let mut segments = Segments::default();
    let mut late_ms = Vec::new();
    for (j, slots) in due.chunks(per_segment).enumerate() {
        let ticks = host::cpu_ticks();
        let offset = (j * per_segment) as f64 / spec.open_rate;
        let slots: Vec<f64> = slots.iter().map(|d| d - offset).collect();
        let open = load::open_loop(&mut conns, &req, &slots);
        let closed = load::closed_loop(&mut conns, &req, Duration::from_secs_f64(closed_secs));
        segments.push(ticks, open.latency_ms, closed.tally.ok, closed.secs);
        late_ms.extend(open.late_ms);
        print_phase(&format!("open-{j}"), &open.tally);
        print_phase(&format!("closed-{j}"), &closed.tally);
        tally.add(open.tally);
        tally.add(closed.tally);
        setups.push(restart()?);
    }
    let rss = server.peak_rss_mb()?;
    drop(conns);
    drop(server);
    println!(
        "open loop: {} req/s offered, loadgen.late_p95_ms={:.3}",
        spec.open_rate,
        quantile(&late_ms, 0.95)
    );
    let mut metrics = segments.report(&setups);
    metrics.push(metric("peak_rss_mb", rss, "MiB"));
    metrics.push(metric("ok_share", ok_share(&tally), "share"));
    Ok((metrics, tally))
}

/// Solves `b` in process and verifies the answer; returns the call's
/// duration in seconds when it verified.
pub fn solve_checked(ctx: &Ctx, solver: &LaplacianSolver, b: &[f64], t: &mut Tally) -> Option<f64> {
    let (res, secs) = timed(|| solver.solve(b));
    let outcome = match res {
        Ok(sol) => ctx.verifier.check(b, &sol.x),
        Err(e) => Err(verify::Failure::Refused(e.to_string())),
    };
    t.record(&outcome);
    outcome.ok().map(|_| secs)
}

/// End-to-end run in process: one caller, sequential `solve` calls.
/// Every segment gets a fresh solver, built after the last one was
/// dropped, so `peak_rss_mb` holds one solver. A segment's throughput
/// counts only time inside `solve`, so verification is not charged to
/// the solver.
fn in_process_e2e(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let opts = SolverOptions::default();
    let build = || timed(|| LaplacianSolver::new(&ctx.g, &opts));
    let mut setups: Vec<f64> = (0..SETUPS_BEFORE).map(|_| build().1).collect();
    let mut tally = Tally::default();
    let mut segments = Segments::default();
    let mut i = 0;
    for j in 0..SEGMENTS {
        let (solver, secs) = build();
        setups.push(secs);
        // One untimed solve on each fresh solver.
        let mut warm = Tally::default();
        solve_checked(ctx, &solver, &ctx.rhs[j % ctx.rhs.len()], &mut warm);
        print_phase(&format!("warmup-{j}"), &warm);
        tally.add(warm);
        let mut run = Tally::default();
        let mut ms = Vec::new();
        let ticks = host::cpu_ticks();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < ctx.args.seconds / SEGMENTS as f64 {
            let b = &ctx.rhs[i % ctx.rhs.len()];
            ms.extend(solve_checked(ctx, &solver, b, &mut run).map(|s| s * 1e3));
            i += 1;
        }
        let busy = ms.iter().sum::<f64>() / 1e3;
        segments.push(ticks, ms, run.ok, busy);
        print_phase(&format!("sequential-{j}"), &run);
        tally.add(run);
    }
    setups.push(build().1);
    let rss = server::peak_rss_mb(std::process::id())?;
    let mut metrics = segments.report(&setups);
    metrics.push(metric("peak_rss_mb", rss, "MiB"));
    metrics.push(metric("ok_share", ok_share(&tally), "share"));
    Ok((metrics, tally))
}

fn result_json(metrics: &[Metric], t: &Tally) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        body.push(format!(
            "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.wrong == 0 && t.ok > 0,
        t.sent,
        t.failed,
        body.join(", ")
    ))
}

fn run(args: Args) -> Result<String, String> {
    // A directory of the run's own: stale files must not leak in.
    if std::fs::read_dir(&args.work).is_ok_and(|mut d| d.next().is_some()) {
        return Err(format!(
            "work directory {} is not empty",
            args.work.display()
        ));
    }
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let ctx = Ctx::new(args);
    let w = ctx.args.workload;
    println!("host {}", host::fingerprint(Path::new("."), ctx.nproc));
    println!(
        "workload {}: n={} edges={} seed={} seconds={} trace={} HICOND_THREADS={} connections={} HICOND_SERVE_BATCH={} window_ms={} in_process={}",
        w.name,
        ctx.g.num_vertices(),
        ctx.g.num_edges(),
        ctx.args.seed,
        ctx.args.seconds,
        u8::from(ctx.args.trace),
        ctx.nproc,
        ctx.conns(),
        ctx.batch(),
        inputs::BATCH_WINDOW_MS,
        w.in_process,
    );
    let ticks = host::cpu_ticks();
    let (metrics, tally) = if ctx.args.trace {
        layers::run(&ctx)?
    } else if w.in_process {
        in_process_e2e(&ctx)?
    } else {
        serve_e2e(&ctx)?
    };
    println!(
        "host steal during run: {:.1}%",
        100.0 * host::steal_since(ticks)
    );
    result_json(&metrics, &tally)
}

/// Checks that a reply with one corrupted `x` value is counted as a
/// failed request by the same accounting the load phases use.
fn self_test_verify() -> Result<(), String> {
    let g = hicond::graph::generators::grid2d(10, 10, |_, _| 1.0);
    let v = Verifier::new(&g);
    let b = inputs::rhs_pool(g.num_vertices(), 3, 1).remove(0);
    let sol = LaplacianSolver::new(&g, &SolverOptions::default())
        .solve(&b)
        .map_err(|e| e.to_string())?;
    let reply = |x: &[f64]| {
        let vals: Vec<String> = x.iter().map(|v| format!("{v:.17e}")).collect();
        format!(
            "ok {} {:.3e} {}",
            sol.iterations,
            sol.rel_residual,
            vals.join(" ")
        )
    };
    let mut t = Tally::default();
    t.record(&v.check_reply(&b, &reply(&sol.x)));
    let mut bad = sol.x.clone();
    bad[42] += 1e-3 * (1.0 + bad[42].abs());
    t.record(&v.check_reply(&b, &reply(&bad)));
    t.record(&v.check_reply(&b, "ERR solve-failed: test"));
    println!(
        "self-test verify: sent={} succeeded={} failed={} wrong={}",
        t.sent, t.ok, t.failed, t.wrong
    );
    if (t.sent, t.ok, t.failed, t.wrong) == (3, 1, 2, 1) {
        Ok(())
    } else {
        Err("a corrupted reply was not counted as failed".into())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The pool width and telemetry mode are pinned before any pool use:
    // the in-process solver reads them once.
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("HICOND_")) {
        std::env::remove_var(k);
    }
    std::env::set_var("HICOND_THREADS", host::nproc().to_string());
    std::env::set_var("HICOND_OBS", "off");
    let result = if raw.first().map(String::as_str) == Some("self-test-verify") {
        self_test_verify().map(|()| "self-test verify passed".to_string())
    } else {
        parse_args(&raw).and_then(run)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
