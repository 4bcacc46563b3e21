//! The `hicond serve` request protocol: one request per line, one reply
//! per line, structured errors, bounded allocation.
//!
//! A serve session reads lines from an untrusted peer, so this module is
//! a declared entry point of the `xtask reach` panic-reachability pass
//! (see `REACHABILITY.md`): nothing here may panic or allocate
//! proportionally to anything but the solver dimension, no matter what
//! bytes arrive.
//!
//! ## Protocol
//!
//! - request: `n` whitespace-separated `f64` right-hand-side values,
//!   where `n` is the vertex count announced at startup
//! - success reply: `ok <iterations> <rel_residual> <x_0> … <x_{n-1}>`,
//!   every `x_i` in Rust's shortest round-trip exponent form (`{:e}`,
//!   e.g. `-3.333333333333333e-1`), so parsing it back as `f64` recovers
//!   the server's value bit for bit
//! - error reply: `ERR <code>: <detail>` — the session **stays alive**
//!   (except after `timeout`); codes are `bad-value` (unparseable or
//!   non-finite number), `bad-length` (wrong number of values, or a
//!   request line over the byte limit), `solve-failed` (the solver did
//!   not converge), `busy` (admission control shed the request — retry
//!   later), and `timeout` (the connection idled past the read deadline
//!   and is being closed)
//! - `stats` replies with the session's request counters, solve-latency
//!   quantiles (`ok stats requests=… errors=… p50_us=… p95_us=… p99_us=…
//!   cache_hits=… cache_misses=… queue_depth=… inflight=… batch_p50=…
//!   batch_p95=… lanes=…`) linearly interpolated inside the log₂
//!   latency buckets, plus the process's artifact-cache hit/miss counts,
//!   the batch queue's live gauges and its solve-lane count; the session
//!   keeps going
//! - `metrics` replies one line of JSON — a *delta* snapshot of the obs
//!   registry since the previous `metrics` call this session, plus the
//!   flight-recorder events recorded since then — consumed by
//!   `hicond top` and the CI telemetry smoke test; the line always starts
//!   with `{` so scrapers can tell it from `ok`/`ERR` replies
//! - `quit` or EOF ends the session; empty lines are ignored
//!
//! Every solve request runs under a fresh u64 trace id (flight-recorder
//! `req_open`/`req_close` events bracket it), which the pool forwards to
//! worker threads, so one request's full span tree is reassemblable from
//! a `metrics` scrape. Malformed requests bump the `serve/bad_request`
//! obs counter so a fleet operator can see a misbehaving client without
//! scraping replies. A convergence watchdog inside PCG plus a serve-level
//! preconditioner-staleness rule raise `anomaly/*` events (see
//! `hicond_obs::watchdog`).
//!
//! ## Module layout
//!
//! - this module: the protocol itself — [`respond`] (direct, one solve
//!   per request; the stdin transport) and [`respond_batched`] (routes
//!   solve requests through a shared [`batch::BatchQueue`] so concurrent
//!   clients coalesce into one block solve; the TCP transport)
//! - [`batch`]: the coalescing queue + one solve lane per pool thread (size trigger
//!   `HICOND_SERVE_BATCH`, a wait for requests still being parsed capped
//!   by `HICOND_SERVE_BATCH_WINDOW_MS`, admission cap
//!   `HICOND_SERVE_MAX_INFLIGHT`)
//! - [`server`]: the byte-level transports — a bounded line reader
//!   (max-line + idle-timeout guard) and the session loop, both shared by
//!   stdin and TCP, and the thread-per-connection TCP front end

pub mod batch;
pub mod server;

pub use batch::{BatchConfig, BatchQueue, SubmitError};
pub use server::{
    max_line_bytes, read_bounded_line, serve_session, serve_tcp, write_reply, LineEvent,
    ServeConfig, SessionEnd,
};

use hicond_precond::{LaplacianSolver, Solution, SolveError};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-session serve statistics: request/error counts plus log₂
/// histograms of solve latencies (µs) and per-solve iteration counts,
/// and the `metrics`-verb scrape baseline.
///
/// Lives outside the global obs registry so the `stats` verb works even
/// when `HICOND_OBS` is off, and so concurrent sessions (if a caller ever
/// runs them) do not mix their numbers. Recording touches only atomics;
/// the baseline mutex is taken by the `metrics` verb alone.
#[derive(Debug, Default)]
pub struct ServeStats {
    latency_us: hicond_obs::Histogram,
    /// Iteration counts of converged solves; feeds the running median
    /// for the preconditioner-staleness watchdog rule.
    iterations: hicond_obs::Histogram,
    /// Sizes of the block solves the batch lanes formed; empty
    /// until a [`batch::BatchQueue`] is wired to this session.
    batch_size: hicond_obs::Histogram,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Right-hand sides currently queued, waiting for a lane
    /// (live gauge, maintained by the batch queue).
    queue_depth: AtomicU64,
    /// Right-hand sides currently inside a block solve (live gauge).
    inflight: AtomicU64,
    /// Solve lanes the batch queue runs (0 on an unbatched session).
    lanes: AtomicU64,
    /// Session-ordinal of the request (stamped into `req_open` events).
    seq: AtomicU64,
    /// Previous `metrics` scrape: registry snapshot + flight watermark.
    /// Lock discipline: this is a leaf taken *after* the registry
    /// snapshot and flight drain complete, never around them — the lock
    /// graph stays flat.
    baseline: Mutex<(hicond_obs::Snapshot, u64)>,
}

impl ServeStats {
    /// Fresh all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of solve requests seen (excluding `stats`/`quit`/blank).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of requests answered with an `ERR` reply.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Current number of queued right-hand sides (live gauge set by the
    /// batch lanes; 0 on an unbatched session).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Current number of right-hand sides inside a block solve.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Records one dispatched batch of `k` right-hand sides (histogram +
    /// obs mirror); called by the batch lanes.
    pub(crate) fn record_batch(&self, k: u64) {
        self.batch_size.record_u64(k);
        hicond_obs::hist_record("serve/batch_size", k as f64);
    }

    /// Number of solve lanes serving this session's batch queue.
    pub fn lanes(&self) -> u64 {
        self.lanes.load(Ordering::Relaxed)
    }

    /// Records the lane count; called once by [`BatchQueue::start`].
    pub(crate) fn set_lanes(&self, lanes: u64) {
        // ordering: Relaxed store — a monitoring value for the `stats`
        // verb; it publishes no other memory.
        self.lanes.store(lanes, Ordering::Relaxed);
    }

    /// Publishes the live queue-depth / inflight gauges (session-local
    /// atomics plus the obs registry) and the busy-lane gauge; called by
    /// the batch lanes.
    pub(crate) fn set_queue_gauges(&self, queue_depth: u64, inflight: u64, lanes_busy: u64) {
        // ordering: Relaxed stores — these are monitoring gauges read by
        // the `stats` verb; they publish no other memory and a stale
        // read merely lags the dashboard by one scrape.
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        // ordering: Relaxed store — same monitoring-gauge rationale.
        self.inflight.store(inflight, Ordering::Relaxed);
        hicond_obs::gauge_set("serve/queue_depth", queue_depth as f64);
        hicond_obs::gauge_set("serve/inflight", inflight as f64);
        hicond_obs::gauge_set("serve/lanes_busy", lanes_busy as f64);
    }

    /// One-line report for the `stats` verb. Quantiles interpolate
    /// linearly inside the containing log₂ bucket
    /// (`hicond_obs::Histogram::quantile_interpolated`) instead of
    /// answering the bucket's lower bound; `-` when nothing was
    /// recorded. Cache hit/miss counts come from the process-wide
    /// artifact counters, which record unconditionally (the report is
    /// meaningful with `HICOND_OBS=off`).
    fn report(&self) -> String {
        let q = |p: f64| match self.latency_us.quantile_interpolated(p) {
            Some(v) => format!("{v:.0}"),
            None => "-".to_string(),
        };
        let bq = |p: f64| match self.batch_size.quantile_interpolated(p) {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        let reg = hicond_obs::global();
        // New keys append after `cache_misses=`: scrapers pin the prefix.
        format!(
            "ok stats requests={} errors={} p50_us={} p95_us={} p99_us={} cache_hits={} cache_misses={} queue_depth={} inflight={} batch_p50={} batch_p95={} lanes={}",
            self.requests(),
            self.errors(),
            q(0.50),
            q(0.95),
            q(0.99),
            reg.counter("artifact/cache_hit").get(),
            reg.counter("artifact/cache_miss").get(),
            self.queue_depth(),
            self.inflight(),
            bq(0.50),
            bq(0.95),
            self.lanes(),
        )
    }

    /// One-line JSON for the `metrics` verb: the registry delta since the
    /// previous scrape plus the flight events recorded since then.
    fn metrics_report(&self) -> String {
        // Gather first, lock last: the registry snapshot takes the
        // registry mutex and the flight drain takes the intern mutex
        // (via rendering) — both must be released before the baseline
        // lock so no edge registry→baseline or baseline→registry exists.
        let cur = hicond_obs::snapshot();
        let head = hicond_obs::flight::recorder().head();
        let (prev, prev_head) = {
            let mut base = match self.baseline.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::replace(&mut *base, (cur.clone(), head))
        };
        let delta = hicond_obs::delta_snapshot(&prev, &cur);
        // Trim to the [prev_head, head) window so an event racing the
        // scrape lands in exactly one report, not two.
        let mut events = hicond_obs::flight::recorder().drain_since(prev_head);
        events.retain(|e| e.seq < head);
        format!(
            "{{\"delta\":{},\"flight\":{{\"since\":{prev_head},\"head\":{head},\"events\":{}}}}}",
            hicond_obs::render_json(&delta),
            hicond_obs::flight::render_events_json(&events),
        )
    }
}

/// What the serve loop should do with one input line.
#[derive(Debug, PartialEq)]
pub enum Action {
    /// Write this reply line (either `ok …` or `ERR …`) and keep going.
    Reply(String),
    /// Blank input: write nothing, keep going.
    Ignore,
    /// `quit`: end the session cleanly.
    Quit,
}

/// Handles one request line against a ready solver. Infallible by
/// design: every malformed input becomes a structured `ERR` reply and
/// the connection survives. `n` is the solver dimension (trusted — it
/// comes from the operator's own graph, not from the peer); `stats`
/// accumulates this session's counters and latency histogram.
pub fn respond(solver: &LaplacianSolver, n: usize, line: &str, stats: &ServeStats) -> Action {
    respond_with(n, line, stats, |b, _trace| {
        // reach: trusted(b holds exactly n finite f64 values — parse_rhs
        // rejected everything else, so the solver numerics never see raw
        // peer input)
        Ok(solver.solve(&b))
    })
}

/// Handles one request line against a shared [`BatchQueue`] instead of a
/// private solver: solve requests park on the queue until a lane
/// folds them (with every other client's pending rhs) into one block
/// solve. The caller counts as an [`batch::Arrival`] from before the
/// parse until the submit, so a lane holding a batch open waits for this
/// request and for no request that is not on its way. Meta verbs, parse
/// errors, and replies are identical to [`respond`]; the only new
/// outcome is `ERR busy` when admission control sheds the request.
/// Infallible by design, like `respond`: the connection survives every
/// malformed or shed input.
pub fn respond_batched(queue: &BatchQueue, n: usize, line: &str, stats: &ServeStats) -> Action {
    let arrival = queue.arrival();
    // The trace id survives batching because the lane links it to
    // the shared block solve's trace with a `batch_join` event. A meta
    // verb or a parse error drops the closure and with it the arrival.
    respond_with(n, line, stats, move |b, trace| {
        match arrival.submit(b, trace) {
            // A dropped sender means the request was dropped unanswered (no
            // lane left to drain it): answer structurally, never hang.
            Ok(rx) => rx
                .recv()
                .map_err(|_| "service is shutting down".to_string()),
            Err(SubmitError::Busy { depth, limit }) => {
                hicond_obs::counter_add("serve/shed", 1);
                Err(format!(
                    "{depth} requests pending or solving (limit {limit}); retry later"
                ))
            }
            Err(SubmitError::ShuttingDown) => Err("service is shutting down".to_string()),
        }
    })
}

/// The request core both handlers share: meta verbs, tracing, parsing,
/// latency and error accounting, and reply formatting. `solve_step` runs
/// the solve for a parsed rhs under the request's trace id; its `Err` is
/// a shed (`ERR busy`) with the given detail.
fn respond_with(
    n: usize,
    line: &str,
    stats: &ServeStats,
    solve_step: impl FnOnce(Vec<f64>, u64) -> Result<Result<Solution, SolveError>, String>,
) -> Action {
    let trimmed = line.trim();
    if let Some(meta) = meta_action(trimmed, stats) {
        return meta;
    }
    // Every solve request runs under a fresh trace id: the span stack,
    // the PCG milestones, and (via the pool's ActiveJob capture) the
    // worker-thread batch events all stamp it, so a `metrics` scrape can
    // reassemble this request's full event tree. Telemetry only — the
    // guard is a thread-local swap, the id never reaches the numerics.
    let trace = hicond_obs::next_trace_id();
    let _trace = hicond_obs::trace_scope(trace);
    let req_seq = stats.seq.fetch_add(1, Ordering::Relaxed);
    hicond_obs::flight::event_named(
        hicond_obs::flight::EventKind::RequestOpen,
        "serve/request",
        req_seq,
        0,
    );
    let _span = hicond_obs::span("serve_request");
    hicond_obs::counter_add("serve/requests", 1);
    stats.requests.fetch_add(1, Ordering::Relaxed);
    let b = match parse_rhs(n, trimmed) {
        Ok(b) => b,
        Err(reply) => {
            hicond_obs::counter_add("serve/bad_request", 1);
            stats.errors.fetch_add(1, Ordering::Relaxed);
            hicond_obs::flight::event_named(
                hicond_obs::flight::EventKind::RequestClose,
                "serve/request",
                1,
                f64::to_bits(0.0),
            );
            return Action::Reply(reply);
        }
    };
    // audit: allow(instant-now) — wall-clock latency (queue wait, if any,
    // plus the solve) for the stats report; never feeds the numerics.
    let t0 = std::time::Instant::now();
    let outcome = solve_step(b, trace);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(detail) => return shed_reply(stats, us, detail),
    };
    stats.latency_us.record(us);
    hicond_obs::hist_record("serve/latency_us", us);
    let (action, err) = match outcome {
        Ok(sol) => (Action::Reply(ok_reply(&sol, stats)), 0u64),
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            (Action::Reply(format!("ERR solve-failed: {e}")), 1u64)
        }
    };
    hicond_obs::flight::event_named(
        hicond_obs::flight::EventKind::RequestClose,
        "serve/request",
        err,
        us.to_bits(),
    );
    action
}

/// Meta verbs shared by the direct and batched handlers: blank lines,
/// `quit`, `stats`, `metrics`. `None` means the line is a solve request.
fn meta_action(trimmed: &str, stats: &ServeStats) -> Option<Action> {
    if trimmed.is_empty() {
        return Some(Action::Ignore);
    }
    match trimmed {
        "quit" => Some(Action::Quit),
        "stats" => Some(Action::Reply(stats.report())),
        "metrics" => Some(Action::Reply(stats.metrics_report())),
        _ => None,
    }
}

/// Formats the `ok …` reply for a converged solve and feeds the
/// iteration histogram + preconditioner-staleness watchdog: a converged
/// solve that needed far more iterations than this session's running
/// median suggests the preconditioner no longer matches the operator.
fn ok_reply(sol: &Solution, stats: &ServeStats) -> String {
    hicond_obs::hist_record("serve/iterations", sol.iterations as f64);
    let iters = sol.iterations as u64;
    stats.iterations.record_u64(iters);
    if let Some(median) = stats.iterations.quantile_interpolated(0.5) {
        hicond_obs::watchdog::check_staleness(iters, median, stats.iterations.count());
    }
    // One allocation: the header plus at most REPLY_VALUE_BYTES per value.
    // reach: allow(reach-alloc, sol.x is the solver's own solution of length n, the operator-trusted graph dimension; a peer cannot choose its length)
    let mut reply = String::with_capacity(64 + REPLY_VALUE_BYTES * sol.x.len());
    // Writing into a String cannot fail.
    let _ = write!(reply, "ok {} {:.3e}", sol.iterations, sol.rel_residual);
    for x in &sol.x {
        let _ = write!(reply, " {x:e}");
    }
    reply
}

/// Upper bound on one solution value in an `ok` reply: a space, then the
/// shortest round-trip `{:e}` form, at most `-d.dddddddddddddddde-ddd`
/// (17 significant digits, 24 bytes).
const REPLY_VALUE_BYTES: usize = 25;

/// Books one shed/shutdown rejection (error counters + `req_close`
/// event) and builds the structured `ERR busy` reply.
fn shed_reply(stats: &ServeStats, us: f64, detail: String) -> Action {
    stats.errors.fetch_add(1, Ordering::Relaxed);
    hicond_obs::flight::event_named(
        hicond_obs::flight::EventKind::RequestClose,
        "serve/request",
        1,
        us.to_bits(),
    );
    Action::Reply(format!("ERR busy: {detail}"))
}

/// Parses the right-hand side, enforcing exactly `n` finite values. The
/// reply growth is bounded: the vector never exceeds `n` entries and the
/// capacity hint is clamped by the line length (a k-value request needs
/// at least 2k−1 bytes of input).
fn parse_rhs(n: usize, line: &str) -> Result<Vec<f64>, String> {
    let mut b: Vec<f64> = Vec::with_capacity(n.min(line.len()));
    for tok in line.split_whitespace() {
        if b.len() == n {
            return Err(format!("ERR bad-length: more than {n} rhs values"));
        }
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => b.push(v),
            Ok(v) => return Err(format!("ERR bad-value: non-finite rhs value {v}")),
            Err(e) => {
                // Echo at most a prefix of the offending token: the line
                // is peer-controlled and may be arbitrarily long.
                let shown: String = tok.chars().take(20).collect();
                return Err(format!("ERR bad-value: `{shown}`: {e}"));
            }
        }
    }
    if b.len() != n {
        return Err(format!(
            "ERR bad-length: rhs has {} values, expected {n}",
            b.len()
        ));
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::generators;
    use hicond_precond::SolverOptions;

    fn tiny_solver() -> (LaplacianSolver, usize) {
        let g = generators::path(8, |_| 1.0);
        let n = g.num_vertices();
        (LaplacianSolver::new(&g, &SolverOptions::default()), n)
    }

    #[test]
    fn well_formed_request_gets_ok_reply() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        let mut b = vec![1.0; n];
        b[0] = -(n as f64 - 1.0); // orthogonal to the constant vector
        let line: Vec<String> = b.iter().map(|v| v.to_string()).collect();
        match respond(&solver, n, &line.join(" "), &stats) {
            Action::Reply(r) => assert!(r.starts_with("ok "), "reply: {r}"),
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(stats.requests(), 1);
        assert_eq!(stats.errors(), 0);
    }

    #[test]
    fn quit_and_blank_lines() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        assert_eq!(respond(&solver, n, "  quit  ", &stats), Action::Quit);
        assert_eq!(respond(&solver, n, "   ", &stats), Action::Ignore);
        assert_eq!(stats.requests(), 0, "meta lines are not solve requests");
    }

    #[test]
    fn wrong_length_is_structured_error() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        match respond(&solver, n, "1 2 3", &stats) {
            Action::Reply(r) => assert!(r.starts_with("ERR bad-length:"), "reply: {r}"),
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(stats.errors(), 1);
    }

    #[test]
    fn excess_values_rejected_before_materializing() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        let line = vec!["1"; n + 100].join(" ");
        match respond(&solver, n, &line, &stats) {
            Action::Reply(r) => assert!(r.starts_with("ERR bad-length:"), "reply: {r}"),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn garbage_and_non_finite_values_rejected() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        for bad in [
            "1 2 pancake",
            "NaN 1 2",
            "inf 0 0",
            &format!("{}", "9".repeat(400)),
        ] {
            match respond(&solver, n, bad, &stats) {
                Action::Reply(r) => {
                    assert!(r.starts_with("ERR bad-"), "input {bad:.40}: reply {r}");
                    assert!(r.len() < 120, "reply echoes too much input: {r}");
                }
                other => panic!("expected reply, got {other:?}"),
            }
        }
        assert_eq!(stats.errors(), 4);
    }

    #[test]
    fn stats_verb_reports_counts_and_latency_quantiles() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        // Empty session: counts are zero, quantiles are dashes. Cache
        // counters are process-global, so only their presence is asserted.
        match respond(&solver, n, "stats", &stats) {
            Action::Reply(r) => {
                assert!(
                    r.starts_with("ok stats requests=0 errors=0 p50_us=- p95_us=- p99_us=-"),
                    "reply: {r}"
                );
                assert!(r.contains(" cache_hits="), "reply: {r}");
                assert!(r.contains(" cache_misses="), "reply: {r}");
            }
            other => panic!("expected reply, got {other:?}"),
        }
        // One good solve and one error, then stats reflects both and the
        // latency histogram has data.
        let mut b = vec![1.0; n];
        b[0] = -(n as f64 - 1.0);
        let line: Vec<String> = b.iter().map(|v| v.to_string()).collect();
        respond(&solver, n, &line.join(" "), &stats);
        respond(&solver, n, "garbage", &stats);
        match respond(&solver, n, "stats", &stats) {
            Action::Reply(r) => {
                assert!(r.starts_with("ok stats requests=2 errors=1 "), "reply: {r}");
                assert!(!r.contains("p50_us=-"), "latency recorded: {r}");
                for key in ["p50_us=", "p95_us=", "p99_us="] {
                    assert!(r.contains(key), "missing {key} in {r}");
                }
            }
            other => panic!("expected reply, got {other:?}"),
        }
        // The stats verb itself never counts as a request.
        assert_eq!(stats.requests(), 2);
    }

    #[test]
    fn stats_quantiles_interpolate_inside_the_bucket() {
        let stats = ServeStats::new();
        // 100 identical latencies inside [1024, 2048): the plain quantile
        // would answer the lower bound 1024 for every percentile; the
        // interpolated report must sit strictly inside the bucket and
        // order p50 < p99.
        for _ in 0..100 {
            stats.latency_us.record(1500.0);
        }
        let r = stats.report();
        let pick = |key: &str| -> f64 {
            let tail = r.split(key).nth(1).unwrap_or("");
            tail.split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or(f64::NAN)
        };
        let p50 = pick("p50_us=");
        let p99 = pick("p99_us=");
        assert!(p50 > 1024.0 && p50 < 2048.0, "p50 interpolated: {r}");
        assert!(p99 > p50 && p99 < 2048.0, "p99 above p50, in bucket: {r}");
    }

    #[test]
    fn metrics_verb_replies_one_line_of_valid_delta_json() {
        let (solver, n) = tiny_solver();
        let stats = ServeStats::new();
        let scrape = |stats: &ServeStats| -> String {
            match respond(&solver, n, "metrics", stats) {
                Action::Reply(r) => r,
                other => panic!("expected reply, got {other:?}"),
            }
        };
        let first = scrape(&stats);
        assert!(first.starts_with('{'), "metrics replies JSON: {first}");
        assert!(!first.contains('\n'), "single line");
        let v = hicond_obs::json::parse(&first).expect("metrics JSON parses");
        assert!(v.get("delta").is_some());
        let head0 = v
            .get("flight")
            .and_then(|f| f.get("head"))
            .and_then(hicond_obs::json::Value::as_f64)
            .expect("flight.head present");
        // A second scrape's window starts at the first scrape's head.
        let second = scrape(&stats);
        let v2 = hicond_obs::json::parse(&second).expect("second scrape parses");
        let since = v2
            .get("flight")
            .and_then(|f| f.get("since"))
            .and_then(hicond_obs::json::Value::as_f64)
            .expect("flight.since present");
        assert_eq!(since, head0, "delta windows tile: {second}");
        // The metrics verb never counts as a solve request.
        assert_eq!(stats.requests(), 0);
    }

    #[test]
    fn ok_reply_values_parse_back_bit_exactly() {
        let stats = ServeStats::new();
        let x = vec![
            0.0,
            -0.0,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MAX,
            1.0 / 3.0,
            -1e-300,
            -f64::MIN_POSITIVE,
        ];
        let sol = Solution {
            x: x.clone(),
            iterations: 12,
            rel_residual: 3.5e-9,
        };
        let reply = ok_reply(&sol, &stats);
        assert_eq!(
            reply.capacity(),
            64 + REPLY_VALUE_BYTES * x.len(),
            "the one reservation held the whole reply"
        );
        let mut toks = reply.split(' ');
        assert_eq!(toks.next(), Some("ok"));
        assert_eq!(toks.next(), Some("12"));
        assert_eq!(toks.next(), Some("3.500e-9"));
        let back: Vec<u64> = toks
            .map(|t| t.parse::<f64>().expect("value parses").to_bits())
            .collect();
        let want: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, want, "reply: {reply}");
        for v in &x {
            assert!(format!(" {v:e}").len() <= REPLY_VALUE_BYTES, "{v:e}");
        }
    }
}
