//! Request coalescing for the concurrent serve front end: a bounded
//! queue of parsed right-hand sides plus one solve *lane* per pool thread
//! (`rayon::current_num_threads()`, i.e. the `HICOND_THREADS` width),
//! each folding whatever is pending into a single block solve
//! ([`hicond_precond::LaplacianSolver::solve_block`]).
//!
//! ## Lanes
//!
//! Every lane runs the same loop: collect a batch → solve it → answer
//! its members. Only one lane holds a batch open at a time (the
//! `collecting` flag), so a second lane never races into the window and
//! never wakes to drain an empty batch; the other lanes are meanwhile
//! solving earlier batches or parked. With `HICOND_THREADS=1` there is
//! exactly one lane — the single dispatcher of a one-core host.
//!
//! A lane solves its batch on the pool threads that no other solving
//! lane held when it checked the batch out: `lanes + 1 − busy` of them,
//! at least one, where `busy` counts this lane too. A lone batch fans its
//! columns over the whole pool; when every lane is busy each runs its
//! batch inline on its own thread, so concurrent batches never fight
//! over the pool. The results do not depend on the thread count.
//!
//! A panic inside a lane's solve is contained: every member of that
//! batch is answered `ERR solve-failed: internal`, the
//! `serve/lane_panics` counter ticks, and the lane goes on serving.
//!
//! ## Dispatch policy
//!
//! A caller announces a request it has started to parse by taking an
//! [`Arrival`] ([`BatchQueue::arrival`]) and hands it in with
//! [`Arrival::submit`] (or drops it: a meta verb, a parse error). The
//! collecting lane closes its batch at once unless such an arrival is
//! outstanding, and otherwise on whichever trigger fires first:
//!
//! - **size** — `HICOND_SERVE_BATCH` right-hand sides are pending
//!   (default 8),
//! - **arrivals** — no caller is between parsing a request and
//!   submitting it any more, or
//! - **time** — `HICOND_SERVE_BATCH_WINDOW_MS` elapsed since the
//!   collecting lane first saw the oldest pending request (default 2 ms).
//!   The window only caps the wait for a request already being parsed:
//!   a lone request is never held for company, and a client that stalls
//!   mid-parse costs its batch-mates at most one window. A batch that
//!   closes this way ticks `serve/window_expired`.
//!
//! Admission control is a hard cap, not a queue: when
//! `HICOND_SERVE_MAX_INFLIGHT` right-hand sides are already pending or
//! inside a block solve (default 4× the batch size), [`BatchQueue::submit`]
//! refuses with [`SubmitError::Busy`] and the connection replies a
//! structured `ERR busy` — bounded memory under any client behavior.
//!
//! ## Tracing through the block
//!
//! Each request keeps its own trace id across the shared solve: the
//! lane mints one *batch* trace, emits a `batch_join` flight event
//! under every member's request trace pointing at the batch trace (and
//! the member's slot), then runs the block solve under the batch trace.
//! A `metrics` scrape can therefore reassemble per-request timelines:
//! request events under the request trace, shared solve spans under the
//! batch trace, joined by the `batch_join` edges.
//!
//! ## Shutdown
//!
//! [`BatchQueue::shutdown`] flips the queue into drain mode: new submits
//! are refused, everything already admitted is still solved and
//! answered, and the final [`DrainReport`] says how deep the queue was
//! when the drain began. Every lane exits once the queue is dry.

use super::ServeStats;
use hicond_precond::{LaplacianSolver, Solution, SolveError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Dispatch-policy knobs, normally read from the environment once at
/// startup ([`BatchConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum right-hand sides folded into one block solve
    /// (`HICOND_SERVE_BATCH`, default 8, minimum 1).
    pub max_batch: usize,
    /// The longest the collecting lane holds an underfull batch open
    /// for a request that is still being parsed (an outstanding
    /// [`Arrival`]); with none outstanding the batch closes at once
    /// (`HICOND_SERVE_BATCH_WINDOW_MS`, default 2 ms).
    pub window: Duration,
    /// Admission cap across queued + solving right-hand sides
    /// (`HICOND_SERVE_MAX_INFLIGHT`, default `4 * max_batch`).
    pub max_inflight: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        let max_batch = 8;
        BatchConfig {
            max_batch,
            window: Duration::from_millis(2),
            max_inflight: 4 * max_batch,
        }
    }
}

impl BatchConfig {
    /// Reads the three knobs from the environment, failing fast (like
    /// `rayon::pool::validate_env`) on set-but-garbled values: an
    /// operator typo must be a startup error, never a silent default.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = BatchConfig::default();
        if let Some(v) = read_env_usize("HICOND_SERVE_BATCH", 1)? {
            cfg.max_batch = v;
            cfg.max_inflight = 4 * v;
        }
        if let Some(v) = read_env_usize("HICOND_SERVE_BATCH_WINDOW_MS", 0)? {
            cfg.window = Duration::from_millis(v as u64);
        }
        if let Some(v) = read_env_usize("HICOND_SERVE_MAX_INFLIGHT", 1)? {
            cfg.max_inflight = v;
        }
        if cfg.max_inflight < cfg.max_batch {
            return Err(format!(
                "HICOND_SERVE_MAX_INFLIGHT ({}) must be at least HICOND_SERVE_BATCH ({})",
                cfg.max_inflight, cfg.max_batch
            ));
        }
        Ok(cfg)
    }
}

fn read_env_usize(name: &str, min: usize) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) if v >= min => Ok(Some(v)),
            Ok(v) => Err(format!("{name}={v} is below the minimum of {min}")),
            Err(_) => Err(format!("{name}={raw:?} is not a non-negative integer")),
        },
        Err(_) => Ok(None),
    }
}

/// Why [`BatchQueue::submit`] refused a right-hand side.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: `depth` right-hand sides are already pending
    /// or solving against a cap of `limit`.
    Busy { depth: usize, limit: usize },
    /// The queue is draining; no new work is admitted.
    ShuttingDown,
}

/// What [`BatchQueue::shutdown`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queue depth (pending, not yet solving) when the drain began.
    pub queued_at_shutdown: usize,
    /// Right-hand sides answered over the queue's whole lifetime.
    pub completed: u64,
}

/// One admitted solve request parked on the queue.
struct Pending {
    rhs: Vec<f64>,
    /// The request's own flight-recorder trace id (survives batching).
    trace: u64,
    tx: mpsc::SyncSender<Result<Solution, SolveError>>,
}

struct QueueState {
    pending: VecDeque<Pending>,
    /// Callers between the start of parsing a request and its submit
    /// (live [`Arrival`] guards).
    arriving: usize,
    /// Right-hand sides checked out by the lanes, not yet answered.
    solving: usize,
    /// A lane is holding a batch open (at most one at a time).
    collecting: bool,
    /// Lanes currently inside a block solve.
    busy: usize,
    shutdown: bool,
    completed: u64,
}

/// Test-only fault hook: called with the member trace ids of every batch
/// just before its block solve; a panic in it stands in for a panic in
/// the solve. Install-once, per queue.
#[cfg(test)]
type FaultHook = Box<dyn Fn(&[u64]) + Send + Sync>;

/// The shared coalescing queue. Connections [`submit`](BatchQueue::submit)
/// parsed right-hand sides; the lanes (started by [`BatchQueue::start`])
/// form batches and answer through per-request channels. Plain `Mutex` +
/// `Condvar`: the queue is a control-plane structure — the data plane
/// (the block solve) runs outside the lock.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signals idle lanes: work arrived with no lane collecting, a
    /// closed batch left work behind, or shutdown was requested.
    work: Condvar,
    /// Signals the collecting lane: its open batch gained a member, or
    /// shutdown was requested.
    fill: Condvar,
    cfg: BatchConfig,
    #[cfg(test)]
    fault: std::sync::OnceLock<FaultHook>,
}

/// Recovers the guard from a poisoned queue lock: the state is a plain
/// collection with no invariant a panicking lane could half-apply
/// (drain pops are single calls), so continuing is sound and keeps the
/// serve surface panic-free.
fn lock_state<'a>(m: &'a Mutex<QueueState>) -> MutexGuard<'a, QueueState> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_state`].
fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
    match cv.wait(st) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl BatchQueue {
    /// Creates an idle queue; call [`start`](BatchQueue::start) to spawn
    /// the lanes that actually solve.
    pub fn new(cfg: BatchConfig) -> Arc<BatchQueue> {
        Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                arriving: 0,
                solving: 0,
                collecting: false,
                busy: 0,
                shutdown: false,
                completed: 0,
            }),
            work: Condvar::new(),
            fill: Condvar::new(),
            cfg,
            #[cfg(test)]
            fault: std::sync::OnceLock::new(),
        })
    }

    /// Installs the test fault hook (first caller wins; returns `false`
    /// if one is already installed).
    #[cfg(test)]
    fn set_fault_hook(&self, hook: FaultHook) -> bool {
        self.fault.set(hook).is_ok()
    }

    /// The dispatch policy this queue was built with.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Spawns one lane per pool thread of the calling thread
    /// (`rayon::current_num_threads()`); each batch solves on the share of
    /// that pool width no other lane holds. Returns a handle whose
    /// [`Dispatcher::join`] blocks until [`shutdown`](BatchQueue::shutdown)
    /// has been called and the drain finished.
    pub fn start(
        self: &Arc<BatchQueue>,
        solver: Arc<LaplacianSolver>,
        stats: Arc<ServeStats>,
    ) -> Dispatcher {
        let lanes = rayon::current_num_threads();
        stats.set_lanes(lanes as u64);
        let handles = (0..lanes)
            .filter_map(|i| {
                let (queue, solver, stats) =
                    (Arc::clone(self), Arc::clone(&solver), Arc::clone(&stats));
                std::thread::Builder::new()
                    .name(format!("serve-lane-{i}"))
                    .spawn(move || queue.lane_loop(lanes, &solver, &stats))
                    .ok()
            })
            .collect();
        Dispatcher { handles }
    }

    /// Admits one parsed right-hand side, returning the channel its
    /// solution will arrive on, or a structured refusal. Never blocks
    /// beyond the mutex. A caller that parses the request first should
    /// take an [`arrival`](BatchQueue::arrival) before parsing and submit
    /// through it, so a collecting lane knows to wait for it.
    pub fn submit(&self, rhs: Vec<f64>, trace: u64) -> Result<Answer, SubmitError> {
        let mut st = lock_state(&self.state);
        let admitted = self.enqueue(&mut st, rhs, trace);
        if admitted.is_ok() {
            self.wake(&st);
        }
        admitted
    }

    /// Counts the caller as arriving — about to parse a request and
    /// submit it — until the returned guard is submitted or dropped.
    /// While any arrival is outstanding the collecting lane holds its
    /// batch open (for at most the window).
    pub fn arrival(&self) -> Arrival<'_> {
        lock_state(&self.state).arriving += 1;
        Arrival {
            queue: self,
            submitted: false,
        }
    }

    /// The admission check and enqueue shared by [`BatchQueue::submit`]
    /// and [`Arrival::submit`]; the caller wakes a lane.
    fn enqueue(
        &self,
        st: &mut QueueState,
        rhs: Vec<f64>,
        trace: u64,
    ) -> Result<Answer, SubmitError> {
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let depth = st.pending.len() + st.solving;
        if depth >= self.cfg.max_inflight {
            return Err(SubmitError::Busy {
                depth,
                limit: self.cfg.max_inflight,
            });
        }
        // Rendezvous-with-buffer-1: the lane's send never blocks, even if
        // the submitting connection died before receiving.
        let (tx, rx) = mpsc::sync_channel(1);
        st.pending.push_back(Pending { rhs, trace, tx });
        Ok(rx)
    }

    /// Wakes the lane that must look at the queue now: the collecting
    /// lane if one holds a batch open, else an idle one.
    fn wake(&self, st: &QueueState) {
        if st.collecting {
            self.fill.notify_one();
        } else {
            self.work.notify_one();
        }
    }

    /// Current queue depth (pending + solving); used by shed messages
    /// and the drain report.
    pub fn depth(&self) -> usize {
        let st = lock_state(&self.state);
        st.pending.len() + st.solving
    }

    /// Flips the queue into drain mode and reports the depth at that
    /// instant. Admitted requests are still solved and answered; the
    /// lanes exit once the queue is empty (wait on [`Dispatcher::join`]
    /// for that). Idempotent.
    pub fn shutdown(&self) -> DrainReport {
        let mut st = lock_state(&self.state);
        st.shutdown = true;
        let report = DrainReport {
            queued_at_shutdown: st.pending.len(),
            completed: st.completed,
        };
        self.work.notify_all();
        self.fill.notify_all();
        report
    }

    /// Lane body: collect → solve → answer, until shutdown drains the
    /// queue dry. `lanes` is the number of lanes sharing the pool.
    fn lane_loop(&self, lanes: usize, solver: &LaplacianSolver, stats: &ServeStats) {
        while let Some((batch, busy)) = self.collect_batch(stats) {
            let k = batch.len();
            rayon::pool::with_thread_cap(thread_budget(lanes, busy), || {
                self.solve_batch(batch, solver, stats)
            });
            let mut st = lock_state(&self.state);
            st.solving -= k;
            st.busy -= 1;
            st.completed += k as u64;
            stats.set_queue_gauges(st.pending.len() as u64, st.solving as u64, st.busy as u64);
        }
    }

    /// Blocks until this lane holds a ready batch per the dispatch
    /// policy, or returns `None` once the queue is shut down and drained.
    /// Checked-out requests are counted in `solving` (and the lane in
    /// `busy`) until `lane_loop` returns them; the batch comes with the
    /// busy-lane count at checkout, this lane included.
    fn collect_batch(&self, stats: &ServeStats) -> Option<(Vec<Pending>, usize)> {
        let mut st = lock_state(&self.state);
        // Phase 1: wait for work that no other lane is collecting.
        while st.pending.is_empty() || st.collecting {
            if st.shutdown && st.pending.is_empty() {
                return None;
            }
            st = wait(&self.work, st);
        }
        st.collecting = true;
        // Phase 2: hold the batch open only while a caller is parsing a
        // request that could join it, until the size trigger fires (or
        // shutdown, which drains immediately), and never past the
        // window. The window measures from when this lane saw the
        // batch's first member. Only the collecting lane drains, so the
        // batch cannot empty while it waits.
        //
        // audit: allow(instant-now) — dispatch-deadline bookkeeping;
        // wall time never reaches the solver numerics.
        let deadline = Instant::now() + self.cfg.window;
        let mut expired = false;
        while st.pending.len() < self.cfg.max_batch && st.arriving > 0 && !st.shutdown {
            // audit: allow(instant-now) — see the deadline note above.
            let now = Instant::now();
            if now >= deadline {
                expired = true;
                break;
            }
            let (guard, _timeout) = match self.fill.wait_timeout(st, deadline - now) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            st = guard;
        }
        st.collecting = false;
        let k = st.pending.len().min(self.cfg.max_batch);
        let batch: Vec<Pending> = st.pending.drain(..k).collect();
        st.solving += k;
        st.busy += 1;
        // Hand what is left to an idle lane; during a drain, wake every
        // lane so the ones with nothing left to do exit.
        if st.shutdown {
            self.work.notify_all();
        } else if !st.pending.is_empty() {
            self.work.notify_one();
        }
        let busy = st.busy;
        stats.set_queue_gauges(st.pending.len() as u64, st.solving as u64, busy as u64);
        drop(st);
        if expired {
            hicond_obs::counter_add("serve/window_expired", 1);
        }
        Some((batch, busy))
    }

    /// Runs one block solve outside the lock and answers every member.
    /// A panic in the solve is contained here: every member is answered
    /// [`SolveError::Internal`] and the lane lives on.
    fn solve_batch(&self, batch: Vec<Pending>, solver: &LaplacianSolver, stats: &ServeStats) {
        let k = batch.len();
        stats.record_batch(k as u64);
        let mut rhss: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut traces = Vec::with_capacity(k);
        let mut txs = Vec::with_capacity(k);
        for p in batch {
            rhss.push(p.rhs);
            traces.push(p.trace);
            txs.push(p.tx);
        }
        let solved = catch_unwind(AssertUnwindSafe(|| {
            self.solve_traced(&rhss, &traces, solver)
        }));
        let results = solved.unwrap_or_else(|_| {
            hicond_obs::counter_add("serve/lane_panics", 1);
            vec![Err(SolveError::Internal); k]
        });
        for (tx, res) in txs.into_iter().zip(results) {
            // A member whose connection died mid-solve has dropped its
            // receiver; that is its problem, not the batch's.
            let _ = tx.send(res);
        }
    }

    /// The block solve of one batch under a fresh batch trace.
    fn solve_traced(
        &self,
        rhss: &[Vec<f64>],
        traces: &[u64],
        solver: &LaplacianSolver,
    ) -> Vec<Result<Solution, SolveError>> {
        // One trace for the shared solve; every member's own trace gets
        // a `batch_join` edge pointing at it (and the member's slot), so
        // scrapes can walk request → batch → solve spans.
        let batch_trace = hicond_obs::next_trace_id();
        for (slot, &trace) in traces.iter().enumerate() {
            let _member = hicond_obs::trace_scope(trace);
            hicond_obs::flight::event_named(
                hicond_obs::flight::EventKind::BatchJoin,
                "serve/batch_join",
                batch_trace,
                slot as u64,
            );
        }
        let _trace = hicond_obs::trace_scope(batch_trace);
        hicond_obs::flight::event_named(
            hicond_obs::flight::EventKind::BatchOpen,
            "serve/batch",
            rhss.len() as u64,
            0,
        );
        #[cfg(test)]
        if let Some(hook) = self.fault.get() {
            hook(traces);
        }
        solver.solve_block(rhss)
    }
}

/// Pool threads a lane may solve its batch on: the `lanes` pool threads
/// minus those of the other `busy − 1` lanes solving at checkout (`busy`
/// counts this lane), and at least one.
fn thread_budget(lanes: usize, busy: usize) -> usize {
    (lanes + 1).saturating_sub(busy).max(1)
}

/// The receiving end of an admitted request: its solution, or why the
/// solve failed, arrives here exactly once.
pub type Answer = mpsc::Receiver<Result<Solution, SolveError>>;

/// A caller that has started to parse a request (see
/// [`BatchQueue::arrival`]). [`submit`](Arrival::submit) enqueues the
/// request and stops counting the caller in one critical section;
/// dropping the guard unsubmitted (a meta verb, a parse error) just stops
/// counting it, and releases a lane held open for it.
pub struct Arrival<'a> {
    queue: &'a BatchQueue,
    submitted: bool,
}

impl Arrival<'_> {
    /// [`BatchQueue::submit`] for the request this arrival announced.
    pub fn submit(mut self, rhs: Vec<f64>, trace: u64) -> Result<Answer, SubmitError> {
        self.submitted = true;
        let queue = self.queue;
        let mut st = lock_state(&queue.state);
        st.arriving -= 1;
        let admitted = queue.enqueue(&mut st, rhs, trace);
        // A refused arrival still leaves: the collecting lane may be
        // waiting on it.
        if admitted.is_ok() || st.collecting {
            queue.wake(&st);
        }
        admitted
    }
}

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if self.submitted {
            return;
        }
        let mut st = lock_state(&self.queue.state);
        st.arriving -= 1;
        if st.collecting {
            self.queue.fill.notify_one();
        }
    }
}

/// Join handle for the lanes.
pub struct Dispatcher {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Waits for every lane to finish draining (call
    /// [`BatchQueue::shutdown`] first or this blocks forever).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::generators;
    use hicond_precond::SolverOptions;

    fn solver_and_rhs() -> (Arc<LaplacianSolver>, Vec<f64>) {
        let g = generators::path(8, |_| 1.0);
        let n = g.num_vertices();
        let solver = Arc::new(LaplacianSolver::new(&g, &SolverOptions::default()));
        let mut b = vec![1.0; n];
        b[0] = -(n as f64 - 1.0);
        (solver, b)
    }

    #[test]
    fn size_trigger_forms_one_batch_of_k() {
        let (solver, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 3,
            window: Duration::from_secs(600),
            max_inflight: 12,
        };
        let queue = BatchQueue::new(cfg);
        let dispatcher = queue.start(Arc::clone(&solver), Arc::clone(&stats));
        // A caller still parsing holds the batch open and the window
        // cannot expire: only the size trigger can close the batch, so
        // the coalescing below is deterministic, not timing-lucky.
        let parsing = queue.arrival();
        let rxs: Vec<_> = (0..3)
            .map(|i| queue.submit(b.clone(), 100 + i).expect("admitted"))
            .collect();
        for rx in rxs {
            let sol = rx.recv().expect("answered").expect("converged");
            let solo = solver.solve(&b).expect("solo converges");
            assert_eq!(
                sol.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                solo.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "batched member bitwise equals the solo solve"
            );
        }
        assert_eq!(stats.batch_size.count(), 1, "one batch formed");
        assert_eq!(
            stats
                .batch_size
                .quantile_interpolated(0.5)
                .map(|v| v.round()),
            Some(3.0),
            "the batch held all three members"
        );
        drop(parsing);
        let report = queue.shutdown();
        dispatcher.join();
        assert_eq!(report.queued_at_shutdown, 0);
        assert_eq!(queue.depth(), 0);
    }

    /// How long a test waits for an answer that must come long before a
    /// 600-s window: a regression fails after this instead of hanging.
    const NEVER: Duration = Duration::from_secs(60);

    #[test]
    fn window_trigger_answers_a_lone_request() {
        let (solver, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 8,
            window: Duration::from_millis(1),
            max_inflight: 32,
        };
        let queue = BatchQueue::new(cfg);
        let dispatcher = queue.start(solver, Arc::clone(&stats));
        let prev = hicond_obs::mode();
        hicond_obs::set_mode(hicond_obs::Mode::Json);
        let expired = hicond_obs::global().counter("serve/window_expired");
        let before = expired.get();
        // A caller that never finishes parsing: only the window can close
        // the batch.
        let stalled = queue.arrival();
        let rx = queue.submit(b, 7).expect("admitted");
        let sol = rx.recv_timeout(NEVER).expect("answered");
        hicond_obs::set_mode(prev);
        assert!(sol.is_ok(), "lone request solved after the window");
        assert_eq!(expired.get() - before, 1, "the batch closed on the window");
        drop(stalled);
        queue.shutdown();
        dispatcher.join();
    }

    #[test]
    fn a_lone_submit_is_answered_without_waiting_for_the_window() {
        let (solver, b) = solver_and_rhs();
        let queue = BatchQueue::new(BatchConfig {
            max_batch: 8,
            window: Duration::from_secs(600),
            max_inflight: 32,
        });
        let dispatcher = queue.start(solver, Arc::new(ServeStats::new()));
        // Nobody else is parsing a request: the batch of one closes at
        // once, however long the window.
        let rx = queue.submit(b, 7).expect("admitted");
        let sol = rx.recv_timeout(NEVER).expect("answered before the window");
        assert!(sol.is_ok());
        queue.shutdown();
        dispatcher.join();
    }

    #[test]
    fn a_dropped_arrival_releases_the_collecting_lane() {
        let (solver, b) = solver_and_rhs();
        let queue = BatchQueue::new(BatchConfig {
            max_batch: 8,
            window: Duration::from_secs(600),
            max_inflight: 32,
        });
        let dispatcher = queue.start(solver, Arc::new(ServeStats::new()));
        let parsing = queue.arrival();
        let rx = queue.submit(b, 7).expect("admitted");
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "the batch is held open for the caller still parsing"
        );
        // The caller's line was a meta verb or garbage: nothing to wait for.
        drop(parsing);
        let sol = rx.recv_timeout(NEVER).expect("answered before the window");
        assert!(sol.is_ok());
        queue.shutdown();
        dispatcher.join();
    }

    #[test]
    fn thread_budget_leaves_the_other_lanes_their_threads() {
        for lanes in 1..=8 {
            assert_eq!(thread_budget(lanes, 1), lanes, "a lone lane gets the pool");
            assert_eq!(thread_budget(lanes, lanes), 1, "all busy: one thread each");
        }
        assert_eq!(thread_budget(4, 2), 3);
    }

    #[test]
    fn admission_cap_sheds_with_busy() {
        let (_, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 2,
            window: Duration::from_secs(600),
            max_inflight: 2,
        };
        // No dispatcher: submissions pile up against the cap.
        let queue = BatchQueue::new(cfg);
        let _rx0 = queue.submit(b.clone(), 0).expect("first admitted");
        let _rx1 = queue.submit(b.clone(), 1).expect("second admitted");
        match queue.submit(b.clone(), 2) {
            Err(SubmitError::Busy { depth, limit }) => {
                assert_eq!((depth, limit), (2, 2));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(queue.depth(), 2);
        let _ = stats;
    }

    #[test]
    fn shutdown_drains_admitted_work_and_refuses_new() {
        let (solver, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 2,
            window: Duration::from_secs(600),
            max_inflight: 8,
        };
        let queue = BatchQueue::new(cfg);
        // Submit BEFORE starting the dispatcher, then shut down: the
        // drain must still answer all three pending requests.
        let rxs: Vec<_> = (0..3)
            .map(|i| queue.submit(b.clone(), i).expect("admitted"))
            .collect();
        let report = queue.shutdown();
        assert_eq!(report.queued_at_shutdown, 3);
        match queue.submit(b.clone(), 9) {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|_| "rx")),
        }
        let dispatcher = queue.start(solver, stats);
        for rx in rxs {
            assert!(rx.recv().expect("drained").is_ok(), "drain answers");
        }
        dispatcher.join();
        assert_eq!(queue.depth(), 0, "drain left nothing behind");
    }

    #[test]
    fn batch_config_env_defaults_and_bounds() {
        let cfg = BatchConfig::default();
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.max_inflight, 32);
        assert!(read_env_usize("HICOND_NO_SUCH_VAR_XYZ", 1)
            .expect("unset is None")
            .is_none());
    }

    /// Bit patterns of a solution, for bitwise comparisons.
    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// A solver on a small weighted grid plus `m` deflated right-hand
    /// sides and their solo solutions.
    fn grid_fixture(m: usize) -> (Arc<LaplacianSolver>, Vec<Vec<f64>>, Vec<Vec<u64>>) {
        let g = generators::grid2d(9, 9, |u, v| 1.0 + ((u + 2 * v) % 3) as f64);
        let n = g.num_vertices();
        let solver = Arc::new(LaplacianSolver::new(&g, &SolverOptions::default()));
        let rhss: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut b: Vec<f64> = (0..n).map(|i| ((i * (j + 3) + j) % 11) as f64).collect();
                hicond_linalg::vector::deflate_constant(&mut b);
                b
            })
            .collect();
        let solos = rhss
            .iter()
            .map(|b| bits(&solver.solve(b).expect("solo converges").x))
            .collect();
        (solver, rhss, solos)
    }

    #[test]
    fn lanes_answer_every_admitted_request_once_under_a_racing_shutdown() {
        const SUBMITTERS: usize = 8;
        const PER_SUBMITTER: usize = 50;
        let (solver, rhss, solos) = grid_fixture(5);
        let (rhss, solos) = (Arc::new(rhss), Arc::new(solos));
        let stats = Arc::new(ServeStats::new());
        let queue = BatchQueue::new(BatchConfig {
            max_batch: 3,
            window: Duration::from_millis(1),
            max_inflight: SUBMITTERS,
        });
        let dispatcher = rayon::pool::with_thread_cap(4, || {
            queue.start(Arc::clone(&solver), Arc::clone(&stats))
        });
        assert_eq!(stats.lanes(), 4, "one lane per pool thread at cap 4");
        let submitted = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (queue, rhss, solos, submitted) = (
                    Arc::clone(&queue),
                    Arc::clone(&rhss),
                    Arc::clone(&solos),
                    Arc::clone(&submitted),
                );
                std::thread::spawn(move || {
                    let mut answered = 0u64;
                    for i in 0..PER_SUBMITTER {
                        let j = (t + i) % rhss.len();
                        submitted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        // A lane counts a batch as solving until it has
                        // answered every member, so a descheduled lane can
                        // hold slots of requests already answered: a shed
                        // here is admission control working, so retry.
                        let rx = loop {
                            match queue.submit(rhss[j].clone(), (t * 1000 + i) as u64) {
                                Ok(rx) => break Some(rx),
                                Err(SubmitError::ShuttingDown) => break None,
                                Err(SubmitError::Busy { .. }) => std::thread::yield_now(),
                            }
                        };
                        let Some(rx) = rx else { break };
                        let sol = rx.recv().expect("answered").expect("converged");
                        assert_eq!(bits(&sol.x), solos[j], "submitter {t} request {i}");
                        // The lane dropped its sender after the one answer.
                        assert!(rx.recv().is_err(), "answered exactly once");
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        // Shut down while the last requests are still being submitted (or
        // as soon as a fast submitter is done, so a failing one cannot
        // stall this loop).
        let racing_at = SUBMITTERS * (PER_SUBMITTER - 5);
        while submitted.load(std::sync::atomic::Ordering::SeqCst) < racing_at
            && !submitters.iter().any(|h| h.is_finished())
        {
            std::thread::yield_now();
        }
        queue.shutdown();
        let answered: u64 = submitters
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .sum();
        dispatcher.join();
        assert_eq!(queue.depth(), 0, "drain left nothing behind");
        let report = queue.shutdown();
        assert_eq!(report.completed, answered, "every admitted rhs answered");
        assert!(answered > 0);
        let batches = stats.batch_size.count();
        assert!(batches > 0);
        assert_eq!(
            stats.batch_size.bucket_counts()[0],
            0,
            "no batch of size 0 was recorded"
        );
        assert_eq!(
            (stats.batch_size.mean() * batches as f64).round() as u64,
            answered,
            "batch sizes sum to the answered requests"
        );
    }

    #[test]
    fn a_non_finite_member_fails_alone_and_its_batch_mates_keep_their_bits() {
        const N: usize = 4;
        const BAD: usize = 1;
        let (solver, good, solos) = grid_fixture(N - 1);
        let mut rhss = good;
        let mut poisoned = rhss[0].clone();
        poisoned[3] = f64::NAN;
        rhss.insert(BAD, poisoned);
        for cap in [1, 2] {
            let stats = Arc::new(ServeStats::new());
            let queue = BatchQueue::new(BatchConfig {
                max_batch: N,
                window: Duration::from_secs(600),
                max_inflight: 4 * N,
            });
            let dispatcher = rayon::pool::with_thread_cap(cap, || {
                queue.start(Arc::clone(&solver), Arc::clone(&stats))
            });
            // Held open until all N are pending: one batch.
            let parsing = queue.arrival();
            let rxs: Vec<_> = rhss
                .iter()
                .enumerate()
                .map(|(i, b)| queue.submit(b.clone(), i as u64).expect("admitted"))
                .collect();
            let mut solo = solos.iter();
            for (i, rx) in rxs.into_iter().enumerate() {
                let res = rx.recv_timeout(NEVER).expect("answered");
                if i == BAD {
                    assert!(res.is_err(), "cap {cap}: NaN member got {res:?}");
                } else {
                    let sol = res.expect("good member converges");
                    assert_eq!(
                        Some(&bits(&sol.x)),
                        solo.next(),
                        "cap {cap}: member {i} equals its solo solve"
                    );
                }
            }
            assert_eq!(stats.batch_size.count(), 1, "cap {cap}: one batch");
            drop(parsing);
            queue.shutdown();
            dispatcher.join();
        }
    }

    #[test]
    fn a_panicking_batch_is_answered_and_the_lanes_keep_serving() {
        let (solver, rhss, solos) = grid_fixture(2);
        let stats = Arc::new(ServeStats::new());
        let queue = BatchQueue::new(BatchConfig {
            max_batch: 1,
            window: Duration::from_millis(1),
            max_inflight: 8,
        });
        const POISON: u64 = 666;
        assert!(queue.set_fault_hook(Box::new(|traces| {
            if traces.contains(&POISON) {
                panic!("injected solve fault");
            }
        })));
        let dispatcher = rayon::pool::with_thread_cap(2, || {
            queue.start(Arc::clone(&solver), Arc::clone(&stats))
        });
        let rx = queue.submit(rhss[0].clone(), POISON).expect("admitted");
        assert!(matches!(
            rx.recv().expect("the panicked batch is still answered"),
            Err(SolveError::Internal)
        ));
        assert_eq!(
            SolveError::Internal.to_string(),
            "internal",
            "replies read `ERR solve-failed: internal`"
        );
        // Later requests, concurrently and on whichever lane, still solve.
        let rxs: Vec<_> = (0..6)
            .map(|i| {
                (
                    i % 2,
                    queue
                        .submit(rhss[i % 2].clone(), i as u64)
                        .expect("admitted"),
                )
            })
            .collect();
        for (j, rx) in rxs {
            let sol = rx.recv().expect("answered").expect("converged");
            assert_eq!(bits(&sol.x), solos[j]);
        }
        queue.shutdown();
        dispatcher.join();
        assert_eq!(queue.depth(), 0, "the panicked batch left `solving`");
        assert_eq!(queue.shutdown().completed, 7);
    }
}
