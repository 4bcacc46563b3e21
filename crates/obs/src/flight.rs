//! The flight recorder: a fixed-capacity, lock-free MPSC ring buffer of
//! structured telemetry events (DESIGN.md §13).
//!
//! The snapshot exporters in this crate answer "what has the process done
//! since it started"; the flight recorder answers "what was it doing *just
//! now*" — the black-box question an operator of a long-running solve
//! service asks after a bad request or a crash. Every instrumented site
//! (span enter/exit, counter deltas, PCG residual milestones, cache
//! hits/misses, serve request open/close, pool task batches, anomaly
//! alarms) appends one fixed-size event to a process-global ring; the ring
//! is drained on demand (the `metrics` serve verb), and a panic hook dumps
//! the last events to stderr as JSON so every crash ships its own flight
//! record.
//!
//! ## Ring discipline
//!
//! The ring is an array of [`RING_CAP`] slots, each a handful of atomics.
//! A writer reserves a global sequence number with one `fetch_add`,
//! invalidates the stamp of slot `seq % RING_CAP`, writes the payload
//! fields with `Release`, and publishes by storing `seq.wrapping_add(1)`
//! into the slot's stamp with `Release`. Readers (drain, panic hook)
//! validate each slot seqlock-style: load the stamp, check it
//! structurally belongs to this slot (a stamp `s` is live for slot `idx`
//! iff `s.wrapping_sub(1) & mask == idx`, which no empty or invalidation
//! marker satisfies), `Acquire`-read the payload, re-load the stamp, and
//! discard the slot if the two loads disagree (a writer was mid-flight).
//! The payload accesses are Release/Acquire rather than Relaxed because
//! the stamp bracket alone is unsound under C11 — a reader may read-from
//! a next-lap payload store without its stamp re-check ever observing
//! the invalidation (found by the model checker; see `read_slot`). All sequence arithmetic is wrapping, so the ring keeps
//! working across `u64` sequence wraparound — there is no reserved stamp
//! value, only the structural validity check. There are **no locks and no
//! `unsafe`** anywhere on the write path: every slot field is an atomic,
//! so the worst possible race — a writer stalled for a full ring lap while
//! another writer overtakes its slot — can garble at most that one event's
//! payload, never memory safety, and the stamp re-check discards the torn
//! slot in all interleavings short of a full additional lap occurring
//! between a reader's two stamp loads. Such a writer, once it resumes,
//! republishes its own overtaken stamp; a drain reports only the last
//! `capacity` sequences below the head, so that stale event never
//! resurfaces. `tests/model.rs` explores the
//! writer/reader protocol exhaustively under the C11 memory model and
//! certifies the discard logic; `MODELS.md` records the result.
//!
//! When the ring wraps, old events are overwritten — the recorder keeps
//! the *last* `RING_CAP` events by design. When it does not wrap, a drain
//! observes exactly the events recorded, in global sequence order
//! (`tests/obs_stress.rs` pins both properties under pool contention and
//! seeded scheduler jitter).
//!
//! ## Cost and determinism
//!
//! Recording is gated on [`crate::enabled`], so `HICOND_OBS=off` keeps
//! the hot path at one relaxed load. Enabled, one event costs one
//! `fetch_add` plus five relaxed/release stores — no clock, no lock, no
//! allocation — and recorded values are always *derived from* computed
//! numerics, never fed back, so off/on runs stay bitwise identical
//! (`tests/determinism.rs`). The `bench_suite` obs-overhead phase measures
//! the enabled cost per PCG iteration and gates it below 3%.

use std::sync::OnceLock;

use crate::sync::{AtomicU32, AtomicU64, Mutex, MutexGuard, Ordering};

/// Number of slots in the ring (power of two; the last `RING_CAP` events
/// survive). 8192 slots × 40 B ≈ 320 KiB, allocated on first use.
pub const RING_CAP: usize = 8192;

/// Number of trailing events the panic hook dumps.
pub const PANIC_DUMP_EVENTS: usize = 256;

/// What happened. Stored in the event's packed meta word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A span opened; `name` is the '/'-joined span path.
    SpanEnter = 1,
    /// A span closed; `a` is the duration in nanoseconds.
    SpanExit = 2,
    /// A counter was bumped; `a` is the delta.
    CounterAdd = 3,
    /// PCG crossed a residual decade; `a` is the iteration, `b` the
    /// relative residual (f64 bits).
    ResidualMilestone = 4,
    /// Artifact cache hit.
    CacheHit = 5,
    /// Artifact cache miss.
    CacheMiss = 6,
    /// A serve request began; `a` is the session request ordinal.
    RequestOpen = 7,
    /// A serve request finished; `a` is 0 (ok) / 1 (error), `b` the
    /// latency in microseconds (f64 bits).
    RequestClose = 8,
    /// A pool participant finished a claim batch; `a` is the unit count.
    PoolTask = 9,
    /// A watchdog alarm (`anomaly/*`); `a` is the iteration, `b` a
    /// rule-specific f64 (bits).
    Anomaly = 10,
    /// A coalesced block solve began; recorded under the *batch* trace,
    /// `a` is the batch size (member count).
    BatchOpen = 11,
    /// One request joined a batch; recorded under the *member's* request
    /// trace, `a` is the batch trace id, `b` the member's column slot.
    BatchJoin = 12,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::SpanEnter,
            2 => EventKind::SpanExit,
            3 => EventKind::CounterAdd,
            4 => EventKind::ResidualMilestone,
            5 => EventKind::CacheHit,
            6 => EventKind::CacheMiss,
            7 => EventKind::RequestOpen,
            8 => EventKind::RequestClose,
            9 => EventKind::PoolTask,
            10 => EventKind::Anomaly,
            11 => EventKind::BatchOpen,
            12 => EventKind::BatchJoin,
            _ => return None,
        })
    }

    /// Stable lowercase label used in the JSON export.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::CounterAdd => "counter",
            EventKind::ResidualMilestone => "residual",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::RequestOpen => "req_open",
            EventKind::RequestClose => "req_close",
            EventKind::PoolTask => "pool_task",
            EventKind::Anomaly => "anomaly",
            EventKind::BatchOpen => "batch_open",
            EventKind::BatchJoin => "batch_join",
        }
    }
}

/// One ring slot. The stamp holds `seq.wrapping_add(1)` of the event it
/// carries; a slot is *live* iff `stamp.wrapping_sub(1) & mask == idx`
/// (see [`invalid_stamp`] for the empty/invalidation marker, which never
/// satisfies that check).
struct Slot {
    stamp: AtomicU64,
    /// Packed: bits 56..64 kind, 32..56 thread ordinal, 0..32 name id.
    meta: AtomicU64,
    trace: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    const fn new(stamp: u64) -> Slot {
        Slot {
            stamp: AtomicU64::new(stamp),
            meta: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A stamp that is never live for slot `idx`, used as both the initial
/// (never-written) value and the mid-write invalidation marker. Live
/// stamps for slot `idx` are exactly `{idx + 1 + k·cap (mod 2⁶⁴)}`;
/// `idx + 2` maps to slot `(idx + 1) & mask ≠ idx` for any `cap ≥ 2`,
/// so it fails the structural check in `read_slot` for every lap.
fn invalid_stamp(idx: usize) -> u64 {
    (idx as u64).wrapping_add(2)
}

fn pack_meta(kind: EventKind, thread: u32, name: u32) -> u64 {
    ((kind as u64) << 56) | (u64::from(thread & 0x00ff_ffff) << 32) | u64::from(name)
}

/// A decoded event, as returned by [`drain_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global monotone sequence number (allocation order).
    pub seq: u64,
    /// Recording thread's ordinal (see [`thread_ordinal`]).
    pub thread: u32,
    pub kind: EventKind,
    /// Interned name id; resolve with [`name_of`].
    pub name: u32,
    /// Request trace id active on the recording thread (0 = none).
    pub trace: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (often f64 bits).
    pub b: u64,
}

/// The recorder: slot array plus the global sequence allocator.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// `capacity - 1`; capacity is a power of two so `seq & mask` is the
    /// slot index for any (wrapping) sequence value.
    mask: u64,
    head: AtomicU64,
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder::with_capacity_and_start(RING_CAP, 0)
    }

    /// A recorder with `cap` slots whose first allocated sequence number
    /// is `start_seq`. The process-global recorder uses
    /// (`RING_CAP`, 0); tests use small rings and near-`u64::MAX` starts
    /// to exercise sequence wraparound.
    pub fn with_capacity_and_start(cap: usize, start_seq: u64) -> FlightRecorder {
        assert!(
            cap.is_power_of_two() && cap >= 2,
            "ring capacity must be a power of two >= 2"
        );
        let mut v = Vec::with_capacity(cap);
        for idx in 0..cap {
            v.push(Slot::new(invalid_stamp(idx)));
        }
        FlightRecorder {
            slots: v.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(start_seq),
        }
    }

    /// Next sequence number to be allocated == number of events ever
    /// recorded (modulo 2⁶⁴ for rings started near the wrap point).
    pub fn head(&self) -> u64 {
        // ordering: Relaxed suffices — head is a monotone allocation
        // counter; readers use it only as a progress watermark and the
        // per-slot stamps carry their own Release/Acquire publication.
        self.head.load(Ordering::Relaxed)
    }

    /// Appends one event. Lock-free: one RMW + five stores.
    pub fn record(&self, kind: EventKind, name: u32, trace: u64, a: u64, b: u64) {
        // Counter-role RMW: allocates a unique sequence number (wrapping
        // at u64, which the structural stamp check tolerates).
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq & self.mask) as usize;
        // bounds: masked by capacity - 1 (power of two), so < capacity
        // reach: allow(reach-index, the & self.mask computation bounds the index below the slot array length for any seq value)
        let slot = &self.slots[idx];
        // ordering: Release on the invalidation store makes the
        // not-live marker visible before any of the payload stores below
        // can be observed by a seqlock reader that already saw the
        // previous stamp — the reader's re-check then catches the
        // in-flight rewrite; pairs with the Acquire stamp loads in
        // `read_slot`.
        slot.stamp.store(invalid_stamp(idx), Ordering::Release);
        // Release payload stores: Relaxed would be wrong here, and not
        // hypothetically — the model checker refuted it (a reader two
        // laps behind can read-from a *newer* payload store while both
        // stamp loads still see the old stamp, because plain coherence
        // never forces the re-check to observe the invalidation). With
        // Release stores and the Acquire payload loads in `read_slot`,
        // a reader that observes any post-invalidation payload value
        // synchronizes past the invalidation stamp store above, so its
        // stamp re-check cannot match and the slot is discarded.
        let meta = pack_meta(kind, thread_ordinal(), name);
        // ordering: Release pairs with the Acquire payload loads in
        // `read_slot` (see block comment above).
        slot.meta.store(meta, Ordering::Release);
        // ordering: Release pairs with the Acquire payload loads in
        // `read_slot` (see block comment above).
        slot.trace.store(trace, Ordering::Release);
        // ordering: Release pairs with the Acquire payload loads in
        // `read_slot` (see block comment above).
        slot.a.store(a, Ordering::Release);
        self.mid_slot_pause(seq);
        // ordering: Release pairs with the Acquire payload loads in
        // `read_slot` (see block comment above).
        slot.b.store(b, Ordering::Release);
        // ordering: Release publishes the payload stores above; pairs with
        // the Acquire stamp loads in `read_slot`.
        slot.stamp.store(seq.wrapping_add(1), Ordering::Release);
    }

    /// Debug-build stall point between the payload stores, used by the
    /// torn-slot stress test to freeze a writer mid-slot while readers
    /// drain. Compiled out of release builds entirely.
    #[inline]
    #[allow(unused_variables)]
    fn mid_slot_pause(&self, seq: u64) {
        #[cfg(debug_assertions)]
        if let Some(hook) = MID_SLOT_HOOK.get() {
            hook(seq);
        }
    }

    /// The deliberately broken variant of [`record`] used to validate the
    /// model checker itself: it publishes the stamp *before* writing the
    /// payload, so an exhaustive exploration must find an interleaving
    /// where a reader accepts a half-written event. Exists only under the
    /// `model` feature; `tests/model.rs` asserts the checker refutes it.
    #[cfg(feature = "model")]
    pub fn record_buggy_publish(&self, kind: EventKind, name: u32, trace: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq & self.mask) as usize;
        // reach: allow(reach-index, the & self.mask computation bounds the index below the slot array length for any seq value)
        let slot = &self.slots[idx];
        // BUG (intentional): stamp goes live before the payload lands.
        slot.stamp.store(seq.wrapping_add(1), Ordering::Release);
        let meta = pack_meta(kind, thread_ordinal(), name);
        // ordering: deliberately unpublished — these payload stores land
        // after the stamp above, the seeded mutation the checker refutes.
        slot.meta.store(meta, Ordering::Relaxed);
        // ordering: deliberately unpublished (see above).
        slot.trace.store(trace, Ordering::Relaxed);
        // ordering: deliberately unpublished (see above).
        slot.a.store(a, Ordering::Relaxed);
        // ordering: deliberately unpublished (see above).
        slot.b.store(b, Ordering::Relaxed);
    }

    /// Seqlock read of one slot: `None` if empty or torn mid-write.
    fn read_slot(&self, idx: usize) -> Option<FlightEvent> {
        // reach: allow(reach-index, the only caller iterates idx over 0..slots.len(), the slot array length)
        let slot = &self.slots[idx];
        // ordering: Acquire pairs with the publishing Release store in
        // `record`, making the payload reads below see that event's data.
        let s1 = slot.stamp.load(Ordering::Acquire);
        // Structural liveness: a stamp belongs to this slot iff its
        // sequence maps back here. Empty and invalidation markers
        // (`invalid_stamp`) fail this for every lap, so no reserved stamp
        // value is needed and u64 sequence wraparound is harmless.
        if s1.wrapping_sub(1) & self.mask != idx as u64 {
            return None;
        }
        // ordering: Acquire payload loads pair with the Release payload
        // stores in `record`. The stamp bracket alone is not enough:
        // a Relaxed load here may read-from a payload store of the
        // *next* lap without ever observing the invalidation stamp
        // (model-checker counterexample). Acquire makes any such read
        // synchronize past the invalidation, so the re-check below
        // cannot match and the torn slot is discarded.
        let meta = slot.meta.load(Ordering::Acquire);
        let trace = slot.trace.load(Ordering::Acquire);
        let a = slot.a.load(Ordering::Acquire);
        let b = slot.b.load(Ordering::Acquire);
        // ordering: Acquire on the re-check keeps it ordered after the
        // payload loads (seqlock validation read); pairs with the Release
        // stamp stores in `record`.
        let s2 = slot.stamp.load(Ordering::Acquire);
        if s1 != s2 {
            return None; // a writer was rewriting this slot; skip it
        }
        let kind = EventKind::from_u8((meta >> 56) as u8)?;
        Some(FlightEvent {
            seq: s1.wrapping_sub(1),
            thread: ((meta >> 32) & 0x00ff_ffff) as u32,
            kind,
            name: (meta & 0xffff_ffff) as u32,
            trace,
            a,
            b,
        })
    }

    /// Collects every live event at or after the `since` watermark among
    /// the last `capacity` sequences, sorted by sequence. "At or after" is
    /// wrapping distance — `seq.wrapping_sub(since) < 2⁶³` — so drains
    /// behave across u64 sequence wraparound (the live window is at most
    /// `capacity` events wide, vastly below 2⁶³).
    ///
    /// Does not consume: the ring keeps overwriting in place. Callers
    /// doing periodic scrapes pass the previous watermark (`head()` at the
    /// last scrape) to get only new events.
    pub fn drain_since(&self, since: u64) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = Vec::new();
        for idx in 0..self.slots.len() {
            if let Some(ev) = self.read_slot(idx) {
                if ev.seq.wrapping_sub(since) < (1 << 63) {
                    out.push(ev);
                }
            }
        }
        // A writer stalled for a full lap republishes its own, overtaken
        // stamp, which still passes the structural check; the window below
        // the head keeps such an event out. Read after the scan, the head
        // is past every sequence read above: each Acquire stamp load
        // orders its writer's `fetch_add` before this load.
        let head = self.head();
        out.retain(|e| head.wrapping_sub(e.seq) <= self.mask + 1);
        // Wrapping distance from the watermark orders correctly even when
        // the window straddles the u64 wrap point.
        out.sort_by_key(|e| e.seq.wrapping_sub(since));
        out
    }
}

/// Debug-build writer stall hook: called with the event's sequence number
/// between the payload stores of every `record`. Install-once.
#[cfg(debug_assertions)]
static MID_SLOT_HOOK: OnceLock<Box<dyn Fn(u64) + Send + Sync>> = OnceLock::new();

/// Installs the mid-slot stall hook (debug builds only; first caller
/// wins, returns `false` if already installed). The torn-slot stress
/// test uses this to freeze a writer between its payload stores and
/// prove readers discard the half-written slot.
#[cfg(debug_assertions)]
pub fn set_mid_slot_hook(hook: Box<dyn Fn(u64) + Send + Sync>) -> bool {
    MID_SLOT_HOOK.set(hook).is_ok()
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(FlightRecorder::new)
}

// ---------------------------------------------------------------------
// Thread ordinals
// ---------------------------------------------------------------------

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ORDINAL: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Small dense id for the calling thread (1, 2, 3, … in first-recording
/// order; stable for the thread's lifetime). Ordinal 0 is never assigned.
pub fn thread_ordinal() -> u32 {
    // Under the model checker, executions reuse pooled OS threads, so the
    // per-thread cache would leak ordinals across explored executions;
    // bypass it and take a fresh ordinal per call (values are payload
    // only — no protocol assertion depends on them).
    #[cfg(feature = "model")]
    if hicond_model::in_model() {
        return NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    THREAD_ORDINAL.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        // Counter-role RMW; uniqueness is all that matters.
        let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

// ---------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_TRACE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Allocates a fresh nonzero trace id (`serve` calls this per request).
pub fn next_trace_id() -> u64 {
    // Counter-role RMW; ids only need to be unique within the process.
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id active on this thread (0 = none). Stamped into every
/// event recorded by this thread; the pool dispatcher forwards it to
/// workers so one request's events reassemble across threads.
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|t| t.get())
}

/// Sets the calling thread's trace id, returning the previous one.
/// Prefer [`trace_scope`] in request handlers; this raw form exists for
/// the pool, which must set/restore around a claim batch without RAII.
pub fn set_current_trace(id: u64) -> u64 {
    CURRENT_TRACE.with(|t| t.replace(id))
}

/// RAII guard restoring the previous trace id on drop.
pub struct TraceGuard {
    prev: u64,
}

/// Installs `id` as the thread's trace id for the guard's lifetime.
pub fn trace_scope(id: u64) -> TraceGuard {
    TraceGuard {
        prev: set_current_trace(id),
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        set_current_trace(self.prev);
    }
}

// ---------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------

struct Interner {
    by_name: std::collections::BTreeMap<String, u32>,
    names: Vec<String>,
}

static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();

fn interner() -> &'static Mutex<Interner> {
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: std::collections::BTreeMap::new(),
            names: vec!["?".to_string()], // id 0 = unknown
        })
    })
}

fn lock_interner() -> MutexGuard<'static, Interner> {
    // Telemetry is best-effort: a panic while interning must not cascade.
    match interner().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Interns `name`, returning its dense id. Hot call sites should intern
/// once and reuse the id; the lookup takes a short leaf mutex.
pub fn intern(name: &str) -> u32 {
    let mut i = lock_interner();
    if let Some(&id) = i.by_name.get(name) {
        return id;
    }
    let id = i.names.len() as u32;
    i.names.push(name.to_string());
    i.by_name.insert(name.to_string(), id);
    id
}

/// Resolves an interned id back to its name (`"?"` for unknown ids).
pub fn name_of(id: u32) -> String {
    let i = lock_interner();
    i.names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| "?".to_string())
}

// ---------------------------------------------------------------------
// Recording entry points
// ---------------------------------------------------------------------

/// Records one event when observability is enabled (one relaxed load
/// otherwise). The thread's current trace id is stamped automatically.
#[inline]
pub fn event(kind: EventKind, name: u32, a: u64, b: u64) {
    if crate::enabled() {
        recorder().record(kind, name, current_trace(), a, b);
    }
}

/// Records one event with a pre-resolved name string (interns per call;
/// prefer [`intern`] + [`event`] on hot paths).
#[inline]
pub fn event_named(kind: EventKind, name: &str, a: u64, b: u64) {
    if crate::enabled() {
        let id = intern(name);
        recorder().record(kind, id, current_trace(), a, b);
    }
}

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

fn f64_field(bits: u64) -> String {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders events as a JSON array (each element carries seq, thread,
/// kind, name, trace and kind-decoded payload fields). Validated by
/// [`crate::json::validate`] in tests.
pub fn render_events_json(events: &[FlightEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = crate::export::escape_json(&name_of(e.name));
        out.push_str(&format!(
            "{{\"seq\":{},\"thread\":{},\"kind\":\"{}\",\"name\":\"{}\",\"trace\":{}",
            e.seq,
            e.thread,
            e.kind.label(),
            name,
            e.trace
        ));
        match e.kind {
            EventKind::SpanExit => {
                out.push_str(&format!(",\"dur_ns\":{}", e.a));
            }
            EventKind::CounterAdd
            | EventKind::PoolTask
            | EventKind::RequestOpen
            | EventKind::BatchOpen => {
                out.push_str(&format!(",\"n\":{}", e.a));
            }
            EventKind::BatchJoin => {
                out.push_str(&format!(",\"batch_trace\":{},\"slot\":{}", e.a, e.b));
            }
            EventKind::ResidualMilestone => {
                out.push_str(&format!(
                    ",\"iter\":{},\"rel_residual\":{}",
                    e.a,
                    f64_field(e.b)
                ));
            }
            EventKind::RequestClose => {
                out.push_str(&format!(
                    ",\"err\":{},\"latency_us\":{}",
                    e.a,
                    f64_field(e.b)
                ));
            }
            EventKind::Anomaly => {
                out.push_str(&format!(",\"iter\":{},\"value\":{}", e.a, f64_field(e.b)));
            }
            EventKind::SpanEnter | EventKind::CacheHit | EventKind::CacheMiss => {}
        }
        out.push('}');
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------
// Panic hook: every crash ships its own black box
// ---------------------------------------------------------------------

static HOOK_INSTALLED: AtomicU32 = AtomicU32::new(0);

/// Installs a panic hook (once; chaining the previous hook) that dumps
/// the last [`PANIC_DUMP_EVENTS`] flight events to stderr as one JSON
/// line: `{"flight_recorder":{"head":…,"events":[…]}}`. A no-op dump
/// when recording never started; the previous hook always runs first so
/// the standard panic message is not suppressed.
pub fn install_panic_hook() {
    // ordering: Relaxed suffices for this once-latch swap — only the
    // 0 -> 1 transition installs, it publishes no data of its own, and
    // `set_hook` synchronizes the hook installation itself.
    if HOOK_INSTALLED.swap(1, Ordering::Relaxed) != 0 {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev(info);
        let rec = recorder();
        let head = rec.head();
        if head == 0 {
            return; // nothing recorded; keep crash output clean
        }
        // Wrapping, not saturating: if the sequence space has wrapped the
        // watermark must wrap with it, and when fewer than
        // PANIC_DUMP_EVENTS were ever recorded the wrapped watermark is
        // still (wrapping-)behind every live event, so all are kept.
        let since = head.wrapping_sub(PANIC_DUMP_EVENTS as u64);
        let events = rec.drain_since(since);
        eprintln!(
            "{{\"flight_recorder\":{{\"head\":{head},\"events\":{}}}}}",
            render_events_json(&events)
        );
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    #[test]
    fn ring_records_and_drains_in_order() {
        let rec = FlightRecorder::new();
        for i in 0..10u64 {
            rec.record(EventKind::CounterAdd, 1, 7, i, 0);
        }
        let events = rec.drain_since(0);
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.a, i as u64);
            assert_eq!(e.trace, 7);
            assert_eq!(e.kind, EventKind::CounterAdd);
        }
        assert_eq!(rec.head(), 10);
    }

    #[test]
    fn ring_wrap_keeps_last_events() {
        let rec = FlightRecorder::new();
        let total = (RING_CAP + 100) as u64;
        for i in 0..total {
            rec.record(EventKind::CounterAdd, 1, 0, i, 0);
        }
        let events = rec.drain_since(0);
        assert_eq!(events.len(), RING_CAP);
        // Exactly the last RING_CAP sequences survive, in order.
        assert_eq!(events[0].seq, total - RING_CAP as u64);
        assert_eq!(events.last().map(|e| e.seq), Some(total - 1));
        // drain_since trims to a watermark.
        let tail = rec.drain_since(total - 5);
        assert_eq!(tail.len(), 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn writer_overtaken_by_a_full_lap_is_not_drained() {
        // A writer frozen mid-slot while the ring laps it republishes its
        // own stamp over the newer event that took its slot. That stamp
        // passes the structural check, so only the drain's window —
        // the last `capacity` sequences below the head — keeps it out.
        use std::sync::atomic::AtomicBool;
        const CAP: usize = 4;
        // Far from any sequence another test's recorder reaches: the
        // hook is process-wide and sees every recorder's writes.
        const START: u64 = 0x5eed_0000_0000_0000;
        static STALLED: AtomicBool = AtomicBool::new(false);
        static RELEASED: AtomicBool = AtomicBool::new(false);
        assert!(
            set_mid_slot_hook(Box::new(|seq| {
                if seq == START {
                    STALLED.store(true, Ordering::Release);
                    while !RELEASED.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            })),
            "mid-slot hook already installed in this process"
        );
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity_and_start(CAP, START));
        let writer = {
            let rec = std::sync::Arc::clone(&rec);
            std::thread::spawn(move || rec.record(EventKind::CacheHit, 1, 0, 0, 0))
        };
        while !STALLED.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Lap the frozen writer: START + CAP reuses its slot.
        for i in 1..=CAP as u64 {
            rec.record(EventKind::CacheMiss, 2, 0, i, 0);
        }
        RELEASED.store(true, Ordering::Release);
        writer.join().expect("writer thread panicked");
        let seqs: Vec<u64> = rec.drain_since(START).iter().map(|e| e.seq).collect();
        // START + CAP lost its slot to the stale stamp; START itself is
        // older than the last CAP sequences and must not come back.
        assert_eq!(seqs, vec![START + 1, START + 2, START + 3]);
    }

    #[test]
    fn ring_survives_u64_sequence_wraparound() {
        // Start 5 events shy of the wrap point on a small ring: sequences
        // run MAX-4, MAX-3, …, MAX, 0, 1, … and the stamp (seq + 1) hits
        // the former "empty" sentinel 0 exactly at seq == u64::MAX.
        let start = u64::MAX - 4;
        let rec = FlightRecorder::with_capacity_and_start(8, start);
        for i in 0..12u64 {
            rec.record(EventKind::CounterAdd, 1, 0, i, 0);
        }
        assert_eq!(rec.head(), start.wrapping_add(12));
        // The ring holds the last 8 events; a drain from the pre-wrap
        // watermark must see them in recording order across the wrap.
        let events = rec.drain_since(start);
        assert_eq!(events.len(), 8);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.seq, start.wrapping_add(4 + k as u64));
            assert_eq!(e.a, 4 + k as u64, "payload tracks recording order");
        }
        // The event published with stamp 0 (seq == u64::MAX) is live, not
        // mistaken for an empty slot.
        assert!(events.iter().any(|e| e.seq == u64::MAX));
        // A post-wrap watermark trims correctly.
        let tail = rec.drain_since(2);
        assert_eq!(tail.len(), 5);
        assert_eq!(tail[0].seq, 2);
        assert_eq!(tail.last().map(|e| e.seq), Some(6));
    }

    #[test]
    fn intern_roundtrip_and_unknown() {
        let id = intern("flight/test_name");
        assert_eq!(intern("flight/test_name"), id, "interning is idempotent");
        assert_eq!(name_of(id), "flight/test_name");
        assert_eq!(name_of(u32::MAX), "?");
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        {
            let _g = trace_scope(11);
            assert_eq!(current_trace(), 11);
            {
                let _h = trace_scope(22);
                assert_eq!(current_trace(), 22);
            }
            assert_eq!(current_trace(), 11);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn event_gated_on_mode() {
        let _serial = crate::test_mode_lock();
        let prev = crate::mode();
        crate::set_mode(Mode::Off);
        let before = recorder().head();
        event_named(EventKind::CounterAdd, "flight/gated", 1, 0);
        assert_eq!(recorder().head(), before, "off mode records nothing");
        crate::set_mode(Mode::Json);
        event_named(EventKind::CounterAdd, "flight/gated", 1, 0);
        assert_eq!(recorder().head(), before + 1);
        crate::set_mode(prev);
    }

    #[test]
    fn events_render_valid_json() {
        let rec = FlightRecorder::new();
        let name = intern("flight/json_case");
        rec.record(EventKind::SpanEnter, name, 3, 0, 0);
        rec.record(EventKind::SpanExit, name, 3, 1234, 0);
        rec.record(
            EventKind::ResidualMilestone,
            name,
            3,
            17,
            (1.5e-6f64).to_bits(),
        );
        rec.record(EventKind::Anomaly, name, 3, 40, f64::NAN.to_bits());
        rec.record(EventKind::RequestClose, name, 3, 0, (250.0f64).to_bits());
        let js = render_events_json(&rec.drain_since(0));
        crate::json::validate(&js).expect("flight events must be valid JSON");
        assert!(js.contains("\"kind\":\"span_exit\""));
        assert!(js.contains("\"dur_ns\":1234"));
        assert!(js.contains("\"rel_residual\":0.0000015"));
        // NaN payloads degrade to null, never to invalid JSON.
        assert!(js.contains("\"value\":null"));
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let here = thread_ordinal();
        assert!(here > 0);
        let other = std::thread::spawn(thread_ordinal).join().expect("join");
        assert_ne!(here, other);
        assert_eq!(thread_ordinal(), here, "ordinal is stable per thread");
    }
}
