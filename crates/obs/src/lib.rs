//! # hicond-obs
//!
//! A from-scratch, offline, zero-external-dependency observability kernel
//! for the hicond workspace (DESIGN.md §8).
//!
//! The pipeline this repo implements — tree contraction, [φ, ρ]
//! decomposition, Steiner preconditioning, PCG — is a chain of numeric
//! phases whose *internal* behavior (iteration counts, cluster-quality
//! distributions, per-phase time, pool utilization) matters as much as the
//! final answer. This crate provides the substrate for extracting those
//! signals without perturbing the numerics:
//!
//! * a global [`Registry`] of **counters** (monotone `u64`), **gauges**
//!   (last-written `f64`), log₂-bucketed **histograms** and RAII **span**
//!   timers;
//! * [`span`]/[`span!`] RAII scopes with parent/child nesting: a span
//!   opened while another span is live on the same thread records under
//!   the '/'-joined path (`"solve/pcg/precond_apply"`);
//! * exporters rendering a snapshot as a human-readable tree report
//!   ([`render_text`]) or machine-readable JSON ([`render_json`]), plus a
//!   minimal recursive-descent JSON validator ([`json::validate`]) so CI
//!   can assert parseability without external crates.
//!
//! ## Modes and overhead
//!
//! The mode is latched from `HICOND_OBS` (`off` | `text` | `json`,
//! default `off`) on first use, and can be overridden programmatically
//! with [`set_mode`] (tests, bench harness). Every recording entry point
//! is guarded by [`enabled`], a single `Relaxed` atomic load — when
//! disabled, instrumented code pays one predictable branch and touches no
//! clocks, locks, or allocations. When enabled, recording writes atomics
//! and (for instrument lookups) takes a short registry mutex; crucially, no
//! recorded value ever feeds back into the numeric computation, so
//! `HICOND_OBS=off` and `HICOND_OBS=json` produce **bitwise-identical**
//! results at any thread cap (`tests/determinism.rs`).

use crate::sync::{AtomicU8, Ordering};

pub mod export;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod span;
pub mod sync;
pub mod watchdog;

pub use export::{delta_snapshot, render_json, render_text, Snapshot};
pub use flight::{
    current_trace, install_panic_hook, next_trace_id, set_current_trace, trace_scope, EventKind,
    FlightEvent, TraceGuard,
};
pub use histogram::{bucket_bounds, bucket_index, Histogram, NUM_BUCKETS};
pub use registry::{global, Registry};
pub use span::{span, SpanGuard};
pub use watchdog::Watchdog;

/// Observability mode, latched from `HICOND_OBS` or set programmatically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// No recording; instrumented code pays one relaxed atomic load.
    Off,
    /// Record; [`report`] renders the human-readable tree.
    Text,
    /// Record; [`report`] renders machine-readable JSON.
    Json,
}

const MODE_OFF: u8 = 0;
const MODE_TEXT: u8 = 1;
const MODE_JSON: u8 = 2;
const MODE_UNSET: u8 = 0xff;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

#[cold]
fn init_mode_from_env() -> Mode {
    let mode = match std::env::var("HICOND_OBS").ok().as_deref() {
        Some("text") => Mode::Text,
        Some("json") => Mode::Json,
        // Unknown values fall back to off: observability must never make a
        // binary refuse to run.
        _ => Mode::Off,
    };
    latch_env_mode(mode)
}

/// Installs the env-derived mode only if no explicit [`set_mode`] won the
/// latch first. Before the CAS fix, this path did an unconditional store,
/// so an env reader racing an explicit `set_mode` could clobber the
/// override ([`tests/model.rs` `obs_mode_latch`] explores every
/// interleaving of that pair and certifies the explicit mode now wins).
fn latch_env_mode(mode: Mode) -> Mode {
    let v = mode_byte(mode);
    // ordering: Relaxed suffices — the latch byte is standalone (see
    // `mode()`); the CAS provides the needed atomicity, not ordering.
    match MODE.compare_exchange(MODE_UNSET, v, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => mode,
        // Lost the race to an explicit set_mode (or another env reader):
        // honor whatever won.
        Err(cur) => mode_from_byte(cur),
    }
}

/// Model-check entry point for the env-latch path: what
/// [`init_mode_from_env`] does after parsing, minus the process-global
/// `std::env` read (environment access is not modeled).
#[cfg(feature = "model")]
pub fn model_latch_env_mode(mode: Mode) -> Mode {
    latch_env_mode(mode)
}

fn mode_byte(mode: Mode) -> u8 {
    match mode {
        Mode::Off => MODE_OFF,
        Mode::Text => MODE_TEXT,
        Mode::Json => MODE_JSON,
    }
}

fn mode_from_byte(v: u8) -> Mode {
    match v {
        MODE_TEXT => Mode::Text,
        MODE_JSON => Mode::Json,
        _ => Mode::Off,
    }
}

/// Current mode, reading `HICOND_OBS` on first call.
#[inline]
pub fn mode() -> Mode {
    // ordering: Relaxed suffices — MODE is a standalone latch that guards
    // no other memory. Readers act only on the latch value itself; all
    // instrument state lives behind the registry mutex, which does its
    // own synchronization. A racing reader near a mode flip may record or
    // skip one event, which is the documented semantics of flipping the
    // mode mid-run.
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => Mode::Off,
        MODE_TEXT => Mode::Text,
        MODE_JSON => Mode::Json,
        _ => init_mode_from_env(),
    }
}

/// Overrides the mode (tests and the bench harness; wins over the env).
pub fn set_mode(mode: Mode) {
    // ordering: Relaxed suffices — the store publishes nothing beyond the
    // latch byte itself (see the matching load in `mode()`); no dependent
    // data is handed off through MODE.
    MODE.store(mode_byte(mode), Ordering::Relaxed);
}

/// The hot-path guard: `true` iff recording is on. One `Relaxed` load.
#[inline]
pub fn enabled() -> bool {
    !matches!(mode(), Mode::Off)
}

/// Adds `v` to the named counter (no-op when disabled). Also appends a
/// `counter` event to the flight recorder so recent deltas are visible in
/// ring drains and panic dumps (call sites are per-phase/per-solve, not
/// per-iteration, so the ring is not flooded).
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        global().counter(name).add(v);
        flight::event_named(flight::EventKind::CounterAdd, name, v, 0);
    }
}

/// Sets the named gauge to `v` (last writer wins; no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        global().gauge_set(name, v);
    }
}

/// Records `x` into the named log₂ histogram (no-op when disabled).
#[inline]
pub fn hist_record(name: &str, x: f64) {
    if enabled() {
        global().histogram(name).record(x);
    }
}

/// Takes a [`Snapshot`] of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry (tests; existing handles stay valid but
/// detached from future snapshots).
pub fn reset() {
    global().reset();
}

/// Renders the global registry to stderr in the current mode's format.
/// A no-op when the mode is [`Mode::Off`].
pub fn report() {
    match mode() {
        Mode::Off => {}
        Mode::Text => eprintln!("{}", render_text(&snapshot())),
        Mode::Json => eprintln!("{}", render_json(&snapshot())),
    }
}

/// RAII phase scope: `let _g = span!("decomposition");`. Nested spans
/// record under '/'-joined paths. Expands to [`span`].
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
}

/// Serializes tests that flip the global [`Mode`]; the test harness runs
/// tests in parallel and a concurrent `set_mode` would race.
#[cfg(test)]
pub(crate) fn test_mode_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrip_and_enabled_guard() {
        let _serial = crate::test_mode_lock();
        let prev = mode();
        set_mode(Mode::Off);
        assert!(!enabled());
        set_mode(Mode::Json);
        assert!(enabled());
        assert_eq!(mode(), Mode::Json);
        set_mode(Mode::Text);
        assert_eq!(mode(), Mode::Text);
        set_mode(prev);
    }
}
