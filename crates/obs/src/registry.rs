//! The global metric registry.
//!
//! A `Mutex<BTreeMap>` per metric family maps names to `Arc`-shared
//! instruments. Lookups take the mutex briefly; the instruments
//! themselves are atomic, so hot paths can cache a handle (an
//! `Arc<Counter>` / `Arc<Histogram>`) and record lock-free. BTreeMaps
//! keep exports deterministically sorted.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::sync::{AtomicU64, Mutex, Ordering};

use crate::histogram::Histogram;

/// Monotone counter.
///
/// ordering: all accesses are `Relaxed` — counter-role RMWs in the
/// analyzer's taxonomy (`relaxed-publication` rule). The value never
/// publishes other memory; readers tolerate a momentarily stale total.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Span timer: invocation count, total and max duration.
///
/// ordering: `Relaxed` throughout — each field is an independent
/// accumulator and `stat()` makes no cross-field atomicity claim (a
/// snapshot racing `record_ns` may see the count bumped before the
/// total; exports only ever read quiescent or monotone values).
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Timer {
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn stat(&self) -> TimerStat {
        TimerStat {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Timer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerStat {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    timers: BTreeMap<String, Arc<Timer>>,
}

/// A metric registry. The process-wide instance is [`global`]; tests can
/// use private instances to avoid cross-test interference.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, Inner> {
        // A poisoned registry (a panic while holding the lock) must not
        // cascade: observability is best-effort by design.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns (creating on first use) the named counter handle.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::default());
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// Returns (creating on first use) the named histogram handle.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new());
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Returns (creating on first use) the named timer handle.
    pub fn timer(&self, name: &str) -> Arc<Timer> {
        let mut inner = self.lock();
        if let Some(t) = inner.timers.get(name) {
            return t.clone();
        }
        let t = Arc::new(Timer::default());
        inner.timers.insert(name.to_string(), t.clone());
        t
    }

    /// Sets a gauge (last writer wins). Re-sets of an existing gauge
    /// borrow the name — only first use allocates the key.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut inner = self.lock();
        if let Some(g) = inner.gauges.get_mut(name) {
            *g = v;
        } else {
            inner.gauges.insert(name.to_string(), v);
        }
    }

    /// Copies the current state into a [`crate::Snapshot`].
    pub fn snapshot(&self) -> crate::Snapshot {
        let inner = self.lock();
        crate::Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            timers: inner
                .timers
                .iter()
                .map(|(k, t)| (k.clone(), t.stat()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        crate::export::HistStat {
                            count: h.count(),
                            mean: h.mean(),
                            buckets: h.bucket_counts(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Drops every registered instrument. Handles cached by callers stay
    /// usable but no longer appear in snapshots.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(r.counter("x").get(), 7);
    }

    #[test]
    fn concurrent_counter_increments_from_many_threads() {
        let r = std::sync::Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("shared");
                    for _ in 0..50_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 400_000);
    }

    #[test]
    fn timer_tracks_count_total_max() {
        let r = Registry::new();
        let t = r.timer("phase");
        t.record_ns(10);
        t.record_ns(30);
        let s = t.stat();
        assert_eq!((s.count, s.total_ns, s.max_ns), (2, 40, 30));
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.gauge_set("g", 2.0);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
    }
}
