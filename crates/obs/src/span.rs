//! RAII phase spans with parent/child nesting.
//!
//! A span opened while another span is live **on the same thread**
//! records under the '/'-joined path of all live span names, so
//! `span("solve")` followed by `span("pcg")` produces a `"solve/pcg"`
//! timer. The name stack is thread-local; spans opened on pool worker
//! threads start their own root (worker-side phases are attributed to
//! the phase name, not the dispatcher's stack — crossing threads would
//! require shipping context through the pool, which the engine keeps
//! deliberately oblivious to callers).
//!
//! When the mode is off, [`span`] returns an inert guard without touching
//! the clock, the stack, or the registry.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// `PATHS[d]` is the joined path of the live span at depth `d`. The
    /// strings are reused across opens, so a steady-state span performs
    /// no heap allocation (solver loops open spans every iteration).
    static PATHS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Span depth that [`reserve_thread`] presizes the thread-local buffers for.
const RESERVED_DEPTH: usize = 8;
/// Path length (bytes) that [`reserve_thread`] presizes each level for.
const RESERVED_PATH: usize = 128;

/// Presizes this thread's span stack and path buffers, so spans it opens
/// later (up to 8 deep, paths up to 128 bytes) never allocate. Pool
/// workers call this once at startup: which worker first runs a
/// span-opening unit is up to the scheduler, and without it that
/// worker's first span would allocate in the middle of a solve.
pub fn reserve_thread() {
    STACK.with(|s| s.borrow_mut().reserve(RESERVED_DEPTH));
    PATHS.with(|p| {
        let mut p = p.borrow_mut();
        while p.len() < RESERVED_DEPTH {
            p.push(String::with_capacity(RESERVED_PATH));
        }
    });
}

/// Guard for one span; records duration into the registry on drop.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    start: Option<Instant>,
    /// Stack depth of this span: its path lives in `PATHS[depth]`.
    depth: usize,
    /// Interned path id for the flight-recorder enter/exit events.
    name_id: u32,
}

/// Opens a span named `name`. Near-zero-cost no-op when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            start: None,
            depth: 0,
            name_id: 0,
        };
    }
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.len() - 1
    });
    // Intern once per open; exit reuses the id. The intern mutex is a
    // lock-order leaf like the registry lock.
    let name_id = PATHS.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() <= depth {
            p.resize_with(depth + 1, String::new);
        }
        let (parents, rest) = p.split_at_mut(depth);
        let Some(path) = rest.first_mut() else {
            return 0; // unreachable: resized to depth + 1 above
        };
        path.clear();
        if let Some(parent) = parents.last() {
            path.push_str(parent);
            path.push('/');
        }
        path.push_str(name);
        crate::flight::intern(path)
    });
    crate::flight::event(crate::flight::EventKind::SpanEnter, name_id, 0, 0);
    SpanGuard {
        start: Some(Instant::now()),
        depth,
        name_id,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Only pop/record if we actually pushed (mode may flip mid-span).
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            crate::flight::event(crate::flight::EventKind::SpanExit, self.name_id, ns, 0);
            PATHS.with(|p| {
                if let Some(path) = p.borrow().get(self.depth) {
                    crate::global().timer(path).record_ns(ns);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, Mode};

    #[test]
    fn nested_spans_record_joined_paths() {
        let _serial = crate::test_mode_lock();
        let prev = crate::mode();
        set_mode(Mode::Json);
        {
            let _outer = span("test_outer");
            let _inner = span("test_inner");
        }
        set_mode(prev);
        let snap = crate::snapshot();
        let keys: Vec<&str> = snap.timers.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"test_outer"));
        assert!(keys.contains(&"test_outer/test_inner"));
        // The stack unwound fully: a fresh span is a root again.
        set_mode(Mode::Json);
        drop(span("test_root2"));
        set_mode(prev);
        let snap = crate::snapshot();
        assert!(snap.timers.iter().any(|(k, _)| k == "test_root2"));
    }

    #[test]
    fn disabled_span_is_inert() {
        let _serial = crate::test_mode_lock();
        let prev = crate::mode();
        set_mode(Mode::Off);
        let g = span("never_recorded");
        assert!(g.start.is_none());
        drop(g);
        set_mode(prev);
    }
}
