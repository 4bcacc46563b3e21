//! Structured invariant checking shared across the workspace.
//!
//! Every core data structure (CSR matrices here; graphs, partitions and
//! tree-contraction state downstream) exposes two layers:
//!
//! * `check_invariants(..) -> Result<(), InvariantViolation>` — always
//!   compiled, callable on untrusted input in any build;
//! * `debug_invariants(..)` — a wrapper that panics on violation, compiled
//!   to a **no-op** unless `debug_assertions` is on (dev/test profiles) or
//!   the `check-invariants` cargo feature is enabled. Release builds pay
//!   nothing; `--features check-invariants` turns the validation back on
//!   in optimized builds for debugging production-sized inputs.
//!
//! A violation is structured rather than stringly: it names the crate,
//! structure and rule that failed plus witness indices, so harness code
//! can aggregate or snapshot violations mechanically.

use std::fmt;

/// A violated structural invariant: which structure, which rule, where.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Crate that owns the structure (e.g. `"hicond-linalg"`).
    pub krate: &'static str,
    /// Structure name (e.g. `"CsrMatrix"`).
    pub structure: &'static str,
    /// Rule identifier in kebab-case (e.g. `"cols-sorted"`).
    pub rule: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Indices witnessing the violation (rows, vertices, arcs — rule
    /// dependent; empty when the violation is global).
    pub witness: Vec<usize>,
}

impl InvariantViolation {
    /// Convenience constructor.
    pub fn new(
        krate: &'static str,
        structure: &'static str,
        rule: &'static str,
        message: impl Into<String>,
        witness: Vec<usize>,
    ) -> Self {
        InvariantViolation {
            krate,
            structure,
            rule,
            message: message.into(),
            witness,
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violation [{}::{}/{}]: {}",
            self.krate, self.structure, self.rule, self.message
        )?;
        if !self.witness.is_empty() {
            write!(f, " (witness: {:?})", self.witness)?;
        }
        Ok(())
    }
}

impl std::error::Error for InvariantViolation {}

/// True when invariant checking is compiled in (debug builds or the
/// `check-invariants` feature).
pub const fn invariant_checks_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "check-invariants"))
}

/// Panics with the violation if `result` is an error. Compiles to nothing
/// when invariant checks are disabled — callers should gate the *check*
/// itself (which may be O(n)) behind [`invariant_checks_enabled`] or use
/// the `debug_invariants` wrappers on each structure.
///
/// # Panics
/// Panics when `result` is `Err` and invariant checks are enabled.
#[inline]
pub fn enforce(result: Result<(), InvariantViolation>) {
    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    if let Err(v) = result {
        // audit: allow(panic-path) — aborting with the structured report is the contract here
        panic!("{v}");
    }
    #[cfg(not(any(debug_assertions, feature = "check-invariants")))]
    let _ = result;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_all_parts() {
        let v = InvariantViolation::new(
            "hicond-linalg",
            "CsrMatrix",
            "cols-sorted",
            "row 3 has unsorted columns",
            vec![3, 7],
        );
        let s = v.to_string();
        assert!(s.contains("hicond-linalg"));
        assert!(s.contains("CsrMatrix"));
        assert!(s.contains("cols-sorted"));
        assert!(s.contains("[3, 7]"));
    }

    #[test]
    fn enforce_ok_is_silent() {
        enforce(Ok(()));
    }

    fn violation() -> InvariantViolation {
        InvariantViolation::new("hicond-linalg", "CsrMatrix", "rule", "boom", vec![])
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    #[should_panic(expected = "invariant violation")]
    fn enforce_err_panics_in_debug() {
        enforce(Err(violation()));
    }

    #[test]
    #[cfg(not(any(debug_assertions, feature = "check-invariants")))]
    fn enforce_err_returns_when_checks_are_compiled_out() {
        enforce(Err(violation()));
    }
}
