//! Shared utilities for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the experiment index); this library provides the
//! table printer, timing helpers, and the standard workloads so all
//! experiments stay comparable.

use std::time::Instant;

/// Simple fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths = headers.iter().map(|h| h.len().max(8)).collect();
        Table {
            headers,
            widths,
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let line = |cells: &[String], widths: &[usize]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>width$}", width = w))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.headers, &self.widths);
        let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&sep, &self.widths);
        for r in &self.rows {
            line(r, &self.widths);
        }
    }
}

/// Times a closure, returning `(result, milliseconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // audit: allow(instant-now) — the bench harness measures wall time itself
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Median wall-clock milliseconds over `reps` runs (min 1).
pub fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let reps = reps.max(1);
    let mut times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    // total_cmp: elapsed times are finite; same order as partial_cmp.
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median wall-clock **nanoseconds** over `reps` runs (min 1); the
/// resolution the `bench_suite` trajectory records.
pub fn timed_median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let reps = reps.max(1);
    let mut times: Vec<u64> = (0..reps)
        .map(|_| {
            // audit: allow(instant-now) — the bench harness measures wall time itself
            let t = Instant::now();
            let out = f();
            let ns = t.elapsed().as_nanos() as u64;
            drop(out);
            ns
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Interleaved A/B timing: alternates the two closures for `reps` rounds
/// and returns `(median_a_ns, median_b_ns)`. Back-to-back blocks alias
/// slow drift (VM frequency scaling, cache state, CPU steal) into the
/// variant difference; alternating invocations expose both variants to the
/// same drift. Both closures run once untimed first to warm their paths.
pub fn timed_median_pair_ns(reps: usize, run_a: impl FnMut(), run_b: impl FnMut()) -> (u64, u64) {
    let pairs = timed_pairs_ns(reps, run_a, run_b);
    let mut ta: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let mut tb: Vec<u64> = pairs.iter().map(|p| p.1).collect();
    ta.sort_unstable();
    tb.sort_unstable();
    (ta[ta.len() / 2], tb[tb.len() / 2])
}

/// The rounds behind [`timed_median_pair_ns`]: `max(reps, 1)` interleaved
/// `(a_ns, b_ns)` timings, in round order, after one untimed warm-up of
/// each closure. A statistic over per-round ratios cancels drift slower
/// than one round, which two separate medians do not.
pub fn timed_pairs_ns(
    reps: usize,
    mut run_a: impl FnMut(),
    mut run_b: impl FnMut(),
) -> Vec<(u64, u64)> {
    run_a();
    run_b();
    (0..reps.max(1))
        .map(|_| {
            // audit: allow(instant-now) — the bench harness measures wall time itself
            let t = Instant::now();
            run_a();
            let a = t.elapsed().as_nanos() as u64;
            // audit: allow(instant-now) — the bench harness measures wall time itself
            let t = Instant::now();
            run_b();
            (a, t.elapsed().as_nanos() as u64)
        })
        .collect()
}

/// One measurement row of the machine-readable benchmark trajectory
/// (`BENCH_pr2.json`); future PRs diff their numbers against these.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Workload name (`spmv`, `pcg`, `treecontract`, `planar`).
    pub workload: String,
    /// Problem dimension (vertices / rows).
    pub n: usize,
    /// Nonzeros (matrix workloads) or edges (graph workloads).
    pub nnz: usize,
    /// Thread cap the measurement ran under.
    pub threads: usize,
    /// Median wall-clock nanoseconds.
    pub median_ns: u64,
    /// `median_ns(1 thread) / median_ns(this)` for the same workload.
    pub speedup: f64,
}

/// One row of the kernel-level cost table: a kernel variant (e.g. blocked
/// vs unblocked SpMV) normalized to per-nonzero cost.
///
/// `ns_per_nnz` is wall-clock nanoseconds per processed nonzero — the
/// portable stand-in for cycles-per-nnz (multiply by the machine's GHz to
/// get cycles; no TSC calibration is attempted). `bytes_per_nnz` is the
/// *modelled* streamed memory traffic per nonzero (indices + values +
/// vector sweeps), a roofline denominator, not a measurement.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel family (`spmv`, `pcg`).
    pub kernel: String,
    /// Variant within the family (`unblocked`, `blocked`, `unfused`, `fused`).
    pub variant: String,
    /// Problem dimension (rows).
    pub n: usize,
    /// Nonzeros processed per kernel invocation.
    pub nnz: usize,
    /// Thread cap the measurement ran under.
    pub threads: usize,
    /// Median wall-clock nanoseconds per invocation.
    pub median_ns: u64,
    /// `median_ns / nnz` (for iterative kernels, per iteration·nnz).
    pub ns_per_nnz: f64,
    /// Modelled streamed bytes per nonzero.
    pub bytes_per_nnz: f64,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes the benchmark trajectory to pretty-printed JSON. `meta`
/// key/value pairs (machine description, date, mode) land in a top-level
/// `"meta"` object next to the `"results"` array. `kernels`, when
/// non-empty, lands under a top-level `"kernels"` array (the per-nnz cost
/// table). Each `(key, value)` in `sections` must be a pre-rendered JSON
/// value (e.g. the `hicond_obs` snapshot under `"metrics"`, the
/// observability cost gate under `"obs_overhead"`) and is embedded
/// verbatim under its top-level key, in order.
pub fn bench_json(
    meta: &[(&str, String)],
    records: &[BenchRecord],
    kernels: &[KernelRecord],
    sections: &[(&str, &str)],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"meta\": {\n");
    for (i, (k, v)) in meta.iter().enumerate() {
        let comma = if i + 1 < meta.len() { "," } else { "" };
        s.push_str(&format!(
            "    \"{}\": \"{}\"{comma}\n",
            json_escape(k),
            json_escape(v)
        ));
    }
    s.push_str("  },\n");
    for (key, body) in sections {
        s.push_str(&format!("  \"{}\": ", json_escape(key)));
        s.push_str(body.trim());
        s.push_str(",\n");
    }
    if !kernels.is_empty() {
        s.push_str("  \"kernels\": [\n");
        for (i, k) in kernels.iter().enumerate() {
            let comma = if i + 1 < kernels.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"nnz\": {}, \"threads\": {}, \"median_ns\": {}, \"ns_per_nnz\": {:.4}, \"bytes_per_nnz\": {:.2}}}{comma}\n",
                json_escape(&k.kernel),
                json_escape(&k.variant),
                k.n,
                k.nnz,
                k.threads,
                k.median_ns,
                k.ns_per_nnz,
                k.bytes_per_nnz
            ));
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"nnz\": {}, \"threads\": {}, \"median_ns\": {}, \"speedup\": {:.4}}}{comma}\n",
            json_escape(&r.workload),
            r.n,
            r.nnz,
            r.threads,
            r.median_ns,
            r.speedup
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
    // exact: only a literal zero should print as "0"
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// A deterministic consistent (zero-sum) right-hand side.
pub fn consistent_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| (((i as u64 + seed) * 2654435761) % 997) as f64 / 498.5 - 1.0)
        .collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // smoke: must not panic
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1234.5).contains('e'));
        assert!(fmt(0.001).contains('e'));
        assert_eq!(fmt(1.5), "1.5000");
    }

    #[test]
    fn rhs_consistent() {
        let b = consistent_rhs(100, 3);
        assert!(b.iter().sum::<f64>().abs() < 1e-10);
    }

    #[test]
    fn median_ns_positive() {
        let ns = timed_median_ns(3, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(ns > 0);
    }

    #[test]
    fn median_pair_interleaves() {
        let (a, b) = timed_median_pair_ns(
            5,
            || {
                std::hint::black_box((0..500).sum::<u64>());
            },
            || {
                std::hint::black_box((0..500).product::<u64>());
            },
        );
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn bench_json_shape() {
        let recs = vec![BenchRecord {
            workload: "spmv".into(),
            n: 100,
            nnz: 500,
            threads: 4,
            median_ns: 1234,
            speedup: 2.5,
        }];
        let s = bench_json(&[("mode", "smoke \"quoted\"".into())], &recs, &[], &[]);
        assert!(s.contains("\"workload\": \"spmv\""));
        assert!(s.contains("\"median_ns\": 1234"));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert!(!s.contains("\"metrics\""));
        assert!(!s.contains("\"kernels\""));
    }

    #[test]
    fn bench_json_embeds_prerendered_sections() {
        let s = bench_json(
            &[("mode", "smoke".into())],
            &[],
            &[],
            &[
                ("metrics", "{\"counters\": {\"cg/iterations\": 7}}"),
                ("obs_overhead", "{\"overhead_pct\": 1.25}"),
            ],
        );
        assert!(s.contains("\"metrics\": {\"counters\""));
        assert!(s.contains("\"cg/iterations\": 7"));
        assert!(s.contains("\"obs_overhead\": {\"overhead_pct\": 1.25}"));
    }

    #[test]
    fn bench_json_renders_kernel_table() {
        let kernels = vec![
            KernelRecord {
                kernel: "spmv".into(),
                variant: "blocked".into(),
                n: 100,
                nnz: 480,
                threads: 1,
                median_ns: 960,
                ns_per_nnz: 2.0,
                bytes_per_nnz: 21.67,
            },
            KernelRecord {
                kernel: "pcg".into(),
                variant: "fused".into(),
                n: 100,
                nnz: 480,
                threads: 1,
                median_ns: 4800,
                ns_per_nnz: 2.0,
                bytes_per_nnz: 43.33,
            },
        ];
        let s = bench_json(&[("mode", "smoke".into())], &[], &kernels, &[]);
        assert!(s.contains("\"kernels\": ["));
        assert!(s.contains("\"variant\": \"blocked\""));
        assert!(s.contains("\"ns_per_nnz\": 2.0000"));
        assert!(s.contains("\"bytes_per_nnz\": 21.67"));
        // Two rows: exactly one trailing-comma-free closer before "results".
        assert!(s.contains("\"variant\": \"fused\", "));
    }
}
