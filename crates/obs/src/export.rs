//! Snapshot type and the two exporters (text tree, JSON).

use crate::histogram::bucket_bounds;
use crate::registry::TimerStat;
use std::fmt::Write as _;

/// Histogram view inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    pub count: u64,
    pub mean: f64,
    /// Per-bucket counts, aligned with [`crate::bucket_bounds`].
    pub buckets: Vec<u64>,
}

/// Point-in-time copy of a registry, sorted by name within each family.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub timers: Vec<(String, TimerStat)>,
    pub histograms: Vec<(String, HistStat)>,
}

fn fmt_duration_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a snapshot as the human-readable phase-tree report
/// (`HICOND_OBS=text`). Span timers are indented by their '/' depth so
/// parent/child nesting reads as a tree; the registry's sorted order
/// already groups children under their parent.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hicond-obs report");
    if !snap.timers.is_empty() {
        let _ = writeln!(out, "spans:");
        for (path, t) in &snap.timers {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "{:indent$}{name:<28} count {:<6} total {:<12} max {}",
                "",
                t.count,
                fmt_duration_ns(t.total_ns),
                fmt_duration_ns(t.max_ns),
                indent = 2 + 2 * depth,
            );
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, h) in &snap.histograms {
            let _ = writeln!(out, "  {name}  count {}  mean {:.4}", h.count, h.mean);
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let (lo, hi) = bucket_bounds(b);
                match hi {
                    Some(hi) => {
                        let _ = writeln!(out, "    [{lo}, {hi}): {c}");
                    }
                    None => {
                        let _ = writeln!(out, "    [{lo}, inf): {c}");
                    }
                }
            }
        }
    }
    out
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    // reach: allow(reach-alloc, the capacity hint equals the input length and the inputs are process-generated instrument names and span paths — short strings the process itself created, never peer request bytes)
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_num(x: f64) -> String {
    // JSON has no NaN/Infinity; emit null for non-finite values.
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` on f64 always yields a valid JSON number (no inf/nan here).
        s
    } else {
        "null".to_string()
    }
}

/// Like [`json_num`] but counts every non-finite value degraded to
/// `null`, so the export can report how many samples it dropped instead
/// of silently papering over NaN/±inf.
fn json_num_counted(x: f64, dropped: &mut u64) -> String {
    if !x.is_finite() {
        *dropped += 1;
    }
    json_num(x)
}

/// Computes the delta of `cur` over `prev` for periodic scrapes (the
/// `metrics` serve verb, `hicond top`): what happened *since the last
/// snapshot*, not since process start.
///
/// Monotone families subtract (counters; timer count/total; histogram
/// count and per-bucket tallies — a delta mean is recovered from
/// `mean·count` sums); entries whose delta is zero are omitted so an
/// idle scrape is near-empty. Gauges are last-value semantics: the
/// current value is passed through only when it changed bitwise.
/// `max_ns` on timers is the current cumulative max (a max cannot be
/// windowed without storing per-window state).
pub fn delta_snapshot(prev: &Snapshot, cur: &Snapshot) -> Snapshot {
    fn lookup<'a, T>(v: &'a [(String, T)], name: &str) -> Option<&'a T> {
        v.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
    let counters = cur
        .counters
        .iter()
        .filter_map(|(name, v)| {
            let base = lookup(&prev.counters, name).copied().unwrap_or(0);
            let d = v.saturating_sub(base);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect();
    let gauges = cur
        .gauges
        .iter()
        .filter(|(name, v)| lookup(&prev.gauges, name).map(|p| p.to_bits()) != Some(v.to_bits()))
        .cloned()
        .collect();
    let timers = cur
        .timers
        .iter()
        .filter_map(|(name, t)| {
            let base = lookup(&prev.timers, name);
            let count = t.count.saturating_sub(base.map_or(0, |b| b.count));
            (count > 0).then(|| {
                (
                    name.clone(),
                    TimerStat {
                        count,
                        total_ns: t.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns)),
                        max_ns: t.max_ns,
                    },
                )
            })
        })
        .collect();
    let histograms = cur
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let base = lookup(&prev.histograms, name);
            let count = h.count.saturating_sub(base.map_or(0, |b| b.count));
            if count == 0 {
                return None;
            }
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .map(|(b, &c)| {
                    c.saturating_sub(base.and_then(|p| p.buckets.get(b)).copied().unwrap_or(0))
                })
                .collect();
            // Window mean from the cumulative sums; a non-finite
            // cumulative mean stays non-finite and the JSON layer counts
            // it as dropped.
            let sum_cur = h.mean * h.count as f64;
            let sum_prev = base.map_or(0.0, |b| b.mean * b.count as f64);
            let mean = (sum_cur - sum_prev) / count as f64;
            Some((
                name.clone(),
                HistStat {
                    count,
                    mean,
                    buckets,
                },
            ))
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        timers,
        histograms,
    }
}

/// Renders a snapshot as machine-readable JSON (`HICOND_OBS=json`).
/// Always a single valid JSON object; validated by [`crate::json`] in
/// tests and the bench harness. Non-finite gauges and histogram means
/// serialize as `null` and are tallied in the top-level
/// `"non_finite_dropped"` field so consumers can tell "no data" from
/// "data we could not represent".
pub fn render_json(snap: &Snapshot) -> String {
    let mut dropped: u64 = 0;
    let mut out = String::from("{");

    let _ = write!(out, "\"counters\":{{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape_json(name));
    }
    out.push('}');

    let _ = write!(out, ",\"gauges\":{{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{}",
            escape_json(name),
            json_num_counted(*v, &mut dropped)
        );
    }
    out.push('}');

    let _ = write!(out, ",\"spans\":{{");
    for (i, (name, t)) in snap.timers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
            escape_json(name),
            t.count,
            t.total_ns,
            t.max_ns
        );
    }
    out.push('}');

    let _ = write!(out, ",\"histograms\":{{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"mean\":{},\"buckets\":[",
            escape_json(name),
            h.count,
            json_num_counted(h.mean, &mut dropped)
        );
        let mut first = true;
        for (b, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let (lo, hi) = bucket_bounds(b);
            let hi = match hi {
                Some(hi) => json_num(hi),
                None => "null".to_string(),
            };
            let _ = write!(out, "{{\"lo\":{},\"hi\":{hi},\"count\":{c}}}", json_num(lo));
        }
        out.push_str("]}");
    }
    out.push('}');

    let _ = write!(out, ",\"non_finite_dropped\":{dropped}");
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut h = HistStat {
            count: 2,
            mean: 1.5,
            buckets: vec![0; crate::NUM_BUCKETS],
        };
        h.buckets[crate::bucket_index(1.0)] = 2;
        Snapshot {
            counters: vec![("cg/iterations".into(), 12)],
            gauges: vec![("rho".into(), 2.5), ("bad".into(), f64::NAN)],
            timers: vec![
                (
                    "solve".into(),
                    TimerStat {
                        count: 1,
                        total_ns: 1500,
                        max_ns: 1500,
                    },
                ),
                (
                    "solve/pcg".into(),
                    TimerStat {
                        count: 1,
                        total_ns: 1200,
                        max_ns: 1200,
                    },
                ),
            ],
            histograms: vec![("phi".into(), h)],
        }
    }

    #[test]
    fn json_export_is_valid_json() {
        let js = render_json(&sample());
        crate::json::validate(&js).expect("exporter must emit valid JSON");
        assert!(js.contains("\"cg/iterations\":12"));
        assert!(js.contains("\"solve/pcg\""));
        // NaN gauges become null, keeping the document parseable.
        assert!(js.contains("\"bad\":null"));
    }

    #[test]
    fn text_export_indents_children() {
        let txt = render_text(&sample());
        assert!(txt.contains("\n  solve "));
        assert!(
            txt.contains("\n    pcg "),
            "child span indented under parent:\n{txt}"
        );
        assert!(txt.contains("cg/iterations = 12"));
    }

    #[test]
    fn empty_snapshot_is_still_valid_json() {
        let js = render_json(&Snapshot::default());
        crate::json::validate(&js).expect("empty snapshot parses");
        assert!(js.contains("\"non_finite_dropped\":0"));
    }

    #[test]
    fn non_finite_values_become_null_and_are_counted() {
        // NaN/±inf in gauges and histogram means must degrade to null
        // (valid JSON) AND be tallied.
        let snap = Snapshot {
            counters: vec![],
            gauges: vec![
                ("nan".into(), f64::NAN),
                ("pinf".into(), f64::INFINITY),
                ("ninf".into(), f64::NEG_INFINITY),
                ("fine".into(), 1.25),
            ],
            timers: vec![],
            histograms: vec![(
                "h".into(),
                HistStat {
                    count: 1,
                    mean: f64::NAN,
                    buckets: vec![0; crate::NUM_BUCKETS],
                },
            )],
        };
        let js = render_json(&snap);
        crate::json::validate(&js).expect("non-finite snapshot must stay valid JSON");
        assert!(js.contains("\"nan\":null"));
        assert!(js.contains("\"pinf\":null"));
        assert!(js.contains("\"ninf\":null"));
        assert!(js.contains("\"fine\":1.25"));
        assert!(js.contains("\"mean\":null"));
        // 3 gauges + 1 mean.
        assert!(js.contains("\"non_finite_dropped\":4"), "{js}");
    }

    #[test]
    fn delta_snapshot_subtracts_and_omits_unchanged() {
        let mut prev = sample();
        let mut cur = sample();
        // Counter moved 12 -> 20; add a brand-new counter too.
        cur.counters[0].1 = 20;
        cur.counters.push(("fresh".into(), 3));
        // One gauge unchanged, one changed.
        prev.gauges = vec![("same".into(), 1.0), ("moved".into(), 1.0)];
        cur.gauges = vec![("same".into(), 1.0), ("moved".into(), 2.0)];
        // Timer accumulated one more call.
        cur.timers[0].1.count = 2;
        cur.timers[0].1.total_ns = 4000;
        // Histogram gained one sample of 4.0.
        cur.histograms[0].1.count = 3;
        cur.histograms[0].1.buckets[crate::bucket_index(4.0)] += 1;
        cur.histograms[0].1.mean = (1.5 * 2.0 + 4.0) / 3.0;

        let d = delta_snapshot(&prev, &cur);
        assert_eq!(
            d.counters,
            vec![("cg/iterations".to_string(), 8), ("fresh".to_string(), 3)]
        );
        assert_eq!(d.gauges, vec![("moved".to_string(), 2.0)]);
        assert_eq!(d.timers.len(), 1, "unchanged solve/pcg timer omitted");
        assert_eq!(d.timers[0].0, "solve");
        assert_eq!(d.timers[0].1.count, 1);
        assert_eq!(d.timers[0].1.total_ns, 2500);
        assert_eq!(d.histograms.len(), 1);
        let h = &d.histograms[0].1;
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets[crate::bucket_index(4.0)], 1);
        assert_eq!(h.buckets[crate::bucket_index(1.0)], 0);
        assert!((h.mean - 4.0).abs() < 1e-9, "window mean, not cumulative");

        // Identical snapshots produce an empty delta.
        let empty = delta_snapshot(&cur, &cur);
        assert!(empty.counters.is_empty());
        assert!(empty.gauges.is_empty());
        assert!(empty.timers.is_empty());
        assert!(empty.histograms.is_empty());
    }
}
