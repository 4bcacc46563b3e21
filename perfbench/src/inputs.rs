//! Workload definitions and the inputs made from `--seed`: graphs,
//! right-hand sides, request lines and the open-loop send schedule.

use hicond::graph::generators::{self, OctParams};
use hicond::graph::Graph;

/// Graph each workload solves on. The graph itself is a workload
/// constant; `--seed` varies the right-hand sides and the schedule.
#[derive(Debug, Clone, Copy)]
pub enum GraphKind {
    /// `side × side` unit-weight 2D grid.
    Grid { side: usize },
    /// `side³` OCT-like volume (`oct_like_grid3d`, default parameters).
    Oct { side: usize, seed: u64 },
}

impl GraphKind {
    /// The graph at full size, or a small stand-in for smoke runs.
    pub fn build(self, smoke: bool) -> Graph {
        match self {
            GraphKind::Grid { side } => {
                let s = if smoke { 16 } else { side };
                generators::grid2d(s, s, |_, _| 1.0)
            }
            GraphKind::Oct { side, seed } => {
                let s = if smoke { 8 + side / 16 } else { side };
                generators::oct_like_grid3d(s, s, s, seed, OctParams::default())
            }
        }
    }
}

/// How a workload's server runs and is loaded.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Warm restarts against one populated artifact cache (`true`), or
    /// every start on a new, empty cache directory (`false`).
    pub warm_cache: bool,
    /// Client connections; `None` means one per hardware thread.
    pub conns: Option<usize>,
    /// `HICOND_SERVE_BATCH`; `None` means one per hardware thread.
    pub batch: Option<usize>,
    /// Fixed open-loop offered rate, requests per second.
    pub open_rate: f64,
    /// Share of `--seconds` spent in the open loop; the closed loop
    /// takes the rest.
    pub open_share: f64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphKind,
    /// End-to-end runs solve in process instead of over TCP. The traced
    /// run still drives `serve` with it, so every layer is measured on
    /// every workload.
    pub in_process: bool,
    pub serve: ServeSpec,
}

/// Server batch window, pinned so a change of the default shows.
pub const BATCH_WINDOW_MS: u64 = 2;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "grid96_serve",
        graph: GraphKind::Grid { side: 96 },
        in_process: false,
        serve: ServeSpec {
            warm_cache: true,
            conns: None,
            batch: None,
            open_rate: 10.0,
            open_share: 0.7,
        },
    },
    Workload {
        name: "oct32_cold",
        graph: GraphKind::Oct { side: 32, seed: 42 },
        in_process: false,
        serve: ServeSpec {
            warm_cache: false,
            conns: Some(1),
            batch: Some(8),
            open_rate: 6.0,
            open_share: 0.85,
        },
    },
    Workload {
        name: "oct48_solve",
        graph: GraphKind::Oct { side: 48, seed: 42 },
        in_process: true,
        serve: ServeSpec {
            warm_cache: false,
            conns: Some(1),
            batch: Some(8),
            open_rate: 2.0,
            open_share: 0.5,
        },
    },
    Workload {
        name: "oct16_solve",
        graph: GraphKind::Oct { side: 16, seed: 42 },
        in_process: true,
        serve: ServeSpec {
            warm_cache: false,
            conns: Some(1),
            batch: Some(8),
            open_rate: 2.0,
            open_share: 0.5,
        },
    },
    Workload {
        name: "oct24_solve",
        graph: GraphKind::Oct { side: 24, seed: 42 },
        in_process: true,
        serve: ServeSpec {
            warm_cache: false,
            conns: Some(1),
            batch: Some(8),
            open_rate: 2.0,
            open_share: 0.5,
        },
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: a small, fixed generator, so inputs depend on the seed
/// alone and never on the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` right-hand sides of length `n`: uniform in `[-1, 1)`, then
/// shifted to zero sum so they are consistent on a connected graph.
pub fn rhs_pool(n: usize, seed: u64, count: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 1);
    (0..count)
        .map(|_| {
            let mut b: Vec<f64> = (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect();
            let mean = b.iter().sum::<f64>() / n as f64;
            b.iter_mut().for_each(|v| *v -= mean);
            b
        })
        .collect()
}

/// The protocol line for one right-hand side, newline included. Values
/// print in shortest round-trip form, so the server parses exactly `b`.
pub fn request_line(b: &[f64]) -> String {
    let mut s = String::with_capacity(b.len() * 24);
    for (i, v) in b.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&v.to_string());
    }
    s.push('\n');
    s
}

/// Open-loop send times in seconds from the phase start, fixed before
/// the run starts: request `i` is due at a seeded point in the middle
/// half of slot `[i, i+1) / rate`, so gaps between requests range from
/// half to one and a half mean intervals.
pub fn schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 2);
    (0..count)
        .map(|i| (i as f64 + 0.25 + 0.5 * rng.unit()) / rate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(rhs_pool(50, 7, 2), rhs_pool(50, 7, 2));
        assert_ne!(rhs_pool(50, 7, 1), rhs_pool(50, 8, 1));
        let s = schedule(3, 10.0, 100);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s[99] < 10.0);
    }

    #[test]
    fn request_lines_round_trip() {
        let b = rhs_pool(20, 1, 1).remove(0);
        let parsed: Vec<f64> = request_line(&b)
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(parsed, b);
        assert!(b.iter().sum::<f64>().abs() < 1e-12);
    }
}
