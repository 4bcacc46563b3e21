//! Cache traffic is observable: the artifact store's hit/miss/store
//! counters flow end to end through the obs registry.
//!
//! The counters are process-global, so this test has a binary of its
//! own: a sibling test loading or storing artifacts in the same process
//! would bump them between the `reset()` and the snapshot.

use hicond::artifact::Cache;
use hicond::graph::generators;
use hicond::precond::{load_or_build, SolverOptions, SolverSource};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hicond-artifact-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The paper's planar stress shape: a weighted 2-D grid.
fn planar_graph() -> hicond::graph::Graph {
    generators::grid2d(24, 24, |u, v| 1.0 + ((u * 5 + v * 3) % 7) as f64)
}

#[test]
fn cache_hit_miss_counters_flow_end_to_end() {
    hicond::obs::set_mode(hicond::obs::Mode::Json);
    hicond::obs::reset();
    let cache = Cache::at(tmpdir("counters"));
    let g = planar_graph();
    let opts = SolverOptions::default();

    let (_, s1) = load_or_build(&cache, &g, &opts).unwrap();
    let (_, s2) = load_or_build(&cache, &g, &opts).unwrap();
    assert_eq!((s1, s2), (SolverSource::Built, SolverSource::Loaded));

    let snap = hicond::obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("artifact/cache_miss"), 1);
    assert_eq!(counter("artifact/cache_hit"), 1);
    assert_eq!(counter("artifact/cache_store"), 1);
    assert_eq!(counter("artifact/cache_corrupt"), 0);
    hicond::obs::set_mode(hicond::obs::Mode::Off);
    let _ = std::fs::remove_dir_all(cache.dir());
}
