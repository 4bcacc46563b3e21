//! The canonical graph fingerprint used in the solver cache key. Graphs
//! themselves are never stored: a solver artifact carries the matrices
//! built from one, and its key names the graph by this hash.

use crate::graph::Graph;
use hicond_artifact::Fnv64;

/// Stable 64-bit content fingerprint of a graph: vertex count, edge count,
/// and every edge `(u, v, weight bits)` in canonical sorted order.
///
/// The fingerprint is a pure function of graph *content* — independent of
/// thread count, build order, and host word size — so it is safe to use as
/// a cross-run cache key. Two graphs share a fingerprint iff they have the
/// same vertex count and identical weighted edge sets (modulo the 64-bit
/// collision probability of FNV-1a).
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("hicond-graph-v1");
    h.write_usize(g.num_vertices());
    h.write_usize(g.num_edges());
    // Graph construction canonicalizes edges (u < v, sorted, merged), but
    // sort defensively so the fingerprint never depends on storage order.
    let mut edges: Vec<(u32, u32, u64)> = g
        .edges()
        .iter()
        .map(|e| (e.u, e.v, e.w.to_bits()))
        .collect();
    edges.sort_unstable();
    for (u, v, wbits) in edges {
        h.write_u32(u);
        h.write_u32(v);
        h.write_u64(wbits);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_content() {
        let g1 = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let g2 = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let g3 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let g4 = Graph::from_edges(3, &[(0, 1, 1.0), (0, 2, 1.0)]);
        let f1 = graph_fingerprint(&g1);
        assert_ne!(f1, graph_fingerprint(&g2), "weight change must change key");
        assert_ne!(f1, graph_fingerprint(&g3), "vertex count must change key");
        assert_ne!(f1, graph_fingerprint(&g4), "edge set must change key");
        // Insertion order must NOT change the key.
        let g1b = Graph::from_edges(3, &[(2, 1, 1.0), (1, 0, 1.0)]);
        assert_eq!(f1, graph_fingerprint(&g1b));
    }
}
