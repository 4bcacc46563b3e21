//! The weighted undirected [`Graph`] type.

use hicond_linalg::InvariantViolation;
use rayon::prelude::*;

/// A unique undirected edge `{u, v}` with `u < v` and positive weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// Positive weight.
    pub w: f64,
}

/// Weighted undirected graph in CSR adjacency form.
///
/// Stores, per vertex, the sorted neighbor list with weights and the id of
/// the *undirected* edge each adjacency entry came from, plus the unique
/// edge list itself. Self-loops are rejected; parallel edges are merged by
/// weight summation at build time.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    adj_ptr: Vec<usize>,
    adj: Vec<u32>,
    adj_w: Vec<f64>,
    adj_eid: Vec<u32>,
    edges: Vec<Edge>,
    vol: Vec<f64>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list. Duplicate edges
    /// (in either orientation) are merged by summing weights.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or non-positive or
    /// non-finite weights.
    pub fn from_edges(n: usize, list: &[(usize, usize, f64)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in list {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of unique undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The unique undirected edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Degree (number of distinct neighbors) of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj_ptr[v + 1] - self.adj_ptr[v]
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Total incident weight `vol(v)` of vertex `v` (paper Section 2).
    pub fn vol(&self, v: usize) -> f64 {
        self.vol[v]
    }

    /// Cached volume vector.
    pub fn volumes(&self) -> &[f64] {
        &self.vol
    }

    /// `vol(V') = Σ_{v ∈ set} vol(v)`.
    pub fn vol_set(&self, set: &[usize]) -> f64 {
        set.iter().map(|&v| self.vol[v]).sum()
    }

    /// Total volume `Σ_v vol(v) = 2 Σ_e w(e)`.
    pub fn total_volume(&self) -> f64 {
        2.0 * self.total_weight()
    }

    /// Total edge weight `Σ_e w(e)`.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Iterates `(neighbor, weight, edge_id)` for vertex `v`, neighbors
    /// ascending.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, f64, usize)> + '_ {
        let lo = self.adj_ptr[v];
        let hi = self.adj_ptr[v + 1];
        (lo..hi).map(move |k| {
            (
                self.adj[k] as usize,
                self.adj_w[k],
                self.adj_eid[k] as usize,
            )
        })
    }

    /// Weight of edge `{u, v}` or 0 if absent.
    pub fn edge_weight(&self, u: usize, v: usize) -> f64 {
        let lo = self.adj_ptr[u];
        let hi = self.adj_ptr[u + 1];
        match self.adj[lo..hi].binary_search(&(v as u32)) {
            Ok(k) => self.adj_w[lo + k],
            Err(_) => 0.0,
        }
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_weight(u, v) > 0.0
    }

    /// The heaviest incident edge of `v`: `(neighbor, weight, edge_id)`.
    /// Ties break toward the smaller neighbor id (neighbors are sorted).
    /// Returns `None` for isolated vertices.
    pub fn heaviest_incident(&self, v: usize) -> Option<(usize, f64, usize)> {
        let mut best: Option<(usize, f64, usize)> = None;
        for (u, w, eid) in self.neighbors(v) {
            match best {
                None => best = Some((u, w, eid)),
                Some((_, bw, _)) if w > bw => best = Some((u, w, eid)),
                _ => {}
            }
        }
        best
    }

    /// Induced subgraph on `keep` (need not be sorted; duplicates rejected).
    /// Vertex `keep[i]` becomes vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` lists a vertex twice or out of range.
    pub fn induced_subgraph(&self, keep: &[usize]) -> Graph {
        let mut inv = vec![u32::MAX; self.n];
        for (new, &old) in keep.iter().enumerate() {
            assert!(inv[old] == u32::MAX, "induced_subgraph: duplicate vertex");
            inv[old] = new as u32;
        }
        let mut b = GraphBuilder::new(keep.len());
        for e in &self.edges {
            let (iu, iv) = (inv[e.u as usize], inv[e.v as usize]);
            if iu != u32::MAX && iv != u32::MAX {
                b.add_edge(iu as usize, iv as usize, e.w);
            }
        }
        b.build()
    }

    /// New graph with the same structure and weights transformed by `f`
    /// (must stay positive).
    pub fn map_weights<F: Fn(usize, &Edge) -> f64>(&self, f: F) -> Graph {
        let list: Vec<(usize, usize, f64)> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| (e.u as usize, e.v as usize, f(i, e)))
            .collect();
        Graph::from_edges(self.n, &list)
    }

    /// Validates the structural invariants of the adjacency form: CSR
    /// shape, no self-loops, positive finite weights, symmetric adjacency
    /// (every arc has its reverse with equal weight and edge id), sorted
    /// neighbor lists, and cached volumes matching incident weight sums.
    ///
    /// Always compiled; use [`Graph::debug_invariants`] for the
    /// zero-cost-in-release variant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |rule: &'static str, message: String, witness: Vec<usize>| {
            Err(InvariantViolation::new(
                "hicond-graph",
                "Graph",
                rule,
                message,
                witness,
            ))
        };
        if self.adj_ptr.len() != self.n + 1
            || self.adj_ptr.first() != Some(&0)
            || self.adj_ptr.last() != Some(&self.adj.len())
            || self.adj.len() != self.adj_w.len()
            || self.adj.len() != self.adj_eid.len()
            || self.adj.len() != 2 * self.edges.len()
            || self.vol.len() != self.n
        {
            return fail(
                "csr-shape",
                format!(
                    "inconsistent array lengths: n = {}, {} arcs, {} edges",
                    self.n,
                    self.adj.len(),
                    self.edges.len()
                ),
                vec![],
            );
        }
        for (eid, e) in self.edges.iter().enumerate() {
            if e.u >= e.v {
                return fail(
                    "edges-canonical",
                    format!("edge {eid} is ({}, {}), expected u < v", e.u, e.v),
                    vec![eid],
                );
            }
            if (e.v as usize) >= self.n {
                return fail(
                    "edges-in-bounds",
                    format!("edge {eid} endpoint {} out of range", e.v),
                    vec![eid, e.v as usize],
                );
            }
            if !(e.w > 0.0 && e.w.is_finite()) {
                return fail(
                    "weights-positive",
                    format!("edge {eid} has weight {}", e.w),
                    vec![eid],
                );
            }
        }
        // A validator must be total: every access below is `get`-based, so
        // even a CSR whose interior pointers are wild (possible only for
        // data that has not passed construction) reports a violation
        // instead of panicking.
        for v in 0..self.n {
            let row = self
                .adj_ptr
                .get(v)
                .zip(self.adj_ptr.get(v + 1))
                .map(|(&lo, &hi)| (lo, hi));
            let Some((lo, hi)) = row else {
                return fail("csr-shape", format!("adj_ptr misses vertex {v}"), vec![v]);
            };
            if lo > hi || hi > self.adj.len() {
                return fail(
                    "adj-ptr-monotone",
                    format!("adj_ptr row [{lo}, {hi}) invalid at vertex {v}"),
                    vec![v],
                );
            }
            let mut vol = 0.0;
            let mut prev: Option<u32> = None;
            for k in lo..hi {
                let arc = self
                    .adj
                    .get(k)
                    .zip(self.adj_w.get(k))
                    .zip(self.adj_eid.get(k));
                let Some(((&au, &w), &eid32)) = arc else {
                    return fail("csr-shape", format!("arc {k} out of range"), vec![v, k]);
                };
                let u = au as usize;
                if u >= self.n {
                    return fail(
                        "adj-in-bounds",
                        format!("vertex {v} has neighbor {u} out of range"),
                        vec![v, u],
                    );
                }
                if u == v {
                    return fail("no-self-loops", format!("vertex {v} lists itself"), vec![v]);
                }
                if prev.is_some_and(|p| p >= au) {
                    return fail(
                        "adj-sorted",
                        format!("vertex {v} neighbor list not strictly increasing"),
                        vec![v, u],
                    );
                }
                prev = Some(au);
                let eid = eid32 as usize;
                vol += w;
                let matches_edge = self.edges.get(eid).is_some_and(|e| {
                    // bitwise equality: the adjacency stores each Edge
                    // record twice verbatim, so exact == is intended.
                    e.w == w
                        && ((e.u as usize == v && e.v as usize == u)
                            || (e.u as usize == u && e.v as usize == v))
                });
                if !matches_edge {
                    return fail(
                        "adj-symmetric",
                        format!("arc {v}→{u} does not match edge record {eid}"),
                        vec![v, u, eid],
                    );
                }
            }
            let cached = self.vol.get(v).copied().unwrap_or(f64::NAN);
            if !hicond_linalg::approx_eq(vol, cached, hicond_linalg::DEFAULT_REL_TOL) {
                return fail(
                    "vol-cached",
                    format!("vertex {v} cached volume {cached} vs recomputed {vol}"),
                    vec![v],
                );
            }
        }
        Ok(())
    }

    /// Panics on any violation of [`Graph::check_invariants`]. Compiles to
    /// a no-op in release builds unless the `check-invariants` feature is
    /// enabled.
    ///
    /// # Panics
    /// Panics with the structured violation report when a structural
    /// invariant fails and checks are compiled in.
    #[inline]
    pub fn debug_invariants(&self) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        hicond_linalg::invariant::enforce(self.check_invariants());
    }

    /// New graph keeping only the edges whose ids satisfy `pred`.
    pub fn filter_edges<F: Fn(usize, &Edge) -> bool>(&self, pred: F) -> Graph {
        let list: Vec<(usize, usize, f64)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(i, e)| pred(*i, e))
            .map(|(_, e)| (e.u as usize, e.v as usize, e.w))
            .collect();
        Graph::from_edges(self.n, &list)
    }
}

/// Upper bound on vertex counts accepted from untrusted sources (the text
/// readers and artifact decode). The CSR construction allocates several
/// `n`-sized arrays, so a forged header must not be able to demand an
/// arbitrary allocation; 2^26 vertices is ~0.5 GiB of adjacency pointers,
/// far above any workload in the paper's experiments.
pub const MAX_UNTRUSTED_VERTICES: usize = 1 << 26;

/// Largest edge-capacity hint the builder honors up front. Hints often
/// come straight from untrusted file headers, so oversized values grow
/// lazily instead of pre-allocating.
pub const MAX_CAPACITY_HINT: usize = 1 << 22;

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    list: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// Builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            list: Vec::new(),
        }
    }

    /// With edge capacity hint. The hint is clamped to
    /// [`MAX_CAPACITY_HINT`] — hints often come from untrusted file
    /// headers, and a hint above the clamp merely grows lazily.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            list: Vec::with_capacity(m.min(MAX_CAPACITY_HINT)),
        }
    }

    /// Adds an undirected edge; orientation irrelevant; duplicates merged
    /// at build.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the edge is a self-loop, or the weight is not positive and finite.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert!(u != v, "self-loops are not allowed");
        assert!(
            w > 0.0 && w.is_finite(),
            "edge weight must be positive and finite"
        );
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.list.push((a as u32, b as u32, w));
    }

    /// Number of (unmerged) edges added so far.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Finalizes into a [`Graph`].
    pub fn build(mut self) -> Graph {
        let n = self.n;
        // Merge duplicates.
        self.list
            .par_sort_unstable_by_key(|&(u, v, _)| ((u as u64) << 32) | v as u64);
        let mut edges: Vec<Edge> = Vec::with_capacity(self.list.len());
        for &(u, v, w) in &self.list {
            if let Some(last) = edges.last_mut() {
                if last.u == u && last.v == v {
                    last.w += w;
                    continue;
                }
            }
            edges.push(Edge { u, v, w });
        }
        // Build CSR adjacency.
        let mut deg = vec![0usize; n + 1];
        for e in &edges {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let adj_ptr = deg.clone();
        let m2 = edges.len() * 2;
        let mut adj = vec![0u32; m2];
        let mut adj_w = vec![0.0; m2];
        let mut adj_eid = vec![0u32; m2];
        let mut next = deg;
        for (eid, e) in edges.iter().enumerate() {
            let pu = next[e.u as usize];
            next[e.u as usize] += 1;
            adj[pu] = e.v;
            adj_w[pu] = e.w;
            adj_eid[pu] = eid as u32;
            let pv = next[e.v as usize];
            next[e.v as usize] += 1;
            adj[pv] = e.u;
            adj_w[pv] = e.w;
            adj_eid[pv] = eid as u32;
        }
        // Sort each adjacency row by neighbor (edges were sorted by (u,v),
        // so rows are sorted for the u-side but v-side rows need sorting).
        for v in 0..n {
            let lo = adj_ptr[v];
            let hi = adj_ptr[v + 1];
            let mut idx: Vec<usize> = (lo..hi).collect();
            idx.sort_unstable_by_key(|&k| adj[k]);
            let (na, nw, ne): (Vec<u32>, Vec<f64>, Vec<u32>) = idx
                .iter()
                .map(|&k| (adj[k], adj_w[k], adj_eid[k]))
                .fold((vec![], vec![], vec![]), |mut acc, (a, w, e)| {
                    acc.0.push(a);
                    acc.1.push(w);
                    acc.2.push(e);
                    acc
                });
            adj[lo..hi].copy_from_slice(&na);
            adj_w[lo..hi].copy_from_slice(&nw);
            adj_eid[lo..hi].copy_from_slice(&ne);
        }
        let vol: Vec<f64> = (0..n)
            .map(|v| adj_w[adj_ptr[v]..adj_ptr[v + 1]].iter().sum())
            .collect();
        let g = Graph {
            n,
            adj_ptr,
            adj,
            adj_w,
            adj_eid,
            edges,
            vol,
        };
        g.debug_invariants();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.vol(0), 4.0);
        assert_eq!(g.vol(1), 3.0);
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.total_volume(), 12.0);
        assert_eq!(g.edge_weight(0, 2), 3.0);
        assert_eq!(g.edge_weight(2, 0), 3.0);
        assert!(!g.has_edge(0, 0.max(0) + 0)); // no self loop stored
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0), (1, 0, 2.5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 3.5);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        Graph::from_edges(2, &[(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        Graph::from_edges(2, &[(0, 1, 0.0)]);
    }

    #[test]
    fn neighbors_sorted_with_eids() {
        let g = Graph::from_edges(4, &[(2, 0, 1.0), (2, 3, 2.0), (2, 1, 3.0)]);
        let ns: Vec<usize> = g.neighbors(2).map(|(u, _, _)| u).collect();
        assert_eq!(ns, vec![0, 1, 3]);
        for (u, w, eid) in g.neighbors(2) {
            let e = g.edges()[eid];
            assert_eq!(e.w, w);
            assert!(e.u as usize == u || e.v as usize == u);
        }
    }

    #[test]
    fn heaviest_incident_edge() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (0, 2, 5.0), (0, 3, 2.0)]);
        let (u, w, _) = g.heaviest_incident(0).unwrap();
        assert_eq!(u, 2);
        assert_eq!(w, 5.0);
        let iso = Graph::from_edges(2, &[(0, 1, 1.0)]);
        assert!(iso.heaviest_incident(0).is_some());
        let g2 = Graph::from_edges(3, &[(0, 1, 1.0)]);
        assert!(g2.heaviest_incident(2).is_none());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)]);
        let s = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.edge_weight(0, 1), 2.0);
        assert_eq!(s.edge_weight(1, 2), 3.0);
    }

    #[test]
    fn map_and_filter_edges() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let doubled = g.map_weights(|_, e| e.w * 2.0);
        assert_eq!(doubled.edge_weight(1, 2), 4.0);
        let filtered = g.filter_edges(|_, e| e.w > 1.5);
        assert_eq!(filtered.num_edges(), 1);
        assert_eq!(filtered.num_vertices(), 3);
    }

    #[test]
    fn vol_set_sums() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        assert_eq!(g.vol_set(&[0, 2]), 3.0);
        assert_eq!(g.vol_set(&[0, 1, 2]), g.total_volume());
    }

    #[test]
    fn max_degree_star() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]);
        assert_eq!(g.max_degree(), 4);
    }
}

/// Property tests for the invariant layer: builder output always passes,
/// and targeted corruptions of the private adjacency representation are
/// caught. Inside the module for access to the private fields.
#[cfg(test)]
mod invariant_props {
    use super::*;
    use proptest::prelude::*;

    /// Random multigraph on `n` vertices (self-loops filtered, duplicates
    /// merged by the builder); a path backbone keeps it non-trivial.
    fn random_graph(n: usize) -> impl Strategy<Value = Graph> {
        prop::collection::vec((0..n, 0..n, 0.1..10.0f64), 0..3 * n).prop_map(move |extra| {
            let mut edges: Vec<(usize, usize, f64)> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            Graph::from_edges(n, &edges)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn builder_output_satisfies_invariants(g in random_graph(10)) {
            prop_assert!(g.check_invariants().is_ok());
        }

        #[test]
        fn negative_weight_is_rejected(mut g in random_graph(10), k in any::<usize>()) {
            prop_assume!(!g.adj_w.is_empty());
            let k = k % g.adj_w.len();
            g.adj_w[k] = -1.0;
            // Trips weights-positive on the mirrored entry or adj-symmetric
            // (one direction no longer matches the other); either way the
            // corruption is caught.
            prop_assert!(g.check_invariants().is_err());
        }

        #[test]
        fn self_loop_is_rejected(mut g in random_graph(10), v in 0usize..10) {
            prop_assume!(g.adj_ptr[v + 1] > g.adj_ptr[v]);
            let slot = g.adj_ptr[v];
            // bounds: vertex ids < n = 10 fit in u32
            g.adj[slot] = v as u32;
            prop_assert!(g.check_invariants().is_err());
        }

        #[test]
        fn asymmetric_weight_is_rejected(mut g in random_graph(10)) {
            prop_assume!(!g.adj_w.is_empty());
            // Perturb one directed half of some edge; its mirror keeps the
            // old weight so adj-symmetric (or the edge-list cross-check)
            // must fire.
            g.adj_w[0] += 0.5;
            prop_assert!(g.check_invariants().is_err());
        }

        #[test]
        fn stale_volume_cache_is_rejected(mut g in random_graph(10), v in 0usize..10) {
            prop_assume!(g.vol[v] > 0.0);
            g.vol[v] *= 2.0;
            let err = g.check_invariants().expect_err("stale volume must be rejected");
            prop_assert_eq!(err.rule, "vol-cached");
        }
    }
}
