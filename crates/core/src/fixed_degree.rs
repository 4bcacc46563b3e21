//! Fixed-degree decomposition — Section 3.1.
//!
//! The paper's "strikingly simple and embarrassingly parallel" pipeline:
//!
//! 1. perturb each edge weight by an independent random factor in `(1, 2)`;
//! 2. every vertex keeps its heaviest incident (perturbed) edge — the
//!    union is *unimodal*, hence a forest `B`;
//! 3. split each tree of `B` independently into connected clusters of
//!    size at most `k` (plus degree-bounded slack for stuck leaves).
//!
//! For a graph of maximum degree `d` this yields a `[1/(2d²k), 2]`
//! decomposition. Every step is a data-parallel pass — step 2 a per-vertex
//! scan of the adjacency structure, step 3 independent per tree — which is
//! exactly Remark 1's argument that the construction is "essentially
//! independent from the structure of the graph". The implementation works
//! on flat arrays with no intermediate graph rebuild, so the three passes
//! together cost a small constant number of O(n + m) sweeps (the Remark 1
//! experiment pits it against a maximum-weight-spanning-tree baseline).

use hicond_graph::{perturb_weights, Graph, Partition};
use rayon::prelude::*;

/// Options for [`decompose_fixed_degree`].
#[derive(Debug, Clone, Copy)]
pub struct FixedDegreeOptions {
    /// Target maximum cluster size `k`. Clusters may exceed it by the
    /// vertex degree in the rare case of leaves that can only stay
    /// connected through an already-full cluster (bounded by `k + d`).
    pub k: usize,
    /// Seed for the perturbation.
    pub seed: u64,
    /// Apply the random perturbation (step 1). Disabling it (the A1
    /// ablation) falls back to deterministic tie-breaking by edge id, which
    /// still yields a forest but loses the randomized weight spreading.
    pub perturb: bool,
    /// Run the per-vertex and per-tree passes on the rayon pool.
    pub parallel: bool,
}

impl Default for FixedDegreeOptions {
    fn default() -> Self {
        FixedDegreeOptions {
            k: 8,
            seed: 1,
            perturb: true,
            parallel: true,
        }
    }
}

/// Step 2's output: for each vertex, the id of its heaviest incident edge
/// under the (perturbed) weights, ties broken toward larger edge id.
/// `u32::MAX` marks isolated vertices.
///
/// # Panics
///
/// Panics if `weights` does not hold exactly one entry per edge of `g`.
pub fn heaviest_incident_edges(g: &Graph, weights: &[f64], parallel: bool) -> Vec<u32> {
    assert_eq!(weights.len(), g.num_edges());
    let pick = |v: usize| -> u32 {
        let mut best: Option<(f64, usize)> = None;
        for (_, _, eid) in g.neighbors(v) {
            let w = weights[eid];
            let better = match best {
                None => true,
                Some((bw, beid)) => w > bw || (w == bw && eid > beid),
            };
            if better {
                best = Some((w, eid));
            }
        }
        best.map(|(_, eid)| eid as u32).unwrap_or(u32::MAX)
    };
    if parallel {
        (0..g.num_vertices()).into_par_iter().map(pick).collect()
    } else {
        (0..g.num_vertices()).map(pick).collect()
    }
}

/// The forest `B` of step 2 as a `Graph`: the union of every vertex's
/// heaviest incident edge. Guaranteed acyclic by unimodality (each edge of
/// `B` is the strictly-heaviest — under the tie-broken total order —
/// incident edge of one of its endpoints, so a cycle would need a local
/// maximum on it). Used for verification; the decomposition itself builds
/// its forest arrays directly.
pub fn heaviest_edge_forest(g: &Graph, weights: &[f64], parallel: bool) -> Graph {
    let picks = heaviest_incident_edges(g, weights, parallel);
    let mut keep = vec![false; g.num_edges()];
    for &e in &picks {
        if e != u32::MAX {
            keep[e as usize] = true;
        }
    }
    g.filter_edges(|i, _| keep[i])
}

/// Sentinel for "no parent" in the flat forest arrays.
const NONE: u32 = u32::MAX;

/// Flat forest representation built straight from the edge picks:
/// unsorted CSR adjacency, DFS preorder with per-tree segments, parents.
struct FlatForest {
    parent: Vec<u32>,
    preorder: Vec<u32>,
    /// Position of each vertex inside `preorder`.
    pos: Vec<u32>,
    /// `(start, end)` ranges of `preorder`, one per tree.
    segments: Vec<(u32, u32)>,
    /// For singleton-root folding: one kept neighbor per vertex (NONE if
    /// isolated).
    any_neighbor: Vec<u32>,
}

fn build_flat_forest(g: &Graph, picks: &[u32]) -> FlatForest {
    let n = g.num_vertices();
    let edges = g.edges();
    let mut kept = vec![false; g.num_edges()];
    for &e in picks {
        if e != NONE {
            kept[e as usize] = true;
        }
    }
    // Unsorted CSR adjacency over kept edges.
    let mut deg = vec![0u32; n + 1];
    for (eid, e) in edges.iter().enumerate() {
        if kept[eid] {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
    }
    for i in 0..n {
        deg[i + 1] += deg[i];
    }
    let ptr: Vec<u32> = deg.clone();
    let mut adj = vec![0u32; ptr[n] as usize];
    let mut next = deg;
    for (eid, e) in edges.iter().enumerate() {
        if kept[eid] {
            adj[next[e.u as usize] as usize] = e.v;
            next[e.u as usize] += 1;
            adj[next[e.v as usize] as usize] = e.u;
            next[e.v as usize] += 1;
        }
    }
    // DFS per root: parent, preorder, segments.
    let mut parent = vec![NONE; n];
    let mut pos = vec![0u32; n];
    let mut preorder = Vec::with_capacity(n);
    let mut segments = Vec::new();
    let mut visited = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    for root in 0..n {
        if visited[root] {
            continue;
        }
        let start = preorder.len() as u32;
        visited[root] = true;
        stack.push(root as u32);
        while let Some(v) = stack.pop() {
            pos[v as usize] = preorder.len() as u32;
            preorder.push(v);
            for &u in &adj[ptr[v as usize] as usize..ptr[v as usize + 1] as usize] {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    parent[u as usize] = v;
                    stack.push(u);
                }
            }
        }
        segments.push((start, preorder.len() as u32));
    }
    let any_neighbor: Vec<u32> = (0..n)
        .map(|v| {
            if ptr[v] == ptr[v + 1] {
                NONE
            } else {
                adj[ptr[v] as usize]
            }
        })
        .collect();
    FlatForest {
        parent,
        preorder,
        pos,
        segments,
        any_neighbor,
    }
}

/// Step 3's state for one preorder position. Each tree's segment is split
/// in place on its own slice of one `n`-length buffer, and `next`/`tail`
/// hold positions inside that segment.
#[derive(Clone, Copy)]
struct Slot {
    /// Next member of the pending list this position belongs to.
    next: u32,
    /// Last member of the pending list this position heads.
    tail: u32,
    /// Size of the pending list this position heads.
    size: u32,
    /// Cluster id inside the segment.
    assign: u32,
}

const EMPTY_SLOT: Slot = Slot {
    next: NONE,
    tail: NONE,
    size: 1,
    assign: NONE,
};

/// Step 3 on the flat forest: bottom-up pending-set packing of the tree
/// whose preorder segment starts at `start` and covers `slots`, with
/// pending sets as intrusive linked lists (no per-vertex allocation).
/// Leaves each position's cluster id inside the segment in its slot and
/// returns the segment's cluster count.
fn split_segment(forest: &FlatForest, start: usize, slots: &mut [Slot], k: usize) -> u32 {
    let len = slots.len();
    let preorder = &forest.preorder[start..start + len];
    for (i, slot) in slots.iter_mut().enumerate() {
        *slot = Slot {
            tail: i as u32,
            ..EMPTY_SLOT
        };
    }
    let mut clusters = 0u32;
    let emit_threshold = (k / 2).max(2) as u32;

    let emit = |head: usize, slots: &mut [Slot], clusters: &mut u32| {
        let id = *clusters;
        *clusters += 1;
        let mut cur = head as u32;
        while cur != NONE {
            let slot = &mut slots[cur as usize];
            slot.assign = id;
            cur = slot.next;
        }
    };

    // Children before parents: reverse preorder. Each vertex, once its own
    // pending is final, either emits it or pushes it into its parent's.
    for i in (1..len).rev() {
        let v = preorder[i] as usize;
        let p = forest.parent[v];
        debug_assert!(p != NONE);
        let pl = (forest.pos[p as usize] as usize) - start;
        let sz = slots[i].size;
        if sz >= emit_threshold || (slots[pl].size + sz > k as u32 && sz >= 2) {
            emit(i, slots, &mut clusters);
        } else {
            // Merge into parent (always for stuck singles: connectivity
            // permits nothing else; overflow is bounded by the degree).
            let parent_tail = slots[pl].tail as usize;
            slots[parent_tail].next = i as u32;
            slots[pl].tail = slots[i].tail;
            slots[pl].size += sz;
        }
    }
    // Root pending.
    if len > 0 {
        if slots[0].size >= 2 || clusters == 0 {
            emit(0, slots, &mut clusters);
        } else {
            // Lone root: fold into the cluster of any kept neighbor.
            let r = preorder[0];
            let nb = forest.any_neighbor[r as usize];
            debug_assert!(nb != NONE, "lone root with clusters must have a neighbor");
            let nb_local = (forest.pos[nb as usize] as usize) - start;
            debug_assert!(slots[nb_local].assign != NONE);
            slots[0].assign = slots[nb_local].assign;
        }
    }
    debug_assert!(slots.iter().all(|s| s.assign != NONE));
    clusters
}

/// The full Section 3.1 pipeline: perturb → heaviest-edge forest → split.
///
/// # Panics
///
/// Panics if `opts.k < 2`.
pub fn decompose_fixed_degree(g: &Graph, opts: &FixedDegreeOptions) -> Partition {
    assert!(opts.k >= 2, "cluster size cap must be at least 2");
    let n = g.num_vertices();
    // Step 1: weights.
    let weights: Vec<f64> = if opts.perturb {
        perturb_weights(g, opts.seed)
    } else {
        g.edges().iter().map(|e| e.w).collect()
    };
    // Step 2: per-vertex heaviest incident edge.
    let picks = heaviest_incident_edges(g, &weights, opts.parallel);
    // Step 3: flat forest + per-tree split, each tree on its own slice of
    // one buffer indexed by preorder position (segments tile 0..n in order).
    let forest = build_flat_forest(g, &picks);
    let mut slots = vec![EMPTY_SLOT; n];
    let mut trees = Vec::with_capacity(forest.segments.len());
    let mut rest = &mut slots[..];
    for &(start, end) in &forest.segments {
        debug_assert_eq!(n - rest.len(), start as usize);
        let (tree, after) = rest.split_at_mut((end - start) as usize);
        trees.push((start as usize, tree));
        rest = after;
    }
    let split = |(start, tree): (usize, &mut [Slot])| split_segment(&forest, start, tree, opts.k);
    let counts: Vec<u32> = if opts.parallel {
        trees.into_par_iter().map(split).collect()
    } else {
        trees.into_iter().map(split).collect()
    };
    // Scatter the in-segment cluster ids, offset by the prefix sum of the
    // earlier segments' cluster counts.
    let mut assignment = vec![NONE; n];
    let mut offset = 0u32;
    for (&(start, end), &count) in forest.segments.iter().zip(&counts) {
        for p in start as usize..end as usize {
            assignment[forest.preorder[p] as usize] = offset + slots[p].assign;
        }
        offset += count;
    }
    debug_assert!(assignment.iter().all(|&a| a != NONE));
    let p = Partition::from_assignment(assignment, offset as usize);
    p.debug_invariants();
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::forest::RootedForest;
    use hicond_graph::generators;

    fn check_decomposition(g: &Graph, opts: &FixedDegreeOptions) -> Partition {
        let p = decompose_fixed_degree(g, opts);
        assert!(p.clusters_connected(g), "clusters must be connected");
        let clusters = p.clusters();
        let cap = opts.k + g.max_degree() + 1;
        for c in &clusters {
            assert!(c.len() <= cap, "cluster too big: {}", c.len());
        }
        // No singletons unless the vertex is isolated in g.
        for c in &clusters {
            if c.len() == 1 {
                assert_eq!(g.degree(c[0]), 0, "non-isolated singleton {}", c[0]);
            }
        }
        p
    }

    #[test]
    fn grid2d_reduction_at_least_two() {
        let g = generators::grid2d(12, 12, |_, _| 1.0);
        let p = check_decomposition(&g, &FixedDegreeOptions::default());
        assert!(p.reduction_factor() >= 2.0, "rho {}", p.reduction_factor());
    }

    #[test]
    fn grid3d_weighted() {
        let g = generators::oct_like_grid3d(6, 6, 6, 3, generators::OctParams::default());
        for k in [2, 4, 8, 16] {
            let p = check_decomposition(
                &g,
                &FixedDegreeOptions {
                    k,
                    ..Default::default()
                },
            );
            assert!(p.reduction_factor() >= 2.0);
        }
    }

    #[test]
    fn heaviest_edge_subgraph_is_forest() {
        for seed in 0..20 {
            let g = generators::random_regular(60, 6, seed);
            let w = perturb_weights(&g, seed);
            let f = heaviest_edge_forest(&g, &w, false);
            assert!(RootedForest::from_graph(&f).is_some(), "seed {seed}: cycle");
            // Forest covers all non-isolated vertices with >= 1 edge.
            for v in 0..60 {
                if g.degree(v) > 0 {
                    assert!(f.degree(v) > 0, "vertex {v} dropped");
                }
            }
        }
    }

    #[test]
    fn unperturbed_ties_still_forest() {
        // All-equal weights: tie-breaking by edge id must still be acyclic.
        for seed in 0..10 {
            let g = generators::random_regular(40, 4, seed);
            let w: Vec<f64> = g.edges().iter().map(|e| e.w).collect();
            let f = heaviest_edge_forest(&g, &w, false);
            assert!(
                RootedForest::from_graph(&f).is_some(),
                "tie-broken subgraph has a cycle (seed {seed})"
            );
        }
    }

    #[test]
    fn sequential_matches_parallel() {
        let grid = generators::grid2d(9, 9, |u, v| 1.0 + ((u + 3 * v) % 7) as f64);
        // An OCT volume splits into hundreds of trees, so the parallel path
        // hands the pool many disjoint segment slices at once.
        let oct = generators::oct_like_grid3d(12, 12, 12, 5, generators::OctParams::default());
        let w = perturb_weights(&oct, 1);
        let trees = build_flat_forest(&oct, &heaviest_incident_edges(&oct, &w, false))
            .segments
            .len();
        assert!(trees >= 100, "only {trees} trees");
        for g in [&grid, &oct] {
            for k in [2, 4, 8, 16] {
                let opts = |parallel| FixedDegreeOptions {
                    k,
                    parallel,
                    ..Default::default()
                };
                let s = decompose_fixed_degree(g, &opts(false));
                for cap in [1, 2, 4] {
                    let p = rayon::pool::with_thread_cap(cap, || {
                        decompose_fixed_degree(g, &opts(true))
                    });
                    assert_eq!(s.assignment(), p.assignment(), "k = {k}, cap {cap}");
                }
            }
        }
    }

    #[test]
    fn conductance_bound_fixed_degree() {
        // Measured phi must beat the paper's 1/(2 d² k) bound comfortably.
        let g = generators::grid2d(10, 10, |_, _| 1.0);
        let d = g.max_degree() as f64;
        let k = 4;
        let p = check_decomposition(
            &g,
            &FixedDegreeOptions {
                k,
                ..Default::default()
            },
        );
        let q = p.quality(&g, 20);
        let bound = 1.0 / (2.0 * d * d * k as f64);
        assert!(q.phi >= bound, "phi {} below paper bound {bound}", q.phi);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::grid3d(5, 5, 5, |_, _, _| 1.0);
        let a = decompose_fixed_degree(&g, &FixedDegreeOptions::default());
        let b = decompose_fixed_degree(&g, &FixedDegreeOptions::default());
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn handles_isolated_vertices() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)]);
        let p = decompose_fixed_degree(&g, &FixedDegreeOptions::default());
        // Vertex 4 isolated -> its own cluster.
        let c = p.cluster_of(4);
        assert_eq!(p.clusters()[c], vec![4]);
        assert!(p.clusters_connected(&g));
    }

    #[test]
    fn path_graph_pairs_up() {
        let g = generators::path(10, |_| 1.0);
        let p = check_decomposition(
            &g,
            &FixedDegreeOptions {
                k: 2,
                ..Default::default()
            },
        );
        assert!(p.num_clusters() <= 5);
        assert!(p.reduction_factor() >= 2.0);
    }

    #[test]
    fn agrees_with_reference_forest() {
        // The fast flat-array path must partition exactly the trees of
        // `heaviest_edge_forest` (same kept edge set, connected clusters
        // within trees).
        let g = generators::oct_like_grid3d(5, 5, 5, 8, generators::OctParams::default());
        let w = perturb_weights(&g, 1);
        let f = heaviest_edge_forest(&g, &w, false);
        let p = decompose_fixed_degree(
            &g,
            &FixedDegreeOptions {
                seed: 1,
                ..Default::default()
            },
        );
        // Every cluster lies within one tree of f.
        let (labels, _) = hicond_graph::connectivity::connected_components(&f);
        for c in p.clusters() {
            for pair in c.windows(2) {
                assert_eq!(labels[pair[0]], labels[pair[1]]);
            }
        }
    }

    #[test]
    fn large_star_forest_split() {
        // A star graph: the heaviest-edge forest IS the star; cluster sizes
        // are bounded by degree slack, no vertex dropped.
        let g = generators::star(50, |i| i as f64);
        let p = decompose_fixed_degree(
            &g,
            &FixedDegreeOptions {
                k: 4,
                ..Default::default()
            },
        );
        assert!(p.clusters_connected(&g));
        assert_eq!(p.assignment().len(), 50);
        for c in p.clusters() {
            assert!(!c.is_empty());
        }
    }
}
