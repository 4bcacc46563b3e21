//! Property-based tests for the graph substrate: structural invariants,
//! conductance relations, closure and quotient identities.

use hicond_graph::{
    closure_graph, cut_capacity, cut_sparsity, exact_conductance, laplacian, Graph, Partition,
};
use hicond_linalg::{CooBuilder, CsrMatrix};
use proptest::prelude::*;

/// A connected weighted graph on `n` vertices: random-tree backbone plus
/// random extra edges.
fn connected_graph(n: usize) -> impl Strategy<Value = Graph> {
    let tree_w = prop::collection::vec(0.1..10.0f64, n - 1);
    let extras = prop::collection::vec((0..n, 0..n, 0.1..10.0f64), 0..2 * n);
    (tree_w, extras).prop_map(move |(tw, ex)| {
        let mut edges = Vec::new();
        for (i, &w) in tw.iter().enumerate() {
            let child = i + 1;
            let parent = (i * 13 + 5) % child.max(1);
            edges.push((parent, child, w));
        }
        for (u, v, w) in ex {
            if u != v {
                edges.push((u, v, w));
            }
        }
        Graph::from_edges(n, &edges)
    })
}

/// A random proper cut indicator on `n` vertices.
fn cut(n: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), n).prop_filter("proper cut", |c| {
        c.iter().any(|&x| x) && c.iter().any(|&x| !x)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn volume_identity(g in connected_graph(12)) {
        // Σ vol(v) = 2 Σ w(e).
        let total: f64 = (0..12).map(|v| g.vol(v)).sum();
        prop_assert!((total - 2.0 * g.total_weight()).abs() < 1e-9 * total.max(1.0));
    }

    #[test]
    fn any_cut_dominates_conductance(g in connected_graph(10), c in cut(10)) {
        let phi = exact_conductance(&g);
        let s = cut_sparsity(&g, &c);
        prop_assert!(s >= phi - 1e-12, "sparsity {s} below conductance {phi}");
    }

    #[test]
    fn cut_capacity_symmetric(g in connected_graph(10), c in cut(10)) {
        let flipped: Vec<bool> = c.iter().map(|&x| !x).collect();
        prop_assert!((cut_capacity(&g, &c) - cut_capacity(&g, &flipped)).abs() < 1e-12);
        prop_assert!((cut_sparsity(&g, &c) - cut_sparsity(&g, &flipped)).abs() < 1e-12);
    }

    #[test]
    fn laplacian_quadratic_form_nonnegative(g in connected_graph(9)) {
        let a = laplacian(&g);
        let x: Vec<f64> = (0..9).map(|i| ((i * 17 + 1) % 7) as f64 - 3.0).collect();
        let ax = a.mul(&x);
        let quad: f64 = x.iter().zip(&ax).map(|(p, q)| p * q).sum();
        prop_assert!(quad >= -1e-9);
        // Equals the cut-energy formula.
        let energy: f64 = g
            .edges()
            .iter()
            .map(|e| e.w * (x[e.u as usize] - x[e.v as usize]).powi(2))
            .sum();
        prop_assert!((quad - energy).abs() < 1e-8 * energy.max(1.0));
    }

    #[test]
    fn closure_conductance_at_most_induced(g in connected_graph(11)) {
        // Any cluster with a boundary: conductance(Gᵒ) ≤ conductance(G[C]).
        let cluster: Vec<usize> = vec![0, 1, 2, 3];
        let closure = closure_graph(&g, &cluster);
        if closure.num_vertices() <= 20 {
            let induced = g.induced_subgraph(&cluster);
            prop_assert!(
                exact_conductance(&closure) <= exact_conductance(&induced) + 1e-9
            );
        }
    }

    #[test]
    fn quotient_conserves_cross_weight(g in connected_graph(12)) {
        let assignment: Vec<u32> = (0..12).map(|v| (v % 3) as u32).collect();
        let p = Partition::from_assignment(assignment, 3);
        let q = p.quotient_graph(&g);
        let cross: f64 = g
            .edges()
            .iter()
            .filter(|e| p.cluster_of(e.u as usize) != p.cluster_of(e.v as usize))
            .map(|e| e.w)
            .sum();
        prop_assert!((q.total_weight() - cross).abs() < 1e-9 * cross.max(1.0));
    }

    #[test]
    fn membership_matrix_rows_sum_one(g in connected_graph(10)) {
        let assignment: Vec<u32> = (0..10).map(|v| (v % 4) as u32).collect();
        let p = Partition::from_assignment(assignment, 4);
        let r = p.membership_matrix();
        let ones4 = vec![1.0; 4];
        let row_sums = r.mul(&ones4);
        for s in row_sums {
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
        let _ = g; // partition structure independent of the graph
    }

    #[test]
    fn induced_subgraph_preserves_weights(g in connected_graph(12)) {
        let keep: Vec<usize> = (0..6).collect();
        let s = g.induced_subgraph(&keep);
        for i in 0..6 {
            for j in 0..6 {
                prop_assert!((s.edge_weight(i, j) - g.edge_weight(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn quotient_laplacian_is_rtar(g in connected_graph(10)) {
        let assignment: Vec<u32> = (0..10).map(|v| (v % 3) as u32).collect();
        let p = Partition::from_assignment(assignment, 3);
        let a = laplacian(&g);
        let r = p.membership_matrix();
        let rtar = r.transpose().matmul(&a.matmul(&r));
        let ql = laplacian(&p.quotient_graph(&g));
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((rtar.get(i, j) - ql.get(i, j)).abs() < 1e-9);
            }
        }
    }
}

/// Raw builder input on `n` vertices whose last three never get an edge:
/// random weighted pairs, each entered as given, reversed, or twice (once
/// per orientation), then shuffled by random sort keys. Self-loops are
/// dropped.
fn messy_edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    let m = n - 3;
    prop::collection::vec(
        (0..m, 0..m, 0.1..10.0f64, 0usize..3, any::<u64>()),
        0..4 * n,
    )
    .prop_map(|draws| {
        let mut keyed = Vec::new();
        for (u, v, w, how, key) in draws {
            if u == v {
                continue;
            }
            match how {
                0 => keyed.push((key, (u, v, w))),
                1 => keyed.push((key, (v, u, w))),
                _ => {
                    keyed.push((key, (u, v, w)));
                    keyed.push((key.rotate_left(17), (v, u, 0.5 * w)));
                }
            }
        }
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, e)| e).collect()
    })
}

/// The Laplacian as the paper defines it, assembled through `CooBuilder`:
/// `vol(v)` on the diagonal of every non-isolated vertex and `−w` at both
/// mirrored positions of every edge, duplicates summed by the builder.
fn coo_laplacian(g: &Graph) -> CsrMatrix {
    let n = g.num_vertices();
    let mut b = CooBuilder::with_capacity(n, n, n + 2 * g.num_edges());
    for v in 0..n {
        if g.vol(v) > 0.0 {
            b.push(v, v, g.vol(v));
        }
    }
    for e in g.edges() {
        b.push_sym(e.u as usize, e.v as usize, -e.w);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn laplacian_is_bit_equal_to_the_coo_assembly(edges in messy_edge_list(13)) {
        let g = Graph::from_edges(13, &edges);
        let (a, oracle) = (laplacian(&g), coo_laplacian(&g));
        prop_assert_eq!(a.row_ptr(), oracle.row_ptr());
        prop_assert_eq!(a.col_idx(), oracle.col_idx());
        let bits = |m: &CsrMatrix| m.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a), bits(&oracle));
        // The isolated vertices have empty rows.
        for v in 10..13 {
            prop_assert_eq!(a.row_ptr()[v], a.row_ptr()[v + 1]);
        }
    }

    #[test]
    fn builder_output_passes_invariants_on_messy_input(edges in messy_edge_list(12)) {
        // `check_invariants` is compiled in every profile, so this holds
        // the builder's sorted rows to account in release builds too.
        let g = Graph::from_edges(12, &edges);
        prop_assert!(g.check_invariants().is_ok());
        let mut pairs: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let built: Vec<(usize, usize)> =
            g.edges().iter().map(|e| (e.u as usize, e.v as usize)).collect();
        prop_assert_eq!(built, pairs);
    }
}

/// Text I/O round-trips: `write → read → write` must be a byte-for-byte
/// fixpoint for every format, and no reader may panic on malformed input
/// (errors must surface as `Err`).
mod io_roundtrip {
    use super::connected_graph;
    use hicond_graph::io;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn edge_list_write_read_write_fixpoint(g in connected_graph(14)) {
            let mut first = Vec::new();
            io::write_edge_list(&g, &mut first).unwrap();
            let h = io::read_edge_list(&first[..]).unwrap();
            prop_assert_eq!(h.num_vertices(), g.num_vertices());
            prop_assert_eq!(h.num_edges(), g.num_edges());
            let mut second = Vec::new();
            io::write_edge_list(&h, &mut second).unwrap();
            // f64 Display → parse is exact, so the fixpoint is bitwise.
            prop_assert_eq!(first, second);
        }

        #[test]
        fn metis_write_read_write_fixpoint(
            g in connected_graph(12),
            scale_idx in 0usize..4,
        ) {
            let scale = [1.0, 100.0, 1000.0, 1e6][scale_idx];
            let mut first = Vec::new();
            io::write_metis(&g, scale, &mut first).unwrap();
            let h = io::read_metis(&first[..], scale).unwrap();
            prop_assert_eq!(h.num_vertices(), g.num_vertices());
            prop_assert_eq!(h.num_edges(), g.num_edges());
            // Weights are quantized to 1/scale on the first write; a second
            // write must reproduce the same integers exactly.
            let mut second = Vec::new();
            io::write_metis(&h, scale, &mut second).unwrap();
            prop_assert_eq!(first, second);
        }

        #[test]
        fn dimacs_write_read_write_fixpoint(g in connected_graph(11)) {
            let mut first = Vec::new();
            io::write_dimacs(&g, &mut first).unwrap();
            let h = io::read_dimacs(&first[..]).unwrap();
            prop_assert_eq!(h.num_edges(), g.num_edges());
            let mut second = Vec::new();
            io::write_dimacs(&h, &mut second).unwrap();
            prop_assert_eq!(first, second);
        }

        #[test]
        fn readers_never_panic_on_random_bytes(bytes in prop::collection::vec(0u8..=255, 0..400)) {
            // Any outcome is fine as long as it is a Result, not a panic.
            let _ = io::read_edge_list(&bytes[..]);
            let _ = io::read_metis(&bytes[..], 1000.0);
            let _ = io::read_dimacs(&bytes[..]);
        }

        #[test]
        fn readers_never_panic_on_corrupted_valid_file(
            g in connected_graph(9),
            pos_frac in 0.0..1.0f64,
            repl_idx in 0usize..9,
        ) {
            let replacement = [
                "-1", "NaN", "inf", "99", "0", "1e999", "x", "7.5", "9999999999999999999",
            ][repl_idx];
            // Start from a well-formed file and clobber one whitespace-
            // separated token: the reader must reject or accept, never panic.
            let mut buf = Vec::new();
            io::write_edge_list(&g, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let mut tokens: Vec<String> =
                text.split_whitespace().map(|s| s.to_string()).collect();
            prop_assume!(!tokens.is_empty());
            // bounds: pos_frac < 1.0 so the index is < tokens.len()
            let idx = (pos_frac * tokens.len() as f64) as usize;
            tokens[idx] = replacement.to_string();
            let mutated = tokens.join(" ");
            let _ = io::read_edge_list(mutated.as_bytes());
            let _ = io::read_metis(mutated.as_bytes(), 1000.0);
            let _ = io::read_dimacs(mutated.as_bytes());
        }
    }
}

/// Every family in the `generators` module must produce graphs satisfying
/// the full structural invariant set (mirrors the in-module corruption
/// proptests, which check the rejecting direction).
mod generator_invariants {
    use hicond_graph::generators;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_families_satisfy_invariants(seed in any::<u64>()) {
            let graphs = [
                generators::random_tree(30, seed, 0.5, 2.0),
                generators::triangulated_grid(5, 4, seed),
                generators::random_regular(16, 3, seed),
                generators::barabasi_albert(24, 2, seed),
                generators::watts_strogatz(20, 4, 0.2, seed),
                generators::erdos_renyi(18, 0.3, seed),
            ];
            for g in &graphs {
                prop_assert!(g.check_invariants().is_ok());
            }
        }

        #[test]
        fn deterministic_families_satisfy_invariants(n in 2usize..12) {
            let graphs = [
                generators::path(n, |_| 1.0),
                generators::cycle(n.max(3), |_| 1.0),
                generators::star(n, |_| 1.0),
                generators::complete(n, 1.0),
                generators::grid2d(n, 3, |_, _| 1.0),
                generators::torus2d(n.max(3), 3, |_, _| 1.0),
            ];
            for g in &graphs {
                prop_assert!(g.check_invariants().is_ok());
            }
        }
    }
}
