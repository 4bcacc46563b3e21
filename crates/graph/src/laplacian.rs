//! Graph Laplacians and normalized-Laplacian scalings.

use crate::graph::Graph;
use hicond_linalg::CsrMatrix;

/// The Laplacian `A_G` of the graph: `A_ij = −w_ij`, `A_ii = Σ_j w_ij`
/// (paper Section 2).
///
/// Each CSR row is emitted straight from the vertex's sorted adjacency,
/// with the diagonal `vol(v)` placed before the first larger neighbour;
/// isolated vertices get no diagonal entry. The builder has already
/// merged parallel edges, so no entry needs summing.
pub fn laplacian(g: &Graph) -> CsrMatrix {
    let n = g.num_vertices();
    let diagonals = g.volumes().iter().filter(|&&vol| vol > 0.0).count();
    let nnz = 2 * g.num_edges() + diagonals;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for v in 0..n {
        let vol = g.vol(v);
        let mut diagonal_due = vol > 0.0;
        for (u, w, _) in g.neighbors(v) {
            if diagonal_due && u > v {
                col_idx.push(v as u32);
                values.push(vol);
                diagonal_due = false;
            }
            col_idx.push(u as u32);
            values.push(-w);
        }
        if diagonal_due {
            col_idx.push(v as u32);
            values.push(vol);
        }
        row_ptr.push(col_idx.len());
    }
    let a = CsrMatrix::from_parts(n, n, row_ptr, col_idx, values);
    a.debug_laplacian_invariants();
    a
}

/// Returns `(d, d^{-1/2}, d^{1/2})` for the graph's volume vector, with the
/// convention that isolated vertices get zeros. `d^{-1/2}` is the diagonal
/// scaling of the normalized Laplacian `Â = D^{-1/2} A D^{-1/2}` studied in
/// Section 4 of the paper.
pub fn normalized_laplacian_scaling(g: &Graph) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let d: Vec<f64> = g.volumes().to_vec();
    let d_inv_sqrt: Vec<f64> = d
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
        .collect();
    let d_sqrt: Vec<f64> = d.iter().map(|&x| x.sqrt()).collect();
    (d, d_inv_sqrt, d_sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_linalg::LinearOperator;

    #[test]
    fn laplacian_rows_sum_zero() {
        let g = Graph::from_edges(4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0), (3, 0, 4.0)]);
        let a = laplacian(&g);
        let ones = vec![1.0; 4];
        let y = a.apply(&ones);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
        assert_eq!(a.get(0, 0), 6.0);
        assert_eq!(a.get(0, 1), -2.0);
    }

    #[test]
    fn laplacian_quadratic_form_is_cut_energy() {
        // xᵀAx = Σ w_uv (x_u - x_v)².
        let g = Graph::from_edges(3, &[(0, 1, 2.0), (1, 2, 5.0)]);
        let a = laplacian(&g);
        let x = vec![1.0, 0.0, -1.0];
        let ax = a.apply(&x);
        let quad: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        let expect = 2.0 * 1.0 + 5.0 * 1.0;
        assert!((quad - expect).abs() < 1e-12);
    }

    #[test]
    fn scaling_handles_isolated() {
        let g = Graph::from_edges(3, &[(0, 1, 4.0)]);
        let (d, dis, ds) = normalized_laplacian_scaling(&g);
        assert_eq!(d[2], 0.0);
        assert_eq!(dis[2], 0.0);
        assert_eq!(ds[0], 2.0);
        assert_eq!(dis[0], 0.5);
    }
}
