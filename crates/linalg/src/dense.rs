//! Dense symmetric kernels: Cholesky, cyclic Jacobi eigensolver,
//! pseudo-inverse helpers.
//!
//! These serve two roles in the reproduction: (i) the *direct coarse solver*
//! at the bottom of the multilevel Steiner hierarchy, and (ii) the *exact
//! verifier* for support numbers σ(A,B), condition numbers κ(A,B) and the
//! spectral bounds of Theorem 4.1 on problems small enough for O(n³) work.

use crate::csr::CsrMatrix;
use std::ops::{Index, IndexMut};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// `nrows × ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// From row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data` length is not `nrows * ncols`.
    pub fn from_rows(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        DenseMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Entry `(r, c)`, or `None` when out of range — the total accessor
    /// for callers that cannot prove bounds (e.g. decode validation).
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r >= self.nrows || c >= self.ncols {
            return None;
        }
        self.data.get(r * self.ncols + c).copied()
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` length differs from the column count.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        (0..self.nrows)
            .map(|r| crate::vector::dot(self.row(r), x))
            .collect()
    }

    /// Matrix product `A · B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows);
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Frobenius norm of `A − B`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn frob_dist(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Symmetry check to tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                if !crate::approx_eq(self[(i, j)], self[(j, i)], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Converts to CSR, dropping exact zeros.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut b = crate::csr::CooBuilder::new(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                let v = self[(i, j)];
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[r * self.ncols + c]
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    pub(crate) n: usize,
    /// Lower-triangular factor, row-major, full storage.
    pub(crate) l: DenseMatrix,
}

impl CholeskyFactor {
    /// Factors `a`; returns `None` if a non-positive pivot appears (matrix
    /// not positive definite to working precision).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &DenseMatrix) -> Option<Self> {
        assert_eq!(a.nrows(), a.ncols());
        let n = a.nrows();
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 {
                return None;
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Some(CholeskyFactor { n, l })
    }

    /// Solves `A x = b` via forward/back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b` length differs from the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        y
    }

    /// Overwrites `y = b` with `x = A⁻¹ b` (same arithmetic as
    /// [`Self::solve`], no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `y` length differs from the factor dimension.
    pub fn solve_in_place(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.n);
        // L y = b
        for i in 0..self.n {
            let mut v = y[i];
            for k in 0..i {
                v -= self.l[(i, k)] * y[k];
            }
            y[i] = v / self.l[(i, i)];
        }
        // Lᵀ x = y
        for i in (0..self.n).rev() {
            let mut v = y[i];
            for k in (i + 1)..self.n {
                v -= self.l[(k, i)] * y[k];
            }
            y[i] = v / self.l[(i, i)];
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// Full symmetric eigendecomposition by the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and
/// eigenvectors as *columns* of the returned matrix (`V[:, k]` pairs with
/// `λ_k`, so `A V = V Λ`).
///
/// # Panics
///
/// Panics if the matrix is not symmetric.
pub fn jacobi_eigen(a: &DenseMatrix) -> (Vec<f64>, DenseMatrix) {
    assert!(a.is_symmetric(1e-8), "jacobi_eigen: matrix not symmetric");
    let n = a.nrows();
    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);
    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        let scale: f64 = (0..n).map(|i| m[(i, i)].abs()).fold(1e-300, f64::max);
        if off.sqrt() <= 1e-14 * scale.max(1.0) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation on rows/cols p, q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    let evals: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| evals[i].total_cmp(&evals[j]));
    let sorted_vals: Vec<f64> = order.iter().map(|&i| evals[i]).collect();
    let mut sorted_vecs = DenseMatrix::zeros(n, n);
    for (new, &old) in order.iter().enumerate() {
        for r in 0..n {
            sorted_vecs[(r, new)] = v[(r, old)];
        }
    }
    (sorted_vals, sorted_vecs)
}

/// Largest generalized eigenvalue `λ_max(A, B)` of a pencil of symmetric
/// PSD matrices sharing the (one-dimensional, constant-vector) nullspace —
/// the support number σ(A,B) of Lemma 5.3, computed exactly in O(n³).
///
/// Both matrices are projected onto the complement of `null_dir` (pass the
/// all-ones vector for connected Laplacians); the pencil is then solved via
/// `B^{-1/2} A B^{-1/2}` in the projected basis.
///
/// # Panics
///
/// Panics if the matrix shapes or the null-direction length disagree.
pub fn pencil_eigen_dense(a: &DenseMatrix, b: &DenseMatrix, null_dir: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    assert_eq!(b.nrows(), n);
    assert_eq!(null_dir.len(), n);
    // Orthonormal basis of the complement of null_dir: columns of P (n × n-1).
    let basis = complement_basis(null_dir);
    let pa = project(a, &basis);
    let pb = project(b, &basis);
    // pb should be PD on the complement. Factor pb = L Lᵀ, form L⁻¹ pa L⁻ᵀ.
    let chol = CholeskyFactor::factor(&pb)
        // audit: allow(panic-path) — PD off the nullspace is a documented precondition
        .expect("pencil_eigen_dense: B not positive definite off the nullspace");
    let m = pa.nrows();
    // eigvals(B⁻¹A) = eigvals(L⁻¹ A L⁻ᵀ); compute W = L⁻¹ PA L⁻ᵀ explicitly.
    // First Y = L⁻¹ PA  (solve L Y = PA column-wise on rows)
    let mut y = pa.clone();
    for col in 0..m {
        // forward substitution on column `col`
        for i in 0..m {
            let mut v = y[(i, col)];
            for k in 0..i {
                v -= chol.l[(i, k)] * y[(k, col)];
            }
            y[(i, col)] = v / chol.l[(i, i)];
        }
    }
    // Then W = Y L⁻ᵀ, i.e. solve Wᵀ from L Wᵀ = Yᵀ.
    let yt = y.transpose();
    let mut wt = yt.clone();
    for col in 0..m {
        for i in 0..m {
            let mut v = wt[(i, col)];
            for k in 0..i {
                v -= chol.l[(i, k)] * wt[(k, col)];
            }
            wt[(i, col)] = v / chol.l[(i, i)];
        }
    }
    let mut w = wt.transpose();
    // Numerical symmetrization before Jacobi.
    for i in 0..m {
        for j in (i + 1)..m {
            let s = 0.5 * (w[(i, j)] + w[(j, i)]);
            w[(i, j)] = s;
            w[(j, i)] = s;
        }
    }
    let (vals, _) = jacobi_eigen(&w);
    vals
}

/// Orthonormal basis (columns) of the orthogonal complement of `dir`.
fn complement_basis(dir: &[f64]) -> DenseMatrix {
    let n = dir.len();
    // Householder reflection mapping e_0 to dir/|dir|; the last n-1 columns
    // of the reflector span the complement.
    let mut v = dir.to_vec();
    let nrm = crate::vector::norm2(&v);
    assert!(nrm > 0.0, "complement_basis: zero direction");
    for x in &mut v {
        *x /= nrm;
    }
    // u = v - e0; H = I - 2uuᵀ/(uᵀu) maps e0 -> v.
    let mut u = v.clone();
    u[0] -= 1.0;
    let uu = crate::vector::dot(&u, &u);
    let mut h = DenseMatrix::identity(n);
    if uu > 1e-30 {
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] -= 2.0 * u[i] * u[j] / uu;
            }
        }
    }
    // Columns 1..n of H are the basis.
    let mut basis = DenseMatrix::zeros(n, n - 1);
    for i in 0..n {
        for j in 1..n {
            basis[(i, j - 1)] = h[(i, j)];
        }
    }
    basis
}

/// `Pᵀ A P` for a basis matrix `P` with orthonormal columns.
fn project(a: &DenseMatrix, basis: &DenseMatrix) -> DenseMatrix {
    basis.transpose().matmul(&a.matmul(basis))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_path(n: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n - 1 {
            a[(i, i)] += 1.0;
            a[(i + 1, i + 1)] += 1.0;
            a[(i, i + 1)] -= 1.0;
            a[(i + 1, i)] -= 1.0;
        }
        a
    }

    #[test]
    fn cholesky_solves_spd() {
        // A = [[4,2],[2,3]]
        let a = DenseMatrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let f = CholeskyFactor::factor(&a).unwrap();
        let x = f.solve(&[10.0, 8.0]);
        let ax = a.mul_vec(&x);
        assert!((ax[0] - 10.0).abs() < 1e-12);
        assert!((ax[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(CholeskyFactor::factor(&a).is_none());
    }

    #[test]
    fn jacobi_diagonal() {
        let a = DenseMatrix::from_rows(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let (vals, _) = jacobi_eigen(&a);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_path_laplacian_spectrum() {
        // Path P3 Laplacian eigenvalues: 0, 1, 3.
        let a = laplacian_path(3);
        let (vals, vecs) = jacobi_eigen(&a);
        assert!(vals[0].abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
        // Check A v = λ v for the second pair.
        let v1: Vec<f64> = (0..3).map(|r| vecs[(r, 1)]).collect();
        let av = a.mul_vec(&v1);
        for i in 0..3 {
            assert!((av[i] - vals[1] * v1[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn pencil_identity() {
        // λ(A, A) = 1 for all eigenvalues (off the nullspace).
        let a = laplacian_path(4);
        let ones = vec![1.0; 4];
        let vals = pencil_eigen_dense(&a, &a, &ones);
        for v in vals {
            assert!((v - 1.0).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn pencil_scaled() {
        // λmax(2A, A) = 2.
        let a = laplacian_path(5);
        let two_a = {
            let mut m = a.clone();
            for x in &mut m.data {
                *x *= 2.0;
            }
            m
        };
        let ones = vec![1.0; 5];
        let vals = pencil_eigen_dense(&two_a, &a, &ones);
        let max = vals.last().unwrap();
        assert!((max - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matmul_identity() {
        let a = laplacian_path(4);
        let i = DenseMatrix::identity(4);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn csr_dense_roundtrip() {
        let a = laplacian_path(4);
        let csr = a.to_csr();
        let back = csr.to_dense();
        assert!(a.frob_dist(&back) < 1e-14);
    }
}
