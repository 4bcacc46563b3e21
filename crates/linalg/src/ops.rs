//! Abstract linear operators.
//!
//! Iterative methods (CG, Lanczos, pencil power iteration) only need
//! matrix–vector products, so they are written against [`LinearOperator`].
//! Implementations include [`CsrMatrix`], scaled/shifted
//! wrappers, and composite operators like the normalized Laplacian
//! `I − D^{-1/2} A D^{-1/2}` built without forming the product explicitly.

use crate::csr::CsrMatrix;
use crate::vector::{axpby_inplace, hadamard_inplace, hadamard_into};

/// A symmetric real linear operator on `R^n`.
pub trait LinearOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// `y = A x`.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);

    /// Allocating `A x`.
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply_into(x, &mut y);
        y
    }

    /// Rayleigh quotient `xᵀAx / xᵀx` (undefined for `x = 0`).
    fn rayleigh(&self, x: &[f64]) -> f64 {
        let y = self.apply(x);
        crate::vector::dot(x, &y) / crate::vector::dot(x, x)
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.nrows(), self.ncols(), "operator must be square");
        self.nrows()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }
}

/// `alpha * A + beta * I` without materializing the sum.
pub struct ShiftedOperator<'a, A: LinearOperator> {
    /// Underlying operator.
    pub inner: &'a A,
    /// Multiplier on the operator.
    pub alpha: f64,
    /// Multiplier on the identity.
    pub beta: f64,
}

impl<'a, A: LinearOperator> LinearOperator for ShiftedOperator<'a, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply_into(x, y);
        axpby_inplace(self.alpha, self.beta, x, y);
    }
}

/// Diagonal congruence `S A S` for a diagonal matrix `S = diag(s)`.
///
/// With `s = d^{-1/2}` and `A` a Laplacian this is the normalized Laplacian
/// `Â = D^{-1/2} A D^{-1/2}` of the paper's Section 4.
pub struct DiagonalCongruence<'a, A: LinearOperator> {
    /// Inner operator.
    pub inner: &'a A,
    /// Diagonal scaling applied on both sides.
    pub scaling: &'a [f64],
}

impl<'a, A: LinearOperator> DiagonalCongruence<'a, A> {
    /// Builds `S A S`; `scaling.len()` must equal the operator dimension.
    ///
    /// # Panics
    ///
    /// Panics if the scaling vector length differs from the inner operator dimension.
    pub fn new(inner: &'a A, scaling: &'a [f64]) -> Self {
        assert_eq!(inner.dim(), scaling.len());
        DiagonalCongruence { inner, scaling }
    }
}

impl<'a, A: LinearOperator> LinearOperator for DiagonalCongruence<'a, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let mut sx = vec![0.0; x.len()];
        hadamard_into(x, self.scaling, &mut sx);
        self.inner.apply_into(&sx, y);
        hadamard_inplace(y, self.scaling);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;

    fn path3() -> CsrMatrix {
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(1, 1, 2.0);
        b.push(2, 2, 1.0);
        b.push_sym(0, 1, -1.0);
        b.push_sym(1, 2, -1.0);
        b.build()
    }

    #[test]
    fn csr_as_operator() {
        let a = path3();
        assert_eq!(a.dim(), 3);
        assert_eq!(a.apply(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn shifted_operator() {
        let a = path3();
        let s = ShiftedOperator {
            inner: &a,
            alpha: -1.0,
            beta: 2.0,
        };
        // (2I - A) x for x = e1
        let y = s.apply(&[1.0, 0.0, 0.0]);
        assert_eq!(y, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn congruence_normalized_laplacian_kernel() {
        let a = path3();
        let d = a.diagonal();
        let s: Vec<f64> = d.iter().map(|&x| 1.0 / x.sqrt()).collect();
        let norm = DiagonalCongruence::new(&a, &s);
        // kernel of Â is D^{1/2} 1
        let dsqrt: Vec<f64> = d.iter().map(|&x| x.sqrt()).collect();
        let y = norm.apply(&dsqrt);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn rayleigh_quotient() {
        let a = CsrMatrix::from_diagonal(&[1.0, 5.0]);
        assert!((a.rayleigh(&[1.0, 0.0]) - 1.0).abs() < 1e-14);
        assert!((a.rayleigh(&[0.0, 2.0]) - 5.0).abs() < 1e-14);
    }
}
