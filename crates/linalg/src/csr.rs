//! Compressed sparse row (CSR) matrices.
//!
//! The workspace stores graph Laplacians and quotient operators as symmetric
//! CSR matrices. Assembly goes through [`CooBuilder`], which accepts
//! duplicate triplets and sums them — exactly what the algebraic quotient
//! construction `Q = RᵀAR` of the paper's Definition 3.1 produces.

use crate::blocked::{row_sum, BlockIndex};
use crate::invariant::InvariantViolation;
use rayon::prelude::*;
use std::sync::OnceLock;

/// A sparse matrix in CSR format over `f64`.
///
/// Invariants: `row_ptr.len() == nrows + 1`, `row_ptr` is non-decreasing,
/// column indices within each row are strictly increasing and `< ncols`.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Lazily built row-band index for the blocked SpMV kernel. Depends
    /// only on `row_ptr` (structure), so it survives `values_mut` edits;
    /// `None` inside means the structure is not blockable (a band would
    /// overflow `u32` offsets) and the plain kernel is used instead.
    bands: OnceLock<Option<BlockIndex>>,
}

/// Equality is over the mathematical content (shape + structure + values);
/// the derived impl would also compare the lazily built block-index cache,
/// which is a performance artifact, not part of the matrix's identity.
impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Internal constructor: all in-crate assembly funnels through here so
    /// the block-index cache slot is initialized in exactly one place.
    fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            bands: OnceLock::new(),
        }
    }
    /// Builds a CSR matrix from raw parts, checking the invariants.
    ///
    /// # Panics
    /// Panics if the invariants listed on the type are violated.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/val length mismatch");
        // bounds: row_ptr.len() == nrows + 1 was asserted just above
        assert_eq!(row_ptr[nrows], col_idx.len(), "row_ptr end");
        for r in 0..nrows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr monotone");
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns sorted and unique in row {r}");
            }
            if let Some(&c) = cols.last() {
                assert!((c as usize) < ncols, "column index out of range");
            }
        }
        CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, values)
    }

    /// Fallible variant of [`CsrMatrix::from_parts`]: validates the same
    /// invariants (plus finite values) and returns the violation instead of
    /// panicking. This is the constructor decode paths must use — artifact
    /// bytes are untrusted input.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, InvariantViolation> {
        let m = CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, values);
        m.check_invariants()?;
        Ok(m)
    }

    /// Validates the structural invariants documented on the type:
    /// `row_ptr` shape and monotonicity, strictly increasing in-bounds
    /// column indices per row, and finite stored values.
    ///
    /// Always compiled; use [`CsrMatrix::debug_invariants`] for the
    /// zero-cost-in-release variant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |rule: &'static str, message: String, witness: Vec<usize>| {
            Err(InvariantViolation::new(
                "hicond-linalg",
                "CsrMatrix",
                rule,
                message,
                witness,
            ))
        };
        // checked_sub keeps the comparison total when a decoded nrows is
        // usize::MAX (nrows + 1 would overflow).
        if self.row_ptr.len().checked_sub(1) != Some(self.nrows) {
            return fail(
                "row-ptr-len",
                format!(
                    "row_ptr has length {}, expected nrows + 1 for nrows = {}",
                    self.row_ptr.len(),
                    self.nrows
                ),
                vec![],
            );
        }
        if self.col_idx.len() != self.values.len() {
            return fail(
                "col-val-len",
                format!(
                    "{} column indices vs {} values",
                    self.col_idx.len(),
                    self.values.len()
                ),
                vec![],
            );
        }
        if self.row_ptr.first() != Some(&0) || self.row_ptr.last() != Some(&self.col_idx.len()) {
            return fail(
                "row-ptr-ends",
                format!(
                    "row_ptr must start at 0 and end at nnz = {}",
                    self.col_idx.len()
                ),
                vec![],
            );
        }
        // A validator must be total: every access below is `get`-based, so
        // a row_ptr whose interior entries are wild (possible in decoded
        // bytes) reports a violation instead of panicking mid-check.
        for r in 0..self.nrows {
            let row = self
                .row_ptr
                .get(r)
                .zip(self.row_ptr.get(r + 1))
                .map(|(&lo, &hi)| (lo, hi));
            let Some((lo, hi)) = row else {
                return fail("row-ptr-len", format!("row_ptr misses row {r}"), vec![r]);
            };
            if lo > hi || hi > self.col_idx.len() {
                return fail(
                    "row-ptr-monotone",
                    format!("row_ptr range [{lo}, {hi}) invalid at row {r}"),
                    vec![r],
                );
            }
            let cols = self.col_idx.get(lo..hi).unwrap_or(&[]);
            for w in cols.windows(2) {
                let (Some(&a), Some(&b)) = (w.first(), w.last()) else {
                    continue;
                };
                if a >= b {
                    return fail(
                        "cols-sorted",
                        format!("row {r} columns not strictly increasing ({a} then {b})"),
                        vec![r, a as usize, b as usize],
                    );
                }
            }
            if let Some(&c) = cols.last() {
                if (c as usize) >= self.ncols {
                    return fail(
                        "cols-in-bounds",
                        format!("row {r} has column {c} >= ncols {}", self.ncols),
                        vec![r, c as usize],
                    );
                }
            }
        }
        for (k, &v) in self.values.iter().enumerate() {
            if !v.is_finite() {
                return fail(
                    "values-finite",
                    format!("stored value at position {k} is {v}"),
                    vec![k],
                );
            }
        }
        Ok(())
    }

    /// Validates Laplacian-specific invariants on top of
    /// [`CsrMatrix::check_invariants`]: the matrix is square, symmetric
    /// (within `tol` relative), and every row sums to zero (within `tol`
    /// of the diagonal scale).
    pub fn check_laplacian_invariants(&self, tol: f64) -> Result<(), InvariantViolation> {
        self.check_invariants()?;
        let fail = |rule: &'static str, message: String, witness: Vec<usize>| {
            Err(InvariantViolation::new(
                "hicond-linalg",
                "CsrMatrix",
                rule,
                message,
                witness,
            ))
        };
        if self.nrows != self.ncols {
            return fail(
                "laplacian-square",
                format!("{}×{} matrix is not square", self.nrows, self.ncols),
                vec![],
            );
        }
        for r in 0..self.nrows {
            let mut sum = 0.0;
            let mut scale: f64 = 1.0;
            for (c, v) in self.row(r) {
                sum += v;
                scale = scale.max(v.abs());
                let vt = self.get(c, r);
                if !crate::approx_eq(v, vt, tol) {
                    return fail(
                        "laplacian-symmetric",
                        format!("A[{r},{c}] = {v} but A[{c},{r}] = {vt}"),
                        vec![r, c],
                    );
                }
            }
            if sum.abs() > tol * scale {
                return fail(
                    "laplacian-zero-row-sum",
                    format!("row {r} sums to {sum} (scale {scale})"),
                    vec![r],
                );
            }
        }
        Ok(())
    }

    /// Panics on any violation of [`CsrMatrix::check_invariants`].
    /// Compiles to a no-op in release builds unless the
    /// `check-invariants` feature is enabled.
    ///
    /// # Panics
    /// Panics with the structured violation report when a structural
    /// invariant fails and checks are compiled in.
    #[inline]
    pub fn debug_invariants(&self) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        crate::invariant::enforce(self.check_invariants());
    }

    /// Panics on any violation of [`CsrMatrix::check_laplacian_invariants`]
    /// at tolerance [`crate::DEFAULT_REL_TOL`]. No-op in release builds
    /// unless the `check-invariants` feature is enabled.
    ///
    /// # Panics
    /// Panics with the structured violation report when a Laplacian
    /// invariant fails and checks are compiled in.
    #[inline]
    pub fn debug_laplacian_invariants(&self) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        crate::invariant::enforce(self.check_laplacian_invariants(crate::DEFAULT_REL_TOL));
    }

    /// The `n × n` zero matrix (no stored entries).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix::from_raw(nrows, ncols, vec![0; nrows + 1], Vec::new(), Vec::new())
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix::from_raw(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// Diagonal matrix with the given diagonal.
    pub fn from_diagonal(d: &[f64]) -> Self {
        let n = d.len();
        CsrMatrix::from_raw(n, n, (0..=n).collect(), (0..n as u32).collect(), d.to_vec())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to stored values (structure is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterates the `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Entry `(i, j)` or 0 if not stored. Binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// The diagonal as a dense vector (square matrices).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn diagonal(&self) -> Vec<f64> {
        assert_eq!(self.nrows, self.ncols, "diagonal of non-square matrix");
        (0..self.nrows).map(|i| self.get(i, i)).collect()
    }

    /// Sequential `y = A x` into a caller-provided buffer.
    ///
    /// This is the **reference kernel**: the band-blocked production path
    /// ([`CsrMatrix::spmv_into`]) must reproduce its output bitwise. The
    /// inner loop runs over row slices (`zip` of columns and values) so the
    /// optimizer drops the per-nonzero bounds checks; the accumulation
    /// order — increasing storage position, `v * x[c]` per term, one scalar
    /// accumulator per row — is the contract the twins must honor.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` length disagrees with the matrix shape.
    pub fn mul_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "mul: x length");
        assert_eq!(y.len(), self.nrows, "mul: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
    }

    /// `y = A x` through the band-blocked kernel, band-parallel when the
    /// rows span more than one BLAS-1 chunk (see [`CsrMatrix::spmv_path`]).
    /// Bitwise identical to [`CsrMatrix::mul_into`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "mul: x length");
        assert_eq!(y.len(), self.nrows, "mul: y length");
        match self.spmv_path() {
            Some((bands, parallel)) => bands.mul_into(&self.col_idx, &self.values, x, y, parallel),
            None => self.mul_into(x, y),
        }
    }

    /// The one SpMV dispatch, shared by [`CsrMatrix::spmv_into`] and
    /// [`CsrMatrix::sweep_rows`]: the lazily built band index and whether
    /// its bands run on the pool. `None` means a band would overflow its
    /// `u32` offsets, and the caller runs the reference kernel instead.
    /// The index depends only on structure, so it stays valid across
    /// [`CsrMatrix::values_mut`] edits.
    ///
    /// The bands go to the pool iff the rows span more than one chunk of
    /// `rayon::pool::chunk_len` — the rule every BLAS-1 kernel follows
    /// (`MIN_PAR_CHUNK = 4096` elements run on the calling thread), so
    /// one solve's SpMVs and vector kernels fan out at the same sizes.
    pub(crate) fn spmv_path(&self) -> Option<(&BlockIndex, bool)> {
        let bands = self
            .bands
            .get_or_init(|| BlockIndex::build(self.nrows, &self.row_ptr))
            .as_ref()?;
        Some((bands, rayon::pool::num_chunks(self.nrows) > 1))
    }

    /// Row sums `(A x)_i` for the rows in `rows`, handed to `f` one per
    /// row in increasing row order: the kernel behind fused row sweeps
    /// that consume each `(A x)_i` as soon as it is ready instead of
    /// storing `y` (the multilevel preconditioner's smoothing sweeps).
    /// Each sum is bitwise equal to [`CsrMatrix::spmv_into`]'s `y[i]`.
    /// Sequential and allocation-free; a caller that fans out splits
    /// `rows` itself.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`, or `rows` is reversed or ends past
    /// `nrows`.
    #[inline]
    pub fn sweep_rows(&self, x: &[f64], rows: std::ops::Range<usize>, mut f: impl FnMut(f64)) {
        assert_eq!(x.len(), self.ncols, "sweep_rows: x length");
        match self.spmv_path() {
            Some((bands, _)) => bands.sweep_rows(&self.col_idx, &self.values, x, rows, f),
            None => {
                assert!(rows.start <= rows.end, "sweep_rows: reversed rows");
                for w in self.row_ptr[rows.start..=rows.end].windows(2) {
                    f(row_sum(
                        &self.col_idx[w[0]..w[1]],
                        &self.values[w[0]..w[1]],
                        x,
                    ));
                }
            }
        }
    }

    /// Allocating `A x`.
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Transpose (also CSR). Runs in O(nnz + ncols) with one counting pass
    /// and no auxiliary cursor array: `row_ptr[c]` doubles as the insert
    /// cursor for column `c` during the scatter and is shifted back into
    /// place afterwards.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let pos = row_ptr[c];
                row_ptr[c] += 1;
                col_idx[pos] = r as u32;
                values[pos] = self.values[k];
            }
        }
        // Each cursor ended at the start of the next column's range; shift
        // right by one to restore the row-pointer invariant.
        for c in (1..=self.ncols).rev() {
            row_ptr[c] = row_ptr[c - 1];
        }
        row_ptr[0] = 0;
        // Row order of the source guarantees each output row is sorted.
        CsrMatrix::from_raw(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Checks symmetry up to relative tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| crate::approx_eq(*a, *b, tol))
    }

    /// Sparse matrix sum `A + B` (same shape). Runs in O(nnz(A) + nnz(B))
    /// via a two-pointer merge of each (sorted) row pair — one counting
    /// pass to size the output exactly, one fill pass, no intermediate
    /// triplet buffer or sort.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn add(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let merge_row = |r: usize, emit: &mut dyn FnMut(u32, f64)| {
            let (mut i, ie) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let (mut j, je) = (other.row_ptr[r], other.row_ptr[r + 1]);
            while i < ie && j < je {
                let (ci, cj) = (self.col_idx[i], other.col_idx[j]);
                match ci.cmp(&cj) {
                    std::cmp::Ordering::Less => {
                        emit(ci, self.values[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        emit(cj, other.values[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        emit(ci, self.values[i] + other.values[j]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            while i < ie {
                emit(self.col_idx[i], self.values[i]);
                i += 1;
            }
            while j < je {
                emit(other.col_idx[j], other.values[j]);
                j += 1;
            }
        };
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for r in 0..self.nrows {
            let mut cnt = 0usize;
            merge_row(r, &mut |_, _| cnt += 1);
            row_ptr[r + 1] = cnt;
        }
        for r in 0..self.nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[self.nrows];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for r in 0..self.nrows {
            merge_row(r, &mut |c, v| {
                col_idx.push(c);
                values.push(v);
            });
        }
        let m = CsrMatrix::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values);
        m.debug_invariants();
        m
    }

    /// `A * s` for scalar `s`.
    pub fn scaled(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Sparse–sparse product `A · B`.
    ///
    /// Row-parallel Gustavson with a dense accumulator per worker; used for
    /// the quotient triple product `Q = Rᵀ A R` (paper Remark 1 notes this is
    /// "easily computed via parallel sparse matrix multiplication").
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul shape");
        let n = self.nrows;
        let m = other.ncols;
        let rows: Vec<(Vec<u32>, Vec<f64>)> = (0..n)
            .into_par_iter()
            .map(|r| {
                let mut cols: Vec<u32> = Vec::new();
                let mut vals: Vec<f64> = Vec::new();
                // Sort-merge accumulator; rows are short in every use here
                // (bounded-degree Laplacians, 0/1 membership matrices).
                let mut acc: Vec<(u32, f64)> = Vec::new();
                for (k, av) in self.row(r) {
                    for (c, bv) in other.row(k) {
                        acc.push((c as u32, av * bv));
                    }
                }
                acc.sort_unstable_by_key(|&(c, _)| c);
                for (c, v) in acc {
                    match vals.last_mut() {
                        Some(last_v) if cols.last() == Some(&c) => *last_v += v,
                        _ => {
                            cols.push(c);
                            vals.push(v);
                        }
                    }
                }
                (cols, vals)
            })
            .collect();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut nnz = 0usize;
        for (c, _) in &rows {
            nnz += c.len();
            row_ptr.push(nnz);
        }
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for (c, v) in rows {
            col_idx.extend(c);
            values.extend(v);
        }
        CsrMatrix::from_raw(n, m, row_ptr, col_idx, values)
    }

    /// Extracts the principal submatrix on `keep` (indices must be sorted,
    /// unique). Returns the submatrix in the induced order.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or an index is out of range.
    pub fn principal_submatrix(&self, keep: &[usize]) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols);
        let mut inv = vec![u32::MAX; self.nrows];
        for (new, &old) in keep.iter().enumerate() {
            inv[old] = new as u32;
        }
        let mut b = CooBuilder::new(keep.len(), keep.len());
        for (new_r, &old_r) in keep.iter().enumerate() {
            for (c, v) in self.row(old_r) {
                if inv[c] != u32::MAX {
                    b.push(new_r, inv[c] as usize, v);
                }
            }
        }
        b.build()
    }

    /// Drops stored entries with `|value| <= eps` (structural cleanup).
    pub fn pruned(&self, eps: f64) -> CsrMatrix {
        let mut b = CooBuilder::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                if v.abs() > eps {
                    b.push(r, c, v);
                }
            }
        }
        b.build()
    }

    /// Converts to a dense row-major matrix (small problems / tests only).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                d[(r, c)] += v;
            }
        }
        d
    }
}

/// Triplet (COO) accumulator that builds a [`CsrMatrix`], summing duplicates.
#[derive(Debug, Clone)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// New empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// With preallocated capacity for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Adds `value` at `(row, col)`; duplicates are summed at build time.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.nrows && col < self.ncols, "triplet in range");
        self.entries.push((row as u32, col as u32, value));
    }

    /// Adds a symmetric pair `(row, col)` and `(col, row)`.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Number of triplets currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no triplets buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts, merges duplicates, and emits the CSR matrix.
    pub fn build(mut self) -> CsrMatrix {
        self.entries
            .par_sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut out_col: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut out_val: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut out_row_ptr = vec![0usize; self.nrows + 1];
        let mut k = 0usize;
        let n = self.entries.len();
        for r in 0..self.nrows as u32 {
            while k < n && self.entries[k].0 == r {
                let c = self.entries[k].1;
                let mut acc = self.entries[k].2;
                k += 1;
                while k < n && self.entries[k].0 == r && self.entries[k].1 == c {
                    acc += self.entries[k].2;
                    k += 1;
                }
                out_col.push(c);
                out_val.push(acc);
            }
            out_row_ptr[r as usize + 1] = out_col.len();
        }
        let m = CsrMatrix::from_raw(self.nrows, self.ncols, out_row_ptr, out_col, out_val);
        m.debug_invariants();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 -1 0; -1 2 -1; 0 -1 2]
        let mut b = CooBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 2.0);
        }
        b.push_sym(0, 1, -1.0);
        b.push_sym(1, 2, -1.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let a = small();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.5);
        b.push(1, 0, -1.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn matvec() {
        let a = small();
        let y = a.mul(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn blocked_dispatch_is_bitwise_transparent() {
        // Sequential and band-parallel sides of the one-chunk rule: 4096
        // rows are one BLAS-1 chunk, 4097 are two.
        for n in [4096, 4097, 9_000] {
            let mut b = CooBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 3.0);
                if i + 1 < n {
                    b.push_sym(i, i + 1, -1.0);
                }
                if i + 37 < n {
                    b.push_sym(i, i + 37, -0.5);
                }
            }
            let a = b.build();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let mut y_ref = vec![0.0; n];
            let mut y = vec![0.0; n];
            a.mul_into(&x, &mut y_ref);
            a.spmv_into(&x, &mut y);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y_ref), bits(&y), "n={n}");
            assert_eq!(a.spmv_path().map(|(_, par)| par), Some(n > 4096));
            // The row sweep hands out the same sums over any row range,
            // band-aligned or not.
            for rows in [0..n, 0..0, 1000..1030, 1023..2049, n - 7..n] {
                let mut got = Vec::new();
                a.sweep_rows(&x, rows.clone(), |s| got.push(s));
                assert_eq!(
                    bits(&got),
                    bits(&y_ref[rows.clone()]),
                    "n={n} rows {rows:?}"
                );
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 2, 5.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, -2.0);
        let a = b.build();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 1.0);
        let tt = t.transpose();
        assert_eq!(a, tt);
    }

    #[test]
    fn transpose_preserves_nnz() {
        let mut b = CooBuilder::new(50, 30);
        for i in 0..50 {
            b.push(i, (i * 7) % 30, i as f64 + 1.0);
            b.push(i, (i * 13 + 5) % 30, -(i as f64));
        }
        let a = b.build();
        let t = a.transpose();
        assert_eq!(t.nnz(), a.nnz());
        assert_eq!(t.transpose(), a);
        // Explicit structural zeros survive the transpose too.
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 0.0);
        let z = b.build();
        assert_eq!(z.transpose().nnz(), 1);
    }

    #[test]
    fn add_merges_in_linear_time_shape() {
        // Disjoint, overlapping, and cancelling entries in one test.
        let mut b1 = CooBuilder::new(3, 3);
        b1.push(0, 0, 1.0);
        b1.push(0, 2, 2.0);
        b1.push(2, 1, 4.0);
        let a = b1.build();
        let mut b2 = CooBuilder::new(3, 3);
        b2.push(0, 1, 3.0);
        b2.push(0, 2, -2.0); // cancels a's (0,2) in value, not structure
        b2.push(1, 0, 5.0);
        let b = b2.build();
        let s = a.add(&b);
        // Union of patterns: (0,0) (0,1) (0,2) (1,0) (2,1).
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.get(0, 2), 0.0); // structural zero kept, like CooBuilder
        assert_eq!(s.get(1, 0), 5.0);
        assert_eq!(s.get(2, 1), 4.0);
        // Commutes and matches the triplet-builder semantics.
        assert_eq!(s, b.add(&a));
    }

    #[test]
    fn add_nnz_bounds() {
        let a = small();
        let sum = a.add(&a);
        assert_eq!(sum.nnz(), a.nnz()); // identical pattern: no growth
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(sum.get(r, c), 2.0 * a.get(r, c));
            }
        }
        let empty = CsrMatrix::zeros(3, 3);
        assert_eq!(a.add(&empty), a);
        assert_eq!(empty.add(&a), a);
    }

    #[test]
    fn matmul_small() {
        let a = small();
        let i = CsrMatrix::identity(3);
        let ai = a.matmul(&i);
        assert_eq!(ai, a);
        // A * A on the path Laplacian+2I
        let aa = a.matmul(&a);
        assert_eq!(aa.get(0, 0), 5.0); // 2*2 + (-1)(-1)
        assert_eq!(aa.get(0, 2), 1.0);
    }

    #[test]
    fn principal_submatrix_picks_rows_cols() {
        let a = small();
        let s = a.principal_submatrix(&[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(1, 1), 2.0);
    }

    #[test]
    fn add_and_scale() {
        let a = small();
        let two_a = a.add(&a);
        assert_eq!(two_a.get(1, 0), -2.0);
        let s = a.scaled(3.0);
        assert_eq!(s.get(1, 1), 6.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = small();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn pruned_drops_small() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 1e-15);
        let a = b.build().pruned(1e-12);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn from_diagonal_matvec() {
        let d = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.mul(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }
}

/// Property tests that the invariant layer accepts everything the builder
/// produces and rejects targeted corruptions of the private representation.
/// These live inside the module so they can mutate `row_ptr`/`col_idx`/
/// `values` directly.
#[cfg(test)]
mod invariant_props {
    use super::*;
    use proptest::prelude::*;

    /// Random sparse matrix on `n` columns built through [`CooBuilder`]
    /// (duplicates allowed; the builder merges them).
    fn coo_matrix(n: usize) -> impl Strategy<Value = CsrMatrix> {
        prop::collection::vec((0..n, 0..n, -10.0..10.0f64), 1..4 * n).prop_map(move |entries| {
            let mut b = CooBuilder::new(n, n);
            for (r, c, v) in entries {
                b.push(r, c, v);
            }
            b.build()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn builder_output_satisfies_invariants(m in coo_matrix(9)) {
            prop_assert!(m.check_invariants().is_ok());
        }

        #[test]
        fn non_finite_value_is_rejected(mut m in coo_matrix(9), k in any::<usize>()) {
            prop_assume!(m.nnz() > 0);
            let k = k % m.values.len();
            m.values[k] = f64::NAN;
            let err = m.check_invariants().expect_err("NaN value must be rejected");
            prop_assert_eq!(err.rule, "values-finite");
        }

        #[test]
        fn out_of_bounds_column_is_rejected(mut m in coo_matrix(9), k in any::<usize>()) {
            prop_assume!(m.nnz() > 0);
            let k = k % m.col_idx.len();
            // bounds: ncols is 9 here, far below u32::MAX
            m.col_idx[k] = m.ncols as u32;
            // Depending on position this trips either the sortedness or
            // the bounds rule; both are violations.
            prop_assert!(m.check_invariants().is_err());
        }

        #[test]
        fn unsorted_columns_are_rejected(mut m in coo_matrix(9)) {
            // Swap the first two entries of some row with distinct columns.
            let row = (0..m.nrows).find(|&r| {
                let (s, e) = (m.row_ptr[r], m.row_ptr[r + 1]);
                e - s >= 2 && m.col_idx[s] != m.col_idx[s + 1]
            });
            let r = match row {
                Some(r) => r,
                None => return, // discard: no row wide enough to corrupt
            };
            let s = m.row_ptr[r];
            m.col_idx.swap(s, s + 1);
            let err = m.check_invariants().expect_err("unsorted row must be rejected");
            prop_assert_eq!(err.rule, "cols-sorted");
        }

        #[test]
        fn broken_row_ptr_is_rejected(mut m in coo_matrix(9)) {
            prop_assume!(m.nnz() > 0);
            // Truncating the final offset desynchronizes row_ptr from the
            // entry arrays.
            m.row_ptr[m.nrows] -= 1;
            prop_assert!(m.check_invariants().is_err());
        }
    }
}
