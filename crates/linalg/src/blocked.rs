//! Band-blocked CSR SpMV: the kernel behind every production SpMV
//! ([`crate::csr::CsrMatrix::spmv_into`] and the fused row sweeps of
//! [`crate::csr::CsrMatrix::sweep_rows`]).
//!
//! Plain CSR SpMV walks `row_ptr: &[usize]` and performs one indexed load
//! per nonzero through three parallel arrays. This module trades a
//! one-time O(nrows) index build for a tighter steady-state kernel:
//!
//! * rows are grouped into **bands** of [`BAND_ROWS`] rows, so the output
//!   slice, the band's row pointers, and the band's nonzeros stream through
//!   cache together;
//! * each band stores **band-local `u32` row pointers** (offsets from the
//!   band's first nonzero), halving index bandwidth versus `usize` and
//!   letting the inner loop run over plain slices with no bounds checks;
//! * the parallel path assigns whole bands to workers via
//!   `par_chunks_mut(BAND_ROWS)` — each output element is still written by
//!   exactly one worker, and each row is still a single sequential
//!   reduction in storage order.
//!
//! The kernel runs at every size: measured against the plain row loop it
//! wins down to a single-band 10×10 grid (DESIGN.md §12), so there is no
//! size cutoff below which the reference loop takes over.
//!
//! **Bitwise contract.** The blocked kernel accumulates every row in
//! exactly the order [`crate::csr::CsrMatrix::mul_into`] does (increasing
//! nonzero position, `v * x[c]` per element, one scalar accumulator per
//! row). Blocking changes *which* pointer arithmetic finds the row, never
//! the floating-point expression — so blocked and reference results are
//! bitwise identical at any thread count.

use rayon::prelude::*;

/// Rows per cache band. 1024 rows × (8B ptr + ~5 nnz × 12B) keeps a band's
/// index and value traffic comfortably inside a 256 KiB L2 slice for the
/// bounded-degree Laplacians this workspace solves.
pub const BAND_ROWS: usize = 1024;

/// One row of `A x` from the row's column indices and values: `acc +=
/// v * x[c]` in storage order from `0.0`, the reference accumulation
/// ([`crate::csr::CsrMatrix::mul_into`]) every production SpMV shares.
#[inline(always)]
pub(crate) fn row_sum(ci: &[u32], vs: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&c, &v) in ci.iter().zip(vs) {
        // CsrMatrix validates col indices at construction, so `c` is in
        // bounds: c < ncols == x.len().
        acc += v * x[c as usize];
    }
    acc
}

/// Precomputed row-band index over a CSR structure.
///
/// For band `b` covering rows `[b·BAND_ROWS, min((b+1)·BAND_ROWS, nrows))`:
/// `nnz_start[b]` is the global position of the band's first nonzero and
/// `local_ptr[ptr_start(b) + i]` is the `u32` offset of band row `i`'s
/// nonzeros from `nnz_start[b]` (one extra terminator entry per band).
/// Depends only on `row_ptr`, never on values — so it stays valid across
/// `values_mut` edits.
#[derive(Debug, Clone)]
pub struct BlockIndex {
    nrows: usize,
    nnz_start: Vec<usize>,
    local_ptr: Vec<u32>,
}

impl BlockIndex {
    /// Builds the band index for a CSR row-pointer array (`row_ptr.len() ==
    /// nrows + 1`, monotone — guaranteed by `CsrMatrix`'s invariants).
    ///
    /// Returns `None` if any single band holds more than `u32::MAX`
    /// nonzeros (≥ 4 Gi entries in 1024 rows) — callers fall back to the
    /// reference kernel, which is bitwise identical anyway.
    pub fn build(nrows: usize, row_ptr: &[usize]) -> Option<BlockIndex> {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        let nbands = nrows.div_ceil(BAND_ROWS);
        let mut nnz_start = Vec::with_capacity(nbands);
        let mut local_ptr = Vec::with_capacity(nrows + nbands);
        for b in 0..nbands {
            let r0 = b * BAND_ROWS;
            let r1 = ((b + 1) * BAND_ROWS).min(nrows);
            let base = row_ptr[r0];
            if row_ptr[r1] - base > u32::MAX as usize {
                return None;
            }
            nnz_start.push(base);
            for &p in &row_ptr[r0..=r1] {
                local_ptr.push((p - base) as u32);
            }
        }
        Some(BlockIndex {
            nrows,
            nnz_start,
            local_ptr,
        })
    }

    /// Start of band `b`'s entries inside `local_ptr` (each band owns
    /// `rows_in_band + 1` entries).
    #[inline]
    fn ptr_start(&self, b: usize) -> usize {
        // Every band before the last has exactly BAND_ROWS + 1 entries.
        b * (BAND_ROWS + 1)
    }

    /// Computes one band of `y = A x`: rows `[r0, r1)` of the product into
    /// `y_band` (length `r1 - r0`). The inner loop is the bitwise-identical
    /// twin of the reference kernel's, expressed over band-local slices.
    #[inline]
    fn band_into(&self, b: usize, col_idx: &[u32], values: &[f64], x: &[f64], y_band: &mut [f64]) {
        let base = self.nnz_start[b];
        let ps = self.ptr_start(b);
        let lp = &self.local_ptr[ps..ps + y_band.len() + 1];
        let band_nnz = lp[y_band.len()] as usize;
        let ci = &col_idx[base..base + band_nnz];
        let vs = &values[base..base + band_nnz];
        // `windows(2)` leaves the per-row pointer loads without bounds
        // checks; indexing `lp[i + 1]` made this kernel slower than the
        // reference loop on small operators (DESIGN.md §12).
        for (yr, w) in y_band.iter_mut().zip(lp.windows(2)) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            *yr = row_sum(&ci[lo..hi], &vs[lo..hi], x);
        }
    }

    /// Row sums `(A x)_i` for the rows in `rows`, handed to `f` one per
    /// row in increasing row order, each accumulated by the band kernel's
    /// row loop — so each equals [`Self::mul_into`]'s `y[i]` bit for bit.
    /// The consumer, not an output vector, receives the sums: fused sweeps
    /// use this to finish a row's vector work while the row is hot.
    /// Sequential; callers that fan out split `rows` themselves.
    ///
    /// # Panics
    /// Panics if `rows` is reversed or ends past the indexed row count.
    #[inline]
    pub fn sweep_rows<F: FnMut(f64)>(
        &self,
        col_idx: &[u32],
        values: &[f64],
        x: &[f64],
        rows: std::ops::Range<usize>,
        mut f: F,
    ) {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows,
            "blocked sweep: rows {rows:?} out of {}",
            self.nrows
        );
        let mut r0 = rows.start;
        while r0 < rows.end {
            let b = r0 / BAND_ROWS;
            let r1 = ((b + 1) * BAND_ROWS).min(rows.end);
            let ps = self.ptr_start(b) + (r0 - b * BAND_ROWS);
            let lp = &self.local_ptr[ps..=ps + (r1 - r0)];
            let base = self.nnz_start[b];
            let band_nnz = lp[r1 - r0] as usize;
            let ci = &col_idx[base..base + band_nnz];
            let vs = &values[base..base + band_nnz];
            for w in lp.windows(2) {
                let (lo, hi) = (w[0] as usize, w[1] as usize);
                f(row_sum(&ci[lo..hi], &vs[lo..hi], x));
            }
            r0 = r1;
        }
    }

    /// Blocked `y = A x`, bitwise identical to
    /// [`crate::csr::CsrMatrix::mul_into`] on the same operands. With
    /// `parallel`, whole bands are distributed across pool workers; a
    /// band's result does not depend on which worker runs it, so the
    /// output is the same at any thread count.
    ///
    /// # Panics
    /// Panics if `y.len()` disagrees with the indexed row count.
    pub fn mul_into(
        &self,
        col_idx: &[u32],
        values: &[f64],
        x: &[f64],
        y: &mut [f64],
        parallel: bool,
    ) {
        assert_eq!(y.len(), self.nrows, "blocked mul: y length");
        if parallel {
            y.par_chunks_mut(BAND_ROWS)
                .enumerate()
                .for_each(|(b, y_band)| self.band_into(b, col_idx, values, x, y_band));
        } else {
            for (b, y_band) in y.chunks_mut(BAND_ROWS).enumerate() {
                self.band_into(b, col_idx, values, x, y_band);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;

    fn banded(n: usize, bw: usize) -> crate::csr::CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0 + (i % 7) as f64);
            for d in 1..=bw {
                if i + d < n {
                    b.push_sym(i, i + d, -1.0 / d as f64);
                }
            }
        }
        b.build()
    }

    #[test]
    fn blocked_matches_reference_bitwise() {
        // Sizes straddling one band, an exact band boundary, and many bands.
        for n in [5usize, BAND_ROWS, BAND_ROWS + 1, 3 * BAND_ROWS + 17] {
            let a = banded(n, 3);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let mut y_ref = vec![0.0; n];
            a.mul_into(&x, &mut y_ref);
            let bi = BlockIndex::build(n, a.row_ptr()).expect("index builds");
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            for parallel in [false, true] {
                let mut y = vec![0.0; n];
                bi.mul_into(a.col_idx(), a.values(), &x, &mut y, parallel);
                assert_eq!(bits(&y_ref), bits(&y), "n={n} parallel={parallel}");
            }
        }
    }

    #[test]
    fn band_geometry() {
        let a = banded(2 * BAND_ROWS + 100, 2);
        let bi = BlockIndex::build(a.nrows(), a.row_ptr()).unwrap();
        assert_eq!(bi.nnz_start.len(), 3);
        // Empty matrix: zero bands, still valid.
        let z = crate::csr::CsrMatrix::zeros(0, 0);
        let bz = BlockIndex::build(0, z.row_ptr()).unwrap();
        assert_eq!(bz.nnz_start.len(), 0);
        let mut y: Vec<f64> = vec![];
        bz.mul_into(z.col_idx(), z.values(), &[], &mut y, false);
    }
}
