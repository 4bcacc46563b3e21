//! Cache-blocked CSR SpMV: row-band blocking with a precomputed block index.
//!
//! Plain CSR SpMV walks `row_ptr: &[usize]` and performs one indexed load
//! per nonzero through three parallel arrays. On matrices whose working set
//! exceeds the last-level cache, the row-pointer traffic and bounds checks
//! become a measurable fraction of the per-nnz cost. This module trades a
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
//! **Bitwise contract.** Both blocked kernels accumulate every row in
//! exactly the order [`crate::csr::CsrMatrix::mul_into`] does (increasing
//! nonzero position, `v * x[c]` per element, one scalar accumulator per
//! row). Blocking changes *which* pointer arithmetic finds the row, never
//! the floating-point expression — so blocked and unblocked results are
//! bitwise identical at any thread count, and the dispatch threshold is a
//! pure performance knob that tests may pin to 0 or `usize::MAX` freely.
//!
use crate::block::DenseBlock;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rows per cache band. 1024 rows × (8B ptr + ~5 nnz × 12B) keeps a band's
/// index and value traffic comfortably inside a 256 KiB L2 slice for the
/// bounded-degree Laplacians this workspace solves.
pub const BAND_ROWS: usize = 1024;

/// Default nnz threshold above which [`crate::csr::CsrMatrix::mul_into_with`]
/// routes through the blocked kernel. Below it the index build and extra
/// indirection cost more than they save.
pub const DEFAULT_BLOCK_NNZ: usize = 1 << 15;

/// Sentinel meaning "no runtime override installed".
const UNSET: usize = usize::MAX;

/// Serializes tests that toggle the process-global threshold override.
/// Results are threshold-independent (all kernels bitwise identical), but
/// assertions *about the threshold value itself* must not interleave.
#[cfg(test)]
pub(crate) static TEST_THRESHOLD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

static BLOCK_NNZ_OVERRIDE: AtomicUsize = AtomicUsize::new(UNSET);

/// Overrides the blocked-SpMV nnz dispatch threshold for this process.
///
/// `Some(0)` forces every SpMV through the blocked path (determinism tests
/// use this), `Some(n)` sets the crossover, and `None` restores the
/// environment/default resolution. Because blocked and unblocked kernels
/// are bitwise identical, toggling this concurrently with solves is safe —
/// it changes speed, never results. An override of `usize::MAX` disables
/// blocking entirely.
pub fn set_spmv_block_threshold(t: Option<usize>) {
    // UNSET doubles as the sentinel; Some(usize::MAX) and None coincide in
    // effect only when the default also resolves to MAX, so map MAX - 0
    // explicitly: Some(MAX) means "never block", which the dispatch test
    // `nnz >= MAX` already expresses for every finite matrix.
    // ordering: Relaxed suffices — the threshold is a self-contained
    // performance knob, not a publication latch: no other memory is
    // released by this store, and readers seeing a stale value merely
    // dispatch the other (bitwise-identical) kernel.
    BLOCK_NNZ_OVERRIDE.store(t.unwrap_or(UNSET), Ordering::Relaxed);
}

/// Resolves the active blocked-SpMV nnz threshold: runtime override if one
/// is installed, else `HICOND_SPMV_BLOCK_NNZ`, else [`DEFAULT_BLOCK_NNZ`].
///
/// # Panics
/// Panics if `HICOND_SPMV_BLOCK_NNZ` is set but not a base-10 `usize` —
/// the same strict stance as `HICOND_THREADS`: a set-but-garbled tuning
/// variable is an operator error that must fail fast, not degrade silently.
pub fn spmv_block_threshold() -> usize {
    // ordering: Relaxed suffices — the value is complete in the atomic
    // itself (no guarded payload to acquire), and a racing reader at worst
    // picks the other bitwise-identical kernel for one dispatch.
    let o = BLOCK_NNZ_OVERRIDE.load(Ordering::Relaxed);
    if o != UNSET {
        return o;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("HICOND_SPMV_BLOCK_NNZ") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) => v,
            // A set-but-garbled env var is an operator error that must fail
            // fast, not degrade silently.
            // audit: allow(panic-path)
            Err(_) => panic!(
                "invalid HICOND_SPMV_BLOCK_NNZ value `{raw}`: expected a non-negative integer"
            ),
        },
        Err(_) => DEFAULT_BLOCK_NNZ,
    })
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
    /// unblocked kernel, which is bitwise identical anyway.
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

    /// Number of row bands.
    pub fn nbands(&self) -> usize {
        self.nnz_start.len()
    }

    /// Heap bytes held by the index (for capacity accounting).
    pub fn heap_bytes(&self) -> usize {
        self.nnz_start.len() * std::mem::size_of::<usize>()
            + self.local_ptr.len() * std::mem::size_of::<u32>()
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
        for (i, yr) in y_band.iter_mut().enumerate() {
            let lo = lp[i] as usize;
            let hi = lp[i + 1] as usize;
            let mut acc = 0.0;
            for (&c, &v) in ci[lo..hi].iter().zip(&vs[lo..hi]) {
                // CsrMatrix validates col indices at construction,
                // so `c` is in bounds: c < ncols == x.len().
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
    }

    /// Sequential blocked `y = A x`. Bitwise identical to
    /// [`crate::csr::CsrMatrix::mul_into`] on the same operands.
    ///
    /// # Panics
    /// Panics if `y.len()` disagrees with the indexed row count.
    pub fn mul_into(&self, col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "blocked mul: y length");
        if hicond_obs::enabled() {
            hicond_obs::counter_add("spmv/blocks", self.nbands() as u64);
        }
        for (b, y_band) in y.chunks_mut(BAND_ROWS).enumerate() {
            self.band_into(b, col_idx, values, x, y_band);
        }
    }

    /// Parallel blocked `y = A x`: whole bands are distributed across
    /// workers, each band computed by the sequential band kernel. Since a
    /// band's result does not depend on which worker runs it, the output is
    /// bitwise identical to the sequential path at any thread count.
    ///
    /// # Panics
    /// Panics if `y.len()` disagrees with the indexed row count.
    pub fn par_mul_into(&self, col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "blocked mul: y length");
        if hicond_obs::enabled() {
            hicond_obs::counter_add("spmv/blocks", self.nbands() as u64);
        }
        y.par_chunks_mut(BAND_ROWS)
            .enumerate()
            .for_each(|(b, y_band)| {
                self.band_into(b, col_idx, values, x, y_band);
            });
    }

    /// Multi-vector blocked SpMV: `y[:, j] = A x[:, j]` for each `j` in
    /// `active`. The sequential path is **band-major**: each matrix band's
    /// pointers, indices, and values are loaded once and feed all active
    /// columns while still hot in cache, instead of being re-streamed k
    /// times. The parallel path runs [`Self::par_mul_into`] column by
    /// column, so neither path allocates.
    ///
    /// The per-(band, column) work is exactly [`Self::band_into`], so each
    /// column's result is bitwise identical to [`Self::mul_into`] on that
    /// column alone, at any thread count and jitter seed. Inactive columns
    /// are neither read nor written.
    ///
    /// # Panics
    /// Panics if a column length disagrees with the indexed row count or
    /// `active` indexes past the block width.
    pub fn mul_block_into(
        &self,
        col_idx: &[u32],
        values: &[f64],
        x: &DenseBlock,
        y: &mut DenseBlock,
        active: &[usize],
        parallel: bool,
    ) {
        assert_eq!(y.n(), self.nrows, "blocked block mul: y length");
        if parallel {
            for &j in active {
                self.par_mul_into(col_idx, values, x.col(j), y.col_mut(j));
            }
            return;
        }
        if hicond_obs::enabled() {
            hicond_obs::counter_add("spmv/blocks", self.nbands() as u64);
            hicond_obs::counter_add("spmv/block_columns", active.len() as u64);
        }
        for b in 0..self.nbands() {
            let r0 = b * BAND_ROWS;
            let r1 = ((b + 1) * BAND_ROWS).min(self.nrows);
            for &j in active {
                self.band_into(b, col_idx, values, x.col(j), &mut y.col_mut(j)[r0..r1]);
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
            let mut y_blk = vec![0.0; n];
            let mut y_par = vec![0.0; n];
            a.mul_into(&x, &mut y_ref);
            let bi = BlockIndex::build(n, a.row_ptr()).expect("index builds");
            bi.mul_into(a.col_idx(), a.values(), &x, &mut y_blk);
            bi.par_mul_into(a.col_idx(), a.values(), &x, &mut y_par);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y_ref), bits(&y_blk), "n={n} sequential");
            assert_eq!(bits(&y_ref), bits(&y_par), "n={n} parallel");
        }
    }

    #[test]
    fn block_mul_matches_per_column_bitwise() {
        for n in [7usize, BAND_ROWS, 2 * BAND_ROWS + 31] {
            let a = banded(n, 4);
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|j| (0..n).map(|i| ((i + 31 * j) as f64 * 0.3).sin()).collect())
                .collect();
            let bi = BlockIndex::build(n, a.row_ptr()).expect("index builds");
            let mut refs: Vec<Vec<f64>> = vec![vec![0.0; n]; 3];
            for (x, y) in cols.iter().zip(refs.iter_mut()) {
                bi.mul_into(a.col_idx(), a.values(), x, y);
            }
            let x = DenseBlock::from_columns(&cols);
            for parallel in [false, true] {
                let mut y = DenseBlock::new(n, 3);
                bi.mul_block_into(a.col_idx(), a.values(), &x, &mut y, &[0, 2], parallel);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                for j in [0, 2] {
                    assert_eq!(
                        bits(y.col(j)),
                        bits(&refs[j]),
                        "n={n} parallel={parallel} col={j}"
                    );
                }
                assert!(
                    y.col(1).iter().all(|&v| v == 0.0),
                    "inactive column untouched"
                );
            }
        }
    }

    #[test]
    fn band_geometry() {
        let a = banded(2 * BAND_ROWS + 100, 2);
        let bi = BlockIndex::build(a.nrows(), a.row_ptr()).unwrap();
        assert_eq!(bi.nbands(), 3);
        assert!(bi.heap_bytes() > 0);
        // Empty matrix: zero bands, still valid.
        let z = crate::csr::CsrMatrix::zeros(0, 0);
        let bz = BlockIndex::build(0, z.row_ptr()).unwrap();
        assert_eq!(bz.nbands(), 0);
        let mut y: Vec<f64> = vec![];
        bz.mul_into(z.col_idx(), z.values(), &[], &mut y);
    }

    #[test]
    fn threshold_override_roundtrip() {
        let _guard = TEST_THRESHOLD_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        set_spmv_block_threshold(Some(0));
        assert_eq!(spmv_block_threshold(), 0);
        set_spmv_block_threshold(Some(123));
        assert_eq!(spmv_block_threshold(), 123);
        set_spmv_block_threshold(None);
        // Default resolution (no env set in the test harness).
        let t = spmv_block_threshold();
        assert!(t == DEFAULT_BLOCK_NNZ || t > 0, "resolved {t}");
        set_spmv_block_threshold(None);
    }
}
