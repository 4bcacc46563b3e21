//! Dense vector kernels with optional rayon parallelism.
//!
//! Vectors are plain `&[f64]` / `&mut [f64]` slices; the kernels here are the
//! BLAS-1 subset the iterative solvers need. The parallel kernels fall
//! back to their sequential loop at or below [`MIN_PAR_CHUNK`] elements.
//!
//! # Chunk geometry and determinism
//!
//! Parallel kernels cut their vectors at [`chunk_len`] boundaries — a
//! size-adaptive geometry from `rayon::pool` that targets
//! `MIN_PAR_CHUNK`-sized chunks and clamps the chunk count, and that
//! deliberately never looks at the live thread count. Chunk partials are
//! written into fixed slots and combined with [`rayon::tree_sum`], whose
//! pairwise shape depends only on the slot count. Geometry and combine
//! shape are thus both pure functions of the vector length, which makes
//! every kernel here bitwise deterministic at any thread count and under
//! `HICOND_SCHED_JITTER`.

use rayon::pool::MIN_PAR_CHUNK;
use rayon::prelude::*;

/// Chunk length the parallel kernels use for vectors of length `n`
/// (re-exported geometry from `rayon::pool::chunk_len`).
fn chunk_len(n: usize) -> usize {
    rayon::pool::chunk_len(n)
}

/// Dot product `xᵀy`. Panics if lengths differ.
///
/// # Panics
///
/// Panics if the vector lengths disagree.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Parallel dot product; chunk partials are combined along the fixed
/// pairwise tree of [`rayon::tree_sum`].
///
/// # Panics
///
/// Panics if the vector lengths disagree.
pub fn par_dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "par_dot: length mismatch");
    if x.len() <= MIN_PAR_CHUNK {
        return dot(x, y);
    }
    let cl = chunk_len(x.len());
    x.par_chunks(cl)
        .zip(y.par_chunks(cl))
        .map(|(a, b)| dot(a, b))
        .tree_sum()
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the vector lengths disagree.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Parallel `y += alpha * x`.
///
/// # Panics
///
/// Panics if the vector lengths disagree.
pub fn par_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_axpy: length mismatch");
    if x.len() <= MIN_PAR_CHUNK {
        return axpy(alpha, x, y);
    }
    let cl = chunk_len(x.len());
    y.par_chunks_mut(cl)
        .zip(x.par_chunks(cl))
        .for_each(|(yc, xc)| axpy(alpha, xc, yc));
}

/// Number of chunk partials the `*_with_scratch` kernels need for vectors
/// of length `n` (at least 1, so the scratch is never empty).
pub fn scratch_len(n: usize) -> usize {
    rayon::pool::num_chunks(n)
}

/// Allocation-free parallel dot product: chunk partials are written into
/// the caller-provided `partials` scratch (`≥ scratch_len(x.len())`) and
/// combined along the fixed pairwise tree of [`rayon::tree_sum`], so the
/// result is bitwise identical at any thread count.
///
/// # Panics
///
/// Panics if `x` and `y` differ in length or `partials` is shorter than
/// `scratch_len(x.len())`.
pub fn dot_with_scratch(x: &[f64], y: &[f64], partials: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_with_scratch: length mismatch");
    if x.len() <= MIN_PAR_CHUNK {
        return dot(x, y);
    }
    let cl = chunk_len(x.len());
    let nchunks = scratch_len(x.len());
    let partials = &mut partials[..nchunks];
    partials
        .par_iter_mut()
        .zip(x.par_chunks(cl))
        .zip(y.par_chunks(cl))
        .for_each(|((out, xc), yc)| *out = dot(xc, yc));
    rayon::tree_sum(partials)
}

/// Fused allocation-free `y += alpha·x; return yᵀy`: one pass over the
/// data instead of an axpy followed by a norm. Chunk partials go into
/// `partials` (`≥ scratch_len(y.len())`) and are tree-combined (bitwise
/// deterministic at any thread count).
///
/// # Panics
///
/// Panics if `x` and `y` differ in length or `partials` is shorter than
/// `scratch_len(y.len())`.
pub fn fused_axpy_dot_self(alpha: f64, x: &[f64], y: &mut [f64], partials: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "fused_axpy_dot_self: length mismatch");
    if y.len() <= MIN_PAR_CHUNK {
        let mut acc = 0.0;
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
            acc += *yi * *yi;
        }
        return acc;
    }
    let cl = chunk_len(y.len());
    let nchunks = scratch_len(y.len());
    let partials = &mut partials[..nchunks];
    partials
        .par_iter_mut()
        .zip(y.par_chunks_mut(cl))
        .zip(x.par_chunks(cl))
        .for_each(|((out, yc), xc)| {
            let mut acc = 0.0;
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += alpha * xi;
                acc += *yi * *yi;
            }
            *out = acc;
        });
    rayon::tree_sum(partials)
}

/// Fused CG iterate/residual update: `x += alpha·p`, `r -= alpha·ap`, and
/// `‖r‖²` accumulated — one traversal over four vectors instead of a
/// `par_axpy` followed by [`fused_axpy_dot_self`].
///
/// The per-element arithmetic is exactly `x_i += alpha * p_i;
/// r_i += (-alpha) * ap_i; acc += r_i * r_i` and the chunk geometry is
/// shared with the unfused kernels, so the result (and every updated
/// element) is bitwise identical to the two-kernel sequence at any thread
/// count — the property the bench divergence gate asserts.
///
/// # Panics
///
/// Panics if the four vectors differ in length or `partials` is shorter
/// than `scratch_len(x.len())`.
pub fn fused_update_x_r(
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    partials: &mut [f64],
) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "fused_update_x_r: p length mismatch");
    assert_eq!(ap.len(), n, "fused_update_x_r: ap length mismatch");
    assert_eq!(r.len(), n, "fused_update_x_r: r length mismatch");
    let nalpha = -alpha;
    let body = |pc: &[f64], apc: &[f64], xc: &mut [f64], rc: &mut [f64]| -> f64 {
        let mut acc = 0.0;
        for (((xi, ri), pi), api) in xc.iter_mut().zip(rc.iter_mut()).zip(pc).zip(apc) {
            *xi += alpha * pi;
            *ri += nalpha * api;
            acc += *ri * *ri;
        }
        acc
    };
    if n <= MIN_PAR_CHUNK {
        return body(p, ap, x, r);
    }
    let cl = chunk_len(n);
    let nchunks = scratch_len(n);
    let partials = &mut partials[..nchunks];
    partials
        .par_iter_mut()
        .zip(x.par_chunks_mut(cl))
        .zip(r.par_chunks_mut(cl))
        .zip(p.par_chunks(cl))
        .zip(ap.par_chunks(cl))
        .for_each(|((((out, xc), rc), pc), apc)| *out = body(pc, apc, xc, rc));
    rayon::tree_sum(partials)
}

/// Fused diagonal-preconditioner apply + dot: `z = r ⊙ s` and `rᵀz`
/// accumulated in the same traversal (the Jacobi `z = M⁻¹r` fused with
/// the PCG `rᵀz`), eliminating one full read sweep per iteration.
///
/// Per-element arithmetic is exactly `z_i = r_i * s_i; acc += r_i * z_i`
/// with the shared chunk geometry, so the result is bitwise identical to
/// `hadamard_into` followed by [`dot_with_scratch`].
///
/// # Panics
///
/// Panics if `r`, `s`, and `z` differ in length or `partials` is shorter
/// than `scratch_len(r.len())`.
pub fn fused_scale_dot(s: &[f64], r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
    let n = r.len();
    assert_eq!(s.len(), n, "fused_scale_dot: scale length mismatch");
    assert_eq!(z.len(), n, "fused_scale_dot: output length mismatch");
    let body = |sc: &[f64], rc: &[f64], zc: &mut [f64]| -> f64 {
        let mut acc = 0.0;
        for ((zi, ri), si) in zc.iter_mut().zip(rc).zip(sc) {
            *zi = ri * si;
            acc += ri * *zi;
        }
        acc
    };
    if n <= MIN_PAR_CHUNK {
        return body(s, r, z);
    }
    let cl = chunk_len(n);
    let nchunks = scratch_len(n);
    let partials = &mut partials[..nchunks];
    partials
        .par_iter_mut()
        .zip(z.par_chunks_mut(cl))
        .zip(r.par_chunks(cl))
        .zip(s.par_chunks(cl))
        .for_each(|(((out, zc), rc), sc)| *out = body(sc, rc, zc));
    rayon::tree_sum(partials)
}

/// Fused copy + dot: `z = r` and `rᵀz = rᵀr` in one traversal (the
/// identity-preconditioner apply fused with the PCG `rᵀz`). Bitwise
/// identical to `copy_from_slice` followed by [`dot_with_scratch`].
///
/// # Panics
///
/// Panics if `r` and `z` differ in length or `partials` is shorter than
/// `scratch_len(r.len())`.
pub fn fused_copy_dot(r: &[f64], z: &mut [f64], partials: &mut [f64]) -> f64 {
    let n = r.len();
    assert_eq!(z.len(), n, "fused_copy_dot: length mismatch");
    let body = |rc: &[f64], zc: &mut [f64]| -> f64 {
        let mut acc = 0.0;
        for (zi, ri) in zc.iter_mut().zip(rc) {
            *zi = *ri;
            acc += ri * *zi;
        }
        acc
    };
    if n <= MIN_PAR_CHUNK {
        return body(r, z);
    }
    let cl = chunk_len(n);
    let nchunks = scratch_len(n);
    let partials = &mut partials[..nchunks];
    partials
        .par_iter_mut()
        .zip(z.par_chunks_mut(cl))
        .zip(r.par_chunks(cl))
        .for_each(|((out, zc), rc)| *out = body(rc, zc));
    rayon::tree_sum(partials)
}

/// `p = z + beta·p` (the CG search-direction update), parallel above the
/// chunk crossover, allocation-free.
///
/// # Panics
///
/// Panics if `z` and `p` differ in length.
pub fn xpby(z: &[f64], beta: f64, p: &mut [f64]) {
    assert_eq!(z.len(), p.len(), "xpby: length mismatch");
    let body = |zc: &[f64], pc: &mut [f64]| {
        for (pi, zi) in pc.iter_mut().zip(zc) {
            *pi = zi + beta * *pi;
        }
    };
    if p.len() <= MIN_PAR_CHUNK {
        return body(z, p);
    }
    let cl = chunk_len(p.len());
    p.par_chunks_mut(cl)
        .zip(z.par_chunks(cl))
        .for_each(|(pc, zc)| body(zc, pc));
}

/// `y = alpha·y + beta·x` in place (the shifted-operator update),
/// parallel above the chunk crossover, allocation-free.
///
/// # Panics
///
/// Panics if `x` and `y` differ in length.
pub fn axpby_inplace(alpha: f64, beta: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby_inplace: length mismatch");
    let body = |xc: &[f64], yc: &mut [f64]| {
        for (yi, xi) in yc.iter_mut().zip(xc) {
            *yi = alpha * *yi + beta * xi;
        }
    };
    if y.len() <= MIN_PAR_CHUNK {
        return body(x, y);
    }
    let cl = chunk_len(y.len());
    y.par_chunks_mut(cl)
        .zip(x.par_chunks(cl))
        .for_each(|(yc, xc)| body(xc, yc));
}

/// `out = x ⊙ s` (elementwise product), parallel above the chunk
/// crossover.
///
/// # Panics
///
/// Panics if `x`, `s`, and `out` do not all share one length.
pub fn hadamard_into(x: &[f64], s: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), s.len(), "hadamard_into: length mismatch");
    assert_eq!(x.len(), out.len(), "hadamard_into: output length mismatch");
    let body = |xc: &[f64], sc: &[f64], oc: &mut [f64]| {
        for ((oi, xi), si) in oc.iter_mut().zip(xc).zip(sc) {
            *oi = xi * si;
        }
    };
    if x.len() <= MIN_PAR_CHUNK {
        return body(x, s, out);
    }
    let cl = chunk_len(x.len());
    out.par_chunks_mut(cl)
        .zip(x.par_chunks(cl))
        .zip(s.par_chunks(cl))
        .for_each(|((oc, xc), sc)| body(xc, sc, oc));
}

/// `y ⊙= s` in place, parallel above the chunk crossover.
///
/// # Panics
///
/// Panics if `y` and `s` differ in length.
pub fn hadamard_inplace(y: &mut [f64], s: &[f64]) {
    assert_eq!(y.len(), s.len(), "hadamard_inplace: length mismatch");
    if y.len() <= MIN_PAR_CHUNK {
        for (yi, si) in y.iter_mut().zip(s) {
            *yi *= si;
        }
        return;
    }
    let cl = chunk_len(y.len());
    y.par_chunks_mut(cl)
        .zip(s.par_chunks(cl))
        .for_each(|(yc, sc)| {
            for (yi, si) in yc.iter_mut().zip(sc) {
                *yi *= si;
            }
        });
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `‖x − y‖₂`.
///
/// # Panics
///
/// Panics if the vector lengths disagree.
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Subtracts the mean from `x`, projecting it orthogonal to the constant
/// vector — the natural domain for Laplacian pencils, whose kernel is the
/// constant vector on each connected component.
pub fn deflate_constant(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for xi in x.iter_mut() {
        *xi -= mean;
    }
}

/// Normalizes `x` to unit Euclidean norm; returns the prior norm.
/// Leaves a zero vector untouched and returns 0.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let x = vec![3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn par_dot_matches_dot() {
        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let s = dot(&x, &y);
        let p = par_dot(&x, &y);
        assert!((s - p).abs() < 1e-8 * s.abs().max(1.0));
    }

    #[test]
    fn axpy_updates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
    }

    #[test]
    fn par_axpy_matches() {
        let n = 70_000;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y1 = vec![1.0; n];
        let mut y2 = vec![1.0; n];
        axpy(0.5, &x, &mut y1);
        par_axpy(0.5, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn deflation_removes_mean() {
        let mut x = vec![1.0, 2.0, 3.0];
        deflate_constant(&mut x);
        assert!((x.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-14);
        let mut z = vec![0.0; 4];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    fn dist2_basic() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dot_with_scratch_matches_par_dot() {
        let n = 70_000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut partials = vec![0.0; scratch_len(n)];
        let a = dot_with_scratch(&x, &y, &mut partials);
        let b = par_dot(&x, &y);
        assert_eq!(a.to_bits(), b.to_bits());
        // Small input takes the plain path.
        let c = dot_with_scratch(&x[..100], &y[..100], &mut partials);
        assert_eq!(c.to_bits(), dot(&x[..100], &y[..100]).to_bits());
    }

    #[test]
    fn fused_axpy_dot_self_matches_two_pass() {
        for n in [100usize, 70_000] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut y1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let mut y2 = y1.clone();
            let mut partials = vec![0.0; scratch_len(n)];
            let fused = fused_axpy_dot_self(-0.25, &x, &mut y1, &mut partials);
            axpy(-0.25, &x, &mut y2);
            assert_eq!(y1, y2, "n={n}");
            let two_pass = dot_with_scratch(&y2, &y2, &mut partials);
            assert_eq!(fused.to_bits(), two_pass.to_bits(), "n={n}");
        }
    }

    #[test]
    fn fused_update_x_r_matches_unfused_sequence() {
        for n in [100usize, 70_000] {
            let p: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let ap: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
            let mut x1: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.1).collect();
            let mut r1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
            let mut x2 = x1.clone();
            let mut r2 = r1.clone();
            let mut partials = vec![0.0; scratch_len(n)];
            let alpha = 0.625;
            let fused = fused_update_x_r(alpha, &p, &ap, &mut x1, &mut r1, &mut partials);
            par_axpy(alpha, &p, &mut x2);
            let unfused = fused_axpy_dot_self(-alpha, &ap, &mut r2, &mut partials);
            assert_eq!(x1, x2, "n={n}");
            assert_eq!(r1, r2, "n={n}");
            assert_eq!(fused.to_bits(), unfused.to_bits(), "n={n}");
        }
    }

    #[test]
    fn fused_scale_dot_matches_unfused_sequence() {
        for n in [64usize, 70_000] {
            let s: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 9) as f64)).collect();
            let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
            let mut z1 = vec![0.0; n];
            let mut z2 = vec![0.0; n];
            let mut partials = vec![0.0; scratch_len(n)];
            let fused = fused_scale_dot(&s, &r, &mut z1, &mut partials);
            hadamard_into(&r, &s, &mut z2);
            let unfused = dot_with_scratch(&r, &z2, &mut partials);
            assert_eq!(z1, z2, "n={n}");
            assert_eq!(fused.to_bits(), unfused.to_bits(), "n={n}");
        }
    }

    #[test]
    fn fused_copy_dot_matches_unfused_sequence() {
        for n in [33usize, 70_000] {
            let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).cos()).collect();
            let mut z1 = vec![0.0; n];
            let mut z2 = vec![0.0; n];
            let mut partials = vec![0.0; scratch_len(n)];
            let fused = fused_copy_dot(&r, &mut z1, &mut partials);
            z2.copy_from_slice(&r);
            let unfused = dot_with_scratch(&r, &z2, &mut partials);
            assert_eq!(z1, z2, "n={n}");
            assert_eq!(fused.to_bits(), unfused.to_bits(), "n={n}");
        }
    }

    #[test]
    fn scratch_len_tracks_pool_geometry() {
        for n in [0usize, 1, 4096, 4097, 102_400, 10_000_000] {
            assert_eq!(scratch_len(n), rayon::pool::num_chunks(n));
            assert!(scratch_len(n) >= 1);
            assert!(scratch_len(n) <= rayon::pool::MAX_PAR_CHUNKS);
        }
    }

    #[test]
    fn xpby_matches_scalar_loop() {
        for n in [64usize, 70_000] {
            let z: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut p1: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
            let mut p2 = p1.clone();
            xpby(&z, 0.75, &mut p1);
            for (pi, zi) in p2.iter_mut().zip(&z) {
                *pi = zi + 0.75 * *pi;
            }
            assert_eq!(p1, p2, "n={n}");
        }
    }

    #[test]
    fn elementwise_kernels_match() {
        for n in [33usize, 70_000] {
            let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 9) as f64).collect();
            let s: Vec<f64> = (0..n).map(|i| 0.5 + (i % 4) as f64).collect();
            let mut y1: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
            let mut y2 = y1.clone();
            axpby_inplace(2.0, -1.0, &x, &mut y1);
            for (yi, xi) in y2.iter_mut().zip(&x) {
                *yi = 2.0 * *yi - xi;
            }
            assert_eq!(y1, y2, "axpby n={n}");

            let mut out = vec![0.0; n];
            hadamard_into(&x, &s, &mut out);
            let mut inplace = x.clone();
            hadamard_inplace(&mut inplace, &s);
            for i in 0..n {
                assert_eq!(out[i], x[i] * s[i]);
                assert_eq!(inplace[i], x[i] * s[i]);
            }
        }
    }
}
