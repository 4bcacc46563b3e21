//! Criterion microbenchmarks for the linear-algebra kernels: Laplacian
//! matvec (reference row loop vs the band-blocked production SpMV),
//! quotient assembly `Q = RᵀAR`, and one full PCG solve per
//! preconditioner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hicond_core::{decompose_fixed_degree, FixedDegreeOptions};
use hicond_graph::{generators, laplacian};
use hicond_linalg::cg::{pcg_solve, CgOptions};
use hicond_precond::{
    MultilevelOptions, MultilevelSteiner, SteinerPreconditioner, SubgraphOptions,
    SubgraphPreconditioner,
};

fn consistent_rhs(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| ((i as u64 * 2654435761) % 997) as f64 / 498.5 - 1.0)
        .collect();
    hicond_linalg::vector::deflate_constant(&mut b);
    b
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec");
    for side in [32usize, 64] {
        let g = generators::grid3d(side, side, side, |_, _, _| 1.0);
        let a = laplacian(&g);
        let x = consistent_rhs(g.num_vertices());
        let mut y = vec![0.0; g.num_vertices()];
        group.bench_with_input(BenchmarkId::new("reference", side), &a, |b, a| {
            b.iter(|| a.mul_into(&x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("spmv", side), &a, |b, a| {
            b.iter(|| a.spmv_into(&x, &mut y))
        });
    }
    group.finish();
}

fn bench_quotient(c: &mut Criterion) {
    let mut group = c.benchmark_group("quotient");
    let g = generators::grid3d(24, 24, 24, |_, _, _| 1.0);
    let p = decompose_fixed_degree(&g, &FixedDegreeOptions::default());
    let a = laplacian(&g);
    group.bench_function("algebraic_rtar", |b| {
        b.iter(|| {
            let r = p.membership_matrix();
            r.transpose().matmul(&a.matmul(&r))
        })
    });
    group.bench_function("edge_pass", |b| b.iter(|| p.quotient_graph(&g)));
    group.finish();
}

fn bench_pcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("pcg_solve_oct12");
    group.sample_size(10);
    let g = generators::oct_like_grid3d(12, 12, 12, 3, generators::OctParams::default());
    let a = laplacian(&g);
    let b = consistent_rhs(g.num_vertices());
    let opts = CgOptions {
        rel_tol: 1e-8,
        max_iter: 5000,
        record_residuals: false,
    };
    let p = decompose_fixed_degree(&g, &FixedDegreeOptions::default());
    let steiner = SteinerPreconditioner::new(&g, &p, 10_000);
    let ml = MultilevelSteiner::new(&g, &MultilevelOptions::default());
    let sub = SubgraphPreconditioner::new(&g, &SubgraphOptions::default());
    group.bench_function("steiner_two_level", |bch| {
        bch.iter(|| pcg_solve(&a, &steiner, &b, &opts))
    });
    group.bench_function("steiner_multilevel", |bch| {
        bch.iter(|| pcg_solve(&a, &ml, &b, &opts))
    });
    group.bench_function("subgraph", |bch| {
        bch.iter(|| pcg_solve(&a, &sub, &b, &opts))
    });
    group.finish();
}

criterion_group!(benches, bench_matvec, bench_quotient, bench_pcg);
criterion_main!(benches);
