//! Machine-readable benchmark trajectory (DESIGN.md §7, §12).
//!
//! Times the hot workloads — SpMV, Jacobi-PCG, parallel tree
//! contraction (subtree sizes via list ranking), planar [φ, ρ]
//! decomposition, and the artifact build/load/solve triple — under thread
//! caps 1/2/4/8 and writes the results to
//! `BENCH_pr10.json` so every future PR can diff against them. Before any
//! timing, each workload's output at the maximum thread cap is checked
//! **bitwise** against the 1-thread output (the engine's determinism
//! contract), and the run aborts on any mismatch. The `hicond_obs`
//! metrics snapshot accumulated over the run (solver iterations, final
//! residuals, phase timers, pool counters) is embedded under a top-level
//! `"metrics"` key.
//!
//! A kernel-level phase additionally times each SpMV/PCG **variant pair**
//! (unblocked vs row-band blocked, unfused vs fused) single-threaded and
//! normalizes to ns-per-nnz and modelled bytes-per-nnz — the
//! cycles-per-nnz table of DESIGN.md §12. Each pair is gated bitwise
//! against its reference variant before any timing, so a fused or blocked
//! kernel that diverges by one ULP fails the run.
//!
//! Usage:
//!   bench_suite [--smoke] [--out PATH] [--baseline PATH]
//!
//! `--smoke` shrinks every workload and the repetition counts so CI can
//! exercise the full code path in a couple of seconds (the JSON is then
//! marked `"mode": "smoke"` and not meant for cross-PR comparison).
//! `--baseline PATH` points at a previous trajectory (default
//! `BENCH_pr8.json`, then `BENCH_pr7.json`/`BENCH_pr5.json`, when
//! present) whose single-thread PCG median seeds the
//! `pcg_speedup_vs_baseline_1t` meta field.
//!
//! A **batched-solve phase** sweeps the multi-client coalescing width
//! k ∈ {1, 2, 4, 8} on the planar benchmark: k sequential
//! `LaplacianSolver::solve` calls vs one `solve_block` over the same k
//! right-hand sides, interleaved. Each width is first gated bitwise —
//! every block column must equal its solo solve at 1 thread *and* at the
//! maximum cap — and in full mode the run aborts unless batched k=8
//! throughput strictly exceeds sequential k=1 (the `hicond serve
//! --listen` batching win). Results land under a top-level `"batch"` key.
//!
//! A **hierarchy-walk ledger** (`"walk_levels"`) breaks one V-cycle of
//! the multilevel preconditioner into its phases per level — sweep 1
//! (pre-smoothing, `A·v₁` and the restriction), the restriction pass
//! alone, the prolongation, sweep 2 (`A·v₂` and post-smoothing) and the
//! coarse solve — as single-threaded medians with each level's rows and
//! nnz, on a 2D grid and an OCT volume. The walk is first gated bitwise:
//! the fused `apply_dot_into` of three columns at 1 thread and at the
//! maximum cap must equal `apply_into` (and its `rᵀz` the chunked dot).
//!
//! An **observability cost gate** times the same single-threaded PCG solve
//! with the flight recorder + metrics fully enabled (`HICOND_OBS=json`)
//! against the off mode (one relaxed load per instrumentation site),
//! interleaved so machine drift hits both arms equally. The overhead is
//! the median over the interleaved rounds of each round's `ring/off − 1`,
//! and lands under a top-level `"obs_overhead"` key with both arms'
//! median per-iteration times; in full (non `--smoke`) mode the run
//! **aborts** if it exceeds the 3% budget of DESIGN.md §13. The two arms
//! are first gated bitwise: recording must never feed back into the
//! numerics.

use hicond_bench::{bench_json, consistent_rhs, timed_median_ns, BenchRecord, KernelRecord, Table};
use hicond_core::{decompose_planar, PlanarOptions};
use hicond_graph::{generators, laplacian, Graph, RootedForest};
use hicond_linalg::cg::{pcg_solve, CgOptions, JacobiPreconditioner, Preconditioner};
use hicond_linalg::csr::CsrMatrix;
use hicond_linalg::vector::{dot_with_scratch, scratch_len};
use hicond_precond::{
    decode_solver, encode_solver, LaplacianSolver, MultilevelSteiner, SolverOptions,
};
use hicond_treecontract::subtree_sizes_parallel;
use rayon::pool::with_thread_cap;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Hard ceiling on the ring-enabled PCG per-iteration cost relative to the
/// off mode (DESIGN.md §13). Enforced in full mode, reported in smoke.
const OBS_OVERHEAD_BUDGET_PCT: f64 = 3.0;

struct Config {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        out: "BENCH_pr10.json".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" => cfg.out = args.next().expect("--out needs a path"),
            "--baseline" => cfg.baseline = Some(args.next().expect("--baseline needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_suite [--smoke] [--out PATH] [--baseline PATH]");
                std::process::exit(2);
            }
        }
    }
    if cfg.baseline.is_none() {
        for cand in ["BENCH_pr8.json", "BENCH_pr7.json", "BENCH_pr5.json"] {
            if std::path::Path::new(cand).exists() {
                cfg.baseline = Some(cand.to_string());
                break;
            }
        }
    }
    cfg
}

/// Pulls the single-thread PCG median out of a previous trajectory without
/// a JSON parser: scans the `"results"` rows for the pcg/threads=1 record.
/// Returns `None` on any shape surprise — the speedup meta field is then
/// simply omitted.
fn baseline_pcg_1t_ns(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        if line.contains("\"workload\": \"pcg\"") && line.contains("\"threads\": 1,") {
            let key = "\"median_ns\": ";
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            let end = rest.find(|c: char| !c.is_ascii_digit())?;
            return rest[..end].parse().ok();
        }
    }
    None
}

/// Modelled streamed bytes per nonzero for one CSR SpMV sweep: 8 B value +
/// 4 B column index + 8 B x-gather per nnz, plus the row-pointer stream and
/// the y write amortized over the nonzeros. The blocked layout streams u32
/// band-local pointers (one per row per band boundary) plus one usize band
/// offset per band instead of usize row pointers.
fn spmv_bytes_per_nnz(n: usize, nnz: usize, blocked: bool) -> f64 {
    let ptr_bytes = if blocked {
        let nbands = n.div_ceil(hicond_linalg::BAND_ROWS);
        4 * (n + nbands) + 8 * nbands
    } else {
        8 * (n + 1)
    };
    (12 * nnz + 8 * nnz + ptr_bytes + 8 * n) as f64 / nnz as f64
}

/// Modelled streamed bytes per iteration·nnz for Jacobi-PCG: one SpMV
/// sweep plus `sweeps` full n-vector streams (reads + writes) of the BLAS-1
/// tail. Unfused: z=Mr, r·z, α-denominator dot, x-axpy, r-axpy, ‖r‖², and
/// the p update — 16 vector streams. Fusion folds the preconditioner apply
/// into the r·z dot and the x/r updates into the norm sweep — 14 streams.
fn pcg_bytes_per_nnz(n: usize, nnz: usize, blocked: bool, sweeps: usize) -> f64 {
    spmv_bytes_per_nnz(n, nnz, blocked) + (8 * n * sweeps) as f64 / nnz as f64
}

/// Builds one normalized kernel row from a measured median. `work_nnz` is
/// the nonzeros processed per invocation × iterations (for iterative
/// kernels), the ns-per-nnz denominator.
fn kernel_record(
    kernel: &str,
    variant: &str,
    n: usize,
    nnz: usize,
    work_nnz: usize,
    median_ns: u64,
    bytes_per_nnz: f64,
) -> KernelRecord {
    KernelRecord {
        kernel: kernel.to_string(),
        variant: variant.to_string(),
        n,
        nnz,
        threads: 1,
        median_ns,
        ns_per_nnz: median_ns as f64 / work_nnz as f64,
        bytes_per_nnz,
    }
}

/// Bit-exact view of an f64 vector.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One workload: a setup-free closure producing a comparable output, run
/// under each thread cap.
fn measure<T, F>(
    name: &str,
    n: usize,
    nnz: usize,
    reps: usize,
    records: &mut Vec<BenchRecord>,
    run: F,
) where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    // Determinism gate: max-cap output must equal the 1-thread output.
    let seq = with_thread_cap(1, &run);
    let par = with_thread_cap(*THREADS.last().unwrap(), &run);
    assert!(
        seq == par,
        "{name}: output differs between 1 and {} threads",
        THREADS.last().unwrap()
    );
    let mut base_ns = 0u64;
    for &t in &THREADS {
        let ns = with_thread_cap(t, || timed_median_ns(reps, &run));
        if t == 1 {
            base_ns = ns;
        }
        records.push(BenchRecord {
            workload: name.to_string(),
            n,
            nnz,
            threads: t,
            median_ns: ns,
            speedup: base_ns as f64 / ns as f64,
        });
    }
}

fn grid_graph(side: usize) -> Graph {
    generators::grid2d(side, side, |u, v| 1.0 + ((u * 7 + v * 13) % 5) as f64)
}

fn main() {
    let cfg = parse_args();
    // Collect metrics for the whole run regardless of HICOND_OBS: the
    // snapshot is embedded in the JSON trajectory, not printed.
    hicond_obs::set_mode(hicond_obs::Mode::Json);
    hicond_obs::reset();
    // Full mode: n = 320² ≥ 10⁵ grid Laplacian per the acceptance bar.
    let (side, tree_n, planar_side, reps_fast, reps_slow) = if cfg.smoke {
        (40, 5_000, 16, 3, 1)
    } else {
        (320, 200_000, 96, 9, 3)
    };

    let grid = grid_graph(side);
    let a: CsrMatrix = laplacian(&grid);
    let n = a.nrows();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
        .collect();
    let b = consistent_rhs(n, 42);
    let tree = generators::random_tree(tree_n, 7, 0.5, 2.0);
    let forest = RootedForest::from_graph(&tree).expect("random_tree is a tree");
    let planar_g = grid_graph(planar_side);

    let mut records: Vec<BenchRecord> = Vec::new();

    measure("spmv", n, a.nnz(), reps_fast, &mut records, || a.mul(&x));

    let pcg_opts = CgOptions {
        rel_tol: 0.0, // never met: fixed iteration count for comparability
        max_iter: if cfg.smoke { 5 } else { 50 },
        record_residuals: false,
    };
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    // reps_fast: the single-thread pcg median is the trajectory's headline
    // cross-PR number, so it gets the larger repetition count — median of 3
    // is too fragile against CPU-steal spikes on shared runners.
    measure("pcg", n, a.nnz(), reps_fast, &mut records, || {
        let r = pcg_solve(&a, &m, &b, &pcg_opts);
        (r.x, r.iterations)
    });

    measure(
        "treecontract",
        tree_n,
        tree.num_edges(),
        reps_slow,
        &mut records,
        || subtree_sizes_parallel(&forest),
    );

    measure(
        "planar",
        planar_g.num_vertices(),
        planar_g.num_edges(),
        reps_slow,
        &mut records,
        || {
            let d = decompose_planar(&planar_g, &PlanarOptions::default());
            d.partition.assignment().to_vec()
        },
    );

    // Artifact triple on the planar benchmark: building the preconditioner
    // from scratch vs deserializing the persisted artifact vs the per-rhs
    // solve it amortizes. The build output is the artifact bytes, so its
    // determinism gate doubles as a build∘encode fixpoint check at every
    // thread cap; load times checksum + decode + validation alone (the
    // `hicond serve` warm-start path).
    let solver_opts = SolverOptions::default();
    measure(
        "artifact_build",
        planar_g.num_vertices(),
        planar_g.num_edges(),
        reps_slow,
        &mut records,
        || encode_solver(&LaplacianSolver::new(&planar_g, &solver_opts)),
    );
    let artifact_bytes = encode_solver(&LaplacianSolver::new(&planar_g, &solver_opts));
    measure(
        "artifact_load",
        planar_g.num_vertices(),
        planar_g.num_edges(),
        reps_fast,
        &mut records,
        || {
            let s = decode_solver(&artifact_bytes).expect("artifact decodes");
            (s.dim(), s.num_levels())
        },
    );
    let solver = decode_solver(&artifact_bytes).expect("artifact decodes");
    let planar_b = consistent_rhs(planar_g.num_vertices(), 1912);
    measure(
        "artifact_solve",
        planar_g.num_vertices(),
        planar_g.num_edges(),
        reps_slow,
        &mut records,
        || solver.solve(&planar_b).expect("planar solve converges").x,
    );

    // ---- Kernel-level cycles-per-nnz phase (DESIGN.md §12) ----
    // Each variant pair is gated bitwise against its reference variant,
    // then timed single-threaded with invocations *interleaved* so slow
    // machine drift cannot masquerade as a variant difference.
    let mut kernels: Vec<KernelRecord> = Vec::new();
    let nnz = a.nnz();
    {
        // SpMV: the plain reference row loop (mul_into) vs the row-band
        // blocked production kernel (spmv_into).
        let mut y_ref = vec![0.0; n];
        a.mul_into(&x, &mut y_ref);
        let mut y_blk = vec![0.0; n];
        with_thread_cap(1, || a.spmv_into(&x, &mut y_blk));
        assert_eq!(
            bits(&y_ref),
            bits(&y_blk),
            "blocked SpMV diverges bitwise from the unblocked reference"
        );
        let mut y_a = vec![0.0; n];
        let mut y_b = vec![0.0; n];
        let (un_ns, bl_ns) = with_thread_cap(1, || {
            hicond_bench::timed_median_pair_ns(
                reps_fast,
                || a.mul_into(&x, &mut y_a),
                || a.spmv_into(&x, &mut y_b),
            )
        });
        kernels.push(kernel_record(
            "spmv",
            "unblocked",
            n,
            nnz,
            nnz,
            un_ns,
            spmv_bytes_per_nnz(n, nnz, false),
        ));
        kernels.push(kernel_record(
            "spmv",
            "blocked",
            n,
            nnz,
            nnz,
            bl_ns,
            spmv_bytes_per_nnz(n, nnz, true),
        ));

        // PCG: unfused vs fused solver, both over the blocked SpMV so the
        // pair isolates the fusion win. Fixed iteration count (rel_tol 0)
        // keeps the two trajectories the same length.
        let (unfused, fused) = with_thread_cap(1, || {
            (
                hicond_linalg::pcg_solve_unfused(&a, &m, &b, &pcg_opts),
                pcg_solve(&a, &m, &b, &pcg_opts),
            )
        });
        assert_eq!(
            (bits(&unfused.x), unfused.iterations),
            (bits(&fused.x), fused.iterations),
            "fused PCG diverges bitwise from the unfused trajectory"
        );
        let iters = fused.iterations.max(1);
        let (unf_ns, fus_ns) = with_thread_cap(1, || {
            hicond_bench::timed_median_pair_ns(
                reps_fast,
                || {
                    hicond_linalg::pcg_solve_unfused(&a, &m, &b, &pcg_opts);
                },
                || {
                    pcg_solve(&a, &m, &b, &pcg_opts);
                },
            )
        });
        kernels.push(kernel_record(
            "pcg",
            "unfused",
            n,
            nnz,
            iters * nnz,
            unf_ns,
            pcg_bytes_per_nnz(n, nnz, true, 16),
        ));
        kernels.push(kernel_record(
            "pcg",
            "fused",
            n,
            nnz,
            iters * nnz,
            fus_ns,
            pcg_bytes_per_nnz(n, nnz, true, 14),
        ));
    }

    // ---- Hierarchy-walk ledger (DESIGN.md §12) ----
    // Per level of one V-cycle: where the walk's time goes, on the graphs
    // of the two perfbench workloads (small stand-ins for smoke runs).
    // Gated bitwise first — the fused walk with its rᵀz against the
    // plain walk and the chunked dot — then each phase timed at 1 thread.
    let grid = |side| generators::grid2d(side, side, |_, _| 1.0);
    let oct = |side| generators::oct_like_grid3d(side, side, side, 42, Default::default());
    let walk_graphs = if cfg.smoke {
        [("grid16", grid(16)), ("oct8", oct(8))]
    } else {
        [("grid96", grid(96)), ("oct16", oct(16))]
    };
    let mut walk_rows: Vec<(&str, usize, hicond_precond::LevelNs)> = Vec::new();
    for (name, g) in &walk_graphs {
        let m = MultilevelSteiner::new(g, &solver_opts.multilevel);
        let wn = g.num_vertices();
        let cols: Vec<Vec<f64>> = (0..3).map(|j| consistent_rhs(wn, 3000 + j)).collect();
        let mut partials = vec![0.0; scratch_len(wn)];
        for cap in [1, *THREADS.last().unwrap()] {
            for (j, col) in cols.iter().enumerate() {
                let mut z = vec![0.0; wn];
                let rz = with_thread_cap(cap, || m.apply_dot_into(col, &mut z, &mut partials));
                let one = with_thread_cap(1, || m.apply(col));
                assert_eq!(
                    bits(&z),
                    bits(&one),
                    "walk {name}: apply_dot_into of column {j} at cap {cap} diverges bitwise from apply_into"
                );
                assert_eq!(
                    rz.to_bits(),
                    dot_with_scratch(col, &one, &mut partials).to_bits(),
                    "walk {name}: fused rᵀz of column {j} at cap {cap} diverges bitwise"
                );
            }
        }
        let ledger = with_thread_cap(1, || {
            m.walk_ledger(&cols[0], |phase| timed_median_ns(reps_fast * 11, phase))
        });
        walk_rows.extend(
            ledger
                .into_iter()
                .enumerate()
                .map(|(l, row)| (*name, l, row)),
        );
    }
    let walk_json = format!(
        "[{}]",
        walk_rows
            .iter()
            .map(|(name, level, w)| {
                format!(
                    "{{\"graph\": \"{name}\", \"level\": {level}, \"rows\": {}, \"nnz\": {}, \
                     \"threads\": 1, \"sweep1_ns\": {}, \"restrict_ns\": {}, \
                     \"prolong_ns\": {}, \"sweep2_ns\": {}, \"coarse_ns\": {}}}",
                    w.rows, w.nnz, w.sweep1, w.restrict, w.prolong, w.sweep2, w.coarse
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    hicond_obs::json::validate(&walk_json).expect("walk_levels section must be valid JSON");

    // ---- Observability cost gate (DESIGN.md §13) ----
    // The same fixed-length single-thread PCG solve with recording fully
    // off vs fully on (flight ring + registry + watchdog + milestone
    // events). The off arm flips the global mode latch inside its timed
    // closure — two relaxed stores, noise at solve scale — so the two arms
    // interleave under `timed_pairs_ns` and machine drift hits both
    // equally. Gated bitwise first: recording must never feed back into
    // the numerics.
    let obs_overhead_json = {
        let (off_run, on_run) = with_thread_cap(1, || {
            hicond_obs::set_mode(hicond_obs::Mode::Off);
            let off = pcg_solve(&a, &m, &b, &pcg_opts);
            hicond_obs::set_mode(hicond_obs::Mode::Json);
            let on = pcg_solve(&a, &m, &b, &pcg_opts);
            (off, on)
        });
        assert_eq!(
            (bits(&off_run.x), off_run.iterations),
            (bits(&on_run.x), on_run.iterations),
            "recording-enabled PCG diverges bitwise from the off-mode trajectory"
        );
        let iters = on_run.iterations.max(1);
        let pairs = with_thread_cap(1, || {
            hicond_bench::timed_pairs_ns(
                reps_fast,
                || {
                    hicond_obs::set_mode(hicond_obs::Mode::Off);
                    pcg_solve(&a, &m, &b, &pcg_opts);
                    hicond_obs::set_mode(hicond_obs::Mode::Json);
                },
                || {
                    pcg_solve(&a, &m, &b, &pcg_opts);
                },
            )
        });
        let median = |mut v: Vec<f64>| {
            v.sort_unstable_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let off_ns = median(pairs.iter().map(|p| p.0 as f64).collect());
        let ring_ns = median(pairs.iter().map(|p| p.1 as f64).collect());
        let off_per_iter = off_ns / iters as f64;
        let ring_per_iter = ring_ns / iters as f64;
        // The gated figure is the median of each round's own ring/off
        // ratio: a drift between rounds moves both arms of a round
        // together, where it can split two separate medians.
        let overhead_pct = median(
            pairs
                .iter()
                .map(|&(off, ring)| (ring as f64 / off as f64 - 1.0) * 100.0)
                .collect(),
        );
        let within = overhead_pct < OBS_OVERHEAD_BUDGET_PCT;
        println!(
            "obs overhead: off {off_per_iter:.0} ns/iter, ring-enabled {ring_per_iter:.0} \
             ns/iter ({overhead_pct:+.3}% vs {OBS_OVERHEAD_BUDGET_PCT}% budget)"
        );
        if !cfg.smoke {
            assert!(
                within,
                "ring-enabled PCG overhead {overhead_pct:.3}% exceeds the \
                 {OBS_OVERHEAD_BUDGET_PCT}% budget (DESIGN.md §13)"
            );
        }
        format!(
            "{{\"workload\": \"pcg\", \"n\": {n}, \"nnz\": {nnz}, \"threads\": 1, \
             \"iterations\": {iters}, \"off_median_ns\": {off_ns:.0}, \
             \"ring_median_ns\": {ring_ns:.0}, \"off_ns_per_iter\": {off_per_iter:.1}, \
             \"ring_ns_per_iter\": {ring_per_iter:.1}, \"overhead_pct\": {overhead_pct:.3}, \
             \"budget_pct\": {OBS_OVERHEAD_BUDGET_PCT:.1}, \"within_budget\": {within}}}"
        )
    };
    hicond_obs::json::validate(&obs_overhead_json)
        .expect("obs_overhead section must be valid JSON");

    // ---- Batched-solve phase (multi-client coalescing width sweep) ----
    // The serve batch dispatcher folds k concurrent requests into one
    // `solve_block`; this phase measures what that coalescing buys on the
    // planar benchmark. Per width: bitwise gate (every block column ==
    // its solo solve, at 1 thread and at the max cap — the determinism
    // contract the serve tests rely on), then k sequential solves vs one
    // block solve, interleaved so drift hits both arms.
    let batch_rows: Vec<(usize, u64, u64, f64, f64)> = {
        let pn = planar_g.num_vertices();
        let mut rows = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let rhss: Vec<Vec<f64>> = (0..k)
                .map(|j| consistent_rhs(pn, 2000 + j as u64))
                .collect();
            let solo: Vec<Vec<f64>> = with_thread_cap(1, || {
                rhss.iter()
                    .map(|b| solver.solve(b).expect("planar solo solve converges").x)
                    .collect()
            });
            for cap in [1, *THREADS.last().unwrap()] {
                let blk = with_thread_cap(cap, || solver.solve_block(&rhss));
                for (j, r) in blk.iter().enumerate() {
                    let x = &r.as_ref().expect("block column converges").x;
                    assert_eq!(
                        bits(x),
                        bits(&solo[j]),
                        "batch k={k}: column {j} at cap {cap} diverges bitwise from its solo solve"
                    );
                }
            }
            let (seq_ns, blk_ns) = hicond_bench::timed_median_pair_ns(
                reps_slow,
                || {
                    for b in &rhss {
                        solver.solve(b).expect("sequential solve converges");
                    }
                },
                || {
                    for r in solver.solve_block(&rhss) {
                        r.expect("block solve converges");
                    }
                },
            );
            let sps_seq = k as f64 * 1e9 / seq_ns.max(1) as f64;
            let sps_blk = k as f64 * 1e9 / blk_ns.max(1) as f64;
            rows.push((k, seq_ns, blk_ns, sps_seq, sps_blk));
        }
        rows
    };
    let sps_seq_k1 = batch_rows
        .iter()
        .find(|r| r.0 == 1)
        .map(|r| r.3)
        .unwrap_or(0.0);
    let sps_blk_k8 = batch_rows
        .iter()
        .find(|r| r.0 == 8)
        .map(|r| r.4)
        .unwrap_or(0.0);
    if !cfg.smoke {
        assert!(
            sps_blk_k8 > sps_seq_k1,
            "batched k=8 throughput ({sps_blk_k8:.1} solves/s) must strictly exceed \
             sequential k=1 ({sps_seq_k1:.1} solves/s) on the planar benchmark"
        );
    }
    let batch_json = format!(
        "[{}]",
        batch_rows
            .iter()
            .map(|(k, seq_ns, blk_ns, sps_seq, sps_blk)| {
                format!(
                    "{{\"k\": {k}, \"n\": {}, \"seq_median_ns\": {seq_ns}, \
                     \"block_median_ns\": {blk_ns}, \"seq_solves_per_sec\": {sps_seq:.2}, \
                     \"block_solves_per_sec\": {sps_blk:.2}, \"block_speedup\": {:.3}}}",
                    planar_g.num_vertices(),
                    *seq_ns as f64 / (*blk_ns).max(1) as f64,
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    hicond_obs::json::validate(&batch_json).expect("batch section must be valid JSON");

    // Headline ratio for the trajectory: how much faster deserializing the
    // preconditioner is than rebuilding it (single-threaded medians).
    let median_of = |w: &str| {
        records
            .iter()
            .find(|r| r.workload == w && r.threads == 1)
            .map(|r| r.median_ns)
            .unwrap_or(0)
    };
    let load_speedup =
        median_of("artifact_build") as f64 / median_of("artifact_load").max(1) as f64;

    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut meta = vec![
        ("bench", "bench_suite".to_string()),
        ("mode", if cfg.smoke { "smoke" } else { "full" }.to_string()),
        ("hardware_threads", hw_threads.to_string()),
        // Resolved execution-engine configuration: the thread count after
        // HICOND_THREADS parsing and the size-adaptive chunking policy the
        // BLAS-1 kernels partition under (both thread-count-blind).
        (
            "threads_resolved",
            rayon::pool::default_threads().to_string(),
        ),
        ("chunk_policy", rayon::pool::chunk_policy()),
        (
            "note",
            format!(
                "thread caps above the {hw_threads} hardware thread(s) share cores \
                 by timeslicing; speedups are only meaningful up to the hardware width"
            ),
        ),
        (
            "kernel_note",
            "kernels[].ns_per_nnz is wall-clock ns per processed nonzero \
             (per iteration*nnz for pcg) at 1 thread — multiply by the core \
             clock in GHz for cycles-per-nnz; bytes_per_nnz is modelled \
             streamed traffic, and both depend on this machine's cache and \
             SIMD width, so compare across PRs only on the same hardware"
                .to_string(),
        ),
        (
            "determinism",
            "all workloads bitwise-identical at 1 vs max threads; kernel \
             variants (blocked/fused) gated bitwise against references"
                .to_string(),
        ),
        (
            "artifact_load_speedup_vs_build",
            format!("{load_speedup:.1}"),
        ),
        // Seeded scheduler perturbation slows every claim; timings from a
        // jittered run must never be compared against clean ones.
        (
            "sched_jitter",
            match rayon::pool::sched_jitter() {
                Some(seed) => format!("seed {seed} (timings perturbed — not comparable)"),
                None => "off".to_string(),
            },
        ),
    ];
    if let Some(base) = cfg.baseline.as_deref() {
        if let Some(base_ns) = baseline_pcg_1t_ns(base) {
            let speedup = base_ns as f64 / median_of("pcg").max(1) as f64;
            meta.push((
                "pcg_speedup_vs_baseline_1t",
                format!("{speedup:.3} (vs {base})"),
            ));
        } else {
            eprintln!("warning: no pcg/threads=1 record found in baseline {base}");
        }
    }
    let metrics = hicond_obs::render_json(&hicond_obs::snapshot());
    hicond_obs::json::validate(&metrics).expect("obs metrics snapshot must be valid JSON");
    let json = bench_json(
        &meta,
        &records,
        &kernels,
        &[
            ("metrics", metrics.as_str()),
            ("obs_overhead", obs_overhead_json.as_str()),
            ("batch", batch_json.as_str()),
            ("walk_levels", walk_json.as_str()),
        ],
    );
    hicond_obs::json::validate(&json).expect("bench trajectory must be valid JSON");
    std::fs::write(&cfg.out, &json).expect("write bench json");

    let mut table = Table::new(&["workload", "n", "nnz", "threads", "median_ns", "speedup"]);
    for r in &records {
        table.row(vec![
            r.workload.clone(),
            r.n.to_string(),
            r.nnz.to_string(),
            r.threads.to_string(),
            r.median_ns.to_string(),
            format!("{:.2}", r.speedup),
        ]);
    }
    table.print();
    let mut ktable = Table::new(&[
        "kernel",
        "variant",
        "n",
        "nnz",
        "median_ns",
        "ns/nnz",
        "bytes/nnz",
    ]);
    for k in &kernels {
        ktable.row(vec![
            k.kernel.clone(),
            k.variant.clone(),
            k.n.to_string(),
            k.nnz.to_string(),
            k.median_ns.to_string(),
            format!("{:.3}", k.ns_per_nnz),
            format!("{:.1}", k.bytes_per_nnz),
        ]);
    }
    ktable.print();
    let mut btable = Table::new(&[
        "batch_k",
        "seq_median_ns",
        "block_median_ns",
        "seq_solves/s",
        "block_solves/s",
        "speedup",
    ]);
    for (k, seq_ns, blk_ns, sps_seq, sps_blk) in &batch_rows {
        btable.row(vec![
            k.to_string(),
            seq_ns.to_string(),
            blk_ns.to_string(),
            format!("{sps_seq:.1}"),
            format!("{sps_blk:.1}"),
            format!("{:.2}", *seq_ns as f64 / (*blk_ns).max(1) as f64),
        ]);
    }
    btable.print();
    let mut wtable = Table::new(&[
        "graph",
        "level",
        "rows",
        "nnz",
        "sweep1_ns",
        "restrict_ns",
        "prolong_ns",
        "sweep2_ns",
        "coarse_ns",
    ]);
    for (name, level, w) in &walk_rows {
        wtable.row(vec![
            name.to_string(),
            level.to_string(),
            w.rows.to_string(),
            w.nnz.to_string(),
            w.sweep1.to_string(),
            w.restrict.to_string(),
            w.prolong.to_string(),
            w.sweep2.to_string(),
            w.coarse.to_string(),
        ]);
    }
    wtable.print();
    println!("wrote {} (with embedded obs metrics snapshot)", cfg.out);
}
