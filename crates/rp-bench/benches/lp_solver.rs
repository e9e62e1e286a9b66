//! Benchmarks of the LP-based lower bounds (Section 7.1): the fully
//! rational relaxation versus the mixed bound (integral `x_j`), across
//! problem sizes. The paper computed these with GLPK; this documents
//! what the bundled simplex/branch-and-bound substitute costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rp_bench::bench_instance;
use rp_core::ilp::{
    build_model, lower_bound, lower_bound_with, BoundKind, IlpOptions, Integrality,
};
use rp_core::Policy;
use rp_lp::{BranchBoundOptions, RevisedWorkspace, SimplexOptions};
use rp_workloads::platform::PlatformKind;

fn bench_lower_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_lower_bounds");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    // Cap the branch-and-bound effort for the mixed bound so one bench
    // iteration stays bounded; the bound remains valid when truncated.
    let capped = IlpOptions {
        branch_bound: BranchBoundOptions {
            max_nodes: 100,
            ..BranchBoundOptions::default()
        },
    };
    for size in [20usize, 40, 80] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        group.bench_with_input(BenchmarkId::new("rational", size), &problem, |b, p| {
            b.iter(|| lower_bound(p, BoundKind::Rational))
        });
        if size <= 40 {
            group.bench_with_input(BenchmarkId::new("mixed_capped", size), &problem, |b, p| {
                b.iter(|| lower_bound_with(p, BoundKind::Mixed, &capped))
            });
        }
    }
    group.finish();
}

/// The revised simplex on the Multiple-relaxation models of the bound,
/// plus the warm-started branch-and-bound for the mixed bound.
fn bench_lp_revised(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_revised");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for size in [20usize, 40, 80, 120] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let options = SimplexOptions::default();
        let mut revised_ws = RevisedWorkspace::new();
        group.bench_with_input(
            BenchmarkId::new("revised", size),
            &formulation.model,
            |b, model| b.iter(|| revised_ws.solve_warm(model, &options)),
        );
    }
    // Warm-started mixed bound (integral x_j).
    {
        let problem = bench_instance(40, 0.6, PlatformKind::default_heterogeneous(), 31);
        let capped = IlpOptions {
            branch_bound: BranchBoundOptions {
                max_nodes: 100,
                ..BranchBoundOptions::default()
            },
        };
        group.bench_function("mixed_warm_bb/40", |b| {
            b.iter(|| lower_bound_with(&problem, BoundKind::Mixed, &capped))
        });
    }
    group.finish();
}

/// The sparse-factorisation subsystem: cold solves, the warm sibling
/// re-solve fast path, and the hyper-sparse unit FTRAN/BTRAN plus one
/// Markowitz refactorisation on a solved paper-scale basis.
/// `BENCH_sparse.json` (baseline binary) tracks the same quantities
/// outside criterion.
fn bench_sparse_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_sparse_lu");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let options = SimplexOptions::default();
    for size in [40usize, 120] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let mut ws = RevisedWorkspace::new();
        group.bench_with_input(
            BenchmarkId::new("solve_cold", size),
            &formulation.model,
            |b, model| {
                b.iter(|| {
                    ws.invalidate();
                    ws.solve_warm(model, &options)
                })
            },
        );
        // Sibling fast path: the matrix is unchanged, so the warm solve
        // is a refactorisation plus a handful of cleanup pivots. Two
        // clones alternate so that no solve re-solves the model the
        // workspace solved last, which would patch it in place instead.
        ws.solve_warm(&formulation.model, &options);
        let siblings = [formulation.model.clone(), formulation.model.clone()];
        let mut k = 0;
        group.bench_with_input(
            BenchmarkId::new("resolve_warm", size),
            &siblings,
            |b, siblings| {
                b.iter(|| {
                    k ^= 1;
                    ws.solve_warm(&siblings[k], &options)
                })
            },
        );
    }
    {
        let problem = bench_instance(400, 0.4, PlatformKind::default_heterogeneous(), 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let mut ws = RevisedWorkspace::new();
        ws.solve_warm(&formulation.model, &options);
        let mut unit = 0usize;
        group.bench_function("ftran_unit/400", |b| {
            b.iter(|| {
                ws.bench_ftran_unit(unit);
                unit = unit.wrapping_add(1);
            })
        });
        group.bench_function("btran_unit/400", |b| {
            b.iter(|| {
                ws.bench_btran_unit(unit);
                unit = unit.wrapping_add(1);
            })
        });
        group.bench_function("markowitz_refactor/400", |b| b.iter(|| ws.bench_refactor()));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lower_bounds,
    bench_lp_revised,
    bench_sparse_lu
);
criterion_main!(benches);
