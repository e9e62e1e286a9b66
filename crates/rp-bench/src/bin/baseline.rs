//! The perf snapshots and the perf gate of the reproduction.
//!
//! ```text
//! cargo run --release -p rp-bench --bin baseline -- [SUITE...] [--out DIR]
//! cargo run --release -p rp-bench --bin baseline -- --check [perf-budget.toml] [--section NAME]
//! cargo run --release -p rp-bench --bin baseline -- --obs-diff OLD.json NEW.json
//! ```
//!
//! **Snapshots.** Each suite fills one [`Report`] of named metrics and
//! writes it as `BENCH_<suite>.json` into `--out` (default `.`); naming
//! no suite runs them all. `baseline` times the heuristics and counts
//! their steady-state allocations (`allocs/heuristic_steady/*` and
//! `allocs/ancestors_pass/*` must read 0) and times the small LP bounds;
//! `sparse` records cold and warm solves and factor costs up to
//! `s = 2000`; `scenarios` the bandwidth and multi-object bounds;
//! `heuristics` the LP-guided rounding gaps; `failures` the resilience
//! sweep (a candidate that never placed the healthy instance reports
//! only `base_fail`); `online` the churn sweep with no per-delta budget;
//! `obs` the metrics registry of an instrumented workload.
//!
//! **Gate.** `--check` builds each gate instance once and compares every
//! timing and quality figure with its `perf-budget.toml` entry (a key
//! ending in `_min` is a floor, any other a ceiling; both inclusive). The
//! correctness invariants checked on the same instance are constants in
//! code, such as [`ORACLE_TOLERANCE`], printed on the same line. A
//! missing or NaN figure or a failed invariant is a breach, and a budget
//! key no gate records is an error. On a breach the gate diffs a fresh
//! `obs` snapshot against `BENCH_obs.json`, prints the top movers, and
//! leaves `obs-breach.metrics.json`, `obs-breach.diff.txt` and
//! `obs-breach.flight.jsonl` behind before exiting non-zero.
//!
//! **Diff.** `--obs-diff` flattens two JSON snapshots (any `BENCH_*.json`
//! or metrics export) and ranks the metrics that moved.
//!
//! Any other argument prints the usage and exits 2.

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rp_bench::snapshot::{flatten_json_numbers, obs_diff_report, Report};
use rp_bench::{bench_instance, MICRO_SIZES};
use rp_core::heuristics::lp_guided::{lp_guided, lp_guided_multi};
use rp_core::heuristics::HeuristicState;
use rp_core::ilp::{build_model, lower_bound, lower_bound_with};
use rp_core::ilp::{BoundKind, IlpOptions, Integrality};
use rp_core::multi::MultiObjectProblem;
use rp_core::{Heuristic, MixedBest, Policy, ProblemInstance};
use rp_experiments::runner::{run_sweep, ExperimentConfig};
use rp_lp::{Cmp, ConstraintId, Model, RevisedWorkspace, SimplexOptions, Solution, Status};
use rp_workloads::platform::{paper_scale_instance, paper_scale_instance_sized, PlatformKind};
use rp_workloads::scenarios::{bandwidth_scale_instance, feasible_bandwidth_instance};
use rp_workloads::scenarios::{ill_scaled_bandwidth_instance, multi_object_counting_instance};

/// Counts every heap allocation so the "allocation-free inner loop"
/// claim is verified by measurement, not by inspection.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Median ns/op of `f` (its result kept opaque to the optimiser),
/// sampled adaptively within a small time budget.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    // Warm up and estimate.
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < Duration::from_millis(20) {
        black_box(f());
        iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    let batch = ((8_000_000.0 / per_iter.max(1.0)).ceil() as u64).max(1);
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Allocations per call of `f` in the steady state (after warm-up).
fn allocs_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..3 {
        black_box(f()); // warm any lazily grown buffers
    }
    const CALLS: u64 = 10;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        black_box(f());
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64
}

/// Times a **single** invocation of `f` (no sampling, no median —
/// used for the long paper-scale solves), returning (ns, result).
fn time_once<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_nanos() as f64, result)
}

/// The Section 7.1 rational relaxation of `problem` under Multiple.
fn rational_model(problem: &ProblemInstance) -> Model {
    build_model(problem, Policy::Multiple, Integrality::RationalBound).model
}

/// Times one cold solve of `model` on `ws` (buffers kept, basis
/// dropped): wall ms and objective, or `None` unless it is optimal.
fn cold_solve(ws: &mut RevisedWorkspace, model: &Model) -> Option<(f64, f64)> {
    ws.invalidate();
    let (ns, solution) = time_once(|| ws.solve_warm(model, &SimplexOptions::default()));
    let optimal = solution.status == Status::Optimal && solution.objective.is_finite();
    optimal.then_some((ns / 1e6, solution.objective))
}

/// Times `place` end to end and returns the cost gap of the valid
/// placement it found (percent over `yardstick`) and the wall ms, or
/// `None` when it found none.
fn timed_gap(yardstick: f64, place: impl FnOnce() -> Option<u64>) -> Option<(f64, f64)> {
    let (ns, cost) = time_once(place);
    cost.map(|cost| (100.0 * (cost as f64 / yardstick.max(1e-9) - 1.0), ns / 1e6))
}

/// The cost of the LP-guided placement of `problem`, if it is valid.
fn lp_guided_cost(problem: &ProblemInstance) -> Option<u64> {
    let placement = lp_guided(problem)?;
    placement
        .is_valid(problem, Policy::Multiple)
        .then(|| placement.cost(problem))
}

/// [`lp_guided_cost`] for a multi-object problem.
fn lp_guided_multi_cost(problem: &MultiObjectProblem) -> Option<u64> {
    let placement = lp_guided_multi(problem)?;
    placement
        .is_valid(problem, Policy::Multiple)
        .then(|| placement.cost(problem))
}

/// The 2-object rounding the heuristics gate checks, on the counting
/// family at `s = 40`, against the **exact** multi-object optimum. The
/// rational bound is no yardstick across objects: `K` objects sharing a
/// node pay fractional per-object replicas in the relaxation, so even
/// the optimum sits far above it. `None` when either solve fails.
fn two_object_exact_gap() -> Option<(f64, f64)> {
    let problem = multi_object_counting_instance(40, 2, 0.4, 11);
    let mut exact_options = IlpOptions::default();
    exact_options.branch_bound.max_nodes = 500_000;
    let exact = rp_core::multi::solve_multi_ilp_with(&problem, &exact_options)?;
    let yardstick = exact.cost(&problem) as f64;
    timed_gap(yardstick, || lp_guided_multi_cost(&problem))
}

/// A snapshot suite: its name and the run that renders its JSON.
type Suite = (&'static str, fn() -> String);

/// Every snapshot suite, in run order; each writes `BENCH_<name>.json`.
const SUITES: [Suite; 7] = [
    ("baseline", || baseline_suite().to_json()),
    ("sparse", || sparse_suite().to_json()),
    ("scenarios", || scenarios_suite().to_json()),
    ("heuristics", || heuristics_suite().to_json()),
    ("failures", || failures_suite().to_json()),
    ("online", || online_suite().to_json()),
    ("obs", obs_metrics_snapshot),
];

/// Runs the named suites (every suite when `names` is empty) and writes
/// their snapshots into `out`.
fn write_snapshots(names: &[&str], out: &str) {
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {out}: {e}"));
    for (name, run) in SUITES {
        if names.is_empty() || names.contains(&name) {
            let json = run();
            let path = std::path::Path::new(out).join(format!("BENCH_{name}.json"));
            let shown = path.display();
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {shown}: {e}"));
            println!("{json}");
            eprintln!("wrote {shown}");
        }
    }
}

/// Heuristic run times and allocation counts, traversal passes, small
/// LP bounds and the smoke-sweep throughput.
fn baseline_suite() -> Report {
    let mut report = Report::new("ns per op unless the metric name says otherwise", 1);
    for (platform, platform_name) in [
        (PlatformKind::default_homogeneous(), "homogeneous"),
        (PlatformKind::default_heterogeneous(), "heterogeneous"),
    ] {
        for size in MICRO_SIZES {
            let problem = bench_instance(size, 0.5, platform, 1234 + size as u64);
            let at = format!("{platform_name}/{size}");
            for heuristic in Heuristic::BASE {
                let ns = time_ns(|| heuristic.run(black_box(&problem)));
                report.push(format!("heuristic/{}/{at}", heuristic.acronym()), ns);
            }
            let sweep = || Heuristic::MixedBest.run(black_box(&problem));
            report.push(format!("full_sweep/{at}"), time_ns(sweep));
            report.push(format!("allocs/full_sweep/{at}"), allocs_per_call(sweep));

            // The pooled driver the parallel sweep pins per worker: the
            // incumbent and every heuristic buffer are reused, so the
            // steady state must be allocation-free.
            let mut pooled = MixedBest::new();
            let allocs = allocs_per_call(|| {
                black_box(pooled.full_sweep(black_box(&problem)));
            });
            report.push(format!("allocs/full_sweep_pooled/{at}"), allocs);

            // Steady-state inner loops: one reused state, reset between
            // runs. This is the path MixedBest drives; it must not
            // allocate at all once the buffers are warm.
            let mut state = HeuristicState::new(&problem);
            for heuristic in Heuristic::BASE {
                let allocs = allocs_per_call(|| {
                    state.reset();
                    black_box(heuristic.run_with(&mut state));
                });
                let name = format!("allocs/heuristic_steady/{}/{at}", heuristic.acronym());
                report.push(name, allocs);
            }
        }
    }

    // Traversal primitives.
    for size in MICRO_SIZES {
        let problem = bench_instance(size, 0.5, PlatformKind::default_homogeneous(), 99);
        let tree = problem.tree();
        let ancestors = || {
            let mut acc = 0usize;
            for client in tree.client_ids() {
                for node in tree.ancestors_of_client(client) {
                    acc += node.index();
                }
            }
            acc
        };
        report.push(format!("ancestors_pass/{size}"), time_ns(ancestors));
        let allocs = allocs_per_call(ancestors);
        report.push(format!("allocs/ancestors_pass/{size}"), allocs);
        let nodes: Vec<_> = tree.node_ids().collect();
        let ns = time_ns(|| {
            let mut hits = 0usize;
            for &a in &nodes {
                for &b in &nodes {
                    hits += usize::from(tree.node_is_ancestor_or_self(a, b));
                }
            }
            hits
        });
        report.push(format!("ancestor_check_pass/{size}"), ns);
    }

    // LP lower bounds (formulation build + solve): the Section 7.1
    // rational bound, and the mixed bound capped at 100 nodes, where the
    // warm-started branch-and-bound nodes pay off.
    let mut capped = IlpOptions::default();
    capped.branch_bound.max_nodes = 100;
    for size in [20usize, 40, 80, 120] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        let ns = time_ns(|| lower_bound(black_box(&problem), BoundKind::Rational));
        report.push(format!("lp_rational_bound/{size}"), ns);
        if size <= 40 {
            let mixed = || lower_bound_with(black_box(&problem), BoundKind::Mixed, &capped);
            report.push(format!("milp_mixed_bound/{size}"), time_ns(mixed));
        }
    }

    // End-to-end sweep throughput.
    let mut config = ExperimentConfig::smoke_test();
    config.threads = Some(1);
    let (ns, results) = time_once(|| run_sweep(&config));
    black_box(&results);
    let trees = config.lambdas.len() * config.trees_per_lambda;
    report.push("sweep_smoke_ms", ns / 1e6);
    report.push("sweep_trees_per_sec", trees as f64 / (ns / 1e9));
    report
}

/// Records the factor sparsity, refactorisation and unit FTRAN/BTRAN
/// timings of the basis `ws` holds for `model` at size `s`.
fn push_factor_metrics(report: &mut Report, ws: &mut RevisedWorkspace, model: &Model, s: usize) {
    let (lnnz, unnz) = ws.factor_nnz();
    report.push(format!("factor/m/{s}"), model.num_constraints() as f64);
    report.push(format!("factor/nnz_l/{s}"), lnnz as f64);
    report.push(format!("factor/nnz_u/{s}"), unnz as f64);
    let refactor_ns = time_ns(|| ws.bench_refactor());
    report.push(format!("factor/refactor_ns/{s}"), refactor_ns);
    let mut unit = 0usize;
    let mut next_unit = || {
        unit = unit.wrapping_add(1);
        black_box(unit - 1)
    };
    let ftran_ns = time_ns(|| ws.bench_ftran_unit(next_unit()));
    report.push(format!("ftran_ns/{s}"), ftran_ns);
    let btran_ns = time_ns(|| ws.bench_btran_unit(next_unit()));
    report.push(format!("btran_ns/{s}"), btran_ns);
}

/// Times the warm re-solve of a sibling that arrives as a new model: a
/// model with the matrix of the one `ws` holds (two clones, alternated,
/// so neither is the model `ws` solved last), which takes the full warm
/// entry — presolve re-analysis, matrix compare, refactorisation. (The
/// sweep's own siblings re-target the model their worker solved last,
/// so they skip the compare.)
fn full_warm_entry_ns(ws: &mut RevisedWorkspace, model: &Model) -> f64 {
    let siblings = [model.clone(), model.clone()];
    let mut k = 0;
    time_ns(|| {
        k ^= 1;
        ws.solve_warm(black_box(&siblings[k]), &SimplexOptions::default())
    })
}

/// Times the rhs sibling a model edited in place pays: the first `<=`
/// row of a copy of `model` is relaxed by +1 and restored in turn, each
/// time re-solved on the workspace that solved the copy last, which
/// patches the workspace instead of taking the full warm entry. `None`
/// when `model` has no `<=` row.
fn rhs_sibling_ns(model: &Model) -> Option<f64> {
    let mut model = model.clone();
    let row = model
        .constraint_ids()
        .find(|&id| model.constraint(id).cmp == Cmp::Le)?;
    let rhs = model.constraint(row).rhs;
    let (mut ws, options) = (RevisedWorkspace::new(), SimplexOptions::default());
    ws.solve_warm(&model, &options);
    let mut relaxed = false;
    Some(time_ns(|| {
        relaxed = !relaxed;
        model.set_rhs(row, if relaxed { rhs + 1.0 } else { rhs });
        ws.solve_warm(black_box(&model), &options)
    }))
}

/// The sparse-LU / Forrest–Tomlin trajectory of the revised engine:
/// cold solves on prebuilt relaxations, the warm re-solve of a sibling
/// that arrives as a new model (same matrix, refreshed data), the rhs sibling
/// of a model edited in place (`s` = 400 and 2000), iteration counts
/// and factor metrics up to `s = 2000`.
fn sparse_suite() -> Report {
    let mut report = Report::new("ns per op unless the metric name says otherwise", 1);
    for size in [20usize, 40, 80, 120] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        let model = &rational_model(&problem);
        let mut ws = RevisedWorkspace::new();
        let revised = time_ns(|| cold_solve(&mut ws, black_box(model)));
        report.push(format!("lp_solve/revised/{size}"), revised);
        let warm = full_warm_entry_ns(&mut ws, model);
        report.push(format!("lp_resolve_warm/{size}"), warm);
        if size >= 80 {
            cold_solve(&mut ws, model);
            let iters = ws.last_stats().iterations() as f64;
            report.push(format!("iters/{size}"), iters);
            push_factor_metrics(&mut report, &mut ws, model, size);
        }
    }

    // Paper scale and a multi-thousand-row scenario. `_ms` is a one-shot
    // `lower_bound` (formulation build + solve) and `_bound` its value;
    // `lp_solve_ms` is the warm-cache median of the cold solve alone.
    for s in [400usize, 2000] {
        let problem = paper_scale_instance_sized(s, PlatformKind::default_heterogeneous(), 0.4, 31);
        let (bound_ns, bound) = time_once(|| lower_bound(&problem, BoundKind::Rational));
        if bound.is_some() {
            report.push(format!("lp_rational_bound/revised/{s}_ms"), bound_ns / 1e6);
            report.push(format!("lp_rational_bound/revised/{s}_bound"), bound);
        }
        let model = &rational_model(&problem);
        let mut ws = RevisedWorkspace::new();
        if cold_solve(&mut ws, model).is_none() {
            eprintln!("s={s} revised solve failed");
            continue;
        }
        let iters = ws.last_stats().iterations() as f64;
        let cold_ns = time_ns(|| cold_solve(&mut ws, black_box(model)));
        report.push(format!("lp_solve_ms/revised/{s}"), cold_ns / 1e6);
        cold_solve(&mut ws, model);
        let warm_ns = full_warm_entry_ns(&mut ws, model);
        report.push(format!("lp_resolve_warm_ms/{s}"), warm_ns / 1e6);
        report.push(format!("speedup/sibling_warm/{s}"), cold_ns / warm_ns);
        if let Some(rhs_ns) = rhs_sibling_ns(model) {
            report.push(format!("lp_resolve_rhs/{s}"), rhs_ns);
            report.push(format!("speedup/sibling_rhs/{s}"), cold_ns / rhs_ns);
        }
        report.push(format!("iters/{s}"), iters);
        push_factor_metrics(&mut report, &mut ws, model, s);
    }
    report
}

/// One-shot solve times and iteration counts of the bandwidth and
/// multi-object formulations per family and scale.
fn scenarios_suite() -> Report {
    use rp_workloads::scenarios::{multi_object_bandwidth_instance, multi_object_instance};

    let units = "*_ms = wall-clock ms (one shot), *_iters = simplex iterations";
    let mut report = Report::new(units, 1);
    let mut ws = RevisedWorkspace::new();
    // Records `<name>_ms` of one cold solve of `model` and, if it is
    // optimal, `<name>_<field>` for each of `fields` (iters/rows/cols).
    let mut solve = |report: &mut Report, name: &str, model: &Model, fields: &[&str]| {
        let Some((ms, _)) = cold_solve(&mut ws, model) else {
            return;
        };
        report.push(format!("{name}_ms"), ms);
        for &field in fields {
            let value = match field {
                "iters" => ws.last_stats().iterations(),
                "rows" => model.num_constraints(),
                _ => model.num_vars(), // "cols"
            };
            report.push(format!("{name}_{field}"), value as f64);
        }
    };
    let multi_model = |problem: &MultiObjectProblem| {
        rp_core::ilp::build_multi_model(problem, Integrality::RationalBound).model
    };

    // The bandwidth bound across scales on the guaranteed-feasible
    // headroom family, so the timings always describe a completed solve;
    // then the s = 2000 class and the ill-scaled family (five-decade
    // capacities, entry spread ~2e5).
    for size in [120, 400] {
        let model = rational_model(&feasible_bandwidth_instance(size, 0.4, 31));
        let name = format!("bandwidth_lp/s{size}");
        solve(&mut report, &name, &model, &["iters", "rows"]);
    }
    let (model, all) = (bandwidth_scale_instance(0.2, 31), ["iters", "rows", "cols"]);
    solve(
        &mut report,
        "bandwidth_lp/s2000",
        &rational_model(&model),
        &all,
    );
    let model = rational_model(&ill_scaled_bandwidth_instance(200, 0.4, 7));
    solve(&mut report, "bandwidth_ill_lp/s200", &model, &["iters"]);

    // Multi-object bounds: shared capacities, then shared links too.
    for (objects, size) in [(2usize, 120usize), (4, 120), (4, 400)] {
        let model = multi_model(&multi_object_instance(size, objects, 0.4, 11));
        let name = format!("multi_lp/{objects}obj_s{size}");
        solve(&mut report, &name, &model, &["iters"]);
    }
    let model = multi_model(&multi_object_bandwidth_instance(120, 3, 0.4, 11));
    let name = "multi_lp/3obj_s120_bandwidth";
    solve(&mut report, name, &model, &["rows"]);
    report
}

/// The LP-guided rounding trajectory: per family the cost gap and the
/// end-to-end wall clock (LP solve + rounding + repair + pruning), next
/// to the classic ensemble (bandwidth-repaired Section 6 heuristics /
/// validated sequential greedy) on the same instances.
fn heuristics_suite() -> Report {
    use rp_core::heuristics::lp_guided::BandwidthRepair;
    use rp_core::ilp::multi_lower_bound;
    use rp_core::multi::{solve_multi_greedy, MultiGreedyOptions};
    use rp_workloads::scenarios::multi_object_instance;

    let mut report = Report::new(
        "*_gap_pct = 100*(cost/LP bound - 1) (*_exact_gap_pct: over the exact optimum), \
         *_ms = wall-clock ms for the whole candidate (LP solve + rounding where applicable)",
        1,
    );
    let ill = ill_scaled_bandwidth_instance(200, 0.4, 7);
    for (family, size, problem) in [
        ("bandwidth", 120, feasible_bandwidth_instance(120, 0.4, 31)),
        ("bandwidth", 400, feasible_bandwidth_instance(400, 0.4, 31)),
        ("bandwidth_ill", 200, ill),
    ] {
        let Some(bound) = lower_bound(&problem, BoundKind::Rational) else {
            continue;
        };
        let rounded = timed_gap(bound, || lp_guided_cost(&problem));
        report.push_gap(&format!("lp_guided/{family}/s{size}"), rounded);
        let classic = timed_gap(bound, || {
            let repair = |&h| BandwidthRepair(h).run(&problem).map(|p| p.cost(&problem));
            Heuristic::BASE.iter().filter_map(repair).min()
        });
        report.push_gap(&format!("classic_repair/{family}/s{size}"), classic);
    }

    // The counting 2-object family, where the rational bound gap is
    // dominated by heuristic quality rather than the intrinsic
    // multi-object integrality gap of the jittered-cost family.
    for size in [120usize, 200] {
        let problem = multi_object_counting_instance(size, 2, 0.4, 11);
        let rounded = multi_lower_bound(&problem, BoundKind::Rational)
            .and_then(|bound| timed_gap(bound, || lp_guided_multi_cost(&problem)));
        report.push_gap(&format!("lp_guided/multi_counting/s{size}"), rounded);
    }
    let exact_gap = two_object_exact_gap().map(|(gap, _)| gap);
    report.push("lp_guided/multi_counting/s40_exact_gap_pct", exact_gap);

    for (objects, size) in [(2usize, 120usize), (4, 120), (2, 400)] {
        let problem = multi_object_instance(size, objects, 0.4, 11);
        let Some(bound) = multi_lower_bound(&problem, BoundKind::Rational) else {
            continue;
        };
        let rounded = timed_gap(bound, || lp_guided_multi_cost(&problem));
        report.push_gap(&format!("lp_guided/multi_{objects}obj/s{size}"), rounded);
        let greedy = timed_gap(bound, || {
            let placement = solve_multi_greedy(&problem, &MultiGreedyOptions::default())?;
            placement
                .is_valid(&problem, Policy::Multiple)
                .then(|| placement.cost(&problem))
        });
        report.push_gap(&format!("greedy/multi_{objects}obj/s{size}"), greedy);
    }
    report
}

/// The resilience trajectory under the default 200-trial single-failure
/// chaos sweep: per candidate the survival rate, mean served fraction,
/// cost delta of surviving repairs and mean/p99 repair latency. A
/// candidate that never placed the healthy instance has nothing to
/// repair and reports only `base_fail`.
fn failures_suite() -> Report {
    use rp_experiments::{run_resilience, ResilienceConfig};

    let config = ResilienceConfig::new();
    let results = run_resilience(&config);
    let unverified = results.total_unverified();
    assert_eq!(
        unverified, 0,
        "the resilience sweep left unverified repairs"
    );
    let units =
        "*_pct = percent, *_ms = wall-clock ms per repair; config/seed reproduces the whole sweep";
    let mut report = Report::new(units, 1);
    report.push("config/seed", config.seed as f64);
    report.push("config/trials", config.trials as f64);
    report.push("config/problem_size", config.problem_size as f64);
    for summary in results.summaries() {
        let percent = |fraction: Option<f64>| fraction.map(|f| 100.0 * f);
        for (metric, value) in [
            ("survival_pct", percent(summary.survival_rate)),
            ("served_pct", percent(summary.mean_served_fraction)),
            ("cost_delta_pct", summary.mean_cost_delta_pct),
            ("repair_mean_ms", summary.mean_repair_ms),
            ("repair_p99_ms", summary.p99_repair_ms),
            ("base_fail", Some(summary.baseline_failures as f64)),
        ] {
            report.push(format!("{metric}/{}", summary.heuristic.acronym()), value);
        }
    }
    report
}

/// The online-engine churn trajectory at `s = 2000` over the default
/// 2000-delta trace with no per-delta budget: per policy the
/// re-placements per second, apply latency and escalation-rung
/// counters. With no deadline no rung is cut short, so the outcome and
/// rung counts are a function of the seed and CI diffs them; the
/// `repl_per_sec/*` and `apply_*_ms/*` keys are timings.
fn online_suite() -> Report {
    use rp_experiments::churn::{run_churn, ChurnRunConfig};

    let config = ChurnRunConfig {
        problem_size: 2000,
        budget_ms: None,
        ..ChurnRunConfig::new()
    };
    let results = run_churn(&config);
    let unverified = results.total_unverified();
    assert_eq!(unverified, 0, "the churn sweep left unverified incumbents");
    let mut report = Report::new(
        "repl_per_sec = absorbed deltas per second of summed apply time (the harness's \
         incumbent check excluded), apply_*_ms = wall-clock ms per apply, the rest are counts; \
         config/seed reproduces the sweep",
        3,
    );
    report.push("config/seed", config.seed as f64);
    report.push("config/deltas", config.deltas as f64);
    report.push("config/problem_size", config.problem_size as f64);
    let budget_ms = config.budget_ms.map_or(-1.0, |ms| ms as f64);
    report.push("config/budget_ms", budget_ms);
    for outcome in &results.per_policy {
        for (metric, value) in [
            ("repl_per_sec", outcome.replacements_per_sec),
            ("apply_p50_ms", outcome.p50_ms),
            ("apply_p99_ms", outcome.p99_ms),
            ("apply_mean_ms", outcome.mean_ms),
            ("applied", outcome.applied as f64),
            ("degraded", outcome.degraded as f64),
            ("deferred", outcome.deferred as f64),
            ("rung_surgical", outcome.rungs.surgical as f64),
            ("rung_lp_repair", outcome.rungs.lp_repair as f64),
            ("rung_rerun", outcome.rungs.rerun as f64),
            ("rung_degraded", outcome.rungs.degraded as f64),
        ] {
            report.push(format!("{metric}/{}", outcome.policy), value);
        }
    }
    report
}

/// Runs the representative instrumented workload (the smoke sweep plus
/// the bandwidth scenario sweep) and returns the metrics-registry
/// snapshot as JSON — the payload of `BENCH_obs.json` and the fresh side
/// of a breach's obs-diff attribution. Both sweeps run on one worker:
/// with two, which tree a worker solved before each tree's first trial
/// depends on how the workers interleave, and so would the LP's
/// warm-entry counters (`lp.warm.mode_change_cold` against
/// `lp.warm.cold`, for one).
fn obs_metrics_snapshot() -> String {
    use rp_experiments::scenarios::{run_scenario, ScenarioConfig, ScenarioFamily};

    let previous = rp_obs::mode();
    rp_obs::set_mode(rp_obs::ObsMode::Full);
    rp_obs::reset_all();
    rp_obs::clear_trace();
    black_box(run_sweep(&ExperimentConfig {
        threads: Some(1),
        ..ExperimentConfig::smoke_test()
    }));
    black_box(run_scenario(&ScenarioConfig {
        threads: Some(1),
        ..ScenarioConfig::smoke_test(ScenarioFamily::Bandwidth)
    }));
    let json = rp_obs::metrics_json();
    rp_obs::set_mode(previous);
    json
}

fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("cannot read {path}: {error}");
        std::process::exit(1);
    })
}

/// Relative tolerance within which the revised engine's objective must
/// match the dense-tableau oracle's.
const ORACLE_TOLERANCE: f64 = 1e-4;

/// Phase timers never nest, so the phase breakdown of a solve can fall
/// short of its wall clock (untimed glue) but not exceed it by more
/// than this factor.
const PHASE_COVERAGE_MAX: f64 = 1.2;

/// Metrics (or, ending in `.`, metric families) an instrumented solve
/// must leave nonzero. L's off-diagonal count can legitimately be zero
/// (tree bases factor near-triangularly); U always carries the diagonal.
const LIVE_METRICS: [&str; 7] = [
    "counters.lp.solves",
    "counters.lp.ftran.calls",
    "counters.lp.btran.calls",
    "counters.lp.warm.",
    "gauges.lp.last.iterations",
    "gauges.lp.factor.nnz_u",
    "histograms.lp.solve_us.count",
];

/// Parses the `key = value` numeric entries of `perf-budget.toml` into
/// `(section, key, value)` triples (`[section]` headers group the keys;
/// comments explain — only the names matter). Hand-rolled on purpose:
/// the workspace is dependency-free and the format we control is a
/// strict subset of TOML.
fn parse_budget(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(name) = line.strip_prefix('[') {
            section = name.trim_end_matches(']').to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            if let Ok(value) = value.trim().parse::<f64>() {
                out.push((section.clone(), key.trim().to_string(), value));
            }
        }
    }
    out
}

/// Whether a measurement honours its budget limit: a key ending in
/// `_min` is a floor, any other a ceiling, and both are inclusive. A
/// missing or NaN measurement never does.
fn within_budget(key: &str, value: Option<f64>, limit: f64) -> bool {
    match value {
        Some(v) if key.ends_with("_min") => v >= limit,
        Some(v) => v <= limit,
        None => false,
    }
}

/// A correctness invariant printed on a check line, and whether it held.
type Invariant = (&'static str, bool);

/// The verdicts of one `--check` run against a parsed budget.
struct Checks<'a> {
    budget: &'a [(String, String, f64)],
    recorded: Vec<&'a str>,
    breaches: usize,
}

impl<'a> Checks<'a> {
    fn new(budget: &'a [(String, String, f64)]) -> Self {
        let recorded = Vec::new();
        Checks {
            budget,
            recorded,
            breaches: 0,
        }
    }

    /// Compares one measurement of `subject` with the budget entry `key`
    /// and prints the verdict on one line with the in-code `invariants`
    /// checked on the same instance. A failed invariant, or a key the
    /// budget lacks, is a breach too.
    fn record(
        &mut self,
        key: &'a str,
        subject: &str,
        value: Option<f64>,
        invariants: &[Invariant],
    ) {
        let limit = self.budget.iter().find(|(_, k, _)| k == key).map(|e| e.2);
        let held = invariants.iter().all(|&(_, holds)| holds);
        let ok = limit.is_some_and(|limit| within_budget(key, value, limit)) && held;
        let verdict = if ok { "ok" } else { "BREACH" };
        let kind = if key.ends_with("_min") {
            "floor"
        } else {
            "ceiling"
        };
        let value = value.map_or("missing".to_string(), |v| format!("{v:.2}"));
        let limit = limit.map_or("missing from the budget".to_string(), |l| l.to_string());
        print!("{verdict:>7}  {key} = {value} ({kind} {limit}) {subject}");
        for (what, holds) in invariants {
            print!("; {what}: {}", if *holds { "yes" } else { "NO" });
        }
        println!();
        self.recorded.push(key);
        self.breaches += usize::from(!ok);
    }

    /// The budget keys of the sections that ran which no gate recorded.
    fn unrecorded(&self, ran: impl Fn(&str) -> bool) -> Vec<&'a str> {
        let budget = self.budget.iter().filter(|(section, _, _)| ran(section));
        let keys = budget.map(|(_, key, _)| key.as_str());
        keys.filter(|key| !self.recorded.contains(key)).collect()
    }
}

/// Whether the dense-tableau oracle reaches the revised engine's
/// `objective` on `model` (none when that solve failed) within
/// [`ORACLE_TOLERANCE`].
fn dense_agrees(model: &Model, objective: Option<f64>) -> Invariant {
    let agrees = objective.is_some_and(|objective| {
        let dense = rp_lp::oracle::solve_lp(model);
        let tolerance = ORACLE_TOLERANCE * objective.abs().max(1.0);
        dense.status == Status::Optimal && (dense.objective - objective).abs() <= tolerance
    });
    ("dense oracle agrees", agrees)
}

/// Median wall ms of five rhs siblings of `model`, each one `<=` row
/// (spread over the model) relaxed by +1, re-solved on the workspace
/// of the model's cold solve, and restored — the same model edited in
/// place — with the gate's two invariants: every sibling's objective
/// matches a cold solve of that sibling, and no sibling refactorised.
/// The cold references run first, so the timed siblings run back to
/// back as perfbench's do. No median unless all five siblings ran.
fn warm_siblings(model: &Model) -> (Option<f64>, [Invariant; 2]) {
    let mut model = model.clone();
    let le: Vec<_> = model
        .constraint_ids()
        .filter(|&id| model.constraint(id).cmp == Cmp::Le)
        .collect();
    let rows: Vec<_> = (0..5)
        .filter_map(|k| le.get(k * le.len() / 5))
        .copied()
        .collect();
    let cold: Vec<_> = rows
        .iter()
        .map(|&row| rhs_sibling(&mut model, row, &mut RevisedWorkspace::new()).1)
        .collect();
    let mut ws = RevisedWorkspace::new();
    let base = ws.solve_warm(&model, &SimplexOptions::default());
    let mut match_cold = base.status == Status::Optimal;
    let (mut ms, mut keep_factor) = (Vec::with_capacity(5), true);
    for (&row, cold) in rows.iter().zip(&cold) {
        let (ns, warm) = rhs_sibling(&mut model, row, &mut ws);
        keep_factor &= ws.last_stats().refactorisations == 0;
        match_cold &= warm.status == Status::Optimal
            && cold.status == Status::Optimal
            && (warm.objective - cold.objective).abs() <= 1e-6;
        ms.push(ns / 1e6);
    }
    ms.sort_by(f64::total_cmp);
    let invariants = [
        ("objectives match cold solves within 1e-6", match_cold),
        ("0 refactorisations", keep_factor),
    ];
    ((ms.len() == 5).then(|| ms[2]), invariants)
}

/// Median wall ms of the eight λ-siblings of one paper-scale (s = 400)
/// heterogeneous tree with a root-attached client, solved as the sweep
/// solves them: the model built at λ = 0.1 is cold-solved, then
/// re-targeted in place to λ = 0.2..0.9 and re-solved on the same
/// workspace (each solve timed, the re-target not). The gate's two
/// invariants: every sibling's status and bound match a cold solve of a
/// fresh build, and every sibling patched the workspace, so none re-ran
/// the presolve analysis. The fresh references run first.
fn lambda_siblings() -> (f64, [Invariant; 2]) {
    let instance = |k: u32| {
        let lambda = f64::from(k) / 10.0;
        paper_scale_instance(PlatformKind::default_heterogeneous(), lambda, 14)
    };
    let fresh: Vec<_> = (2..=9)
        .map(|k| {
            let model = rational_model(&instance(k));
            RevisedWorkspace::new().solve_warm(&model, &SimplexOptions::default())
        })
        .collect();
    let mut kept = build_model(&instance(1), Policy::Multiple, Integrality::RationalBound);
    let mut ws = RevisedWorkspace::new();
    ws.solve_warm(&kept.model, &SimplexOptions::default());
    let (mut ms, mut match_cold, mut patched) = (Vec::with_capacity(8), true, true);
    for (k, cold) in (2..=9).zip(&fresh) {
        kept.retarget_requests(&instance(k));
        let (ns, warm) = time_once(|| ws.solve_warm(&kept.model, &SimplexOptions::default()));
        patched &= ws.last_stats().patched;
        let scale = cold.objective.abs().max(1.0);
        match_cold &= warm.status == cold.status
            && (warm.status != Status::Optimal
                || (warm.objective - cold.objective).abs() <= 1e-6 * scale);
        ms.push(ns / 1e6);
    }
    ms.sort_by(f64::total_cmp);
    let invariants = [
        ("bounds match cold solves of fresh builds", match_cold),
        ("no presolve re-analysis", patched),
    ];
    (0.5 * (ms[3] + ms[4]), invariants)
}

/// One rhs sibling: relaxes `row` of `model` by +1, solves it on `ws`
/// (wall ns and solution) and restores the row.
fn rhs_sibling(model: &mut Model, row: ConstraintId, ws: &mut RevisedWorkspace) -> (f64, Solution) {
    let rhs = model.constraint(row).rhs;
    model.set_rhs(row, rhs + 1.0);
    let solved = time_once(|| ws.solve_warm(model, &SimplexOptions::default()));
    model.set_rhs(row, rhs);
    solved
}

/// The `--check` mode: runs the gates of every section of the budget,
/// or only of `section`, and exits non-zero on a breach after writing
/// the attribution artifacts. `perf-budget.toml` documents what each
/// entry limits.
fn check(budget_path: &str, section: Option<&str>) {
    use rp_obs::ObsMode;

    let budget = parse_budget(&read_or_exit(budget_path));
    if let Some(name) = section.filter(|name| budget.iter().all(|(s, _, _)| s != name)) {
        eprintln!("{budget_path} has no [{name}] section");
        std::process::exit(2);
    }
    let run = |name: &str| section.is_none_or(|s| s == name);
    let mut checks = Checks::new(&budget);
    let s400 = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31);
    let s400_model = rational_model(&s400);
    let s120 = feasible_bandwidth_instance(120, 0.4, 31);
    let s120_model = rational_model(&s120);

    // [lp] times five builds of the s = 2000 bandwidth model (median ms)
    // and keeps the last one for the solves below.
    let s2000_build = (run("lp") || run("obs") || run("warm")).then(|| {
        let problem = bandwidth_scale_instance(0.2, 31);
        let (mut ms, mut model) = (Vec::with_capacity(5), Model::default());
        for _ in 0..5 {
            let (ns, built) = time_once(|| rational_model(&problem));
            ms.push(ns / 1e6);
            model = built;
        }
        ms.sort_by(f64::total_cmp);
        (ms[2], model)
    });

    // One instrumented cold solve of each bound: [lp] takes the s = 2000
    // wall time and iterations from it, [obs] the phase coverage of both
    // and the metrics and trace they leave behind.
    rp_obs::set_mode(ObsMode::Full);
    rp_obs::reset_all();
    rp_obs::clear_trace();
    let instrumented = |model: &Model| {
        let mut ws = RevisedWorkspace::new();
        let (ms, _) = cold_solve(&mut ws, model)?;
        let stats = ws.last_stats();
        let coverage = stats.phases.total_nanos() as f64 / (ms * 1e6);
        Some((ms, stats.iterations() as f64, coverage))
    };
    let (s400_full, s2000_full) = match &s2000_build {
        Some((_, s2000_model)) => (instrumented(&s400_model), instrumented(s2000_model)),
        None => (None, None),
    };
    let metrics = flatten_json_numbers(&rp_obs::metrics_json()).unwrap_or_default();
    let trace = flatten_json_numbers(&rp_obs::chrome_trace_json()).unwrap_or_default();

    if run("lp") {
        // Timed with observation off, so this ceiling also bounds what
        // the mode-gated instrumentation sites cost when disabled.
        rp_obs::set_mode(ObsMode::Off);
        let mut ws = RevisedWorkspace::new();
        let solves: Option<Vec<_>> = (0..5).map(|_| cold_solve(&mut ws, &s400_model)).collect();
        let median = solves.map(|mut solves| {
            solves.sort_by(|a, b| a.0.total_cmp(&b.0));
            solves[2]
        });
        let invariants = [dense_agrees(&s400_model, median.map(|m| m.1))];
        let subject = "[s=400 bound, median of 5, ObsMode::Off]";
        checks.record("s400_bound_ms", subject, median.map(|m| m.0), &invariants);
        let build_ms = s2000_build.as_ref().map(|build| build.0);
        let shape = s2000_build.as_ref().is_some_and(|(_, model)| {
            model.num_vars() == 19_732 && model.num_constraints() == 13_518
        });
        let invariants = [("19,732 cols × 13,518 rows", shape)];
        let subject = "[s=2000 bandwidth model, median of 5 builds]";
        checks.record("s2000_build_ms", subject, build_ms, &invariants);
        let subject = "[s=2000 bandwidth bound, one cold solve]";
        checks.record("s2000_bound_ms", subject, s2000_full.map(|s| s.0), &[]);
        let iterations = s2000_full.map(|s| s.1);
        checks.record("s2000_iterations_max", subject, iterations, &[]);

        // A healthy instance must be answered by the revised engine
        // alone: a solve on a fresh workspace that ends optimal with no
        // recorded error.
        let ill_model = rational_model(&ill_scaled_bandwidth_instance(120, 0.4, 31));
        for (subject, model) in [
            ("[s=120 bandwidth bound]", &s120_model),
            ("[s=120 ill-scaled bandwidth bound]", &ill_model),
        ] {
            let mut ws = RevisedWorkspace::new();
            let solution = ws.solve_warm(model, &SimplexOptions::default());
            let proven = solution.status == Status::Optimal && ws.last_error().is_none();
            let agrees = [dense_agrees(model, proven.then_some(solution.objective))];
            let failures = Some(f64::from(u8::from(!proven)));
            checks.record("revised_failures_max", subject, failures, &agrees);
        }
    }
    rp_obs::set_mode(ObsMode::Counters);

    if run("obs") {
        // The key metrics must be live and both exports must parse back
        // (an export that does not parse flattens to nothing), the trace
        // with at least one timed event.
        let live = LIVE_METRICS.iter().all(|key| {
            let mut matching = metrics.iter().filter(|(name, _)| name.starts_with(key));
            matching.any(|&(_, value)| value > 0.0)
        });
        let parsed = !metrics.is_empty() && trace.iter().any(|(name, _)| name.ends_with(".dur"));
        for (subject, solved) in [
            ("[s=400 bound, ObsMode::Full]", s400_full),
            ("[s=2000 bandwidth bound, ObsMode::Full]", s2000_full),
        ] {
            let coverage = solved.map(|s| s.2);
            let bounded = coverage.is_some_and(|c| c <= PHASE_COVERAGE_MAX);
            let invariants = [
                ("coverage <= 1.2", bounded),
                ("key metrics live", live),
                ("trace and metrics exports parse", parsed),
            ];
            checks.record("obs_phase_coverage_min", subject, coverage, &invariants);
        }
    }

    if run("warm") {
        // One cold solve, then nine siblings that each perturb one
        // right-hand side: the matrix — and so the warm path's validity
        // check — stays identical.
        rp_obs::reset_all();
        let (mut model, mut ws) = (s120_model.clone(), RevisedWorkspace::new());
        ws.solve_warm(&model, &SimplexOptions::default());
        let constraints: Vec<_> = model.constraint_ids().collect();
        for step in 1..=9 {
            let id = constraints[step % constraints.len()];
            model.set_rhs(id, model.constraint(id).rhs + 1.0);
            ws.solve_warm(&model, &SimplexOptions::default());
        }
        let rate = Some(rp_obs::global().warm_start_rate());
        let subject = "[s=120 bandwidth bound, 9 rhs siblings]";
        checks.record("warm_hit_rate_min", subject, rate, &[]);

        if let Some((_, model)) = &s2000_build {
            let (median, invariants) = warm_siblings(model);
            let subject = "[s=2000 bandwidth bound, median of 5 rhs siblings]";
            checks.record("s2000_warm_sibling_ms", subject, median, &invariants);
        }
        let (median, invariants) = lambda_siblings();
        let subject = "[s=400 heterogeneous tree, seed 14, median of 8 λ-siblings]";
        checks.record("s400_lambda_sibling_ms", subject, Some(median), &invariants);
    }

    if run("heuristics") {
        // An invalid placement counts as none, which leaves the gap
        // unmeasured: a breach.
        let bound = lower_bound(&s120, BoundKind::Rational);
        let s120_gap = bound.and_then(|bound| timed_gap(bound, || lp_guided_cost(&s120)));
        let s40_gap = two_object_exact_gap();
        for (subject, measured) in [
            ("[s=120 bandwidth, over the LP bound]", s120_gap),
            ("[s=40 2-object, over the exact optimum]", s40_gap),
        ] {
            let gap = measured.map(|m| m.0);
            checks.record("lp_guided_gap_pct_max", subject, gap, &[]);
            checks.record("lp_guided_ms", subject, measured.map(|m| m.1), &[]);
        }

        // CTDLF on the s = 2000 churn instance (666 nodes, 1,334
        // clients). Restarting the traversal from the root after every
        // server, instead of re-examining the new server's ancestors,
        // lands at ~7x the re-examining run.
        let churn = rp_experiments::ChurnRunConfig::new();
        let platform = PlatformKind::default_heterogeneous();
        let problem = paper_scale_instance_sized(2000, platform, churn.lambda, churn.seed);
        let mut ms: Vec<f64> = (0..5)
            .map(|_| time_once(|| Heuristic::Ctdlf.run(black_box(&problem))).0 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        let tree = problem.tree();
        let shape = tree.num_nodes() == 666 && tree.num_clients() == 1_334;
        let invariants = [("666 nodes × 1,334 clients", shape)];
        let subject = "[s=2000 churn instance, heterogeneous, median of 5 runs]";
        checks.record("ctdlf_s2000_ms", subject, Some(ms[2]), &invariants);
    }

    if run("failures") {
        use rp_workloads::failures::{sample_link_failure, sample_node_failure};

        // Either outcome, full recovery or a degraded report, must verify.
        let placement = Heuristic::MixedBest.run(&s400);
        let failures = [
            sample_node_failure(&s400, 31),
            sample_link_failure(&s400, 31),
        ];
        for failure in failures {
            let repaired = placement.as_ref().map(|placement| {
                let events = [failure];
                time_once(|| {
                    rp_core::inject_and_repair(&s400, placement, Policy::Multiple, &events)
                })
            });
            let verified = repaired
                .as_ref()
                .is_some_and(|(_, (platform, outcome))| outcome.verify(platform, Policy::Multiple));
            let ms = repaired.map(|(ns, _)| ns / 1e6);
            let subject = format!("[s=400 MixedBest, {failure}]");
            let invariants = [("repair verified", verified)];
            checks.record("failure_repair_ms", &subject, ms, &invariants);
        }
    }

    if run("online") {
        use rp_experiments::churn::{run_churn, ChurnRunConfig};

        // The outcome mix, the rung counters and the final generation
        // must each account for exactly the absorbed deltas, or a
        // rollback leaked. The trace keeps clients cut off, so a ladder
        // that never skips the full-service rungs for one lost the skip.
        let config = ChurnRunConfig::new();
        let skips = || rp_obs::global().counter(rp_obs::Counter::CoreRepairRungsSkipped);
        let skipped_before = skips();
        let (ns, results) = time_once(|| run_churn(&config));
        let skipped = skips() - skipped_before;
        let accounted = results.per_policy.iter().all(|o| {
            let absorbed = (o.applied + o.degraded) as u64;
            o.applied + o.degraded + o.deferred == config.deltas
                && o.rungs.total() == absorbed
                && o.final_generation == absorbed
        });
        let invariants = [
            ("every incumbent verified", results.total_unverified() == 0),
            ("rollbacks accounted", accounted),
            ("futile rungs skipped", skipped > 0),
        ];
        let subject = "[2000 churn deltas per policy, s=400]";
        checks.record("churn_wall_ms", subject, Some(ns / 1e6), &invariants);
    }

    let unrecorded = checks.unrecorded(run);
    if !unrecorded.is_empty() {
        eprintln!("{budget_path}: no gate records {}", unrecorded.join(", "));
        std::process::exit(2);
    }
    if checks.breaches > 0 {
        let breaches = checks.breaches;
        eprintln!("{breaches} perf-budget check(s) breached (see {budget_path})");
        attribute_breach();
        std::process::exit(1);
    }
    println!("all perf-budget checks hold ({budget_path})");
}

/// Names the culprit of a breach: snapshots the representative
/// instrumented workload, ranks its counters against the checked-in
/// `BENCH_obs.json`, and leaves the evidence on disk for CI to upload.
/// Attribution must never mask the breach, so write errors only warn.
fn attribute_breach() {
    let write = |path: &str, contents: &str| match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(error) => eprintln!("(cannot write {path}: {error})"),
    };
    let snapshot = obs_metrics_snapshot();
    write("obs-breach.metrics.json", &snapshot);
    let reference = std::fs::read_to_string("BENCH_obs.json");
    match reference.map(|reference| obs_diff_report(&reference, &snapshot, 10)) {
        Ok(Ok(report)) => {
            eprint!("top movers vs BENCH_obs.json:\n{report}");
            write("obs-breach.diff.txt", &report);
        }
        Ok(Err(error)) => eprintln!("(obs-diff attribution failed: {error})"),
        Err(_) => eprintln!("(no BENCH_obs.json here; skipping the obs-diff attribution)"),
    }
    let flight = rp_obs::flight_snapshot("budget_breach");
    write("obs-breach.flight.jsonl", &flight);
}

/// What one invocation does.
#[derive(Debug, PartialEq)]
enum Command {
    /// Run the named suites (all of them when none is named) and write
    /// their snapshots into the directory.
    Snapshot(Vec<&'static str>, String),
    /// Run the gates of a budget file, optionally of one section only.
    Check(String, Option<String>),
    /// Rank the movers between two snapshots.
    ObsDiff(String, String),
}

/// Parses the command line. Anything it does not know is an error, so a
/// typo never starts a run that rewrites the snapshots.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let operand = |arg: &&str| !arg.starts_with("--");
    match args.as_slice() {
        ["--obs-diff", old, new] if operand(old) && operand(new) => {
            Ok(Command::ObsDiff(old.to_string(), new.to_string()))
        }
        ["--check", rest @ ..] => {
            let (budget, rest) = match rest {
                [budget, rest @ ..] if operand(budget) => (budget.to_string(), rest),
                _ => ("perf-budget.toml".to_string(), rest),
            };
            match rest {
                [] => Ok(Command::Check(budget, None)),
                ["--section", name] if operand(name) => {
                    Ok(Command::Check(budget, Some(name.to_string())))
                }
                _ => Err(format!("unexpected `{}` after --check", rest.join(" "))),
            }
        }
        _ => {
            let (mut suites, mut out) = (Vec::new(), ".".to_string());
            let mut args = args.iter();
            while let Some(arg) = args.next() {
                if let Some((name, _)) = SUITES.iter().find(|(name, _)| name == arg) {
                    suites.push(*name);
                } else if *arg == "--out" {
                    let dir = args.next().filter(|dir| operand(dir));
                    out = dir.ok_or("--out needs a directory")?.to_string();
                } else {
                    return Err(format!("unknown argument `{arg}`"));
                }
            }
            Ok(Command::Snapshot(suites, out))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Snapshot(suites, out)) => write_snapshots(&suites, &out),
        Ok(Command::Check(budget, section)) => check(&budget, section.as_deref()),
        Ok(Command::ObsDiff(old, new)) => {
            match obs_diff_report(&read_or_exit(&old), &read_or_exit(&new), 25) {
                Ok(report) => print!("{report}"),
                Err(error) => {
                    eprintln!("obs-diff FAILED: {error}");
                    std::process::exit(1);
                }
            }
        }
        Err(message) => {
            let suites: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
            eprintln!("error: {message}");
            eprintln!("usage: baseline [{}]... [--out DIR]", suites.join("|"));
            eprintln!("       baseline --check [BUDGET.toml] [--section NAME]");
            eprintln!("       baseline --obs-diff OLD.json NEW.json");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    const SHIPPED_BUDGET: &str = include_str!("../../../../perf-budget.toml");

    // The snapshot reader and diff, as `--obs-diff` and a breach's
    // attribution use them.

    #[test]
    fn flatten_walks_nested_objects_into_dotted_paths() {
        let json = r#"{"schema":1,"mode":"full","counters":{"lp.solves":4,"lp.ftran.calls":12},
                       "derived":{"lp.warm.rate":0.5},"note":"te\"xt","ok":true,"gone":null,
                       "arr":[7,-8e1]}"#;
        let flat = flatten_json_numbers(json).expect("well-formed");
        // Strings, booleans and nulls never become leaves.
        let expected = [
            ("schema", 1.0),
            ("counters.lp.solves", 4.0),
            ("counters.lp.ftran.calls", 12.0),
            ("derived.lp.warm.rate", 0.5),
            ("arr.0", 7.0),
            ("arr.1", -80.0),
        ];
        assert!(flat.iter().map(|(n, v)| (n.as_str(), *v)).eq(expected));
    }

    #[test]
    fn flatten_rejects_malformed_json() {
        for bad in [
            "{\"a\":",
            "{\"a\":1} trailing",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[NaN]",
            "[,]",
        ] {
            assert!(flatten_json_numbers(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn obs_diff_names_the_injected_top_mover() {
        // A doctored pair: one counter quadruples, one moves slightly,
        // one appears, the rest hold still. The big relative move must
        // rank first.
        let old = r#"{"counters":{"lp.solves":10,"lp.ftran.calls":100,"lp.btran.calls":50}}"#;
        let new = r#"{"counters":{"lp.solves":10,"lp.ftran.calls":400,"lp.btran.calls":51,
                      "lp.refactor.count":3}}"#;
        let report = obs_diff_report(old, new, 10).expect("both parse");
        let first_mover = report.lines().nth(1).expect("at least one mover");
        assert!(
            first_mover.contains("counters.lp.ftran.calls"),
            "expected the injected mover first, got: {first_mover}"
        );
        assert!(report.contains("100 -> 400"));
        assert!(report.contains("(+300.0%)"));
        assert!(report.contains("counters.lp.refactor.count: (new) -> 3"));
        // The unchanged counter stays out of the report.
        assert!(!report.contains("lp.solves:"));
    }

    #[test]
    fn identical_snapshots_diff_to_nothing() {
        let snap = r#"{"counters":{"lp.solves":10}}"#;
        let report = obs_diff_report(snap, snap, 10).expect("parses");
        assert!(report.contains("0 of 1 metrics moved"));
        assert!(report.contains("numerically identical"));
    }

    #[test]
    fn budget_parser_tracks_section_headers() {
        let text = "# comment\n[lp]\ns400_bound_ms = 15.0 # inline\n\n[obs]\n\
                    obs_phase_coverage_min = 0.8\n";
        let lp = ("lp".to_string(), "s400_bound_ms".to_string(), 15.0);
        let obs = ("obs".to_string(), "obs_phase_coverage_min".to_string(), 0.8);
        assert_eq!(parse_budget(text), [lp, obs]);
        let shipped = parse_budget(SHIPPED_BUDGET);
        assert!(shipped.len() <= 14, "at most fourteen settable thresholds");
    }

    #[test]
    fn limits_are_inclusive_and_missing_or_nan_measurements_breach() {
        assert!(within_budget("s400_bound_ms", Some(15.0), 15.0));
        assert!(within_budget("lp_guided_gap_pct_max", Some(25.0), 25.0));
        assert!(within_budget("obs_phase_coverage_min", Some(0.8), 0.8));
        assert!(!within_budget("s400_bound_ms", Some(15.01), 15.0));
        assert!(!within_budget("obs_phase_coverage_min", Some(0.79), 0.8));
        for key in ["s400_bound_ms", "warm_hit_rate_min"] {
            assert!(!within_budget(key, Some(f64::NAN), 1.0));
            assert!(!within_budget(key, None, 1.0));
        }
        let budget = parse_budget(SHIPPED_BUDGET);
        let mut checks = Checks::new(&budget);
        checks.record(
            "s400_bound_ms",
            "[at the ceiling]",
            Some(15.0),
            &[("ok", true)],
        );
        assert_eq!(checks.breaches, 0);
        checks.record("s2000_bound_ms", "[NaN]", Some(f64::NAN), &[]);
        checks.record("s2000_iterations_max", "[not measured]", None, &[]);
        checks.record(
            "s400_bound_ms",
            "[invariant fails]",
            Some(1.0),
            &[("ok", false)],
        );
        checks.record("s400_bound_mss", "[no budget entry]", Some(1.0), &[]);
        assert_eq!(checks.breaches, 4);
    }

    #[test]
    fn a_budget_key_no_gate_records_is_an_error() {
        let mut budget = parse_budget(SHIPPED_BUDGET);
        budget.push(("lp".to_string(), "s400_bound_mss".to_string(), 15.0));
        let mut checks = Checks::new(&budget);
        for key in [
            "s400_bound_ms",
            "s2000_build_ms",
            "s2000_bound_ms",
            "s2000_iterations_max",
            "revised_failures_max",
        ] {
            checks.record(key, "[test]", Some(0.0), &[]);
        }
        assert_eq!(
            checks.unrecorded(|section| section == "lp"),
            ["s400_bound_mss"]
        );
        assert!(checks.unrecorded(|_| true).contains(&"churn_wall_ms"));
    }

    #[test]
    fn the_parser_rejects_typos_and_removed_flags() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            parse_args(&args)
        };
        let snapshot = |suites, out: &str| Ok(Command::Snapshot(suites, out.to_string()));
        assert_eq!(parse(""), snapshot(vec![], "."));
        let online_sparse = snapshot(vec!["online", "sparse"], "ci-bench");
        assert_eq!(parse("online sparse --out ci-bench"), online_sparse);
        let check = |budget: &str, section: Option<&str>| {
            Ok(Command::Check(
                budget.to_string(),
                section.map(str::to_string),
            ))
        };
        assert_eq!(parse("--check"), check("perf-budget.toml", None));
        assert_eq!(
            parse("--check b.toml --section lp"),
            check("b.toml", Some("lp"))
        );
        let diff = Command::ObsDiff("a.json".to_string(), "b.json".to_string());
        assert_eq!(parse("--obs-diff a.json b.json"), Ok(diff));
        let typos = "--chek|onlin|revised|BENCH_baseline.json|--out|--out --check|--check b.toml lp|\
                     --check --section|--obs-diff|--obs-diff a.json|--obs-diff a.json b.json c.json";
        let removed = "--smoke-revised|--smoke-bandwidth|--smoke-heuristics|--smoke-failures|\
                       --smoke-online|--smoke-obs|--smoke-pricing|--check-budget|--check-budget lp|\
                       now.json --compare BENCH_baseline.json|--compare BENCH_baseline.json|\
                       --sparse-only|--scenarios-only|--heuristics-only|--failures-only|\
                       --online-only|--obs-only|--revised-out r.json|--sparse-out s.json|\
                       --scenarios-out s.json|--heuristics-out h.json|--failures-out f.json|\
                       --online-out o.json|--obs-out o.json";
        for line in typos.split('|').chain(removed.split('|')) {
            assert!(parse(line).is_err(), "`{line}` must be rejected");
        }
    }
}
