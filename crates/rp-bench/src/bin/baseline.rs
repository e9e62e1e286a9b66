//! Quick-mode performance baseline: times the hot paths the sweep
//! exercises and writes a machine-readable `BENCH_baseline.json` so the
//! perf trajectory can be tracked across PRs.
//!
//! ```text
//! cargo run --release -p rp-bench --bin baseline -- [OUTPUT.json] [--compare OLD.json]
//! cargo run --release -p rp-bench --bin baseline -- --smoke-revised
//! cargo run --release -p rp-bench --bin baseline -- --smoke-heuristics
//! cargo run --release -p rp-bench --bin baseline -- --smoke-failures
//! cargo run --release -p rp-bench --bin baseline -- --smoke-online
//! cargo run --release -p rp-bench --bin baseline -- --smoke-obs
//! cargo run --release -p rp-bench --bin baseline -- --check-budget [perf-budget.toml]
//! cargo run --release -p rp-bench --bin baseline -- [--obs-out OUT.json] --obs-only
//! cargo run --release -p rp-bench --bin baseline -- [--sparse-out OUT.json] --sparse-only
//! cargo run --release -p rp-bench --bin baseline -- [--heuristics-out OUT.json] --heuristics-only
//! cargo run --release -p rp-bench --bin baseline -- [--failures-out OUT.json] --failures-only
//! cargo run --release -p rp-bench --bin baseline -- [--online-out OUT.json] --online-only
//! ```
//!
//! Metrics (all medians over several samples):
//!
//! * `heuristic/<name>/<platform>/<size>` — ns per full heuristic run;
//! * `full_sweep/<platform>/<size>` — ns for MixedBest (all eight
//!   heuristics on one instance), the paper's per-tree unit of work;
//! * `allocs/...` — heap allocations per run (counted by a wrapping
//!   global allocator; warm caches, so steady-state numbers);
//!   `allocs/full_sweep_pooled/*` measures the pooled
//!   `MixedBest::full_sweep` driver the parallel sweep pins per worker;
//! * `ancestors_pass/<size>` — ns to walk every client's ancestor path;
//! * `ancestor_check_pass/<size>` — ns for all-pairs `node_is_ancestor_or_self`;
//! * `lp_rational_bound/<size>` — ns for the Section 7.1 LP lower bound
//!   (on the default — revised — engine);
//! * `milp_mixed_bound/<size>` — ns for the capped mixed bound;
//! * `sweep_smoke_ms` — wall-clock ms for the smoke-test sweep;
//! * `sweep_trees_per_sec` — sweep throughput derived from it.
//!
//! The run **also** writes `BENCH_revised.json`: dense-tableau vs
//! revised-simplex timings per LP-bound size with the speedup ratio,
//! plus the paper-scale `s = 400` revised-engine bound time that the
//! dense engine cannot reach in reasonable time — and
//! `BENCH_sparse.json`: the sparse-LU / Forrest–Tomlin trajectory
//! (factor nnz scaling, FTRAN/BTRAN and refactorisation timings,
//! iteration counts, warm sibling re-solves, and the `s = 2000`
//! multi-thousand-row scenario; see [`write_sparse_report`]).
//!
//! `--smoke-revised` is the CI mode: it solves one `s = 400`
//! paper-scale LP bound with the revised engine, prints the timing and
//! exits non-zero if the solve did not produce a bound.
//! `--smoke-failures` is its fault-tolerance sibling: one seeded node
//! failure and one seeded link failure on a paper-scale placement, each
//! repaired within `RP_SMOKE_FAIL_MS` with a machine-checked outcome.
//! `--smoke-online` drives the full 2000-delta churn sweep through the
//! online `PlacementEngine` per policy at
//! `s = 400` and requires every incumbent to pass its machine check
//! within the `RP_SMOKE_ONLINE_MS` wall budget (see [`smoke_online`]).
//! The full run also writes `BENCH_failures.json`: the 200-trial
//! resilience sweep (survival / degradation / repair latency per
//! heuristic; see [`write_failures_report`]) — `BENCH_online.json`: the
//! `s = 2000` churn trajectory (re-placements/sec, apply-latency
//! percentiles and rung counters per policy; see
//! [`write_online_report`]) — and `BENCH_obs.json`:
//! the full metrics-registry snapshot of an instrumented representative
//! workload (see [`write_obs_report`]).
//! `--smoke-obs` gates the telemetry layer itself, and
//! `--check-budget` enforces the pinned ceilings of `perf-budget.toml`
//! (see [`smoke_obs`] / [`check_budget`]).
//!
//! With `--compare OLD.json` the output also contains a `speedup`
//! section: `old / new` per metric shared with the old file.

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rp_bench::{bench_instance, MICRO_SIZES};
use rp_core::heuristics::HeuristicState;
use rp_core::ilp::{lower_bound, lower_bound_with, BoundKind, IlpOptions};
use rp_core::{Heuristic, MixedBest};
use rp_experiments::runner::{run_sweep, ExperimentConfig};
use rp_lp::{BranchBoundOptions, LpEngine};
use rp_workloads::platform::{paper_scale_instance, PlatformKind};

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Median ns/op of `f`, sampled adaptively within a small time budget.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Warm up and estimate.
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < Duration::from_millis(20) {
        f();
        iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    let batch = ((8_000_000.0 / per_iter.max(1.0)).ceil() as u64).max(1);
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Allocations per call of `f` in the steady state (after warm-up).
fn allocs_per_call<F: FnMut()>(mut f: F) -> f64 {
    for _ in 0..3 {
        f(); // warm any lazily grown buffers
    }
    const CALLS: u64 = 10;
    let before = allocations();
    for _ in 0..CALLS {
        f();
    }
    (allocations() - before) as f64 / CALLS as f64
}

/// Times a **single** invocation of `f` (no sampling, no median —
/// used for the long paper-scale solves), returning (ns, result).
fn time_once<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_nanos() as f64, result)
}

/// The CI smoke check: one paper-scale (`s = 400`) LP lower bound on
/// the revised engine. Solves the relaxation directly and asserts
/// `Status::Optimal` — going through `lower_bound_with` would mask an
/// iteration-limited or failed solve as the always-valid bound `0.0`.
/// The sparse-LU engine must also stay within the `RP_SMOKE_MS` wall
/// budget (default 25 ms — generous against the ~5 ms it takes on a
/// quiet machine, tight against the ~250 ms the dense tableau needs)
/// and agree with the dense oracle's objective.
fn smoke_revised() {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{solve_lp, RevisedWorkspace, SimplexOptions, Status};

    let problem = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31);
    let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
    let (ns, solution) = time_once(|| {
        RevisedWorkspace::new().solve_warm(&formulation.model, &SimplexOptions::default())
    });
    if solution.status != Status::Optimal || !solution.objective.is_finite() {
        eprintln!(
            "s=400 revised lp_rational_bound FAILED: status {}, objective {}",
            solution.status, solution.objective
        );
        std::process::exit(1);
    }
    let budget_ms: f64 = std::env::var("RP_SMOKE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    if ns / 1e6 > budget_ms {
        eprintln!(
            "s=400 revised lp_rational_bound REGRESSED: {:.1} ms exceeds the {budget_ms} ms budget",
            ns / 1e6
        );
        std::process::exit(1);
    }
    let dense = solve_lp(&formulation.model);
    if dense.status != Status::Optimal
        || (dense.objective - solution.objective).abs() > 1e-4 * solution.objective.abs().max(1.0)
    {
        eprintln!(
            "s=400 engines disagree: revised {} vs dense oracle {} ({})",
            solution.objective, dense.objective, dense.status
        );
        std::process::exit(1);
    }
    println!(
        "s=400 revised lp_rational_bound = {:.3} in {:.1} ms (dense oracle agrees: {:.3})",
        solution.objective,
        ns / 1e6,
        dense.objective
    );
}

/// The ill-scaled bandwidth CI smoke: two checks back to back.
///
/// 1. A small (`s = 120`) **ill-scaled bandwidth-constrained** LP —
///    wide-range capacities spanning five decades plus per-link
///    bandwidth rows (entry spread ~2e5) — must solve on the revised
///    engine *and* agree with the dense-tableau oracle's objective.
/// 2. The `s = 2000`-class bandwidth instance (multi-thousand rows once
///    the flow recurrences materialise) must solve with the revised
///    engine inside the `RP_SMOKE_BW_MS` wall budget; the dense oracle
///    is structurally unable to reach this scale, which is the point of
///    the sparse core.
fn smoke_bandwidth() {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{solve_lp, RevisedWorkspace, SimplexOptions, Status};
    use rp_workloads::scenarios::{bandwidth_scale_instance, ill_scaled_bandwidth_instance};

    let mut workspace = RevisedWorkspace::new();
    let options = SimplexOptions::default();

    // --- Dense-oracle agreement on the small ill-scaled instance. ---
    let small = ill_scaled_bandwidth_instance(120, 0.4, 31);
    let formulation = build_model(&small, Policy::Multiple, Integrality::RationalBound);
    let revised = workspace.solve_warm(&formulation.model, &options);
    if revised.status != Status::Optimal || !revised.objective.is_finite() {
        eprintln!(
            "s=120 ill-scaled bandwidth bound FAILED: status {}, objective {}",
            revised.status, revised.objective
        );
        std::process::exit(1);
    }
    let dense = solve_lp(&formulation.model);
    if dense.status != Status::Optimal
        || (dense.objective - revised.objective).abs() > 1e-4 * revised.objective.abs().max(1.0)
    {
        eprintln!(
            "s=120 ill-scaled engines disagree: revised {} vs dense oracle {} ({})",
            revised.objective, dense.objective, dense.status
        );
        std::process::exit(1);
    }
    println!(
        "s=120 ill-scaled bandwidth bound = {:.3} (dense oracle agrees: {:.3})",
        revised.objective, dense.objective
    );

    // --- The s = 2000 class within the wall budget. ---
    let problem = bandwidth_scale_instance(0.2, 31);
    workspace.invalidate();
    let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
    let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
    if solution.status != Status::Optimal || !solution.objective.is_finite() {
        eprintln!(
            "s=2000 bandwidth bound FAILED: status {}, objective {}",
            solution.status, solution.objective
        );
        std::process::exit(1);
    }
    let budget_ms: f64 = std::env::var("RP_SMOKE_BW_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3000.0);
    if ns / 1e6 > budget_ms {
        eprintln!(
            "s=2000 bandwidth bound REGRESSED: {:.1} ms exceeds the {budget_ms} ms budget",
            ns / 1e6
        );
        std::process::exit(1);
    }
    let stats = workspace.last_stats();
    println!(
        "s=2000 bandwidth bound = {:.3} in {:.1} ms ({} rows x {} cols, {} iterations)",
        solution.objective,
        ns / 1e6,
        formulation.model.num_constraints(),
        formulation.model.num_vars(),
        stats.iterations()
    );
    println!(
        "  pivots: phase1 {} phase2 {} dual {} | flips: primal {} dual {}",
        stats.phase1_pivots,
        stats.phase2_pivots(),
        stats.dual_pivots,
        stats.bound_flips,
        stats.dual_bound_flips,
    );
}

/// The LP-guided heuristics CI smoke: one `s = 120`
/// bandwidth-constrained instance and one 2-object instance must round
/// to a **feasible** placement within a `RP_SMOKE_GAP_PCT` (default
/// 25%) cost gap, inside the `RP_SMOKE_HEUR_MS` wall budget (default
/// 2000 ms, covering the LP solve *and* the rounding/repair pipeline).
///
/// The yardstick differs per family, deliberately:
///
/// * **bandwidth (single-object)** — gap against the rational LP
///   bound, which is tight on these formulations;
/// * **2-object** — gap against the **exact multi-object ILP optimum**
///   (solved in-process on a replica-counting 2-object instance). The
///   rational bound is *not* a usable yardstick for multi-object
///   families: `K` objects sharing a node pay fractional per-object
///   replicas in the relaxation, so even the exact optimum sits far
///   above it (the golden `multi_object_coupling` instance pins
///   exact = 7 vs LP = 3.4 — a 106% gap at the optimum).
fn smoke_heuristics() {
    use rp_core::heuristics::lp_guided::{lp_guided_multi_with, lp_guided_with};
    use rp_core::multi::solve_multi_ilp_with;
    use rp_core::Policy;
    use rp_workloads::scenarios::{feasible_bandwidth_instance, multi_object_counting_instance};

    let gap_budget_pct: f64 = std::env::var("RP_SMOKE_GAP_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let ms_budget: f64 = std::env::var("RP_SMOKE_HEUR_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000.0);
    let options = IlpOptions::with_engine(LpEngine::Revised);

    // --- s = 120 bandwidth-constrained rounding. ---
    let problem = feasible_bandwidth_instance(120, 0.4, 31);
    let bound = lower_bound(&problem, BoundKind::Rational).unwrap_or(0.0);
    let (ns, placement) = time_once(|| lp_guided_with(&problem, &options));
    let Some(placement) = placement else {
        eprintln!("s=120 bandwidth LP-guided rounding FAILED to place");
        std::process::exit(1);
    };
    if !placement.is_valid(&problem, Policy::Multiple) {
        eprintln!("s=120 bandwidth LP-guided placement is INVALID");
        std::process::exit(1);
    }
    let gap_pct = 100.0 * (placement.cost(&problem) as f64 / bound.max(1e-9) - 1.0);
    if gap_pct > gap_budget_pct {
        eprintln!(
            "s=120 bandwidth LP-guided gap REGRESSED: {gap_pct:.1}% exceeds {gap_budget_pct}%"
        );
        std::process::exit(1);
    }
    if ns / 1e6 > ms_budget {
        eprintln!(
            "s=120 bandwidth LP-guided rounding REGRESSED: {:.1} ms exceeds {ms_budget} ms",
            ns / 1e6
        );
        std::process::exit(1);
    }
    println!(
        "s=120 bandwidth LP-guided cost = {} (bound {bound:.1}, gap {gap_pct:.1}%) in {:.1} ms",
        placement.cost(&problem),
        ns / 1e6
    );

    // --- 2-object rounding vs the exact multi-object optimum. ---
    let problem = multi_object_counting_instance(40, 2, 0.4, 11);
    let mut exact_options = options;
    exact_options.branch_bound.max_nodes = 500_000;
    let exact = solve_multi_ilp_with(&problem, &exact_options)
        .map(|p| p.cost(&problem))
        .unwrap_or_else(|| {
            eprintln!("2-object exact reference solve FAILED");
            std::process::exit(1);
        });
    let (ns, placement) = time_once(|| lp_guided_multi_with(&problem, &options));
    let Some(placement) = placement else {
        eprintln!("2-object LP-guided rounding FAILED to place");
        std::process::exit(1);
    };
    if let Err(error) = placement.validate(&problem, Policy::Multiple) {
        eprintln!("2-object LP-guided placement is INVALID: {error}");
        std::process::exit(1);
    }
    let gap_pct = 100.0 * (placement.cost(&problem) as f64 / exact as f64 - 1.0);
    if gap_pct > gap_budget_pct {
        eprintln!("2-object LP-guided gap REGRESSED: {gap_pct:.1}% over the exact optimum {exact} exceeds {gap_budget_pct}%");
        std::process::exit(1);
    }
    if ns / 1e6 > ms_budget {
        eprintln!(
            "2-object LP-guided rounding REGRESSED: {:.1} ms exceeds {ms_budget} ms",
            ns / 1e6
        );
        std::process::exit(1);
    }
    println!(
        "2-object LP-guided cost = {} (exact {exact}, gap {gap_pct:.1}%) in {:.1} ms",
        placement.cost(&problem),
        ns / 1e6
    );
}

/// The fault-tolerance CI smoke: one paper-scale (`s = 400`) instance,
/// one seeded node failure and one seeded link failure, each injected
/// into the MixedBest placement and repaired within the
/// `RP_SMOKE_FAIL_MS` wall budget (default 250 ms per repair). Either
/// outcome — full recovery or a degraded report — must pass its
/// machine check; a check failure or a budget overrun exits non-zero.
fn smoke_failures() {
    use rp_core::{inject_and_repair, Policy};
    use rp_workloads::failures::{sample_link_failure, sample_node_failure};

    let problem = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31);
    let Some(placement) = Heuristic::MixedBest.run(&problem) else {
        eprintln!("s=400 smoke-failures: MixedBest FAILED on the healthy instance");
        std::process::exit(1);
    };
    let budget_ms: f64 = std::env::var("RP_SMOKE_FAIL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250.0);
    for (label, failure) in [
        ("node", sample_node_failure(&problem, 31)),
        ("link", sample_link_failure(&problem, 31)),
    ] {
        let (ns, (platform, outcome)) =
            time_once(|| inject_and_repair(&problem, &placement, Policy::Multiple, &[failure]));
        if !outcome.verify(&platform, Policy::Multiple) {
            eprintln!("s=400 {label}-failure repair FAILED its machine check ({failure})");
            std::process::exit(1);
        }
        if ns / 1e6 > budget_ms {
            eprintln!(
                "s=400 {label}-failure repair REGRESSED: {:.2} ms exceeds the {budget_ms} ms budget",
                ns / 1e6
            );
            std::process::exit(1);
        }
        println!(
            "s=400 {label} failure ({failure}) repaired in {:.2} ms: {} ({:.1}% of requests served)",
            ns / 1e6,
            if outcome.is_full() {
                "full recovery"
            } else {
                "degraded"
            },
            100.0 * outcome.served_fraction()
        );
    }
}

/// The online-engine CI smoke: the default churn sweep — 2000 seeded
/// mixed deltas per policy on a paper-scale (`s = 400`) instance, each
/// apply under a 50 ms budget with the incumbent machine-verified
/// after every one (`Paranoia::Full`). Exits non-zero on any
/// unverified incumbent, any rollback leak (the outcome mix, the rung
/// counters and the final generation must all account for exactly the
/// absorbed deltas), or a total wall time over `RP_SMOKE_ONLINE_MS`
/// (default 120 000 ms across all three policies).
fn smoke_online() {
    use rp_experiments::churn::{run_churn, ChurnRunConfig};

    let config = ChurnRunConfig::new();
    let budget_ms: f64 = std::env::var("RP_SMOKE_ONLINE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000.0);
    let (ns, results) = time_once(|| run_churn(&config));
    let unverified = results.total_unverified();
    if unverified > 0 {
        eprintln!("s=400 smoke-online: {unverified} incumbent(s) FAILED their machine check");
        std::process::exit(1);
    }
    for outcome in &results.per_policy {
        let absorbed = (outcome.applied + outcome.degraded) as u64;
        let accounted = outcome.applied + outcome.degraded + outcome.deferred == config.deltas
            && outcome.rungs.total() == absorbed
            && outcome.final_generation == absorbed;
        if !accounted {
            eprintln!(
                "s=400 smoke-online: {} leaked a rollback ({} applied + {} degraded + {} \
                 deferred vs {} deltas; rungs {}, generation {})",
                outcome.policy,
                outcome.applied,
                outcome.degraded,
                outcome.deferred,
                config.deltas,
                outcome.rungs.total(),
                outcome.final_generation
            );
            std::process::exit(1);
        }
        println!(
            "s={} {}: {} deltas absorbed ({} applied, {} degraded, {} deferred) — \
             {:.0} re-placements/s, p99 {:.3} ms, rungs {}/{}/{}/{} \
             (surgical/lp-repair/rerun/degraded), all incumbents verified",
            config.problem_size,
            outcome.policy,
            absorbed,
            outcome.applied,
            outcome.degraded,
            outcome.deferred,
            outcome.replacements_per_sec,
            outcome.p99_ms,
            outcome.rungs.surgical,
            outcome.rungs.lp_repair,
            outcome.rungs.rerun,
            outcome.rungs.degraded,
        );
    }
    if ns / 1e6 > budget_ms {
        eprintln!(
            "s=400 smoke-online REGRESSED: {:.0} ms exceeds the {budget_ms} ms wall budget",
            ns / 1e6
        );
        std::process::exit(1);
    }
}

/// Solves the model cold `n` times on one workspace (invalidated
/// between solves) and returns the median wall time in ms, exiting
/// non-zero if any solve fails.
fn median_cold_solve_ms(model: &rp_lp::Model, n: usize, what: &str) -> f64 {
    use rp_lp::{RevisedWorkspace, SimplexOptions, Status};

    let mut workspace = RevisedWorkspace::new();
    let options = SimplexOptions::default();
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        workspace.invalidate();
        let (ns, solution) = time_once(|| workspace.solve_warm(model, &options));
        if solution.status != Status::Optimal {
            eprintln!("{what} FAILED: status {}", solution.status);
            std::process::exit(1);
        }
        samples.push(ns / 1e6);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Minimal structural JSON check for the emitted trace/metrics files:
/// braces and brackets balance outside strings, and the document is one
/// object. Not a full parser — enough to catch a truncated or
/// mis-escaped export without pulling in a JSON dependency.
fn json_is_well_formed(text: &str) -> bool {
    let text = text.trim();
    if !text.starts_with('{') || !text.ends_with('}') {
        return false;
    }
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

/// The observability CI smoke: four checks back to back.
///
/// 1. **Key counters are live** — one instrumented (`ObsMode::Full`)
///    `s = 400` paper-scale solve must leave the solve counter, the
///    FTRAN counter, the iteration gauge, the solve histogram and a
///    warm-start classification nonzero in the global registry —
///    and its phase-time breakdown must sum to within 20% of the
///    measured solve wall time (the profiler reconciles with reality).
/// 2. **Exports round-trip** — the chrome trace and the metrics JSON
///    written from that run must be structurally well-formed and
///    contain the expected top-level keys.
/// 3. **Disabled means free** — with `ObsMode::Off` the median cold
///    solve must stay within 2% of the pinned pre-instrumentation
///    timing budget (`RP_SMOKE_OBS_MS`, default 25 ms — the same
///    ceiling `--smoke-revised` enforced before the telemetry layer
///    existed), so the mode-gated sites cost nothing when off.
fn smoke_obs() {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{RevisedWorkspace, SimplexOptions, Status};
    use rp_obs::{Counter, Gauge, HistId};

    let problem = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31);
    let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);

    // --- 1. Instrumented solve: key counters nonzero. ---
    rp_obs::set_mode(rp_obs::ObsMode::Full);
    rp_obs::reset_all();
    rp_obs::clear_trace();
    let mut workspace = RevisedWorkspace::new();
    let options = SimplexOptions::default();
    let (wall_ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
    if solution.status != Status::Optimal {
        eprintln!(
            "s=400 instrumented solve FAILED: status {}",
            solution.status
        );
        std::process::exit(1);
    }
    // The phase profiler's breakdown must reconcile with the measured
    // wall time: phase timers never nest, so the sum can only fall
    // short of the wall clock by untimed glue — more than 20% adrift
    // means a phase lost its timer (or one started double-counting).
    let phases = workspace.last_stats().phases;
    let coverage = phases.total_nanos() as f64 / wall_ns.max(1.0);
    if !(0.8..=1.2).contains(&coverage) {
        eprintln!(
            "smoke-obs FAILED: phase breakdown sums to {:.1}% of the instrumented s=400 \
             solve wall time ({:.2} ms of {:.2} ms); need within 20%",
            100.0 * coverage,
            phases.total_nanos() as f64 / 1e6,
            wall_ns / 1e6,
        );
        std::process::exit(1);
    }
    println!(
        "phase breakdown covers {:.1}% of the instrumented s=400 solve ({:.2} ms)",
        100.0 * coverage,
        wall_ns / 1e6,
    );
    let registry = rp_obs::global();
    let warm_classified = registry.counter(Counter::LpWarmCold)
        + registry.counter(Counter::LpWarmHit)
        + registry.counter(Counter::LpWarmRefactor)
        + registry.counter(Counter::LpWarmModeChangeCold);
    let key_counters = [
        ("lp.solves", registry.counter(Counter::LpSolves)),
        ("lp.ftran.calls", registry.counter(Counter::LpFtranCalls)),
        ("lp.btran.calls", registry.counter(Counter::LpBtranCalls)),
        (
            "lp.iterations (gauge)",
            registry.gauge(Gauge::LpLastIterations),
        ),
        // L's off-diagonal count can legitimately be zero (tree bases
        // factor near-triangularly); U always carries the diagonal.
        (
            "lp.factor.nnz_u (gauge)",
            registry.gauge(Gauge::LpFactorNnzU),
        ),
        (
            "lp.solve_us (hist count)",
            registry.histogram(HistId::LpSolveUs).count(),
        ),
        ("lp.warm.* (classified)", warm_classified),
    ];
    for (name, value) in key_counters {
        if value == 0 {
            eprintln!("smoke-obs FAILED: {name} is zero after an instrumented s=400 solve");
            std::process::exit(1);
        }
    }
    println!(
        "s=400 instrumented solve: {} iterations, {} FTRANs, ftran skip ratio {:.3}",
        registry.gauge(Gauge::LpLastIterations),
        registry.counter(Counter::LpFtranCalls),
        1.0 - registry.counter(Counter::LpFtranInNnz) as f64
            / registry.counter(Counter::LpFtranDim).max(1) as f64,
    );

    // --- 2. Trace and metrics exports parse back. ---
    let trace = rp_obs::chrome_trace_json();
    let metrics = rp_obs::metrics_json();
    for (what, text, key) in [
        ("trace", &trace, "\"traceEvents\""),
        ("metrics", &metrics, "\"counters\""),
    ] {
        if !json_is_well_formed(text) || !text.contains(key) {
            eprintln!("smoke-obs FAILED: emitted {what} JSON is malformed or missing {key}");
            std::process::exit(1);
        }
    }
    if rp_obs::trace_event_count() == 0 {
        eprintln!("smoke-obs FAILED: the instrumented solve produced no trace events");
        std::process::exit(1);
    }
    println!(
        "exports round-trip: {} trace events, {} bytes of metrics JSON",
        rp_obs::trace_event_count(),
        metrics.len()
    );

    // --- 3. Off-mode overhead under the pinned budget. ---
    rp_obs::set_mode(rp_obs::ObsMode::Off);
    let off_ms = median_cold_solve_ms(&formulation.model, 7, "s=400 off-mode solve");
    let pinned_ms: f64 = std::env::var("RP_SMOKE_OBS_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let ceiling_ms = pinned_ms * 1.02;
    if off_ms > ceiling_ms {
        eprintln!(
            "smoke-obs FAILED: Off-mode s=400 solve took {off_ms:.2} ms, over the pinned \
             uninstrumented budget {pinned_ms} ms + 2% ({ceiling_ms:.2} ms)"
        );
        std::process::exit(1);
    }
    println!("Off-mode s=400 median {off_ms:.2} ms, within the pinned {pinned_ms} ms + 2% ceiling");
}

/// Writes `BENCH_obs.json`: the metrics-registry snapshot of one fully
/// instrumented representative workload (the smoke sweep plus the
/// bandwidth scenario sweep) — every counter, gauge and histogram in
/// the catalogue, so the telemetry trajectory is tracked across PRs
/// alongside the timing baselines.
fn write_obs_report(path: &str) {
    let json = obs_metrics_snapshot();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Runs the representative instrumented workload (the smoke sweep plus
/// the bandwidth scenario sweep) and returns the metrics-registry
/// snapshot as JSON — the payload of `BENCH_obs.json` and the "fresh
/// run" side of an obs-diff attribution.
fn obs_metrics_snapshot() -> String {
    use rp_experiments::scenarios::{ScenarioConfig, ScenarioFamily};

    let previous = rp_obs::mode();
    rp_obs::set_mode(rp_obs::ObsMode::Full);
    rp_obs::reset_all();
    rp_obs::clear_trace();
    let sweep = run_sweep(&ExperimentConfig::smoke_test());
    black_box(&sweep);
    let scenario = rp_experiments::scenarios::run_scenario(&ScenarioConfig::smoke_test(
        ScenarioFamily::Bandwidth,
    ));
    black_box(&scenario);
    let json = rp_obs::metrics_json();
    rp_obs::set_mode(previous);
    json
}

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
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((section.clone(), key.trim().to_string(), v));
        }
    }
    out
}

fn budget_value(budget: &[(String, String, f64)], key: &str) -> f64 {
    budget
        .iter()
        .find(|(_, k, _)| k == key)
        .map(|&(_, _, v)| v)
        .unwrap_or_else(|| {
            eprintln!("perf-budget.toml is missing the `{key}` ceiling");
            std::process::exit(1);
        })
}

/// Flattens a JSON document into dotted-path numeric leaves
/// (`counters` → `lp.solves` becomes `counters.lp.solves`). Strings,
/// booleans and nulls are skipped — a diff only ranks numbers. Arrays
/// index their elements (`path.0`, `path.1`, …). Hand-rolled like the
/// other parsers here: the inputs are the workspace's own exports.
/// Returns `None` on malformed input.
fn flatten_json_numbers(text: &str) -> Option<Vec<(String, f64)>> {
    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn string(&mut self) -> Option<String> {
            // Caller guarantees `bytes[pos] == b'"'`.
            self.pos += 1;
            let mut raw = Vec::new();
            loop {
                match self.bytes.get(self.pos)? {
                    b'"' => {
                        self.pos += 1;
                        return Some(String::from_utf8_lossy(&raw).into_owned());
                    }
                    b'\\' => {
                        // Keep the escaped byte verbatim — metric names
                        // never contain escapes, and skipped string
                        // values only need their closing quote found.
                        self.pos += 1;
                        raw.push(*self.bytes.get(self.pos)?);
                        self.pos += 1;
                    }
                    &b => {
                        raw.push(b);
                        self.pos += 1;
                    }
                }
            }
        }

        fn literal(&mut self, word: &str) -> Option<()> {
            let end = self.pos + word.len();
            if self.bytes.get(self.pos..end)? == word.as_bytes() {
                self.pos = end;
                Some(())
            } else {
                None
            }
        }

        fn value(&mut self, path: &str, out: &mut Vec<(String, f64)>) -> Option<()> {
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b'{' => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Some(());
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.literal(":")?;
                        let child = if path.is_empty() {
                            key
                        } else {
                            format!("{path}.{key}")
                        };
                        self.value(&child, out)?;
                        self.skip_ws();
                        match self.bytes.get(self.pos)? {
                            b',' => self.pos += 1,
                            b'}' => {
                                self.pos += 1;
                                return Some(());
                            }
                            _ => return None,
                        }
                    }
                }
                b'[' => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Some(());
                    }
                    let mut index = 0usize;
                    loop {
                        self.value(&format!("{path}.{index}"), out)?;
                        index += 1;
                        self.skip_ws();
                        match self.bytes.get(self.pos)? {
                            b',' => self.pos += 1,
                            b']' => {
                                self.pos += 1;
                                return Some(());
                            }
                            _ => return None,
                        }
                    }
                }
                b'"' => self.string().map(|_| ()),
                b't' => self.literal("true"),
                b'f' => self.literal("false"),
                b'n' => self.literal("null"),
                _ => {
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|b| {
                        matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    }) {
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                    let v: f64 = raw.parse().ok()?;
                    out.push((path.to_string(), v));
                    Some(())
                }
            }
        }
    }

    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = Vec::new();
    parser.value("", &mut out)?;
    parser.skip_ws();
    (parser.pos == parser.bytes.len()).then_some(out)
}

/// One metric that moved between two snapshots.
struct MetricDelta {
    name: String,
    old: Option<f64>,
    new: Option<f64>,
    /// Relative movement, `|new − old| / max(|old|, 1)` — the ranking
    /// key. Appearing or vanishing metrics score their absolute value.
    score: f64,
}

/// Diffs two flattened snapshots and ranks the movers, biggest first.
/// Metrics with identical values are dropped.
fn diff_ranked(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<MetricDelta> {
    let mut deltas: Vec<MetricDelta> = Vec::new();
    for (name, old_value) in old {
        let new_value = new.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        match new_value {
            Some(v) if v == *old_value => {}
            Some(v) => deltas.push(MetricDelta {
                name: name.clone(),
                old: Some(*old_value),
                new: Some(v),
                score: (v - old_value).abs() / old_value.abs().max(1.0),
            }),
            None => deltas.push(MetricDelta {
                name: name.clone(),
                old: Some(*old_value),
                new: None,
                score: old_value.abs().max(1.0),
            }),
        }
    }
    for (name, new_value) in new {
        if old.iter().all(|(n, _)| n != name) {
            deltas.push(MetricDelta {
                name: name.clone(),
                old: None,
                new: Some(*new_value),
                score: new_value.abs().max(1.0),
            });
        }
    }
    deltas.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.name.cmp(&b.name)));
    deltas
}

/// Renders an obs-diff attribution report: the top `top` movers between
/// two metrics-JSON snapshots, one per line, biggest relative move
/// first. This is what a `--check-budget` breach prints so the failure
/// names its culprit.
fn obs_diff_report(old_text: &str, new_text: &str, top: usize) -> Result<String, String> {
    let old = flatten_json_numbers(old_text).ok_or("old snapshot is not valid JSON")?;
    let new = flatten_json_numbers(new_text).ok_or("new snapshot is not valid JSON")?;
    let deltas = diff_ranked(&old, &new);
    let mut out = String::new();
    out.push_str(&format!(
        "obs-diff: {} of {} metrics moved (top {} below)\n",
        deltas.len(),
        old.len().max(new.len()),
        top.min(deltas.len())
    ));
    for delta in deltas.iter().take(top) {
        let line = match (delta.old, delta.new) {
            (Some(o), Some(n)) => {
                // Same denominator as the ranking score, so a counter
                // rising from zero reads `+4900.0%`, not `+inf%`.
                let pct = 100.0 * (n - o) / o.abs().max(1.0);
                format!("  {}: {o} -> {n} ({pct:+.1}%)\n", delta.name)
            }
            (None, Some(n)) => format!("  {}: (new) -> {n}\n", delta.name),
            (Some(o), None) => format!("  {}: {o} -> (gone)\n", delta.name),
            (None, None) => continue,
        };
        out.push_str(&line);
    }
    if deltas.is_empty() {
        out.push_str("  (snapshots are numerically identical)\n");
    }
    Ok(out)
}

/// The `obs-diff` CLI mode: compares `old_path` against `new_path`, or
/// — when `new_path` is absent — against a fresh run of the
/// representative instrumented workload.
fn obs_diff(old_path: &str, new_path: Option<&str>) {
    let old_text = std::fs::read_to_string(old_path).unwrap_or_else(|e| {
        eprintln!("cannot read {old_path}: {e}");
        std::process::exit(1);
    });
    let new_text = match new_path {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => {
            eprintln!("(no second snapshot given: diffing {old_path} against a fresh run)");
            obs_metrics_snapshot()
        }
    };
    match obs_diff_report(&old_text, &new_text, 25) {
        Ok(report) => print!("{report}"),
        Err(error) => {
            eprintln!("obs-diff FAILED: {error}");
            std::process::exit(1);
        }
    }
}

/// The perf-regression gate (CI): measures the ceilings pinned in
/// `perf-budget.toml` and fails the build on any breach.
///
/// * `s400_bound_ms` — median cold `s = 400` rational-bound solve;
/// * `s2000_bound_ms` / `s2000_iterations_max` — the multi-thousand-row
///   bandwidth bound's wall time and simplex iteration count;
/// * `warm_hit_rate_min` — sibling re-solves (same matrix, shifted
///   right-hand sides) must ride the warm path, not fall back cold;
/// * `hardened_dense_fallbacks_max` — a healthy instance must be
///   answered by the checked revised rung, never the dense oracle;
/// * `obs_phase_coverage_min` — the phase profiler's per-phase wall
///   times must account for most of an instrumented solve.
///
/// `section` restricts the run to one `[section]` of the budget file
/// (`lp` / `warm` / `hardened` / `obs`) — re-measuring one breached
/// ceiling no longer pays for every other measurement.
///
/// On any breach the gate names the culprit before exiting non-zero:
/// it re-runs the representative instrumented workload, diffs the
/// fresh counters against the checked-in `BENCH_obs.json`, prints the
/// top movers, and leaves `obs-breach.metrics.json`,
/// `obs-breach.diff.txt` and `obs-breach.flight.jsonl` behind for CI
/// to upload.
fn check_budget(budget_path: &str, section: Option<&str>) {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{solve_lp_hardened, LpWorkspace, RevisedWorkspace, SimplexOptions, Status};
    use rp_obs::Counter;
    use rp_workloads::scenarios::{bandwidth_scale_instance, feasible_bandwidth_instance};

    const SECTIONS: [&str; 4] = ["lp", "warm", "hardened", "obs"];
    if let Some(name) = section {
        if !SECTIONS.contains(&name) {
            eprintln!(
                "unknown budget section `{name}` (expected one of: {})",
                SECTIONS.join(", ")
            );
            std::process::exit(1);
        }
        println!("checking only the [{name}] section of {budget_path}");
    }
    let run = |name: &str| section.is_none_or(|s| s == name);

    let text = std::fs::read_to_string(budget_path).unwrap_or_else(|e| {
        eprintln!("cannot read {budget_path}: {e}");
        std::process::exit(1);
    });
    let budget = parse_budget(&text);
    rp_obs::set_mode(rp_obs::ObsMode::Counters);
    rp_obs::reset_all();
    let options = SimplexOptions::default();
    let mut failures = 0usize;
    let mut check = |name: &str, value: f64, ceiling: f64, higher_is_better: bool| {
        let ok = if higher_is_better {
            value >= ceiling
        } else {
            value <= ceiling
        };
        let verdict = if ok { "ok" } else { "BREACH" };
        let bound = if higher_is_better { "floor" } else { "ceiling" };
        println!("{verdict:>7}  {name} = {value:.2} ({bound} {ceiling})");
        if !ok {
            failures += 1;
        }
    };

    if run("lp") {
        // --- s = 400 paper-scale bound wall time. ---
        let problem = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let ms = median_cold_solve_ms(&formulation.model, 5, "s=400 budget solve");
        check(
            "s400_bound_ms",
            ms,
            budget_value(&budget, "s400_bound_ms"),
            false,
        );

        // --- s = 2000 bandwidth bound: wall time and iterations. ---
        let problem = bandwidth_scale_instance(0.2, 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let mut workspace = RevisedWorkspace::new();
        let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
        if solution.status != Status::Optimal {
            eprintln!("s=2000 budget solve FAILED: status {}", solution.status);
            std::process::exit(1);
        }
        check(
            "s2000_bound_ms",
            ns / 1e6,
            budget_value(&budget, "s2000_bound_ms"),
            false,
        );
        check(
            "s2000_iterations_max",
            workspace.last_stats().iterations() as f64,
            budget_value(&budget, "s2000_iterations_max"),
            false,
        );
    }

    if run("warm") {
        // --- Warm-start hit rate over sibling re-solves. ---
        rp_obs::reset_all();
        let problem = feasible_bandwidth_instance(120, 0.4, 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let mut model = formulation.model;
        let mut workspace = RevisedWorkspace::new();
        workspace.solve_warm(&model, &options);
        let constraints: Vec<_> = model.constraint_ids().collect();
        for step in 1..=9 {
            // Perturb one right-hand side per sibling: the matrix — and
            // so the warm path's validity check — stays identical.
            let id = constraints[step % constraints.len()];
            let rhs = model.constraint(id).rhs;
            model.set_rhs(id, rhs + 1.0);
            workspace.solve_warm(&model, &options);
        }
        check(
            "warm_hit_rate_min",
            rp_obs::global().warm_start_rate(),
            budget_value(&budget, "warm_hit_rate_min"),
            true,
        );
    }

    if run("hardened") {
        // --- Hardened ladder on a healthy instance. ---
        rp_obs::reset_all();
        let problem = feasible_bandwidth_instance(120, 0.4, 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let mut engine_workspace = LpWorkspace::default();
        match solve_lp_hardened(&formulation.model, &options, &mut engine_workspace) {
            Ok(hardened) => {
                println!(
                    "         (healthy s=120 answered by the {} rung)",
                    hardened.rung
                );
            }
            Err(error) => {
                eprintln!("hardened budget solve FAILED: {error}");
                std::process::exit(1);
            }
        }
        let registry = rp_obs::global();
        check(
            "hardened_dense_fallbacks_max",
            (registry.counter(Counter::LpHardenedDenseFallback)
                + registry.counter(Counter::LpHardenedError)) as f64,
            budget_value(&budget, "hardened_dense_fallbacks_max"),
            false,
        );
    }

    if run("obs") {
        // --- Phase-profiler coverage on the s = 2000 bandwidth bound:
        // the per-phase wall times must account for most of the solve,
        // or the attribution (and every obs-diff built on it) is
        // watching a minority of the work. ---
        rp_obs::reset_all();
        let problem = bandwidth_scale_instance(0.2, 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let mut workspace = RevisedWorkspace::new();
        let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
        if solution.status != Status::Optimal {
            eprintln!(
                "s=2000 obs-coverage solve FAILED: status {}",
                solution.status
            );
            std::process::exit(1);
        }
        let phases = workspace.last_stats().phases;
        check(
            "obs_phase_coverage_min",
            phases.total_nanos() as f64 / ns.max(1.0),
            budget_value(&budget, "obs_phase_coverage_min"),
            true,
        );
    }

    if failures > 0 {
        eprintln!("{failures} perf-budget ceiling(s) breached (see {budget_path})");
        // Name the culprit: snapshot the representative instrumented
        // workload, rank its counters against the checked-in reference,
        // and leave the evidence on disk for CI to upload.
        let snapshot = obs_metrics_snapshot();
        write_breach_artifact("obs-breach.metrics.json", &snapshot);
        match std::fs::read_to_string("BENCH_obs.json") {
            Ok(reference) => match obs_diff_report(&reference, &snapshot, 10) {
                Ok(report) => {
                    eprint!("top movers vs BENCH_obs.json:\n{report}");
                    write_breach_artifact("obs-breach.diff.txt", &report);
                }
                Err(error) => eprintln!("(obs-diff attribution failed: {error})"),
            },
            Err(_) => {
                eprintln!("(no BENCH_obs.json reference here; skipping the obs-diff attribution)");
            }
        }
        let dump = rp_obs::flight_snapshot("budget_breach");
        write_breach_artifact("obs-breach.flight.jsonl", &dump);
        std::process::exit(1);
    }
    println!("all perf-budget ceilings hold ({budget_path})");
}

/// Best-effort write of a breach artifact — attribution must never mask
/// the original budget failure, so write errors only warn.
fn write_breach_artifact(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(error) => eprintln!("(cannot write {path}: {error})"),
    }
}

/// Writes `BENCH_failures.json`: the resilience trajectory — per
/// heuristic candidate the survival rate, mean served fraction, cost
/// delta of surviving repairs, and mean/p99 repair latency under the
/// default 200-trial single-failure chaos sweep. The sweep's base seed
/// is recorded in the file, so every number is reproducible from it.
/// Any outcome failing its machine check aborts the report non-zero.
fn write_failures_report(path: &str) {
    use rp_experiments::{run_resilience, ResilienceConfig};

    let config = ResilienceConfig::new();
    let results = run_resilience(&config);
    let unverified = results.total_unverified();
    if unverified > 0 {
        eprintln!("resilience sweep produced {unverified} UNVERIFIED repair outcome(s)");
        std::process::exit(1);
    }
    let mut entries: Vec<(String, f64)> = vec![
        ("config/seed".to_string(), config.seed as f64),
        ("config/trials".to_string(), config.trials as f64),
        (
            "config/problem_size".to_string(),
            config.problem_size as f64,
        ),
    ];
    for summary in results.summaries() {
        let name = summary.heuristic.acronym();
        entries.push((
            format!("survival_pct/{name}"),
            100.0 * summary.survival_rate,
        ));
        entries.push((
            format!("served_pct/{name}"),
            100.0 * summary.mean_served_fraction,
        ));
        if let Some(delta) = summary.mean_cost_delta_pct {
            entries.push((format!("cost_delta_pct/{name}"), delta));
        }
        entries.push((format!("repair_mean_ms/{name}"), summary.mean_repair_ms));
        entries.push((format!("repair_p99_ms/{name}"), summary.p99_repair_ms));
        entries.push((
            format!("base_fail/{name}"),
            summary.baseline_failures as f64,
        ));
    }

    entries.retain(|(name, value)| {
        let keep = value.is_finite();
        if !keep {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
        keep
    });
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    s.push_str(
        "  \"units\": \"*_pct = percent, *_ms = wall-clock ms per repair; config/seed \
         reproduces the whole sweep\",\n",
    );
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{s}");
    eprintln!("wrote {path}");
}

/// Writes `BENCH_online.json`: the online-engine churn trajectory at
/// `s = 2000` — per policy the sustained re-placements per second, the
/// p50/p99/mean apply latency and the escalation-rung counters under
/// the default 2000-delta / 50 ms-per-delta sweep. The base seed is
/// recorded in the file, so every number is reproducible from it. Any
/// incumbent failing its machine check aborts the report non-zero.
fn write_online_report(path: &str) {
    use rp_experiments::churn::{run_churn, ChurnRunConfig};

    let mut config = ChurnRunConfig::new();
    config.problem_size = 2000;
    let results = run_churn(&config);
    let unverified = results.total_unverified();
    if unverified > 0 {
        eprintln!("churn sweep produced {unverified} UNVERIFIED incumbent(s)");
        std::process::exit(1);
    }
    let mut entries: Vec<(String, f64)> = vec![
        ("config/seed".to_string(), config.seed as f64),
        ("config/deltas".to_string(), config.deltas as f64),
        (
            "config/problem_size".to_string(),
            config.problem_size as f64,
        ),
        (
            "config/budget_ms".to_string(),
            config.budget_ms.map(|ms| ms as f64).unwrap_or(-1.0),
        ),
    ];
    for outcome in &results.per_policy {
        let name = outcome.policy.to_string();
        entries.push((format!("repl_per_sec/{name}"), outcome.replacements_per_sec));
        entries.push((format!("apply_p50_ms/{name}"), outcome.p50_ms));
        entries.push((format!("apply_p99_ms/{name}"), outcome.p99_ms));
        entries.push((format!("apply_mean_ms/{name}"), outcome.mean_ms));
        entries.push((format!("applied/{name}"), outcome.applied as f64));
        entries.push((format!("degraded/{name}"), outcome.degraded as f64));
        entries.push((format!("deferred/{name}"), outcome.deferred as f64));
        entries.push((
            format!("rung_surgical/{name}"),
            outcome.rungs.surgical as f64,
        ));
        entries.push((
            format!("rung_lp_repair/{name}"),
            outcome.rungs.lp_repair as f64,
        ));
        entries.push((format!("rung_rerun/{name}"), outcome.rungs.rerun as f64));
        entries.push((
            format!("rung_degraded/{name}"),
            outcome.rungs.degraded as f64,
        ));
    }

    entries.retain(|(name, value)| {
        let keep = value.is_finite();
        if !keep {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
        keep
    });
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    s.push_str(
        "  \"units\": \"repl_per_sec = absorbed deltas per wall second, apply_*_ms = \
         wall-clock ms per apply, the rest are counts; config/seed reproduces the sweep\",\n",
    );
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.3}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{s}");
    eprintln!("wrote {path}");
}

/// Writes `BENCH_heuristics.json`: the LP-guided rounding trajectory —
/// per family the cost-vs-LP gap (percent) and the end-to-end wall
/// clock (LP solve + rounding + repair + pruning), next to the classic
/// ensemble (bandwidth-repaired Section 6 heuristics / validated
/// sequential greedy) for the same instances.
fn write_heuristics_report(path: &str) {
    use rp_core::heuristics::lp_guided::{lp_guided_multi_with, lp_guided_with, BandwidthRepair};
    use rp_core::ilp::{multi_lower_bound, BoundKind};
    use rp_core::multi::{solve_multi_greedy, MultiGreedyOptions};
    use rp_core::Policy;
    use rp_workloads::scenarios::{
        feasible_bandwidth_instance, ill_scaled_bandwidth_instance, multi_object_counting_instance,
        multi_object_instance,
    };

    let options = IlpOptions::with_engine(LpEngine::Revised);
    let mut entries: Vec<(String, f64)> = Vec::new();
    let gap_pct = |cost: u64, bound: f64| 100.0 * (cost as f64 / bound.max(1e-9) - 1.0);

    for (size, family, problem) in [
        (
            120usize,
            "bandwidth",
            feasible_bandwidth_instance(120, 0.4, 31),
        ),
        (400, "bandwidth", feasible_bandwidth_instance(400, 0.4, 31)),
        (
            200,
            "bandwidth_ill",
            ill_scaled_bandwidth_instance(200, 0.4, 7),
        ),
    ] {
        let Some(bound) = lower_bound(&problem, BoundKind::Rational) else {
            continue;
        };
        let (ns, rounded) = time_once(|| lp_guided_with(&problem, &options));
        if let Some(placement) = rounded {
            entries.push((
                format!("lp_guided/{family}/s{size}_gap_pct"),
                gap_pct(placement.cost(&problem), bound),
            ));
            entries.push((format!("lp_guided/{family}/s{size}_ms"), ns / 1e6));
        }
        let (ns, classic) = time_once(|| {
            rp_core::Heuristic::BASE
                .iter()
                .filter_map(|&h| BandwidthRepair(h).run(&problem).map(|p| p.cost(&problem)))
                .min()
        });
        if let Some(cost) = classic {
            entries.push((
                format!("classic_repair/{family}/s{size}_gap_pct"),
                gap_pct(cost, bound),
            ));
            entries.push((format!("classic_repair/{family}/s{size}_ms"), ns / 1e6));
        }
    }

    // The counting 2-object family, where the rational bound gap is
    // dominated by heuristic quality rather than the intrinsic
    // multi-object integrality gap of the jittered-cost family.
    for size in [120usize, 200] {
        let problem = multi_object_counting_instance(size, 2, 0.4, 11);
        let Some(bound) = multi_lower_bound(&problem, BoundKind::Rational) else {
            continue;
        };
        let (ns, rounded) = time_once(|| lp_guided_multi_with(&problem, &options));
        if let Some(placement) = rounded {
            entries.push((
                format!("lp_guided/multi_counting/s{size}_gap_pct"),
                gap_pct(placement.cost(&problem), bound),
            ));
            entries.push((format!("lp_guided/multi_counting/s{size}_ms"), ns / 1e6));
        }
    }

    for (objects, size) in [(2usize, 120usize), (4, 120), (2, 400)] {
        let problem = multi_object_instance(size, objects, 0.4, 11);
        let Some(bound) = multi_lower_bound(&problem, BoundKind::Rational) else {
            continue;
        };
        let (ns, rounded) = time_once(|| lp_guided_multi_with(&problem, &options));
        if let Some(placement) = rounded {
            entries.push((
                format!("lp_guided/multi_{objects}obj/s{size}_gap_pct"),
                gap_pct(placement.cost(&problem), bound),
            ));
            entries.push((format!("lp_guided/multi_{objects}obj/s{size}_ms"), ns / 1e6));
        }
        let (ns, greedy) = time_once(|| {
            solve_multi_greedy(&problem, &MultiGreedyOptions::default())
                .filter(|p| p.is_valid(&problem, Policy::Multiple))
                .map(|p| p.cost(&problem))
        });
        if let Some(cost) = greedy {
            entries.push((
                format!("greedy/multi_{objects}obj/s{size}_gap_pct"),
                gap_pct(cost, bound),
            ));
            entries.push((format!("greedy/multi_{objects}obj/s{size}_ms"), ns / 1e6));
        }
    }

    entries.retain(|(name, value)| {
        let keep = value.is_finite();
        if !keep {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
        keep
    });
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    s.push_str(
        "  \"units\": \"*_gap_pct = 100*(cost/LP bound - 1), *_ms = wall-clock ms for the \
         whole candidate (LP solve + rounding where applicable)\",\n",
    );
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{s}");
    eprintln!("wrote {path}");
}

/// Writes `BENCH_scenarios.json`: the bandwidth-constrained and
/// multi-object formulation trajectory — solve times and iteration
/// counts per family and scale, the ill-scaled family included.
fn write_scenarios_report(path: &str) {
    use rp_core::ilp::{build_model, build_multi_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{RevisedWorkspace, SimplexOptions, Status};
    use rp_workloads::scenarios::{
        bandwidth_scale_instance, feasible_bandwidth_instance, ill_scaled_bandwidth_instance,
        multi_object_bandwidth_instance, multi_object_instance,
    };

    let mut entries: Vec<(String, f64)> = Vec::new();
    let options = SimplexOptions::default();
    let mut workspace = RevisedWorkspace::new();

    // Bandwidth-constrained LP bound across scales, on the
    // guaranteed-feasible headroom family so the timings always
    // describe a completed solve.
    for size in [120usize, 400] {
        let problem = feasible_bandwidth_instance(size, 0.4, 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        workspace.invalidate();
        let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
        if solution.status == Status::Optimal {
            entries.push((format!("bandwidth_lp/s{size}_ms"), ns / 1e6));
            entries.push((
                format!("bandwidth_lp/s{size}_iters"),
                workspace.last_stats().iterations() as f64,
            ));
            entries.push((
                format!("bandwidth_lp/s{size}_rows"),
                formulation.model.num_constraints() as f64,
            ));
        }
    }

    // The s = 2000 class (ill-scaled wide-range platform).
    let problem = bandwidth_scale_instance(0.2, 31);
    let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
    workspace.invalidate();
    let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
    if solution.status == Status::Optimal {
        entries.push(("bandwidth_lp/s2000_ms".to_string(), ns / 1e6));
        entries.push((
            "bandwidth_lp/s2000_iters".to_string(),
            workspace.last_stats().iterations() as f64,
        ));
        entries.push((
            "bandwidth_lp/s2000_rows".to_string(),
            formulation.model.num_constraints() as f64,
        ));
        entries.push((
            "bandwidth_lp/s2000_cols".to_string(),
            formulation.model.num_vars() as f64,
        ));
    }

    // The ill-scaled family (five-decade capacities, entry spread
    // ~2e5).
    let problem = ill_scaled_bandwidth_instance(200, 0.4, 7);
    let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
    workspace.invalidate();
    let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
    if solution.status == Status::Optimal {
        entries.push(("bandwidth_ill_lp/s200_ms".to_string(), ns / 1e6));
        entries.push((
            "bandwidth_ill_lp/s200_iters".to_string(),
            workspace.last_stats().iterations() as f64,
        ));
    }

    // Multi-object bounds: shared capacities, then shared links too.
    for (objects, size) in [(2usize, 120usize), (4, 120), (4, 400)] {
        let problem = multi_object_instance(size, objects, 0.4, 11);
        let formulation = build_multi_model(&problem, Integrality::RationalBound);
        workspace.invalidate();
        let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
        if solution.status == Status::Optimal {
            entries.push((format!("multi_lp/{objects}obj_s{size}_ms"), ns / 1e6));
            entries.push((
                format!("multi_lp/{objects}obj_s{size}_iters"),
                workspace.last_stats().iterations() as f64,
            ));
        }
    }
    let problem = multi_object_bandwidth_instance(120, 3, 0.4, 11);
    let formulation = build_multi_model(&problem, Integrality::RationalBound);
    workspace.invalidate();
    let (ns, solution) = time_once(|| workspace.solve_warm(&formulation.model, &options));
    if solution.status == Status::Optimal {
        entries.push(("multi_lp/3obj_s120_bandwidth_ms".to_string(), ns / 1e6));
        entries.push((
            "multi_lp/3obj_s120_bandwidth_rows".to_string(),
            formulation.model.num_constraints() as f64,
        ));
    }

    entries.retain(|(name, value)| {
        let keep = value.is_finite();
        if !keep {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
        keep
    });
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    s.push_str("  \"units\": \"*_ms = wall-clock ms (one shot), *_iters = simplex iterations\",\n");
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{s}");
    eprintln!("wrote {path}");
}

/// Writes `BENCH_revised.json`: dense-tableau vs revised-simplex
/// timings, at three levels —
///
/// * `lp_solve/*` — the pure solver on a prebuilt Multiple relaxation
///   with a reused workspace (the `lp_solver` criterion bench's
///   setting; this is the apples-to-apples engine comparison);
/// * `lp_rational_bound/*` — the full Section 7.1 bound path
///   (formulation build + solve), what the sweep actually pays;
/// * `milp_mixed_bound/*` — the capped mixed bound, where the revised
///   engine's warm-started branch-and-bound nodes pay off;
///
/// plus the paper-scale `s = 400` bound under **both** engines (one
/// shot each — the dense tableau needs hundreds of milliseconds there,
/// which is exactly why the revised engine exists).
fn write_revised_report(path: &str) {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{solve_lp_reusing, RevisedWorkspace, SimplexOptions, SimplexWorkspace};

    let mut entries: Vec<(String, f64)> = Vec::new();
    for size in [20usize, 40, 80, 120] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);

        // Solver-level comparison on the prebuilt relaxation.
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let options = SimplexOptions::default();
        let mut dense_ws = SimplexWorkspace::new();
        let dense_solve = time_ns(|| {
            black_box(solve_lp_reusing(
                black_box(&formulation.model),
                &options,
                &mut dense_ws,
            ));
        });
        let mut revised_ws = RevisedWorkspace::new();
        let revised_solve = time_ns(|| {
            black_box(revised_ws.solve_warm(black_box(&formulation.model), &options));
        });
        entries.push((format!("lp_solve/dense/{size}"), dense_solve));
        entries.push((format!("lp_solve/revised/{size}"), revised_solve));
        entries.push((
            format!("speedup/lp_solve/{size}"),
            dense_solve / revised_solve,
        ));

        // Full bound path (build + solve).
        let dense_opts = IlpOptions::with_engine(LpEngine::DenseTableau);
        let revised_opts = IlpOptions::with_engine(LpEngine::Revised);
        let dense = time_ns(|| {
            black_box(lower_bound_with(
                black_box(&problem),
                BoundKind::Rational,
                &dense_opts,
            ));
        });
        let revised = time_ns(|| {
            black_box(lower_bound_with(
                black_box(&problem),
                BoundKind::Rational,
                &revised_opts,
            ));
        });
        entries.push((format!("lp_rational_bound/dense/{size}"), dense));
        entries.push((format!("lp_rational_bound/revised/{size}"), revised));
        entries.push((format!("speedup/lp_rational_bound/{size}"), dense / revised));

        // Warm-started mixed bound (capped) under both engines; the
        // larger sizes explore enough nodes to show the warm-start win.
        if size <= 40 {
            let cap = |engine| IlpOptions {
                branch_bound: BranchBoundOptions {
                    max_nodes: 100,
                    engine,
                    ..BranchBoundOptions::default()
                },
            };
            let dense_milp = time_ns(|| {
                black_box(lower_bound_with(
                    black_box(&problem),
                    BoundKind::Mixed,
                    &cap(LpEngine::DenseTableau),
                ));
            });
            let revised_milp = time_ns(|| {
                black_box(lower_bound_with(
                    black_box(&problem),
                    BoundKind::Mixed,
                    &cap(LpEngine::Revised),
                ));
            });
            entries.push((format!("milp_mixed_bound/dense/{size}"), dense_milp));
            entries.push((format!("milp_mixed_bound/revised/{size}"), revised_milp));
            entries.push((
                format!("speedup/milp_mixed_bound/{size}"),
                dense_milp / revised_milp,
            ));
        }
    }
    // Paper scale, one shot per engine.
    {
        let problem = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31);
        let revised_opts = IlpOptions::with_engine(LpEngine::Revised);
        let (revised_ns, bound) =
            time_once(|| lower_bound_with(&problem, BoundKind::Rational, &revised_opts));
        let dense_opts = IlpOptions::with_engine(LpEngine::DenseTableau);
        let (dense_ns, _) =
            time_once(|| lower_bound_with(&problem, BoundKind::Rational, &dense_opts));
        entries.push(("lp_rational_bound/dense/400_ms".to_string(), dense_ns / 1e6));
        entries.push((
            "lp_rational_bound/revised/400_ms".to_string(),
            revised_ns / 1e6,
        ));
        entries.push((
            "speedup/lp_rational_bound/400".to_string(),
            dense_ns / revised_ns,
        ));
        entries.push((
            "lp_rational_bound/revised/400_value".to_string(),
            bound.unwrap_or(f64::NAN),
        ));
    }

    // A failed solve or a zero-duration timing would produce NaN/inf,
    // which are not valid JSON literals — drop such entries instead of
    // corrupting the whole report.
    entries.retain(|(name, value)| {
        let keep = value.is_finite();
        if !keep {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
        keep
    });
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    s.push_str("  \"units\": \"ns per op unless the metric name says otherwise; speedup/* = dense over revised\",\n");
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{s}");
    eprintln!("wrote {path}");
}

/// Writes `BENCH_sparse.json`: the sparse-LU / Forrest–Tomlin
/// trajectory of the revised engine —
///
/// * `lp_solve/{dense,revised}/<s>` — cold engine-to-engine solve
///   comparison on prebuilt Multiple relaxations (the apples-to-apples
///   setting `BENCH_revised.json` used, so
///   `speedup_vs_dense_lu/lp_solve/<s>` can be computed against the
///   recorded dense-LU numbers when that file is present);
/// * `lp_resolve_warm/<s>` — the sibling fast path: re-solving the same
///   matrix after an objective/rhs refresh (refactorisation + cleanup
///   pivots only), what the λ-sharded sweep pays per sibling trial;
/// * `iters/<s>` — simplex iterations of the cold solve at
///   `s = 80..2000`;
/// * `factor/{m,nnz_l,nnz_u}/<s>`, `factor/refactor_ns/<s>`,
///   `ftran_ns/<s>`, `btran_ns/<s>` — factor sparsity and the
///   nnz-scaling of one Markowitz refactorisation and of hyper-sparse
///   unit solves;
/// * `lp_rational_bound/revised/{400,2000}_ms` — one-shot paper-scale
///   and multi-thousand-row bound solves (the dense tableau is not run
///   at these sizes; the s = 400 reference lives in
///   `BENCH_revised.json`).
fn write_sparse_report(path: &str) {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_lp::{RevisedWorkspace, SimplexOptions, SimplexWorkspace, Status};
    use rp_workloads::platform::paper_scale_instance_sized;

    let reference = std::fs::read_to_string("BENCH_revised.json")
        .map(|text| parse_metrics(&text))
        .unwrap_or_default();
    let mut entries: Vec<(String, f64)> = Vec::new();

    let options = SimplexOptions::default();
    // A cold solve on a reused workspace (buffers kept, basis dropped).
    let solve_cold = |ws: &mut RevisedWorkspace, model: &rp_lp::Model| {
        ws.invalidate();
        ws.solve_warm(model, &options)
    };

    for size in [20usize, 40, 80, 120] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let model = &formulation.model;

        let mut dense_ws = SimplexWorkspace::new();
        let dense_solve = time_ns(|| {
            black_box(rp_lp::solve_lp_reusing(
                black_box(model),
                &options,
                &mut dense_ws,
            ));
        });
        let mut ws = RevisedWorkspace::new();
        let revised_solve = time_ns(|| {
            black_box(solve_cold(&mut ws, black_box(model)));
        });
        entries.push((format!("lp_solve/dense/{size}"), dense_solve));
        entries.push((format!("lp_solve/revised/{size}"), revised_solve));
        entries.push((
            format!("speedup/lp_solve/{size}"),
            dense_solve / revised_solve,
        ));
        if let Some((_, old)) = reference
            .iter()
            .find(|(name, _)| name == &format!("lp_solve/revised/{size}"))
        {
            entries.push((
                format!("speedup_vs_dense_lu/lp_solve/{size}"),
                old / revised_solve,
            ));
        }
        // The sibling fast path: same matrix, refreshed data.
        let warm_solve = time_ns(|| {
            black_box(ws.solve_warm(black_box(model), &options));
        });
        entries.push((format!("lp_resolve_warm/{size}"), warm_solve));

        if size >= 80 {
            solve_cold(&mut ws, model);
            let iters = ws.last_stats().iterations();
            entries.push((format!("iters/{size}"), iters as f64));
            let (lnnz, unnz) = ws.factor_nnz();
            entries.push((format!("factor/m/{size}"), model.num_constraints() as f64));
            entries.push((format!("factor/nnz_l/{size}"), lnnz as f64));
            entries.push((format!("factor/nnz_u/{size}"), unnz as f64));
            let refactor_ns = time_ns(|| {
                black_box(ws.bench_refactor());
            });
            entries.push((format!("factor/refactor_ns/{size}"), refactor_ns));
            let mut unit = 0usize;
            let ftran_ns = time_ns(|| {
                ws.bench_ftran_unit(black_box(unit));
                unit = unit.wrapping_add(1);
            });
            entries.push((format!("ftran_ns/{size}"), ftran_ns));
            let btran_ns = time_ns(|| {
                ws.bench_btran_unit(black_box(unit));
                unit = unit.wrapping_add(1);
            });
            entries.push((format!("btran_ns/{size}"), btran_ns));
        }
    }

    // Paper scale (s = 400) and a multi-thousand-row scenario — only
    // the sparse-LU engine is run at these sizes. The `_ms` metric is a
    // one-shot `lower_bound` (formulation build + solve), matching how
    // `BENCH_revised.json` recorded the dense-LU engine; `_solve_ms` is
    // the warm-cache median of the solve alone.
    for (s, label) in [(400usize, "400"), (2000usize, "2000")] {
        let problem = paper_scale_instance_sized(s, PlatformKind::default_heterogeneous(), 0.4, 31);
        let revised_opts = IlpOptions::with_engine(LpEngine::Revised);
        let (bound_ns, bound) =
            time_once(|| lower_bound_with(&problem, BoundKind::Rational, &revised_opts));
        if let Some(bound) = bound {
            entries.push((
                format!("lp_rational_bound/revised/{label}_ms"),
                bound_ns / 1e6,
            ));
            entries.push((format!("lp_rational_bound/revised/{label}_bound"), bound));
        }
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        let model = &formulation.model;
        let mut ws = RevisedWorkspace::new();
        let (_, solution) = time_once(|| solve_cold(&mut ws, model));
        if solution.status != Status::Optimal {
            eprintln!("s={s} revised solve failed: {}", solution.status);
            continue;
        }
        let iters = ws.last_stats().iterations();
        let solve_ns = time_ns(|| {
            black_box(solve_cold(&mut ws, black_box(model)));
        });
        entries.push((format!("lp_solve_ms/revised/{label}"), solve_ns / 1e6));
        // The sibling fast path the λ-sharded sweep pays: re-solving
        // the same matrix after a data refresh.
        solve_cold(&mut ws, model);
        let warm_ns = time_ns(|| {
            black_box(ws.solve_warm(black_box(model), &options));
        });
        entries.push((format!("lp_resolve_warm_ms/{label}"), warm_ns / 1e6));
        entries.push((format!("speedup/sibling_warm/{label}"), solve_ns / warm_ns));
        entries.push((
            format!("lp_rational_bound/revised/{label}_value"),
            solution.objective,
        ));
        entries.push((format!("iters/{label}"), iters as f64));
        let (lnnz, unnz) = ws.factor_nnz();
        entries.push((format!("factor/m/{label}"), model.num_constraints() as f64));
        entries.push((format!("factor/nnz_l/{label}"), lnnz as f64));
        entries.push((format!("factor/nnz_u/{label}"), unnz as f64));
        let refactor_ns = time_ns(|| {
            black_box(ws.bench_refactor());
        });
        entries.push((format!("factor/refactor_ns/{label}"), refactor_ns));
        let mut unit = 0usize;
        let ftran_ns = time_ns(|| {
            ws.bench_ftran_unit(black_box(unit));
            unit = unit.wrapping_add(1);
        });
        entries.push((format!("ftran_ns/{label}"), ftran_ns));
        let btran_ns = time_ns(|| {
            ws.bench_btran_unit(black_box(unit));
            unit = unit.wrapping_add(1);
        });
        entries.push((format!("btran_ns/{label}"), btran_ns));
        if s == 400 {
            // Like-for-like against the recorded dense-LU engine: both
            // sides are one-shot `lower_bound` runs (build + solve).
            if let Some((_, old_ms)) = reference
                .iter()
                .find(|(name, _)| name == "lp_rational_bound/revised/400_ms")
            {
                entries.push((
                    "speedup_vs_dense_lu/lp_rational_bound/400".to_string(),
                    old_ms / (bound_ns / 1e6),
                ));
            }
        }
    }

    entries.retain(|(name, value)| {
        let keep = value.is_finite();
        if !keep {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
        keep
    });
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    s.push_str("  \"units\": \"ns per op unless the metric name says otherwise; speedup_vs_dense_lu/* = PR2 dense-LU revised engine over this sparse-LU engine\",\n");
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{s}");
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut output = String::from("BENCH_baseline.json");
    let mut revised_output = String::from("BENCH_revised.json");
    let mut sparse_output = String::from("BENCH_sparse.json");
    let mut scenarios_output = String::from("BENCH_scenarios.json");
    let mut heuristics_output = String::from("BENCH_heuristics.json");
    let mut failures_output = String::from("BENCH_failures.json");
    let mut online_output = String::from("BENCH_online.json");
    let mut obs_output = String::from("BENCH_obs.json");
    let mut compare: Option<String> = None;
    let mut sparse_only = false;
    let mut scenarios_only = false;
    let mut heuristics_only = false;
    let mut failures_only = false;
    let mut online_only = false;
    let mut obs_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                compare = args.get(i + 1).cloned();
                i += 2;
            }
            "--smoke-revised" => {
                smoke_revised();
                return;
            }
            "--smoke-bandwidth" => {
                smoke_bandwidth();
                return;
            }
            "--smoke-heuristics" => {
                smoke_heuristics();
                return;
            }
            "--smoke-failures" => {
                smoke_failures();
                return;
            }
            "--smoke-online" => {
                smoke_online();
                return;
            }
            "--smoke-obs" => {
                smoke_obs();
                return;
            }
            "--check-budget" => {
                // Up to two operands, in either order: a budget file
                // (recognised by its `.toml` suffix, default
                // `perf-budget.toml`) and a section filter
                // (`--check-budget lp` re-measures only `[lp]`).
                let mut path: Option<String> = None;
                let mut filter: Option<String> = None;
                for arg in args.iter().skip(i + 1).take(2) {
                    if arg.starts_with("--") {
                        break;
                    }
                    if arg.ends_with(".toml") {
                        path = Some(arg.clone());
                    } else {
                        filter = Some(arg.clone());
                    }
                }
                let path = path.unwrap_or_else(|| "perf-budget.toml".to_string());
                check_budget(&path, filter.as_deref());
                return;
            }
            "--obs-diff" => {
                let old_path = args.get(i + 1).filter(|p| !p.starts_with("--")).cloned();
                let new_path = args.get(i + 2).filter(|p| !p.starts_with("--")).cloned();
                let Some(old_path) = old_path else {
                    eprintln!("--obs-diff needs at least one snapshot path (old [new])");
                    std::process::exit(1);
                };
                obs_diff(&old_path, new_path.as_deref());
                return;
            }
            "--sparse-only" => {
                sparse_only = true;
                i += 1;
            }
            "--scenarios-only" => {
                scenarios_only = true;
                i += 1;
            }
            "--heuristics-only" => {
                heuristics_only = true;
                i += 1;
            }
            "--failures-only" => {
                failures_only = true;
                i += 1;
            }
            "--online-only" => {
                online_only = true;
                i += 1;
            }
            "--obs-only" => {
                obs_only = true;
                i += 1;
            }
            "--obs-out" => {
                if let Some(path) = args.get(i + 1) {
                    obs_output = path.clone();
                }
                i += 2;
            }
            "--revised-out" => {
                if let Some(path) = args.get(i + 1) {
                    revised_output = path.clone();
                }
                i += 2;
            }
            "--sparse-out" => {
                if let Some(path) = args.get(i + 1) {
                    sparse_output = path.clone();
                }
                i += 2;
            }
            "--scenarios-out" => {
                if let Some(path) = args.get(i + 1) {
                    scenarios_output = path.clone();
                }
                i += 2;
            }
            "--heuristics-out" => {
                if let Some(path) = args.get(i + 1) {
                    heuristics_output = path.clone();
                }
                i += 2;
            }
            "--failures-out" => {
                if let Some(path) = args.get(i + 1) {
                    failures_output = path.clone();
                }
                i += 2;
            }
            "--online-out" => {
                if let Some(path) = args.get(i + 1) {
                    online_output = path.clone();
                }
                i += 2;
            }
            other => {
                output = other.to_string();
                i += 1;
            }
        }
    }
    if sparse_only {
        write_sparse_report(&sparse_output);
        return;
    }
    if scenarios_only {
        write_scenarios_report(&scenarios_output);
        return;
    }
    if heuristics_only {
        write_heuristics_report(&heuristics_output);
        return;
    }
    if failures_only {
        write_failures_report(&failures_output);
        return;
    }
    if online_only {
        write_online_report(&online_output);
        return;
    }
    if obs_only {
        write_obs_report(&obs_output);
        return;
    }

    let mut metrics: Vec<(String, f64)> = Vec::new();

    // ---- Heuristics and the full MixedBest sweep. ----
    for (platform, platform_name) in [
        (PlatformKind::default_homogeneous(), "homogeneous"),
        (PlatformKind::default_heterogeneous(), "heterogeneous"),
    ] {
        for &size in &MICRO_SIZES {
            let problem = bench_instance(size, 0.5, platform, 1234 + size as u64);
            for heuristic in Heuristic::BASE {
                let ns = time_ns(|| {
                    black_box(heuristic.run(black_box(&problem)));
                });
                metrics.push((
                    format!("heuristic/{}/{platform_name}/{size}", heuristic.acronym()),
                    ns,
                ));
            }
            let ns = time_ns(|| {
                black_box(Heuristic::MixedBest.run(black_box(&problem)));
            });
            metrics.push((format!("full_sweep/{platform_name}/{size}"), ns));
            let allocs = allocs_per_call(|| {
                black_box(Heuristic::MixedBest.run(black_box(&problem)));
            });
            metrics.push((format!("allocs/full_sweep/{platform_name}/{size}"), allocs));

            // The pooled driver the parallel sweep pins per worker: the
            // incumbent and every heuristic buffer are reused, so the
            // steady state must be allocation-free.
            let mut pooled = MixedBest::new();
            let allocs = allocs_per_call(|| {
                black_box(pooled.full_sweep(black_box(&problem)));
            });
            metrics.push((
                format!("allocs/full_sweep_pooled/{platform_name}/{size}"),
                allocs,
            ));

            // Steady-state inner loops: one reused state, reset between
            // runs. This is the path MixedBest drives; it must not
            // allocate at all once the buffers are warm.
            let mut state = HeuristicState::new(&problem);
            for heuristic in Heuristic::BASE {
                let allocs = allocs_per_call(|| {
                    state.reset();
                    black_box(heuristic.run_with(&mut state));
                });
                metrics.push((
                    format!(
                        "allocs/heuristic_steady/{}/{platform_name}/{size}",
                        heuristic.acronym()
                    ),
                    allocs,
                ));
            }
        }
    }

    // ---- Traversal primitives. ----
    for &size in &MICRO_SIZES {
        let problem = bench_instance(size, 0.5, PlatformKind::default_homogeneous(), 99);
        let tree = problem.tree();
        let ns = time_ns(|| {
            let mut acc = 0usize;
            for client in tree.client_ids() {
                for node in tree.ancestors_of_client(client) {
                    acc += node.index();
                }
            }
            black_box(acc);
        });
        metrics.push((format!("ancestors_pass/{size}"), ns));
        let allocs = allocs_per_call(|| {
            let mut acc = 0usize;
            for client in tree.client_ids() {
                for node in tree.ancestors_of_client(client) {
                    acc += node.index();
                }
            }
            black_box(acc);
        });
        metrics.push((format!("allocs/ancestors_pass/{size}"), allocs));

        let nodes: Vec<_> = tree.node_ids().collect();
        let ns = time_ns(|| {
            let mut hits = 0usize;
            for &a in &nodes {
                for &b in &nodes {
                    hits += usize::from(tree.node_is_ancestor_or_self(a, b));
                }
            }
            black_box(hits);
        });
        metrics.push((format!("ancestor_check_pass/{size}"), ns));
    }

    // ---- LP lower bounds. ----
    for size in [20usize, 40] {
        let problem = bench_instance(size, 0.6, PlatformKind::default_heterogeneous(), 31);
        let ns = time_ns(|| {
            black_box(lower_bound(black_box(&problem), BoundKind::Rational));
        });
        metrics.push((format!("lp_rational_bound/{size}"), ns));
    }
    {
        let problem = bench_instance(20, 0.6, PlatformKind::default_heterogeneous(), 31);
        let capped = IlpOptions {
            branch_bound: BranchBoundOptions {
                max_nodes: 100,
                ..BranchBoundOptions::default()
            },
        };
        let ns = time_ns(|| {
            black_box(lower_bound_with(
                black_box(&problem),
                BoundKind::Mixed,
                &capped,
            ));
        });
        metrics.push(("milp_mixed_bound/20".to_string(), ns));
    }

    // ---- End-to-end sweep throughput. ----
    {
        let mut config = ExperimentConfig::smoke_test();
        config.threads = Some(1);
        let t = Instant::now();
        let results = run_sweep(&config);
        let elapsed = t.elapsed();
        let trees: usize = config.lambdas.len() * config.trees_per_lambda;
        black_box(&results);
        metrics.push(("sweep_smoke_ms".to_string(), elapsed.as_secs_f64() * 1e3));
        metrics.push((
            "sweep_trees_per_sec".to_string(),
            trees as f64 / elapsed.as_secs_f64(),
        ));
    }

    let old_metrics = compare.as_deref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read comparison file {path}: {e}"));
        parse_metrics(&text)
    });

    let json = render_json(&metrics, compare.as_deref(), old_metrics.as_deref());
    std::fs::write(&output, &json).unwrap_or_else(|e| panic!("cannot write {output}: {e}"));
    println!("{json}");
    eprintln!("wrote {output}");

    write_revised_report(&revised_output);
    write_sparse_report(&sparse_output);
    write_scenarios_report(&scenarios_output);
    write_heuristics_report(&heuristics_output);
    write_failures_report(&failures_output);
    write_online_report(&online_output);
    write_obs_report(&obs_output);
}

/// Extracts the flat `"name": value` pairs of a previous baseline file.
/// Only understands the format written by `render_json` — fine, since we
/// control both ends.
fn parse_metrics(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = text.find("\"metrics\": {") else {
        return out;
    };
    let body = &text[start + "\"metrics\": {".len()..];
    let Some(end) = body.find('}') else {
        return out;
    };
    for line in body[..end].lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn render_json(
    metrics: &[(String, f64)],
    compare_path: Option<&str>,
    old: Option<&[(String, f64)]>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 1,\n");
    s.push_str("  \"units\": \"ns per op unless the metric name says otherwise\",\n");
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    s.push_str("  }");
    if let (Some(path), Some(old)) = (compare_path, old) {
        s.push_str(",\n  \"compare\": {\n");
        s.push_str(&format!("    \"baseline_file\": \"{path}\",\n"));
        s.push_str("    \"speedup\": {\n");
        let shared: Vec<_> = metrics
            .iter()
            .filter_map(|(name, new_value)| {
                old.iter()
                    .find(|(old_name, _)| old_name == name)
                    .map(|(_, old_value)| {
                        // Most metrics are times (lower is better):
                        // speedup = old / new. Throughput metrics are the
                        // other way around.
                        let ratio = if name.ends_with("per_sec") {
                            new_value / old_value.max(1e-9)
                        } else {
                            old_value / new_value.max(1e-9)
                        };
                        (name, ratio)
                    })
            })
            .collect();
        for (i, (name, ratio)) in shared.iter().enumerate() {
            let comma = if i + 1 == shared.len() { "" } else { "," };
            s.push_str(&format!("      \"{name}\": {ratio:.2}{comma}\n"));
        }
        s.push_str("    }\n  }");
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn flatten_walks_nested_objects_into_dotted_paths() {
        let json = r#"{"schema":1,"mode":"full","counters":{"lp.solves":4,"lp.ftran.calls":12},
                       "derived":{"lp.warm.rate":0.5},"note":"text","ok":true,"gone":null,
                       "arr":[7,8]}"#;
        let flat = flatten_json_numbers(json).expect("well-formed");
        let get = |name: &str| {
            flat.iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("schema"), 1.0);
        assert_eq!(get("counters.lp.solves"), 4.0);
        assert_eq!(get("counters.lp.ftran.calls"), 12.0);
        assert_eq!(get("derived.lp.warm.rate"), 0.5);
        assert_eq!(get("arr.0"), 7.0);
        assert_eq!(get("arr.1"), 8.0);
        // Strings, booleans and nulls never become leaves.
        assert!(flat
            .iter()
            .all(|(n, _)| n != "mode" && n != "note" && n != "ok" && n != "gone"));
    }

    #[test]
    fn flatten_rejects_malformed_json() {
        assert!(flatten_json_numbers("{\"a\":").is_none());
        assert!(flatten_json_numbers("{\"a\":1} trailing").is_none());
        assert!(flatten_json_numbers("{\"a\" 1}").is_none());
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
        let budget = parse_budget(text);
        assert_eq!(
            budget,
            vec![
                ("lp".to_string(), "s400_bound_ms".to_string(), 15.0),
                ("obs".to_string(), "obs_phase_coverage_min".to_string(), 0.8),
            ]
        );
        assert_eq!(budget_value(&budget, "obs_phase_coverage_min"), 0.8);
    }
}
