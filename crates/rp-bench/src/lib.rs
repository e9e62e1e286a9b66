//! # rp-bench — benchmarks and figure reproduction
//!
//! * `src/bin/reproduce.rs` — regenerates the data series behind every
//!   reproduced figure (`cargo run --release -p rp-bench --bin reproduce -- all`);
//! * `benches/` — criterion benchmarks: one scaled-down sweep per figure
//!   plus micro-benchmarks of the heuristics, the exact algorithms and
//!   the LP solver;
//! * `src/bin/baseline.rs` — the machine-readable perf snapshots
//!   (`BENCH_*.json`, one suite each: `baseline -- [SUITE...] [--out
//!   DIR]`) and the CI perf gate, which checks every entry of
//!   `perf-budget.toml` and the correctness invariants that ride with
//!   them (`baseline -- --check perf-budget.toml [--section NAME]`).
//!
//! This crate contains shared helpers for the benchmarks and the
//! snapshot format ([`snapshot`]).
//!
//! # Reading a trace
//!
//! Every layer of the workspace is instrumented through `rp-obs`
//! (metric catalogue: `crates/rp-obs/src/catalogue.md`). To capture a
//! timeline of a real solve, ask `reproduce` for one — the flags imply
//! `ObsMode::Full`:
//!
//! ```text
//! cargo run --release -p rp-bench --bin reproduce -- bandwidth \
//!     --trace out.trace.json --metrics out.metrics.json
//! ```
//!
//! Open `out.trace.json` in `chrome://tracing` (or <https://ui.perfetto.dev>).
//! The file is the Chrome trace-event JSON array format; what you see:
//!
//! * **One row per worker thread** of the tree-sharded pool (`tid 0` is
//!   the main thread; workers flush their buffered events when the
//!   pool joins).
//! * **`exp.trial` blocks** — one per (λ, tree) pair. Inside each
//!   trial the nesting mirrors the harness: an `exp.lp_bound` span for
//!   the LP bound, an `exp.heuristics` span for the candidate
//!   placements, and — on the scenario sweeps — `core.lpg.round` for
//!   the LP-guided rounding/repair pipeline.
//! * **`lp.solve` spans** under them: every entry into the revised
//!   simplex, warm or cold. In the `bandwidth` sweep above, the first
//!   solve of an instance is the long block; its sibling λ re-solves
//!   are the short blocks right after it — that visible length ratio
//!   *is* the warm-start win the registry reports as `lp.warm.rate`.
//! * **Heuristic spans named by acronym** (`MG`, `CTDA`, `UBCF`, …)
//!   inside the heuristics phase, and `core.repair` spans on the
//!   resilience sweeps.
//!
//! The matching `out.metrics.json` holds the aggregate registry
//! (counters, gauges, `lp.solve_us`-style histograms with exact
//! nearest-rank p50/p99, and derived ratios such as the FTRAN sparse
//! skip rate) for the same run; `BENCH_obs.json` from the baseline
//! binary is the checked-in snapshot of the same document on the
//! reference workload.
//!
//! # Reading a flight-recorder dump
//!
//! The flight recorder keeps a bounded ring of the most recent solves
//! and snapshots it to JSONL whenever an anomaly fires: a budget miss,
//! a solve slower than 8× the running median, or an rp-online
//! rollback. Set `RP_FLIGHT_DUMP` to a
//! path (with at least `RP_OBS=counters`) and the latest dump lands
//! there; the perf-budget gate also writes one as
//! `obs-breach.flight.jsonl` on any breach. Force one on demand with a
//! deliberately impossible per-apply budget:
//!
//! ```text
//! RP_OBS=counters RP_FLIGHT_DUMP=flight.jsonl \
//!     cargo run --release -p rp-bench --bin reproduce -- \
//!     churn --quick --budget-ms 1
//! ```
//!
//! The dump is line-oriented JSON. The first line is the meta header —
//! `{"type":"flight_dump","reason":"rollback","records":30,...}` —
//! naming which anomaly tripped the snapshot. Every following line is
//! one `{"type":"solve",...}` record, oldest first: the instance shape
//! (`rows`/`cols`), the warm-start class, status, iteration count,
//! `solve_us`, whether the budget was missed, and the per-phase
//! breakdown (`phase_ns`/`phase_calls` over pricing, ftran, btran,
//! ratio_test, factorise, ft_update, presolve, scaling, extract).
//! Read it back to front: the last records are the solves leading into
//! the anomaly, and a phase whose share of `phase_total_ns` balloons
//! relative to earlier records names the mechanism — e.g. `factorise`
//! dominating where `ft_update` used to means the Forrest–Tomlin
//! update started refusing pivots.
//!
//! # Reading an obs-diff report
//!
//! `baseline -- --obs-diff OLD.json NEW.json` compares two snapshots
//! (`baseline -- obs --out DIR` writes a fresh one of the reference
//! workload) and ranks every counter, gauge, histogram stat and derived
//! ratio by relative movement, `|new − old| / max(|old|, 1)`:
//!
//! ```text
//! obs-diff: 12 of 152 metrics moved (top 25 below)
//!   counters.lp.refactor.count: 18 -> 124 (+588.9%)
//!   counters.lp.phase.factorise_ns: 236221 -> 1893002 (+701.4%)
//!   ...
//! ```
//!
//! The top movers *are* the attribution: a wall-time regression with
//! `lp.refactor.count` and `lp.phase.factorise_ns` leading the list is
//! a factorisation-stability problem, one led by `lp.dual_pivots`
//! and `lp.phase.pricing_ns` is a pricing problem. The perf gate
//! prints exactly this report (against the checked-in `BENCH_obs.json`)
//! whenever a check is breached, and saves it as `obs-breach.diff.txt`
//! next to `obs-breach.metrics.json` and `obs-breach.flight.jsonl`.
//! Re-measure just the breached section of the budget with a filter:
//! `--check perf-budget.toml --section lp` (or `warm`, `obs`,
//! `heuristics`, `failures`, `online`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod snapshot;

use rp_core::ProblemInstance;
use rp_workloads::platform::{generate_problem, PlatformKind, WorkloadConfig};
use rp_workloads::tree_gen::{generate_tree, TreeGenConfig, TreeShape};

/// Builds a deterministic benchmark instance of problem size `s` with
/// load factor `lambda` on the given platform.
pub fn bench_instance(s: usize, lambda: f64, platform: PlatformKind, seed: u64) -> ProblemInstance {
    let tree = generate_tree(
        &TreeGenConfig::with_problem_size(s, TreeShape::RandomAttachment),
        seed,
    );
    generate_problem(tree, &WorkloadConfig::new(platform, lambda), seed ^ 0xABCD)
}

/// The problem sizes exercised by the micro-benchmarks.
pub const MICRO_SIZES: [usize; 3] = [50, 150, 400];

/// A scaled-down experiment configuration for the per-figure criterion
/// benchmarks: small trees and few repetitions so a benchmark iteration
/// stays in the tens of milliseconds, while still exercising the exact
/// code path that regenerates the figure.
pub fn mini_figure_config(figure: rp_experiments::FigureId) -> rp_experiments::ExperimentConfig {
    let mut config = figure.config();
    config.lambdas = vec![0.2, 0.5, 0.8];
    config.trees_per_lambda = 4;
    config.size_range = (15, 40);
    config.threads = Some(1); // criterion wants single-threaded, stable timings
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_instances_are_deterministic_and_sized() {
        let a = bench_instance(80, 0.5, PlatformKind::default_homogeneous(), 3);
        let b = bench_instance(80, 0.5, PlatformKind::default_homogeneous(), 3);
        assert_eq!(a.tree().problem_size(), 80);
        assert_eq!(a.total_requests(), b.total_requests());
        assert!((a.load_factor() - 0.5).abs() < 0.05);
    }
}
