//! The churn sweep: sustained online re-placement under a seeded
//! delta stream.
//!
//! One run drives a [`PlacementEngine`] per policy through the same
//! churn trace ([`rp_workloads::churn_trace`]): arrivals, departures,
//! demand drift, failures and paired recoveries, each applied under a
//! per-delta [`SolveBudget`]. Recorded per policy:
//!
//! * outcome mix — applied / degraded / deferred — and which ladder
//!   rung answered each absorbed delta ([`RungCounts`]);
//! * sustained **re-placements per second** and the p50/p99 apply
//!   latency (wall-clock around [`PlacementEngine::apply`], also
//!   visible as the `online.apply_us` histogram through `rp-obs`);
//! * incumbent verification after **every** apply — the engine's
//!   ladder verifies each answer once before installing it, the sweep
//!   re-checks the installed incumbent from outside
//!   ([`PlacementEngine::verify_incumbent`], outside the apply timer but
//!   inside the wall clock), and the aggregate
//!   [`unverified`](ChurnPolicyOutcome::unverified) count must be
//!   zero, which the chaos harness and the perf gate's `[online]`
//!   section (`baseline --check`) assert.
//!
//! `reproduce churn` renders the summary as a markdown table; the
//! baseline binary records the same numbers in `BENCH_online.json`.

use std::time::{Duration, Instant};

use rp_core::Policy;
use rp_lp::SolveBudget;
use rp_online::{ApplyOutcome, PlacementEngine, RungCounts};
use rp_workloads::churn::{churn_trace, ChurnConfig};
use rp_workloads::platform::{paper_scale_instance_sized, PlatformKind};

use crate::pool::parallel_map;
use crate::report::SeriesTable;

/// Full description of a churn sweep.
#[derive(Clone, Debug)]
pub struct ChurnRunConfig {
    /// Load factor of the generated instance.
    pub lambda: f64,
    /// Number of deltas driven through each engine.
    pub deltas: usize,
    /// Problem size `s = |C| + |N|` of the instance.
    pub problem_size: usize,
    /// Server-capacity family of the generated platform.
    pub platform: PlatformKind,
    /// Per-delta wall budget in milliseconds (`None` = unlimited).
    pub budget_ms: Option<u64>,
    /// Rate-curve and event-mix parameters of the trace.
    pub trace: ChurnConfig,
    /// Base RNG seed — the one number a report needs to be reproduced.
    pub seed: u64,
    /// Worker threads across policies (`None` = one per policy).
    pub threads: Option<usize>,
}

impl ChurnRunConfig {
    /// The default churn sweep: a paper-scale instance at moderate
    /// load, 2000 mixed deltas, 50 ms per delta.
    pub fn new() -> Self {
        ChurnRunConfig {
            lambda: 0.4,
            deltas: 2000,
            problem_size: rp_workloads::PAPER_SCALE_S,
            platform: PlatformKind::default_heterogeneous(),
            budget_ms: Some(50),
            trace: ChurnConfig::new(),
            seed: 20070326,
            threads: None,
        }
    }

    /// A miniature configuration for unit tests.
    pub fn smoke_test() -> Self {
        ChurnRunConfig {
            deltas: 40,
            problem_size: 40,
            platform: PlatformKind::default_homogeneous(),
            threads: Some(1),
            ..ChurnRunConfig::new()
        }
    }
}

impl Default for ChurnRunConfig {
    fn default() -> Self {
        ChurnRunConfig::new()
    }
}

/// One policy's fate across the whole delta stream.
#[derive(Clone, Debug)]
pub struct ChurnPolicyOutcome {
    /// The policy the engine served under.
    pub policy: Policy,
    /// Deltas absorbed with full service.
    pub applied: usize,
    /// Deltas absorbed with a verified degraded incumbent.
    pub degraded: usize,
    /// Deltas deferred (budget missed, rolled back and re-queued).
    pub deferred: usize,
    /// Which ladder rung answered each absorbed apply.
    pub rungs: RungCounts,
    /// Incumbents that failed verification after an apply — anything
    /// but zero is a bug in the engine.
    pub unverified: usize,
    /// The engine's final incumbent generation.
    pub final_generation: u64,
    /// Absorbed re-placements per wall-clock second.
    pub replacements_per_sec: f64,
    /// Median apply latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile apply latency in milliseconds.
    pub p99_ms: f64,
    /// Worst observed apply latency in milliseconds — the exact
    /// maximum, not a percentile estimate.
    pub max_ms: f64,
    /// Mean apply latency in milliseconds.
    pub mean_ms: f64,
}

/// Results of a churn sweep: one outcome per policy, in
/// [`Policy::ALL`] order, all driven by the same trace.
#[derive(Clone, Debug)]
pub struct ChurnResults {
    /// The configuration that produced these results.
    pub config: ChurnRunConfig,
    /// One entry per policy.
    pub per_policy: Vec<ChurnPolicyOutcome>,
}

impl ChurnResults {
    /// Total incumbents that failed verification across every policy.
    /// Must be zero.
    pub fn total_unverified(&self) -> usize {
        self.per_policy.iter().map(|p| p.unverified).sum()
    }
}

/// Runs the churn sweep described by `config`: the same seeded trace
/// through one engine per policy.
pub fn run_churn(config: &ChurnRunConfig) -> ChurnResults {
    let policies: Vec<Policy> = Policy::ALL.to_vec();
    let threads = config.threads.unwrap_or(policies.len()).max(1);
    let per_policy = parallel_map(&policies, threads, |&policy| {
        run_churn_policy(config, policy)
    });
    ChurnResults {
        config: config.clone(),
        per_policy,
    }
}

/// Drives one engine under `policy` through the configured trace.
pub fn run_churn_policy(config: &ChurnRunConfig, policy: Policy) -> ChurnPolicyOutcome {
    rp_obs::incr(rp_obs::Counter::ExpChurnTrials);
    let problem = paper_scale_instance_sized(
        config.problem_size,
        config.platform,
        config.lambda,
        config.seed,
    );
    let trace = churn_trace(&problem, &config.trace, config.deltas, config.seed ^ 0xC4A0);
    let budget = match config.budget_ms {
        Some(ms) => SolveBudget::with_deadline(Duration::from_millis(ms)),
        None => SolveBudget::UNLIMITED,
    };

    let mut engine = PlacementEngine::new(problem, policy);
    let mut applied = 0usize;
    let mut degraded = 0usize;
    let mut deferred = 0usize;
    let mut unverified = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(trace.len());
    let wall = Instant::now();
    for entry in &trace {
        let start = Instant::now();
        let outcome = engine.apply(entry.delta, budget);
        latencies_ms.push(1e3 * start.elapsed().as_secs_f64());
        match outcome {
            ApplyOutcome::Applied { .. } => applied += 1,
            ApplyOutcome::Degraded { .. } => degraded += 1,
            ApplyOutcome::Deferred => deferred += 1,
        }
        if !engine.verify_incumbent() {
            unverified += 1;
        }
    }
    let wall_seconds = wall.elapsed().as_secs_f64().max(1e-12);
    let absorbed = applied + degraded;
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let mean_ms = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };
    ChurnPolicyOutcome {
        policy,
        applied,
        degraded,
        deferred,
        rungs: engine.rung_counts(),
        unverified,
        final_generation: engine.generation(),
        replacements_per_sec: absorbed as f64 / wall_seconds,
        p50_ms: rp_obs::nearest_rank(&latencies_ms, 0.50),
        p99_ms: rp_obs::nearest_rank(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        mean_ms,
    }
}

/// Renders a churn sweep as a table: one row per policy.
pub fn churn_table(results: &ChurnResults) -> SeriesTable {
    let headers = vec![
        "policy".to_string(),
        "applied".to_string(),
        "degraded".to_string(),
        "deferred".to_string(),
        "surgical".to_string(),
        "lp_repair".to_string(),
        "rerun".to_string(),
        "rung_degraded".to_string(),
        "repl_per_s".to_string(),
        "p50_ms".to_string(),
        "p99_ms".to_string(),
        "max_ms".to_string(),
        "unverified".to_string(),
    ];
    let rows = results
        .per_policy
        .iter()
        .map(|p| {
            vec![
                p.policy.to_string(),
                p.applied.to_string(),
                p.degraded.to_string(),
                p.deferred.to_string(),
                p.rungs.surgical.to_string(),
                p.rungs.lp_repair.to_string(),
                p.rungs.rerun.to_string(),
                p.rungs.degraded.to_string(),
                format!("{:.0}", p.replacements_per_sec),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                format!("{:.3}", p.max_ms),
                p.unverified.to_string(),
            ]
        })
        .collect();
    SeriesTable { headers, rows }
}

/// Renders the full report (title with the reproduction seed + table)
/// for `reproduce churn`.
pub fn churn_markdown(results: &ChurnResults) -> String {
    let config = &results.config;
    let budget = config
        .budget_ms
        .map(|ms| format!("{ms} ms"))
        .unwrap_or_else(|| "unlimited".to_string());
    format!(
        "## Online churn: {} deltas per policy \
         (s = {}, λ = {:.1}, budget = {}, seed = {})\n\n{}",
        config.deltas,
        config.problem_size,
        config.lambda,
        budget,
        config.seed,
        churn_table(results).to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_keeps_every_incumbent_verified() {
        let config = ChurnRunConfig::smoke_test();
        let results = run_churn(&config);
        assert_eq!(results.per_policy.len(), Policy::ALL.len());
        assert_eq!(results.total_unverified(), 0);
        for outcome in &results.per_policy {
            assert_eq!(
                outcome.applied + outcome.degraded + outcome.deferred,
                config.deltas
            );
            assert_eq!(
                outcome.rungs.total(),
                (outcome.applied + outcome.degraded) as u64
            );
            assert_eq!(outcome.final_generation, outcome.rungs.total());
            assert!(outcome.replacements_per_sec > 0.0);
            assert!(outcome.p99_ms >= outcome.p50_ms);
            // The exact max tops every percentile estimate.
            assert!(outcome.max_ms >= outcome.p99_ms);
        }
    }

    #[test]
    fn sweeps_are_deterministic_in_the_seed() {
        let config = ChurnRunConfig {
            deltas: 25,
            // Unlimited budget: outcomes cannot depend on wall-clock.
            budget_ms: None,
            ..ChurnRunConfig::smoke_test()
        };
        let a = run_churn(&config);
        let b = run_churn(&config);
        for (x, y) in a.per_policy.iter().zip(&b.per_policy) {
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.applied, y.applied);
            assert_eq!(x.degraded, y.degraded);
            assert_eq!(x.final_generation, y.final_generation);
            assert_eq!(x.rungs, y.rungs);
        }
    }

    #[test]
    fn table_and_markdown_carry_the_reproduction_seed() {
        let config = ChurnRunConfig {
            deltas: 10,
            ..ChurnRunConfig::smoke_test()
        };
        let results = run_churn(&config);
        let table = churn_table(&results);
        assert_eq!(table.num_rows(), Policy::ALL.len());
        assert!(table.headers.contains(&"repl_per_s".to_string()));
        let markdown = churn_markdown(&results);
        assert!(markdown.contains(&format!("seed = {}", config.seed)));
    }
}
