//! The resilience sweep: survival of the heuristic candidates under
//! sampled single failures.
//!
//! Per trial the sweep generates one paper-scale instance, runs **all
//! nine** heuristic candidates ([`Heuristic::ALL`]) on the healthy
//! platform, samples one failure — a single server crash on even
//! trials, a single link cut on odd ones, both drawn through the seeded
//! generators of [`rp_workloads::failures`] — and pushes every
//! pre-failure placement through
//! [`inject_and_repair`]. Recorded per
//! (trial, heuristic):
//!
//! * whether the repair restored **full** service (survival) or had to
//!   degrade, and the served fraction either way;
//! * the storage-cost delta of a surviving repair versus the
//!   pre-failure placement;
//! * the repair wall-clock (failure application included);
//! * whether the outcome passed its machine check
//!   ([`RepairOutcome::verify`](rp_core::RepairOutcome::verify)) — the
//!   aggregate [`unverified`](HeuristicSummary::unverified) count must
//!   be zero, and the chaos harness asserts exactly that.
//!
//! Every draw derives from the single base seed printed in the rendered
//! report, so any sweep is reproducible from one number.
//! `reproduce failures` renders the summary as a markdown table; the
//! baseline binary records the same numbers in `BENCH_failures.json`.

use std::time::Instant;

use rp_core::{inject_and_repair, FailureEvent, Heuristic};
use rp_workloads::failures::{sample_link_failure, sample_node_failure};
use rp_workloads::platform::{paper_scale_instance_sized, PlatformKind};

use crate::pool::{default_threads, parallel_map};
use crate::report::SeriesTable;

/// Full description of a resilience sweep.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Load factor of the generated instances.
    pub lambda: f64,
    /// Number of (instance, failure) trials.
    pub trials: usize,
    /// Problem size `s = |C| + |N|` of every instance.
    pub problem_size: usize,
    /// Server-capacity family of the generated platforms.
    pub platform: PlatformKind,
    /// Base RNG seed — the one number a report needs to be reproduced.
    pub seed: u64,
    /// Worker threads (`None` = automatic).
    pub threads: Option<usize>,
}

impl ResilienceConfig {
    /// The default chaos sweep: paper-scale instances at moderate load,
    /// 200 sampled single failures.
    pub fn new() -> Self {
        ResilienceConfig {
            lambda: 0.4,
            trials: 200,
            problem_size: rp_workloads::PAPER_SCALE_S,
            platform: PlatformKind::default_heterogeneous(),
            seed: 20070326,
            threads: None,
        }
    }

    /// A miniature configuration for unit tests.
    pub fn smoke_test() -> Self {
        ResilienceConfig {
            lambda: 0.4,
            trials: 6,
            problem_size: 40,
            platform: PlatformKind::default_homogeneous(),
            threads: Some(2),
            ..ResilienceConfig::new()
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::new()
    }
}

/// One heuristic's fate in one trial.
#[derive(Clone, Debug)]
pub struct HeuristicResilience {
    /// Whether the repair restored full service.
    pub survived: bool,
    /// Fraction of requests served after repair (1.0 when `survived`).
    pub served_fraction: f64,
    /// Pre-failure storage cost of the heuristic's placement.
    pub original_cost: u64,
    /// Post-repair storage cost (of the partial placement when
    /// degraded).
    pub repaired_cost: u64,
    /// Wall-clock of `inject_and_repair` (failure application
    /// included).
    pub repair_seconds: f64,
    /// Whether the outcome passed its machine check. Anything but
    /// `true` is a bug in the repair pipeline.
    pub verified: bool,
}

/// One (instance, failure) trial: the fate of every candidate.
#[derive(Clone, Debug)]
pub struct ResilienceTrial {
    /// Index of the trial (even = node failure, odd = link failure).
    pub trial_index: usize,
    /// The sampled failure.
    pub failure: FailureEvent,
    /// One entry per [`Heuristic::ALL`] candidate; `None` when the
    /// heuristic already failed on the *healthy* instance (so there was
    /// no placement to repair).
    pub per_heuristic: Vec<Option<HeuristicResilience>>,
}

/// Results of a resilience sweep.
#[derive(Clone, Debug)]
pub struct ResilienceResults {
    /// The configuration that produced these results.
    pub config: ResilienceConfig,
    /// One entry per trial, in trial order.
    pub trials: Vec<ResilienceTrial>,
}

/// Aggregated fate of one heuristic across a sweep.
#[derive(Clone, Debug)]
pub struct HeuristicSummary {
    /// The candidate.
    pub heuristic: Heuristic,
    /// Trials in which the heuristic placed the healthy instance (the
    /// denominator of every rate below).
    pub baseline_runs: usize,
    /// Trials in which it failed before any fault was injected.
    pub baseline_failures: usize,
    /// Fraction of baseline runs whose repair restored full service;
    /// `None` (like every per-run figure below) when the heuristic never
    /// placed the healthy instance, so nothing was repaired.
    pub survival_rate: Option<f64>,
    /// Mean served fraction over baseline runs (degraded included).
    pub mean_served_fraction: Option<f64>,
    /// Mean storage-cost delta of *surviving* repairs versus the
    /// pre-failure placement, as a percentage; `None` when nothing
    /// survived.
    pub mean_cost_delta_pct: Option<f64>,
    /// Mean repair wall-clock in milliseconds.
    pub mean_repair_ms: Option<f64>,
    /// 99th-percentile repair wall-clock in milliseconds.
    pub p99_repair_ms: Option<f64>,
    /// Worst observed repair wall-clock in milliseconds — the exact
    /// maximum, not a percentile estimate.
    pub max_repair_ms: Option<f64>,
    /// Outcomes that failed their machine check — must be zero.
    pub unverified: usize,
}

/// Runs the resilience sweep described by `config`, sharding the trials
/// across a worker pool. Each trial is fully determined by the base
/// seed and its index: even trials sample a node failure, odd trials a
/// link failure.
pub fn run_resilience(config: &ResilienceConfig) -> ResilienceResults {
    let indices: Vec<usize> = (0..config.trials).collect();
    let threads = config
        .threads
        .unwrap_or_else(|| default_threads(indices.len()));
    let trials = parallel_map(&indices, threads, |&trial_index| {
        run_resilience_trial(config, trial_index)
    });
    ResilienceResults {
        config: config.clone(),
        trials,
    }
}

/// Runs one (instance, failure) trial of a resilience sweep.
pub fn run_resilience_trial(config: &ResilienceConfig, trial_index: usize) -> ResilienceTrial {
    let _span = rp_obs::span(rp_obs::SpanKind::ResilienceTrial);
    rp_obs::incr(rp_obs::Counter::ExpResilienceTrials);
    let seed = trial_seed(config.seed, trial_index);
    let problem =
        paper_scale_instance_sized(config.problem_size, config.platform, config.lambda, seed);
    let failure = if trial_index.is_multiple_of(2) {
        sample_node_failure(&problem, seed ^ 0xFA11)
    } else {
        sample_link_failure(&problem, seed ^ 0xFA11)
    };
    let events = [failure];
    let per_heuristic = Heuristic::ALL
        .iter()
        .map(|&heuristic| {
            let placement = heuristic.run(&problem)?;
            let original_cost = placement.cost(&problem);
            let policy = heuristic.policy();
            let start = Instant::now();
            let (platform, outcome) = inject_and_repair(&problem, &placement, policy, &events);
            let repair_seconds = start.elapsed().as_secs_f64();
            Some(HeuristicResilience {
                survived: outcome.is_full(),
                served_fraction: outcome.served_fraction(),
                original_cost,
                repaired_cost: outcome.placement().cost(platform.problem()),
                repair_seconds,
                verified: outcome.verify(&platform, policy),
            })
        })
        .collect();
    ResilienceTrial {
        trial_index,
        failure,
        per_heuristic,
    }
}

/// Derives the deterministic per-trial sub-seed (same mixing as the
/// scenario sweeps).
fn trial_seed(base: u64, trial_index: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((trial_index as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

impl ResilienceResults {
    /// Aggregates the sweep per heuristic, in [`Heuristic::ALL`] order.
    pub fn summaries(&self) -> Vec<HeuristicSummary> {
        Heuristic::ALL
            .iter()
            .enumerate()
            .map(|(slot, &heuristic)| {
                let runs: Vec<&HeuristicResilience> = self
                    .trials
                    .iter()
                    .filter_map(|t| t.per_heuristic[slot].as_ref())
                    .collect();
                let baseline_runs = runs.len();
                let deltas: Vec<f64> = runs
                    .iter()
                    .filter(|r| r.survived && r.original_cost > 0)
                    .map(|r| {
                        100.0 * (r.repaired_cost as f64 - r.original_cost as f64)
                            / r.original_cost as f64
                    })
                    .collect();
                let mut repair_ms: Vec<f64> = runs.iter().map(|r| 1e3 * r.repair_seconds).collect();
                repair_ms.sort_by(|a, b| a.total_cmp(b));
                HeuristicSummary {
                    heuristic,
                    baseline_runs,
                    baseline_failures: self.trials.len() - baseline_runs,
                    survival_rate: mean(runs.iter().map(|r| if r.survived { 1.0 } else { 0.0 })),
                    mean_served_fraction: mean(runs.iter().map(|r| r.served_fraction)),
                    mean_cost_delta_pct: mean(deltas.iter().copied()),
                    mean_repair_ms: mean(repair_ms.iter().copied()),
                    p99_repair_ms: (baseline_runs > 0)
                        .then(|| rp_obs::nearest_rank(&repair_ms, 0.99)),
                    max_repair_ms: repair_ms.last().copied(),
                    unverified: runs.iter().filter(|r| !r.verified).count(),
                }
            })
            .collect()
    }

    /// Number of (trial, heuristic) outcomes that failed their machine
    /// check, across the whole sweep. Must be zero.
    pub fn total_unverified(&self) -> usize {
        self.summaries().iter().map(|s| s.unverified).sum()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Renders a resilience sweep as a table: one row per heuristic.
pub fn resilience_table(results: &ResilienceResults) -> SeriesTable {
    let headers = vec![
        "heuristic".to_string(),
        "runs".to_string(),
        "base_fail".to_string(),
        "survival".to_string(),
        "served".to_string(),
        "cost_delta_pct".to_string(),
        "mean_ms".to_string(),
        "p99_ms".to_string(),
        "max_ms".to_string(),
        "unverified".to_string(),
    ];
    // A figure no trial produced prints as `-`, not as a zero.
    let cell = |value: Option<f64>, decimals: usize| {
        value.map_or_else(|| "-".to_string(), |v| format!("{v:.decimals$}"))
    };
    let rows = results
        .summaries()
        .iter()
        .map(|s| {
            vec![
                s.heuristic.acronym().to_string(),
                s.baseline_runs.to_string(),
                s.baseline_failures.to_string(),
                cell(s.survival_rate, 2),
                cell(s.mean_served_fraction, 3),
                cell(s.mean_cost_delta_pct, 1),
                cell(s.mean_repair_ms, 2),
                cell(s.p99_repair_ms, 2),
                cell(s.max_repair_ms, 2),
                s.unverified.to_string(),
            ]
        })
        .collect();
    SeriesTable { headers, rows }
}

/// Renders the full report (title with the reproduction seed + table)
/// for `reproduce failures`.
pub fn resilience_markdown(results: &ResilienceResults) -> String {
    let config = &results.config;
    format!(
        "## Resilience under sampled single failures \
         (s = {}, λ = {:.1}, {} trials, seed = {})\n\n{}",
        config.problem_size,
        config.lambda,
        config.trials,
        config.seed,
        resilience_table(results).to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::LinkId;

    #[test]
    fn smoke_sweep_repairs_every_candidate_verifiably() {
        let config = ResilienceConfig::smoke_test();
        let results = run_resilience(&config);
        assert_eq!(results.trials.len(), config.trials);
        assert_eq!(results.total_unverified(), 0);
        for trial in &results.trials {
            assert_eq!(trial.per_heuristic.len(), Heuristic::ALL.len());
            // Even trials sample node failures, odd trials link failures.
            match (trial.trial_index % 2, trial.failure) {
                (0, FailureEvent::ServerCrash(_)) => {}
                (1, FailureEvent::UplinkDown(_)) => {}
                (parity, failure) => panic!("trial parity {parity} drew {failure:?}"),
            }
            for entry in trial.per_heuristic.iter().flatten() {
                assert!(entry.verified);
                assert!((0.0..=1.0).contains(&entry.served_fraction));
                if entry.survived {
                    assert_eq!(entry.served_fraction, 1.0);
                }
                assert!(entry.repair_seconds >= 0.0);
            }
        }
        // MG never misses a feasible healthy instance, so at this tame
        // load some candidate must have actually run.
        let summaries = results.summaries();
        assert_eq!(summaries.len(), Heuristic::ALL.len());
        assert!(summaries.iter().any(|s| s.baseline_runs > 0));
    }

    #[test]
    fn sweeps_are_deterministic_in_the_seed() {
        let config = ResilienceConfig {
            trials: 4,
            ..ResilienceConfig::smoke_test()
        };
        let a = run_resilience(&config);
        let b = run_resilience(&config);
        for (ta, tb) in a.trials.iter().zip(&b.trials) {
            assert_eq!(ta.failure, tb.failure);
            for (ea, eb) in ta.per_heuristic.iter().zip(&tb.per_heuristic) {
                assert_eq!(ea.is_some(), eb.is_some());
                if let (Some(ea), Some(eb)) = (ea, eb) {
                    assert_eq!(ea.survived, eb.survived);
                    assert_eq!(ea.original_cost, eb.original_cost);
                    assert_eq!(ea.repaired_cost, eb.repaired_cost);
                    assert_eq!(ea.served_fraction, eb.served_fraction);
                }
            }
        }
        // A different seed explores different failures.
        let other = run_resilience(&ResilienceConfig {
            seed: config.seed ^ 0xDEAD,
            ..config
        });
        assert!(a
            .trials
            .iter()
            .zip(&other.trials)
            .any(|(x, y)| x.failure != y.failure));
    }

    #[test]
    fn severed_client_uplinks_degrade_rather_than_fail() {
        // Force a specific failure: cut the first client's uplink on a
        // healthy smoke instance and check the single-trial path ends in
        // a verified degraded report for the candidates that placed it.
        let config = ResilienceConfig::smoke_test();
        let seed = trial_seed(config.seed, 0);
        let problem =
            paper_scale_instance_sized(config.problem_size, config.platform, config.lambda, seed);
        let client = problem.tree().client_ids().next().unwrap();
        let events = [FailureEvent::UplinkDown(LinkId::Client(client))];
        let mut exercised = 0;
        for heuristic in Heuristic::ALL {
            let Some(placement) = heuristic.run(&problem) else {
                continue;
            };
            let policy = heuristic.policy();
            let (platform, outcome) = inject_and_repair(&problem, &placement, policy, &events);
            assert!(outcome.verify(&platform, policy), "{heuristic:?}");
            if problem.requests(client) > 0 {
                assert!(!outcome.is_full(), "{heuristic:?}");
                assert!(outcome.served_fraction() < 1.0, "{heuristic:?}");
            }
            exercised += 1;
        }
        assert!(exercised > 0);
    }

    #[test]
    fn table_and_markdown_carry_the_reproduction_seed() {
        let config = ResilienceConfig {
            trials: 2,
            ..ResilienceConfig::smoke_test()
        };
        let results = run_resilience(&config);
        let table = resilience_table(&results);
        assert_eq!(table.num_rows(), Heuristic::ALL.len());
        assert!(table.headers.contains(&"survival".to_string()));
        assert!(table.headers.contains(&"max_ms".to_string()));
        for summary in results.summaries() {
            // The exact max tops every percentile estimate.
            if let (Some(max), Some(p99)) = (summary.max_repair_ms, summary.p99_repair_ms) {
                assert!(max >= p99);
            }
        }
        let markdown = resilience_markdown(&results);
        assert!(markdown.contains(&format!("seed = {}", config.seed)));
        assert!(markdown.contains("MB"));
    }

    #[test]
    fn candidates_that_never_placed_report_no_figures() {
        let mut results = run_resilience(&ResilienceConfig {
            trials: 2,
            ..ResilienceConfig::smoke_test()
        });
        // The first candidate never places the healthy instance.
        for trial in &mut results.trials {
            trial.per_heuristic[0] = None;
        }
        let summary = &results.summaries()[0];
        assert_eq!((summary.baseline_runs, summary.baseline_failures), (0, 2));
        for figure in [
            summary.survival_rate,
            summary.mean_served_fraction,
            summary.mean_cost_delta_pct,
            summary.mean_repair_ms,
            summary.p99_repair_ms,
            summary.max_repair_ms,
        ] {
            assert_eq!(figure, None);
        }
        let table = resilience_table(&results);
        assert_eq!(table.rows[0][2], "2");
        assert!(table.rows[0][3..9].iter().all(|cell| cell == "-"));
        // A candidate that ran still reports numbers.
        let ran = results
            .summaries()
            .into_iter()
            .find(|s| s.baseline_runs > 0);
        let ran = ran.expect("some candidate places the smoke instances");
        assert!(ran.survival_rate.is_some() && ran.p99_repair_ms.is_some());
    }

    #[test]
    fn percentile_uses_the_shared_nearest_rank() {
        // The summary's p99 routes through the workspace-wide
        // implementation in rp-obs; pin the rule here too.
        assert_eq!(rp_obs::nearest_rank(&[], 0.99), 0.0);
        assert_eq!(rp_obs::nearest_rank(&[5.0], 0.99), 5.0);
        let sorted: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(rp_obs::nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(rp_obs::nearest_rank(&sorted, 0.5), 50.0);
        assert_eq!(rp_obs::nearest_rank(&sorted, 1.0), 100.0);
    }
}
