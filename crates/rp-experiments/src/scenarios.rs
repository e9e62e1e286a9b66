//! The scenario sweep: λ-parameterised LP lower bounds **and heuristic
//! success/cost series** over the bandwidth-constrained and
//! multi-object workload families.
//!
//! The classic figure sweeps ([`crate::runner`]) evaluate heuristics
//! against the LP bound on the base formulation. The problem-variant
//! families are covered here: per (λ, tree) the sweep records the
//! rational LP bound (wall-clock and iteration count) **plus two
//! heuristic candidates**:
//!
//! * the **LP-guided rounding** ([`rp_core::heuristics::lp_guided`]) —
//!   the subsystem built for exactly these families (bandwidth-aware,
//!   multi-object-aware);
//! * the **classic ensemble** — on single-object families the best of
//!   the paper's eight heuristics behind the [`BandwidthRepair`]
//!   retrofit; on multi-object families the sequential greedy
//!   ([`rp_core::multi::solve_multi_greedy`]), validated against the
//!   shared capacities *and* links.
//!
//! The rendered tables therefore carry real success-rate and
//! cost-vs-LP-gap columns for every family (a `-` appears only when a
//! metric is inapplicable — e.g. the gap of a λ batch in which no
//! relaxation was feasible). One `LpWorkspace` is pinned per worker and
//! the work list is tree-major, so sibling λ trials of one tree
//! re-solve the same constraint matrix through the warm-start path,
//! exactly like the main sweep — and the LP-guided rounding's own
//! solve rides the same warm workspace.
//!
//! `reproduce bandwidth` / `reproduce multi` render these sweeps as
//! markdown tables; the baseline binary records the same numbers in
//! `BENCH_scenarios.json` / `BENCH_heuristics.json`.

use rp_core::heuristics::lp_guided::{lp_guided_multi_reusing, lp_guided_reusing, BandwidthRepair};
use rp_core::ilp::{build_model, build_multi_model, IlpOptions, Integrality};
use rp_core::multi::{solve_multi_greedy, MultiGreedyOptions, MultiObjectProblem};
use rp_core::{Heuristic, Policy, ProblemInstance};
use rp_lp::{LpWorkspace, SimplexOptions, Status};
use rp_workloads::scenarios::{
    bandwidth_instance, ill_scaled_bandwidth_instance, multi_object_bandwidth_instance,
    multi_object_instance,
};

use crate::pool::{default_threads, parallel_map_with};
use crate::report::SeriesTable;

/// Which problem-variant family a scenario sweep draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioFamily {
    /// Single-object instances with per-link bandwidth bounds at mixed
    /// headroom (some links bind; feasibility is λ-dependent).
    Bandwidth,
    /// Bandwidth bounds over the wide-range (five-decade) platform: an
    /// ill-scaled constraint matrix (entry spread ~2e5) that the LP
    /// engine solves unscaled.
    BandwidthIllScaled,
    /// Multi-object instances sharing node capacities.
    MultiObject,
    /// Multi-object instances sharing node capacities **and** links
    /// (per-object `z` variables, shared bandwidth rows).
    MultiObjectBandwidth,
}

impl ScenarioFamily {
    /// Command-line key (`reproduce <key>` accepts the family keys).
    pub fn key(self) -> &'static str {
        match self {
            ScenarioFamily::Bandwidth => "bandwidth",
            ScenarioFamily::BandwidthIllScaled => "bandwidth-ill",
            ScenarioFamily::MultiObject => "multi",
            ScenarioFamily::MultiObjectBandwidth => "multi-bandwidth",
        }
    }

    /// Parses a command-line key.
    pub fn from_key(key: &str) -> Option<ScenarioFamily> {
        [
            ScenarioFamily::Bandwidth,
            ScenarioFamily::BandwidthIllScaled,
            ScenarioFamily::MultiObject,
            ScenarioFamily::MultiObjectBandwidth,
        ]
        .into_iter()
        .find(|f| f.key() == key)
    }

    /// Human-readable title for the rendered report.
    pub fn title(self) -> &'static str {
        match self {
            ScenarioFamily::Bandwidth => "Bandwidth-constrained LP bound (mixed headroom links)",
            ScenarioFamily::BandwidthIllScaled => {
                "Ill-scaled bandwidth LP bound (wide-range platform)"
            }
            ScenarioFamily::MultiObject => "Multi-object LP bound (shared capacities)",
            ScenarioFamily::MultiObjectBandwidth => {
                "Multi-object LP bound (shared capacities and links)"
            }
        }
    }
}

/// Full description of a scenario sweep.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// The workload family.
    pub family: ScenarioFamily,
    /// Load factors to evaluate.
    pub lambdas: Vec<f64>,
    /// Random trees per load factor.
    pub trees_per_lambda: usize,
    /// Problem size `s = |C| + |N|` of every instance.
    pub problem_size: usize,
    /// Object types (multi-object families only).
    pub num_objects: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads (`None` = automatic).
    pub threads: Option<usize>,
}

impl ScenarioConfig {
    /// The default sweep of a family: the paper's λ grid at a size the
    /// revised engine bounds in milliseconds.
    pub fn new(family: ScenarioFamily) -> Self {
        ScenarioConfig {
            family,
            lambdas: crate::runner::ExperimentConfig::paper_lambdas(),
            trees_per_lambda: 8,
            problem_size: 150,
            num_objects: 3,
            seed: 20070326,
            threads: None,
        }
    }

    /// A miniature configuration for unit tests.
    pub fn smoke_test(family: ScenarioFamily) -> Self {
        ScenarioConfig {
            lambdas: vec![0.3, 0.7],
            trees_per_lambda: 3,
            problem_size: 30,
            num_objects: 2,
            threads: Some(2),
            ..ScenarioConfig::new(family)
        }
    }
}

/// One (λ, tree) trial of a scenario sweep.
#[derive(Clone, Debug)]
pub struct ScenarioTrial {
    /// Index of the tree within its λ batch.
    pub tree_index: usize,
    /// Solver status of the relaxation. Distinguishes a genuinely
    /// infeasible instance from a truncated (`IterationLimit`) solve —
    /// the latter would otherwise masquerade as infeasibility in the
    /// tables.
    pub status: Status,
    /// The rational LP bound, `None` unless the solve reached
    /// optimality (see `status` for why).
    pub bound: Option<f64>,
    /// Wall-clock of the bound solve (model build excluded).
    pub solve_seconds: f64,
    /// Simplex iterations of the solve.
    pub iterations: usize,
    /// Rows (constraints) of the solved model.
    pub rows: usize,
    /// Columns of the solved model.
    pub cols: usize,
    /// Cost of the LP-guided rounding (`None` = no feasible placement
    /// found — always the case when the relaxation is infeasible).
    pub lp_guided_cost: Option<u64>,
    /// Cost of the classic ensemble: best bandwidth-repaired Section 6
    /// heuristic on single-object families, the validated sequential
    /// greedy on multi-object families.
    pub classic_cost: Option<u64>,
    /// Wall-clock of both heuristic runs together.
    pub heuristics_seconds: f64,
}

/// All trials of one load factor.
#[derive(Clone, Debug)]
pub struct ScenarioBatch {
    /// The load factor.
    pub lambda: f64,
    /// One entry per tree.
    pub trials: Vec<ScenarioTrial>,
}

impl ScenarioBatch {
    /// Fraction of trees whose relaxation solved to optimality (check
    /// [`ScenarioBatch::truncated_count`] to tell genuine
    /// infeasibility apart from solver truncation).
    pub fn feasible_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.bound.is_some()).count() as f64 / self.trials.len() as f64
    }

    /// Number of trials that ended without a definitive verdict
    /// (iteration limit or another non-optimal, non-infeasible status).
    pub fn truncated_count(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| !matches!(t.status, Status::Optimal | Status::Infeasible))
            .count()
    }

    /// Mean bound over the feasible trees.
    pub fn mean_bound(&self) -> Option<f64> {
        let feasible: Vec<f64> = self.trials.iter().filter_map(|t| t.bound).collect();
        if feasible.is_empty() {
            None
        } else {
            Some(feasible.iter().sum::<f64>() / feasible.len() as f64)
        }
    }

    /// Mean solve wall-clock in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        1e3 * self.trials.iter().map(|t| t.solve_seconds).sum::<f64>() / self.trials.len() as f64
    }

    /// Mean simplex iterations.
    pub fn mean_iterations(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(|t| t.iterations).sum::<usize>() as f64 / self.trials.len() as f64
    }

    /// Mean rows × columns of the batch's models (the random trees of
    /// one batch differ in path lengths, so their flow-row counts —
    /// and therefore model sizes — differ too).
    pub fn mean_shape(&self) -> (f64, f64) {
        if self.trials.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.trials.len() as f64;
        (
            self.trials.iter().map(|t| t.rows).sum::<usize>() as f64 / n,
            self.trials.iter().map(|t| t.cols).sum::<usize>() as f64 / n,
        )
    }

    /// Success rate of the LP-guided rounding over **all** trials of
    /// the batch (matching the classic figures, where the LP curve
    /// itself shows what was solvable at all).
    pub fn lp_guided_success_rate(&self) -> f64 {
        self.success_rate_of(|t| t.lp_guided_cost)
    }

    /// Success rate of the classic ensemble over all trials.
    pub fn classic_success_rate(&self) -> f64 {
        self.success_rate_of(|t| t.classic_cost)
    }

    /// Mean cost-vs-LP gap of the LP-guided rounding, as a fraction
    /// (`cost / bound − 1`, averaged over the trials where both exist).
    /// `None` when no trial has both a bound and a rounded cost.
    pub fn lp_guided_gap(&self) -> Option<f64> {
        self.mean_gap_of(|t| t.lp_guided_cost)
    }

    /// Mean cost-vs-LP gap of the classic ensemble.
    pub fn classic_gap(&self) -> Option<f64> {
        self.mean_gap_of(|t| t.classic_cost)
    }

    /// Mean heuristic wall-clock in milliseconds.
    pub fn mean_heuristics_ms(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        1e3 * self
            .trials
            .iter()
            .map(|t| t.heuristics_seconds)
            .sum::<f64>()
            / self.trials.len() as f64
    }

    fn success_rate_of(&self, cost: impl Fn(&ScenarioTrial) -> Option<u64>) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| cost(t).is_some()).count() as f64 / self.trials.len() as f64
    }

    fn mean_gap_of(&self, cost: impl Fn(&ScenarioTrial) -> Option<u64>) -> Option<f64> {
        let gaps: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|t| match (t.bound, cost(t)) {
                (Some(bound), Some(cost)) if bound > 0.0 => Some(cost as f64 / bound - 1.0),
                _ => None,
            })
            .collect();
        if gaps.is_empty() {
            None
        } else {
            Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
        }
    }
}

/// Results of a scenario sweep: one batch per load factor.
#[derive(Clone, Debug)]
pub struct ScenarioResults {
    /// The configuration that produced these results.
    pub config: ScenarioConfig,
    /// One batch per λ, in the order of `config.lambdas`.
    pub batches: Vec<ScenarioBatch>,
}

/// Runs the scenario sweep described by `config`, sharding the
/// **trees** across one worker pool with a pinned LP workspace per
/// worker. A work item is one tree with *all* its λ values: the worker
/// that claims a tree solves its sibling trials back to back on one
/// workspace, so every λ after the first re-solves the same constraint
/// matrix through the warm-start path (an interleaved (λ, tree) queue
/// would scatter the siblings across workers and quietly cold-solve
/// them all).
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioResults {
    let trees: Vec<usize> = (0..config.trees_per_lambda).collect();
    let threads = config
        .threads
        .unwrap_or_else(|| default_threads(trees.len()));
    let per_tree: Vec<Vec<ScenarioTrial>> = parallel_map_with(
        &trees,
        threads,
        LpWorkspace::new,
        |&tree_index, workspace| {
            config
                .lambdas
                .iter()
                .map(|&lambda| run_scenario_trial(config, lambda, tree_index, workspace))
                .collect()
        },
    );
    let mut batches: Vec<ScenarioBatch> = config
        .lambdas
        .iter()
        .map(|&lambda| ScenarioBatch {
            lambda,
            trials: Vec::with_capacity(config.trees_per_lambda),
        })
        .collect();
    for tree_trials in per_tree {
        for (lambda_index, trial) in tree_trials.into_iter().enumerate() {
            batches[lambda_index].trials.push(trial);
        }
    }
    ScenarioResults {
        config: config.clone(),
        batches,
    }
}

/// Runs one (λ, tree) trial on a caller-provided LP workspace: the LP
/// bound first (the warm sibling path), then the two heuristic
/// candidates on the same workspace.
pub fn run_scenario_trial(
    config: &ScenarioConfig,
    lambda: f64,
    tree_index: usize,
    workspace: &mut LpWorkspace,
) -> ScenarioTrial {
    let _span = rp_obs::span(rp_obs::SpanKind::Trial);
    rp_obs::incr(rp_obs::Counter::ExpScenarioTrials);
    let seed = trial_seed(config.seed, tree_index);
    match config.family {
        ScenarioFamily::Bandwidth => {
            let problem = bandwidth_instance(config.problem_size, lambda, seed);
            single_object_trial(&problem, tree_index, workspace)
        }
        ScenarioFamily::BandwidthIllScaled => {
            let problem = ill_scaled_bandwidth_instance(config.problem_size, lambda, seed);
            single_object_trial(&problem, tree_index, workspace)
        }
        ScenarioFamily::MultiObject => {
            let problem =
                multi_object_instance(config.problem_size, config.num_objects, lambda, seed);
            multi_object_trial(&problem, tree_index, workspace)
        }
        ScenarioFamily::MultiObjectBandwidth => {
            let problem = multi_object_bandwidth_instance(
                config.problem_size,
                config.num_objects,
                lambda,
                seed,
            );
            multi_object_trial(&problem, tree_index, workspace)
        }
    }
}

/// The bound solve shared by both trial shapes.
fn solve_bound(
    model: &rp_lp::Model,
    tree_index: usize,
    workspace: &mut LpWorkspace,
) -> ScenarioTrial {
    let span = rp_obs::timed_span(rp_obs::SpanKind::LpBound);
    let solution = workspace
        .revised
        .solve_warm(model, &SimplexOptions::default());
    let solve_seconds = span.finish_seconds();
    let iterations = workspace.revised.last_stats().iterations();
    ScenarioTrial {
        tree_index,
        status: solution.status,
        bound: (solution.status == Status::Optimal).then_some(solution.objective),
        solve_seconds,
        iterations,
        rows: model.num_constraints(),
        cols: model.num_vars(),
        lp_guided_cost: None,
        classic_cost: None,
        heuristics_seconds: 0.0,
    }
}

fn single_object_trial(
    problem: &ProblemInstance,
    tree_index: usize,
    workspace: &mut LpWorkspace,
) -> ScenarioTrial {
    let model = build_model(problem, Policy::Multiple, Integrality::RationalBound).model;
    let mut trial = solve_bound(&model, tree_index, workspace);

    let ilp_options = IlpOptions::default();
    let span = rp_obs::timed_span(rp_obs::SpanKind::HeuristicsPhase);
    // Classic ensemble: best of the eight, bandwidth-repaired.
    trial.classic_cost = Heuristic::BASE
        .iter()
        .filter_map(|&h| BandwidthRepair(h).run(problem).map(|p| p.cost(problem)))
        .min();
    // LP-guided rounding (re-solves the same matrix on the warm path).
    trial.lp_guided_cost =
        lp_guided_reusing(problem, &ilp_options, workspace).map(|p| p.cost(problem));
    trial.heuristics_seconds = span.finish_seconds();
    trial
}

fn multi_object_trial(
    problem: &MultiObjectProblem,
    tree_index: usize,
    workspace: &mut LpWorkspace,
) -> ScenarioTrial {
    let model = build_multi_model(problem, Integrality::RationalBound).model;
    let mut trial = solve_bound(&model, tree_index, workspace);

    let ilp_options = IlpOptions::default();
    let span = rp_obs::timed_span(rp_obs::SpanKind::HeuristicsPhase);
    // Classic ensemble: the sequential greedy, kept only when its
    // placement also fits the shared links (the greedy itself is
    // capacity-only).
    trial.classic_cost = solve_multi_greedy(problem, &MultiGreedyOptions::default())
        .filter(|p| p.is_valid(problem, Policy::Multiple))
        .map(|p| p.cost(problem));
    trial.lp_guided_cost =
        lp_guided_multi_reusing(problem, &ilp_options, workspace).map(|p| p.cost(problem));
    trial.heuristics_seconds = span.finish_seconds();
    trial
}

/// Derives a deterministic per-tree sub-seed. λ is deliberately *not*
/// mixed in: sibling λ trials of one tree share their tree, platform
/// and link-headroom draws (only the demand scales with λ), which keeps
/// their constraint matrices identical and the warm-start path hot.
fn trial_seed(base: u64, tree_index: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((tree_index as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// Renders a scenario sweep as a table: one row per λ, with real
/// success-rate and cost-vs-LP-gap columns for both heuristic
/// candidates (`lpg_*` = LP-guided rounding, `cls_*` = classic
/// ensemble). A `-` appears only where a metric is inapplicable — the
/// gap of a batch in which no trial produced both a bound and a cost.
pub fn scenario_table(results: &ScenarioResults) -> SeriesTable {
    let headers = vec![
        "lambda".to_string(),
        "feasible".to_string(),
        "mean_bound".to_string(),
        "lpg_success".to_string(),
        "lpg_gap_pct".to_string(),
        "cls_success".to_string(),
        "cls_gap_pct".to_string(),
        "mean_ms".to_string(),
        "heur_ms".to_string(),
        "mean_iters".to_string(),
        "mean_rows".to_string(),
        "mean_cols".to_string(),
    ];
    let gap_cell = |gap: Option<f64>| {
        gap.map(|g| format!("{:.1}", 100.0 * g))
            .unwrap_or_else(|| "-".to_string())
    };
    let rows = results
        .batches
        .iter()
        .map(|batch| {
            let (rows, cols) = batch.mean_shape();
            vec![
                format!("{:.1}", batch.lambda),
                format!("{:.2}", batch.feasible_rate()),
                batch
                    .mean_bound()
                    .map(|b| format!("{b:.1}"))
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.2}", batch.lp_guided_success_rate()),
                gap_cell(batch.lp_guided_gap()),
                format!("{:.2}", batch.classic_success_rate()),
                gap_cell(batch.classic_gap()),
                format!("{:.2}", batch.mean_ms()),
                format!("{:.2}", batch.mean_heuristics_ms()),
                format!("{:.0}", batch.mean_iterations()),
                format!("{rows:.0}"),
                format!("{cols:.0}"),
            ]
        })
        .collect();
    SeriesTable { headers, rows }
}

/// Renders the full report (title + table) for `reproduce`.
pub fn scenario_markdown(results: &ScenarioResults) -> String {
    format!(
        "## {}\n\n{}",
        results.config.family.title(),
        scenario_table(results).to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_keys_round_trip() {
        for family in [
            ScenarioFamily::Bandwidth,
            ScenarioFamily::BandwidthIllScaled,
            ScenarioFamily::MultiObject,
            ScenarioFamily::MultiObjectBandwidth,
        ] {
            assert_eq!(ScenarioFamily::from_key(family.key()), Some(family));
            assert!(!family.title().is_empty());
        }
        assert_eq!(ScenarioFamily::from_key("nope"), None);
    }

    #[test]
    fn smoke_scenario_sweeps_produce_consistent_batches() {
        for family in [
            ScenarioFamily::Bandwidth,
            ScenarioFamily::MultiObject,
            ScenarioFamily::MultiObjectBandwidth,
        ] {
            let config = ScenarioConfig::smoke_test(family);
            let results = run_scenario(&config);
            assert_eq!(results.batches.len(), config.lambdas.len());
            for batch in &results.batches {
                assert_eq!(batch.trials.len(), config.trees_per_lambda);
                assert_eq!(batch.truncated_count(), 0, "{family:?}");
                for trial in &batch.trials {
                    assert!(trial.rows > 0, "{family:?}");
                    assert!(trial.cols > 0, "{family:?}");
                    assert!(
                        matches!(trial.status, Status::Optimal | Status::Infeasible),
                        "{family:?}: {:?}",
                        trial.status
                    );
                    if let Some(bound) = trial.bound {
                        assert!(bound.is_finite() && bound >= 0.0, "{family:?}");
                        // Every heuristic cost respects the LP bound.
                        for cost in [trial.lp_guided_cost, trial.classic_cost]
                            .into_iter()
                            .flatten()
                        {
                            assert!(
                                cost as f64 + 1e-6 >= bound,
                                "{family:?}: cost {cost} below bound {bound}"
                            );
                        }
                    } else {
                        // No relaxation, no placements.
                        assert_eq!(trial.lp_guided_cost, None, "{family:?}");
                    }
                }
            }
            // The heuristic columns are genuinely populated: at least
            // one feasible trial must have been rounded successfully.
            let rounded: usize = results
                .batches
                .iter()
                .flat_map(|b| &b.trials)
                .filter(|t| t.lp_guided_cost.is_some())
                .count();
            assert!(rounded > 0, "{family:?}: no LP-guided placements at all");
            let table = scenario_table(&results);
            assert_eq!(table.num_rows(), config.lambdas.len());
            assert!(table.headers.contains(&"lpg_success".to_string()));
            assert!(scenario_markdown(&results).contains(family.title()));
        }
    }

    #[test]
    fn scenario_sweeps_are_deterministic_and_engine_independent() {
        let config = ScenarioConfig::smoke_test(ScenarioFamily::Bandwidth);
        let a = run_scenario(&config);
        let b = run_scenario(&config);
        for (ba, bb) in a.batches.iter().zip(&b.batches) {
            for (ta, tb) in ba.trials.iter().zip(&bb.trials) {
                assert_eq!(ta.bound.is_some(), tb.bound.is_some());
                if let (Some(x), Some(y)) = (ta.bound, tb.bound) {
                    assert!((x - y).abs() < 1e-9);
                }
                // The dense oracle agrees on feasibility and objective.
                let seed = trial_seed(config.seed, ta.tree_index);
                let problem = bandwidth_instance(config.problem_size, ba.lambda, seed);
                let model = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
                let dense = rp_lp::oracle::solve_lp(&model.model);
                let dense = (dense.status == Status::Optimal).then_some(dense.objective);
                assert_eq!(ta.bound.is_some(), dense.is_some(), "λ={}", ba.lambda);
                if let (Some(x), Some(y)) = (ta.bound, dense) {
                    assert!((x - y).abs() < 1e-5 * x.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
    }
}
