//! The experiment runner: generate trees, run every heuristic, compute
//! the LP lower bound, aggregate per load factor.
//!
//! This reproduces the experimental plan of Section 7.2: a set of load
//! factors λ, a number of random trees per λ, and for each tree the
//! per-heuristic cost plus an LP-based lower bound.
//!
//! # Parallel execution model
//!
//! The sweep is sharded across **all** (λ, tree) pairs at once — not
//! per-λ batch — through one shared work queue, so slow λ values never
//! leave workers idle. Every worker thread pins one [`WorkerScratch`]:
//! the `HeuristicState` buffers, the LP workspace of the selected
//! [`LpEngine`], and the previous trial's retired tree (recycled into
//! the next tree's derived arrays). The allocation-free steady state of
//! the solvers therefore holds under the parallel runner as well: after
//! warm-up, a worker's trial allocates only the tree/problem value
//! vectors themselves.
//!
//! # One heuristic pass per trial
//!
//! A trial runs each requested base heuristic once. MixedBest is the
//! cheapest of the eight base costs, so when it is requested all eight
//! run and its cost is their minimum: no second pass, and no pooled
//! MixedBest incumbent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rp_core::heuristics::{HeuristicState, StateBuffers};
use rp_core::ilp::{integral_lower_bound, lower_bound_reusing, BoundKind, IlpOptions};
use rp_core::{Heuristic, ProblemInstance};
use rp_lp::{LpEngine, LpWorkspace};
use rp_tree::TreeNetwork;
use rp_workloads::platform::{generate_problem_split_rng, PlatformKind, WorkloadConfig};
use rp_workloads::tree_gen::{generate_tree_into_with_rng, TreeGenConfig, TreeShape};

use crate::metrics::{LambdaBatch, TrialResult};
use crate::pool::{default_threads, parallel_map_with};

/// Full description of a sweep.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Load factors to evaluate (the paper uses 0.1, 0.2, …, 0.9).
    pub lambdas: Vec<f64>,
    /// Number of random trees per load factor (the paper uses 30).
    pub trees_per_lambda: usize,
    /// Problem sizes are drawn uniformly from this inclusive range.
    pub size_range: (usize, usize),
    /// Tree shape family.
    pub shape: TreeShape,
    /// Server capacity model.
    pub platform: PlatformKind,
    /// Optional uniform QoS bound in hops.
    pub qos_hops: Option<u32>,
    /// Which LP relaxation provides the lower bound.
    pub bound: BoundKind,
    /// Which LP engine solves it (revised simplex by default; the dense
    /// tableau remains available as the differential oracle).
    pub engine: LpEngine,
    /// Base RNG seed; every (λ, tree) pair derives its own sub-seed.
    pub seed: u64,
    /// Worker threads (`None` = automatic).
    pub threads: Option<usize>,
    /// Heuristics to evaluate.
    pub heuristics: Vec<Heuristic>,
}

impl ExperimentConfig {
    /// The paper's λ grid: 0.1, 0.2, …, 0.9.
    pub fn paper_lambdas() -> Vec<f64> {
        (1..=9).map(|i| i as f64 / 10.0).collect()
    }

    /// The default homogeneous sweep (Figures 9 and 10), scaled to sizes
    /// that the bundled LP solver handles comfortably. The paper uses
    /// 15 ≤ s ≤ 400; see EXPERIMENTS.md for the size discussion.
    pub fn homogeneous() -> Self {
        ExperimentConfig {
            lambdas: Self::paper_lambdas(),
            trees_per_lambda: 30,
            size_range: (15, 150),
            shape: TreeShape::RandomAttachment,
            platform: PlatformKind::default_homogeneous(),
            qos_hops: None,
            bound: BoundKind::Rational,
            engine: LpEngine::default(),
            seed: 20070326, // IPPS 2007 kick-off date, for flavour
            threads: None,
            heuristics: Heuristic::ALL.to_vec(),
        }
    }

    /// The default heterogeneous sweep (Figures 11 and 12).
    pub fn heterogeneous() -> Self {
        ExperimentConfig {
            platform: PlatformKind::default_heterogeneous(),
            ..Self::homogeneous()
        }
    }

    /// The full **paper-scale** sweep: problem sizes up to the paper's
    /// `s = 400` (Section 7.2). Tractable only with the revised-simplex
    /// engine — the dense tableau's bound rows make the `s = 400` LP
    /// bound an order of magnitude slower.
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            size_range: (15, rp_workloads::PAPER_SCALE_S),
            engine: LpEngine::Revised,
            ..Self::homogeneous()
        }
    }

    /// A miniature configuration for unit tests and smoke benches.
    pub fn smoke_test() -> Self {
        ExperimentConfig {
            lambdas: vec![0.2, 0.6],
            trees_per_lambda: 4,
            size_range: (12, 24),
            shape: TreeShape::RandomAttachment,
            platform: PlatformKind::default_homogeneous(),
            qos_hops: None,
            bound: BoundKind::Rational,
            engine: LpEngine::default(),
            seed: 7,
            threads: Some(2),
            heuristics: Heuristic::ALL.to_vec(),
        }
    }
}

/// Results of a full sweep: one batch per load factor.
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// The configuration that produced these results.
    pub config: ExperimentConfig,
    /// One batch per λ, in the order of `config.lambdas`.
    pub batches: Vec<LambdaBatch>,
}

/// The per-worker pinned state of the sweep: one allocation set per
/// thread, reused across every trial the worker claims (see the module
/// docs). Create one with [`WorkerScratch::new`] for sequential use, or
/// let [`run_sweep`] pin one per worker.
#[derive(Default)]
pub struct WorkerScratch {
    /// The single heuristic buffer set every base heuristic runs on
    /// (MixedBest reuses their costs and runs nothing of its own).
    buffers: StateBuffers,
    /// LP workspaces of both engines (factorisation, tableau, scratch).
    lp: LpWorkspace,
    /// The previous trial's tree, recycled into the next generation.
    recycled_tree: Option<TreeNetwork>,
}

impl WorkerScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        WorkerScratch::default()
    }
}

/// Runs the full sweep described by `config`, sharding all (λ, tree)
/// pairs across one worker pool.
pub fn run_sweep(config: &ExperimentConfig) -> SweepResults {
    // Flatten every (λ index, tree index) pair into one work list so
    // the λ shards interleave; results are regrouped afterwards (the
    // queue preserves input order in its output). The list is
    // tree-major: all λ values of one tree are adjacent, so a worker
    // claiming consecutive items re-solves the same constraint matrix
    // under different load factors — exactly the sibling pattern the LP
    // workspace warm-starts across (see `generate_trial_problem`).
    let pairs: Vec<(usize, usize)> = (0..config.trees_per_lambda)
        .flat_map(|ti| (0..config.lambdas.len()).map(move |li| (li, ti)))
        .collect();
    let threads = config
        .threads
        .unwrap_or_else(|| default_threads(pairs.len()));
    let trials = parallel_map_with(
        &pairs,
        threads,
        WorkerScratch::new,
        |&(lambda_index, tree_index), scratch| {
            run_single_trial_with(config, config.lambdas[lambda_index], tree_index, scratch)
        },
    );

    let mut batches: Vec<LambdaBatch> = config
        .lambdas
        .iter()
        .map(|&lambda| LambdaBatch {
            lambda,
            trials: Vec::with_capacity(config.trees_per_lambda),
        })
        .collect();
    for (&(lambda_index, _), trial) in pairs.iter().zip(trials) {
        batches[lambda_index].trials.push(trial);
    }
    SweepResults {
        config: config.clone(),
        batches,
    }
}

/// Runs all the trees of a single load factor, in parallel.
pub fn run_lambda_batch(config: &ExperimentConfig, lambda: f64) -> LambdaBatch {
    let indices: Vec<usize> = (0..config.trees_per_lambda).collect();
    let threads = config
        .threads
        .unwrap_or_else(|| default_threads(indices.len()));
    let trials = parallel_map_with(
        &indices,
        threads,
        WorkerScratch::new,
        |&tree_index, scratch| run_single_trial_with(config, lambda, tree_index, scratch),
    );
    LambdaBatch { lambda, trials }
}

/// Generates and evaluates one tree with throwaway scratch state.
pub fn run_single_trial(config: &ExperimentConfig, lambda: f64, tree_index: usize) -> TrialResult {
    run_single_trial_with(config, lambda, tree_index, &mut WorkerScratch::new())
}

/// Generates and evaluates one tree on a worker's pinned scratch state.
pub fn run_single_trial_with(
    config: &ExperimentConfig,
    lambda: f64,
    tree_index: usize,
    scratch: &mut WorkerScratch,
) -> TrialResult {
    let _trial_span = rp_obs::span(rp_obs::SpanKind::Trial);
    rp_obs::incr(rp_obs::Counter::ExpTrials);
    let problem =
        generate_trial_problem_reusing(config, lambda, tree_index, scratch.recycled_tree.take());

    let heuristics_span = rp_obs::timed_span(rp_obs::SpanKind::HeuristicsPhase);
    let heuristic_costs = heuristic_costs(&problem, &config.heuristics, &mut scratch.buffers);
    let heuristics_seconds = heuristics_span.finish_seconds();

    let lp_span = rp_obs::timed_span(rp_obs::SpanKind::LpBound);
    let mut ilp_options = IlpOptions::default();
    ilp_options.branch_bound.engine = config.engine;
    // Storage costs are integral, so the bound can always be rounded up
    // to the next integer; this markedly tightens the fully rational
    // relaxation on Replica Counting instances.
    let lp_bound = lower_bound_reusing(&problem, config.bound, &ilp_options, &mut scratch.lp)
        .map(|raw| integral_lower_bound(raw) as f64);
    let lp_seconds = lp_span.finish_seconds();

    let result = TrialResult {
        tree_index,
        problem_size: problem.tree().problem_size(),
        achieved_lambda: problem.load_factor(),
        lp_bound,
        heuristic_costs,
        lp_seconds,
        heuristics_seconds,
    };

    // Retire the tree into the scratch so the next trial's generation
    // reuses its derived arrays (only possible once the problem — the
    // other Arc holder — is dropped).
    let tree = problem.tree_arc();
    drop(problem);
    scratch.recycled_tree = std::sync::Arc::try_unwrap(tree).ok();
    result
}

/// The cost of each heuristic of `requested`, in that order, with every
/// base heuristic run at most once on `buffers`. MixedBest is the
/// cheapest of the eight base costs (Section 7.3), so requesting it runs
/// all eight.
fn heuristic_costs(
    problem: &ProblemInstance,
    requested: &[Heuristic],
    buffers: &mut StateBuffers,
) -> Vec<(Heuristic, Option<u64>)> {
    let run_all = requested.contains(&Heuristic::MixedBest);
    let base_costs: Vec<(Heuristic, Option<u64>)> = Heuristic::BASE
        .into_iter()
        .filter(|h| run_all || requested.contains(h))
        .map(|h| {
            let mut state = HeuristicState::with_buffers(problem, std::mem::take(buffers));
            let cost = h.run_with(&mut state).then(|| {
                debug_assert!(state.placement().is_valid(problem, h.policy()));
                state.current_cost()
            });
            *buffers = state.into_buffers();
            (h, cost)
        })
        .collect();
    requested
        .iter()
        .map(|&h| {
            let cost = match h {
                Heuristic::MixedBest => base_costs.iter().filter_map(|&(_, cost)| cost).min(),
                base => base_costs
                    .iter()
                    .find(|&&(b, _)| b == base)
                    .and_then(|&(_, cost)| cost),
            };
            (h, cost)
        })
        .collect()
}

/// Generates the problem instance for one (λ, tree index) pair. Exposed
/// so benchmarks can time the solvers on exactly the trees the sweep
/// uses.
pub fn generate_trial_problem(
    config: &ExperimentConfig,
    lambda: f64,
    tree_index: usize,
) -> ProblemInstance {
    generate_trial_problem_reusing(config, lambda, tree_index, None)
}

/// [`generate_trial_problem`], recycling a previous tree's derived
/// arrays into the generated tree.
///
/// The generation is **λ-independent in structure**: the tree, its
/// size and the platform capacities are drawn from a stream keyed to
/// `tree_index` alone, while the request distribution comes from a
/// stream keyed to the (λ, `tree_index`) pair. Sibling trials — one
/// tree under several load factors — therefore share their entire ILP
/// constraint matrix (only right-hand sides, variable bounds and the
/// load-dependent data differ), which is what lets the pinned worker's
/// LP workspace warm-start across them instead of re-solving cold.
pub fn generate_trial_problem_reusing(
    config: &ExperimentConfig,
    lambda: f64,
    tree_index: usize,
    recycled: Option<TreeNetwork>,
) -> ProblemInstance {
    let mut structure_rng = StdRng::seed_from_u64(trial_seed(config.seed, 0.0, tree_index));
    let size = structure_rng.gen_range(config.size_range.0..=config.size_range.1);
    let tree = generate_tree_into_with_rng(
        &TreeGenConfig::with_problem_size(size, config.shape),
        &mut structure_rng,
        recycled,
    );
    let workload = WorkloadConfig {
        platform: config.platform,
        lambda,
        qos_hops: config.qos_hops,
    };
    let mut demand_rng = StdRng::seed_from_u64(trial_seed(config.seed, lambda, tree_index));
    generate_problem_split_rng(tree, &workload, &mut structure_rng, &mut demand_rng)
}

/// Derives a deterministic sub-seed for one trial.
fn trial_seed(base: u64, lambda: f64, tree_index: usize) -> u64 {
    // Mix with two large odd constants (splitmix-style) so that nearby
    // (λ, index) pairs get unrelated streams.
    let lambda_bits = (lambda * 1000.0).round() as u64;
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lambda_bits.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((tree_index as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::Policy;

    #[test]
    fn smoke_sweep_produces_consistent_batches() {
        let config = ExperimentConfig::smoke_test();
        let results = run_sweep(&config);
        assert_eq!(results.batches.len(), config.lambdas.len());
        for (batch, &lambda) in results.batches.iter().zip(&config.lambdas) {
            assert_eq!(batch.lambda, lambda);
            assert_eq!(batch.trials.len(), config.trees_per_lambda);
            for trial in &batch.trials {
                assert!(trial.problem_size >= config.size_range.0);
                assert!(trial.problem_size <= config.size_range.1);
                // Achieved λ tracks the target.
                assert!((trial.achieved_lambda - lambda).abs() < 0.1);
            }
        }
    }

    #[test]
    fn sweeps_are_deterministic_in_the_seed() {
        let config = ExperimentConfig::smoke_test();
        let a = run_sweep(&config);
        let b = run_sweep(&config);
        for (ba, bb) in a.batches.iter().zip(&b.batches) {
            for (ta, tb) in ba.trials.iter().zip(&bb.trials) {
                assert_eq!(ta.problem_size, tb.problem_size);
                assert_eq!(ta.heuristic_costs, tb.heuristic_costs);
                assert_eq!(
                    ta.lp_bound.map(|v| (v * 1e6).round()),
                    tb.lp_bound.map(|v| (v * 1e6).round())
                );
            }
        }
    }

    #[test]
    fn sharded_sweep_matches_per_batch_and_per_trial_runs() {
        // The λ-sharded pool with pinned worker state must agree with
        // the one-λ-at-a-time path and with isolated per-trial runs.
        let config = ExperimentConfig {
            threads: Some(3),
            ..ExperimentConfig::smoke_test()
        };
        let sharded = run_sweep(&config);
        for (batch, &lambda) in sharded.batches.iter().zip(&config.lambdas) {
            let solo_batch = run_lambda_batch(&config, lambda);
            for (trial, solo) in batch.trials.iter().zip(&solo_batch.trials) {
                assert_eq!(trial.heuristic_costs, solo.heuristic_costs);
                assert_eq!(trial.lp_bound, solo.lp_bound);
                let isolated = run_single_trial(&config, lambda, trial.tree_index);
                assert_eq!(trial.heuristic_costs, isolated.heuristic_costs);
                assert_eq!(trial.lp_bound, isolated.lp_bound);
            }
        }
    }

    #[test]
    fn dense_and_revised_engines_agree_on_the_smoke_sweep() {
        let revised = run_sweep(&ExperimentConfig {
            engine: LpEngine::Revised,
            ..ExperimentConfig::smoke_test()
        });
        let dense = run_sweep(&ExperimentConfig {
            engine: LpEngine::DenseTableau,
            ..ExperimentConfig::smoke_test()
        });
        for (br, bd) in revised.batches.iter().zip(&dense.batches) {
            for (tr, td) in br.trials.iter().zip(&bd.trials) {
                assert_eq!(
                    tr.lp_bound, td.lp_bound,
                    "λ={} tree {}",
                    br.lambda, tr.tree_index
                );
                assert_eq!(tr.heuristic_costs, td.heuristic_costs);
            }
        }
    }

    #[test]
    fn lower_bound_never_exceeds_any_heuristic_cost() {
        let config = ExperimentConfig::smoke_test();
        let results = run_sweep(&config);
        for batch in &results.batches {
            for trial in &batch.trials {
                if let Some(bound) = trial.lp_bound {
                    for (h, cost) in &trial.heuristic_costs {
                        if let Some(cost) = cost {
                            assert!(
                                bound <= *cost as f64 + 1e-6,
                                "λ={} tree {}: bound {bound} > {h} cost {cost}",
                                batch.lambda,
                                trial.tree_index
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mg_succeeds_exactly_when_the_lp_is_feasible() {
        let config = ExperimentConfig::smoke_test();
        let results = run_sweep(&config);
        for batch in &results.batches {
            for trial in &batch.trials {
                assert_eq!(
                    trial.solvable(),
                    trial.cost_of(Heuristic::Mg).is_some(),
                    "λ={} tree {}",
                    batch.lambda,
                    trial.tree_index
                );
            }
        }
    }

    #[test]
    fn mixed_best_matches_the_full_sweep_on_every_smoke_trial() {
        for platform in [
            PlatformKind::default_homogeneous(),
            PlatformKind::default_heterogeneous(),
        ] {
            let config = ExperimentConfig {
                platform,
                ..ExperimentConfig::smoke_test()
            };
            let mut driver = rp_core::MixedBest::new();
            for batch in &run_sweep(&config).batches {
                for trial in &batch.trials {
                    let problem = generate_trial_problem(&config, batch.lambda, trial.tree_index);
                    let expected = driver.full_sweep(&problem).map(|p| p.cost(&problem));
                    assert_eq!(
                        trial.cost_of(Heuristic::MixedBest),
                        expected,
                        "{platform:?} λ={} tree {}",
                        batch.lambda,
                        trial.tree_index
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_best_is_the_minimum_over_all_eight_even_when_fewer_are_requested() {
        let config = ExperimentConfig::smoke_test();
        let all = run_sweep(&config);
        let partial = run_sweep(&ExperimentConfig {
            heuristics: vec![Heuristic::Cbu, Heuristic::MixedBest],
            ..config
        });
        let mut cbu_not_best = 0;
        for (ba, bp) in all.batches.iter().zip(&partial.batches) {
            for (ta, tp) in ba.trials.iter().zip(&bp.trials) {
                let requested: Vec<_> = tp.heuristic_costs.iter().map(|&(h, _)| h).collect();
                assert_eq!(requested, [Heuristic::Cbu, Heuristic::MixedBest]);
                assert_eq!(tp.cost_of(Heuristic::Cbu), ta.cost_of(Heuristic::Cbu));
                assert_eq!(
                    tp.cost_of(Heuristic::MixedBest),
                    ta.cost_of(Heuristic::MixedBest),
                    "λ={} tree {}",
                    ba.lambda,
                    ta.tree_index
                );
                cbu_not_best +=
                    usize::from(ta.cost_of(Heuristic::Cbu) != ta.cost_of(Heuristic::MixedBest));
            }
        }
        // Some trial tells a minimum over {CBU} apart from one over all eight.
        assert!(cbu_not_best > 0);
    }

    #[test]
    fn generated_trial_problems_match_the_platform_kind() {
        let config = ExperimentConfig {
            platform: PlatformKind::default_heterogeneous(),
            ..ExperimentConfig::smoke_test()
        };
        let p = generate_trial_problem(&config, 0.4, 0);
        assert_eq!(p.kind(), rp_core::ProblemKind::ReplicaCost);
        let placement = Heuristic::Mg.run(&p);
        if let Some(placement) = placement {
            assert!(placement.is_valid(&p, Policy::Multiple));
        }
    }

    #[test]
    fn sibling_trials_share_structure_but_not_demand() {
        // One tree index under two load factors: same tree, same
        // capacities, same storage costs — the constraint matrix the LP
        // warm start relies on — but a λ-dependent request vector.
        let config = ExperimentConfig {
            platform: PlatformKind::default_heterogeneous(),
            ..ExperimentConfig::smoke_test()
        };
        let low = generate_trial_problem(&config, 0.2, 3);
        let high = generate_trial_problem(&config, 0.6, 3);
        assert_eq!(low.tree().problem_size(), high.tree().problem_size());
        assert_eq!(low.tree().num_nodes(), high.tree().num_nodes());
        let nodes: Vec<_> = low.tree().node_ids().collect();
        for &node in &nodes {
            assert_eq!(low.capacity(node), high.capacity(node), "{node}");
            assert_eq!(low.storage_cost(node), high.storage_cost(node), "{node}");
        }
        let low_total: u64 = low.tree().client_ids().map(|c| low.requests(c)).sum();
        let high_total: u64 = high.tree().client_ids().map(|c| high.requests(c)).sum();
        assert!(
            high_total > low_total,
            "λ=0.6 should demand more than λ=0.2 ({high_total} vs {low_total})"
        );
    }

    #[test]
    fn paper_scale_config_reaches_s_400() {
        let config = ExperimentConfig::paper_scale();
        assert_eq!(config.size_range.1, 400);
        assert_eq!(config.engine, LpEngine::Revised);
    }

    #[test]
    fn trial_seeds_differ_across_lambdas_and_indices() {
        let s1 = trial_seed(1, 0.1, 0);
        let s2 = trial_seed(1, 0.2, 0);
        let s3 = trial_seed(1, 0.1, 1);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s2, s3);
    }
}
