//! The experiment runner: generate trees, run every heuristic, compute
//! the LP lower bound, aggregate per load factor.
//!
//! This reproduces the experimental plan of Section 7.2: a set of load
//! factors λ, a number of random trees per λ, and for each tree the
//! per-heuristic cost plus an LP-based lower bound.
//!
//! # Parallel execution model
//!
//! [`run_sweep`] hands out one **tree** per work item, with all its λ
//! values in λ order, through one shared work queue, so a worker runs
//! the λ-siblings of a tree back to back and slow trees never leave
//! other workers idle. With fewer trees than workers, each tree is cut
//! into as few runs of adjacent λ values as give every worker an item;
//! each run's first trial then draws its tree afresh. Results are
//! regrouped per λ afterwards. Which worker runs an item never changes
//! a result, and every sibling after the first of a run finds its
//! tree's state on the worker that runs it.
//!
//! Every worker thread pins one [`WorkerScratch`]: the `HeuristicState`
//! buffers, the LP workspace, and what the last trial drew for its
//! tree. The allocation-free steady state of the heuristics therefore
//! holds under the parallel runner as well.
//!
//! # What a worker keeps per tree
//!
//! A trial's tree, its capacities and its bound formulation depend on
//! the configuration's seed, size range, shape, platform, QoS bound and
//! bound kind and on the tree index, never on λ
//! ([`generate_trial_problem_reusing`]). The scratch keeps all three
//! for the tree it ran last, keyed by exactly those fields. A trial
//! with the same key, a **λ-sibling**, draws only its requests (the
//! same instance, bit for bit, as a fresh generation) and, when its
//! bound needs an LP, re-targets the kept formulation to them
//! ([`rp_core::ilp::IlpFormulation::retarget_requests`]), so the LP
//! warm start re-solves the very model it solved last. A trial with
//! any other key lets the kept state go and recycles the old tree's
//! arrays into the new tree. The `exp.sibling_trials` counter counts
//! the trials that reused the kept state.
//!
//! # One heuristic pass per trial
//!
//! A trial runs each requested base heuristic once. MixedBest is the
//! cheapest of the eight base costs, so when it is requested all eight
//! run and its cost is their minimum: no second pass, and no pooled
//! MixedBest incumbent.
//!
//! # An infeasible trial
//!
//! Right after the demand draw, a trial runs the exact Multiple
//! feasibility pass ([`multiple_is_feasible`], O(s log s), with QoS
//! bounds and bandwidths). When it fails, no heuristic and no LP run:
//! every requested heuristic and the bound report `None`, as they would
//! have. A Closest or Upwards placement is also a Multiple one, so no
//! heuristic could succeed; the rational relaxation is infeasible since
//! the pass is exact, and so is the mixed one, since setting every `x`
//! to 1 keeps a rational solution feasible. The kept formulation and LP
//! workspace stay as they are: the next feasible sibling re-targets and
//! re-solves them, and a tree whose first trials are all settled builds
//! its formulation on its first feasible one. `exp.infeasible_trials`
//! counts the settled trials.
//!
//! # A feasible trial's rational bound
//!
//! When the pass accepts and the sweep asks for the rational bound, a
//! trial whose storage costs are proportional to its capacities (both
//! paper platforms: `s_j = 1, W_j = W` and `s_j = W_j`) takes the
//! relaxation's exact optimum in closed form, `c·Σ r_i`
//! ([`rational_relaxation_optimum`], whose doc has the proof), and
//! rounds it as an LP optimum is rounded. The LP would add only a
//! feasibility verdict, and the exact pass has given it. Such a trial
//! builds and solves no model, so the kept formulation and LP workspace
//! stay as they are; `exp.closed_form_bounds` counts these trials. The
//! mixed bound, and a rational bound with other costs, build or
//! re-target the kept formulation and solve it ([`relaxation_bound`]).

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rp_core::bounds::{multiple_is_feasible, rational_relaxation_optimum};
use rp_core::heuristics::{HeuristicState, StateBuffers};
use rp_core::ilp::{
    build_model, integral_lower_bound, relaxation_bound, BoundKind, IlpFormulation, IlpOptions,
};
use rp_core::{Heuristic, Policy, ProblemInstance};
use rp_lp::LpWorkspace;
use rp_tree::TreeNetwork;
use rp_workloads::platform::{draw_capacities, draw_demand, PlatformKind, WorkloadConfig};
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

    /// The default homogeneous sweep (Figures 9 and 10), at
    /// 15 ≤ s ≤ 150. The paper uses 15 ≤ s ≤ 400, which
    /// [`ExperimentConfig::paper_scale`] reproduces.
    pub fn homogeneous() -> Self {
        ExperimentConfig {
            lambdas: Self::paper_lambdas(),
            trees_per_lambda: 30,
            size_range: (15, 150),
            shape: TreeShape::RandomAttachment,
            platform: PlatformKind::default_homogeneous(),
            qos_hops: None,
            bound: BoundKind::Rational,
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
    /// `s = 400` (Section 7.2).
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            size_range: (15, rp_workloads::PAPER_SCALE_S),
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
/// thread, reused across every trial the worker claims, plus the tree,
/// capacities and bound formulation of the last trial (see the module
/// docs). Create one with [`WorkerScratch::new`] for sequential use, or
/// let [`run_sweep`] pin one per worker.
#[derive(Default)]
pub struct WorkerScratch {
    /// The single heuristic buffer set every base heuristic runs on
    /// (MixedBest reuses their costs and runs nothing of its own).
    buffers: StateBuffers,
    /// The LP workspace (factorisation, basis, scratch).
    lp: LpWorkspace,
    /// What the last trial drew for its tree, for its λ-siblings.
    kept: Option<KeptTree>,
}

impl WorkerScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        WorkerScratch::default()
    }
}

/// Every configuration field that decides a trial's tree, capacities
/// and bound formulation, plus the tree index: two trials with equal
/// keys differ in λ alone.
#[derive(Clone, Copy, PartialEq, Debug)]
struct TreeKey {
    seed: u64,
    tree_index: usize,
    size_range: (usize, usize),
    shape: TreeShape,
    platform: PlatformKind,
    qos_hops: Option<u32>,
    bound: BoundKind,
}

impl TreeKey {
    fn new(config: &ExperimentConfig, tree_index: usize) -> Self {
        TreeKey {
            seed: config.seed,
            tree_index,
            size_range: config.size_range,
            shape: config.shape,
            platform: config.platform,
            qos_hops: config.qos_hops,
            bound: config.bound,
        }
    }
}

/// The tree a worker ran last, with its drawn capacities and its bound
/// formulation (`None` until the tree's first trial builds it).
struct KeptTree {
    key: TreeKey,
    tree: Arc<TreeNetwork>,
    capacities: Vec<u64>,
    formulation: Option<IlpFormulation>,
}

/// Runs the full sweep described by `config`, sharding the trees across
/// one worker pool. A work item is a run of adjacent λ values of one
/// tree, run in λ order on the claiming worker's scratch, so every λ
/// of a run after the first is a sibling of the trial before it (see
/// the module docs). A run holds all of its tree's λ values unless
/// there are fewer trees than workers.
pub fn run_sweep(config: &ExperimentConfig) -> SweepResults {
    let (trees, lambdas) = (config.trees_per_lambda, config.lambdas.len());
    let threads = config
        .threads
        .unwrap_or_else(|| default_threads(trees * lambdas));
    let runs = sweep_runs(trees, lambdas, threads);
    let per_run: Vec<Vec<TrialResult>> = parallel_map_with(
        &runs,
        threads,
        WorkerScratch::new,
        |(tree_index, run), scratch| {
            config.lambdas[run.clone()]
                .iter()
                .map(|&lambda| run_single_trial_with(config, lambda, *tree_index, scratch))
                .collect()
        },
    );

    // The runs are tree-major, so every batch receives its trials in
    // tree order.
    let mut batches: Vec<LambdaBatch> = config
        .lambdas
        .iter()
        .map(|&lambda| LambdaBatch {
            lambda,
            trials: Vec::with_capacity(trees),
        })
        .collect();
    for ((_, run), trials) in runs.iter().zip(per_run) {
        for (lambda_index, trial) in run.clone().zip(trials) {
            batches[lambda_index].trials.push(trial);
        }
    }
    SweepResults {
        config: config.clone(),
        batches,
    }
}

/// The work items of a sweep: runs of adjacent λ indices of one tree,
/// tree-major. Each tree is cut into as few runs as still give each of
/// the `threads` workers an item, so a tree is one run unless there are
/// fewer trees than workers.
fn sweep_runs(trees: usize, lambdas: usize, threads: usize) -> Vec<(usize, Range<usize>)> {
    let per_tree = threads.div_ceil(trees.max(1)).clamp(1, lambdas.max(1));
    let bound = move |k: usize| k * lambdas / per_tree;
    (0..trees)
        .flat_map(|tree_index| (0..per_tree).map(move |k| (tree_index, bound(k)..bound(k + 1))))
        // Without λ values the one run per tree is empty.
        .filter(|(_, run)| !run.is_empty())
        .collect()
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
/// A λ-sibling of the scratch's last trial reuses its tree, capacities
/// and formulation; any other trial draws them afresh. A trial the
/// feasibility pass settles runs no heuristic and no LP, and a feasible
/// one whose rational bound has a closed form runs no LP (see the
/// module docs). Either way the result equals [`run_single_trial`]'s.
pub fn run_single_trial_with(
    config: &ExperimentConfig,
    lambda: f64,
    tree_index: usize,
    scratch: &mut WorkerScratch,
) -> TrialResult {
    let _trial_span = rp_obs::span(rp_obs::SpanKind::Trial);
    rp_obs::incr(rp_obs::Counter::ExpTrials);
    let key = TreeKey::new(config, tree_index);
    let mut kept = match scratch.kept.take() {
        Some(kept) if kept.key == key => {
            rp_obs::incr(rp_obs::Counter::ExpSiblingTrials);
            kept
        }
        evicted => {
            // The problem that shared the old tree is gone, so the kept
            // handle is the last one and its arrays can be recycled.
            let recycled = evicted.and_then(|kept| Arc::try_unwrap(kept.tree).ok());
            let (tree, capacities) = draw_trial_platform(config, tree_index, recycled);
            KeptTree {
                key,
                tree: Arc::new(tree),
                capacities,
                formulation: None,
            }
        }
    };
    let problem = draw_trial_demand(
        config,
        lambda,
        tree_index,
        Arc::clone(&kept.tree),
        kept.capacities.clone(),
    );

    // The exact pass settles a trial that no placement of any policy
    // serves: neither relaxation is feasible then, so nothing else runs
    // and the kept state stays as it is (see the module docs).
    let pass = Instant::now();
    if !multiple_is_feasible(&problem) {
        rp_obs::incr(rp_obs::Counter::ExpInfeasibleTrials);
        let lp_seconds = pass.elapsed().as_secs_f64();
        scratch.kept = Some(kept);
        return TrialResult {
            tree_index,
            problem_size: problem.tree().problem_size(),
            achieved_lambda: problem.load_factor(),
            lp_bound: None,
            heuristic_costs: config.heuristics.iter().map(|&h| (h, None)).collect(),
            lp_seconds,
            heuristics_seconds: 0.0,
        };
    }

    let heuristics_span = rp_obs::timed_span(rp_obs::SpanKind::HeuristicsPhase);
    let heuristic_costs = heuristic_costs(&problem, &config.heuristics, &mut scratch.buffers);
    let heuristics_seconds = heuristics_span.finish_seconds();

    let lp_span = rp_obs::timed_span(rp_obs::SpanKind::LpBound);
    // Storage costs are integral, so the bound can always be rounded up
    // to the next integer; this markedly tightens the fully rational
    // relaxation on Replica Counting instances.
    let lp_bound = trial_bound(
        &problem,
        config.bound,
        &mut kept.formulation,
        &mut scratch.lp,
    )
    .map(|raw| integral_lower_bound(raw) as f64);
    let lp_seconds = lp_span.finish_seconds();
    // The pass accepted, so an infeasible verdict would be an LP false
    // negative.
    debug_assert!(
        lp_bound.is_some(),
        "λ={lambda} tree {tree_index}: the pass accepts, the LP says infeasible"
    );

    let result = TrialResult {
        tree_index,
        problem_size: problem.tree().problem_size(),
        achieved_lambda: problem.load_factor(),
        lp_bound,
        heuristic_costs,
        lp_seconds,
        heuristics_seconds,
    };
    scratch.kept = Some(kept);
    result
}

/// The bound `kind` of a trial's feasible `problem`, unrounded: the
/// closed-form optimum where the rational relaxation has one, and
/// otherwise the relaxation of the kept `formulation` (built on first
/// use, re-targeted to `problem` after) solved on `lp`.
fn trial_bound(
    problem: &ProblemInstance,
    kind: BoundKind,
    formulation: &mut Option<IlpFormulation>,
    lp: &mut LpWorkspace,
) -> Option<f64> {
    let closed_form = match kind {
        BoundKind::Rational => rational_relaxation_optimum(problem),
        BoundKind::Mixed => None,
    };
    if closed_form.is_some() {
        rp_obs::incr(rp_obs::Counter::ExpClosedFormBounds);
        return closed_form;
    }
    let formulation = match formulation {
        Some(formulation) => {
            formulation.retarget_requests(problem);
            formulation
        }
        slot => slot.insert(build_model(problem, Policy::Multiple, kind.integrality())),
    };
    relaxation_bound(&formulation.model, kind, &IlpOptions::default(), lp)
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
/// size and the platform capacities (the platform draw,
/// [`draw_capacities`]) come from a stream keyed to `tree_index`
/// alone, while the requests (the demand draw, [`draw_demand`]) come
/// from a stream keyed to the (λ, `tree_index`) pair. Sibling trials —
/// one tree under several load factors — therefore share their tree,
/// their capacities and their entire ILP constraint matrix (only the
/// coverage right-hand sides and the `y` upper bounds differ). A sweep
/// worker draws the first two once per tree and re-targets the third
/// (see the module docs); this function draws everything, and gives
/// the same instance.
pub fn generate_trial_problem_reusing(
    config: &ExperimentConfig,
    lambda: f64,
    tree_index: usize,
    recycled: Option<TreeNetwork>,
) -> ProblemInstance {
    let (tree, capacities) = draw_trial_platform(config, tree_index, recycled);
    draw_trial_demand(config, lambda, tree_index, tree, capacities)
}

/// The λ-independent half of a trial: its tree and the platform
/// capacities, from the stream keyed to `tree_index`.
fn draw_trial_platform(
    config: &ExperimentConfig,
    tree_index: usize,
    recycled: Option<TreeNetwork>,
) -> (TreeNetwork, Vec<u64>) {
    let mut structure_rng = StdRng::seed_from_u64(trial_seed(config.seed, 0.0, tree_index));
    let size = structure_rng.gen_range(config.size_range.0..=config.size_range.1);
    let tree = generate_tree_into_with_rng(
        &TreeGenConfig::with_problem_size(size, config.shape),
        &mut structure_rng,
        recycled,
    );
    let capacities = draw_capacities(&tree, config.platform, &mut structure_rng);
    (tree, capacities)
}

/// The λ-dependent half of a trial: the requests over `tree` and its
/// `capacities`, from the stream keyed to the (λ, `tree_index`) pair.
fn draw_trial_demand(
    config: &ExperimentConfig,
    lambda: f64,
    tree_index: usize,
    tree: impl Into<Arc<TreeNetwork>>,
    capacities: Vec<u64>,
) -> ProblemInstance {
    let workload = WorkloadConfig {
        platform: config.platform,
        lambda,
        qos_hops: config.qos_hops,
    };
    let mut demand_rng = StdRng::seed_from_u64(trial_seed(config.seed, lambda, tree_index));
    draw_demand(tree, &workload, capacities, &mut demand_rng)
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
        // The tree-sharded pool with pinned worker state must agree with
        // the one-λ-at-a-time path and with isolated per-trial runs,
        // whatever the number of workers, also with fewer trees than
        // workers (trees cut into runs), and regroup every batch in tree
        // order. The sizes straddle the 50-row presolve threshold.
        for (trees, threads) in [(5, 2), (5, 3), (5, 5), (3, 5), (1, 4)] {
            let config = ExperimentConfig {
                lambdas: vec![0.3, 0.6, 0.9],
                trees_per_lambda: trees,
                size_range: (20, 80),
                threads: Some(threads),
                ..ExperimentConfig::smoke_test()
            };
            let sharded = run_sweep(&config);
            for (batch, &lambda) in sharded.batches.iter().zip(&config.lambdas) {
                let trees: Vec<usize> = batch.trials.iter().map(|t| t.tree_index).collect();
                assert_eq!(trees, (0..config.trees_per_lambda).collect::<Vec<_>>());
                let solo_batch = run_lambda_batch(&config, lambda);
                for (trial, solo) in batch.trials.iter().zip(&solo_batch.trials) {
                    assert_eq!(answers(trial), answers(solo));
                    let isolated = run_single_trial(&config, lambda, trial.tree_index);
                    assert_eq!(answers(trial), answers(&isolated));
                }
            }
        }
    }

    #[test]
    fn sweep_runs_cover_every_trial_once_and_feed_every_worker() {
        for trees in 0..7 {
            for lambdas in 0..10 {
                for threads in 1..12 {
                    let runs = sweep_runs(trees, lambdas, threads);
                    let pairs: Vec<(usize, usize)> = runs
                        .iter()
                        .flat_map(|(tree, run)| run.clone().map(move |li| (*tree, li)))
                        .collect();
                    let expected: Vec<(usize, usize)> = (0..trees)
                        .flat_map(|tree| (0..lambdas).map(move |li| (tree, li)))
                        .collect();
                    assert_eq!(pairs, expected, "{trees} trees, {lambdas} λ, {threads}");
                    assert!(runs.iter().all(|(_, run)| !run.is_empty()));
                    // Every worker gets an item, and a tree is cut only
                    // when there are fewer trees than workers.
                    assert!(runs.len() >= threads.min(trees * lambdas));
                    if trees >= threads && lambdas > 0 {
                        assert_eq!(runs.len(), trees);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_and_revised_engines_agree_on_the_smoke_sweep() {
        use rp_core::ilp::{build_model, Integrality};
        use rp_lp::{oracle, Status};

        let config = ExperimentConfig::smoke_test();
        let revised = run_sweep(&config);
        for br in &revised.batches {
            for tr in &br.trials {
                // The regenerated instance is the trial's own: the same
                // heuristic costs, and the oracle's bound of its
                // relaxation, rounded as the sweep rounds.
                let problem = generate_trial_problem(&config, br.lambda, tr.tree_index);
                let model = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
                let dense = oracle::solve_lp(&model.model);
                let dense_bound = match dense.status {
                    Status::Optimal => Some(dense.objective),
                    Status::Infeasible => None,
                    _ => Some(0.0),
                };
                let dense_bound = dense_bound.map(|raw| integral_lower_bound(raw) as f64);
                assert_eq!(
                    tr.lp_bound, dense_bound,
                    "λ={} tree {}",
                    br.lambda, tr.tree_index
                );
                let buffers = &mut StateBuffers::default();
                let dense_costs = heuristic_costs(&problem, &config.heuristics, buffers);
                assert_eq!(tr.heuristic_costs, dense_costs);
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

    /// Size, achieved λ, heuristic costs and LP bound of a trial.
    type Answers<'a> = (usize, f64, &'a [(Heuristic, Option<u64>)], Option<f64>);

    /// The fields of a trial result that the scratch must not change.
    fn answers(trial: &TrialResult) -> Answers<'_> {
        (
            trial.problem_size,
            trial.achieved_lambda,
            &trial.heuristic_costs,
            trial.lp_bound,
        )
    }

    #[test]
    fn a_sibling_draw_is_the_fresh_instance_bit_for_bit() {
        let config = ExperimentConfig {
            platform: PlatformKind::default_heterogeneous(),
            qos_hops: Some(3),
            ..ExperimentConfig::smoke_test()
        };
        let (tree, capacities) = draw_trial_platform(&config, 2, None);
        let tree = Arc::new(tree);
        for lambda in [0.9, 0.1, 0.4, 0.9] {
            let sibling =
                draw_trial_demand(&config, lambda, 2, Arc::clone(&tree), capacities.clone());
            let fresh = generate_trial_problem(&config, lambda, 2);
            assert_eq!(format!("{sibling:?}"), format!("{fresh:?}"), "λ={lambda}");
        }
    }

    #[test]
    fn one_scratch_in_any_order_matches_fresh_trials() {
        // Trees on both sides of the 50-row presolve threshold (a trial's
        // LP has s rows), and configurations that share tree indices but
        // differ in exactly one field of the kept-tree key.
        let base = ExperimentConfig {
            size_range: (20, 80),
            platform: PlatformKind::default_heterogeneous(),
            ..ExperimentConfig::smoke_test()
        };
        let sizes: Vec<usize> = (0..4)
            .map(|t| generate_trial_problem(&base, 0.5, t).tree().problem_size())
            .collect();
        assert!(
            sizes.iter().any(|&s| s < 50) && sizes.iter().any(|&s| s >= 50),
            "{sizes:?}"
        );
        let reseeded = ExperimentConfig {
            seed: base.seed + 1,
            ..base.clone()
        };
        let homogeneous = ExperimentConfig {
            platform: PlatformKind::default_homogeneous(),
            ..base.clone()
        };
        let qos = ExperimentConfig {
            qos_hops: Some(2),
            ..base.clone()
        };
        let mixed = ExperimentConfig {
            bound: BoundKind::Mixed,
            ..base.clone()
        };
        let mut order: Vec<(&ExperimentConfig, f64, usize)> = Vec::new();
        // Tree-major siblings, then a repeated λ, a descending λ run and
        // a tree revisited after eviction.
        for tree in 0..4 {
            for lambda in [0.2, 0.5, 0.8] {
                order.push((&base, lambda, tree));
            }
        }
        order.extend([
            (&base, 0.8, 3),
            (&base, 0.5, 3),
            (&base, 0.5, 3),
            (&base, 0.2, 1),
            (&base, 0.8, 0),
            (&base, 0.2, 1),
        ]);
        // A change of one key field at a shared tree index, back and
        // forth, with siblings on each side.
        for &tree in &[0, 2] {
            for other in [&reseeded, &homogeneous, &qos, &mixed] {
                order.extend([
                    (&base, 0.4, tree),
                    (other, 0.4, tree),
                    (other, 0.7, tree),
                    (&base, 0.7, tree),
                ]);
            }
        }
        let mut scratch = WorkerScratch::new();
        for &(config, lambda, tree) in &order {
            let kept = run_single_trial_with(config, lambda, tree, &mut scratch);
            let fresh = run_single_trial(config, lambda, tree);
            assert_eq!(
                answers(&kept),
                answers(&fresh),
                "λ={lambda} tree {tree} {:?} {:?} {:?}",
                config.platform,
                config.qos_hops,
                config.bound
            );
        }
    }

    #[test]
    fn settled_trials_in_any_order_match_the_reference() {
        // High-λ heterogeneous trees at 20 ≤ s ≤ 80, where the
        // feasibility pass settles many trials: settled trials come first
        // for their tree, between feasible siblings and after a
        // descending λ step, on one scratch. Each result must equal a
        // reference on the generated instance: every base heuristic on
        // fresh buffers, and the bound on a fresh build and workspace.
        let base = ExperimentConfig {
            size_range: (20, 80),
            platform: PlatformKind::default_heterogeneous(),
            ..ExperimentConfig::smoke_test()
        };
        let qos = ExperimentConfig {
            qos_hops: Some(2),
            ..base.clone()
        };
        let mixed = ExperimentConfig {
            bound: BoundKind::Mixed,
            ..base.clone()
        };
        let order: Vec<(&ExperimentConfig, usize, &[f64])> = vec![
            (&base, 0, &[0.9, 0.8, 0.5, 0.9]),
            (&base, 1, &[0.6, 0.7, 0.8, 0.9, 0.3]),
            (&base, 7, &[0.7, 0.9, 0.8, 0.2]),
            (&base, 4, &[0.9]),
            (&base, 0, &[0.5]),
            (&base, 6, &[0.8, 0.9]),
            (&base, 5, &[0.3, 0.8]),
            (&qos, 7, &[0.4, 0.5, 0.6, 0.9, 0.1]),
            (&qos, 0, &[0.9, 0.2]),
            (&mixed, 1, &[0.9, 0.8, 0.7, 0.6]),
            (&mixed, 3, &[0.9, 0.2]),
        ];
        let reference = |config: &ExperimentConfig, lambda: f64, tree: usize| {
            let problem = generate_trial_problem(config, lambda, tree);
            let base: Vec<Option<u64>> = Heuristic::BASE
                .iter()
                .map(|h| h.run(&problem).map(|p| p.cost(&problem)))
                .collect();
            let costs: Vec<(Heuristic, Option<u64>)> = config
                .heuristics
                .iter()
                .map(|&h| match Heuristic::BASE.iter().position(|&b| b == h) {
                    Some(i) => (h, base[i]),
                    None => (h, base.iter().flatten().min().copied()),
                })
                .collect();
            let bound =
                rp_core::ilp::lower_bound_with(&problem, config.bound, &IlpOptions::default())
                    .map(|raw| integral_lower_bound(raw) as f64);
            (
                problem.tree().problem_size(),
                problem.load_factor(),
                costs,
                bound,
            )
        };

        let mut scratch = WorkerScratch::new();
        let (mut settled, mut settled_then_feasible) = (0, 0);
        let mut last: Option<(&ExperimentConfig, usize, bool)> = None;
        for &(config, tree, lambdas) in &order {
            for &lambda in lambdas {
                let trial = run_single_trial_with(config, lambda, tree, &mut scratch);
                let (size, achieved, costs, bound) = reference(config, lambda, tree);
                let context = format!(
                    "λ={lambda} tree {tree} {:?} {:?}",
                    config.qos_hops, config.bound
                );
                assert_eq!(
                    answers(&trial),
                    (size, achieved, &costs[..], bound),
                    "{context}"
                );
                // A settled trial keeps its tree, and builds no
                // formulation for a tree that had none.
                let kept = scratch.kept.as_ref().unwrap();
                assert_eq!(kept.key, TreeKey::new(config, tree), "{context}");
                let is_settled = trial.lp_bound.is_none();
                if is_settled {
                    settled += 1;
                    assert_eq!(trial.heuristics_seconds, 0.0, "{context}");
                }
                if let Some((prev_config, prev_tree, prev_settled)) = last {
                    let sibling = std::ptr::eq(prev_config, config) && prev_tree == tree;
                    settled_then_feasible += usize::from(sibling && prev_settled && !is_settled);
                }
                last = Some((config, tree, is_settled));
            }
        }
        assert!(settled >= 10, "{settled} settled trials");
        assert!(settled_then_feasible >= 5, "{settled_then_feasible}");

        // A tree whose trials are all settled builds no formulation.
        let mut scratch = WorkerScratch::new();
        for lambda in [0.9, 0.8, 0.7] {
            let trial = run_single_trial_with(&base, lambda, 6, &mut scratch);
            assert_eq!(trial.lp_bound, None, "λ={lambda}");
        }
        assert!(scratch.kept.as_ref().unwrap().formulation.is_none());
    }

    #[test]
    fn siblings_reuse_the_kept_tree_and_a_new_key_lets_it_go() {
        let config = ExperimentConfig::smoke_test();
        let mut scratch = WorkerScratch::new();
        let kept_tree = |scratch: &WorkerScratch| Arc::clone(&scratch.kept.as_ref().unwrap().tree);
        let low = run_single_trial_with(&config, 0.2, 1, &mut scratch);
        let first = kept_tree(&scratch);
        // Between trials the kept handle is the tree's only other one.
        assert_eq!(Arc::strong_count(&first), 2);
        let high = run_single_trial_with(&config, 0.6, 1, &mut scratch);
        assert!(Arc::ptr_eq(&first, &kept_tree(&scratch)));
        // Both rational bounds took the closed form: the tree has no
        // model, so no LP ran.
        assert!(low.lp_bound.is_some() && high.lp_bound.is_some());
        assert!(scratch.kept.as_ref().unwrap().formulation.is_none());
        run_single_trial_with(&config, 0.6, 2, &mut scratch);
        assert!(!Arc::ptr_eq(&first, &kept_tree(&scratch)));
        let key = scratch.kept.as_ref().unwrap().key;
        assert_eq!(key, TreeKey::new(&config, 2));

        // The mixed bound solves the kept model, and the sibling re-solves
        // it warm, patched in place.
        let mixed = ExperimentConfig {
            bound: BoundKind::Mixed,
            ..config
        };
        let mut scratch = WorkerScratch::new();
        run_single_trial_with(&mixed, 0.2, 1, &mut scratch);
        run_single_trial_with(&mixed, 0.6, 1, &mut scratch);
        let stats = scratch.lp.revised.last_stats();
        assert_eq!(stats.warm, rp_lp::WarmStart::WarmHit);
        assert!(stats.patched);
    }

    #[test]
    fn a_rational_bound_without_a_closed_form_solves_the_kept_model() {
        // A sweep tree whose storage costs are skewed off its capacities
        // (s_j = W_j + j mod 3): the first λ builds the model, the next
        // ones re-target it, and every bound is the LP's.
        let config = ExperimentConfig {
            platform: PlatformKind::default_heterogeneous(),
            ..ExperimentConfig::smoke_test()
        };
        let skewed = |lambda: f64| {
            let p = generate_trial_problem(&config, lambda, 3);
            let capacities: Vec<u64> = p.tree().node_ids().map(|n| p.capacity(n)).collect();
            let costs = capacities
                .iter()
                .enumerate()
                .map(|(j, &w)| w + j as u64 % 3)
                .collect();
            ProblemInstance::builder(p.tree_arc())
                .requests(p.tree().client_ids().map(|c| p.requests(c)).collect())
                .capacities(capacities)
                .storage_costs(costs)
                .build()
        };
        let (mut formulation, mut lp) = (None, LpWorkspace::new());
        for lambda in [0.2, 0.5, 0.3] {
            let problem = skewed(lambda);
            assert!(multiple_is_feasible(&problem), "λ={lambda}");
            assert_eq!(rational_relaxation_optimum(&problem), None);
            let kept = trial_bound(&problem, BoundKind::Rational, &mut formulation, &mut lp);
            let fresh = rp_core::ilp::lower_bound_with(
                &problem,
                BoundKind::Rational,
                &IlpOptions::default(),
            );
            let (kept, fresh) = (kept.unwrap(), fresh.unwrap());
            assert!(
                (kept - fresh).abs() <= 1e-6,
                "λ={lambda}: {kept} vs {fresh}"
            );
            assert_eq!(integral_lower_bound(kept), integral_lower_bound(fresh));
            assert!(formulation.is_some());
        }
    }

    #[test]
    fn paper_scale_config_reaches_s_400() {
        let config = ExperimentConfig::paper_scale();
        assert_eq!(config.size_range.1, 400);
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
