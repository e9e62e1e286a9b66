//! The paper's λ-sweep: `ExperimentConfig::paper_scale()` trials in
//! tree-major order on one worker.
//!
//! The plain pass drives `run_single_trial_with`, exactly as the
//! experiment runner does. The traced pass performs the same trial
//! through the layers' public functions one call at a time, with a span
//! around each, and must reproduce the plain pass's costs and bounds.

use std::sync::Arc;
use std::time::Instant;

use rp_core::heuristics::HeuristicState;
use rp_core::ilp::{build_model, integral_lower_bound, IlpOptions, Integrality};
use rp_core::{Heuristic, MixedBest, Policy, StateBuffers};
use rp_experiments::runner::{
    generate_trial_problem_reusing, run_single_trial_with, WorkerScratch,
};
use rp_experiments::ExperimentConfig;
use rp_lp::{solve_lp_engine, LpEngine, LpWorkspace, Status, WarmStart};
use rp_tree::TreeNetwork;

use crate::setup::mix;
use crate::spans::Tracer;
use crate::{Checks, Workload};

const STREAM_SWEEP: u64 = 0x5EED_0000;

/// The sweep configuration of one pass: paper scale on the workload's
/// platform, one worker, a seed per pass.
pub fn config(workload: Workload, seed: u64, pass: usize) -> ExperimentConfig {
    ExperimentConfig {
        platform: workload.platform(),
        seed: mix(seed, STREAM_SWEEP + pass as u64),
        threads: Some(1),
        ..ExperimentConfig::paper_scale()
    }
}

/// What one trial produced: the cost of every heuristic of
/// [`Heuristic::ALL`] (in that order) and the integral LP bound.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Cost per heuristic, `None` where it found no placement.
    pub costs: Vec<Option<u64>>,
    /// The integral LP bound, `None` when the relaxation is infeasible.
    pub bound: Option<f64>,
}

impl TrialOutcome {
    /// The MixedBest cost.
    pub fn mixed_best(&self) -> Option<u64> {
        self.costs.last().copied().flatten()
    }

    /// Whether the outcome is consistent: the bound is at most every
    /// heuristic cost (and no heuristic succeeds where the bound says
    /// the instance is infeasible), and MixedBest is the cheapest base
    /// heuristic.
    pub fn is_consistent(&self) -> bool {
        let base = &self.costs[..self.costs.len() - 1];
        let bound_ok = base.iter().flatten().all(|&cost| match self.bound {
            Some(bound) => bound <= cost as f64 + 1e-6,
            None => false,
        });
        bound_ok && base.iter().flatten().min().copied() == self.mixed_best()
    }
}

/// The plain pass: per-trial latency and outcomes.
#[derive(Default)]
pub struct SweepRun {
    /// Wall time of each trial, ms.
    pub trial_ms: Vec<f64>,
    /// Outcome of each trial, in run order.
    pub outcomes: Vec<TrialOutcome>,
}

impl SweepRun {
    /// Share of trials where MixedBest found a placement.
    pub fn success_rate(&self) -> f64 {
        let found = self
            .outcomes
            .iter()
            .filter(|o| o.mixed_best().is_some())
            .count();
        found as f64 / self.outcomes.len().max(1) as f64
    }

    /// Mean MixedBest cost over the integral LP bound, over the trials
    /// where both exist.
    pub fn cost_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| match (o.mixed_best(), o.bound) {
                (Some(cost), Some(bound)) if bound > 0.0 => Some(cost as f64 / bound),
                _ => None,
            })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }
}

/// One trial: the pass's configuration, the tree index and λ.
pub type Trial = (Arc<ExperimentConfig>, usize, f64);

/// Every (pass, tree, λ) trial of a run, tree-major within a pass.
pub fn trials(workload: Workload, seed: u64, passes: usize) -> Vec<Trial> {
    let mut out = Vec::new();
    for pass in 0..passes {
        let config = Arc::new(config(workload, seed, pass));
        for tree in 0..config.trees_per_lambda {
            for &lambda in &config.lambdas {
                out.push((Arc::clone(&config), tree, lambda));
            }
        }
    }
    out
}

/// The plain pass: trials through `run_single_trial_with` on one
/// pinned `WorkerScratch`.
#[derive(Default)]
pub struct PlainSweep {
    scratch: WorkerScratch,
    /// Everything measured so far.
    pub run: SweepRun,
}

impl PlainSweep {
    /// Runs `trials`, appending to [`PlainSweep::run`].
    pub fn run(&mut self, trials: &[Trial], checks: &mut Checks) {
        for (config, tree, lambda) in trials {
            let t = Instant::now();
            let result = run_single_trial_with(config, *lambda, *tree, &mut self.scratch);
            self.run.trial_ms.push(1e3 * t.elapsed().as_secs_f64());
            let costs = config
                .heuristics
                .iter()
                .map(|&h| result.cost_of(h))
                .collect();
            let outcome = TrialOutcome {
                costs,
                bound: result.lp_bound,
            };
            checks.record(outcome.is_consistent());
            self.run.outcomes.push(outcome);
        }
    }
}

/// Per-trial layer times of the traced pass, summed over trials.
#[derive(Default)]
pub struct SweepLayers {
    /// Trials run.
    pub trials: usize,
    /// Trial wall, with the output checks taken out, seconds.
    pub wall_s: f64,
    /// `generate_trial_problem_reusing`, seconds.
    pub gen_s: f64,
    /// One entry per heuristic of [`Heuristic::ALL`], seconds.
    pub heuristic_s: [f64; 9],
    /// `build_model`, seconds.
    pub build_s: f64,
    /// The LP bound solve, seconds.
    pub solve_s: f64,
    /// Simplex iterations of the bound solves.
    pub iterations: u64,
    /// Bound solves that took the warm-hit path.
    pub warm_hits: u64,
}

impl SweepLayers {
    /// Sum of the layer spans over the trial wall.
    pub fn attributed_frac(&self) -> f64 {
        let spans = self.gen_s + self.heuristic_s.iter().sum::<f64>() + self.build_s + self.solve_s;
        spans / self.wall_s.max(1e-12)
    }
}

/// The traced pass: the same trials as [`PlainSweep`], one layer call
/// at a time with a span around each, on the same kind of pinned state
/// (one heuristic buffer set, one MixedBest, one LP workspace, the
/// previous trial's tree).
#[derive(Default)]
pub struct TracedSweep {
    buffers: StateBuffers,
    mixed_best: MixedBest,
    lp: LpWorkspace,
    recycled: Option<TreeNetwork>,
    /// Everything measured so far.
    pub layers: SweepLayers,
}

impl TracedSweep {
    /// Runs `trials`, checking every placement with
    /// `Placement::is_valid` and each outcome against the plain pass's
    /// (`expected`, indexed like `trials`).
    pub fn run(
        &mut self,
        trials: &[Trial],
        expected: &[TrialOutcome],
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        for ((config, tree, lambda), expected) in trials.iter().zip(expected) {
            let (outcome, valid) = self.trial(config, *tree, *lambda, tracer);
            checks.record(valid && outcome.is_consistent() && outcome == *expected);
        }
    }

    fn trial(
        &mut self,
        config: &ExperimentConfig,
        tree: usize,
        lambda: f64,
        tracer: &mut Tracer,
    ) -> (TrialOutcome, bool) {
        let layers = &mut self.layers;
        let trial_start = Instant::now();
        let trial_span = tracer.start("exp.trial", "perfbench");
        let mut check_s = 0.0;
        let mut valid = true;

        let span = tracer.start("workloads.trial_gen", "rp-workloads");
        let problem = generate_trial_problem_reusing(config, lambda, tree, self.recycled.take());
        layers.gen_s += tracer.stop(span);

        let mut costs = Vec::with_capacity(Heuristic::ALL.len());
        for (slot, &h) in Heuristic::ALL.iter().enumerate() {
            let span = tracer.start(format!("core.heuristic.{}", h.acronym()), "rp-core");
            let cost = if h == Heuristic::MixedBest {
                let found = self
                    .mixed_best
                    .full_sweep_reusing(&problem, &mut self.buffers);
                layers.heuristic_s[slot] += tracer.stop(span);
                let t = Instant::now();
                let cost = found.map(|placement| {
                    valid &= placement.is_valid(&problem, h.policy());
                    placement.cost(&problem)
                });
                check_s += t.elapsed().as_secs_f64();
                cost
            } else {
                let buffers = std::mem::take(&mut self.buffers);
                let mut state = HeuristicState::with_buffers(&problem, buffers);
                let served = h.run_with(&mut state);
                layers.heuristic_s[slot] += tracer.stop(span);
                let t = Instant::now();
                let cost = served.then(|| {
                    valid &= state.placement().is_valid(&problem, h.policy());
                    state.current_cost()
                });
                check_s += t.elapsed().as_secs_f64();
                self.buffers = state.into_buffers();
                cost
            };
            costs.push(cost);
        }

        let span = tracer.start("core.ilp.build_model", "rp-core");
        let formulation = build_model(&problem, Policy::Multiple, Integrality::RationalBound);
        layers.build_s += tracer.stop(span);
        let simplex = IlpOptions::default().branch_bound.simplex;
        let span = tracer.start("lp.solve", "rp-lp");
        let solution = solve_lp_engine(
            &formulation.model,
            LpEngine::Revised,
            &simplex,
            &mut self.lp,
        );
        layers.solve_s += tracer.stop(span);
        let stats = self.lp.revised.last_stats();
        layers.iterations += stats.iterations() as u64;
        layers.warm_hits += u64::from(stats.warm == WarmStart::WarmHit);
        let bound = match solution.status {
            Status::Optimal => Some(integral_lower_bound(solution.objective) as f64),
            Status::Infeasible => None,
            _ => Some(0.0),
        };

        // Retire the tree for the next trial, as the runner does.
        drop(formulation);
        let tree_arc = problem.tree_arc();
        drop(problem);
        self.recycled = Arc::try_unwrap(tree_arc).ok();
        tracer.stop(trial_span);
        layers.wall_s += trial_start.elapsed().as_secs_f64() - check_s;
        layers.trials += 1;
        (TrialOutcome { costs, bound }, valid)
    }
}
