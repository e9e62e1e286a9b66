//! Differential property tests pinning **instrumented ≡ uninstrumented**:
//! running the exact same solve, heuristic sweep, LP-guided rounding or
//! failure repair under `ObsMode::Full` must be *bit-identical* to
//! running it under `ObsMode::Off`.
//!
//! This is the telemetry layer's core contract (see `rp-obs`): every
//! instrumentation site is read-only with respect to the computation —
//! counters, spans and trace events observe the pivot path, they never
//! steer it. A drift here would mean a site accidentally perturbs
//! iteration order, RNG consumption or floating-point evaluation, so
//! the comparisons are exact (`to_bits` on floats, full equality on
//! placements and iteration counts) rather than tolerance-based.
//!
//! The observability mode is process-global state, so every test in
//! this binary serialises on one mutex and restores `Off` before
//! releasing it.

use std::sync::Mutex;

use proptest::prelude::*;

use replica_placement::core::heuristics::lp_guided::{lp_guided, lp_guided_multi};
use replica_placement::core::{inject_and_repair, Heuristic, Policy};
use replica_placement::experiments::runner::{run_single_trial, ExperimentConfig};
use replica_placement::lp::{Cmp, LinExpr, Model, RevisedWorkspace, Sense, SimplexOptions, Status};
use replica_placement::obs::{self, ObsMode};
use replica_placement::workloads::failures::sample_node_failure;
use replica_placement::workloads::scenarios::{feasible_bandwidth_instance, multi_object_instance};

/// Serialises mode flips across the test binary's threads.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` twice — once per mode — and returns both results. Holds the
/// mode lock for the whole pair so a parallel test cannot flip the mode
/// mid-run, and always restores `Off`.
fn under_both_modes<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let _guard = MODE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    obs::set_mode(ObsMode::Off);
    let off = f();
    obs::set_mode(ObsMode::Full);
    let full = f();
    obs::set_mode(ObsMode::Off);
    (off, full)
}

/// One encoded variable: (bounded?, lower, range-above-lower, obj 0..=10 → −5..=5).
type RawVar = (u32, u32, u32, u32);
/// One encoded constraint: (coefficients 0..=6 → −3..=3, cmp, rhs 0..=18 → −6..=12).
type RawCon = (Vec<u32>, u32, u32);

fn model_strategy(
    max_vars: usize,
    max_cons: usize,
) -> impl Strategy<Value = (Vec<RawVar>, Vec<RawCon>, u32)> {
    (1..=max_vars, 0..=max_cons).prop_flat_map(move |(n, m)| {
        let var = (0u32..=2, 0u32..=3, 1u32..=6, 0u32..=10);
        let con = (collection::vec(0u32..=6, n), 0u32..=2, 0u32..=18);
        (
            collection::vec(var, n),
            collection::vec(con, m),
            0u32..=1, // maximise?
        )
    })
}

fn build_model(spec: &(Vec<RawVar>, Vec<RawCon>, u32)) -> Model {
    let (vars, cons, maximise) = spec;
    let mut model = Model::new(if *maximise == 1 {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let ids: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &(bounded, lower, range, obj))| {
            let lower = f64::from(lower);
            let upper = (bounded != 0).then(|| lower + f64::from(range));
            model.add_var(format!("x{i}"), lower, upper, f64::from(obj) - 5.0)
        })
        .collect();
    for (c, (coeffs, cmp, rhs)) in cons.iter().enumerate() {
        let mut expr = LinExpr::new();
        for (&var, &coeff) in ids.iter().zip(coeffs) {
            let coeff = f64::from(coeff) - 3.0;
            if coeff != 0.0 {
                expr.add_term(coeff, var);
            }
        }
        if expr.is_empty() {
            continue;
        }
        let cmp = match cmp % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        model.add_constraint(format!("c{c}"), expr, cmp, f64::from(*rhs) - 6.0);
    }
    model
}

/// Everything observable about one cold revised solve, bit-exact.
#[derive(Debug, PartialEq)]
struct SolveFingerprint {
    status: Status,
    objective_bits: u64,
    value_bits: Vec<u64>,
    iterations: usize,
    refactorisations: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// A cold revised solve takes the same pivot path under `Full` as
    /// under `Off`: same status, bit-identical objective and point,
    /// same iteration and refactorisation counts. The per-phase wall
    /// times are deliberately *outside* the fingerprint (they are real
    /// clock readings and differ run to run) — instead the test pins
    /// the gating itself: all-zero under `Off`.
    #[test]
    fn instrumented_lp_solves_are_bit_identical(spec in model_strategy(6, 5)) {
        let model = build_model(&spec);
        let ((off, off_phases), (full, _full_phases)) = under_both_modes(|| {
            let mut workspace = RevisedWorkspace::new();
            let solution = workspace.solve_warm(&model, &SimplexOptions::default());
            let stats = workspace.last_stats();
            (
                SolveFingerprint {
                    status: solution.status,
                    objective_bits: solution.objective.to_bits(),
                    value_bits: solution.values.iter().map(|v| v.to_bits()).collect(),
                    iterations: stats.iterations(),
                    refactorisations: stats.refactorisations,
                },
                stats.phases,
            )
        });
        prop_assert_eq!(off, full, "mode changed the solve on\n{}", model);
        prop_assert!(
            off_phases.is_zero(),
            "Off-mode solve recorded phase time: {:?}", off_phases
        );
    }

    /// The warm path — a cold solve followed by a right-hand-side
    /// perturbation and a warm re-solve in the same workspace — is
    /// bit-identical across modes too: the profiler's per-solve reset
    /// and the flight recorder's record hook ride `finish_solve`, so
    /// they must not perturb the warm validity check or the dual
    /// cleanup pivots.
    #[test]
    fn instrumented_warm_resolves_are_bit_identical(spec in model_strategy(6, 5), bump in 1u32..=4) {
        let model = build_model(&spec);
        let (off, full) = under_both_modes(|| {
            let mut workspace = RevisedWorkspace::new();
            let options = SimplexOptions::default();
            let mut model = model.clone();
            workspace.solve_warm(&model, &options);
            let first_constraint = model.constraint_ids().next();
            let warm = match first_constraint {
                Some(id) => {
                    let rhs = model.constraint(id).rhs;
                    model.set_rhs(id, rhs + f64::from(bump));
                    workspace.solve_warm(&model, &options)
                }
                // No constraints: the re-solve is the interesting call
                // all the same (bound-only models warm-start too).
                None => workspace.solve_warm(&model, &options),
            };
            let stats = workspace.last_stats();
            (
                SolveFingerprint {
                    status: warm.status,
                    objective_bits: warm.objective.to_bits(),
                    value_bits: warm.values.iter().map(|v| v.to_bits()).collect(),
                    iterations: stats.iterations(),
                    refactorisations: stats.refactorisations,
                },
                stats.warm.as_str(),
            )
        });
        prop_assert_eq!(off, full, "mode changed the warm re-solve on\n{}", model);
    }

    /// One full experiment trial — tree generation, all heuristics, the
    /// LP lower bound — is bit-identical across modes.
    #[test]
    fn instrumented_trials_are_bit_identical(seed in 0u64..1000, tree_index in 0usize..4) {
        let config = ExperimentConfig {
            seed,
            ..ExperimentConfig::smoke_test()
        };
        let (off, full) = under_both_modes(|| run_single_trial(&config, 0.4, tree_index));
        prop_assert_eq!(off.problem_size, full.problem_size);
        prop_assert_eq!(off.heuristic_costs, full.heuristic_costs);
        prop_assert_eq!(
            off.lp_bound.map(f64::to_bits),
            full.lp_bound.map(f64::to_bits),
            "mode changed the LP bound (seed {}, tree {})", seed, tree_index
        );
    }

    /// LP-guided rounding — the LP solve plus the full move/repair
    /// pipeline — picks the same strategy and produces the identical
    /// placement under both modes, for one object and for two.
    #[test]
    fn instrumented_lp_guided_rounding_is_identical(seed in 0u64..500) {
        let problem = feasible_bandwidth_instance(40, 0.4, seed);
        let (off, full) = under_both_modes(|| {
            lp_guided(&problem).map(|p| (p.cost(&problem), p.replicas().to_vec()))
        });
        prop_assert_eq!(off, full, "mode changed the rounding on seed {}", seed);
        let multi = multi_object_instance(40, 2, 0.4, seed);
        let (off, full) = under_both_modes(|| lp_guided_multi(&multi));
        prop_assert_eq!(off, full, "mode changed the multi-object rounding on seed {}", seed);
    }

    /// Failure injection and repair — the escalation ladder, re-homing,
    /// degraded-mode drops — end in the identical outcome across modes.
    #[test]
    fn instrumented_failure_repair_is_identical(seed in 0u64..500) {
        let problem = feasible_bandwidth_instance(40, 0.4, seed);
        if let Some(placement) = Heuristic::MixedBest.run(&problem) {
            let failure = sample_node_failure(&problem, seed ^ 0xFA11);
            let (off, full) = under_both_modes(|| {
                let (platform, outcome) =
                    inject_and_repair(&problem, &placement, Policy::Multiple, &[failure]);
                (
                    outcome.is_full(),
                    outcome.served_fraction().to_bits(),
                    outcome.placement().cost(platform.problem()),
                    outcome.placement().replicas().to_vec(),
                )
            });
            prop_assert_eq!(off, full, "mode changed the repair on seed {}", seed);
        }
    }
}
