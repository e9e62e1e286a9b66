//! The sweep settles a trial on the exact Multiple feasibility pass
//! alone when the pass fails (`rp-experiments::runner`, "An infeasible
//! trial"). That is sound only if, on the instances the sweep draws, the
//! pass agrees with the rational LP relaxation, and a failed pass leaves
//! the mixed relaxation infeasible and every base heuristic without a
//! placement. These properties check exactly that on sweep trials of
//! both platforms, up to the paper's s = 400, with and without QoS
//! bounds; the unit tests of `bounds` pin the pass only on tiny trees.

use proptest::prelude::*;

use replica_placement::core::bounds::multiple_is_feasible;
use replica_placement::core::ilp::{lower_bound, BoundKind};
use replica_placement::core::Heuristic;
use replica_placement::experiments::runner::{generate_trial_problem, run_sweep, ExperimentConfig};
use replica_placement::obs::{self, Counter, ObsMode};
use replica_placement::workloads::PlatformKind;

/// The platform of a draw: homogeneous on even, heterogeneous on odd.
fn platform(draw: u64) -> PlatformKind {
    if draw.is_multiple_of(2) {
        PlatformKind::default_homogeneous()
    } else {
        PlatformKind::default_heterogeneous()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On a sweep trial, the pass holds exactly when the rational
    /// relaxation has an optimum; where it fails, the mixed relaxation
    /// is infeasible too and no base heuristic places the instance.
    #[test]
    fn the_pass_settles_exactly_the_infeasible_sweep_trials(
        seed in 0u64..1_000_000,
        platform_draw in 0u64..2,
        size in 15usize..=400,
        lambda_permille in 100u32..=900,
        qos_draw in 0u32..=4,
        tree_index in 0usize..30,
    ) {
        let config = ExperimentConfig {
            size_range: (size, size),
            platform: platform(platform_draw),
            qos_hops: (qos_draw > 0).then_some(qos_draw),
            seed,
            ..ExperimentConfig::paper_scale()
        };
        let lambda = f64::from(lambda_permille) / 1000.0;
        let problem = generate_trial_problem(&config, lambda, tree_index);
        let context = format!(
            "seed {seed} s={size} λ={lambda} qos {:?} tree {tree_index} {:?}",
            config.qos_hops, config.platform
        );
        let feasible = multiple_is_feasible(&problem);
        let rational = lower_bound(&problem, BoundKind::Rational);
        prop_assert_eq!(feasible, rational.is_some(), "{}", context);
        if !feasible {
            prop_assert_eq!(lower_bound(&problem, BoundKind::Mixed), None, "{}", context);
            for h in Heuristic::BASE {
                prop_assert!(h.run(&problem).is_none(), "{h} placed {context}");
            }
        }
    }
}

/// On a sweep, `exp.infeasible_trials` counts exactly the trials whose
/// bound is `None`: the ones the pass settled. On a rational sweep of a
/// paper platform `exp.closed_form_bounds` counts all the others.
#[test]
fn the_infeasible_trials_counter_counts_the_settled_trials() {
    let config = ExperimentConfig {
        lambdas: vec![0.3, 0.6, 0.9],
        trees_per_lambda: 8,
        size_range: (20, 80),
        platform: PlatformKind::default_heterogeneous(),
        threads: Some(2),
        ..ExperimentConfig::smoke_test()
    };
    // The mode is process-global; no other test of this binary runs a
    // sweep, so only this one moves the counter.
    obs::set_mode(ObsMode::Counters);
    let count = || {
        let registry = obs::global();
        let closed_form = registry.counter(Counter::ExpClosedFormBounds);
        (registry.counter(Counter::ExpInfeasibleTrials), closed_form)
    };
    let before = count();
    let results = run_sweep(&config);
    let after = count();
    obs::set_mode(ObsMode::Off);
    let trials = results.batches.iter().flat_map(|b| &b.trials);
    let unbounded = trials.clone().filter(|t| t.lp_bound.is_none()).count();
    let bounded = trials.count() - unbounded;
    assert_eq!(after.0 - before.0, unbounded as u64);
    assert_eq!(after.1 - before.1, bounded as u64);
    assert!(unbounded > 0 && bounded > 0, "{unbounded} / {bounded}");
}
