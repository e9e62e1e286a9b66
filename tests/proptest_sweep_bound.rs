//! On both paper platforms the storage costs are proportional to the
//! capacities, so the sweep takes a feasible trial's rational bound in
//! closed form, `c·Σ r_i`, and solves no LP (`rp-experiments::runner`,
//! "A feasible trial's rational bound"). This property pins that bound
//! to the rounded optimum of the LP itself on sweep trials of both
//! platforms, up to the paper's s = 400, with and without QoS bounds,
//! for a tree's first trial and for a λ-sibling on the same scratch.

use proptest::prelude::*;

use replica_placement::core::ilp::{integral_lower_bound, lower_bound_with, BoundKind, IlpOptions};
use replica_placement::experiments::runner::{
    generate_trial_problem, run_single_trial_with, ExperimentConfig, WorkerScratch,
};
use replica_placement::workloads::PlatformKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every trial's bound is the rounded rational LP optimum of its
    /// instance, and `None` exactly where the LP is infeasible.
    #[test]
    fn a_sweep_trials_bound_is_the_rounded_lp_optimum(
        seed in 0u64..1_000_000,
        platform_draw in 0u64..2,
        size in 15usize..=400,
        first_permille in 100u32..=900,
        second_permille in 100u32..=900,
        qos_draw in 0u32..=4,
        tree_index in 0usize..30,
    ) {
        let platform = if platform_draw == 1 {
            PlatformKind::default_heterogeneous()
        } else {
            PlatformKind::default_homogeneous()
        };
        let config = ExperimentConfig {
            size_range: (size, size),
            platform,
            qos_hops: (qos_draw > 0).then_some(qos_draw),
            seed,
            ..ExperimentConfig::paper_scale()
        };
        let mut scratch = WorkerScratch::new();
        for permille in [first_permille, second_permille] {
            let lambda = f64::from(permille) / 1000.0;
            let trial = run_single_trial_with(&config, lambda, tree_index, &mut scratch);
            let problem = generate_trial_problem(&config, lambda, tree_index);
            let lp = lower_bound_with(&problem, BoundKind::Rational, &IlpOptions::default());
            let context = format!(
                "seed {seed} s={size} λ={lambda} qos {:?} tree {tree_index} {platform:?}",
                config.qos_hops
            );
            let expected = lp.map(|raw| integral_lower_bound(raw) as f64);
            prop_assert_eq!(trial.lp_bound, expected, "{}", context);
        }
    }
}
