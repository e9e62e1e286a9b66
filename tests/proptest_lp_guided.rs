//! Property tests for the LP-guided rounding & repair subsystem.
//!
//! Three contracts, on random bandwidth-constrained and multi-object
//! instances (the same generator family as
//! `proptest_scenario_equivalence.rs`; the single-object instances
//! also give each client an optional QoS bound of 1 to 3 hops, so the
//! rounding's QoS filters are exercised too):
//!
//! * **Feasibility by construction** — every placement the rounding
//!   returns validates end to end: capacity, per-link bandwidth and (in
//!   the multi-object case) the shared capacities and shared links.
//! * **The bound sandwich** — a rounded cost never undercuts the
//!   rational LP bound, and on the small instances the generators
//!   produce (s ≤ 12) never undercuts the exact ILP optimum either;
//!   conversely the rounding only fails when it has to (an infeasible
//!   relaxation), never producing placements out of thin air.
//! * **Repair safety** — the [`BandwidthRepair`] retrofit never returns
//!   an invalid placement for any of the eight classic heuristics, and
//!   is a no-op on instances without bandwidth bounds.
//!
//! (Values are generated as small unsigned integers — the vendored
//! proptest stand-in only implements unsigned range strategies.)

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use proptest::prelude::*;

use replica_placement::core::heuristics::lp_guided::{lp_guided, lp_guided_multi, BandwidthRepair};
use replica_placement::core::ilp::{exact_optimal_cost, lower_bound, multi_lower_bound, BoundKind};
use replica_placement::core::multi::{solve_multi_ilp, MultiObjectProblem};
use replica_placement::core::{Heuristic, Policy, ProblemInstance};
use replica_placement::tree::{TreeBuilder, TreeNetwork};

/// Encoded tree + platform: node parent choices, per-client
/// (parent choice, requests, QoS code: `0` → no bound, else the bound
/// in hops), per-node capacities, per-node uplink bandwidth code
/// (`>= 10` → unbounded).
type ScenarioSpec = (Vec<u32>, Vec<(u32, u32, u32)>, Vec<u32>, Vec<u32>);

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (2usize..=5, 1usize..=6).prop_flat_map(|(nodes, clients)| {
        (
            collection::vec(0u32..=10, nodes - 1),
            collection::vec((0u32..=10, 0u32..=5, 0u32..=3), clients),
            collection::vec(1u32..=8, nodes),
            collection::vec(0u32..=15, nodes),
        )
    })
}

fn build_tree(parents: &[u32], clients: &[(u32, u32, u32)]) -> TreeNetwork {
    let mut b = TreeBuilder::new();
    let root = b.add_root();
    let mut nodes = vec![root];
    for (i, &choice) in parents.iter().enumerate() {
        let parent = nodes[(choice as usize) % (i + 1)];
        nodes.push(b.add_node(parent));
    }
    for &(choice, _, _) in clients {
        b.add_client(nodes[(choice as usize) % nodes.len()]);
    }
    b.build().expect("generated trees are well-formed")
}

fn build_bandwidth_problem(spec: &ScenarioSpec) -> ProblemInstance {
    let (parents, clients, platform, bw_codes) = spec;
    let tree = build_tree(parents, clients);
    let requests: Vec<u64> = clients.iter().map(|&(_, r, _)| u64::from(r)).collect();
    let qos: Vec<Option<u32>> = clients
        .iter()
        .map(|&(_, _, hops)| (hops > 0).then_some(hops))
        .collect();
    let capacities: Vec<u64> = platform.iter().map(|&cap| u64::from(cap)).collect();
    let node_links: Vec<Option<u64>> = bw_codes
        .iter()
        .enumerate()
        .map(|(index, &code)| (index > 0 && code < 10).then_some(u64::from(code)))
        .collect();
    ProblemInstance::builder(tree)
        .requests(requests)
        .capacities(capacities.clone())
        .storage_costs(capacities)
        .qos(qos)
        .node_link_bandwidths(node_links)
        .build()
}

/// Encoded multi-object extension: per-client per-object requests.
type MultiSpec = (ScenarioSpec, Vec<Vec<u32>>);

fn multi_strategy() -> impl Strategy<Value = MultiSpec> {
    (scenario_strategy(), 1usize..=3).prop_flat_map(|(spec, objects)| {
        let clients = spec.1.len();
        (
            Just(spec),
            collection::vec(collection::vec(0u32..=4, clients), objects),
        )
    })
}

fn build_multi_problem(spec: &MultiSpec) -> MultiObjectProblem {
    let ((parents, clients, platform, bw_codes), object_requests) = spec;
    let tree = build_tree(parents, clients);
    let capacities: Vec<u64> = platform.iter().map(|&cap| u64::from(cap) * 2).collect();
    let requests: Vec<Vec<u64>> = object_requests
        .iter()
        .map(|object| object.iter().map(|&r| u64::from(r)).collect())
        .collect();
    let storage_costs: Vec<Vec<u64>> = (0..requests.len())
        .map(|k| {
            capacities
                .iter()
                .enumerate()
                .map(|(j, &w)| w + ((j + k) % 3) as u64)
                .collect()
        })
        .collect();
    let node_links: Vec<Option<u64>> = bw_codes
        .iter()
        .enumerate()
        .map(|(index, &code)| (index > 0 && code < 10).then_some(u64::from(code)))
        .collect();
    let num_clients = clients.len();
    MultiObjectProblem::new(tree, requests, capacities, storage_costs)
        .with_link_bandwidths(vec![None; num_clients], node_links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Rounded placements are always feasible (capacity + bandwidth)
    /// and never undercut the rational bound; a rounding without a
    /// feasible relaxation never happens.
    #[test]
    fn lp_guided_placements_are_feasible_and_respect_the_bound(spec in scenario_strategy()) {
        let problem = build_bandwidth_problem(&spec);
        let bound = lower_bound(&problem, BoundKind::Rational);
        match lp_guided(&problem) {
            Some(placement) => {
                if let Err(violations) = placement.validate(&problem, Policy::Multiple) {
                    prop_assert!(false, "invalid rounded placement: {violations}");
                }
                let bound = bound.expect("a rounded placement implies a feasible relaxation");
                prop_assert!(
                    placement.cost(&problem) as f64 + 1e-6 >= bound,
                    "cost {} undercut the bound {bound}",
                    placement.cost(&problem)
                );
            }
            None => {
                // A failed rounding is only *required* on an infeasible
                // relaxation; on a feasible one it is a (permitted)
                // heuristic miss, so there is nothing to assert here.
            }
        }
    }

    /// The BandwidthRepair retrofit never returns an invalid placement
    /// for any classic heuristic, and is transparent without bounds.
    #[test]
    fn bandwidth_repair_never_returns_invalid_placements(spec in scenario_strategy()) {
        let problem = build_bandwidth_problem(&spec);
        for heuristic in Heuristic::BASE {
            if let Some(placement) = BandwidthRepair(heuristic).run(&problem) {
                if let Err(violations) = placement.validate(&problem, heuristic.policy()) {
                    prop_assert!(false, "{heuristic}: invalid repaired placement: {violations}");
                }
            }
        }
    }

    /// Multi-object roundings validate against the shared capacities
    /// and shared links, and respect the multi-object rational bound.
    #[test]
    fn lp_guided_multi_placements_are_feasible_and_respect_the_bound(spec in multi_strategy()) {
        let problem = build_multi_problem(&spec);
        if let Some(placement) = lp_guided_multi(&problem) {
            if let Err(error) = placement.validate(&problem, Policy::Multiple) {
                prop_assert!(false, "invalid rounded multi placement: {error}");
            }
            let bound = multi_lower_bound(&problem, BoundKind::Rational)
                .expect("a rounded placement implies a feasible relaxation");
            prop_assert!(
                placement.cost(&problem) as f64 + 1e-6 >= bound,
                "cost {} undercut the bound {bound}",
                placement.cost(&problem)
            );
        }
    }
}

proptest! {
    // Exact ILP searches are costlier; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On the small (s ≤ 12) instances the generators produce, the
    /// rounded cost sits in the bound/exact sandwich:
    /// `rational ≤ exact ≤ rounded`, and the rounding succeeds at least
    /// whenever the exact search does not prove infeasibility... it may
    /// fail on feasible instances (it is a heuristic), but must never
    /// succeed on infeasible ones.
    #[test]
    fn rounded_costs_sandwich_against_the_exact_optimum(spec in scenario_strategy()) {
        let problem = build_bandwidth_problem(&spec);
        let exact = exact_optimal_cost(&problem, Policy::Multiple);
        if let Some(placement) = lp_guided(&problem) {
            let exact = exact.expect("a rounded placement implies exact feasibility");
            prop_assert!(
                placement.cost(&problem) >= exact,
                "rounded {} below the exact optimum {exact}",
                placement.cost(&problem)
            );
            let bound = lower_bound(&problem, BoundKind::Rational).unwrap();
            prop_assert!(bound <= exact as f64 + 1e-6);
        }
    }

    /// The multi-object sandwich against the exact multi-object ILP.
    #[test]
    fn multi_rounded_costs_sandwich_against_the_exact_optimum(spec in multi_strategy()) {
        let problem = build_multi_problem(&spec);
        if let Some(placement) = lp_guided_multi(&problem) {
            if let Some(exact) = solve_multi_ilp(&problem) {
                prop_assert!(
                    placement.cost(&problem) >= exact.cost(&problem),
                    "rounded {} below the exact optimum {}",
                    placement.cost(&problem),
                    exact.cost(&problem)
                );
            }
        }
    }
}
