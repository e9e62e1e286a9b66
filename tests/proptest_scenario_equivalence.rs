//! Differential property tests pinning the **problem-variant
//! formulations** — bandwidth-constrained links and multi-object
//! workloads — to the dense-tableau oracle, and their capacity rows to
//! the definition those rows are built from.
//!
//! The bandwidth and multi-object models are exactly where the sparse
//! revised engine leaves the near-unimodular comfort zone: link-flow
//! recurrences, shared capacity/bandwidth rows and wide-range
//! coefficients. Every random instance must still produce the same
//! feasibility verdict and objective from both engines, on well- and
//! ill-scaled families alike.
//!
//! (Values are generated as small unsigned integers — the vendored
//! proptest stand-in only implements unsigned range strategies.)

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use std::sync::Arc;

use proptest::prelude::*;

use replica_placement::core::ilp::{
    build_model, build_multi_model, multi_lower_bound, BoundKind, Integrality,
};
use replica_placement::core::multi::{solve_multi_ilp, MultiObjectProblem};
use replica_placement::core::{Policy, ProblemInstance};
use replica_placement::lp::oracle::solve_lp;
use replica_placement::lp::{
    Cmp, ConstraintId, Model, RevisedWorkspace, SimplexOptions, Solution, Status, VarId,
};
use replica_placement::tree::{TreeBuilder, TreeNetwork};

/// Encoded tree + platform: node parent choices, per-client
/// (parent choice, requests), per-node (capacity, decade code), per-node
/// uplink bandwidth code (`>= 10` → unbounded).
type ScenarioSpec = (Vec<u32>, Vec<(u32, u32)>, Vec<(u32, u32)>, Vec<u32>);

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (2usize..=5, 1usize..=6).prop_flat_map(|(nodes, clients)| {
        (
            collection::vec(0u32..=10, nodes - 1),
            collection::vec((0u32..=10, 0u32..=5), clients),
            collection::vec((1u32..=8, 0u32..=2), nodes),
            collection::vec(0u32..=15, nodes),
        )
    })
}

fn build_tree(parents: &[u32], clients: &[(u32, u32)]) -> TreeNetwork {
    let mut b = TreeBuilder::new();
    let root = b.add_root();
    let mut nodes = vec![root];
    for (i, &choice) in parents.iter().enumerate() {
        let parent = nodes[(choice as usize) % (i + 1)];
        nodes.push(b.add_node(parent));
    }
    for &(choice, _) in clients {
        b.add_client(nodes[(choice as usize) % nodes.len()]);
    }
    b.build().expect("generated trees are well-formed")
}

/// Decodes a spec into a bandwidth-constrained instance. With `wide`
/// the capacities (and costs) pick up per-node decade factors, which
/// makes the capacity rows ill-scaled exactly like the wide-range
/// scenario family.
fn build_bandwidth_problem(spec: &ScenarioSpec, wide: bool) -> ProblemInstance {
    let (parents, clients, platform, bw_codes) = spec;
    let tree = build_tree(parents, clients);
    let requests: Vec<u64> = clients.iter().map(|&(_, r)| u64::from(r)).collect();
    let capacities: Vec<u64> = platform
        .iter()
        .map(|&(cap, decade)| {
            let scale = if wide { 100u64.pow(decade) } else { 1 };
            u64::from(cap) * scale
        })
        .collect();
    let node_links: Vec<Option<u64>> = bw_codes
        .iter()
        .enumerate()
        .map(|(index, &code)| {
            // The root (index 0) has no uplink; its entry is ignored.
            (index > 0 && code < 10).then_some(u64::from(code))
        })
        .collect();
    ProblemInstance::builder(tree)
        .requests(requests)
        .capacities(capacities.clone())
        .storage_costs(capacities)
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
    let ((_, clients, _, bw_codes), _) = spec;
    let node_links: Vec<Option<u64>> = bw_codes
        .iter()
        .enumerate()
        .map(|(index, &code)| (index > 0 && code < 10).then_some(u64::from(code)))
        .collect();
    build_unbounded_multi_problem(spec).with_link_bandwidths(vec![None; clients.len()], node_links)
}

/// [`build_multi_problem`] without the link bandwidths.
fn build_unbounded_multi_problem(spec: &MultiSpec) -> MultiObjectProblem {
    let ((parents, clients, platform, _), object_requests) = spec;
    let tree = build_tree(parents, clients);
    let capacities: Vec<u64> = platform
        .iter()
        .map(|&(cap, _)| u64::from(cap) * 2)
        .collect();
    let requests: Vec<Vec<u64>> = object_requests
        .iter()
        .map(|object| object.iter().map(|&r| u64::from(r)).collect())
        .collect();
    // Per-object costs: capacity plus an object-dependent twist so the
    // objects disagree about the cheap nodes.
    let storage_costs: Vec<Vec<u64>> = (0..requests.len())
        .map(|k| {
            capacities
                .iter()
                .enumerate()
                .map(|(j, &w)| w + ((j + k) % 3) as u64)
                .collect()
        })
        .collect();
    MultiObjectProblem::new(tree, requests, capacities, storage_costs)
}

/// Decodes a spec into the three single-object variants whose capacity
/// rows are checked against their definition: no limits, a QoS bound of
/// 1–3 hops per client, and the spec's link bandwidths.
fn build_row_variants(spec: &ScenarioSpec) -> [ProblemInstance; 3] {
    let (parents, clients, platform, _) = spec;
    let tree = Arc::new(build_tree(parents, clients));
    let unbounded = || {
        ProblemInstance::builder(Arc::clone(&tree))
            .requests(clients.iter().map(|&(_, r)| u64::from(r)).collect())
            .capacities(platform.iter().map(|&(cap, _)| u64::from(cap)).collect())
    };
    let qos = clients
        .iter()
        .map(|&(choice, _)| Some(1 + choice % 3))
        .collect();
    [
        unbounded().build(),
        unbounded().qos(qos).build(),
        build_bandwidth_problem(spec, false),
    ]
}

/// The only row of `model` that holds `var`.
fn only_row_holding(model: &Model, var: VarId) -> ConstraintId {
    let mut rows = model
        .constraint_ids()
        .filter(|&id| model.constraint(id).terms.iter().any(|&(v, _)| v == var));
    let row = rows.next().expect("some row holds the variable");
    assert!(rows.next().is_none(), "{var} sits in more than one row");
    row
}

/// `terms` as a model stores a row: sorted by variable, zero
/// coefficients dropped.
fn stored(mut terms: Vec<(VarId, f64)>) -> Vec<(VarId, f64)> {
    terms.retain(|&(_, coeff)| coeff != 0.0);
    terms.sort_by_key(|&(var, _)| var);
    terms
}

/// A cold revised-simplex solve on a fresh workspace.
fn solve_revised(model: &Model) -> Solution {
    RevisedWorkspace::new().solve_warm(model, &SimplexOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Bandwidth-constrained LPs: the revised engine and the dense
    /// tableau must agree on feasibility and objective, under every
    /// policy's formulation, on well- and ill-scaled platforms.
    #[test]
    fn bandwidth_lps_agree_between_revised_and_dense(spec in scenario_strategy()) {
        for wide in [false, true] {
            let problem = build_bandwidth_problem(&spec, wide);
            for policy in [Policy::Multiple, Policy::Upwards, Policy::Closest] {
                let formulation = build_model(&problem, policy, Integrality::RationalBound);
                let dense = solve_lp(&formulation.model);
                let revised = solve_revised(&formulation.model);
                prop_assert_ne!(dense.status, Status::IterationLimit);
                prop_assert_ne!(revised.status, Status::IterationLimit);
                prop_assert_eq!(dense.status, revised.status, "{policy} wide={}", wide);
                if dense.status == Status::Optimal {
                    let tol = 1e-6 * dense.objective.abs().max(1.0);
                    prop_assert!(
                        (dense.objective - revised.objective).abs() < tol,
                        "{}: dense {} vs revised {} on\n{}",
                        policy, dense.objective, revised.objective, formulation.model
                    );
                    prop_assert!(
                        formulation.model.is_feasible(&revised.values, 1e-6),
                        "revised returned an infeasible point for {policy}"
                    );
                }
            }
        }
    }

    /// Multi-object LPs (shared capacities and links, per-object z
    /// variables): revised ≡ dense on the rational relaxation.
    #[test]
    fn multi_object_lps_agree_between_revised_and_dense(spec in multi_strategy()) {
        let problem = build_multi_problem(&spec);
        let formulation = build_multi_model(&problem, Integrality::RationalBound);
        let dense = solve_lp(&formulation.model);
        let revised = solve_revised(&formulation.model);
        prop_assert_ne!(dense.status, Status::IterationLimit);
        prop_assert_ne!(revised.status, Status::IterationLimit);
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            let tol = 1e-6 * dense.objective.abs().max(1.0);
            prop_assert!(
                (dense.objective - revised.objective).abs() < tol,
                "dense {} vs revised {} on\n{}",
                dense.objective, revised.objective, formulation.model
            );
            prop_assert!(formulation.model.is_feasible(&revised.values, 1e-6));
        }
    }

    /// Capacity row j of the single-object model holds exactly
    /// (coeffᵢ, y_{i,j}) for each client i with a y variable at j, plus
    /// (−W_j, x_j); coeffᵢ is rᵢ under Closest/Upwards and 1 under
    /// Multiple. A dropped or doubled term, which an LP objective can
    /// hide, breaks the equality.
    #[test]
    fn capacity_rows_hold_exactly_their_defining_terms(spec in scenario_strategy()) {
        for problem in build_row_variants(&spec) {
            let tree = problem.tree();
            for policy in [Policy::Closest, Policy::Upwards, Policy::Multiple] {
                let f = build_model(&problem, policy, Integrality::RationalBound);
                for node in tree.node_ids() {
                    let x = f.x[node.index()];
                    let mut expected = vec![(x, -(problem.capacity(node) as f64))];
                    for client in tree.client_ids() {
                        if let Some(y) = f.y_var(client, node) {
                            let coeff = match policy {
                                Policy::Closest | Policy::Upwards => problem.requests(client) as f64,
                                Policy::Multiple => 1.0,
                            };
                            expected.push((y, coeff));
                        }
                    }
                    let row = f.model.constraint(only_row_holding(&f.model, x));
                    prop_assert_eq!((row.cmp, row.rhs), (Cmp::Le, 0.0));
                    prop_assert_eq!(&row.terms, &stored(expected), "{} {}", policy, node);
                }
            }
        }
    }

    /// The multi-object rows follow the same rule: the replica row of
    /// object k at node j holds (1, y_{k,i,j}) per client plus
    /// (−W_j, x_{k,j}), and the shared capacity row right after node j's
    /// last replica row holds every object's (1, y_{k,i,j}) with rhs W_j.
    #[test]
    fn multi_object_replica_and_capacity_rows_hold_exactly_their_defining_terms(
        spec in multi_strategy()
    ) {
        for problem in [build_unbounded_multi_problem(&spec), build_multi_problem(&spec)] {
            let tree = problem.tree();
            let f = build_multi_model(&problem, Integrality::RationalBound);
            for node in tree.node_ids() {
                let capacity = problem.capacity(node) as f64;
                let mut shared = Vec::new();
                let mut last_replica_row = None;
                for object in problem.object_ids() {
                    let k = object.index();
                    let x = f.x[k][node.index()];
                    let mut expected = vec![(x, -capacity)];
                    for client in tree.client_ids() {
                        let servers = &f.y[k][client.index()];
                        if let Some(&(_, y)) = servers.iter().find(|&&(server, _)| server == node) {
                            expected.push((y, 1.0));
                            shared.push((y, 1.0));
                        }
                    }
                    let id = only_row_holding(&f.model, x);
                    let row = f.model.constraint(id);
                    prop_assert_eq!((row.cmp, row.rhs), (Cmp::Le, 0.0));
                    prop_assert_eq!(&row.terms, &stored(expected), "{} {}", object, node);
                    last_replica_row = Some(id.index());
                }
                let id = f.model.constraint_ids().nth(last_replica_row.unwrap() + 1).unwrap();
                let row = f.model.constraint(id);
                prop_assert_eq!((row.cmp, row.rhs), (Cmp::Le, capacity));
                prop_assert_eq!(&row.terms, &stored(shared), "{}", node);
            }
        }
    }
}

proptest! {
    // MILP searches are costlier; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The multi-object bounds sandwich the exact optimum:
    /// rational ≤ mixed ≤ exact cost, and an infeasible relaxation
    /// implies an infeasible exact search.
    #[test]
    fn multi_object_bounds_sandwich_the_exact_optimum(spec in multi_strategy()) {
        let problem = build_multi_problem(&spec);
        let rational = multi_lower_bound(&problem, BoundKind::Rational);
        let exact = solve_multi_ilp(&problem);
        match (&rational, &exact) {
            (None, Some(placement)) => {
                prop_assert!(
                    false,
                    "relaxation infeasible but exact found cost {}",
                    placement.cost(&problem)
                );
            }
            (Some(bound), Some(placement)) => {
                let cost = placement.cost(&problem) as f64;
                prop_assert!(
                    *bound <= cost + 1e-6,
                    "rational bound {} exceeds exact cost {}", bound, cost
                );
                let mixed = multi_lower_bound(&problem, BoundKind::Mixed)
                    .expect("mixed relaxation of a feasible instance");
                prop_assert!(mixed <= cost + 1e-6, "mixed bound {} exceeds {}", mixed, cost);
                prop_assert!(mixed + 1e-6 >= *bound, "mixed {} below rational {}", mixed, bound);
            }
            // Exact may fail on a feasible relaxation only via the node
            // limit; both-None is plain infeasibility.
            _ => {}
        }
    }
}
