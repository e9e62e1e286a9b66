//! Property-based tests (proptest) over randomly generated trees and
//! workloads: structural invariants of the tree substrate, solver
//! consistency on arbitrary instances, and round-trips of the text
//! serialisation.

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use proptest::prelude::*;

use replica_placement::core::exact::solve_multiple_homogeneous;
use replica_placement::core::ilp::{lower_bound, BoundKind};
use replica_placement::lp::oracle::solve_lp;
use replica_placement::lp::{Cmp, LinExpr, Model, Status};
use replica_placement::prelude::*;
use replica_placement::tree::text::{parse_tree, write_tree};
use replica_placement::tree::TreeBuilder;

/// Strategy: a random tree described by parent pointers. The raw parent
/// value for internal node `i + 1` is reduced modulo `i + 1`, so every
/// parent reference points at an earlier node; clients attach to a
/// random node each.
fn tree_strategy(max_nodes: usize, max_clients: usize) -> impl Strategy<Value = TreeNetwork> {
    (1..=max_nodes, 1..=max_clients)
        .prop_flat_map(move |(nodes, clients)| {
            let node_parents = proptest::collection::vec(0usize..max_nodes, nodes - 1);
            let client_parents = proptest::collection::vec(0usize..nodes, clients);
            (node_parents, client_parents)
        })
        .prop_map(|(node_parents, client_parents)| {
            let mut builder = TreeBuilder::new();
            let mut handles = vec![builder.add_root()];
            for (i, raw) in node_parents.into_iter().enumerate() {
                let parent = handles[raw % (i + 1)];
                handles.push(builder.add_node(parent));
            }
            for parent in client_parents {
                builder.add_client(handles[parent]);
            }
            builder.build().expect("constructed trees are valid")
        })
}

/// Strategy: a full homogeneous problem instance.
fn homogeneous_instance_strategy() -> impl Strategy<Value = ProblemInstance> {
    (tree_strategy(8, 8), 1u64..=12)
        .prop_flat_map(|(tree, capacity)| {
            let clients = tree.num_clients();
            (
                Just(tree),
                Just(capacity),
                proptest::collection::vec(0u64..=10, clients),
            )
        })
        .prop_map(|(tree, capacity, requests)| {
            ProblemInstance::replica_counting(tree, requests, capacity)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_text_round_trips(tree in tree_strategy(12, 12)) {
        let text = write_tree(&tree);
        let parsed = parse_tree(&text).expect("writer output must parse");
        prop_assert_eq!(parsed, tree);
    }

    #[test]
    fn ancestors_always_end_at_the_root(tree in tree_strategy(12, 12)) {
        let root = tree.root();
        for client in tree.client_ids() {
            let ancestors: Vec<NodeId> = tree.ancestors_of_client(client).collect();
            prop_assert!(!ancestors.is_empty());
            prop_assert_eq!(*ancestors.last().unwrap(), root);
            // The lazy iterator reports its exact length.
            prop_assert_eq!(tree.ancestors_of_client(client).len(), ancestors.len());
            prop_assert!(tree.ancestors_of_client(client).eq(ancestors.iter().copied()));
            // Each consecutive pair is a parent link.
            for pair in ancestors.windows(2) {
                prop_assert_eq!(tree.parent_of_node(pair[0]), Some(pair[1]));
            }
        }
    }

    #[test]
    fn traversals_cover_each_node_exactly_once(tree in tree_strategy(16, 8)) {
        let total = tree.num_nodes();
        for order in [tree.bfs_nodes(), tree.dfs_preorder_nodes(), tree.postorder_nodes()] {
            prop_assert_eq!(order.len(), total);
            let unique: std::collections::HashSet<_> = order.iter().copied().collect();
            prop_assert_eq!(unique.len(), total);
        }
    }

    #[test]
    fn subtree_requests_add_up(
        instance in homogeneous_instance_strategy()
    ) {
        // The root's subtree contains every request; a node's subtree
        // total equals its children's totals plus its own clients.
        let tree = instance.tree();
        prop_assert_eq!(instance.subtree_requests(tree.root()), instance.total_requests());
        for node in tree.node_ids() {
            let children_sum: u64 = tree
                .child_nodes(node)
                .iter()
                .map(|&c| instance.subtree_requests(c))
                .sum::<u64>()
                + tree
                    .child_clients(node)
                    .iter()
                    .map(|&c| instance.requests(c))
                    .sum::<u64>();
            prop_assert_eq!(instance.subtree_requests(node), children_sum);
        }
    }

    #[test]
    fn optimal_multiple_solutions_are_valid_and_lp_bounded(
        instance in homogeneous_instance_strategy()
    ) {
        match solve_multiple_homogeneous(&instance).into_placement() {
            Some(placement) => {
                prop_assert!(placement.is_valid(&instance, Policy::Multiple));
                // Every heuristic that succeeds costs at least as much.
                for heuristic in Heuristic::ALL {
                    if let Some(other) = heuristic.run(&instance) {
                        prop_assert!(other.is_valid(&instance, heuristic.policy()));
                        prop_assert!(other.cost(&instance) >= placement.cost(&instance));
                    }
                }
                // The LP bound does not exceed the optimal cost.
                if let Some(bound) = lower_bound(&instance, BoundKind::Rational) {
                    prop_assert!(bound <= placement.cost(&instance) as f64 + 1e-6);
                }
            }
            None => {
                // If the optimal algorithm says infeasible, MG must fail too.
                prop_assert!(Heuristic::Mg.run(&instance).is_none());
            }
        }
    }

    #[test]
    fn heuristic_placements_satisfy_capacity_constraints(
        instance in homogeneous_instance_strategy()
    ) {
        for heuristic in Heuristic::ALL {
            if let Some(placement) = heuristic.run(&instance) {
                let loads = placement.server_loads(instance.tree().num_nodes());
                for (server, &load) in loads.iter() {
                    prop_assert!(load <= instance.capacity(server));
                }
                for client in instance.tree().client_ids() {
                    prop_assert_eq!(
                        placement.assigned_requests(client),
                        instance.requests(client)
                    );
                }
            }
        }
    }

    #[test]
    fn simplex_solutions_are_feasible_and_consistent(
        // Random small LPs: minimise a positive combination subject to
        // cover-style constraints; they are always feasible and bounded.
        costs in proptest::collection::vec(1.0f64..10.0, 3..6),
        demands in proptest::collection::vec(1.0f64..20.0, 2..5),
    ) {
        let mut model = Model::minimize();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| model.add_var(format!("x{i}"), 0.0, Some(50.0), c))
            .collect();
        for (j, &demand) in demands.iter().enumerate() {
            // Each demand is covered by a cyclic pair of variables.
            let a = vars[j % vars.len()];
            let b = vars[(j + 1) % vars.len()];
            model.add_constraint(
                format!("d{j}"),
                LinExpr::var(a).plus(1.0, b),
                Cmp::Ge,
                demand,
            );
        }
        let solution = solve_lp(&model);
        prop_assert_eq!(solution.status, Status::Optimal);
        prop_assert!(model.is_feasible(&solution.values, 1e-6));
        let recomputed = model.objective_value(&solution.values);
        prop_assert!((recomputed - solution.objective).abs() < 1e-6);
    }
}
