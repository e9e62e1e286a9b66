//! Property tests pinning the allocation-free rewrites to their naive
//! reference semantics: the lazy iterator traversal primitives, the O(1)
//! ancestor/distance checks, the dense load/flow accounting and the
//! reusable solver state must agree **exactly** with the straightforward
//! `Vec` / `BTreeMap` / parent-walk implementations they replaced, on
//! arbitrary random trees. CTDLF, which no longer restarts its traversal
//! after every server, must reproduce the literal restarts.

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use replica_placement::core::heuristics::HeuristicState;
use replica_placement::experiments::ChurnRunConfig;
use replica_placement::lp::{
    solve_lp, solve_lp_reusing, Cmp, LinExpr, Model, SimplexOptions, SimplexWorkspace, Status,
};
use replica_placement::prelude::*;
use replica_placement::tree::{LinkId, NodeId, TreeBuilder};
use replica_placement::workloads::platform::{paper_scale_instance, paper_scale_instance_sized};

/// Strategy: a random tree described by parent pointers (same shape as
/// in `proptest_invariants.rs`).
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

fn instance_strategy() -> impl Strategy<Value = ProblemInstance> {
    (tree_strategy(10, 10), 1u64..=12)
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

/// Strategy: CTDLF instances whose subtree loads often tie (a few small
/// request values, one capacity for every node) and, for three draws in
/// four, a uniform QoS bound of 1-3 hops, under which a node with a
/// distant pending client cannot take a server at any load.
fn ctdlf_instance_strategy() -> impl Strategy<Value = ProblemInstance> {
    (tree_strategy(14, 12), 1u64..=8, 0u32..=3)
        .prop_flat_map(|(tree, capacity, hops)| {
            let clients = tree.num_clients();
            (
                Just(tree),
                Just(capacity),
                Just(hops),
                proptest::collection::vec(0u64..=3, clients),
            )
        })
        .prop_map(|(tree, capacity, hops, requests)| {
            let nodes = tree.num_nodes();
            let builder = ProblemInstance::builder(tree)
                .requests(requests)
                .capacities(vec![capacity; nodes]);
            match hops {
                0 => builder.build(),
                hops => builder.uniform_qos(hops).build(),
            }
        })
}

/// CTDLF as Section 6.1 states it: a breadth-first traversal from the
/// root that enqueues children most-loaded first (ties by id), stops at
/// the first node able to absorb its whole pending subtree, places a
/// server there and starts over from the root.
fn ctdlf_by_restarts(state: &mut HeuristicState<'_>) -> bool {
    let problem = state.problem();
    let tree = problem.tree();
    'restart: loop {
        let mut fifo = VecDeque::from([tree.root()]);
        while let Some(node) = fifo.pop_front() {
            if state.has_replica(node) {
                continue;
            }
            if let Some(load) = state.closest_candidate_load(node) {
                if load > 0 && load <= problem.capacity(node) {
                    state.serve_whole_subtree(node);
                    continue 'restart;
                }
            }
            let mut children = tree.child_nodes(node).to_vec();
            children.sort_by_key(|&child| (Reverse(state.inreq(child)), child));
            fifo.extend(children);
        }
        return state.all_served();
    }
}

/// Runs CTDLF and the restart reference on `problem`; returns both
/// success flags and both (possibly partial) placements.
fn ctdlf_and_reference(problem: &ProblemInstance) -> [(bool, Placement); 2] {
    let mut fast = HeuristicState::new(problem);
    let mut reference = HeuristicState::new(problem);
    let fast_served = Heuristic::Ctdlf.run_with(&mut fast);
    let reference_served = ctdlf_by_restarts(&mut reference);
    [
        (fast_served, fast.into_placement_unchecked()),
        (reference_served, reference.into_placement_unchecked()),
    ]
}

/// CTDLF against the restart reference on instances where it places
/// hundreds of servers: the s = 2000 churn instance of both platforms,
/// as the benchmark builds it, and paper-scale s = 400 instances over
/// the λ grid.
#[test]
fn ctdlf_matches_the_restart_reference_at_scale() {
    let churn = ChurnRunConfig::new();
    for platform in [
        PlatformKind::default_homogeneous(),
        PlatformKind::default_heterogeneous(),
    ] {
        let mut instances = vec![paper_scale_instance_sized(
            2000,
            platform,
            churn.lambda,
            churn.seed,
        )];
        for tenth in 1..=9 {
            let lambda = f64::from(tenth) / 10.0;
            instances.push(paper_scale_instance(platform, lambda, 31));
        }
        for problem in &instances {
            let [fast, reference] = ctdlf_and_reference(problem);
            assert_eq!(fast.0, reference.0, "success flags differ");
            assert!(fast.1 == reference.1, "placements differ");
        }
    }
}

/// Reference ancestor walk over parent pointers.
fn naive_ancestors(tree: &TreeNetwork, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut current = tree.parent_of_node(node);
    while let Some(n) = current {
        out.push(n);
        current = tree.parent_of_node(n);
    }
    out
}

/// Reference depth-first preorder subtree collection.
fn naive_subtree_nodes(tree: &TreeNetwork, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        out.push(n);
        for &child in tree.child_nodes(n).iter().rev() {
            stack.push(child);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ancestor_iterators_match_the_parent_walk(tree in tree_strategy(14, 10)) {
        for node in tree.node_ids() {
            let reference = naive_ancestors(&tree, node);
            prop_assert_eq!(
                tree.ancestors_of_node(node).collect::<Vec<_>>(),
                reference.clone()
            );
            prop_assert_eq!(tree.ancestors_of_node(node).len(), reference.len());
            let mut with_self = vec![node];
            with_self.extend(&reference);
            prop_assert_eq!(tree.self_and_ancestors(node).collect::<Vec<_>>(), with_self);
        }
        for client in tree.client_ids() {
            let parent = tree.parent_of_client(client);
            let mut reference = vec![parent];
            reference.extend(naive_ancestors(&tree, parent));
            prop_assert_eq!(tree.ancestors_of_client(client).collect::<Vec<_>>(), reference);
        }
    }

    #[test]
    fn interval_stamps_match_walked_ancestry(tree in tree_strategy(14, 10)) {
        for a in tree.node_ids() {
            let ancestry: Vec<NodeId> = tree.self_and_ancestors(a).collect();
            for b in tree.node_ids() {
                prop_assert_eq!(
                    tree.node_is_ancestor_or_self(a, b),
                    ancestry.contains(&b),
                    "nodes {} / {}", a, b
                );
            }
        }
    }

    #[test]
    fn subtree_slices_match_the_dfs_reference(tree in tree_strategy(14, 10)) {
        for node in tree.node_ids() {
            let reference = naive_subtree_nodes(&tree, node);
            prop_assert_eq!(tree.subtree_nodes(node), &reference[..]);
            // Clients grouped by preorder of their parent, insertion
            // order within a parent — exactly the old collection order.
            let mut clients = Vec::new();
            for &n in &reference {
                clients.extend_from_slice(tree.child_clients(n));
            }
            prop_assert_eq!(tree.subtree_clients(node), &clients[..]);
        }
    }

    #[test]
    fn distances_and_paths_match_hop_counting(tree in tree_strategy(14, 10)) {
        for client in tree.client_ids() {
            // Walk up from the client, counting hops to every ancestor.
            let mut expected: BTreeMap<NodeId, u32> = BTreeMap::new();
            let mut hops = 1u32;
            let mut current = tree.parent_of_client(client);
            loop {
                expected.insert(current, hops);
                match tree.parent_of_node(current) {
                    Some(p) => {
                        current = p;
                        hops += 1;
                    }
                    None => break,
                }
            }
            for server in tree.node_ids() {
                prop_assert_eq!(
                    tree.client_distance(client, server),
                    expected.get(&server).copied()
                );
                match tree
                    .client_path_links(client, server)
                    .map(Iterator::collect::<Vec<_>>)
                {
                    Some(links) => {
                        prop_assert_eq!(links.len() as u32, expected[&server]);
                        prop_assert_eq!(links[0], LinkId::Client(client));
                        for pair in links.windows(2) {
                            // Consecutive links stack upwards.
                            let lower_top = tree.link_upper(pair[0]);
                            prop_assert_eq!(pair[1], LinkId::Node(lower_top));
                        }
                        prop_assert_eq!(tree.link_upper(*links.last().unwrap()), server);
                    }
                    None => prop_assert!(!expected.contains_key(&server)),
                }
            }
        }
    }

    #[test]
    fn depths_and_lca_match_reference_walks(tree in tree_strategy(14, 10)) {
        for node in tree.node_ids() {
            prop_assert_eq!(
                tree.node_depth(node) as usize,
                naive_ancestors(&tree, node).len()
            );
        }
        for a in tree.node_ids() {
            let ancestors_a: std::collections::HashSet<NodeId> =
                tree.self_and_ancestors(a).collect();
            for b in tree.node_ids() {
                // Reference LCA: walk b upwards until hitting a's chain.
                let mut current = b;
                let expected = loop {
                    if ancestors_a.contains(&current) {
                        break current;
                    }
                    current = tree.parent_of_node(current).unwrap();
                };
                prop_assert_eq!(tree.lowest_common_ancestor(a, b), expected);
            }
        }
    }

    #[test]
    fn dense_accounting_matches_btreemap_reference(instance in instance_strategy()) {
        let tree = instance.tree();
        for heuristic in Heuristic::ALL {
            let Some(placement) = heuristic.run(&instance) else { continue };

            // Reference server loads: a BTreeMap accumulated per
            // assignment (the pre-dense implementation).
            let mut expected_loads: BTreeMap<NodeId, u64> = BTreeMap::new();
            for client in tree.client_ids() {
                for a in placement.assignments(client) {
                    *expected_loads.entry(a.server).or_insert(0) += a.amount;
                }
            }
            let dense = placement.server_loads(tree.num_nodes());
            for (node, &load) in dense.iter() {
                prop_assert_eq!(load, expected_loads.get(&node).copied().unwrap_or(0));
            }

            // Reference link flows: accumulate every client->server path.
            let mut expected_flows: BTreeMap<LinkId, u64> = BTreeMap::new();
            for client in tree.client_ids() {
                for a in placement.assignments(client) {
                    let links = tree
                        .client_path_links(client, a.server)
                        .expect("assignments lie on the client path");
                    for link in links {
                        *expected_flows.entry(link).or_insert(0) += a.amount;
                    }
                }
            }
            let dense_flows = placement.link_flows(&instance);
            let mut seen = 0usize;
            for (link, &flow) in dense_flows.iter() {
                prop_assert_eq!(flow, expected_flows.get(&link).copied().unwrap_or(0));
                seen += 1;
            }
            prop_assert_eq!(seen, tree.num_links());
        }
    }

    #[test]
    fn reused_state_matches_fresh_runs(instance in instance_strategy()) {
        // One shared state across all eight heuristics (the MixedBest
        // path) must reproduce every fresh run bit for bit.
        let mut state = HeuristicState::new(&instance);
        let mut first = true;
        for heuristic in Heuristic::BASE {
            if !first {
                state.reset();
            }
            first = false;
            let solved = heuristic.run_with(&mut state);
            let fresh = heuristic.run(&instance);
            prop_assert_eq!(solved, fresh.is_some(), "{}", heuristic);
            if let Some(fresh) = fresh {
                prop_assert_eq!(state.placement(), &fresh, "{}", heuristic);
            }
        }
    }

    #[test]
    fn simplex_workspace_reuse_matches_fresh_solves(
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
            let a = vars[j % vars.len()];
            let b = vars[(j + 1) % vars.len()];
            model.add_constraint(format!("d{j}"), LinExpr::var(a).plus(1.0, b), Cmp::Ge, demand);
        }
        let fresh = solve_lp(&model);
        // A workspace dirtied by an unrelated solve must not change the
        // result.
        let mut ws = SimplexWorkspace::new();
        let mut other = Model::minimize();
        let x = other.add_var("x", 0.0, None, 1.0);
        other.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 3.0);
        let _ = solve_lp_reusing(&other, &SimplexOptions::default(), &mut ws);
        let reused = solve_lp_reusing(&model, &SimplexOptions::default(), &mut ws);
        prop_assert_eq!(fresh.status, Status::Optimal);
        prop_assert_eq!(reused.status, Status::Optimal);
        prop_assert!((fresh.objective - reused.objective).abs() < 1e-9);
        for (a, b) in fresh.values.iter().zip(&reused.values) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

proptest! {
    // Tiny instances: many cases cost little.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ctdlf_matches_the_restart_from_root_reference(instance in ctdlf_instance_strategy()) {
        let [fast, reference] = ctdlf_and_reference(&instance);
        prop_assert_eq!(fast.0, reference.0);
        prop_assert_eq!(fast.1, reference.1);
    }
}
