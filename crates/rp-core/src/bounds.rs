//! Combinatorial lower bounds on the replica cost, and the exact
//! feasibility check of the Multiple policy.
//!
//! The bounds are the cheap, closed-form ones discussed in Section 3.4
//! of the paper. The LP-based bounds (Section 7.1) live in
//! [`crate::ilp`]. Where storage costs are proportional to capacities,
//! as on both of the paper's platforms, the fully rational one is no
//! stronger than the volume bound: its optimum *is* that bound
//! ([`rational_relaxation_optimum`]). Only the mixed relaxation, with
//! integral `x`, can rise above it there. Section 3.4 also shows
//! (Figure 5) that the trivial bound can be arbitrarily far from the
//! optimal cost, which the tests of `rp-workloads::paper_examples`
//! reproduce.

use rp_tree::LinkId;

use crate::problem::ProblemInstance;

/// The obvious lower bound on the number of replicas for the
/// **Replica Counting** problem: `ceil(Σ r_i / W)` (Section 3.4).
///
/// Returns `None` when the instance is not homogeneous (the bound is
/// specific to identical servers).
pub fn replica_counting_lower_bound(problem: &ProblemInstance) -> Option<u64> {
    let capacity = problem.homogeneous_capacity()?;
    if capacity == 0 {
        return Some(u64::MAX);
    }
    Some(problem.total_requests().div_ceil(capacity))
}

/// The trivial lower bound on the total storage cost for the
/// **Replica Cost** problem with `s_j = W_j`: any valid replica set must
/// have total capacity at least `Σ r_i`, hence total cost at least
/// `Σ r_i`.
///
/// For instances whose costs are *not* proportional to capacities the
/// bound generalises to `Σ r_i × min_j (s_j / W_j)`, which is what this
/// function computes. Where they are proportional, it is also the exact
/// optimum of the rational LP relaxation
/// ([`rational_relaxation_optimum`]).
pub fn replica_cost_lower_bound(problem: &ProblemInstance) -> f64 {
    let total_requests = problem.total_requests() as f64;
    let min_cost_per_capacity = problem
        .tree()
        .node_ids()
        .filter(|&n| problem.capacity(n) > 0)
        .map(|n| problem.storage_cost(n) as f64 / problem.capacity(n) as f64)
        .fold(f64::INFINITY, f64::min);
    if min_cost_per_capacity.is_infinite() {
        // No node has positive capacity: only the zero-request instance
        // is feasible, with cost 0.
        return if total_requests == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    total_requests * min_cost_per_capacity
}

/// The optimum of the fully rational **Multiple** relaxation (the
/// [`crate::ilp::BoundKind::Rational`] LP bound) of a feasible `problem`
/// whose storage costs are proportional to its capacities, `s_j = c·W_j`
/// at every node with `W_j > 0`: the volume bound `c·Σ r_i` of
/// [`replica_cost_lower_bound`]. Both of the paper's platforms qualify:
/// Replica Counting has `s_j = 1, W_j = W`, Replica Cost `s_j = W_j`.
///
/// Proof: a node's capacity row gives `s_j·x_j = c·W_j·x_j ≥ c·load_j`
/// (a node with `W_j = 0` carries no load), so every feasible point
/// costs at least `c·Σ_j load_j = c·Σ r_i`; and `x_j = load_j / W_j ≤ 1`
/// (0 where `W_j = 0`) keeps a feasible point feasible at exactly that
/// cost. QoS bounds and link bandwidths constrain only the loads.
///
/// `None` when the costs are not proportional, tested exactly by
/// `s_j·W_k = s_k·W_j` in 128-bit integers over the nodes with `W > 0`,
/// or when no node has positive capacity. **Precondition:** `problem`
/// is feasible ([`multiple_is_feasible`]); an infeasible relaxation has
/// no optimum, and the value then bounds nothing.
pub fn rational_relaxation_optimum(problem: &ProblemInstance) -> Option<f64> {
    let mut serving = problem
        .tree()
        .node_ids()
        .filter(|&n| problem.capacity(n) > 0)
        .map(|n| {
            (
                u128::from(problem.storage_cost(n)),
                u128::from(problem.capacity(n)),
            )
        });
    let (cost, capacity) = serving.next()?;
    serving
        .all(|(s, w)| s * capacity == cost * w)
        .then(|| replica_cost_lower_bound(problem))
}

/// Whether some **Multiple** placement serves every request of
/// `problem` within its capacities, QoS bounds and link bandwidths.
/// Exact, and valid for every policy in one direction: a Closest or
/// Upwards placement is also a Multiple one, so `false` proves that no
/// policy has a valid placement.
///
/// One bottom-up pass, O(s log s): each node serves the pending demand
/// of its subtree up to its capacity, the demand whose QoS bound allows
/// the fewest servers above first (earliest deadline first), and sends
/// the rest up its link. Serving as low as possible minimises every
/// link's flow, and the deadline order can only free servers for the
/// demand that may still climb, so the pass fails only when no
/// placement exists: a client's uplink or a node's link carries too
/// much, or demand is left over at the last server its QoS allows.
///
/// Two callers act on `false`: the repair ladder skips its full-service
/// rungs ([`crate::failures`]), and the sweep runner of `rp-experiments`
/// settles a trial without running a heuristic or the LP bound (the
/// rational and the mixed relaxation are then both infeasible).
pub fn multiple_is_feasible(problem: &ProblemInstance) -> bool {
    let tree = problem.tree();
    let order = tree.postorder_nodes();
    // Demand not served yet, as (depth of the highest server that may
    // take it, amount). The post-order visits each subtree as one run of
    // nodes ending at its root, so a subtree's pending demand is the
    // tail of `pending` pushed since its first node was visited.
    let mut pending: Vec<(u32, u64)> = Vec::new();
    let mut marks: Vec<usize> = Vec::with_capacity(order.len());
    for (at, &node) in order.iter().enumerate() {
        marks.push(pending.len());
        for &client in tree.child_clients(node) {
            let requests = problem.requests(client);
            if requests == 0 {
                continue;
            }
            let uplink = problem.bandwidth(LinkId::Client(client));
            let Some(top) = problem.eligible_servers(client).last() else {
                return false;
            };
            if uplink.is_some_and(|bw| bw < requests) {
                return false;
            }
            pending.push((tree.node_depth(top), requests));
        }

        let start = marks[at + 1 - tree.subtree_nodes(node).len()];
        pending[start..].sort_unstable_by_key(|&(top, _)| std::cmp::Reverse(top));
        let depth = tree.node_depth(node);
        let mut capacity = problem.capacity(node);
        let (mut kept, mut climbing) = (start, 0u64);
        for i in start..pending.len() {
            let (top, amount) = pending[i];
            let left = amount - amount.min(capacity);
            capacity -= amount - left;
            if left == 0 {
                continue;
            }
            if top >= depth {
                return false;
            }
            pending[kept] = (top, left);
            kept += 1;
            climbing += left;
        }
        pending.truncate(kept);
        let link = problem.bandwidth(LinkId::Node(node));
        if climbing > 0 && link.is_some_and(|bw| bw < climbing) {
            return false;
        }
    }
    // The root's QoS check left nothing pending.
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{build_model, lower_bound, BoundKind, Integrality};
    use crate::policy::Policy;
    use crate::problem::ProblemBuilder;
    use rp_tree::TreeBuilder;

    fn chain_with_clients(requests: Vec<u64>, capacities: Vec<u64>) -> ProblemInstance {
        // A root with one internal child per extra capacity entry, clients
        // all attached to the deepest node.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mut deepest = root;
        for _ in 1..capacities.len() {
            deepest = b.add_node(deepest);
        }
        for _ in 0..requests.len() {
            b.add_client(deepest);
        }
        let tree = b.build().unwrap();
        ProblemInstance::replica_cost(tree, requests, capacities)
    }

    #[test]
    fn counting_bound_is_ceiling_of_load() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_clients(root, 3);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_counting(tree, vec![4, 5, 2], 10);
        assert_eq!(replica_counting_lower_bound(&p), Some(2)); // ceil(11/10)
    }

    #[test]
    fn counting_bound_requires_homogeneity() {
        let p = chain_with_clients(vec![1, 1], vec![5, 7]);
        assert_eq!(replica_counting_lower_bound(&p), None);
    }

    #[test]
    fn cost_bound_equals_total_requests_when_cost_is_capacity() {
        let p = chain_with_clients(vec![4, 6], vec![5, 7]);
        assert!((replica_cost_lower_bound(&p) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cost_bound_uses_cheapest_cost_per_capacity() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![10])
            .capacities(vec![10, 20])
            .storage_costs(vec![20, 10]) // mid is twice as cost-efficient
            .build();
        assert!((replica_cost_lower_bound(&p) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn basic_feasibility_detects_overload() {
        let feasible = chain_with_clients(vec![3, 3], vec![5, 5]);
        assert!(multiple_is_feasible(&feasible));
        let overloaded = chain_with_clients(vec![30, 3], vec![5, 5]);
        assert!(!multiple_is_feasible(&overloaded));
    }

    #[test]
    fn basic_feasibility_respects_qos_reachability() {
        // Client can only reach its parent (q = 1) whose capacity is too
        // small, even though the root has plenty.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![10])
            .capacities(vec![100, 5])
            .qos(vec![Some(1)])
            .build();
        assert!(!multiple_is_feasible(&p));
    }

    /// root(W = `caps[0]`) -> mid(W = `caps[1]`) -> {c0, c1}; root -> c2.
    fn two_level(requests: [u64; 3], caps: [u64; 2]) -> ProblemBuilder {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(mid);
        b.add_client(root);
        ProblemInstance::builder(b.build().unwrap())
            .requests(requests.to_vec())
            .capacities(caps.to_vec())
    }

    #[test]
    fn multiple_feasibility_serves_the_tightest_qos_bound_first() {
        // c0 may only use `mid`, c1 may climb to the root: `mid` must
        // spend its 5 on c0, whatever order the clients come in.
        let p = two_level([5, 5, 0], [5, 5])
            .qos(vec![Some(1), None, None])
            .build();
        assert!(multiple_is_feasible(&p));
        let p = two_level([5, 5, 0], [5, 5])
            .qos(vec![None, Some(1), None])
            .build();
        assert!(multiple_is_feasible(&p));
        // Both pinned to `mid`: 10 requests, 5 capacity.
        let p = two_level([5, 5, 0], [5, 5]).uniform_qos(1).build();
        assert!(!multiple_is_feasible(&p));
        // No demand needs no capacity.
        assert!(multiple_is_feasible(&two_level([0, 0, 0], [0, 0]).build()));
    }

    #[test]
    fn multiple_feasibility_respects_link_bandwidths() {
        // `mid` serves 5 of c0 + c1 = 8; the other 3 climb its link.
        let fits = two_level([4, 4, 2], [5, 5]).node_link_bandwidths(vec![None, Some(3)]);
        assert!(multiple_is_feasible(&fits.build()));
        let narrow = two_level([4, 4, 2], [5, 5]).node_link_bandwidths(vec![None, Some(2)]);
        assert!(!multiple_is_feasible(&narrow.build()));
        // A client's own uplink carries all of its requests.
        let uplinks = vec![Some(4), Some(4), Some(1)];
        let cut = two_level([4, 4, 2], [5, 5]).client_link_bandwidths(uplinks);
        assert!(!multiple_is_feasible(&cut.build()));
    }

    #[test]
    fn multiple_feasibility_matches_the_lp_relaxation() {
        // Random small instances with QoS bounds and link bandwidths:
        // the pass says feasible exactly when the rational Multiple LP
        // has an optimum.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut feasible, mut infeasible) = (0, 0);
        for _ in 0..300 {
            let mut b = TreeBuilder::new();
            let mut nodes = vec![b.add_root()];
            for _ in 0..1 + draw(5) {
                let parent = nodes[draw(nodes.len() as u64) as usize];
                nodes.push(b.add_node(parent));
            }
            let clients = 1 + draw(6) as usize;
            for _ in 0..clients {
                b.add_client(nodes[draw(nodes.len() as u64) as usize]);
            }
            let tree = b.build().unwrap();
            let mut limit = |cap: u64| (draw(3) == 0).then(|| draw(cap));
            let client_bw = (0..clients).map(|_| limit(12)).collect();
            let node_bw = (0..nodes.len()).map(|_| limit(16)).collect();
            let qos: Vec<Option<u32>> = (0..clients)
                .map(|_| (draw(3) == 0).then(|| 1 + draw(3) as u32))
                .collect();
            let p = ProblemInstance::builder(tree)
                .requests((0..clients).map(|_| draw(9)).collect())
                .capacities((0..nodes.len()).map(|_| draw(12)).collect())
                .qos(qos)
                .client_link_bandwidths(client_bw)
                .node_link_bandwidths(node_bw)
                .build();
            let lp = lower_bound(&p, BoundKind::Rational);
            assert_eq!(multiple_is_feasible(&p), lp.is_some(), "{p:?}");
            if let Some(lp) = lp {
                feasible += 1;
                // The costs default to the capacities, so where some node
                // serves, the closed form is the LP's optimum.
                if let Some(exact) = rational_relaxation_optimum(&p) {
                    assert!((exact - lp).abs() <= 1e-6, "{exact} vs {lp}: {p:?}");
                }
            } else {
                infeasible += 1;
            }
        }
        assert!(
            feasible > 50 && infeasible > 50,
            "{feasible} / {infeasible}"
        );
    }

    #[test]
    fn lp_bound_agrees_across_engines_and_dominates_the_trivial_bound() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(mid);
        b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![4, 3, 5], vec![10, 6]);
        let revised = lower_bound(&p, BoundKind::Rational).expect("feasible");
        let model = build_model(&p, Policy::Multiple, Integrality::RationalBound).model;
        let dense = rp_lp::oracle::solve_lp(&model);
        assert_eq!(dense.status, rp_lp::Status::Optimal);
        let dense = dense.objective;
        assert!((revised - dense).abs() < 1e-6, "{revised} vs {dense}");
        assert!(revised + 1e-6 >= replica_cost_lower_bound(&p));
    }

    #[test]
    fn closed_form_is_the_rational_optimum_on_both_paper_platforms() {
        // Replica Counting (s_j = 1, W_j = W) and Replica Cost (s_j = W_j)
        // on the same tree: c·Σ r_i = 15/6 and 15.
        let (requests, capacities) = (vec![3, 1, 9, 2], vec![6, 4, 5]);
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let a = b.add_node(root);
        let c = b.add_node(root);
        for parent in [a, a, c, root] {
            b.add_client(parent);
        }
        let tree = b.build().unwrap();
        let counting = ProblemInstance::replica_counting(tree.clone(), requests.clone(), 6);
        let cost = ProblemInstance::replica_cost(tree, requests, capacities);
        for (p, expected) in [(counting, 2.5), (cost, 15.0)] {
            assert!(multiple_is_feasible(&p));
            let lp = lower_bound(&p, BoundKind::Rational).unwrap();
            let exact = rational_relaxation_optimum(&p).unwrap();
            assert!((exact - expected).abs() < 1e-12, "{exact}");
            assert!((lp - exact).abs() < 1e-9, "{lp} vs {exact}");
        }
    }

    #[test]
    fn closed_form_needs_proportional_costs() {
        // `mid` is twice as cost-efficient as the root: the volume bound
        // (15) is below the LP (20), which must also pay for the 10
        // requests the root serves at full price.
        let two_level = |costs: Vec<u64>| {
            let mut b = TreeBuilder::new();
            let root = b.add_root();
            let mid = b.add_node(root);
            b.add_client(mid);
            ProblemInstance::builder(b.build().unwrap())
                .requests(vec![30])
                .capacities(vec![20, 20])
                .storage_costs(costs)
                .build()
        };
        let skewed = two_level(vec![20, 10]);
        assert_eq!(rational_relaxation_optimum(&skewed), None);
        let lp = lower_bound(&skewed, BoundKind::Rational).unwrap();
        assert!((lp - 20.0).abs() < 1e-9, "{lp}");
        assert!(replica_cost_lower_bound(&skewed) < lp - 1.0);
        // Scaling every cost by one factor keeps them proportional.
        let scaled = two_level(vec![30, 30]);
        assert_eq!(rational_relaxation_optimum(&scaled), Some(45.0));
    }

    #[test]
    fn closed_form_ignores_nodes_without_capacity() {
        // `mid` cannot serve, so its cost says nothing about the others'
        // ratio: the root (s = 2·W) alone decides, at 2 per request.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(root);
        let p = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![3, 4])
            .capacities(vec![10, 0])
            .storage_costs(vec![20, 7])
            .build();
        assert_eq!(rational_relaxation_optimum(&p), Some(14.0));
        let lp = lower_bound(&p, BoundKind::Rational).unwrap();
        assert!((lp - 14.0).abs() < 1e-9, "{lp}");
        // With no capacity anywhere there is no ratio to scale by.
        let idle = chain_with_clients(vec![0], vec![0, 0]);
        assert!(multiple_is_feasible(&idle));
        assert_eq!(rational_relaxation_optimum(&idle), None);
    }

    #[test]
    fn closed_form_cross_multiplies_without_overflow() {
        // Products of two values near u64::MAX need 128 bits.
        let near = |costs: Vec<u64>, capacities: Vec<u64>| {
            let mut b = TreeBuilder::new();
            let root = b.add_root();
            let mid = b.add_node(root);
            b.add_client(mid);
            ProblemInstance::builder(b.build().unwrap())
                .requests(vec![2])
                .capacities(capacities)
                .storage_costs(costs)
                .build()
        };
        let max = u64::MAX;
        let proportional = near(vec![max, max - 1], vec![max, max - 1]);
        assert_eq!(rational_relaxation_optimum(&proportional), Some(2.0));
        let off_by_one = near(vec![max, max], vec![max, max - 1]);
        assert_eq!(rational_relaxation_optimum(&off_by_one), None);
        let halves = near(vec![max - 1, max / 2], vec![max - 1, max / 2]);
        assert!(rational_relaxation_optimum(&halves).is_some());
    }

    #[test]
    fn zero_capacity_instances() {
        let p = chain_with_clients(vec![1], vec![0, 0]);
        assert_eq!(replica_counting_lower_bound(&p), Some(u64::MAX));
        assert!(replica_cost_lower_bound(&p).is_infinite());
        assert!(!multiple_is_feasible(&p));
    }
}
