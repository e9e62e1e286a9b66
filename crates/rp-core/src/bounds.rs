//! Combinatorial lower bounds on the replica cost.
//!
//! These are the cheap, closed-form bounds discussed in Section 3.4 of
//! the paper. The stronger LP-based bound (Section 7.1) lives in
//! [`crate::ilp`]. Section 3.4 also shows (Figure 5) that the trivial
//! bound can be arbitrarily far from the optimal cost, which the tests
//! of `rp-workloads::paper_examples` reproduce.

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
/// function computes.
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

/// A quick infeasibility check that is valid for every policy: the
/// requests of each client must fit within the total capacity of its
/// eligible servers, and the overall load cannot exceed the overall
/// capacity. Returns `false` only when the instance is *certainly*
/// infeasible (the converse does not hold).
pub fn passes_basic_feasibility(problem: &ProblemInstance) -> bool {
    if problem.total_requests() > problem.total_capacity() {
        return false;
    }
    for client in problem.tree().client_ids() {
        let reachable: u64 = problem
            .eligible_servers(client)
            .map(|n| problem.capacity(n))
            .sum();
        if problem.requests(client) > reachable {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{build_model, lower_bound, BoundKind, Integrality};
    use crate::policy::Policy;
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
        assert!(passes_basic_feasibility(&feasible));
        let overloaded = chain_with_clients(vec![30, 3], vec![5, 5]);
        assert!(!passes_basic_feasibility(&overloaded));
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
        assert!(!passes_basic_feasibility(&p));
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
    fn zero_capacity_instances() {
        let p = chain_with_clients(vec![1], vec![0, 0]);
        assert_eq!(replica_counting_lower_bound(&p), Some(u64::MAX));
        assert!(replica_cost_lower_bound(&p).is_infinite());
        assert!(!passes_basic_feasibility(&p));
    }
}
