//! Multiple object types — the extension sketched in Section 8.1 of the
//! paper.
//!
//! With several databases (objects), each client issues `r_i^(k)`
//! requests for object `k`, a node may host replicas of several objects
//! (paying a per-object storage cost `s_j^(k)`), and the node's
//! processing capacity `W_j` is shared across all the objects it serves.
//! The objective is the total cost of all replicas of all types.
//!
//! The paper notes that the ILP formulation extends naturally but that
//! designing good heuristics is an open problem; this module provides
//!
//! * [`MultiObjectProblem`] / [`MultiPlacement`] with full validation,
//! * an exact ILP for the Multiple policy ([`solve_multi_ilp`]),
//! * a practical sequential heuristic ([`solve_multi_greedy`]) that
//!   allocates objects one at a time against the residual capacities,
//!   reusing any of the single-object heuristics.

use std::sync::Arc;

use rp_tree::{ClientId, LinkId, NodeId, TreeNetwork};

use crate::heuristics::Heuristic;
use crate::policy::Policy;
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// Identifier of an object (database) type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Dense index of the object.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A replica-placement instance with several object types.
#[derive(Clone, Debug)]
pub struct MultiObjectProblem {
    tree: Arc<TreeNetwork>,
    /// `requests[k][i]` = requests of client `i` for object `k`.
    requests: Vec<Vec<u64>>,
    /// Shared processing capacity per node.
    capacities: Vec<u64>,
    /// `storage_costs[k][j]` = cost of a replica of object `k` at node `j`.
    storage_costs: Vec<Vec<u64>>,
    /// Bandwidth of the link above every client (`None` = unbounded).
    /// Like the node capacities, link bandwidths are **shared across
    /// the objects**: the flows of every object traverse the same wire.
    client_link_bandwidth: Vec<Option<u64>>,
    /// Bandwidth of the link above every node (root entry unused).
    node_link_bandwidth: Vec<Option<u64>>,
}

impl MultiObjectProblem {
    /// Builds a multi-object instance.
    ///
    /// `requests[k]` and `storage_costs[k]` must have one entry per
    /// client / node respectively, for every object `k`.
    pub fn new(
        tree: impl Into<Arc<TreeNetwork>>,
        requests: Vec<Vec<u64>>,
        capacities: Vec<u64>,
        storage_costs: Vec<Vec<u64>>,
    ) -> Self {
        let tree = tree.into();
        assert!(!requests.is_empty(), "at least one object type is required");
        assert_eq!(
            requests.len(),
            storage_costs.len(),
            "one storage-cost table per object is required"
        );
        for (k, object_requests) in requests.iter().enumerate() {
            assert_eq!(
                object_requests.len(),
                tree.num_clients(),
                "object {k}: one request count per client is required"
            );
        }
        for (k, object_costs) in storage_costs.iter().enumerate() {
            assert_eq!(
                object_costs.len(),
                tree.num_nodes(),
                "object {k}: one storage cost per node is required"
            );
        }
        assert_eq!(capacities.len(), tree.num_nodes());
        let (num_clients, num_nodes) = (tree.num_clients(), tree.num_nodes());
        MultiObjectProblem {
            tree,
            requests,
            capacities,
            storage_costs,
            client_link_bandwidth: vec![None; num_clients],
            node_link_bandwidth: vec![None; num_nodes],
        }
    }

    /// Bounds the links of the tree (shared across all the objects):
    /// one entry per client link and one per node link, in index order
    /// (`None` = unbounded; the root's node entry is ignored).
    pub fn with_link_bandwidths(
        mut self,
        client_links: Vec<Option<u64>>,
        node_links: Vec<Option<u64>>,
    ) -> Self {
        assert_eq!(client_links.len(), self.tree.num_clients());
        assert_eq!(node_links.len(), self.tree.num_nodes());
        self.client_link_bandwidth = client_links;
        self.node_link_bandwidth = node_links;
        self
    }

    /// Bandwidth of a link, if bounded (`BW_l`).
    pub fn bandwidth(&self, link: LinkId) -> Option<u64> {
        match link {
            LinkId::Client(c) => self.client_link_bandwidth[c.index()],
            LinkId::Node(n) => self.node_link_bandwidth[n.index()],
        }
    }

    /// `true` when at least one link carries a bandwidth bound.
    pub fn has_bandwidth_limits(&self) -> bool {
        self.client_link_bandwidth.iter().any(|b| b.is_some())
            || self.node_link_bandwidth.iter().any(|b| b.is_some())
    }

    /// The underlying tree.
    pub fn tree(&self) -> &TreeNetwork {
        &self.tree
    }

    /// Number of object types.
    pub fn num_objects(&self) -> usize {
        self.requests.len()
    }

    /// All object ids.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.num_objects()).map(|k| ObjectId(k as u32))
    }

    /// Requests of `client` for `object`.
    pub fn requests(&self, object: ObjectId, client: ClientId) -> u64 {
        self.requests[object.index()][client.index()]
    }

    /// Shared capacity of `node`.
    pub fn capacity(&self, node: NodeId) -> u64 {
        self.capacities[node.index()]
    }

    /// Cost of placing a replica of `object` at `node`.
    pub fn storage_cost(&self, object: ObjectId, node: NodeId) -> u64 {
        self.storage_costs[object.index()][node.index()]
    }

    /// Total requests over all objects and clients.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().flatten().sum()
    }

    /// Total demand of one object.
    pub fn object_demand(&self, object: ObjectId) -> u64 {
        self.requests[object.index()].iter().sum()
    }

    /// Load factor over the shared capacities.
    pub fn load_factor(&self) -> f64 {
        let capacity: u64 = self.capacities.iter().sum();
        if capacity == 0 {
            return f64::INFINITY;
        }
        self.total_requests() as f64 / capacity as f64
    }

    /// The single-object [`ProblemInstance`] seen by `object` if it had
    /// the given per-node capacities to itself.
    pub fn project(&self, object: ObjectId, capacities: Vec<u64>) -> ProblemInstance {
        ProblemInstance::builder(Arc::clone(&self.tree))
            .requests(self.requests[object.index()].clone())
            .capacities(capacities)
            .storage_costs(self.storage_costs[object.index()].clone())
            .build()
    }
}

/// A placement for every object type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiPlacement {
    /// One single-object placement per object, in object-index order.
    pub per_object: Vec<Placement>,
}

impl MultiPlacement {
    /// The placement of one object.
    pub fn placement(&self, object: ObjectId) -> &Placement {
        &self.per_object[object.index()]
    }

    /// Total storage cost over all objects.
    pub fn cost(&self, problem: &MultiObjectProblem) -> u64 {
        self.per_object
            .iter()
            .enumerate()
            .map(|(k, placement)| {
                placement
                    .replicas()
                    .iter()
                    .map(|&node| problem.storage_cost(ObjectId(k as u32), node))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Combined load (over all objects) on every node.
    pub fn node_loads(&self, problem: &MultiObjectProblem) -> Vec<u64> {
        let mut loads = rp_tree::NodeMap::filled(problem.tree().num_nodes(), 0u64);
        for placement in &self.per_object {
            placement.accumulate_server_loads(&mut loads);
        }
        loads.into_vec()
    }

    /// Validates the multi-object placement under `policy`:
    /// per-object path / coverage / policy rules (checked against a
    /// relaxed single-object instance), plus the *shared* capacity
    /// constraint `Σ_k load_k(j) <= W_j`.
    pub fn validate(&self, problem: &MultiObjectProblem, policy: Policy) -> Result<(), String> {
        if self.per_object.len() != problem.num_objects() {
            return Err(format!(
                "placement covers {} objects, problem has {}",
                self.per_object.len(),
                problem.num_objects()
            ));
        }
        // Per-object structural rules: validate against an instance with
        // unbounded per-node capacity (the shared capacity is checked
        // globally below). The same projection also yields the
        // per-object link flows for the shared-bandwidth check, so each
        // object is projected exactly once.
        let tree = problem.tree();
        let relaxed_capacity: Vec<u64> = vec![u64::MAX / 4; tree.num_nodes()];
        let mut combined_flows = problem.has_bandwidth_limits().then(|| {
            rp_tree::LinkMap::filled(
                tree.num_clients(),
                tree.num_nodes(),
                tree.root().index(),
                0u64,
            )
        });
        for object in problem.object_ids() {
            let single = problem.project(object, relaxed_capacity.clone());
            self.placement(object)
                .validate(&single, policy)
                .map_err(|violations| format!("{object}: {violations}"))?;
            if let Some(combined) = combined_flows.as_mut() {
                for (link, &flow) in self.placement(object).link_flows(&single).iter() {
                    combined[link] += flow;
                }
            }
        }
        // Shared capacities.
        for (index, &load) in self.node_loads(problem).iter().enumerate() {
            let node = NodeId::from_index(index);
            if load > problem.capacity(node) {
                return Err(format!(
                    "node {node}: combined load {load} exceeds shared capacity {}",
                    problem.capacity(node)
                ));
            }
        }
        // Shared link bandwidths: the flows of every object traverse
        // the same wire, so their per-link sums must fit.
        if let Some(combined) = combined_flows {
            for (link, &flow) in combined.iter() {
                if let Some(bw) = problem.bandwidth(link) {
                    if flow > bw {
                        return Err(format!(
                            "link {link}: combined flow {flow} exceeds bandwidth {bw}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// `true` when [`validate`](Self::validate) succeeds.
    pub fn is_valid(&self, problem: &MultiObjectProblem, policy: Policy) -> bool {
        self.validate(problem, policy).is_ok()
    }
}

/// Options for the sequential greedy solver.
#[derive(Clone, Copy, Debug)]
pub struct MultiGreedyOptions {
    /// Which single-object heuristic allocates each object.
    pub heuristic: Heuristic,
    /// Process objects in decreasing total demand (`true`, the default)
    /// or in declaration order (`false`).
    pub largest_demand_first: bool,
}

impl Default for MultiGreedyOptions {
    fn default() -> Self {
        MultiGreedyOptions {
            heuristic: Heuristic::MixedBest,
            largest_demand_first: true,
        }
    }
}

/// Sequential greedy allocation: objects are processed one at a time
/// (largest demand first by default); each object is placed by a
/// single-object heuristic against the *residual* capacities left by the
/// objects placed before it. Returns `None` when some object cannot be
/// placed — which does not prove infeasibility, only that this heuristic
/// order failed.
pub fn solve_multi_greedy(
    problem: &MultiObjectProblem,
    options: &MultiGreedyOptions,
) -> Option<MultiPlacement> {
    let tree = problem.tree();
    let mut residual: Vec<u64> = tree.node_ids().map(|n| problem.capacity(n)).collect();
    let mut order: Vec<ObjectId> = problem.object_ids().collect();
    if options.largest_demand_first {
        order.sort_by_key(|&k| std::cmp::Reverse(problem.object_demand(k)));
    }

    let mut per_object: Vec<Option<Placement>> = vec![None; problem.num_objects()];
    for object in order {
        let single = problem.project(object, residual.clone());
        let placement = options.heuristic.run(&single)?;
        for (node, &load) in placement.server_loads(residual.len()).iter() {
            residual[node.index()] -= load;
        }
        per_object[object.index()] = Some(placement);
    }
    Some(MultiPlacement {
        per_object: per_object
            .into_iter()
            .map(|p| p.expect("every object was placed"))
            .collect(),
    })
}

/// Exact ILP for the multi-object problem under the **Multiple** policy
/// (the natural extension of Section 5.2): per-object replica indicators
/// and request variables, per-object coverage, a shared capacity row per
/// node, and — when the instance bounds its links — per-object `z` flow
/// variables feeding shared bandwidth rows (see
/// [`crate::ilp::build_multi_model`]). Returns `None` when the instance
/// is infeasible or the branch-and-bound node limit is reached without
/// an incumbent.
pub fn solve_multi_ilp(problem: &MultiObjectProblem) -> Option<MultiPlacement> {
    solve_multi_ilp_with(problem, &crate::ilp::IlpOptions::default())
}

/// [`solve_multi_ilp`] with explicit branch-and-bound / simplex options.
pub fn solve_multi_ilp_with(
    problem: &MultiObjectProblem,
    options: &crate::ilp::IlpOptions,
) -> Option<MultiPlacement> {
    use crate::ilp::{build_multi_model, Integrality};

    let tree = problem.tree();
    let formulation = build_multi_model(problem, Integrality::Exact);
    let workspace = &mut rp_lp::LpWorkspace::new();
    let outcome = rp_lp::solve_milp(&formulation.model, &options.branch_bound, workspace);
    let incumbent = outcome.incumbent?;
    if !matches!(
        outcome.status,
        rp_lp::Status::Optimal | rp_lp::Status::NodeLimit
    ) {
        return None;
    }

    // Extract one placement per object.
    let mut per_object = Vec::with_capacity(problem.num_objects());
    for object in problem.object_ids() {
        let mut placement = Placement::empty(tree.num_clients());
        for node in tree.node_ids() {
            if incumbent.value(formulation.x[object.index()][node.index()]) > 0.5 {
                placement.add_replica(node);
            }
        }
        for client in tree.client_ids() {
            for &(server, var) in &formulation.y[object.index()][client.index()] {
                let amount = incumbent.value(var).round().max(0.0) as u64;
                if amount > 0 {
                    placement.assign(client, server, amount);
                }
            }
        }
        per_object.push(placement);
    }
    Some(MultiPlacement { per_object })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    /// root -> hub -> {c0, c1}; root -> c2. Shared capacity 10 per node.
    fn small_tree() -> TreeNetwork {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let hub = b.add_node(root);
        b.add_client(hub);
        b.add_client(hub);
        b.add_client(root);
        b.build().unwrap()
    }

    fn two_object_problem() -> MultiObjectProblem {
        MultiObjectProblem::new(
            small_tree(),
            vec![
                vec![3, 2, 1], // object 0
                vec![1, 4, 2], // object 1
            ],
            vec![10, 8],
            vec![
                vec![5, 4], // object 0 storage costs per node
                vec![6, 3], // object 1
            ],
        )
    }

    #[test]
    fn accessors_and_demands() {
        let p = two_object_problem();
        assert_eq!(p.num_objects(), 2);
        assert_eq!(p.total_requests(), 13);
        assert_eq!(p.object_demand(ObjectId(0)), 6);
        assert_eq!(p.object_demand(ObjectId(1)), 7);
        assert!((p.load_factor() - 13.0 / 18.0).abs() < 1e-12);
        let clients: Vec<_> = p.tree().client_ids().collect();
        assert_eq!(p.requests(ObjectId(1), clients[1]), 4);
    }

    #[test]
    fn greedy_produces_a_valid_multi_placement() {
        let p = two_object_problem();
        let placement =
            solve_multi_greedy(&p, &MultiGreedyOptions::default()).expect("feasible instance");
        placement.validate(&p, Policy::Multiple).expect("valid");
        // Shared loads within capacity.
        for (index, load) in placement.node_loads(&p).iter().enumerate() {
            assert!(*load <= p.capacity(NodeId::from_index(index)));
        }
    }

    #[test]
    fn ilp_produces_a_valid_optimal_placement() {
        let p = two_object_problem();
        let exact = solve_multi_ilp(&p).expect("feasible instance");
        exact.validate(&p, Policy::Multiple).expect("valid");
        let greedy = solve_multi_greedy(&p, &MultiGreedyOptions::default()).unwrap();
        assert!(exact.cost(&p) <= greedy.cost(&p));
    }

    #[test]
    fn single_object_instances_match_the_single_object_ilp() {
        // With a single object the multi-object ILP must agree with the
        // plain Multiple ILP.
        let tree = small_tree();
        let p_multi = MultiObjectProblem::new(
            tree.clone(),
            vec![vec![3, 2, 1]],
            vec![10, 8],
            vec![vec![5, 4]],
        );
        let p_single = ProblemInstance::builder(tree)
            .requests(vec![3, 2, 1])
            .capacities(vec![10, 8])
            .storage_costs(vec![5, 4])
            .build();
        let multi = solve_multi_ilp(&p_multi).unwrap();
        let single = crate::ilp::exact_optimal_cost(&p_single, Policy::Multiple).unwrap();
        assert_eq!(multi.cost(&p_multi), single);
    }

    #[test]
    fn shared_capacity_couples_the_objects() {
        // Each object alone fits in the hub, but together they exceed it,
        // forcing at least one of them (partially) up to the root.
        let tree = small_tree();
        let p = MultiObjectProblem::new(
            tree,
            vec![vec![4, 2, 0], vec![3, 3, 0]],
            vec![20, 7],
            vec![vec![10, 1], vec![10, 1]],
        );
        let exact = solve_multi_ilp(&p).expect("feasible");
        exact.validate(&p, Policy::Multiple).expect("valid");
        // If capacity were not shared, both objects would pay only the
        // cheap hub (cost 2); sharing forces extra root replicas.
        assert!(exact.cost(&p) > 2);
        let loads = exact.node_loads(&p);
        assert!(loads[1] <= 7);
    }

    #[test]
    fn greedy_fails_gracefully_when_an_object_cannot_fit() {
        let tree = small_tree();
        let p = MultiObjectProblem::new(tree, vec![vec![50, 0, 0]], vec![10, 8], vec![vec![1, 1]]);
        assert!(solve_multi_greedy(&p, &MultiGreedyOptions::default()).is_none());
        assert!(solve_multi_ilp(&p).is_none());
    }

    #[test]
    fn validation_rejects_overloaded_shared_capacity() {
        let p = two_object_problem();
        // Route everything of both objects to the hub (node 1, capacity 8):
        // per-object placements are fine structurally but the combined
        // load 3+2+1? (client 2 is not below the hub) — use the root
        // instead, capacity 10 with total demand 13.
        let tree = p.tree();
        let root = tree.root();
        let mut per_object = Vec::new();
        for object in p.object_ids() {
            let mut placement = Placement::empty(tree.num_clients());
            placement.add_replica(root);
            for client in tree.client_ids() {
                placement.assign(client, root, p.requests(object, client));
            }
            per_object.push(placement);
        }
        let placement = MultiPlacement { per_object };
        let error = placement.validate(&p, Policy::Multiple).unwrap_err();
        assert!(error.contains("combined load"));
    }

    #[test]
    fn declaration_order_option_is_respected() {
        let p = two_object_problem();
        let in_order = solve_multi_greedy(
            &p,
            &MultiGreedyOptions {
                largest_demand_first: false,
                ..MultiGreedyOptions::default()
            },
        )
        .unwrap();
        in_order.validate(&p, Policy::Multiple).expect("valid");
    }

    #[test]
    #[should_panic(expected = "one request count per client")]
    fn mismatched_request_vectors_are_rejected() {
        let _ = MultiObjectProblem::new(
            small_tree(),
            vec![vec![1, 2]],
            vec![10, 8],
            vec![vec![1, 1]],
        );
    }
}
