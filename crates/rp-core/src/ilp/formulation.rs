//! The integer-linear-program formulations of Section 5.
//!
//! For every policy the decision variables are:
//!
//! * `x_j` — 1 when node `j` hosts a replica (always integral in the
//!   exact solves; kept integral in the *mixed* lower bound of
//!   Section 7.1, relaxed in the fully rational bound);
//! * `y_{i,j}` — under the single-server policies, 1 when `j` serves
//!   client `i`; under Multiple, the number of requests of `i` served by
//!   `j`. Only created for `j` on the path from `i` to the root and
//!   within the client's QoS bound (other `y_{i,j}` are fixed to 0 in
//!   the paper, so we simply do not create them);
//! * `z_{i,l}` — the requests of `i` flowing through link `l`. These are
//!   only materialised when needed (bandwidth constraints, or the
//!   Closest exclusion constraints), as allowed by the paper's remark
//!   that they can be eliminated otherwise.
//!
//! The objective is the total storage cost `Σ_j s_j · x_j`.
//!
//! Variables and rows are unnamed (the model's `Display` labels them
//! `x{i}` and `r{i}`); callers reach them through the `x`/`y`/`z`
//! indices of [`IlpFormulation`]. Rows come in a fixed order — the
//! coverage rows, one capacity row per node in node order, then the
//! link flows, bandwidths and Closest exclusions — and sibling
//! re-solves that patch a row pick it by position, as
//! [`IlpFormulation::retarget_requests`] does with the coverage rows
//! when a λ-sibling keeps its tree's model. The capacity rows
//! are filled from per-node buckets in one pass over the `y` lists, as
//! the bandwidth rows are from per-link buckets over the `z` lists.

use rp_lp::{Cmp, ConstraintId, LinExpr, Model, VarId};
use rp_tree::{ClientId, LinkId, NodeId};

use crate::policy::Policy;
use crate::problem::ProblemInstance;

/// How integral the variables should be.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Integrality {
    /// Everything integral: solving the model yields an exact optimal
    /// placement.
    Exact,
    /// Only the `x_j` are integral; `y` and `z` are rational. This is the
    /// refined lower bound used in the paper's experiments (Section 7.1).
    MixedBound,
    /// Fully rational relaxation: the cheapest bound.
    RationalBound,
}

/// The model plus the bookkeeping needed to interpret its solution.
pub struct IlpFormulation {
    /// The LP/MILP model.
    pub model: Model,
    /// `x_j` variables, indexed by node index.
    pub x: Vec<VarId>,
    /// For every client, its eligible servers and the matching `y_{i,j}`.
    pub y: Vec<Vec<(NodeId, VarId)>>,
    /// For every client, the links of its path to the root and the
    /// matching `z_{i,l}` (empty when `z` variables were not needed).
    pub z: Vec<Vec<(LinkId, VarId)>>,
    policy: Policy,
}

impl IlpFormulation {
    /// The policy this formulation encodes.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The `y` variable for a given client/server pair, if it exists.
    pub fn y_var(&self, client: ClientId, server: NodeId) -> Option<VarId> {
        self.y[client.index()]
            .iter()
            .find(|(node, _)| *node == server)
            .map(|(_, var)| *var)
    }

    /// Re-targets a Multiple formulation to the requests of `problem`,
    /// in place: each client's coverage row gets the right-hand side
    /// `r_i`, and each of its `y_{i,j}` the upper bound `r_i`. These are
    /// the only entries of a Multiple model without `z` variables that
    /// depend on the requests; the matrix, the other bounds and the
    /// objective stay, and so does the model's identity.
    ///
    /// **Precondition:** `self` was built by `build_model(p,
    /// Policy::Multiple, _)` for an instance `p` that differs from
    /// `problem` in its requests alone: the same tree, capacities,
    /// storage costs and QoS bounds, and no bandwidth limit on either.
    /// The model then equals the one `build_model(problem,
    /// Policy::Multiple, _)` would build, row for row and bound for
    /// bound, and re-solving it on the workspace that solved it last
    /// proves its matrix unchanged without comparing it.
    pub fn retarget_requests(&mut self, problem: &ProblemInstance) {
        assert_eq!(self.policy, Policy::Multiple, "only Multiple re-targets");
        // With `z` variables the `z` bounds and the first-link rows also
        // carry `r_i`; a tree with other clients misaligns the rows.
        assert!(
            !problem.has_bandwidth_limits() && self.z.iter().all(Vec::is_empty),
            "only a model without bandwidth rows re-targets"
        );
        assert_eq!(
            self.y.len(),
            problem.tree().num_clients(),
            "the model was built for another tree"
        );
        // The coverage rows come first, one per client in client order.
        let covers: Vec<ConstraintId> = self.model.constraint_ids().take(self.y.len()).collect();
        for ((client, cover), servers) in problem.tree().client_ids().zip(covers).zip(&self.y) {
            let requests = problem.requests(client) as f64;
            self.model.set_rhs(cover, requests);
            for &(_, var) in servers {
                self.model.set_bounds(var, 0.0, Some(requests));
            }
        }
    }
}

/// Builds the formulation of `problem` under `policy` with the requested
/// integrality.
pub fn build_model(
    problem: &ProblemInstance,
    policy: Policy,
    integrality: Integrality,
) -> IlpFormulation {
    let tree = problem.tree();
    let mut model = Model::minimize();

    let x_integral = matches!(integrality, Integrality::Exact | Integrality::MixedBound);
    let yz_integral = matches!(integrality, Integrality::Exact);

    // x_j: replica indicators, weighted by storage cost in the objective.
    let x: Vec<VarId> = tree
        .node_ids()
        .map(|node| {
            let cost = problem.storage_cost(node) as f64;
            if x_integral {
                model.add_binary_var("", cost)
            } else {
                model.add_var("", 0.0, Some(1.0), cost)
            }
        })
        .collect();

    // Do we need explicit z variables?
    let need_z = problem.has_bandwidth_limits() || policy == Policy::Closest;

    // y_{i,j} for eligible servers only.
    let mut y: Vec<Vec<(NodeId, VarId)>> = Vec::with_capacity(tree.num_clients());
    for client in tree.client_ids() {
        let mut row = Vec::new();
        for server in problem.eligible_servers(client) {
            let requests = problem.requests(client) as f64;
            let var = match policy {
                Policy::Closest | Policy::Upwards => {
                    if yz_integral {
                        model.add_binary_var("", 0.0)
                    } else {
                        model.add_var("", 0.0, Some(1.0), 0.0)
                    }
                }
                Policy::Multiple => {
                    if yz_integral {
                        model.add_int_var("", 0.0, Some(requests), 0.0)
                    } else {
                        model.add_var("", 0.0, Some(requests), 0.0)
                    }
                }
            };
            row.push((server, var));
        }
        y.push(row);
    }

    // z_{i,l} along each client's path, when needed.
    let mut z: Vec<Vec<(LinkId, VarId)>> = vec![Vec::new(); tree.num_clients()];
    if need_z {
        for client in tree.client_ids() {
            let requests = problem.requests(client) as f64;
            let mut row = Vec::new();
            for link in tree.client_path_to_root(client) {
                let upper = match policy {
                    Policy::Closest | Policy::Upwards => 1.0,
                    Policy::Multiple => requests,
                };
                let var = if yz_integral {
                    model.add_int_var("", 0.0, Some(upper), 0.0)
                } else {
                    model.add_var("", 0.0, Some(upper), 0.0)
                };
                row.push((link, var));
            }
            z[client.index()] = row;
        }
    }

    // --- Coverage: every client (or every request) is assigned. ---
    for client in tree.client_ids() {
        let requests = problem.requests(client);
        let rhs = match policy {
            Policy::Closest | Policy::Upwards => {
                if requests == 0 {
                    continue;
                }
                1.0
            }
            Policy::Multiple => requests as f64,
        };
        let expr = rp_lp::lin_sum(y[client.index()].iter().map(|&(_, var)| (1.0, var)));
        model.add_constraint("", expr, Cmp::Eq, rhs);
    }

    // --- Server capacities (also tie y to x). ---
    // Bucket every y variable by its server in one pass (a per-node scan
    // of every client's servers would cost O(nodes · clients · depth)).
    let mut per_node = vec![LinExpr::new(); tree.num_nodes()];
    for client in tree.client_ids() {
        let coeff = match policy {
            Policy::Closest | Policy::Upwards => problem.requests(client) as f64,
            Policy::Multiple => 1.0,
        };
        for &(server, var) in &y[client.index()] {
            per_node[server.index()].add_term(coeff, var);
        }
    }
    for (node, mut expr) in tree.node_ids().zip(per_node) {
        expr.add_term(-(problem.capacity(node) as f64), x[node.index()]);
        model.add_constraint("", expr, Cmp::Le, 0.0);
    }

    // --- Link-flow recurrences and bandwidths (only when z exists). ---
    if need_z {
        for client in tree.client_ids() {
            let requests = problem.requests(client);
            let path = &z[client.index()];
            if path.is_empty() {
                continue;
            }
            // First link: everything the client sends crosses it.
            let first_rhs = match policy {
                Policy::Closest | Policy::Upwards => {
                    if requests == 0 {
                        0.0
                    } else {
                        1.0
                    }
                }
                Policy::Multiple => requests as f64,
            };
            model.add_constraint("", LinExpr::var(path[0].1), Cmp::Eq, first_rhs);
            // succ(l) = z_l - y_{i, upper(l)}; the topmost link has no
            // successor, so whatever crosses it must be served by the root.
            for window in 0..path.len() {
                let (link, z_var) = path[window];
                let mut expr = LinExpr::var(z_var);
                if let Some(y_var) = y_lookup(&y, client, tree.link_upper(link)) {
                    expr.add_term(-1.0, y_var);
                }
                if let Some(&(_, next_var)) = path.get(window + 1) {
                    expr.add_term(-1.0, next_var);
                }
                model.add_constraint("", expr, Cmp::Eq, 0.0);
            }
        }
        // Bandwidths: bucket every z variable by its link in one pass
        // (a per-link scan over all client paths would cost
        // O(links · clients · depth) on everything-bounded instances).
        if problem.has_bandwidth_limits() {
            let mut per_link: rp_tree::LinkMap<Vec<(f64, VarId)>> = rp_tree::LinkMap::filled(
                tree.num_clients(),
                tree.num_nodes(),
                tree.root().index(),
                Vec::new(),
            );
            for client in tree.client_ids() {
                let coeff = match policy {
                    Policy::Closest | Policy::Upwards => problem.requests(client) as f64,
                    Policy::Multiple => 1.0,
                };
                for &(link, var) in &z[client.index()] {
                    per_link[link].push((coeff, var));
                }
            }
            for link in tree.link_ids() {
                if let Some(bw) = problem.bandwidth(link) {
                    let terms = &per_link[link];
                    if !terms.is_empty() {
                        let expr = rp_lp::lin_sum(terms.iter().copied());
                        model.add_constraint("", expr, Cmp::Le, bw as f64);
                    }
                }
            }
        }
    }

    // --- Closest exclusion constraints (Section 5.1). ---
    // If node j serves client i, then no client i' below j may send
    // requests across the link j -> parent(j):
    //   y_{i,j} <= 1 - z_{i', j -> parent(j)}.
    if policy == Policy::Closest {
        for client in tree.client_ids() {
            if problem.requests(client) == 0 {
                continue;
            }
            for &(server, y_var) in &y[client.index()] {
                if tree.is_root(server) {
                    continue;
                }
                let blocking_link = LinkId::Node(server);
                for &other in tree.subtree_clients(server) {
                    if other == client || problem.requests(other) == 0 {
                        continue;
                    }
                    if let Some(&(_, z_var)) =
                        z[other.index()].iter().find(|(l, _)| *l == blocking_link)
                    {
                        let expr = LinExpr::var(y_var).plus(1.0, z_var);
                        model.add_constraint("", expr, Cmp::Le, 1.0);
                    }
                }
            }
        }
    }

    IlpFormulation {
        model,
        x,
        y,
        z,
        policy,
    }
}

fn y_lookup(y: &[Vec<(NodeId, VarId)>], client: ClientId, node: NodeId) -> Option<VarId> {
    y[client.index()]
        .iter()
        .find(|(n, _)| *n == node)
        .map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    fn sample() -> ProblemInstance {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(mid);
        b.add_client(root);
        ProblemInstance::replica_cost(b.build().unwrap(), vec![3, 5, 2], vec![10, 10])
    }

    #[test]
    fn multiple_formulation_without_bandwidth_has_no_z() {
        let p = sample();
        let f = build_model(&p, Policy::Multiple, Integrality::Exact);
        assert!(f.z.iter().all(|row| row.is_empty()));
        // x per node plus y per (client, eligible server):
        // c0: 2 servers, c1: 2, c2: 1 => 5 y vars + 2 x vars.
        assert_eq!(f.model.num_vars(), 7);
        assert_eq!(f.policy(), Policy::Multiple);
    }

    #[test]
    fn closest_formulation_materialises_z() {
        let p = sample();
        let f = build_model(&p, Policy::Closest, Integrality::Exact);
        assert!(f.z.iter().any(|row| !row.is_empty()));
        // The exclusion constraints must reference the link below the
        // candidate server: c0 served at `mid` keeps c1 off mid's uplink,
        // y_{c0,mid} + z_{c1,mid->root} <= 1.
        let mut clients = p.tree().client_ids();
        let (c0, c1) = (clients.next().unwrap(), clients.next().unwrap());
        let mid = p.tree().parent_of_client(c0);
        let y = f.y_var(c0, mid).unwrap();
        let (_, z) = f.z[c1.index()]
            .iter()
            .copied()
            .find(|&(link, _)| link == LinkId::Node(mid))
            .unwrap();
        let text = f.model.to_string();
        assert!(text.contains(&format!(": +1 {y} +1 {z} <= 1\n")), "{text}");
    }

    #[test]
    fn qos_restricts_the_y_variables() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![4])
            .capacities(vec![10, 10])
            .qos(vec![Some(1)])
            .build();
        let f = build_model(&p, Policy::Upwards, Integrality::Exact);
        // Only the parent (distance 1) is eligible, not the root.
        assert_eq!(f.y[0].len(), 1);
    }

    #[test]
    fn mixed_bound_keeps_x_integral_and_relaxes_y() {
        let p = sample();
        let f = build_model(&p, Policy::Multiple, Integrality::MixedBound);
        for &x in &f.x {
            assert!(f.model.variable(x).integer);
        }
        for row in &f.y {
            for &(_, var) in row {
                assert!(!f.model.variable(var).integer);
            }
        }
        let relaxed = build_model(&p, Policy::Multiple, Integrality::RationalBound);
        assert!(relaxed.model.is_pure_lp());
    }

    #[test]
    fn y_var_lookup_matches_registry() {
        let p = sample();
        let f = build_model(&p, Policy::Multiple, Integrality::Exact);
        let client = p.tree().client_ids().next().unwrap();
        let server = p.tree().parent_of_client(client);
        assert!(f.y_var(client, server).is_some());
        // The root is also eligible for this client.
        assert!(f.y_var(client, p.tree().root()).is_some());
    }

    /// Every variable (bounds, integrality, objective) and every row
    /// (terms, comparison, right-hand side) of `a` equals `b`'s.
    fn assert_same_model(a: &Model, b: &Model) {
        assert_eq!(a.sense(), b.sense());
        assert_eq!(a.num_vars(), b.num_vars());
        assert_eq!(a.num_constraints(), b.num_constraints());
        for var in a.var_ids() {
            assert_eq!(a.variable(var), b.variable(var), "{var}");
        }
        for row in a.constraint_ids() {
            assert_eq!(a.constraint(row), b.constraint(row), "row {}", row.index());
        }
    }

    #[test]
    fn retargeted_formulation_equals_a_fresh_build_of_the_sibling() {
        // Three levels with clients at every depth, so QoS bounds of one
        // and two hops cut different servers from different clients.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let left = b.add_node(root);
        let right = b.add_node(root);
        let deep = b.add_node(left);
        for parent in [deep, deep, left, right, right, root, deep] {
            b.add_client(parent);
        }
        let tree = std::sync::Arc::new(b.build().unwrap());
        let instance = |requests: &[u64], qos: Option<u32>| {
            let builder = ProblemInstance::builder(std::sync::Arc::clone(&tree))
                .requests(requests.to_vec())
                .capacities(vec![9, 6, 7, 5])
                .storage_costs(vec![4, 3, 3, 2]);
            match qos {
                Some(hops) => builder.uniform_qos(hops).build(),
                None => builder.build(),
            }
        };
        let loads: [&[u64]; 3] = [
            &[1, 2, 3, 4, 5, 6, 7],
            &[7, 1, 1, 9, 2, 3, 1],
            &[0, 4, 2, 2, 8, 1, 3],
        ];
        for qos in [None, Some(1), Some(2)] {
            for integrality in [
                Integrality::RationalBound,
                Integrality::MixedBound,
                Integrality::Exact,
            ] {
                let mut kept = build_model(&instance(loads[0], qos), Policy::Multiple, integrality);
                for requests in loads[1..].iter().chain(&loads[..1]) {
                    let sibling = instance(requests, qos);
                    let fresh = build_model(&sibling, Policy::Multiple, integrality);
                    kept.retarget_requests(&sibling);
                    assert_same_model(&kept.model, &fresh.model);
                    assert_eq!((&kept.x, &kept.y, &kept.z), (&fresh.x, &fresh.y, &fresh.z));
                }
            }
        }
        // The siblings' models do differ, so the re-target did the work.
        let model = |requests| {
            build_model(
                &instance(requests, None),
                Policy::Multiple,
                Integrality::Exact,
            )
            .model
        };
        let (a, b) = (model(loads[0]), model(loads[1]));
        assert!(a
            .constraint_ids()
            .any(|row| a.constraint(row) != b.constraint(row)));
        assert!(a.var_ids().any(|var| a.variable(var) != b.variable(var)));
    }

    #[test]
    fn bandwidth_limits_generate_constraints() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![4])
            .capacities(vec![10, 10])
            .node_link_bandwidths(vec![None, Some(2)])
            .build();
        let f = build_model(&p, Policy::Multiple, Integrality::Exact);
        // The client's 4 requests cross its first link, and at most 2 of
        // them cross mid's uplink.
        let [(_, first), (_, uplink)] = f.z[0][..] else {
            panic!("the client's path has two links: {:?}", f.z[0]);
        };
        let text = f.model.to_string();
        assert!(text.contains(&format!(": +1 {uplink} <= 2\n")), "{text}");
        assert!(text.contains(&format!(": +1 {first} == 4\n")), "{text}");
    }

    #[test]
    #[should_panic(expected = "without bandwidth rows")]
    fn retarget_refuses_a_model_with_bandwidth_rows() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        let p = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![4])
            .capacities(vec![10])
            .client_link_bandwidths(vec![Some(5)])
            .build();
        build_model(&p, Policy::Multiple, Integrality::Exact).retarget_requests(&p);
    }

    #[test]
    #[should_panic(expected = "another tree")]
    fn retarget_refuses_another_tree() {
        let mut f = build_model(&sample(), Policy::Multiple, Integrality::Exact);
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        f.retarget_requests(&ProblemInstance::replica_cost(
            b.build().unwrap(),
            vec![1],
            vec![10],
        ));
    }
}
