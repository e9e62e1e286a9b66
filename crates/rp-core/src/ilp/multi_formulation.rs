//! The multi-object ILP/LP formulation (the Section 8.1 extension,
//! materialised).
//!
//! With `K` object types the decision variables of the single-object
//! Multiple formulation gain an object index:
//!
//! * `x_{k,j}` — 1 when node `j` hosts a replica of object `k`, paying
//!   the per-object storage cost `s_j^{(k)}`;
//! * `y_{k,i,j}` — requests of client `i` for object `k` served by `j`
//!   (created for `j` on the path from `i` to the root only);
//! * `z_{k,i,l}` — requests of `i` for `k` crossing link `l`, created
//!   only when the instance bounds at least one link.
//!
//! Coverage and the replica-activation rows are per object; the node
//! capacity and link bandwidth rows are **shared** — every object's
//! requests drain the same `W_j` and cross the same wire — which is
//! exactly the coupling that makes the multi-object problem harder than
//! `K` independent single-object ones. On wide-range platforms the
//! shared rows mix unit coefficients with capacities spanning several
//! decades — an ill-scaled matrix that the LP engine solves unscaled
//! (its solves agree with the dense oracle there; see the scenario
//! property tests).
//!
//! As in the single-object model, variables and rows are unnamed, and
//! each node's per-object replica rows and its shared capacity row are
//! filled from per-(object, node) buckets in one pass over the `y`
//! lists.

use rp_lp::{lin_sum, Cmp, LinExpr, Model, VarId};
use rp_tree::{LinkId, NodeId};

use super::Integrality;
use crate::multi::MultiObjectProblem;

/// The multi-object model plus the bookkeeping needed to interpret its
/// solution (all indexed object-major).
pub struct MultiIlpFormulation {
    /// The LP/MILP model.
    pub model: Model,
    /// `x[k][j]`: replica indicators by object and node index.
    pub x: Vec<Vec<VarId>>,
    /// `y[k][i]`: per object and client, the eligible servers and the
    /// matching request variables.
    pub y: Vec<Vec<Vec<(NodeId, VarId)>>>,
    /// `z[k][i]`: per object and client, the links of the path to the
    /// root and the matching flow variables (empty without bandwidth
    /// bounds).
    pub z: Vec<Vec<Vec<(LinkId, VarId)>>>,
}

/// Builds the multi-object formulation of `problem` under the Multiple
/// policy with the requested integrality ([`Integrality::MixedBound`]
/// keeps the `x_{k,j}` integral and relaxes `y`/`z`, the multi-object
/// analogue of the paper's refined bound).
pub fn build_multi_model(
    problem: &MultiObjectProblem,
    integrality: Integrality,
) -> MultiIlpFormulation {
    let tree = problem.tree();
    let mut model = Model::minimize();

    let x_integral = matches!(integrality, Integrality::Exact | Integrality::MixedBound);
    let yz_integral = matches!(integrality, Integrality::Exact);
    let need_z = problem.has_bandwidth_limits();

    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(problem.num_objects());
    let mut y: Vec<Vec<Vec<(NodeId, VarId)>>> = Vec::with_capacity(problem.num_objects());
    let mut z: Vec<Vec<Vec<(LinkId, VarId)>>> = Vec::with_capacity(problem.num_objects());
    for object in problem.object_ids() {
        let x_row: Vec<VarId> = tree
            .node_ids()
            .map(|node| {
                let cost = problem.storage_cost(object, node) as f64;
                if x_integral {
                    model.add_binary_var("", cost)
                } else {
                    model.add_var("", 0.0, Some(1.0), cost)
                }
            })
            .collect();
        let mut y_rows = Vec::with_capacity(tree.num_clients());
        let mut z_rows = Vec::with_capacity(tree.num_clients());
        for client in tree.client_ids() {
            let requests = problem.requests(object, client) as f64;
            let row: Vec<(NodeId, VarId)> = tree
                .ancestors_of_client(client)
                .map(|server| {
                    let var = if yz_integral {
                        model.add_int_var("", 0.0, Some(requests), 0.0)
                    } else {
                        model.add_var("", 0.0, Some(requests), 0.0)
                    };
                    (server, var)
                })
                .collect();
            y_rows.push(row);
            let links: Vec<(LinkId, VarId)> = if need_z {
                tree.client_path_to_root(client)
                    .map(|link| {
                        let var = if yz_integral {
                            model.add_int_var("", 0.0, Some(requests), 0.0)
                        } else {
                            model.add_var("", 0.0, Some(requests), 0.0)
                        };
                        (link, var)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            z_rows.push(links);
        }
        x.push(x_row);
        y.push(y_rows);
        z.push(z_rows);
    }

    // --- Coverage: every request of every object is assigned. ---
    for object in problem.object_ids() {
        for client in tree.client_ids() {
            let requests = problem.requests(object, client);
            let expr = lin_sum(
                y[object.index()][client.index()]
                    .iter()
                    .map(|&(_, var)| (1.0, var)),
            );
            model.add_constraint("", expr, Cmp::Eq, requests as f64);
        }
    }

    // --- Replica activation (per object) and shared capacities. ---
    // Bucket every y variable by object and server in one pass (a
    // per-node scan of every client's servers would cost
    // O(objects · nodes · clients · depth)).
    let mut per_object: Vec<Vec<LinExpr>> = y
        .iter()
        .map(|object_rows| {
            let mut per_node = vec![LinExpr::new(); tree.num_nodes()];
            for row in object_rows {
                for &(server, var) in row {
                    per_node[server.index()].add_term(1.0, var);
                }
            }
            per_node
        })
        .collect();
    for node in tree.node_ids() {
        let capacity = problem.capacity(node) as f64;
        let mut shared = LinExpr::new();
        for (object_x, per_node) in x.iter().zip(&mut per_object) {
            let mut expr = std::mem::take(&mut per_node[node.index()]);
            for (var, coeff) in expr.terms() {
                shared.add_term(coeff, var);
            }
            // A replica of the object must be bought before serving any
            // of its requests at this node.
            expr.add_term(-capacity, object_x[node.index()]);
            model.add_constraint("", expr, Cmp::Le, 0.0);
        }
        model.add_constraint("", shared, Cmp::Le, capacity);
    }

    // --- Link-flow recurrences and shared bandwidths. ---
    if need_z {
        for object in problem.object_ids() {
            for client in tree.client_ids() {
                let path = &z[object.index()][client.index()];
                if path.is_empty() {
                    continue;
                }
                // First link: everything the client requests crosses it.
                let requests = problem.requests(object, client) as f64;
                model.add_constraint("", LinExpr::var(path[0].1), Cmp::Eq, requests);
                // succ(l) = z_l − y_{i, upper(l)} (the topmost link's
                // residual is served by the root).
                for window in 0..path.len() {
                    let (link, z_var) = path[window];
                    let upper = tree.link_upper(link);
                    let mut expr = LinExpr::var(z_var);
                    if let Some(&(_, y_var)) = y[object.index()][client.index()]
                        .iter()
                        .find(|(server, _)| *server == upper)
                    {
                        expr.add_term(-1.0, y_var);
                    }
                    if let Some(&(_, next_var)) = path.get(window + 1) {
                        expr.add_term(-1.0, next_var);
                    }
                    model.add_constraint("", expr, Cmp::Eq, 0.0);
                }
            }
        }
        // Shared bandwidth rows: one pass over all z variables into
        // per-link buckets (a per-link scan of every client's path
        // would cost O(links · objects · clients · depth) on the
        // everything-bounded instance families).
        let mut per_link: rp_tree::LinkMap<Vec<VarId>> = rp_tree::LinkMap::filled(
            tree.num_clients(),
            tree.num_nodes(),
            tree.root().index(),
            Vec::new(),
        );
        for object_rows in &z {
            for path in object_rows {
                for &(link, var) in path {
                    per_link[link].push(var);
                }
            }
        }
        for link in tree.link_ids() {
            if let Some(bw) = problem.bandwidth(link) {
                let vars = &per_link[link];
                if !vars.is_empty() {
                    let expr = lin_sum(vars.iter().map(|&var| (1.0, var)));
                    model.add_constraint("", expr, Cmp::Le, bw as f64);
                }
            }
        }
    }

    MultiIlpFormulation { model, x, y, z }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    /// root -> hub -> {c0, c1}; root -> c2.
    fn two_object_problem() -> MultiObjectProblem {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let hub = b.add_node(root);
        b.add_client(hub);
        b.add_client(hub);
        b.add_client(root);
        MultiObjectProblem::new(
            b.build().unwrap(),
            vec![vec![3, 2, 1], vec![1, 4, 2]],
            vec![10, 8],
            vec![vec![5, 4], vec![6, 3]],
        )
    }

    #[test]
    fn bandwidth_free_formulation_has_no_z() {
        let p = two_object_problem();
        let f = build_multi_model(&p, Integrality::Exact);
        assert!(f.z.iter().flatten().all(|row| row.is_empty()));
        // 2 objects × (2 x vars + 5 y vars) = 14 variables.
        assert_eq!(f.model.num_vars(), 14);
        // 2×3 cover + 2×2 replica + 2 shared capacity rows.
        assert_eq!(f.model.num_constraints(), 12);
    }

    #[test]
    fn bandwidth_bounds_materialise_per_object_z_and_shared_rows() {
        let p = two_object_problem().with_link_bandwidths(
            vec![None, None, None],
            vec![None, Some(4)], // hub -> root
        );
        let f = build_multi_model(&p, Integrality::Exact);
        assert!(p.has_bandwidth_limits());
        assert!(f.z.iter().flatten().any(|row| !row.is_empty()));
        let text = f.model.to_string();
        // Each object's first-link row for c0 carries that object's demand.
        let c0 = p.tree().client_ids().next().unwrap();
        for object in p.object_ids() {
            let (_, first) = f.z[object.index()][c0.index()][0];
            let requests = p.requests(object, c0);
            assert!(
                text.contains(&format!(": +1 {first} == {requests}\n")),
                "{text}"
            );
        }
        // The shared bandwidth row is the `<=` row over the hub uplink's
        // flow variables, and it references z variables of both objects.
        let hub = LinkId::Node(p.tree().parent_of_client(c0));
        let uplink = |object: usize| {
            let path = &f.z[object][c0.index()];
            path.iter().find(|(link, _)| *link == hub).unwrap().1
        };
        let bandwidth_row = f
            .model
            .constraint_ids()
            .map(|id| f.model.constraint(id))
            .find(|c| c.cmp == Cmp::Le && c.terms.iter().any(|&(var, _)| var == uplink(0)))
            .expect("one bounded link");
        assert!(bandwidth_row.terms.iter().any(|&(var, _)| var == uplink(1)));
        assert!(bandwidth_row.terms.len() >= 4, "{:?}", bandwidth_row.terms);
        let terms: Vec<String> = bandwidth_row
            .terms
            .iter()
            .map(|(var, coeff)| format!("{coeff:+} {var}"))
            .collect();
        assert!(
            text.contains(&format!(": {} <= 4\n", terms.join(" "))),
            "{text}"
        );
    }

    #[test]
    fn mixed_bound_keeps_x_integral_and_relaxes_y_and_z() {
        let p = two_object_problem()
            .with_link_bandwidths(vec![Some(5), Some(5), Some(5)], vec![None, Some(6)]);
        let f = build_multi_model(&p, Integrality::MixedBound);
        for x in f.x.iter().flatten() {
            assert!(f.model.variable(*x).integer);
        }
        for &(_, var) in f.y.iter().flatten().flatten() {
            assert!(!f.model.variable(var).integer);
        }
        for &(_, var) in f.z.iter().flatten().flatten() {
            assert!(!f.model.variable(var).integer);
        }
        let relaxed = build_multi_model(&p, Integrality::RationalBound);
        assert!(relaxed.model.is_pure_lp());
    }
}
