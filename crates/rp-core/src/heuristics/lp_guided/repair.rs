//! Post-hoc bandwidth repair for the classic heuristics.
//!
//! The Section 4/6 heuristics reason about capacities only; on a
//! bandwidth-constrained platform their placements may push more flow
//! over a link than it carries. The repair exploits a monotonicity of
//! tree routing: **moving a request's server down** (towards the
//! client) only ever *removes* links from its route — so re-homing flow
//! below a saturated link can never create a new violation elsewhere.
//!
//! [`repair_bandwidth`] walks the saturated links bottom-up and, per
//! link, moves crossing assignments to servers below it: open replicas
//! with residual capacity first (free), then the cheapest new replica
//! on the client's path. Under the single-server policies whole clients
//! move to a single new server; under Multiple the flow may split.
//! [`BandwidthRepair`] packages this as a drop-in wrapper around any
//! classic [`Heuristic`], re-validating the repaired placement under
//! the wrapped heuristic's own policy (a Closest repair that breaks the
//! closest-replica rule is reported as a failure, not silently
//! downgraded).

use rp_tree::{ClientId, LinkId, NodeId};

use crate::heuristics::lp_guided::accounting::FeasAccounting;
use crate::heuristics::Heuristic;
use crate::policy::Policy;
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// Retrofit adapter: runs the wrapped heuristic, then repairs any link
/// bandwidth violations by re-homing flow below the saturated links.
///
/// On instances without bandwidth bounds this is exactly the wrapped
/// heuristic. With bounds, the adapter returns a placement only when it
/// is fully valid under the wrapped heuristic's policy — so the classic
/// Figure success/cost experiments can run unchanged on the
/// bandwidth-constrained families.
pub struct BandwidthRepair(pub Heuristic);

impl BandwidthRepair {
    /// The wrapped heuristic's policy.
    pub fn policy(&self) -> Policy {
        self.0.policy()
    }

    /// Runs the wrapped heuristic and repairs its placement.
    pub fn run(&self, problem: &ProblemInstance) -> Option<Placement> {
        let mut placement = self.0.run(problem)?;
        if !problem.has_bandwidth_limits() {
            return Some(placement);
        }
        let policy = self.0.policy();
        if placement.is_valid(problem, policy) {
            return Some(placement);
        }
        if !repair_bandwidth(problem, &mut placement, policy) {
            return None;
        }
        placement.is_valid(problem, policy).then_some(placement)
    }
}

/// Repairs the link-bandwidth violations of `placement` in place.
///
/// Returns `true` when every link residual is non-negative afterwards;
/// capacity and path constraints are preserved throughout (every move
/// goes through the exact accounting), but policy-specific rules — the
/// Closest first-replica rule in particular — are *not* re-checked
/// here: callers validate afterwards (see [`BandwidthRepair::run`]).
pub fn repair_bandwidth(
    problem: &ProblemInstance,
    placement: &mut Placement,
    policy: Policy,
) -> bool {
    if !problem.has_bandwidth_limits() {
        return true;
    }
    let tree = problem.tree();
    let mut accounting = FeasAccounting::charged(problem, placement);

    // A violated client link is irreparable: the client's own demand
    // crosses it no matter where it is served.
    for client in tree.client_ids() {
        if accounting.link_residual(LinkId::Client(client)) < 0 {
            return false;
        }
    }

    // Saturated node links, bottom-up. Re-homing below a link only
    // sheds flow from it and its ancestors, so links already processed
    // stay repaired.
    let single_server = policy.is_single_server();
    for &node in tree.postorder_nodes() {
        if tree.is_root(node) {
            continue;
        }
        let link = LinkId::Node(node);
        if accounting.link_residual(link) >= 0 {
            continue;
        }
        // Assignments crossing the link: clients inside subtree(node)
        // served strictly above it.
        let mut crossing: Vec<(ClientId, NodeId, u64)> = Vec::new();
        for &client in tree.subtree_clients(node) {
            for a in placement.assignments(client) {
                if !tree.node_is_ancestor_or_self(a.server, node) {
                    crossing.push((client, a.server, a.amount));
                }
            }
        }
        // Largest flows first: fewer moves shed the excess.
        crossing.sort_by_key(|&(client, _, amount)| {
            (std::cmp::Reverse(amount), tree.client_preorder_rank(client))
        });
        for (client, server, amount) in crossing {
            let deficit = -accounting.link_residual(link);
            if deficit <= 0 {
                break;
            }
            // Single-server policies must move the whole client;
            // Multiple moves just enough to close the deficit.
            let move_total = if single_server {
                amount
            } else {
                amount.min(deficit as u64)
            };
            move_below(
                problem,
                placement,
                &mut accounting,
                client,
                server,
                move_total,
                node,
                single_server,
            );
        }
        if accounting.link_residual(link) < 0 {
            return false;
        }
    }

    prune_idle_replicas(placement, tree.num_nodes());
    true
}

/// Drops replicas that no longer serve anything (they cost money and,
/// under Closest, can shadow the real server).
pub(crate) fn prune_idle_replicas(placement: &mut Placement, num_nodes: usize) {
    let mut loads = rp_tree::NodeMap::filled(num_nodes, 0u64);
    placement.accumulate_server_loads(&mut loads);
    let idle: Vec<NodeId> = placement
        .replicas()
        .iter()
        .copied()
        .filter(|&n| loads[n] == 0)
        .collect();
    for node in idle {
        placement.remove_replica(node);
    }
}

/// Tries to move `move_total` requests of `client` from `server` to
/// servers on the client's path at or below `ceiling` (all strictly
/// below the violated link). Rolls back entirely when the amount cannot
/// be placed; returns whether the move happened.
#[allow(clippy::too_many_arguments)]
fn move_below(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
    client: ClientId,
    server: NodeId,
    move_total: u64,
    ceiling: NodeId,
    single_server: bool,
) -> bool {
    if move_total == 0 {
        return false;
    }
    let tree = problem.tree();
    accounting.unassign(tree, client, server, move_total);
    let removed = placement.unassign(client, server, move_total);
    debug_assert_eq!(removed, move_total);

    // Candidate targets: the path from the client up to (and including)
    // the lower end of the violated link. They are all closer than the
    // old server, so any QoS bound the old assignment satisfied stays
    // satisfied.
    let mut targets: Vec<NodeId> = Vec::new();
    for ancestor in tree.ancestors_of_client(client) {
        targets.push(ancestor);
        if ancestor == ceiling {
            break;
        }
    }

    let mut moved: Vec<(NodeId, u64)> = Vec::new();
    let mut left = move_total;
    if single_server {
        // One target must take everything: prefer an open replica
        // (closest first), else the cheapest node worth opening.
        let target = targets
            .iter()
            .copied()
            .find(|&v| {
                placement.has_replica(v) && accounting.max_assignable(tree, client, v) >= left
            })
            .or_else(|| {
                targets
                    .iter()
                    .copied()
                    .filter(|&v| {
                        !placement.has_replica(v)
                            && accounting.max_assignable(tree, client, v) >= left
                    })
                    .min_by_key(|&v| (problem.storage_cost(v), v.index()))
            });
        if let Some(v) = target {
            placement.add_replica(v);
            accounting.assign(tree, client, v, left);
            placement.assign(client, v, left);
            moved.push((v, left));
            left = 0;
        }
    } else {
        // Multiple: drain open replicas closest-first, then open the
        // cheapest helpful nodes.
        for &v in &targets {
            if left == 0 {
                break;
            }
            if !placement.has_replica(v) {
                continue;
            }
            let take = left.min(accounting.max_assignable(tree, client, v));
            if take > 0 {
                accounting.assign(tree, client, v, take);
                placement.assign(client, v, take);
                moved.push((v, take));
                left -= take;
            }
        }
        while left > 0 {
            let best = targets
                .iter()
                .copied()
                .filter(|&v| !placement.has_replica(v))
                .map(|v| (v, accounting.max_assignable(tree, client, v)))
                .filter(|&(_, headroom)| headroom > 0)
                .min_by_key(|&(v, _)| (problem.storage_cost(v), v.index()));
            let Some((v, headroom)) = best else {
                break;
            };
            let take = left.min(headroom);
            placement.add_replica(v);
            accounting.assign(tree, client, v, take);
            placement.assign(client, v, take);
            moved.push((v, take));
            left -= take;
        }
    }

    if left > 0 {
        // Roll back: undo the partial moves, restore the old assignment.
        for &(v, take) in &moved {
            accounting.unassign(tree, client, v, take);
            placement.unassign(client, v, take);
        }
        accounting.assign(tree, client, server, move_total);
        placement.assign(client, server, move_total);
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    /// root (W=10) -> mid (W=5) -> {c0: 4}; root -> c1: 1. Uplink of mid
    /// bounded at `bw`.
    fn chain(bw: u64) -> ProblemInstance {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(root);
        ProblemInstance::builder(b.build().unwrap())
            .requests(vec![4, 1])
            .capacities(vec![10, 5])
            .storage_costs(vec![10, 5])
            .node_link_bandwidths(vec![None, Some(bw)])
            .build()
    }

    #[test]
    fn repair_moves_flow_below_the_saturated_link() {
        let p = chain(1);
        // An "all at the root" placement violates the bw-1 uplink by 3.
        let tree = p.tree();
        let clients: Vec<ClientId> = tree.client_ids().collect();
        let mut placement = Placement::empty(2);
        placement.add_replica(tree.root());
        placement.assign(clients[0], tree.root(), 4);
        placement.assign(clients[1], tree.root(), 1);
        assert!(!placement.is_valid(&p, Policy::Multiple));
        assert!(repair_bandwidth(&p, &mut placement, Policy::Multiple));
        assert!(placement.is_valid(&p, Policy::Multiple));
        // 3 of c0's requests must now be served at mid.
        let mid = tree.node_ids().nth(1).unwrap();
        assert!(placement.has_replica(mid));
    }

    #[test]
    fn repair_moves_whole_clients_under_single_server_policies() {
        let p = chain(1);
        let tree = p.tree();
        let clients: Vec<ClientId> = tree.client_ids().collect();
        let mut placement = Placement::empty(2);
        placement.add_replica(tree.root());
        placement.assign(clients[0], tree.root(), 4);
        placement.assign(clients[1], tree.root(), 1);
        assert!(repair_bandwidth(&p, &mut placement, Policy::Upwards));
        assert!(placement.is_valid(&p, Policy::Upwards));
        // c0 (4 requests) moved entirely to mid — no split allowed.
        assert_eq!(placement.assignments(clients[0]).len(), 1);
    }

    #[test]
    fn irreparable_links_fail_cleanly() {
        // bw = 0 and mid too small for the whole client: no repair can
        // help (4 requests, mid holds 5 — wait, it can. Shrink mid.)
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let p = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![4])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .node_link_bandwidths(vec![None, Some(0)])
            .build();
        let tree = p.tree();
        let client = tree.client_ids().next().unwrap();
        let mut placement = Placement::empty(1);
        placement.add_replica(tree.root());
        placement.assign(client, tree.root(), 4);
        assert!(!repair_bandwidth(&p, &mut placement, Policy::Multiple));
    }

    #[test]
    fn bandwidth_repair_wrapper_fixes_the_classic_heuristics() {
        let p = chain(1);
        // UBCF serves everything as high as it fits — here it ignores
        // the bw-1 uplink. The wrapper must hand back a valid placement
        // or a clean failure, never a violating one.
        for heuristic in Heuristic::BASE {
            if let Some(placement) = BandwidthRepair(heuristic).run(&p) {
                assert!(
                    placement.is_valid(&p, heuristic.policy()),
                    "{heuristic} returned an invalid repaired placement"
                );
            }
        }
        // MG with repair must succeed here (a feasible Multiple
        // placement exists: 3 at mid, 1 up, c1 at root).
        let repaired = BandwidthRepair(Heuristic::Mg).run(&p);
        assert!(repaired.is_some());
    }

    #[test]
    fn wrapper_is_transparent_without_bandwidth_limits() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(root);
        let p = ProblemInstance::replica_cost(b.build().unwrap(), vec![3, 2], vec![6, 4]);
        for heuristic in Heuristic::BASE {
            let plain = heuristic.run(&p).map(|pl| pl.cost(&p));
            let wrapped = BandwidthRepair(heuristic).run(&p).map(|pl| pl.cost(&p));
            assert_eq!(plain, wrapped, "{heuristic}");
        }
    }
}
