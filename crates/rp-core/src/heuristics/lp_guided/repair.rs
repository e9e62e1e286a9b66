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
//! move to a single new server; under Multiple the flow may split. The
//! move is `place_on_path`, the crate's one re-homing step: the surgical
//! rung of [`repair_ladder`](crate::failures::repair_ladder) re-homes
//! its Upwards and Multiple orphans with it too.
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

/// Moves `amount` requests of `client` from `server` to servers on the
/// client's path at or below `ceiling` (all strictly below the violated
/// link) through [`place_on_path`], or leaves them on `server` when they
/// do not fit there.
#[allow(clippy::too_many_arguments)]
fn move_below(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
    client: ClientId,
    server: NodeId,
    amount: u64,
    ceiling: NodeId,
    single_server: bool,
) {
    let tree = problem.tree();
    accounting.unassign(tree, client, server, amount);
    let removed = placement.unassign(client, server, amount);
    debug_assert_eq!(removed, amount);

    // Candidate targets: the path from the client up to (and including)
    // the lower end of the violated link. They are all closer than the
    // old server, so any QoS bound the old assignment satisfied stays
    // satisfied.
    let below = tree.client_distance(client, ceiling).unwrap_or(0) as usize;
    let targets: Vec<NodeId> = tree.ancestors_of_client(client).take(below).collect();
    if !place_on_path(
        problem,
        placement,
        accounting,
        client,
        amount,
        &targets,
        single_server,
    ) {
        accounting.assign(tree, client, server, amount);
        placement.assign(client, server, amount);
    }
}

/// The one re-homing step of both repair passes ([`move_below`] and the
/// failure ladder's Upwards and Multiple re-homing): places `amount`
/// requests of `client` on `candidates`, servers on its path listed
/// closest first, each move charged to `accounting` (which must agree
/// with `placement`). Single-server: the closest open replica that can
/// take the whole amount, else the cheapest other candidate that can.
/// Split: drain the open replicas closest-first, then open the cheapest
/// candidates with headroom. Returns whether the whole amount found a
/// home; on `false` every assignment and residual is as it was (a
/// replica the split opened stays, serving nothing, for the caller's
/// [`prune_idle_replicas`]).
///
/// A crashed server never opens: it has capacity 0 on the surviving
/// instance, so its residual (0 minus its charged load) is at most 0 and
/// [`FeasAccounting::max_assignable`] is 0, while single-server needs
/// headroom `>= amount > 0` and split `> 0`.
pub(crate) fn place_on_path(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
    client: ClientId,
    amount: u64,
    candidates: &[NodeId],
    single_server: bool,
) -> bool {
    if amount == 0 {
        return true;
    }
    let tree = problem.tree();
    if single_server {
        let target = candidates
            .iter()
            .copied()
            .find(|&v| {
                placement.has_replica(v) && accounting.max_assignable(tree, client, v) >= amount
            })
            .or_else(|| {
                candidates
                    .iter()
                    .copied()
                    .filter(|&v| {
                        !placement.has_replica(v)
                            && accounting.max_assignable(tree, client, v) >= amount
                    })
                    .min_by_key(|&v| (problem.storage_cost(v), v.index()))
            });
        let Some(v) = target else {
            return false;
        };
        placement.add_replica(v);
        accounting.assign(tree, client, v, amount);
        placement.assign(client, v, amount);
        return true;
    }

    let mut moved: Vec<(NodeId, u64)> = Vec::new();
    let mut left = amount;
    for &v in candidates {
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
        let best = candidates
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
    if left > 0 {
        for &(v, take) in &moved {
            accounting.unassign(tree, client, v, take);
            placement.unassign(client, v, take);
        }
    }
    left == 0
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

    /// root -> x -> a -> b -> {c0: 4}; root -> c1: 9. Node order
    /// `[root, x, a, b]`; c0's candidates closest first are `[b, a, x,
    /// root]`.
    fn path(
        capacities: Vec<u64>,
        costs: Vec<u64>,
    ) -> (ProblemInstance, Vec<NodeId>, Vec<ClientId>) {
        let mut t = TreeBuilder::new();
        let root = t.add_root();
        let x = t.add_node(root);
        let a = t.add_node(x);
        let b = t.add_node(a);
        let c0 = t.add_client(b);
        let c1 = t.add_client(root);
        let p = ProblemInstance::builder(t.build().unwrap())
            .requests(vec![4, 9])
            .capacities(capacities)
            .storage_costs(costs)
            .build();
        (p, vec![root, x, a, b], vec![c0, c1])
    }

    /// `placement` with replicas on `open`, and c1's 9 requests at the
    /// root when it is among them.
    fn opened(p: &ProblemInstance, n: &[NodeId], c: &[ClientId], open: &[NodeId]) -> Placement {
        let mut placement = Placement::empty(2);
        for &v in open {
            placement.add_replica(v);
        }
        if open.contains(&n[0]) {
            placement.assign(c[1], n[0], p.requests(c[1]));
        }
        placement
    }

    fn residuals(p: &ProblemInstance, accounting: &FeasAccounting) -> Vec<i64> {
        let tree = p.tree();
        let nodes = tree.node_ids().map(|n| accounting.node_residual(n));
        let links = tree.link_ids().map(|l| accounting.link_residual(l));
        nodes.chain(links).collect()
    }

    /// c0's `(server, amount)` assignments, sorted by server.
    fn served(placement: &Placement, client: ClientId) -> Vec<(NodeId, u64)> {
        let mut held: Vec<(NodeId, u64)> = placement
            .assignments(client)
            .iter()
            .map(|a| (a.server, a.amount))
            .collect();
        held.sort();
        held
    }

    #[test]
    fn a_failed_step_leaves_placement_and_residuals_as_they_were() {
        // Open: a (room 2) and the root (room 1); closed b and x have no
        // capacity. 3 < 4, so neither mode can place c0, and the split
        // mode must undo the 3 it drained.
        let (p, n, c) = path(vec![10, 0, 2, 0], vec![10, 1, 5, 1]);
        let candidates = [n[3], n[2], n[1], n[0]];
        for single_server in [true, false] {
            let before = opened(&p, &n, &c, &[n[0], n[2]]);
            let mut placement = before.clone();
            let mut accounting = FeasAccounting::charged(&p, &placement);
            let charged = residuals(&p, &accounting);
            assert!(!place_on_path(
                &p,
                &mut placement,
                &mut accounting,
                c[0],
                4,
                &candidates,
                single_server,
            ));
            assert_eq!(placement, before, "single_server = {single_server}");
            assert_eq!(residuals(&p, &accounting), charged);
        }
    }

    #[test]
    fn a_single_server_step_takes_the_closest_open_replica_with_room() {
        // b is closed, closer and cheapest; a and the root are open.
        let (p, n, c) = path(vec![20, 10, 10, 10], vec![10, 8, 5, 1]);
        let mut placement = opened(&p, &n, &c, &[n[0], n[2]]);
        let mut accounting = FeasAccounting::charged(&p, &placement);
        let candidates = [n[3], n[2], n[1], n[0]];
        assert!(place_on_path(
            &p,
            &mut placement,
            &mut accounting,
            c[0],
            4,
            &candidates,
            true,
        ));
        assert_eq!(served(&placement, c[0]), vec![(n[2], 4)]);
        assert_eq!(placement.replicas(), &[n[0], n[2]]);
        assert_eq!(accounting.node_residual(n[2]), 6);
    }

    #[test]
    fn a_split_step_drains_open_replicas_closest_first_then_opens_the_cheapest() {
        // Open: a (room 2) and the root (room 3); closed: x (cost 2)
        // and b (cost 4), both with room 5.
        let (p, n, c) = path(vec![12, 5, 2, 5], vec![10, 2, 5, 4]);
        let candidates = [n[3], n[2], n[1], n[0]];
        let step = |amount: u64| {
            let mut placement = opened(&p, &n, &c, &[n[0], n[2]]);
            let mut accounting = FeasAccounting::charged(&p, &placement);
            let placed = place_on_path(
                &p,
                &mut placement,
                &mut accounting,
                c[0],
                amount,
                &candidates,
                false,
            );
            (placed, placement)
        };
        // 4 fit in the open replicas: a is drained before the root.
        let (placed, placement) = step(4);
        assert!(placed);
        assert_eq!(served(&placement, c[0]), vec![(n[0], 2), (n[2], 2)]);
        assert_eq!(placement.replicas(), &[n[0], n[2]]);
        // 7 need 2 more: x, the cheapest closed node, opens; b does not.
        let (placed, placement) = step(7);
        assert!(placed);
        assert_eq!(
            served(&placement, c[0]),
            vec![(n[0], 3), (n[1], 2), (n[2], 2)]
        );
        assert_eq!(placement.replicas(), &[n[0], n[1], n[2]]);
    }

    #[test]
    fn a_crashed_server_is_never_opened() {
        use crate::failures::{apply_failures, FailureEvent};

        // x is the cheapest candidate but crashed: both modes open a,
        // the cheapest live one, on the surviving instance.
        let (p, n, c) = path(vec![20, 10, 10, 10], vec![10, 1, 5, 8]);
        let platform = apply_failures(&p, &[FailureEvent::ServerCrash(n[1])]);
        let survivors = platform.problem();
        let candidates = [n[3], n[2], n[1], n[0]];
        for single_server in [true, false] {
            let mut placement = opened(survivors, &n, &c, &[]);
            let mut accounting = FeasAccounting::charged(survivors, &placement);
            assert!(place_on_path(
                survivors,
                &mut placement,
                &mut accounting,
                c[0],
                4,
                &candidates,
                single_server,
            ));
            assert_eq!(served(&placement, c[0]), vec![(n[2], 4)]);
            assert_eq!(placement.replicas(), &[n[2]]);
        }
        // With every live candidate full, neither mode falls back on x.
        let mut events = vec![FailureEvent::ServerCrash(n[1])];
        events.extend(
            [n[0], n[2], n[3]].map(|node| FailureEvent::CapacityLoss { node, remaining: 0 }),
        );
        let full = apply_failures(&p, &events);
        for single_server in [true, false] {
            let mut placement = opened(full.problem(), &n, &c, &[]);
            let mut accounting = FeasAccounting::charged(full.problem(), &placement);
            assert!(!place_on_path(
                full.problem(),
                &mut placement,
                &mut accounting,
                c[0],
                4,
                &candidates,
                single_server,
            ));
            assert!(placement.replicas().is_empty());
        }
    }
}
