//! The single-object LP-guided rounding: fractional optimum → feasible
//! integral placement under the **Multiple** policy.
//!
//! The driver runs a two-strategy portfolio and keeps the cheapest
//! feasible result (both attempts are pure integer bookkeeping — a
//! fraction of the LP solve that fed them):
//!
//! * **CommitSaturate** reads the LP as a replica *selector*: nodes
//!   with mass ≥ ½ are opened, in postorder, and each absorbs demand
//!   up to the LP's own load there (its clients first, then the rest
//!   of its subtree). Bottom-up filling keeps the upper tree's
//!   capacity and bandwidth free, and the budget cap stops any node
//!   from stealing what the relaxation allotted elsewhere.
//! * **ThinGuided** reads the LP as an *assignment*: every
//!   positive-mass node gets exactly the ceilinged `y` splits, in mass
//!   order — the faithful-but-thin reading that almost never strands a
//!   client.
//!
//! Both modes then share the same clean-up pipeline, every step driven
//! by the exact accounting of [`super::accounting`]:
//!
//! 1. **Overflow re-homing** — leftovers walk up their ancestor path
//!    onto open replicas, closest first.
//! 2. **Escalation** — still-unserved requests open the ancestor with
//!    the best cost-per-absorbed-pending-request and fill it; a dead
//!    end triggers the depth-1 augmenting `rescue` (relocate other
//!    clients' load off the stranded path) before the mode gives up.
//! 3. **Push-down** — load drains towards the leaves among the open
//!    replicas, freeing the top of the tree (which is on every path).
//! 4. **Pruning** — replicas whose whole load re-homes onto the rest
//!    for free are dropped, most expensive (then lightest) first.
//! 5. **Consolidation** — the move pruning cannot make: open a fresh
//!    ancestor that fully absorbs replicas of its subtree at a net
//!    saving, then prune again. This is what recovers e.g. the
//!    "serve everything at the root" optimum from a thinly spread LP.

use rp_tree::{ClientId, NodeId};

use rp_lp::LpWorkspace;

use crate::heuristics::lp_guided::accounting::FeasAccounting;
use crate::heuristics::lp_guided::guide::{guided_amount, mass_guide};
use crate::ilp::{lower_bound_fractional_reusing, FractionalLp, IlpOptions};
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// LP-guided rounding with default options (revised engine).
pub fn lp_guided(problem: &ProblemInstance) -> Option<Placement> {
    lp_guided_with(problem, &IlpOptions::default())
}

/// [`lp_guided`] with explicit LP options.
pub fn lp_guided_with(problem: &ProblemInstance, options: &IlpOptions) -> Option<Placement> {
    let mut workspace = LpWorkspace::new();
    lp_guided_reusing(problem, options, &mut workspace)
}

/// [`lp_guided`] reusing the LP buffers of `workspace` — the path the
/// scenario sweep drives, one workspace per worker. Returns `None` when
/// the relaxation is infeasible (no policy has a solution) or the
/// rounding cannot serve every request.
pub fn lp_guided_reusing(
    problem: &ProblemInstance,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<Placement> {
    let fractional = lower_bound_fractional_reusing(problem, options, workspace)?;
    round_fractional(problem, &fractional)
}

/// How aggressively phase 1 follows the fractional mass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RoundingMode {
    /// Open only the LP's *committed* nodes (mass ≥ ½) and saturate
    /// each with its subtree's pending demand. Consolidates hard —
    /// usually the cheaper placement — but the eager saturation can
    /// strand a remote client on tightly link-bounded instances.
    CommitSaturate,
    /// Open every positive-mass node with exactly the ceilinged guided
    /// splits. Tracks the LP's (feasible) flow pattern closely, so it
    /// almost never strands anyone, at the price of thinner replicas.
    ThinGuided,
}

/// Rounds an explicit fractional optimum (the composable core of
/// [`lp_guided`]; exposed so tests and the multi-object driver can
/// inject hand-built fractional points).
///
/// Runs a two-strategy portfolio — consolidate-hard, then
/// follow-the-LP — and keeps the cheapest feasible result; the
/// rounding itself is pure integer bookkeeping, so both attempts
/// together cost a fraction of the LP solve that fed them.
pub fn round_fractional(problem: &ProblemInstance, fractional: &FractionalLp) -> Option<Placement> {
    let _span = rp_obs::span(rp_obs::SpanKind::LpGuidedRound);
    rp_obs::incr(rp_obs::Counter::CoreLpgRounds);
    let a = round_fractional_mode(problem, fractional, RoundingMode::CommitSaturate);
    let b = round_fractional_mode(problem, fractional, RoundingMode::ThinGuided);
    let (winner, win_counter) = match (a, b) {
        (Some(a), Some(b)) => {
            if a.cost(problem) <= b.cost(problem) {
                (Some(a), Some(rp_obs::Counter::CoreLpgWinCommitSaturate))
            } else {
                (Some(b), Some(rp_obs::Counter::CoreLpgWinThinGuided))
            }
        }
        (Some(a), None) => (Some(a), Some(rp_obs::Counter::CoreLpgWinCommitSaturate)),
        (None, Some(b)) => (Some(b), Some(rp_obs::Counter::CoreLpgWinThinGuided)),
        (None, None) => (None, None),
    };
    match win_counter {
        Some(counter) => rp_obs::incr(counter),
        None => rp_obs::incr(rp_obs::Counter::CoreLpgInfeasible),
    }
    winner
}

fn round_fractional_mode(
    problem: &ProblemInstance,
    fractional: &FractionalLp,
    mode: RoundingMode,
) -> Option<Placement> {
    let tree = problem.tree();
    let mut accounting = FeasAccounting::for_problem(problem);
    let mut placement = Placement::empty(tree.num_clients());
    let mut remaining: Vec<u64> = tree.client_ids().map(|c| problem.requests(c)).collect();

    // --- Phase 1. Two readings of the fractional optimum:
    //
    // * CommitSaturate — the LP *selects* the replica set (nodes with
    //   mass ≥ ½) and a bottom-up MG-style fill assigns the requests:
    //   each committed node, in postorder, absorbs its subtree's
    //   pending demand up to its capacity. Serving as low as possible
    //   keeps both the capacity and the bandwidth of the upper tree
    //   available (a request served at depth consumes no link above
    //   it), so the aggressive consolidation stays safe.
    // * ThinGuided — the LP *assigns*: every positive-mass node gets
    //   exactly the ceilinged `y` splits, tracking the relaxation's
    //   (feasible) flow pattern as closely as integers allow. ---
    let guide = mass_guide(&fractional.replica_mass, &fractional.assignment, |n| {
        problem.storage_cost(n)
    });
    match mode {
        RoundingMode::CommitSaturate => {
            for &server in tree.postorder_nodes() {
                if fractional.replica_mass[server.index()]
                    < crate::heuristics::lp_guided::guide::COMMIT_THRESHOLD
                {
                    continue;
                }
                // The LP's total load at this node, rounded up: filling
                // past it would steal capacity (or bandwidth) the
                // relaxation allotted to requests elsewhere.
                let lp_load: f64 = guide.per_server[server.index()]
                    .iter()
                    .map(|&(_, y)| y)
                    .sum();
                let mut budget = guided_amount(lp_load);
                // The LP's own clients first (it routed their flow here;
                // their alternatives may have no budget elsewhere), then
                // top off with other subtree demand, largest first.
                for &(client, y) in &guide.per_server[server.index()] {
                    if budget == 0 {
                        break;
                    }
                    let amount = remaining[client.index()]
                        .min(guided_amount(y))
                        .min(budget)
                        .min(accounting.max_assignable(tree, client, server));
                    if amount > 0 {
                        placement.add_replica(server);
                        accounting.assign(tree, client, server, amount);
                        placement.assign(client, server, amount);
                        remaining[client.index()] -= amount;
                        budget -= amount;
                    }
                }
                let mut fill: Vec<ClientId> = tree
                    .subtree_clients(server)
                    .iter()
                    .copied()
                    .filter(|&c| remaining[c.index()] > 0 && within_qos(problem, c, server))
                    .collect();
                fill.sort_by_key(|&c| (std::cmp::Reverse(remaining[c.index()]), c.index()));
                for client in fill {
                    if budget == 0 {
                        break;
                    }
                    let amount = remaining[client.index()]
                        .min(budget)
                        .min(accounting.max_assignable(tree, client, server));
                    if amount > 0 {
                        placement.add_replica(server);
                        accounting.assign(tree, client, server, amount);
                        placement.assign(client, server, amount);
                        remaining[client.index()] -= amount;
                        budget -= amount;
                    }
                }
            }
        }
        RoundingMode::ThinGuided => {
            for &server in &guide.order {
                for &(client, y) in &guide.per_server[server.index()] {
                    let left = remaining[client.index()];
                    if left == 0 {
                        continue;
                    }
                    let amount = left
                        .min(guided_amount(y))
                        .min(accounting.max_assignable(tree, client, server));
                    if amount > 0 {
                        placement.add_replica(server);
                        accounting.assign(tree, client, server, amount);
                        placement.assign(client, server, amount);
                        remaining[client.index()] -= amount;
                    }
                }
            }
        }
    }

    // --- Phases 2 and 3: re-home the overflow, largest clients first. ---
    let mut pending: Vec<ClientId> = tree
        .client_ids()
        .filter(|c| remaining[c.index()] > 0)
        .collect();
    pending.sort_by_key(|&c| std::cmp::Reverse(remaining[c.index()]));
    for client in pending {
        // Open replicas on the path, closest first.
        for server in problem.eligible_servers(client) {
            if remaining[client.index()] == 0 {
                break;
            }
            if !placement.has_replica(server) {
                continue;
            }
            let amount =
                remaining[client.index()].min(accounting.max_assignable(tree, client, server));
            if amount > 0 {
                rp_obs::incr(rp_obs::Counter::CoreLpgMovesRehome);
                accounting.assign(tree, client, server, amount);
                placement.assign(client, server, amount);
                remaining[client.index()] -= amount;
            }
        }
        // Escalation: open the eligible ancestor with the best
        // cost-per-absorbed-request (capacity-capped pending demand of
        // its subtree), serve this client from it first and then fill
        // it with the rest of its subtree's pending demand — one paid
        // replica should soak up as much stranded demand as it can,
        // not just the client that triggered it.
        while remaining[client.index()] > 0 {
            let mut best: Option<(NodeId, u64, u64)> = None; // (node, headroom, absorbable)
            for server in problem.eligible_servers(client) {
                if placement.has_replica(server) {
                    continue;
                }
                let headroom = accounting.max_assignable(tree, client, server);
                if headroom == 0 {
                    continue;
                }
                let pending: u64 = tree
                    .subtree_clients(server)
                    .iter()
                    .filter(|&&c| remaining[c.index()] > 0 && within_qos(problem, c, server))
                    .map(|&c| remaining[c.index()])
                    .sum();
                let absorbable = pending.min(accounting.node_residual(server).max(0) as u64);
                let better = match best {
                    None => true,
                    Some((incumbent, _, incumbent_absorbable)) => {
                        let challenger = problem.storage_cost(server) as u128
                            * incumbent_absorbable.max(1) as u128;
                        let reigning =
                            problem.storage_cost(incumbent) as u128 * absorbable.max(1) as u128;
                        challenger < reigning
                            || (challenger == reigning
                                && (problem.storage_cost(server), server.index())
                                    < (problem.storage_cost(incumbent), incumbent.index()))
                    }
                };
                if better {
                    best = Some((server, headroom, absorbable));
                }
            }
            let Some((server, headroom, _)) = best else {
                // Dead end: every path node is open-and-full or
                // unreachable. Ceiling overshoot elsewhere may have
                // eaten the path's slack — try freeing it by relocating
                // other clients' load off this path before giving up.
                if rescue(
                    problem,
                    &mut placement,
                    &mut accounting,
                    &mut remaining,
                    client,
                ) {
                    continue;
                }
                return None;
            };
            rp_obs::incr(rp_obs::Counter::CoreLpgMovesEscalateOpen);
            placement.add_replica(server);
            let amount = remaining[client.index()].min(headroom);
            accounting.assign(tree, client, server, amount);
            placement.assign(client, server, amount);
            remaining[client.index()] -= amount;
            // Fill the fresh replica with its subtree's pending demand,
            // largest clients first.
            let mut fill: Vec<ClientId> = tree
                .subtree_clients(server)
                .iter()
                .copied()
                .filter(|&c| remaining[c.index()] > 0 && within_qos(problem, c, server))
                .collect();
            fill.sort_by_key(|&c| (std::cmp::Reverse(remaining[c.index()]), c.index()));
            for c in fill {
                let take = remaining[c.index()].min(accounting.max_assignable(tree, c, server));
                if take > 0 {
                    accounting.assign(tree, c, server, take);
                    placement.assign(c, server, take);
                    remaining[c.index()] -= take;
                }
            }
        }
    }

    // --- Phase 4: push-down, then pruning. Draining load off the high
    // replicas (towards the leaves) concentrates the free capacity at
    // the top of the tree — and the top is on *every* client's path, so
    // the pruning pass that follows finds room to re-home far more
    // often. Moving a request down only removes links from its route,
    // so the pass can never break bandwidth feasibility. ---
    push_down(problem, &mut placement, &mut accounting);
    prune_replicas(problem, &mut placement, &mut accounting);
    consolidate_replicas(problem, &mut placement, &mut accounting);
    prune_replicas(problem, &mut placement, &mut accounting);

    debug_assert!(
        placement.is_valid(problem, crate::policy::Policy::Multiple),
        "rounded placement failed validation: {:?}",
        placement.validate(problem, crate::policy::Policy::Multiple)
    );
    Some(placement)
}

/// The replace move the pruning pass cannot make: open a **fresh**
/// ancestor and migrate whole open replicas of its subtree onto it,
/// whenever the dropped replicas cost more than the new one. This is
/// what consolidates placements whose LP guidance was spread thin over
/// many cheap nodes with no open ancestor to prune into (the
/// replica-counting families are the extreme case: all costs equal, so
/// absorbing any two replicas into one pays).
fn consolidate_replicas(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
) {
    let tree = problem.tree();
    for &candidate in tree.postorder_nodes() {
        if placement.has_replica(candidate) {
            continue;
        }
        // Open replicas strictly inside the candidate's subtree, small
        // loads first (the easiest to absorb fully). The replica scan
        // is O(replicas) per candidate; the load table is only built
        // once a candidate actually has something to absorb.
        let mut inside: Vec<NodeId> = placement
            .replicas()
            .iter()
            .copied()
            .filter(|&r| r != candidate && tree.node_is_ancestor_or_self(r, candidate))
            .collect();
        if inside.is_empty() {
            continue;
        }
        let mut loads = rp_tree::NodeMap::filled(tree.num_nodes(), 0u64);
        placement.accumulate_server_loads(&mut loads);
        inside.sort_by_key(|&r| (loads[r], r.index()));
        let mut absorbed: Vec<NodeId> = Vec::new();
        let mut moved: Vec<(ClientId, NodeId, u64)> = Vec::new();
        let mut saved: u64 = 0;
        for r in inside {
            // Try to move replica r's entire load onto the candidate.
            let served: Vec<(ClientId, u64)> = tree
                .client_ids()
                .filter_map(|client| {
                    placement
                        .assignments(client)
                        .iter()
                        .find(|a| a.server == r)
                        .map(|a| (client, a.amount))
                })
                .collect();
            let mut r_moves: Vec<(ClientId, u64)> = Vec::new();
            let mut ok = true;
            for &(client, amount) in &served {
                if !within_qos(problem, client, candidate) {
                    ok = false;
                    break;
                }
                // Unassign first: the old route shares its prefix with
                // the new one, so headroom must be measured without the
                // old charge in place.
                accounting.unassign(tree, client, r, amount);
                placement.unassign(client, r, amount);
                if accounting.max_assignable(tree, client, candidate) < amount {
                    accounting.assign(tree, client, r, amount);
                    placement.assign(client, r, amount);
                    ok = false;
                    break;
                }
                accounting.assign(tree, client, candidate, amount);
                placement.assign(client, candidate, amount);
                r_moves.push((client, amount));
            }
            if ok {
                placement.remove_replica(r);
                absorbed.push(r);
                saved += problem.storage_cost(r);
                for (client, amount) in r_moves {
                    moved.push((client, r, amount));
                }
            } else {
                for &(client, amount) in &r_moves {
                    accounting.unassign(tree, client, candidate, amount);
                    placement.unassign(client, candidate, amount);
                    accounting.assign(tree, client, r, amount);
                    placement.assign(client, r, amount);
                }
            }
        }
        if absorbed.is_empty() {
            continue;
        }
        if saved > problem.storage_cost(candidate) {
            rp_obs::add(
                rp_obs::Counter::CoreLpgMovesConsolidate,
                absorbed.len() as u64,
            );
            placement.add_replica(candidate);
        } else {
            // Not worth it: restore every absorbed replica.
            for &(client, r, amount) in &moved {
                accounting.unassign(tree, client, candidate, amount);
                placement.unassign(client, candidate, amount);
                accounting.assign(tree, client, r, amount);
                placement.assign(client, r, amount);
            }
            for r in absorbed {
                placement.add_replica(r);
            }
        }
    }
}

/// Depth-1 augmenting rescue for a stranded client: walk its path and
/// relocate other clients' assignments onto open replicas elsewhere on
/// *their* paths (keeping them fully served), then hand the freed
/// capacity to the stranded client. Returns `true` once the client is
/// fully served. Every move goes through the accounting, so
/// feasibility is preserved throughout.
fn rescue(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
    remaining: &mut [u64],
    client: ClientId,
) -> bool {
    let tree = problem.tree();
    while remaining[client.index()] > 0 {
        let mut progressed = false;
        for server in problem.eligible_servers(client) {
            if remaining[client.index()] == 0 {
                break;
            }
            if !placement.has_replica(server) {
                continue;
            }
            let others: Vec<(ClientId, u64)> = tree
                .subtree_clients(server)
                .iter()
                .copied()
                .filter(|&c| c != client)
                .filter_map(|c| {
                    placement
                        .assignments(c)
                        .iter()
                        .find(|a| a.server == server)
                        .map(|a| (c, a.amount))
                })
                .collect();
            for (other, amount) in others {
                if remaining[client.index()] == 0 {
                    break;
                }
                let mut left = amount;
                for target in problem.eligible_servers(other) {
                    if left == 0 {
                        break;
                    }
                    if target == server || !placement.has_replica(target) {
                        continue;
                    }
                    let take = left.min(accounting.max_assignable(tree, other, target));
                    if take == 0 {
                        continue;
                    }
                    rp_obs::incr(rp_obs::Counter::CoreLpgMovesRescue);
                    accounting.unassign(tree, other, server, take);
                    placement.unassign(other, server, take);
                    accounting.assign(tree, other, target, take);
                    placement.assign(other, target, take);
                    left -= take;
                    let give = remaining[client.index()]
                        .min(accounting.max_assignable(tree, client, server));
                    if give > 0 {
                        accounting.assign(tree, client, server, give);
                        placement.assign(client, server, give);
                        remaining[client.index()] -= give;
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            return false;
        }
    }
    true
}

/// `true` when `server` lies within `client`'s QoS bound (clients
/// without a bound accept any ancestor; off-path servers are rejected).
fn within_qos(problem: &ProblemInstance, client: ClientId, server: NodeId) -> bool {
    match problem.qos(client) {
        None => true,
        Some(q) => problem
            .tree()
            .client_distance(client, server)
            .is_some_and(|d| d <= q),
    }
}

/// Moves every assignment as low as it can go among the **open**
/// replicas of each client's path (closest first), within the residual
/// capacities. No replica is opened or closed; the pass only re-packs
/// load downwards so the high nodes regain headroom.
fn push_down(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
) {
    let tree = problem.tree();
    for client in tree.client_ids() {
        let assignments: Vec<(NodeId, u64)> = placement
            .assignments(client)
            .iter()
            .map(|a| (a.server, a.amount))
            .collect();
        for (server, amount) in assignments {
            let mut left = amount;
            for target in problem.eligible_servers(client) {
                if target == server || left == 0 {
                    break;
                }
                if !placement.has_replica(target) {
                    continue;
                }
                // The path to `target` is a strict prefix of the path
                // to `server`, so the moved flow itself charges the
                // shared prefix: measure the target's headroom with the
                // old charge lifted, then put back whatever stays.
                accounting.unassign(tree, client, server, left);
                placement.unassign(client, server, left);
                let take = left.min(accounting.max_assignable(tree, client, target));
                if take > 0 {
                    rp_obs::incr(rp_obs::Counter::CoreLpgMovesPushDown);
                    accounting.assign(tree, client, target, take);
                    placement.assign(client, target, take);
                }
                let stays = left - take;
                if stays > 0 {
                    accounting.assign(tree, client, server, stays);
                    placement.assign(client, server, stays);
                }
                left = stays;
            }
        }
    }
}

/// Drops every replica whose entire load re-homes onto the remaining
/// replicas within the residual capacities and bandwidths, most
/// expensive replicas first. A replica serving nothing is always
/// dropped.
fn prune_replicas(
    problem: &ProblemInstance,
    placement: &mut Placement,
    accounting: &mut FeasAccounting,
) {
    let tree = problem.tree();
    let mut loads = rp_tree::NodeMap::filled(tree.num_nodes(), 0u64);
    placement.accumulate_server_loads(&mut loads);
    let mut candidates: Vec<NodeId> = placement.replicas().to_vec();
    // Most expensive first, lightest load within a price: the cheap
    // drops come first and the hard (heavily loaded) ones are attempted
    // only after the easy wins freed nothing they needed.
    candidates.sort_by_key(|&node| {
        (
            std::cmp::Reverse(problem.storage_cost(node)),
            loads[node],
            node.index(),
        )
    });
    for node in candidates {
        // The load currently served at this replica.
        let served: Vec<(ClientId, u64)> = tree
            .client_ids()
            .filter_map(|client| {
                placement
                    .assignments(client)
                    .iter()
                    .find(|a| a.server == node)
                    .map(|a| (client, a.amount))
            })
            .collect();
        // Tentatively evict everything from the candidate.
        for &(client, amount) in &served {
            accounting.unassign(tree, client, node, amount);
            placement.unassign(client, node, amount);
        }
        let mut moved: Vec<(ClientId, NodeId, u64)> = Vec::new();
        let mut stuck = false;
        'rehome: for &(client, amount) in &served {
            let mut left = amount;
            for server in problem.eligible_servers(client) {
                if left == 0 {
                    break;
                }
                if server == node || !placement.has_replica(server) {
                    continue;
                }
                let take = left.min(accounting.max_assignable(tree, client, server));
                if take > 0 {
                    accounting.assign(tree, client, server, take);
                    placement.assign(client, server, take);
                    moved.push((client, server, take));
                    left -= take;
                }
            }
            if left > 0 {
                stuck = true;
                break 'rehome;
            }
        }
        if stuck {
            // Roll everything back: undo the moves, restore the evictions.
            for &(client, server, take) in &moved {
                accounting.unassign(tree, client, server, take);
                placement.unassign(client, server, take);
            }
            for &(client, amount) in &served {
                accounting.assign(tree, client, node, amount);
                placement.assign(client, node, amount);
            }
        } else {
            rp_obs::incr(rp_obs::Counter::CoreLpgMovesPruneDrop);
            placement.remove_replica(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{exact_optimal_cost, lower_bound, BoundKind};
    use crate::policy::Policy;
    use rp_tree::TreeBuilder;

    #[test]
    fn rounding_matches_the_optimum_on_a_plain_instance() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(mid);
        b.add_client(root);
        let p = ProblemInstance::replica_cost(b.build().unwrap(), vec![3, 5, 2], vec![10, 10]);
        let placement = lp_guided(&p).expect("feasible");
        assert!(placement.is_valid(&p, Policy::Multiple));
        let bound = lower_bound(&p, BoundKind::Rational).unwrap();
        assert!(placement.cost(&p) as f64 + 1e-6 >= bound);
    }

    #[test]
    fn pruning_recovers_the_all_at_root_optimum() {
        // root (W = s = 10) -> mid (W = s = 3), one 4-request client
        // below mid, bandwidth 4 on the uplink: serving everything at
        // the root (cost 10) beats buying both replicas (cost 13). The
        // LP mass prefers the cheap mid, so only the pruning pass finds
        // the exact optimum.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let p = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![4])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .node_link_bandwidths(vec![None, Some(4)])
            .build();
        let placement = lp_guided(&p).expect("feasible");
        assert!(placement.is_valid(&p, Policy::Multiple));
        assert_eq!(placement.cost(&p), 10);
        assert_eq!(exact_optimal_cost(&p, Policy::Multiple), Some(10));
    }

    #[test]
    fn infeasible_relaxations_round_to_none() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        let p = ProblemInstance::replica_counting(b.build().unwrap(), vec![5], 2);
        assert!(lp_guided(&p).is_none());
    }

    #[test]
    fn bandwidth_bound_instances_round_feasibly() {
        // A binding uplink forces a split the accounting must respect.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let p = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![4])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .node_link_bandwidths(vec![None, Some(2)])
            .build();
        let placement = lp_guided(&p).expect("feasible: 2 up, 2 at mid");
        assert!(placement.is_valid(&p, Policy::Multiple));
        assert_eq!(placement.cost(&p), 13);
    }

    #[test]
    fn qos_bounds_restrict_the_rounding() {
        // The mid client may only be served at mid (q = 1).
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(root);
        let p = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![2, 1])
            .capacities(vec![3, 3])
            .storage_costs(vec![3, 3])
            .qos(vec![Some(1), Some(1)])
            .build();
        let placement = lp_guided(&p).expect("feasible");
        assert!(placement.is_valid(&p, Policy::Multiple));
        assert_eq!(placement.cost(&p), 6);
    }
}
