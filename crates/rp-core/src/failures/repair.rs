//! The repair ladder: adapting a placement to a changed platform.
//!
//! One ladder serves both the batch resilience path
//! ([`repair_after_failure`], every client dirty) and the online engine
//! (only the clients a delta can affect dirty). Each rung is
//! deadline-checked before it starts:
//!
//! 1. **surgical** ([`ApplyRung::Surgical`]) — repair the incumbent
//!    touching only the dirty clients: strip replicas on crashed
//!    servers, tear down routes that died, sync each dirty client to its
//!    current demand, shed load from servers whose capacity dropped
//!    (whole clients under the single-server policies, exact amounts
//!    under Multiple), and re-home the orphans through the LP-guided
//!    repair stack's exact accounting ([`FeasAccounting`]): under
//!    Upwards and Multiple with the step the bandwidth repair
//!    ([`BandwidthRepair`]) moves flow with (`place_on_path`, here over
//!    the orphan's eligible servers), under Closest onto the first
//!    replica on the path or a node below it. Orphans that find no home
//!    are left unserved, which keeps a partial answer; an orphan that is
//!    not [servable](DegradedPlatform::is_servable) is left unserved
//!    without a try;
//! 2. **LP-guided** ([`ApplyRung::LpRepair`]) — under Multiple only, a
//!    warm LP re-solve rounded to an integral placement (the rounding
//!    splits clients, which the single-server policies forbid);
//! 3. **re-run** ([`ApplyRung::Rerun`]) — the policy's own heuristics
//!    (bandwidth-repaired) from scratch on the surviving instance;
//! 4. **degrade** ([`ApplyRung::Degraded`]) — the surgical partial if it
//!    verifies (it moved the fewest clients), else a best-effort
//!    placement grown from empty and shrunk by a validate-and-drop loop
//!    until it verifies.
//!
//! Which rungs run: rung 1 always, unless the deadline passed. A full
//! surgical answer ends the climb. Rungs 2 and 3 answer only with a
//! placement valid on the whole surviving instance, so when the
//! surgical partial leaves clients unserved they are skipped (and
//! `core.repair.rungs_skipped` counts the climb) on a proof that no
//! such placement exists: a client the partial leaves is not
//! [servable](DegradedPlatform::is_servable) (its demand cannot reach
//! any server with capacity; O(depth) per client), or else the
//! surviving instance fails the exact Multiple feasibility pass
//! ([`multiple_is_feasible`]; O(s log s), and every policy's placement
//! is a Multiple one). When the surgical rung gives up (`None`), every
//! rung runs.
//!
//! The one check: every candidate a rung offers is accepted only after
//! [`DegradedPlacement::verify`] passes it, in release builds too, and
//! no candidate is checked twice. A full surgical answer that fails is
//! not checked again as rung 4's partial, and each validate-and-drop
//! round's report is checked once, its pass being its acceptance.
//!
//! The last rung always terminates (each round drops at least one
//! client, and the report that serves nobody is vacuously valid), so
//! only a passed deadline, or a check that rejects even that report,
//! leaves the ladder without an answer.

use std::fmt;
use std::time::Instant;

use rp_lp::{LpWorkspace, SolveBudget};
use rp_tree::{ClientId, NodeId};

use crate::bounds::multiple_is_feasible;
use crate::failures::apply::{apply_failures, DegradedPlatform};
use crate::failures::event::FailureEvent;
use crate::failures::report::{DegradedPlacement, RepairOutcome};
use crate::heuristics::lp_guided::accounting::FeasAccounting;
use crate::heuristics::lp_guided::lp_guided_reusing;
use crate::heuristics::lp_guided::repair::{place_on_path, prune_idle_replicas};
use crate::heuristics::{BandwidthRepair, Heuristic};
use crate::ilp::IlpOptions;
use crate::policy::Policy;
use crate::problem::ProblemInstance;
use crate::solution::{Placement, Violation};

/// Which rung of the repair ladder produced an accepted answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApplyRung {
    /// Dirty-region surgical repair of the incumbent.
    Surgical,
    /// LP-guided re-solve warm-started from the caller's LP workspace.
    LpRepair,
    /// Full heuristic re-run from scratch.
    Rerun,
    /// A verified partial answer (some clients unserved).
    Degraded,
}

impl ApplyRung {
    /// Stable machine-readable tag.
    pub fn as_str(self) -> &'static str {
        match self {
            ApplyRung::Surgical => "surgical",
            ApplyRung::LpRepair => "lp-repair",
            ApplyRung::Rerun => "rerun",
            ApplyRung::Degraded => "degraded",
        }
    }

    /// Counts one accepted answer of this rung that leaves `unserved`
    /// clients unserved (the `core.repair.*` counters).
    pub fn record(self, unserved: usize) {
        rp_obs::incr(match self {
            ApplyRung::Surgical => rp_obs::Counter::CoreRepairRungSurgical,
            ApplyRung::LpRepair => rp_obs::Counter::CoreRepairRungLpRepair,
            ApplyRung::Rerun => rp_obs::Counter::CoreRepairRungRerun,
            ApplyRung::Degraded => rp_obs::Counter::CoreRepairRungDegraded,
        });
        rp_obs::add(rp_obs::Counter::CoreRepairDroppedClients, unserved as u64);
    }
}

impl fmt::Display for ApplyRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Applies `events` to `problem` and repairs `placement` over the
/// survivors. Convenience wrapper bundling
/// [`apply_failures`](crate::failures::apply_failures) and
/// [`repair_after_failure`].
pub fn inject_and_repair(
    problem: &ProblemInstance,
    placement: &Placement,
    policy: Policy,
    events: &[FailureEvent],
) -> (DegradedPlatform, RepairOutcome) {
    let platform = apply_failures(problem, events);
    let outcome = repair_after_failure(&platform, placement, policy);
    (platform, outcome)
}

/// Repairs `placement` (valid on the healthy instance) over the
/// surviving platform: the [`repair_ladder`] with every client dirty,
/// no deadline and a fresh LP workspace. Never panics and never returns
/// an unusable answer: the result is either a placement fully valid on
/// [`DegradedPlatform::problem`] or a verified [`DegradedPlacement`]
/// report. (Without a deadline the ladder comes back empty-handed only
/// if its check rejects the report that serves nobody; that report is
/// then returned as it is.)
pub fn repair_after_failure(
    platform: &DegradedPlatform,
    placement: &Placement,
    policy: Policy,
) -> RepairOutcome {
    let _span = rp_obs::span(rp_obs::SpanKind::FailureRepair);
    let everyone: Vec<ClientId> = platform.problem().tree().client_ids().collect();
    let answer = repair_ladder(
        platform,
        placement,
        &everyone,
        policy,
        None,
        SolveBudget::UNLIMITED,
        &mut LpWorkspace::new(),
    );
    let (report, rung) = match answer {
        Some(answer) => answer,
        None => (
            DegradedPlacement::serving_nobody(platform),
            ApplyRung::Degraded,
        ),
    };
    rung.record(report.unserved.len());
    if report.unserved.is_empty() {
        RepairOutcome::Full(report.placement)
    } else {
        RepairOutcome::Degraded(report)
    }
}

/// Climbs the repair ladder (see the module docs) from `incumbent` over
/// `platform`, re-examining only the `dirty` clients in the surgical
/// rung. `budget`'s iteration cap and the time left before `deadline`
/// bound the LP rung. Returns the accepted answer and its rung, or
/// `None` when the deadline passed before any rung answered, or when
/// not even rung 4's last resort passed its check. Every answer it
/// returns passed [`DegradedPlacement::verify`] exactly once.
pub fn repair_ladder(
    platform: &DegradedPlatform,
    incumbent: &Placement,
    dirty: &[ClientId],
    policy: Policy,
    deadline: Option<Instant>,
    budget: SolveBudget,
    workspace: &mut LpWorkspace,
) -> Option<(DegradedPlacement, ApplyRung)> {
    let problem = platform.problem();
    let accept = |placement: Placement, unserved: Vec<ClientId>| {
        let report = DegradedPlacement::new(platform, placement, unserved);
        report.verify(platform, policy).then_some(report)
    };

    // Rung 1: surgical repair of the dirty region. A full answer that
    // fails its check is not checked again as rung 4's partial.
    let mut partial: Option<(Placement, Vec<ClientId>)> = None;
    if !expired(deadline) {
        if let Some((placement, unserved)) = surgical(platform, incumbent, dirty, policy) {
            if !unserved.is_empty() {
                partial = Some((placement, unserved));
            } else if let Some(report) = accept(placement, Vec::new()) {
                return Some((report, ApplyRung::Surgical));
            }
        }
    }

    // Rungs 2 and 3 answer only with a placement valid on the whole
    // surviving instance. None exists while a client with demand is
    // unservable (O(depth) per unserved client), nor when the exact
    // Multiple feasibility pass fails (O(s log s)): when the partial
    // leaves clients unserved and either proof holds, go straight to
    // rung 4.
    let futile = partial.as_ref().is_some_and(|(_, unserved)| {
        unserved.iter().any(|&c| !platform.is_servable(c)) || !multiple_is_feasible(problem)
    });
    if futile {
        rp_obs::incr(rp_obs::Counter::CoreRepairRungsSkipped);
    } else {
        // Rung 2: LP-guided re-solve (Multiple only).
        if policy == Policy::Multiple && !expired(deadline) {
            let options = lp_options(deadline, budget);
            if let Some(placement) = lp_guided_reusing(problem, &options, workspace) {
                if let Some(report) = accept(placement, Vec::new()) {
                    return Some((report, ApplyRung::LpRepair));
                }
            }
        }

        // Rung 3: full heuristic re-run from scratch.
        if !expired(deadline) {
            if let Some(placement) = heuristic_fallback(platform, policy) {
                if let Some(report) = accept(placement, Vec::new()) {
                    return Some((report, ApplyRung::Rerun));
                }
            }
        }
    }

    // Rung 4: a verified degraded answer.
    if expired(deadline) {
        return None;
    }
    if let Some(report) = partial.and_then(|(placement, unserved)| accept(placement, unserved)) {
        return Some((report, ApplyRung::Degraded));
    }
    degraded_best_effort(platform, policy).map(|report| (report, ApplyRung::Degraded))
}

/// Whether `deadline` has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The LP options for the guided rung: the remaining wall budget (and
/// the caller's iteration cap) threaded into the warm simplex solve.
fn lp_options(deadline: Option<Instant>, budget: SolveBudget) -> IlpOptions {
    let mut options = IlpOptions::default();
    options.branch_bound.simplex.budget = SolveBudget {
        deadline: deadline.map(|d| d.saturating_duration_since(Instant::now())),
        max_iterations: budget.max_iterations,
    };
    options
}

/// Rung 1: repair `incumbent` touching only the `dirty` clients.
/// Returns the repaired placement plus the clients it had to leave
/// unserved (empty = full service); `None` when overload shedding
/// cannot restore non-negative residuals.
fn surgical(
    platform: &DegradedPlatform,
    incumbent: &Placement,
    dirty: &[ClientId],
    policy: Policy,
) -> Option<(Placement, Vec<ClientId>)> {
    let problem = platform.problem();
    let tree = problem.tree();
    let mut survivor = incumbent.clone();

    // Replicas on dead servers go first (all their clients are in the
    // dead server's subtree, hence dirty).
    let dead: Vec<NodeId> = survivor
        .replicas()
        .iter()
        .copied()
        .filter(|&n| platform.is_server_dead(n))
        .collect();
    for node in dead {
        survivor.remove_replica(node);
    }

    // Tear down the dirty clients' broken routes and sync each to its
    // current demand; deficits become orphans.
    let mut orphans: Vec<(ClientId, u64)> = Vec::new();
    for &client in dirty {
        let broken: Vec<(NodeId, u64)> = survivor
            .assignments(client)
            .iter()
            .filter(|a| !platform.path_is_alive(client, a.server))
            .map(|a| (a.server, a.amount))
            .collect();
        for (server, amount) in broken {
            survivor.unassign(client, server, amount);
        }

        let target = problem.requests(client);
        let assigned = survivor.assigned_requests(client);
        if assigned > target {
            // Demand shrank: trim the excess in place (valid under every
            // policy — the server set only shrinks).
            let mut excess = assigned - target;
            for (server, amount) in held(&survivor, client).into_iter().rev() {
                if excess == 0 {
                    break;
                }
                excess -= survivor.unassign(client, server, amount.min(excess));
            }
        } else if assigned < target {
            if policy.is_single_server() && assigned > 0 {
                // A single-server client cannot split its top-up:
                // re-home the whole client.
                for (server, amount) in held(&survivor, client) {
                    survivor.unassign(client, server, amount);
                }
                orphans.push((client, target));
            } else {
                orphans.push((client, target - assigned));
            }
        }
    }

    // Charge every surviving assignment into the exact accounting of the
    // current instance; capacity-lost servers may show negative
    // residuals.
    let mut accounting = FeasAccounting::charged(problem, &survivor);

    // Shed overload where the effective capacity dropped below the
    // carried load. Smallest assignments go first so the orphaned
    // volume stays close to the deficit; single-server policies must
    // shed whole clients.
    for node in tree.node_ids() {
        if accounting.node_residual(node) >= 0 {
            continue;
        }
        // Only clients below `node` can be served there, each by one
        // assignment (`Placement::assign` merges).
        let mut carried: Vec<(ClientId, u64)> = Vec::new();
        for &c in tree.subtree_clients(node) {
            if let Some(a) = survivor.assignments(c).iter().find(|a| a.server == node) {
                carried.push((c, a.amount));
            }
        }
        carried.sort_by_key(|&(c, amount)| (amount, c.index()));
        for (client, amount) in carried {
            let deficit = -accounting.node_residual(node);
            if deficit <= 0 {
                break;
            }
            let shed = if policy.is_single_server() {
                amount
            } else {
                amount.min(deficit as u64)
            };
            let removed = survivor.unassign(client, node, shed);
            accounting.unassign(tree, client, node, removed);
            if removed > 0 {
                match orphans.iter_mut().find(|(c, _)| *c == client) {
                    Some(entry) => entry.1 += removed,
                    None => orphans.push((client, removed)),
                }
            }
        }
        if accounting.node_residual(node) < 0 {
            return None;
        }
    }

    // Re-home the orphans hardest (largest) first; what cannot be
    // re-homed is fully unassigned and reported unserved. An orphan no
    // placement can serve is not tried: no live server with capacity
    // is reachable from it, so every candidate has zero headroom and
    // `rehome` would fail without a change.
    let mut unserved: Vec<ClientId> = Vec::new();
    orphans.sort_by_key(|&(c, amount)| (std::cmp::Reverse(amount), c.index()));
    for (client, amount) in orphans {
        if !platform.is_servable(client)
            || !rehome(
                problem,
                &mut survivor,
                &mut accounting,
                client,
                amount,
                policy,
            )
        {
            for (server, amount) in held(&survivor, client) {
                let removed = survivor.unassign(client, server, amount);
                accounting.unassign(tree, client, server, removed);
            }
            unserved.push(client);
        }
    }

    prune_idle_replicas(&mut survivor, tree.num_nodes());
    Some((survivor, unserved))
}

/// `client`'s current `(server, amount)` assignments, copied out so the
/// placement can be edited while walking them.
fn held(placement: &Placement, client: ClientId) -> Vec<(NodeId, u64)> {
    placement
        .assignments(client)
        .iter()
        .map(|a| (a.server, a.amount))
        .collect()
}

/// Places `amount` orphaned requests of `client` onto surviving
/// servers; returns whether the whole amount found a home. Upwards and
/// Multiple use the bandwidth repair's step ([`place_on_path`]) over
/// the eligible servers, which opens no crashed server; Closest must
/// use the first replica on the path or re-home below it. On `false`
/// every assignment and residual is as it was.
fn rehome(
    problem: &ProblemInstance,
    survivor: &mut Placement,
    accounting: &mut FeasAccounting,
    client: ClientId,
    amount: u64,
    policy: Policy,
) -> bool {
    let tree = problem.tree();
    if amount == 0 {
        return true;
    }
    match policy {
        Policy::Closest => {
            let Some(target) = closest_target(problem, survivor, accounting, client, amount) else {
                return false;
            };
            survivor.add_replica(target);
            accounting.assign(tree, client, target, amount);
            survivor.assign(client, target, amount);
            true
        }
        Policy::Upwards | Policy::Multiple => {
            let path: Vec<NodeId> = problem.eligible_servers(client).collect();
            let single = policy.is_single_server();
            place_on_path(problem, survivor, accounting, client, amount, &path, single)
        }
    }
}

/// The one server `client` may use under Closest: the first surviving
/// replica on its eligible path if it has headroom for the whole
/// client, else the cheapest node strictly *below* the first replica
/// whose opening does not break any other client's first-replica rule.
fn closest_target(
    problem: &ProblemInstance,
    survivor: &Placement,
    accounting: &FeasAccounting,
    client: ClientId,
    amount: u64,
) -> Option<NodeId> {
    let tree = problem.tree();
    let mut openable: Vec<NodeId> = Vec::new();
    for v in problem.eligible_servers(client) {
        if survivor.has_replica(v) {
            // The first replica on the path: Closest forbids serving
            // past it, so it either takes the whole client or the
            // client must be re-homed below it.
            if accounting.max_assignable(tree, client, v) >= amount {
                return Some(v);
            }
            break;
        }
        openable.push(v);
    }
    openable
        .into_iter()
        .filter(|&v| {
            accounting.max_assignable(tree, client, v) >= amount
                && closest_safe_to_open(tree, survivor, v)
        })
        .min_by_key(|&v| (problem.storage_cost(v), v.index()))
}

/// Whether opening a replica at `v` keeps the Closest rule intact for
/// every already-assigned client: no client inside `subtree(v)` may be
/// served by a server strictly above `v` (a new replica at `v` would
/// shadow it).
fn closest_safe_to_open(tree: &rp_tree::TreeNetwork, survivor: &Placement, v: NodeId) -> bool {
    tree.subtree_clients(v).iter().all(|&k| {
        survivor
            .assignments(k)
            .iter()
            .all(|a| a.server == v || !tree.node_is_ancestor_or_self(v, a.server))
    })
}

/// Rung 3: rebuild from scratch with the policy's own heuristics
/// (bandwidth-repaired, since dead links surface as zero-bandwidth
/// limits) and keep the cheapest valid placement.
pub fn heuristic_fallback(platform: &DegradedPlatform, policy: Policy) -> Option<Placement> {
    let problem = platform.problem();
    let mut best: Option<(u64, Placement)> = None;
    for heuristic in Heuristic::BASE {
        if heuristic.policy() != policy {
            continue;
        }
        if let Some(candidate) = BandwidthRepair(heuristic).run(problem) {
            let cost = candidate.cost(problem);
            if best.as_ref().map(|(b, _)| cost < *b).unwrap_or(true) {
                best = Some((cost, candidate));
            }
        }
    }
    best.map(|(_, placement)| placement)
}

/// Rung 4's fallback: grow a best-effort partial placement from empty
/// and shrink it by validate-and-drop until it verifies. Each round's
/// report passes through [`DegradedPlacement::verify`]'s check once,
/// and the first that passes is returned. Every round either returns or
/// drops one more client, and the last resort, the report that serves
/// nobody ([`DegradedPlacement::serving_nobody`]), verifies on every
/// platform: `None` means the check rejected even that.
pub fn degraded_best_effort(
    platform: &DegradedPlatform,
    policy: Policy,
) -> Option<DegradedPlacement> {
    let tree = platform.problem().tree();

    // Serve the heavy clients while the surviving capacity lasts: the
    // surgical rung grown from the empty placement with every client
    // dirty (nothing is carried, so nothing needs shedding).
    let everyone: Vec<ClientId> = tree.client_ids().collect();
    let empty = Placement::empty(tree.num_clients());
    let (placement, unserved) =
        surgical(platform, &empty, &everyone, policy).unwrap_or((empty, everyone));
    let mut report = DegradedPlacement::new(platform, placement, unserved);

    let mut rounds = tree.num_clients() + 2;
    loop {
        let violations = match report.check(platform, policy) {
            Ok(()) => return Some(report),
            Err(violations) => violations,
        };
        let victim = violations
            .iter()
            .find_map(|v| violating_client(v, &report.placement, tree))
            .filter(|c| !report.unserved.contains(c));
        match victim {
            Some(client) if rounds > 0 => {
                rounds -= 1;
                let DegradedPlacement {
                    mut placement,
                    mut unserved,
                    ..
                } = report;
                for (server, amount) in held(&placement, client) {
                    placement.unassign(client, server, amount);
                }
                unserved.push(client);
                prune_idle_replicas(&mut placement, tree.num_nodes());
                report = DegradedPlacement::new(platform, placement, unserved);
            }
            _ => {
                // Cannot attribute the violation (or ran out of rounds):
                // fall back to the vacuously valid report.
                let nobody = DegradedPlacement::serving_nobody(platform);
                return nobody.verify(platform, policy).then_some(nobody);
            }
        }
    }
}

/// Maps a violation to a client whose removal resolves it.
fn violating_client(
    violation: &Violation,
    placement: &Placement,
    tree: &rp_tree::TreeNetwork,
) -> Option<ClientId> {
    match violation {
        Violation::RequestsNotCovered { client, .. }
        | Violation::MultipleServersUnderSingleServerPolicy { client, .. }
        | Violation::ServerWithoutReplica { client, .. }
        | Violation::ServerOffPath { client, .. }
        | Violation::NotClosestReplica { client, .. }
        | Violation::QosExceeded { client, .. } => Some(*client),
        Violation::CapacityExceeded { server, .. } => tree
            .client_ids()
            .find(|&c| placement.assignments(c).iter().any(|a| a.server == *server)),
        Violation::BandwidthExceeded { link, .. } => tree.client_ids().find(|&c| {
            placement.assignments(c).iter().any(|a| {
                tree.client_path_links(c, a.server)
                    .map(|mut links| links.any(|l| l == *link))
                    .unwrap_or(false)
            })
        }),
        Violation::WrongClientCount { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::apply::FailureState;
    use rp_tree::{LinkId, TreeBuilder};

    /// root(W=10,s=10) -> mid(W=5,s=5) -> {c0: 4}; mid -> c1: 2;
    /// root -> c2: 3.
    fn sample() -> (ProblemInstance, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let c0 = b.add_client(mid);
        let c1 = b.add_client(mid);
        let c2 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![4, 2, 3], vec![10, 5]);
        (p, vec![root, mid], vec![c0, c1, c2])
    }

    fn serve_all_at(p: &ProblemInstance, server: NodeId) -> Placement {
        let mut placement = Placement::empty(p.tree().num_clients());
        placement.add_replica(server);
        for c in p.tree().client_ids() {
            placement.assign(c, server, p.requests(c));
        }
        placement
    }

    #[test]
    fn crash_of_the_only_replica_is_repaired_onto_survivors() {
        let (p, n, _) = sample();
        // Everything at mid is invalid (c2 off-path); serve at root.
        let placement = serve_all_at(&p, n[0]);
        assert!(placement.is_valid(&p, Policy::Upwards));
        for policy in Policy::ALL {
            let (platform, outcome) =
                inject_and_repair(&p, &placement, policy, &[FailureEvent::ServerCrash(n[0])]);
            assert!(outcome.verify(&platform, policy), "{policy}");
            // Root dead: c2 (3 requests) is unservable, c0+c1 (6) fit
            // on mid only if W allows — 6 > 5, so some shortfall under
            // every policy.
            assert!(!outcome.is_full(), "{policy}");
            assert!(outcome.served_fraction() < 1.0, "{policy}");
        }
    }

    #[test]
    fn single_server_crash_with_room_elsewhere_restores_full_service() {
        let (p, n, c) = {
            // Same shape as `sample`, but mid holds its full subtree
            // (W = 6) so the starting placement is Closest-valid.
            let mut b = TreeBuilder::new();
            let root = b.add_root();
            let mid = b.add_node(root);
            let c0 = b.add_client(mid);
            let c1 = b.add_client(mid);
            let c2 = b.add_client(root);
            let tree = b.build().unwrap();
            let p = ProblemInstance::replica_cost(tree, vec![4, 2, 3], vec![10, 6]);
            let nodes: Vec<NodeId> = p.tree().node_ids().collect();
            (p, nodes, vec![c0, c1, c2])
        };
        // Serve c0+c1 at mid, c2 at root.
        let mut placement = Placement::empty(3);
        placement.add_replica(n[0]);
        placement.add_replica(n[1]);
        placement.assign(c[0], n[1], 4);
        placement.assign(c[1], n[1], 2);
        placement.assign(c[2], n[0], 3);
        assert!(placement.is_valid(&p, Policy::Closest));
        // Mid crashes: its 6 requests re-home to the root (3+6 ≤ 10).
        for policy in Policy::ALL {
            let (platform, outcome) =
                inject_and_repair(&p, &placement, policy, &[FailureEvent::ServerCrash(n[1])]);
            assert!(outcome.is_full(), "{policy}");
            assert!(outcome.verify(&platform, policy), "{policy}");
            assert!(outcome.placement().has_replica(n[0]), "{policy}");
        }
    }

    #[test]
    fn capacity_loss_sheds_and_rehomes_the_excess() {
        let (p, n, c) = sample();
        let mut placement = Placement::empty(3);
        placement.add_replica(n[0]);
        placement.add_replica(n[1]);
        placement.assign(c[0], n[1], 4);
        placement.assign(c[1], n[1], 2);
        placement.assign(c[2], n[0], 3);
        // Mid degrades to capacity 3: 3 of its 6 requests must move up.
        let events = [FailureEvent::CapacityLoss {
            node: n[1],
            remaining: 3,
        }];
        for policy in Policy::ALL {
            let (platform, outcome) = inject_and_repair(&p, &placement, policy, &events);
            assert!(outcome.verify(&platform, policy), "{policy}");
            assert!(outcome.is_full(), "{policy}");
        }
    }

    #[test]
    fn dead_client_uplink_degrades_to_a_correct_partial_report() {
        let (p, _, c) = sample();
        let placement = serve_all_at(&p, p.tree().root());
        let events = [FailureEvent::UplinkDown(LinkId::Client(c[0]))];
        for policy in Policy::ALL {
            let (platform, outcome) = inject_and_repair(&p, &placement, policy, &events);
            assert!(outcome.verify(&platform, policy), "{policy}");
            match outcome {
                RepairOutcome::Degraded(report) => {
                    assert_eq!(report.unserved, vec![c[0]]);
                    assert_eq!(report.served_requests, 5);
                    assert_eq!(report.total_requests, 9);
                }
                RepairOutcome::Full(_) => panic!("{policy}: c0 is unreachable"),
            }
        }
    }

    #[test]
    fn an_unservable_client_sends_the_ladder_straight_to_rung_4() {
        let (p, _, c) = sample();
        let placement = serve_all_at(&p, p.tree().root());
        let everyone: Vec<ClientId> = p.tree().client_ids().collect();
        let climb = |platform: &DegradedPlatform, workspace: &mut LpWorkspace| {
            let budget = SolveBudget::UNLIMITED;
            let policy = Policy::Multiple;
            repair_ladder(
                platform, &placement, &everyone, policy, None, budget, workspace,
            )
        };

        // c0's uplink is cut: the LP rung could not answer, so its fresh
        // workspace never solves.
        let cut = apply_failures(&p, &[FailureEvent::UplinkDown(LinkId::Client(c[0]))]);
        assert!(!cut.is_servable(c[0]));
        let mut workspace = LpWorkspace::new();
        let (report, rung) = climb(&cut, &mut workspace).unwrap();
        assert_eq!(rung, ApplyRung::Degraded);
        assert_eq!(report.unserved, vec![c[0]]);
        assert!(report.verify(&cut, Policy::Multiple));
        assert_eq!(workspace.revised.last_stats().refactorisations, 0);

        // c2's demand outgrows the platform while every client stays
        // servable: the feasibility pass proves the LP rung futile too.
        let spike = FailureState::healthy(p.tree()).platform(&p, &[4, 2, 40], &[10, 5]);
        assert!(spike.is_servable(c[2]));
        assert!(!multiple_is_feasible(spike.problem()));
        let mut workspace = LpWorkspace::new();
        let (report, rung) = climb(&spike, &mut workspace).unwrap();
        assert_eq!(rung, ApplyRung::Degraded);
        assert!(report.unserved.contains(&c[2]));
        assert_eq!(workspace.revised.last_stats().refactorisations, 0);

        // Control: c2 now needs 9 at the root, its only server, where
        // the incumbent keeps c0 and c1's 6, so the surgical top-up
        // finds 1 of the 6 it needs; moving c0 and c1 down to `mid`
        // serves everyone. Neither proof holds, so the LP rung runs and
        // finds that.
        let tight = FailureState::healthy(p.tree()).platform(&p, &[4, 2, 9], &[10, 5]);
        assert!(multiple_is_feasible(tight.problem()));
        let mut workspace = LpWorkspace::new();
        let (report, rung) = climb(&tight, &mut workspace).unwrap();
        assert_eq!(rung, ApplyRung::LpRepair);
        assert!(report.unserved.is_empty());
        assert!(workspace.revised.last_stats().refactorisations > 0);
    }

    #[test]
    fn unservable_orphans_stay_unserved_and_a_servable_one_is_rehomed() {
        // root(W=20) -> a(W=5) -> {c0: 2}; a -> m(W=4) -> {c2: 3};
        // root -> b(W=0) -> {c1: 2}. Replicas at root (c0, c1) and m
        // (c2). m crashes, c0's uplink and b's uplink die: c0 sits
        // behind a dead uplink, c1's only live path ends at b, which has
        // no capacity, and c2 can still reach the root.
        let mut bld = TreeBuilder::new();
        let root = bld.add_root();
        let a = bld.add_node(root);
        let c0 = bld.add_client(a);
        let m = bld.add_node(a);
        let c2 = bld.add_client(m);
        let b = bld.add_node(root);
        let c1 = bld.add_client(b);
        let p =
            ProblemInstance::replica_cost(bld.build().unwrap(), vec![2, 3, 2], vec![20, 5, 4, 0]);
        let mut placement = Placement::empty(3);
        placement.add_replica(root);
        placement.add_replica(m);
        placement.assign(c0, root, 2);
        placement.assign(c1, root, 2);
        placement.assign(c2, m, 3);
        assert!(placement.is_valid(&p, Policy::Closest));
        let events = [
            FailureEvent::ServerCrash(m),
            FailureEvent::UplinkDown(LinkId::Client(c0)),
            FailureEvent::UplinkDown(LinkId::Node(b)),
        ];
        let platform = apply_failures(&p, &events);
        assert!(!platform.is_servable(c0) && !platform.is_servable(c1));
        assert!(platform.is_servable(c2));
        let everyone: Vec<ClientId> = p.tree().client_ids().collect();
        for policy in Policy::ALL {
            let (repaired, unserved) = surgical(&platform, &placement, &everyone, policy).unwrap();
            assert_eq!(unserved, vec![c0, c1], "{policy}");
            // No replica opens: m's is gone and c2 moves to the root.
            assert_eq!(repaired.replicas(), [root], "{policy}");
            let servers = |c| held(&repaired, c);
            assert_eq!(servers(c2), vec![(root, 3)], "{policy}");
            assert!(servers(c0).is_empty() && servers(c1).is_empty(), "{policy}");

            // The ladder keeps that partial.
            let RepairOutcome::Degraded(report) =
                repair_after_failure(&platform, &placement, policy)
            else {
                panic!("{policy}: c0 and c1 are cut off");
            };
            assert_eq!(report.unserved, vec![c0, c1], "{policy}");
            assert_eq!(report.placement, repaired, "{policy}");
            assert!(report.verify(&platform, policy), "{policy}");
        }
    }

    #[test]
    fn degraded_repair_keeps_the_surgical_partial() {
        // root(W=10,s=10) -> mid(W=5,s=5) -> {c0: 2, c1: 2}; root -> c2: 3.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let c0 = b.add_client(mid);
        let c1 = b.add_client(mid);
        let c2 = b.add_client(root);
        let p = ProblemInstance::replica_cost(b.build().unwrap(), vec![2, 2, 3], vec![10, 5]);
        let n: Vec<NodeId> = p.tree().node_ids().collect();
        let mut placement = Placement::empty(3);
        placement.add_replica(n[0]);
        placement.add_replica(n[1]);
        placement.assign(c0, n[1], 2);
        placement.assign(c1, n[1], 2);
        placement.assign(c2, n[0], 3);
        assert!(placement.is_valid(&p, Policy::Closest));
        // Only c0 loses its route: c1 and c2 stay where they were.
        let events = [FailureEvent::UplinkDown(LinkId::Client(c0))];
        for policy in Policy::ALL {
            let (platform, outcome) = inject_and_repair(&p, &placement, policy, &events);
            assert!(outcome.verify(&platform, policy), "{policy}");
            let RepairOutcome::Degraded(report) = outcome else {
                panic!("{policy}: c0 is unreachable");
            };
            assert_eq!(report.unserved, vec![c0], "{policy}");
            let servers = |c| -> Vec<NodeId> {
                report
                    .placement
                    .assignments(c)
                    .iter()
                    .map(|a| a.server)
                    .collect()
            };
            assert_eq!(servers(c1), vec![n[1]], "{policy}: c1 moved");
            assert_eq!(servers(c2), vec![n[0]], "{policy}: c2 moved");
        }
    }

    #[test]
    fn subtree_failure_cuts_off_the_subtree_but_serves_the_rest() {
        let (p, n, c) = sample();
        let placement = serve_all_at(&p, p.tree().root());
        let events = [FailureEvent::SubtreeFailure(n[1])];
        for policy in Policy::ALL {
            let (platform, outcome) = inject_and_repair(&p, &placement, policy, &events);
            assert!(outcome.verify(&platform, policy), "{policy}");
            match outcome {
                RepairOutcome::Degraded(report) => {
                    assert_eq!(report.unserved, vec![c[0], c[1]]);
                    assert_eq!(report.served_requests, 3);
                }
                RepairOutcome::Full(_) => panic!("{policy}: the subtree is gone"),
            }
        }
    }

    #[test]
    fn closest_repair_respects_the_first_replica_rule() {
        // root -> a -> {c0: 2}; a -> b -> {c1: 2}. Replicas at root and
        // b; root crashes. c0 must re-home below: opening at `a` would
        // be cheapest, but b already shields c1 — opening `a` is safe
        // for c1 (b is *below* a, so b keeps shielding); the repaired
        // placement must satisfy Closest exactly.
        let mut bld = TreeBuilder::new();
        let root = bld.add_root();
        let a = bld.add_node(root);
        let c0 = bld.add_client(a);
        let b = bld.add_node(a);
        let c1 = bld.add_client(b);
        let tree = bld.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![2, 2], vec![10, 4, 4]);
        let nodes: Vec<NodeId> = p.tree().node_ids().collect();
        let (root_id, a_id, b_id) = (nodes[0], nodes[1], nodes[2]);
        let mut placement = Placement::empty(2);
        placement.add_replica(root_id);
        placement.add_replica(b_id);
        placement.assign(c0, root_id, 2);
        placement.assign(c1, b_id, 2);
        assert!(placement.is_valid(&p, Policy::Closest));
        let (platform, outcome) = inject_and_repair(
            &p,
            &placement,
            Policy::Closest,
            &[FailureEvent::ServerCrash(root_id)],
        );
        assert!(outcome.is_full());
        assert!(outcome.verify(&platform, Policy::Closest));
        assert!(outcome.placement().has_replica(a_id));
        let _ = c1;
    }

    #[test]
    fn no_failures_is_a_no_op_repair() {
        let (p, n, _) = sample();
        let placement = serve_all_at(&p, n[0]);
        for policy in [Policy::Upwards, Policy::Multiple] {
            let (platform, outcome) = inject_and_repair(&p, &placement, policy, &[]);
            assert!(outcome.is_full(), "{policy}");
            assert!(outcome.verify(&platform, policy), "{policy}");
            assert_eq!(outcome.placement().cost(platform.problem()), 10);
        }
    }

    #[test]
    fn total_platform_loss_yields_the_empty_report() {
        let (p, n, _) = sample();
        let placement = serve_all_at(&p, n[0]);
        let events = [FailureEvent::SubtreeFailure(n[0])];
        for policy in Policy::ALL {
            let (platform, outcome) = inject_and_repair(&p, &placement, policy, &events);
            assert!(outcome.verify(&platform, policy), "{policy}");
            match outcome {
                RepairOutcome::Degraded(report) => {
                    assert_eq!(report.served_requests, 0);
                    assert_eq!(report.served_fraction(), 0.0);
                    assert_eq!(report.unserved.len(), 3);
                    assert_eq!(report.placement.num_replicas(), 0);
                }
                RepairOutcome::Full(_) => panic!("{policy}: nothing survives"),
            }
        }
    }
}
