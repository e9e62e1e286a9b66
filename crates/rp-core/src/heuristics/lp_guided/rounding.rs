//! The LP-guided rounding: fractional optimum → feasible integral
//! placement under the **Multiple** policy, for one object or many.
//!
//! The pipeline works on a list of objects that share one tree, one set
//! of node capacities and one set of link bandwidths, all metered by one
//! [`FeasAccounting`]. A single-object instance enters as one object
//! that carries its clients' QoS bounds ([`lp_guided`]); a multi-object
//! instance enters as its K objects, none with a QoS bound
//! ([`super::multi`]). Every phase below is written once and runs over
//! the objects: with K = 1 it is the single-object rounding, and with
//! no QoS bound every client may be served anywhere on its path.
//!
//! The driver runs a two-strategy portfolio and keeps the cheapest
//! feasible result (both attempts are pure integer bookkeeping — a
//! fraction of the LP solve that fed them):
//!
//! * **CommitSaturate** reads the LP as a replica *selector*: the
//!   (object, node) pairs with mass ≥ ½ are opened, nodes in postorder
//!   and the higher-mass object first at a shared node, and each
//!   absorbs its object's demand up to the LP's own load there (its
//!   clients first, then the rest of its subtree). Bottom-up filling
//!   keeps the upper tree's capacity and bandwidth free, and the budget
//!   cap stops any node from stealing what the relaxation allotted
//!   elsewhere (the budgets of different objects at one node are
//!   mutually feasible by the shared capacity row).
//! * **ThinGuided** reads the LP as an *assignment*: every
//!   positive-mass (object, node) pair gets exactly the ceilinged `y`
//!   splits, in one joint order by decreasing mass (then cost, object,
//!   node), so the shared capacities go where the LP wants them most —
//!   the faithful-but-thin reading that almost never strands a client.
//!
//! Both modes then share the same clean-up pipeline, every step driven
//! by the exact accounting of [`super::accounting`]:
//!
//! 1. **Overflow re-homing** — leftovers walk up their client's
//!    eligible path onto open replicas of their object, closest first.
//! 2. **Escalation** — still-unserved requests open the eligible
//!    ancestor with the best cost-per-absorbed-pending-request and fill
//!    it; a dead end triggers the depth-1 augmenting `rescue` (relocate
//!    any object's load off the stranded path) before the mode gives up.
//! 3. **Push-down** — load drains towards the leaves among the open
//!    replicas, freeing the top of the tree (which is on every path).
//! 4. **Pruning** — replicas whose whole load re-homes onto the rest
//!    for free are dropped, most expensive (then lightest) first.
//! 5. **Consolidation** — the move pruning cannot make: open a fresh
//!    ancestor that fully absorbs replicas of its subtree at a net
//!    saving, then prune again. This is what recovers e.g. the
//!    "serve everything at the root" optimum from a thinly spread LP.
//!
//! Every round records the `LpGuidedRound` span and the `core.lpg.*`
//! counters: which mode won (or `core.lpg.miss` when neither serves
//! every request) and how many moves of each kind the attempts made.

use std::cmp::{Ordering, Reverse};

use rp_tree::{ClientId, NodeId, TreeNetwork};

use rp_lp::LpWorkspace;

use crate::heuristics::lp_guided::accounting::FeasAccounting;
use crate::heuristics::lp_guided::guide::{guided_amount, mass_guide, MassGuide, COMMIT_THRESHOLD};
use crate::ilp::{lower_bound_fractional_reusing, FractionalLp, IlpOptions};
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// LP-guided rounding with default options.
pub fn lp_guided(problem: &ProblemInstance) -> Option<Placement> {
    lp_guided_reusing(problem, &IlpOptions::default(), &mut LpWorkspace::new())
}

/// [`lp_guided`] reusing the LP buffers of `workspace` — the path the
/// scenario sweep drives, one workspace per worker. Returns `None` when
/// the relaxation is infeasible (no policy has a solution), did not
/// reach optimality, or the rounding cannot serve every request.
pub fn lp_guided_reusing(
    problem: &ProblemInstance,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<Placement> {
    let fractional = lower_bound_fractional_reusing(problem, options, workspace)?;
    let accounting = FeasAccounting::for_problem(problem);
    let placement = round(std::slice::from_ref(problem), &accounting, &fractional)?.pop()?;
    debug_assert!(
        placement.is_valid(problem, crate::policy::Policy::Multiple),
        "rounded placement failed validation: {:?}",
        placement.validate(problem, crate::policy::Policy::Multiple)
    );
    Some(placement)
}

/// How aggressively phase 1 follows the fractional mass.
enum RoundingMode {
    /// Open only the LP's *committed* pairs (mass ≥ ½) and saturate
    /// each with its subtree's pending demand. Consolidates hard —
    /// usually the cheaper placement — but the eager saturation can
    /// strand a remote client on tightly link-bounded instances.
    CommitSaturate,
    /// Open every positive-mass pair with exactly the ceilinged guided
    /// splits. Tracks the LP's (feasible) flow pattern closely, so it
    /// almost never strands anyone, at the price of thinner replicas.
    ThinGuided,
}

/// Rounds the fractional optimum of the objects' shared relaxation.
///
/// `objects[k]` carries object `k`'s requests, storage costs and QoS
/// bounds (its capacities and bandwidths are not read); `accounting`
/// holds the full residuals of the shared capacities and links, and
/// `fractional` is object-major in the same order. Returns one
/// placement per object, or `None` when neither mode serves every
/// request of every object.
pub(super) fn round(
    objects: &[ProblemInstance],
    accounting: &FeasAccounting,
    fractional: &FractionalLp,
) -> Option<Vec<Placement>> {
    let _span = rp_obs::span(rp_obs::SpanKind::LpGuidedRound);
    rp_obs::incr(rp_obs::Counter::CoreLpgRounds);
    // The guides are mode-independent: build them once for both modes.
    let guides: Vec<MassGuide> = objects
        .iter()
        .enumerate()
        .map(|(k, object)| {
            mass_guide(
                &fractional.replica_mass[k],
                &fractional.assignment[k],
                |n| object.storage_cost(n),
            )
        })
        .collect();
    let attempt = |mode| Rounding::new(objects, accounting).run(mode, fractional, &guides);
    let a = attempt(RoundingMode::CommitSaturate);
    let b = attempt(RoundingMode::ThinGuided);
    let cost = |placements: &[Placement]| -> u64 {
        objects.iter().zip(placements).map(|(o, p)| p.cost(o)).sum()
    };
    let (winner, counter) = match (a, b) {
        (Some(a), Some(b)) if cost(&a) > cost(&b) => {
            (Some(b), rp_obs::Counter::CoreLpgWinThinGuided)
        }
        (Some(a), _) => (Some(a), rp_obs::Counter::CoreLpgWinCommitSaturate),
        (None, Some(b)) => (Some(b), rp_obs::Counter::CoreLpgWinThinGuided),
        (None, None) => (None, rp_obs::Counter::CoreLpgMiss),
    };
    rp_obs::incr(counter);
    winner
}

/// One rounding attempt: every object's placement and unserved demand,
/// and the shared residuals, updated together by every move.
struct Rounding<'a> {
    objects: &'a [ProblemInstance],
    accounting: FeasAccounting,
    placements: Vec<Placement>,
    /// `remaining[k][i]`: requests of client `i` for object `k` that no
    /// replica serves yet.
    remaining: Vec<Vec<u64>>,
}

impl<'a> Rounding<'a> {
    fn new(objects: &'a [ProblemInstance], accounting: &FeasAccounting) -> Self {
        let tree = objects[0].tree();
        Rounding {
            objects,
            accounting: accounting.clone(),
            placements: vec![Placement::empty(tree.num_clients()); objects.len()],
            remaining: objects
                .iter()
                .map(|o| tree.client_ids().map(|c| o.requests(c)).collect())
                .collect(),
        }
    }

    fn tree(&self) -> &'a TreeNetwork {
        self.objects[0].tree()
    }

    /// Phase 1 in `mode`, then the shared clean-up pipeline.
    fn run(
        mut self,
        mode: RoundingMode,
        fractional: &FractionalLp,
        guides: &[MassGuide],
    ) -> Option<Vec<Placement>> {
        match mode {
            RoundingMode::CommitSaturate => self.commit_saturate(fractional, guides),
            RoundingMode::ThinGuided => self.thin_guided(fractional, guides),
        }
        if !self.rehome_and_escalate() {
            return None;
        }
        // Draining load off the high replicas (towards the leaves)
        // concentrates the free capacity at the top of the tree — and
        // the top is on *every* client's path, so the pruning that
        // follows finds room to re-home far more often. Moving a
        // request down only removes links from its route, so the
        // push-down can never break bandwidth feasibility.
        self.push_down();
        self.prune();
        self.consolidate();
        self.prune();
        Some(self.placements)
    }

    /// Charges `amount` of `client`'s object-`k` requests to `server`.
    fn assign(&mut self, k: usize, client: ClientId, server: NodeId, amount: u64) {
        self.accounting.assign(self.tree(), client, server, amount);
        self.placements[k].assign(client, server, amount);
    }

    /// Reverts [`assign`](Self::assign).
    fn unassign(&mut self, k: usize, client: ClientId, server: NodeId, amount: u64) {
        self.accounting
            .unassign(self.tree(), client, server, amount);
        self.placements[k].unassign(client, server, amount);
    }

    /// Serves `amount` of `client`'s unserved object-`k` requests at
    /// `server`, opening a replica there if it has none.
    fn serve(&mut self, k: usize, client: ClientId, server: NodeId, amount: u64) {
        self.placements[k].add_replica(server);
        self.assign(k, client, server, amount);
        self.remaining[k][client.index()] -= amount;
    }

    /// How many more of `client`'s requests `server` can take now.
    fn headroom(&self, client: ClientId, server: NodeId) -> u64 {
        self.accounting.max_assignable(self.tree(), client, server)
    }

    /// Whether `server` may take more of `client`'s object-`k` demand:
    /// some is unserved and the server is within the client's QoS bound.
    fn pending_at(&self, k: usize, client: ClientId, server: NodeId) -> bool {
        self.remaining[k][client.index()] > 0 && within_qos(&self.objects[k], client, server)
    }

    /// The clients below `server` with object-`k` demand it may take,
    /// largest unserved demand first.
    fn pending_below(&self, k: usize, server: NodeId) -> Vec<ClientId> {
        let remaining = &self.remaining[k];
        let mut clients: Vec<ClientId> = self
            .tree()
            .subtree_clients(server)
            .iter()
            .copied()
            .filter(|&c| self.pending_at(k, c, server))
            .collect();
        clients.sort_by_key(|&c| (Reverse(remaining[c.index()]), c.index()));
        clients
    }

    /// Object `k`'s load served at `node`, client by client.
    fn served_at(&self, k: usize, node: NodeId) -> Vec<(ClientId, u64)> {
        self.tree()
            .client_ids()
            .filter_map(|client| {
                self.placements[k]
                    .assignments(client)
                    .iter()
                    .find(|a| a.server == node)
                    .map(|a| (client, a.amount))
            })
            .collect()
    }

    /// Phase 1, CommitSaturate: the LP *selects* the replica sets and a
    /// bottom-up MG-style fill assigns the requests. Serving as low as
    /// possible keeps both the capacity and the bandwidth of the upper
    /// tree available (a request served at depth consumes no link above
    /// it), so the aggressive consolidation stays safe.
    fn commit_saturate(&mut self, fractional: &FractionalLp, guides: &[MassGuide]) {
        let mass = &fractional.replica_mass;
        for &server in self.tree().postorder_nodes() {
            let j = server.index();
            let mut committed: Vec<usize> = (0..self.objects.len())
                .filter(|&k| mass[k][j] >= COMMIT_THRESHOLD)
                .collect();
            committed.sort_by(|&a, &b| {
                mass[b][j]
                    .partial_cmp(&mass[a][j])
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            });
            for k in committed {
                // The LP's total load of this object here, rounded up:
                // filling past it would steal capacity (or bandwidth)
                // the relaxation allotted to requests elsewhere.
                let lp_load: f64 = guides[k].per_server[j].iter().map(|&(_, y)| y).sum();
                let mut budget = guided_amount(lp_load);
                // The LP's own clients first (it routed their flow here;
                // their alternatives may have no budget elsewhere), then
                // top off with other subtree demand, largest first.
                for &(client, y) in &guides[k].per_server[j] {
                    if budget == 0 {
                        break;
                    }
                    let amount = self.remaining[k][client.index()]
                        .min(guided_amount(y))
                        .min(budget)
                        .min(self.headroom(client, server));
                    if amount > 0 {
                        self.serve(k, client, server, amount);
                        budget -= amount;
                    }
                }
                for client in self.pending_below(k, server) {
                    if budget == 0 {
                        break;
                    }
                    let amount = self.remaining[k][client.index()]
                        .min(budget)
                        .min(self.headroom(client, server));
                    if amount > 0 {
                        self.serve(k, client, server, amount);
                        budget -= amount;
                    }
                }
            }
        }
    }

    /// Phase 1, ThinGuided: the LP *assigns* — every positive-mass
    /// (object, node) pair gets exactly the ceilinged `y` splits,
    /// tracking the relaxation's (feasible) flow pattern as closely as
    /// integers allow.
    fn thin_guided(&mut self, fractional: &FractionalLp, guides: &[MassGuide]) {
        let mass = |&(k, server): &(usize, NodeId)| fractional.replica_mass[k][server.index()];
        let cost = |&(k, server): &(usize, NodeId)| self.objects[k].storage_cost(server);
        let mut joint: Vec<(usize, NodeId)> = guides
            .iter()
            .enumerate()
            .flat_map(|(k, guide)| guide.order.iter().map(move |&server| (k, server)))
            .collect();
        joint.sort_by(|a, b| {
            mass(b)
                .partial_cmp(&mass(a))
                .unwrap_or(Ordering::Equal)
                .then_with(|| cost(a).cmp(&cost(b)))
                .then_with(|| (a.0, a.1.index()).cmp(&(b.0, b.1.index())))
        });
        for (k, server) in joint {
            for &(client, y) in &guides[k].per_server[server.index()] {
                let left = self.remaining[k][client.index()];
                if left == 0 {
                    continue;
                }
                let amount = left
                    .min(guided_amount(y))
                    .min(self.headroom(client, server));
                if amount > 0 {
                    self.serve(k, client, server, amount);
                }
            }
        }
    }

    /// Phases 2 and 3: re-home the overflow onto open replicas, largest
    /// unserved demands first, and escalate what they cannot absorb.
    /// Returns `false` when a client stays stranded.
    fn rehome_and_escalate(&mut self) -> bool {
        let objects = self.objects;
        let tree = self.tree();
        let mut pending: Vec<(usize, ClientId)> = (0..objects.len())
            .flat_map(|k| tree.client_ids().map(move |c| (k, c)))
            .filter(|&(k, c)| self.remaining[k][c.index()] > 0)
            .collect();
        pending.sort_by_key(|&(k, c)| Reverse(self.remaining[k][c.index()]));
        for (k, client) in pending {
            let object = &objects[k];
            // Open replicas on the path, closest first.
            for server in object.eligible_servers(client) {
                if self.remaining[k][client.index()] == 0 {
                    break;
                }
                if !self.placements[k].has_replica(server) {
                    continue;
                }
                let amount = self.remaining[k][client.index()].min(self.headroom(client, server));
                if amount > 0 {
                    rp_obs::incr(rp_obs::Counter::CoreLpgMovesRehome);
                    self.serve(k, client, server, amount);
                }
            }
            // Escalation: open the eligible ancestor with the best
            // cost-per-absorbed-request (capacity-capped pending demand
            // of its subtree), serve this client from it first and then
            // fill it with the rest of its subtree's pending demand — one
            // paid replica should soak up as much stranded demand as it
            // can, not just the client that triggered it.
            while self.remaining[k][client.index()] > 0 {
                let mut best: Option<(NodeId, u64, u64)> = None; // (node, headroom, absorbable)
                for server in object.eligible_servers(client) {
                    if self.placements[k].has_replica(server) {
                        continue;
                    }
                    let headroom = self.headroom(client, server);
                    if headroom == 0 {
                        continue;
                    }
                    let pending: u64 = tree
                        .subtree_clients(server)
                        .iter()
                        .filter(|&&c| self.pending_at(k, c, server))
                        .map(|&c| self.remaining[k][c.index()])
                        .sum();
                    let absorbable =
                        pending.min(self.accounting.node_residual(server).max(0) as u64);
                    let cost = object.storage_cost(server);
                    let better = match best {
                        None => true,
                        Some((incumbent, _, incumbent_absorbable)) => {
                            let incumbent_cost = object.storage_cost(incumbent);
                            let challenger = cost as u128 * incumbent_absorbable.max(1) as u128;
                            let reigning = incumbent_cost as u128 * absorbable.max(1) as u128;
                            challenger < reigning
                                || (challenger == reigning
                                    && (cost, server.index()) < (incumbent_cost, incumbent.index()))
                        }
                    };
                    if better {
                        best = Some((server, headroom, absorbable));
                    }
                }
                let Some((server, headroom, _)) = best else {
                    // Dead end: every path node is open-and-full or
                    // unreachable. Ceiling overshoot elsewhere may have
                    // eaten the path's slack — try freeing it by
                    // relocating other load off this path first.
                    if self.rescue(k, client) {
                        continue;
                    }
                    return false;
                };
                rp_obs::incr(rp_obs::Counter::CoreLpgMovesEscalateOpen);
                let amount = self.remaining[k][client.index()].min(headroom);
                self.serve(k, client, server, amount);
                for c in self.pending_below(k, server) {
                    let take = self.remaining[k][c.index()].min(self.headroom(c, server));
                    if take > 0 {
                        self.serve(k, c, server, take);
                    }
                }
            }
        }
        true
    }

    /// Depth-1 augmenting rescue for a stranded (object, client): walk
    /// the client's eligible path and relocate *any* object's load
    /// served there onto open replicas elsewhere on the carrying
    /// clients' own paths (keeping them fully served), then hand the
    /// freed shared capacity to the stranded client — opening a replica
    /// of its object at the freed node when it has none. Returns `true`
    /// once the client is fully served. Every move goes through the
    /// accounting, so feasibility is preserved throughout.
    fn rescue(&mut self, k: usize, client: ClientId) -> bool {
        let objects = self.objects;
        let tree = self.tree();
        while self.remaining[k][client.index()] > 0 {
            let mut progressed = false;
            for server in objects[k].eligible_servers(client) {
                if self.remaining[k][client.index()] == 0 {
                    break;
                }
                let mut others: Vec<(usize, ClientId, u64)> = Vec::new();
                for (k2, placement) in self.placements.iter().enumerate() {
                    for &c in tree.subtree_clients(server) {
                        if k2 == k && c == client {
                            continue;
                        }
                        if let Some(a) =
                            placement.assignments(c).iter().find(|a| a.server == server)
                        {
                            others.push((k2, c, a.amount));
                        }
                    }
                }
                for (k2, other, amount) in others {
                    if self.remaining[k][client.index()] == 0 {
                        break;
                    }
                    let mut left = amount;
                    for target in objects[k2].eligible_servers(other) {
                        if left == 0 {
                            break;
                        }
                        if target == server || !self.placements[k2].has_replica(target) {
                            continue;
                        }
                        let take = left.min(self.headroom(other, target));
                        if take == 0 {
                            continue;
                        }
                        rp_obs::incr(rp_obs::Counter::CoreLpgMovesRescue);
                        self.unassign(k2, other, server, take);
                        self.assign(k2, other, target, take);
                        left -= take;
                        let give =
                            self.remaining[k][client.index()].min(self.headroom(client, server));
                        if give > 0 {
                            self.serve(k, client, server, give);
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

    /// Moves every assignment as low as it can go among its object's
    /// **open** replicas on the client's eligible path (closest first),
    /// within the residual capacities. No replica is opened or closed;
    /// the pass only re-packs load downwards so the high nodes regain
    /// headroom.
    fn push_down(&mut self) {
        let objects = self.objects;
        for (k, object) in objects.iter().enumerate() {
            for client in self.tree().client_ids() {
                let assignments: Vec<(NodeId, u64)> = self.placements[k]
                    .assignments(client)
                    .iter()
                    .map(|a| (a.server, a.amount))
                    .collect();
                for (server, amount) in assignments {
                    let mut left = amount;
                    for target in object.eligible_servers(client) {
                        if target == server || left == 0 {
                            break;
                        }
                        if !self.placements[k].has_replica(target) {
                            continue;
                        }
                        // The path to `target` is a strict prefix of the
                        // path to `server`, so the moved flow itself
                        // charges the shared prefix: measure the target's
                        // headroom with the old charge lifted, then put
                        // back whatever stays.
                        self.unassign(k, client, server, left);
                        let take = left.min(self.headroom(client, target));
                        if take > 0 {
                            rp_obs::incr(rp_obs::Counter::CoreLpgMovesPushDown);
                            self.assign(k, client, target, take);
                        }
                        let stays = left - take;
                        if stays > 0 {
                            self.assign(k, client, server, stays);
                        }
                        left = stays;
                    }
                }
            }
        }
    }

    /// Drops every (object, replica) pair whose entire load re-homes
    /// onto the object's remaining replicas within the residual
    /// capacities and bandwidths. A replica serving nothing is always
    /// dropped.
    fn prune(&mut self) {
        let objects = self.objects;
        let tree = self.tree();
        let mut candidates: Vec<(usize, NodeId, u64)> = Vec::new();
        for (k, placement) in self.placements.iter().enumerate() {
            let mut loads = rp_tree::NodeMap::filled(tree.num_nodes(), 0u64);
            placement.accumulate_server_loads(&mut loads);
            candidates.extend(
                placement
                    .replicas()
                    .iter()
                    .map(|&node| (k, node, loads[node])),
            );
        }
        // Most expensive first, lightest load within a price: the cheap
        // drops come first and the hard (heavily loaded) ones are
        // attempted only after the easy wins freed nothing they needed.
        candidates.sort_by_key(|&(k, node, load)| {
            (
                Reverse(objects[k].storage_cost(node)),
                load,
                k,
                node.index(),
            )
        });
        for (k, node, _) in candidates {
            // Tentatively evict everything from the candidate.
            let served = self.served_at(k, node);
            for &(client, amount) in &served {
                self.unassign(k, client, node, amount);
            }
            let mut moved: Vec<(ClientId, NodeId, u64)> = Vec::new();
            let mut stuck = false;
            for &(client, amount) in &served {
                let mut left = amount;
                for server in objects[k].eligible_servers(client) {
                    if left == 0 {
                        break;
                    }
                    if server == node || !self.placements[k].has_replica(server) {
                        continue;
                    }
                    let take = left.min(self.headroom(client, server));
                    if take > 0 {
                        self.assign(k, client, server, take);
                        moved.push((client, server, take));
                        left -= take;
                    }
                }
                if left > 0 {
                    stuck = true;
                    break;
                }
            }
            if stuck {
                // Roll back: undo the moves, restore the evictions.
                for &(client, server, take) in &moved {
                    self.unassign(k, client, server, take);
                }
                for &(client, amount) in &served {
                    self.assign(k, client, node, amount);
                }
            } else {
                rp_obs::incr(rp_obs::Counter::CoreLpgMovesPruneDrop);
                self.placements[k].remove_replica(node);
            }
        }
    }

    /// The replace move the pruning pass cannot make: per object, open a
    /// **fresh** ancestor and migrate whole open replicas of its subtree
    /// onto it, whenever the dropped replicas cost more than the new
    /// one. This is what consolidates placements whose LP guidance was
    /// spread thin over many cheap nodes with no open ancestor to prune
    /// into (the replica-counting families are the extreme case: all
    /// costs equal, so absorbing any two replicas into one pays).
    fn consolidate(&mut self) {
        let objects = self.objects;
        let tree = self.tree();
        for (k, object) in objects.iter().enumerate() {
            for &candidate in tree.postorder_nodes() {
                if self.placements[k].has_replica(candidate) {
                    continue;
                }
                // Open replicas strictly inside the candidate's subtree,
                // small loads first (the easiest to absorb fully). The
                // load table is only built once a candidate actually has
                // something to absorb.
                let mut inside: Vec<NodeId> = self.placements[k]
                    .replicas()
                    .iter()
                    .copied()
                    .filter(|&r| r != candidate && tree.node_is_ancestor_or_self(r, candidate))
                    .collect();
                if inside.is_empty() {
                    continue;
                }
                let mut loads = rp_tree::NodeMap::filled(tree.num_nodes(), 0u64);
                self.placements[k].accumulate_server_loads(&mut loads);
                inside.sort_by_key(|&r| (loads[r], r.index()));
                let mut absorbed: Vec<NodeId> = Vec::new();
                let mut moved: Vec<(ClientId, NodeId, u64)> = Vec::new();
                let mut saved: u64 = 0;
                for r in inside {
                    // Try to move replica r's entire load onto the
                    // candidate.
                    let mut r_moves: Vec<(ClientId, u64)> = Vec::new();
                    let mut ok = true;
                    for (client, amount) in self.served_at(k, r) {
                        if !within_qos(object, client, candidate) {
                            ok = false;
                            break;
                        }
                        // Unassign first: the old route shares its prefix
                        // with the new one, so headroom must be measured
                        // without the old charge in place.
                        self.unassign(k, client, r, amount);
                        if self.headroom(client, candidate) < amount {
                            self.assign(k, client, r, amount);
                            ok = false;
                            break;
                        }
                        self.assign(k, client, candidate, amount);
                        r_moves.push((client, amount));
                    }
                    if ok {
                        self.placements[k].remove_replica(r);
                        absorbed.push(r);
                        saved += object.storage_cost(r);
                        moved.extend(r_moves.into_iter().map(|(c, amount)| (c, r, amount)));
                    } else {
                        for (client, amount) in r_moves {
                            self.unassign(k, client, candidate, amount);
                            self.assign(k, client, r, amount);
                        }
                    }
                }
                if absorbed.is_empty() {
                    continue;
                }
                if saved > object.storage_cost(candidate) {
                    rp_obs::add(
                        rp_obs::Counter::CoreLpgMovesConsolidate,
                        absorbed.len() as u64,
                    );
                    self.placements[k].add_replica(candidate);
                } else {
                    // Not worth it: restore every absorbed replica.
                    for (client, r, amount) in moved {
                        self.unassign(k, client, candidate, amount);
                        self.assign(k, client, r, amount);
                    }
                    for r in absorbed {
                        self.placements[k].add_replica(r);
                    }
                }
            }
        }
    }
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
