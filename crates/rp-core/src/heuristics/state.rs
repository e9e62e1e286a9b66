//! Shared bookkeeping for the polynomial heuristics of Section 6.
//!
//! Every heuristic manipulates the same two quantities:
//!
//! * `remaining[i]` — the requests of client `i` not yet affected to a
//!   server (the paper's `r'_i`);
//! * `inreq[j]` — the number of *unserved* requests issued in
//!   `subtree(j)` (the paper's `inreq_j`), kept consistent by
//!   subtracting from every ancestor of a client whenever some of its
//!   requests are assigned.
//!
//! [`HeuristicState`] owns this bookkeeping together with the
//! [`Placement`] being built, and provides the `deleteRequests`
//! procedures shared by the Upwards and Multiple heuristics.
//!
//! # Scratch-buffer conventions
//!
//! The state also owns every scratch buffer the heuristics need (client
//! work lists, per-node capacities, CTDA's top-down FIFO, CTDLF's
//! depth-bucketed candidate nodes), so a heuristic run performs **no
//! steady-state heap allocation**: buffers are taken with
//! `std::mem::take`, refilled, and put back so their capacity is
//! reused by the next call. [`HeuristicState::reset`] rewinds the whole
//! state to the freshly-initialised configuration without releasing any
//! buffer, which lets *MixedBest* run all eight heuristics on a single
//! allocation set (see [`crate::heuristics::mixed_best`]).

use std::collections::VecDeque;

use rp_tree::{ClientId, NodeId};

use crate::heuristics::closest::CandidateBuckets;
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// Order in which the delete procedures consider the clients of a
/// subtree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeleteOrder {
    /// Non-increasing `r_i` (UTD, MTD, MG).
    LargestFirst,
    /// Non-decreasing `r_i` (MBU: "delete many small clients rather than
    /// fewer demanding ones").
    SmallestFirst,
}

/// The owned buffers of a [`HeuristicState`], detached from any
/// problem. Taking the buffers out ([`HeuristicState::into_buffers`])
/// and reattaching them to the next problem
/// ([`HeuristicState::with_buffers`]) lets a sweep pin **one**
/// allocation set per worker thread across trials over different trees:
/// each buffer keeps its capacity and only ever grows to the largest
/// problem seen.
#[derive(Default)]
pub struct StateBuffers {
    remaining: Vec<u64>,
    inreq: Vec<u64>,
    placement: Placement,
    scratch_clients: Vec<ClientId>,
    scratch_node_u64: Vec<u64>,
    scratch_fifo: VecDeque<NodeId>,
    scratch_candidates: CandidateBuckets,
}

impl StateBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        StateBuffers::default()
    }
}

/// Mutable working state shared by all heuristics.
pub struct HeuristicState<'a> {
    problem: &'a ProblemInstance,
    /// [`ProblemInstance::has_qos`], which scans every client, read once.
    has_qos: bool,
    remaining: Vec<u64>,
    inreq: Vec<u64>,
    placement: Placement,
    /// Scratch list of clients for the delete procedures and UBCF.
    pub(crate) scratch_clients: Vec<ClientId>,
    /// Scratch per-node `u64` working set (UBCF's remaining capacities).
    pub(crate) scratch_node_u64: Vec<u64>,
    /// Scratch FIFO for CTDA's top-down traversals.
    pub(crate) scratch_fifo: VecDeque<NodeId>,
    /// CTDLF's candidate nodes, bucketed by depth.
    pub(crate) scratch_candidates: CandidateBuckets,
}

impl<'a> HeuristicState<'a> {
    /// Initialises the state: nothing is served, `inreq[j]` equals the
    /// total requests of `subtree(j)`.
    pub fn new(problem: &'a ProblemInstance) -> Self {
        HeuristicState::with_buffers(problem, StateBuffers::default())
    }

    /// Initialises the state on recycled buffers: semantically identical
    /// to [`HeuristicState::new`] but reuses every allocation `buffers`
    /// brought along (possibly from a state over a *different* problem).
    pub fn with_buffers(problem: &'a ProblemInstance, buffers: StateBuffers) -> Self {
        let tree = problem.tree();
        let StateBuffers {
            remaining,
            inreq,
            mut placement,
            scratch_clients,
            scratch_node_u64,
            scratch_fifo,
            scratch_candidates,
        } = buffers;
        placement.reset_for(tree.num_clients());
        let mut state = HeuristicState {
            problem,
            has_qos: problem.has_qos(),
            remaining,
            inreq,
            placement,
            scratch_clients,
            scratch_node_u64,
            scratch_fifo,
            scratch_candidates,
        };
        state.reset();
        state
    }

    /// Detaches the state's buffers so they can be reattached to the
    /// next problem with [`HeuristicState::with_buffers`].
    pub fn into_buffers(self) -> StateBuffers {
        StateBuffers {
            remaining: self.remaining,
            inreq: self.inreq,
            placement: self.placement,
            scratch_clients: self.scratch_clients,
            scratch_node_u64: self.scratch_node_u64,
            scratch_fifo: self.scratch_fifo,
            scratch_candidates: self.scratch_candidates,
        }
    }

    /// Rewinds the state to the freshly-initialised configuration
    /// (nothing served, empty placement) **without releasing any
    /// buffer**, so repeated heuristic runs against the same problem
    /// reuse one allocation set.
    pub fn reset(&mut self) {
        let problem = self.problem;
        let tree = problem.tree();
        self.remaining.clear();
        self.remaining
            .extend(tree.client_ids().map(|c| problem.requests(c)));
        self.inreq.clear();
        self.inreq.resize(tree.num_nodes(), 0);
        for &node in tree.postorder_nodes() {
            let mut total: u64 = tree
                .child_clients(node)
                .iter()
                .map(|&c| problem.requests(c))
                .sum();
            total += tree
                .child_nodes(node)
                .iter()
                .map(|&child| self.inreq[child.index()])
                .sum::<u64>();
            self.inreq[node.index()] = total;
        }
        self.placement.clear();
    }

    /// `true` when `server` (an ancestor of `client`) lies within the
    /// client's QoS bound. Clients without a bound accept any ancestor.
    pub fn within_qos(&self, client: ClientId, server: NodeId) -> bool {
        match self.problem.qos(client) {
            None => true,
            Some(q) => {
                let tree = self.problem.tree();
                let distance = tree
                    .client_depth(client)
                    .saturating_sub(tree.node_depth(server));
                distance <= q
            }
        }
    }

    /// QoS headroom of `client` when served at `server`: how many more
    /// hops it could still climb. Unbounded clients get `i64::MAX`.
    fn qos_headroom(&self, client: ClientId, server: NodeId) -> i64 {
        match self.problem.qos(client) {
            None => i64::MAX,
            Some(q) => {
                let tree = self.problem.tree();
                let distance =
                    i64::from(tree.client_depth(client)) - i64::from(tree.node_depth(server));
                i64::from(q) - distance
            }
        }
    }

    /// The problem being solved.
    pub fn problem(&self) -> &'a ProblemInstance {
        self.problem
    }

    /// Unserved requests in `subtree(node)`.
    pub fn inreq(&self, node: NodeId) -> u64 {
        self.inreq[node.index()]
    }

    /// Unserved requests of a client.
    pub fn remaining(&self, client: ClientId) -> u64 {
        self.remaining[client.index()]
    }

    /// `true` once every request has been assigned to some server.
    pub fn all_served(&self) -> bool {
        self.inreq[self.problem.tree().root().index()] == 0
    }

    /// Adds a replica at `node` without assigning any request.
    pub fn add_replica(&mut self, node: NodeId) {
        self.placement.add_replica(node);
    }

    /// `true` when `node` already carries a replica.
    pub fn has_replica(&self, node: NodeId) -> bool {
        self.placement.has_replica(node)
    }

    /// Assigns `amount` requests of `client` to `server`, updating the
    /// remaining counts and the `inreq` of every ancestor of the client
    /// (a lazy, allocation-free walk up the parent pointers).
    pub fn assign(&mut self, client: ClientId, server: NodeId, amount: u64) {
        if amount == 0 {
            return;
        }
        debug_assert!(self.remaining[client.index()] >= amount);
        self.remaining[client.index()] -= amount;
        self.placement.assign(client, server, amount);
        for ancestor in self.problem.tree().ancestors_of_client(client) {
            self.inreq[ancestor.index()] -= amount;
        }
    }

    /// Fills `out` with the clients of `subtree(node)` that still have
    /// unserved requests, in subtree order (the paper's `clients(s)`
    /// restricted to pending clients). `out` is cleared first; its
    /// capacity is reused across calls.
    pub fn pending_clients_into(&self, node: NodeId, out: &mut Vec<ClientId>) {
        out.clear();
        out.extend(
            self.problem
                .tree()
                .subtree_clients(node)
                .iter()
                .copied()
                .filter(|&c| self.remaining[c.index()] > 0),
        );
    }

    /// Collecting variant of [`pending_clients_into`](Self::pending_clients_into).
    pub fn pending_clients(&self, node: NodeId) -> Vec<ClientId> {
        let mut out = Vec::new();
        self.pending_clients_into(node, &mut out);
        out
    }

    /// Fills `out` with the pending clients of `subtree(node)` that may
    /// be served *at* `node` without violating their QoS bound.
    pub fn eligible_pending_clients_into(&self, node: NodeId, out: &mut Vec<ClientId>) {
        out.clear();
        out.extend(
            self.problem
                .tree()
                .subtree_clients(node)
                .iter()
                .copied()
                .filter(|&c| self.remaining[c.index()] > 0 && self.within_qos(c, node)),
        );
    }

    /// Collecting variant of
    /// [`eligible_pending_clients_into`](Self::eligible_pending_clients_into).
    pub fn eligible_pending_clients(&self, node: NodeId) -> Vec<ClientId> {
        let mut out = Vec::new();
        self.eligible_pending_clients_into(node, &mut out);
        out
    }

    /// Pending requests of `subtree(node)` that may be served at `node`
    /// (the QoS-aware counterpart of [`inreq`](Self::inreq); equal to it,
    /// and O(1), when no client carries a QoS bound).
    pub fn eligible_inreq(&self, node: NodeId) -> u64 {
        if !self.has_qos {
            return self.inreq(node);
        }
        self.problem
            .tree()
            .subtree_clients(node)
            .iter()
            .filter(|&&c| self.remaining[c.index()] > 0 && self.within_qos(c, node))
            .map(|&c| self.remaining[c.index()])
            .sum()
    }

    /// The load a Closest replica at `node` would have to absorb: all
    /// pending requests of its subtree. Returns `None` when some pending
    /// client lies beyond its QoS bound from `node` — under Closest that
    /// client would be forced onto `node`, so the replica cannot be
    /// placed there (yet). O(1) when no client carries a QoS bound, a
    /// scan of the subtree's clients otherwise.
    pub fn closest_candidate_load(&self, node: NodeId) -> Option<u64> {
        if !self.has_qos {
            return Some(self.inreq(node));
        }
        let mut total = 0u64;
        for &client in self.problem.tree().subtree_clients(node) {
            if self.remaining[client.index()] == 0 {
                continue;
            }
            if !self.within_qos(client, node) {
                return None;
            }
            total += self.remaining[client.index()];
        }
        Some(total)
    }

    /// Places a replica at `node` and serves **all** pending requests of
    /// its subtree there — the Closest heuristics' action when
    /// `W_node >= inreq_node`. Panics (in debug) if the capacity or QoS
    /// precondition is violated.
    pub fn serve_whole_subtree(&mut self, node: NodeId) {
        debug_assert!(self.inreq(node) <= self.problem.capacity(node));
        self.add_replica(node);
        // The subtree client list borrows the problem's tree (lifetime
        // 'a), not `self`, so assigning while iterating is fine.
        let clients = self.problem.tree().subtree_clients(node);
        for &client in clients {
            let amount = self.remaining[client.index()];
            if amount == 0 {
                continue;
            }
            debug_assert!(self.within_qos(client, node));
            self.assign(client, node, amount);
        }
    }

    /// The paper's `deleteRequests` for **single-server** policies
    /// (Algorithm 6): assign whole clients of `subtree(server)` to
    /// `server`, in non-increasing request order, as long as they fit in
    /// `budget`. Clients whose QoS bound excludes `server` are skipped.
    /// Returns the number of requests actually assigned.
    pub fn delete_requests_single(&mut self, server: NodeId, budget: u64) -> u64 {
        let mut clients = std::mem::take(&mut self.scratch_clients);
        self.eligible_pending_clients_into(server, &mut clients);
        // Most QoS-constrained first, then largest first. In-place
        // unstable sort: no allocation. The preorder rank makes the key
        // total, so ties fall back to subtree-walk order — exactly what
        // a stable sort over the subtree client list would produce.
        let tree = self.problem.tree();
        clients.sort_unstable_by_key(|&c| {
            (
                self.qos_headroom(c, server),
                std::cmp::Reverse(self.remaining[c.index()]),
                tree.client_preorder_rank(c),
            )
        });
        let mut left = budget;
        for &client in &clients {
            if left == 0 {
                break;
            }
            let requests = self.remaining[client.index()];
            if requests <= left {
                self.assign(client, server, requests);
                left -= requests;
            }
        }
        self.scratch_clients = clients;
        budget - left
    }

    /// The paper's `deleteRequestsInMTD` / `deleteRequestsInMBU` for the
    /// **Multiple** policy (Algorithm 10): assign whole clients in the
    /// given order while they fit, then split one more client to consume
    /// the remaining budget exactly. Clients whose QoS bound excludes
    /// `server` are skipped; when QoS bounds are present the most
    /// constrained clients are served first. Returns the number of
    /// requests actually assigned.
    pub fn delete_requests_multiple(
        &mut self,
        server: NodeId,
        budget: u64,
        order: DeleteOrder,
    ) -> u64 {
        let mut clients = std::mem::take(&mut self.scratch_clients);
        self.eligible_pending_clients_into(server, &mut clients);
        match order {
            DeleteOrder::LargestFirst => clients.sort_unstable_by_key(|&c| {
                (
                    self.qos_headroom(c, server),
                    std::cmp::Reverse(self.remaining[c.index()]),
                )
            }),
            DeleteOrder::SmallestFirst => clients.sort_unstable_by_key(|&c| {
                (self.qos_headroom(c, server), self.remaining[c.index()])
            }),
        }
        let mut left = budget;
        for &client in &clients {
            if left == 0 {
                break;
            }
            let requests = self.remaining[client.index()];
            if requests <= left {
                self.assign(client, server, requests);
                left -= requests;
            } else {
                // Partial assignment: only possible under Multiple.
                self.assign(client, server, left);
                left = 0;
            }
        }
        self.scratch_clients = clients;
        budget - left
    }

    /// The placement built so far (read-only). Only meaningful as a
    /// solution when [`all_served`](Self::all_served) is `true`.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Storage cost of the placement built so far.
    pub fn current_cost(&self) -> u64 {
        self.placement.cost(self.problem)
    }

    /// Consumes the state, returning the placement when every request
    /// has been served and `None` otherwise (the heuristic failed to
    /// find a valid solution).
    pub fn into_solution(self) -> Option<Placement> {
        if self.all_served() {
            Some(self.placement)
        } else {
            None
        }
    }

    /// Consumes the state returning the placement unconditionally (used
    /// by tests to inspect partial solutions).
    pub fn into_placement_unchecked(self) -> Placement {
        self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use rp_tree::TreeBuilder;

    /// root -> n1 -> {c0: 4, c1: 2}; root -> {c2: 3}
    fn sample() -> (ProblemInstance, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let n1 = b.add_node(root);
        let c0 = b.add_client(n1);
        let c1 = b.add_client(n1);
        let c2 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![4, 2, 3], vec![10, 6]);
        (p, vec![root, n1], vec![c0, c1, c2])
    }

    #[test]
    fn initial_inreq_is_the_subtree_request_total() {
        let (p, n, _) = sample();
        let state = HeuristicState::new(&p);
        assert_eq!(state.inreq(n[0]), 9);
        assert_eq!(state.inreq(n[1]), 6);
        assert!(!state.all_served());
    }

    #[test]
    fn assign_updates_remaining_and_all_ancestors() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        state.add_replica(n[0]);
        state.assign(c[0], n[0], 3);
        assert_eq!(state.remaining(c[0]), 1);
        assert_eq!(state.inreq(n[1]), 3);
        assert_eq!(state.inreq(n[0]), 6);
    }

    #[test]
    fn reset_rewinds_to_the_initial_configuration() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        state.serve_whole_subtree(n[1]);
        state.assign(c[2], n[1], 0); // no-op
        assert!(state.has_replica(n[1]));
        state.reset();
        assert_eq!(state.inreq(n[0]), 9);
        assert_eq!(state.inreq(n[1]), 6);
        assert_eq!(state.remaining(c[0]), 4);
        assert!(!state.has_replica(n[1]));
        assert_eq!(state.placement().num_replicas(), 0);
        // The state is fully usable after a reset.
        state.serve_whole_subtree(n[0]);
        assert!(state.all_served());
    }

    #[test]
    fn serve_whole_subtree_clears_the_subtree() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        state.serve_whole_subtree(n[1]);
        assert_eq!(state.inreq(n[1]), 0);
        assert_eq!(state.inreq(n[0]), 3);
        assert_eq!(state.remaining(c[0]), 0);
        assert_eq!(state.remaining(c[1]), 0);
        assert_eq!(state.remaining(c[2]), 3);
        assert!(state.has_replica(n[1]));
        assert!(!state.all_served());
    }

    #[test]
    fn delete_single_assigns_whole_clients_largest_first() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        state.add_replica(n[1]);
        // Budget 5 among clients {4, 2}: takes the 4, skips the 2 (does
        // not fit the remaining budget of 1).
        let assigned = state.delete_requests_single(n[1], 5);
        assert_eq!(assigned, 4);
        assert_eq!(state.remaining(c[0]), 0);
        assert_eq!(state.remaining(c[1]), 2);
    }

    #[test]
    fn delete_multiple_splits_the_last_client() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        state.add_replica(n[1]);
        let assigned = state.delete_requests_multiple(n[1], 5, DeleteOrder::LargestFirst);
        assert_eq!(assigned, 5);
        assert_eq!(state.remaining(c[0]), 0);
        assert_eq!(state.remaining(c[1]), 1);
    }

    #[test]
    fn delete_multiple_smallest_first_prefers_small_clients() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        state.add_replica(n[1]);
        let assigned = state.delete_requests_multiple(n[1], 3, DeleteOrder::SmallestFirst);
        assert_eq!(assigned, 3);
        // The 2-request client is taken first, then 1 request of the big one.
        assert_eq!(state.remaining(c[1]), 0);
        assert_eq!(state.remaining(c[0]), 3);
    }

    #[test]
    fn into_solution_requires_everything_served() {
        let (p, n, _) = sample();
        let mut state = HeuristicState::new(&p);
        state.serve_whole_subtree(n[1]);
        assert!(HeuristicState::into_solution(state).is_none());

        let mut state = HeuristicState::new(&p);
        state.serve_whole_subtree(n[0]);
        let placement = state.into_solution().unwrap();
        assert!(placement.is_valid(&p, Policy::Multiple));
        assert_eq!(placement.num_replicas(), 1);
    }

    #[test]
    fn delete_ties_resolve_in_subtree_order() {
        // Four identical clients (same requests, no QoS): the sort keys
        // tie, and the tie-break must fall back to subtree-walk order —
        // the behaviour a stable sort over the subtree list gives.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let a = b.add_node(root);
        let clients: Vec<ClientId> = (0..4)
            .map(|i| {
                if i % 2 == 0 {
                    b.add_client(a)
                } else {
                    b.add_client(root)
                }
            })
            .collect();
        let p = ProblemInstance::replica_counting(b.build().unwrap(), vec![2; 4], 10);
        let mut state = HeuristicState::new(&p);
        state.add_replica(root);
        // Budget for exactly two whole clients: subtree order from the
        // root lists the root's own clients first (the root is preorder
        // position 0), so c1 and c3 are served before `a`'s c0 and c2.
        let assigned = state.delete_requests_single(root, 4);
        assert_eq!(assigned, 4);
        assert_eq!(state.remaining(clients[1]), 0);
        assert_eq!(state.remaining(clients[3]), 0);
        assert_eq!(state.remaining(clients[0]), 2);
        assert_eq!(state.remaining(clients[2]), 2);

        let mut state = HeuristicState::new(&p);
        state.add_replica(root);
        let assigned = state.delete_requests_multiple(root, 5, DeleteOrder::LargestFirst);
        assert_eq!(assigned, 5);
        // Whole c1 and c3, then c0 (next in subtree order) split.
        assert_eq!(state.remaining(clients[1]), 0);
        assert_eq!(state.remaining(clients[3]), 0);
        assert_eq!(state.remaining(clients[0]), 1);
        assert_eq!(state.remaining(clients[2]), 2);
    }

    #[test]
    fn pending_clients_shrinks_as_requests_are_served() {
        let (p, n, c) = sample();
        let mut state = HeuristicState::new(&p);
        assert_eq!(state.pending_clients(n[0]).len(), 3);
        state.add_replica(n[0]);
        state.assign(c[2], n[0], 3);
        let mut pending = Vec::new();
        state.pending_clients_into(n[0], &mut pending);
        assert_eq!(pending.len(), 2);
        assert!(!pending.contains(&c[2]));
        // The buffer variant clears before refilling.
        state.pending_clients_into(n[1], &mut pending);
        assert_eq!(pending.len(), 2);
    }
}
