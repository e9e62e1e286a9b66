//! Folding failure events into the surviving platform.

use std::sync::Arc;

use rp_tree::{ClientId, LinkId, NodeId, TreeNetwork};

use crate::failures::event::{FailureEvent, RecoveryScope};
use crate::problem::ProblemInstance;

/// The failures outstanding on a platform: capacity loss per node,
/// crashed servers, and dead client and node uplinks. Events fold in
/// one at a time ([`FailureState::fold`]), left to right with the worst
/// effect winning, so a batch trace ([`apply_failures`]) and a live
/// delta stream (the online engine) share one fold.
#[derive(Clone, Debug)]
pub struct FailureState {
    /// Outstanding `CapacityLoss` per node (`None` = no loss); cleared
    /// by the node's recovery.
    capacity_loss: Vec<Option<u64>>,
    dead_servers: Vec<bool>,
    dead_client_links: Vec<bool>,
    dead_node_links: Vec<bool>,
}

impl FailureState {
    /// No failures on `tree`.
    pub fn healthy(tree: &TreeNetwork) -> Self {
        FailureState {
            capacity_loss: vec![None; tree.num_nodes()],
            dead_servers: vec![false; tree.num_nodes()],
            dead_client_links: vec![false; tree.num_clients()],
            dead_node_links: vec![false; tree.num_nodes()],
        }
    }

    /// Folds one event into the outstanding failures.
    pub fn fold(&mut self, tree: &TreeNetwork, event: FailureEvent) {
        match event {
            FailureEvent::ServerCrash(node) => self.dead_servers[node.index()] = true,
            FailureEvent::UplinkDown(link) => self.set_link_dead(tree, link, true),
            FailureEvent::CapacityLoss { node, remaining } => {
                let slot = &mut self.capacity_loss[node.index()];
                *slot = Some(slot.unwrap_or(u64::MAX).min(remaining));
            }
            FailureEvent::SubtreeFailure(node) => {
                for &member in tree.subtree_nodes(node) {
                    self.dead_servers[member.index()] = true;
                    self.set_link_dead(tree, LinkId::Node(member), true);
                }
            }
            FailureEvent::Recovered(RecoveryScope::Server(node)) => self.heal_server(node),
            FailureEvent::Recovered(RecoveryScope::Link(link)) => {
                self.set_link_dead(tree, link, false);
            }
            FailureEvent::Recovered(RecoveryScope::Subtree(node)) => {
                for &member in tree.subtree_nodes(node) {
                    self.heal_server(member);
                    self.dead_node_links[member.index()] = false;
                }
                for &client in tree.subtree_clients(node) {
                    self.dead_client_links[client.index()] = false;
                }
            }
            FailureEvent::Recovered(RecoveryScope::All) => {
                self.capacity_loss.fill(None);
                self.dead_servers.fill(false);
                self.dead_client_links.fill(false);
                self.dead_node_links.fill(false);
            }
        }
    }

    fn heal_server(&mut self, node: NodeId) {
        self.capacity_loss[node.index()] = None;
        self.dead_servers[node.index()] = false;
    }

    /// The root has no uplink: marking it dead is a no-op.
    fn set_link_dead(&mut self, tree: &TreeNetwork, link: LinkId, dead: bool) {
        match link {
            LinkId::Client(client) => self.dead_client_links[client.index()] = dead,
            LinkId::Node(node) if !tree.is_root(node) => self.dead_node_links[node.index()] = dead,
            LinkId::Node(_) => {}
        }
    }

    /// Whether the server at `node` crashed.
    pub fn is_server_dead(&self, node: NodeId) -> bool {
        self.dead_servers[node.index()]
    }

    /// Whether `link` is down.
    pub fn is_link_dead(&self, link: LinkId) -> bool {
        match link {
            LinkId::Client(c) => self.dead_client_links[c.index()],
            LinkId::Node(n) => self.dead_node_links[n.index()],
        }
    }

    /// The capacity `node` keeps out of `healthy`: 0 while it is
    /// crashed, else the smaller of `healthy` and its outstanding loss.
    pub fn capacity(&self, node: NodeId, healthy: u64) -> u64 {
        if self.dead_servers[node.index()] {
            0
        } else {
            healthy.min(self.capacity_loss[node.index()].unwrap_or(u64::MAX))
        }
    }

    /// The surviving platform: `base` (the source of storage costs, QoS
    /// bounds, bandwidths and the objective) with the current
    /// `requests` per client and the failures applied to the
    /// `healthy_capacities` per node.
    pub fn platform(
        &self,
        base: &ProblemInstance,
        requests: &[u64],
        healthy_capacities: &[u64],
    ) -> DegradedPlatform {
        let capacities = base
            .tree()
            .node_ids()
            .map(|n| self.capacity(n, healthy_capacities[n.index()]))
            .collect();
        DegradedPlatform {
            problem: rebuild_with(base, requests.to_vec(), capacities, self),
            failures: self.clone(),
        }
    }
}

/// A [`ProblemInstance`] after a failure trace: the surviving platform.
///
/// The degraded instance encodes every failure through the ordinary
/// problem parameters — crashed servers have capacity 0, dead links
/// have bandwidth 0 — so *all* existing machinery (heuristics,
/// validation, the exact accounting) works on it unchanged. The dead
/// flags are kept alongside because a zero-capacity server and a
/// crashed one differ for repair: a replica may not survive on either,
/// but only a dead *link* severs routes.
#[derive(Clone)]
pub struct DegradedPlatform {
    problem: ProblemInstance,
    failures: FailureState,
}

/// Applies `events` (left to right, worst effect wins) to `problem`,
/// producing the surviving platform.
pub fn apply_failures(problem: &ProblemInstance, events: &[FailureEvent]) -> DegradedPlatform {
    let tree = problem.tree();
    let mut failures = FailureState::healthy(tree);
    for &event in events {
        failures.fold(tree, event);
    }
    let requests: Vec<u64> = tree.client_ids().map(|c| problem.requests(c)).collect();
    let capacities: Vec<u64> = tree.node_ids().map(|n| problem.capacity(n)).collect();
    failures.platform(problem, &requests, &capacities)
}

/// The one instance rebuild: `base` with new requests and capacities
/// and zeroed bandwidth on the links `failures` marks dead. Every other
/// parameter — tree, storage costs, QoS bounds, objective kind —
/// carries over unchanged.
fn rebuild_with(
    base: &ProblemInstance,
    requests: Vec<u64>,
    capacities: Vec<u64>,
    failures: &FailureState,
) -> ProblemInstance {
    let tree: Arc<TreeNetwork> = base.tree_arc();
    let storage_costs: Vec<u64> = tree.node_ids().map(|n| base.storage_cost(n)).collect();
    let qos: Vec<Option<u32>> = tree.client_ids().map(|c| base.qos(c)).collect();
    let bandwidth = |link: LinkId| {
        if failures.is_link_dead(link) {
            Some(0)
        } else {
            base.bandwidth(link)
        }
    };
    let client_bw: Vec<Option<u64>> = tree
        .client_ids()
        .map(|c| bandwidth(LinkId::Client(c)))
        .collect();
    let node_bw: Vec<Option<u64>> = tree
        .node_ids()
        .map(|n| bandwidth(LinkId::Node(n)))
        .collect();
    ProblemInstance::builder(tree)
        .requests(requests)
        .capacities(capacities)
        .storage_costs(storage_costs)
        .qos(qos)
        .client_link_bandwidths(client_bw)
        .node_link_bandwidths(node_bw)
        .kind(base.kind())
        .build()
}

impl DegradedPlatform {
    /// The surviving instance (degraded capacities and bandwidths).
    pub fn problem(&self) -> &ProblemInstance {
        &self.problem
    }

    /// Whether the server at `node` crashed (capacity-degraded but
    /// surviving servers report `false`).
    pub fn is_server_dead(&self, node: NodeId) -> bool {
        self.failures.is_server_dead(node)
    }

    /// Whether `link` went down.
    pub fn is_link_dead(&self, link: LinkId) -> bool {
        self.failures.is_link_dead(link)
    }

    /// Whether `client` can still physically reach `server`: the server
    /// is on the client's path, survives, and no link between them is
    /// down. (Capacity and bandwidth headroom are a separate question,
    /// answered by the exact accounting.)
    pub fn path_is_alive(&self, client: ClientId, server: NodeId) -> bool {
        if self.is_server_dead(server) {
            return false;
        }
        let Some(links) = self.problem.tree().client_path_links(client, server) else {
            return false;
        };
        for link in links {
            if self.is_link_dead(link) {
                return false;
            }
        }
        true
    }

    /// Number of crashed servers.
    pub fn num_dead_servers(&self) -> usize {
        self.failures.dead_servers.iter().filter(|&&d| d).count()
    }

    /// Number of severed links.
    pub fn num_dead_links(&self) -> usize {
        self.failures
            .dead_client_links
            .iter()
            .filter(|&&d| d)
            .count()
            + self.failures.dead_node_links.iter().filter(|&&d| d).count()
    }

    /// A copy of the surviving instance with the requests of `unserved`
    /// clients zeroed — the instance a degraded placement is validated
    /// against (a zero-request client passes validation unassigned).
    pub fn problem_with_unserved_dropped(&self, unserved: &[ClientId]) -> ProblemInstance {
        let tree = self.problem.tree();
        let mut requests: Vec<u64> = tree
            .client_ids()
            .map(|c| self.problem.requests(c))
            .collect();
        for &client in unserved {
            requests[client.index()] = 0;
        }
        let capacities: Vec<u64> = tree.node_ids().map(|n| self.problem.capacity(n)).collect();
        rebuild_with(&self.problem, requests, capacities, &self.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    /// root -> mid -> low -> {c0}; mid -> c1; root -> c2.
    fn sample() -> (ProblemInstance, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let low = b.add_node(mid);
        let c0 = b.add_client(low);
        let c1 = b.add_client(mid);
        let c2 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![3, 5, 2], vec![10, 8, 6]);
        (p, vec![root, mid, low], vec![c0, c1, c2])
    }

    #[test]
    fn server_crash_zeroes_capacity_but_keeps_routes() {
        let (p, n, c) = sample();
        let platform = apply_failures(&p, &[FailureEvent::ServerCrash(n[1])]);
        assert!(platform.is_server_dead(n[1]));
        assert_eq!(platform.problem().capacity(n[1]), 0);
        assert_eq!(platform.num_dead_servers(), 1);
        assert_eq!(platform.num_dead_links(), 0);
        // c0 can still reach the root *through* the crashed mid.
        assert!(platform.path_is_alive(c[0], n[0]));
        assert!(!platform.path_is_alive(c[0], n[1]));
        // Everything else carries over.
        assert_eq!(platform.problem().requests(c[0]), 3);
        assert_eq!(platform.problem().storage_cost(n[1]), 8);
        assert_eq!(platform.problem().kind(), p.kind());
    }

    #[test]
    fn uplink_down_severs_everything_above() {
        let (p, n, c) = sample();
        let platform = apply_failures(&p, &[FailureEvent::UplinkDown(LinkId::Node(n[2]))]);
        assert!(platform.is_link_dead(LinkId::Node(n[2])));
        assert_eq!(platform.problem().bandwidth(LinkId::Node(n[2])), Some(0));
        // c0 keeps its subtree server but loses everything above low.
        assert!(platform.path_is_alive(c[0], n[2]));
        assert!(!platform.path_is_alive(c[0], n[1]));
        assert!(!platform.path_is_alive(c[0], n[0]));
        // c1 and c2 are untouched.
        assert!(platform.path_is_alive(c[1], n[0]));
        assert!(platform.path_is_alive(c[2], n[0]));
    }

    #[test]
    fn client_uplink_down_cuts_the_client_off() {
        let (p, n, c) = sample();
        let platform = apply_failures(&p, &[FailureEvent::UplinkDown(LinkId::Client(c[1]))]);
        for &server in &n {
            assert!(!platform.path_is_alive(c[1], server));
        }
        assert!(platform.path_is_alive(c[0], n[0]));
    }

    #[test]
    fn root_uplink_failure_is_ignored() {
        let (p, n, _) = sample();
        let platform = apply_failures(&p, &[FailureEvent::UplinkDown(LinkId::Node(n[0]))]);
        assert_eq!(platform.num_dead_links(), 0);
        assert_eq!(platform.problem().bandwidth(LinkId::Node(n[0])), None);
    }

    #[test]
    fn capacity_loss_keeps_the_worst_of_overlapping_events() {
        let (p, n, _) = sample();
        let platform = apply_failures(
            &p,
            &[
                FailureEvent::CapacityLoss {
                    node: n[0],
                    remaining: 6,
                },
                FailureEvent::CapacityLoss {
                    node: n[0],
                    remaining: 9,
                },
            ],
        );
        assert_eq!(platform.problem().capacity(n[0]), 6);
        assert!(!platform.is_server_dead(n[0]));
    }

    #[test]
    fn subtree_failure_kills_servers_and_links_together() {
        let (p, n, c) = sample();
        let platform = apply_failures(&p, &[FailureEvent::SubtreeFailure(n[1])]);
        assert!(platform.is_server_dead(n[1]));
        assert!(platform.is_server_dead(n[2]));
        assert!(!platform.is_server_dead(n[0]));
        assert!(platform.is_link_dead(LinkId::Node(n[1])));
        assert!(platform.is_link_dead(LinkId::Node(n[2])));
        // Both subtree clients are completely cut off; c2 survives.
        for &server in &n {
            assert!(!platform.path_is_alive(c[0], server));
            assert!(!platform.path_is_alive(c[1], server));
        }
        assert!(platform.path_is_alive(c[2], n[0]));
    }

    #[test]
    fn recovery_restores_pristine_capacity_and_links() {
        let (p, n, c) = sample();
        // Crash mid, degrade root, cut c0's uplink — then heal each.
        let trace = [
            FailureEvent::ServerCrash(n[1]),
            FailureEvent::CapacityLoss {
                node: n[0],
                remaining: 2,
            },
            FailureEvent::UplinkDown(LinkId::Client(c[0])),
            FailureEvent::Recovered(RecoveryScope::Server(n[1])),
            FailureEvent::Recovered(RecoveryScope::Server(n[0])),
            FailureEvent::Recovered(RecoveryScope::Link(LinkId::Client(c[0]))),
        ];
        let platform = apply_failures(&p, &trace);
        assert!(!platform.is_server_dead(n[1]));
        assert_eq!(platform.problem().capacity(n[1]), p.capacity(n[1]));
        assert_eq!(platform.problem().capacity(n[0]), p.capacity(n[0]));
        assert_eq!(platform.num_dead_links(), 0);
        assert!(platform.path_is_alive(c[0], n[0]));
    }

    #[test]
    fn recovery_order_matters() {
        let (p, n, _) = sample();
        // Heal, then crash again: the crash wins.
        let platform = apply_failures(
            &p,
            &[
                FailureEvent::ServerCrash(n[1]),
                FailureEvent::Recovered(RecoveryScope::Server(n[1])),
                FailureEvent::ServerCrash(n[1]),
            ],
        );
        assert!(platform.is_server_dead(n[1]));
        assert_eq!(platform.problem().capacity(n[1]), 0);
    }

    #[test]
    fn subtree_recovery_heals_members_links_and_clients() {
        let (p, n, c) = sample();
        let platform = apply_failures(
            &p,
            &[
                FailureEvent::SubtreeFailure(n[1]),
                FailureEvent::UplinkDown(LinkId::Client(c[0])),
                FailureEvent::Recovered(RecoveryScope::Subtree(n[1])),
            ],
        );
        assert_eq!(platform.num_dead_servers(), 0);
        assert_eq!(platform.num_dead_links(), 0);
        assert!(platform.path_is_alive(c[0], n[0]));
        assert!(platform.path_is_alive(c[1], n[1]));
    }

    #[test]
    fn recover_all_returns_to_the_pristine_instance() {
        let (p, n, c) = sample();
        let platform = apply_failures(
            &p,
            &[
                FailureEvent::SubtreeFailure(n[0]),
                FailureEvent::UplinkDown(LinkId::Client(c[2])),
                FailureEvent::Recovered(RecoveryScope::All),
            ],
        );
        assert_eq!(platform.num_dead_servers(), 0);
        assert_eq!(platform.num_dead_links(), 0);
        for &node in &n {
            assert_eq!(platform.problem().capacity(node), p.capacity(node));
        }
        for &client in &c {
            assert!(platform.path_is_alive(client, n[0]));
        }
    }

    #[test]
    fn folded_state_rebuilds_with_current_demand_and_capacities() {
        let (p, n, c) = sample();
        let mut failures = FailureState::healthy(p.tree());
        failures.fold(
            p.tree(),
            FailureEvent::CapacityLoss {
                node: n[0],
                remaining: 4,
            },
        );
        failures.fold(p.tree(), FailureEvent::ServerCrash(n[2]));
        failures.fold(p.tree(), FailureEvent::UplinkDown(LinkId::Client(c[1])));
        // The engine's demand and re-provisioned capacities, not `p`'s.
        let platform = failures.platform(&p, &[1, 1, 1], &[20, 3, 6]);
        let rebuilt = platform.problem();
        assert_eq!(rebuilt.capacity(n[0]), 4);
        assert_eq!(rebuilt.capacity(n[1]), 3);
        assert_eq!(rebuilt.capacity(n[2]), 0);
        assert!(platform.is_server_dead(n[2]));
        assert_eq!(rebuilt.bandwidth(LinkId::Client(c[1])), Some(0));
        for &client in &c {
            assert_eq!(rebuilt.requests(client), 1);
        }
        assert_eq!(rebuilt.storage_cost(n[1]), p.storage_cost(n[1]));
        assert_eq!(platform.num_dead_servers(), 1);
        assert_eq!(platform.num_dead_links(), 1);
    }

    #[test]
    fn dropping_unserved_clients_zeroes_their_requests_only() {
        let (p, _, c) = sample();
        let platform = apply_failures(&p, &[FailureEvent::UplinkDown(LinkId::Client(c[0]))]);
        let check = platform.problem_with_unserved_dropped(&[c[0]]);
        assert_eq!(check.requests(c[0]), 0);
        assert_eq!(check.requests(c[1]), 5);
        assert_eq!(check.requests(c[2]), 2);
        assert_eq!(check.bandwidth(LinkId::Client(c[0])), Some(0));
    }
}
