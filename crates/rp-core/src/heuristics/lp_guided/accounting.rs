//! Exact feasibility accounting for the rounding and repair passes.
//!
//! [`FeasAccounting`] tracks, in integers, the residual processing
//! capacity of every node and the residual bandwidth of every link.
//! Every assignment decision of the LP-guided pipeline goes through
//! [`FeasAccounting::max_assignable`] /
//! [`FeasAccounting::assign`], so a rounded placement is feasible *by
//! construction* — capacity, per-link bandwidth and (in the
//! multi-object case) the shared capacities all at once.
//!
//! Residuals are signed: the bandwidth repair charges an *existing*
//! (possibly violating) placement into the accounting and then drives
//! the negative link residuals back to zero by re-homing flow.

use rp_tree::{ClientId, LinkId, LinkMap, NodeId, TreeNetwork};

use crate::multi::MultiObjectProblem;
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// Residual used for unbounded links: large enough never to bind,
/// small enough that charging every request of any instance cannot
/// overflow an `i64`.
const UNBOUNDED: i64 = i64::MAX / 4;

/// Residual node capacities and link bandwidths, updated exactly as
/// requests are assigned and un-assigned.
#[derive(Clone)]
pub struct FeasAccounting {
    node_residual: Vec<i64>,
    link_residual: LinkMap<i64>,
}

impl FeasAccounting {
    fn new(
        tree: &TreeNetwork,
        capacity: impl Fn(NodeId) -> u64,
        bandwidth: impl Fn(LinkId) -> Option<u64>,
    ) -> Self {
        let node_residual = tree.node_ids().map(|n| capacity(n) as i64).collect();
        let mut link_residual = LinkMap::filled(
            tree.num_clients(),
            tree.num_nodes(),
            tree.root().index(),
            UNBOUNDED,
        );
        for link in tree.link_ids() {
            if let Some(bw) = bandwidth(link) {
                link_residual[link] = bw as i64;
            }
        }
        FeasAccounting {
            node_residual,
            link_residual,
        }
    }

    /// Fresh accounting over a single-object instance: full capacities,
    /// full bandwidths.
    pub fn for_problem(problem: &ProblemInstance) -> Self {
        FeasAccounting::new(
            problem.tree(),
            |n| problem.capacity(n),
            |l| problem.bandwidth(l),
        )
    }

    /// Accounting over `problem` with every assignment of `placement`
    /// charged: an overloaded server or a saturated link shows as a
    /// negative residual (the repair passes' starting point).
    pub(crate) fn charged(problem: &ProblemInstance, placement: &Placement) -> Self {
        let tree = problem.tree();
        let mut accounting = FeasAccounting::for_problem(problem);
        for client in tree.client_ids() {
            for a in placement.assignments(client) {
                accounting.assign(tree, client, a.server, a.amount);
            }
        }
        accounting
    }

    /// Fresh accounting over a multi-object instance: the **shared**
    /// capacities and the **shared** link bandwidths — one accounting
    /// serves every object's assignments, which is exactly how the
    /// shared rows of the formulation couple them.
    pub fn for_multi(problem: &MultiObjectProblem) -> Self {
        FeasAccounting::new(
            problem.tree(),
            |n| problem.capacity(n),
            |l| problem.bandwidth(l),
        )
    }

    /// Residual capacity of `node` (negative when overloaded).
    pub fn node_residual(&self, node: NodeId) -> i64 {
        self.node_residual[node.index()]
    }

    /// Residual bandwidth of `link` (negative when saturated past its
    /// bound; effectively unbounded links report a huge positive value).
    pub fn link_residual(&self, link: LinkId) -> i64 {
        self.link_residual[link]
    }

    /// The largest amount of `client`'s requests that can still be
    /// routed to `server` without violating its capacity or any link on
    /// the way: `min(W-residual, min over path links of BW-residual)`,
    /// clamped at zero. Returns 0 when `server` is not on the client's
    /// path.
    pub fn max_assignable(&self, tree: &TreeNetwork, client: ClientId, server: NodeId) -> u64 {
        let Some(links) = tree.client_path_links(client, server) else {
            return 0;
        };
        let mut headroom = self.node_residual[server.index()];
        for link in links {
            headroom = headroom.min(self.link_residual[link]);
            if headroom <= 0 {
                return 0;
            }
        }
        headroom.max(0) as u64
    }

    /// Charges `amount` requests of `client` routed to `server`:
    /// subtracts from the server's capacity residual and from every
    /// link residual on the path. (Unlike
    /// [`max_assignable`](Self::max_assignable) this does not refuse
    /// overdrafts — the repair pass deliberately charges violating
    /// placements to expose their negative residuals.)
    pub fn assign(&mut self, tree: &TreeNetwork, client: ClientId, server: NodeId, amount: u64) {
        self.apply(tree, client, server, amount as i64);
    }

    /// Reverts [`assign`](Self::assign): adds `amount` back to the
    /// server and path-link residuals.
    pub fn unassign(&mut self, tree: &TreeNetwork, client: ClientId, server: NodeId, amount: u64) {
        self.apply(tree, client, server, -(amount as i64));
    }

    fn apply(&mut self, tree: &TreeNetwork, client: ClientId, server: NodeId, amount: i64) {
        if amount == 0 {
            return;
        }
        self.node_residual[server.index()] -= amount;
        let links = tree
            .client_path_links(client, server)
            .expect("assignments only target on-path servers");
        for link in links {
            self.link_residual[link] -= amount;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    /// root -> mid -> {c0}; root -> c1. Capacities 10/3, mid uplink bw 2.
    fn sample() -> (ProblemInstance, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let c0 = b.add_client(mid);
        let c1 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![4, 1])
            .capacities(vec![10, 3])
            .node_link_bandwidths(vec![None, Some(2)])
            .build();
        (p, vec![root, mid], vec![c0, c1])
    }

    #[test]
    fn max_assignable_is_the_path_bottleneck() {
        let (p, n, c) = sample();
        let acct = FeasAccounting::for_problem(&p);
        // c0 -> root crosses the bw-2 uplink: bottleneck 2.
        assert_eq!(acct.max_assignable(p.tree(), c[0], n[0]), 2);
        // c0 -> mid sees only mid's capacity.
        assert_eq!(acct.max_assignable(p.tree(), c[0], n[1]), 3);
        // c1 -> root: only the (unbounded) client link and the root.
        assert_eq!(acct.max_assignable(p.tree(), c[1], n[0]), 10);
        // mid is not on c1's path.
        assert_eq!(acct.max_assignable(p.tree(), c[1], n[1]), 0);
    }

    #[test]
    fn assign_and_unassign_round_trip() {
        let (p, n, c) = sample();
        let mut acct = FeasAccounting::for_problem(&p);
        acct.assign(p.tree(), c[0], n[0], 2);
        assert_eq!(acct.node_residual(n[0]), 8);
        assert_eq!(acct.link_residual(LinkId::Node(n[1])), 0);
        assert_eq!(acct.max_assignable(p.tree(), c[0], n[0]), 0);
        // mid's capacity is untouched by the pass-through flow.
        assert_eq!(acct.node_residual(n[1]), 3);
        acct.unassign(p.tree(), c[0], n[0], 2);
        assert_eq!(acct.node_residual(n[0]), 10);
        assert_eq!(acct.max_assignable(p.tree(), c[0], n[0]), 2);
    }

    #[test]
    fn overdrafts_surface_as_negative_residuals() {
        let (p, n, c) = sample();
        let mut acct = FeasAccounting::for_problem(&p);
        // Charge a violating placement: 4 requests over the bw-2 link.
        acct.assign(p.tree(), c[0], n[0], 4);
        assert_eq!(acct.link_residual(LinkId::Node(n[1])), -2);
        assert_eq!(acct.max_assignable(p.tree(), c[0], n[0]), 0);
    }
}
