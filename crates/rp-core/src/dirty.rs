//! Dirty-region tracking for incremental re-solves.
//!
//! The tree structure gives incremental placement its central
//! invariant: a client may only ever be served on the path from its
//! attachment point to the root, so **only the root path of a changed
//! node can change**. [`DirtyRegion`] exploits that — each delta marks
//! the clients it can possibly affect plus the nodes on their root
//! paths, and the surgical repair rung then touches *only* the marked
//! clients instead of re-examining the whole placement.
//!
//! Two containment facts make the marking sound:
//!
//! * any client assigned to server `n` lies in `subtree(n)` (servers
//!   must sit on the client's root path), so a capacity change at `n`
//!   can only disturb `subtree_clients(n)`;
//! * any client whose route crosses the uplink of `n` also lies in
//!   `subtree(n)`, so a link failure at `n` disturbs the same set.

use rp_tree::{ClientId, LinkId, NodeId, TreeNetwork};

use crate::delta::InstanceDelta;
use crate::failures::{FailureEvent, RecoveryScope};

/// A bitset over nodes and clients marking what an incremental pass
/// must re-examine. Reused across applies; `clear` is O(marked).
#[derive(Clone, Debug)]
pub struct DirtyRegion {
    node_dirty: Vec<bool>,
    client_dirty: Vec<bool>,
    marked_nodes: Vec<NodeId>,
    marked_clients: Vec<ClientId>,
}

impl DirtyRegion {
    /// An all-clean region sized for `tree`.
    pub fn for_tree(tree: &TreeNetwork) -> Self {
        DirtyRegion {
            node_dirty: vec![false; tree.num_nodes()],
            client_dirty: vec![false; tree.num_clients()],
            marked_nodes: Vec::new(),
            marked_clients: Vec::new(),
        }
    }

    /// Marks `client` and every node on its root path (the only servers
    /// that can gain or lose its load).
    pub fn mark_client(&mut self, tree: &TreeNetwork, client: ClientId) {
        if !self.client_dirty[client.index()] {
            self.client_dirty[client.index()] = true;
            self.marked_clients.push(client);
        }
        for node in tree.ancestors_of_client(client) {
            self.mark_node_only(node);
        }
    }

    /// Marks `node` and its root path.
    pub fn mark_node(&mut self, tree: &TreeNetwork, node: NodeId) {
        for ancestor in tree.self_and_ancestors(node) {
            self.mark_node_only(ancestor);
        }
    }

    /// Marks the whole subtree of `node` — its members, their root
    /// paths, and every client attached inside (the reach of a subtree
    /// failure/recovery or a capacity change at `node`).
    pub fn mark_subtree(&mut self, tree: &TreeNetwork, node: NodeId) {
        self.mark_node(tree, node);
        for &member in tree.subtree_nodes(node) {
            self.mark_node_only(member);
        }
        for &client in tree.subtree_clients(node) {
            if !self.client_dirty[client.index()] {
                self.client_dirty[client.index()] = true;
                self.marked_clients.push(client);
            }
        }
    }

    /// Marks the region a link outage/recovery can affect.
    pub fn mark_link(&mut self, tree: &TreeNetwork, link: LinkId) {
        match link {
            LinkId::Client(client) => self.mark_client(tree, client),
            LinkId::Node(node) => self.mark_subtree(tree, node),
        }
    }

    /// Marks the region `delta` can affect: a demand change its client,
    /// a capacity change, crash or recovery the subtree of its node, a
    /// link event its link, and a full recovery everything.
    pub fn mark_delta(&mut self, tree: &TreeNetwork, delta: InstanceDelta) {
        match delta {
            InstanceDelta::ClientArrived { client, .. }
            | InstanceDelta::ClientDeparted { client }
            | InstanceDelta::DemandChanged { client, .. } => self.mark_client(tree, client),
            InstanceDelta::CapacityChanged { node, .. }
            | InstanceDelta::Failure(
                FailureEvent::ServerCrash(node)
                | FailureEvent::CapacityLoss { node, .. }
                | FailureEvent::SubtreeFailure(node)
                | FailureEvent::Recovered(RecoveryScope::Server(node) | RecoveryScope::Subtree(node)),
            ) => self.mark_subtree(tree, node),
            InstanceDelta::Failure(
                FailureEvent::UplinkDown(link) | FailureEvent::Recovered(RecoveryScope::Link(link)),
            ) => self.mark_link(tree, link),
            InstanceDelta::Failure(FailureEvent::Recovered(RecoveryScope::All)) => {
                self.mark_all(tree)
            }
        }
    }

    /// Marks everything.
    pub fn mark_all(&mut self, tree: &TreeNetwork) {
        for node in tree.node_ids() {
            self.mark_node_only(node);
        }
        for client in tree.client_ids() {
            if !self.client_dirty[client.index()] {
                self.client_dirty[client.index()] = true;
                self.marked_clients.push(client);
            }
        }
    }

    fn mark_node_only(&mut self, node: NodeId) {
        if !self.node_dirty[node.index()] {
            self.node_dirty[node.index()] = true;
            self.marked_nodes.push(node);
        }
    }

    /// Whether `node` is marked.
    pub fn is_node_dirty(&self, node: NodeId) -> bool {
        self.node_dirty[node.index()]
    }

    /// Whether `client` is marked.
    pub fn is_client_dirty(&self, client: ClientId) -> bool {
        self.client_dirty[client.index()]
    }

    /// The marked clients, in marking order.
    pub fn dirty_clients(&self) -> &[ClientId] {
        &self.marked_clients
    }

    /// The marked nodes, in marking order.
    pub fn dirty_nodes(&self) -> &[NodeId] {
        &self.marked_nodes
    }

    /// Whether anything is marked.
    pub fn is_empty(&self) -> bool {
        self.marked_nodes.is_empty() && self.marked_clients.is_empty()
    }

    /// Clears every mark in O(marked).
    pub fn clear(&mut self) {
        for node in self.marked_nodes.drain(..) {
            self.node_dirty[node.index()] = false;
        }
        for client in self.marked_clients.drain(..) {
            self.client_dirty[client.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    /// root -> mid -> low -> {c0}; mid -> c1; root -> c2.
    fn sample() -> (TreeNetwork, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let low = b.add_node(mid);
        let c0 = b.add_client(low);
        let c1 = b.add_client(mid);
        let c2 = b.add_client(root);
        (b.build().unwrap(), vec![root, mid, low], vec![c0, c1, c2])
    }

    #[test]
    fn marking_a_client_marks_its_root_path_only() {
        let (tree, n, c) = sample();
        let mut dirty = DirtyRegion::for_tree(&tree);
        dirty.mark_client(&tree, c[0]);
        assert!(dirty.is_client_dirty(c[0]));
        assert!(!dirty.is_client_dirty(c[1]));
        for &node in &n {
            assert!(dirty.is_node_dirty(node));
        }
        assert_eq!(dirty.dirty_clients(), &[c[0]]);
    }

    #[test]
    fn marking_a_subtree_catches_its_clients() {
        let (tree, n, c) = sample();
        let mut dirty = DirtyRegion::for_tree(&tree);
        dirty.mark_subtree(&tree, n[1]);
        assert!(dirty.is_client_dirty(c[0]));
        assert!(dirty.is_client_dirty(c[1]));
        assert!(!dirty.is_client_dirty(c[2]));
        // The root is on mid's root path, so it is marked too.
        assert!(dirty.is_node_dirty(n[0]));
    }

    #[test]
    fn clear_resets_everything_and_marks_do_not_duplicate() {
        let (tree, n, c) = sample();
        let mut dirty = DirtyRegion::for_tree(&tree);
        dirty.mark_client(&tree, c[1]);
        dirty.mark_client(&tree, c[1]);
        dirty.mark_link(&tree, LinkId::Node(n[1]));
        assert_eq!(
            dirty.dirty_clients().iter().filter(|&&k| k == c[1]).count(),
            1
        );
        assert!(!dirty.is_empty());
        dirty.clear();
        assert!(dirty.is_empty());
        assert!(!dirty.is_node_dirty(n[0]));
        dirty.mark_all(&tree);
        assert_eq!(dirty.dirty_clients().len(), 3);
        assert_eq!(dirty.dirty_nodes().len(), 3);
    }
}
