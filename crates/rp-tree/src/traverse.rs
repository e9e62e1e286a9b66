//! Traversal utilities: ancestors, subtrees, paths, depths and orders.
//!
//! All the algorithms in the paper are phrased in terms of a handful of
//! primitives — `Ancestors(k)`, `subtree(k)`, `path[i -> s]`, breadth-
//! first and bottom-up traversals — which this module provides on top of
//! the immutable [`TreeNetwork`].
//!
//! # Cost model
//!
//! These primitives sit in the inner loop of every heuristic and solver,
//! so none of them allocates:
//!
//! * ancestor walks return lazy iterators over the parent pointers
//!   ([`Ancestors`], [`PathLinks`]);
//! * subtree and whole-tree traversals return **slices** of orders that
//!   were precomputed when the tree was built;
//! * [`node_is_ancestor_or_self`](TreeNetwork::node_is_ancestor_or_self),
//!   [`client_distance`](TreeNetwork::client_distance),
//!   [`node_depth`](TreeNetwork::node_depth) and
//!   [`client_depth`](TreeNetwork::client_depth) are O(1) via the
//!   preorder interval stamps and depth table.

use crate::ids::{ClientId, LinkId, NodeId};
use crate::tree::TreeNetwork;

/// Lazy bottom-up iterator over a chain of ancestors (see
/// [`TreeNetwork::ancestors_of_node`] and friends). Exact-size and fused;
/// never allocates.
#[derive(Clone, Debug)]
pub struct Ancestors<'t> {
    tree: &'t TreeNetwork,
    next: Option<NodeId>,
    remaining: usize,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        self.next = self.tree.parent_of_node(current);
        self.remaining -= 1;
        Some(current)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Ancestors<'_> {}
impl std::iter::FusedIterator for Ancestors<'_> {}

/// Lazy bottom-up iterator over the links of a client's path (see
/// [`TreeNetwork::client_path_links`]). Exact-size and fused; never
/// allocates.
#[derive(Clone, Debug)]
pub struct PathLinks<'t> {
    tree: &'t TreeNetwork,
    next: Option<LinkId>,
    server: NodeId,
    remaining: usize,
}

impl Iterator for PathLinks<'_> {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        let link = self.next.take()?;
        let upper = self.tree.link_upper(link);
        if upper != self.server {
            self.next = Some(LinkId::Node(upper));
        }
        self.remaining -= 1;
        Some(link)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PathLinks<'_> {}
impl std::iter::FusedIterator for PathLinks<'_> {}

impl TreeNetwork {
    /// Ancestors of an internal node, from its parent up to the root
    /// (the node itself is excluded, matching the paper's `Ancestors(k)`).
    #[inline]
    pub fn ancestors_of_node(&self, node: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            next: self.parent_of_node(node),
            remaining: self.depth[node.index()] as usize,
        }
    }

    /// Ancestors of a client: its parent node, then that node's
    /// ancestors up to the root. These are exactly the candidate servers
    /// for the client under every access policy.
    #[inline]
    pub fn ancestors_of_client(&self, client: ClientId) -> Ancestors<'_> {
        let parent = self.parent_of_client(client);
        Ancestors {
            tree: self,
            next: Some(parent),
            remaining: self.depth[parent.index()] as usize + 1,
        }
    }

    /// Ancestors of a node *including the node itself*, bottom-up.
    #[inline]
    pub fn self_and_ancestors(&self, node: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            next: Some(node),
            remaining: self.depth[node.index()] as usize + 1,
        }
    }

    /// Returns `true` when `ancestor` lies on the path from `node` to the
    /// root (or is `node` itself). O(1): `subtree(ancestor)` occupies one
    /// contiguous preorder interval, so the test is an interval check on
    /// the stamps computed at build time.
    #[inline]
    pub fn node_is_ancestor_or_self(&self, node: NodeId, ancestor: NodeId) -> bool {
        let pos = self.tin[node.index()];
        let start = self.tin[ancestor.index()];
        pos >= start && pos < start + self.subtree_size[ancestor.index()]
    }

    /// Returns `true` when `server` is an eligible server for `client`,
    /// i.e. it lies on the path from the client to the root. O(1).
    #[inline]
    pub fn is_on_client_path(&self, client: ClientId, server: NodeId) -> bool {
        self.node_is_ancestor_or_self(self.parent_of_client(client), server)
    }

    /// All internal nodes of `subtree(node)`, including `node`, in
    /// depth-first preorder. A slice of the precomputed preorder — no
    /// traversal, no allocation.
    #[inline]
    pub fn subtree_nodes(&self, node: NodeId) -> &[NodeId] {
        let start = self.tin[node.index()] as usize;
        let len = self.subtree_size[node.index()] as usize;
        &self.preorder[start..start + len]
    }

    /// All clients in `subtree(node)`, grouped by the preorder position
    /// of their parent node (this is the paper's `clients(j)`). A slice
    /// of a precomputed arena — no traversal, no allocation.
    #[inline]
    pub fn subtree_clients(&self, node: NodeId) -> &[ClientId] {
        let start = self.tin[node.index()] as usize;
        let end = start + self.subtree_size[node.index()] as usize;
        let lo = self.client_offset[start] as usize;
        let hi = self.client_offset[end] as usize;
        &self.clients_preorder[lo..hi]
    }

    /// Number of hops on the path from a client to a candidate server,
    /// i.e. `|path[i -> s]|`. Returns `None` if `server` is not on the
    /// client's path to the root. O(1) via the depth table.
    #[inline]
    pub fn client_distance(&self, client: ClientId, server: NodeId) -> Option<u32> {
        let parent = self.parent_of_client(client);
        if !self.node_is_ancestor_or_self(parent, server) {
            return None;
        }
        Some(self.depth[parent.index()] + 1 - self.depth[server.index()])
    }

    /// The links on the path from a client up to (and including the link
    /// into) `server`, as a lazy iterator. Returns `None` if `server` is
    /// not an ancestor of the client.
    pub fn client_path_links(&self, client: ClientId, server: NodeId) -> Option<PathLinks<'_>> {
        let length = self.client_distance(client, server)?;
        Some(PathLinks {
            tree: self,
            next: Some(LinkId::Client(client)),
            server,
            remaining: length as usize,
        })
    }

    /// All links on the path from a client up to the root, as a lazy
    /// iterator.
    pub fn client_path_to_root(&self, client: ClientId) -> PathLinks<'_> {
        self.client_path_links(client, self.root())
            .expect("the root is an ancestor of every client")
    }

    /// Position of `client` in the preorder-grouped client arena: the
    /// deterministic rank of the client in a depth-first subtree walk.
    /// Useful as a total tie-breaker when sorting clients of a subtree
    /// so that unstable in-place sorts reproduce the order a stable
    /// sort over the subtree walk would give. O(1).
    #[inline]
    pub fn client_preorder_rank(&self, client: ClientId) -> u32 {
        self.client_rank[client.index()]
    }

    /// Depth of an internal node (the root has depth 0). O(1).
    #[inline]
    pub fn node_depth(&self, node: NodeId) -> u32 {
        self.depth[node.index()]
    }

    /// Depth of a client (its parent's depth plus one). O(1).
    #[inline]
    pub fn client_depth(&self, client: ClientId) -> u32 {
        self.depth[self.parent_of_client(client).index()] + 1
    }

    /// Breadth-first order over internal nodes, starting at the root.
    ///
    /// This is the traversal used by the Closest top-down heuristics
    /// (CTDA / CTDLF) in Section 6.1. Precomputed at build time.
    #[inline]
    pub fn bfs_nodes(&self) -> &[NodeId] {
        &self.bfs
    }

    /// Depth-first preorder over internal nodes, starting at the root.
    /// Precomputed at build time.
    #[inline]
    pub fn dfs_preorder_nodes(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Post-order over internal nodes (children before parents). This is
    /// the natural order for the bottom-up passes of the optimal
    /// Multiple/homogeneous algorithm and the CBU / MBU heuristics.
    /// Precomputed at build time.
    #[inline]
    pub fn postorder_nodes(&self) -> &[NodeId] {
        &self.postorder
    }

    /// Depth of the tree counted in node levels: the maximum client depth.
    /// A root with only client children has depth 1.
    pub fn depth(&self) -> u32 {
        self.client_ids()
            .map(|c| self.client_depth(c))
            .max()
            .unwrap_or(0)
    }

    /// Lowest common ancestor of two internal nodes. O(depth), no
    /// allocation: both nodes are lifted to a common depth, then walked
    /// up in lockstep.
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut a = a;
        let mut b = b;
        while self.depth[a.index()] > self.depth[b.index()] {
            a = self.parent_of_node(a).expect("deeper node has a parent");
        }
        while self.depth[b.index()] > self.depth[a.index()] {
            b = self.parent_of_node(b).expect("deeper node has a parent");
        }
        while a != b {
            a = self
                .parent_of_node(a)
                .expect("the root is a common ancestor of every pair of nodes");
            b = self
                .parent_of_node(b)
                .expect("the root is a common ancestor of every pair of nodes");
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// Builds the example tree of Figure 6 in the paper (topology only):
    ///
    /// ```text
    ///            n1
    ///        /    |    \
    ///      n2    n3     n4
    ///     /  \    |    / | \
    ///   c(2) c(2) n5 n6 n9 c(1)
    ///              |  /\   | \
    ///             ... (clients and deeper nodes)
    /// ```
    ///
    /// For traversal tests we only need a moderately bushy shape, so we
    /// reproduce the upper part: root with three internal children, one
    /// of which has a deeper chain.
    fn figure6_like() -> (TreeNetwork, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let n1 = b.add_root();
        let n2 = b.add_node(n1);
        let n3 = b.add_node(n1);
        let n4 = b.add_node(n1);
        let n5 = b.add_node(n3);
        let n6 = b.add_node(n4);
        let c0 = b.add_client(n2);
        let c1 = b.add_client(n2);
        let c2 = b.add_client(n5);
        let c3 = b.add_client(n6);
        let c4 = b.add_client(n4);
        let tree = b.build().unwrap();
        (tree, vec![n1, n2, n3, n4, n5, n6], vec![c0, c1, c2, c3, c4])
    }

    #[test]
    fn ancestors_exclude_self_and_end_at_root() {
        let (t, n, _) = figure6_like();
        assert_eq!(t.ancestors_of_node(n[0]).collect::<Vec<_>>(), vec![]);
        assert_eq!(
            t.ancestors_of_node(n[4]).collect::<Vec<_>>(),
            vec![n[2], n[0]]
        );
        assert_eq!(
            t.self_and_ancestors(n[4]).collect::<Vec<_>>(),
            vec![n[4], n[2], n[0]]
        );
    }

    #[test]
    fn ancestor_iterators_report_exact_lengths() {
        let (t, n, c) = figure6_like();
        assert_eq!(t.ancestors_of_node(n[0]).len(), 0);
        assert_eq!(t.ancestors_of_node(n[4]).len(), 2);
        assert_eq!(t.self_and_ancestors(n[4]).len(), 3);
        assert_eq!(t.ancestors_of_client(c[2]).len(), 3);
        // The hint shrinks as the iterator advances.
        let mut it = t.ancestors_of_client(c[2]);
        it.next();
        assert_eq!(it.size_hint(), (2, Some(2)));
        // Fused: keeps returning None at the end.
        let mut it = t.ancestors_of_node(n[0]);
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn client_ancestors_are_candidate_servers() {
        let (t, n, c) = figure6_like();
        assert_eq!(
            t.ancestors_of_client(c[2]).collect::<Vec<_>>(),
            vec![n[4], n[2], n[0]]
        );
        assert_eq!(
            t.ancestors_of_client(c[4]).collect::<Vec<_>>(),
            vec![n[3], n[0]]
        );
        assert!(t.is_on_client_path(c[2], n[0]));
        assert!(t.is_on_client_path(c[2], n[4]));
        assert!(!t.is_on_client_path(c[2], n[1]));
    }

    #[test]
    fn ancestor_or_self_matches_a_parent_walk() {
        let (t, n, _) = figure6_like();
        for &a in &n {
            for &b in &n {
                let walked = {
                    let mut current = Some(a);
                    let mut found = false;
                    while let Some(x) = current {
                        if x == b {
                            found = true;
                            break;
                        }
                        current = t.parent_of_node(x);
                    }
                    found
                };
                assert_eq!(t.node_is_ancestor_or_self(a, b), walked, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn subtree_collection() {
        let (t, n, c) = figure6_like();
        let sub = t.subtree_nodes(n[3]);
        assert_eq!(sub, vec![n[3], n[5]]);
        let sub_clients = t.subtree_clients(n[3]);
        assert_eq!(sub_clients.len(), 2);
        assert!(sub_clients.contains(&c[3]));
        assert!(sub_clients.contains(&c[4]));
        // The whole tree.
        assert_eq!(t.subtree_nodes(t.root()).len(), t.num_nodes());
        assert_eq!(t.subtree_clients(t.root()).len(), t.num_clients());
    }

    #[test]
    fn distances_and_paths() {
        let (t, n, c) = figure6_like();
        assert_eq!(t.client_distance(c[2], n[4]), Some(1));
        assert_eq!(t.client_distance(c[2], n[2]), Some(2));
        assert_eq!(t.client_distance(c[2], n[0]), Some(3));
        assert_eq!(t.client_distance(c[2], n[1]), None);

        let path: Vec<LinkId> = t.client_path_links(c[2], n[0]).unwrap().collect();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], LinkId::Client(c[2]));
        assert_eq!(path[1], LinkId::Node(n[4]));
        assert_eq!(path[2], LinkId::Node(n[2]));
        assert_eq!(t.client_path_to_root(c[2]).collect::<Vec<_>>(), path);
        assert!(t.client_path_links(c[2], n[1]).is_none());
        // The lazy iterator reports its exact length.
        assert_eq!(t.client_path_links(c[2], n[0]).unwrap().len(), 3);
    }

    #[test]
    fn depths() {
        let (t, n, c) = figure6_like();
        assert_eq!(t.node_depth(n[0]), 0);
        assert_eq!(t.node_depth(n[4]), 2);
        assert_eq!(t.client_depth(c[0]), 2);
        assert_eq!(t.client_depth(c[2]), 3);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn traversal_orders_cover_all_nodes_once() {
        let (t, _, _) = figure6_like();
        for order in [t.bfs_nodes(), t.dfs_preorder_nodes(), t.postorder_nodes()] {
            assert_eq!(order.len(), t.num_nodes());
            let unique: std::collections::HashSet<_> = order.iter().collect();
            assert_eq!(unique.len(), t.num_nodes());
        }
    }

    #[test]
    fn bfs_is_level_order_and_postorder_ends_at_root() {
        let (t, n, _) = figure6_like();
        let bfs = t.bfs_nodes();
        assert_eq!(bfs[0], n[0]);
        assert_eq!(&bfs[1..4], &[n[1], n[2], n[3]]);
        let post = t.postorder_nodes();
        assert_eq!(*post.last().unwrap(), n[0]);
        // Children appear before their parents in post-order.
        let pos = |x: NodeId| post.iter().position(|&y| y == x).unwrap();
        assert!(pos(n[4]) < pos(n[2]));
        assert!(pos(n[5]) < pos(n[3]));
    }

    #[test]
    fn preorder_parents_precede_children() {
        let (t, _, _) = figure6_like();
        let pre = t.dfs_preorder_nodes();
        for (i, &node) in pre.iter().enumerate() {
            if let Some(parent) = t.parent_of_node(node) {
                let parent_pos = pre.iter().position(|&x| x == parent).unwrap();
                assert!(parent_pos < i);
            }
        }
    }

    #[test]
    fn lowest_common_ancestor_works() {
        let (t, n, _) = figure6_like();
        assert_eq!(t.lowest_common_ancestor(n[4], n[5]), n[0]);
        assert_eq!(t.lowest_common_ancestor(n[4], n[2]), n[2]);
        assert_eq!(t.lowest_common_ancestor(n[2], n[4]), n[2]);
        assert_eq!(t.lowest_common_ancestor(n[3], n[3]), n[3]);
    }

    #[test]
    fn deep_chain_traversal_is_iterative_not_recursive() {
        // A 50_000-deep chain would overflow the stack with a recursive
        // implementation; the iterative one must handle it.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let deep = b.add_node_chain(root, 50_000);
        b.add_client(deep);
        let t = b.build().unwrap();
        assert_eq!(t.postorder_nodes().len(), 50_001);
        assert_eq!(t.subtree_nodes(t.root()).len(), 50_001);
        assert_eq!(t.node_depth(deep), 50_000);
    }
}
