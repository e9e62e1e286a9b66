//! # rp-tree — distribution-tree substrate
//!
//! Immutable tree networks for the replica-placement problem studied in
//! *"Strategies for Replica Placement in Tree Networks"* (Benoit, Rehn,
//! Robert; IPPS 2007). A tree is made of **internal nodes** (the
//! candidate replica locations, set `N`) and **client leaves** (the
//! request sources, set `C`); every vertex except the root has exactly
//! one link towards its parent.
//!
//! This crate is purely structural: request counts, server capacities,
//! storage costs, QoS bounds and link bandwidths live in `rp-core`'s
//! problem instances and are keyed by the typed ids defined here.
//!
//! ## Performance model
//!
//! Trees are immutable arenas, so all traversal-shaped queries are
//! precomputed at build time and served without allocating:
//!
//! * per-node **depth**, **preorder position** and **subtree size**
//!   arrays make [`TreeNetwork::node_depth`],
//!   [`TreeNetwork::client_depth`], [`TreeNetwork::client_distance`] and
//!   [`TreeNetwork::node_is_ancestor_or_self`] O(1);
//! * [`TreeNetwork::subtree_nodes`] / [`TreeNetwork::subtree_clients`]
//!   return **slices** of preorder-sorted arenas (a subtree is always
//!   one contiguous interval);
//! * [`TreeNetwork::dfs_preorder_nodes`],
//!   [`TreeNetwork::postorder_nodes`] and [`TreeNetwork::bfs_nodes`]
//!   return precomputed order slices;
//! * ancestor and path walks ([`TreeNetwork::ancestors_of_node`],
//!   [`TreeNetwork::ancestors_of_client`],
//!   [`TreeNetwork::self_and_ancestors`],
//!   [`TreeNetwork::client_path_links`]) are lazy, exact-size iterators.
//!
//! The extra build-time cost is three linear passes; the payoff is that
//! the solver inner loops in `rp-core` run allocation-free (verified by
//! `rp-bench`'s micro-benchmarks and `BENCH_baseline.json`).
//!
//! ```
//! use rp_tree::{TreeBuilder, TreeStats};
//!
//! // root -- n1 -- {c0, c1}
//! //     \-- c2
//! let mut b = TreeBuilder::new();
//! let root = b.add_root();
//! let n1 = b.add_node(root);
//! b.add_clients(n1, 2);
//! b.add_client(root);
//! let tree = b.build().unwrap();
//!
//! assert_eq!(tree.problem_size(), 5);
//! let first_client = tree.client_ids().next().unwrap();
//! // Ancestor walks are lazy, allocation-free iterators.
//! assert!(tree.ancestors_of_client(first_client).eq([n1, root]));
//! println!("{}", TreeStats::compute(&tree));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Predates the workspace ban on panicking accessors (see clippy.toml);
// new long-lived code (rp-online, rp-obs) enforces it.
#![allow(clippy::disallowed_methods)]

mod error;
mod ids;
mod tree;

pub mod dot;
pub mod stats;
pub mod text;
mod traverse;
mod validate;

pub use error::TreeError;
pub use ids::{ClientId, ClientMap, LinkId, LinkMap, NodeId, NodeMap};
pub use stats::TreeStats;
pub use traverse::{Ancestors, PathLinks};
pub use tree::{ClientHandle, NodeHandle, TreeBuilder, TreeNetwork};
pub use validate::validate;
