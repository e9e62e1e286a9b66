//! # rp-core — replica placement in tree networks
//!
//! The core library of this reproduction of *"Strategies for Replica
//! Placement in Tree Networks"* (Benoit, Rehn, Robert; IPPS 2007). It
//! provides:
//!
//! * [`ProblemInstance`] — a distribution tree decorated with client
//!   requests, server capacities and storage costs, optional QoS bounds
//!   and link bandwidths (Section 2);
//! * [`Policy`] — the three access policies *Closest*, *Upwards* and
//!   *Multiple* (Section 3);
//! * [`Placement`] — solutions (replica set + request assignment) with
//!   full constraint validation;
//! * [`exact`] — the paper's optimal polynomial algorithm for
//!   Multiple/homogeneous instances (Section 4.1) and an exhaustive
//!   oracle for small instances;
//! * [`heuristics`] — the eight polynomial heuristics of Section 6 plus
//!   MixedBest, and the [`heuristics::lp_guided`] rounding & repair
//!   subsystem that extends heuristic coverage to the
//!   bandwidth-constrained and multi-object families;
//! * [`ilp`] — the integer-linear-program formulations of Section 5 and
//!   the LP-based lower bounds of Section 7.1;
//! * [`bounds`] — the closed-form bounds of Section 3.4 and the exact
//!   Multiple feasibility pass;
//! * [`multi`] — the several-object-types extension of Section 8.1;
//! * [`objective`] — the read/write/combined objectives of Section 8.2;
//! * [`io`] — plain-text (de)serialisation of whole problem instances;
//! * [`failures`] — the one failure pipeline: the failure-event fold
//!   and the repair ladder, shared by the resilience sweep and the
//!   online engine in `rp-online`;
//! * [`assignment`] — request-assignment procedures for a fixed replica
//!   set, shared by the solvers above.
//!
//! ## Performance model
//!
//! The paper's experiments sweep thousands of random trees per load
//! factor, so the per-tree hot paths are engineered to be
//! allocation-free in the steady state:
//!
//! * **Dense accounting** — [`Placement::server_loads`] and
//!   [`Placement::link_flows`] return dense `NodeMap` / `LinkMap`
//!   tables indexed by id, not ordered maps; validation walks them
//!   linearly. [`Placement::accumulate_server_loads`] adds into a
//!   caller-provided buffer for zero-allocation aggregation.
//! * **Reusable heuristic state** — [`heuristics::HeuristicState`] owns
//!   every buffer a heuristic needs (`remaining`, `inreq`, scratch
//!   client lists, CTDA's top-down FIFO, CTDLF's depth-bucketed
//!   candidates) and exposes
//!   [`reset`](heuristics::HeuristicState::reset);
//!   [`Heuristic::run_with`] runs a base heuristic on such a state
//!   without allocating, and [`mixed_best`] drives all eight heuristics
//!   over one shared state. Scratch-buffer conventions are documented in
//!   [`heuristics::HeuristicState`].
//! * **Iterator traversal** — ancestor walks and path enumerations use
//!   `rp-tree`'s lazy iterators and O(1) ancestor/distance checks; no
//!   inner loop materialises a path `Vec`.
//! * **No per-server restarts** — no top-down heuristic re-traverses
//!   the tree once per placed server. CTDLF's rule restarts its
//!   traversal from the root after every server; the code re-examines
//!   only the new server's ancestors and places the same servers (see
//!   [`heuristics::ctdlf`]).
//!
//! `rp-bench`'s `heuristics_micro` bench and the `baseline` binary
//! measure both the speedups and the zero-allocation property
//! (`allocs/heuristic_steady/* == 0` in `BENCH_baseline.json`).
//!
//! ```
//! use rp_core::{Heuristic, Policy, ProblemInstance};
//! use rp_tree::TreeBuilder;
//!
//! // A toy CDN: the root, two regional hubs, four clients.
//! let mut b = TreeBuilder::new();
//! let root = b.add_root();
//! let east = b.add_node(root);
//! let west = b.add_node(root);
//! b.add_clients(east, 2);
//! b.add_clients(west, 2);
//! let tree = b.build().unwrap();
//!
//! let problem = ProblemInstance::replica_cost(
//!     tree,
//!     vec![30, 25, 40, 10],      // requests per client
//!     vec![120, 60, 60],         // capacity (= cost) per node
//! );
//!
//! let placement = Heuristic::MixedBest.run(&problem).expect("feasible");
//! assert!(placement.is_valid(&problem, Policy::Multiple));
//! assert!(placement.cost(&problem) <= 180);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Predates the workspace ban on panicking accessors (see clippy.toml);
// new long-lived code (rp-online, rp-obs) enforces it.
#![allow(clippy::disallowed_methods)]

pub mod assignment;
pub mod bounds;
pub mod delta;
pub mod dirty;
pub mod exact;
pub mod failures;
pub mod heuristics;
pub mod ilp;
pub mod io;
pub mod multi;
pub mod objective;
mod policy;
mod problem;
mod solution;

pub use delta::InstanceDelta;
pub use dirty::DirtyRegion;
pub use failures::{
    apply_failures, inject_and_repair, repair_after_failure, DegradedPlacement, DegradedPlatform,
    FailureEvent, RecoveryScope, RepairOutcome,
};
pub use heuristics::{mixed_best, BandwidthRepair, Heuristic, MixedBest, StateBuffers};
pub use policy::Policy;
pub use problem::{ProblemBuilder, ProblemInstance, ProblemKind};
pub use solution::{Assignment, Placement, Violation, Violations};
