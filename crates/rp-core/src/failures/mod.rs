//! Fault injection and survivor repair (the resilience subsystem).
//!
//! The paper's model assumes a healthy platform; this module asks what
//! happens to a deployed placement when the platform degrades. It owns
//! the one failure pipeline, shared by the batch resilience sweep and
//! the online engine (`rp-online`):
//!
//! * **Failure model** — [`FailureEvent`] enumerates server crashes,
//!   severed links, partial capacity loss, correlated subtree failures
//!   (racks, sites) and recoveries.
//! * **One fold** — [`FailureState`] holds the outstanding failures and
//!   folds one event at a time, left to right with the worst effect
//!   winning. [`FailureState::platform`] turns it into a
//!   [`DegradedPlatform`]: a *bona fide*
//!   [`ProblemInstance`](crate::ProblemInstance) whose crashed servers
//!   have capacity 0 and whose dead links have bandwidth 0, so the
//!   entire existing stack (heuristics, validation, the exact
//!   accounting, the LP machinery) runs on it unchanged; the dead flags
//!   ride alongside for route-aliveness queries. [`apply_failures`]
//!   folds a whole trace.
//! * **One ladder** — [`repair_ladder`] adapts an incumbent placement:
//!   surgical repair of the dirty clients, an LP-guided re-solve under
//!   Multiple, a heuristic re-run, and — when full service is not found
//!   — a verified [`DegradedPlacement`] that keeps the surgical partial
//!   when it verifies. [`repair_after_failure`] is that ladder over
//!   every client with no deadline. There is no panicking path: every
//!   failure has a well-defined [`RepairOutcome`], machine-checkable
//!   via [`RepairOutcome::verify`], and every accepted answer is
//!   counted once per [`ApplyRung`].
//!
//! ```
//! use rp_core::{inject_and_repair, FailureEvent, Heuristic, Policy, ProblemInstance};
//! use rp_tree::TreeBuilder;
//!
//! let mut b = TreeBuilder::new();
//! let root = b.add_root();
//! let mid = b.add_node(root);
//! b.add_client(mid);
//! let problem = ProblemInstance::replica_cost(b.build().unwrap(), vec![3], vec![10, 5]);
//! let placement = Heuristic::Mg.run(&problem).unwrap();
//! let mid_id = problem.tree().node_ids().nth(1).unwrap();
//! let (platform, outcome) = inject_and_repair(
//!     &problem,
//!     &placement,
//!     Policy::Multiple,
//!     &[FailureEvent::ServerCrash(mid_id)],
//! );
//! assert!(outcome.verify(&platform, Policy::Multiple));
//! ```

mod apply;
mod event;
mod repair;
mod report;

pub use apply::{apply_failures, DegradedPlatform, FailureState};
pub use event::{FailureEvent, RecoveryScope};
pub use repair::{
    degraded_best_effort, heuristic_fallback, inject_and_repair, repair_after_failure,
    repair_ladder, ApplyRung,
};
pub use report::{DegradedPlacement, RepairOutcome};
