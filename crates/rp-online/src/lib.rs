//! `rp-online` — the long-lived online placement engine.
//!
//! Everything below this crate is batch: hand the stack a
//! [`ProblemInstance`](rp_core::ProblemInstance) and it solves from
//! scratch. A live video-on-demand tree — the paper's own motivating
//! application — does not work like that: clients arrive, leave and
//! drift, servers are re-provisioned, links fail and heal. This crate
//! owns the long-lived [`PlacementEngine`] that absorbs that stream of
//! [`InstanceDelta`](rp_core::InstanceDelta)s and keeps a **verified
//! incumbent placement** at all times.
//!
//! # Engine lifecycle
//!
//! ```text
//! PlacementEngine::new(problem, policy)        // solve the initial instance
//!    ├─ apply(delta, budget) ──► Applied   { generation, rung }
//!    │                       ──► Degraded  { generation, rung, unserved }
//!    │                       ──► Deferred                  (rolled back)
//!    ├─ retry_deferred(budget)      // drain the backpressure queue
//!    ├─ checkpoint() / restore(..)  // snapshot & replay
//!    └─ incumbent() / verify_incumbent() / generation()
//! ```
//!
//! # The escalation ladder
//!
//! The ladder itself lives in `rp-core`
//! ([`repair_ladder`](rp_core::failures::repair_ladder)), shared with
//! the batch resilience path. The engine folds each delta into its
//! [`FailureState`](rp_core::failures::FailureState) and demand, marks
//! the [`DirtyRegion`](rp_core::DirtyRegion) the delta can affect plus
//! the clients the previous incumbent left unserved, and climbs four
//! rungs within a per-delta [`SolveBudget`](rp_lp::SolveBudget):
//!
//! 1. **Surgical** ([`ApplyRung::Surgical`]) — repair only the dirty
//!    clients: strip what died, sync assignments to the new demand,
//!    shed overload, re-home orphans through the exact accounting.
//! 2. **LP-guided** ([`ApplyRung::LpRepair`]) — under Multiple, a warm
//!    LP re-solve from the engine's workspace, rounded back to an
//!    integral placement.
//! 3. **Re-run** ([`ApplyRung::Rerun`]) — the policy's own heuristics
//!    from scratch on the current platform.
//! 4. **Degrade** ([`ApplyRung::Degraded`]) — a machine-checkable
//!    [`DegradedPlacement`](rp_core::DegradedPlacement): serve what
//!    fits, report the rest as unserved.
//!
//! A full surgical answer ends the climb. Rungs 2 and 3 accept only a
//! placement that serves every request, so when the surgical partial
//! leaves a client that no placement can serve (its uplink is dead, or
//! no live server with capacity is reachable within its QoS bound:
//! [`DegradedPlatform::is_servable`](rp_core::DegradedPlatform::is_servable)),
//! the climb goes straight to rung 4. On a churn trace that keeps a
//! few failures outstanding, that is most applies. It also goes
//! straight to rung 4 when the partial leaves clients and the surviving
//! instance fails the exact Multiple feasibility pass
//! ([`multiple_is_feasible`](rp_core::bounds::multiple_is_feasible)):
//! every client is reachable, but the capacities, QoS bounds and
//! bandwidths cannot carry all the demand.
//!
//! What the engine adds around the ladder is the budget and deadline,
//! snapshot and rollback, the deferred queue, checkpoints and
//! per-engine [`RungCounts`].
//!
//! # Budget, rollback and backpressure
//!
//! Every apply starts from a copy-on-write snapshot of the engine
//! state (the incumbent rides behind an `Arc`, so a snapshot is O(s)
//! bookkeeping, not a placement deep-copy). If the budget expires
//! before any rung produced a *verified* answer, the apply **rolls
//! back** to that snapshot — the incumbent, its generation and the
//! platform are exactly what they were — and the delta lands in the
//! deferred queue ([`ApplyOutcome::Deferred`], the backpressure
//! signal). [`PlacementEngine::retry_deferred`] replays the queue when
//! the burst has passed.
//!
//! # Verification
//!
//! Every answer is verified exactly once, in release builds too: the
//! ladder accepts a rung's candidate only after
//! [`DegradedPlacement::verify`](rp_core::DegradedPlacement::verify)
//! passes it, and the engine installs what the ladder accepted without
//! checking it again. A ladder that accepts nothing returns no answer,
//! which the engine treats like a budget miss (roll back and defer), so
//! an unverified incumbent can never be observed. Every [`Paranoia`]
//! mode behaves alike; the enum stays so that callers that name a mode
//! keep building. [`PlacementEngine::verify_incumbent`] re-runs the
//! check for harnesses that watch the engine from outside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]

mod engine;

pub use engine::{ApplyOutcome, EngineCheckpoint, Paranoia, PlacementEngine, RungCounts};
pub use rp_core::failures::ApplyRung;
