//! LP-guided rounding & repair heuristics — a decision layer on top of
//! the LP engine that covers **every** problem family, including the
//! two the paper's Section 4/6 heuristics cannot see: link-bandwidth
//! bounds and multiple object types.
//!
//! # Why LP-guided
//!
//! The classic eight heuristics reason about capacities only; on
//! bandwidth-constrained platforms they happily route more requests
//! over a link than it carries, and the multi-object problem (whose
//! heuristics the paper leaves open) has no classic counterpart at all.
//! The revised simplex, however, solves the *rational relaxation* of
//! either formulation in milliseconds — and its fractional optimum
//! already encodes where replicas want to be (`x_j` mass) and how the
//! requests want to split (`y_{i,j}`), bandwidth and shared-capacity
//! constraints included. The pipeline here turns that fractional
//! guidance into feasible integral placements:
//!
//! 1. **Extract** ([`crate::ilp::lower_bound_fractional_reusing`],
//!    [`crate::ilp::multi_lower_bound_fractional_reusing`]) — solve the
//!    rational relaxation and keep the full fractional point, object by
//!    object ([`crate::ilp::FractionalLp`]), instead of just its
//!    objective.
//! 2. **Round** ([`rounding`]) — one pipeline over objects serves both
//!    entry points: [`lp_guided`] rounds a single-object instance as one
//!    object that carries its clients' QoS bounds, [`lp_guided_multi`]
//!    rounds its K objects together. A two-strategy portfolio (commit
//!    to the LP's replica set and fill it bottom-up within the LP's load
//!    budgets, or copy the ceilinged fractional splits) is guided by the
//!    mass ordering of [`guide`], with every single assignment metered
//!    by the exact feasibility accounting of [`accounting`]: residual
//!    node capacities *and* residual link bandwidths, shared across the
//!    objects, down to the unit.
//! 3. **Repair** — requests the rounding left unserved are re-homed
//!    along their ancestor paths (open replicas first, then the
//!    best-cost-per-absorbed new ancestor, then a depth-1 augmenting
//!    rescue that relocates blocking load); afterwards a push-down /
//!    prune / consolidate pipeline drops every replica whose load
//!    re-homes for free and opens fresh ancestors that absorb thin
//!    replicas at a net saving — which is what recovers the "serve
//!    everything at the root" optima that pure mass-ordered greedy
//!    misses.
//! 4. **Retrofit** ([`BandwidthRepair`], [`repair_bandwidth`]) — the
//!    classic heuristics get a post-hoc bandwidth repair that moves
//!    saturating flows *down* (below the violated link), so the
//!    original Figure success/cost experiments run on
//!    bandwidth-constrained platforms too.
//!
//! # When LP-guided beats the classic eight
//!
//! * **Bandwidth-bound instances** — the classic heuristics only
//!   succeed when the repair pass can untangle their placements; the
//!   LP-guided rounding starts from a point that satisfies every link
//!   constraint fractionally, so its success rate tracks LP
//!   feasibility.
//! * **Multi-object instances** — the LP sees the shared capacity and
//!   link rows that couple the objects; the sequential greedy
//!   ([`crate::multi::solve_multi_greedy`]) allocates object by object
//!   and can paint itself into a corner.
//! * **Heterogeneous cost structure** — the fractional `x` mass points
//!   at the cost-efficient nodes; the classic heuristics' structural
//!   orders (top-down, bottom-up) ignore cost ratios entirely.
//!
//! On easy capacity-only instances the classic eight remain the better
//! *per-microsecond* choice (no LP solve); `MixedBest::
//! full_sweep_lp_guided` runs both and keeps the cheapest.

pub mod accounting;
pub mod guide;
pub mod multi;
pub mod repair;
pub mod rounding;

pub use multi::{lp_guided_multi, lp_guided_multi_from, lp_guided_multi_reusing};
pub use repair::{repair_bandwidth, BandwidthRepair};
pub use rounding::{lp_guided, lp_guided_from, lp_guided_reusing};
