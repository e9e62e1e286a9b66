//! The reference oracle: the dense two-phase tableau simplex, and
//! branch-and-bound over its relaxations.
//!
//! No library solve path reaches this module. The tests, the property
//! tests (`tests/proptest_revised_equivalence.rs` and its siblings) and
//! the perf gate's agreement invariants compare the production path,
//! [`crate::RevisedWorkspace::solve_warm`] and [`crate::solve_milp`],
//! with it. The tableau is an independent implementation: it
//! materialises every finite upper bound as a row and eliminates the
//! whole `m × n` matrix on every pivot, so it shares none of the revised
//! engine's factorisation, pricing or presolve. That also keeps it to
//! small models: the `s = 400` bound takes it hundreds of milliseconds,
//! and the `s = 2000` bandwidth bound would need a tableau of over 10 GB.

use crate::branch_bound::{branch_and_bound, BranchBoundOptions, MilpOutcome};
use crate::model::Model;

pub use crate::simplex::{solve_lp, solve_lp_reusing, SimplexWorkspace};

/// Solves `model` as a mixed-integer program with the same
/// branch-and-bound search as [`crate::solve_milp`], every node
/// relaxation re-solved from scratch on the dense tableau.
pub fn solve_milp(model: &Model, options: &BranchBoundOptions) -> MilpOutcome {
    let mut workspace = SimplexWorkspace::new();
    branch_and_bound(model, options, |relaxation, simplex| {
        solve_lp_reusing(relaxation, simplex, &mut workspace)
    })
}
