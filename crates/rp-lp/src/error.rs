//! Typed solver failures and solve budgets.
//!
//! # `LpError` semantics
//!
//! Historically every abnormal stop of the revised simplex collapsed
//! into [`Status::IterationLimit`], which made "the basis went
//! singular" indistinguishable from "the caller's iteration cap was too
//! small". [`LpError`] names the four distinct ways a solve can stop
//! without a proven answer:
//!
//! * [`LpError::SingularBasis`] — the sparse LU refactorisation of the
//!   current basis failed. The basis matrix is (numerically) rank
//!   deficient, so no further pivots are possible on this
//!   factorisation.
//! * [`LpError::IterationLimit`] — the per-phase pivot cap
//!   ([`crate::SimplexOptions::max_iterations`]) or the whole-solve cap
//!   ([`SolveBudget::max_iterations`]) ran out before convergence.
//! * [`LpError::DeadlineExceeded`] — the wall-clock deadline of
//!   [`SolveBudget::deadline`] passed. Deadline stops are *intentional*
//!   — the caller asked for an anytime answer — so the best primal
//!   point found so far is returned instead (see below).
//! * [`LpError::NumericalLoss`] — internal cross-checks disagreed: the
//!   phase-1 objective (bounded below by zero) priced as unbounded, the
//!   dual ratio test's BTRAN row contradicted the FTRAN column, or the
//!   pricing state desynchronised from the basis. The factorisation is
//!   not trustworthy.
//!
//! Whatever the reason, the typed value is recorded on the workspace
//! ([`crate::RevisedWorkspace::last_error`]) *in addition to* the
//! conservative [`Status`] carried by the returned [`Solution`]. A solve
//! that ends [`Status::Optimal`] with no recorded error is a proven
//! answer; the perf gate's `revised_failures_max` entry counts the
//! solves of its healthy instances that are not.
//!
//! # Budgets return the best bound so far
//!
//! A budget stop during phase 2 (or the warm-start polish) happens at a
//! *primal-feasible* basis — bounded primal simplex never leaves the
//! feasible region once phase 1 ends — so the solve extracts and
//! returns that point rather than discarding the work: the solution
//! carries `values`, its true `objective`, and a non-`Optimal` status.
//! For a minimisation this objective is an upper bound on the optimum
//! (and vice versa), which is exactly what anytime callers such as the
//! failure-repair pass need. A stop during phase 1 has no feasible
//! point yet and returns a status-only solution.
//!
//! A deadline stop during the **warm dual cleanup** (the sibling /
//! delta-resolve path, where only bounds or right-hand sides changed)
//! returns the *dual-side* best bound: every basis the dual simplex
//! visits is dual feasible, so by weak duality the objective of its
//! basic solution bounds the optimum from the other side — a lower
//! bound for a minimisation. The solution carries that value with **no
//! point** ([`crate::Solution::bound_only`];
//! [`crate::Solution::has_point`] is `false`, since the basic solution
//! is primal infeasible mid-cleanup), and the basis stays warm so the
//! next delta or a retry with a larger budget resumes where the clock
//! ran out. This is what lets the online engine bound its per-delta
//! work without ever running long under churn.
//!
//! [`Status`]: crate::Status
//! [`Status::IterationLimit`]: crate::Status::IterationLimit
//! [`Status::Optimal`]: crate::Status::Optimal
//! [`Solution`]: crate::Solution

use std::fmt;
use std::time::Duration;

use crate::solution::Status;

/// Why a solve stopped without a proven answer. See the
/// [module docs](self) for the semantics of each variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpError {
    /// The basis factorisation is (numerically) singular.
    SingularBasis,
    /// A pivot-iteration cap ran out before convergence.
    IterationLimit,
    /// The wall-clock deadline of the [`SolveBudget`] passed.
    DeadlineExceeded,
    /// Internal numerical cross-checks disagreed; the factorisation is
    /// not trustworthy.
    NumericalLoss,
}

impl LpError {
    /// The conservative [`Status`] this error maps to on the
    /// status-based API: deadline stops get their own variant, every
    /// other failure keeps the historical `IterationLimit` reporting.
    pub fn status(self) -> Status {
        match self {
            LpError::DeadlineExceeded => Status::DeadlineExceeded,
            LpError::SingularBasis | LpError::IterationLimit | LpError::NumericalLoss => {
                Status::IterationLimit
            }
        }
    }
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpError::SingularBasis => "basis factorisation is singular",
            LpError::IterationLimit => "iteration budget exhausted before convergence",
            LpError::DeadlineExceeded => "wall-clock deadline exceeded",
            LpError::NumericalLoss => "numerical accuracy lost (internal cross-checks disagree)",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for LpError {}

/// A whole-solve resource budget: wall-clock deadline and/or a cap on
/// total simplex iterations (both phases, warm-start cleanup included).
///
/// The default budget is unlimited, so existing callers are unaffected.
/// Unlike [`crate::SimplexOptions::max_iterations`] — a *per-phase*
/// pivot cap — the budget is charged across the entire solve, and a
/// budget stop returns the best primal point found so far (see the
/// [module docs](self)). The oracle ([`crate::oracle`]) ignores it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveBudget {
    /// Wall-clock allowance for the whole solve, measured from entry.
    /// `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Total simplex iterations (pivots and bound flips, all phases)
    /// allowed for the whole solve. `None` means no cap.
    pub max_iterations: Option<usize>,
}

impl SolveBudget {
    /// The default: no deadline, no iteration cap.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        deadline: None,
        max_iterations: None,
    };

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        SolveBudget {
            deadline: Some(deadline),
            ..SolveBudget::UNLIMITED
        }
    }

    /// A budget with only a whole-solve iteration cap.
    pub fn with_iterations(max_iterations: usize) -> Self {
        SolveBudget {
            max_iterations: Some(max_iterations),
            ..SolveBudget::UNLIMITED
        }
    }

    /// `true` when neither limit is set (the fast path: no per-pivot
    /// clock reads).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iterations.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_status_mapping() {
        assert_eq!(
            LpError::SingularBasis.to_string(),
            "basis factorisation is singular"
        );
        assert_eq!(LpError::DeadlineExceeded.status(), Status::DeadlineExceeded);
        assert_eq!(LpError::SingularBasis.status(), Status::IterationLimit);
        assert_eq!(LpError::NumericalLoss.status(), Status::IterationLimit);
        assert_eq!(LpError::IterationLimit.status(), Status::IterationLimit);
    }

    #[test]
    fn budget_constructors() {
        assert!(SolveBudget::UNLIMITED.is_unlimited());
        assert!(SolveBudget::default().is_unlimited());
        let d = SolveBudget::with_deadline(Duration::from_millis(5));
        assert!(!d.is_unlimited());
        assert_eq!(d.max_iterations, None);
        let i = SolveBudget::with_iterations(100);
        assert!(!i.is_unlimited());
        assert_eq!(i.deadline, None);
    }
}
