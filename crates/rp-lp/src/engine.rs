//! Solver-engine selection.
//!
//! Two LP engines coexist in this crate:
//!
//! * [`LpEngine::DenseTableau`] — the original full-tableau two-phase
//!   simplex ([`crate::simplex`]). `O(m·n)` per pivot with upper bounds
//!   materialised as extra rows; simple, battle-tested, and kept as the
//!   **differential-testing oracle** for the revised engine.
//! * [`LpEngine::Revised`] — the bounded-variable revised simplex with
//!   an LU-factorised basis ([`crate::revised`]). The default: it keeps
//!   `m` at the constraint count (no bound rows) and supports
//!   warm-started branch-and-bound.
//!
//! [`LpWorkspace`] bundles one reusable workspace per engine so callers
//! that sweep over many models (the experiment harness, benchmarks) can
//! switch engines without reallocating.

use crate::error::LpError;
use crate::model::Model;
use crate::revised::RevisedWorkspace;
use crate::simplex::{solve_lp_reusing, SimplexOptions, SimplexWorkspace};
use crate::solution::{Solution, Status};

/// Which LP engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LpEngine {
    /// Dense full-tableau two-phase simplex (the differential oracle).
    DenseTableau,
    /// Bounded-variable revised simplex with a factorised basis.
    #[default]
    Revised,
}

impl std::fmt::Display for LpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpEngine::DenseTableau => write!(f, "dense-tableau"),
            LpEngine::Revised => write!(f, "revised"),
        }
    }
}

/// Reusable buffers for both engines. Only the engine actually used
/// allocates anything.
#[derive(Default)]
pub struct LpWorkspace {
    /// The dense tableau workspace.
    pub dense: SimplexWorkspace,
    /// The revised-simplex workspace (factorisation, basis, scratch).
    pub revised: RevisedWorkspace,
}

impl LpWorkspace {
    /// A fresh workspace for either engine.
    pub fn new() -> Self {
        LpWorkspace::default()
    }
}

/// Solves the continuous relaxation of `model` with the selected engine,
/// reusing `workspace`'s buffers.
pub fn solve_lp_engine(
    model: &Model,
    engine: LpEngine,
    options: &SimplexOptions,
    workspace: &mut LpWorkspace,
) -> Solution {
    match engine {
        LpEngine::DenseTableau => solve_lp_reusing(model, options, &mut workspace.dense),
        LpEngine::Revised => workspace.revised.solve_warm(model, options),
    }
}

/// Which rung of the hardened escalation ladder produced an answer.
/// See [`solve_lp_hardened`] for the ladder itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EscalationRung {
    /// The checked revised solve answered directly, with no forced
    /// refactorisation along the way.
    CheckedRevised,
    /// The revised solve answered, but only after at least one refused
    /// Forrest–Tomlin update forced a refactor-retry inside the engine.
    RefactorRetry,
    /// The dense-tableau oracle answered after the revised engine
    /// stopped with a solver-internal failure.
    DenseOracle,
}

impl EscalationRung {
    /// The wire name used in metrics and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EscalationRung::CheckedRevised => "checked_revised",
            EscalationRung::RefactorRetry => "refactor_retry",
            EscalationRung::DenseOracle => "dense_oracle",
        }
    }
}

impl std::fmt::Display for EscalationRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A successful [`solve_lp_hardened`] outcome: the solution plus which
/// escalation rung answered — a healthy instance must answer on
/// [`EscalationRung::CheckedRevised`], and the perf-budget gate fails
/// the build when dense-oracle fallbacks appear where none are allowed.
#[derive(Clone, Debug)]
pub struct HardenedSolve {
    /// The solution the answering engine produced.
    pub solution: Solution,
    /// The rung that produced it.
    pub rung: EscalationRung,
}

/// Hardened solve: revised simplex first, dense-tableau oracle as the
/// safety net.
///
/// The escalation ladder for a failing solve is
///
/// 1. **refactor and retry** — a refused Forrest–Tomlin update already
///    triggers a refactorisation *inside* the revised engine;
/// 2. **dense-oracle fallback** — if the revised engine still stops
///    with a solver-internal failure ([`LpError::SingularBasis`] or
///    [`LpError::NumericalLoss`]), the model is re-solved on the
///    independently implemented dense tableau, whose full elimination
///    does not share the factorisation's failure mode;
/// 3. **typed error** — only when both engines fail does the caller see
///    an `Err`.
///
/// The returned [`HardenedSolve`] names the rung that answered, and the
/// same classification lands on the `lp.hardened.*` registry counters.
///
/// Budget stops ([`LpError::IterationLimit`] /
/// [`LpError::DeadlineExceeded`]) are *intentional* and never retried —
/// the best primal point found is returned when one exists, the typed
/// error otherwise.
pub fn solve_lp_hardened(
    model: &Model,
    options: &SimplexOptions,
    workspace: &mut LpWorkspace,
) -> Result<HardenedSolve, LpError> {
    let solution = workspace.revised.solve_warm(model, options);
    // A refused FT update that forced a mid-solve refactorisation is
    // the ladder's first escalation, even though the engine absorbs it
    // internally.
    let revised_rung = if workspace.revised.last_stats().refactor_ft_refused > 0 {
        EscalationRung::RefactorRetry
    } else {
        EscalationRung::CheckedRevised
    };
    let outcome = match workspace.revised.last_error() {
        None => Ok(HardenedSolve {
            solution,
            rung: revised_rung,
        }),
        Some(err @ (LpError::SingularBasis | LpError::NumericalLoss)) => {
            let oracle = solve_lp_reusing(model, options, &mut workspace.dense);
            match oracle.status {
                Status::Optimal | Status::Infeasible | Status::Unbounded => Ok(HardenedSolve {
                    solution: oracle,
                    rung: EscalationRung::DenseOracle,
                }),
                _ => Err(err),
            }
        }
        Some(err) => {
            if solution.has_point() {
                Ok(HardenedSolve {
                    solution,
                    rung: revised_rung,
                })
            } else {
                Err(err)
            }
        }
    };
    rp_obs::incr(match &outcome {
        Ok(answer) => match answer.rung {
            EscalationRung::CheckedRevised => rp_obs::Counter::LpHardenedCheckedRevised,
            EscalationRung::RefactorRetry => rp_obs::Counter::LpHardenedRefactorRetry,
            EscalationRung::DenseOracle => rp_obs::Counter::LpHardenedDenseFallback,
        },
        Err(_) => rp_obs::Counter::LpHardenedError,
    });
    // Reaching the dense oracle means the revised engine lost the
    // factorisation — rare enough that every occurrence is worth a
    // flight-recorder dump.
    if matches!(
        &outcome,
        Ok(answer) if answer.rung == EscalationRung::DenseOracle
    ) {
        rp_obs::note_anomaly(rp_obs::AnomalyKind::DenseOracle);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin_sum, Cmp, Model};
    use crate::solution::Status;

    #[test]
    fn both_engines_agree_through_the_facade() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(4.0), 2.0);
        let y = m.add_var("y", 0.0, None, 3.0);
        m.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 6.0);
        let mut ws = LpWorkspace::new();
        let options = SimplexOptions::default();
        let dense = solve_lp_engine(&m, LpEngine::DenseTableau, &options, &mut ws);
        let revised = solve_lp_engine(&m, LpEngine::Revised, &options, &mut ws);
        assert_eq!(dense.status, Status::Optimal);
        assert_eq!(revised.status, Status::Optimal);
        assert!((dense.objective - revised.objective).abs() < 1e-6);
    }

    #[test]
    fn hardened_solves_agree_with_the_plain_engine_when_healthy() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(4.0), 2.0);
        let y = m.add_var("y", 0.0, None, 3.0);
        m.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 6.0);
        let mut ws = LpWorkspace::new();
        let options = SimplexOptions::default();
        let hardened = solve_lp_hardened(&m, &options, &mut ws).expect("healthy solve");
        assert_eq!(hardened.solution.status, Status::Optimal);
        // A healthy instance answers on the first rung — no dense
        // fallback, no FT-refused refactor-retry.
        assert_eq!(hardened.rung, EscalationRung::CheckedRevised);
        let plain = solve_lp_engine(&m, LpEngine::Revised, &options, &mut ws);
        assert!((hardened.solution.objective - plain.objective).abs() < 1e-9);
    }

    #[test]
    fn hardened_solves_surface_budget_stops_as_typed_errors() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        // Two overlapping >= rows force real phase-1 pivots (the crash
        // pass cannot cover either row), so the zero deadline expires
        // before any feasible point exists.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("c1", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        m.add_constraint("c2", lin_sum([(1.0, x), (2.0, y)]), Cmp::Ge, 6.0);
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        let mut ws = LpWorkspace::new();
        let err = solve_lp_hardened(&m, &options, &mut ws).unwrap_err();
        assert_eq!(err, LpError::DeadlineExceeded);
    }

    #[test]
    fn engine_metadata() {
        assert_eq!(LpEngine::default(), LpEngine::Revised);
        assert_eq!(LpEngine::Revised.to_string(), "revised");
        assert_eq!(LpEngine::DenseTableau.to_string(), "dense-tableau");
        assert_eq!(
            EscalationRung::CheckedRevised.to_string(),
            "checked_revised"
        );
        assert_eq!(EscalationRung::RefactorRetry.to_string(), "refactor_retry");
        assert_eq!(EscalationRung::DenseOracle.to_string(), "dense_oracle");
    }
}
