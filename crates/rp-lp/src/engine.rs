//! The options of an LP solve and the workspace every solve runs on.
//!
//! Every solve path of the workspace runs the bounded-variable revised
//! simplex ([`crate::revised`]) through [`RevisedWorkspace::solve_warm`];
//! branch-and-bound ([`crate::solve_milp`]) runs its node relaxations
//! there too. The dense tableau is only the reference the tests and the
//! perf gate compare against ([`crate::oracle`]).

use crate::error::SolveBudget;
use crate::model::Model;
use crate::revised::RevisedWorkspace;
use crate::solution::Solution;

/// Feasibility and optimality tolerance of the revised engine and of
/// the oracle.
pub(crate) const TOLERANCE: f64 = 1e-7;

/// Tunable solver parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimplexOptions {
    /// Hard cap on pivot iterations per phase. `None` picks a bound that
    /// scales with the problem size.
    pub max_iterations: Option<usize>,
    /// Number of Dantzig pricing iterations per phase before switching
    /// to Bland's rule (anti-cycling); `0` prices with Bland from the
    /// first pivot.
    pub bland_after: usize,
    /// Run the presolve reduction passes (singleton rows/columns,
    /// forcing and redundant constraints) when the working form is
    /// built; without them the form keeps every row and column.
    /// Branch-and-bound turns them off for its node solves, where
    /// per-node bound changes would invalidate the reductions. Models
    /// below the micro-size threshold skip them regardless (there they
    /// cost more than they save). The oracle has no presolve.
    pub presolve: bool,
    /// Whole-solve resource budget: wall-clock deadline and/or a total
    /// iteration cap, both unlimited by default. A budget stop returns
    /// the best primal-feasible point found so far (see
    /// [`crate::error`]). The oracle ignores it.
    pub budget: SolveBudget,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: None,
            bland_after: 10_000,
            presolve: true,
            budget: SolveBudget::UNLIMITED,
        }
    }
}

/// The LP engine. The revised simplex is the only one; the enum stays
/// so that [`solve_lp_engine`]'s callers keep building.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LpEngine {
    /// Bounded-variable revised simplex with a factorised basis.
    #[default]
    Revised,
}

/// The reusable LP state: the revised-simplex workspace, which carries
/// the last optimal basis forward for warm starts.
#[derive(Default)]
pub struct LpWorkspace {
    /// The revised-simplex workspace (factorisation, basis, scratch).
    pub revised: RevisedWorkspace,
}

impl LpWorkspace {
    /// A fresh workspace.
    pub fn new() -> Self {
        LpWorkspace::default()
    }
}

/// Solves the continuous relaxation of `model` on `workspace`: exactly
/// [`RevisedWorkspace::solve_warm`]. No library code calls it; it is
/// kept for the end-to-end benchmark harness under `perfbench/`, which
/// names it.
pub fn solve_lp_engine(
    model: &Model,
    engine: LpEngine,
    options: &SimplexOptions,
    workspace: &mut LpWorkspace,
) -> Solution {
    let LpEngine::Revised = engine;
    workspace.revised.solve_warm(model, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin_sum, Cmp, Model};
    use crate::oracle;
    use crate::solution::Status;

    #[test]
    fn both_engines_agree_through_the_facade() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(4.0), 2.0);
        let y = m.add_var("y", 0.0, None, 3.0);
        m.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 6.0);
        let mut ws = LpWorkspace::new();
        let options = SimplexOptions::default();
        let dense = oracle::solve_lp(&m);
        let revised = solve_lp_engine(&m, LpEngine::Revised, &options, &mut ws);
        assert_eq!(dense.status, Status::Optimal);
        assert_eq!(revised.status, Status::Optimal);
        assert!((dense.objective - revised.objective).abs() < 1e-6);
    }
}
