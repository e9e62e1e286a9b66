//! Branch-and-bound for mixed-integer linear programs.
//!
//! The replica-placement formulations only declare a modest number of
//! integer variables (the replica indicators `x_j`, one per internal
//! node), so a straightforward LP-based branch-and-bound is sufficient:
//! solve the continuous relaxation, branch on the most fractional
//! integer variable, and explore the resulting subtree depth-first
//! while pruning with the incumbent.
//!
//! Every node after the root **warm-starts from the previously solved
//! node's basis**: a bound change keeps the basis dual feasible, so a
//! short dual-simplex cleanup replaces the full two-phase solve,
//! usually a handful of pivots per node. The nodes edit the bounds of
//! one scratch model in place, so a node after an optimal or a
//! dual-infeasible one patches the workspace instead of refreshing and
//! refactorising it. The basis also survives from
//! one search to the next on the same workspace, so the root of a
//! **sibling search** (same constraint matrix; only the objective,
//! right-hand sides or bounds changed, as when the tree-sharded sweep
//! re-solves one tree under another load factor) is a refactorisation
//! and a short dual cleanup instead of a cold solve. A structural
//! change is detected (`O(nnz)`) and falls back to a cold root solve.
//!
//! The solver reports both the best incumbent and the best proven bound,
//! which is exactly what the paper's "mixed" lower bound (Section 7.1)
//! needs: even when the node limit stops the search early, the weakest
//! open-node relaxation value is still a valid lower bound on the
//! optimal integer objective.
//!
//! [`crate::oracle::solve_milp`] runs the same search over dense-tableau
//! relaxations.

use crate::engine::{LpWorkspace, SimplexOptions};
use crate::model::{Model, Sense, VarId};
use crate::solution::{Solution, Status};

/// A value within this distance of an integer counts as integral.
const INTEGRALITY_TOLERANCE: f64 = 1e-6;

/// Options for the branch-and-bound search.
#[derive(Clone, Copy, Debug)]
pub struct BranchBoundOptions {
    /// LP sub-solver options. Presolve is always disabled for the node
    /// relaxations (per-node bound changes would invalidate the
    /// reductions); the flag still applies to pure-LP pass-throughs.
    pub simplex: SimplexOptions,
    /// Maximum number of explored nodes before giving up.
    pub max_nodes: usize,
}

impl Default for BranchBoundOptions {
    fn default() -> Self {
        BranchBoundOptions {
            simplex: SimplexOptions::default(),
            max_nodes: 10_000,
        }
    }
}

/// Outcome of a MILP solve, with bound information.
#[derive(Clone, Debug)]
pub struct MilpOutcome {
    /// Best integral solution found (if any), in the original sense.
    pub incumbent: Option<Solution>,
    /// Best proven bound on the optimal objective: a lower bound for
    /// minimisation problems, an upper bound for maximisation problems.
    /// `None` when the root relaxation was infeasible.
    pub bound: Option<f64>,
    /// Overall status.
    pub status: Status,
    /// Number of explored branch-and-bound nodes.
    pub explored_nodes: usize,
}

impl MilpOutcome {
    /// Convenience accessor mirroring [`Solution`]: the objective of the
    /// incumbent, if one was found.
    pub fn objective(&self) -> Option<f64> {
        self.incumbent.as_ref().map(|s| s.objective)
    }
}

/// Solves `model` as a mixed-integer program, every relaxation on the
/// revised simplex of `workspace`. The workspace holds the warm basis,
/// so reusing it across searches also reuses the factorisation buffers
/// and warm-starts the next search's root.
pub fn solve_milp(
    model: &Model,
    options: &BranchBoundOptions,
    workspace: &mut LpWorkspace,
) -> MilpOutcome {
    branch_and_bound(model, options, |relaxation, simplex| {
        workspace.revised.solve_warm(relaxation, simplex)
    })
}

/// The search itself, with each relaxation solved by `relax`: the
/// revised engine for [`solve_milp`], the dense tableau for
/// [`crate::oracle::solve_milp`].
pub(crate) fn branch_and_bound(
    model: &Model,
    options: &BranchBoundOptions,
    mut relax: impl FnMut(&Model, &SimplexOptions) -> Solution,
) -> MilpOutcome {
    let integer_vars = model.integer_vars();
    if integer_vars.is_empty() {
        let sol = relax(model, &options.simplex);
        let bound = if sol.status == Status::Optimal {
            Some(sol.objective)
        } else {
            None
        };
        let status = sol.status;
        return MilpOutcome {
            incumbent: if sol.has_point() { Some(sol) } else { None },
            bound,
            status,
            explored_nodes: 1,
        };
    }

    let minimise = model.sense() == Sense::Minimize;
    // `better(a, b)`: is objective a strictly better than b?
    let better = |a: f64, b: f64| if minimise { a < b - 1e-9 } else { a > b + 1e-9 };

    #[derive(Clone)]
    struct NodeBounds {
        // (var, lower, upper) overrides relative to the root model.
        overrides: Vec<(VarId, f64, Option<f64>)>,
    }

    let mut stack: Vec<NodeBounds> = vec![NodeBounds { overrides: vec![] }];
    let mut incumbent: Option<Solution> = None;
    let mut explored = 0usize;
    // One scratch model for the whole search: each node applies its
    // bound overrides, solves, and restores — no per-node clone.
    let mut scratch = model.clone();
    // Node relaxations must see the full constraint system: presolve
    // reductions derived from the root bounds would not survive the
    // per-node bound overrides.
    let mut node_simplex = options.simplex;
    node_simplex.presolve = false;
    let mut saved_bounds: Vec<(VarId, f64, Option<f64>)> = Vec::new();
    let mut root_relaxation: Option<f64> = None;
    let mut node_limit_hit = false;
    let mut open_bound: Option<f64> = None;

    while let Some(node) = stack.pop() {
        if explored >= options.max_nodes {
            node_limit_hit = true;
            // Nodes still on the stack were never examined: account for
            // them in the proven bound via their parent relaxations. We
            // conservatively fall back to the root relaxation below.
            break;
        }
        explored += 1;

        // Apply the node's bound overrides on the shared scratch model,
        // remembering the previous bounds for restoration.
        let conflict = node
            .overrides
            .iter()
            .any(|&(_, lower, upper)| matches!(upper, Some(ub) if ub < lower - 1e-12));
        if conflict {
            continue;
        }
        saved_bounds.clear();
        for &(var, lower, upper) in &node.overrides {
            let previous = scratch.variable(var);
            saved_bounds.push((var, previous.lower, previous.upper));
            scratch.set_bounds(var, lower, upper);
        }

        let relaxation = relax(&scratch, &node_simplex);

        // Restore in reverse, so repeated overrides of one variable
        // unwind correctly.
        for &(var, lower, upper) in saved_bounds.iter().rev() {
            scratch.set_bounds(var, lower, upper);
        }
        match relaxation.status {
            Status::Infeasible => continue,
            Status::Unbounded => {
                return MilpOutcome {
                    incumbent,
                    bound: None,
                    status: Status::Unbounded,
                    explored_nodes: explored,
                };
            }
            Status::IterationLimit | Status::DeadlineExceeded | Status::NodeLimit => {
                // Treat as an open node we could not fathom.
                node_limit_hit = true;
                continue;
            }
            Status::Optimal => {}
        }
        if root_relaxation.is_none() {
            root_relaxation = Some(relaxation.objective);
        }

        // Prune by bound.
        if let Some(ref inc) = incumbent {
            if !better(relaxation.objective, inc.objective) {
                continue;
            }
        }

        // Find the most fractional integer variable.
        let tol = INTEGRALITY_TOLERANCE;
        let mut branch_var: Option<(VarId, f64, f64)> = None; // (var, value, fractionality)
        for &var in &integer_vars {
            let value = relaxation.value(var);
            let frac = (value - value.round()).abs();
            if frac > tol {
                let distance_to_half = (value.fract() - 0.5).abs();
                match branch_var {
                    Some((_, _, best)) if distance_to_half >= best => {}
                    _ => branch_var = Some((var, value, distance_to_half)),
                }
            }
        }

        match branch_var {
            None => {
                // Integral solution: candidate incumbent. Round the integer
                // coordinates exactly to avoid drift in downstream checks.
                let mut candidate = relaxation;
                for &var in &integer_vars {
                    let v = candidate.values[var.index()].round();
                    candidate.values[var.index()] = v;
                }
                candidate.objective = model.objective_value(&candidate.values);
                let replace = match incumbent {
                    None => true,
                    Some(ref inc) => better(candidate.objective, inc.objective),
                };
                if replace {
                    incumbent = Some(candidate);
                }
            }
            Some((var, value, _)) => {
                let floor = value.floor();
                let ceil = value.ceil();
                let current = current_bounds(model, &node.overrides, var);

                // Down branch: var <= floor.
                let mut down = node.clone();
                let down_upper = Some(match current.1 {
                    Some(ub) => ub.min(floor),
                    None => floor,
                });
                down.overrides.push((var, current.0, down_upper));

                // Up branch: var >= ceil.
                let mut up = node.clone();
                up.overrides.push((var, current.0.max(ceil), current.1));

                // Track the relaxation value as the bound for whatever we
                // may leave unexplored if the node limit hits.
                open_bound = Some(match open_bound {
                    None => relaxation.objective,
                    Some(b) => {
                        if minimise {
                            b.min(relaxation.objective)
                        } else {
                            b.max(relaxation.objective)
                        }
                    }
                });

                // Depth-first: push the branch closer to the fractional
                // value last so it is explored first.
                if value - floor < ceil - value {
                    stack.push(up);
                    stack.push(down);
                } else {
                    stack.push(down);
                    stack.push(up);
                }
            }
        }
    }

    let status = if node_limit_hit {
        Status::NodeLimit
    } else if incumbent.is_some() {
        Status::Optimal
    } else {
        Status::Infeasible
    };

    // Proven bound: if the search completed, the incumbent (or
    // infeasibility) is exact; otherwise fall back to the weakest
    // relaxation observed (or the root relaxation).
    let bound = if node_limit_hit {
        open_bound.or(root_relaxation)
    } else {
        incumbent.as_ref().map(|inc| inc.objective)
    };

    MilpOutcome {
        incumbent,
        bound,
        status,
        explored_nodes: explored,
    }
}

/// Effective bounds of `var` after applying `overrides` in order on top
/// of the root model.
fn current_bounds(
    model: &Model,
    overrides: &[(VarId, f64, Option<f64>)],
    var: VarId,
) -> (f64, Option<f64>) {
    let mut lower = model.variable(var).lower;
    let mut upper = model.variable(var).upper;
    for &(v, lo, up) in overrides {
        if v == var {
            lower = lo;
            upper = up;
        }
    }
    (lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin_sum, Cmp, LinExpr, Model, Sense};
    use crate::oracle;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Every MILP test runs on the oracle and on the revised engine; the
    /// revised path also exercises the warm-started dual-simplex node
    /// solves.
    fn solve_both(m: &Model) -> [MilpOutcome; 2] {
        solve_both_with(m, &BranchBoundOptions::default())
    }

    fn solve_both_with(m: &Model, options: &BranchBoundOptions) -> [MilpOutcome; 2] {
        [
            oracle::solve_milp(m, options),
            solve_milp(m, options, &mut LpWorkspace::new()),
        ]
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 2.5);
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Optimal);
            assert_close(out.objective().unwrap(), 2.5);
            assert_close(out.bound.unwrap(), 2.5);
            assert_eq!(out.explored_nodes, 1);
        }
    }

    #[test]
    fn knapsack_is_solved_exactly() {
        // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary. Best: {b,c} = 20.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_var("a", 10.0);
        let b = m.add_binary_var("b", 13.0);
        let c = m.add_binary_var("c", 7.0);
        m.add_constraint(
            "weight",
            lin_sum([(3.0, a), (4.0, b), (2.0, c)]),
            Cmp::Le,
            6.0,
        );
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Optimal);
            assert_close(out.objective().unwrap(), 20.0);
            let sol = out.incumbent.unwrap();
            assert_close(sol.value(a), 0.0);
            assert_close(sol.value(b), 1.0);
            assert_close(sol.value(c), 1.0);
        }
    }

    #[test]
    fn integer_rounding_gap_is_respected() {
        // min x st 2x >= 7, x integer => x = 4 (LP relaxation 3.5).
        let mut m = Model::minimize();
        let x = m.add_int_var("x", 0.0, None, 1.0);
        m.add_constraint("c", lin_sum([(2.0, x)]), Cmp::Ge, 7.0);
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Optimal);
            assert_close(out.objective().unwrap(), 4.0);
            assert_close(out.bound.unwrap(), 4.0);
        }
    }

    #[test]
    fn infeasible_milp_is_detected() {
        let mut m = Model::minimize();
        let x = m.add_binary_var("x", 1.0);
        m.add_constraint("impossible", LinExpr::var(x), Cmp::Ge, 2.0);
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Infeasible);
            assert!(out.incumbent.is_none());
            assert!(out.bound.is_none());
        }
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // min 5y + x  st  x >= 3.3 - 3y,  y binary, x >= 0. Optimum 3.3.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_binary_var("y", 5.0);
        m.add_constraint("c", lin_sum([(1.0, x), (3.0, y)]), Cmp::Ge, 3.3);
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Optimal);
            assert_close(out.objective().unwrap(), 3.3);
        }
    }

    #[test]
    fn equality_constrained_milp() {
        // x + y = 5, x,y integer, min 3x + 2y => x=0, y=5, cost 10.
        let mut m = Model::minimize();
        let x = m.add_int_var("x", 0.0, None, 3.0);
        let y = m.add_int_var("y", 0.0, None, 2.0);
        m.add_constraint("sum", lin_sum([(1.0, x), (1.0, y)]), Cmp::Eq, 5.0);
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Optimal);
            assert_close(out.objective().unwrap(), 10.0);
        }
    }

    #[test]
    fn node_limit_still_reports_a_valid_bound() {
        // Vertex cover of a triangle: LP relaxation 1.5, integer optimum 2.
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..3)
            .map(|i| m.add_binary_var(format!("x{i}"), 1.0))
            .collect();
        let edges = [(0, 1), (1, 2), (0, 2)];
        for (i, (a, b)) in edges.iter().enumerate() {
            m.add_constraint(
                format!("edge{i}"),
                lin_sum([(1.0, vars[*a]), (1.0, vars[*b])]),
                Cmp::Ge,
                1.0,
            );
        }
        let capped = BranchBoundOptions {
            max_nodes: 1,
            ..BranchBoundOptions::default()
        };
        for (exact, limited) in solve_both(&m).into_iter().zip(solve_both_with(&m, &capped)) {
            assert_eq!(exact.status, Status::Optimal);
            assert_close(exact.objective().unwrap(), 2.0);

            assert_eq!(limited.status, Status::NodeLimit);
            let bound = limited.bound.expect("root relaxation bound");
            assert!(
                bound <= 2.0 + 1e-6,
                "bound {bound} must not exceed the optimum"
            );
            assert!(
                bound >= 1.0,
                "bound {bound} should be at least the trivial bound"
            );
        }
    }

    #[test]
    fn maximisation_milp_prunes_correctly() {
        // max 4x + 3y st x + y <= 3.5, x <= 2.2, integers -> x=2, y=1 -> 11.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, Some(2.2), 4.0);
        let y = m.add_int_var("y", 0.0, None, 3.0);
        m.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), Cmp::Le, 3.5);
        for out in solve_both(&m) {
            assert_eq!(out.status, Status::Optimal);
            assert_close(out.objective().unwrap(), 11.0);
        }
    }

    #[test]
    fn explored_node_count_is_reported() {
        let mut m = Model::minimize();
        let x = m.add_int_var("x", 0.0, None, 1.0);
        m.add_constraint("c", lin_sum([(2.0, x)]), Cmp::Ge, 7.0);
        let out = solve_milp(&m, &BranchBoundOptions::default(), &mut LpWorkspace::new());
        assert!(out.explored_nodes >= 1);
    }

    #[test]
    fn sibling_searches_reuse_the_basis_and_agree_with_cold_runs() {
        // The same constraint matrix under shifting objective/rhs: the
        // searches sharing one workspace (each root warm-starts from the
        // previous search's basis) must agree with searches on fresh
        // workspaces, which start cold.
        let build = |profit: f64, budget: f64| {
            let mut m = Model::new(Sense::Maximize);
            let a = m.add_binary_var("a", profit);
            let b = m.add_binary_var("b", 13.0);
            let c = m.add_binary_var("c", 7.0);
            m.add_constraint(
                "w",
                lin_sum([(3.0, a), (4.0, b), (2.0, c)]),
                Cmp::Le,
                budget,
            );
            m
        };
        let mut warm_ws = LpWorkspace::new();
        let options = BranchBoundOptions::default();
        for (profit, budget) in [(10.0, 6.0), (2.0, 6.0), (10.0, 9.0), (1.0, 4.0)] {
            let m = build(profit, budget);
            let warm = solve_milp(&m, &options, &mut warm_ws);
            let cold = solve_milp(&m, &options, &mut LpWorkspace::new());
            assert_eq!(warm.status, cold.status, "profit={profit} budget={budget}");
            match (warm.objective(), cold.objective()) {
                (Some(a), Some(b)) => assert_close(a, b),
                (None, None) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn warm_and_cold_searches_agree_on_a_batch_of_milps() {
        // A family of knapsack-ish MILPs solved on the oracle and on
        // one shared revised workspace (warm basis carried across
        // searches).
        let mut ws = LpWorkspace::new();
        for trial in 0..6u32 {
            let mut m = Model::new(Sense::Maximize);
            let weights = [3.0 + f64::from(trial % 3), 4.0, 2.0, 5.0];
            let profits = [10.0, 13.0 - f64::from(trial % 2), 7.0, 9.0];
            let vars: Vec<_> = (0..4)
                .map(|i| m.add_binary_var(format!("v{i}"), profits[i]))
                .collect();
            let expr = lin_sum(vars.iter().zip(weights).map(|(&v, w)| (w, v)));
            m.add_constraint("w", expr, Cmp::Le, 8.0 + f64::from(trial));
            let options = BranchBoundOptions::default();
            let dense = oracle::solve_milp(&m, &options);
            let revised = solve_milp(&m, &options, &mut ws);
            assert_eq!(dense.status, revised.status, "trial {trial}");
            match (dense.objective(), revised.objective()) {
                (Some(a), Some(b)) => assert_close(a, b),
                (None, None) => {}
                other => panic!("incumbent mismatch on trial {trial}: {other:?}"),
            }
        }
    }
}
