//! Dense two-phase primal simplex: the reference oracle.
//!
//! No solve path of the workspace runs this code. It is the
//! independently implemented second opinion that the tests, the
//! property tests and the perf gate compare the revised engine with,
//! reached through [`crate::oracle`].
//!
//! The solver works on the continuous relaxation of a [`Model`]: integer
//! markers are ignored here ([`crate::oracle::solve_milp`] layers
//! integrality on top).
//!
//! The implementation is a textbook full-tableau simplex:
//!
//! 1. shift every variable by its lower bound so all variables are
//!    non-negative, and turn finite upper bounds into extra rows;
//! 2. normalise rows to non-negative right-hand sides and add slack,
//!    surplus and artificial columns;
//! 3. phase 1 minimises the sum of artificials to find a basic feasible
//!    solution (or prove infeasibility);
//! 4. phase 2 minimises the true objective, with Dantzig pricing and an
//!    automatic switch to Bland's rule to guarantee termination.
//!
//! This is `O(m·n)` memory and `O(m·n)` work per pivot: ample up to the
//! paper-scale `s = 400` bound, out of reach for the `s = 2000`
//! bandwidth bound.
//!
//! # Buffer reuse
//!
//! The tableau is stored row-major in one flat `Vec<f64>` inside a
//! [`SimplexWorkspace`]. A workspace can be handed to
//! [`solve_lp_reusing`] across many solves (the oracle's
//! branch-and-bound does this for every node), in which case the matrix
//! and all per-phase vectors keep their capacity: after the first solve
//! of a given shape, building and solving a tableau performs no heap
//! allocation beyond the returned [`Solution`]'s value vector.

use crate::engine::{SimplexOptions, TOLERANCE};
use crate::model::{Cmp, Model, Sense};
use crate::solution::{Solution, Status};

/// Solves the continuous relaxation of `model` with default options.
pub fn solve_lp(model: &Model) -> Solution {
    solve_lp_reusing(
        model,
        &SimplexOptions::default(),
        &mut SimplexWorkspace::new(),
    )
}

/// Solves the continuous relaxation of `model`, reusing the buffers of
/// `workspace`. Repeated solves of same-shaped models (e.g. the nodes of
/// a branch-and-bound tree) allocate nothing after the first call.
pub fn solve_lp_reusing(
    model: &Model,
    options: &SimplexOptions,
    workspace: &mut SimplexWorkspace,
) -> Solution {
    Tableau::build(model, options, workspace).solve(model)
}

/// Column classification inside the tableau.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ColKind {
    /// Shifted structural variable (index into the model's variables).
    Structural(usize),
    /// Slack or surplus column.
    Slack,
    /// Artificial column (phase 1 only).
    Artificial,
}

/// Reusable buffers for the dense simplex. See [`solve_lp_reusing`].
#[derive(Default)]
pub struct SimplexWorkspace {
    /// `rows x (num_cols + 1)`, row-major; the last column of every row
    /// is the right-hand side.
    data: Vec<f64>,
    /// Basis: for each row, the column currently basic in it.
    basis: Vec<usize>,
    /// Kind of every column.
    kinds: Vec<ColKind>,
    /// Phase-2 cost of every column.
    costs: Vec<f64>,
    /// Lower bounds of the original variables (for unshifting).
    lower_bounds: Vec<f64>,
    /// Per-iteration scratch: reduced costs, basic costs, the pivot row.
    reduced: Vec<f64>,
    basic_costs: Vec<f64>,
    pivot_row: Vec<f64>,
    phase1_costs: Vec<f64>,
}

impl SimplexWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        SimplexWorkspace::default()
    }
}

struct Tableau<'w> {
    ws: &'w mut SimplexWorkspace,
    /// Number of rows.
    m: usize,
    /// Number of columns excluding the RHS; row stride is `cols + 1`.
    cols: usize,
    /// Constant added back to the objective after solving.
    objective_shift: f64,
    /// `true` when the model maximises (costs negated internally).
    maximise: bool,
    options: SimplexOptions,
    /// Set when preprocessing already proved infeasibility.
    trivially_infeasible: bool,
}

impl<'w> Tableau<'w> {
    fn build(model: &Model, options: &SimplexOptions, ws: &'w mut SimplexWorkspace) -> Self {
        let n = model.num_vars();
        let maximise = model.sense() == Sense::Maximize;
        ws.lower_bounds.clear();
        ws.lower_bounds
            .extend(model.variables.iter().map(|v| v.lower));

        let objective_shift: f64 = model.variables.iter().map(|v| v.objective * v.lower).sum();

        // Row census: every constraint plus one bound row per finite
        // upper bound. The RHS (after the lower-bound shift) decides
        // whether a slack and/or an artificial column is needed.
        let mut trivially_infeasible = false;
        let num_bound_rows = model.variables.iter().filter(|v| v.upper.is_some()).count();
        let m = model.constraints.len() + num_bound_rows;

        let shifted_rhs = |terms: &[(crate::model::VarId, f64)], rhs: f64| -> f64 {
            let mut shifted = rhs;
            for &(var, coeff) in terms {
                shifted -= coeff * ws.lower_bounds[var.index()];
            }
            shifted
        };

        let mut num_slack = 0usize;
        let mut num_art = 0usize;
        let mut census = |cmp: Cmp, rhs: f64| match effective_cmp(cmp, rhs < 0.0) {
            Cmp::Le => num_slack += 1,
            Cmp::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Cmp::Eq => num_art += 1,
        };
        for c in &model.constraints {
            census(c.cmp, shifted_rhs(&c.terms, c.rhs));
        }
        for v in &model.variables {
            if let Some(ub) = v.upper {
                let range = ub - v.lower;
                if range < 0.0 {
                    trivially_infeasible = true;
                }
                census(Cmp::Le, range);
            }
        }

        let cols = n + num_slack + num_art;
        let stride = cols + 1;
        ws.data.clear();
        ws.data.resize(m * stride, 0.0);
        ws.basis.clear();
        ws.basis.resize(m, usize::MAX);
        ws.kinds.clear();
        ws.kinds.extend((0..n).map(ColKind::Structural));
        ws.kinds
            .extend(std::iter::repeat_n(ColKind::Slack, num_slack));
        ws.kinds
            .extend(std::iter::repeat_n(ColKind::Artificial, num_art));
        ws.costs.clear();
        ws.costs.extend(model.variables.iter().map(|v| {
            if maximise {
                -v.objective
            } else {
                v.objective
            }
        }));
        ws.costs
            .extend(std::iter::repeat_n(0.0, num_slack + num_art));

        // Fill pass.
        let mut next_slack = n;
        let mut next_art = n + num_slack;
        let mut row = 0usize;
        for c in &model.constraints {
            let rhs = shifted_rhs(&c.terms, c.rhs);
            fill_row(
                &mut ws.data,
                &mut ws.basis,
                row,
                stride,
                cols,
                &mut next_slack,
                &mut next_art,
                c.terms.iter().map(|&(var, coeff)| (var.index(), coeff)),
                c.cmp,
                rhs,
            );
            row += 1;
        }
        for (j, v) in model.variables.iter().enumerate() {
            if let Some(ub) = v.upper {
                let range = ub - v.lower;
                fill_row(
                    &mut ws.data,
                    &mut ws.basis,
                    row,
                    stride,
                    cols,
                    &mut next_slack,
                    &mut next_art,
                    std::iter::once((j, 1.0)),
                    Cmp::Le,
                    range,
                );
                row += 1;
            }
        }
        debug_assert_eq!(row, m);

        Tableau {
            ws,
            m,
            cols,
            objective_shift,
            maximise,
            options: *options,
            trivially_infeasible,
        }
    }

    #[inline]
    fn stride(&self) -> usize {
        self.cols + 1
    }

    #[inline]
    fn at(&self, row: usize, col: usize) -> f64 {
        self.ws.data[row * self.stride() + col]
    }

    fn solve(mut self, model: &Model) -> Solution {
        if self.trivially_infeasible {
            return Solution::status_only(Status::Infeasible);
        }
        let tol = TOLERANCE;

        // ---- Phase 1: minimise the sum of artificial variables. ----
        let has_artificials = self.ws.kinds.contains(&ColKind::Artificial);
        if has_artificials {
            let mut phase1_costs = std::mem::take(&mut self.ws.phase1_costs);
            phase1_costs.clear();
            phase1_costs.extend(self.ws.kinds.iter().map(|k| {
                if *k == ColKind::Artificial {
                    1.0
                } else {
                    0.0
                }
            }));
            let outcome =
                self.run_phase(&phase1_costs, /* allow_artificial_entering = */ true);
            let phase1_obj = self.objective_of(&phase1_costs);
            self.ws.phase1_costs = phase1_costs;
            match outcome {
                PhaseOutcome::Optimal => {}
                PhaseOutcome::Unbounded => {
                    // Phase 1 objective is bounded below by 0; this would be
                    // a numerical failure. Treat conservatively.
                    return Solution::status_only(Status::IterationLimit);
                }
                PhaseOutcome::IterationLimit => {
                    return Solution::status_only(Status::IterationLimit);
                }
            }
            if phase1_obj > tol * 10.0 {
                return Solution::status_only(Status::Infeasible);
            }
            self.drive_out_artificials();
        }

        // ---- Phase 2: minimise the shifted objective. ----
        let phase2_costs = std::mem::take(&mut self.ws.costs);
        let outcome = self.run_phase(&phase2_costs, /* allow_artificial_entering = */ false);
        self.ws.costs = phase2_costs;
        match outcome {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => return Solution::status_only(Status::Unbounded),
            PhaseOutcome::IterationLimit => return Solution::status_only(Status::IterationLimit),
        }

        // Extract the solution, unshift, restore the sense.
        let mut values = self.ws.lower_bounds.clone();
        let rhs_col = self.cols;
        for (row, &col) in self.ws.basis.iter().enumerate() {
            if let ColKind::Structural(j) = self.ws.kinds[col] {
                values[j] += self.at(row, rhs_col).max(0.0);
            }
        }
        let mut objective = model.objective_value(&values);
        // Guard against tiny negative noise around zero.
        if objective.abs() < tol {
            objective = 0.0;
        }
        let _ = self.objective_shift; // already folded in via objective_value
        let _ = self.maximise;
        Solution {
            status: Status::Optimal,
            objective,
            values,
        }
    }

    /// Value of `costs` at the current basic solution.
    fn objective_of(&self, costs: &[f64]) -> f64 {
        let rhs = self.cols;
        self.ws
            .basis
            .iter()
            .enumerate()
            .map(|(row, &col)| costs[col] * self.at(row, rhs))
            .sum()
    }

    /// Runs pivots until optimality for the given cost vector.
    fn run_phase(&mut self, costs: &[f64], allow_artificial_entering: bool) -> PhaseOutcome {
        let tol = TOLERANCE;
        let m = self.m;
        let n = self.cols;
        let stride = self.stride();
        let max_iter = self
            .options
            .max_iterations
            .unwrap_or_else(|| 200 + 50 * (m + n));

        for iteration in 0..max_iter {
            // Reduced costs: r_j = c_j - c_B^T (B^-1 A_j), accumulated
            // row-major so the flat matrix is walked sequentially.
            let mut reduced = std::mem::take(&mut self.ws.reduced);
            let mut basic_costs = std::mem::take(&mut self.ws.basic_costs);
            reduced.clear();
            reduced.extend_from_slice(&costs[..n]);
            basic_costs.clear();
            basic_costs.extend(self.ws.basis.iter().map(|&c| costs[c]));
            for (row, &bc) in basic_costs.iter().enumerate() {
                if bc != 0.0 {
                    let row_data = &self.ws.data[row * stride..row * stride + n];
                    for (r, &a) in reduced.iter_mut().zip(row_data) {
                        *r -= bc * a;
                    }
                }
            }

            let use_bland = iteration >= self.options.bland_after;
            let entering =
                self.choose_entering(&reduced, tol, use_bland, allow_artificial_entering);
            self.ws.reduced = reduced;
            self.ws.basic_costs = basic_costs;
            let entering = match entering {
                Some(j) => j,
                None => return PhaseOutcome::Optimal,
            };

            // Ratio test.
            let rhs_col = self.cols;
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for row in 0..m {
                let a = self.at(row, entering);
                if a > tol {
                    let ratio = self.at(row, rhs_col) / a;
                    let better = ratio < best_ratio - tol
                        || (ratio < best_ratio + tol
                            && leaving
                                .map(|l| self.ws.basis[row] < self.ws.basis[l])
                                .unwrap_or(true));
                    if better {
                        best_ratio = ratio;
                        leaving = Some(row);
                    }
                }
            }
            let leaving = match leaving {
                Some(row) => row,
                None => return PhaseOutcome::Unbounded,
            };

            self.pivot(leaving, entering);
        }
        PhaseOutcome::IterationLimit
    }

    fn choose_entering(
        &self,
        reduced: &[f64],
        tol: f64,
        use_bland: bool,
        allow_artificial: bool,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (j, &r) in reduced.iter().enumerate() {
            if !allow_artificial && self.ws.kinds[j] == ColKind::Artificial {
                continue;
            }
            if r < -tol {
                if use_bland {
                    return Some(j);
                }
                match best {
                    Some((_, best_r)) if r >= best_r => {}
                    _ => best = Some((j, r)),
                }
            }
        }
        best.map(|(j, _)| j)
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let stride = self.stride();
        let rhs = self.cols;
        let base = pivot_row * stride;
        let pivot_value = self.ws.data[base + pivot_col];
        debug_assert!(pivot_value.abs() > 0.0, "pivot on a zero element");
        let inv = 1.0 / pivot_value;
        for value in &mut self.ws.data[base..base + stride] {
            *value *= inv;
        }
        // Stash the normalised pivot row in the reusable scratch so the
        // elimination loop can read it while mutating other rows.
        let mut pivot_copy = std::mem::take(&mut self.ws.pivot_row);
        pivot_copy.clear();
        pivot_copy.extend_from_slice(&self.ws.data[base..base + stride]);
        for row in 0..self.m {
            if row == pivot_row {
                continue;
            }
            let row_base = row * stride;
            let factor = self.ws.data[row_base + pivot_col];
            if factor != 0.0 {
                let row_data = &mut self.ws.data[row_base..row_base + stride];
                for (value, &p) in row_data.iter_mut().zip(&pivot_copy) {
                    *value -= factor * p;
                }
                // Clean up numerical dust in the pivot column and RHS.
                row_data[pivot_col] = 0.0;
                if row_data[rhs].abs() < 1e-12 {
                    row_data[rhs] = 0.0;
                }
            }
        }
        self.ws.pivot_row = pivot_copy;
        self.ws.basis[pivot_row] = pivot_col;
    }

    /// After phase 1, replace basic artificial variables (at value 0) by
    /// structural or slack columns wherever possible, so phase 2 never
    /// pivots on them.
    fn drive_out_artificials(&mut self) {
        let tol = TOLERANCE;
        for row in 0..self.m {
            if self.ws.kinds[self.ws.basis[row]] != ColKind::Artificial {
                continue;
            }
            // Find any non-artificial column with a non-zero entry.
            let replacement = (0..self.cols)
                .find(|&j| self.ws.kinds[j] != ColKind::Artificial && self.at(row, j).abs() > tol);
            if let Some(col) = replacement {
                self.pivot(row, col);
            }
            // If none exists the row is redundant; the artificial stays
            // basic at value zero, which is harmless because artificials
            // are barred from entering in phase 2.
        }
    }
}

/// Writes one normalised tableau row: applies the sign flip for negative
/// right-hand sides and installs the slack / surplus / artificial
/// columns, recording the initial basic column.
#[allow(clippy::too_many_arguments)]
fn fill_row(
    data: &mut [f64],
    basis: &mut [usize],
    row: usize,
    stride: usize,
    cols: usize,
    next_slack: &mut usize,
    next_art: &mut usize,
    terms: impl Iterator<Item = (usize, f64)>,
    cmp: Cmp,
    rhs: f64,
) {
    let base = row * stride;
    let flip = rhs < 0.0;
    let sign = if flip { -1.0 } else { 1.0 };
    for (j, coeff) in terms {
        data[base + j] += sign * coeff;
    }
    data[base + cols] = sign * rhs;
    match effective_cmp(cmp, flip) {
        Cmp::Le => {
            data[base + *next_slack] = 1.0;
            basis[row] = *next_slack;
            *next_slack += 1;
        }
        Cmp::Ge => {
            data[base + *next_slack] = -1.0;
            *next_slack += 1;
            data[base + *next_art] = 1.0;
            basis[row] = *next_art;
            *next_art += 1;
        }
        Cmp::Eq => {
            data[base + *next_art] = 1.0;
            basis[row] = *next_art;
            *next_art += 1;
        }
    }
}

fn effective_cmp(cmp: Cmp, rhs_negative: bool) -> Cmp {
    if !rhs_negative {
        return cmp;
    }
    match cmp {
        Cmp::Le => Cmp::Ge,
        Cmp::Ge => Cmp::Le,
        Cmp::Eq => Cmp::Eq,
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin_sum, LinExpr, Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn maximisation_with_two_variables() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => 36 at (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 3.0);
        let y = m.add_var("y", 0.0, None, 5.0);
        m.add_constraint("c1", LinExpr::var(x), Cmp::Le, 4.0);
        m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
        m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn minimisation_with_ge_constraints_needs_phase_one() {
        // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3  => x=7,y=3 -> 23.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 2.0);
        let y = m.add_var("y", 0.0, None, 3.0);
        m.add_constraint("sum", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 10.0);
        m.add_constraint("xmin", LinExpr::var(x), Cmp::Ge, 2.0);
        m.add_constraint("ymin", LinExpr::var(y), Cmp::Ge, 3.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 23.0);
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn equality_constraints_are_respected() {
        // min x + y  s.t. x + 2y = 8, x <= 4: x = 8-2y, obj = 8 - y, so
        // maximise y: y <= 4 (x >= 0). Best y=4, x=0, obj 4.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(4.0), 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("eq", lin_sum([(1.0, x), (2.0, y)]), Cmp::Eq, 8.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 4.0);
        assert_close(sol.value(x), 0.0);
        assert_close(sol.value(y), 4.0);
    }

    #[test]
    fn infeasible_system_is_detected() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(1.0), 1.0);
        m.add_constraint("too_big", LinExpr::var(x), Cmp::Ge, 5.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Infeasible);
        assert!(!sol.has_point());
    }

    #[test]
    fn contradictory_equalities_are_infeasible() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("a", lin_sum([(1.0, x), (1.0, y)]), Cmp::Eq, 4.0);
        m.add_constraint("b", lin_sum([(1.0, x), (1.0, y)]), Cmp::Eq, 6.0);
        assert_eq!(solve_lp(&m).status, Status::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        // max x with only a lower bound.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 1.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 1.0);
        assert_eq!(solve_lp(&m).status, Status::Unbounded);
    }

    #[test]
    fn lower_bound_shift_is_applied() {
        // min x + y with x >= 3, y >= 4 and x + y >= 10 => 10.
        let mut m = Model::minimize();
        let x = m.add_var("x", 3.0, None, 1.0);
        let y = m.add_var("y", 4.0, None, 1.0);
        m.add_constraint("sum", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 10.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 10.0);
        assert!(sol.value(x) >= 3.0 - 1e-9);
        assert!(sol.value(y) >= 4.0 - 1e-9);
    }

    #[test]
    fn inverted_bounds_are_infeasible() {
        let mut m = Model::minimize();
        // Upper bound below lower bound cannot be constructed through the
        // checked API, so emulate it with constraints.
        let x = m.add_var("x", 2.0, None, 1.0);
        m.add_constraint("ub", LinExpr::var(x), Cmp::Le, 1.0);
        assert_eq!(solve_lp(&m).status, Status::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic cycling-prone instance (Beale's example). Bland's rule
        // fallback must terminate with the optimum (maximisation form:
        // max 0.75a - 150b + 0.02c - 6d).
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", 0.0, None, 0.75);
        let b = m.add_var("b", 0.0, None, -150.0);
        let c = m.add_var("c", 0.0, None, 0.02);
        let d = m.add_var("d", 0.0, None, -6.0);
        m.add_constraint(
            "r1",
            lin_sum([(0.25, a), (-60.0, b), (-0.04, c), (9.0, d)]),
            Cmp::Le,
            0.0,
        );
        m.add_constraint(
            "r2",
            lin_sum([(0.5, a), (-90.0, b), (-0.02, c), (3.0, d)]),
            Cmp::Le,
            0.0,
        );
        m.add_constraint("r3", LinExpr::var(c), Cmp::Le, 1.0);
        let options = SimplexOptions {
            bland_after: 20,
            ..SimplexOptions::default()
        };
        let sol = solve_lp_reusing(&m, &options, &mut SimplexWorkspace::new());
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn zero_constraint_model_uses_bounds_only() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.5, Some(9.0), 2.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 3.0);
        assert_close(sol.value(x), 1.5);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // x - y <= -2 with x,y >= 0: equivalent to y >= x + 2.
        // min y s.t. that => x = 0, y = 2.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 0.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("neg", lin_sum([(1.0, x), (-1.0, y)]), Cmp::Le, -2.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 2.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase_two() {
        // Same equality twice: redundant artificial row must be handled.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("e1", lin_sum([(1.0, x), (1.0, y)]), Cmp::Eq, 5.0);
        m.add_constraint("e2", lin_sum([(2.0, x), (2.0, y)]), Cmp::Eq, 10.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 5.0);
        assert_close(sol.value(x), 5.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn transportation_like_problem() {
        // Two suppliers (cap 20, 30), three consumers (demand 10, 25, 15),
        // costs:
        //        c1 c2 c3
        //   s1:   2  3  1
        //   s2:   5  4  8
        // Optimal plan: s1 -> c3 (15 @ 1) + c1 (5 @ 2) = 25,
        //               s2 -> c1 (5 @ 5) + c2 (25 @ 4) = 125, total 150.
        let mut m = Model::minimize();
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let caps = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        let mut vars = vec![vec![]; 2];
        for (s, row) in costs.iter().enumerate() {
            for (c, &cost) in row.iter().enumerate() {
                vars[s].push(m.add_var(format!("x{s}{c}"), 0.0, None, cost));
            }
        }
        for s in 0..2 {
            let expr = lin_sum(vars[s].iter().map(|&v| (1.0, v)));
            m.add_constraint(format!("cap{s}"), expr, Cmp::Le, caps[s]);
        }
        for c in 0..3 {
            let expr = lin_sum((0..2).map(|s| (1.0, vars[s][c])));
            m.add_constraint(format!("dem{c}"), expr, Cmp::Ge, demands[c]);
        }
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 150.0);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn solution_respects_upper_bounds() {
        // max x + y with x <= 2, y <= 3 (as variable bounds).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, Some(2.0), 1.0);
        let y = m.add_var("y", 0.0, Some(3.0), 1.0);
        m.add_constraint("mix", lin_sum([(1.0, x), (1.0, y)]), Cmp::Le, 10.0);
        let sol = solve_lp(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 5.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 3.0);
        let y = m.add_var("y", 0.0, None, 5.0);
        m.add_constraint("c1", LinExpr::var(x), Cmp::Le, 4.0);
        m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
        m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
        let options = SimplexOptions {
            max_iterations: Some(1),
            ..SimplexOptions::default()
        };
        let sol = solve_lp_reusing(&m, &options, &mut SimplexWorkspace::new());
        assert_eq!(sol.status, Status::IterationLimit);
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        // The same workspace must solve a sequence of differently shaped
        // models and report the same answers as fresh solves.
        let mut ws = SimplexWorkspace::new();
        for trial in 0..3 {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_var("x", 0.0, Some(4.0 + trial as f64), 3.0);
            let y = m.add_var("y", 0.0, None, 5.0);
            m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
            m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
            let fresh = solve_lp(&m);
            let reused = solve_lp_reusing(&m, &SimplexOptions::default(), &mut ws);
            assert_eq!(fresh.status, reused.status);
            assert_close(fresh.objective, reused.objective);
        }
        // An infeasible solve must not poison the workspace.
        let mut infeasible = Model::minimize();
        let x = infeasible.add_var("x", 0.0, Some(1.0), 1.0);
        infeasible.add_constraint("big", LinExpr::var(x), Cmp::Ge, 5.0);
        assert_eq!(
            solve_lp_reusing(&infeasible, &SimplexOptions::default(), &mut ws).status,
            Status::Infeasible
        );
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 2.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 2.5);
        let sol = solve_lp_reusing(&m, &SimplexOptions::default(), &mut ws);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 5.0);
    }
}
