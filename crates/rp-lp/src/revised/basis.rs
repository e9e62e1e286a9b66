//! Standard-form matrix and basis bookkeeping for the revised simplex.
//!
//! Every solve works on one form. [`Presolve`] analyses the
//! [`Model`](crate::Model) first: singleton rows become bound
//! tightenings, redundant and forcing constraints (zero-request clients,
//! saturated capacities, nodes without eligible clients) are eliminated
//! together with the variables they pin, and empty or singleton columns
//! are fixed at their optimal bound. A solve that does not presolve
//! (branch-and-bound's nodes, micro models) stops the analysis after its
//! bound scan, so every row and column is kept with the model's bounds.
//!
//! [`StandardForm::build_reduced`] then assembles the equality form
//! `A·x = b`, `l ≤ x ≤ u` the revised simplex works on, over the kept
//! rows and columns:
//!
//! * one row per kept constraint — variable upper bounds are **not**
//!   materialised as rows (they live in the column bounds and are
//!   enforced by the bounded ratio test), which halves `m` versus the
//!   dense tableau for the replica-placement LPs;
//! * one slack column per row with bounds that encode the comparison
//!   direction: `[0, ∞)` for `≤`, `(-∞, 0]` for `≥`, `[0, 0]` for `=`.
//!   With a `+1` coefficient everywhere the all-slack basis is the
//!   identity;
//! * artificial columns are appended per solve, only for rows whose
//!   initial slack value violates the slack bounds.
//!
//! The postsolve step of each solve restores every eliminated variable.
//! [`BasisState`] tracks which column is basic in which row, the
//! at-lower/at-upper status of every nonbasic column, and the values of
//! the basic variables.
//!
//! Every build or refresh of the form also records the model data it
//! read ([`Synced`]), so a re-solve of the same model can find its
//! right-hand-side and bound edits by diff and patch the form in place.
//! [`Presolve::absorb`] decides whether the reductions survive the
//! edits: an edited kept column takes its new bound unless presolve
//! tightened that side, a removed row an edit touches must still be
//! implied ([`Presolve::still_implied`]), and a singleton equality that
//! fixed its column re-derives the fixed value. Edited kept rows then get
//! their reduced right-hand sides recomputed ([`Presolve::reduced_rhs`]).
//! With nothing removed, every edit that leaves each column's bounds in
//! order carries over.

use crate::model::{Cmp, Constraint, Model, Sense};

/// Slack-variable bounds encoding a constraint's comparison direction.
fn slack_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, f64::INFINITY),
        Cmp::Ge => (f64::NEG_INFINITY, 0.0),
        Cmp::Eq => (0.0, 0.0),
    }
}

/// Dense column index ranges: `0..n_struct` structural,
/// `n_struct..n_struct + m` slacks, the rest artificials.
#[derive(Default)]
pub(crate) struct StandardForm {
    /// Rows (model constraints).
    pub(crate) m: usize,
    /// Structural columns (model variables).
    pub(crate) n_struct: usize,
    /// CSC of the structural columns.
    pub(crate) col_ptr: Vec<usize>,
    pub(crate) col_rows: Vec<u32>,
    pub(crate) col_vals: Vec<f64>,
    /// CSR mirror (structural columns only), used by the crash basis.
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) row_cols: Vec<u32>,
    pub(crate) row_vals: Vec<f64>,
    /// Per-column bounds, including slacks and artificials.
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    /// Phase-2 cost per column (sense-normalised to minimisation;
    /// slacks and artificials cost 0).
    pub(crate) cost: Vec<f64>,
    /// Right-hand sides.
    pub(crate) rhs: Vec<f64>,
    /// Rows of the artificial columns (one row each, coefficient
    /// `art_sign`), appended per solve.
    pub(crate) art_rows: Vec<usize>,
    pub(crate) art_signs: Vec<f64>,
    /// The model data this form was last built or refreshed from.
    pub(crate) synced: Synced,
}

impl StandardForm {
    /// Total number of columns currently defined.
    pub(crate) fn num_cols(&self) -> usize {
        self.n_struct + self.m + self.art_rows.len()
    }

    /// First artificial column index.
    pub(crate) fn art_base(&self) -> usize {
        self.n_struct + self.m
    }

    /// `true` for slack or structural columns whose bounds pin them
    /// (`ub − lb ≤ 0`): they can never usefully enter the basis.
    pub(crate) fn is_fixed(&self, col: usize) -> bool {
        self.upper[col] - self.lower[col] <= 0.0
    }

    /// Rebuilds the standard form over the rows and columns `pre` kept,
    /// folding the fixed columns into the right-hand sides and reusing
    /// every buffer. Columns and rows keep the model's order, and each
    /// row its term order; when `pre` removed nothing, the form is the
    /// model's own constraint matrix.
    pub(crate) fn build_reduced(&mut self, model: &Model, pre: &Presolve) {
        let n = pre.cols.len();
        let m = pre.rows.len();
        self.m = m;
        self.n_struct = n;
        self.art_rows.clear();
        self.art_signs.clear();

        // CSC over kept rows and columns: count, prefix, fill.
        self.col_ptr.clear();
        self.col_ptr.resize(n + 1, 0);
        for &i in &pre.rows {
            for &(var, _) in &model.constraints[i as usize].terms {
                if pre.col_kept[var.index()] {
                    self.col_ptr[pre.col_map[var.index()] as usize + 1] += 1;
                }
            }
        }
        for j in 0..n {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        let nnz = self.col_ptr[n];
        self.col_rows.clear();
        self.col_rows.resize(nnz, 0);
        self.col_vals.clear();
        self.col_vals.resize(nnz, 0.0);
        for (ri, &i) in pre.rows.iter().enumerate() {
            for &(var, coeff) in &model.constraints[i as usize].terms {
                if pre.col_kept[var.index()] {
                    let rj = pre.col_map[var.index()] as usize;
                    let slot = self.col_ptr[rj];
                    self.col_rows[slot] = ri as u32;
                    self.col_vals[slot] = coeff;
                    self.col_ptr[rj] += 1;
                }
            }
        }
        for j in (1..=n).rev() {
            self.col_ptr[j] = self.col_ptr[j - 1];
        }
        self.col_ptr[0] = 0;

        // CSR mirror over the kept entries, preserving term order.
        self.row_ptr.clear();
        self.row_cols.clear();
        self.row_vals.clear();
        self.row_ptr.push(0);
        for &i in &pre.rows {
            for &(var, coeff) in &model.constraints[i as usize].terms {
                if pre.col_kept[var.index()] {
                    self.row_cols.push(pre.col_map[var.index()]);
                    self.row_vals.push(coeff);
                }
            }
            self.row_ptr.push(self.row_cols.len());
        }

        // Bounds, costs and right-hand sides via the shared refresher.
        for column_data in [&mut self.lower, &mut self.upper, &mut self.cost] {
            column_data.clear();
            column_data.resize(n + m, 0.0);
        }
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
        self.refresh_reduced(model, pre);
    }

    /// Refreshes the reduced structural bounds, objective, right-hand
    /// sides **and the slack bounds** from `model` and the (re-analysed)
    /// `pre` (the full warm entry; the stored basis stays valid because
    /// none of these enter the basis matrix — the slack bounds encode
    /// each constraint's comparison direction, so refreshing them lets
    /// the warm path absorb even a flipped `≤`/`≥`/`=`). The eliminated
    /// rows/columns must match the ones this form was built from.
    pub(crate) fn refresh_reduced(&mut self, model: &Model, pre: &Presolve) {
        let maximise = model.sense() == Sense::Maximize;
        for (rj, &j) in pre.cols.iter().enumerate() {
            let j = j as usize;
            self.lower[rj] = pre.lower[j];
            self.upper[rj] = pre.upper[j];
            let objective = model.variables[j].objective;
            self.cost[rj] = if maximise { -objective } else { objective };
        }
        let n = pre.cols.len();
        for (ri, &i) in pre.rows.iter().enumerate() {
            let c = &model.constraints[i as usize];
            self.rhs[ri] = pre.reduced_rhs(c);
            let (slo, shi) = slack_bounds(c.cmp);
            self.lower[n + ri] = slo;
            self.upper[n + ri] = shi;
        }
        self.synced.sync(model);
    }

    /// `true` when `model`'s kept entries are entry-for-entry the ones
    /// this form was built from (compared against the CSR mirror, which
    /// preserves the model's term order). `O(nnz)` — cheap next to a
    /// solve, and what lets `solve_warm` keep its documented promise of
    /// falling back to a cold solve whenever anything but bounds, costs
    /// or right-hand sides changed. The reductions must match the built
    /// ones ([`Presolve::matches_built`]).
    pub(crate) fn matrix_matches_reduced(&self, model: &Model, pre: &Presolve) -> bool {
        for (ri, &i) in pre.rows.iter().enumerate() {
            let mut cursor = self.row_ptr[ri];
            let end = self.row_ptr[ri + 1];
            for &(var, coeff) in &model.constraints[i as usize].terms {
                if !pre.col_kept[var.index()] {
                    continue;
                }
                if cursor == end
                    || self.row_cols[cursor] != pre.col_map[var.index()]
                    || self.row_vals[cursor] != coeff
                {
                    return false;
                }
                cursor += 1;
            }
            if cursor != end {
                return false;
            }
        }
        true
    }

    /// Applies `f(row, value)` to every entry of column `col`.
    #[inline]
    pub(crate) fn for_each_entry(&self, col: usize, mut f: impl FnMut(usize, f64)) {
        if col < self.n_struct {
            for k in self.col_ptr[col]..self.col_ptr[col + 1] {
                f(self.col_rows[k] as usize, self.col_vals[k]);
            }
        } else if col < self.art_base() {
            f(col - self.n_struct, 1.0);
        } else {
            let a = col - self.art_base();
            f(self.art_rows[a], self.art_signs[a]);
        }
    }

    /// Dot product of column `col` with a dense row-indexed vector.
    #[inline]
    pub(crate) fn col_dot(&self, col: usize, v: &[f64]) -> f64 {
        if col < self.n_struct {
            let mut sum = 0.0;
            for k in self.col_ptr[col]..self.col_ptr[col + 1] {
                sum += self.col_vals[k] * v[self.col_rows[k] as usize];
            }
            sum
        } else if col < self.art_base() {
            v[col - self.n_struct]
        } else {
            let a = col - self.art_base();
            self.art_signs[a] * v[self.art_rows[a]]
        }
    }
}

/// The model data a [`StandardForm`] was last built or refreshed from,
/// indexed like the model. A re-solve of the same model diffs against
/// it to find what was edited: `O(m + n)` scalar compares, and no edit
/// log inside [`Model`].
#[derive(Default)]
pub(crate) struct Synced {
    /// [`Model::identity`] of the model (0 before the first sync).
    id: u64,
    /// Right-hand side per model row.
    rhs: Vec<f64>,
    /// Bounds per model variable, `+∞` where it has no upper bound.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Objective coefficient per model variable.
    objective: Vec<f64>,
}

impl Synced {
    fn sync(&mut self, model: &Model) {
        self.id = model.identity();
        self.rhs.clear();
        self.rhs.extend(model.constraints.iter().map(|c| c.rhs));
        self.lower.clear();
        self.upper.clear();
        self.objective.clear();
        for v in &model.variables {
            self.lower.push(v.lower);
            self.upper.push(upper_bound(v.upper));
            self.objective.push(v.objective);
        }
    }

    /// `true` when `model` is the synced model at the synced shape,
    /// which proves its constraint matrix unchanged (see [`Model`]).
    pub(crate) fn same_matrix(&self, model: &Model) -> bool {
        self.id == model.identity()
            && self.rhs.len() == model.num_constraints()
            && self.lower.len() == model.num_vars()
    }

    /// Fills `rows` with the rows whose right-hand side, and `cols` with
    /// the columns whose bounds, differ from the synced ones. Returns
    /// `false` when an objective coefficient differs: objective edits
    /// take the full warm entry.
    pub(crate) fn edits(&self, model: &Model, rows: &mut Vec<u32>, cols: &mut Vec<u32>) -> bool {
        rows.clear();
        cols.clear();
        for (j, v) in model.variables.iter().enumerate() {
            if v.objective != self.objective[j] {
                return false;
            }
            if (v.lower, upper_bound(v.upper)) != (self.lower[j], self.upper[j]) {
                cols.push(j as u32);
            }
        }
        for (i, (c, &rhs)) in model.constraints.iter().zip(&self.rhs).enumerate() {
            if c.rhs != rhs {
                rows.push(i as u32);
            }
        }
        true
    }

    /// Records the edits [`Synced::edits`] found as synced.
    pub(crate) fn record(&mut self, model: &Model, rows: &[u32], cols: &[u32]) {
        for &i in rows {
            self.rhs[i as usize] = model.constraints[i as usize].rhs;
        }
        for &j in cols {
            let v = &model.variables[j as usize];
            self.lower[j as usize] = v.lower;
            self.upper[j as usize] = upper_bound(v.upper);
        }
    }
}

/// A model upper bound as a number: `+∞` when there is none.
pub(crate) fn upper_bound(upper: Option<f64>) -> f64 {
    upper.unwrap_or(f64::INFINITY)
}

/// Coefficient magnitude below which a term is treated as absent.
const LIVE_TOL: f64 = 1e-12;
/// Detection tolerance for forcing constraints and redundancy.
const FORCE_TOL: f64 = 1e-9;
/// Violation above which presolve declares the model infeasible —
/// matched to the phase-1 acceptance threshold of the solver
/// (`tolerance * 10`), so presolve and the full solve agree on
/// borderline instances.
const INFEAS_TOL: f64 = 1e-6;

/// A row's activity range over the surviving columns' bounds, with the
/// fixed columns folded into its right-hand side.
struct RowActivity {
    /// Right-hand side less the fixed columns' contribution.
    rhs: f64,
    /// Terms on surviving columns with a coefficient above [`LIVE_TOL`].
    live: usize,
    /// The last live term: `(column, coefficient)`.
    single: (usize, f64),
    min: f64,
    max: f64,
}

/// The redundancy test: the column bounds alone imply the row. Never
/// true of an equality.
fn implied(cmp: Cmp, act: &RowActivity) -> bool {
    match cmp {
        Cmp::Le => act.max <= act.rhs + FORCE_TOL,
        Cmp::Ge => act.min >= act.rhs - FORCE_TOL,
        Cmp::Eq => false,
    }
}

/// What an in-place patch changed about a column.
#[derive(Clone, Copy, Default, PartialEq)]
enum Moved {
    #[default]
    No,
    /// A kept column's bounds.
    Bounds,
    /// A removed column's fixed value.
    Fixed,
}

/// The presolve pass: bound tightenings, eliminated rows and fixed
/// columns, plus the original↔reduced index maps. See the module docs.
#[derive(Default)]
pub(crate) struct Presolve {
    /// Tightened bounds per original variable.
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    /// Value of each eliminated (fixed) variable.
    pub(crate) fixed: Vec<f64>,
    /// Surviving rows / columns of the current analysis.
    pub(crate) row_kept: Vec<bool>,
    pub(crate) col_kept: Vec<bool>,
    /// Removed rows a reduction was derived from: a singleton row that
    /// tightened a bound, or a forcing row.
    pub(crate) row_derived: Vec<bool>,
    /// The masks the current reduced form was built from (the warm
    /// path re-analyses and only reuses the basis when they match).
    built_row_kept: Vec<bool>,
    built_col_kept: Vec<bool>,
    /// Reduced→original index lists and the original→reduced maps
    /// (`u32::MAX` for a removed row or column), frozen at build time.
    pub(crate) rows: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) row_map: Vec<u32>,
    pub(crate) col_map: Vec<u32>,
    /// The removed rows, frozen at build time, and `(column, row)` for
    /// every term of a kept row on a removed column, sorted, built by the
    /// first re-derivation after a build (`folds_built`): the rows an
    /// in-place patch may have to re-check or re-fold.
    removed_rows: Vec<u32>,
    folds: Vec<(u32, u32)>,
    folds_built: bool,
    // ---- patch scratch ----
    /// What an in-place patch moved, per column (all `Moved::No`
    /// between patches).
    moved: Vec<Moved>,
    /// `(column, row)` per fixed value a singleton equality re-derived.
    rederived: Vec<(u32, u32)>,
    // ---- analysis scratch ----
    occ: Vec<u32>,
    occ_row: Vec<u32>,
    occ_coeff: Vec<f64>,
    stamp: Vec<u32>,
    stamp_gen: u32,
}

impl Presolve {
    /// Analyses `model`, filling the masks, tightened bounds and fixed
    /// values. Without `reduce` the analysis stops after its bound scan:
    /// every row and column is kept, with the model's bounds. Returns
    /// `false` when the analysis proves the model infeasible, as
    /// inverted model bounds (`ub < lb`) always do.
    pub(crate) fn analyze(&mut self, model: &Model, reduce: bool) -> bool {
        let n = model.num_vars();
        let m = model.num_constraints();
        self.lower.clear();
        self.upper.clear();
        self.fixed.clear();
        self.fixed.resize(n, 0.0);
        self.row_kept.clear();
        self.row_kept.resize(m, true);
        self.row_derived.clear();
        self.row_derived.resize(m, false);
        self.col_kept.clear();
        self.col_kept.resize(n, true);
        for v in &model.variables {
            let ub = upper_bound(v.upper);
            if ub < v.lower {
                return false;
            }
            self.lower.push(v.lower);
            self.upper.push(ub);
        }
        if !reduce {
            return true;
        }

        self.occ.clear();
        self.occ.resize(n, 0);
        self.occ_row.clear();
        self.occ_row.resize(n, 0);
        self.occ_coeff.clear();
        self.occ_coeff.resize(n, 0.0);
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.stamp_gen = 0;
        let maximise = model.sense() == Sense::Maximize;
        for _pass in 0..16 {
            let mut changed = false;
            // Column occurrences over the surviving rows (refreshed per
            // pass; rows dropped mid-pass only ever overcount, which
            // the next pass corrects).
            self.occ.iter_mut().for_each(|o| *o = 0);
            for (i, c) in model.constraints.iter().enumerate() {
                if !self.row_kept[i] {
                    continue;
                }
                for &(var, a) in &c.terms {
                    let j = var.index();
                    if self.col_kept[j] && a.abs() > LIVE_TOL {
                        self.occ[j] += 1;
                        self.occ_row[j] = i as u32;
                        self.occ_coeff[j] = a;
                    }
                }
            }

            // Row pass: singletons, redundancy, forcing.
            for (i, c) in model.constraints.iter().enumerate() {
                if !self.row_kept[i] {
                    continue;
                }
                let act = self.activity(c);
                let rhs = act.rhs;
                match act.live {
                    0 => {
                        let violated = match c.cmp {
                            Cmp::Le => rhs < -INFEAS_TOL,
                            Cmp::Ge => rhs > INFEAS_TOL,
                            Cmp::Eq => rhs.abs() > INFEAS_TOL,
                        };
                        if violated {
                            return false;
                        }
                        self.row_kept[i] = false;
                        changed = true;
                    }
                    1 => {
                        // Singleton row: a bound on its only variable.
                        let (j, a) = act.single;
                        let v = rhs / a;
                        let (tighten_upper, tighten_lower) = match c.cmp {
                            Cmp::Le => (a > 0.0, a < 0.0),
                            Cmp::Ge => (a < 0.0, a > 0.0),
                            Cmp::Eq => (true, true),
                        };
                        if tighten_upper && v < self.upper[j] {
                            self.upper[j] = v;
                            self.row_derived[i] = true;
                        }
                        if tighten_lower && v > self.lower[j] {
                            self.lower[j] = v;
                            self.row_derived[i] = true;
                        }
                        if self.lower[j] > self.upper[j] {
                            if self.lower[j] - self.upper[j] > INFEAS_TOL {
                                return false;
                            }
                            let mid = 0.5 * (self.lower[j] + self.upper[j]);
                            self.lower[j] = mid;
                            self.upper[j] = mid;
                        }
                        self.row_kept[i] = false;
                        changed = true;
                    }
                    _ => {
                        let (min_act, max_act) = (act.min, act.max);
                        let (infeasible, force_min, force_max) = match c.cmp {
                            Cmp::Le => (
                                min_act > rhs + INFEAS_TOL,
                                min_act >= rhs - FORCE_TOL,
                                false,
                            ),
                            Cmp::Ge => (
                                max_act < rhs - INFEAS_TOL,
                                false,
                                max_act <= rhs + FORCE_TOL,
                            ),
                            Cmp::Eq => (
                                min_act > rhs + INFEAS_TOL || max_act < rhs - INFEAS_TOL,
                                min_act >= rhs - FORCE_TOL,
                                max_act <= rhs + FORCE_TOL,
                            ),
                        };
                        if infeasible {
                            return false;
                        }
                        if implied(c.cmp, &act) {
                            self.row_kept[i] = false;
                            changed = true;
                        } else if (force_min || force_max) && self.row_without_duplicates(c) {
                            // Forcing: feasibility needs the extreme
                            // activity, which pins every live variable
                            // to the bound attaining it.
                            for &(var, a) in &c.terms {
                                let j = var.index();
                                if !self.col_kept[j] || a.abs() <= LIVE_TOL {
                                    continue;
                                }
                                let at_lower = (a > 0.0) == force_min;
                                let value = if at_lower {
                                    self.lower[j]
                                } else {
                                    self.upper[j]
                                };
                                debug_assert!(value.is_finite());
                                self.fixed[j] = value;
                                self.col_kept[j] = false;
                            }
                            self.row_kept[i] = false;
                            self.row_derived[i] = true;
                            changed = true;
                        }
                    }
                }
            }

            // Column pass: collapsed bounds, empty and singleton columns.
            for j in 0..n {
                if !self.col_kept[j] {
                    continue;
                }
                let (lo, hi) = (self.lower[j], self.upper[j]);
                if hi.is_finite() && lo.is_finite() && hi - lo <= FORCE_TOL {
                    self.fixed[j] = lo;
                    self.col_kept[j] = false;
                    changed = true;
                    continue;
                }
                let objective = model.variables[j].objective;
                let cost = if maximise { -objective } else { objective };
                match self.occ[j] {
                    0 => {
                        // Empty column: park it at the objective's
                        // preferred finite bound; an unboundedly
                        // improving free column stays for the solver to
                        // report Unbounded on.
                        let target = if cost > LIVE_TOL {
                            lo.is_finite().then_some(lo)
                        } else if cost < -LIVE_TOL {
                            hi.is_finite().then_some(hi)
                        } else if lo.is_finite() {
                            Some(lo)
                        } else if hi.is_finite() {
                            Some(hi)
                        } else {
                            Some(0.0)
                        };
                        if let Some(value) = target {
                            self.fixed[j] = value;
                            self.col_kept[j] = false;
                            changed = true;
                        }
                    }
                    1 if self.row_kept[self.occ_row[j] as usize] => {
                        // Singleton column: if one bound both relaxes
                        // its only constraint and (weakly) improves the
                        // objective, some optimum has the variable
                        // there — fix it.
                        let a = self.occ_coeff[j];
                        let down = match model.constraints[self.occ_row[j] as usize].cmp {
                            Cmp::Le => Some(a > 0.0),
                            Cmp::Ge => Some(a < 0.0),
                            Cmp::Eq => None,
                        };
                        let Some(down) = down else { continue };
                        let obj_compatible = if down {
                            cost >= -LIVE_TOL
                        } else {
                            cost <= LIVE_TOL
                        };
                        let target = if down { lo } else { hi };
                        if obj_compatible && target.is_finite() {
                            self.fixed[j] = target;
                            self.col_kept[j] = false;
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        true
    }

    /// `c`'s activity range over the current bounds of the surviving
    /// columns, with the fixed columns folded into its right-hand side.
    fn activity(&self, c: &Constraint) -> RowActivity {
        let mut act = RowActivity {
            rhs: c.rhs,
            live: 0,
            single: (0, 0.0),
            min: 0.0,
            max: 0.0,
        };
        for &(var, a) in &c.terms {
            let j = var.index();
            if !self.col_kept[j] {
                act.rhs -= a * self.fixed[j];
                continue;
            }
            if a.abs() <= LIVE_TOL {
                continue;
            }
            act.live += 1;
            act.single = (j, a);
            let (lo, hi) = (self.lower[j], self.upper[j]);
            if a > 0.0 {
                act.min += a * lo;
                act.max += a * hi;
            } else {
                act.min += a * hi;
                act.max += a * lo;
            }
        }
        act
    }

    /// `c`'s right-hand side in the reduced form: the fixed columns'
    /// contribution folded in.
    pub(crate) fn reduced_rhs(&self, c: &Constraint) -> f64 {
        let mut rhs = c.rhs;
        for &(var, coeff) in &c.terms {
            if !self.col_kept[var.index()] {
                rhs -= coeff * self.fixed[var.index()];
            }
        }
        rhs
    }

    /// `true` when removed row `i` (the model's row `c`, right-hand side
    /// possibly edited since the analysis) needs nothing in the reduced
    /// form: no reduction was derived from it, and the final bounds
    /// still imply it by the redundancy test of [`Presolve::analyze`].
    /// Such a row constrains no point of the reduced problem, so the
    /// reductions derived from the other rows stay valid.
    pub(crate) fn still_implied(&self, i: usize, c: &Constraint) -> bool {
        !self.row_derived[i] && implied(c.cmp, &self.activity(c))
    }

    /// Carries the reductions across in-place edits of the synced model:
    /// `rows` are the model rows whose right-hand side and `cols` the
    /// model columns whose bounds differ from `synced`. Updates the
    /// tightened bounds and fixed values to the edited model and fills
    /// `refold` with the kept rows whose reduced right-hand side must be
    /// recomputed. Returns `false` when some reduction may no longer
    /// hold; the caller then re-runs the analysis, which rebuilds every
    /// array this touched.
    ///
    /// * A kept column takes its new model bound on each edited side,
    ///   unless presolve had tightened that side.
    /// * An edited removed row that is a singleton equality, and fixed
    ///   its column, re-derives the fixed value (`rhs / a`) when it lies
    ///   within the column's new bounds; any other removed column with
    ///   edited bounds fails.
    /// * A removed row whose right-hand side was edited, or that has a
    ///   term on a re-derived column, must pass
    ///   [`Presolve::still_implied`]; one with a term on a kept column
    ///   whose bounds moved must still be implied unless it derived a
    ///   reduction (then a singleton that tightened a side the edit left
    ///   alone: forcing rows keep no live column).
    pub(crate) fn absorb(
        &mut self,
        model: &Model,
        synced: &Synced,
        rows: &[u32],
        cols: &[u32],
        refold: &mut Vec<u32>,
    ) -> bool {
        self.moved.resize(model.num_vars(), Moved::No);
        self.rederived.clear();
        refold.clear();
        let absorbed = self.absorb_edits(model, synced, rows, cols, refold);
        for &j in cols {
            self.moved[j as usize] = Moved::No;
        }
        for &(j, _) in &self.rederived {
            self.moved[j as usize] = Moved::No;
        }
        absorbed
    }

    /// The body of [`Presolve::absorb`], leaving `moved` marked.
    fn absorb_edits(
        &mut self,
        model: &Model,
        synced: &Synced,
        rows: &[u32],
        cols: &[u32],
        refold: &mut Vec<u32>,
    ) -> bool {
        for &j in cols {
            let j = j as usize;
            if !self.col_kept[j] {
                continue; // must be re-derived below
            }
            let v = &model.variables[j];
            let (lower, upper) = (v.lower, upper_bound(v.upper));
            if lower != synced.lower[j] {
                if self.lower[j] != synced.lower[j] {
                    return false;
                }
                self.lower[j] = lower;
            }
            if upper != synced.upper[j] {
                if self.upper[j] != synced.upper[j] {
                    return false;
                }
                self.upper[j] = upper;
            }
            if self.lower[j] > self.upper[j] {
                return false;
            }
            self.moved[j] = Moved::Bounds;
        }
        for &i in rows {
            let i = i as usize;
            if self.row_kept[i] {
                refold.push(i as u32);
                continue;
            }
            let c = &model.constraints[i];
            let [(var, a)] = c.terms[..] else { continue };
            let j = var.index();
            if c.cmp != Cmp::Eq || !self.row_derived[i] || self.col_kept[j] || a.abs() <= LIVE_TOL {
                continue;
            }
            let v = &model.variables[j];
            let value = c.rhs / a;
            // A second equality re-deriving the same column fails.
            if self.moved[j] == Moved::Fixed || value < v.lower || value > upper_bound(v.upper) {
                return false;
            }
            self.fixed[j] = value;
            self.moved[j] = Moved::Fixed;
            self.rederived.push((j as u32, i as u32));
        }
        if cols
            .iter()
            .any(|&j| !self.col_kept[j as usize] && self.moved[j as usize] != Moved::Fixed)
        {
            return false;
        }
        // Only edited removed rows can be touched while no column moved.
        let candidates = if cols.is_empty() && self.rederived.is_empty() {
            rows
        } else {
            &self.removed_rows
        };
        for &i in candidates {
            let i = i as usize;
            if self.row_kept[i] || self.rederived.iter().any(|&(_, row)| row as usize == i) {
                continue;
            }
            let c = &model.constraints[i];
            let moved = |kind| {
                c.terms
                    .iter()
                    .any(|&(var, _)| self.moved[var.index()] == kind)
            };
            let holds = if c.rhs != synced.rhs[i] || moved(Moved::Fixed) {
                self.still_implied(i, c)
            } else if moved(Moved::Bounds) {
                self.row_derived[i] || implied(c.cmp, &self.activity(c))
            } else {
                true
            };
            if !holds {
                return false;
            }
        }
        if !self.rederived.is_empty() && !self.folds_built {
            self.build_folds(model);
        }
        for &(j, _) in &self.rederived {
            let start = self.folds.partition_point(|&(col, _)| col < j);
            let on_j = self.folds[start..].iter().take_while(|&&(col, _)| col == j);
            refold.extend(on_j.map(|&(_, row)| row));
        }
        true
    }

    /// `true` when no surviving variable appears twice in `c` — the
    /// precondition for the forcing-row fix (duplicated terms make the
    /// per-term activity bounds unattainable).
    fn row_without_duplicates(&mut self, c: &Constraint) -> bool {
        self.stamp_gen += 1;
        for &(var, a) in &c.terms {
            let j = var.index();
            if !self.col_kept[j] || a.abs() <= LIVE_TOL {
                continue;
            }
            if self.stamp[j] == self.stamp_gen {
                return false;
            }
            self.stamp[j] = self.stamp_gen;
        }
        true
    }

    /// Sorts `(column, row)` for every term of a kept row of `model` on
    /// a removed column into `folds`.
    fn build_folds(&mut self, model: &Model) {
        self.folds.clear();
        for &i in &self.rows {
            for &(var, _) in &model.constraints[i as usize].terms {
                if !self.col_kept[var.index()] {
                    self.folds.push((var.index() as u32, i));
                }
            }
        }
        self.folds.sort_unstable();
        self.folds_built = true;
    }

    /// Freezes the reduced index maps and the removed rows, and remembers
    /// the masks the form is about to be built from.
    pub(crate) fn finalize_for_build(&mut self) {
        self.rows.clear();
        self.removed_rows.clear();
        self.row_map.clear();
        self.row_map.resize(self.row_kept.len(), u32::MAX);
        for (i, &keep) in self.row_kept.iter().enumerate() {
            if keep {
                self.row_map[i] = self.rows.len() as u32;
                self.rows.push(i as u32);
            } else {
                self.removed_rows.push(i as u32);
            }
        }
        self.folds_built = false;
        self.cols.clear();
        self.col_map.clear();
        self.col_map.resize(self.col_kept.len(), u32::MAX);
        for (j, &keep) in self.col_kept.iter().enumerate() {
            if keep {
                self.col_map[j] = self.cols.len() as u32;
                self.cols.push(j as u32);
            }
        }
        self.built_row_kept.clear();
        self.built_row_kept.extend_from_slice(&self.row_kept);
        self.built_col_kept.clear();
        self.built_col_kept.extend_from_slice(&self.col_kept);
    }

    /// `true` when the most recent [`Presolve::analyze`] produced
    /// exactly the reductions the current form was built from (with
    /// nothing removed: the same row and column counts) — the condition
    /// for warm-starting the stored basis.
    pub(crate) fn matches_built(&self) -> bool {
        self.row_kept == self.built_row_kept && self.col_kept == self.built_col_kept
    }

    /// Rows eliminated by the most recent [`Presolve::analyze`].
    pub(crate) fn rows_removed(&self) -> usize {
        self.row_kept.iter().filter(|&&kept| !kept).count()
    }

    /// Columns eliminated by the most recent [`Presolve::analyze`].
    pub(crate) fn cols_removed(&self) -> usize {
        self.col_kept.iter().filter(|&&kept| !kept).count()
    }
}

/// Where a column currently sits.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum ColStatus {
    /// Basic in the given row.
    Basic(u32),
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// The basis: row → column map, column statuses, basic values.
#[derive(Default)]
pub(crate) struct BasisState {
    pub(crate) status: Vec<ColStatus>,
    /// `basic[row]` = column basic in that row.
    pub(crate) basic: Vec<usize>,
    /// Values of the basic variables, by row.
    pub(crate) x_basic: Vec<f64>,
}

impl BasisState {
    /// Value of a nonbasic column under its current status.
    #[inline]
    pub(crate) fn nonbasic_value(&self, form: &StandardForm, col: usize) -> f64 {
        match self.status[col] {
            ColStatus::Basic(row) => self.x_basic[row as usize],
            ColStatus::Lower => form.lower[col],
            ColStatus::Upper => form.upper[col],
        }
    }

    /// Writes the dense solution (structural columns only) into `out`.
    pub(crate) fn extract_values(&self, form: &StandardForm, out: &mut Vec<f64>) {
        out.clear();
        for j in 0..form.n_struct {
            out.push(self.nonbasic_value(form, j));
        }
    }

    /// Computes `b − Σ_nonbasic a_j·x_j` into `out` (the right-hand side
    /// the basic variables must cover). `O(nnz)`.
    pub(crate) fn residual_rhs(&self, form: &StandardForm, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&form.rhs);
        for col in 0..form.num_cols() {
            match self.status[col] {
                ColStatus::Basic(_) => {}
                ColStatus::Lower | ColStatus::Upper => {
                    let value = self.nonbasic_value(form, col);
                    if value != 0.0 {
                        form.for_each_entry(col, |row, coeff| {
                            out[row] -= coeff * value;
                        });
                    }
                }
            }
        }
    }
}
