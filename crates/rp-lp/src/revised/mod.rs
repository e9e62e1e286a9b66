//! Bounded-variable revised simplex with a factorised basis.
//!
//! This is the scalable counterpart of the dense tableau the oracle
//! runs ([`crate::oracle`]). The method keeps the constraint matrix
//! fixed and sparse (see [`basis::StandardForm`]) and represents the
//! basis inverse as a sparse LU factorisation kept current by
//! Forrest–Tomlin updates ([`factor::Factorization`]), so one iteration
//! costs close to the nonzeros it touches instead of the tableau's
//! `O(m·n)` full-matrix elimination — with `m` equal to the
//! *constraint* count only, because variable bounds are handled
//! implicitly by the ratio test ([`ratio`]) rather than materialised as
//! rows.
//!
//! Every solve runs on one working form, the presolved standard form of
//! [`basis`]. A solve that does not presolve (branch-and-bound's nodes,
//! models under [`MICRO_LP_ROWS`] rows) builds it from an analysis that
//! removes nothing, so one build, warm entry, patch and postsolve serve
//! every solve.
//!
//! Cold solves pick between two routes. When the phase-2 costs are
//! already **dual feasible at the bound point** — every structural
//! column can sit at a finite bound whose sign agrees with its cost,
//! which is true of all the min-cost replica relaxations (`c ≥ 0`,
//! everything boxed at lower bound 0) — the solve starts from the slack
//! basis and runs the **dual simplex** directly: no phase 1, no
//! artificials, and the bound-flipping dual ratio test ([`ratio`])
//! turns the many boxed columns into long dual steps. Otherwise the
//! textbook two phases run as bounded primal simplex from a **crash
//! basis** that covers infeasible rows with structural columns wherever
//! possible, so phase 1 starts with only a handful of artificials.
//!
//! For branch-and-bound, the workspace additionally supports **warm
//! starts** ([`RevisedWorkspace::solve_warm`]): after a node changes
//! variable bounds, the parent's optimal basis is still dual feasible
//! (bounds do not enter the reduced costs), so a few dual-simplex
//! pivots restore primal feasibility instead of re-running both phases
//! from scratch. The dual simplex picks the most violated row to leave
//! ([`pricing`]) and its entering column with the bound-flipping ratio
//! test. The basis is refactorised every [`REFACTOR_EVERY`] updates —
//! and the basic values recomputed from the right-hand side — to
//! squash the drift the updates accumulate.
//!
//! A warm start enters one of two ways. The full entry re-runs the
//! presolve analysis, refreshes the working form from the model and
//! refactorises the stored basis. A re-solve of the *same* model after
//! right-hand-side and bound edits instead patches the form in place
//! (`patch`), when its last solve ended optimal or the dual simplex
//! proved it infeasible: the edits are found by diffing against the
//! data the form was synced from, the presolve reductions must carry
//! over ([`basis::Presolve::absorb`]), edited rows get their reduced
//! right-hand sides and edited columns their bounds, and the basic
//! values move by one FTRAN of the change. The reduced costs of an
//! optimal last solve carry over, and so does the factorisation unless
//! its eta file is long ([`PATCH_ETA_DIV`]), so a sibling whose basis
//! stays optimal costs no pivot and usually no refactorisation. After
//! an infeasibility proof the dual simplex first tries the row that
//! proved it, which settles an infeasible sibling with no pivot when
//! the same rows still overload. Objective edits, another model value,
//! a reduction that does not carry over, inverted bounds and a last
//! solve that stopped otherwise take the full entry.

mod basis;
mod factor;
mod pricing;
mod ratio;

use std::time::Instant;

use crate::engine::{SimplexOptions, TOLERANCE};
use crate::error::LpError;
use crate::model::Model;
use crate::solution::{Solution, Status};

use basis::{BasisState, ColStatus, Presolve, StandardForm};
use factor::Factorization;
use pricing::{choose_entering, pivot_row_alphas, DualCandidates, Entering, Leaving};
use ratio::{dual_ratio_test, primal_ratio_test, DualRatio, Ratio};

/// Forrest–Tomlin updates tolerated before the basis is refactorised
/// and the basic values recomputed from scratch.
const REFACTOR_EVERY: usize = 256;

/// A patched warm entry refactorises when the eta file it inherits
/// holds more than `rows / PATCH_ETA_DIV` Forrest–Tomlin updates: every
/// FTRAN and BTRAN of the cleanup pays for each update, which on the
/// sweep's ~200-row trees (whose cold solves leave ~220 updates) costs
/// more than a fresh LU, while the s = 2000 bound's 11,519-row basis
/// keeps its factorisation.
const PATCH_ETA_DIV: usize = 8;

/// Pivot-magnitude tolerance of the ratio tests.
const PIVOT_TOL: f64 = 1e-9;

/// Constraint count below which the presolve reduction passes cost more
/// than they save (the documented ~10–20% cold-solve overhead at
/// `s ≤ 40`). Below this threshold the analysis stops after its bound
/// scan and removes nothing; the sweep's sibling warm starts are
/// unaffected.
const MICRO_LP_ROWS: usize = 50;

/// Whether a solve of `model` should run the presolve reduction passes.
fn effective_presolve(model: &Model, options: &SimplexOptions) -> bool {
    options.presolve && model.num_constraints() >= MICRO_LP_ROWS
}

/// Reusable state of the revised simplex: standard form, basis,
/// factorisation and every scratch vector. A workspace can be reused
/// across solves and carries the optimal basis forward for warm starts
/// ([`RevisedWorkspace::solve_warm`]).
#[derive(Default)]
pub struct RevisedWorkspace {
    form: StandardForm,
    basis: BasisState,
    factor: Factorization,
    presolve: Presolve,
    /// Whether the analysis `form` was built from ran its reduction
    /// passes (a changed decision forces a cold rebuild on the next
    /// solve).
    presolved: bool,
    /// How the last solve left the basis for an in-place patch: the
    /// basis, its factorisation and the presolve arrays describe the
    /// model `form` was synced from after an optimal solve or a dual
    /// simplex proof of infeasibility, and the reduced costs `d` are
    /// exact after an optimal one.
    resumable: Resumable,
    /// Model rows whose right-hand side, and model columns whose bounds,
    /// the current re-solve edited, and the kept rows whose reduced
    /// right-hand side the patch recomputes.
    edited: Vec<u32>,
    edited_cols: Vec<u32>,
    refold: Vec<u32>,
    /// Lazy heap of primal-infeasible rows (dual pricing).
    dual_cands: DualCandidates,
    /// Bound-flipping dual ratio test scratch: `(ratio, |alpha|, col)`
    /// breakpoints and the columns chosen to flip.
    breakpoints: Vec<(f64, f64, u32)>,
    flips: Vec<u32>,
    /// Dual values / BTRAN buffer.
    y: Vec<f64>,
    /// Pivot column / FTRAN buffer.
    w: Vec<f64>,
    /// Nonzero pattern of `w` while the dual loop keeps it sparse.
    w_nz: Vec<u32>,
    /// Dual pivot row buffer, kept zero outside `rho_nz`.
    rho: Vec<f64>,
    /// Nonzero pattern of `rho` (maintained by every writer of `rho`).
    rho_nz: Vec<u32>,
    /// Residual right-hand-side buffer.
    residual: Vec<f64>,
    /// Nonzero pattern of `residual` during the bound-flip FTRAN.
    residual_nz: Vec<u32>,
    /// Per-row flags used by the crash-basis construction.
    row_flags: Vec<bool>,
    /// Phase-1 cost buffer.
    phase_costs: Vec<f64>,
    /// Incrementally maintained reduced costs (one per column).
    d: Vec<f64>,
    /// Sparse pivot row: dense accumulator plus the gathered
    /// column/value lists (see [`pricing::pivot_row_alphas`]).
    alpha_acc: Vec<f64>,
    alpha_cols: Vec<u32>,
    alpha_vals: Vec<f64>,
    /// Pivot counters of the most recent solve.
    stats: SolveStats,
    /// FTRAN/BTRAN lifetime counters at solve entry (the factorisation
    /// counts monotonically; per-solve numbers are deltas).
    io_entry: (TranCounters, TranCounters),
    /// Set once a solve left behind a basis usable for warm starts.
    warm_ready: bool,
    /// Wall-clock deadline of the current solve (from the options'
    /// [`crate::SolveBudget`]), fixed at solve entry so warm-to-cold
    /// fallbacks do not restart the clock.
    deadline: Option<Instant>,
    /// Whole-solve iterations still allowed under the budget.
    budget_iters: Option<usize>,
    /// Typed reason the most recent solve stopped abnormally, if it
    /// did. See [`RevisedWorkspace::last_error`].
    last_error: Option<LpError>,
    /// Wall-clock start of the current solve, captured only while
    /// observation is on (pure measurement — never read by any solver
    /// decision, so instrumented runs stay bit-identical).
    solve_started: Option<Instant>,
}

/// Input-density counters of one transform direction (FTRAN or BTRAN):
/// how many entries the permute-in pass saw, and how many were nonzero.
/// The complement of the density is the share of work the hyper-sparse
/// transforms may skip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranCounters {
    /// Transform invocations.
    pub calls: u64,
    /// Nonzero entries across all input vectors.
    pub in_nnz: u64,
    /// Summed input-vector dimensions (total entries seen).
    pub dim: u64,
}

impl TranCounters {
    /// Counter growth since an `earlier` snapshot of the same monotone
    /// counters (per-solve deltas out of lifetime totals).
    pub(crate) fn delta_since(self, earlier: TranCounters) -> TranCounters {
        TranCounters {
            calls: self.calls.saturating_sub(earlier.calls),
            in_nnz: self.in_nnz.saturating_sub(earlier.in_nnz),
            dim: self.dim.saturating_sub(earlier.dim),
        }
    }

    /// Fraction of input entries that were exact zeros — the sparsity
    /// the transforms can exploit. `0.0` before any call.
    pub fn skip_ratio(self) -> f64 {
        if self.dim == 0 {
            0.0
        } else {
            1.0 - self.in_nnz as f64 / self.dim as f64
        }
    }
}

/// How a [`RevisedWorkspace`] solve entered: cold, or which warm-start
/// outcome answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WarmStart {
    /// Two-phase cold solve: no stored basis, a structural change, or a
    /// mid-solve fallback after the warm cleanup stalled.
    #[default]
    Cold,
    /// The warm path answered with no refactorisation past its entry:
    /// one at the full entry, none when the entry patched the workspace
    /// in place ([`SolveStats::patched`]).
    WarmHit,
    /// The warm path answered but needed further refactorisations along
    /// the way.
    WarmRefactor,
    /// A stored basis existed but the decision whether the presolve
    /// analysis runs its reduction passes changed
    /// ([`SimplexOptions::presolve`], the micro-size threshold), forcing
    /// a cold rebuild.
    ModeChangeCold,
}

impl WarmStart {
    /// The wire name used in events and metrics JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            WarmStart::Cold => "cold",
            WarmStart::WarmHit => "warm_hit",
            WarmStart::WarmRefactor => "warm_refactor",
            WarmStart::ModeChangeCold => "mode_change_cold",
        }
    }
}

/// Counters describing the most recent solve of a
/// [`RevisedWorkspace`] — what the iteration-count benchmarks, the
/// `BENCH_sparse.json` report and the `rp-obs` registry read out.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Primal simplex basis changes (phases 1 and 2 combined).
    pub primal_pivots: usize,
    /// Primal basis changes during phase 1 (artificials allowed).
    pub phase1_pivots: usize,
    /// Bound flips (nonbasic variable jumps to its opposite bound; no
    /// basis change).
    pub bound_flips: usize,
    /// Dual simplex basis changes (warm cleanups and dual cold starts).
    pub dual_pivots: usize,
    /// Bounds flipped by the bound-flipping dual ratio test, summed
    /// over dual pivots. Each flip replaces a would-be pivot;
    /// `dual_bound_flips / dual_pivots` is the long-step payoff.
    pub dual_bound_flips: usize,
    /// Basis changes with a zero step length (primal or dual).
    pub degenerate_pivots: usize,
    /// Refactorisations performed, the initial one included.
    pub refactorisations: usize,
    /// Refactorisations triggered by the eta-file budget (every 256
    /// Forrest–Tomlin updates).
    pub refactor_scheduled: usize,
    /// Refactorisations forced by a refused (numerically unsafe)
    /// Forrest–Tomlin update.
    pub refactor_ft_refused: usize,
    /// Longest chain of Forrest–Tomlin updates reached before a
    /// refactorisation.
    pub max_eta_chain: usize,
    /// Rows eliminated by presolve (0 when presolve did not run).
    pub presolve_rows_removed: usize,
    /// Columns eliminated by presolve (0 when presolve did not run).
    pub presolve_cols_removed: usize,
    /// FTRAN input-density counters for this solve.
    pub ftran: TranCounters,
    /// BTRAN input-density counters for this solve.
    pub btran: TranCounters,
    /// Which warm-start outcome this solve took.
    pub warm: WarmStart,
    /// Whether the warm entry patched the workspace in place: no
    /// presolve re-analysis and no refactorisation at entry (unless the
    /// inherited eta file was long), with the reduced costs of an optimal
    /// last solve kept (see [`RevisedWorkspace::solve_warm`]).
    pub patched: bool,
    /// Per-phase wall-time breakdown of this solve (all-zero under
    /// `ObsMode::Off`, where no clock is read).
    pub phases: rp_obs::PhaseTimes,
}

impl SolveStats {
    /// Total simplex iterations: pivots of both kinds plus bound flips.
    pub fn iterations(&self) -> usize {
        self.primal_pivots + self.bound_flips + self.dual_pivots
    }

    /// Primal basis changes during phase 2 (and the warm-start polish).
    pub fn phase2_pivots(&self) -> usize {
        self.primal_pivots - self.phase1_pivots
    }
}

impl RevisedWorkspace {
    /// A fresh workspace.
    pub fn new() -> Self {
        RevisedWorkspace::default()
    }

    /// Discards any stored basis, forcing the next solve to start cold.
    pub fn invalidate(&mut self) {
        self.warm_ready = false;
    }

    /// Solves the continuous relaxation of `model`, reusing the previous
    /// optimal basis when the constraint *matrix* is unchanged; bounds,
    /// objective and right-hand sides may all differ — branch-and-bound
    /// only changes bounds, which additionally keeps the basis dual
    /// feasible so the dual cleanup is short. Re-solving the model the
    /// workspace last solved (the same [`Model`] value, not a clone)
    /// proves the matrix unchanged in `O(1)`; any other model is
    /// compared entry for entry in `O(nnz)`. Falls back to a cold solve
    /// on any structural change, or when the dual-simplex cleanup fails;
    /// a fresh workspace (or one after [`RevisedWorkspace::invalidate`])
    /// always solves cold.
    ///
    /// When only right-hand sides and variable bounds changed since the
    /// same model's last solve, that solve ended optimal or the dual
    /// simplex proved it infeasible, and the presolve reductions carry
    /// over the edits, the workspace is patched in place instead: no
    /// presolve re-analysis, no refactorisation at entry unless the eta
    /// file has grown long, and the reduced costs of an optimal last
    /// solve reused ([`SolveStats::patched`]). Objective edits take the
    /// full warm entry, and so do inverted bounds and edits that undo a
    /// presolve reduction (a forcing row, a tightened bound, a fixed
    /// column no singleton equality re-derives).
    ///
    /// Abnormal stops are typed: [`RevisedWorkspace::last_error`] names
    /// the reason. A budget stop after reaching primal feasibility still
    /// returns the best point found so far (`Solution::has_point`); a
    /// stop with no usable point returns a status-only solution.
    pub fn solve_warm(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        let _span = rp_obs::span(rp_obs::SpanKind::LpSolve);
        self.begin_solve(options);
        let solution = self.solve_warm_inner(model, options);
        self.finish_solve(&solution);
        solution
    }

    /// The warm-path body of [`RevisedWorkspace::solve_warm`], without
    /// budget reset or telemetry bookkeeping.
    fn solve_warm_inner(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        self.stats = SolveStats::default();
        let resumable = std::mem::take(&mut self.resumable);
        if !self.warm_ready || self.presolved != effective_presolve(model, options) {
            let was_warm = self.warm_ready;
            let solution = self.solve_cold_inner(model, options);
            if was_warm {
                // A usable basis existed; only the presolve mismatch
                // forced the cold path.
                self.stats.warm = WarmStart::ModeChangeCold;
            }
            return solution;
        }
        let patched = resumable != Resumable::No && self.patch(model);
        if !patched {
            match self.refresh_warm_form(model) {
                WarmEntry::Refreshed => {}
                WarmEntry::Infeasible => return Solution::status_only(Status::Infeasible),
                WarmEntry::Rebuild => return self.solve_cold_inner(model, options),
            }
            if !self.refactor_and_recompute() {
                return self.solve_cold_inner(model, options);
            }
        }
        // The stored basis is in play: a warm hit, unless the cleanup
        // refactorises past the entry. Mid-solve cold fallbacks reset
        // the stats, reverting the classification to cold.
        let entry_refactorisations = self.stats.refactorisations;
        self.stats.warm = WarmStart::WarmHit;
        self.stats.patched = patched;
        let (d_exact, first_row) = match resumable {
            Resumable::Optimal => (patched, None),
            Resumable::Infeasible { row } => (false, patched.then_some(row)),
            Resumable::No => (false, None),
        };
        let solution = self.warm_cleanup(model, options, d_exact, first_row);
        if self.stats.warm == WarmStart::WarmHit
            && self.stats.refactorisations > entry_refactorisations
        {
            self.stats.warm = WarmStart::WarmRefactor;
        }
        solution
    }

    /// The in-place entry of a same-model re-solve after an optimal
    /// solve or a dual simplex proof of infeasibility: the
    /// right-hand-side and bound edits since that solve are found by
    /// diffing against the synced data, and the reductions must survive
    /// them ([`Presolve::absorb`]; with nothing removed, any edit that
    /// leaves every column's bounds in order does).
    /// Edited kept rows get their reduced right-hand sides recomputed,
    /// edited kept columns their bounds, and a nonbasic column whose
    /// bound vanished is re-anchored at the other one. The basic values
    /// then move by one hyper-sparse FTRAN of the change,
    /// `x_B += B⁻¹(Δb − N·Δx_N)`; the basis and the reduced costs stay as
    /// the last solve left them (bounds do not enter `d`), and so does
    /// the factorisation unless its eta file is long ([`PATCH_ETA_DIV`]),
    /// when a fresh LU recomputes the basic values instead. Returns
    /// `false`, with the form, the basis and the synced data unchanged,
    /// when the model, an objective coefficient or some reduction does
    /// not carry over, or some bounds are inverted — and also when that
    /// LU fails, after which the full entry starts over.
    fn patch(&mut self, model: &Model) -> bool {
        {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Presolve);
            let synced = &self.form.synced;
            if !synced.same_matrix(model)
                || !synced.edits(model, &mut self.edited, &mut self.edited_cols)
            {
                return false;
            }
            let (rows, cols) = (&self.edited, &self.edited_cols);
            if !self
                .presolve
                .absorb(model, synced, rows, cols, &mut self.refold)
            {
                return false;
            }
            self.residual.clear();
            self.residual.resize(self.form.m, 0.0);
            self.residual_nz.clear();
            let presolve = &self.presolve;
            let (form, basis) = (&mut self.form, &mut self.basis);
            let (residual, residual_nz) = (&mut self.residual, &mut self.residual_nz);
            let mut shift = |row: usize, delta: f64| {
                if residual[row] == 0.0 {
                    residual_nz.push(row as u32);
                }
                residual[row] += delta;
            };
            for &i in &self.refold {
                let row = presolve.row_map[i as usize] as usize;
                let rhs = presolve.reduced_rhs(&model.constraints[i as usize]);
                let delta = rhs - form.rhs[row];
                form.rhs[row] = rhs;
                if delta != 0.0 {
                    shift(row, delta);
                }
            }
            for &j in &self.edited_cols {
                let j = j as usize;
                let col = match presolve.col_map[j] {
                    u32::MAX => continue,
                    col => col as usize,
                };
                let (lower, upper) = (presolve.lower[j], presolve.upper[j]);
                let before = basis.nonbasic_value(form, col);
                form.lower[col] = lower;
                form.upper[col] = upper;
                let status = &mut basis.status[col];
                match *status {
                    ColStatus::Basic(_) => continue,
                    ColStatus::Upper if upper == f64::INFINITY => *status = ColStatus::Lower,
                    ColStatus::Lower if lower == f64::NEG_INFINITY => *status = ColStatus::Upper,
                    _ => {}
                }
                let dx = basis.nonbasic_value(form, col) - before;
                if dx != 0.0 {
                    form.for_each_entry(col, |row, a| shift(row, -a * dx));
                }
            }
            self.form
                .synced
                .record(model, &self.edited, &self.edited_cols);
        }
        // A long inherited eta file costs every FTRAN and BTRAN of the
        // cleanup more than a fresh LU does.
        if self.factor.updates() > self.form.m / PATCH_ETA_DIV {
            return self.refactor_and_recompute();
        }
        if !self.residual_nz.is_empty() {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
            self.factor
                .ftran_sparse(&mut self.residual, &mut self.residual_nz);
            for &i in &self.residual_nz {
                let i = i as usize;
                self.basis.x_basic[i] += self.residual[i];
            }
        }
        true
    }

    /// The full warm entry, timed as presolve: re-runs the presolve
    /// analysis, checks that the matrix and the reductions match the
    /// stored form, refreshes bounds, costs and right-hand sides from
    /// `model`, and re-anchors nonbasic columns whose bound vanished.
    fn refresh_warm_form(&mut self, model: &Model) -> WarmEntry {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Presolve);
        // Re-run the (cheap, O(nnz)) analysis: the stored basis is only
        // reusable when the new model eliminates exactly the same rows
        // and columns.
        if !self.presolve.analyze(model, self.presolved) {
            return WarmEntry::Infeasible;
        }
        if !self.presolve.matches_built()
            || !(self.form.synced.same_matrix(model)
                || self.form.matrix_matches_reduced(model, &self.presolve))
        {
            return WarmEntry::Rebuild;
        }
        self.form.refresh_reduced(model, &self.presolve);
        // Nonbasic columns whose bound vanished must be re-anchored.
        for col in 0..self.form.num_cols() {
            match self.basis.status[col] {
                ColStatus::Upper if self.form.upper[col] == f64::INFINITY => {
                    self.basis.status[col] = ColStatus::Lower;
                }
                ColStatus::Lower if self.form.lower[col] == f64::NEG_INFINITY => {
                    self.basis.status[col] = ColStatus::Upper;
                }
                _ => {}
            }
        }
        WarmEntry::Refreshed
    }

    /// The dual cleanup and primal polish of a warm start from the
    /// stored basis. `d_exact` says the entry kept the reduced costs of
    /// an optimal last solve, which are then exact; `first_row` is the
    /// row the dual simplex tries first when it violates a bound.
    fn warm_cleanup(
        &mut self,
        model: &Model,
        options: &SimplexOptions,
        d_exact: bool,
        first_row: Option<usize>,
    ) -> Solution {
        match self.dual_loop(options, d_exact, first_row) {
            DualOutcome::PrimalFeasible => {}
            DualOutcome::Infeasible { row } => {
                // Dual unbounded ⇒ primal infeasible. The basis stays
                // warm, and patchable, for the next sibling, which tries
                // the row that proved it first.
                self.resumable = Resumable::Infeasible { row };
                return Solution::status_only(Status::Infeasible);
            }
            // A deadline stop must not restart from scratch — that
            // would spend even longer. The dual simplex maintains dual
            // feasibility at every basis it visits, so by weak duality
            // the objective of the current (primal-infeasible) basic
            // solution is a valid bound on the optimum: return it
            // instead of discarding the cleanup work. The basis stays
            // warm for the next delta. Everything else falls back to a
            // cold solve, which historically recovers these cases.
            DualOutcome::Stopped(LpError::DeadlineExceeded) => {
                let bound = self.dual_bound_objective(model);
                self.last_error = Some(LpError::DeadlineExceeded);
                return Solution::bound_only(Status::DeadlineExceeded, bound);
            }
            DualOutcome::Stopped(_) => return self.solve_cold_inner(model, options),
        }
        // Polish with primal phase 2: exits immediately when the dual
        // cleanup already reached optimality, and absorbs any residual
        // dual infeasibility (e.g. a bound that loosened back) otherwise.
        self.polish_and_extract(model, options)
    }

    /// Primal phase-2 polish after a dual simplex run reached primal
    /// feasibility, followed by solution extraction. Exits immediately
    /// when the dual pass already proved optimality. If the dual pass
    /// made no pivot, its entry reduced costs are still exact, so the
    /// polish keeps them.
    fn polish_and_extract(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        self.load_phase2_costs();
        let costs = std::mem::take(&mut self.phase_costs);
        let d_exact = self.stats.dual_pivots == 0;
        let outcome = self.primal_loop(&costs, options, false, d_exact);
        self.phase_costs = costs;
        match outcome {
            PhaseOutcome::Optimal => self.extract(model, Status::Optimal),
            PhaseOutcome::Unbounded => Solution::status_only(Status::Unbounded),
            PhaseOutcome::Stopped(err) => {
                // The dual pass reached primal feasibility and the
                // primal polish preserves it: extract the best point
                // found so far instead of discarding the work.
                self.last_error = Some(err);
                self.extract(model, err.status())
            }
        }
    }

    /// Cold solve, ignoring any stored basis. Runs inside an open solve
    /// without resetting its budget — the warm path falls back here
    /// mid-solve, and the clock must keep running across the fallback.
    fn solve_cold_inner(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        self.stats = SolveStats::default();
        self.warm_ready = false;
        self.presolved = effective_presolve(model, options);
        {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Presolve);
            if !self.presolve.analyze(model, self.presolved) {
                return Solution::status_only(Status::Infeasible);
            }
            self.presolve.finalize_for_build();
            self.form.build_reduced(model, &self.presolve);
        }
        let m = self.form.m;
        let n = self.form.n_struct;

        // ---- Dual cold start. ----
        // When every structural column can sit at a finite bound whose
        // sign agrees with its cost, the slack basis is dual feasible
        // and the dual simplex solves the LP in one pass: no phase 1,
        // no artificials, and the bound-flipping ratio test exploits
        // the boxed columns. The min-cost replica relaxations (c ≥ 0,
        // everything boxed at lower bound 0) always qualify. Any
        // abnormal stop falls through to the classic two-phase path.
        if self.try_dual_start_basis(TOLERANCE) {
            if !self.refactor_and_recompute() {
                return self.fail(LpError::SingularBasis);
            }
            match self.dual_loop(options, false, None) {
                DualOutcome::PrimalFeasible => {
                    return self.polish_and_extract(model, options);
                }
                // The start was dual feasible, so an unbounded dual
                // step proves primal infeasibility.
                DualOutcome::Infeasible { .. } => {
                    return Solution::status_only(Status::Infeasible);
                }
                // Same weak-duality argument as the warm cleanup: the
                // dual simplex only visits dual-feasible bases, so the
                // current objective is a valid bound on the optimum.
                DualOutcome::Stopped(LpError::DeadlineExceeded) => {
                    let bound = self.dual_bound_objective(model);
                    self.last_error = Some(LpError::DeadlineExceeded);
                    return Solution::bound_only(Status::DeadlineExceeded, bound);
                }
                // Iteration cap or numerical trouble: rebuild from
                // scratch on the two-phase path (which carries the
                // Bland anti-cycling fallback).
                DualOutcome::Stopped(_) => {}
            }
        }

        // Initial point: structural columns at their (finite) lower
        // bounds; the residual decides, row by row, whether the slack
        // can be basic or an artificial is needed.
        self.basis.status.clear();
        self.basis
            .status
            .extend(std::iter::repeat_n(ColStatus::Lower, n + m));
        self.basis.basic.clear();
        self.basis.basic.resize(m, usize::MAX);
        self.basis.x_basic.clear();
        self.basis.x_basic.resize(m, 0.0);

        self.residual.clear();
        self.residual.extend_from_slice(&self.form.rhs);
        for j in 0..n {
            let lb = self.form.lower[j];
            if lb != 0.0 {
                let (col_rows, col_vals, range) = (
                    &self.form.col_rows,
                    &self.form.col_vals,
                    self.form.col_ptr[j]..self.form.col_ptr[j + 1],
                );
                for k in range {
                    self.residual[col_rows[k] as usize] -= col_vals[k] * lb;
                }
            }
        }
        // Crash pass: a row whose initial slack value violates the
        // slack bounds would need an artificial — and every artificial
        // costs phase-1 pivots to drive out again. Instead, try to make
        // a *structural* column basic in the row, at the value that
        // closes the residual exactly. The column must not touch any
        // other deficient row (so the crash columns + slacks stay block
        // triangular and trivially nonsingular) and the value must lie
        // within its bounds. On the replica formulations this covers
        // every `cover` equality with one of its `y` variables, cutting
        // phase 1 from one artificial per client to a handful.
        self.row_flags.clear();
        for row in 0..m {
            let slack = n + row;
            let r = self.residual[row];
            self.row_flags
                .push(r < self.form.lower[slack] || r > self.form.upper[slack]);
        }
        for row in 0..m {
            // `row_flags` stays set for rows that received a crash
            // column: a later candidate may not touch *any* deficient
            // row (crashed or not), which keeps every crash row's basic
            // value decoupled — the recompute below then reproduces the
            // hand-checked in-bounds values exactly.
            if !self.row_flags[row] || self.basis.basic[row] != usize::MAX {
                continue;
            }
            let r = self.residual[row];
            // (column, its coefficient in this row) of the best
            // candidate so far — carrying the coefficient avoids having
            // to re-find the entry after the scan.
            let mut chosen: Option<(usize, f64)> = None;
            for k in self.form.row_ptr[row]..self.form.row_ptr[row + 1] {
                let col = self.form.row_cols[k] as usize;
                let coeff = self.form.row_vals[k];
                if coeff.abs() < 1e-7 || self.basis.status[col] != ColStatus::Lower {
                    continue;
                }
                let value = self.form.lower[col] + r / coeff;
                if value < self.form.lower[col] || value > self.form.upper[col] {
                    continue;
                }
                let touches_deficient_row = (self.form.col_ptr[col]..self.form.col_ptr[col + 1])
                    .any(|t| {
                        let other = self.form.col_rows[t] as usize;
                        other != row && self.row_flags[other]
                    });
                if touches_deficient_row {
                    continue;
                }
                match chosen {
                    Some((_, best)) if coeff.abs() <= best.abs() => {}
                    _ => chosen = Some((col, coeff)),
                }
            }
            if let Some((col, coeff)) = chosen {
                // The column leaves its lower bound: remove the lower
                //-bound contribution already folded into the residual
                // and install the basic value.
                let value = self.form.lower[col] + r / coeff;
                let delta = value - self.form.lower[col];
                for t in self.form.col_ptr[col]..self.form.col_ptr[col + 1] {
                    let other = self.form.col_rows[t] as usize;
                    if other != row {
                        self.residual[other] -= self.form.col_vals[t] * delta;
                    }
                }
                self.basis.status[col] = ColStatus::Basic(row as u32);
                self.basis.basic[row] = col;
                self.basis.x_basic[row] = value;
                // The row's slack stays nonbasic: park it at its finite
                // bound (a `>=` slack is unbounded below, so "lower"
                // would be -inf).
                let slack = n + row;
                self.basis.status[slack] = if self.form.lower[slack].is_finite() {
                    ColStatus::Lower
                } else {
                    ColStatus::Upper
                };
            }
        }

        for row in 0..m {
            if self.basis.basic[row] != usize::MAX {
                continue; // crash column already basic here
            }
            let slack = n + row;
            let r = self.residual[row];
            let (slo, shi) = (self.form.lower[slack], self.form.upper[slack]);
            if r >= slo && r <= shi {
                self.basis.status[slack] = ColStatus::Basic(row as u32);
                self.basis.basic[row] = slack;
                self.basis.x_basic[row] = r;
            } else {
                // Park the slack at its nearest bound and cover the
                // deficit with a signed artificial.
                let (bound_status, bound_value) = if r > shi {
                    (ColStatus::Upper, shi)
                } else {
                    (ColStatus::Lower, slo)
                };
                self.basis.status[slack] = bound_status;
                let deficit = r - bound_value;
                let art_col = self.form.num_cols();
                self.form.art_rows.push(row);
                self.form.art_signs.push(deficit.signum());
                self.form.lower.push(0.0);
                self.form.upper.push(f64::INFINITY);
                self.form.cost.push(0.0);
                self.basis.status.push(ColStatus::Basic(row as u32));
                self.basis.basic[row] = art_col;
                self.basis.x_basic[row] = deficit.abs();
            }
        }

        // The crash may leave tiny inconsistencies (clamped values);
        // recomputing `x_B = B⁻¹(b − N·x_N)` makes the start exact.
        // The crash basis is block triangular by construction, so a
        // failure here means genuinely degenerate input data.
        if !self.refactor_and_recompute() {
            return self.fail(LpError::SingularBasis);
        }

        // ---- Phase 1: minimise the sum of artificials. ----
        if !self.form.art_rows.is_empty() {
            let art_base = self.form.art_base();
            self.phase_costs.clear();
            self.phase_costs
                .extend((0..self.form.num_cols()).map(|c| f64::from(u8::from(c >= art_base))));
            let costs = std::mem::take(&mut self.phase_costs);
            let outcome = self.primal_loop(&costs, options, true, false);
            self.phase_costs = costs;
            match outcome {
                PhaseOutcome::Optimal => {}
                // Phase 1 is bounded below by 0; "unbounded" means a
                // numerical failure. The status stays the conservative
                // `IterationLimit` (like the dense solver), with the
                // precise reason recorded on the workspace.
                PhaseOutcome::Unbounded => return self.fail(LpError::NumericalLoss),
                // No feasible point exists yet mid-phase-1, so a budget
                // or solver stop here has nothing to extract.
                PhaseOutcome::Stopped(err) => return self.fail(err),
            }
            let infeasibility: f64 = self
                .basis
                .basic
                .iter()
                .enumerate()
                .filter(|&(_, &col)| col >= art_base)
                .map(|(row, _)| self.basis.x_basic[row].abs())
                .sum();
            if infeasibility > TOLERANCE * 10.0 {
                return Solution::status_only(Status::Infeasible);
            }
            // Pin the artificials to zero for phase 2: basic ones stay
            // (at value 0, their bounds block any move away), nonbasic
            // ones are fixed and never priced again.
            for a in 0..self.form.art_rows.len() {
                let col = art_base + a;
                self.form.upper[col] = 0.0;
                if let ColStatus::Basic(row) = self.basis.status[col] {
                    self.basis.x_basic[row as usize] = 0.0;
                }
            }
        }

        // ---- Phase 2: minimise the true objective. ----
        self.load_phase2_costs();
        let costs = std::mem::take(&mut self.phase_costs);
        let outcome = self.primal_loop(&costs, options, false, false);
        self.phase_costs = costs;
        match outcome {
            PhaseOutcome::Optimal => self.extract(model, Status::Optimal),
            PhaseOutcome::Unbounded => Solution::status_only(Status::Unbounded),
            PhaseOutcome::Stopped(err) => {
                // Phase 2 iterates over primal-feasible bases only, so
                // the current point is feasible — return it as the best
                // bound so far rather than discarding the work.
                self.last_error = Some(err);
                self.extract(model, err.status())
            }
        }
    }

    /// Records the typed stop reason and returns its conservative
    /// status-only solution.
    fn fail(&mut self, err: LpError) -> Solution {
        self.last_error = Some(err);
        Solution::status_only(err.status())
    }

    /// Resets the per-solve budget state from the options. Runs once
    /// per public solve entry; internal warm-to-cold fallbacks keep the
    /// running clock.
    fn begin_solve(&mut self, options: &SimplexOptions) {
        self.last_error = None;
        self.deadline = options
            .budget
            .deadline
            .map(|allowance| Instant::now() + allowance);
        self.budget_iters = options.budget.max_iterations;
        self.io_entry = self.factor.io_counters();
        self.solve_started = rp_obs::counters_on().then(Instant::now);
        if self.solve_started.is_some() {
            rp_obs::reset_solve_profile();
        }
    }

    /// Final per-solve bookkeeping: computes the FTRAN/BTRAN deltas and
    /// the presolve reduction counts on [`SolveStats`], then publishes
    /// everything into the `rp-obs` registry (mode permitting). Pure
    /// observation — nothing here feeds back into any solver decision.
    fn finish_solve(&mut self, solution: &Solution) {
        let (ftran_now, btran_now) = self.factor.io_counters();
        self.stats.ftran = ftran_now.delta_since(self.io_entry.0);
        self.stats.btran = btran_now.delta_since(self.io_entry.1);
        self.stats.max_eta_chain = self.stats.max_eta_chain.max(self.factor.updates());
        self.stats.presolve_rows_removed = self.presolve.rows_removed();
        self.stats.presolve_cols_removed = self.presolve.cols_removed();
        if rp_obs::counters_on() {
            self.stats.phases = rp_obs::take_solve_profile();
            let solve_us = self
                .solve_started
                .take()
                .map(|start| start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
                .unwrap_or(0);
            self.publish_stats(solution, solve_us);
        }
    }

    /// Publishes the settled [`SolveStats`] into the global `rp-obs`
    /// registry and files the solve with the flight recorder; in
    /// `Full` mode additionally emits one structured `lp.solve` event.
    fn publish_stats(&self, solution: &Solution, solve_us: u64) {
        use rp_obs::{Counter, Gauge};
        let stats = &self.stats;
        rp_obs::incr(Counter::LpSolves);
        rp_obs::add(Counter::LpPhase1Pivots, stats.phase1_pivots as u64);
        rp_obs::add(Counter::LpPhase2Pivots, stats.phase2_pivots() as u64);
        rp_obs::add(Counter::LpDualPivots, stats.dual_pivots as u64);
        rp_obs::add(Counter::LpBoundFlips, stats.bound_flips as u64);
        rp_obs::add(Counter::LpDegeneratePivots, stats.degenerate_pivots as u64);
        rp_obs::add(Counter::LpRefactorisations, stats.refactorisations as u64);
        rp_obs::add(
            Counter::LpRefactorScheduled,
            stats.refactor_scheduled as u64,
        );
        rp_obs::add(
            Counter::LpRefactorFtRefused,
            stats.refactor_ft_refused as u64,
        );
        rp_obs::incr(match stats.warm {
            WarmStart::Cold => Counter::LpWarmCold,
            WarmStart::WarmHit => Counter::LpWarmHit,
            WarmStart::WarmRefactor => Counter::LpWarmRefactor,
            WarmStart::ModeChangeCold => Counter::LpWarmModeChangeCold,
        });
        rp_obs::add(
            Counter::LpPresolveRowsRemoved,
            stats.presolve_rows_removed as u64,
        );
        rp_obs::add(
            Counter::LpPresolveColsRemoved,
            stats.presolve_cols_removed as u64,
        );
        rp_obs::add(Counter::LpDualBoundFlips, stats.dual_bound_flips as u64);
        rp_obs::add(Counter::LpFtranCalls, stats.ftran.calls);
        rp_obs::add(Counter::LpFtranInNnz, stats.ftran.in_nnz);
        rp_obs::add(Counter::LpFtranDim, stats.ftran.dim);
        rp_obs::add(Counter::LpBtranCalls, stats.btran.calls);
        rp_obs::add(Counter::LpBtranInNnz, stats.btran.in_nnz);
        rp_obs::add(Counter::LpBtranDim, stats.btran.dim);
        for phase in rp_obs::Phase::ALL {
            rp_obs::add(phase.counter(), stats.phases.nanos(phase));
        }
        let (nnz_l, nnz_u) = self.factor.nnz();
        rp_obs::gauge_set(Gauge::LpFactorNnzL, nnz_l as u64);
        rp_obs::gauge_set(Gauge::LpFactorNnzU, nnz_u as u64);
        rp_obs::gauge_max(Gauge::LpEtaChainMax, stats.max_eta_chain as u64);
        rp_obs::gauge_set(Gauge::LpLastIterations, stats.iterations() as u64);
        rp_obs::record_solve(rp_obs::SolveRecord {
            seq: 0, // assigned by the recorder
            rows: self.form.m as u64,
            cols: self.form.n_struct as u64,
            warm: stats.warm.as_str(),
            status: solution.status.to_string(),
            iterations: stats.iterations() as u64,
            solve_us,
            budget_missed: matches!(
                self.last_error,
                Some(LpError::IterationLimit | LpError::DeadlineExceeded)
            ),
            stop_reason: self.last_error.map(|err| err.to_string()),
            phases: stats.phases,
        });
    }

    /// Charges one iteration against the whole-solve budget, returning
    /// the typed reason to stop if either limit is exhausted.
    fn budget_step(&mut self) -> Option<LpError> {
        if let Some(left) = self.budget_iters.as_mut() {
            if *left == 0 {
                return Some(LpError::IterationLimit);
            }
            *left -= 1;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(LpError::DeadlineExceeded),
            _ => None,
        }
    }

    /// The typed reason the most recent solve stopped abnormally —
    /// `None` after a conclusive solve (optimal, infeasible or
    /// unbounded). Set *in addition to* the returned status: a budget
    /// stop that still extracted a feasible point reports the error
    /// here while the solution carries the point.
    pub fn last_error(&self) -> Option<LpError> {
        self.last_error
    }

    fn load_phase2_costs(&mut self) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        self.phase_costs.clear();
        self.phase_costs.extend_from_slice(&self.form.cost);
    }

    /// Extracts the current basic solution (postsolving any presolve
    /// reductions) under the given status and marks the workspace warm.
    /// Besides `Status::Optimal`, this also serves budget stops at a
    /// primal-feasible basis, where the point is feasible but not
    /// proven optimal.
    fn extract(&mut self, model: &Model, status: Status) -> Solution {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Extract);
        let mut values = Vec::new();
        self.basis.extract_values(&self.form, &mut values);
        // Clamp numerical dust onto the box so downstream feasibility
        // checks (and MILP integrality tests) see clean values.
        for (j, v) in values.iter_mut().enumerate() {
            *v = v.max(self.form.lower[j]).min(self.form.upper[j]);
        }
        self.postsolve(model, &mut values);
        let mut objective = model.objective_value(&values);
        if objective.abs() < TOLERANCE {
            objective = 0.0;
        }
        self.warm_ready = true;
        if status == Status::Optimal {
            self.resumable = Resumable::Optimal;
        }
        Solution {
            status,
            objective,
            values,
        }
    }

    /// The objective of the current basic solution mapped back to the
    /// original variable space **without** clamping onto the box.
    ///
    /// At a dual-feasible basis this value equals the dual objective of
    /// the complementary dual point, so for a minimisation it is a
    /// valid lower bound on the optimum (weak duality). Clamping — what
    /// [`RevisedWorkspace::extract`] does for point extraction — would
    /// move the out-of-bounds basic values and break that identity,
    /// which is why the deadline-stopped warm cleanup uses this
    /// separate path and returns the value through
    /// [`Solution::bound_only`] with no point attached.
    fn dual_bound_objective(&mut self, model: &Model) -> f64 {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Extract);
        let mut values = Vec::new();
        self.basis.extract_values(&self.form, &mut values);
        self.postsolve(model, &mut values);
        model.objective_value(&values)
    }

    /// Expands a solution over the working form's columns back over the
    /// original variables, each eliminated one at its fixed value (in
    /// place, back to front — a kept column's reduced index never
    /// exceeds its original one).
    fn postsolve(&self, model: &Model, values: &mut Vec<f64>) {
        let n = model.num_vars();
        let mut reduced = self.presolve.cols.len();
        values.resize(n, 0.0);
        for j in (0..n).rev() {
            values[j] = if self.presolve.col_kept[j] {
                reduced -= 1;
                values[reduced]
            } else {
                self.presolve.fixed[j]
            };
        }
    }

    /// Pivot/refactorisation counters of the most recent solve.
    pub fn last_stats(&self) -> SolveStats {
        self.stats
    }

    /// Whether the last solve's presolve analysis ran its reduction
    /// passes — `false` when [`SimplexOptions::presolve`] is off, and on
    /// micro models even when it is set (the size-threshold fast path).
    /// Either way the solve ran on the one working form; without the
    /// passes that form keeps every row and column of the model.
    pub fn last_solve_used_presolve(&self) -> bool {
        self.presolved
    }

    /// Nonzero counts `(nnz(L), nnz(U))` of the current basis
    /// factorisation (meaningful after a solve).
    pub fn factor_nnz(&self) -> (usize, usize) {
        self.factor.nnz()
    }

    /// Benchmark hook: one hyper-sparse FTRAN on the unit vector `e_i`.
    #[doc(hidden)]
    pub fn bench_ftran_unit(&mut self, i: usize) {
        let m = self.form.m;
        if m == 0 {
            return;
        }
        self.w.clear();
        self.w.resize(m, 0.0);
        self.w_nz.clear();
        self.w[i % m] = 1.0;
        self.w_nz.push((i % m) as u32);
        self.factor.ftran_sparse(&mut self.w, &mut self.w_nz);
    }

    /// Benchmark hook: one hyper-sparse BTRAN on the unit vector `e_i`.
    #[doc(hidden)]
    pub fn bench_btran_unit(&mut self, i: usize) {
        let m = self.form.m;
        if m == 0 {
            return;
        }
        self.rho.clear();
        self.rho.resize(m, 0.0);
        self.rho_nz.clear();
        self.rho[i % m] = 1.0;
        self.rho_nz.push((i % m) as u32);
        self.factor.btran_sparse(&mut self.rho, &mut self.rho_nz);
    }

    /// Benchmark hook: one sparse Markowitz refactorisation of the
    /// current basis.
    #[doc(hidden)]
    pub fn bench_refactor(&mut self) -> bool {
        if self.basis.basic.len() != self.form.m {
            return false;
        }
        self.refactor()
    }

    /// Refactorises the basis from its column set.
    fn refactor(&mut self) -> bool {
        self.stats.refactorisations += 1;
        let form = &self.form;
        let basic = &self.basis.basic;
        self.factor.refactor(form.m, |k, rows, vals| {
            form.for_each_entry(basic[k], |row, val| {
                rows.push(row as u32);
                vals.push(val);
            });
        })
    }

    /// Installs the slack basis with every structural column parked at
    /// a finite bound whose sign agrees with its cost — the
    /// dual-feasible start of the cold dual simplex route. Returns
    /// `false` when some column has no such bound (wrong-signed cost
    /// towards its only finite bound, or a genuinely free column); the
    /// caller then runs the classic two-phase path, which rebuilds the
    /// basis wholesale.
    fn try_dual_start_basis(&mut self, tol: f64) -> bool {
        let m = self.form.m;
        let n = self.form.n_struct;
        self.basis.status.clear();
        self.basis.status.reserve(n + m);
        for j in 0..n {
            let cost = self.form.cost[j];
            let status = if self.form.lower[j].is_finite() && cost >= -tol {
                ColStatus::Lower
            } else if self.form.upper[j].is_finite() && cost <= tol {
                ColStatus::Upper
            } else {
                return false;
            };
            self.basis.status.push(status);
        }
        for row in 0..m {
            self.basis.status.push(ColStatus::Basic(row as u32));
        }
        self.basis.basic.clear();
        self.basis.basic.extend(n..n + m);
        self.basis.x_basic.clear();
        self.basis.x_basic.resize(m, 0.0);
        true
    }

    /// Refactorises and recomputes the basic values from the residual
    /// right-hand side (squashing the drift the updates accumulated).
    /// The LU is timed as `Factorise`, the recompute as `Ftran`.
    fn refactor_and_recompute(&mut self) -> bool {
        let factored = {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
            self.refactor()
        };
        if !factored {
            return false;
        }
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        self.basis.residual_rhs(&self.form, &mut self.residual);
        self.factor.ftran(&mut self.residual);
        self.basis.x_basic.clear();
        self.basis.x_basic.extend_from_slice(&self.residual);
        true
    }

    /// [`RevisedWorkspace::ftran_column`] through the hyper-sparse
    /// FTRAN, maintaining `w_nz`. Requires the sparse-`w` invariant
    /// (zero outside `w_nz`), which [`RevisedWorkspace::dual_loop`]
    /// establishes at entry and every sparse call preserves.
    fn ftran_column_sparse(&mut self, col: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        for &r in &self.w_nz {
            self.w[r as usize] = 0.0;
        }
        self.w_nz.clear();
        let w = &mut self.w;
        let w_nz = &mut self.w_nz;
        self.form.for_each_entry(col, |row, val| {
            if w[row] == 0.0 {
                w_nz.push(row as u32);
            }
            w[row] += val;
        });
        self.factor.ftran_sparse(w, w_nz);
    }

    /// Loads `B⁻¹ a_col` into `self.w`.
    fn ftran_column(&mut self, col: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        self.w.clear();
        self.w.resize(self.form.m, 0.0);
        let w = &mut self.w;
        self.form.for_each_entry(col, |row, val| w[row] += val);
        self.factor.ftran(w);
    }

    /// Recomputes the duals `y = B⁻ᵀ c_B` and every reduced cost
    /// `d_j = c_j − yᵀa_j` from scratch (`O(nnz)`). Called at phase
    /// starts and after refactorisations; between those, `d` is kept
    /// current by rank-one pivot-row updates.
    fn compute_reduced_costs(&mut self, costs: &[f64]) {
        self.y.clear();
        self.y
            .extend(self.basis.basic.iter().map(|&col| costs[col]));
        self.factor.btran(&mut self.y);
        self.d.clear();
        let form = &self.form;
        let y = &self.y;
        self.d.extend(
            costs
                .iter()
                .enumerate()
                .map(|(col, &c)| c - form.col_dot(col, y)),
        );
        if self.alpha_acc.len() != costs.len() {
            self.alpha_acc.clear();
            self.alpha_acc.resize(costs.len(), 0.0);
        }
    }

    /// Computes the sparse pivot row `α = Aᵀ B⁻ᵀ e_row` into
    /// `self.alpha_cols` / `self.alpha_vals` (must run on the
    /// *pre-pivot* factorisation).
    fn compute_pivot_row(&mut self, row: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Btran);
        if self.rho.len() != self.form.m {
            self.rho.clear();
            self.rho.resize(self.form.m, 0.0);
            self.rho_nz.clear();
        }
        // Clear the previous call's pattern instead of an `O(m)` memset.
        for &r in &self.rho_nz {
            self.rho[r as usize] = 0.0;
        }
        self.rho_nz.clear();
        self.rho[row] = 1.0;
        self.rho_nz.push(row as u32);
        self.factor.btran_sparse(&mut self.rho, &mut self.rho_nz);
        pivot_row_alphas(
            &self.form,
            &self.rho,
            &self.rho_nz,
            &mut self.alpha_acc,
            &mut self.alpha_cols,
            &mut self.alpha_vals,
        );
    }

    /// Applies the rank-one reduced-cost update
    /// `d ← d − θ_d·α` over the sparse pivot row, pinning the entering
    /// column's reduced cost to an exact zero.
    fn update_reduced_costs(&mut self, theta_d: f64, entering: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        if theta_d != 0.0 {
            for k in 0..self.alpha_cols.len() {
                let col = self.alpha_cols[k] as usize;
                self.d[col] -= theta_d * self.alpha_vals[k];
            }
        }
        self.d[entering] = 0.0;
    }

    /// Runs primal pivots until the given cost vector is optimal.
    /// `d_exact` says `d` already holds this basis's reduced costs under
    /// `costs`, so the entry recompute is skipped.
    fn primal_loop(
        &mut self,
        costs: &[f64],
        options: &SimplexOptions,
        allow_artificial: bool,
        d_exact: bool,
    ) -> PhaseOutcome {
        let tol = TOLERANCE;
        let max_iter = options
            .max_iterations
            .unwrap_or_else(|| 200 + 50 * (self.form.m + self.form.num_cols()));
        if !d_exact {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
            self.compute_reduced_costs(costs);
        }
        // Pivots since `d` was last computed from scratch: an
        // incrementally updated `d` may only declare optimality after a
        // fresh recomputation confirms it.
        let mut stale_pivots = 0usize;
        for iteration in 0..max_iter {
            let use_bland = iteration >= options.bland_after;
            let candidate = choose_entering(
                &self.form,
                &self.basis,
                &self.d,
                tol,
                use_bland,
                allow_artificial,
            );
            let entering = match candidate {
                Some(e) => e,
                None => {
                    if stale_pivots == 0 {
                        return PhaseOutcome::Optimal;
                    }
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
                    self.compute_reduced_costs(costs);
                    stale_pivots = 0;
                    continue;
                }
            };

            // Charge the budget only once a pivot is actually about to
            // run: an already-optimal basis still reports `Optimal`
            // even under an expired budget.
            if let Some(err) = self.budget_step() {
                return PhaseOutcome::Stopped(err);
            }

            self.ftran_column(entering.col);
            match primal_ratio_test(
                &self.form,
                &self.basis,
                &entering,
                &self.w,
                PIVOT_TOL,
                use_bland,
            ) {
                Ratio::Unbounded => return PhaseOutcome::Unbounded,
                Ratio::Flip { step } => {
                    // No basis change: the reduced costs are untouched.
                    self.stats.bound_flips += 1;
                    self.apply_step(&entering, step);
                    self.basis.status[entering.col] = match self.basis.status[entering.col] {
                        ColStatus::Lower => ColStatus::Upper,
                        ColStatus::Upper => ColStatus::Lower,
                        // The pricing only proposes nonbasic columns; a
                        // basic status here means the pricing state and
                        // the basis desynchronised. Stop with a typed
                        // error instead of corrupting the basis.
                        ColStatus::Basic(_) => {
                            debug_assert!(false, "entering column must be nonbasic");
                            return PhaseOutcome::Stopped(LpError::NumericalLoss);
                        }
                    };
                }
                Ratio::Pivot {
                    row,
                    step,
                    to_upper,
                } => {
                    self.stats.primal_pivots += 1;
                    if allow_artificial {
                        self.stats.phase1_pivots += 1;
                    }
                    if step == 0.0 {
                        self.stats.degenerate_pivots += 1;
                    }
                    // Sparse pivot row on the pre-pivot basis: it
                    // drives the rank-one reduced-cost update.
                    self.compute_pivot_row(row);
                    let alpha_q = self.w[row];
                    let theta_d = self.d[entering.col] / alpha_q;
                    let entering_value =
                        self.basis.nonbasic_value(&self.form, entering.col) + entering.sigma * step;
                    self.apply_step(&entering, step);
                    let leaving = self.basis.basic[row];
                    self.basis.status[leaving] = if to_upper {
                        ColStatus::Upper
                    } else {
                        ColStatus::Lower
                    };
                    self.basis.status[entering.col] = ColStatus::Basic(row as u32);
                    self.basis.basic[row] = entering.col;
                    self.basis.x_basic[row] = entering_value;
                    self.update_reduced_costs(theta_d, entering.col);
                    match self.update_basis(row, costs) {
                        Ok(true) => stale_pivots = 0,
                        Ok(false) => stale_pivots += 1,
                        Err(err) => return PhaseOutcome::Stopped(err),
                    }
                }
            }
        }
        PhaseOutcome::Stopped(LpError::IterationLimit)
    }

    /// Forrest–Tomlin update for the basis change in `row`, from the
    /// spike the entering FTRAN saved. A refused (numerically unsafe)
    /// update or a full update budget forces a refactorisation, after
    /// which the reduced costs are recomputed from `costs`. Returns
    /// whether the basis was refactorised.
    fn update_basis(&mut self, row: usize, costs: &[f64]) -> Result<bool, LpError> {
        if self.factor.update(row) {
            self.stats.max_eta_chain = self.stats.max_eta_chain.max(self.factor.updates());
            if self.factor.updates() < REFACTOR_EVERY {
                return Ok(false);
            }
            self.stats.refactor_scheduled += 1;
        } else {
            self.stats.refactor_ft_refused += 1;
        }
        if !self.refactor_and_recompute() {
            return Err(LpError::SingularBasis);
        }
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        self.compute_reduced_costs(costs);
        Ok(true)
    }

    /// Moves every basic variable along the pivot column: the entering
    /// variable advances by `sigma·step`, so row `i` changes by
    /// `−sigma·step·w_i`.
    fn apply_step(&mut self, entering: &Entering, step: f64) {
        if step == 0.0 {
            return;
        }
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        let scale = entering.sigma * step;
        for (x, &wi) in self.basis.x_basic.iter_mut().zip(&self.w) {
            *x -= scale * wi;
        }
    }

    /// Applies the bound flips collected by the dual ratio test: each
    /// column's status toggles to the opposite bound, and the combined
    /// movement `B⁻¹ · Σ Δx_j a_j` is subtracted from the basic values
    /// with a single FTRAN — the flips change no basis column.
    fn apply_dual_flips(&mut self, flips: &[u32]) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        self.residual.clear();
        self.residual.resize(self.form.m, 0.0);
        self.residual_nz.clear();
        for &col in flips {
            let col = col as usize;
            let (delta, flipped) = match self.basis.status[col] {
                ColStatus::Lower => (
                    self.form.upper[col] - self.form.lower[col],
                    ColStatus::Upper,
                ),
                ColStatus::Upper => (
                    self.form.lower[col] - self.form.upper[col],
                    ColStatus::Lower,
                ),
                ColStatus::Basic(_) => {
                    debug_assert!(false, "flip candidates are nonbasic");
                    continue;
                }
            };
            self.basis.status[col] = flipped;
            let residual = &mut self.residual;
            let residual_nz = &mut self.residual_nz;
            self.form.for_each_entry(col, |row, val| {
                if residual[row] == 0.0 {
                    residual_nz.push(row as u32);
                }
                residual[row] += val * delta;
            });
        }
        self.factor
            .ftran_sparse(&mut self.residual, &mut self.residual_nz);
        for &i in &self.residual_nz {
            let i = i as usize;
            self.basis.x_basic[i] -= self.residual[i];
        }
    }

    /// Dual simplex: restores primal feasibility while keeping the
    /// reduced costs sign-feasible. Serves both the warm cleanup and
    /// the cold dual start; assumes the factorisation is current. The
    /// most violated row leaves; the entering column comes from the
    /// bound-flipping dual ratio test. `d_exact` says `d` already holds
    /// the basis's phase-2 reduced costs, so the entry recompute is
    /// skipped; `first_row`, while it violates a bound, leaves first.
    fn dual_loop(
        &mut self,
        options: &SimplexOptions,
        d_exact: bool,
        mut first_row: Option<usize>,
    ) -> DualOutcome {
        let tol = TOLERANCE;
        let max_iter = options
            .max_iterations
            .unwrap_or_else(|| 200 + 50 * (self.form.m + self.form.num_cols()));
        // Establish the sparse-`w` invariant the loop's hyper-sparse
        // FTRANs maintain: zero outside `w_nz`.
        {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
            self.w.clear();
            self.w.resize(self.form.m, 0.0);
            self.w_nz.clear();
        }
        // Dual pricing needs the phase-2 reduced costs; they are kept
        // current by the same rank-one pivot-row updates the primal
        // loop uses.
        self.load_phase2_costs();
        let costs = std::mem::take(&mut self.phase_costs);
        if !d_exact {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
            self.compute_reduced_costs(&costs);
        }
        self.dual_cands.rebuild(&self.form, &self.basis, tol);
        let outcome = 'search: {
            for _ in 0..max_iter {
                let first = first_row
                    .take()
                    .and_then(|row| Leaving::violated(&self.form, &self.basis, tol, row));
                let leaving = match first.or_else(|| self.dual_cands.pick(&self.form, &self.basis))
                {
                    Some(l) => Some(l),
                    None => {
                        // No live entry is left; confirm primal
                        // feasibility with a full rescan before
                        // declaring it.
                        self.dual_cands.rebuild(&self.form, &self.basis, tol);
                        self.dual_cands.pick(&self.form, &self.basis)
                    }
                };
                let leaving = match leaving {
                    Some(l) => l,
                    None => break 'search DualOutcome::PrimalFeasible,
                };
                // Budget charged per attempted pivot (see primal_loop).
                if let Some(err) = self.budget_step() {
                    break 'search DualOutcome::Stopped(err);
                }
                // Sparse pivot row α = Aᵀ B⁻ᵀ e_r.
                self.compute_pivot_row(leaving.row);

                let mut breakpoints = std::mem::take(&mut self.breakpoints);
                let mut flips = std::mem::take(&mut self.flips);
                let ratio = dual_ratio_test(
                    &self.form,
                    &self.basis,
                    &self.d,
                    &self.alpha_cols,
                    &self.alpha_vals,
                    leaving.above,
                    leaving.violation,
                    PIVOT_TOL,
                    &mut breakpoints,
                    &mut flips,
                );
                self.breakpoints = breakpoints;
                let entering = match ratio {
                    DualRatio::Infeasible => {
                        self.flips = flips;
                        break 'search DualOutcome::Infeasible { row: leaving.row };
                    }
                    DualRatio::Step { entering } => entering,
                };
                // Boxed columns the long dual step passed over jump to
                // their opposite bounds; one combined FTRAN updates the
                // basic values. This must happen before the entering
                // FTRAN below, which owns the factorisation's saved
                // spike for the upcoming basis update.
                if !flips.is_empty() {
                    self.stats.dual_bound_flips += flips.len();
                    self.apply_dual_flips(&flips);
                    // The flip FTRAN moved the basic values in its
                    // residual pattern; push the rows that violate.
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
                    for &i in &self.residual_nz {
                        self.dual_cands
                            .note(&self.form, &self.basis, tol, i as usize);
                    }
                }
                self.flips = flips;

                self.ftran_column_sparse(entering);
                let row = leaving.row;
                let alpha = self.w[row];
                if alpha.abs() <= PIVOT_TOL {
                    // The FTRAN disagrees with the BTRAN row — numerical
                    // trouble; let the caller fall back to a cold solve.
                    break 'search DualOutcome::Stopped(LpError::NumericalLoss);
                }
                let leaving_col = self.basis.basic[row];
                let target = if leaving.above {
                    self.form.upper[leaving_col]
                } else {
                    self.form.lower[leaving_col]
                };
                self.stats.dual_pivots += 1;
                let theta_d = self.d[entering] / alpha;
                let dxq = (self.basis.x_basic[row] - target) / alpha;
                if dxq == 0.0 {
                    self.stats.degenerate_pivots += 1;
                }
                let entering_value = self.basis.nonbasic_value(&self.form, entering) + dxq;
                if dxq != 0.0 {
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
                    for &i in &self.w_nz {
                        let i = i as usize;
                        self.basis.x_basic[i] -= dxq * self.w[i];
                    }
                }
                self.basis.status[leaving_col] = if leaving.above {
                    ColStatus::Upper
                } else {
                    ColStatus::Lower
                };
                self.basis.status[entering] = ColStatus::Basic(row as u32);
                self.basis.basic[row] = entering;
                self.basis.x_basic[row] = entering_value;
                // Push the rows this pivot moved: the entering
                // column's pattern + the pivot row.
                {
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
                    if dxq != 0.0 {
                        for &i in &self.w_nz {
                            self.dual_cands
                                .note(&self.form, &self.basis, tol, i as usize);
                        }
                    }
                    self.dual_cands.note(&self.form, &self.basis, tol, row);
                }
                self.update_reduced_costs(theta_d, entering);
                match self.update_basis(row, &costs) {
                    // Recomputing the basic values from scratch can move
                    // any row across the violation tolerance.
                    Ok(true) => self.dual_cands.rebuild(&self.form, &self.basis, tol),
                    Ok(false) => {}
                    Err(err) => break 'search DualOutcome::Stopped(err),
                }
            }
            DualOutcome::Stopped(LpError::IterationLimit)
        };
        self.phase_costs = costs;
        outcome
    }
}

/// How a primal phase ended: converged, proved the LP unbounded, or
/// stopped for the typed reason (budget, singular basis, lost
/// accuracy).
enum PhaseOutcome {
    Optimal,
    Unbounded,
    Stopped(LpError),
}

/// What the full warm entry made of the stored form.
enum WarmEntry {
    /// Refreshed in place from the model; the stored basis applies.
    Refreshed,
    /// Presolve or inverted bounds prove the model infeasible.
    Infeasible,
    /// The matrix or the presolve reductions changed: solve cold.
    Rebuild,
}

/// Whether the next solve may patch the workspace in place, and with
/// which reduced costs.
#[derive(Clone, Copy, Default, PartialEq)]
enum Resumable {
    /// The full entry: no solve yet, or the last one stopped early or
    /// found infeasibility outside the dual simplex.
    #[default]
    No,
    /// The last solve ended optimal: `d` is exact.
    Optimal,
    /// The warm dual simplex proved the last model infeasible on `row`:
    /// the basis is dual feasible, and `d` is recomputed at entry.
    Infeasible { row: usize },
}

/// How the dual simplex ended: primal feasible, infeasible (no
/// entering column for the leaving `row`), or stopped.
enum DualOutcome {
    PrimalFeasible,
    Infeasible { row: usize },
    Stopped(LpError),
}

#[cfg(test)]
mod patch_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin_sum, Cmp, LinExpr, Model, Sense};
    use crate::oracle::solve_lp;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// A cold solve on a fresh workspace.
    fn solve_with(model: &Model, options: &SimplexOptions) -> Solution {
        RevisedWorkspace::new().solve_warm(model, options)
    }

    fn solve(model: &Model) -> Solution {
        solve_with(model, &SimplexOptions::default())
    }

    #[test]
    fn maximisation_with_two_variables() {
        // Same instance as the dense test: optimum 36 at (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 3.0);
        let y = m.add_var("y", 0.0, None, 5.0);
        m.add_constraint("c1", LinExpr::var(x), Cmp::Le, 4.0);
        m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
        m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn ge_constraints_run_phase_one() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 2.0);
        let y = m.add_var("y", 0.0, None, 3.0);
        m.add_constraint("sum", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 10.0);
        m.add_constraint("xmin", LinExpr::var(x), Cmp::Ge, 2.0);
        m.add_constraint("ymin", LinExpr::var(y), Cmp::Ge, 3.0);
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn equality_and_upper_bounds_without_extra_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(4.0), 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("eq", lin_sum([(1.0, x), (2.0, y)]), Cmp::Eq, 8.0);
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 4.0);
        assert_close(sol.value(x), 0.0);
        assert_close(sol.value(y), 4.0);
    }

    #[test]
    fn infeasible_and_unbounded_are_detected() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(1.0), 1.0);
        m.add_constraint("too_big", LinExpr::var(x), Cmp::Ge, 5.0);
        assert_eq!(solve(&m).status, Status::Infeasible);

        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 1.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 1.0);
        assert_eq!(solve(&m).status, Status::Unbounded);
    }

    #[test]
    fn bound_only_model_flips_to_the_cheap_bound() {
        // Maximise over a box with no constraints: pure bound flips.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 1.5, Some(9.0), 2.0);
        let y = m.add_var("y", 0.0, Some(3.0), 1.0);
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.value(x), 9.0);
        assert_close(sol.value(y), 3.0);
        assert_close(sol.objective, 21.0);
    }

    #[test]
    fn degenerate_beale_instance_terminates() {
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
        let sol = solve_with(&m, &options);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn agrees_with_the_dense_tableau_on_a_transportation_problem() {
        let mut m = Model::minimize();
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let caps = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        let mut vars = vec![vec![]; 2];
        for (s, row) in costs.iter().enumerate() {
            for (c, &cost) in row.iter().enumerate() {
                vars[s].push(m.add_var(format!("x{s}{c}"), 0.0, Some(40.0), cost));
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
        let dense = solve_lp(&m);
        let revised = solve(&m);
        assert_eq!(dense.status, revised.status);
        assert_close(revised.objective, dense.objective);
        assert!(m.is_feasible(&revised.values, 1e-6));
    }

    #[test]
    fn warm_start_after_a_bound_change_matches_a_cold_solve() {
        // min x + 2y  s.t.  x + y >= 4, x <= 3 — then tighten x <= 1.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(3.0), 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("cover", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let first = ws.solve_warm(&m, &options);
        assert_eq!(first.status, Status::Optimal);
        assert_close(first.objective, 5.0); // x = 3, y = 1

        m.set_bounds(x, 0.0, Some(1.0));
        let warm = ws.solve_warm(&m, &options);
        let cold = solve(&m);
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, cold.objective); // x = 1, y = 3 -> 7
        assert_close(warm.objective, 7.0);

        // Loosen the bound back: the warm path must also handle bounds
        // that *relax* (residual dual infeasibility cleaned up by the
        // primal polish).
        m.set_bounds(x, 0.0, None);
        let warm = ws.solve_warm(&m, &options);
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, 4.0); // x = 4, y = 0
    }

    #[test]
    fn solve_stats_classify_warm_starts_and_count_transform_io() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(3.0), 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("cover", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();

        let first = ws.solve_warm(&m, &options);
        assert_eq!(first.status, Status::Optimal);
        let stats = ws.last_stats();
        assert_eq!(stats.warm, WarmStart::Cold);
        assert!(stats.ftran.calls > 0, "cold solve must run FTRANs");
        assert_eq!(stats.ftran.dim, stats.ftran.calls); // m = 1 row
        assert!(stats.ftran.in_nnz <= stats.ftran.dim);
        assert!((0.0..=1.0).contains(&stats.ftran.skip_ratio()));
        assert_eq!(
            stats.phase1_pivots + stats.phase2_pivots(),
            stats.primal_pivots
        );

        m.set_bounds(x, 0.0, Some(1.0));
        let warm = ws.solve_warm(&m, &options);
        assert_eq!(warm.status, Status::Optimal);
        let stats = ws.last_stats();
        assert!(
            matches!(stats.warm, WarmStart::WarmHit | WarmStart::WarmRefactor),
            "bound-change resolve must take the warm path, got {:?}",
            stats.warm
        );
        // The per-solve IO deltas restart at each solve entry.
        assert!(stats.ftran.calls > 0);
    }

    #[test]
    fn warm_start_detects_infeasible_children() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(5.0), 1.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 2.0);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        assert_eq!(ws.solve_warm(&m, &options).status, Status::Optimal);
        m.set_bounds(x, 0.0, Some(1.0));
        assert_eq!(ws.solve_warm(&m, &options).status, Status::Infeasible);
        // And a sibling that is feasible again still solves warm.
        m.set_bounds(x, 3.0, Some(5.0));
        let sol = ws.solve_warm(&m, &options);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn warm_start_honours_model_edits_beyond_bounds() {
        // The warm path's contract: bounds, objective and rhs edits are
        // absorbed; a changed constraint coefficient (same shape!) must
        // trigger the cold fallback. Every answer is cross-checked
        // against a fresh cold solve.
        let build = |coeff: f64, obj: f64, rhs: f64| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, Some(10.0), obj);
            let y = m.add_var("y", 0.0, None, 3.0);
            m.add_constraint("cover", lin_sum([(coeff, x), (1.0, y)]), Cmp::Ge, rhs);
            m
        };
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        assert_eq!(
            ws.solve_warm(&build(1.0, 1.0, 6.0), &options).status,
            Status::Optimal
        );
        // Objective change: x becomes expensive, y wins.
        let m = build(1.0, 5.0, 6.0);
        let warm = ws.solve_warm(&m, &options);
        assert_close(warm.objective, solve(&m).objective);
        // Right-hand-side change.
        let m = build(1.0, 5.0, 9.0);
        let warm = ws.solve_warm(&m, &options);
        assert_close(warm.objective, solve(&m).objective);
        // Coefficient change (same shape): must cold-fall-back and
        // still be exact.
        let m = build(2.0, 5.0, 9.0);
        let warm = ws.solve_warm(&m, &options);
        assert_close(warm.objective, solve(&m).objective);
        assert!(m.is_feasible(&warm.values, 1e-6));
    }

    #[test]
    fn warm_start_absorbs_comparison_flips() {
        // Same matrix, same rhs — only the comparison direction flips
        // between solves. The slack bounds encode the direction, so a
        // warm start must refresh them rather than answer the old
        // model's question (the regression this test pins down).
        let build = |cmp| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, Some(10.0), 1.0);
            let y = m.add_var("y", 0.0, Some(10.0), 2.0);
            m.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), cmp, 4.0);
            m
        };
        for presolve in [true, false] {
            let options = SimplexOptions {
                presolve,
                ..SimplexOptions::default()
            };
            let mut ws = RevisedWorkspace::new();
            let le = ws.solve_warm(&build(Cmp::Le), &options);
            assert_eq!(le.status, Status::Optimal);
            assert_close(le.objective, 0.0); // x = y = 0
            for cmp in [Cmp::Ge, Cmp::Eq, Cmp::Le, Cmp::Eq, Cmp::Ge] {
                let model = build(cmp);
                let warm = ws.solve_warm(&model, &options);
                let cold = solve_with(&model, &options);
                assert_eq!(warm.status, cold.status, "{cmp:?} presolve={presolve}");
                assert_close(warm.objective, cold.objective);
                assert!(model.is_feasible(&warm.values, 1e-6), "{cmp:?}");
            }
        }
    }

    #[test]
    fn workspace_reuse_across_shapes_is_transparent() {
        let mut ws = RevisedWorkspace::new();
        for trial in 0..3 {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_var("x", 0.0, Some(4.0 + trial as f64), 3.0);
            let y = m.add_var("y", 0.0, None, 5.0);
            m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
            m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
            let dense = solve_lp(&m);
            let revised = ws.solve_warm(&m, &SimplexOptions::default());
            assert_eq!(dense.status, revised.status);
            assert_close(revised.objective, dense.objective);
        }
    }

    #[test]
    fn negative_rhs_rows_need_no_normalisation() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 0.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("neg", lin_sum([(1.0, x), (-1.0, y)]), Cmp::Le, -2.0);
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 2.0);
    }

    /// A replica-cover-shaped LP with `rows` cover rows and one shared
    /// capacity row — small enough to exercise the micro fast path.
    fn cover_model(rows: usize) -> Model {
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..2 * rows)
            .map(|j| m.add_var(format!("y{j}"), 0.0, Some(5.0), 1.0 + (j % 3) as f64))
            .collect();
        for i in 0..rows {
            m.add_constraint(
                format!("cover{i}"),
                lin_sum([(1.0, vars[2 * i]), (1.0, vars[2 * i + 1])]),
                Cmp::Ge,
                2.0,
            );
        }
        m
    }

    #[test]
    fn micro_models_skip_presolve_and_devex() {
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let micro = cover_model(MICRO_LP_ROWS - 10);
        assert_eq!(ws.solve_warm(&micro, &options).status, Status::Optimal);
        assert!(!ws.last_solve_used_presolve());
        let large = cover_model(MICRO_LP_ROWS + 10);
        ws.invalidate();
        assert_eq!(ws.solve_warm(&large, &options).status, Status::Optimal);
        assert!(ws.last_solve_used_presolve());
    }

    #[test]
    fn warm_starts_survive_scaling_and_absorb_mode_changes() {
        // Warm re-solves of a presolved form (rhs edits) must match
        // cold solves, and switching presolve off between solves must
        // transparently fall back to a cold rebuild.
        let mut model = cover_model(MICRO_LP_ROWS + 10);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        assert_eq!(ws.solve_warm(&model, &options).status, Status::Optimal);
        assert!(ws.last_solve_used_presolve());
        let cons: Vec<_> = model.constraint_ids().collect();
        for id in cons {
            let rhs = model.constraint(id).rhs * 1.5;
            model.set_rhs(id, rhs);
        }
        let warm = ws.solve_warm(&model, &options);
        assert_ne!(ws.last_stats().warm, WarmStart::Cold);
        let cold = solve(&model);
        assert_eq!(warm.status, cold.status);
        assert_close(warm.objective, cold.objective);
        // Mode change: an unreduced solve must not reuse the reduced
        // basis.
        let unreduced = SimplexOptions {
            presolve: false,
            ..SimplexOptions::default()
        };
        let refreshed = ws.solve_warm(&model, &unreduced);
        assert_eq!(ws.last_stats().warm, WarmStart::ModeChangeCold);
        assert!(!ws.last_solve_used_presolve());
        assert_eq!(refreshed.status, Status::Optimal);
        assert_close(refreshed.objective, cold.objective);
    }

    #[test]
    fn micro_size_iteration_counts_match_the_explicit_fast_path() {
        // Regression pin for the micro-size fast path: a default-options
        // solve of a micro model must replay the exact pivot trajectory
        // of an explicit presolve-off solve — identical iteration and
        // refactorisation counts, not just the objective.
        for rows in [5usize, 20, MICRO_LP_ROWS - 1] {
            let model = cover_model(rows);
            let mut default_ws = RevisedWorkspace::new();
            let defaulted = default_ws.solve_warm(&model, &SimplexOptions::default());
            let explicit_options = SimplexOptions {
                presolve: false,
                ..SimplexOptions::default()
            };
            let mut explicit_ws = RevisedWorkspace::new();
            let explicit = explicit_ws.solve_warm(&model, &explicit_options);
            assert_eq!(defaulted.status, explicit.status, "rows={rows}");
            assert_eq!(defaulted.objective, explicit.objective, "rows={rows}");
            let d = default_ws.last_stats();
            let e = explicit_ws.last_stats();
            assert_eq!(d.iterations(), e.iterations(), "rows={rows}");
            assert_eq!(d.refactorisations, e.refactorisations, "rows={rows}");
        }
    }

    /// The counters and answer of the workspace's last solve that a
    /// change of working form could move.
    fn trajectory(ws: &RevisedWorkspace, sol: &Solution) -> impl PartialEq + std::fmt::Debug {
        let s = ws.last_stats();
        let counts = (
            s.primal_pivots,
            s.dual_pivots,
            s.bound_flips,
            s.dual_bound_flips,
        );
        let refactors = (s.refactorisations, s.refactor_scheduled, s.max_eta_chain);
        let values: Vec<u64> = sol.values.iter().map(|v| v.to_bits()).collect();
        let answer = (sol.status, sol.objective.to_bits(), values);
        (counts, refactors, s.warm, s.patched, answer)
    }

    #[test]
    fn a_form_with_nothing_removed_pivots_like_an_unpresolved_one() {
        // Every cover row has two live boxed columns and every column a
        // positive cost, so the reduction passes remove nothing: the
        // presolved form is the model's own matrix, and a cold solve, an
        // rhs sibling and a bound-edit sibling pivot alike on both.
        let mut model = cover_model(MICRO_LP_ROWS + 10);
        let (row, var) = (model.constraint_ids().nth(3), model.var_ids().nth(7));
        let unpresolved = SimplexOptions {
            presolve: false,
            ..SimplexOptions::default()
        };
        let (mut with, mut without) = (RevisedWorkspace::new(), RevisedWorkspace::new());
        for step in 0..3 {
            match step {
                1 => model.set_rhs(row.unwrap(), 3.0),
                2 => model.set_bounds(var.unwrap(), 0.0, Some(1.0)),
                _ => {}
            }
            let reduced = with.solve_warm(&model, &SimplexOptions::default());
            let stats = with.last_stats();
            assert!(with.last_solve_used_presolve());
            assert_eq!(
                (stats.presolve_rows_removed, stats.presolve_cols_removed),
                (0, 0)
            );
            let unreduced = without.solve_warm(&model, &unpresolved);
            assert!(!without.last_solve_used_presolve());
            assert_eq!(reduced.status, Status::Optimal);
            assert_eq!(stats.patched, step > 0, "step {step}");
            assert_eq!(
                trajectory(&with, &reduced),
                trajectory(&without, &unreduced),
                "step {step}"
            );
        }
    }

    #[test]
    fn an_unpresolved_solve_removes_nothing() {
        // A singleton row the reduction passes turn into a bound: they
        // remove it when they run, and an unpresolved solve keeps it.
        let mut model = cover_model(MICRO_LP_ROWS + 10);
        let first = model.var_ids().next().unwrap();
        model.add_constraint("cap", LinExpr::var(first), Cmp::Le, 1.0);
        let mut ws = RevisedWorkspace::new();
        let presolved = ws.solve_warm(&model, &SimplexOptions::default());
        assert!(ws.last_stats().presolve_rows_removed >= 1);
        let options = SimplexOptions {
            presolve: false,
            ..SimplexOptions::default()
        };
        ws.invalidate();
        let unpresolved = ws.solve_warm(&model, &options);
        let stats = ws.last_stats();
        assert_eq!(
            (stats.presolve_rows_removed, stats.presolve_cols_removed),
            (0, 0)
        );
        assert_eq!(ws.form.m, model.num_constraints());
        assert_eq!(unpresolved.status, Status::Optimal);
        assert_close(unpresolved.objective, presolved.objective);
    }

    #[test]
    fn a_grown_model_is_not_warm_started_from_the_smaller_form() {
        // The grown model's first rows are the small model's, so the
        // full warm entry's matrix check alone would accept them: the
        // row and column counts of the analysis must send it cold.
        for rows in [5, MICRO_LP_ROWS + 10] {
            let small = cover_model(rows);
            let mut grown = small.clone();
            let extra = grown.add_var("extra", 0.0, Some(5.0), 1.0);
            let tight = LinExpr::var(extra).plus(1.0, small.var_ids().next().unwrap());
            grown.add_constraint("tight", tight, Cmp::Ge, 9.0);
            let mut ws = RevisedWorkspace::new();
            assert_eq!(
                ws.solve_warm(&small, &SimplexOptions::default()).status,
                Status::Optimal
            );
            let warm = ws.solve_warm(&grown, &SimplexOptions::default());
            assert_eq!(ws.last_stats().warm, WarmStart::Cold, "rows={rows}");
            let cold = solve(&grown);
            assert_eq!(warm.status, Status::Optimal);
            assert_close(warm.objective, cold.objective);
            assert!(grown.is_feasible(&warm.values, 1e-6), "rows={rows}");
        }
    }

    /// Two overlapping `>=` rows: every structural column touches both
    /// deficient rows, so the crash pass cannot cover either and phase 1
    /// genuinely needs pivots — which is what lets a zero budget expire
    /// *before* any feasible point exists.
    fn needs_phase_one_pivots() -> Model {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("c1", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        m.add_constraint("c2", lin_sum([(1.0, x), (2.0, y)]), Cmp::Ge, 6.0);
        m
    }

    #[test]
    fn expired_deadline_stops_without_panicking() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        // A zero allowance expires before the first pivot: phase 1 has
        // no feasible point yet, so the stop is status-only with the
        // typed reason recorded.
        let m = needs_phase_one_pivots();
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        let mut ws = RevisedWorkspace::new();
        let sol = ws.solve_warm(&m, &options);
        assert_eq!(sol.status, Status::DeadlineExceeded);
        assert!(!sol.has_point());
        assert_eq!(ws.last_error(), Some(LpError::DeadlineExceeded));
    }

    #[test]
    fn warm_dual_deadline_stop_returns_a_valid_bound_and_stays_warm() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        // min -x - y with row caps x ≤ 4, y ≤ 4: optimum -8 at (4, 4).
        let build = |ub: f64| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, Some(ub), -1.0);
            let y = m.add_var("y", 0.0, Some(ub), -1.0);
            m.add_constraint("cx", LinExpr::var(x), Cmp::Le, 4.0);
            m.add_constraint("cy", LinExpr::var(y), Cmp::Le, 4.0);
            m
        };
        let mut ws = RevisedWorkspace::new();
        let first = ws.solve_warm(&build(10.0), &SimplexOptions::default());
        assert_eq!(first.status, Status::Optimal);
        assert_close(first.objective, -8.0);

        // Tighten the variable boxes to 2 (the branch-and-bound /
        // delta-cleanup pattern): the stored basis turns primal
        // infeasible but stays dual feasible, so the cleanup needs
        // dual pivots — which a zero deadline forbids.
        let tightened = build(2.0);
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        let stopped = ws.solve_warm(&tightened, &options);
        assert_eq!(stopped.status, Status::DeadlineExceeded);
        assert_eq!(ws.last_error(), Some(LpError::DeadlineExceeded));
        // No primal point — but a finite, valid lower bound on the new
        // optimum (-4 at (2, 2)).
        assert!(!stopped.has_point());
        assert!(stopped.objective.is_finite());
        assert!(stopped.objective <= -4.0 + 1e-9);

        // The basis survived the budget stop: a follow-up solve with an
        // unlimited budget finishes the cleanup warm.
        let finished = ws.solve_warm(&tightened, &SimplexOptions::default());
        assert_eq!(finished.status, Status::Optimal);
        assert_close(finished.objective, -4.0);
        assert_ne!(ws.last_stats().warm, WarmStart::Cold);
    }

    #[test]
    fn unlimited_budget_leaves_solves_untouched_and_clears_errors() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 2.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 4.0);
        let mut ws = RevisedWorkspace::new();
        let sol = ws.solve_warm(&m, &SimplexOptions::default());
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(ws.last_error(), None);
    }

    #[test]
    fn iteration_budget_returns_the_best_feasible_point_so_far() {
        use crate::error::SolveBudget;
        // All-`<=` model: the origin is feasible, phase 1 is empty, and
        // reaching the optimum needs several phase-2 pivots — so a
        // budget of one iteration must stop mid-phase-2 *with* a
        // feasible point whose objective is a valid bound.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 3.0);
        let y = m.add_var("y", 0.0, None, 5.0);
        m.add_constraint("c1", LinExpr::var(x), Cmp::Le, 4.0);
        m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
        m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
        let optimal = solve(&m);
        assert_eq!(optimal.status, Status::Optimal);
        assert_close(optimal.objective, 36.0);

        let mut ws = RevisedWorkspace::new();
        let stopped = ws.solve_warm(
            &m,
            &SimplexOptions {
                budget: SolveBudget::with_iterations(1),
                ..SimplexOptions::default()
            },
        );
        assert_eq!(stopped.status, Status::IterationLimit);
        assert_eq!(ws.last_error(), Some(LpError::IterationLimit));
        assert!(stopped.has_point(), "phase-2 stop must carry a point");
        assert!(m.is_feasible(&stopped.values, 1e-6));
        // Maximisation: any feasible point's objective lower-bounds the
        // optimum and cannot exceed it.
        assert!(stopped.objective <= optimal.objective + 1e-6);

        // A generous budget reaches the same optimum and clears the
        // error.
        let mut ws = RevisedWorkspace::new();
        let full = ws.solve_warm(
            &m,
            &SimplexOptions {
                budget: SolveBudget::with_iterations(10_000),
                ..SimplexOptions::default()
            },
        );
        assert_eq!(full.status, Status::Optimal);
        assert_eq!(ws.last_error(), None);
        assert_close(full.objective, optimal.objective);
    }

    #[test]
    fn checked_solve_distinguishes_usable_and_unusable_stops() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        let m = needs_phase_one_pivots();
        let mut ws = RevisedWorkspace::new();
        // Conclusive solve: an optimal point and no error.
        let ok = ws.solve_warm(&m, &SimplexOptions::default());
        assert_eq!(ok.status, Status::Optimal);
        assert_eq!(ws.last_error(), None);
        // Expired deadline before any feasible point: the typed error
        // and no point.
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        ws.invalidate();
        let stopped = ws.solve_warm(&m, &options);
        assert!(!stopped.has_point());
        assert_eq!(ws.last_error(), Some(LpError::DeadlineExceeded));
        // Infeasible models are a conclusive answer, not an error.
        let mut inf = Model::minimize();
        let z = inf.add_var("z", 0.0, Some(1.0), 1.0);
        inf.add_constraint("imp", LinExpr::var(z), Cmp::Ge, 5.0);
        ws.invalidate();
        let sol = ws.solve_warm(&inf, &SimplexOptions::default());
        assert_eq!(sol.status, Status::Infeasible);
        assert_eq!(ws.last_error(), None);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase_two() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("e1", lin_sum([(1.0, x), (1.0, y)]), Cmp::Eq, 5.0);
        m.add_constraint("e2", lin_sum([(2.0, x), (2.0, y)]), Cmp::Eq, 10.0);
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 5.0);
    }
}
