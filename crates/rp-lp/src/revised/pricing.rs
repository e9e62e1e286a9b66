//! Column and row pricing for the revised simplex.
//!
//! Primal side: **Dantzig** pricing — the nonbasic column with the most
//! attractive reduced cost enters, `O(n)` per pass with no update cost.
//! After `SimplexOptions::bland_after` iterations of one phase the rule
//! degrades to **Bland** (smallest eligible index), the anti-cycling
//! guarantee.
//!
//! The reduced costs `d_j = c_j − yᵀ a_j` are maintained
//! **incrementally**: the driver computes them from scratch (`O(nnz)`)
//! only at phase starts and refactorisations, and otherwise applies the
//! rank-one update `d ← d − (d_q/α_q)·α` after each pivot, where the
//! pivot row `α = Aᵀ B⁻ᵀ e_r` comes out of [`pivot_row_alphas`] —
//! computed **row-wise** over the nonzeros of `B⁻ᵀe_r` only, which on
//! the tree-structured replica bases touches a handful of rows.
//!
//! Dual side: the **most-violated row** leaves — the primal-infeasible
//! basic variable with the largest bound violation, ties broken towards
//! the smallest row. The violated-row set itself is kept
//! **incrementally** in [`DualCandidates`]: a dual pivot only moves the
//! basic values in the entering column's FTRAN pattern plus the
//! bound-flip deltas, so the loop patches the list from those sparse
//! updates and pays a full `O(m)` rebuild only at (re)factorisations
//! and before declaring primal feasibility.
//!
//! The dual *entering* column comes out of the bound-flipping dual
//! ratio test in [`super::ratio`], which walks the sparse pivot row's
//! breakpoints and flips boxed columns for longer dual steps.

use super::basis::{BasisState, ColStatus, StandardForm};

/// An entering candidate: the column and the direction it moves in
/// (`+1.0` away from its lower bound, `−1.0` away from its upper).
pub(crate) struct Entering {
    pub(crate) col: usize,
    pub(crate) sigma: f64,
}

/// Picks the entering column for a primal iteration from the
/// (incrementally maintained) reduced costs `d`, or `None` when none is
/// attractive. Artificial columns may be barred (phase 2). Dantzig
/// ranks candidates by `|d_j|`; `use_bland` takes the smallest eligible
/// index instead. A flat `O(n)` scan — no matrix access at all.
pub(crate) fn choose_entering(
    form: &StandardForm,
    basis: &BasisState,
    d: &[f64],
    tol: f64,
    use_bland: bool,
    allow_artificial: bool,
) -> Option<Entering> {
    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
    let art_base = form.art_base();
    let mut best: Option<(usize, f64, f64)> = None; // (col, sigma, score)
    debug_assert_eq!(d.len(), form.num_cols());
    for (col, &reduced) in d.iter().enumerate() {
        let sigma = match basis.status[col] {
            ColStatus::Basic(_) => continue,
            ColStatus::Lower => 1.0,
            ColStatus::Upper => -1.0,
        };
        if form.is_fixed(col) {
            continue;
        }
        if !allow_artificial && col >= art_base {
            continue;
        }
        // Attractive iff moving in `sigma` direction lowers the cost.
        let score = -sigma * reduced;
        if score > tol {
            if use_bland {
                return Some(Entering { col, sigma });
            }
            match best {
                Some((_, _, best_score)) if score <= best_score => {}
                _ => best = Some((col, sigma, score)),
            }
        }
    }
    best.map(|(col, sigma, _)| Entering { col, sigma })
}

/// Computes the sparse pivot row `α = Aᵀ·rho` **row-wise**: only the
/// rows in `rho_nz` (the BTRAN's output pattern) are visited, so the
/// cost is proportional to the nonzeros of `rho` and their rows — on
/// the tree-structured replica bases a handful of entries, not `O(m)`.
/// The result lands in `(cols, vals)`; `acc` is a dense accumulator
/// that must be (and is left) all-zero.
pub(crate) fn pivot_row_alphas(
    form: &StandardForm,
    rho: &[f64],
    rho_nz: &[u32],
    acc: &mut [f64],
    cols: &mut Vec<u32>,
    vals: &mut Vec<f64>,
) {
    cols.clear();
    vals.clear();
    debug_assert_eq!(acc.len(), form.num_cols());
    let n = form.n_struct;
    for &row in rho_nz {
        let row = row as usize;
        let r = rho[row];
        if r == 0.0 {
            continue;
        }
        // The slack of this row has a single +1 entry.
        let slack = n + row;
        if acc[slack] == 0.0 {
            cols.push(slack as u32);
        }
        acc[slack] += r;
        // Structural columns, via the CSR mirror.
        for k in form.row_ptr[row]..form.row_ptr[row + 1] {
            let col = form.row_cols[k] as usize;
            let contribution = form.row_vals[k] * r;
            if contribution != 0.0 {
                if acc[col] == 0.0 {
                    cols.push(col as u32);
                }
                acc[col] += contribution;
            }
        }
    }
    // Artificials: one signed entry each (the list is short).
    let art_base = form.art_base();
    for (a, &row) in form.art_rows.iter().enumerate() {
        let r = rho[row];
        if r != 0.0 {
            let col = art_base + a;
            if acc[col] == 0.0 {
                cols.push(col as u32);
            }
            acc[col] += form.art_signs[a] * r;
        }
    }
    // Gather and reset the accumulator (cancellations leave zeros in
    // `vals`, which every consumer skips).
    for &col in cols.iter() {
        vals.push(acc[col as usize]);
        acc[col as usize] = 0.0;
    }
}

/// Bound violation of the basic variable in `row`: magnitude and side
/// (`true` = above the upper bound).
#[inline]
fn row_violation(form: &StandardForm, basis: &BasisState, row: usize) -> (f64, bool) {
    let col = basis.basic[row];
    let value = basis.x_basic[row];
    let below = form.lower[col] - value;
    let above = value - form.upper[col];
    if above > below {
        (above, true)
    } else {
        (below, false)
    }
}

/// A leaving candidate for the dual simplex: the row whose basic
/// variable violates a bound, and on which side.
pub(crate) struct Leaving {
    pub(crate) row: usize,
    /// `true` when the basic value exceeds its upper bound, `false`
    /// when it undershoots its lower bound.
    pub(crate) above: bool,
    /// Magnitude of the bound violation — the initial slope of the
    /// bound-flipping dual ratio test.
    pub(crate) violation: f64,
}

/// Incremental leaving-row candidate list for the dual simplex.
///
/// A dual pivot only moves the basic values in the entering column's
/// FTRAN pattern (plus the rows a bound-flip pass touches), so instead
/// of rescanning all `m` rows per iteration the loop keeps the set of
/// currently violated rows and patches it from those sparse deltas:
/// [`Self::note`] admits rows whose value just moved, [`Self::pick`]
/// evicts rows that pivoted back inside their bounds while selecting
/// the most violated one. The list is only a superset heuristic —
/// before the loop may declare primal feasibility it must
/// [`Self::rebuild`] from a full scan and pick again, and a
/// refactorisation recomputes every basic value so it rebuilds too.
#[derive(Default)]
pub(crate) struct DualCandidates {
    rows: Vec<u32>,
    in_list: Vec<bool>,
}

impl DualCandidates {
    /// Full O(m) rescan: repopulates the list with every violated row.
    pub(crate) fn rebuild(&mut self, form: &StandardForm, basis: &BasisState, tol: f64) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        self.rows.clear();
        self.in_list.clear();
        self.in_list.resize(basis.basic.len(), false);
        for row in 0..basis.basic.len() {
            let (violation, _) = row_violation(form, basis, row);
            if violation > tol {
                self.rows.push(row as u32);
                self.in_list[row] = true;
            }
        }
    }

    /// Re-checks a row whose basic value just changed and admits it if
    /// it now violates a bound.
    pub(crate) fn note(&mut self, form: &StandardForm, basis: &BasisState, tol: f64, row: usize) {
        if self.in_list[row] {
            return;
        }
        let (violation, _) = row_violation(form, basis, row);
        if violation > tol {
            self.rows.push(row as u32);
            self.in_list[row] = true;
        }
    }

    /// The most violated candidate, compacting away rows that no longer
    /// violate. `None` means the *list* drained — the caller must
    /// `rebuild` and pick once more before trusting it as primal
    /// feasibility.
    pub(crate) fn pick(
        &mut self,
        form: &StandardForm,
        basis: &BasisState,
        tol: f64,
    ) -> Option<Leaving> {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        let mut best: Option<Leaving> = None;
        let mut i = 0;
        while i < self.rows.len() {
            let row = self.rows[i] as usize;
            let (violation, above) = row_violation(form, basis, row);
            if violation <= tol {
                self.in_list[row] = false;
                self.rows.swap_remove(i);
                continue;
            }
            // Ties break towards the smallest row so the selection is
            // independent of the list's (compaction-dependent) order.
            let better = match &best {
                Some(b) => violation > b.violation || (violation == b.violation && row < b.row),
                None => true,
            };
            if better {
                best = Some(Leaving {
                    row,
                    above,
                    violation,
                });
            }
            i += 1;
        }
        best
    }
}
