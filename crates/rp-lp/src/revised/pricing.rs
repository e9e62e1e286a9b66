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
//! the smallest row. The candidates live in a **lazy max-heap**
//! ([`DualCandidates`]): a dual pivot only moves the basic values in the
//! entering column's FTRAN pattern plus the bound-flip deltas, so the
//! loop pushes those rows with their new violations, a pick discards
//! the entries whose row has moved on since, and a full `O(m)` rebuild
//! runs only at (re)factorisations and before declaring primal
//! feasibility.
//!
//! The dual *entering* column comes out of the bound-flipping dual
//! ratio test in [`super::ratio`], which walks the sparse pivot row's
//! breakpoints and flips boxed columns for longer dual steps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

impl Leaving {
    /// `row` as a leaving candidate, if its basic variable violates a
    /// bound by more than `tol`.
    pub(crate) fn violated(
        form: &StandardForm,
        basis: &BasisState,
        tol: f64,
        row: usize,
    ) -> Option<Leaving> {
        let (violation, above) = row_violation(form, basis, row);
        (violation > tol).then_some(Leaving {
            row,
            above,
            violation,
        })
    }
}

/// Leaving-row candidates for the dual simplex: a lazy max-heap of
/// `(violation, row)` entries, stored as `(violation bits, Reverse(row))`.
/// A stored violation is always positive, and positive `f64`s order
/// like their bit patterns, so the maximum is the largest violation,
/// ties to the smallest row.
///
/// A dual pivot only moves the basic values in the entering column's
/// FTRAN pattern (plus the rows a bound-flip pass touches), and the
/// loop reports each of those rows to [`Self::note`], which pushes the
/// row with its new violation whenever it violates a bound. An entry is
/// *live* while its stored violation still equals the row's current
/// one; [`Self::pick`] drops dead entries off the top until a live one
/// surfaces and returns it without popping. Because every change of a
/// basic value reaches `note`, or a full [`Self::rebuild`] after a
/// refactorisation recomputes them all, every violated row has a live
/// entry, so the top live entry is exactly the row a full scan picks:
/// the largest violation, ties to the smallest row. A pick costs the
/// dead entries it pops, not a pass over the violated set. The loop
/// still confirms an empty heap with a rebuild before it declares
/// primal feasibility.
#[derive(Default)]
pub(crate) struct DualCandidates {
    heap: BinaryHeap<(u64, Reverse<u32>)>,
}

impl DualCandidates {
    /// Full `O(m)` scan: the heap becomes one live entry per violated
    /// row, heapified in place.
    pub(crate) fn rebuild(&mut self, form: &StandardForm, basis: &BasisState, tol: f64) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        for row in 0..basis.basic.len() {
            let (violation, _) = row_violation(form, basis, row);
            if violation > tol {
                entries.push((violation.to_bits(), Reverse(row as u32)));
            }
        }
        self.heap = BinaryHeap::from(entries);
    }

    /// Records a row whose basic value just changed: pushes it with its
    /// new violation if it violates a bound. Any older entry of the row
    /// is dead from now on unless the row returns to that violation.
    pub(crate) fn note(&mut self, form: &StandardForm, basis: &BasisState, tol: f64, row: usize) {
        let (violation, _) = row_violation(form, basis, row);
        if violation > tol {
            self.heap.push((violation.to_bits(), Reverse(row as u32)));
        }
    }

    /// The most violated row, ties to the smallest row, after dropping
    /// the dead entries above it. `None` means no live entry is left —
    /// the caller confirms it with [`Self::rebuild`] before trusting it
    /// as primal feasibility.
    pub(crate) fn pick(&mut self, form: &StandardForm, basis: &BasisState) -> Option<Leaving> {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        while let Some(&(bits, Reverse(row))) = self.heap.peek() {
            let row = row as usize;
            let (violation, above) = row_violation(form, basis, row);
            if violation.to_bits() == bits {
                return Some(Leaving {
                    row,
                    above,
                    violation,
                });
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream (no RNG dependency inside rp-lp).
    struct XorShift(u64);
    impl XorShift {
        fn next_usize(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
        /// A value from a small grid, so that violations tie often.
        fn grid_value(&mut self) -> f64 {
            [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0][self.next_usize(10)]
        }
    }

    /// The row a full scan picks: the largest violation, ties to the
    /// smallest row.
    fn scan(form: &StandardForm, basis: &BasisState, tol: f64) -> Option<(usize, bool, f64)> {
        let mut best: Option<(usize, bool, f64)> = None;
        for row in 0..basis.basic.len() {
            let (violation, above) = row_violation(form, basis, row);
            if violation > tol && best.is_none_or(|(_, _, v)| violation > v) {
                best = Some((row, above, violation));
            }
        }
        best
    }

    #[test]
    fn heap_pick_matches_a_full_scan() {
        let tol = 1e-9;
        let mut rng = XorShift(0x5EED_1234);
        for m in [1usize, 7, 40] {
            // Two columns per row, with different boxes, so a basis
            // change moves a row's violation without moving its value.
            let mut form = StandardForm::default();
            for col in 0..2 * m {
                form.lower.push([0.0, -1.0, f64::NEG_INFINITY][col % 3]);
                form.upper.push([1.0, 2.0, f64::INFINITY, 0.0][col % 4]);
            }
            let mut basis = BasisState {
                status: Vec::new(),
                basic: (0..m).collect(),
                x_basic: (0..m).map(|_| rng.grid_value()).collect(),
            };
            let mut cands = DualCandidates::default();
            cands.rebuild(&form, &basis, tol);
            let mut picks = 0;
            for step in 0..400 {
                let row = rng.next_usize(m);
                match rng.next_usize(6) {
                    // A pivot-like sparse move of a few rows.
                    0..=2 => {
                        for _ in 0..=rng.next_usize(3) {
                            let row = rng.next_usize(m);
                            basis.x_basic[row] = rng.grid_value();
                            cands.note(&form, &basis, tol, row);
                        }
                    }
                    // A row that moves away and back to the same value,
                    // noted both times.
                    3 => {
                        let old = basis.x_basic[row];
                        basis.x_basic[row] = rng.grid_value();
                        cands.note(&form, &basis, tol, row);
                        basis.x_basic[row] = old;
                        cands.note(&form, &basis, tol, row);
                    }
                    // A basis change in the row: another column, another box.
                    4 => {
                        basis.basic[row] = (basis.basic[row] + m) % (2 * m);
                        basis.x_basic[row] = rng.grid_value();
                        cands.note(&form, &basis, tol, row);
                    }
                    // A recompute of every basic value, then a rebuild.
                    _ => {
                        if step % 7 == 0 {
                            for x in basis.x_basic.iter_mut() {
                                *x = rng.grid_value();
                            }
                            cands.rebuild(&form, &basis, tol);
                        }
                    }
                }
                let expected = scan(&form, &basis, tol);
                let got = cands
                    .pick(&form, &basis)
                    .map(|l| (l.row, l.above, l.violation));
                assert_eq!(got, expected, "m = {m}, step {step}");
                picks += usize::from(got.is_some());
            }
            assert!(picks > 0, "m = {m}: no row ever violated");
        }
    }
}
