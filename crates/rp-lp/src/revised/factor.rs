//! Basis factorisation: **sparse Markowitz LU** with **Forrest–Tomlin
//! updates**.
//!
//! The revised simplex never forms `B⁻¹` explicitly. This module keeps
//!
//! * a sparse LU factorisation `P·B·Q = L·U` of the basis, computed in
//!   two stages. The **singleton stage** pivots on column singletons
//!   (an empty `L` column) and, when none is left, on row singletons
//!   that pass the threshold test (an empty `U` row), taking them from
//!   two last-in-first-out stacks over flat column- and row-wise copies
//!   of the basis. Neither kind changes the remaining entries, so the
//!   stage writes `L` and `U` straight from the basis with no Schur
//!   update. What it cannot peel is the **nucleus**, which
//!   **Markowitz pivoting** factors: at every elimination step the
//!   pivot is the entry minimising the fill bound `(r_i − 1)(c_j − 1)`
//!   among entries passing **threshold partial pivoting**
//!   (`|a_ij| ≥ u·max_i |a_ij|`), found Suhl-style by scanning a
//!   handful of the shortest active columns (with the same singleton
//!   fast paths first). The search's active-submatrix state is built
//!   only for a nonempty nucleus, exactly as the search would have
//!   left it had it run from the first step, so the elimination order
//!   and the factors do not depend on where the stages meet. The
//!   tree-structured replica bases are almost triangular: on the
//!   s = 2000 bandwidth bound the singleton stage factors every basis
//!   (`L` stays empty), and the search only meets nuclei of a few rows
//!   on a small share of the smaller formulations' bases. Either way
//!   the factors hold `O(nnz)` entries instead of the `O(m³)` work and
//!   `O(m²)` memory a dense LU pays, and
//! * a **Forrest–Tomlin update** per basis change: instead of appending
//!   a product-form eta, the spiked column of `U` is eliminated with row
//!   operations whose multipliers form a short *row eta*, the spike
//!   becomes the last column of `U`'s elimination order, and `U` stays
//!   genuinely triangular — so hundreds of basis changes amortise one
//!   refactorisation without the eta file's solve-time blow-up.
//!
//! Both factors are stored column-wise **and** row-wise so that all four
//! triangular solves run in **scatter form**: a position whose running
//! value is exactly zero contributes nothing and is skipped outright.
//! There is one solve per direction, `ftran` (`B·x = v`) and `btran`
//! (`Bᵀ·y = v`), and each takes the right-hand side's nonzero pattern
//! when the caller has one. With a pattern (an entering column, a unit
//! vector, a bound-flip residual) the triangular solves visit only the
//! structurally reachable positions, popped off a min-heap in
//! elimination order, so the solve costs close to the nonzeros it
//! touches — the hyper-sparsity that makes the revised method scale to
//! multi-thousand-row formulations. Without one (the dense right-hand
//! sides after a refactorisation), or once the live pattern outgrows
//! the sparse cutoff, the solve runs the dense sweeps over all `m`
//! steps. Both routes do the same arithmetic in the same order, so they
//! return the same bits.
//!
//! Index spaces: `ftran` maps the *constraint-row* space to the *basis
//! slot* space (`x[k]` = value of the column basic in row `k`), `btran`
//! the other way around; internally everything lives in *elimination
//! step* space via the permutations `p` (step → constraint row) and `q`
//! (step → basis slot). Forrest–Tomlin updates reorder `U`'s steps
//! through `uorder`/`upos` without renumbering them.
//!
//! All buffers live in the struct and keep their capacity across solves
//! and refactorisations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::TranCounters;

/// Pivot magnitude below which a refactorisation declares the basis
/// numerically singular.
const SINGULAR_TOL: f64 = 1e-11;

/// Threshold partial pivoting factor `u`: a pivot candidate must have
/// `|a_ij| ≥ u · max_i |a_ij|` within its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// Suhl's search bound: stop the Markowitz scan after this many columns
/// yielded at least one threshold-eligible candidate.
const SEARCH_COLUMNS: usize = 4;

/// Step marker of a row or basis slot the refactorisation has not
/// pivoted yet.
const UNPIVOTED: u32 = u32::MAX;

/// Hole marker in `uorder`: a Forrest–Tomlin update re-appends the
/// updated step at the back and leaves this sentinel at its old
/// position instead of shifting the whole array.
const UORDER_HOLE: u32 = u32::MAX;

/// A sparse solve whose live pattern grows past `m / SPARSE_FALLBACK_DIV`
/// finishes with the plain dense sweeps (the heap bookkeeping would
/// cost more than it saves).
const SPARSE_FALLBACK_DIV: usize = 8;

/// A min-heap entry of the sparse solves and the update: it pops by
/// `key` and carries `payload` in its low bits. Every key is unique
/// within one solve (the membership mask admits each position once), so
/// the pop order is fully determined by the keys.
fn heap_entry(key: u32, payload: u32) -> Reverse<u64> {
    Reverse((u64::from(key) << 32) | u64::from(payload))
}

/// Sparse LU factors plus the Forrest–Tomlin update state. See the
/// module docs.
#[derive(Default)]
pub(crate) struct Factorization {
    /// Basis dimension at the last refactorisation.
    m: usize,
    /// `p[k]` = constraint row pivoted at elimination step `k`.
    p: Vec<u32>,
    /// `q[k]` = basis slot (column of `B`) pivoted at step `k`.
    q: Vec<u32>,
    /// Inverse of `q`.
    step_of_slot: Vec<u32>,
    // ---- L (static per refactorisation), step space, unit diagonal ----
    lcol_ptr: Vec<usize>,
    lcol_idx: Vec<u32>,
    lcol_val: Vec<f64>,
    lrow_ptr: Vec<usize>,
    lrow_idx: Vec<u32>,
    lrow_val: Vec<f64>,
    // ---- U (mutated by updates), step space, off-diagonal entries ----
    /// `ucols[k]`: entries `(step i, U[i,k])` with `upos[i] < upos[k]`.
    ucols: Vec<Vec<(u32, f64)>>,
    /// `urows[k]`: entries `(step j, U[k,j])` with `upos[j] > upos[k]`.
    urows: Vec<Vec<(u32, f64)>>,
    udiag: Vec<f64>,
    /// Elimination order of the steps (Forrest–Tomlin cycles updated
    /// steps to the back) and its inverse.
    uorder: Vec<u32>,
    upos: Vec<u32>,
    // ---- Forrest–Tomlin row etas ----
    eta_target: Vec<u32>,
    eta_ptr: Vec<usize>,
    eta_idx: Vec<u32>,
    eta_val: Vec<f64>,
    num_updates: usize,
    /// Intermediate FTRAN vector (after `L` and the row etas, before
    /// `U`): exactly the spike column the next Forrest–Tomlin update
    /// needs. Saved by every `ftran`, with its nonzero pattern in
    /// `spike_nz`.
    spike: Vec<f64>,
    spike_nz: Vec<u32>,
    // ---- solve scratch ----
    /// Dense solve vector in step space; **all-zero between calls** —
    /// every solve path restores the zeros it wrote.
    work: Vec<f64>,
    acc: Vec<f64>,
    mults: Vec<(u32, f64)>,
    /// Membership mask for the sparse-solve pattern (step space;
    /// all-false between calls).
    mask: Vec<bool>,
    /// Min-heap of [`heap_entry`] keys driving the sparse triangular
    /// solves and the update's row elimination.
    heap: BinaryHeap<Reverse<u64>>,
    /// Current pattern of `work` during a sparse solve.
    nzbuf: Vec<u32>,
    // ---- refactorisation working state ----
    /// Inverse of `p`: the step that pivoted each constraint row,
    /// [`UNPIVOTED`] while a refactorisation has not reached it (as
    /// `step_of_slot` is for the basis slots).
    row_step: Vec<u32>,
    /// The loaded basis, column-wise with duplicates merged. Column
    /// `j`'s entries in rows not yet pivoted are the first
    /// `col_len[j]` of its range, in the order the Markowitz state
    /// would hold them (a pivoted row's entry is swap-removed).
    bcol_ptr: Vec<usize>,
    bcol_row: Vec<u32>,
    bcol_val: Vec<f64>,
    col_len: Vec<u32>,
    /// Row-wise pattern of the loaded basis: each row's columns in
    /// increasing order (entries in pivoted columns are skipped, never
    /// removed).
    brow_ptr: Vec<usize>,
    brow_col: Vec<u32>,
    /// Entries of each row in columns not yet pivoted.
    row_len: Vec<u32>,
    /// Stacks of the columns and rows that became singletons (stale
    /// entries are skipped when they surface).
    sing_cols: Vec<u32>,
    sing_rows: Vec<u32>,
    /// Pivot-row entries `(basis slot, U value)` of every step, flat,
    /// step `k` at `uptr[k]..uptr[k + 1]`; converted to step space once
    /// the last step is known.
    uptr: Vec<usize>,
    uslot: Vec<u32>,
    uval: Vec<f64>,
    // ---- nucleus (Markowitz) state, built only when the peel stops
    // short of `m` ----
    /// Active-submatrix columns: `(constraint row, value)` pairs.
    acols: Vec<Vec<(u32, f64)>>,
    /// Active rows → column ids (entries in pivoted columns are
    /// skipped when met).
    arows: Vec<Vec<u32>>,
    /// Columns bucketed by active length (stale-tolerant); bucket 1 is
    /// the singleton-column stack.
    col_bucket: Vec<Vec<u32>>,
    /// Position-in-column stamps (`-1` = absent).
    pos_stamp: Vec<i32>,
    load_rows: Vec<u32>,
    load_vals: Vec<f64>,
    counts: Vec<usize>,
    // ---- lifetime FTRAN/BTRAN input statistics ----
    /// Counted in the permute-in loops (the sparse-skip ratio
    /// diagnostics); monotone across refactorisations, so per-solve
    /// numbers are deltas taken by the workspace.
    ftran_io: TranCounters,
    btran_io: TranCounters,
}

/// Clears every inner vector and grows the outer one to at least `len`.
fn reset_nested<T>(store: &mut Vec<Vec<T>>, len: usize) {
    for v in store.iter_mut() {
        v.clear();
    }
    if store.len() < len {
        store.resize_with(len, Vec::new);
    }
}

impl Factorization {
    /// Number of Forrest–Tomlin updates absorbed since the last
    /// refactorisation.
    pub(crate) fn updates(&self) -> usize {
        self.num_updates
    }

    /// Lifetime `(ftran, btran)` input statistics — calls, input
    /// nonzeros and summed dimensions since the factorisation was
    /// created. Monotone; per-solve figures are deltas.
    pub(crate) fn io_counters(&self) -> (TranCounters, TranCounters) {
        (self.ftran_io, self.btran_io)
    }

    /// Nonzero counts `(nnz(L), nnz(U))` of the current factors
    /// (diagonals included in `U`).
    pub(crate) fn nnz(&self) -> (usize, usize) {
        let unnz = self.m + self.ucols.iter().map(Vec::len).sum::<usize>();
        (self.lcol_idx.len(), unnz)
    }

    /// Refactorises from scratch: `load_column(k, rows, vals)` must
    /// append the `(row, value)` pairs of the `k`-th basis column
    /// (duplicates are merged here). Returns `false` when the basis is
    /// numerically singular.
    ///
    /// The singleton stage ([`Self::next_singleton`], [`Self::peel`])
    /// pivots first; the Markowitz search factors whatever nucleus it
    /// leaves, from the state it would have reached on its own.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        mut load_column: impl FnMut(usize, &mut Vec<u32>, &mut Vec<f64>),
    ) -> bool {
        self.m = m;
        self.num_updates = 0;
        self.eta_target.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_idx.clear();
        self.eta_val.clear();
        self.p.clear();
        self.q.clear();
        self.udiag.clear();
        self.step_of_slot.clear();
        self.step_of_slot.resize(m, UNPIVOTED);
        self.row_step.clear();
        self.row_step.resize(m, UNPIVOTED);
        self.row_len.clear();
        self.row_len.resize(m, 0);
        self.pos_stamp.clear();
        self.pos_stamp.resize(m, -1);
        self.sing_cols.clear();
        self.sing_rows.clear();
        self.lcol_ptr.clear();
        self.lcol_ptr.push(0);
        self.lcol_idx.clear();
        self.lcol_val.clear();
        self.uptr.clear();
        self.uptr.push(0);
        self.uslot.clear();
        self.uval.clear();

        // Load the basis columns, merging duplicate rows via stamps.
        self.bcol_ptr.clear();
        self.bcol_ptr.push(0);
        self.bcol_row.clear();
        self.bcol_val.clear();
        self.col_len.clear();
        for j in 0..m {
            self.load_rows.clear();
            self.load_vals.clear();
            load_column(j, &mut self.load_rows, &mut self.load_vals);
            let start = self.bcol_row.len();
            for (&r, &v) in self.load_rows.iter().zip(&self.load_vals) {
                if v == 0.0 {
                    continue;
                }
                let r_us = r as usize;
                let pos = self.pos_stamp[r_us];
                if pos >= 0 {
                    self.bcol_val[start + pos as usize] += v;
                } else {
                    self.pos_stamp[r_us] = (self.bcol_row.len() - start) as i32;
                    self.bcol_row.push(r);
                    self.bcol_val.push(v);
                }
            }
            for &r in &self.bcol_row[start..] {
                self.pos_stamp[r as usize] = -1;
                self.row_len[r as usize] += 1;
            }
            let len = self.bcol_row.len() - start;
            self.bcol_ptr.push(self.bcol_row.len());
            self.col_len.push(len as u32);
            if len == 1 {
                self.sing_cols.push(j as u32);
            }
        }
        // The row-wise pattern, by counting sort (columns ascending).
        self.brow_ptr.clear();
        self.brow_ptr.push(0);
        for r in 0..m {
            let end = self.brow_ptr[r] + self.row_len[r] as usize;
            self.brow_ptr.push(end);
            if self.row_len[r] == 1 {
                self.sing_rows.push(r as u32);
            }
        }
        self.brow_col.clear();
        self.brow_col.resize(self.bcol_row.len(), 0);
        self.counts.clear();
        self.counts.extend_from_slice(&self.brow_ptr[..m]);
        for j in 0..m {
            for &r in &self.bcol_row[self.bcol_ptr[j]..self.bcol_ptr[j + 1]] {
                let cursor = self.counts[r as usize];
                self.brow_col[cursor] = j as u32;
                self.counts[r as usize] = cursor + 1;
            }
        }

        let mut step = 0;
        while let Some((pr, pc)) = self.next_singleton() {
            self.peel(step, pr, pc);
            step += 1;
        }
        if step < m {
            self.build_nucleus(step);
            for step in step..m {
                let Some((pr, pc)) = self.find_pivot() else {
                    return false;
                };
                self.eliminate(step, pr, pc);
            }
        }
        self.finalize();
        true
    }

    /// Entries of column `j` in rows not yet pivoted (positions into
    /// `bcol_row` / `bcol_val`).
    fn active(&self, j: usize) -> std::ops::Range<usize> {
        let start = self.bcol_ptr[j];
        start..start + self.col_len[j] as usize
    }

    /// The next pivot of the singleton stage, taken from the singleton
    /// stacks exactly as [`Self::find_pivot`]'s fast paths would take
    /// it: a column singleton first (empty `L` column), else a row
    /// singleton (empty `U` row) that passes the threshold test. `None`
    /// once neither stack offers an acceptable pivot: the rest is the
    /// nucleus.
    fn next_singleton(&mut self) -> Option<(usize, usize)> {
        while let Some(&j) = self.sing_cols.last() {
            let j_us = j as usize;
            if self.step_of_slot[j_us] != UNPIVOTED || self.col_len[j_us] != 1 {
                self.sing_cols.pop();
                continue;
            }
            let at = self.bcol_ptr[j_us];
            if self.bcol_val[at].abs() >= SINGULAR_TOL {
                self.sing_cols.pop();
                return Some((self.bcol_row[at] as usize, j_us));
            }
            break; // tiny entry: leave the column to the nucleus
        }
        while let Some(&r) = self.sing_rows.last() {
            let r_us = r as usize;
            if self.row_step[r_us] != UNPIVOTED || self.row_len[r_us] != 1 {
                self.sing_rows.pop();
                continue;
            }
            let row = &self.brow_col[self.brow_ptr[r_us]..self.brow_ptr[r_us + 1]];
            let Some(j) = row
                .iter()
                .map(|&j| j as usize)
                .find(|&j| self.step_of_slot[j] == UNPIVOTED)
            else {
                self.sing_rows.pop();
                continue;
            };
            let mut v = 0.0f64;
            let mut colmax = 0.0f64;
            for at in self.active(j) {
                let x = self.bcol_val[at];
                if self.bcol_row[at] == r {
                    v = x;
                }
                colmax = colmax.max(x.abs());
            }
            if v.abs() >= MARKOWITZ_THRESHOLD * colmax && v.abs() >= SINGULAR_TOL {
                self.sing_rows.pop();
                return Some((r_us, j));
            }
            break; // fails the threshold: the nucleus decides
        }
        None
    }

    /// Records step `step`'s pivot in the permutations.
    fn record_pivot(&mut self, step: usize, pr: usize, pc: usize) {
        self.p.push(pr as u32);
        self.q.push(pc as u32);
        self.row_step[pr] = step as u32;
        self.step_of_slot[pc] = step as u32;
    }

    /// One singleton-stage step: a column singleton's `L` column or a
    /// row singleton's `U` row is empty, so the step writes its factor
    /// entries and updates the counts, with no Schur update.
    fn peel(&mut self, step: usize, pr: usize, pc: usize) {
        self.record_pivot(step, pr, pc);
        let active = self.active(pc);
        let pv = self.bcol_val[active.clone()]
            .iter()
            .zip(&self.bcol_row[active.clone()])
            .find_map(|(&v, &r)| (r as usize == pr).then_some(v))
            .unwrap_or(0.0);
        debug_assert!(pv != 0.0, "singleton pivot on a structural zero");
        let inv = 1.0 / pv;
        for at in active {
            let r = self.bcol_row[at];
            if r as usize == pr {
                continue;
            }
            self.lcol_idx.push(r);
            self.lcol_val.push(self.bcol_val[at] * inv);
            self.row_len[r as usize] -= 1;
            if self.row_len[r as usize] == 1 {
                self.sing_rows.push(r);
            }
        }
        self.lcol_ptr.push(self.lcol_idx.len());
        self.udiag.push(pv);
        // U row = the pivot row's entries in unpivoted columns, each
        // swap-removed from its column.
        for idx in self.brow_ptr[pr]..self.brow_ptr[pr + 1] {
            let j = self.brow_col[idx] as usize;
            if self.step_of_slot[j] != UNPIVOTED {
                continue;
            }
            let mut active = self.active(j);
            let last = active.end - 1;
            let Some(at) = active.find(|&at| self.bcol_row[at] as usize == pr) else {
                continue;
            };
            self.uslot.push(j as u32);
            self.uval.push(self.bcol_val[at]);
            self.bcol_row[at] = self.bcol_row[last];
            self.bcol_val[at] = self.bcol_val[last];
            self.col_len[j] -= 1;
            if self.col_len[j] == 1 {
                self.sing_cols.push(j as u32);
            }
        }
        self.uptr.push(self.uslot.len());
        self.row_len[pr] = 0;
    }

    /// Builds the Markowitz state of the nucleus the singleton stage
    /// left after `peeled` steps, identical to the state the search
    /// would hold had it run from the first step: the unpivoted
    /// entries in their swap-removed order, and length buckets that
    /// replay every push the peeled steps made (stale entries
    /// included, since they decide the order the search visits
    /// columns in).
    fn build_nucleus(&mut self, peeled: usize) {
        let m = self.m;
        reset_nested(&mut self.acols, m);
        reset_nested(&mut self.arows, m);
        reset_nested(&mut self.col_bucket, m + 1);
        for j in 0..m {
            if self.step_of_slot[j] == UNPIVOTED {
                let active = self.active(j);
                let rows = &self.bcol_row[active.clone()];
                let vals = &self.bcol_val[active];
                self.acols[j].extend(rows.iter().copied().zip(vals.iter().copied()));
            }
        }
        for r in 0..m {
            if self.row_step[r] == UNPIVOTED {
                let row = &self.brow_col[self.brow_ptr[r]..self.brow_ptr[r + 1]];
                let step_of_slot = &self.step_of_slot;
                self.arows[r].extend(
                    row.iter()
                        .filter(|&&j| step_of_slot[j as usize] == UNPIVOTED),
                );
            }
        }
        // Bucket 1 is the singleton-column stack as the peel left it.
        // Longer buckets: the load pushed every column at its loaded
        // length, then each peeled step pushed the columns its pivot
        // row shortened (`col_len` is free for the replay now).
        self.col_bucket[1] = std::mem::take(&mut self.sing_cols);
        for j in 0..m {
            let len = self.bcol_ptr[j + 1] - self.bcol_ptr[j];
            self.col_len[j] = len as u32;
            if len >= 2 {
                self.col_bucket[len].push(j as u32);
            }
        }
        for k in 0..peeled {
            let pr = self.p[k] as usize;
            for idx in self.brow_ptr[pr]..self.brow_ptr[pr + 1] {
                let j = self.brow_col[idx] as usize;
                if self.step_of_slot[j] as usize > k {
                    self.col_len[j] -= 1;
                    if self.col_len[j] >= 2 {
                        self.col_bucket[self.col_len[j] as usize].push(j as u32);
                    }
                }
            }
        }
    }

    /// Markowitz pivot search over the nucleus, with singleton fast
    /// paths; `None` means no entry anywhere passes the absolute
    /// tolerance — a singular basis.
    fn find_pivot(&mut self) -> Option<(usize, usize)> {
        // Singleton columns first: cost 0 and an empty L column.
        while let Some(&j) = self.col_bucket[1].last() {
            let j_us = j as usize;
            if self.step_of_slot[j_us] != UNPIVOTED || self.acols[j_us].len() != 1 {
                self.col_bucket[1].pop();
                continue;
            }
            let (r, v) = self.acols[j_us][0];
            if v.abs() >= SINGULAR_TOL {
                self.col_bucket[1].pop();
                return Some((r as usize, j_us));
            }
            break; // tiny entry: leave the column to the general search
        }
        // Singleton rows: cost 0 and no Schur update at all.
        while let Some(&r) = self.sing_rows.last() {
            let r_us = r as usize;
            if self.row_step[r_us] != UNPIVOTED || self.row_len[r_us] != 1 {
                self.sing_rows.pop();
                continue;
            }
            let mut found = None;
            for &j in &self.arows[r_us] {
                let j_us = j as usize;
                if self.step_of_slot[j_us] != UNPIVOTED {
                    continue;
                }
                if let Some(&(_, v)) = self.acols[j_us].iter().find(|&&(rr, _)| rr == r) {
                    found = Some((j_us, v));
                    break;
                }
            }
            let Some((j_us, v)) = found else {
                self.sing_rows.pop();
                continue;
            };
            let colmax = self.acols[j_us]
                .iter()
                .fold(0.0f64, |a, &(_, x)| a.max(x.abs()));
            if v.abs() >= MARKOWITZ_THRESHOLD * colmax && v.abs() >= SINGULAR_TOL {
                self.sing_rows.pop();
                return Some((r_us, j_us));
            }
            break; // fails the threshold: the general search decides
        }
        // General search: shortest columns first, threshold-filtered,
        // best Markowitz cost (ties to the largest pivot magnitude).
        let mut best: Option<(usize, usize, f64, u64)> = None;
        let mut examined = 0usize;
        for len in 1..=self.m {
            let mut bucket = std::mem::take(&mut self.col_bucket[len]);
            let mut i = 0;
            while i < bucket.len() {
                let j = bucket[i];
                let j_us = j as usize;
                if self.step_of_slot[j_us] != UNPIVOTED || self.acols[j_us].len() != len {
                    bucket.swap_remove(i);
                    continue;
                }
                i += 1;
                let col = &self.acols[j_us];
                let mut colmax = 0.0f64;
                for &(_, v) in col {
                    colmax = colmax.max(v.abs());
                }
                if colmax < SINGULAR_TOL {
                    continue;
                }
                let mut found_here = false;
                for &(r, v) in col {
                    if v.abs() < MARKOWITZ_THRESHOLD * colmax || v.abs() < SINGULAR_TOL {
                        continue;
                    }
                    found_here = true;
                    let cost = u64::from(self.row_len[r as usize] - 1) * (len as u64 - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv),
                    };
                    if better {
                        best = Some((r as usize, j_us, v.abs(), cost));
                    }
                }
                if found_here {
                    examined += 1;
                }
                if matches!(best, Some((_, _, _, 0))) || examined >= SEARCH_COLUMNS {
                    break;
                }
            }
            self.col_bucket[len] = bucket;
            if matches!(best, Some((_, _, _, 0))) || examined >= SEARCH_COLUMNS {
                break;
            }
        }
        best.map(|(r, j, _, _)| (r, j))
    }

    /// One right-looking elimination step of the nucleus with pivot
    /// (`pr`, `pc`).
    fn eliminate(&mut self, step: usize, pr: usize, pc: usize) {
        self.record_pivot(step, pr, pc);

        // L column = pivot column scaled by the pivot.
        let mut pcol = std::mem::take(&mut self.acols[pc]);
        let mut pv = 0.0;
        for &(r, v) in &pcol {
            if r as usize == pr {
                pv = v;
            }
        }
        debug_assert!(pv != 0.0, "pivot search returned a structural zero");
        let inv = 1.0 / pv;
        let l_start = self.lcol_idx.len();
        for &(r, v) in &pcol {
            let r_us = r as usize;
            if r_us == pr {
                continue;
            }
            self.lcol_idx.push(r);
            self.lcol_val.push(v * inv);
            self.row_len[r_us] -= 1;
            if self.row_len[r_us] == 1 {
                self.sing_rows.push(r);
            }
        }
        self.lcol_ptr.push(self.lcol_idx.len());
        pcol.clear();
        self.acols[pc] = pcol;
        self.udiag.push(pv);

        // U row = the pivot row's remaining active entries, removed from
        // their columns.
        let u_start = self.uslot.len();
        let mut prow_cols = std::mem::take(&mut self.arows[pr]);
        for &j in &prow_cols {
            let j_us = j as usize;
            if self.step_of_slot[j_us] != UNPIVOTED {
                continue;
            }
            let col = &mut self.acols[j_us];
            if let Some(pos) = col.iter().position(|&(r, _)| r as usize == pr) {
                let (_, v) = col.swap_remove(pos);
                self.uslot.push(j);
                self.uval.push(v);
                self.col_bucket[col.len()].push(j);
            }
        }
        self.uptr.push(self.uslot.len());
        prow_cols.clear();
        self.arows[pr] = prow_cols;
        self.row_len[pr] = 0;

        // Schur update: column by column, stamps locate existing
        // entries, misses become fill. An empty L column updates
        // nothing.
        if self.lcol_idx.len() == l_start {
            return;
        }
        for u_idx in u_start..self.uslot.len() {
            let (j, u) = (self.uslot[u_idx], self.uval[u_idx]);
            let j_us = j as usize;
            let before = self.acols[j_us].len();
            for (idx, &(r, _)) in self.acols[j_us].iter().enumerate() {
                self.pos_stamp[r as usize] = idx as i32;
            }
            for l_idx in l_start..self.lcol_idx.len() {
                let (r, l) = (self.lcol_idx[l_idx], self.lcol_val[l_idx]);
                let r_us = r as usize;
                let delta = -(l * u);
                let pos = self.pos_stamp[r_us];
                if pos >= 0 {
                    self.acols[j_us][pos as usize].1 += delta;
                } else {
                    self.acols[j_us].push((r, delta));
                    self.arows[r_us].push(j);
                    self.row_len[r_us] += 1;
                }
            }
            for &(r, _) in &self.acols[j_us] {
                self.pos_stamp[r as usize] = -1;
            }
            if self.acols[j_us].len() != before {
                self.col_bucket[self.acols[j_us].len()].push(j);
            }
        }
    }

    /// Converts the elimination output into the final solve structures.
    fn finalize(&mut self) {
        let m = self.m;
        // L in CSC, step space: the rows were recorded as constraint
        // rows, whose steps are all known now.
        for r in self.lcol_idx.iter_mut() {
            *r = self.row_step[*r as usize];
        }
        // L in CSR via counting sort.
        let lnnz = self.lcol_idx.len();
        self.lrow_ptr.clear();
        self.lrow_ptr.resize(m + 1, 0);
        for &i in &self.lcol_idx {
            self.lrow_ptr[i as usize + 1] += 1;
        }
        for i in 0..m {
            self.lrow_ptr[i + 1] += self.lrow_ptr[i];
        }
        self.lrow_idx.clear();
        self.lrow_idx.resize(lnnz, 0);
        self.lrow_val.clear();
        self.lrow_val.resize(lnnz, 0.0);
        self.counts.clear();
        self.counts.extend_from_slice(&self.lrow_ptr[..m]);
        for k in 0..m {
            for idx in self.lcol_ptr[k]..self.lcol_ptr[k + 1] {
                let i = self.lcol_idx[idx] as usize;
                let cursor = self.counts[i];
                self.lrow_idx[cursor] = k as u32;
                self.lrow_val[cursor] = self.lcol_val[idx];
                self.counts[i] = cursor + 1;
            }
        }
        // U in both orientations, step space.
        reset_nested(&mut self.ucols, m);
        reset_nested(&mut self.urows, m);
        for k in 0..m {
            for idx in self.uptr[k]..self.uptr[k + 1] {
                let (j, v) = (self.uslot[idx], self.uval[idx]);
                let jj = self.step_of_slot[j as usize];
                self.urows[k].push((jj, v));
                self.ucols[jj as usize].push((k as u32, v));
            }
        }
        self.uorder.clear();
        self.uorder.extend(0..m as u32);
        self.upos.clear();
        self.upos.extend(0..m as u32);
        self.spike.clear();
        self.spike.resize(m, 0.0);
        self.spike_nz.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.acc.clear();
        self.acc.resize(m, 0.0);
        self.mask.clear();
        self.mask.resize(m, false);
        self.heap.clear();
        self.nzbuf.clear();
    }

    /// Solves `B·x = v` in place: `v` enters in constraint-row space and
    /// leaves in basis-slot space, and the intermediate spike the next
    /// [`Factorization::update`] consumes is saved.
    ///
    /// `Some(nz)` carries `v`'s nonzero pattern: `v` must be zero outside
    /// the positions in `nz` (duplicates tolerated). The triangular
    /// solves then walk only the structurally reachable entries —
    /// heap-ordered scatter in elimination order — so a unit-vector
    /// solve costs its true fill, not `O(m)`, and any phase whose live
    /// pattern outgrows the sparse cutoff finishes with the dense
    /// sweeps. On return `nz` holds the solution's pattern. `None` takes
    /// `v` as dense: the permute-in reads and the permute-out writes all
    /// `m` entries, and every phase runs the dense sweeps.
    pub(crate) fn ftran(&mut self, v: &mut [f64], nz: Option<&mut Vec<u32>>) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        let cutoff = (m / SPARSE_FALLBACK_DIV).max(32);
        // Permute in: constraint-row space → step space.
        self.nzbuf.clear();
        let in_nnz = match nz.as_deref() {
            Some(nz) => {
                for &r in nz {
                    let r = r as usize;
                    let k = self.row_step[r] as usize;
                    if !self.mask[k] {
                        self.mask[k] = true;
                        self.nzbuf.push(k as u32);
                    }
                    // `+=`: a duplicate entry re-reads the already-zeroed `v[r]`.
                    self.work[k] += v[r];
                    v[r] = 0.0;
                }
                nz.len() as u64
            }
            None => {
                let work = &mut self.work;
                let mut in_nnz = 0u64;
                for k in 0..m {
                    let t = v[self.p[k] as usize];
                    in_nnz += u64::from(t != 0.0);
                    work[k] = t;
                }
                in_nnz
            }
        };
        self.ftran_io.calls += 1;
        self.ftran_io.in_nnz += in_nnz;
        self.ftran_io.dim += m as u64;
        let mut dense = nz.is_none() || self.nzbuf.len() > cutoff;
        // L forward solve in increasing step order.
        if dense {
            let work = &mut self.work;
            for k in 0..m {
                let t = work[k];
                if t != 0.0 {
                    for idx in self.lcol_ptr[k]..self.lcol_ptr[k + 1] {
                        work[self.lcol_idx[idx] as usize] -= self.lcol_val[idx] * t;
                    }
                }
            }
        } else {
            self.heap.clear();
            self.heap
                .extend(self.nzbuf.iter().map(|&k| heap_entry(k, k)));
            while let Some(Reverse(entry)) = self.heap.pop() {
                let k = entry as u32 as usize;
                let t = self.work[k];
                if t == 0.0 {
                    continue;
                }
                for idx in self.lcol_ptr[k]..self.lcol_ptr[k + 1] {
                    let i = self.lcol_idx[idx];
                    let i_us = i as usize;
                    if !self.mask[i_us] {
                        self.mask[i_us] = true;
                        self.nzbuf.push(i);
                        self.heap.push(heap_entry(i, i));
                    }
                    self.work[i_us] -= self.lcol_val[idx] * t;
                }
            }
        }
        // Forrest–Tomlin row etas, chronological; the dot already costs
        // the eta's nonzeros, so no pattern check is worth it.
        for e in 0..self.eta_target.len() {
            let mut dot = 0.0;
            for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                dot += self.eta_val[idx] * self.work[self.eta_idx[idx] as usize];
            }
            if dot != 0.0 {
                let tgt = self.eta_target[e] as usize;
                if !dense && !self.mask[tgt] {
                    self.mask[tgt] = true;
                    self.nzbuf.push(tgt as u32);
                }
                self.work[tgt] -= dot;
            }
        }
        // Save the spike (pattern included) for the next update.
        for &k in &self.spike_nz {
            self.spike[k as usize] = 0.0;
        }
        self.spike_nz.clear();
        if dense {
            self.spike.copy_from_slice(&self.work);
            for (k, &s) in self.spike.iter().enumerate() {
                if s != 0.0 {
                    self.spike_nz.push(k as u32);
                }
            }
        } else {
            for &k in &self.nzbuf {
                let s = self.work[k as usize];
                if s != 0.0 {
                    self.spike[k as usize] = s;
                    self.spike_nz.push(k);
                }
            }
        }
        // U backward solve in decreasing elimination order.
        if !dense && self.nzbuf.len() > cutoff {
            dense = true;
        }
        if dense {
            let work = &mut self.work;
            for idx in (0..self.uorder.len()).rev() {
                let k = self.uorder[idx];
                if k == UORDER_HOLE {
                    continue;
                }
                let k = k as usize;
                let t = work[k];
                if t != 0.0 {
                    let x = t / self.udiag[k];
                    work[k] = x;
                    for &(i, u) in &self.ucols[k] {
                        work[i as usize] -= u * x;
                    }
                }
            }
        } else {
            self.heap.clear();
            let upos = &self.upos;
            self.heap
                .extend(self.nzbuf.iter().map(|&k| heap_entry(!upos[k as usize], k)));
            while let Some(Reverse(entry)) = self.heap.pop() {
                let k = entry as u32 as usize;
                let t = self.work[k];
                if t == 0.0 {
                    continue;
                }
                let x = t / self.udiag[k];
                self.work[k] = x;
                for &(i, u) in &self.ucols[k] {
                    let i_us = i as usize;
                    if !self.mask[i_us] {
                        self.mask[i_us] = true;
                        self.nzbuf.push(i);
                        self.heap.push(heap_entry(!self.upos[i_us], i));
                    }
                    self.work[i_us] -= u * x;
                }
            }
        }
        // Permute out (step → basis-slot space), restoring the all-zero
        // scratch and all-false mask invariants.
        let Some(nz) = nz else {
            let work = &mut self.work;
            for k in 0..m {
                v[self.q[k] as usize] = work[k];
                work[k] = 0.0;
            }
            return;
        };
        nz.clear();
        if dense {
            for &k in &self.nzbuf {
                self.mask[k as usize] = false;
            }
            for k in 0..m {
                let val = self.work[k];
                self.work[k] = 0.0;
                if val != 0.0 {
                    let slot = self.q[k] as usize;
                    v[slot] = val;
                    nz.push(slot as u32);
                }
            }
        } else {
            for &k in &self.nzbuf {
                let k = k as usize;
                self.mask[k] = false;
                let val = self.work[k];
                self.work[k] = 0.0;
                if val != 0.0 {
                    let slot = self.q[k] as usize;
                    v[slot] = val;
                    nz.push(slot as u32);
                }
            }
        }
    }

    /// Solves `Bᵀ·y = v` in place, the mirror of
    /// [`Factorization::ftran`]: `v` enters in basis-slot space and
    /// leaves in constraint-row space. `Some(nz)` carries `v`'s pattern
    /// (zero outside `nz`, duplicates tolerated) and is rewritten to the
    /// output pattern; `None` takes `v` as dense.
    pub(crate) fn btran(&mut self, v: &mut [f64], nz: Option<&mut Vec<u32>>) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        let cutoff = (m / SPARSE_FALLBACK_DIV).max(32);
        // Permute in: basis-slot space → step space.
        self.nzbuf.clear();
        let in_nnz = match nz.as_deref() {
            Some(nz) => {
                for &s in nz {
                    let s = s as usize;
                    let k = self.step_of_slot[s] as usize;
                    if !self.mask[k] {
                        self.mask[k] = true;
                        self.nzbuf.push(k as u32);
                    }
                    // `+=`: a duplicate entry re-reads the already-zeroed `v[s]`.
                    self.work[k] += v[s];
                    v[s] = 0.0;
                }
                nz.len() as u64
            }
            None => {
                let work = &mut self.work;
                let mut in_nnz = 0u64;
                for k in 0..m {
                    let t = v[self.q[k] as usize];
                    in_nnz += u64::from(t != 0.0);
                    work[k] = t;
                }
                in_nnz
            }
        };
        self.btran_io.calls += 1;
        self.btran_io.in_nnz += in_nnz;
        self.btran_io.dim += m as u64;
        let mut dense = nz.is_none() || self.nzbuf.len() > cutoff;
        // Uᵀ forward solve in increasing elimination order.
        if dense {
            let work = &mut self.work;
            for idx in 0..self.uorder.len() {
                let k = self.uorder[idx];
                if k == UORDER_HOLE {
                    continue;
                }
                let k = k as usize;
                let t = work[k];
                if t != 0.0 {
                    let a = t / self.udiag[k];
                    work[k] = a;
                    for &(j, u) in &self.urows[k] {
                        work[j as usize] -= u * a;
                    }
                }
            }
        } else {
            self.heap.clear();
            let upos = &self.upos;
            self.heap
                .extend(self.nzbuf.iter().map(|&k| heap_entry(upos[k as usize], k)));
            while let Some(Reverse(entry)) = self.heap.pop() {
                let k = entry as u32 as usize;
                let t = self.work[k];
                if t == 0.0 {
                    continue;
                }
                let a = t / self.udiag[k];
                self.work[k] = a;
                for &(j, u) in &self.urows[k] {
                    let j_us = j as usize;
                    if !self.mask[j_us] {
                        self.mask[j_us] = true;
                        self.nzbuf.push(j);
                        self.heap.push(heap_entry(self.upos[j_us], j));
                    }
                    self.work[j_us] -= u * a;
                }
            }
        }
        // Transposed row etas, reverse chronological: only multiples of
        // the target's value propagate.
        for e in (0..self.eta_target.len()).rev() {
            let t = self.work[self.eta_target[e] as usize];
            if t != 0.0 {
                for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                    let i = self.eta_idx[idx] as usize;
                    if !dense && !self.mask[i] {
                        self.mask[i] = true;
                        self.nzbuf.push(i as u32);
                    }
                    self.work[i] -= self.eta_val[idx] * t;
                }
            }
        }
        // Lᵀ backward solve in decreasing step order.
        if !dense && self.nzbuf.len() > cutoff {
            dense = true;
        }
        if dense {
            let work = &mut self.work;
            for k in (0..m).rev() {
                let t = work[k];
                if t != 0.0 {
                    for idx in self.lrow_ptr[k]..self.lrow_ptr[k + 1] {
                        work[self.lrow_idx[idx] as usize] -= self.lrow_val[idx] * t;
                    }
                }
            }
        } else {
            self.heap.clear();
            self.heap
                .extend(self.nzbuf.iter().map(|&k| heap_entry(!k, k)));
            while let Some(Reverse(entry)) = self.heap.pop() {
                let k = entry as u32 as usize;
                let t = self.work[k];
                if t == 0.0 {
                    continue;
                }
                for idx in self.lrow_ptr[k]..self.lrow_ptr[k + 1] {
                    let j = self.lrow_idx[idx];
                    let j_us = j as usize;
                    if !self.mask[j_us] {
                        self.mask[j_us] = true;
                        self.nzbuf.push(j);
                        self.heap.push(heap_entry(!j, j));
                    }
                    self.work[j_us] -= self.lrow_val[idx] * t;
                }
            }
        }
        // Permute out (step → constraint-row space) with the same
        // invariant restoration as the FTRAN.
        let Some(nz) = nz else {
            let work = &mut self.work;
            for k in 0..m {
                v[self.p[k] as usize] = work[k];
                work[k] = 0.0;
            }
            return;
        };
        nz.clear();
        if dense {
            for &k in &self.nzbuf {
                self.mask[k as usize] = false;
            }
            for k in 0..m {
                let val = self.work[k];
                self.work[k] = 0.0;
                if val != 0.0 {
                    let row = self.p[k] as usize;
                    v[row] = val;
                    nz.push(row as u32);
                }
            }
        } else {
            for &k in &self.nzbuf {
                let k = k as usize;
                self.mask[k] = false;
                let val = self.work[k];
                self.work[k] = 0.0;
                if val != 0.0 {
                    let row = self.p[k] as usize;
                    v[row] = val;
                    nz.push(row as u32);
                }
            }
        }
    }

    /// Forrest–Tomlin update after the basis column of `slot` was
    /// replaced by the column whose FTRAN ran last (its spike is saved).
    /// Returns `false` — leaving the factorisation untouched — when the
    /// new pivot is numerically unsafe; the caller must refactorise.
    pub(crate) fn update(&mut self, slot: usize) -> bool {
        let _t_phase = rp_obs::phase_timer(rp_obs::Phase::FtUpdate);
        let t = self.step_of_slot[slot] as usize;
        let tpos = self.upos[t] as usize;
        let mut spike_inf = 0.0f64;
        for &k in &self.spike_nz {
            spike_inf = spike_inf.max(self.spike[k as usize].abs());
        }
        // Eliminate row t of the spiked U with row operations against
        // the later pivot rows, walked sparsely in elimination order
        // (heap on `upos`; every U-row entry sits strictly later, so
        // the order is topological); the multipliers become a row eta
        // and the surviving coefficient of the spike column the new
        // pivot.
        self.mults.clear();
        self.heap.clear();
        for &(j, v) in &self.urows[t] {
            let j_us = j as usize;
            self.acc[j_us] = v;
            if !self.mask[j_us] {
                self.mask[j_us] = true;
                self.heap.push(heap_entry(self.upos[j_us], j));
            }
        }
        let mut d = self.spike[t];
        while let Some(Reverse(entry)) = self.heap.pop() {
            let j = entry as u32 as usize;
            self.mask[j] = false;
            let val = self.acc[j];
            self.acc[j] = 0.0;
            if val == 0.0 {
                continue;
            }
            let mu = val / self.udiag[j];
            self.mults.push((j as u32, mu));
            d -= mu * self.spike[j];
            for &(l, uv) in &self.urows[j] {
                let l_us = l as usize;
                if l_us == t {
                    continue;
                }
                if !self.mask[l_us] {
                    self.mask[l_us] = true;
                    self.heap.push(heap_entry(self.upos[l_us], l));
                }
                self.acc[l_us] -= mu * uv;
            }
        }
        if d.abs() <= SINGULAR_TOL.max(1e-10 * spike_inf) {
            return false;
        }
        // Replace row and column t of U by the eliminated spike.
        let mut old_col = std::mem::take(&mut self.ucols[t]);
        for &(i, _) in &old_col {
            let rows = &mut self.urows[i as usize];
            if let Some(pos) = rows.iter().position(|&(c, _)| c as usize == t) {
                rows.swap_remove(pos);
            }
        }
        old_col.clear();
        let mut old_row = std::mem::take(&mut self.urows[t]);
        for &(j, _) in &old_row {
            let cols = &mut self.ucols[j as usize];
            if let Some(pos) = cols.iter().position(|&(r, _)| r as usize == t) {
                cols.swap_remove(pos);
            }
        }
        old_row.clear();
        for &i in &self.spike_nz {
            let i_us = i as usize;
            let s = self.spike[i_us];
            if i_us != t && s != 0.0 {
                old_col.push((i, s));
                self.urows[i_us].push((t as u32, s));
            }
        }
        self.ucols[t] = old_col;
        self.urows[t] = old_row;
        self.udiag[t] = d;
        if !self.mults.is_empty() {
            for &(j, mu) in &self.mults {
                self.eta_idx.push(j);
                self.eta_val.push(mu);
            }
            self.eta_ptr.push(self.eta_idx.len());
            self.eta_target.push(t as u32);
        }
        // Cycle step t to the back of the elimination order: leave a
        // hole at its old position and append (O(1); the array regrows
        // by at most one slot per update until the next refactorisation
        // compacts it).
        self.uorder[tpos] = UORDER_HOLE;
        self.upos[t] = self.uorder.len() as u32;
        self.uorder.push(t as u32);
        self.num_updates += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_loader(cols: &[Vec<f64>]) -> impl FnMut(usize, &mut Vec<u32>, &mut Vec<f64>) + '_ {
        move |k, rows, vals| {
            for (i, &v) in cols[k].iter().enumerate() {
                if v != 0.0 {
                    rows.push(i as u32);
                    vals.push(v);
                }
            }
        }
    }

    /// The nonzero positions of `v`, ascending: the pattern the
    /// pattern route takes.
    fn pattern(v: &[f64]) -> Vec<u32> {
        (0..v.len() as u32)
            .filter(|&i| v[i as usize] != 0.0)
            .collect()
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}");
    }

    #[derive(Clone, Copy, Debug)]
    enum Dir {
        Ftran,
        Btran,
    }

    impl Dir {
        fn solve(self, f: &mut Factorization, v: &mut [f64], nz: Option<&mut Vec<u32>>) {
            match self {
                Dir::Ftran => f.ftran(v, nz),
                Dir::Btran => f.btran(v, nz),
            }
        }
    }

    /// Solves `v` in place through both routes of the one entry of
    /// `dir`, dense (`None`) first and then with `v`'s pattern, and
    /// asserts that they agree bit for bit, returned pattern included.
    /// Both routes save the same spike, so an update may follow.
    fn solve_both(f: &mut Factorization, dir: Dir, v: &mut [f64]) {
        let mut sparse = v.to_vec();
        let mut nz = pattern(v);
        dir.solve(f, v, None);
        dir.solve(f, &mut sparse, Some(&mut nz));
        assert_bits(v, &sparse, "dense vs pattern route");
        nz.sort_unstable();
        assert_eq!(nz, pattern(v), "returned pattern");
    }

    fn ftran(f: &mut Factorization, v: &mut [f64]) {
        solve_both(f, Dir::Ftran, v);
    }

    fn btran(f: &mut Factorization, v: &mut [f64]) {
        solve_both(f, Dir::Btran, v);
    }

    /// `B · x` for a dense column list.
    fn apply(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (k, col) in cols.iter().enumerate() {
            for i in 0..m {
                out[i] += col[i] * x[k];
            }
        }
        out
    }

    /// `Bᵀ · y` for a dense column list.
    fn apply_t(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (k, col) in cols.iter().enumerate() {
            for i in 0..m {
                out[k] += col[i] * y[i];
            }
        }
        out
    }

    fn assert_roundtrip(f: &mut Factorization, cols: &[Vec<f64>], v0: &[f64], tol: f64) {
        let mut x = v0.to_vec();
        ftran(f, &mut x);
        let back = apply(cols, &x);
        for i in 0..cols.len() {
            assert!(
                (back[i] - v0[i]).abs() < tol,
                "ftran row {i}: {} vs {}",
                back[i],
                v0[i]
            );
        }
        let mut y = v0.to_vec();
        btran(f, &mut y);
        let back_t = apply_t(cols, &y);
        for k in 0..cols.len() {
            assert!(
                (back_t[k] - v0[k]).abs() < tol,
                "btran col {k}: {} vs {}",
                back_t[k],
                v0[k]
            );
        }
    }

    #[test]
    fn lu_solves_a_small_system() {
        // B = [[2, 1], [1, 3]] (symmetric), solve B x = [5, 10] => x = [1, 3].
        let cols = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut f = Factorization::default();
        assert!(f.refactor(2, sparse_loader(&cols)));
        let mut v = vec![5.0, 10.0];
        ftran(&mut f, &mut v);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 3.0).abs() < 1e-12);
        let mut y = vec![5.0, 10.0];
        btran(&mut f, &mut y);
        assert!((y[0] - 1.0).abs() < 1e-12);
        assert!((y[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // B = [[0, 1], [1, 0]] has no usable diagonal pivot.
        let cols = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let mut f = Factorization::default();
        assert!(f.refactor(2, sparse_loader(&cols)));
        let mut v = vec![3.0, 7.0];
        ftran(&mut f, &mut v);
        // x solves [[0,1],[1,0]] x = [3,7] => x = [7, 3].
        assert!((v[0] - 7.0).abs() < 1e-12);
        assert!((v[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_basis_is_reported() {
        let cols = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut f = Factorization::default();
        assert!(!f.refactor(2, sparse_loader(&cols)));
        // A structurally empty column is singular too.
        let cols = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let mut f = Factorization::default();
        assert!(!f.refactor(2, sparse_loader(&cols)));
    }

    #[test]
    fn forrest_tomlin_tracks_a_column_replacement() {
        // Start from B0 = I, replace column 0 by a = [3, 1]:
        // B1 = [[3, 0], [1, 1]].
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = Factorization::default();
        assert!(f.refactor(2, sparse_loader(&cols)));
        let mut w = vec![3.0, 1.0];
        ftran(&mut f, &mut w); // saves the spike
        assert!(f.update(0));
        assert_eq!(f.updates(), 1);
        // Solve B1 x = [6, 5]: x0 = 2, x1 = 5 - 2 = 3.
        let mut v = vec![6.0, 5.0];
        ftran(&mut f, &mut v);
        assert!((v[0] - 2.0).abs() < 1e-12, "{v:?}");
        assert!((v[1] - 3.0).abs() < 1e-12, "{v:?}");
        // Bᵀ1 y = [7, 2]: Bᵀ1 = [[3,1],[0,1]] => y1 = 2, 3 y0 + y1 = 7 => y0 = 5/3.
        let mut y = vec![7.0, 2.0];
        btran(&mut f, &mut y);
        assert!((y[0] - 5.0 / 3.0).abs() < 1e-12, "{y:?}");
        assert!((y[1] - 2.0).abs() < 1e-12, "{y:?}");
    }

    #[test]
    fn three_by_three_roundtrip() {
        let cols = vec![
            vec![4.0, 2.0, 1.0],
            vec![1.0, 5.0, 2.0],
            vec![0.0, 1.0, 6.0],
        ];
        let mut f = Factorization::default();
        assert!(f.refactor(3, sparse_loader(&cols)));
        for v0 in [vec![1.0, 0.0, 0.0], vec![2.0, -3.0, 5.0]] {
            assert_roundtrip(&mut f, &cols, &v0, 1e-10);
        }
    }

    #[test]
    fn duplicate_row_entries_are_merged_at_load() {
        // Column 0 delivered as two (row 0) fragments: 1.5 + 0.5 = 2.
        let mut f = Factorization::default();
        assert!(f.refactor(2, |k, rows, vals| {
            if k == 0 {
                rows.extend_from_slice(&[0, 0, 1]);
                vals.extend_from_slice(&[1.5, 0.5, 1.0]);
            } else {
                rows.push(1);
                vals.push(4.0);
            }
        }));
        // B = [[2, 0], [1, 4]]: B x = [2, 9] => x = [1, 2].
        let mut v = vec![2.0, 9.0];
        ftran(&mut f, &mut v);
        assert!((v[0] - 1.0).abs() < 1e-12, "{v:?}");
        assert!((v[1] - 2.0).abs() < 1e-12, "{v:?}");
    }

    /// Deterministic xorshift stream, matching the style of the other
    /// solver tests (no RNG dependency inside rp-lp).
    struct XorShift(u64);
    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % 2000) as f64 / 100.0 - 10.0
        }
        fn next_usize(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// A random sparse nonsingular-ish matrix: a permuted diagonal plus
    /// `extra` off-diagonal entries.
    fn random_sparse(m: usize, extra: usize, rng: &mut XorShift) -> Vec<Vec<f64>> {
        let mut cols = vec![vec![0.0; m]; m];
        // A derangement-free random permutation via random swaps.
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.next_usize(i + 1));
        }
        for (k, col) in cols.iter_mut().enumerate() {
            let mut d = rng.next_f64();
            if d.abs() < 1.0 {
                d += d.signum().max(0.5) * 3.0;
            }
            col[perm[k]] = d;
        }
        for _ in 0..extra {
            let k = rng.next_usize(m);
            let i = rng.next_usize(m);
            cols[k][i] += rng.next_f64() * 0.3;
        }
        cols
    }

    /// Dense-LU reference (partial pivoting) used as the differential
    /// oracle for the sparse factorisation.
    struct DenseLu {
        m: usize,
        lu: Vec<f64>, // column-major
        piv: Vec<usize>,
    }
    impl DenseLu {
        fn factor(cols: &[Vec<f64>]) -> Option<DenseLu> {
            let m = cols.len();
            let mut lu = vec![0.0; m * m];
            for (k, col) in cols.iter().enumerate() {
                lu[k * m..(k + 1) * m].copy_from_slice(col);
            }
            let mut piv = vec![0usize; m];
            for k in 0..m {
                let mut pr = k;
                let mut pa = lu[k * m + k].abs();
                for i in k + 1..m {
                    if lu[k * m + i].abs() > pa {
                        pa = lu[k * m + i].abs();
                        pr = i;
                    }
                }
                if pa < 1e-11 {
                    return None;
                }
                piv[k] = pr;
                if pr != k {
                    for c in 0..m {
                        lu.swap(c * m + k, c * m + pr);
                    }
                }
                let inv = 1.0 / lu[k * m + k];
                for i in k + 1..m {
                    lu[k * m + i] *= inv;
                }
                for j in k + 1..m {
                    let f = lu[j * m + k];
                    if f != 0.0 {
                        for i in k + 1..m {
                            lu[j * m + i] -= f * lu[k * m + i];
                        }
                    }
                }
            }
            Some(DenseLu { m, lu, piv })
        }
        #[allow(clippy::needless_range_loop)]
        fn solve(&self, v: &mut [f64]) {
            let m = self.m;
            for k in 0..m {
                let p = self.piv[k];
                if p != k {
                    v.swap(k, p);
                }
            }
            for k in 0..m {
                let t = v[k];
                if t != 0.0 {
                    for i in k + 1..m {
                        v[i] -= self.lu[k * m + i] * t;
                    }
                }
            }
            for k in (0..m).rev() {
                let mut s = v[k];
                for j in k + 1..m {
                    s -= self.lu[j * m + k] * v[j];
                }
                v[k] = s / self.lu[k * m + k];
            }
        }
    }

    /// A loader that delivers every entry of `cols` as two halves, the
    /// second half of each column's entries after all the first halves,
    /// so the factorisation has to merge duplicate rows.
    fn halves_loader(cols: &[Vec<f64>]) -> impl FnMut(usize, &mut Vec<u32>, &mut Vec<f64>) + '_ {
        move |k, rows, vals| {
            for _ in 0..2 {
                for (i, &v) in cols[k].iter().enumerate().rev() {
                    if v != 0.0 {
                        rows.push(i as u32);
                        vals.push(0.5 * v);
                    }
                }
            }
        }
    }

    /// A random permutation of `0..m`.
    fn shuffled(m: usize, rng: &mut XorShift) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.next_usize(i + 1));
        }
        perm
    }

    /// An upper-triangular matrix with a solid diagonal, `extra` random
    /// entries above it and, when `nucleus > 0`, a dense leading
    /// `nucleus`-by-`nucleus` block; rows and columns are shuffled.
    /// Without the block the singleton stage factors all of it; with
    /// it, the block is left to the Markowitz search.
    fn permuted_triangular(
        m: usize,
        extra: usize,
        nucleus: usize,
        rng: &mut XorShift,
    ) -> Vec<Vec<f64>> {
        let mut upper = vec![vec![0.0; m]; m];
        for (k, col) in upper.iter_mut().enumerate() {
            let d = rng.next_f64();
            col[k] = if d.abs() < 1.0 { d + 3.0 } else { d };
        }
        for _ in 0..extra {
            let k = rng.next_usize(m);
            let i = rng.next_usize(k + 1);
            if i < k {
                upper[k][i] += rng.next_f64() * 0.3;
            }
        }
        for (k, col) in upper.iter_mut().enumerate().take(nucleus) {
            for (i, entry) in col.iter_mut().enumerate().take(nucleus) {
                *entry = rng.next_f64() * 0.3 + if i == k { 20.0 } else { 1.0 };
            }
        }
        let (rows, order) = (shuffled(m, rng), shuffled(m, rng));
        let mut cols = vec![vec![0.0; m]; m];
        for (k, col) in upper.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                cols[order[k]][rows[i]] = v;
            }
        }
        cols
    }

    /// Whether the last refactorisation of a *fresh* factorisation left
    /// a nucleus: the Markowitz state is only ever built for one.
    fn built_a_nucleus(f: &Factorization) -> bool {
        !f.col_bucket.is_empty()
    }

    #[test]
    fn random_matrix_roundtrip_matches_a_dense_lu() {
        let mut rng = XorShift(0x12345678);
        for m in [5usize, 13, 20, 37, 64] {
            // (basis, deliver each entry as two halves)
            let cases = [
                (random_sparse(m, 3 * m, &mut rng), false),
                (permuted_triangular(m, 2 * m, 0, &mut rng), false),
                (permuted_triangular(m, 2 * m, 0, &mut rng), true),
                (permuted_triangular(m, 2 * m, 3, &mut rng), false),
            ];
            for (case, (cols, halves)) in cases.iter().enumerate() {
                let mut f = Factorization::default();
                let factored = if *halves {
                    f.refactor(m, halves_loader(cols))
                } else {
                    f.refactor(m, sparse_loader(cols))
                };
                assert!(factored, "m={m} case {case}");
                let dense = DenseLu::factor(cols).expect("dense oracle factors");
                let v0: Vec<f64> = (0..m).map(|_| rng.next_f64()).collect();
                assert_roundtrip(&mut f, cols, &v0, 1e-6);
                // Differential: sparse ftran == dense solve.
                let mut xs = v0.clone();
                ftran(&mut f, &mut xs);
                let mut xd = v0.clone();
                dense.solve(&mut xd);
                for i in 0..m {
                    assert!(
                        (xs[i] - xd[i]).abs() < 1e-6,
                        "m={m} case {case} pos {i}: sparse {} vs dense {}",
                        xs[i],
                        xd[i]
                    );
                }
            }
        }
    }

    #[test]
    fn long_update_chains_stay_consistent() {
        // Many Forrest–Tomlin updates on a random sparse basis; after
        // every update both solves must still invert the tracked basis,
        // and the chain must agree with a from-scratch refactorisation.
        let mut rng = XorShift(0xDEADBEEF);
        for m in [9usize, 24, 41] {
            let mut cols = random_sparse(m, 2 * m, &mut rng);
            let mut f = Factorization::default();
            assert!(f.refactor(m, sparse_loader(&cols)));
            let mut performed = 0;
            for step in 0..30 {
                let slot = rng.next_usize(m);
                // A sparse entering column with a solid pivot weight.
                let mut a = vec![0.0; m];
                for _ in 0..3 {
                    a[rng.next_usize(m)] = rng.next_f64() * 0.5;
                }
                a[slot] += 6.0 + rng.next_f64().abs();
                let mut w = a.clone();
                ftran(&mut f, &mut w);
                if !f.update(slot) {
                    // Numerically refused: refactor and continue, like
                    // the simplex driver does.
                    assert!(f.refactor(m, sparse_loader(&cols)), "m={m} step {step}");
                    continue;
                }
                performed += 1;
                cols[slot] = a;
                let v0: Vec<f64> = (0..m).map(|_| rng.next_f64()).collect();
                assert_roundtrip(&mut f, &cols, &v0, 1e-5);
            }
            assert!(performed >= 20, "too few updates accepted: {performed}");
            assert_eq!(f.updates(), {
                // updates() resets on refactor; recount from the tail.
                f.updates()
            });
            // Differential against a fresh factorisation of the final basis.
            let mut fresh = Factorization::default();
            assert!(fresh.refactor(m, sparse_loader(&cols)));
            let v0: Vec<f64> = (0..m).map(|_| rng.next_f64()).collect();
            let mut a1 = v0.clone();
            ftran(&mut f, &mut a1);
            let mut a2 = v0.clone();
            ftran(&mut fresh, &mut a2);
            for i in 0..m {
                assert!(
                    (a1[i] - a2[i]).abs() < 1e-5,
                    "m={m} pos {i}: updated {} vs fresh {}",
                    a1[i],
                    a2[i]
                );
            }
        }
    }

    #[test]
    fn tree_structured_bases_produce_sparse_factors() {
        // A bidiagonal (path-tree) basis: the factors must not fill in.
        let m = 50;
        let mut cols = vec![vec![0.0; m]; m];
        for (k, col) in cols.iter_mut().enumerate() {
            col[k] = 2.0;
            if k + 1 < m {
                col[k + 1] = -1.0;
            }
        }
        let mut f = Factorization::default();
        assert!(f.refactor(m, sparse_loader(&cols)));
        let (lnnz, unnz) = f.nnz();
        assert!(lnnz <= m, "L filled in: {lnnz}");
        assert!(unnz <= 2 * m, "U filled in: {unnz}");
        let v0: Vec<f64> = (0..m).map(|i| (i % 7) as f64 - 3.0).collect();
        assert_roundtrip(&mut f, &cols, &v0, 1e-8);

        // Permuted triangular bases, one loaded with duplicate row
        // entries: the singleton stage factors all of each, so `L` is
        // empty, `U` holds exactly the basis and no nucleus is left.
        let mut rng = XorShift(0xC0FFEE);
        for halves in [false, true] {
            let cols = permuted_triangular(m, 3 * m, 0, &mut rng);
            let nnz = cols.iter().flatten().filter(|&&v| v != 0.0).count();
            let mut f = Factorization::default();
            let factored = if halves {
                f.refactor(m, halves_loader(&cols))
            } else {
                f.refactor(m, sparse_loader(&cols))
            };
            assert!(factored);
            assert_eq!(f.nnz(), (0, nnz), "halves = {halves}");
            assert!(!built_a_nucleus(&f), "halves = {halves}");
            assert_roundtrip(&mut f, &cols, &v0, 1e-8);
        }
        // A small dense block in a triangular basis is the nucleus; the
        // fill stays inside it.
        let k = 4;
        let cols = permuted_triangular(m, 3 * m, k, &mut rng);
        let nnz = cols.iter().flatten().filter(|&&v| v != 0.0).count();
        let mut f = Factorization::default();
        assert!(f.refactor(m, sparse_loader(&cols)));
        assert!(built_a_nucleus(&f));
        let (lnnz, unnz) = f.nnz();
        assert!(lnnz + unnz <= nnz + k * k, "filled in: {lnnz} + {unnz}");
        assert_roundtrip(&mut f, &cols, &v0, 1e-8);
    }

    /// A right-hand side with up to `nnz` random nonzeros.
    fn sparse_rhs(m: usize, nnz: usize, rng: &mut XorShift) -> Vec<f64> {
        let mut v = vec![0.0; m];
        for _ in 0..nnz {
            v[rng.next_usize(m)] = rng.next_f64();
        }
        v
    }

    /// Solves `v0` through the dense route of `a` and the pattern route
    /// of `b` (two factorisations of one basis; the pattern carries a
    /// duplicate entry), asserts bitwise-equal outputs and the returned
    /// pattern, and returns the output.
    fn across(a: &mut Factorization, b: &mut Factorization, dir: Dir, v0: &[f64]) -> Vec<f64> {
        let mut dense = v0.to_vec();
        dir.solve(a, &mut dense, None);
        let mut sparse = v0.to_vec();
        let mut nz = pattern(v0);
        nz.extend(nz.first().copied());
        dir.solve(b, &mut sparse, Some(&mut nz));
        assert_bits(&dense, &sparse, &format!("{dir:?} of {v0:?}"));
        nz.sort_unstable();
        assert_eq!(nz, pattern(&dense), "{dir:?} pattern");
        dense
    }

    #[test]
    fn dense_and_pattern_routes_agree_bit_for_bit() {
        // Two factorisations of one basis walk one chain of
        // Forrest–Tomlin updates, `a` solving through the dense route
        // and `b` through the pattern route: every solve must agree bit
        // for bit, and so must the spike each entering FTRAN saves, so
        // the next update and solve agree too.
        let mut rng = XorShift(0x5EED_F00D);
        for m in [40usize, 300] {
            let cutoff = (m / SPARSE_FALLBACK_DIV).max(32);
            let bases = [
                random_sparse(m, 2 * m, &mut rng),
                permuted_triangular(m, m, 0, &mut rng),
            ];
            for (case, mut cols) in bases.into_iter().enumerate() {
                let (mut a, mut b) = (Factorization::default(), Factorization::default());
                assert!(a.refactor(m, sparse_loader(&cols)));
                assert!(b.refactor(m, sparse_loader(&cols)));
                let mut performed = 0;
                for _ in 0..40 {
                    // The empty right-hand side, one below the sparse
                    // cutoff and one above it.
                    for nnz in [0, 3, cutoff + 8] {
                        let v0 = sparse_rhs(m, nnz, &mut rng);
                        across(&mut a, &mut b, Dir::Btran, &v0);
                        across(&mut a, &mut b, Dir::Ftran, &v0);
                    }
                    // The entering column: the leaving one, perturbed.
                    let slot = rng.next_usize(m);
                    let mut entering = sparse_rhs(m, 3, &mut rng);
                    for (e, &c) in entering.iter_mut().zip(&cols[slot]) {
                        *e = 0.1 * *e + 1.5 * c;
                    }
                    across(&mut a, &mut b, Dir::Ftran, &entering);
                    assert_bits(&a.spike, &b.spike, "saved spike");
                    let sorted = |f: &Factorization| {
                        let mut nz = f.spike_nz.clone();
                        nz.sort_unstable();
                        nz
                    };
                    assert_eq!(sorted(&a), sorted(&b), "saved spike pattern");
                    let updated = a.update(slot);
                    assert_eq!(updated, b.update(slot), "m={m} case {case}");
                    if updated {
                        cols[slot] = entering;
                        performed += 1;
                    } else {
                        assert!(a.refactor(m, sparse_loader(&cols)));
                        assert!(b.refactor(m, sparse_loader(&cols)));
                    }
                }
                assert!(performed >= 10, "m={m} case {case}: {performed} updates");
                let v0: Vec<f64> = (0..m).map(|_| rng.next_f64()).collect();
                assert_roundtrip(&mut b, &cols, &v0, 1e-5);
            }
        }
    }

    #[test]
    fn update_refuses_a_singular_replacement() {
        // Replacing column 0 of I by e_1 makes the basis singular
        // (duplicate column): the update must refuse.
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = Factorization::default();
        assert!(f.refactor(2, sparse_loader(&cols)));
        let mut w = vec![0.0, 1.0];
        ftran(&mut f, &mut w);
        assert!(!f.update(0));
        // The factorisation is untouched: it still inverts I.
        let mut v = vec![4.0, 9.0];
        ftran(&mut f, &mut v);
        assert!((v[0] - 4.0).abs() < 1e-12 && (v[1] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_basis_is_trivial() {
        let mut f = Factorization::default();
        assert!(f.refactor(0, |_, _, _| {}));
        let mut v: Vec<f64> = vec![];
        ftran(&mut f, &mut v);
        btran(&mut f, &mut v);
        assert_eq!(f.nnz(), (0, 0));
    }
}
