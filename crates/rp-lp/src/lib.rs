//! # rp-lp — linear programming substrate
//!
//! A small, dependency-free LP/MILP toolkit used by `rp-core` to express
//! the integer-linear-program formulations of the replica-placement
//! problem (Section 5 of the paper) and to compute the LP-based lower
//! bound of Section 7.1.
//!
//! * [`Model`] — variables (continuous or integer, bounded), linear
//!   constraints, linear objective.
//! * [`solve_lp`] — dense two-phase primal simplex for the continuous
//!   relaxation (the original engine, kept as a differential oracle).
//! * [`RevisedWorkspace::solve_warm`] — bounded-variable **revised
//!   simplex** with a factorised basis: the default engine, an order of
//!   magnitude faster on the replica formulations (see below).
//! * [`LpEngine`] / [`solve_lp_engine`] — explicit engine selection with
//!   shared, reusable workspaces; [`solve_lp_hardened`] adds the
//!   dense-oracle fallback and a typed `Result`.
//! * [`solve_milp`] — LP-based branch-and-bound over the declared
//!   integer variables, reporting both the best incumbent and a proven
//!   bound; under the revised engine every node warm-starts from the
//!   previous node's basis.
//!
//! The paper used off-the-shelf solvers (GLPK / Maple); this crate is a
//! from-scratch replacement sized for the formulations at hand, so the
//! whole reproduction remains self-contained (see DESIGN.md).
//!
//! # The revised simplex, and when to pick each engine
//!
//! The dense tableau ([`solve_lp`]) keeps the whole `m × n` eliminated
//! matrix and rewrites it on every pivot (`O(m·n)` work and memory),
//! with every finite variable upper bound materialised as an extra
//! `x_j ≤ u_j` row. The replica-placement relaxations bound *every*
//! variable (`x_j ≤ 1`, `y_{i,j} ≤ r_i`), so those rows **double** `m`
//! and the per-pivot cost — which is what kept paper-scale (`s = 400`)
//! instances out of reach.
//!
//! The revised engine ([`RevisedWorkspace`]) removes both costs:
//!
//! * **Implicit bounds** — variables live in `l ≤ x ≤ u` boxes and the
//!   bounded ratio test lets a nonbasic variable *flip* from one bound
//!   to the other without any basis change, so `m` equals the
//!   constraint count alone (half the dense row count on these LPs).
//! * **Sparse Markowitz LU** — the basis is factorised `P·B·Q = L·U`
//!   with Markowitz pivoting (threshold partial pivoting with `u=0.1`,
//!   Suhl-style shortest-column search, singleton fast paths), so both
//!   the factorisation work and the factor storage scale with the
//!   nonzeros rather than `m³`/`m²`. The tree-structured replica bases
//!   triangularise almost perfectly: at `s = 2000` (m = 2000 rows) `L`
//!   holds **zero** off-diagonal entries and `U` under `2 nnz/row`, and
//!   one refactorisation costs ~140 µs where a dense LU would pay
//!   seconds.
//! * **Forrest–Tomlin updates** — a basis change replaces a column of
//!   `U` with the FTRAN's intermediate spike, eliminates the spiked row
//!   with a short **row eta**, and cycles that step to the back of the
//!   elimination order. `U` stays genuinely triangular across hundreds
//!   of updates (unlike a product-form eta file, whose solve cost grows
//!   with every eta), and a numerically unsafe update is refused,
//!   triggering a refactorisation (cadence: every 256 updates — the
//!   hyper-sparse solves keep eta-file growth cheap enough that a long
//!   cadence wins).
//! * **Hyper-sparse solves** — both factors are stored column-wise and
//!   row-wise, and all four triangular solves run in scatter form,
//!   skipping every position whose running value is exactly zero: an
//!   FTRAN/BTRAN with a sparse right-hand side costs close to the
//!   nonzeros it touches plus one `O(m)` sweep.
//! * **One primal and one dual pricing rule** — the primal simplex
//!   prices with Dantzig's most attractive reduced cost and degrades to
//!   Bland's rule after [`SimplexOptions::bland_after`] iterations.
//!   Reduced costs are maintained by the rank-one update
//!   `d ← d − (d_q/α_q)·α` per pivot, with the pivot row
//!   `α = Aᵀ B⁻ᵀ e_r` computed row-wise over the nonzeros of `B⁻ᵀe_r`
//!   only, so a pricing pass is a flat `O(n)` scan. The dual simplex
//!   takes the most violated row from an incrementally maintained list
//!   of violated rows (no `O(m)` rescan per iteration). The replica
//!   relaxations are near-unimodular — every tableau entry is ±1 — so
//!   weighted rules (devex, steepest edge) have nothing to rank by:
//!   on every shipped family they pivot exactly like these two.
//! * **Dual cold start and the bound-flipping ratio test** — when the
//!   phase-2 costs are already dual feasible at the bound point (true
//!   of all the min-cost replica relaxations), the solve skips both
//!   primal phases and runs the dual simplex straight from the slack
//!   basis; the entering column comes from a **bound-flipping dual
//!   ratio test** that walks the pivot row's breakpoints and flips
//!   boxed columns for longer dual steps. This is what broke the
//!   pricing wall: the `s = 2000` bandwidth bound dropped from ~700 ms
//!   to under 50 ms (see `perf-budget.toml`).
//! * **Presolve** ([`SimplexOptions::presolve`], on by default) —
//!   singleton rows become bound tightenings, redundant and forcing
//!   rows (zero-request clients, saturated capacities, nodes with no
//!   eligible clients) are dropped with the variables they pin, and
//!   empty/singleton columns are fixed at their optimal bound; the
//!   postsolve restores every eliminated variable. Branch-and-bound
//!   disables it for node solves, where bound overrides would
//!   invalidate the reductions.
//! * **Crash basis** — instead of one artificial per infeasible row,
//!   the cold start makes a structural column basic in every coverage
//!   equality whose value fits its bounds (block-triangularly, so the
//!   start basis is trivially nonsingular). Phase 1 shrinks from one
//!   artificial per client to a handful of residual rows.
//! * **Micro-size fast path** — below ~50 rows the presolve analysis
//!   costs more than it saves (the documented 10–20% cold-solve
//!   overhead at `s ≤ 40`); such solves skip presolve automatically,
//!   and a regression test pins the micro-size iteration counts to the
//!   explicit presolve-off configuration.
//! * **Warm starts** — a bound change (the only thing branch-and-bound
//!   does between nodes) leaves the reduced costs untouched, so the
//!   parent basis stays dual feasible and a short **dual simplex**
//!   cleanup re-optimises the child node; see
//!   [`RevisedWorkspace::solve_warm`]. The same machinery carries the
//!   basis across **sibling solves** (same constraint matrix, different
//!   objective/rhs/bounds — one tree under several load factors in the
//!   λ-sharded sweep, or consecutive branch-and-bound searches of one
//!   shape): [`RevisedWorkspace::solve_warm`] and
//!   [`solve_milp_reusing`] re-solve with a refactorisation plus a few
//!   cleanup pivots, falling back to a cold solve on any structural
//!   change (verified entry-for-entry in `O(nnz)`, or in `O(1)` for the
//!   model the workspace last solved). A re-solve of that same model
//!   after right-hand-side edits only patches the workspace in place
//!   and keeps its factorisation: a sibling whose basis stays optimal
//!   costs no refactorisation and no pivot.
//!
//! Pick [`LpEngine::Revised`] (the default) for anything but tiny
//! models; pick [`LpEngine::DenseTableau`] when you want a second,
//! independently implemented opinion — the property tests in
//! `tests/proptest_revised_equivalence.rs` pin the two engines (and
//! Dantzig vs Bland pricing, presolve on/off, and warm vs cold paths)
//! to each other on random bounded LPs, and `rp-bench`'s
//! `BENCH_revised.json` / `BENCH_sparse.json` track the speedups.
//!
//! ```
//! use rp_lp::{Model, LinExpr, Cmp, Sense, solve_milp};
//!
//! // Minimise the number of bins of capacity 10 needed for items 6, 5, 4.
//! let mut m = Model::minimize();
//! let bins: Vec<_> = (0..3).map(|b| m.add_binary_var(format!("bin{b}"), 1.0)).collect();
//! let mut assign = vec![];
//! for item in 0..3 {
//!     let row: Vec<_> = (0..3)
//!         .map(|b| m.add_binary_var(format!("item{item}_in{b}"), 0.0))
//!         .collect();
//!     let expr = row.iter().fold(LinExpr::new(), |e, &v| e.plus(1.0, v));
//!     m.add_constraint(format!("assign{item}"), expr, Cmp::Eq, 1.0);
//!     assign.push(row);
//! }
//! let sizes = [6.0, 5.0, 4.0];
//! for b in 0..3 {
//!     let mut expr = LinExpr::new();
//!     for item in 0..3 {
//!         expr.add_term(sizes[item], assign[item][b]);
//!     }
//!     expr.add_term(-10.0, bins[b]);
//!     m.add_constraint(format!("cap{b}"), expr, Cmp::Le, 0.0);
//! }
//! let out = solve_milp(&m);
//! assert_eq!(out.objective().unwrap().round() as i64, 2);
//! let _ = Sense::Minimize;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Predates the workspace ban on panicking accessors (see clippy.toml);
// new long-lived code (rp-online, rp-obs) enforces it.
#![allow(clippy::disallowed_methods)]

mod branch_bound;
mod engine;
pub mod error;
mod model;
mod revised;
mod simplex;
mod solution;

pub use branch_bound::{
    solve_milp, solve_milp_reusing, solve_milp_with, BranchBoundOptions, MilpOutcome,
};
pub use engine::{
    solve_lp_engine, solve_lp_hardened, EscalationRung, HardenedSolve, LpEngine, LpWorkspace,
};
pub use error::{LpError, SolveBudget};
pub use model::{lin_sum, Cmp, Constraint, ConstraintId, LinExpr, Model, Sense, VarId, Variable};
pub use revised::{RevisedWorkspace, SolveStats, TranCounters, WarmStart};
pub use simplex::{solve_lp, solve_lp_reusing, solve_lp_with, SimplexOptions, SimplexWorkspace};
pub use solution::{Solution, Status};
