//! # rp-lp — linear programming substrate
//!
//! A small, dependency-free LP/MILP toolkit used by `rp-core` to express
//! the integer-linear-program formulations of the replica-placement
//! problem (Section 5 of the paper) and to compute the LP-based lower
//! bound of Section 7.1.
//!
//! * [`Model`] — variables (continuous or integer, bounded), linear
//!   constraints, linear objective.
//! * [`RevisedWorkspace::solve_warm`] — the one LP entry point: a
//!   bounded-variable **revised simplex** with a factorised basis that
//!   carries its last optimal basis into the next solve (see below).
//!   [`LpWorkspace`] wraps it for callers that also run MILPs.
//! * [`solve_milp`] — the one MILP entry point: LP-based
//!   branch-and-bound over the declared integer variables, reporting
//!   both the best incumbent and a proven bound; every node warm-starts
//!   from the previous node's basis.
//! * [`oracle`] — the reference the tests and the perf gate compare
//!   both entry points with: a dense two-phase tableau simplex and the
//!   same branch-and-bound over it. No library solve path reaches it.
//!
//! The paper used off-the-shelf solvers (GLPK / Maple); this crate is a
//! from-scratch replacement sized for the formulations at hand, so the
//! whole reproduction remains self-contained.
//!
//! # The revised simplex
//!
//! A dense tableau keeps the whole `m × n` eliminated matrix and
//! rewrites it on every pivot (`O(m·n)` work and memory), with every
//! finite variable upper bound materialised as an extra `x_j ≤ u_j`
//! row. The replica-placement relaxations bound *every* variable
//! (`x_j ≤ 1`, `y_{i,j} ≤ r_i`), so those rows **double** `m` and the
//! per-pivot cost, which keeps paper-scale (`s = 400`) instances out of
//! a tableau's reach.
//!
//! The revised engine ([`RevisedWorkspace`]) removes both costs:
//!
//! * **Implicit bounds** — variables live in `l ≤ x ≤ u` boxes and the
//!   bounded ratio test lets a nonbasic variable *flip* from one bound
//!   to the other without any basis change, so `m` equals the
//!   constraint count alone (half the dense row count on these LPs).
//! * **Sparse Markowitz LU** — the basis is factorised `P·B·Q = L·U`:
//!   a singleton stage peels column and row singletons straight into
//!   the factors, and Markowitz pivoting (threshold partial pivoting
//!   with `u=0.1`, Suhl-style shortest-column search) factors whatever
//!   nucleus is left, so both the factorisation work and the factor
//!   storage scale with the nonzeros rather than `m³`/`m²`. The
//!   tree-structured replica bases triangularise almost perfectly: at
//!   `s = 2000` (m = 2000 rows) `L` holds **zero** off-diagonal
//!   entries and `U` under `2 nnz/row`, and the s = 2000 bandwidth
//!   bound's 11,519-row presolved basis refactorises in ~0.7 ms
//!   (2-core Xeon VM) where a dense LU would pay seconds.
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
//!   row-wise, and one solve per direction (FTRAN `B·x = v`, BTRAN
//!   `Bᵀ·y = v`) carries the right-hand side's nonzero pattern: its
//!   triangular solves then visit only the reachable positions, in
//!   elimination order off a heap, so a pivot column or a unit row
//!   costs close to the nonzeros it touches. A solve whose live pattern
//!   outgrows an eighth of the rows, or whose right-hand side comes
//!   without one (the basic values after a refactorisation, the duals
//!   from `c_B`), runs dense scatter sweeps that still skip every exact
//!   zero.
//! * **One primal and one dual pricing rule** — the primal simplex
//!   prices with Dantzig's most attractive reduced cost and degrades to
//!   Bland's rule after [`SimplexOptions::bland_after`] iterations.
//!   Reduced costs are maintained by the rank-one update
//!   `d ← d − (d_q/α_q)·α` per pivot, with the pivot row
//!   `α = Aᵀ B⁻ᵀ e_r` computed row-wise over the nonzeros of `B⁻ᵀe_r`
//!   only, so a pricing pass is a flat `O(n)` scan. The dual simplex
//!   takes the most violated row from a lazy max-heap of violated rows:
//!   each pivot pushes the rows it moved, and a pick pops only the
//!   entries those moves made stale, so no list of violated rows is
//!   rescanned per pivot. The replica relaxations are near-unimodular
//!   — every tableau entry is ±1 — so weighted rules (devex, steepest
//!   edge) have nothing to rank by: on every shipped family they pivot
//!   exactly like these two.
//! * **Dual cold start and the bound-flipping ratio test** — when the
//!   phase-2 costs are already dual feasible at the bound point (true
//!   of all the min-cost replica relaxations), the solve skips both
//!   primal phases and runs the dual simplex straight from the slack
//!   basis; the entering column comes from a **bound-flipping dual
//!   ratio test** that walks the pivot row's breakpoints and flips
//!   boxed columns for longer dual steps. This is what broke the
//!   pricing wall: the `s = 2000` bandwidth bound dropped from ~700 ms
//!   to under 50 ms (see `perf-budget.toml`). Any other LP, and a dual
//!   run that stops early, takes the textbook two phases of bounded
//!   primal simplex, starting from each row's slack, or from a signed
//!   artificial where the slack cannot absorb the row's residual.
//! * **Presolve** ([`SimplexOptions::presolve`], on by default) —
//!   singleton rows become bound tightenings, redundant and forcing
//!   rows (zero-request clients, saturated capacities, nodes with no
//!   eligible clients) are dropped with the variables they pin, and
//!   empty/singleton columns are fixed at their optimal bound; the
//!   postsolve restores every eliminated variable. Branch-and-bound
//!   turns the reductions off for node solves, where bound overrides
//!   would invalidate them; such solves run on the same working form,
//!   built from an analysis that removes nothing.
//! * **Micro-size fast path** — below ~50 rows the presolve reduction
//!   passes cost more than they save (the documented 10–20% cold-solve
//!   overhead at `s ≤ 40`); such solves skip them automatically, and a
//!   regression test pins the micro-size iteration counts to the
//!   explicit presolve-off configuration.
//! * **Warm starts** — a bound change (the only thing branch-and-bound
//!   does between nodes) leaves the reduced costs untouched, so the
//!   parent basis stays dual feasible and a short **dual simplex**
//!   cleanup re-optimises the child node; see
//!   [`RevisedWorkspace::solve_warm`]. The same machinery carries the
//!   basis across **sibling solves** (same constraint matrix, different
//!   objective/rhs/bounds — one tree under several load factors in the
//!   tree-sharded sweep, or consecutive branch-and-bound searches of one
//!   shape): [`RevisedWorkspace::solve_warm`] and [`solve_milp`]
//!   re-solve with a refactorisation plus a few cleanup pivots, falling
//!   back to a cold solve on any structural change (verified
//!   entry-for-entry in `O(nnz)`, or in `O(1)` for the model the
//!   workspace last solved, which is how the sweep's λ-siblings arrive).
//!   A re-solve of that same model after right-hand-side and bound
//!   edits — the sweep's λ-siblings, branch-and-bound's nodes — patches
//!   the workspace in place: the presolve reductions carry over (a
//!   removed singleton equality re-derives its column's fixed value),
//!   the reduced costs of an optimal last solve and, unless its eta file
//!   has grown long, the factorisation too, so a sibling whose basis
//!   stays optimal costs no pivot and usually no refactorisation. A
//!   dual simplex proof of infeasibility leaves the workspace patchable,
//!   and the next re-solve first tries the row that proved it. Objective
//!   edits, inverted bounds and edits that undo a reduction (a forcing
//!   row, a tightened bound) take the full entry.
//!
//! The property tests in `tests/proptest_revised_equivalence.rs` pin
//! the engine (Dantzig vs Bland pricing, presolve on/off, warm vs cold
//! paths, and branch-and-bound) to the [`oracle`] on random bounded
//! LPs, and `rp-bench`'s `BENCH_sparse.json` tracks its solve times,
//! iteration counts and factor sizes.
//!
//! ```
//! use rp_lp::{solve_milp, BranchBoundOptions, Cmp, LinExpr, LpWorkspace, Model, Sense};
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
//! let out = solve_milp(&m, &BranchBoundOptions::default(), &mut LpWorkspace::new());
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
pub mod oracle;
mod revised;
mod simplex;
mod solution;

pub use branch_bound::{solve_milp, BranchBoundOptions, MilpOutcome};
pub use engine::{solve_lp_engine, LpEngine, LpWorkspace, SimplexOptions};
pub use error::{LpError, SolveBudget};
pub use model::{lin_sum, Cmp, Constraint, ConstraintId, LinExpr, Model, Sense, VarId, Variable};
pub use revised::{RevisedWorkspace, SolveStats, TranCounters, WarmStart};
pub use solution::{Solution, Status};
