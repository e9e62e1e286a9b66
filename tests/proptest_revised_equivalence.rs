//! Differential property tests pinning the **revised simplex** to the
//! **dense tableau** oracle (`rp_lp::oracle`).
//!
//! The engine and the oracle are independent implementations of the same
//! mathematics: the dense tableau materialises upper bounds as rows and
//! eliminates the full matrix per pivot, while the revised engine keeps
//! a sparse Markowitz-LU-factorised basis with Forrest–Tomlin updates
//! and implicit bounds. On every random bounded LP they must agree on
//! feasibility, boundedness and the optimal objective (within
//! tolerance); on every random MILP the warm-started revised
//! branch-and-bound must agree with the cold dense search. Further
//! properties pin the solver's internal degrees of freedom to the same
//! answers: Dantzig and Bland pricing reach the same objective,
//! presolve+postsolve round-trips against the unreduced solve, and warm
//! sibling re-solves (same matrix, shifted objective/rhs) match cold
//! solves — including one model edited in place, whose right-hand-side
//! re-solves patch the workspace instead of rebuilding it.
//!
//! Models below [`PRESOLVE_ROWS`] rows skip presolve, so the presolve
//! properties stack copies of the drawn block on disjoint variables
//! until the model is that large; the optimum scales by the copy count.
//!
//! (Values are generated as small unsigned integers and decoded into
//! signed coefficients/bounds — the vendored proptest stand-in only
//! implements unsigned range strategies.)

#![allow(clippy::disallowed_methods)] // test/driver code may unwrap freely

use proptest::prelude::*;

use replica_placement::lp::oracle::{self, solve_lp};
use replica_placement::lp::{
    solve_milp, BranchBoundOptions, Cmp, LinExpr, LpWorkspace, Model, RevisedWorkspace, Sense,
    SimplexOptions, Solution, Status,
};

/// One encoded variable: (bounded?, lower, range-above-lower, packed).
/// `packed` carries the objective coefficient (−5..=5) and the integer
/// marker: `obj = packed % 11 − 5`, `integer = (packed / 11) % 2 == 1`.
type RawVar = (u32, u32, u32, u32);
/// One encoded constraint: (coefficients 0..=6 → −3..=3, cmp, rhs 0..=18 → −6..=12).
type RawCon = (Vec<u32>, u32, u32);

fn model_strategy(
    max_vars: usize,
    max_cons: usize,
) -> impl Strategy<Value = (Vec<RawVar>, Vec<RawCon>, u32)> {
    (1..=max_vars, 0..=max_cons).prop_flat_map(move |(n, m)| {
        let var = (0u32..=2, 0u32..=3, 1u32..=6, 0u32..=21);
        let con = (collection::vec(0u32..=6, n), 0u32..=2, 0u32..=18);
        (
            collection::vec(var, n),
            collection::vec(con, m),
            0u32..=1, // maximise?
        )
    })
}

/// A generated model spec: variables, constraints, maximise flag.
type Spec = (Vec<RawVar>, Vec<RawCon>, u32);

/// Row count from which a solve runs presolve (the solver's micro-model
/// threshold; the round-trip property asserts it is reached).
const PRESOLVE_ROWS: usize = 50;

/// A cold revised-simplex solve on a fresh workspace.
fn solve_revised(model: &Model, options: &SimplexOptions) -> Solution {
    RevisedWorkspace::new().solve_warm(model, options)
}

/// Decodes a generated spec into a [`Model`]. When `integers` is false
/// every variable stays continuous (pure LP differential testing); when
/// true the packed integer markers apply (MILP differential testing).
fn build_model(spec: &Spec, integers: bool) -> Model {
    build_stacked(spec, integers, 1)
}

/// How many copies of the block `spec` decodes to reach
/// [`PRESOLVE_ROWS`] rows (a block without rows never does).
fn copies_to_presolve(spec: &Spec) -> usize {
    let rows = spec
        .1
        .iter()
        .filter(|(coeffs, _, _)| coeffs.iter().any(|&c| c != 3));
    PRESOLVE_ROWS.div_ceil(rows.count().max(1))
}

/// `copies` copies of the block `spec` decodes to, each on its own
/// variables: no row of one copy mentions another's, so the optimum is
/// `copies` times the block's.
fn build_stacked(spec: &Spec, integers: bool, copies: usize) -> Model {
    let (vars, cons, maximise) = spec;
    let mut model = Model::new(if *maximise == 1 {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    for copy in 0..copies {
        add_block(&mut model, vars, cons, integers, copy * vars.len());
    }
    model
}

/// Adds one copy of the block to `model`, naming its variables from
/// `first`.
fn add_block(model: &mut Model, vars: &[RawVar], cons: &[RawCon], integers: bool, first: usize) {
    let ids: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &(bounded, lower, range, packed))| {
            let i = first + i;
            let lower = f64::from(lower);
            let upper = if bounded == 0 {
                None
            } else {
                Some(lower + f64::from(range))
            };
            let objective = f64::from(packed % 11) - 5.0;
            let integer = integers && (packed / 11) % 2 == 1;
            if integer {
                // Integer variables need a finite range so the search
                // tree stays small; fall back to [lower, lower+range].
                let upper = upper.unwrap_or(lower + f64::from(range));
                model.add_int_var(format!("x{i}"), lower, Some(upper), objective)
            } else {
                model.add_var(format!("x{i}"), lower, upper, objective)
            }
        })
        .collect();
    for (c, (coeffs, cmp, rhs)) in cons.iter().enumerate() {
        let mut expr = LinExpr::new();
        for (&var, &coeff) in ids.iter().zip(coeffs) {
            let coeff = f64::from(coeff) - 3.0;
            if coeff != 0.0 {
                expr.add_term(coeff, var);
            }
        }
        if expr.is_empty() {
            continue;
        }
        let cmp = match cmp % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let rhs = f64::from(*rhs) - 6.0;
        model.add_constraint(format!("c{c}"), expr, cmp, rhs);
    }
}

/// `a` and `b` agree within 1e-6, relative to their magnitude past 1:
/// the tolerance for an optimum that stacking scales by the copy count.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// A warm re-solve of `model` matches a cold solve on a fresh
/// workspace: the same status and, when optimal, an objective within
/// 1e-6 and a point that satisfies the model.
fn assert_matches_cold(model: &Model, warm: &Solution, options: &SimplexOptions, what: &str) {
    let cold = solve_revised(model, options);
    assert_eq!(warm.status, cold.status, "{what} on\n{model}");
    if warm.status == Status::Optimal {
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "{what}: warm {} vs cold {} on\n{model}",
            warm.objective,
            cold.objective
        );
        assert!(
            model.is_feasible(&warm.values, 1e-6),
            "{what}: warm point infeasible for\n{model}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Same status and, when optimal, the same objective within 1e-6 —
    /// and both engines' points must satisfy the model.
    #[test]
    fn revised_simplex_matches_the_dense_tableau(spec in model_strategy(6, 5)) {
        let model = build_model(&spec, false);
        let dense = solve_lp(&model);
        let revised = solve_revised(&model, &SimplexOptions::default());
        // Both solvers are exact on these tame instances; an iteration
        // limit would indicate a bug, not hard numerics.
        prop_assert_ne!(dense.status, Status::IterationLimit);
        prop_assert_ne!(revised.status, Status::IterationLimit);
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            prop_assert!(
                (dense.objective - revised.objective).abs() < 1e-6,
                "dense {} vs revised {} on\n{}",
                dense.objective,
                revised.objective,
                model
            );
            prop_assert!(
                model.is_feasible(&revised.values, 1e-6),
                "revised returned an infeasible point for\n{}",
                model
            );
            prop_assert!(
                model.is_feasible(&dense.values, 1e-6),
                "dense returned an infeasible point for\n{}",
                model
            );
        }
    }

    /// Dantzig pricing (the default) and Bland's rule from the first
    /// pivot (`bland_after: 0`) are different *routes* to the same
    /// optimum: identical status and, when optimal, the objective of the
    /// dense oracle (each point feasible for the model). This keeps the
    /// anti-cycling path covered.
    #[test]
    fn pricing_rules_agree_on_the_objective(spec in model_strategy(6, 5)) {
        let model = build_model(&spec, false);
        let dantzig = solve_revised(&model, &SimplexOptions::default());
        let bland = solve_revised(&model, &SimplexOptions { bland_after: 0, ..SimplexOptions::default() });
        let dense = solve_lp(&model);
        prop_assert_eq!(dantzig.status, bland.status);
        prop_assert_eq!(dantzig.status, dense.status);
        if dantzig.status == Status::Optimal {
            prop_assert!(
                (dantzig.objective - bland.objective).abs() < 1e-6,
                "dantzig {} vs bland {} on\n{}", dantzig.objective, bland.objective, model
            );
            prop_assert!(
                (dantzig.objective - dense.objective).abs() < 1e-6,
                "dantzig {} vs dense {} on\n{}", dantzig.objective, dense.objective, model
            );
            prop_assert!(model.is_feasible(&dantzig.values, 1e-6));
            prop_assert!(model.is_feasible(&bland.values, 1e-6));
        }
    }

    /// Presolve round-trip: solving the reduced problem and postsolving
    /// must give the same status and objective as solving the full
    /// problem, and the postsolved point must satisfy the *original*
    /// model (eliminated rows and fixed columns included). The drawn
    /// block is stacked until the model presolves; its optimum is the
    /// copy count times the dense oracle's optimum of one block.
    #[test]
    fn presolve_round_trips_against_the_unreduced_solve(spec in model_strategy(6, 5)) {
        let copies = copies_to_presolve(&spec);
        let model = build_stacked(&spec, false, copies);
        let mut ws = RevisedWorkspace::new();
        let with = ws.solve_warm(&model, &SimplexOptions::default());
        prop_assert!(
            ws.last_solve_used_presolve() || model.num_constraints() < PRESOLVE_ROWS,
            "a {}-row model must presolve", model.num_constraints()
        );
        let without = solve_revised(
            &model,
            &SimplexOptions { presolve: false, ..SimplexOptions::default() },
        );
        let block = solve_lp(&build_model(&spec, false));
        prop_assert_eq!(with.status, without.status, "presolve changed the status on\n{}", model);
        prop_assert_eq!(with.status, block.status, "stacking changed the status on\n{}", model);
        if with.status == Status::Optimal {
            prop_assert!(
                (with.objective - without.objective).abs() < 1e-6,
                "presolved {} vs unreduced {} on\n{}", with.objective, without.objective, model
            );
            prop_assert!(
                close(with.objective, copies as f64 * block.objective),
                "presolved {} vs {} copies of the block's {} on\n{}",
                with.objective, copies, block.objective, model
            );
            prop_assert!(
                model.is_feasible(&with.values, 1e-6),
                "postsolved point violates the original model\n{}", model
            );
        }
    }

    /// Sibling warm starts: re-solving models that share a constraint
    /// matrix but differ in objective, bounds and right-hand sides
    /// through one workspace must match fresh cold solves every time.
    ///
    /// The same holds in place: one model — the drawn block, or the
    /// block stacked until it presolves — is edited through a sequence
    /// of right-hand-side edits (relax, tighten, restore a random row)
    /// and re-solved after each on one workspace, which patches the
    /// workspace instead of rebuilding it wherever it can. Matching a
    /// cold solve every time also bounds the drift of basic values that
    /// are updated without a refactorisation. Last, a clone is edited
    /// and solved on the same workspace: a different model to the warm
    /// path.
    #[test]
    fn warm_sibling_solves_match_cold_solves(
        spec in model_strategy(5, 4),
        shifts in collection::vec((0u32..=6, 0u32..=12), 3),
        edits in collection::vec((0u32..=999, 0u32..=2, 1u32..=8), 1..=50),
        stacked in 0u32..=1,
    ) {
        let base = build_model(&spec, false);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        ws.solve_warm(&base, &options);
        for &(obj_shift, rhs_shift) in &shifts {
            let mut sibling = build_model(&spec, false);
            // Shift every objective coefficient and right-hand side; the
            // matrix (and thus the warm path's validity check) stays
            // identical.
            let delta_obj = f64::from(obj_shift) - 3.0;
            let delta_rhs = f64::from(rhs_shift) - 6.0;
            let vars: Vec<_> = sibling.var_ids().collect();
            for id in vars {
                let objective = sibling.variable(id).objective + delta_obj;
                sibling.set_objective(id, objective);
            }
            let cons: Vec<_> = sibling.constraint_ids().collect();
            for id in cons {
                let rhs = sibling.constraint(id).rhs + delta_rhs;
                sibling.set_rhs(id, rhs);
            }
            let warm = ws.solve_warm(&sibling, &options);
            assert_matches_cold(&sibling, &warm, &options, "sibling model");
        }

        let copies = if stacked == 1 { copies_to_presolve(&spec) } else { 1 };
        let mut model = build_stacked(&spec, false, copies);
        let rows: Vec<_> = model.constraint_ids().collect();
        if !rows.is_empty() {
            let original: Vec<f64> = rows.iter().map(|&id| model.constraint(id).rhs).collect();
            let mut ws = RevisedWorkspace::new();
            ws.solve_warm(&model, &options);
            for &(pick, kind, amount) in &edits {
                let k = pick as usize % rows.len();
                let row = model.constraint(rows[k]);
                // The direction that loosens the row (either, for `=`).
                let loosen = if row.cmp == Cmp::Ge { -1.0 } else { 1.0 };
                let step = 0.5 * f64::from(amount);
                let rhs = match kind {
                    0 => row.rhs + loosen * step,
                    1 => row.rhs - loosen * step,
                    _ => original[k],
                };
                model.set_rhs(rows[k], rhs);
                let warm = ws.solve_warm(&model, &options);
                assert_matches_cold(&model, &warm, &options, "in-place rhs edit");
            }
            let mut clone = model.clone();
            let row = rows[edits[0].0 as usize % rows.len()];
            clone.set_rhs(row, clone.constraint(row).rhs + 1.0);
            let warm = ws.solve_warm(&clone, &options);
            assert_matches_cold(&clone, &warm, &options, "edited clone");
        }
    }

    /// Warm-started revised branch-and-bound ≡ cold dense branch-and-bound:
    /// same status, same optimal objective, same proven bound.
    #[test]
    fn warm_revised_bb_matches_cold_dense_bb(spec in model_strategy(5, 4)) {
        let model = build_model(&spec, true);
        let options = BranchBoundOptions::default();
        let dense = oracle::solve_milp(&model, &options);
        let revised = solve_milp(&model, &options, &mut LpWorkspace::new());
        // Skip the rare instance either search could not finish.
        if dense.status != Status::NodeLimit && revised.status != Status::NodeLimit {
            prop_assert_eq!(dense.status, revised.status);
            match (dense.objective(), revised.objective()) {
                (Some(a), Some(b)) => {
                    prop_assert!((a - b).abs() < 1e-6, "incumbents differ: {} vs {} on\n{}", a, b, model);
                    let incumbent = revised.incumbent.as_ref().unwrap();
                    prop_assert!(model.is_feasible(&incumbent.values, 1e-6));
                }
                (None, None) => {}
                other => prop_assert!(false, "incumbent presence differs: {:?}", other),
            }
            match (dense.bound, revised.bound) {
                (Some(a), Some(b)) => prop_assert!(
                    (a - b).abs() < 1e-6,
                    "bounds differ: {} vs {} on\n{}", a, b, model
                ),
                (None, None) => {}
                other => prop_assert!(false, "bound presence differs: {:?}", other),
            }
        }
    }
}

/// Degenerate-instance regression: a cover LP built almost entirely
/// from boxed columns with identical costs, identical bounds and tied
/// right-hand sides — every dual pivot sees walls of equal ratios and
/// equal violations, and most steps are degenerate. The bound-flipping
/// dual ratio test must still terminate (no cycling) under a hard
/// iteration cap, and on the optimum it must agree with the dense
/// tableau oracle.
#[test]
fn degenerate_boxed_cover_does_not_cycle() {
    let rows = 60usize;
    let cols = 90usize;
    let mut model = Model::new(Sense::Minimize);
    // All-boxed, all-identical columns: cost 1, bounds [0, 1].
    let vars: Vec<_> = (0..cols)
        .map(|j| model.add_var(format!("x{j}"), 0.0, Some(1.0), 1.0))
        .collect();
    // Overlapping unit-coefficient cover rows with a tied rhs: row i
    // covers five consecutive columns (wrapping), "≥ 2" each — the
    // optimal basis is massively degenerate and every ratio ties.
    for i in 0..rows {
        let mut expr = LinExpr::new();
        for k in 0..5 {
            expr.add_term(1.0, vars[(i * 3 + k) % cols]);
        }
        model.add_constraint(format!("c{i}"), expr, Cmp::Ge, 2.0);
    }
    // A cap far below the default: cycling (or even mild stalling)
    // blows straight through it, termination stays well under it.
    let options = SimplexOptions {
        max_iterations: Some(2_000),
        ..SimplexOptions::default()
    };
    let revised = solve_revised(&model, &options);
    assert_eq!(
        revised.status,
        Status::Optimal,
        "bound-flipping dual ratio test failed to terminate on the degenerate cover"
    );
    let dense = solve_lp(&model);
    assert_eq!(dense.status, Status::Optimal);
    assert!(
        (revised.objective - dense.objective).abs() < 1e-6,
        "revised {} vs dense {}",
        revised.objective,
        dense.objective
    );
    assert!(model.is_feasible(&revised.values, 1e-6));
}

/// Warm-start regression: the paper-scale (`s = 400`) bandwidth bound
/// re-solved on its own workspace after node 0's capacity row is
/// relaxed by one unit. The optimal basis the cold solve ends on stays
/// optimal for this sibling, so the re-solve must answer without a
/// single pivot or refactorisation — it patches the workspace in
/// place — at the objective a fresh cold solve of the sibling reaches.
/// The LP is degenerate, and which optimal basis the cold solve ends on
/// decides the sibling's work: from a basis where the relaxed row moves
/// basic values out of their bounds, this sibling took 171 dual pivots
/// — more work than the cold solve.
///
/// A bound edit on the same model then takes the full warm entry, which
/// refactorises, and still matches a cold solve.
#[test]
fn warm_sibling_of_the_s400_bandwidth_bound_needs_no_pivots() {
    use replica_placement::core::ilp::{self, Integrality};
    use replica_placement::core::Policy;
    use replica_placement::workloads::scenarios::feasible_bandwidth_instance;

    let problem = feasible_bandwidth_instance(400, 0.4, 31);
    let formulation = ilp::build_model(&problem, Policy::Multiple, Integrality::RationalBound);
    let x0 = formulation.x[0];
    let mut model = formulation.model;
    let options = SimplexOptions::default();
    let mut workspace = RevisedWorkspace::new();
    let base = workspace.solve_warm(&model, &options);
    assert_eq!(base.status, Status::Optimal);

    // x_0 appears in node 0's capacity row only.
    let row = model
        .constraint_ids()
        .find(|&id| model.constraint(id).terms.iter().any(|&(var, _)| var == x0))
        .expect("the Multiple formulation has a capacity row per node");
    let rhs = model.constraint(row).rhs;
    model.set_rhs(row, rhs + 1.0);
    let warm = workspace.solve_warm(&model, &options);
    let cold = solve_revised(&model, &options);
    assert_eq!(warm.status, Status::Optimal);
    assert_eq!(cold.status, Status::Optimal);
    assert!(
        (warm.objective - cold.objective).abs() < 1e-6 * cold.objective.abs().max(1.0),
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert_eq!(
        workspace.last_stats().iterations(),
        0,
        "the relaxed sibling must re-solve from the stored optimal basis without pivots"
    );
    assert_eq!(
        workspace.last_stats().refactorisations,
        0,
        "an rhs-only sibling must keep the stored factorisation"
    );

    // Halve x_0's room: a bound edit, so the full entry runs.
    model.set_bounds(x0, 0.0, Some(0.5 * warm.value(x0)));
    let warm = workspace.solve_warm(&model, &options);
    let cold = solve_revised(&model, &options);
    assert!(
        workspace.last_stats().refactorisations >= 1,
        "a bound edit must take the full warm entry"
    );
    assert_eq!(warm.status, cold.status);
    assert!(
        close(warm.objective, cold.objective),
        "warm {} vs cold {} after a bound edit",
        warm.objective,
        cold.objective
    );
}
