#![cfg(test)]
//! Differential property test of the in-place warm entry: one model is
//! edited in place (right-hand sides and variable bounds: tightened,
//! loosened, restored, to and from infinity, inverted) and re-solved on
//! one workspace after every step. Each answer must equal a cold solve
//! on a fresh workspace and the dense oracle, and whenever the edits sit
//! in a class the reductions provably survive, the re-solve must have
//! patched the workspace.

use proptest::prelude::*;

use super::basis::upper_bound;
use super::*;
use crate::model::{Cmp, ConstraintId, LinExpr, Model, Sense, VarId};
use crate::oracle::solve_lp;

/// Deterministic xorshift stream, seeded by the property's draw.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + self.below((hi - lo + 1) as u64) as i64) as f64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A singleton equality `a·y = rhs` on a column of its own (which also
/// sits in a multi-term row), the shape of a root-attached client's
/// cover row.
#[derive(Clone, Copy)]
struct Singleton {
    row: ConstraintId,
    var: VarId,
    coeff: f64,
}

/// Random blocks on disjoint variables until the model has `min_rows`
/// rows: boxed and unbounded columns, two or three multi-term rows of
/// every comparison, singleton equalities on their own boxed columns,
/// and now and then a singleton inequality that tightens a bound (its
/// column is returned too). The right-hand sides are set around one
/// drawn point, so the model starts feasible.
fn random_model(rng: &mut Rng, min_rows: usize) -> (Model, Vec<Singleton>, Vec<VarId>) {
    let mut model = Model::new(if rng.chance(10) {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let mut singletons = Vec::new();
    let mut tightened = Vec::new();
    let mut point = Vec::new();
    while model.num_constraints() < min_rows.max(1) {
        // A column and its coordinate of the drawn point.
        let mut var = |rng: &mut Rng, lower: f64, upper: Option<f64>, cost: f64| {
            point.push(lower + rng.int(0, upper.map_or(3, |u| (u - lower) as i64)));
            model.add_var("", lower, upper, cost)
        };
        let mut core = Vec::new();
        for _ in 0..3 + rng.below(3) {
            let lower = rng.int(0, 1);
            let upper = rng.chance(75).then(|| lower + rng.int(1, 5));
            let cost = rng.int(if upper.is_some() { -1 } else { 0 }, 4);
            core.push(var(rng, lower, upper, cost));
        }
        let mut own = Vec::new();
        for _ in 0..rng.below(3) {
            let (upper, cost) = (rng.int(1, 5), rng.int(0, 3));
            own.push(var(rng, 0.0, Some(upper), cost));
        }
        let all: Vec<VarId> = core.iter().chain(&own).copied().collect();
        for r in 0..2 + rng.below(2) {
            let mut expr = LinExpr::new();
            for _ in 0..2 + rng.below(2) {
                let var = all[rng.below(all.len() as u64) as usize];
                expr.add_term([-2.0, -1.0, 1.0, 2.0][rng.below(4) as usize], var);
            }
            if r == 0 {
                // Every singleton column also sits in a multi-term row.
                for &var in &own {
                    expr.add_term(1.0, var);
                }
            }
            let at = expr.evaluate(&point);
            let (cmp, rhs) = match rng.below(3) {
                0 => (Cmp::Le, at + rng.int(0, 3)),
                1 => (Cmp::Ge, at - rng.int(0, 3)),
                _ => (Cmp::Eq, at),
            };
            model.add_constraint("", expr, cmp, rhs);
        }
        for &var in &own {
            let coeff = rng.int(1, 2);
            let expr = LinExpr::new().plus(coeff, var);
            let row = model.add_constraint("", expr, Cmp::Eq, coeff * point[var.index()]);
            singletons.push(Singleton { row, var, coeff });
        }
        if rng.chance(50) {
            let var = core[rng.below(core.len() as u64) as usize];
            let at = point[var.index()];
            let coeff = [-1.0, 1.0, 2.0][rng.below(3) as usize];
            let expr = LinExpr::new().plus(coeff, var);
            // `x ≤ at + k` or `x ≥ at − k`, scaled by a signed coefficient.
            let (cmp, rhs) = match (rng.chance(50), coeff > 0.0) {
                (true, true) => (Cmp::Le, coeff * (at + rng.int(0, 1))),
                (true, false) => (Cmp::Ge, coeff * (at + rng.int(0, 1))),
                (false, true) => (Cmp::Ge, coeff * (at - rng.int(0, 1))),
                (false, false) => (Cmp::Le, coeff * (at - rng.int(0, 1))),
            };
            model.add_constraint("", expr, cmp, rhs);
            tightened.push(var);
        }
    }
    (model, singletons, tightened)
}

/// One random edit of `model`, relative to the `original` it started as:
/// a right-hand side or a bound moved or restored (the bound often of a
/// `tightened` column), a singleton equality re-targeted with its
/// column's upper bound, or everything restored.
fn random_edit(
    rng: &mut Rng,
    model: &mut Model,
    original: &Model,
    singletons: &[Singleton],
    tightened: &[VarId],
) {
    let vars: Vec<VarId> = if !tightened.is_empty() && rng.chance(40) {
        tightened.to_vec()
    } else {
        model.var_ids().collect()
    };
    let rows: Vec<ConstraintId> = model.constraint_ids().collect();
    match rng.below(5) {
        4 => {
            for &row in &rows {
                model.set_rhs(row, original.constraint(row).rhs);
            }
            for &var in &vars {
                let v = original.variable(var);
                model.set_bounds(var, v.lower, v.upper);
            }
        }
        0 => {
            let row = rows[rng.below(rows.len() as u64) as usize];
            let rhs = match rng.below(4) {
                0 => model.constraint(row).rhs + rng.int(1, 3),
                1 => model.constraint(row).rhs - rng.int(1, 3),
                _ => original.constraint(row).rhs,
            };
            model.set_rhs(row, rhs);
        }
        1 => {
            let var = vars[rng.below(vars.len() as u64) as usize];
            let v = model.variable(var);
            let (lower, upper) = (v.lower, v.upper);
            let upper = match rng.below(6) {
                // Tighten, possibly below the lower bound (inverted).
                0 => Some(upper.unwrap_or(lower + 6.0) - rng.int(1, 4)),
                1 => Some(upper.unwrap_or(lower) + rng.int(1, 4)),
                2 => None,
                3 => Some(lower + rng.int(0, 3)),
                4 => Some(lower - 1.0),
                _ => original.variable(var).upper,
            };
            model.set_bounds(var, lower, upper);
        }
        2 => {
            let var = vars[rng.below(vars.len() as u64) as usize];
            let v = model.variable(var);
            let lower = match rng.below(3) {
                0 => v.lower + rng.int(1, 2),
                1 => (v.lower - rng.int(1, 2)).max(0.0),
                _ => original.variable(var).lower,
            };
            model.set_bounds(var, lower, v.upper);
        }
        _ if !singletons.is_empty() => {
            // The sweep's re-target: a singleton equality and its
            // column's upper bound move together.
            let s = singletons[rng.below(singletons.len() as u64) as usize];
            let value = rng.int(0, 5);
            let upper = value + rng.int(0, 2) - rng.int(0, 1);
            model.set_rhs(s.row, s.coeff * value);
            model.set_bounds(s.var, 0.0, Some(upper));
        }
        _ => {}
    }
}

/// Whether the edits from `before` to `after` sit in the class whose
/// reductions provably survive, given the reduction the workspace holds
/// (read before the re-solve): `Some(true)` when the re-solve must
/// patch, `Some(false)` when it must not (inverted bounds), `None` when
/// the class does not decide.
///
/// The class: a form built without the reduction passes (nothing
/// removed) absorbs every edit; otherwise each edited row is kept, or
/// is a singleton equality that fixed its removed column and re-derives
/// a value within the column's new bounds, each edited column is kept
/// with its edited sides untouched by presolve, or is such a re-derived
/// column, and no other removed row has a term on an edited or
/// re-derived column.
fn patch_expected(ws: &RevisedWorkspace, before: &Model, after: &Model) -> Option<bool> {
    let bounds = |m: &Model, j: usize| {
        let v = &m.variables[j];
        (v.lower, upper_bound(v.upper))
    };
    let cols: Vec<usize> = (0..after.num_vars())
        .filter(|&j| bounds(before, j) != bounds(after, j))
        .collect();
    if cols
        .iter()
        .any(|&j| bounds(after, j).0 > bounds(after, j).1)
    {
        return Some(false);
    }
    if !ws.presolved {
        return Some(true);
    }
    let pre = &ws.presolve;
    let rows = (0..after.num_constraints())
        .filter(|&i| before.constraints[i].rhs != after.constraints[i].rhs);
    let mut rederived: Vec<(usize, usize)> = Vec::new();
    for i in rows {
        if pre.row_kept[i] {
            continue;
        }
        let c = &after.constraints[i];
        let [(var, a)] = c.terms[..] else { return None };
        let j = var.index();
        let (lo, hi) = bounds(after, j);
        let value = c.rhs / a;
        let derivable = c.cmp == Cmp::Eq && pre.row_derived[i] && !pre.col_kept[j];
        if !derivable || value < lo || value > hi || rederived.iter().any(|&(k, _)| k == j) {
            return None;
        }
        rederived.push((j, i));
    }
    for &j in &cols {
        if !pre.col_kept[j] {
            if !rederived.iter().any(|&(k, _)| k == j) {
                return None;
            }
            continue;
        }
        let (old, new) = (bounds(before, j), bounds(after, j));
        let lower_ok = old.0 == new.0 || pre.lower[j] == old.0;
        let upper_ok = old.1 == new.1 || pre.upper[j] == old.1;
        let lower = if old.0 == new.0 { pre.lower[j] } else { new.0 };
        let upper = if old.1 == new.1 { pre.upper[j] } else { new.1 };
        if !lower_ok || !upper_ok || lower > upper {
            return None;
        }
    }
    let touched = |j: usize| cols.contains(&j) || rederived.iter().any(|&(k, _)| k == j);
    for (i, c) in after.constraints.iter().enumerate() {
        let rederives = rederived.iter().any(|&(_, row)| row == i);
        if !pre.row_kept[i] && !rederives && c.terms.iter().any(|&(var, _)| touched(var.index())) {
            return None;
        }
    }
    Some(true)
}

/// Same status as `reference` and, when optimal, an objective within
/// 1e-6 relative to its magnitude past 1.
fn assert_agrees(got: &Solution, reference: &Solution, what: &str, model: &Model) {
    assert_eq!(got.status, reference.status, "{what} on\n{model}");
    if got.status == Status::Optimal {
        let scale = got.objective.abs().max(reference.objective.abs()).max(1.0);
        assert!(
            (got.objective - reference.objective).abs() <= 1e-6 * scale,
            "{what}: {} vs {} on\n{model}",
            got.objective,
            reference.objective
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Models on both sides of the presolve threshold, edited in place
    /// step by step and re-solved on one workspace: every answer equals
    /// a cold solve and the dense oracle, every optimal point satisfies
    /// the edited model, and an edit in the surviving class patches, with
    /// no refactorisation at entry while the inherited eta file is short.
    #[test]
    fn in_place_edits_match_cold_solves_and_the_oracle(seed in 1u64..u64::MAX, presolved in 0u32..=1) {
        let mut rng = Rng(seed);
        let min_rows = if presolved == 1 { MICRO_LP_ROWS } else { 1 + rng.below(12) as usize };
        let (mut model, singletons, tightened) = random_model(&mut rng, min_rows);
        let original = model.clone();
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let mut last = ws.solve_warm(&model, &options);
        for _ in 0..12 {
            let before = model.clone();
            for _ in 0..1 + rng.below(3) {
                random_edit(&mut rng, &mut model, &original, &singletons, &tightened);
            }
            let expected = (last.status == Status::Optimal)
                .then(|| patch_expected(&ws, &before, &model))
                .flatten();
            let short_eta_file = ws.factor.updates() <= ws.form.m / PATCH_ETA_DIV;
            let warm = ws.solve_warm(&model, &options);
            let stats = ws.last_stats();
            assert_agrees(&warm, &RevisedWorkspace::new().solve_warm(&model, &options), "cold solve", &model);
            assert_agrees(&warm, &solve_lp(&model), "dense oracle", &model);
            if warm.status == Status::Optimal {
                prop_assert!(model.is_feasible(&warm.values, 1e-6), "infeasible point for\n{}", model);
            }
            if let Some(expected) = expected {
                prop_assert_eq!(stats.patched, expected, "patch taken on\n{}", model);
                if expected && short_eta_file {
                    let mid_solve = stats.refactor_scheduled + stats.refactor_ft_refused;
                    prop_assert_eq!(stats.refactorisations, mid_solve, "entry refactorised on\n{}", model);
                }
            }
            last = warm;
        }
    }
}

/// A presolve-detected infeasibility leaves the presolve arrays of an
/// aborted analysis, so the next re-solve must take the full entry
/// however small its edit; a dual simplex proof leaves the basis
/// patchable.
#[test]
fn only_a_dual_simplex_proof_of_infeasibility_stays_patchable() {
    let mut model = Model::minimize();
    let vars: Vec<VarId> = (0..2 * MICRO_LP_ROWS)
        .map(|j| model.add_var("", 0.0, Some(5.0), 1.0 + (j % 3) as f64))
        .collect();
    for pair in vars.chunks(2) {
        let expr = LinExpr::var(pair[0]).plus(1.0, pair[1]);
        model.add_constraint("", expr, Cmp::Ge, 2.0);
    }
    let options = SimplexOptions::default();
    let mut ws = RevisedWorkspace::new();
    let mut solve = |model: &Model| {
        let warm = ws.solve_warm(model, &options);
        assert_agrees(&warm, &solve_lp(model), "dense oracle", model);
        (warm.status, ws.last_stats())
    };
    let (status, _) = solve(&model);
    assert_eq!(status, Status::Optimal);
    // An inverted bound: presolve's analysis stops at once.
    model.set_bounds(vars[0], 1.0, Some(0.0));
    let (status, stats) = solve(&model);
    assert_eq!((status, stats.patched), (Status::Infeasible, false));
    model.set_bounds(vars[0], 0.0, Some(5.0));
    let (status, stats) = solve(&model);
    assert_eq!(status, Status::Optimal);
    assert!(
        !stats.patched,
        "patched after a presolve infeasibility verdict"
    );

    // A covering row no point can meet, proved by the dual simplex.
    let mut m = Model::minimize();
    let x = m.add_var("x", 0.0, Some(2.0), 1.0);
    let y = m.add_var("y", 0.0, Some(2.0), 1.0);
    let cover = m.add_constraint("cover", LinExpr::var(x).plus(1.0, y), Cmp::Ge, 3.0);
    let (status, _) = solve(&m);
    assert_eq!(status, Status::Optimal);
    m.set_rhs(cover, 5.0);
    let (status, stats) = solve(&m);
    assert_eq!((status, stats.patched), (Status::Infeasible, true));
    m.set_rhs(cover, 6.0);
    let (status, stats) = solve(&m);
    assert_eq!((status, stats.patched), (Status::Infeasible, true));
    assert_eq!(stats.iterations(), 0, "the proving row is tried first");
    m.set_rhs(cover, 1.0);
    let (status, stats) = solve(&m);
    assert_eq!((status, stats.patched), (Status::Optimal, true));
}

/// A column whose bounds presolve tightened from singleton rows keeps
/// the tightened side only while its model bound on that side stays:
/// when the model bound moves past the tightened value, the re-solve
/// must follow the model, not the stale tightening.
#[test]
fn a_tightened_side_follows_a_moved_model_bound() {
    // Enough cover rows to presolve, and two columns the objective pushes
    // against singleton rows: `x ≤ 3` (model upper 5) and `y ≥ 2`.
    let mut model = Model::minimize();
    let x = model.add_var("x", 0.0, Some(5.0), -1.0);
    let y = model.add_var("y", 0.0, Some(5.0), 1.0);
    model.add_constraint("x_cap", LinExpr::var(x), Cmp::Le, 3.0);
    model.add_constraint("y_floor", LinExpr::var(y), Cmp::Ge, 2.0);
    let mut covers = Vec::new();
    for _ in 0..MICRO_LP_ROWS {
        let a = model.add_var("", 0.0, Some(4.0), 1.0);
        let b = model.add_var("", 0.0, Some(4.0), 2.0);
        model.add_constraint("", LinExpr::var(a).plus(1.0, b).plus(1.0, x), Cmp::Ge, 4.0);
        covers.push(a);
    }
    // Two rows no bound implies keep `y` a column of the reduced form.
    for &a in &covers[..2] {
        model.add_constraint("", LinExpr::var(y).plus(1.0, a), Cmp::Le, 6.0);
    }
    let options = SimplexOptions::default();
    let mut ws = RevisedWorkspace::new();
    assert_eq!(ws.solve_warm(&model, &options).status, Status::Optimal);
    assert!(ws.last_solve_used_presolve());
    for (var, lower, upper) in [
        (x, 0.0, Some(2.0)),
        (y, 3.0, Some(5.0)),
        (x, 0.0, Some(4.0)),
    ] {
        model.set_bounds(var, lower, upper);
        let warm = ws.solve_warm(&model, &options);
        let cold = RevisedWorkspace::new().solve_warm(&model, &options);
        assert_agrees(&warm, &cold, "moved model bound", &model);
        assert_agrees(&warm, &solve_lp(&model), "dense oracle", &model);
        assert!(model.is_feasible(&warm.values, 1e-6));
    }
}
