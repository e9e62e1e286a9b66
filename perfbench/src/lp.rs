//! The s = 2000 LP bound: cycles of one cold solve on a fresh
//! `RevisedWorkspace`, then one rhs-only sibling per sibling row on the
//! same workspace (the row relaxed by +1, solved, then restored).

use std::time::Instant;

use rp_lp::{Cmp, Model, RevisedWorkspace, SimplexOptions, Solution, SolveStats, Status};

use crate::setup::LpInputs;
use crate::spans::Tracer;
use crate::Checks;

/// Relative tolerance of the row and objective checks.
const TOL: f64 = 1e-6;

/// The objectives every solve is checked against, from cold solves on
/// fresh workspaces: the base model and each sibling model.
pub struct References {
    base: f64,
    siblings: Vec<f64>,
}

/// Cold-solves the base model and every sibling model once, outside
/// any timer.
pub fn references(inputs: &LpInputs, checks: &mut Checks) -> References {
    let options = SimplexOptions::default();
    let cold = |model: &Model, checks: &mut Checks| {
        let solution = RevisedWorkspace::new().solve_warm(model, &options);
        checks.record(is_optimal_point(model, &solution));
        solution.objective
    };
    let base = cold(&inputs.model, checks);
    let mut model = inputs.model.clone();
    let siblings = inputs
        .rows
        .iter()
        .map(|&row| {
            let rhs = model.constraint(row).rhs;
            model.set_rhs(row, rhs + 1.0);
            let objective = cold(&model, checks);
            model.set_rhs(row, rhs);
            objective
        })
        .collect();
    References { base, siblings }
}

/// Per-solve wall times and solver statistics of one pass.
#[derive(Default)]
pub struct LpRun {
    /// Cold solve wall times, ms.
    pub cold_ms: Vec<f64>,
    /// Sibling re-solve wall times, ms.
    pub warm_ms: Vec<f64>,
    /// Statistics of each cold solve.
    pub cold_stats: Vec<SolveStats>,
    /// Statistics of each sibling re-solve.
    pub warm_stats: Vec<SolveStats>,
}

/// One pass over the LP workload: a working copy of the model (the
/// siblings edit it in place) and everything measured so far.
pub struct LpPass<'a> {
    inputs: &'a LpInputs,
    refs: &'a References,
    model: Model,
    /// Everything measured so far.
    pub run: LpRun,
}

impl<'a> LpPass<'a> {
    /// A pass over `inputs`, checked against `refs`.
    pub fn new(inputs: &'a LpInputs, refs: &'a References) -> Self {
        LpPass {
            inputs,
            refs,
            model: inputs.model.clone(),
            run: LpRun::default(),
        }
    }

    /// Runs `cycles` cold-plus-siblings cycles, checking every solve.
    /// With a tracer, each solve gets a span.
    pub fn cycles(&mut self, cycles: usize, mut tracer: Option<&mut Tracer>, checks: &mut Checks) {
        let options = SimplexOptions::default();
        let (model, run) = (&mut self.model, &mut self.run);
        for _ in 0..cycles {
            let mut workspace = RevisedWorkspace::new();
            let (ms, solution) = timed(&mut tracer, "lp.cold", || {
                workspace.solve_warm(model, &options)
            });
            run.cold_ms.push(ms);
            run.cold_stats.push(workspace.last_stats());
            checks.record(
                is_optimal_point(model, &solution) && close(solution.objective, self.refs.base),
            );

            for (&row, &expected) in self.inputs.rows.iter().zip(&self.refs.siblings) {
                let rhs = model.constraint(row).rhs;
                model.set_rhs(row, rhs + 1.0);
                let (ms, solution) = timed(&mut tracer, "lp.warm", || {
                    workspace.solve_warm(model, &options)
                });
                run.warm_ms.push(ms);
                run.warm_stats.push(workspace.last_stats());
                checks.record(
                    is_optimal_point(model, &solution) && close(solution.objective, expected),
                );
                model.set_rhs(row, rhs);
            }
        }
    }
}

fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
    let span = tracer.as_mut().map(|t| t.start(name, "rp-lp"));
    let start = Instant::now();
    let out = f();
    let ms = 1e3 * start.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.stop(span);
    }
    (ms, out)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// `Status::Optimal`, and the point satisfies every variable bound and
/// every row of `model` within a tolerance relative to the row's
/// magnitude.
pub fn is_optimal_point(model: &Model, solution: &Solution) -> bool {
    if solution.status != Status::Optimal || solution.values.len() != model.num_vars() {
        return false;
    }
    let values = &solution.values;
    let bounds_ok = model.var_ids().all(|var| {
        let v = model.variable(var);
        let x = values[var.index()];
        let tol = TOL * x.abs().max(1.0);
        x >= v.lower - tol && v.upper.is_none_or(|ub| x <= ub + tol)
    });
    bounds_ok
        && model.constraint_ids().all(|id| {
            let row = model.constraint(id);
            let mut lhs = 0.0;
            let mut scale = row.rhs.abs().max(1.0);
            for &(var, coeff) in &row.terms {
                let term = coeff * values[var.index()];
                lhs += term;
                scale = scale.max(term.abs());
            }
            let tol = TOL * scale;
            match row.cmp {
                Cmp::Le => lhs <= row.rhs + tol,
                Cmp::Ge => lhs >= row.rhs - tol,
                Cmp::Eq => (lhs - row.rhs).abs() <= tol,
            }
        })
}

/// The ROADMAP warm-start marker: simplex iterations of the one-rhs
/// sibling of the s = 400 `feasible_bandwidth_instance` (λ = 0.4,
/// seed 31), re-solved on the workspace of its cold solve. A fixed
/// instance, so the count is comparable across commits.
pub fn s400_warm_iterations(checks: &mut Checks) -> f64 {
    use rp_core::ilp::{build_model, Integrality};
    use rp_core::Policy;
    use rp_workloads::scenarios::feasible_bandwidth_instance;

    let problem = feasible_bandwidth_instance(400, 0.4, 31);
    let mut model = build_model(&problem, Policy::Multiple, Integrality::RationalBound).model;
    let options = SimplexOptions::default();
    let mut workspace = RevisedWorkspace::new();
    checks.record(is_optimal_point(
        &model,
        &workspace.solve_warm(&model, &options),
    ));
    let Some(row) = model
        .constraint_ids()
        .find(|&id| model.constraint(id).cmp == Cmp::Le)
    else {
        checks.record(false);
        return 0.0;
    };
    let rhs = model.constraint(row).rhs;
    model.set_rhs(row, rhs + 1.0);
    checks.record(is_optimal_point(
        &model,
        &workspace.solve_warm(&model, &options),
    ));
    workspace.last_stats().iterations() as f64
}
