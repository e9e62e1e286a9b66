//! Linear-program model builder.
//!
//! A [`Model`] is a collection of variables (continuous or integer, with
//! bounds), linear constraints and a linear objective. Variables and
//! constraints carry optional names that the replica builders leave
//! empty; `Display` labels an unnamed variable `x{i}` and an unnamed
//! constraint `r{i}`.
//! It is deliberately small: just enough expressive power for the
//! replica-placement formulations of the paper (Section 5), which only
//! need non-negative variables, `<=`/`>=`/`=` constraints and a
//! minimisation objective.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a decision variable within a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a constraint within a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConstraintId(pub(crate) u32);

impl ConstraintId {
    /// Dense index of the constraint.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether the objective is minimised or maximised.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Sense {
    /// Minimise the objective (the default for replica cost).
    #[default]
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Direction of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Ge => write!(f, ">="),
            Cmp::Eq => write!(f, "=="),
        }
    }
}

/// A linear expression: a sum of `coefficient * variable` terms.
///
/// Terms may mention the same variable several times; they are merged
/// when the expression is added to a model constraint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// The empty expression (value 0).
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// An expression consisting of a single `1.0 * var` term.
    pub fn var(var: VarId) -> Self {
        LinExpr {
            terms: vec![(var, 1.0)],
        }
    }

    /// Adds `coeff * var` to the expression (builder style).
    pub fn plus(mut self, coeff: f64, var: VarId) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds `coeff * var` to the expression in place.
    pub fn add_term(&mut self, coeff: f64, var: VarId) {
        self.terms.push((var, coeff));
    }

    /// Number of (unmerged) terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the expression has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over raw terms (before merging).
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Merges duplicate variables, dropping zero coefficients; the result
    /// is sorted by variable index.
    pub fn merged(&self) -> Vec<(VarId, f64)> {
        let mut sorted = self.terms.clone();
        sorted.sort_by_key(|(v, _)| *v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(sorted.len());
        for (var, coeff) in sorted {
            match out.last_mut() {
                Some((last_var, last_coeff)) if *last_var == var => *last_coeff += coeff,
                _ => out.push((var, coeff)),
            }
        }
        out.retain(|(_, c)| c.abs() > 0.0);
        out
    }

    /// Evaluates the expression for a dense assignment of variable values.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|(var, coeff)| coeff * values[var.index()])
            .sum()
    }
}

/// Builds a `LinExpr` as a sum of `coeff * var` pairs.
pub fn lin_sum<I>(terms: I) -> LinExpr
where
    I: IntoIterator<Item = (f64, VarId)>,
{
    let mut expr = LinExpr::new();
    for (coeff, var) in terms {
        expr.add_term(coeff, var);
    }
    expr
}

/// A decision variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Variable {
    /// Optional human-readable name for diagnostics; empty when unnamed.
    pub name: String,
    /// Lower bound (must be finite and non-negative for the solver).
    pub lower: f64,
    /// Optional finite upper bound.
    pub upper: Option<f64>,
    /// Whether the variable must take an integral value in MILP solves.
    pub integer: bool,
    /// Coefficient in the objective.
    pub objective: f64,
}

/// A linear constraint `expr cmp rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Optional human-readable name for diagnostics; empty when unnamed.
    pub name: String,
    /// Left-hand side, already merged (sorted by variable, no duplicates).
    pub terms: Vec<(VarId, f64)>,
    /// Constraint direction.
    pub cmp: Cmp,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// Source of [`Model`] identity tokens; 0 is never handed out. A token
/// publishes no other data and only has to be unique, which
/// `fetch_add` guarantees under `Relaxed`.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_model_id() -> u64 {
    NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed)
}

/// A linear / mixed-integer linear program.
///
/// Every model carries an identity token, fresh on [`Model::new`],
/// [`Default`] and [`Clone`]: a clone is a *different* model to the
/// warm path of [`crate::RevisedWorkspace::solve_warm`]. No method
/// edits a row's terms or comparison, and the sense has no setter, so
/// the same identity with the same variable and row counts proves the
/// constraint matrix unchanged.
#[derive(Debug)]
pub struct Model {
    pub(crate) variables: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) sense: Sense,
    id: u64,
}

impl Clone for Model {
    /// A copy under a fresh identity: re-solving it on a workspace that
    /// last solved the original takes the full warm path (which
    /// compares the matrices entry by entry), never the in-place patch.
    fn clone(&self) -> Self {
        Model {
            variables: self.variables.clone(),
            constraints: self.constraints.clone(),
            sense: self.sense,
            id: fresh_model_id(),
        }
    }
}

impl Default for Model {
    fn default() -> Self {
        Model::new(Sense::default())
    }
}

impl Model {
    /// Creates an empty minimisation model.
    pub fn new(sense: Sense) -> Self {
        Model {
            variables: Vec::new(),
            constraints: Vec::new(),
            sense,
            id: fresh_model_id(),
        }
    }

    /// The identity token (see the type docs).
    pub(crate) fn identity(&self) -> u64 {
        self.id
    }

    /// Creates an empty minimisation model (the common case here).
    pub fn minimize() -> Self {
        Model::new(Sense::Minimize)
    }

    /// Objective sense of the model.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and the
    /// given objective coefficient. `upper = None` means unbounded above.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: Option<f64>,
        objective: f64,
    ) -> VarId {
        self.push_var(name.into(), lower, upper, objective, false)
    }

    /// Adds an integer variable with bounds `[lower, upper]`.
    pub fn add_int_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: Option<f64>,
        objective: f64,
    ) -> VarId {
        self.push_var(name.into(), lower, upper, objective, true)
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary_var(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.push_var(name.into(), 0.0, Some(1.0), objective, true)
    }

    fn push_var(
        &mut self,
        name: String,
        lower: f64,
        upper: Option<f64>,
        objective: f64,
        integer: bool,
    ) -> VarId {
        let id = VarId(self.variables.len() as u32);
        let label = || display_name(&name, 'x', id.index());
        assert!(
            lower.is_finite() && lower >= 0.0,
            "variable {}: lower bound must be finite and non-negative (got {lower})",
            label()
        );
        if let Some(ub) = upper {
            assert!(
                ub.is_finite() && ub >= lower,
                "variable {}: upper bound {ub} must be finite and >= lower bound {lower}",
                label()
            );
        }
        self.variables.push(Variable {
            name,
            lower,
            upper,
            integer,
            objective,
        });
        id
    }

    /// Adds the constraint `expr cmp rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        cmp: Cmp,
        rhs: f64,
    ) -> ConstraintId {
        let id = ConstraintId(self.constraints.len() as u32);
        self.constraints.push(Constraint {
            name: name.into(),
            terms: expr.merged(),
            cmp,
            rhs,
        });
        id
    }

    /// Marks an existing variable as integer (used when tightening a
    /// relaxation into the paper's "mixed" lower bound).
    pub fn set_integer(&mut self, var: VarId, integer: bool) {
        self.variables[var.index()].integer = integer;
    }

    /// Overrides the bounds of a variable (used by branch-and-bound).
    /// Like right-hand-side edits, bound edits keep the constraint matrix
    /// and can be patched into a workspace in place (see
    /// [`Model::set_rhs`]).
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: Option<f64>) {
        assert!(lower.is_finite() && lower >= 0.0);
        self.variables[var.index()].lower = lower;
        self.variables[var.index()].upper = upper;
    }

    /// Overrides the objective coefficient of a variable. Objective
    /// edits keep a stored revised-simplex basis structurally valid, so
    /// sibling re-solves after this call take the warm-start fast path.
    pub fn set_objective(&mut self, var: VarId, objective: f64) {
        self.variables[var.index()].objective = objective;
    }

    /// Overrides the right-hand side of a constraint. Like objective
    /// edits, right-hand-side edits preserve the constraint matrix and
    /// therefore warm-startability. When only right-hand sides and
    /// bounds changed since this model's last optimal solve on a
    /// workspace (or a dual simplex proof of its infeasibility), and the
    /// presolve reductions carry over, the re-solve patches that
    /// workspace in place: no presolve re-analysis, and no
    /// refactorisation at entry unless the eta file has grown long.
    pub fn set_rhs(&mut self, c: ConstraintId, rhs: f64) {
        self.constraints[c.index()].rhs = rhs;
    }

    /// Iterates over all constraint ids.
    pub fn constraint_ids(&self) -> impl Iterator<Item = ConstraintId> + '_ {
        (0..self.constraints.len()).map(|i| ConstraintId(i as u32))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Access to a variable's metadata.
    pub fn variable(&self, var: VarId) -> &Variable {
        &self.variables[var.index()]
    }

    /// Access to a constraint.
    pub fn constraint(&self, c: ConstraintId) -> &Constraint {
        &self.constraints[c.index()]
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.variables.len()).map(|i| VarId(i as u32))
    }

    /// Ids of the integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| self.variables[v.index()].integer)
            .collect()
    }

    /// Returns `true` if no variable is marked integer.
    pub fn is_pure_lp(&self) -> bool {
        self.variables.iter().all(|v| !v.integer)
    }

    /// Evaluates the objective for a dense assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * values[i])
            .sum()
    }

    /// Checks whether a dense assignment satisfies every constraint and
    /// variable bound within `tol`. Mostly used by tests and debug
    /// assertions.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            if values[i] < v.lower - tol {
                return false;
            }
            if let Some(ub) = v.upper {
                if values[i] > ub + tol {
                    return false;
                }
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, k)| k * values[v.index()]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sense = match self.sense {
            Sense::Minimize => "minimize",
            Sense::Maximize => "maximize",
        };
        writeln!(f, "{sense}")?;
        let obj: Vec<String> = self
            .variables
            .iter()
            .enumerate()
            .filter(|(_, v)| v.objective != 0.0)
            .map(|(i, v)| format!("{:+} {}", v.objective, display_name(&v.name, 'x', i)))
            .collect();
        writeln!(f, "  {}", obj.join(" "))?;
        writeln!(f, "subject to")?;
        for (i, c) in self.constraints.iter().enumerate() {
            let lhs: Vec<String> = c
                .terms
                .iter()
                .map(|(v, k)| {
                    format!(
                        "{:+} {}",
                        k,
                        display_name(&self.variables[v.index()].name, 'x', v.index())
                    )
                })
                .collect();
            let name = display_name(&c.name, 'r', i);
            writeln!(f, "  {name}: {} {} {}", lhs.join(" "), c.cmp, c.rhs)?;
        }
        writeln!(f, "bounds")?;
        for (i, v) in self.variables.iter().enumerate() {
            let kind = if v.integer { "int" } else { "cont" };
            let name = display_name(&v.name, 'x', i);
            match v.upper {
                Some(ub) => writeln!(f, "  {} <= {name} <= {ub} ({kind})", v.lower)?,
                None => writeln!(f, "  {} <= {name} ({kind})", v.lower)?,
            }
        }
        Ok(())
    }
}

/// `name`, or `{prefix}{index}` when it is empty.
fn display_name(name: &str, prefix: char, index: usize) -> String {
    if name.is_empty() {
        format!("{prefix}{index}")
    } else {
        name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lin_expr_merges_duplicate_terms() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        let expr = LinExpr::var(x).plus(2.0, y).plus(3.0, x).plus(-2.0, y);
        let merged = expr.merged();
        assert_eq!(merged, vec![(x, 4.0)]);
    }

    #[test]
    fn lin_sum_builds_expressions() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 0.0);
        let y = m.add_var("y", 0.0, None, 0.0);
        let expr = lin_sum([(1.5, x), (2.5, y)]);
        assert_eq!(expr.num_terms(), 2);
        assert!((expr.evaluate(&[2.0, 4.0]) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn model_tracks_vars_and_constraints() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(10.0), 3.0);
        let b = m.add_binary_var("b", 5.0);
        let k = m.add_int_var("k", 0.0, Some(7.0), 0.0);
        assert_eq!(m.num_vars(), 3);
        assert!(m.variable(b).integer);
        assert!(m.variable(k).integer);
        assert!(!m.variable(x).integer);
        assert_eq!(m.integer_vars(), vec![b, k]);
        assert!(!m.is_pure_lp());

        let c = m.add_constraint("cap", LinExpr::var(x).plus(1.0, b), Cmp::Le, 4.0);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.constraint(c).terms.len(), 2);
        assert_eq!(m.constraint(c).cmp, Cmp::Le);
    }

    #[test]
    fn objective_and_feasibility_evaluation() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(5.0), 2.0);
        let y = m.add_var("y", 1.0, None, 3.0);
        m.add_constraint("c1", LinExpr::var(x).plus(1.0, y), Cmp::Ge, 3.0);
        m.add_constraint("c2", LinExpr::var(x).plus(-1.0, y), Cmp::Le, 1.0);

        let point = vec![2.0, 1.5];
        assert!((m.objective_value(&point) - 8.5).abs() < 1e-12);
        assert!(m.is_feasible(&point, 1e-9));
        // Violates c1.
        assert!(!m.is_feasible(&[0.5, 1.0], 1e-9));
        // Violates y lower bound.
        assert!(!m.is_feasible(&[3.0, 0.0], 1e-9));
        // Violates x upper bound.
        assert!(!m.is_feasible(&[6.0, 1.0], 1e-9));
        // Wrong dimension.
        assert!(!m.is_feasible(&[1.0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite and non-negative")]
    fn negative_lower_bound_is_rejected() {
        let mut m = Model::minimize();
        m.add_var("bad", -1.0, None, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and >= lower bound")]
    fn inverted_bounds_are_rejected() {
        let mut m = Model::minimize();
        m.add_var("bad", 2.0, Some(1.0), 0.0);
    }

    #[test]
    fn new_default_and_cloned_models_get_fresh_identities() {
        let a = Model::minimize();
        let b = a.clone();
        assert_ne!(a.identity(), b.identity());
        assert_ne!(Model::default().identity(), Model::default().identity());
        assert_ne!(a.identity(), 0);
    }

    #[test]
    fn set_bounds_and_set_integer() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        m.set_bounds(x, 1.0, Some(2.0));
        assert_eq!(m.variable(x).lower, 1.0);
        assert_eq!(m.variable(x).upper, Some(2.0));
        m.set_integer(x, true);
        assert!(m.variable(x).integer);
        m.set_integer(x, false);
        assert!(m.is_pure_lp());
    }

    #[test]
    fn display_contains_all_sections() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(1.0), 1.0);
        let y = m.add_int_var("y", 0.0, None, 2.0);
        m.add_constraint("c", LinExpr::var(x).plus(1.0, y), Cmp::Ge, 1.0);
        let text = m.to_string();
        assert!(text.contains("minimize"));
        assert!(text.contains("subject to"));
        assert!(text.contains("bounds"));
        assert!(text.contains("c:"));
        assert!(text.contains("(int)"));
        assert!(text.contains("(cont)"));
    }

    #[test]
    fn display_labels_unnamed_variables_and_rows_by_index() {
        let mut m = Model::minimize();
        let x = m.add_var("", 0.0, Some(1.0), 1.0);
        m.add_constraint("named", LinExpr::var(x), Cmp::Ge, 1.0);
        m.add_constraint("", LinExpr::var(x), Cmp::Le, 1.0);
        let text = m.to_string();
        assert!(text.contains("named: +1 x0 >= 1"), "{text}");
        assert!(text.contains("r1: +1 x0 <= 1"), "{text}");
        assert!(text.contains("0 <= x0 <= 1 (cont)"), "{text}");
    }
}
