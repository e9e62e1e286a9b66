//! ILP-based exact solves and LP-based lower bounds (Sections 5 and
//! 7.1), for the single-object formulations — bandwidth-constrained
//! variants included — and the multi-object extension of Section 8.1
//! ([`build_multi_model`], [`multi_lower_bound`]).

mod formulation;
mod multi_formulation;

pub use formulation::{build_model, IlpFormulation, Integrality};
pub use multi_formulation::{build_multi_model, MultiIlpFormulation};

use rp_lp::{solve_milp, BranchBoundOptions, LpWorkspace, Model, Solution, Status, VarId};

use crate::multi::MultiObjectProblem;
use crate::policy::Policy;
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// Options for the ILP solver.
#[derive(Clone, Copy, Debug)]
pub struct IlpOptions {
    /// Options of the underlying branch-and-bound and of the revised
    /// simplex that solves every relaxation.
    pub branch_bound: BranchBoundOptions,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            branch_bound: BranchBoundOptions {
                max_nodes: 20_000,
                ..BranchBoundOptions::default()
            },
        }
    }
}

/// Result of an exact ILP solve.
#[derive(Clone, Debug)]
pub enum IlpOutcome {
    /// An optimal placement was found and extracted.
    Optimal(Placement),
    /// The instance is infeasible under the requested policy.
    Infeasible,
    /// The node limit was hit before optimality was proven; the best
    /// incumbent (if any) is returned.
    NodeLimit(Option<Placement>),
}

impl IlpOutcome {
    /// The placement, when one is available (optimal or incumbent).
    pub fn into_placement(self) -> Option<Placement> {
        match self {
            IlpOutcome::Optimal(p) => Some(p),
            IlpOutcome::Infeasible => None,
            IlpOutcome::NodeLimit(p) => p,
        }
    }
}

/// Solves the exact ILP for `problem` under `policy` and extracts the
/// placement.
pub fn solve_exact_ilp(problem: &ProblemInstance, policy: Policy) -> IlpOutcome {
    solve_exact_ilp_with(problem, policy, &IlpOptions::default())
}

/// [`solve_exact_ilp`] with explicit options.
pub fn solve_exact_ilp_with(
    problem: &ProblemInstance,
    policy: Policy,
    options: &IlpOptions,
) -> IlpOutcome {
    let formulation = build_model(problem, policy, Integrality::Exact);
    let outcome = solve_milp(
        &formulation.model,
        &options.branch_bound,
        &mut LpWorkspace::new(),
    );
    match outcome.status {
        Status::Infeasible => IlpOutcome::Infeasible,
        Status::Optimal => {
            let incumbent = outcome
                .incumbent
                .expect("optimal status implies an incumbent");
            IlpOutcome::Optimal(extract_placement(
                problem,
                policy,
                &formulation,
                &incumbent.values,
            ))
        }
        _ => IlpOutcome::NodeLimit(
            outcome
                .incumbent
                .map(|s| extract_placement(problem, policy, &formulation, &s.values)),
        ),
    }
}

/// Which LP relaxation to use for the lower bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoundKind {
    /// Fully rational relaxation of the Multiple formulation: never
    /// above the mixed bound. Where storage costs are proportional to
    /// capacities (both paper platforms) its optimum is the Section 3.4
    /// volume bound `c·Σ r_i`, in closed form
    /// ([`crate::bounds::rational_relaxation_optimum`]); elsewhere it
    /// can rise above that bound.
    Rational,
    /// The paper's refined bound (Section 7.1): `x_j` integral, request
    /// variables rational. Falls back to the weakest open-node
    /// relaxation when the branch-and-bound node limit is hit, which is
    /// still a valid lower bound (counted in
    /// `core.ilp.mixed_node_limit`).
    Mixed,
}

impl BoundKind {
    /// The integrality of the relaxation this bound solves.
    pub fn integrality(self) -> Integrality {
        match self {
            BoundKind::Rational => Integrality::RationalBound,
            BoundKind::Mixed => Integrality::MixedBound,
        }
    }
}

/// An LP-based lower bound on the optimal replica cost.
///
/// The bound is computed on the **Multiple** formulation: since any
/// Closest or Upwards solution is also a Multiple solution, the value is
/// a valid lower bound for all three policies (this is exactly how the
/// paper's experiments use it). Returns `None` when even the Multiple
/// relaxation is infeasible (no policy has a solution).
pub fn lower_bound(problem: &ProblemInstance, kind: BoundKind) -> Option<f64> {
    lower_bound_with(problem, kind, &IlpOptions::default())
}

/// [`lower_bound`] with explicit options.
pub fn lower_bound_with(
    problem: &ProblemInstance,
    kind: BoundKind,
    options: &IlpOptions,
) -> Option<f64> {
    let formulation = build_model(problem, Policy::Multiple, kind.integrality());
    relaxation_bound(&formulation.model, kind, options, &mut LpWorkspace::new())
}

/// The bound `kind` of the relaxation `model` (built with
/// [`BoundKind::integrality`]), solved on `workspace`: the optimum of
/// the LP, or the branch-and-bound bound of the mixed relaxation.
/// `None` when the relaxation is infeasible; a solve that ends without
/// a usable bound yields 0, which is always valid. A mixed search that
/// stops at its node limit returns the weakest open relaxation, and
/// counts itself in `core.ilp.mixed_node_limit`.
///
/// The sweep runner calls it on a formulation it keeps per tree and
/// re-targets per load factor ([`IlpFormulation::retarget_requests`]):
/// re-solving the model the workspace solved last lets the rational
/// bound's warm start prove the matrix unchanged in `O(1)` and patch the
/// re-targeted right-hand sides and bounds into the workspace in place.
pub fn relaxation_bound(
    model: &Model,
    kind: BoundKind,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<f64> {
    match kind {
        BoundKind::Rational => {
            let solution = workspace
                .revised
                .solve_warm(model, &options.branch_bound.simplex);
            match solution.status {
                Status::Optimal => Some(solution.objective),
                Status::Infeasible => None,
                _ => Some(0.0),
            }
        }
        BoundKind::Mixed => {
            let outcome = solve_milp(model, &options.branch_bound, workspace);
            if outcome.status == Status::NodeLimit {
                rp_obs::incr(rp_obs::Counter::CoreIlpMixedNodeLimit);
            }
            match outcome.status {
                Status::Infeasible => None,
                Status::Unbounded => Some(0.0),
                _ => outcome.bound.or(Some(0.0)),
            }
        }
    }
}

/// The fractional optimum of the rational Multiple relaxation — the
/// part of an LP solve that [`lower_bound`] used to discard.
///
/// This is the raw material of the LP-guided rounding
/// ([`crate::heuristics::lp_guided`]): besides the bound itself it
/// carries, object by object, the per-node replica mass `x_j ∈ [0, 1]`
/// and, per client, the fractional request split `y_{i,j}` over its
/// eligible servers (entries below the extraction tolerance are dropped
/// — on the near-degenerate replica LPs most `y` values are exactly
/// zero). A single-object relaxation has one object; a multi-object one
/// has one per object type, mirroring [`MultiIlpFormulation`].
#[derive(Clone, Debug)]
pub struct FractionalLp {
    /// The rational LP bound (the objective of the relaxation).
    pub bound: f64,
    /// `replica_mass[k][j]` = the fractional `x_{k,j}` of object `k`,
    /// indexed by node index.
    pub replica_mass: Vec<Vec<f64>>,
    /// `assignment[k][i]` = the servers with positive fractional
    /// `y_{k,i,j}`, in path order (closest ancestor first).
    pub assignment: Vec<Vec<Vec<(rp_tree::NodeId, f64)>>>,
}

/// Extraction tolerance: fractional values at or below this are treated
/// as structural zeros.
const FRACTIONAL_TOLERANCE: f64 = 1e-7;

/// Solves the rational Multiple relaxation on `workspace` and surfaces
/// the full fractional optimum (bound, per-node `x`, per-client `y`) as
/// one object. Returns `None` when the relaxation is infeasible **or**
/// did not reach optimality — unlike [`lower_bound`], a truncated solve
/// yields no usable fractional point, so no fallback bound is reported.
/// The scenario sweep drives it with one workspace per worker.
pub fn lower_bound_fractional_reusing(
    problem: &ProblemInstance,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<FractionalLp> {
    let formulation = build_model(problem, Policy::Multiple, Integrality::RationalBound);
    fractional_optimum(
        &formulation.model,
        std::slice::from_ref(&formulation.x),
        std::slice::from_ref(&formulation.y),
        options,
        workspace,
    )
}

/// Solves the rational multi-object relaxation on `workspace` and
/// surfaces the full fractional optimum, one object per object type.
/// Same contract as [`lower_bound_fractional_reusing`].
pub fn multi_lower_bound_fractional_reusing(
    problem: &MultiObjectProblem,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<FractionalLp> {
    let formulation = build_multi_model(problem, Integrality::RationalBound);
    fractional_optimum(
        &formulation.model,
        &formulation.x,
        &formulation.y,
        options,
        workspace,
    )
}

/// Solves `model` and reads the object-major fractional point off its
/// `x[k][j]` and `y[k][i]` variables; `None` unless optimal.
fn fractional_optimum(
    model: &Model,
    x: &[Vec<VarId>],
    y: &[Vec<Vec<(rp_tree::NodeId, VarId)>>],
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<FractionalLp> {
    let solution = workspace
        .revised
        .solve_warm(model, &options.branch_bound.simplex);
    FractionalLp::read(&solution, x, y)
}

impl FractionalLp {
    /// The object-major fractional point of an already solved rational
    /// relaxation, read off its `x[k][j]` and `y[k][i]` variables (the
    /// formulation's `x` and `y`, one object for a single-object one);
    /// `None` unless the solution is optimal. A caller that solved the
    /// relaxation for its bound rounds this point without solving again.
    pub fn read(
        solution: &Solution,
        x: &[Vec<VarId>],
        y: &[Vec<Vec<(rp_tree::NodeId, VarId)>>],
    ) -> Option<FractionalLp> {
        if solution.status != Status::Optimal {
            return None;
        }
        let replica_mass = x
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&var| solution.value(var).clamp(0.0, 1.0))
                    .collect()
            })
            .collect();
        let assignment = y
            .iter()
            .map(|object_rows| {
                object_rows
                    .iter()
                    .map(|row| {
                        solution
                            .fractional_assignment(row, FRACTIONAL_TOLERANCE)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Some(FractionalLp {
            bound: solution.objective,
            replica_mass,
            assignment,
        })
    }
}

/// An LP-based lower bound on the optimal **multi-object** replica cost
/// (the Section 8.1 extension): the relaxation of
/// [`build_multi_model`]'s Multiple-policy formulation, shared link
/// bandwidths included when the instance bounds its links. Returns
/// `None` when even the relaxation is infeasible.
pub fn multi_lower_bound(problem: &MultiObjectProblem, kind: BoundKind) -> Option<f64> {
    multi_lower_bound_with(problem, kind, &IlpOptions::default())
}

/// [`multi_lower_bound`] with explicit options.
pub fn multi_lower_bound_with(
    problem: &MultiObjectProblem,
    kind: BoundKind,
    options: &IlpOptions,
) -> Option<f64> {
    let mut workspace = LpWorkspace::new();
    multi_lower_bound_reusing(problem, kind, options, &mut workspace)
}

/// [`multi_lower_bound`] reusing the LP buffers of `workspace` — the
/// path the multi-object scenario sweep drives, one workspace per
/// worker.
pub fn multi_lower_bound_reusing(
    problem: &MultiObjectProblem,
    kind: BoundKind,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<f64> {
    let formulation = build_multi_model(problem, kind.integrality());
    relaxation_bound(&formulation.model, kind, options, workspace)
}

/// Rounds an LP lower bound up to the next integer (all storage costs
/// are integral, so this is still a valid bound), guarding against
/// floating-point noise.
pub fn integral_lower_bound(bound: f64) -> u64 {
    (bound - 1e-6).ceil().max(0.0) as u64
}

/// Turns an (integral) ILP solution back into a [`Placement`].
fn extract_placement(
    problem: &ProblemInstance,
    policy: Policy,
    formulation: &IlpFormulation,
    values: &[f64],
) -> Placement {
    let tree = problem.tree();
    let mut placement = Placement::empty(tree.num_clients());
    for (index, &x_var) in formulation.x.iter().enumerate() {
        if values[x_var.index()] > 0.5 {
            placement.add_replica(rp_tree::NodeId::from_index(index));
        }
    }
    for client in tree.client_ids() {
        let requests = problem.requests(client);
        if requests == 0 {
            continue;
        }
        for &(server, y_var) in &formulation.y[client.index()] {
            let value = values[y_var.index()];
            let amount = match policy {
                Policy::Closest | Policy::Upwards => {
                    if value > 0.5 {
                        requests
                    } else {
                        0
                    }
                }
                Policy::Multiple => value.round().max(0.0) as u64,
            };
            if amount > 0 {
                placement.assign(client, server, amount);
            }
        }
    }
    placement
}

/// Convenience: the cost of the exact ILP optimum, if feasible and
/// proven optimal within the node limit.
pub fn exact_optimal_cost(problem: &ProblemInstance, policy: Policy) -> Option<u64> {
    match solve_exact_ilp(problem, policy) {
        IlpOutcome::Optimal(p) => Some(p.cost(problem)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{optimal_cost, solve_multiple_homogeneous};
    use rp_lp::{oracle, Model};
    use rp_tree::TreeBuilder;

    /// The bound `kind` of the relaxation `model`, computed by the oracle.
    fn oracle_bound(model: &Model, kind: BoundKind) -> Option<f64> {
        match kind {
            BoundKind::Rational => {
                let solution = oracle::solve_lp(model);
                (solution.status == Status::Optimal).then_some(solution.objective)
            }
            BoundKind::Mixed => {
                oracle::solve_milp(model, &IlpOptions::default().branch_bound).bound
            }
        }
    }

    fn small_instance() -> ProblemInstance {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let a = b.add_node(root);
        let c = b.add_node(root);
        b.add_client(a);
        b.add_client(a);
        b.add_client(c);
        b.add_client(root);
        ProblemInstance::replica_cost(b.build().unwrap(), vec![3, 2, 4, 1], vec![6, 5, 4])
    }

    #[test]
    fn ilp_matches_the_exhaustive_oracle_on_all_policies() {
        let p = small_instance();
        for policy in Policy::ALL {
            let ilp = exact_optimal_cost(&p, policy);
            let oracle = optimal_cost(&p, policy);
            assert_eq!(ilp, oracle, "policy {policy}");
            if let IlpOutcome::Optimal(placement) = solve_exact_ilp(&p, policy) {
                assert!(
                    placement.is_valid(&p, policy),
                    "ILP placement invalid for {policy}"
                );
            }
        }
    }

    #[test]
    fn ilp_matches_the_polynomial_multiple_algorithm() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let a = b.add_node(root);
        let c = b.add_node(root);
        b.add_client(a);
        b.add_client(a);
        b.add_client(c);
        b.add_client(root);
        let p = ProblemInstance::replica_counting(b.build().unwrap(), vec![3, 1, 2, 2], 4);
        let algorithmic = solve_multiple_homogeneous(&p)
            .into_placement()
            .map(|pl| pl.cost(&p));
        assert_eq!(exact_optimal_cost(&p, Policy::Multiple), algorithmic);
    }

    #[test]
    fn infeasible_instances_are_reported() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        let p = ProblemInstance::replica_counting(b.build().unwrap(), vec![5], 2);
        for policy in Policy::ALL {
            assert!(matches!(
                solve_exact_ilp(&p, policy),
                IlpOutcome::Infeasible
            ));
        }
        assert_eq!(lower_bound(&p, BoundKind::Rational), None);
        assert_eq!(lower_bound(&p, BoundKind::Mixed), None);
    }

    #[test]
    fn bounds_never_exceed_the_optimum_and_mixed_dominates_rational() {
        let p = small_instance();
        let optimum = optimal_cost(&p, Policy::Multiple).unwrap() as f64;
        let rational = lower_bound(&p, BoundKind::Rational).unwrap();
        let mixed = lower_bound(&p, BoundKind::Mixed).unwrap();
        assert!(rational <= optimum + 1e-6);
        assert!(mixed <= optimum + 1e-6);
        assert!(mixed + 1e-6 >= rational);
    }

    #[test]
    fn bounds_agree_between_the_revised_and_dense_engines() {
        let p = small_instance();
        for kind in [BoundKind::Rational, BoundKind::Mixed] {
            let revised = lower_bound_with(&p, kind, &IlpOptions::default());
            let model = build_model(&p, Policy::Multiple, kind.integrality()).model;
            let dense = oracle_bound(&model, kind);
            match (revised, dense) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "{kind:?}: {a} vs {b}"),
                other => panic!("engine disagreement for {kind:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn reused_workspace_reports_the_same_bounds() {
        let p = small_instance();
        let options = IlpOptions::default();
        let mut workspace = LpWorkspace::new();
        for kind in [BoundKind::Rational, BoundKind::Mixed, BoundKind::Rational] {
            let model = build_model(&p, Policy::Multiple, kind.integrality()).model;
            let reused = relaxation_bound(&model, kind, &options, &mut workspace);
            let fresh = lower_bound_with(&p, kind, &options);
            match (reused, fresh) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "{kind:?}: {a} vs {b}"),
                other => panic!("workspace reuse changed the bound for {kind:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_mixed_search_cut_at_its_node_limit_counts_itself_and_stays_below() {
        // 3 requests below two servers of capacity 2: the rational root
        // opens 1.5 servers, the mixed optimum 2.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let p = ProblemInstance::replica_counting(b.build().unwrap(), vec![3], 2);
        let model = build_model(&p, Policy::Multiple, Integrality::MixedBound).model;
        let mut cut = IlpOptions::default();
        cut.branch_bound.max_nodes = 1;
        let count = || rp_obs::global().counter(rp_obs::Counter::CoreIlpMixedNodeLimit);
        // The mode is process-global; no other test of this crate reaches
        // a mixed node limit, so only this one moves the counter.
        rp_obs::set_mode(rp_obs::ObsMode::Counters);
        let before = count();
        let limited = relaxation_bound(&model, BoundKind::Mixed, &cut, &mut LpWorkspace::new());
        let after_cut = count();
        let completed = lower_bound(&p, BoundKind::Mixed);
        let after_completed = count();
        rp_obs::set_mode(rp_obs::ObsMode::Off);
        assert_eq!(after_cut - before, 1);
        assert_eq!(after_completed, after_cut);
        let (limited, completed) = (limited.unwrap(), completed.unwrap());
        assert!(limited <= completed + 1e-9, "{limited} > {completed}");
        assert!((limited - 1.5).abs() < 1e-9, "{limited}");
        assert!((completed - 2.0).abs() < 1e-9, "{completed}");
    }

    #[test]
    fn integral_lower_bound_rounds_up_safely() {
        assert_eq!(integral_lower_bound(3.0000001), 3);
        assert_eq!(integral_lower_bound(3.2), 4);
        assert_eq!(integral_lower_bound(0.0), 0);
        assert_eq!(integral_lower_bound(-0.5), 0);
    }

    #[test]
    fn closest_ilp_detects_figure_1b_infeasibility() {
        let mut b = TreeBuilder::new();
        let s2 = b.add_root();
        let s1 = b.add_node(s2);
        b.add_client(s1);
        b.add_client(s1);
        let p = ProblemInstance::replica_counting(b.build().unwrap(), vec![1, 1], 1);
        assert!(matches!(
            solve_exact_ilp(&p, Policy::Closest),
            IlpOutcome::Infeasible
        ));
        assert_eq!(exact_optimal_cost(&p, Policy::Upwards), Some(2));
        assert_eq!(exact_optimal_cost(&p, Policy::Multiple), Some(2));
    }

    #[test]
    fn qos_constrained_ilp_matches_oracle() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![2, 1])
            .capacities(vec![3, 3])
            .storage_costs(vec![3, 3])
            .qos(vec![Some(1), Some(1)])
            .build();
        // The mid client may only use mid; the root client only the root.
        for policy in Policy::ALL {
            assert_eq!(exact_optimal_cost(&p, policy), Some(6), "policy {policy}");
        }
    }

    #[test]
    fn multi_object_bounds_never_exceed_the_exact_optimum() {
        use crate::multi::{solve_multi_ilp, MultiObjectProblem};
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let hub = b.add_node(root);
        b.add_client(hub);
        b.add_client(hub);
        b.add_client(root);
        let p = MultiObjectProblem::new(
            b.build().unwrap(),
            vec![vec![3, 2, 1], vec![1, 4, 2]],
            vec![10, 8],
            vec![vec![5, 4], vec![6, 3]],
        );
        let optimum = solve_multi_ilp(&p).expect("feasible").cost(&p) as f64;
        let rational = multi_lower_bound(&p, BoundKind::Rational).unwrap();
        let mixed = multi_lower_bound(&p, BoundKind::Mixed).unwrap();
        assert!(rational <= optimum + 1e-6);
        assert!(mixed <= optimum + 1e-6);
        assert!(mixed + 1e-6 >= rational);
        // The engine agrees with the oracle on the multi-object
        // relaxation.
        for kind in [BoundKind::Rational, BoundKind::Mixed] {
            let revised = multi_lower_bound_with(&p, kind, &IlpOptions::default());
            let dense = oracle_bound(&build_multi_model(&p, kind.integrality()).model, kind);
            match (revised, dense) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "{kind:?}: {a} vs {b}"),
                other => panic!("engine disagreement for {kind:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn multi_object_bandwidth_bound_detects_link_starvation() {
        use crate::multi::MultiObjectProblem;
        // Two objects of 4 requests each under the hub (capacity 4): at
        // most 4 served locally, the rest crosses hub -> root. Link
        // bandwidth 4 leaves exactly enough; 3 starves the uplink.
        let build = |uplink: u64| {
            let mut b = TreeBuilder::new();
            let root = b.add_root();
            let hub = b.add_node(root);
            b.add_client(hub);
            b.add_client(hub);
            MultiObjectProblem::new(
                b.build().unwrap(),
                vec![vec![4, 0], vec![0, 4]],
                vec![10, 4],
                vec![vec![10, 1], vec![6, 5]],
            )
            .with_link_bandwidths(vec![None, None], vec![None, Some(uplink)])
        };
        assert!(multi_lower_bound(&build(4), BoundKind::Rational).is_some());
        assert_eq!(multi_lower_bound(&build(3), BoundKind::Rational), None);
        assert_eq!(multi_lower_bound(&build(3), BoundKind::Mixed), None);
    }

    #[test]
    fn bandwidth_constrained_ilp_is_tighter() {
        // One client with 4 requests under mid; the link mid -> root only
        // carries 1 request. Serving from the root alone is impossible.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let tree = b.build().unwrap();
        let unconstrained = ProblemInstance::builder(tree.clone())
            .requests(vec![4])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .build();
        // Without bandwidth limits the cheapest solution serves the whole
        // client from the root (cost 10).
        assert_eq!(
            exact_optimal_cost(&unconstrained, Policy::Multiple),
            Some(10)
        );
        let constrained = ProblemInstance::builder(tree)
            .requests(vec![4])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .node_link_bandwidths(vec![None, Some(0)])
            .build();
        // With a dead link above mid, everything must be served at mid,
        // whose capacity (3) is too small: infeasible.
        assert!(matches!(
            solve_exact_ilp(&constrained, Policy::Multiple),
            IlpOutcome::Infeasible
        ));
    }
}
