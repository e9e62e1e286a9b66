//! LP-guided rounding for **multi-object** instances — the heuristic
//! the paper leaves open (Section 8.1).
//!
//! A multi-object instance enters the one pipeline of
//! [`super::rounding`] as its K objects: each object becomes the
//! single-object instance it projects to (its requests and storage
//! costs, no QoS bound), and every assignment of every object draws
//! from **one** [`FeasAccounting`] over the shared node capacities and
//! shared link bandwidths — the coupling
//! [`crate::multi::solve_multi_greedy`]'s sequential projection only
//! approximates is respected by construction. The fractional masses of
//! all objects are interleaved into one visit order, so a
//! strongly-wanted replica of a small object is not starved by a big
//! object's leftovers.

use rp_lp::LpWorkspace;

use crate::heuristics::lp_guided::accounting::FeasAccounting;
use crate::heuristics::lp_guided::rounding::round;
use crate::ilp::{multi_lower_bound_fractional_reusing, IlpOptions};
use crate::multi::{MultiObjectProblem, MultiPlacement};
use crate::problem::ProblemInstance;

/// Multi-object LP-guided rounding with default options.
pub fn lp_guided_multi(problem: &MultiObjectProblem) -> Option<MultiPlacement> {
    lp_guided_multi_reusing(problem, &IlpOptions::default(), &mut LpWorkspace::new())
}

/// [`lp_guided_multi`] reusing the LP buffers of `workspace`. Returns
/// `None` when the shared relaxation is infeasible, did not reach
/// optimality, or the rounding cannot serve every request of every
/// object.
pub fn lp_guided_multi_reusing(
    problem: &MultiObjectProblem,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<MultiPlacement> {
    let fractional = multi_lower_bound_fractional_reusing(problem, options, workspace)?;
    // The rounding reads each object's requests and costs only; the
    // shared capacities and links live in the one accounting.
    let capacities: Vec<u64> = problem
        .tree()
        .node_ids()
        .map(|n| problem.capacity(n))
        .collect();
    let objects: Vec<ProblemInstance> = problem
        .object_ids()
        .map(|k| problem.project(k, capacities.clone()))
        .collect();
    let per_object = round(&objects, &FeasAccounting::for_multi(problem), &fractional)?;
    let placement = MultiPlacement { per_object };
    debug_assert!(
        placement.is_valid(problem, crate::policy::Policy::Multiple),
        "rounded multi placement failed validation: {:?}",
        placement.validate(problem, crate::policy::Policy::Multiple)
    );
    Some(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{multi_lower_bound, BoundKind};
    use crate::multi::solve_multi_ilp;
    use crate::policy::Policy;
    use rp_tree::TreeBuilder;

    fn coupling() -> MultiObjectProblem {
        // The Section 8.1 coupling example: hub fits one object only.
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
    }

    #[test]
    fn rounding_matches_the_exact_optimum_on_the_coupling_example() {
        let p = coupling();
        let rounded = lp_guided_multi(&p).expect("feasible");
        rounded.validate(&p, Policy::Multiple).expect("valid");
        // Object 0 at the hub (1), object 1 at the root (6): exact 7.
        assert_eq!(rounded.cost(&p), 7);
        assert_eq!(solve_multi_ilp(&p).unwrap().cost(&p), 7);
    }

    #[test]
    fn shared_links_are_respected() {
        let ok = coupling().with_link_bandwidths(vec![None, None], vec![None, Some(4)]);
        let rounded = lp_guided_multi(&ok).expect("feasible with bw = 4");
        rounded.validate(&ok, Policy::Multiple).expect("valid");
        assert_eq!(rounded.cost(&ok), 7);

        let starved = coupling().with_link_bandwidths(vec![None, None], vec![None, Some(3)]);
        assert!(lp_guided_multi(&starved).is_none());
    }

    #[test]
    fn rounded_cost_sits_above_the_rational_bound() {
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
        let rounded = lp_guided_multi(&p).expect("feasible");
        rounded.validate(&p, Policy::Multiple).expect("valid");
        let bound = multi_lower_bound(&p, BoundKind::Rational).unwrap();
        assert!(rounded.cost(&p) as f64 + 1e-6 >= bound);
        // And never better than the exact optimum.
        let exact = solve_multi_ilp(&p).unwrap().cost(&p);
        assert!(rounded.cost(&p) >= exact);
    }

    #[test]
    fn infeasible_instances_round_to_none() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        let p =
            MultiObjectProblem::new(b.build().unwrap(), vec![vec![50]], vec![10], vec![vec![1]]);
        assert!(lp_guided_multi(&p).is_none());
    }
}
