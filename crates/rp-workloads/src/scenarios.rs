//! Bandwidth-constrained and multi-object workload families — the
//! problem variants of the paper's Sections 2.2 and 8.1, generated at
//! every scale from unit-test trees to the `s = 2000` class that only
//! the sparse revised-simplex engine reaches.
//!
//! Three families:
//!
//! * **Bandwidth-constrained** ([`bandwidth_instance`] and friends):
//!   every node's uplink gets a capacity proportional to the demand of
//!   its subtree, with a per-link random *headroom* factor. Headroom
//!   `≥ 1` keeps the link rows slack-but-present (the LP path changes,
//!   feasibility does not); headroom dipping below 1 makes them bind
//!   and the success rate λ-dependent.
//! * **Ill-scaled bandwidth** ([`ill_scaled_bandwidth_instance`]):
//!   the same link structure over a platform whose capacities span five
//!   decades, which drives the constraint-matrix entry spread to ~2e5 —
//!   the widest coefficient range any shipped family asks the LP engine
//!   to solve unscaled.
//! * **Multi-object** ([`multi_object_instance`],
//!   [`multi_object_bandwidth_instance`]): several databases share the
//!   node capacities (and, in the bandwidth variant, the links); the
//!   per-object demands split a λ-targeted total.
//!
//! All generators are deterministic in their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::multi::MultiObjectProblem;
use rp_core::ProblemInstance;
use rp_tree::TreeNetwork;

use std::sync::Arc;

use crate::platform::{generate_problem, PlatformKind, WorkloadConfig};
use crate::tree_gen::{generate_tree, TreeGenConfig, TreeShape};

/// The multi-thousand-row problem size class: `s = |C| + |N| = 2000`
/// (about 667 internal nodes and 1333 clients). The bandwidth
/// formulation adds one flow row per (client, path link) on top, so the
/// LP comfortably exceeds several thousand rows — the scale PR 3's
/// sparse core was built for.
pub const BANDWIDTH_SCALE_S: usize = 2000;

/// Wide-range platform of the ill-scaled families: capacities (and
/// storage costs) uniform over five decades.
pub fn wide_range_platform() -> PlatformKind {
    PlatformKind::HeterogeneousUniform {
        min: 2,
        max: 200_000,
    }
}

/// Rebuilds `problem` with a bandwidth bound on every node uplink:
/// `BW_l = ceil(h · subtree_demand(l))` with the headroom `h` drawn
/// uniformly from `headroom` per link (deterministically in `seed`).
/// Client links stay unbounded — the first-link flow equality forces
/// them to carry exactly `r_i`, so any bound below that is a trivial
/// infeasibility rather than an interesting constraint. With
/// `headroom.0 >= 1.0` every link can carry its whole subtree's demand
/// and feasibility is exactly that of the unconstrained instance.
pub fn attach_link_bandwidths(
    problem: &ProblemInstance,
    headroom: (f64, f64),
    seed: u64,
) -> ProblemInstance {
    assert!(
        0.0 < headroom.0 && headroom.0 <= headroom.1,
        "headroom range must be positive and ordered"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = problem.tree();
    let node_links: Vec<Option<u64>> = tree
        .node_ids()
        .map(|node| {
            if tree.is_root(node) {
                None
            } else {
                let h = rng.gen_range(headroom.0..=headroom.1);
                Some((h * problem.subtree_requests(node) as f64).ceil() as u64)
            }
        })
        .collect();
    rebuild_with_links(problem, vec![None; tree.num_clients()], node_links)
}

fn rebuild_with_links(
    problem: &ProblemInstance,
    client_links: Vec<Option<u64>>,
    node_links: Vec<Option<u64>>,
) -> ProblemInstance {
    let tree = problem.tree_arc();
    let requests: Vec<u64> = tree.client_ids().map(|c| problem.requests(c)).collect();
    let capacities: Vec<u64> = tree.node_ids().map(|n| problem.capacity(n)).collect();
    let costs: Vec<u64> = tree.node_ids().map(|n| problem.storage_cost(n)).collect();
    let qos: Vec<Option<u32>> = tree.client_ids().map(|c| problem.qos(c)).collect();
    ProblemInstance::builder(tree)
        .requests(requests)
        .capacities(capacities)
        .storage_costs(costs)
        .qos(qos)
        .client_link_bandwidths(client_links)
        .node_link_bandwidths(node_links)
        .kind(problem.kind())
        .build()
}

/// A bandwidth-constrained instance of the given problem size over the
/// default heterogeneous platform, with per-link headroom in
/// `[0.5, 1.5]`: roughly half the links bind, so feasibility (and the
/// LP bound) genuinely depends on the link capacities.
pub fn bandwidth_instance(problem_size: usize, lambda: f64, seed: u64) -> ProblemInstance {
    let base = base_instance(
        problem_size,
        PlatformKind::default_heterogeneous(),
        lambda,
        seed,
    );
    attach_link_bandwidths(&base, (0.5, 1.5), seed ^ 0xB4DD)
}

/// A bandwidth-constrained instance whose links are guaranteed slack
/// enough (headroom in `[1.0, 2.0]`) that feasibility matches the
/// unconstrained instance — the link rows are present and shape the LP,
/// but a λ-feasible workload stays solvable. The `BENCH_scenarios.json`
/// timings use this family so every recorded solve completed; it is
/// also the well-scaled counterpart of
/// [`ill_scaled_bandwidth_instance`] (same links, default platform).
pub fn feasible_bandwidth_instance(problem_size: usize, lambda: f64, seed: u64) -> ProblemInstance {
    let base = base_instance(
        problem_size,
        PlatformKind::default_heterogeneous(),
        lambda,
        seed,
    );
    attach_link_bandwidths(&base, (1.0, 2.0), seed ^ 0xB4DD)
}

/// The ill-scaled bandwidth family: feasible-headroom links over the
/// [`wide_range_platform`], whose five-decade capacities push the
/// constraint matrix's entry spread to ~2e5.
pub fn ill_scaled_bandwidth_instance(
    problem_size: usize,
    lambda: f64,
    seed: u64,
) -> ProblemInstance {
    let base = base_instance(problem_size, wide_range_platform(), lambda, seed);
    attach_link_bandwidths(&base, (1.0, 2.0), seed ^ 0xB4DD)
}

/// The `s = 2000`-class bandwidth-constrained instance family of the CI
/// smoke: ill-scaled wide-range capacities, feasible link headroom,
/// multi-thousand-row LP relaxations.
pub fn bandwidth_scale_instance(lambda: f64, seed: u64) -> ProblemInstance {
    ill_scaled_bandwidth_instance(BANDWIDTH_SCALE_S, lambda, seed)
}

fn base_instance(
    problem_size: usize,
    platform: PlatformKind,
    lambda: f64,
    seed: u64,
) -> ProblemInstance {
    let tree = generate_tree(
        &TreeGenConfig::with_problem_size(problem_size, TreeShape::RandomAttachment),
        seed,
    );
    generate_problem(tree, &WorkloadConfig::new(platform, lambda), seed ^ 0x5CA1E)
}

/// A multi-object instance: `num_objects` databases over one tree with
/// shared heterogeneous capacities. The λ-targeted total demand is
/// split across the objects by random shares, each object's per-client
/// requests are drawn independently (clients may well request nothing
/// of some object), and each object prices a replica at a jittered
/// multiple of the node capacity — so no object dominates and the
/// shared capacity rows genuinely couple them.
pub fn multi_object_instance(
    problem_size: usize,
    num_objects: usize,
    lambda: f64,
    seed: u64,
) -> MultiObjectProblem {
    assert!(num_objects >= 1);
    let tree = generate_tree(
        &TreeGenConfig::with_problem_size(problem_size, TreeShape::RandomAttachment),
        seed,
    );
    multi_object_over(
        tree,
        num_objects,
        lambda,
        PlatformKind::default_heterogeneous(),
        seed,
    )
}

/// [`multi_object_instance`] with every node uplink bounded at a
/// feasible headroom over the subtree's **combined** (all-object)
/// demand: the per-object `z` variables and the shared link rows of the
/// extended formulation all materialise.
pub fn multi_object_bandwidth_instance(
    problem_size: usize,
    num_objects: usize,
    lambda: f64,
    seed: u64,
) -> MultiObjectProblem {
    let problem = multi_object_instance(problem_size, num_objects, lambda, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB4DD);
    let (num_clients, node_links) = {
        let tree = problem.tree();
        // Combined subtree demand per node, over all objects.
        let node_links: Vec<Option<u64>> = tree
            .node_ids()
            .map(|node| {
                if tree.is_root(node) {
                    None
                } else {
                    let combined: u64 = tree
                        .subtree_clients(node)
                        .iter()
                        .map(|&c| {
                            problem
                                .object_ids()
                                .map(|k| problem.requests(k, c))
                                .sum::<u64>()
                        })
                        .sum();
                    let h = rng.gen_range(1.0..=2.0);
                    Some((h * combined as f64).ceil() as u64)
                }
            })
            .collect();
        (tree.num_clients(), node_links)
    };
    problem.with_link_bandwidths(vec![None; num_clients], node_links)
}

/// A multi-object **Replica Counting** instance: homogeneous node
/// capacity, unit storage cost per (object, node) — the Section 8.1
/// extension of the paper's counting flavour. On this family the
/// rational relaxation is *tight* (a saturated replica's fractional
/// `x_{k,j}` is exactly 1, so the bound essentially counts
/// `total demand / W`), which makes it the right yardstick for
/// measuring rounding quality: a cost-vs-LP gap here is genuine
/// heuristic slack, not the intrinsic integrality gap of the
/// jittered-cost family (where `K` objects sharing a node make even
/// the exact optimum sit far above the rational bound).
pub fn multi_object_counting_instance(
    problem_size: usize,
    num_objects: usize,
    lambda: f64,
    seed: u64,
) -> MultiObjectProblem {
    assert!(num_objects >= 1);
    assert!(lambda > 0.0, "the load factor must be positive");
    let tree = generate_tree(
        &TreeGenConfig::with_problem_size(problem_size, TreeShape::RandomAttachment),
        seed,
    );
    let tree: Arc<TreeNetwork> = Arc::new(tree);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0047);
    const CAPACITY: u64 = 12;
    let num_nodes = tree.num_nodes();
    let num_clients = tree.num_clients();
    let total_capacity = CAPACITY * num_nodes as u64;
    let target_total = (lambda * total_capacity as f64).max(1.0);
    let mut requests = Vec::with_capacity(num_objects);
    for _ in 0..num_objects {
        let object_total = target_total / num_objects as f64;
        let weights: Vec<f64> = (0..num_clients).map(|_| rng.gen_range(0.1..=1.0)).collect();
        let weight_sum: f64 = weights.iter().sum::<f64>().max(1e-9);
        requests.push(
            weights
                .iter()
                .map(|w| ((w / weight_sum) * object_total).round() as u64)
                .collect::<Vec<u64>>(),
        );
    }
    MultiObjectProblem::new(
        tree,
        requests,
        vec![CAPACITY; num_nodes],
        vec![vec![1; num_nodes]; num_objects],
    )
}

fn multi_object_over(
    tree: TreeNetwork,
    num_objects: usize,
    lambda: f64,
    platform: PlatformKind,
    seed: u64,
) -> MultiObjectProblem {
    assert!(lambda > 0.0, "the load factor must be positive");
    let tree: Arc<TreeNetwork> = Arc::new(tree);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B7EC7);
    let capacities: Vec<u64> = match platform {
        PlatformKind::Homogeneous { capacity } => vec![capacity; tree.num_nodes()],
        PlatformKind::HeterogeneousUniform { min, max } => (0..tree.num_nodes())
            .map(|_| rng.gen_range(min..=max))
            .collect(),
    };
    let total_capacity: u64 = capacities.iter().sum();
    let target_total = (lambda * total_capacity as f64).max(1.0);

    // Random per-object shares of the total demand.
    let shares: Vec<f64> = (0..num_objects).map(|_| rng.gen_range(0.2..=1.0)).collect();
    let share_sum: f64 = shares.iter().sum();

    let num_clients = tree.num_clients();
    let mut requests = Vec::with_capacity(num_objects);
    let mut storage_costs = Vec::with_capacity(num_objects);
    for share in &shares {
        let object_total = (target_total * share / share_sum).round().max(1.0);
        // Sparse per-client weights: an object is typically requested
        // by a subset of the clients.
        let weights: Vec<f64> = (0..num_clients)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    rng.gen_range(0.05..=1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum::<f64>().max(1e-9);
        let object_requests: Vec<u64> = weights
            .iter()
            .map(|w| ((w / weight_sum) * object_total).round() as u64)
            .collect();
        requests.push(object_requests);
        // Per-object replica prices: capacity-proportional with a
        // jitter, so the cheap node for one object is not automatically
        // the cheap node for the others.
        let costs: Vec<u64> = capacities
            .iter()
            .map(|&w| ((w as f64 * rng.gen_range(0.5..=1.5)).round() as u64).max(1))
            .collect();
        storage_costs.push(costs);
    }
    MultiObjectProblem::new(tree, requests, capacities, storage_costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::LinkId;

    #[test]
    fn bandwidth_instances_bound_every_non_root_uplink() {
        let p = bandwidth_instance(60, 0.4, 9);
        assert!(p.has_bandwidth_limits());
        let tree = p.tree();
        for node in tree.node_ids().collect::<Vec<_>>() {
            let bw = p.bandwidth(LinkId::Node(node));
            if tree.is_root(node) {
                assert_eq!(bw, None);
            } else {
                let bw = bw.expect("non-root uplinks are bounded");
                // Headroom in [0.5, 1.5] of the subtree demand.
                let demand = p.subtree_requests(node) as f64;
                assert!(bw as f64 >= (0.5 * demand).floor());
                assert!(bw as f64 <= (1.5 * demand).ceil());
            }
        }
        for client in tree.client_ids().collect::<Vec<_>>() {
            assert_eq!(p.bandwidth(LinkId::Client(client)), None);
        }
    }

    #[test]
    fn feasible_headroom_links_cover_their_subtree_demand() {
        let p = feasible_bandwidth_instance(40, 0.3, 3);
        let tree = p.tree();
        for node in tree.node_ids().collect::<Vec<_>>() {
            if let Some(bw) = p.bandwidth(LinkId::Node(node)) {
                assert!(bw >= p.subtree_requests(node));
            }
        }
    }

    #[test]
    fn a_bandwidth_bound_with_proportional_costs_is_the_closed_form() {
        // s_j = W_j, so the rational relaxation's optimum is Σ r_i: the
        // link rows shape the LP's solve but not its value.
        use rp_core::bounds::{multiple_is_feasible, rational_relaxation_optimum};
        use rp_core::ilp::{lower_bound, BoundKind};
        let p = feasible_bandwidth_instance(400, 0.4, 31);
        assert!(p.has_bandwidth_limits() && multiple_is_feasible(&p));
        assert_eq!(p.total_requests(), 5_242);
        assert_eq!(rational_relaxation_optimum(&p), Some(5_242.0));
        let lp = lower_bound(&p, BoundKind::Rational).unwrap();
        assert!((lp - 5_242.0).abs() <= 1e-9 * 5_242.0, "{lp}");
    }

    #[test]
    fn generation_is_deterministic_and_preserves_the_base_instance() {
        let a = bandwidth_instance(50, 0.5, 21);
        let b = bandwidth_instance(50, 0.5, 21);
        let tree = a.tree();
        for node in tree.node_ids().collect::<Vec<_>>() {
            assert_eq!(
                a.bandwidth(LinkId::Node(node)),
                b.bandwidth(LinkId::Node(node))
            );
            assert_eq!(a.capacity(node), b.capacity(node));
        }
        // The decoration only adds link bounds: demand and platform
        // match the undecorated generator.
        let base = base_instance(50, PlatformKind::default_heterogeneous(), 0.5, 21);
        assert_eq!(a.total_requests(), base.total_requests());
        assert_eq!(a.total_capacity(), base.total_capacity());
        assert_eq!(a.kind(), base.kind());
    }

    #[test]
    fn ill_scaled_instances_span_decades() {
        let p = ill_scaled_bandwidth_instance(80, 0.4, 5);
        let caps: Vec<u64> = p.tree().node_ids().map(|n| p.capacity(n)).collect();
        let max = *caps.iter().max().unwrap() as f64;
        let min = *caps.iter().min().unwrap() as f64;
        assert!(
            max / min > 1e2,
            "wide-range platform should span decades ({min}..{max})"
        );
        assert!(p.has_bandwidth_limits());
    }

    #[test]
    fn scale_family_reaches_s_2000() {
        // Structure-only assertions (no solve): the s = 2000 class is
        // exercised end-to-end by the CI smoke.
        let p = bandwidth_scale_instance(0.4, 31);
        assert_eq!(p.tree().problem_size(), BANDWIDTH_SCALE_S);
        assert!(p.has_bandwidth_limits());
        assert!((p.load_factor() - 0.4).abs() < 0.05);
    }

    #[test]
    fn multi_object_instances_split_the_lambda_target() {
        let p = multi_object_instance(60, 3, 0.5, 11);
        assert_eq!(p.num_objects(), 3);
        assert!((p.load_factor() - 0.5).abs() < 0.1);
        // Every object carries demand.
        for object in p.object_ids().collect::<Vec<_>>() {
            assert!(p.object_demand(object) >= 1);
        }
        // Deterministic.
        let q = multi_object_instance(60, 3, 0.5, 11);
        let clients: Vec<_> = p.tree().client_ids().collect();
        for object in p.object_ids().collect::<Vec<_>>() {
            for &c in &clients {
                assert_eq!(p.requests(object, c), q.requests(object, c));
            }
        }
    }

    #[test]
    fn counting_instances_are_homogeneous_with_unit_costs() {
        let p = multi_object_counting_instance(60, 2, 0.4, 11);
        assert_eq!(p.num_objects(), 2);
        let tree = p.tree();
        for node in tree.node_ids().collect::<Vec<_>>() {
            assert_eq!(p.capacity(node), 12);
            for object in p.object_ids().collect::<Vec<_>>() {
                assert_eq!(p.storage_cost(object, node), 1);
            }
        }
        assert!((p.load_factor() - 0.4).abs() < 0.1);
        // Deterministic in the seed.
        let q = multi_object_counting_instance(60, 2, 0.4, 11);
        let clients: Vec<_> = p.tree().client_ids().collect();
        for object in p.object_ids().collect::<Vec<_>>() {
            for &c in &clients {
                assert_eq!(p.requests(object, c), q.requests(object, c));
            }
        }
    }

    #[test]
    fn multi_object_bandwidth_instances_bound_the_shared_links() {
        let p = multi_object_bandwidth_instance(40, 2, 0.4, 17);
        assert!(p.has_bandwidth_limits());
        let tree = p.tree();
        for node in tree.node_ids().collect::<Vec<_>>() {
            let bw = p.bandwidth(LinkId::Node(node));
            if tree.is_root(node) {
                assert_eq!(bw, None);
            } else {
                let combined: u64 = tree
                    .subtree_clients(node)
                    .iter()
                    .map(|&c| p.object_ids().map(|k| p.requests(k, c)).sum::<u64>())
                    .sum();
                assert!(bw.expect("bounded uplink") >= combined);
            }
        }
    }
}
