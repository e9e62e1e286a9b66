//! Seeded failure-trace generators for the chaos and resilience sweeps.
//!
//! Every generator is a pure function of a single `u64` seed (via the
//! same `StdRng::seed_from_u64` idiom the platform generators use), so
//! a chaos run is reproducible from the one number printed in its
//! report. Node, link and event-kind choices are uniform unless noted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::{FailureEvent, ProblemInstance};
use rp_tree::{ClientId, LinkId, NodeId, TreeNetwork};

/// Draws a uniformly random **single server crash** from `seed`.
pub fn sample_node_failure(problem: &ProblemInstance, seed: u64) -> FailureEvent {
    let mut rng = StdRng::seed_from_u64(seed);
    FailureEvent::ServerCrash(random_node(problem.tree(), &mut rng))
}

/// Draws a uniformly random **single link failure** from `seed`: any
/// client uplink or non-root node uplink. (Degenerate trees without a
/// single severable link fall back to crashing the root.)
pub fn sample_link_failure(problem: &ProblemInstance, seed: u64) -> FailureEvent {
    let mut rng = StdRng::seed_from_u64(seed);
    match random_link(problem.tree(), &mut rng) {
        Some(link) => FailureEvent::UplinkDown(link),
        None => FailureEvent::ServerCrash(problem.tree().root()),
    }
}

/// Generates a mixed failure trace of `len` events from `seed`: each
/// event is independently a server crash, a link failure, a capacity
/// loss (to a uniformly drawn fraction of the node's current capacity)
/// or a correlated subtree failure of a non-root node.
pub fn failure_trace(problem: &ProblemInstance, len: usize, seed: u64) -> Vec<FailureEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| sample_failure(problem, &mut rng))
        .collect()
}

/// One event of the mixed kinds [`failure_trace`] draws, from `rng`.
pub(crate) fn sample_failure<R: Rng>(problem: &ProblemInstance, rng: &mut R) -> FailureEvent {
    let tree = problem.tree();
    match rng.gen_range(0..4u32) {
        0 => FailureEvent::ServerCrash(random_node(tree, rng)),
        1 => match random_link(tree, rng) {
            Some(link) => FailureEvent::UplinkDown(link),
            None => FailureEvent::ServerCrash(tree.root()),
        },
        2 => {
            let node = random_node(tree, rng);
            let capacity = problem.capacity(node);
            FailureEvent::CapacityLoss {
                node,
                remaining: if capacity == 0 {
                    0
                } else {
                    rng.gen_range(0..capacity)
                },
            }
        }
        _ => match random_non_root_node(tree, rng) {
            // Subtree failure of the root would erase the platform;
            // model correlated failures below it instead.
            Some(node) => FailureEvent::SubtreeFailure(node),
            None => FailureEvent::ServerCrash(tree.root()),
        },
    }
}

pub(crate) fn random_node<R: Rng>(tree: &TreeNetwork, rng: &mut R) -> NodeId {
    NodeId::from_index(rng.gen_range(0..tree.num_nodes()))
}

fn random_non_root_node<R: Rng>(tree: &TreeNetwork, rng: &mut R) -> Option<NodeId> {
    let candidates: Vec<NodeId> = tree.node_ids().filter(|&n| !tree.is_root(n)).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

fn random_link<R: Rng>(tree: &TreeNetwork, rng: &mut R) -> Option<LinkId> {
    let clients = tree.num_clients();
    let uplinks = tree.num_nodes().saturating_sub(1);
    let total = clients + uplinks;
    if total == 0 {
        return None;
    }
    let pick = rng.gen_range(0..total);
    if pick < clients {
        Some(LinkId::Client(ClientId::from_index(pick)))
    } else {
        let candidates: Vec<NodeId> = tree.node_ids().filter(|&n| !tree.is_root(n)).collect();
        Some(LinkId::Node(candidates[pick - clients]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{generate_problem, PlatformKind, WorkloadConfig};
    use crate::tree_gen::{generate_tree, TreeGenConfig, TreeShape};

    fn sample_problem() -> ProblemInstance {
        let tree = generate_tree(
            &TreeGenConfig::with_problem_size(60, TreeShape::RandomAttachment),
            11,
        );
        generate_problem(
            tree,
            &WorkloadConfig::new(PlatformKind::default_heterogeneous(), 0.4),
            13,
        )
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let p = sample_problem();
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(sample_node_failure(&p, seed), sample_node_failure(&p, seed));
            assert_eq!(sample_link_failure(&p, seed), sample_link_failure(&p, seed));
            assert_eq!(failure_trace(&p, 6, seed), failure_trace(&p, 6, seed));
        }
        // And different seeds do explore different failures.
        let distinct: std::collections::HashSet<String> = (0..32)
            .map(|seed| format!("{:?}", sample_node_failure(&p, seed)))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn sampled_failures_name_real_platform_elements() {
        let p = sample_problem();
        let tree = p.tree();
        for seed in 0..64u64 {
            match sample_node_failure(&p, seed) {
                FailureEvent::ServerCrash(node) => assert!(node.index() < tree.num_nodes()),
                other => panic!("unexpected event {other:?}"),
            }
            match sample_link_failure(&p, seed) {
                FailureEvent::UplinkDown(LinkId::Client(c)) => {
                    assert!(c.index() < tree.num_clients())
                }
                FailureEvent::UplinkDown(LinkId::Node(n)) => {
                    assert!(n.index() < tree.num_nodes());
                    assert!(!tree.is_root(n));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_traces_cover_every_event_kind() {
        let p = sample_problem();
        let kinds: std::collections::HashSet<&'static str> = (0..40u64)
            .flat_map(|seed| failure_trace(&p, 4, seed))
            .map(|e| e.kind_name())
            .collect();
        assert!(kinds.contains("server-crash"));
        assert!(kinds.contains("uplink-down"));
        assert!(kinds.contains("capacity-loss"));
        assert!(kinds.contains("subtree-failure"));
        // Capacity losses always degrade below the current capacity,
        // and subtree failures never name the root.
        for seed in 0..40u64 {
            for event in failure_trace(&p, 4, seed) {
                match event {
                    FailureEvent::CapacityLoss { node, remaining } => {
                        assert!(remaining < p.capacity(node))
                    }
                    FailureEvent::SubtreeFailure(node) => assert!(!p.tree().is_root(node)),
                    _ => {}
                }
            }
        }
    }
}
