//! Platform (server capacity) and request-load generation.
//!
//! The paper's experimental plan (Section 7.2) is parameterised by the
//! load factor `λ = Σ r_i / Σ W_j`; for a target λ this module draws
//! node capacities (homogeneous or heterogeneous) and client request
//! counts whose totals hit the target closely.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::{ProblemInstance, ProblemKind};
use rp_tree::TreeNetwork;

use std::sync::Arc;

/// How server capacities are drawn.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PlatformKind {
    /// Every node gets the same capacity (Replica Counting experiments).
    Homogeneous {
        /// The shared capacity `W`.
        capacity: u64,
    },
    /// Capacities drawn uniformly from `[min, max]` (Replica Cost
    /// experiments, with `s_j = W_j`).
    HeterogeneousUniform {
        /// Smallest possible capacity.
        min: u64,
        /// Largest possible capacity.
        max: u64,
    },
}

impl PlatformKind {
    /// The defaults used by the experiment harness: `W = 100` for the
    /// homogeneous platform.
    pub fn default_homogeneous() -> Self {
        PlatformKind::Homogeneous { capacity: 100 }
    }

    /// The defaults used by the experiment harness: capacities uniform
    /// in `[50, 150]` for the heterogeneous platform (same mean as the
    /// homogeneous one, so the two experiments are comparable).
    pub fn default_heterogeneous() -> Self {
        PlatformKind::HeterogeneousUniform { min: 50, max: 150 }
    }
}

/// Parameters of a generated problem instance (given a tree).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Server capacity model.
    pub platform: PlatformKind,
    /// Target load factor `λ`.
    pub lambda: f64,
    /// Optional uniform QoS bound (hops) applied to every client.
    pub qos_hops: Option<u32>,
}

impl WorkloadConfig {
    /// A no-QoS workload with the given platform and load factor.
    pub fn new(platform: PlatformKind, lambda: f64) -> Self {
        WorkloadConfig {
            platform,
            lambda,
            qos_hops: None,
        }
    }
}

/// The paper's largest problem size: `s = |C| + |N| = 400` (Section 7.2
/// sweeps 15 ≤ s ≤ 400). The revised-simplex LP engine is what makes
/// the LP lower bound tractable at this scale.
pub const PAPER_SCALE_S: usize = 400;

/// Generates a full **paper-scale** instance: a random-attachment tree
/// of problem size [`PAPER_SCALE_S`] decorated with the given platform
/// at load factor `lambda`, deterministically in `seed`. This is the
/// instance family of the `s = 400` sweep scenario and of the perf
/// gate's `s400_bound_ms` entry.
pub fn paper_scale_instance(platform: PlatformKind, lambda: f64, seed: u64) -> ProblemInstance {
    paper_scale_instance_sized(PAPER_SCALE_S, platform, lambda, seed)
}

/// [`paper_scale_instance`] with an explicit problem size (useful for
/// scaling studies below and beyond `s = 400`).
pub fn paper_scale_instance_sized(
    problem_size: usize,
    platform: PlatformKind,
    lambda: f64,
    seed: u64,
) -> ProblemInstance {
    use crate::tree_gen::{generate_tree, TreeGenConfig, TreeShape};
    let tree = generate_tree(
        &TreeGenConfig::with_problem_size(problem_size, TreeShape::RandomAttachment),
        seed,
    );
    generate_problem(tree, &WorkloadConfig::new(platform, lambda), seed ^ 0x5CA1E)
}

/// Decorates `tree` with capacities and requests matching `config`,
/// deterministically in `seed`.
pub fn generate_problem(
    tree: impl Into<Arc<TreeNetwork>>,
    config: &WorkloadConfig,
    seed: u64,
) -> ProblemInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    generate_problem_with_rng(tree, config, &mut rng)
}

/// [`generate_problem`] with an externally managed RNG: the platform
/// draw ([`draw_capacities`]) and then the demand draw
/// ([`draw_demand`]), both from `rng`.
pub fn generate_problem_with_rng<R: Rng>(
    tree: impl Into<Arc<TreeNetwork>>,
    config: &WorkloadConfig,
    rng: &mut R,
) -> ProblemInstance {
    let tree: Arc<TreeNetwork> = tree.into();
    let capacities = draw_capacities(&tree, config.platform, rng);
    draw_demand(tree, config, capacities, rng)
}

/// The **platform draw**, the λ-independent half of a generated
/// instance: one capacity per node of `tree` under `platform` (which
/// also decides the storage costs, see [`draw_demand`]). A homogeneous
/// platform consumes nothing from `rng`.
///
/// The sweep runner draws it from a stream keyed to the tree alone and
/// the demand from one keyed to the (tree, λ) pair, so sibling trials
/// of one tree under different load factors share their platform and
/// their **entire constraint matrix** (only right-hand sides and bounds
/// differ). A worker therefore draws the platform once per tree and
/// re-draws only the demand for each further λ.
pub fn draw_capacities<R: Rng>(
    tree: &TreeNetwork,
    platform: PlatformKind,
    rng: &mut R,
) -> Vec<u64> {
    match platform {
        PlatformKind::Homogeneous { capacity } => vec![capacity; tree.num_nodes()],
        PlatformKind::HeterogeneousUniform { min, max } => {
            assert!(min <= max, "capacity range must be ordered");
            (0..tree.num_nodes())
                .map(|_| rng.gen_range(min..=max))
                .collect()
        }
    }
}

/// The **demand draw**, the λ-dependent half of a generated instance:
/// client requests totalling `config.lambda` times the platform's
/// capacity, drawn from `rng`, assembled with `capacities` (as drawn by
/// [`draw_capacities`] for `config.platform`) into the instance. The
/// storage costs follow the platform: unit costs on a homogeneous one
/// (Replica Counting), `s_j = W_j` on a heterogeneous one (Replica
/// Cost); `config.qos_hops` applies to every client.
pub fn draw_demand<R: Rng>(
    tree: impl Into<Arc<TreeNetwork>>,
    config: &WorkloadConfig,
    capacities: Vec<u64>,
    rng: &mut R,
) -> ProblemInstance {
    let tree: Arc<TreeNetwork> = tree.into();
    assert!(config.lambda > 0.0, "the load factor must be positive");
    let total_capacity: u64 = capacities.iter().sum();

    // Requests: draw each client's share uniformly in (0, 2], then scale
    // so that the total matches λ · ΣW as closely as integer rounding
    // allows (each client issues at least one request).
    let num_clients = tree.num_clients();
    let target_total = (config.lambda * total_capacity as f64).round().max(1.0);
    let weights: Vec<f64> = (0..num_clients)
        .map(|_| rng.gen_range(0.05..=1.0))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let mut requests: Vec<u64> = weights
        .iter()
        .map(|w| ((w / weight_sum) * target_total).round().max(1.0) as u64)
        .collect();

    // Fix rounding drift so Σ r_i is exactly the target when possible.
    let mut drift = requests.iter().sum::<u64>() as i64 - target_total as i64;
    let mut index = 0usize;
    while drift != 0 && num_clients > 0 {
        let slot = index % num_clients;
        if drift > 0 {
            if requests[slot] > 1 {
                requests[slot] -= 1;
                drift -= 1;
            }
        } else {
            requests[slot] += 1;
            drift += 1;
        }
        index += 1;
        if index > 10 * num_clients.max(1) && drift > 0 {
            // Every client is already at the minimum of one request.
            break;
        }
    }

    let kind = match config.platform {
        PlatformKind::Homogeneous { .. } => ProblemKind::ReplicaCounting,
        PlatformKind::HeterogeneousUniform { .. } => ProblemKind::ReplicaCost,
    };
    let storage_costs = match kind {
        // The paper minimises the *number* of replicas on homogeneous
        // platforms; unit costs express exactly that.
        ProblemKind::ReplicaCounting => vec![1; tree.num_nodes()],
        ProblemKind::ReplicaCost => capacities.clone(),
    };

    let mut builder = ProblemInstance::builder(tree)
        .requests(requests)
        .capacities(capacities)
        .storage_costs(storage_costs)
        .kind(kind);
    if let Some(hops) = config.qos_hops {
        builder = builder.uniform_qos(hops);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_gen::{generate_tree, TreeGenConfig, TreeShape};

    fn sample_tree() -> TreeNetwork {
        generate_tree(
            &TreeGenConfig::with_problem_size(60, TreeShape::RandomAttachment),
            99,
        )
    }

    #[test]
    fn homogeneous_platform_hits_the_target_lambda() {
        let tree = sample_tree();
        for lambda in [0.1, 0.5, 0.9] {
            let config = WorkloadConfig::new(PlatformKind::default_homogeneous(), lambda);
            let p = generate_problem(tree.clone(), &config, 7);
            assert!(p.is_homogeneous());
            assert_eq!(p.kind(), ProblemKind::ReplicaCounting);
            let achieved = p.load_factor();
            assert!(
                (achieved - lambda).abs() < 0.05,
                "target λ={lambda}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn heterogeneous_platform_hits_the_target_lambda() {
        let tree = sample_tree();
        for lambda in [0.2, 0.6] {
            let config = WorkloadConfig::new(PlatformKind::default_heterogeneous(), lambda);
            let p = generate_problem(tree.clone(), &config, 11);
            assert_eq!(p.kind(), ProblemKind::ReplicaCost);
            let achieved = p.load_factor();
            assert!(
                (achieved - lambda).abs() < 0.05,
                "target λ={lambda}, achieved {achieved}"
            );
            // Capacities within the configured range, cost = capacity.
            for node in p.tree().node_ids().collect::<Vec<_>>() {
                assert!(p.capacity(node) >= 50 && p.capacity(node) <= 150);
                assert_eq!(p.capacity(node), p.storage_cost(node));
            }
        }
    }

    #[test]
    fn homogeneous_counting_instances_have_unit_costs() {
        let tree = sample_tree();
        let config = WorkloadConfig::new(PlatformKind::default_homogeneous(), 0.4);
        let p = generate_problem(tree, &config, 3);
        for node in p.tree().node_ids().collect::<Vec<_>>() {
            assert_eq!(p.storage_cost(node), 1);
        }
    }

    #[test]
    fn every_client_issues_at_least_one_request() {
        let tree = sample_tree();
        let config = WorkloadConfig::new(PlatformKind::default_homogeneous(), 0.1);
        let p = generate_problem(tree, &config, 5);
        for client in p.tree().client_ids().collect::<Vec<_>>() {
            assert!(p.requests(client) >= 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let tree = sample_tree();
        let config = WorkloadConfig::new(PlatformKind::default_heterogeneous(), 0.5);
        let a = generate_problem(tree.clone(), &config, 21);
        let b = generate_problem(tree.clone(), &config, 21);
        let clients: Vec<_> = a.tree().client_ids().collect();
        for &c in &clients {
            assert_eq!(a.requests(c), b.requests(c));
        }
        for n in a.tree().node_ids().collect::<Vec<_>>() {
            assert_eq!(a.capacity(n), b.capacity(n));
        }
    }

    #[test]
    fn qos_option_is_applied_uniformly() {
        let tree = sample_tree();
        let config = WorkloadConfig {
            platform: PlatformKind::default_homogeneous(),
            lambda: 0.3,
            qos_hops: Some(3),
        };
        let p = generate_problem(tree, &config, 17);
        assert!(p.has_qos());
        for client in p.tree().client_ids().collect::<Vec<_>>() {
            assert_eq!(p.qos(client), Some(3));
        }
    }

    #[test]
    fn paper_scale_instances_have_the_paper_size() {
        let p = paper_scale_instance(PlatformKind::default_heterogeneous(), 0.5, 42);
        assert_eq!(p.tree().problem_size(), PAPER_SCALE_S);
        assert!((p.load_factor() - 0.5).abs() < 0.05);
        let small = paper_scale_instance_sized(60, PlatformKind::default_homogeneous(), 0.3, 7);
        assert_eq!(small.tree().problem_size(), 60);
    }

    #[test]
    #[should_panic(expected = "load factor must be positive")]
    fn zero_lambda_is_rejected() {
        let tree = sample_tree();
        let config = WorkloadConfig::new(PlatformKind::default_homogeneous(), 0.0);
        let _ = generate_problem(tree, &config, 0);
    }
}
