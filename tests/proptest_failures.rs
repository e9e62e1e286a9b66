//! Property-based fault injection: under arbitrary failure traces on
//! randomized instances, the repair pipeline must always return a
//! machine-checkable outcome — a placement fully valid over the
//! surviving platform, or a degraded report whose served set is
//! genuinely servable. Never an invalid answer, never a panic. The
//! batch fold and the online engine's fold must agree event for event.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use replica_placement::core::bounds::multiple_is_feasible;
use replica_placement::core::failures::heuristic_fallback;
use replica_placement::core::heuristics::lp_guided::lp_guided_reusing;
use replica_placement::core::ilp::{lower_bound, BoundKind, IlpOptions};
use replica_placement::core::{
    apply_failures, inject_and_repair, repair_after_failure, FailureEvent, RecoveryScope,
    RepairOutcome,
};
use replica_placement::lp::{LpWorkspace, SolveBudget};
use replica_placement::prelude::*;
use replica_placement::tree::LinkId;
use replica_placement::workloads::failures::failure_trace;
use replica_placement::workloads::scenarios::attach_link_bandwidths;
use replica_placement::workloads::{generate_problem, generate_tree};

/// A random instance from one seed: tree shape, platform family and
/// load factor all derive from it (same construction as the
/// cross-validation suite, sized so a case stays in microseconds).
fn instance_from_seed(seed: u64) -> ProblemInstance {
    let num_nodes = 2 + (seed % 6) as usize;
    let num_clients = 2 + ((seed >> 8) % 7) as usize;
    let tree = generate_tree(
        &TreeGenConfig {
            num_nodes,
            num_clients,
            shape: TreeShape::RandomAttachment,
        },
        seed,
    );
    let platform = if seed.is_multiple_of(2) {
        PlatformKind::Homogeneous {
            capacity: 3 + (seed >> 16) % 10,
        }
    } else {
        PlatformKind::HeterogeneousUniform { min: 2, max: 12 }
    };
    let lambda = 0.2 + ((seed >> 24) % 90) as f64 / 100.0;
    generate_problem(tree, &WorkloadConfig::new(platform, lambda), seed ^ 0x5555)
}

/// `problem` with a QoS bound of 1–3 hops on about half of the clients.
fn with_qos(problem: &ProblemInstance, seed: u64) -> ProblemInstance {
    let tree = problem.tree();
    let mut rng = StdRng::seed_from_u64(seed);
    let qos: Vec<Option<u32>> = tree
        .client_ids()
        .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(1..=3u32)))
        .collect();
    ProblemInstance::builder(problem.tree_arc())
        .requests(tree.client_ids().map(|c| problem.requests(c)).collect())
        .capacities(tree.node_ids().map(|n| problem.capacity(n)).collect())
        .storage_costs(tree.node_ids().map(|n| problem.storage_cost(n)).collect())
        .qos(qos)
        .client_link_bandwidths(
            tree.client_ids()
                .map(|c| problem.bandwidth(LinkId::Client(c)))
                .collect(),
        )
        .node_link_bandwidths(
            tree.node_ids()
                .map(|n| problem.bandwidth(LinkId::Node(n)))
                .collect(),
        )
        .kind(problem.kind())
        .build()
}

/// A random failure sequence over every event kind, recoveries of
/// every scope included (the root's uplink, which does not exist, too).
fn failures_with_recoveries(tree: &TreeNetwork, len: usize, seed: u64) -> Vec<FailureEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let link = |rng: &mut StdRng| {
        if rng.gen_range(0..2u32) == 0 {
            LinkId::Client(ClientId::from_index(rng.gen_range(0..tree.num_clients())))
        } else {
            LinkId::Node(NodeId::from_index(rng.gen_range(0..tree.num_nodes())))
        }
    };
    (0..len)
        .map(|_| {
            let node = NodeId::from_index(rng.gen_range(0..tree.num_nodes()));
            match rng.gen_range(0..8u32) {
                0 => FailureEvent::ServerCrash(node),
                1 => FailureEvent::UplinkDown(link(&mut rng)),
                2 => FailureEvent::CapacityLoss {
                    node,
                    remaining: rng.gen_range(0..12u64),
                },
                3 => FailureEvent::SubtreeFailure(node),
                4 => FailureEvent::Recovered(RecoveryScope::Server(node)),
                5 => FailureEvent::Recovered(RecoveryScope::Link(link(&mut rng))),
                6 => FailureEvent::Recovered(RecoveryScope::Subtree(node)),
                _ => FailureEvent::Recovered(RecoveryScope::All),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One fold: `apply_failures` on a whole trace and an engine fed the
    /// same events one delta at a time reach the same platform — every
    /// node's capacity, every link's bandwidth and every dead flag.
    #[test]
    fn batch_and_engine_folds_agree(
        instance_seed in 0u64..1_000_000,
        trace_seed in 0u64..1_000_000,
        trace_len in 1usize..=16,
    ) {
        let mut problem = instance_from_seed(instance_seed);
        if instance_seed % 3 == 0 {
            problem = attach_link_bandwidths(&problem, (0.5, 1.5), instance_seed);
        }
        let tree = problem.tree();
        let events = failures_with_recoveries(tree, trace_len, trace_seed);
        let mut engine = PlacementEngine::new(problem.clone(), Policy::Multiple);
        for &event in &events {
            engine.apply(event.into(), SolveBudget::UNLIMITED);
        }
        let batch = apply_failures(&problem, &events);
        let live = engine.platform();
        for node in tree.node_ids() {
            let link = LinkId::Node(node);
            prop_assert_eq!(batch.problem().capacity(node), live.problem().capacity(node));
            prop_assert_eq!(batch.problem().bandwidth(link), live.problem().bandwidth(link));
            prop_assert_eq!(batch.is_server_dead(node), live.is_server_dead(node));
            prop_assert_eq!(batch.is_link_dead(link), live.is_link_dead(link));
        }
        for client in tree.client_ids() {
            let link = LinkId::Client(client);
            prop_assert_eq!(batch.problem().bandwidth(link), live.problem().bandwidth(link));
            prop_assert_eq!(batch.is_link_dead(link), live.is_link_dead(link));
        }
    }

    /// The repair ladder's skip is sound: while a client with demand is
    /// unservable, rungs 2 and 3 have nothing to find. On the platform
    /// after every prefix of a random trace, `is_servable` agrees with
    /// its definition checked server by server and link by link
    /// (`path_is_alive`), and where it leaves a client with demand
    /// unservable, no policy's re-run returns a placement and the
    /// LP-guided rounding returns none valid on the surviving instance
    /// (under Multiple, which every other policy's placements satisfy
    /// too). So going straight to the degraded rung changes no answer.
    #[test]
    fn an_unservable_client_leaves_the_full_service_rungs_nothing(
        instance_seed in 0u64..1_000_000,
        trace_seed in 0u64..1_000_000,
        trace_len in 1usize..=8,
    ) {
        let mut problem = instance_from_seed(instance_seed);
        if instance_seed % 3 == 0 {
            problem = attach_link_bandwidths(&problem, (0.5, 1.5), instance_seed);
        }
        let tree = problem.tree();
        let events = failures_with_recoveries(tree, trace_len, trace_seed);
        for prefix in 1..=events.len() {
            let platform = apply_failures(&problem, &events[..prefix]);
            let survivors = platform.problem();
            for client in tree.client_ids() {
                let reachable = survivors.requests(client) > 0
                    && !platform.is_link_dead(LinkId::Client(client))
                    && survivors.eligible_servers(client).any(|server| {
                        survivors.capacity(server) > 0 && platform.path_is_alive(client, server)
                    });
                prop_assert_eq!(platform.is_servable(client), reachable, "{:?}", client);
            }
            let demanding = |c: &ClientId| survivors.requests(*c) > 0;
            let Some(cut) = tree
                .client_ids()
                .filter(demanding)
                .find(|&c| !platform.is_servable(c))
            else {
                continue;
            };
            for policy in Policy::ALL {
                prop_assert!(
                    heuristic_fallback(&platform, policy).is_none(),
                    "{policy}: a re-run served {cut:?} after {:?}",
                    &events[..prefix]
                );
            }
            let rounded =
                lp_guided_reusing(survivors, &IlpOptions::default(), &mut LpWorkspace::new());
            prop_assert!(
                rounded.is_none_or(|p| !p.is_valid(survivors, Policy::Multiple)),
                "the LP rung served {cut:?} after {:?}",
                &events[..prefix]
            );
        }
    }

    /// The ladder's second proof is exact and sound: on the platform
    /// after every prefix of a random trace (with link bandwidths on a
    /// third of the instances and QoS bounds on half),
    /// `multiple_is_feasible` holds exactly when the rational Multiple
    /// relaxation of the surviving instance has an optimum, fails
    /// whenever a client with demand is unservable, and where it fails
    /// no policy's re-run returns a placement and the LP-guided rounding
    /// returns none. So skipping rungs 2 and 3 on it changes no answer.
    #[test]
    fn an_infeasible_platform_leaves_the_full_service_rungs_nothing(
        instance_seed in 0u64..1_000_000,
        trace_seed in 0u64..1_000_000,
        trace_len in 1usize..=8,
    ) {
        let mut problem = instance_from_seed(instance_seed);
        if instance_seed % 3 == 0 {
            problem = attach_link_bandwidths(&problem, (0.5, 1.5), instance_seed);
        }
        if trace_seed % 2 == 0 {
            problem = with_qos(&problem, trace_seed);
        }
        let tree = problem.tree();
        let events = failures_with_recoveries(tree, trace_len, trace_seed);
        for prefix in 1..=events.len() {
            let platform = apply_failures(&problem, &events[..prefix]);
            let survivors = platform.problem();
            let feasible = multiple_is_feasible(survivors);
            let relaxed = lower_bound(survivors, BoundKind::Rational).is_some();
            prop_assert_eq!(feasible, relaxed, "after {:?}", &events[..prefix]);
            let cut = tree
                .client_ids()
                .any(|c| survivors.requests(c) > 0 && !platform.is_servable(c));
            prop_assert!(!(cut && feasible), "after {:?}", &events[..prefix]);
            if feasible {
                continue;
            }
            for policy in Policy::ALL {
                prop_assert!(
                    heuristic_fallback(&platform, policy).is_none(),
                    "{policy}: a re-run served everyone after {:?}",
                    &events[..prefix]
                );
            }
            let rounded =
                lp_guided_reusing(survivors, &IlpOptions::default(), &mut LpWorkspace::new());
            prop_assert!(rounded.is_none(), "after {:?}", &events[..prefix]);
        }
    }

    /// The headline property: for every policy whose heuristics can
    /// place the healthy instance, injecting an arbitrary trace of up
    /// to four failures yields an outcome that passes its machine
    /// check — full placements validate as-is, degraded reports have a
    /// servable served-set and consistent bookkeeping.
    #[test]
    fn repair_outcomes_always_verify(
        instance_seed in 0u64..1_000_000,
        trace_seed in 0u64..1_000_000,
        trace_len in 1usize..=4,
    ) {
        let problem = instance_from_seed(instance_seed);
        let events = failure_trace(&problem, trace_len, trace_seed);
        for heuristic in Heuristic::ALL {
            let Some(placement) = heuristic.run(&problem) else {
                continue;
            };
            let policy = heuristic.policy();
            let (platform, outcome) =
                inject_and_repair(&problem, &placement, policy, &events);
            prop_assert!(
                outcome.verify(&platform, policy),
                "{heuristic:?} under {events:?}"
            );
            let fraction = outcome.served_fraction();
            prop_assert!((0.0..=1.0).contains(&fraction));
            if outcome.is_full() {
                prop_assert_eq!(fraction, 1.0);
            }
        }
    }

    /// An empty failure trace is a no-op: the pre-failure placement is
    /// still valid, so the repair must restore full service (and the
    /// surgical path must not have degraded anything).
    #[test]
    fn no_failures_always_repairs_fully(instance_seed in 0u64..1_000_000) {
        let problem = instance_from_seed(instance_seed);
        let platform = apply_failures(&problem, &[]);
        for heuristic in Heuristic::ALL {
            let Some(placement) = heuristic.run(&problem) else {
                continue;
            };
            let policy = heuristic.policy();
            let outcome = repair_after_failure(&platform, &placement, policy);
            prop_assert!(outcome.is_full(), "{heuristic:?}");
            prop_assert!(outcome.verify(&platform, policy), "{heuristic:?}");
        }
    }

    /// Killing every server leaves nothing servable: the outcome must
    /// degrade to the (vacuously valid) empty report rather than fail.
    #[test]
    fn total_loss_degrades_to_an_empty_verified_report(
        instance_seed in 0u64..1_000_000,
    ) {
        let problem = instance_from_seed(instance_seed);
        let events = [FailureEvent::SubtreeFailure(problem.tree().root())];
        for heuristic in Heuristic::ALL {
            let Some(placement) = heuristic.run(&problem) else {
                continue;
            };
            let policy = heuristic.policy();
            let (platform, outcome) =
                inject_and_repair(&problem, &placement, policy, &events);
            prop_assert!(outcome.verify(&platform, policy), "{heuristic:?}");
            match outcome {
                RepairOutcome::Degraded(report) => {
                    prop_assert_eq!(report.served_requests, 0, "{:?}", heuristic);
                    prop_assert_eq!(report.placement.num_replicas(), 0, "{:?}", heuristic);
                }
                RepairOutcome::Full(_) => {
                    // Only possible when no client has any requests.
                    let total: u64 = problem
                        .tree()
                        .client_ids()
                        .map(|c| problem.requests(c))
                        .sum();
                    prop_assert_eq!(total, 0, "{:?}", heuristic);
                }
            }
        }
    }
}
