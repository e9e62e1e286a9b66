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
use replica_placement::core::failures::{degraded_best_effort, heuristic_fallback};
use replica_placement::core::heuristics::lp_guided::lp_guided_reusing;
use replica_placement::core::ilp::{lower_bound, BoundKind, IlpOptions};
use replica_placement::core::{
    apply_failures, inject_and_repair, repair_after_failure, BandwidthRepair, DegradedPlacement,
    DegradedPlatform, FailureEvent, RecoveryScope, RepairOutcome,
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
    let requests = tree.client_ids().map(|c| problem.requests(c)).collect();
    rebuilt(problem, requests, qos)
}

/// `problem` with new per-client `requests` and QoS bounds; every other
/// parameter carries over.
fn rebuilt(
    problem: &ProblemInstance,
    requests: Vec<u64>,
    qos: Vec<Option<u32>>,
) -> ProblemInstance {
    let tree = problem.tree();
    ProblemInstance::builder(problem.tree_arc())
        .requests(requests)
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

/// The oracle for `DegradedPlacement::verify`: the check it made when
/// it validated on a copy of the surviving instance rebuilt with the
/// unserved clients' requests set to zero, instead of waiving their
/// demand on the instance itself.
fn verifies_on_a_rebuilt_copy(
    report: &DegradedPlacement,
    platform: &DegradedPlatform,
    policy: Policy,
) -> bool {
    let problem = platform.problem();
    let tree = problem.tree();
    let placement = &report.placement;
    if report
        .unserved
        .iter()
        .any(|&c| !placement.assignments(c).is_empty())
    {
        return false;
    }
    let mut requests: Vec<u64> = tree.client_ids().map(|c| problem.requests(c)).collect();
    for &client in &report.unserved {
        requests[client.index()] = 0;
    }
    let served: u64 = requests.iter().sum();
    if served != report.served_requests || problem.total_requests() != report.total_requests {
        return false;
    }
    let qos = tree.client_ids().map(|c| problem.qos(c)).collect();
    let copy = rebuilt(problem, requests, qos);
    report.cost == placement.cost(&copy) && placement.is_valid(&copy, policy)
}

/// Mutations of a verified `report`, each with its bookkeeping redone
/// so that only the validation can catch it: an assignment given to an
/// unserved client, that client dropped from the unserved list, and a
/// served client cut one request short (each where the report has such
/// a client).
fn mutants(report: &DegradedPlacement, platform: &DegradedPlatform) -> Vec<DegradedPlacement> {
    let tree = platform.problem().tree();
    let rebuild = |placement: Placement, unserved: &[ClientId]| {
        DegradedPlacement::new(platform, placement, unserved.to_vec())
    };
    let mut mutants = Vec::new();
    if let Some((&cut, rest)) = report.unserved.split_first() {
        let mut sneaky = report.placement.clone();
        let parent = tree.parent_of_client(cut);
        sneaky.add_replica(parent);
        sneaky.assign(cut, parent, 1);
        mutants.push(rebuild(sneaky, &report.unserved));
        mutants.push(rebuild(report.placement.clone(), rest));
    }
    let served = tree
        .client_ids()
        .find_map(|c| Some((c, report.placement.assignments(c).first()?.server)));
    if let Some((client, server)) = served {
        let mut short = report.placement.clone();
        short.unassign(client, server, 1);
        mutants.push(rebuild(short, &report.unserved));
    }
    mutants
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

    /// A degraded answer is checked on the surviving instance itself,
    /// with only the listed clients' demand waived, and that check
    /// agrees with validating on a copy rebuilt with their requests
    /// zeroed. The reports come from the ladder and from its best-effort
    /// fallback on the platform after every prefix of a random trace
    /// (bandwidths on a third of the instances, QoS bounds on half),
    /// plus three mutations of each: an assignment given to an unserved
    /// client, a served client cut one request short, and an unserved
    /// client dropped from the list (its bookkeeping redone, so that
    /// only the validation can catch it).
    #[test]
    fn a_degraded_check_on_the_surviving_instance_matches_a_rebuilt_copy(
        instance_seed in 0u64..1_000_000,
        trace_seed in 0u64..1_000_000,
        trace_len in 1usize..=6,
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
            for heuristic in Heuristic::BASE {
                let Some(placement) = BandwidthRepair(heuristic).run(&problem) else {
                    continue;
                };
                let policy = heuristic.policy();
                let answer = match repair_after_failure(&platform, &placement, policy) {
                    RepairOutcome::Degraded(report) => report,
                    RepairOutcome::Full(placement) => {
                        DegradedPlacement::new(&platform, placement, Vec::new())
                    }
                };
                let mut reports = vec![answer];
                reports.extend(degraded_best_effort(&platform, policy));
                for report in reports {
                    prop_assert!(report.verify(&platform, policy), "{heuristic:?}");
                    for case in mutants(&report, &platform).into_iter().chain([report]) {
                        let oracle = verifies_on_a_rebuilt_copy(&case, &platform, policy);
                        prop_assert_eq!(
                            case.verify(&platform, policy),
                            oracle,
                            "{:?} after {:?}: {:?}",
                            heuristic,
                            &events[..prefix],
                            case
                        );
                    }
                }
            }
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
