//! The [`PlacementEngine`] itself: live state, the apply path, the
//! budget, rollback and deferral around `rp-core`'s repair ladder. See
//! the crate docs for the contract.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use rp_core::failures::{
    degraded_best_effort, heuristic_fallback, repair_ladder, ApplyRung, DegradedPlacement,
    DegradedPlatform, FailureState,
};
use rp_core::{DirtyRegion, InstanceDelta, Policy, ProblemInstance};
use rp_lp::{LpWorkspace, SolveBudget};

/// How thoroughly the engine checks its answers. Every mode now
/// verifies every answer exactly once, in release builds too: the
/// repair ladder accepts a candidate only after
/// [`DegradedPlacement::verify`] passes it, and an apply whose ladder
/// accepts nothing rolls back and defers the delta. The enum stays so
/// that [`PlacementEngine::with_paranoia`]'s callers keep building.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Paranoia {
    /// Every answer is verified once, by the ladder.
    #[default]
    DebugOnly,
    /// The same as [`Paranoia::DebugOnly`]: a second check of an
    /// answer the ladder verified would repeat the same work.
    Full,
}

/// What one [`PlacementEngine::apply`] call did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApplyOutcome {
    /// The delta is absorbed and every request is served; the incumbent
    /// advanced to `generation`.
    Applied {
        /// The incumbent generation after the apply.
        generation: u64,
        /// The ladder rung that produced the placement.
        rung: ApplyRung,
    },
    /// The delta is absorbed but full service is infeasible (or was not
    /// found in budget): the incumbent is a verified partial placement.
    Degraded {
        /// The incumbent generation after the apply.
        generation: u64,
        /// The ladder rung that produced the placement.
        rung: ApplyRung,
        /// How many clients the incumbent leaves unserved.
        unserved: usize,
    },
    /// No rung produced a verified answer (the budget expired first, or
    /// no candidate passed its check): the engine **rolled back** to
    /// the previous incumbent and queued the delta for
    /// [`PlacementEngine::retry_deferred`]. This is the backpressure
    /// signal.
    Deferred,
}

impl ApplyOutcome {
    /// Whether the delta was deferred (rolled back, queued).
    pub fn is_deferred(&self) -> bool {
        matches!(self, ApplyOutcome::Deferred)
    }

    /// The ladder rung that answered, if the delta was absorbed.
    pub fn rung(&self) -> Option<ApplyRung> {
        match *self {
            ApplyOutcome::Applied { rung, .. } | ApplyOutcome::Degraded { rung, .. } => Some(rung),
            ApplyOutcome::Deferred => None,
        }
    }

    /// The incumbent generation after the apply, if it advanced.
    pub fn generation(&self) -> Option<u64> {
        match *self {
            ApplyOutcome::Applied { generation, .. }
            | ApplyOutcome::Degraded { generation, .. } => Some(generation),
            ApplyOutcome::Deferred => None,
        }
    }
}

/// Engine-local tallies of which ladder rung answered each absorbed
/// apply (the same events also land in the global `rp-obs` counters;
/// these are per-engine and deterministic under parallel tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RungCounts {
    /// Applies answered by the surgical rung.
    pub surgical: u64,
    /// Applies answered by the LP-guided rung.
    pub lp_repair: u64,
    /// Applies answered by a full heuristic re-run.
    pub rerun: u64,
    /// Applies answered with a verified degraded placement.
    pub degraded: u64,
}

impl RungCounts {
    /// Total absorbed applies.
    pub fn total(&self) -> u64 {
        self.surgical + self.lp_repair + self.rerun + self.degraded
    }

    fn record(&mut self, rung: ApplyRung) {
        match rung {
            ApplyRung::Surgical => self.surgical += 1,
            ApplyRung::LpRepair => self.lp_repair += 1,
            ApplyRung::Rerun => self.rerun += 1,
            ApplyRung::Degraded => self.degraded += 1,
        }
    }
}

/// The mutable engine state that a snapshot must capture. The incumbent
/// rides behind an [`Arc`], so cloning this is O(s) vector copies plus
/// one reference-count bump — never a placement deep-copy.
#[derive(Clone)]
struct EngineState {
    /// Current request volume per client slot (0 = absent).
    requests: Vec<u64>,
    /// Current *healthy* capacity per node (the `CapacityChanged`
    /// axis, independent of failures).
    healthy_capacities: Vec<u64>,
    /// The outstanding failures.
    failures: FailureState,
    /// The last verified incumbent (copy-on-write).
    incumbent: Arc<DegradedPlacement>,
}

impl EngineState {
    /// The current platform: the failures applied to the current
    /// demand and healthy capacities.
    fn platform(&self, pristine: &ProblemInstance) -> DegradedPlatform {
        self.failures
            .platform(pristine, &self.requests, &self.healthy_capacities)
    }
}

/// A replayable snapshot of the engine: the full state plus the
/// generation counter. Produced by [`PlacementEngine::checkpoint`],
/// consumed by [`PlacementEngine::restore`]. Replaying the same delta
/// trace with the same budgets from a restored checkpoint reproduces
/// the same sequence of incumbents and generations.
#[derive(Clone)]
pub struct EngineCheckpoint {
    state: EngineState,
    generation: u64,
}

impl EngineCheckpoint {
    /// The generation the checkpoint was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A long-lived placement service over one (topologically fixed) tree:
/// owns the live instance and a verified incumbent placement, and
/// absorbs [`InstanceDelta`]s under a per-delta [`SolveBudget`]. See
/// the crate docs for the ladder and the rollback contract.
pub struct PlacementEngine {
    /// The instance the engine was built from — the source of truth for
    /// pristine capacities, storage costs, QoS bounds and bandwidths.
    pristine: ProblemInstance,
    policy: Policy,
    state: EngineState,
    /// The current platform, rebuilt from `state` after every ingest
    /// (and after every rollback) — always consistent with `state`.
    platform: DegradedPlatform,
    generation: u64,
    deferred: VecDeque<InstanceDelta>,
    dirty: DirtyRegion,
    workspace: LpWorkspace,
    rung_counts: RungCounts,
}

impl PlacementEngine {
    /// Builds an engine over `problem` and solves the initial instance
    /// (full heuristics, falling back to a verified degraded placement
    /// if full service is infeasible from the start). Generation 0 is
    /// that initial incumbent.
    pub fn new(problem: ProblemInstance, policy: Policy) -> Self {
        let tree = problem.tree();
        let requests: Vec<u64> = tree.client_ids().map(|c| problem.requests(c)).collect();
        let healthy_capacities: Vec<u64> = tree.node_ids().map(|n| problem.capacity(n)).collect();
        let failures = FailureState::healthy(tree);
        let platform = failures.platform(&problem, &requests, &healthy_capacities);
        let incumbent = match heuristic_fallback(&platform, policy) {
            Some(placement) => DegradedPlacement::new(&platform, placement, Vec::new()),
            None => degraded_best_effort(&platform, policy)
                .unwrap_or_else(|| DegradedPlacement::serving_nobody(&platform)),
        };
        let dirty = DirtyRegion::for_tree(tree);
        let engine = PlacementEngine {
            pristine: problem,
            policy,
            state: EngineState {
                requests,
                healthy_capacities,
                failures,
                incumbent: Arc::new(incumbent),
            },
            platform,
            generation: 0,
            deferred: VecDeque::new(),
            dirty,
            workspace: LpWorkspace::new(),
            rung_counts: RungCounts::default(),
        };
        debug_assert!(engine.verify_incumbent());
        engine
    }

    /// Sets the paranoia level (builder-style). Every [`Paranoia`] mode
    /// verifies every answer once, so this changes nothing; it stays so
    /// that callers naming a mode keep building.
    pub fn with_paranoia(self, _paranoia: Paranoia) -> Self {
        self
    }

    /// The policy the engine serves under.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The pristine (healthy, initial) instance.
    pub fn pristine(&self) -> &ProblemInstance {
        &self.pristine
    }

    /// The current surviving platform (current demand, effective
    /// capacities, dead links encoded as zero bandwidth).
    pub fn platform(&self) -> &DegradedPlatform {
        &self.platform
    }

    /// The current instance (shorthand for `platform().problem()`).
    pub fn problem(&self) -> &ProblemInstance {
        self.platform.problem()
    }

    /// The current verified incumbent.
    pub fn incumbent(&self) -> &DegradedPlacement {
        &self.state.incumbent
    }

    /// The incumbent generation: 0 for the initial solve, +1 per
    /// absorbed apply. Deferred applies do not advance it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the incumbent serves every request of the current
    /// instance.
    pub fn is_fully_served(&self) -> bool {
        self.state.incumbent.unserved.is_empty()
    }

    /// Number of deltas waiting in the deferred (backpressure) queue.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Engine-local per-rung apply tallies.
    pub fn rung_counts(&self) -> RungCounts {
        self.rung_counts
    }

    /// Re-runs the full machine check of the incumbent against the
    /// current platform. The ladder already verified the incumbent once
    /// before the engine installed it, so this is for harnesses that
    /// check the engine from outside (the chaos tests call it after
    /// every apply); the apply path never calls it.
    pub fn verify_incumbent(&self) -> bool {
        self.state.incumbent.verify(&self.platform, self.policy)
    }

    /// Takes a replayable snapshot of the engine (O(s) + one Arc bump).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            state: self.state.clone(),
            generation: self.generation,
        }
    }

    /// Restores a snapshot taken by [`checkpoint`](Self::checkpoint):
    /// state, incumbent and generation return to the checkpointed
    /// values; the deferred queue is cleared (the checkpoint's trace
    /// suffix is expected to be replayed).
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint) {
        self.state = checkpoint.state.clone();
        self.generation = checkpoint.generation;
        self.platform = self.state.platform(&self.pristine);
        self.deferred.clear();
        self.dirty.clear();
        rp_obs::gauge_set(rp_obs::Gauge::OnlineGeneration, self.generation);
    }

    /// Absorbs one delta within `budget`. On success the incumbent
    /// advances one generation and the outcome names the ladder rung
    /// that answered; the ladder verified that answer once. When no
    /// rung produced a verified answer (a budget miss) the engine rolls
    /// back to the pre-apply incumbent and queues the delta
    /// ([`ApplyOutcome::Deferred`]).
    pub fn apply(&mut self, delta: InstanceDelta, budget: SolveBudget) -> ApplyOutcome {
        let _span = rp_obs::span(rp_obs::SpanKind::OnlineApply);
        rp_obs::incr(rp_obs::Counter::OnlineApplies);
        let deadline = budget.deadline.map(|d| Instant::now() + d);
        let snapshot = self.state.clone();
        let snapshot_generation = self.generation;

        self.dirty.clear();
        self.ingest(delta);
        self.platform = self.state.platform(&self.pristine);

        // Clients the previous incumbent left unserved always rejoin the
        // dirty set: any heal may make them servable again.
        for &client in &self.state.incumbent.unserved {
            self.dirty.mark_client(self.pristine.tree(), client);
        }
        let answer = repair_ladder(
            &self.platform,
            &self.state.incumbent.placement,
            self.dirty.dirty_clients(),
            self.policy,
            deadline,
            budget,
            &mut self.workspace,
        );
        match answer {
            Some((report, rung)) => {
                let unserved = report.unserved.len();
                self.state.incumbent = Arc::new(report);
                self.generation += 1;
                rp_obs::gauge_set(rp_obs::Gauge::OnlineGeneration, self.generation);
                rung.record(unserved);
                self.rung_counts.record(rung);
                if unserved == 0 {
                    ApplyOutcome::Applied {
                        generation: self.generation,
                        rung,
                    }
                } else {
                    ApplyOutcome::Degraded {
                        generation: self.generation,
                        rung,
                        unserved,
                    }
                }
            }
            None => {
                self.rollback(snapshot, snapshot_generation, delta);
                ApplyOutcome::Deferred
            }
        }
    }

    /// Replays the deferred queue, each delta under its own `budget`.
    /// Deltas that miss again re-enter the queue (the queue is drained
    /// first, so one call retries each entry exactly once).
    pub fn retry_deferred(&mut self, budget: SolveBudget) -> Vec<ApplyOutcome> {
        let pending: Vec<InstanceDelta> = self.deferred.drain(..).collect();
        pending
            .into_iter()
            .map(|delta| self.apply(delta, budget))
            .collect()
    }

    /// Restores the pre-apply snapshot and queues the delta.
    fn rollback(&mut self, snapshot: EngineState, generation: u64, delta: InstanceDelta) {
        self.state = snapshot;
        self.generation = generation;
        self.platform = self.state.platform(&self.pristine);
        self.deferred.push_back(delta);
        rp_obs::incr(rp_obs::Counter::OnlineRollbacks);
        rp_obs::incr(rp_obs::Counter::OnlineDeferred);
        rp_obs::note_anomaly(rp_obs::AnomalyKind::Rollback);
        debug_assert!(self.verify_incumbent(), "rollback left a broken incumbent");
    }

    /// Folds one delta into the engine state and marks the dirty
    /// region it can affect.
    fn ingest(&mut self, delta: InstanceDelta) {
        let tree = self.pristine.tree();
        match delta {
            InstanceDelta::ClientArrived { client, requests }
            | InstanceDelta::DemandChanged { client, requests } => {
                self.state.requests[client.index()] = requests;
            }
            InstanceDelta::ClientDeparted { client } => self.state.requests[client.index()] = 0,
            InstanceDelta::CapacityChanged { node, capacity } => {
                self.state.healthy_capacities[node.index()] = capacity;
            }
            InstanceDelta::Failure(event) => self.state.failures.fold(tree, event),
        }
        self.dirty.mark_delta(tree, delta);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use rp_core::failures::{FailureEvent, RecoveryScope};
    use rp_core::Placement;
    use rp_tree::{ClientId, NodeId, TreeBuilder};
    use std::time::Duration;

    /// root(W=10) -> mid(W=5) -> {c0: 4, c1: 2}; root -> c2: 3.
    fn sample() -> (ProblemInstance, Vec<NodeId>, Vec<ClientId>) {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let c0 = b.add_client(mid);
        let c1 = b.add_client(mid);
        let c2 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![4, 2, 3], vec![10, 5]);
        (p, vec![root, mid], vec![c0, c1, c2])
    }

    #[test]
    fn engine_starts_with_a_verified_full_incumbent() {
        let (p, _, _) = sample();
        for policy in Policy::ALL {
            let engine = PlacementEngine::new(p.clone(), policy);
            assert!(engine.verify_incumbent(), "{policy}");
            assert!(engine.is_fully_served(), "{policy}");
            assert_eq!(engine.generation(), 0, "{policy}");
        }
    }

    #[test]
    fn demand_drift_is_absorbed_surgically() {
        let (p, _, c) = sample();
        for policy in Policy::ALL {
            let mut engine = PlacementEngine::new(p.clone(), policy);
            let outcome = engine.apply(
                InstanceDelta::DemandChanged {
                    client: c[0],
                    requests: 3,
                },
                SolveBudget::UNLIMITED,
            );
            assert_eq!(outcome.rung(), Some(ApplyRung::Surgical), "{policy}");
            assert_eq!(outcome.generation(), Some(1), "{policy}");
            assert!(engine.verify_incumbent(), "{policy}");
            assert!(engine.is_fully_served(), "{policy}");
            assert_eq!(engine.problem().requests(c[0]), 3, "{policy}");
        }
    }

    #[test]
    fn crash_and_recovery_round_trip() {
        let (p, n, _) = sample();
        for policy in Policy::ALL {
            let mut engine = PlacementEngine::new(p.clone(), policy).with_paranoia(Paranoia::Full);
            let crash = engine.apply(
                FailureEvent::ServerCrash(n[1]).into(),
                SolveBudget::UNLIMITED,
            );
            assert!(!crash.is_deferred(), "{policy}");
            assert!(engine.verify_incumbent(), "{policy}");
            // Root capacity 10 covers all 9 requests: still full.
            assert!(engine.is_fully_served(), "{policy}");

            let heal = engine.apply(
                FailureEvent::Recovered(RecoveryScope::Server(n[1])).into(),
                SolveBudget::UNLIMITED,
            );
            assert!(!heal.is_deferred(), "{policy}");
            assert!(engine.verify_incumbent(), "{policy}");
            assert!(engine.is_fully_served(), "{policy}");
            assert_eq!(engine.problem().capacity(n[1]), 5, "{policy}");
            assert_eq!(engine.generation(), 2, "{policy}");
        }
    }

    #[test]
    fn zero_budget_defers_and_rolls_back_bit_identically() {
        let (p, n, _) = sample();
        let mut engine = PlacementEngine::new(p, Policy::Upwards);
        let before = engine.incumbent().placement.clone();
        let outcome = engine.apply(
            FailureEvent::ServerCrash(n[0]).into(),
            SolveBudget::with_deadline(Duration::ZERO),
        );
        assert!(outcome.is_deferred());
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.deferred_len(), 1);
        assert_eq!(engine.incumbent().placement, before);
        assert!(engine.verify_incumbent());
        // The platform rolled back too: the root is alive again.
        assert!(!engine.platform().is_server_dead(n[0]));

        // With a real budget the deferred delta is absorbed.
        let retried = engine.retry_deferred(SolveBudget::UNLIMITED);
        assert_eq!(retried.len(), 1);
        assert!(!retried[0].is_deferred());
        assert_eq!(engine.deferred_len(), 0);
        assert!(engine.verify_incumbent());
    }

    #[test]
    fn departure_frees_capacity_for_a_later_arrival() {
        let (p, _, c) = sample();
        let mut engine = PlacementEngine::new(p, Policy::Multiple);
        let gone = engine.apply(
            InstanceDelta::ClientDeparted { client: c[0] },
            SolveBudget::UNLIMITED,
        );
        assert!(!gone.is_deferred());
        assert_eq!(engine.problem().requests(c[0]), 0);
        assert!(engine.incumbent().placement.assignments(c[0]).is_empty());

        let back = engine.apply(
            InstanceDelta::ClientArrived {
                client: c[0],
                requests: 6,
            },
            SolveBudget::UNLIMITED,
        );
        assert!(!back.is_deferred());
        assert!(engine.verify_incumbent());
        assert!(engine.is_fully_served());
        assert_eq!(engine.incumbent().placement.assigned_requests(c[0]), 6);
    }

    #[test]
    fn overload_degrades_then_recovers_when_demand_drops() {
        let (p, _, c) = sample();
        let mut engine = PlacementEngine::new(p, Policy::Upwards).with_paranoia(Paranoia::Full);
        // 40 requests cannot fit in 15 total capacity.
        let spike = engine.apply(
            InstanceDelta::DemandChanged {
                client: c[2],
                requests: 40,
            },
            SolveBudget::UNLIMITED,
        );
        match spike {
            ApplyOutcome::Degraded { unserved, .. } => assert!(unserved >= 1),
            other => panic!("expected a degraded outcome, got {other:?}"),
        }
        assert!(engine.verify_incumbent());
        assert!(!engine.is_fully_served());

        // Dropping back restores full service (the unserved client is
        // re-marked dirty on every apply).
        let calm = engine.apply(
            InstanceDelta::DemandChanged {
                client: c[2],
                requests: 3,
            },
            SolveBudget::UNLIMITED,
        );
        assert!(!calm.is_deferred());
        assert!(engine.is_fully_served());
        assert!(engine.verify_incumbent());
    }

    #[test]
    fn capacity_reprovision_sheds_and_rehomes() {
        let (p, n, _) = sample();
        for policy in Policy::ALL {
            let mut engine = PlacementEngine::new(p.clone(), policy).with_paranoia(Paranoia::Full);
            // Mid shrinks to 2: at most 2 of its 6 subtree requests stay.
            let outcome = engine.apply(
                InstanceDelta::CapacityChanged {
                    node: n[1],
                    capacity: 2,
                },
                SolveBudget::UNLIMITED,
            );
            assert!(!outcome.is_deferred(), "{policy}");
            assert!(engine.verify_incumbent(), "{policy}");
            assert!(engine.is_fully_served(), "{policy}");
            assert_eq!(engine.problem().capacity(n[1]), 2, "{policy}");
        }
    }

    #[test]
    fn checkpoint_replay_reproduces_generations_and_placements() {
        let (p, n, c) = sample();
        let mut engine = PlacementEngine::new(p, Policy::Closest);
        let trace = [
            InstanceDelta::DemandChanged {
                client: c[1],
                requests: 4,
            },
            InstanceDelta::Failure(FailureEvent::ServerCrash(n[1])),
            InstanceDelta::Failure(FailureEvent::Recovered(RecoveryScope::Server(n[1]))),
            InstanceDelta::ClientDeparted { client: c[0] },
        ];
        let checkpoint = engine.checkpoint();
        let first: Vec<(u64, Placement)> = trace
            .iter()
            .map(|&delta| {
                engine.apply(delta, SolveBudget::UNLIMITED);
                (engine.generation(), engine.incumbent().placement.clone())
            })
            .collect();
        engine.restore(&checkpoint);
        assert_eq!(engine.generation(), checkpoint.generation());
        let second: Vec<(u64, Placement)> = trace
            .iter()
            .map(|&delta| {
                engine.apply(delta, SolveBudget::UNLIMITED);
                (engine.generation(), engine.incumbent().placement.clone())
            })
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn rung_counts_tally_absorbed_applies() {
        let (p, _, c) = sample();
        let mut engine = PlacementEngine::new(p, Policy::Upwards);
        engine.apply(
            InstanceDelta::DemandChanged {
                client: c[0],
                requests: 1,
            },
            SolveBudget::UNLIMITED,
        );
        engine.apply(
            InstanceDelta::DemandChanged {
                client: c[0],
                requests: 4,
            },
            SolveBudget::UNLIMITED,
        );
        let counts = engine.rung_counts();
        assert_eq!(counts.total(), 2);
        assert!(counts.surgical >= 1);
    }
}
