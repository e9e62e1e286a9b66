//! The eight polynomial heuristics of Section 6, plus *MixedBest*.
//!
//! | Heuristic | Policy | Strategy |
//! |-----------|--------|----------|
//! | [`ctda`]  | Closest | repeated breadth-first passes, every fitting node becomes a server |
//! | [`ctdlf`] | Closest | breadth-first, heaviest subtree first, one server per pass |
//! | [`cbu`]   | Closest | single bottom-up pass |
//! | [`utd`]   | Upwards | exhausted nodes top-down, then a top-down mop-up pass |
//! | [`ubcf`]  | Upwards | clients by decreasing size, best-fit ancestor |
//! | [`mtd`]   | Multiple | exhausted nodes top-down with client splitting |
//! | [`mbu`]   | Multiple | exhausted nodes bottom-up, small clients first |
//! | [`mg`]    | Multiple | greedy bottom-up sweep (never misses a feasible instance) |
//! | [`mixed_best`] | Multiple | best of all eight |
//!
//! All heuristics return `None` when they fail to produce a valid
//! solution; a placement they return is always valid for their policy
//! (and therefore for every less constrained policy).
//!
//! Beyond the paper's eight, [`lp_guided`] adds an **LP-guided rounding
//! & repair** subsystem that covers the problem variants the classic
//! heuristics cannot see (link bandwidths, multiple objects): solve the
//! rational relaxation, round its fractional optimum under exact
//! capacity/bandwidth accounting, repair and prune. See the
//! [`lp_guided`] module docs for the pipeline and for when it beats the
//! classic eight; [`MixedBest::full_sweep_lp_guided`] runs both worlds
//! and keeps the cheapest placement.

mod closest;
pub mod lp_guided;
mod multiple;
mod state;
mod upwards;

pub use closest::{cbu, ctda, ctdlf};
pub use lp_guided::{
    lp_guided as lp_guided_round, lp_guided_multi, repair_bandwidth, BandwidthRepair,
};
pub use multiple::{mbu, mg, mtd};
pub use state::{DeleteOrder, HeuristicState, StateBuffers};
pub use upwards::{ubcf, utd};

use crate::policy::Policy;
use crate::problem::ProblemInstance;
use crate::solution::Placement;

/// Identifier of one of the paper's heuristics (plus MixedBest).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Heuristic {
    /// Closest Top Down All.
    Ctda,
    /// Closest Top Down Largest First.
    Ctdlf,
    /// Closest Bottom Up.
    Cbu,
    /// Upwards Top Down.
    Utd,
    /// Upwards Big Client First.
    Ubcf,
    /// Multiple Top Down.
    Mtd,
    /// Multiple Bottom Up.
    Mbu,
    /// Multiple Greedy.
    Mg,
    /// Best solution of all eight heuristics (valid under Multiple).
    MixedBest,
}

impl Heuristic {
    /// The eight base heuristics, in the order used by the paper's plots.
    pub const BASE: [Heuristic; 8] = [
        Heuristic::Ctda,
        Heuristic::Ctdlf,
        Heuristic::Cbu,
        Heuristic::Utd,
        Heuristic::Ubcf,
        Heuristic::Mg,
        Heuristic::Mtd,
        Heuristic::Mbu,
    ];

    /// The eight base heuristics plus MixedBest.
    pub const ALL: [Heuristic; 9] = [
        Heuristic::Ctda,
        Heuristic::Ctdlf,
        Heuristic::Cbu,
        Heuristic::Utd,
        Heuristic::Ubcf,
        Heuristic::Mg,
        Heuristic::Mtd,
        Heuristic::Mbu,
        Heuristic::MixedBest,
    ];

    /// The full name used in the paper's figures.
    pub fn full_name(self) -> &'static str {
        match self {
            Heuristic::Ctda => "ClosestTopDownAll",
            Heuristic::Ctdlf => "ClosestTopDownLargestFirst",
            Heuristic::Cbu => "ClosestBottomUp",
            Heuristic::Utd => "UpwardsTopDown",
            Heuristic::Ubcf => "UpwardsBigClientFirst",
            Heuristic::Mtd => "MultipleTopDown",
            Heuristic::Mbu => "MultipleBottomUp",
            Heuristic::Mg => "MultipleGreedy",
            Heuristic::MixedBest => "MixedBest",
        }
    }

    /// The short acronym used in the paper's text.
    pub fn acronym(self) -> &'static str {
        match self {
            Heuristic::Ctda => "CTDA",
            Heuristic::Ctdlf => "CTDLF",
            Heuristic::Cbu => "CBU",
            Heuristic::Utd => "UTD",
            Heuristic::Ubcf => "UBCF",
            Heuristic::Mtd => "MTD",
            Heuristic::Mbu => "MBU",
            Heuristic::Mg => "MG",
            Heuristic::MixedBest => "MB",
        }
    }

    /// The access policy whose rules the heuristic's solutions obey.
    pub fn policy(self) -> Policy {
        match self {
            Heuristic::Ctda | Heuristic::Ctdlf | Heuristic::Cbu => Policy::Closest,
            Heuristic::Utd | Heuristic::Ubcf => Policy::Upwards,
            Heuristic::Mtd | Heuristic::Mbu | Heuristic::Mg | Heuristic::MixedBest => {
                Policy::Multiple
            }
        }
    }

    /// Runs the heuristic on `problem`.
    pub fn run(self, problem: &ProblemInstance) -> Option<Placement> {
        match self {
            Heuristic::MixedBest => mixed_best(problem),
            base => {
                let mut state = HeuristicState::new(problem);
                base.run_with(&mut state);
                state.into_solution()
            }
        }
    }

    /// Runs one of the eight **base** heuristics on an existing (freshly
    /// created or [`reset`](HeuristicState::reset)) state, reusing every
    /// buffer the state owns; returns `true` when the heuristic served
    /// all requests. This is the allocation-free path that MixedBest and
    /// the sweep harness drive.
    ///
    /// # Panics
    ///
    /// Panics on [`Heuristic::MixedBest`], which composes the base
    /// heuristics and cannot run on a single shared state.
    pub fn run_with(self, state: &mut HeuristicState<'_>) -> bool {
        let _span = rp_obs::span_labeled(rp_obs::SpanKind::HeuristicRun, self.acronym());
        rp_obs::incr(rp_obs::Counter::CoreHeuristicRuns);
        let served = match self {
            Heuristic::Ctda => closest::ctda_on(state),
            Heuristic::Ctdlf => closest::ctdlf_on(state),
            Heuristic::Cbu => closest::cbu_on(state),
            Heuristic::Utd => upwards::utd_on(state),
            Heuristic::Ubcf => upwards::ubcf_on(state),
            Heuristic::Mtd => multiple::mtd_on(state),
            Heuristic::Mbu => multiple::mbu_on(state),
            Heuristic::Mg => multiple::mg_on(state),
            Heuristic::MixedBest => {
                panic!("MixedBest composes the base heuristics; use Heuristic::run")
            }
        };
        if !served {
            rp_obs::incr(rp_obs::Counter::CoreHeuristicFailures);
        }
        served
    }
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.acronym())
    }
}

/// Pooled driver for the *MixedBest* (MB) meta-heuristic: runs all
/// eight base heuristics and keeps the cheapest valid solution.
///
/// The struct owns two long-lived allocation sets — the
/// [`StateBuffers`] the heuristics run on and the incumbent
/// [`Placement`] — so [`full_sweep`](MixedBest::full_sweep) performs no
/// steady-state heap allocation: buffers and assignment lists only grow
/// on the first encounter with a larger problem, and the incumbent is
/// updated in place with [`Placement::copy_from`] instead of being
/// cloned per improvement. A caller that runs MixedBest on many
/// problems keeps one driver (`allocs/full_sweep_pooled/*` in
/// `BENCH_baseline.json` measures the O(1) claim). The experiment
/// runner needs no driver: it already has the eight base costs of a
/// trial and takes their minimum.
#[derive(Default)]
pub struct MixedBest {
    buffers: StateBuffers,
    incumbent: Placement,
}

impl MixedBest {
    /// A fresh driver with empty pools.
    pub fn new() -> Self {
        MixedBest::default()
    }

    /// Runs all eight base heuristics on `problem` and returns the
    /// cheapest valid placement (by reference into the pooled
    /// incumbent), or `None` when every heuristic fails — which, since
    /// MG never misses a feasible instance, means the instance is
    /// infeasible under Multiple.
    pub fn full_sweep(&mut self, problem: &ProblemInstance) -> Option<&Placement> {
        let mut buffers = std::mem::take(&mut self.buffers);
        let found = self.sweep_into(problem, &mut buffers);
        self.buffers = buffers;
        if found {
            Some(&self.incumbent)
        } else {
            None
        }
    }

    /// [`full_sweep`](MixedBest::full_sweep) on caller-provided
    /// [`StateBuffers`], so a worker that also runs single heuristics
    /// shares **one** allocation set between those runs and the
    /// MixedBest sweep (the driver's own pool stays untouched).
    pub fn full_sweep_reusing(
        &mut self,
        problem: &ProblemInstance,
        buffers: &mut StateBuffers,
    ) -> Option<&Placement> {
        if self.sweep_into(problem, buffers) {
            Some(&self.incumbent)
        } else {
            None
        }
    }

    /// The LP-guided sweep: runs the eight classic heuristics —
    /// bandwidth-repaired ([`BandwidthRepair`]) when the instance
    /// bounds its links — **plus** the LP-guided rounding candidate
    /// ([`lp_guided::lp_guided`]), and keeps the cheapest placement
    /// (each candidate valid under its own policy, so the winner is
    /// valid under Multiple).
    ///
    /// On bandwidth-constrained and heterogeneous instances the
    /// LP-guided candidate frequently wins, while on easy capacity-only
    /// instances the classic eight cost nothing extra and usually tie
    /// it. The LP solve reuses `workspace` so repeated calls over
    /// sibling instances warm-start. (The scenario sweep in
    /// `rp-experiments` runs the same two ensembles but keeps their
    /// costs *separate* for its per-candidate table columns, so it does
    /// not go through this combined method.)
    pub fn full_sweep_lp_guided(
        &mut self,
        problem: &ProblemInstance,
        options: &crate::ilp::IlpOptions,
        workspace: &mut rp_lp::LpWorkspace,
    ) -> Option<&Placement> {
        let mut best_cost: Option<u64> = None;
        for heuristic in Heuristic::BASE {
            if let Some(placement) = BandwidthRepair(heuristic).run(problem) {
                let cost = placement.cost(problem);
                if best_cost.map(|b| cost < b).unwrap_or(true) {
                    best_cost = Some(cost);
                    self.incumbent.copy_from(&placement);
                }
            }
        }
        if let Some(placement) = lp_guided::lp_guided_reusing(problem, options, workspace) {
            let cost = placement.cost(problem);
            if best_cost.map(|b| cost < b).unwrap_or(true) {
                best_cost = Some(cost);
                self.incumbent.copy_from(&placement);
            }
        }
        if best_cost.is_some() {
            Some(&self.incumbent)
        } else {
            None
        }
    }

    /// Shared sweep body: runs the eight heuristics on `buffers`,
    /// leaving the cheapest placement in `self.incumbent`. Returns
    /// `true` when at least one heuristic served every request.
    fn sweep_into(&mut self, problem: &ProblemInstance, buffers: &mut StateBuffers) -> bool {
        let mut state = HeuristicState::with_buffers(problem, std::mem::take(buffers));
        let mut best_cost: Option<u64> = None;
        let mut first = true;
        for heuristic in Heuristic::BASE {
            if !first {
                state.reset();
            }
            first = false;
            if heuristic.run_with(&mut state) {
                let cost = state.current_cost();
                if best_cost.map(|b| cost < b).unwrap_or(true) {
                    best_cost = Some(cost);
                    self.incumbent.copy_from(state.placement());
                }
            }
        }
        *buffers = state.into_buffers();
        best_cost.is_some()
    }
}

/// *MixedBest* (MB): runs all eight base heuristics and keeps the
/// cheapest valid solution. Since any Closest or Upwards solution is
/// also a Multiple solution, the result is always valid under Multiple;
/// and because MG never misses a feasible instance, neither does
/// MixedBest (Section 7.3).
///
/// One-shot convenience over the pooled [`MixedBest`] driver (keep a
/// driver instead to amortise every allocation across problems).
pub fn mixed_best(problem: &ProblemInstance) -> Option<Placement> {
    MixedBest::new().full_sweep(problem).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

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
    fn metadata_is_consistent() {
        assert_eq!(Heuristic::ALL.len(), 9);
        assert_eq!(Heuristic::BASE.len(), 8);
        for h in Heuristic::ALL {
            assert!(!h.full_name().is_empty());
            assert!(!h.acronym().is_empty());
            assert_eq!(h.to_string(), h.acronym());
        }
        assert_eq!(Heuristic::Ctda.policy(), Policy::Closest);
        assert_eq!(Heuristic::Ubcf.policy(), Policy::Upwards);
        assert_eq!(Heuristic::Mg.policy(), Policy::Multiple);
        assert_eq!(Heuristic::MixedBest.policy(), Policy::Multiple);
    }

    #[test]
    fn every_heuristic_returns_a_valid_placement_or_none() {
        let p = small_instance();
        for h in Heuristic::ALL {
            if let Some(placement) = h.run(&p) {
                assert!(
                    placement.is_valid(&p, h.policy()),
                    "{h} produced an invalid placement"
                );
            }
        }
    }

    #[test]
    fn mixed_best_is_at_least_as_good_as_every_base_heuristic() {
        let p = small_instance();
        let best = mixed_best(&p).expect("MG guarantees a solution here");
        let best_cost = best.cost(&p);
        for h in Heuristic::BASE {
            if let Some(placement) = h.run(&p) {
                assert!(best_cost <= placement.cost(&p), "{h}");
            }
        }
    }

    #[test]
    fn mixed_best_succeeds_whenever_mg_does() {
        let p = small_instance();
        assert_eq!(mg(&p).is_some(), mixed_best(&p).is_some());
    }

    #[test]
    fn lp_guided_sweep_never_loses_to_the_classic_sweep() {
        // Without bandwidth limits, the LP-guided sweep runs the same
        // eight classics plus one more candidate: it can only improve.
        let p = small_instance();
        let mut driver = MixedBest::new();
        let classic = driver.full_sweep(&p).map(|pl| pl.cost(&p)).unwrap();
        let mut workspace = rp_lp::LpWorkspace::new();
        let options = crate::ilp::IlpOptions::default();
        let guided = driver
            .full_sweep_lp_guided(&p, &options, &mut workspace)
            .expect("feasible");
        assert!(guided.is_valid(&p, Policy::Multiple));
        assert!(guided.cost(&p) <= classic);

        // On a bandwidth-bound instance the classics alone violate the
        // link; the LP-guided sweep must still hand back a placement
        // that respects it. (root W=s=10 -> mid W=s=3, one 4-request
        // client, uplink bw 2: the only valid shape splits 2/2.)
        let mut b = rp_tree::TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let bounded = ProblemInstance::builder(b.build().unwrap())
            .requests(vec![4])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .node_link_bandwidths(vec![None, Some(2)])
            .build();
        let placement = driver
            .full_sweep_lp_guided(&bounded, &options, &mut workspace)
            .expect("feasible under Multiple with the split");
        assert!(placement.is_valid(&bounded, Policy::Multiple));
        assert_eq!(placement.cost(&bounded), 13);
    }

    #[test]
    fn pooled_full_sweep_matches_the_one_shot_api_across_problems() {
        // One pooled driver reused over differently sized problems must
        // return exactly what fresh runs return — including after an
        // infeasible instance.
        let mut driver = MixedBest::new();
        let p1 = small_instance();
        let fresh = mixed_best(&p1);
        let pooled = driver.full_sweep(&p1).cloned();
        assert_eq!(
            fresh.as_ref().map(|pl| pl.cost(&p1)),
            pooled.as_ref().map(|pl| pl.cost(&p1))
        );
        assert_eq!(fresh, pooled);

        // A larger tree next: buffers must regrow transparently.
        let mut b = rp_tree::TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let low = b.add_node(mid);
        b.add_clients(low, 5);
        b.add_clients(mid, 3);
        b.add_client(root);
        let p2 = ProblemInstance::replica_cost(
            b.build().unwrap(),
            vec![2, 3, 1, 4, 2, 5, 1, 3, 2],
            vec![12, 9, 8],
        );
        assert_eq!(mixed_best(&p2), driver.full_sweep(&p2).cloned());

        // Infeasible: pooled driver must report None and stay usable.
        let mut b = rp_tree::TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        let infeasible = ProblemInstance::replica_counting(b.build().unwrap(), vec![100], 2);
        assert!(driver.full_sweep(&infeasible).is_none());
        assert_eq!(mixed_best(&p1), driver.full_sweep(&p1).cloned());
    }

    #[test]
    fn heuristics_respect_qos_bounds() {
        // root -> mid -> low -> {c0 (2 req, q = 1), c1 (1 req, no QoS)};
        // root -> c2 (1 req, q = 1). W = 2 everywhere.
        // c0 can only be served at `low`, c2 only at the root.
        let mut b = rp_tree::TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        let low = b.add_node(mid);
        b.add_client(low);
        b.add_client(low);
        b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![2, 1, 1])
            .capacities(vec![2, 2, 2])
            .storage_costs(vec![1, 1, 1])
            .qos(vec![Some(1), None, Some(1)])
            .build();
        for h in Heuristic::ALL {
            if let Some(placement) = h.run(&p) {
                assert!(
                    placement.is_valid(&p, h.policy()),
                    "{h} violated QoS: {:?}",
                    placement.validate(&p, h.policy())
                );
            }
        }
        // MG must find the feasible solution (low serves c0, mid or low
        // serves c1, root serves c2).
        let greedy = mg(&p).expect("feasible under Multiple");
        assert!(greedy.is_valid(&p, Policy::Multiple));
    }

    #[test]
    fn qos_infeasible_instances_fail_cleanly() {
        // A client that cannot reach any server with enough capacity.
        let mut b = rp_tree::TreeBuilder::new();
        let root = b.add_root();
        let mid = b.add_node(root);
        b.add_client(mid);
        let tree = b.build().unwrap();
        let p = ProblemInstance::builder(tree)
            .requests(vec![5])
            .capacities(vec![10, 3])
            .storage_costs(vec![10, 3])
            .qos(vec![Some(1)])
            .build();
        for h in Heuristic::ALL {
            assert!(
                h.run(&p).is_none(),
                "{h} should fail on a QoS-infeasible instance"
            );
        }
    }

    #[test]
    fn run_dispatches_to_the_matching_free_function() {
        let p = small_instance();
        assert_eq!(
            Heuristic::Cbu.run(&p).map(|pl| pl.cost(&p)),
            cbu(&p).map(|pl| pl.cost(&p))
        );
        assert_eq!(
            Heuristic::Ubcf.run(&p).map(|pl| pl.cost(&p)),
            ubcf(&p).map(|pl| pl.cost(&p))
        );
        assert_eq!(
            Heuristic::Mg.run(&p).map(|pl| pl.cost(&p)),
            mg(&p).map(|pl| pl.cost(&p))
        );
    }
}
