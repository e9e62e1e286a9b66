//! The outcome of a post-failure repair: full recovery or a verified
//! degraded report.

use rp_tree::ClientId;

use crate::failures::apply::DegradedPlatform;
use crate::policy::Policy;
use crate::solution::{Placement, Violation};

/// A best-effort placement over the surviving platform when full
/// service is infeasible: every client is either served completely or
/// listed as unserved, and [`DegradedPlacement::verify`] checks it on
/// the surviving instance itself, waiving only the listed clients'
/// demand.
#[derive(Clone, Debug)]
pub struct DegradedPlacement {
    /// The partial placement: serves exactly the clients *not* listed
    /// in [`unserved`](DegradedPlacement::unserved).
    pub placement: Placement,
    /// Clients the surviving platform cannot serve, sorted by index.
    pub unserved: Vec<ClientId>,
    /// Requests actually served.
    pub served_requests: u64,
    /// Requests the healthy instance demanded (`Σ r_i`).
    pub total_requests: u64,
    /// Storage cost of the partial placement.
    pub cost: u64,
}

impl DegradedPlacement {
    /// Bookkeeps `placement` against `platform`, with `unserved` (in any
    /// order, duplicates allowed) as the clients it leaves unserved.
    pub fn new(
        platform: &DegradedPlatform,
        placement: Placement,
        mut unserved: Vec<ClientId>,
    ) -> Self {
        let problem = platform.problem();
        unserved.sort();
        unserved.dedup();
        let total_requests = problem.total_requests();
        let lost: u64 = unserved.iter().map(|&c| problem.requests(c)).sum();
        let cost = placement.cost(problem);
        DegradedPlacement {
            placement,
            unserved,
            served_requests: total_requests - lost,
            total_requests,
            cost,
        }
    }

    /// The report that serves nobody: no replica, and every client with
    /// demand listed unserved. It verifies on every platform, so it is
    /// the degraded rung's last resort.
    pub fn serving_nobody(platform: &DegradedPlatform) -> Self {
        let problem = platform.problem();
        let tree = problem.tree();
        let unserved = tree
            .client_ids()
            .filter(|&c| problem.requests(c) > 0)
            .collect();
        DegradedPlacement::new(platform, Placement::empty(tree.num_clients()), unserved)
    }

    /// Fraction of all requests still served, in `[0, 1]` (1.0 for an
    /// instance with no requests at all).
    pub fn served_fraction(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            self.served_requests as f64 / self.total_requests as f64
        }
    }

    /// Checks the report is *correct*: unserved clients have no
    /// assignments, the bookkeeping totals add up, and the placement
    /// validates on the surviving instance
    /// ([`DegradedPlatform::problem`]) with one waiver: the demand of
    /// the clients listed unserved need not be covered.
    ///
    /// This is the one acceptance check of the repair ladder: every
    /// rung's candidate passes it exactly once before
    /// [`repair_ladder`](crate::failures::repair_ladder) returns it.
    pub fn verify(&self, platform: &DegradedPlatform, policy: Policy) -> bool {
        self.check(platform, policy).is_ok()
    }

    /// [`verify`](Self::verify) with the reason it failed: the
    /// placement's violations on the surviving instance less the
    /// `RequestsNotCovered` of the listed clients (the only violation a
    /// client with no assignment can raise), or an empty list when the
    /// bookkeeping is off.
    pub(crate) fn check(
        &self,
        platform: &DegradedPlatform,
        policy: Policy,
    ) -> Result<(), Vec<Violation>> {
        let problem = platform.problem();
        let tree = problem.tree();
        if self
            .unserved
            .iter()
            .any(|&c| !self.placement.assignments(c).is_empty())
        {
            return Err(Vec::new());
        }
        // A mask, not a search of the list: `unserved` is a public field,
        // so it may come unsorted or with repeats.
        let mut is_unserved = vec![false; tree.num_clients()];
        for &client in &self.unserved {
            is_unserved[client.index()] = true;
        }
        let served: u64 = tree
            .client_ids()
            .filter(|c| !is_unserved[c.index()])
            .map(|c| problem.requests(c))
            .sum();
        let total: u64 = tree.client_ids().map(|c| problem.requests(c)).sum();
        if served != self.served_requests || total != self.total_requests {
            return Err(Vec::new());
        }
        if self.cost != self.placement.cost(problem) {
            return Err(Vec::new());
        }
        let Err(violations) = self.placement.validate(problem, policy) else {
            return Ok(());
        };
        let waived = |v: &Violation| match v {
            Violation::RequestsNotCovered { client, .. } => is_unserved[client.index()],
            _ => false,
        };
        let left: Vec<Violation> = violations.0.into_iter().filter(|v| !waived(v)).collect();
        if left.is_empty() {
            Ok(())
        } else {
            Err(left)
        }
    }
}

/// What [`repair_after_failure`](crate::failures::repair_after_failure)
/// produced.
#[derive(Clone, Debug)]
pub enum RepairOutcome {
    /// Every request is served again: a placement fully valid over the
    /// surviving platform.
    Full(Placement),
    /// Full service is not achievable (or not found): the best partial
    /// placement, with the shortfall reported rather than hidden.
    Degraded(DegradedPlacement),
}

impl RepairOutcome {
    /// Whether the repair restored full service.
    pub fn is_full(&self) -> bool {
        matches!(self, RepairOutcome::Full(_))
    }

    /// The (possibly partial) placement.
    pub fn placement(&self) -> &Placement {
        match self {
            RepairOutcome::Full(placement) => placement,
            RepairOutcome::Degraded(report) => &report.placement,
        }
    }

    /// Fraction of requests served: 1.0 for a full repair.
    pub fn served_fraction(&self) -> f64 {
        match self {
            RepairOutcome::Full(_) => 1.0,
            RepairOutcome::Degraded(report) => report.served_fraction(),
        }
    }

    /// Checks the outcome against the surviving platform: a full
    /// placement must validate as-is, a degraded report must
    /// [`verify`](DegradedPlacement::verify).
    pub fn verify(&self, platform: &DegradedPlatform, policy: Policy) -> bool {
        match self {
            RepairOutcome::Full(placement) => placement.is_valid(platform.problem(), policy),
            RepairOutcome::Degraded(report) => report.verify(platform, policy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::apply::apply_failures;
    use crate::failures::event::FailureEvent;
    use crate::problem::ProblemInstance;
    use rp_tree::{LinkId, TreeBuilder};

    #[test]
    fn degraded_report_bookkeeping_is_checked() {
        // root -> {c0 (3), c1 (2)}; cut c0's uplink.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let c0 = b.add_client(root);
        let c1 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree.clone(), vec![3, 2], vec![10]);
        let platform = apply_failures(&p, &[FailureEvent::UplinkDown(LinkId::Client(c0))]);

        let mut placement = Placement::empty(2);
        let root_id = platform.problem().tree().root();
        placement.add_replica(root_id);
        placement.assign(c1, root_id, 2);
        let report = DegradedPlacement {
            placement: placement.clone(),
            unserved: vec![c0],
            served_requests: 2,
            total_requests: 5,
            cost: 10,
        };
        assert!(report.verify(&platform, Policy::Closest));
        assert!((report.served_fraction() - 0.4).abs() < 1e-12);

        // Wrong totals fail the check.
        let mut wrong = report.clone();
        wrong.served_requests = 3;
        assert!(!wrong.verify(&platform, Policy::Closest));

        // An "unserved" client that secretly has assignments fails too.
        let mut sneaky = report.clone();
        sneaky.placement.assign(c0, root_id, 1);
        assert!(!sneaky.verify(&platform, Policy::Closest));

        let outcome = RepairOutcome::Degraded(report);
        assert!(!outcome.is_full());
        assert!((outcome.served_fraction() - 0.4).abs() < 1e-12);
        assert!(outcome.verify(&platform, Policy::Closest));
        assert_eq!(outcome.placement().num_replicas(), 1);

        // `unserved` is a public field: listed unsorted and with a
        // repeat, it must verify exactly as the sorted list does.
        // root -> {c0 (3), c1 (2), c2 (4)}; cut c0's and c2's uplinks.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let c0 = b.add_client(root);
        let c1 = b.add_client(root);
        let c2 = b.add_client(root);
        let p = ProblemInstance::replica_cost(b.build().unwrap(), vec![3, 2, 4], vec![10]);
        let cuts = [c0, c2].map(|c| FailureEvent::UplinkDown(LinkId::Client(c)));
        let platform = apply_failures(&p, &cuts);
        let root_id = platform.problem().tree().root();
        let mut placement = Placement::empty(3);
        placement.add_replica(root_id);
        placement.assign(c1, root_id, 2);
        let sorted = DegradedPlacement {
            placement,
            unserved: vec![c0, c2],
            served_requests: 2,
            total_requests: 9,
            cost: 10,
        };
        let shuffled = DegradedPlacement {
            unserved: vec![c2, c0, c2],
            ..sorted.clone()
        };
        for report in [sorted, shuffled] {
            assert!(report.verify(&platform, Policy::Closest));

            let mut wrong = report.clone();
            wrong.served_requests = 5;
            assert!(!wrong.verify(&platform, Policy::Closest));

            let mut sneaky = report.clone();
            sneaky.placement.assign(c2, root_id, 1);
            assert!(!sneaky.verify(&platform, Policy::Closest));

            // Dropping c0 from the list counts its requests as served.
            let mut short = report.clone();
            short.unserved.retain(|&c| c != c0);
            assert!(!short.verify(&platform, Policy::Closest));
        }
    }

    #[test]
    fn full_outcome_verifies_against_the_surviving_instance() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let c0 = b.add_client(root);
        let tree = b.build().unwrap();
        let p = ProblemInstance::replica_cost(tree, vec![4], vec![10]);
        let platform = apply_failures(
            &p,
            &[FailureEvent::CapacityLoss {
                node: p.tree().root(),
                remaining: 5,
            }],
        );
        let mut placement = Placement::empty(1);
        placement.add_replica(p.tree().root());
        placement.assign(c0, p.tree().root(), 4);
        let outcome = RepairOutcome::Full(placement);
        assert!(outcome.is_full());
        assert_eq!(outcome.served_fraction(), 1.0);
        assert!(outcome.verify(&platform, Policy::Multiple));
    }
}
