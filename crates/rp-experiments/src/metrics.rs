//! Per-trial measurements and the paper's aggregate metrics.
//!
//! Section 7.2 defines two quantities, both reported per load factor λ:
//!
//! * the **percentage of success** — the fraction of generated trees on
//!   which a heuristic finds a valid solution (the LP row indicates
//!   which trees are solvable at all);
//! * the **relative cost** — `rcost = (1/|T_λ|) Σ_t cost_LP(t) / cost_h(t)`,
//!   where `T_λ` is the set of solvable trees, `cost_LP` the LP lower
//!   bound and `cost_h(t) = +∞` (contribution 0) when the heuristic
//!   found no solution. Higher is better; 1.0 would mean matching the
//!   lower bound everywhere.

use rp_core::Heuristic;

/// Everything measured on one generated tree.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Index of the tree within its λ batch.
    pub tree_index: usize,
    /// Problem size `s = |C| + |N|`.
    pub problem_size: usize,
    /// Load factor actually achieved by the generator.
    pub achieved_lambda: f64,
    /// LP lower bound on the replica cost, rounded up to an integer
    /// (`None` when the tree is not solvable under any policy: the exact
    /// Multiple feasibility pass fails, and the LP is then infeasible
    /// too, so it is not solved). The rational bound of a trial whose
    /// storage costs are proportional to its capacities, as on both
    /// paper platforms, is the relaxation's optimum in closed form,
    /// `c·Σ r_i`, with no LP solved; any other bound is the optimum of
    /// the solved relaxation.
    pub lp_bound: Option<f64>,
    /// Cost found by each heuristic (`None` = no valid solution).
    pub heuristic_costs: Vec<(Heuristic, Option<u64>)>,
    /// Wall-clock seconds spent on the LP bound: the closed form's
    /// proportionality test and sum where the rational bound has one,
    /// the model build or re-target and the solve otherwise. On a trial
    /// the feasibility pass settles, the pass's own time; on any other,
    /// the pass is not in it (only the `exp.trial_us` histogram has it).
    pub lp_seconds: f64,
    /// Wall-clock seconds spent running all heuristics: 0 on a trial the
    /// feasibility pass settles, which runs none. The pass itself is
    /// never in it (only `exp.trial_us` has it on a trial it accepts).
    pub heuristics_seconds: f64,
}

impl TrialResult {
    /// The cost found by `heuristic` on this trial, if any.
    pub fn cost_of(&self, heuristic: Heuristic) -> Option<u64> {
        self.heuristic_costs
            .iter()
            .find(|(h, _)| *h == heuristic)
            .and_then(|(_, c)| *c)
    }

    /// `true` when the feasibility pass and the LP declare the tree
    /// solvable.
    pub fn solvable(&self) -> bool {
        self.lp_bound.is_some()
    }
}

/// All trials of one load factor.
#[derive(Clone, Debug)]
pub struct LambdaBatch {
    /// The target load factor λ.
    pub lambda: f64,
    /// One entry per generated tree.
    pub trials: Vec<TrialResult>,
}

impl LambdaBatch {
    /// Fraction of trees on which `heuristic` found a valid solution
    /// (over *all* generated trees, matching Figure 9/11 where the LP
    /// curve is itself below 1.0 for large λ).
    pub fn success_rate(&self, heuristic: Heuristic) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        let successes = self
            .trials
            .iter()
            .filter(|t| t.cost_of(heuristic).is_some())
            .count();
        successes as f64 / self.trials.len() as f64
    }

    /// Fraction of trees that are solvable: the exact feasibility pass
    /// accepts them, so the LP relaxation has an optimum.
    pub fn lp_success_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        let successes = self.trials.iter().filter(|t| t.solvable()).count();
        successes as f64 / self.trials.len() as f64
    }

    /// The paper's relative cost for `heuristic` (Section 7.2): average
    /// of `lp_bound / heuristic_cost` over the solvable trees, counting
    /// 0 whenever the heuristic failed.
    pub fn relative_cost(&self, heuristic: Heuristic) -> f64 {
        let solvable: Vec<&TrialResult> = self.trials.iter().filter(|t| t.solvable()).collect();
        if solvable.is_empty() {
            return 0.0;
        }
        let total: f64 = solvable
            .iter()
            .map(|t| {
                let bound = t.lp_bound.expect("filtered on solvable");
                match t.cost_of(heuristic) {
                    Some(cost) if cost > 0 => bound / cost as f64,
                    Some(_) => 1.0, // zero-cost optimum matched exactly
                    None => 0.0,
                }
            })
            .sum();
        total / solvable.len() as f64
    }

    /// Mean problem size of the batch (for reporting).
    pub fn mean_problem_size(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials
            .iter()
            .map(|t| t.problem_size as f64)
            .sum::<f64>()
            / self.trials.len() as f64
    }

    /// Total wall-clock seconds spent on this batch.
    pub fn total_seconds(&self) -> f64 {
        self.trials
            .iter()
            .map(|t| t.lp_seconds + t.heuristics_seconds)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(lp: Option<f64>, mg: Option<u64>, cbu: Option<u64>) -> TrialResult {
        TrialResult {
            tree_index: 0,
            problem_size: 30,
            achieved_lambda: 0.5,
            lp_bound: lp,
            heuristic_costs: vec![(Heuristic::Mg, mg), (Heuristic::Cbu, cbu)],
            lp_seconds: 0.0,
            heuristics_seconds: 0.0,
        }
    }

    #[test]
    fn success_rates_count_failures() {
        let batch = LambdaBatch {
            lambda: 0.5,
            trials: vec![
                trial(Some(10.0), Some(12), Some(20)),
                trial(Some(8.0), Some(9), None),
                trial(None, None, None),
            ],
        };
        assert!((batch.success_rate(Heuristic::Mg) - 2.0 / 3.0).abs() < 1e-12);
        assert!((batch.success_rate(Heuristic::Cbu) - 1.0 / 3.0).abs() < 1e-12);
        assert!((batch.lp_success_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn relative_cost_matches_the_paper_definition() {
        let batch = LambdaBatch {
            lambda: 0.5,
            trials: vec![
                trial(Some(10.0), Some(12), Some(20)), // MG: 10/12, CBU: 10/20
                trial(Some(8.0), Some(9), None),       // MG: 8/9,  CBU: 0
                trial(None, None, None),               // excluded (not solvable)
            ],
        };
        let mg = batch.relative_cost(Heuristic::Mg);
        let cbu = batch.relative_cost(Heuristic::Cbu);
        assert!((mg - (10.0 / 12.0 + 8.0 / 9.0) / 2.0).abs() < 1e-12);
        assert!((cbu - (10.0 / 20.0 + 0.0) / 2.0).abs() < 1e-12);
        assert!(mg > cbu);
    }

    #[test]
    fn empty_batches_report_zero() {
        let batch = LambdaBatch {
            lambda: 0.1,
            trials: vec![],
        };
        assert_eq!(batch.success_rate(Heuristic::Mg), 0.0);
        assert_eq!(batch.lp_success_rate(), 0.0);
        assert_eq!(batch.relative_cost(Heuristic::Mg), 0.0);
        assert_eq!(batch.mean_problem_size(), 0.0);
    }

    #[test]
    fn relative_cost_never_exceeds_one_for_valid_bounds() {
        // The LP value is a lower bound, so each term is <= 1.
        let batch = LambdaBatch {
            lambda: 0.3,
            trials: vec![trial(Some(10.0), Some(10), Some(11))],
        };
        assert!(batch.relative_cost(Heuristic::Mg) <= 1.0 + 1e-12);
        assert!(batch.relative_cost(Heuristic::Cbu) <= 1.0 + 1e-12);
    }

    #[test]
    fn trial_accessors() {
        let t = trial(Some(5.0), Some(7), None);
        assert_eq!(t.cost_of(Heuristic::Mg), Some(7));
        assert_eq!(t.cost_of(Heuristic::Cbu), None);
        assert_eq!(t.cost_of(Heuristic::Utd), None);
        assert!(t.solvable());
    }
}
