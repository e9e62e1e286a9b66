//! The online chaos harness: a long seeded churn trace — arrivals,
//! departures, demand drift, failures and paired recoveries — driven
//! through a live [`PlacementEngine`] per policy. Every apply must end
//! in a machine-verified incumbent (the engines run at
//! [`Paranoia::Full`], so an unverified placement can never be
//! observed) and the outcome/rung/generation bookkeeping must account
//! for every delta. The release-mode sibling (the `[online]` section of
//! the `rp-bench` perf gate, `baseline --check`) drives the same engine
//! through 2000 deltas at `s = 400`; this debug-friendly harness keeps
//! the instance small enough to run under `cargo test`.

use std::time::Duration;

use replica_placement::core::InstanceDelta;
use replica_placement::lp::SolveBudget;
use replica_placement::online::Paranoia;
use replica_placement::prelude::*;
use replica_placement::workloads::platform::paper_scale_instance_sized;
use replica_placement::workloads::{churn_trace, ChurnConfig};

const DELTAS: usize = 300;

/// Drives one engine through the shared trace and checks every
/// invariant the engine promises after every single apply.
fn churn_policy(policy: Policy, budget: SolveBudget) {
    let problem = paper_scale_instance_sized(80, PlatformKind::default_heterogeneous(), 0.4, 11);
    let trace = churn_trace(&problem, &ChurnConfig::new(), DELTAS, 0xC0DE);
    assert_eq!(trace.len(), DELTAS);

    let mut engine = PlacementEngine::new(problem, policy).with_paranoia(Paranoia::Full);
    assert!(engine.verify_incumbent(), "{policy}: initial incumbent");

    let mut absorbed = 0u64;
    let mut deferred = 0usize;
    for (i, entry) in trace.iter().enumerate() {
        let generation_before = engine.generation();
        match engine.apply(entry.delta, budget) {
            ApplyOutcome::Applied { generation, .. } => {
                absorbed += 1;
                assert_eq!(generation, generation_before + 1, "{policy} delta {i}");
                assert!(engine.is_fully_served(), "{policy} delta {i}");
            }
            ApplyOutcome::Degraded {
                generation,
                unserved,
                ..
            } => {
                absorbed += 1;
                assert_eq!(generation, generation_before + 1, "{policy} delta {i}");
                assert!(unserved >= 1, "{policy} delta {i}: degraded but all served");
            }
            ApplyOutcome::Deferred => {
                deferred += 1;
                assert_eq!(
                    engine.generation(),
                    generation_before,
                    "{policy} delta {i}: a deferred apply must not advance the incumbent"
                );
            }
        }
        assert!(engine.verify_incumbent(), "{policy} delta {i}");
    }

    assert_eq!(absorbed as usize + deferred, DELTAS, "{policy}");
    assert_eq!(engine.generation(), absorbed, "{policy}");
    assert_eq!(engine.rung_counts().total(), absorbed, "{policy}");
    assert_eq!(engine.deferred_len(), deferred, "{policy}");

    // Drain the backpressure queue with the clock no longer ticking:
    // each deferred delta gets exactly one more attempt and must now
    // land on a rung (rung 4 is total, so nothing can defer again).
    let outcomes = engine.retry_deferred(SolveBudget::UNLIMITED);
    assert_eq!(outcomes.len(), deferred, "{policy}");
    assert!(
        outcomes.iter().all(|o| !o.is_deferred()),
        "{policy}: unlimited retry must absorb every deferred delta"
    );
    assert_eq!(engine.deferred_len(), 0, "{policy}");
    assert!(engine.verify_incumbent(), "{policy}: after retry_deferred");
}

#[test]
fn closest_survives_the_churn_trace() {
    churn_policy(Policy::Closest, SolveBudget::UNLIMITED);
}

#[test]
fn upwards_survives_the_churn_trace() {
    churn_policy(Policy::Upwards, SolveBudget::UNLIMITED);
}

#[test]
fn multiple_survives_the_churn_trace() {
    churn_policy(Policy::Multiple, SolveBudget::UNLIMITED);
}

#[test]
fn a_tight_budget_defers_instead_of_corrupting() {
    // 5 ms per delta in a debug build forces a mix of absorbed and
    // deferred applies; the harness asserts rollback exactness and the
    // final drain either way.
    churn_policy(
        Policy::Multiple,
        SolveBudget::with_deadline(Duration::from_millis(5)),
    );
}

#[test]
fn the_trace_is_a_genuine_chaos_mix() {
    let problem = paper_scale_instance_sized(80, PlatformKind::default_heterogeneous(), 0.4, 11);
    let trace = churn_trace(&problem, &ChurnConfig::new(), DELTAS, 0xC0DE);
    let mut population = 0usize;
    let mut demand = 0usize;
    let mut capacity = 0usize;
    let mut failures = 0usize;
    for entry in &trace {
        match entry.delta {
            InstanceDelta::ClientArrived { .. } | InstanceDelta::ClientDeparted { .. } => {
                population += 1
            }
            InstanceDelta::DemandChanged { .. } => demand += 1,
            InstanceDelta::CapacityChanged { .. } => capacity += 1,
            InstanceDelta::Failure(_) => failures += 1,
        }
    }
    assert!(population > 0, "no arrivals/departures in the trace");
    assert!(demand > 0, "no demand churn in the trace");
    assert!(capacity > 0, "no capacity churn in the trace");
    assert!(failures > 0, "no failures in the trace");
}
