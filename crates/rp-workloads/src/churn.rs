//! Seeded churn-trace generation for the online placement engine.
//!
//! A churn trace is a time-ordered stream of
//! [`InstanceDelta`]s: clients arriving, departing and drifting,
//! interleaved with server re-provisions and with platform failures
//! and their paired recoveries.
//! Event times are drawn from an **inhomogeneous Poisson process** with
//! a diurnal (sinusoidal) rate curve, sampled by thinning: candidate
//! inter-arrival gaps come from the peak rate `λ_max`, and a candidate
//! at time `t` is kept with probability `λ(t) / λ_max` where
//!
//! ```text
//! λ(t) = base_rate · (1 + amplitude · sin(2πt / period))
//! ```
//!
//! Everything is a pure function of one `u64` seed (the
//! `StdRng::seed_from_u64` idiom of the other generators), so any chaos
//! run reproduces from the seed printed in its report.
//!
//! Demand-side events keep a consistent client population: arrivals
//! pick currently absent client slots, departures and drifts pick
//! present ones. Failure events draw the same mixed kinds as
//! [`failure_trace`](crate::failure_trace) and each schedules a paired
//! [`RecoveryScope`] event an exponential lag later, so a long trace
//! heals as often as it breaks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::{FailureEvent, InstanceDelta, ProblemInstance, RecoveryScope};
use rp_tree::ClientId;

use crate::failures::{random_node, sample_failure};

/// Rate-curve and event-mix parameters of a churn trace.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Mean event rate, events per simulated second.
    pub base_rate: f64,
    /// Diurnal swing in `[0, 1)`: 0 is a flat (homogeneous) process,
    /// 0.8 swings between 0.2× and 1.8× the base rate.
    pub amplitude: f64,
    /// Period of the diurnal curve in simulated seconds.
    pub period: f64,
    /// Fraction of events that are platform failures.
    pub failure_fraction: f64,
    /// Fraction of events that re-provision a server to a new healthy
    /// capacity ([`InstanceDelta::CapacityChanged`]). The rest — after
    /// failures and re-provisions — are demand-side events: arrival /
    /// departure / drift.
    pub reprovision_fraction: f64,
    /// Mean lag (simulated seconds) between a failure and its paired
    /// recovery.
    pub recovery_lag: f64,
}

impl ChurnConfig {
    /// A moderate default: one event per second swinging ±60% over a
    /// 600 s "day", 20% failures healing after ~30 s, 10% server
    /// re-provisions.
    pub fn new() -> Self {
        ChurnConfig {
            base_rate: 1.0,
            amplitude: 0.6,
            period: 600.0,
            failure_fraction: 0.2,
            reprovision_fraction: 0.1,
            recovery_lag: 30.0,
        }
    }
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig::new()
    }
}

/// One trace entry: a delta and the simulated time it fires at.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimedDelta {
    /// Simulated seconds since the start of the trace.
    pub at: f64,
    /// The instance change.
    pub delta: InstanceDelta,
}

/// Generates a churn trace of exactly `len` deltas against `problem`,
/// deterministic in `seed`. The trace is sorted by time; paired
/// recoveries landing past the cut-off are dropped (an unhealed
/// failure is a perfectly legal way for a trace to end).
pub fn churn_trace(
    problem: &ProblemInstance,
    config: &ChurnConfig,
    len: usize,
    seed: u64,
) -> Vec<TimedDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = problem.tree();
    let mut events: Vec<TimedDelta> = Vec::with_capacity(len * 2);

    // Live demand per client slot, so arrivals/departures stay
    // consistent along the trace.
    let mut demand: Vec<u64> = tree.client_ids().map(|c| problem.requests(c)).collect();
    let max_request = tree
        .client_ids()
        .map(|c| problem.requests(c))
        .max()
        .unwrap_or(1)
        .max(1);

    let lambda_max = config.base_rate * (1.0 + config.amplitude);
    let mut t = 0.0_f64;
    while events.len() < len {
        // Thinning: step at the peak rate, keep with λ(t)/λ_max.
        t += exponential(&mut rng, lambda_max);
        let lambda_t = config.base_rate
            * (1.0 + config.amplitude * (2.0 * std::f64::consts::PI * t / config.period).sin());
        if rng.gen_range(0.0..1.0) * lambda_max > lambda_t {
            continue;
        }
        let kind = rng.gen_range(0.0..1.0);
        if kind < config.failure_fraction {
            let failure = sample_failure(problem, &mut rng);
            events.push(TimedDelta {
                at: t,
                delta: InstanceDelta::Failure(failure),
            });
            let heal_at = t + exponential(&mut rng, 1.0 / config.recovery_lag.max(1e-9));
            events.push(TimedDelta {
                at: heal_at,
                delta: InstanceDelta::Failure(FailureEvent::Recovered(recovery_for(failure))),
            });
        } else if kind < config.failure_fraction + config.reprovision_fraction {
            // Re-provision: the healthy capacity drifts by a uniform
            // factor of the pristine provisioning (never to zero — a
            // dead server is the failure axis's job).
            let node = random_node(tree, &mut rng);
            let factor = rng.gen_range(0.5..1.5);
            let capacity = ((problem.capacity(node) as f64 * factor).round() as u64).max(1);
            events.push(TimedDelta {
                at: t,
                delta: InstanceDelta::CapacityChanged { node, capacity },
            });
        } else {
            events.push(TimedDelta {
                at: t,
                delta: sample_demand_event(&mut demand, max_request, &mut rng),
            });
        }
    }

    // Stable sort on time (ties keep generation order) and cut to len.
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    events.truncate(len);
    events
}

/// The recovery event that undoes `failure`.
pub fn recovery_for(failure: FailureEvent) -> RecoveryScope {
    match failure {
        FailureEvent::ServerCrash(node) => RecoveryScope::Server(node),
        FailureEvent::UplinkDown(link) => RecoveryScope::Link(link),
        // A server recovery also clears outstanding capacity losses.
        FailureEvent::CapacityLoss { node, .. } => RecoveryScope::Server(node),
        FailureEvent::SubtreeFailure(node) => RecoveryScope::Subtree(node),
        FailureEvent::Recovered(scope) => scope,
    }
}

/// `Exp(rate)` via inversion; the uniform is shifted into `(0, 1]` so
/// `ln` never sees zero.
fn exponential<R: Rng>(rng: &mut R, rate: f64) -> f64 {
    let u = 1.0 - rng.gen_range(0.0..1.0);
    -u.ln() / rate
}

/// One demand-side event against the live `demand` vector: an arrival
/// on an absent slot, or a departure/drift on a present one.
fn sample_demand_event<R: Rng>(demand: &mut [u64], max_request: u64, rng: &mut R) -> InstanceDelta {
    let absent: Vec<usize> = (0..demand.len()).filter(|&i| demand[i] == 0).collect();
    let present: Vec<usize> = (0..demand.len()).filter(|&i| demand[i] > 0).collect();

    // 0 = arrival, 1 = departure, 2 = drift; fall back to whatever the
    // population allows.
    let choice = rng.gen_range(0..3u32);
    if (choice == 0 || present.is_empty()) && !absent.is_empty() {
        let slot = absent[rng.gen_range(0..absent.len())];
        let requests = rng.gen_range(1..=max_request);
        demand[slot] = requests;
        return InstanceDelta::ClientArrived {
            client: ClientId::from_index(slot),
            requests,
        };
    }
    if present.is_empty() {
        // Fully drained tree with nothing absent cannot happen (then
        // demand would be non-empty); treat as a no-op drift on slot 0.
        return InstanceDelta::DemandChanged {
            client: ClientId::from_index(0),
            requests: demand.first().copied().unwrap_or(0),
        };
    }
    let slot = present[rng.gen_range(0..present.len())];
    if choice == 1 {
        demand[slot] = 0;
        InstanceDelta::ClientDeparted {
            client: ClientId::from_index(slot),
        }
    } else {
        // Drift: scale by a uniform factor in [0.6, 1.5], at least 1.
        let factor = rng.gen_range(0.6..1.5);
        let requests = ((demand[slot] as f64 * factor).round() as u64).max(1);
        demand[slot] = requests;
        InstanceDelta::DemandChanged {
            client: ClientId::from_index(slot),
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{generate_problem, PlatformKind, WorkloadConfig};
    use crate::tree_gen::{generate_tree, TreeGenConfig, TreeShape};

    fn sample_problem() -> ProblemInstance {
        let tree = generate_tree(
            &TreeGenConfig::with_problem_size(80, TreeShape::RandomAttachment),
            7,
        );
        generate_problem(
            tree,
            &WorkloadConfig::new(PlatformKind::default_heterogeneous(), 0.4),
            9,
        )
    }

    #[test]
    fn traces_are_deterministic_and_time_ordered() {
        let p = sample_problem();
        for seed in [0u64, 5, 99] {
            let a = churn_trace(&p, &ChurnConfig::new(), 300, seed);
            let b = churn_trace(&p, &ChurnConfig::new(), 300, seed);
            assert_eq!(a.len(), 300);
            assert_eq!(a, b);
            for pair in a.windows(2) {
                assert!(pair[0].at <= pair[1].at);
            }
        }
        assert_ne!(
            churn_trace(&p, &ChurnConfig::new(), 50, 1),
            churn_trace(&p, &ChurnConfig::new(), 50, 2)
        );
    }

    #[test]
    fn traces_mix_demand_failure_and_recovery_events() {
        let p = sample_problem();
        let trace = churn_trace(&p, &ChurnConfig::new(), 600, 42);
        let kinds: std::collections::HashSet<&'static str> =
            trace.iter().map(|e| e.delta.kind_name()).collect();
        for kind in [
            "client-arrived",
            "client-departed",
            "demand-changed",
            "capacity-changed",
            "recovered",
        ] {
            assert!(kinds.contains(kind), "missing {kind}: {kinds:?}");
        }
        // At least one concrete failure kind is present too.
        assert!(
            [
                "server-crash",
                "uplink-down",
                "capacity-loss",
                "subtree-failure"
            ]
            .iter()
            .any(|k| kinds.contains(k)),
            "no failures in {kinds:?}"
        );
    }

    #[test]
    fn every_recovery_heals_an_earlier_failure() {
        let p = sample_problem();
        let trace = churn_trace(&p, &ChurnConfig::new(), 500, 7);
        let mut outstanding: Vec<RecoveryScope> = Vec::new();
        for entry in &trace {
            match entry.delta {
                InstanceDelta::Failure(FailureEvent::Recovered(scope)) => {
                    let pos = outstanding.iter().position(|&s| s == scope);
                    assert!(pos.is_some(), "orphan recovery {scope:?}");
                    outstanding.remove(pos.unwrap());
                }
                InstanceDelta::Failure(failure) => outstanding.push(recovery_for(failure)),
                _ => {}
            }
        }
    }

    #[test]
    fn diurnal_rate_concentrates_events_in_the_peak_half() {
        let p = sample_problem();
        let config = ChurnConfig {
            amplitude: 0.9,
            ..ChurnConfig::new()
        };
        let trace = churn_trace(&p, &config, 1000, 3);
        let period = config.period;
        // sin > 0 on the first half of each period: the "day".
        let day = trace
            .iter()
            .filter(|e| (e.at % period) < period / 2.0)
            .count();
        let night = trace.len() - day;
        assert!(day > night, "day {day} vs night {night}");
    }

    #[test]
    fn demand_events_respect_the_live_population() {
        let p = sample_problem();
        let trace = churn_trace(&p, &ChurnConfig::new(), 800, 11);
        let tree = p.tree();
        let mut demand: Vec<u64> = tree.client_ids().map(|c| p.requests(c)).collect();
        for entry in &trace {
            match entry.delta {
                InstanceDelta::ClientArrived { client, requests } => {
                    assert_eq!(demand[client.index()], 0, "arrival on a present client");
                    assert!(requests > 0);
                    demand[client.index()] = requests;
                }
                InstanceDelta::ClientDeparted { client } => {
                    assert!(demand[client.index()] > 0, "departure of an absent client");
                    demand[client.index()] = 0;
                }
                InstanceDelta::DemandChanged { client, requests } => {
                    assert!(requests > 0);
                    demand[client.index()] = requests;
                }
                _ => {}
            }
        }
    }
}
