//! Seeded input generation: the s = 2000 LP model, the s = 2000 churn
//! instance with its trace, and one online engine per policy.
//!
//! Everything here is a pure function of the workload and the seed;
//! the benchmark times it as `setup_s`. The two s = 2000 instances are
//! pinned (the LP bound and the churn instance the ROADMAP quotes), so
//! their size does not vary from seed to seed; the seed draws the LP
//! sibling rows, the churn trace and every sweep tree.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rp_core::ilp::{build_model, Integrality};
use rp_core::{Policy, ProblemInstance};
use rp_experiments::runner::generate_trial_problem;
use rp_experiments::ChurnRunConfig;
use rp_lp::{Cmp, ConstraintId, Model};
use rp_online::{Paranoia, PlacementEngine};
use rp_workloads::churn::{churn_trace, TimedDelta};
use rp_workloads::platform::paper_scale_instance_sized;
use rp_workloads::scenarios::bandwidth_scale_instance;

use crate::{sweep, Workload};

/// Problem size of the churn instance; its load factor, instance seed
/// and trace shape are those of `ChurnRunConfig::new()`.
pub const CHURN_S: usize = 2000;
/// Load factor of the s = 2000 bandwidth LP instance.
pub const LP_LAMBDA: f64 = 0.2;
/// Instance seed of the s = 2000 bandwidth LP instance: the 13.5k-row,
/// 2555-pivot bound the ROADMAP's LP targets are quoted on.
pub const LP_INSTANCE_SEED: u64 = 31;
/// Rows the LP siblings rotate through, each relaxed by +1 in turn.
pub const SIBLING_ROWS: usize = 8;

/// Derives the seed of one input stream from the run seed (splitmix64
/// finaliser), so the streams are unrelated for nearby seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_LP_ROWS: u64 = 1;
const STREAM_CHURN_TRACE: u64 = 2;

/// The LP workload's model and the `<=` rows its siblings relax.
pub struct LpInputs {
    /// The Multiple rational relaxation of the s = 2000 bandwidth
    /// instance.
    pub model: Model,
    /// The sibling rows, in rotation order.
    pub rows: Vec<ConstraintId>,
}

/// Everything the three parts of a run consume.
pub struct Inputs {
    /// The LP bound model and its sibling rows.
    pub lp: LpInputs,
    /// The churn instance the engines were built over.
    pub churn_problem: ProblemInstance,
    /// The churn trace, applied back to back by every engine.
    pub trace: Vec<TimedDelta>,
    /// One engine per policy, in [`Policy::ALL`] order.
    pub engines: Vec<PlacementEngine>,
    /// A hash of the generated inputs, to show that the seed drives
    /// them.
    pub fingerprint: u64,
}

/// Wall time of one set-up, split by the layer that spent it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// Both s = 2000 instances (`rp-workloads`), ms.
    pub instance_ms: f64,
    /// The churn trace (`rp-workloads`), ms.
    pub trace_ms: f64,
    /// `build_model` of the LP instance (`rp-core::ilp`), ms.
    pub build_ms: f64,
    /// `PlacementEngine::new` for every policy (`rp-online`), ms.
    pub engines_ms: f64,
}

/// One engine per policy over `problem`, checking every apply in full.
pub fn new_engines(problem: &ProblemInstance) -> Vec<PlacementEngine> {
    Policy::ALL
        .iter()
        .map(|&policy| PlacementEngine::new(problem.clone(), policy).with_paranoia(Paranoia::Full))
        .collect()
}

/// Generates every input of one run.
pub fn build(workload: Workload, seed: u64, churn_deltas: usize) -> (Inputs, SetupTimes) {
    let churn = ChurnRunConfig::new();
    let total = Instant::now();

    let t = Instant::now();
    let lp_problem = bandwidth_scale_instance(LP_LAMBDA, LP_INSTANCE_SEED);
    let churn_problem =
        paper_scale_instance_sized(CHURN_S, workload.platform(), churn.lambda, churn.seed);
    let instance_ms = ms_since(t);

    let t = Instant::now();
    let model = build_model(&lp_problem, Policy::Multiple, Integrality::RationalBound).model;
    let build_ms = ms_since(t);

    let t = Instant::now();
    let trace = churn_trace(
        &churn_problem,
        &churn.trace,
        churn_deltas,
        mix(seed, STREAM_CHURN_TRACE),
    );
    let trace_ms = ms_since(t);

    let t = Instant::now();
    let engines = new_engines(&churn_problem);
    let engines_ms = ms_since(t);

    let times = SetupTimes {
        total_s: total.elapsed().as_secs_f64(),
        instance_ms,
        trace_ms,
        build_ms,
        engines_ms,
    };

    let rows = sibling_rows(&model, mix(seed, STREAM_LP_ROWS));
    let fingerprint = fingerprint(workload, seed, &model, &churn_problem, &trace);
    let inputs = Inputs {
        lp: LpInputs { model, rows },
        churn_problem,
        trace,
        engines,
        fingerprint,
    };
    (inputs, times)
}

/// [`SIBLING_ROWS`] `<=` rows spread evenly over the model, starting
/// at a seeded offset.
fn sibling_rows(model: &Model, seed: u64) -> Vec<ConstraintId> {
    let le: Vec<ConstraintId> = model
        .constraint_ids()
        .filter(|&id| model.constraint(id).cmp == Cmp::Le)
        .collect();
    if le.is_empty() {
        return Vec::new();
    }
    let offset = (seed % le.len() as u64) as usize;
    (0..SIBLING_ROWS.min(le.len()))
        .map(|k| le[(offset + k * le.len() / SIBLING_ROWS) % le.len()])
        .collect()
}

fn fingerprint(
    workload: Workload,
    seed: u64,
    model: &Model,
    churn_problem: &ProblemInstance,
    trace: &[TimedDelta],
) -> u64 {
    let mut h = DefaultHasher::new();
    (model.num_vars(), model.num_constraints()).hash(&mut h);
    for id in model.constraint_ids() {
        model.constraint(id).rhs.to_bits().hash(&mut h);
    }
    for client in churn_problem.tree().client_ids() {
        churn_problem.requests(client).hash(&mut h);
    }
    for entry in trace {
        format!("{:?}", entry.delta).hash(&mut h);
    }
    let first_trial = generate_trial_problem(&sweep::config(workload, seed, 0), 0.1, 0);
    for client in first_trial.tree().client_ids() {
        first_trial.requests(client).hash(&mut h);
    }
    h.finish()
}

fn ms_since(t: Instant) -> f64 {
    1e3 * t.elapsed().as_secs_f64()
}
