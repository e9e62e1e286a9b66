//! The online churn loop: each engine (one per policy, one after
//! another) absorbs the same trace back to back under an unlimited
//! budget — a closed loop that ignores the trace timestamps.
//!
//! After every apply, outside the timer, the benchmark re-verifies the
//! incumbent and splits the unserved clients into *disconnected* (no
//! live server within QoS on their path, or a dead uplink: no placement
//! could serve them) and *unplaced* (servable but not served).

use std::time::Instant;

use rp_lp::SolveBudget;
use rp_obs::HistId;
use rp_online::{ApplyOutcome, ApplyRung, PlacementEngine};
use rp_tree::LinkId;
use rp_workloads::churn::TimedDelta;

use crate::spans::Tracer;
use crate::Checks;

/// One apply, as the benchmark saw it.
#[derive(Clone, Copy, Debug)]
pub struct ApplyRecord {
    /// Index of the engine's policy in `Policy::ALL`.
    pub policy: usize,
    /// The rung that answered (`None` for a deferred delta).
    pub rung: Option<ApplyRung>,
    /// Wall time of `PlacementEngine::apply`, ms.
    pub ms: f64,
    /// Requests served by the incumbent after the apply.
    pub served: u64,
    /// Requests of servable clients after the apply.
    pub servable: u64,
    /// Unserved clients that no placement could serve.
    pub disconnected: u32,
    /// Unserved clients that a placement could serve.
    pub unplaced: u32,
}

impl ApplyRecord {
    /// Served over servable requests (1 when nothing is servable).
    pub fn served_frac(&self) -> f64 {
        if self.servable == 0 {
            1.0
        } else {
            self.served as f64 / self.servable as f64
        }
    }
}

/// Every apply of one pass, plus the LP time the engines spent (read
/// from the `lp.solve_us` histogram, so only counted when observation
/// is on).
#[derive(Default)]
pub struct ChurnRun {
    /// Applies in run order, engine by engine.
    pub applies: Vec<ApplyRecord>,
    /// LP solve time inside each engine's applies, µs, per policy.
    pub lp_us: Vec<f64>,
}

/// Drives every engine, one after another, through `trace` (the next
/// segment of the run's trace), appending to `run`. With a tracer, each
/// apply gets a span named after the rung that answered.
pub fn run(
    engines: &mut [PlacementEngine],
    trace: &[TimedDelta],
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
    run: &mut ChurnRun,
) {
    let lp_hist = rp_obs::global().histogram(HistId::LpSolveUs);
    run.lp_us.resize(engines.len(), 0.0);
    for (policy, engine) in engines.iter_mut().enumerate() {
        let lp_before = lp_hist.sum_us();
        for entry in trace {
            let span = tracer
                .as_mut()
                .map(|t| t.start("online.apply", "rp-online"));
            let start = Instant::now();
            let outcome = engine.apply(entry.delta, SolveBudget::UNLIMITED);
            let ms = 1e3 * start.elapsed().as_secs_f64();
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                t.stop(span);
                let rung = outcome.rung().map_or("deferred", ApplyRung::as_str);
                t.rename(span, format!("online.apply.{rung}"));
            }

            let split = unserved_split(engine);
            let ok = !matches!(outcome, ApplyOutcome::Deferred)
                && engine.verify_incumbent()
                && split.is_some();
            checks.record(ok);
            let split = split.unwrap_or_default();
            run.applies.push(ApplyRecord {
                policy,
                rung: outcome.rung(),
                ms,
                served: split.served,
                servable: split.servable,
                disconnected: split.disconnected,
                unplaced: split.unplaced,
            });
        }
        run.lp_us[policy] += lp_hist.sum_us().saturating_sub(lp_before) as f64;
    }
}

#[derive(Default)]
struct Split {
    served: u64,
    servable: u64,
    disconnected: u32,
    unplaced: u32,
}

/// Classifies every client with demand as servable or not: its uplink
/// is alive and a live server with nonzero capacity within QoS is on
/// its path. Returns `None` if the incumbent serves a client that is
/// not servable (the engine would have to be wrong).
fn unserved_split(engine: &PlacementEngine) -> Option<Split> {
    let platform = engine.platform();
    let problem = platform.problem();
    let unserved = &engine.incumbent().unserved;
    let mut split = Split::default();
    for client in problem.tree().client_ids() {
        let requests = problem.requests(client);
        if requests == 0 {
            continue;
        }
        let servable = !platform.is_link_dead(LinkId::Client(client))
            && problem
                .eligible_servers(client)
                .any(|node| problem.capacity(node) > 0 && platform.path_is_alive(client, node));
        let is_unserved = unserved.binary_search(&client).is_ok();
        match (servable, is_unserved) {
            (true, false) => {
                split.served += requests;
                split.servable += requests;
            }
            (true, true) => {
                split.servable += requests;
                split.unplaced += 1;
            }
            (false, true) => split.disconnected += 1,
            (false, false) => return None,
        }
    }
    Some(split)
}
