//! The repository's benchmark: one process that runs three seeded
//! parts on one worker, checks every output, and reports end-to-end
//! metrics (plain run) or per-layer metrics (traced run).
//!
//! * **sweep** — the paper's λ-sweep at paper scale (15 ≤ s ≤ 400,
//!   λ = 0.1…0.9) through `run_single_trial_with`;
//! * **lp_s2000** — the s = 2000 bandwidth LP bound: cold solves on
//!   fresh workspaces and rhs-only siblings on the warm one;
//! * **churn** — one `PlacementEngine` per policy absorbing an s = 2000
//!   churn trace back to back.
//!
//! A *workload* picks the server-capacity platform the sweep and the
//! churn instance are generated on; the LP part is the same family on
//! both. End-to-end timings are reported at reference speed (see
//! [`speed`]). The traced run repeats the plain run's work with
//! `ObsMode::Counters` and a span around every layer call, so it can
//! also report the tracing overhead. `METRICS.md` lists which
//! end-to-end metric each layer metric should move.

pub mod churn;
pub mod lp;
pub mod setup;
pub mod spans;
pub mod speed;
pub mod sweep;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use rp_core::Heuristic;
use rp_obs::{ObsMode, Phase};
use rp_online::ApplyRung;
use rp_workloads::platform::PlatformKind;

use crate::spans::Tracer;

/// The platform the sweep and the churn instance are generated on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Equal server capacities (Figures 9 and 10).
    Homogeneous,
    /// Heterogeneous server capacities (Figures 11 and 12).
    Heterogeneous,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Homogeneous, Workload::Heterogeneous];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Homogeneous => "homogeneous",
            Workload::Heterogeneous => "heterogeneous",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The server-capacity model.
    pub fn platform(self) -> PlatformKind {
        match self {
            Workload::Homogeneous => PlatformKind::default_homogeneous(),
            Workload::Heterogeneous => PlatformKind::default_heterogeneous(),
        }
    }
}

/// How much work a run does. A pure function of `--seconds`, so every
/// count a run reports depends on the seed and the run length only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Paper-scale sweeps (270 trials each).
    pub sweep_passes: usize,
    /// LP cycles (one cold solve plus the sibling re-solves).
    pub lp_cycles: usize,
    /// Trace deltas each engine absorbs.
    pub churn_deltas: usize,
}

impl Sizes {
    /// Work sized so that a plain run measures for about `seconds` on
    /// a calm 2-core x86-64 VM: ~40 % sweep (more passes draw more tree
    /// sizes, which steadies the trial median), ~25 % LP, ~35 % churn.
    pub fn for_seconds(seconds: u32) -> Sizes {
        let s = f64::from(seconds.max(1));
        Sizes {
            sweep_passes: ((s * 1.6).round() as usize).max(1),
            lp_cycles: ((s * 2.5).round() as usize).max(2),
            churn_deltas: ((s * 8.0).round() as usize).max(10),
        }
    }
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Run length; sets [`Sizes`].
    pub seconds: u32,
    /// Report per-layer metrics (traced run) instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Where the traced run writes its chrome trace (`None`: nowhere).
    pub trace_dir: Option<PathBuf>,
}

/// Attempted operations and those whose output check failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Checked operations.
    pub checks: Checks,
    /// End-to-end metrics (every run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Hash of the generated inputs.
    pub fingerprint: u64,
    /// Work done.
    pub sizes: Sizes,
    /// Wall time of each part of the plain pass, checks included, s.
    pub walls: Vec<(&'static str, f64)>,
}

impl Report {
    /// Looks a metric up by name in either set.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: the end-to-end metrics, or the per-layer ones
    /// for a traced run.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let correct = self.checks.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.attempted, self.checks.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload: set-up, the plain pass, and for a traced run the
/// traced pass over the same inputs.
pub fn run(options: &Options) -> Report {
    rp_obs::set_mode(ObsMode::Off);
    let sizes = Sizes::for_seconds(options.seconds);
    let (workload, seed) = (options.workload, options.seed);
    let mut checks = Checks::default();

    // Set-up, and every slice of work below, is bracketed by the speed
    // kernel (see `speed`), so each timing also exists at reference
    // speed.
    let mut speed = speed::Speed::new();
    let mut setups = Vec::new();
    let mut setup_ref_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let (built, times) = setup::build(workload, seed, sizes.churn_deltas);
        setup_ref_s.push(times.total_s * speed.slice_factor());
        setups.push(times);
        inputs = Some(built);
    }
    let Some(mut inputs) = inputs else {
        unreachable!("set-up runs at least once")
    };
    let setup_median = |f: fn(&setup::SetupTimes) -> f64| median(setups.iter().map(f).collect());

    // The parts interleave in rounds, so a slow spell of the machine
    // lands on every part alike instead of on whichever ran then.
    let trials = sweep::trials(workload, seed, sizes.sweep_passes);
    let lp_refs = lp::references(&inputs.lp, &mut checks);
    let mut plain_sweep = sweep::PlainSweep::default();
    let mut plain_lp = lp::LpPass::new(&inputs.lp, &lp_refs);
    let mut churn = churn::ChurnRun::default();
    let mut walls = [("sweep", 0.0), ("lp_s2000", 0.0), ("churn", 0.0)];
    // Per sample: the speed factor of its slice (trials, cold solves,
    // warm solves, applies).
    let mut factors: [Vec<f64>; 4] = Default::default();
    for round in 0..ROUNDS {
        let t = Instant::now();
        plain_sweep.run(&trials[segment(trials.len(), round)], &mut checks);
        walls[0].1 += t.elapsed().as_secs_f64();
        factors[0].resize(plain_sweep.run.trial_ms.len(), speed.slice_factor());

        let t = Instant::now();
        plain_lp.cycles(segment(sizes.lp_cycles, round).len(), None, &mut checks);
        walls[1].1 += t.elapsed().as_secs_f64();
        let f = speed.slice_factor();
        factors[1].resize(plain_lp.run.cold_ms.len(), f);
        factors[2].resize(plain_lp.run.warm_ms.len(), f);

        let t = Instant::now();
        let deltas = &inputs.trace[segment(inputs.trace.len(), round)];
        churn::run(&mut inputs.engines, deltas, None, &mut checks, &mut churn);
        walls[2].1 += t.elapsed().as_secs_f64();
        factors[3].resize(churn.applies.len(), speed.slice_factor());
    }
    let (sweep, lp) = (plain_sweep.run, plain_lp.run);
    let apply_ms: Vec<f64> = churn.applies.iter().map(|a| a.ms).collect();
    let at_reference = |ms: &[f64], factors: &[f64]| -> Vec<f64> {
        ms.iter().zip(factors).map(|(ms, f)| ms * f).collect()
    };
    let sweep_ref = at_reference(&sweep.trial_ms, &factors[0]);

    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(setup_ref_s), "s");
    e2e.push(
        "sweep.trials_per_s",
        per_second(&sweep_ref, sweep_ref.len()),
        "1/s",
    );
    e2e.push("sweep.trial_p50_ms", quantile(&sweep_ref, 0.50), "ms");
    e2e.push("sweep.trial_p90_ms", quantile(&sweep_ref, 0.90), "ms");
    e2e.push("sweep.success_rate", sweep.success_rate(), "frac");
    e2e.push("sweep.cost_ratio", sweep.cost_ratio(), "ratio");
    let cold_ref = at_reference(&lp.cold_ms, &factors[1]);
    e2e.push("lp.cold_p50_ms", quantile(&cold_ref, 0.50), "ms");
    let warm_ref = at_reference(&lp.warm_ms, &factors[2]);
    e2e.push("lp.warm_p50_ms", quantile(&warm_ref, 0.50), "ms");
    let apply_ref = at_reference(&apply_ms, &factors[3]);
    let absorbed = churn.applies.iter().filter(|a| a.rung.is_some()).count();
    e2e.push(
        "online.deltas_per_s",
        per_second(&apply_ref, absorbed),
        "1/s",
    );
    e2e.push("online.apply_p50_ms", quantile(&apply_ref, 0.50), "ms");
    e2e.push(
        "online.served_frac",
        mean(churn.applies.iter().map(|a| a.served_frac()).collect()),
        "frac",
    );

    let mut layer = Metrics::default();
    if options.trace {
        let mut engines = setup::new_engines(&inputs.churn_problem);
        rp_obs::set_mode(ObsMode::Counters);
        rp_obs::reset_all();
        let mut tracer = Tracer::new();
        let mut traced_sweep = sweep::TracedSweep::default();
        let mut traced_lp = lp::LpPass::new(&inputs.lp, &lp_refs);
        let mut churn_t = churn::ChurnRun::default();
        // Traced wall per part at reference speed, for the overhead.
        let mut traced_ref = [0.0; 3];
        for round in 0..ROUNDS {
            let range = segment(trials.len(), round);
            let expected = &sweep.outcomes[range.clone()];
            let before = traced_sweep.layers.wall_s;
            traced_sweep.run(&trials[range], expected, &mut tracer, &mut checks);
            traced_ref[0] += (traced_sweep.layers.wall_s - before) * 1e3 * speed.slice_factor();

            let before: f64 = traced_lp
                .run
                .cold_ms
                .iter()
                .chain(&traced_lp.run.warm_ms)
                .sum();
            let cycles = segment(sizes.lp_cycles, round).len();
            traced_lp.cycles(cycles, Some(&mut tracer), &mut checks);
            let after: f64 = traced_lp
                .run
                .cold_ms
                .iter()
                .chain(&traced_lp.run.warm_ms)
                .sum();
            traced_ref[1] += (after - before) * speed.slice_factor();

            let done = churn_t.applies.len();
            let deltas = &inputs.trace[segment(inputs.trace.len(), round)];
            churn::run(
                &mut engines,
                deltas,
                Some(&mut tracer),
                &mut checks,
                &mut churn_t,
            );
            let ms: f64 = churn_t.applies[done..].iter().map(|a| a.ms).sum();
            traced_ref[2] += ms * speed.slice_factor();
        }
        let s400 = lp::s400_warm_iterations(&mut checks);
        rp_obs::set_mode(ObsMode::Off);
        if let Some(dir) = &options.trace_dir {
            let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
            if let Err(err) = tracer.write_chrome_trace(&path) {
                eprintln!("perfbench: cannot write {}: {err}", path.display());
            }
        }
        let (sweep_t, lp_t) = (traced_sweep.layers, traced_lp.run);

        // The plain pass at raw wall-clock speed, and its tails: slow
        // spells of the machine move tails more than any bound allows.
        let all_factors: Vec<f64> = factors.iter().flatten().copied().collect();
        layer.push("speed.factor_p50", median(all_factors), "ratio");
        layer.push("raw.setup_s", setup_median(|t| t.total_s), "s");
        let trials_per_s = per_second(&sweep.trial_ms, sweep.trial_ms.len());
        layer.push("raw.sweep.trials_per_s", trials_per_s, "1/s");
        layer.push(
            "raw.sweep.trial_p50_ms",
            quantile(&sweep.trial_ms, 0.50),
            "ms",
        );
        layer.push(
            "raw.sweep.trial_p90_ms",
            quantile(&sweep.trial_ms, 0.90),
            "ms",
        );
        layer.push("raw.lp.cold_p50_ms", quantile(&lp.cold_ms, 0.50), "ms");
        layer.push("raw.lp.warm_p50_ms", quantile(&lp.warm_ms, 0.50), "ms");
        layer.push(
            "raw.online.deltas_per_s",
            per_second(&apply_ms, absorbed),
            "1/s",
        );
        layer.push("raw.online.apply_p50_ms", quantile(&apply_ms, 0.50), "ms");
        layer.push(
            "raw.sweep.trial_p99_ms",
            quantile(&sweep.trial_ms, 0.99),
            "ms",
        );
        layer.push("raw.lp.cold_p90_ms", quantile(&lp.cold_ms, 0.90), "ms");
        layer.push("raw.lp.warm_p90_ms", quantile(&lp.warm_ms, 0.90), "ms");
        layer.push("raw.online.apply_p90_ms", quantile(&apply_ms, 0.90), "ms");
        layer.push("raw.online.apply_p99_ms", quantile(&apply_ms, 0.99), "ms");

        let trials = sweep_t.trials.max(1) as f64;
        layer.push("workloads.trial_gen_us", 1e6 * sweep_t.gen_s / trials, "us");
        layer.push(
            "workloads.instance_ms",
            setup_median(|t| t.instance_ms),
            "ms",
        );
        layer.push("workloads.trace_ms", setup_median(|t| t.trace_ms), "ms");
        for (h, seconds) in Heuristic::ALL.iter().zip(&sweep_t.heuristic_s) {
            let name = format!("core.heuristic_us.{}", h.acronym());
            layer.push(&name, 1e6 * seconds / trials, "us");
        }
        layer.push("core.ilp.build_us", 1e6 * sweep_t.build_s / trials, "us");
        layer.push(
            "core.ilp.build_ms.s2000",
            setup_median(|t| t.build_ms),
            "ms",
        );
        layer.push("online.engine_new_ms", setup_median(|t| t.engines_ms), "ms");
        layer.push("lp.sweep.solve_us", 1e6 * sweep_t.solve_s / trials, "us");
        layer.push(
            "lp.sweep.iterations",
            sweep_t.iterations as f64 / trials,
            "count",
        );
        layer.push(
            "lp.sweep.warm_hit_frac",
            sweep_t.warm_hits as f64 / trials,
            "frac",
        );
        lp_layers(&mut layer, "cold", &lp_t.cold_ms, &lp_t.cold_stats);
        layer.push(
            "lp.cold.refactorisations",
            mean(
                lp_t.cold_stats
                    .iter()
                    .map(|s| s.refactorisations as f64)
                    .collect(),
            ),
            "count",
        );
        lp_layers(&mut layer, "warm", &lp_t.warm_ms, &lp_t.warm_stats);
        for (class, label) in [
            (rp_lp::WarmStart::WarmHit, "warm_hit"),
            (rp_lp::WarmStart::WarmRefactor, "warm_refactor"),
        ] {
            let share = lp_t.warm_stats.iter().filter(|s| s.warm == class).count() as f64
                / lp_t.warm_stats.len().max(1) as f64;
            layer.push(&format!("lp.warm.class.{label}"), share, "frac");
        }
        let cold = lp_t
            .warm_stats
            .iter()
            .filter(|s| {
                matches!(
                    s.warm,
                    rp_lp::WarmStart::Cold | rp_lp::WarmStart::ModeChangeCold
                )
            })
            .count();
        layer.push(
            "lp.warm.class.cold",
            cold as f64 / lp_t.warm_stats.len().max(1) as f64,
            "frac",
        );
        layer.push("lp.s400.warm_iterations", s400, "count");
        churn_layers(&mut layer, &churn_t);
        layer.push("sweep.attributed_frac", sweep_t.attributed_frac(), "frac");
        let plain_ref = [
            sweep_ref.iter().sum::<f64>(),
            cold_ref.iter().chain(&warm_ref).sum::<f64>(),
            apply_ref.iter().sum::<f64>(),
        ];
        for (part, (traced, plain)) in ["sweep", "lp_s2000", "churn"]
            .iter()
            .zip(traced_ref.iter().zip(plain_ref))
        {
            let name = format!("obs.overhead_frac.{part}");
            layer.push(&name, traced / plain - 1.0, "frac");
        }
    }

    Report {
        checks,
        end_to_end: e2e.0,
        per_layer: layer.0,
        fingerprint: inputs.fingerprint,
        sizes,
        walls: walls.to_vec(),
    }
}

/// Iterations, the nine phase timers and the unattributed remainder of
/// one class of LP solves, as means per solve.
fn lp_layers(layer: &mut Metrics, class: &str, wall_ms: &[f64], stats: &[rp_lp::SolveStats]) {
    layer.push(
        &format!("lp.{class}.iterations"),
        mean(stats.iter().map(|s| s.iterations() as f64).collect()),
        "count",
    );
    for phase in Phase::ALL {
        let us = mean(
            stats
                .iter()
                .map(|s| s.phases.nanos(phase) as f64 / 1e3)
                .collect(),
        );
        layer.push(&format!("lp.{class}.phase.{}_us", phase.name()), us, "us");
    }
    let wall_us: f64 = wall_ms.iter().sum::<f64>() * 1e3;
    let phase_us: f64 = stats
        .iter()
        .map(|s| s.phases.total_nanos() as f64 / 1e3)
        .sum();
    let n = stats.len().max(1) as f64;
    layer.push(
        &format!("lp.{class}.unattributed_us"),
        (wall_us - phase_us) / n,
        "us",
    );
    layer.push(
        &format!("lp.{class}.attributed_frac"),
        phase_us / wall_us.max(1e-12),
        "frac",
    );
}

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Rounds the parts interleave in.
const ROUNDS: usize = 20;

/// The `round`-th of [`ROUNDS`] near-equal slices of `0..len`.
fn segment(len: usize, round: usize) -> std::ops::Range<usize> {
    len * round / ROUNDS..len * (round + 1) / ROUNDS
}

const POLICY_NAMES: [&str; 3] = ["closest", "upwards", "multiple"];
const RUNGS: [(ApplyRung, &str); 4] = [
    (ApplyRung::Surgical, "surgical"),
    (ApplyRung::LpRepair, "lp_repair"),
    (ApplyRung::Rerun, "rerun"),
    (ApplyRung::Degraded, "degraded"),
];

fn churn_layers(layer: &mut Metrics, run: &churn::ChurnRun) {
    let ms_where = |keep: &dyn Fn(&churn::ApplyRecord) -> bool| -> Vec<f64> {
        run.applies
            .iter()
            .filter(|a| keep(a))
            .map(|a| a.ms)
            .collect()
    };
    for (index, name) in POLICY_NAMES.iter().enumerate() {
        let ms = ms_where(&|a| a.policy == index);
        layer.push(
            &format!("online.{name}.apply_p50_ms"),
            quantile(&ms, 0.50),
            "ms",
        );
        layer.push(
            &format!("online.{name}.apply_p99_ms"),
            quantile(&ms, 0.99),
            "ms",
        );
        layer.push(
            &format!("online.{name}.busy_s"),
            ms.iter().sum::<f64>() / 1e3,
            "s",
        );
    }
    for (rung, name) in RUNGS {
        let ms = ms_where(&|a| a.rung == Some(rung));
        layer.push(
            &format!("online.rung.{name}.count"),
            ms.len() as f64,
            "count",
        );
        layer.push(
            &format!("online.rung.{name}.p50_ms"),
            quantile(&ms, 0.50),
            "ms",
        );
    }
    let total = run.applies.len().max(1) as f64;
    let surgical = run
        .applies
        .iter()
        .filter(|a| a.rung == Some(ApplyRung::Surgical))
        .count();
    layer.push("online.rung1_frac", surgical as f64 / total, "frac");
    let all_ms: f64 = run.applies.iter().map(|a| a.ms).sum();
    let classified_ms: f64 = ms_where(&|a| a.rung.is_some()).iter().sum();
    layer.push(
        "online.attributed_frac",
        classified_ms / all_ms.max(1e-12),
        "frac",
    );
    let multiple = POLICY_NAMES.len() - 1;
    let multiple_applies = run.applies.iter().filter(|a| a.policy == multiple).count();
    let lp_us = run.lp_us.get(multiple).copied().unwrap_or(0.0);
    layer.push(
        "lp.churn.solve_us",
        lp_us / multiple_applies.max(1) as f64,
        "us",
    );
    layer.push(
        "online.unserved.disconnected",
        mean(
            run.applies
                .iter()
                .map(|a| f64::from(a.disconnected))
                .collect(),
        ),
        "count",
    );
    layer.push(
        "online.unserved.unplaced",
        mean(run.applies.iter().map(|a| f64::from(a.unplaced)).collect()),
        "count",
    );
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// `count` operations per second of the summed `ms`.
fn per_second(ms: &[f64], count: usize) -> f64 {
    1e3 * count as f64 / ms.iter().sum::<f64>()
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    rp_obs::nearest_rank(&sorted, q)
}

fn median(samples: Vec<f64>) -> f64 {
    quantile(&samples, 0.5)
}

fn mean(samples: Vec<f64>) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}
