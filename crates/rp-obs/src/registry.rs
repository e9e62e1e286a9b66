//! The metric registry: enum-indexed atomic counters, gauges and
//! latency histograms, plus the machine-readable metrics JSON export.
//!
//! Every metric is declared once in the tables below — name, unit and
//! owning layer travel with the enum variant, so the JSON export, the
//! crate-docs catalogue and the perf-budget gate all read one source
//! of truth. Counting is a single relaxed `fetch_add`; reading is
//! lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::histogram::Histogram;
use crate::json::{push_json_f64, push_json_string};

macro_rules! metric_enum {
    (
        $(#[$meta:meta])*
        $enum_name:ident : $( $variant:ident => ($name:literal, $unit:literal, $layer:literal) ),+ $(,)?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum $enum_name {
            $( #[doc = concat!("`", $name, "` — ", $unit, " (", $layer, ")")] $variant ),+
        }

        impl $enum_name {
            /// Every variant, in declaration (= export) order.
            pub const ALL: [$enum_name; [$($name),+].len()] = [ $( $enum_name::$variant ),+ ];
            /// Number of variants.
            pub const COUNT: usize = Self::ALL.len();

            /// The wire name of the metric.
            pub fn name(self) -> &'static str {
                match self { $( $enum_name::$variant => $name ),+ }
            }
            /// The unit (`"1"` for dimensionless counts).
            pub fn unit(self) -> &'static str {
                match self { $( $enum_name::$variant => $unit ),+ }
            }
            /// The workspace layer that records the metric.
            pub fn layer(self) -> &'static str {
                match self { $( $enum_name::$variant => $layer ),+ }
            }
            #[inline]
            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Monotonic counters (`u64`, relaxed atomics).
    Counter :
    // --- rp-lp: per-solve simplex statistics, summed over solves. ---
    LpSolves => ("lp.solves", "1", "rp-lp"),
    LpPhase1Pivots => ("lp.phase1_pivots", "1", "rp-lp"),
    LpPhase2Pivots => ("lp.phase2_pivots", "1", "rp-lp"),
    LpDualPivots => ("lp.dual_pivots", "1", "rp-lp"),
    LpBoundFlips => ("lp.bound_flips", "1", "rp-lp"),
    LpDegeneratePivots => ("lp.degenerate_pivots", "1", "rp-lp"),
    LpRefactorisations => ("lp.refactor.count", "1", "rp-lp"),
    LpRefactorScheduled => ("lp.refactor.scheduled", "1", "rp-lp"),
    LpRefactorFtRefused => ("lp.refactor.ft_refused", "1", "rp-lp"),
    LpWarmCold => ("lp.warm.cold", "1", "rp-lp"),
    LpWarmHit => ("lp.warm.hit", "1", "rp-lp"),
    LpWarmRefactor => ("lp.warm.refactor", "1", "rp-lp"),
    LpWarmModeChangeCold => ("lp.warm.mode_change_cold", "1", "rp-lp"),
    LpPresolveRowsRemoved => ("lp.presolve.rows_removed", "1", "rp-lp"),
    LpPresolveColsRemoved => ("lp.presolve.cols_removed", "1", "rp-lp"),
    LpDualBoundFlips => ("lp.dual.bound_flips", "1", "rp-lp"),
    LpFtranCalls => ("lp.ftran.calls", "1", "rp-lp"),
    LpFtranInNnz => ("lp.ftran.in_nnz", "1", "rp-lp"),
    LpFtranDim => ("lp.ftran.dim", "1", "rp-lp"),
    LpBtranCalls => ("lp.btran.calls", "1", "rp-lp"),
    LpBtranInNnz => ("lp.btran.in_nnz", "1", "rp-lp"),
    LpBtranDim => ("lp.btran.dim", "1", "rp-lp"),
    LpPhasePricingNs => ("lp.phase.pricing_ns", "ns", "rp-lp"),
    LpPhaseFtranNs => ("lp.phase.ftran_ns", "ns", "rp-lp"),
    LpPhaseBtranNs => ("lp.phase.btran_ns", "ns", "rp-lp"),
    LpPhaseRatioTestNs => ("lp.phase.ratio_test_ns", "ns", "rp-lp"),
    LpPhaseFactoriseNs => ("lp.phase.factorise_ns", "ns", "rp-lp"),
    LpPhaseFtUpdateNs => ("lp.phase.ft_update_ns", "ns", "rp-lp"),
    LpPhasePresolveNs => ("lp.phase.presolve_ns", "ns", "rp-lp"),
    LpPhaseScalingNs => ("lp.phase.scaling_ns", "ns", "rp-lp"),
    LpPhaseExtractNs => ("lp.phase.extract_ns", "ns", "rp-lp"),
    // --- rp-core: heuristics, LP-guided rounding, failure repair. ---
    CoreHeuristicRuns => ("core.heuristic.runs", "1", "rp-core"),
    CoreHeuristicFailures => ("core.heuristic.failures", "1", "rp-core"),
    CoreLpgRounds => ("core.lpg.rounds", "1", "rp-core"),
    CoreLpgWinCommitSaturate => ("core.lpg.win.commit_saturate", "1", "rp-core"),
    CoreLpgWinThinGuided => ("core.lpg.win.thin_guided", "1", "rp-core"),
    CoreLpgMiss => ("core.lpg.miss", "1", "rp-core"),
    CoreLpgMovesRehome => ("core.lpg.moves.rehome", "1", "rp-core"),
    CoreLpgMovesEscalateOpen => ("core.lpg.moves.escalate_open", "1", "rp-core"),
    CoreLpgMovesRescue => ("core.lpg.moves.rescue", "1", "rp-core"),
    CoreLpgMovesPushDown => ("core.lpg.moves.push_down", "1", "rp-core"),
    CoreLpgMovesPruneDrop => ("core.lpg.moves.prune_drop", "1", "rp-core"),
    CoreLpgMovesConsolidate => ("core.lpg.moves.consolidate", "1", "rp-core"),
    CoreRepairRungSurgical => ("core.repair.rung.surgical", "1", "rp-core"),
    CoreRepairRungLpRepair => ("core.repair.rung.lp_repair", "1", "rp-core"),
    CoreRepairRungRerun => ("core.repair.rung.rerun", "1", "rp-core"),
    CoreRepairRungDegraded => ("core.repair.rung.degraded", "1", "rp-core"),
    CoreRepairDroppedClients => ("core.repair.dropped_clients", "1", "rp-core"),
    CoreRepairRungsSkipped => ("core.repair.rungs_skipped", "1", "rp-core"),
    CoreIlpMixedNodeLimit => ("core.ilp.mixed_node_limit", "1", "rp-core"),
    // --- rp-online: the incremental placement engine. ---
    OnlineApplies => ("online.applies", "1", "rp-online"),
    OnlineRollbacks => ("online.rollbacks", "1", "rp-online"),
    OnlineDeferred => ("online.deferred", "1", "rp-online"),
    // --- rp-experiments: sweep drivers. ---
    ExpTrials => ("exp.trials", "1", "rp-experiments"),
    ExpSiblingTrials => ("exp.sibling_trials", "1", "rp-experiments"),
    ExpInfeasibleTrials => ("exp.infeasible_trials", "1", "rp-experiments"),
    ExpClosedFormBounds => ("exp.closed_form_bounds", "1", "rp-experiments"),
    ExpScenarioTrials => ("exp.scenario_trials", "1", "rp-experiments"),
    ExpResilienceTrials => ("exp.resilience_trials", "1", "rp-experiments"),
    ExpChurnTrials => ("exp.churn_trials", "1", "rp-experiments"),
    // --- rp-obs: the telemetry layer watching itself. ---
    TraceEventsDropped => ("trace.events_dropped", "1", "rp-obs"),
    RecRecords => ("rec.records", "1", "rp-obs"),
    RecAnomalies => ("rec.anomalies", "1", "rp-obs"),
    RecDumps => ("rec.dumps", "1", "rp-obs"),
    RecAnomalySlow => ("rec.anomaly.slow", "1", "rp-obs"),
    RecAnomalyBudgetMiss => ("rec.anomaly.budget_miss", "1", "rp-obs"),
    RecAnomalyRollback => ("rec.anomaly.rollback", "1", "rp-obs"),
}

metric_enum! {
    /// Last-value / high-watermark gauges (`u64`).
    Gauge :
    LpFactorNnzL => ("lp.factor.nnz_l", "nnz", "rp-lp"),
    LpFactorNnzU => ("lp.factor.nnz_u", "nnz", "rp-lp"),
    LpEtaChainMax => ("lp.eta_chain.max", "updates", "rp-lp"),
    LpLastIterations => ("lp.last.iterations", "1", "rp-lp"),
    OnlineGeneration => ("online.generation", "1", "rp-online"),
}

metric_enum! {
    /// Latency histograms (microsecond samples, 1–2–5 buckets).
    HistId :
    LpSolveUs => ("lp.solve_us", "us", "rp-lp"),
    CoreHeuristicUs => ("core.heuristic_us", "us", "rp-core"),
    CoreLpgRoundUs => ("core.lpg.round_us", "us", "rp-core"),
    CoreRepairUs => ("core.repair_us", "us", "rp-core"),
    ExpTrialUs => ("exp.trial_us", "us", "rp-experiments"),
    ExpLpBoundUs => ("exp.lp_bound_us", "us", "rp-experiments"),
    ExpHeuristicsUs => ("exp.heuristics_us", "us", "rp-experiments"),
    ExpResilienceTrialUs => ("exp.resilience_trial_us", "us", "rp-experiments"),
    OnlineApplyUs => ("online.apply_us", "us", "rp-online"),
}

/// A registry of every declared counter, gauge and histogram.
///
/// Instantiable (unit tests and per-worker scratch use private
/// registries); the process-wide instance lives behind [`global`].
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Box<[AtomicU64]>,
    gauges: Box<[AtomicU64]>,
    hists: Box<[Histogram]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An all-zero registry.
    pub fn new() -> Self {
        Self {
            counters: (0..Counter::COUNT).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..Gauge::COUNT).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..HistId::COUNT).map(|_| Histogram::new()).collect(),
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Sets a gauge to `value` (last write wins).
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].store(value, Ordering::Relaxed);
    }

    /// Raises a gauge to `value` if larger (high-watermark).
    #[inline]
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Current gauge value.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()].load(Ordering::Relaxed)
    }

    /// The histogram behind `id`.
    pub fn histogram(&self, id: HistId) -> &Histogram {
        &self.hists[id.index()]
    }

    /// Records one microsecond sample into histogram `id`.
    #[inline]
    pub fn record_us(&self, id: HistId, value_us: u64) {
        self.hists[id.index()].record_us(value_us);
    }

    /// Adds every count and sample of `other` into `self` (counters
    /// add; gauges take the max / last value; histograms merge
    /// bucket-wise).
    pub fn merge_from(&self, other: &MetricsRegistry) {
        for (mine, theirs) in self.counters.iter().zip(other.counters.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        for (mine, theirs) in self.gauges.iter().zip(other.gauges.iter()) {
            mine.fetch_max(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (mine, theirs) in self.hists.iter().zip(other.hists.iter()) {
            mine.merge_from(theirs);
        }
    }

    /// Zeroes every metric.
    pub fn reset(&self) {
        for counter in self.counters.iter() {
            counter.store(0, Ordering::Relaxed);
        }
        for gauge in self.gauges.iter() {
            gauge.store(0, Ordering::Relaxed);
        }
        for hist in self.hists.iter() {
            hist.reset();
        }
    }

    /// Renders the whole registry as a metrics JSON document:
    /// `{"schema":1,"mode":...,"counters":{...},"gauges":{...},
    /// "histograms":{name:{count,sum_us,min_us,max_us,mean_us,p50_us,
    /// p99_us}},"derived":{...}}`.
    pub fn metrics_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":1,\"mode\":");
        push_json_string(&mut out, crate::mode().as_str());
        out.push_str(",\"counters\":{");
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, counter.name());
            out.push(':');
            out.push_str(&self.counter(counter).to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, &gauge) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, gauge.name());
            out.push(':');
            out.push_str(&self.gauge(gauge).to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, &id) in HistId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hist = self.histogram(id);
            push_json_string(&mut out, id.name());
            out.push_str(&format!(
                ":{{\"count\":{},\"sum_us\":{},\"min_us\":{},\"max_us\":{},\"mean_us\":",
                hist.count(),
                hist.sum_us(),
                hist.min_us(),
                hist.max_us()
            ));
            push_json_f64(&mut out, hist.mean_us());
            out.push_str(&format!(
                ",\"p50_us\":{},\"p99_us\":{}}}",
                hist.p50_us(),
                hist.p99_us()
            ));
        }
        out.push_str("},\"derived\":{");
        let ratios = [
            (
                "lp.ftran.skip_ratio",
                self.skip_ratio(Counter::LpFtranInNnz, Counter::LpFtranDim),
            ),
            (
                "lp.btran.skip_ratio",
                self.skip_ratio(Counter::LpBtranInNnz, Counter::LpBtranDim),
            ),
            ("lp.warm.rate", self.warm_start_rate()),
        ];
        for (i, (name, value)) in ratios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            push_json_f64(&mut out, *value);
        }
        out.push_str("}}");
        out
    }

    fn skip_ratio(&self, in_nnz: Counter, dim: Counter) -> f64 {
        let dim = self.counter(dim);
        if dim == 0 {
            return 0.0;
        }
        1.0 - self.counter(in_nnz) as f64 / dim as f64
    }

    /// Fraction of solves that rode an existing basis (warm hit or
    /// warm-with-refactor) out of all warm-classified solves.
    pub fn warm_start_rate(&self) -> f64 {
        let warm = self.counter(Counter::LpWarmHit) + self.counter(Counter::LpWarmRefactor);
        let total =
            warm + self.counter(Counter::LpWarmCold) + self.counter(Counter::LpWarmModeChangeCold);
        if total == 0 {
            return 0.0;
        }
        warm as f64 / total as f64
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every instrumentation site publishes to.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Renders the metric catalogue (name, type, unit, layer) as a
/// markdown table — the machine-checked source of the crate-docs
/// catalogue.
pub fn catalogue_markdown() -> String {
    let mut out = String::from("| metric | type | unit | layer |\n|---|---|---|---|\n");
    for &c in Counter::ALL.iter() {
        out.push_str(&format!(
            "| `{}` | counter | {} | {} |\n",
            c.name(),
            c.unit(),
            c.layer()
        ));
    }
    for &g in Gauge::ALL.iter() {
        out.push_str(&format!(
            "| `{}` | gauge | {} | {} |\n",
            g.name(),
            g.unit(),
            g.layer()
        ));
    }
    for &h in HistId::ALL.iter() {
        out.push_str(&format!(
            "| `{}` | histogram | {} | {} |\n",
            h.name(),
            h.unit(),
            h.layer()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_across_all_kinds() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::LpSolves, 2);
        reg.add(Counter::LpSolves, 3);
        assert_eq!(reg.counter(Counter::LpSolves), 5);
        reg.reset();
        assert_eq!(reg.counter(Counter::LpSolves), 0);
    }

    #[test]
    fn counters_merge_across_threads() {
        let shared = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let local = MetricsRegistry::new();
                    for _ in 0..1000 {
                        local.add(Counter::LpPhase2Pivots, 1);
                        local.record_us(HistId::LpSolveUs, 10);
                    }
                    shared.merge_from(&local);
                });
            }
        });
        assert_eq!(shared.counter(Counter::LpPhase2Pivots), 4000);
        assert_eq!(shared.histogram(HistId::LpSolveUs).count(), 4000);
    }

    #[test]
    fn concurrent_writers_on_one_registry_lose_nothing() {
        let shared = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        shared.add(Counter::LpBoundFlips, 1);
                    }
                });
            }
        });
        assert_eq!(shared.counter(Counter::LpBoundFlips), 4000);
    }

    #[test]
    fn gauges_track_last_value_and_watermark() {
        let reg = MetricsRegistry::new();
        reg.gauge_set(Gauge::LpFactorNnzL, 10);
        reg.gauge_set(Gauge::LpFactorNnzL, 4);
        assert_eq!(reg.gauge(Gauge::LpFactorNnzL), 4);
        reg.gauge_max(Gauge::LpEtaChainMax, 7);
        reg.gauge_max(Gauge::LpEtaChainMax, 3);
        assert_eq!(reg.gauge(Gauge::LpEtaChainMax), 7);
    }

    #[test]
    fn metrics_json_mentions_every_metric_name() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::LpSolves, 1);
        reg.record_us(HistId::LpSolveUs, 3300);
        let json = reg.metrics_json();
        for &c in Counter::ALL.iter() {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        for &h in HistId::ALL.iter() {
            assert!(json.contains(h.name()), "missing {}", h.name());
        }
        assert!(json.contains("\"lp.ftran.skip_ratio\""));
        assert!(json.contains("\"schema\":1"));
    }

    #[test]
    fn derived_ratios_divide_safely() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.warm_start_rate(), 0.0);
        reg.add(Counter::LpWarmHit, 3);
        reg.add(Counter::LpWarmCold, 1);
        assert_eq!(reg.warm_start_rate(), 0.75);
        reg.add(Counter::LpFtranDim, 100);
        reg.add(Counter::LpFtranInNnz, 10);
        let json = reg.metrics_json();
        assert!(json.contains("\"lp.ftran.skip_ratio\":0.9"));
    }

    #[test]
    fn catalogue_lists_every_metric() {
        let md = catalogue_markdown();
        for &c in Counter::ALL.iter() {
            assert!(md.contains(c.name()));
        }
        for &h in HistId::ALL.iter() {
            assert!(md.contains(h.name()));
        }
    }
}
