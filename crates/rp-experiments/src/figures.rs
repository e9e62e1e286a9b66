//! One driver per reproduced figure.
//!
//! Each [`FigureId`] maps to an experiment configuration and a pair of
//! tables (success rate and/or relative cost). The `reproduce` binary in
//! `rp-bench` and the criterion benchmarks both go through this module,
//! so the data behind a figure is always produced by exactly one code
//! path.

use rp_core::Heuristic;

use crate::report::{relative_cost_table, runtime_table, success_table, SeriesTable};
use crate::runner::{run_sweep, ExperimentConfig, SweepResults};

/// The figures of the paper's evaluation section (plus the QoS
/// extension sweep described in Section 8 / the trailing arXiv plots,
/// plus the full paper-scale `15 ≤ s ≤ 400` variants the sparse-LU
/// revised engine makes tractable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FigureId {
    /// Figure 9 — homogeneous platforms, percentage of success.
    Fig9HomogeneousSuccess,
    /// Figure 10 — homogeneous platforms, relative cost.
    Fig10HomogeneousCost,
    /// Figure 11 — heterogeneous platforms, percentage of success.
    Fig11HeterogeneousSuccess,
    /// Figure 12 — heterogeneous platforms, relative cost.
    Fig12HeterogeneousCost,
    /// Extension — homogeneous platforms with a uniform QoS bound.
    QosSweep,
    /// Paper-scale sweep (sizes up to `s = 400`), percentage of success.
    PaperScaleSuccess,
    /// Paper-scale sweep (sizes up to `s = 400`), relative cost.
    PaperScaleCost,
}

impl FigureId {
    /// All reproduced figures.
    pub const ALL: [FigureId; 7] = [
        FigureId::Fig9HomogeneousSuccess,
        FigureId::Fig10HomogeneousCost,
        FigureId::Fig11HeterogeneousSuccess,
        FigureId::Fig12HeterogeneousCost,
        FigureId::QosSweep,
        FigureId::PaperScaleSuccess,
        FigureId::PaperScaleCost,
    ];

    /// The standard (scaled-down) figures the `reproduce all` run
    /// regenerates.
    pub const STANDARD: [FigureId; 5] = [
        FigureId::Fig9HomogeneousSuccess,
        FigureId::Fig10HomogeneousCost,
        FigureId::Fig11HeterogeneousSuccess,
        FigureId::Fig12HeterogeneousCost,
        FigureId::QosSweep,
    ];

    /// The full paper-scale variants (`reproduce paper`): the same
    /// success/relative-cost curves, with problem sizes drawn from the
    /// paper's full `15 ≤ s ≤ 400` range on the revised engine.
    pub const PAPER_SCALE: [FigureId; 2] = [FigureId::PaperScaleSuccess, FigureId::PaperScaleCost];

    /// Short identifier used on the command line (`fig9`, `fig10`, …).
    pub fn key(self) -> &'static str {
        match self {
            FigureId::Fig9HomogeneousSuccess => "fig9",
            FigureId::Fig10HomogeneousCost => "fig10",
            FigureId::Fig11HeterogeneousSuccess => "fig11",
            FigureId::Fig12HeterogeneousCost => "fig12",
            FigureId::QosSweep => "qos",
            FigureId::PaperScaleSuccess => "paper-success",
            FigureId::PaperScaleCost => "paper-cost",
        }
    }

    /// Parses a command-line key.
    pub fn from_key(key: &str) -> Option<FigureId> {
        FigureId::ALL.iter().copied().find(|f| f.key() == key)
    }

    /// Human-readable title (matches the paper's captions).
    pub fn title(self) -> &'static str {
        match self {
            FigureId::Fig9HomogeneousSuccess => {
                "Figure 9: Homogeneous case - Percentage of success"
            }
            FigureId::Fig10HomogeneousCost => "Figure 10: Homogeneous case - Relative cost",
            FigureId::Fig11HeterogeneousSuccess => {
                "Figure 11: Heterogeneous case - Percentage of success"
            }
            FigureId::Fig12HeterogeneousCost => "Figure 12: Heterogeneous case - Relative cost",
            FigureId::QosSweep => "Extension: Homogeneous case with QoS=distance bound",
            FigureId::PaperScaleSuccess => "Paper scale (15 <= s <= 400): Percentage of success",
            FigureId::PaperScaleCost => "Paper scale (15 <= s <= 400): Relative cost",
        }
    }

    /// The experiment configuration behind this figure.
    pub fn config(self) -> ExperimentConfig {
        match self {
            FigureId::Fig9HomogeneousSuccess | FigureId::Fig10HomogeneousCost => {
                ExperimentConfig::homogeneous()
            }
            FigureId::Fig11HeterogeneousSuccess | FigureId::Fig12HeterogeneousCost => {
                ExperimentConfig::heterogeneous()
            }
            FigureId::QosSweep => ExperimentConfig {
                qos_hops: Some(3),
                ..ExperimentConfig::homogeneous()
            },
            FigureId::PaperScaleSuccess | FigureId::PaperScaleCost => {
                ExperimentConfig::paper_scale()
            }
        }
    }

    /// Which table of a sweep this figure plots.
    pub fn table(self, results: &SweepResults) -> SeriesTable {
        match self {
            FigureId::Fig9HomogeneousSuccess
            | FigureId::Fig11HeterogeneousSuccess
            | FigureId::QosSweep
            | FigureId::PaperScaleSuccess => success_table(results),
            FigureId::Fig10HomogeneousCost
            | FigureId::Fig12HeterogeneousCost
            | FigureId::PaperScaleCost => relative_cost_table(results),
        }
    }
}

/// The rendered output for one figure.
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// Which figure this is.
    pub figure: FigureId,
    /// The main data table (success rate or relative cost).
    pub table: SeriesTable,
    /// Problem-size / runtime summary of the underlying sweep.
    pub runtime: SeriesTable,
    /// The sweep both tables were computed from.
    pub results: SweepResults,
}

impl FigureReport {
    /// The paper's qualitative claims that this figure's sweep violates
    /// (empty = every claim holds): [`check_success_shape`] for a
    /// success-rate figure, [`check_cost_shape`] for a relative-cost one.
    pub fn shape_violations(&self) -> Vec<String> {
        match self.figure {
            FigureId::Fig9HomogeneousSuccess
            | FigureId::Fig11HeterogeneousSuccess
            | FigureId::QosSweep
            | FigureId::PaperScaleSuccess => check_success_shape(&self.results),
            FigureId::Fig10HomogeneousCost
            | FigureId::Fig12HeterogeneousCost
            | FigureId::PaperScaleCost => check_cost_shape(&self.results),
        }
    }

    /// Renders the report as markdown (title + table).
    pub fn to_markdown(&self) -> String {
        format!(
            "## {}\n\n{}\n### Sweep summary\n\n{}",
            self.figure.title(),
            self.table.to_markdown(),
            self.runtime.to_markdown()
        )
    }
}

/// Runs the sweep behind `figure` with its default configuration.
pub fn reproduce_figure(figure: FigureId) -> FigureReport {
    reproduce_figure_with(figure, &figure.config())
}

/// Runs the sweep behind `figure` with an explicit configuration
/// (smaller sizes, different seeds, …).
pub fn reproduce_figure_with(figure: FigureId, config: &ExperimentConfig) -> FigureReport {
    let results = run_sweep(config);
    FigureReport {
        figure,
        table: figure.table(&results),
        runtime: runtime_table(&results),
        results,
    }
}

/// Checks the qualitative claims the paper makes about a success-rate
/// sweep; used by integration tests and the `reproduce` binary's
/// self-check mode. Returns a list of violated expectations (empty =
/// every expectation holds).
pub fn check_success_shape(results: &SweepResults) -> Vec<String> {
    let mut violations = Vec::new();
    for batch in &results.batches {
        let lp = batch.lp_success_rate();
        let mg = batch.success_rate(Heuristic::Mg);
        let mb = batch.success_rate(Heuristic::MixedBest);
        // MG (and therefore MixedBest) succeed exactly on the solvable trees.
        if (mg - lp).abs() > 1e-9 {
            violations.push(format!(
                "λ={:.1}: MG success {:.3} differs from LP success {:.3}",
                batch.lambda, mg, lp
            ));
        }
        if (mb - lp).abs() > 1e-9 {
            violations.push(format!(
                "λ={:.1}: MixedBest success {:.3} differs from LP success {:.3}",
                batch.lambda, mb, lp
            ));
        }
        // The Closest heuristics can never succeed on more trees than MG.
        for h in [Heuristic::Ctda, Heuristic::Ctdlf, Heuristic::Cbu] {
            if batch.success_rate(h) > mg + 1e-9 {
                violations.push(format!(
                    "λ={:.1}: {} succeeds more often than MG",
                    batch.lambda, h
                ));
            }
        }
    }
    // The Closest success rate must not increase as λ grows beyond the
    // point where it starts failing (the collapse seen in Figures 9/11).
    // We check the weaker monotone-ish property: the last λ's Closest
    // success is no better than the first λ's.
    if let (Some(first), Some(last)) = (results.batches.first(), results.batches.last()) {
        for h in [Heuristic::Ctda, Heuristic::Cbu] {
            if last.success_rate(h) > first.success_rate(h) + 1e-9 {
                violations.push(format!(
                    "{}: success at λ={:.1} exceeds success at λ={:.1}",
                    h, last.lambda, first.lambda
                ));
            }
        }
    }
    violations
}

/// Checks the qualitative claims about a relative-cost sweep: MixedBest
/// dominates every other heuristic and never exceeds 1.
pub fn check_cost_shape(results: &SweepResults) -> Vec<String> {
    let mut violations = Vec::new();
    for batch in &results.batches {
        let mb = batch.relative_cost(Heuristic::MixedBest);
        if mb > 1.0 + 1e-9 {
            violations.push(format!(
                "λ={:.1}: MixedBest relative cost {:.3} exceeds 1 (bound not a lower bound?)",
                batch.lambda, mb
            ));
        }
        for &h in &results.config.heuristics {
            let rc = batch.relative_cost(h);
            if rc > mb + 1e-9 {
                violations.push(format!(
                    "λ={:.1}: {} relative cost {:.3} exceeds MixedBest {:.3}",
                    batch.lambda, h, rc, mb
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_keys_round_trip() {
        for figure in FigureId::ALL {
            assert_eq!(FigureId::from_key(figure.key()), Some(figure));
            assert!(!figure.title().is_empty());
        }
        assert_eq!(FigureId::from_key("nope"), None);
    }

    #[test]
    fn figure_configs_match_their_platform() {
        use rp_workloads::platform::PlatformKind;
        assert_eq!(
            FigureId::Fig9HomogeneousSuccess.config().platform,
            PlatformKind::default_homogeneous()
        );
        assert_eq!(
            FigureId::Fig12HeterogeneousCost.config().platform,
            PlatformKind::default_heterogeneous()
        );
        assert_eq!(FigureId::QosSweep.config().qos_hops, Some(3));
    }

    #[test]
    fn smoke_reproduction_produces_tables_and_passes_shape_checks() {
        let config = ExperimentConfig::smoke_test();
        let report = reproduce_figure_with(FigureId::Fig9HomogeneousSuccess, &config);
        assert_eq!(report.table.num_rows(), config.lambdas.len());
        assert!(report.to_markdown().contains("Figure 9"));

        let success_violations = report.shape_violations();
        assert!(
            success_violations.is_empty(),
            "shape violations: {success_violations:?}"
        );
        let cost_violations = check_cost_shape(&report.results);
        assert!(
            cost_violations.is_empty(),
            "shape violations: {cost_violations:?}"
        );
    }

    #[test]
    fn cost_figures_use_the_relative_cost_table() {
        let config = ExperimentConfig::smoke_test();
        let report = reproduce_figure_with(FigureId::Fig10HomogeneousCost, &config);
        // The cost table has no LP column.
        assert!(!report.table.headers.contains(&"LP".to_string()));
        let report = reproduce_figure_with(FigureId::Fig9HomogeneousSuccess, &config);
        assert!(report.table.headers.contains(&"LP".to_string()));
    }
}
