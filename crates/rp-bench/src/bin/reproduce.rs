//! Regenerates the data series behind every reproduced figure of the
//! paper (Figures 9–12 plus the QoS extension sweep) and the
//! problem-variant scenario sweeps (bandwidth-constrained and
//! multi-object LP bounds).
//!
//! ```text
//! # the full default sweeps (30 trees per λ, sizes 15..=100):
//! cargo run --release -p rp-bench --bin reproduce -- all
//!
//! # the paper-scale sweeps (sizes 15..=400, sparse-LU revised engine):
//! cargo run --release -p rp-bench --bin reproduce -- paper
//!
//! # the bandwidth-constrained / multi-object scenario sweeps:
//! cargo run --release -p rp-bench --bin reproduce -- bandwidth
//! cargo run --release -p rp-bench --bin reproduce -- multi
//!
//! # the resilience sweep (single failures, survival/degradation table):
//! cargo run --release -p rp-bench --bin reproduce -- failures
//!
//! # the online churn sweep (2000 deltas per policy, apply latency):
//! cargo run --release -p rp-bench --bin reproduce -- churn
//!
//! # one figure, smaller and faster:
//! cargo run --release -p rp-bench --bin reproduce -- fig9 --quick
//!
//! # write CSV files next to the printed markdown:
//! cargo run --release -p rp-bench --bin reproduce -- all --out results/
//!
//! # capture a chrome://tracing timeline and the metrics snapshot
//! # (both flags switch observability to `full` for the run):
//! cargo run --release -p rp-bench --bin reproduce -- bandwidth \
//!     --trace out.trace.json --metrics out.metrics.json
//! ```
//!
//! The printed tables have one row per load factor λ and one column per
//! heuristic (figures) or per bound metric (scenarios) — the same
//! series as the paper's plots.

use std::path::PathBuf;

use rp_experiments::churn::{churn_markdown, churn_table, run_churn, ChurnRunConfig};
use rp_experiments::failures::{
    resilience_markdown, resilience_table, run_resilience, ResilienceConfig,
};
use rp_experiments::figures::{reproduce_figure_with, FigureId};
use rp_experiments::runner::ExperimentConfig;
use rp_experiments::scenarios::{
    run_scenario, scenario_markdown, scenario_table, ScenarioConfig, ScenarioFamily,
};

struct CliOptions {
    figures: Vec<FigureId>,
    scenarios: Vec<ScenarioFamily>,
    resilience: bool,
    churn: bool,
    quick: bool,
    budget_ms: Option<u64>,
    trees: Option<usize>,
    size_max: Option<usize>,
    out_dir: Option<PathBuf>,
    check_shape: bool,
    bound: Option<rp_core::ilp::BoundKind>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut figures = Vec::new();
    let mut scenarios = Vec::new();
    let mut resilience = false;
    let mut churn = false;
    let mut quick = false;
    let mut budget_ms = None;
    let mut trees = None;
    let mut size_max = None;
    let mut out_dir = None;
    let mut check_shape = false;
    let mut bound = None;
    let mut trace_out = None;
    let mut metrics_out = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "all" => figures.extend(FigureId::STANDARD),
            "paper" => figures.extend(FigureId::PAPER_SCALE),
            "bandwidth" => scenarios.extend([
                ScenarioFamily::Bandwidth,
                ScenarioFamily::BandwidthIllScaled,
            ]),
            "multi" => scenarios.extend([
                ScenarioFamily::MultiObject,
                ScenarioFamily::MultiObjectBandwidth,
            ]),
            "failures" => resilience = true,
            "churn" => churn = true,
            "--quick" => quick = true,
            "--check-shape" => check_shape = true,
            "--budget-ms" => {
                let value = iter.next().ok_or("--budget-ms needs a value")?;
                budget_ms = Some(value.parse().map_err(|_| "invalid --budget-ms value")?);
            }
            "--trees" => {
                let value = iter.next().ok_or("--trees needs a value")?;
                trees = Some(value.parse().map_err(|_| "invalid --trees value")?);
            }
            "--size-max" => {
                let value = iter.next().ok_or("--size-max needs a value")?;
                size_max = Some(value.parse().map_err(|_| "invalid --size-max value")?);
            }
            "--out" => {
                let value = iter.next().ok_or("--out needs a directory")?;
                out_dir = Some(PathBuf::from(value));
            }
            "--trace" => {
                let value = iter.next().ok_or("--trace needs a file path")?;
                trace_out = Some(PathBuf::from(value));
            }
            "--metrics" => {
                let value = iter.next().ok_or("--metrics needs a file path")?;
                metrics_out = Some(PathBuf::from(value));
            }
            "--bound" => {
                let value = iter.next().ok_or("--bound needs `rational` or `mixed`")?;
                bound = Some(match value.as_str() {
                    "rational" => rp_core::ilp::BoundKind::Rational,
                    "mixed" => rp_core::ilp::BoundKind::Mixed,
                    other => return Err(format!("unknown bound kind `{other}`")),
                });
            }
            key => match (FigureId::from_key(key), ScenarioFamily::from_key(key)) {
                (Some(figure), _) => figures.push(figure),
                (None, Some(family)) => scenarios.push(family),
                (None, None) => return Err(format!("unknown argument `{key}`")),
            },
        }
    }
    if figures.is_empty() && scenarios.is_empty() && !resilience && !churn {
        figures.extend(FigureId::STANDARD);
    }
    figures.dedup();
    scenarios.dedup();
    Ok(CliOptions {
        figures,
        scenarios,
        resilience,
        churn,
        quick,
        budget_ms,
        trees,
        size_max,
        out_dir,
        check_shape,
        bound,
        trace_out,
        metrics_out,
    })
}

/// Writes the trace/metrics exports requested on the command line.
/// Called once, after every sweep has completed and the tree-sharded
/// worker pools have joined (their thread-local trace buffers flush on
/// join; the exporter flushes the main thread itself).
fn export_observability(options: &CliOptions) {
    if let Some(path) = &options.trace_out {
        if let Err(error) = rp_obs::write_chrome_trace(path) {
            eprintln!("error: cannot write {}: {error}", path.display());
            std::process::exit(1);
        }
        eprintln!("  wrote {}", path.display());
    }
    if let Some(path) = &options.metrics_out {
        if let Err(error) = rp_obs::write_metrics_json(path) {
            eprintln!("error: cannot write {}: {error}", path.display());
            std::process::exit(1);
        }
        eprintln!("  wrote {}", path.display());
    }
}

fn configure(figure: FigureId, options: &CliOptions) -> ExperimentConfig {
    let mut config = figure.config();
    if options.quick {
        config.trees_per_lambda = 8;
        config.size_range = (15, 40);
    }
    if let Some(trees) = options.trees {
        config.trees_per_lambda = trees;
    }
    if let Some(size_max) = options.size_max {
        config.size_range = (config.size_range.0.min(size_max), size_max);
    }
    if let Some(bound) = options.bound {
        config.bound = bound;
    }
    config
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: reproduce [all|paper|bandwidth|multi|failures|churn|fig9|fig10|fig11|fig12|qos\
                 |paper-success|paper-cost|bandwidth-ill|multi-bandwidth]... \
                 [--quick] [--trees N] [--size-max S] [--budget-ms MS] \
                 [--bound rational|mixed] \
                 [--out DIR] [--check-shape] [--trace FILE] [--metrics FILE]"
            );
            std::process::exit(2);
        }
    };

    // `RP_OBS` can select any mode; asking for an export implies `full`
    // (a trace of an uninstrumented run would be empty).
    rp_obs::init_from_env();
    if options.trace_out.is_some() || options.metrics_out.is_some() {
        rp_obs::set_mode(rp_obs::ObsMode::Full);
    }

    if let Some(dir) = &options.out_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {error}", dir.display());
            std::process::exit(1);
        }
    }

    let mut shape_failures = 0usize;
    let mut unverified_repairs = 0usize;
    for &figure in &options.figures {
        let config = configure(figure, &options);
        eprintln!(
            "running {} ({} trees per λ, sizes {}..={}) ...",
            figure.key(),
            config.trees_per_lambda,
            config.size_range.0,
            config.size_range.1
        );
        let started = std::time::Instant::now();
        let report = reproduce_figure_with(figure, &config);
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());

        println!("{}", report.to_markdown());

        if let Some(dir) = &options.out_dir {
            let path = dir.join(format!("{}.csv", figure.key()));
            if let Err(error) = std::fs::write(&path, report.table.to_csv()) {
                eprintln!("error: cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!("  wrote {}", path.display());
        }

        if options.check_shape {
            let violations = report.shape_violations();
            if violations.is_empty() {
                eprintln!("  shape check: OK");
            } else {
                shape_failures += violations.len();
                for violation in violations {
                    eprintln!("  shape check FAILED: {violation}");
                }
            }
        }
    }

    for &family in &options.scenarios {
        let mut config = ScenarioConfig::new(family);
        if options.quick {
            config.trees_per_lambda = 4;
            config.problem_size = 60;
        }
        if let Some(trees) = options.trees {
            config.trees_per_lambda = trees;
        }
        if let Some(size_max) = options.size_max {
            config.problem_size = size_max;
        }
        eprintln!(
            "running scenario {} ({} trees per λ, s = {}) ...",
            family.key(),
            config.trees_per_lambda,
            config.problem_size
        );
        let started = std::time::Instant::now();
        let results = run_scenario(&config);
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());

        println!("{}", scenario_markdown(&results));

        if let Some(dir) = &options.out_dir {
            let path = dir.join(format!("{}.csv", family.key()));
            if let Err(error) = std::fs::write(&path, scenario_table(&results).to_csv()) {
                eprintln!("error: cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!("  wrote {}", path.display());
        }
    }

    if options.resilience {
        let mut config = ResilienceConfig::new();
        if options.quick {
            config.trials = 40;
            config.problem_size = 100;
        }
        if let Some(trees) = options.trees {
            config.trials = trees;
        }
        if let Some(size_max) = options.size_max {
            config.problem_size = size_max;
        }
        eprintln!(
            "running resilience sweep ({} trials, s = {}, seed = {}) ...",
            config.trials, config.problem_size, config.seed
        );
        let started = std::time::Instant::now();
        let results = run_resilience(&config);
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());

        println!("{}", resilience_markdown(&results));

        unverified_repairs = results.total_unverified();
        if let Some(dir) = &options.out_dir {
            let path = dir.join("failures.csv");
            if let Err(error) = std::fs::write(&path, resilience_table(&results).to_csv()) {
                eprintln!("error: cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!("  wrote {}", path.display());
        }
    }

    let mut unverified_incumbents = 0usize;
    if options.churn {
        let mut config = ChurnRunConfig::new();
        config.problem_size = 2000;
        if options.quick {
            config.deltas = 400;
            config.problem_size = 400;
        }
        if let Some(size_max) = options.size_max {
            config.problem_size = size_max;
        }
        if options.budget_ms.is_some() {
            // Overriding the per-apply deadline is how the flight
            // recorder's anomaly path is exercised on demand: a
            // deliberately impossible budget forces misses, rollbacks
            // and (under `RP_OBS=counters` + `RP_FLIGHT_DUMP`) dumps.
            config.budget_ms = options.budget_ms;
        }
        let budget = config
            .budget_ms
            .map(|ms| format!("{ms} ms"))
            .unwrap_or_else(|| "unlimited".to_string());
        eprintln!(
            "running churn sweep ({} deltas per policy, s = {}, budget = {}, seed = {}) ...",
            config.deltas, config.problem_size, budget, config.seed
        );
        let started = std::time::Instant::now();
        let results = run_churn(&config);
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());

        println!("{}", churn_markdown(&results));

        unverified_incumbents = results.total_unverified();
        if let Some(dir) = &options.out_dir {
            let path = dir.join("churn.csv");
            if let Err(error) = std::fs::write(&path, churn_table(&results).to_csv()) {
                eprintln!("error: cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!("  wrote {}", path.display());
        }
    }

    export_observability(&options);

    if unverified_incumbents > 0 {
        eprintln!("{unverified_incumbents} online incumbent(s) failed their machine check");
        std::process::exit(1);
    }
    if unverified_repairs > 0 {
        eprintln!("{unverified_repairs} repair outcome(s) failed their machine check");
        std::process::exit(1);
    }
    if shape_failures > 0 {
        eprintln!("{shape_failures} shape expectation(s) violated");
        std::process::exit(1);
    }
}
