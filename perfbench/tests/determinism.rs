//! Seeded determinism and metric-catalogue checks. Each run does real
//! s = 2000 work, so run these in release mode:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

#![allow(clippy::disallowed_methods)]

use std::sync::Mutex;

use perfbench::{run, setup, Options, Report, Workload};

/// Runs switch the process-wide `rp-obs` mode; one at a time.
static RUN_LOCK: Mutex<()> = Mutex::new(());

fn traced(seed: u64) -> Report {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    run(&Options {
        workload: Workload::Heterogeneous,
        seed,
        seconds: 1,
        trace: true,
        trace_dir: None,
    })
}

/// Metrics that count work or judge answers: they must repeat exactly
/// under a seed.
const COUNTS: [&str; 15] = [
    "sweep.success_rate",
    "sweep.cost_ratio",
    "online.served_frac",
    "lp.sweep.iterations",
    "lp.sweep.warm_hit_frac",
    "lp.cold.iterations",
    "lp.cold.refactorisations",
    "lp.warm.iterations",
    "lp.s400.warm_iterations",
    "online.rung.surgical.count",
    "online.rung.lp_repair.count",
    "online.rung.rerun.count",
    "online.rung.degraded.count",
    "online.unserved.disconnected",
    "online.unserved.unplaced",
];

#[test]
fn the_same_seed_repeats_every_count_and_every_check_passes() {
    let a = traced(7);
    let b = traced(7);
    assert_eq!(a.checks.failed, 0, "{:?}", a.checks);
    assert!(a.checks.attempted > 0);
    assert_eq!(a.checks.attempted, b.checks.attempted);
    assert_eq!(a.fingerprint, b.fingerprint);
    for name in COUNTS {
        let value = a.value(name);
        assert!(value.is_some(), "{name} is not reported");
        assert_eq!(value, b.value(name), "{name} differs between runs");
    }
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    for workload in Workload::ALL {
        let (a, _) = setup::build(workload, 7, 12);
        let (b, _) = setup::build(workload, 8, 12);
        assert_ne!(a.fingerprint, b.fingerprint, "{}", workload.name());
        let (again, _) = setup::build(workload, 7, 12);
        assert_eq!(a.fingerprint, again.fingerprint, "{}", workload.name());
    }
}

/// Names listed in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn reported_metrics_match_the_benchmark_catalogue() {
    let report = traced(3);
    let names = |metrics: &[perfbench::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    assert_eq!(names(&report.end_to_end), catalogue("end_to_end"));
    assert_eq!(names(&report.per_layer), catalogue("per_layer"));
    let line = report.result_json(false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));
}
