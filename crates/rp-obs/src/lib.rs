//! `rp-obs` — the workspace's dependency-free telemetry core.
//!
//! One crate owns every way the replica-placement stack measures
//! itself:
//!
//! * a [`MetricsRegistry`] of atomic **counters**, **gauges** and
//!   fixed-bucket latency **histograms** with exact nearest-rank
//!   p50/p99 extraction ([`Histogram`]);
//! * RAII [`Span`] scoped timers with thread-local span stacks that
//!   aggregate per worker and merge across the tree-sharded pool
//!   ([`span`], [`timed_span`]);
//! * a **chrome://tracing** exporter ([`write_chrome_trace`]) — load
//!   the emitted `.trace.json` straight into chrome://tracing or
//!   Perfetto;
//! * a per-solve **phase profiler** ([`phase_timer`], [`PhaseTimes`])
//!   attributing solver wall time to a fixed set of simplex phases;
//! * a **flight recorder** ([`record_solve`], [`note_anomaly`]) — a
//!   bounded ring of recent solves snapshotted to a JSONL dump when
//!   an anomalous solve fires.
//!
//! Everything is gated by a single global [`ObsMode`]:
//!
//! | mode | counters + histograms | spans → trace |
//! |---|---|---|
//! | `Off` | – | – |
//! | `Counters` | ✓ | – |
//! | `Full` | ✓ | ✓ |
//!
//! `Off` is the default and compiles down to one relaxed atomic load
//! per instrumentation site — instrumented and uninstrumented runs are
//! bit-identical (observation never feeds back into any solver
//! decision; the proptest suite pins this). What observation costs is
//! measured end to end by the benchmark in `perfbench/`: its
//! `obs.overhead_frac.*` metrics give each workload part's traced wall
//! over its plain (`Off`) wall, minus 1.
//!
//! Select the mode programmatically with [`set_mode`] or via the
//! `RP_OBS` environment variable (`off` / `counters` / `full`, read by
//! [`init_from_env`]).
//!
#![doc = include_str!("catalogue.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

mod histogram;
mod json;
mod profile;
mod recorder;
mod registry;
mod span;
mod trace;

pub use histogram::{nearest_rank, Histogram, BUCKET_COUNT, BUCKET_EDGES_US};
pub use json::JsonValue;
pub use profile::{
    phase_timer, reset_solve_profile, take_solve_profile, Phase, PhaseTimer, PhaseTimes,
    PHASE_COUNT,
};
pub use recorder::{
    clear_flight_recorder, flight_recorder, flight_snapshot, last_flight_dump, note_anomaly,
    record_solve, AnomalyKind, FlightRecorder, SolveRecord, FLIGHT_RING_CAP,
};
pub use registry::{catalogue_markdown, global, Counter, Gauge, HistId, MetricsRegistry};
pub use span::{
    current_span_depth, flush_thread_trace, span, span_labeled, timed_span, timed_span_labeled,
    Span, SpanKind,
};
pub use trace::{
    chrome_trace_json, clear_trace, trace_dropped_count, trace_event_count, write_chrome_trace,
    TraceEvent,
};

/// How much the process observes itself. See the crate docs for the
/// gating table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(u8)]
pub enum ObsMode {
    /// No observation: every site is one relaxed load and a branch.
    #[default]
    Off = 0,
    /// Counters, gauges and histograms only.
    Counters = 1,
    /// Counters plus trace spans.
    Full = 2,
}

impl ObsMode {
    /// The wire name (`"off"` / `"counters"` / `"full"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Counters => "counters",
            ObsMode::Full => "full",
        }
    }

    /// Parses a wire name (case-insensitive).
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" => Some(ObsMode::Off),
            "counters" | "1" => Some(ObsMode::Counters),
            "full" | "2" => Some(ObsMode::Full),
            _ => None,
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(ObsMode::Off as u8);

/// Sets the global observability mode.
pub fn set_mode(mode: ObsMode) {
    if mode != ObsMode::Off {
        span::anchor_epoch();
    }
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current global mode.
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        1 => ObsMode::Counters,
        2 => ObsMode::Full,
        _ => ObsMode::Off,
    }
}

/// `true` when counters (and histograms) should record — the single
/// relaxed load every instrumentation site starts with.
#[inline(always)]
pub fn counters_on() -> bool {
    MODE.load(Ordering::Relaxed) != ObsMode::Off as u8
}

/// `true` when trace spans should record too.
#[inline(always)]
pub fn full_on() -> bool {
    MODE.load(Ordering::Relaxed) == ObsMode::Full as u8
}

/// Applies `RP_OBS` from the environment (no-op when unset/invalid).
pub fn init_from_env() {
    if let Some(mode) = std::env::var("RP_OBS")
        .ok()
        .and_then(|s| ObsMode::parse(&s))
    {
        set_mode(mode);
    }
}

/// Increments `counter` by 1 in the global registry (mode-gated).
#[inline]
pub fn incr(counter: Counter) {
    if counters_on() {
        global().add(counter, 1);
    }
}

/// Adds `n` to `counter` in the global registry (mode-gated; zero adds
/// are skipped).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if n > 0 && counters_on() {
        global().add(counter, n);
    }
}

/// Sets `gauge` in the global registry (mode-gated).
#[inline]
pub fn gauge_set(gauge: Gauge, value: u64) {
    if counters_on() {
        global().gauge_set(gauge, value);
    }
}

/// Raises `gauge` to `value` if larger (mode-gated).
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if counters_on() {
        global().gauge_max(gauge, value);
    }
}

/// Records a µs sample into histogram `id` (mode-gated).
#[inline]
pub fn record_us(id: HistId, value_us: u64) {
    if counters_on() {
        global().record_us(id, value_us);
    }
}

/// Renders the global registry as metrics JSON.
pub fn metrics_json() -> String {
    global().metrics_json()
}

/// Writes [`metrics_json`] to `path`.
pub fn write_metrics_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, metrics_json())
}

/// Resets everything: the global registry, the trace buffer and the
/// flight recorder. Benchmarks call this between phases.
pub fn reset_all() {
    global().reset();
    clear_trace();
    clear_flight_recorder();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in [ObsMode::Off, ObsMode::Counters, ObsMode::Full] {
            assert_eq!(ObsMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(ObsMode::parse("FULL"), Some(ObsMode::Full));
        assert_eq!(ObsMode::parse("bogus"), None);
    }

    #[test]
    fn catalogue_docs_match_the_enums() {
        let doc = include_str!("catalogue.md");
        let generated = catalogue_markdown();
        // Every generated row must appear verbatim in the doc file and
        // the doc file must list exactly as many metrics — no drift in
        // either direction.
        for row in generated.lines().skip(2) {
            assert!(doc.contains(row), "catalogue.md is missing row: {row}");
        }
        let doc_rows = doc.lines().filter(|l| l.starts_with("| `")).count();
        let generated_rows = generated.lines().skip(2).count();
        assert_eq!(doc_rows, generated_rows, "catalogue.md has extra rows");
    }

    #[test]
    fn the_global_registry_is_one_instance() {
        assert!(std::ptr::eq(global(), global()));
    }
}
