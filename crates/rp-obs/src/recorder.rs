//! Flight recorder: a bounded ring of the most recent solve records,
//! snapshotted to a JSONL dump when an anomaly fires.
//!
//! Rare-but-inevitable bad solves under churn traces are not
//! reproducible on demand; the recorder keeps the last
//! [`FLIGHT_RING_CAP`] [`SolveRecord`]s (instance shape, warm-start
//! class, iteration and phase breakdown, budget state) in memory so
//! the moment one goes wrong the *context* — the solves leading up to
//! it — is captured too. Triggers ([`AnomalyKind`]): a solve slower
//! than k× the running median, a `SolveBudget` miss, an rp-online
//! rollback.
//!
//! Everything is mode-gated like the rest of the crate: with
//! observation off nothing records, and recording never feeds back
//! into solver decisions.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::push_json_string;
use crate::profile::{Phase, PhaseTimes};
use crate::registry::Counter;

/// Capacity of the global flight-recorder ring.
pub const FLIGHT_RING_CAP: usize = 64;

/// A solve is anomalously slow when it exceeds this multiple of the
/// running median over the recent window.
const SLOW_FACTOR: f64 = 8.0;

/// Slow detection stays quiet until this many solves have been seen
/// (a cold median is meaningless).
const MIN_SAMPLES: usize = 16;

/// Why a flight-recorder dump was triggered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnomalyKind {
    /// Solve wall time exceeded k× the running median.
    Slow,
    /// A `SolveBudget` (deadline or iteration cap) was missed.
    BudgetMiss,
    /// An rp-online apply was rolled back.
    Rollback,
}

impl AnomalyKind {
    /// The wire name used as the dump's `reason`.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::Slow => "slow",
            AnomalyKind::BudgetMiss => "budget_miss",
            AnomalyKind::Rollback => "rollback",
        }
    }

    fn counter(self) -> Counter {
        match self {
            AnomalyKind::Slow => Counter::RecAnomalySlow,
            AnomalyKind::BudgetMiss => Counter::RecAnomalyBudgetMiss,
            AnomalyKind::Rollback => Counter::RecAnomalyRollback,
        }
    }
}

/// One completed LP solve, as remembered by the flight recorder.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveRecord {
    /// Monotonic sequence number, assigned by the recorder.
    pub seq: u64,
    /// Rows of the working form (after presolve).
    pub rows: u64,
    /// Structural columns of the working form.
    pub cols: u64,
    /// Warm-start classification (`"cold"`, `"hit"`, ...).
    pub warm: &'static str,
    /// Terminal solution status (`"optimal"`, `"iteration_limit"`, ...).
    pub status: String,
    /// Total simplex iterations (primal + dual pivots + bound flips).
    pub iterations: u64,
    /// Measured solve wall time in microseconds.
    pub solve_us: u64,
    /// `true` when a `SolveBudget` deadline/iteration cap was missed.
    pub budget_missed: bool,
    /// The typed stop reason when the solve ended early.
    pub stop_reason: Option<String>,
    /// Per-phase wall-time breakdown of this solve.
    pub phases: PhaseTimes,
}

#[derive(Default)]
struct RecState {
    ring: VecDeque<SolveRecord>,
    next_seq: u64,
    recent_us: VecDeque<u64>,
    last_dump: Option<String>,
}

/// A bounded ring of recent solves with anomaly detection. The
/// process-wide instance lives behind [`flight_recorder`];
/// instantiable for tests.
pub struct FlightRecorder {
    cap: usize,
    slow_factor: f64,
    min_samples: usize,
    state: Mutex<RecState>,
}

impl FlightRecorder {
    /// A recorder holding the last `cap` records, flagging solves
    /// slower than `slow_factor`× the running median once
    /// `min_samples` solves have been seen.
    pub fn new(cap: usize, slow_factor: f64, min_samples: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            slow_factor,
            min_samples: min_samples.max(1),
            state: Mutex::new(RecState::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pushes a record (evicting the oldest at capacity), assigns its
    /// sequence number and returns the anomaly it trips, if any.
    pub fn record(&self, mut record: SolveRecord) -> Option<AnomalyKind> {
        let mut state = self.lock();
        record.seq = state.next_seq;
        state.next_seq += 1;
        let anomaly = if record.budget_missed {
            Some(AnomalyKind::BudgetMiss)
        } else if state.recent_us.len() >= self.min_samples {
            let mut sorted: Vec<u64> = state.recent_us.iter().copied().collect();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            (median > 0 && record.solve_us as f64 > self.slow_factor * median as f64)
                .then_some(AnomalyKind::Slow)
        } else {
            None
        };
        state.recent_us.push_back(record.solve_us);
        while state.recent_us.len() > self.cap {
            state.recent_us.pop_front();
        }
        state.ring.push_back(record);
        while state.ring.len() > self.cap {
            state.ring.pop_front();
        }
        anomaly
    }

    /// Snapshots the ring to a JSONL dump (one meta line, then one
    /// line per record, oldest first) and remembers it as the latest
    /// dump.
    pub fn snapshot(&self, reason: &str) -> String {
        let mut state = self.lock();
        let mut out = String::with_capacity(256 + 256 * state.ring.len());
        out.push_str("{\"type\":\"flight_dump\",\"schema\":1,\"reason\":");
        push_json_string(&mut out, reason);
        out.push_str(&format!(
            ",\"records\":{},\"next_seq\":{}}}\n",
            state.ring.len(),
            state.next_seq
        ));
        for record in state.ring.iter() {
            push_record_json(&mut out, record);
            out.push('\n');
        }
        state.last_dump = Some(out.clone());
        out
    }

    /// The most recent dump, if any anomaly has fired.
    pub fn last_dump(&self) -> Option<String> {
        self.lock().last_dump.clone()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// `true` when no solve has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence numbers currently in the ring, oldest first.
    pub fn seqs(&self) -> Vec<u64> {
        self.lock().ring.iter().map(|r| r.seq).collect()
    }

    /// Drops every record, the latency window and the last dump.
    pub fn clear(&self) {
        *self.lock() = RecState::default();
    }
}

fn push_record_json(out: &mut String, record: &SolveRecord) {
    out.push_str(&format!(
        "{{\"type\":\"solve\",\"seq\":{},\"rows\":{},\"cols\":{},\"warm\":",
        record.seq, record.rows, record.cols
    ));
    push_json_string(out, record.warm);
    out.push_str(",\"status\":");
    push_json_string(out, &record.status);
    out.push_str(&format!(
        ",\"iterations\":{},\"solve_us\":{},\"budget_missed\":{},\"stop_reason\":",
        record.iterations, record.solve_us, record.budget_missed
    ));
    match &record.stop_reason {
        Some(reason) => push_json_string(out, reason),
        None => out.push_str("null"),
    }
    out.push_str(",\"phase_ns\":{");
    for (i, phase) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, phase.name());
        out.push(':');
        out.push_str(&record.phases.nanos(*phase).to_string());
    }
    out.push_str("},\"phase_calls\":{");
    for (i, phase) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, phase.name());
        out.push(':');
        out.push_str(&record.phases.calls(*phase).to_string());
    }
    out.push_str(&format!(
        "}},\"phase_total_ns\":{}}}",
        record.phases.total_nanos()
    ));
}

static GLOBAL_REC: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder every solve reports to.
pub fn flight_recorder() -> &'static FlightRecorder {
    GLOBAL_REC.get_or_init(|| FlightRecorder::new(FLIGHT_RING_CAP, SLOW_FACTOR, MIN_SAMPLES))
}

/// Records a completed solve into the global ring (mode-gated). If
/// the record itself trips an anomaly (budget miss, k×-median slow
/// solve) the ring is dumped via [`note_anomaly`].
pub fn record_solve(record: SolveRecord) {
    if !crate::counters_on() {
        return;
    }
    crate::global().add(Counter::RecRecords, 1);
    if let Some(kind) = flight_recorder().record(record) {
        note_anomaly(kind);
    }
}

/// Reports an anomaly: bumps the anomaly counters and snapshots the
/// global ring to a JSONL dump (retrievable via [`last_flight_dump`];
/// also written to the path in `RP_FLIGHT_DUMP` when that is set).
/// Mode-gated; a no-op while observation is off.
pub fn note_anomaly(kind: AnomalyKind) {
    if !crate::counters_on() {
        return;
    }
    let registry = crate::global();
    registry.add(Counter::RecAnomalies, 1);
    registry.add(kind.counter(), 1);
    let dump = flight_recorder().snapshot(kind.as_str());
    registry.add(Counter::RecDumps, 1);
    if let Ok(path) = std::env::var("RP_FLIGHT_DUMP") {
        if !path.is_empty() {
            let _ = std::fs::write(&path, &dump);
        }
    }
}

/// Snapshots the global ring *without* counting an anomaly — used by
/// the perf-budget gate to attach context to a breach report.
pub fn flight_snapshot(reason: &str) -> String {
    flight_recorder().snapshot(reason)
}

/// The latest anomaly dump from the global recorder, if any.
pub fn last_flight_dump() -> Option<String> {
    flight_recorder().last_dump()
}

/// Clears the global recorder (ring, window and last dump).
pub fn clear_flight_recorder() {
    flight_recorder().clear();
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    fn record_us(solve_us: u64) -> SolveRecord {
        SolveRecord {
            rows: 10,
            cols: 20,
            warm: "cold",
            status: "optimal".to_string(),
            iterations: 5,
            solve_us,
            ..SolveRecord::default()
        }
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let rec = FlightRecorder::new(4, 8.0, 1000);
        for _ in 0..10 {
            assert_eq!(rec.record(record_us(100)), None);
        }
        assert_eq!(rec.len(), 4);
        // Records 0..=5 were evicted, oldest first.
        assert_eq!(rec.seqs(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn slow_solve_trips_after_min_samples() {
        let rec = FlightRecorder::new(64, 8.0, 4);
        // Below min_samples nothing fires, however slow.
        for _ in 0..3 {
            assert_eq!(rec.record(record_us(100)), None);
        }
        assert_eq!(rec.record(record_us(100_000)), None); // 4th: window still 3
                                                          // Window now holds 4 samples; median ~100, 8× = 800.
        assert_eq!(rec.record(record_us(799)), None);
        assert_eq!(rec.record(record_us(100)), None);
        assert_eq!(rec.record(record_us(9_000)), Some(AnomalyKind::Slow));
    }

    #[test]
    fn budget_miss_always_trips() {
        let rec = FlightRecorder::new(64, 8.0, 16);
        let mut record = record_us(10);
        record.budget_missed = true;
        record.stop_reason = Some("deadline exceeded".to_string());
        assert_eq!(rec.record(record), Some(AnomalyKind::BudgetMiss));
    }

    #[test]
    fn snapshot_is_line_oriented_json_with_meta_header() {
        let rec = FlightRecorder::new(8, 8.0, 16);
        let mut record = record_us(42);
        record.phases.record(Phase::Ftran, 1000);
        rec.record(record);
        rec.record(record_us(43));
        let dump = rec.snapshot("slow");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"flight_dump\""));
        assert!(lines[0].contains("\"reason\":\"slow\""));
        assert!(lines[0].contains("\"records\":2"));
        assert!(lines[1].contains("\"type\":\"solve\""));
        assert!(lines[1].contains("\"seq\":0"));
        assert!(lines[1].contains("\"ftran\":1000"));
        assert!(lines[1].contains("\"phase_total_ns\":1000"));
        assert!(lines[2].contains("\"seq\":1"));
        for line in &lines {
            // Each line is one balanced JSON object (the exporter is
            // hand-rolled; pin the brace balance at least).
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced: {line}"
            );
        }
        assert_eq!(rec.last_dump().as_deref(), Some(dump.as_str()));
    }

    #[test]
    fn clear_resets_ring_window_and_dump() {
        let rec = FlightRecorder::new(8, 8.0, 2);
        rec.record(record_us(10));
        rec.record(record_us(10));
        rec.snapshot("manual");
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.last_dump(), None);
        // Sequence numbering restarts and the slow window is cold again.
        assert_eq!(rec.record(record_us(1_000_000)), None);
        assert_eq!(rec.seqs(), vec![0]);
    }
}
