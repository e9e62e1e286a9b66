//! RAII scoped timers.
//!
//! A [`Span`] measures the wall-clock time between its creation and
//! its drop. On drop (mode permitting) the duration lands in the
//! span-kind's histogram in the global registry, and in `Full` mode a
//! chrome-trace complete event is buffered on the recording thread —
//! per-worker aggregation with a single merge when the thread exits
//! (the tree-sharded pool joins its scoped workers) or on an explicit
//! [`flush_thread_trace`].
//!
//! Three constructors with different mode behaviour:
//!
//! * [`span`] — inert (no clock read at all) when the mode is `Off`.
//! * [`span_labeled`] — like [`span`], with a static label that
//!   becomes the trace-event name (e.g. a heuristic acronym).
//! * [`timed_span`] — **always** reads the clock; callers that need
//!   the duration regardless of mode (e.g. experiment `TrialResult`
//!   timings) consume it with [`Span::finish_seconds`]. Publication
//!   into the registry is still mode-gated.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::{global, HistId};
use crate::trace::{push_trace_events, TraceEvent};
use crate::{counters_on, full_on};

/// What a span measures — each kind maps to one histogram and one
/// trace category.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// One revised-simplex solve (`rp-lp`).
    LpSolve,
    /// One classic-heuristic run (`rp-core`).
    HeuristicRun,
    /// One LP-guided rounding portfolio (`rp-core`).
    LpGuidedRound,
    /// One `repair_after_failure` call (`rp-core`).
    FailureRepair,
    /// One per-λ figure trial (`rp-experiments`).
    Trial,
    /// One LP bound solve inside a scenario trial (`rp-experiments`).
    LpBound,
    /// The heuristics phase of a trial (`rp-experiments`).
    HeuristicsPhase,
    /// One resilience (failure-injection) trial (`rp-experiments`).
    ResilienceTrial,
    /// One delta apply in the online placement engine (`rp-online`).
    OnlineApply,
}

impl SpanKind {
    /// The default trace-event name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::LpSolve => "lp.solve",
            SpanKind::HeuristicRun => "core.heuristic",
            SpanKind::LpGuidedRound => "core.lpg.round",
            SpanKind::FailureRepair => "core.repair",
            SpanKind::Trial => "exp.trial",
            SpanKind::LpBound => "exp.lp_bound",
            SpanKind::HeuristicsPhase => "exp.heuristics",
            SpanKind::ResilienceTrial => "exp.resilience_trial",
            SpanKind::OnlineApply => "online.apply",
        }
    }

    /// The trace category (= owning workspace layer).
    pub fn cat(self) -> &'static str {
        match self {
            SpanKind::LpSolve => "rp-lp",
            SpanKind::HeuristicRun | SpanKind::LpGuidedRound | SpanKind::FailureRepair => "rp-core",
            SpanKind::Trial
            | SpanKind::LpBound
            | SpanKind::HeuristicsPhase
            | SpanKind::ResilienceTrial => "rp-experiments",
            SpanKind::OnlineApply => "rp-online",
        }
    }

    /// The registry histogram this kind records into.
    pub fn hist(self) -> HistId {
        match self {
            SpanKind::LpSolve => HistId::LpSolveUs,
            SpanKind::HeuristicRun => HistId::CoreHeuristicUs,
            SpanKind::LpGuidedRound => HistId::CoreLpgRoundUs,
            SpanKind::FailureRepair => HistId::CoreRepairUs,
            SpanKind::Trial => HistId::ExpTrialUs,
            SpanKind::LpBound => HistId::ExpLpBoundUs,
            SpanKind::HeuristicsPhase => HistId::ExpHeuristicsUs,
            SpanKind::ResilienceTrial => HistId::ExpResilienceTrialUs,
            SpanKind::OnlineApply => HistId::OnlineApplyUs,
        }
    }
}

/// The single process-wide time origin for trace timestamps. Anchored
/// on first use (mode enable or first span).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Anchors the epoch now (called from `set_mode` so traces start at
/// t≈0 of the observed region).
pub(crate) fn anchor_epoch() {
    let _ = epoch();
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

struct LocalObs {
    tid: u32,
    stack: Vec<SpanKind>,
    events: Vec<TraceEvent>,
}

impl LocalObs {
    fn new() -> Self {
        Self {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl Drop for LocalObs {
    fn drop(&mut self) {
        push_trace_events(&mut self.events);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalObs> = RefCell::new(LocalObs::new());
}

/// Pushes this thread's buffered trace events to the global buffer.
/// Worker threads do this automatically on exit; the main thread calls
/// it (via the exporters) before rendering a trace.
pub fn flush_thread_trace() {
    let _ = LOCAL.try_with(|local| {
        push_trace_events(&mut local.borrow_mut().events);
    });
}

/// Depth of the calling thread's open-span stack (0 outside any span).
/// Maintained only while spans are recording.
pub fn current_span_depth() -> usize {
    LOCAL.with(|local| local.borrow().stack.len())
}

/// A scoped timer; see the module docs for the three constructors.
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
pub struct Span {
    kind: SpanKind,
    label: Option<&'static str>,
    start: Option<Instant>,
    publish: bool,
    pushed: bool,
    closed: bool,
}

impl Span {
    fn new(kind: SpanKind, label: Option<&'static str>, timed: bool) -> Self {
        let publish = counters_on();
        let start = if publish || timed {
            Some(Instant::now())
        } else {
            None
        };
        let pushed = publish && full_on();
        if pushed {
            anchor_epoch();
            LOCAL.with(|local| local.borrow_mut().stack.push(kind));
        }
        Self {
            kind,
            label,
            start,
            publish,
            pushed,
            closed: false,
        }
    }

    /// Closes the span once: pops the stack, publishes the duration.
    fn close(&mut self) -> f64 {
        if self.closed {
            return 0.0;
        }
        self.closed = true;
        let Some(start) = self.start else {
            return 0.0;
        };
        let elapsed = start.elapsed();
        if self.pushed {
            LOCAL.with(|local| {
                let mut local = local.borrow_mut();
                local.stack.pop();
                let ts_us = start.duration_since(epoch()).as_micros() as u64;
                let tid = local.tid;
                local.events.push(TraceEvent {
                    name: self.label.unwrap_or(self.kind.name()),
                    cat: self.kind.cat(),
                    ts_us,
                    dur_us: elapsed.as_micros() as u64,
                    tid,
                });
            });
        }
        if self.publish {
            global().record_us(self.kind.hist(), elapsed.as_micros() as u64);
        }
        elapsed.as_secs_f64()
    }

    /// Ends the span now and returns the measured duration in seconds
    /// (0.0 for an inert span — use [`timed_span`] when the duration
    /// is needed in every mode).
    pub fn finish_seconds(mut self) -> f64 {
        self.close()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// A mode-gated span: when observability is `Off` this never reads the
/// clock — creation and drop are one relaxed load each.
pub fn span(kind: SpanKind) -> Span {
    Span::new(kind, None, false)
}

/// [`span`] with a static label used as the trace-event name.
pub fn span_labeled(kind: SpanKind, label: &'static str) -> Span {
    Span::new(kind, Some(label), false)
}

/// A span that **always** times (for callers that consume the duration
/// via [`Span::finish_seconds`]); registry/trace publication stays
/// mode-gated.
pub fn timed_span(kind: SpanKind) -> Span {
    Span::new(kind, None, true)
}

/// [`timed_span`] with a static label.
pub fn timed_span_labeled(kind: SpanKind, label: &'static str) -> Span {
    Span::new(kind, Some(label), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_spans_never_touch_the_clock_or_stack() {
        // Mode is Off by default in unit tests of this crate.
        if crate::mode() != crate::ObsMode::Off {
            return; // another test flipped the global mode; skip
        }
        let span = span(SpanKind::LpSolve);
        assert!(span.start.is_none());
        assert_eq!(span.finish_seconds(), 0.0);
    }

    #[test]
    fn timed_spans_measure_even_when_off() {
        let span = timed_span(SpanKind::Trial);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let seconds = span.finish_seconds();
        assert!(seconds >= 0.002, "measured {seconds}");
    }

    #[test]
    fn span_depth_is_zero_outside_spans() {
        assert_eq!(current_span_depth(), 0);
    }
}
