//! Per-solve phase profiler: wall-time attribution across a fixed
//! enum of solver phases.
//!
//! Instrumentation sites open a [`PhaseTimer`] (via [`phase_timer`])
//! around one phase of work; the elapsed nanoseconds accumulate in
//! thread-local slots that the solver drains into its `SolveStats` at
//! solve end ([`take_solve_profile`]). Timed regions are disjoint by
//! construction in `rp-lp` — a phase timer never runs inside another
//! phase timer — so the per-phase times sum to (slightly under) the
//! solve wall time, and the remainder is genuinely unattributed glue.
//!
//! The gating contract matches the rest of the crate: under
//! [`ObsMode::Off`](crate::ObsMode::Off) a site costs one relaxed
//! load and a branch — no clock is read, the thread-local is never
//! touched, and solver decisions never depend on any timing.

use std::cell::RefCell;
use std::time::Instant;

use crate::registry::Counter;

/// Number of solver phases in [`Phase::ALL`].
pub const PHASE_COUNT: usize = 9;

/// One phase of a revised-simplex solve. The set is fixed and small
/// so per-phase accumulators are plain arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Entering/leaving candidate selection and reduced-cost
    /// maintenance.
    Pricing,
    /// Forward transforms `B^-1 a` (dense and hyper-sparse) plus the
    /// primal step application.
    Ftran,
    /// Backward transforms `y^T B^-1 = e_r^T` and the pivot-row
    /// assembly built on them.
    Btran,
    /// Primal and dual ratio tests (incl. bound-flipping passes).
    RatioTest,
    /// Sparse LU refactorisation alone: the basic values recomputed
    /// after it count as [`Phase::Ftran`], the reduced costs as
    /// [`Phase::Pricing`].
    Factorise,
    /// Forrest–Tomlin basis updates.
    FtUpdate,
    /// Presolve analysis and reduced-model build.
    Presolve,
    /// Equilibration of the working form. The revised simplex solves
    /// every model unscaled, so this phase always reads 0; it stays in
    /// the set so the nine-phase breakdown (and every report keyed on
    /// it) keeps its shape.
    Scaling,
    /// Solution extraction, postsolve and dual-bound assembly.
    Extract,
}

impl Phase {
    /// Every phase, in declaration (= export) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Pricing,
        Phase::Ftran,
        Phase::Btran,
        Phase::RatioTest,
        Phase::Factorise,
        Phase::FtUpdate,
        Phase::Presolve,
        Phase::Scaling,
        Phase::Extract,
    ];

    /// The wire name used in dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pricing => "pricing",
            Phase::Ftran => "ftran",
            Phase::Btran => "btran",
            Phase::RatioTest => "ratio_test",
            Phase::Factorise => "factorise",
            Phase::FtUpdate => "ft_update",
            Phase::Presolve => "presolve",
            Phase::Scaling => "scaling",
            Phase::Extract => "extract",
        }
    }

    /// The global counter accumulating this phase's nanoseconds
    /// across solves.
    pub fn counter(self) -> Counter {
        match self {
            Phase::Pricing => Counter::LpPhasePricingNs,
            Phase::Ftran => Counter::LpPhaseFtranNs,
            Phase::Btran => Counter::LpPhaseBtranNs,
            Phase::RatioTest => Counter::LpPhaseRatioTestNs,
            Phase::Factorise => Counter::LpPhaseFactoriseNs,
            Phase::FtUpdate => Counter::LpPhaseFtUpdateNs,
            Phase::Presolve => Counter::LpPhasePresolveNs,
            Phase::Scaling => Counter::LpPhaseScalingNs,
            Phase::Extract => Counter::LpPhaseExtractNs,
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated per-phase wall time and call counts for one solve.
///
/// Small, `Copy`, all-zero by default — it travels inside
/// `SolveStats` without changing that struct's ergonomics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
}

impl PhaseTimes {
    /// Nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Number of timed entries into `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// Total attributed nanoseconds across every phase.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `true` when nothing was recorded (e.g. an `Off`-mode solve).
    pub fn is_zero(&self) -> bool {
        *self == PhaseTimes::default()
    }

    /// Records one timed entry of `nanos` ns into `phase`.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] = self.nanos[phase.index()].saturating_add(nanos);
        self.calls[phase.index()] = self.calls[phase.index()].saturating_add(1);
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for i in 0..PHASE_COUNT {
            self.nanos[i] = self.nanos[i].saturating_add(other.nanos[i]);
            self.calls[i] = self.calls[i].saturating_add(other.calls[i]);
        }
    }
}

thread_local! {
    static SLOTS: RefCell<PhaseTimes> = RefCell::new(PhaseTimes::default());
}

/// Zeroes the calling thread's phase slots. The solver calls this on
/// solve entry (mode-gated by the caller) so a breakdown never leaks
/// across solves.
pub fn reset_solve_profile() {
    SLOTS.with(|slots| *slots.borrow_mut() = PhaseTimes::default());
}

/// Drains the calling thread's phase slots: returns what accumulated
/// since the last reset and zeroes them.
pub fn take_solve_profile() -> PhaseTimes {
    SLOTS.with(|slots| std::mem::take(&mut *slots.borrow_mut()))
}

/// RAII phase timer returned by [`phase_timer`]. Records the elapsed
/// wall time into the thread-local slots on drop; inert (no clock
/// read) when the mode was `Off` at construction.
#[must_use = "a phase timer measures the scope it is bound to"]
pub struct PhaseTimer {
    phase: Phase,
    start: Option<Instant>,
}

/// Opens a timer attributing the enclosing scope to `phase`. One
/// relaxed load when observation is off.
#[inline]
pub fn phase_timer(phase: Phase) -> PhaseTimer {
    PhaseTimer {
        phase,
        start: crate::counters_on().then(Instant::now),
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            SLOTS.with(|slots| slots.borrow_mut().record(self.phase, nanos));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn phase_names_and_counters_are_distinct() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
        let mut counters: Vec<&str> = Phase::ALL.iter().map(|p| p.counter().name()).collect();
        counters.sort_unstable();
        counters.dedup();
        assert_eq!(counters.len(), PHASE_COUNT);
        for phase in Phase::ALL {
            assert!(
                phase.counter().name().contains(phase.name()),
                "{} vs {}",
                phase.counter().name(),
                phase.name()
            );
        }
    }

    #[test]
    fn phase_times_record_merge_and_total() {
        let mut a = PhaseTimes::default();
        assert!(a.is_zero());
        a.record(Phase::Ftran, 100);
        a.record(Phase::Ftran, 50);
        a.record(Phase::Pricing, 7);
        assert_eq!(a.nanos(Phase::Ftran), 150);
        assert_eq!(a.calls(Phase::Ftran), 2);
        assert_eq!(a.total_nanos(), 157);
        let mut b = PhaseTimes::default();
        b.record(Phase::Ftran, 1);
        b.merge(&a);
        assert_eq!(b.nanos(Phase::Ftran), 151);
        assert_eq!(b.calls(Phase::Ftran), 3);
        assert!(!b.is_zero());
    }

    #[test]
    fn take_drains_the_thread_local_slots() {
        reset_solve_profile();
        SLOTS.with(|slots| slots.borrow_mut().record(Phase::Scaling, 42));
        let taken = take_solve_profile();
        assert_eq!(taken.nanos(Phase::Scaling), 42);
        assert!(take_solve_profile().is_zero());
    }

    #[test]
    fn timer_is_inert_while_mode_is_off() {
        // The unit-test binary leaves the global mode Off; an inert
        // timer must not touch the slots.
        reset_solve_profile();
        {
            let _t = phase_timer(Phase::Btran);
        }
        assert!(take_solve_profile().is_zero());
    }
}
