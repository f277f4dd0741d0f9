//! Session invariants: laws every run must obey, chaos or not.
//!
//! [`run`](crate::run) threads an [`InvariantChecker`] through the
//! event loop and the display post-pass. Violations are
//! *collected, not panicked*: they surface in
//! [`SessionResult::violations`](crate::SessionResult) so a harness can
//! report them per cell, shrink the schedule that caused them, and fail
//! CI — without a panic tearing down a 200-cell grid.
//!
//! The checked laws:
//!
//! * **Conservation** — every packet handed to the link is accounted
//!   for: delivered arrivals + queue drops + random losses + chaos
//!   losses + in-flight at session end, with chaos duplicates added to
//!   the sent side.
//! * **Bounded backlog** — the link's drop-tail queue never exceeds its
//!   configured capacity.
//! * **Monotonic delivery** — no packet arrives before it was sent, and
//!   the event clock never runs backwards.
//! * **Finite metrics** — no NaN/∞ reaches the latency recorder or the
//!   recorded time series.
//! * **Freeze termination** — once the last fault clears, the decoder
//!   displays a fresh frame within a bound (the PLI → keyframe path
//!   terminates every reference-chain break).
//! * **Rate recovery** — the encoder target climbs back to a fraction
//!   of the available rate within a bound after the last fault.
//! * **Runaway termination** — the event loop stays within an
//!   event-count budget and sim-time horizon derived from the trace
//!   spec; a session that self-schedules forever is cut off and
//!   flagged instead of hanging its worker.

use std::fmt;

/// The individual session laws the checker can flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Packet conservation at session end.
    Conservation,
    /// Link backlog within the configured queue capacity.
    BoundedBacklog,
    /// Arrivals never precede sends; the event clock is monotonic.
    MonotonicDelivery,
    /// No NaN/∞ in per-frame records or recorded series.
    FiniteMetrics,
    /// Decoder freeze ends within a bound once impairment clears.
    FreezeTermination,
    /// Target bitrate recovers within a bound after the last fault.
    RateRecovery,
    /// The session exceeded its event-count budget or sim-time horizon
    /// and was terminated by the runaway guard.
    RunawayTermination,
}

impl Invariant {
    /// Stable, report-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::Conservation => "conservation",
            Invariant::BoundedBacklog => "bounded-backlog",
            Invariant::MonotonicDelivery => "monotonic-delivery",
            Invariant::FiniteMetrics => "finite-metrics",
            Invariant::FreezeTermination => "freeze-termination",
            Invariant::RateRecovery => "rate-recovery",
            Invariant::RunawayTermination => "runaway-termination",
        }
    }
}

/// One violated invariant with a deterministic human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Which law was broken.
    pub invariant: Invariant,
    /// What exactly went wrong (deterministic: pure simulation values,
    /// no wall-clock content, so reports stay byte-identical).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant.name(), self.detail)
    }
}

/// Collects violations, keeping the first occurrence per invariant so a
/// systemic breach (e.g. thousands of non-finite samples) yields one
/// diagnostic instead of flooding the report.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    violations: Vec<InvariantViolation>,
}

impl InvariantChecker {
    /// An empty checker.
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// True if `invariant` has already been flagged.
    pub fn seen(&self, invariant: Invariant) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }

    /// Records a violation unless this invariant was already flagged.
    pub fn violate(&mut self, invariant: Invariant, detail: String) {
        if !self.seen(invariant) {
            self.violations
                .push(InvariantViolation { invariant, detail });
        }
    }

    /// Checks `condition`, flagging `invariant` with `detail()` if false.
    pub fn check(
        &mut self,
        invariant: Invariant,
        condition: bool,
        detail: impl FnOnce() -> String,
    ) {
        if !condition {
            self.violate(invariant, detail());
        }
    }

    /// The violations collected so far, in first-flagged order. Lets
    /// live instrumentation (the observability log) detect and emit
    /// newly flagged violations mid-run.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// The collected violations, in first-flagged order.
    pub fn into_violations(self) -> Vec<InvariantViolation> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_per_invariant_wins() {
        let mut c = InvariantChecker::new();
        c.violate(Invariant::Conservation, "first".into());
        c.violate(Invariant::Conservation, "second".into());
        c.violate(Invariant::FiniteMetrics, "other".into());
        let v = c.into_violations();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].detail, "first");
        assert_eq!(v[0].to_string(), "conservation: first");
        assert_eq!(v[1].invariant, Invariant::FiniteMetrics);
    }

    #[test]
    fn check_only_fires_on_false() {
        let mut c = InvariantChecker::new();
        c.check(Invariant::BoundedBacklog, true, || unreachable!());
        c.check(Invariant::BoundedBacklog, false, || "too deep".into());
        assert!(c.seen(Invariant::BoundedBacklog));
        assert_eq!(c.into_violations().len(), 1);
    }
}
