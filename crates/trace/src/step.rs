//! Constant and piecewise-constant (step) traces.

use ravel_sim::{Dur, Time};

use crate::BandwidthTrace;

/// A link whose capacity never changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantTrace {
    rate_bps: f64,
}

impl ConstantTrace {
    /// Creates a constant trace at `rate_bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite rates.
    pub fn new(rate_bps: f64) -> ConstantTrace {
        assert!(
            rate_bps.is_finite() && rate_bps >= 0.0,
            "ConstantTrace: bad rate {rate_bps}"
        );
        ConstantTrace { rate_bps }
    }
}

impl BandwidthTrace for ConstantTrace {
    fn rate_bps(&self, _at: Time) -> f64 {
        self.rate_bps
    }

    fn rate_span(&self, _at: Time) -> (f64, Time) {
        (self.rate_bps, Time::FAR_FUTURE)
    }

    fn mean_rate_bps(&self, _from: Time, _span: Dur, _step: Dur) -> f64 {
        self.rate_bps
    }
}

/// A piecewise-constant capacity defined by breakpoints.
///
/// Each breakpoint `(t, r)` means "from instant `t` onward, capacity is
/// `r` bps" until the next breakpoint. Queries before the first
/// breakpoint return the first rate.
///
/// ```
/// use ravel_sim::Time;
/// use ravel_trace::{BandwidthTrace, StepTrace};
///
/// let t = StepTrace::new(vec![
///     (Time::ZERO, 4e6),
///     (Time::from_secs(10), 1e6),
///     (Time::from_secs(30), 4e6),
/// ]);
/// assert_eq!(t.rate_bps(Time::from_secs(5)), 4e6);
/// assert_eq!(t.rate_bps(Time::from_secs(10)), 1e6);
/// assert_eq!(t.rate_bps(Time::from_secs(40)), 4e6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Strictly increasing breakpoint times with their rates.
    points: Vec<(Time, f64)>,
}

impl StepTrace {
    /// Creates a step trace from breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, times are not strictly increasing, or
    /// any rate is negative/non-finite.
    pub fn new(points: Vec<(Time, f64)>) -> StepTrace {
        assert!(!points.is_empty(), "StepTrace: no breakpoints");
        for pair in points.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "StepTrace: breakpoints must be strictly increasing"
            );
        }
        for &(_, r) in &points {
            assert!(r.is_finite() && r >= 0.0, "StepTrace: bad rate {r}");
        }
        StepTrace { points }
    }

    /// The canonical single sudden drop: `before` bps until `drop_at`,
    /// then `after` bps forever.
    pub fn sudden_drop(before: f64, after: f64, drop_at: Time) -> StepTrace {
        assert!(
            drop_at > Time::ZERO,
            "sudden_drop: drop at t=0 is a constant"
        );
        StepTrace::new(vec![(Time::ZERO, before), (drop_at, after)])
    }

    /// A drop followed by recovery: `before` until `drop_at`, `during`
    /// until `recover_at`, then `before` again.
    pub fn drop_and_recover(
        before: f64,
        during: f64,
        drop_at: Time,
        recover_at: Time,
    ) -> StepTrace {
        assert!(drop_at < recover_at, "drop_and_recover: empty drop window");
        StepTrace::new(vec![
            (Time::ZERO, before),
            (drop_at, during),
            (recover_at, before),
        ])
    }

    /// A staircase descending from `start` to `end` in `steps` equal-rate
    /// steps of `step_len` each, beginning at `first_at`. Models the
    /// progressive degradation of a fading wireless link.
    pub fn staircase_down(
        start: f64,
        end: f64,
        steps: usize,
        first_at: Time,
        step_len: Dur,
    ) -> StepTrace {
        assert!(steps >= 1, "staircase_down: zero steps");
        let mut points = vec![(Time::ZERO, start)];
        for i in 0..steps {
            let frac = (i + 1) as f64 / steps as f64;
            let rate = start + (end - start) * frac;
            points.push((first_at + step_len * i as u64, rate));
        }
        StepTrace::new(points)
    }

    /// The breakpoints of this trace.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// The instant of the largest downward capacity step, if any step is
    /// downward. Experiments use this to align measurement windows.
    pub fn largest_drop_at(&self) -> Option<Time> {
        self.points
            .windows(2)
            .filter(|p| p[1].1 < p[0].1)
            .max_by(|a, b| {
                let da = a[0].1 - a[1].1;
                let db = b[0].1 - b[1].1;
                da.partial_cmp(&db).expect("rates are finite")
            })
            .map(|p| p[1].0)
    }
}

impl BandwidthTrace for StepTrace {
    fn rate_bps(&self, at: Time) -> f64 {
        self.rate_span(at).0
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        // partition_point returns the index of the first breakpoint after
        // `at`; the active rate is the breakpoint before it, and it holds
        // until that next breakpoint.
        let idx = self.points.partition_point(|&(t, _)| t <= at);
        let rate = self.points[idx.saturating_sub(1)].1;
        let until = self.points.get(idx).map_or(Time::FAR_FUTURE, |&(t, _)| t);
        (rate, until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let c = ConstantTrace::new(5e6);
        assert_eq!(c.rate_bps(Time::ZERO), 5e6);
        assert_eq!(c.rate_bps(Time::from_secs(1000)), 5e6);
        assert_eq!(c.mean_rate_bps(Time::ZERO, Dur::secs(10), Dur::SECOND), 5e6);
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn constant_rejects_negative() {
        ConstantTrace::new(-1.0);
    }

    #[test]
    fn step_lookup_boundaries() {
        let t = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        assert_eq!(t.rate_bps(Time::ZERO), 4e6);
        assert_eq!(t.rate_bps(Time::from_micros(9_999_999)), 4e6);
        assert_eq!(t.rate_bps(Time::from_secs(10)), 1e6);
        assert_eq!(t.rate_bps(Time::from_secs(11)), 1e6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn step_rejects_unsorted() {
        StepTrace::new(vec![(Time::from_secs(5), 1.0), (Time::from_secs(5), 2.0)]);
    }

    #[test]
    #[should_panic(expected = "no breakpoints")]
    fn step_rejects_empty() {
        StepTrace::new(vec![]);
    }

    #[test]
    fn drop_and_recover_shape() {
        let t = StepTrace::drop_and_recover(4e6, 1e6, Time::from_secs(10), Time::from_secs(20));
        assert_eq!(t.rate_bps(Time::from_secs(5)), 4e6);
        assert_eq!(t.rate_bps(Time::from_secs(15)), 1e6);
        assert_eq!(t.rate_bps(Time::from_secs(25)), 4e6);
    }

    #[test]
    fn staircase_descends_monotonically() {
        let t = StepTrace::staircase_down(4e6, 1e6, 3, Time::from_secs(10), Dur::secs(2));
        assert_eq!(t.rate_bps(Time::from_secs(9)), 4e6);
        assert_eq!(t.rate_bps(Time::from_secs(10)), 3e6);
        assert_eq!(t.rate_bps(Time::from_secs(12)), 2e6);
        assert_eq!(t.rate_bps(Time::from_secs(14)), 1e6);
        assert_eq!(t.rate_bps(Time::from_secs(100)), 1e6);
    }

    #[test]
    fn largest_drop_at_finds_deepest_step() {
        let t = StepTrace::new(vec![
            (Time::ZERO, 4e6),
            (Time::from_secs(5), 3e6),  // -1M
            (Time::from_secs(10), 1e6), // -2M <- largest
            (Time::from_secs(20), 4e6), // up
        ]);
        assert_eq!(t.largest_drop_at(), Some(Time::from_secs(10)));
        let flat = ConstantTrace::new(1.0);
        let _ = flat; // constant trace has no drops by construction
        let up_only = StepTrace::new(vec![(Time::ZERO, 1e6), (Time::from_secs(1), 2e6)]);
        assert_eq!(up_only.largest_drop_at(), None);
    }

    proptest::proptest! {
        /// The step-lookup must agree with a linear scan for any query.
        #[test]
        fn lookup_matches_linear_scan(query_ms in 0u64..120_000) {
            let t = StepTrace::new(vec![
                (Time::ZERO, 4e6),
                (Time::from_secs(10), 1e6),
                (Time::from_secs(30), 2e6),
                (Time::from_secs(60), 0.5e6),
            ]);
            let at = Time::from_millis(query_ms);
            let mut expected = 4e6;
            for &(bp, r) in t.points() {
                if at >= bp {
                    expected = r;
                }
            }
            proptest::prop_assert_eq!(t.rate_bps(at), expected);
        }
    }
}
