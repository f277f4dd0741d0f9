//! # ravel-trace — network bandwidth traces
//!
//! The poster's subject is the *sudden bandwidth drop*: the bottleneck
//! capacity falls by 2–8× within one RTT, long before the sender's
//! congestion controller or encoder can react. This crate supplies the
//! capacity processes the experiments run over:
//!
//! * [`ConstantTrace`] — a fixed-rate link (sanity baselines).
//! * [`StepTrace`] — piecewise-constant capacity from explicit
//!   breakpoints; [`StepTrace::sudden_drop`] builds the canonical
//!   E1 "4 Mbps → 1 Mbps at t=10 s" shape.
//! * [`OscillatingTrace`] — square- or sine-wave capacity for
//!   oscillation/convergence tests.
//! * [`StochasticTrace`] — a seeded Markov-modulated process reproducing
//!   the statistics of cellular (LTE-like) capacity series: sticky states
//!   with occasional deep fades. The path is *precomputed* at
//!   construction, so queries are pure functions of time and every run
//!   replays exactly.
//! * [`FileTrace`] — `(seconds, bits-per-second)` samples loaded from a
//!   JSON file, for replaying externally captured traces.
//!
//! Combinators ([`Scaled`], [`Clamped`], [`Shifted`], [`MinOf`]) compose
//! traces without allocation at query time.
//!
//! All rates are in bits per second (`f64`); all queries take a
//! [`ravel_sim::Time`] and are `O(log n)` or better.
//! [`BandwidthTrace::rate_span`] also reports how long the returned
//! rate holds, so a consumer integrating capacity over time queries a
//! piecewise-constant trace once per segment instead of once per step.

#![warn(missing_docs)]

pub mod combinators;
pub mod file;
pub mod json;
pub mod oscillating;
pub mod step;
pub mod stochastic;

pub use combinators::{Clamped, MinOf, Scaled, Shifted};
pub use file::{FileTrace, TraceFileError};
pub use oscillating::{OscillatingTrace, Waveform};
pub use step::{ConstantTrace, StepTrace};
pub use stochastic::{CellularProfile, StochasticTrace};

use ravel_sim::{Dur, Time};

/// A bottleneck-capacity process: bits per second as a function of time.
///
/// Implementations must be pure: the same `at` always returns the same
/// rate. Stochastic traces achieve this by sampling their whole path up
/// front from a seed.
pub trait BandwidthTrace {
    /// Capacity in bits per second at instant `at`. Must be finite and
    /// non-negative.
    fn rate_bps(&self, at: Time) -> f64;

    /// The rate at `at` together with the end of the span it holds
    /// for: `rate_bps(t) == rate` for every `t` in `[at, until)`.
    ///
    /// Consumers that integrate capacity over time (the bottleneck
    /// link) cache the span and query again only once time leaves it.
    /// The default is one microsecond, the clock's grain, which is
    /// correct for any trace; piecewise-constant traces override it
    /// with their next breakpoint.
    fn rate_span(&self, at: Time) -> (f64, Time) {
        (self.rate_bps(at), after_grain(at))
    }

    /// The mean rate over `[from, from + span)`, approximated by sampling
    /// at `step` intervals. Implementations with closed forms may
    /// override.
    fn mean_rate_bps(&self, from: Time, span: Dur, step: Dur) -> f64 {
        assert!(!step.is_zero(), "mean_rate_bps: zero step");
        let mut t = from;
        let end = from + span;
        let mut sum = 0.0;
        let mut n = 0u64;
        while t < end {
            sum += self.rate_bps(t);
            n += 1;
            t += step;
        }
        if n == 0 {
            self.rate_bps(from)
        } else {
            sum / n as f64
        }
    }

    /// Wraps `self` so that all rates are multiplied by `factor`.
    fn scaled(self, factor: f64) -> Scaled<Self>
    where
        Self: Sized,
    {
        Scaled::new(self, factor)
    }

    /// Wraps `self` so that rates are clamped into `[lo, hi]`.
    fn clamped(self, lo: f64, hi: f64) -> Clamped<Self>
    where
        Self: Sized,
    {
        Clamped::new(self, lo, hi)
    }

    /// Wraps `self` shifted later in time by `offset` (the trace's t=0
    /// maps to simulation time `offset`; earlier queries see the t=0 rate).
    fn shifted(self, offset: Dur) -> Shifted<Self>
    where
        Self: Sized,
    {
        Shifted::new(self, offset)
    }
}

/// The instant one clock grain after `at`, saturating at
/// [`Time::FAR_FUTURE`].
fn after_grain(at: Time) -> Time {
    Time::from_micros(at.as_micros().saturating_add(1))
}

/// Blanket impl so `&T` traces compose.
impl<T: BandwidthTrace + ?Sized> BandwidthTrace for &T {
    fn rate_bps(&self, at: Time) -> f64 {
        (**self).rate_bps(at)
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        (**self).rate_span(at)
    }
}

/// Blanket impl so boxed trait objects are traces too.
impl<T: BandwidthTrace + ?Sized> BandwidthTrace for Box<T> {
    fn rate_bps(&self, at: Time) -> f64 {
        (**self).rate_bps(at)
    }

    fn rate_span(&self, at: Time) -> (f64, Time) {
        (**self).rate_span(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanket_impls_delegate() {
        let c = ConstantTrace::new(2e6);
        let r: &dyn BandwidthTrace = &c;
        assert_eq!(r.rate_bps(Time::ZERO), 2e6);
        let b: Box<dyn BandwidthTrace> = Box::new(ConstantTrace::new(3e6));
        assert_eq!(b.rate_bps(Time::from_secs(5)), 3e6);
    }

    #[test]
    fn default_mean_rate_samples() {
        let t = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
        // Over [5s, 15s): 5s at 4 Mbps then 5s at 1 Mbps -> mean 2.5 Mbps.
        let mean = t.mean_rate_bps(Time::from_secs(5), Dur::secs(10), Dur::millis(100));
        assert!((mean - 2.5e6).abs() < 0.05e6, "mean {mean}");
    }

    /// Checks one trace's span at `at`: the span is non-empty, and
    /// `rate_bps` returns the span's rate bit-for-bit at `at`, at the
    /// span's last instant and at each `probes` fraction of the way
    /// through it (spans past 100 s are probed over their first 100 s).
    fn check_span(trace: &dyn BandwidthTrace, at: Time, probes: &[f64]) -> Result<(), String> {
        let (rate, until) = trace.rate_span(at);
        if until <= at {
            return Err(format!("empty span [{at}, {until})"));
        }
        let probe_end = until.min(at + Dur::secs(100));
        let width = probe_end.since(at).as_micros();
        let last = Time::from_micros(probe_end.as_micros() - 1);
        let inside = probes
            .iter()
            .map(|f| at + Dur::micros((f * width as f64) as u64 % width));
        for t in std::iter::once(at)
            .chain(std::iter::once(last))
            .chain(inside)
        {
            let got = trace.rate_bps(t);
            if got.to_bits() != rate.to_bits() {
                return Err(format!(
                    "span [{at}, {until}) says {rate} but rate_bps({t}) = {got}"
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// `rate_span` agrees with `rate_bps` across every span it
        /// reports, for every trace type and combinator.
        #[test]
        fn rate_span_matches_rate_bps(
            gaps in proptest::collection::vec(1u64..4_000_000, 1..10),
            rates in proptest::collection::vec(0.0f64..8e6, 10..11),
            (query_us, seed) in (0u64..50_000_000, 0u64..1_000),
            (factor, lo, width) in (0.0f64..3.0, 0.0f64..2e6, 0.0f64..4e6),
            offset_us in 0u64..10_000_000,
            probes in proptest::collection::vec(0.0f64..1.0, 1..12),
        ) {
            let mut t = Time::ZERO;
            let mut points = vec![(t, rates[0])];
            for (gap, &rate) in gaps.iter().zip(&rates[1..]) {
                t += Dur::micros(*gap);
                points.push((t, rate));
            }
            let step = StepTrace::new(points);
            let samples: Vec<(f64, f64)> = step
                .points()
                .iter()
                .map(|&(t, r)| (t.as_secs_f64(), r))
                .collect();
            let offset = Dur::micros(offset_us);
            let traces: Vec<Box<dyn BandwidthTrace>> = vec![
                Box::new(ConstantTrace::new(rates[1])),
                Box::new(step.clone()),
                Box::new(StochasticTrace::generate(
                    &CellularProfile::lte_like(),
                    Dur::secs(40),
                    seed,
                )),
                Box::new(FileTrace::from_samples("span", &samples).unwrap()),
                Box::new(step.clone().scaled(factor)),
                Box::new(step.clone().clamped(lo, lo + width)),
                Box::new(step.clone().shifted(offset)),
                Box::new(MinOf::new(step.clone(), step.clone().shifted(offset))),
                Box::new(Box::new(step.clone()) as Box<dyn BandwidthTrace>),
                Box::new(OscillatingTrace::new(1e6, 4e6, Dur::secs(2), Waveform::Sine)),
            ];
            let at = Time::from_micros(query_us);
            for trace in &traces {
                // Through the box and through a `&` reference.
                check_span(trace.as_ref(), at, &probes).map_err(proptest::TestCaseError::fail)?;
                check_span(&trace, at, &probes).map_err(proptest::TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn spans_end_at_the_next_breakpoint() {
        let t = StepTrace::drop_and_recover(4e6, 1e6, Time::from_secs(10), Time::from_secs(20));
        assert_eq!(t.rate_span(Time::ZERO), (4e6, Time::from_secs(10)));
        assert_eq!(t.rate_span(Time::from_secs(10)), (1e6, Time::from_secs(20)));
        assert_eq!(t.rate_span(Time::from_secs(25)), (4e6, Time::FAR_FUTURE));
        let shifted = t.shifted(Dur::secs(5));
        assert_eq!(shifted.rate_span(Time::ZERO), (4e6, Time::from_secs(15)));
        assert_eq!(
            ConstantTrace::new(2e6).rate_span(Time::from_secs(3)),
            (2e6, Time::FAR_FUTURE)
        );
        // The default is one clock grain, saturating at the far future.
        let wave = OscillatingTrace::new(1e6, 2e6, Dur::secs(1), Waveform::Sine);
        assert_eq!(wave.rate_span(Time::ZERO).1, Time::from_micros(1));
        assert_eq!(wave.rate_span(Time::FAR_FUTURE).1, Time::FAR_FUTURE);
    }

    #[test]
    #[should_panic(expected = "zero step")]
    fn mean_rate_zero_step_panics() {
        // StepTrace uses the default mean_rate_bps implementation, which
        // guards against a zero sampling step. (ConstantTrace overrides it
        // with a closed form and never samples.)
        StepTrace::sudden_drop(2.0, 1.0, Time::from_secs(1)).mean_rate_bps(
            Time::ZERO,
            Dur::SECOND,
            Dur::ZERO,
        );
    }
}
