//! The bottleneck link: drop-tail queue + time-varying serializer.
//!
//! The link is the stage where encoder overshoot becomes latency. Its
//! model is a single FIFO serializer whose rate follows a
//! [`BandwidthTrace`], fronted by a byte-bounded drop-tail queue, followed
//! by fixed propagation delay, optional seeded jitter, and Bernoulli
//! loss.
//!
//! Delivery times are computed *analytically at send time*: each packet's
//! serialization start is `max(now, link_free_at)` and its transmission
//! time integrates the capacity trace in ≤1 ms slices (exact for the
//! piecewise-constant traces in `ravel-trace` down to that grain). This
//! keeps the simulation event count at one event per packet while
//! producing the same queueing dynamics as a byte-level model.
//!
//! The link caches the trace's current [`BandwidthTrace::rate_span`]:
//! a slice whose start lies inside the cached span reuses its rate, so
//! the trace is queried once per capacity segment rather than once per
//! 1 ms slice. The per-slice arithmetic is unchanged, so delivery
//! times are bit-identical to querying every slice.

use std::collections::VecDeque;

use ravel_sim::{Dur, Rng, Time};
use ravel_trace::BandwidthTrace;

use crate::packet::Packet;

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: Dur,
    /// Drop-tail queue bound in bytes (including the packet in service).
    /// Typical last-mile buffers hold ~100–300 ms at the nominal rate.
    pub queue_capacity_bytes: u64,
    /// Standard deviation of per-packet delivery jitter (0 disables).
    /// Jitter never reorders packets.
    pub jitter_std: Dur,
    /// Independent per-packet loss probability after the queue
    /// (wireless-style loss, not congestion loss).
    pub random_loss: f64,
}

impl LinkConfig {
    /// A typical last-mile path: 20 ms propagation (40 ms RTT), 250 KB
    /// buffer (≈500 ms at 4 Mbps), no jitter, no random loss.
    pub fn typical() -> LinkConfig {
        LinkConfig {
            propagation: Dur::millis(20),
            queue_capacity_bytes: 250_000,
            jitter_std: Dur::ZERO,
            random_loss: 0.0,
        }
    }
}

/// The outcome of offering one packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The packet will arrive at the far end at this instant.
    At(Time),
    /// The queue was full; the packet was dropped at the tail.
    QueueDrop,
    /// The packet was lost in flight (random loss).
    Lost,
}

impl Delivery {
    /// The arrival time, if the packet survives.
    pub fn arrival(self) -> Option<Time> {
        match self {
            Delivery::At(t) => Some(t),
            _ => None,
        }
    }
}

/// A bottleneck link over a capacity trace.
#[derive(Debug, Clone)]
pub struct Link<T> {
    trace: T,
    cfg: LinkConfig,
    rng: Rng,
    /// When the serializer finishes its current backlog.
    free_at: Time,
    /// Scheduled (serialization-finish, wire bytes) of queued packets,
    /// used to measure the live backlog for drop-tail.
    scheduled: VecDeque<(Time, u64)>,
    /// Running sum of `scheduled` bytes, so the per-send drop-tail check
    /// is O(drained) instead of re-summing the whole queue.
    backlog: u64,
    /// Monotonic delivery floor so jitter cannot reorder.
    last_arrival: Time,
    /// The cached capacity span: the trace's rate is `span_rate` over
    /// `[span_from, span_until)`. Starts empty.
    span_rate: f64,
    span_from: Time,
    span_until: Time,
    /// Lifetime counters.
    delivered: u64,
    queue_drops: u64,
    random_losses: u64,
}

impl<T: BandwidthTrace> Link<T> {
    /// Creates a link over `trace` with the given config; `seed` drives
    /// jitter and loss.
    pub fn new(trace: T, cfg: LinkConfig, seed: u64) -> Link<T> {
        assert!(
            (0.0..1.0).contains(&cfg.random_loss),
            "Link: loss probability {} out of range",
            cfg.random_loss
        );
        assert!(cfg.queue_capacity_bytes > 0, "Link: zero queue capacity");
        Link {
            trace,
            cfg,
            rng: Rng::substream(seed, 0x11F0),
            free_at: Time::ZERO,
            scheduled: VecDeque::with_capacity(128),
            backlog: 0,
            last_arrival: Time::ZERO,
            span_rate: 0.0,
            span_from: Time::ZERO,
            span_until: Time::ZERO,
            delivered: 0,
            queue_drops: 0,
            random_losses: 0,
        }
    }

    /// The capacity trace.
    pub fn trace(&self) -> &T {
        &self.trace
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped at the queue tail so far.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Packets lost to random loss so far.
    pub fn random_losses(&self) -> u64 {
        self.random_losses
    }

    /// Bytes currently queued ahead of a packet arriving at `now`
    /// (including any packet in service).
    pub fn backlog_bytes(&mut self, now: Time) -> u64 {
        while let Some(&(finish, bytes)) = self.scheduled.front() {
            if finish <= now {
                self.scheduled.pop_front();
                self.backlog -= bytes;
            } else {
                break;
            }
        }
        self.backlog
    }

    /// The queueing delay a packet sent at `now` would currently inherit.
    pub fn queue_delay(&self, now: Time) -> Dur {
        self.free_at.saturating_since(now)
    }

    /// Offers one packet to the link at time `now`; `now` must be
    /// non-decreasing across calls.
    pub fn send(&mut self, packet: &Packet, now: Time) -> Delivery {
        // Drop-tail check against the live backlog.
        let backlog = self.backlog_bytes(now);
        if backlog + packet.size_bytes > self.cfg.queue_capacity_bytes {
            self.queue_drops += 1;
            return Delivery::QueueDrop;
        }

        // Serialize after the existing backlog.
        let start = self.free_at.max(now);
        let finish = self.serialize(start, packet.size_bits());
        self.free_at = finish;
        self.scheduled.push_back((finish, packet.size_bytes));
        self.backlog += packet.size_bytes;

        // Random (wireless) loss still occupies the serializer.
        if self.cfg.random_loss > 0.0 && self.rng.chance(self.cfg.random_loss) {
            self.random_losses += 1;
            return Delivery::Lost;
        }

        let mut arrival = finish + self.cfg.propagation;
        if !self.cfg.jitter_std.is_zero() {
            let jitter = self.rng.normal().abs() * self.cfg.jitter_std.as_secs_f64();
            arrival += Dur::from_secs_f64(jitter);
        }
        // Enforce FIFO delivery despite jitter.
        arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        self.delivered += 1;
        Delivery::At(arrival)
    }

    /// The capacity at `t`, from the cached span when `t` lies in it.
    fn rate_at(&mut self, t: Time) -> f64 {
        if t < self.span_from || t >= self.span_until {
            let (rate, until) = self.trace.rate_span(t);
            (self.span_rate, self.span_from, self.span_until) = (rate, t, until);
        }
        self.span_rate
    }

    /// Integrates the capacity trace from `start` until `bits` have been
    /// transmitted, in ≤1 ms slices.
    fn serialize(&mut self, start: Time, bits: u64) -> Time {
        let mut t = start;
        let mut remaining = bits as f64;
        // Hard ceiling to avoid spinning on a dead link: 60 s per packet.
        let deadline = start + Dur::secs(60);
        while remaining > 0.0 && t < deadline {
            let rate = self.rate_at(t);
            if rate <= 0.0 {
                t += SLICE;
                continue;
            }
            let slice_bits = rate * SLICE.as_secs_f64();
            if slice_bits >= remaining {
                t += Dur::from_secs_f64(remaining / rate);
                remaining = 0.0;
            } else {
                remaining -= slice_bits;
                t += SLICE;
            }
        }
        t
    }
}

/// Serialization slice: capacity is integrated in steps of at most this.
const SLICE: Dur = Dur::MILLI;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosSchedule, ChaosTrace};
    use crate::packet::MediaKind;
    use ravel_trace::{ConstantTrace, StepTrace};

    fn pkt(seq: u64, size_bytes: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: 0,
            num_fragments: 1,
            size_bytes,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    fn quiet_cfg() -> LinkConfig {
        LinkConfig {
            propagation: Dur::millis(20),
            queue_capacity_bytes: 250_000,
            jitter_std: Dur::ZERO,
            random_loss: 0.0,
        }
    }

    #[test]
    fn single_packet_delay_is_serialization_plus_propagation() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        // 1250 bytes at 1 Mbps = 10 ms; +20 ms propagation = 30 ms.
        let d = link.send(&pkt(0, 1250), Time::ZERO);
        assert_eq!(d, Delivery::At(Time::from_millis(30)));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        let d0 = link.send(&pkt(0, 1250), Time::ZERO).arrival().unwrap();
        let d1 = link.send(&pkt(1, 1250), Time::ZERO).arrival().unwrap();
        assert_eq!(d0, Time::from_millis(30));
        assert_eq!(d1, Time::from_millis(40)); // 10 ms behind
    }

    #[test]
    fn queue_drains_between_sends() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        link.send(&pkt(0, 1250), Time::ZERO);
        // 20 ms later the first packet has fully serialized: no backlog.
        assert_eq!(link.queue_delay(Time::from_millis(20)), Dur::ZERO);
        let d = link.send(&pkt(1, 1250), Time::from_millis(20));
        assert_eq!(d, Delivery::At(Time::from_millis(50)));
        // After the send, the in-service packet *is* the queue delay.
        assert_eq!(link.queue_delay(Time::from_millis(20)), Dur::millis(10));
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut cfg = quiet_cfg();
        cfg.queue_capacity_bytes = 3000;
        let mut link = Link::new(ConstantTrace::new(1e6), cfg, 0);
        assert!(link.send(&pkt(0, 1250), Time::ZERO).arrival().is_some());
        assert!(link.send(&pkt(1, 1250), Time::ZERO).arrival().is_some());
        // 2500 bytes backlogged; a third 1250 B packet exceeds 3000.
        assert_eq!(link.send(&pkt(2, 1250), Time::ZERO), Delivery::QueueDrop);
        assert_eq!(link.queue_drops(), 1);
        // After the backlog drains, sends succeed again.
        assert!(link
            .send(&pkt(3, 1250), Time::from_millis(25))
            .arrival()
            .is_some());
    }

    #[test]
    fn capacity_drop_slows_serialization() {
        let trace = StepTrace::sudden_drop(1e6, 0.5e6, Time::from_millis(10));
        let mut link = Link::new(trace, quiet_cfg(), 0);
        // 2500 bytes = 20 kbit: 10 ms at 1 Mbps covers 10 kbit, the rest
        // at 0.5 Mbps takes 20 ms. Finish = 30 ms (+20 propagation).
        let d = link.send(&pkt(0, 2500), Time::ZERO).arrival().unwrap();
        assert_eq!(d, Time::from_millis(50));
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        for i in 0..8 {
            link.send(&pkt(i, 1250), Time::ZERO);
        }
        // 8 × 10 ms of serialization queued.
        assert_eq!(link.queue_delay(Time::ZERO), Dur::millis(80));
        assert_eq!(link.backlog_bytes(Time::ZERO), 10_000);
        // Half drained at t = 40 ms.
        assert_eq!(link.backlog_bytes(Time::from_millis(40)), 5_000);
    }

    #[test]
    fn random_loss_statistics() {
        let mut cfg = quiet_cfg();
        cfg.random_loss = 0.1;
        let mut link = Link::new(ConstantTrace::new(100e6), cfg, 42);
        let mut lost = 0;
        for i in 0..10_000u64 {
            let t = Time::from_micros(i * 200);
            if link.send(&pkt(i, 1250), t) == Delivery::Lost {
                lost += 1;
            }
        }
        assert!((800..1200).contains(&lost), "lost {lost}/10000");
        assert_eq!(link.random_losses(), lost);
    }

    #[test]
    fn jitter_never_reorders() {
        let mut cfg = quiet_cfg();
        cfg.jitter_std = Dur::millis(5);
        let mut link = Link::new(ConstantTrace::new(10e6), cfg, 7);
        let mut last = Time::ZERO;
        for i in 0..1000u64 {
            let t = Time::from_micros(i * 1000);
            if let Some(a) = link.send(&pkt(i, 1250), t).arrival() {
                assert!(a >= last, "reordered at seq {i}");
                last = a;
            }
        }
    }

    #[test]
    fn dead_link_does_not_hang() {
        let mut link = Link::new(ConstantTrace::new(0.0), quiet_cfg(), 0);
        let d = link.send(&pkt(0, 1250), Time::ZERO);
        // Packet "arrives" only after the 60 s safety ceiling; the
        // important property is that send() returns.
        assert!(d.arrival().unwrap() >= Time::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_bad_loss() {
        Link::new(
            ConstantTrace::new(1e6),
            LinkConfig {
                random_loss: 1.5,
                ..quiet_cfg()
            },
            0,
        );
    }

    /// The pre-cache serializer, verbatim: one trace query per slice.
    fn serialize_per_slice<T: BandwidthTrace>(trace: &T, start: Time, bits: u64) -> Time {
        let mut t = start;
        let mut remaining = bits as f64;
        let deadline = start + Dur::secs(60);
        while remaining > 0.0 && t < deadline {
            let rate = trace.rate_bps(t);
            if rate <= 0.0 {
                t += SLICE;
                continue;
            }
            let slice_bits = rate * SLICE.as_secs_f64();
            if slice_bits >= remaining {
                t += Dur::from_secs_f64(remaining / rate);
                remaining = 0.0;
            } else {
                remaining -= slice_bits;
                t += SLICE;
            }
        }
        t
    }

    /// Hides a trace's spans: every `rate_span` is one clock grain
    /// (the trait default), so a link over it queries every slice.
    struct PerSlice<T>(T);

    impl<T: BandwidthTrace> BandwidthTrace for PerSlice<T> {
        fn rate_bps(&self, at: Time) -> f64 {
            self.0.rate_bps(at)
        }
    }

    /// A chaos-wrapped step trace with sub-millisecond breakpoints and
    /// zero-rate stretches, from generated `(gap µs, rate)` pairs.
    fn chaotic_trace(steps: &[(u64, f64)], seed: u64) -> ChaosTrace<StepTrace> {
        let mut t = Time::ZERO;
        let mut points = vec![(t, 2e6)];
        for &(gap, rate) in steps {
            t += Dur::micros(gap);
            // A fifth of the segments are dead links.
            points.push((t, if rate < 0.6e6 { 0.0 } else { rate }));
        }
        // A live tail, so no packet waits out the dead-link ceiling.
        points.push((t + Dur::MICRO, 1e6));
        let spec = crate::chaos::ChaosSpec::new(seed, 1.0);
        ChaosTrace::new(
            StepTrace::new(points),
            ChaosSchedule::generate(spec, Dur::secs(4)),
        )
    }

    proptest::proptest! {
        /// The span-cached link and a link that queries the trace every
        /// slice deliver identically — same `Delivery` sequence, bit
        /// for bit — and each finish time equals the verbatim
        /// per-slice serializer's.
        #[test]
        fn span_cache_matches_per_slice_reference(
            steps in proptest::collection::vec((1u64..400_000, 0.0f64..3e6), 1..24),
            sends in proptest::collection::vec((0u64..40_000, 40u64..1500), 1..80),
            (seed, loss_pct, jitter_ms) in (0u64..1_000, 0u64..20, 0u64..4),
        ) {
            let cfg = LinkConfig {
                random_loss: loss_pct as f64 / 100.0,
                jitter_std: Dur::millis(jitter_ms),
                queue_capacity_bytes: 60_000,
                ..quiet_cfg()
            };
            let mut cached = Link::new(chaotic_trace(&steps, seed), cfg, seed);
            let mut reference = Link::new(PerSlice(chaotic_trace(&steps, seed)), cfg, seed);
            let mut now = Time::ZERO;
            for (i, &(gap, size)) in sends.iter().enumerate() {
                now += Dur::micros(gap);
                let start = cached.free_at.max(now);
                let p = pkt(i as u64, size);
                let expected_finish = serialize_per_slice(cached.trace(), start, p.size_bits());
                let got = cached.send(&p, now);
                proptest::prop_assert_eq!(got, reference.send(&p, now));
                if got != Delivery::QueueDrop {
                    proptest::prop_assert_eq!(cached.free_at, expected_finish);
                }
            }
            proptest::prop_assert_eq!(cached.delivered(), reference.delivered());
        }

        /// Deliveries are always at least propagation after send, and
        /// monotone across a burst.
        #[test]
        fn delivery_sane(sizes in proptest::collection::vec(100u64..1500, 1..40)) {
            let mut link = Link::new(ConstantTrace::new(2e6), quiet_cfg(), 1);
            let mut last = Time::ZERO;
            for (i, size) in sizes.into_iter().enumerate() {
                let now = Time::from_micros(i as u64 * 500);
                if let Some(a) = link.send(&pkt(i as u64, size), now).arrival() {
                    proptest::prop_assert!(a >= now + Dur::millis(20));
                    proptest::prop_assert!(a >= last);
                    last = a;
                }
            }
        }
    }
}
