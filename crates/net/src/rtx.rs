//! NACK-driven retransmission (RTX), as WebRTC does loss recovery.
//!
//! Random (wireless) loss would otherwise freeze the receiver until a
//! PLI round-trip and a full keyframe — expensive at exactly the moment
//! capacity is scarce. Real RTC stacks instead retransmit: the receiver
//! NACKs sequence-number gaps, and the sender replays the packets from a
//! short history buffer.
//!
//! Two halves:
//!
//! * [`RtxBuffer`] — sender-side history of recently sent packets,
//!   bounded by age and count.
//! * [`NackGenerator`] — receiver-side gap tracking: detects missing
//!   sequence numbers as arrivals advance, emits NACK batches, and
//!   retries with backoff until the packet arrives or the entry expires
//!   (at which point recovery is the PLI path's job).
//!
//! Retransmissions reuse the original sequence number. Our link never
//! reorders, so a gap is actionable on the packet *after* it; a small
//! reorder-tolerance is still configurable for jittery links.

use std::collections::{BTreeMap, VecDeque};

use ravel_sim::{Dur, Time};

use crate::packet::Packet;

/// Sender-side packet history for retransmission.
///
/// Every sequence number comes from one session-wide counter and
/// retention is bounded by age and count, so the live seqs span a short
/// range: the history is a dense window of slots indexed by
/// `seq - base`, O(1) per store, eviction and lookup. The window allows
/// holes (audio seqs are stored at their tick, video seqs later, at
/// pacer release) and grows at the front when a retransmission re-stores
/// a seq whose original entry was already evicted. Its memory is
/// proportional to that seq span.
///
/// Retention is decided by the time-ordered queue of stores, exactly as
/// a map keyed by seq would decide it:
///
/// * evicting *any* queue entry for a seq clears that seq, even if it
///   was re-stored later;
/// * `max_count` bounds the queue, so re-stores count toward it;
/// * [`RtxBuffer::len`] counts live packets, not queue entries.
#[derive(Debug, Clone)]
pub struct RtxBuffer {
    /// Slot `i` holds seq `base + i`; `None` is a hole. The front slot
    /// is always live (the window is trimmed after every eviction).
    slots: VecDeque<Option<Packet>>,
    /// Seq of the front slot (meaningless while `slots` is empty).
    base: u64,
    /// Occupied slots.
    live: usize,
    /// Insertion order for age eviction: (send time, seq).
    order: VecDeque<(Time, u64)>,
    /// Maximum retention age.
    max_age: Dur,
    /// Maximum retained stores (re-stores included).
    max_count: usize,
    retransmissions: u64,
}

impl RtxBuffer {
    /// Creates a buffer retaining packets for `max_age` or until
    /// `max_count` is exceeded, whichever trims first.
    pub fn new(max_age: Dur, max_count: usize) -> RtxBuffer {
        assert!(max_count > 0, "RtxBuffer: zero capacity");
        RtxBuffer {
            slots: VecDeque::new(),
            base: 0,
            live: 0,
            order: VecDeque::new(),
            max_age,
            max_count,
            retransmissions: 0,
        }
    }

    /// Packets currently retained.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no packets are retained.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total retransmissions served.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Records a packet as sent at `now`.
    pub fn store(&mut self, packet: &Packet, now: Time) {
        let seq = packet.seq;
        if self.slots.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            // A re-stored retransmission whose original entry is gone:
            // open holes down to it.
            for _ in seq..self.base {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        if self.slots[idx].replace(*packet).is_none() {
            self.live += 1;
        }
        self.order.push_back((now, seq));
        self.evict(now);
    }

    /// Looks up packets for a NACK batch; increments the retransmission
    /// counter for each hit. Misses (already evicted) are silently
    /// skipped — the receiver's PLI path covers them.
    pub fn retransmit(&mut self, seqs: &[u64]) -> Vec<Packet> {
        let mut out = Vec::with_capacity(seqs.len());
        self.retransmit_into(seqs, &mut out);
        out
    }

    /// [`RtxBuffer::retransmit`] into a caller-owned buffer, the
    /// hot-path form: `out` is cleared and refilled, so a session reusing
    /// one scratch buffer stops allocating per NACK batch.
    pub fn retransmit_into(&mut self, seqs: &[u64], out: &mut Vec<Packet>) {
        out.clear();
        for &seq in seqs {
            if let Some(p) = self.slot(seq).and_then(|i| self.slots[i]) {
                out.push(p);
                self.retransmissions += 1;
            }
        }
    }

    /// Index of `seq`'s slot, if it lies inside the window.
    fn slot(&self, seq: u64) -> Option<usize> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (idx < self.slots.len()).then_some(idx)
    }

    fn evict(&mut self, now: Time) {
        let cutoff = Time::from_micros(now.as_micros().saturating_sub(self.max_age.as_micros()));
        while let Some(&(t, seq)) = self.order.front() {
            if t < cutoff || self.order.len() > self.max_count {
                if let Some(i) = self.slot(seq) {
                    if self.slots[i].take().is_some() {
                        self.live -= 1;
                    }
                }
                self.order.pop_front();
            } else {
                break;
            }
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            // Wraps only as the window empties, when `base` is unused.
            self.base = self.base.wrapping_add(1);
        }
    }
}

/// One NACK batch requested by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NackBatch {
    /// Missing sequence numbers, ascending.
    pub seqs: Vec<u64>,
    /// When the receiver generated the batch.
    pub generated_at: Time,
}

/// Receiver-side gap detection and NACK scheduling.
#[derive(Debug, Clone)]
pub struct NackGenerator {
    /// Next sequence number we expect (highest seen + 1).
    next_expected: u64,
    /// Outstanding gaps: seq → (first seen missing, retries left, next
    /// retry due).
    missing: BTreeMap<u64, MissingEntry>,
    /// Retry spacing.
    retry_interval: Dur,
    /// Maximum NACK attempts per packet before giving up.
    max_retries: u32,
    /// Entries older than this are abandoned (PLI territory).
    give_up_after: Dur,
    nacks_sent: u64,
    abandoned: u64,
}

#[derive(Debug, Clone, Copy)]
struct MissingEntry {
    first_missing_at: Time,
    retries_left: u32,
    next_due: Time,
}

impl NackGenerator {
    /// Creates a generator with WebRTC-flavoured defaults supplied by
    /// the caller (typical: 20–50 ms retry, 3–10 retries).
    pub fn new(retry_interval: Dur, max_retries: u32, give_up_after: Dur) -> NackGenerator {
        assert!(max_retries > 0, "NackGenerator: zero retries");
        NackGenerator {
            next_expected: 0,
            missing: BTreeMap::new(),
            retry_interval,
            max_retries,
            give_up_after,
            nacks_sent: 0,
            abandoned: 0,
        }
    }

    /// Outstanding missing packets.
    pub fn outstanding(&self) -> usize {
        self.missing.len()
    }

    /// Total individual NACKs sent (per packet per attempt).
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Gaps abandoned after exhausting retries or aging out.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Records one arrival; newly discovered gaps become NACK
    /// candidates (due immediately), and a filled gap is cleared.
    pub fn on_packet(&mut self, seq: u64, now: Time) {
        if seq >= self.next_expected {
            for missing in self.next_expected..seq {
                self.missing.insert(
                    missing,
                    MissingEntry {
                        first_missing_at: now,
                        retries_left: self.max_retries,
                        next_due: now,
                    },
                );
            }
            self.next_expected = seq + 1;
        } else {
            // A retransmission (or duplicate) filled a gap.
            self.missing.remove(&seq);
        }
    }

    /// Collects the NACK batch due at `now`, if any. Each included seq
    /// consumes one retry and is rescheduled at `retry_interval`.
    pub fn poll(&mut self, now: Time) -> Option<NackBatch> {
        let mut batch = NackBatch {
            seqs: Vec::new(),
            generated_at: now,
        };
        self.poll_into(now, &mut batch).then_some(batch)
    }

    /// [`NackGenerator::poll`] into a caller-owned batch, the hot-path
    /// form: `batch.seqs` is cleared and refilled and `generated_at`
    /// set, so a session recycling batch buffers stops allocating per
    /// poll. Returns false, with `batch.seqs` empty, when `poll` would
    /// return `None`.
    pub fn poll_into(&mut self, now: Time, batch: &mut NackBatch) -> bool {
        // Abandon hopeless entries first.
        let give_up = self.give_up_after;
        let before = self.missing.len();
        self.missing.retain(|_, e| {
            e.retries_left > 0 && now.saturating_since(e.first_missing_at) <= give_up
        });
        self.abandoned += (before - self.missing.len()) as u64;

        let seqs = &mut batch.seqs;
        seqs.clear();
        for (&seq, entry) in self.missing.iter_mut() {
            if entry.next_due <= now {
                seqs.push(seq);
                entry.retries_left -= 1;
                entry.next_due = now + self.retry_interval;
            }
        }
        batch.generated_at = now;
        self.nacks_sent += seqs.len() as u64;
        !seqs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MediaKind;

    fn pkt(seq: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: seq / 3,
            fragment: (seq % 3) as u16,
            num_fragments: 3,
            size_bytes: 1250,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    #[test]
    fn buffer_stores_and_retransmits() {
        let mut buf = RtxBuffer::new(Dur::secs(1), 100);
        for i in 0..10 {
            buf.store(&pkt(i), ms(i * 10));
        }
        let out = buf.retransmit(&[3, 7]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 3);
        assert_eq!(buf.retransmissions(), 2);
    }

    #[test]
    fn buffer_evicts_by_age() {
        let mut buf = RtxBuffer::new(Dur::millis(100), 1000);
        buf.store(&pkt(0), ms(0));
        buf.store(&pkt(1), ms(200)); // evicts seq 0
        assert!(buf.retransmit(&[0]).is_empty());
        assert_eq!(buf.retransmit(&[1]).len(), 1);
    }

    #[test]
    fn buffer_evicts_by_count() {
        let mut buf = RtxBuffer::new(Dur::secs(100), 5);
        for i in 0..10 {
            buf.store(&pkt(i), ms(i));
        }
        assert_eq!(buf.len(), 5);
        assert!(buf.retransmit(&[0]).is_empty());
        assert_eq!(buf.retransmit(&[9]).len(), 1);
    }

    #[test]
    fn re_store_does_not_extend_retention() {
        // Age: evicting the first store of seq 0 clears it, although a
        // later re-store (a retransmission) is still queued.
        let mut buf = RtxBuffer::new(Dur::millis(100), 1000);
        buf.store(&pkt(0), ms(0));
        buf.store(&pkt(1), ms(10));
        buf.store(&pkt(0), ms(80));
        assert_eq!(buf.len(), 2);
        buf.store(&pkt(2), ms(105));
        assert!(buf.retransmit(&[0]).is_empty());
        assert_eq!(buf.retransmit(&[1, 2]).len(), 2);
        assert_eq!(buf.len(), 2);

        // Count: re-stores occupy the count bound like fresh stores.
        let mut buf = RtxBuffer::new(Dur::secs(100), 3);
        buf.store(&pkt(0), ms(0));
        buf.store(&pkt(1), ms(1));
        buf.store(&pkt(1), ms(2));
        buf.store(&pkt(1), ms(3));
        assert_eq!(buf.len(), 1);
        assert!(buf.retransmit(&[0]).is_empty());

        // A re-store below the oldest live seq reopens it, and its
        // queue entry evicts the oldest entry of seq 1, which clears
        // seq 1 although two later stores of it are still queued.
        buf.store(&pkt(0), ms(4));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.retransmit(&[0, 1]), vec![pkt(0)]);
        assert_eq!(buf.retransmissions(), 1);
    }

    /// The retained-by-map history the dense window replaced, kept as
    /// the differential oracle for its retention semantics.
    struct MapRtxBuffer {
        packets: BTreeMap<u64, Packet>,
        order: VecDeque<(Time, u64)>,
        max_age: Dur,
        max_count: usize,
        retransmissions: u64,
    }

    impl MapRtxBuffer {
        fn new(max_age: Dur, max_count: usize) -> MapRtxBuffer {
            MapRtxBuffer {
                packets: BTreeMap::new(),
                order: VecDeque::new(),
                max_age,
                max_count,
                retransmissions: 0,
            }
        }

        fn store(&mut self, packet: &Packet, now: Time) {
            self.packets.insert(packet.seq, *packet);
            self.order.push_back((now, packet.seq));
            let cutoff =
                Time::from_micros(now.as_micros().saturating_sub(self.max_age.as_micros()));
            while let Some(&(t, seq)) = self.order.front() {
                if t < cutoff || self.order.len() > self.max_count {
                    self.packets.remove(&seq);
                    self.order.pop_front();
                } else {
                    break;
                }
            }
        }

        fn retransmit(&mut self, seqs: &[u64]) -> Vec<Packet> {
            let out: Vec<Packet> = seqs
                .iter()
                .filter_map(|s| self.packets.get(s))
                .copied()
                .collect();
            self.retransmissions += out.len() as u64;
            out
        }
    }

    /// One step of a differential schedule.
    #[derive(Debug, Clone)]
    enum Op {
        /// The next seq, or one up to 3 below it: the audio/video
        /// interleave stores seqs out of order.
        Store { lag: u64 },
        /// A seq up to 63 below the counter: live or already evicted.
        ReStore { lag: u64 },
        /// `len` seqs from `lag` below the counter, every other one.
        Retransmit { lag: u64, len: u64 },
        /// The clock jumps forward.
        Advance { ms: u64 },
    }

    fn op() -> impl proptest::Strategy<Value = Op> {
        use proptest::Strategy;
        (0u8..10, 0u64..64, 0u64..8).prop_map(|(kind, a, b)| match kind {
            0..=3 => Op::Store { lag: a % 4 },
            4 | 5 => Op::ReStore { lag: a },
            6 | 7 => Op::Retransmit { lag: a, len: b },
            _ => Op::Advance { ms: a * b },
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]

        /// Under random store / re-store / NACK / clock schedules and
        /// tiny bounds, the dense window retains exactly what the
        /// map-backed history retained, step for step.
        #[test]
        fn window_matches_map_reference(
            max_age_ms in 1u64..40,
            max_count in 1usize..12,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let mut buf = RtxBuffer::new(Dur::millis(max_age_ms), max_count);
            let mut reference = MapRtxBuffer::new(Dur::millis(max_age_ms), max_count);
            let mut counter = 0u64;
            let mut now = Time::ZERO;
            let mut got = Vec::new();
            for op in &ops {
                match *op {
                    Op::Store { lag } => {
                        counter += 1;
                        let p = pkt(counter.saturating_sub(lag));
                        buf.store(&p, now);
                        reference.store(&p, now);
                    }
                    Op::ReStore { lag } => {
                        let mut p = pkt(counter.saturating_sub(lag));
                        p.send_time = now;
                        buf.store(&p, now);
                        reference.store(&p, now);
                    }
                    Op::Retransmit { lag, len } => {
                        let seqs: Vec<u64> =
                            (0..len).map(|k| counter.saturating_sub(lag + 2 * k)).collect();
                        buf.retransmit_into(&seqs, &mut got);
                        proptest::prop_assert_eq!(&got, &reference.retransmit(&seqs));
                    }
                    Op::Advance { ms } => now += Dur::millis(ms),
                }
                proptest::prop_assert_eq!(buf.len(), reference.packets.len());
                proptest::prop_assert_eq!(buf.is_empty(), reference.packets.is_empty());
                proptest::prop_assert_eq!(buf.retransmissions(), reference.retransmissions);
            }
            // Every seq ever used: same hits, same packet contents.
            let all: Vec<u64> = (0..=counter).collect();
            proptest::prop_assert_eq!(buf.retransmit(&all), reference.retransmit(&all));
        }
    }

    #[test]
    fn gap_detection_and_fill() {
        let mut nack = NackGenerator::new(Dur::millis(20), 3, Dur::millis(500));
        nack.on_packet(0, ms(0));
        nack.on_packet(3, ms(10)); // gaps: 1, 2
        assert_eq!(nack.outstanding(), 2);
        let batch = nack.poll(ms(10)).unwrap();
        assert_eq!(batch.seqs, vec![1, 2]);
        // Retransmission of seq 1 arrives.
        nack.on_packet(1, ms(40));
        assert_eq!(nack.outstanding(), 1);
    }

    #[test]
    fn retries_with_backoff_then_abandons() {
        let mut nack = NackGenerator::new(Dur::millis(20), 2, Dur::secs(10));
        nack.on_packet(0, ms(0));
        nack.on_packet(2, ms(0)); // gap: 1
        assert!(nack.poll(ms(0)).is_some()); // retry 1
        assert!(nack.poll(ms(5)).is_none()); // not due yet
        assert!(nack.poll(ms(25)).is_some()); // retry 2 (last)
        assert!(nack.poll(ms(50)).is_none()); // exhausted -> abandoned
        assert_eq!(nack.abandoned(), 1);
        assert_eq!(nack.outstanding(), 0);
        assert_eq!(nack.nacks_sent(), 2);
    }

    #[test]
    fn old_entries_age_out() {
        let mut nack = NackGenerator::new(Dur::millis(20), 100, Dur::millis(100));
        nack.on_packet(0, ms(0));
        nack.on_packet(2, ms(0));
        assert!(nack.poll(ms(0)).is_some());
        // 200 ms later the entry exceeded give_up_after.
        assert!(nack.poll(ms(200)).is_none());
        assert_eq!(nack.abandoned(), 1);
    }

    #[test]
    fn in_order_stream_never_nacks() {
        let mut nack = NackGenerator::new(Dur::millis(20), 3, Dur::millis(500));
        for i in 0..100 {
            nack.on_packet(i, ms(i));
        }
        assert!(nack.poll(ms(200)).is_none());
        assert_eq!(nack.nacks_sent(), 0);
    }

    #[test]
    fn duplicate_arrivals_are_harmless() {
        let mut nack = NackGenerator::new(Dur::millis(20), 3, Dur::millis(500));
        nack.on_packet(0, ms(0));
        nack.on_packet(0, ms(1));
        nack.on_packet(1, ms(2));
        assert_eq!(nack.outstanding(), 0);
    }

    proptest::proptest! {
        /// Whatever the loss pattern, every missing seq below the highest
        /// arrival is either outstanding, filled, or abandoned — never
        /// silently forgotten.
        #[test]
        fn accounting_complete(arrivals in proptest::collection::btree_set(0u64..200, 1..120)) {
            let mut nack = NackGenerator::new(Dur::millis(20), 1, Dur::secs(10));
            for (i, &seq) in arrivals.iter().enumerate() {
                nack.on_packet(seq, ms(i as u64));
            }
            let highest = *arrivals.iter().max().unwrap();
            let missing_count = (0..=highest).filter(|s| !arrivals.contains(s)).count();
            proptest::prop_assert_eq!(nack.outstanding(), missing_count);
        }
    }
}
