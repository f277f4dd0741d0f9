//! Forward error correction (FlexFEC-style XOR parity).
//!
//! NACK/RTX repairs a loss in one round-trip; on long paths or during
//! the exact moment a bandwidth drop already stresses the reverse
//! channel, that round-trip is expensive. FEC trades constant bitrate
//! overhead for zero-RTT recovery: every `group_size` media packets the
//! sender emits one XOR parity packet; the receiver can reconstruct any
//! *single* missing packet of the group once the other members and the
//! parity have arrived.
//!
//! The model tracks which payloads a parity packet covers rather than
//! XORing real bytes — recovery succeeds exactly when a real XOR decoder
//! would succeed (all-but-one of the group present).
//!
//! * [`FecEncoder`] — sender side: buffers outgoing packet metadata and
//!   emits a parity [`Packet`] per full group.
//! * [`FecDecoder`] — receiver side: tracks group membership and reports
//!   recovered sequence numbers.
//!
//! Overhead: one parity packet (max member size + headers) per
//! `group_size` media packets — e.g. ~10% at `group_size = 10`.

use std::collections::VecDeque;

use ravel_sim::Time;

use crate::packet::{MediaKind, Packet, HEADER_BYTES};

/// Identifies a FEC group: consecutive media packets share a group until
/// the group fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// Sender-side FEC: collects outgoing media packets into groups and
/// emits one parity packet per full group.
#[derive(Debug, Clone)]
pub struct FecEncoder {
    group_size: usize,
    /// Members (seqs) of the group being filled. Other flows (audio,
    /// other parities) may interleave sequence numbers between members;
    /// the emitted parity covers the whole seq *span* and the decoder
    /// tracks every arrival in it.
    current: Vec<u64>,
    /// Largest member wire size (parity must cover the biggest payload).
    current_max_bytes: u64,
    next_group: u64,
    parity_sent: u64,
}

impl FecEncoder {
    /// Creates an encoder emitting one parity packet per `group_size`
    /// media packets.
    pub fn new(group_size: usize) -> FecEncoder {
        assert!(
            (2..=48).contains(&group_size),
            "FecEncoder: group size {group_size} out of range"
        );
        FecEncoder {
            group_size,
            current: Vec::with_capacity(group_size),
            current_max_bytes: 0,
            next_group: 0,
            parity_sent: 0,
        }
    }

    /// Parity packets emitted so far.
    pub fn parity_sent(&self) -> u64 {
        self.parity_sent
    }

    /// Registers one outgoing media packet; returns a parity packet when
    /// this packet completes a group. `parity_seq` is invoked **only**
    /// when a parity is actually emitted (it allocates a transport-wide
    /// sequence number; calling it eagerly would burn a seq per media
    /// packet and fill the stream with fake gaps).
    pub fn on_media_packet(
        &mut self,
        packet: &Packet,
        parity_seq: impl FnOnce() -> u64,
        now: Time,
    ) -> Option<Packet> {
        debug_assert_ne!(packet.kind, MediaKind::Fec, "FEC over FEC");
        self.current.push(packet.seq);
        self.current_max_bytes = self.current_max_bytes.max(packet.size_bytes);
        if self.current.len() < self.group_size {
            return None;
        }
        let group = GroupId(self.next_group);
        self.next_group += 1;
        let first = *self.current.first().expect("non-empty group");
        let last = *self.current.last().expect("non-empty group");
        // Cover the full seq span: interleaved packets from other flows
        // become members too (the decoder sees all arrivals).
        let span = (last - first + 1) as u16;
        let size = self.current_max_bytes;
        self.current.clear();
        self.current_max_bytes = 0;
        self.parity_sent += 1;
        Some(
            Packet {
                kind: MediaKind::Fec,
                seq: parity_seq(),
                // Parity packets encode their group in the frame_index field
                // (disjoint namespace) and the first covered seq in
                // `fragment`-adjacent fields via pts reuse being unnecessary:
                // the decoder re-derives membership from first_seq + size.
                frame_index: FEC_GROUP_BASE + group.0,
                fragment: 0,
                num_fragments: 1,
                size_bytes: size.max(HEADER_BYTES + 1),
                pts: now,
                send_time: now,
                is_keyframe: false,
            }
            .with_group_info(first, span),
        )
    }
}

/// Namespace offset for parity-packet `frame_index` values.
pub const FEC_GROUP_BASE: u64 = 1 << 48;

/// Helpers for encoding group membership into the packet header fields.
trait GroupInfo {
    fn with_group_info(self, first_seq: u64, count: u16) -> Packet;
    fn group_first_seq(&self) -> u64;
    fn group_count(&self) -> u16;
}

impl GroupInfo for Packet {
    /// Stores `(first covered seq, member count)` in the pts field
    /// (unused for parity) and `num_fragments`.
    fn with_group_info(mut self, first_seq: u64, count: u16) -> Packet {
        self.pts = Time::from_micros(first_seq);
        self.num_fragments = count;
        self
    }

    fn group_first_seq(&self) -> u64 {
        self.pts.as_micros()
    }

    fn group_count(&self) -> u16 {
        self.num_fragments
    }
}

/// Media arrivals a group opened by a late parity can still see.
const ARRIVAL_LOG: usize = 1024;
/// Seqs [`ArrivalLog`] counts densely, ending at the highest arrival.
const COUNT_WINDOW: u64 = 4096;
/// Groups retained at most; beyond it the smallest key is evicted.
const MAX_GROUPS: usize = 64;

/// Receiver-side FEC: tracks arrivals per group and recovers single
/// losses.
///
/// Per media arrival the decoder binary-searches the tracked spans by
/// first seq and walks back only over spans that can still reach the
/// arrival, so its cost does not grow with the number of groups.
/// Opening a group replays its members from per-seq occurrence counts
/// of the arrival log, not from the log itself. Recovery needs no scan
/// until a group is one member short. Nothing allocates unless a packet
/// is recovered: member bitsets of evicted groups are reused.
#[derive(Debug, Clone, Default)]
pub struct FecDecoder {
    /// Tracked groups, ascending by key (the parity's `frame_index`).
    groups: VecDeque<Group>,
    /// The groups' spans, ascending by `(first_seq, key)`.
    spans: VecDeque<Span>,
    /// Largest `count` among tracked groups: no span starting more than
    /// this far below a seq holds it.
    max_count: u64,
    /// Tracked groups whose `count` is `max_count`.
    at_max_count: usize,
    arrivals: ArrivalLog,
    /// Member bitsets of evicted groups, for the next groups opened.
    spare: Vec<Vec<u64>>,
    /// `(group key, recovered seq)` of the packet being handled.
    hits: Vec<(u64, u64)>,
    recovered: u64,
}

/// Where a tracked group sits in seq space.
#[derive(Debug, Clone, Copy)]
struct Span {
    first_seq: u64,
    count: u16,
    key: u64,
}

#[derive(Debug, Clone)]
struct Group {
    key: u64,
    first_seq: u64,
    count: u16,
    /// Set bits of `arrived` (members arrived or recovered).
    arrived_count: u16,
    /// Bit `i` set: member `first_seq + i` arrived or was recovered.
    arrived: Vec<u64>,
    recovered: bool,
}

impl Group {
    /// Marks member `offset` arrived.
    fn mark(&mut self, offset: u64) {
        let (word, bit) = ((offset / 64) as usize, 1u64 << (offset % 64));
        if let Some(w) = self.arrived.get_mut(word) {
            if *w & bit == 0 {
                *w |= bit;
                self.arrived_count += 1;
            }
        }
    }

    /// The group becomes recoverable once its parity (always present
    /// for a tracked group) and all but one member are in: returns that
    /// member, now marked.
    fn try_recover(&mut self) -> Option<u64> {
        if self.recovered || u32::from(self.arrived_count) + 1 != u32::from(self.count) {
            return None;
        }
        // Bits past `count` stay clear, so the first clear bit is the
        // one missing member.
        let (word, w) = self.arrived.iter().enumerate().find(|(_, w)| **w != !0)?;
        let offset = word as u64 * 64 + u64::from(w.trailing_ones());
        self.mark(offset);
        self.recovered = true;
        Some(self.first_seq + offset)
    }
}

/// The last [`ARRIVAL_LOG`] media arrivals, duplicates included, with
/// occurrence counts per seq.
///
/// `counts` is a ring over the window `base..base + COUNT_WINDOW`,
/// which ends at the highest arrival, and counts every logged arrival
/// in it. The few logged below `base` (old seqs, or seqs the window
/// slid past) are only tallied in `below`, and found by replaying
/// `seqs`. `base` only rises.
#[derive(Debug, Clone, Default)]
struct ArrivalLog {
    /// Arrival order, oldest first.
    seqs: VecDeque<u64>,
    /// Slot `seq % COUNT_WINDOW`: logged arrivals of `seq`, for seqs in
    /// the window. Empty until the first arrival.
    counts: Vec<u16>,
    base: u64,
    /// Logged arrivals below `base`.
    below: usize,
}

fn slot(seq: u64) -> usize {
    (seq % COUNT_WINDOW) as usize
}

impl ArrivalLog {
    fn push(&mut self, seq: u64) {
        if self.seqs.len() == ARRIVAL_LOG {
            if let Some(old) = self.seqs.pop_front() {
                self.forget(old);
            }
        }
        self.seqs.push_back(seq);
        let Some(idx) = seq.checked_sub(self.base) else {
            self.below += 1;
            return;
        };
        if self.counts.is_empty() {
            self.counts = vec![0; COUNT_WINDOW as usize];
        }
        if idx >= COUNT_WINDOW {
            // Slide the window up to end at `seq`: the seqs leaving it
            // now count as below.
            let shift = idx - (COUNT_WINDOW - 1);
            for i in 0..shift.min(COUNT_WINDOW) {
                let c = &mut self.counts[slot(self.base + i)];
                self.below += usize::from(*c);
                *c = 0;
            }
            self.base += shift;
        }
        self.counts[slot(seq)] += 1;
    }

    /// Drops one logged arrival of `seq`.
    fn forget(&mut self, seq: u64) {
        if seq < self.base {
            self.below -= 1;
        } else if let Some(c) = self.counts.get_mut(slot(seq)) {
            *c -= 1;
        }
    }

    /// Marks in `group` every member that occurs in the log.
    fn replay(&self, group: &mut Group) {
        let count = u64::from(group.count);
        let first = group.first_seq;
        // The first member inside the window: (its offset in the group,
        // its offset from `base`).
        let (lead, start) = match first.checked_sub(self.base) {
            Some(start) => (0, start),
            None => (self.base - first, 0),
        };
        if !self.counts.is_empty() && lead < count && start < COUNT_WINDOW {
            for i in 0..(count - lead).min(COUNT_WINDOW - start) {
                if self.counts[slot(self.base + start + i)] > 0 {
                    group.mark(lead + i);
                }
            }
        }
        // Members below the window: only the log itself knows them.
        if lead > 0 && self.below > 0 {
            for &seq in &self.seqs {
                if seq >= first && seq < self.base && seq - first < count {
                    group.mark(seq - first);
                }
            }
        }
    }
}

impl FecDecoder {
    /// Creates a decoder retaining up to 64 in-flight groups.
    pub fn new() -> FecDecoder {
        FecDecoder::default()
    }

    /// Packets recovered so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Groups currently tracked.
    pub fn tracked_groups(&self) -> usize {
        self.groups.len()
    }

    /// Feeds one arrived media packet (by seq). Returns the seq numbers
    /// newly recoverable, one per group completed down to a single
    /// missing member, in ascending group-key order.
    pub fn on_media_packet(&mut self, seq: u64) -> Vec<u64> {
        let mut hits = Vec::new();
        self.on_media_packet_into(seq, &mut hits);
        hits
    }

    /// [`FecDecoder::on_media_packet`] into a caller-owned buffer, the
    /// hot-path form: `hits` is cleared and refilled with the newly
    /// recoverable seqs, so a receiver reusing one buffer never
    /// allocates per arrival.
    pub fn on_media_packet_into(&mut self, seq: u64, hits: &mut Vec<u64>) {
        self.arrivals.push(seq);
        // Fresh seqs lie at or past the newest span: skip the search.
        let end = match self.spans.back() {
            Some(last) if last.first_seq <= seq => self.spans.len(),
            _ => self.spans.partition_point(|s| s.first_seq <= seq),
        };
        for span in self.spans.range(..end).rev() {
            let offset = seq - span.first_seq;
            if offset >= self.max_count {
                break;
            }
            if offset < u64::from(span.count) {
                if let Ok(i) = self.groups.binary_search_by_key(&span.key, |g| g.key) {
                    let group = &mut self.groups[i];
                    group.mark(offset);
                    if let Some(r) = group.try_recover() {
                        self.hits.push((span.key, r));
                    }
                }
            }
        }
        self.take_hits(hits);
    }

    /// Feeds one arrived parity packet. Returns newly recoverable seqs.
    ///
    /// The first parity of a group opens it from the arrival log; a
    /// repeated one (same `frame_index`) keeps the group as it is. A
    /// parity for an evicted group re-opens it.
    pub fn on_parity_packet(&mut self, parity: &Packet) -> Vec<u64> {
        let mut hits = Vec::new();
        self.on_parity_packet_into(parity, &mut hits);
        hits
    }

    /// [`FecDecoder::on_parity_packet`] into a caller-owned buffer: `hits`
    /// is cleared and refilled, as in
    /// [`FecDecoder::on_media_packet_into`].
    pub fn on_parity_packet_into(&mut self, parity: &Packet, hits: &mut Vec<u64>) {
        debug_assert_eq!(parity.kind, MediaKind::Fec);
        let key = parity.frame_index;
        let i = match self.groups.binary_search_by_key(&key, |g| g.key) {
            Ok(i) => i,
            Err(i) => {
                self.open(i, key, parity.group_first_seq(), parity.group_count());
                i
            }
        };
        if let Some(r) = self.groups[i].try_recover() {
            self.hits.push((key, r));
        }
        while self.groups.len() > MAX_GROUPS {
            self.evict_smallest_key();
        }
        self.take_hits(hits);
    }

    /// The seq range a parity packet covers (diagnostics).
    pub fn covered_range(&self, parity: &Packet) -> std::ops::Range<u64> {
        let first = parity.group_first_seq();
        first..first.saturating_add(u64::from(parity.group_count()))
    }

    /// Opens group `key` at position `i` of `groups`, replaying members
    /// that arrived before its parity.
    fn open(&mut self, i: usize, key: u64, first_seq: u64, count: u16) {
        // A span is cut at the last seq there is.
        let count = match u16::try_from(u64::MAX - first_seq) {
            Ok(last_offset) => count.min(last_offset.saturating_add(1)),
            Err(_) => count,
        };
        let mut arrived = self.spare.pop().unwrap_or_default();
        arrived.clear();
        arrived.resize(usize::from(count).div_ceil(64), 0);
        let mut group = Group {
            key,
            first_seq,
            count,
            arrived_count: 0,
            arrived,
            recovered: false,
        };
        self.arrivals.replay(&mut group);
        self.groups.insert(i, group);
        let at = self
            .spans
            .partition_point(|s| (s.first_seq, s.key) < (first_seq, key));
        self.spans.insert(
            at,
            Span {
                first_seq,
                count,
                key,
            },
        );
        let count = u64::from(count);
        if count > self.max_count {
            (self.max_count, self.at_max_count) = (count, 0);
        }
        if count == self.max_count {
            self.at_max_count += 1;
        }
    }

    fn evict_smallest_key(&mut self) {
        let Some(group) = self.groups.pop_front() else {
            return;
        };
        let at = (group.first_seq, group.key);
        if let Ok(i) = self
            .spans
            .binary_search_by_key(&at, |s| (s.first_seq, s.key))
        {
            self.spans.remove(i);
        }
        if u64::from(group.count) == self.max_count {
            self.at_max_count -= 1;
            if self.at_max_count == 0 {
                self.max_count = self
                    .spans
                    .iter()
                    .map(|s| u64::from(s.count))
                    .max()
                    .unwrap_or(0);
                self.at_max_count = self
                    .spans
                    .iter()
                    .filter(|s| u64::from(s.count) == self.max_count)
                    .count();
            }
        }
        self.spare.push(group.arrived);
    }

    /// Counts this packet's recoveries and moves them into `out` in
    /// group-key order (`out` is cleared first).
    fn take_hits(&mut self, out: &mut Vec<u64>) {
        out.clear();
        self.hits.sort_unstable();
        self.recovered += self.hits.len() as u64;
        out.extend(self.hits.drain(..).map(|(_, seq)| seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(seq: u64, bytes: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: seq / 3,
            fragment: 0,
            num_fragments: 1,
            size_bytes: bytes,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    fn build_group(enc: &mut FecEncoder, seqs: std::ops::Range<u64>) -> Option<Packet> {
        let mut parity = None;
        for s in seqs {
            parity = enc.on_media_packet(&media(s, 1000 + s), || 10_000 + s, Time::from_millis(s));
        }
        parity
    }

    #[test]
    fn parity_emitted_per_group() {
        let mut enc = FecEncoder::new(5);
        assert!(build_group(&mut enc, 0..4).is_none());
        let parity = enc
            .on_media_packet(&media(4, 1004), || 99, Time::from_millis(4))
            .expect("group complete");
        assert_eq!(parity.kind, MediaKind::Fec);
        assert_eq!(parity.group_first_seq(), 0);
        assert_eq!(parity.group_count(), 5);
        // Parity covers the largest member.
        assert_eq!(parity.size_bytes, 1004);
        assert_eq!(enc.parity_sent(), 1);
    }

    #[test]
    fn single_loss_recovered() {
        let mut enc = FecEncoder::new(4);
        let parity = build_group(&mut enc, 0..4).expect("parity");
        let mut dec = FecDecoder::new();
        // Realistic order: members 0, 2, 3 arrive (1 lost), then parity.
        assert!(dec.on_media_packet(0).is_empty());
        assert!(dec.on_media_packet(2).is_empty());
        assert!(dec.on_media_packet(3).is_empty());
        let recovered = dec.on_parity_packet(&parity);
        assert_eq!(recovered, vec![1]);
        assert_eq!(dec.recovered(), 1);
    }

    #[test]
    fn double_loss_not_recoverable() {
        let mut enc = FecEncoder::new(4);
        let parity = build_group(&mut enc, 0..4).expect("parity");
        let mut dec = FecDecoder::new();
        dec.on_media_packet(0);
        dec.on_media_packet(3); // 1 and 2 both missing
        let out = dec.on_parity_packet(&parity);
        assert!(out.is_empty());
        assert_eq!(dec.recovered(), 0);
    }

    #[test]
    fn late_member_after_parity_triggers_recovery() {
        // Parity outruns the last member (possible with RTX reordering):
        // the decoder opens the group from its arrival log and recovers
        // when the group reaches all-but-one.
        let mut enc = FecEncoder::new(3);
        let parity = build_group(&mut enc, 0..3).expect("parity");
        let mut dec = FecDecoder::new();
        assert!(dec.on_media_packet(0).is_empty());
        assert_eq!(dec.covered_range(&parity), 0..3);
        // At parity time members 1 and 2 are missing: no recovery yet.
        assert!(dec.on_parity_packet(&parity).is_empty());
        // Member 2 arrives late: now only 1 is missing -> reconstruct it.
        let out = dec.on_media_packet(2);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn no_loss_no_recovery() {
        // Realistic order on an in-order link: members first, then the
        // parity (it is sent after the group completes). With nothing
        // missing at parity time, no reconstruction happens.
        let mut enc = FecEncoder::new(3);
        let parity = build_group(&mut enc, 0..3).expect("parity");
        let mut dec = FecDecoder::new();
        for s in 0..3 {
            assert!(dec.on_media_packet(s).is_empty());
        }
        assert!(dec.on_parity_packet(&parity).is_empty());
        assert_eq!(dec.recovered(), 0);
    }

    #[test]
    fn groups_are_independent() {
        let mut enc = FecEncoder::new(2);
        let p0 = build_group(&mut enc, 0..2).expect("parity 0");
        let p1 = build_group(&mut enc, 2..4).expect("parity 1");
        let mut dec = FecDecoder::new();
        // Group 0 loses seq 1, group 1 loses seq 2.
        dec.on_media_packet(0);
        assert_eq!(dec.on_parity_packet(&p0), vec![1]);
        dec.on_media_packet(3);
        assert_eq!(dec.on_parity_packet(&p1), vec![2]);
        assert_eq!(dec.tracked_groups(), 2);
        assert_eq!(dec.recovered(), 2);
    }

    #[test]
    fn eviction_bounds_state() {
        let mut enc = FecEncoder::new(2);
        let mut dec = FecDecoder::new();
        for g in 0..200u64 {
            let parity = build_group(&mut enc, g * 2..g * 2 + 2).expect("parity");
            dec.on_parity_packet(&parity);
        }
        assert!(dec.tracked_groups() <= 64);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn rejects_tiny_group() {
        FecEncoder::new(1);
    }

    /// A parity for group `key` covering `count` seqs from `first`.
    fn parity(key: u64, first: u64, count: u16) -> Packet {
        Packet {
            kind: MediaKind::Fec,
            seq: 1 << 40,
            frame_index: FEC_GROUP_BASE + key,
            fragment: 0,
            num_fragments: 1,
            size_bytes: 1200,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
        .with_group_info(first, count)
    }

    #[test]
    fn duplicate_parity_keeps_the_first_group() {
        let mut dec = FecDecoder::new();
        dec.on_media_packet(0);
        dec.on_media_packet(2);
        assert_eq!(dec.on_parity_packet(&parity(0, 0, 3)), vec![1]);
        // The same parity again: the group is already recovered.
        assert!(dec.on_parity_packet(&parity(0, 0, 3)).is_empty());
        // A parity reusing the key with another span changes nothing:
        // the group keeps its first span.
        assert!(dec.on_parity_packet(&parity(0, 10, 2)).is_empty());
        assert!(dec.on_media_packet(10).is_empty());
        assert_eq!(dec.tracked_groups(), 1);
        assert_eq!(dec.recovered(), 1);
    }

    /// Opens groups `keys` over far-away spans with nothing arrived.
    fn open_filler_groups(dec: &mut FecDecoder, keys: std::ops::Range<u64>) {
        for key in keys {
            assert!(dec
                .on_parity_packet(&parity(key, 1_000_000 + key * 10, 4))
                .is_empty());
        }
    }

    #[test]
    fn reopened_group_replays_only_the_last_1024_arrivals() {
        // Group 0 covers seqs 0..4. Seqs 0, 1, 2 arrive, then `fillers`
        // duplicate arrivals of one unrelated seq; group 0 was opened
        // (two missing) and evicted before seq 2 arrived, so only the
        // replay at re-open can see seq 0.
        let replay = |fillers: u64| {
            let mut dec = FecDecoder::new();
            dec.on_media_packet(0);
            dec.on_media_packet(1);
            assert!(dec.on_parity_packet(&parity(0, 0, 4)).is_empty());
            open_filler_groups(&mut dec, 1..65);
            assert_eq!(dec.tracked_groups(), 64);
            // Group 0 is gone: seq 2 leaves only seq 3 missing, but
            // nothing recovers.
            assert!(dec.on_media_packet(2).is_empty());
            for _ in 0..fillers {
                assert!(dec.on_media_packet(500_000).is_empty());
            }
            let out = dec.on_parity_packet(&parity(0, 0, 4));
            // The re-opened group has the smallest key: it is evicted
            // again at once, after its check.
            assert_eq!(dec.tracked_groups(), 64);
            (out, dec.recovered())
        };
        // 3 + 1021 arrivals: seq 0 is still the oldest logged arrival.
        assert_eq!(replay(1021), (vec![3], 1));
        // One more arrival pushes seq 0 out of the log.
        assert_eq!(replay(1022), (vec![], 0));
    }

    #[test]
    fn non_media_seq_inside_a_span_is_recovered_and_counted() {
        let mut dec = FecDecoder::new();
        // Seq 2 is an audio packet interleaved into the video span and
        // lost; every video member arrived. The decoder cannot tell the
        // kinds apart, so it "recovers" the audio seq.
        for s in [0, 1, 3] {
            dec.on_media_packet(s);
        }
        assert_eq!(dec.on_parity_packet(&parity(0, 0, 4)), vec![2]);
        // Seq 12 is an earlier group's parity inside the next span. It
        // arrived, but through `on_parity_packet`, which does not count
        // as a member arrival: it is "recovered" too.
        assert!(dec.on_parity_packet(&parity(1, 100, 2)).is_empty());
        let mut p12 = parity(1, 100, 2);
        p12.seq = 12;
        assert!(dec.on_parity_packet(&p12).is_empty());
        for s in [10, 11, 13] {
            dec.on_media_packet(s);
        }
        assert_eq!(dec.on_parity_packet(&parity(2, 10, 4)), vec![12]);
        assert_eq!(dec.recovered(), 2);
    }

    #[test]
    fn the_65th_group_evicts_the_smallest_key() {
        // Groups 100..164 over seqs 0..256 (4 each), each missing two
        // members; then group 50 arrives last.
        let mut dec = FecDecoder::new();
        for key in 100..164u64 {
            assert!(dec
                .on_parity_packet(&parity(key, (key - 100) * 4, 4))
                .is_empty());
        }
        assert_eq!(dec.tracked_groups(), 64);
        // Group 50 (the smallest key) covers 1000..1002 and is missing
        // one member: it recovers at once and is then evicted itself.
        dec.on_media_packet(1000);
        assert_eq!(dec.on_parity_packet(&parity(50, 1000, 2)), vec![1001]);
        assert_eq!(dec.tracked_groups(), 64);
        assert_eq!(dec.recovered(), 1);
        // Group 164 evicts group 100 (seqs 0..4), not group 101.
        assert!(dec.on_parity_packet(&parity(164, 256, 4)).is_empty());
        assert_eq!(dec.tracked_groups(), 64);
        for s in [0, 1, 2] {
            assert!(dec.on_media_packet(s).is_empty());
        }
        for s in [4, 5] {
            assert!(dec.on_media_packet(s).is_empty());
        }
        assert_eq!(dec.on_media_packet(6), vec![7]);
        assert_eq!(dec.recovered(), 2);
    }

    #[test]
    fn overlapping_spans_apply_in_key_order() {
        // Group 7 spans 0..4 and group 3 spans 2..6: key order is the
        // reverse of span order. Seqs 0, 3, 4 arrived, so each group
        // misses two members, one of them seq 2.
        let mut dec = FecDecoder::new();
        for s in [0, 3, 4] {
            dec.on_media_packet(s);
        }
        assert!(dec.on_parity_packet(&parity(7, 0, 4)).is_empty());
        assert!(dec.on_parity_packet(&parity(3, 2, 4)).is_empty());
        // Seq 2 completes both down to one missing member: group 3
        // recovers 5 first, then group 7 recovers 1.
        assert_eq!(dec.on_media_packet(2), vec![5, 1]);
        assert_eq!(dec.recovered(), 2);

        // The same spans with the keys swapped: key order is span order.
        let mut dec = FecDecoder::new();
        for s in [0, 3, 4] {
            dec.on_media_packet(s);
        }
        assert!(dec.on_parity_packet(&parity(7, 2, 4)).is_empty());
        assert!(dec.on_parity_packet(&parity(3, 0, 4)).is_empty());
        assert_eq!(dec.on_media_packet(2), vec![1, 5]);
        assert_eq!(dec.recovered(), 2);
    }

    #[test]
    fn span_is_cut_at_the_last_seq() {
        let mut dec = FecDecoder::new();
        let last = u64::MAX;
        assert_eq!(dec.covered_range(&parity(0, last - 1, 4)), last - 1..last);
        dec.on_media_packet(last);
        // Members `last - 1` and `last`; the two past them do not exist.
        assert_eq!(
            dec.on_parity_packet(&parity(0, last - 1, 4)),
            vec![last - 1]
        );
        assert_eq!(dec.on_media_packet(last), vec![]);
        assert_eq!(dec.recovered(), 1);
    }

    proptest::proptest! {
        /// For any single-loss-per-group pattern, with the realistic
        /// arrival order (members, then parity, then replay), exactly the
        /// lost packet is reconstructed.
        #[test]
        fn single_losses_always_recovered(lost_member in 0u64..6, group in 0u64..4) {
            let gs = 6usize;
            let mut enc = FecEncoder::new(gs);
            let mut dec = FecDecoder::new();
            let mut reconstructed = Vec::new();
            for g in 0..4u64 {
                let base = g * gs as u64;
                let mut parity = None;
                for s in base..base + gs as u64 {
                    parity = enc.on_media_packet(&media(s, 1000), || 90_000 + s, Time::ZERO);
                    let lost = g == group && s == base + lost_member;
                    if !lost {
                        reconstructed.extend(dec.on_media_packet(s));
                    }
                }
                reconstructed.extend(dec.on_parity_packet(&parity.expect("group complete")));
            }
            proptest::prop_assert_eq!(
                reconstructed,
                vec![group * gs as u64 + lost_member]
            );
        }
    }

    /// The map-backed decoder the scan-free one replaced, kept as the
    /// differential oracle for its semantics: every arrival walks all
    /// groups, and opening a group scans the whole arrival log.
    struct MapFecDecoder {
        groups: std::collections::BTreeMap<u64, MapGroup>,
        recent_arrivals: VecDeque<u64>,
        recovered: u64,
    }

    struct MapGroup {
        first_seq: u64,
        count: u16,
        arrived: Vec<bool>,
        recovered: bool,
    }

    impl MapFecDecoder {
        fn new() -> MapFecDecoder {
            MapFecDecoder {
                groups: std::collections::BTreeMap::new(),
                recent_arrivals: VecDeque::new(),
                recovered: 0,
            }
        }

        fn on_media_packet(&mut self, seq: u64) -> Vec<u64> {
            self.recent_arrivals.push_back(seq);
            while self.recent_arrivals.len() > 1024 {
                self.recent_arrivals.pop_front();
            }
            let mut out = Vec::new();
            for state in self.groups.values_mut() {
                if seq >= state.first_seq && seq < state.first_seq + state.count as u64 {
                    state.arrived[(seq - state.first_seq) as usize] = true;
                    if let Some(r) = map_try_recover(state) {
                        out.push(r);
                        self.recovered += 1;
                    }
                }
            }
            out
        }

        fn on_parity_packet(&mut self, parity: &Packet) -> Vec<u64> {
            let first = parity.group_first_seq();
            let count = parity.group_count();
            let recent = &self.recent_arrivals;
            let state = self.groups.entry(parity.frame_index).or_insert_with(|| {
                let mut arrived = vec![false; count as usize];
                for &seq in recent {
                    if seq >= first && seq < first + count as u64 {
                        arrived[(seq - first) as usize] = true;
                    }
                }
                MapGroup {
                    first_seq: first,
                    count,
                    arrived,
                    recovered: false,
                }
            });
            let mut out = Vec::new();
            if let Some(r) = map_try_recover(state) {
                out.push(r);
                self.recovered += 1;
            }
            while self.groups.len() > 64 {
                let oldest = *self.groups.keys().next().expect("non-empty");
                self.groups.remove(&oldest);
            }
            out
        }
    }

    fn map_try_recover(state: &mut MapGroup) -> Option<u64> {
        if state.recovered {
            return None;
        }
        let missing: Vec<usize> = (0..state.arrived.len())
            .filter(|&i| !state.arrived[i])
            .collect();
        if missing.len() == 1 {
            state.recovered = true;
            state.arrived[missing[0]] = true;
            Some(state.first_seq + missing[0] as u64)
        } else {
            None
        }
    }

    /// One step of a differential schedule. `newest` is the highest
    /// fresh seq so far.
    #[derive(Debug, Clone)]
    enum Op {
        /// `n` fresh seqs in order, each lost with chance `loss / 32`.
        Fresh { n: u64, loss: u64 },
        /// `newest - lag` arrives: a duplicate, a reordered or an old
        /// seq, possibly below the counting window.
        Late { lag: u64 },
        /// The seq counter jumps (a burst of losses).
        Jump { by: u64 },
        /// Encoder-like parity: the next key over at most the last `len`
        /// seqs since the previous encoder-like span (spans are
        /// contiguous and never overlap).
        Parity { len: u64 },
        /// The encoder-like parity `back` keys ago again: a duplicate,
        /// or a re-open once its group was evicted.
        Repeat { back: u64 },
        /// Any key from a small range, over any span ending near the
        /// newest seq: overlapping spans, out-of-order and repeated
        /// keys (the encoder-like keys come from the same range).
        Adversarial { key: u64, back: u64, count: u16 },
    }

    /// One decoder call.
    #[derive(Debug, Clone, Copy)]
    enum Input {
        Media(u64),
        Parity(Packet),
    }

    fn op() -> impl proptest::Strategy<Value = Op> {
        use proptest::Strategy;
        (0u8..20, 0u64..6000, 0u64..400).prop_map(|(kind, a, b)| match kind {
            0..=7 => Op::Fresh {
                n: 1 + b % 32,
                loss: a % 4,
            },
            8..=10 => Op::Late {
                lag: if a % 4 == 0 { a } else { b % 24 },
            },
            11 => Op::Jump {
                by: if a % 8 == 0 { a } else { a % 64 },
            },
            12..=15 => Op::Parity { len: 2 + b % 23 },
            16 => Op::Repeat { back: b % 100 },
            _ => Op::Adversarial {
                key: b % 160,
                back: if a % 8 == 0 { a } else { a % 300 },
                count: (if b % 16 == 0 { b } else { b % 40 }) as u16,
            },
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

        /// Under random schedules of fresh, lost, duplicate, reordered
        /// and old arrivals and of encoder-like or adversarial parities,
        /// running past the 1024-arrival log and the 64-group bound,
        /// the scan-free decoder returns what the map-backed decoder
        /// returned, step for step.
        #[test]
        fn decoder_matches_map_reference(
            adversarial in 0u8..2,
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            let mut dec = FecDecoder::new();
            let mut reference = MapFecDecoder::new();
            let mut newest = 0u64;
            let mut span_start = 0u64;
            let mut issued: Vec<Packet> = Vec::new();
            let mut steps = 0u64;
            for op in &ops {
                let mut inputs = Vec::new();
                // Encoder-realistic schedules open no adversarial group.
                let op = match op {
                    Op::Adversarial { count, .. } if adversarial == 0 => &Op::Parity {
                        len: u64::from(*count),
                    },
                    op => op,
                };
                match *op {
                    Op::Fresh { n, loss } => {
                        for _ in 0..n {
                            newest += 1;
                            if newest.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59 >= loss {
                                inputs.push(Input::Media(newest));
                            }
                        }
                    }
                    Op::Late { lag } => inputs.push(Input::Media(newest.saturating_sub(lag))),
                    Op::Jump { by } => newest += by,
                    Op::Parity { len } => {
                        let first = span_start.max((newest + 1).saturating_sub(len));
                        let p = parity(issued.len() as u64, first, (newest + 1 - first) as u16);
                        span_start = newest + 1;
                        issued.push(p);
                        inputs.push(Input::Parity(p));
                    }
                    Op::Repeat { back } => {
                        if let Some(&p) = issued.iter().rev().nth(back as usize) {
                            inputs.push(Input::Parity(p));
                        }
                    }
                    Op::Adversarial { key, back, count } => {
                        let first = (newest + 1).saturating_sub(back + u64::from(count) / 2);
                        inputs.push(Input::Parity(parity(key, first, count)));
                    }
                }
                for input in inputs {
                    let (got, want) = match input {
                        Input::Media(seq) => {
                            (dec.on_media_packet(seq), reference.on_media_packet(seq))
                        }
                        Input::Parity(p) => {
                            (dec.on_parity_packet(&p), reference.on_parity_packet(&p))
                        }
                    };
                    proptest::prop_assert_eq!(got, want, "{:?} at step {}", input, steps);
                    proptest::prop_assert_eq!(dec.recovered(), reference.recovered);
                    proptest::prop_assert_eq!(dec.tracked_groups(), reference.groups.len());
                    steps += 1;
                }
            }
        }
    }
}
