//! Receive-path layer microbenchmarks: the per-packet work a receiver
//! does on every arrival, measured in isolation from the rest of the
//! session. Each bench replays one precomputed 20 000-packet schedule
//! into a fresh receiver, so nearly all of it runs at steady state.
//!
//! * `fec_decode_group10_loss3` — `FecDecoder::on_media_packet` and
//!   `on_parity_packet` over groups of 10 with 3 % seeded loss of media
//!   and parity; each parity follows its members, and a quarter of the
//!   lost members arrive late, right after their parity (as an RTX
//!   would).
//! * `frame_assembler_push` — `FrameAssembler::push` over 4-fragment
//!   frames with 3 % loss (lossy-cell sends ~3.7 packets per frame).
//! * `feedback_on_packet_flush50ms` — `FeedbackBuilder::on_packet` at
//!   ~110 packets per second with 3 % gaps, plus a `flush` every 50 ms.
//!
//! Run with `cargo bench -p ravel-net --bench recv_path`; every line
//! reports ns per element (per arrival, per packet pushed, per packet
//! recorded).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ravel_net::packet::HEADER_BYTES;
use ravel_net::{FecDecoder, FecEncoder, FeedbackBuilder, FrameAssembler, MediaKind, Packet};
use ravel_sim::{Dur, Rng, Time};
use std::cell::Cell;
use std::hint::black_box;

/// Media packets per schedule.
const PACKETS: u64 = 20_000;
const LOSS: f64 = 0.03;
const FEC_GROUP: usize = 10;
/// Share of lost FEC members that arrive after their parity.
const LATE: f64 = 0.25;
const FRAGMENTS: u16 = 4;
/// ~110 packets per simulated second.
const SPACING: Dur = Dur::micros(9_000);
const FLUSH_EVERY: Dur = Dur::millis(50);

fn packet(seq: u64, frame_index: u64, fragment: u16, at: Time) -> Packet {
    Packet {
        kind: MediaKind::Video,
        seq,
        frame_index,
        fragment,
        num_fragments: FRAGMENTS,
        size_bytes: 1000 + HEADER_BYTES,
        pts: at,
        send_time: at,
        is_keyframe: false,
    }
}

/// The packets of 4-fragment frames, one every `SPACING`.
fn stream() -> impl Iterator<Item = Packet> {
    (0..PACKETS).map(|seq| {
        let at = Time::ZERO + SPACING * seq;
        packet(
            seq,
            seq / FRAGMENTS as u64,
            (seq % FRAGMENTS as u64) as u16,
            at,
        )
    })
}

/// One FEC receiver input.
enum Arrival {
    Media(u64),
    Parity(Packet),
}

/// Media and parity arrivals of a group-10 FEC stream with seeded loss.
fn fec_schedule() -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(7);
    let mut enc = FecEncoder::new(FEC_GROUP);
    let mut out = Vec::new();
    let mut late = Vec::new();
    // Media and parities share one transport-wide seq counter.
    let next_seq = Cell::new(0);
    let take_seq = || next_seq.replace(next_seq.get() + 1);
    for p in stream() {
        let p = Packet {
            seq: take_seq(),
            ..p
        };
        if !rng.chance(LOSS) {
            out.push(Arrival::Media(p.seq));
        } else if rng.chance(LATE) {
            late.push(p.seq);
        }
        let parity = enc.on_media_packet(&p, take_seq, p.send_time);
        if let Some(parity) = parity {
            if !rng.chance(LOSS) {
                out.push(Arrival::Parity(parity));
            }
            out.extend(late.drain(..).map(Arrival::Media));
        }
    }
    out
}

/// The stream's packets surviving seeded loss.
fn arrivals() -> Vec<Packet> {
    let mut rng = Rng::seed_from_u64(11);
    stream().filter(|_| !rng.chance(LOSS)).collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("recv_path");
    g.sample_size(50);

    let fec = fec_schedule();
    g.throughput(Throughput::Elements(fec.len() as u64));
    g.bench_function("fec_decode_group10_loss3", |b| {
        b.iter(|| {
            let mut dec = FecDecoder::new();
            for a in &fec {
                match a {
                    Arrival::Media(seq) => black_box(dec.on_media_packet(*seq)),
                    Arrival::Parity(p) => black_box(dec.on_parity_packet(p)),
                };
            }
            dec.recovered()
        })
    });

    let packets = arrivals();
    g.throughput(Throughput::Elements(packets.len() as u64));
    g.bench_function("frame_assembler_push", |b| {
        b.iter(|| {
            let mut asm = FrameAssembler::new();
            let mut done = 0u64;
            for p in &packets {
                done += u64::from(asm.push(p, p.send_time).is_some());
            }
            done
        })
    });

    g.bench_function("feedback_on_packet_flush50ms", |b| {
        b.iter(|| {
            let mut fb = FeedbackBuilder::new();
            let mut next_flush = Time::ZERO + FLUSH_EVERY;
            let mut reported = 0;
            for p in &packets {
                while p.send_time >= next_flush {
                    reported += fb.flush(next_flush).map_or(0, |r| r.packets.len());
                    next_flush += FLUSH_EVERY;
                }
                fb.on_packet(p, p.send_time);
            }
            reported
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
