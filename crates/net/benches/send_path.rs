//! Send-path layer microbenchmarks: the per-packet work between the
//! pacer and the bottleneck link, measured in isolation from the rest of
//! the session.
//!
//! * `rtx_store_steady_1000` — one `RtxBuffer::store` with ~1000 live
//!   entries (10 Mbps of 1250-byte packets under the 1 s retention).
//! * `rtx_retransmit_into_5` — one 5-seq NACK batch served by
//!   `RtxBuffer::retransmit_into` from the same steady history.
//! * `release_store_send_10_to_2_5` — `Pacer::release_into` →
//!   `RtxBuffer::store` → `Link::send` per packet over a 40 s, 30 fps
//!   stream that meets a 10 → 2.5 Mbps `StepTrace` drop at 25 s.
//! * `link_send_lte_chaos` — `Link::send` per packet over the
//!   `lossy-cell` link: a seeded LTE-like `StochasticTrace` inside an
//!   empty `ChaosTrace`, boxed as the session boxes it, with 3 % random
//!   loss; one 1240-byte packet every 8 ms for 40 s.
//!
//! Run with `cargo bench -p ravel-net --bench send_path`; every line
//! reports ns per element (per packet, or per NACK batch).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ravel_net::packet::HEADER_BYTES;
use ravel_net::{ChaosSchedule, ChaosTrace, Link, LinkConfig, MediaKind, Pacer, Packet, RtxBuffer};
use ravel_sim::{Dur, Time};
use ravel_trace::{BandwidthTrace, CellularProfile, StepTrace, StochasticTrace};
use std::hint::black_box;

/// Stores per timed iteration of the store bench.
const STORES: u64 = 1000;
/// Packet spacing at 10 Mbps of 1250-byte packets.
const SPACING: Dur = Dur::MILLI;

const HIGH_BPS: f64 = 10e6;
const LOW_BPS: f64 = 2.5e6;
const FPS: u64 = 30;
const FRAMES: u64 = 40 * FPS;
const DROP_FRAME: u64 = 25 * FPS;
/// Packets per frame at each rate (1200-byte payloads).
const HIGH_PACKETS: u64 = 33;
const LOW_PACKETS: u64 = 8;
const SESSION_PACKETS: u64 = DROP_FRAME * HIGH_PACKETS + (FRAMES - DROP_FRAME) * LOW_PACKETS;

fn packet(seq: u64, now: Time) -> Packet {
    Packet {
        kind: MediaKind::Video,
        seq,
        frame_index: seq / HIGH_PACKETS,
        fragment: 0,
        num_fragments: 1,
        size_bytes: 1200 + HEADER_BYTES,
        pts: now,
        send_time: now,
        is_keyframe: false,
    }
}

/// A history at steady state: seqs `0..STORES`, one per `SPACING`, so
/// the 1 s age bound holds ~1000 entries live.
fn steady_history() -> RtxBuffer {
    let mut rtx = RtxBuffer::new(Dur::SECOND, 2048);
    for seq in 0..STORES {
        let now = Time::ZERO + SPACING * seq;
        rtx.store(&packet(seq, now), now);
    }
    rtx
}

fn frame_time(frame: u64) -> Time {
    Time::from_micros(frame * 1_000_000 / FPS)
}

/// Paces, records and sends the whole 40 s drop stream; returns the
/// packets sent.
fn drop_session(out: &mut Vec<Packet>) -> u64 {
    let trace = StepTrace::sudden_drop(HIGH_BPS, LOW_BPS, frame_time(DROP_FRAME));
    let mut link = Link::new(trace, LinkConfig::typical(), 1);
    let mut pacer = Pacer::new(HIGH_BPS, 2.5);
    let mut rtx = RtxBuffer::new(Dur::SECOND, 2048);
    let mut seq = 0;
    let mut sent = 0;
    for frame in 0..FRAMES {
        let now = frame_time(frame);
        let per_frame = if frame < DROP_FRAME {
            HIGH_PACKETS
        } else {
            LOW_PACKETS
        };
        if frame == DROP_FRAME {
            pacer.set_target_bitrate(LOW_BPS);
        }
        pacer.enqueue((seq..seq + per_frame).map(|s| packet(s, now)));
        seq += per_frame;
        let until = if frame + 1 < FRAMES {
            frame_time(frame + 1)
        } else {
            Time::FAR_FUTURE
        };
        while let Some(slot) = pacer.next_release_time().filter(|&t| t < until) {
            let at = slot.max(now);
            pacer.release_into(at, out);
            for p in out.iter() {
                rtx.store(p, at);
            }
            for p in out.iter() {
                black_box(link.send(p, at));
            }
            sent += out.len() as u64;
        }
    }
    sent
}

/// Spacing and count of the LTE stream's packets.
const LTE_SPACING: Dur = Dur::millis(8);
const LTE_PACKETS: u64 = 5_000;

/// Sends the 40 s LTE stream through a fresh `lossy-cell` link;
/// returns the packets delivered.
fn lte_session(trace: &StochasticTrace) -> u64 {
    let inner: Box<dyn BandwidthTrace> = Box::new(trace.clone());
    let cfg = LinkConfig {
        random_loss: 0.03,
        ..LinkConfig::typical()
    };
    let mut link = Link::new(ChaosTrace::new(inner, ChaosSchedule::empty()), cfg, 1);
    for seq in 0..LTE_PACKETS {
        let now = Time::ZERO + LTE_SPACING * seq;
        black_box(link.send(&packet(seq, now), now));
    }
    link.delivered()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("send_path");

    g.sample_size(200).throughput(Throughput::Elements(STORES));
    g.bench_function("rtx_store_steady_1000", |b| {
        let mut rtx = steady_history();
        let mut seq = STORES;
        b.iter(|| {
            for _ in 0..STORES {
                let now = Time::ZERO + SPACING * seq;
                rtx.store(&packet(seq, now), now);
                seq += 1;
            }
            rtx.len()
        })
    });

    g.bench_function("rtx_retransmit_into_5", |b| {
        let mut rtx = steady_history();
        let mut out = Vec::new();
        let mut batch = [0u64; 5];
        b.iter(|| {
            for i in 0..STORES {
                // Five alternate seqs, walking the live history.
                let first = (i * 7) % (STORES - 10);
                for (k, s) in batch.iter_mut().enumerate() {
                    *s = first + 2 * k as u64;
                }
                rtx.retransmit_into(&batch, &mut out);
                black_box(&out);
            }
            rtx.retransmissions()
        })
    });

    let mut out = Vec::new();
    assert_eq!(drop_session(&mut out), SESSION_PACKETS);
    g.sample_size(20)
        .throughput(Throughput::Elements(SESSION_PACKETS));
    g.bench_function("release_store_send_10_to_2_5", |b| {
        b.iter(|| drop_session(&mut out))
    });

    let lte = StochasticTrace::generate(&CellularProfile::lte_like(), Dur::secs(40), 7);
    g.sample_size(20)
        .throughput(Throughput::Elements(LTE_PACKETS));
    g.bench_function("link_send_lte_chaos", |b| b.iter(|| lte_session(&lte)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
