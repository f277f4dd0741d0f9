//! Calendar-queue layer microbenchmarks: `EventQueue::push` + `pop` in
//! the "hold" pattern a simulation produces — pop the earliest event,
//! schedule its successor a little later — at a steady pending depth.
//!
//! * `hold_near_64` — 64 pending events, successors 0–40 ms ahead:
//!   one session's mix of pacer slots, arrivals and feedback, all
//!   inside the ring horizon.
//! * `hold_near_1024` — the same at 1024 pending, a batched worker's
//!   population.
//! * `hold_far_64` — 64 pending with one successor in eight scheduled
//!   1.5–3 s ahead, past the ring horizon, so the overflow heap and its
//!   migration into the ring do real work.
//!
//! Run with `cargo bench -p ravel-sim --bench queue`; every line reports
//! ns per element (one pop plus one push).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ravel_sim::{Dur, EventQueue, Time};
use std::hint::black_box;

/// Pop/push pairs per timed iteration.
const HOLDS: u64 = 10_000;

/// SplitMix64: the successor delays, identical on every run.
struct Delays(u64);

impl Delays {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A successor delay: 0–40 ms, or 1.5–3 s for one draw in
    /// `far_one_in` (never when it is 0).
    fn delay(&mut self, far_one_in: u64) -> Dur {
        let r = self.next();
        if far_one_in > 0 && r.is_multiple_of(far_one_in) {
            Dur::micros(1_500_000 + (r >> 8) % 1_500_000)
        } else {
            Dur::micros((r >> 8) % 40_000)
        }
    }
}

/// A queue holding `depth` pending events, plus its delay stream.
fn primed(depth: u64, far_one_in: u64) -> (EventQueue<u64>, Delays) {
    let mut q = EventQueue::new();
    let mut delays = Delays(depth ^ far_one_in);
    for i in 0..depth {
        q.push(Time::ZERO + delays.delay(far_one_in), i);
    }
    (q, delays)
}

/// `HOLDS` pop-then-push steps; returns the last event's payload.
fn hold(q: &mut EventQueue<u64>, delays: &mut Delays, far_one_in: u64) -> u64 {
    let mut last = 0;
    for _ in 0..HOLDS {
        if let Some(s) = q.pop() {
            q.push(s.at + delays.delay(far_one_in), s.event);
            last = s.event;
        }
    }
    last
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    g.sample_size(200).throughput(Throughput::Elements(HOLDS));
    for (name, depth, far_one_in) in [
        ("hold_near_64", 64, 0),
        ("hold_near_1024", 1024, 0),
        ("hold_far_64", 64, 8),
    ] {
        g.bench_function(name, |b| {
            let (mut q, mut delays) = primed(depth, far_one_in);
            b.iter(|| black_box(hold(&mut q, &mut delays, far_one_in)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
