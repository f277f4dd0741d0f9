//! A video call riding through a cellular-style bandwidth drop, with a
//! time-series dump suitable for plotting (the poster's motivating
//! "latency spike" picture).
//!
//! Prints CSV: one block per scheme with capacity, encoder target, send
//! rate, bottleneck queue delay and per-frame latency around the drop.
//!
//! ```text
//! cargo run --release --example video_call_drop > drop_series.csv
//! ```

use ravel::pipeline::{run, Scheme, SessionConfig, SessionSpec};
use ravel::sim::{Dur, Time};
use ravel::trace::StepTrace;
use ravel::video::ContentClass;

fn main() {
    let drop_at = Time::from_secs(10);

    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let mut cfg = SessionConfig::default_with(scheme);
        cfg.content = ContentClass::TalkingHead;
        cfg.duration = Dur::secs(25);
        cfg.record_series = true;
        let result = run(SessionSpec::new(
            StepTrace::sudden_drop(4e6, 1e6, drop_at),
            cfg,
        ));

        println!("# scheme={}", scheme.name());
        println!("time_s,capacity_mbps,target_mbps,send_mbps,queue_ms,latency_ms");
        // Sample every 100 ms from 8 s to 18 s.
        let series = &result.series;
        let get = |name: &str| series.get(name).expect("series recorded");
        let (cap, tgt, snd, q, lat) = (
            get("capacity_bps"),
            get("target_bps"),
            get("send_rate_bps"),
            get("link_queue_ms"),
            get("frame_latency_ms"),
        );
        for step in 0..100u64 {
            let t = Time::from_millis(8_000 + step * 100);
            let w = Time::from_millis(8_000 + (step + 1) * 100);
            println!(
                "{:.1},{:.3},{:.3},{:.3},{:.1},{:.1}",
                t.as_secs_f64(),
                cap.mean_in(t, w) / 1e6,
                tgt.mean_in(t, w) / 1e6,
                snd.mean_in(t, w) / 1e6,
                q.mean_in(t, w),
                lat.mean_in(t, w),
            );
        }
        let s = result.recorder.summarize(drop_at, drop_at + Dur::secs(8));
        println!(
            "# post-drop: mean={:.1}ms p95={:.1}ms ssim={:.4} freezes={}",
            s.mean_latency_ms, s.p95_latency_ms, s.mean_ssim, s.frozen
        );
        println!();
    }
}
