//! A scripted meeting colliding with a bandwidth drop.
//!
//! Timeline: talking heads, then screen share starting two seconds
//! *after* the network drops 4→1 Mbps — so the slide flip (scene cut →
//! I-frame burst) lands while the link is congested: the encoder's
//! worst moment. Uses the low-level pipeline pieces directly to drive a
//! [`ScriptedSource`], showing how the library composes outside
//! `ravel::pipeline::run`.
//!
//! ```text
//! cargo run --release --example meeting_scenario
//! ```

use ravel::codec::{Encoder, EncoderConfig};
use ravel::core::{AdaptiveConfig, AdaptiveController, FrameDecision};
use ravel::metrics::Table;
use ravel::sim::{Dur, Time};
use ravel::video::ScriptedSource;

fn main() {
    // Encode the scripted meeting with both reconfiguration styles and
    // compare the encoder's own output against a 1 Mbps post-drop budget.
    // (For full end-to-end numbers, see `screen_share_drop`.)
    let drop_at = Time::from_secs(10);
    let mut table = Table::new(&[
        "style",
        "excess@drop(10fr)",
        "excess@flip(10fr)",
        "mean_qp_post",
        "skips",
    ]);

    for (name, fast) in [("slow-reconfig", false), ("fast-reconfig", true)] {
        let mut source = ScriptedSource::meeting(Time::from_secs(12), Time::from_secs(25), 30, 7);
        let mut encoder = Encoder::new(EncoderConfig::rtc(4e6, 30));
        let mut controller = AdaptiveController::new(AdaptiveConfig::default(), 30);
        let mut skips = 0u64;
        let mut post_qp = Vec::new();
        let mut excess_drop: i64 = 0; // first 10 frames after the drop
        let mut excess_flip: i64 = 0; // first 10 frames after the flip
        let mut reconfigured = false;
        let flip_at = Time::from_secs(12);

        for i in 0..900u64 {
            let frame = source.next_frame();
            let now = frame.pts;
            // The 30 fps grid does not land exactly on 10 s.
            if now >= drop_at && !reconfigured {
                reconfigured = true;
                // The app learns of the drop (feedback handled elsewhere;
                // here we drive the encoder paths directly).
                if fast {
                    encoder.fast_reconfigure(0.85e6);
                    encoder.override_frame_budget(Some(28_000));
                } else {
                    encoder.set_target_bitrate(0.85e6);
                }
            }
            // The adaptive controller's frame hook still manages the
            // resolution ladder in the fast case.
            let decision = if fast {
                controller.on_frame(&frame, now, &mut encoder)
            } else {
                FrameDecision::Encode
            };
            if decision == FrameDecision::Skip {
                skips += 1;
                continue;
            }
            let encoded = encoder.encode(&frame, now);
            // Excess over the post-drop 1 Mbps per-frame budget in the
            // two critical windows: right after the drop, and right
            // after the slide flip (whose I-frame is the hard part).
            let over = encoded.size_bits() as i64 - 33_333;
            if now >= drop_at && now < drop_at + Dur::millis(333) {
                excess_drop += over;
            }
            if now >= flip_at && now < flip_at + Dur::millis(333) {
                excess_flip += over;
            }
            if now >= drop_at {
                post_qp.push(encoded.qp.value());
            }
            let _ = i;
        }

        let mean_qp = post_qp.iter().sum::<f64>() / post_qp.len() as f64;
        table.row_owned(vec![
            name.to_string(),
            format!("{excess_drop}"),
            format!("{excess_flip}"),
            format!("{mean_qp:.1}"),
            skips.to_string(),
        ]);
    }

    println!("Scripted meeting (slides from 12s), drop 4->1 Mbps at 10s:");
    println!("{}", table.render());
    println!(
        "Positive excess bits become queueing delay. The slow path overshoots\n\
         in the first frames after the drop and again at the slide-flip\n\
         I-frame; the fast path's R-D-solved budgets stay on target (its\n\
         post-drop QP is also lower = better quality for the same network)."
    );
}
