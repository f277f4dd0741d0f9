//! Screen sharing through a drop-and-recover event.
//!
//! Screen content is the encoder's trickiest case for fast adaptation:
//! almost nothing changes between frames (tiny P-frames), but slide
//! flips arrive as scene cuts that cost I-frame-scale bursts at the
//! worst possible moment. This example runs all four content classes
//! through the same drop-and-recover trace and reports how much each
//! benefits from the adaptive controller.
//!
//! ```text
//! cargo run --release --example screen_share_drop
//! ```

use ravel::metrics::Table;
use ravel::pipeline::{run, Scheme, SessionConfig, SessionSpec};
use ravel::sim::{Dur, Time};
use ravel::trace::StepTrace;
use ravel::video::ContentClass;

fn main() {
    let drop_at = Time::from_secs(10);
    let recover_at = Time::from_secs(20);
    let mk_trace = || StepTrace::drop_and_recover(4e6, 1e6, drop_at, recover_at);

    let mut table = Table::new(&[
        "content",
        "base_mean_ms",
        "adpt_mean_ms",
        "latency_delta",
        "base_ssim",
        "adpt_ssim",
    ]);

    for content in ContentClass::ALL {
        let run = |scheme| {
            let mut cfg = SessionConfig::default_with(scheme);
            cfg.content = content;
            cfg.duration = Dur::secs(30);
            let result = run(SessionSpec::new(mk_trace(), cfg));
            result.recorder.summarize(drop_at, recover_at)
        };
        let base = run(Scheme::baseline());
        let adpt = run(Scheme::adaptive());
        let delta = 1.0 - adpt.mean_latency_ms / base.mean_latency_ms;
        table.row_owned(vec![
            content.to_string(),
            format!("{:.1}", base.mean_latency_ms),
            format!("{:.1}", adpt.mean_latency_ms),
            format!("{:+.1}%", -delta * 100.0),
            format!("{:.4}", base.mean_ssim),
            format!("{:.4}", adpt.mean_ssim),
        ]);
    }

    println!("Drop window (10s..20s), 4 Mbps -> 1 Mbps -> 4 Mbps:");
    println!("{}", table.render());
}
