//! Loss recovery on a wireless-flavoured path: NACK/RTX vs FEC vs both.
//!
//! Runs the adaptive scheme through the canonical drop with random
//! packet loss and each recovery strategy, printing the quality/latency
//! trade-off plus a latency CDF for the best strategy.
//!
//! ```text
//! cargo run --release --example lossy_network [loss_percent]
//! ```

use ravel::metrics::{Cdf, Table};
use ravel::pipeline::{run, Scheme, SessionConfig, SessionSpec};
use ravel::sim::{Dur, Time};
use ravel::trace::StepTrace;

fn main() {
    let loss: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .map(|p: f64| p / 100.0)
        .unwrap_or(0.03);

    let drop_at = Time::from_secs(10);
    let mut table = Table::new(&[
        "recovery",
        "mean_ms",
        "p95_ms",
        "sess_ssim",
        "freeze_%",
        "rtx",
        "fec_recovered",
    ]);

    let mut best_cdf: Option<(String, Cdf)> = None;
    for (name, rtx, fec) in [
        ("none", false, false),
        ("rtx", true, false),
        ("fec", false, true),
        ("rtx+fec", true, true),
    ] {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(30);
        cfg.link.random_loss = loss;
        cfg.enable_rtx = rtx;
        cfg.enable_fec = fec;
        let result = run(SessionSpec::new(
            StepTrace::sudden_drop(4e6, 1e6, drop_at),
            cfg,
        ));
        let s = result.recorder.summarize_all();
        table.row_owned(vec![
            name.to_string(),
            format!("{:.1}", s.mean_latency_ms),
            format!("{:.1}", s.p95_latency_ms),
            format!("{:.4}", s.mean_ssim),
            format!("{:.1}%", s.freeze_ratio() * 100.0),
            result.retransmissions.to_string(),
            result.fec_recovered.to_string(),
        ]);
        if name == "rtx" {
            let cdf = Cdf::from_samples(
                result
                    .recorder
                    .records()
                    .iter()
                    .filter_map(|r| r.latency)
                    .map(|l| l.as_millis_f64()),
            );
            best_cdf = Some((name.to_string(), cdf));
        }
    }

    println!(
        "Loss recovery at {:.0}% random loss (adaptive scheme, 4->1 Mbps drop):",
        loss * 100.0
    );
    println!("{}", table.render());

    if let Some((name, mut cdf)) = best_cdf {
        println!("Latency CDF ({name}), 20 points:");
        print!("{}", cdf.to_csv("latency_ms", 20));
    }
}
