//! Quickstart: run one adaptive RTC session over a sudden bandwidth
//! drop and print the headline comparison against the baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ravel::metrics::Table;
use ravel::pipeline::{run, Scheme, SessionConfig, SessionSpec};
use ravel::sim::{Dur, Time};
use ravel::trace::StepTrace;

fn main() {
    // The canonical scenario from the paper's motivation: a 4 Mbps path
    // that suddenly drops to 1 Mbps mid-call.
    let drop_at = Time::from_secs(10);
    let mk_trace = || StepTrace::sudden_drop(4e6, 1e6, drop_at);

    let mut table = Table::new(&[
        "scheme",
        "mean_ms",
        "p95_ms",
        "p99_ms",
        "mean_ssim",
        "freeze_%",
    ]);

    let mut results = Vec::new();
    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let mut cfg = SessionConfig::default_with(scheme);
        cfg.duration = Dur::secs(30);
        let result = run(SessionSpec::new(mk_trace(), cfg));
        // Measure the window around the drop, where the schemes differ.
        let s = result.recorder.summarize(drop_at, drop_at + Dur::secs(8));
        table.row_owned(vec![
            scheme.name(),
            format!("{:.1}", s.mean_latency_ms),
            format!("{:.1}", s.p95_latency_ms),
            format!("{:.1}", s.p99_latency_ms),
            format!("{:.4}", s.mean_ssim),
            format!("{:.1}", s.freeze_ratio() * 100.0),
        ]);
        results.push(s);
    }

    println!("Post-drop window (drop .. drop+8s), 4 Mbps -> 1 Mbps:");
    println!("{}", table.render());

    let reduction = 1.0 - results[1].mean_latency_ms / results[0].mean_latency_ms;
    println!(
        "Adaptive reduces mean post-drop latency by {:.2}% \
         (paper reports 28.66%-78.87% across conditions).",
        reduction * 100.0
    );
}
