//! # ravel — Rapid Adaptive Video Encoding for Latency-critical RTC
//!
//! A full reproduction of *"Adaptive Video Encoder for Network Bandwidth
//! Drops in Real-Time Communication"* (Meng, Huang & Meng, HKUST —
//! SIGCOMM 2025 Posters & Demos): a sender-side controller that makes a
//! software video encoder adapt to sudden bandwidth drops within one
//! frame of feedback, plus every substrate needed to evaluate it — an
//! x264-behavioural encoder model, a GCC congestion-control port, an
//! RTP-like transport with a bottleneck-link simulator, synthetic video
//! sources, and a deterministic discrete-event kernel.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! ## Quickstart
//!
//! ```
//! use ravel::pipeline::{run, Scheme, SessionConfig, SessionSpec};
//! use ravel::sim::{Dur, Time};
//! use ravel::trace::StepTrace;
//!
//! // A 4 Mbps link that drops to 1 Mbps at t = 10 s.
//! let trace = StepTrace::sudden_drop(4e6, 1e6, Time::from_secs(10));
//!
//! let mut cfg = SessionConfig::default_with(Scheme::adaptive());
//! cfg.duration = Dur::secs(15);
//! let result = run(SessionSpec::new(trace, cfg));
//!
//! let summary = result.recorder.summarize_all();
//! assert!(summary.frames > 0);
//! println!(
//!     "mean latency {:.1} ms, mean SSIM {:.3}",
//!     summary.mean_latency_ms, summary.mean_ssim
//! );
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `ravel-sim` | time, event queue, seeded RNG, series |
//! | [`trace`] | `ravel-trace` | bandwidth traces and combinators |
//! | [`video`] | `ravel-video` | synthetic content sources |
//! | [`codec`] | `ravel-codec` | x264-behavioural encoder + decoder |
//! | [`net`] | `ravel-net` | packets, pacer, bottleneck link, feedback |
//! | [`cc`] | `ravel-cc` | GCC and baseline congestion controllers |
//! | [`core`] | `ravel-core` | **the contribution**: drop detector + adaptive controller |
//! | [`pipeline`] | `ravel-pipeline` | end-to-end session runner |
//! | [`metrics`] | `ravel-metrics` | stats, latency records, tables |
//! | [`harness`] | `ravel-harness` | parallel deterministic experiment harness |

#![warn(missing_docs)]

pub use ravel_cc as cc;
pub use ravel_codec as codec;
pub use ravel_core as core;
pub use ravel_harness as harness;
pub use ravel_metrics as metrics;
pub use ravel_net as net;
pub use ravel_pipeline as pipeline;
pub use ravel_sim as sim;
pub use ravel_trace as trace;
pub use ravel_video as video;
