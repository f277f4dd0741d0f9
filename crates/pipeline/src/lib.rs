//! # ravel-pipeline — the end-to-end RTC session
//!
//! Wires every substrate into one deterministic discrete-event session:
//!
//! ```text
//! VideoSource → [AdaptiveController?] → Encoder → Packetizer → Pacer
//!      → Link (bottleneck: queue + capacity trace + propagation)
//!      → FrameAssembler → display accounting (→ Decoder model)
//!      ↖ FeedbackBuilder ← per-packet arrivals
//!        (reports return over the reverse path → GCC → controller)
//! ```
//!
//! One call to [`run`] with a [`SessionSpec`] produces a
//! [`SessionResult`] holding the per-frame latency/quality records and
//! optional time series — the raw material for every table and figure
//! in EXPERIMENTS.md. [`run_many`] interleaves a population of specs
//! over one shared event queue with identical per-session results.
//!
//! The **baseline** scheme is GCC driving the encoder through the
//! production slow path (`set_target_bitrate`); the **adaptive** scheme
//! inserts `ravel-core`'s controller in between. Everything else —
//! content, codec, pacing, link, feedback timing, seeds — is identical
//! across schemes, so measured deltas are attributable to the paper's
//! mechanism alone.

#![warn(missing_docs)]

pub mod contracts;
pub mod invariants;
pub mod scheme;
pub mod session;

pub use contracts::{all_pass, evaluate, ContractSpec, ContractVerdict};
pub use invariants::{Invariant, InvariantChecker, InvariantViolation};
pub use scheme::{CcKind, Scheme};
pub use session::{
    run, run_many, InjectedFault, KernelWorkspace, SessionConfig, SessionGuard, SessionResult,
    SessionSpec, CANCEL_POLL_EVERY_EVENTS, RUNAWAY_BASE_EVENTS, RUNAWAY_EVENTS_PER_SIM_SEC,
};
