//! Allocation budget of the session kernel's steady state.
//!
//! A counting global allocator wraps the system allocator, and a
//! `lossy-cell`-shaped session (LTE-like capacity, 3 % forward and 5 %
//! reverse loss, feedback corruption with the watchdog armed, RTX and
//! FEC on) runs twice through one [`KernelWorkspace`]. The first run
//! warms the workspace; the second run's heap allocations per simulated
//! second must stay under [`BUDGET_PER_SIM_S`]. Per-packet and
//! per-report payloads (feedback reports, NACK batches, FEC hits,
//! assembler bitmaps, calendar buckets, encoded-frame boxes) all come
//! from recycled buffers, so what is left is per-frame bookkeeping and
//! session setup.
//!
//! This file is its own test binary and holds one test, so no other
//! test's allocations reach the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ravel_core::WatchdogConfig;
use ravel_net::{CorruptSpec, ReversePathConfig};
use ravel_pipeline::{run_many, KernelWorkspace, Scheme, SessionConfig, SessionSpec};
use ravel_sim::Dur;
use ravel_trace::{BandwidthTrace, CellularProfile, StochasticTrace};
use ravel_video::Resolution;

/// Allocations (including reallocations) counted since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Steady-state allocations per simulated second. The allocation-free
/// kernel measures about 9 in this shape; the kernel that allocated a
/// fresh report, NACK and hit `Vec` per event and a bitmap per frame
/// measured about 93.
const BUDGET_PER_SIM_S: f64 = 25.0;

const SESSION_LEN: Dur = Dur::secs(20);

fn lossy_cell_spec() -> SessionSpec<Box<dyn BandwidthTrace>> {
    let mut cfg = SessionConfig::default_with(Scheme::adaptive());
    cfg.resolution = Resolution::P540;
    cfg.start_rate_bps = 1e6;
    cfg.duration = SESSION_LEN;
    cfg.link.random_loss = 0.03;
    cfg.reverse_path = ReversePathConfig::with_loss(0.05);
    cfg.enable_rtx = true;
    cfg.enable_fec = true;
    cfg.seed = 11;
    cfg.corrupt = Some(CorruptSpec::new(5, 0.25));
    cfg.watchdog = Some(WatchdogConfig::for_timing(
        cfg.feedback_interval,
        cfg.reverse_delay * 2,
    ));
    let trace = StochasticTrace::generate(&CellularProfile::lte_like(), SESSION_LEN, 7);
    SessionSpec::new(Box::new(trace), cfg)
}

/// Allocations made by one `run_many` of `spec` through `ws`, spec
/// construction excluded.
fn allocs_of_run(ws: &mut KernelWorkspace) -> u64 {
    let specs = vec![lossy_cell_spec()];
    let before = ALLOCS.load(Ordering::Relaxed);
    let results = run_many(specs, ws);
    let after = ALLOCS.load(Ordering::Relaxed);
    // The whole session ran: 20 s at 30 fps, minus watchdog skips.
    assert!(
        results[0].frames_encoded > 400,
        "{}",
        results[0].frames_encoded
    );
    assert!(results[0].retransmissions > 0, "RTX must do real work");
    assert!(results[0].fec_recovered > 0, "FEC must do real work");
    after - before
}

#[test]
fn warm_workspace_session_stays_under_the_allocation_budget() {
    let mut ws = KernelWorkspace::new();
    let cold = allocs_of_run(&mut ws);
    let warm = allocs_of_run(&mut ws);
    let per_sim_s = warm as f64 / SESSION_LEN.as_secs_f64();
    println!("allocations: cold run {cold}, warm run {warm} ({per_sim_s:.1} per sim-s)");
    assert!(
        per_sim_s < BUDGET_PER_SIM_S,
        "warm run made {warm} allocations, {per_sim_s:.1} per simulated second \
         (budget {BUDGET_PER_SIM_S})"
    );
}
