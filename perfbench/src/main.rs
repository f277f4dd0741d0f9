//! `perfbench` — the ravel benchmark.
//!
//! ```text
//! perfbench --workload grid|hd-drop|lossy-cell --seed N --seconds S --trace 0|1 [--out PATH]
//! perfbench compare A.json B.json
//! ```
//!
//! `--trace 0` times the workload with tracing off and reports the
//! end-to-end metrics; `--trace 1` runs the separate traced replay and
//! reports the per-layer metrics. The last line of standard output is
//! always one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md for every metric's definition.

mod host;
mod replay;
mod stats;
mod workloads;

use std::collections::{BTreeMap, HashSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ravel_harness::{render_json, run_cells_opts, Cell, CellRun, ObsMode};
use ravel_pipeline::evaluate;
use ravel_trace::json::{self, Json};

use host::Host;
use replay::{Counts, Layer, Span, Tracer};
use workloads::{Group, Workload};

/// Set-ups before the first pass; a timed run adds one after every
/// pass, so `setup_s` (their median) samples the whole run.
const SETUP_REPEATS: usize = 5;
/// The calibration workload's wall and CPU time on `min(nproc, 2)`
/// threads on the reference host (the 2-vCPU host README.md
/// describes). Timing metrics are reported on this reference scale:
/// each raw median is multiplied by how much faster or slower the
/// calibration ran in the same run, so drift in the speed of a shared
/// host cancels out of the comparison.
const CAL_REF_WALL_S: f64 = 0.064;
const CAL_REF_CPU_S: f64 = 0.1;
/// The traced run replays every this many cells a second time without
/// spans, to measure the tracing overhead.
const BARE_REPLAY_EVERY: usize = 8;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Digest of `ravel-harness --jobs 2 --timing-free` for the full grid
/// at the commit that introduced this benchmark.
const GRID_REFERENCE: &str = include_str!("../reference/grid.timing-free.fnv");
/// The poster's bands for its two headline numbers, in percent.
const PAPER_G2G_BAND: (f64, f64) = (28.66, 78.87);
const PAPER_SSIM_BAND: (f64, f64) = (0.8, 3.0);

const USAGE: &str = "usage: perfbench --workload grid|hd-drop|lossy-cell --seed N --seconds S --trace 0|1 [--out PATH]
       perfbench compare A.json B.json";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run found, whichever mode it ran in.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Broken checks other than failed operations (determinism, replay
    /// counts, clock agreement). Any entry makes the run incorrect.
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Everything else worth keeping, for `--out` and `compare`.
    report: Vec<(String, Json)>,
}

/// A workload's inputs, prepared once per set-up.
struct Prepared {
    /// Every cell, grouped as the report groups them; the warm-up pass
    /// runs these and the paired medians come from them.
    groups: Vec<Group>,
    /// The prefix every timed and traced pass runs, grouped the same way.
    timed: Vec<Group>,
}

fn flatten(groups: &[Group]) -> Vec<Cell> {
    groups
        .iter()
        .flat_map(|g| g.cells.iter().cloned())
        .collect()
}

/// One set-up: expand the cells, materialise every distinct trace,
/// key every cell by content address, and spawn the worker threads —
/// everything a pass needs before the first session runs.
fn setup(workload: Workload, seed: u64, jobs: usize) -> Prepared {
    let groups = workload.groups(seed);
    let timed = workload.timed(&groups);
    let cells = flatten(&groups);
    let mut traces = HashSet::new();
    for cell in &cells {
        if traces.insert(cell.trace.canonical_key()) {
            std::hint::black_box(cell.trace.build());
        }
    }
    let keys: HashSet<String> = cells.iter().map(Cell::canonical_key).collect();
    std::hint::black_box(keys.len());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| std::hint::black_box(0u8));
        }
    });
    Prepared { groups, timed }
}

/// Why a cell counts as a failed operation, or `None` when it passed:
/// a non-ok status, any invariant violation, any failed contract clause.
fn cell_failure(run: &CellRun) -> Option<String> {
    if !run.ok() {
        return Some(format!("{}: status {}", run.label, run.status.name()));
    }
    if !run.result.violations.is_empty() {
        return Some(format!(
            "{}: {} invariant violation(s), first: {}",
            run.label,
            run.result.violations.len(),
            run.result.violations[0]
        ));
    }
    let broken = run.failed_contracts();
    (!broken.is_empty()).then(|| {
        let names: Vec<&str> = broken.iter().map(|v| v.name).collect();
        format!(
            "{}: contract clause(s) failed: {}",
            run.label,
            names.join(", ")
        )
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn in_band(x: f64, band: (f64, f64)) -> &'static str {
    if (band.0..=band.1).contains(&x) {
        "inside"
    } else {
        "outside"
    }
}

fn num_array(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

/// The timed run: passes of the whole workload through the harness
/// pool until `seconds` have elapsed, tracing off.
fn timed(args: &Args, prepared: &Prepared, jobs: usize, setups: &mut Vec<f64>) -> Outcome {
    let opts = args.workload.pool_options();
    let all_cells = flatten(&prepared.groups);
    let cells = &flatten(&prepared.timed);
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures_seen = Vec::new();
    let mut check = |runs: &[CellRun], attempted: &mut u64, failed: &mut u64| {
        *attempted += runs.len() as u64;
        for run in runs {
            if let Some(why) = cell_failure(run) {
                *failed += 1;
                if failures_seen.len() < 10 {
                    failures_seen.push(why);
                }
            }
        }
    };

    // Warm-up pass over every cell: a cold process runs its first pass
    // markedly slower, so it is not timed. Its results carry the
    // deterministic outputs, and the memory high water is read here,
    // before the calibration workload first runs.
    let (warm, _) = run_cells_opts(&all_cells, jobs, opts);
    check(&warm, &mut attempted, &mut failed);
    let peak_rss = host::peak_rss_mib().unwrap_or(f64::NAN);
    let digest = workloads::timing_free_digest(&prepared.groups, &warm);
    let timed_digest = workloads::timing_free_digest(&prepared.timed, &warm[..cells.len()]);
    let deltas: Vec<stats::PairDelta> = workloads::pairs(&all_cells)
        .into_iter()
        .map(|(b, a)| workloads::pair_delta(&all_cells[a], &warm[b].result, &warm[a].result))
        .collect();
    let (g2g, ssim) = stats::paired_medians(&deltas).unwrap_or((f64::NAN, f64::NAN));
    if !g2g.is_finite() || !ssim.is_finite() {
        problems.push("no baseline/adaptive pair with a usable comparison".to_string());
    }
    drop(warm);

    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let (mut cal_walls, mut cal_cpus) = (Vec::new(), Vec::new());
    let (mut cpu_total, mut busy_total) = (Duration::ZERO, Duration::ZERO);
    let stat_before = host::proc_stat_cpu_time();
    let loop_start = Instant::now();
    while walls.len() < MIN_PASSES || loop_start.elapsed().as_secs_f64() < args.seconds {
        let cpu0 = host::process_cpu_time();
        let t0 = Instant::now();
        let (runs, stats) = run_cells_opts(cells, jobs, opts);
        let wall = t0.elapsed();
        let cpu = host::process_cpu_time() - cpu0;
        check(&runs, &mut attempted, &mut failed);
        let executed_sim_s: f64 = runs
            .iter()
            .filter(|r| !r.cache_hit)
            .map(|r| r.sim_secs)
            .sum();
        walls.push(wall.as_secs_f64());
        rates.push(executed_sim_s / cpu.as_secs_f64());
        cpu_total += cpu;
        busy_total += stats.busy;
        let pass_digest = workloads::timing_free_digest(&prepared.timed, &runs);
        if pass_digest != timed_digest {
            problems.push(format!(
                "pass {} timing-free digest {pass_digest} differs from the warm-up's {timed_digest}",
                walls.len()
            ));
        }
        drop(runs);
        let t = Instant::now();
        std::hint::black_box(setup(args.workload, args.seed, jobs));
        setups.push(t.elapsed().as_secs_f64());
        let cal = host::calibrate(jobs);
        cal_walls.push(cal.wall.as_secs_f64());
        cal_cpus.push(cal.cpu.as_secs_f64());
    }

    // Cross-check the process CPU clock: against the pool's own busy
    // time (workers' wall while simulating), and against the kernel's
    // coarse tick accounting of the same process.
    let cpu_busy = ratio(cpu_total.as_secs_f64(), busy_total.as_secs_f64());
    if !(0.25..=2.0).contains(&cpu_busy) {
        problems.push(format!(
            "process CPU time {:.3}s disagrees with pool busy time {:.3}s (ratio {cpu_busy:.3})",
            cpu_total.as_secs_f64(),
            busy_total.as_secs_f64()
        ));
    }
    let stat_cpu = match (stat_before, host::proc_stat_cpu_time()) {
        (Some(a), Some(b)) => (b.saturating_sub(a)).as_secs_f64(),
        _ => f64::NAN,
    };
    failures_seen.into_iter().for_each(|f| problems.push(f));

    let raw_wall_s = stats::median(&walls).unwrap_or(f64::NAN);
    let raw_rate = stats::median(&rates).unwrap_or(f64::NAN);
    let cal_wall = stats::median(&cal_walls).unwrap_or(f64::NAN);
    let cal_cpu = stats::median(&cal_cpus).unwrap_or(f64::NAN);
    let raw_setup_s = stats::median(setups).unwrap_or(f64::NAN);
    let wall_s = raw_wall_s * CAL_REF_WALL_S / cal_wall;
    let setup_s = raw_setup_s * CAL_REF_WALL_S / cal_wall;
    let rate = raw_rate * cal_cpu / CAL_REF_CPU_S;
    let reference = GRID_REFERENCE.trim();
    let behaviour = match args.workload {
        Workload::Grid if digest == reference => {
            "unchanged (matches ravel-harness --timing-free reference)"
        }
        Workload::Grid => {
            "CHANGED: differs from the committed ravel-harness --timing-free reference"
        }
        _ => "seeded workload: compare this digest across commits at the same seed",
    };

    println!(
        "workload {} seed {} jobs {jobs}: warm-up over {} cells, {} timed passes of {} cells",
        args.workload.name(),
        args.seed,
        all_cells.len(),
        walls.len(),
        cells.len()
    );
    for (name, v) in [
        ("wall_s per pass", &walls),
        ("sim_s_per_core_s per pass", &rates),
    ] {
        let q = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
        let spread = stats::iqr_share(v).unwrap_or(f64::NAN);
        let tail = stats::tail(v).map_or("n/a (fewer than 20 passes)".to_string(), |(p, x)| {
            format!("p{p} {x:.6}")
        });
        println!(
            "  {name}: median {:.6}, quartiles [{:.6}, {:.6}] (spread {:.1}%), tail {tail}, n={}",
            q[1],
            q[0],
            q[2],
            spread * 100.0,
            v.len()
        );
    }
    println!(
        "  calibration: median wall {cal_wall:.5}s cpu {cal_cpu:.5}s (reference {CAL_REF_WALL_S}s / {CAL_REF_CPU_S}s); raw medians sim_s_per_core_s {raw_rate:.3}, wall_s {raw_wall_s:.6}, setup_s {raw_setup_s:.6}"
    );
    println!("  cpu/busy ratio {cpu_busy:.4}; cpu {:.3}s by clock_gettime, {stat_cpu:.2}s by /proc/self/stat", cpu_total.as_secs_f64());
    println!("  digest {digest}: {behaviour}");
    println!(
        "  fidelity: g2g_p95_reduction_pct {g2g:.4} (poster band {}-{}%: {}), ssim_gain_pct {ssim:.4} (poster band {}-{}%: {}) over {} pairs; the model is validated only against these two bands",
        PAPER_G2G_BAND.0, PAPER_G2G_BAND.1, in_band(g2g, PAPER_G2G_BAND),
        PAPER_SSIM_BAND.0, PAPER_SSIM_BAND.1, in_band(ssim, PAPER_SSIM_BAND),
        deltas.len()
    );

    let metrics = vec![
        metric("sim_s_per_core_s", rate, "sim-s/core-s"),
        metric("wall_s", wall_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("g2g_p95_reduction_pct", g2g, "%"),
        metric("ssim_gain_pct", ssim, "%"),
    ];
    let report = vec![
        ("passes_wall_s".to_string(), num_array(&walls)),
        ("passes_sim_s_per_core_s".to_string(), num_array(&rates)),
        ("cpu_busy_ratio".to_string(), Json::Num(cpu_busy)),
        ("raw_sim_s_per_core_s".to_string(), Json::Num(raw_rate)),
        ("raw_wall_s".to_string(), Json::Num(raw_wall_s)),
        ("raw_setup_s".to_string(), Json::Num(raw_setup_s)),
        ("calibration_wall_s".to_string(), num_array(&cal_walls)),
        ("calibration_cpu_s".to_string(), num_array(&cal_cpus)),
        ("digest".to_string(), Json::Str(digest)),
        ("behaviour".to_string(), Json::Str(behaviour.to_string())),
        (
            "pair_g2g_p95_reduction_pct".to_string(),
            num_array(
                &deltas
                    .iter()
                    .map(|d| d.g2g_p95_reduction_pct)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "pair_ssim_gain_pct".to_string(),
            num_array(&deltas.iter().map(|d| d.ssim_gain_pct).collect::<Vec<_>>()),
        ),
    ];
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        report,
    }
}

/// Sums over a workload's sessions of the real run's counters.
#[derive(Default)]
struct Real {
    sim_s: f64,
    events: u64,
    frames_captured: u64,
    frames_skipped: u64,
    packets_delivered: u64,
    queue_drops: u64,
    retransmissions: u64,
}

/// One traced pass: a harness pass, then every unique cell through
/// `Cell::run` and the layer replay. Returns the pass's metrics.
fn traced_pass(
    args: &Args,
    prepared: &Prepared,
    cells: &[Cell],
    unique: &[usize],
    jobs: usize,
    timer_ns: f64,
    out: &mut Outcome,
) -> BTreeMap<String, (f64, &'static str)> {
    let mut tr = Tracer::new(true, timer_ns);
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };

    // harness: one untraced pool pass, then the report writer.
    let t0 = Instant::now();
    let (runs, stats) = tr.span(Span::RunCells, || {
        run_cells_opts(cells, jobs, args.workload.pool_options())
    });
    let wall = t0.elapsed();
    out.attempted += runs.len() as u64;
    for run in &runs {
        if let Some(why) = cell_failure(run) {
            out.failed += 1;
            out.problems.push(why);
        }
    }
    let report = workloads::run_report(&prepared.timed, &runs, stats, jobs, wall);
    std::hint::black_box(tr.span(Span::RenderJson, || render_json(&report, true)));
    drop(report);
    drop(runs);
    let pool_jobs = jobs.clamp(1, cells.len().max(1));
    put("harness.cells_executed", stats.executed as f64, "count");
    put(
        "harness.cache_hit_ratio",
        ratio(stats.cache_hits as f64, stats.total_cells as f64),
        "ratio",
    );
    put(
        "harness.pool_utilization",
        ratio(
            stats.busy.as_secs_f64(),
            wall.as_secs_f64() * pool_jobs as f64,
        ),
        "ratio",
    );
    put("harness.report_ms", tr.ns(Span::RenderJson) / 1e6, "ms");

    // Every unique cell: the real session, its contracts, then the
    // replay of its recorded streams.
    let mut real = Real::default();
    let mut counts = Counts::default();
    let mut session_ms = Vec::with_capacity(unique.len());
    let (mut replay_traced_sampled_s, mut replay_bare_s) = (0.0, 0.0);
    let mut depth_max = 0usize;
    let mut pending: Option<(Vec<_>, ravel_sim::Dur)> = None;
    for (n, &i) in unique.iter().enumerate() {
        let cell = &cells[i];
        let t = Instant::now();
        let result = tr.span(Span::CellRun, || cell.run());
        session_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(spec) = &cell.contracts {
            std::hint::black_box(tr.span(Span::Evaluate, || evaluate(spec, &result)));
        }
        real.sim_s += cell.cfg.duration.as_secs_f64();
        real.events += result.events_processed;
        real.frames_captured += result.frames_captured;
        real.frames_skipped += result.frames_skipped;
        real.packets_delivered += result.packets_delivered;
        real.queue_drops += result.queue_drops;
        real.retransmissions += result.retransmissions;
        drop(result);

        let observed = cell.run_obs(ObsMode::Full);
        let mut events = Vec::new();
        let t = Instant::now();
        let c = replay::replay_session(&mut tr, cell, &observed, &mut events);
        let t_replay = t.elapsed().as_secs_f64();
        if n % BARE_REPLAY_EVERY == 0 {
            // Tracing overhead: the same replay without spans, on every
            // few cells (it only feeds `trace.wall_ratio`).
            replay_traced_sampled_s += t_replay;
            let t = Instant::now();
            let mut bare = Tracer::new(false, 0.0);
            std::hint::black_box(replay::replay_session(
                &mut bare,
                cell,
                &observed,
                &mut Vec::new(),
            ));
            replay_bare_s += t.elapsed().as_secs_f64();
        }
        out.problems
            .extend(replay::cross_check(&cell.label, &c, &observed));
        counts.add(&c);
        drop(observed);

        // The grid's auto batching runs cells as interleaved pairs of
        // equal length through one queue; the seeded workloads run each
        // session alone.
        let pairable = args.workload == Workload::Grid;
        match pending.take() {
            Some((mut prev, dur)) if pairable && dur == cell.cfg.duration => {
                prev.extend(events);
                depth_max = depth_max.max(replay::replay_queue(&mut tr, prev));
            }
            other => {
                if let Some((prev, _)) = other {
                    depth_max = depth_max.max(replay::replay_queue(&mut tr, prev));
                }
                if pairable {
                    pending = Some((events, cell.cfg.duration));
                } else {
                    depth_max = depth_max.max(replay::replay_queue(&mut tr, events));
                }
            }
        }
    }
    if let Some((prev, _)) = pending {
        depth_max = depth_max.max(replay::replay_queue(&mut tr, prev));
    }
    out.attempted += unique.len() as u64;

    let sorted_ms = {
        let mut v = session_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    put(
        "pipeline.events_per_sim_s",
        ratio(real.events as f64, real.sim_s),
        "1/sim-s",
    );
    put(
        "pipeline.session_ms_p50",
        stats::median(&session_ms).unwrap_or(0.0),
        "ms",
    );
    put(
        "pipeline.session_ms_p95",
        stats::percentile(&sorted_ms, 95.0),
        "ms",
    );
    put("pipeline.session_samples", session_ms.len() as f64, "count");

    let (_, q_ns) = tr.sum(&[Span::QueuePush, Span::QueuePop]);
    put(
        "sim.queue_ns_per_event",
        ratio(q_ns, tr.calls(Span::QueuePush) as f64),
        "ns",
    );
    put("sim.queue_depth_max", depth_max as f64, "count");

    let (_, codec_ns) = tr.layer(Layer::Codec);
    put(
        "codec.ns_per_frame",
        ratio(codec_ns, counts.frames_captured as f64),
        "ns",
    );
    put(
        "codec.frames_per_sim_s",
        ratio(counts.frames_encoded as f64, real.sim_s),
        "1/sim-s",
    );
    put(
        "codec.skip_ratio",
        ratio(real.frames_skipped as f64, real.frames_captured as f64),
        "ratio",
    );

    let (_, send_ns) = tr.layer(Layer::NetSend);
    put(
        "net.send.ns_per_packet",
        ratio(send_ns, counts.packets_sent as f64),
        "ns",
    );
    put(
        "net.send.packets_per_sim_s",
        ratio(counts.packets_sent as f64, real.sim_s),
        "1/sim-s",
    );
    put(
        "net.send.queue_drop_ratio",
        ratio(real.queue_drops as f64, counts.packets_sent as f64),
        "ratio",
    );

    let (_, recv_pkt_ns) = tr.sum(&[
        Span::FeedbackOnPacket,
        Span::NackOnPacket,
        Span::FecDecode,
        Span::Assemble,
    ]);
    put(
        "net.recv.ns_per_packet",
        ratio(recv_pkt_ns, counts.packets_delivered as f64),
        "ns",
    );
    put(
        "net.recv.ns_per_flush",
        ratio(
            tr.ns(Span::FeedbackFlush),
            tr.calls(Span::FeedbackFlush) as f64,
        ),
        "ns",
    );
    put(
        "net.nack.ns_per_poll",
        ratio(tr.ns(Span::NackPoll), tr.calls(Span::NackPoll) as f64),
        "ns",
    );
    put(
        "net.nack.poll_useful_ratio",
        ratio(counts.nack_polls_useful as f64, counts.nack_polls as f64),
        "ratio",
    );
    put(
        "net.rtx_ratio",
        ratio(real.retransmissions as f64, real.packets_delivered as f64),
        "ratio",
    );

    let per_call = |s: Span| ratio(tr.ns(s), tr.calls(s) as f64);
    put(
        "control.validator_ns_per_report",
        per_call(Span::Validate),
        "ns",
    );
    put(
        "control.reject_ratio",
        ratio(
            counts.reports_rejected as f64,
            (counts.reports_accepted + counts.reports_rejected) as f64,
        ),
        "ratio",
    );
    put("cc.gcc.ns_per_report", per_call(Span::CcGcc), "ns");
    put("cc.nada.ns_per_report", per_call(Span::CcNada), "ns");
    put("cc.bbr.ns_per_report", per_call(Span::CcBbr), "ns");
    put("cc.loss-ema.ns_per_report", per_call(Span::CcLossEma), "ns");
    put("core.ns_per_report", per_call(Span::CoreFeedback), "ns");
    put("core.ns_per_frame", per_call(Span::CoreFrame), "ns");
    put(
        "metrics.summarize_us_per_session",
        per_call(Span::Summarize) / 1e3,
        "us",
    );

    // Shares of the measured total: whole sessions plus the calls made
    // outside them. The replayed layers run inside `Cell::run` in the
    // real run, so the pipeline's self time is the session time they
    // do not account for (dispatch, session state, the finish pass).
    let children: f64 = [
        Layer::Sim,
        Layer::Codec,
        Layer::NetSend,
        Layer::NetRecv,
        Layer::Control,
    ]
    .iter()
    .map(|&l| tr.layer(l).1)
    .sum();
    let session_ns = tr.ns(Span::CellRun);
    let total =
        session_ns + tr.ns(Span::Evaluate) + tr.ns(Span::Summarize) + tr.ns(Span::RenderJson);
    for layer in Layer::ALL {
        let (calls, ns) = tr.layer(layer);
        let self_ns = match layer {
            Layer::Pipeline => (session_ns - children).max(0.0) + tr.ns(Span::Evaluate),
            Layer::Harness => tr.ns(Span::RenderJson),
            _ => ns,
        };
        let name = layer.name();
        put(&format!("{name}.calls"), calls as f64, "count");
        put(&format!("{name}.self_ms"), self_ns / 1e6, "ms");
        put(&format!("{name}.share"), ratio(self_ns, total), "ratio");
    }
    put("trace.timer_ns", timer_ns, "ns");
    put(
        "trace.wall_ratio",
        ratio(replay_traced_sampled_s, replay_bare_s),
        "ratio",
    );
    if out.report.is_empty() {
        // Sends the replayed packetizer could not match (audio flows
        // take sequence numbers the timeline does not record).
        out.report.push((
            "replay_send_mismatches".to_string(),
            Json::Num(counts.send_mismatches as f64),
        ));
    }
    m
}

/// The traced run: passes of [`traced_pass`] until `seconds` elapse;
/// each metric is the median over passes.
fn traced(args: &Args, prepared: &Prepared, jobs: usize) -> Outcome {
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        report: Vec::new(),
    };
    let cells = flatten(&prepared.timed);
    let mut seen = HashSet::new();
    let unique: Vec<usize> = (0..cells.len())
        .filter(|&i| seen.insert(cells[i].canonical_key()))
        .collect();
    let timer_ns = replay::calibrate_timer(200_000);
    let mut passes: Vec<BTreeMap<String, (f64, &'static str)>> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let problems_before = out.problems.len();
        passes.push(traced_pass(
            args, prepared, &cells, &unique, jobs, timer_ns, &mut out,
        ));
        if passes.len() > 1 {
            // Counts repeat exactly; report each broken one once.
            out.problems.truncate(problems_before);
        }
    }
    for (name, (_, unit)) in &passes[0] {
        let values: Vec<f64> = passes.iter().map(|p| p[name].0).collect();
        out.metrics.push(metric(
            name.clone(),
            stats::median(&values).unwrap_or(f64::NAN),
            unit,
        ));
    }
    println!(
        "workload {} seed {} jobs {jobs}: traced replay of {} unique cells, {} passes, timer {timer_ns:.1} ns per span",
        args.workload.name(),
        args.seed,
        unique.len(),
        passes.len()
    );
    for layer in Layer::ALL {
        let get = |suffix: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == format!("{}.{suffix}", layer.name()))
                .map_or(0.0, |m| m.value)
        };
        println!(
            "  {:<9} calls {:>10.0}  self {:>9.3} ms  share {:>6.2}%",
            layer.name(),
            get("calls"),
            get("self_ms"),
            get("share") * 100.0
        );
    }
    out
}

fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut name = String::new();
            json::write_string(&mut name, &m.name);
            let mut unit = String::new();
            json::write_string(&mut unit, m.unit);
            format!("{name}: {{\"value\": {}, \"unit\": {unit}}}", m.value)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: Args, main_start: Instant) -> ExitCode {
    let jobs = ravel_harness::default_jobs().min(2);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for k in 0..SETUP_REPEATS {
        // The first set-up is timed from process entry; the others
        // repeat the same work in the warm process.
        let t0 = if k == 0 { main_start } else { Instant::now() };
        prepared = Some(setup(args.workload, args.seed, jobs));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS is positive");
    let host = Host::detect();

    let mut out = if args.trace {
        traced(&args, &prepared, jobs)
    } else {
        timed(&args, &prepared, jobs, &mut setups)
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    for p in out.problems.iter().take(20) {
        println!("  PROBLEM: {p}");
    }
    for m in &out.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let mut report = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("jobs".to_string(), Json::Num(jobs as f64)),
        ("host".to_string(), host.to_json()),
        ("setups_s".to_string(), num_array(&setups)),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        (
            "metrics".to_string(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        let v = if m.value.is_finite() {
                            Json::Num(m.value)
                        } else {
                            Json::Null
                        };
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), v),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ];
    report.append(&mut out.report);
    let report = Json::Obj(report).render();
    println!(
        "host: {} | nproc {} | {} | {} | rev {}",
        host.cpu_model, host.nproc, host.rustc, host.profile, host.git_rev
    );
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics: Vec<Metric> = out
        .metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!(
        "{}",
        render_result(correct, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// `compare A.json B.json`: per-metric deltas of two `--out` reports,
/// refused when the host blocks differ.
fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("parsing {p}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = |j: &Json| j.get("host").and_then(Host::from_json);
    let (Some(ha), Some(hb)) = (host(&a), host(&b)) else {
        eprintln!("error: a report has no host block");
        return ExitCode::FAILURE;
    };
    if let Some(why) = ha.incomparable(&hb) {
        println!("not comparable: {why}");
        return ExitCode::from(2);
    }
    for key in ["workload", "trace", "seconds"] {
        if a.get(key) != b.get(key) {
            println!("not comparable: {key} differs");
            return ExitCode::from(2);
        }
    }
    let metrics = |j: &Json| match j.get("metrics") {
        Some(Json::Obj(m)) => m.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&b);
    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "metric", a_path, b_path, "delta"
    );
    for (name, va) in metrics(&a) {
        let Some((_, vb)) = mb.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let x = |v: &Json| v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (xa, xb) = (x(&va), x(vb));
        let delta = if xa != 0.0 {
            format!("{:+.2}%", (xb / xa - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        println!("{name:<36} {xa:>14.6} {xb:>14.6} {delta:>9}");
    }
    for key in ["digest", "behaviour"] {
        if let (Some(x), Some(y)) = (
            a.get(key).and_then(Json::as_str),
            b.get(key).and_then(Json::as_str),
        ) {
            if x != y {
                println!("{key}: {x} -> {y} (simulated behaviour changed)");
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let main_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(argv.into_iter()) {
        Ok(args) => run(args, main_start),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "hd-drop",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::HdDrop);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "grid", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "grid",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--workload", "grid", "--seconds", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = render_result(
            true,
            12,
            0,
            &[
                metric("wall_s", 1.25, "s"),
                metric("cc.loss-ema.ns_per_report", 3.0, "ns"),
            ],
        );
        let j = json::parse(&line).unwrap();
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = j.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }
}
