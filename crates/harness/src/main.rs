//! CLI for the parallel experiment harness.
//!
//! ```text
//! cargo run --release -p ravel-harness -- --jobs 8 --experiments e1,e2
//! cargo run --release -p ravel-harness -- --chaos 25 --chaos-seed 7
//! cargo run --release -p ravel-harness -- --soak 30 --soak-seed 1
//! ```
//!
//! Deterministic output (experiment tables) goes to stdout — two runs
//! over the same grid diff clean regardless of `--jobs`. Timing goes to
//! stderr, and the structured report to `--out` (default
//! `BENCH_harness.json`).
//!
//! Chaos mode (`--chaos N`) replaces the experiment selection with an
//! N-cell seeded fault sweep. Any cell that fails — invariant
//! violation, panic, runaway — is minimized with the shrinker and its
//! reproducer spec is printed; the process then exits nonzero so CI
//! gates on it. Corrupt mode (`--corrupt N`) is the control-plane
//! analogue: an N-cell seeded feedback-corruption sweep whose failures
//! (invariant violations *or* broken recovery contracts) shrink to a
//! minimal corruption schedule the same way.
//!
//! In every mode, cells that carry recovery contracts (E21, the corrupt
//! sweep) report their verdicts; any failed clause fails the run.
//!
//! Soak mode (`--soak SECS`) streams randomized cells through the
//! fault-isolated pool until the wall budget expires; see
//! `ravel_harness::soak`.
//!
//! In every mode, any cell that does not complete `ok` (panicked,
//! timed out, runaway) is listed in a failure summary table and the
//! process exits nonzero.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ravel_harness::{
    default_jobs, experiments, render_json, render_timeline, run_soak, run_suite_opts, shrink_cell,
    violating_timeline, BatchMode, Cell, CellRun, FaultSchedule, ObsMode, PoolOptions, RunReport,
    SoakOptions, FIXTURE_FAULT_AT,
};
use ravel_metrics::Table;
use ravel_net::{ChaosSchedule, CorruptSchedule};
use ravel_pipeline::{ContractVerdict, InjectedFault};

const USAGE: &str = "\
ravel-harness — run the E1-E22 grid on a deterministic thread pool

USAGE:
    ravel-harness [OPTIONS]

OPTIONS:
    --jobs N             worker threads (default: all cores)
    --batch N|auto       grid positions a worker claims per pass and
                         runs as one interleaved session population
                         through the shared-queue kernel (default:
                         auto, sized from the grid and worker count;
                         1 = the per-cell kernel path; output is
                         byte-identical at any batch size)
    --experiments LIST   comma-separated ids, e.g. e1,e4,e17 (default: all)
    --controller LIST    restrict the E22 arena grid to a comma-separated
                         controller list (gcc, nada, bbr, loss-ema);
                         requires e22 in the selected experiments
    --chaos N            run an N-cell seeded chaos sweep instead of the
                         experiment grid; exits nonzero if any session
                         invariant is violated (violating schedules are
                         shrunk and printed as minimal reproducers)
    --chaos-seed S       first seed of the chaos sweep (default: 1);
                         cell i uses seed S+i, so (S, N) names the
                         sweep; requires --chaos
    --corrupt N          run an N-cell seeded feedback-corruption sweep
                         instead of the experiment grid; every cell
                         carries a recovery contract, and any failure —
                         invariant violation, broken contract clause,
                         panic — is shrunk to a minimal corruption
                         schedule and printed; exits nonzero
    --corrupt-seed S     first seed of the corruption sweep (default:
                         1); cell i uses seed S+i; requires --corrupt
    --soak SECS          stream seeded random chaos x impairment x
                         content cells through the fault-isolated pool
                         for SECS seconds of wall clock; prints merged
                         status/violation tallies and exits nonzero on
                         any failing cell (no JSON report)
    --soak-seed S        soak stream seed (default: 1); requires --soak
    --soak-cells N       stop the soak after exactly N cells even with
                         budget left, so coverage is independent of
                         host speed (CI smoke runs the exact same,
                         pre-validated cell range everywhere);
                         requires --soak
    --deadline SECS      per-cell wall-clock deadline: overdue sessions
                         are cancelled by the pool supervisor and
                         reported as timed_out
    --fixture KIND       run the injected-fault isolation fixture grid
                         (KIND: panic or runaway) — the faulty cell must
                         be quarantined while the rest of the grid
                         completes; exits nonzero
    --obs MODE           observability: off (default, zero overhead),
                         counters (per-subsystem tallies), or full
                         (every event recorded; prints a per-cell
                         timeline digest after each experiment and
                         writes the JSONL timeline to --obs-out)
    --obs-out PATH       JSONL timeline path for --obs full
                         (default: OBS_timeline.jsonl)
    --out PATH           JSON report path (default: BENCH_harness.json)
    --timing-free        omit wall-clock fields from the JSON report
                         (the remainder is byte-identical at any --jobs
                         except the 'jobs' header field itself)
    --no-json            skip writing the JSON report
    --no-cache           simulate every grid position, even duplicates
                         (cold-run benchmarking; default memoizes by
                         content address so each unique cell runs once)
    --list               list experiments and their cell counts, then exit
    --help               this text
";

#[derive(Debug)]
struct Args {
    jobs: usize,
    batch: BatchMode,
    experiments: Option<String>,
    controller: Option<String>,
    chaos: Option<u64>,
    chaos_seed: Option<u64>,
    corrupt: Option<u64>,
    corrupt_seed: Option<u64>,
    soak: Option<u64>,
    soak_seed: Option<u64>,
    soak_cells: Option<u64>,
    deadline: Option<Duration>,
    fixture: Option<InjectedFault>,
    obs: ObsMode,
    obs_out: String,
    out: String,
    write_json: bool,
    timing_free: bool,
    use_cache: bool,
    list: bool,
    help: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        jobs: default_jobs(),
        batch: BatchMode::Auto,
        experiments: None,
        controller: None,
        chaos: None,
        chaos_seed: None,
        corrupt: None,
        corrupt_seed: None,
        soak: None,
        soak_seed: None,
        soak_cells: None,
        deadline: None,
        fixture: None,
        obs: ObsMode::Off,
        obs_out: "OBS_timeline.jsonl".to_string(),
        out: "BENCH_harness.json".to_string(),
        write_json: true,
        timing_free: false,
        use_cache: true,
        list: false,
        help: false,
    };
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects a positive integer".to_string())?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--batch" => {
                let v = value("--batch")?;
                args.batch = if v == "auto" {
                    BatchMode::Auto
                } else {
                    let n: usize = v
                        .parse()
                        .map_err(|_| "--batch expects a positive integer or 'auto'".to_string())?;
                    if n == 0 {
                        return Err("--batch must be at least 1".into());
                    }
                    BatchMode::Fixed(n)
                };
            }
            "--experiments" | "-e" => args.experiments = Some(value("--experiments")?),
            "--controller" => args.controller = Some(value("--controller")?),
            "--chaos" => {
                let n: u64 = value("--chaos")?
                    .parse()
                    .map_err(|_| "--chaos expects a positive cell count".to_string())?;
                if n == 0 {
                    return Err("--chaos must be at least 1".into());
                }
                args.chaos = Some(n);
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse()
                        .map_err(|_| "--chaos-seed expects an unsigned integer".to_string())?,
                );
            }
            "--corrupt" => {
                let n: u64 = value("--corrupt")?
                    .parse()
                    .map_err(|_| "--corrupt expects a positive cell count".to_string())?;
                if n == 0 {
                    return Err("--corrupt must be at least 1".into());
                }
                args.corrupt = Some(n);
            }
            "--corrupt-seed" => {
                args.corrupt_seed = Some(
                    value("--corrupt-seed")?
                        .parse()
                        .map_err(|_| "--corrupt-seed expects an unsigned integer".to_string())?,
                );
            }
            "--soak" => {
                let secs: u64 = value("--soak")?.parse().map_err(|_| {
                    "--soak expects a whole, positive number of seconds".to_string()
                })?;
                if secs == 0 {
                    return Err("--soak must be at least 1 second".into());
                }
                args.soak = Some(secs);
            }
            "--soak-seed" => {
                args.soak_seed = Some(
                    value("--soak-seed")?
                        .parse()
                        .map_err(|_| "--soak-seed expects an unsigned integer".to_string())?,
                );
            }
            "--soak-cells" => {
                let n: u64 = value("--soak-cells")?
                    .parse()
                    .map_err(|_| "--soak-cells expects a positive cell count".to_string())?;
                if n == 0 {
                    return Err("--soak-cells must be at least 1".into());
                }
                args.soak_cells = Some(n);
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "--deadline expects seconds, e.g. 2.5".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".into());
                }
                args.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--fixture" => {
                let kind = value("--fixture")?;
                args.fixture = Some(match kind.as_str() {
                    "panic" => InjectedFault::Panic {
                        at: FIXTURE_FAULT_AT,
                    },
                    "runaway" => InjectedFault::Runaway {
                        at: FIXTURE_FAULT_AT,
                    },
                    other => {
                        return Err(format!("--fixture expects panic or runaway, got '{other}'"))
                    }
                });
            }
            "--obs" => {
                let mode = value("--obs")?;
                args.obs = ObsMode::parse(&mode)
                    .ok_or_else(|| format!("--obs expects off, counters or full, got '{mode}'"))?;
            }
            "--obs-out" => args.obs_out = value("--obs-out")?,
            "--out" | "-o" => args.out = value("--out")?,
            "--no-json" => args.write_json = false,
            "--timing-free" => args.timing_free = true,
            "--no-cache" => args.use_cache = false,
            "--list" => args.list = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    validate(&args)?;
    Ok(args)
}

/// Cross-flag validation: mode flags are mutually exclusive, and
/// mode-scoped seeds require their mode.
fn validate(args: &Args) -> Result<(), String> {
    let modes = [
        args.chaos.is_some(),
        args.corrupt.is_some(),
        args.soak.is_some(),
        args.fixture.is_some(),
    ];
    if modes.iter().filter(|&&on| on).count() > 1 {
        return Err("--chaos, --corrupt, --soak and --fixture are mutually exclusive".into());
    }
    if args.experiments.is_some() {
        if args.chaos.is_some() {
            return Err("--experiments cannot be combined with --chaos".into());
        }
        if args.corrupt.is_some() {
            return Err("--experiments cannot be combined with --corrupt".into());
        }
        if args.soak.is_some() {
            return Err("--experiments cannot be combined with --soak".into());
        }
        if args.fixture.is_some() {
            return Err("--experiments cannot be combined with --fixture".into());
        }
    }
    if args.controller.is_some() {
        if args.chaos.is_some() {
            return Err("--controller cannot be combined with --chaos".into());
        }
        if args.corrupt.is_some() {
            return Err("--controller cannot be combined with --corrupt".into());
        }
        if args.soak.is_some() {
            return Err("--controller cannot be combined with --soak".into());
        }
        if args.fixture.is_some() {
            return Err("--controller cannot be combined with --fixture".into());
        }
    }
    if args.chaos_seed.is_some() && args.chaos.is_none() {
        return Err("--chaos-seed requires --chaos".into());
    }
    if args.corrupt_seed.is_some() && args.corrupt.is_none() {
        return Err("--corrupt-seed requires --corrupt".into());
    }
    if args.soak_seed.is_some() && args.soak.is_none() {
        return Err("--soak-seed requires --soak".into());
    }
    if args.soak_cells.is_some() && args.soak.is_none() {
        return Err("--soak-cells requires --soak".into());
    }
    if args.soak.is_some() && args.obs != ObsMode::Off {
        return Err("--soak cannot be combined with --obs (soak cells are unobserved)".into());
    }
    if args.deadline.is_some() {
        if let BatchMode::Fixed(n) = args.batch {
            if n > 1 {
                return Err(
                    "--batch above 1 cannot be combined with --deadline (per-cell \
                     cancellation needs per-cell kernel calls; use --batch 1 or auto)"
                        .into(),
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(budget_s) = args.soak {
        return run_soak_mode(&args, budget_s);
    }

    let selected = if let Some(n) = args.chaos {
        vec![experiments::chaos_sweep(n, args.chaos_seed.unwrap_or(1))]
    } else if let Some(n) = args.corrupt {
        vec![experiments::corrupt_sweep(
            n,
            args.corrupt_seed.unwrap_or(1),
        )]
    } else if let Some(fault) = args.fixture {
        vec![experiments::fixture(fault)]
    } else {
        match experiments::select(args.experiments.as_deref().unwrap_or("all")) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // --controller narrows the E22 arena grid in place; every other
    // experiment is controller-fixed by construction.
    let selected = if let Some(list) = &args.controller {
        let Some(pos) = selected.iter().position(|e| e.id == "e22") else {
            eprintln!(
                "error: --controller only applies to the e22 arena grid; add e22 to --experiments"
            );
            return ExitCode::FAILURE;
        };
        match experiments::e22_subset(list) {
            Ok(sub) => {
                let mut selected = selected;
                selected[pos] = sub;
                selected
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        selected
    };

    if args.list {
        for e in &selected {
            println!("{:<4} {:>3} cells  {}", e.id, e.cells.len(), e.title);
        }
        let total: usize = selected.iter().map(|e| e.cells.len()).sum();
        println!("     {total:>3} cells total");
        return ExitCode::SUCCESS;
    }

    let total_cells: usize = selected.iter().map(|e| e.cells.len()).sum();
    eprintln!(
        "running {} experiments / {} cells on {} workers...",
        selected.len(),
        total_cells,
        args.jobs
    );

    let started = Instant::now();
    let opts = PoolOptions {
        use_cache: args.use_cache,
        obs: args.obs,
        deadline: args.deadline,
        batch: args.batch,
    };
    let (runs, stats) = run_suite_opts(&selected, args.jobs, opts);
    let report = RunReport {
        jobs: args.jobs,
        total_wall: started.elapsed(),
        stats,
        experiments: runs,
    };

    for run in &report.experiments {
        println!("=== {}: {} ===", run.id, run.title);
        println!("{}", run.output.render());
        // Per-cell timeline digests ride below each experiment's table.
        // Printed only when observation is on, so `--obs off` stdout is
        // byte-identical to a build without the obs layer at all.
        if args.obs != ObsMode::Off {
            for cell in &run.cells {
                println!("{}", cell.result.obs.digest(&cell.label));
            }
        }
    }

    // Any cell that did not complete `ok` — panicked, timed out,
    // runaway — is summarized and fails the run, in every mode.
    let failing: Vec<&CellRun> = report
        .experiments
        .iter()
        .flat_map(|r| r.cells.iter())
        .filter(|c| !c.ok())
        .collect();
    if !failing.is_empty() {
        println!("=== failure summary ===");
        let mut t = Table::new(&["cell", "status", "digest", "detail"]);
        for run in &failing {
            let failure = run.failure.as_ref().expect("non-ok cells carry a failure");
            t.row_owned(vec![
                run.label.clone(),
                run.status.name().to_string(),
                failure.digest(),
                failure.detail.clone(),
            ]);
        }
        println!("{}", t.render());
    }

    // In chaos and corrupt mode, shrink every failing cell to a minimal
    // reproducer before deciding the exit code.
    let mut violating_cells = 0usize;
    if args.chaos.is_some() || args.corrupt.is_some() {
        for (exp, run) in selected.iter().zip(&report.experiments) {
            for (cell, cell_run) in exp.cells.iter().zip(&run.cells) {
                if let Some(text) = sweep_failure_report(cell, cell_run, args.corrupt.is_some()) {
                    violating_cells += 1;
                    print!("{text}");
                }
            }
        }
    }

    // Recovery contracts gate every mode: a failed clause anywhere in
    // the grid (E21 carries them by default) fails the run.
    let failed_clauses: Vec<(&CellRun, &ContractVerdict)> = report
        .experiments
        .iter()
        .flat_map(|r| r.cells.iter())
        .flat_map(|c| c.failed_contracts().into_iter().map(move |v| (c, v)))
        .collect();
    if !failed_clauses.is_empty() {
        println!("=== contract failures ===");
        let mut t = Table::new(&["cell", "contract", "detail"]);
        for (run, verdict) in &failed_clauses {
            t.row_owned(vec![
                run.label.clone(),
                verdict.name.to_string(),
                verdict.detail.clone(),
            ]);
        }
        println!("{}", t.render());
    }

    eprintln!(
        "{} cells ({} unique, {} executed, {} cache hits), {:.0} simulated seconds in {:.2} s wall ({:.1} sim-s/s, {:.2e} events/s, jobs={}, arena {} avoided / hw {})",
        stats.total_cells,
        stats.unique_cells,
        stats.executed,
        stats.cache_hits,
        report.sim_seconds(),
        report.total_wall.as_secs_f64(),
        report.sim_rate(),
        report.events_rate(),
        report.jobs,
        stats.allocs_avoided,
        stats.arena_high_water
    );

    if args.obs == ObsMode::Full {
        let jsonl = render_timeline(&report.experiments);
        if let Err(e) = std::fs::write(&args.obs_out, &jsonl) {
            eprintln!("error: writing {}: {e}", args.obs_out);
            return ExitCode::FAILURE;
        }
        eprintln!(
            "timeline ({} events) written to {}",
            jsonl.lines().count(),
            args.obs_out
        );
    }

    if args.write_json {
        let json = render_json(&report, !args.timing_free);
        if let Err(e) = std::fs::write(&args.out, json) {
            eprintln!("error: writing {}: {e}", args.out);
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {}", args.out);
    }

    if violating_cells > 0 {
        let mode = if args.chaos.is_some() {
            "chaos"
        } else {
            "corrupt"
        };
        eprintln!("error: {violating_cells} {mode} cells failed");
        return ExitCode::FAILURE;
    }
    if !failing.is_empty() {
        eprintln!("error: {} cells did not complete ok", failing.len());
        return ExitCode::FAILURE;
    }
    if !failed_clauses.is_empty() {
        eprintln!(
            "error: {} recovery contract clauses failed",
            failed_clauses.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The report for one chaos-sweep (`corrupt == false`) or
/// corruption-sweep cell, or `None` when the cell passed. A chaos cell
/// fails on an invariant violation or a quarantined panic/runaway; a
/// corruption cell also fails on a broken recovery contract. Either
/// way the sweep's schedule is shrunk against its kind's oracle.
fn sweep_failure_report(cell: &Cell, run: &CellRun, corrupt: bool) -> Option<String> {
    let broken = if corrupt {
        run.failed_contracts()
    } else {
        Vec::new()
    };
    if run.ok() && run.result.violations.is_empty() && broken.is_empty() {
        return None;
    }
    let duration = cell.cfg.duration;
    Some(if corrupt {
        let spec = cell
            .cfg
            .corrupt
            .expect("corrupt sweep cells always carry a spec");
        let header = format!(
            "minimal corruption reproducer (seed={} intensity={}",
            spec.seed, spec.intensity
        );
        let schedule = CorruptSchedule::generate(spec, duration);
        failing_cell_report(cell, run, &broken, &schedule, &header)
    } else {
        let spec = cell
            .cfg
            .chaos
            .expect("chaos sweep cells always carry a spec");
        let header = format!(
            "minimal reproducer (seed={} intensity={}",
            spec.seed, spec.intensity
        );
        let schedule = ChaosSchedule::generate(spec, duration);
        failing_cell_report(cell, run, &broken, &schedule, &header)
    })
}

/// Renders a failing cell's status, failure detail, violations and
/// `broken` contract clauses, then `schedule` shrunk against its kind's
/// oracle: `header` completed with the segment counts, the minimal
/// reproducer, and the minimized schedule's timeline digest.
fn failing_cell_report<S: FaultSchedule>(
    cell: &Cell,
    run: &CellRun,
    broken: &[&ContractVerdict],
    schedule: &S,
    header: &str,
) -> String {
    let mut out = format!("FAILING CELL {} [{}]:\n", run.label, run.status.name());
    if let Some(failure) = &run.failure {
        let _ = writeln!(out, "  {}", failure.detail);
    }
    for v in &run.result.violations {
        let _ = writeln!(out, "  {v}");
    }
    for verdict in broken {
        let _ = writeln!(out, "  contract {}: {}", verdict.name, verdict.detail);
    }
    match shrink_cell(cell, schedule) {
        Some(min) => {
            let _ = writeln!(
                out,
                "{header}, {} of {} segments):",
                min.segment_count(),
                schedule.segment_count()
            );
            out.push_str(&min.reproducer());
            // The minimized schedule's event-level story: re-run it with
            // full observability and print the timeline digest.
            let _ = writeln!(out, "{}", violating_timeline(cell, &min));
        }
        None => out.push_str("  (failure did not reproduce under re-run)\n"),
    }
    out
}

/// `--soak SECS`: stream randomized cells until the wall budget
/// expires, then print the merged tallies and per-failure reproducers.
fn run_soak_mode(args: &Args, budget_s: u64) -> ExitCode {
    let opts = SoakOptions {
        budget: Duration::from_secs(budget_s),
        seed: args.soak_seed.unwrap_or(1),
        jobs: args.jobs,
        deadline: args.deadline,
        max_cells: args.soak_cells,
        batch: args.batch,
    };
    eprintln!(
        "soaking for {budget_s}s (seed {}, {} workers)...",
        opts.seed, opts.jobs
    );
    let outcome = run_soak(opts);
    print!("{}", outcome.summary());
    eprintln!(
        "{} soak cells in {} batches, {:.0} simulated seconds in {:.2} s wall ({} failing)",
        outcome.cells,
        outcome.batches,
        outcome.sim_seconds,
        outcome.wall.as_secs_f64(),
        outcome.failures.len()
    );
    if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} soak cells failed", outcome.failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    use ravel_harness::{run_cells, TraceSpec};
    use ravel_net::{ChaosSpec, CorruptSpec};
    use ravel_pipeline::{ContractSpec, Scheme, SessionConfig};
    use ravel_sim::{Dur, Time};

    /// Runs `cell` through the pool and renders its failing-cell report
    /// exactly as the chaos (`corrupt = false`) or corruption sweep
    /// prints it.
    fn report_text(cell: &Cell, corrupt: bool) -> String {
        let run = &run_cells(std::slice::from_ref(cell), 1)[0];
        sweep_failure_report(cell, run, corrupt).expect("the cell fails")
    }

    #[test]
    fn chaos_failing_cell_report_text_is_pinned() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(4);
        cfg.inject = InjectedFault::Panic {
            at: Time::from_secs(1),
        };
        cfg.chaos = Some(ChaosSpec::new(7, 1.0));
        let cell = Cell {
            label: "boom".into(),
            trace: TraceSpec::Constant(3e6),
            cfg,
            contracts: None,
        };
        assert_eq!(
            report_text(&cell, false),
            "FAILING CELL boom [panicked]:\n\
             \x20 injected panic fixture at 1.000000\n\
             minimal reproducer (seed=7 intensity=1, 0 of 6 segments):\n\
             \x20 (empty schedule)\n\
             boom: (session panicked; no timeline)\n\n"
        );
    }

    #[test]
    fn corrupt_failing_cell_report_text_is_pinned() {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(20);
        cfg.record_series = true;
        cfg.corrupt = Some(CorruptSpec::new(3, 0.5));
        let cell = Cell {
            label: "impossible".into(),
            trace: TraceSpec::SuddenDrop {
                pre_bps: 4e6,
                after_bps: 1e6,
                at: Time::from_secs(10),
            },
            cfg,
            contracts: Some(
                ContractSpec {
                    recover_fraction: 4.0,
                    ..ContractSpec::for_drop(Time::from_secs(10), 1e6)
                }
                .with_recover_within(Dur::SECOND),
            ),
        };
        let text = report_text(&cell, true);
        let (head, timeline) = text
            .split_once("== timeline digest: impossible ==\n")
            .expect("the report carries the minimized schedule's timeline");
        assert_eq!(
            head,
            "FAILING CELL impossible [ok]:\n\
             \x20 contract recover-rate: target never reached 4000000 bps after the drop at 10.000000\n\
             minimal corruption reproducer (seed=3 intensity=0.5, 0 of 3 segments):\n\
             \x20 (empty schedule)\n"
        );
        // The digest is long; pin its exact bytes by length and FNV-1a.
        let fnv = timeline.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((timeline.len(), fnv), (2082, 0x3dec_ba74_a381_541a));
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.experiments, None);
        assert_eq!(a.chaos, None);
        assert_eq!(a.chaos_seed, None);
        assert_eq!(a.corrupt, None);
        assert_eq!(a.corrupt_seed, None);
        assert_eq!(a.soak, None);
        assert_eq!(a.soak_seed, None);
        assert_eq!(a.deadline, None);
        assert_eq!(a.fixture, None);
        assert!(a.write_json && a.use_cache && !a.list && !a.help);
    }

    #[test]
    fn parses_chaos_options() {
        let a = parse(&["--chaos", "25", "--chaos-seed", "7", "--jobs", "2"]).unwrap();
        assert_eq!(a.chaos, Some(25));
        assert_eq!(a.chaos_seed, Some(7));
        assert_eq!(a.jobs, 2);
        assert!(!a.timing_free);
        let a = parse(&["--timing-free"]).unwrap();
        assert!(a.timing_free);
    }

    #[test]
    fn malformed_jobs_is_a_clear_error() {
        let e = parse(&["--jobs", "banana"]).unwrap_err();
        assert_eq!(e, "--jobs expects a positive integer");
        let e = parse(&["--jobs", "0"]).unwrap_err();
        assert_eq!(e, "--jobs must be at least 1");
        let e = parse(&["--jobs"]).unwrap_err();
        assert_eq!(e, "--jobs requires a value");
        let e = parse(&["-j", "-3"]).unwrap_err();
        assert_eq!(e, "--jobs expects a positive integer");
    }

    #[test]
    fn malformed_experiments_is_a_clear_error() {
        let e = parse(&["-e"]).unwrap_err();
        assert_eq!(e, "--experiments requires a value");
        // A bogus id parses fine here; `experiments::select` rejects it
        // in main with its own message.
        let a = parse(&["-e", "nope"]).unwrap();
        assert!(experiments::select(a.experiments.as_deref().unwrap()).is_err());
    }

    #[test]
    fn malformed_chaos_is_a_clear_error() {
        let e = parse(&["--chaos", "zero"]).unwrap_err();
        assert_eq!(e, "--chaos expects a positive cell count");
        let e = parse(&["--chaos", "0"]).unwrap_err();
        assert_eq!(e, "--chaos must be at least 1");
        let e = parse(&["--chaos", "5", "--chaos-seed", "x"]).unwrap_err();
        assert_eq!(e, "--chaos-seed expects an unsigned integer");
    }

    #[test]
    fn parses_controller_option() {
        let a = parse(&["--controller", "nada,bbr", "-e", "e22"]).unwrap();
        assert_eq!(a.controller.as_deref(), Some("nada,bbr"));
        let a = parse(&[]).unwrap();
        assert_eq!(a.controller, None);
        let e = parse(&["--controller"]).unwrap_err();
        assert_eq!(e, "--controller requires a value");
        // The list itself is validated by `e22_subset` in main.
        let a = parse(&["--controller", "quic"]).unwrap();
        assert!(experiments::e22_subset(a.controller.as_deref().unwrap()).is_err());
    }

    #[test]
    fn controller_conflicts_with_sweep_modes() {
        for mode in [
            ["--chaos", "5"],
            ["--corrupt", "5"],
            ["--soak", "5"],
            ["--fixture", "panic"],
        ] {
            let e = parse(&["--controller", "nada", mode[0], mode[1]]).unwrap_err();
            assert!(
                e.starts_with("--controller cannot be combined with"),
                "{mode:?}: {e}"
            );
        }
    }

    #[test]
    fn parses_corrupt_options() {
        let a = parse(&["--corrupt", "40", "--corrupt-seed", "9", "--jobs", "4"]).unwrap();
        assert_eq!(a.corrupt, Some(40));
        assert_eq!(a.corrupt_seed, Some(9));
        assert_eq!(a.jobs, 4);
    }

    #[test]
    fn malformed_corrupt_is_a_clear_error() {
        let e = parse(&["--corrupt", "lots"]).unwrap_err();
        assert_eq!(e, "--corrupt expects a positive cell count");
        let e = parse(&["--corrupt", "0"]).unwrap_err();
        assert_eq!(e, "--corrupt must be at least 1");
        let e = parse(&["--corrupt", "5", "--corrupt-seed", "x"]).unwrap_err();
        assert_eq!(e, "--corrupt-seed expects an unsigned integer");
    }

    #[test]
    fn parses_soak_options() {
        let a = parse(&[
            "--soak",
            "30",
            "--soak-seed",
            "9",
            "--soak-cells",
            "256",
            "--deadline",
            "2.5",
        ])
        .unwrap();
        assert_eq!(a.soak, Some(30));
        assert_eq!(a.soak_seed, Some(9));
        assert_eq!(a.soak_cells, Some(256));
        assert_eq!(a.deadline, Some(Duration::from_secs_f64(2.5)));
    }

    #[test]
    fn malformed_soak_cells_are_rejected() {
        let e = parse(&["--soak", "30", "--soak-cells", "many"]).unwrap_err();
        assert_eq!(e, "--soak-cells expects a positive cell count");
        let e = parse(&["--soak", "30", "--soak-cells", "0"]).unwrap_err();
        assert_eq!(e, "--soak-cells must be at least 1");
        let e = parse(&["--soak-cells", "256"]).unwrap_err();
        assert_eq!(e, "--soak-cells requires --soak");
    }

    #[test]
    fn malformed_soak_budgets_are_rejected() {
        let e = parse(&["--soak"]).unwrap_err();
        assert_eq!(e, "--soak requires a value");
        let e = parse(&["--soak", "forever"]).unwrap_err();
        assert_eq!(e, "--soak expects a whole, positive number of seconds");
        let e = parse(&["--soak", "-5"]).unwrap_err();
        assert_eq!(e, "--soak expects a whole, positive number of seconds");
        let e = parse(&["--soak", "2.5"]).unwrap_err();
        assert_eq!(e, "--soak expects a whole, positive number of seconds");
        let e = parse(&["--soak", "0"]).unwrap_err();
        assert_eq!(e, "--soak must be at least 1 second");
    }

    #[test]
    fn parses_batch_modes() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.batch, BatchMode::Auto);
        let a = parse(&["--batch", "auto"]).unwrap();
        assert_eq!(a.batch, BatchMode::Auto);
        let a = parse(&["--batch", "1"]).unwrap();
        assert_eq!(a.batch, BatchMode::Fixed(1));
        let a = parse(&["--batch", "16"]).unwrap();
        assert_eq!(a.batch, BatchMode::Fixed(16));
    }

    #[test]
    fn malformed_batch_is_a_clear_error() {
        let e = parse(&["--batch", "lots"]).unwrap_err();
        assert_eq!(e, "--batch expects a positive integer or 'auto'");
        let e = parse(&["--batch", "0"]).unwrap_err();
        assert_eq!(e, "--batch must be at least 1");
        let e = parse(&["--batch"]).unwrap_err();
        assert_eq!(e, "--batch requires a value");
    }

    #[test]
    fn explicit_batch_conflicts_with_deadline() {
        let e = parse(&["--batch", "8", "--deadline", "2"]).unwrap_err();
        assert!(e.starts_with("--batch above 1 cannot be combined with --deadline"));
        // Batch 1 and auto stay compatible: auto resolves to 1 when a
        // deadline is set.
        assert!(parse(&["--batch", "1", "--deadline", "2"]).is_ok());
        assert!(parse(&["--batch", "auto", "--deadline", "2"]).is_ok());
    }

    #[test]
    fn malformed_deadline_is_rejected() {
        let e = parse(&["--deadline", "soon"]).unwrap_err();
        assert_eq!(e, "--deadline expects seconds, e.g. 2.5");
        let e = parse(&["--deadline", "0"]).unwrap_err();
        assert_eq!(e, "--deadline must be a positive number of seconds");
        let e = parse(&["--deadline", "-1"]).unwrap_err();
        assert_eq!(e, "--deadline must be a positive number of seconds");
        let e = parse(&["--deadline", "inf"]).unwrap_err();
        assert_eq!(e, "--deadline must be a positive number of seconds");
    }

    #[test]
    fn parses_fixture_kinds() {
        let a = parse(&["--fixture", "panic"]).unwrap();
        assert_eq!(
            a.fixture,
            Some(InjectedFault::Panic {
                at: FIXTURE_FAULT_AT
            })
        );
        let a = parse(&["--fixture", "runaway"]).unwrap();
        assert_eq!(
            a.fixture,
            Some(InjectedFault::Runaway {
                at: FIXTURE_FAULT_AT
            })
        );
        let e = parse(&["--fixture", "oom"]).unwrap_err();
        assert_eq!(e, "--fixture expects panic or runaway, got 'oom'");
    }

    #[test]
    fn mode_seeds_require_their_mode() {
        let e = parse(&["--chaos-seed", "7"]).unwrap_err();
        assert_eq!(e, "--chaos-seed requires --chaos");
        let e = parse(&["--corrupt-seed", "7"]).unwrap_err();
        assert_eq!(e, "--corrupt-seed requires --corrupt");
        let e = parse(&["--soak-seed", "7"]).unwrap_err();
        assert_eq!(e, "--soak-seed requires --soak");
    }

    #[test]
    fn conflicting_modes_are_rejected() {
        let e = parse(&["--chaos", "5", "--soak", "10"]).unwrap_err();
        assert_eq!(
            e,
            "--chaos, --corrupt, --soak and --fixture are mutually exclusive"
        );
        let e = parse(&["--soak", "10", "--fixture", "panic"]).unwrap_err();
        assert_eq!(
            e,
            "--chaos, --corrupt, --soak and --fixture are mutually exclusive"
        );
        let e = parse(&["--chaos", "5", "--corrupt", "5"]).unwrap_err();
        assert_eq!(
            e,
            "--chaos, --corrupt, --soak and --fixture are mutually exclusive"
        );
        let e = parse(&["--chaos", "5", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --chaos");
        let e = parse(&["--corrupt", "5", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --corrupt");
        let e = parse(&["--soak", "10", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --soak");
        let e = parse(&["--fixture", "panic", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --fixture");
        let e = parse(&["--soak", "10", "--obs", "full"]).unwrap_err();
        assert_eq!(
            e,
            "--soak cannot be combined with --obs (soak cells are unobserved)"
        );
    }

    #[test]
    fn parses_obs_options() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.obs, ObsMode::Off);
        assert_eq!(a.obs_out, "OBS_timeline.jsonl");
        let a = parse(&["--obs", "counters"]).unwrap();
        assert_eq!(a.obs, ObsMode::Counters);
        let a = parse(&["--obs", "full", "--obs-out", "t.jsonl"]).unwrap();
        assert_eq!(a.obs, ObsMode::Full);
        assert_eq!(a.obs_out, "t.jsonl");
    }

    #[test]
    fn malformed_obs_is_a_clear_error() {
        let e = parse(&["--obs", "loud"]).unwrap_err();
        assert_eq!(e, "--obs expects off, counters or full, got 'loud'");
        let e = parse(&["--obs"]).unwrap_err();
        assert_eq!(e, "--obs requires a value");
        let e = parse(&["--obs-out"]).unwrap_err();
        assert_eq!(e, "--obs-out requires a value");
    }

    #[test]
    fn unknown_arguments_are_rejected_with_usage() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert!(e.starts_with("unknown argument '--frobnicate'"));
        assert!(e.contains("USAGE"));
    }

    #[test]
    fn help_is_a_flag_not_an_exit() {
        let a = parse(&["--help"]).unwrap();
        assert!(a.help);
        let a = parse(&["-h"]).unwrap();
        assert!(a.help);
    }
}
