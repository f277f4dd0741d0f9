//! The three workloads, built as ordinary harness cells, plus the
//! pairing and digest logic every run applies to their results.

use std::collections::HashMap;

use ravel_core::WatchdogConfig;
use ravel_harness::experiments::{self, E22_CONTROLLERS};
use ravel_harness::{
    render_json, BatchMode, Cell, CellRun, ExperimentRun, Output, PoolOptions, PoolStats,
    RunReport, TraceSpec,
};
use ravel_net::{CorruptSpec, ReversePathConfig};
use ravel_pipeline::{Scheme, SessionConfig, SessionResult};
use ravel_sim::{Dur, Time};
use ravel_video::{ContentClass, Resolution};

use crate::stats::PairDelta;

/// Session length of the seeded workloads.
pub const SESSION_LEN: Dur = Dur::secs(40);

/// Baseline/adaptive pairs in the `hd-drop` workload. The warm-up pass
/// runs them all (the paired medians need this many to move little
/// between seeds); timed and traced passes run the first
/// [`HD_DROP_TIMED_PAIRS`], so a run holds enough passes for steady
/// medians.
pub const HD_DROP_PAIRS: u64 = 128;
/// Pairs per timed pass of `hd-drop`.
pub const HD_DROP_TIMED_PAIRS: u64 = 64;

/// Baseline/adaptive pairs in the `lossy-cell` workload, split like
/// `hd-drop`'s. Both counts are multiples of the four controllers, so
/// each gets the same share of every pass.
pub const LOSSY_CELL_PAIRS: u64 = 768;
/// Pairs per timed pass of `lossy-cell`.
pub const LOSSY_CELL_TIMED_PAIRS: u64 = 128;

/// The workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full E1–E22 grid, as `ravel-harness` runs it by default.
    Grid,
    /// Seeded 1080p step drops: the per-packet send path dominates.
    HdDrop,
    /// Seeded lossy LTE-like cells: per-frame and control paths dominate.
    LossyCell,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::HdDrop, Workload::LossyCell];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::HdDrop => "hd-drop",
            Workload::LossyCell => "lossy-cell",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool options: the grid runs exactly like the harness default
    /// (cache on, auto batching); the seeded workloads run one cell per
    /// claim on the allocating per-cell kernel with the cache off.
    pub fn pool_options(self) -> PoolOptions {
        match self {
            Workload::Grid => PoolOptions::default(),
            Workload::HdDrop | Workload::LossyCell => PoolOptions {
                use_cache: false,
                batch: BatchMode::Fixed(1),
                ..PoolOptions::default()
            },
        }
    }

    /// The prefix of [`Workload::groups`] each timed and traced pass
    /// runs: the whole grid, or the first pairs of a seeded workload.
    pub fn timed(self, groups: &[Group]) -> Vec<Group> {
        let pairs = match self {
            Workload::Grid => None,
            Workload::HdDrop => Some(HD_DROP_TIMED_PAIRS),
            Workload::LossyCell => Some(LOSSY_CELL_TIMED_PAIRS),
        };
        groups
            .iter()
            .map(|g| Group {
                id: g.id,
                title: g.title,
                cells: match pairs {
                    Some(p) => g.cells[..(2 * p as usize).min(g.cells.len())].to_vec(),
                    None => g.cells.clone(),
                },
            })
            .collect()
    }

    /// The workload's grid, grouped the way its report is rendered: one
    /// group per experiment for the grid, one group for a seeded
    /// workload. The grid ignores `seed`: its cells are fixed by the
    /// experiment definitions.
    pub fn groups(self, seed: u64) -> Vec<Group> {
        match self {
            Workload::Grid => experiments::all()
                .into_iter()
                .map(|e| Group {
                    id: e.id,
                    title: e.title,
                    cells: e.cells,
                })
                .collect(),
            Workload::HdDrop => vec![Group {
                id: "hd-drop",
                title: "seeded 1080p 10 -> 2.5 Mbps step drops, GCC, RTX",
                cells: hd_drop_cells(seed),
            }],
            Workload::LossyCell => vec![Group {
                id: "lossy-cell",
                title: "seeded 540p LTE-like cells, loss + corruption, four controllers",
                cells: lossy_cell_cells(seed),
            }],
        }
    }
}

/// A named slice of a workload's cells.
pub struct Group {
    /// Report id.
    pub id: &'static str,
    /// Report title.
    pub title: &'static str,
    /// Cells in grid order.
    pub cells: Vec<Cell>,
}

/// SplitMix64: a tiny, fixed generator so the seeded workloads depend
/// only on `--seed`, not on any library RNG's stream layout.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn pair(label: String, trace: TraceSpec, cfg: SessionConfig, adaptive: Scheme) -> [Cell; 2] {
    let mk = |scheme: Scheme| {
        let mut cfg = cfg;
        cfg.scheme = scheme;
        Cell {
            label: format!("{label}/{}", scheme.name()),
            trace,
            cfg,
            contracts: None,
        }
    };
    [mk(Scheme::cc_baseline(adaptive.cc)), mk(adaptive)]
}

/// `hd-drop`: 1080p Sports/Gaming over a 10 → 2.5 Mbps step at a
/// seeded instant in [25 s, 34 s), GCC, no random loss, RTX on.
pub fn hd_drop_cells(seed: u64) -> Vec<Cell> {
    let mut rng = SplitMix(seed ^ 0x4844_2d44_524f_5000);
    let mut cells = Vec::new();
    for i in 0..HD_DROP_PAIRS {
        let content = [ContentClass::Sports, ContentClass::Gaming][(i % 2) as usize];
        let at = Time::from_millis(25_000 + rng.below(9_000));
        let mut cfg = SessionConfig::default_with(Scheme::baseline());
        cfg.content = content;
        cfg.resolution = Resolution::P1080;
        cfg.duration = SESSION_LEN;
        cfg.link.random_loss = 0.0;
        cfg.enable_rtx = true;
        cfg.seed = rng.next() >> 16;
        let trace = TraceSpec::SuddenDrop {
            pre_bps: 10e6,
            after_bps: 2.5e6,
            at,
        };
        cells.extend(pair(
            format!("hd-drop/p{i}/{content}/drop@{}ms", at.as_micros() / 1000),
            trace,
            cfg,
            Scheme::adaptive(),
        ));
    }
    cells
}

/// `lossy-cell`: 540p from 1 Mbps over a seeded LTE-like trace with 3 %
/// forward and 5 % reverse loss, feedback corruption at intensity 0.25
/// with the watchdog armed, RTX and FEC on; the controller rotates over
/// the four arena controllers.
pub fn lossy_cell_cells(seed: u64) -> Vec<Cell> {
    let mut rng = SplitMix(seed ^ 0x4c4f_5353_5943_454c);
    let mut cells = Vec::new();
    for i in 0..LOSSY_CELL_PAIRS {
        let cc = E22_CONTROLLERS[(i % E22_CONTROLLERS.len() as u64) as usize];
        let mut cfg = SessionConfig::default_with(Scheme::baseline());
        cfg.resolution = Resolution::P540;
        cfg.start_rate_bps = 1e6;
        cfg.duration = SESSION_LEN;
        cfg.link.random_loss = 0.03;
        cfg.reverse_path = ReversePathConfig::with_loss(0.05);
        cfg.enable_rtx = true;
        cfg.enable_fec = true;
        cfg.seed = rng.next() >> 16;
        cfg.corrupt = Some(CorruptSpec::new(rng.next() >> 16, 0.25));
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
        let trace = TraceSpec::LteLike {
            seed: rng.next() >> 16,
            len: SESSION_LEN,
        };
        cells.extend(pair(
            format!("lossy-cell/p{i}/{}", cc.cc_name()),
            trace,
            cfg,
            Scheme::cc_adaptive(cc),
        ));
    }
    cells
}

/// Every unique baseline/adaptive pair among `cells`: each adaptive
/// cell whose baseline twin (same cell, adaptive loop removed) is also
/// in the grid, keyed by content address so duplicated grid positions
/// count once. Returns `(baseline index, adaptive index)` pairs.
pub fn pairs(cells: &[Cell]) -> Vec<(usize, usize)> {
    let mut by_key: HashMap<String, usize> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        by_key.entry(cell.canonical_key()).or_insert(i);
    }
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if cell.cfg.scheme.adaptive.is_none() || !seen.insert(cell.canonical_key()) {
            continue;
        }
        let mut twin = cell.clone();
        twin.cfg.scheme = Scheme::cc_baseline(cell.cfg.scheme.cc);
        if let Some(&b) = by_key.get(&twin.canonical_key()) {
            out.push((b, i));
        }
    }
    out
}

/// The paper's comparison for one pair: p95 glass-to-glass latency
/// after the drop on a step-drop trace (over the whole session
/// otherwise), and session-wide mean SSIM.
pub fn pair_delta(cell: &Cell, base: &SessionResult, adpt: &SessionResult) -> PairDelta {
    let end = Time::ZERO + cell.cfg.duration;
    let p95 = |r: &SessionResult| match cell.trace {
        TraceSpec::SuddenDrop { at, .. } | TraceSpec::DropRecover { at, .. } => {
            r.recorder.summarize(at, end).p95_latency_ms
        }
        TraceSpec::Constant(_) | TraceSpec::LteLike { .. } => {
            r.recorder.summarize_all().p95_latency_ms
        }
    };
    let ssim = |r: &SessionResult| r.recorder.summarize_all().mean_ssim;
    PairDelta::new(p95(base), p95(adpt), ssim(base), ssim(adpt))
}

/// The harness report of one pass, grouped like the harness groups it.
pub fn run_report(
    groups: &[Group],
    runs: &[CellRun],
    stats: PoolStats,
    jobs: usize,
    total_wall: std::time::Duration,
) -> RunReport {
    let mut rest = runs;
    let experiments = groups
        .iter()
        .map(|g| {
            let (mine, tail) = rest.split_at(g.cells.len());
            rest = tail;
            ExperimentRun {
                id: g.id,
                title: g.title,
                output: Output::Text(String::new()),
                cells: mine.to_vec(),
            }
        })
        .collect();
    RunReport {
        jobs,
        total_wall,
        stats,
        experiments,
    }
}

/// The worker count the committed grid reference was rendered with.
/// Apart from its `jobs` header the timing-free report is identical at
/// any worker count, so digests always render this value there.
pub const REFERENCE_JOBS: usize = 2;

/// Digest of the timing-free JSON report of `runs` (the results of
/// `groups`' cells, in order), rendered by the harness's own
/// `render_json` exactly as `ravel-harness --jobs 2 --timing-free`
/// writes it. The timing-free rendering reads only the position and
/// content-address counts from the pool statistics, so those are
/// derived here and the schedule-dependent fields left zero.
pub fn timing_free_digest(groups: &[Group], runs: &[CellRun]) -> String {
    let unique: std::collections::HashSet<String> = groups
        .iter()
        .flat_map(|g| g.cells.iter().map(Cell::canonical_key))
        .collect();
    let stats = PoolStats {
        total_cells: runs.len(),
        unique_cells: unique.len(),
        executed: 0,
        cache_hits: 0,
        busy: std::time::Duration::ZERO,
        allocs_avoided: 0,
        arena_high_water: 0,
    };
    let report = run_report(
        groups,
        runs,
        stats,
        REFERENCE_JOBS,
        std::time::Duration::ZERO,
    );
    fnv1a(&render_json(&report, false))
}

/// 64-bit FNV-1a, as 16 hex digits.
pub fn fnv1a(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_workloads_repeat_per_seed_and_differ_across_seeds() {
        let keys =
            |cells: Vec<Cell>| -> Vec<String> { cells.iter().map(Cell::canonical_key).collect() };
        assert_eq!(keys(hd_drop_cells(3)), keys(hd_drop_cells(3)));
        assert_ne!(keys(hd_drop_cells(3)), keys(hd_drop_cells(4)));
        assert_eq!(keys(lossy_cell_cells(3)), keys(lossy_cell_cells(3)));
        assert_ne!(keys(lossy_cell_cells(3)), keys(lossy_cell_cells(4)));
    }

    #[test]
    fn every_seeded_cell_is_in_exactly_one_pair() {
        for cells in [hd_drop_cells(1), lossy_cell_cells(1)] {
            let p = pairs(&cells);
            assert_eq!(p.len() * 2, cells.len());
            for (b, a) in p {
                assert!(cells[b].cfg.scheme.adaptive.is_none());
                assert_eq!(cells[b].cfg.scheme.cc, cells[a].cfg.scheme.cc);
                assert_eq!(cells[b].trace, cells[a].trace);
            }
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(""), "cbf29ce484222325");
        assert_eq!(fnv1a("a"), "af63dc4c8601ec8c");
    }
}
