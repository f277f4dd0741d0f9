//! Process clocks, memory high water, and the host block that decides
//! whether two results may be compared at all.

use std::process::Command;
use std::time::Duration;

use ravel_trace::json::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system CPU time of every
/// thread in the process, at nanosecond resolution (the 10 ms ticks of
/// `/proc/self/stat` are too coarse for sub-second passes).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) this process has consumed.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Process CPU time from `/proc/self/stat` (`utime + stime`, in clock
/// ticks of 10 ms): the coarse independent reading that cross-checks
/// [`process_cpu_time`].
pub fn proc_stat_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 10))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What a result depends on besides the code: where and how it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// The release profile the measured code was compiled with.
    pub profile: String,
    /// Source revision, `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Reads the host block of the running process.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let git_rev = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu_model,
            nproc: ravel_harness::default_jobs(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            profile: release_profile(),
            git_rev,
        }
    }

    /// The host block as JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("profile".into(), Json::Str(self.profile.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
        ])
    }

    /// Parses a host block written by [`Host::to_json`].
    pub fn from_json(json: &Json) -> Option<Host> {
        let s = |k: &str| json.get(k).and_then(Json::as_str).map(str::to_string);
        Some(Host {
            cpu_model: s("cpu_model")?,
            nproc: json.get("nproc")?.as_f64()? as usize,
            rustc: s("rustc")?,
            profile: s("profile")?,
            git_rev: s("git_rev")?,
        })
    }

    /// Why two results cannot be compared, or `None` when they can.
    /// The revision is what a comparison is *about*, so it may differ;
    /// everything else must match exactly.
    pub fn incomparable(&self, other: &Host) -> Option<String> {
        let mut diffs = Vec::new();
        if self.cpu_model != other.cpu_model {
            diffs.push(format!(
                "cpu_model {:?} vs {:?}",
                self.cpu_model, other.cpu_model
            ));
        }
        if self.nproc != other.nproc {
            diffs.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.rustc != other.rustc {
            diffs.push(format!("rustc {:?} vs {:?}", self.rustc, other.rustc));
        }
        if self.profile != other.profile {
            diffs.push(format!("profile {:?} vs {:?}", self.profile, other.profile));
        }
        (!diffs.is_empty()).then(|| diffs.join("; "))
    }
}

/// The optimisation settings this binary was built with. The
/// benchmark's manifest pins fat LTO and one codegen unit, matching the
/// repository's release profile; a debug build says so.
fn release_profile() -> String {
    if cfg!(debug_assertions) {
        "debug (not a release build)".into()
    } else {
        "release, lto=fat, codegen-units=1".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            cpu_model: "Example CPU @ 2.0GHz".into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            profile: "release, lto=fat, codegen-units=1".into(),
            git_rev: "abc".into(),
        }
    }

    #[test]
    fn same_host_other_revision_is_comparable() {
        let mut b = host();
        b.git_rev = "def".into();
        assert_eq!(host().incomparable(&b), None);
    }

    #[test]
    fn any_host_difference_is_not_comparable() {
        let a = host();
        let mut b = host();
        b.nproc = 4;
        assert!(a.incomparable(&b).unwrap().contains("nproc 2 vs 4"));
        let mut c = host();
        c.cpu_model = "Other CPU".into();
        c.rustc = "rustc 1.80.0".into();
        let why = a.incomparable(&c).unwrap();
        assert!(why.contains("cpu_model") && why.contains("rustc"));
        let mut d = host();
        d.profile = "debug (not a release build)".into();
        assert!(a.incomparable(&d).is_some());
    }

    #[test]
    fn host_block_round_trips_through_json() {
        let text = host().to_json().render();
        let parsed = ravel_trace::json::parse(&text).unwrap();
        assert_eq!(Host::from_json(&parsed), Some(host()));
    }

    #[test]
    fn cpu_clocks_advance_and_agree() {
        let (t0, s0) = (process_cpu_time(), proc_stat_cpu_time().unwrap());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (t1, s1) = (process_cpu_time(), proc_stat_cpu_time().unwrap());
        assert!(t1 > t0);
        // The tick clock lags by at most a couple of ticks per reading.
        let fine = (t1 - t0).as_secs_f64();
        let coarse = s1.saturating_sub(s0).as_secs_f64();
        assert!((fine - coarse).abs() < 0.05, "fine {fine} coarse {coarse}");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}

/// One reading of the host's current speed: how long a fixed piece of
/// work took, in wall and CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Wall time of the work.
    pub wall: Duration,
    /// Process CPU time of the work.
    pub cpu: Duration,
}

/// Runs a fixed workload that owes nothing to the code under test on
/// `threads` threads at once — allocation and hash-map churn, a FIFO
/// queue, random reads over a few MiB and float math, the mix the
/// simulator's own hot paths make — and reports how long it took.
pub fn calibrate(threads: usize) -> Calibration {
    fn work(seed: u64) -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let table: Vec<u64> = (0..(1 << 19)).map(|_| next()).collect();
        let mut map: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let mut queue = std::collections::VecDeque::new();
        let mut acc = 0u64;
        let mut f = 0.0f64;
        for i in 0..240_000u64 {
            let r = next();
            let k = r % 4096;
            map.entry(k).or_default().push(i);
            if map.get(&k).is_some_and(|v| v.len() > 8) {
                map.remove(&k);
            }
            queue.push_back(r);
            if queue.len() > 512 {
                acc ^= queue.pop_front().unwrap_or(0);
            }
            acc = acc.wrapping_add(table[(r >> 20) as usize % table.len()]);
            f += ((r % 1000) as f64 + 1.0).ln();
        }
        acc.wrapping_add(f as u64)
    }
    let (w0, c0) = (std::time::Instant::now(), process_cpu_time());
    std::thread::scope(|s| {
        for t in 0..threads.max(1) {
            s.spawn(move || std::hint::black_box(work(t as u64 + 1)));
        }
    });
    Calibration {
        wall: w0.elapsed(),
        cpu: process_cpu_time() - c0,
    }
}
