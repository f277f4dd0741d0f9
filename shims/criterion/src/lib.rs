//! Vendored stand-in for the subset of the `criterion` 0.5 API this
//! workspace consumes.
//!
//! The build environment has no registry access, so the benches that
//! use Criterion link against this minimal wall-clock harness instead.
//! It mirrors the `Criterion` / `benchmark_group` / `Bencher::iter`
//! surface, `Throughput::Elements` and the `criterion_group!` /
//! `criterion_main!` macros, reporting mean wall-clock time per
//! iteration (and per element when a throughput is set). It does no
//! statistical analysis — numbers are indicative, not
//! publication-grade.

use std::time::{Duration, Instant};

/// Top-level benchmark driver.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Accepted for CLI compatibility; arguments are ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Prints a trailing summary (no-op placeholder).
    pub fn final_summary(&self) {}

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            sample_size: self.default_sample_size,
            throughput: None,
        }
    }
}

/// Work done by one iteration, for per-element reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The iteration processes this many elements.
    Elements(u64),
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a Criterion,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark and prints its mean time per iteration.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iterations: self.sample_size as u64,
            elapsed: Duration::ZERO,
        };
        // One untimed warm-up pass, then the timed samples.
        let mut warmup = Bencher {
            iterations: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut warmup);
        f(&mut b);
        let per_iter = b.elapsed.as_secs_f64() / b.iterations.max(1) as f64;
        let per_elem = match self.throughput {
            Some(Throughput::Elements(n)) if n > 0 => {
                format!(" ({:.1} ns/elem)", per_iter * 1e9 / n as f64)
            }
            _ => String::new(),
        };
        println!(
            "  {name}: {:.3} ms/iter over {} iters{per_elem}",
            per_iter * 1e3,
            b.iterations
        );
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this bencher's iteration count.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// A hint to the optimizer not to fold the value away.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_times() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        let mut runs = 0u64;
        g.sample_size(5).bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        g.finish();
        // 1 warm-up pass + 5 timed samples.
        assert_eq!(runs, 6);
    }
}
