//! A dependency-free stand-in for the `criterion` benchmark harness,
//! implementing exactly the subset of its API this workspace's benches
//! use. The build environment has no access to a crates.io registry, so
//! the real crate cannot be vendored; this shim keeps `cargo bench`
//! working offline.
//!
//! Differences from real criterion, by design: no statistical analysis,
//! plots, or saved baselines. Each benchmark runs a short warm-up, then
//! `sample_size` timed samples, and prints the per-iteration mean and
//! min/max across samples.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Iterations per timed sample (after calibration bounds it below).
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(20);

/// Prevents the optimizer from discarding a benchmark result.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The benchmark driver handed to every `criterion_group!` function.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 50 }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== group {name} ==");
        BenchmarkGroup {
            name,
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Benchmarks outside any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), self.sample_size, f);
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks a closure under `id`.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    /// Benchmarks a closure parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (report already printed per-benchmark).
    pub fn finish(&mut self) {}
}

/// A `name/parameter` benchmark identifier.
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// An id from a function name and a parameter value.
    pub fn new(name: impl Display, param: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: name.to_string(),
            param: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.name, self.param)
    }
}

/// Collects timing for one benchmark; handed to the user closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` with a fresh un-timed `setup` value per iteration.
    pub fn iter_with_setup<S, R, SF, F>(&mut self, mut setup: SF, mut routine: F)
    where
        SF: FnMut() -> S,
        F: FnMut(S) -> R,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// True when `BENCH_SIM_ONLY` asks to skip wall-clock measurement
/// entirely (the deterministic simulated-time tables are printed by the
/// bench binaries themselves; `scripts/bench_compare.sh` sets this so
/// the regression gate is fast and machine-independent).
fn sim_only() -> bool {
    matches!(std::env::var("BENCH_SIM_ONLY"), Ok(v) if !v.is_empty() && v != "0")
}

/// Calibrates an iteration count, then runs `samples` timed samples and
/// prints mean and min/max per-iteration times.
fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    if sim_only() {
        eprintln!("{label:<44} skipped (BENCH_SIM_ONLY)");
        return;
    }
    // One calibration pass: a single iteration, timed.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let iters = (TARGET_SAMPLE_TIME.as_nanos() / per_iter.as_nanos()).clamp(1, 10_000) as u64;

    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        times.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0_f64, f64::max);
    eprintln!(
        "{label:<44} {:>12}  [{} .. {}]  ({iters} iters x {samples} samples)",
        fmt_seconds(mean),
        fmt_seconds(min),
        fmt_seconds(max),
    );
}

/// Human-scaled time formatting (ns/µs/ms/s).
fn fmt_seconds(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Declares a benchmark group: `criterion_group!(benches, fn_a, fn_b);`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the named groups: `criterion_main!(benches);`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes flags like `--bench`; ignore them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_smoke");
        g.sample_size(3);
        let mut ran = 0u32;
        g.bench_function("count", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("param", 4), &4u32, |b, &n| {
            b.iter_with_setup(
                || vec![0u8; n as usize],
                |v| {
                    ran += 1;
                    v.len()
                },
            )
        });
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("touch", 1000).to_string(), "touch/1000");
    }
}
