//! A tiny wall-clock micro-benchmark timer — the in-tree replacement
//! for Criterion.
//!
//! Deliberately minimal: warm up, calibrate an iteration count per
//! sample, take a handful of samples, report median/min/max. No
//! statistics engine, no HTML reports, no registry dependency. The API
//! keeps Criterion's shape (`Criterion`, `benchmark_group`,
//! `bench_with_input`, `BenchmarkId`, `b.iter(..)`) so bench sources
//! read the same as before the migration.
//!
//! Behavior matches Criterion's harness contract too: a bench binary
//! run by `cargo bench` receives `--bench` and measures for real; run
//! by `cargo test` (no `--bench` flag) it executes every body once in
//! *quick mode*, so benches can't bit-rot without failing the tier-1
//! gate — and the gate stays fast.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level bench context (Criterion-shaped).
pub struct Criterion {
    quick: bool,
    benches_run: usize,
}

impl Criterion {
    /// Build from the process arguments: full measurement when invoked
    /// with `--bench` (what `cargo bench` passes), quick smoke mode
    /// otherwise (what `cargo test` does).
    pub fn from_args() -> Self {
        let quick = !std::env::args().any(|a| a == "--bench");
        if quick {
            eprintln!("(quick mode: running each bench body once; use `cargo bench` to measure)");
        }
        Criterion { quick, benches_run: 0 }
    }

    /// A named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        BenchGroup { criterion: self, name: name.into(), sample_size: 20 }
    }

    /// A standalone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        let quick = self.quick;
        self.run_one(name, 20, quick, f);
    }

    /// Print the closing line (called by [`bench_main!`](crate::bench_main)).
    pub fn final_summary(&self) {
        eprintln!("ran {} benchmarks", self.benches_run);
    }

    fn run_one(&mut self, label: &str, sample_size: usize, quick: bool, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher { quick, sample_size, report: None };
        f(&mut bencher);
        self.benches_run += 1;
        match bencher.report {
            Some(report) => eprintln!("{label:<44} {report}"),
            None => eprintln!("{label:<44} (no iter call)"),
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample settings.
pub struct BenchGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchGroup<'_> {
    /// Samples per benchmark (quick mode ignores this).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmark a closure under `id`.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, mut f: impl FnMut(&mut Bencher)) {
        self.bench_with_input(id, &(), |b, ()| f(b))
    }

    /// Benchmark a closure that borrows a fixed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let label = format!("{}/{}", self.name, id.into().label);
        let quick = self.criterion.quick;
        self.criterion.run_one(&label, self.sample_size, quick, |b| f(b, input));
    }

    /// Benchmark the two stages of one cycle as two rows, `ids[0]` and
    /// `ids[1]`: `cycle(n)` runs `n` cycles and returns the time each
    /// stage took over them. The stages alternate within every sample
    /// (ABAB…), so both rows are measured in the same host state, and a
    /// drift between samples moves both rather than their ratio.
    pub fn bench_stages(
        &mut self,
        ids: [impl Into<BenchmarkId>; 2],
        cycle: impl FnMut(u64) -> [Duration; 2],
    ) {
        let quick = self.criterion.quick;
        let reports = measure(quick, self.sample_size, cycle);
        for (id, report) in ids.into_iter().zip(reports) {
            let label = format!("{}/{}", self.name, id.into().label);
            self.criterion.benches_run += 1;
            eprintln!("{label:<44} {report}");
        }
    }

    /// End the group (kept for API compatibility; prints nothing).
    pub fn finish(self) {}
}

/// A benchmark identifier (Criterion-shaped).
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function/parameter`-style id.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{}/{}", function.into(), parameter) }
    }

    /// Id carrying only a parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId { label: label.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Passed to each bench body; [`iter`](Bencher::iter) does the timing.
pub struct Bencher {
    quick: bool,
    sample_size: usize,
    report: Option<Report>,
}

struct Report {
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
    iters: u64,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {} (min {}, max {}; {}×{} iters)",
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.max_ns),
            self.samples,
            self.iters
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

impl Bencher {
    /// Time the closure. In quick mode it runs exactly once (smoke
    /// test); otherwise: warm up ~25 ms, size samples to ~10 ms each,
    /// then record `sample_size` samples.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        self.measure(|n| {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t0.elapsed()
        });
    }

    /// Time `routine` alone on inputs `setup` builds untimed, with one
    /// clock read pair per call, so it suits routines well above the
    /// clock's own cost (tens of nanoseconds). Otherwise as
    /// [`Bencher::iter`], the sample sizing going by the routine's time.
    pub fn iter_batched<I, T>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> T,
    ) {
        self.measure(|n| {
            let mut timed = Duration::ZERO;
            for _ in 0..n {
                let input = setup();
                let t0 = Instant::now();
                black_box(routine(input));
                timed += t0.elapsed();
            }
            timed
        });
    }

    /// The body of [`Bencher::iter`]: `run(n)` makes `n` calls and
    /// returns the time they count for.
    fn measure(&mut self, mut run: impl FnMut(u64) -> Duration) {
        let [report] = measure(self.quick, self.sample_size, |n| [run(n)]);
        self.report = Some(report);
    }
}

/// Time the `K` stages `run(n)` reports for `n` calls. In quick mode it
/// runs once; otherwise: warm up ~25 ms, size samples to ~10 ms of all
/// stages together, then record `sample_size` samples of each stage.
fn measure<const K: usize>(
    quick: bool,
    sample_size: usize,
    mut run: impl FnMut(u64) -> [Duration; K],
) -> [Report; K] {
    if quick {
        run(1);
        return std::array::from_fn(|_| Report {
            median_ns: 0.0,
            min_ns: 0.0,
            max_ns: 0.0,
            samples: 1,
            iters: 1,
        });
    }
    // Warmup + calibration.
    let warmup = Duration::from_millis(25);
    let (mut spent, mut warm_iters) = (Duration::ZERO, 0u64);
    while spent < warmup || warm_iters < 3 {
        spent += run(1).iter().sum::<Duration>();
        warm_iters += 1;
    }
    let per_iter = spent.as_nanos() as f64 / warm_iters as f64;
    let iters = ((10e6 / per_iter.max(0.1)) as u64).clamp(1, 1_000_000);
    // Measurement.
    let mut samples_ns: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(sample_size));
    for _ in 0..sample_size {
        for (stage, took) in samples_ns.iter_mut().zip(run(iters)) {
            stage.push(took.as_nanos() as f64 / iters as f64);
        }
    }
    samples_ns.map(|mut samples| {
        samples.sort_by(|a, b| a.total_cmp(b));
        Report {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            max_ns: *samples.last().expect("sample_size >= 2"),
            samples: samples.len(),
            iters,
        }
    })
}

/// Bundle bench functions into one named group runner (the analogue of
/// `criterion_group!`).
#[macro_export]
macro_rules! bench_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::micro::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `fn main` for a bench binary (the analogue of
/// `criterion_main!`).
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::micro::Criterion::from_args();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}
