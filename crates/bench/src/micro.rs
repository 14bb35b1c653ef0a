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
//! by `cargo test` (the bench targets set `test = true`, no `--bench`
//! flag) it executes every body once in *quick mode*, so a bench that
//! no longer runs fails the workspace tests.
//!
//! Every other argument that does not start with `-` is a row filter:
//! it names a group (`alloc_free`) or a row (`alloc_free/olr_malloc_free`),
//! and only the rows under a filter run. `--max-samples=N` caps every
//! row's sample count (the bench gate's short runs). Flags the harness
//! does not know (`--quiet`, …) are ignored. A measured row prints its
//! human line on stderr and one tab-separated line on stdout,
//! `row <label> <median_ns> <min_ns> <max_ns> <samples> <iters>`, which
//! `bench_json` reads.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level bench context (Criterion-shaped).
pub struct Criterion {
    quick: bool,
    filters: Vec<String>,
    max_samples: usize,
    benches_run: usize,
}

impl Criterion {
    /// Build from the process arguments: full measurement when invoked
    /// with `--bench` (what `cargo bench` passes), quick smoke mode
    /// otherwise (what `cargo test` does); arguments not starting with
    /// `-` are row filters.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quick = !args.iter().any(|a| a == "--bench");
        let max_samples = args
            .iter()
            .find_map(|a| a.strip_prefix("--max-samples=")?.parse().ok())
            .unwrap_or(usize::MAX);
        let filters = args.into_iter().filter(|a| !a.starts_with('-')).collect();
        if quick {
            eprintln!("(quick mode: running each bench body once; use `cargo bench` to measure)");
        }
        Criterion { quick, filters, max_samples, benches_run: 0 }
    }

    /// Whether a filter selects `group` or a row in it: a bench function
    /// with costly setup outside its rows' bodies returns early otherwise.
    pub fn selects(&self, group: &str) -> bool {
        self.filters.is_empty()
            || self.filters.iter().any(|f| under(f, group) || under(group, f))
    }

    /// Whether the row `label` runs: no filter, or one naming it or its
    /// group.
    fn runs(&self, label: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| under(label, f))
    }

    /// A named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        BenchGroup { criterion: self, name: name.into(), sample_size: 20 }
    }

    /// A standalone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        self.run_one(name, 20, f);
    }

    /// Print the closing line (called by [`bench_main!`](crate::bench_main)).
    pub fn final_summary(&self) {
        eprintln!("ran {} benchmarks", self.benches_run);
    }

    fn run_one(&mut self, label: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
        if !self.runs(label) {
            return;
        }
        let sample_size = self.capped(sample_size);
        let mut bencher = Bencher { quick: self.quick, sample_size, report: None };
        f(&mut bencher);
        match bencher.report {
            Some(report) => self.print(label, &report),
            None => eprintln!("{label:<44} (no iter call)"),
        }
    }

    /// A row's sample count under `--max-samples`.
    fn capped(&self, sample_size: usize) -> usize {
        sample_size.min(self.max_samples).max(2)
    }

    fn print(&mut self, label: &str, report: &Report) {
        self.benches_run += 1;
        eprintln!("{label:<44} {report}");
        if !self.quick {
            println!("{}", report.line(label));
        }
    }
}

/// `label` is `prefix` or lies under it (`prefix/...`).
fn under(label: &str, prefix: &str) -> bool {
    label.strip_prefix(prefix).is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
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
        self.criterion.run_one(&label, self.sample_size, |b| f(b, input));
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
        let labels = ids.map(|id| format!("{}/{}", self.name, id.into().label));
        if !labels.iter().any(|label| self.criterion.runs(label)) {
            return;
        }
        let reports =
            measure(self.criterion.quick, self.criterion.capped(self.sample_size), cycle);
        for (label, report) in labels.iter().zip(&reports) {
            self.criterion.print(label, report);
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

/// What one row measured, in nanoseconds per call.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Median over the samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Samples taken.
    pub samples: usize,
    /// Calls per sample.
    pub iters: u64,
}

impl Report {
    /// The row's machine-readable line.
    fn line(&self, label: &str) -> String {
        let Report { median_ns, min_ns, max_ns, samples, iters } = self;
        format!("row\t{label}\t{median_ns:.3}\t{min_ns:.3}\t{max_ns:.3}\t{samples}\t{iters}")
    }

    /// Read a row's label and report back from its machine-readable line;
    /// `None` for any other line.
    pub fn parse(line: &str) -> Option<(String, Report)> {
        let mut fields = line.split('\t');
        if fields.next()? != "row" {
            return None;
        }
        let label = fields.next()?.to_owned();
        let mut number = || fields.next()?.parse::<f64>().ok();
        let (median_ns, min_ns, max_ns) = (number()?, number()?, number()?);
        let (samples, iters) = (number()? as usize, number()? as u64);
        Some((label, Report { median_ns, min_ns, max_ns, samples, iters }))
    }
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
        self.iter_custom(|n| {
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
    /// [`Bencher::iter`].
    pub fn iter_batched<I, T>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> T,
    ) {
        self.iter_custom(|n| {
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

    /// Time `run(n)`, which makes `n` calls and returns the time they
    /// count for: work that needs its own setup per sample, such as
    /// threads that each make `n` calls. Otherwise as [`Bencher::iter`].
    pub fn iter_custom(&mut self, mut run: impl FnMut(u64) -> Duration) {
        let [report] = measure(self.quick, self.sample_size, |n| [run(n)]);
        self.report = Some(report);
    }

    /// True in quick mode, where a body runs once and is not timed: a
    /// body may shrink its input then.
    pub fn quick(&self) -> bool {
        self.quick
    }
}

/// Time the `K` stages `run(n)` reports for `n` calls. In quick mode it
/// runs once; otherwise: warm up with doubling call counts until ~25 ms
/// of wall time went by, size samples to ~10 ms of wall time at the
/// fastest per-call rate a warmup run showed (a run the host stalled
/// cannot shrink every sample), then record `sample_size` samples of
/// each stage. Going by wall time, a sample's cost is bounded whatever
/// `run` reports.
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
    let (mut n, mut spent, mut per_call_ns) = (1u64, Duration::ZERO, f64::INFINITY);
    while spent < Duration::from_millis(25) {
        let t0 = Instant::now();
        run(n);
        let took = t0.elapsed();
        spent += took;
        per_call_ns = per_call_ns.min(took.as_nanos() as f64 / n as f64);
        n = (n * 2).min(1 << 24);
    }
    let iters = ((10e6 / per_call_ns.max(0.1)) as u64).clamp(1, 1 << 24);
    // Measurement.
    let mut samples_ns: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(sample_size));
    for _ in 0..sample_size {
        for (stage, took) in samples_ns.iter_mut().zip(run(iters)) {
            stage.push(took.as_nanos() as f64 / iters as f64);
        }
    }
    samples_ns.map(|mut samples| Report {
        median_ns: median(&mut samples),
        min_ns: samples[0],
        max_ns: *samples.last().expect("sample_size >= 2"),
        samples: samples.len(),
        iters,
    })
}

/// The median of `values` (the mean of the middle two for an even
/// count), sorting them in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_line_reads_back() {
        let report =
            Report { median_ns: 12.25, min_ns: 11.5, max_ns: 20.125, samples: 20, iters: 4096 };
        let line = report.line("member_access/olr_getptr_cached");
        assert_eq!(Report::parse(&line), Some(("member_access/olr_getptr_cached".into(), report)));
        assert_eq!(Report::parse("member_access/x  median 1.0 ns"), None);
    }

    #[test]
    fn a_filter_names_a_group_or_a_row() {
        assert!(under("alloc_free/olr_malloc_free", "alloc_free"));
        assert!(under("alloc_free/olr_malloc_free", "alloc_free/olr_malloc_free"));
        assert!(!under("alloc_free/olr_malloc_free_pooled", "alloc_free/olr_malloc_free"));
        assert!(!under("alloc_free_x/y", "alloc_free"));
    }

    #[test]
    fn the_median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
