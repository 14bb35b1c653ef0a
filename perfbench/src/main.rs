//! The POLaR benchmark: one workload per process, outputs checked, every
//! metric printed by name with its unit, and one JSON result line last.
//!
//! ```text
//! perfbench --workload <session-zipf|handoff-churn|spec-interp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer ledger of a traced run. The exit
//! code is 0 only when every output checked out. See `README.md` beside
//! this package for the metric list.

mod common;
mod handoff;
mod report;
mod session;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metric;
use stats::RoundLatency;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// Where the traced run writes its kept spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(format!(
            ".bench_out/spans-{}-{}.tsv",
            self.workload, self.seed
        ))
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (the `error_rate` base).
    pub attempted: u64,
    /// Operations failed: runtime errors, oracle mismatches, detections
    /// in benign traffic, violated invariants.
    pub failed: u64,
    /// One line per failure kind, printed before the result.
    pub failures: Vec<String>,
    /// Completed ops per second of POLaR rounds.
    pub throughput: f64,
    /// POLaR time over baseline time.
    pub slowdown: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Runtime metadata bytes per live object, after fixed work.
    pub meta_bytes_per_live: f64,
    /// Peak resident set (`VmHWM`), MiB, after fixed work.
    pub peak_rss_mib: Option<f64>,
    /// Per-op latency of the untraced POLaR rounds, round by round.
    pub latency: RoundLatency,
    /// The per-layer metrics of a traced run.
    pub layer: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub summary: Vec<String>,
}

impl Outcome {
    /// Record a failed check; it counts as one failed op.
    pub fn note_failure(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let pct = |i: usize, name: &str| {
        o.latency
            .over_rounds(i)
            .map(|(ns, _)| Metric::new(name, ns / 1_000.0, "us"))
            .ok_or_else(|| format!("{name}: no round has ten latency samples beyond it"))
    };
    let rss = o.peak_rss_mib.ok_or("VmHWM unavailable")?;
    Ok(vec![
        Metric::new("throughput_ops_s", o.throughput, "1/s"),
        pct(0, "p50_us")?,
        pct(1, "p99_us")?,
        pct(2, "p999_us")?,
        Metric::new("slowdown", o.slowdown, "x"),
        Metric::new("setup_s", o.setup_s, "s"),
        Metric::new("peak_rss_mib", rss, "MiB"),
        Metric::new("meta_bytes_per_live", o.meta_bytes_per_live, "B"),
    ])
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "session-zipf" => session::run,
        "handoff-churn" => handoff::run,
        "spec-interp" => spec::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut o = run(&args);
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &o.summary {
        println!("{line}");
    }
    let metrics = if args.trace {
        std::mem::take(&mut o.layer)
    } else {
        match end_to_end(&o) {
            Ok(m) => m,
            Err(e) => {
                o.failures.push(e);
                Vec::new()
            }
        }
    };
    if !args.trace {
        let with = |i| o.latency.over_rounds(i).map_or(0, |(_, n)| n);
        println!(
            "latency: {} samples in {} rounds; percentiles are interquartile means over rounds ({}/{}/{} rounds with ten samples beyond p50/p99/p999)",
            o.latency.samples(),
            o.latency.rounds(),
            with(0),
            with(1),
            with(2)
        );
    }
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {:.3e} ({} failed of {} attempted)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for f in &o.failures {
        println!("FAILED: {f}");
    }
    let correct = o.failed == 0 && o.failures.is_empty();
    let line = report::render(
        correct,
        o.attempted.max(1),
        o.failed.min(o.attempted.max(1)),
        &metrics,
    );
    if let Err(e) = report::parse(&line) {
        eprintln!("perfbench: result line breaks the schema: {e}");
        return ExitCode::from(3);
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
