//! Runs `runtime_ops`, the one definition of every runtime bench row, and
//! records its rows or gates them against a git revision.
//!
//! `bench_json [--out FILE]` builds this tree's `runtime_ops`, runs every
//! row (`--bench`), measures the two deterministic rows the gate pins, and
//! writes `BENCH_runtime.json` to FILE (stdout without `--out`).
//!
//! `bench_json --gate REV` is the regression gate (`scripts/check.sh`
//! runs `--gate HEAD`; while a change is uncommitted, HEAD is its
//! parent). It extracts REV with `git archive` into
//! `.bench_build/ab/<sha>` and overlays this tree's `crates/bench`, so
//! both sides time the same row code and only the libraries differ. It
//! builds both trees' `runtime_ops` (REV's build stays cached under its
//! sha; other shas' extractions are removed), times every gated row in
//! pairs of short runs of the two binaries, interleaved ABBA, and judges
//! each row on the median per-pair ratio (`polar_bench::gate`). Exit 1
//! when a row fails. Exit 2 when a command it needs fails, which is no
//! verdict on speed: the gate did not run. The usual cause is a base
//! build that fails because this tree's `crates/bench` calls an API REV
//! lacks.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use polar_bench::gate::{mt4_over_mt1, RatioVerdict, GATED, MT, MT4_OVER_MT1, PINS, SAMPLES};
use polar_bench::json::render_runtime;
use polar_bench::micro::Report;
use polar_bench::{bench_config, probe_class, session_bench_config};
use polar_runtime::{LayoutSource, ObjectRuntime, RandomizeMode};
use polar_workloads::session_store::run_session_store;

/// A base reading this far above the row's fastest one was taken in the
/// host's slow state (the two states are about 2× apart).
const SLOW_STATE: f64 = 1.3;

fn die(msg: &str) -> ! {
    eprintln!("bench_json: {msg}");
    std::process::exit(2)
}

/// Run `cmd` and return its stdout; a failure to start or a nonzero exit
/// ends the run.
fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd
        .output()
        .unwrap_or_else(|e| die(&format!("{cmd:?}: {e}")));
    if !out.status.success() {
        die(&format!("{cmd:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).unwrap_or_else(|_| die(&format!("{cmd:?}: output not UTF-8")))
}

/// Build `tree`'s `runtime_ops` into `tree/target` and return the
/// executable's path.
fn build_runtime_ops(tree: &Path) -> PathBuf {
    let json = stdout_of(
        Command::new("cargo")
            .current_dir(tree)
            .env("CARGO_TARGET_DIR", tree.join("target"))
            .args(["bench", "--offline", "--no-run", "--message-format=json"])
            .args(["-p", "polar-bench", "--bench", "runtime_ops"])
            .stderr(Stdio::inherit()),
    );
    const KEY: &str = "\"executable\":\"";
    json.lines()
        .filter(|line| line.contains("\"name\":\"runtime_ops\""))
        .find_map(|line| {
            let path = &line[line.find(KEY)? + KEY.len()..];
            Some(PathBuf::from(&path[..path.find('"')?]))
        })
        .unwrap_or_else(|| {
            die(&format!(
                "no runtime_ops executable built in {}",
                tree.display()
            ))
        })
}

/// `rev`'s tree under `.bench_build/ab/<sha>` with this tree's
/// `crates/bench` laid over it. The extraction is kept and every other
/// sha's is removed; the overlay is copied afresh with its mtimes, so an
/// unchanged one rebuilds nothing.
fn base_tree(root: &Path, rev: &str) -> PathBuf {
    let sha = stdout_of(
        Command::new("git")
            .current_dir(root)
            .args(["rev-parse", "--verify", &format!("{rev}^{{commit}}")])
            .stderr(Stdio::inherit()),
    );
    let ab = root.join(".bench_build/ab");
    let tree = ab.join(sha.trim());
    if !tree.exists() {
        for entry in std::fs::read_dir(&ab).into_iter().flatten().flatten() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
        let partial = tree.with_extension("partial");
        let _ = std::fs::remove_dir_all(&partial);
        std::fs::create_dir_all(&partial).unwrap_or_else(|e| die(&format!("{partial:?}: {e}")));
        let mut archive = Command::new("git")
            .current_dir(root)
            .args(["archive", "--format=tar", sha.trim()])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| die(&format!("git archive: {e}")));
        stdout_of(
            Command::new("tar")
                .arg("-x")
                .arg("-C")
                .arg(&partial)
                .stdin(archive.stdout.take().expect("piped stdout")),
        );
        if !archive.wait().is_ok_and(|status| status.success()) {
            die(&format!("git archive {} failed", sha.trim()));
        }
        std::fs::rename(&partial, &tree).unwrap_or_else(|e| die(&format!("{tree:?}: {e}")));
    }
    let _ = std::fs::remove_dir_all(tree.join("crates/bench"));
    stdout_of(
        Command::new("cp")
            .arg("-Rp")
            .arg(root.join("crates/bench"))
            .arg(tree.join("crates")),
    );
    tree
}

/// One short run of `row` in `bin`: the row's median, ns.
fn time_row(bin: &Path, row: &str) -> f64 {
    let out = stdout_of(
        Command::new(bin)
            .args(["--bench", &format!("--max-samples={SAMPLES}"), row])
            .stderr(Stdio::null()),
    );
    out.lines()
        .filter_map(Report::parse)
        .find(|(label, _)| label == row)
        .map(|(_, report)| report.median_ns)
        .unwrap_or_else(|| die(&format!("{} reported no row {row}", bin.display())))
}

/// The deterministic rows' values, in `PINS` order, to the pins' two
/// decimals: the session store's metadata bytes per live session at full
/// scale, and the pooled/derived metadata-byte ratio after 1,020,001
/// malloc/free pairs of the probe class. Under churn the pooled interner
/// keeps absorbing fresh plans while the derived one is capped at the
/// class's `n!` layouts, so the ratio is only reproducible by churning
/// the same amount.
fn measure_pins() -> [f64; 2] {
    let session = run_session_store(RandomizeMode::per_allocation(), session_bench_config(false));
    let info = probe_class();
    let churned = |layout: LayoutSource| {
        let mut config = bench_config();
        config.layout = layout;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        for _ in 0..1_020_001 {
            let a = rt.olr_malloc(&info).expect("alloc");
            rt.olr_free(a).expect("free");
        }
        rt.estimated_metadata_bytes() as f64
    };
    let ratio = churned(LayoutSource::Pooled) / churned(LayoutSource::Derived);
    [session.metadata_bytes_per_live, ratio].map(|v| (v * 100.0).round() / 100.0)
}

fn gate(root: &Path, rev: &str) -> i32 {
    let started = Instant::now();
    eprintln!("gate: building {rev} with this tree's crates/bench; if that fails, the gate gives no verdict (exit 2)");
    let base = build_runtime_ops(&base_tree(root, rev));
    let head = build_runtime_ops(root);
    let mut failed = false;
    let mut changed_state = Vec::new();
    let mut mt = [Vec::new(), Vec::new()];
    for &(row, pairs) in GATED {
        let pairs: Vec<(f64, f64)> = (0..pairs)
            .map(|i| {
                if i % 2 == 0 {
                    let b = time_row(&base, row);
                    (b, time_row(&head, row))
                } else {
                    let h = time_row(&head, row);
                    (time_row(&base, row), h)
                }
            })
            .collect();
        let verdict = RatioVerdict::of(&pairs);
        let fastest = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let slowest = pairs.iter().map(|p| p.0).fold(0.0, f64::max);
        if slowest > fastest * SLOW_STATE {
            changed_state.push(row);
        }
        eprintln!(
            "gate: {row}: head/base {:.3} [{:.3}, {:.3}] over {} pairs; base {fastest:.1}–{slowest:.1} ns {}",
            verdict.median,
            verdict.low,
            verdict.high,
            pairs.len(),
            if verdict.fails() { "FAIL" } else { "ok" }
        );
        if verdict.fails() {
            eprintln!("gate: {row}: pairs (base, head) ns: {pairs:.1?}");
        }
        failed |= verdict.fails();
        if let Some(i) = MT.iter().position(|&r| r == row) {
            mt[i] = pairs;
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads >= 4 {
        let ratio = mt4_over_mt1(&mt[0], &mt[1]);
        let fails = ratio > MT4_OVER_MT1;
        eprintln!(
            "gate: magazine scaling: head {} over {} {ratio:.3} (limit {MT4_OVER_MT1}) {}",
            MT[1],
            MT[0],
            if fails { "FAIL" } else { "ok" }
        );
        failed |= fails;
    } else {
        eprintln!(
            "gate: magazine scaling: this machine detects {threads} hardware threads < 4, skipping the {} <= {MT4_OVER_MT1} x {} check",
            MT[1], MT[0]
        );
    }
    for (pin, value) in PINS.into_iter().zip(measure_pins()) {
        let worse = if pin.lower_is_better {
            "above"
        } else {
            "below"
        };
        eprintln!(
            "gate: {}: {value:.2} {} (pinned {:.2}, fails {worse}) {}",
            pin.row,
            pin.unit,
            pin.value,
            if pin.fails(value) { "FAIL" } else { "ok" }
        );
        failed |= pin.fails(value);
    }
    if changed_state.is_empty() {
        eprintln!("gate: host states: one (every row's base readings within {SLOW_STATE}x)");
    } else {
        eprintln!(
            "gate: host states: fast and slow (base readings over {SLOW_STATE}x apart in {})",
            changed_state.join(", ")
        );
    }
    eprintln!(
        "gate: {:.0} s against {rev}",
        started.elapsed().as_secs_f64()
    );
    i32::from(failed)
}

fn record(root: &Path, out: Option<&str>) {
    let bin = build_runtime_ops(root);
    let rows: Vec<(String, Report)> =
        stdout_of(Command::new(&bin).arg("--bench").stderr(Stdio::inherit()))
            .lines()
            .filter_map(Report::parse)
            .collect();
    let pins: Vec<_> = PINS.into_iter().zip(measure_pins()).collect();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = render_runtime(&rows, &pins, parallelism);
    match out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root =
        PathBuf::from(stdout_of(Command::new("git").args(["rev-parse", "--show-toplevel"])).trim());
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--gate", rev] => std::process::exit(gate(&root, rev)),
        [] => record(&root, None),
        ["--out", path] => record(&root, Some(path)),
        _ => die("usage: bench_json [--out FILE] | bench_json --gate REV"),
    }
}
