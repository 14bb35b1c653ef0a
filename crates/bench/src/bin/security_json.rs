//! Machine-readable security scorecard: emits `BENCH_security.json`.
//!
//! Runs the adaptive attacker of `polar_attacks::search` — four attack
//! scenarios × seven defense modes — and writes one JSON entry per
//! campaign:
//!
//! ```json
//! {"scenario": "heap-groom", "mode": "polar", "trials": 160,
//!  "bypasses": 12, "detections": 95, "bypass_rate": 0.075, ...}
//! ```
//!
//! Everything is seed-deterministic: the same binary with the same
//! `--seed` writes byte-identical entries, so the file (the current
//! snapshot only; git keeps the earlier ones) diffs cleanly across
//! commits.
//!
//! `--gate FILE` reruns the reduced (`--quick`) budget at the pinned
//! gate seed and compares each campaign against the pinned row for its
//! (scenario, mode): exit 1 when any mode's bypass rate climbed more
//! than the tolerance above its pin, or its detection rate fell more
//! than the tolerance below. `scripts/check.sh` runs this against
//! `scripts/security_baseline.json`. `--write-pin FILE` produces that
//! pin file.

use std::fmt::Write as _;

use polar_attacks::search::{scorecard, CampaignBudget, CampaignReport};
use polar_bench::security::{parse_sec_entries, write_sec_entries, SecEntry};

/// The seed the CI gate (and its pin file) always runs with — the gate
/// compares like against like.
const GATE_SEED: u64 = 0x5EC5_CA4D;

/// How far a bypass rate may climb above its pin (absolute probability)
/// before the gate fails, and how far a detection rate may fall below.
const TOLERANCE: f64 = 0.10;

fn to_entry(r: &CampaignReport, snapshot: &str, quick: bool) -> SecEntry {
    SecEntry {
        snapshot: snapshot.to_owned(),
        scenario: r.scenario.to_owned(),
        mode: r.mode.label().to_owned(),
        trials: r.trials,
        bypasses: r.bypasses,
        detections: r.detections,
        search_execs: r.search_execs,
        quick,
    }
}

fn run_scorecard(quick: bool, seed: u64, snapshot: &str) -> Vec<SecEntry> {
    let budget = if quick { CampaignBudget::quick() } else { CampaignBudget::full() };
    scorecard(budget, seed)
        .iter()
        .map(|r| to_entry(r, snapshot, quick))
        .collect()
}

/// `--gate FILE`: fail (exit 1) when any (scenario, mode) campaign's
/// bypass rate regressed past its pinned value, or a defense mode's
/// detection rate dropped. Exit 2 when the pin file is unreadable.
fn run_gate(pin_path: &str) -> i32 {
    let text = match std::fs::read_to_string(pin_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gate: cannot read pin file {pin_path}: {e}");
            return 2;
        }
    };
    let pins = parse_sec_entries(&text, "pinned");
    let current = run_scorecard(true, GATE_SEED, "gate");
    let mut failed = false;
    let mut compared = 0usize;
    for e in &current {
        let pin = pins
            .iter()
            .find(|p| p.scenario == e.scenario && p.mode == e.mode);
        let pin = match pin {
            Some(p) => p,
            None => {
                eprintln!(
                    "gate: no pinned entry for {}/{} in {pin_path}, skipping",
                    e.scenario, e.mode
                );
                continue;
            }
        };
        compared += 1;
        let bypass_limit = pin.bypass_rate() + TOLERANCE;
        let detect_floor = (pin.detection_rate() - TOLERANCE).max(0.0);
        let bypass_bad = e.bypass_rate() > bypass_limit;
        let detect_bad = e.detection_rate() < detect_floor;
        let verdict = if bypass_bad || detect_bad { "FAIL" } else { "ok" };
        eprintln!(
            "gate: {}/{}: bypass {:.3} (pinned {:.3}, limit {:.3}), \
             detect {:.3} (pinned {:.3}, floor {:.3}) {verdict}",
            e.scenario,
            e.mode,
            e.bypass_rate(),
            pin.bypass_rate(),
            bypass_limit,
            e.detection_rate(),
            pin.detection_rate(),
            detect_floor,
        );
        if bypass_bad || detect_bad {
            failed = true;
        }
    }
    if compared == 0 {
        eprintln!("gate: nothing to compare against {pin_path}");
        return 2;
    }
    if failed {
        eprintln!("gate: security regression vs {pin_path}");
        1
    } else {
        0
    }
}

fn render(entries: &[SecEntry], quick: bool) -> String {
    let mut buf = String::new();
    buf.push_str("{\n");
    let _ = writeln!(
        buf,
        "  \"schema\": \"polar-bench/security/v1 \
         {{scenario, mode, trials, bypasses, detections, bypass_rate, \
         detection_rate, search_execs}}\","
    );
    let _ = writeln!(buf, "  \"quick\": {quick},");
    buf.push_str("  \"entries\": [\n");
    write_sec_entries(&mut buf, entries);
    buf.push_str("  ]\n}\n");
    buf
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut write_pin: Option<String> = None;
    let mut seed = GATE_SEED;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--gate" => {
                i += 1;
                gate = Some(args[i].clone());
            }
            "--write-pin" => {
                i += 1;
                write_pin = Some(args[i].clone());
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("numeric --seed");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: security_json [--quick] [--seed N] [--out FILE] \
                     [--gate PINFILE] [--write-pin FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(pin) = gate {
        std::process::exit(run_gate(&pin));
    }

    if let Some(path) = write_pin {
        // The pin is always the quick budget at the gate seed: exactly
        // what `--gate` will rerun.
        let entries = run_scorecard(true, GATE_SEED, "pinned");
        std::fs::write(&path, render(&entries, true)).expect("write pin");
        eprintln!("wrote pin {path}");
        return;
    }

    let buf = render(&run_scorecard(quick, seed, "current"), quick);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &buf).expect("write output");
            eprintln!("wrote {path}");
        }
        None => print!("{buf}"),
    }
}
