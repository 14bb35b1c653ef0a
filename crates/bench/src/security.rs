//! The `BENCH_security.json` schema: adaptive-attack scorecard rows,
//! hand-rolled JSON in/out (the workspace is registry-free by policy).
//!
//! One row per (scenario × mode) campaign: how often the evolved attack
//! tape bypassed the defense over the evaluation replays, and how often
//! the runtime detected it. Rows are seed-deterministic — the same
//! binary with the same seed writes byte-identical rows — so the file
//! diffs cleanly and `scripts/check.sh` can gate on regressions.

use std::fmt::Write as _;

use crate::json::json_escape;

/// One campaign row of `BENCH_security.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SecEntry {
    /// Which run produced this row: `"current"`, or `"pinned"` in the
    /// gate's pin file.
    pub snapshot: String,
    /// Attack scenario (`heap-groom`, `misaligned-probe`, `type-confuse`).
    pub scenario: String,
    /// Defense mode label (`native`, `static-olr`, `polar`, …).
    pub mode: String,
    /// Evaluation replays the campaign's best tape was run for.
    pub trials: u64,
    /// Replays that bypassed the defense (hijack / secret recovery).
    pub bypasses: u64,
    /// Replays the runtime detected and terminated.
    pub detections: u64,
    /// Search executions the tape was evolved with.
    pub search_execs: u64,
    /// True when the row came from a `--quick` (reduced-budget) run.
    pub quick: bool,
}

impl SecEntry {
    /// Bypass probability over the evaluation replays.
    pub fn bypass_rate(&self) -> f64 {
        self.bypasses as f64 / self.trials.max(1) as f64
    }

    /// Detection probability over the evaluation replays.
    pub fn detection_rate(&self) -> f64 {
        self.detections as f64 / self.trials.max(1) as f64
    }
}

/// Serialize entries as the `entries` array body (one object per line).
pub fn write_sec_entries(buf: &mut String, entries: &[SecEntry]) {
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            buf,
            "    {{\"snapshot\": \"{}\", \"scenario\": \"{}\", \"mode\": \"{}\", \
             \"trials\": {}, \"bypasses\": {}, \"detections\": {}, \
             \"bypass_rate\": {:.6}, \"detection_rate\": {:.6}, \
             \"search_execs\": {}, \"quick\": {}}}",
            json_escape(&e.snapshot),
            json_escape(&e.scenario),
            json_escape(&e.mode),
            e.trials,
            e.bypasses,
            e.detections,
            e.bypass_rate(),
            e.detection_rate(),
            e.search_execs,
            e.quick
        );
        buf.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
}

/// Parse entries out of a file `security_json` previously wrote. Only
/// the flat per-entry objects are read; anything else (the schema
/// header, derived rates) is ignored or recomputed.
pub fn parse_sec_entries(text: &str, default_snapshot: &str) -> Vec<SecEntry> {
    let mut out = Vec::new();
    for obj in text.split('{').skip(1) {
        let obj = match obj.split('}').next() {
            Some(o) => o,
            None => continue,
        };
        let field = |key: &str| -> Option<String> {
            let pat = format!("\"{key}\":");
            let rest = &obj[obj.find(&pat)? + pat.len()..];
            let rest = rest.trim_start();
            if let Some(stripped) = rest.strip_prefix('"') {
                Some(stripped.split('"').next()?.to_owned())
            } else {
                Some(
                    rest.split(|c: char| c == ',' || c == '}')
                        .next()?
                        .trim()
                        .to_owned(),
                )
            }
        };
        let (scenario, mode) = match (field("scenario"), field("mode")) {
            (Some(s), Some(m)) => (s, m),
            _ => continue,
        };
        let trials: u64 = match field("trials").and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => continue,
        };
        out.push(SecEntry {
            snapshot: field("snapshot").unwrap_or_else(|| default_snapshot.to_owned()),
            scenario,
            mode,
            trials,
            bypasses: field("bypasses").and_then(|v| v.parse().ok()).unwrap_or(0),
            detections: field("detections").and_then(|v| v.parse().ok()).unwrap_or(0),
            search_execs: field("search_execs").and_then(|v| v.parse().ok()).unwrap_or(0),
            quick: field("quick").is_some_and(|v| v == "true"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(snapshot: &str, scenario: &str, bypasses: u64, quick: bool) -> SecEntry {
        SecEntry {
            snapshot: snapshot.to_owned(),
            scenario: scenario.to_owned(),
            mode: "polar".to_owned(),
            trials: 48,
            bypasses,
            detections: 10,
            search_execs: 120,
            quick,
        }
    }

    #[test]
    fn entries_round_trip_through_json() {
        let entries = vec![
            row("pinned", "heap-groom", 3, false),
            row("current", "type-confuse", 0, true),
        ];
        let mut buf = String::new();
        write_sec_entries(&mut buf, &entries);
        let parsed = parse_sec_entries(&buf, "fallback");
        assert_eq!(parsed, entries);
    }

    #[test]
    fn rates_are_derived_not_trusted() {
        // A hand-edited bypass_rate in the file cannot survive a round
        // trip: rates come from the counts.
        let text = "{\"snapshot\": \"x\", \"scenario\": \"s\", \"mode\": \"m\", \
                    \"trials\": 10, \"bypasses\": 5, \"detections\": 0, \
                    \"bypass_rate\": 0.999999, \"detection_rate\": 0.0, \
                    \"search_execs\": 1, \"quick\": false}";
        let parsed = parse_sec_entries(text, "x");
        assert_eq!(parsed.len(), 1);
        assert!((parsed[0].bypass_rate() - 0.5).abs() < 1e-9);
    }
}
