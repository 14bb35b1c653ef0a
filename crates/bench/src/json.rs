//! The `BENCH_runtime.json` schema, hand-rolled (the workspace is
//! registry-free by policy): one object per `runtime_ops` row as the
//! row's machine-readable line reports it, then the deterministic rows
//! beside their pins. The file is the current snapshot only; git keeps
//! the earlier ones.

use std::fmt::Write as _;

use crate::gate::Pin;
use crate::micro::Report;

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the file: the timed `rows`, the deterministic rows' measured
/// values beside their `pins`, and the hardware parallelism they were
/// measured with.
pub fn render_runtime(
    rows: &[(String, Report)],
    pins: &[(Pin, f64)],
    parallelism: usize,
) -> String {
    let mut buf = String::from("{\n");
    buf.push_str(
        "  \"schema\": \"polar-bench/runtime-ops/v3 rows {row, median_ns, min_ns, max_ns, \
         samples, iters}, pins {row, value, pin, unit}\",\n",
    );
    let _ = writeln!(buf, "  \"parallelism\": {parallelism},");
    buf.push_str("  \"rows\": [\n");
    for (i, (label, r)) in rows.iter().enumerate() {
        let _ = write!(
            buf,
            "    {{\"row\": \"{}\", \"median_ns\": {:.2}, \"min_ns\": {:.2}, \"max_ns\": {:.2}, \
             \"samples\": {}, \"iters\": {}}}",
            json_escape(label),
            r.median_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            r.iters
        );
        buf.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    buf.push_str("  ],\n  \"pins\": [\n");
    for (i, (pin, value)) in pins.iter().enumerate() {
        let _ = write!(
            buf,
            "    {{\"row\": \"{}\", \"value\": {value:.2}, \"pin\": {:.2}, \"unit\": \"{}\"}}",
            json_escape(pin.row),
            pin.value,
            json_escape(pin.unit)
        );
        buf.push_str(if i + 1 < pins.len() { ",\n" } else { "\n" });
    }
    buf.push_str("  ]\n}\n");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::PINS;

    #[test]
    fn the_snapshot_lists_rows_then_pins() {
        let report = Report {
            median_ns: 12.25,
            min_ns: 11.5,
            max_ns: 20.0,
            samples: 20,
            iters: 4096,
        };
        let text = render_runtime(
            &[("member_access/olr_getptr_cached".to_owned(), report)],
            &[(PINS[0], 122.89)],
            2,
        );
        assert!(text.contains(
            "{\"row\": \"member_access/olr_getptr_cached\", \"median_ns\": 12.25, \
             \"min_ns\": 11.50, \"max_ns\": 20.00, \"samples\": 20, \"iters\": 4096}\n  ],"
        ));
        assert!(text.contains(
            "{\"row\": \"session_store/meta_per_live\", \"value\": 122.89, \"pin\": 122.89, \
             \"unit\": \"B\"}\n  ]\n}"
        ));
    }

    #[test]
    fn escaping_survives_hostile_labels() {
        assert_eq!(json_escape("odd\"label\\x"), "odd\\\"label\\\\x");
    }
}
