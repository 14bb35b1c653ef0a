//! The result line: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, printed last on standard output.
//! The binary parses its own line back before printing it, so a schema
//! slip fails the run instead of reaching the reader.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `p99_us` or `runtime.read_field.p50_ns`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The parsed form of a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every output was checked and matched.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Render the result line.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints an f64 with every digit needed to round-trip it.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "0.0".into()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Parse a result line and check its schema: exactly the four top-level
/// keys, `attempted >= 1`, `failed <= attempted`, and every metric an
/// object of exactly a numeric `value` and a string `unit`.
///
/// # Errors
///
/// A description of the first violation.
pub fn parse(line: &str) -> Result<ResultLine, String> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    let top = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing text at byte {}", p.i));
    }
    let Json::Obj(top) = top else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("top-level keys {keys:?}"));
    }
    let Json::Bool(correct) = top[0].1 else {
        return Err("`correct` is not a bool".into());
    };
    let whole = |j: &Json, key: &str| match *j {
        Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("`{key}` is not a whole number")),
    };
    let attempted = whole(&top[1].1, "attempted")?;
    let failed = whole(&top[2].1, "failed")?;
    if attempted == 0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let Json::Obj(ms) = &top[3].1 else {
        return Err("`metrics` is not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in ms {
        let Json::Obj(fields) = m else {
            return Err(format!("metric {name} is not an object"));
        };
        match fields.as_slice() {
            [(v, Json::Num(value)), (u, Json::Str(unit))] if v == "value" && u == "unit" => {
                if metrics
                    .insert(name.clone(), (*value, unit.clone()))
                    .is_some()
                {
                    return Err(format!("metric {name} appears twice"));
                }
            }
            _ => return Err(format!("metric {name} is not {{value, unit}}")),
        }
    }
    Ok(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

/// Just enough JSON for the result line: objects, strings without
/// escapes, numbers and booleans.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') | Some(b'f') => {
                let word: &[u8] = if self.s[self.i] == b't' {
                    b"true"
                } else {
                    b"false"
                };
                if self.s[self.i..].starts_with(word) {
                    self.i += word.len();
                    Ok(Json::Bool(word == b"true"))
                } else {
                    Err(format!("bad literal at byte {}", self.i))
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|n| n.is_finite())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of line".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                return Err(format!("escape at byte {}", self.i));
            }
            self.i += 1;
        }
        let text = String::from_utf8(self.s[start..self.i].to_vec()).map_err(|e| e.to_string())?;
        self.eat(b'"')?;
        Ok(text)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_lines_parse_back() {
        let metrics = [
            Metric::new("p50_us", 1.2034, "us"),
            Metric::new("throughput_ops_s", 812_345.678_9, "1/s"),
            Metric::new("runtime.read_field.p50_ns", 41.0, "ns"),
        ];
        let line = render(true, 1000, 0, &metrics);
        let parsed = parse(&line).expect("schema holds");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics.len(), 3);
        assert_eq!(parsed.metrics["p50_us"], (1.2034, "us".to_string()));
        assert_eq!(parsed.metrics["throughput_ops_s"].0, 812_345.678_9);
        assert_eq!(parsed.metrics["runtime.read_field.p50_ns"].1, "ns");
    }

    #[test]
    fn the_contract_example_parses() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let parsed = parse(line).expect("contract example");
        assert_eq!(parsed.metrics["setup_s"], (0.8127, "s".to_string()));
    }

    #[test]
    fn schema_violations_are_refused() {
        let bad = [
            r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 5, "failed": 6, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"attempted": 1, "correct": true, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"unit": "s", "value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1, "unit": "s"}, "a": {"value": 2, "unit": "s"}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} trailing"#,
        ];
        for line in bad {
            assert!(parse(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn a_failed_run_still_renders_a_valid_line() {
        let line = render(false, 10, 3, &[Metric::new("setup_s", 0.5, "s")]);
        let parsed = parse(&line).expect("schema holds");
        assert!(!parsed.correct);
        assert_eq!(parsed.failed, 3);
    }
}
