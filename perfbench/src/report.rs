//! The run's output: a human-readable table, a diagnostics record, and — as the last
//! line of stdout — one JSON result object:
//!
//! ```text
//! {"correct": true, "attempted": 900, "failed": 0, "metrics": {"op_p50_ms": {"value": 6.41, "unit": "ms"}}}
//! ```
//!
//! The writer and a small strict parser live together so a self-test can round-trip
//! the line exactly as it is printed.

use std::collections::BTreeMap;

/// One named, unit-carrying measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`op_p50_ms`, `host.get_ms_p50`, ...).
    pub name: String,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Samples behind the value (ops, probe repetitions, or rounds).
    pub samples: usize,
    /// Free-form provenance shown in the table (e.g. the tail percentile used).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name: name.to_string(), unit, value, samples, note: String::new() }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The fields of the final result line.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// Every op's output matched the expected bytes and no op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or returned wrong bytes.
    pub failed: u64,
    /// `(value, unit)` by metric name.
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Render the final result line. Non-finite values cannot be written as JSON; they
/// are an internal error of the harness.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(&m.name), m.value, quote(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The table printed above the result: one metric per line with unit, sample count
/// and note.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!(
            "{:<36} {:>16.6} {:<6} n={:<6} {}\n",
            m.name, m.value, m.unit, m.samples, m.note
        ));
    }
    out
}

/// Parse a result line back (self-tests, and anyone post-processing runs).
pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let value = Parser { s: line.as_bytes(), i: 0 }.document()?;
    let Json::Object(top) = value else { return Err("result is not an object".into()) };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let Some(Json::Bool(correct)) = top.get("correct") else {
        return Err("correct is not a bool".into());
    };
    let count = |k: &str| match top.get(k) {
        Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(format!("{k} is not a whole number")),
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let Some(Json::Object(raw)) = top.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in raw {
        let Json::Object(m) = m else { return Err(format!("{name} is not an object")) };
        match (m.get("value"), m.get("unit"), m.len()) {
            (Some(Json::Number(v)), Some(Json::String(u)), 2) => {
                metrics.insert(name.clone(), (*v, u.clone()));
            }
            _ => return Err(format!("{name} must have exactly a numeric value and a unit")),
        }
    }
    Ok(ResultLine { correct: *correct, attempted, failed, metrics })
}

/// JSON string literal for `s` (metric names and units are plain ASCII; escape the
/// two characters that could break the literal anyway).
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Object(BTreeMap<String, Json>),
}

/// A strict parser for the subset the result line uses: objects, strings without
/// escapes other than `\"` and `\\`, numbers and booleans.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn document(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i != self.s.len() {
            return Err(format!("trailing input at {}", self.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if map.insert(key.clone(), v).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    match self.s.get(self.i + 1) {
                        Some(&c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at {}", self.i)),
                    }
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn boolean(&mut self) -> Result<Json, String> {
        for (word, v) in [("true", true), ("false", false)] {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(Json::Bool(v));
            }
        }
        Err(format!("bad literal at {}", self.i))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number {text:?} at {start}"))
    }
}
