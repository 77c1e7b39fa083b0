//! Named metrics with units, and the result line the benchmark prints.

use std::fmt::Write as _;

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The metrics as a JSON object of `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values cannot occur in a valid run and
/// are written as 0).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The result line: correctness, operation counts and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_flat_json() {
        let mut m = Metrics::default();
        m.set("op_ms_p50", 1.25, "ms");
        m.set("engine_rounds", 305.0, "count");
        m.set("op_ms_p50", 1.5, "ms");
        assert_eq!(m.get("op_ms_p50"), Some(1.5));
        assert_eq!(
            result_line(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"engine_rounds\": {\"value\": 305, \"unit\": \"count\"}}}"
        );
    }
}
