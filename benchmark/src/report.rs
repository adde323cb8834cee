//! Printing: every metric by name and unit, then the one-line JSON result.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A JSON number with all the digits measured; non-finite values (a ratio
/// whose base was zero) print as 0 so the line stays valid JSON.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result object the driver reads from the last line of stdout.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    out
}

/// One aligned `name value unit` line per metric.
pub fn table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|m| format!("{:width$}  {:>16.4} {}\n", m.name, m.value, m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [
            Metric::new("latency_ms", 1.2034, "ms"),
            Metric::new("bad", f64::NAN, "ratio"),
        ];
        assert_eq!(
            result_json(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
