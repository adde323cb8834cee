//! The stable benchmark result schema.
//!
//! `BENCH_BASELINE.json` (checked in, the golden file) has this shape:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "mode": "quick",
//!   "results": [
//!     {"scenario": "qindb_write", "metric": "hardware_waf",
//!      "value": 1.18, "unit": "ratio"}
//!   ]
//! }
//! ```
//!
//! Rendering is canonical: results are sorted by `(scenario, metric)`
//! and each result occupies exactly one line, so two renderings compare
//! line by line and `git diff` on the file reads as a per-cell change
//! list. Each value is written with `{:?}`, the shortest form that
//! round-trips, so equal lines mean bit-equal values; NaN and infinities
//! render as `null`.

use serde_json::Value;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Bumped when the shape of the JSON changes incompatibly.
pub const SCHEMA_VERSION: u64 = 2;

/// One measured value: a `(scenario, metric)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Scenario name (e.g. `qindb_write`, `pipeline_round`).
    pub scenario: String,
    /// Metric name within the scenario (e.g. `hardware_waf`).
    pub metric: String,
    /// The value: a pure function of the seed, reproduced bit for bit
    /// by every run.
    pub value: f64,
    /// Unit label (`keys/s`, `ms`, `ratio`, `count`, ...). Informational.
    pub unit: String,
}

impl BenchResult {
    /// The canonical one-line JSON rendering of this result.
    fn to_json_line(&self) -> String {
        Value::Object(vec![
            ("scenario".into(), Value::String(self.scenario.clone())),
            ("metric".into(), Value::String(self.metric.clone())),
            ("value".into(), Value::Number(self.value)),
            ("unit".into(), Value::String(self.unit.clone())),
        ])
        .to_compact_string()
    }
}

/// A full run's results plus the scale they were measured at.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// `"quick"` or `"full"`: the scale of the run, recorded in the
    /// header. Values measured at different scales are not comparable.
    pub mode: String,
    /// All measured cells, in any insertion order; rendering sorts.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// An empty report for `mode`.
    pub fn new(mode: &str) -> Self {
        BenchReport {
            mode: mode.to_string(),
            results: Vec::new(),
        }
    }

    /// Appends one measured cell.
    pub fn push(&mut self, scenario: &str, metric: &str, value: f64, unit: &str) {
        self.results.push(BenchResult {
            scenario: scenario.to_string(),
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Merges another report's results into this one (modes must match).
    pub fn merge(&mut self, other: BenchReport) {
        assert_eq!(self.mode, other.mode, "cannot merge across modes");
        self.results.extend(other.results);
    }

    /// Looks up one cell.
    pub fn get(&self, scenario: &str, metric: &str) -> Option<&BenchResult> {
        self.results
            .iter()
            .find(|r| r.scenario == scenario && r.metric == metric)
    }

    /// Results sorted by `(scenario, metric)` — the canonical order.
    pub fn sorted(&self) -> Vec<&BenchResult> {
        let mut refs: Vec<&BenchResult> = self.results.iter().collect();
        refs.sort_by(|a, b| {
            a.scenario
                .cmp(&b.scenario)
                .then_with(|| a.metric.cmp(&b.metric))
        });
        refs
    }

    /// The canonical JSON rendering: sorted results, one per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(
            out,
            "  \"mode\": {},",
            Value::String(self.mode.clone()).to_compact_string()
        );
        out.push_str("  \"results\": [\n");
        let sorted = self.sorted();
        for (i, r) in sorted.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&r.to_json_line());
            if i + 1 < sorted.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the canonical rendering to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// A human-readable table of the sorted results.
    pub fn render_table(&self) -> String {
        let sorted = self.sorted();
        let wide = sorted
            .iter()
            .map(|r| r.scenario.len() + r.metric.len() + 1)
            .max()
            .unwrap_or(10)
            .max(10);
        let mut out = String::new();
        let _ = writeln!(out, "mode: {}", self.mode);
        for r in sorted {
            let name = format!("{}/{}", r.scenario, r.metric);
            let _ = writeln!(out, "  {name:<wide$}  {:>14.4} {}", r.value, r.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("quick");
        r.push("qindb_write", "hardware_waf", 1.25, "ratio");
        r.push("serve_qps", "p99_ms", 3.5, "ms");
        r.push("qindb_write", "throughput", 12345.0, "keys/s");
        r
    }

    #[test]
    fn rendering_is_sorted_and_line_per_result() {
        let text = sample().to_json();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("scenario")).collect();
        assert_eq!(lines.len(), 3);
        // hardware_waf sorts before throughput within qindb_write, and
        // qindb_write before serve_qps.
        assert!(lines[0].contains("hardware_waf"));
        assert!(lines[1].contains("throughput"));
        assert!(lines[2].contains("serve_qps"));
    }
}
