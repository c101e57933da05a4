//! Text and JSON rendering of a lint run, with telemetry-style counters.

use std::fmt::Write as _;

use crate::{names, Violation};
use serde_json::{json, Value};
use telemetry::{CollectingRecorder, Recorder};

/// Everything one `lint check` run produced, ready to render.
#[derive(Debug)]
pub struct Report {
    /// Source files scanned.
    pub files: usize,
    /// Manifests scanned.
    pub manifests: usize,
    /// Total source lines lexed.
    pub lines: usize,
    /// Findings silenced by inline `lint:allow` suppressions.
    pub suppressed: usize,
    /// The kept findings; any one fails the run.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Record this run's counters on a telemetry recorder, mirroring the
    /// engine's counter discipline so lint figures land in the same
    /// dashboards.
    pub fn record(&self, recorder: &CollectingRecorder) {
        recorder.add(names::LINT_FILES, self.files as u64);
        recorder.add(names::LINT_MANIFESTS, self.manifests as u64);
        recorder.add(names::LINT_LINES, self.lines as u64);
        recorder.add(names::LINT_VIOLATIONS, self.violations.len() as u64);
        recorder.add(names::LINT_SUPPRESSED, self.suppressed as u64);
    }

    /// Human-readable report text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for violation in &self.violations {
            let _ = writeln!(
                out,
                "error[{}]: {}\n  --> {}:{}:{}\n   | {}",
                violation.rule,
                violation.message,
                violation.path,
                violation.line,
                violation.column,
                violation.snippet
            );
        }
        let _ = writeln!(
            out,
            "lint: {} files, {} manifests, {} lines; {} findings ({} suppressed)",
            self.files,
            self.manifests,
            self.lines,
            self.violations.len(),
            self.suppressed,
        );
        out
    }

    /// Machine-readable JSON for the CI artifact.
    pub fn render_json(&self) -> Value {
        let recorder = CollectingRecorder::new();
        self.record(&recorder);
        let counters: Vec<Value> = recorder
            .counters()
            .into_iter()
            .map(|(name, value)| {
                json!({
                    "name": name.as_str(),
                    "value": value,
                })
            })
            .collect();
        let violations: Vec<Value> = self
            .violations
            .iter()
            .map(|v| {
                json!({
                    "rule": v.rule,
                    "path": v.path.as_str(),
                    "line": v.line as u64,
                    "column": v.column as u64,
                    "message": v.message.as_str(),
                    "snippet": v.snippet.as_str(),
                })
            })
            .collect();
        json!({
            "violations": Value::Array(violations),
            "counters": Value::Array(counters),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            files: 2,
            manifests: 1,
            lines: 100,
            suppressed: 1,
            violations: vec![Violation {
                rule: "no-panic-in-engine",
                path: "crates/online/src/engine.rs".to_string(),
                line: 7,
                column: 9,
                message: "call to .unwrap()".to_string(),
                snippet: "x.unwrap();".to_string(),
            }],
        }
    }

    #[test]
    fn text_report_names_the_finding() {
        let text = report().render_text();
        assert!(text.contains("error[no-panic-in-engine]"));
        assert!(text.contains("crates/online/src/engine.rs:7:9"));
        assert!(text.contains("1 findings (1 suppressed)"));
    }

    #[test]
    fn counters_follow_the_telemetry_discipline() {
        let recorder = CollectingRecorder::new();
        report().record(&recorder);
        assert_eq!(recorder.counter(names::LINT_FILES), 2);
        assert_eq!(recorder.counter(names::LINT_VIOLATIONS), 1);
        assert_eq!(recorder.counter(names::LINT_SUPPRESSED), 1);
    }

    #[test]
    fn json_report_has_the_failing_set() {
        let value = report().render_json();
        let violations = value.get("violations").and_then(|v| v.as_array()).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].get("rule").and_then(|v| v.as_str()),
            Some("no-panic-in-engine")
        );
    }
}
