//! The result of one run: operation counts, named metrics and the checks
//! that guard the outputs.

use crate::probe::json_string;
use std::fmt::Write as _;

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: solves, requests and output checks.
    pub attempted: u64,
    /// Attempted operations that failed, failed checks included.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
}

impl Report {
    /// Record a metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Count one operation; `ok == false` counts it as failed and keeps
    /// `what` for the run's log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `count` operations of which `failed` failed.
    pub fn operations(&mut self, count: u64, failed: u64, what: &str) {
        self.attempted += count;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {count} {what} failed"));
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; a non-finite value
    /// (a quantity the platform could not measure) is written as `null`.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{}{}: {{\"value\": {value}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_string(name),
                json_string(unit)
            );
        }
        out.push('}');
        out
    }

    /// The one-line result object.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_counts_failed_checks() {
        let mut r = Report::default();
        r.metric("total_s", 1.25, "s");
        r.metric("rss", f64::NAN, "bytes");
        r.check(true, String::new);
        r.check(false, || "relres too large".to_string());
        r.operations(10, 0, "solves");
        assert_eq!(
            r.result_json(),
            "{\"correct\": false, \"attempted\": 12, \"failed\": 1, \"metrics\": \
             {\"total_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"rss\": {\"value\": null, \"unit\": \"bytes\"}}}"
        );
        assert_eq!(r.failures(), ["relres too large"]);
    }
}
