//! One run's result: named metrics with units, the upload tally and the
//! correctness checks, printed as a table followed by the one-line JSON
//! object that ends standard output.

use std::fmt::Write as _;

#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Uploads the rounds granted (kept), plus one per correctness check.
    pub attempted: u64,
    /// Granted uploads skipped or lost to a killed client, plus one per
    /// failed correctness check.
    pub failed: u64,
    failed_checks: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one correctness check; a failed one counts as a failed
    /// attempt and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(what.into());
        }
    }

    /// A free-form line printed above the metric table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable table, then the JSON line, to stdout.
    pub fn print(&self, workload: &str) {
        let mut out = String::new();
        let _ = writeln!(out, "workload {workload}");
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for c in &self.failed_checks {
            let _ = writeln!(out, "  CHECK FAILED: {c}");
        }
        print!("{out}");
        println!("{}", self.to_json());
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        r.check(true, "fine");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, "broken");
        r.metric("nan", f64::NAN, "1");
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1"));
    }
}
