//! What a run reports: named metrics with units and sample counts, the
//! operation tally, and every correctness problem found.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Measurements behind the value.
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Context lines printed with the metrics (sample sizes, rates).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|metric| metric.name == name)
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the named
    /// metrics, in the order given. Errors when a named metric is missing.
    pub fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let metric = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !metric.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.value,
                metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_the_named_metrics_in_order() {
        let mut report = Report::default();
        report.metric("b", "s", 0.5, 3);
        report.metric("a", "ms", 1.25, 1);
        report.attempted = 10;
        let json = report.json(&["a", "b"]).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(report.json(&["c"]).is_err());
        report.problem("dropped verdict");
        assert!(report
            .json(&["a"])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
