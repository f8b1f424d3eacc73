//! The benchmark's result: named metrics with units, printed as an
//! aligned table for people and, on the last line, as one JSON object.

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// A work count that must repeat exactly across runs of one seed (as
    /// opposed to a timing).
    pub exact: bool,
}

impl Metric {
    /// A timing or other measured value.
    pub fn measured(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            exact: false,
        }
    }

    /// A deterministic work count.
    pub fn count(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            exact: true,
        }
    }
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Submissions attempted (setup probes and warm-up included).
    pub attempted: u64,
    /// Submissions that failed, were refused, or returned a wrong plan.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form context lines printed above the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The table, then the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out += &format!("# {note}\n");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        out += &format!(
            "# attempted {} failed {} failed_frac {failed_frac}\n",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let kind = if m.exact { "  [exact count]" } else { "" };
            out += &format!("{:<36} {:>18.6} {}{kind}\n", m.name, m.value, m.unit);
        }
        out += &self.json();
        out.push('\n');
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            attempted: 4,
            failed: 0,
            metrics: vec![
                Metric::measured("qps", "1/s", 2.5),
                Metric::count("c", "count", 3.0),
            ],
            notes: vec![],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 2.5, \"unit\": \"1/s\"}, \"c\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(r.render().ends_with(&format!("{}\n", r.json())));
    }
}
