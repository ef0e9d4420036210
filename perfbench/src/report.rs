//! The result of one benchmark run and how it is printed.

/// Metrics, failure accounting and notes of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted: events for the pipelines, queries for the
    /// archive.
    pub attempted: u64,
    /// Units that failed or produced wrong output.
    pub failed: u64,
    /// False when any output check failed.
    pub checks_ok: bool,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            checks_ok: true,
            ..Default::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed output check; the run is then not correct.
    pub fn check_failed(&mut self, what: impl Into<String>) {
        self.checks_ok = false;
        self.notes.push(format!("check failed: {}", what.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, one `metric <name> <value> <unit>` line per metric
    /// and `failed_frac`, then the JSON result as the last line.
    pub fn print(mut self) {
        for (name, value, _) in &mut self.metrics {
            if !value.is_finite() {
                self.checks_ok = false;
                self.notes
                    .push(format!("check failed: {name} is not finite"));
                *value = 0.0;
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "metric failed_frac {} fraction",
            self.failed as f64 / attempted as f64
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_ok && self.failed == 0,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Linear-interpolation percentile (`q` in 0..=1) of `values`; NaN when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}
