//! What a run hands back: its metrics, its operation counts, and the facts
//! (sample counts, percentiles used, environment) the results file keeps.

use crate::checks::{Checker, Quality};
use crate::json;
use crate::spec::{Metric, Workload};
use crate::stats::{self, Slices};
use crate::system;

/// Metric values by name, in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

pub struct Outcome {
    pub checker: Checker,
    pub metrics: Metrics,
    /// `key = value` facts behind the numbers (sample counts, the
    /// percentile a tail was read at, ...).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            checker: Checker::default(),
            metrics: Metrics::default(),
            facts: Vec::new(),
        }
    }

    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The end-to-end metrics, and the facts behind them.
    pub fn end_to_end(&mut self, setups: &[f64], quality: &Quality) {
        let (satisfied, inputs) = quality.mean();
        let m = &mut self.metrics;
        m.set("setup_s", stats::median(setups));
        m.set("satisfied_demand_pct", satisfied);
        m.set("peak_rss_mib", system::peak_rss_mib());
        self.fact("setup_repeats", setups.len());
        self.fact("setup_s_all", stats::list(setups));
        self.fact("quality_inputs", inputs);
    }

    /// What a timed phase of `timed_s` seconds with tracing off measured:
    /// the demoted end-to-end timings. A traced run reports them as
    /// `loadgen.*` metrics; every run prints them, and what is behind
    /// them, as facts.
    pub fn timings(
        &mut self,
        w: &Workload,
        slices: &Slices,
        timed_s: f64,
        latencies_ms: &[f64],
        deadline_met_share: f64,
        as_metrics: bool,
    ) {
        let tail = stats::summarize(latencies_ms, w.tail_percentile);
        let values = [
            ("loadgen.op_p50_ms", slices.p50_ms(timed_s)),
            ("loadgen.ops_per_s", slices.matrices_per_s(timed_s)),
            ("loadgen.op_tail_ms", tail.tail),
            ("loadgen.deadline_met_share", deadline_met_share),
        ];
        for (name, value) in values {
            if as_metrics {
                self.metrics.set(name, value);
            } else {
                self.fact(name, json::number(value));
            }
        }
        self.fact("op_tail_percentile", tail.tail_percentile);
        self.fact("latency_samples", tail.samples);
        self.fact("op_latency_ms", stats::ladder(latencies_ms));
        self.fact("slices", slices.count(timed_s));
        self.fact("slice_p50_ms", slices.list_p50_ms(timed_s));
        self.fact("slice_per_s", slices.list_per_s(timed_s));
    }

    /// The run is correct when nothing failed and every metric of `table`
    /// was measured as a finite number.
    pub fn missing(&self, table: &[Metric]) -> Vec<&'static str> {
        table
            .iter()
            .filter(|m| !self.metrics.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect()
    }

    /// The one-line JSON result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and the metrics of `table`.
    pub fn result_line(&self, table: &[Metric]) -> String {
        let correct = self.checker.failed == 0 && self.missing(table).is_empty();
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(self.metrics.get(m.name).unwrap_or(f64::NAN)),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checker.attempted.max(1),
            self.checker.failed,
            metrics.join(", ")
        )
    }
}
