//! The metric catalogue and the per-run outcome that fills it.

use std::collections::BTreeMap;

use crate::json::{obj, Value};
use crate::spans::Span;
use crate::stats::{median, percentile, ratio};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cases_per_s", "cases/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, named `<layer>.<metric>` after the
/// crate that does the work. Every workload reports all of them with
/// `--trace 1`; a layer the workload does not exercise, or whose report
/// does not return the counter, reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.frontend_s", "s"),
    ("minic.codegen_s", "s"),
    ("temporal.synthesis_s", "s"),
    ("temporal.automaton_states", "count"),
    ("temporal.cache_hits", "count"),
    ("temporal.cache_misses", "count"),
    ("sim.resumes", "count"),
    ("sim.delta_cycles", "count"),
    ("sim.events_fired", "count"),
    ("sim.ticks", "count"),
    ("sim.resumes_per_sample", "ratio"),
    ("sim.simulate_s", "s"),
    ("core.samples", "count"),
    ("core.atoms_evaluated", "count"),
    ("core.atoms_total", "count"),
    ("core.atoms_evaluated_frac", "fraction"),
    ("core.steps_compressed", "count"),
    ("core.dirty_wakeups", "count"),
    ("core.sample_s", "s"),
    ("core.step_s", "s"),
    ("cpu.cycles", "count"),
    ("cpu.mcycles_per_s", "Mcycles/s"),
    ("faults.test_cases", "count"),
    ("faults.fired", "count"),
    ("faults.power_losses", "count"),
    ("faults.records", "count"),
    ("campaign.shards", "count"),
    ("campaign.shard_wall_sum_s", "s"),
    ("campaign.merge_s", "s"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.coalesced", "count"),
    ("server.hit_rate", "fraction"),
    ("server.hit_p50_us", "us"),
    ("server.cold_p50_ms", "ms"),
    ("smc.samples", "count"),
    ("smc.issued", "count"),
    ("smc.discarded", "count"),
    ("smc.useful_frac", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
];

fn unit_of(table: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Per-layer values of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `value` to the metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] — a typo in this file.
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(PER_LAYER, name).is_some(),
            "per-layer metric {name} is not in the catalogue"
        );
        *self.values.entry(name).or_default() += value;
    }

    /// Overwrites the metric `name` (derived ratios).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.remove(name);
        self.add(name, value);
    }

    /// The current value (`0` if never added).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Fills the ratios that derive from the summed counters.
    pub fn derive_ratios(&mut self) {
        self.set(
            "sim.resumes_per_sample",
            ratio(self.get("sim.resumes"), self.get("core.samples")),
        );
        self.set(
            "core.atoms_evaluated_frac",
            ratio(
                self.get("core.atoms_evaluated"),
                self.get("core.atoms_total"),
            ),
        );
        self.set(
            "smc.useful_frac",
            ratio(self.get("smc.samples"), self.get("smc.issued")),
        );
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verified units: set-ups, jobs, submissions, pinned checks.
    pub attempted: u64,
    /// Units with at least one failed check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// Cold set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Test cases verified in the timed phase.
    pub cases: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Latency of each job of the timed phase, milliseconds.
    pub job_ms: Vec<f64>,
    /// Peak resident set of the workload process, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced run only).
    pub layers: Layers,
    /// The benchmark's spans (traced run only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one verified unit; `problems` lists its failed checks.
    pub fn check(&mut self, unit: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{unit}: {p}")));
        }
    }

    /// The end-to-end metric values, in catalogue order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let values = [
            median(&self.setup_s),
            ratio(self.cases, self.timed_s),
            ratio(self.job_ms.len() as f64, self.timed_s),
            percentile(&self.job_ms, 50.0),
            percentile(&self.job_ms, 95.0),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, _), value)| (*name, value))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the requested kind.
    pub fn result_line(&self, trace: bool) -> Value {
        let rows: Vec<(&str, f64, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|(name, unit)| (*name, self.layers.get(name), *unit))
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(name, value)| (name, value, unit_of(END_TO_END, name).unwrap_or("")))
                .collect()
        };
        let metrics = rows.into_iter().map(|(name, value, unit)| {
            (
                name,
                obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.to_owned())),
                ]),
            )
        });
        obj([
            (
                "correct",
                Value::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// The strings of a JSON array (empty for anything else).
pub fn string_list(value: Option<&Value>) -> Vec<String> {
    value
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn catalogue_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_requested_metrics() {
        let mut outcome = Outcome {
            setup_s: vec![0.2, 0.1, 0.3],
            cases: 1000.0,
            timed_s: 2.0,
            job_ms: vec![1.0, 2.0, 3.0],
            peak_rss_mb: 10.0,
            ..Outcome::default()
        };
        outcome.check("job", Vec::new());
        let e2e = outcome.result_line(false);
        let metrics = e2e.get("metrics").and_then(Value::as_object).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert_eq!(
            e2e.get("metrics")
                .and_then(|m| m.get("cases_per_s"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(500.0)
        );
        assert_eq!(e2e.get("correct"), Some(&Value::Bool(true)));
        let layers = outcome.result_line(true);
        assert_eq!(
            layers
                .get("metrics")
                .and_then(Value::as_object)
                .map(<[_]>::len),
            Some(PER_LAYER.len())
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check("job 1", vec!["fingerprint drift".to_owned()]);
        outcome.check("job 2", Vec::new());
        let line = outcome.result_line(false);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(
            outcome.failures,
            vec!["job 1: fingerprint drift".to_owned()]
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_layer_metrics_are_rejected() {
        Layers::default().add("sim.typo", 1.0);
    }
}
