//! The metric vocabulary and the result line the benchmark ends with.
//!
//! The tables here and the `end_to_end` / `per_layer` lists of
//! `BENCHMARK.json` name the same metrics with the same units; the
//! `contract` test holds them equal.

use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run (`--trace 0`), as a user of the system
/// sees them.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s"),
    def("day_s", "s"),
    def("frames_per_s", "1/s"),
    def("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run (`--trace 1`): host time per layer, the
/// layers' work counts, the simulated DVD, and the tracer's own cost
/// and coverage.
pub const PER_LAYER: [MetricDef; 30] = [
    def("geodata.dataset_s", "s"),
    def("core.transform_s", "s"),
    def("ml.train_global_s", "s"),
    def("core.context_engine_s", "s"),
    def("core.selection_s", "s"),
    def("cote.space_segment_s", "s"),
    def("geodata.render_s", "s"),
    def("geodata.frames_rendered", "count"),
    def("core.runtime.bent_pipe_s", "s"),
    def("core.runtime.direct_s", "s"),
    def("core.runtime.kodan_s", "s"),
    def("core.runtime.tiles_processed", "count"),
    def("core.runtime.tiles_elided", "count"),
    def("core.runtime.elision_frac", "frac"),
    def("core.plan.estimate_s", "s"),
    def("core.plan.plan_s", "s"),
    def("core.plan.on_orbit", "count"),
    def("core.plan.downlink_raw", "count"),
    def("core.plan.deferred", "count"),
    def("core.plan.throttled", "count"),
    def("cote.passes_served", "count"),
    def("core.fleet_s", "s"),
    def("core.fleet.sat_s", "s"),
    def("core.fleet.spill_runs", "count"),
    def("core.fleet.spill_bytes", "B"),
    def("core.fleet.peak_memtable_bytes", "B"),
    def("sim.dvd", "frac"),
    def("trace.overhead_frac", "frac"),
    def("trace.setup_coverage_frac", "frac"),
    def("trace.day_coverage_frac", "frac"),
];

/// Whether `name` is a valid metric name: a letter or digit, then at
/// most 63 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Looks up the unit of a metric in either table.
pub(crate) fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every day matched the reference outputs and none failed.
    pub correct: bool,
    /// Days attempted.
    pub attempted: u64,
    /// Days that errored, panicked or failed the output check.
    pub failed: u64,
    /// Metric values in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Renders the one-line JSON object the benchmark contract asks for.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(name).unwrap_or("");
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit of `v` (Rust's shortest round-trip
/// form); non-finite values, which JSON cannot carry, become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "core.runtime.kodan_s", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_table_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} listed twice");
        }
    }

    #[test]
    fn result_line_shape() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 2.5), ("day_s", 0.1)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"day_s\": {\"value\": 0.1, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "null");
    }
}
