//! What a run hands back: named values, the output checks, and the one-line
//! JSON result the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bpw_metrics::json::JsonObject;

use crate::spec::{self, Kind};

/// Everything a run measured, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not a number: {value}");
        let previous = self.0.insert(name.to_string(), value);
        assert!(previous.is_none(), "{name} set twice");
    }

    /// `numerator / denominator`, 0 when the denominator is 0.
    pub fn set_ratio(&mut self, name: &str, numerator: f64, denominator: f64) {
        let value = if denominator == 0.0 {
            0.0
        } else {
            numerator / denominator
        };
        self.set(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one (workload, seed) run.
#[derive(Debug)]
pub struct Report {
    /// Operations issued to the program, set-up included.
    pub attempted: u64,
    /// Operations that returned an error or whose output failed a check.
    pub failed: u64,
    /// Output checks on the whole run that did not hold.
    pub problems: Vec<String>,
    /// The metrics of the run's mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further values printed for the reader and the calibration record;
    /// not part of the result line.
    pub info: Vec<Metric>,
    /// Hash of the generated inputs.
    pub trace_hash: u64,
    /// Pool hits and misses over the measured epochs.
    pub hits: u64,
    pub misses: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// One `name value unit` line per value, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(out, "{:<48} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            let _ = writeln!(out, "CHECK FAILED: {p}");
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = JsonObject::new();
        for m in &self.metrics {
            let mut metric = JsonObject::new();
            metric.field_f64("value", m.value).field_str("unit", m.unit);
            metrics.field_raw(&m.name, &metric.finish());
        }
        let mut line = JsonObject::new();
        line.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        line.finish()
    }
}

/// Pick `names` out of `values`, in order. A name that was never set is a
/// bug in the benchmark.
pub fn select(values: &Values, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured")),
            unit,
        })
        .collect()
}

/// The per-layer metrics of a workload of `kind`, in `BENCHMARK.json`
/// order. A metric of this kind of workload must have been set — a
/// forgotten or mistyped `set` must not read as "the layer did no work" —
/// and a metric of the other kind must not have been, and reads 0.
pub fn select_layers(values: &Values, kind: Kind) -> Vec<Metric> {
    spec::per_layer()
        .into_iter()
        .map(|(name, unit, rows)| {
            let value = match (values.get(&name), rows.include(kind)) {
                (Some(v), true) => v,
                (None, false) => 0.0,
                (None, true) => panic!("metric {name} was not measured"),
                (Some(_), false) => panic!("metric {name} is not one of a {kind:?} workload"),
            };
            Metric { name, value, unit }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every per-layer metric of `kind`, set to 1.
    fn all_set(kind: Kind) -> Values {
        let mut v = Values::default();
        for (name, _, rows) in spec::per_layer() {
            if rows.include(kind) {
                v.set(&name, 1.0);
            }
        }
        v
    }

    #[test]
    fn the_other_kinds_layers_read_zero() {
        let metrics = select_layers(&all_set(Kind::Pool), Kind::Pool);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("bufferpool.fetch_hit_ns"), 1.0);
        assert_eq!(value("server.stage.get.queue_wait_ns"), 0.0);
        assert_eq!(metrics.len(), spec::per_layer().len());
    }

    #[test]
    #[should_panic(expected = "evl.short_writes was not measured")]
    fn a_forgotten_layer_metric_is_an_error() {
        let mut v = Values::default();
        for (name, _, rows) in spec::per_layer() {
            if rows.include(Kind::Server) && name != "evl.short_writes" {
                v.set(&name, 1.0);
            }
        }
        select_layers(&v, Kind::Server);
    }

    #[test]
    #[should_panic(expected = "is not one of a Pool workload")]
    fn a_layer_metric_of_the_other_kind_is_an_error() {
        let mut v = all_set(Kind::Pool);
        v.set("evl.short_writes", 0.0);
        select_layers(&v, Kind::Pool);
    }
}
