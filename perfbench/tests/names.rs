//! The names a run prints are the lists of `BENCHMARK.json`, exactly: same
//! names, same order, same units, for every workload and both modes.

mod common;

use std::time::Instant;

use bpw_metrics::JsonValue;
use bpw_perfbench::spec::SPECS;

fn contract() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON")
}

/// The `field` of every entry of the contract's list `key`, in order.
fn listed(contract: &JsonValue, key: &str, field: &str) -> Vec<String> {
    let Some(JsonValue::Arr(entries)) = contract.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    entries
        .iter()
        .map(|e| {
            e.get(field)
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn workloads_are_those_of_the_contract() {
    let specs: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    assert_eq!(listed(&contract(), "workloads", "name"), specs);
}

#[test]
fn printed_names_equal_the_contract() {
    let contract = contract();
    for spec in &SPECS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = bpw_perfbench::run(&common::tiny(spec.name, 1, traced), Instant::now());
            assert!(report.correct(), "{}: {:?}", spec.name, report.problems);
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let listed: Vec<(String, String)> = listed(&contract, key, "name")
                .into_iter()
                .zip(listed(&contract, key, "unit"))
                .collect();
            assert_eq!(printed, listed, "{} {key}", spec.name);
            for (name, unit) in &printed {
                let ok = |s: &str, extra: &str| {
                    !s.is_empty()
                        && s.chars()
                            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
                };
                assert!(ok(name, "_.-") && name.len() <= 64, "name {name}");
                assert!(ok(unit, "_/%.-") && unit.len() <= 16, "unit {unit}");
            }
            // The result line holds exactly these metrics and parses.
            let line = JsonValue::parse(&report.result_line()).expect("result line is JSON");
            let Some(JsonValue::Obj(metrics)) = line.get("metrics") else {
                panic!("result line has no metrics object");
            };
            assert_eq!(metrics.len(), printed.len());
            assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        }
    }
}
