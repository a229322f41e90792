//! `calibrate`: show that two sets of runs of the same code agree within
//! the benchmark's own bounds, and keep the record.
//!
//! Two interleaved sets of untraced runs per workload, one process per run,
//! seeds 1..=N in each set. For every end-to-end metric the record holds
//! the per-run values, each set's median, quartiles and spread (quartile
//! distance over median, quartiles as Python's `statistics.quantiles`
//! gives them), and how far the second set's median lies from the first.
//! The command fails when a median moved by more than half the metric's
//! bound or when the epochs of any run are too uneven to trust (the issue's
//! two rules), and when a spread other than that of `setup_s` exceeds the
//! bound: the rule `BENCHMARK.json` itself is accepted by, so that a record
//! which passes here is one the benchmark's driver takes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use bpw_metrics::JsonValue;

use crate::spec::SPECS;
use crate::stats::{median, quartiles};

/// A run whose epoch throughputs spread wider than this (quartile distance
/// over median) is not a measurement.
const MAX_EPOCH_SPREAD: f64 = 0.35;

pub struct Options {
    pub runs_per_set: u64,
    pub seconds: u64,
    /// Names the record file: the commit the runs measured.
    pub label: String,
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

fn obj(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One child run: its `name value unit` lines by name.
fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (name, value) = (words.next()?, words.next()?.parse().ok()?);
            Some((name.to_string(), value))
        })
        .collect())
}

fn set_summary(values: &[f64]) -> (f64, JsonValue) {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    let summary = obj([
        (
            "values",
            JsonValue::Arr(values.iter().map(|&v| JsonValue::Num(v)).collect()),
        ),
        ("median", JsonValue::Num(med)),
        ("q1", JsonValue::Num(q1)),
        ("q3", JsonValue::Num(q3)),
        ("spread", JsonValue::Num((q3 - q1) / med)),
    ]);
    (med, summary)
}

/// Run the calibration and write `calibration/<label>.json`. Returns the
/// record's path and whether every rule held.
pub fn calibrate(options: &Options) -> Result<(PathBuf, bool), String> {
    let contract = benchmark_json();
    let end_to_end = match contract.get("end_to_end") {
        Some(JsonValue::Arr(metrics)) => metrics.clone(),
        _ => return Err("BENCHMARK.json has no end_to_end list".into()),
    };

    // values[workload][set][metric] = one value per run.
    let mut values: BTreeMap<&str, [BTreeMap<String, Vec<f64>>; 2]> = BTreeMap::new();
    for seed in 1..=options.runs_per_set {
        for set in 0..2 {
            for spec in &SPECS {
                eprintln!(
                    "calibrate: seed {seed} set {} {}",
                    ["a", "b"][set],
                    spec.name
                );
                let run = run_child(spec.name, seed, options.seconds)?;
                let per_metric = &mut values.entry(spec.name).or_default()[set];
                for (name, value) in run {
                    per_metric.entry(name).or_default().push(value);
                }
            }
        }
    }

    let mut all_ok = true;
    let mut workloads = BTreeMap::new();
    for (workload, sets) in &values {
        let mut record = BTreeMap::new();
        for metric in &end_to_end {
            let name = metric
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric name")?;
            let bound = metric
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric bound")?;
            let (median_a, set_a) = set_summary(&sets[0][name]);
            let (median_b, set_b) = set_summary(&sets[1][name]);
            let shift = (median_b - median_a).abs() / median_a;
            let spread = [&set_a, &set_b]
                .map(|s| s.get("spread").and_then(JsonValue::as_f64).expect("spread"))
                .into_iter()
                .fold(0.0, f64::max);
            let ok = shift <= bound / 2.0 && (name == "setup_s" || spread <= bound);
            if !ok {
                eprintln!("calibrate: {workload} {name}: shift {shift:.4} spread {spread:.4} bound {bound}");
            } else if name != "setup_s" && spread > bound / 3.0 {
                eprintln!("calibrate: note: {workload} {name}: spread {spread:.4} is above a third of {bound}");
            }
            all_ok &= ok;
            record.insert(
                name.to_string(),
                obj([
                    ("bound", JsonValue::Num(bound)),
                    ("set_a", set_a),
                    ("set_b", set_b),
                    ("median_shift", JsonValue::Num(shift)),
                    ("ok", JsonValue::Bool(ok)),
                ]),
            );
        }
        let worst = sets
            .iter()
            .flat_map(|s| s["process.epoch_spread"].iter().copied())
            .fold(0.0, f64::max);
        if worst > MAX_EPOCH_SPREAD {
            eprintln!("calibrate: {workload}: a run's epochs spread by {worst:.3}");
        }
        all_ok &= worst <= MAX_EPOCH_SPREAD;
        record.insert("worst_epoch_spread".to_string(), JsonValue::Num(worst));
        workloads.insert(workload.to_string(), JsonValue::Obj(record));
    }

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = obj([
        ("label", JsonValue::Str(options.label.clone())),
        ("cpus", JsonValue::Num(cpus as f64)),
        ("seconds", JsonValue::Num(options.seconds as f64)),
        ("runs_per_set", JsonValue::Num(options.runs_per_set as f64)),
        ("ok", JsonValue::Bool(all_ok)),
        ("workloads", JsonValue::Obj(workloads)),
    ]);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("calibration");
    let path = dir.join(format!("{}.json", options.label));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, record.render() + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, all_ok))
}
