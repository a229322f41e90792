//! Golden shape of the two expositions: which STATS key paths and which
//! METRICS series (name + label keys) a fully-featured server emits.
//!
//! Values are not recorded, only names — the file pins what dashboards
//! and `perfbench/` address by key. A change may ADD lines to
//! `golden/exposition.txt` (listing each in CHANGES.md); removing or
//! renaming one breaks a consumer.

use std::collections::BTreeSet;

use bpw_metrics::JsonValue;
use bpw_server::{Client, FrontendMode, Response, Server, ServerConfig};

const GOLDEN: &str = include_str!("golden/exposition.txt");

/// Keys every `Histogram::to_json` object carries; an object with all
/// of them is collapsed to one `{histogram}` leaf.
const HISTOGRAM_KEYS: [&str; 4] = ["count", "p50", "p999", "buckets"];

fn stats_paths(prefix: &str, v: &JsonValue, out: &mut BTreeSet<String>) {
    match v {
        JsonValue::Obj(map) if HISTOGRAM_KEYS.iter().all(|k| map.contains_key(*k)) => {
            out.insert(format!("STATS {prefix}{{histogram}}"));
        }
        JsonValue::Obj(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                stats_paths(&path, child, out);
            }
        }
        JsonValue::Arr(items) => {
            for item in items {
                stats_paths(&format!("{prefix}[]"), item, out);
            }
        }
        _ => {
            out.insert(format!("STATS {prefix}"));
        }
    }
}

fn metrics_series(text: &str, out: &mut BTreeSet<String>) {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, _value) = line.rsplit_once(' ').expect("sample line");
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        // Label values never contain `,` or `=` here (ops, stages,
        // shard/tid numbers), so a plain split is exact.
        let keys: Vec<&str> = labels
            .split(',')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').expect("label pair").0)
            .collect();
        if keys.is_empty() {
            out.insert(format!("METRICS {name}"));
        } else {
            out.insert(format!("METRICS {name}{{{}}}", keys.join(",")));
        }
    }
}

fn exposition_shape(mode: FrontendMode) -> String {
    // Traced, so the scrape renders the per-ring series too.
    bpw_trace::set_enabled(true);
    let server = Server::start(ServerConfig {
        workers: 2,
        frames: 64,
        page_size: 64,
        pages: 256,
        manager: "wrapped-2q".into(),
        mode,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(matches!(client.get(3).unwrap(), Response::Ok(_)));
    assert!(matches!(
        client.put(4, vec![7u8; 16]).unwrap(),
        Response::Ok(_)
    ));
    assert!(matches!(client.scan(0, 8).unwrap(), Response::Ok(_)));

    let stats = client.stats().expect("STATS");
    let metrics = client.metrics().expect("METRICS");
    drop(client);
    server.join();
    bpw_trace::set_enabled(false);
    bpw_trace::clear();

    let mut lines = BTreeSet::new();
    let v = JsonValue::parse(&stats).expect("STATS parses");
    stats_paths("", &v, &mut lines);
    bpw_trace::validate_exposition(&metrics).expect("METRICS validates");
    metrics_series(&metrics, &mut lines);
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Both modes in one test: the trace collector is process-global, so
/// two traced servers must not overlap.
#[test]
fn exposition_names_match_the_golden_in_both_modes() {
    for mode in [FrontendMode::Threaded, FrontendMode::EventLoop] {
        let shape = exposition_shape(mode);
        assert!(
            shape == GOLDEN,
            "{mode} exposition shape differs from tests/golden/exposition.txt; actual:\n{shape}"
        );
    }
}
