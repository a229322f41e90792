//! `bpw-server` binary: run the page service, drive one with load, or
//! run one of the two built-in self-checks.
//!
//! ```text
//! bpw-server serve   [--addr H:P] [--mode threaded|eventloop] [--workers N]
//!                    [--queue N] [--policy P] [--max-pipeline N]
//!                    [--frames N] [--page-size B] [--pages N] [--manager SPEC]
//!                    [--faulty true] [--fault-seed S] [--fail-reads-ppm N]
//!                    [--fail-writes-ppm N] [--spike-ppm N] [--spike-us U]
//! bpw-server loadgen --addr H:P [--connections N] [--requests N]
//!                    [--write-fraction F] [--rate RPS | --think MS]
//!                    [--pipeline N]
//!                    [--workload zipf|dbt1|dbt2|scan] [--zipf-pages N]
//!                    [--theta F] [--seed S] [--put-len B]
//! bpw-server smoke   [--faulty true] [fault flags as serve]
//! bpw-server chaos   [--out FILE] [--requests N] [--fault-seed S]
//! ```
//!
//! A flag the subcommand does not read is an error (exit 2), so a
//! misspelled flag never starts a server silently on defaults.
//!
//! `serve --mode threaded` (the default) runs a thread per connection
//! and `--workers N` workers behind an admission queue of `--queue N`
//! requests. `--mode eventloop` runs `--workers N` event loops, each
//! executing its connections' requests itself: no queue, so `--queue` is
//! unused, `--policy drop:MS` drops a request whose decode ended past its
//! deadline, and `block` and `shed` never act.
//!
//! `smoke` is the CI self-test: it starts an in-process server, checks
//! STATS and METRICS payloads, and drives a workload through it. With
//! `--faulty true` the server runs over a fault-injecting disk and the
//! run additionally proves degraded-mode behaviour (ERR_IO surfaces, no
//! frame is wedged).
//!
//! `chaos` is the degraded-mode experiment: the same load at increasing
//! storage fault rates, recording throughput, error mix, and the pool's
//! retry/repair counters to a JSON-lines artifact.
//!
//! Throughput, per-stage latency and scrape cost are measured from
//! outside by `perfbench/` (see `perfbench/README.md`).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use bpw_metrics::JsonObject;
use bpw_server::{loadgen, FaultPlan, FrontendMode, LoadConfig, LoadMode, Server, ServerConfig};
use bpw_workloads::{Workload, WorkloadKind, ZipfWorkload};

type Flags = HashMap<String, String>;

/// A subcommand's body.
type Cmd = fn(&Flags) -> Result<(), String>;

/// Flags [`fault_plan`] reads (`serve` and `smoke`).
const FAULT_FLAGS: &[&str] = &[
    "faulty",
    "fault-seed",
    "fail-reads-ppm",
    "fail-writes-ppm",
    "spike-ppm",
    "spike-us",
];

/// Flags [`server_config`] reads, besides the fault flags.
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue",
    "policy",
    "frames",
    "page-size",
    "pages",
    "manager",
    "mode",
    "max-pipeline",
];

/// Flags `loadgen` reads ([`build_workload`] and [`load_config`]).
const LOADGEN_FLAGS: &[&str] = &[
    "addr",
    "connections",
    "requests",
    "write-fraction",
    "rate",
    "think",
    "pipeline",
    "workload",
    "zipf-pages",
    "theta",
    "seed",
    "put-len",
];

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let (run, reads): (Cmd, &[&[&str]]) = match cmd.as_str() {
        "serve" => (cmd_serve, &[SERVE_FLAGS, FAULT_FLAGS]),
        "loadgen" => (cmd_loadgen, &[LOADGEN_FLAGS]),
        "smoke" => (cmd_smoke, &[FAULT_FLAGS]),
        "chaos" => (cmd_chaos, &[&["out", "requests", "fault-seed"]]),
        _ => {
            eprintln!(
                "usage: bpw-server <serve|loadgen|smoke|chaos> [flags]  (see the header of src/main.rs)"
            );
            std::process::exit(2);
        }
    };
    let flags = parse_flags(args.collect(), &reads.concat()).unwrap_or_else(|e| {
        eprintln!("bpw-server {cmd}: {e}");
        std::process::exit(2);
    });
    if let Err(e) = run(&flags) {
        eprintln!("bpw-server {cmd}: {e}");
        std::process::exit(1);
    }
}

/// `--key value` pairs; repeated keys keep the last value. A key not in
/// `known` is an error naming it.
fn parse_flags(argv: Vec<String>, known: &[&str]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("ignoring stray argument {a:?}");
            continue;
        };
        if !known.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (reads --{})",
                known.join(", --")
            ));
        }
        let v = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), v);
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        Some(v) => v.parse().map_err(|e| format!("--{key} {v:?}: {e}")),
        None => Ok(default),
    }
}

/// Fault-injection flags -> an optional [`FaultPlan`]. `--faulty true`
/// alone enables a default plan (2% transient read+write faults, 1%
/// latency spikes); the per-rate flags refine or enable one explicitly.
fn fault_plan(flags: &Flags) -> Result<Option<FaultPlan>, String> {
    let faulty: bool = get(flags, "faulty", false)?;
    let read_ppm: u32 = get(flags, "fail-reads-ppm", 0)?;
    let write_ppm: u32 = get(flags, "fail-writes-ppm", 0)?;
    let spike_ppm: u32 = get(flags, "spike-ppm", 0)?;
    if !faulty && read_ppm == 0 && write_ppm == 0 && spike_ppm == 0 {
        return Ok(None);
    }
    Ok(Some(FaultPlan {
        seed: get(flags, "fault-seed", FaultPlan::default().seed)?,
        read_fail_ppm: if faulty && read_ppm == 0 {
            20_000
        } else {
            read_ppm
        },
        write_fail_ppm: if faulty && write_ppm == 0 {
            20_000
        } else {
            write_ppm
        },
        spike_ppm: if faulty && spike_ppm == 0 {
            10_000
        } else {
            spike_ppm
        },
        spike: Duration::from_micros(get(flags, "spike-us", 500)?),
    }))
}

fn server_config(flags: &Flags) -> Result<ServerConfig, String> {
    let d = ServerConfig::default();
    Ok(ServerConfig {
        addr: flags.get("addr").cloned().unwrap_or(d.addr),
        workers: get(flags, "workers", d.workers)?,
        queue_capacity: get(flags, "queue", d.queue_capacity)?,
        policy: get(flags, "policy", d.policy)?,
        frames: get(flags, "frames", d.frames)?,
        page_size: get(flags, "page-size", d.page_size)?,
        pages: get(flags, "pages", d.pages)?,
        manager: flags.get("manager").cloned().unwrap_or(d.manager),
        fault_plan: fault_plan(flags)?,
        mode: get(flags, "mode", d.mode)?,
        max_pipeline: get(flags, "max-pipeline", d.max_pipeline)?,
    })
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let config = server_config(flags)?;
    let server = Server::start(config.clone()).map_err(|e| e.to_string())?;
    let threads = match config.mode {
        FrontendMode::Threaded => format!(
            "{} workers, queue {}",
            config.workers, config.queue_capacity
        ),
        FrontendMode::EventLoop => format!("{} loops", config.workers),
    };
    println!(
        "bpw-server listening on {} — {} frontend, manager {} ({}), {threads}, policy {}",
        server.addr(),
        config.mode,
        config.manager,
        server.pool().manager().name(),
        config.policy,
    );
    server.wait_stop_requested();
    println!("shutdown requested; final stats:\n{}", server.stats_json());
    server.join();
    Ok(())
}

fn build_workload(flags: &Flags) -> Result<Box<dyn Workload>, String> {
    let name = flags.get("workload").map(String::as_str).unwrap_or("zipf");
    if name == "zipf" {
        let pages: u64 = get(flags, "zipf-pages", 16_384)?;
        let theta: f64 = get(flags, "theta", 0.86)?;
        return Ok(Box::new(ZipfWorkload::new(pages, theta, 8)));
    }
    let kind: WorkloadKind = name.parse()?;
    Ok(kind.build())
}

fn load_config(flags: &Flags) -> Result<LoadConfig, String> {
    let d = LoadConfig::default();
    let mode = match (flags.get("rate"), flags.get("think")) {
        (Some(_), Some(_)) => return Err("--rate and --think are mutually exclusive".into()),
        (Some(r), None) => LoadMode::Open {
            rate_per_sec: r.parse().map_err(|e| format!("--rate {r:?}: {e}"))?,
        },
        (None, Some(t)) => LoadMode::Closed {
            think: Duration::from_millis(t.parse().map_err(|e| format!("--think {t:?}: {e}"))?),
        },
        (None, None) => d.mode,
    };
    Ok(LoadConfig {
        connections: get(flags, "connections", d.connections)?,
        requests_per_conn: get(flags, "requests", d.requests_per_conn)?,
        write_fraction: get(flags, "write-fraction", d.write_fraction)?,
        mode,
        seed: get(flags, "seed", d.seed)?,
        put_len: get(flags, "put-len", d.put_len)?,
        pipeline: get(flags, "pipeline", d.pipeline)?,
    })
}

fn cmd_loadgen(flags: &Flags) -> Result<(), String> {
    let addr: SocketAddr = flags
        .get("addr")
        .ok_or("loadgen needs --addr")?
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    let workload = build_workload(flags)?;
    let cfg = load_config(flags)?;
    let report = loadgen::run(addr, workload.as_ref(), &cfg);
    println!("{}", report.summary());
    println!("{}", report.to_json());
    Ok(())
}

/// Degraded-mode experiment: the same Zipf load at increasing storage
/// fault rates. Records throughput, the OK/ERR_IO mix, retry/repair
/// counters, and the frame-accounting invariant to a JSON-lines
/// artifact (`results/fault_injection.jsonl`).
fn cmd_chaos(flags: &Flags) -> Result<(), String> {
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/fault_injection.jsonl".into());
    let requests: u64 = get(flags, "requests", 8_000)?;
    let seed: u64 = get(flags, "fault-seed", 0xC4A0)?;
    let workload = ZipfWorkload::new(4_096, 0.86, 8);
    let mut lines = Vec::new();
    println!(
        "{:>10} {:>10} {:>8} {:>8} {:>9} {:>9} {:>7}",
        "fault_ppm", "req/s", "ok", "io_err", "retries", "repairs", "frames"
    );
    for fault_ppm in [0u32, 10_000, 50_000, 200_000] {
        let server = Server::start(ServerConfig {
            workers: 4,
            frames: 512,
            page_size: 256,
            pages: 4_096,
            fault_plan: Some(FaultPlan {
                seed,
                read_fail_ppm: fault_ppm,
                write_fail_ppm: fault_ppm / 2,
                spike_ppm: fault_ppm / 4,
                ..FaultPlan::default()
            }),
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let report = loadgen::run(
            server.addr(),
            &workload,
            &LoadConfig {
                connections: 4,
                requests_per_conn: requests / 4,
                write_fraction: 0.2,
                ..LoadConfig::default()
            },
        );
        let stats = server.pool().stats();
        let ord = std::sync::atomic::Ordering::Relaxed;
        let retries = stats.io_retries.load(ord);
        let hard_errors = stats.io_errors.load(ord);
        let frames = server.pool().frames();
        let pool = server.pool();
        let accounted = pool.free_frames() + pool.stashed_frames() + pool.resident_count();
        if accounted != frames {
            return Err(format!(
                "fault_ppm {fault_ppm}: frame accounting broken ({accounted} of {frames})"
            ));
        }
        // Recovery: clear the faults and re-read; everything must be OK.
        server
            .faulty_disk()
            .expect("chaos has a disk")
            .clear_faults();
        let mut client = bpw_server::Client::connect(server.addr()).map_err(|e| e.to_string())?;
        for page in 0..128u64 {
            match client.get(page).map_err(|e| e.to_string())? {
                bpw_server::Response::Ok(_) => {}
                other => {
                    return Err(format!(
                        "fault_ppm {fault_ppm}: GET {page} after recovery: {other:?}"
                    ))
                }
            }
        }
        println!(
            "{:>10} {:>10.0} {:>8} {:>8} {:>9} {:>9} {:>7}",
            fault_ppm,
            report.throughput(),
            report.ok,
            report.io_errors,
            retries,
            hard_errors,
            "ok"
        );
        let mut o = JsonObject::new();
        o.field_u64("fault_ppm", fault_ppm as u64)
            .field_u64("fault_seed", seed)
            .field_u64("io_retries", retries)
            .field_u64("io_errors", hard_errors)
            .field_u64("frames", frames as u64)
            .field_u64("frames_accounted", accounted as u64)
            .field_bool("recovered", true)
            .field_raw("load", &report.to_json());
        lines.push(o.finish());
        drop(client); // close the socket so join() can reap its connection thread
        server.join();
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out, lines.join("\n") + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} rows to {out}", lines.len());
    Ok(())
}

/// CI self-test: exercise STATS, METRICS and a workload end-to-end
/// against a live server, failing loudly on any malformed payload.
fn cmd_smoke(flags: &Flags) -> Result<(), String> {
    use bpw_metrics::JsonValue;

    let plan = fault_plan(flags)?;
    let faulty = plan.is_some();
    let server = Server::start(ServerConfig {
        workers: 2,
        frames: 256,
        page_size: 256,
        pages: 4096,
        fault_plan: plan,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = bpw_server::Client::connect(server.addr()).map_err(|e| e.to_string())?;

    // 1. STATS parses and carries the new observability fields.
    let stats = client.stats().map_err(|e| e.to_string())?;
    let v = JsonValue::parse(&stats).map_err(|e| format!("STATS is not valid JSON: {e}"))?;
    for key in [
        "ok",
        "replacement_lock",
        "miss_lock",
        "miss_locks",
        "stages",
    ] {
        if v.get(key).is_none() {
            return Err(format!("STATS JSON is missing {key:?}: {stats}"));
        }
    }

    // 2. METRICS is a well-formed exposition with a useful sample count.
    let metrics = client.metrics().map_err(|e| e.to_string())?;
    let samples = bpw_trace::validate_exposition(&metrics)
        .map_err(|e| format!("METRICS exposition is malformed: {e}"))?;
    if samples < 20 {
        return Err(format!("METRICS has only {samples} samples:\n{metrics}"));
    }

    // 3. A workload of GETs and PUTs completes requests.
    let workload = ZipfWorkload::new(4096, 0.86, 8);
    let report = loadgen::run(
        server.addr(),
        &workload,
        &LoadConfig {
            connections: 4,
            requests_per_conn: 2_000,
            write_fraction: 0.1,
            ..LoadConfig::default()
        },
    );
    if report.ok == 0 {
        return Err("workload completed no requests".into());
    }

    // 4. Degraded mode (--faulty): the run survived a flaky disk —
    //    transient faults were retried, nothing wedged a frame, and once
    //    the faults clear every page is reachable again.
    if faulty {
        let stats = server.pool().stats();
        let retries = stats.io_retries.load(std::sync::atomic::Ordering::Relaxed);
        if retries == 0 {
            return Err("faulty smoke injected no retried faults".into());
        }
        let frames = server.pool().frames();
        let pool = server.pool();
        let accounted = pool.free_frames() + pool.stashed_frames() + pool.resident_count();
        if accounted != frames {
            return Err(format!(
                "frame accounting broken after faults: {accounted} of {frames}"
            ));
        }
        let disk = server.faulty_disk().expect("faulty config has a disk");
        disk.clear_faults();
        for page in 0..64u64 {
            match client.get(page).map_err(|e| e.to_string())? {
                bpw_server::Response::Ok(_) => {}
                other => return Err(format!("GET {page} after recovery: {other:?}")),
            }
        }
        println!(
            "degraded mode ok: {retries} retries, {} hard errors, frames intact",
            stats.io_errors.load(std::sync::atomic::Ordering::Relaxed)
        );
    }

    client.shutdown().map_err(|e| e.to_string())?;
    drop(client); // join() waits for live connections to close
    server.join();

    println!(
        "smoke ok: {samples} exposition samples, {} requests served",
        report.ok
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flags_rejects_a_flag_the_subcommand_does_not_read() {
        let serve = [SERVE_FLAGS, FAULT_FLAGS].concat();
        let flags = parse_flags(argv(&["--frames", "64", "--faulty", "true"]), &serve).unwrap();
        assert_eq!(flags["frames"], "64");
        assert!(server_config(&flags).is_ok());
        // Misspellings, and a flag another subcommand reads.
        for bad in [
            &["--queue-size", "64"][..],
            &["--frame", "64"],
            &["--out", "x"],
            &["--slo-us", "5"],
            &["--adaptive", "true"],
        ] {
            let err = parse_flags(argv(bad), &serve).unwrap_err();
            let named = format!("unknown flag {} ", bad[0]);
            assert!(err.starts_with(&named), "{err:?} must name {}", bad[0]);
        }
        let err = parse_flags(argv(&["--addr"]), LOADGEN_FLAGS).unwrap_err();
        assert!(err.contains("needs a value"), "{err:?}");
    }
}
