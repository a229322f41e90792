//! `bpw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints every metric by name, then the result line.
//! `bpw-perfbench calibrate [--runs <n>] [--seconds <s>] [--label <name>]`
//! writes a calibration record. See `README.md`.

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bpw_perfbench::calibrate::{calibrate, Options};
use bpw_perfbench::spec::{self, NOMINAL_SECONDS};
use bpw_perfbench::{run, sys, RunConfig};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The value after `--name`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{name} needs a value")),
        None => default.ok_or(format!("{name} is required")),
    }
}

/// Turn a hang into a failed run: unless `done` is dropped first, end the
/// process after three times the run's expected length.
fn watchdog(seconds: u64, done: mpsc::Receiver<()>) {
    // Set-up, a warm-up epoch and the checks come to under a tenth more.
    let limit = Duration::from_secs((3 * (seconds + seconds / 10 + 5)).min(170));
    if done.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
        eprintln!("watchdog: no result after {limit:?}; the run hangs");
        std::process::exit(3);
    }
}

fn run_workload(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let name: String = flag(args, "--workload", None)?;
    let spec = spec::spec(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = flag(args, "--seed", Some(1))?;
    let seconds = flag(args, "--seconds", Some(NOMINAL_SECONDS))?;
    let trace = flag::<u8>(args, "--trace", Some(0))? != 0;

    let (done, done_rx) = mpsc::channel();
    let dog = std::thread::spawn(move || watchdog(seconds, done_rx));
    let report = run(&RunConfig::from_cli(spec, seed, seconds, trace), started);
    drop(done);
    dog.join().expect("watchdog panicked");

    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_calibrate(args: &[String]) -> Result<ExitCode, String> {
    let label = match flag(args, "--label", None) {
        Ok(label) => label,
        Err(_) => std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .ok_or("not in a git checkout: name the record with --label")?,
    };
    let options = Options {
        runs_per_set: flag(args, "--runs", Some(5))?,
        seconds: flag(args, "--seconds", Some(NOMINAL_SECONDS))?,
        label,
    };
    let (path, ok) = calibrate(&options)?;
    println!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "calibrate") {
        run_calibrate(&args)
    } else {
        run_workload(&args, started)
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("bpw-perfbench: {message}");
        ExitCode::from(2)
    })
}
