//! Adaptation-lag experiment for the online advisor + hot-swap layer:
//! how quickly does expert selection move a live pool onto the right
//! policy when the workload changes shape under it?
//!
//! One adaptive pool (a [`SwapManager`] over a BP-wrapped incumbent,
//! fed by the fetch path's [`SampleTap`]) runs a three-phase trace
//! against four static baselines replayed through [`CacheSim`] (the
//! hit-ratio-neutral shadow — see `tests/hit_ratio_neutrality.rs`):
//!
//! * `stationary` — Zipf(θ=0.9) over a pool-sized region: the working
//!   set fits, every candidate scores ~1.0, and the advisor has nothing
//!   to adapt to. It must not churn or hurt.
//! * `shift` — the same Zipf shape over a disjoint region: a working-set
//!   move that re-warms the pool but calls for no policy change (every
//!   expert's score collapses and recovers together).
//! * `storm` — a 512-page hot set (1-in-4) interleaved with an endless
//!   sequential scan (3-in-4). The hot reuse distance (~2K distinct
//!   pages) overflows the 1K-frame pool, so the LRU incumbent
//!   collapses while a scan-resistant policy (LIRS) holds the hot set.
//!   The advisor's shadow caches see the same collapse through the
//!   sample tap and must hot-swap the live manager mid-storm.
//!
//! Rows land in `results/adaptive_replacement.jsonl`: one per
//! (policy, phase) with hit ratios, one per adoption event with the
//! access index it landed at, and a summary row with the measured
//! **adaptation lag**: accesses from storm onset until the live policy
//! is storm-capable (static storm hit ratio within 80% of the best
//! candidate's) — zero if the advisor already sits on one.
//!
//! `--quick` runs the same trace and exits nonzero unless (a) the
//! adaptive pool stays within 5% of the best static policy on the
//! stationary phase (adaptivity must be ~free when there is nothing to
//! adapt to), (b) an adoption lands within the lag budget of storm
//! onset, and (c) the adaptive pool beats the static incumbent on the
//! storm phase — the CI regression gates for the advisor tier.

use std::sync::Arc;
use std::time::Instant;

use bpw_bufferpool::{BufferPool, ReplacementManager, SimDisk, SwapManager, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_metrics::JsonObject;
use bpw_replacement::{Advisor, AdvisorConfig, CacheSim, PolicyKind, SampleTap};
use bpw_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FRAMES: usize = 1024;
const PAGE_SIZE: usize = 64;
/// Zipf universe for the stationary and shift phases: exactly the pool,
/// so the working set fits and every candidate ties near 1.0.
const ZIPF_PAGES: u64 = FRAMES as u64;
const ZIPF_THETA: f64 = 0.9;
/// Storm hot set: reuse distance 4x its size (~2K distinct pages), past
/// the pool's capacity — recency alone cannot hold it.
const HOT_PAGES: u64 = 512;
/// The policies the advisor shadows; `INCUMBENT` is live at start.
const CANDIDATES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::TwoQ,
    PolicyKind::Lirs,
    PolicyKind::Arc,
];
const INCUMBENT: PolicyKind = PolicyKind::Lru;
/// Accesses between advisor steps (tap drain + nominate check).
const STEP: u64 = 2_048;
/// Gate: an adoption must land within this many accesses of storm
/// onset. Generous — the measured lag is typically a small fraction.
const LAG_BUDGET: u64 = 120_000;

/// Phase boundaries (name, accesses).
fn phases(quick: bool) -> [(&'static str, u64); 3] {
    if quick {
        [
            ("stationary", 60_000),
            ("shift", 60_000),
            ("storm", 160_000),
        ]
    } else {
        [
            ("stationary", 120_000),
            ("shift", 120_000),
            ("storm", 240_000),
        ]
    }
}

/// The full trace, phase-concatenated, deterministic for a given seed.
fn build_trace(quick: bool) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0xADA7);
    let zipf = Zipf::new(ZIPF_PAGES, ZIPF_THETA);
    let [(_, n_stat), (_, n_shift), (_, n_storm)] = phases(quick);
    let mut trace = Vec::with_capacity((n_stat + n_shift + n_storm) as usize);
    for _ in 0..n_stat {
        trace.push(zipf.sample(&mut rng));
    }
    // Disjoint region: same skew, entirely new pages.
    for _ in 0..n_shift {
        trace.push(500_000 + zipf.sample(&mut rng));
    }
    // Hot set round-robin (~4x reuse distance) + endless scan. The
    // interleave is randomized (p=1/4 hot), not strided: a fixed stride
    // can alias with the tap's 1-in-N sampling and hide the hot set
    // from the shadow caches entirely.
    let mut scan = 2_000_000u64;
    let mut hot = 0u64;
    for _ in 0..n_storm {
        if rng.gen_range(0..4u32) == 0 {
            trace.push(1_000_000 + hot % HOT_PAGES);
            hot += 1;
        } else {
            trace.push(scan);
            scan += 1;
        }
    }
    trace
}

fn wrapped(kind: PolicyKind, frames: usize) -> Box<dyn ReplacementManager> {
    Box::new(WrappedManager::new(
        kind.build(frames),
        WrapperConfig::default(),
    ))
}

struct Adoption {
    access_index: u64,
    phase: &'static str,
    from: PolicyKind,
    to: PolicyKind,
    generation: u64,
}

struct AdaptiveRun {
    /// Per-phase (hits, accesses).
    phase_hits: Vec<(u64, u64)>,
    adoptions: Vec<Adoption>,
    swaps: u64,
    pages_transferred: u64,
    tap_pushed: u64,
    tap_dropped: u64,
    wall_ns: u64,
}

fn run_adaptive(trace: &[u64], quick: bool) -> AdaptiveRun {
    let cfg = AdvisorConfig {
        shadow_frames: FRAMES,
        window: 256,
        sample_period: 2,
        ..AdvisorConfig::default()
    };
    let tap = Arc::new(SampleTap::new(cfg.sample_period, 8_192));
    let mut advisor = Advisor::new(&CANDIDATES, INCUMBENT, cfg);
    let pool = BufferPool::new(
        FRAMES,
        PAGE_SIZE,
        SwapManager::new(wrapped(INCUMBENT, FRAMES)),
        Arc::new(SimDisk::instant()),
    )
    .with_sample_tap(Arc::clone(&tap));

    let mut phase_hits = Vec::new();
    let mut adoptions = Vec::new();
    let mut incumbent = INCUMBENT;
    let mut sampled = Vec::new();
    let mut idx = 0u64;
    let t0 = Instant::now();
    let mut session = pool.session();
    for (phase, len) in phases(quick) {
        let h0 = pool.stats().hits.load(std::sync::atomic::Ordering::Relaxed);
        for _ in 0..len {
            drop(session.fetch(trace[idx as usize]).expect("instant disk"));
            idx += 1;
            if idx.is_multiple_of(STEP) {
                tap.drain(&mut sampled);
                for &p in &sampled {
                    advisor.observe(p);
                }
                sampled.clear();
                if let Some(kind) = advisor.nominate() {
                    let report = pool
                        .swap_manager(wrapped(kind, FRAMES))
                        .expect("SwapManager pools accept swaps");
                    advisor.adopt(kind);
                    adoptions.push(Adoption {
                        access_index: idx,
                        phase,
                        from: incumbent,
                        to: kind,
                        generation: report.generation,
                    });
                    incumbent = kind;
                }
            }
        }
        let h1 = pool.stats().hits.load(std::sync::atomic::Ordering::Relaxed);
        phase_hits.push((h1 - h0, len));
    }
    drop(session);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mgr = pool.manager();
    AdaptiveRun {
        phase_hits,
        adoptions,
        swaps: mgr.swaps(),
        pages_transferred: mgr.pages_transferred(),
        tap_pushed: tap.pushed(),
        tap_dropped: tap.dropped(),
        wall_ns,
    }
}

/// Static baseline: the whole trace through one policy, per-phase hits.
fn run_static(kind: PolicyKind, trace: &[u64], quick: bool) -> Vec<(u64, u64)> {
    let mut sim = CacheSim::new(kind.build(FRAMES));
    let mut out = Vec::new();
    let mut idx = 0usize;
    for (_, len) in phases(quick) {
        let mut hits = 0u64;
        for _ in 0..len {
            if sim.access(trace[idx]) {
                hits += 1;
            }
            idx += 1;
        }
        out.push((hits, len));
    }
    out
}

fn hr(hits: u64, total: u64) -> f64 {
    hits as f64 / total.max(1) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/adaptive_replacement.jsonl".into());

    let trace = build_trace(quick);
    let phase_names: Vec<&str> = phases(quick).iter().map(|&(n, _)| n).collect();
    let storm_start: u64 = phases(quick)[..2].iter().map(|&(_, n)| n).sum();

    println!(
        "{FRAMES} frames | {} accesses ({}) | incumbent {} over candidates {:?}",
        trace.len(),
        phase_names.join(" -> "),
        INCUMBENT.name(),
        CANDIDATES.map(|k| k.name()),
    );

    let mut lines = Vec::new();
    let mut static_hr: std::collections::HashMap<(&str, &str), f64> =
        std::collections::HashMap::new();

    println!(
        "\n{:<10} {:>11} {:>9} {:>9}",
        "policy", "stationary", "shift", "storm"
    );
    for kind in CANDIDATES {
        let per_phase = run_static(kind, &trace, quick);
        let mut cells = Vec::new();
        for (i, &(hits, total)) in per_phase.iter().enumerate() {
            let ratio = hr(hits, total);
            static_hr.insert((kind.name(), phase_names[i]), ratio);
            cells.push(format!("{ratio:>9.4}"));
            let mut o = JsonObject::new();
            o.field_str("experiment", "adaptive_replacement")
                .field_str("mode", "static")
                .field_str("policy", kind.name())
                .field_str("phase", phase_names[i])
                .field_u64("accesses", total)
                .field_u64("hits", hits)
                .field_f64("hit_ratio", ratio);
            lines.push(o.finish());
        }
        println!(
            "{:<10} {:>11} {} {}",
            kind.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }

    let run = run_adaptive(&trace, quick);
    let mut adaptive_hr = std::collections::HashMap::new();
    let mut cells = Vec::new();
    for (i, &(hits, total)) in run.phase_hits.iter().enumerate() {
        let ratio = hr(hits, total);
        adaptive_hr.insert(phase_names[i], ratio);
        cells.push(format!("{ratio:>9.4}"));
        let mut o = JsonObject::new();
        o.field_str("experiment", "adaptive_replacement")
            .field_str("mode", "adaptive")
            .field_str("policy", "advisor")
            .field_str("phase", phase_names[i])
            .field_u64("accesses", total)
            .field_u64("hits", hits)
            .field_f64("hit_ratio", ratio);
        lines.push(o.finish());
    }
    println!(
        "{:<10} {:>11} {} {}",
        "adaptive", cells[0], cells[1], cells[2]
    );

    println!();
    for a in &run.adoptions {
        println!(
            "adoption @ {:>7} ({}): {} -> {} (generation {})",
            a.access_index,
            a.phase,
            a.from.name(),
            a.to.name(),
            a.generation
        );
        let mut o = JsonObject::new();
        o.field_str("experiment", "adaptive_replacement")
            .field_str("mode", "adoption")
            .field_u64("access_index", a.access_index)
            .field_str("phase", a.phase)
            .field_str("from", a.from.name())
            .field_str("to", a.to.name())
            .field_u64("generation", a.generation);
        lines.push(o.finish());
    }

    // Adaptation lag: storm onset until the live policy is
    // storm-capable (static storm score within 80% of the best
    // candidate's). Zero if the advisor already sits on one at onset.
    let best_storm = CANDIDATES
        .iter()
        .map(|k| static_hr[&(k.name(), "storm")])
        .fold(0.0f64, f64::max);
    let storm_capable = |k: PolicyKind| static_hr[&(k.name(), "storm")] >= 0.8 * best_storm;
    let live_at_onset = run
        .adoptions
        .iter()
        .take_while(|a| a.access_index <= storm_start)
        .last()
        .map(|a| a.to)
        .unwrap_or(INCUMBENT);
    let lag = if storm_capable(live_at_onset) {
        Some(0)
    } else {
        run.adoptions
            .iter()
            .find(|a| a.access_index > storm_start && storm_capable(a.to))
            .map(|a| a.access_index - storm_start)
    };
    match lag {
        Some(0) => println!(
            "\nadaptation lag: 0 (already on storm-capable {} at onset)",
            live_at_onset.name()
        ),
        Some(lag) => println!("\nadaptation lag: {lag} accesses from storm onset"),
        None => println!("\nadaptation lag: live policy never became storm-capable"),
    }

    let mut o = JsonObject::new();
    o.field_str("experiment", "adaptive_replacement")
        .field_str("mode", "summary")
        .field_bool("quick", quick)
        .field_u64("frames", FRAMES as u64)
        .field_u64("storm_start", storm_start)
        .field_u64("adaptation_lag_accesses", lag.unwrap_or(u64::MAX))
        .field_u64("lag_budget", LAG_BUDGET)
        .field_u64("adoptions", run.adoptions.len() as u64)
        .field_u64("swaps", run.swaps)
        .field_u64("pages_transferred", run.pages_transferred)
        .field_u64("tap_pushed", run.tap_pushed)
        .field_u64("tap_dropped", run.tap_dropped)
        .field_u64("wall_ns", run.wall_ns);
    lines.push(o.finish());

    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(&out, lines.join("\n") + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {} rows to {out}", lines.len());

    // Gates (enforced under --quick, reported always).
    let best_stationary = CANDIDATES
        .iter()
        .map(|k| static_hr[&(k.name(), "stationary")])
        .fold(0.0f64, f64::max);
    let adaptive_stationary = adaptive_hr["stationary"];
    let adaptive_storm = adaptive_hr["storm"];
    let incumbent_storm = static_hr[&(INCUMBENT.name(), "storm")];
    println!(
        "gates: stationary {adaptive_stationary:.4} vs best static {best_stationary:.4} | \
         lag {:?} (budget {LAG_BUDGET}) | storm {adaptive_storm:.4} vs static {} {incumbent_storm:.4}",
        lag,
        INCUMBENT.name()
    );
    let mut failed = false;
    if adaptive_stationary < 0.95 * best_stationary {
        eprintln!(
            "FAIL: adaptive pool must stay within 5% of the best static policy when stationary"
        );
        failed = true;
    }
    match lag {
        Some(lag) if lag <= LAG_BUDGET => {}
        _ => {
            eprintln!("FAIL: no adoption within {LAG_BUDGET} accesses of storm onset");
            failed = true;
        }
    }
    if adaptive_storm <= incumbent_storm + 0.02 {
        eprintln!(
            "FAIL: adaptive pool must clearly beat the static {} incumbent under the scan storm",
            INCUMBENT.name()
        );
        failed = true;
    }
    if quick && failed {
        std::process::exit(1);
    }
}
