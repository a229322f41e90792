//! Hit-ratio bake-off: every replacement policy across the three paper
//! workloads and two synthetic stress patterns, at several cache sizes.
//! This is the "advanced algorithms earn their complexity" half of the
//! paper's argument — the half BP-Wrapper preserves.
//!
//! `best-paper` is the best of the paper's advanced five (LRU, 2Q, LIRS,
//! MQ, ARC); `wins` names every other policy that beats it by more than
//! `WIN_MARGIN` relative on that row. A policy outside the five stays in
//! the crate only with such a win somewhere (`tests/policy_set.rs`).
//!
//! Run with: `cargo run --release --example compare_policies`

use bpw_bench::{interleaved_trace, WIN_MARGIN};
use bpw_replacement::{CacheSim, PolicyKind};
use bpw_workloads::{WorkloadKind, ZipfWorkload};

fn main() {
    let mut scenarios: Vec<(String, Vec<u64>, Vec<usize>)> = Vec::new();
    for kind in WorkloadKind::ALL {
        let trace = interleaved_trace(&*kind.build(), 4, 600, 0xCAFE);
        let distinct = {
            let mut v = trace.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let sizes = [50, 20, 10, 5, 3, 2].map(|d| distinct / d).to_vec();
        scenarios.push((kind.name().to_owned(), trace, sizes));
    }
    // Loop slightly larger than cache: LRU pathology. One thread, pure
    // cycle — interleaved staggered scans would dilute the effect.
    let loop_trace: Vec<u64> = (0..1100u64).cycle().take(13_200).collect();
    scenarios.push(("Loop-1100".to_owned(), loop_trace, vec![500, 1000, 1050]));
    // Heavy Zipf point accesses.
    let zipf = ZipfWorkload::new(50_000, 0.9, 20);
    scenarios.push((
        "Zipf-0.9".to_owned(),
        interleaved_trace(&zipf, 4, 2_000, 0xCAFE),
        vec![250, 500, 1_000, 2_500, 5_000],
    ));

    for (name, trace, sizes) in &scenarios {
        println!("=== {name} ({} accesses) ===", trace.len());
        print!("{:>10}", "frames");
        for kind in PolicyKind::ALL {
            print!("{:>10}", kind.name());
        }
        println!("{:>11}  wins", "best-paper");
        for &frames in sizes {
            let frames = frames.max(16);
            print!("{frames:>10}");
            let mut ratios = Vec::new();
            for kind in PolicyKind::ALL {
                let mut sim = CacheSim::new(kind.build(frames));
                let hr = sim.run(trace.iter().copied()).hit_ratio();
                print!("{:>9.2}%", hr * 100.0);
                ratios.push((kind, hr));
            }
            let best_paper = ratios
                .iter()
                .filter(|(k, _)| PolicyKind::ADVANCED.contains(k))
                .map(|&(_, hr)| hr)
                .fold(0.0, f64::max);
            let wins: Vec<&str> = ratios
                .iter()
                .filter(|&&(k, hr)| {
                    !PolicyKind::ADVANCED.contains(&k) && hr > best_paper * (1.0 + WIN_MARGIN)
                })
                .map(|(k, _)| k.name())
                .collect();
            println!("{:>10.2}%  {}", best_paper * 100.0, wins.join(" "));
        }
        println!();
    }
    println!("Note the Loop rows: CLOCK/LRU collapse on a loop 10% larger than the cache,");
    println!("while LIRS keeps most of it resident — the kind of advantage the paper says");
    println!("DBMSs were giving up by retreating to clock approximations.");
}
