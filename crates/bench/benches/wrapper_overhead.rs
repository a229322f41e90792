//! Microbenchmark: per-hit cost of each synchronization scheme on one
//! thread — what a backend pays on its own fast path. The paper's claim
//! is that BP-Wrapper's recording cost (a queue push) is comparable to
//! CLOCK's bit-set, while lock-per-access pays an acquisition every time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bpw_bufferpool::{ClockManager, ReplacementManager};
use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::{ReplacementPolicy, TwoQ};

const FRAMES: usize = 4096;

fn warmed(cfg: WrapperConfig) -> BpWrapper<TwoQ> {
    let w = BpWrapper::new(TwoQ::new(FRAMES), cfg);
    w.with_locked(|p| {
        for i in 0..FRAMES as u64 {
            p.record_miss(i, Some(i as u32), &mut |_| true);
        }
    });
    w
}

fn bench_hit_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("hit_path_single_thread");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_millis(500));
    g.warm_up_time(std::time::Duration::from_millis(200));

    let clock = ClockManager::new(FRAMES);
    let mut handle = clock.handle();
    let mut x = 1u64;
    g.bench_function("pgClock_bit_set", |b| {
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = x % FRAMES as u64;
            handle.on_hit(black_box(page), page as u32);
        })
    });

    for (name, cfg) in [
        ("pgQ_lock_per_access", WrapperConfig::lock_per_access()),
        ("pgBat_batch32", WrapperConfig::batching_only()),
        (
            "pgBatPre_batch32_prefetch",
            WrapperConfig::batching_and_prefetching(),
        ),
    ] {
        let wrapper = warmed(cfg);
        let mut handle = wrapper.handle();
        let mut x = 1u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let page = x % FRAMES as u64;
                handle.record_hit(black_box(page), page as u32);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hit_path);
criterion_main!(benches);
