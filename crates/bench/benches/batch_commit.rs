//! Microbenchmark: Fig. 2 in microcosm — cost of committing a batch of
//! queued accesses as the batch size grows. Total cost per access should
//! fall as the fixed acquisition cost amortizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::{Lirs, ReplacementPolicy};

const FRAMES: usize = 4096;

fn bench_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("batched_commit_per_access");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_millis(500));
    g.warm_up_time(std::time::Duration::from_millis(200));
    for batch in [1usize, 4, 16, 64] {
        let cfg = WrapperConfig {
            queue_size: batch,
            batch_threshold: batch, // commit exactly at `batch`
            prefetching: true,
            combining: bpw_core::Combining::Off,
        };
        let wrapper = BpWrapper::new(Lirs::new(FRAMES), cfg);
        wrapper.with_locked(|p| {
            for i in 0..FRAMES as u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        let mut handle = wrapper.handle();
        let mut x = 7u64;
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                for _ in 0..batch {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % FRAMES as u64;
                    handle.record_hit(black_box(page), page as u32);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_commit);
criterion_main!(benches);
