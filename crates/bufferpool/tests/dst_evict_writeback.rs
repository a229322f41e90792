//! Deterministic-simulation test of read-your-writes through eviction:
//! one task keeps stamping a page and churning it out of a two-frame
//! pool dirty, the other keeps fetching it. Whatever the schedule, a
//! fetch must read the latest stamp — from the frame, or from storage
//! once the write-back has put it there. The window under test is the
//! one between a dirty victim leaving its frame and `write_page`
//! returning, held open by a device that takes its time over a write;
//! the `early_unmap` mutant lets a fetch through it.

#![cfg(feature = "dst")]

use std::io;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, SimDisk, Storage, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_dst::check::check_read_your_writes;
use bpw_dst::{Op, RunOutcome, Sim};
use bpw_replacement::{Lru, PageId};

const FRAMES: usize = 2;
const PAGE: u64 = 1;
const ROUNDS: u64 = 4;

/// A device whose writes are in flight for a while: the writing task
/// gives its turn away this many times before the bytes land, which is
/// room for the other task to run a whole fetch.
struct SlowWrites(SimDisk);

impl Storage for SlowWrites {
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> io::Result<()> {
        for _ in 0..32 {
            bpw_dst::yield_now();
        }
        self.0.write_page(page, buf)
    }

    fn reads(&self) -> u64 {
        self.0.reads()
    }

    fn writes(&self) -> u64 {
        self.0.writes()
    }
}

fn run(seed: u64, pct: bool) -> RunOutcome {
    let pool = Arc::new(BufferPool::new(
        FRAMES,
        64,
        WrappedManager::new(
            Lru::new(FRAMES),
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(2),
        ),
        Arc::new(SlowWrites(SimDisk::instant())),
    ));
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            for stamp in 1..=ROUNDS {
                s.fetch(PAGE).unwrap().write(|d| {
                    d[8..16].copy_from_slice(&stamp.to_le_bytes());
                    bpw_dst::record(|| Op::PageWrite { page: PAGE, stamp });
                });
                // Two more pages through two frames: PAGE leaves dirty.
                for other in [2, 3] {
                    drop(s.fetch(other).unwrap());
                }
            }
        });
    }
    sim.spawn(move || {
        let mut s = pool.session();
        for _ in 0..2 * ROUNDS {
            s.fetch(PAGE).unwrap().read(|d| {
                let stamp = u64::from_le_bytes(d[8..16].try_into().unwrap());
                bpw_dst::record(|| Op::PageRead { page: PAGE, stamp });
            });
            bpw_dst::yield_now();
        }
    });
    sim.run()
}

#[test]
fn dst_fetch_after_dirty_eviction_reads_the_write() {
    let mut through_eviction = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xD127, 48).iter().enumerate() {
        let out = run(*seed, i % 3 == 2);
        out.expect_clean();
        out.check(|o| {
            let report = check_read_your_writes(&o.history);
            assert_eq!(report.writes, ROUNDS);
            assert_eq!(report.reads, 2 * ROUNDS);
            through_eviction += report.reads_through_eviction;
        });
    }
    assert!(
        through_eviction > 0,
        "no fetch followed a dirty eviction of its page; vacuous"
    );
}
