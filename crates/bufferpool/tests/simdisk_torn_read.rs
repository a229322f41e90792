//! A `SimDisk` read copies a stored page under its stripe's shared lock
//! and an overwrite copies under the exclusive one, so a read never sees
//! half of one write and half of another. The
//! `dst_mutation = "simdisk_unguarded_read"` mutant drops the read's lock,
//! and this race must catch it (`scripts/mutants.sh`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bpw_bufferpool::{SimDisk, Storage};

/// Reads the two readers make between them before the writer stops, so
/// their copies overlap the writer's many times on any schedule.
const READS: u64 = 20_000;

#[test]
fn readers_racing_an_overwriting_writer_never_see_a_torn_page() {
    // The in-place overwrite happens under the write lock: a read is
    // all of one fill or all of the other.
    let d = SimDisk::instant();
    d.write_page(5, &[0xAA; 4096]).unwrap();
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|sc| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                sc.spawn(|| {
                    let mut buf = vec![0u8; 4096];
                    while !done.load(Ordering::Acquire) {
                        d.read_page(5, &mut buf).unwrap();
                        let fill = buf[0];
                        assert!(fill == 0xAA || fill == 0x55, "unknown fill {fill:#x}");
                        assert!(buf.iter().all(|&b| b == fill), "torn page");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // At least 4 000 writes, and on until the readers have read
        // enough; a reader that fails ends the race.
        let mut i = 0u64;
        while i < 4000
            || (reads.load(Ordering::Relaxed) < READS && !readers.iter().any(|r| r.is_finished()))
        {
            let fill = if i.is_multiple_of(2) { 0x55 } else { 0xAA };
            d.write_page(5, &[fill; 4096]).unwrap();
            i += 1;
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(d.written_pages(), 1);
}
