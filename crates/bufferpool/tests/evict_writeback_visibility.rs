//! Regression for the lost write on eviction: a dirty victim must stay
//! findable until its bytes are durable.
//!
//! The miss path used to unmap the victim *before* writing it back, so
//! a fetch of the victim racing the write-back found no mapping, loaded
//! the page into another frame from storage, and served the pre-write
//! bytes. The test parks the victim's `write_page` inside the device,
//! re-fetches the victim from a second thread while the write is parked,
//! and requires that the re-fetch does not finish before the write is
//! released and then returns the written bytes.

#![cfg(not(feature = "dst"))]

use std::io;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bpw_bufferpool::{BufferPool, SimDisk, Storage, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::{Lru, PageId};

const VICTIM: PageId = 1;
const MARK: u8 = 0xC4;

/// A disk whose write of [`VICTIM`] announces itself and then waits to
/// be released.
struct ParkingDisk {
    inner: SimDisk,
    parked: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Storage for ParkingDisk {
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> io::Result<()> {
        if page == VICTIM {
            self.parked.send(()).expect("test is listening");
            self.release
                .lock()
                .expect("no panic under this lock")
                .recv()
                .expect("test releases the write");
        }
        self.inner.write_page(page, buf)
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

#[test]
fn refetch_of_a_dirty_victim_waits_for_its_write_back() {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let disk = ParkingDisk {
        inner: SimDisk::instant(),
        parked: parked_tx,
        release: Mutex::new(release_rx),
    };
    // Two frames under LRU: page 1 is written then page 2 touched, so
    // fetching page 3 evicts the dirty page 1, and a concurrent miss on
    // page 1 has page 2's frame to take.
    let manager = WrappedManager::new(Lru::new(2), WrapperConfig::lock_per_access());
    let pool = BufferPool::new(2, 64, manager, Arc::new(disk));
    {
        let mut s = pool.session();
        s.fetch(VICTIM).unwrap().write(|d| d[20] = MARK);
        drop(s.fetch(2).unwrap());
    }

    std::thread::scope(|sc| {
        sc.spawn(|| drop(pool.session().fetch(3).unwrap()));
        parked_rx.recv().expect("eviction reaches the write-back");

        let (seen_tx, seen_rx) = mpsc::channel();
        let pool = &pool;
        sc.spawn(move || {
            let byte = pool.session().fetch(VICTIM).unwrap().read(|d| d[20]);
            seen_tx.send(byte).expect("test is listening");
        });
        // With the write parked the re-fetch cannot finish; give it time
        // to try. If it does finish, it went around the write-back.
        let early = seen_rx.recv_timeout(Duration::from_millis(100));
        release_tx.send(()).expect("disk is parked");
        let byte = early.unwrap_or_else(|_| seen_rx.recv().expect("re-fetch finishes"));

        assert_eq!(byte, MARK, "re-fetch served the pre-write bytes");
        assert!(early.is_err(), "re-fetch completed before the write-back");
    });
    assert_eq!(pool.free_frames() + pool.resident_count(), pool.frames());
    pool.check_mapping_invariants();
}
