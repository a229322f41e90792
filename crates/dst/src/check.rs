//! History checkers. Because the scheduler serializes virtual threads,
//! a run's history is a true linearization of the recorded operations;
//! these checkers validate the harness's three core invariants over it.
//! (The third invariant — serial-replay equivalence against a fresh
//! policy instance — lives in the test crates, which know the concrete
//! policy types; this crate stays dependency-free.)

use std::collections::{HashMap, VecDeque};

use crate::history::{Event, Op};

/// Summary returned by [`check_commit_order`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommitReport {
    pub records: u64,
    pub commits: u64,
    pub stale_commits: u64,
}

/// Checker (a): the batched commit preserves per-thread program order
/// and commits each recorded access **exactly once**, whether the
/// recording thread commits it at a threshold crossing, on a miss, or
/// in a flush.
///
/// Attribution: ownership is derived from the `RecordHit` stream, so
/// the checker does not depend on which task a commit runs on. Tests must give each virtual thread a disjoint
/// page set; the checker enforces this precondition.
///
/// Panics with a precise message on the first violation.
pub fn check_commit_order(events: &[Event]) -> CommitReport {
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut queues: HashMap<usize, VecDeque<(u64, u32)>> = HashMap::new();
    let mut report = CommitReport::default();
    for ev in events {
        match ev.op {
            Op::RecordHit { page, frame } => {
                let prev = *owner.entry(page).or_insert(ev.task);
                assert_eq!(
                    prev, ev.task,
                    "checker precondition violated: page {page} recorded by \
                     task {prev} and task {}; give each task a disjoint page set",
                    ev.task
                );
                queues.entry(ev.task).or_default().push_back((page, frame));
                report.records += 1;
            }
            Op::CommitHit {
                page,
                frame,
                applied,
            } => {
                let t = *owner
                    .get(&page)
                    .unwrap_or_else(|| panic!("commit of page {page} that was never recorded"));
                let front = queues
                    .get_mut(&t)
                    .and_then(|q| q.pop_front())
                    .unwrap_or_else(|| {
                        panic!(
                            "task {t}: commit of ({page},{frame}) but no recorded \
                             access is outstanding — committed more than once?"
                        )
                    });
                assert_eq!(
                    front,
                    (page, frame),
                    "program order violated for task {t}: committed ({page},{frame}) \
                     but its next outstanding recorded access was {front:?}"
                );
                report.commits += 1;
                if !applied {
                    report.stale_commits += 1;
                }
            }
            _ => {}
        }
    }
    for (t, q) in &queues {
        assert!(
            q.is_empty(),
            "task {t}: {} recorded accesses were never committed (lost batch); \
             first lost: {:?}",
            q.len(),
            q.front()
        );
    }
    assert_eq!(report.records, report.commits);
    report
}

/// Summary returned by [`check_pin_balance`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PinReport {
    pub pins: u64,
    pub unpins: u64,
    /// Largest pin count any single page reached.
    pub max_pins: u32,
}

/// Checker (d): lock-free pins and unpins balance. A page resides in at
/// most one frame at a time and a pinned frame can be neither evicted
/// nor invalidated (the victim filter rejects `pins > 0`, invalidate
/// reports `Busy`), so a frame's tag is stable while pinned — which
/// makes per-page accounting sound over the linearized history: each
/// page's running pin balance must never go negative (an unpin without
/// a matching pin — the release-mode underflow the packed header
/// saturates) and must end at zero when every guard was dropped
/// (`expect_drained`).
pub fn check_pin_balance(events: &[Event], expect_drained: bool) -> PinReport {
    let mut held: HashMap<u64, i64> = HashMap::new();
    let mut report = PinReport::default();
    for ev in events {
        match ev.op {
            Op::Pin { page, pins } => {
                let bal = held.entry(page).or_insert(0);
                *bal += 1;
                report.pins += 1;
                report.max_pins = report.max_pins.max(pins);
            }
            Op::Unpin { page, .. } => {
                let bal = held.entry(page).or_insert(0);
                *bal -= 1;
                assert!(
                    *bal >= 0,
                    "pin underflow: task {} unpinned page {page} more times \
                     than it was pinned",
                    ev.task
                );
                report.unpins += 1;
            }
            _ => {}
        }
    }
    if expect_drained {
        for (page, bal) in &held {
            assert_eq!(
                *bal, 0,
                "page {page} ended with {bal} outstanding pin(s) after every \
                 guard was dropped (leaked pin blocks eviction forever)"
            );
        }
    }
    report
}

/// Summary returned by [`check_free_list`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FreeListReport {
    pub pops: u64,
    /// Pops that answered `None`.
    pub empty_pops: u64,
    pub pushes: u64,
    pub free_at_end: u32,
}

/// Checker (b): the free list never double-allocates a frame and never
/// loses one, and a pop never answers `None` past a frame that was
/// linked the whole time the pop ran — a push raises the list's count
/// before it records the frame, so the count's zero is exact.
///
/// `initially_free` is the set of frames sitting on the free list when
/// recording started (for a fresh pool: all frames). Replays every
/// push/pop in linearization order against a reference set.
pub fn check_free_list(events: &[Event], frames: u32, initially_free: bool) -> FreeListReport {
    let mut free = vec![initially_free; frames as usize];
    // 1-based index of the push that linked each free frame (0: before
    // recording started), and of each task's latest event.
    let mut linked_at = vec![0usize; frames as usize];
    let mut last_event: HashMap<usize, usize> = HashMap::new();
    let mut report = FreeListReport::default();
    for (i, ev) in events.iter().enumerate() {
        match ev.op {
            Op::FreePopEmpty => {
                // The pop began after its task's previous event. A
                // frame whose push was recorded by then (recording is
                // the last thing a push does, so it had returned) and
                // that nobody popped since was linked throughout.
                let began = last_event.get(&ev.task).copied().unwrap_or(0);
                if let Some(f) = (0..frames as usize).find(|&f| free[f] && linked_at[f] <= began) {
                    panic!(
                        "pop answered None past a linked frame: task {} began \
                         its pop after event {began}, frame {f} was linked at \
                         event {} and is still on the list (count dropped \
                         below the frames linked?)",
                        ev.task, linked_at[f]
                    );
                }
                report.empty_pops += 1;
            }
            Op::FreePop { frame } => {
                let slot = free.get_mut(frame as usize).unwrap_or_else(|| {
                    panic!("pop of out-of-range frame {frame} (frames={frames})")
                });
                assert!(
                    *slot,
                    "double allocation: task {} popped frame {frame} while it \
                     was already allocated",
                    ev.task
                );
                *slot = false;
                report.pops += 1;
            }
            Op::FreePush { frame } => {
                let slot = free.get_mut(frame as usize).unwrap_or_else(|| {
                    panic!("push of out-of-range frame {frame} (frames={frames})")
                });
                assert!(
                    !*slot,
                    "duplicate free: task {} pushed frame {frame} while it was \
                     already on the free list",
                    ev.task
                );
                *slot = true;
                linked_at[frame as usize] = i + 1;
                report.pushes += 1;
            }
            _ => {}
        }
        last_event.insert(ev.task, i + 1);
    }
    report.free_at_end = free.iter().filter(|&&f| f).count() as u32;
    report
}

/// Summary returned by [`check_read_your_writes`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadYourWritesReport {
    pub writes: u64,
    pub reads: u64,
    /// Evictions of a page written since it was loaded.
    pub dirty_evictions: u64,
    /// Reads of a page whose latest write had been evicted.
    pub reads_through_eviction: u64,
}

/// Checker (g): a page reads back its latest write whether or not it
/// stayed resident in between. Every `PageRead` must carry the stamp of
/// the latest `PageWrite` of its page earlier in the history — in
/// particular after that write's frame was evicted dirty (`MissApply`
/// or `EvictAhead` naming the page as victim), where the bytes must
/// come back from storage. Both events are recorded under the frame's
/// content lock, so the history orders them as the accesses happened.
/// Reads of a page nobody has written yet are not checked: what storage
/// held is the test's business.
pub fn check_read_your_writes(events: &[Event]) -> ReadYourWritesReport {
    #[derive(Default)]
    struct Page {
        stamp: Option<u64>,
        dirty: bool,
        evicted_dirty: bool,
    }
    let mut pages: HashMap<u64, Page> = HashMap::new();
    let mut report = ReadYourWritesReport::default();
    for ev in events {
        match ev.op {
            Op::PageWrite { page, stamp } => {
                let p = pages.entry(page).or_default();
                p.stamp = Some(stamp);
                p.dirty = true;
                p.evicted_dirty = false;
                report.writes += 1;
            }
            Op::MissApply {
                victim: Some(v), ..
            }
            | Op::EvictAhead { victim: v, .. } => {
                let p = pages.entry(v).or_default();
                if p.dirty {
                    p.dirty = false;
                    p.evicted_dirty = true;
                    report.dirty_evictions += 1;
                }
            }
            Op::PageRead { page, stamp } => {
                let p = pages.entry(page).or_default();
                report.reads += 1;
                let Some(written) = p.stamp else { continue };
                assert_eq!(
                    stamp,
                    written,
                    "lost write: task {} read stamp {stamp} from page {page} \
                     after stamp {written} was written{}",
                    ev.task,
                    if p.evicted_dirty {
                        " and its frame evicted dirty — the fetch went to \
                         storage before the write-back got there"
                    } else {
                        ""
                    }
                );
                if p.evicted_dirty {
                    p.evicted_dirty = false;
                    report.reads_through_eviction += 1;
                }
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: usize, op: Op) -> Event {
        Event { task, op }
    }

    #[test]
    fn commit_order_accepts_interleaved_batches() {
        let events = vec![
            ev(0, Op::RecordHit { page: 1, frame: 0 }),
            ev(1, Op::RecordHit { page: 10, frame: 1 }),
            ev(0, Op::RecordHit { page: 2, frame: 2 }),
            // Program order per task, any interleaving across tasks.
            ev(
                1,
                Op::CommitHit {
                    page: 10,
                    frame: 1,
                    applied: true,
                },
            ),
            ev(
                1,
                Op::CommitHit {
                    page: 1,
                    frame: 0,
                    applied: true,
                },
            ),
            ev(
                1,
                Op::CommitHit {
                    page: 2,
                    frame: 2,
                    applied: false,
                },
            ),
        ];
        let report = check_commit_order(&events);
        assert_eq!(report.records, 3);
        assert_eq!(report.commits, 3);
        assert_eq!(report.stale_commits, 1);
    }

    #[test]
    #[should_panic(expected = "program order violated")]
    fn commit_order_rejects_reordered_commits() {
        let events = vec![
            ev(0, Op::RecordHit { page: 1, frame: 0 }),
            ev(0, Op::RecordHit { page: 2, frame: 1 }),
            ev(
                0,
                Op::CommitHit {
                    page: 2,
                    frame: 1,
                    applied: true,
                },
            ),
            ev(
                0,
                Op::CommitHit {
                    page: 1,
                    frame: 0,
                    applied: true,
                },
            ),
        ];
        check_commit_order(&events);
    }

    #[test]
    #[should_panic(expected = "never committed")]
    fn commit_order_rejects_lost_batch() {
        let events = vec![ev(0, Op::RecordHit { page: 1, frame: 0 })];
        check_commit_order(&events);
    }

    #[test]
    #[should_panic(expected = "more than once")]
    fn commit_order_rejects_double_commit() {
        let events = vec![
            ev(0, Op::RecordHit { page: 1, frame: 0 }),
            ev(
                0,
                Op::CommitHit {
                    page: 1,
                    frame: 0,
                    applied: true,
                },
            ),
            ev(
                0,
                Op::CommitHit {
                    page: 1,
                    frame: 0,
                    applied: true,
                },
            ),
        ];
        check_commit_order(&events);
    }

    #[test]
    fn pin_balance_accepts_matched_pairs() {
        let events = vec![
            ev(0, Op::Pin { page: 1, pins: 1 }),
            ev(1, Op::Pin { page: 1, pins: 2 }),
            ev(0, Op::Unpin { page: 1, pins: 1 }),
            ev(1, Op::Unpin { page: 1, pins: 0 }),
        ];
        let report = check_pin_balance(&events, true);
        assert_eq!(report.pins, 2);
        assert_eq!(report.unpins, 2);
        assert_eq!(report.max_pins, 2);
    }

    #[test]
    #[should_panic(expected = "pin underflow")]
    fn pin_balance_rejects_underflow() {
        let events = vec![
            ev(0, Op::Pin { page: 1, pins: 1 }),
            ev(0, Op::Unpin { page: 1, pins: 0 }),
            ev(1, Op::Unpin { page: 1, pins: 0 }),
        ];
        check_pin_balance(&events, true);
    }

    #[test]
    #[should_panic(expected = "outstanding pin")]
    fn pin_balance_rejects_leaked_pin() {
        let events = vec![ev(0, Op::Pin { page: 3, pins: 1 })];
        check_pin_balance(&events, true);
    }

    #[test]
    fn free_list_accepts_balanced_traffic() {
        let events = vec![
            ev(0, Op::FreePop { frame: 0 }),
            ev(1, Op::FreePop { frame: 1 }),
            ev(0, push(0)),
            ev(1, Op::FreePop { frame: 0 }),
        ];
        let report = check_free_list(&events, 2, true);
        assert_eq!(report.pops, 3);
        assert_eq!(report.pushes, 1);
        assert_eq!(report.free_at_end, 0);
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn free_list_rejects_double_allocation() {
        let events = vec![
            ev(0, Op::FreePop { frame: 0 }),
            ev(1, Op::FreePop { frame: 0 }),
        ];
        check_free_list(&events, 2, true);
    }

    fn push(frame: u32) -> Op {
        Op::FreePush { frame }
    }

    #[test]
    fn free_list_accepts_none_from_a_drained_or_racing_list() {
        let drained = vec![ev(0, Op::FreePop { frame: 0 }), ev(1, Op::FreePopEmpty)];
        assert_eq!(check_free_list(&drained, 1, true).empty_pops, 1);
        // Task 1's pop began some time after its own event 1; the push is
        // event 2 and may have landed behind the pop's back.
        let racing = vec![
            ev(1, Op::FreePop { frame: 0 }),
            ev(0, push(0)),
            ev(1, Op::FreePopEmpty),
        ];
        assert_eq!(check_free_list(&racing, 1, true).empty_pops, 1);
    }

    #[test]
    #[should_panic(expected = "past a linked frame")]
    fn free_list_rejects_none_past_a_frame_linked_throughout() {
        let events = vec![
            ev(0, Op::FreePop { frame: 0 }),
            ev(0, push(0)),
            ev(1, Op::FreePop { frame: 1 }),
            // Frame 0 went back before task 1's previous event and
            // nobody has taken it since.
            ev(1, Op::FreePopEmpty),
        ];
        check_free_list(&events, 2, true);
    }

    fn evict(victim: u64) -> Op {
        Op::MissApply {
            page: 99,
            free: None,
            frame: Some(0),
            victim: Some(victim),
        }
    }

    #[test]
    fn read_your_writes_accepts_reads_of_the_latest_write() {
        let events = vec![
            ev(1, Op::PageRead { page: 1, stamp: 77 }), // nothing written yet
            ev(0, Op::PageWrite { page: 1, stamp: 1 }),
            ev(1, Op::PageRead { page: 1, stamp: 1 }),
            ev(0, evict(1)),
            ev(0, evict(1)), // reloaded clean and evicted again
            ev(1, Op::PageRead { page: 1, stamp: 1 }),
            ev(0, Op::PageWrite { page: 1, stamp: 2 }),
            ev(1, Op::PageRead { page: 1, stamp: 2 }),
        ];
        let report = check_read_your_writes(&events);
        assert_eq!(report.writes, 2);
        assert_eq!(report.reads, 4);
        assert_eq!(report.dirty_evictions, 1);
        assert_eq!(report.reads_through_eviction, 1);
    }

    #[test]
    #[should_panic(expected = "lost write")]
    fn read_your_writes_rejects_a_stale_read_after_eviction() {
        let events = vec![
            ev(0, Op::PageWrite { page: 1, stamp: 1 }),
            ev(0, Op::PageWrite { page: 1, stamp: 2 }),
            ev(0, evict(1)),
            ev(1, Op::PageRead { page: 1, stamp: 1 }),
        ];
        check_read_your_writes(&events);
    }

    #[test]
    #[should_panic(expected = "duplicate free")]
    fn free_list_rejects_duplicate_free() {
        let events = vec![
            ev(0, Op::FreePop { frame: 0 }),
            ev(0, push(0)),
            ev(1, push(0)),
        ];
        check_free_list(&events, 2, true);
    }
}
