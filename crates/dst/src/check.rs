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
    pub publishes: u64,
    pub reclaims: u64,
    pub combines: u64,
}

/// Checker (a): the combining commit preserves per-thread program order
/// and commits each recorded access **exactly once**, no matter which
/// thread (recorder, combiner, or flusher) performs the commit.
///
/// Attribution: commits do not carry the recording task (a combiner
/// commits other threads' batches), so ownership is derived from the
/// `RecordHit` stream. Tests must give each virtual thread a disjoint
/// page set; the checker enforces this precondition.
///
/// Panics with a precise message on the first violation.
pub fn check_commit_order(events: &[Event]) -> CommitReport {
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut queues: HashMap<usize, VecDeque<(u64, u32)>> = HashMap::new();
    let mut report = CommitReport {
        records: 0,
        commits: 0,
        stale_commits: 0,
        publishes: 0,
        reclaims: 0,
        combines: 0,
    };
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
            Op::PublishBatch { .. } => report.publishes += 1,
            Op::ReclaimBatch { .. } => report.reclaims += 1,
            Op::CombineBatch { .. } => report.combines += 1,
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

/// Summary returned by [`check_combine_fairness`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FairnessReport {
    /// Combining critical sections observed.
    pub drains: u64,
    /// Largest number of drain passes any one critical section ran.
    pub max_passes: u32,
    /// Largest number of batches any one critical section retired.
    pub max_batches: u32,
}

/// Checker (c): combining critical sections respect the fairness bound.
/// Each `CombineDrain` event summarizes one lock tenure's draining;
/// `bound` is the wrapper's `MAX_COMBINE_PASSES`. The unbounded-combiner
/// mutant (`dst_mutation = "fairness"`) keeps draining as long as
/// publishers feed it, so under a schedule that interleaves publishes
/// into the drain it exceeds the bound and this checker panics.
pub fn check_combine_fairness(events: &[Event], bound: u32) -> FairnessReport {
    let mut report = FairnessReport::default();
    for ev in events {
        if let Op::CombineDrain { passes, batches } = ev.op {
            report.drains += 1;
            report.max_passes = report.max_passes.max(passes);
            report.max_batches = report.max_batches.max(batches);
            assert!(
                passes <= bound,
                "fairness bound violated: task {} ran {passes} drain passes \
                 (bound {bound}) in one critical section, retiring {batches} \
                 batches — an unbounded combiner starves under a steady \
                 publisher stream",
                ev.task
            );
        }
    }
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
    pub cold_pushes: u64,
    pub free_at_end: u32,
}

/// Checker (b): the striped free list never double-allocates a frame
/// and never loses one, across home-stripe, steal, and cold paths, and
/// a pop never answers `None` past a frame that was linked the whole
/// time the pop ran — the list's count is an upper bound on the frames
/// linked, so its zero is exact.
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
                     was already allocated (ABA?)",
                    ev.task
                );
                *slot = false;
                report.pops += 1;
            }
            Op::FreePush { frame, cold } => {
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
                if cold {
                    report.cold_pushes += 1;
                }
            }
            _ => {}
        }
        last_event.insert(ev.task, i + 1);
    }
    report.free_at_end = free.iter().filter(|&&f| f).count() as u32;
    report
}

/// Summary returned by [`check_swap_epoch`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwapEpochReport {
    /// Generations installed during the run.
    pub installs: u64,
    /// Generations retired during the run.
    pub retires: u64,
    /// Epoch entries observed.
    pub enters: u64,
    /// Highest generation installed.
    pub max_gen: u64,
}

/// Checker (e): the manager hot-swap epoch protocol. Asserts, over the
/// linearized history:
///
/// * install generations are strictly increasing (no double-install,
///   no regression), and
/// * **no access is ever applied to a retired manager**: every
///   `MgrEnter { gen }` precedes the `SwapRetire { gen }` of its
///   generation. Generation 0 exists from startup without an install
///   event.
pub fn check_swap_epoch(events: &[Event]) -> SwapEpochReport {
    let mut retired: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut last_install: Option<u64> = None;
    let mut report = SwapEpochReport::default();
    for ev in events {
        match ev.op {
            Op::SwapInstall { gen } => {
                if let Some(prev) = last_install {
                    assert!(
                        gen > prev,
                        "swap install generations must be strictly increasing: \
                         task {} installed gen {gen} after gen {prev}",
                        ev.task
                    );
                }
                assert!(
                    gen > 0,
                    "generation 0 is the startup manager and cannot be installed"
                );
                last_install = Some(gen);
                report.installs += 1;
                report.max_gen = report.max_gen.max(gen);
            }
            Op::SwapRetire { gen } => {
                assert!(
                    retired.insert(gen),
                    "task {} retired generation {gen} twice",
                    ev.task
                );
                report.retires += 1;
            }
            Op::MgrEnter { gen } => {
                assert!(
                    !retired.contains(&gen),
                    "access applied to a retired manager: task {} entered \
                     generation {gen} after its SwapRetire — quiescence did \
                     not hold",
                    ev.task
                );
                report.enters += 1;
            }
            _ => {}
        }
    }
    report
}

/// Summary returned by [`check_hit_conservation`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConservationReport {
    pub records: u64,
    pub commits: u64,
}

/// Checker (f): every recorded hit is committed **exactly once**, as a
/// multiset over `(page, frame)` — the swap-tolerant relaxation of
/// [`check_commit_order`]. A hot-swap may legally reorder advice (a
/// thread's pre-swap *published* batch is replayed by the swap
/// coordinator, possibly after the thread's post-swap queue has already
/// committed), so per-task FIFO order does not survive a swap; but
/// conservation must: the `swap_no_drain` mutant strands published
/// batches on the retired manager's board, and this checker reports
/// them as recorded-but-never-committed.
pub fn check_hit_conservation(events: &[Event]) -> ConservationReport {
    let mut outstanding: HashMap<(u64, u32), i64> = HashMap::new();
    let mut report = ConservationReport::default();
    for ev in events {
        match ev.op {
            Op::RecordHit { page, frame } => {
                *outstanding.entry((page, frame)).or_insert(0) += 1;
                report.records += 1;
            }
            Op::CommitHit { page, frame, .. } => {
                let n = outstanding.entry((page, frame)).or_insert(0);
                assert!(
                    *n > 0,
                    "task {} committed ({page},{frame}) more times than it was \
                     recorded",
                    ev.task
                );
                *n -= 1;
                report.commits += 1;
            }
            _ => {}
        }
    }
    let lost: i64 = outstanding.values().sum();
    assert_eq!(
        lost,
        0,
        "{lost} recorded access(es) were never committed — stranded on a \
         retired manager's publication board? first: {:?}",
        outstanding.iter().find(|(_, &v)| v > 0).map(|(k, _)| *k)
    );
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
            // Task 1 commits its own access, then combines task 0's
            // batch — program order per task, any interleaving across.
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
    fn fairness_accepts_bounded_drains() {
        let events = vec![
            ev(
                0,
                Op::CombineDrain {
                    passes: 2,
                    batches: 5,
                },
            ),
            ev(
                1,
                Op::CombineDrain {
                    passes: 1,
                    batches: 1,
                },
            ),
        ];
        let report = check_combine_fairness(&events, 2);
        assert_eq!(report.drains, 2);
        assert_eq!(report.max_passes, 2);
        assert_eq!(report.max_batches, 5);
    }

    #[test]
    #[should_panic(expected = "fairness bound violated")]
    fn fairness_rejects_unbounded_combiner() {
        let events = vec![ev(
            0,
            Op::CombineDrain {
                passes: 3,
                batches: 9,
            },
        )];
        check_combine_fairness(&events, 2);
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
            ev(
                0,
                Op::FreePush {
                    frame: 0,
                    cold: true,
                },
            ),
            ev(1, Op::FreePop { frame: 0 }),
        ];
        let report = check_free_list(&events, 2, true);
        assert_eq!(report.pops, 3);
        assert_eq!(report.cold_pushes, 1);
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
        Op::FreePush { frame, cold: false }
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
    fn swap_epoch_accepts_clean_swap() {
        let events = vec![
            ev(1, Op::MgrEnter { gen: 0 }),
            ev(0, Op::SwapInstall { gen: 1 }),
            ev(1, Op::MgrEnter { gen: 0 }), // straggler before retire: fine
            ev(0, Op::SwapRetire { gen: 0 }),
            ev(1, Op::MgrEnter { gen: 1 }),
            ev(0, Op::SwapInstall { gen: 2 }),
            ev(0, Op::SwapRetire { gen: 1 }),
            ev(2, Op::MgrEnter { gen: 2 }),
        ];
        let report = check_swap_epoch(&events);
        assert_eq!(report.installs, 2);
        assert_eq!(report.retires, 2);
        assert_eq!(report.enters, 4);
        assert_eq!(report.max_gen, 2);
    }

    #[test]
    #[should_panic(expected = "retired manager")]
    fn swap_epoch_rejects_entry_after_retire() {
        let events = vec![
            ev(0, Op::SwapInstall { gen: 1 }),
            ev(0, Op::SwapRetire { gen: 0 }),
            ev(1, Op::MgrEnter { gen: 0 }),
        ];
        check_swap_epoch(&events);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn swap_epoch_rejects_generation_regression() {
        let events = vec![
            ev(0, Op::SwapInstall { gen: 2 }),
            ev(0, Op::SwapInstall { gen: 2 }),
        ];
        check_swap_epoch(&events);
    }

    #[test]
    fn conservation_accepts_swap_reordered_commits() {
        // A swap coordinator replays a published batch *after* the
        // owning thread's newer queue already committed: FIFO order is
        // violated (check_commit_order would panic) but conservation
        // holds.
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
                1,
                Op::CommitHit {
                    page: 1,
                    frame: 0,
                    applied: false,
                },
            ),
        ];
        let report = check_hit_conservation(&events);
        assert_eq!(report.records, 2);
        assert_eq!(report.commits, 2);
    }

    #[test]
    #[should_panic(expected = "never committed")]
    fn conservation_rejects_stranded_advice() {
        let events = vec![
            ev(0, Op::RecordHit { page: 1, frame: 0 }),
            ev(0, Op::RecordHit { page: 2, frame: 1 }),
            ev(
                0,
                Op::CommitHit {
                    page: 1,
                    frame: 0,
                    applied: true,
                },
            ),
        ];
        check_hit_conservation(&events);
    }

    #[test]
    #[should_panic(expected = "more times than it was")]
    fn conservation_rejects_double_commit() {
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
        check_hit_conservation(&events);
    }

    #[test]
    #[should_panic(expected = "duplicate free")]
    fn free_list_rejects_duplicate_free() {
        let events = vec![
            ev(0, Op::FreePop { frame: 0 }),
            ev(
                0,
                Op::FreePush {
                    frame: 0,
                    cold: false,
                },
            ),
            ev(
                1,
                Op::FreePush {
                    frame: 0,
                    cold: false,
                },
            ),
        ];
        check_free_list(&events, 2, true);
    }
}
