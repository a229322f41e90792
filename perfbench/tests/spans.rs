//! Self time is duration minus children: over a tree, the self times add
//! up to the root's duration.

use std::time::Instant;

use bpw_perfbench::spans::{self_times, KindTotals, SpanKind, SpanLog, NO_PARENT};

#[test]
fn self_times_of_a_tree_sum_to_the_root() {
    let mut log = SpanLog::with_capacity(Instant::now(), 16);
    // txn [0, 1000] > fetch [10, 400], read [400, 650], unpin [650, 990]
    let root = log.begin(SpanKind::Txn, NO_PARENT, 1, 0);
    log.record(SpanKind::FetchHit, root, 1, 10, 400);
    log.record(SpanKind::Read, root, 1, 400, 650);
    log.record(SpanKind::Unpin, root, 1, 650, 990);
    log.end(root, 1000);
    // A second root with one child that has a child of its own.
    let batch = log.begin(SpanKind::Batch, NO_PARENT, 2, 2000);
    let wait = log.begin(SpanKind::Wait, batch, 2, 2100);
    log.record(SpanKind::Decode, wait, 2, 2200, 2250);
    log.end(wait, 2600);
    log.end(batch, 3000);

    let own = self_times(log.spans());
    assert_eq!(own, [20, 390, 250, 340, 500, 450, 50]);
    assert_eq!(own[..4].iter().sum::<u64>(), 1000);
    assert_eq!(own[4..].iter().sum::<u64>(), 1000);

    let mut totals = KindTotals::default();
    totals.add_log(&log);
    assert_eq!(totals.mean_self_ns(SpanKind::Read), 250.0);
    assert_eq!(totals.mean_self_ns(SpanKind::Write), 0.0);
}

#[test]
fn a_full_log_counts_what_it_drops() {
    let mut log = SpanLog::with_capacity(Instant::now(), 1);
    let root = log.begin(SpanKind::Txn, NO_PARENT, 1, 0);
    log.record(SpanKind::Read, root, 1, 0, 5);
    log.end(root, 10);
    assert_eq!(log.spans().len(), 1);
    assert_eq!(log.dropped, 1);
}
