//! End-to-end behaviour of the global collector: the enabled flag
//! gates recording, multi-threaded records land in per-thread rings,
//! and the drained stream exports to valid Chrome trace JSON.
//!
//! The collector is process-global, so these tests share it; each test
//! tags its events with a unique `arg` marker and filters on it, and
//! tests that toggle the enabled flag serialize on a lock.

use std::sync::Mutex;

use bpw_metrics::JsonValue;
use bpw_trace::{EventKind, TraceEvent};

static FLAG: Mutex<()> = Mutex::new(());

fn my_events(marker: u64) -> Vec<TraceEvent> {
    bpw_trace::drain()
        .into_iter()
        .filter(|e| e.arg == marker)
        .collect()
}

#[test]
fn disabled_recording_is_a_noop() {
    let _g = FLAG.lock().unwrap();
    bpw_trace::set_enabled(false);
    bpw_trace::instant(EventKind::Eviction, 0xD15AB1ED);
    assert!(
        bpw_trace::span_start().is_none(),
        "span_start must be free when disabled"
    );
    bpw_trace::span_end(EventKind::LockHold, None, 0xD15AB1ED);
    assert!(my_events(0xD15AB1ED).is_empty());
}

#[test]
fn enabled_spans_and_instants_are_collected_in_order() {
    let _g = FLAG.lock().unwrap();
    bpw_trace::set_enabled(true);
    let t = bpw_trace::span_start();
    assert!(t.is_some());
    bpw_trace::span_end(EventKind::BatchCommit, t, 0xC0FFEE01);
    bpw_trace::instant(EventKind::Eviction, 0xC0FFEE01);
    bpw_trace::span_backdated(EventKind::LockHold, 1_234, 0xC0FFEE01);
    bpw_trace::set_enabled(false);

    let events = my_events(0xC0FFEE01);
    assert_eq!(events.len(), 3);
    assert!(
        events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
        "drain must sort by start time"
    );
    let hold = events
        .iter()
        .find(|e| e.kind == EventKind::LockHold)
        .unwrap();
    assert_eq!(hold.dur_ns, 1_234);
    let evict = events
        .iter()
        .find(|e| e.kind == EventKind::Eviction)
        .unwrap();
    assert_eq!(evict.dur_ns, 0);
    // A second drain finds nothing new.
    assert!(my_events(0xC0FFEE01).is_empty());
}

#[test]
fn each_thread_records_into_its_own_ring() {
    let _g = FLAG.lock().unwrap();
    bpw_trace::set_enabled(true);
    let threads = 4;
    let per_thread = 100u64;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for i in 0..per_thread {
                    bpw_trace::record(EventKind::LockHold, i, 1, 0xBEEF0002);
                }
            });
        }
    });
    bpw_trace::set_enabled(false);
    let events = my_events(0xBEEF0002);
    assert_eq!(events.len() as u64, threads as u64 * per_thread);
    let tids: std::collections::HashSet<u32> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), threads, "one trace tid per recording thread");
    assert!(bpw_trace::thread_count() >= threads);
}

#[test]
fn drained_stream_exports_to_valid_chrome_json() {
    let _g = FLAG.lock().unwrap();
    bpw_trace::set_enabled(true);
    let t = bpw_trace::span_start();
    bpw_trace::span_end(EventKind::MissIo, t, 0xFACE0003);
    bpw_trace::set_enabled(false);

    let events = my_events(0xFACE0003);
    let json = bpw_trace::chrome_trace_json(&events);
    let v = JsonValue::parse(&json).expect("valid JSON");
    let JsonValue::Arr(items) = v.get("traceEvents").unwrap() else {
        panic!("traceEvents must be an array");
    };
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].get("name").unwrap().as_str(), Some("miss_io"));
    assert_eq!(
        items[0].get("args").unwrap().get("page").unwrap().as_u64(),
        Some(0xFACE0003)
    );
}
