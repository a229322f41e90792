//! Single-threaded probes of one layer each, run by a traced run after its
//! epochs, on the workload's own page or request sample. They give a layer
//! a number where the benchmark cannot wrap a span around it from outside
//! (the server calls the pool, the pool calls the wrapper and storage).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bpw_bufferpool::{SimDisk, Storage};
use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::TwoQ;
use bpw_server::backpressure::{admission_queue, Admitted, Popped};
use bpw_server::loadgen::put_payload;
use bpw_server::protocol::{FrameDecoder, Request, Response};
use bpw_server::AdmissionPolicy;

use crate::report::Values;
use crate::spec::{Spec, PAGE_SIZE, SCAN_LEN};
use crate::stats::median;
use crate::workload::{Op, Req};

/// Sample of the workload's inputs a probe runs over.
const SAMPLE: usize = 100_000;

fn ns_per(iterations: usize, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / iterations as f64
}

/// `core.record_hit_ns` and `storage.*`: the two layers under the pool.
pub fn pool_layers(v: &mut Values, spec: &Spec, accesses: &[u64]) {
    let sample = &accesses[..accesses.len().min(SAMPLE)];
    v.set("core.record_hit_ns", record_hit_ns(spec.frames, sample));
    let (read_ns, write_ns) = storage_ns(spec.universe);
    v.set("storage.read_page_ns", read_ns);
    v.set("storage.write_page_ns", write_ns);
}

/// `AccessHandle::record_hit`, batch commits into 2Q included, over the
/// sampled accesses that hit once the first `frames` distinct pages are in.
fn record_hit_ns(frames: usize, sample: &[u64]) -> f64 {
    let wrapper = BpWrapper::new(TwoQ::new(frames), WrapperConfig::default());
    let mut handle = wrapper.handle();
    let mut frame_of = std::collections::HashMap::new();
    for &page in sample {
        if frame_of.len() == frames {
            break;
        }
        let next = frame_of.len() as u32;
        frame_of.entry(page).or_insert_with(|| {
            handle.record_miss(page, Some(next), &mut |_| true);
            next
        });
    }
    let hits: Vec<(u64, u32)> = sample
        .iter()
        .filter_map(|page| frame_of.get(page).map(|&frame| (*page, frame)))
        .collect();
    let t0 = Instant::now();
    for &(page, frame) in &hits {
        handle.record_hit(black_box(page), frame);
    }
    handle.flush();
    ns_per(hits.len(), t0.elapsed())
}

/// `SimDisk::read_page` / `write_page` of pages that were written before,
/// as every page of a measured epoch has been.
fn storage_ns(universe: u64) -> (f64, f64) {
    let disk = SimDisk::instant();
    let pages = universe.min(4096);
    let mut buf = vec![0u8; PAGE_SIZE];
    for page in 0..pages {
        disk.write_page(page, &buf).expect("SimDisk write");
    }
    let t0 = Instant::now();
    for page in 0..pages {
        disk.write_page(page, black_box(&buf))
            .expect("SimDisk write");
    }
    let write_ns = ns_per(pages as usize, t0.elapsed());
    let t0 = Instant::now();
    for page in 0..pages {
        disk.read_page(page, black_box(&mut buf))
            .expect("SimDisk read");
    }
    (ns_per(pages as usize, t0.elapsed()), write_ns)
}

/// `server.protocol.*` and `server.admission.*` on the workload's requests.
pub fn server_layers(v: &mut Values, trace: &[Req], seed: u64) {
    let sample = &trace[..trace.len().min(SAMPLE)];
    let requests: Vec<Request> = sample
        .iter()
        .map(|r| {
            let page = u64::from(r.page);
            match r.op {
                Op::Get | Op::GetBack => Request::Get { page },
                Op::Put => Request::Put {
                    page,
                    data: put_payload(page, PAGE_SIZE, seed),
                },
                Op::Scan => Request::Scan {
                    start: page,
                    len: SCAN_LEN,
                },
            }
        })
        .collect();

    let gets: Vec<Request> = sample
        .iter()
        .map(|r| Request::Get {
            page: u64::from(r.page),
        })
        .collect();
    let t0 = Instant::now();
    for get in &gets {
        black_box(black_box(get).encode());
    }
    v.set(
        "server.protocol.encode_get_ns",
        ns_per(gets.len(), t0.elapsed()),
    );

    let bodies: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let t0 = Instant::now();
    for body in &bodies {
        black_box(Request::decode(black_box(body)).expect("own encoding decodes"));
    }
    v.set(
        "server.protocol.decode_request_ns",
        ns_per(bodies.len(), t0.elapsed()),
    );

    // A GET reply: one page.
    let reply = Response::Ok(vec![0xA5; PAGE_SIZE]);
    let t0 = Instant::now();
    for _ in 0..SAMPLE {
        black_box(black_box(&reply).encode());
    }
    v.set(
        "server.protocol.encode_reply_ns",
        ns_per(SAMPLE, t0.elapsed()),
    );
    let reply_body = reply.encode();
    let t0 = Instant::now();
    for _ in 0..SAMPLE {
        black_box(Response::decode(black_box(&reply_body)).expect("own encoding decodes"));
    }
    v.set(
        "server.protocol.decode_reply_ns",
        ns_per(SAMPLE, t0.elapsed()),
    );

    // The frame decoder as the event loop feeds it: a pipeline's worth of
    // frames per read.
    let mut frames = 0;
    let mut decoder = FrameDecoder::new();
    let mut wire = Vec::new();
    let t0 = Instant::now();
    for batch in bodies.chunks(32) {
        wire.clear();
        for body in batch {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        decoder.push(&wire);
        while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
            black_box(frame);
            frames += 1;
        }
    }
    assert_eq!(frames, bodies.len());
    v.set(
        "server.protocol.frame_decoder_ns_per_frame",
        ns_per(frames, t0.elapsed()),
    );

    v.set("server.admission.submit_pop_ns", submit_pop_ns());
    v.set("server.admission.handoff_ns", handoff_ns());
}

/// One `submit` and one `pop` on the same thread: the queue's own cost,
/// with nobody to wake.
fn submit_pop_ns() -> f64 {
    let (queue, work) = admission_queue::<u64>(256, AdmissionPolicy::Block);
    let t0 = Instant::now();
    for i in 0..SAMPLE as u64 {
        assert_eq!(queue.submit(black_box(i)), Admitted::Queued);
        let Popped::Item(item) = work.pop(Duration::from_secs(1)) else {
            panic!("an item was just submitted");
        };
        black_box(item);
    }
    ns_per(SAMPLE, t0.elapsed())
}

/// `submit` on one thread to `pop` returning on another, for bursts of a
/// pipeline's worth of items as the event loop hands them to a worker.
/// Median over items, because a wake-up across CPUs has a long tail.
fn handoff_ns() -> f64 {
    const BURSTS: u64 = 500;
    const BURST: u64 = 32;
    let (queue, work) = admission_queue::<Instant>(256, AdmissionPolicy::Block);
    let popped = AtomicU64::new(0);
    let mut waits = Vec::with_capacity((BURSTS * BURST) as usize);
    std::thread::scope(|scope| {
        let popped = &popped;
        scope.spawn(move || {
            for burst in 1..=BURSTS {
                for _ in 0..BURST {
                    queue.submit(Instant::now());
                }
                // The next burst goes out once this one was taken, as a
                // closed-loop client's next batch does.
                while popped.load(Ordering::Acquire) < burst * BURST {
                    std::thread::yield_now();
                }
            }
        });
        while let Popped::Item(submitted) = work.pop(Duration::from_secs(1)) {
            waits.push(submitted.elapsed().as_nanos() as f64);
            // Pairs with the Acquire load above: the producer sees the
            // count only after the item left the queue.
            popped.fetch_add(1, Ordering::Release);
        }
    });
    assert_eq!(waits.len() as u64, BURSTS * BURST);
    median(&waits)
}
