//! End-to-end coverage for `--adaptive` servers: the hot-swap layer is
//! installed, ADVISOR state shows up in STATS and METRICS, policy swaps
//! land under live client traffic on both frontends, and the
//! `InvalidateOutcome::Busy` retry loop converges while swaps are
//! mid-flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpw_bufferpool::InvalidateOutcome;
use bpw_metrics::JsonValue;
use bpw_server::{build_manager, Client, FrontendMode, Server, ServerConfig};

const FRAMES: usize = 64;
const PAGES: u64 = 256;

fn adaptive_server(mode: FrontendMode) -> Server {
    Server::start(ServerConfig {
        workers: 2,
        frames: FRAMES,
        page_size: 128,
        pages: PAGES,
        manager: "wrapped-2q".into(),
        adaptive: true,
        mode,
        ..ServerConfig::default()
    })
    .expect("start adaptive server")
}

fn adaptive_stats_and_swaps_under_traffic(mode: FrontendMode) {
    let server = adaptive_server(mode);
    let swap = Arc::clone(server.adaptive_swap().expect("adaptive layer installed"));
    assert!(server.pool().manager().name().starts_with("adaptive("));

    let mut client = Client::connect(server.addr()).expect("connect");
    for i in 0..200u64 {
        let resp = client.get(i % 16).expect("GET");
        assert!(matches!(resp, bpw_server::protocol::Response::Ok(_)));
    }

    // Hot-swap twice under continued traffic, exactly as the advisor
    // thread would (through the pool, which freezes residency).
    for (gen, spec) in [(1u64, "wrapped-lirs"), (2u64, "wrapped-lru")] {
        let next = build_manager(spec, FRAMES).expect("build");
        let report = server
            .pool()
            .swap_manager(next)
            .expect("adaptive pools accept swaps");
        assert_eq!(report.generation, gen);
        for i in 0..100u64 {
            let resp = client.get(i % 16).expect("GET after swap");
            assert!(matches!(resp, bpw_server::protocol::Response::Ok(_)));
        }
    }
    assert_eq!(swap.swaps(), 2);
    assert!(
        swap.pages_transferred() > 0,
        "resident state must carry over"
    );

    // STATS carries the advisor object with live expert scores.
    let stats = client.stats().expect("STATS");
    let json = JsonValue::parse(&stats).expect("STATS is valid JSON");
    let advisor = json.get("advisor").expect("advisor sub-object");
    assert_eq!(
        advisor.get("incumbent").and_then(|v| v.as_str()),
        Some("2Q")
    );
    assert_eq!(advisor.get("swaps").and_then(|v| v.as_u64()), Some(2));
    assert!(
        advisor.get("tap_pushed").and_then(|v| v.as_u64()).unwrap() > 0,
        "the fetch path must be feeding the sample tap"
    );
    assert!(advisor.get("experts").is_some());
    // The live inner manager is still a BP-wrapped policy after swaps.
    let live = advisor
        .get("live_manager")
        .and_then(|v| v.as_str())
        .expect("live_manager");
    assert!(
        live.contains("bp-wrapper"),
        "unexpected live manager {live:?}"
    );

    // METRICS exposes the advisor series.
    let metrics = client.metrics().expect("METRICS");
    assert!(metrics.contains("bpw_advisor_swaps_total 2"));
    assert!(metrics.contains("bpw_advisor_expert_ewma_ppm"));

    // Pool conservation after everything: no frame lost to a swap.
    assert_eq!(
        server.pool().free_frames()
            + server.pool().stashed_frames()
            + server.pool().resident_count(),
        FRAMES
    );
    drop(client);
    server.join();
}

#[test]
fn adaptive_stats_and_swaps_threaded() {
    adaptive_stats_and_swaps_under_traffic(FrontendMode::Threaded);
}

#[test]
fn adaptive_stats_and_swaps_eventloop() {
    adaptive_stats_and_swaps_under_traffic(FrontendMode::EventLoop);
}

/// `InvalidateOutcome::Busy` retry while swaps are mid-flight: the
/// invalidator must see `Busy` for a pinned page (never block forever on
/// the swap), and once the pin is dropped the retry loop must converge
/// to a definitive outcome within a deadline even with back-to-back
/// swaps racing it.
fn busy_invalidate_retry_during_swaps(mode: FrontendMode) {
    let server = adaptive_server(mode);
    const PAGE: u64 = 3;

    // Warm the page in via a client so invalidation has a target.
    let mut client = Client::connect(server.addr()).expect("connect");
    for i in 0..8u64 {
        client.get(i).expect("warm GET");
    }

    // Background swapper: keeps the swap path hot for the whole test.
    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let pool = Arc::clone(server.pool());
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for spec in ["wrapped-lru", "wrapped-2q"].iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let next = build_manager(spec, FRAMES).expect("build");
                pool.swap_manager(next).expect("swap");
            }
        })
    };

    // The invalidation below must race swaps that are really
    // happening: wait for the swapper's first one before pinning.
    bpw_server::wait_for(Duration::from_secs(10), "first swap", || {
        server.adaptive_swap().expect("adaptive layer").swaps() > 0
    });

    // Pin the page directly, then invalidate: must answer Busy (a
    // retryable outcome), not hang on the in-flight swaps.
    {
        let mut session = server.pool().session();
        let pinned = session.fetch(PAGE).expect("pin");
        let out = server.pool().invalidate(PAGE);
        assert_eq!(out, InvalidateOutcome::Busy);
        assert!(out.is_retryable());
        drop(pinned);
    }

    // Unpinned now: the retry loop converges within the deadline even
    // with swaps still racing.
    let deadline = Instant::now() + Duration::from_secs(10);
    let out = loop {
        let out = server.pool().invalidate(PAGE);
        if !out.is_retryable() {
            break out;
        }
        assert!(
            Instant::now() < deadline,
            "invalidate retry loop did not converge under swap storm"
        );
        std::thread::yield_now();
    };
    assert!(
        matches!(
            out,
            InvalidateOutcome::Invalidated | InvalidateOutcome::NotResident
        ),
        "unexpected terminal outcome {out:?}"
    );

    stop.store(true, Ordering::Relaxed);
    swapper.join().expect("swapper");
    // Traffic still works after the storm.
    client.get(PAGE).expect("GET after storm");
    assert_eq!(
        server.pool().free_frames()
            + server.pool().stashed_frames()
            + server.pool().resident_count(),
        FRAMES
    );
    drop(client);
    server.join();
}

#[test]
fn busy_invalidate_retry_during_swaps_threaded() {
    busy_invalidate_retry_during_swaps(FrontendMode::Threaded);
}

#[test]
fn busy_invalidate_retry_during_swaps_eventloop() {
    busy_invalidate_retry_during_swaps(FrontendMode::EventLoop);
}

/// `--adaptive` refuses non-wrapped managers: the advisor can only swap
/// among BP-wrapped policies.
#[test]
fn adaptive_requires_wrapped_manager() {
    let err = Server::start(ServerConfig {
        manager: "clock".into(),
        adaptive: true,
        frames: 16,
        page_size: 64,
        pages: 64,
        ..ServerConfig::default()
    });
    assert!(err.is_err());
}
