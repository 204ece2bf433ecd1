//! Daemon behavior under pressure: bounded admission (queue saturation →
//! typed `overloaded`), per-request deadlines (`timed_out` partial results
//! that never kill a worker), and graceful shutdown (in-flight requests
//! drain, late arrivals get `shutting_down`), the allocation budget (a
//! request that would allocate past it is answered and the worker lives
//! on), and the memory gauges an operator reads from `stats` and `metrics`.

use server::{offline_psis, served_psis, Client, InferRequest, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

const DIV_PROGRAM: &str = "fn f(x int) -> int { return 10 / x; }";

fn infer_req(deadline_ms: Option<u64>) -> InferRequest {
    InferRequest {
        program: DIV_PROGRAM.to_string(),
        func: Some("f".to_string()),
        deadline_ms,
        tests: None,
        trace: None,
    }
}

#[test]
fn queue_saturation_yields_typed_overloaded_not_unbounded_buffering() {
    // One worker and a one-slot queue: of N simultaneous submissions, at
    // most one can run and one can wait; the rest must be rejected with
    // the typed `overloaded` error, immediately.
    let server =
        Server::start(ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() })
            .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let ok = Arc::new(AtomicUsize::new(0));
    let overloaded = Arc::new(AtomicUsize::new(0));
    let mut saw_overload = false;
    // Timing-dependent (the worker could theoretically drain between two
    // pushes), so allow a few rounds; in practice round one saturates.
    for _round in 0..5 {
        const CLIENTS: usize = 12;
        let barrier = Arc::new(Barrier::new(CLIENTS));
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                let (addr, barrier) = (addr.clone(), Arc::clone(&barrier));
                let (ok, overloaded) = (Arc::clone(&ok), Arc::clone(&overloaded));
                scope.spawn(move || {
                    let mut cl = Client::connect(&addr).expect("connect");
                    barrier.wait();
                    let resp = cl.infer(&infer_req(None)).expect("round-trip");
                    match resp.str_field("error") {
                        None => {
                            assert_eq!(
                                resp.get("ok").and_then(|v| v.as_bool()),
                                Some(true),
                                "non-error response must be a success: {resp:?}"
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some("overloaded") => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(other) => panic!("unexpected error code {other}"),
                    }
                });
            }
        });
        if overloaded.load(Ordering::Relaxed) > 0 {
            saw_overload = true;
            break;
        }
    }
    assert!(saw_overload, "12 simultaneous requests never saturated a 1-slot queue");
    assert!(ok.load(Ordering::Relaxed) > 0, "saturation must not starve every request");

    // Rejection is not a wound: the daemon still serves.
    let mut cl = Client::connect(&addr).expect("connect");
    let resp = cl.infer(&infer_req(None)).expect("post-saturation request");
    assert!(served_psis(&resp).is_some(), "daemon must recover after shedding load");

    server.handle().shutdown();
    server.join();
}

#[test]
fn expired_deadline_returns_timed_out_partial_result_and_worker_survives() {
    // A single worker so the follow-up request provably reuses the worker
    // that served the timed-out one.
    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");

    // deadline_ms = 0 expires at admission: the worker must still produce
    // a (partial, sound) response marked timed_out, not hang or die.
    let resp = cl.infer(&infer_req(Some(0))).expect("timed-out round-trip");
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        resp.get("timed_out").and_then(|v| v.as_bool()),
        Some(true),
        "zero deadline must be reported: {resp:?}"
    );

    // Same lone worker, fresh deadline-free request: full result.
    let resp = cl.infer(&infer_req(None)).expect("follow-up round-trip");
    assert_eq!(resp.get("timed_out").and_then(|v| v.as_bool()), Some(false));
    let psis = served_psis(&resp).expect("follow-up succeeds");
    assert_eq!(psis, vec!["x != 0".to_string()]);

    // The daemon-wide timed_out counter observed the event.
    let stats = cl.stats().expect("stats");
    let timed_out = stats
        .get("counters")
        .and_then(|c| c.get("timed_out"))
        .and_then(|v| v.as_u64())
        .expect("counters.timed_out");
    assert!(timed_out >= 1);

    server.handle().shutdown();
    server.join();
}

/// `stats` reports resident bytes, the solver cache's bytes and the arena
/// node counts, and `metrics` serves the same numbers as gauges.
#[test]
fn stats_and_metrics_report_memory() {
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
    cl.infer(&infer_req(None)).expect("infer");

    let stats = cl.stats().expect("stats");
    let memory = stats.get("memory").expect("memory block");
    assert!(memory.u64_field("resident_bytes").unwrap_or(0) > 0, "resident bytes: {memory:?}");
    let arenas = memory.get("arena_nodes").expect("arena_nodes");
    for arena in ["places", "symvars", "terms", "cpreds"] {
        assert!(arenas.u64_field(arena).is_some(), "no {arena}: {arenas:?}");
    }
    // The inference above interned terms and canonical predicates.
    assert!(arenas.u64_field("terms") > Some(0) && arenas.u64_field("cpreds") > Some(0));
    // ... and left its canonical verdicts in the cache.
    let cache_bytes = memory.u64_field("cache_bytes").expect("cache_bytes");
    assert!(cache_bytes > 0, "{memory:?}");

    let metrics = cl.metrics().expect("metrics");
    let text = metrics.str_field("text").expect("exposition text");
    assert!(text.lines().any(|l| l.starts_with("preinfer_resident_bytes ")), "{text}");
    let gauge = text.lines().find_map(|l| l.strip_prefix("preinfer_cache_bytes "));
    assert_eq!(gauge.and_then(|v| v.parse::<f64>().ok()), Some(cache_bytes as f64), "{text}");
    for arena in ["places", "symvars", "terms", "cpreds"] {
        let series = format!("preinfer_arena_nodes{{arena=\"{arena}\"}} ");
        assert!(text.lines().any(|l| l.starts_with(&series)), "no {series}in:\n{text}");
    }

    server.handle().shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.handle();

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let results: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (addr, barrier) = (addr.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut cl = Client::connect(&addr).expect("connect");
                // A ping round-trip proves the daemon accepted this
                // connection (not merely the kernel's accept backlog), so
                // the infer below is genuinely in-flight at shutdown.
                cl.ping().expect("pre-shutdown ping");
                barrier.wait();
                cl.infer(&infer_req(None)).expect("in-flight request must get a reply")
            })
        })
        .collect();

    // Let the requests reach the daemon, then pull the plug while they are
    // (likely) queued or running.
    barrier.wait();
    std::thread::sleep(Duration::from_millis(5));
    handle.shutdown();

    // join() must return once drained — watchdog it so a drain bug fails
    // the test instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("graceful shutdown wedged: join() did not return");
    joiner.join().unwrap();

    // Every in-flight request was answered: either completed (drained) or
    // rejected with the typed shutting_down error — never dropped.
    let mut drained = 0;
    for r in results {
        let resp = r.join().expect("client thread");
        match resp.str_field("error") {
            None => {
                assert!(served_psis(&resp).is_some(), "drained reply must be complete");
                drained += 1;
            }
            Some("shutting_down") => {}
            Some(other) => panic!("unexpected error during drain: {other}"),
        }
    }
    assert!(drained > 0, "shutdown raced ahead of every request; none drained");

    // The listener is gone: new connections are refused.
    assert!(Client::connect(&addr).is_err(), "daemon must stop accepting after shutdown");
}

/// Test generation on this program finds `n = 2^60 + 1`, an allocation past
/// `interp::MAX_ARRAY_CELLS`: the executors end that run out of fuel, so
/// the lone worker answers, serves the next request and drains.
#[test]
fn oversized_allocation_is_answered_and_the_worker_serves_on() {
    const HUGE_ALLOC: &str = "fn f(n int) -> int {
        if (n > 1152921504606846976) { let a = new_int_array(n); return len(a); }
        return 0;
    }";
    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind loopback");
    let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
    // A lost worker never answers: fail within a minute instead of hanging.
    cl.stream_mut().set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let req = |program: &str, func: &str| InferRequest {
        program: program.to_string(),
        func: Some(func.to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    };

    let resp = cl.infer(&req(HUGE_ALLOC, "f")).expect("oversized-allocation round-trip");
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true), "{resp:?}");

    let m = subjects::all_subjects()
        .into_iter()
        .find(|m| m.name == "guarded_div")
        .expect("guarded_div subject");
    let resp = cl.infer(&req(m.source, m.name)).expect("follow-up round-trip");
    assert_eq!(served_psis(&resp), Some(offline_psis(&m.compile(), m.name)), "{resp:?}");

    server.handle().shutdown();
    let (tx, rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("drain wedged: join() did not return");
    joiner.join().unwrap();
}
