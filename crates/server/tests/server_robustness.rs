//! Protocol robustness: hostile byte streams — malformed frames, truncated
//! payloads, oversized length prefixes, mid-stream disconnects — must
//! produce typed error responses or a clean close, never a panic or a
//! wedged daemon. Every property finishes by proving the daemon still
//! answers a fresh `ping`.
//!
//! Every property runs against both serving topologies: a daemon, and the
//! `preinfer-router` front over two shard daemons — hostile bytes must
//! bounce off each of them identically. A wide pipelined fan-in against a
//! default daemon must answer every request exactly once.

use proptest::prelude::*;
use server::{
    offline_psis, protocol, served_psis, Client, InferRequest, Router, RouterConfig, Server,
    ServerConfig, ShellConfig, MAX_FRAME_LEN,
};
use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, OnceLock};
use std::time::Duration;

/// The addresses of one daemon and one two-shard router, shared by every
/// property case in this process. None are ever shut down — the process
/// exit reaps their threads — because what we are testing is precisely
/// that no hostile input can take them down first.
fn topology_addrs() -> &'static [SocketAddr; 2] {
    static ADDRS: OnceLock<[SocketAddr; 2]> = OnceLock::new();
    ADDRS.get_or_init(|| {
        let start = || {
            let server = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() })
                .expect("bind loopback");
            let addr = server.local_addr();
            Box::leak(Box::new(server));
            addr
        };
        let daemon = start();
        let shard0 = start();
        let shard1 = start();
        let router = Router::start(RouterConfig {
            shards: vec![shard0.to_string(), shard1.to_string()],
            ..RouterConfig::default()
        })
        .expect("start router");
        let router_addr = router.local_addr();
        Box::leak(Box::new(router));
        [daemon, router_addr]
    })
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(&addr.to_string()).expect("connect to shared daemon")
}

/// A topology is alive iff a fresh connection's ping round-trips.
fn assert_alive(addr: SocketAddr) {
    let resp = connect(addr).ping().expect("server must still answer ping");
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn garbage_payload_gets_typed_error_and_connection_survives(
        payload in "[ -~]{1,60}",
    ) {
        for &addr in topology_addrs() {
            let mut cl = connect(addr);
            let resp = cl.round_trip(&payload);
            match resp {
                Ok(v) => {
                    // Whatever the junk parsed to, the answer is a typed frame:
                    // either a successful verb (the junk accidentally spelled
                    // one) or a `bad_request` error — never a raw close.
                    let ok = v.get("ok").and_then(|j| j.as_bool());
                    prop_assert!(
                        ok == Some(true) || v.str_field("error") == Some("bad_request"),
                        "unexpected response {v:?}"
                    );
                }
                Err(e) => return Err(format!("server closed on in-sync junk: {e}")),
            }
            // The stream stayed in sync: the same connection still works.
            let ping = cl.ping().map_err(|e| format!("connection wedged: {e}"))?;
            prop_assert_eq!(ping.get("ok").and_then(|v| v.as_bool()), Some(true));
            assert_alive(addr);
        }
    }

    #[test]
    fn mid_stream_disconnects_never_wedge_the_server(
        declared in 1u32..=4096,
        sent in 0usize..64,
        cut_prefix in proptest::bool::ANY,
    ) {
        for &addr in topology_addrs() {
            {
                let mut s = TcpStream::connect(addr).expect("connect");
                if cut_prefix {
                    // Disconnect inside the 4-byte length prefix itself.
                    let _ = s.write_all(&declared.to_be_bytes()[..2]);
                } else {
                    // Valid prefix, then strictly fewer payload bytes than
                    // declared, then hang up.
                    let body = vec![b'x'; sent.min(declared as usize - 1)];
                    let _ = s.write_all(&declared.to_be_bytes());
                    let _ = s.write_all(&body);
                }
                // Dropping the stream closes it: the server sees EOF mid-frame.
            }
            assert_alive(addr);
        }
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_with_a_typed_error(
        excess in 1u64..=(u32::MAX as u64 - MAX_FRAME_LEN as u64),
    ) {
        let declared = (MAX_FRAME_LEN as u64 + excess) as u32;
        for &addr in topology_addrs() {
            let mut cl = connect(addr);
            cl.stream_mut().write_all(&declared.to_be_bytes()).expect("send prefix");
            // The server must answer without waiting for the (absurd) payload.
            let resp = cl.read_response().map_err(|e| format!("no typed error: {e}"))?;
            prop_assert_eq!(resp.str_field("error"), Some("frame_too_large"));
            assert_alive(addr);
        }
    }

    #[test]
    fn arbitrary_byte_blobs_never_take_the_server_down(
        blob in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        for &addr in topology_addrs() {
            {
                let mut s = TcpStream::connect(addr).expect("connect");
                let _ = s.write_all(&blob);
                // Close without reading: whatever the server made of the bytes
                // (typed error, truncation, or a valid frame), it must shrug
                // off the disconnect.
            }
            assert_alive(addr);
        }
    }
}

/// Non-property companion: a non-UTF-8 payload inside a well-formed frame
/// is a typed error (`bad_request`, with the connection already doomed),
/// and the server survives.
#[test]
fn non_utf8_payload_is_a_typed_error() {
    for &addr in topology_addrs() {
        let mut cl = connect(addr);
        let bad = [0xFFu8, 0xFE, 0x01];
        cl.stream_mut().write_all(&(bad.len() as u32).to_be_bytes()).unwrap();
        cl.stream_mut().write_all(&bad).unwrap();
        let resp = cl.read_response().expect("typed error frame");
        assert_eq!(resp.str_field("error"), Some("bad_request"));
        assert_alive(addr);
    }
}

/// A connection that goes quiet past the idle deadline is closed with a
/// typed `idle_timeout` error, on every topology.
#[test]
fn idle_connections_are_closed_with_a_typed_error() {
    let start = || {
        let server = Server::start(ServerConfig {
            workers: 1,
            shell: ShellConfig { idle_timeout_ms: 300, ..ShellConfig::default() },
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let addr = server.local_addr();
        Box::leak(Box::new(server));
        addr
    };
    let router_over = |shard: SocketAddr| {
        let router = Router::start(RouterConfig {
            shards: vec![shard.to_string()],
            shell: ShellConfig { idle_timeout_ms: 300, ..ShellConfig::default() },
        })
        .expect("start router");
        let addr = router.local_addr();
        Box::leak(Box::new(router));
        addr
    };
    let daemon = start();
    // The daemon idle-closes the router's upstream connection too, so
    // the router's `stats` fan-out below may land in a re-dial.
    let router = router_over(daemon);
    // Where each process's `stats` reports its connection counters.
    for (addr, block) in [(daemon, "counters"), (router, "router")] {
        let mut cl = connect(addr);
        // Prove the connection works, then go silent.
        assert_eq!(cl.ping().unwrap().get("ok").and_then(|v| v.as_bool()), Some(true));
        let resp = cl.read_response().expect("typed idle_timeout before close");
        assert_eq!(resp.str_field("error"), Some("idle_timeout"), "addr {addr}");
        assert_alive(addr);
        let stats = connect(addr).stats().expect("stats round-trip");
        let idle_closed = stats.get(block).and_then(|b| b.u64_field("idle_closed"));
        assert!(idle_closed >= Some(1), "{block}.idle_closed not counted: {stats:?}");
    }
}

/// A well-formed frame trickled in byte-by-byte is still decoded and
/// answered: slow writers are *active*, not idle, so the incremental
/// decoder must buffer the partial frame and the idle deadline must not
/// fire while bytes keep arriving.
#[test]
fn slow_partial_writes_are_decoded_not_idle_closed() {
    let server = Server::start(ServerConfig {
        workers: 1,
        shell: ShellConfig { idle_timeout_ms: 200, ..ShellConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    Box::leak(Box::new(server));

    let mut cl = connect(addr);
    let payload = br#"{"verb":"ping","id":"slow"}"#;
    let mut wire = Vec::new();
    wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    wire.extend_from_slice(payload);
    // Total transfer time (~31 bytes * 60ms) far exceeds the 200ms idle
    // deadline; only inter-byte gaps stay under it.
    for b in wire {
        cl.stream_mut().write_all(&[b]).expect("slow write");
        cl.stream_mut().flush().expect("flush");
        std::thread::sleep(Duration::from_millis(60));
    }
    let resp = cl.read_response().expect("slow frame answered");
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(resp.str_field("id"), Some("slow"));
}

/// 64 connections each pipeline 16 `infer` requests at a default daemon at
/// once, overrunning its 64-slot admission queue. Every request gets
/// exactly one reply, matched by id: either `ok` with the offline ψ or a
/// typed `overloaded` rejection. None is dropped and none fails any other
/// way.
#[test]
fn wide_pipelined_fan_in_answers_every_request_once() {
    const CONNECTIONS: usize = 64;
    const DEPTH: usize = 16;
    let subject = subjects::all_subjects()
        .into_iter()
        .find(|m| m.name == "guarded_div")
        .expect("corpus has guarded_div");
    let offline = offline_psis(&subject.compile(), subject.name);
    let req = InferRequest {
        program: subject.source.to_string(),
        func: Some(subject.name.to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    };

    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let barrier = Barrier::new(CONNECTIONS);
    let (ok, overloaded): (usize, usize) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, barrier, req, offline) = (&addr, &barrier, &req, &offline);
                scope.spawn(move || {
                    let mut cl = Client::connect(addr).expect("connect");
                    cl.stream_mut()
                        .set_read_timeout(Some(Duration::from_secs(120)))
                        .expect("read timeout");
                    barrier.wait();
                    let ids: HashSet<String> = (0..DEPTH).map(|i| format!("c{c}-{i}")).collect();
                    for id in &ids {
                        let frame = protocol::render_infer(Some(id), req);
                        protocol::write_frame(cl.stream_mut(), &frame).expect("pipelined write");
                    }
                    let (mut ok, mut overloaded) = (0, 0);
                    let mut answered = HashSet::new();
                    for _ in 0..DEPTH {
                        let resp = cl.read_response().expect("every request is answered");
                        let id = resp.str_field("id").expect("id echoed").to_string();
                        assert!(ids.contains(&id), "reply to an id never sent: {resp:?}");
                        assert!(answered.insert(id), "a request answered twice: {resp:?}");
                        match resp.str_field("error") {
                            None => {
                                let served = served_psis(&resp).expect("ok reply");
                                assert_eq!(&served, offline, "served ψ diverged: {resp:?}");
                                ok += 1;
                            }
                            Some("overloaded") => overloaded += 1,
                            Some(other) => panic!("unexpected error `{other}`: {resp:?}"),
                        }
                    }
                    (ok, overloaded)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    });
    assert_eq!(ok + overloaded, CONNECTIONS * DEPTH);
    assert!(ok > 0, "the fan-in must not starve every request");
    assert_alive(server.local_addr());
    server.handle().shutdown();
    server.join();
}
