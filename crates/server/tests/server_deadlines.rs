//! Deadline conformance: a request with `deadline_ms` d is answered within
//! d plus the largest uninterruptible unit of work, and every ψ the
//! deadline changed is marked `timed_out`. Checked on a corpus slice plus
//! `burn` (a 30 000-iteration concrete loop before its assertion, so every
//! executor run outlasts the deadlines) and `symloop` (a loop over an
//! array whose ψ needs the simplex tier), for d ∈ {1, 5, 20} ms, along
//! the three paths a request takes: offline through
//! [`SummaryBuildConfig::run`], through `preinferd`, and through
//! `preinfer-router` in front of two shards.

use preinfer_core::SummaryBuildConfig;
use server::json::Json;
use server::{
    offline_psis, served_psis, Client, InferRequest, Router, RouterConfig, Server, ServerConfig,
};
use solver::Deadline;
use std::time::Instant;
use testgen::TestGenConfig;

const BURN: &str = "
fn burn(n int) -> int {
    let s = 0;
    for (let i = 0; i < 30000; i = i + 1) { s = s + 1; }
    if (n > 5) { assert(n != 77); }
    return s;
}";

const SYMLOOP: &str = "
fn symloop(a [int], n int) -> int {
    let s = 0;
    for (let i = 0; i < n; i = i + 1) { s = s + a[i % 3]; }
    assert(s != 12345);
    return s;
}";

const DEADLINES_MS: [u64; 3] = [1, 5, 20];

/// The allowed overrun past the deadline, in milliseconds: the largest
/// uninterruptible unit, one budget-bounded solve plus
/// `concolic::exec::CLOCK_EVERY` executor steps. Measured in the debug
/// profile on a 2-core VM: the slowest solve over the corpus took 6.7 and
/// 8.2 ms in two runs, and 1024 steps of `burn` 1.5 and 1.7 ms. The bound
/// is twice their sum, so that scheduling noise on a loaded machine does
/// not fail the test.
const B_MS: f64 = 20.0;

/// One answer: its ψ strings in ACL order, its `timed_out` flag and the
/// wall clock from when its deadline started to the reply.
struct Reply {
    psis: Vec<String>,
    timed_out: bool,
    took_ms: f64,
}

/// The corpus slice plus the two deadline-heavy methods, as (source, entry).
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = subjects::all_subjects()
        .into_iter()
        .filter(|m| ["guarded_div", "reverse_words", "binary_search"].contains(&m.name))
        .map(|m| (m.source.to_string(), m.name.to_string()))
        .collect();
    assert_eq!(out.len(), 3, "corpus slice not found");
    out.push((BURN.to_string(), "burn".to_string()));
    out.push((SYMLOOP.to_string(), "symloop".to_string()));
    out
}

fn offline(source: &str, func: &str, d: u64) -> Reply {
    let program = minilang::compile(source).expect("program compiles");
    let start = Instant::now();
    let deadline = Deadline::after_ms(d);
    let run = SummaryBuildConfig::new(
        TestGenConfig::default(),
        None,
        deadline,
        None,
        Default::default(),
        Default::default(),
    )
    .run(&program, func, None);
    let took_ms = start.elapsed().as_secs_f64() * 1e3;
    Reply {
        psis: run.inferences.iter().map(|(_, inf)| inf.precondition.psi.to_string()).collect(),
        timed_out: deadline.expired(),
        took_ms,
    }
}

fn served(cl: &mut Client, source: &str, func: &str, d: u64) -> Reply {
    let req = InferRequest {
        program: source.to_string(),
        func: Some(func.to_string()),
        deadline_ms: Some(d),
        tests: None,
        trace: None,
    };
    let resp = cl.infer(&req).expect("infer round-trip");
    let ms = |field: &str| resp.get(field).and_then(Json::as_f64).expect(field);
    Reply {
        psis: served_psis(&resp).unwrap_or_else(|| panic!("{func}: error reply {resp:?}")),
        timed_out: resp.get("timed_out").and_then(Json::as_bool).expect("timed_out"),
        took_ms: ms("queue_ms") + ms("elapsed_ms"),
    }
}

/// Runs every program at every deadline along one path and checks both
/// claims; returns the largest overrun past the deadline seen.
fn conform(path: &str, mut answer: impl FnMut(&str, &str, u64) -> Reply) -> f64 {
    let mut worst = f64::MIN;
    for (source, func) in programs() {
        let truth = offline_psis(&minilang::compile(&source).unwrap(), &func);
        for d in DEADLINES_MS {
            let reply = answer(&source, &func, d);
            let overrun = reply.took_ms - d as f64;
            worst = worst.max(overrun);
            assert!(
                overrun <= B_MS,
                "{path}: {func} at deadline_ms {d} replied after {:.1} ms (bound {} + {B_MS})",
                reply.took_ms,
                d
            );
            assert!(
                reply.timed_out || reply.psis == truth,
                "{path}: {func} at deadline_ms {d} changed ψ without timed_out: {:?} vs {truth:?}",
                reply.psis
            );
        }
    }
    worst
}

#[test]
fn deadlines_hold_and_every_changed_psi_is_marked_timed_out() {
    let worst = conform("offline", offline);
    println!("offline: worst overrun {worst:.2} ms");

    let daemon =
        Server::start(ServerConfig { workers: 1, ..ServerConfig::default() }).expect("bind daemon");
    let mut cl = Client::connect(&daemon.local_addr().to_string()).expect("connect daemon");
    let worst = conform("preinferd", |s, f, d| served(&mut cl, s, f, d));
    println!("preinferd: worst overrun {worst:.2} ms");

    let shards: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
                .expect("bind shard")
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut cl = Client::connect(&router.local_addr().to_string()).expect("connect router");
    let worst = conform("preinfer-router", |s, f, d| served(&mut cl, s, f, d));
    println!("preinfer-router: worst overrun {worst:.2} ms");

    router.handle().shutdown();
    router.join();
    for s in shards.into_iter().chain([daemon]) {
        s.handle().shutdown();
        s.join();
    }
}
