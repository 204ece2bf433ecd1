//! Daemon-lifetime summary-table behavior under `--interproc summary`:
//! the `summaries` stats block is served and populated, a repeat pass over
//! the same corpus strictly increases the table hit rate (α-equivalent
//! callee closures are re-resolved from the shared table instead of
//! re-inferred), served ψ stays identical across passes, and the
//! `preinfer_summary_*` metrics family appears in the exposition. A
//! method's identity is its whole callee closure, not its entry function:
//! one daemon serves two programs that differ only in a callee body each
//! its own ψ, in both interprocedural modes.

use server::{offline_psis, served_psis, Client, InferRequest, Server, ServerConfig};

const CHAIN: &str = "
fn leaf(d int) -> int { return 10 / d; }
fn mid(a int) -> int { return leaf(a - 1); }
fn entry(x int) -> int { return mid(x - 2); }";

/// The same callee closure modulo identifier naming: hits the table
/// without its own inference.
const CHAIN_RENAMED: &str = "
fn divisor(den int) -> int { return 10 / den; }
fn shifted(v int) -> int { return divisor(v - 1); }
fn entry(y int) -> int { return shifted(y - 2); }";

/// `lift_guard` with two `check_pos` bodies: the entry function renders
/// identically in both, so only the callee tells them apart.
const LIFT_GUARD_GT0: &str = "
fn check_pos(v int) -> int { assert(v > 0); return v; }
fn lift_guard(x int) -> int { return check_pos(x - 3); }";
const LIFT_GUARD_GT10: &str = "
fn check_pos(v int) -> int { assert(v > 10); return v; }
fn lift_guard(x int) -> int { return check_pos(x - 3); }";

fn req(program: &str) -> InferRequest {
    req_for(program, "entry")
}

fn req_for(program: &str, func: &str) -> InferRequest {
    InferRequest {
        program: program.to_string(),
        func: Some(func.to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    }
}

fn summary_field(cl: &mut Client, field: &str) -> u64 {
    let stats = cl.stats().expect("stats round-trip");
    stats
        .get("summaries")
        .and_then(|s| s.u64_field(field))
        .unwrap_or_else(|| panic!("stats response lacks summaries.{field}: {stats:?}"))
}

#[test]
fn summary_table_is_daemon_lifetime_and_second_pass_increases_hit_rate() {
    let server =
        Server::start(ServerConfig { workers: 1, summaries: true, ..ServerConfig::default() })
            .expect("bind loopback");
    let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");

    // Pass 1: cold table — every callee closure misses and is inserted.
    let first = cl.infer(&req(CHAIN)).expect("first pass");
    let first_psis = served_psis(&first).expect("first pass served psi");
    assert!(!first_psis.is_empty(), "multi-function subject must infer");
    let stats1 = cl.stats().expect("stats");
    let block = stats1.get("summaries").expect("summaries stats block");
    assert_eq!(block.str_field("mode"), Some("summary"));
    let (h1, m1) = (summary_field(&mut cl, "hits"), summary_field(&mut cl, "misses"));
    assert!(summary_field(&mut cl, "inserts") > 0, "cold pass must populate the table");
    assert!(summary_field(&mut cl, "entries") > 0);
    assert!(summary_field(&mut cl, "applies") > 0, "call sites must apply summaries");
    assert!(m1 > 0, "cold pass must miss");
    let rate1 = h1 as f64 / (h1 + m1) as f64;

    // Pass 2: the same program plus an α-renamed closure — both resolve
    // from the shared table, so hits strictly increase and so does the
    // lifetime hit rate; served ψ is unchanged.
    let second = cl.infer(&req(CHAIN)).expect("second pass");
    assert_eq!(served_psis(&second).expect("second pass served psi"), first_psis);
    let renamed = cl.infer(&req(CHAIN_RENAMED)).expect("renamed pass");
    assert!(served_psis(&renamed).is_some());
    let (h2, m2) = (summary_field(&mut cl, "hits"), summary_field(&mut cl, "misses"));
    assert!(h2 > h1, "repeat pass must hit the daemon-lifetime table");
    let rate2 = h2 as f64 / (h2 + m2) as f64;
    assert!(rate2 > rate1, "hit rate must strictly increase across passes ({rate1} -> {rate2})");

    let metrics = cl.metrics().expect("metrics");
    let text = metrics.str_field("text").expect("exposition text").to_string();
    for family in [
        "preinfer_summary_table_lookups_total",
        "preinfer_summary_table_entries",
        "preinfer_summary_applies_total",
        "preinfer_summary_fallbacks_total",
    ] {
        assert!(text.contains(family), "metrics exposition lacks {family}");
    }

    server.handle().shutdown();
    server.join();
}

#[test]
fn inline_mode_serves_an_idle_summaries_block() {
    // The default daemon reports the block (mode inline, all-zero) so
    // dashboards can scrape one shape regardless of configuration.
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
    let resp = cl.infer(&req(CHAIN)).expect("infer");
    assert!(served_psis(&resp).is_some());
    let stats = cl.stats().expect("stats");
    let block = stats.get("summaries").expect("summaries stats block");
    assert_eq!(block.str_field("mode"), Some("inline"));
    assert_eq!(block.u64_field("applies"), Some(0));
    assert_eq!(block.u64_field("entries"), Some(0));
    server.handle().shutdown();
    server.join();
}

#[test]
fn same_entry_function_with_different_callees_gets_its_own_psi() {
    let programs = [(LIFT_GUARD_GT0, "(x - 3) > 0"), (LIFT_GUARD_GT10, "(x - 3) > 10")];
    let expected: Vec<Vec<String>> = programs
        .iter()
        .map(|&(source, psi)| {
            let tp = minilang::compile(source).expect("test program compiles");
            let offline = offline_psis(&tp, "lift_guard");
            assert_eq!(offline, vec![psi.to_string()], "offline ψ of {source}");
            offline
        })
        .collect();
    for summaries in [false, true] {
        let server = Server::start(ServerConfig { summaries, ..ServerConfig::default() })
            .expect("bind loopback");
        let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
        // Both orders on one daemon: whichever program is served first,
        // nothing it leaves behind may answer for the other.
        for round in 0..2 {
            for ((source, _), want) in programs.iter().zip(&expected) {
                let resp = cl.infer(&req_for(source, "lift_guard")).expect("infer round-trip");
                let served = served_psis(&resp).expect("served ψ");
                assert_eq!(&served, want, "summaries {summaries}, round {round}: {source}");
            }
        }
        server.handle().shutdown();
        server.join();
    }
}

#[test]
fn a_summary_built_past_its_deadline_never_answers_a_later_request() {
    // A callee whose ψ needs flipped inputs: the seeds alone, all a request
    // past its deadline gets to run, infer a weaker summary.
    const HELPER_CALL: &str = "
fn helper(a int, b int) -> int {
    if (a > 3) { assert(b != a); }
    return 100 / a;
}
fn main(x int, y int) -> int { return helper(x - 1, y); }";
    let answer = |poison: bool| {
        let server =
            Server::start(ServerConfig { workers: 1, summaries: true, ..ServerConfig::default() })
                .expect("bind loopback");
        let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
        if poison {
            let expired = InferRequest { deadline_ms: Some(0), ..req_for(HELPER_CALL, "main") };
            let resp = cl.infer(&expired).expect("expired request");
            assert_eq!(resp.get("timed_out").and_then(|v| v.as_bool()), Some(true));
        }
        let resp = cl.infer(&req_for(HELPER_CALL, "main")).expect("infer");
        let fallbacks = summary_field(&mut cl, "fallbacks");
        server.handle().shutdown();
        server.join();
        (served_psis(&resp).expect("served ψ"), resp.u64_field("tests"), fallbacks)
    };
    let fresh = answer(false);
    assert_eq!(fresh.2, 0, "a fresh daemon applies the callee summary");
    assert_eq!(answer(true), fresh, "an expired request's summary answered a later request");
}
