//! The sharding front's core contract: a ψ served *through*
//! `preinfer-router` is byte-identical to what a direct daemon serves and
//! to what the offline pipeline computes — for every subject in the
//! evaluation corpus, across two shards — and key-affinity routing sends
//! repeat submissions of the same method back to the same shard, which is
//! observable as each shard's cumulative solver-cache hit rate rising on
//! a second corpus pass.

use server::protocol;
use server::{
    offline_psis, served_psis, Client, InferRequest, Router, RouterConfig, Server, ServerConfig,
    ShellConfig,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

fn start_shard() -> Server {
    Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind shard daemon")
}

fn start_router(shards: &[&Server]) -> Router {
    Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("start router")
}

/// The router part's `request_id` from a stitched trace response (the
/// router's own admission counter, not any shard's).
fn a_router_request_id(resp: &server::json::Json) -> u64 {
    resp.get("traces")
        .and_then(|t| t.as_array())
        .and_then(|ts| ts.iter().find(|t| t.str_field("process") == Some("preinfer-router")))
        .and_then(|t| t.u64_field("request_id"))
        .expect("stitched response carries the router part's request id")
}

fn infer_req(m: &subjects::SubjectMethod) -> InferRequest {
    InferRequest {
        program: m.source.to_string(),
        func: Some(m.name.to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    }
}

fn solver_hit_rate(cl: &mut Client) -> f64 {
    let stats = cl.stats().expect("stats round-trip");
    stats
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .expect("stats carries cache.hit_rate")
}

fn solver_misses(cl: &mut Client) -> u64 {
    let stats = cl.stats().expect("stats round-trip");
    stats.get("cache").and_then(|c| c.u64_field("misses")).expect("stats carries cache.misses")
}

/// Corpus differential across the router, plus the key-affinity claim.
#[test]
fn routed_psis_match_direct_and_offline_for_the_whole_corpus() {
    let shard0 = start_shard();
    let shard1 = start_shard();
    let direct = start_shard();
    let router = start_router(&[&shard0, &shard1]);

    let mut via_router = Client::connect(&router.local_addr().to_string()).expect("connect");
    let mut via_direct = Client::connect(&direct.local_addr().to_string()).expect("connect");
    let mut s0 = Client::connect(&shard0.local_addr().to_string()).expect("connect shard0");
    let mut s1 = Client::connect(&shard1.local_addr().to_string()).expect("connect shard1");

    let corpus = subjects::all_subjects();
    assert!(!corpus.is_empty());

    // Pass 1: routed ψ == direct ψ == offline ψ, byte for byte.
    for m in &corpus {
        let truth = offline_psis(&m.compile(), m.name);
        let routed = via_router.infer(&infer_req(m)).expect("infer via router");
        let directly = via_direct.infer(&infer_req(m)).expect("infer via direct daemon");
        let routed_psis = served_psis(&routed)
            .unwrap_or_else(|| panic!("{}: router returned an error response", m.name));
        let direct_psis = served_psis(&directly)
            .unwrap_or_else(|| panic!("{}: direct daemon returned an error response", m.name));
        assert_eq!(routed_psis, truth, "{}: routed ψ diverged from offline", m.name);
        assert_eq!(routed_psis, direct_psis, "{}: routed ψ diverged from direct", m.name);
    }

    // Both shards took real traffic (71 subjects hash-split two ways),
    // and the split is exactly what `shard_of` predicts.
    let miss0 = solver_misses(&mut s0);
    let miss1 = solver_misses(&mut s1);
    assert!(miss0 > 0 && miss1 > 0, "hash split degenerate: {miss0}/{miss1} solver misses");
    let rate0 = solver_hit_rate(&mut s0);
    let rate1 = solver_hit_rate(&mut s1);

    // Pass 2, again through the router: affinity must land every subject
    // on the shard whose solver cache it already warmed, so each shard's
    // *cumulative* hit rate strictly rises; a misroute would add cold
    // misses instead.
    for m in &corpus {
        let resp = via_router.infer(&infer_req(m)).expect("infer via router (warm)");
        assert!(served_psis(&resp).is_some(), "{}: warm routed pass failed", m.name);
    }
    let rate0b = solver_hit_rate(&mut s0);
    let rate1b = solver_hit_rate(&mut s1);
    assert!(rate0b > rate0, "shard0 hit rate must rise ({rate0} -> {rate0b})");
    assert!(rate1b > rate1, "shard1 hit rate must rise ({rate1} -> {rate1b})");

    router.handle().shutdown();
    router.join();
    for s in [shard0, shard1, direct] {
        s.handle().shutdown();
        s.join();
    }
}

/// A shard with no live connection yields an immediate typed
/// `upstream_unavailable`; the surviving shard keeps serving.
#[test]
fn dead_shard_yields_typed_upstream_unavailable() {
    let shard0 = start_shard();
    let shard1 = start_shard();
    let router = start_router(&[&shard0, &shard1]);
    let mut cl = Client::connect(&router.local_addr().to_string()).expect("connect");

    // Find corpus subjects on each side of the hash split.
    let corpus = subjects::all_subjects();
    let on_shard = |want: usize| {
        corpus
            .iter()
            .find(|m| server::shard_of(m.source, Some(m.name), 2) == want)
            .expect("corpus covers both shards")
    };
    let dead_subject = on_shard(0);
    let live_subject = on_shard(1);

    shard0.handle().shutdown();
    shard0.join();
    // Give the router a beat to observe the EOF on its connection.
    std::thread::sleep(Duration::from_millis(300));

    let resp = cl.infer(&infer_req(dead_subject)).expect("typed error round-trip");
    assert_eq!(resp.str_field("error"), Some("upstream_unavailable"));
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(false));

    let resp = cl.infer(&infer_req(live_subject)).expect("live shard round-trip");
    assert!(served_psis(&resp).is_some(), "surviving shard must keep serving: {resp:?}");

    router.handle().shutdown();
    router.join();
    shard1.handle().shutdown();
    shard1.join();
}

/// The router holds one upstream connection per shard: merged `stats`
/// counts one live upstream per shard, each shard has accepted exactly
/// one connection (the router's), and the ψ served over them is the
/// offline ψ.
#[test]
fn the_router_holds_one_connection_per_shard() {
    let shard0 = start_shard();
    let shard1 = start_shard();
    let router = start_router(&[&shard0, &shard1]);
    let mut cl = Client::connect(&router.local_addr().to_string()).expect("connect");

    let m = &subjects::all_subjects()[0];
    let resp = cl.infer(&infer_req(m)).expect("infer via router");
    assert_eq!(served_psis(&resp), Some(offline_psis(&m.compile(), m.name)), "{}", m.name);

    let stats = cl.stats().expect("merged stats");
    let router_block = stats.get("router").expect("router block");
    assert_eq!(router_block.u64_field("live_upstreams"), Some(2), "{stats:?}");
    let shards = stats.get("shards").and_then(|s| s.as_array()).expect("shards array");
    assert_eq!(shards.len(), 2, "{stats:?}");
    for entry in shards {
        let counters = entry.get("stats").and_then(|s| s.get("counters")).expect("counters");
        assert_eq!(counters.u64_field("connections"), Some(1), "{entry:?}");
    }

    router.handle().shutdown();
    router.join();
    for s in [shard0, shard1] {
        s.handle().shutdown();
        s.join();
    }
}

/// A shard closes the router's quiet connection with a typed
/// `idle_timeout` notice, which leaves the shard no live connection.
/// Requests routed right after that close, while the router re-dials or
/// onto a connection the shard is closing, go out on a fresh connection
/// and succeed: none fails over.
#[test]
fn requests_routed_just_after_a_shard_idle_close_succeed() {
    let shard = Server::start(ServerConfig {
        workers: 1,
        shell: ShellConfig { idle_timeout_ms: 200, ..ShellConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind shard daemon");
    let router = Router::start(RouterConfig {
        shards: vec![shard.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    // A direct connection that polls faster than the idle deadline, so
    // every idle close the shard counts is one of the router's.
    let mut watch = Client::connect(&shard.local_addr().to_string()).expect("connect shard");
    let mut idle_closed = || {
        let stats = watch.stats().expect("shard stats round-trip");
        stats.get("counters").and_then(|c| c.u64_field("idle_closed")).expect("idle_closed")
    };
    let mut cl = Client::connect(&router.local_addr().to_string()).expect("connect router");
    let subject = &subjects::all_subjects()[0];
    for round in 0..5 {
        let before = idle_closed();
        let t0 = std::time::Instant::now();
        while idle_closed() == before {
            assert!(t0.elapsed().as_secs() < 5, "round {round}: the shard never idle-closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let resp = cl.infer(&infer_req(subject)).expect("infer round-trip");
        assert!(served_psis(&resp).is_some(), "round {round}: {resp:?}");
        let stats = cl.stats().expect("stats round-trip");
        let router_block = stats.get("router").unwrap_or_else(|| panic!("{stats:?}"));
        assert_eq!(router_block.u64_field("unavailable"), Some(0), "round {round}: {stats:?}");
    }

    router.handle().shutdown();
    router.join();
    shard.handle().shutdown();
    shard.join();
}

/// `stats` and `metrics` fan out to every shard and come back merged:
/// stats nests each shard's full report under its index, metrics
/// re-labels each shard's exposition with `shard="i"`.
#[test]
fn fanout_verbs_merge_across_shards() {
    let shard0 = start_shard();
    let shard1 = start_shard();
    let router = start_router(&[&shard0, &shard1]);
    let mut cl = Client::connect(&router.local_addr().to_string()).expect("connect");

    // Some traffic so the counters are non-trivial.
    let m = &subjects::all_subjects()[0];
    cl.infer(&infer_req(m)).expect("infer");

    let stats = cl.stats().expect("merged stats");
    assert_eq!(stats.get("ok").and_then(|v| v.as_bool()), Some(true));
    let router_block = stats.get("router").expect("router block");
    assert_eq!(router_block.u64_field("shards"), Some(2));
    assert_eq!(router_block.u64_field("forwarded"), Some(1));
    let shards = stats.get("shards").and_then(|s| s.as_array()).expect("shards array");
    assert_eq!(shards.len(), 2, "one entry per shard");
    for (i, entry) in shards.iter().enumerate() {
        assert_eq!(entry.u64_field("shard"), Some(i as u64));
        let nested = entry.get("stats").expect("nested shard stats");
        assert!(nested.get("counters").is_some(), "full shard report nested verbatim");
        let memory = nested.get("memory").expect("each shard reports its memory");
        assert!(memory.u64_field("resident_bytes").unwrap_or(0) > 0, "{memory:?}");
        assert!(memory.get("arena_nodes").and_then(|a| a.u64_field("cpreds")).is_some());
    }

    let metrics = cl.metrics().expect("merged metrics");
    let text = metrics.str_field("text").expect("exposition text");
    assert!(text.contains("shard=\"0\""), "shard 0 exposition present");
    assert!(text.contains("shard=\"1\""), "shard 1 exposition present");
    assert!(text.contains("preinfer_router_requests_total"), "router's own metrics lead the merge");
    for shard in ["0", "1"] {
        let gauge = format!("preinfer_arena_nodes{{shard=\"{shard}\",arena=\"cpreds\"}} ");
        assert!(text.lines().any(|l| l.starts_with(&gauge)), "no {gauge}in the merged metrics");
    }
    // Every family — shared ones included — has exactly one HELP line,
    // one TYPE line, and all of its lines in one contiguous group.
    let mut headers: HashMap<(&str, &str), usize> = HashMap::new();
    let mut groups: Vec<&str> = Vec::new();
    for line in text.lines() {
        let family = if let Some(header) = line.strip_prefix("# ") {
            let mut words = header.split(' ');
            let (kind, name) =
                (words.next().unwrap(), words.next().expect("header names a family"));
            *headers.entry((name, kind)).or_default() += 1;
            name
        } else {
            let series = line.split(['{', ' ']).next().expect("sample names a series");
            ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| series.strip_suffix(suffix))
                .find(|base| headers.contains_key(&(*base, "TYPE")))
                .unwrap_or(series)
        };
        if groups.last() != Some(&family) {
            assert!(
                !groups.contains(&family),
                "family {family} split into several groups:\n{text}"
            );
            groups.push(family);
        }
    }
    for family in groups {
        for kind in ["HELP", "TYPE"] {
            let n = headers.get(&(family, kind)).copied().unwrap_or(0);
            assert_eq!(n, 1, "family {family} has {n} {kind} lines:\n{text}");
        }
    }

    router.handle().shutdown();
    router.join();
    for s in [shard0, shard1] {
        s.handle().shutdown();
        s.join();
    }
}

/// Distributed tracing is behaviorally neutral and joinable. ψ served
/// with tracing off, with the router head-sampling every request
/// (router-minted contexts), and with a client-supplied trace context is
/// byte-identical to the offline pipeline in all three modes; and a
/// traced routed request leaves one *stitched* multi-process trace —
/// the router's `trace --trace-id X` verb returns the router part and
/// the owning shard's part under the same trace_id, and `obs::analyze`
/// merges their event streams into a single tree with the shard's `run`
/// nested under the router's `upstream_rtt` span.
#[test]
fn tracing_is_psi_neutral_and_stitches_across_processes() {
    let shard0 = start_shard();
    let shard1 = start_shard();
    let plain = start_router(&[&shard0, &shard1]);
    let traced = Router::start(RouterConfig {
        shards: vec![shard0.local_addr().to_string(), shard1.local_addr().to_string()],
        shell: ShellConfig { trace_sample: 1, ..ShellConfig::default() },
    })
    .expect("start traced router");

    let mut via_plain = Client::connect(&plain.local_addr().to_string()).expect("connect");
    let mut via_traced = Client::connect(&traced.local_addr().to_string()).expect("connect");

    let corpus = subjects::all_subjects();
    let mut last_tid = String::new();
    for (i, m) in corpus.iter().step_by(5).enumerate() {
        let truth = offline_psis(&m.compile(), m.name);
        let off = served_psis(&via_plain.infer(&infer_req(m)).expect("infer untraced"))
            .unwrap_or_else(|| panic!("{}: untraced router returned an error", m.name));
        let minted = served_psis(&via_traced.infer(&infer_req(m)).expect("infer router-minted"))
            .unwrap_or_else(|| panic!("{}: traced router returned an error", m.name));
        let mut req = infer_req(m);
        let tid = format!("{:032x}", 0xfeed_face_0000_0000_u128 + i as u128);
        req.trace = Some(server::TraceContext {
            trace_id: tid.clone(),
            parent_span_id: None,
            sampled: true,
        });
        let supplied = served_psis(&via_traced.infer(&req).expect("infer client-context"))
            .unwrap_or_else(|| panic!("{}: client-context request returned an error", m.name));
        assert_eq!(off, truth, "{}: untraced ψ diverged from offline", m.name);
        assert_eq!(minted, truth, "{}: router-minted tracing changed ψ", m.name);
        assert_eq!(supplied, truth, "{}: client trace context changed ψ", m.name);
        last_tid = tid;
    }

    // Fetch the stitched trace for the last client-supplied id: the
    // router part leads, the owning shard's part follows, same trace_id.
    let resp = via_traced
        .trace(server::TraceSelect::ByTraceId(last_tid.clone()))
        .expect("stitched trace verb");
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let traces = resp.get("traces").and_then(|t| t.as_array()).expect("traces array");
    assert_eq!(traces.len(), 2, "router part + owning shard part: {resp:?}");
    assert_eq!(traces[0].str_field("process"), Some("preinfer-router"));
    assert_eq!(traces[0].str_field("reason"), Some("context"));
    assert!(traces[1].get("shard").and_then(|v| v.as_u64()).is_some(), "shard part tagged");
    for t in traces {
        assert_eq!(t.str_field("trace_id"), Some(last_tid.as_str()));
    }

    // Merge both event streams (re-rendered to JSON lines, as a client
    // piping to `preinfer-trace -` would) and check the tree shape.
    let mut lines: Vec<String> = Vec::new();
    for t in traces {
        let events = t.get("events").and_then(|e| e.as_array()).expect("events array");
        for ev in events {
            lines.push(server::json::render(ev));
        }
    }
    let a =
        obs::TraceAnalysis::from_lines(lines.iter().map(String::as_str)).expect("merged analysis");
    assert_eq!(a.trace_id.as_deref(), Some(last_tid.as_str()));
    assert_eq!(a.processes, vec!["preinfer-router", "preinferd"]);
    assert_eq!(a.roots.len(), 1, "one merged tree rooted at the router's route span");
    let root = &a.spans[&a.roots[0]];
    assert_eq!(root.stage, "route");
    let rtt = root
        .children
        .iter()
        .map(|c| &a.spans[c])
        .find(|s| s.stage == "upstream_rtt")
        .expect("route has an upstream_rtt child");
    let run = rtt
        .children
        .iter()
        .map(|c| &a.spans[c])
        .find(|s| s.stage == "run")
        .expect("shard run nests under upstream_rtt");
    assert_eq!(run.process, "preinferd");
    assert!(run.dur_us <= rtt.dur_us, "shard service time fits inside the rtt span");
    assert!(!run.children.is_empty(), "shard pipeline spans hang under its run node");
    // Cross-tier accounting stays within the router's wall clock.
    assert!(
        a.exclusive_total_us() <= a.wall_us(),
        "exclusive {} µs exceeds wall {} µs",
        a.exclusive_total_us(),
        a.wall_us()
    );
    let per = a.process_totals();
    assert_eq!(per.len(), 2, "both tiers in the exclusive split");
    assert!(per.iter().all(|(_, us)| *us > 0), "both tiers did attributable work: {per:?}");

    // `trace --request-id` against the router resolves ownership via the
    // router's own ring: the shard leg is fetched by the distributed
    // trace_id, not by the shard's coincidental request numbering, so
    // the same stitched pair comes back.
    let router_rid = a_router_request_id(&resp);
    let by_rid =
        via_traced.trace(server::TraceSelect::ById(router_rid)).expect("trace by request id");
    let rid_traces = by_rid.get("traces").and_then(|t| t.as_array()).expect("traces array");
    assert_eq!(rid_traces.len(), 2, "request-id lookup resolves the owning shard: {by_rid:?}");
    for t in rid_traces {
        assert_eq!(t.str_field("trace_id"), Some(last_tid.as_str()));
    }

    // Router-minted traces were retained too (reason `head`, a real
    // 32-hex id) even though the client never saw their ids.
    let minted = via_traced.trace(server::TraceSelect::Last(64)).expect("trace verb");
    let minted_traces = minted.get("traces").and_then(|t| t.as_array()).expect("traces");
    let head_minted = minted_traces.iter().any(|t| {
        t.str_field("process") == Some("preinfer-router")
            && t.str_field("reason") == Some("head")
            && t.str_field("trace_id")
                .is_some_and(|tid| tid.len() == 32 && tid.chars().all(|c| c.is_ascii_hexdigit()))
    });
    assert!(head_minted, "router-minted head samples retained in the router ring");

    for r in [plain, traced] {
        r.handle().shutdown();
        r.join();
    }
    for s in [shard0, shard1] {
        s.handle().shutdown();
        s.join();
    }
}

/// Requests pipelined onto one connection complete and are correlated by
/// id even when they finish out of order — on a daemon directly
/// (pipelining is its default protocol behaviour, and two workers finish
/// in any order) and through the router, whose shards answer
/// independently.
#[test]
fn pipelined_requests_are_answered_by_id() {
    let shard0 = start_shard();
    let shard1 = start_shard();
    let direct = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind direct daemon");
    let router = start_router(&[&shard0, &shard1]);

    let corpus = subjects::all_subjects();
    let depth = 8.min(corpus.len());
    for addr in [direct.local_addr(), router.local_addr()] {
        let mut cl = Client::connect(&addr.to_string()).expect("connect");
        for (i, m) in corpus.iter().take(depth).enumerate() {
            let frame = protocol::render_infer(Some(&format!("pipe-{i}")), &infer_req(m));
            protocol::write_frame(cl.stream_mut(), &frame).expect("pipelined write");
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..depth {
            let resp = cl.read_response().expect("pipelined response");
            assert!(served_psis(&resp).is_some(), "{addr}: pipelined request failed: {resp:?}");
            let id = resp.str_field("id").expect("id echoed").to_string();
            assert!(id.starts_with("pipe-"), "{addr}: original id echoed back, got {id}");
            assert!(seen.insert(id), "{addr}: each id answered exactly once");
        }
        assert_eq!(seen.len(), depth);
    }

    router.handle().shutdown();
    router.join();
    for s in [shard0, shard1, direct] {
        s.handle().shutdown();
        s.join();
    }
}

/// The router half of the oversized-allocation regression: test generation
/// finds `n = 2^60 + 1`, past `interp::MAX_ARRAY_CELLS`, so the executors
/// end that run out of fuel; the one-worker shard behind the router
/// answers it, serves the next request, and both processes drain.
#[test]
fn oversized_allocation_through_the_router_is_answered_and_the_shard_serves_on() {
    const HUGE_ALLOC: &str = "fn f(n int) -> int {
        if (n > 1152921504606846976) { let a = new_int_array(n); return len(a); }
        return 0;
    }";
    let shard = start_shard();
    let router = start_router(&[&shard]);
    let mut cl = Client::connect(&router.local_addr().to_string()).expect("connect router");
    // A lost worker never answers: fail within a minute instead of hanging.
    cl.stream_mut().set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");

    let huge = InferRequest {
        program: HUGE_ALLOC.to_string(),
        func: Some("f".to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    };
    let resp = cl.infer(&huge).expect("oversized-allocation round-trip");
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true), "{resp:?}");

    let m = subjects::all_subjects()
        .into_iter()
        .find(|m| m.name == "guarded_div")
        .expect("guarded_div subject");
    let resp = cl.infer(&infer_req(&m)).expect("follow-up round-trip");
    assert_eq!(served_psis(&resp), Some(offline_psis(&m.compile(), m.name)), "{resp:?}");

    let (tx, rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        router.handle().shutdown();
        router.join();
        shard.handle().shutdown();
        shard.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("drain wedged: join() did not return");
    joiner.join().unwrap();
}
