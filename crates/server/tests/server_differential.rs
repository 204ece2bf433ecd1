//! The serving layer's core contract: a ψ served by `preinferd` is
//! byte-identical to the ψ the offline pipeline computes for the same
//! subject, for every subject in the evaluation corpus — and the shared
//! warm cache makes a second submission strictly cheaper, observable
//! through the `stats` verb.

use server::{offline_psis, served_psis, Client, Server, ServerConfig};

fn cumulative_hit_rate(cl: &mut Client) -> f64 {
    let stats = cl.stats().expect("stats round-trip");
    stats
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .expect("stats carries cache.hit_rate")
}

#[test]
fn served_psis_match_offline_for_the_whole_corpus() {
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");

    let corpus = subjects::all_subjects();
    assert!(!corpus.is_empty());
    let ground_truth: Vec<Vec<String>> =
        corpus.iter().map(|m| offline_psis(&m.compile(), m.name)).collect();

    // Pass 1: cold daemon cache. Every served ψ must equal the offline one.
    for (m, truth) in corpus.iter().zip(&ground_truth) {
        let req = server::InferRequest {
            program: m.source.to_string(),
            func: Some(m.name.to_string()),
            deadline_ms: None,
            tests: None,
            trace: None,
        };
        let resp = cl.infer(&req).expect("infer round-trip");
        let served = served_psis(&resp)
            .unwrap_or_else(|| panic!("{}: server returned an error response", m.name));
        assert_eq!(&served, truth, "{}: served ψ diverged from the offline pipeline", m.name);
    }
    let rate_after_first = cumulative_hit_rate(&mut cl);

    // Pass 2: warm cache. Same answers, strictly higher cumulative hit
    // rate — the canonical-key invariant means reuse never changes ψ.
    for (m, truth) in corpus.iter().zip(&ground_truth) {
        let req = server::InferRequest {
            program: m.source.to_string(),
            func: Some(m.name.to_string()),
            deadline_ms: None,
            tests: None,
            trace: None,
        };
        let resp = cl.infer(&req).expect("infer round-trip (warm)");
        let served =
            served_psis(&resp).unwrap_or_else(|| panic!("{}: warm-cache error response", m.name));
        assert_eq!(&served, truth, "{}: warm-cache ψ diverged", m.name);
    }
    let rate_after_second = cumulative_hit_rate(&mut cl);
    assert!(
        rate_after_second > rate_after_first,
        "second corpus pass should raise the cumulative hit rate \
         ({rate_after_first} -> {rate_after_second})"
    );

    server.handle().shutdown();
    server.join();
}
