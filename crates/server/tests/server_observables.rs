//! The observables golden: every number a serving process publishes,
//! by name and shape.
//!
//! Two processes are probed, each after one `guarded_div` inference:
//!
//! - a default `preinferd` (one worker);
//! - a `preinfer-router` over two such daemons.
//!
//! For each, the golden under `tests/goldens/` records one line per
//! observable, sorted:
//!
//! - `<process> stats <key.path> <json type>` for every key path of the
//!   `stats` response (array elements as `[]`);
//! - `<process> metrics <family> TYPE <type>` and `... HELP <text>` for
//!   every family of the `metrics` exposition;
//! - `<process> metrics <family> series {label="value",...}` for every
//!   series (histogram `le` bounds dropped, since they depend on the
//!   recorded latencies).
//!
//! Values are not recorded, only names, nesting and types, so the golden
//! is exact and immune to timing. A change that renames or drops a served
//! number fails it; a change that adds one regenerates it and says so.
//!
//! Regenerate with
//! `UPDATE_OBSERVABLES=1 cargo test -p server --test server_observables`.

use server::json::Json;
use server::{Client, InferRequest, Router, RouterConfig, Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};

const GOLDEN_PATH: &str = "tests/goldens/observables.golden";

fn start_daemon() -> Server {
    Server::start(ServerConfig { workers: 1, ..ServerConfig::default() }).expect("bind daemon")
}

fn infer_guarded_div(cl: &mut Client) {
    let m = subjects::all_subjects()
        .into_iter()
        .find(|m| m.name == "guarded_div")
        .expect("guarded_div is a corpus subject");
    let resp = cl
        .infer(&InferRequest {
            program: m.source.to_string(),
            func: Some(m.name.to_string()),
            deadline_ms: None,
            tests: None,
            jobs: 1,
            trace: None,
        })
        .expect("infer round-trip");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
}

fn json_type(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// Every key path below `v` with its JSON type.
fn key_paths(prefix: &str, v: &Json, out: &mut BTreeSet<String>) {
    match v {
        Json::Obj(m) => {
            for (k, child) in m {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                out.insert(format!("{path} {}", json_type(child)));
                key_paths(&path, child, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                let path = format!("{prefix}[]");
                out.insert(format!("{path} {}", json_type(item)));
                key_paths(&path, item, out);
            }
        }
        _ => {}
    }
}

/// The exposition's families: TYPE and HELP lines and the label sets of
/// their series (without `le`).
fn metric_lines(text: &str, out: &mut BTreeSet<String>) {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            let (kind, rest) = header.split_once(' ').expect("header kind");
            let (family, body) = rest.split_once(' ').expect("header body");
            if kind == "TYPE" {
                types.insert(family.to_string(), body.to_string());
            }
            out.insert(format!("{family} {kind} {body}"));
            continue;
        }
        let sample = line.split(" # ").next().expect("sample");
        let (series, _value) = sample.rsplit_once(' ').expect("sample value");
        let (name, labels) = match series.split_once('{') {
            Some((name, labels)) => (name, labels.trim_end_matches('}')),
            None => (series, ""),
        };
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|s| name.strip_suffix(s))
            .find(|f| types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        let kept: Vec<&str> =
            labels.split(',').filter(|l| !l.is_empty() && !l.starts_with("le=")).collect();
        out.insert(format!("{family} series {{{}}}", kept.join(",")));
    }
}

/// The golden lines of one process behind `cl`.
fn observables(process: &str, cl: &mut Client) -> Vec<String> {
    let stats = cl.stats().expect("stats round-trip");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true), "{stats:?}");
    let mut paths = BTreeSet::new();
    key_paths("", &stats, &mut paths);
    let metrics = cl.metrics().expect("metrics round-trip");
    let text = metrics.str_field("text").expect("metrics text");
    let mut families = BTreeSet::new();
    metric_lines(text, &mut families);
    paths
        .into_iter()
        .map(|p| format!("{process} stats {p}"))
        .chain(families.into_iter().map(|f| format!("{process} metrics {f}")))
        .collect()
}

fn render() -> String {
    let daemon = start_daemon();
    let mut cl = Client::connect(&daemon.local_addr().to_string()).expect("connect daemon");
    infer_guarded_div(&mut cl);
    let mut lines = observables("preinferd", &mut cl);

    let shards = [start_daemon(), start_daemon()];
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut rc = Client::connect(&router.local_addr().to_string()).expect("connect router");
    infer_guarded_div(&mut rc);
    lines.extend(observables("preinfer-router", &mut rc));

    router.handle().shutdown();
    router.join();
    for s in shards.into_iter().chain([daemon]) {
        s.handle().shutdown();
        s.join();
    }
    lines.sort();
    lines.into_iter().map(|l| l + "\n").collect()
}

#[test]
fn served_observables_match_the_golden() {
    let got = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_OBSERVABLES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {GOLDEN_PATH}: {e}"));
    let got_set: BTreeSet<&str> = got.lines().collect();
    let want_set: BTreeSet<&str> = want.lines().collect();
    let missing: Vec<&&str> = want_set.difference(&got_set).collect();
    let added: Vec<&&str> = got_set.difference(&want_set).collect();
    assert!(
        missing.is_empty() && added.is_empty(),
        "served observables diverged from the golden\nmissing: {missing:#?}\nadded: {added:#?}"
    );
}
