//! The test-generation differential: how flips are deduplicated is
//! unobservable.
//!
//! The golden file under `tests/goldens/` records, for every corpus
//! subject, the `runs` and `flips` counts of the generator's
//! `testgen_done` trace event plus a digest of its ordered `flip` events
//! (site, depth, verdict). It was captured before flip signatures moved
//! from vectors of canonical predicates to vectors of per-call canonical
//! ids, so a match shows the new dedupe keys attempt exactly the same
//! flips, in the same order, with the same verdicts.
//!
//! Regenerate (only for changes that intentionally alter test generation)
//! with `UPDATE_TESTGEN_GOLDENS=1 cargo test --test testgen_differential`.

use preinfer::obs;
use preinfer::obs::json;
use preinfer::prelude::*;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/goldens/testgen_corpus.golden";

/// 64-bit FNV-1a: a digest that is stable across toolchains and runs.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One line per method: the `testgen_done` counts and the digest of the
/// `flip` events, in emission order. The `incremental` label names the
/// warm-session solver path the flip loop runs on.
fn testgen_summary(m: &subjects::SubjectMethod) -> String {
    let tp = m.compile();
    let sink = Arc::new(obs::TraceSink::recording());
    let tg = TestGenConfig {
        solver_cache: Some(Arc::new(SolverCache::new())),
        trace: Some(sink.clone()),
        ..TestGenConfig::default()
    };
    generate_tests(&tp, m.name, &tg);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut done = None;
    for line in sink.lines() {
        let fields = json::parse(&line).expect("trace line parses");
        let field = |name: &str| fields.get(name).unwrap_or_else(|| panic!("no {name}: {line}"));
        match fields.get("ev").and_then(|f| f.as_str()) {
            Some("flip") => {
                let flip = format!(
                    "{}/{}/{};",
                    field("site").as_str().expect("site"),
                    field("depth").as_u64().expect("depth"),
                    field("verdict").as_str().expect("verdict"),
                );
                digest = fnv1a(flip.as_bytes(), digest);
            }
            Some("testgen_done") => {
                done = Some((
                    field("runs").as_u64().expect("runs"),
                    field("flips").as_u64().expect("flips"),
                ));
            }
            _ => {}
        }
    }
    let (runs, flips) = done.expect("generation emitted testgen_done");
    format!("{} incremental runs={runs} flips={flips} flip_digest={digest:016x}", m.name)
}

/// Renders the whole corpus (plus the motivating example) to one
/// deterministic multi-line string.
fn corpus_render() -> String {
    let mut methods = subjects::all_subjects();
    methods.push(subjects::motivating::motivating());
    let mut lines = Vec::new();
    for m in &methods {
        lines.push(format!("# {}::{}", m.namespace, m.name));
        lines.push(testgen_summary(m));
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[test]
fn testgen_attempts_the_same_flips_as_the_golden() {
    let got = corpus_render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_TESTGEN_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {GOLDEN_PATH}: {e}"));
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} diverged from the test-generation golden", k + 1);
    }
    assert_eq!(got, want, "corpus render is not byte-identical to the test-generation golden");
}
