//! The work ledger: how much work one default, single-threaded pass over
//! the corpus does, counted exactly.
//!
//! For every corpus subject plus the motivating example, one
//! [`SummaryBuildConfig::run`] — the driver the `preinfer` CLI and the
//! daemon run — executes with the default configuration, one job and a
//! fresh [`SolverCache`] shared by both stages. The golden under
//! `tests/goldens/` records one line per method:
//!
//! - `lookups`/`hits`: solver-cache lookups and hits;
//! - `syn`/`int`/`smp`/`esc`: answers by the syntactic, interval and
//!   simplex tiers, and escalations out of the interval tier;
//! - `tests`/`flips`: suite size and attempted branch flips;
//! - `runs`/`examined`/`removed`: pruning's dynamic runs and examined and
//!   removed predicates;
//! - `sessions`/`queries`/`pushes`/`pops`/`reused`: incremental-session
//!   activity (`reused` is the summed reused stack depth).
//!
//! Unlike a timing ratio, this is exact and immune to host noise: a change
//! that claims to do the same work more cheaply must pass it unchanged,
//! and a change that alters the work must regenerate it and say why.
//!
//! Regenerate with `UPDATE_WORK_LEDGER=1 cargo test --test work_ledger`.

use preinfer::obs;
use preinfer::obs::analyze::parse_flat_line;
use preinfer::prelude::*;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/goldens/work_ledger.golden";

/// The `flips` count of the generator's `testgen_done` event.
fn flips(sink: &obs::TraceSink) -> u64 {
    sink.lines()
        .iter()
        .filter_map(|line| {
            let fields = parse_flat_line(line).expect("trace line parses");
            (fields.get("ev").and_then(|f| f.as_str()) == Some("testgen_done"))
                .then(|| fields.get("flips").and_then(|f| f.as_u64()).expect("flips"))
        })
        .next()
        .expect("generation emitted testgen_done")
}

/// One ledger line for one method.
fn ledger_line(m: &subjects::SubjectMethod) -> String {
    let tp = m.compile();
    let cache = Arc::new(SolverCache::new());
    let tiers = Arc::new(TierCounters::default());
    let sessions = Arc::new(IncrementalCounters::default());
    let sink = Arc::new(obs::TraceSink::recording());
    let MethodRun { suite, inferences: inferred, .. } = SummaryBuildConfig::new(
        TestGenConfig::default(),
        Some(cache.clone()),
        Deadline::none(),
        Some(sink.clone()),
        tiers.clone(),
        sessions.clone(),
        1,
    )
    .run(&tp, m.name, None);
    let (runs, examined, removed) = inferred.iter().fold((0, 0, 0), |(r, e, d), (_, inf)| {
        let s = &inf.prune_stats;
        (r + s.dynamic_runs, e + s.examined, d + s.removed)
    });
    let c = cache.stats();
    let t = tiers.snapshot();
    let s = sessions.snapshot();
    format!(
        "{} lookups={} hits={} syn={} int={} smp={} esc={} tests={} flips={} runs={runs} \
         examined={examined} removed={removed} sessions={} queries={} pushes={} pops={} \
         reused={}",
        m.name,
        c.hits + c.misses,
        c.hits,
        t.answered_by_syntactic,
        t.answered_by_interval,
        t.answered_by_simplex,
        t.escalations,
        suite.len(),
        flips(&sink),
        s.sessions,
        s.queries,
        s.pushes,
        s.pops,
        s.reused_depth_sum,
    )
}

/// Renders the whole corpus (plus the motivating example) to one
/// deterministic multi-line string.
fn corpus_render() -> String {
    let mut methods = subjects::all_subjects();
    methods.push(subjects::motivating::motivating());
    let mut out = String::new();
    for m in &methods {
        out.push_str(&format!("# {}::{}\n{}\n", m.namespace, m.name, ledger_line(m)));
    }
    out
}

#[test]
fn corpus_pass_does_the_same_work_as_the_golden() {
    let got = corpus_render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_WORK_LEDGER").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {GOLDEN_PATH}: {e}"));
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} diverged from the work-ledger golden", k + 1);
    }
    assert_eq!(got, want, "corpus ledger is not byte-identical to the work-ledger golden");
}
