//! The corpus harness the root differential tests share: the corpus list,
//! the one ψ-line renderer, the one golden compare/update helper, the one
//! production pass that renders the three corpus goldens, and the one
//! table of config rows checked against the ψ golden.
//!
//! **The production pass.** For every corpus subject plus the motivating
//! example, one [`SummaryBuildConfig::run`] (the run the `preinfer` CLI,
//! the daemon and `tables` go through) executes with a fresh solver cache
//! shared by both stages, a recording sink, and fresh tier and session
//! counters. That one run renders the three goldens under `tests/goldens/`:
//!
//! - `interning_corpus.golden`: one ψ line per inference (ψ, α, disjuncts
//!   and pruning counters). Captured before terms were hash-consed; checked
//!   by `tests/interning_differential.rs`.
//! - `testgen_corpus.golden`: the `runs` and `flips` of the generator's
//!   `testgen_done` event and a digest of its ordered `flip` events (site,
//!   depth, verdict). Captured before flip signatures became per-call
//!   canonical ids; checked by `tests/testgen_differential.rs`.
//! - `work_ledger.golden`: the work done, counted exactly, so a change that
//!   claims to do the same work more cheaply must pass it unchanged;
//!   checked by `tests/work_ledger.rs`:
//!   - `lookups`/`hits`: solver-cache lookups and hits;
//!   - `syn`/`int`/`smp`/`esc`: answers by the syntactic, interval and
//!     simplex tiers, and escalations out of the interval tier;
//!   - `tests`/`flips`: suite size and attempted branch flips;
//!   - `runs`/`examined`/`removed`: pruning's dynamic runs and examined and
//!     removed predicates;
//!   - `sessions`/`queries`/`pushes`/`pops`/`reused`: incremental-session
//!     activity (`reused` is the summed reused stack depth).
//!
//! Only a change that means to alter what a golden records regenerates it,
//! with `UPDATE_INTERNING_GOLDENS=1 cargo test --test interning_differential`,
//! `UPDATE_TESTGEN_GOLDENS=1 cargo test --test testgen_differential` or
//! `UPDATE_WORK_LEDGER=1 cargo test --test work_ledger`. Each variable
//! rewrites its own golden only.
//!
//! **The rows.** Each row of [`ROWS`] runs the whole corpus under one
//! configuration and must render exactly the ψ lines of
//! `interning_corpus.golden`. No row writes a golden.

#![allow(dead_code)] // each test binary uses its own subset

use preinfer::obs::{json, TraceSink};
use preinfer::prelude::*;
use preinfer_core::Inference;
use std::sync::Arc;

/// Every evaluation subject plus the motivating example.
pub fn corpus() -> Vec<subjects::SubjectMethod> {
    let mut methods = subjects::all_subjects();
    methods.push(subjects::motivating::motivating());
    methods
}

/// A fresh run of one method: `backend` for both stages, a fresh solver
/// cache shared by both (or none), `sink` on every stage, fresh tier and
/// session counters, no deadline, one job.
pub fn run_config(
    backend: BackendKind,
    cache: bool,
    sink: Option<Arc<TraceSink>>,
) -> SummaryBuildConfig {
    let mut tg = TestGenConfig::default();
    tg.solver.backend = backend;
    SummaryBuildConfig::new(
        tg,
        cache.then(|| Arc::new(SolverCache::new())),
        Deadline::none(),
        sink,
        Default::default(),
        Default::default(),
    )
}

/// Everything observable about one inference: ψ, α, disjuncts and the
/// pruning counters (the cache counters depend on traffic order, so they
/// are left out).
pub fn psi_line(method: &str, acl: minilang::CheckId, inf: &Inference) -> String {
    let s = &inf.prune_stats;
    let disjuncts: Vec<String> = inf
        .disjuncts
        .iter()
        .map(|d| {
            let parts: Vec<String> = d.parts.iter().map(|p| p.to_string()).collect();
            format!("[{}]{}", parts.join(" && "), if d.quantified { "Q" } else { "" })
        })
        .collect();
    format!(
        "{method} {acl:?} psi={} alpha={} quantified={} ndisj={} disjuncts={} \
         examined={} kept_c={} kept_d={} kept_g={} removed={} runs={}",
        inf.precondition.psi,
        inf.precondition.alpha,
        inf.precondition.quantified,
        inf.precondition.disjuncts,
        disjuncts.join(" | "),
        s.examined,
        s.kept_c_depend,
        s.kept_d_impact,
        s.kept_guard,
        s.removed,
        s.dynamic_runs,
    )
}

/// The ψ lines of every inference in `inferences`, in ACL order.
pub fn psi_lines(method: &str, inferences: &[(minilang::CheckId, Inference)]) -> Vec<String> {
    inferences.iter().map(|(acl, inf)| psi_line(method, *acl, inf)).collect()
}

/// Runs `m` under `cfg` and renders its ψ lines.
pub fn run_psi_lines(m: &subjects::SubjectMethod, cfg: &SummaryBuildConfig) -> Vec<String> {
    psi_lines(m.name, &cfg.run(&m.compile(), m.name, None).inferences)
}

/// One method's section of a corpus golden: a `# namespace::name` header,
/// then `lines`.
pub fn section(m: &subjects::SubjectMethod, lines: &[String]) -> String {
    let mut out = format!("# {}::{}\n", m.namespace, m.name);
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The corpus golden whose section for each method holds `lines(method)`.
pub fn render_corpus(mut lines: impl FnMut(&subjects::SubjectMethod) -> Vec<String>) -> String {
    corpus().iter().map(|m| section(m, &lines(m))).collect()
}

fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(file)
}

/// The committed golden `tests/goldens/<file>`.
pub fn read_golden(file: &str) -> String {
    std::fs::read_to_string(golden_path(file))
        .unwrap_or_else(|e| panic!("missing golden {file}: {e}"))
}

/// `Err` naming `label` and the first line where `got` differs from `want`.
pub fn compare(label: &str, want: &str, got: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let (mut w, mut g) = (want.lines(), got.lines());
    for k in 1.. {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => break,
            (a, b) => {
                return Err(format!(
                    "{label}: line {k} differs\n  want: {}\n  got:  {}",
                    a.unwrap_or("<end>"),
                    b.unwrap_or("<end>")
                ))
            }
        }
    }
    Err(format!("{label}: the lines match but the bytes differ (line endings)"))
}

/// Asserts that `got` is the golden `file`, or, when the environment
/// variable `update` is set, rewrites that golden with `got` instead.
pub fn check_golden(file: &str, update: &str, got: &str) {
    if std::env::var_os(update).is_some() {
        std::fs::write(golden_path(file), got)
            .unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
        return;
    }
    if let Err(diff) = compare(file, &read_golden(file), got) {
        panic!("{diff}");
    }
}

pub const PSI_GOLDEN: &str = "interning_corpus.golden";

/// The three corpus goldens as one production pass renders them.
pub struct ProductionPass {
    pub psi: String,
    pub testgen: String,
    pub ledger: String,
}

/// 64-bit FNV-1a: a digest that is stable across toolchains and runs.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The generator's `testgen_done` `(runs, flips)` and the digest of its
/// `flip` events, in emission order, from a recorded trace.
fn testgen_events(lines: &[String]) -> (u64, u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut done = None;
    for line in lines {
        let fields = json::parse(line).expect("trace line parses");
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
    (runs, flips, digest)
}

/// The production pass: one recorded, cached run per corpus method, and
/// the three goldens rendered from it.
pub fn production_pass() -> ProductionPass {
    let (mut psi, mut testgen, mut ledger) = (String::new(), String::new(), String::new());
    for m in corpus() {
        let sink = Arc::new(TraceSink::recording());
        let cfg = run_config(BackendKind::Tiered, true, Some(sink.clone()));
        let MethodRun { suite, inferences, .. } = cfg.run(&m.compile(), m.name, None);
        psi.push_str(&section(&m, &psi_lines(m.name, &inferences)));

        let (runs, flips, digest) = testgen_events(&sink.lines());
        let line =
            format!("{} incremental runs={runs} flips={flips} flip_digest={digest:016x}", m.name);
        testgen.push_str(&section(&m, &[line]));

        let (runs, examined, removed) = inferences.iter().fold((0, 0, 0), |(r, e, d), (_, inf)| {
            let s = &inf.prune_stats;
            (r + s.dynamic_runs, e + s.examined, d + s.removed)
        });
        let c = cfg.testgen.solver_cache.as_ref().expect("the run has a cache").stats();
        let t = cfg.testgen.solver.tiers.snapshot();
        let s = cfg.testgen.solver.incremental_stats.snapshot();
        let line = format!(
            "{} lookups={} hits={} syn={} int={} smp={} esc={} tests={} flips={flips} \
             runs={runs} examined={examined} removed={removed} sessions={} queries={} \
             pushes={} pops={} reused={}",
            m.name,
            c.hits + c.misses,
            c.hits,
            t.answered_by_syntactic,
            t.answered_by_interval,
            t.answered_by_simplex,
            t.escalations,
            suite.len(),
            s.sessions,
            s.queries,
            s.pushes,
            s.pops,
            s.reused_depth_sum,
        );
        ledger.push_str(&section(&m, &[line]));
    }
    ProductionPass { psi, testgen, ledger }
}

/// A config row: its name and a fresh run per method.
pub type Row = (&'static str, fn() -> SummaryBuildConfig);

/// Every config axis the pipeline's ψ must not depend on. The production
/// pass (tiered, shared cache, recording sink) is the reference.
pub const ROWS: &[Row] = &[
    ("cache off", || run_config(BackendKind::Tiered, false, None)),
    ("simplex-only", || run_config(BackendKind::Simplex, true, None)),
    ("simplex-only, cache off", || run_config(BackendKind::Simplex, false, None)),
    ("jobs 8, shared cache", || {
        let mut cfg = run_config(BackendKind::Tiered, true, None);
        cfg.prune.jobs = 8;
        cfg
    }),
    ("aggregate sink", || {
        run_config(BackendKind::Tiered, true, Some(Arc::new(TraceSink::aggregate())))
    }),
    ("no sink", || run_config(BackendKind::Tiered, true, None)),
];

/// Asserts that each named row of [`ROWS`] renders the ψ golden over the
/// whole corpus; a failure names the row and the first line that differs.
pub fn assert_rows_render_psi_golden(rows: &[&str]) {
    let want = read_golden(PSI_GOLDEN);
    let failures: Vec<String> = rows
        .iter()
        .filter_map(|&row| {
            let (_, cfg) = ROWS
                .iter()
                .find(|(name, _)| *name == row)
                .unwrap_or_else(|| panic!("no config row `{row}`"));
            let got = render_corpus(|m| run_psi_lines(m, &cfg()));
            compare(&format!("row `{row}` vs {PSI_GOLDEN}"), &want, &got).err()
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
