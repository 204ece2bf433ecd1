//! The paper's §III soundness check over the whole corpus: for every run
//! of every corpus method's generated suite that completed or failed at a
//! check, solving the recorded path condition and running the model
//! records the same path and ends the same way. Runs a budget stopped are
//! skipped and counted; every `Unknown` solver verdict is named and fails
//! the test, and so does every unsatisfiable path condition not listed in
//! [`KNOWN_UNSAT`].

mod common;

#[path = "../crates/concolic/tests/replay/mod.rs"]
mod replay;

use preinfer::prelude::*;
use replay::Tally;

/// Runs whose recorded path condition is unsatisfiable, each a known
/// executor defect with its reason. The observed set must equal this list,
/// so a new defect fails the test, and so does a mended one still listed.
const KNOWN_UNSAT: &[(&str, &str)] = &[(
    "SVComp.SVCompCSharp::bounded_sum_gate run 4 on (k: 4)",
    "the assert condition `s != 10` is concrete here, so the executor \
     records the constant witness `false` (the condition's value) as the \
     violating entry instead of its taken form `true`; the failing path \
     condition is unsatisfiable, its disjunct collapses to `false`, so α \
     is `false` and ψ reads `true`, which admits the failing state k = 4",
)];

#[test]
fn every_generated_run_replays_its_path_condition() {
    let mut tally = Tally::default();
    for m in &common::corpus() {
        let tp = m.compile();
        let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
        for (i, run) in suite.runs.iter().enumerate() {
            let label = format!("{}::{} run {i} on {}", m.namespace, m.name, run.state);
            tally.replay(&tp, m.name, &run.path, &label);
        }
    }
    let report = tally.report("corpus suites");
    eprintln!("{report}");
    assert!(tally.replayed >= 900, "near-vacuous replay: {report}");
    assert!(tally.unknown.is_empty(), "{report}");
    let known: Vec<&str> = KNOWN_UNSAT.iter().map(|(label, _)| *label).collect();
    assert_eq!(tally.unsat, known, "{report}");
}
