//! The paper's §III soundness check for recorded path conditions: solve
//! the path condition one run recorded, run the executor on the model, and
//! the new run must record as many entries, share the whole recorded
//! prefix (same sites, same canonical predicates) and end the same way.
//!
//! Shared by the concolic crate's path and property tests and by the root
//! package's corpus replay (`tests/path_replay.rs`).

#![allow(dead_code)] // each test binary uses its own subset

use concolic::{run_concolic, ConcolicConfig};
use minilang::TypedProgram;
use solver::{solve_preds, FuncSig, SolveResult, SolverConfig};
use symbolic::{PathCondition, PathOutcome};

/// What the replay check made of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// The model followed the recorded path to the recorded outcome.
    Replayed,
    /// A budget stopped the run (`OutOfFuel`, `CallDepthExceeded`): its
    /// path condition is cut short, so it is not replayed.
    BudgetStopped,
    /// The solver answered `Unknown` on the path condition.
    Unknown,
    /// The solver found the path condition unsatisfiable: the run recorded
    /// a predicate its own state does not satisfy.
    Unsat,
}

/// Replays `original`, a path condition `func` recorded, and panics
/// (naming `label`) if the model's run diverges from it.
pub fn replay(tp: &TypedProgram, func: &str, original: &PathCondition, label: &str) -> Replay {
    if !matches!(original.outcome, PathOutcome::Completed | PathOutcome::Failed(_)) {
        return Replay::BudgetStopped;
    }
    let sig = FuncSig::of(tp.func(func).expect("function exists"));
    let preds: Vec<_> = original.entries.iter().map(|e| e.pred.clone()).collect();
    let model = match solve_preds(&preds, &sig, &SolverConfig::default()) {
        SolveResult::Sat(model) => model,
        SolveResult::Unknown => return Replay::Unknown,
        SolveResult::Unsat => return Replay::Unsat,
    };
    let again = run_concolic(tp, func, &model, &ConcolicConfig::default(), None).path;
    let n = original.entries.len();
    assert!(
        again.entries.len() == n && original.shares_prefix(&again, n),
        "{label}: replay on model {model} diverged\noriginal: {original}\nreplay:   {again}"
    );
    assert_eq!(
        again.outcome, original.outcome,
        "{label}: replay on model {model} ended differently"
    );
    Replay::Replayed
}

/// Counts of replay verdicts over many runs; every `Unknown` and `Unsat`
/// keeps its label so it is named, not passed over.
#[derive(Debug, Default)]
pub struct Tally {
    pub replayed: usize,
    pub budget_stopped: usize,
    pub unknown: Vec<String>,
    pub unsat: Vec<String>,
}

impl Tally {
    /// Replays `original` and counts the verdict.
    pub fn replay(&mut self, tp: &TypedProgram, func: &str, original: &PathCondition, label: &str) {
        match replay(tp, func, original, label) {
            Replay::Replayed => self.replayed += 1,
            Replay::BudgetStopped => self.budget_stopped += 1,
            Replay::Unknown => self.unknown.push(label.to_string()),
            Replay::Unsat => self.unsat.push(label.to_string()),
        }
    }

    /// One line with the counts, then one line per `Unknown` and `Unsat`.
    pub fn report(&self, what: &str) -> String {
        let mut out = format!(
            "{what}: {} replayed, {} budget-stopped skipped, {} unknown, {} unsat",
            self.replayed,
            self.budget_stopped,
            self.unknown.len(),
            self.unsat.len()
        );
        for label in &self.unknown {
            out.push_str(&format!("\n  unknown: {label}"));
        }
        for label in &self.unsat {
            out.push_str(&format!("\n  unsat: {label}"));
        }
        out
    }
}
