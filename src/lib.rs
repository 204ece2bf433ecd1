//! # preinfer
//!
//! A complete Rust reproduction of **PreInfer: Automatic Inference of
//! Preconditions via Symbolic Analysis** (DSN 2018). This facade crate
//! re-exports the whole stack:
//!
//! * [`minilang`] — the program substrate (parser, type checker, runtime
//!   checks defining assertion-containing locations).
//! * [`symbolic`] — terms, predicates, path conditions, first-order
//!   formulas, the complexity metric, and the ground-truth spec DSL.
//! * [`solver`] — the constraint solver (simplex + branch & bound + theory
//!   layer) standing in for the SMT solver behind Pex.
//! * [`obs`] — observability: structured spans, stage counters and latency
//!   histograms threaded through every pipeline stage (zero-cost when off).
//! * [`concolic`] — the one executor: a concrete run that records its
//!   path condition.
//! * [`testgen`] — Pex-like generational test generation.
//! * [`preinfer_core`] — the paper's contribution: dynamic predicate
//!   pruning, collection-element generalization, precondition assembly,
//!   quality metrics.
//! * [`baselines`] — DySy and FixIt.
//! * [`subjects`] — the evaluation corpus with ground truths.
//! * [`report`] — drivers regenerating every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use preinfer::prelude::*;
//!
//! let tp = minilang::compile(
//!     "fn f(a [int], i int) -> int { return a[i]; }",
//! ).unwrap();
//! let suite = testgen::generate_tests(&tp, "f", &Default::default());
//! let acl = suite.triggered_acls()[0];
//! let inferred = preinfer_core::infer_precondition(
//!     &tp, "f", acl, &suite, &Default::default(),
//! ).expect("failing tests exist");
//! // ψ guards the failure seen at the ACL.
//! assert!(inferred.precondition.psi.complexity() < 10);
//! ```

pub use baselines;
pub use concolic;
pub use minilang;
pub use obs;
pub use preinfer_core;
pub use report;
pub use solver;
pub use subjects;
pub use symbolic;
pub use testgen;

/// Convenient access to the most-used items.
pub mod prelude {
    pub use baselines::{infer_dysy, infer_fixit};
    pub use concolic::{run_concolic, ConcolicConfig};
    pub use minilang::{compile, InputValue, MethodEntryState};
    pub use preinfer_core::{
        build_summaries, evaluate_precondition, infer_all_preconditions, infer_precondition,
        MethodRun, PreInferConfig, SummaryBuildConfig, SummaryTable,
    };
    pub use solver::{
        solve_preds, BackendKind, CacheStats, Deadline, FuncSig, IncrementalCounters,
        IncrementalSession, IncrementalSnapshot, SolveResult, SolverCache, SolverConfig,
        TierCounters, TierSnapshot,
    };
    pub use symbolic::{parse_spec, Formula, PathCondition, Pred};
    pub use testgen::{generate_tests, TestGenConfig};
}
