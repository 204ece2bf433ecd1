//! # solver
//!
//! Constraint solver for the PreInfer reproduction: the stand-in for the SMT
//! solver behind Pex. Path conditions are conjunctions of predicates over
//! linear integer arithmetic, array/string lengths and elements, nullness
//! flags, and a handful of interpreted atoms (`is_space`, truncated `/` and
//! `%`). The solver decides satisfiability and, when satisfiable, builds a
//! concrete [`minilang::MethodEntryState`] that the executor can run —
//! closing the concolic test-generation loop.
//!
//! Architecture (bottom-up): exact rational arithmetic ([`rational`]), a
//! two-phase simplex ([`simplex`]), integer branch & bound with an L1
//! small-model objective ([`intsolve`]), the simplex-tier constraint
//! builder (private `builder` module) that handles nullness,
//! well-formedness, and disjunctive atoms, and the tiered front of the
//! crate: a shared canonicalization front-end ([`canon`]) feeding the
//! interval tier ([`interval`]) and, on escalation, the simplex tier, with
//! tier selection and attribution in [`backend`]. The theory layer
//! ([`theory`]) owns the one solve pipeline — deadline gate, cache, tier
//! dispatch, re-validation of every model by concrete evaluation, trace
//! record. The [`cache`] memoizes canonical verdicts together with the tier
//! that answered them. The [`incremental`] module keeps a warm,
//! trail-backed builder alive across queries that share a prefix (one
//! session per failing path / flip sequence); pruning and test generation
//! always solve through sessions. The scratch path ([`solve_preds_with`]:
//! a fresh builder per query) is the reference the tests hold sessions
//! to, answer for answer.

pub mod backend;
pub mod cache;
pub mod canon;
pub mod deadline;
pub mod incremental;
pub mod interval;
pub mod intsolve;
pub mod rational;
pub mod simplex;
pub mod theory;

mod builder;
mod model;

pub use backend::{BackendKind, Tier, TierCounters, TierSnapshot};
pub use cache::{CacheLookup, CacheStats, SolverCache};
pub use canon::{affinity_hash, CacheKey, CanonQuery};
pub use deadline::Deadline;
pub use incremental::{IncrementalCounters, IncrementalSession, IncrementalSnapshot};
pub use intsolve::{satisfies, solve_int, Budget, IntProblem, IntResult};
pub use rational::Rat;
pub use simplex::{solve_lp, Lp, LpResult};
pub use theory::{solve_preds, solve_preds_with, FuncSig, SolveResult, SolverConfig};
