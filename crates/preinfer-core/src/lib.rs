//! # preinfer-core
//!
//! The paper's primary contribution: automatic inference of preconditions
//! via symbolic analysis. Given a method under test, an assertion-containing
//! location, and a shared suite of passing and failing tests with collected
//! path conditions, PreInfer
//!
//! 1. applies **dynamic predicate pruning** ([`pruning`], Algorithm 1 with
//!    the c-depend / d-impact relations of Definitions 5 and 6),
//! 2. applies **collection-element generalization** ([`generalize`], the
//!    Existential and Universal templates of Section IV-B with an open
//!    template registry), and
//! 3. assembles the precondition `ψ = ¬α` ([`precondition`]).
//!
//! Quality metrics (sufficient / necessary / correct / relative complexity,
//! Section V-B) live in [`metrics`]; the end-to-end driver, including the
//! one per-method run every front end uses, in [`pipeline`].

pub mod generalize;
pub mod interproc;
pub mod metrics;
pub mod par;
pub mod pipeline;
pub mod precondition;
pub mod pruning;

pub use generalize::{
    abstract_all_indices, abstract_index, default_templates, generalize_path, index_occurrences,
    ExistentialTemplate, GeneralizedPath, StepTemplate, Template, TemplateMatch, UniversalTemplate,
};
pub use interproc::{
    build_summaries, closure_key, closure_sites, FallbackReason, StoredFuncSummary, SummaryBuild,
    SummaryTable,
};
pub use metrics::{evaluate_precondition, random_probe, validates, PrecondQuality};
pub use par::map_parallel;
pub use pipeline::{
    infer_all_preconditions, infer_precondition, Inference, MethodRun, PreInferConfig,
    SummaryBuildConfig,
};
pub use precondition::{assemble, InferredPrecondition};
pub use pruning::{prune_failing_paths, PruneConfig, PruneStats, ReducedPath};
