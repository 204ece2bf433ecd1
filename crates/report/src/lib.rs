//! # report
//!
//! Experiment drivers regenerating every table and figure of the PreInfer
//! paper (see DESIGN.md §4 for the experiment index): corpus evaluation
//! ([`eval`]) and table/figure rendering ([`tables`]).

pub mod eval;
pub mod json;
pub mod tables;

pub use eval::{
    evaluate_corpus, evaluate_method, AclResult, Approach, ApproachResult, EvalConfig, MethodResult,
};
pub use json::results_to_json;
pub use tables::{figure_3, interproc_table, table_1_2, table_3, table_4, table_5, table_6};
