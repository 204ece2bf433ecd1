//! # symbolic
//!
//! Symbolic expressions, predicates, path conditions and first-order
//! formulas for the PreInfer (DSN 2018) reproduction: the shared vocabulary
//! between the concolic executor (which *produces* path conditions), the
//! constraint solver (which consumes canonical linear forms), and the
//! PreInfer core (which prunes and generalizes path conditions into
//! precondition formulas).
//!
//! ```
//! use symbolic::{Formula, Pred, CmpOp, Term, Place};
//!
//! // exists i. i < len(s) && s[i] == null — the Fig. 1 quantified condition
//! let s = Place::param("s");
//! let alpha = Formula::exists("i", Formula::and([
//!     Formula::pred(Pred::cmp(CmpOp::Lt, Term::var("i"), Term::len(s))),
//!     Formula::pred(Pred::is_null(Place::elem_at(s, Term::var("i")))),
//! ]));
//! assert_eq!(alpha.to_string(), "exists i. i < len(s) && s[i] == null");
//! assert_eq!(alpha.complexity(), 2);
//! ```
//!
//! Terms are hash-consed: `Term`/`Place`/`SymVar` are `Copy` handles into a
//! global interner with O(1) equality and hashing (see [`intern`]).

pub mod eval;
pub mod formula;
pub mod intern;
pub mod linform;
pub mod path;
pub mod pred;
pub mod rename;
pub mod rewrite;
pub mod spec;
pub mod term;

pub use eval::{eval_formula, eval_on_state, eval_pred, eval_term, Env, EvalError};
pub use formula::{Formula, Quantifier};
pub use linform::{
    canon_cpred, canon_pred, lin_of_term, preds_equivalent, CPred, CPredId, CanonPred, LinExpr,
    Monomial,
};
pub use path::{EntryKind, PathCondition, PathEntry, PathOutcome};
pub use pred::{CmpOp, Pred, SPACE_CODES};
pub use rename::{apply_actuals, rename_formula, ActualBinding, Renamer};
pub use rewrite::Rewrite;
pub use spec::{parse_spec, parse_spec_with_sig, SpecError};
pub use term::{
    arena_sizes, Place, PlaceId, PlaceNode, SymVar, SymVarId, SymVarNode, Term, TermId, TermNode,
};
