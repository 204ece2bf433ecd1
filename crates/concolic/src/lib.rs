//! # concolic
//!
//! Concolic (dynamic symbolic) execution for MiniLang: the reproduction's
//! equivalent of Pex's symbolic engine. Running a method on a concrete
//! method-entry state yields the *path condition* — the ordered conjunction
//! of branch predicates (explicit and implicit) over the symbolic inputs —
//! that the PreInfer core prunes and generalizes.
//!
//! ```
//! use concolic::{run_concolic, ConcolicConfig};
//! use minilang::{compile, InputValue, MethodEntryState};
//!
//! # fn main() {
//! let tp = compile("fn f(x int) -> int { if (x > 3) { return 1; } return 0; }").unwrap();
//! let state = MethodEntryState::from_pairs([("x", InputValue::Int(5))]);
//! let out = run_concolic(&tp, "f", &state, &ConcolicConfig::default(), None);
//! assert_eq!(out.path.to_string(), "x > 3");
//! # }
//! ```

pub mod cval;
pub mod exec;
pub mod summary;

pub use cval::{materialize, ArrIntObj, ArrStrObj, CStr, CVal};
pub use exec::{run_concolic, ConcolicConfig, ConcolicOutcome};
pub use summary::{InterprocMode, ResolvedSummaries, SummaryApplyStats};
