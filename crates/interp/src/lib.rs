//! # interp
//!
//! The budgets that bound one MiniLang run, and the runtime string type.
//! The one executor is `concolic::run_concolic`; `concolic` re-exports
//! the three budgets, and every caller names them there.
//!
//! The crate still exists only because `concolic`, `testgen` and
//! `preinfer-core` declare it as a dependency, and the benchmark package's
//! lock file lists that graph: removing a dependency line rewrites the
//! lock. The next change to the benchmark folds these items into
//! `concolic` and deletes the crate.

use std::rc::Rc;

/// Statements one run may execute before it ends as `OutOfFuel`.
pub const FUEL: u64 = 100_000;

/// Deepest call nesting one run may reach before it ends as
/// `CallDepthExceeded`.
pub const MAX_CALL_DEPTH: u32 = 64;

/// Largest array `new_int_array` / `new_str_array` may allocate, in cells.
/// A larger size ends the run as `OutOfFuel` instead of allocating it:
/// like the step budget, it bounds what one run can cost.
pub const MAX_ARRAY_CELLS: i64 = 1 << 20;

/// A runtime string: immutable shared character codes.
pub type StrRef = Rc<Vec<i64>>;
