//! # interp
//!
//! The concrete MiniLang interpreter: runtime values, implicit runtime
//! checks (the paper's implicit assertion-containing locations), explicit
//! assertions, execution bounded by fixed step, call-depth and allocation
//! budgets ([`FUEL`], [`MAX_CALL_DEPTH`], [`MAX_ARRAY_CELLS`], which the
//! concolic executor shares), and basic-block coverage collection for
//! Table IV.
//!
//! ```
//! use interp::{run, ExecResult, Value};
//! use minilang::{compile, InputValue, MethodEntryState};
//!
//! # fn main() {
//! let tp = compile("fn f(x int) -> int { return x + 1; }").unwrap();
//! let state = MethodEntryState::from_pairs([("x", InputValue::Int(41))]);
//! let out = run(&tp, "f", &state);
//! assert!(matches!(out.result, ExecResult::Completed(Value::Int(42))));
//! # }
//! ```

pub mod machine;
pub mod value;

pub use machine::{
    run, ExecOutcome, ExecResult, RuntimeError, FUEL, MAX_ARRAY_CELLS, MAX_CALL_DEPTH,
};
pub use value::{ArrIntRef, ArrStrRef, StrRef, Value};
