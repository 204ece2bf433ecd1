//! Cooperative wall-clock deadlines.
//!
//! A [`Deadline`] is one request's time budget: a `Copy` value over an
//! optional instant, threaded through [`SolverConfig`] into test
//! generation, pruning and witness manufacture. It is checked where work
//! is spent: at the solver gate (every [`solve_preds_with`] call checks it
//! *before* solving; individual solves are bounded by `budget_nodes`), at
//! the heads of the test-generation and pruning loops, and every 1024
//! steps of the concolic executor. Once expired, solver entry points
//! return [`SolveResult::Unknown`] and executor runs stop as out of fuel;
//! every caller treats both conservatively — pruning keeps predicates,
//! test generation stops flipping branches, the partition drops cut runs —
//! so work winds down quickly and the partial result is still sound, just
//! less reduced.
//!
//! Nothing the deadline changes happens before the clock has passed it,
//! so "did the deadline cut this reply short?" is [`Deadline::expired`]
//! asked once at the end of the run.
//!
//! [`SolverConfig`]: crate::theory::SolverConfig
//! [`solve_preds_with`]: crate::theory::solve_preds_with
//! [`SolveResult::Unknown`]: crate::theory::SolveResult::Unknown

use std::time::{Duration, Instant};

/// A wall-clock deadline. The default deadline never expires.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline::default()
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Deadline {
        Deadline { at: Some(Instant::now() + Duration::from_millis(ms)) }
    }

    /// The instant the deadline passes, `None` when it never does.
    pub fn instant(self) -> Option<Instant> {
        self.at
    }

    /// Whether the deadline has passed; a [`Deadline::none`] never expires.
    pub fn expired(self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert_eq!(d.instant(), None);
    }

    #[test]
    fn past_deadline_expires() {
        let d = Deadline { at: Some(Instant::now() - Duration::from_millis(1)) };
        assert!(d.expired());
        assert!(Deadline::after_ms(0).expired());
    }

    #[test]
    fn future_deadline_not_yet_expired() {
        assert!(!Deadline::after_ms(60_000).expired());
    }
}
