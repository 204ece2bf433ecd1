//! Interprocedural call-site summaries: callee ψ applied at `Call` sites
//! instead of unrolling the callee body into the caller's path condition.
//!
//! A *check summary* for a callee check `k` is the callee's inferred
//! precondition ψ_k for that check, stored over the canonical positional
//! parameter names `%0, %1, …`. When the executor reaches a call with
//! summaries available it still *executes* the callee concretely (the
//! outcome and the return value must be exact), but records, per check the
//! callee traversed, the short-circuit decomposition of `ψ_k(actuals)` on
//! the passing side — or of `¬ψ_k(actuals)` as the failing-branch
//! predicate — in place of the callee's internal branch atoms. Callee
//! path-space thus collapses to one entry group per traversed check.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use symbolic::Formula;

/// Counters for summary application, shared between the executor and
/// whoever serves stats (CLI footer, daemon `summaries` block).
#[derive(Debug, Default)]
pub struct SummaryApplyStats {
    applies: AtomicU64,
    fallbacks: AtomicU64,
}

impl SummaryApplyStats {
    /// Records one check summarized at a call site.
    pub fn apply(&self) {
        self.applies.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-check or per-call fallback to inline recording.
    pub fn fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Checks summarized at call sites so far.
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }

    /// Fallbacks to inline recording so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }
}

/// Summaries resolved against one concrete program: for each callee
/// function name, the ψ per check site (keyed by the check's id *in this
/// program*), in the canonical `%i` parameter naming.
#[derive(Debug, Default)]
pub struct ResolvedSummaries {
    /// Per-callee check summaries.
    pub by_func: HashMap<String, HashMap<minilang::CheckId, Formula>>,
    /// Shared application counters.
    pub stats: Arc<SummaryApplyStats>,
}

impl ResolvedSummaries {
    /// Whether any callee has a usable summary.
    pub fn is_empty(&self) -> bool {
        self.by_func.values().all(|m| m.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count() {
        let s = SummaryApplyStats::default();
        s.apply();
        s.apply();
        s.fallback();
        assert_eq!((s.applies(), s.fallbacks()), (2, 1));
    }
}
