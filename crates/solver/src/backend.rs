//! Backend selection and tier attribution for the tiered solver.
//!
//! A canonical conjunction (built by [`crate::canon::CanonQuery`]) is
//! dispatched cheapest-first by [`crate::theory`]: the interval tier
//! ([`crate::interval`]) either decides it — returning a verdict plus the
//! [`Tier`] that answered — or escalates it to the simplex/branch-and-bound
//! tier, which always decides (possibly with `Unknown`). Escalation is
//! verdict-preserving by construction: the interval tier may only decide
//! when the simplex tier would return the same answer (and, for `Sat`, the
//! same model) — that invariant is what keeps the tiered and simplex-only
//! configurations byte-identical, and it is locked in by the backend
//! differential tests.
//!
//! Every *executed* decision is attributed to a tier via [`TierCounters`]
//! (relaxed atomics shared through [`crate::SolverConfig::tiers`]); cache hits
//! replay the stored tier label in trace events without re-counting, so
//! the counters measure work actually done.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which backend stack a solve runs through. Part of the cache key: a
/// cached verdict (and its tier) must stay a pure function of its key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendKind {
    /// Interval tier first, escalating to simplex (the default).
    #[default]
    Tiered,
    /// Every query goes straight to simplex/branch-and-bound.
    Simplex,
}

/// The layer that actually answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Tier 0: decided syntactically on the canonical conjunct list
    /// (constant falsehood, complementary pair).
    Syntactic,
    /// Tier 1: decided by per-monomial bounds propagation.
    Interval,
    /// Tier 2: the full simplex + branch-and-bound stack.
    Simplex,
}

impl Tier {
    /// Short lowercase label for trace events and stats.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Syntactic => "syntactic",
            Tier::Interval => "interval",
            Tier::Simplex => "simplex",
        }
    }
}

/// Per-tier answer counters, shared across every solve that carries the
/// same [`crate::SolverConfig::tiers`] handle. Relaxed atomics: the counters are
/// diagnostics, never synchronization.
#[derive(Debug, Default)]
pub struct TierCounters {
    syntactic: AtomicU64,
    interval: AtomicU64,
    simplex: AtomicU64,
    escalations: AtomicU64,
}

impl TierCounters {
    /// Records one decided query at `tier`.
    pub fn count(&self, tier: Tier) {
        match tier {
            Tier::Syntactic => &self.syntactic,
            Tier::Interval => &self.interval,
            Tier::Simplex => &self.simplex,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one escalation (the interval tier handed the query down).
    pub fn count_escalation(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            answered_by_syntactic: self.syntactic.load(Ordering::Relaxed),
            answered_by_interval: self.interval.load(Ordering::Relaxed),
            answered_by_simplex: self.simplex.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
        }
    }
}

/// [`TierCounters`] as observed at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierSnapshot {
    pub answered_by_syntactic: u64,
    pub answered_by_interval: u64,
    pub answered_by_simplex: u64,
    /// Queries the interval tier handed down. Counted separately from
    /// `answered_by_simplex` so `tiered` and `simplex` runs stay comparable
    /// (a simplex-only run has zero escalations by definition).
    pub escalations: u64,
}

impl TierSnapshot {
    /// Total decided queries.
    pub fn total(&self) -> u64 {
        self.answered_by_syntactic + self.answered_by_interval + self.answered_by_simplex
    }

    /// Queries answered without touching simplex (tier 0 + tier 1).
    pub fn tier1(&self) -> u64 {
        self.answered_by_syntactic + self.answered_by_interval
    }

    /// Fraction of decided queries answered above simplex; 0 when idle.
    pub fn tier1_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.tier1() as f64 / total as f64
        }
    }

    /// Component-wise sum (for aggregating per-method snapshots).
    pub fn plus(&self, other: &TierSnapshot) -> TierSnapshot {
        TierSnapshot {
            answered_by_syntactic: self.answered_by_syntactic + other.answered_by_syntactic,
            answered_by_interval: self.answered_by_interval + other.answered_by_interval,
            answered_by_simplex: self.answered_by_simplex + other.answered_by_simplex,
            escalations: self.escalations + other.escalations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_rate() {
        let c = TierCounters::default();
        c.count(Tier::Syntactic);
        c.count(Tier::Interval);
        c.count(Tier::Interval);
        c.count(Tier::Simplex);
        c.count_escalation();
        let s = c.snapshot();
        assert_eq!(
            (s.answered_by_syntactic, s.answered_by_interval, s.answered_by_simplex, s.escalations),
            (1, 2, 1, 1)
        );
        assert_eq!(s.total(), 4);
        assert_eq!(s.tier1(), 3);
        assert!((s.tier1_rate() - 0.75).abs() < 1e-12);
    }
}
