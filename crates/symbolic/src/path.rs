//! Path conditions (Section III of the paper).
//!
//! A path condition `ρ = φ₁ ∧ φ₂ ∧ … ∧ φ|ρ|` is the ordered conjunction of
//! predicates collected from executed branch conditions — explicit branches
//! and implicit runtime checks — expressed over the *symbolic inputs*. The
//! concolic executor guarantees soundness: every variable assignment
//! satisfying `ρ` drives the method along the same execution path.

use crate::linform::{canon_pred, CanonPred};
use crate::pred::Pred;
use minilang::{CheckId, NodeId, Span};
use std::fmt;

/// What produced a path-condition entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// An explicit branch decision (`if`/`while` condition atom).
    ExplicitBranch,
    /// An implicit runtime check (the paper's implicit branch conditions) or
    /// an explicit `assert`. The entry's predicate is the side the execution
    /// took: the "check passed" form on passing through, the *violating*
    /// condition on the failing last branch.
    Check(CheckId),
    /// A concretization pin added by the concolic executor to keep terms in
    /// the linear fragment (documented deviation; not a branch, never
    /// pruned, never a last-branch predicate).
    Pin,
}

impl EntryKind {
    /// The check id if this entry came from a check.
    pub fn check_id(&self) -> Option<CheckId> {
        match self {
            EntryKind::Check(id) => Some(*id),
            _ => None,
        }
    }

    /// Whether the entry is a genuine branch decision (prunable).
    pub fn is_branch(&self) -> bool {
        !matches!(self, EntryKind::Pin)
    }
}

/// One predicate of a path condition, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEntry {
    /// The predicate over symbolic inputs, in its taken form.
    pub pred: Pred,
    /// Provenance of the entry.
    pub kind: EntryKind,
    /// The AST decision site (branch condition node, check node, …). Two
    /// paths *deviate at* position `j` when they agree on entries `0..j`,
    /// share the same site at `j`, and carry negated predicates there.
    pub site: NodeId,
    /// Source position, for paper-style "Line #" output.
    pub span: Span,
}

impl PathEntry {
    /// Canonical form of the predicate. Path comparisons compare the
    /// interned predicates first and fall back to this only when the syntax
    /// differs, so it is computed on demand and stored nowhere.
    pub fn canon(&self) -> CanonPred {
        canon_pred(&self.pred)
    }
}

impl fmt::Display for PathEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EntryKind::ExplicitBranch => write!(f, "{} [line {}]", self.pred, self.span.line),
            EntryKind::Check(id) => {
                write!(f, "{} [line {}, {}]", self.pred, self.span.line, id.kind)
            }
            EntryKind::Pin => write!(f, "{} [pin]", self.pred),
        }
    }
}

/// How a concrete execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathOutcome {
    /// Ran to completion (possibly via `return`).
    Completed,
    /// Aborted with a violated check at the given location (the last entry of
    /// the path condition is the violating condition).
    Failed(CheckId),
    /// Hit the executor's step budget (looping too long); treated as neither
    /// passing nor failing and discarded by the test generator.
    OutOfFuel,
    /// Exceeded the executor's call-depth bound (runaway recursion); like
    /// [`PathOutcome::OutOfFuel`], neither passing nor failing, but surfaced
    /// distinctly so run classification can tell recursion blowup apart
    /// from loop blowup.
    CallDepthExceeded,
}

impl PathOutcome {
    /// The violated check, if the path failed.
    pub fn failed_check(&self) -> Option<CheckId> {
        match self {
            PathOutcome::Failed(id) => Some(*id),
            _ => None,
        }
    }
}

/// An ordered conjunction of path entries plus the execution outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PathCondition {
    pub entries: Vec<PathEntry>,
    pub outcome: PathOutcome,
}

impl PathCondition {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The last-branch predicate `φ|ρ|` (the assertion-violating condition
    /// when the path failed).
    pub fn last_branch(&self) -> Option<&PathEntry> {
        self.entries.iter().rev().find(|e| e.kind.is_branch())
    }

    /// Whether entries `0..j` of `self` and `other` agree (same sites, same
    /// canonical predicates).
    ///
    /// Syntactically equal predicates have equal canonical forms, and on
    /// interned terms the syntactic test is O(1), so the canonical forms are
    /// computed only for the entries whose syntax differs.
    pub fn shares_prefix(&self, other: &PathCondition, j: usize) -> bool {
        if self.entries.len() < j || other.entries.len() < j {
            return false;
        }
        self.entries[..j]
            .iter()
            .zip(&other.entries[..j])
            .all(|(a, b)| a.site == b.site && (a.pred == b.pred || a.canon() == b.canon()))
    }

    /// Whether `other` *deviates from* `self` at entry `j`: same prefix, same
    /// site at `j`, negated predicate at `j` (syntax first, canonical form
    /// on a mismatch, as in [`PathCondition::shares_prefix`]).
    pub fn deviates_at(&self, other: &PathCondition, j: usize) -> bool {
        let (Some(a), Some(b)) = (self.entries.get(j), other.entries.get(j)) else {
            return false;
        };
        if a.site != b.site || !self.shares_prefix(other, j) {
            return false;
        }
        let negated = a.pred.negated();
        negated == b.pred || canon_pred(&negated) == b.canon()
    }

    /// Whether the path reaches (passes through or violates) the given
    /// check location.
    pub fn reaches_check(&self, check: CheckId) -> bool {
        self.entries.iter().any(|e| e.kind.check_id() == Some(check))
    }

    /// Renders the paper's Table I/II layout: one row per predicate with
    /// line number and branch kind.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.entries.iter().enumerate() {
            let last = i + 1 == self.entries.len();
            let kind = match e.kind {
                EntryKind::ExplicitBranch => "Branch".to_string(),
                EntryKind::Check(id) => {
                    if last && matches!(self.outcome, PathOutcome::Failed(f) if f == id) {
                        format!("Implicit Last Branch ({})", id.kind)
                    } else {
                        format!("Implicit Branch ({})", id.kind)
                    }
                }
                EntryKind::Pin => "Pin".to_string(),
            };
            out.push_str(&format!("{:<40} Line {:<4} {}\n", e.pred.to_string(), e.span.line, kind));
        }
        out
    }
}

impl fmt::Display for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{}", e.pred)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use crate::term::Term;
    use minilang::{CheckKind as CK, NodeId};

    fn entry(pred: Pred, site: u32, kind: EntryKind) -> PathEntry {
        PathEntry { pred, kind, site: NodeId(site), span: Span::new(site, 1) }
    }

    fn lt(name: &str, k: i64) -> Pred {
        Pred::cmp(CmpOp::Lt, Term::var(name), Term::int(k))
    }

    #[test]
    fn last_branch_skips_pins() {
        let pc = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2), 2, EntryKind::Pin),
            ],
            outcome: PathOutcome::Completed,
        };
        assert_eq!(pc.last_branch().unwrap().site, NodeId(1));
    }

    #[test]
    fn prefix_sharing_and_deviation() {
        let base = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2), 2, EntryKind::ExplicitBranch),
            ],
            outcome: PathOutcome::Completed,
        };
        let deviating = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2).negated(), 2, EntryKind::ExplicitBranch),
            ],
            outcome: PathOutcome::Completed,
        };
        assert!(base.shares_prefix(&deviating, 1));
        assert!(base.deviates_at(&deviating, 1));
        assert!(!base.deviates_at(&deviating, 0));
        // A path with a different site at j does not deviate there.
        let elsewhere = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2).negated(), 9, EntryKind::ExplicitBranch),
            ],
            outcome: PathOutcome::Completed,
        };
        assert!(!base.deviates_at(&elsewhere, 1));
    }

    #[test]
    fn prefix_comparison_is_canonical() {
        // a < 1 at site 1 vs 0 >= a (== !(a < 1))… use equivalent syntax:
        // a < 1 and a <= 0 canonicalize identically over ints.
        let p1 = PathCondition {
            entries: vec![entry(lt("a", 1), 1, EntryKind::ExplicitBranch)],
            outcome: PathOutcome::Completed,
        };
        let p2 = PathCondition {
            entries: vec![entry(
                Pred::cmp(CmpOp::Le, Term::var("a"), Term::int(0)),
                1,
                EntryKind::ExplicitBranch,
            )],
            outcome: PathOutcome::Completed,
        };
        assert!(p1.shares_prefix(&p2, 1));
    }

    #[test]
    fn reaches_and_traverses_checks() {
        let check = CheckId { node: NodeId(7), kind: CK::NullDeref };
        let pc = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2), 7, EntryKind::Check(check)),
            ],
            outcome: PathOutcome::Failed(check),
        };
        assert!(pc.reaches_check(check));
        assert_eq!(pc.outcome.failed_check(), Some(check));
    }

    #[test]
    fn table_marks_last_branch() {
        let check = CheckId { node: NodeId(7), kind: CK::NullDeref };
        let pc = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2), 7, EntryKind::Check(check)),
            ],
            outcome: PathOutcome::Failed(check),
        };
        let table = pc.to_table();
        assert!(table.contains("Implicit Last Branch"));
    }

    #[test]
    fn display_joins_with_and() {
        let pc = PathCondition {
            entries: vec![
                entry(lt("a", 1), 1, EntryKind::ExplicitBranch),
                entry(lt("b", 2), 2, EntryKind::ExplicitBranch),
            ],
            outcome: PathOutcome::Completed,
        };
        assert_eq!(pc.to_string(), "a < 1 && b < 2");
    }
}
