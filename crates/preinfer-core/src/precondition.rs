//! Assembly of the inferred precondition from generalized reduced paths.
//!
//! `α` is the disjunction of the (pruned, generalized) failing path
//! conditions — the summary of the witnessed unsafe states; the inferred
//! precondition is `ψ = ¬α` (Section III-A). Duplicate predicates within a
//! disjunct and duplicate/subsumed disjuncts are removed, further
//! simplifying `α` exactly as the paper describes.

use crate::generalize::GeneralizedPath;
use symbolic::Formula;

/// An inferred precondition for one assertion-containing location.
#[derive(Debug, Clone)]
pub struct InferredPrecondition {
    /// The failure condition: a generalization of the witnessed unsafe
    /// states.
    pub alpha: Formula,
    /// The precondition guarding the method: `ψ = ¬α`.
    pub psi: Formula,
    /// Whether `α` contains a quantified condition (a Table VI
    /// collection-element inference).
    pub quantified: bool,
    /// Number of disjuncts of `α` after simplification.
    pub disjuncts: usize,
}

impl InferredPrecondition {
    /// The paper's complexity metric `|ψ|`.
    pub fn complexity(&self) -> usize {
        self.psi.complexity()
    }
}

/// Builds the precondition from per-failing-path conjunctions.
pub fn assemble(paths: &[GeneralizedPath]) -> InferredPrecondition {
    let quantified = paths.iter().any(|p| p.quantified);
    // Each disjunct: de-duplicate parts (by display form, which is canonical
    // enough after smart-constructor folding).
    let mut disjuncts: Vec<Vec<Formula>> = Vec::new();
    for p in paths {
        let mut parts: Vec<Formula> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        for part in &p.parts {
            // Canonical-level simplification: `t >= t`, `len + 1 >= 0` after
            // constant folding, and similar tautologies add nothing; a
            // canonically false part makes the whole disjunct vacuous.
            let key = match part {
                Formula::Pred(q) => match symbolic::canon_pred(q) {
                    symbolic::CanonPred::Const(true) => continue,
                    symbolic::CanonPred::Const(false) => {
                        parts.clear();
                        parts.push(Formula::f());
                        break;
                    }
                    canon => canon.to_string(),
                },
                other => other.to_string(),
            };
            if !seen.contains(&key) {
                seen.push(key);
                parts.push(part.clone());
            }
        }
        if parts.iter().any(|f| matches!(f, Formula::Pred(q) if q.is_trivially_false())) {
            continue; // vacuous disjunct
        }
        disjuncts.push(parts);
    }
    // Drop duplicate and subsumed disjuncts: if D2's parts are a subset of
    // D1's, then D1 ⇒ D2 and D1 is redundant in the disjunction.
    let keys: Vec<std::collections::BTreeSet<String>> =
        disjuncts.iter().map(|d| d.iter().map(|f| f.to_string()).collect()).collect();
    let mut keep = vec![true; disjuncts.len()];
    for i in 0..disjuncts.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..disjuncts.len() {
            if i == j || !keep[j] || !keep[i] {
                continue;
            }
            if keys[j].is_subset(&keys[i]) && (keys[j].len() < keys[i].len() || j < i) {
                keep[i] = false;
            }
        }
    }
    let kept: Vec<Formula> = disjuncts
        .into_iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(parts, _)| Formula::and(parts))
        .collect();
    let count = kept.len();
    let alpha = Formula::or(kept);
    let psi = alpha.negated();
    InferredPrecondition { alpha, psi, quantified, disjuncts: count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::{CmpOp, Pred, Term};

    fn lt(name: &str, k: i64) -> Formula {
        Formula::pred(Pred::cmp(CmpOp::Lt, Term::var(name), Term::int(k)))
    }

    fn gp(parts: Vec<Formula>, quantified: bool) -> GeneralizedPath {
        GeneralizedPath { parts, quantified }
    }

    #[test]
    fn deduplicates_parts_within_disjunct() {
        let p = gp(vec![lt("x", 1), lt("x", 1), lt("y", 2)], false);
        let out = assemble(&[p]);
        assert_eq!(out.alpha.to_string(), "x < 1 && y < 2");
        assert_eq!(out.psi.to_string(), "x >= 1 || y >= 2");
    }

    #[test]
    fn deduplicates_identical_disjuncts() {
        let a = gp(vec![lt("x", 1)], false);
        let b = gp(vec![lt("x", 1)], false);
        let out = assemble(&[a, b]);
        assert_eq!(out.disjuncts, 1);
        assert_eq!(out.alpha.to_string(), "x < 1");
    }

    #[test]
    fn subsumed_disjunct_is_dropped() {
        // (x<1 ∧ y<2) ∨ (x<1) ≡ x<1
        let strong = gp(vec![lt("x", 1), lt("y", 2)], false);
        let weak = gp(vec![lt("x", 1)], false);
        let out = assemble(&[strong, weak]);
        assert_eq!(out.disjuncts, 1);
        assert_eq!(out.alpha.to_string(), "x < 1");
    }

    #[test]
    fn trivial_parts_are_dropped() {
        let p = gp(vec![Formula::t(), lt("x", 1)], false);
        let out = assemble(&[p]);
        assert_eq!(out.alpha.to_string(), "x < 1");
    }

    #[test]
    fn quantified_flag_propagates() {
        let q = gp(vec![Formula::exists("i", lt("i", 3))], true);
        let out = assemble(&[q]);
        assert!(out.quantified);
        assert_eq!(out.psi.to_string(), "forall i. i >= 3");
    }

    #[test]
    fn complexity_counts_psi() {
        let p = gp(vec![lt("x", 1), lt("y", 2)], false);
        let out = assemble(&[p]);
        assert_eq!(out.complexity(), 1);
    }
}
