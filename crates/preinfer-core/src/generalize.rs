//! Collection-element generalization (Section IV-B).
//!
//! Overly specific predicates — families like `s[0] != null`, `1 < len(s)`,
//! `s[1] != null`, …, `s[2] == null` produced by loops over collections —
//! are matched against quantifier templates and replaced by a single
//! quantified condition. Two templates ship by default (the paper's
//! Existential and Universal); the registry is open, and the even-index
//! step template sketched in the paper is provided as [`StepTemplate`].
//!
//! A template instantiation is accepted only if it is *validated*: the
//! generalized disjunct must not hold on any observed passing state
//! (the dynamic approximation of `ρ_p ∧ α_gen` unsatisfiability, §III-A).

use crate::pruning::ReducedPath;
use minilang::MethodEntryState;
use symbolic::eval::{eval_on_state, eval_term, Env};
use symbolic::linform::canon_pred;
use symbolic::{
    CanonPred, CmpOp, Formula, Place, PlaceNode, Pred, Rewrite, SymVar, SymVarNode, Term, TermNode,
};

/// The bound-variable name used by all shipped templates.
pub const BOUND_VAR: &str = "i";

/// A successful template instantiation.
#[derive(Debug, Clone)]
pub struct TemplateMatch {
    /// The quantified condition replacing the subsumed entries.
    pub formula: Formula,
    /// Indices (into the reduced path's entries) replaced by the formula.
    pub subsumed: Vec<usize>,
}

/// A generalization template over reduced failing path conditions.
///
/// `Send + Sync` so a template registry can be shared by the parallel
/// inference driver's worker threads (templates are stateless matchers).
pub trait Template: Send + Sync {
    /// A short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Attempts to instantiate on a reduced path. Implementations should
    /// return the match subsuming as many overly specific predicates as
    /// possible; the engine picks the template with the largest subsumption.
    fn instantiate(&self, path: &ReducedPath) -> Option<TemplateMatch>;
}

/// The default template registry: Existential, Universal, then the paper's
/// sketched even/odd-index step instances. The engine picks the validating
/// match with the largest subsumption, and ties keep the earlier template,
/// so the step instances only fire where the plain Universal cannot (an
/// every-other-element family has no witnesses at the skipped indices).
pub fn default_templates() -> Vec<Box<dyn Template>> {
    vec![
        Box::new(ExistentialTemplate),
        Box::new(UniversalTemplate),
        Box::new(StepTemplate { step: 2, offset: 0 }),
        Box::new(StepTemplate { step: 2, offset: 1 }),
    ]
}

/// A reduced path after generalization: an ordered conjunction of formula
/// parts (plain predicates and quantified conditions).
#[derive(Debug, Clone)]
pub struct GeneralizedPath {
    pub parts: Vec<Formula>,
    /// Whether any quantified condition was introduced.
    pub quantified: bool,
}

impl GeneralizedPath {
    /// The conjunction of all parts.
    pub fn conjunction(&self) -> Formula {
        Formula::and(self.parts.iter().cloned())
    }
}

/// Generalizes one reduced failing path: repeatedly applies the best
/// validating template until none matches.
pub fn generalize_path(
    path: &ReducedPath,
    templates: &[Box<dyn Template>],
    passing_states: &[&MethodEntryState],
) -> GeneralizedPath {
    generalize_path_traced(path, templates, passing_states, &None)
}

/// [`generalize_path`] with an observation-only trace sink: template
/// applications emit `template_match` events when recording, and the §III-A
/// validation runs under a `passing_guard` span. Tracing never changes
/// which templates fire.
pub fn generalize_path_traced(
    path: &ReducedPath,
    templates: &[Box<dyn Template>],
    passing_states: &[&MethodEntryState],
    trace: &Option<std::sync::Arc<obs::TraceSink>>,
) -> GeneralizedPath {
    // Work on a shrinking copy of the path.
    let mut work = path.clone();
    let mut formulas: Vec<(usize, Formula)> = Vec::new(); // (anchor entry position, formula)
    let mut quantified = false;
    loop {
        let mut best: Option<(&'static str, TemplateMatch)> = None;
        for t in templates {
            if let Some(m) = t.instantiate(&work) {
                if m.subsumed.len() >= 2
                    && best
                        .as_ref()
                        .map(|(_, b)| m.subsumed.len() > b.subsumed.len())
                        .unwrap_or(true)
                {
                    let validated = {
                        let _guard_span = obs::maybe_span(trace, obs::Stage::PassingGuard);
                        validates(&work, &m, passing_states)
                    };
                    if validated {
                        best = Some((t.name(), m));
                    }
                }
            }
        }
        let Some((name, m)) = best else { break };
        if let Some(sink) = obs::recording_sink(trace) {
            let formula = m.formula.to_string();
            sink.event(
                "template_match",
                &[
                    ("template", obs::Val::S(name)),
                    ("subsumed", obs::Val::U(m.subsumed.len() as u64)),
                    ("formula", obs::Val::S(&formula)),
                ],
            );
        }
        quantified = true;
        let anchor = *m.subsumed.iter().min().expect("non-empty subsumption");
        // Remove subsumed entries; remember the formula at the anchor.
        let mut kept = Vec::new();
        for (k, e) in work.entries.iter().enumerate() {
            if !m.subsumed.contains(&k) {
                kept.push(e.clone());
            }
        }
        formulas.push((anchor, m.formula));
        work.entries = kept;
        // A second template may still match (e.g. two collections); positions
        // of previous formulas are only used for ordering, which stays stable
        // enough for display purposes.
    }
    let mut parts: Vec<Formula> =
        work.entries.iter().map(|e| Formula::pred(e.pred.clone())).collect();
    for (_, f) in formulas {
        parts.push(f);
    }
    GeneralizedPath { parts, quantified }
}

/// §III-A validation: the generalized disjunct must not hold on any passing
/// state (errors count as "does not hold").
fn validates(work: &ReducedPath, m: &TemplateMatch, passing_states: &[&MethodEntryState]) -> bool {
    let mut parts: Vec<Formula> = work
        .entries
        .iter()
        .enumerate()
        .filter(|(k, _)| !m.subsumed.contains(k))
        .map(|(_, e)| Formula::pred(e.pred.clone()))
        .collect();
    parts.push(m.formula.clone());
    let candidate = Formula::and(parts);
    !passing_states.iter().any(|s| eval_on_state(&candidate, s) == Ok(true))
}

// ---- index abstraction helpers ---------------------------------------------

/// Collects `(collection place, constant index)` dereferences in a predicate.
pub fn index_occurrences(pred: &Pred) -> Vec<(Place, i64)> {
    let mut out = Vec::new();
    let push = |p: &Place, k: i64, out: &mut Vec<(Place, i64)>| {
        if !out.contains(&(*p, k)) {
            out.push((*p, k));
        }
    };
    fn walk_term(t: &Term, push: &mut dyn FnMut(&Place, i64)) {
        match t.node() {
            TermNode::Const(_) => {}
            TermNode::Var(v) => walk_var(v, push),
            TermNode::Add(a, b) | TermNode::Sub(a, b) => {
                walk_term(a, push);
                walk_term(b, push);
            }
            TermNode::Neg(a) | TermNode::Mul(_, a) | TermNode::Div(a, _) | TermNode::Rem(a, _) => {
                walk_term(a, push)
            }
        }
    }
    fn walk_var(v: &SymVar, push: &mut dyn FnMut(&Place, i64)) {
        match v.node() {
            SymVarNode::Int(_) => {}
            SymVarNode::Len(p) => walk_place(p, push),
            SymVarNode::IntElem(p, ix) | SymVarNode::Char(p, ix) => {
                walk_place(p, push);
                if let Some(k) = ix.as_const() {
                    push(p, k);
                }
            }
        }
    }
    fn walk_place(p: &Place, push: &mut dyn FnMut(&Place, i64)) {
        if let PlaceNode::Elem(base, ix) = p.node() {
            walk_place(base, push);
            if let Some(k) = ix.as_const() {
                push(base, k);
            }
        }
    }
    let mut cb = |p: &Place, k: i64| push(p, k, &mut out);
    match pred {
        Pred::Cmp(_, a, b) => {
            walk_term(a, &mut cb);
            walk_term(b, &mut cb);
        }
        Pred::Null { place, .. } => walk_place(place, &mut cb),
        Pred::IsSpace { arg, .. } => walk_term(arg, &mut cb),
        Pred::BoolVar { .. } | Pred::Const(_) => {}
    }
    out
}

/// Rewrites *every* constant element index in `pred` to the bound variable
/// `var`, erasing which iteration produced the predicate. Used by the
/// d-impact comparison: `s[0] == null` and `s[2] == null` express the same
/// violated property, while `d > 0` vs `d + 1 > 0` stay distinct.
pub fn abstract_all_indices(pred: &Pred, var: &str) -> Pred {
    struct AllIndices<'a>(&'a str);
    impl Rewrite for AllIndices<'_> {
        fn elem_index(&mut self, _base: Place, ix: Term) -> Option<Term> {
            ix.as_const().map(|_| Term::var(self.0))
        }
    }
    AllIndices(var).rewrite_pred(pred)
}

/// Rewrites every dereference of `place[k]` in `pred` to `place[var]`.
/// Returns `None` when nothing was rewritten.
pub fn abstract_index(pred: &Pred, place: &Place, k: i64, var: &str) -> Option<Pred> {
    struct OneIndex<'a> {
        place: Place,
        k: i64,
        var: &'a str,
        changed: bool,
    }
    impl Rewrite for OneIndex<'_> {
        fn elem_index(&mut self, base: Place, ix: Term) -> Option<Term> {
            let hit = base == self.place && ix.as_const() == Some(self.k);
            self.changed |= hit;
            hit.then(|| Term::var(self.var))
        }
    }
    let mut hooks = OneIndex { place: *place, k, var, changed: false };
    let out = hooks.rewrite_pred(pred);
    hooks.changed.then_some(out)
}

// ---- shared matching machinery ----------------------------------------------

/// Canonical predicates of a path, precomputed.
fn canons(path: &ReducedPath) -> Vec<CanonPred> {
    path.entries.iter().map(|e| canon_pred(&e.pred)).collect()
}

/// Indices of entries canonically equal to `pred`.
fn find_all(canon_list: &[CanonPred], pred: &Pred) -> Vec<usize> {
    let c = canon_pred(pred);
    canon_list.iter().enumerate().filter(|(_, x)| **x == c).map(|(k, _)| k).collect()
}

/// The domain predicate `k < len(place)`.
fn bound_pred(place: &Place, k: i64) -> Pred {
    Pred::cmp(CmpOp::Lt, Term::int(k), Term::len(*place))
}

/// The loop-exhaustion predicate `k >= len(place)`.
fn exhaust_pred(place: &Place, k: i64) -> Pred {
    Pred::cmp(CmpOp::Ge, Term::int(k), Term::len(*place))
}

/// The length-pin predicate `len(place) == k` (violating conditions such as
/// `len(s) - k == 0` canonicalize to this form when the loop exhausts the
/// collection).
fn len_eq_pred(place: &Place, k: i64) -> Pred {
    Pred::cmp(CmpOp::Eq, Term::len(*place), Term::int(k))
}

// ---- the Existential template ------------------------------------------------

/// §IV-B Existential Template: only the last visited element satisfies the
/// violation predicate `φ`, every earlier element satisfies `¬φ` — infer
/// `∃i. i < len(a) ∧ φ(a[i])`.
pub struct ExistentialTemplate;

impl Template for ExistentialTemplate {
    fn name(&self) -> &'static str {
        "existential"
    }

    fn instantiate(&self, path: &ReducedPath) -> Option<TemplateMatch> {
        let last_idx = path.entries.iter().rposition(|e| e.kind.is_branch())?;
        let last = &path.entries[last_idx];
        let canon_list = canons(path);
        let mut best: Option<TemplateMatch> = None;
        for (place, kk) in index_occurrences(&last.pred) {
            let Some(phi) = abstract_index(&last.pred, &place, kk, BOUND_VAR) else { continue };
            // Earlier elements must all witness ¬φ.
            let mut subsumed = vec![last_idx];
            let mut complete = true;
            for j in 0..kk {
                let neg = phi.subst_var(BOUND_VAR, &Term::int(j)).negated();
                let hits = find_all(&canon_list, &neg);
                if hits.is_empty() {
                    complete = false;
                    break;
                }
                subsumed.extend(hits);
            }
            if !complete {
                continue;
            }
            // Subsume the per-index domain predicates `j < len(place)`.
            for j in 0..=kk {
                subsumed.extend(find_all(&canon_list, &bound_pred(&place, j)));
            }
            subsumed.sort_unstable();
            subsumed.dedup();
            let body = Formula::and([
                Formula::pred(Pred::cmp(CmpOp::Lt, Term::var(BOUND_VAR), Term::len(place))),
                Formula::pred(phi.subst_var(BOUND_VAR, &Term::var(BOUND_VAR))),
            ]);
            let formula = Formula::exists(BOUND_VAR, body);
            if best.as_ref().map(|b| subsumed.len() > b.subsumed.len()).unwrap_or(true) {
                best = Some(TemplateMatch { formula, subsumed });
            }
        }
        best
    }
}

// ---- the Universal template ----------------------------------------------------

/// §IV-B Universal Template: every element of the (exhausted) collection
/// satisfies `φ` — infer `∀i. (0 ≤ i ∧ i < len(a)) ==> φ(a[i])`.
pub struct UniversalTemplate;

impl Template for UniversalTemplate {
    fn instantiate(&self, path: &ReducedPath) -> Option<TemplateMatch> {
        generalize_family(path, 1, 0)
    }

    fn name(&self) -> &'static str {
        "universal"
    }
}

/// §IV-B extension: elements at indices `≡ offset (mod step)` satisfy `φ` —
/// infer `∀i. (0 ≤ i ∧ i < len(a) ∧ i % step == offset) ==> φ(a[i])`.
/// `StepTemplate { step: 1, offset: 0 }` degenerates to the Universal
/// Template (which is how `UniversalTemplate` is implemented).
pub struct StepTemplate {
    pub step: i64,
    pub offset: i64,
}

impl Template for StepTemplate {
    fn name(&self) -> &'static str {
        "step"
    }

    fn instantiate(&self, path: &ReducedPath) -> Option<TemplateMatch> {
        generalize_family(path, self.step, self.offset)
    }
}

fn generalize_family(path: &ReducedPath, step: i64, offset: i64) -> Option<TemplateMatch> {
    debug_assert!(step >= 1);
    let canon_list = canons(path);
    let env = Env::new(&path.state);
    let mut best: Option<TemplateMatch> = None;
    // Anchor on any entry dereferencing some place at the family's first
    // index (`offset`).
    for anchor in path.entries.iter() {
        for (place, k) in index_occurrences(&anchor.pred) {
            if k != offset {
                continue;
            }
            let Some(phi) = abstract_index(&anchor.pred, &place, k, BOUND_VAR) else { continue };
            // The collection length in the originating failing state.
            let Ok(len) = eval_term(&Term::len(place), &env) else { continue };
            if len < 1 {
                continue;
            }
            // Every family index must witness φ.
            let mut subsumed = Vec::new();
            let mut complete = true;
            let mut j = offset;
            while j < len {
                let inst = phi.subst_var(BOUND_VAR, &Term::int(j));
                let hits = find_all(&canon_list, &inst);
                if hits.is_empty() {
                    complete = false;
                    break;
                }
                subsumed.extend(hits);
                j += step;
            }
            if !complete || subsumed.len() < 2 {
                continue;
            }
            // Subsume domain, exhaustion, and length-pin bookkeeping
            // predicates (`j < len`, `j >= len`, `len == L`).
            for j in 0..=len {
                subsumed.extend(find_all(&canon_list, &bound_pred(&place, j)));
                subsumed.extend(find_all(&canon_list, &exhaust_pred(&place, j)));
            }
            subsumed.extend(find_all(&canon_list, &len_eq_pred(&place, len)));
            subsumed.sort_unstable();
            subsumed.dedup();
            let mut domain = vec![
                Formula::pred(Pred::cmp(CmpOp::Le, Term::int(0), Term::var(BOUND_VAR))),
                Formula::pred(Pred::cmp(CmpOp::Lt, Term::var(BOUND_VAR), Term::len(place))),
            ];
            if step != 1 {
                domain.push(Formula::pred(Pred::cmp(
                    CmpOp::Eq,
                    Term::var(BOUND_VAR).rem(step),
                    Term::int(offset),
                )));
            }
            let formula = Formula::forall(
                BOUND_VAR,
                Formula::implies(Formula::and(domain), Formula::pred(phi.clone())),
            );
            if best.as_ref().map(|b| subsumed.len() > b.subsumed.len()).unwrap_or(true) {
                best = Some(TemplateMatch { formula, subsumed });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::InputValue;
    use symbolic::{EntryKind, PathEntry};

    fn entry(pred: Pred, site: u32) -> PathEntry {
        PathEntry {
            pred,
            kind: EntryKind::ExplicitBranch,
            site: minilang::NodeId(site),
            span: minilang::Span::new(site, 1),
        }
    }

    fn check_entry(pred: Pred, site: u32) -> PathEntry {
        PathEntry {
            pred,
            kind: EntryKind::Check(minilang::CheckId {
                node: minilang::NodeId(site),
                kind: minilang::CheckKind::NullDeref,
            }),
            site: minilang::NodeId(site),
            span: minilang::Span::new(site, 1),
        }
    }

    fn s_elem_null(k: i64, positive: bool) -> Pred {
        Pred::Null { place: Place::elem(Place::param("s"), k), positive }
    }

    fn lt_len(k: i64) -> Pred {
        bound_pred(&Place::param("s"), k)
    }

    /// The paper's t_f3 reduced path: c>0 ∧ d+1>0 ∧ s!=null ∧ 0<len(s) ∧
    /// s[0]!=null ∧ 1<len(s) ∧ s[1]!=null ∧ 2<len(s) ∧ s[2]==null
    /// generalizes to ∃i. i < len(s) ∧ s[i] == null.
    #[test]
    fn existential_template_on_tf3() {
        let entries = vec![
            entry(Pred::cmp(CmpOp::Gt, Term::var("c"), Term::int(0)), 1),
            entry(Pred::cmp(CmpOp::Gt, Term::var("d").add(Term::int(1)), Term::int(0)), 2),
            check_entry(Pred::not_null(Place::param("s")), 3),
            entry(lt_len(0), 4),
            check_entry(s_elem_null(0, false), 5),
            entry(lt_len(1), 4),
            check_entry(s_elem_null(1, false), 5),
            entry(lt_len(2), 4),
            check_entry(s_elem_null(2, true), 5),
        ];
        let a = Some(vec![97i64]);
        let state = MethodEntryState::from_pairs([
            ("s".to_string(), InputValue::ArrayStr(Some(vec![a.clone(), a, None]))),
            ("c".to_string(), InputValue::Int(1)),
            ("d".to_string(), InputValue::Int(0)),
        ]);
        let path = ReducedPath { entries, state };
        let m = ExistentialTemplate.instantiate(&path).expect("template matches");
        assert_eq!(m.formula.to_string(), "exists i. i < len(s) && s[i] == null");
        // Subsumes the element family, bounds, and the last branch: 6 of 9.
        assert_eq!(m.subsumed.len(), 6);
        let g = generalize_path(&path, &default_templates(), &[]);
        assert!(g.quantified);
        assert_eq!(
            g.conjunction().to_string(),
            "c > 0 && (d + 1) > 0 && s != null && (exists i. i < len(s) && s[i] == null)"
        );
    }

    #[test]
    fn existential_requires_earlier_negations() {
        // s[1] == null without the s[0] != null witness must NOT generalize.
        let entries = vec![
            check_entry(Pred::not_null(Place::param("s")), 3),
            entry(lt_len(1), 4),
            check_entry(s_elem_null(1, true), 5),
        ];
        let state = MethodEntryState::from_pairs([(
            "s",
            InputValue::ArrayStr(Some(vec![Some(vec![97]), None])),
        )]);
        let path = ReducedPath { entries, state };
        assert!(ExistentialTemplate.instantiate(&path).is_none());
    }

    #[test]
    fn universal_template_on_exhausted_family() {
        // All three elements are zero and the loop exhausted the array:
        // a[0]==0 ∧ 1<len ∧ a[1]==0 ∧ 2<len ∧ a[2]==0 ∧ 3>=len → ∀.
        let a = Place::param("a");
        let elem_zero =
            |k: i64| Pred::cmp(CmpOp::Eq, Term::int_elem(a, Term::int(k)), Term::int(0));
        let entries = vec![
            check_entry(Pred::not_null(a), 1),
            entry(bound_pred(&a, 0), 2),
            entry(elem_zero(0), 3),
            entry(bound_pred(&a, 1), 2),
            entry(elem_zero(1), 3),
            entry(bound_pred(&a, 2), 2),
            entry(elem_zero(2), 3),
            entry(exhaust_pred(&a, 3), 2),
            entry(Pred::cmp(CmpOp::Gt, Term::len(a), Term::int(0)), 9),
        ];
        let state =
            MethodEntryState::from_pairs([("a", InputValue::ArrayInt(Some(vec![0, 0, 0])))]);
        let path = ReducedPath { entries, state };
        let m = UniversalTemplate.instantiate(&path).expect("matches");
        assert_eq!(m.formula.to_string(), "forall i. (0 <= i && i < len(a) ==> a[i] == 0)");
        assert!(m.subsumed.len() >= 7);
    }

    #[test]
    fn step_template_matches_even_indices() {
        let a = Place::param("a");
        let elem_zero =
            |k: i64| Pred::cmp(CmpOp::Eq, Term::int_elem(a, Term::int(k)), Term::int(0));
        let entries =
            vec![check_entry(Pred::not_null(a), 1), entry(elem_zero(0), 3), entry(elem_zero(2), 3)];
        let state =
            MethodEntryState::from_pairs([("a", InputValue::ArrayInt(Some(vec![0, 5, 0, 5])))]);
        let path = ReducedPath { entries, state };
        let m = StepTemplate { step: 2, offset: 0 }.instantiate(&path).expect("matches");
        assert!(m.formula.to_string().contains("(i % 2) == 0"), "{}", m.formula);
        // Plain universal must NOT match (a[1] family member missing).
        assert!(UniversalTemplate.instantiate(&path).is_none());
    }

    #[test]
    fn validation_rejects_overgeneralization() {
        // Same family as the t_f3 test, but with a passing state that the
        // generalized disjunct would capture.
        let entries = vec![
            check_entry(Pred::not_null(Place::param("s")), 3),
            entry(lt_len(0), 4),
            check_entry(s_elem_null(0, true), 5),
        ];
        let state = MethodEntryState::from_pairs([(
            "s".to_string(),
            InputValue::ArrayStr(Some(vec![None])),
        )]);
        let path = ReducedPath { entries, state };
        // A passing state with a null element (pretend the loop is guarded
        // differently): generalization must be rejected.
        let passing = MethodEntryState::from_pairs([(
            "s".to_string(),
            InputValue::ArrayStr(Some(vec![Some(vec![97]), None])),
        )]);
        let g = generalize_path(&path, &default_templates(), &[&passing]);
        assert!(!g.quantified, "validation must reject: {:?}", g.conjunction().to_string());
    }

    #[test]
    fn char_families_generalize_for_reverse_words_shape() {
        // All characters whitespace, string exhausted → universal over chars.
        let v = Place::param("value");
        let ws = |k: i64| Pred::IsSpace { arg: Term::char_at(v, Term::int(k)), positive: true };
        let entries = vec![
            check_entry(Pred::not_null(v), 1),
            entry(ws(0), 2),
            entry(ws(1), 2),
            entry(ws(2), 2),
        ];
        let state = MethodEntryState::from_pairs([("value", InputValue::str_from("   "))]);
        let path = ReducedPath { entries, state };
        let m = UniversalTemplate.instantiate(&path).expect("matches");
        assert_eq!(
            m.formula.to_string(),
            "forall i. (0 <= i && i < len(value) ==> is_space(char_at(value, i)))"
        );
    }
}
