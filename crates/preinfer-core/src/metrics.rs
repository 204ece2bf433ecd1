//! Quality metrics for inferred preconditions (Section V-B).
//!
//! * **Sufficient** — the precondition invalidates every failing test of the
//!   shared generated suite (blocks all illegal inputs seen).
//! * **Necessary** — it validates every passing test (blocks only illegal
//!   inputs).
//! * **Correct** — semantically equivalent to the hand-written ground truth,
//!   decided by agreement on a probe set: every suite state plus a seeded
//!   batch of random states. (The paper used manual inspection backed by
//!   Pex runs; the probe protocol automates the same judgement.)
//! * **Relative complexity** — `(|ψ| − |ψ*|) / |ψ*|`, Figure 3's metric.

use minilang::{Func, InputValue, MethodEntryState, Ty};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbolic::eval::eval_on_state;
use symbolic::Formula;

/// Evaluation verdict for one inferred precondition at one ACL.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecondQuality {
    pub sufficient: bool,
    pub necessary: bool,
    /// `None` when no ground truth was provided.
    pub correct: Option<bool>,
    /// `|ψ|`.
    pub complexity: usize,
    /// `(|ψ| − |ψ*|) / max(1, |ψ*|)`; `None` without a ground truth.
    pub relative_complexity: Option<f64>,
}

impl PrecondQuality {
    /// Both sufficient and necessary (the paper's `#Both` column).
    pub fn both(&self) -> bool {
        self.sufficient && self.necessary
    }
}

/// Whether `psi` validates the method execution started from `state`
/// (Definition 4). Evaluation errors count as *invalidated* — an undefined
/// guard cannot admit the input.
pub fn validates(psi: &Formula, state: &MethodEntryState) -> bool {
    eval_on_state(psi, state) == Ok(true)
}

/// Random probe states the correctness check draws per evaluation.
pub const RANDOM_PROBES: usize = 300;
/// Seed of the probe-state generator (probes are the same for every ψ).
pub const PROBE_SEED: u64 = 0xC0FFEE;

/// Evaluates an inferred precondition `psi` for one ACL.
///
/// `passing` / `failing` are method-entry states classified for this ACL —
/// the shared suite partition (Section V-B), optionally extended with
/// execution-classified probe states (the paper re-ran Pex against the
/// inserted precondition; the probe extension plays that role).
/// `ground_truth` is the hand-written `ψ*` if available.
pub fn evaluate_precondition(
    psi: &Formula,
    func: &Func,
    passing: &[&MethodEntryState],
    failing: &[&MethodEntryState],
    ground_truth: Option<&Formula>,
) -> PrecondQuality {
    let sufficient = failing.iter().all(|state| !validates(psi, state));
    let necessary = passing.iter().all(|state| validates(psi, state));
    let complexity = psi.complexity();
    let (correct, relative_complexity) = match ground_truth {
        None => (None, None),
        Some(truth) => {
            let mut agree = true;
            for state in passing.iter().chain(failing.iter()) {
                if !formulas_agree(psi, truth, state) {
                    agree = false;
                    break;
                }
            }
            if agree {
                let mut rng = StdRng::seed_from_u64(PROBE_SEED);
                for _ in 0..RANDOM_PROBES {
                    let state = random_probe(func, &mut rng);
                    if !formulas_agree(psi, truth, &state) {
                        agree = false;
                        break;
                    }
                }
            }
            let denom = truth.complexity().max(1) as f64;
            let rel = (complexity as f64 - truth.complexity() as f64) / denom;
            (Some(agree), Some(rel))
        }
    };
    PrecondQuality { sufficient, necessary, correct, complexity, relative_complexity }
}

/// Agreement of two formulas on a state: equal `Result`-truth (both true,
/// both false, or both undefined).
fn formulas_agree(a: &Formula, b: &Formula, state: &MethodEntryState) -> bool {
    let va = eval_on_state(a, state).ok();
    let vb = eval_on_state(b, state).ok();
    va == vb
}

/// A random probe state biased toward the boundary shapes that matter
/// (nulls, empty and short collections, small ints, whitespace chars).
pub fn random_probe(func: &Func, rng: &mut StdRng) -> MethodEntryState {
    let mut state = MethodEntryState::new();
    for p in &func.params {
        state.set(&p.name, random_probe_value(p.ty, rng));
    }
    state
}

fn random_probe_value(ty: Ty, rng: &mut StdRng) -> InputValue {
    match ty {
        Ty::Int => InputValue::Int(
            *[-7, -2, -1, 0, 1, 2, 3, 5, 11].get(rng.gen_range(0..9usize)).expect("in range"),
        ),
        Ty::Bool => InputValue::Bool(rng.gen_bool(0.5)),
        Ty::Str => match rng.gen_range(0..5) {
            0 => InputValue::Str(None),
            1 => InputValue::Str(Some(vec![])),
            _ => InputValue::Str(Some(probe_chars(rng))),
        },
        Ty::ArrayInt => match rng.gen_range(0..5) {
            0 => InputValue::ArrayInt(None),
            1 => InputValue::ArrayInt(Some(vec![])),
            _ => {
                let len = rng.gen_range(1..=4);
                InputValue::ArrayInt(Some((0..len).map(|_| rng.gen_range(-3..=3)).collect()))
            }
        },
        Ty::ArrayStr => match rng.gen_range(0..5) {
            0 => InputValue::ArrayStr(None),
            1 => InputValue::ArrayStr(Some(vec![])),
            _ => {
                let len = rng.gen_range(1..=4);
                InputValue::ArrayStr(Some(
                    (0..len)
                        .map(|_| if rng.gen_bool(0.35) { None } else { Some(probe_chars(rng)) })
                        .collect(),
                ))
            }
        },
        Ty::Void => unreachable!("void parameter"),
    }
}

fn probe_chars(rng: &mut StdRng) -> Vec<i64> {
    let len = rng.gen_range(1..=4);
    (0..len).map(|_| if rng.gen_bool(0.4) { 32 } else { rng.gen_range(97..=99) }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::compile;
    use symbolic::parse_spec;

    #[test]
    fn suite_based_sufficiency_and_necessity() {
        let tp = compile("fn f(x int) { assert(x != 3); }").unwrap();
        let func = tp.func("f").unwrap().clone();
        let mk = |x: i64| MethodEntryState::from_pairs([("x", InputValue::Int(x))]);
        let passing = [mk(0), mk(5)];
        let failing = [mk(3)];
        let pass_refs: Vec<&MethodEntryState> = passing.iter().collect();
        let fail_refs: Vec<&MethodEntryState> = failing.iter().collect();
        let truth = parse_spec("x != 3", &func).unwrap();
        let q = evaluate_precondition(&truth, &func, &pass_refs, &fail_refs, Some(&truth));
        assert!(q.sufficient && q.necessary);
        assert_eq!(q.correct, Some(true));
        assert_eq!(q.relative_complexity, Some(0.0));
        // A too-strong precondition: sufficient but not necessary.
        let strong = parse_spec("x > 10", &func).unwrap();
        let q = evaluate_precondition(&strong, &func, &pass_refs, &fail_refs, Some(&truth));
        assert!(q.sufficient && !q.necessary);
        assert_eq!(q.correct, Some(false));
        // A too-weak precondition: necessary but not sufficient.
        let weak = parse_spec("true", &func).unwrap();
        let q = evaluate_precondition(&weak, &func, &pass_refs, &fail_refs, Some(&truth));
        assert!(!q.sufficient && q.necessary);
    }

    #[test]
    fn probe_correctness_distinguishes_suite_equivalent_formulas() {
        // On the suite below, `x >= 0` and `x != -1` agree; random probes
        // must tell them apart.
        let tp = compile("fn f(x int) { assert(x >= 0); }").unwrap();
        let func = tp.func("f").unwrap().clone();
        let mk = |x: i64| MethodEntryState::from_pairs([("x", InputValue::Int(x))]);
        let passing = [mk(0)];
        let failing = [mk(-1)];
        let pass_refs: Vec<&MethodEntryState> = passing.iter().collect();
        let fail_refs: Vec<&MethodEntryState> = failing.iter().collect();
        let truth = parse_spec("x >= 0", &func).unwrap();
        let candidate = parse_spec("x != -1", &func).unwrap();
        let q = evaluate_precondition(&candidate, &func, &pass_refs, &fail_refs, Some(&truth));
        assert!(q.both(), "agrees on the tiny suite");
        assert_eq!(q.correct, Some(false), "probes expose the difference");
    }

    #[test]
    fn quantified_ground_truth_agreement() {
        let tp = compile(
            "fn f(s [str]) -> int {
                let n = 0;
                for (let i = 0; i < len(s); i = i + 1) { n = n + strlen(s[i]); }
                return n;
            }",
        )
        .unwrap();
        let func = tp.func("f").unwrap().clone();
        let truth =
            parse_spec("s == null || !(exists i. i < len(s) && s[i] == null)", &func).unwrap();
        let q = evaluate_precondition(&truth, &func, &[], &[], Some(&truth));
        assert_eq!(q.correct, Some(true));
    }
}
