//! The paper's Figure 2 case study: DSA's `ReverseWords`.
//!
//! The method throws IndexOutOfRange when the output buffer is empty —
//! which happens exactly when every character of the input is whitespace.
//! PreInfer's Universal template generalizes the per-character predicates
//! into `∀i. (0 ≤ i < strlen(value)) ⇒ is_space(char_at(value, i))`,
//! recovering the paper's ground truth
//! `value == null ∨ ∃i. i < value.Length ∧ ¬IsWhitespace(value[i])` (as its
//! negation). Both ACLs the suite triggers — the null dereference and
//! the Fig. 2 index — get a ψ that is sufficient, necessary and equal to
//! the ground truth, and the Fig. 2 ψ is quantified; the example asserts
//! all of it.
//!
//! Run with: `cargo run --example reverse_words`

use preinfer::minilang::CheckKind;
use preinfer::prelude::*;

fn main() {
    let subject = preinfer::subjects::dsa_algorithm::reverse_words();
    let tp = subject.compile();
    let func = subject.func(&tp).clone();

    println!("== reverse_words (paper Fig. 2) ==");
    println!("{}", preinfer::minilang::func_to_string(&func));

    // A few illustrative concrete runs.
    for (label, text) in [("two words", "ab cd"), ("all spaces", "   "), ("empty", "")] {
        let state = MethodEntryState::from_pairs([("value", InputValue::str_from(text))]);
        let out = run_concolic(&tp, subject.name, &state, &ConcolicConfig::default(), None);
        println!("  value = {label:10} → {:?}", out.path.outcome);
    }
    println!();

    let suite = generate_tests(&tp, subject.name, &TestGenConfig::default());
    let acls = suite.triggered_acls();
    println!(
        "suite: {} tests, {:.1}% coverage, ACLs: {:?}\n",
        suite.len(),
        suite.coverage_percent(&func),
        acls
    );
    let names: Vec<String> = acls.iter().map(ToString::to_string).collect();
    assert_eq!(names, ["NullReference@n5", "IndexOutOfRange@n116"], "triggered ACLs");

    for acl in acls {
        let truth_alpha = subject.truth_alpha(&tp, acl).expect("every ACL has a ground truth");
        let inferred =
            infer_precondition(&tp, subject.name, acl, &suite, &PreInferConfig::default())
                .expect("failing tests exist");
        println!("ACL {acl}");
        println!("  inferred ψ: {}", inferred.precondition.psi);
        let truth_psi = truth_alpha.negated();
        println!("  ground ψ*:  {truth_psi}");
        let (pass, fail) = suite.partition(acl);
        let pass_states: Vec<_> = pass.iter().map(|r| &r.state).collect();
        let fail_states: Vec<_> = fail.iter().map(|r| &r.state).collect();
        let q = evaluate_precondition(
            &inferred.precondition.psi,
            &func,
            &pass_states,
            &fail_states,
            Some(&truth_psi),
        );
        println!(
            "  sufficient: {} | necessary: {} | matches ground truth: {:?}\n",
            q.sufficient, q.necessary, q.correct
        );
        assert!(q.sufficient && q.necessary, "ACL {acl}: ψ must be sufficient and necessary");
        assert_eq!(q.correct, Some(true), "ACL {acl}: ψ must match the ground truth");
        assert_eq!(
            inferred.precondition.quantified,
            acl.kind == CheckKind::IndexOutOfRange,
            "ACL {acl}: only the Fig. 2 ψ is quantified"
        );
    }
}
