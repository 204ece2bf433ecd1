//! The paper's Figure 2 case study: DSA's `ReverseWords`.
//!
//! The method throws IndexOutOfRange when the output buffer is empty —
//! which happens exactly when every character of the input is whitespace.
//! PreInfer's Universal template generalizes the per-character predicates
//! into `∀i. (0 ≤ i < strlen(value)) ⇒ is_space(char_at(value, i))`,
//! recovering the paper's ground truth
//! `value == null ∨ ∃i. i < value.Length ∧ ¬IsWhitespace(value[i])` (as its
//! negation).
//!
//! Run with: `cargo run --example reverse_words`

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
        let out = run(&tp, subject.name, &state);
        println!("  value = {label:10} → {:?}", out.result);
    }
    println!();

    let suite = generate_tests(&tp, subject.name, &TestGenConfig::default());
    println!(
        "suite: {} tests, {:.1}% coverage, ACLs: {:?}\n",
        suite.len(),
        suite.coverage_percent(&func),
        suite.triggered_acls()
    );

    for acl in suite.triggered_acls() {
        let Some(truth_alpha) = subject.truth_alpha(&tp, acl) else { continue };
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
    }
}
