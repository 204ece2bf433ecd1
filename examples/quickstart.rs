//! Quickstart: the paper's motivating example (Figure 1), end to end.
//!
//! Generates tests for the `example` method, prints the paper's Table I/II
//! path conditions, runs PreInfer for both assertion-containing locations,
//! and checks the inferred preconditions against the ground truths from
//! Lines 3 and 5 of the figure.
//!
//! Run with: `cargo run --example quickstart`

use preinfer::prelude::*;

fn main() {
    let subject = preinfer::subjects::motivating::motivating();
    let tp = subject.compile();
    let func = subject.func(&tp).clone();

    println!("== The method under test (paper Fig. 1) ==");
    println!("{}", preinfer::minilang::func_to_string(&func));

    println!("== Path conditions of the paper's failing tests (Tables I & II) ==");
    println!("{}", preinfer::report::table_1_2());

    println!("== Generating a shared test suite (the Pex role) ==");
    let suite = generate_tests(&tp, subject.name, &TestGenConfig::default());
    println!(
        "{} tests generated, {:.1}% block coverage, {} exception-throwing locations\n",
        suite.len(),
        suite.coverage_percent(&func),
        suite.triggered_acls().len()
    );

    for acl in suite.triggered_acls() {
        let Some(truth_alpha) = subject.truth_alpha(&tp, acl) else { continue };
        println!("== ACL {acl} ==");
        let (pass, fail) = suite.partition(acl);
        println!("  suite: {} passing / {} failing tests", pass.len(), fail.len());

        let inferred =
            infer_precondition(&tp, subject.name, acl, &suite, &PreInferConfig::default())
                .expect("failing tests exist");
        println!("  inferred α: {}", inferred.precondition.alpha);
        println!("  inferred ψ: {}", inferred.precondition.psi);
        println!(
            "  pruning: {} predicates examined, {} removed",
            inferred.prune_stats.examined, inferred.prune_stats.removed
        );

        let truth_psi = truth_alpha.negated();
        let pass_states: Vec<_> = pass.iter().map(|r| &r.state).collect();
        let fail_states: Vec<_> = fail.iter().map(|r| &r.state).collect();
        let quality = evaluate_precondition(
            &inferred.precondition.psi,
            &func,
            &pass_states,
            &fail_states,
            Some(&truth_psi),
        );
        println!("  ground-truth ψ*: {truth_psi}");
        println!(
            "  sufficient: {} | necessary: {} | matches ground truth: {:?}",
            quality.sufficient, quality.necessary, quality.correct
        );
        println!(
            "  complexity |ψ| = {} (ground truth {}), relative {:+.2}\n",
            quality.complexity,
            truth_psi.complexity(),
            quality.relative_complexity.unwrap_or(0.0)
        );
    }
}
