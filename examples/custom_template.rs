//! Extending the generalization-template registry (paper §IV-B: "our
//! technique can be easily extended with more templates").
//!
//! The default registry holds the paper's Existential and Universal
//! templates plus the even- and odd-index step templates (stride 2). A
//! method that checks every *third* element defeats all four, so its ψ
//! stays an unquantified list of per-slot conditions; registering a
//! stride-3 step template (`∀i. (0 ≤ i < len(a) ∧ i % 3 == 0) ⇒ φ(a[i])`)
//! makes the family generalize.
//!
//! Run with: `cargo run --example custom_template`

use preinfer::preinfer_core::{PreInferConfig, StepTemplate};
use preinfer::prelude::*;

const SOURCE: &str = "
fn every_third_blank(grid [int]) -> int {
    // every third position is a separator and must be zero
    let i = 0;
    while (i < len(grid)) {
        if (grid[i] != 0) { return i; }
        i = i + 3;
    }
    return 100 / 0;
}";

fn main() {
    let tp = compile(SOURCE).expect("compiles");
    let suite = generate_tests(&tp, "every_third_blank", &TestGenConfig::default());
    let acl = suite
        .triggered_acls()
        .into_iter()
        .find(|a| a.kind == preinfer::minilang::CheckKind::DivByZero)
        .expect("the sentinel division fails");
    println!("ACL under analysis: {acl} (reached when every third slot is zero)\n");

    // 1) Default templates: no stride-3 family matches.
    let default_inference =
        infer_precondition(&tp, "every_third_blank", acl, &suite, &PreInferConfig::default())
            .expect("failing tests exist");
    println!("-- default registry (Existential, Universal, StepTemplate stride 2) --");
    println!("   quantified: {}", default_inference.precondition.quantified);
    println!("   ψ: {}\n", default_inference.precondition.psi);

    // 2) Registry extended with a stride-3 step template.
    let mut cfg = PreInferConfig::default();
    cfg.templates.push(Box::new(StepTemplate { step: 3, offset: 0 }));
    let extended = infer_precondition(&tp, "every_third_blank", acl, &suite, &cfg)
        .expect("failing tests exist");
    println!("-- registry + StepTemplate {{ step: 3, offset: 0 }} --");
    println!("   quantified: {}", extended.precondition.quantified);
    println!("   ψ: {}", extended.precondition.psi);

    assert!(
        !default_inference.precondition.quantified,
        "no default template should generalize the stride-3 family"
    );
    assert!(
        extended.precondition.quantified,
        "the stride-3 step template should generalize the stride-3 family"
    );
    assert!(
        extended.precondition.psi.complexity() <= default_inference.precondition.psi.complexity(),
        "generalization should not make the precondition more complex"
    );
    println!(
        "\ncomplexity: {} (default) → {} (with step template)",
        default_inference.precondition.psi.complexity(),
        extended.precondition.psi.complexity()
    );
}
