//! The interprocedural-differential contract: applying callee ψ-summaries
//! at call sites (`--interproc summary`) infers, for every entry-method
//! ACL, either byte-identically the same ψ as inlining, or — for the
//! allow-listed subjects below — a *stronger* ψ (summary application drops
//! callee-internal path atoms, so failing disjuncts can widen, α can grow,
//! and ψ = ¬α can shrink). Stronger-ψ divergences are verified by probing:
//! every random state admitted by the summary-mode ψ must be admitted by
//! the inline-mode ψ.
//!
//! Single-function subjects have no call sites, so summary mode is a
//! no-op for them and the byte-identical branch covers the whole original
//! corpus; the multi-function `Interproc.Summaries` namespace is where the
//! divergence allow-list can apply.

mod common;

use preinfer::prelude::*;
use preinfer_core::validates;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A subject allowed to diverge from byte-parity: the exact ψ each mode
/// infers at its one diverging ACL, and the reason. Each divergence must
/// still pass the probe-verified implication `ψ_summary ⟹ ψ_inline`, and
/// the pinned ψ pair keeps the reason from going stale silently.
struct Stronger {
    name: &'static str,
    inline: &'static str,
    summary: &'static str,
    reason: &'static str,
}

/// Every entry needs a justification.
const ALLOW_STRONGER: &[Stronger] = &[
    Stronger {
        name: "shared_helper",
        inline: "p != 0 && (p == 0 || q != 0)",
        summary: "p != 0 && (p == 0 || q != 0) && (p == 0 || q == 0 || (p + q) != 0)",
        reason: "three call sites into one helper: summary application \
                 records ψ(actuals) per traversed check, so the third call's \
                 divisor `p + q` reaches pruning and summary mode adds \
                 `(p == 0 || q == 0 || (p + q) != 0)`; inline mode drops it \
                 and admits the failing state p = 1, q = -1. Summary ψ is \
                 strictly stronger and the one that matches the ground truth \
                 `p == 0 || q == 0 || p + q == 0`",
    },
    Stronger {
        name: "callee_bounds",
        inline: "(a == null || (i + 1) < len(a)) && (a == null || (i + 1) >= 0)",
        summary: "(a == null || (i + 1) < len(a)) && \
                  (a == null || (i + 1) >= len(a) || (i + 1) >= 0)",
        reason: "the failing-branch decomposition of ¬ψ at the call site has \
                 different atom granularity than the callee's internal branch \
                 order, leaving the redundant disjunct `(i + 1) >= len(a)` \
                 beside `(i + 1) >= 0` (subsumed because len(a) >= 0 on every \
                 reachable state); probe-verified equivalent",
    },
];

fn allowlisted(name: &str) -> Option<&'static Stronger> {
    ALLOW_STRONGER.iter().find(|entry| entry.name == name)
}

/// Inference output for one method under one interprocedural mode (the
/// default run, with a fresh summary table in summary mode):
/// `(acl, ψ line, ψ formula)` per triggered entry ACL, in ACL order.
fn infer_psis(
    m: &subjects::SubjectMethod,
    summaries: bool,
) -> Vec<(minilang::CheckId, String, Formula)> {
    let table = SummaryTable::new();
    let table = summaries.then_some(&table);
    SummaryBuildConfig::default()
        .run(&m.compile(), m.name, table)
        .inferences
        .into_iter()
        .map(|(acl, inf)| (acl, common::psi_line(m.name, acl, &inf), inf.precondition.psi))
        .collect()
}

/// Probes the implication `stronger ⟹ weaker` over random method-entry
/// states: no state may be admitted by `stronger` but rejected by `weaker`.
fn probe_implication(func: &minilang::Func, stronger: &Formula, weaker: &Formula, label: &str) {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    for _ in 0..300 {
        let state = preinfer_core::random_probe(func, &mut rng);
        if validates(stronger, &state) {
            assert!(
                validates(weaker, &state),
                "{label}: summary-mode ψ admits {state} which inline-mode ψ rejects \
                 — summary ψ is not stronger"
            );
        }
    }
}

/// Full-corpus differential: summary-apply mode reproduces inline-mode ψ
/// byte-for-byte, except on allow-listed subjects where it must be
/// probe-verifiably stronger.
#[test]
fn summary_mode_matches_or_strengthens_inline_psi_across_the_corpus() {
    let mut nonempty = 0usize;
    let mut diverged = 0usize;
    for m in &common::corpus() {
        let inline = infer_psis(m, false);
        let summary = infer_psis(m, true);
        let inline_acls: Vec<_> = inline.iter().map(|(a, _, _)| *a).collect();
        let summary_acls: Vec<_> = summary.iter().map(|(a, _, _)| *a).collect();
        assert_eq!(
            summary_acls, inline_acls,
            "{}::{}: summary mode triggered a different ACL set",
            m.namespace, m.name
        );
        let tp = m.compile();
        let func = m.func(&tp);
        for ((acl, i_line, i_psi), (_, s_line, s_psi)) in inline.iter().zip(&summary) {
            if i_psi.to_string() == s_psi.to_string() {
                continue;
            }
            diverged += 1;
            let entry = allowlisted(m.name).unwrap_or_else(|| {
                panic!(
                    "{}::{} {acl:?}: ψ diverged without an allow-list entry\n  \
                     inline:  {i_line}\n  summary: {s_line}",
                    m.namespace, m.name
                )
            });
            assert_eq!(i_psi.to_string(), entry.inline, "{}: inline ψ moved", m.name);
            assert_eq!(s_psi.to_string(), entry.summary, "{}: summary ψ moved", m.name);
            let label = format!("{}::{} {acl:?} ({})", m.namespace, m.name, entry.reason);
            probe_implication(func, s_psi, i_psi, &label);
        }
        nonempty += usize::from(!inline.is_empty());
    }
    assert!(
        nonempty > 30,
        "only {nonempty} corpus methods produced inferences — differential is near-vacuous"
    );
    // Every allow-list entry must actually be exercised, or it is stale.
    assert!(
        diverged >= ALLOW_STRONGER.len(),
        "allow-list has {} entries but only {diverged} divergences observed",
        ALLOW_STRONGER.len()
    );
}
