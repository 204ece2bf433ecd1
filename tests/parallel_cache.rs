//! The solver-level differential of the canonicalizing solver cache:
//! fronting the solver with a [`SolverCache`] never changes an answer.
//! Every path-condition prefix the corpus produces gets the same verdict
//! (and the same model, bit for bit) from the cached and the
//! cache-bypassing entry points.
//!
//! This holds by construction (the cache stores only values that are pure
//! functions of their canonical keys); the test is the executable form of
//! that argument. End to end, the cache-off and `jobs` rows of
//! `tests/common/` check that ψ is the same with the cache on and off and
//! for any job count.

mod common;

use preinfer::prelude::*;
use solver::solve_preds_with;

/// Differential, solver level: for every subject, every branch-prefix of
/// every executed path gets the same verdict and model through the cache as
/// around it.
#[test]
fn cached_and_uncached_solver_agree_on_corpus_queries() {
    let solver_cfg = SolverConfig::default();
    let mut queries = 0usize;
    for m in subjects::all_subjects() {
        let tp = m.compile();
        let func = m.func(&tp);
        let sig = FuncSig::of(func);
        let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
        // One shared cache per subject, warmed as we go: later queries
        // exercise the hit path, earlier ones the miss path.
        let cache = SolverCache::new();
        for run in &suite.runs {
            let preds: Vec<Pred> = run.path.entries.iter().map(|e| e.pred.clone()).collect();
            for n in 1..=preds.len() {
                let prefix = &preds[..n];
                let cached = solve_preds_with(prefix, &sig, &solver_cfg, Some(&cache)).0;
                let uncached = solve_preds(prefix, &sig, &solver_cfg);
                assert_eq!(
                    cached, uncached,
                    "subject {}::{} diverges on prefix {:?}",
                    m.namespace, m.name, prefix
                );
                queries += 1;
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "prefix chains never re-hit the cache: {stats:?}");
    }
    assert!(queries > 100, "corpus produced only {queries} queries");
}

/// Differential, pipeline level: over the whole corpus, the inferred ψ
/// (and everything else observable about the inference) renders the ψ
/// golden with the cache off.
#[test]
fn inferred_psi_identical_with_cache_on_and_off() {
    common::assert_rows_render_psi_golden(&["cache off"]);
}

/// Determinism: pruning on 8 jobs over a shared cache renders the ψ golden
/// over the whole corpus: same ACLs in the same order, same disjunct
/// order, same rendered formulas.
#[test]
fn jobs_1_and_jobs_8_produce_identical_inference() {
    common::assert_rows_render_psi_golden(&["jobs 8, shared cache"]);
}
