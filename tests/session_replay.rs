//! The session contract of the solver core, replayed on the corpus's own
//! queries: a warm [`IncrementalSession`] answers every query exactly as
//! the scratch reference `solve_preds_with` does.
//!
//! Pruning and test generation always solve through sessions, so this
//! test rebuilds the query sequences they issue from each corpus method's
//! generated suite (plus the motivating example):
//!
//! - **Pruning sweeps**: for every failing path `e_0 … e_{n-1}`, the
//!   queries `e_0 ∧ … ∧ e_{j-1} ∧ ¬e_j` for `j = n-1` down to `0`, one
//!   session per path (as Algorithm 1 opens one per failing path).
//! - **Flip queries**: for every path and every branch entry `e_j`, the
//!   query `e_0 ∧ … ∧ e_{j-1} ∧ ¬e_j` (below the generator's depth cap),
//!   all through one session per method (as the generator's flip loop
//!   does).
//!
//! Each query is answered by the session and by the scratch reference,
//! under the tiered and simplex-only backends with a fresh cache per arm
//! or none. The verdict, the model and the [`CacheLookup`] must be equal
//! query by query, and both arms must attribute the same answers to the
//! same tiers. End-to-end ψ across backend × cache is the job of the rows
//! of `tests/common/`.

mod common;

use preinfer::prelude::*;
use solver::{solve_preds_with, CacheLookup};
use std::collections::HashSet;
use std::sync::Arc;

/// One session's worth of queries.
type Sweep = Vec<Vec<Pred>>;

/// `entries[..j] ∧ ¬entries[j]` for one path.
fn prefix_neg(entries: &[symbolic::PathEntry], j: usize) -> Vec<Pred> {
    let mut preds: Vec<Pred> = entries[..j].iter().map(|e| e.pred.clone()).collect();
    preds.push(entries[j].pred.negated());
    preds
}

/// The pruning sweeps and the flip sweep one method's suite gives rise to.
/// Paths and flip queries that repeat an earlier one are replayed once, and
/// flips stop at the generator's depth cap.
fn method_sweeps(m: &subjects::SubjectMethod) -> (FuncSig, Vec<Sweep>) {
    let tp = m.compile();
    let sig = FuncSig::of(m.func(&tp));
    let tg = TestGenConfig::default();
    let suite = generate_tests(&tp, m.name, &tg);
    let mut seen_paths = HashSet::new();
    let mut sweeps: Vec<Sweep> = suite
        .runs
        .iter()
        .filter(|r| {
            let preds: Vec<&Pred> = r.path.entries.iter().map(|e| &e.pred).collect();
            r.failed() && seen_paths.insert(preds)
        })
        .map(|r| (0..r.path.entries.len()).rev().map(|j| prefix_neg(&r.path.entries, j)).collect())
        .collect();
    let mut seen_flips = HashSet::new();
    let flips = suite
        .runs
        .iter()
        .flat_map(|r| {
            let entries = &r.path.entries;
            (0..entries.len().min(testgen::generate::MAX_FLIP_DEPTH))
                .filter(|&j| entries[j].kind.is_branch())
                .map(|j| prefix_neg(entries, j))
        })
        .filter(|q| seen_flips.insert(q.clone()))
        .collect();
    sweeps.push(flips);
    (sig, sweeps)
}

#[test]
fn warm_sessions_answer_like_the_scratch_reference_on_corpus_queries() {
    let corpus: Vec<(String, FuncSig, Vec<Sweep>)> = common::corpus()
        .iter()
        .map(|m| {
            let (sig, sweeps) = method_sweeps(m);
            (format!("{}::{}", m.namespace, m.name), sig, sweeps)
        })
        .collect();
    let (mut queries, mut hits, mut sat, mut unsat) = (0usize, 0usize, 0usize, 0usize);
    for backend in [BackendKind::Tiered, BackendKind::Simplex] {
        for use_cache in [true, false] {
            for (name, sig, sweeps) in &corpus {
                let warm_cfg = SolverConfig { backend, ..SolverConfig::default() };
                let ref_cfg = SolverConfig { backend, ..SolverConfig::default() };
                let warm_cache = use_cache.then(|| Arc::new(SolverCache::new()));
                let ref_cache = use_cache.then(SolverCache::new);
                for sweep in sweeps {
                    let mut session = IncrementalSession::new(sig, &warm_cfg, warm_cache.clone());
                    for (k, q) in sweep.iter().enumerate() {
                        let warm = session.solve_preds(q);
                        let reference = solve_preds_with(q, sig, &ref_cfg, ref_cache.as_ref());
                        assert_eq!(
                            warm, reference,
                            "{name}: query {k} of a sweep (backend {backend:?}, cache {use_cache}) \
                             diverged from the scratch reference"
                        );
                        queries += 1;
                        hits += usize::from(warm.1 == CacheLookup::Hit);
                        match warm.0 {
                            SolveResult::Sat(_) => sat += 1,
                            SolveResult::Unsat => unsat += 1,
                            SolveResult::Unknown => {}
                        }
                    }
                }
                assert_eq!(
                    warm_cfg.tiers.snapshot(),
                    ref_cfg.tiers.snapshot(),
                    "{name}: tier attribution differs (backend {backend:?}, cache {use_cache})"
                );
            }
        }
    }
    assert!(
        queries > 10_000 && hits > 1_000 && sat > 1_000 && unsat > 1_000,
        "replay is near-vacuous: {queries} queries, {hits} hits, {sat} sat, {unsat} unsat"
    );
}
