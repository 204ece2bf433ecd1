//! Incremental prefix-sharing solving: one warm constraint stack per
//! group of queries that share a prefix.
//!
//! Algorithm 1 of the paper (and the branch-flipping test generator) issue
//! solver calls over *prefixes of the same path condition*: `prefix ∧ ¬φ_j`
//! for one `j` after another. Solving each call from scratch would
//! re-canonicalize and re-build the whole prefix — Θ(n²) predicate
//! canonicalizations per path. An [`IncrementalSession`] instead keeps the
//! stack alive between calls: predicates are *pushed* once (canonicalized
//! once, applied to a warm [`Builder`] once) and *popped* back to any
//! prefix mark by rewinding a mutation trail, so each query pays only for
//! the predicates that changed. Pruning and test generation always solve
//! through sessions.
//!
//! # Equivalence contract
//!
//! A session runs the same solve pipeline as the scratch reference
//! [`crate::solve_preds_with`] (see [`crate::theory`]); only the canonical
//! form's upkeep and the bottom tier's builder differ. It must be
//! observationally identical to that reference — same verdicts, same
//! models, same cache entries, same tier attribution — which the solver
//! tests and the corpus replay test check:
//!
//! - **Order independence.** The warm builder receives predicates in push
//!   order while the scratch builder receives them in canonical (sorted)
//!   order; [`Builder::solve_current`] normalizes before searching, so both
//!   run the identical search (see `builder.rs` module docs).
//! - **Deduplication.** The session maintains the multiset of canonical
//!   conjuncts; the builder sees each distinct conjunct exactly once (on
//!   the push that takes its refcount to one), matching the scratch path's
//!   sort + dedup. The sorted, duplicate-free view is also what the
//!   interval tier scans and what the cache key is assembled from — the
//!   same [`crate::CacheKey`] the scratch path computes.
//! - **Cache interplay.** Hits bypass the warm builder entirely; misses
//!   solve warm and store the same pure canonical verdict the scratch path
//!   would have stored.
//! - **Laziness.** Builder application is deferred until a query actually
//!   escalates to the simplex tier, so sessions whose queries are all
//!   answered by the cache or the cheap tiers never build anything.
//! - **Poisoning.** If applying a pushed conjunct is immediately UNSAT
//!   (conflicting bool/null decisions), the builder is rewound to just
//!   before the offending frame and the session marks the frame poisoned:
//!   every deeper query is UNSAT (its conjunct set contains the conflict),
//!   which is exactly what the scratch build would conclude. Popping the
//!   frame clears the poison.

use crate::builder::{Builder, BuilderMark};
use crate::cache::{CacheLookup, SolverCache};
use crate::canon::{CanonQuery, Renaming};
use crate::theory::{solve_query, FuncSig, SolveResult, SolverConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use symbolic::linform::{CPred, CanonPred};
use symbolic::pred::Pred;

/// Shared counters describing incremental-session activity. Observation
/// only — never part of any cache key and never consulted by the solve
/// path. Install one `Arc` in every [`SolverConfig`] that should report
/// into the same numbers (the CLI footer, the daemon's
/// `preinfer_solver_incremental_*` metrics family).
#[derive(Debug, Default)]
pub struct IncrementalCounters {
    sessions: AtomicU64,
    queries: AtomicU64,
    pushes: AtomicU64,
    pops: AtomicU64,
    reused_depth: AtomicU64,
}

impl IncrementalCounters {
    fn count_session(&self) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
    }

    fn count_query(&self, reused_depth: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.reused_depth.fetch_add(reused_depth, Ordering::Relaxed);
    }

    fn count_push(&self) {
        self.pushes.fetch_add(1, Ordering::Relaxed);
    }

    fn count_pop(&self) {
        self.pops.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot of the counters.
    pub fn snapshot(&self) -> IncrementalSnapshot {
        IncrementalSnapshot {
            sessions: self.sessions.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            pushes: self.pushes.load(Ordering::Relaxed),
            pops: self.pops.load(Ordering::Relaxed),
            reused_depth_sum: self.reused_depth.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.sessions.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.pushes.store(0, Ordering::Relaxed);
        self.pops.store(0, Ordering::Relaxed);
        self.reused_depth.store(0, Ordering::Relaxed);
    }
}

/// [`IncrementalCounters`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalSnapshot {
    /// Sessions opened.
    pub sessions: u64,
    /// Queries answered through a session.
    pub queries: u64,
    /// Predicates pushed.
    pub pushes: u64,
    /// `pop_to` calls that actually rewound the stack.
    pub pops: u64,
    /// Total stacked predicates reused across queries (each query reuses
    /// the frames that survived since the previous query in its session).
    pub reused_depth_sum: u64,
}

impl IncrementalSnapshot {
    /// Mean number of stacked predicates reused per query.
    pub fn avg_reused_depth(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.reused_depth_sum as f64 / self.queries as f64
        }
    }
}

/// One pushed predicate's canonical contribution.
struct Frame {
    /// Its canonical form under the session's α-renaming (interned).
    canon: CPred,
    /// Whether it participates in the multiset (everything except the
    /// trivial truth, which canonicalization drops).
    counted: bool,
    /// Whether this push took the conjunct's refcount to one — only such
    /// frames are applied to the warm builder (deduplication).
    inserted: bool,
}

/// A warm simplex-tier builder, lazily fed the session's frames.
struct WarmBuilder {
    builder: Builder,
    /// How many frames have been applied to `builder`.
    applied: usize,
    /// `marks[i]` is the builder state just before frame `i` was applied
    /// (maintained for `i < applied`).
    marks: Vec<BuilderMark>,
    /// Index of a frame whose application was immediately UNSAT; set with
    /// `applied` parked just below it, cleared when the frame is popped.
    poisoned_at: Option<usize>,
}

impl WarmBuilder {
    /// Rewinds past every applied frame at or above `mark`.
    fn pop_to(&mut self, mark: usize) {
        if self.applied > mark {
            self.builder.undo_to(&self.marks[mark]);
            self.marks.truncate(mark);
            self.applied = mark;
        }
        if self.poisoned_at.is_some_and(|p| p >= mark) {
            self.poisoned_at = None;
        }
    }

    /// The session's bottom tier: advances the builder to the top of
    /// `frames` and solves. An immediately-UNSAT frame rewinds its partial
    /// mutations and poisons the session at that depth; while a poisoned
    /// frame is on the stack every query is UNSAT.
    fn solve(&mut self, frames: &[Frame], sig: &FuncSig, cfg: &SolverConfig) -> SolveResult {
        if self.poisoned_at.is_some_and(|i| i < frames.len()) {
            return SolveResult::Unsat;
        }
        while self.applied < frames.len() {
            let i = self.applied;
            let mark = self.builder.mark();
            if frames[i].inserted && self.builder.add_canon(frames[i].canon).is_err() {
                self.builder.undo_to(&mark);
                self.poisoned_at = Some(i);
                return SolveResult::Unsat;
            }
            self.marks.push(mark);
            self.applied += 1;
        }
        self.builder.solve_current(sig, cfg)
    }
}

/// A warm, reusable solver stack for queries sharing a prefix.
///
/// Created per failing path (pruning) or per flip sequence (test
/// generation). Drive it with [`push`](Self::push) /
/// [`pop_to`](Self::pop_to) / [`solve`](Self::solve), or let
/// [`solve_preds`](Self::solve_preds) diff a whole predicate list against
/// the current stack. Answers are byte-identical to
/// [`crate::solve_preds_with`] on the same predicates, configuration, and
/// cache — see the module docs for why.
pub struct IncrementalSession {
    /// Canonical form of every predicate this session has pushed: a
    /// predicate pushed again (a flip or pruning sweep re-pushing a prefix
    /// it popped) skips renaming and canonicalization.
    canon_memo: HashMap<Pred, CPred>,
    cfg: SolverConfig,
    cache: Option<Arc<SolverCache>>,
    /// The caller's predicates in push order, retained for model
    /// re-validation and for longest-common-prefix diffing in
    /// [`IncrementalSession::solve_preds`].
    preds: Vec<Pred>,
    /// What each of `preds` contributed (parallel to `preds`).
    frames: Vec<Frame>,
    /// The canonical query the scratch path would build for `preds`: its
    /// sorted, duplicate-free conjunct list is maintained as a multiset
    /// view of the stacked frames, scanned by the interval tier and cloned
    /// into cache keys.
    query: CanonQuery,
    /// `refcounts[i]` is how many stacked frames contribute
    /// `query.preds[i]` (parallel to it).
    refcounts: Vec<usize>,
    warm: WarmBuilder,
    /// Frames that have survived since the previous `solve` (the reuse the
    /// `reused_depth` metric reports).
    stable_depth: usize,
    counters: Arc<IncrementalCounters>,
}

impl IncrementalSession {
    /// Opens a session for queries typed by `sig`, solved under `cfg`,
    /// optionally fronted by `cache`.
    pub fn new(
        sig: &FuncSig,
        cfg: &SolverConfig,
        cache: Option<Arc<SolverCache>>,
    ) -> IncrementalSession {
        let counters = cfg.incremental_stats.clone();
        counters.count_session();
        IncrementalSession {
            canon_memo: HashMap::new(),
            cfg: cfg.clone(),
            cache,
            preds: Vec::new(),
            frames: Vec::new(),
            query: CanonQuery { preds: Vec::new(), renaming: Renaming::of(sig) },
            refcounts: Vec::new(),
            warm: WarmBuilder {
                builder: Builder::new(true),
                applied: 0,
                marks: Vec::new(),
                poisoned_at: None,
            },
            stable_depth: 0,
            counters,
        }
    }

    /// Current stack depth (number of pushed predicates).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// A mark to [`pop_to`](Self::pop_to) later; simply the current depth.
    pub fn mark(&self) -> usize {
        self.frames.len()
    }

    /// Pushes one predicate onto the stack. Cost: one canonicalization the
    /// first time the session sees `pred` (a memo probe after that) and one
    /// sorted insert; the warm builder is only touched when a later query
    /// escalates to the simplex tier.
    pub fn push(&mut self, pred: &Pred) {
        self.counters.count_push();
        let canon = match self.canon_memo.get(pred) {
            Some(&canon) => canon,
            None => {
                let canon = self.query.renaming.canon_one(pred);
                self.canon_memo.insert(pred.clone(), canon);
                canon
            }
        };
        let counted = *canon.node() != CanonPred::Const(true);
        let mut inserted = false;
        if counted {
            let sorted = &mut self.query.preds;
            match sorted.binary_search(&canon) {
                Ok(pos) => self.refcounts[pos] += 1,
                Err(pos) => {
                    sorted.insert(pos, canon);
                    self.refcounts.insert(pos, 1);
                    inserted = true;
                }
            }
        }
        self.preds.push(pred.clone());
        self.frames.push(Frame { canon, counted, inserted });
    }

    /// Pops back to a prefix `mark`, rewinding the warm builder's trail
    /// past every frame it had applied above the mark.
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds the current depth.
    pub fn pop_to(&mut self, mark: usize) {
        assert!(mark <= self.frames.len(), "pop_to past the top of the stack");
        if mark == self.frames.len() {
            return;
        }
        self.counters.count_pop();
        self.warm.pop_to(mark);
        self.preds.truncate(mark);
        let sorted = &mut self.query.preds;
        for f in self.frames.drain(mark..).rev() {
            if f.counted {
                let pos = sorted.binary_search(&f.canon).expect("conjunct in sorted view");
                self.refcounts[pos] -= 1;
                if self.refcounts[pos] == 0 {
                    sorted.remove(pos);
                    self.refcounts.remove(pos);
                }
            }
        }
        self.stable_depth = self.stable_depth.min(mark);
    }

    /// Diffs `preds` against the current stack (longest common prefix,
    /// comparing the caller's original predicates), pops and pushes the
    /// difference, and solves. This is the whole-list convenience the
    /// pruning and test-generation loops call.
    pub fn solve_preds(&mut self, preds: &[Pred]) -> (SolveResult, CacheLookup) {
        let lcp = self.preds.iter().zip(preds).take_while(|(a, b)| a == b).count();
        self.pop_to(lcp);
        for p in &preds[lcp..] {
            self.push(p);
        }
        self.solve()
    }

    /// Solves the conjunction currently on the stack through the shared
    /// solve pipeline ([`crate::theory`]), with the warm builder as the
    /// bottom tier.
    pub fn solve(&mut self) -> (SolveResult, CacheLookup) {
        let reused = self.stable_depth.min(self.frames.len()) as u64;
        self.counters.count_query(reused);
        self.stable_depth = self.frames.len();
        let (warm, frames, cfg) = (&mut self.warm, &self.frames, &self.cfg);
        solve_query(
            cfg,
            self.cache.as_deref(),
            &self.preds,
            Some(reused),
            || &self.query,
            |q| warm.solve(frames, q.canon_sig(), cfg),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::solve_preds_with;
    use minilang::Ty;
    use symbolic::pred::CmpOp;
    use symbolic::term::Term;

    fn sig() -> FuncSig {
        FuncSig::from_pairs([("x", Ty::Int), ("y", Ty::Int), ("b", Ty::Bool)])
    }

    fn cmp(op: CmpOp, a: Term, b: Term) -> Pred {
        Pred::cmp(op, a, b)
    }

    fn x() -> Term {
        Term::var("x")
    }

    fn y() -> Term {
        Term::var("y")
    }

    /// Every prefix of a stack answers identically to a scratch solve.
    #[test]
    fn prefixes_match_scratch() {
        let cfg = SolverConfig::default();
        let preds = [
            cmp(CmpOp::Gt, x(), Term::int(0)),
            cmp(CmpOp::Lt, y(), Term::int(5)),
            cmp(CmpOp::Gt, Term::add(x(), y()), Term::int(3)),
            cmp(CmpOp::Le, x(), Term::int(0)), // contradicts the first
        ];
        let mut session = IncrementalSession::new(&sig(), &cfg, None);
        for depth in 0..=preds.len() {
            let stack = &preds[..depth];
            let (warm, _) = session.solve_preds(stack);
            let (scratch, _) = solve_preds_with(stack, &sig(), &cfg, None);
            assert_eq!(warm, scratch, "depth {depth}");
        }
    }

    /// Popping below a poisoned frame clears the poison and later pushes
    /// solve correctly against the rewound builder.
    #[test]
    fn pop_clears_conflicts() {
        let cfg = SolverConfig::default();
        let mut session = IncrementalSession::new(&sig(), &cfg, None);
        session.push(&Pred::BoolVar { name: "b".into(), positive: true });
        let mark = session.mark();
        session.push(&Pred::BoolVar { name: "b".into(), positive: false });
        assert_eq!(session.solve().0, SolveResult::Unsat);
        session.pop_to(mark);
        session.push(&cmp(CmpOp::Gt, y(), Term::int(2)));
        let (result, _) = session.solve();
        assert!(matches!(result, SolveResult::Sat(_)), "got {result:?}");
    }

    /// Session misses populate the cache with entries scratch hits on, and
    /// vice versa — one canonical key space.
    #[test]
    fn shares_cache_entries_with_scratch() {
        let cfg = SolverConfig::default();
        let cache = Arc::new(SolverCache::new());
        let preds = vec![cmp(CmpOp::Gt, x(), Term::int(1)), cmp(CmpOp::Lt, y(), Term::int(4))];
        let mut session = IncrementalSession::new(&sig(), &cfg, Some(cache.clone()));
        let (warm, first) = session.solve_preds(&preds);
        assert_eq!(first, CacheLookup::Miss);
        let (scratch, second) = solve_preds_with(&preds, &sig(), &cfg, Some(&cache));
        assert_eq!(second, CacheLookup::Hit, "scratch must hit the session's entry");
        assert_eq!(warm, scratch);
    }
}
