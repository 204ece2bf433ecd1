//! Interprocedural inference: callee ψ-summaries instead of inlining.
//!
//! Given an entry method, the builder walks the program's [`CallGraph`]
//! bottom-up (reverse topological over SCCs), runs the intraprocedural
//! PreInfer pipeline once per reachable callee, and stores each callee's
//! per-check ψ — renamed to the canonical positional parameters
//! `%0, %1, …` — in a [`SummaryTable`] keyed by the α-canonical rendering
//! of the callee *and its transitive callees* (so a table shared across
//! programs hits exactly when the callee closure is α-equivalent). The
//! resolved per-program view ([`ResolvedSummaries`]) is what the concolic
//! executor consumes to apply `ψ(actuals)` / `¬ψ(actuals)` at call sites.
//!
//! Recursive callees (self-loops or SCCs of size > 1) are never
//! summarized: calls to them inline as before, with a typed
//! [`FallbackReason`] surfaced in the build report.

use crate::pipeline::SummaryBuildConfig;
use concolic::ResolvedSummaries;
use minilang::{canonical_func_string, check_sites, CallGraph, CheckId, TypedProgram};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use symbolic::{rename_formula, Formula};

/// Why a reachable callee was left to inline instead of being summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The callee is self-recursive or sits in a call-graph SCC with other
    /// functions: its path space cannot be collapsed bottom-up.
    Recursive,
    /// Inference produced nothing storable: no check ever failed under the
    /// generated suite, or every inferred ψ was quantified (quantified
    /// formulas do not survive actual-substitution at call sites).
    NoUsableSummary,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FallbackReason::Recursive => "recursive",
            FallbackReason::NoUsableSummary => "no-usable-summary",
        })
    }
}

/// One function's stored summaries: ψ per check site, keyed by the check's
/// *position* in the callee's closure site order ([`closure_sites`]: own
/// sites first, then each reachable callee's, in lexicographic name order —
/// stable across α-equivalent copies of the closure, unlike node ids), in
/// the canonical `%i` parameter naming. Checks living in transitive callees
/// are included: a caller's ψ guards everything reachable from it.
#[derive(Debug, Clone, Default)]
pub struct StoredFuncSummary {
    pub checks: HashMap<usize, Formula>,
}

impl StoredFuncSummary {
    /// Whether inference produced no storable check summary.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }
}

/// A process-lifetime table of callee summaries, shared across methods,
/// worker threads, and (in the daemon) requests. Keys are the α-canonical
/// closure renderings themselves — see [`closure_key`] — so two programs
/// whose callee closures differ only in identifier naming share entries,
/// and two closures that differ never do (a hash of the rendering could
/// collide and hand one callee another's ψ).
#[derive(Debug, Default)]
pub struct SummaryTable {
    entries: Mutex<HashMap<String, StoredFuncSummary>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl SummaryTable {
    pub fn new() -> SummaryTable {
        SummaryTable::default()
    }

    /// Looks up a callee by closure key, counting a hit or miss.
    pub fn lookup(&self, key: &str) -> Option<StoredFuncSummary> {
        let found = self.entries.lock().unwrap().get(key).cloned();
        match found {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a callee's summary (empty summaries are stored too — they
    /// cache the negative result so α-equivalent callees are not
    /// re-inferred).
    pub fn insert(&self, key: String, summary: StoredFuncSummary) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().unwrap().insert(key, summary);
    }

    /// Number of stored callees.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Inserts so far.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }
}

/// The outcome of one bottom-up build: the per-program resolved view plus
/// a report of which callees were summarized and which fell back.
#[derive(Debug)]
pub struct SummaryBuild {
    /// Per-program summaries for the executor ([`concolic::ConcolicConfig`]'s
    /// `summaries` slot).
    pub resolved: Arc<ResolvedSummaries>,
    /// Callees with at least one stored check summary, bottom-up order.
    pub summarized: Vec<String>,
    /// Callees left to inline, with the typed reason.
    pub fallbacks: Vec<(String, FallbackReason)>,
    /// Table hits observed by this build (α-equivalent closure reuse).
    pub table_hits: u64,
}

/// The α-canonical closure key for `name`: the canonical rendering of the
/// function followed by the canonical renderings of every function
/// reachable from it, in lexicographic name order. Two callees share a key
/// exactly when their whole reachable closure is α-equivalent modulo
/// parameter naming, which is what makes a stored summary safe to reuse.
pub fn closure_key(program: &TypedProgram, cg: &CallGraph, name: &str) -> Option<String> {
    let func = program.func(name)?;
    let mut rendering = canonical_func_string(func);
    let mut reachable = cg.bottom_up_from(name);
    reachable.retain(|f| f != name);
    reachable.sort();
    for f in reachable {
        let callee = program.func(&f)?;
        rendering.push('\n');
        rendering.push_str(&canonical_func_string(callee));
    }
    Some(rendering)
}

/// The check sites visible through `name`, in the same deterministic order
/// the closure key renders functions: `name`'s own sites first, then the
/// sites of each reachable function in lexicographic name order. Positions
/// in this list are the [`StoredFuncSummary`] keys — any two callees with
/// equal closure keys have identical closure site shapes, so a position
/// stored under one resolves correctly under the other.
pub fn closure_sites(
    program: &TypedProgram,
    cg: &CallGraph,
    name: &str,
) -> Vec<minilang::CheckSite> {
    let Some(func) = program.func(name) else { return Vec::new() };
    let mut sites = check_sites(func);
    let mut reachable = cg.bottom_up_from(name);
    reachable.retain(|f| f != name);
    reachable.sort();
    for f in reachable {
        if let Some(callee) = program.func(&f) {
            sites.extend(check_sites(callee));
        }
    }
    sites
}

/// Builds ψ-summaries for every non-recursive callee reachable from
/// `entry`, bottom-up, reusing `table` entries where the closure key hits.
/// Callees deeper in the graph are summarized first, and each callee's own
/// inference already runs in summary mode over the summaries built so far —
/// the composition the paper's inlining avoids by construction.
pub fn build_summaries(
    program: &TypedProgram,
    entry: &str,
    table: &SummaryTable,
    cfg: &SummaryBuildConfig,
) -> SummaryBuild {
    let cg = CallGraph::of(program.program());
    let order = cg.bottom_up_from(entry);
    let hits_before = table.hits();

    let mut by_func: HashMap<String, HashMap<CheckId, Formula>> = HashMap::new();
    let mut summarized = Vec::new();
    let mut fallbacks = Vec::new();

    for name in order {
        if cg.is_recursive(&name) {
            fallbacks.push((name, FallbackReason::Recursive));
            continue;
        }
        let Some(key) = closure_key(program, &cg, &name) else { continue };
        let stored = match table.lookup(&key) {
            Some(stored) => {
                if let Some(sink) = obs::recording_sink(&cfg.testgen.trace) {
                    sink.event(
                        "summary_hit",
                        &[
                            ("func", obs::Val::S(&name)),
                            ("checks", obs::Val::U(stored.checks.len() as u64)),
                        ],
                    );
                }
                stored
            }
            None => {
                let stored = infer_func_summary(program, &cg, &name, &by_func, cfg);
                // A summary built past the deadline may be partial: it
                // serves this run but never a later one.
                if !cfg.prune.solver.deadline.expired() {
                    table.insert(key, stored.clone());
                }
                stored
            }
        };
        if stored.is_empty() {
            fallbacks.push((name, FallbackReason::NoUsableSummary));
            continue;
        }
        // Resolve stored positional indices back to this program's ids.
        let sites = closure_sites(program, &cg, &name);
        let resolved: HashMap<CheckId, Formula> = stored
            .checks
            .iter()
            .filter_map(|(&idx, psi)| sites.get(idx).map(|s| (s.id, psi.clone())))
            .collect();
        if resolved.is_empty() {
            fallbacks.push((name, FallbackReason::NoUsableSummary));
            continue;
        }
        by_func.insert(name.clone(), resolved);
        summarized.push(name);
    }

    let resolved = Arc::new(ResolvedSummaries { by_func, stats: cfg.stats.clone() });
    SummaryBuild { resolved, summarized, fallbacks, table_hits: table.hits() - hits_before }
}

/// Runs the intraprocedural pipeline on one callee and converts the
/// inferred ψ per triggered check into stored (positional, `%i`-renamed)
/// form. Quantified ψ are skipped: the call-site decomposition cannot
/// evaluate them soundly against substituted actuals.
fn infer_func_summary(
    program: &TypedProgram,
    cg: &CallGraph,
    name: &str,
    built_so_far: &HashMap<String, HashMap<CheckId, Formula>>,
    cfg: &SummaryBuildConfig,
) -> StoredFuncSummary {
    let func = program.func(name).expect("callee exists");
    // Nested calls inside this callee use the summaries already built for
    // deeper functions (bottom-up composition).
    let nested =
        Arc::new(ResolvedSummaries { by_func: built_so_far.clone(), stats: Default::default() });
    let (_, inferences) = cfg.infer(program, name, Some(nested));

    let sites = closure_sites(program, cg, name);
    let renames: Vec<(String, String)> =
        func.params.iter().enumerate().map(|(i, p)| (p.name.clone(), format!("%{i}"))).collect();
    let mut checks = HashMap::new();
    for (acl, inf) in inferences {
        if inf.precondition.quantified {
            continue;
        }
        let Some(idx) = sites.iter().position(|s| s.id == acl) else { continue };
        checks.insert(idx, rename_formula(&inf.precondition.psi, &renames));
    }
    StoredFuncSummary { checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELPER: &str = "
        fn half(d int) -> int { return 100 / d; }
        fn main(x int) -> int { return half(x - 1); }";

    #[test]
    fn builds_summary_for_simple_callee() {
        let tp = minilang::compile(HELPER).unwrap();
        let table = SummaryTable::new();
        let build = build_summaries(&tp, "main", &table, &SummaryBuildConfig::default());
        assert_eq!(build.summarized, vec!["half".to_string()]);
        assert!(build.fallbacks.is_empty());
        assert_eq!(table.inserts(), 1);
        let psi = build.resolved.by_func["half"].values().next().unwrap().to_string();
        // ψ over the canonical parameter: the divisor must be nonzero.
        assert!(psi.contains("%0"), "psi not canonical: {psi}");
    }

    #[test]
    fn alpha_equivalent_callee_hits_the_table() {
        let renamed = "
            fn half(divisor int) -> int { return 100 / divisor; }
            fn main(y int) -> int { return half(y - 1); }";
        let table = SummaryTable::new();
        let a = build_summaries(
            &minilang::compile(HELPER).unwrap(),
            "main",
            &table,
            &SummaryBuildConfig::default(),
        );
        assert_eq!(a.table_hits, 0);
        let b = build_summaries(
            &minilang::compile(renamed).unwrap(),
            "main",
            &table,
            &SummaryBuildConfig::default(),
        );
        assert_eq!(b.table_hits, 1, "α-equivalent closure should hit");
        assert_eq!(table.inserts(), 1, "no re-inference");
        assert_eq!(
            a.resolved.by_func["half"].values().next().unwrap(),
            b.resolved.by_func["half"].values().next().unwrap()
        );
    }

    #[test]
    fn distinct_renderings_never_share_an_entry() {
        let table = SummaryTable::new();
        let stored = |psi: Formula| StoredFuncSummary { checks: HashMap::from([(0, psi)]) };
        let (a, b) = ("fn f(%0 int) -> int { return 1; }", "fn f(%0 int) -> int { return 2; }");
        table.insert(a.to_string(), stored(Formula::t()));
        assert!(table.lookup(b).is_none(), "a different rendering resolved to another's entry");
        table.insert(b.to_string(), stored(Formula::f()));
        assert_eq!(table.lookup(a).unwrap().checks[&0], Formula::t());
        assert_eq!(table.lookup(b).unwrap().checks[&0], Formula::f());
        assert_eq!((table.len(), table.hits(), table.misses()), (2, 2, 1));
    }

    #[test]
    fn summary_built_past_the_deadline_is_not_stored() {
        let tp = minilang::compile(HELPER).unwrap();
        let table = SummaryTable::new();
        let expired = SummaryBuildConfig::new(
            testgen::TestGenConfig::default(),
            None,
            solver::Deadline::after_ms(0),
            None,
            Default::default(),
            Default::default(),
        );
        build_summaries(&tp, "main", &table, &expired);
        assert_eq!(table.inserts(), 0, "a summary built past the deadline was stored");
        // A later deadline-free build infers the callee afresh.
        let later = build_summaries(&tp, "main", &table, &SummaryBuildConfig::default());
        let fresh =
            build_summaries(&tp, "main", &SummaryTable::new(), &SummaryBuildConfig::default());
        assert_eq!(later.table_hits, 0);
        assert_eq!(later.summarized, fresh.summarized);
        assert_eq!(later.resolved.by_func, fresh.resolved.by_func);
    }

    #[test]
    fn recursive_callee_falls_back_typed() {
        let src = "
            fn down(n int) -> int {
                if (n <= 0) { return 0; }
                return down(n - 1);
            }
            fn main(n int) -> int { return down(n); }";
        let tp = minilang::compile(src).unwrap();
        let table = SummaryTable::new();
        let build = build_summaries(&tp, "main", &table, &SummaryBuildConfig::default());
        assert!(build.summarized.is_empty());
        assert_eq!(build.fallbacks, vec![("down".to_string(), FallbackReason::Recursive)]);
        assert_eq!(table.inserts(), 0, "recursive callees are never stored");
    }

    #[test]
    fn checkless_callee_reports_no_usable_summary() {
        let src = "
            fn bump(x int) -> int { return x + 1; }
            fn main(x int) -> int { return bump(x); }";
        let tp = minilang::compile(src).unwrap();
        let table = SummaryTable::new();
        let build = build_summaries(&tp, "main", &table, &SummaryBuildConfig::default());
        assert!(build.summarized.is_empty());
        assert_eq!(build.fallbacks, vec![("bump".to_string(), FallbackReason::NoUsableSummary)]);
        // The negative result is cached: a second build hits.
        let again = build_summaries(&tp, "main", &table, &SummaryBuildConfig::default());
        assert_eq!(again.table_hits, 1);
    }

    #[test]
    fn bottom_up_chain_summarizes_both_levels() {
        let src = "
            fn leaf(d int) -> int { return 10 / d; }
            fn mid(a int) -> int { return leaf(a) + 1; }
            fn main(x int) -> int { return mid(x); }";
        let tp = minilang::compile(src).unwrap();
        let table = SummaryTable::new();
        let build = build_summaries(&tp, "main", &table, &SummaryBuildConfig::default());
        assert_eq!(build.summarized, vec!["leaf".to_string(), "mid".to_string()]);
        // mid's ψ must guard leaf's division through the summary chain.
        let psi = build.resolved.by_func["mid"].values().next().unwrap().to_string();
        assert!(psi.contains("%0"), "mid psi not canonical: {psi}");
    }
}
