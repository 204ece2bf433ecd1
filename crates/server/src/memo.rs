//! The ψ-level response memo: a shard-local cache of *completed* inference
//! outcomes, keyed by the canonical method.
//!
//! The solver cache (PR 1) memoizes individual canonical solver verdicts;
//! a warm repeat of the same method still re-runs compilation, test
//! generation, and pruning around those hits (~200 µs of CPU per request).
//! The memo closes that gap for the serving layer: once a method's
//! inference has *completed* (never a `timed_out` partial), the rendered
//! outcome is stored under the method's canonical α-renamed source
//! ([`crate::routing::canonical_method`]) and later requests for the same
//! canonical method are answered without touching the worker pool at all —
//! the connection core serves hits inline on its run loop. Combined with the
//! router's key-affinity sharding (which hashes the same canonical text),
//! this is the "partitioned global ψ cache": every caller of a method
//! lands on the one shard that already holds its ψ.
//!
//! Purity contract: an entry is a pure function of `(canonical method,
//! tests override)` — the stored ψ came from a real completed run, and the
//! determinism tests prove outcomes are independent of `jobs` — so a memo
//! hit is byte-identical in every ψ/α field to a fresh inference. Entries
//! are never invalidated, only evicted FIFO at capacity. The memo is
//! opt-in (`preinferd --memo on`): with it off, every request exercises
//! the full pipeline (which the corpus differential tests rely on to
//! observe solver-cache hit rates).

use crate::service::InferOutcome;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The memo key: the canonical α-renamed method text plus the request
/// knobs that change the outcome. `jobs` is excluded (determinism-tested
/// to not affect results); `deadline_ms` is excluded because only
/// deadline-clean completed outcomes are ever stored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Canonical method rendering (`routing::canonical_method`).
    pub canon: String,
    /// `tests` override carried by the request (`None` = default).
    pub tests: Option<usize>,
}

/// One stored completed outcome.
#[derive(Debug)]
pub struct MemoEntry {
    pub outcome: InferOutcome,
}

#[derive(Debug, Default)]
struct MemoCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time memo statistics (the `stats` verb's `response_memo`
/// block and the `preinfer_response_memo_*` metrics family).
#[derive(Debug, Clone, Copy)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    pub entries: u64,
}

impl MemoStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bounded FIFO-evicting memo table.
#[derive(Debug)]
pub struct ResponseMemo {
    inner: Mutex<MemoInner>,
    counters: MemoCounters,
    capacity: usize,
}

#[derive(Debug, Default)]
struct MemoInner {
    map: HashMap<MemoKey, Arc<MemoEntry>>,
    order: VecDeque<MemoKey>,
}

impl ResponseMemo {
    pub fn new(capacity: usize) -> ResponseMemo {
        ResponseMemo {
            inner: Mutex::new(MemoInner::default()),
            counters: MemoCounters::default(),
            capacity: capacity.max(1),
        }
    }

    /// Looks up a completed outcome, counting the hit or miss.
    pub fn get(&self, key: &MemoKey) -> Option<Arc<MemoEntry>> {
        let found = self.inner.lock().expect("memo lock").map.get(key).cloned();
        match &found {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a completed outcome. Callers must never store `timed_out`
    /// partials — the memo's purity contract is "completed runs only".
    pub fn insert(&self, key: MemoKey, outcome: InferOutcome) {
        debug_assert!(!outcome.timed_out, "memo stores completed outcomes only");
        let mut inner = self.inner.lock().expect("memo lock");
        if inner.map.contains_key(&key) {
            return; // concurrent workers raced on the same cold method
        }
        while inner.map.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else { break };
            inner.map.remove(&oldest);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, Arc::new(MemoEntry { outcome }));
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> MemoStats {
        let entries = self.inner.lock().expect("memo lock").map.len() as u64;
        MemoStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            inserts: self.counters.inserts.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(func: &str) -> InferOutcome {
        InferOutcome {
            func: func.to_string(),
            tests: 4,
            coverage_percent: 100.0,
            acls: Vec::new(),
            timed_out: false,
            elapsed_ms: 1.0,
        }
    }

    fn key(canon: &str) -> MemoKey {
        MemoKey { canon: canon.to_string(), tests: None }
    }

    #[test]
    fn hit_miss_and_insert_accounting() {
        let memo = ResponseMemo::new(8);
        assert!(memo.get(&key("a")).is_none());
        memo.insert(key("a"), outcome("f"));
        let entry = memo.get(&key("a")).expect("stored");
        assert_eq!(entry.outcome.func, "f");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tests_override_is_part_of_the_key() {
        let memo = ResponseMemo::new(8);
        memo.insert(key("a"), outcome("f"));
        assert!(memo.get(&MemoKey { canon: "a".into(), tests: Some(9) }).is_none());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let memo = ResponseMemo::new(2);
        memo.insert(key("a"), outcome("f"));
        memo.insert(key("b"), outcome("g"));
        memo.insert(key("c"), outcome("h"));
        assert!(memo.get(&key("a")).is_none(), "oldest evicted");
        assert!(memo.get(&key("b")).is_some());
        assert!(memo.get(&key("c")).is_some());
        let s = memo.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
    }
}
