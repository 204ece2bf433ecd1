//! A canonicalizing, thread-safe memo table for [`solve_preds`] queries.
//!
//! The cache key is the *canonical query* defined by [`crate::canon`] —
//! the cache imports the normal form, it does not define it. The solver
//! configuration knobs that can change the verdict (`budget_nodes`,
//! `max_model_len`, the backend stack) are part of the key.
//!
//! The cached value is the solver's verdict **on the canonical query
//! itself**, held by position — a model is one value per signature
//! position, and a hit binds them straight to the caller's parameter
//! names — plus the [`Tier`] that answered, so hits replay the original
//! attribution in trace events. This makes every cache entry a pure
//! function of its key: which thread (or which α-equivalent call site)
//! inserted it first can never be observed, which is what makes the
//! parallel inference driver deterministic (see DESIGN.md, "Parallelism &
//! caching").
//!
//! No invalidation exists because none is needed: a query's verdict depends
//! only on the query, never on mutable external state.
//!
//! [`solve_preds`]: crate::theory::solve_preds

use crate::backend::Tier;
use crate::canon::{CacheKey, Verdict};
use minilang::InputValue;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards. A power of two; high bits of the
/// key hash pick the shard so the table scales with thread count.
const SHARDS: usize = 16;

/// What the cache did for one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// The canonical key was present.
    Hit,
    /// The canonical key was absent; the query was solved and inserted.
    Miss,
    /// No cache was in use.
    Bypass,
}

impl CacheLookup {
    /// Short lowercase label for diagnostics and trace events.
    pub fn label(self) -> &'static str {
        match self {
            CacheLookup::Hit => "hit",
            CacheLookup::Miss => "miss",
            CacheLookup::Bypass => "bypass",
        }
    }
}

/// Counters and size of a [`SolverCache`], as observed at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Number of eviction *events* (full-shard scans). Each event drops one
    /// or more entries; see [`CacheStats::evicted_entries`].
    pub evictions: u64,
    /// Total entries dropped across all eviction events.
    pub evicted_entries: u64,
    pub entries: u64,
    /// Bytes the resident entries own: each key and verdict with their
    /// heap parts, plus the entry's map and queue slots (not the tables'
    /// spare capacity).
    pub bytes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached verdict, the tier that answered it, and its second-chance
/// bit. The tier is as pure a function of the key as the verdict is (the
/// backend stack is part of the key), so hits replaying it stay
/// deterministic.
struct Entry {
    verdict: Verdict,
    tier: Tier,
    /// Set on every hit, cleared when an eviction scan passes over the
    /// entry — a hot entry survives the scan, a cold one is dropped.
    referenced: bool,
}

/// Bytes one resident entry owns: the shared key allocation (with its
/// `Arc` counts) and the key's slices, the map slot, the queue slot, and
/// the verdict's values.
fn entry_bytes(key: &CacheKey, verdict: &Verdict) -> u64 {
    let key_bytes = 2 * size_of::<usize>() + size_of::<CacheKey>() + key.heap_bytes();
    let slots = size_of::<(Arc<CacheKey>, Entry)>() + size_of::<Arc<CacheKey>>();
    let values = match verdict {
        Verdict::Sat(values) => {
            size_of_val(&**values) + values.iter().map(value_heap_bytes).sum::<usize>()
        }
        Verdict::Unsat | Verdict::Unknown => 0,
    };
    (key_bytes + slots + values) as u64
}

/// Heap bytes one input value owns (its inline part is counted by its
/// container).
fn value_heap_bytes(v: &InputValue) -> usize {
    fn chars(s: &Option<Vec<i64>>) -> usize {
        s.as_ref().map_or(0, |cs| cs.capacity() * size_of::<i64>())
    }
    match v {
        InputValue::Int(_) | InputValue::Bool(_) => 0,
        InputValue::Str(s) | InputValue::ArrayInt(s) => chars(s),
        InputValue::ArrayStr(None) => 0,
        InputValue::ArrayStr(Some(items)) => {
            items.capacity() * size_of::<Option<Vec<i64>>>()
                + items.iter().map(chars).sum::<usize>()
        }
    }
}

/// One independently locked shard: the memo map plus an insertion-order
/// queue driving segmented (second-chance) eviction. `order` holds exactly
/// the keys of `map`; map and queue share one `Arc` per key, so an insert
/// clones the key once and never twice.
#[derive(Default)]
struct Shard {
    map: HashMap<Arc<CacheKey>, Entry>,
    order: VecDeque<Arc<CacheKey>>,
}

/// A thread-safe memo table from canonical queries to solver verdicts.
///
/// Sharded: each shard is an independently locked `HashMap`, so concurrent
/// workers rarely contend. Entries never change once inserted (values are
/// pure functions of keys); when a shard reaches its capacity, a
/// second-chance scan drops the cold half — recently hit entries are
/// re-queued, so a warm working set survives sustained churn instead of
/// being flushed wholesale. Eviction only costs recomputation, never
/// correctness.
pub struct SolverCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Eviction events (scans), not entries; see `evicted_entries`.
    evictions: AtomicU64,
    evicted_entries: AtomicU64,
    /// Resident entries and the bytes they own, summed over the shards.
    /// Changed only under the changed shard's lock, so [`SolverCache::stats`]
    /// reads them without taking any.
    entries: AtomicU64,
    bytes: AtomicU64,
}

impl Default for SolverCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverCache {
    /// A cache with the default capacity (65 536 entries).
    pub fn new() -> SolverCache {
        Self::with_capacity(65_536)
    }

    /// A cache bounded to roughly `max_entries` entries.
    pub fn with_capacity(max_entries: usize) -> SolverCache {
        SolverCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: (max_entries / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_entries: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        // Take high bits: the low bits pick HashMap buckets within a shard.
        &self.shards[(h.finish() >> 57) as usize % SHARDS]
    }

    /// Looks up a canonical key, returning the **canonical** verdict (held
    /// by position) and the tier that answered it (stored with the entry,
    /// so hits report the tier of the original solve). Counts a hit or a
    /// miss; the solve pipeline follows a miss with [`SolverCache::store`]
    /// unless the verdict is not memoizable.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<(Verdict, Tier)> {
        let shard = self.shard(key);
        if let Some(e) = shard.lock().expect("cache shard").map.get_mut(key) {
            e.referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((e.verdict.clone(), e.tier));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Evicts the cold half of a full shard, then inserts. The value must
    /// be the pure canonical verdict of `key` and the tier that produced
    /// it, so a key already present (a thread racing on the same query
    /// stored first) holds the same value and is left as it is.
    pub(crate) fn store(&self, key: CacheKey, verdict: Verdict, tier: Tier) {
        let shard = self.shard(&key);
        let mut guard = shard.lock().expect("cache shard");
        if guard.map.contains_key(&key) {
            return;
        }
        if guard.map.len() >= self.per_shard_capacity {
            self.evict_cold_half(&mut guard);
        }
        let bytes = entry_bytes(&key, &verdict);
        // Map and eviction queue share the key through one allocation.
        let key = Arc::new(key);
        guard.map.insert(Arc::clone(&key), Entry { verdict, tier, referenced: false });
        guard.order.push_back(key);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Second-chance eviction: walk the shard's insertion queue, re-queuing
    /// recently hit entries (clearing their bit) and dropping cold ones,
    /// until the shard is at half capacity. One call is one eviction
    /// *event*; the dropped entries are counted separately.
    fn evict_cold_half(&self, shard: &mut Shard) {
        let target = self.per_shard_capacity / 2;
        let (mut dropped, mut dropped_bytes) = (0u64, 0u64);
        while shard.map.len() > target {
            let Some(key) = shard.order.pop_front() else { break };
            match shard.map.get_mut(key.as_ref()) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    shard.order.push_back(key);
                }
                Some(e) => {
                    dropped_bytes += entry_bytes(&key, &e.verdict);
                    shard.map.remove(key.as_ref());
                    dropped += 1;
                }
                None => {}
            }
        }
        self.entries.fetch_sub(dropped, Ordering::Relaxed);
        self.bytes.fetch_sub(dropped_bytes, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.evicted_entries.fetch_add(dropped, Ordering::Relaxed);
    }

    /// A snapshot of the counters and current size. Takes no lock.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_entries: self.evicted_entries.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and resets the hit/miss/eviction counters.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard");
            let bytes: u64 = shard.map.iter().map(|(k, e)| entry_bytes(k, &e.verdict)).sum();
            self.entries.fetch_sub(shard.map.len() as u64, Ordering::Relaxed);
            self.bytes.fetch_sub(bytes, Ordering::Relaxed);
            shard.map.clear();
            shard.order.clear();
        }
        for counter in [&self.hits, &self.misses, &self.evictions, &self.evicted_entries] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverCache").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::CanonQuery;
    use crate::theory::{solve_preds_with, FuncSig, SolveResult, SolverConfig};
    use minilang::Ty;
    use symbolic::pred::{CmpOp, Pred};
    use symbolic::term::Term;

    fn sig_ab() -> FuncSig {
        FuncSig::from_pairs([("a", Ty::Int), ("b", Ty::Int)])
    }

    fn gt(name: &str, k: i64) -> Pred {
        Pred::cmp(CmpOp::Gt, Term::var(name), Term::int(k))
    }

    fn solve(cache: &SolverCache, p: Pred, cfg: &SolverConfig) -> (SolveResult, CacheLookup) {
        solve_preds_with(&[p], &sig_ab(), cfg, Some(cache))
    }

    #[test]
    fn cache_hits_and_counts() {
        let sink = std::sync::Arc::new(obs::TraceSink::recording());
        let cfg = SolverConfig { trace: Some(sink.clone()), ..SolverConfig::default() };
        let cache = SolverCache::new();
        let (r1, l1) = solve(&cache, gt("a", 0), &cfg);
        let (r2, l2) = solve(&cache, gt("a", 0), &cfg);
        assert_eq!(l1, CacheLookup::Miss);
        assert_eq!(l2, CacheLookup::Hit);
        assert_eq!(r1, r2);
        let tiers: Vec<String> = sink
            .lines()
            .iter()
            .map(|l| obs::json::parse(l).expect("trace line parses"))
            .filter_map(|f| f.get("tier").and_then(|t| t.as_str()).map(str::to_string))
            .collect();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0], tiers[1], "a hit replays the tier of the original solve");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn hits_do_not_recount_tiers() {
        let cfg = SolverConfig::default();
        let cache = SolverCache::new();
        solve(&cache, gt("a", 0), &cfg);
        let after_miss = cfg.tiers.snapshot();
        assert_eq!(after_miss.total(), 1, "the miss executed exactly one solve");
        solve(&cache, gt("a", 0), &cfg);
        assert_eq!(cfg.tiers.snapshot(), after_miss, "hits replay tiers without counting");
    }

    #[test]
    fn eviction_is_segmented_and_counts_events_and_entries() {
        let cfg = SolverConfig::default();
        // Tiny capacity: every shard holds two entries.
        let cache = SolverCache::with_capacity(SHARDS * 2);
        for k in 0..64 {
            solve(&cache, gt("a", k), &cfg);
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "64 distinct keys into {} slots must evict", SHARDS * 2);
        assert!(s.evicted_entries >= s.evictions, "every event drops at least one entry");
        assert!(s.entries <= (SHARDS * 2) as u64);
        assert_eq!(
            s.entries + s.evicted_entries,
            s.misses,
            "every miss either stays resident or was counted as evicted"
        );
    }

    /// Every resident key with the bytes its entry owns, read shard by
    /// shard under the locks.
    fn resident(cache: &SolverCache) -> HashMap<CacheKey, u64> {
        let mut all = HashMap::new();
        for s in &cache.shards {
            let shard = s.lock().unwrap();
            for (k, e) in &shard.map {
                all.insert(CacheKey::clone(k), entry_bytes(k, &e.verdict));
            }
        }
        all
    }

    fn recount(cache: &SolverCache) -> (u64, u64) {
        let all = resident(cache);
        (all.len() as u64, all.values().sum())
    }

    #[test]
    fn counts_return_to_zero_after_clear() {
        let cfg = SolverConfig::default();
        let cache = SolverCache::new();
        for k in 0..20 {
            solve(&cache, gt("a", k), &cfg);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), recount(&cache));
        assert_eq!(s.entries, 20);
        assert!(s.bytes > 20 * size_of::<CacheKey>() as u64, "every entry owns its key");
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
    }

    #[test]
    fn eviction_lowers_counts_by_exactly_the_evicted_entries() {
        let cfg = SolverConfig::default();
        let cache = SolverCache::with_capacity(SHARDS * 2);
        let mut sweeps = 0;
        for k in 0..64 {
            let (before, resident_before) = (cache.stats(), resident(&cache));
            let (_, lookup) = solve(&cache, gt("a", k), &cfg);
            assert_eq!(lookup, CacheLookup::Miss);
            let (after, resident_after) = (cache.stats(), resident(&cache));
            let gone: Vec<u64> = resident_before
                .iter()
                .filter(|(key, _)| !resident_after.contains_key(key))
                .map(|(_, &bytes)| bytes)
                .collect();
            let added = resident_after[&CanonQuery::build(&[gt("a", k)], &sig_ab()).key(&cfg)];
            assert_eq!(gone.len() as u64, after.evicted_entries - before.evicted_entries);
            assert_eq!(after.entries, before.entries + 1 - gone.len() as u64);
            assert_eq!(after.bytes, before.bytes + added - gone.iter().sum::<u64>());
            assert_eq!((after.entries, after.bytes), recount(&cache));
            sweeps += usize::from(!gone.is_empty());
        }
        assert!(sweeps > 0, "64 distinct keys into {} slots must evict", SHARDS * 2);
    }

    #[test]
    fn restoring_a_key_does_not_count_it_twice() {
        let cfg = SolverConfig::default();
        let cache = SolverCache::new();
        let (_, lookup) = solve(&cache, gt("a", 0), &cfg);
        assert_eq!(lookup, CacheLookup::Miss);
        let once = cache.stats();
        assert_eq!(once.entries, 1);
        // Two threads racing on a key both store its (equal) verdict.
        let q = CanonQuery::build(&[gt("a", 0)], &sig_ab());
        let (verdict, tier) = cache.lookup(&q.key(&cfg)).expect("resident");
        cache.store(q.key(&cfg), verdict, tier);
        let twice = cache.stats();
        assert_eq!((twice.entries, twice.bytes), (once.entries, once.bytes));
        assert_eq!((twice.entries, twice.bytes), recount(&cache));
    }

    #[test]
    fn second_chance_keeps_the_hot_entry_resident() {
        // Regression: eviction used to flush the *entire* shard when full,
        // so a steadily re-hit entry was discarded along with the cold
        // churn. The second-chance scan must keep it resident throughout.
        let cfg = SolverConfig::default();
        let cache = SolverCache::with_capacity(SHARDS * 2);
        solve(&cache, gt("a", 0), &cfg);
        for k in 1..=96 {
            solve(&cache, gt("a", k), &cfg);
            // Touch the hot entry every round, as daemon traffic would.
            let (_, lookup) = solve(&cache, gt("a", 0), &cfg);
            assert_eq!(lookup, CacheLookup::Hit, "hot entry evicted after {k} cold inserts");
        }
        assert!(cache.stats().evictions > 0, "cold churn must have triggered evictions");
    }
}
