//! Hash-consing interner: the arena behind `Term`/`Place`/`SymVar`.
//!
//! Every structurally distinct node is allocated exactly once, for the
//! lifetime of the process, and handed out as a `&'static` reference
//! carrying a dense `u32` id. Handles built on top of it (`Term`, `Place`,
//! `SymVar`, `CPred`) are `Copy`, compare equal iff they are the same
//! allocation, and hash by id — so the deep-traversal cost of equality,
//! hashing and cloning is paid once, at construction, instead of on every
//! cache probe.
//!
//! Thread safety: the dedup set is sharded behind mutexes keyed by the
//! node's structural hash, and ids come from one atomic counter, so any
//! number of threads may intern concurrently. Two threads racing to intern
//! the same node serialize on the same shard and observe the same handle.
//! Ids are assigned in first-intern order and are therefore *not* stable
//! across runs or thread interleavings; nothing that renders or orders
//! output may depend on id order (handles keep a structural `Ord` for
//! exactly this reason).
//!
//! The arena is append-only and deliberately leaked (`Box::leak`): the term
//! universe of a corpus run is bounded by the distinct sub-terms the
//! concolic executor produces, and freeing would invalidate the `'static`
//! handles embedded in caches, incremental sessions and worker threads.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Number of dedup-map shards; a power of two, sized for the handful of
/// worker threads the inference driver runs.
const SHARDS: usize = 16;

/// One interned node: a dense id plus the node itself.
#[derive(Debug)]
pub struct Interned<T: 'static> {
    id: u32,
    node: T,
}

impl<T> Interned<T> {
    /// The dense per-type id (first-intern order).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The interned node.
    pub fn node(&self) -> &T {
        &self.node
    }
}

/// A dedup-set entry: the leaked allocation itself, hashed and compared by
/// its node, so a lookup can borrow a plain `&T` and each node is stored
/// once — in its arena allocation — rather than again as a map key.
struct Slot<T: 'static>(&'static Interned<T>);

impl<T: Hash> Hash for Slot<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.node.hash(state);
    }
}

impl<T: PartialEq> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.node == other.0.node
    }
}

impl<T: Eq> Eq for Slot<T> {}

impl<T> Borrow<T> for Slot<T> {
    fn borrow(&self) -> &T {
        &self.0.node
    }
}

/// An append-only hash-consing arena for nodes of type `T`.
pub struct Interner<T: 'static> {
    shards: [Mutex<HashSet<Slot<T>>>; SHARDS],
    next_id: AtomicU32,
}

impl<T: Hash + Eq> Interner<T> {
    pub fn new() -> Self {
        Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashSet::new())),
            next_id: AtomicU32::new(0),
        }
    }

    /// Returns the unique allocation for `node`, creating it on first use.
    pub fn intern(&self, node: T) -> &'static Interned<T> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        node.hash(&mut h);
        let shard = (h.finish() >> 57) as usize % SHARDS;
        let mut guard = self.shards[shard].lock().expect("interner shard poisoned");
        if let Some(found) = guard.get(&node) {
            return found.0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(id != u32::MAX, "interner id space exhausted");
        let leaked: &'static Interned<T> = Box::leak(Box::new(Interned { id, node }));
        guard.insert(Slot(leaked));
        leaked
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("interner shard poisoned").len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Hash + Eq> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Id/structural helpers shared by all handle types: equality and hashing
/// are O(1) id operations; ordering keeps the *structural* semantics the
/// rest of the pipeline renders through (with an identity fast path), since
/// id order is an accident of interning order.
macro_rules! intern_handle {
    ($handle:ident, $node:ty, $id:ident) => {
        /// The dense arena id of an interned node.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $id(pub u32);

        impl $handle {
            /// The arena id: equal ids ⇔ structurally equal nodes.
            pub fn id(self) -> $id {
                $id(self.0.id())
            }

            /// The interned node this handle points at.
            pub fn node(self) -> &'static $node {
                self.0.node()
            }
        }

        impl PartialEq for $handle {
            fn eq(&self, other: &Self) -> bool {
                self.0.id() == other.0.id()
            }
        }

        impl Eq for $handle {}

        impl std::hash::Hash for $handle {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                state.write_u32(self.0.id());
            }
        }

        impl PartialOrd for $handle {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $handle {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self.0.id() == other.0.id() {
                    std::cmp::Ordering::Equal
                } else {
                    self.node().cmp(other.node())
                }
            }
        }

        impl std::fmt::Debug for $handle {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Debug::fmt(self.node(), f)
            }
        }
    };
}

pub(crate) use intern_handle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_assigns_stable_handles() {
        let arena: Interner<(String, i64)> = Interner::new();
        let a = arena.intern(("x".to_string(), 1));
        let b = arena.intern(("x".to_string(), 1));
        let c = arena.intern(("y".to_string(), 2));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn concurrent_interning_converges() {
        let arena: &'static Interner<i64> = Box::leak(Box::new(Interner::new()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..100).map(|k| arena.intern(k).id()).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "same nodes must yield same ids on every thread");
        }
        assert_eq!(arena.len(), 100);
    }
}
