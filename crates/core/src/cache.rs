//! The sketch-result cache: a bounded LRU with byte accounting and
//! single-flight coalescing. Each worker holds one, of its merged
//! summaries; the root holds one more, of final folds, and answers a
//! repeated query from it before any tree is launched
//! ([`crate::cluster`], "A chart already drawn costs no tree").
//!
//! The paper's computation cache (§5.4) is "indexed by what mergeable
//! summary was used and what dataset was operated on". Here "what dataset"
//! is the rows the summary was folded from, not the id that asked for it:
//! a [`CacheKey`] is a lineage-derived content *version* (a load's source,
//! snapshot and dataset id; every filter predicate's canonical bytes on
//! the chain) crossed with a 128-bit hash of the sketch's parameter
//! identity. So callers never invent keys, and two queries agree on an
//! entry exactly when their results are provably bit-identical — a fused
//! tree and the filter it would materialize share one. An entry is a fact
//! about immutable content: evicting a dataset leaves it to the LRU.
//!
//! Unlike the unbounded map it replaces, the cache holds a hard byte
//! budget: insertions charge `len + overhead` against it and evict the
//! least-recently-used entries until the budget holds again. Concurrent
//! identical queries coalesce: the first miss becomes the *leader* (its
//! [`FlightGuard`] marks the key in flight) and later lookups observe
//! [`Lookup::InFlight`], wait, and are served the leader's result without
//! a second scan. A leader that fails or declines to publish drops its
//! guard, waking waiters so one of them can take over.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

/// Structural identity of one cacheable per-worker summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Lineage-derived content version of the rows the tree read on this
    /// worker; a fused query folds its canonical predicate bytes into the
    /// parent's version exactly as materializing the filter would, so the
    /// two plans and every canonically-equal predicate share an entry and
    /// semantically distinct ones never collide. In the root's memo, the
    /// workers' versions folded together.
    pub version: u64,
    /// 128-bit structural query hash over the sketch name and its
    /// parameter identity ([`crate::erased::ErasedSketch::cache_identity`]).
    pub query: [u64; 2],
}

/// Fixed bookkeeping cost charged per entry on top of the payload bytes,
/// so a flood of tiny summaries cannot grow the maps unboundedly while
/// technically staying under the payload budget.
const ENTRY_OVERHEAD: usize = 64;

/// Counter snapshot for one cache (or, summed, a whole cluster).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a stored entry.
    pub hits: u64,
    /// Lookups that found no entry and became the computing leader.
    pub misses: u64,
    /// Entries stored (leader completions).
    pub insertions: u64,
    /// Entries dropped by the LRU byte budget.
    pub evictions: u64,
    /// Hits that were served only after waiting on an in-flight leader —
    /// queries that shared one scan instead of running their own.
    pub coalesced: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Bytes currently accounted (payload + per-entry overhead).
    pub bytes: u64,
    /// Byte budget (summed across caches when merged).
    pub budget: u64,
}

impl CacheStats {
    /// Sum two snapshots (cluster-wide aggregation over workers).
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn merge(self, o: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            insertions: self.insertions + o.insertions,
            evictions: self.evictions + o.evictions,
            coalesced: self.coalesced + o.coalesced,
            entries: self.entries + o.entries,
            bytes: self.bytes + o.bytes,
            budget: self.budget + o.budget,
        }
    }
}

struct Entry {
    value: Bytes,
    tick: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency order: strictly-increasing tick → key. The BTreeMap's
    /// smallest tick is the LRU victim.
    order: BTreeMap<u64, CacheKey>,
    bytes: usize,
    tick: u64,
    /// Keys a leader is currently computing.
    inflight: HashSet<CacheKey>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    coalesced: u64,
}

impl Inner {
    /// Serve `key` if it is stored: count the hit and make the entry the
    /// most recently used.
    fn hit(&mut self, key: &CacheKey) -> Option<Bytes> {
        let entry = self.map.get_mut(key)?;
        self.tick += 1;
        self.order.remove(&entry.tick);
        self.order.insert(self.tick, *key);
        entry.tick = self.tick;
        self.hits += 1;
        Some(entry.value.clone())
    }
}

/// The outcome of one cache lookup.
pub(crate) enum Lookup<'a> {
    /// A stored summary; recency was bumped.
    Hit(Bytes),
    /// Nothing stored and nobody computing: the caller is now the leader
    /// and must either [`FlightGuard::complete`] with the computed bytes
    /// or drop the guard to release waiting queries.
    Miss(FlightGuard<'a>),
    /// Another query is computing this key right now; wait with
    /// [`SketchCache::wait`] and look up again (or proceed uncached).
    InFlight,
}

/// Leadership token for a single-flight computation. Dropping it without
/// [`FlightGuard::complete`] abandons the flight (wakes waiters, stores
/// nothing) — the path taken by cancelled, degraded, or failed trees.
pub(crate) struct FlightGuard<'a> {
    cache: &'a SketchCache,
    key: CacheKey,
    done: bool,
}

impl FlightGuard<'_> {
    /// Publish the computed summary: store it (evicting LRU entries past
    /// the byte budget) and wake every query waiting on this key.
    pub(crate) fn complete(mut self, value: Bytes) {
        self.done = true;
        let mut inner = self.cache.inner.lock();
        inner.inflight.remove(&self.key);
        self.cache.insert_locked(&mut inner, self.key, value);
        drop(inner);
        self.cache.flights.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.inner.lock().inflight.remove(&self.key);
            self.cache.flights.notify_all();
        }
    }
}

/// Bounded cache of merged summaries: a worker's, or the root's final folds.
pub struct SketchCache {
    budget: usize,
    inner: Mutex<Inner>,
    flights: Condvar,
}

impl SketchCache {
    /// An empty cache holding at most `budget` accounted bytes.
    pub(crate) fn new(budget: usize) -> Self {
        SketchCache {
            budget,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                bytes: 0,
                tick: 0,
                inflight: HashSet::new(),
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                coalesced: 0,
            }),
            flights: Condvar::new(),
        }
    }

    /// Look up `key`, becoming the computing leader on a miss.
    pub(crate) fn lookup(&self, key: CacheKey) -> Lookup<'_> {
        let mut guard = self.inner.lock();
        // Reborrow through the guard once so the borrows of `map`, `order`,
        // and the counters split per-field (a second `map` lookup would
        // otherwise be needed just to satisfy the borrow checker).
        let inner = &mut *guard;
        if let Some(value) = inner.hit(&key) {
            return Lookup::Hit(value);
        }
        if inner.inflight.contains(&key) {
            return Lookup::InFlight;
        }
        inner.inflight.insert(key);
        inner.misses += 1;
        Lookup::Miss(FlightGuard {
            cache: self,
            key,
            done: false,
        })
    }

    /// Whether `key` is stored, changing nothing: no counter, no recency.
    pub(crate) fn contains(&self, key: &CacheKey) -> bool {
        self.inner.lock().map.contains_key(key)
    }

    /// Credit `key` with a hit it served without being read — a query
    /// answered above this cache from a value folded from this entry:
    /// counted and made most recently used exactly as a [`Lookup::Hit`]
    /// would, so the entry is not evicted from under the copy that spares
    /// it the lookups. `false`, and nothing counted, if it is not stored.
    pub(crate) fn touch(&self, key: &CacheKey) -> bool {
        self.inner.lock().hit(key).is_some()
    }

    /// Block until `key`'s flight resolves (complete or abandoned) or
    /// `timeout` elapses — callers loop around [`SketchCache::lookup`] so
    /// they can keep heartbeating and observe cancellation between waits.
    pub(crate) fn wait(&self, key: &CacheKey, timeout: Duration) {
        let mut inner = self.inner.lock();
        if !inner.inflight.contains(key) {
            return;
        }
        self.flights.wait_for(&mut inner, timeout);
    }

    /// Record that a query was served by another query's in-flight scan
    /// (called by the executor when a wait ended in a hit).
    pub(crate) fn note_coalesced(&self) {
        self.inner.lock().coalesced += 1;
    }

    /// Store a summary directly (tests and non-flight callers).
    pub fn insert(&self, key: CacheKey, value: Bytes) {
        let mut inner = self.inner.lock();
        self.insert_locked(&mut inner, key, value);
    }

    fn insert_locked(&self, inner: &mut Inner, key: CacheKey, value: Bytes) {
        let cost = value.len() + ENTRY_OVERHEAD;
        if cost > self.budget {
            // An entry that alone exceeds the budget is never stored:
            // serving it once cannot justify unbounded residency.
            return;
        }
        if let Some(old) = inner.map.remove(&key) {
            inner.order.remove(&old.tick);
            inner.bytes -= old.value.len() + ENTRY_OVERHEAD;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, Entry { value, tick });
        inner.order.insert(tick, key);
        inner.bytes += cost;
        inner.insertions += 1;
        while inner.bytes > self.budget {
            // `bytes > 0` implies the order index is non-empty; if the two
            // ever disagree, stop evicting instead of spinning or panicking
            // mid-query — the cache degrades to over-budget, nothing worse.
            let Some((&oldest, &victim)) = inner.order.iter().next() else {
                break;
            };
            if victim == key {
                break; // never evict the entry just inserted
            }
            inner.order.remove(&oldest);
            let Some(e) = inner.map.remove(&victim) else {
                break; // order/map out of sync: same degrade-don't-panic stance
            };
            inner.bytes -= e.value.len() + ENTRY_OVERHEAD;
            inner.evictions += 1;
        }
    }

    /// Drop everything (worker kill / cold-start eviction). In-flight
    /// markers are left to their owning guards.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            coalesced: inner.coalesced,
            entries: inner.map.len() as u64,
            bytes: inner.bytes as u64,
            budget: self.budget as u64,
        }
    }
}

impl std::fmt::Debug for SketchCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "SketchCache({} entries, {}/{} bytes)",
            s.entries, s.bytes, s.budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            version: n,
            query: [n, !n],
        }
    }

    fn put(c: &SketchCache, n: u64, len: usize) {
        match c.lookup(key(n)) {
            Lookup::Miss(g) => g.complete(Bytes::from(vec![n as u8; len])),
            _ => panic!("expected miss for fresh key {n}"),
        }
    }

    #[test]
    fn round_trip_and_counters() {
        let c = SketchCache::new(1 << 20);
        assert!(matches!(c.lookup(key(7)), Lookup::Miss(_))); // guard dropped
        put(&c, 7, 100);
        match c.lookup(key(7)) {
            Lookup::Hit(b) => assert_eq!(b, Bytes::from(vec![7u8; 100])),
            _ => panic!("expected hit"),
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 100 + ENTRY_OVERHEAD as u64);
    }

    #[test]
    fn lru_evicts_by_byte_budget() {
        let budget = 3 * (100 + ENTRY_OVERHEAD);
        let c = SketchCache::new(budget);
        for n in 0..3 {
            put(&c, n, 100);
        }
        assert_eq!(c.stats().entries, 3);
        // Touch key 0 so key 1 is the LRU victim.
        assert!(matches!(c.lookup(key(0)), Lookup::Hit(_)));
        put(&c, 3, 100);
        let s = c.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 1);
        assert!(matches!(c.lookup(key(0)), Lookup::Hit(_)), "recently used");
        assert!(matches!(c.lookup(key(1)), Lookup::Miss(_)), "LRU evicted");
        assert!((s.bytes as usize) <= budget);
    }

    #[test]
    fn touch_counts_and_refreshes_like_a_hit_and_contains_does_neither() {
        let c = SketchCache::new(2 * (100 + ENTRY_OVERHEAD));
        put(&c, 0, 100);
        put(&c, 1, 100);
        assert!(c.contains(&key(0)) && !c.contains(&key(9)));
        assert_eq!(c.stats().hits, 0, "a probe is not a hit");
        // Probed but not touched, key 0 is still the LRU victim...
        put(&c, 2, 100);
        assert!(!c.contains(&key(0)) && c.contains(&key(1)));
        // ...and touched, key 1 is not.
        assert!(c.touch(&key(1)) && !c.touch(&key(0)));
        assert_eq!(c.stats().hits, 1, "an absent key counts nothing");
        put(&c, 3, 100);
        assert!(c.contains(&key(1)) && !c.contains(&key(2)));
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let c = SketchCache::new(128);
        put(&c, 1, 1000);
        assert_eq!(c.stats().entries, 0);
        assert!(matches!(c.lookup(key(1)), Lookup::Miss(_)));
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let c = SketchCache::new(1 << 20);
        put(&c, 5, 200);
        c.insert(key(5), Bytes::from(vec![0u8; 50]));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 50 + ENTRY_OVERHEAD as u64);
    }

    #[test]
    fn single_flight_coalesces_concurrent_queries() {
        let c = Arc::new(SketchCache::new(1 << 20));
        let k = key(3);
        let leader = match c.lookup(k) {
            Lookup::Miss(g) => g,
            _ => panic!("leader expected miss"),
        };
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || loop {
            match c2.lookup(k) {
                Lookup::Hit(b) => {
                    c2.note_coalesced();
                    return b;
                }
                Lookup::InFlight => c2.wait(&k, Duration::from_millis(50)),
                Lookup::Miss(_) => panic!("waiter must never become leader here"),
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        leader.complete(Bytes::from_static(b"shared"));
        assert_eq!(waiter.join().unwrap(), Bytes::from_static(b"shared"));
        let s = c.stats();
        assert_eq!(s.misses, 1, "one scan for two queries");
        assert_eq!(s.coalesced, 1);
    }

    #[test]
    fn abandoned_flight_releases_waiters() {
        let c = Arc::new(SketchCache::new(1 << 20));
        let k = key(4);
        let leader = match c.lookup(k) {
            Lookup::Miss(g) => g,
            _ => panic!("expected miss"),
        };
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || loop {
            match c2.lookup(k) {
                Lookup::Miss(g) => {
                    // Leadership transferred after the abandon.
                    g.complete(Bytes::from_static(b"takeover"));
                    return;
                }
                Lookup::InFlight => c2.wait(&k, Duration::from_millis(50)),
                Lookup::Hit(_) => panic!("abandoned flight must not publish"),
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(leader); // failed / degraded / cancelled: publish nothing
        waiter.join().unwrap();
        match c.lookup(k) {
            Lookup::Hit(b) => assert_eq!(b, Bytes::from_static(b"takeover")),
            _ => panic!("takeover result stored"),
        };
    }

    #[test]
    fn clear_resets_contents_but_keeps_counters() {
        let c = SketchCache::new(1 << 20);
        put(&c, 1, 10);
        put(&c, 2, 10);
        c.clear();
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.insertions, 2, "history survives for diagnostics");
    }
}
