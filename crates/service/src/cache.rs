//! The cross-query learning cache: template key → UCT tree snapshot.
//!
//! SkinnerDB learns a near-optimal join order *while a query runs*; this
//! cache keeps that knowledge alive *between* runs. Entries are keyed by
//! the normalized query template ([`TemplateKey`]: join graph +
//! predicate shape, constants stripped) and hold the terminal UCT tree
//! snapshot — everything a later execution of the same template needs
//! to warm-start instead of re-exploring: restored, the tree runs the
//! learned order from slice 1.
//!
//! # Invalidation
//!
//! Every entry records the *per-table* versions it was learned against
//! (the service bumps a table's version each time [`register_table`]
//! replaces it). A lookup whose current table versions differ from the
//! entry's drops it and reports a miss, and a catalog mutation eagerly
//! purges exactly the entries that touch the mutated table — templates
//! over unrelated tables keep their learning. This is deliberately
//! table-granular but version-coarse: learned order quality depends on
//! data distributions, so *any* change to a touched table discards the
//! entry. Stale priors are dropped, never trusted, which is what keeps
//! warm-started answers byte-for-byte equal to cold ones — the cache
//! only ever changes *how fast* the learner converges.
//!
//! # Bounds
//!
//! The cache holds at most a fixed number of templates
//! (`DEFAULT_CACHE_CAPACITY` in a service); storing past it evicts the
//! least-recently-used entry. A snapshot is kilobytes, so the count
//! bounds the bytes too.
//!
//! [`register_table`]: crate::QueryService::register_table

use crate::persist::PersistRecord;
use skinner_query::{TableId, TemplateKey};
use skinner_storage::FxHashMap;
use skinner_uct::TreeSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Versions of the tables a cached template touches, in FROM order:
/// `(table name, per-table catalog version)` pairs. Equality of the
/// whole vector is the entry's validity condition.
pub(crate) type TableDeps = Vec<(String, u64)>;

/// One cached template's learned state.
#[derive(Debug, Clone)]
struct Entry {
    snapshot: TreeSnapshot<TableId>,
    /// Per-table versions the snapshot was learned against.
    deps: TableDeps,
    /// Logical clock of the last hit/store (LRU eviction order).
    last_used: u64,
}

/// Aggregate cache counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned live learned state.
    pub hits: u64,
    /// Lookups with no entry for the template.
    pub misses: u64,
    /// Lookups that *found* the template but had to drop it because its
    /// table versions were stale (also counted under `misses` and
    /// `invalidated`). A warm workload with a high `stale_hits` share is
    /// churning its tables out from under its templates — previously
    /// indistinguishable from never having seen the template at all.
    pub stale_hits: u64,
    /// Entries dropped because a touched table changed under them.
    pub(crate) invalidated: u64,
    /// Stores (first sighting or refresh after an execution).
    pub(crate) stores: u64,
    /// Entries evicted to stay within the capacity.
    pub(crate) evicted: u64,
}

/// Default maximum number of cached templates (see
/// [`LearningCache::with_capacity`]).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Thread-safe template-keyed learning cache, bounded by entry count
/// with least-recently-used eviction. UCT snapshots are small —
/// kilobytes — but a service fed endlessly varying generated query
/// shapes must not grow without bound.
#[derive(Debug)]
pub struct LearningCache {
    map: Mutex<FxHashMap<TemplateKey, Entry>>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_hits: AtomicU64,
    invalidated: AtomicU64,
    stores: AtomicU64,
    evicted: AtomicU64,
}

impl Default for LearningCache {
    fn default() -> Self {
        LearningCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl LearningCache {
    /// Empty cache with the default capacity.
    pub(crate) fn new() -> LearningCache {
        LearningCache::default()
    }

    /// Empty cache holding at most `capacity` templates (clamped ≥ 1).
    pub(crate) fn with_capacity(capacity: usize) -> LearningCache {
        LearningCache {
            map: Mutex::default(),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Lock the map, recovering from poisoning: every mutation is one
    /// map operation, so state under a poisoned guard is still
    /// consistent — and a service that caught a query panic must keep
    /// its cache, not lose it to the poison bit.
    fn lock_map(&self) -> MutexGuard<'_, FxHashMap<TemplateKey, Entry>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The snapshot for `key` if present and learned against exactly
    /// the table versions in `deps`; entries with mismatched versions
    /// are dropped (counted as both an invalidation and a miss).
    pub(crate) fn lookup(
        &self,
        key: &TemplateKey,
        deps: &[(String, u64)],
    ) -> Option<TreeSnapshot<TableId>> {
        let tick = self.tick();
        let mut map = self.lock_map();
        match map.get_mut(key) {
            Some(e) if e.deps == deps => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.snapshot.clone())
            }
            Some(_) => {
                map.remove(key);
                self.stale_hits.fetch_add(1, Ordering::Relaxed);
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store (or refresh) the snapshot for `key`, learned against the
    /// table versions in `deps`, then evict the least-recently-used
    /// entry if the capacity is exceeded. Later snapshots carry
    /// strictly more rounds, so a concurrent execution racing an older
    /// snapshot in is harmless — whichever lands last wins and both are
    /// valid priors.
    pub(crate) fn store(&self, key: TemplateKey, deps: TableDeps, snapshot: TreeSnapshot<TableId>) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.insert_entry(key, deps, snapshot);
    }

    /// [`store`](Self::store) without counting toward the `stores`
    /// statistic — used when re-seeding from a persisted snapshot, so
    /// restart warm-up does not masquerade as execution activity.
    pub(crate) fn seed(&self, key: TemplateKey, deps: TableDeps, snapshot: TreeSnapshot<TableId>) {
        self.insert_entry(key, deps, snapshot);
    }

    /// A point-in-time copy of every entry, least-recently-used first —
    /// re-seeding a fresh cache in this order reproduces the LRU
    /// ordering (the persistence layer round-trips exactly this).
    pub(crate) fn export(&self) -> Vec<PersistRecord> {
        let map = self.lock_map();
        let mut entries: Vec<(&TemplateKey, &Entry)> = map.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(k, e)| PersistRecord {
                key: k.clone(),
                deps: e.deps.clone(),
                snapshot: e.snapshot.clone(),
            })
            .collect()
    }

    fn insert_entry(&self, key: TemplateKey, deps: TableDeps, snapshot: TreeSnapshot<TableId>) {
        let tick = self.tick();
        let mut map = self.lock_map();
        map.insert(
            key.clone(),
            Entry {
                snapshot,
                deps,
                last_used: tick,
            },
        );
        // Evict the coldest entry, sparing the fresh key (capacity ≥ 1,
        // so an over-capacity map holds another).
        if map.len() > self.capacity {
            let coldest = map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("an over-capacity map holds another entry");
            map.remove(&coldest);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Eagerly drop every entry that touches `table` (called when the
    /// service registers or replaces that table, so stale learning does
    /// not linger until its template happens to be looked up again).
    /// Entries over unrelated tables are untouched.
    pub(crate) fn invalidate_table(&self, table: &str) {
        let mut map = self.lock_map();
        let before = map.len();
        map.retain(|_, e| e.deps.iter().all(|(t, _)| t != table));
        let dropped = before - map.len();
        self.invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock_map().len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Approximate heap bytes held by the cached snapshots, summed on
    /// demand (the REPL's `\cache` line reports it).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.lock_map()
            .values()
            .map(|e| e.snapshot.approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_uct::{SearchSpace, UctConfig, UctTree};

    struct TwoArms;
    impl SearchSpace for TwoArms {
        type Action = usize;
        fn actions(&self, path: &[usize]) -> Vec<usize> {
            if path.is_empty() {
                vec![0, 1]
            } else {
                vec![]
            }
        }
        fn depth(&self) -> usize {
            1
        }
    }

    fn learned() -> TreeSnapshot<TableId> {
        let mut tree = UctTree::new(TwoArms, UctConfig::default());
        for _ in 0..10 {
            let p = tree.choose();
            tree.update(&p, 0.5);
        }
        tree.snapshot()
    }

    fn deps(pairs: &[(&str, u64)]) -> TableDeps {
        pairs.iter().map(|(t, v)| (t.to_string(), *v)).collect()
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let cache = LearningCache::new();
        let k = template_key_for_test("a");
        assert!(cache.lookup(&k, &deps(&[("a", 1)])).is_none());
        cache.store(k.clone(), deps(&[("a", 1)]), learned());
        assert!(cache.lookup(&k, &deps(&[("a", 1)])).is_some());
        // Table "a" changed: the entry is dropped, not served.
        assert!(cache.lookup(&k, &deps(&[("a", 2)])).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.approx_bytes(), 0);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(
            s.stale_hits, 1,
            "a stale-deps eviction-on-lookup must be distinguishable \
             from a plain miss"
        );
        assert_eq!(s.invalidated, 1);
        assert_eq!(s.stores, 1);
        // The first lookup never saw the template: a plain miss only.
        assert_eq!(s.misses - s.stale_hits, 1);
    }

    #[test]
    fn invalidate_table_is_per_table() {
        let cache = LearningCache::new();
        let (ka, kb) = (template_key_for_test("ta"), template_key_for_test("tb"));
        cache.store(ka.clone(), deps(&[("ta", 1), ("shared", 1)]), learned());
        cache.store(kb.clone(), deps(&[("tb", 1)]), learned());
        // Mutating an unrelated table touches nothing.
        cache.invalidate_table("elsewhere");
        assert_eq!(cache.len(), 2);
        // Mutating "shared" purges only the entry that touches it.
        cache.invalidate_table("shared");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&kb, &deps(&[("tb", 1)])).is_some());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn store_refresh_and_bytes() {
        let cache = LearningCache::new();
        let k = template_key_for_test("b");
        cache.store(k.clone(), deps(&[("b", 1)]), learned());
        let first = cache.approx_bytes();
        assert!(first > 0);
        // Refreshing replaces, not accumulates.
        cache.store(k.clone(), deps(&[("b", 1)]), learned());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.approx_bytes(), first);
        cache.invalidate_table("b");
        assert!(cache.is_empty());
        assert_eq!(cache.approx_bytes(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = LearningCache::with_capacity(2);
        let (a, b, c) = (
            template_key_for_test("ta"),
            template_key_for_test("tb"),
            template_key_for_test("tc"),
        );
        let d = deps(&[("t", 1)]);
        cache.store(a.clone(), d.clone(), learned());
        cache.store(b.clone(), d.clone(), learned());
        // Touch `a` so `b` is the LRU entry when `c` overflows the cache.
        assert!(cache.lookup(&a, &d).is_some());
        cache.store(c.clone(), d.clone(), learned());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a, &d).is_some(), "recently used evicted");
        assert!(cache.lookup(&b, &d).is_none(), "LRU entry survived");
        assert!(cache.lookup(&c, &d).is_some(), "fresh entry evicted");
        assert_eq!(cache.stats().evicted, 1);
    }

    /// Build a real TemplateKey from a one-table query over a throwaway
    /// catalog whose table name is `name` (distinct names ⇒ distinct keys).
    fn template_key_for_test(name: &str) -> TemplateKey {
        use skinner_query::QueryBuilder;
        use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                name,
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints(vec![1])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table(name).unwrap();
        qb.select_col(&format!("{name}.x")).unwrap();
        TemplateKey::of(&qb.build().unwrap())
    }
}
