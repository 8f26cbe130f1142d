//! The cross-query kernel cache: shape key → kernel resolution.
//!
//! A [`CompiledKernel`](crate::CompiledKernel) borrows the prepared
//! query's column slices and indexes, so the kernel *object* lives only
//! as long as one execution. What outlives the execution — and is worth
//! sharing across slices, orders, queries, and service sessions — is the
//! *resolution* of a shape: whether a compiled kernel exists for a
//! [`KernelKey`]. The resolution depends only on the key's per-position
//! jump kinds — not on its predicate fingerprint — so the memo is keyed
//! on exactly that projection (`KernelKey::jumps`): two templates that
//! differ only in predicate shapes share one entry.
//!
//! A process-lifetime cache on a server must not rely on the shape
//! domain staying small: the cache is **byte-accounted and
//! LRU-bounded**, mirroring the service layer's
//! `LearningCache::with_limits`. When either the entry capacity or the
//! byte budget would be exceeded, the least-recently-used entry is
//! evicted (never the one just touched, unless it is alone and
//! oversized — then it is dropped entirely).

use crate::key::{JumpKind, KernelKey};
use skinner_storage::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default entry capacity of [`KernelCache::new`]. Far above the shape
/// diversity of any real workload, but finite: a server seeing
/// adversarially many distinct shapes stays bounded.
pub const DEFAULT_KERNEL_CACHE_CAPACITY: usize = 4096;

/// Approximate heap bytes of one memoized shape of `tables` positions
/// (map key + its jump kinds + value), up to hash-map overhead.
fn entry_bytes(tables: usize) -> usize {
    std::mem::size_of::<Box<[JumpKind]>>()
        + tables * std::mem::size_of::<JumpKind>()
        + std::mem::size_of::<Entry>()
}

/// Aggregate kernel-cache counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCacheStats {
    /// Resolutions served from the cache.
    pub hits: u64,
    /// Resolutions that had to analyze the shape.
    pub misses: u64,
    /// Entries evicted to hold the capacity or byte bound.
    pub evicted: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    supported: bool,
    /// Logical LRU stamp (from the cache's clock, not wall time).
    last_used: u64,
}

/// The memo table and its accounted bytes, guarded together.
#[derive(Debug, Default)]
struct Memo {
    entries: FxHashMap<Box<[JumpKind]>, Entry>,
    bytes: usize,
}

/// Thread-safe shape-resolution cache with LRU eviction. Entries are
/// tiny (a jump-kind sequence and whether it compiles), data-independent,
/// and never invalidated: a shape resolves the same way regardless of
/// catalog contents, so unlike the learning cache this cache survives
/// table replacement. Both the entry count and the accounted bytes are
/// bounded (see `KernelCache::with_limits`). Every non-empty shape
/// compiles, so the memo saves nothing: it is kept only for
/// `benchmark/`, whose ROADMAP item 2 `[benchmark]` commit removes it.
#[derive(Debug)]
pub struct KernelCache {
    memo: Mutex<Memo>,
    /// Logical clock stamping entry use for LRU ordering.
    clock: AtomicU64,
    capacity: usize,
    max_bytes: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl Default for KernelCache {
    fn default() -> KernelCache {
        KernelCache::new()
    }
}

impl KernelCache {
    /// Empty cache with the default capacity
    /// ([`DEFAULT_KERNEL_CACHE_CAPACITY`]) and no byte bound beyond it.
    pub fn new() -> KernelCache {
        KernelCache::with_limits(DEFAULT_KERNEL_CACHE_CAPACITY, None)
    }

    /// Empty cache holding at most `capacity` entries (at least 1) and,
    /// when `max_bytes` is given, at most that many accounted bytes.
    /// Exceeding either bound evicts least-recently-used entries.
    pub(crate) fn with_limits(capacity: usize, max_bytes: Option<usize>) -> KernelCache {
        KernelCache {
            memo: Mutex::new(Memo::default()),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Advance the logical clock (monotonic across threads).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A poisoned mutex only means another thread panicked mid-insert;
    /// the memo itself is always structurally valid, so recover it.
    fn lock_memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn over(&self, memo: &Memo) -> bool {
        memo.entries.len() > self.capacity || self.max_bytes.is_some_and(|mb| memo.bytes > mb)
    }

    /// Resolve `key` to whether a compiled kernel exists for its shape,
    /// computing and memoizing via `analyze` on a miss. Memoization is by
    /// `KernelKey::jumps` — the projection the resolution actually
    /// depends on. A hit refreshes the entry's LRU stamp; a miss inserts
    /// and then evicts the coldest entries until the capacity and byte
    /// bounds hold again (sparing the fresh entry unless it alone exceeds
    /// the byte budget, in which case it is dropped — the resolution is
    /// still returned).
    pub fn resolve(&self, key: &KernelKey, analyze: impl FnOnce() -> bool) -> bool {
        let jumps = key.jumps();
        let now = self.tick();
        let mut memo = self.lock_memo();
        if let Some(e) = memo.entries.get_mut(jumps) {
            e.last_used = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e.supported;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let supported = analyze();
        memo.entries.insert(
            jumps.into(),
            Entry {
                supported,
                last_used: now,
            },
        );
        memo.bytes += entry_bytes(jumps.len());
        while self.over(&memo) {
            let coldest = memo
                .entries
                .iter()
                .filter(|(k, _)| ***k != *jumps || memo.entries.len() == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(k) = coldest else { break };
            memo.entries.remove(&k);
            memo.bytes -= entry_bytes(k.len());
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        supported
    }

    /// Number of memoized shapes.
    pub(crate) fn len(&self) -> usize {
        self.lock_memo().entries.len()
    }

    /// True if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KernelCacheStats {
        KernelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kinds: &[JumpKind]) -> KernelKey {
        KernelKey::new(kinds.iter().map(|&k| (k, &[][..], false)))
    }

    /// A distinct jump-kind sequence per index: arities 2 to 6 × kind
    /// choices give plenty of distinct shapes for pressure tests.
    fn distinct_key(i: usize) -> KernelKey {
        let kinds = [
            JumpKind::Int,
            JumpKind::Float,
            JumpKind::Fused,
            JumpKind::Key,
            JumpKind::Scan,
        ];
        let m = 2 + (i / kinds.len()) % 5;
        let k = kinds[i % kinds.len()];
        let mut v = vec![JumpKind::Scan; m];
        for (j, slot) in v.iter_mut().enumerate().skip(1) {
            *slot = if j % 2 == 0 {
                k
            } else {
                kinds[(i + j) % kinds.len()]
            };
        }
        key(&v)
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = KernelCache::new();
        let a = key(&[JumpKind::Scan, JumpKind::Int]);
        let b = key(&[JumpKind::Scan, JumpKind::Float]);
        assert!(cache.resolve(&a, || true));
        // Hit: the closure must not run again.
        assert!(cache.resolve(&a, || panic!("analyzed twice")));
        // A refusal is memoized too.
        assert!(!cache.resolve(&b, || false));
        assert!(!cache.resolve(&b, || panic!("analyzed twice")));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.evicted, 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lock_memo().bytes, 2 * entry_bytes(2));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = KernelCache::with_limits(2, None);
        let (a, b, c) = (distinct_key(0), distinct_key(1), distinct_key(2));
        cache.resolve(&a, || true);
        cache.resolve(&b, || true);
        // Touch `a` so `b` is the coldest.
        cache.resolve(&a, || panic!("hit expected"));
        cache.resolve(&c, || true);
        assert_eq!(cache.len(), 2);
        // `a` and `c` survive; `b` was evicted and re-analyzes.
        cache.resolve(&a, || panic!("a must survive"));
        cache.resolve(&c, || panic!("c must survive"));
        let mut b_reanalyzed = false;
        cache.resolve(&b, || {
            b_reanalyzed = true;
            true
        });
        assert!(b_reanalyzed, "b must have been evicted");
        assert!(cache.stats().evicted > 0);
    }

    #[test]
    fn byte_bound_holds_under_insert_pressure() {
        // Budget for three entries of the widest test shape; insert 40
        // distinct shapes and check the bound after every store.
        let budget = 3 * entry_bytes(6);
        let cache = KernelCache::with_limits(usize::MAX, Some(budget));
        let mut inserted = 0u32;
        for i in 0..40 {
            let k = distinct_key(i);
            cache.resolve(&k, || true);
            inserted += 1;
            assert!(
                cache.lock_memo().bytes <= budget,
                "byte bound violated after {inserted} inserts: {} > {budget}",
                cache.lock_memo().bytes
            );
            // The just-inserted entry always survives its own insert.
            cache.resolve(&k, || panic!("fresh entry must survive"));
        }
        assert!(cache.len() >= 2, "bound should allow multiple entries");
        assert!(cache.stats().evicted > 0, "pressure must evict");
    }

    #[test]
    fn oversized_budget_drops_entry_entirely() {
        // A byte budget below one entry: the fresh entry itself is
        // dropped (resolution still returned), leaving the cache empty.
        let cache = KernelCache::with_limits(usize::MAX, Some(1));
        let k = distinct_key(0);
        assert!(cache.resolve(&k, || true));
        assert!(cache.is_empty());
        assert_eq!(cache.lock_memo().bytes, 0);
        assert!(cache.stats().evicted > 0);
    }
}
