//! Sharded LRU caches for the serving path.
//!
//! §1.1.1's read flow ends with abstracts "gathered from the summary
//! index" — at ~20 KB per document these fetches dominate the read bytes
//! of a query, and summary indices live in only one data center per
//! region. A front-end cache keyed by `(region, url, version)` absorbs
//! them: DirectLoad values are immutable per `(key, version)`, so a cached
//! entry never goes stale while its version is retained. The only
//! invalidation a publish requires is dropping entries below the new
//! minimum live version (retention deletes make those unreadable from
//! storage).
//!
//! [`ShardedLru`] is the generic building block; [`SummaryCache`] is the
//! summary-specific wrapper with read-through fetch and publish
//! invalidation.

use bifrost::DataCenterId;
use bytes::Bytes;
use directload::{summary_host_for, DirectLoad};
use simclock::SimTime;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A concurrent LRU cache split into independently locked shards.
///
/// Each shard tracks recency with a tick-ordered index, so eviction is
/// O(log n); a `get` from one shard never blocks a `get` from another.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache holding up to `capacity` entries across `shards` shards
    /// (both floored at 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let cap = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: BTreeMap::new(),
                        tick: 0,
                        cap,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency. Counts a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut guard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some((value, old_tick)) => {
                let prev = std::mem::replace(old_tick, tick);
                let value = value.clone();
                shard.order.remove(&prev);
                shard.order.insert(tick, key.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the shard is full.
    pub fn insert(&self, key: K, value: V) {
        let mut guard = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((_, prev)) = shard.map.remove(&key) {
            shard.order.remove(&prev);
        }
        while shard.map.len() >= shard.cap {
            let (&oldest, _) = shard.order.iter().next().expect("order tracks map");
            let victim = shard.order.remove(&oldest).expect("just found");
            shard.map.remove(&victim);
        }
        shard.order.insert(tick, key.clone());
        shard.map.insert(key, (value, tick));
    }

    /// Looks up `key` without refreshing recency or counting a hit/miss.
    pub fn peek(&self, key: &K) -> Option<V> {
        let guard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        guard.map.get(key).map(|(v, _)| v.clone())
    }

    /// Drops every entry for which `keep` returns false.
    pub fn retain(&self, keep: impl Fn(&K, &V) -> bool) {
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let shard = &mut *guard;
            let dead: Vec<(K, u64)> = shard
                .map
                .iter()
                .filter(|(k, (v, _))| !keep(k, v))
                .map(|(k, (_, t))| (k.clone(), *t))
                .collect();
            for (k, t) in dead {
                shard.map.remove(&k);
                shard.order.remove(&t);
            }
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Cache key for one abstract: `(region, url, version)`. Summary lookups
/// route to the region's summary host, so region (not data center) is the
/// right granularity.
pub type SummaryKey = (u8, Bytes, u64);

/// Read-through cache over the summary index.
///
/// Both `Some` (the abstract) and `None` (no abstract at that version)
/// are cacheable: per `(url, version)` the stored value is immutable
/// until retention retires the version.
#[derive(Debug)]
pub struct SummaryCache {
    inner: ShardedLru<SummaryKey, Option<Bytes>>,
}

impl SummaryCache {
    /// A cache holding up to `capacity` abstracts across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        SummaryCache {
            inner: ShardedLru::new(capacity, shards),
        }
    }

    /// Cached lookup only; no storage fallthrough, and the degraded path
    /// using it does not perturb recency or the hit/miss tallies.
    pub fn peek(&self, dc: DataCenterId, url: &Bytes, version: u64) -> Option<Option<Bytes>> {
        self.inner.peek(&(dc.region.0, url.clone(), version))
    }

    /// Read-through fetch: serves from cache, or falls through to the
    /// region's summary host and caches the result. Returns the value,
    /// whether it was a hit, and the simulated storage latency paid
    /// (zero on a hit).
    pub fn get_or_fetch(
        &self,
        engine: &DirectLoad,
        dc: DataCenterId,
        url: &Bytes,
        version: u64,
    ) -> directload::Result<(Option<Bytes>, bool, SimTime)> {
        let key: SummaryKey = (dc.region.0, url.clone(), version);
        if let Some(value) = self.inner.get(&key) {
            return Ok((value, true, SimTime::ZERO));
        }
        let (value, latency) = engine.get_summary(summary_host_for(dc), url, version)?;
        self.inner.insert(key, value.clone());
        Ok((value, false, latency))
    }

    /// Publish hook: drops every entry whose version fell out of the
    /// retention window (storage has deleted those, so serving them would
    /// be incoherent, not merely stale).
    pub fn invalidate_below(&self, min_live_version: u64) {
        self.inner.retain(|(_, _, v), _| *v >= min_live_version);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lookups that went to storage.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Hits over lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        self.inner.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(3, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(3, 30);
        assert_eq!(cache.get(&1), Some(10)); // refresh 1; 2 is now LRU
        cache.insert(4, 40);
        assert_eq!(cache.get(&2), None, "LRU entry must be evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.get(&4), Some(40));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_not_grows() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // refresh; 2 becomes LRU
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), None);
    }

    #[test]
    fn retain_drops_and_counts() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(16, 4);
        for i in 0..10 {
            cache.insert(i, i);
        }
        cache.retain(|k, _| k % 2 == 0);
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.get(&3), None);
        assert_eq!(cache.get(&4), Some(4));
    }

    #[test]
    fn hit_rate_counts_lookups() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(4, 2);
        cache.insert(1, 1);
        cache.get(&1);
        cache.get(&2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }
}
