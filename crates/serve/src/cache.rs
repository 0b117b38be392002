//! Sharded single-flight cache keyed by 64-bit content fingerprints.
//!
//! The service keeps one entry per distinct [`PlanRequest`] fingerprint.
//! Keys spread over independent shards so concurrent workers touching
//! different requests never contend on one lock, and each shard implements
//! *single-flight* semantics: the first caller to ask for a key computes the
//! value while later callers for the same key block on the shard's condvar
//! and receive the finished value — a burst of identical requests plans
//! exactly once.
//!
//! Two policies keep the cache sound under open-ended networked traffic:
//!
//! * **Bounded residency.** Each shard holds at most its share of the
//!   capacity given to [`ShardedCache::with_capacity`] in finished
//!   entries; inserting past that evicts the least-recently-used finished
//!   entry (in-flight slots are never evicted). A stream of millions of
//!   unique specs therefore occupies bounded memory instead of growing
//!   without limit.
//! * **Retention policy.** [`ShardedCache::get_or_compute_observed`] takes a
//!   `retain` predicate; values it rejects (e.g. transient
//!   `PlanError::Internal` outcomes) are returned to the caller but *not*
//!   kept, so a key is never permanently poisoned by a one-off failure. The
//!   next caller for that key simply recomputes.
//!
//! [`PlanRequest`]: crate::PlanRequest

#![expect(
    clippy::disallowed_types,
    reason = "the shard map is looked up by fingerprint; eviction takes the minimum of unique LRU stamps, so iteration order never shows"
)]

use dpipe_sync::{LockRecoverTagged, WaitRecoverTagged};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// One cached entry: either being computed by some caller, or done.
enum Slot<V> {
    InFlight,
    /// A finished value plus its last-touched stamp (for LRU eviction).
    Ready(V, u64),
}

/// Names [`Shard::map`] in the lock witness's panic.
const SHARD_MAP_TAG: &str = "serve::Shard::map";

struct Shard<V> {
    map: Mutex<HashMap<u64, Slot<V>>>,
    ready: Condvar,
}

/// Hit/miss/occupancy counters for a [`ShardedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a finished or in-flight entry (no recompute).
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Distinct keys currently resident.
    pub entries: usize,
    /// Finished entries dropped to stay under the per-shard capacity.
    pub evictions: u64,
    /// Computed values the retention policy declined to keep (transient
    /// errors): delivered to their caller, never resident.
    pub uncached: u64,
}

impl CacheStats {
    /// Fraction of lookups that were hits (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How one [`ShardedCache::get_or_compute_observed`] lookup resolved —
/// the per-call view the aggregate [`CacheStats`] cannot give (tracing
/// wants *this* request's wait, not a global counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheResolution {
    /// `true` when the value came from the cache (finished entry, or an
    /// in-flight computation this caller waited on).
    pub hit: bool,
    /// Time spent blocked behind another caller's in-flight computation
    /// of the same key, if any (single-flight wait).
    pub waited: Option<std::time::Duration>,
    /// Finished LRU entries evicted while publishing this value.
    pub evictions: u64,
}

/// A fixed-shard concurrent cache with single-flight computation, bounded
/// per-shard capacity (LRU eviction) and a per-call retention policy.
///
/// Values must be cheap to clone (the service stores `Arc`ed plans).
pub struct ShardedCache<V> {
    shards: Vec<Shard<V>>,
    /// Finished entries each shard may hold; `usize::MAX` means unbounded.
    per_shard_capacity: usize,
    /// Monotonic LRU clock shared by every shard.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    uncached: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates a cache whose `total_capacity` finished entries spread over
    /// `num_shards` shards (each shard gets the rounded-up share, minimum
    /// 1; at least one shard). Pass `usize::MAX` for unbounded.
    pub fn with_capacity(num_shards: usize, total_capacity: usize) -> Self {
        let num_shards = num_shards.max(1);
        let per_shard_capacity = if total_capacity == usize::MAX {
            usize::MAX
        } else {
            total_capacity.div_ceil(num_shards).max(1)
        };
        let shards = (0..num_shards)
            .map(|_| Shard {
                map: Mutex::new(HashMap::new()),
                ready: Condvar::new(),
            })
            .collect();
        ShardedCache {
            shards,
            per_shard_capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            uncached: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Shard<V> {
        // The fingerprint is already well-mixed (FNV-1a), so plain modulo
        // spreads keys evenly.
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the finished value stored under `key`, if any. In-flight
    /// entries read as absent. Does not touch the hit/miss counters.
    pub fn get(&self, key: u64) -> Option<V> {
        let stamp = self.tick();
        let mut map = self.shard(key).map.lock_recover_tagged(SHARD_MAP_TAG);
        match map.get_mut(&key) {
            Some(Slot::Ready(v, touched)) => {
                *touched = stamp;
                Some(v.clone())
            }
            _ => None,
        }
    }

    /// Returns the value for `key`, computing it with `compute` on first
    /// use, with the per-call [`CacheResolution`]: whether it hit, how long
    /// it blocked on another caller's in-flight computation, and how many
    /// entries publishing the value evicted.
    ///
    /// A hit includes callers that arrived while another thread was
    /// computing the same key and merely waited for it (they did no
    /// planning work themselves). When `retain` rejects the freshly
    /// computed value, the value is still returned (and the lookup counts
    /// as a miss) but the key is left vacant, so the next caller recomputes
    /// instead of being served a transient failure forever. Waiters that
    /// piled up behind the in-flight slot wake, find the key vacant and
    /// recompute — the single-flight guarantee only extends to outcomes
    /// worth keeping. If `compute` or `retain` panics, the in-flight marker
    /// is removed and waiters are woken so a later caller can retry; the
    /// panic propagates to the computing caller.
    pub fn get_or_compute_observed(
        &self,
        key: u64,
        compute: impl FnOnce() -> V,
        retain: impl FnOnce(&V) -> bool,
    ) -> (V, CacheResolution) {
        let shard = self.shard(key);
        let mut wait_started: Option<std::time::Instant> = None;
        let mut map = shard.map.lock_recover_tagged(SHARD_MAP_TAG);
        loop {
            match map.get_mut(&key) {
                Some(Slot::Ready(v, touched)) => {
                    *touched = self.clock.fetch_add(1, Ordering::Relaxed);
                    let v = v.clone();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (
                        v,
                        CacheResolution {
                            hit: true,
                            waited: wait_started.map(|s| s.elapsed()),
                            evictions: 0,
                        },
                    );
                }
                Some(Slot::InFlight) => {
                    wait_started.get_or_insert_with(std::time::Instant::now);
                    map = shard.ready.wait_recover_tagged(map);
                }
                None => break,
            }
        }
        map.insert(key, Slot::InFlight);
        drop(map);

        struct Unpublish<'a, V> {
            shard: &'a Shard<V>,
            key: u64,
        }
        impl<V> Drop for Unpublish<'_, V> {
            fn drop(&mut self) {
                // Only reached on unwind out of `compute`, `retain` or the
                // publish step: clear the marker (recovering the lock even
                // mid-panic — the in-flight slot must go away) and wake
                // waiters so they can retry.
                self.shard
                    .map
                    .lock_recover_tagged(SHARD_MAP_TAG)
                    .remove(&self.key);
                self.shard.ready.notify_all();
            }
        }

        // Declared before the map guard below, so on unwind it drops
        // after that guard and its own lock never nests.
        let unpublish = Unpublish { shard, key };
        let value = compute();

        let mut map = shard.map.lock_recover_tagged(SHARD_MAP_TAG);
        let mut evicted = 0u64;
        if retain(&value) {
            map.insert(key, Slot::Ready(value.clone(), self.tick()));
            evicted = self.evict_over_capacity(&mut map, key);
        } else {
            map.remove(&key);
            self.uncached.fetch_add(1, Ordering::Relaxed);
        }
        drop(map);
        std::mem::forget(unpublish);
        shard.ready.notify_all();
        self.misses.fetch_add(1, Ordering::Relaxed);
        (
            value,
            CacheResolution {
                hit: false,
                waited: wait_started.map(|s| s.elapsed()),
                evictions: evicted,
            },
        )
    }

    /// Evicts least-recently-used finished entries (never in-flight slots,
    /// never `keep`) until the shard is back under capacity; returns how
    /// many entries were dropped.
    fn evict_over_capacity(&self, map: &mut HashMap<u64, Slot<V>>, keep: u64) -> u64 {
        let mut evicted = 0u64;
        while map.len() > self.per_shard_capacity {
            let victim = map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(_, touched) if *k != keep => Some((*k, *touched)),
                    _ => None,
                })
                .min_by_key(|&(_, touched)| touched)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    evicted += 1;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything else is in-flight: nothing evictable.
                None => break,
            }
        }
        evicted
    }

    /// Number of distinct keys resident (finished or in-flight).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock_recover_tagged(SHARD_MAP_TAG).len())
            .sum()
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            uncached: self.uncached.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn unbounded<V: Clone>(num_shards: usize) -> ShardedCache<V> {
        ShardedCache::with_capacity(num_shards, usize::MAX)
    }

    /// A lookup that retains every value, as `(value, hit)`.
    fn lookup<V: Clone>(
        cache: &ShardedCache<V>,
        key: u64,
        compute: impl FnOnce() -> V,
    ) -> (V, bool) {
        let (value, resolution) = cache.get_or_compute_observed(key, compute, |_| true);
        (value, resolution.hit)
    }

    #[test]
    fn computes_once_then_hits() {
        let cache = unbounded(4);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            42u64
        };
        assert_eq!(lookup(&cache, 7, compute), (42, false));
        assert_eq!(lookup(&cache, 7, || unreachable!()), (42, true));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.evictions, stats.uncached), (0, 0));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn get_only_sees_finished_entries() {
        let cache: ShardedCache<u64> = unbounded(2);
        assert_eq!(cache.get(1), None);
        lookup(&cache, 1, || 10);
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.get(2), None);
    }

    #[test]
    fn concurrent_identical_keys_single_flight() {
        let cache = Arc::new(unbounded(8));
        let calls = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    lookup(&cache, 99, move || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Hold the in-flight slot long enough for the other
                        // threads to arrive and block.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        7u64
                    })
                })
            })
            .collect();
        let results: Vec<(u64, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "planned more than once");
        assert!(results.iter().all(|(v, _)| *v == 7));
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn panicking_compute_clears_the_slot() {
        let cache: Arc<ShardedCache<u64>> = Arc::new(unbounded(1));
        let c = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            lookup(&c, 5, || panic!("boom"));
        });
        assert!(panicker.join().is_err());
        // The key is retryable and the cache is not wedged.
        assert_eq!(lookup(&cache, 5, || 11), (11, false));
    }

    #[test]
    fn a_panicking_retain_leaves_the_key_recomputable() {
        let cache: Arc<ShardedCache<u64>> = Arc::new(unbounded(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute_observed(5, || 1, |_| panic!("retain"))
        }));
        assert!(caught.is_err());
        // A stranded in-flight slot would block this lookup for ever, so
        // it runs on its own thread under a deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&cache);
        std::thread::spawn(move || tx.send(lookup(&c, 5, || 2)));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)),
            Ok((2, false))
        );
    }

    #[test]
    fn capacity_bounds_residency_with_lru_eviction() {
        // One shard, three finished entries max.
        let cache = ShardedCache::with_capacity(1, 3);
        assert_eq!(cache.per_shard_capacity, 3);
        for k in 0..3u64 {
            lookup(&cache, k, || k);
        }
        // Touch 0 so 1 becomes the LRU entry, then overflow.
        assert_eq!(cache.get(0), Some(0));
        lookup(&cache, 3, || 3);
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(cache.get(1), None, "LRU key evicted");
        assert_eq!(cache.get(0), Some(0));
        assert_eq!(cache.get(3), Some(3));
        // A stream of unique keys stays bounded forever.
        for k in 100..1100u64 {
            lookup(&cache, k, || k);
        }
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn capacity_spreads_over_shards() {
        let cache = ShardedCache::with_capacity(4, 8);
        assert_eq!(cache.per_shard_capacity, 2);
        for k in 0..64u64 {
            lookup(&cache, k, || k);
        }
        assert!(cache.stats().entries <= 8);
    }

    #[test]
    fn rejected_values_are_returned_but_not_resident() {
        let cache: ShardedCache<Result<u64, String>> = unbounded(2);
        let (v, r) =
            cache.get_or_compute_observed(9, || Err("transient".to_owned()), |v| v.is_ok());
        assert_eq!(v, Err("transient".to_owned()));
        assert!(!r.hit);
        assert_eq!(cache.get(9), None, "transient outcome must not stick");
        assert_eq!(cache.stats().uncached, 1);
        // The key recovers: a later successful compute is cached normally.
        let (v, r) = cache.get_or_compute_observed(9, || Ok(5), |v| v.is_ok());
        assert_eq!((v, r.hit), (Ok(5), false));
        assert_eq!(cache.get(9), Some(Ok(5)));
        assert!(lookup(&cache, 9, || unreachable!()).1);
    }

    #[test]
    fn observed_resolution_reports_wait_and_evictions() {
        // Publishing over capacity reports the evictions it caused.
        let cache = ShardedCache::with_capacity(1, 1);
        let (_, r) = cache.get_or_compute_observed(1, || 1u64, |_| true);
        assert_eq!((r.hit, r.waited, r.evictions), (false, None, 0));
        let (_, r) = cache.get_or_compute_observed(2, || 2u64, |_| true);
        assert_eq!((r.hit, r.evictions), (false, 1));
        // A caller blocked behind an in-flight computation reports the wait.
        let cache: Arc<ShardedCache<u64>> = Arc::new(unbounded(1));
        let c = Arc::clone(&cache);
        let computer = std::thread::spawn(move || {
            c.get_or_compute_observed(
                9,
                || {
                    std::thread::sleep(std::time::Duration::from_millis(60));
                    7u64
                },
                |_| true,
            )
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (v, r) = cache.get_or_compute_observed(9, || unreachable!(), |_| true);
        assert_eq!(v, 7);
        assert!(r.hit);
        assert!(
            r.waited
                .is_some_and(|w| w >= std::time::Duration::from_millis(10)),
            "{r:?}"
        );
        let (_, r0) = computer.join().unwrap();
        assert!(!r0.hit && r0.waited.is_none(), "{r0:?}");
    }

    #[test]
    fn waiters_behind_a_rejected_value_recompute() {
        let cache: Arc<ShardedCache<u64>> = Arc::new(unbounded(1));
        let calls = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    cache.get_or_compute_observed(
                        7,
                        move || {
                            let n = calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            n as u64
                        },
                        // Reject the very first compute, keep later ones.
                        |v| *v > 0,
                    )
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // At least one recompute happened after the rejected first value,
        // and the surviving entry is a retained one.
        assert!(calls.load(Ordering::SeqCst) >= 2);
        let resident = cache.get(7);
        assert!(resident.is_some() && resident != Some(0));
    }
}
