//! The server's content-addressed result cache.
//!
//! A [`ResultCache`] maps a job's wire encoding to its finished output.
//! Entries are weighed in bytes and evicted least-recently-used to fit a
//! budget; concurrent lookups of one key coalesce into a single
//! computation (single-flight): the first caller leads, the rest follow
//! and wait for the leader's result.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Weight of one cached value, in bytes. The [`ResultCache`] evicts by
/// least-recent use until the summed weight fits its byte budget.
pub trait CacheWeight {
    /// Approximate retained size of the value, in bytes.
    fn weight(&self) -> usize;
}

/// Counters of one [`ResultCache`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ResultCacheStats {
    /// Lookups answered from a ready entry.
    pub hits: u64,
    /// Lookups that became the leader of a fresh computation.
    pub misses: u64,
    /// Lookups that joined an in-flight computation instead of starting
    /// their own (the single-flight dedup path).
    pub coalesced: u64,
    /// Ready entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Computations completed with an error (errors are never cached).
    pub failures: u64,
    /// Values too large for the whole budget, returned but never cached.
    pub uncacheable: u64,
    /// Ready entries currently cached.
    pub entries: usize,
    /// Summed weight of the ready entries, in bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
}

impl ResultCacheStats {
    /// Fraction of lookups served from a ready entry, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Flight<V> {
    done: Mutex<Option<Result<Arc<V>, String>>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

enum Slot<V> {
    Ready {
        value: Arc<V>,
        weight: usize,
        stamp: u64,
    },
    InFlight(Arc<Flight<V>>),
}

struct ResultInner<V> {
    map: HashMap<Vec<u8>, Slot<V>>,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    failures: u64,
    uncacheable: u64,
}

/// What a [`ResultCache::lookup`] call found.
pub enum Lookup<V> {
    /// The value is cached; here it is.
    Hit(Arc<V>),
    /// Nothing cached and nothing in flight: the caller is now the
    /// **leader** and must eventually call [`ResultCache::complete`] for
    /// this key (on success *and* on failure), or every follower blocks
    /// forever. Run the computation, then wait on the handle like any
    /// follower.
    Lead(FlightHandle<V>),
    /// Another caller is already computing this key: wait on the handle
    /// for its result (single-flight deduplication).
    Follow(FlightHandle<V>),
}

/// A handle onto an in-flight computation; redeem it with
/// [`ResultCache::wait`].
pub struct FlightHandle<V> {
    flight: Arc<Flight<V>>,
}

/// Outcome of waiting on a [`FlightHandle`].
pub enum WaitOutcome<V> {
    /// The computation finished; the value is (possibly) cached and here.
    Ready(Arc<V>),
    /// The computation failed with this message. Failures are not cached:
    /// the next lookup of the key leads a fresh attempt.
    Failed(String),
    /// The caller's deadline expired before the leader completed. The
    /// computation keeps running and will populate the cache normally.
    TimedOut,
}

/// A content-addressed result cache with single-flight deduplication and
/// an LRU byte budget.
///
/// Keys are **canonical byte strings** (the encoded job content); two
/// requests with byte-identical keys are by construction the same job, so
/// repeat traffic is a cache hit and *concurrent* identical requests run
/// the computation exactly once — followers block on the leader's flight
/// and share its `Arc`'d result. This is the synthesis cache's design
/// ([`sctc_temporal::SynthesisCache`]) applied one level up: instead of
/// memoizing AR automata per formula, it memoizes whole campaign/SMC
/// reports per job, keyed on the jobs-independent fingerprints the
/// campaign layer already guarantees.
///
/// The cache never blocks a lookup on another key's computation: the inner
/// lock is held only for map bookkeeping, and waiting happens on the
/// per-flight condvar.
pub struct ResultCache<V> {
    inner: Mutex<ResultInner<V>>,
    budget: usize,
}

impl<V: CacheWeight> ResultCache<V> {
    /// An empty cache with the given byte budget.
    pub fn new(budget: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultInner {
                map: HashMap::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
                failures: 0,
                uncacheable: 0,
            }),
            budget,
        }
    }

    fn lock(&self) -> MutexGuard<'_, ResultInner<V>> {
        // Completion never leaves a half-inserted entry behind, so a
        // poisoned lock is safe to keep using (same policy as
        // `SynthesisCache`).
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`: a ready entry is a [`Lookup::Hit`], an in-flight
    /// computation a [`Lookup::Follow`], a vacant slot makes the caller
    /// the [`Lookup::Lead`]er.
    pub fn lookup(&self, key: &[u8]) -> Lookup<V> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        match inner.map.get_mut(key) {
            Some(Slot::Ready { value, stamp, .. }) => {
                *stamp = now;
                let value = value.clone();
                inner.hits += 1;
                Lookup::Hit(value)
            }
            Some(Slot::InFlight(flight)) => {
                let flight = flight.clone();
                inner.coalesced += 1;
                Lookup::Follow(FlightHandle { flight })
            }
            None => {
                inner.misses += 1;
                let flight = Arc::new(Flight::new());
                inner
                    .map
                    .insert(key.to_vec(), Slot::InFlight(flight.clone()));
                Lookup::Lead(FlightHandle { flight })
            }
        }
    }

    /// Completes the in-flight computation for `key`: caches the value (if
    /// it fits), wakes every waiter, and — on `Err` — removes the slot so
    /// the next lookup retries. Must be called exactly once per
    /// [`Lookup::Lead`].
    pub fn complete(&self, key: &[u8], result: Result<V, String>) {
        let result = result.map(Arc::new);
        let flight = {
            let mut inner = self.lock();
            let flight = match inner.map.remove(key) {
                Some(Slot::InFlight(flight)) => Some(flight),
                Some(ready @ Slot::Ready { .. }) => {
                    // Shouldn't happen (only the leader completes), but
                    // restore rather than lose the entry.
                    inner.map.insert(key.to_vec(), ready);
                    None
                }
                None => None,
            };
            match &result {
                Ok(value) => {
                    let weight = value.weight();
                    if weight > self.budget {
                        inner.uncacheable += 1;
                    } else {
                        inner.clock += 1;
                        let stamp = inner.clock;
                        inner.bytes += weight;
                        inner.map.insert(
                            key.to_vec(),
                            Slot::Ready {
                                value: value.clone(),
                                weight,
                                stamp,
                            },
                        );
                        // Evict least-recently-used ready entries until the
                        // budget holds; the entry just inserted carries the
                        // newest stamp, so it is evicted last.
                        while inner.bytes > self.budget {
                            let victim = inner
                                .map
                                .iter()
                                .filter_map(|(k, slot)| match slot {
                                    Slot::Ready { stamp, .. } => Some((*stamp, k.clone())),
                                    Slot::InFlight(_) => None,
                                })
                                .min()
                                .map(|(_, k)| k);
                            let Some(victim) = victim else { break };
                            if let Some(Slot::Ready { weight, .. }) = inner.map.remove(&victim) {
                                inner.bytes -= weight;
                                inner.evictions += 1;
                            }
                        }
                    }
                }
                Err(_) => inner.failures += 1,
            }
            flight
        };
        if let Some(flight) = flight {
            let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = Some(result);
            flight.cv.notify_all();
        }
    }

    /// Blocks until the flight completes (or `timeout` expires, when
    /// given). Leaders call this after scheduling their computation;
    /// followers call it directly.
    pub fn wait(&self, handle: &FlightHandle<V>, timeout: Option<Duration>) -> WaitOutcome<V> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut done = handle.flight.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = done.as_ref() {
                return match result {
                    Ok(value) => WaitOutcome::Ready(value.clone()),
                    Err(message) => WaitOutcome::Failed(message.clone()),
                };
            }
            match deadline {
                None => {
                    done = handle
                        .flight
                        .cv
                        .wait(done)
                        .unwrap_or_else(|e| e.into_inner());
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return WaitOutcome::TimedOut;
                    }
                    let (guard, _) = handle
                        .flight
                        .cv
                        .wait_timeout(done, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    done = guard;
                }
            }
        }
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.lock();
        ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            failures: inner.failures,
            uncacheable: inner.uncacheable,
            entries: inner
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { .. }))
                .count(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheWeight for Vec<u8> {
        fn weight(&self) -> usize {
            self.len()
        }
    }

    fn run_leader(cache: &ResultCache<Vec<u8>>, key: &[u8], value: Vec<u8>) -> Arc<Vec<u8>> {
        match cache.lookup(key) {
            Lookup::Hit(v) => v,
            Lookup::Lead(handle) => {
                cache.complete(key, Ok(value));
                match cache.wait(&handle, None) {
                    WaitOutcome::Ready(v) => v,
                    _ => panic!("leader's own completion must be ready"),
                }
            }
            Lookup::Follow(_) => panic!("no concurrency in this test"),
        }
    }

    #[test]
    fn result_cache_hits_after_first_completion() {
        let cache = ResultCache::new(1024);
        let first = run_leader(&cache, b"job-1", vec![1, 2, 3]);
        let Lookup::Hit(second) = cache.lookup(b"job-1") else {
            panic!("second lookup must hit");
        };
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 3);
    }

    #[test]
    fn result_cache_evicts_least_recently_used_to_fit_budget() {
        let cache = ResultCache::new(10);
        run_leader(&cache, b"a", vec![0; 4]);
        run_leader(&cache, b"b", vec![0; 4]);
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(cache.lookup(b"a"), Lookup::Hit(_)));
        run_leader(&cache, b"c", vec![0; 4]);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 10);
        assert!(matches!(cache.lookup(b"a"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(b"c"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(b"b"), Lookup::Lead(_)));
        cache.complete(b"b", Err("abandoned".into()));
    }

    #[test]
    fn result_cache_never_caches_values_larger_than_the_budget() {
        let cache = ResultCache::new(4);
        run_leader(&cache, b"big", vec![0; 64]);
        let stats = cache.stats();
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert!(matches!(cache.lookup(b"big"), Lookup::Lead(_)));
        cache.complete(b"big", Err("abandoned".into()));
    }

    #[test]
    fn result_cache_failures_are_not_cached_and_wake_followers() {
        let cache = Arc::new(ResultCache::new(1024));
        let Lookup::Lead(_lead) = cache.lookup(b"k") else {
            panic!("first lookup leads");
        };
        let follower = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let Lookup::Follow(handle) = cache.lookup(b"k") else {
                    panic!("second lookup follows");
                };
                match cache.wait(&handle, None) {
                    WaitOutcome::Failed(message) => message,
                    _ => panic!("follower must observe the failure"),
                }
            })
        };
        // Give the follower a moment to join the flight, then fail it.
        while cache.stats().coalesced == 0 {
            std::thread::yield_now();
        }
        cache.complete(b"k", Err("synthetic".into()));
        assert_eq!(follower.join().unwrap(), "synthetic");
        let stats = cache.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.entries, 0);
        // The key retries from scratch.
        assert!(matches!(cache.lookup(b"k"), Lookup::Lead(_)));
        cache.complete(b"k", Ok(vec![7]));
    }

    #[test]
    fn result_cache_single_flight_runs_concurrent_identical_keys_once() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let runs = runs.clone();
                std::thread::spawn(move || {
                    let outcome = match cache.lookup(b"shared-job") {
                        Lookup::Hit(v) => WaitOutcome::Ready(v),
                        Lookup::Lead(handle) => {
                            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            cache.complete(b"shared-job", Ok(vec![42]));
                            cache.wait(&handle, None)
                        }
                        Lookup::Follow(handle) => cache.wait(&handle, None),
                    };
                    match outcome {
                        WaitOutcome::Ready(v) => v[0],
                        _ => panic!("all callers share the one result"),
                    }
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 42);
        }
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }

    #[test]
    fn result_cache_wait_times_out_and_flight_still_completes() {
        let cache = Arc::new(ResultCache::new(1024));
        let Lookup::Lead(lead) = cache.lookup(b"slow") else {
            panic!("first lookup leads");
        };
        let waited = cache.wait(&lead, Some(Duration::from_millis(5)));
        assert!(matches!(waited, WaitOutcome::TimedOut));
        cache.complete(b"slow", Ok(vec![9]));
        match cache.wait(&lead, Some(Duration::from_millis(5))) {
            WaitOutcome::Ready(v) => assert_eq!(*v, vec![9]),
            _ => panic!("completed flight must be ready"),
        }
        assert!(matches!(cache.lookup(b"slow"), Lookup::Hit(_)));
    }
}
