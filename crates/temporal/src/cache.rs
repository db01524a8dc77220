//! Shared AR-automaton synthesis cache.
//!
//! Synthesizing an AR-automaton is the dominant registration cost for large
//! time bounds (the paper's "large AR-automaton generation time" at
//! TB-10000). A verification *campaign* registers the same handful of
//! properties over and over — once per property, per testbench
//! configuration, per worker shard — so a process-wide cache turns
//! `properties × sweeps × shards` synthesis runs into one per distinct
//! formula.
//!
//! The cache key is the **canonical IL form** of the formula: formulas are
//! interned into the hash-consed [`IlStore`] and rendered from the root
//! node, so spelling variants that normalise to the same IL node (e.g.
//! `eventually! p` and `F p`) share one automaton. Cached automata are
//! immutable and handed out as [`Arc`]s; [`TableMonitor`] instances step
//! them without copying the transition table.
//!
//! [`TableMonitor`]: crate::TableMonitor
//!
//! # Examples
//!
//! ```
//! use sctc_temporal::{parse, SynthesisCache};
//!
//! let cache = SynthesisCache::new();
//! let a = cache.synthesize(&parse("F[<=100] p")?).unwrap();
//! let b = cache.synthesize(&parse("F[<=100] p")?).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! # Ok::<(), sctc_temporal::ParseError>(())
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::ast::Formula;
use crate::automaton::{ArAutomaton, SynthesisError};
use crate::il::IlStore;

/// Counters of one [`SynthesisCache`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to synthesize.
    pub misses: u64,
    /// Distinct automata currently cached.
    pub entries: usize,
    /// Wall-clock time spent synthesizing on misses.
    pub synthesis_wall: Duration,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`
    /// (`0` before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference against an earlier snapshot (entry count is kept
    /// absolute). Lets a campaign report its own hit rate on the shared
    /// global cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            synthesis_wall: self.synthesis_wall.saturating_sub(earlier.synthesis_wall),
        }
    }
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Arc<ArAutomaton>>,
    hits: u64,
    misses: u64,
    synthesis_wall: Duration,
}

/// A synthesis cache: canonical IL text → [`Arc`]-shared [`ArAutomaton`].
///
/// Thread-safe. The lock is held across a miss's synthesis run, so
/// concurrent registrations of the same formula synthesize it **exactly
/// once** — the second registrant blocks briefly and then shares the
/// result. Campaign workers all register at startup, so the serialisation
/// window is the first shard's registration only.
#[derive(Default)]
pub struct SynthesisCache {
    inner: Mutex<Inner>,
}

impl SynthesisCache {
    /// Creates an empty private cache (tests; production code normally uses
    /// [`SynthesisCache::global`]).
    pub fn new() -> Self {
        SynthesisCache::default()
    }

    /// The process-wide cache shared by every checker instance.
    pub fn global() -> &'static SynthesisCache {
        static GLOBAL: OnceLock<SynthesisCache> = OnceLock::new();
        GLOBAL.get_or_init(SynthesisCache::new)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic mid-synthesis leaves no partial entry behind (insertion
        // happens after synthesis succeeds), so a poisoned lock is safe to
        // keep using.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the automaton for `formula`, synthesizing on first use.
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`]. Errors are not cached; a failing formula
    /// fails again (cheaply — the proposition check precedes enumeration).
    pub fn synthesize(&self, formula: &Formula) -> Result<Arc<ArAutomaton>, SynthesisError> {
        let (store, root) = IlStore::from_formula(formula)?;
        let key = store.render(root);
        let mut inner = self.lock();
        if let Some(cached) = inner.entries.get(&key).cloned() {
            inner.hits += 1;
            return Ok(cached);
        }
        let t0 = Instant::now();
        let automaton = Arc::new(ArAutomaton::synthesize(formula)?);
        inner.synthesis_wall += t0.elapsed();
        inner.misses += 1;
        inner.entries.insert(key, automaton.clone());
        Ok(automaton)
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
            synthesis_wall: inner.synthesis_wall,
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        *self.lock() = Inner::default();
    }
}

impl std::fmt::Debug for SynthesisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SynthesisCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn distinct_bounds_are_distinct_entries() {
        let cache = SynthesisCache::new();
        for bound in [100u64, 1000, 10_000] {
            cache
                .synthesize(&parse(&format!("F[<={bound}] p")).unwrap())
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn repeated_synthesis_hits_and_shares() {
        let cache = SynthesisCache::new();
        let f = parse("G (a -> F[<=50] b)").unwrap();
        let first = cache.synthesize(&f).unwrap();
        for _ in 0..9 {
            let again = cache.synthesize(&f).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert!(stats.hit_rate() > 0.89);
        assert!(stats.synthesis_wall > Duration::ZERO);
    }

    #[test]
    fn spelling_variants_share_one_entry() {
        let cache = SynthesisCache::new();
        let a = cache.synthesize(&parse("eventually! p").unwrap()).unwrap();
        let b = cache.synthesize(&parse("F p").unwrap()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SynthesisCache::new();
        let mut text = String::from("p0");
        for i in 1..13 {
            text.push_str(&format!(" & p{i}"));
        }
        let f = parse(&text).unwrap();
        assert!(cache.synthesize(&f).is_err());
        assert!(cache.synthesize(&f).is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = SynthesisCache::new();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let cache = SynthesisCache::new();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        let snap = cache.stats();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        cache.synthesize(&parse("F[<=6] p").unwrap()).unwrap();
        let delta = cache.stats().since(&snap);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.entries, 2);
    }

    #[test]
    fn concurrent_synthesis_is_exactly_once() {
        let cache = Arc::new(SynthesisCache::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    cache
                        .synthesize(&parse("G (a -> F[<=200] b)").unwrap())
                        .unwrap()
                        .state_count()
                })
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }
}
