//! The TTL-aware answer cache.
//!
//! Keys are `(owner name, query type)`; values are full [`Resolution`]s so
//! a hit reproduces the uncached observation byte for byte. Entries honour
//! record TTLs against the recursor's virtual clock; authoritative negative
//! answers (NXDOMAIN / NODATA) are cached per RFC 2308 with the zone's SOA
//! `minimum` as their lifetime. The cache is capacity-bounded per shard:
//! a key's hash picks its shard, and a full shard evicts its
//! earliest-expiring entry, which a fresh insert is about to outlive
//! anyway. Which entries a day's inserts evict decides which packets are
//! sent, so the shard routing and per-shard capacity are part of the
//! resolver's behaviour. Each shard keeps a `BTreeMap` expiry index beside
//! the hash map so the victim is found in O(log n) instead of a full scan.

use dps_authdns::resolver::Resolution;
use dps_dns::{Name, RrType};
use dps_telemetry::{Counter, Registry};
// dps: allow-file(unordered-collection, reason = "each shard's answer map is a keyed lookup only, never iterated; eviction order comes from the BTreeMap expiry index")
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// Answer-cache tunables.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum cached answers across all shards.
    pub capacity: usize,
    /// Number of shards, each with its own capacity bound (rounded up to
    /// at least 1).
    pub shards: usize,
    /// Negative-answer lifetime when the response carried no SOA to take
    /// RFC 2308's `minimum` from (seconds).
    pub negative_ttl_fallback: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 100_000,
            shards: 16,
            negative_ttl_fallback: 300,
        }
    }
}

/// A cached resolution with its expiry.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The resolution served on a hit.
    pub resolution: Resolution,
    /// Absolute virtual expiry (µs).
    pub expires_at_us: u64,
    /// True for RFC 2308 negative entries (NXDOMAIN / NODATA).
    pub negative: bool,
    /// Insertion sequence number; tie-breaks the shard's expiry index.
    expiry_seq: u64,
}

/// Monotonic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their TTL had lapsed at lookup time.
    pub expirations: u64,
}

type Key = (Name, RrType);

/// One shard: the answer map plus an expiry-ordered index over the same
/// entries, so capacity eviction pops the earliest expiry in O(log n)
/// rather than scanning the whole map.
#[derive(Default)]
struct ShardState {
    map: HashMap<Key, CachedAnswer>,
    by_expiry: BTreeMap<(u64, u64), Key>,
    next_seq: u64,
}

/// Telemetry handles mirroring the lookup-path [`CacheStats`] counters
/// into a shared registry (`recursor.answer.*`). `Default` handles are
/// detached — they count, but belong to no registry.
#[derive(Clone, Default)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    expired: Counter,
}

impl CacheMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            hits: registry.counter("recursor.answer.hits"),
            misses: registry.counter("recursor.answer.misses"),
            expired: registry.counter("recursor.answer.expired"),
        }
    }
}

/// Sharded, TTL-aware cache of complete resolutions.
pub struct AnswerCache {
    shards: Vec<ShardState>,
    shard_capacity: usize,
    stats: CacheStats,
    metrics: CacheMetrics,
}

impl AnswerCache {
    /// An empty cache sized by `config`.
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        // Ceil-divide so the whole-cache bound is at least `capacity`.
        let shard_capacity = config.capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| ShardState::default()).collect(),
            shard_capacity,
            stats: CacheStats::default(),
            metrics: CacheMetrics::default(),
        }
    }

    /// Routes this cache's lookup counters into `registry`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.metrics = CacheMetrics::new(registry);
        self
    }

    /// The index of the shard `(qname, qtype)` routes to: the key tuple's
    /// hash (a borrowed name hashes like an owned one).
    fn shard_of(&self, qname: &Name, qtype: RrType) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (qname, qtype).hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// The resolution cached for `(qname, qtype)`, if still live at
    /// `now_us`. Expired entries are dropped on contact.
    pub fn get(&mut self, qname: &Name, qtype: RrType, now_us: u64) -> Option<Resolution> {
        self.get_with_expiry(qname, qtype, now_us).map(|(r, _)| r)
    }

    /// Like [`AnswerCache::get`], but also returns the entry's absolute
    /// expiry (µs). Callers that re-cache a replayed answer under a new
    /// name must cap the derived TTL by the remaining lifetime, as a real
    /// resolver decrements TTLs on replay.
    pub fn get_with_expiry(
        &mut self,
        qname: &Name,
        qtype: RrType,
        now_us: u64,
    ) -> Option<(Resolution, u64)> {
        let at = self.shard_of(qname, qtype);
        let state = self.shards.get_mut(at)?;
        let key = (qname.clone(), qtype);
        match state.map.get(&key) {
            Some(e) if e.expires_at_us > now_us => {
                self.stats.hits += 1;
                self.metrics.hits.inc();
                Some((e.resolution.clone(), e.expires_at_us))
            }
            Some(_) => {
                if let Some(dead) = state.map.remove(&key) {
                    state
                        .by_expiry
                        .remove(&(dead.expires_at_us, dead.expiry_seq));
                }
                self.stats.expirations += 1;
                self.stats.misses += 1;
                self.metrics.expired.inc();
                self.metrics.misses.inc();
                None
            }
            None => {
                self.stats.misses += 1;
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Whether the live entry for `(qname, qtype)` is negative. `None` when
    /// nothing (live) is cached. Does not touch hit/miss counters.
    pub fn negative(&self, qname: &Name, qtype: RrType, now_us: u64) -> Option<bool> {
        self.shards
            .get(self.shard_of(qname, qtype))?
            .map
            .get(&(qname.clone(), qtype))
            .filter(|e| e.expires_at_us > now_us)
            .map(|e| e.negative)
    }

    /// Stores `resolution` for `ttl_secs` starting at `now_us`. A positive
    /// insert over a negative entry (or vice versa) simply replaces it —
    /// the answer a zone serves *now* wins. A zero TTL is uncacheable and
    /// ignored.
    pub fn insert(
        &mut self,
        qname: &Name,
        qtype: RrType,
        resolution: Resolution,
        ttl_secs: u32,
        negative: bool,
        now_us: u64,
    ) {
        if ttl_secs == 0 {
            return;
        }
        let at = self.shard_of(qname, qtype);
        let Some(state) = self.shards.get_mut(at) else {
            return;
        };
        let key = (qname.clone(), qtype);
        let expires_at_us = now_us + u64::from(ttl_secs) * 1_000_000;
        let expiry_seq = state.next_seq;
        state.next_seq += 1;
        if let Some(old) = state.map.remove(&key) {
            state.by_expiry.remove(&(old.expires_at_us, old.expiry_seq));
        } else if state.map.len() >= self.shard_capacity {
            // Evict the entry closest to dying of old age.
            if let Some((_, victim)) = state.by_expiry.pop_first() {
                state.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        state
            .by_expiry
            .insert((expires_at_us, expiry_seq), key.clone());
        state.map.insert(
            key,
            CachedAnswer {
                resolution,
                expires_at_us,
                negative,
                expiry_seq,
            },
        );
        self.stats.inserts += 1;
    }

    /// Live + expired-but-unswept entries currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_dns::Rcode;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn res(rcode: Rcode) -> Resolution {
        Resolution {
            rcode,
            answers: vec![],
            elapsed_us: 0,
        }
    }

    #[test]
    fn serves_until_ttl_then_expires() {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        cache.insert(
            &n("a.test"),
            RrType::A,
            res(Rcode::NoError),
            30,
            false,
            1_000,
        );
        assert!(cache.get(&n("a.test"), RrType::A, 1_000).is_some());
        assert!(cache.get(&n("a.test"), RrType::A, 30_000_999).is_some());
        assert!(cache.get(&n("a.test"), RrType::A, 30_001_000).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (2, 1, 1));
    }

    #[test]
    fn capacity_evicts_earliest_expiry() {
        let mut cache = AnswerCache::new(&CacheConfig {
            capacity: 2,
            shards: 1,
            ..Default::default()
        });
        cache.insert(
            &n("long.test"),
            RrType::A,
            res(Rcode::NoError),
            600,
            false,
            0,
        );
        cache.insert(
            &n("short.test"),
            RrType::A,
            res(Rcode::NoError),
            5,
            false,
            0,
        );
        cache.insert(&n("new.test"), RrType::A, res(Rcode::NoError), 60, false, 0);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&n("short.test"), RrType::A, 0).is_none(),
            "earliest expiry evicted"
        );
        assert!(cache.get(&n("long.test"), RrType::A, 0).is_some());
        assert!(cache.get(&n("new.test"), RrType::A, 0).is_some());
    }

    #[test]
    fn positive_insert_replaces_negative_entry() {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        cache.insert(
            &n("flip.test"),
            RrType::A,
            res(Rcode::NxDomain),
            300,
            true,
            0,
        );
        assert_eq!(cache.negative(&n("flip.test"), RrType::A, 0), Some(true));
        cache.insert(
            &n("flip.test"),
            RrType::A,
            res(Rcode::NoError),
            300,
            false,
            0,
        );
        assert_eq!(cache.negative(&n("flip.test"), RrType::A, 0), Some(false));
        assert_eq!(
            cache.get(&n("flip.test"), RrType::A, 1).unwrap().rcode,
            Rcode::NoError
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_ttl_is_not_cached() {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        cache.insert(&n("zero.test"), RrType::A, res(Rcode::NoError), 0, false, 0);
        assert!(cache.is_empty());
    }
}
