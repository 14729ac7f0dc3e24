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
//! resolver's behaviour. A key is hashed once per operation (`DefaultHasher`
//! over `(qname, qtype)`): that hash picks the shard and keys the shard's
//! map, and a lookup borrows the caller's name instead of building a key.
//! Each shard keeps a `BTreeMap` expiry index beside the map so the victim
//! is found in O(log n) instead of a full scan.

use dps_authdns::resolver::Resolution;
use dps_dns::{Name, RrType};
use dps_telemetry::{Counter, Registry};
// dps: allow-file(unordered-collection, reason = "each shard's answer map is a keyed lookup only, never iterated; eviction order comes from the BTreeMap expiry index")
use std::collections::hash_map::{DefaultHasher, Entry as MapEntry};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Answer-cache tunables.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum cached answers across all shards. `0` stores nothing:
    /// every lookup misses without hashing its key.
    pub capacity: usize,
    /// Number of shards (at least 1), each with its own capacity bound:
    /// `capacity / shards`, rounded up.
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

/// A cached answer with the key it was stored under.
struct Entry {
    qname: Name,
    qtype: RrType,
    answer: CachedAnswer,
}

impl Entry {
    fn is(&self, qname: &Name, qtype: RrType) -> bool {
        self.qtype == qtype && self.qname == *qname
    }
}

/// A shard's entries whose keys share one 64-bit hash: almost always
/// one; a true collision keeps the others in `more`.
struct Bucket {
    first: Entry,
    more: Vec<Entry>,
}

/// Hashes a key's precomputed 64-bit hash to itself, so the shard map
/// does not hash a name a second time.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The `(qname, qtype)` hash that routes a key to its shard and finds it
/// in the shard's map.
fn key_hash(qname: &Name, qtype: RrType) -> u64 {
    let mut h = DefaultHasher::new();
    (qname, qtype).hash(&mut h);
    h.finish()
}

/// One shard: the answers by key hash plus an expiry-ordered index over
/// the same entries (each as its key hash), so capacity eviction pops
/// the earliest expiry in O(log n) rather than scanning the whole map.
#[derive(Default)]
struct ShardState {
    map: HashMap<u64, Bucket, BuildHasherDefault<KeyHasher>>,
    by_expiry: BTreeMap<(u64, u64), u64>,
    entries: usize,
    next_seq: u64,
}

impl ShardState {
    fn find(&self, hash: u64, qname: &Name, qtype: RrType) -> Option<&Entry> {
        let bucket = self.map.get(&hash)?;
        std::iter::once(&bucket.first)
            .chain(&bucket.more)
            .find(|e| e.is(qname, qtype))
    }

    fn find_mut(&mut self, hash: u64, qname: &Name, qtype: RrType) -> Option<&mut Entry> {
        let bucket = self.map.get_mut(&hash)?;
        std::iter::once(&mut bucket.first)
            .chain(&mut bucket.more)
            .find(|e| e.is(qname, qtype))
    }

    fn push(&mut self, hash: u64, entry: Entry) {
        match self.map.entry(hash) {
            MapEntry::Occupied(bucket) => bucket.into_mut().more.push(entry),
            MapEntry::Vacant(slot) => {
                slot.insert(Bucket {
                    first: entry,
                    more: Vec::new(),
                });
            }
        }
        self.entries += 1;
    }

    /// Removes the entry under `hash` that `which` picks, and its index
    /// entry.
    fn remove(&mut self, hash: u64, which: impl Fn(&Entry) -> bool) -> Option<Entry> {
        let bucket = self.map.get_mut(&hash)?;
        let gone = if which(&bucket.first) {
            match bucket.more.pop() {
                Some(next) => std::mem::replace(&mut bucket.first, next),
                None => self.map.remove(&hash)?.first,
            }
        } else {
            let i = bucket.more.iter().position(which)?;
            bucket.more.swap_remove(i)
        };
        self.entries -= 1;
        self.by_expiry
            .remove(&(gone.answer.expires_at_us, gone.answer.expiry_seq));
        Some(gone)
    }
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
        let shard_capacity = config.capacity.div_ceil(shards);
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

    /// The key hash of `(qname, qtype)` and the index of the shard it
    /// routes to.
    fn locate(&self, qname: &Name, qtype: RrType) -> (u64, usize) {
        let hash = key_hash(qname, qtype);
        (hash, (hash as usize) % self.shards.len())
    }

    /// The resolution cached for `(qname, qtype)`, if still live at
    /// `now_us`. Expired entries are dropped on contact.
    pub fn get(&mut self, qname: &Name, qtype: RrType, now_us: u64) -> Option<Resolution> {
        self.peek(qname, qtype, now_us).map(|(r, _)| r.clone())
    }

    /// Like [`AnswerCache::get`], but lends the cached resolution
    /// instead of copying it, with the entry's absolute expiry (µs).
    /// Callers that re-cache a replayed answer under a new name must cap
    /// the derived TTL by the remaining lifetime, as a real resolver
    /// decrements TTLs on replay. Counts as a lookup exactly as `get`
    /// does.
    pub fn peek(&mut self, qname: &Name, qtype: RrType, now_us: u64) -> Option<(&Resolution, u64)> {
        if self.shard_capacity == 0 {
            self.stats.misses += 1;
            self.metrics.misses.inc();
            return None;
        }
        let (hash, at) = self.locate(qname, qtype);
        let state = self.shards.get_mut(at)?;
        let Some(live) = state
            .find(hash, qname, qtype)
            .map(|e| e.answer.expires_at_us > now_us)
        else {
            self.stats.misses += 1;
            self.metrics.misses.inc();
            return None;
        };
        if !live {
            state.remove(hash, |e| e.is(qname, qtype));
            self.stats.expirations += 1;
            self.stats.misses += 1;
            self.metrics.expired.inc();
            self.metrics.misses.inc();
            return None;
        }
        self.stats.hits += 1;
        self.metrics.hits.inc();
        state
            .find(hash, qname, qtype)
            .map(|e| (&e.answer.resolution, e.answer.expires_at_us))
    }

    /// Whether the live entry for `(qname, qtype)` is negative. `None` when
    /// nothing (live) is cached. Does not touch hit/miss counters.
    pub fn negative(&self, qname: &Name, qtype: RrType, now_us: u64) -> Option<bool> {
        if self.shard_capacity == 0 {
            return None;
        }
        let (hash, at) = self.locate(qname, qtype);
        self.shards
            .get(at)?
            .find(hash, qname, qtype)
            .filter(|e| e.answer.expires_at_us > now_us)
            .map(|e| e.answer.negative)
    }

    /// Stores `resolution` for `ttl_secs` starting at `now_us`. A positive
    /// insert over a negative entry (or vice versa) simply replaces it —
    /// the answer a zone serves *now* wins. A zero TTL is uncacheable and
    /// ignored, as is every insert into a zero-capacity cache.
    pub fn insert(
        &mut self,
        qname: &Name,
        qtype: RrType,
        resolution: Resolution,
        ttl_secs: u32,
        negative: bool,
        now_us: u64,
    ) {
        if ttl_secs == 0 || self.shard_capacity == 0 {
            return;
        }
        let (hash, at) = self.locate(qname, qtype);
        let Some(state) = self.shards.get_mut(at) else {
            return;
        };
        let expires_at_us = now_us + u64::from(ttl_secs) * 1_000_000;
        let expiry_seq = state.next_seq;
        state.next_seq += 1;
        let answer = CachedAnswer {
            resolution,
            expires_at_us,
            negative,
            expiry_seq,
        };
        if let Some(entry) = state.find_mut(hash, qname, qtype) {
            // The key is already held: swap the answer in place.
            let old = std::mem::replace(&mut entry.answer, answer);
            state.by_expiry.remove(&(old.expires_at_us, old.expiry_seq));
        } else {
            if state.entries >= self.shard_capacity {
                // Evict the entry closest to dying of old age.
                if let Some(((_, seq), victim)) = state.by_expiry.pop_first() {
                    state.remove(victim, |e| e.answer.expiry_seq == seq);
                    self.stats.evictions += 1;
                }
            }
            state.push(
                hash,
                Entry {
                    qname: qname.clone(),
                    qtype,
                    answer,
                },
            );
        }
        state.by_expiry.insert((expires_at_us, expiry_seq), hash);
        self.stats.inserts += 1;
    }

    /// Live + expired-but-unswept entries currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries).sum()
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
    fn keys_sharing_a_hash_stay_apart() {
        // Force three keys into one bucket, as a 64-bit hash collision
        // would.
        let mut shard = ShardState::default();
        let names = ["a.test", "b.test", "c.test"];
        for (seq, name) in names.iter().enumerate() {
            let answer = CachedAnswer {
                resolution: res(Rcode::NoError),
                expires_at_us: 10,
                negative: false,
                expiry_seq: seq as u64,
            };
            shard.push(
                7,
                Entry {
                    qname: n(name),
                    qtype: RrType::A,
                    answer,
                },
            );
            shard.by_expiry.insert((10, seq as u64), 7);
        }
        assert_eq!(shard.entries, 3);
        for name in names {
            assert!(shard.find(7, &n(name), RrType::A).is_some(), "{name}");
        }
        assert!(shard.find(7, &n("a.test"), RrType::Aaaa).is_none());
        assert!(shard.find(8, &n("a.test"), RrType::A).is_none());
        let gone = |e: Option<Entry>| e.map(|e| e.qname.to_string());
        let a = shard.remove(7, |e| e.is(&n("a.test"), RrType::A));
        assert_eq!(gone(a), Some("a.test.".into()));
        assert!(shard.find(7, &n("b.test"), RrType::A).is_some());
        let c = shard.remove(7, |e| e.answer.expiry_seq == 2);
        assert_eq!(gone(c), Some("c.test.".into()));
        let b = shard.remove(7, |e| e.is(&n("b.test"), RrType::A));
        assert_eq!(gone(b), Some("b.test.".into()));
        assert!(shard.map.is_empty() && shard.by_expiry.is_empty());
        assert_eq!(shard.entries, 0);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut cache = AnswerCache::new(&CacheConfig {
            capacity: 0,
            ..Default::default()
        });
        cache.insert(&n("a.test"), RrType::A, res(Rcode::NoError), 300, false, 0);
        assert!(cache.is_empty());
        assert!(cache.get(&n("a.test"), RrType::A, 0).is_none());
        assert_eq!(cache.negative(&n("a.test"), RrType::A, 0), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 0));
    }

    #[test]
    fn zero_ttl_is_not_cached() {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        cache.insert(&n("zero.test"), RrType::A, res(Rcode::NoError), 0, false, 0);
        assert!(cache.is_empty());
    }
}
