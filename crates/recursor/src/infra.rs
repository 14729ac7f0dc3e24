//! The infrastructure cache: referral NS sets and their glue.
//!
//! When a sweep asks about `d1.com`, the referral from the root teaches the
//! recursor where `com` lives. The next thousand `.com` domains in the
//! sweep should start at the TLD servers, not at the root — that is the
//! bulk of the packet savings a shared resolver cache buys. Entries map a
//! zone cut to the addresses that serve it and expire with the NS RRset's
//! TTL.

use dps_dns::Name;
// dps: allow-file(unordered-collection, reason = "the cut map is a keyed lookup only, never iterated; eviction order comes from the BTreeMap expiry index")
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;

#[derive(Debug, Clone)]
struct InfraEntry {
    servers: Vec<IpAddr>,
    expires_at_us: u64,
    /// Insertion sequence number; tie-breaks the expiry index.
    seq: u64,
}

/// The cut map, keyed by the cut's wire bytes so a descent can probe each
/// enclosing suffix of a name without building it, plus an expiry-ordered
/// index over the same entries: eviction pops the earliest expiry (the
/// earliest insert among equals) in O(log n) instead of scanning the map.
#[derive(Default)]
struct InfraState {
    cuts: HashMap<Vec<u8>, InfraEntry>,
    by_expiry: BTreeMap<(u64, u64), Vec<u8>>,
    next_seq: u64,
}

impl InfraState {
    fn remove(&mut self, cut: &[u8]) {
        if let Some(old) = self.cuts.remove(cut) {
            self.by_expiry.remove(&(old.expires_at_us, old.seq));
        }
    }
}

/// Capacity-bounded cache of zone cut → name-server addresses.
pub struct InfraCache {
    state: InfraState,
    capacity: usize,
}

impl InfraCache {
    /// An empty cache holding at most `capacity` cuts. A zero-capacity
    /// cache stores nothing, and every descent starts at the root.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: InfraState::default(),
            capacity,
        }
    }

    /// Records that `cut` is served by `servers` for `ttl_secs`. A full
    /// cache first evicts the cut closest to expiry; a cut already held
    /// is refreshed in place.
    pub fn put(&mut self, cut: &Name, servers: &[IpAddr], ttl_secs: u32, now_us: u64) {
        if ttl_secs == 0 || servers.is_empty() || self.capacity == 0 {
            return;
        }
        let state = &mut self.state;
        let seq = state.next_seq;
        state.next_seq += 1;
        let expires_at_us = now_us + u64::from(ttl_secs) * 1_000_000;
        if let Some(e) = state.cuts.get_mut(cut.as_wire()) {
            let stale = (e.expires_at_us, e.seq);
            e.servers.clear();
            e.servers.extend_from_slice(servers);
            e.expires_at_us = expires_at_us;
            e.seq = seq;
            if let Some(key) = state.by_expiry.remove(&stale) {
                state.by_expiry.insert((expires_at_us, seq), key);
            }
            return;
        }
        if state.cuts.len() >= self.capacity {
            if let Some((_, victim)) = state.by_expiry.pop_first() {
                state.cuts.remove(&victim);
            }
        }
        let key = cut.as_wire().to_vec();
        state.by_expiry.insert((expires_at_us, seq), key.clone());
        state.cuts.insert(
            key,
            InfraEntry {
                servers: servers.to_vec(),
                expires_at_us,
                seq,
            },
        );
    }

    /// Where the deepest live cut enclosing the name `wire` starts in it.
    /// Walks towards the root; expired entries along the way are dropped.
    fn deepest_at(&mut self, wire: &[u8], now_us: u64) -> Option<usize> {
        let state = &mut self.state;
        let mut at = 0usize;
        // Each suffix of the wire form starting at a label boundary is an
        // enclosing name; the final root octet ends the walk.
        while let Some(&len) = wire.get(at).filter(|&&len| len != 0) {
            let suffix = wire.get(at..)?;
            match state.cuts.get(suffix) {
                Some(e) if e.expires_at_us > now_us => return Some(at),
                Some(_) => state.remove(suffix),
                None => {}
            }
            at += 1 + usize::from(len);
        }
        None
    }

    /// The servers of the deepest cached cut enclosing `qname` (the
    /// qname itself counts). Walks towards the root; expired entries
    /// along the way are dropped. The root itself is never cached here —
    /// when this returns `None`, resolution starts from the root hints.
    pub fn deepest(&mut self, qname: &Name, now_us: u64) -> Option<&[IpAddr]> {
        if self.capacity == 0 {
            return None;
        }
        let wire = qname.as_wire();
        let cut = wire.get(self.deepest_at(wire, now_us)?..)?;
        self.state.cuts.get(cut).map(|e| e.servers.as_slice())
    }

    /// Cached cuts (including expired-but-unswept ones).
    pub fn len(&self) -> usize {
        self.state.cuts.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn deepest_enclosing_cut_wins() {
        let mut cache = InfraCache::new(16);
        cache.put(&n("com"), &[ip("10.0.0.1")], 300, 0);
        cache.put(&n("examp.com"), &[ip("10.0.0.2")], 300, 0);
        // Each cut has its own server, so the servers name the cut.
        let servers = cache.deepest(&n("www.examp.com"), 0).unwrap();
        assert_eq!(servers, [ip("10.0.0.2")]);
        let servers = cache.deepest(&n("other.com"), 0).unwrap();
        assert_eq!(servers, [ip("10.0.0.1")], "com");
        assert!(cache.deepest(&n("other.net"), 0).is_none());
    }

    #[test]
    fn expiry_falls_back_to_shallower_cut() {
        let mut cache = InfraCache::new(16);
        cache.put(&n("com"), &[ip("10.0.0.1")], 3_600, 0);
        cache.put(&n("examp.com"), &[ip("10.0.0.2")], 60, 0);
        let servers = cache.deepest(&n("www.examp.com"), 61_000_000).unwrap();
        assert_eq!(servers, [ip("10.0.0.1")], "expired deep cut skipped");
        assert_eq!(cache.len(), 1, "expired entry dropped on contact");
    }

    #[test]
    fn capacity_bound_holds() {
        let mut cache = InfraCache::new(2);
        cache.put(&n("a.test"), &[ip("10.0.0.1")], 10, 0);
        cache.put(&n("b.test"), &[ip("10.0.0.2")], 20, 0);
        cache.put(&n("c.test"), &[ip("10.0.0.3")], 30, 0);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.deepest(&n("a.test"), 0).is_none(),
            "earliest expiry evicted"
        );
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut cache = InfraCache::new(0);
        cache.put(&n("com"), &[ip("10.0.0.1")], 300, 0);
        assert!(cache.is_empty());
        assert!(cache.deepest(&n("examp.com"), 0).is_none());
    }

    #[test]
    fn equal_expiries_evict_the_oldest_insert() {
        // Same TTL at the same instant: the tie is broken by insertion
        // order, never by hash-map iteration order.
        for _ in 0..32 {
            let mut cache = InfraCache::new(3);
            for cut in ["a.test", "b.test", "c.test", "d.test", "e.test"] {
                cache.put(&n(cut), &[ip("10.0.0.1")], 60, 0);
            }
            assert_eq!(cache.len(), 3);
            for gone in ["a.test", "b.test"] {
                assert!(cache.deepest(&n(gone), 0).is_none(), "{gone} evicted");
            }
            for kept in ["c.test", "d.test", "e.test"] {
                assert!(cache.deepest(&n(kept), 0).is_some(), "{kept} kept");
            }
        }
    }

    #[test]
    fn refreshing_a_cut_moves_it_in_the_eviction_order() {
        let mut cache = InfraCache::new(2);
        cache.put(&n("a.test"), &[ip("10.0.0.1")], 10, 0);
        cache.put(&n("b.test"), &[ip("10.0.0.2")], 20, 0);
        cache.put(&n("a.test"), &[ip("10.0.0.3")], 30, 0);
        cache.put(&n("c.test"), &[ip("10.0.0.4")], 40, 0);
        assert!(cache.deepest(&n("b.test"), 0).is_none(), "stale b evicted");
        let servers = cache.deepest(&n("a.test"), 0).unwrap();
        assert_eq!(servers, [ip("10.0.0.3")], "refreshed a kept");
    }
}
