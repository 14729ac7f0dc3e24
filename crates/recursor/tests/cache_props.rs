//! Property tests for the answer cache: entries are never served past
//! their TTL under arbitrary virtual-clock advances, eviction keeps the
//! cache within its capacity bound, and a fresh answer of either polarity
//! replaces the previous one.

use dps_authdns::Resolution;
use dps_dns::{Name, Rcode, RrType};
use dps_recursor::{AnswerCache, CacheConfig};
use proptest::prelude::*;
use std::collections::HashMap;

fn key(i: u8) -> Name {
    format!("k{i}.example.com").parse().unwrap()
}

/// A distinguishable resolution: `tag` rides in `elapsed_us`, which the
/// cache stores verbatim, so we can tell inserts apart on replay.
fn tagged(tag: u64) -> Resolution {
    Resolution {
        rcode: Rcode::NoError,
        answers: Vec::new(),
        elapsed_us: tag,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interleave inserts, clock advances and lookups; the cache must agree
    /// with a simple (expiry, tag) model at every step — in particular it
    /// must never serve an entry whose TTL has lapsed.
    #[test]
    fn never_serves_past_ttl(
        ops in proptest::collection::vec(
            ((0u8..6), (0u32..400), (0u64..120_000_000), any::<bool>()),
            1..80,
        )
    ) {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        let mut model: HashMap<u8, (u64, u64)> = HashMap::new();
        let mut now = 0u64;
        for (seq, (k, ttl, advance, is_insert)) in ops.into_iter().enumerate() {
            now += advance;
            let name = key(k);
            if is_insert {
                let tag = seq as u64;
                cache.insert(&name, RrType::A, tagged(tag), ttl, false, now);
                if ttl > 0 {
                    model.insert(k, (now + u64::from(ttl) * 1_000_000, tag));
                }
            } else {
                let got = cache.get(&name, RrType::A, now);
                match model.get(&k) {
                    Some(&(expires, tag)) if expires > now => {
                        let res = got.expect("live entry must be served");
                        prop_assert_eq!(res.elapsed_us, tag, "latest insert wins");
                    }
                    _ => prop_assert!(got.is_none(), "expired entry served at {}", now),
                }
            }
        }
    }

    /// However many distinct keys are inserted, the cache never holds more
    /// than its configured bound (shards × per-shard capacity).
    #[test]
    fn eviction_never_exceeds_capacity(
        capacity in 1usize..=16,
        shards in 1usize..=4,
        keys in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        let mut cache = AnswerCache::new(&CacheConfig {
            capacity,
            shards,
            ..CacheConfig::default()
        });
        let bound = shards.max(1) * capacity.div_ceil(shards.max(1)).max(1);
        for (seq, k) in keys.into_iter().enumerate() {
            cache.insert(&key(k), RrType::A, tagged(seq as u64), 300, false, 0);
            prop_assert!(
                cache.len() <= bound,
                "len {} exceeds bound {}", cache.len(), bound
            );
        }
    }

    /// A positive answer replaces a cached negative entry (and vice versa):
    /// the polarity and payload of the most recent insert always win.
    #[test]
    fn positive_answers_invalidate_negative_entries(
        k in 0u8..6,
        neg_ttl in 1u32..600,
        pos_ttl in 1u32..600,
        gap_us in 0u64..500_000,
    ) {
        let mut cache = AnswerCache::new(&CacheConfig::default());
        let name = key(k);
        let negative = Resolution { rcode: Rcode::NxDomain, answers: Vec::new(), elapsed_us: 1 };
        cache.insert(&name, RrType::A, negative, neg_ttl, true, 0);
        prop_assert_eq!(cache.negative(&name, RrType::A, gap_us), Some(true));

        cache.insert(&name, RrType::A, tagged(2), pos_ttl, false, gap_us);
        prop_assert_eq!(cache.negative(&name, RrType::A, gap_us), Some(false));
        let got = cache.get(&name, RrType::A, gap_us).expect("positive entry live");
        prop_assert_eq!(got.rcode, Rcode::NoError);
        prop_assert_eq!(got.elapsed_us, 2);
    }
}
