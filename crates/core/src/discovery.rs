//! The iterative reference-discovery procedure (§3.3), regenerating the
//! paper's Table 2 from the measurement data itself.
//!
//! > "We take the ASNs of a DPS as starting point. Then we find all the
//! > domain names that reference these ASNs and analyze frequently
//! > occurring SLDs in CNAME and NS records. The SLDs obtained in this
//! > manner are used to find any ASNs we may have missed in the first
//! > step, or to remove ASNs that do not belong to the mitigation
//! > infrastructure of a DPS."
//!
//! Seed AS sets come from AS-to-name data (paper footnote 5). Candidate
//! SLDs must additionally pass an *ownership* check — the SLD's own apex
//! must resolve into the provider's AS space — which automates the
//! analyst judgement that kept third-party SLDs (`sedoparking.com`,
//! `registrar-servers.com`) out of the paper's Table 2 while those
//! parties' domains referenced provider ASes en masse.

use crate::references::ProviderRefs;
use dps_measure::observation::{customer_entry, is_customer_entry, Row};
use dps_measure::{SnapshotStore, Source};
use dps_netsim::AsRegistry;
use std::collections::{HashMap, HashSet};

/// A provider seed: a display name and the AS numbers found for it in
/// AS-to-name data.
#[derive(Debug, Clone)]
pub struct Seed {
    /// Provider display name.
    pub name: String,
    /// Name-matched AS numbers.
    pub asns: Vec<u32>,
}

/// Builds seeds by searching an AS registry for provider names.
pub fn seeds_from_registry(registry: &AsRegistry, names: &[&str]) -> Vec<Seed> {
    names
        .iter()
        .map(|n| Seed {
            name: n.to_string(),
            asns: registry.search(n).into_iter().map(|a| a.0).collect(),
        })
        .collect()
}

/// Discovery tunables.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Sample every `stride`-th measured day.
    pub day_stride: usize,
    /// Minimum domain-days supporting a candidate SLD.
    pub min_support: u32,
    /// Minimum fraction of the SLD's domain-days that co-occur with the
    /// provider's ASes.
    pub min_cooccurrence: f64,
    /// Minimum share of a provider's SLD-referencing domain-days an AS
    /// must originate to be adopted in the expansion step.
    pub min_asn_share: f64,
    /// Minimum referencing domain-days for a seed AS to survive pruning.
    pub min_asn_support: u32,
    /// Expansion specificity: of everything an AS originates, at least
    /// this fraction must carry the provider's SLDs. Keeps generic hosting
    /// ASes out (a managed-DNS customer still resolves to its hoster, so
    /// hoster ASes co-occur with provider NS SLDs without belonging to the
    /// mitigation infrastructure).
    pub min_asn_specificity: f64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            day_stride: 7,
            min_support: 5,
            min_cooccurrence: 0.25,
            min_asn_share: 0.02,
            min_asn_support: 3,
            min_asn_specificity: 0.2,
        }
    }
}

#[derive(Default)]
struct SldStats {
    /// Per provider: domain-days where this SLD co-occurs with a seed AS.
    hits: HashMap<u8, u32>,
    /// Total domain-days mentioning this SLD.
    total: u32,
}

/// Runs the discovery procedure over the archive.
pub fn discover(
    store: &SnapshotStore,
    seeds: &[Seed],
    config: &DiscoveryConfig,
) -> Vec<ProviderRefs> {
    let asn_to_seed: HashMap<u32, u8> = seeds
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.asns.iter().map(move |&a| (a, i as u8)))
        .collect();

    let sampled_days: Vec<u32> = store
        .days(Source::Com)
        .into_iter()
        .step_by(config.day_stride.max(1))
        .collect();
    let sampled: HashSet<u32> = sampled_days.iter().copied().collect();

    // ---- Pass 1: SLD co-occurrence statistics + AS usage support. ----
    let mut cname_stats: HashMap<u32, SldStats> = HashMap::new();
    let mut ns_stats: HashMap<u32, SldStats> = HashMap::new();
    let mut asn_support: HashMap<u32, u32> = HashMap::new();

    for_each_sampled_row(store, &sampled, |_, row| {
        let seed_provider = [row.asn1, row.asn2, row.www_asn]
            .iter()
            .find_map(|a| asn_to_seed.get(a).copied());
        for asn in [row.asn1, row.asn2] {
            if asn != 0 {
                *asn_support.entry(asn).or_default() += 1;
            }
        }
        for sld in [row.cname1, row.cname2] {
            if sld != 0 {
                let st = cname_stats.entry(sld).or_default();
                st.total += 1;
                if let Some(p) = seed_provider {
                    *st.hits.entry(p).or_default() += 1;
                }
            }
        }
        for sld in [row.ns1, row.ns2] {
            if sld != 0 {
                let st = ns_stats.entry(sld).or_default();
                st.total += 1;
                if let Some(p) = seed_provider {
                    *st.hits.entry(p).or_default() += 1;
                }
            }
        }
    });

    let candidates = |stats: &HashMap<u32, SldStats>| -> HashMap<u32, u8> {
        let mut out = HashMap::new();
        for (&sld, st) in stats {
            for (&p, &hits) in &st.hits {
                if hits >= config.min_support
                    && f64::from(hits) / f64::from(st.total.max(1)) >= config.min_cooccurrence
                {
                    out.insert(sld, p);
                }
            }
        }
        out
    };
    let cname_candidates = candidates(&cname_stats);
    let ns_candidates = candidates(&ns_stats);

    // ---- Pass 2: ownership of candidate SLDs + ASN expansion. ----
    let mut candidate_ids: HashSet<u32> = HashSet::new();
    candidate_ids.extend(cname_candidates.keys());
    candidate_ids.extend(ns_candidates.keys());
    // Customer rows carry `sld = 0`, so a candidate naming a customer
    // domain finds its own rows by entry code in its zone's source.
    let customer_candidates: HashMap<(Source, u32), u32> = candidate_ids
        .iter()
        .filter_map(|&sld| {
            let key = customer_entry(store.dict.resolve(sld)?)?;
            Some((key, sld))
        })
        .collect();
    // apex ASN histogram of each candidate SLD's own domain.
    let mut own_asn: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
    // ASN histogram of domains mentioning each candidate SLD.
    let mut cooccur_asn: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
    let mut cooccur_rows: HashMap<u32, u32> = HashMap::new();

    for_each_sampled_row(store, &sampled, |source, row| {
        let own = if is_customer_entry(row.entry) {
            customer_candidates.get(&(source, row.entry)).copied()
        } else {
            candidate_ids.contains(&row.sld).then_some(row.sld)
        };
        if let Some(sld) = own {
            let hist = own_asn.entry(sld).or_default();
            if row.asn1 != 0 {
                *hist.entry(row.asn1).or_default() += 1;
            }
        }
        for sld in [row.cname1, row.cname2, row.ns1, row.ns2] {
            if sld != 0 && candidate_ids.contains(&sld) {
                *cooccur_rows.entry(sld).or_default() += 1;
                let hist = cooccur_asn.entry(sld).or_default();
                for asn in [row.asn1, row.asn2] {
                    if asn != 0 {
                        *hist.entry(asn).or_default() += 1;
                    }
                }
            }
        }
    });

    // Ownership: the SLD's own apex must originate (mostly) from the
    // provider's seed ASes; SLDs whose apex we never measured (zones we do
    // not sweep, like .biz) pass by default.
    let owned_by = |sld: u32, p: u8| -> bool {
        match own_asn.get(&sld) {
            None => true,
            Some(hist) => {
                let total: u32 = hist.values().sum();
                let in_provider: u32 = hist
                    .iter()
                    .filter(|(a, _)| asn_to_seed.get(a) == Some(&p))
                    .map(|(_, &c)| c)
                    .sum();
                total == 0 || f64::from(in_provider) / f64::from(total) >= 0.5
            }
        }
    };

    let mut result: Vec<ProviderRefs> = seeds
        .iter()
        .map(|s| ProviderRefs {
            name: s.name.clone(),
            asns: Vec::new(),
            cname_slds: Vec::new(),
            ns_slds: Vec::new(),
        })
        .collect();

    let resolve = |sld: u32| store.dict.resolve(sld).unwrap_or("?").to_string();

    let mut accepted_slds_per_provider: Vec<Vec<u32>> = vec![Vec::new(); seeds.len()];
    for (&sld, &p) in &cname_candidates {
        if owned_by(sld, p) {
            result[p as usize].cname_slds.push(resolve(sld));
            accepted_slds_per_provider[p as usize].push(sld);
        }
    }
    for (&sld, &p) in &ns_candidates {
        if owned_by(sld, p) {
            result[p as usize].ns_slds.push(resolve(sld));
            accepted_slds_per_provider[p as usize].push(sld);
        }
    }

    // ASN expansion + seed pruning.
    for (p, seed) in seeds.iter().enumerate() {
        let mut asns: HashSet<u32> = seed
            .asns
            .iter()
            .copied()
            .filter(|a| asn_support.get(a).copied().unwrap_or(0) >= config.min_asn_support)
            .collect();
        let mut hist: HashMap<u32, u32> = HashMap::new();
        let mut rows = 0u32;
        for &sld in &accepted_slds_per_provider[p] {
            rows += cooccur_rows.get(&sld).copied().unwrap_or(0);
            if let Some(h) = cooccur_asn.get(&sld) {
                for (&a, &c) in h {
                    *hist.entry(a).or_default() += c;
                }
            }
        }
        for (&asn, &count) in &hist {
            let share = f64::from(count) / f64::from(rows.max(1));
            let foreign = asn_to_seed.get(&asn).is_some_and(|&q| q != p as u8);
            let global = asn_support.get(&asn).copied().unwrap_or(0).max(1);
            let specificity = f64::from(count) / f64::from(global);
            if share >= config.min_asn_share
                && count >= config.min_support
                && specificity >= config.min_asn_specificity
                && !foreign
            {
                asns.insert(asn);
            }
        }
        let mut asns: Vec<u32> = asns.into_iter().collect();
        asns.sort_unstable();
        result[p].asns = asns;
        result[p].cname_slds.sort();
        result[p].ns_slds.sort();
    }
    result
}

fn for_each_sampled_row(
    store: &SnapshotStore,
    sampled: &HashSet<u32>,
    mut f: impl FnMut(Source, &Row),
) {
    for source in [Source::Com, Source::Net, Source::Org] {
        // Only sampled days are decoded; the rest are never touched.
        for day in store.days(source) {
            if !sampled.contains(&day) {
                continue;
            }
            let Some(table) = store.table(day, source) else {
                continue;
            };
            let cols: Vec<&[u32]> = (0..table.schema().width())
                .map(|c| table.column(c))
                .collect();
            for i in 0..table.rows() {
                let row = Row::unpack(&cols, i);
                if !row.failed {
                    f(source, &row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_ecosystem::{ScenarioParams, World};
    use dps_measure::StudyConfig;

    /// The marketing keywords an analyst would search AS-to-name data for.
    pub const PROVIDER_KEYWORDS: [&str; 9] = [
        "Akamai",
        "CenturyLink",
        "CloudFlare",
        "DOSarrest",
        "F5",
        "Incapsula",
        "Level 3",
        "Neustar",
        "VeriSign",
    ];

    /// A store whose customers all delegate to `d5.com`, a customer
    /// domain itself, from provider AS 100; `d5.com`'s own apex
    /// originates from `own_asn`. A `.net` row with the same entry code
    /// (`d5.net`, another domain) originates from AS 100.
    fn store_with_customer_ns(own_asn: u32) -> SnapshotStore {
        use dps_columnar::TableBuilder;
        use dps_measure::observation::schema;
        let mut store = SnapshotStore::new();
        let ns = store.dict.intern("d5.com");
        let mut com = TableBuilder::new(schema());
        for id in 10..20 {
            let row = Row {
                entry: id * 2,
                asn1: 100,
                ns1: ns,
                ..Row::default()
            };
            com.push_row(&row.pack(0, Source::Com));
        }
        let own = Row {
            entry: 10,
            asn1: own_asn,
            ..Row::default()
        };
        com.push_row(&own.pack(0, Source::Com));
        store.add_table(0, Source::Com, &com.finish(), 0);
        let mut net = TableBuilder::new(schema());
        let other = Row {
            entry: 10,
            asn1: 100,
            ..Row::default()
        };
        net.push_row(&other.pack(0, Source::Net));
        store.add_table(0, Source::Net, &net.finish(), 0);
        store
    }

    #[test]
    fn customer_domain_candidates_are_owned_by_their_own_rows() {
        let seeds = [Seed {
            name: "P".into(),
            asns: vec![100],
        }];
        let config = DiscoveryConfig {
            day_stride: 1,
            ..Default::default()
        };
        // `d5.com` resolves outside the provider: rejected, even though
        // `d5.net` (same entry code, other zone) resolves inside it.
        let found = discover(&store_with_customer_ns(200), &seeds, &config);
        assert!(found[0].ns_slds.is_empty(), "{:?}", found[0].ns_slds);
        let found = discover(&store_with_customer_ns(100), &seeds, &config);
        assert_eq!(found[0].ns_slds, vec!["d5.com".to_string()]);
    }

    #[test]
    fn seeds_found_by_name_search() {
        let world = World::imc2016(ScenarioParams::tiny(1));
        let seeds = seeds_from_registry(world.as_registry(), &PROVIDER_KEYWORDS);
        // CloudFlare's single AS is name-findable.
        assert_eq!(seeds[2].asns, vec![13335]);
        // Akamai's Prolexic AS is NOT name-findable (expansion must add it).
        assert!(!seeds[0].asns.contains(&32787));
        assert!(seeds[0].asns.contains(&20940));
        // Level 3's tw telecom AS likewise.
        assert!(!seeds[6].asns.contains(&11213));
    }

    #[test]
    fn discovery_rediscovers_core_references_in_small_world() {
        let mut world = World::imc2016(ScenarioParams {
            scale: 0.2,
            gtld_days: 40,
            cc_start_day: 40,
            seed: 9,
        });
        let seeds_list = seeds_from_registry(world.as_registry(), &PROVIDER_KEYWORDS);
        let store = crate::testing::swept(
            &mut world,
            StudyConfig {
                days: 40,
                cc_start_day: 40,
                stride: 1,
            },
        );
        let config = DiscoveryConfig {
            day_stride: 5,
            ..Default::default()
        };
        let found = discover(&store, &seeds_list, &config);

        // Only the sampled days count: a store that holds nothing else,
        // read at stride 1, discovers exactly the same references.
        let mut sampled_only = SnapshotStore::new();
        sampled_only.dict = store.dict.clone();
        for source in [Source::Com, Source::Net, Source::Org] {
            for day in store.days(source).into_iter().step_by(5) {
                let table = store.table(day, source).expect("swept page decodes");
                sampled_only.add_table(day, source, &table, 0);
            }
        }
        let every_day = DiscoveryConfig {
            day_stride: 1,
            ..Default::default()
        };
        assert_eq!(discover(&sampled_only, &seeds_list, &every_day), found);

        let cf = &found[2];
        assert!(cf.asns.contains(&13335));
        assert!(
            cf.cname_slds.contains(&"cloudflare.net".to_string()),
            "{:?}",
            cf.cname_slds
        );
        assert!(
            cf.ns_slds.contains(&"cloudflare.com".to_string()),
            "{:?}",
            cf.ns_slds
        );

        let incapsula = &found[5];
        assert!(incapsula.cname_slds.contains(&"incapdns.net".to_string()));

        // Expansion found Prolexic via Akamai customer addresses.
        let akamai = &found[0];
        assert!(
            akamai.asns.contains(&32787),
            "expanded ASNs: {:?}",
            akamai.asns
        );

        // Third-party SLDs must NOT leak into provider reference sets.
        for refs in &found {
            for sld in refs.ns_slds.iter().chain(&refs.cname_slds) {
                assert!(
                    ![
                        "sedoparking.com",
                        "registrar-servers.com",
                        "fabulousdns.com",
                        "amazonaws.com"
                    ]
                    .contains(&sld.as_str()),
                    "{} leaked into {}",
                    sld,
                    refs.name
                );
            }
        }
    }
}
