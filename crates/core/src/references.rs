//! Provider reference sets (paper Table 2) and their compiled lookup form.

use dps_columnar::StringDict;
use serde::{Deserialize, Serialize};

/// How a domain references a provider on a given day (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefKind(u8);

impl RefKind {
    /// Origin-AS reference of an A/AAAA address.
    pub const ASN: RefKind = RefKind(1);
    /// Provider SLD in the CNAME expansion.
    pub const CNAME: RefKind = RefKind(2);
    /// Provider SLD in the NS set.
    pub const NS: RefKind = RefKind(4);

    /// No reference.
    pub fn empty() -> Self {
        RefKind(0)
    }

    /// True if no reference bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Sets the bits of `other`.
    pub fn insert(&mut self, other: RefKind) {
        self.0 |= other.0;
    }

    /// True if all bits of `other` are set.
    pub fn contains(self, other: RefKind) -> bool {
        self.0 & other.0 == other.0
    }

    /// The kinds as bits: ASN = 1, CNAME = 2, NS = 4.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The kinds of [`bits`](Self::bits).
    pub fn from_bits(bits: u8) -> Self {
        RefKind(bits)
    }
}

/// The reference set of one provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProviderRefs {
    /// Provider name.
    pub name: String,
    /// Mitigation-infrastructure AS numbers.
    pub asns: Vec<u32>,
    /// CNAME second-level domains.
    pub cname_slds: Vec<String>,
    /// NS second-level domains.
    pub ns_slds: Vec<String>,
}

impl ProviderRefs {
    /// The paper's Table 2, from the ecosystem's ground-truth spec.
    pub fn paper_table2() -> Vec<ProviderRefs> {
        dps_ecosystem::spec::PROVIDERS
            .iter()
            .map(|p| ProviderRefs {
                name: p.name.to_string(),
                asns: p.asns.to_vec(),
                cname_slds: p.cname_slds.iter().map(|s| s.to_string()).collect(),
                ns_slds: p.ns_slds.iter().map(|s| s.to_string()).collect(),
            })
            .collect()
    }
}

/// Reference sets compiled against a measurement dictionary for
/// hash-free per-row matching.
///
/// CNAME and NS SLDs match through two dense tables indexed by dictionary
/// id, each sized by the largest id that matches, not by the dictionary.
/// ASNs match by binary search over a sorted `(asn, provider)` list: a
/// discovered ASN can be any `u32`, so no table is sized by one. Id 0
/// and ASN 0 (absent) never match, nor does an id past its table; when
/// two providers list the same key, the later provider wins.
#[derive(Debug, Clone)]
pub struct CompiledRefs {
    /// Provider count.
    pub n: usize,
    /// Provider names, by index.
    pub names: Vec<String>,
    /// `(asn, provider)`, ascending by ASN, one entry per ASN.
    asns: Vec<(u32, u8)>,
    /// Provider per CNAME SLD dictionary id.
    cname: Vec<Option<u8>>,
    /// Provider per NS SLD dictionary id.
    ns: Vec<Option<u8>>,
}

impl CompiledRefs {
    /// Compiles reference sets against `dict` (SLDs not present in the
    /// dictionary can never match and are skipped).
    pub fn compile(refs: &[ProviderRefs], dict: &StringDict) -> Self {
        let mut asns: Vec<(u32, u8)> = Vec::new();
        let mut cnames: Vec<(u32, u8)> = Vec::new();
        let mut nss: Vec<(u32, u8)> = Vec::new();
        for (i, r) in refs.iter().enumerate() {
            let p = i as u8;
            asns.extend(r.asns.iter().map(|&a| (a, p)));
            cnames.extend(r.cname_slds.iter().filter_map(|s| Some((dict.get(s)?, p))));
            nss.extend(r.ns_slds.iter().filter_map(|s| Some((dict.get(s)?, p))));
        }
        asns.retain(|&(a, _)| a != 0);
        // A stable sort keeps each ASN's listings in provider order; the
        // dedup folds each run into its first slot, keeping the last
        // listing's provider.
        asns.sort_by_key(|&(a, _)| a);
        asns.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Self {
            n: refs.len(),
            names: refs.iter().map(|r| r.name.clone()).collect(),
            asns,
            cname: id_table(&cnames),
            ns: id_table(&nss),
        }
    }

    /// Provider referenced by an origin AS.
    pub fn provider_of_asn(&self, asn: u32) -> Option<u8> {
        let i = self.asns.binary_search_by_key(&asn, |&(a, _)| a).ok()?;
        self.asns.get(i).map(|&(_, p)| p)
    }

    /// Provider referenced by a CNAME SLD dictionary id.
    pub fn provider_of_cname(&self, sld_id: u32) -> Option<u8> {
        self.cname.get(sld_id as usize).copied().flatten()
    }

    /// Provider referenced by an NS SLD dictionary id.
    pub fn provider_of_ns(&self, sld_id: u32) -> Option<u8> {
        self.ns.get(sld_id as usize).copied().flatten()
    }

    /// Classifies one measurement row into per-provider reference kinds.
    /// Returns `(provider, kinds)` pairs; use is counted once per SLD, so
    /// two matching NS records still yield one NS bit (paper footnote 9).
    pub fn classify(&self, row: &dps_measure::observation::Row) -> Matches {
        if row.failed {
            return Matches::default();
        }
        self.classify_keys(
            [row.asn1, row.asn2, row.www_asn, row.aaaa_asn],
            [row.cname1, row.cname2],
            [row.ns1, row.ns2],
        )
    }

    /// Classifies the reference keys of one successfully measured row:
    /// its origin ASes, CNAME SLD ids and NS SLD ids. Pairs come in the
    /// order their first key appears: ASNs, then CNAMEs, then NSes.
    pub(crate) fn classify_keys(&self, asns: [u32; 4], cnames: [u32; 2], ns: [u32; 2]) -> Matches {
        let mut found = Matches::default();
        for (k, &asn) in asns.iter().enumerate() {
            // Absent ASes never match, and a repeat (`www` on the apex's
            // AS, say) adds nothing: skip both without a search.
            if asn == 0 || asns.iter().take(k).any(|&a| a == asn) {
                continue;
            }
            if let Some(p) = self.provider_of_asn(asn) {
                found.add(p, RefKind::ASN);
            }
        }
        for sld in cnames {
            if let Some(p) = self.provider_of_cname(sld) {
                found.add(p, RefKind::CNAME);
            }
        }
        for sld in ns {
            if let Some(p) = self.provider_of_ns(sld) {
                found.add(p, RefKind::NS);
            }
        }
        found
    }
}

/// A dense provider table over dictionary ids, one slot per id up to the
/// largest listed one; a later listing of an id overwrites an earlier
/// one. Id 0 (absent) is never filled.
fn id_table(listed: &[(u32, u8)]) -> Vec<Option<u8>> {
    let len = listed
        .iter()
        .map(|&(id, _)| id as usize + 1)
        .max()
        .unwrap_or(0);
    let mut table = vec![None; len];
    for &(id, p) in listed {
        if id == 0 {
            continue;
        }
        if let Some(slot) = table.get_mut(id as usize) {
            *slot = Some(p);
        }
    }
    table
}

/// The `(provider, kinds)` pairs one row references, in first-match
/// order. A row has eight reference keys (four ASNs, two CNAME SLDs, two
/// NS SLDs), so at most eight pairs, held inline without a heap
/// allocation. Derefs to a slice of the pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Matches {
    len: usize,
    pairs: [(u8, RefKind); 8],
}

impl Matches {
    /// Sets `kind` on `provider`'s pair, adding the pair if it is new.
    fn add(&mut self, provider: u8, kind: RefKind) {
        let len = self.len;
        if let Some(pair) = self
            .pairs
            .iter_mut()
            .take(len)
            .find(|(q, _)| *q == provider)
        {
            pair.1.insert(kind);
        } else if let Some(slot) = self.pairs.get_mut(len) {
            *slot = (provider, kind);
            self.len += 1;
        }
    }

    /// The kinds referencing `provider` (empty if it is not matched).
    pub fn kinds_of(&self, provider: u8) -> RefKind {
        self.iter()
            .find(|&&(q, _)| q == provider)
            .map(|&(_, k)| k)
            .unwrap_or_default()
    }
}

impl std::ops::Deref for Matches {
    type Target = [(u8, RefKind)];

    fn deref(&self) -> &Self::Target {
        self.pairs.get(..self.len).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_measure::observation::Row;
    use std::collections::HashMap;

    fn compiled() -> (CompiledRefs, StringDict) {
        let mut dict = StringDict::new();
        let cf_net = dict.intern("cloudflare.net");
        let cf_com = dict.intern("cloudflare.com");
        let _ = (cf_net, cf_com);
        dict.intern("incapdns.net");
        let refs = ProviderRefs::paper_table2();
        let compiled = CompiledRefs::compile(&refs, &dict);
        (compiled, dict)
    }

    #[test]
    fn table2_has_nine_providers_with_expected_asns() {
        let refs = ProviderRefs::paper_table2();
        assert_eq!(refs.len(), 9);
        let cf = refs.iter().find(|r| r.name == "CloudFlare").unwrap();
        assert_eq!(cf.asns, vec![13335]);
        assert_eq!(cf.cname_slds, vec!["cloudflare.net"]);
        let l3 = refs.iter().find(|r| r.name == "Level 3").unwrap();
        assert_eq!(l3.asns.len(), 4);
        assert!(l3.cname_slds.is_empty());
    }

    #[test]
    fn classify_combines_kinds_per_provider() {
        let (compiled, dict) = compiled();
        let row = Row {
            asn1: 13335,
            cname1: dict.get("cloudflare.net").unwrap(),
            ns1: dict.get("cloudflare.com").unwrap(),
            ..Row::default()
        };
        let found = compiled.classify(&row);
        assert_eq!(found.len(), 1);
        let (p, kinds) = found[0];
        assert_eq!(compiled.names[p as usize], "CloudFlare");
        assert!(kinds.contains(RefKind::ASN));
        assert!(kinds.contains(RefKind::CNAME));
        assert!(kinds.contains(RefKind::NS));
    }

    #[test]
    fn classify_separates_providers() {
        let (compiled, dict) = compiled();
        let row = Row {
            asn1: 19551, // Incapsula AS
            cname1: dict.get("incapdns.net").unwrap(),
            ns1: dict.get("cloudflare.com").unwrap(), // CloudFlare NS
            ..Row::default()
        };
        let found = compiled.classify(&row);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn failed_rows_reference_nothing() {
        let (compiled, _) = compiled();
        let row = Row {
            failed: true,
            asn1: 13335,
            ..Row::default()
        };
        assert!(compiled.classify(&row).is_empty());
    }

    #[test]
    fn null_ids_never_match() {
        let (compiled, _) = compiled();
        assert_eq!(compiled.provider_of_cname(0), None);
        assert_eq!(compiled.provider_of_ns(0), None);
        assert_eq!(compiled.provider_of_asn(0), None);
    }

    /// The `HashMap` lookups the compiled tables replaced, kept as their
    /// oracle: same compile order, same per-row classification.
    struct HashRefs {
        asn: HashMap<u32, u8>,
        cname: HashMap<u32, u8>,
        ns: HashMap<u32, u8>,
    }

    impl HashRefs {
        fn compile(refs: &[ProviderRefs], dict: &StringDict) -> Self {
            let mut out = Self {
                asn: HashMap::new(),
                cname: HashMap::new(),
                ns: HashMap::new(),
            };
            for (i, r) in refs.iter().enumerate() {
                for &a in &r.asns {
                    out.asn.insert(a, i as u8);
                }
                for s in &r.cname_slds {
                    if let Some(id) = dict.get(s) {
                        out.cname.insert(id, i as u8);
                    }
                }
                for s in &r.ns_slds {
                    if let Some(id) = dict.get(s) {
                        out.ns.insert(id, i as u8);
                    }
                }
            }
            out
        }

        fn lookup(map: &HashMap<u32, u8>, key: u32) -> Option<u8> {
            if key == 0 {
                return None;
            }
            map.get(&key).copied()
        }

        fn classify(&self, row: &Row) -> Vec<(u8, RefKind)> {
            let mut found: Vec<(u8, RefKind)> = Vec::new();
            let mut add = |p: u8, k: RefKind| {
                if let Some(slot) = found.iter_mut().find(|(q, _)| *q == p) {
                    slot.1.insert(k);
                } else {
                    found.push((p, k));
                }
            };
            if row.failed {
                return found;
            }
            for asn in [row.asn1, row.asn2, row.www_asn, row.aaaa_asn] {
                if let Some(p) = Self::lookup(&self.asn, asn) {
                    add(p, RefKind::ASN);
                }
            }
            for sld in [row.cname1, row.cname2] {
                if let Some(p) = Self::lookup(&self.cname, sld) {
                    add(p, RefKind::CNAME);
                }
            }
            for sld in [row.ns1, row.ns2] {
                if let Some(p) = Self::lookup(&self.ns, sld) {
                    add(p, RefKind::NS);
                }
            }
            found
        }
    }

    /// Asserts the compiled tables agree with the oracle on `row`, both
    /// per key and per row.
    fn assert_agree(compiled: &CompiledRefs, oracle: &HashRefs, row: &Row) {
        assert_eq!(
            &compiled.classify(row)[..],
            &oracle.classify(row)[..],
            "{row:?}"
        );
        for asn in [row.asn1, row.asn2, row.www_asn, row.aaaa_asn] {
            assert_eq!(
                compiled.provider_of_asn(asn),
                HashRefs::lookup(&oracle.asn, asn)
            );
        }
        for id in [row.cname1, row.cname2, row.ns1, row.ns2] {
            assert_eq!(
                compiled.provider_of_cname(id),
                HashRefs::lookup(&oracle.cname, id)
            );
            assert_eq!(
                compiled.provider_of_ns(id),
                HashRefs::lookup(&oracle.ns, id)
            );
        }
    }

    /// splitmix64: a seeded stream for the random reference sets and rows.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// An ASN from a small pool, so providers and rows share keys,
        /// with 0 and arbitrary (large) values mixed in.
        fn asn(&mut self) -> u32 {
            match self.below(8) {
                0 => 0,
                1 => self.next() as u32,
                2 => u32::MAX - self.below(3) as u32,
                _ => 1 + self.below(24) as u32,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random reference sets (shared keys, ASN 0, SLDs missing from
        /// the dictionary) and random rows (id 0, ids past every table,
        /// failed rows): the compiled tables classify like the oracle.
        #[test]
        fn compiled_refs_match_the_hashmap_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Stream(seed);
            let mut dict = StringDict::new();
            let names: Vec<String> = (0..40).map(|i| format!("sld{i}.net")).collect();
            for name in &names[..30] {
                dict.intern(name);
            }
            let pick = |rng: &mut Stream| names[rng.below(names.len() as u64) as usize].clone();
            let refs: Vec<ProviderRefs> = (0..1 + rng.below(9))
                .map(|i| ProviderRefs {
                    name: format!("p{i}"),
                    asns: (0..rng.below(5)).map(|_| rng.asn()).collect(),
                    cname_slds: (0..rng.below(4)).map(|_| pick(&mut rng)).collect(),
                    ns_slds: (0..rng.below(4)).map(|_| pick(&mut rng)).collect(),
                })
                .collect();
            let compiled = CompiledRefs::compile(&refs, &dict);
            let oracle = HashRefs::compile(&refs, &dict);
            let max_id = dict.len() as u64 + 8;
            for _ in 0..500 {
                let mut id = || rng.below(max_id) as u32;
                let row = Row {
                    cname1: id(),
                    cname2: id(),
                    ns1: id(),
                    ns2: id(),
                    ..Row::default()
                };
                let row = Row {
                    asn1: rng.asn(),
                    asn2: rng.asn(),
                    www_asn: rng.asn(),
                    aaaa_asn: rng.asn(),
                    failed: rng.below(16) == 0,
                    ..row
                };
                assert_agree(&compiled, &oracle, &row);
            }
        }
    }

    #[test]
    fn a_key_listed_twice_belongs_to_the_later_provider() {
        let mut dict = StringDict::new();
        let shared = dict.intern("shared.net");
        let refs = |name: &str| ProviderRefs {
            name: name.to_string(),
            asns: vec![0, 64_500, u32::MAX],
            cname_slds: vec!["shared.net".to_string(), "absent.net".to_string()],
            ns_slds: vec!["shared.net".to_string()],
        };
        let compiled = CompiledRefs::compile(&[refs("first"), refs("second")], &dict);
        assert_eq!(compiled.provider_of_asn(64_500), Some(1));
        assert_eq!(compiled.provider_of_asn(u32::MAX), Some(1));
        assert_eq!(compiled.provider_of_asn(0), None);
        assert_eq!(compiled.provider_of_cname(shared), Some(1));
        assert_eq!(compiled.provider_of_ns(shared), Some(1));
        assert_eq!(compiled.provider_of_cname(shared + 1), None);
        assert_eq!(compiled.provider_of_ns(u32::MAX), None);
    }

    /// Refs compiled from `discover`'s output, and the paper's Table 2,
    /// classify every archived row like the oracle.
    #[test]
    fn discovered_refs_match_the_hashmap_oracle() {
        use crate::discovery::{discover, seeds_from_registry, DiscoveryConfig};
        use dps_ecosystem::{ScenarioParams, World};
        use dps_measure::{Source, StudyConfig};

        let mut world = World::imc2016(ScenarioParams::tiny(11));
        let keywords: Vec<&str> = dps_ecosystem::spec::PROVIDERS
            .iter()
            .map(|p| p.name)
            .collect();
        let seeds = seeds_from_registry(world.as_registry(), &keywords);
        let store = crate::testing::swept(
            &mut world,
            StudyConfig {
                days: 10,
                cc_start_day: 6,
                stride: 1,
            },
        );
        let found = discover(&store, &seeds, &DiscoveryConfig::default());
        assert!(found.iter().any(|r| !r.asns.is_empty()), "{found:?}");
        for refs in [found, ProviderRefs::paper_table2()] {
            let compiled = CompiledRefs::compile(&refs, &store.dict);
            let oracle = HashRefs::compile(&refs, &store.dict);
            for source in [
                Source::Com,
                Source::Net,
                Source::Org,
                Source::Nl,
                Source::Alexa,
            ] {
                for (_, table) in store.scan(source) {
                    let cols: Vec<&[u32]> = (0..table.schema().width())
                        .map(|c| table.column(c))
                        .collect();
                    for i in 0..table.rows() {
                        assert_agree(&compiled, &oracle, &Row::unpack(&cols, i));
                    }
                }
            }
        }
    }
}
