//! Provider reference sets (paper Table 2) and their compiled lookup form.

use dps_columnar::StringDict;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// Reference sets compiled against a measurement dictionary for O(1)
/// per-row matching.
#[derive(Debug, Clone)]
pub struct CompiledRefs {
    /// Provider count.
    pub n: usize,
    /// Provider names, by index.
    pub names: Vec<String>,
    asn_to_provider: HashMap<u32, u8>,
    cname_to_provider: HashMap<u32, u8>,
    ns_to_provider: HashMap<u32, u8>,
}

impl CompiledRefs {
    /// Compiles reference sets against `dict` (SLDs not present in the
    /// dictionary can never match and are skipped).
    pub fn compile(refs: &[ProviderRefs], dict: &StringDict) -> Self {
        let mut asn_to_provider = HashMap::new();
        let mut cname_to_provider = HashMap::new();
        let mut ns_to_provider = HashMap::new();
        for (i, r) in refs.iter().enumerate() {
            for &a in &r.asns {
                asn_to_provider.insert(a, i as u8);
            }
            for s in &r.cname_slds {
                if let Some(id) = dict.get(s) {
                    cname_to_provider.insert(id, i as u8);
                }
            }
            for s in &r.ns_slds {
                if let Some(id) = dict.get(s) {
                    ns_to_provider.insert(id, i as u8);
                }
            }
        }
        Self {
            n: refs.len(),
            names: refs.iter().map(|r| r.name.clone()).collect(),
            asn_to_provider,
            cname_to_provider,
            ns_to_provider,
        }
    }

    /// Provider referenced by an origin AS.
    pub fn provider_of_asn(&self, asn: u32) -> Option<u8> {
        if asn == 0 {
            return None;
        }
        self.asn_to_provider.get(&asn).copied()
    }

    /// Provider referenced by a CNAME SLD dictionary id.
    pub fn provider_of_cname(&self, sld_id: u32) -> Option<u8> {
        if sld_id == 0 {
            return None;
        }
        self.cname_to_provider.get(&sld_id).copied()
    }

    /// Provider referenced by an NS SLD dictionary id.
    pub fn provider_of_ns(&self, sld_id: u32) -> Option<u8> {
        if sld_id == 0 {
            return None;
        }
        self.ns_to_provider.get(&sld_id).copied()
    }

    /// Classifies one measurement row into per-provider reference kinds.
    /// Returns `(provider, kinds)` pairs; use is counted once per SLD, so
    /// two matching NS records still yield one NS bit (paper footnote 9).
    pub fn classify(&self, row: &dps_measure::observation::Row) -> Vec<(u8, RefKind)> {
        let mut found: Vec<(u8, RefKind)> = Vec::new();
        let mut add = |p: u8, k: RefKind| {
            if let Some(slot) = found.iter_mut().find(|(q, _)| *q == p) {
                slot.1.insert(k);
            } else {
                let mut r = RefKind::empty();
                r.insert(k);
                found.push((p, r));
            }
        };
        if row.failed {
            return found;
        }
        for asn in [row.asn1, row.asn2, row.www_asn, row.aaaa_asn] {
            if let Some(p) = self.provider_of_asn(asn) {
                add(p, RefKind::ASN);
            }
        }
        for sld in [row.cname1, row.cname2] {
            if let Some(p) = self.provider_of_cname(sld) {
                add(p, RefKind::CNAME);
            }
        }
        for sld in [row.ns1, row.ns2] {
            if let Some(p) = self.provider_of_ns(sld) {
                add(p, RefKind::NS);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_measure::observation::Row;

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
}
