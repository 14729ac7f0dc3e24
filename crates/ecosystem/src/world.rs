//! The living world: applies the schedule day by day, answers DNS queries
//! (bulk path), exports zone files, BGP tables and ground truth, and can
//! materialise itself into real zones + servers on the simulated network
//! (wire path) for full-fidelity runs.

use crate::domain::{domain_label, parse_domain_label, Diversion, DomainState, GroundTruth};
use crate::ids::{DomainId, HosterId, ProviderId, Tld};
use crate::scenario::{AlexaEntry, BasketAddressing, BasketInfo, Scenario, ScenarioParams};
use crate::schedule::{Action, Schedule};
use crate::spec::{self, hid, pid, HosterSpec, ProviderSpec, HOSTERS, PROVIDERS, REGISTRY_ASN};
use dps_authdns::resolver::{Resolution, ResolveError};
use dps_authdns::{AuthServer, Catalog, Zone};
use dps_dns::{Class, Name, RData, Rcode, Record, RrType};
use dps_netsim::{AsRegistry, Asn, Day, Network, Pfx2As, Rib};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Default TTL on generated records.
const TTL: u32 = 300;

/// Who owns an infrastructure SLD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfraOwner {
    /// One of the nine DPS providers.
    Provider(ProviderId),
    /// A hosting-side actor.
    Hoster(HosterId),
}

/// An infrastructure second-level domain (provider or hoster owned).
#[derive(Debug, Clone)]
pub struct InfraDomain {
    /// Full SLD, e.g. `cloudflare.net`.
    pub sld: Name,
    /// The TLD it sits in.
    pub tld: Tld,
    /// Its owner.
    pub owner: InfraOwner,
}

/// A member of a TLD zone file: a customer domain or an infrastructure SLD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneEntry {
    /// `d<id>.<tld>`.
    Domain(DomainId),
    /// Index into [`World::infra`].
    Infra(usize),
}

/// Day-scoped cache of zone membership lists. Membership only depends on
/// the current day (liveness windows and the static TLD/Alexa tables), so
/// every list computed for a day stays valid until [`World::advance_to`]
/// moves time forward and clears the cache.
#[derive(Default)]
struct EntryCache {
    zones: BTreeMap<Tld, Arc<Vec<ZoneEntry>>>,
    alexa: Option<Arc<Vec<ZoneEntry>>>,
}

/// The simulated Internet at a point in (virtual) time.
pub struct World {
    /// Parameters the scenario was built with.
    pub params: ScenarioParams,
    day: Day,
    domains: Vec<DomainState>,
    baskets: Vec<BasketInfo>,
    schedule: Schedule,
    rib: Rib,
    registry: AsRegistry,
    infra: Vec<InfraDomain>,
    alexa: Vec<AlexaEntry>,
    /// Per-day zone/Alexa membership lists, shared out as `Arc`s so
    /// repeated zone transfers and sweep shards don't re-collect the
    /// whole domain table on every call.
    entry_cache: Mutex<EntryCache>,
}

impl World {
    /// Builds the world from a scenario and applies day-0 events.
    pub fn new(scenario: Scenario) -> Self {
        let mut registry = AsRegistry::new();
        registry.register(REGISTRY_ASN, "Registry Infrastructure");
        let mut rib = Rib::new();
        rib.announce(spec::registry_prefix(), REGISTRY_ASN);
        for (i, p) in PROVIDERS.iter().enumerate() {
            let id = ProviderId(i as u8);
            for (j, &asn) in p.asns.iter().enumerate() {
                registry.register(Asn(asn), p.asn_names[j]);
                rib.announce(spec::provider_prefix(id, j), Asn(asn));
            }
            if p.ipv6 {
                rib.announce(spec::provider_prefix_v6(id), Asn(p.asns[0]));
            }
        }
        for (h, spec_) in HOSTERS.iter().enumerate() {
            registry.register(Asn(spec_.asn), spec_.name);
            rib.announce(spec::hoster_prefix(HosterId(h as u8)), Asn(spec_.asn));
        }

        let mut infra = Vec::new();
        for (i, p) in PROVIDERS.iter().enumerate() {
            let mut slds: Vec<&str> = Vec::new();
            slds.extend(p.cname_slds);
            for s in p.ns_slds {
                if !slds.contains(s) {
                    slds.push(s);
                }
            }
            for sld in slds {
                let (_, tld_label) = sld.rsplit_once('.').expect("sld has tld");
                let tld = Tld::from_label(tld_label).expect("known tld");
                infra.push(InfraDomain {
                    sld: sld.parse().expect("valid sld"),
                    tld,
                    owner: InfraOwner::Provider(ProviderId(i as u8)),
                });
            }
        }
        for (h, spec_) in HOSTERS.iter().enumerate() {
            infra.push(InfraDomain {
                sld: spec_.ns_sld.parse().expect("valid sld"),
                tld: spec_.ns_tld,
                owner: InfraOwner::Hoster(HosterId(h as u8)),
            });
        }

        let mut world = Self {
            params: scenario.params,
            day: Day(0),
            domains: scenario.domains,
            baskets: scenario.baskets,
            schedule: scenario.schedule,
            rib,
            registry,
            infra,
            alexa: scenario.alexa,
            entry_cache: Mutex::new(EntryCache::default()),
        };
        world.apply_through(Day(0));
        world
    }

    /// Convenience: build the default scenario at `params`.
    pub fn imc2016(params: ScenarioParams) -> Self {
        Self::new(Scenario::imc2016(params))
    }

    /// The current day.
    pub fn day(&self) -> Day {
        self.day
    }

    /// Advances to `day` (monotonic), applying all scheduled events.
    pub fn advance_to(&mut self, day: Day) {
        assert!(day >= self.day, "time must not run backwards");
        // Zone membership is a pure function of the day; dropping the
        // cached lists here is the only invalidation the cache needs.
        *self.entry_cache.get_mut() = EntryCache::default();
        self.apply_through(day);
        self.day = day;
    }

    fn apply_through(&mut self, day: Day) {
        // Split borrows: the schedule hands out events while we mutate
        // domains/baskets/rib, so copy the batch.
        let batch: Vec<_> = self.schedule.take_through(day).to_vec();
        for ev in batch {
            match ev.action {
                // Zone-file membership is derived from the domain state;
                // these two exist for schedule traceability only.
                Action::Register(_) | Action::Delete(_) => {}
                Action::SetDiversion(id, d) => {
                    if let Some(dom) = self.domains.get_mut(id.0 as usize) {
                        dom.diversion = d;
                    }
                }
                Action::BasketDiversion(b, d) => {
                    let members = self
                        .baskets
                        .get(b.0 as usize)
                        .map(|b| b.members.clone())
                        .unwrap_or_default();
                    for m in members {
                        if let Some(dom) = self.domains.get_mut(m.0 as usize) {
                            dom.diversion = d;
                        }
                    }
                }
                Action::BasketOutage(b, on) => {
                    if let Some(basket) = self.baskets.get_mut(b.0 as usize) {
                        basket.outage = on;
                    }
                }
                Action::PrefixOrigin { prefix, from, to } => {
                    if let Some(a) = from {
                        self.rib.withdraw(prefix, a);
                    }
                    if let Some(a) = to {
                        self.rib.announce(prefix, a);
                    }
                }
            }
        }
    }

    /// The AS-to-name directory (seed data for reference discovery).
    pub fn as_registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// Today's Routeviews-style prefix-to-AS snapshot.
    pub fn pfx2as(&self) -> Pfx2As {
        self.rib.snapshot()
    }

    /// Infrastructure SLD table.
    pub fn infra(&self) -> &[InfraDomain] {
        &self.infra
    }

    /// All domain states (index = [`DomainId`]).
    pub fn domains(&self) -> &[DomainState] {
        &self.domains
    }

    /// Basket table.
    pub fn baskets(&self) -> &[BasketInfo] {
        &self.baskets
    }

    /// Today's zone file of `tld`: every delegated SLD. The list is
    /// computed once per `(day, tld)` and shared out of a cache, so
    /// zone-transfer hot-reload polls and per-shard sweeps pay one
    /// collection per day instead of one per call.
    pub fn zone_entries(&self, tld: Tld) -> Arc<Vec<ZoneEntry>> {
        if let Some(hit) = self.entry_cache.lock().zones.get(&tld) {
            return Arc::clone(hit);
        }
        let entries = Arc::new(self.collect_zone_entries(tld));
        self.entry_cache
            .lock()
            .zones
            .insert(tld, Arc::clone(&entries));
        entries
    }

    /// Streams today's zone membership of `tld` without materialising a
    /// list (and without touching the cache) — for callers that only walk
    /// the entries once.
    pub fn zone_entry_iter(&self, tld: Tld) -> impl Iterator<Item = ZoneEntry> + '_ {
        let day = self.day;
        let domains = self
            .domains
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.tld == tld && d.alive_on(day))
            .map(|(i, _)| ZoneEntry::Domain(DomainId(i as u32)));
        let infra = self
            .infra
            .iter()
            .enumerate()
            .filter(move |(_, inf)| inf.tld == tld)
            .map(|(i, _)| ZoneEntry::Infra(i));
        domains.chain(infra)
    }

    fn collect_zone_entries(&self, tld: Tld) -> Vec<ZoneEntry> {
        self.zone_entry_iter(tld).collect()
    }

    /// Today's Alexa-style list (empty before the cc start day), cached
    /// per day like [`zone_entries`](Self::zone_entries).
    pub fn alexa_entries(&self) -> Arc<Vec<ZoneEntry>> {
        if let Some(hit) = &self.entry_cache.lock().alexa {
            return Arc::clone(hit);
        }
        let entries = Arc::new(self.collect_alexa_entries());
        self.entry_cache.lock().alexa = Some(Arc::clone(&entries));
        entries
    }

    fn collect_alexa_entries(&self) -> Vec<ZoneEntry> {
        self.alexa
            .iter()
            .filter(|e| {
                e.from <= self.day
                    && e.until.map_or(true, |u| self.day < u)
                    && self.domains[e.domain.0 as usize].alive_on(self.day)
            })
            .map(|e| ZoneEntry::Domain(e.domain))
            .collect()
    }

    /// Number of alive domains in `tld` today.
    pub fn zone_size(&self, tld: Tld) -> usize {
        self.domains
            .iter()
            .filter(|d| d.tld == tld && d.alive_on(self.day))
            .count()
    }

    /// Today's registry zone file for `tld`, in master-file text — what
    /// the measurement platform's stage I downloads daily (paper §3.1).
    /// Contains the delegation NS records of every alive SLD.
    pub fn zone_file_text(&self, tld: Tld) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "$ORIGIN {}.", tld.label());
        let _ = writeln!(out, "$TTL 86400");
        let _ = writeln!(out, "; {} zone, day {}", tld.label(), self.day);
        for entry in self.zone_entry_iter(tld) {
            let apex = self.entry_name(entry);
            let hosts: Vec<Name> = match entry {
                ZoneEntry::Domain(id) => {
                    let st = &self.domains[id.0 as usize];
                    self.ns_hosts(id, st)
                }
                ZoneEntry::Infra(i) => match self.infra[i].owner {
                    InfraOwner::Provider(p) => {
                        (0..2).map(|k| Self::provider_ns_host(p, k).0).collect()
                    }
                    InfraOwner::Hoster(h) => (0..2).map(|k| Self::hoster_ns_host(h, k).0).collect(),
                },
            };
            for host in hosts {
                let _ = writeln!(out, "{apex} IN NS {host}");
            }
        }
        out
    }

    /// The apex name of a zone entry.
    pub fn entry_name(&self, entry: ZoneEntry) -> Name {
        match entry {
            ZoneEntry::Domain(id) => self.domain_name(id),
            ZoneEntry::Infra(i) => self.infra[i].sld.clone(),
        }
    }

    /// `d<id>.<tld>`.
    pub fn domain_name(&self, id: DomainId) -> Name {
        let st = &self.domains[id.0 as usize];
        let label = domain_label(id);
        Name::from_labels([label.as_bytes(), st.tld.label().as_bytes()])
            .expect("generated names are valid")
    }

    /// Ground truth for a domain **today**.
    pub fn ground_truth(&self, id: DomainId) -> GroundTruth {
        let st = &self.domains[id.0 as usize];
        if !st.alive_on(self.day) {
            return GroundTruth {
                provider: None,
                diversion: Diversion::None,
            };
        }
        GroundTruth {
            provider: st.diversion.provider(),
            diversion: st.diversion,
        }
    }

    // -----------------------------------------------------------------
    // Answer model (shared by the bulk resolver and materialisation)
    // -----------------------------------------------------------------

    fn provider_spec(p: ProviderId) -> &'static ProviderSpec {
        &PROVIDERS[p.0 as usize]
    }

    fn hoster_spec(h: HosterId) -> &'static HosterSpec {
        &HOSTERS[h.0 as usize]
    }

    /// The `k`-th name-server host `(name, address)` of a provider.
    pub fn provider_ns_host(p: ProviderId, k: usize) -> (Name, IpAddr) {
        let s = Self::provider_spec(p);
        assert!(!s.ns_labels.is_empty(), "{} sells no DNS service", s.name);
        let label = s.ns_labels[k % s.ns_labels.len()];
        let sld = s.ns_slds[k % s.ns_slds.len()];
        let name: Name = format!("{label}.{sld}").parse().expect("valid host");
        (name, spec::provider_ns_ip(p, k))
    }

    /// The `k`-th name-server host `(name, address)` of a hoster.
    pub fn hoster_ns_host(h: HosterId, k: usize) -> (Name, IpAddr) {
        let s = Self::hoster_spec(h);
        let name: Name = format!("ns{}.{}", k + 1, s.ns_sld)
            .parse()
            .expect("valid host");
        (name, spec::hoster_ns_ip(h, k))
    }

    /// Number of distinct NS hosts a provider runs (enough to rotate
    /// through every NS label and every NS SLD).
    pub fn provider_ns_host_count(p: ProviderId) -> usize {
        let s = Self::provider_spec(p);
        s.ns_labels.len().max(s.ns_slds.len()).max(2)
    }

    /// The two NS host names of a domain, given its current state.
    fn ns_hosts(&self, id: DomainId, st: &DomainState) -> Vec<Name> {
        match st.diversion {
            Diversion::NsDelegation(p) | Diversion::NsOnly(p) => {
                let count = Self::provider_ns_host_count(p);
                let a = id.0 as usize % count;
                let b = (id.0 as usize + 1) % count;
                let mut v = vec![Self::provider_ns_host(p, a).0];
                if b != a {
                    v.push(Self::provider_ns_host(p, b).0);
                }
                v
            }
            _ => {
                let h = st.hoster;
                vec![Self::hoster_ns_host(h, 0).0, Self::hoster_ns_host(h, 1).0]
            }
        }
    }

    /// The apex IPv4 address of a domain, given its current state.
    fn apex_v4(&self, id: DomainId, st: &DomainState) -> Ipv4Addr {
        if let Some((b, member)) = st.basket {
            let addressing = self.baskets[b.0 as usize].spec.addressing;
            match addressing {
                BasketAddressing::DedicatedPrefix => return spec::basket_ip(b, member),
                BasketAddressing::WixStyle => {
                    if st.diversion.diverts_traffic() {
                        return spec::basket_ip(b, member);
                    }
                    return spec::hoster_ip(hid::AWS, id.0);
                }
                BasketAddressing::Shared => {}
            }
        }
        match st.diversion {
            Diversion::ARecord(p) | Diversion::Cname(p) | Diversion::NsDelegation(p) => {
                spec::provider_cloud_ip(p, id.0)
            }
            _ => spec::hoster_ip(st.hoster, id.0),
        }
    }

    /// The AAAA address of a domain's web endpoint, when one exists.
    fn apex_v6(&self, id: DomainId, st: &DomainState) -> Option<std::net::Ipv6Addr> {
        if !st.wants_aaaa {
            return None;
        }
        match st.diversion {
            Diversion::ARecord(p) | Diversion::Cname(p) | Diversion::NsDelegation(p)
                if Self::provider_spec(p).ipv6 =>
            {
                Some(spec::provider_cloud_ip6(p, id.0))
            }
            _ => None,
        }
    }

    /// The CNAME hops of `www.<domain>`, if it is an alias.
    fn www_chain(&self, id: DomainId, st: &DomainState) -> Vec<Name> {
        match st.diversion {
            Diversion::Cname(p) => {
                let s = Self::provider_spec(p);
                if p == pid::AKAMAI {
                    // Akamai-style double indirection, in two flavours:
                    // www.x → dN.edgekey.net   → eN.akamaiedge.net → A
                    // www.x → dN.edgesuite.net → eN.akamai.net     → A
                    let (hop1, hop2) = if id.0 % 2 == 0 {
                        ("edgekey.net", "akamaiedge.net")
                    } else {
                        ("edgesuite.net", "akamai.net")
                    };
                    vec![
                        format!("d{}.{hop1}", id.0).parse().expect("valid"),
                        format!("e{}.{hop2}", id.0).parse().expect("valid"),
                    ]
                } else {
                    vec![format!("d{}.{}", id.0, s.cname_slds[0])
                        .parse()
                        .expect("valid")]
                }
            }
            Diversion::None if st.www_cname_to_hoster => {
                // Wix-style: the site lives on a cloud (AWS).
                vec![format!("d{}.compute.amazonaws.com", id.0)
                    .parse()
                    .expect("valid")]
            }
            _ => Vec::new(),
        }
    }

    fn basket_outage(&self, st: &DomainState) -> bool {
        st.outage
            || st
                .basket
                .is_some_and(|(b, _)| self.baskets[b.0 as usize].outage)
    }

    // -----------------------------------------------------------------
    // Bulk resolution
    // -----------------------------------------------------------------

    /// Resolves a query against today's world state, producing exactly what
    /// the wire path (root → TLD → authoritative) would produce.
    pub fn resolve(&self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        let mut answers = Vec::new();
        let rcode = self.answer_into(qname, qtype, &mut answers)?;
        Ok(Resolution {
            rcode,
            answers,
            elapsed_us: 0,
        })
    }

    /// Core answering logic; appends records and returns the final rcode.
    fn answer_into(
        &self,
        qname: &Name,
        qtype: RrType,
        answers: &mut Vec<Record>,
    ) -> Result<Rcode, ResolveError> {
        let labels: Vec<&[u8]> = qname.labels().collect();
        if labels.is_empty() {
            return Ok(Rcode::NxDomain);
        }
        let tld = match std::str::from_utf8(labels[labels.len() - 1])
            .ok()
            .and_then(Tld::from_label)
        {
            Some(t) => t,
            None => return Ok(Rcode::NxDomain),
        };
        if labels.len() == 1 {
            // Query for the TLD apex itself: not a studied case; NODATA.
            return Ok(Rcode::NoError);
        }
        let sld_label = labels[labels.len() - 2];

        // Customer domain?
        if let Some(id) = parse_domain_label(sld_label) {
            if (id.0 as usize) < self.domains.len() && self.domains[id.0 as usize].tld == tld {
                return self.answer_domain(id, &labels[..labels.len() - 2], qtype, answers);
            }
            return Ok(Rcode::NxDomain);
        }

        // Infrastructure SLD?
        let sld_str = String::from_utf8_lossy(sld_label);
        let full = format!("{sld_str}.{}", tld.label());
        if let Some(idx) = self
            .infra
            .iter()
            .position(|i| i.sld.to_string().trim_end_matches('.') == full)
        {
            return self.answer_infra(idx, &labels[..labels.len() - 2], qtype, answers);
        }
        Ok(Rcode::NxDomain)
    }

    fn answer_domain(
        &self,
        id: DomainId,
        sub: &[&[u8]],
        qtype: RrType,
        answers: &mut Vec<Record>,
    ) -> Result<Rcode, ResolveError> {
        let st = &self.domains[id.0 as usize];
        if !st.alive_on(self.day) {
            return Ok(Rcode::NxDomain);
        }
        if self.basket_outage(st) {
            return Err(ResolveError::ServerFailure(Rcode::ServFail));
        }
        let apex = self.domain_name(id);
        match sub {
            [] => match qtype {
                RrType::A => {
                    push(answers, &apex, RData::A(self.apex_v4(id, st)));
                    Ok(Rcode::NoError)
                }
                RrType::Aaaa => {
                    if let Some(v6) = self.apex_v6(id, st) {
                        push(answers, &apex, RData::Aaaa(v6));
                    }
                    Ok(Rcode::NoError)
                }
                RrType::Ns => {
                    for h in self.ns_hosts(id, st) {
                        push(answers, &apex, RData::Ns(h));
                    }
                    Ok(Rcode::NoError)
                }
                _ => Ok(Rcode::NoError),
            },
            [www] if *www == b"www" => {
                let www_name = apex.prepend("www").expect("short label");
                let chain = self.www_chain(id, st);
                if chain.is_empty() {
                    // Same answers as the apex, owned by www.
                    return match qtype {
                        RrType::A => {
                            push(answers, &www_name, RData::A(self.apex_v4(id, st)));
                            Ok(Rcode::NoError)
                        }
                        RrType::Aaaa => {
                            if let Some(v6) = self.apex_v6(id, st) {
                                push(answers, &www_name, RData::Aaaa(v6));
                            }
                            Ok(Rcode::NoError)
                        }
                        _ => Ok(Rcode::NoError),
                    };
                }
                if qtype == RrType::Cname {
                    push(answers, &www_name, RData::Cname(chain[0].clone()));
                    return Ok(Rcode::NoError);
                }
                // Emit the chain, then the terminal records.
                let mut owner = www_name;
                for hop in &chain {
                    push(answers, &owner, RData::Cname(hop.clone()));
                    owner = hop.clone();
                }
                match qtype {
                    RrType::A => push(answers, &owner, RData::A(self.apex_v4(id, st))),
                    RrType::Aaaa => {
                        if let Some(v6) = self.apex_v6(id, st) {
                            push(answers, &owner, RData::Aaaa(v6));
                        }
                    }
                    _ => {}
                }
                Ok(Rcode::NoError)
            }
            _ => Ok(Rcode::NxDomain),
        }
    }

    fn answer_infra(
        &self,
        idx: usize,
        sub: &[&[u8]],
        qtype: RrType,
        answers: &mut Vec<Record>,
    ) -> Result<Rcode, ResolveError> {
        let inf = &self.infra[idx];
        let apex = inf.sld.clone();
        let web_ip = match inf.owner {
            InfraOwner::Provider(p) => spec::provider_prefix(p, 0).nth_v4(8).expect("room"),
            InfraOwner::Hoster(h) => spec::hoster_prefix(h).nth_v4(8).expect("room"),
        };
        let ns_hosts: Vec<(Name, IpAddr)> = match inf.owner {
            InfraOwner::Provider(p) => (0..Self::provider_ns_host_count(p))
                .map(|k| Self::provider_ns_host(p, k))
                .collect(),
            InfraOwner::Hoster(h) => (0..2).map(|k| Self::hoster_ns_host(h, k)).collect(),
        };

        match sub {
            [] => match qtype {
                RrType::A => {
                    push(answers, &apex, RData::A(web_ip));
                    Ok(Rcode::NoError)
                }
                RrType::Ns => {
                    for (h, _) in &ns_hosts {
                        push(answers, &apex, RData::Ns(h.clone()));
                    }
                    Ok(Rcode::NoError)
                }
                _ => Ok(Rcode::NoError),
            },
            [www] if *www == b"www" => {
                if qtype == RrType::A {
                    let www_name = apex.prepend("www").expect("short");
                    push(answers, &www_name, RData::A(web_ip));
                }
                Ok(Rcode::NoError)
            }
            sub => {
                // NS hosts, CNAME targets (dN.<sld> / eN.<sld>), and the
                // AWS compute names (dN.compute.amazonaws.com).
                let owner = {
                    let mut v: Vec<&[u8]> = sub.to_vec();
                    v.extend(apex.labels());
                    Name::from_labels(v).expect("valid")
                };
                // A name-server host?
                if let Some((_, ip)) = ns_hosts.iter().find(|(h, _)| *h == owner) {
                    if qtype == RrType::A {
                        if let IpAddr::V4(v4) = ip {
                            push(answers, &owner, RData::A(*v4));
                        }
                    }
                    return Ok(Rcode::NoError);
                }
                // Provider ns hosts beyond the first two (e.g. CloudFlare's
                // many named servers).
                if let InfraOwner::Provider(p) = inf.owner {
                    for k in 0..Self::provider_ns_host_count(p) {
                        let (h, ip) = Self::provider_ns_host(p, k);
                        if h == owner {
                            if qtype == RrType::A {
                                if let IpAddr::V4(v4) = ip {
                                    push(answers, &owner, RData::A(v4));
                                }
                            }
                            return Ok(Rcode::NoError);
                        }
                    }
                }
                // CNAME-target / compute names carry a dN/eN first label.
                let first = sub[sub.len() - 1];
                let first = if sub.len() > 1 { sub[0] } else { first };
                if let Some(id) = parse_domain_label(first).or_else(|| {
                    // eN.<sld> second-hop names.
                    first.strip_prefix(b"e").and_then(|digits| {
                        let mut buf = vec![b'd'];
                        buf.extend_from_slice(digits);
                        parse_domain_label(&buf)
                    })
                }) {
                    if (id.0 as usize) < self.domains.len() {
                        let st = &self.domains[id.0 as usize];
                        // Akamai first hop chains to the second hop.
                        let second_hop = match inf.sld.to_string().as_str() {
                            "edgekey.net." => Some("akamaiedge.net"),
                            "edgesuite.net." => Some("akamai.net"),
                            _ => None,
                        };
                        if let (Some(hop2), true, true) =
                            (second_hop, first.starts_with(b"d"), qtype != RrType::Cname)
                        {
                            let next: Name = format!("e{}.{hop2}", id.0).parse().expect("valid");
                            push(answers, &owner, RData::Cname(next.clone()));
                            match qtype {
                                RrType::A => push(answers, &next, RData::A(self.apex_v4(id, st))),
                                RrType::Aaaa => {
                                    if let Some(v6) = self.apex_v6(id, st) {
                                        push(answers, &next, RData::Aaaa(v6));
                                    }
                                }
                                _ => {}
                            }
                            return Ok(Rcode::NoError);
                        }
                        match qtype {
                            RrType::A => push(answers, &owner, RData::A(self.apex_v4(id, st))),
                            RrType::Aaaa => {
                                if let Some(v6) = self.apex_v6(id, st) {
                                    push(answers, &owner, RData::Aaaa(v6));
                                }
                            }
                            _ => {}
                        }
                        return Ok(Rcode::NoError);
                    }
                }
                Ok(Rcode::NxDomain)
            }
        }
    }
}

fn push(answers: &mut Vec<Record>, owner: &Name, rdata: RData) {
    answers.push(Record::new(owner.clone(), Class::In, TTL, rdata));
}

// ---------------------------------------------------------------------------
// Wire materialisation
// ---------------------------------------------------------------------------

impl World {
    /// Builds real zones and authoritative servers for **today's** state and
    /// binds them on `net`. Intended for small worlds (tests, examples,
    /// full-fidelity validation); rebuild after advancing days.
    pub fn materialize(&self, net: &Arc<Network>) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());

        // Root zone + TLD zones.
        let mut root = Zone::new(Name::root());
        // Ordered map: iterated below when binding TLD servers, so the
        // bind order (and thus simulation state) must not depend on hashing.
        let mut tld_zones: BTreeMap<Tld, Zone> = BTreeMap::new();
        for tld in [Tld::Com, Tld::Net, Tld::Org, Tld::Nl, Tld::Biz] {
            let tld_name: Name = tld.label().parse().expect("valid");
            let ns_name: Name = format!("ns.nic.{}", tld.label()).parse().expect("valid");
            let addr = spec::tld_server_addr(tld);
            root.add(tld_name.clone(), RData::Ns(ns_name.clone()));
            if let IpAddr::V4(v4) = addr {
                root.add(ns_name.clone(), RData::A(v4));
            }
            let mut z = Zone::new(tld_name);
            z.add(ns_name.clone(), RData::Ns(ns_name.clone()));
            if let IpAddr::V4(v4) = addr {
                z.add(ns_name, RData::A(v4));
            }
            tld_zones.insert(tld, z);
        }

        // Per-owner servers.
        let provider_srv: Vec<Arc<AuthServer>> = (0..9).map(|_| AuthServer::new()).collect();
        let hoster_srv: Vec<Arc<AuthServer>> = HOSTERS.iter().map(|_| AuthServer::new()).collect();

        // Infrastructure zones.
        for inf in &self.infra {
            let mut z = Zone::new(inf.sld.clone());
            let (srv, ns_hosts, web_ip): (&Arc<AuthServer>, Vec<(Name, IpAddr)>, Ipv4Addr) =
                match inf.owner {
                    InfraOwner::Provider(p) => (
                        &provider_srv[p.0 as usize],
                        (0..Self::provider_ns_host_count(p))
                            .map(|k| Self::provider_ns_host(p, k))
                            .collect(),
                        spec::provider_prefix(p, 0).nth_v4(8).expect("room"),
                    ),
                    InfraOwner::Hoster(h) => (
                        &hoster_srv[h.0 as usize],
                        (0..2).map(|k| Self::hoster_ns_host(h, k)).collect(),
                        spec::hoster_prefix(h).nth_v4(8).expect("room"),
                    ),
                };
            z.add(inf.sld.clone(), RData::A(web_ip));
            z.add(inf.sld.prepend("www").expect("short"), RData::A(web_ip));
            for (h, ip) in &ns_hosts {
                z.add(inf.sld.clone(), RData::Ns(h.clone()));
                if h.is_subdomain_of(&inf.sld) {
                    if let IpAddr::V4(v4) = ip {
                        z.add(h.clone(), RData::A(*v4));
                    }
                }
            }
            // CNAME-target names & compute names for alive customers.
            for (i, st) in self.domains.iter().enumerate() {
                let id = DomainId(i as u32);
                if !st.alive_on(self.day) {
                    continue;
                }
                let chain = self.www_chain(id, st);
                for (hop_idx, hop) in chain.iter().enumerate() {
                    if hop.is_subdomain_of(&inf.sld) {
                        if hop_idx + 1 < chain.len() {
                            z.add(hop.clone(), RData::Cname(chain[hop_idx + 1].clone()));
                        } else {
                            z.add(hop.clone(), RData::A(self.apex_v4(id, st)));
                            if let Some(v6) = self.apex_v6(id, st) {
                                z.add(hop.clone(), RData::Aaaa(v6));
                            }
                        }
                    }
                }
            }
            // Delegation from the TLD + in-TLD glue.
            let tz = tld_zones.get_mut(&inf.tld).expect("tld exists");
            for (h, ip) in &ns_hosts {
                tz.add(inf.sld.clone(), RData::Ns(h.clone()));
                if let (IpAddr::V4(v4), true) = (ip, ends_in_tld(h, inf.tld)) {
                    tz.add(h.clone(), RData::A(*v4));
                }
            }
            let handle = catalog.add_zone(z, vec![]);
            srv.serve_zone(handle);
        }

        // Customer zones.
        for (i, st) in self.domains.iter().enumerate() {
            let id = DomainId(i as u32);
            if !st.alive_on(self.day) || self.basket_outage(st) {
                continue;
            }
            let apex = self.domain_name(id);
            let mut z = Zone::new(apex.clone());
            z.add(apex.clone(), RData::A(self.apex_v4(id, st)));
            if let Some(v6) = self.apex_v6(id, st) {
                z.add(apex.clone(), RData::Aaaa(v6));
            }
            let www = apex.prepend("www").expect("short");
            let chain = self.www_chain(id, st);
            if let Some(first) = chain.first() {
                z.add(www, RData::Cname(first.clone()));
            } else {
                z.add(www.clone(), RData::A(self.apex_v4(id, st)));
                if let Some(v6) = self.apex_v6(id, st) {
                    z.add(www, RData::Aaaa(v6));
                }
            }
            let hosts = self.ns_hosts(id, st);
            for h in &hosts {
                z.add(apex.clone(), RData::Ns(h.clone()));
            }
            // Delegation in the TLD zone.
            let tz = tld_zones.get_mut(&st.tld).expect("tld exists");
            for h in &hosts {
                tz.add(apex.clone(), RData::Ns(h.clone()));
            }
            let handle = catalog.add_zone(z, vec![]);
            match st.diversion {
                Diversion::NsDelegation(p) | Diversion::NsOnly(p) => {
                    provider_srv[p.0 as usize].serve_zone(handle)
                }
                _ => hoster_srv[st.hoster.0 as usize].serve_zone(handle),
            }
        }

        // Bind everything.
        let root_srv = AuthServer::new();
        root_srv.serve_zone(catalog.add_zone(root, vec![spec::root_server_addr()]));
        root_srv.bind(net, spec::root_server_addr());
        for (tld, z) in tld_zones {
            let srv = AuthServer::new();
            srv.serve_zone(catalog.add_zone(z, vec![spec::tld_server_addr(tld)]));
            srv.bind(net, spec::tld_server_addr(tld));
        }
        for (p, srv) in provider_srv.iter().enumerate() {
            let p = ProviderId(p as u8);
            if PROVIDERS[p.0 as usize].ns_labels.is_empty() {
                continue;
            }
            for k in 0..Self::provider_ns_host_count(p) {
                srv.bind(net, Self::provider_ns_host(p, k).1);
            }
        }
        for (h, srv) in hoster_srv.iter().enumerate() {
            for k in 0..2 {
                srv.bind(net, Self::hoster_ns_host(HosterId(h as u8), k).1);
            }
        }
        catalog.set_root_hints(vec![spec::root_server_addr()]);
        catalog
    }
}

fn ends_in_tld(name: &Name, tld: Tld) -> bool {
    name.labels()
        .last()
        .map(|l| l == tld.label().as_bytes())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BasketId;

    fn tiny_world() -> World {
        World::imc2016(ScenarioParams::tiny(42))
    }

    fn first_with(world: &World, pred: impl Fn(&DomainState) -> bool) -> DomainId {
        for (i, st) in world.domains().iter().enumerate() {
            if st.alive_on(world.day()) && pred(st) {
                return DomainId(i as u32);
            }
        }
        panic!("no domain matches");
    }

    /// Regression for the per-call `Vec<ZoneEntry>` rebuild: within one
    /// day every `zone_entries`/`alexa_entries` call must hand back the
    /// *same* allocation (an `Arc` clone, zero new collections), and
    /// advancing the day must refresh it exactly once.
    #[test]
    fn zone_entries_are_cached_per_day() {
        let mut w = tiny_world();
        let first = w.zone_entries(Tld::Com);
        for _ in 0..100 {
            let again = w.zone_entries(Tld::Com);
            assert!(
                Arc::ptr_eq(&first, &again),
                "same-day polls must share one cached allocation"
            );
        }
        // Other TLDs get their own cached list without evicting .com.
        let net = w.zone_entries(Tld::Net);
        assert!(!Arc::ptr_eq(&first, &net));
        assert!(Arc::ptr_eq(&first, &w.zone_entries(Tld::Com)));
        // The iterator variant streams the same membership.
        let streamed: Vec<ZoneEntry> = w.zone_entry_iter(Tld::Com).collect();
        assert_eq!(streamed, *first);
        // Day change invalidates; content then matches a fresh collect.
        w.advance_to(Day(25));
        let after = w.zone_entries(Tld::Com);
        assert!(!Arc::ptr_eq(&first, &after), "advance must invalidate");
        assert_eq!(*after, w.zone_entry_iter(Tld::Com).collect::<Vec<_>>());
        let alexa = w.alexa_entries();
        assert!(!alexa.is_empty(), "alexa list live past cc start");
        assert!(Arc::ptr_eq(&alexa, &w.alexa_entries()));
    }

    #[test]
    fn zone_entries_track_liveness() {
        let mut w = tiny_world();
        let before = w.zone_size(Tld::Com);
        w.advance_to(Day(59));
        let after = w.zone_size(Tld::Com);
        assert!(
            after != before,
            "churn should change zone size ({before} -> {after})"
        );
    }

    #[test]
    fn apex_a_resolves_for_plain_domain() {
        let w = tiny_world();
        let id = first_with(&w, |st| {
            st.diversion == Diversion::None && st.basket.is_none()
        });
        let name = w.domain_name(id);
        let res = w.resolve(&name, RrType::A).unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        let a = res.records_of(RrType::A).next().unwrap();
        match a.rdata {
            RData::A(ip) => {
                let h = w.domains()[id.0 as usize].hoster;
                assert!(spec::hoster_prefix(h).contains(IpAddr::V4(ip)));
            }
            _ => panic!("A expected"),
        }
    }

    #[test]
    fn cname_customer_chains_into_provider() {
        let w = tiny_world();
        let id = first_with(&w, |st| matches!(st.diversion, Diversion::Cname(_)));
        let p = w.domains()[id.0 as usize].diversion.provider().unwrap();
        let www = w.domain_name(id).prepend("www").unwrap();
        let res = w.resolve(&www, RrType::A).unwrap();
        let chain = res.cname_chain();
        assert!(!chain.is_empty());
        let spec_ = &PROVIDERS[p.0 as usize];
        let tail_sld = chain.last().unwrap().sld().to_string();
        assert!(
            spec_.cname_slds.iter().any(|s| format!("{s}.") == tail_sld),
            "{tail_sld} not in {:?}",
            spec_.cname_slds
        );
        let a = res.records_of(RrType::A).next().expect("terminal A");
        match a.rdata {
            RData::A(ip) => assert!(spec::provider_prefix(p, 0).contains(IpAddr::V4(ip))),
            _ => panic!(),
        }
    }

    #[test]
    fn ns_delegated_customer_references_provider_ns_sld() {
        let w = tiny_world();
        let id = first_with(&w, |st| matches!(st.diversion, Diversion::NsDelegation(_)));
        let p = w.domains()[id.0 as usize].diversion.provider().unwrap();
        let res = w.resolve(&w.domain_name(id), RrType::Ns).unwrap();
        let ns: Vec<_> = res.records_of(RrType::Ns).collect();
        assert!(!ns.is_empty());
        for rec in ns {
            match &rec.rdata {
                RData::Ns(host) => {
                    let sld = host.sld().to_string();
                    assert!(
                        PROVIDERS[p.0 as usize]
                            .ns_slds
                            .iter()
                            .any(|s| format!("{s}.") == sld),
                        "{sld}"
                    );
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn ns_only_customer_keeps_hoster_address() {
        let w = tiny_world();
        let id = first_with(&w, |st| matches!(st.diversion, Diversion::NsOnly(_)));
        let hoster = w.domains()[id.0 as usize].hoster;
        let res = w.resolve(&w.domain_name(id), RrType::A).unwrap();
        let rdata = res.records_of(RrType::A).next().unwrap().rdata.clone();
        match rdata {
            RData::A(ip) => assert!(spec::hoster_prefix(hoster).contains(IpAddr::V4(ip))),
            _ => panic!(),
        }
    }

    #[test]
    fn wix_members_flip_between_aws_and_basket_prefix() {
        let mut w = tiny_world();
        let wix = &w.baskets()[0];
        assert_eq!(wix.spec.name, "Wix");
        let member = wix.members[0];
        // Day 0: undiverted → AWS shared hosting addresses.
        let name = w.domain_name(member);
        let res = w.resolve(&name, RrType::A).unwrap();
        let rdata = res.records_of(RrType::A).next().unwrap().rdata.clone();
        match rdata {
            RData::A(ip) => {
                assert!(spec::hoster_prefix(hid::AWS).contains(IpAddr::V4(ip)));
            }
            _ => panic!(),
        }
        // Day 3 (inside the first F5 stint): basket prefix, F5 origin.
        w.advance_to(Day(3));
        let res = w.resolve(&name, RrType::A).unwrap();
        let rdata = res.records_of(RrType::A).next().unwrap().rdata.clone();
        match rdata {
            RData::A(ip) => {
                assert!(spec::basket_prefix(BasketId(0)).contains(IpAddr::V4(ip)));
                let p2a = w.pfx2as();
                assert_eq!(
                    p2a.single_origin(IpAddr::V4(ip)),
                    Some(Asn(55002)),
                    "F5 origin"
                );
            }
            _ => panic!(),
        }
        // Day 5 (inside the 2015-03-05 peak): Incapsula origin.
        w.advance_to(Day(5));
        let res = w.resolve(&name, RrType::A).unwrap();
        let rdata = res.records_of(RrType::A).next().unwrap().rdata.clone();
        match rdata {
            RData::A(ip) => {
                assert_eq!(w.pfx2as().single_origin(IpAddr::V4(ip)), Some(Asn(19551)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn sedo_outage_day_fails_resolution() {
        let mut w = tiny_world();
        // The tiny world only has 60 days; the Sedo outage (day 266) is out
        // of range, so force-check the mechanism at the state level instead.
        let sedo_idx = w
            .baskets()
            .iter()
            .position(|b| b.spec.name == "Sedo")
            .unwrap();
        let member = w.baskets()[sedo_idx].members[0];
        let name = w.domain_name(member);
        assert!(w.resolve(&name, RrType::A).is_ok());
        w.baskets[sedo_idx].outage = true;
        assert!(matches!(
            w.resolve(&name, RrType::A),
            Err(ResolveError::ServerFailure(Rcode::ServFail))
        ));
    }

    #[test]
    fn ground_truth_matches_diversion() {
        let w = tiny_world();
        let id = first_with(&w, |st| matches!(st.diversion, Diversion::NsDelegation(_)));
        let t = w.ground_truth(id);
        assert!(t.provider.is_some());
        assert!(t.diversion.delegates_dns());
    }

    #[test]
    fn alexa_list_appears_at_cc_start() {
        let mut w = tiny_world();
        assert!(w.alexa_entries().is_empty());
        w.advance_to(Day(20));
        assert!(!w.alexa_entries().is_empty());
    }

    #[test]
    fn aaaa_only_for_v6_providers() {
        let w = tiny_world();
        for (i, st) in w.domains().iter().enumerate() {
            if !st.alive_on(w.day()) {
                continue;
            }
            let id = DomainId(i as u32);
            if let Ok(res) = w.resolve(&w.domain_name(id), RrType::Aaaa) {
                if let Some(rec) = res.records_of(RrType::Aaaa).next() {
                    let p = st.diversion.provider().expect("AAAA implies provider");
                    assert!(PROVIDERS[p.0 as usize].ipv6);
                    match rec.rdata {
                        RData::Aaaa(ip) => {
                            assert!(spec::provider_prefix_v6(p).contains(IpAddr::V6(ip)))
                        }
                        _ => panic!(),
                    }
                }
            }
        }
    }

    #[test]
    fn zone_file_text_roundtrips_through_the_parser() {
        let w = tiny_world();
        let text = w.zone_file_text(Tld::Com);
        let origin: Name = "com".parse().unwrap();
        let parsed = dps_authdns::zonefile::delegated_names(&origin, &text).unwrap();
        let mut expected: Vec<String> = w
            .zone_entries(Tld::Com)
            .iter()
            .map(|&e| w.entry_name(e).to_string())
            .collect();
        expected.sort();
        let parsed: Vec<String> = parsed.into_iter().map(|n| n.to_string()).collect();
        assert_eq!(parsed, expected);
    }

    #[test]
    fn unknown_names_nxdomain() {
        let w = tiny_world();
        let res = w
            .resolve(&"d99999999.com".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
        let res = w
            .resolve(&"notadomain.unknowntld".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
    }

    #[test]
    fn history_records_routing_at_measurement_time() {
        use dps_netsim::{OriginChange, RibHistory};
        // Horizon past the first ENOM→Verisign flip (day 30).
        let mut world = World::imc2016(ScenarioParams {
            seed: 4,
            scale: 0.05,
            gtld_days: 35,
            cc_start_day: 35,
        });
        let mut history = RibHistory::new();
        for day in 0..35 {
            world.advance_to(Day(day));
            history.record(Day(day), world.pfx2as());
        }
        assert_eq!(history.len(), 35);
        let changes = history.diff(Day(29), Day(30));
        let flip = changes.iter().find_map(|c| match c {
            OriginChange::OriginFlip { from, to, .. } => Some((from.clone(), to.clone())),
            _ => None,
        });
        let (from, to) = flip.expect("ENOM→Verisign flip recorded on day 30");
        assert_eq!(from[0].0, 21740, "ENOM before");
        assert_eq!(to[0].0, 26415, "Verisign during diversion");
    }
}
