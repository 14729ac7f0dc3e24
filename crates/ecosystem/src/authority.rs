//! The wire path's authoritative DNS, answered from the world model.
//!
//! [`World::materialize`] builds every zone of the day — one per alive
//! customer domain — and binds [`AuthServer`]s over them. A
//! [`DayAuthority`] binds the same servers at the same addresses but
//! builds nothing per domain: the zones no customer domain changes (the
//! root, the TLD zones' `ns.nic` records and infrastructure delegations,
//! the infrastructure zones' own records) form a `Skeleton` built once
//! per process, and whatever a customer domain adds — its zone, its TLD
//! delegation, its `www` CNAME hop records — is computed per query from
//! the day's domain and basket tables. The answers go through the same
//! [`answer_from`] loop as an [`AuthServer`]'s, so a response is the
//! materialized servers' response byte for byte, quirks included
//! (`crates/ecosystem/tests/authority.rs` checks every server against
//! `materialize`).
//!
//! [`AuthServer`]: dps_authdns::AuthServer

use crate::domain::{
    domain_apex, id_name, parse_id_label, ApexWire, Diversion, DomainState, IdLabel,
};
use crate::ids::{DomainId, HosterId, ProviderId, Tld};
use crate::spec::{self, HOSTERS, PROVIDERS};
use crate::world::{
    ends_in_tld, hop_suffixes, infra_table, DayState, InfraOwner, World, ZoneEntry, TTL,
};
use dps_authdns::server::answer_from;
use dps_authdns::{LookupOutcome, Zone};
use dps_dns::name::Labels;
use dps_dns::{Class, Message, Name, RData, Record, RrType};
use dps_netsim::net::Handler;
use dps_netsim::Network;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, OnceLock};

/// Every TLD the root zone delegates, in [`Tld`] order.
const TLDS: [Tld; 5] = [Tld::Com, Tld::Net, Tld::Org, Tld::Nl, Tld::Biz];

/// One authoritative server of the simulated DNS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthorityServer {
    /// The root server.
    Root,
    /// A TLD registry's server.
    Tld(Tld),
    /// A provider's name servers (one server behind every NS host).
    Provider(ProviderId),
    /// A hoster's two name servers.
    Hoster(HosterId),
}

/// Every server address with the server bound there, in bind order: the
/// root, the TLD servers, each provider's NS hosts (providers that sell
/// DNS service), each hoster's two.
pub fn servers() -> Vec<(IpAddr, AuthorityServer)> {
    let mut out = vec![(spec::root_server_addr(), AuthorityServer::Root)];
    out.extend(
        TLDS.iter()
            .map(|&tld| (spec::tld_server_addr(tld), AuthorityServer::Tld(tld))),
    );
    for (p, s) in PROVIDERS.iter().enumerate() {
        let p = ProviderId(p as u8);
        if s.ns_labels.is_empty() {
            continue;
        }
        for k in 0..World::provider_ns_host_count(p) {
            out.push((spec::provider_ns_ip(p, k), AuthorityServer::Provider(p)));
        }
    }
    for h in 0..HOSTERS.len() {
        let h = HosterId(h as u8);
        for k in 0..2 {
            out.push((spec::hoster_ns_ip(h, k), AuthorityServer::Hoster(h)));
        }
    }
    out
}

/// The part of the world's DNS no customer domain changes.
pub(crate) struct Skeleton {
    /// The root zone: each TLD's delegation and its server's address.
    pub(crate) root: Zone,
    /// Each TLD zone's `ns.nic.<tld>` records and every infrastructure
    /// delegation with its in-TLD glue.
    pub(crate) tlds: BTreeMap<Tld, Zone>,
    /// Each infrastructure zone's own records (index = [`infra_table`]
    /// index): apex and `www` addresses, the NS set, in-zone NS host
    /// addresses.
    pub(crate) infra_zones: Vec<Zone>,
    /// Infrastructure zone indices by the wire form of their SLD.
    by_sld: BTreeMap<Vec<u8>, Vec<usize>>,
}

impl Skeleton {
    fn build() -> Self {
        let mut root = Zone::new(Name::root());
        let mut tlds = BTreeMap::new();
        for tld in TLDS {
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
            tlds.insert(tld, z);
        }
        let mut infra_zones = Vec::new();
        let mut by_sld: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
        for (i, inf) in infra_table().iter().enumerate() {
            let web_ip = infra_web_ip(inf.owner);
            let mut z = Zone::new(inf.sld.clone());
            z.add(inf.sld.clone(), RData::A(web_ip));
            z.add(inf.sld.prepend("www").expect("short"), RData::A(web_ip));
            for (h, ip) in World::owner_ns_hosts(inf.owner) {
                z.add(inf.sld.clone(), RData::Ns(h.clone()));
                if h.is_subdomain_of(&inf.sld) {
                    if let IpAddr::V4(v4) = ip {
                        z.add(h.clone(), RData::A(v4));
                    }
                }
            }
            infra_zones.push(z);
            by_sld
                .entry(inf.sld.as_wire().to_vec())
                .or_default()
                .push(i);
            // Delegation from the TLD + in-TLD glue.
            let tz = tlds.get_mut(&inf.tld).expect("tld exists");
            for (h, ip) in World::owner_ns_hosts(inf.owner) {
                tz.add(inf.sld.clone(), RData::Ns(h.clone()));
                if let (IpAddr::V4(v4), true) = (ip, ends_in_tld(h, inf.tld)) {
                    tz.add(h.clone(), RData::A(v4));
                }
            }
        }
        Self {
            root,
            tlds,
            infra_zones,
            by_sld,
        }
    }

    /// The infrastructure zones `name` lies in (at or below their SLD).
    pub(crate) fn zones_holding(&self, name: &Name) -> &[usize] {
        (1..=name.label_count())
            .rev()
            .find_map(|n| self.by_sld.get(name.suffix_wire(n)))
            .map_or(&[], Vec::as_slice)
    }
}

/// The process-wide [`Skeleton`].
pub(crate) fn skeleton() -> &'static Skeleton {
    static SKELETON: OnceLock<Skeleton> = OnceLock::new();
    SKELETON.get_or_init(Skeleton::build)
}

/// The address an infrastructure SLD's apex and `www` resolve to.
fn infra_web_ip(owner: InfraOwner) -> Ipv4Addr {
    match owner {
        InfraOwner::Provider(p) => spec::provider_prefix(p, 0).nth_v4(8).expect("room"),
        InfraOwner::Hoster(h) => spec::hoster_prefix(h).nth_v4(8).expect("room"),
    }
}

/// One zone a [`DayAuthority`] server serves.
#[derive(Debug, Clone, Copy)]
enum ZoneRef {
    /// The root zone.
    Root,
    /// A TLD zone.
    Tld(Tld),
    /// An infrastructure zone ([`World::infra`] index).
    Infra(usize),
    /// An alive customer domain's zone.
    Customer(DomainId),
}

/// One day's authoritative DNS, answered from the world model: what
/// [`World::materialize`] would serve that day, without building a zone
/// per domain. It owns the day's domain and basket tables (shared with
/// the world until the world next changes them), so it is `'static` and
/// can answer on another thread while the world advances.
pub struct DayAuthority {
    state: DayState,
    /// Hop suffixes at least one alive domain's `www` chain uses today;
    /// computed on first need (an empty non-terminal query).
    live_suffixes: OnceLock<Vec<&'static str>>,
}

impl DayAuthority {
    pub(crate) fn new(state: DayState) -> Self {
        Self {
            state,
            live_suffixes: OnceLock::new(),
        }
    }

    /// Binds a handler for every server address on `net` (see
    /// [`servers`]) and returns the root hints.
    pub fn bind(self: &Arc<Self>, net: &Network) -> Vec<IpAddr> {
        for (addr, server) in servers() {
            net.bind_service(addr, self.handler(server));
        }
        vec![spec::root_server_addr()]
    }

    /// A network handler answering as `server`: the handler [`bind`]
    /// installs at each of `server`'s addresses.
    ///
    /// [`bind`]: Self::bind
    pub fn handler(self: &Arc<Self>, server: AuthorityServer) -> Handler {
        let me = Arc::clone(self);
        Arc::new(move |_src: IpAddr, payload: &[u8]| {
            let query = Message::parse(payload).ok()?;
            let resp = me.respond(server, query)?;
            resp.to_bytes().ok()
        })
    }

    /// Answers one parsed query as `server` would; `None` for messages a
    /// server drops.
    fn respond(&self, server: AuthorityServer, query: Message) -> Option<Message> {
        answer_from(
            query,
            |qname| self.covering_zone(server, qname),
            |&zone, qname, qtype| {
                self.in_zone(zone, qname)
                    .then(|| self.zone_lookup(zone, qname, qtype))
            },
            |&zone| self.zone_soa(zone),
        )
    }

    /// The apex name of a zone entry (see [`World::entry_name`]).
    pub fn entry_name(&self, entry: ZoneEntry) -> Name {
        match entry {
            ZoneEntry::Domain(id) => domain_apex(id, self.domain_state(id).tld),
            ZoneEntry::Infra(i) => infra_table()[i].sld.clone(),
        }
    }

    fn domain_state(&self, id: DomainId) -> &DomainState {
        &self.state.domains[id.0 as usize]
    }

    /// The customer domain whose apex is the two-label name with wire
    /// form `apex` (in canonical `d<id>.<tld>` form), if it is alive
    /// today, its DNS is up and it lives in that TLD.
    fn served_domain(&self, apex: &[u8]) -> Option<(DomainId, &DomainState)> {
        let mut labels = Labels::of_wire(apex);
        let (Some(first), Some(tld), None) = (labels.next(), labels.next(), labels.next()) else {
            return None;
        };
        let id = parse_id_label(b'd', first)?;
        if IdLabel::new(b'd', id.0).as_bytes() != first {
            return None;
        }
        let st = self.state.alive(id)?;
        (st.tld.label().as_bytes() == tld && !self.state.basket_outage(st)).then_some((id, st))
    }

    /// The server holding a customer domain's zone.
    fn customer_server(st: &DomainState) -> AuthorityServer {
        match st.diversion {
            Diversion::NsDelegation(p) | Diversion::NsOnly(p) => AuthorityServer::Provider(p),
            _ => AuthorityServer::Hoster(st.hoster),
        }
    }

    /// The zones `server` serves, deepest covering `qname` first.
    fn covering_zone(&self, server: AuthorityServer, qname: &Name) -> Option<ZoneRef> {
        let owner = match server {
            AuthorityServer::Root => return Some(ZoneRef::Root),
            AuthorityServer::Tld(tld) => {
                return (qname.labels().last() == Some(tld.label().as_bytes()))
                    .then_some(ZoneRef::Tld(tld))
            }
            AuthorityServer::Provider(p) => InfraOwner::Provider(p),
            AuthorityServer::Hoster(h) => InfraOwner::Hoster(h),
        };
        // Each enclosing name, deepest first: the suffixes of the wire
        // form that start at a label boundary (`n` labels long).
        let wire = qname.as_wire();
        let mut at = 0usize;
        for n in (1..=qname.label_count()).rev() {
            let suffix = wire.get(at..)?;
            if n == 2 {
                if let Some((id, st)) = self.served_domain(suffix) {
                    if Self::customer_server(st) == server {
                        return Some(ZoneRef::Customer(id));
                    }
                }
            }
            let served = skeleton().by_sld.get(suffix).and_then(|zones| {
                zones
                    .iter()
                    .rev()
                    .find(|&&z| infra_table()[z].owner == owner)
            });
            if let Some(&z) = served {
                return Some(ZoneRef::Infra(z));
            }
            at += 1 + usize::from(*suffix.first()?);
        }
        None
    }

    /// True if `qname` is at or below the origin of a served zone (the
    /// wire-suffix test of [`Name::is_subdomain_of`], with no origin
    /// built).
    fn in_zone(&self, zone: ZoneRef, qname: &Name) -> bool {
        let wire = qname.as_wire();
        match zone {
            ZoneRef::Root => wire.ends_with(&[0]),
            ZoneRef::Tld(tld) => wire.ends_with(skeleton().tlds[&tld].origin().as_wire()),
            ZoneRef::Infra(z) => wire.ends_with(infra_table()[z].sld.as_wire()),
            ZoneRef::Customer(id) => {
                wire.ends_with(ApexWire::new(id, self.domain_state(id).tld).as_bytes())
            }
        }
    }

    /// The SOA record a negative answer from `zone` carries.
    fn zone_soa(&self, zone: ZoneRef) -> Record {
        match zone {
            ZoneRef::Root => skeleton().root.soa_record(),
            ZoneRef::Tld(tld) => skeleton().tlds[&tld].soa_record(),
            ZoneRef::Infra(z) => skeleton().infra_zones[z].soa_record(),
            ZoneRef::Customer(id) => {
                let origin = domain_apex(id, self.domain_state(id).tld);
                let soa = Zone::default_soa(&origin);
                Record::new(origin, Class::In, soa.minimum, RData::Soa(soa))
            }
        }
    }

    /// [`Zone::lookup`] over the zone as `materialize` would build it.
    fn zone_lookup(&self, zone: ZoneRef, qname: &Name, qtype: RrType) -> LookupOutcome {
        match zone {
            ZoneRef::Root => skeleton().root.lookup(qname, qtype),
            ZoneRef::Tld(tld) => self.tld_lookup(tld, qname, qtype),
            ZoneRef::Infra(z) => self.infra_lookup(z, qname, qtype),
            ZoneRef::Customer(id) => self.customer_lookup(id, qname, qtype),
        }
    }

    /// A TLD zone: the skeleton's delegations plus one per served
    /// customer domain. Customer cuts sit directly below the TLD, where
    /// no skeleton record does, so a name under one is a referral to it
    /// and any other name answers as in the skeleton.
    fn tld_lookup(&self, tld: Tld, qname: &Name, qtype: RrType) -> LookupOutcome {
        let zone = &skeleton().tlds[&tld];
        if qname.label_count() >= 2 {
            if let Some((id, st)) = self.served_domain(qname.suffix_wire(2)) {
                let ns = records(
                    qname.suffix(2),
                    World::ns_hosts(id, st)
                        .into_iter()
                        .flatten()
                        .map(|host| RData::Ns(host.clone())),
                );
                let glue = zone.glue_for(&ns);
                return LookupOutcome::Referral { ns, glue };
            }
        }
        zone.lookup(qname, qtype)
    }

    /// An infrastructure zone: the skeleton's records plus every alive
    /// customer's `www` hop names under its SLD.
    fn infra_lookup(&self, z: usize, qname: &Name, qtype: RrType) -> LookupOutcome {
        if let Some((id, st, hop)) = self.live_hop(qname) {
            let hops = World::www_hops(id, st);
            if let (0, Some((prefix, suffix))) = (hop, hops[1]) {
                let next = id_name(prefix, id.0, suffix);
                return match qtype {
                    RrType::Cname => {
                        LookupOutcome::Answer(vec![record(qname.clone(), RData::Cname(next))])
                    }
                    RrType::Any => LookupOutcome::NoData,
                    _ => LookupOutcome::Cname(record(qname.clone(), RData::Cname(next))),
                };
            }
            let answer = match qtype {
                RrType::A => vec![record(qname.clone(), RData::A(self.state.apex_v4(id, st)))],
                RrType::Aaaa => World::apex_v6(id, st)
                    .map(|v6| record(qname.clone(), RData::Aaaa(v6)))
                    .into_iter()
                    .collect(),
                _ => Vec::new(),
            };
            return if answer.is_empty() {
                LookupOutcome::NoData
            } else {
                LookupOutcome::Answer(answer)
            };
        }
        let zone = &skeleton().infra_zones[z];
        match zone.lookup(qname, qtype) {
            LookupOutcome::NxDomain if qname != zone.origin() && self.is_hop_ancestor(qname) => {
                LookupOutcome::NoData
            }
            outcome => outcome,
        }
    }

    /// The alive domain whose `www` chain has `qname` as hop 0 or 1.
    fn live_hop(&self, qname: &Name) -> Option<(DomainId, &DomainState, usize)> {
        let first = qname.labels().next()?;
        let (&prefix, _) = first.split_first()?;
        let id = parse_id_label(prefix, first)?;
        if IdLabel::new(prefix, id.0).as_bytes() != first {
            return None;
        }
        let st = self.state.alive(id)?;
        let hop = World::www_hops(id, st).iter().position(|hop| {
            hop.is_some_and(|(p, suffix)| {
                p == prefix
                    && qname
                        .labels()
                        .skip(1)
                        .eq(suffix.split('.').map(str::as_bytes))
            })
        })?;
        Some((id, st, hop))
    }

    /// True if `qname` is an empty non-terminal above some alive domain's
    /// hop name (`compute.amazonaws.com` above `dN.compute.amazonaws.com`).
    fn is_hop_ancestor(&self, qname: &Name) -> bool {
        let under = |suffix: &str| {
            suffix
                .parse::<Name>()
                .is_ok_and(|s| s.is_subdomain_of(qname))
        };
        if !hop_suffixes().any(under) {
            return false;
        }
        let live = self.live_suffixes.get_or_init(|| {
            let mut live: Vec<&'static str> = Vec::new();
            for (i, st) in self.state.domains.iter().enumerate() {
                if !st.alive_on(self.state.day) {
                    continue;
                }
                for (_, suffix) in World::www_hops(DomainId(i as u32), st)
                    .into_iter()
                    .flatten()
                {
                    if !live.contains(&suffix) {
                        live.push(suffix);
                    }
                }
            }
            live
        });
        live.iter().any(|suffix| under(suffix))
    }

    /// A customer zone: apex address(es) and NS set, and `www` as an
    /// alias into the chain or as the apex's addresses.
    fn customer_lookup(&self, id: DomainId, qname: &Name, qtype: RrType) -> LookupOutcome {
        let st = self.domain_state(id);
        let v4 = || RData::A(self.state.apex_v4(id, st));
        let v6 = || World::apex_v6(id, st).map(RData::Aaaa);
        let first = match qname.label_count() {
            2 => None,
            3 => qname.labels().next(),
            _ => return LookupOutcome::NxDomain,
        };
        // A customer RRset has at most two records (the NS set).
        let rdata: [Option<RData>; 2] = match first {
            None => match qtype {
                RrType::A => [Some(v4()), None],
                RrType::Aaaa => [v6(), None],
                RrType::Ns => World::ns_hosts(id, st).map(|h| h.map(|h| RData::Ns(h.clone()))),
                _ => [None, None],
            },
            Some(b"www") => match World::www_hops(id, st) {
                [Some((prefix, suffix)), _] => {
                    let first = id_name(prefix, id.0, suffix);
                    match qtype {
                        RrType::Cname => [Some(RData::Cname(first)), None],
                        RrType::Any => [None, None],
                        _ => {
                            return LookupOutcome::Cname(record(qname.clone(), RData::Cname(first)))
                        }
                    }
                }
                _ => match qtype {
                    RrType::A => [Some(v4()), None],
                    RrType::Aaaa => [v6(), None],
                    _ => [None, None],
                },
            },
            Some(_) => return LookupOutcome::NxDomain,
        };
        if rdata.iter().all(Option::is_none) {
            LookupOutcome::NoData
        } else {
            LookupOutcome::Answer(records(qname.clone(), rdata.into_iter().flatten()))
        }
    }
}

/// A record of a generated zone (every zone uses the default TTL).
fn record(owner: Name, rdata: RData) -> Record {
    Record::new(owner, Class::In, TTL, rdata)
}

/// An RRset of a generated zone: one record per `rdata`, all owned by
/// `owner` (moved into the last record, cloned for the others).
fn records(owner: Name, rdata: impl IntoIterator<Item = RData>) -> Vec<Record> {
    let mut rdata = rdata.into_iter().peekable();
    let mut out = Vec::new();
    while let Some(rd) = rdata.next() {
        if rdata.peek().is_none() {
            out.push(record(owner, rd));
            break;
        }
        out.push(record(owner.clone(), rd));
    }
    out
}
