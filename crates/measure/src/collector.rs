//! Stage I: collecting one name's records through a query path.

use crate::observation::{is_customer_entry, Row};
use crate::quality::CauseCounts;
use dps_authdns::resolver::{Resolution, ResolveError, Resolver};
use dps_columnar::StringDict;
use dps_dns::{Name, RData, Rcode, RrType};
use dps_ecosystem::World;
use dps_netsim::Pfx2As;
// dps: allow-file(unordered-collection, reason = "SldInterner's caches are keyed lookups only, never iterated; dictionary ids are assigned by StringDict in first-intern order, so hash order cannot leak into output")
use std::collections::HashMap;
use std::net::IpAddr;

/// Fault-handling counters a query path can expose. The sweep supervisor
/// snapshots these around a sweep and stores the delta in the day's
/// [`DayQuality`](crate::quality::DayQuality) record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTelemetry {
    /// Hedged second datagrams sent so far.
    pub hedges: u64,
    /// Circuit-breaker trips so far.
    pub breaker_trips: u64,
}

impl PathTelemetry {
    /// Counter delta since `before` (saturating).
    pub fn since(&self, before: &PathTelemetry) -> PathTelemetry {
        PathTelemetry {
            hedges: self.hedges.saturating_sub(before.hedges),
            breaker_trips: self.breaker_trips.saturating_sub(before.breaker_trips),
        }
    }
}

/// A way to ask the DNS a question. The measurement pipeline is generic
/// over this so the bulk path (direct world evaluation) and the wire path
/// (iterative resolution over the lossy network) share every other line of
/// code.
pub trait QueryPath {
    /// Resolves `(qname, qtype)` from scratch.
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError>;

    /// Advances the path's notion of time without sending — the pause the
    /// supervisor inserts between dead-letter retry passes so transient
    /// faults (blackout windows, open breakers) have time to clear.
    /// Paths without a clock ignore it.
    fn pause_us(&mut self, _dt_us: u64) {}

    /// Current fault-handling counters. Paths without fault handling
    /// report zeros.
    fn telemetry(&self) -> PathTelemetry {
        PathTelemetry::default()
    }

    /// The path's virtual clock, for span timing. Paths without a clock
    /// report a frozen zero (spans over them record zero durations).
    fn now_us(&self) -> u64 {
        0
    }
}

/// Direct evaluation against the world (used for full-scale sweeps).
pub struct BulkPath<'w> {
    world: &'w World,
}

impl<'w> BulkPath<'w> {
    /// Wraps a world.
    pub fn new(world: &'w World) -> Self {
        Self { world }
    }
}

impl QueryPath for BulkPath<'_> {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        self.world.resolve(qname, qtype)
    }
}

/// Iterative resolution over the simulated network.
pub struct WirePath {
    resolver: Resolver,
}

impl WirePath {
    /// Wraps an iterative resolver.
    pub fn new(resolver: Resolver) -> Self {
        Self { resolver }
    }
}

impl QueryPath for WirePath {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        self.resolver.resolve(qname, qtype)
    }

    fn pause_us(&mut self, dt_us: u64) {
        self.resolver.sleep_us(dt_us);
    }

    fn telemetry(&self) -> PathTelemetry {
        PathTelemetry {
            hedges: self.resolver.hedges_sent(),
            breaker_trips: self.resolver.health().map_or(0, |h| h.trips()),
        }
    }

    fn now_us(&self) -> u64 {
        self.resolver.now_us()
    }
}

/// Iterative resolution through the shared caching recursor: wire
/// semantics, but TTL-aware answer/infrastructure caches and query
/// coalescing amortise packets across domains and sweep days.
pub struct RecursorPath {
    worker: dps_recursor::RecursorWorker,
}

impl RecursorPath {
    /// Wraps a recursor worker (one per sweeping thread; see
    /// [`dps_recursor::Recursor::worker`]).
    pub fn new(worker: dps_recursor::RecursorWorker) -> Self {
        Self { worker }
    }

    /// UDP queries this path's socket has sent.
    pub fn queries_sent(&self) -> u64 {
        self.worker.queries_sent()
    }
}

impl QueryPath for RecursorPath {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        self.worker.resolve(qname, qtype)
    }

    fn pause_us(&mut self, dt_us: u64) {
        self.worker.sleep_us(dt_us);
    }

    fn telemetry(&self) -> PathTelemetry {
        let stats = self.worker.service_stats();
        PathTelemetry {
            hedges: stats.hedges,
            breaker_trips: stats.breaker_trips,
        }
    }

    fn now_us(&self) -> u64 {
        self.worker.now_us()
    }
}

/// Interns the registered domain ("SLD" in the paper's terminology) of
/// names through a name-keyed cache. Extraction is public-suffix aware
/// (see [`dps_dns::psl`]); the cache avoids re-rendering names.
pub struct SldInterner {
    psl: dps_dns::PublicSuffixList,
    cache: HashMap<Name, u32>,
    full_cache: HashMap<Name, u32>,
}

impl SldInterner {
    /// Uses the built-in public-suffix subset.
    pub fn new() -> Self {
        Self::with_psl(dps_dns::PublicSuffixList::default_list())
    }

    /// Uses a caller-provided public-suffix list (e.g. the real PSL when
    /// pointed at real data).
    pub fn with_psl(psl: dps_dns::PublicSuffixList) -> Self {
        Self {
            psl,
            cache: HashMap::new(),
            full_cache: HashMap::new(),
        }
    }

    /// Dictionary id of `name`'s registered domain.
    pub fn intern(&mut self, dict: &mut StringDict, name: &Name) -> u32 {
        if let Some(&id) = self.cache.get(name) {
            return id;
        }
        let sld = self.psl.registered_domain(name);
        let mut s = sld.to_string();
        s.pop(); // drop the trailing dot for human-friendly dictionary entries
        let id = dict.intern(&s);
        self.cache.insert(name.clone(), id);
        id
    }

    /// Dictionary id of the full host name (used for NS host analysis,
    /// paper footnote 10). Distinct host names are few (a provider runs a
    /// handful of servers), so the cache stays small.
    pub fn intern_full(&mut self, dict: &mut StringDict, name: &Name) -> u32 {
        if let Some(&id) = self.full_cache.get(name) {
            return id;
        }
        let mut s = name.to_string();
        s.pop();
        let id = dict.intern(&s);
        self.full_cache.insert(name.clone(), id);
        id
    }
}

impl Default for SldInterner {
    fn default() -> Self {
        Self::new()
    }
}

fn v4_of(res: &Resolution) -> u32 {
    res.answers
        .iter()
        .find_map(|r| match r.rdata {
            RData::A(ip) => Some(u32::from(ip)),
            _ => None,
        })
        .unwrap_or(0)
}

fn v6_of(res: &Resolution) -> Option<std::net::Ipv6Addr> {
    res.answers.iter().find_map(|r| match r.rdata {
        RData::Aaaa(ip) => Some(ip),
        _ => None,
    })
}

/// A collected measurement before dictionary encoding: SLDs are still
/// [`Name`]s, so worker threads can produce it without touching the
/// shared dictionary. Only infrastructure names are carried: a customer
/// row's apex is a function of its `entry` code and is never interned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawRow {
    /// Zone-entry code.
    pub entry: u32,
    /// The measured apex of an infrastructure entry (its SLD becomes the
    /// row's `sld` column). `None` for customer entries: their apex is
    /// `d<id>.<tld>`, derived from `entry`, so their `sld` column is 0.
    pub apex: Option<Name>,
    /// Apex IPv4 (packed, 0 = none).
    pub apex_v4: u32,
    /// `www` IPv4 (packed, 0 = none).
    pub www_v4: u32,
    /// AAAA present.
    pub aaaa: bool,
    /// First two distinct CNAME-chain target SLD carriers.
    pub cnames: [Option<Name>; 2],
    /// First two distinct NS host names, deduplicated per SLD (the `ns*`
    /// columns carry SLDs).
    pub ns: [Option<Name>; 2],
    /// First two NS host names verbatim (the `nsh*` columns).
    pub ns_hosts: [Option<Name>; 2],
    /// Origin AS of the apex address (+ second origin for MOAS).
    pub asn1: u32,
    /// Second origin.
    pub asn2: u32,
    /// Origin AS of the `www` address.
    pub www_asn: u32,
    /// Origin AS of the AAAA address (v6 `pfx2as`).
    pub aaaa_asn: u32,
    /// Measurement failed entirely.
    pub failed: bool,
    /// Resource records observed.
    pub data_points: u32,
    /// Some query of this row failed *transiently* (timeout, unreachable,
    /// corrupt reply, SERVFAIL): a retry might complete the measurement.
    /// NXDOMAIN is a definitive observation and never sets this.
    pub retryable: bool,
    /// Per-cause failure tally for this collection attempt.
    pub causes: CauseCounts,
}

impl RawRow {
    /// Dictionary-encodes into a packed [`Row`] (manager-thread step).
    /// Only infrastructure names reach the dictionary: CNAME and NS SLDs,
    /// NS hosts, and the apex of an infrastructure entry. A customer
    /// entry's `sld` is 0.
    pub fn intern(self, dict: &mut StringDict, interner: &mut SldInterner) -> Row {
        let mut pick =
            |name: &Option<Name>| name.as_ref().map(|n| interner.intern(dict, n)).unwrap_or(0);
        let [cname1_n, cname2_n] = &self.cnames;
        let [ns1_n, ns2_n] = &self.ns;
        let cname1 = pick(cname1_n);
        let cname2 = pick(cname2_n);
        let ns1 = pick(ns1_n);
        let ns2 = pick(ns2_n);
        let sld = if is_customer_entry(self.entry) {
            0
        } else {
            pick(&self.apex)
        };
        let mut pick_full = |name: &Option<Name>| {
            name.as_ref()
                .map(|n| interner.intern_full(dict, n))
                .unwrap_or(0)
        };
        let [nsh1_n, nsh2_n] = &self.ns_hosts;
        let nsh1 = pick_full(nsh1_n);
        let nsh2 = pick_full(nsh2_n);
        Row {
            entry: self.entry,
            sld,
            apex_v4: self.apex_v4,
            www_v4: self.www_v4,
            aaaa: self.aaaa,
            cname1,
            cname2,
            ns1,
            ns2,
            nsh1,
            nsh2,
            asn1: self.asn1,
            asn2: self.asn2,
            www_asn: self.www_asn,
            aaaa_asn: self.aaaa_asn,
            failed: self.failed,
            data_points: self.data_points,
        }
    }
}

fn push_distinct(slot: &mut [Option<Name>; 2], name: &Name) {
    match &slot[0] {
        None => slot[0] = Some(name.clone()),
        Some(first) if first.sld() != name.sld() && slot[1].is_none() => {
            slot[1] = Some(name.clone());
        }
        _ => {}
    }
}

/// Collects the paper's record set for one name — apex `A`/`AAAA`, `www`
/// `A`, apex `NS`, with CNAME expansions — and supplements origin ASes
/// from `pfx2as` (stage III). Runs on worker threads; no shared state.
/// `entry` is the name's [`entry_code`](crate::observation::entry_code);
/// only an infrastructure entry's apex is kept in the row.
pub fn collect_raw(path: &mut impl QueryPath, apex: &Name, entry: u32, pfx2as: &Pfx2As) -> RawRow {
    let mut row = RawRow {
        entry,
        apex: (!is_customer_entry(entry)).then(|| apex.clone()),
        ..RawRow::default()
    };

    let apex_res = path.query(apex, RrType::A);
    let apex_res = match apex_res {
        Ok(r) => r,
        Err(e) => {
            row.failed = true;
            row.retryable = e.is_transient();
            row.causes.add(e.cause());
            return row;
        }
    };
    if apex_res.rcode != Rcode::NoError {
        // NXDOMAIN: the name vanished between zone-file fetch and sweep —
        // a definitive observation. SERVFAIL is a server-side fault and
        // worth a dead-letter retry.
        row.failed = true;
        if apex_res.rcode == Rcode::ServFail {
            row.retryable = true;
            row.causes.add(dps_authdns::FailureCause::ServerFailure);
        }
        return row;
    }
    row.data_points += apex_res.answers.len() as u32;
    row.apex_v4 = v4_of(&apex_res);

    let www = apex.prepend("www").expect("www fits");
    let www_res = path.query(&www, RrType::A);
    let aaaa_res = path.query(apex, RrType::Aaaa);
    let ns_res = path.query(apex, RrType::Ns);

    match &www_res {
        Ok(res) => {
            row.data_points += res.answers.len() as u32;
            row.www_v4 = v4_of(res);
            let mut cnames = std::mem::take(&mut row.cnames);
            for target in res.cname_chain() {
                push_distinct(&mut cnames, target);
            }
            row.cnames = cnames;
        }
        Err(e) => {
            row.retryable |= e.is_transient();
            row.causes.add(e.cause());
        }
    }
    let mut aaaa_addr = None;
    match &aaaa_res {
        Ok(res) => {
            row.data_points += res.answers.len() as u32;
            aaaa_addr = v6_of(res);
            row.aaaa = aaaa_addr.is_some();
        }
        Err(e) => {
            row.retryable |= e.is_transient();
            row.causes.add(e.cause());
        }
    }
    match &ns_res {
        Ok(res) => {
            row.data_points += res.answers.len() as u32;
            let mut ns = std::mem::take(&mut row.ns);
            let mut hosts = std::mem::take(&mut row.ns_hosts);
            for rec in res.records_of(RrType::Ns) {
                if let RData::Ns(host) = &rec.rdata {
                    push_distinct(&mut ns, host);
                    if hosts[0].is_none() {
                        hosts[0] = Some(host.clone());
                    } else if hosts[1].is_none() && hosts[0].as_ref() != Some(host) {
                        hosts[1] = Some(host.clone());
                    }
                }
            }
            row.ns = ns;
            row.ns_hosts = hosts;
        }
        Err(e) => {
            row.retryable |= e.is_transient();
            row.causes.add(e.cause());
        }
    }

    // Stage III: supplement origin ASes.
    if row.apex_v4 != 0 {
        if let Some((origins, _)) = pfx2as.origins(IpAddr::V4(row.apex_v4.into())) {
            row.asn1 = origins.first().map(|a| a.0).unwrap_or(0);
            row.asn2 = origins.get(1).map(|a| a.0).unwrap_or(0);
        }
    }
    if row.www_v4 != 0 {
        if let Some((origins, _)) = pfx2as.origins(IpAddr::V4(row.www_v4.into())) {
            row.www_asn = origins.first().map(|a| a.0).unwrap_or(0);
        }
    }
    if let Some(v6) = aaaa_addr {
        if let Some((origins, _)) = pfx2as.origins(IpAddr::V6(v6)) {
            row.aaaa_asn = origins.first().map(|a| a.0).unwrap_or(0);
        }
    }
    row
}

/// [`collect_raw`] + dictionary encoding in one step (sequential paths).
#[allow(clippy::too_many_arguments)]
pub fn collect(
    path: &mut impl QueryPath,
    apex: &Name,
    entry: u32,
    pfx2as: &Pfx2As,
    dict: &mut StringDict,
    interner: &mut SldInterner,
) -> Row {
    collect_raw(path, apex, entry, pfx2as).intern(dict, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_ecosystem::{Diversion, ScenarioParams};

    #[test]
    fn collect_produces_references_for_cname_customer() {
        let world = World::imc2016(ScenarioParams::tiny(3));
        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        let pfx2as = world.pfx2as();

        let (id, st) = world
            .domains()
            .iter()
            .enumerate()
            .find(|(_, st)| matches!(st.diversion, Diversion::Cname(_)) && st.alive_on(world.day()))
            .expect("cname customer");
        let apex = world.domain_name(dps_ecosystem::DomainId(id as u32));
        let mut path = BulkPath::new(&world);
        let row = collect(&mut path, &apex, 0, &pfx2as, &mut dict, &mut interner);

        assert!(!row.failed);
        assert_ne!(row.apex_v4, 0);
        assert_ne!(row.cname1, 0, "CNAME SLD captured");
        assert_ne!(row.ns1, 0, "NS SLD captured");
        assert_ne!(row.asn1, 0, "origin AS supplemented");
        let p = st.diversion.provider().unwrap();
        let spec = &dps_ecosystem::spec::PROVIDERS[p.0 as usize];
        let cname_sld = dict.resolve(row.cname1).unwrap();
        assert!(spec.cname_slds.contains(&cname_sld), "{cname_sld}");
        assert!(spec.asns.contains(&row.asn1), "{}", row.asn1);
        assert!(row.data_points >= 3);
    }

    #[test]
    fn collect_marks_missing_domains_failed() {
        let world = World::imc2016(ScenarioParams::tiny(3));
        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        let pfx2as = world.pfx2as();
        let mut path = BulkPath::new(&world);
        let row = collect(
            &mut path,
            &"d99999999.com".parse().unwrap(),
            0,
            &pfx2as,
            &mut dict,
            &mut interner,
        );
        assert!(row.failed);
        assert_eq!(row.apex_v4, 0);
    }

    #[test]
    fn interner_caches_and_matches_dict() {
        let mut dict = StringDict::new();
        let mut i = SldInterner::new();
        let a = i.intern(&mut dict, &"x.edge.incapdns.net".parse().unwrap());
        let b = i.intern(&mut dict, &"other.incapdns.net".parse().unwrap());
        assert_eq!(a, b);
        assert_eq!(dict.resolve(a), Some("incapdns.net"));
    }
}
