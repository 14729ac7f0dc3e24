//! In-memory authoritative zones.

use dps_dns::{Class, Name, RData, Record, RrType, Soa};
use std::collections::{HashMap, HashSet};

/// Key of an RRset inside a zone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RrKey {
    owner: Name,
    rtype: RrType,
}

/// The outcome of looking a name/type up in a single zone, before any
/// cross-zone processing (CNAME chasing happens in the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The RRset exists; records are returned in insertion order.
    Answer(Vec<Record>),
    /// The owner exists and has a CNAME; the caller restarts at the target.
    Cname(Record),
    /// The name lies below a zone cut: NS records of the cut plus any glue
    /// addresses the zone holds for those servers.
    Referral {
        /// NS records at the delegation point.
        ns: Vec<Record>,
        /// A/AAAA glue for in-zone name-server names.
        glue: Vec<Record>,
    },
    /// The owner exists but has no RRset of this type.
    NoData,
    /// The owner does not exist in the zone.
    NxDomain,
}

/// A single authoritative zone.
///
/// Records are stored per `(owner, type)` RRset. Delegations are ordinary
/// NS RRsets owned by a name *below* the zone origin; lookup treats any
/// query at or below such a cut as a referral (RFC 1034 §4.3.2 step 3b).
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: Soa,
    default_ttl: u32,
    rrsets: HashMap<RrKey, Vec<RData>>,
    /// Every existing owner name plus implied empty non-terminals,
    /// so NXDOMAIN vs NODATA is decided correctly.
    owners: HashSet<Name>,
    /// Owners of NS RRsets strictly below the origin (zone cuts).
    cuts: HashSet<Name>,
}

impl Zone {
    /// Creates an empty zone with a conventional SOA
    /// ([`default_soa`](Self::default_soa)).
    pub fn new(origin: Name) -> Self {
        let soa = Self::default_soa(&origin);
        let mut owners = HashSet::new();
        owners.insert(origin.clone());
        Self {
            origin,
            soa,
            default_ttl: 300,
            rrsets: HashMap::new(),
            owners,
            cuts: HashSet::new(),
        }
    }

    /// The SOA a new zone at `origin` starts with: `ns1.<origin>`,
    /// `hostmaster.<origin>`, serial 1, a 300 s negative TTL.
    pub fn default_soa(origin: &Name) -> Soa {
        Soa {
            mname: origin.prepend("ns1").unwrap_or_else(|_| origin.clone()),
            rname: origin
                .prepend("hostmaster")
                .unwrap_or_else(|_| origin.clone()),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The zone SOA.
    pub fn soa(&self) -> &Soa {
        &self.soa
    }

    /// The SOA as a record owned by the origin, its TTL the SOA minimum:
    /// what a negative answer carries in its authority section.
    pub fn soa_record(&self) -> Record {
        Record::new(
            self.origin.clone(),
            Class::In,
            self.soa.minimum,
            RData::Soa(self.soa.clone()),
        )
    }

    /// Bumps the SOA serial (zone publish).
    pub fn bump_serial(&mut self) {
        self.soa.serial += 1;
    }

    /// Number of RRsets.
    pub fn rrset_count(&self) -> usize {
        self.rrsets.len()
    }

    fn register_owner(&mut self, owner: &Name) {
        // Insert the owner and all ancestors down to the origin so empty
        // non-terminals answer NODATA, not NXDOMAIN.
        let mut cur = owner.clone();
        while self.owners.insert(cur.clone()) {
            match cur.parent() {
                Some(p) if p.is_subdomain_of(&self.origin) && p != self.origin => cur = p,
                _ => break,
            }
        }
    }

    /// Adds one record to the RRset for `(owner, rdata.rtype())`.
    ///
    /// # Panics
    /// Panics if `owner` is not at or below the zone origin — callers
    /// construct zones programmatically and that is a programming error.
    pub fn add(&mut self, owner: Name, rdata: RData) {
        assert!(
            owner.is_subdomain_of(&self.origin),
            "owner {owner} outside zone {}",
            self.origin
        );
        let rtype = rdata.rtype();
        if rtype == RrType::Ns && owner != self.origin {
            self.cuts.insert(owner.clone());
        }
        self.register_owner(&owner);
        self.rrsets
            .entry(RrKey { owner, rtype })
            .or_default()
            .push(rdata);
    }

    /// Replaces the RRset for `(owner, rtype)` with the given data
    /// (removes it when `data` is empty).
    pub fn set(&mut self, owner: Name, rtype: RrType, data: Vec<RData>) {
        assert!(owner.is_subdomain_of(&self.origin));
        let key = RrKey {
            owner: owner.clone(),
            rtype,
        };
        if data.is_empty() {
            self.rrsets.remove(&key);
            if rtype == RrType::Ns {
                self.cuts.remove(&owner);
            }
            // Owner bookkeeping is kept conservative: owners are only added.
            // A name whose last RRset is removed answers NODATA, which is
            // indistinguishable from an empty non-terminal for the study.
        } else {
            debug_assert!(data.iter().all(|d| d.rtype() == rtype));
            if rtype == RrType::Ns && owner != self.origin {
                self.cuts.insert(owner.clone());
            }
            self.register_owner(&owner);
            self.rrsets.insert(key, data);
        }
        self.bump_serial();
    }

    /// Removes every RRset owned by `owner` (domain deletion).
    pub fn remove_owner(&mut self, owner: &Name) {
        self.rrsets.retain(|k, _| k.owner != *owner);
        self.cuts.remove(owner);
        self.bump_serial();
    }

    /// Raw RRset access.
    pub fn get(&self, owner: &Name, rtype: RrType) -> Option<&[RData]> {
        self.rrsets
            .get(&RrKey {
                owner: owner.clone(),
                rtype,
            })
            .map(Vec::as_slice)
    }

    fn records(&self, owner: &Name, rtype: RrType) -> Vec<Record> {
        self.get(owner, rtype)
            .map(|set| {
                set.iter()
                    .map(|rd| Record::new(owner.clone(), Class::In, self.default_ttl, rd.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The deepest zone cut that is an ancestor-or-self of `name`
    /// (strictly below the origin), if any.
    fn covering_cut(&self, name: &Name) -> Option<Name> {
        // Walk from `name` upwards toward the origin; the first NS-owning
        // ancestor we meet is the deepest cut.
        let mut cur = Some(name.clone());
        while let Some(c) = cur {
            if c == self.origin {
                return None;
            }
            if self.cuts.contains(&c) {
                return Some(c);
            }
            cur = c.parent();
        }
        None
    }

    /// Glue records (A/AAAA) this zone holds for the given NS target names.
    pub fn glue_for(&self, ns: &[Record]) -> Vec<Record> {
        let mut glue = Vec::new();
        for rec in ns {
            if let RData::Ns(target) = &rec.rdata {
                if target.is_subdomain_of(&self.origin) {
                    glue.extend(self.records(target, RrType::A));
                    glue.extend(self.records(target, RrType::Aaaa));
                }
            }
        }
        glue
    }

    /// Looks up `(qname, qtype)` within this zone.
    ///
    /// The caller must ensure `qname` is at or below the zone origin.
    pub fn lookup(&self, qname: &Name, qtype: RrType) -> LookupOutcome {
        debug_assert!(qname.is_subdomain_of(&self.origin));

        // 1. Delegation? (Not for queries *at* the cut asking for NS —
        //    those are still referrals per RFC 1034, the parent is not
        //    authoritative for the child.)
        if let Some(cut) = self.covering_cut(qname) {
            let ns = self.records(&cut, RrType::Ns);
            let glue = self.glue_for(&ns);
            return LookupOutcome::Referral { ns, glue };
        }

        // 2. CNAME at the owner (unless CNAME itself was asked).
        if qtype != RrType::Cname && qtype != RrType::Any {
            if let Some(set) = self.get(qname, RrType::Cname) {
                if let Some(rd) = set.first() {
                    return LookupOutcome::Cname(Record::new(
                        qname.clone(),
                        Class::In,
                        self.default_ttl,
                        rd.clone(),
                    ));
                }
            }
        }

        // 3. Exact RRset.
        let answer = self.records(qname, qtype);
        if !answer.is_empty() {
            return LookupOutcome::Answer(answer);
        }

        // 4. NODATA vs NXDOMAIN.
        if self.owners.contains(qname) {
            LookupOutcome::NoData
        } else {
            LookupOutcome::NxDomain
        }
    }

    /// Iterates over all `(owner, rdata)` pairs (for zone-file export).
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &RData)> {
        self.rrsets
            .iter()
            .flat_map(|(k, set)| set.iter().map(move |rd| (&k.owner, rd)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(s: &str) -> RData {
        RData::A(s.parse::<Ipv4Addr>().unwrap())
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(n("examp.le"));
        z.add(n("examp.le"), RData::Ns(n("ns1.examp.le")));
        z.add(n("ns1.examp.le"), a("10.0.0.53"));
        z.add(n("examp.le"), a("10.0.0.1"));
        z.add(n("www.examp.le"), RData::Cname(n("examp.le")));
        z.add(n("deep.label.examp.le"), a("10.0.0.9"));
        // Delegated child zone.
        z.add(n("child.examp.le"), RData::Ns(n("ns.child.examp.le")));
        z.add(n("ns.child.examp.le"), a("10.0.1.53"));
        z
    }

    #[test]
    fn exact_answer() {
        let z = sample_zone();
        match z.lookup(&n("examp.le"), RrType::A) {
            LookupOutcome::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rdata, a("10.0.0.1"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cname_returned_for_other_types() {
        let z = sample_zone();
        match z.lookup(&n("www.examp.le"), RrType::A) {
            LookupOutcome::Cname(rec) => assert_eq!(rec.rdata, RData::Cname(n("examp.le"))),
            other => panic!("{other:?}"),
        }
        // Asking for the CNAME itself gives the record as an answer.
        match z.lookup(&n("www.examp.le"), RrType::Cname) {
            LookupOutcome::Answer(recs) => assert_eq!(recs.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delegation_yields_referral_with_glue() {
        let z = sample_zone();
        for q in ["child.examp.le", "www.child.examp.le", "a.b.child.examp.le"] {
            match z.lookup(&n(q), RrType::A) {
                LookupOutcome::Referral { ns, glue } => {
                    assert_eq!(ns.len(), 1);
                    assert_eq!(ns[0].name, n("child.examp.le"));
                    assert_eq!(glue.len(), 1, "glue for {q}");
                    assert_eq!(glue[0].name, n("ns.child.examp.le"));
                }
                other => panic!("{q}: {other:?}"),
            }
        }
    }

    #[test]
    fn ns_query_at_cut_is_still_referral() {
        let z = sample_zone();
        assert!(matches!(
            z.lookup(&n("child.examp.le"), RrType::Ns),
            LookupOutcome::Referral { .. }
        ));
    }

    #[test]
    fn apex_ns_is_answer_not_referral() {
        let z = sample_zone();
        match z.lookup(&n("examp.le"), RrType::Ns) {
            LookupOutcome::Answer(recs) => assert_eq!(recs.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = sample_zone();
        // Existing owner, missing type.
        assert_eq!(z.lookup(&n("examp.le"), RrType::Mx), LookupOutcome::NoData);
        // Empty non-terminal: label.examp.le exists only as an ancestor.
        assert_eq!(
            z.lookup(&n("label.examp.le"), RrType::A),
            LookupOutcome::NoData
        );
        // Truly absent.
        assert_eq!(
            z.lookup(&n("nope.examp.le"), RrType::A),
            LookupOutcome::NxDomain
        );
    }

    #[test]
    fn set_replaces_and_removes() {
        let mut z = sample_zone();
        z.set(n("examp.le"), RrType::A, vec![a("10.9.9.9")]);
        match z.lookup(&n("examp.le"), RrType::A) {
            LookupOutcome::Answer(recs) => assert_eq!(recs[0].rdata, a("10.9.9.9")),
            other => panic!("{other:?}"),
        }
        z.set(n("examp.le"), RrType::A, vec![]);
        assert_eq!(z.lookup(&n("examp.le"), RrType::A), LookupOutcome::NoData);
    }

    #[test]
    fn remove_owner_deletes_all_sets() {
        let mut z = sample_zone();
        z.remove_owner(&n("child.examp.le"));
        // No longer a cut; the name answers NODATA (owner set is
        // conservative), definitely not a referral.
        assert!(!matches!(
            z.lookup(&n("www.child.examp.le"), RrType::A),
            LookupOutcome::Referral { .. }
        ));
    }

    #[test]
    fn serial_bumps_on_set() {
        let mut z = sample_zone();
        let before = z.soa().serial;
        z.set(n("examp.le"), RrType::A, vec![a("10.0.0.2")]);
        assert!(z.soa().serial > before);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn out_of_zone_add_panics() {
        let mut z = Zone::new(n("examp.le"));
        z.add(n("other.tld"), a("10.0.0.1"));
    }
}
