//! Authoritative name-server processes bound on the simulated network.

use crate::catalog::ZoneHandle;
use crate::zone::LookupOutcome;
use dps_dns::{Message, Name, RData, Rcode, Record, RrType};
use dps_netsim::net::Handler;
use dps_netsim::Network;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

/// Maximum CNAME chase depth inside one response.
const MAX_CHAIN: usize = 8;

/// An authoritative server serving a set of zones.
///
/// One `AuthServer` can serve millions of zones (as CloudFlare's name
/// servers do); it can be bound at several addresses.
#[derive(Default)]
pub struct AuthServer {
    zones: RwLock<HashMap<Name, ZoneHandle>>,
}

impl AuthServer {
    /// A server with no zones.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Starts serving a (shared) zone.
    pub fn serve_zone(&self, zone: ZoneHandle) {
        let origin = zone.read().origin().clone();
        self.zones.write().insert(origin, zone);
    }

    /// Stops serving the zone with this origin.
    pub fn drop_zone(&self, origin: &Name) {
        self.zones.write().remove(origin);
    }

    /// Number of zones served.
    pub fn zone_count(&self) -> usize {
        self.zones.read().len()
    }

    /// The deepest served zone covering `qname`.
    fn find_zone(&self, qname: &Name) -> Option<ZoneHandle> {
        let zones = self.zones.read();
        let mut cur = Some(qname.clone());
        while let Some(c) = cur {
            if let Some(z) = zones.get(&c) {
                return Some(Arc::clone(z));
            }
            cur = c.parent();
        }
        zones.get(&Name::root()).cloned()
    }

    /// Answers one parsed query (the wire-independent core, also used by
    /// tests). Returns `None` for messages we would drop on the floor.
    pub fn answer(&self, query: &Message) -> Option<Message> {
        // The response keeps the query's header and question, none of
        // its records: copy only those.
        let query = Message {
            header: query.header.clone(),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        answer_from(
            query,
            |qname| self.find_zone(qname),
            |zone, qname, qtype| {
                let z = zone.read();
                qname
                    .is_subdomain_of(z.origin())
                    .then(|| z.lookup(qname, qtype))
            },
            |zone| zone.read().soa_record(),
        )
    }

    /// A network handler decoding/encoding wire messages.
    pub fn handler(self: &Arc<Self>) -> Handler {
        let me = Arc::clone(self);
        Arc::new(move |_src: IpAddr, payload: &[u8]| {
            let query = Message::parse(payload).ok()?;
            let resp = me.answer(&query)?;
            resp.to_bytes().ok()
        })
    }

    /// Binds this server's handler at `addr` on `net`.
    pub fn bind(self: &Arc<Self>, net: &Network, addr: IpAddr) {
        net.bind_service(addr, self.handler());
    }
}

/// Answers one parsed query (taken by value: its question becomes the
/// response's) from one server's zones, given how to reach
/// them: `find_zone` gives the deepest served zone covering a name (a
/// served root zone covers every name), `lookup_within` looks a name up
/// in a zone ([`Zone::lookup`](crate::Zone::lookup)) or gives `None` when
/// the name is not at or below the zone's origin, and `soa_record` gives
/// the SOA record a negative answer carries. The zone covering the
/// question answers it, and a CNAME is chased through every zone the
/// server serves, up to `MAX_CHAIN` hops. Returns `None` for messages a
/// server drops (responses, and queries without exactly one question).
///
/// [`AuthServer::answer`] runs it over materialized zones; a model that
/// computes the same lookups on demand gets the same responses.
pub fn answer_from<Z>(
    query: Message,
    find_zone: impl Fn(&Name) -> Option<Z>,
    lookup_within: impl Fn(&Z, &Name, RrType) -> Option<LookupOutcome>,
    soa_record: impl Fn(&Z) -> Record,
) -> Option<Message> {
    if query.header.qr || query.questions.len() != 1 {
        return None;
    }
    // The question moves into the response; the record sections are
    // filled below, beside it.
    let mut resp = query.into_answer_template();
    let question = resp.questions.first()?;

    let Some(zone) = find_zone(&question.qname) else {
        resp.header.rcode = Rcode::Refused;
        return Some(resp);
    };

    // The CNAME target being chased, once the chain has left the
    // question's name.
    let mut target: Option<Name> = None;
    for hop in 0..MAX_CHAIN {
        let qname = target.as_ref().unwrap_or(&question.qname);
        // A CNAME may lead out of the first zone; see if we serve the
        // target.
        let outcome = match lookup_within(&zone, qname, question.qtype) {
            Some(outcome) => outcome,
            None => match find_zone(qname)
                .and_then(|other| lookup_within(&other, qname, question.qtype))
            {
                Some(outcome) => outcome,
                None => break,
            },
        };
        match outcome {
            LookupOutcome::Answer(recs) => {
                resp.header.aa = true;
                append(&mut resp.answers, recs);
                break;
            }
            LookupOutcome::Cname(rec) => {
                resp.header.aa = true;
                let next = match &rec.rdata {
                    RData::Cname(t) => t.clone(),
                    // A Cname outcome always carries CNAME rdata; if
                    // that invariant ever broke, answer with what we
                    // have rather than abort the server.
                    _ => break,
                };
                resp.answers.push(rec);
                if hop + 1 == MAX_CHAIN {
                    break;
                }
                target = Some(next);
            }
            LookupOutcome::Referral { ns, glue } => {
                resp.header.aa = false;
                append(&mut resp.authorities, ns);
                append(&mut resp.additionals, glue);
                break;
            }
            LookupOutcome::NoData => {
                resp.header.aa = true;
                resp.authorities.push(soa_record(&zone));
                break;
            }
            LookupOutcome::NxDomain => {
                // Only authoritative for the *first* owner; a dangling
                // CNAME target keeps NOERROR with the partial chain.
                if resp.answers.is_empty() {
                    resp.header.aa = true;
                    resp.header.rcode = Rcode::NxDomain;
                }
                resp.authorities.push(soa_record(&zone));
                break;
            }
        }
    }
    Some(resp)
}

/// Appends records to a response section, taking them whole when the
/// section is still empty.
fn append(section: &mut Vec<Record>, records: Vec<Record>) {
    if section.is_empty() {
        *section = records;
    } else {
        section.extend(records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use dps_dns::{Question, Soa};
    use parking_lot::RwLock;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(s: &str) -> RData {
        RData::A(s.parse::<Ipv4Addr>().unwrap())
    }

    fn handle(z: Zone) -> ZoneHandle {
        Arc::new(RwLock::new(z))
    }

    fn server_with_zones() -> Arc<AuthServer> {
        let srv = AuthServer::new();
        let mut customer = Zone::new(n("examp.le"));
        customer.add(n("examp.le"), a("10.0.0.1"));
        customer.add(n("www.examp.le"), RData::Cname(n("edge.foob.ar")));
        srv.serve_zone(handle(customer));

        let mut dps = Zone::new(n("foob.ar"));
        dps.add(n("edge.foob.ar"), a("10.0.0.2"));
        srv.serve_zone(handle(dps));
        srv
    }

    fn ask(srv: &Arc<AuthServer>, qname: &str, qtype: RrType) -> Message {
        let q = Message::query(1, Question::new(n(qname), qtype));
        srv.answer(&q).expect("query answered")
    }

    #[test]
    fn plain_answer_sets_aa() {
        let srv = server_with_zones();
        let r = ask(&srv, "examp.le", RrType::A);
        assert!(r.header.aa);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn cname_chain_expanded_within_server() {
        let srv = server_with_zones();
        let r = ask(&srv, "www.examp.le", RrType::A);
        assert_eq!(r.answers.len(), 2);
        assert_eq!(r.answers[0].rtype(), RrType::Cname);
        assert_eq!(r.answers[1].rtype(), RrType::A);
        assert_eq!(r.answers[1].name, n("edge.foob.ar"));
    }

    #[test]
    fn cname_to_foreign_zone_returns_partial_chain() {
        let srv = AuthServer::new();
        let mut z = Zone::new(n("examp.le"));
        z.add(n("www.examp.le"), RData::Cname(n("elsewhere.net")));
        srv.serve_zone(handle(z));
        let r = ask(&srv, "www.examp.le", RrType::A);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rtype(), RrType::Cname);
    }

    #[test]
    fn nxdomain_carries_soa() {
        let srv = server_with_zones();
        let r = ask(&srv, "missing.examp.le", RrType::A);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert!(r.header.aa);
        assert!(matches!(r.authorities[0].rdata, RData::Soa(Soa { .. })));
    }

    #[test]
    fn unserved_name_refused() {
        let srv = server_with_zones();
        let r = ask(&srv, "www.unknown.tld", RrType::A);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn responses_and_multi_question_ignored() {
        let srv = server_with_zones();
        let mut resp_msg = Message::query(1, Question::new(n("examp.le"), RrType::A));
        resp_msg.header.qr = true;
        assert!(srv.answer(&resp_msg).is_none());

        let mut two = Message::query(1, Question::new(n("examp.le"), RrType::A));
        two.questions
            .push(Question::new(n("examp.le"), RrType::Aaaa));
        assert!(srv.answer(&two).is_none());
    }

    #[test]
    fn cname_loop_bounded() {
        let srv = AuthServer::new();
        let mut z = Zone::new(n("examp.le"));
        z.add(n("a.examp.le"), RData::Cname(n("b.examp.le")));
        z.add(n("b.examp.le"), RData::Cname(n("a.examp.le")));
        srv.serve_zone(handle(z));
        let r = ask(&srv, "a.examp.le", RrType::A);
        assert!(r.answers.len() <= MAX_CHAIN);
    }

    #[test]
    fn wire_handler_roundtrips() {
        let srv = server_with_zones();
        let handler = srv.handler();
        let q = Message::query(7, Question::new(n("examp.le"), RrType::A));
        let resp = handler("198.51.100.1".parse().unwrap(), &q.to_bytes().unwrap()).unwrap();
        let parsed = Message::parse(&resp).unwrap();
        assert_eq!(parsed.header.id, 7);
        assert_eq!(parsed.answers.len(), 1);
        // Garbage in, nothing out.
        assert!(handler("198.51.100.1".parse().unwrap(), &[0xFF, 0x00]).is_none());
    }

    #[test]
    fn delegation_referral_over_server() {
        let srv = AuthServer::new();
        let mut tld = Zone::new(n("le"));
        tld.add(n("examp.le"), RData::Ns(n("ns1.examp.le")));
        tld.add(n("ns1.examp.le"), a("10.0.0.53"));
        srv.serve_zone(handle(tld));
        let r = ask(&srv, "www.examp.le", RrType::A);
        assert!(!r.header.aa);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.additionals.len(), 1);
    }
}
