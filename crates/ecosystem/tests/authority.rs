//! The world-model authority answers every query exactly as the
//! materialized zones do: for each server address both bind, the
//! response bytes are equal. The queries reach every branch of both
//! models — customer apexes and `www` names (alive, deleted, in an
//! outage, never registered), CNAME hop names (live and stale), NS hosts,
//! infrastructure apexes, empty non-terminals, the TLD zones' `ns.nic`
//! cuts and names no zone holds — for every record type a sweep asks and
//! a few it does not.

use dps_dns::{Message, Name, Question, RrType};
use dps_ecosystem::spec::HOSTERS;
use dps_ecosystem::{servers, AuthorityServer, DomainId, HosterId, ScenarioParams, World, GTLDS};
use dps_netsim::{Day, Network};
use std::net::IpAddr;
use std::sync::Arc;

const QTYPES: [RrType; 6] = [
    RrType::A,
    RrType::Aaaa,
    RrType::Ns,
    RrType::Cname,
    RrType::Mx,
    RrType::Any,
];

fn world_at(seed: u64, days: u32, day: u32) -> World {
    let mut world = World::imc2016(ScenarioParams {
        seed,
        scale: 0.004,
        gtld_days: days,
        cc_start_day: 30,
    });
    world.advance_to(Day(day));
    world
}

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// Sends `query` to `addr` and returns the response bytes.
fn exchange(net: &Arc<Network>, addr: IpAddr, query: &[u8]) -> Option<Vec<u8>> {
    let mut socket = net.socket("172.16.9.9".parse().unwrap(), 0);
    socket.send_to(addr, query);
    socket.recv(1_000_000).ok().map(|(_, bytes)| bytes)
}

/// Names under every infrastructure SLD and the TLDs: apexes, `www`,
/// NS hosts and what lies under them, empty non-terminals, stale and
/// malformed hop names, and names no zone holds.
fn infra_names(world: &World) -> Vec<Name> {
    let mut names = vec![
        Name::root(),
        n("example"),
        n("d99999999.com"),
        n("d001.com"),
    ];
    for tld in ["com", "net", "org", "nl", "biz"] {
        for sub in ["", "nic.", "ns.nic.", "x.ns.nic.", "d0.", "www.d0."] {
            names.push(n(&format!("{sub}{tld}")));
        }
    }
    for inf in world.infra() {
        let sld = inf.sld.to_string();
        for sub in ["", "www.", "x.", "x.www.", "ns.", "compute.", "x.compute."] {
            names.push(n(&format!("{sub}{sld}")));
        }
        for hop in ["d0", "e1", "d01", "e99999999"] {
            names.push(n(&format!("{hop}.{sld}")));
            names.push(n(&format!("{hop}.compute.{sld}")));
        }
        let ns = world.resolve(&inf.sld, RrType::Ns).unwrap();
        for rec in &ns.answers {
            if let dps_dns::RData::Ns(host) = &rec.rdata {
                names.push(host.clone());
                names.push(host.prepend("x").unwrap());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// A customer domain's own names: apex, `www`, and a non-existent
/// sibling and child.
fn domain_names(world: &World, id: DomainId) -> Vec<Name> {
    let apex = world.domain_name(id);
    let www = apex.prepend("www").unwrap();
    vec![
        apex.prepend("x").unwrap(),
        www.prepend("x").unwrap(),
        apex,
        www,
    ]
}

/// The servers a customer domain's own names reach on the way down,
/// plus one that holds nothing of it.
fn domain_servers(world: &World, id: DomainId) -> Vec<AuthorityServer> {
    let st = &world.domains()[id.0 as usize];
    let mut out = vec![
        AuthorityServer::Root,
        AuthorityServer::Tld(st.tld),
        AuthorityServer::Hoster(st.hoster),
        AuthorityServer::Hoster(HosterId(((st.hoster.0 as usize + 1) % HOSTERS.len()) as u8)),
    ];
    if let (Some(p), true) = (st.diversion.provider(), st.diversion.delegates_dns()) {
        out.push(AuthorityServer::Provider(p));
    }
    out
}

/// The `www` chain's hop names of every domain the bulk model gives one.
fn hop_names(world: &World) -> Vec<Name> {
    let mut names = Vec::new();
    for i in 0..world.domains().len() as u32 {
        let www = world.domain_name(DomainId(i)).prepend("www").unwrap();
        if let Ok(res) = world.resolve(&www, RrType::A) {
            names.extend(res.cname_chain().into_iter().cloned());
        }
    }
    names
}

/// The servers hop names live on: every provider's, and the hosters'
/// (AWS holds `compute.amazonaws.com`).
fn hop_servers() -> Vec<AuthorityServer> {
    let mut out: Vec<AuthorityServer> = Vec::new();
    for (_, server) in servers() {
        if !out.contains(&server)
            && !matches!(server, AuthorityServer::Root | AuthorityServer::Tld(_))
        {
            out.push(server);
        }
    }
    out
}

/// Compares every `(server, name, type)` answer of the two models and
/// returns how many exchanges matched.
fn assert_authority_matches_materialize(world: &World) -> usize {
    let materialized = Network::new(7);
    world.materialize(&materialized);
    let modelled = Network::new(7);
    let hints = world.authority().bind(&modelled);
    assert_eq!(hints, vec![dps_ecosystem::spec::root_server_addr()]);

    // One address per distinct server; every bound address on both sides.
    let mut first_addr: Vec<(AuthorityServer, IpAddr)> = Vec::new();
    for (addr, server) in servers() {
        assert!(
            materialized.is_bound(addr) && modelled.is_bound(addr),
            "{addr}"
        );
        if !first_addr.iter().any(|(s, _)| *s == server) {
            first_addr.push((server, addr));
        }
    }
    let addr_of = |server: AuthorityServer| {
        first_addr
            .iter()
            .find(|(s, _)| *s == server)
            .map(|(_, a)| *a)
    };

    let mut compared = 0usize;
    let mut id = 0u16;
    let mut check = |addr: IpAddr, qname: &Name| {
        for qtype in QTYPES {
            id = id.wrapping_add(1);
            let query = Message::query(id, Question::new(qname.clone(), qtype))
                .to_bytes()
                .unwrap();
            let want = exchange(&materialized, addr, &query);
            let got = exchange(&modelled, addr, &query);
            assert!(want.is_some(), "{addr} {qname} {qtype:?}: no answer");
            assert_eq!(
                got.as_ref().map(|b| Message::parse(b).unwrap()),
                want.as_ref().map(|b| Message::parse(b).unwrap()),
                "{addr} {qname} {qtype:?}"
            );
            assert_eq!(got, want, "{addr} {qname} {qtype:?}: bytes");
            compared += 1;
        }
    };

    for name in infra_names(world) {
        for &(_, addr) in &first_addr {
            check(addr, &name);
        }
    }
    // Every customer domain at the servers its names reach; every
    // sixteenth at every server.
    for i in 0..world.domains().len() as u32 {
        let id = DomainId(i);
        let targets: Vec<IpAddr> = if i % 16 == 0 {
            first_addr.iter().map(|&(_, a)| a).collect()
        } else {
            domain_servers(world, id)
                .into_iter()
                .filter_map(addr_of)
                .collect()
        };
        for addr in targets {
            for name in &domain_names(world, id) {
                check(addr, name);
            }
        }
    }
    let hop_targets: Vec<IpAddr> = hop_servers().into_iter().filter_map(addr_of).collect();
    for name in hop_names(world) {
        for &addr in &hop_targets {
            check(addr, &name);
        }
    }
    // A never-registered id just past the table.
    let past = world.domains().len();
    for &(_, addr) in &first_addr {
        check(addr, &n(&format!("d{past}.com")));
    }
    compared
}

#[test]
fn authority_matches_materialized_zones_on_day_zero() {
    let world = world_at(11, 60, 0);
    let compared = assert_authority_matches_materialize(&world);
    eprintln!("compared {compared}");
    assert!(compared > 50_000);
}

#[test]
fn authority_matches_materialized_zones_after_anomalies_outages_and_deletions() {
    // Day 266 is the Sedo DNS outage; by then anomalies have fired and
    // domains have been deleted.
    let world = world_at(12, 280, 266);
    let day = world.day();
    let outage_basket = world
        .baskets()
        .iter()
        .find(|b| b.outage)
        .expect("a basket is in an outage today");
    assert!(outage_basket
        .members
        .iter()
        .any(|m| world.domains()[m.0 as usize].alive_on(day)));
    assert!(world
        .domains()
        .iter()
        .any(|st| st.deleted.is_some_and(|d| d <= day)));
    assert!(GTLDS.iter().all(|&tld| world.zone_size(tld) > 0));
    let compared = assert_authority_matches_materialize(&world);
    eprintln!("compared {compared}");
    assert!(compared > 50_000);
}
