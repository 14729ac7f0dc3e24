//! The referral walk with both caches off, over a small hand-built world:
//! every question descends from the root hints, so these pin the walk
//! itself (glue and glueless referrals, CNAME restarts, NXDOMAIN and
//! NODATA, loss, unreachable and silent servers, garbage replies, backoff
//! and circuit breakers).

use dps_authdns::health::{HealthConfig, HealthTracker};
use dps_authdns::resolver::{ResolveError, Resolver, ResolverConfig};
use dps_authdns::{AuthServer, Catalog, Zone};
use dps_dns::{Name, RData, Rcode, RrType};
use dps_netsim::Network;
use dps_recursor::{CacheConfig, Recursor};
use dps_telemetry::Registry;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn a(s: &str) -> RData {
    RData::A(s.parse::<Ipv4Addr>().unwrap())
}

/// Builds a tiny world: root, `le` TLD, `examp.le` customer zone hosted
/// on a DPS server that also serves `foob.ar` with the CNAME target.
fn build_world(net: &Arc<Network>) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());

    let root_addr = ip("10.255.0.1");
    let tld_addr = ip("10.255.1.1");
    let dps_addr = ip("10.255.2.1");

    let mut root = Zone::new(Name::root());
    root.add(n("le"), RData::Ns(n("ns.le")));
    root.add(n("ns.le"), a("10.255.1.1"));
    root.add(n("ar"), RData::Ns(n("ns.ar")));
    root.add(n("ns.ar"), a("10.255.1.1"));
    let root_handle = catalog.add_zone(root, vec![root_addr]);

    let mut le = Zone::new(n("le"));
    le.add(n("examp.le"), RData::Ns(n("ns.foob.ar")));
    // Glueless: ns.foob.ar must be resolved via .ar.
    let le_handle = catalog.add_zone(le, vec![tld_addr]);

    let mut ar = Zone::new(n("ar"));
    ar.add(n("foob.ar"), RData::Ns(n("ns.foob.ar")));
    ar.add(n("ns.foob.ar"), a("10.255.2.1"));
    let ar_handle = catalog.add_zone(ar, vec![tld_addr]);

    let mut examp = Zone::new(n("examp.le"));
    examp.add(n("examp.le"), a("203.0.113.10"));
    examp.add(n("www.examp.le"), RData::Cname(n("edge.foob.ar")));
    examp.add(n("examp.le"), RData::Ns(n("ns.foob.ar")));
    let examp_handle = catalog.add_zone(examp, vec![dps_addr]);

    let mut foob = Zone::new(n("foob.ar"));
    foob.add(n("edge.foob.ar"), a("198.51.100.7"));
    foob.add(n("foob.ar"), RData::Ns(n("ns.foob.ar")));
    foob.add(n("ns.foob.ar"), a("10.255.2.1"));
    let foob_handle = catalog.add_zone(foob, vec![dps_addr]);

    let root_srv = AuthServer::new();
    root_srv.serve_zone(root_handle);
    root_srv.bind(net, root_addr);

    let tld_srv = AuthServer::new();
    tld_srv.serve_zone(le_handle);
    tld_srv.serve_zone(ar_handle);
    tld_srv.bind(net, tld_addr);

    let dps_srv = AuthServer::new();
    dps_srv.serve_zone(examp_handle);
    dps_srv.serve_zone(foob_handle);
    dps_srv.bind(net, dps_addr);

    catalog.set_root_hints(vec![root_addr]);
    catalog
}

/// A recursor with both caches off over `resolver`.
fn uncached(resolver: Resolver) -> Recursor {
    let off = CacheConfig {
        capacity: 0,
        ..CacheConfig::default()
    };
    Recursor::over(resolver, off, 0, &Registry::new())
}

fn wire_resolver(net: &Arc<Network>, catalog: &Catalog) -> Resolver {
    Resolver::new(net, ip("172.16.0.1"), 0, catalog.root_hints())
}

#[test]
fn wire_resolves_apex_a() {
    let net = Network::new(11);
    let catalog = build_world(&net);
    let mut r = uncached(wire_resolver(&net, &catalog));
    let res = r.resolve(&n("examp.le"), RrType::A).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.records_of(RrType::A).count(), 1);
    assert!(res.elapsed_us > 0);
}

#[test]
fn wire_follows_cname_across_zones() {
    let net = Network::new(12);
    let catalog = build_world(&net);
    let mut r = uncached(wire_resolver(&net, &catalog));
    let res = r.resolve(&n("www.examp.le"), RrType::A).unwrap();
    let chain = res.cname_chain();
    assert_eq!(chain, vec![&n("edge.foob.ar")]);
    let a_rec = res.records_of(RrType::A).next().unwrap();
    assert_eq!(a_rec.rdata, a("198.51.100.7"));
}

/// A server may answer with a CNAME loop inside one response (its own
/// expansion is bounded, not loop-free): the resolver must still return.
#[test]
fn wire_cname_loop_in_one_response_terminates() {
    let net = Network::new(17);
    let catalog = Catalog::new();
    let root_addr = ip("10.9.0.1");
    let mut root = Zone::new(Name::root());
    root.add(n("examp.le"), RData::Ns(n("ns.examp.le")));
    root.add(n("ns.examp.le"), a("10.9.2.1"));
    let root_handle = catalog.add_zone(root, vec![root_addr]);
    let mut examp = Zone::new(n("examp.le"));
    examp.add(n("a.examp.le"), RData::Cname(n("b.examp.le")));
    examp.add(n("b.examp.le"), RData::Cname(n("a.examp.le")));
    let examp_handle = catalog.add_zone(examp, vec![ip("10.9.2.1")]);
    let root_srv = AuthServer::new();
    root_srv.serve_zone(root_handle);
    root_srv.bind(&net, root_addr);
    let examp_srv = AuthServer::new();
    examp_srv.serve_zone(examp_handle);
    examp_srv.bind(&net, ip("10.9.2.1"));

    // On a separate thread, so a regression fails instead of hanging.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut r = uncached(Resolver::new(&net, ip("172.16.0.1"), 0, vec![root_addr]));
        done.send(r.resolve(&n("a.examp.le"), RrType::A)).ok();
    });
    let res = outcome
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("resolution of a CNAME loop returned")
        .expect("the loop is answered, not an error");
    assert!(res
        .answers
        .iter()
        .all(|r| matches!(r.rdata, RData::Cname(_))));
}

#[test]
fn wire_nxdomain_propagates() {
    let net = Network::new(13);
    let catalog = build_world(&net);
    let mut r = uncached(wire_resolver(&net, &catalog));
    let res = r.resolve(&n("missing.examp.le"), RrType::A).unwrap();
    assert_eq!(res.rcode, Rcode::NxDomain);
    assert!(res.answers.is_empty());
}

#[test]
fn wire_nodata_is_noerror_empty() {
    let net = Network::new(14);
    let catalog = build_world(&net);
    let mut r = uncached(wire_resolver(&net, &catalog));
    let res = r.resolve(&n("examp.le"), RrType::Mx).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.records_of(RrType::Mx).next().is_none());
}

#[test]
fn wire_survives_heavy_loss() {
    let net = Network::new(15);
    let catalog = build_world(&net);
    net.set_faults(dps_netsim::FaultProfile {
        loss: 0.3,
        ..Default::default()
    });
    let mut r = uncached(wire_resolver(&net, &catalog).with_config(ResolverConfig {
        retries: 8,
        ..Default::default()
    }));
    let res = r.resolve(&n("www.examp.le"), RrType::A).unwrap();
    assert_eq!(res.records_of(RrType::A).count(), 1);
}

#[test]
fn wire_reports_unbound_server_as_unreachable() {
    let net = Network::new(16);
    let catalog = Arc::new(Catalog::new());
    catalog.set_root_hints(vec![ip("10.255.0.99")]); // nothing bound
    let mut r = uncached(
        Resolver::new(&net, ip("172.16.0.1"), 0, catalog.root_hints()).with_config(
            ResolverConfig {
                retries: 2,
                attempt_timeout_us: 200_000,
                ..Default::default()
            },
        ),
    );
    let started = r.now_us();
    assert_eq!(
        r.resolve(&n("x.y"), RrType::A),
        Err(ResolveError::Unreachable)
    );
    // ICMP fast-fail: well under the 2 × 200 ms worth of timeouts.
    assert!(r.now_us() - started < 400_000, "took {}", r.now_us());
}

#[test]
fn wire_times_out_on_blackout() {
    let net = Network::new(16);
    let catalog = build_world(&net);
    net.set_chaos(dps_netsim::ChaosSchedule::new().blackout(None, 0, u64::MAX));
    let mut r = uncached(wire_resolver(&net, &catalog).with_config(ResolverConfig {
        retries: 2,
        attempt_timeout_us: 10_000,
        ..Default::default()
    }));
    // A blackout is silence, not an ICMP bounce.
    assert_eq!(r.resolve(&n("x.y"), RrType::A), Err(ResolveError::Timeout));
}

#[test]
fn wire_classifies_pure_garbage_as_corrupt_reply() {
    let net = Network::new(19);
    let addr = ip("10.255.0.1");
    // A server that answers every query with noise.
    net.bind_service(addr, Arc::new(|_, _| Some(vec![0xFF; 24])));
    let catalog = Arc::new(Catalog::new());
    catalog.set_root_hints(vec![addr]);
    let mut r = uncached(
        Resolver::new(&net, ip("172.16.0.1"), 0, catalog.root_hints()).with_config(
            ResolverConfig {
                retries: 1,
                ..Default::default()
            },
        ),
    );
    assert_eq!(
        r.resolve(&n("x.y"), RrType::A),
        Err(ResolveError::CorruptReply)
    );
}

#[test]
fn backoff_advances_clock_without_changing_answers() {
    let net = Network::new(20);
    let catalog = build_world(&net);
    net.set_faults(dps_netsim::FaultProfile {
        loss: 0.3,
        ..Default::default()
    });
    let mut r = uncached(wire_resolver(&net, &catalog).with_config(ResolverConfig {
        retries: 8,
        backoff_base_us: 50_000,
        backoff_jitter: 0.25,
        ..Default::default()
    }));
    let res = r.resolve(&n("www.examp.le"), RrType::A).unwrap();
    assert_eq!(res.records_of(RrType::A).count(), 1);
}

#[test]
fn health_tracker_deprioritises_a_dead_server() {
    let net = Network::new(22);
    let catalog = build_world(&net);
    let tracker = Arc::new(HealthTracker::new(HealthConfig {
        failure_threshold: 2,
        open_duration_us: 60_000_000,
    }));
    // Blackout one of two root replicas: after the breaker trips, the
    // resolver should stop burning timeouts on it.
    let dead = ip("10.255.0.77");
    net.set_chaos(dps_netsim::ChaosSchedule::new().blackout(Some(dead), 0, u64::MAX));
    let mut r = uncached(
        Resolver::new(
            &net,
            ip("172.16.0.1"),
            0,
            vec![dead, catalog.root_hints()[0]],
        )
        .with_health(Arc::clone(&tracker)),
    );
    for _ in 0..4 {
        r.resolve(&n("examp.le"), RrType::A).unwrap();
    }
    assert_eq!(tracker.trips(), 1);
    assert!(tracker.skips() > 0, "open breaker never skipped");
}
