//! End-to-end recursor behaviour over a materialized world: cache reuse
//! within a day, TTL expiry across days, packet accounting over a
//! one-resolver sweep, negative caching, alias replay and the virtual
//! clock.

use dps_authdns::health::{HealthConfig, ServerHealth};
use dps_dns::{Name, RrType};
use dps_ecosystem::{ScenarioParams, World};
use dps_netsim::{ChaosSchedule, Day, Network};
use dps_recursor::{CacheConfig, Recursor, RecursorConfig};
use dps_telemetry::Registry;
use std::net::IpAddr;
use std::sync::Arc;

fn src() -> IpAddr {
    "172.16.5.1".parse().unwrap()
}

fn world() -> World {
    World::imc2016(ScenarioParams::tiny(41))
}

/// A recursor with the default config, sending from [`src`] on stream 0.
fn recursor(net: &Arc<Network>, root_hints: Vec<IpAddr>) -> Recursor {
    Recursor::new(net, src(), 0, root_hints, RecursorConfig::default())
}

/// What one sweep did, in numbers.
struct Sweep {
    queries: u64,
    cache_hits: u64,
    packets_sent: u64,
    errors: u64,
}

impl Sweep {
    fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / self.queries as f64
    }
}

/// Resolves every job on `day` through `recursor`, counting the packets
/// the whole network sent meanwhile.
fn sweep(recursor: &mut Recursor, net: &Network, day: Day, jobs: &[(Name, RrType)]) -> Sweep {
    recursor.begin_day(day);
    let packets_before = net.stats().snapshot().sent;
    let stats_before = recursor.stats();
    let errors = jobs
        .iter()
        .filter(|(qname, qtype)| recursor.resolve(qname, *qtype).is_err())
        .count() as u64;
    let stats = recursor.stats();
    Sweep {
        queries: stats.queries - stats_before.queries,
        cache_hits: stats.cache_hits - stats_before.cache_hits,
        packets_sent: net.stats().snapshot().sent - packets_before,
        errors,
    }
}

fn jobs_for(world: &World, take: usize) -> Vec<(Name, RrType)> {
    let mut jobs = Vec::new();
    for entry in world
        .zone_entries(dps_ecosystem::Tld::Com)
        .iter()
        .copied()
        .take(take)
    {
        let apex = world.entry_name(entry);
        let www = apex.prepend("www").unwrap();
        jobs.push((apex.clone(), RrType::A));
        jobs.push((www, RrType::A));
        jobs.push((apex.clone(), RrType::Aaaa));
        jobs.push((apex, RrType::Ns));
    }
    jobs
}

#[test]
fn repeat_queries_are_served_from_cache_without_packets() {
    let world = world();
    let net = Network::new(5);
    let catalog = world.materialize(&net);
    let mut recursor = recursor(&net, catalog.root_hints());

    let apex = world.entry_name(world.zone_entries(dps_ecosystem::Tld::Com)[0]);
    let first = recursor.resolve(&apex, RrType::A).unwrap();
    let packets_after_first = net.stats().snapshot().sent;
    assert!(packets_after_first > 0);

    let second = recursor.resolve(&apex, RrType::A).unwrap();
    assert_eq!(first, second, "cache replays the resolution verbatim");
    assert_eq!(
        net.stats().snapshot().sent,
        packets_after_first,
        "hit sent no packets"
    );

    let stats = recursor.stats();
    assert_eq!(
        (stats.queries, stats.cache_hits, stats.cache_misses),
        (2, 1, 1)
    );
}

#[test]
fn day_boundary_expires_answers_but_not_correctness() {
    let world = world();
    let net = Network::new(6);
    let catalog = world.materialize(&net);
    let mut recursor = recursor(&net, catalog.root_hints());

    let apex = world.entry_name(world.zone_entries(dps_ecosystem::Tld::Com)[0]);
    recursor.begin_day(Day(0));
    let day0 = recursor.resolve(&apex, RrType::A).unwrap();
    let packets_day0 = net.stats().snapshot().sent;

    // Same day: a hit. Next day: zone TTLs (≤ hours) have long lapsed.
    recursor.begin_day(Day(1));
    let day1 = recursor.resolve(&apex, RrType::A).unwrap();
    assert!(
        net.stats().snapshot().sent > packets_day0,
        "day-1 lookup went to the network"
    );
    assert_eq!(day0.rcode, day1.rcode);
    assert_eq!(
        day0.answers, day1.answers,
        "static zone: same records re-fetched"
    );
}

#[test]
fn infra_cache_skips_the_root_for_sibling_queries() {
    let world = world();
    let net = Network::new(7);
    let catalog = world.materialize(&net);
    let mut recursor = recursor(&net, catalog.root_hints());

    let entries = world.zone_entries(dps_ecosystem::Tld::Com);
    let first = world.entry_name(entries[0]);
    let sibling = world.entry_name(entries[1]);

    recursor.resolve(&first, RrType::A).unwrap();
    assert!(
        !recursor.infra_cache().is_empty(),
        "referrals populated the infra cache"
    );
    let stats_before = recursor.stats();
    recursor.resolve(&sibling, RrType::A).unwrap();
    let stats = recursor.stats();
    assert!(
        stats.infra_starts > stats_before.infra_starts,
        "sibling descent started from a cached cut"
    );
}

#[test]
fn warm_sweep_needs_five_times_fewer_packets_than_uncached_wire() {
    let world = world();
    let net = Network::new(8);
    let catalog = world.materialize(&net);
    let jobs = jobs_for(&world, 40);

    // Baseline: the uncached wire path, both caches off, so every query
    // descends from the root.
    let resolver = dps_authdns::resolver::Resolver::new(&net, src(), 99, catalog.root_hints());
    let off = CacheConfig {
        capacity: 0,
        ..CacheConfig::default()
    };
    let mut baseline = Recursor::over(resolver, off, 0, &Registry::new());
    let before = net.stats().snapshot().sent;
    let mut uncached_elapsed_us = 0;
    for (qname, qtype) in &jobs {
        if let Ok(res) = baseline.resolve(qname, *qtype) {
            uncached_elapsed_us += res.elapsed_us;
        }
    }
    let uncached_packets = net.stats().snapshot().sent - before;
    // Pinned: the uncached baseline's exact packets and virtual time.
    assert_eq!((uncached_packets, uncached_elapsed_us), (1443, 31_737_273));

    let mut recursor = recursor(&net, catalog.root_hints());
    let cold = sweep(&mut recursor, &net, Day(0), &jobs);
    let warm = sweep(&mut recursor, &net, Day(0), &jobs);

    assert_eq!(cold.queries, jobs.len() as u64);
    assert!(
        cold.packets_sent < uncached_packets,
        "even a cold sweep shares infrastructure"
    );
    assert!(
        warm.packets_sent * 5 <= uncached_packets,
        "warm sweep {} packets vs uncached {}",
        warm.packets_sent,
        uncached_packets
    );
    assert!(warm.hit_ratio() > 0.95, "hit ratio {}", warm.hit_ratio());
    assert_eq!(warm.errors, 0);
}

#[test]
fn recursor_answers_match_the_bulk_path() {
    let world = world();
    let net = Network::new(10);
    let catalog = world.materialize(&net);
    let mut recursor = recursor(&net, catalog.root_hints());

    for entry in world
        .zone_entries(dps_ecosystem::Tld::Com)
        .iter()
        .copied()
        .take(25)
    {
        let apex = world.entry_name(entry);
        let www = apex.prepend("www").unwrap();
        for (qname, qtype) in [
            (&apex, RrType::A),
            (&www, RrType::A),
            (&apex, RrType::Ns),
            (&apex, RrType::Aaaa),
        ] {
            match (world.resolve(qname, qtype), recursor.resolve(qname, qtype)) {
                (Ok(bulk), Ok(rec)) => {
                    assert_eq!(bulk.rcode, rec.rcode, "{qname} {qtype}");
                    assert_eq!(bulk.answers, rec.answers, "{qname} {qtype}");
                }
                (Err(_), Err(_)) => {}
                (b, r) => panic!("{qname} {qtype}: bulk {b:?} vs recursor {r:?}"),
            }
        }
    }
}

#[test]
fn negative_answers_are_cached_rfc2308() {
    let world = world();
    let net = Network::new(11);
    let catalog = world.materialize(&net);
    let mut recursor = recursor(&net, catalog.root_hints());

    let missing: Name = "definitely-not-registered-zz.com".parse().unwrap();
    let first = recursor.resolve(&missing, RrType::A).unwrap();
    assert_eq!(first.rcode, dps_dns::Rcode::NxDomain);
    let packets = net.stats().snapshot().sent;

    let second = recursor.resolve(&missing, RrType::A).unwrap();
    assert_eq!(second.rcode, dps_dns::Rcode::NxDomain);
    assert_eq!(
        net.stats().snapshot().sent,
        packets,
        "NXDOMAIN served from cache"
    );
    let now = recursor.clock_us();
    assert_eq!(
        recursor.answer_cache().negative(&missing, RrType::A, now),
        Some(true)
    );
}

/// Root + TLD + a customer server and a *separate* CDN server. The customer
/// server cannot expand the cross-server CNAME itself, so the recursor
/// chases the alias restart — the path that replays cached alias targets.
mod cname_world {
    use super::*;
    use dps_authdns::{AuthServer, Catalog, Zone};
    use dps_dns::RData;
    use std::net::Ipv4Addr;
    use std::sync::Arc as StdArc;

    pub fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn a(s: &str) -> RData {
        RData::A(s.parse::<Ipv4Addr>().unwrap())
    }

    pub fn build(net: &StdArc<Network>) -> Vec<IpAddr> {
        let catalog = Catalog::new();
        let root_addr = ip("10.9.0.1");
        let tld_addr = ip("10.9.1.1");
        let customer_addr = ip("10.9.2.1");
        let cdn_addr = ip("10.9.3.1");

        let mut root = Zone::new(Name::root());
        root.add(n("le"), RData::Ns(n("ns.tld")));
        root.add(n("net"), RData::Ns(n("ns.tld")));
        root.add(n("ns.tld"), a("10.9.1.1"));
        let root_handle = catalog.add_zone(root, vec![root_addr]);

        let mut le = Zone::new(n("le"));
        le.add(n("examp.le"), RData::Ns(n("ns.examp.le")));
        le.add(n("ns.examp.le"), a("10.9.2.1"));
        let le_handle = catalog.add_zone(le, vec![tld_addr]);

        let mut net_tld = Zone::new(n("net"));
        net_tld.add(n("cdn.net"), RData::Ns(n("ns.cdn.net")));
        net_tld.add(n("ns.cdn.net"), a("10.9.3.1"));
        let net_handle = catalog.add_zone(net_tld, vec![tld_addr]);

        // Two customer names aliased onto the same CDN edge.
        let mut examp = Zone::new(n("examp.le"));
        examp.add(n("www.examp.le"), RData::Cname(n("edge.cdn.net")));
        examp.add(n("www2.examp.le"), RData::Cname(n("edge.cdn.net")));
        let examp_handle = catalog.add_zone(examp, vec![customer_addr]);

        let mut cdn = Zone::new(n("cdn.net"));
        cdn.add(n("edge.cdn.net"), a("198.51.100.7"));
        let cdn_handle = catalog.add_zone(cdn, vec![cdn_addr]);

        let root_srv = AuthServer::new();
        root_srv.serve_zone(root_handle);
        root_srv.bind(net, root_addr);

        let tld_srv = AuthServer::new();
        tld_srv.serve_zone(le_handle);
        tld_srv.serve_zone(net_handle);
        tld_srv.bind(net, tld_addr);

        let customer_srv = AuthServer::new();
        customer_srv.serve_zone(examp_handle);
        customer_srv.bind(net, customer_addr);

        let cdn_srv = AuthServer::new();
        cdn_srv.serve_zone(cdn_handle);
        cdn_srv.bind(net, cdn_addr);

        vec![root_addr]
    }
}

/// A server may answer with a CNAME loop inside one response (its own
/// expansion is bounded, not loop-free): the recursor must still return.
#[test]
fn a_cname_loop_in_one_response_terminates() {
    use dps_authdns::{AuthServer, Catalog, Zone};
    use dps_dns::RData;
    let n = cname_world::n;
    let net = Network::new(34);
    let catalog = Catalog::new();
    let root_addr: IpAddr = "10.9.0.1".parse().unwrap();
    let zone_addr: IpAddr = "10.9.2.1".parse().unwrap();
    let mut root = Zone::new(Name::root());
    root.add(n("examp.le"), RData::Ns(n("ns.examp.le")));
    root.add(n("ns.examp.le"), RData::A("10.9.2.1".parse().unwrap()));
    let root_handle = catalog.add_zone(root, vec![root_addr]);
    let mut examp = Zone::new(n("examp.le"));
    examp.add(n("a.examp.le"), RData::Cname(n("b.examp.le")));
    examp.add(n("b.examp.le"), RData::Cname(n("a.examp.le")));
    let examp_handle = catalog.add_zone(examp, vec![zone_addr]);
    let root_srv = AuthServer::new();
    root_srv.serve_zone(root_handle);
    root_srv.bind(&net, root_addr);
    let examp_srv = AuthServer::new();
    examp_srv.serve_zone(examp_handle);
    examp_srv.bind(&net, zone_addr);

    // On a separate thread, so a regression fails instead of hanging.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut recursor = recursor(&net, vec![root_addr]);
        done.send(recursor.resolve(&n("a.examp.le"), RrType::A))
            .ok();
    });
    let resolution = outcome
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("resolution of a CNAME loop returned")
        .expect("the loop is answered, not an error");
    assert!(resolution
        .answers
        .iter()
        .all(|r| matches!(r.rdata, RData::Cname(_))));
}

/// A chain re-cached from a replayed alias target must not outlive the
/// cached entry it was derived from (real resolvers decrement TTLs on
/// replay; re-granting the full record TTL would stretch it up to ~2×).
#[test]
fn replayed_alias_target_does_not_stretch_ttl() {
    let net = Network::new(31);
    let hints = cname_world::build(&net);
    let mut recursor = recursor(&net, hints);

    let www = cname_world::n("www.examp.le");
    let www2 = cname_world::n("www2.examp.le");
    let edge = cname_world::n("edge.cdn.net");

    // Cold chase caches the shared edge under its own name (zone TTL 300 s).
    let first = recursor.resolve(&www, RrType::A).unwrap();
    assert_eq!(first.answers.len(), 2, "CNAME + A: {first:?}");
    let now = recursor.clock_us();
    let (_, edge_expires) = recursor
        .answer_cache()
        .peek(&edge, RrType::A, now)
        .expect("edge cached under its own name");

    // Near the edge's expiry, a sibling alias replays it from cache.
    recursor.sleep_us(290_000_000 - now);
    let second = recursor.resolve(&www2, RrType::A).unwrap();
    assert_eq!(first.answers[1], second.answers[1], "same replayed edge A");

    let now = recursor.clock_us();
    let (_, www2_expires) = recursor
        .answer_cache()
        .peek(&www2, RrType::A, now)
        .expect("derived chain cached");
    assert!(
        www2_expires <= edge_expires,
        "derived entry (expires {www2_expires}) must not outlive its source (expires {edge_expires})"
    );

    // Past the edge's authoritative expiry, the derived chain is gone too.
    recursor.sleep_us(edge_expires + 1 - now);
    let now = recursor.clock_us();
    assert!(
        recursor.answer_cache().get(&www2, RrType::A, now).is_none(),
        "derived chain served past its source's TTL"
    );
}

/// The virtual clock follows the socket time through failed resolutions
/// and pauses, not only through successes: breakers and TTLs read it, so
/// a supervisor's pause must be able to cool an open breaker.
#[test]
fn shared_clock_advances_on_failures_and_pauses() {
    let world = world();
    let net = Network::new(33);
    let catalog = world.materialize(&net);
    let hints = catalog.root_hints();
    net.set_chaos(ChaosSchedule::new().blackout(None, 0, u64::MAX));
    // Trip on the third silent attempt: one resolution's worth of retries.
    let health = HealthConfig {
        failure_threshold: 3,
        ..HealthConfig::default()
    };
    let config = RecursorConfig {
        health,
        ..RecursorConfig::default()
    };
    let mut recursor = Recursor::new(&net, src(), 0, hints.clone(), config);

    let apex = world.entry_name(world.zone_entries(dps_ecosystem::Tld::Com)[0]);
    assert!(
        recursor.resolve(&apex, RrType::A).is_err(),
        "blackout answered"
    );
    let failed_at = recursor.now_us();
    assert!(failed_at > 0, "timeouts spent socket time");
    assert_eq!(
        recursor.clock_us(),
        failed_at,
        "a failed resolution's socket time reaches the shared clock"
    );
    let root = hints[0];
    assert_eq!(
        recursor.health().check(root, recursor.clock_us()),
        ServerHealth::Open,
        "the silent root's breaker tripped"
    );

    recursor.sleep_us(60_000_000);
    assert_eq!(
        recursor.clock_us(),
        failed_at + 60_000_000,
        "a pause reaches the shared clock"
    );
    assert_eq!(
        recursor.health().check(root, recursor.clock_us()),
        ServerHealth::Probe,
        "the pause cooled the breaker to half-open"
    );
}
